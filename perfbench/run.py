"""The construe benchmark: one command per workload run.

Usage (from the repository root):

    python3 perfbench/run.py --workload phrases --seed 1 --seconds 40 --trace 0

It drives the public API single-threaded, as one client in a closed loop:
each input is sent only after the previous one has finished, in one
process per workload.  With ``--trace 0`` it prints the end-to-end metrics
(set-up time, latency p50/p90, throughput, peak RSS, failed ratio), set-up
being the median of SETUP_PROBES cold loads, each in a fresh process.
With ``--trace 1`` it runs the traced passes instead and prints per-layer
counts and times plus the tracing overhead.  Workloads are described in
perfbench/workloads.py, the traced layers in perfbench/tracer.py.

Correctness, on every run:
  * each input is checked against references the engine did not produce,
    and every timed output must equal the checked one;
  * retrieval on sampled windows must equal the test suite's brute-force
    matcher;
  * the correctness pass runs again in a second process under another
    PYTHONHASHSEED, and the two output digests must be equal;
  * the digest of the reference seed's full output must equal the one
    recorded in perfbench/reference_digests.json.  A change that means to
    alter outputs updates that file by hand, from the digest this prints
    on a mismatch, and says so.
Every failed check counts in ``failed``; the run is ``correct`` only if
none failed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "reference_digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
TIMED_HASH_SEED = "0"
CHECK_HASH_SEED = "1"
SETUP_PROBES = 21        # fresh processes that each time one cold load
DEADLINE_S = 170         # all processes together, to exit within 180 s


class BenchError(Exception):
    pass


def child(mode: str, workload: str, seed: int, seconds: float, hash_seed: str,
          deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "measure.py"), mode, workload, str(seed),
           str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} process did not finish within {DEADLINE_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def declared_metrics(trace: bool) -> list:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "construe").is_dir() or not (ROOT / "tests" / "helpers.py").is_file():
        print("error: run from a construe checkout (src/construe and tests/ "
              "are missing)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            child("setup", args.workload, args.seed, args.seconds, TIMED_HASH_SEED,
                  deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = child("trace" if args.trace else "time", args.workload, args.seed,
                    args.seconds, TIMED_HASH_SEED, deadline)
        check = child("check", args.workload, args.seed, args.seconds,
                      CHECK_HASH_SEED, deadline)
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        names = declared_metrics(bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if setups:
        run["metrics"]["setup_s"] = (statistics.median(setups), "s", len(setups))
    problems = run["problems"] + check["problems"]
    gates = {
        "hash-seed digests equal": run["digest"] == check["digest"],
        "reference digest recorded and equal":
            recorded.get(args.workload) == check["reference_digest"],
    }
    problems += [f"gate failed: {g}" for g, ok in gates.items() if not ok]
    attempted = run["attempted"] + check["attempted"] + len(gates)
    failed = run["failed"] + check["failed"] + sum(not ok for ok in gates.values())
    missing = [n for n in names if n not in run["metrics"]]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "hash_seed_timed": TIMED_HASH_SEED,
        "hash_seed_check": CHECK_HASH_SEED, "git_commit": git_commit(),
        "loop": "closed, one client, single-threaded",
    }
    print("# run")
    for k, v in meta.items():
        print(f"{k:24} {v}")
    print("# workload properties")
    for k, v in {**check["properties"], **run.get("properties", {})}.items():
        print(f"{k:24} {json.dumps(v)}")
    print("# metrics (name value unit samples)")
    for name in sorted(run["metrics"]):
        value, unit, samples = run["metrics"][name]
        print(f"{name:32} {value:>16.6f} {unit:6} n={samples}")
    print(f"{'failed_ratio':32} {failed / attempted:>16.6f} {'ratio':6} n={attempted}")
    print(f"# digest {run['digest']}  hash-seed {'ok' if gates['hash-seed digests equal'] else 'MISMATCH'}")
    if not gates["reference digest recorded and equal"]:
        print(f"# reference digest {check['reference_digest']}, recorded "
              f"{recorded.get(args.workload)}")
    for p in problems:
        print(f"! {p}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": run["metrics"][n][0], "unit": run["metrics"][n][1]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
