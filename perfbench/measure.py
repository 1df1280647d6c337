"""One process of the benchmark.  ``run.py`` starts it under a fixed
PYTHONHASHSEED and reads the JSON object it prints last.

Usage: python3 perfbench/measure.py MODE WORKLOAD SEED SECONDS
  MODE is ``setup`` (one cold load of the workload's resources),
  ``time`` (the timed loop), ``trace`` (the traced run) or ``check`` (the
  correctness pass, the retrieval oracle and the workload properties, on
  SEED, and the correctness pass on the reference seed).

Each timed figure comes from a process that holds only what the workload
holds: set-up is timed in fresh processes, one cold load each, and the
oracle and the properties run in the check process, so ``peak_rss_mb`` of
the timed process is the workload's own.

Warm-up rule.  ``KnowledgeBase`` fills its match and genls memos lazily.
The library workloads (phrases, long-captions, synthetic-large) stand for a
long-lived caller that loads resources once and pays that cost once, so
they time nothing until one untimed pass over their inputs (the
correctness pass) has run.  ``cli-per-call`` reloads its resources on every
call, as each CLI invocation does, so every timed call starts cold.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from construe import cli, constructions, interpreter, kb, sexpr, tagger  # noqa: E402
from construe.logic import (canonical_form, expr_from_json, parse_expr,  # noqa: E402
                            print_expr)
from helpers import brute_force_matches, retrieval_signatures  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_INPUTS = 100   # so that p90 has at least ten samples beyond it
ORACLE_WINDOWS = 48      # retrieval windows compared with brute force
SPANS_DIR = ROOT / ".bench_out"


# ---------------------------------------------------------------------------
# Resources and running one input

class Loaded:
    def __init__(self, res: workloads.ResourceSet):
        self.kb = kb.load_kb(list(res.kb))
        self.lexicon = tagger.load_lexicon(list(res.lexicon))
        self.repo = constructions.load_constructions(list(res.constructions))


def load_all(w: workloads.Workload) -> dict:
    return {key: Loaded(res) for key, res in w.resources.items()}


def cycl(finals) -> str:
    return "".join(f"[{it.start}:{it.end}] {print_expr(it.logic)}\n"
                   for it in finals)


class LibraryRunner:
    """interpret() + finalize() on resources loaded once."""

    def __init__(self, w, loaded):
        self.loaded = loaded

    def run(self, item):
        r = self.loaded[item.resources]
        graph = interpreter.interpret(item.text, r.kb, r.repo, r.lexicon)
        finals = interpreter.finalize(graph)
        return graph, finals

    @staticmethod
    def output(result) -> str:
        return cycl(result[1])

    def check(self, item, result) -> list:
        graph, finals = result
        problems = []
        if graph.truncated:
            problems.append("graph truncated")
        if item.whole:
            expected = item.placed[0].expect.final
            got = [(it.start, it.end, graph.edges[it.edge_id].logic) for it in finals]
            if not _same_final(got, expected):
                problems.append(f"final interpretations {[(s, e, print_expr(x)) for s, e, x in got]}")
        for p in item.placed:
            problems += _check_placed(graph, p)
        return problems


class CliRunner:
    """One in-process ``construe interpret --format json`` call per input;
    the CLI re-reads the resource files each time."""

    def __init__(self, w, loaded):
        self.args = {key: res.cli_args() for key, res in w.resources.items()}

    def run(self, item):
        buf = io.StringIO()
        code = cli.main(["interpret", *self.args[item.resources], "--format",
                         "json", item.text], out=buf)
        return code, buf.getvalue()

    @staticmethod
    def output(result) -> str:
        return f"exit {result[0]}\n{result[1]}"

    def check(self, item, result) -> list:
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        problems = ["graph truncated"] if doc["truncated"] else []
        got = [(i["span"][0], i["span"][1], expr_from_json(i["provenance"]["logic"]))
               for i in doc["interpretations"]]
        if not _same_final(got, item.placed[0].expect.final):
            problems.append("final interpretations differ from the reference")
        return problems


def _same_final(got, expected) -> bool:
    return (len(got) == len(expected)
            and all(g[:2] == e[:2] and canonical_form(g[2]) == canonical_form(parse_expr(e[2]))
                    for g, e in zip(got, expected)))


def _check_placed(graph, p: workloads.Placed) -> list:
    problems = []
    lo, hi = p.offset, p.offset + p.width
    for s, e, logic in p.expect.final:
        want = canonical_form(parse_expr(logic))
        if not any(edge.source != "lex"
                   and (p.source is None or edge.source == p.source)
                   and canonical_form(edge.logic) == want
                   for edge in graph.edges_at(lo + s, lo + e)):
            problems.append(f"missing {logic} at [{lo + s}:{lo + e}]")
    if not p.expect.final and any(e.source != "lex" for e in graph.edges_at(lo, hi)):
        problems.append(f"unexpected interpretation at [{lo}:{hi}]")
    for kind, text in p.expect.trace:
        if not any(ev.kind == kind and text in ev.detail
                   and lo <= ev.span[0] and ev.span[1] <= hi for ev in graph.trace):
            problems.append(f"no {kind} discard matching {text!r} in [{lo}:{hi}]")
    return problems


def runner_for(w, loaded):
    return (CliRunner if w.name == "cli-per-call" else LibraryRunner)(w, loaded)


# ---------------------------------------------------------------------------
# Passes

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}


def run_checked(runner, item, tally: Tally, what: str):
    try:
        result = runner.run(item)
        problems = runner.check(item, result)
    except Exception as err:  # a failing input is counted, not fatal
        tally.record(what, [f"{type(err).__name__}: {err}"])
        return None
    tally.record(what, problems)
    return result


def correctness_pass(w, runner, tally: Tally, keep: bool = True) -> tuple:
    """Run and check every input once.  Returns (outputs, digest,
    results) where results (when ``keep``) holds the library graphs for the
    oracle."""
    outputs, results = [], []
    h = hashlib.sha256()
    for i, item in enumerate(w.items):
        result = run_checked(runner, item, tally, f"{w.name}[{i}]")
        out = runner.output(result) if result is not None else "<failed>\n"
        outputs.append(out)
        if keep:
            results.append(result)
        h.update(item.text.encode() + b"\n" + out.encode() + b"\x1e")
    return outputs, h.hexdigest(), results


def library_graphs(w, loaded, results) -> list:
    """Finished parse graphs for every input: those of the correctness pass,
    or, for the CLI workload, a library run of the same inputs."""
    if w.name != "cli-per-call":
        return [r[0] for r in results if r is not None]
    lib = LibraryRunner(w, loaded)
    return [lib.run(item)[0] for item in w.items]


def oracle(w, graphs, seed: int, tally: Tally):
    """Retrieval on sampled windows of finished graphs must equal the
    brute-force matcher of the test suite."""
    rng = random.Random(f"oracle:{w.name}:{seed}")
    if not graphs:
        return
    max_window = interpreter.EngineConfig().max_window
    for k in range(ORACLE_WINDOWS):
        graph = graphs[k % len(graphs)]
        n = len(graph.tokens)
        if n == 0:
            continue
        start = rng.randrange(n)
        end = rng.randint(start + 1, min(n, start + max_window))
        try:
            got = retrieval_signatures(interpreter.retrieve(graph, start, end))
            want = brute_force_matches(graph, start, end)
            problems = [] if got == want else [
                f"retrieve {sorted(got)} != brute force {sorted(want)}"]
        except Exception as err:
            problems = [f"{type(err).__name__}: {err}"]
        tally.record(f"oracle {w.name} [{start}:{end}]", problems)


def check_output(runner, item, result, reference: str, tally: Tally, what: str):
    tally.record(what, [] if runner.output(result) == reference
                 else ["output differs from the correctness pass"])


# ---------------------------------------------------------------------------
# Modes

def properties(w, loaded, graphs) -> dict:
    props = dict(w.properties)
    lengths = [len(g.tokens) for g in graphs]
    segmented = sum(1 for g in graphs for t in g.tokens if getattr(t, "parent", None))
    if lengths:
        props["tokens_min"] = min(lengths)
        props["tokens_median"] = statistics.median(lengths)
        props["tokens_max"] = max(lengths)
        props["token_lengths"] = sorted(lengths)
        props["segmented_token_share"] = segmented / sum(lengths)
    for key, res in sorted(w.resources.items()):
        r = loaded[key]
        entries = sum(len(sexpr.parse_all(Path(p).read_text(encoding="utf-8")))
                      for p in res.lexicon)
        props[f"resources.{key}"] = {
            "terms": len(r.kb.term_names),
            "constructions": len(r.repo.constructions),
            "variants": len(r.repo.variants),
            "lexicon_entries": entries,
        }
    return props


def mode_setup(w) -> dict:
    """One cold load of every resource set, timed, in a fresh process."""
    t0 = perf_counter()
    load_all(w)
    return {"setup_s": perf_counter() - t0}


def mode_check(w, seed: int) -> dict:
    """The correctness pass under the second hash seed, the retrieval
    oracle, the workload properties and the reference seed's digest.  They
    run here, not in the timed process, so that its peak RSS holds only
    what the workload holds."""
    tally = Tally()
    loaded = load_all(w)
    _, digest, results = correctness_pass(w, runner_for(w, loaded), tally)
    graphs = library_graphs(w, loaded, results)
    oracle(w, graphs, seed, tally)
    props = properties(w, loaded, graphs)
    del results, graphs
    ref = workloads.make(w.name, workloads.REFERENCE_SEED)
    try:
        ref_loaded = load_all(ref)
        _, ref_digest, _ = correctness_pass(ref, runner_for(ref, ref_loaded), tally)
    finally:
        ref.close()
    return {"digest": digest, "reference_digest": ref_digest, "properties": props,
            **tally.as_dict()}


def mode_time(w, seconds: float) -> dict:
    """The timed loop.  Inputs run in blocks of whole cycles of at least
    MIN_TIMED_INPUTS inputs; p50 and p90 are taken over every input of a
    block and reported as their medians over the blocks.  Throughput is
    every timed input over the wall time of the loop, less the time spent
    checking outputs."""
    # cli-per-call loads its own resources on every call: hold no copy here
    loaded = load_all(w) if w.name != "cli-per-call" else {}
    runner = runner_for(w, loaded)
    tally = Tally()
    reference, digest, _ = correctness_pass(w, runner, tally, keep=False)

    n = len(w.items)
    cycles = -(-MIN_TIMED_INPUTS // n)
    block = array("d")
    p50s, p90s = [], []
    timed = 0
    checking = 0.0
    t_start = perf_counter()
    while not p50s or perf_counter() - t_start < seconds:
        del block[:]
        for _ in range(cycles):
            for i, item in enumerate(w.items):
                t0 = perf_counter()
                try:
                    result = runner.run(item)
                except Exception as err:
                    result = None
                    tally.record(f"timed {w.name}[{i}]", [f"{type(err).__name__}: {err}"])
                t1 = perf_counter()
                block.append(t1 - t0)
                if result is not None:
                    check_output(runner, item, result, reference[i], tally,
                                 f"timed {w.name}[{i}]")
                checking += perf_counter() - t1
        timed += len(block)
        p50s.append(statistics.median(block))
        p90s.append(_p90(block))
    wall = perf_counter() - t_start - checking
    samples = f"{timed} ({len(p50s)} blocks of {cycles * n})"
    metrics = {
        "latency_p50_ms": (1000 * statistics.median(p50s), "ms", samples),
        "latency_p90_ms": (1000 * statistics.median(p90s), "ms", samples),
        "throughput_inputs_per_s": (timed / wall, "1/s", timed),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
    }
    return {"metrics": metrics, "digest": digest, **tally.as_dict()}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mode_trace(w, seconds: float) -> dict:
    """Alternate untraced and traced passes (each loads every resource set,
    then runs every input once) for SECONDS.  Counts come from the first
    traced pass and must repeat exactly in every later one; times are
    medians over the traced passes."""
    loaded = load_all(w)
    runner = runner_for(w, loaded)
    tally = Tally()
    reference, digest, _ = correctness_pass(w, runner, tally, keep=False)
    props = {}

    tracer = tracing.Tracer()

    def one_pass(traced: bool) -> float:
        t0 = perf_counter()
        tracer.current_input = -1
        for res in w.resources.values():
            Loaded(res)
        for i, item in enumerate(w.items):
            tracer.current_input = i
            try:
                result = runner.run(item)
            except Exception as err:
                tally.record(f"{'traced' if traced else 'untraced'} {w.name}[{i}]",
                             [f"{type(err).__name__}: {err}"])
                continue
            check_output(runner, item, result, reference[i], tally,
                         f"{'traced' if traced else 'untraced'} {w.name}[{i}]")
        return perf_counter() - t0

    plain, traced_walls, times, counts = [], [], [], None
    t_start = perf_counter()
    while not traced_walls or perf_counter() - t_start < seconds:
        plain.append(one_pass(False))
        tracer.reset()
        with tracer:
            traced_walls.append(one_pass(True))
        tally.record("every traced function found",
                     [f"not found: {f}" for f in sorted(set(tracer.missing))])
        c, t, r = tracer.layer_metrics(len(w.items))
        c.update(r)
        if counts is None:
            counts = c
            tracer.write(SPANS_DIR / f"spans-{w.name}.txt")
        else:
            tally.record("traced counts repeat", [] if c == counts else
                         [f"{k}: {counts[k]} then {c[k]}" for k in c if c[k] != counts[k]])
        times.append(t)
        tracer.missing.clear()
    tracer.reset()

    metrics = {k: (v, "ratio" if k.endswith("_ratio") else "count", 1)
               for k, v in counts.items()}
    for k in times[0]:
        metrics[k] = (statistics.median(t[k] for t in times), "ms", len(times))
    metrics["trace.throughput_ratio"] = (
        statistics.median(plain) / statistics.median(traced_walls), "ratio",
        len(traced_walls))
    props["trace.passes"] = len(traced_walls)
    return {"metrics": metrics, "digest": digest, "properties": props,
            **tally.as_dict()}


def main(argv: list) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    w = workloads.make(name, seed)
    try:
        if mode == "setup":
            out = mode_setup(w)
        elif mode == "check":
            out = mode_check(w, seed)
        elif mode == "time":
            out = mode_time(w, seconds)
        elif mode == "trace":
            out = mode_trace(w, seconds)
        else:
            raise SystemExit(f"unknown mode {mode}")
    finally:
        w.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
