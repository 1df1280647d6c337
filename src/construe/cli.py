"""Command-line front end.

Subcommands: ``interpret`` (text to ranked logic, in cycl/json/trace
formats), ``tag`` (concept-tag table), ``eval`` (scoring worksheet and
coverage/precision/length metrics from human verdicts) and ``lint``
(resource diagnostics).

Exit codes: 0 success (an empty interpretation list is success), 1 usage
error, 2 resource or load error, 3 lint findings.

``interpret``, ``tag`` and ``eval`` keep each clean load of their
resources in an on-disk cache (see ``load_resources``); ``lint`` and the
library loaders never use it.

Each ``main`` call builds only the parser of the command that its first
argument names (``command_parser``); the full parser (``build_parser``)
parses only an argument list that does not start with a command name:
``--help``, no arguments, an unknown command, or an option before the
command.  Both are built from ``COMMANDS`` and live for one call.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import stat
import sys
import time
import zlib
from pathlib import Path

from . import constructions as cons
from . import kb as kbmod
from . import sexpr, tagger
from .interpreter import (Edge, EngineConfig, Interpretation, ParseGraph,
                          finalize, interpret)
from .kb import ContextStack
from .logic import Names, expr_to_json, print_expr
from .value import Value


class UsageError(Exception):
    pass


class ResourceError(Exception):
    pass


class RunManifest(Value):
    __slots__ = _fields = ("kb_files", "lexicon_files", "construction_files",
                           "config")
    _defaults = {"config": EngineConfig()}


class Resources(Value):
    __slots__ = _fields = ("kb", "lexicon", "repo")


def _check_paths(manifest: RunManifest):
    for paths, flag in ((manifest.kb_files, "--kb"),
                        (manifest.lexicon_files, "--lexicon"),
                        (manifest.construction_files, "--constructions")):
        if not paths:
            raise UsageError(f"at least one {flag} file is required")


def _read_text(path, what: str) -> str:
    """The UTF-8 text of *path*; a file that cannot be read as such is a
    ResourceError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ResourceError(f"{what} file {path} cannot be read: {err}") from err


def _load(loader, paths, flag: str, names: Names | None = None):
    """*loader* run on *paths* with the load's *names*; a resource that does
    not load is a ResourceError naming *flag*."""
    try:
        return loader(paths, names=names)
    except sexpr.LoadError as err:
        raise ResourceError(f"{flag}: {err}") from err


# Bumped whenever the layout of a cache entry changes.
CACHE_FORMAT = 2
# A write removes the other entries not written for this long.
CACHE_MAX_AGE_S = 30 * 24 * 3600


# The size and modification time of every engine module when this one was
# imported: the code that pickles and unpickles in this process, even if a
# module file is edited while it runs.
_ENGINE = tuple(sorted(
    (e.name, e.stat().st_size, e.stat().st_mtime_ns)
    for e in os.scandir(os.path.dirname(os.path.abspath(__file__)))
    if e.name.endswith(".py")))


def _cache_key(paths: tuple) -> tuple:
    """What a cache entry must have been written under: the entry format,
    the Python version, the absolute resource *paths*, and the engine
    modules this process runs (``_ENGINE``), so that an entry never
    outlives the code that pickled it."""
    return (CACHE_FORMAT, sys.version_info[:2], paths, _ENGINE)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _read_sources(paths: tuple) -> tuple | None:
    """The bytes of every resource file, per path list, or None if one
    cannot be read (the loaders then report it)."""
    try:
        return tuple(tuple(map(_read_bytes, group)) for group in paths)
    except OSError:
        return None


def _cache_file(paths: tuple) -> str:
    """The one entry of a set of absolute resource *paths*: it is named by
    the paths alone, so an entry written under another engine or Python
    is overwritten, not left behind."""
    root = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(root, "construe",
                        f"{zlib.crc32(repr(paths).encode()):08x}.pickle")


def _cache_get(path: str, key: tuple, sources: tuple) -> Resources | None:
    """The resources of the entry at *path*, if the current user owns it,
    no one else may write it, and it was written under *key* from exactly
    *sources*; otherwise None."""
    try:
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            if (not stat.S_ISREG(st.st_mode) or st.st_uid != os.getuid()
                    or st.st_mode & 0o022):
                return None
            data = f.read()
    except OSError:
        return None
    import pickle       # here, so that lint, --help and usage errors skip it
    try:
        stored_key, stored_sources, resources = pickle.loads(data)
    except Exception:       # a truncated or corrupt entry is only a miss
        return None
    if stored_key != key or stored_sources != sources:
        return None
    return resources


def _cache_put(path: str, entry: tuple):
    """Write *entry* to *path* through a private temporary file, then evict
    stale entries; an entry that cannot be written is skipped."""
    import pickle
    data = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = f"{path}.tmp"
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        except FileExistsError:
            # left by a writer that was killed, or one still writing: the
            # next miss writes the entry
            os.unlink(tmp)
            return
        try:
            with open(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        return
    _evict_stale(directory)


def _evict_stale(directory: str):
    """Delete the entries in *directory* that the current user owns and
    that were last written more than ``CACHE_MAX_AGE_S`` ago: those of
    deleted checkouts or resource copies.  An entry still in use is at
    worst written again by its next call."""
    cutoff = time.time() - CACHE_MAX_AGE_S
    try:
        with os.scandir(directory) as scan:
            for e in scan:
                if not e.name.endswith(".pickle"):
                    continue
                st = e.stat(follow_symlinks=False)
                if (stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid()
                        and st.st_mtime < cutoff):
                    os.unlink(e.path)
    except OSError:
        pass


def load_resources(manifest: RunManifest) -> Resources:
    """Load the manifest's resources, through the on-disk cache.

    An entry holds the resources of one clean load together with the bytes
    of every file they came from.  It is used only if those bytes equal
    the files' bytes now and its key (``_cache_key``) matches; anything
    else, a missing, corrupt or untrusted entry included, is a miss that
    loads the files as if there were no cache.  A load with findings
    raises before anything is written."""
    _check_paths(manifest)
    paths = tuple(tuple(os.path.abspath(p) for p in group)
                  for group in (manifest.kb_files, manifest.lexicon_files,
                                manifest.construction_files))
    key = _cache_key(paths)
    sources = _read_sources(paths)
    path = _cache_file(paths)
    if sources is not None:
        cached = _cache_get(path, key, sources)
        if cached is not None:
            return cached
    # one table for the three loaders: the resources, and so the entry,
    # hold each name and atom once
    names = Names()
    resources = Resources(
        _load(kbmod.load_kb, manifest.kb_files, "--kb", names),
        _load(tagger.load_lexicon, manifest.lexicon_files, "--lexicon", names),
        _load(cons.load_constructions, manifest.construction_files,
              "--constructions", names))
    # a file that changed while it was loading is not cached
    if sources is not None and _read_sources(paths) == sources:
        _cache_put(path, (key, sources, resources))
    return resources


# ---------------------------------------------------------------------------
# Rendering

def _write_json(out, doc, ensure_ascii: bool = False):
    """*doc* as one line of JSON.  ``json.dumps`` encodes in C;
    ``json.dump`` always takes the pure-Python encoder."""
    out.write(json.dumps(doc, ensure_ascii=ensure_ascii) + "\n")


def _interpretation_line(it: Interpretation) -> str:
    return f"[{it.start}:{it.end}] {print_expr(it.logic)}"


def _edge_tree(graph: ParseGraph, edge: Edge) -> dict:
    node = {
        "id": edge.id,
        "source": edge.source,
        "span": [edge.start, edge.end],
        "logic": expr_to_json(edge.logic),
        "output_var": expr_to_json(edge.output_var) if edge.output_var else None,
        "output_type": expr_to_json(edge.output_type)
                       if edge.output_type is not None else None,
        "kind": edge.kind,
    }
    if edge.children:
        node["children"] = [
            {"slot": idx, **_edge_tree(graph, graph.edges[eid])}
            for idx, eid in edge.children
        ]
    return node


def _graph_json(graph: ParseGraph, interpretations: list) -> dict:
    return {
        "text": graph.text,
        "tokens": [{"surface": t.surface, "start": t.start, "end": t.end}
                   for t in graph.tokens],
        "truncated": graph.truncated,
        "interpretations": [
            {
                "id": f"i{rank}",
                "span": [it.start, it.end],
                "text": it.text,
                "logic": expr_to_json(it.logic),
                "output_type": expr_to_json(it.output_type)
                               if it.output_type is not None else None,
                "provenance": _edge_tree(graph, graph.edges[it.edge_id]),
            }
            for rank, it in enumerate(interpretations)
        ],
    }


def _warn_truncated(cap: str, where: str = ""):
    print(f"warning: {where}{cap} reached, interpretations may be incomplete",
          file=sys.stderr)


def cmd_interpret(resources: Resources, config: EngineConfig, text: str,
                  fmt: str, out) -> int:
    graph = interpret(text, resources.kb, resources.repo, resources.lexicon,
                      config)
    interpretations = finalize(graph)
    if graph.truncated:
        _warn_truncated(graph.truncated_by)
    if fmt == "json":
        _write_json(out, _graph_json(graph, interpretations))
        return 0
    for it in interpretations:
        out.write(_interpretation_line(it) + "\n")
    if fmt == "trace":
        out.write("== windows ==\n")
        for (s, e) in sorted(graph.pattern_counts):
            out.write(f"[{s}:{e}] typed-pattern candidates: "
                      f"{graph.pattern_counts[(s, e)]}\n")
        out.write("== discarded ==\n")
        for ev in graph.trace:
            out.write(f"{ev.construction} [{ev.span[0]}:{ev.span[1]}] "
                      f"{ev.kind}: {ev.detail}\n")
    return 0


def cmd_tag(resources: Resources, text: str, fmt: str, out) -> int:
    chart = tagger.tag(text, resources.lexicon)
    if fmt == "json":
        doc = {
            "text": text,
            "tokens": [{"surface": t.surface, "start": t.start, "end": t.end}
                       for t in chart.tokens],
            "spans": [{"start": s.start, "end": s.end,
                       "concepts": [expr_to_json(c) for c in s.concepts]}
                      for s in chart.spans],
        }
        _write_json(out, doc)
        return 0
    by_span = chart.by_span
    for i, tok in enumerate(chart.tokens):
        concepts = by_span.get((i, i + 1), ())
        out.write("%d:%d\t%s\t%s\n" % (i, i + 1, tok.surface,
                                       ", ".join(print_expr(c) for c in concepts)))
    for (s, e), concepts in sorted(by_span.items()):
        if e - s == 1:
            continue
        surface = " ".join(t.surface for t in chart.tokens[s:e])
        out.write("%d:%d\t%s\t%s\n" % (s, e, surface,
                                       ", ".join(print_expr(c) for c in concepts)))
    return 0


# ---------------------------------------------------------------------------
# Evaluation

class EvalRecord(Value):
    """*interpretations* go largest span first; *truncated_by* names the cap
    that cut the caption's run short."""

    __slots__ = _fields = ("caption_id", "text", "interpretations",
                           "token_count", "truncated_by")
    _defaults = {"truncated_by": ""}

    def interp_id(self, index: int) -> str:
        return f"i{index}"


def build_eval_records(resources: Resources, config: EngineConfig,
                       captions: list) -> list:
    records = []
    for caption_id, text in captions:
        graph = interpret(text, resources.kb, resources.repo,
                          resources.lexicon, config)
        interpretations = finalize(graph, maximal_only=False)
        records.append(EvalRecord(caption_id, text, interpretations,
                                  len(graph.tokens), graph.truncated_by))
    return records


def _interp_length(it: Interpretation, unit: str) -> int:
    if unit == "chars":
        return len(it.text)
    return it.token_length


def evaluate(records: list, verdicts: dict, unit: str = "tokens") -> dict:
    """The three metrics: mean fraction of caption tokens covered by an
    accepted-correct interpretation, the fraction of scored interpretations
    that are correct, and the mean length of correct interpretations.

    Scoring walks each caption's interpretations by span size, largest
    first, and stops at the first size with a correct one."""
    coverage_fractions = []
    scored = 0
    scored_correct = 0
    correct_lengths = []
    for rec in records:
        caption_verdicts = verdicts.get(rec.caption_id, {})
        for i, it in enumerate(rec.interpretations):
            if caption_verdicts.get(rec.interp_id(i)) == "correct":
                correct_lengths.append(_interp_length(it, unit))
        by_size: dict = {}
        for i, it in enumerate(rec.interpretations):
            by_size.setdefault(it.token_length, []).append((rec.interp_id(i), it))
        covered: set = set()
        for size in sorted(by_size, reverse=True):
            accepted = []
            for iid, it in by_size[size]:
                verdict = caption_verdicts.get(iid)
                if verdict in ("correct", "incorrect"):
                    scored += 1
                if verdict == "correct":
                    scored_correct += 1
                    accepted.append(it)
            if accepted:
                for it in accepted:
                    covered.update(range(it.start, it.end))
                break
        fraction = len(covered) / rec.token_count if rec.token_count else 0.0
        coverage_fractions.append(fraction)
    return {
        "captions": len(records),
        "coverage": (sum(coverage_fractions) / len(coverage_fractions)
                     if coverage_fractions else 0.0),
        "precision": scored_correct / scored if scored else 0.0,
        "mean_correct_length": (sum(correct_lengths) / len(correct_lengths)
                                if correct_lengths else 0.0),
        "length_unit": unit,
    }


def read_captions(path: str) -> list:
    """The (id, text) pairs of a captions file.  An id must be one word,
    since a verdict line names its caption by its first word, and ids must
    be distinct, or two captions' verdicts would be one.  The text holds
    no tab, or its worksheet row would have more than three columns."""
    captions: dict = {}
    for lineno, line in enumerate(_read_text(path, "captions").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise ResourceError(f"{path}:{lineno}: expected 'id<TAB>text'")
        caption_id, text = line.split("\t", 1)
        if "\t" in text:
            raise ResourceError(f"{path}:{lineno}: caption text holds a tab")
        caption_id = caption_id.strip()
        if caption_id.split() != [caption_id]:
            raise ResourceError(f"{path}:{lineno}: caption id {caption_id!r} "
                                "is empty or holds whitespace")
        if caption_id in captions:
            raise ResourceError(f"{path}:{lineno}: duplicate caption id "
                                f"{caption_id}")
        captions[caption_id] = text
    return list(captions.items())


def read_verdicts(path: str, records: list) -> dict:
    known = {rec.caption_id: {rec.interp_id(i)
                              for i in range(len(rec.interpretations))}
             for rec in records}
    verdicts: dict = {}
    for lineno, line in enumerate(_read_text(path, "verdicts").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("correct", "incorrect"):
            raise ResourceError(
                f"{path}:{lineno}: expected 'caption-id interpretation-id "
                f"correct|incorrect'")
        caption_id, interp_id, verdict = parts
        if caption_id not in known:
            raise ResourceError(f"{path}:{lineno}: unknown caption id "
                                f"{caption_id}")
        if interp_id not in known[caption_id]:
            raise ResourceError(f"{path}:{lineno}: unknown interpretation id "
                                f"{interp_id} for caption {caption_id}")
        caption_verdicts = verdicts.setdefault(caption_id, {})
        if interp_id in caption_verdicts:
            raise ResourceError(f"{path}:{lineno}: second verdict for "
                                f"{caption_id} {interp_id}")
        caption_verdicts[interp_id] = verdict
    return verdicts


def cmd_eval(resources: Resources, config: EngineConfig, captions_path: str,
             verdicts_path: str | None, unit: str, fmt: str, out) -> int:
    captions = read_captions(captions_path)
    records = build_eval_records(resources, config, captions)
    for rec in records:
        if rec.truncated_by:
            _warn_truncated(rec.truncated_by, f"caption {rec.caption_id}: ")
    if verdicts_path is None:
        # scoring worksheet: largest segments first, ready for hand verdicts
        for rec in records:
            out.write(f"caption\t{rec.caption_id}\t{rec.text}\n")
            for i, it in enumerate(rec.interpretations):
                out.write(f"interp\t{rec.caption_id}\t{rec.interp_id(i)}\t"
                          f"[{it.start}:{it.end}]\t{it.token_length}\t"
                          f"{print_expr(it.logic)}\n")
        return 0
    verdicts = read_verdicts(verdicts_path, records)
    metrics = evaluate(records, verdicts, unit)
    if fmt == "json":
        _write_json(out, metrics)
        return 0
    out.write(f"captions {metrics['captions']}\n")
    out.write(f"coverage {metrics['coverage']:.9f}\n")
    out.write(f"precision {metrics['precision']:.9f}\n")
    out.write(f"mean-correct-length {metrics['mean_correct_length']:.9f} "
              f"({metrics['length_unit']})\n")
    return 0


# ---------------------------------------------------------------------------
# Lint

def run_lint(manifest: RunManifest) -> list:
    _check_paths(manifest)
    kb, findings = _load(kbmod.load_kb_lenient, manifest.kb_files, "--kb")
    lexicon, lex_findings = _load(tagger.load_lexicon_lenient,
                                  manifest.lexicon_files, "--lexicon")
    repo, cons_findings = _load(cons.load_constructions_lenient,
                                manifest.construction_files, "--constructions")
    findings = list(findings) + list(lex_findings) + list(cons_findings)
    findings.extend(kbmod.lint_kb(kb))
    findings.extend(tagger.lint_lexicon(lexicon))
    findings.extend(cons.lint_constructions(repo, kb))
    return findings


def cmd_lint(manifest: RunManifest, fmt: str, out) -> int:
    findings = run_lint(manifest)
    if fmt == "json":
        _write_json(out, [{"code": f.code, "message": f.message}
                          for f in findings], ensure_ascii=True)
        return 3 if findings else 0
    if not findings:
        out.write("no findings\n")
        return 0
    for f in findings:
        out.write(f"{f.code}\t{f.message}\n")
    return 3


# ---------------------------------------------------------------------------
# Argument handling

class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` on a usage error.  argparse makes a help
    formatter for every argument it adds, and each default formatter reads
    the terminal width; a ``_Parser`` reads it once, when it is made, and
    gives it to every formatter it makes, which then lays out help and
    usage text as the default one would."""

    def __init__(self, *args, **kwargs):
        width = shutil.get_terminal_size().columns - 2
        kwargs["formatter_class"] = (
            lambda prog: argparse.HelpFormatter(prog, width=width))
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_resource_args(p: argparse.ArgumentParser):
    """The resource and engine flags every subcommand shares."""
    p.add_argument("--kb", action="append", default=[], metavar="FILE",
                   help="KB file (repeatable)")
    p.add_argument("--lexicon", action="append", default=[], metavar="FILE",
                   help="lexicon file (repeatable)")
    p.add_argument("--constructions", action="append", default=[],
                   metavar="FILE", help="construction file (repeatable)")
    p.add_argument("--lang", default="en", help="template language (default en)")
    p.add_argument("--max-window", type=_positive_int, default=12,
                   help="maximum window size in tokens (default 12)")
    p.add_argument("--mode", choices=["statement", "question", "check"],
                   default="statement",
                   help="what to do with free variables at the top level")
    p.add_argument("--context", default=None, metavar="OVERLAY",
                   help="application context overlaying the base context")
    p.add_argument("--max-edges", type=_positive_int, default=50_000,
                   help="edge safety cap (default 50000)")


def _add_interpret_args(p: argparse.ArgumentParser):
    p.add_argument("text", nargs="?", help="text to interpret")
    p.add_argument("--file", help="read the text from a file instead")
    p.add_argument("--format", choices=["cycl", "json", "trace"],
                   default="cycl")


def _add_tag_args(p: argparse.ArgumentParser):
    p.add_argument("text", help="text to tag")
    p.add_argument("--format", choices=["table", "json"], default="table")


def _add_eval_args(p: argparse.ArgumentParser):
    p.add_argument("captions", help="captions file: 'id<TAB>text' lines")
    p.add_argument("--verdicts", help="verdict file: "
                                      "'caption-id interp-id correct|incorrect'")
    p.add_argument("--length-unit", choices=["tokens", "chars"],
                   default="tokens")
    p.add_argument("--format", choices=["text", "json"], default="text")


def _add_lint_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["text", "json"], default="text")


_PROG = "construe"
# Each command's help line and the function that adds its own arguments
# (after the shared ones); ``build_parser`` and ``command_parser`` both
# build from this table.
COMMANDS = {
    "interpret": ("interpret text", _add_interpret_args),
    "tag": ("show the concept-tag table", _add_tag_args),
    "eval": ("evaluation worksheet and metrics", _add_eval_args),
    "lint": ("check the loaded resources", _add_lint_args),
}


def _add_command_args(p: argparse.ArgumentParser, command: str):
    _add_resource_args(p)
    COMMANDS[command][1](p)


class _FullParser(_Parser):
    def parse_known_args(self, args=None, namespace=None):
        """Names an option placed before the command, which argparse would
        report as a bad command or a stray argument."""
        if args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            command = next((a for a in args[1:] if a in COMMANDS), None)
            if command is not None:
                option = args[0].split("=", 1)[0]
                raise UsageError(f"{option} goes after the command: "
                                 f"{_PROG} {command} {option} ...")
        return super().parse_known_args(args, namespace)


def build_parser() -> _Parser:
    """The full parser: every command as a subparser."""
    parser = _FullParser(prog=_PROG,
                         description="Translate text into logic by matching "
                                     "typed constructions against "
                                     "concept-tagged input.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _) in COMMANDS.items():
        _add_command_args(sub.add_parser(command, help=help_line), command)
    return parser


def command_parser(command: str) -> _Parser:
    """The parser of *command* alone, as ``build_parser`` makes its
    subparser."""
    parser = _Parser(prog=f"{_PROG} {command}")
    _add_command_args(parser, command)
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """*argv* parsed by the parser of the command it names first, or, when
    it does not start with a command name (``--help``, no command, an
    unknown one, an option before the command), by the full parser."""
    if argv and argv[0] in COMMANDS:
        args = command_parser(argv[0]).parse_args(argv[1:])
        args.command = argv[0]
        return args
    return build_parser().parse_args(argv)


def _config_from(args) -> EngineConfig:
    ctx = ContextStack(overlay=args.context) if args.context else ContextStack()
    return EngineConfig(max_window=args.max_window, language=args.lang,
                        outermost_policy=args.mode, max_edges=args.max_edges,
                        context=ctx)


def _manifest_from(args) -> RunManifest:
    return RunManifest(args.kb, args.lexicon, args.constructions,
                       _config_from(args))


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        manifest = _manifest_from(args)
        if args.command == "lint":
            return cmd_lint(manifest, args.format, out)
        resources = load_resources(manifest)
        if args.command == "interpret":
            if args.file is not None:
                text = _read_text(args.file, "input")
            elif args.text is not None:
                text = args.text
            else:
                raise UsageError("interpret needs TEXT or --file")
            return cmd_interpret(resources, manifest.config, text,
                                 args.format, out)
        if args.command == "tag":
            return cmd_tag(resources, args.text, args.format, out)
        # the parsers admit no other command
        return cmd_eval(resources, manifest.config, args.captions,
                        args.verdicts, args.length_unit, args.format, out)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ResourceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
