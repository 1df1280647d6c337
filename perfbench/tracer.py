"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each engine layer by rebinding
module and class attributes (``construe.interpreter.retrieve``,
``KnowledgeBase.match_types``, ...) for the length of a ``with`` block, so
nothing in the engine changes.  Every wrapped call becomes a span: layer
name, start, end, parent span, input id and one integer value (the size of
the call's result, or the edges it added).  Spans are kept in compact
columns in memory and written out when the benchmark ends.

Counts derived from spans are exact integers and repeat between two traced
runs of the same commit; times are ``perf_counter`` intervals.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from construe import cli, constructions, interpreter, kb, tagger

DISCARD_KINDS = ("anaphora", "positive-test", "negative-test", "composition",
                 "plausibility")
LOOKUP_TIERS = ("lexical", "skeleton", "typed")


def _size(args, result, before):
    return len(result)


def _terms(args, result, before):
    return len(result.term_names)


def _variants(args, result, before):
    return len(result.variants)


def _tokens(args, result, before):
    return len(result.tokens)


def _edge_count(args, kwargs):
    return len(args[0].edges)


def _edges_added(args, result, before):
    return len(args[0].edges) - before


def _lookup_name(args, kwargs):
    tier = args[1] if len(args) > 1 else kwargs["tier"]
    return f"lookup.{tier}"


class Tracer:
    """Span recorder.  ``current_input`` is set by the caller before each
    input (-1 outside inputs)."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.parent = array("l")
        self.input = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("l")
        self.counts: Counter = Counter()
        self.current_input = -1
        self.missing: list = []
        self._stack: list = []
        self._saved: list = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, value=None, before=None, dynamic=None):
        tracer = self
        fixed_id = self._name_id(name) if dynamic is None else None

        def traced(*args, **kwargs):
            nid = fixed_id if dynamic is None else tracer._name_id(dynamic(args, kwargs))
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.input.append(tracer.current_input)
            tracer.value.append(0)
            tracer.end.append(0.0)
            token = before(args, kwargs) if before is not None else None
            stack.append(idx)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if value is not None:
                tracer.value[idx] = value(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_interpret(self, args, graph, before):
        c = self.counts
        c["graph.edges"] += len(graph.edges)
        c["graph.truncated"] += int(bool(graph.truncated))
        c["seed.lex_edges"] += sum(1 for e in graph.edges if e.source == "lex")
        for ev in graph.trace:
            if ev.construction != "lex":
                c[f"apply.discards.{ev.kind}"] += 1
        return len(graph.tokens)

    # -- installing ---------------------------------------------------------

    def _bindings(self):
        """(span name, [(owner, attribute)], value, before, dynamic name).
        A function imported into several modules is rebound in each."""
        KB = kb.KnowledgeBase
        return [
            ("load.kb", [(kb, "load_kb")], _terms, None, None),
            ("load.lexicon", [(tagger, "load_lexicon")], None, None, None),
            ("load.constructions", [(constructions, "load_constructions")],
             _variants, None, None),
            ("interpret", [(interpreter, "interpret"), (cli, "interpret")],
             self._after_interpret, None, None),
            ("tagger.tag", [(interpreter, "tag")], _tokens, None, None),
            ("tagger.segment", [(tagger, "segment")], _size, None, None),
            ("window_loop", [(interpreter, "window_loop")], None, None, None),
            ("retrieve", [(interpreter, "retrieve")], _size, None, None),
            ("lookup", [(constructions.Repository, "lookup")], _size, None,
             _lookup_name),
            ("kb.match_types", [(KB, "match_types")], None, None, None),
            ("kb.holds", [(KB, "holds")], None, None, None),
            ("kb.plausibility", [(KB, "check_plausibility")], None, None, None),
            ("kb.subsumes", [(KB, "subsumes")], None, None, None),
            ("apply", [(interpreter, "apply_construction")], _edges_added,
             _edge_count, None),
            ("compose", [(interpreter, "compose")], None, None, None),
            ("logic.canonical_form", [(interpreter, "canonical_form")], None,
             None, None),
            ("finalize", [(interpreter, "finalize"), (cli, "finalize")], _size,
             None, None),
            ("cli.load_resources", [(cli, "load_resources")], None, None, None),
            ("cli.cmd_interpret", [(cli, "cmd_interpret")], None, None, None),
        ]

    def __enter__(self):
        for name, targets, value, before, dynamic in self._bindings():
            wrapped = {}
            for owner, attr in targets:
                fn = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn, value, before, dynamic)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped[id(fn)])
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    # -- results ------------------------------------------------------------

    def reset(self):
        for col in (self.name, self.parent, self.input, self.start, self.end,
                    self.value):
            del col[:]
        self.counts.clear()

    def write(self, path: Path):
        """Spans as one JSON header line plus one line per span:
        name, start, end, parent, input, value."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps({"columns": ["name", "start", "end", "parent",
                                            "input", "value"],
                                "names": self.names}) + "\n")
            for i in range(len(self.name)):
                f.write(f"{self.name[i]} {self.start[i]:.9f} {self.end[i]:.9f} "
                        f"{self.parent[i]} {self.input[i]} {self.value[i]}\n")

    def layer_metrics(self, inputs: int) -> tuple:
        """(counts, times): exact integer counts over the recorded spans and
        per-layer times in ms.  Times are per input, except ``load.*_ms``,
        which are per load call."""
        n = len(self.name)
        names = self.names
        ids = {name: i for i, name in enumerate(names)}
        calls = Counter()
        nonzero = Counter()
        total = Counter()
        values = Counter()
        outer = Counter()                 # time not nested in the same layer
        child = [0.0] * n
        named_child = Counter()           # (parent name, child name) -> time
        for i in range(n):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            total[nid] += dur
            v = self.value[i]
            values[nid] += v
            if v:
                nonzero[nid] += 1
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
                pn = self.name[p]
                named_child[(pn, nid)] += dur
                if pn != nid:
                    outer[nid] += dur
            else:
                outer[nid] += dur
        self_time = Counter()
        for i in range(n):
            self_time[self.name[i]] += (self.end[i] - self.start[i]) - child[i]

        def get(counter, name):
            nid = ids.get(name)
            return counter[nid] if nid is not None else 0

        def ratio(name):
            c = get(calls, name)
            return get(nonzero, name) / c if c else 0.0

        def between(parent, *children):
            return get(total, parent) - sum(
                named_child[(ids[parent], ids[c])] for c in children
                if parent in ids and c in ids)

        setup_loads = Counter()
        for i in range(n):
            if self.input[i] == -1:
                setup_loads[self.name[i]] += self.value[i]

        per_input = 1000.0 / max(inputs, 1)

        def per_call(name):
            c = get(calls, name)
            return 1000.0 * get(total, name) / c if c else 0.0

        counts = {
            "load.kb_terms": get(setup_loads, "load.kb"),
            "load.variants": get(setup_loads, "load.constructions"),
            "tagger.tokens": get(values, "tagger.tag"),
            "tagger.segment_calls": get(calls, "tagger.segment"),
            "seed.lex_edges": self.counts["seed.lex_edges"],
            "retrieve.calls": get(calls, "retrieve"),
            "retrieve.candidates": get(values, "retrieve"),
            "kb.match_types.calls": get(calls, "kb.match_types"),
            "kb.holds.calls": get(calls, "kb.holds"),
            "kb.plausibility.calls": get(calls, "kb.plausibility"),
            "kb.subsumes.calls": get(calls, "kb.subsumes"),
            "apply.calls": get(calls, "apply"),
            "compose.calls": get(calls, "compose"),
            "logic.canonical_form.calls": get(calls, "logic.canonical_form"),
            "graph.edges": self.counts["graph.edges"],
            "graph.truncated": self.counts["graph.truncated"],
            "finalize.interpretations": get(values, "finalize"),
        }
        for tier in LOOKUP_TIERS:
            counts[f"lookup.{tier}.calls"] = get(calls, f"lookup.{tier}")
        for kind in DISCARD_KINDS:
            counts[f"apply.discards.{kind}"] = self.counts[f"apply.discards.{kind}"]

        times = {
            "load.kb_ms": per_call("load.kb"),
            "load.lexicon_ms": per_call("load.lexicon"),
            "load.constructions_ms": per_call("load.constructions"),
            "tagger.tag_ms": per_input * get(total, "tagger.tag"),
            "tagger.segment_ms": per_input * get(total, "tagger.segment"),
            "seed.ms": per_input * between("interpret", "tagger.tag", "window_loop"),
            "window_loop.ms": per_input * get(total, "window_loop"),
            "retrieve.self_ms": per_input * get(self_time, "retrieve"),
            "lookup.ms": per_input * sum(get(total, f"lookup.{t}") for t in LOOKUP_TIERS),
            "kb.match_types.ms": per_input * get(outer, "kb.match_types"),
            "kb.holds.ms": per_input * get(outer, "kb.holds"),
            "kb.plausibility.ms": per_input * get(outer, "kb.plausibility"),
            "apply.self_ms": per_input * get(self_time, "apply"),
            "compose.ms": per_input * get(outer, "compose"),
            "logic.canonical_form.ms": per_input * get(outer, "logic.canonical_form"),
            "finalize.ms": per_input * get(outer, "finalize"),
            "cli.load_resources_ms": per_input * get(total, "cli.load_resources"),
            "cli.render_ms": per_input * between("cli.cmd_interpret", "interpret",
                                                 "finalize"),
        }
        ratios = {
            "retrieve.nonempty_ratio": ratio("retrieve"),
            "apply.useful_ratio": ratio("apply"),
        }
        for tier in LOOKUP_TIERS:
            ratios[f"lookup.{tier}.hit_ratio"] = ratio(f"lookup.{tier}")
        return counts, times, ratios
