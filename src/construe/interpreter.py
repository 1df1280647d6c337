"""The interpretation engine: sliding-window construction retrieval over
the tag chart, semantic testing, plausibility checking, recursive
composition on a parse graph, and anaphor resolution.

Each tagged concept seeds a lexical edge whose type, kind and
plausibility verdict are the KB's answer for the reading
(``KnowledgeBase.lexical_reading``), and every edge is filed under the
slot types its type can fill (``KnowledgeBase.filler_types``).  The KB
computes each answer once, so an input costs only what it decides.

The window starts at each token position at its maximum size and shrinks
until one or more constructions apply, then the anchor advances one token.
Sweeps over the anchors repeat until one adds no edge.  A revisit runs only
the windows that hold an edge added since the anchor's last visit began,
from the largest down, and is semi-naive: it passes retrieval the edge
count when that visit began as a watermark (``since``), so a window
retrieves and applies only the bindings that hold an edge numbered at or
above it; what the others give is kept from the last visit.  An anaphoric
construction's bindings are retrieved again (``rerun``) only after a new
edge ending at or before the anchor, where antecedents are searched, that
can fill one of its anaphoric slots; such an edge makes the anchor's next
visit run every size.

Candidate constructions are found by chaining three exact-match tiers.  One
walk from each anchor tiles its reach left to right with literal tokens and
slot sub-spans, and a tiling grows only while its partial skeleton is a
prefix of some stored skeleton key; that pruning subsumes the lexical tier.
The walk records where each tiling ends and serves every window of the
anchor until an edge is added.  A visited window's complete tilings are
confirmed on the skeleton tier, then on the typed tier, whose keys come
from the (pruned) upward type closures of the filler edges, computed once
per edge.
"""

from __future__ import annotations

import itertools
from math import prod

from .constructions import (LEXICAL_SOURCE, SKELETON_SLOT, Construction,
                            Repository, typed_key)
from .kb import DEFAULT_CONTEXT, KnowledgeBase
from .logic import (And, App, Constant, EQUALS, Expr, QueryVar, TypedVar,
                    canonical_form, conjunct_count, free_query_vars,
                    is_sentence, print_expr,
                    quantify_existential, rename_query_vars, simplify,
                    substitute)
from .tagger import Lexicon, TagChart, tag
from .value import Value


class CompositionError(Exception):
    pass


_POLICIES = ("statement", "question", "check")
# Antecedent candidates kept per anaphoric slot, nearest first.
MAX_ANAPHOR_CANDIDATES = 5
# The head and the no-output-variable filler of the term that an edge's
# dedup key is the canonical form of.
_EDGE_MARKER = Constant("edge")
_NO_VAR = Constant("-")
# How deep an edge's children may nest: with logic.MAX_TERM_DEPTH, what
# keeps composed logic within logic.MAX_READ_DEPTH.
MAX_NESTING = 32


class EngineConfig(Value):
    __slots__ = _fields = ("max_window", "language", "outermost_policy",
                           "max_edges", "context")
    _defaults = {"max_window": 12, "language": "en",
                 "outermost_policy": "statement", "max_edges": 50_000,
                 "context": DEFAULT_CONTEXT}

    def _derive(self) -> tuple:
        if self.max_window < 1:
            raise ValueError("max_window must be at least 1")
        if self.max_edges < 1:
            raise ValueError("max_edges must be at least 1")
        if self.outermost_policy not in _POLICIES:
            raise ValueError(f"outermost_policy must be one of {_POLICIES}")
        return ()


# The configuration of an ``interpret`` call that passes none.
_DEFAULT_CONFIG = EngineConfig()


class Edge(Value):
    """An interpretation of the tokens [start, end).  *source* is
    ``LEXICAL_SOURCE`` or a construction id; *kind* is instance, collection
    or sentential; *children* holds (slot index, child edge id) pairs;
    *nesting* is 0 without children, else 1 + the deepest child's."""

    __slots__ = _fields = ("id", "start", "end", "source", "logic",
                           "output_var", "output_type", "kind", "children",
                           "nesting")
    _defaults = {"children": (), "nesting": 0}

    @property
    def span(self) -> tuple:
        return (self.start, self.end)


class TraceEvent(Value):
    """A discarded application; *kind* is the class of the reason."""

    __slots__ = _fields = ("kind", "construction", "span", "detail")


class Retrieval(Value):
    __slots__ = _fields = ("construction", "binding")


class ParseGraph:
    """Chart of interpretation edges over token spans.  Edges are only
    ever added; ``add_edge`` suppresses duplicates (same span, source and
    logic up to query-variable renaming)."""

    def __init__(self, text: str, chart: TagChart, kb: KnowledgeBase,
                 repo: Repository, config: EngineConfig):
        self.text = text
        self.chart = chart
        self.kb = kb
        self.repo = repo
        self.config = config
        self.tokens = chart.tokens
        self.folded = [t.surface.casefold() for t in self.tokens]
        self.readings = [len(chart.token_concepts(i)) + 1
                         for i in range(len(self.tokens))]
        self._used_types = repo.used_types
        self._prefixes = repo.skeleton_prefixes(config.language)
        self.edges: list[Edge] = []
        self._fillers: dict[int, dict] = {}   # start -> end -> slot type -> edges
        self._dedup: dict[tuple, Edge] = {}
        # application signature -> the edge it added, or None
        self._tried: dict[tuple, Edge | None] = {}
        self.trace: list[TraceEvent] = []
        self.pattern_counts: dict[tuple, int] = {}
        self.truncated_by = ""           # the cap that cut the run short
        # retrieval's last anchor walk (``_walk``)
        self._last_walk: tuple = (None, 0, ())
        self._fresh = itertools.count(1)

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_by)

    def fresh(self) -> int:
        return next(self._fresh)

    def edges_at(self, start: int, end: int) -> list:
        """The edges on [start, end), by a scan: for checks, not the engine."""
        return [e for e in self.edges if e.start == start and e.end == end]

    def trace_discard(self, kind: str, construction: str, span: tuple, detail: str):
        self.trace.append(TraceEvent(kind, construction, span, detail))

    def add_edge(self, span: tuple, source: str, logic: Expr,
                 output_var: QueryVar | None, output_type: Expr | None,
                 kind: str, children: tuple = ()) -> Edge | None:
        """The new edge, or the equal one already on the span; None when a
        cap stops it."""
        marker = App(_EDGE_MARKER,
                     (logic, output_var if output_var is not None else _NO_VAR))
        key = (span, source, canonical_form(marker),
               print_expr(output_type) if output_type is not None else "")
        existing = self._dedup.get(key)
        if existing is not None:
            return existing
        edge = self.insert_edge(span, source, logic, output_var, output_type,
                                kind, children)
        if edge is not None:
            self._dedup[key] = edge
        return edge

    def insert_edge(self, span: tuple, source: str, logic: Expr,
                    output_var: QueryVar | None, output_type: Expr | None,
                    kind: str, children: tuple = ()) -> Edge | None:
        """Add an edge without looking for an equal one, for a caller that
        knows there is none; None when a cap stops it."""
        nesting = 1 + max(self.edges[i].nesting for _, i in children) \
            if children else 0
        cap = ("edge limit" if len(self.edges) >= self.config.max_edges else
               f"nesting limit ({MAX_NESTING} levels)"
               if nesting > MAX_NESTING else "")
        if cap:
            self.truncated_by = self.truncated_by or cap
            return None
        edge = Edge(len(self.edges), span[0], span[1], source, logic,
                    output_var, output_type, kind, children, nesting)
        self.edges.append(edge)
        self._file_filler(edge)
        return edge

    def _file_filler(self, edge: Edge):
        """Index the edge under every used slot type that generalizes its
        type, so retrieval does not ask the KB per tiling; the KB answers
        once per type and used-type set."""
        if edge.output_type is None:
            return
        names = self.kb.filler_types(edge.output_type, self._used_types)
        if names:
            type_map = self._fillers.setdefault(edge.start, {}) \
                .setdefault(edge.end, {})
            for name in names:
                type_map.setdefault(name, []).append(edge)


def _seed_tag_edges(graph: ParseGraph):
    """One edge per concept of each tag span, its type, kind and
    plausibility read from the KB's answer for the reading
    (``lexical_reading``).  A span carries each concept once and no
    construction may take ``LEXICAL_SOURCE`` as its id, so no seed can
    equal another edge and none needs a dedup key."""
    reading = graph.kb.lexical_reading
    for span in graph.chart.spans:
        where = (span.start, span.end)
        for concept in span.concepts:
            output_type, kind, violations = reading(concept)
            if violations:
                graph.trace_discard("plausibility", LEXICAL_SOURCE, where,
                                    "; ".join(v.message for v in violations))
                continue
            graph.insert_edge(where, LEXICAL_SOURCE, concept, None,
                              output_type, kind)


# ---------------------------------------------------------------------------
# Retrieval

def retrieve(graph: ParseGraph, start: int, end: int, since: int = -1,
             rerun: bool = False) -> list:
    """Constructions applicable to the window, with their slot bindings.

    The tilings of the anchor's walk (``_walk``) that end at *end* are
    confirmed on the skeleton tier, then on the typed tier.  Also records
    the window's typed-pattern candidate count (the product over tokens of
    readings plus the surface form itself).  Given the watermark *since*,
    an edge count, only the bindings that hold an edge numbered *since* or
    above are returned, and with *rerun* also every binding of an
    anaphoric construction, whose antecedents may have changed:
    ``window_loop`` passes them for a window that ran before.  With *since*
    -1, the default, every binding is returned."""
    repo, lang = graph.repo, graph.config.language
    graph.pattern_counts[(start, end)] = prod(graph.readings[start:end])
    walk = graph._last_walk
    if walk[0] != (start, len(graph.edges)) or walk[1] < end:
        walk = graph._last_walk = _walk(graph, start, end)
    found: dict = {}
    for pos, skeleton, type_maps in walk[2]:
        if pos == end and repo.lookup("skeleton", skeleton, lang):
            _typed_matches(graph, skeleton, type_maps, found, since, rerun)
    return [found[sig] for sig in sorted(found)] if found else []


def _walk(graph: ParseGraph, start: int, end: int) -> tuple:
    """((anchor, edge count), reach, tilings): every tiling from the anchor
    *start* up to its reach (and at least to *end*), each as (end
    position, partial skeleton, filler type maps).

    A window is tiled left to right with literal tokens and slot sub-spans
    (spans with an edge that can fill some used slot type).  A tiling is
    only extended while its partial skeleton is a prefix of a stored
    skeleton key, which also implies the lexical tier.  Tilings depend
    only on the edges present, and edges are only ever added, so one walk
    serves every window of the anchor until the next edge."""
    limit = max(end, min(len(graph.tokens), start + graph.config.max_window))
    prefixes, folded, fillers = graph._prefixes, graph.folded, graph._fillers
    tilings = [(start, (), ())]
    # the loop also reads the tilings it appends
    for pos, skeleton, type_maps in tilings:
        if pos == limit:
            continue
        key = skeleton + (folded[pos],)
        if key in prefixes:
            tilings.append((pos + 1, key, type_maps))
        key = skeleton + (SKELETON_SLOT,)
        if key in prefixes:
            for span_end, type_map in fillers.get(pos, {}).items():
                if span_end <= limit:
                    tilings.append((span_end, key, type_maps + (type_map,)))
    return (start, len(graph.edges)), limit, tilings


def _typed_matches(graph: ParseGraph, skeleton: tuple, type_maps: tuple,
                   found: dict, since: int, rerun: bool):
    """Typed-tier lookups for one complete tiling that matched the stored
    *skeleton* key.  Each slot tries the filler types that one of the key's
    variants names there; every binding of a typed hit that ``retrieve``
    asks for under the watermark *since* and *rerun* is added to *found*
    under its (construction id, binding) signature.  Without *rerun*, a
    tiling, or a slot type combination, whose filler edges are all older
    than *since* is not looked up."""
    repo, lang = graph.repo, graph.config.language
    # the filler index lists each span's edges oldest first
    if since >= 0 and not rerun and all(
            edges[-1].id < since for type_map in type_maps
            for edges in type_map.values()):
        return
    choices = [sorted(named.intersection(type_map))
               for named, type_map in zip(repo.slot_types(skeleton, lang),
                                          type_maps)]
    for combo in itertools.product(*choices):
        edge_lists = [type_maps[j][name] for j, name in enumerate(combo)]
        if since >= 0 and not rerun and all(
                edges[-1].id < since for edges in edge_lists):
            continue
        for variant in repo.lookup("typed", typed_key(skeleton, combo), lang):
            slots = variant.slots
            old = since >= 0 and not (rerun and repo.constructions[
                variant.construction_id].anaphoric_refs)
            for edges in itertools.product(*edge_lists):
                if old and all(e.id < since for e in edges):
                    continue
                sig = (variant.construction_id,
                       tuple(sorted((s.index, e.id) for s, e in zip(slots, edges))))
                if sig not in found:
                    found[sig] = Retrieval(
                        repo.constructions[variant.construction_id],
                        dict(zip(slots, edges)))


# ---------------------------------------------------------------------------
# Application

def resolve_anaphora(graph: ParseGraph, slot: TypedVar, window_start: int) -> list:
    """Antecedent candidates for *slot*, an anaphoric slot of the graph's
    repository: edges entirely left of the window whose type satisfies the
    slot, nearest first, at most ``MAX_ANAPHOR_CANDIDATES``.  The slot's
    type is a used slot type, so the filler index holds exactly those
    edges under it."""
    pool = [e for ends in graph._fillers.values()
            for end, type_map in ends.items() if end <= window_start
            for e in type_map.get(slot.type, ())]
    pool.sort(key=lambda e: (-e.end, -e.start, e.id))
    return pool[:MAX_ANAPHOR_CANDIDATES]


def _test_value(edge: Edge) -> Expr | None:
    """What a semantic test sees for a filled slot: the interpretation
    itself for term edges, the interpreted type for sentential ones."""
    if edge.kind == "sentential":
        return edge.output_type
    return edge.logic


def compose(matrix: Construction, binding: dict, fresh) -> tuple:
    """Build the matrix construction's logic from its filled slots.  Term
    children substitute directly; sentential children have their query
    variables freshened, their output variable substituted into the slot,
    and their sentence conjoined.  A term-denoting matrix that absorbs a
    sentential child is given a fresh output variable equated with the
    term.  Returns (logic, output_var, output_type, passed), where
    *passed* holds each child's logic as it went into *logic*: the
    plausibility check has seen it already."""
    subst_map: dict = {}
    collected: list = []
    # a term child goes in as it is.  A sentential one is renamed, which
    # keeps groundness and termhood, so its check still holds; simplify
    # splices an ``and`` copy's conjuncts into the conjunction.
    passed: list = []
    for slot in sorted(binding, key=lambda s: s.index):
        edge = binding[slot]
        if edge.kind == "sentential":
            if edge.output_var is None:
                raise CompositionError(
                    "sentential edge without an output variable cannot fill "
                    f"{print_expr(slot)}")
            n = fresh()
            r = rename_query_vars(edge.logic, n)
            collected.append(r)
            passed.append(r)
            if r.__class__ is And:
                passed.extend(r.args)
            subst_map[slot] = QueryVar(f"{edge.output_var.name}_{n}")
        else:
            subst_map[slot] = edge.logic
            passed.append(edge.logic)
    missing = [s for s in matrix.logic_slots if s not in binding]
    if missing:
        names = ", ".join(sorted(map(print_expr, missing)))
        raise CompositionError(f"unfilled logic-template slots: {names}")
    result = substitute(matrix.logic_template, subst_map)
    output_var = matrix.output_var
    if collected:
        if is_sentence(result):
            result = And((result, *collected))
        else:
            fresh_var = QueryVar(f"V{fresh()}")
            collected.append(App(EQUALS, (fresh_var, result)))
            result = And(tuple(collected))
            output_var = fresh_var
    result = simplify(result)
    if output_var is not None and output_var not in free_query_vars(result):
        raise CompositionError(
            f"output variable {print_expr(output_var)} was simplified away")
    if isinstance(matrix.output_type, tuple):
        ref = matrix.output_type[1]
        ref_slot = next(s for s in binding if s.index == ref)
        output_type = binding[ref_slot].output_type
    elif isinstance(matrix.output_type, str):
        output_type = Constant(matrix.output_type)
    else:
        output_type = None
    return result, output_var, output_type, passed


def _failed_test(graph: ParseGraph, c: Construction, test_sub: dict):
    """(trace kind, detail) of the first semantic test of *c* that the
    filled slots *test_sub* fail, or None when all pass: a ``:test+``
    must hold, a ``:test-`` must not."""
    for tests, must_hold, kind, label in (
            (c.tests_positive, True, "positive-test", "pos{} failed"),
            (c.tests_negative, False, "negative-test", "neg{} held")):
        for idx, t in enumerate(tests, 1):
            atom = substitute(t, test_sub)
            if graph.kb.holds(atom, graph.config.context) != must_hold:
                return kind, f"{c.id}/{label.format(idx)}: {print_expr(atom)}"
    return None


def apply_construction(graph: ParseGraph, c: Construction, binding: dict,
                       span: tuple) -> list:
    """Resolve anaphora, run the semantic tests, compose, and check
    plausibility.  Survivors become edges; failures are traced."""
    kb = graph.kb
    bindings = [dict(binding)]
    for slot in sorted(c.anaphoric_refs, key=lambda s: s.index):
        candidates = resolve_anaphora(graph, slot, span[0])
        if not candidates:
            key = (c.id, span, "anaphora", slot.index)
            if key not in graph._tried:
                graph._tried[key] = None
                graph.trace_discard("anaphora", c.id, span,
                                    f"no antecedent for {print_expr(slot)}")
            return []
        bindings = [{**b, slot: cand}
                    for b in bindings for cand in candidates]

    out: list = []
    for b in bindings:
        sig = (c.id, span, tuple(sorted((s.index, e.id) for s, e in b.items())))
        if sig in graph._tried:
            # a previously surviving binding still counts as an application
            prior = graph._tried[sig]
            if prior is not None:
                out.append(prior)
            continue
        graph._tried[sig] = None
        test_sub = {}
        for s, e in b.items():
            value = _test_value(e)
            if value is not None:
                test_sub[s] = value
        failed = _failed_test(graph, c, test_sub)
        if failed:
            graph.trace_discard(failed[0], c.id, span, failed[1])
            continue
        try:
            logic, output_var, output_type, passed = compose(c, b,
                                                             graph.fresh)
        except CompositionError as err:
            graph.trace_discard("composition", c.id, span, str(err))
            continue
        # every child passed the check when its edge was made
        violations = kb.check_plausibility(logic, passed)
        if violations:
            graph.trace_discard("plausibility", c.id, span,
                                "; ".join(f"{v.kind}: {v.message}" for v in violations))
            continue
        # the children are the signature's (slot index, edge id) pairs
        edge = graph.add_edge(span, c.id, logic, output_var, output_type,
                              kb.edge_kind(logic) if output_var is None
                              else "sentential", sig[2])
        if edge is not None:
            out.append(edge)
            graph._tried[sig] = edge
    return out


def window_loop(graph: ParseGraph):
    """Run windows to fixpoint.  For each anchor the window shrinks until
    something applies; any application advances the anchor one token; the
    sweep repeats while new edges keep appearing.

    A visit of anchor *a* runs the sizes from the top down to ``need[a]``:
    every size on the first visit, and after it the smallest window at *a*
    that holds an edge added since *a*'s last visit began.  An anchor with
    no such edge is not revisited.

    A revisit is semi-naive (Bancilhon & Ramakrishnan 1986): a window
    retrieves and applies only the bindings that hold an edge added since
    the last visit began, that visit's edge count being the watermark it
    passes to ``retrieve``.  What the other bindings give is the last
    visit's, kept in ``runs``: the size it stopped at, and whether what
    applied there came from a construction without anaphoric slots, whose
    edges come back whenever its bindings are applied again, or only from
    an anaphoric one.  So a larger window applies only with a new binding,
    and the revisit still stops at that size unless only anaphoric
    bindings applied there and their antecedents changed; a smaller window
    may never have run and retrieves every binding.  Below ``need[a]`` no
    window holds a new edge, so a visit that stops there without applying
    stops where the last one did.

    An anaphoric binding's antecedents change only with a new edge ending
    at or before the anchor that can fill one of the anaphoric slot types
    retrieved there.  Such an edge makes the anchor's next visit run every
    size and apply its anaphoric bindings again."""
    kb, used = graph.kb, graph._used_types
    n, top = len(graph.tokens), graph.config.max_window
    unseen = top + 1                    # no window holds a new edge
    need = [1] * n
    # per anchor, its last visit as (the size it stopped at, the edge count
    # when it began, what applied at that size)
    runs: list = [None] * n
    anaphoric: dict = {}    # anchor -> the anaphoric slot types retrieved there
    antecedent: dict = {}   # anchor -> the newest edge that can fill one there
    while True:
        before = len(graph.edges)
        for start in range(n):
            low = need[start]
            if low == unseen:
                continue
            if graph.truncated_by:
                return
            need[start] = unseen
            visit_start = len(graph.edges)
            # the last visit; an anchor not visited yet stops above every size
            stop, since, last = runs[start] or (unseen, -1, 0)
            rerun = antecedent.get(start, -1) >= since
            # what the skipped bindings applied at the stop: a new
            # antecedent applies the anaphoric ones again
            kept = last & _STABLE if rerun else last
            for size in range(min(top, n - start), low - 1, -1):
                # below the last stop a window may never have run: retrieve all
                floor = since if size >= stop else -1
                applied = kept if size == stop else 0
                for r in retrieve(graph, start, start + size, floor, rerun):
                    c = r.construction
                    if c.anaphoric_refs:
                        anaphoric.setdefault(start, set()).update(
                            s.type for s in c.anaphoric_refs)
                        if apply_construction(graph, c, r.binding,
                                              (start, start + size)):
                            applied |= _ANAPHORIC
                    elif apply_construction(graph, c, r.binding,
                                            (start, start + size)):
                        applied |= _STABLE
                if applied:
                    break
            if not applied and stop < size:
                # the smaller windows hold no edge added since the earlier
                # visit: it still stops there, as it did
                size, applied = stop, last
            runs[start] = (size, visit_start, applied)
            # only a window that applied can have added edges
            for edge in graph.edges[visit_start:] if applied else ():
                # the anchors whose reach holds the edge, each down to its
                # smallest window that does
                for a in range(max(0, edge.end - top), edge.start + 1):
                    if edge.end - a < need[a]:
                        need[a] = edge.end - a
                if not anaphoric or edge.output_type is None:
                    continue
                # the edge's names in the filler index
                fills = kb.filler_types(edge.output_type, used)
                for a, types in anaphoric.items():
                    if a >= edge.end and not types.isdisjoint(fills):
                        need[a], antecedent[a] = 1, edge.id
        if len(graph.edges) == before or graph.truncated_by:
            return


# What applied at a window: a construction without anaphoric slots (its
# edges come back whenever its bindings are applied again), an anaphoric
# one (whose antecedents may change).
_STABLE, _ANAPHORIC = 1, 2


def interpret(text: str, kb: KnowledgeBase, repo: Repository, lexicon: Lexicon,
              config: EngineConfig | None = None) -> ParseGraph:
    """Tag, seed lexical edges, and run the window loop to fixpoint."""
    config = config or _DEFAULT_CONFIG
    chart = tag(text, lexicon)
    graph = ParseGraph(text, chart, kb, repo, config)
    _seed_tag_edges(graph)
    window_loop(graph)
    return graph


# ---------------------------------------------------------------------------
# Finalization

class Interpretation(Value):
    __slots__ = _fields = ("edge_id", "start", "end", "logic", "output_type",
                           "source", "text")

    @property
    def span(self) -> tuple:
        return (self.start, self.end)

    @property
    def token_length(self) -> int:
        return self.end - self.start


def _span_text(graph: ParseGraph, start: int, end: int) -> str:
    if start >= end or not graph.tokens:
        return ""
    return graph.text[graph.tokens[start].start:graph.tokens[end - 1].end]


def finalize(graph: ParseGraph, maximal_only: bool = True) -> list:
    """Ranked interpretations: construction edges, largest span first,
    then fewer conjuncts, then lexicographic logic text.  Statement and
    check modes (of ``graph.config``) close free query variables
    existentially; question mode leaves them free."""
    policy = graph.config.outermost_policy
    edges = [e for e in graph.edges if e.source != LEXICAL_SOURCE]
    if maximal_only:
        spans = {(e.start, e.end) for e in edges}
        def covered(e):
            return any(s <= e.start and e.end <= t and (s, t) != (e.start, e.end)
                       for (s, t) in spans)
        edges = [e for e in edges if not covered(e)]
    out = []
    for e in edges:
        logic = e.logic
        if policy in ("statement", "check"):
            logic = quantify_existential(logic)
        out.append(Interpretation(e.id, e.start, e.end, logic, e.output_type,
                                  e.source, _span_text(graph, e.start, e.end)))
    out.sort(key=lambda it: (-(it.end - it.start),
                             conjunct_count(graph.edges[it.edge_id].logic),
                             print_expr(it.logic)))
    return out
