"""The interpretation engine: sliding-window construction retrieval over
the tag chart, semantic testing, plausibility checking, recursive
composition on a parse graph, and anaphor resolution.

The window starts at each token position at its maximum size and shrinks
until one or more constructions apply, then the anchor advances one token.
Sweeps over the anchors repeat until one adds no edge.  A revisit runs only
the windows that hold an edge added since the anchor's last visit began,
from the largest down; with anaphoric constructions, a new edge at or left
of an anchor, where antecedents are searched, makes its next visit run
every size.  Any other window would retrieve only candidates already tried.

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
import math

from .constructions import (LEXICAL_SOURCE, SKELETON_SLOT, Construction,
                            Repository, typed_key)
from .kb import DEFAULT_CONTEXT, KnowledgeBase
from .logic import (And, App, Constant, EQUALS, Expr, Nat, Numeral, QueryVar,
                    Text, TypedVar, canonical_form, conjunct_count,
                    free_query_vars, is_sentence, print_expr,
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
        self._by_span: dict[tuple, list] = {}
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
        return self._by_span.get((start, end), [])

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
        self._by_span.setdefault(span, []).append(edge)
        self._file_filler(edge)
        return edge

    def _file_filler(self, edge: Edge):
        """Index the edge under every used slot type that generalizes its
        type, so retrieval asks the KB once per edge, not once per tiling."""
        if edge.output_type is None:
            return
        types = self.kb.match_types(edge.output_type) & self._used_types
        if types:
            type_map = self._fillers.setdefault(edge.start, {}) \
                .setdefault(edge.end, {})
            for t in types:
                type_map.setdefault(t.name, []).append(edge)


def _edge_kind(kb: KnowledgeBase, logic: Expr) -> str:
    if is_sentence(logic):
        return "sentential"
    if isinstance(logic, (Numeral, Text)):
        return "instance"
    if isinstance(logic, (Constant, Nat)):
        return "instance" if kb.kindedness(logic) == "individual" else "collection"
    return "collection"


def _seed_tag_edges(graph: ParseGraph):
    """One edge per concept of each tag span.  A span carries each concept
    once and no construction may take ``LEXICAL_SOURCE`` as its id, so no
    seed can equal another edge and none needs a dedup key."""
    kb = graph.kb
    for span in graph.chart.spans:
        for concept in span.concepts:
            if isinstance(concept, Numeral):
                output_type: Expr = Constant(kb.numeral_type_name(concept.value))
            else:
                output_type = concept
            violations = kb.check_plausibility(concept)
            if violations:
                graph.trace_discard("plausibility", LEXICAL_SOURCE,
                                    (span.start, span.end),
                                    "; ".join(v.message for v in violations))
                continue
            graph.insert_edge((span.start, span.end), LEXICAL_SOURCE, concept,
                              None, output_type, _edge_kind(kb, concept))


# ---------------------------------------------------------------------------
# Retrieval

def retrieve(graph: ParseGraph, start: int, end: int) -> list:
    """Constructions applicable to the window, with their slot bindings.

    The tilings of the anchor's walk (``_walk``) that end at *end* are
    confirmed on the skeleton tier, then on the typed tier.  Also records
    the window's typed-pattern candidate count (the product over tokens of
    readings plus the surface form itself)."""
    repo, lang = graph.repo, graph.config.language
    graph.pattern_counts[(start, end)] = math.prod(graph.readings[start:end])
    walk = graph._last_walk
    if walk[0] != (start, len(graph.edges)) or walk[1] < end:
        walk = graph._last_walk = _walk(graph, start, end)
    found: dict = {}
    for pos, skeleton, type_maps in walk[2]:
        if pos == end and repo.lookup("skeleton", skeleton, lang):
            _typed_matches(graph, skeleton, type_maps, found)
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
                   found: dict):
    """Typed-tier lookups for one complete tiling that matched the stored
    *skeleton* key.  Each slot tries the filler types that one of the key's
    variants names there; every binding of a typed hit is added to *found*
    under its (construction id, binding) signature."""
    repo, lang = graph.repo, graph.config.language
    choices = [sorted(named.intersection(type_map))
               for named, type_map in zip(repo.slot_types(skeleton, lang),
                                          type_maps)]
    for combo in itertools.product(*choices):
        variants = repo.lookup("typed", typed_key(skeleton, combo), lang)
        edge_lists = [type_maps[j][name] for j, name in enumerate(combo)]
        for variant in variants:
            slots = variant.slots
            for edges in itertools.product(*edge_lists):
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
        children = tuple(sorted((s.index, e.id) for s, e in b.items()))
        edge = graph.add_edge(span, c.id, logic, output_var, output_type,
                              _edge_kind(kb, logic) if output_var is None
                              else "sentential", children)
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
    no such edge is not revisited.  A smaller window holds no new filler,
    so it retrieves the same candidates, every one already tried: if one
    applied last time, it applies again with its prior edge, and nothing
    else can.  When the repository has anaphoric constructions, an edge
    ending at or before an anchor can change its antecedents, and the
    anchor's next visit runs every size."""
    config = graph.config
    n = len(graph.tokens)
    anaphora = graph.repo.has_anaphora
    unseen = config.max_window + 1      # no window holds a new edge
    need = [1] * n
    while True:
        before = len(graph.edges)
        for start in range(n):
            low = need[start]
            if low == unseen:
                continue
            if graph.truncated:
                return
            need[start] = unseen
            visit_start = len(graph.edges)
            for size in range(min(config.max_window, n - start), low - 1, -1):
                applied = False
                for r in retrieve(graph, start, start + size):
                    edges = apply_construction(graph, r.construction, r.binding,
                                               (start, start + size))
                    applied = applied or bool(edges)
                if applied:
                    break
            for edge in graph.edges[visit_start:]:
                # the anchors whose reach holds the edge, each down to its
                # smallest window that does
                for a in range(max(0, edge.end - config.max_window),
                               edge.start + 1):
                    need[a] = min(need[a], edge.end - a)
                if anaphora:
                    need[edge.end:] = [1] * (n - edge.end)
        if len(graph.edges) == before or graph.truncated:
            return


def interpret(text: str, kb: KnowledgeBase, repo: Repository, lexicon: Lexicon,
              config: EngineConfig | None = None) -> ParseGraph:
    """Tag, seed lexical edges, and run the window loop to fixpoint."""
    config = config or EngineConfig()
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
