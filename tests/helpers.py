"""Shared oracles and random-instance generators for the property suites.

The oracles here stay deliberately independent of the engine paths they
check: the brute-force matcher walks every stored variant directly, and
the ground evaluator models truth over a tiny explicit universe.
"""

import random
import re
import sys
from fractions import Fraction

from construe.constructions import Literal, load_constructions
from construe.interpreter import (MAX_ANAPHOR_CANDIDATES, EngineConfig,
                                  ParseGraph, apply_construction, retrieve)
from construe.kb import DEFAULT_CONTEXT, UnknownTermError, load_kb
from construe.logic import (And, App, Constant, EQUALS, Nat, Not, Numeral,
                            QueryVar, free_query_vars, print_expr)
from construe.sexpr import SexprError, SexprList, Symbol
from construe.tagger import TagChart, Token


# ---------------------------------------------------------------------------
# Deep terms and deep callers

# How many frames a deep caller's stack holds: the stack-independence tests
# ask each question at the read bound from this far down and from the top.
DEEP_CALLER = 400


def deep_text(depth: int, leaf: str = "A") -> str:
    """``(p (F ... leaf))``: a term that nests *depth* levels."""
    return "(p " + "(F " * (depth - 1) + leaf + ")" * depth


def from_deep_caller(f):
    """``f()``, called with ``DEEP_CALLER`` frames on the stack."""
    frame, held = sys._getframe(), 0
    while frame is not None:
        frame, held = frame.f_back, held + 1

    def down(n):
        return f() if n <= 0 else down(n - 1)

    return down(DEEP_CALLER - held - 1)


# ---------------------------------------------------------------------------
# Brute-force variant matching (retrieval oracle)

def brute_force_matches(graph, start, end):
    """Every (construction id, binding signature) whose variant tiles the
    window, matching literals against token surfaces and typed slots
    against edges under auto-mode subsumption."""
    kb, repo = graph.kb, graph.repo
    language = graph.config.language
    out = set()
    for variant in repo.variants:
        if variant.language != language:
            continue

        def match(ei, pos, acc):
            if ei == len(variant.elements):
                if pos == end:
                    out.add((variant.construction_id, frozenset(acc)))
                return
            el = variant.elements[ei]
            if isinstance(el, Literal):
                if pos < end and graph.tokens[pos].surface.casefold() == el.folded:
                    match(ei + 1, pos + 1, acc)
                return
            for span_end in range(pos + 1, end + 1):
                for edge in graph.edges_at(pos, span_end):
                    if edge.output_type is None:
                        continue
                    try:
                        ok = kb.subsumes(Constant(el.type), edge.output_type,
                                         "auto")
                    except UnknownTermError:
                        ok = False
                    if ok:
                        match(ei + 1, span_end, acc + [(el.index, edge.id)])

        match(0, start, [])
    return out


def reference_antecedents(graph, slot, start):
    """Antecedent candidates for the anaphoric *slot* by their definition:
    every edge ending at or before *start* whose type the slot's type
    subsumes in auto mode, nearest first (latest end, then latest start,
    then the edge made first), at most ``MAX_ANAPHOR_CANDIDATES``."""
    out = []
    for e in sorted(graph.edges, key=lambda e: (-e.end, -e.start, e.id)):
        if e.end > start or e.output_type is None:
            continue
        try:
            if graph.kb.subsumes(Constant(slot.type), e.output_type, "auto"):
                out.append(e)
        except UnknownTermError:
            continue
    return out[:MAX_ANAPHOR_CANDIDATES]


# ---------------------------------------------------------------------------
# Ground-atom truth through ``subsumes`` (test oracle)

_ISA, _GENLS = Constant("isa"), Constant("genls")


def _reference_subsumes(kb, general, specific, mode):
    """``kb.subsumes``, with a term the KB does not know covering and
    covered by nothing."""
    try:
        return kb.subsumes(general, specific, mode)
    except UnknownTermError:
        return False


def reference_holds(kb, atom, ctx=DEFAULT_CONTEXT):
    """``KnowledgeBase.holds`` as written on ``subsumes``, which raises for
    an unknown term: conjunction, negation as failure, ``equals`` as
    identity, isa/genls atoms by subsumption in that mode, and facts of
    the context stack matched argument by argument in auto mode.  A number
    is an instance of what covers its own collection
    (``numeral_type_name``) and a specialization of nothing."""
    if isinstance(atom, And):
        return all(reference_holds(kb, a, ctx) for a in atom.args)
    if isinstance(atom, Not):
        return not reference_holds(kb, atom.arg, ctx)
    if not isinstance(atom, App):
        return False
    pred, args = atom.predicate, atom.args
    if pred == EQUALS and len(args) == 2:
        return args[0] == args[1]
    terms = (Constant, Nat)
    if pred in (_ISA, _GENLS) and len(args) == 2:
        specific, general = args
        if isinstance(specific, Numeral) and isinstance(general, Constant):
            own = Constant(kb.numeral_type_name(specific.value))
            return pred == _ISA and _reference_subsumes(kb, general, own,
                                                        "auto")
        if not (isinstance(specific, terms) and isinstance(general, terms)):
            return False
        return _reference_subsumes(kb, general, specific,
                                   "isa" if pred == _ISA else "genls")

    def arg_match(fact_arg, query_arg):
        if fact_arg == query_arg:
            return True
        if isinstance(fact_arg, terms) and isinstance(query_arg, terms):
            return _reference_subsumes(kb, fact_arg, query_arg, "auto")
        if isinstance(fact_arg, Constant) and isinstance(query_arg, Numeral):
            own = Constant(kb.numeral_type_name(query_arg.value))
            return _reference_subsumes(kb, fact_arg, own, "auto")
        return False

    return any(fctx in ctx.stack() and len(fargs) == len(args)
               and all(map(arg_match, fargs, args))
               for fctx, fargs in kb._facts.get(print_expr(pred), ()))


def retrieval_signatures(retrievals):
    return {(r.construction.id,
             frozenset((s.index, e.id) for s, e in r.binding.items()))
            for r in retrievals}


# ---------------------------------------------------------------------------
# Full re-sweep window loop (agenda oracle)

def full_sweep_window_loop(graph):
    """The window loop without an agenda: every sweep visits every anchor,
    and sweeps repeat until one adds no edge."""
    n = len(graph.tokens)
    while True:
        before = len(graph.edges)
        for start in range(n):
            if graph.truncated:
                return
            for size in range(min(graph.config.max_window, n - start), 0, -1):
                applied = False
                for r in retrieve(graph, start, start + size):
                    edges = apply_construction(graph, r.construction, r.binding,
                                               (start, start + size))
                    applied = applied or bool(edges)
                if applied:
                    break
        if len(graph.edges) == before or graph.truncated:
            return


def graph_outcome(graph):
    """Everything the window loop determines: the edges in order (span,
    source, printed logic and types, children), the discard trace and the
    per-window pattern counts in insertion order."""
    edges = [(e.span, e.source, print_expr(e.logic),
              print_expr(e.output_type) if e.output_type is not None else None,
              e.output_var, e.kind, e.children) for e in graph.edges]
    return edges, list(graph.trace), list(graph.pattern_counts.items())


# ---------------------------------------------------------------------------
# Character-at-a-time tokenizer and recursive reader (s-expression oracle)

_NUMBER_RE = re.compile(r"^[+-]?\d+(/\d+)?$|^[+-]?\d+\.\d+$")
_DELIMS = set('()";')


def _reference_tokenize(text):
    line, col = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        col += 1
        if ch.isspace():
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            yield (ch, None, line, col)
            i += 1
            continue
        if ch == "¬":
            yield ("neg", None, line, col)
            i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            buf = []
            while i < n and text[i] != '"':
                c = text[i]
                if c == "\\" and i + 1 < n:
                    i += 1
                    c = {"n": "\n", "t": "\t"}.get(text[i], text[i])
                if c == "\n":
                    line += 1
                    col = 0
                buf.append(c)
                i += 1
                col += 1
            if i >= n:
                raise SexprError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            yield ("str", "".join(buf), start_line, start_col)
            continue
        start_line, start_col = line, col
        j = i
        while j < n and not text[j].isspace() and text[j] not in _DELIMS \
                and text[j] != "¬":
            j += 1
        tok = text[i:j]
        col += len(tok) - 1
        i = j
        yield ("atom", tok, start_line, start_col)


def _positioned(node, line, col):
    node.line, node.col = line, col
    return node


class _ReferenceReader:
    def __init__(self, text):
        self.tokens = list(_reference_tokenize(text))
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def read(self):
        tok = self._peek()
        if tok is None:
            return None
        kind, value, line, col = tok
        self.pos += 1
        if kind == "atom":
            if _NUMBER_RE.match(value):
                return Fraction(value)
            return _positioned(Symbol(value), line, col)
        if kind == "str":
            return value
        if kind == "neg":
            inner = self.read()
            if inner is None:
                raise SexprError("dangling negation sign", line, col)
            return _positioned(
                SexprList([_positioned(Symbol("not"), line, col), inner]),
                line, col)
        if kind == "(":
            items = _positioned(SexprList(), line, col)
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise SexprError("unbalanced parenthesis", line, col)
                if nxt[0] == ")":
                    self.pos += 1
                    return items
                items.append(self.read())
        raise SexprError("unexpected ')'", line, col)


def reference_parse_all(text):
    """The reader ``sexpr.parse_all`` replaced: tokenize the whole text a
    character at a time, then read forms recursively.  Its columns drift
    after a string with escapes or line breaks, which the generated texts
    avoid."""
    reader = _ReferenceReader(text)
    forms = []
    while True:
        form = reader.read()
        if form is None:
            return forms
        forms.append(form)


# ---------------------------------------------------------------------------
# Character-at-a-time text tokenizer (tokenizer oracle)

_BOUNDARY_CHARS = set("-()[]{}.,;:!?")


def reference_tokenize(text):
    """The loop ``tagger.tokenize`` replaced, as (surface, start, end)
    triples: whitespace (``str.isspace``) separates tokens, and each
    boundary character is a token of its own."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] in _BOUNDARY_CHARS:
            tokens.append((text[i], i, i + 1))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _BOUNDARY_CHARS:
            j += 1
        tokens.append((text[i:j], i, j))
        i = j
    return tokens


# ---------------------------------------------------------------------------
# Sub-word segmentation (segmentation oracle)

def reference_segmentations(surface, lexicon):
    """The enumerator ``tagger.segment`` replaced: every decomposition of
    *surface* into two or more lexicon hits or maximal digit runs, fewest
    pieces first and, among equals, longer pieces first, left to right.
    Exponential in the length of *surface*."""
    def is_digits(s):
        return s.isascii() and s.isdigit()

    n = len(surface)
    results = []

    def options(pos):
        opts = []
        if is_digits(surface[pos]):
            j = pos
            while j < n and is_digits(surface[j]):
                j += 1
            opts.append(surface[pos:j])
        for j in range(n, pos, -1):
            piece = surface[pos:j]
            if piece not in opts and lexicon.lookup(piece):
                opts.append(piece)
        opts.sort(key=len, reverse=True)
        return opts

    def rec(pos, acc):
        if pos == n:
            if len(acc) >= 2:
                results.append(list(acc))
            return
        for piece in options(pos):
            acc.append(piece)
            rec(pos + len(piece), acc)
            acc.pop()

    rec(0, [])
    results.sort(key=len)
    return results


# ---------------------------------------------------------------------------
# Random (repository, window) instances

_VOCAB = ["the", "red", "of", "on", "vast", "near"]


def random_instance(rng: random.Random, feeding: bool = False,
                    max_window: int = 12):
    """A small random taxonomy, construction set, and pre-seeded window.

    With *feeding*, each construction outputs one of the taxonomy's types,
    so that its edges fill the slots of larger windows on later sweeps; an
    anaphoric construction, spelled "it", ends the input, and in half the
    instances gets more antecedents than ``MAX_ANAPHOR_CANDIDATES``; and a
    run stops at 80 edges.  The engine runs with *max_window*."""
    n_types = rng.randint(5, 10)
    types = [f"Type{i}" for i in range(n_types)]
    kb_lines = [f"(collection {t})" for t in types]
    for i in range(1, n_types):
        kb_lines.append(f"(genls {types[i]} {types[rng.randrange(i)]})")
        if i >= 2 and rng.random() < 0.3:
            other = types[rng.randrange(i)]
            if other != types[i]:
                kb_lines.append(f"(genls {types[i]} {other})")
    individuals = [f"Item{i}" for i in range(rng.randint(0, 3))]
    for ind in individuals:
        kb_lines.append(f"(individual {ind})")
        kb_lines.append(f"(isa {ind} {rng.choice(types)})")
    kb = load_kb(text="\n".join(kb_lines))

    cons_forms, outputs = [], []
    for ci in range(rng.randint(3, 8)):
        parts = []
        for ei in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.40:
                parts.append(rng.choice(_VOCAB))
            elif roll < 0.55:
                parts.append(f"[{rng.choice(_VOCAB)}|{rng.choice(_VOCAB)}]")
            else:
                parts.append(f"${rng.choice(types)}#{ei}")
        nl = " ".join(parts)
        slots = [p for p in parts if p.startswith("$")]
        logic = f"(TupleFn {' '.join(slots)})" if slots else "Marker"
        output = rng.choice(types) if feeding else "Marker"
        outputs.append(output)
        cons_forms.append(f'(construction :id c{ci} :lang en :nl "{nl}" '
                          f":logic {logic} :output-type {output})")
    if feeding:
        # antecedents that constructions make, and some that they do not
        anaphor = rng.choice(outputs + types[:1])
        cons_forms.append(f'(construction :id it :lang en :nl "it" '
                          f":logic (TupleFn ${anaphor}#9) "
                          f":anaphoric (${anaphor}#9) "
                          f":output-type {rng.choice(types)})")
        if rng.random() < 0.3:
            # a pair that wraps each other's edges, so that an antecedent
            # of "it" appears only every other sweep
            other = rng.choice(types)
            for cid, a, b in (("up", anaphor, other), ("down", other, anaphor)):
                cons_forms.append(f'(construction :id {cid} :lang en '
                                  f':nl "${a}#0" :logic (TupleFn ${a}#0) '
                                  f":output-type {b})")
    repo = load_constructions(text="\n".join(cons_forms))

    def add_edge(graph, span, name):
        t = Constant(name)
        kind = "instance" if kb.kindedness(t) == "individual" else "collection"
        graph.add_edge(span, "lex" if span[1] - span[0] == 1 else "syn",
                       t, None, t, kind)

    def specializations_of(slot_type):
        out = [t for t in types
               if kb.subsumes(Constant(slot_type), Constant(t), "auto")]
        out += [i for i in individuals
                if kb.subsumes(Constant(slot_type), Constant(i), "auto")]
        return out

    # most windows are laid out from a stored variant so that retrieval has
    # genuine matches to find; the rest are noise
    planted = repo.variants and rng.random() < 0.6
    surfaces, planted_slots = [], []
    if planted:
        variant = rng.choice(repo.variants)
        for el in variant.elements:
            if isinstance(el, Literal):
                surfaces.append(el.text if rng.random() < 0.8
                                else rng.choice(_VOCAB))
            else:
                fillers = specializations_of(el.type)
                width = rng.choice((1, 1, 2))
                start = len(surfaces)
                surfaces.extend(rng.choice(_VOCAB + ["unseen"])
                                for _ in range(width))
                if fillers:
                    planted_slots.append(((start, start + width),
                                          rng.choice(fillers)))
    else:
        surfaces = [rng.choice(_VOCAB + ["unseen"])
                    for _ in range(rng.randint(1, 6))]
    surfaces = surfaces or ["unseen"]
    if feeding:
        surfaces += ["unseen"] * (3 - len(surfaces)) + ["it"]
    n_tok = len(surfaces)

    tokens = []
    offset = 0
    for s in surfaces:
        tokens.append(Token(s, offset, offset + len(s)))
        offset += len(s) + 1
    chart = TagChart(" ".join(surfaces), tokens, [])
    config = EngineConfig(max_window=max_window,
                          max_edges=80 if feeding else 50_000)
    graph = ParseGraph(chart.text, chart, kb, repo, config)
    pool = types + individuals
    if feeding:
        # seeded edges are not antecedents of "it": those come from
        # constructions, and from the extra edges below
        antecedents = specializations_of(anaphor)
        pool = [t for t in pool if t not in antecedents] or pool
    for span, name in planted_slots:
        add_edge(graph, span, name)
    # with feeding, only "it" itself adds edges on the "it" token
    for i in range(n_tok - feeding):
        for _ in range(rng.randint(0, 2)):
            add_edge(graph, (i, i + 1), rng.choice(pool))
    for _ in range(rng.randint(0, 2)):
        if n_tok >= 2:
            s = rng.randrange(n_tok - 1)
            e = rng.randint(s + 2, n_tok)
            add_edge(graph, (s, e), rng.choice(types))
    if feeding and rng.random() < 0.5:
        # more antecedents for "it" than it keeps, not next to it, so that
        # edges made later can be nearer
        spans = [(s, e) for s in range(n_tok - 2)
                 for e in range(s + 1, n_tok - 1)]
        pairs = [(span, name) for span in spans for name in antecedents]
        for span, name in rng.sample(pairs, min(len(pairs), 7)):
            add_edge(graph, span, name)
    return graph, (0, n_tok)


# ---------------------------------------------------------------------------
# Random ground-evaluable sentences and the exhaustive evaluator

UNIVERSE = tuple(Constant(f"C{i}") for i in range(1, 6))
_PREDS = (("p", 1), ("q", 2), ("r", 2))
_VARS = (QueryVar("A"), QueryVar("B"), QueryVar("C"))


def random_sentence(rng: random.Random, depth: int = 3):
    # terms stay inside UNIVERSE so enumeration over it is exhaustive
    def term():
        if rng.random() < 0.45:
            return rng.choice(_VARS)
        return rng.choice(UNIVERSE)

    def atom():
        if rng.random() < 0.3:
            return App(EQUALS, (term(), term()))
        name, arity = rng.choice(_PREDS)
        return App(Constant(name), tuple(term() for _ in range(arity)))

    def node(d):
        roll = rng.random()
        if d <= 0 or roll < 0.4:
            return atom()
        if roll < 0.55:
            return Not(node(d - 1))
        return And(tuple(node(d - 1) for _ in range(rng.randint(1, 3))))

    return node(depth)


def random_facts(rng: random.Random):
    facts = set()
    for name, arity in _PREDS:
        for _ in range(rng.randint(0, 6)):
            facts.add((name, tuple(rng.choice(UNIVERSE) for _ in range(arity))))
    return facts


def eval_ground(e, assignment, facts):
    if isinstance(e, And):
        return all(eval_ground(a, assignment, facts) for a in e.args)
    if isinstance(e, Not):
        return not eval_ground(e.arg, assignment, facts)
    if isinstance(e, App):
        args = tuple(assignment.get(a, a) for a in e.args)
        if e.predicate == EQUALS:
            return args[0] == args[1]
        return (e.predicate.name, args) in facts
    raise TypeError(f"cannot evaluate {e!r}")


def satisfying_projection(expr, onto_vars, facts):
    """Assignments (projected onto *onto_vars*) under which *expr* holds,
    enumerating the full universe for each free variable."""
    import itertools

    expr_vars = sorted(free_query_vars(expr), key=lambda v: v.name)
    result = set()
    for values in itertools.product(UNIVERSE, repeat=len(expr_vars)):
        assignment = dict(zip(expr_vars, values))
        if eval_ground(expr, assignment, facts):
            result.add(tuple(assignment.get(v) for v in onto_vars))
    return result
