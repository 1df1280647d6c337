import itertools
import random
from fractions import Fraction

import pytest

from conftest import BIO_KB_FILES, DEMO_KB_FILES
from helpers import deep_text, from_deep_caller, reference_holds
from construe import sexpr
from construe.constructions import load_constructions
from construe.interpreter import interpret
from construe.kb import (ContextStack, UnknownTermError, UntypedTermError,
                         lint_kb, load_kb, load_kb_lenient)
from construe.logic import (MAX_READ_DEPTH, And, App, Constant, Nat, Not,
                            QueryVar, from_sexpr, parse_expr, print_expr)
from construe.sexpr import LoadError
from construe.tagger import load_lexicon


# ---------------------------------------------------------------------------
# Independent BFS oracle over the raw link files

def link_graph(paths):
    graph = {}
    for path in paths:
        for form in sexpr.parse_all(path.read_text(encoding="utf-8")):
            if isinstance(form, sexpr.SexprList) and len(form) == 3 \
                    and str(form[0]) in ("isa", "genls"):
                s, g = from_sexpr(form[1]), from_sexpr(form[2])
                graph.setdefault(s, set()).add(g)
                graph.setdefault(g, set())
    return graph


def bfs_closure(graph, start):
    seen, queue = set(), [start]
    while queue:
        node = queue.pop()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(graph.get(node, ()))
    return seen


@pytest.mark.parametrize("files", [DEMO_KB_FILES, BIO_KB_FILES],
                         ids=["demo", "bio"])
def test_generalizations_match_bfs_oracle_everywhere(files):
    kb = load_kb(files)
    graph = link_graph(files)
    assert graph
    for term in graph:
        assert kb.generalizations(term) == frozenset(bfs_closure(graph, term))


def test_generalizations_of_glycine_counted_by_oracle(bio_kb):
    graph = link_graph(BIO_KB_FILES)
    expected = bfs_closure(graph, Constant("Glycine"))
    got = bio_kb.generalizations(Constant("Glycine"))
    assert len(got) == len(expected)
    assert got == frozenset(expected)


def test_generalizations_reflexive(demo_kb):
    for name in ("Building", "BlueColor", "Candle", "toLocation"):
        assert Constant(name) in demo_kb.generalizations(Constant(name))


def test_generalizations_of_building(demo_kb):
    gens = demo_kb.generalizations(Constant("Building"))
    assert {Constant("Building"), Constant("PositiveDimensionalThing"),
            Constant("PartiallyTangible")} <= gens


def test_generalizations_unknown_term(demo_kb):
    with pytest.raises(UnknownTermError):
        demo_kb.generalizations(Constant("NoSuchTerm"))


def test_nat_closure_seeded_from_result_rule(demo_kb):
    nat = parse_expr("(GroupFn Sandwich)")
    gens = demo_kb.generalizations(nat)
    assert Constant("Group") in gens
    assert Constant("SomethingExisting") in gens


def test_nat_explicit_links_win_over_signature(bio_kb):
    nat = parse_expr("(AminoAcidResidueTypeFn Glycine)")
    gens = bio_kb.generalizations(nat)
    assert Constant("Glycine") in gens
    assert Constant("AminoAcid") in gens
    assert Constant("AminoAcidResidueType") in gens


# ---------------------------------------------------------------------------
# Subsumption

def test_subsumes_genls_building(demo_kb):
    assert demo_kb.subsumes(Constant("PartiallyTangible"), Constant("Building"),
                            "genls")


def test_subsumes_instance_vs_specialization(demo_kb):
    white_house = Constant("TheWhiteHouse")
    assert demo_kb.subsumes(Constant("PartiallyTangible"), white_house, "isa")
    assert not demo_kb.subsumes(Constant("PartiallyTangible"), white_house,
                                "genls")


def test_subsumes_reflexive_on_collections(demo_kb):
    for name in ("Building", "Candle", "MovementEvent"):
        assert demo_kb.subsumes(Constant(name), Constant(name), "genls")


def test_subsumes_auto_uses_declarations(demo_kb):
    # individuals go through isa, collections through genls
    assert demo_kb.subsumes(Constant("Color"), Constant("BlueColor"), "auto")
    assert demo_kb.subsumes(Constant("Food"), Constant("Sandwich"), "auto")
    assert not demo_kb.subsumes(Constant("Sandwich"), Constant("BlueColor"),
                                "auto")


def test_isa_closure_is_one_isa_hop_then_genls(demo_kb, bio_kb):
    """The one closure that subsumes' isa mode and match_types of an
    individual both read."""
    for kb in (demo_kb, bio_kb):
        for t in sorted(map(Constant, kb.term_names), key=lambda c: c.name):
            hop = set()
            for parent in kb.isa_parents(t):
                hop |= kb.genls_closure(parent)
            assert kb.isa_closure(t) == hop
            for g in (Constant("Color"), Constant("PartiallyTangible"), t):
                if kb.known(t) and kb.known(g):
                    assert kb.subsumes(g, t, "isa") == (g in hop)
            if kb.known(t) and kb.kindedness(t) == "individual":
                assert kb.match_types(t) == hop


def test_numeral_instance_types_one_answer_per_kind(demo_kb):
    types, closure = demo_kb.numeral_instance_types, demo_kb.genls_closure
    assert types(Fraction(6)) is types(Fraction(1))
    assert types(Fraction(0)) is types(Fraction(-3))
    assert types(Fraction(1, 2)) is types(Fraction(-5, 3))
    rational = closure(Constant("RationalNumber"))
    assert types(Fraction(1, 2)) == rational
    assert types(Fraction(0)) == closure(Constant("Integer")) | rational
    assert types(Fraction(6)) == closure(Constant("PositiveInteger"))
    assert load_kb(text="(collection Thing)").numeral_instance_types(
        Fraction(6)) == frozenset()


@pytest.mark.parametrize("kb_text, typed", [
    ("(collection Integer)", False),
    ("(collection Integer) (collection PositiveInteger)", False),
    ("(collection Integer) (collection PositiveInteger) "
     "(genls PositiveInteger Integer)", True)])
def test_a_number_has_one_type_answer(kb_text, typed):
    """A test, an argument constraint and retrieval all type "6" through
    the KB's own links: it is an Integer only where the KB puts its own
    collection, PositiveInteger, below Integer."""
    kb = load_kb(text=kb_text + " (argIsa p 1 Integer)")
    repo = load_constructions(text='(construction :id n :nl "$Integer#0" '
                                   ':logic (p $Integer#0))')
    graph = interpret("6", kb, repo, load_lexicon(text=""))
    fills = any(e.source == "n" for e in graph.edges)
    assert kb.holds(parse_expr("(isa 6 Integer)")) == typed
    assert (kb.check_plausibility(parse_expr("(p 6)")) == []) == typed
    assert fills == typed


def test_subsumption_partial_order_on_collections(demo_kb):
    collections = sorted(n for n in demo_kb.term_names
                         if demo_kb.kindedness(Constant(n)) == "collection"
                         and demo_kb.known(Constant(n)))
    terms = [Constant(n) for n in collections]
    closure = {t: demo_kb.genls_closure(t) for t in terms}
    for t in terms:
        assert t in closure[t]
    for a, b in itertools.product(terms, repeat=2):
        if b in closure[a] and a in closure[b]:
            assert a == b  # antisymmetry
    for a in terms:
        for b in closure[a]:
            assert closure[b] <= closure[a]  # transitivity


# ---------------------------------------------------------------------------
# Facts

CANDLE_TEST = ("((TypeCapableFn behaviorCapable) BlowingOutAFlame "
               "objectActedOn Candle)")


def test_holds_candle_fact(demo_kb):
    assert demo_kb.holds(parse_expr(CANDLE_TEST))


def test_holds_uses_subsumption_on_arguments():
    kb = load_kb(text="""
      (collection Candle) (collection TaperCandle)
      (genls TaperCandle Candle)
      (collection BlowingOutAFlame)
      (fact base ((TypeCapableFn behaviorCapable) BlowingOutAFlame
                  objectActedOn Candle))
      (fn TypeCapableFn 1 (resultIsa BinaryPredicate))
      (collection BinaryPredicate)
    """)
    specific = parse_expr("((TypeCapableFn behaviorCapable) BlowingOutAFlame "
                          "objectActedOn TaperCandle)")
    assert kb.holds(specific)


def test_holds_genls_atom_consults_taxonomy(demo_kb):
    assert not demo_kb.holds(parse_expr("(genls Bank-Topographical Business)"))
    assert demo_kb.holds(parse_expr("(genls Electron SubAtomicParticle)"))
    assert demo_kb.holds(parse_expr("(isa TheWhiteHouse PartiallyTangible)"))


def test_holds_conjunction_and_negation(demo_kb):
    e = parse_expr("(and (genls Electron SubAtomicParticle) "
                   "(not (genls Candle SubAtomicParticle)))")
    assert demo_kb.holds(e)


def test_holds_on_empty_kb_is_false():
    kb = load_kb(text="")
    assert not kb.holds(parse_expr("(p a b)"))
    assert not kb.holds(parse_expr("(genls A B)"))


def test_holds_is_monotone():
    base = """
      (collection A) (collection B) (collection C)
      (fact base (p A B))
    """
    extra = base + "\n(fact base (p B C))\n(fact base (q A))"
    kb1 = load_kb(text=base)
    kb2 = load_kb(text=extra)
    atoms = [parse_expr(t) for t in ("(p A B)", "(p B C)", "(q A)", "(p C A)")]
    for atom in atoms:
        if kb1.holds(atom):
            assert kb2.holds(atom)


def test_context_overlay_inherits_base():
    kb = load_kb(text="""
      (collection Tire) (collection BlowingOutAFlame)
      (fact base (capable BlowingOutAFlame Candle))
      (fact garage-app (capable BlowingOutAFlame Tire))
      (collection Candle)
    """)
    base_only = ContextStack()
    with_overlay = ContextStack(overlay="garage-app")
    tire_atom = parse_expr("(capable BlowingOutAFlame Tire)")
    candle_atom = parse_expr("(capable BlowingOutAFlame Candle)")
    assert not kb.holds(tire_atom, base_only)
    assert kb.holds(tire_atom, with_overlay)
    assert kb.holds(candle_atom, with_overlay)  # overlay inherits the base


def _random_holds_case(rng):
    """A random taxonomy with facts in two contexts, and atoms over known
    and unknown constants, function terms and numbers."""
    collections = ["RationalNumber", "Integer", "PositiveInteger"] + [
        f"C{i}" for i in range(rng.randint(2, 5))]
    rng.shuffle(collections)
    individuals = [f"I{i}" for i in range(rng.randint(0, 3))]
    lines = [f"(collection {c})" for c in collections[:rng.randint(2, 7)]]
    for i, c in enumerate(collections[1:], 1):
        for _ in range(rng.randint(0, 2)):
            lines.append(f"(genls {c} {collections[rng.randrange(i)]})")
    for ind in individuals:
        lines.append(f"(isa {ind} {rng.choice(collections)})")
    # FooFn is declared; BarFn never is, so a BarFn term is known only
    # where a link names it as the specific term
    rule = rng.choice(["(resultGenlsArg 1)", "(resultIsa C0)",
                       "(resultGenls C0)"])
    lines.append(f"(fn FooFn 1 {rule})")
    if rng.random() < 0.5:
        lines.append(f"(genls (BarFn C0) {rng.choice(collections)})")
    if rng.random() < 0.5:
        lines.append(f"(genls {rng.choice(collections)} (BarFn C1))")
    pool = collections + individuals + ["Unknown", "6", "0", "1/2"]

    def term():
        roll = rng.random()
        if roll < 0.15:
            return f"(FooFn {rng.choice(pool)})"
        if roll < 0.25:
            return f"(BarFn {rng.choice(['C0', 'C1', 'Unknown'])})"
        return rng.choice(pool)

    for _ in range(rng.randint(0, 5)):
        ctx = rng.choice(["base", "base", "overlay"])
        lines.append(f"(fact {ctx} (p {term()} {term()}))")
    kb = load_kb(text="\n".join(lines))

    def atom():
        roll = rng.random()
        if roll < 0.5:
            return f"({rng.choice(['isa', 'genls'])} {term()} {term()})"
        if roll < 0.6:
            return f"(equals {term()} {term()})"
        if roll < 0.7:
            return f"(not {atom()})"
        if roll < 0.75:
            return f"(and {atom()} {atom()})"
        return f"(p {term()} {term()})"

    return kb, [parse_expr(atom()) for _ in range(30)]


def test_holds_equals_the_reference_on_random_taxonomies():
    """``holds`` reads the closures of known terms; the reference asks
    ``subsumes`` and treats its ``UnknownTermError`` as false."""
    contexts = (ContextStack(), ContextStack(overlay="overlay"))
    compared = {True: 0, False: 0}
    for seed in range(300):
        kb, atoms = _random_holds_case(random.Random(seed))
        for atom in atoms:
            for ctx in contexts:
                want = reference_holds(kb, atom, ctx)
                assert kb.holds(atom, ctx) == want, (seed, print_expr(atom))
                compared[want] += 1
    assert min(compared.values()) > 1000


def test_a_number_is_a_specialization_of_nothing(demo_kb):
    """``(genls N C)`` never holds for a number, as an argGenls constraint
    never accepts one: a ``:test+`` and a constraint reject "6" alike,
    and accept a collection below Integer alike."""
    assert demo_kb.holds(parse_expr("(isa 6 Integer)"))
    for number in ("6", "0", "-2", "1/2"):
        for general in ("Integer", "RationalNumber", "Thing"):
            assert not demo_kb.holds(parse_expr(f"(genls {number} {general})"))
    kb = load_kb(text="(collection Integer) (collection PositiveInteger) "
                      "(genls PositiveInteger Integer) (argGenls q 1 Integer)")
    repo = load_constructions(text="""
      (construction :id tested :nl "$Integer#0" :logic (r $Integer#0)
        :test+ (genls $Integer#0 Integer))
      (construction :id constrained :nl "$Integer#0" :logic (q $Integer#0))
    """)
    lexicon = load_lexicon(text='(lex "ints" PositiveInteger)')
    for text, applies in (("6", False), ("ints", True)):
        graph = interpret(text, kb, repo, lexicon)
        assert {e.source for e in graph.edges} - {"lex"} == (
            {"tested", "constrained"} if applies else set())
        if not applies:
            assert sorted((ev.construction, ev.kind) for ev in graph.trace) \
                == [("constrained", "plausibility"),
                    ("tested", "positive-test")]


def test_a_term_the_kb_does_not_know_satisfies_nothing():
    """``match_types`` answers an unknown term with no type; only the
    library queries ``subsumes`` and ``generalizations`` raise."""
    kb = load_kb(text="(collection Bar) (collection Baz) "
                      "(disjoint (FooFn Bar) Baz)")
    unknown = Nat(Constant("FooFn"), (Constant("Bar"),))
    assert not kb.known(unknown)
    assert kb.match_types(unknown) == frozenset()
    assert kb.match_types(Constant("Nothing")) == frozenset()
    for mode in ("auto", "isa", "genls"):
        with pytest.raises(UnknownTermError):
            kb.subsumes(Constant("Baz"), unknown, mode)
        with pytest.raises(UnknownTermError):
            kb.subsumes(unknown, Constant("Baz"), mode)
    assert not kb.holds(App(Constant("genls"), (unknown, Constant("Baz"))))
    assert lint_kb(kb) == []


# ---------------------------------------------------------------------------
# Plausibility

def test_plausibility_instance_vs_specialization(demo_kb):
    e = parse_expr("(SitTypeSpecWithTypeRestrictionOnRolePlayerFn "
                   "DancingMovement toLocation TheWhiteHouse)")
    violations = demo_kb.check_plausibility(e)
    assert any(v.kind == "instance-vs-specialization" for v in violations)


def test_plausibility_inter_argument(demo_kb):
    bad = parse_expr("(properPartTypeCount MusicalComposition Note-Document 6)")
    good = parse_expr("(properPartTypeCount MusicalComposition MusicalNote 6)")
    assert any(v.kind == "inter-arg" for v in demo_kb.check_plausibility(bad))
    assert demo_kb.check_plausibility(good) == []


def test_plausibility_known_false_by_disjointness(demo_kb):
    e = parse_expr("(genls Bank-Topographical Business)")
    assert any(v.kind == "known-false" for v in demo_kb.check_plausibility(e))
    ok = parse_expr("(genls Bank-FinancialOrganization Business)")
    assert demo_kb.check_plausibility(ok) == []


def test_plausibility_ok_on_well_typed_expression(demo_kb):
    e = parse_expr("(SubcollectionOfWithRelationToFn Building "
                   "mainColorOfObject BlueColor)")
    assert demo_kb.check_plausibility(e) == []


def test_plausibility_structural_error_has_path(demo_kb):
    e = parse_expr('(and (isa ?X Dog) 7)')
    violations = demo_kb.check_plausibility(e)
    assert violations and violations[0].kind == "structural"
    assert violations[0].path == (1,)


def test_plausibility_arity_mismatch(demo_kb):
    e = parse_expr("(LargeFn Building Candle)")
    assert any(v.kind == "structural" for v in demo_kb.check_plausibility(e))


def test_plausibility_skips_negated_contexts(demo_kb):
    e = parse_expr("(not (genls Bank-Topographical Business))")
    assert demo_kb.check_plausibility(e) == []


def test_passed_subterm_is_skipped_at_positive_polarity_only(demo_kb):
    false = parse_expr("(genls Bank-Topographical Business)")
    other = parse_expr("(isa TheWhiteHouse Building)")
    # a passed subterm met at positive polarity is not walked again, so an
    # implausible one given as passed shows the skip
    assert demo_kb.check_plausibility(And((other, false)), passed=(false,)) \
        == []
    assert [v.path for v in demo_kb.check_plausibility(And((other, false)))] \
        == [(1,)]
    # plausible alone, as its genls sits at negative polarity ...
    child = Not(false)
    assert demo_kb.check_plausibility(child) == []
    # ... but under one more not the genls is positive again: the child is
    # walked, and contradicts the disjointness declaration
    violations = demo_kb.check_plausibility(Not(child), passed=(child,))
    assert [(v.kind, v.path) for v in violations] == [("known-false", (0, 0))]
    # an equal copy is not the passed term itself, so it is walked
    copy = parse_expr("(genls Bank-Topographical Business)")
    assert demo_kb.check_plausibility(copy, passed=(false,)) != []


PIN_KB = """
  (collection Animal) (collection Dog) (genls Dog Animal)
  (collection Rock) (collection Food) (disjoint Animal Rock)
  (individual Fido) (isa Fido Dog) (individual Pebble) (isa Pebble Rock)
  (collection Integer) (collection PositiveInteger)
  (genls PositiveInteger Integer)
  (argIsa owns 1 Animal) (argGenls kindOf 1 Animal) (argIsa pair 2 Animal)
  (argIsa numbered 1 Integer) (argGenls genls 1 Animal)
  (interArgGenls feeds 1 Animal 2 Food)
  (fn PackFn 1 (resultIsa Animal)) (argIsa PackFn 1 Animal)
  (disjoint (FooFn Rock) Dog)
"""
_FIDO, _PACK, _ROCK = Constant("Fido"), Constant("PackFn"), Constant("Rock")
_OWNS_1 = "argument 1 of owns must be an instance of Animal, got "
_KIND_1 = "argument 1 of kindOf must be a specialization of Animal"
_PACK_1 = "argument 1 of PackFn must be an instance of Animal, got "
_KNOWN_FALSE = "contradicts a disjointness declaration"

# expression (text, or the term itself where no text reads as it) -> every
# violation as (kind, path, message), in order
VIOLATION_PINS = [
    ("(owns Fido)", []),
    ("(owns ?X)", []),
    ("(owns Unknown)", []),
    ("(numbered 6)", []),
    ("(owns Pebble)", [("arg-isa", (1,), _OWNS_1 + "Pebble")]),
    ("(owns 6)", [("arg-isa", (1,), _OWNS_1 + "the number 6")]),
    ("(numbered 1/2)", [("arg-isa", (1,), "argument 1 of numbered must be "
                         "an instance of Integer, got the number 1/2")]),
    ("(kindOf Rock)", [("arg-genls", (1,), _KIND_1 + ", got Rock")]),
    ("(kindOf 1/2)", [("arg-genls", (1,), _KIND_1 + ", got the number 1/2")]),
    ("(kindOf Fido)", [("instance-vs-specialization", (1,),
                        _KIND_1 + "; Fido is an instance of it")]),
    ('(owns "x")', [("structural", (1,), "argument 1 of owns is not a term")]),
    ("(pair Fido)", [("structural", (), "pair needs at least 2 arguments")]),
    ("(feeds Dog Rock)", [("inter-arg", (2,), "feeds: argument 1 specializes "
                           "Animal, so argument 2 must specialize Food; "
                           "got Rock")]),
    ("(feeds Dog)", [("structural", (), "feeds is missing arguments required "
                      "by an inter-argument constraint")]),
    ("(genls Dog Rock)", [("known-false", (), "(genls Dog Rock) " + _KNOWN_FALSE)]),
    ("(isa Fido Rock)", [("known-false", (), "(isa Fido Rock) " + _KNOWN_FALSE)]),
    ("(genls Rock Dog)", [
        ("known-false", (), "(genls Rock Dog) " + _KNOWN_FALSE),
        ("arg-genls", (1,), "argument 1 of genls must be a specialization of "
                            "Animal, got Rock")]),
    ("(PackFn Fido Rock)", [("structural", (), "PackFn takes 1 arguments, "
                             "got 2")]),
    ("(PackFn Pebble (PackFn Rock))", [
        ("structural", (), "PackFn takes 1 arguments, got 2"),
        ("arg-isa", (1,), _PACK_1 + "Pebble"),
        ("arg-isa", (2, 1), _PACK_1 + "Rock")]),
    (Nat(Nat(_PACK, (_FIDO,)), (_ROCK,)), [
        ("structural", (0,), "function term head must be a constant")]),
    (App(QueryVar("P"), (_FIDO,)), [
        ("structural", (0,), "predicate must be a constant or function term")]),
    ("((PackFn Pebble) Fido)", [("arg-isa", (0, 1), _PACK_1 + "Pebble")]),
    ("(and (owns Fido) 7)", [("structural", (1,),
                              "conjunct is not a sentence")]),
    ("(and (owns Pebble) (not (genls Dog Rock)) "
     "(feeds Dog (PackFn Pebble)))", [
        ("arg-isa", (0, 1), _OWNS_1 + "Pebble"),
        ("inter-arg", (2, 2), "feeds: argument 1 specializes Animal, so "
                              "argument 2 must specialize Food; got "
                              "(PackFn Pebble)"),
        ("arg-isa", (2, 2, 1), _PACK_1 + "Pebble")]),
    # a disjointness of a term the KB does not know contradicts nothing
    ("(genls (FooFn Rock) Dog)", []),
    ("(genls Dog (FooFn Rock))", []),
]


@pytest.mark.parametrize("expr, expected", VIOLATION_PINS,
                         ids=[str(i) for i in range(len(VIOLATION_PINS))])
def test_violations_pinned(expr, expected):
    kb = load_kb(text=PIN_KB)
    e = parse_expr(expr) if isinstance(expr, str) else expr
    assert [(v.kind, v.path, v.message)
            for v in kb.check_plausibility(e)] == expected


# ---------------------------------------------------------------------------
# Result typing

def test_result_type_first_argument(demo_kb):
    e = parse_expr("(SubcollectionOfWithRelationToFn Building "
                   "mainColorOfObject BlueColor)")
    assert demo_kb.result_type(e) == Constant("Building")


def test_result_type_via_argument_type(demo_kb):
    e = parse_expr("(LargeFn $PositiveDimensionalThing#0)")
    assert demo_kb.result_type(e) == Constant("PositiveDimensionalThing")
    nested = parse_expr("(LargeFn (SubcollectionOfWithRelationToFn Building "
                        "mainColorOfObject BlueColor))")
    inner = parse_expr("(SubcollectionOfWithRelationToFn Building "
                       "mainColorOfObject BlueColor)")
    assert demo_kb.result_type(nested) == inner


def test_result_type_constant_rule(demo_kb):
    assert demo_kb.result_type(parse_expr("(YearFn 2015)")) == \
        Constant("CalendarYear")
    assert demo_kb.result_type(parse_expr("(GroupFn Sandwich)")) == \
        Constant("Group")


def test_result_type_missing_signature(demo_kb):
    with pytest.raises(UntypedTermError):
        demo_kb.result_type(Nat(Constant("MysteryFn"), (Constant("Candle"),)))


# ---------------------------------------------------------------------------
# Loading and linting

def test_loader_rejects_genls_cycle():
    with pytest.raises(LoadError) as exc:
        load_kb(text="(genls A B)\n(genls B A)")
    message = str(exc.value)
    assert "cycle" in message and "A" in message and "B" in message


def test_loader_rejects_self_link():
    with pytest.raises(LoadError):
        load_kb(text="(genls A A)")


def test_loader_rejects_arity_mismatch():
    with pytest.raises(LoadError):
        load_kb(text="(fn F 2 (resultIsa C))\n(fact base (p (F A)))")


def test_lenient_load_collects_findings():
    kb, findings = load_kb_lenient(text="(genls A B)\n(genls B A)\n(isa X X)")
    codes = {f.code for f in findings}
    assert "kb-genls-cycle" in codes
    assert "kb-self-link" in codes


@pytest.mark.parametrize("depth", [MAX_READ_DEPTH, MAX_READ_DEPTH + 1],
                         ids=["at-bound", "past-bound"])
def test_a_deep_fact_loads_the_same_from_a_deep_caller(depth):
    """A fact at the read bound loads; one level deeper is a syntax
    finding at its form, and the next form still loads."""
    text = (f"(fn F 1 (resultIsa Thing))\n(fact base {deep_text(depth)})\n"
            "(fact base (q B))\n")

    def answer():
        kb, findings = load_kb_lenient(text=text)
        return ([(f.code, f.message) for f in findings],
                kb.holds(parse_expr(deep_text(MAX_READ_DEPTH))),
                kb.holds(parse_expr("(q B)")))

    if depth == MAX_READ_DEPTH:
        assert answer() == ([], True, True)
    else:
        message = (f"<string>: form at line 2, column 1: term nests deeper "
                   f"than {MAX_READ_DEPTH} levels (line 2, column "
                   f"{12 + 3 * MAX_READ_DEPTH})")
        assert answer() == ([("kb-syntax", message)], False, True)
    assert from_deep_caller(answer) == answer()


def test_a_closure_at_the_read_bound_answers_from_a_deep_caller():
    """``genls_closure`` goes through a function term the KB does not link
    one nesting level at a time and keeps none of it: a term at the read
    bound still answers from a deep caller, and only the KB's own term is
    memoised."""
    kb = load_kb(text="(collection A) (collection B) (genls A B) "
                      "(fn F 1 (resultGenlsArg 1))")
    # the F chain of a fact read at the bound
    top = term = parse_expr(deep_text(MAX_READ_DEPTH)).args[0]
    chain = set()
    while isinstance(term, Nat):
        chain.add(term)
        term = term.args[0]

    def answer():
        return kb.genls_closure(top) == chain | {Constant("A"), Constant("B")}, \
            kb.subsumes(Constant("B"), top, "genls")

    assert answer() == (True, True)
    assert from_deep_caller(answer) == answer()
    assert list(kb._genls_memo) == [Constant("A")]


def _genls_chain(links, closed=False):
    text = "".join(f"(genls C{i} C{i + 1})\n" for i in range(links))
    return text + (f"(genls C{links} C0)\n" if closed else "")


def test_long_genls_chain_loads():
    kb, findings = load_kb_lenient(text=_genls_chain(3000))
    assert findings == []
    assert kb.subsumes(Constant("C3000"), Constant("C0"), "genls")


def test_long_genls_loop_is_one_cycle():
    _, findings = load_kb_lenient(text=_genls_chain(3000, closed=True))
    assert [f.code for f in findings] == ["kb-genls-cycle"]
    assert findings[0].message.startswith("genls cycle: C0 -> C1 -> C2 ")
    assert findings[0].message.endswith(" -> C2999 -> C3000 -> C0")


def test_cycles_found_off_the_first_path():
    _, findings = load_kb_lenient(
        text="(genls A B)\n(genls B C)\n(genls B D)\n(genls D B)\n"
             "(genls E D)\n(genls C A)\n(genls F G)\n(genls F H)\n(genls H G)")
    assert sorted(f.message for f in findings) == [
        "genls cycle: A -> B -> C -> A", "genls cycle: B -> D -> B"]


def test_disjointness_is_symmetric(demo_kb):
    a, b = Constant("Bank-Topographical"), Constant("Business")
    assert demo_kb.disjoint_known(a, b)
    assert demo_kb.disjoint_known(b, a)


def test_lint_flags_disjoint_with_generalization():
    kb = load_kb(text="""
      (collection A) (collection B)
      (genls A B)
      (disjoint A B)
    """)
    findings = lint_kb(kb)
    assert any(f.code == "kb-disjoint-subsumption" for f in findings)


def test_bundled_kbs_lint_clean(demo_kb, bio_kb):
    assert lint_kb(demo_kb) == []
    assert lint_kb(bio_kb) == []


@pytest.mark.parametrize("form", [
    "(fn F 3/2 (resultIsa C))",
    "(fn F 2 (resultGenlsArg 3/2))",
    "(argIsa p 5/2 C)",
    "(argGenls p 5/2 C)",
    "(interArgGenls p 3/2 C 2 D)",
    "(interArgGenls p 1 C 5/2 D)"])
def test_ratio_where_an_integer_is_needed_is_a_finding(form):
    kb, findings = load_kb_lenient(text=form)
    assert [f.code for f in findings] == ["kb-form"]
    assert kb._signatures == {} and kb._arg_constraints == {}
    assert kb._inter_arg == {}


@pytest.mark.parametrize("form", [
    "(interArgGenls p 1 (a b) 2 C)",
    "(fn F 1 (resultIsa 3))",
    '(fn F 1 ("resultIsa" C))'])
def test_name_field_that_is_not_a_symbol_is_a_finding(tmp_path, form):
    path = tmp_path / "names.kb"
    path.write_text(form + "\n", encoding="utf-8")
    kb, findings = load_kb_lenient([path])
    assert [f.code for f in findings] == ["kb-form"]
    assert findings[0].message.startswith(f"{path}: form at line 1, column 1: ")
    assert kb.term_names == frozenset() and kb._signatures == {}
    assert kb._inter_arg == {}


def test_handler_findings_name_file_and_form(tmp_path):
    path = tmp_path / "bad.kb"
    path.write_text("(isa A B)\n\n  (argIsa p 0 C)\n(genls C D)\n(genls D C)\n",
                    encoding="utf-8")
    _, findings = load_kb_lenient([path])
    assert [(f.code, f.message) for f in findings] == [
        ("kb-form", f"{path}: form at line 3, column 3: argIsa p: position "
                    "must be positive"),
        ("kb-genls-cycle", "genls cycle: C -> D -> C")]


def test_finding_about_a_top_level_atom_names_only_the_file(tmp_path):
    path = tmp_path / "stray.kb"
    path.write_text('(isa A B)\n5\n3/1\n1/2\n"a\\"b"\n', encoding="utf-8")
    _, findings = load_kb_lenient([path])
    assert [(f.code, f.message) for f in findings] == [
        ("kb-form", f"{path}: stray atom {atom} at top level")
        for atom in ("5", "3", "1/2", '"a\\"b"')]


def test_findings_print_forms_as_source_text(tmp_path):
    path = tmp_path / "heads.kb"
    path.write_text('((a) b)\n("isa" A B)\n()\n', encoding="utf-8")
    _, findings = load_kb_lenient([path])
    assert [(f.code, f.message) for f in findings] == [
        ("kb-form", f"{path}: form at line 1, column 1: unknown form ((a) ...)"),
        ("kb-form", f'{path}: form at line 2, column 1: unknown form ("isa" ...)'),
        ("kb-form", f"{path}: form at line 3, column 1: stray atom () at top "
                    "level")]


_PREFIXED_NAMES = ("(collection #$Foo)\n(individual #$a)\n(isa #$a #$Foo)\n"
                   "(argIsa #$p 1 #$Foo)\n(argGenls #$p 2 #$Foo)\n"
                   "(interArgGenls #$q 1 #$Foo 2 #$Bar)\n"
                   "(fn #$F 1 (resultIsa #$Foo))\n(fact #$base (#$p a (F a)))\n")


def test_name_fields_read_constant_prefix_as_term_fields_do():
    kb, findings = load_kb_lenient(text=_PREFIXED_NAMES)
    assert findings == []
    assert kb.term_names == {"Foo", "Bar", "a", "p", "q", "F"}
    foo = Constant("Foo")
    assert kb.kindedness(foo) == "collection"
    assert kb.kindedness(Constant("a")) == "individual"
    # a declaration read through #$ wins over the links' evidence
    declared = load_kb(text="(collection #$x)\n(isa x Thing)\n"
                            "(individual #$y)\n(genls y Thing)\n")
    assert declared.kindedness(Constant("x")) == "collection"
    assert declared.kindedness(Constant("y")) == "individual"
    assert kb._arg_constraints["p"][0].required == Constant("Foo")
    assert kb._inter_arg["q"][0].then_type == Constant("Bar")
    assert kb._signatures["F"].rule_value == "Foo"
    assert kb.subsumes(foo, Constant("a"))
    assert [ctx for ctx, _ in kb._facts["p"]] == ["base"]
    assert kb.holds(parse_expr("(p a (F a))"))
    plain, _ = load_kb_lenient(text=_PREFIXED_NAMES.replace("#$", ""))
    assert kb._arg_constraints == plain._arg_constraints
    assert kb._inter_arg == plain._inter_arg
    assert kb._signatures == plain._signatures


@pytest.mark.parametrize("form", ["(collection #$)", "(argIsa p 1 #$)",
                                  "(fn #$ 1 (resultIsa C))",
                                  "(fn F 1 (resultIsa #$))", "(fact #$ (p a))",
                                  "(interArgGenls p 1 C 2 #$)"])
def test_bare_constant_prefix_in_a_name_field_is_a_located_finding(form):
    kb, findings = load_kb_lenient(text="(isa a C)\n" + form)
    assert [(f.code, f.message) for f in findings] == [
        ("kb-form", "<string>: form at line 2, column 1: empty constant "
                    "after #$")]
    assert kb.term_names == {"a", "C"}


@pytest.mark.parametrize("form, message", [
    ("(collection ?x)", "?x is a variable, not a constant name"),
    ("(argIsa p 1 $T#1)", "$T#1 is a variable, not a constant name"),
    ("(fact ?c (p a))", "?c is a variable, not a constant name"),
    ("(individual $T)",
     "unknown sigil in '$T' (typed variables are written $Type#k)")])
def test_name_field_symbol_reads_as_a_term_field_reads_it(form, message):
    kb, findings = load_kb_lenient(text="(isa a C)\n" + form)
    assert [(f.code, f.message) for f in findings] == [
        ("kb-form", f"<string>: form at line 2, column 1: {message}")]
    assert kb.term_names == {"a", "C"}
