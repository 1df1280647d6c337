import gc
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from helpers import (deep_text, from_deep_caller, random_facts,
                     random_sentence, satisfying_projection)
from construe import logic
from construe.interpreter import MAX_NESTING
from construe.kb import load_kb
from construe.logic import (MAX_READ_DEPTH, MAX_TERM_DEPTH, And, App,
                            Constant, Exists, ExprSyntaxError,
                            Kappa, Names, Nat, Not, Numeral, QueryVar,
                            Text, TheSetOf, TypedVar, canonical_form,
                            equal_modulo_renaming,
                            expr_from_json, expr_to_json, free_query_vars,
                            free_vars, from_sexpr, parse_expr, print_expr,
                            quantify_existential, rename_query_vars, simplify,
                            substitute, term_depth)
from construe.sexpr import parse_all


def corpus():
    text = (DATA_DIR / "expressions.sexp").read_text(encoding="utf-8")
    return [from_sexpr(node) for node in parse_all(text)], text


def test_shared_names_share_within_one_table_only():
    def read(text, names=None):
        return from_sexpr(parse_all(text)[0], names).args

    one, other = Names(), Names()
    first, again = read("(p Foo ?x $T#1)", one), read("(q #$Foo ?x $T#1)", one)
    assert all(a is b for a, b in zip(first, again))
    elsewhere = read("(p Foo ?x $T#1)", other)
    assert elsewhere == first
    assert not any(a is b for a, b in zip(first, elsewhere))
    # a read given no table makes one for the call
    plain = read("(p Foo ?x $T#1)"), read("(p Foo ?x $T#1)")
    assert plain[0] == first and not any(a is b for a, b in zip(*plain))
    foo, again = read("(p Foo #$Foo)")
    assert foo is again


def test_reading_keeps_no_atom_alive():
    """A long-lived caller may read any number of distinct names; no atom
    read outlives the expressions it was read into."""
    for i in range(100):
        parse_expr(f'(and (leakp{i} ?leakv{i} $LeakT{i}#1) (not (#$LeakC{i} "s")))')
        from_sexpr(parse_all(f"(leakq{i} LeakD{i} ?leakw{i})")[0], Names())
        expr_from_json([f"leakr{i}", f"LeakE{i}", f"?leakx{i}", f"$LeakU{i}#2"])
    gc.collect()
    assert [o for o in gc.get_objects()
            if isinstance(o, (Constant, QueryVar, TypedVar))
            and "leak" in repr(o).casefold()] == []


# ---------------------------------------------------------------------------
# Parsing and printing

def test_parse_function_term_with_typed_var():
    e = parse_expr("(LargeFn $PositiveDimensionalThing#0)")
    assert e == Nat(Constant("LargeFn"),
                    (TypedVar("PositiveDimensionalThing", 0),))


def test_parse_bare_atom_is_constant():
    assert parse_expr("X") == Constant("X")


def test_parse_sigils():
    assert parse_expr("$Color#0") == TypedVar("Color", 0)
    assert parse_expr("?FOOD") == QueryVar("FOOD")
    assert parse_expr("#$EndFn") == Constant("EndFn")
    assert parse_expr("12") == Numeral(Fraction(12))
    assert parse_expr('"Rex"') == Text("Rex")


def test_parse_negation_alias():
    e = parse_expr("¬(genls $PartiallyTangible#0 SubAtomicParticle)")
    assert isinstance(e, Not)
    assert e == parse_expr("(not (genls $PartiallyTangible#0 SubAtomicParticle))")


def test_parse_function_term_predicate():
    e = parse_expr("((TypeCapableFn behaviorCapable) A objectActedOn B)")
    assert isinstance(e, App)
    assert isinstance(e.predicate, Nat)


def test_unknown_sigil_is_error():
    with pytest.raises(ExprSyntaxError):
        parse_expr("$NoIndex")


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("(and (isa ?X Dog)")
    assert exc.value.line >= 1 and exc.value.col >= 1


def test_corpus_round_trips():
    exprs, _ = corpus()
    assert len(exprs) >= 16
    for e in exprs:
        assert parse_expr(print_expr(e)) == e


@pytest.mark.parametrize("value", ["Old\tTower", "two\nlines",
                                   'say "hi" \\ bye'])
def test_text_prints_on_one_line_and_reads_back(value):
    e = App(Constant("nameString"), (QueryVar("B"), Text(value)))
    printed = print_expr(e)
    assert "\t" not in printed and "\n" not in printed
    assert parse_expr(printed) == e


def test_corpus_byte_round_trip_after_whitespace_normalization():
    exprs, text = corpus()
    sources = [" ".join(chunk.split())
               for chunk in text.split("\n\n") if chunk.strip()
               and not chunk.lstrip().startswith(";")]
    for source, e in zip(sources, exprs):
        if "#$" in source or "¬" in source:
            continue
        assert print_expr(e) == source


# ---------------------------------------------------------------------------
# Substitution

def test_substitute_builds_nested_term():
    outer = parse_expr("(LargeFn $PositiveDimensionalThing#0)")
    inner = parse_expr("(SubcollectionOfWithRelationToFn Building "
                       "mainColorOfObject BlueColor)")
    got = substitute(outer, {TypedVar("PositiveDimensionalThing", 0): inner})
    assert print_expr(got) == ("(LargeFn (SubcollectionOfWithRelationToFn "
                               "Building mainColorOfObject BlueColor))")


def test_substitute_empty_binding_is_identity():
    e = parse_expr("(and (isa ?X Dog) (isa ?Y Cat))")
    assert substitute(e, {}) is e


def test_substitute_does_not_touch_bound_variables():
    e = parse_expr("(TheSetOf ?FOOD (isa ?FOOD $Food#1))")
    got = substitute(e, {QueryVar("FOOD"): Constant("Pizza")})
    assert got == e


def test_substitute_avoids_capture():
    # replacement mentions the bound name; the binder must rename
    e = parse_expr("(TheSetOf ?X (and (isa ?X Dog) (likes ?X ?Y)))")
    got = substitute(e, {QueryVar("Y"): QueryVar("X")})
    assert isinstance(got, TheSetOf)
    assert got.var == QueryVar("X'")
    assert print_expr(got.body) == "(and (isa ?X' Dog) (likes ?X' ?X))"
    assert free_query_vars(got) == {QueryVar("X")}


def test_binder_rename_avoids_existing_free_names():
    # the binder must step over ?X' (already free in the body) when
    # renaming ?X away from an incoming replacement
    e = parse_expr("(TheSetOf ?X (and (p ?X) (q ?X')))")
    got = substitute(e, {QueryVar("X'"): Constant("C")})
    # no substitution of the bound ?X here, but the adjacent case:
    assert got == parse_expr("(TheSetOf ?X (and (p ?X) (q C)))")
    e2 = parse_expr("(TheSetOf ?X (and (p ?X) (q ?X') (r ?Y)))")
    got2 = substitute(e2, {QueryVar("Y"): QueryVar("X")})
    assert isinstance(got2, TheSetOf)
    # bound variable renamed, and not onto the pre-existing ?X'
    assert got2.var.name not in ("X", "X'")
    assert free_query_vars(got2) == {QueryVar("X"), QueryVar("X'")}


def test_substitution_compositional_on_disjoint_domains():
    e = parse_expr("(and (p ?X ?Y) (q ?Z))")
    b1 = {QueryVar("X"): Constant("C1")}
    b2 = {QueryVar("Z"): Constant("C2")}
    combined = {**b1, **b2}
    assert substitute(substitute(e, b1), b2) == substitute(e, combined)


# ---------------------------------------------------------------------------
# Renaming

def test_rename_adds_suffix():
    e = parse_expr("(isa ?SAND Sandwich)")
    assert print_expr(rename_query_vars(e, 3)) == "(isa ?SAND_3 Sandwich)"


def test_rename_twice_distinct():
    e = parse_expr("(isa ?X Dog)")
    assert rename_query_vars(e, 1) != rename_query_vars(e, 2)


def test_rename_leaves_bound_variables():
    e = parse_expr("(TheSetOf ?FOOD (and (isa ?FOOD Food) (likes ?WHO ?FOOD)))")
    got = rename_query_vars(e, 7)
    assert isinstance(got, TheSetOf)
    assert got.var == QueryVar("FOOD")
    assert QueryVar("WHO_7") in free_query_vars(got)


def test_renamed_copies_share_no_free_variables():
    e = parse_expr("(and (isa ?X Dog) (likes ?X ?Y))")
    a = rename_query_vars(e, 1)
    b = rename_query_vars(e, 2)
    assert not (free_query_vars(a) & free_query_vars(b))


# ---------------------------------------------------------------------------
# Simplification

def test_simplify_eliminates_equality():
    e = parse_expr("(and (isa ?E EatingEvent) (equals ?S Sandwich') "
                   "(consumedObject ?E ?S))")
    assert print_expr(simplify(e)) == ("(and (isa ?E EatingEvent) "
                                       "(consumedObject ?E Sandwich'))")


def test_simplify_flattens_and_dedupes():
    e = parse_expr("(and (and (p a) (p a)) (q b))")
    assert print_expr(simplify(e)) == "(and (p a) (q b))"


def test_simplify_collapses_single_conjunct():
    assert print_expr(simplify(parse_expr("(and (p a))"))) == "(p a)"


def test_simplify_variable_pair_keeps_smaller_name():
    e = parse_expr("(and (equals ?Z ?A) (p ?Z))")
    assert print_expr(simplify(e)) == "(p ?A)"


def test_simplify_idempotent_on_random_sentences():
    rng = random.Random(20240811)
    for _ in range(500):
        e = random_sentence(rng)
        s = simplify(e)
        assert simplify(s) == s


def test_simplify_preserves_ground_truth():
    rng = random.Random(977)
    for _ in range(300):
        e = random_sentence(rng)
        facts = random_facts(rng)
        s = simplify(e)
        post_vars = sorted(free_query_vars(s), key=lambda v: v.name)
        assert set(post_vars) <= set(free_query_vars(e))
        assert (satisfying_projection(e, post_vars, facts)
                == satisfying_projection(s, post_vars, facts))


def test_simplify_never_drops_predicates():
    rng = random.Random(1234)

    def predicate_names(e):
        if isinstance(e, And):
            return set().union(*(predicate_names(a) for a in e.args))
        if isinstance(e, Not):
            return predicate_names(e.arg)
        if isinstance(e, App) and isinstance(e.predicate, Constant):
            return {e.predicate.name}
        return set()

    for _ in range(300):
        e = random_sentence(rng)
        s = simplify(e)
        assert predicate_names(e) - {"equals"} <= predicate_names(s)
        assert not free_query_vars(s) - free_query_vars(e)


# ---------------------------------------------------------------------------
# Free variables and quantification

def test_free_vars_simple():
    assert free_vars(parse_expr("(isa ?X Dog)")) == {QueryVar("X")}


def test_quantify_closed_sentence_unchanged():
    e = parse_expr("(isa Rex Dog)")
    assert quantify_existential(e) is e


def test_quantify_binds_free_query_vars():
    e = parse_expr("(and (isa ?X Dog) (likes ?X ?Y))")
    closed = quantify_existential(e)
    assert isinstance(closed, Exists)
    assert not free_query_vars(closed)


def test_free_vars_of_set_template_are_typed_vars_only():
    # the demo-file version of the animal-food template binds its set
    # variable, so only the typed holes remain free
    e = parse_expr(
        "(CollectionSubsetFn $Food#1 (TheSetOf ?FOOD (and (isa ?FOOD $Food#1) "
        "(intendedSoleFunction ?FOOD (SubcollectionOfWithRelationToTypeFn "
        "EatingEvent doneBy $Animal#0) consumedObject))))")
    assert free_vars(e) == {TypedVar("Food", 1), TypedVar("Animal", 0)}


# ---------------------------------------------------------------------------
# Canonical forms and JSON

def test_equal_modulo_renaming():
    a = parse_expr("(and (isa ?E Event) (doneBy ?E ?X))")
    b = parse_expr("(and (isa ?EVT Event) (doneBy ?EVT ?WHO))")
    c = parse_expr("(and (isa ?E Event) (doneBy ?X ?E))")
    assert equal_modulo_renaming(a, b)
    assert not equal_modulo_renaming(a, c)


def test_canonical_form_respects_scopes():
    a = parse_expr("(and (p ?X) (TheSetOf ?X (q ?X)))")
    b = parse_expr("(and (p ?X) (TheSetOf ?Y (q ?Y)))")
    assert canonical_form(a) == canonical_form(b)


def test_canonical_form_keeps_free_variables_apart_across_scopes():
    # numbering variables by scope depth would give ?a, numbered inside
    # the binder, and ?b, numbered outside it, the same name
    a = parse_expr("(and (exists (?z) (p ?z ?a)) (q ?b))")
    b = parse_expr("(and (exists (?z) (p ?z ?a)) (q ?a))")
    assert canonical_form(a) != canonical_form(b)
    assert not equal_modulo_renaming(a, b)


def test_json_round_trip_on_corpus():
    exprs, _ = corpus()
    for e in exprs:
        assert expr_from_json(expr_to_json(e)) == e


@pytest.mark.parametrize("obj", [
    "3/0",                                  # no such number
    {"text": 5},                            # text that is not a string
    ["not", "p", "q"],                      # not takes one argument
    ["exists", "?X", ["p", "?X"]],          # a binder list that is no list
    ["and"],                                # no conjunct
    ["Kappa", ["Foo"], ["p", "Foo"]],       # binds a constant
    ["TheSetOf", "Foo", ["p", "Foo"]],      # binds a constant
    [["p"], "a"],                           # a sentence as head
    "", "a b", True, None, float("nan"),    # no atom, no expression
], ids=repr)
def test_malformed_json_encoding_is_a_syntax_error(obj):
    with pytest.raises(ExprSyntaxError):
        expr_from_json(obj)


def test_json_zero_denominator_is_reported_as_the_reader_reports_it():
    with pytest.raises(ExprSyntaxError) as from_json:
        expr_from_json(["p", "3/0"])
    with pytest.raises(ExprSyntaxError) as from_text:
        parse_expr("(p 3/0)")
    assert from_json.value.message == from_text.value.message \
        == "zero denominator in 3/0"


def _nested(depth: int, leaf):
    for _ in range(depth):
        leaf = ["p", leaf]
    return leaf


TOO_DEEP = f"term nests deeper than {MAX_READ_DEPTH} levels"


def test_text_nested_too_deeply_is_a_syntax_error():
    depth = 1000
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("(p " * depth + "a" + ")" * depth)
    assert exc.value.message == TOO_DEEP
    assert isinstance(parse_expr("(p " * 50 + "a" + ")" * 50), App)


def test_json_nested_too_deeply_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as exc:
        expr_from_json(_nested(900, "a"))
    assert exc.value.message == TOO_DEEP
    assert isinstance(expr_from_json(_nested(50, "a")), App)


def test_the_read_bound_covers_the_deepest_composed_logic():
    assert (MAX_NESTING + 1) * MAX_TERM_DEPTH < MAX_READ_DEPTH


@pytest.mark.parametrize("read, spell", [
    (parse_expr, lambda depth: "(p " * depth + "a" + ")" * depth),
    (expr_from_json, lambda depth: _nested(depth, "a"))], ids=["text", "json"])
def test_a_read_answers_the_same_from_a_deep_caller(read, spell):
    def answer(depth):
        try:
            return read(spell(depth))
        except ExprSyntaxError as err:
            return err.message

    at, past = answer(MAX_READ_DEPTH), answer(MAX_READ_DEPTH + 1)
    assert term_depth(at) == MAX_READ_DEPTH
    assert from_deep_caller(lambda: answer(MAX_READ_DEPTH)) == at
    assert past == TOO_DEEP
    assert from_deep_caller(lambda: answer(MAX_READ_DEPTH + 1)) == past


def test_term_walks_at_the_bound_answer_from_a_deep_caller():
    text = deep_text(MAX_READ_DEPTH)
    e, twin = parse_expr(text), parse_expr(text)
    open_e = parse_expr(deep_text(MAX_READ_DEPTH, "?x"))
    kb = load_kb(text="(fn F 1 (resultIsa Thing))\n(argIsa p 1 Thing)\n"
                      "(argIsa F 1 Thing)\n(individual A)\n(isa A Thing)")

    def walks():
        return (print_expr(e), canonical_form(open_e),
                substitute(open_e, {QueryVar("x"): Constant("A")}),
                simplify(e), kb.check_plausibility(e), hash(e), e == twin,
                pickle.loads(pickle.dumps(e)))

    assert walks() == (text, deep_text(MAX_READ_DEPTH, "?v0"), e, e, [],
                       hash(twin), True, e)
    assert from_deep_caller(walks) == walks()


def test_json_strings_read_as_the_atoms_they_spell():
    assert expr_from_json(["p", "#$Foo", "2.5", "+3", {"text": "x y"}]) == \
        parse_expr('(p Foo 2.5 3 "x y")')


# ---------------------------------------------------------------------------
# Hypothesis: the grammar round-trips for arbitrary well-formed trees

_constants = st.sampled_from([Constant(n) for n in
                              ("Alpha", "Beta-Gamma", "Delta'", "E2")])
_qvars = st.sampled_from([QueryVar(n) for n in ("X", "Y", "LONG_NAME")])
_tvars = st.sampled_from([TypedVar("Color", 0), TypedVar("Food-Type", 12)])
_numerals = st.sampled_from([Numeral(Fraction(0)), Numeral(Fraction(7)),
                             Numeral(Fraction(-3)), Numeral(Fraction(1, 3))])
_texts = st.builds(Text, st.text(alphabet="abc \"\\\t\n", max_size=6))
_leaves = st.one_of(_constants, _qvars, _tvars, _numerals, _texts)


def _compound(children):
    apps = st.builds(
        lambda p, args: App(Constant(p), tuple(args)),
        st.sampled_from(["isa", "likes", "equals"]),
        st.lists(children, min_size=1, max_size=3))
    nats = st.builds(
        lambda f, args: Nat(Constant(f), tuple(args)),
        st.sampled_from(["GroupFn", "PairFn"]),
        st.lists(children, min_size=1, max_size=3))
    ands = st.builds(lambda args: And(tuple(args)),
                     st.lists(apps, min_size=1, max_size=3))
    nots = st.builds(Not, apps)
    kappas = st.builds(lambda b: Kappa((QueryVar("V1"), QueryVar("V2")), b), apps)
    sets = st.builds(lambda b: TheSetOf(QueryVar("S"), b), apps)
    # binders over the variables that also occur free
    exists = st.builds(lambda vs, b: Exists(tuple(vs), b),
                       st.lists(_qvars, min_size=1, max_size=2, unique=True),
                       children)
    free_sets = st.builds(TheSetOf, _qvars, apps)
    return st.one_of(apps, nats, ands, nots, kappas, sets, exists, free_sets)


_exprs = st.recursive(_leaves, _compound, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_print_parse_round_trip(e):
    assert parse_expr(print_expr(e)) == e


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_json_round_trip(e):
    assert expr_from_json(expr_to_json(e)) == e


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_canonical_form_ignores_variable_names(e):
    """Renaming the free query variables, or a binder's variable, leaves
    the canonical form as it is."""
    assert canonical_form(rename_query_vars(e, 3)) == canonical_form(e)
    x, fresh = QueryVar("X"), QueryVar("FRESH")
    for bind in (lambda v, b: Exists((v,), b), TheSetOf,
                 lambda v, b: Kappa((QueryVar("V1"), v), b)):
        assert canonical_form(bind(fresh, substitute(e, {x: fresh}))) \
            == canonical_form(bind(x, e))


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_canonical_form_tells_merged_free_variables_apart(e):
    t = And((e, App(Constant("p"), (QueryVar("A"), QueryVar("B")))))
    free = sorted(free_query_vars(t), key=lambda v: v.name)
    for i, a in enumerate(free):
        for b in free[i + 1:]:
            assert canonical_form(substitute(t, {b: a})) != canonical_form(t)


@settings(max_examples=100, deadline=None)
@given(_exprs)
def test_simplify_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_is_ground_is_no_free_variable(e):
    assert logic.is_ground(e) == (not free_vars(e))
    for binder in (Exists((QueryVar("X"),), e), Kappa((QueryVar("X"),), e),
                   TheSetOf(QueryVar("X"), e)):
        assert logic.is_ground(binder) == (not free_vars(binder))


@settings(max_examples=100, deadline=None)
@given(_exprs)
def test_simplify_returns_a_simplified_term_itself(e):
    """Nothing changes, so nothing is rebuilt: a subterm shared before
    simplification is the same object after it."""
    s = simplify(e)
    assert simplify(s) is s
    nested = Nat(Constant("PairFn"), (s, Constant("A")))
    assert simplify(nested) is nested
    # the inner and collapses, so the outer one is rebuilt around them
    p_s = App(Constant("p"), (s,))
    flattened = simplify(And((And((p_s,)), Not(s))))
    assert flattened.args[0] is p_s and flattened.args[1].arg is s


def _shared_parts(e):
    """Every subterm of *e*, by identity."""
    out, stack = {}, [e]
    while stack:
        x = stack.pop()
        out[id(x)] = x
        stack.extend(logic.children(x))
    return out


def _kept_subterms(t, binding):
    """The largest subterms of *t* that ``substitute(t, binding)`` must
    keep: those in which no variable is replaced and no variable of an
    enclosing binder is renamed, as one is when a replacement's free
    variable would otherwise be captured."""
    kept, stack = [], [(t, binding, frozenset())]
    while stack:
        sub, live, renamed = stack.pop()
        free = free_vars(sub)
        if not (free & (live.keys() | renamed)):
            kept.append(sub)
            continue
        if isinstance(sub, (Exists, Kappa, TheSetOf)):
            bound = (sub.var,) if isinstance(sub, TheSetOf) else sub.vars
            live = {k: v for k, v in live.items() if k in free}
            incoming = {v.name for r in live.values() for v in free_query_vars(r)}
            renamed = renamed.difference(bound).union(
                b for b in bound if b.name in incoming)
        stack.extend((part, live, renamed) for part in logic.children(sub))
    return kept


@settings(max_examples=200, deadline=None)
@given(_exprs, st.sampled_from([{QueryVar("X"): Constant("A")},
                                {QueryVar("X"): QueryVar("V1")},
                                {TypedVar("Color", 0): QueryVar("Y")},
                                {QueryVar("LONG_NAME"): QueryVar("X"),
                                 QueryVar("X"): Nat(Constant("F"),
                                                    (QueryVar("Y"),))}]))
def test_substitute_keeps_unchanged_subterms(e, binding):
    """A subterm in which nothing is replaced comes back as the same
    object, also under a binder whose variable a replacement's free
    variable would otherwise capture."""
    x = QueryVar("X")
    for t in (e, Exists((x,), e), Kappa((x,), e), TheSetOf(x, e)):
        s = substitute(t, binding)
        parts = _shared_parts(s)
        for sub in _kept_subterms(t, binding):
            assert parts.get(id(sub)) is sub, print_expr(sub)
        if not (free_vars(t) & binding.keys()):
            assert s is t
    assert substitute(e, {}) is e
