"""The record classes are immutable slotted values with frozen-dataclass
semantics: dataclass ``repr`` text (load messages print it), equality and
hashing by class and field tuple, no assignment, and a pickle round trip
(the CLI cache pickles them)."""

import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import construe
from construe import cli
from construe.constructions import (Alternation, Construction, Literal,
                                    NlTemplate, TemplateVariant)
from construe.interpreter import (Edge, EngineConfig, Interpretation,
                                  Retrieval, TraceEvent)
from construe.kb import (ArgConstraint, ContextStack, FunctionSignature,
                         InterArgConstraint, Violation)
from construe.logic import (And, App, Constant, Exists, Expr, Kappa, Nat, Not,
                            Numeral, QueryVar, Text, TheSetOf, TypedVar)
from construe.sexpr import Finding
from construe.tagger import TagChart, TagSpan, Token
from construe.value import FrozenInstanceError, Value

X, Y = QueryVar("X"), QueryVar("Y")
DOG, CAR = Constant("Dog"), Constant("Car")
SLOT = TypedVar("Color", 0)
LIT = Literal("Big", "big")
TEMPLATE = NlTemplate("en", (LIT, SLOT))
TOKEN = Token("G12V", 0, 4)
P_X, P_Y = App(Constant("p"), (X,)), App(Constant("p"), (Y,))

# (class, constructor arguments, arguments of an unequal value, the repr
# text of the first, as a frozen dataclass prints it)
CASES = [
    (Expr, (), None, "Expr()"),
    (Constant, ("Dog",), ("Cat",), "Constant(name='Dog')"),
    (Numeral, (Fraction(3, 2),), (Fraction(3),),
     "Numeral(value=Fraction(3, 2))"),
    (Text, ('say "hi"',), ("bye",), """Text(value='say "hi"')"""),
    (TypedVar, ("Color", 0), ("Color", 1), "TypedVar(type='Color', index=0)"),
    (QueryVar, ("X",), ("Y",), "QueryVar(name='X')"),
    (Nat, (Constant("FruitFn"), (DOG,)), (Constant("FruitFn"), (CAR,)),
     "Nat(functor=Constant(name='FruitFn'), args=(Constant(name='Dog'),))"),
    (App, (Constant("isa"), (X, DOG)), (Constant("isa"), (Y, DOG)),
     "App(predicate=Constant(name='isa'), args=(QueryVar(name='X'), "
     "Constant(name='Dog')))"),
    (And, ((P_X, App(Constant("q"), (X,))),), ((P_X,),),
     "And(args=(App(predicate=Constant(name='p'), args=(QueryVar(name='X'),"
     ")), App(predicate=Constant(name='q'), args=(QueryVar(name='X'),))))"),
    (Not, (P_X,), (P_Y,),
     "Not(arg=App(predicate=Constant(name='p'), args=(QueryVar(name='X'),)))"),
    (Kappa, ((X,), P_X), ((Y,), P_Y),
     "Kappa(vars=(QueryVar(name='X'),), body=App(predicate=Constant("
     "name='p'), args=(QueryVar(name='X'),)))"),
    (TheSetOf, (X, P_X), (Y, P_Y),
     "TheSetOf(var=QueryVar(name='X'), body=App(predicate=Constant("
     "name='p'), args=(QueryVar(name='X'),)))"),
    (Exists, ((X,), P_X), ((Y,), P_Y),
     "Exists(vars=(QueryVar(name='X'),), body=App(predicate=Constant("
     "name='p'), args=(QueryVar(name='X'),)))"),
    (Finding, ("kb-form", "bad form"), ("kb-form", "other"),
     "Finding(code='kb-form', message='bad form')"),
    (FunctionSignature, ("FruitFn", 1, "resultIsa", "Fruit"),
     ("FruitFn", 2, "resultIsa", "Fruit"),
     "FunctionSignature(functor='FruitFn', arity=1, rule_kind='resultIsa', "
     "rule_value='Fruit')"),
    (ArgConstraint, ("eats", 1, "argIsa", Constant("Animal")),
     ("eats", 2, "argIsa", Constant("Animal")),
     "ArgConstraint(owner='eats', position=1, kind='argIsa', "
     "required=Constant(name='Animal'))"),
    (InterArgConstraint, ("p", 1, DOG, 2, CAR), ("p", 2, DOG, 1, CAR),
     "InterArgConstraint(owner='p', if_position=1, if_type=Constant("
     "name='Dog'), then_position=2, then_type=Constant(name='Car'))"),
    (ContextStack, ("base", "garage-app"), ("base", None),
     "ContextStack(base='base', overlay='garage-app')"),
    (Violation, ("structural", (0, 1), "not a term"),
     ("structural", (0,), "not a term"),
     "Violation(kind='structural', path=(0, 1), message='not a term')"),
    (EngineConfig, (12, "en", "statement", 50000, ContextStack()),
     (3, "en", "question", 10, ContextStack()),
     "EngineConfig(max_window=12, language='en', outermost_policy="
     "'statement', max_edges=50000, context=ContextStack(base='base', "
     "overlay=None))"),
    (Edge, (3, 0, 2, "c", Nat(Constant("F"), (DOG,)), None, DOG,
            "collection", ((0, 1), (1, 2)), 1),
     (4, 0, 2, "c", DOG, None, DOG, "collection", (), 0),
     "Edge(id=3, start=0, end=2, source='c', logic=Nat(functor=Constant("
     "name='F'), args=(Constant(name='Dog'),)), output_var=None, "
     "output_type=Constant(name='Dog'), kind='collection', "
     "children=((0, 1), (1, 2)), nesting=1)"),
    (TraceEvent, ("plausibility", "c", (0, 2), "why"),
     ("composition", "c", (0, 2), "why"),
     "TraceEvent(kind='plausibility', construction='c', span=(0, 2), "
     "detail='why')"),
    (Retrieval, ("c", {SLOT: 1}), ("c", {SLOT: 2}),
     "Retrieval(construction='c', binding={TypedVar(type='Color', "
     "index=0): 1})"),
    (Interpretation, (0, 0, 2, DOG, DOG, "c", "big dog"),
     (1, 0, 2, DOG, DOG, "c", "big dog"),
     "Interpretation(edge_id=0, start=0, end=2, logic=Constant(name='Dog'), "
     "output_type=Constant(name='Dog'), source='c', text='big dog')"),
    (Literal, ("Big", "big"), ("big", "big"),
     "Literal(text='Big', folded='big')"),
    (Alternation, (((LIT,), ()),), (((LIT,),),),
     "Alternation(alternatives=((Literal(text='Big', folded='big'),), ()))"),
    (NlTemplate, ("en", (LIT, SLOT)), ("de", (LIT, SLOT)),
     "NlTemplate(language='en', elements=(Literal(text='Big', folded='big'), "
     "TypedVar(type='Color', index=0)))"),
    (TemplateVariant, ("c", "en", (LIT, SLOT)), ("c", "en", (SLOT,)),
     "TemplateVariant(construction_id='c', language='en', elements=("
     "Literal(text='Big', folded='big'), TypedVar(type='Color', index=0)))"),
    (Construction, ("c", (TEMPLATE,), App(Constant("p"), (SLOT,)), (), None,
                    ("slot", 0), (), ()),
     ("d", (TEMPLATE,), App(Constant("p"), (SLOT,)), (), None, None, (), ()),
     "Construction(id='c', nl_templates=(NlTemplate(language='en', "
     "elements=(Literal(text='Big', folded='big'), TypedVar(type='Color', "
     "index=0))),), logic_template=App(predicate=Constant(name='p'), "
     "args=(TypedVar(type='Color', index=0),)), anaphoric_refs=(), "
     "output_var=None, output_type=('slot', 0), tests_positive=(), "
     "tests_negative=())"),
    (Token, ("G12", 0, 3, TOKEN), ("G12", 0, 3), "Token('G12', 0, 3)"),
    (TagSpan, (0, 1, (DOG,)), (0, 2, (DOG,)),
     "TagSpan(start=0, end=1, concepts=(Constant(name='Dog'),))"),
    (TagChart, ("G12V", [TOKEN], [TagSpan(0, 1, (DOG,))]),
     ("G12V", [TOKEN], []),
     "TagChart(text='G12V', tokens=[Token('G12V', 0, 4)], spans=[TagSpan("
     "start=0, end=1, concepts=(Constant(name='Dog'),))])"),
    (cli.RunManifest, (["a.kb"], ["a.lex"], ["a.cg"], EngineConfig()),
     (["b.kb"], ["a.lex"], ["a.cg"], EngineConfig()),
     "RunManifest(kb_files=['a.kb'], lexicon_files=['a.lex'], "
     "construction_files=['a.cg'], config=EngineConfig(max_window=12, "
     "language='en', outermost_policy='statement', max_edges=50000, "
     "context=ContextStack(base='base', overlay=None)))"),
    (cli.Resources, ("kb", "lexicon", "repo"), ("kb", "lexicon", "other"),
     "Resources(kb='kb', lexicon='lexicon', repo='repo')"),
    (cli.EvalRecord, ("c1", "big dog", [], 2, ""),
     ("c1", "big dog", [], 2, "edge limit"),
     "EvalRecord(caption_id='c1', text='big dog', interpretations=[], "
     "token_count=2, truncated_by='')"),
]
IDS = [case[0].__name__ for case in CASES]


# The constructor parameters of each class, in order, all positional or
# keyword: a name alone has no default, a (name, default) pair has one.
SIGNATURES = {
    Expr: (),
    Constant: ("name",),
    Numeral: ("value",),
    Text: ("value",),
    TypedVar: ("type", "index"),
    QueryVar: ("name",),
    Nat: ("functor", "args"),
    App: ("predicate", "args"),
    And: ("args",),
    Not: ("arg",),
    Kappa: ("vars", "body"),
    TheSetOf: ("var", "body"),
    Exists: ("vars", "body"),
    Finding: ("code", "message"),
    FunctionSignature: ("functor", "arity", "rule_kind", "rule_value"),
    ArgConstraint: ("owner", "position", "kind", "required"),
    InterArgConstraint: ("owner", "if_position", "if_type", "then_position",
                         "then_type"),
    ContextStack: (("base", "base"), ("overlay", None)),
    Violation: ("kind", "path", "message"),
    EngineConfig: (("max_window", 12), ("language", "en"),
                   ("outermost_policy", "statement"), ("max_edges", 50000),
                   ("context", ContextStack())),
    Edge: ("id", "start", "end", "source", "logic", "output_var",
           "output_type", "kind", ("children", ()), ("nesting", 0)),
    TraceEvent: ("kind", "construction", "span", "detail"),
    Retrieval: ("construction", "binding"),
    Interpretation: ("edge_id", "start", "end", "logic", "output_type",
                     "source", "text"),
    Literal: ("text", "folded"),
    Alternation: ("alternatives",),
    NlTemplate: ("language", "elements"),
    TemplateVariant: ("construction_id", "language", "elements"),
    Construction: ("id", "nl_templates", "logic_template",
                   ("anaphoric_refs", ()), ("output_var", None),
                   ("output_type", None), ("tests_positive", ()),
                   ("tests_negative", ())),
    Token: ("surface", "start", "end", ("parent", None)),
    TagSpan: ("start", "end", "concepts"),
    TagChart: ("text", "tokens", "spans"),
    cli.RunManifest: ("kb_files", "lexicon_files", "construction_files",
                      ("config", EngineConfig())),
    cli.Resources: ("kb", "lexicon", "repo"),
    cli.EvalRecord: ("caption_id", "text", "interpretations", "token_count",
                     ("truncated_by", "")),
}


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value)._fields)


def test_every_record_class_is_covered():
    """Each class of the package with fields has a case here."""
    modules = [construe.logic, construe.sexpr, construe.kb,
               construe.interpreter, construe.constructions, construe.tagger,
               cli]
    values = {cls for m in modules for cls in vars(m).values()
              if isinstance(cls, type) and issubclass(cls, construe.value.Value)
              and cls.__module__ == m.__name__}
    assert values == {case[0] for case in CASES}
    assert len(values) == 35


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, args, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls, args, other, text):
    value, same = cls(*args), cls(*args)
    assert value == same and not value != same
    assert fields(value) == args
    if other is not None:
        assert value != cls(*other) and not value == cls(*other)
    try:
        hash(args)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same) == hash(args)


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_constructor_signature(cls, args, other, text):
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    expected = [(p, inspect.Parameter.empty) if isinstance(p, str) else p
                for p in SIGNATURES[cls]]
    assert [(p.name, p.default) for p in params] == expected
    assert [name for name, _ in expected] == list(cls._fields)


def test_fields_may_be_given_by_keyword():
    assert ContextStack(overlay="x") == ContextStack("base", "x")
    sub = Token("a", 0, 1, parent=TOKEN)
    assert sub.parent is TOKEN and Token("a", 0, 1).parent is None
    edge = Edge(id=3, start=0, end=2, source="c", logic=DOG, output_var=None,
                output_type=DOG, kind="collection", children=((0, 1),),
                nesting=1)
    assert edge == Edge(3, 0, 2, "c", DOG, None, DOG, "collection",
                        ((0, 1),), 1)
    assert Edge(3, 0, 2, "c", DOG, None, DOG, "collection").children == ()
    assert cli.EvalRecord("c1", "t", [], 2).truncated_by == ""
    with pytest.raises(TypeError):
        Constant("Dog", name="Cat")
    with pytest.raises(TypeError):
        TagSpan(0, 1)


def test_atoms_of_different_kinds_are_unequal():
    atoms = [Constant("x"), Text("x"), QueryVar("x"), Numeral(Fraction(1)),
             TypedVar("x", 1)]
    for a in atoms:
        assert [b == a for b in atoms] == [b is a for b in atoms]
    assert Constant("x") != "x" and Numeral(Fraction(1)) != Fraction(1)
    assert len(set(atoms)) == len(atoms)


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, other, text):
    value = cls(*args)
    for name in cls._fields or ("anything",):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert fields(value) == args
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
def test_pickle_round_trip(cls, args, other, text):
    value = cls(*args)
    copy = pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls and copy == value and repr(copy) == text
    # derived slots come back as they were, without being derived again
    for name in cls.__slots__:
        assert getattr(copy, name) == getattr(value, name)


def test_derived_values_are_made_with_the_value():
    c = Construction("c", (TEMPLATE,), App(Constant("p"), (SLOT,)))
    [variant] = c.variants
    assert variant.slots == (SLOT,) and c.logic_slots == {SLOT}
    chart = TagChart("G12V", [TOKEN], [TagSpan(0, 1, (DOG,)),
                                       TagSpan(0, 1, (CAR,))])
    assert chart.by_span == {(0, 1): (DOG,)}


class Interval(Value):
    """A value whose ``_derive`` checks its fields and derives a slot."""

    _fields = ("start", "end")
    __slots__ = _fields + ("length",)
    _defaults = {"end": 0}

    def _derive(self) -> tuple:
        if self.end < self.start:
            raise ValueError("end before start")
        return (self.end - self.start,)


def test_derive_checks_the_fields_and_fills_the_derived_slots():
    assert Interval(1, 4) == Interval(start=1, end=4) == Interval(1, end=4)
    assert Interval(1, 4).length == 3 and Interval(-2).length == 2
    assert repr(Interval(1, 4)) == "Interval(start=1, end=4)"
    with pytest.raises(ValueError, match="end before start"):
        Interval(4, 1)


def test_a_pickle_restores_derived_slots_without_deriving(monkeypatch):
    data = pickle.dumps(Interval(1, 4), pickle.HIGHEST_PROTOCOL)

    def no_derive(self):
        raise AssertionError("_derive called")

    monkeypatch.setattr(Interval, "_derive", no_derive)
    copy = pickle.loads(data)
    assert type(copy) is Interval
    assert (copy.start, copy.end, copy.length) == (1, 4, 3)
    with pytest.raises(AssertionError, match="_derive called"):
        Interval(1, 4)


@pytest.mark.parametrize("method", ["__init__", "__eq__", "__hash__"])
def test_a_value_class_may_not_write_a_compiled_method(method):
    with pytest.raises(TypeError, match=method):
        type("Point", (Value,), {"__slots__": ("x",), "_fields": ("x",),
                                 method: lambda self, *args: None})


def test_importing_the_cli_loads_no_dataclasses():
    src = Path(construe.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, construe.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
