"""Property tests over the three lenient loaders: forms built from each
loader's heads and keywords, with symbols, integers, ratios, strings and
short lists in every field, load without raising, and every name they
keep was a symbol in the input (less a ``#$`` prefix for a KB name, or the
default language, en)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from construe import sexpr
from construe.constructions import load_constructions_lenient
from construe.kb import load_kb_lenient
from construe.tagger import load_lexicon_lenient

_symbols = st.one_of(
    st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True),
    st.sampled_from(["?x", "$Thing#1", "$Thing#2", "slot", "and", "#$C",
                     "#$p"]))
_atoms = st.one_of(
    _symbols,
    st.integers(-2, 4).map(str),
    st.sampled_from(["1/2", "3/2", "0.5"]),
    st.text(alphabet="ab $#1[]|{}", max_size=8).map(lambda t: f'"{t}"'))
_values = st.recursive(
    _atoms, lambda inner: st.lists(inner, max_size=3).map(
        lambda items: "(" + " ".join(items) + ")"),
    max_leaves=6)


def _field(*typical):
    """A field that often has a shape its head expects (a name field's
    shapes include a few that are not symbols), and is anything at all
    otherwise."""
    return st.one_of(st.sampled_from(typical), _values)


_KB_FIELDS = {
    "isa": [_field("a", "(F a)"), _field("C")],
    "genls": [_field("a"), _field("C", "D")],
    "fact": [_field("base", "(c)"), _field("(p a)", "(p a C)")],
    "fn": [_field("F", "3"), _field("1", "2"),
           _field("(resultIsa C)", "(resultGenls C)", "(resultGenlsArg 1)",
                  "(resultIsa 3)", '("resultIsa" C)', "(resultGenls (C))")],
    "argIsa": [_field("p"), _field("1"), _field("C", '"C"')],
    "argGenls": [_field("p"), _field("2"), _field("C")],
    "interArgGenls": [_field("p", "(p)"), _field("1"), _field("C", "(a b)"),
                      _field("2"), _field("D", '"D"')],
    "disjoint": [_field("C"), _field("D")],
    "individual": [_field("a", "3")],
    "collection": [_field("C", "(C)")],
}
_LEX_FIELDS = {
    "lex": [_field('"a"', '"bb"'), _field("A", "3"),
            _field("B", ":exact-case")],
    "lex-nat": [_field('"a"'), _field("(F a)", "(F (G a))")],
}
_CONS_VALUES = {
    ":id": _field("c", "d", "(a b)", '"c"'),
    ":lang": _field("en", "fr", "(en)", "3"),
    ":nl": _field('"$Thing#1 a"', '"a"', '"[a|b] $Thing#2"'),
    ":logic": _field("(p $Thing#1)", "(p)", "(F $Thing#1)"),
    ":anaphoric": _field("($Thing#2)"),
    ":output-var": _field("?x"),
    ":output-type": _field("C", "(slot 1)"),
    ":test+": _field("(q $Thing#1)"),
    ":test-": _field("(r $Thing#1)"),
}


def _form(head_fields):
    head, fields = head_fields
    return st.tuples(*fields).map(lambda f: f"({head} {' '.join(f)})")


def _forms(table):
    heads = st.sampled_from(sorted(table)).map(lambda h: (h, table[h]))
    stray = st.one_of(_values, st.tuples(_symbols, _values).map(
        lambda hv: f"({hv[0]} {hv[1]})"))
    return st.lists(st.one_of(heads.flatmap(_form), stray),
                    min_size=1, max_size=4).map("\n".join)


def _pair(key):
    return _CONS_VALUES[key].map(lambda v: f"{key} {v}")


# the keys a construction needs, and a few more, in any order
_constructions = st.lists(
    st.tuples(*map(_pair, (":id", ":lang", ":nl", ":logic")),
              st.lists(st.sampled_from(sorted(_CONS_VALUES)).flatmap(_pair),
                       max_size=3))
    .flatmap(lambda t: st.permutations([*t[:4], *t[4]]))
    .map(lambda ps: "(construction " + " ".join(ps) + ")"),
    min_size=1, max_size=2).map("\n".join)


def _symbol_texts(text):
    """The text of every symbol in *text*."""
    out, stack = set(), sexpr.parse_all(text)
    while stack:
        node = stack.pop()
        if isinstance(node, sexpr.Symbol):
            out.add(str(node))
        elif isinstance(node, list):
            stack.extend(node)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_forms(_KB_FIELDS), _forms(_LEX_FIELDS), _constructions)
def test_lenient_loaders_keep_only_names_that_were_symbols(kb_text, lex_text,
                                                           cons_text):
    kb, _ = load_kb_lenient(text=kb_text)
    # a KB name is a symbol, read as a term reads it: #$C is C
    assert kb.term_names <= {s[2:] if s.startswith("#$") else s
                             for s in _symbol_texts(kb_text)}
    load_lexicon_lenient(text=lex_text)
    repo, _ = load_constructions_lenient(text=cons_text)
    symbols = _symbol_texts(cons_text)
    for c in repo.constructions.values():
        assert c.id in symbols
        assert {t.language for t in c.nl_templates} <= symbols | {"en"}
