import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RESOURCE_DIR
from construe.logic import MAX_READ_DEPTH, from_sexpr
from construe.sexpr import (Finding, LoadError, SexprError, SexprList, Symbol,
                            load_forms, parse_all, parse_one, to_text)
from helpers import reference_parse_all


def test_atoms_and_nesting():
    form = parse_one("(fact base (p A 12 \"hi\"))")
    assert isinstance(form, SexprList)
    assert form[0] == "fact"
    inner = form[2]
    assert inner[1] == Symbol("A")
    assert inner[2] == Fraction(12)
    assert inner[3] == "hi"
    assert not isinstance(inner[3], Symbol)


def test_comments_ignored():
    forms = parse_all("; header\n(a b) ; trailing\n(c)")
    assert len(forms) == 2


def test_negation_sign_wraps_next_form():
    form = parse_one("¬(genls A B)")
    assert form[0] == "not"
    assert form[1][0] == "genls"


def test_rationals_and_decimals():
    assert parse_all("3/4 2.5 -7") == [Fraction(3, 4), Fraction(5, 2),
                                       Fraction(-7)]


def test_string_escapes():
    assert parse_one('"a\\"b\\\\c"') == 'a"b\\c'


def test_unbalanced_reports_position():
    with pytest.raises(SexprError) as exc:
        parse_one("(a (b c)")
    assert exc.value.line == 1


def test_unterminated_string():
    with pytest.raises(SexprError):
        parse_one('"abc')


def test_parse_one_rejects_extra_forms():
    with pytest.raises(SexprError):
        parse_one("(a) (b)")


# ---------------------------------------------------------------------------
# The one-pass reader against the reader it replaced

_ATOM_CHARS = string.ascii_letters + string.digits + "$#?:-+._*'<>=!&%@~^|[]{},é٣"
_atoms = st.text(_ATOM_CHARS, min_size=1, max_size=8)
_numbers = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    st.tuples(st.integers(-999, 999), st.integers(1, 999)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(-99, 99), st.integers(0, 999)).map(
        lambda t: f"{t[0]}.{t[1]}"),
)
_strings = st.text(st.characters(blacklist_characters='"\\\n'),
                   max_size=8).map(lambda s: f'"{s}"')
_comments = st.text(st.characters(blacklist_characters="\n"),
                    max_size=10).map(lambda s: f";{s}\n")
_separators = st.sampled_from(["", " ", "\t", "\n", " \n\t", "\r\n"])
_leaves = st.one_of(_atoms, _numbers, _strings)


@st.composite
def _joined(draw, pieces, max_size=30):
    out = []
    for piece in draw(st.lists(pieces, max_size=max_size)):
        out += [piece, draw(_separators)]
    return "".join(out)


def _form(children):
    return st.one_of(
        _joined(st.one_of(children, _comments), max_size=6).map(
            lambda body: f"({body})"),
        children.map(lambda child: "¬" + child))


_forms = st.recursive(_leaves, _form, max_leaves=40)
# anything goes, except that a string without its end quote only comes last
_malformed = st.tuples(
    _joined(st.one_of(_leaves, _comments, st.sampled_from(["(", ")", "¬"]))),
    st.one_of(st.just(""), st.sampled_from(['"', '"open', '"x (']))).map("".join)


def _shape(node):
    if isinstance(node, SexprList):
        return (SexprList, node.line, node.col, [_shape(x) for x in node])
    if isinstance(node, Symbol):
        return (Symbol, str(node), node.line, node.col)
    return (type(node), node)


def _outcome(reader, text):
    try:
        forms = reader(text)
    except SexprError as err:
        return ("error", err.message, err.line, err.col)
    assert type(forms) is list
    return [_shape(form) for form in forms]


@settings(max_examples=400, deadline=None)
@given(_joined(st.one_of(_forms, _comments)))
def test_well_formed_text_reads_as_the_reference_reader_does(text):
    expected = _outcome(reference_parse_all, text)
    assert isinstance(expected, list)
    assert _outcome(parse_all, text) == expected


@settings(max_examples=400, deadline=None)
@given(_malformed)
def test_any_text_reads_or_fails_as_the_reference_reader_does(text):
    assert _outcome(parse_all, text) == _outcome(reference_parse_all, text)


@pytest.mark.parametrize("path", sorted(p.name for p in RESOURCE_DIR.iterdir()
                                        if p.suffix in (".kb", ".lex", ".cg")))
def test_bundled_resources_read_as_the_reference_reader_does(path):
    text = (RESOURCE_DIR / path).read_text(encoding="utf-8")
    assert _outcome(parse_all, text) == _outcome(reference_parse_all, text)


@pytest.mark.parametrize("text, message, line, col", [
    ("(a", "unbalanced parenthesis", 1, 1),
    ("(a\n  (b", "unbalanced parenthesis", 2, 3),
    ("(a ¬", "dangling negation sign", 1, 4),
    ("¬(a", "unbalanced parenthesis", 1, 2),
    ("(¬)", "unexpected ')'", 1, 3),
    ("a\n )", "unexpected ')'", 2, 2),
    (') "ab\n(c', "unterminated string", 1, 3),
    ("(a 1/0)", "zero denominator in 1/0", 1, 4),
    ('1/0 "ab', "unterminated string", 1, 5),
], ids=["open", "inner-open", "negation-at-end", "negated-open",
        "negation-then-close", "close-at-top", "close-then-string",
        "zero-denominator", "zero-denominator-then-string"])
def test_error_kinds_and_positions(text, message, line, col):
    with pytest.raises(SexprError) as exc:
        parse_all(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        (message, line, col)


def test_columns_stay_exact_after_escapes_and_line_breaks_in_strings():
    escaped, x = parse_all('"a\\"b\\nc" x')
    assert escaped == 'a"b\nc' and (x.line, x.col) == (1, 11)
    multiline, y = parse_all('(p "a\nbc" y)')[0][1:]
    assert multiline == "a\nbc" and (y.line, y.col) == (2, 5)


def test_negation_sign_positions():
    form = parse_one("(a\n  ¬¬b)")
    outer = form[1]
    assert [outer[0], outer[1][0], outer[1][1]] == ["not", "not", "b"]
    assert (outer.line, outer.col, outer[1].line, outer[1].col) == (2, 3, 2, 4)
    assert (outer[0].line, outer[0].col) == (2, 3)


def test_deep_nesting_reads_without_recursion():
    depth = 100_000
    form = parse_one("(" * depth + "x" + ")" * depth)
    for _ in range(depth - 1):
        form = form[0]
    assert form == ["x"]
    negated = parse_one("¬" * depth + "y")
    for _ in range(depth):
        assert negated[0] == "not"
        negated = negated[1]
    assert negated == "y"


def _value(node):
    """*node* without its positions: what ``to_text`` must keep."""
    if isinstance(node, list):
        return [_value(x) for x in node]
    return (type(node), node)


@settings(max_examples=400, deadline=None)
@given(_forms)
def test_printed_form_reads_back_as_the_same_form(text):
    form = parse_one(text)
    printed = to_text(form)
    assert "\n" not in printed
    assert _value(parse_one(printed)) == _value(form)


@pytest.mark.parametrize("text, printed", [
    ("((a) b)", "((a) b)"), ("( x  ¬y 3/1 1.5 -2 )", "(x (not y) 3 3/2 -2)"),
    ('"a\\"b\\nc\\td"', '"a\\"b\\nc\\td"'), ("()", "()"), ("(() ())", "(() ())")])
def test_printed_form_text(text, printed):
    assert to_text(parse_one(text)) == printed


def test_deep_form_prints_without_recursion():
    depth = 100_000
    assert to_text(parse_one("(" * depth + ")" * depth)) == \
        "(" * depth + ")" * depth


def _converting(form, findings):
    """A load_forms handler that converts each form to logic and records
    its head."""
    findings.append(Finding("ok", str(from_sexpr(form).predicate.name)))


def test_load_forms_reports_each_bad_form_and_goes_on(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("(p A)\n  (q $x)\n(r " + "(F " * 3000 + "A" + ")" * 3000
                    + ")\n(s B)\n", encoding="utf-8")
    broken = tmp_path / "broken.txt"
    broken.write_text("(t A)\n(u", encoding="utf-8")
    findings = load_forms([broken, good], "(v A)", "x", _converting)
    assert [(f.code, f.message) for f in findings] == [
        ("ok", "<string>: form at line 1, column 1: v"),
        ("x-syntax", f"{broken}: unbalanced parenthesis (line 2, column 1)"),
        ("ok", f"{good}: form at line 1, column 1: p"),
        ("x-syntax", f"{good}: form at line 2, column 3: unknown sigil in "
                     "'$x' (typed variables are written $Type#k) "
                     "(line 2, column 6)"),
        ("x-syntax", f"{good}: form at line 3, column 1: term nests deeper "
                     f"than {MAX_READ_DEPTH} levels (line 3, column "
                     f"{1 + 3 * MAX_READ_DEPTH})"),
        ("ok", f"{good}: form at line 4, column 1: s"),
    ]


def test_load_forms_names_an_unreadable_file_before_loading(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("(p A)\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("(p caf\u00e9)\n".encode("latin-1"))
    loaded = []
    for bad in (latin1, tmp_path / "missing.txt"):
        with pytest.raises(LoadError) as exc:
            load_forms([good, bad], None, "x",
                       lambda form, findings: loaded.append(form))
        [finding] = exc.value.findings
        assert finding.code == "x-read" and str(bad) in finding.message
        assert str(exc.value).startswith(f"x-read: cannot read {bad}: ")
    assert loaded == []
