import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BIO_LEX_FILES
from construe.logic import MAX_TERM_DEPTH, Constant, Numeral, print_expr
from construe.tagger import (Lexicon, lint_lexicon, load_lexicon,
                             load_lexicon_lenient, segment, tag, tokenize)
from helpers import reference_segmentations, reference_tokenize


@pytest.fixture(scope="module")
def bio_lex():
    return load_lexicon(BIO_LEX_FILES)


# ---------------------------------------------------------------------------
# Tokenization

def test_tokenize_plain_words():
    assert [t.surface for t in tokenize("big blue building")] == \
        ["big", "blue", "building"]


def test_tokenize_hyphens_are_boundaries():
    assert [t.surface for t in tokenize("G12V-K-Ras")] == \
        ["G12V", "-", "K", "-", "Ras"]


def test_tokenize_season_phrase():
    toks = tokenize("the end of the 2015 season")
    assert [t.surface for t in toks] == ["the", "end", "of", "the", "2015",
                                         "season"]
    assert toks[4].surface.isdigit()


def test_tokenize_tracks_character_spans():
    text = "big  blue"
    toks = tokenize(text)
    assert [(t.start, t.end) for t in toks] == [(0, 3), (5, 9)]
    assert all(text[t.start:t.end] == t.surface for t in toks)


def test_tokenize_punctuation_boundaries():
    assert [t.surface for t in tokenize("wimbledon, the end.")] == \
        ["wimbledon", ",", "the", "end", "."]


# letters, digits, every boundary character, and whitespace that is not
# ASCII space (the information separators, NEL, no-break, line and
# ideographic spaces)
_TEXT_CHARS = (list("aZé9ß_") + list("-()[]{}.,;:!?") +
               [" ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                "\xa0", "\u2028", "\u3000"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_TEXT_CHARS), st.characters()),
                max_size=40).map("".join))
def test_tokenize_equals_the_character_loop(text):
    assert [(t.surface, t.start, t.end) for t in tokenize(text)] == \
        reference_tokenize(text)


# ---------------------------------------------------------------------------
# Segmentation

def test_segment_g12v(bio_lex):
    decompositions = segment("G12V", bio_lex)
    assert ["G", "12", "V"] in decompositions


def test_segment_requires_readings_for_every_piece(bio_lex):
    assert segment("G12X", bio_lex) == []


def test_segment_short_token_none(bio_lex):
    assert segment("G", bio_lex) == []


def _lexicon_of(surfaces):
    lex = Lexicon()
    for surface in surfaces:
        lex.add(surface, [Constant(f"C-{surface}")])
    return lex


_PIECES = ["a", "b", "A", "aa", "ab", "ba", "bb", "aaa", "aab", "bab", "a1",
           "1a", "12"]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(_PIECES), min_size=1),
       st.text(alphabet="abA12", min_size=0, max_size=11))
def test_segment_is_the_first_enumerated_decomposition(surfaces, token):
    lex = _lexicon_of(sorted(surfaces))
    assert segment(token, lex) == reference_segmentations(token, lex)[:1]


def test_segment_bio_tokens_match_the_enumerator(bio_lex):
    for token in ("G12V", "G12D", "V600E", "K12Q", "GV", "G12X", "T790M"):
        assert segment(token, bio_lex) == \
            reference_segmentations(token, bio_lex)[:1]


def test_segment_finds_pieces_whose_folded_length_differs():
    # "Straße" folds to "strasse", and "ﬁsh" to "fish": a piece's length
    # and its key's length differ
    lex = _lexicon_of(["ab", "strasse", "ﬁsh"])
    for token in ("abStraße", "abSTRASSE", "Straßeab", "abfish", "fishﬁsh"):
        assert segment(token, lex) == reference_segmentations(token, lex)[:1]
        assert segment(token, lex) != []


def test_segment_long_ambiguous_token_is_fast():
    # the enumerator finds 35,890 decompositions of 18 a's and triples its
    # work every two characters; the cap is 64
    lex = _lexicon_of(["a", "aa", "aaa"])
    started = time.perf_counter()
    assert segment("a" * 64, lex) == [["aaa"] * 21 + ["a"]]
    assert time.perf_counter() - started < 2.0


def test_lexicon_empty_surface_is_a_finding():
    lex, findings = load_lexicon_lenient(
        text='(lex "" A)\n(lex-nat "" (F A))\n(lex "x" X)')
    assert [f.code for f in findings] == ["lex-form", "lex-form"]
    assert lex.lookup("x") == (Constant("X"),)


def test_lexicon_reading_nesting_is_capped_at_load():
    def entry(depth):
        return '(lex-nat "x" ' + "(F " * depth + "A" + ")" * depth + ")"

    lex, findings = load_lexicon_lenient(text=entry(MAX_TERM_DEPTH))
    assert findings == [] and lex.lookup("x")
    lex, findings = load_lexicon_lenient(text=entry(MAX_TERM_DEPTH + 1))
    assert [(f.code, f.message) for f in findings] == [
        ("lex-form", "<string>: form at line 1, column 1: lex-nat reading "
                     f"nests deeper than {MAX_TERM_DEPTH} levels")]
    assert lex.lookup("x") == ()


def test_known_whole_word_not_decomposed(bio_lex):
    chart = tag("K-Ras", bio_lex)
    assert [t.surface for t in chart.tokens] == ["K-Ras"]


def test_hyphen_join_recovers_lexicon_entry(bio_lex):
    chart = tag("G12V-K-Ras", bio_lex)
    assert [t.surface for t in chart.tokens] == ["G", "12", "V", "-", "K-Ras"]
    joined = chart.tokens[-1]
    assert (joined.start, joined.end) == (5, 10)


def test_subword_tokens_tile_their_parent(bio_lex):
    chart = tag("G12V-K-Ras", bio_lex)
    subs = [t for t in chart.tokens if t.parent is not None]
    assert [t.surface for t in subs] == ["G", "12", "V"]
    parent = subs[0].parent
    assert subs[0].start == parent.start
    assert subs[-1].end == parent.end
    for a, b in zip(subs, subs[1:]):
        assert a.end == b.start


# ---------------------------------------------------------------------------
# Tagging

TABLE_G = {"Glycine", "gibbsFreeEnergyOfSystem", "Gram",
           "GuanineDeoxyribonucleotide", "(AminoAcidResidueTypeFn Glycine)",
           "GeneralRating"}
TABLE_V = {"Volt", "Valine", "V-TheTVMiniSeries",
           "(AminoAcidResidueTypeFn Valine)"}


def test_tag_reproduces_concept_table(bio_lex):
    chart = tag("G12V-K-Ras", bio_lex)
    sets = {chart.tokens[s.start].surface: {print_expr(c) for c in s.concepts}
            for s in chart.spans if s.end - s.start == 1}
    assert sets["G"] == TABLE_G
    assert sets["12"] == {"12"}
    assert sets["V"] == TABLE_V
    assert sets["K-Ras"] == {"K-Ras-Protein"}
    assert [len(sets[k]) for k in ("G", "12", "V", "K-Ras")] == [6, 1, 4, 1]


def test_tag_no_hits_yields_tokens_only(bio_lex):
    chart = tag("nothing known here", bio_lex)
    assert len(chart.tokens) == 3
    assert chart.spans == []


def test_tag_blue_building(demo_lexicon):
    chart = tag("blue building", demo_lexicon)
    assert chart.token_concepts(0) == (Constant("BlueColor"),)
    assert chart.token_concepts(1) == (Constant("Building"),)


def test_tag_multiword_span(demo_lexicon):
    chart = tag("Barack Obama eats a sandwich", demo_lexicon)
    assert chart.concepts_at(0, 2) == (Constant("BarackObama"),)


def test_multiword_entries_match_only_words_apart():
    lex = load_lexicon(text='(lex "G" G) (lex "V" V) (lex "G 12" G12)\n'
                            '(lex "big" Big) (lex "dog" Dog)\n'
                            '(lex "big dog" BigDog) (lex "New York" NYC)')
    # sub-word pieces are not words apart
    for text in ("G12V", "bigdog"):
        chart = tag(text, lex)
        assert all(s.end - s.start == 1 for s in chart.spans), text
    assert [t.surface for t in tag("bigdog", lex).tokens] == ["big", "dog"]
    assert tag("G 12V", lex).concepts_at(0, 2) == (Constant("G12"),)
    assert tag("a big dog", lex).concepts_at(1, 3) == (Constant("BigDog"),)
    for text in ("New York", "new  york", "New\tYork"):
        assert tag(text, lex).concepts_at(0, 2) == (Constant("NYC"),), text


def test_lint_reports_entries_tagging_never_produces(demo_lexicon):
    lex = load_lexicon(text='(lex "U.S." US) (lex "e.g" ForExample)\n'
                            '(lex "big  dog" BigDog) (lex " cat" Cat)\n'
                            '(lex "New York" NYC) (lex "K-Ras" KRas)')
    found = lint_lexicon(lex)
    assert [f.code for f in found] == ["lex-unreachable"] * 4
    assert [f.message.split(" can never")[0] for f in found] == [
        "lexicon entry 'U.S.'", "lexicon entry 'e.g'",
        "lexicon entry 'big  dog'", "lexicon entry ' cat'"]
    assert "tags as 'U . S .'" in found[0].message
    assert lint_lexicon(demo_lexicon) == []
    assert lint_lexicon(load_lexicon(BIO_LEX_FILES)) == []


def test_numerals_tag_with_their_value(demo_lexicon):
    chart = tag("2 sandwiches", demo_lexicon)
    assert Numeral(2) in chart.token_concepts(0)


def test_single_character_entries_are_exact_case(bio_lex):
    chart = tag("g", bio_lex)
    assert chart.spans == []


def test_longer_entries_fold_case(demo_lexicon):
    chart = tag("BLUE Building", demo_lexicon)
    assert chart.token_concepts(0) == (Constant("BlueColor"),)
    assert chart.token_concepts(1) == (Constant("Building"),)


def test_span_concepts_union_of_readings():
    lex = Lexicon()
    lex.add("bank", [Constant("Bank-Topographical")])
    lex.add("bank", [Constant("Bank-FinancialOrganization")])
    chart = tag("bank", lex)
    assert set(chart.token_concepts(0)) == {
        Constant("Bank-Topographical"), Constant("Bank-FinancialOrganization")}


def test_lookup_returns_one_sorted_tuple_fixed_at_load():
    lex, findings = load_lexicon_lenient(text=(
        '(lex "ras" Zeta Alpha)\n(lex "RAS" Mid Alpha)\n'
        '(lex-nat "ras" (F Alpha))\n(lex "Ras" Omega Alpha :exact-case)\n'))
    assert findings == []
    folded = tuple(Constant(n) for n in ("Alpha", "Mid", "Zeta"))
    nat = lex.lookup("ras")[0]
    assert print_expr(nat) == "(F Alpha)"
    # two lex forms (and a lex-nat) for one folded surface
    assert lex.lookup("rAs") == (nat, *folded)
    assert lex.lookup("rAs") is lex.lookup("RAS")
    # a surface with an exact-case entry and a folded one
    assert lex.lookup("Ras") == (nat, Constant("Alpha"), Constant("Mid"),
                                 Constant("Omega"), Constant("Zeta"))
    for surface in ("ras", "Ras"):
        readings = lex.lookup(surface)
        assert type(readings) is tuple
        assert list(readings) == sorted(set(readings), key=print_expr)


def test_a_digit_run_reads_as_its_value_once():
    lex = Lexicon()
    lex.add("5", [Constant("Five"), Numeral(5)])
    assert tag("5", lex).token_concepts(0) == (Numeral(5), Constant("Five"))


def test_tagging_insensitive_to_entry_order(bio_lex):
    text = BIO_LEX_FILES[0].read_text(encoding="utf-8")
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith(";")]
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(lines)
        shuffled = load_lexicon(text="\n".join(lines))
        a = tag("G12V-K-Ras", bio_lex)
        b = tag("G12V-K-Ras", shuffled)
        assert [t.surface for t in a.tokens] == [t.surface for t in b.tokens]
        assert [(s.start, s.end, set(s.concepts)) for s in a.spans] == \
            [(s.start, s.end, set(s.concepts)) for s in b.spans]


def test_tag_deterministic(demo_lexicon):
    a = tag("the song has 6 notes", demo_lexicon)
    b = tag("the song has 6 notes", demo_lexicon)
    assert a.spans == b.spans
    assert [t.surface for t in a.tokens] == [t.surface for t in b.tokens]


def test_concepts_at_equals_a_scan_of_the_spans(demo_lexicon):
    chart = tag("Barack Obama eats a sandwich near the big blue building "
                "and 2 sandwiches", demo_lexicon)
    n = len(chart.tokens)
    assert any(s.end - s.start > 1 for s in chart.spans)
    for start in range(n):
        for end in range(start + 1, n + 1):
            scanned = next((s.concepts for s in chart.spans
                            if (s.start, s.end) == (start, end)), ())
            assert chart.concepts_at(start, end) == scanned


def test_lexicon_findings_name_file_and_form(tmp_path):
    path = tmp_path / "bad.lex"
    path.write_text('(lex "x" X)\n (lex "" A)\n(lex-nat "y" Y)\n'
                    '(lex "a" 3/1)\n(lex "c" (A) C)\n((a) b)\n7\n',
                    encoding="utf-8")
    lex, findings = load_lexicon_lenient([path])
    assert [f.message.split(": ")[:2] for f in findings[:2]] == [
        [str(path), "form at line 2, column 2"],
        [str(path), "form at line 3, column 1"]]
    assert [f.message for f in findings[2:]] == [
        f"{path}: form at line 4, column 1: bad reading 3 for \"a\"",
        f"{path}: form at line 5, column 1: bad reading (A) for \"c\"",
        f"{path}: form at line 6, column 1: unknown form ((a) ...)",
        f"{path}: stray atom 7"]
    assert {f.code for f in findings} == {"lex-form"}
    assert lex.lookup("c") == (Constant("C"),)


def test_lexicon_reading_with_constant_prefix_is_the_constant():
    lex, findings = load_lexicon_lenient(
        text='(lex "x" #$Foo Bar)\n(lex "y" #$)')
    assert set(lex.lookup("x")) == {Constant("Foo"), Constant("Bar")}
    assert [(f.code, f.message) for f in findings] == [
        ("lex-syntax", "<string>: form at line 2, column 1: empty constant "
                       "after #$ (line 2, column 10)")]
