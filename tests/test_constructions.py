import random

import pytest

from conftest import DEMO_CG_FILES
from helpers import random_instance
from construe.constructions import (SKELETON_SLOT, Repository, TypedSlot,
                                    derive_keys, expand_variants,
                                    load_constructions,
                                    load_constructions_lenient,
                                    lint_constructions, parse_construction,
                                    typed_key)
from construe.kb import load_kb
from construe.logic import MAX_TERM_DEPTH, Names, free_vars
from construe.sexpr import LoadError


COLOR_THING = """
(construction :id color-of-thing :lang en
  :nl "$Color#0 $PartiallyTangible#1"
  :logic (SubcollectionOfWithRelationToFn $PartiallyTangible#1
                                          mainColorOfObject $Color#0)
  :output-type (slot 1))
"""

SEASON_END = """
(construction :id season-end :lang en
  :nl "[the{}] end of the $Integer#0 season"
  :logic (EndFn (AnnualEventOfYearFn (SeasonOfSportEventTypeFn $SportsEvent#1)
                                     (YearFn $Integer#0)))
  :anaphoric ($SportsEvent#1)
  :output-type TimePoint)
"""

DATED_EVENT = """
(construction :id dated-event :lang en
  :nl "the [last|most recent|latest] $Event#0 was in [$Date#1 in $Place#2|in $Place#2 in $Date#1]"
  :logic (and (isa ?E $Event#0) (eventOccursAt ?E $Place#2)
              (dateOfEvent ?E $Date#1))
  :output-var ?E
  :output-type (slot 0))
"""

RESIDUE = """
(construction :id residue-substitution :lang en
  :nl "$AminoAcid#0$PositiveInteger#1$AminoAcid#2-$PolypeptideMolecule#3"
  :logic (PolypeptideTypeWithResidueAtPositionReplacedByResidueTypeFn
           $PolypeptideMolecule#3 $AminoAcid#0 $PositiveInteger#1 $AminoAcid#2)
  :output-type (slot 3))
"""


# ---------------------------------------------------------------------------
# Parsing

def test_parse_color_of_thing():
    c = parse_construction(COLOR_THING)
    assert c.id == "color-of-thing"
    assert c.output_type == ("slot", 1)
    variants = expand_variants(c)
    assert len(variants) == 1
    assert variants[0].elements == (TypedSlot("Color", 0),
                                    TypedSlot("PartiallyTangible", 1))


def test_two_logic_templates_is_load_error():
    text = COLOR_THING.replace(":output-type (slot 1)",
                               ":logic (p a)\n  :output-type (slot 1)")
    with pytest.raises(LoadError) as exc:
        parse_construction(text)
    assert any(f.code == "cons-two-logic" for f in exc.value.findings)


def test_missing_logic_template_is_load_error():
    with pytest.raises(LoadError) as exc:
        parse_construction('(construction :id x :lang en :nl "hello" '
                           ':output-type Thing)')
    assert any(f.code == "cons-no-logic" for f in exc.value.findings)


def test_anaphoric_slot_loads():
    c = parse_construction(SEASON_END)
    assert c.anaphoric_refs == (TypedSlot("SportsEvent", 1),)
    assert TypedSlot("Integer", 0) in c.nl_slots()


def test_duplicate_unifying_integer_is_error():
    with pytest.raises(LoadError) as exc:
        parse_construction('(construction :id x :lang en '
                           ':nl "$Color#0 $Food#0" :logic (p $Color#0) '
                           ':output-type Thing)')
    assert any(f.code == "cons-slot-index" for f in exc.value.findings)


def test_clashing_unifying_integers_are_reported_in_slot_order():
    # not in set order, which changes with the hash seed
    with pytest.raises(LoadError) as exc:
        parse_construction('(construction :id x :nl "$F#0 $D#0 $B#0 $E#0 $C#0" '
                           ':logic (p $A#0))')
    assert [f.message.rpartition(": ")[2] for f in exc.value.findings
            if f.code == "cons-slot-index"] == [
        f"unifying integer 0 names both $A#0 and ${t}#0" for t in "BCDEF"]


def test_template_slots_are_the_logic_template_variables():
    repo = load_constructions(text=SEASON_END, names=Names())
    c = repo.constructions["season-end"]
    logic_vars = {v: v for v in free_vars(c.logic_template)}
    slots = [s for v in c.variants for s in v.slots] + list(c.anaphoric_refs)
    assert len(slots) == 3 and all(s is logic_vars[s] for s in slots)


def test_logic_slot_missing_from_templates_is_error():
    with pytest.raises(LoadError) as exc:
        parse_construction('(construction :id x :lang en :nl "$Color#0" '
                           ':logic (p $Color#0 $Food#1) :output-type Thing)')
    assert any(f.code == "cons-unbound-slot" for f in exc.value.findings)


def test_malformed_typed_variable_rejected():
    with pytest.raises(LoadError):
        parse_construction('(construction :id x :lang en :nl "$NoIndex red" '
                           ':logic (p a) :output-type Thing)')


def test_nested_alternation_rejected():
    with pytest.raises(LoadError):
        parse_construction('(construction :id x :lang en :nl "[a[b|c]|d]" '
                           ':logic (p a) :output-type Thing)')


@pytest.mark.parametrize("text", ["", COLOR_THING + SEASON_END,
                                  COLOR_THING.replace("mainColorOfObject",
                                                      "(and)"),
                                  "(construction :id x"])
def test_parse_construction_syntax_errors(text):
    with pytest.raises(LoadError) as exc:
        parse_construction(text)
    assert [f.code for f in exc.value.findings] == ["cons-syntax"]


def test_output_var_must_be_free_in_logic():
    with pytest.raises(LoadError) as exc:
        parse_construction('(construction :id x :lang en :nl "$Color#0" '
                           ':logic (p $Color#0) :output-var ?E '
                           ':output-type Thing)')
    assert any(f.code == "cons-output-var" for f in exc.value.findings)


# ---------------------------------------------------------------------------
# Variant expansion

def test_three_by_two_alternation_expands_to_six():
    c = parse_construction(DATED_EVENT)
    assert len(expand_variants(c)) == 6


def test_no_alternation_single_variant():
    assert len(expand_variants(parse_construction(COLOR_THING))) == 1


def test_optional_article_two_variants():
    c = parse_construction(SEASON_END)
    variants = expand_variants(c)
    assert len(variants) == 2
    lengths = sorted(len(v.elements) for v in variants)
    assert lengths == [5, 6]


def test_attached_morphological_alternation():
    c = parse_construction('(construction :id cook :lang en '
                           ':nl "place[d|] $Food#0 over high heat" '
                           ':logic (p $Food#0) :output-type Thing)')
    variants = expand_variants(c)
    firsts = sorted(v.elements[0].text for v in variants)
    assert firsts == ["place", "placed"]


def test_variant_count_is_product_of_widths(demo_repo):
    from construe.constructions import Alternation
    for c in demo_repo.constructions.values():
        for template in c.nl_templates:
            expected = 1
            for e in template.elements:
                if isinstance(e, Alternation):
                    expected *= len(e.alternatives)
            got = sum(1 for v in expand_variants(c)
                      if v.language == template.language)
            assert got == expected


# ---------------------------------------------------------------------------
# Keys

def test_derive_keys_residue_template():
    c = parse_construction(RESIDUE)
    variant = expand_variants(c)[0]
    skeleton, lexical = derive_keys(variant)
    assert skeleton == (None, None, None, "-", None)
    assert lexical == ("-",)


def test_derive_keys_all_literal():
    c = parse_construction('(construction :id idiom :lang en '
                           ':nl "kick the bucket" :logic (isa ?E DyingEvent) '
                           ':output-var ?E :output-type DyingEvent)')
    skeleton, lexical = derive_keys(expand_variants(c)[0])
    assert skeleton == ("kick", "the", "bucket")
    assert lexical == ("kick", "the", "bucket")


def test_derive_keys_all_slots_empty_lexical():
    c = parse_construction(COLOR_THING)
    skeleton, lexical = derive_keys(expand_variants(c)[0])
    assert skeleton == (None, None)
    assert lexical == ()


# ---------------------------------------------------------------------------
# Repository lookup

def test_lexical_lookup_finds_residue_construction(bio_repo):
    hits = bio_repo.lookup("lexical", ("-",), "en")
    assert any(v.construction_id == "residue-substitution" for v in hits)


def test_lookup_on_empty_repository():
    repo = Repository()
    assert repo.lookup("lexical", ("-",), "en") == ()
    assert repo.lookup("skeleton", (None,), "en") == ()
    assert repo.lookup("typed", (("lit", "x"),), "en") == ()


def _variant_typed_key(v):
    return typed_key(derive_keys(v)[0], [s.type for s in v.slots])


def test_typed_lookup_exact_match(bio_repo):
    c = bio_repo.constructions["residue-substitution"]
    variant = expand_variants(c)[0]
    assert bio_repo.lookup("typed", _variant_typed_key(variant), "en")
    near_miss = list(_variant_typed_key(variant))
    near_miss[0] = ("type", "PolypeptideMolecule")
    assert bio_repo.lookup("typed", tuple(near_miss), "en") == ()


def test_language_filtering(demo_repo):
    fr = demo_repo.lookup("skeleton", ("placer", None, "à", "feu", "vif"), "fr")
    assert fr
    assert all(v.language == "fr" for v in fr)
    assert demo_repo.lookup("skeleton", ("placer", None, "à", "feu", "vif"),
                            "en") == ()
    en_variants = {v for v in demo_repo.variants if v.language == "en"}
    for key in [derive_keys(v)[0] for v in en_variants]:
        for hit in demo_repo.lookup("skeleton", key, "fr"):
            assert hit.language == "fr"


def test_lookup_returns_the_stored_tuple(demo_repo, bio_repo):
    for repo in (demo_repo, bio_repo):
        for v in repo.variants:
            skeleton, _ = derive_keys(v)
            hits = repo.lookup("skeleton", skeleton, v.language)
            assert type(hits) is tuple and len(hits) == len(set(hits))
            assert hits is repo.lookup("skeleton", skeleton, v.language)


def test_a_tier_holds_equal_variants_once():
    repo = load_constructions(text='(construction :id c :nl "[a{}] [a{}] '
                                   '$Thing#0" :logic (p $Thing#0))')
    assert len(repo.variants) == 4
    [hit] = repo.lookup("skeleton", ("a", None))
    assert hit.elements[1] == TypedSlot("Thing", 0)


def _loaded_repos(demo_repo, bio_repo):
    """The demo and bio repositories, and those of random instances, half
    of them with an anaphoric construction."""
    return [demo_repo, bio_repo] + [
        random_instance(random.Random(seed), feeding=seed % 2 == 1)[0].repo
        for seed in range(20)]


def test_every_variant_reachable_from_all_three_tiers(demo_repo, bio_repo):
    for repo in _loaded_repos(demo_repo, bio_repo):
        for v in repo.variants:
            skeleton, lexical = derive_keys(v)
            assert v in repo.lookup("lexical", lexical, v.language)
            assert v in repo.lookup("skeleton", skeleton, v.language)
            assert v in repo.lookup("typed", _variant_typed_key(v), v.language)


def test_used_types_is_union_of_slot_types(demo_repo, bio_repo):
    for repo in _loaded_repos(demo_repo, bio_repo):
        expected = set()
        for c in repo.constructions.values():
            expected |= {s.type for s in c.all_slots()}
        assert {t.name for t in repo.used_types} == expected


def test_slot_types_of_a_skeleton_key_are_its_variants(demo_repo, bio_repo):
    for repo in _loaded_repos(demo_repo, bio_repo):
        keys = {(v.language, derive_keys(v)[0]) for v in repo.variants}
        for language, skeleton in keys:
            variants = repo.lookup("skeleton", skeleton, language)
            expected = tuple(frozenset(v.slots[j].type for v in variants)
                             for j in range(skeleton.count(SKELETON_SLOT)))
            assert repo.slot_types(skeleton, language) == expected


def test_skeleton_prefixes_are_every_prefix_of_every_stored_key(demo_repo,
                                                                bio_repo):
    for repo in _loaded_repos(demo_repo, bio_repo):
        for language in {v.language for v in repo.variants}:
            keys = {derive_keys(v)[0] for v in repo.variants
                    if v.language == language}
            prefixes = repo.skeleton_prefixes(language)
            assert () in prefixes and keys <= prefixes
            assert prefixes == {key[:i] for key in keys
                                for i in range(len(key) + 1)}
        assert repo.skeleton_prefixes("xx") == set()


def test_used_types_are_the_loads_own_constants(demo_repo):
    names = Names()
    repo = load_constructions(DEMO_CG_FILES, names=names)
    assert repo.used_types == demo_repo.used_types
    assert all(t is names.constant(t.name) for t in repo.used_types)


def test_multilanguage_construction_shares_one_logic(demo_repo):
    c = demo_repo.constructions["cook-over-heat"]
    assert {t.language for t in c.nl_templates} == {"en", "fr"}


def test_lint_reports_unresolvable_slot_types():
    repo = load_constructions(text='(construction :id x :lang en '
                                   ':nl "$Ghost#0" :logic (p $Ghost#0) '
                                   ':output-type Thing)')
    kb = load_kb(text="(collection Thing)")
    findings = lint_constructions(repo, kb)
    assert any(f.code == "cons-unknown-type" for f in findings)


def test_construction_findings_name_file_and_form(tmp_path):
    path = tmp_path / "bad.cg"
    good = '(construction :id c :nl "$Thing#1 a" :logic (p $Thing#1))\n'
    path.write_text(good + "(construction :id d :nl \"a\" :bogus 1)\n" + good
                    + "(construction id d)\n(construction (a \"b\") d)\n",
                    encoding="utf-8")
    _, findings = load_constructions_lenient([path])
    assert [(f.code, f.message) for f in findings] == [
        ("cons-form", f"{path}: form at line 2, column 1: unknown key :bogus"),
        ("cons-duplicate-id",
         f"{path}: form at line 3, column 1: construction c defined twice"),
        ("cons-form", f"{path}: form at line 4, column 1: expected a :keyword, "
                      "got id"),
        ("cons-form", f"{path}: form at line 5, column 1: expected a :keyword, "
                      "got (a \"b\")")]


def test_a_definition_that_breaks_an_invariant_claims_no_id():
    text = ('(construction :id d :nl "$Thing#0 a" :logic (p $Other#1))\n'
            '(construction :id d :nl "$Thing#0 a" :logic (p $Thing#0))\n'
            '(construction :id d :nl "$Thing#0 b" :logic (q $Thing#0))\n')
    repo, findings = load_constructions_lenient(text=text)
    assert [(f.code, f.message) for f in findings] == [
        ("cons-unbound-slot", "<string>: form at line 1, column 1: "
                              "construction d: $Other#1 in the logic template "
                              "is neither a template slot nor an anaphoric "
                              "reference"),
        ("cons-duplicate-id", "<string>: form at line 3, column 1: "
                              "construction d defined twice")]
    assert list(repo.constructions) == ["d"]
    [variant] = repo.variants
    assert variant.elements[1].text == "a"


@pytest.mark.parametrize("template, message", [
    ("", "empty template"),
    ("[a|b $Thing#0", "unbalanced '[' in template"),
    ("a] $Thing#0", "unbalanced ']' in template"),
    ("[a [b]] $Thing#0", "nested alternation in '[a [b]]'"),
    ("$ $Thing#0", "unreadable typed variable in '$'")])
def test_template_syntax_findings(template, message):
    repo, findings = load_constructions_lenient(
        text=f'(construction :id c :nl "{template}" :logic (p $Thing#0))')
    assert [(f.code, f.message) for f in findings] == [
        ("cons-template", f"<string>: form at line 1, column 1: c: {message}")]
    assert repo.constructions == {}


def test_construction_id_lex_is_reserved():
    text = ('(construction :id lex :nl "big $Building#0" '
            ':logic (LargeFn $Building#0) :output-type Building)')
    repo, findings = load_constructions_lenient(text=text)
    assert repo.constructions == {}
    assert [(f.code, f.message) for f in findings] == [
        ("cons-form", "<string>: form at line 1, column 1: :id lex is "
                      "reserved for the edges of tagged concepts")]
    repo, findings = load_constructions_lenient(
        text=text.replace(":id lex", ":id large"))
    assert findings == [] and list(repo.constructions) == ["large"]


def test_output_type_with_constant_prefix_is_the_constant():
    body = '(construction :id c :nl "$Thing#1 a" :logic (p $Thing#1) '
    repo, findings = load_constructions_lenient(
        text=body + ":output-type #$Thing)\n"
             + body.replace(":id c", ":id d") + ":output-type #$)")
    assert repo.constructions["c"].output_type == "Thing"
    assert [(f.code, f.message) for f in findings] == [
        ("cons-form", "<string>: form at line 2, column 1: empty constant "
                      "after #$")]


@pytest.mark.parametrize("key", [":logic", ":test+", ":test-"])
def test_template_nesting_is_capped_at_load(key):
    def construction(depth):
        logic = "(p " * depth + "$Thing#1" + ")" * depth
        body = (f"{key} {logic}" if key == ":logic"
                else f":logic (p $Thing#1) {key} {logic}")
        return f'(construction :id c :nl "$Thing#1 a" {body})'

    repo, findings = load_constructions_lenient(
        text=construction(MAX_TERM_DEPTH))
    assert findings == [] and "c" in repo.constructions
    repo, findings = load_constructions_lenient(
        text=construction(MAX_TERM_DEPTH + 1))
    assert [(f.code, f.message) for f in findings] == [
        ("cons-form", f"<string>: form at line 1, column 1: c: {key} nests "
                      f"deeper than {MAX_TERM_DEPTH} levels")]
    assert repo.constructions == {}
