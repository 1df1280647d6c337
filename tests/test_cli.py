import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BIO_CG_FILES, BIO_KB_FILES, BIO_LEX_FILES,
                      DEMO_CG_FILES, DEMO_KB_FILES, DEMO_LEX_FILES,
                      RESOURCE_DIR)
from construe import cli
from construe.cli import main
from construe.constructions import load_constructions_lenient
from construe.interpreter import MAX_NESTING
from construe.kb import load_kb_lenient
from construe.logic import (MAX_READ_DEPTH, MAX_TERM_DEPTH, expr_from_json,
                            print_expr, term_depth)
from construe.tagger import load_lexicon_lenient


def demo_args():
    args = []
    for p in DEMO_KB_FILES:
        args += ["--kb", str(p)]
    return args + ["--lexicon", str(DEMO_LEX_FILES[0]),
                   "--constructions", str(DEMO_CG_FILES[0])]


def bio_args():
    args = []
    for p in BIO_KB_FILES:
        args += ["--kb", str(p)]
    return args + ["--lexicon", str(BIO_LEX_FILES[0]),
                   "--constructions", str(BIO_CG_FILES[0])]


def run_cli(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# interpret

def test_interpret_cycl_output():
    rc, out = run_cli(["interpret", *demo_args(), "big blue building"])
    assert rc == 0
    assert out.splitlines()[0] == ("[0:3] (LargeFn (SubcollectionOfWithRelation"
                                   "ToFn Building mainColorOfObject BlueColor))")


def test_interpret_empty_input_is_success():
    rc, out = run_cli(["interpret", *demo_args(), ""])
    assert rc == 0
    assert out == ""


def test_interpret_json_round_trips_to_cycl():
    rc_c, cycl = run_cli(["interpret", *demo_args(), "the song has 6 notes"])
    rc_j, raw = run_cli(["interpret", *demo_args(), "the song has 6 notes",
                         "--format", "json"])
    assert rc_c == rc_j == 0
    doc = json.loads(raw)
    lines = [f"[{it['span'][0]}:{it['span'][1]}] "
             f"{print_expr(expr_from_json(it['logic']))}"
             for it in doc["interpretations"]]
    assert lines == cycl.splitlines()


def test_interpret_json_has_provenance_tree():
    _, raw = run_cli(["interpret", *demo_args(),
                      "Barack Obama eats a sandwich", "--format", "json"])
    doc = json.loads(raw)
    prov = doc["interpretations"][0]["provenance"]
    assert prov["source"] == "agent-eats-food"
    child_sources = {c["source"] for c in prov["children"]}
    assert "indefinite-instance" in child_sources
    assert "lex" in child_sources


def test_interpret_trace_names_discarded_tests():
    rc, out = run_cli(["interpret", *demo_args(), "electron transport",
                       "--format", "trace"])
    assert rc == 0
    assert "movement-to-place/neg1" in out
    assert "typed-pattern candidates" in out


def test_interpret_file_input(tmp_path):
    p = tmp_path / "caption.txt"
    p.write_text("2 sandwiches", encoding="utf-8")
    rc, out = run_cli(["interpret", *demo_args(), "--file", str(p)])
    assert rc == 0
    assert "(GroupFn Sandwich)" in out


def test_question_mode_flag():
    rc, out = run_cli(["interpret", *demo_args(),
                       "Barack Obama eats a sandwich", "--mode", "question"])
    assert rc == 0
    assert "?EAT" in out and "(exists" not in out


def test_usage_error_exit_code():
    rc, _ = run_cli(["interpret", "big blue building"])
    assert rc == 1


@pytest.mark.parametrize("ensure_ascii", [False, True])
def test_json_writer_matches_json_dump(ensure_ascii):
    doc = {"text": "café ☕", "coverage": 2 / 3, "spans": [[0, 1], None],
           "ok": True, "nested": {"b": 1, "a": [1.5e-7, -0.0]}}
    expected = io.StringIO()
    json.dump(doc, expected, ensure_ascii=ensure_ascii)
    got = io.StringIO()
    cli._write_json(got, doc, ensure_ascii=ensure_ascii)
    assert got.getvalue() == expected.getvalue() + "\n"


def test_missing_resource_exit_code():
    rc, _ = run_cli(["interpret", "--kb", "nope.kb", "--lexicon", "nope.lex",
                     "--constructions", "nope.cg", "x"])
    assert rc == 2


def test_unreadable_kb_exit_code(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("(genls A B)\n(genls B A)\n", encoding="utf-8")
    rc, _ = run_cli(["interpret", "--kb", str(bad),
                     "--lexicon", str(DEMO_LEX_FILES[0]),
                     "--constructions", str(DEMO_CG_FILES[0]), "x"])
    assert rc == 2


@pytest.mark.parametrize("flag", ["--max-window", "--max-edges"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_limit_below_one_is_usage_error(capsys, flag, value):
    rc, out = run_cli(["interpret", *demo_args(), flag, value,
                       "big blue building"])
    assert rc == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert len(err.splitlines()) == 1


def _demo_args_with(flag, path):
    """demo_args() with the last file given to *flag* replaced by *path*."""
    files = {"--kb": [str(p) for p in DEMO_KB_FILES],
             "--lexicon": [str(DEMO_LEX_FILES[0])],
             "--constructions": [str(DEMO_CG_FILES[0])]}
    files[flag] = files[flag][:-1] + [str(path)]
    return [a for f, paths in files.items() for p in paths for a in (f, p)]


def _assert_one_line_resource_error(capsys, rc, out, *needles):
    assert rc == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("flag", ["--kb", "--lexicon", "--constructions"])
def test_non_utf8_resource_is_resource_error(tmp_path, capsys, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("(lex \"caf\u00e9\" Cafe)\n".encode("latin-1"))
    rc, out = run_cli(["interpret", *_demo_args_with(flag, bad),
                       "big blue building"])
    _assert_one_line_resource_error(capsys, rc, out, flag, str(bad))


def test_non_utf8_input_file_is_resource_error(tmp_path, capsys):
    bad = tmp_path / "input.txt"
    bad.write_bytes("caf\u00e9 building\n".encode("latin-1"))
    rc, out = run_cli(["interpret", *demo_args(), "--file", str(bad)])
    _assert_one_line_resource_error(capsys, rc, out, "input", str(bad))


def test_non_utf8_captions_file_is_resource_error(tmp_path, capsys):
    bad = tmp_path / "captions.tsv"
    bad.write_bytes("e1\tcaf\u00e9 building\n".encode("latin-1"))
    rc, out = run_cli(["eval", *demo_args(), str(bad)])
    _assert_one_line_resource_error(capsys, rc, out, "captions", str(bad))


def test_missing_captions_file_is_resource_error(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    rc, out = run_cli(["eval", *demo_args(), str(missing)])
    _assert_one_line_resource_error(capsys, rc, out, "captions", str(missing))


def test_non_utf8_verdicts_file_is_resource_error(tmp_path, capsys):
    bad = tmp_path / "verdicts.txt"
    bad.write_bytes("e1 i0 correct ; caf\u00e9\n".encode("latin-1"))
    rc, out = run_cli(["eval", *demo_args(), str(_write_captions(tmp_path)),
                       "--verdicts", str(bad)])
    _assert_one_line_resource_error(capsys, rc, out, "verdicts", str(bad))


_DEPTH = 3000
_DEEP_FORMS = {
    "bare": "(" * _DEPTH + ")" * _DEPTH,
    "negations": "\u00ac" * _DEPTH + "x",
    "term": "(F " * _DEPTH + "A" + ")" * _DEPTH,
}
_TERM_PLACES = {"--kb": "(isa {} Thing)", "--lexicon": '(lex "x" {})',
                "--constructions": '(construction :id c :nl "a" :logic {})'}


@pytest.mark.parametrize("shape", ["bare", "negations", "term"])
@pytest.mark.parametrize("flag", ["--kb", "--lexicon", "--constructions"])
def test_deeply_nested_resource_is_resource_error(tmp_path, capsys, flag,
                                                  shape):
    deep = tmp_path / "deep.txt"
    form = _DEEP_FORMS[shape]
    if shape == "term":
        form = _TERM_PLACES[flag].format(form)
    deep.write_text(form + "\n", encoding="utf-8")
    rc, out = run_cli(["interpret", *_demo_args_with(flag, deep),
                       "big blue building"])
    _assert_one_line_resource_error(capsys, rc, out)


_LENIENT = {"--kb": load_kb_lenient, "--lexicon": load_lexicon_lenient,
            "--constructions": load_constructions_lenient}
_PREFIX = {"--kb": "kb", "--lexicon": "lex", "--constructions": "cons"}


@pytest.mark.parametrize("shape", ["bare", "negations", "term"])
@pytest.mark.parametrize("flag", ["--kb", "--lexicon", "--constructions"])
def test_deeply_nested_form_is_one_located_finding(tmp_path, flag, shape):
    deep = tmp_path / "deep.txt"
    form = _DEEP_FORMS[shape]
    if shape == "term":
        form = _TERM_PLACES[flag].format(form)
    deep.write_text("; a comment line\n  " + form + "\n", encoding="utf-8")
    _, findings = _LENIENT[flag]([deep])
    codes = [f.code for f in findings if not f.code.endswith("-unknown-type")]
    if shape == "term":
        assert codes == [f"{_PREFIX[flag]}-syntax"]
        assert findings[0].message.startswith(
            f"{deep}: form at line 2, column 3: ")
    else:
        assert codes == [f"{_PREFIX[flag]}-form"]


@pytest.mark.parametrize("flag", ["--kb", "--lexicon", "--constructions"])
def test_lint_reports_deep_form_as_finding(tmp_path, flag):
    deep = tmp_path / "deep.txt"
    deep.write_text(_TERM_PLACES[flag].format(_DEEP_FORMS["term"]) + "\n",
                    encoding="utf-8")
    rc, out = run_cli(["lint", *_demo_args_with(flag, deep)])
    assert rc == 3
    assert f"{_PREFIX[flag]}-syntax\t{deep}: form at line 1, column 1: " in out


@pytest.mark.parametrize("command", ["interpret", "lint"])
@pytest.mark.parametrize("flag", ["--kb", "--lexicon", "--constructions"])
def test_missing_resource_names_flag_and_path(tmp_path, capsys, command,
                                              flag):
    missing = tmp_path / "nope.txt"
    rc, out = run_cli([command, *_demo_args_with(flag, missing),
                       *(["x"] if command == "interpret" else [])])
    _assert_one_line_resource_error(capsys, rc, out, f"error: {flag}: ",
                                    str(missing))


def test_long_genls_chain_interprets(tmp_path):
    chain = tmp_path / "chain.kb"
    chain.write_text("".join(f"(genls C{i} C{i + 1})\n" for i in range(3000)),
                     encoding="utf-8")
    rc, out = run_cli(["interpret", "--kb", str(chain), *demo_args(),
                       "big blue building"])
    assert rc == 0 and out.startswith("[0:3] (LargeFn")


@pytest.mark.parametrize("keyword, value, code", [
    (":output-var", "(and)", "cons-syntax"),
    (":output-type", '(slot "x")', "cons-form"),
    (":output-type", "(slot 1/2)", "cons-form"),
    (":output-type", "?x", "cons-form"),
    (":id", "(a b)", "cons-form"),
    (":lang", "(en)", "cons-form")])
def test_bad_construction_keyword_value_is_resource_error(tmp_path, capsys,
                                                          keyword, value,
                                                          code):
    bad = tmp_path / "bad.cg"
    bad.write_text(f'(construction :id c :nl "$Thing#1 a" '
                   f':logic (p $Thing#1) {keyword} {value})\n',
                   encoding="utf-8")
    rc, out = run_cli(["interpret", *_demo_args_with("--constructions", bad),
                       "a"])
    _assert_one_line_resource_error(
        capsys, rc, out,
        f"error: --constructions: {code}: {bad}: form at line 1, column 1: ")


def _wrapped(depth, core):
    return "(LargeFn " * depth + core + ")" * depth


def test_logic_deeper_than_the_cap_is_rejected_at_load(tmp_path, capsys):
    deep = tmp_path / "deep.cg"
    deep.write_text('(construction :id deep :nl "$Building#0 x" :logic '
                    f'{_wrapped(300, "$Building#0")} :output-type Building)\n',
                    encoding="utf-8")
    rc, out = run_cli(["interpret", *_demo_args_with("--constructions", deep),
                       "building x"])
    # the first LargeFn opens at column 51, and each level 9 columns on
    _assert_one_line_resource_error(
        capsys, rc, out,
        f"error: --constructions: cons-syntax: {deep}: form at line 1, column "
        f"1: term nests deeper than {MAX_READ_DEPTH} levels (line 1, column "
        f"{51 + 9 * MAX_READ_DEPTH})\n")
    # the deepest logic the cap lets through, fed into itself from the
    # deepest reading, stops at the nesting cap
    wrap = tmp_path / "wrap.cg"
    wrap.write_text('(construction :id wrap :nl "$Building#0" :logic '
                    f'{_wrapped(MAX_TERM_DEPTH, "$Building#0")} '
                    ':output-type Building)\n', encoding="utf-8")
    lex = tmp_path / "deep.lex"
    lex.write_text(f'(lex-nat "zork" {_wrapped(MAX_TERM_DEPTH, "Building")})\n',
                   encoding="utf-8")
    args = _demo_args_with("--constructions", wrap)
    rc, out = run_cli(["interpret", *args, "--lexicon", str(lex),
                       "--format", "trace", "zork"])
    assert rc == 0 and len(out.splitlines()) == MAX_NESTING + 3
    assert capsys.readouterr().err == (
        f"warning: nesting limit ({MAX_NESTING} levels) reached, "
        "interpretations may be incomplete\n")
    # every interpretation reads back, the deepest within the read bound
    rc, out = run_cli(["interpret", *args, "--lexicon", str(lex),
                       "--format", "json", "zork"])
    logic = [expr_from_json(i["logic"])
             for i in json.loads(out)["interpretations"]]
    rc_text, text = run_cli(["interpret", *args, "--lexicon", str(lex),
                             "zork"])
    assert rc == rc_text == 0
    assert [f"[0:1] {print_expr(e)}" for e in logic] == text.splitlines()
    assert max(map(term_depth, logic)) == (MAX_NESTING + 1) * MAX_TERM_DEPTH
    assert max(map(term_depth, logic)) <= MAX_READ_DEPTH


def test_eval_warns_about_each_truncated_caption(capsys):
    argv = ["eval", *demo_args(), str(RESOURCE_DIR / "captions.tsv")]
    rc, out = run_cli(argv)
    assert rc == 0 and capsys.readouterr().err == ""
    rc_capped, out_capped = run_cli(argv + ["--max-edges", "3"])
    assert rc_capped == 0
    assert "caption\tc2\t" in out_capped and "interp\tc2\t" in out
    assert "interp\tc2\t" not in out_capped
    assert capsys.readouterr().err == "".join(
        f"warning: caption {c}: edge limit reached, interpretations may be "
        "incomplete\n" for c in ("c1", "c2", "c5"))


@pytest.mark.parametrize("limit", [[], ["--max-edges", "300"]])
def test_self_feeding_construction_stops_at_the_nesting_cap(tmp_path, capsys,
                                                            limit):
    # each wrap edge fills the slot of the next one on the same span
    wrap = tmp_path / "wrap.cg"
    wrap.write_text('(construction :id wrap :nl "$Building#0" '
                    ':logic (LargeFn $Building#0) :output-type Building)\n',
                    encoding="utf-8")
    rc, out = run_cli(["interpret", *_demo_args_with("--constructions", wrap),
                       *limit, "--format", "json", "building"])
    doc = json.loads(out)
    assert rc == 0 and doc["truncated"] is True
    assert len(doc["interpretations"]) == MAX_NESTING
    assert capsys.readouterr().err == (
        f"warning: nesting limit ({MAX_NESTING} levels) reached, "
        "interpretations may be incomplete\n")


# ---------------------------------------------------------------------------
# argument parsing: one command's parser against the full parser

def _full_subparser(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_parser_help_equals_full_parser_help(command):
    assert cli.command_parser(command).format_help() == \
        _full_subparser(command).format_help()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_command_parser_reads_the_terminal_width_once(monkeypatch, command):
    reads = []
    size = shutil.get_terminal_size

    def counted(*args):
        reads.append(args)
        return size(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    parser = cli.command_parser(command)
    parser.format_help()
    parser.format_usage()
    assert len(reads) == 1


def _every_parser():
    full = cli.build_parser()
    sub = next(a for a in full._actions
               if isinstance(a, argparse._SubParsersAction))
    return ([full, *sub.choices.values()]
            + [cli.command_parser(c) for c in sorted(cli.COMMANDS)])


@pytest.mark.parametrize("columns", [None, "40", "80", "200"])
def test_help_is_the_default_formatters_text(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for parser in _every_parser():
        text, usage = parser.format_help(), parser.format_usage()
        parser.formatter_class = argparse.HelpFormatter
        assert parser.format_help() == text
        assert parser.format_usage() == usage


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: construe [-h] {interpret,tag,eval,lint}")
    rows = [line.split() for line in out.splitlines()]
    for command, (help_line, _) in cli.COMMANDS.items():
        assert [command, *help_line.split()] in rows


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_command_call_builds_only_its_own_parser(monkeypatch, capsys,
                                                    command):
    def no_full_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", no_full_parser)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: construe {command} ")


def _run_with_full_parser(monkeypatch, argv):
    with monkeypatch.context() as m:
        m.setattr(cli, "parse_args",
                  lambda args: cli.build_parser().parse_args(args))
        return run_cli(argv)


_TEXT = "big blue building"


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--kb", "x", "interpret", _TEXT],
    ["--kb", "interpret", _TEXT], ["--format", "json", "interpret", _TEXT],
    ["interpret", *demo_args()],
    ["interpret", *demo_args(), "--format", "xml", _TEXT],
    ["interpret", *demo_args(), "--max-edges", "0", _TEXT],
    ["interpret", *demo_args(), "--no-such-flag", _TEXT],
    ["interpret", *demo_args(), "--form", "json", _TEXT],
    ["interpret", *demo_args(), _TEXT, "again"],
], ids=["no-args", "unknown-command", "option-before-command",
        "flag-before-command", "format-before-command", "no-text",
        "bad-format", "zero-max-edges",
        "unknown-flag", "abbreviated-flag", "two-texts"])
def test_command_parser_exits_as_the_full_parser_does(monkeypatch, capsys,
                                                      argv):
    got = run_cli(argv), capsys.readouterr().err
    expected = _run_with_full_parser(monkeypatch, argv), capsys.readouterr().err
    assert got == expected
    try:
        full = vars(cli.build_parser().parse_args(argv))
    except cli.UsageError:
        full = None
    if full is not None:
        assert vars(cli.parse_args(argv)) == full
    (rc, out), err = got
    assert len(err.splitlines()) == (rc != 0)
    assert not any(isinstance(v, argparse.ArgumentParser)
                   for v in vars(cli).values())


@pytest.mark.parametrize("argv, option", [
    (["--kb", "x", "interpret", _TEXT], "--kb"),
    (["--kb", "interpret", _TEXT], "--kb"),
    (["--format", "json", "interpret", _TEXT], "--format"),
    (["--lexicon=x", "tag", _TEXT], "--lexicon"),
])
def test_an_option_before_the_command_is_named(capsys, argv, option):
    rc, out = run_cli(argv)
    command = next(a for a in argv if a in cli.COMMANDS)
    assert (rc, out) == (1, "")
    assert capsys.readouterr().err == (
        f"usage error: {option} goes after the command: "
        f"construe {command} {option} ...\n")


# ---------------------------------------------------------------------------
# tag

def test_tag_table_matches_reading_sets():
    rc, out = run_cli(["tag", *bio_args(), "G12V-K-Ras"])
    assert rc == 0
    rows = {}
    for line in out.splitlines():
        span, surface, concepts = line.split("\t")
        rows[surface] = {c for c in concepts.split(", ") if c}
    assert len(rows["G"]) == 6 and len(rows["V"]) == 4
    assert rows["12"] == {"12"}
    assert rows["K-Ras"] == {"K-Ras-Protein"}
    assert rows["-"] == set()


def test_tag_table_lists_multi_token_spans_after_the_tokens():
    rc, out = run_cli(["tag", *demo_args(), "barack obama at the white house"])
    assert rc == 0
    assert out == ("0:1\tbarack\t\n1:2\tobama\t\n2:3\tat\t\n3:4\tthe\t\n"
                   "4:5\twhite\t\n5:6\thouse\t\n"
                   "0:2\tbarack obama\tBarackObama\n"
                   "4:6\twhite house\tTheWhiteHouse\n")


def test_tag_json():
    rc, raw = run_cli(["tag", *bio_args(), "G12V-K-Ras", "--format", "json"])
    assert rc == 0
    doc = json.loads(raw)
    assert [t["surface"] for t in doc["tokens"]] == ["G", "12", "V", "-", "K-Ras"]


# ---------------------------------------------------------------------------
# lint

def test_lint_bundled_resources_clean():
    rc, out = run_cli(["lint", *demo_args()])
    assert rc == 0
    assert out.strip() == "no findings"
    rc, out = run_cli(["lint", *bio_args()])
    assert rc == 0


def test_lint_reports_cycle_with_names(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("(genls A B)\n(genls B A)\n", encoding="utf-8")
    rc, out = run_cli(["lint", "--kb", str(bad),
                       "--lexicon", str(DEMO_LEX_FILES[0]),
                       "--constructions", str(DEMO_CG_FILES[0])])
    assert rc == 3
    assert "kb-genls-cycle" in out and "A" in out and "B" in out


def test_lint_reports_an_entry_tagging_never_produces(tmp_path):
    lex = tmp_path / "dotted.lex"
    lex.write_text('(lex "U.S." Building)\n(lex "New York" Building)\n',
                   encoding="utf-8")
    rc, out = run_cli(["lint", "--kb", str(DEMO_KB_FILES[0]),
                       "--kb", str(DEMO_KB_FILES[1]), "--lexicon", str(lex),
                       "--constructions", str(DEMO_CG_FILES[0])])
    assert rc == 3
    assert out == ("lex-unreachable\tlexicon entry 'U.S.' can never be "
                   "tagged: its text tags as 'U . S .'\n")


def test_lint_json_format(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("(genls A A)\n", encoding="utf-8")
    rc, raw = run_cli(["lint", "--kb", str(bad),
                       "--lexicon", str(DEMO_LEX_FILES[0]),
                       "--constructions", str(DEMO_CG_FILES[0]),
                       "--format", "json"])
    assert rc == 3
    assert any(f["code"] == "kb-self-link" for f in json.loads(raw))


# ---------------------------------------------------------------------------
# eval

def _write_captions(tmp_path):
    p = tmp_path / "captions.tsv"
    p.write_text("e1\tbig blue building\n"
                 "e2\tthe song has 6 notes\n"
                 "e3\twimbledon sparkles\n", encoding="utf-8")
    return p


def test_eval_worksheet_orders_largest_first(tmp_path):
    rc, out = run_cli(["eval", *demo_args(), str(_write_captions(tmp_path))])
    assert rc == 0
    lines = [l.split("\t") for l in out.splitlines() if l.startswith("interp")]
    by_caption = {}
    for _, cid, iid, span, length, logic in lines:
        by_caption.setdefault(cid, []).append(int(length))
    assert by_caption["e1"] == sorted(by_caption["e1"], reverse=True)
    assert by_caption["e2"] == sorted(by_caption["e2"], reverse=True)
    assert "e3" not in by_caption


def test_eval_metrics_match_hand_computation(tmp_path):
    captions = _write_captions(tmp_path)
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("e1 i0 correct\n"
                        "e2 i0 incorrect\n"
                        "e2 i1 correct\n"
                        "e2 i2 incorrect\n", encoding="utf-8")
    rc, raw = run_cli(["eval", *demo_args(), str(captions),
                       "--verdicts", str(verdicts), "--format", "json"])
    assert rc == 0
    metrics = json.loads(raw)
    assert abs(metrics["coverage"] - (1.0 + 0.4 + 0.0) / 3) < 1e-12
    assert abs(metrics["precision"] - 0.5) < 1e-12
    assert abs(metrics["mean_correct_length"] - 2.5) < 1e-12


def test_eval_metrics_as_text(tmp_path):
    captions = _write_captions(tmp_path)
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("e1 i0 correct\n"
                        "e2 i0 incorrect\n"
                        "e2 i1 correct\n"
                        "e2 i2 incorrect\n", encoding="utf-8")
    rc, out = run_cli(["eval", *demo_args(), str(captions),
                       "--verdicts", str(verdicts)])
    assert rc == 0
    assert out == ("captions 3\n"
                   "coverage 0.466666667\n"
                   "precision 0.500000000\n"
                   "mean-correct-length 2.500000000 (tokens)\n")


def test_eval_metrics_invariant_to_caption_order(tmp_path):
    captions = _write_captions(tmp_path)
    reordered = tmp_path / "captions2.tsv"
    reordered.write_text("e3\twimbledon sparkles\n"
                         "e2\tthe song has 6 notes\n"
                         "e1\tbig blue building\n", encoding="utf-8")
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("e1 i0 correct\ne2 i1 correct\n", encoding="utf-8")
    results = []
    for source in (captions, reordered):
        rc, raw = run_cli(["eval", *demo_args(), str(source),
                           "--verdicts", str(verdicts), "--format", "json"])
        assert rc == 0
        results.append(json.loads(raw))
    for key in ("coverage", "precision", "mean_correct_length"):
        assert results[0][key] == results[1][key]


def test_eval_unknown_interpretation_id(tmp_path):
    captions = _write_captions(tmp_path)
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("e1 i99 correct\n", encoding="utf-8")
    rc, _ = run_cli(["eval", *demo_args(), str(captions),
                     "--verdicts", str(verdicts)])
    assert rc == 2


def test_eval_rejects_a_repeated_caption_id(tmp_path, capsys):
    """Two captions with one id would share one set of verdicts."""
    captions = tmp_path / "captions.tsv"
    captions.write_text("c1\tbig blue building\nc1\tbig blue building\n",
                        encoding="utf-8")
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("c1 i0 correct\n", encoding="utf-8")
    rc, out = run_cli(["eval", *demo_args(), str(captions),
                       "--verdicts", str(verdicts)])
    _assert_one_line_resource_error(capsys, rc, out,
                                    f"{captions}:2: duplicate caption id c1")


@pytest.mark.parametrize("caption_id", ["c 1", ""])
def test_eval_rejects_a_caption_id_no_verdict_can_name(tmp_path, capsys,
                                                       caption_id):
    """A verdict line names its caption by its first word, so an id that
    is empty or holds whitespace is refused where it is read."""
    captions = tmp_path / "captions.tsv"
    captions.write_text(f"c0\t2 sandwiches\n{caption_id}\tbig blue building\n",
                        encoding="utf-8")
    rc, out = run_cli(["eval", *demo_args(), str(captions)])
    _assert_one_line_resource_error(
        capsys, rc, out, f"{captions}:2: caption id {caption_id!r} is empty "
        "or holds whitespace")


def test_eval_rejects_a_tab_in_a_caption_text(tmp_path, capsys):
    """A worksheet caption row is three tab-separated columns, so a
    caption's text may hold no tab."""
    captions = tmp_path / "captions.tsv"
    captions.write_text("c0\t2 sandwiches\nc1\tbig blue\tbuilding\n",
                        encoding="utf-8")
    rc, out = run_cli(["eval", *demo_args(), str(captions)])
    _assert_one_line_resource_error(capsys, rc, out,
                                    f"{captions}:2: caption text holds a tab")


def test_a_tab_or_newline_in_a_string_stays_inside_its_line(tmp_path):
    """cycl output has one line per interpretation and the worksheet six
    tab-separated columns per interpretation row, whatever a string of the
    logic holds."""
    cg = tmp_path / "tower.cg"
    cg.write_text('(construction :id old-tower :nl "the tower"\n'
                  '  :logic (nameString ?B "Old\\tTower\\nNew")\n'
                  '  :output-var ?B)\n', encoding="utf-8")
    captions = tmp_path / "captions.tsv"
    captions.write_text("t1\tthe tower\n", encoding="utf-8")
    args = _demo_args_with("--constructions", cg)
    rc, out = run_cli(["interpret", *args, "the tower"])
    assert rc == 0
    assert out == ('[0:2] (exists (?B) (nameString ?B "Old\\tTower\\nNew"))'
                   "\n")
    rc, out = run_cli(["eval", *args, str(captions)])
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()
            if line.startswith("interp\t")]
    assert len(rows) == 1 and len(rows[0]) == 6
    assert rows[0][-1] == '(exists (?B) (nameString ?B "Old\\tTower\\nNew"))'


def test_eval_rejects_a_second_verdict_for_one_interpretation(tmp_path,
                                                              capsys):
    captions = _write_captions(tmp_path)
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("e1 i0 correct\ne2 i0 incorrect\ne1 i0 incorrect\n",
                        encoding="utf-8")
    rc, out = run_cli(["eval", *demo_args(), str(captions),
                       "--verdicts", str(verdicts)])
    _assert_one_line_resource_error(capsys, rc, out,
                                    f"{verdicts}:3: second verdict for e1 i0")


def test_eval_all_correct_degenerate(tmp_path):
    captions = tmp_path / "captions.tsv"
    captions.write_text("c\tbig blue building\n", encoding="utf-8")
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("c i0 correct\n", encoding="utf-8")
    rc, raw = run_cli(["eval", *demo_args(), str(captions),
                       "--verdicts", str(verdicts), "--format", "json"])
    metrics = json.loads(raw)
    assert metrics["coverage"] == 1.0
    assert metrics["precision"] == 1.0


def test_eval_length_unit_chars(tmp_path):
    captions = tmp_path / "captions.tsv"
    captions.write_text("c\tbig blue building\n", encoding="utf-8")
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("c i0 correct\n", encoding="utf-8")
    rc, raw = run_cli(["eval", *demo_args(), str(captions),
                       "--verdicts", str(verdicts), "--length-unit", "chars",
                       "--format", "json"])
    metrics = json.loads(raw)
    assert metrics["mean_correct_length"] == len("big blue building")


# ---------------------------------------------------------------------------
# determinism across processes

@pytest.mark.parametrize("fmt", ["cycl", "json", "trace"])
def test_byte_identical_output_across_hash_seeds(fmt):
    """Also the trace's pattern counts and discards, though the repository
    holds its skeleton prefixes and slot types in hash-ordered sets."""
    cmd = [sys.executable, "-m", "construe", "interpret", *demo_args(),
           "--format", fmt, "wimbledon olympics , the end of the 2015 season"]
    outputs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(cmd, capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# fuzzing: any interpret or tag call exits with a documented code

_LEXICON_WORDS = sorted({
    word for surface in re.findall(
        r'\(lex "([^"]+)"', DEMO_LEX_FILES[0].read_text(encoding="utf-8"))
    for word in surface.split()})
_OTHER_TOKENS = ["the", "a", "has", "6", "2015", ",", "(", ")", "#$", "?X",
         "$Thing#1", "\u00ac", "-", "--", "-x", "--mode", "\t", "\u00fc",
         "G12V", "K-Ras", '"', ";", "1/0", "0.5", "", " "]
_FLAG_VALUES = {
    "--max-window": ["1", "3", "12", "0", "-1", "x", ""],
    "--max-edges": ["1", "40", "50000", "0", "-5", "1e3"],
    "--mode": ["statement", "question", "check", "bogus"],
    "--format": ["cycl", "json", "trace", "table", "text", "bogus"],
}
_TEXTS = st.lists(st.one_of(st.sampled_from(_LEXICON_WORDS + _OTHER_TOKENS),
                            st.text(max_size=4)),
                  max_size=6).map(" ".join)
_FLAGS = st.lists(st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
    lambda flag: st.sampled_from(_FLAG_VALUES[flag]).map(
        lambda value: [flag, value])), max_size=3).map(
    lambda pairs: [arg for pair in pairs for arg in pair])


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["interpret", "tag"]), text=_TEXTS,
       flags=_FLAGS)
def test_any_interpret_or_tag_call_exits_with_a_documented_code(
        command, text, flags):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, *demo_args(), *flags, text], out=io.StringIO())
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# fuzzing: any lint or eval call on random resources exits with a
# documented code

# FooFn is declared by some KBs, BarFn by none
_NAMES = st.sampled_from(["A", "B", "Thing", "Integer", "PositiveInteger"])
_TERMS = st.recursive(
    st.one_of(_NAMES, st.sampled_from(["6", "-2", "1/2", '"s"'])),
    lambda inner: st.builds("({} {})".format,
                            st.sampled_from(["FooFn", "BarFn"]), inner),
    max_leaves=3)
_KB_FORMS = st.one_of(
    st.builds("({} {})".format, st.sampled_from(["collection", "individual"]),
              _NAMES),
    st.builds("({} {} {})".format,
              st.sampled_from(["isa", "genls", "disjoint"]), _TERMS, _TERMS),
    st.builds("(fn FooFn 1 ({} {}))".format,
              st.sampled_from(["resultIsa", "resultGenls"]), _NAMES),
    st.just("(fn FooFn 1 (resultGenlsArg 1))"),
    st.builds("({} p {} {})".format, st.sampled_from(["argIsa", "argGenls"]),
              st.sampled_from(["1", "2"]), _NAMES),
    st.builds("(interArgGenls p 1 {} 2 {})".format, _NAMES, _NAMES),
    st.builds("(fact base (p {} {}))".format, _TERMS, _TERMS))
_WORDS = ["a", "b", "foo", "6", "2", "six"]
_LEX_FORMS = st.one_of(
    st.builds('(lex "{}" {})'.format, st.sampled_from(_WORDS), _NAMES),
    st.builds('(lex-nat "{}" {})'.format, st.sampled_from(_WORDS), _TERMS))


@st.composite
def _construction_forms(draw):
    forms = []
    for i in range(draw(st.integers(0, 3))):
        slot = f"${draw(_NAMES)}#0"
        word = draw(st.sampled_from(["", " foo", " a"]))
        head = draw(st.sampled_from(["p", "FooFn", "BarFn"]))
        tests = "".join(
            f" :test{sign} ({pred} {slot} {draw(_NAMES)})"
            for sign, pred in draw(st.lists(st.tuples(
                st.sampled_from("+-"), st.sampled_from(["isa", "genls"])),
                max_size=2)))
        forms.append(f'(construction :id c{i} :lang en :nl "{slot}{word}" '
                     f":logic ({head} {slot}) :output-type {draw(_NAMES)}"
                     f"{tests})")
    return forms


_CAPTIONS = st.lists(st.lists(st.sampled_from(_WORDS), min_size=1,
                              max_size=4).map(" ".join), max_size=3)
_VERDICTS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                               st.sampled_from(["correct", "incorrect"])),
                     max_size=4)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["lint", "eval"]),
       kb=st.lists(_KB_FORMS, max_size=8), lexicon=st.lists(_LEX_FORMS,
                                                            max_size=4),
       constructions=_construction_forms(), captions=_CAPTIONS,
       verdicts=st.none() | _VERDICTS, json_format=st.booleans())
def test_any_lint_or_eval_call_exits_with_a_documented_code(
        command, kb, lexicon, constructions, captions, verdicts, json_format):
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, lines in (
                ("kb", kb), ("lexicon", lexicon),
                ("constructions", constructions),
                ("captions", [f"c{i}\t{t}" for i, t in enumerate(captions)]),
                ("verdicts",
                 [f"c{c} i{i} {v}" for c, i, v in verdicts or ()])):
            files[name] = Path(tmp, name)
            files[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [command, "--kb", str(files["kb"]),
                "--lexicon", str(files["lexicon"]),
                "--constructions", str(files["constructions"])]
        if command == "eval":
            argv.append(str(files["captions"]))
            if verdicts is not None:
                argv += ["--verdicts", str(files["verdicts"])]
        if json_format:
            argv += ["--format", "json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv, out=io.StringIO())
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
