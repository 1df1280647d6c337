"""The CLI's on-disk resource cache: a hit gives the output a fresh load
gives, and anything that could make an entry stale or untrusted is a miss.
``conftest.private_resource_cache`` gives every test an empty cache."""

import gc
import io
import os
import pickle
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import pytest

import construe
from conftest import (DEMO_CG_FILES, DEMO_KB_FILES, DEMO_LEX_FILES,
                      RESOURCE_DIR)
from helpers import deep_text
from construe import cli
from construe import constructions as cons
from construe import kb as kbmod
from construe import tagger
from construe.logic import MAX_READ_DEPTH, Constant, QueryVar, TypedVar

DEMO_PHRASES = ["big blue building", "2 sandwiches",
                "Barack Obama eats a sandwich", "blowing out candles",
                "blowing out tires", "white house dancing",
                "a bank is a kind of company", "the song has 6 notes",
                "wimbledon , the end of the 2015 season"]
BIO_PHRASES = ["intracellular accumulation", "electron transport",
               "G12V-K-Ras", "V12G-K-Ras"]


def resource_args(kb_files, lex, cg):
    return ([a for p in kb_files for a in ("--kb", str(p))]
            + ["--lexicon", str(lex), "--constructions", str(cg)])


def demo_args(root=RESOURCE_DIR):
    return resource_args([root / "core.kb", root / "demo.kb"],
                         root / "demo.lex", root / "demo.cg")


def bio_args():
    return resource_args([RESOURCE_DIR / "core.kb", RESOURCE_DIR / "bio.kb"],
                         RESOURCE_DIR / "bio.lex", RESOURCE_DIR / "bio.cg")


def call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        rc = cli.main(argv, out=out)
    return rc, out.getvalue(), err.getvalue()


def entries(cache_dir):
    return sorted(cache_dir.glob("*.pickle")) if cache_dir.exists() else []


@pytest.fixture
def loads(monkeypatch):
    """Counts the library loader calls the CLI makes."""
    counts = {"kb": 0, "lexicon": 0, "constructions": 0}
    for owner, attr, name in ((kbmod, "load_kb", "kb"),
                              (tagger, "load_lexicon", "lexicon"),
                              (cons, "load_constructions", "constructions")):
        def counted(paths, fn=getattr(owner, attr), name=name, **kw):
            counts[name] += 1
            return fn(paths, **kw)
        monkeypatch.setattr(owner, attr, counted)
    return counts


@pytest.fixture
def demo_copy(tmp_path):
    """A private copy of the demo resources that a test may rewrite."""
    root = tmp_path / "res"
    root.mkdir()
    for name in ("core.kb", "demo.kb", "demo.lex", "demo.cg"):
        shutil.copy(RESOURCE_DIR / name, root / name)
    return root


@pytest.mark.parametrize("fmt", ["cycl", "json", "trace"])
@pytest.mark.parametrize("text, args", [(t, demo_args()) for t in DEMO_PHRASES]
                         + [(t, bio_args()) for t in BIO_PHRASES])
def test_warm_output_equals_cold(private_resource_cache, loads, text, args,
                                 fmt):
    argv = ["interpret", *args, "--format", fmt, text]
    cold = call(argv)
    assert cold[0] == 0 and len(entries(private_resource_cache)) == 1
    assert call(argv) == cold
    assert loads == {"kb": 1, "lexicon": 1, "constructions": 1}


def test_hit_calls_no_loader(tmp_path, loads):
    captions = tmp_path / "captions.tsv"
    captions.write_text("c1\tbig blue building\n", encoding="utf-8")
    for argv in (["interpret", *demo_args(), "big blue building"],
                 ["tag", *demo_args(), "big blue building"],
                 ["eval", *demo_args(), str(captions)]):
        first = call(argv)
        assert first[0] == 0 and call(argv) == first
    assert loads == {"kb": 1, "lexicon": 1, "constructions": 1}


def test_rewritten_resource_is_a_miss(demo_copy, loads, tmp_path,
                                      monkeypatch):
    argv = ["interpret", *demo_args(demo_copy), "big blue building"]
    before = call(argv)
    lex = demo_copy / "demo.lex"
    st = lex.stat()
    # same size and modification time: only the bytes tell
    lex.write_text(lex.read_text(encoding="utf-8").replace('"blue"', '"bleu"'),
                   encoding="utf-8")
    os.utime(lex, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert lex.stat().st_size == st.st_size
    after = call(argv)
    assert loads["lexicon"] == 2 and after != before
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh"))
    assert call(argv) == after


def test_each_path_set_has_its_own_entry(demo_copy, private_resource_cache,
                                         loads):
    here = ["interpret", *demo_args(), "big blue building"]
    there = ["interpret", *demo_args(demo_copy), "big blue building"]
    assert call(here) == call(there) == call(here) == call(there)
    assert len(entries(private_resource_cache)) == 2 and loads["kb"] == 2


def _run_module(pythonpath, argv, env_extra=None):
    env = dict(os.environ, PYTHONPATH=str(pythonpath), **(env_extra or {}))
    proc = subprocess.run([sys.executable, "-m", "construe", *argv],
                          capture_output=True, env=env, check=True)
    return proc.stdout


def _identity(path):
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


def test_changed_engine_module_is_a_miss(tmp_path, private_resource_cache):
    pkg = tmp_path / "pkg"
    shutil.copytree(Path(construe.__file__).parent, pkg / "construe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["interpret", *demo_args(), "big blue building"]
    cold = _run_module(pkg, argv)
    [entry] = entries(private_resource_cache)
    written = _identity(entry)
    assert _run_module(pkg, argv) == cold and _identity(entry) == written
    module = pkg / "construe" / "tagger.py"
    st = module.stat()
    os.utime(module, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert _run_module(pkg, argv) == cold
    # the miss overwrites the one entry of these paths: no orphan is left
    assert entries(private_resource_cache) == [entry]
    assert _identity(entry) != written
    assert sorted(private_resource_cache.iterdir()) == [entry]


# Edits an engine module of the running package after importing the CLI,
# then interprets twice, counting the KB loads.
_EDITED_WHILE_RUNNING = """
import os, sys
from construe import cli, kb
loads = []
load_kb = kb.load_kb
def counted(*args, **kwargs):
    loads.append(1)
    return load_kb(*args, **kwargs)
kb.load_kb = counted
module = os.path.join(os.path.dirname(cli.__file__), "tagger.py")
st = os.stat(module)
os.utime(module, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
for _ in range(2):
    assert cli.main(sys.argv[1:]) == 0
print(len(loads), file=sys.stderr)
"""


def test_engine_module_edited_after_import_keeps_the_imported_key(
        tmp_path, private_resource_cache):
    """The key names the engine modules as the process imported them: a
    process whose module file changes while it runs writes its entry under
    the code it runs, hits it, and a process started after the change,
    which runs other code, does not load it."""
    pkg = tmp_path / "pkg"
    shutil.copytree(Path(construe.__file__).parent, pkg / "construe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["interpret", *demo_args(), "big blue building"]
    env = dict(os.environ, PYTHONPATH=str(pkg))
    proc = subprocess.run([sys.executable, "-c", _EDITED_WHILE_RUNNING, *argv],
                          capture_output=True, env=env, check=True)
    # one miss, then a hit
    assert proc.stderr.decode().split() == ["1"]
    [entry] = entries(private_resource_cache)
    written = _identity(entry)
    # the later process misses and overwrites the entry, with equal output
    assert 2 * _run_module(pkg, argv) == proc.stdout
    assert _identity(entry) != written


def test_stale_temporary_file_is_cleared(private_resource_cache, loads):
    argv = ["interpret", *demo_args(), "big blue building"]
    cold = call(argv)
    [entry] = entries(private_resource_cache)
    entry.unlink()
    stale = entry.with_name(entry.name + ".tmp")
    stale.write_bytes(b"half an entry")     # as a killed writer leaves it
    assert call(argv) == cold and not stale.exists()
    assert entries(private_resource_cache) == []
    assert call(argv) == cold and entries(private_resource_cache) == [entry]
    assert call(argv) == cold and loads["kb"] == 3


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],
    lambda data: b"not a pickle",
    lambda data: b"",
    lambda data: pickle.dumps(("just", "a", "tuple"))],
    ids=["truncated", "garbage", "empty", "other-pickle"])
def test_corrupt_entry_is_a_miss_and_rewritten(private_resource_cache, loads,
                                               damage):
    argv = ["interpret", *demo_args(), "--format", "json", "2 sandwiches"]
    cold = call(argv)
    [entry] = entries(private_resource_cache)
    entry.write_bytes(damage(entry.read_bytes()))
    assert call(argv) == cold and loads["kb"] == 2
    assert call(argv) == cold and loads["kb"] == 2


@pytest.mark.parametrize("mode", [0o620, 0o602],
                         ids=["group-writable", "other-writable"])
def test_writable_by_others_entry_is_ignored(private_resource_cache, loads,
                                             mode):
    argv = ["interpret", *demo_args(), "big blue building"]
    cold = call(argv)
    [entry] = entries(private_resource_cache)
    entry.chmod(mode)
    assert call(argv) == cold and loads["kb"] == 2
    assert entry.stat().st_mode & 0o777 == 0o600


def test_foreign_entry_is_ignored(private_resource_cache, loads, monkeypatch):
    argv = ["interpret", *demo_args(), "big blue building"]
    cold = call(argv)
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert call(argv) == cold and loads["kb"] == 2


def test_unwritable_cache_still_succeeds(tmp_path, monkeypatch, loads):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    argv = ["interpret", *demo_args(), "big blue building"]
    first = call(argv)
    assert first[0] == 0 and first[2] == ""
    assert call(argv) == first and loads["kb"] == 2


def test_failing_load_is_never_cached(tmp_path, private_resource_cache):
    bad = tmp_path / "bad.cg"
    bad.write_text('(construction :id c :nl "a" :bogus 1)\n', encoding="utf-8")
    argv = ["interpret", "--kb", str(RESOURCE_DIR / "core.kb"),
            "--lexicon", str(RESOURCE_DIR / "demo.lex"),
            "--constructions", str(bad), "a"]
    first = call(argv)
    assert first[0] == 2 and len(first[2].splitlines()) == 1
    assert call(argv) == first
    assert entries(private_resource_cache) == []


def test_miss_evicts_entries_unwritten_for_30_days(private_resource_cache,
                                                   monkeypatch):
    private_resource_cache.mkdir(parents=True)
    old, fresh = (private_resource_cache / f"{name}.pickle"
                  for name in ("old", "fresh"))
    other = private_resource_cache / "old.notes"
    for path in (old, fresh, other):
        path.write_bytes(b"an entry of another checkout")
    month_ago = time.time() - 31 * 24 * 3600
    for path in (old, other):
        os.utime(path, (month_ago, month_ago))
    argv = ["interpret", *demo_args(), "big blue building"]
    assert call(argv)[0] == 0
    assert not old.exists() and fresh.exists() and other.exists()
    [entry] = set(entries(private_resource_cache)) - {fresh}
    # a hit writes nothing, so it evicts nothing
    os.utime(fresh, (month_ago, month_ago))
    assert call(argv)[0] == 0 and fresh.exists()
    # nor does a miss that writes no entry (a writer's temporary is there)
    entry.unlink()
    entry.with_name(entry.name + ".tmp").write_bytes(b"")
    assert call(argv)[0] == 0 and fresh.exists() and not entry.exists()
    # nor is an entry of another user evicted
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert call(argv)[0] == 0 and fresh.exists() and entry.exists()


def _reachable_atoms(root) -> dict:
    """(type, value) -> object for every name string and atomic expression
    reachable from *root*; fails if two equal ones are distinct objects."""
    atoms, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in (str, Constant, QueryVar, TypedVar):
            assert atoms.setdefault((type(obj), obj), obj) is obj, obj
        if not isinstance(obj, (str, int, type)):
            stack.extend(gc.get_referents(obj))
    return atoms


def test_entry_holds_each_name_and_atom_once(private_resource_cache):
    assert call(["interpret", *demo_args(), "2 sandwiches"])[0] == 0
    [entry] = entries(private_resource_cache)
    assert entry.stat().st_size <= 32 * 1024
    _, _, resources = pickle.loads(entry.read_bytes())
    everything = _reachable_atoms(resources)
    kb, lexicon, repo = (_reachable_atoms(part) for part in
                         (resources.kb, resources.lexicon, resources.repo))
    for name, parts in (("Sandwich", (kb, lexicon)),
                        ("DyingEvent", (kb, repo))):
        key = (Constant, Constant(name))
        assert all(part[key] is everything[key] for part in parts)
    assert len(kb.keys() & repo.keys()) > 50


@pytest.mark.parametrize("load, files", [
    (kbmod.load_kb, DEMO_KB_FILES), (tagger.load_lexicon, DEMO_LEX_FILES),
    (cons.load_constructions, DEMO_CG_FILES)], ids=["kb", "lexicon",
                                                    "constructions"])
def test_library_load_holds_each_name_and_atom_once(load, files):
    """A load given no table makes its own, so it too holds one object
    per equal name and atom."""
    atoms = _reachable_atoms(load(list(files)))
    assert sum(kind is Constant for kind, _ in atoms) > 20


def test_resource_changed_while_loading_is_not_cached(
        demo_copy, private_resource_cache, monkeypatch):
    lex = demo_copy / "demo.lex"
    load_lexicon = tagger.load_lexicon

    def load_then_edit(paths, **kw):
        loaded = load_lexicon(paths, **kw)
        lex.write_text(lex.read_text(encoding="utf-8") + "; edited\n",
                       encoding="utf-8")
        return loaded

    monkeypatch.setattr(tagger, "load_lexicon", load_then_edit)
    assert call(["interpret", *demo_args(demo_copy), "big blue building"])[0] == 0
    assert entries(private_resource_cache) == []


def _fact_kb(path, depth):
    """A KB file whose one fact nests *depth* levels."""
    path.write_text(f"(fn F 1 (resultIsa Thing))\n(fact base "
                    f"{deep_text(depth)})\n", encoding="utf-8")
    return path


def test_fact_at_the_read_bound_is_cached_and_one_past_it_is_refused(
        tmp_path, private_resource_cache, loads):
    at = _fact_kb(tmp_path / "at.kb", MAX_READ_DEPTH)
    argv = ["interpret", *demo_args(), "--kb", str(at), "big blue building"]
    cold = call(argv)
    assert cold[0] == 0 and cold[1] and cold[2] == ""
    assert len(entries(private_resource_cache)) == 1
    assert call(argv) == cold
    assert loads == {"kb": 1, "lexicon": 1, "constructions": 1}
    past = _fact_kb(tmp_path / "past.kb", MAX_READ_DEPTH + 1)
    rc, out, err = call(["interpret", *demo_args(), "--kb", str(past),
                         "big blue building"])
    assert rc == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: --kb: kb-syntax: {past}: form at line 2, "
                          "column 1: ")
    assert err.endswith(f"nests deeper than {MAX_READ_DEPTH} levels (line 2, "
                        f"column {12 + 3 * MAX_READ_DEPTH})\n")
    assert err.count("\n") == 1


def test_entry_reads_the_same_under_another_hash_seed(
        private_resource_cache, tmp_path):
    src = Path(construe.__file__).parent.parent
    argv = ["interpret", *demo_args(), "--format", "json",
            "wimbledon , the end of the 2015 season"]
    written = _run_module(src, argv, {"PYTHONHASHSEED": "0"})
    [entry] = entries(private_resource_cache)
    identity = _identity(entry)
    read = _run_module(src, argv, {"PYTHONHASHSEED": "1"})
    assert _identity(entry) == identity
    fresh = _run_module(src, argv, {"PYTHONHASHSEED": "1",
                                    "XDG_CACHE_HOME": str(tmp_path / "fresh")})
    assert written == read == fresh


def test_entry_loads_through_the_setter_tables_alone(private_resource_cache,
                                                     monkeypatch):
    """Loading an entry derives nothing: each value with derived slots is
    filled from its class's setter table, built with the class, and no
    ``_derive`` hook runs, on the load or on the warm call.  What loads
    equals a fresh load, derived slots included."""
    from construe.constructions import (Construction, TemplateVariant,
                                        load_constructions)
    argv = ["interpret", *demo_args(), "--format", "json", "2 sandwiches"]
    cold = call(argv)
    assert cold[0] == 0
    [entry] = entries(private_resource_cache)
    data = entry.read_bytes()
    fresh = load_constructions([RESOURCE_DIR / "demo.cg"])

    def no_derive(self):
        raise AssertionError(f"{type(self).__name__}._derive called")

    monkeypatch.setattr(Construction, "_derive", no_derive)
    monkeypatch.setattr(TemplateVariant, "_derive", no_derive)
    with pytest.raises(AssertionError, match="_derive called"):
        load_constructions([RESOURCE_DIR / "demo.cg"])
    _, _, resources = pickle.loads(data)
    repo = resources.repo
    assert repo.constructions == fresh.constructions
    assert repo.variants == fresh.variants
    restored = 0
    for c in repo.constructions.values():
        f = fresh.constructions[c.id]
        assert c.variants == f.variants and c.logic_slots == f.logic_slots
        assert [v.slots for v in c.variants] == [v.slots for v in f.variants]
        restored += 1 + len(c.variants)
    assert restored >= 40
    assert call(argv) == cold
