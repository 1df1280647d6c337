"""The benchmark's traced run sees the engine: every function that
``perfbench/tracer.py`` rebinds exists under that name, the engine calls
it through that name, and the tracer puts each one back on exit."""

import sys
from pathlib import Path

from conftest import DEMO_CG_FILES, DEMO_KB_FILES, DEMO_LEX_FILES
from construe import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402


def _bindings():
    return tracer.Tracer()._bindings()


def _targets():
    return [(owner, attr) for _, targets, *_ in _bindings()
            for owner, attr in targets]


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_the_tracer_rebinds_every_target_and_restores_it():
    targets = _targets()
    before = [_bound(*target) for target in targets]
    assert len(targets) == 21
    with tracer.Tracer() as t:
        assert t.missing == []
        during = [_bound(*target) for target in targets]
    assert all(d is not b and d.__wrapped__ is b
               for d, b in zip(during, before))
    assert all(_bound(*target) is b for target, b in zip(targets, before))


def test_traced_cli_calls_reach_every_engine_layer():
    """Two demo phrases through ``cli.main`` make a span in each layer the
    tracer names.  ``KnowledgeBase.subsumes`` is the exception: no engine
    path calls it."""
    files = [arg for flag, paths in (("--kb", DEMO_KB_FILES),
                                     ("--lexicon", DEMO_LEX_FILES),
                                     ("--constructions", DEMO_CG_FILES))
             for path in paths for arg in (flag, str(path))]
    with tracer.Tracer() as t:
        for text in ("Barack Obama eats a sandwich", "blowing out candles"):
            assert cli.main(["interpret", *files, text]) == 0
    expected = {name for name, _, _, _, dynamic in _bindings()
                if dynamic is None} - {"kb.subsumes"}
    expected |= {"lookup.skeleton", "lookup.typed"}
    assert expected <= {t.names[i] for i in t.name}
