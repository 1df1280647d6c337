import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import helpers
from conftest import (BIO_CG_FILES, BIO_KB_FILES, BIO_LEX_FILES,
                      DEMO_CG_FILES, DEMO_KB_FILES, DEMO_LEX_FILES)
from helpers import (brute_force_matches, full_sweep_window_loop,
                     graph_outcome, random_instance, reference_antecedents,
                     retrieval_signatures)
from construe import interpreter
from construe.constructions import (LEXICAL_SOURCE, TypedSlot,
                                    load_constructions)
from construe.interpreter import (MAX_NESTING, EngineConfig, ParseGraph,
                                  TraceEvent, apply_construction, compose,
                                  finalize, interpret, resolve_anaphora,
                                  retrieve, window_loop)
from construe.kb import ContextStack, KnowledgeBase, load_kb
from construe.logic import (Constant, QueryVar, children,
                            equal_modulo_renaming, free_query_vars,
                            is_sentence, parse_expr, print_expr)
from construe.tagger import Lexicon, load_lexicon, tag


@pytest.fixture(scope="module")
def run(demo_kb, demo_repo, demo_lexicon):
    def _run(text, **kwargs):
        config = EngineConfig(**kwargs) if kwargs else EngineConfig()
        return interpret(text, demo_kb, demo_repo, demo_lexicon, config)
    return _run


@pytest.fixture(scope="module")
def run_bio(bio_kb, bio_repo, bio_lexicon):
    def _run(text, **kwargs):
        config = EngineConfig(**kwargs) if kwargs else EngineConfig()
        return interpret(text, bio_kb, bio_repo, bio_lexicon, config)
    return _run


BIG_BLUE = ("(LargeFn (SubcollectionOfWithRelationToFn Building "
            "mainColorOfObject BlueColor))")
RESIDUE_READING = ("(PolypeptideTypeWithResidueAtPositionReplacedByResidueTypeFn "
                   "K-Ras-Protein (AminoAcidResidueTypeFn Glycine) 12 "
                   "(AminoAcidResidueTypeFn Valine))")


def full_span_edges(graph):
    n = len(graph.tokens)
    return [e for e in graph.edges
            if e.source != "lex" and (e.start, e.end) == (0, n)]


# ---------------------------------------------------------------------------
# interpret

def test_big_blue_building_full_span(run):
    graph = run("big blue building")
    edges = full_span_edges(graph)
    assert len(edges) == 1
    assert print_expr(edges[0].logic) == BIG_BLUE
    assert edges[0].output_type == Constant("Building")


def test_empty_input(run):
    graph = run("")
    assert graph.tokens == []
    assert graph.edges == []
    assert finalize(graph) == []


def test_residue_substitution_unique(run_bio):
    graph = run_bio("G12V-K-Ras")
    edges = full_span_edges(graph)
    assert len(edges) == 1
    assert print_expr(edges[0].logic) == RESIDUE_READING


def test_interpretation_is_bottom_up(run):
    graph = run("big blue building")
    inner = parse_expr("(SubcollectionOfWithRelationToFn Building "
                       "mainColorOfObject BlueColor)")
    sub_edges = [e for e in graph.edges_at(1, 3) if e.source != "lex"]
    assert any(e.logic == inner for e in sub_edges)
    outer = next(e for e in full_span_edges(graph))
    child_ids = dict(outer.children)
    assert graph.edges[child_ids[0]].logic == inner


def test_every_final_edge_passes_plausibility(run, demo_kb):
    for text in ("big blue building", "the song has 6 notes",
                 "a bank is a kind of company", "2 sandwiches"):
        graph = run(text)
        for e in graph.edges:
            assert demo_kb.check_plausibility(e.logic) == []


def test_type_soundness_of_bindings(run, demo_kb):
    graph = run("Barack Obama eats a sandwich")
    for e in graph.edges:
        if e.source == "lex" or not e.children:
            continue
        c = graph.repo.constructions[e.source]
        types = {s.index: s.type for s in c.all_slots()}
        for slot_index, child_id in e.children:
            child = graph.edges[child_id]
            assert demo_kb.subsumes(Constant(types[slot_index]),
                                    child.output_type, "auto")


def test_truncation_reported(run):
    graph = run("big blue building", max_edges=2)
    assert graph.truncated and graph.truncated_by == "edge limit"


def test_nesting_cap_stops_a_construction_feeding_its_own_slot(demo_kb,
                                                              demo_lexicon):
    repo = load_constructions(text='(construction :id wrap :nl "$Building#0" '
                                   ':logic (LargeFn $Building#0) '
                                   ':output-type Building)')
    graph = interpret("building", demo_kb, repo, demo_lexicon)
    assert graph.truncated
    assert graph.truncated_by == f"nesting limit ({MAX_NESTING} levels)"
    assert [e.nesting for e in graph.edges] == list(range(MAX_NESTING + 1))
    assert print_expr(graph.edges[-1].logic) == \
        "(LargeFn " * MAX_NESTING + "Building" + ")" * MAX_NESTING


# ---------------------------------------------------------------------------
# window loop

def test_window_sizes_explored(run):
    graph = run("big blue building")
    # from the left anchor, sizes shrink until something applies
    assert (0, 3) in graph.pattern_counts
    assert (0, 2) in graph.pattern_counts
    assert (0, 1) in graph.pattern_counts


def test_window_loop_idempotent_at_fixpoint(run):
    graph = run("Barack Obama eats a sandwich")
    before = len(graph.edges)
    window_loop(graph)
    assert len(graph.edges) == before


DEMO_TEXTS = ("big blue building", "2 sandwiches", "Barack Obama eats a sandwich",
              "blowing out candles", "blowing out tires",
              "intracellular accumulation", "electron transport",
              "white house dancing", "a bank is a kind of company",
              "the song has 6 notes", "wimbledon , the end of the 2015 season",
              "wimbledon olympics , the end of the 2015 season",
              "the end of the 2015 season", "cat kibble", "kick the bucket",
              "wimbledon olympics superbowl daytona masters euro , "
              "the end of the 2015 season")
BIO_TEXTS = ("G12V-K-Ras", "V12G-K-Ras")


@pytest.mark.parametrize("max_window", [12, 3, 2])
def test_agenda_matches_full_sweeps_on_phrases(demo_kb, demo_repo, demo_lexicon,
                                               bio_kb, bio_repo, bio_lexicon,
                                               monkeypatch, max_window):
    config = EngineConfig(max_window=max_window)
    cases = [(t, demo_kb, demo_repo, demo_lexicon) for t in DEMO_TEXTS]
    cases += [(t, bio_kb, bio_repo, bio_lexicon) for t in BIO_TEXTS]
    agenda = [graph_outcome(interpret(*case, config)) for case in cases]
    monkeypatch.setattr(interpreter, "window_loop", full_sweep_window_loop)
    full = [graph_outcome(interpret(*case, config)) for case in cases]
    for case, got, expected in zip(cases, agenda, full):
        assert got == expected, case[0]


# "finale" finds no Event to its left on the first sweep; the only one,
# "great big olympics", is built on the second sweep, when nothing has
# changed inside the window of "finale".  "big olympics cup" needs the edge
# that its own anchor added on the previous sweep.
LATE_TEXTS = {"great big olympics finale": ("finale", "(FinaleFn (GreatFn (BigFn Games)))"),
              "big olympics cup": ("cup", "(CupFn (BigFn Games))")}


@pytest.mark.parametrize("text", sorted(LATE_TEXTS))
def test_agenda_revisits_anchors_for_later_edges(monkeypatch, text):
    kb = load_kb(text="(collection Event) (collection Games) (collection Big) "
                      "(fn BigFn 1 (resultGenls Big)) "
                      "(fn CupFn 1 (resultGenls Event)) "
                      "(fn GreatFn 1 (resultGenls Event)) "
                      "(fn FinaleFn 1 (resultGenls Event))")
    lexicon = load_lexicon(text='(lex "olympics" Games)')
    repo = load_constructions(text="""
        (construction :id big :nl "big $Games#0" :logic (BigFn $Games#0)
          :output-type Big)
        (construction :id cup :nl "$Big#0 cup" :logic (CupFn $Big#0)
          :output-type Event)
        (construction :id great :nl "great $Big#0" :logic (GreatFn $Big#0)
          :output-type Event)
        (construction :id finale :nl "finale" :logic (FinaleFn $Event#1)
          :anaphoric ($Event#1) :output-type Event)""")
    graph = interpret(text, kb, repo, lexicon)
    source, logic = LATE_TEXTS[text]
    assert [print_expr(e.logic) for e in graph.edges
            if e.source == source] == [logic]
    monkeypatch.setattr(interpreter, "window_loop", full_sweep_window_loop)
    assert graph_outcome(graph) == graph_outcome(interpret(text, kb, repo,
                                                           lexicon))


def test_revisit_below_an_anaphoric_stop_that_no_longer_applies(monkeypatch):
    """"finale now" stops its anchor's first visit: its fifth antecedent
    candidate, "big", passes its test.  On the second sweep "great big
    olympics" comes nearer and pushes "big" out of the five, so that window
    no longer applies, and the revisit runs the window "finale" below it for
    the first time."""
    kb = load_kb(text="(collection Event) (collection Games) (collection Big) "
                      "(collection GoodEvent) (genls Games Event) "
                      "(genls GoodEvent Event) (collection Parade) "
                      "(genls Parade GoodEvent) "
                      + "".join(f"(collection Olympics{i}) "
                                f"(genls Olympics{i} Games) " for i in range(4))
                      + "(fn BigFn 1 (resultGenls Big)) "
                        "(fn GreatFn 1 (resultGenls Event)) "
                        "(fn FinaleFn 1 (resultGenls Event))")
    lexicon = load_lexicon(text='(lex "big" Parade) ' + "".join(
        f'(lex "olympics" Olympics{i}) ' for i in range(4)))
    repo = load_constructions(text="""
        (construction :id big :nl "big $Games#0" :logic (BigFn $Games#0)
          :output-type Big)
        (construction :id great :nl "great $Big#0" :logic (GreatFn $Big#0)
          :output-type Event)
        (construction :id finale :nl "finale now" :logic (FinaleFn $Event#1)
          :anaphoric ($Event#1) :test+ (genls $Event#1 GoodEvent)
          :output-type Event)
        (construction :id solo :nl "finale" :logic (FinaleFn Parade)
          :output-type Event)""")
    text = "great big olympics finale now"
    graph = interpret(text, kb, repo, lexicon)
    made = [(e.source, print_expr(e.logic)) for e in graph.edges]
    assert made.index(("finale", "(FinaleFn Parade)")) \
        < made.index(("great", "(GreatFn (BigFn Olympics0))")) \
        < made.index(("solo", "(FinaleFn Parade)"))
    monkeypatch.setattr(interpreter, "window_loop", full_sweep_window_loop)
    assert graph_outcome(graph) == graph_outcome(interpret(text, kb, repo,
                                                           lexicon))


def test_agenda_matches_full_sweeps_on_random_instances():
    for seed in range(150):
        graph, _ = random_instance(random.Random(seed))
        oracle, _ = random_instance(random.Random(seed))
        window_loop(graph)
        full_sweep_window_loop(oracle)
        assert graph_outcome(graph) == graph_outcome(oracle), seed


def test_a_warm_kb_gives_what_a_fresh_one_gives(demo_repo, demo_lexicon,
                                              bio_repo, bio_lexicon,
                                              monkeypatch):
    """The KB's memos (``lexical_reading``, ``filler_types``, the
    closures) are idempotent: on a KB already used for other inputs, an
    input has the outcome it has on a freshly loaded one."""
    sets = [(DEMO_KB_FILES, demo_repo, demo_lexicon, DEMO_TEXTS),
            (BIO_KB_FILES, bio_repo, bio_lexicon, BIO_TEXTS)]
    for kb_files, repo, lexicon, texts in sets:
        fresh = [graph_outcome(interpret(t, load_kb(kb_files), repo, lexicon))
                 for t in texts]
        warm_kb = load_kb(kb_files)
        for t in reversed(texts):
            interpret(t, warm_kb, repo, lexicon)
        assert [graph_outcome(interpret(t, warm_kb, repo, lexicon))
                for t in texts] == fresh

    def outcome(seed, feeding=False):
        graph, _ = random_instance(random.Random(seed), feeding=feeding)
        window_loop(graph)
        return graph.kb, graph_outcome(graph)

    fresh = [outcome(seed)[1] for seed in range(100)]
    # the KB text of a seed does not depend on *feeding*: from here on each
    # seed's KB is loaded once, used first for the feeding instance, with
    # its other repository and input
    kbs = {}
    monkeypatch.setattr(helpers, "load_kb",
                        lambda text: kbs.setdefault(text, load_kb(text=text)))
    for seed in range(100):
        used, _ = outcome(seed, feeding=True)
        warm, got = outcome(seed)
        assert warm is used and got == fresh[seed], seed


KB_MEMOS = ("_genls_memo", "_isa_memo", "_match_memo", "_reading_memo",
            "_filler_memo")


def test_kb_memos_do_not_grow_with_inputs(demo_repo, demo_lexicon):
    """A number's reading is its collection's, a repeated modifier makes a
    term of a type already asked about, and the closure of a function term
    the KB does not link (one per "big blue" more) is not kept, so each of
    the KB's five memos stays the size that one input of each shape makes
    it."""
    kb = load_kb(DEMO_KB_FILES)

    def sizes():
        return [len(getattr(kb, memo)) for memo in KB_MEMOS]

    shapes = [(lambda n: f"{n} sandwiches", 300),
              (lambda n: f"the song has {n} notes", 300),
              (lambda n: "big " * n + "blue building", 8),
              (lambda n: "big " + "big blue " * n + "building", 6)]
    for shape, _ in shapes:
        interpret(shape(1), kb, demo_repo, demo_lexicon)
    first = sizes()
    assert all(first)
    for shape, count in shapes:
        for n in range(2, count + 1):
            interpret(shape(n), kb, demo_repo, demo_lexicon)
    assert sizes() == first


def test_kb_memos_keep_no_composed_terms():
    """A semantic test matches a fact against a composed collection
    (``match_types``) and an argument constraint asks what a composed
    individual is an instance of (``isa_closure``).  Neither is a term the
    KB links, so no memo keeps it, and the memos stay the size that one
    input of each shape makes them."""
    kb = load_kb(text="(collection A) (collection Thing) (genls A Thing) "
                      "(individual X) (isa X A) (fn F 1 (resultGenlsArg 1)) "
                      "(fn G 1 (resultIsa A)) (argIsa H 1 A) (fact base (p A))")
    lexicon = load_lexicon(text='(lex "x" X) (lex "a" A)')
    repo = load_constructions(text="""
        (construction :id big :nl "big $Thing#0" :logic (F $Thing#0)
          :output-type (slot 0))
        (construction :id good :nl "good $Thing#0" :logic (J $Thing#0)
          :test+ (p $Thing#0) :output-type Thing)
        (construction :id g :nl "g $A#0" :logic (G $A#0) :output-type A)
        (construction :id h :nl "h $A#0" :logic (H $A#0)
          :output-type Thing)""")

    def run(n):
        good = interpret("good " + "big " * n + "a", kb, repo, lexicon)
        h = interpret("h " + "g " * n + "x", kb, repo, lexicon)
        return ([print_expr(e.logic) for e in good.edges if e.source == "good"],
                [print_expr(e.logic) for e in h.edges if e.source == "h"],
                [len(getattr(kb, memo)) for memo in KB_MEMOS])

    def nested(head, functor, leaf, n):
        return f"({head} " + f"({functor} " * n + leaf + ")" * (n + 1)

    first = run(1)[2]
    for n in range(1, 6):
        assert run(n) == ([nested("J", "F", "A", n)], [nested("H", "G", "X", n)],
                          first), n


def _fresh_copy(graph):
    """A graph on *graph*'s text and resources holding the edges it holds
    now, in order."""
    copy = ParseGraph(graph.text, graph.chart, graph.kb, graph.repo,
                      graph.config)
    for e in graph.edges:
        copy.add_edge(e.span, e.source, e.logic, e.output_var, e.output_type,
                      e.kind, e.children)
    return copy


def test_threads_sharing_fresh_resources_match_a_sequential_run():
    """The resource contract: one loaded KB, lexicon and repository serve
    concurrent ``interpret`` calls, each with the outcome it has alone.
    Four threads share freshly loaded resources and switch every
    microsecond, so that they fill the KB's memos at once; a memo stores
    only a finished value and never mutates an entry.  This covers the GIL
    build of CPython only: a free-threaded build, which CI does not run,
    would interleave the threads more finely still."""
    def outcome(graph):
        return graph_outcome(graph) + (graph.truncated_by,)

    def loaded(kb_files, lex_files, cg_files):
        return (load_kb(kb_files), load_constructions(cg_files),
                load_lexicon(lex_files))

    # each input four times in a row, so that all four threads run it at
    # once and ask the KB the same questions
    def phrases(texts, files):
        alone, shared = loaded(*files), loaded(*files)
        return ([o for t in texts for o in [outcome(interpret(t, *alone))] * 4],
                [lambda t=t: interpret(t, *shared)
                 for t in texts for _ in range(4)])

    sets = [phrases(DEMO_TEXTS, (DEMO_KB_FILES, DEMO_LEX_FILES, DEMO_CG_FILES)),
            phrases(BIO_TEXTS, (BIO_KB_FILES, BIO_LEX_FILES, BIO_CG_FILES))]
    for seed in range(40):
        oracle, _ = random_instance(random.Random(seed), feeding=seed % 2 == 1)
        window_loop(oracle)
        seeded, _ = random_instance(random.Random(seed), feeding=seed % 2 == 1)
        copies = [_fresh_copy(seeded) for _ in range(4)]
        sets.append(([outcome(oracle)] * 4,
                     [lambda g=g: window_loop(g) or g for g in copies]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for sequential, runs in sets:
                assert list(pool.map(lambda run: outcome(run()), runs,
                                     timeout=60)) == sequential
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("max_window", [12, 3, 2])
def test_agenda_matches_full_sweeps_on_feeding_instances(monkeypatch,
                                                         max_window):
    """Edges that fill larger windows on later sweeps, and an anaphor with
    more candidates than it keeps: the revisits that run only the sizes
    holding a new edge end where full sweeps end, with less retrieval."""
    windows = {"agenda": 0, "full": 0}

    def counted(name, fn):
        def wrapper(graph, start, end, *watermark):
            windows[name] += 1
            return fn(graph, start, end, *watermark)
        return wrapper

    monkeypatch.setattr(interpreter, "retrieve",
                        counted("agenda", interpreter.retrieve))
    monkeypatch.setattr(helpers, "retrieve", counted("full", helpers.retrieve))
    fed = anaphors = 0
    for seed in range(150):
        graph, _ = random_instance(random.Random(seed), feeding=True,
                                   max_window=max_window)
        oracle, _ = random_instance(random.Random(seed), feeding=True,
                                    max_window=max_window)
        window_loop(graph)
        full_sweep_window_loop(oracle)
        assert graph_outcome(graph) == graph_outcome(oracle), seed
        assert graph.truncated_by == oracle.truncated_by, seed
        sources = [e.source for e in graph.edges]
        fed += any(sources[i] not in ("lex", "syn")
                   for e in graph.edges for _, i in e.children)
        anaphors += "it" in sources
    # construction edges fill construction slots, "it" resolves, and the
    # bounded revisits skip windows
    assert fed > 30 and anaphors > 100
    assert windows["agenda"] < windows["full"]


@pytest.mark.parametrize("max_window", [12, 3, 2])
def test_revisits_apply_only_untried_bindings(demo_kb, demo_repo, demo_lexicon,
                                              bio_kb, bio_repo, bio_lexicon,
                                              monkeypatch, max_window):
    """Semi-naive revisits: a construction without anaphoric slots is never
    applied again with a binding it has tried at that window.  The skipping
    ends with the loop: retrieval on a finished graph, also one that
    ``max_edges`` cut short, returns what brute force finds."""
    applied, repeats = [], []
    apply = interpreter.apply_construction

    def counted(graph, c, binding, span):
        sig = (c.id, span,
               tuple(sorted((s.index, e.id) for s, e in binding.items())))
        applied.append(sig)
        if not c.anaphoric_refs and sig in graph._tried:
            repeats.append(sig)
        return apply(graph, c, binding, span)

    monkeypatch.setattr(interpreter, "apply_construction", counted)
    graphs = []
    for max_edges in (50_000, 12):
        config = EngineConfig(max_window=max_window, max_edges=max_edges)
        graphs += [interpret(t, demo_kb, demo_repo, demo_lexicon, config)
                   for t in DEMO_TEXTS]
        graphs += [interpret(t, bio_kb, bio_repo, bio_lexicon, config)
                   for t in BIO_TEXTS]
    for seed in range(150):
        graph, _ = random_instance(random.Random(seed), feeding=True,
                                   max_window=max_window)
        window_loop(graph)
        graphs.append(graph)
    assert len(applied) > 500 and repeats == []
    assert sum(g.truncated_by == "edge limit" for g in graphs) > 10
    rng = random.Random(max_window)
    for graph in graphs:
        n = len(graph.tokens)
        for _ in range(2 if n else 0):
            start = rng.randrange(n)
            end = rng.randint(start + 1, min(n, start + max_window))
            assert retrieval_signatures(retrieve(graph, start, end)) \
                == brute_force_matches(graph, start, end)


def test_retrieval_under_a_watermark_is_brute_force_restricted(run, run_bio):
    """``retrieve(graph, s, e, since=k)`` returns the brute-force bindings
    that hold an edge numbered k or above, and with ``rerun`` also every
    binding of a construction with anaphoric slots."""
    graphs = [run(t) for t in DEMO_TEXTS] + [run_bio(t) for t in BIO_TEXTS]
    for seed in range(150):
        graph, _ = random_instance(random.Random(seed), feeding=True)
        window_loop(graph)
        graphs.append(graph)
    rng = random.Random(0)
    narrowed = reruns = 0
    for graph in graphs:
        n = len(graph.tokens)
        for _ in range(3 if n else 0):
            start = rng.randrange(n)
            end = rng.randint(start + 1, min(n, start + graph.config.max_window))
            since = rng.randint(0, len(graph.edges))
            full = brute_force_matches(graph, start, end)
            new = {(cid, b) for cid, b in full
                   if any(i >= since for _, i in b)}
            anaphoric = {(cid, b) for cid, b in full
                         if graph.repo.constructions[cid].anaphoric_refs}
            assert retrieval_signatures(
                retrieve(graph, start, end, since=since)) == new
            assert retrieval_signatures(
                retrieve(graph, start, end, since=since, rerun=True)) \
                == new | anaphoric
            narrowed += bool(new) and new != full
            reruns += bool(anaphoric - new)
    assert retrieval_signatures(retrieve(graphs[0], 0, 3)) \
        == brute_force_matches(graphs[0], 0, 3)
    assert narrowed > 20 and reruns > 20


def subterms(e):
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(children(x))


def test_plausibility_skip_gives_the_full_walks_verdicts(monkeypatch, run,
                                                        run_bio):
    """A composition's check skips the term children it substitutes and
    the renamed sentential children it conjoins; on the demo, bio, random
    and feeding random sets every verdict is the full walk's."""
    check = KnowledgeBase.check_plausibility
    skipped = []

    def both(self, e, passed=()):
        found = check(self, e, passed)
        assert found == check(self, e), print_expr(e)
        # compound children that composition kept as the very objects
        parts = list(subterms(e))
        skipped.extend(p for p in passed
                       if children(p) and any(x is p for x in parts))
        return found

    monkeypatch.setattr(KnowledgeBase, "check_plausibility", both)
    for text in ("big blue building", "2 sandwiches", "blowing out candles",
                 "Barack Obama eats a sandwich", "white house dancing",
                 "a bank is a kind of company", "the song has 6 notes",
                 "wimbledon , the end of the 2015 season"):
        run(text)
    for text in ("G12V-K-Ras", "V12G-K-Ras", "intracellular accumulation",
                 "electron transport"):
        run_bio(text)
    for seed in range(100):
        for feeding in (False, True):
            graph, _ = random_instance(random.Random(seed), feeding=feeding)
            window_loop(graph)
    assert skipped
    assert any(is_sentence(p) for p in skipped)


def test_seeded_lexical_edges_are_distinct(run, run_bio):
    """No two seeds share a span and a logic, so seeds need no dedup key."""
    graphs = [run(t) for t in ("the song has 6 notes", "2 sandwiches",
                               "Barack Obama eats a sandwich",
                               "white house dancing", "big blue building")]
    graphs += [run_bio(t) for t in ("G12V-K-Ras", "V12G-K-Ras",
                                    "intracellular accumulation")]
    for seed in range(100):
        # the instance's one-token edges as a lexicon, each reading given
        # twice, in both tables
        instance, _ = random_instance(random.Random(seed))
        lexicon = Lexicon()
        for e in instance.edges:
            if e.source == LEXICAL_SOURCE:
                surface = instance.tokens[e.start].surface
                lexicon.add(surface, [e.logic, e.logic])
                lexicon.add(surface, [e.logic], exact_case=True)
        graphs.append(interpret(instance.text, instance.kb, instance.repo,
                                lexicon))
    seeds = [[(e.span, e.logic) for e in g.edges if e.source == LEXICAL_SOURCE]
             for g in graphs]
    assert all(len(keys) == len(set(keys)) for keys in seeds)
    assert sum(map(len, seeds)) > 200


def test_edges_deduplicated_modulo_renaming(run):
    graph = run("Barack Obama eats a sandwich")
    keys = [(e.start, e.end, e.source,
             print_expr(e.logic)) for e in graph.edges]
    # re-running cannot add an alpha-variant of an existing edge
    window_loop(graph)
    assert len(graph.edges) == len(keys)


# ---------------------------------------------------------------------------
# retrieval

def test_pattern_count_reports_reading_product(run_bio):
    graph = run_bio("G12V-K-Ras")
    assert graph.pattern_counts[(0, 5)] == 140


def test_retrieve_unknown_tokens_empty(run):
    graph = run("zyx wvu")
    assert retrieve(graph, 0, 2) == []


def test_retrieve_matches_brute_force_on_random_instances():
    rng = random.Random(42)
    for _ in range(150):
        graph, (start, end) = random_instance(rng)
        got = retrieval_signatures(retrieve(graph, start, end))
        expected = brute_force_matches(graph, start, end)
        assert got == expected


def test_retrieve_matches_brute_force_as_edges_are_added():
    """Retrieval takes its tilings from one walk per anchor and edge count;
    calls that switch anchors and window ends, with edges added between
    them, still see exactly what brute force sees."""
    rng = random.Random(7)
    for _ in range(100):
        graph, (_, n) = random_instance(rng, feeding=rng.random() < 0.5,
                                        max_window=rng.choice((2, 3, 12)))
        names = sorted({e.output_type.name for e in graph.edges})
        for _ in range(12):
            start = rng.randrange(n)
            end = rng.randint(start + 1, n)
            got = retrieval_signatures(retrieve(graph, start, end))
            assert got == brute_force_matches(graph, start, end)
            if names and rng.random() < 0.5:
                s = rng.randrange(n)
                t = Constant(rng.choice(names))
                graph.add_edge((s, rng.randint(s + 1, n)), "added", t, None,
                               t, "collection")


def _deep_window_graph(text, kb, repo, lexicon):
    chart = tag(text, lexicon)
    n = len(chart.tokens)
    graph = ParseGraph(text, chart, kb, repo, EngineConfig(max_window=n))
    interpreter._seed_tag_edges(graph)
    return graph, n


def test_retrieve_on_deep_window(demo_kb, demo_repo, demo_lexicon):
    # windows of this size used to exceed the recursion limit
    graph, n = _deep_window_graph(" ".join(["big blue building"] * 367),
                                  demo_kb, demo_repo, demo_lexicon)
    assert n == 1101
    t0 = time.perf_counter()
    got = retrieve(graph, 0, n)
    assert time.perf_counter() - t0 < 10.0
    assert retrieval_signatures(got) == brute_force_matches(graph, 0, n)

    # a stored key as long as the window: the walk goes the full depth
    words = " ".join(["w"] * 1100)
    repo = load_constructions(
        text=f'(construction :id long :nl "{words}" :logic Marker)')
    graph, n = _deep_window_graph(words, demo_kb, repo, demo_lexicon)
    t0 = time.perf_counter()
    got = retrieve(graph, 0, n)
    assert time.perf_counter() - t0 < 10.0
    assert [(r.construction.id, r.binding) for r in got] == [("long", {})]


# ---------------------------------------------------------------------------
# semantic tests and plausibility during application

def test_positive_test_gates_application(run):
    ok = run("blowing out candles")
    assert len(full_span_edges(ok)) == 1
    blocked = run("blowing out tires")
    assert full_span_edges(blocked) == []
    reasons = [ev for ev in blocked.trace if ev.kind == "positive-test"]
    assert reasons and "event-on-object-type/pos1" in reasons[0].detail


def test_negative_test_blocks_reading(run):
    ok = run("intracellular accumulation")
    assert len(full_span_edges(ok)) == 1
    blocked = run("electron transport")
    assert full_span_edges(blocked) == []
    reasons = [ev for ev in blocked.trace if ev.kind == "negative-test"]
    assert reasons and "movement-to-place/neg1" in reasons[0].detail


def test_plausibility_rejects_instance_role_player(run):
    graph = run("white house dancing")
    assert full_span_edges(graph) == []
    reasons = [ev for ev in graph.trace if ev.kind == "plausibility"]
    assert reasons and "instance-vs-specialization" in reasons[0].detail


def test_context_overlay_enables_application(demo_kb, demo_repo, demo_lexicon, tmp_path):
    from construe.kb import load_kb
    from conftest import DEMO_KB_FILES
    overlay_kb = load_kb(DEMO_KB_FILES + [_overlay_file(tmp_path)])
    plain = interpret("blowing out tires", overlay_kb, demo_repo, demo_lexicon,
                      EngineConfig())
    assert full_span_edges(plain) == []
    cfg = EngineConfig(context=ContextStack(overlay="garage-app"))
    with_overlay = interpret("blowing out tires", overlay_kb, demo_repo,
                             demo_lexicon, cfg)
    assert len(full_span_edges(with_overlay)) == 1


def _overlay_file(tmp_path):
    p = tmp_path / "overlay.kb"
    p.write_text("(fact garage-app ((TypeCapableFn behaviorCapable) "
                 "BlowingOutAFlame objectActedOn Tire))\n", encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# composition

EATS_EXPECTED = ("(and (isa ?E EatingEvent) (doneBy ?E BarackObama) "
                 "(consumedObject ?E ?S) (isa ?S Sandwich))")


def test_composition_matches_hand_derivation(run):
    graph = run("Barack Obama eats a sandwich")
    edges = full_span_edges(graph)
    assert len(edges) == 1
    assert equal_modulo_renaming(edges[0].logic, parse_expr(EATS_EXPECTED))
    assert edges[0].output_var is not None
    assert edges[0].output_type == Constant("EatingEvent")


def test_single_slot_term_composition_is_substitution(run):
    graph = run("big blue building")
    assert print_expr(full_span_edges(graph)[0].logic) == BIG_BLUE


def test_composing_same_child_twice_renames_apart(demo_kb, demo_repo):
    from construe.constructions import parse_construction
    from construe.interpreter import Edge
    matrix = parse_construction(
        '(construction :id pair :lang en :nl "$Food#0 and $Food#1" '
        ':logic (PairFn $Food#0 $Food#1) :output-type Thing)')
    child_logic = parse_expr("(isa ?X Sandwich)")
    child = Edge(0, 0, 1, "indefinite-instance", child_logic, QueryVar("X"),
                 Constant("Sandwich"), "sentential")
    counter = iter(range(1, 10))
    logic, ovar, _, _ = compose(matrix, {TypedSlot("Food", 0): child,
                                         TypedSlot("Food", 1): child},
                                lambda: next(counter))
    names = {v.name for v in free_query_vars(logic)}
    assert names >= {"X_1", "X_2"}
    # a term-denoting matrix absorbing sentential children gains a fresh
    # output variable equated with the term
    assert ovar is not None
    assert f"(equals ?{ovar.name} (PairFn ?X_1 ?X_2))" in print_expr(logic)


def _graph_over(text, kb, repo, lexicon, **config):
    return ParseGraph(text, tag(text, lexicon), kb, repo,
                      EngineConfig(**config))


COMPOSITION_ERRORS = {
    "no output variable": (
        '(construction :id wrap :nl "$Food#0" :logic (WrapFn $Food#0) '
        ':output-type Thing)',
        ("(isa ?X Sandwich)", "sentential"),
        "sentential edge without an output variable cannot fill $Food#0"),
    "unfilled slot": (
        '(construction :id pair :nl "$Food#0 and $Food#1" '
        ':logic (PairFn $Food#0 $Food#1) :output-type Thing)',
        ("Sandwich", "collection"),
        "unfilled logic-template slots: $Food#1"),
    "output variable simplified away": (
        '(construction :id served :nl "$Food#0 served" '
        ':logic (and (equals ?E $Food#0) (servedOn ?E Plate)) '
        ':output-var ?E :output-type Food)',
        ("Sandwich", "collection"),
        "output variable ?E was simplified away"),
}


@pytest.mark.parametrize("case", sorted(COMPOSITION_ERRORS))
def test_a_composition_error_is_traced(demo_kb, demo_repo, demo_lexicon, case):
    from construe.constructions import parse_construction
    text, (logic, kind), detail = COMPOSITION_ERRORS[case]
    c = parse_construction(text)
    graph = _graph_over("sandwich", demo_kb, demo_repo, demo_lexicon)
    # no child has an output variable
    child = graph.insert_edge((0, 1), "child", parse_expr(logic), None,
                              Constant("Sandwich"), kind)
    assert apply_construction(graph, c, {TypedSlot("Food", 0): child},
                              (0, 1)) == []
    assert graph.trace == [TraceEvent("composition", c.id, (0, 1), detail)]
    assert graph.edges == [child]


def test_a_conjunctive_child_passes_its_conjuncts(demo_kb):
    """A sentential child whose renamed logic is a conjunction is passed
    whole and conjunct by conjunct: ``simplify`` splices those very
    conjuncts into the composed logic, where the check skips them."""
    from construe.constructions import parse_construction
    from construe.interpreter import Edge
    matrix = parse_construction(
        '(construction :id eaten :nl "$Food#0 eaten" '
        ':logic (and (isa ?E EatingEvent) (consumedObject ?E $Food#0)) '
        ':output-var ?E :output-type EatingEvent)')
    child = Edge(0, 0, 1, "indefinite-instance",
                 parse_expr("(and (isa ?X Sandwich) (isa ?X Food))"),
                 QueryVar("X"), Constant("Sandwich"), "sentential")
    counter = iter(range(1, 10))
    logic, _, _, passed = compose(matrix, {TypedSlot("Food", 0): child},
                                  lambda: next(counter))
    renamed, *conjuncts = passed
    assert list(renamed.args) == conjuncts
    assert all(any(a is c for a in logic.args) for c in conjuncts)
    assert demo_kb.check_plausibility(logic, passed) == \
        demo_kb.check_plausibility(logic) == []


def test_an_implausible_lexical_reading_is_traced_not_seeded():
    kb = load_kb(text="(collection Agent) (collection Rock) "
                      "(fn OwnerFn 1 (resultIsa Agent)) "
                      "(argIsa OwnerFn 1 Agent)")
    lexicon = load_lexicon(text='(lex-nat "owner" (OwnerFn Rock)) '
                                '(lex "rock" Rock)')
    graph = interpret("owner rock", kb, load_constructions(text=""), lexicon)
    assert [(e.span, print_expr(e.logic)) for e in graph.edges] == \
        [((1, 2), "Rock")]
    assert graph.trace == [TraceEvent(
        "plausibility", LEXICAL_SOURCE, (0, 1),
        "argument 1 of OwnerFn must be an instance of Agent, got Rock")]


def test_add_edge_returns_the_edge_or_its_equal(demo_kb, demo_repo,
                                                demo_lexicon):
    graph = _graph_over("sandwich", demo_kb, demo_repo, demo_lexicon,
                        max_edges=1)

    def add(logic, var, source="s"):
        return graph.add_edge((0, 1), source, parse_expr(logic),
                              QueryVar(var), Constant("Sandwich"),
                              "sentential")

    edge = add("(isa ?X Sandwich)", "X")
    assert graph.edges == [edge]
    # an alpha-variant is the edge already there; a cap stops a new one
    assert add("(isa ?Y Sandwich)", "Y") is edge
    assert add("(isa ?X Sandwich)", "X", source="t") is None
    assert graph.truncated_by == "edge limit"


# ---------------------------------------------------------------------------
# anaphora

def test_anaphora_resolves_nearest_compatible(run):
    graph = run("wimbledon , the end of the 2015 season")
    tops = finalize(graph)
    assert len(tops) == 1
    assert "WimbledonTournament" in print_expr(tops[0].logic)


def test_anaphora_prefers_recent_antecedent(run):
    graph = run("wimbledon olympics , the end of the 2015 season")
    edges = full_span_edges_right(graph)
    cands = resolve_anaphora(graph, TypedSlot("SportsEvent", 1), 3)
    assert cands[0].output_type == Constant("OlympicGames")
    assert cands[1].output_type == Constant("WimbledonTournament")


def full_span_edges_right(graph):
    return [e for e in graph.edges if e.source != "lex"]


def test_anaphora_without_antecedent_skips_construction(run):
    graph = run("the end of the 2015 season")
    assert [e for e in graph.edges if e.source == "season-end"] == []
    assert any(ev.kind == "anaphora" for ev in graph.trace)


def test_anaphora_cap_is_five(run):
    graph = run("wimbledon olympics superbowl daytona masters euro , "
                "the end of the 2015 season")
    cands = resolve_anaphora(graph, TypedSlot("SportsEvent", 1), 7)
    assert len(cands) == 5
    kinds = {print_expr(c.output_type) for c in cands}
    assert "WimbledonTournament" not in kinds  # furthest left is dropped
    interpretations = finalize(graph)
    assert len(interpretations) == 5


def assert_antecedents_match_reference(graph):
    """``resolve_anaphora`` equals its definition for every anaphoric slot
    of the graph's repository and every window start."""
    slots = [s for c in graph.repo.constructions.values()
             for s in c.anaphoric_refs]
    for slot in slots:
        for start in range(len(graph.tokens) + 1):
            assert resolve_anaphora(graph, slot, start) \
                == reference_antecedents(graph, slot, start), (slot, start)
    return len(slots)


@pytest.mark.parametrize("text", [
    "wimbledon , the end of the 2015 season",
    "wimbledon olympics , the end of the 2015 season",
    "wimbledon olympics superbowl daytona masters euro , "
    "the end of the 2015 season",
    "the end of the 2015 season", "big blue building", "2 sandwiches",
    "Barack Obama eats a sandwich", "the song has 6 notes"])
def test_antecedents_match_reference_on_demo_phrases(run, text):
    assert assert_antecedents_match_reference(run(text)) == 1


def test_antecedents_match_reference_on_feeding_instances():
    """Before and after the window loop, with more antecedents than the
    cap in half the instances."""
    for seed in range(150):
        graph, _ = random_instance(random.Random(seed), feeding=True)
        assert assert_antecedents_match_reference(graph) == 1, seed
        window_loop(graph)
        assert_antecedents_match_reference(graph)


# ---------------------------------------------------------------------------
# finalize

def test_statement_mode_closes_sentences(run):
    graph = run("Barack Obama eats a sandwich")
    tops = finalize(graph)
    assert free_query_vars(tops[0].logic) == set()
    assert print_expr(tops[0].logic).startswith("(exists")


def test_question_mode_leaves_variables_free(run):
    graph = run("Barack Obama eats a sandwich",
                outermost_policy="question")
    tops = finalize(graph)
    assert free_query_vars(tops[0].logic)


def test_set_builder_template_binds_its_variable(run):
    graph = run("cat kibble")
    tops = finalize(graph)
    assert len(tops) == 1
    assert print_expr(tops[0].logic) == (
        "(CollectionSubsetFn Kibble (TheSetOf ?FOOD (and (isa ?FOOD Kibble) "
        "(intendedSoleFunction ?FOOD (SubcollectionOfWithRelationToTypeFn "
        "EatingEvent doneBy FelisCat) consumedObject))))")
    # the set variable is bound, so closure is a no-op even in statement mode
    assert not free_query_vars(tops[0].logic)


def test_all_literal_idiom(run):
    graph = run("kick the bucket")
    edges = full_span_edges(graph)
    assert len(edges) == 1
    assert print_expr(edges[0].logic) == "(isa ?E DyingEvent)"


def test_numeric_group_interpretation(run):
    graph = run("2 sandwiches")
    tops = finalize(graph)
    assert len(tops) == 1
    assert print_expr(tops[0].logic) == ("(SubcollectionOfWithRelationToFn "
                                         "(GroupFn Sandwich) groupCardinality 2)")


def test_ranking_prefers_longer_spans(run):
    graph = run("the song has 6 notes")
    all_interps = finalize(graph, maximal_only=False)
    assert all_interps[0].span == (0, 5)
    assert all(all_interps[0].token_length >= it.token_length
               for it in all_interps)


def test_maximal_filter_drops_contained_spans(run):
    graph = run("the song has 6 notes")
    tops = finalize(graph)
    assert [it.span for it in tops] == [(0, 5)]


def test_deterministic_output(run):
    texts = ["Barack Obama eats a sandwich", "the song has 6 notes",
             "wimbledon olympics , the end of the 2015 season"]
    for text in texts:
        a = [print_expr(i.logic) for i in finalize(run(text))]
        b = [print_expr(i.logic) for i in finalize(run(text))]
        assert a == b


def test_language_config_selects_templates(run):
    fr = run("placer casserole à feu vif", language="fr")
    assert len(full_span_edges(fr)) == 1
    en = run("placer casserole à feu vif")
    assert full_span_edges(en) == []


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_window=0)
    with pytest.raises(ValueError):
        EngineConfig(max_edges=0)
    with pytest.raises(ValueError):
        EngineConfig(outermost_policy="maybe")
