"""Beam-search repair: blueprint, expansion, pruning, selection, budget."""

from __future__ import annotations

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrelay.errors import EmptyBlueprint, RepairError, RepairFailed
from kgrelay.kg import KnowledgeGraph, load_tsv
from kgrelay.providers import TokenOverlapEmbedder
from kgrelay.repair import (
    RepairConfig,
    expand_beam,
    filter_paths,
    generate_blueprint,
    linearize,
    repair,
    select_paths,
)
from conftest import timed
from oracle import (
    CountingLlm,
    FirstPathLlm,
    GoldSelectorLlm,
    oracle_reach,
    parse_tsv,
    random_graph_tsv,
    unique_gold_instance,
)

EMB = TokenOverlapEmbedder()


class ReplyLlm:
    """Returns canned replies in order, counting calls."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.calls = 0

    def complete(self, prompt, temperature=0.0):
        self.calls += 1
        return self.replies.pop(0), None


def test_package_root_does_not_shadow_the_module():
    # A package root that re-exports the function ``repair`` binds it here
    # in place of the module.
    import kgrelay.repair as module

    assert module.RepairConfig is RepairConfig


# --- blueprint ---

def test_blueprint_parses_numbered_lines():
    llm = ReplyLlm("preamble\n#1 find the terms\n#2  find the holder \nnoise")
    bp = generate_blueprint(llm, "who?")
    assert bp == ("find the terms", "find the holder")


def test_blueprint_long_line_is_fast():
    gap = " " * 200_000
    llm = ReplyLlm(f"#1 find{gap}the terms  \n#2{gap}\n#3 holder")
    bp, elapsed = timed(lambda: generate_blueprint(llm, "who?"))
    assert elapsed < 1.0
    # a number followed only by spaces gives no step
    assert bp == (f"find{gap}the terms", "holder")


def test_blueprint_skips_numbers_without_text():
    llm = ReplyLlm("#12\n#1 \t\n#3find it\n# 4 not numbered\n#5 2 hops ")
    assert generate_blueprint(llm, "who?") == ("find it", "2 hops")


def test_blueprint_empty_raises():
    llm = ReplyLlm("no steps here, sorry")
    with pytest.raises(EmptyBlueprint):
        generate_blueprint(llm, "who?")
    # numbered lines that are all blank steps give no blueprint either
    with pytest.raises(EmptyBlueprint):
        generate_blueprint(ReplyLlm("#1\n#2   \n#33\t"), "who?")


# --- expansion ---

def test_expand_beam_walks_graph(presidents):
    bp = ("presidents", "office holder")
    out = expand_beam(presidents, "USA", [()], bp, EMB, x=4, trace=[], walks={})
    assert out == [("country.presidents",)]
    out2 = expand_beam(presidents, "USA", out, bp, EMB, x=4, trace=[], walks={})
    assert out2 == [("country.presidents", "president.office_holder")]


def test_repair_levels_expand_one_hop_per_beam_path(monkeypatch):
    calls = []
    image = KnowledgeGraph.image

    def counted(self, frontier, relation):
        calls.append(relation)
        return image(self, frontier, relation)

    monkeypatch.setattr(KnowledgeGraph, "image", counted)
    g = KnowledgeGraph([
        ("S", "a", "A"), ("S", "b", "B"), ("A", "c", "C"), ("B", "d", "D"),
        ("C", "e", "E"), ("D", "f", "F"),
    ])
    llm = ReplyLlm("#1 go", "Path 1 Path 2", "Path 1 Path 2", "Path 1")
    trace: list = []
    assert repair(g, "q", "S", 3, RepairConfig(), llm, EMB, trace, {}) == ("a", "c", "e")
    beams = [ev["beam"] for ev in trace if ev["event"] == "depth"]
    assert beams == [[""], ["a", "b"], ["a -> c", "b -> d"]]
    # Level 1 starts at the topic. Each later level expands each beam path
    # by its last relation only, from the walk the level before left.
    assert calls == ["a", "b", "c", "d"]


def test_expand_beam_dead_end_traced(presidents):
    bp = ("anything",)
    trace = []
    dead = ("country.presidents", "president.office_holder", "position.from")
    out = expand_beam(presidents, "USA", [dead], bp, EMB, x=4, trace=trace, walks={})
    assert out == []
    assert trace == [{"event": "dead_end", "path": linearize(dead)}]


def test_expand_beam_relation_filter(tmp_path):
    # x=1 keeps only the best-scoring relation per blueprint step
    p = tmp_path / "g.tsv"
    p.write_text(
        "S\talpha.one\tA\nS\tbeta.two\tB\nS\tgamma.three\tC\n", encoding="utf-8"
    )
    g = load_tsv(p)
    bp = ("find the beta",)
    out = expand_beam(g, "S", [()], bp, EMB, x=1, trace=[], walks={})
    assert out == [("beta.two",)]
    # two steps union their picks
    bp2 = ("find the beta", "find the gamma")
    out2 = expand_beam(g, "S", [()], bp2, EMB, x=1, trace=[], walks={})
    assert sorted(out2) == [("beta.two",), ("gamma.three",)]


class CountingEmbedder(TokenOverlapEmbedder):
    """The token-overlap embedder, counting each method's calls."""

    def __init__(self):
        self.calls = {"similarity": 0, "rank": 0}

    def similarity(self, a, b):
        self.calls["similarity"] += 1
        return super().similarity(a, b)

    def rank(self, queries, names, k):
        self.calls["rank"] += 1
        return super().rank(queries, names, k)


def sorted_key_expand(g, s1, beam, blueprint, emb, x):
    """expand_beam as written before ``rank``: one sort key per pair."""
    candidates = {}
    for path in beam:
        rels = g.outgoing_relations(g.reach(s1, path, {}))
        keep = set()
        for step in blueprint:
            keep.update(sorted(rels, key=lambda r: (-emb.similarity(step, r), r))[:x])
        for rel in sorted(keep):
            candidates.setdefault(path + (rel,), None)
    return list(candidates)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000_000))
def test_expand_beam_ranks_without_pair_scores(tmp_path_factory, seed):
    rng = random.Random(seed)
    tsv = random_graph_tsv(rng, max_relations=8)
    path = tmp_path_factory.mktemp("x") / "g.tsv"
    path.write_text(tsv, encoding="utf-8")
    g = load_tsv(path)
    og = parse_tsv(tsv)
    # Step words name relation tokens (r3, t5), often two relations at
    # once, so scores tie; some steps share nothing or have no token.
    words = [f"{c}{j}" for c in "rt" for j in range(8)] + ["the", "film", ".", "-"]
    blueprint = tuple(
        " ".join(rng.sample(words, rng.randint(1, 3))) for _ in range(rng.randint(1, 3))
    )
    start = rng.choice(sorted({s for s, _, _ in og.triples}))
    beam = [()]
    for _ in range(3):
        x = rng.randint(1, 4)
        emb = CountingEmbedder()
        out = expand_beam(g, start, beam, blueprint, emb, x, [], {})
        assert out == sorted_key_expand(g, start, beam, blueprint, EMB, x)
        assert emb.calls["similarity"] == 0
        assert emb.calls["rank"] == sum(
            bool(g.outgoing_relations(g.reach(start, path, {}))) for path in beam
        )
        beam = rng.sample(out, min(len(out), 3))
        if not beam:
            break


def test_expand_beam_dedups_across_paths(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("S\tr\tA\nS\ts\tA\nA\tt\tB\n", encoding="utf-8")
    g = load_tsv(p)
    bp = ("step",)
    beam = [("r",), ("s",)]
    out = expand_beam(g, "S", beam, bp, EMB, x=4, trace=[], walks={})
    assert sorted(out) == [("r", "t"), ("s", "t")]


# --- pruning ---

def test_filter_paths_scores_and_caps():
    cands = [
        ("film.actor", "actor.name"),
        ("film.director",),
        ("unrelated.thing",),
    ]
    q = "who directed the film"
    out = filter_paths(q, cands, EMB, y=2)
    assert out == [
        ("film.director",),
        ("film.actor", "actor.name"),
    ]
    assert EMB.similarity(q, linearize(out[0])) > EMB.similarity(q, linearize(out[1])) > 0


def test_filter_paths_tie_breaks_on_text():
    cands = [("zz",), ("aa",)]
    out = filter_paths("question with no overlap", cands, EMB, y=5)
    assert out == [("aa",), ("zz",)]


@pytest.mark.parametrize("cands", [
    [("x", "a -> b"), ("x -> a", "b")],
    [("x -> a", "b"), ("x", "a -> b")],
])
def test_filter_paths_keeps_input_order_on_one_text(cands):
    # Both candidates linearize to "x -> a -> b": their keys are equal.
    out = filter_paths("x a b", cands + [("zz",)], EMB, y=5)
    assert out == cands + [("zz",)]


# --- selection ---

CANDS = [("a",), ("b",), ("c",)]


@pytest.mark.parametrize(
    "reply,expected",
    [
        ("Path 2, Path 1", [("b",), ("a",)]),      # mention order kept
        ("path 3", [("c",)]),                      # lowercase accepted
        ("Path 1, Path 1, Path 2", [("a",), ("b",)]),  # duplicates collapse
        ("I pick Path 2 because Path 2 is best", [("b",)]),
    ],
)
def test_select_paths_parses_references(reply, expected):
    llm = ReplyLlm(reply)
    chosen, got_reply = select_paths(llm, "q", "S", CANDS, n=2)
    assert chosen == expected
    assert got_reply == reply


def test_select_paths_caps_at_n():
    llm = ReplyLlm("Path 1, Path 2, Path 3")
    chosen, _ = select_paths(llm, "q", "S", CANDS, n=2)
    assert chosen == [("a",), ("b",)]


@pytest.mark.parametrize(
    "reply",
    ["Path 9", "Path 0", "no idea",
     pytest.param("Path 1, Path " + "9" * 5000, id="too-long-for-int")],
)
def test_select_paths_falls_back(reply, caplog):
    llm = ReplyLlm(reply)
    with caplog.at_level(logging.WARNING, logger="kgrelay.repair"):
        chosen, _ = select_paths(llm, "q", "S", CANDS, n=2)
    assert chosen == [("a",), ("b",)]
    assert [r.msg for r in caplog.records] == ["selection fallback, reply was %r"]


def test_select_paths_prompt_numbers_candidates():
    prompts = []

    class Spy:
        def complete(self, prompt):
            prompts.append(prompt)
            return "Path 1", None

    select_paths(Spy(), "q", "USA", CANDS, n=1)
    assert "Path 1: USA -> a" in prompts[0]
    assert "Path 3: USA -> c" in prompts[0]


# --- full repair ---

def test_repair_worked_chain(presidents):
    llm = ReplyLlm(
        "#1 find the presidential terms\n#2 find who held the office",
        "Path 1",
        "Path 1",
    )
    trace = []
    rels = repair(
        presidents, "who was president", "USA", 2, RepairConfig(), llm, EMB,
        trace=trace, walks={},
    )
    assert rels == ("country.presidents", "president.office_holder")
    assert llm.calls == 3
    assert [ev["event"] for ev in trace] == ["blueprint", "depth", "depth"]
    assert trace[1]["beam"] == [""]
    assert trace[2]["chosen"] == ["country.presidents -> president.office_holder"]


def test_repair_depth_must_be_positive(presidents):
    with pytest.raises(RepairError, match="repair depth must be at least 1"):
        repair(presidents, "q", "USA", 0, RepairConfig(), ReplyLlm(), EMB, [], {})


def test_repair_depth_capped(tmp_path):
    # depth 9 caps to 4: one blueprint call plus four selections
    tsv = "S\thop.fwd\tA\nA\thop.back\tS\n"
    p = tmp_path / "g.tsv"
    p.write_text(tsv, encoding="utf-8")
    g = load_tsv(p)
    llm = FirstPathLlm(2)
    rels = repair(g, "q", "S", 9, RepairConfig(), llm, EMB, [], {})
    assert rels == ("hop.fwd", "hop.back", "hop.fwd", "hop.back")
    assert llm.calls == 5
    assert oracle_reach(parse_tsv(tsv), "S", rels) == frozenset({("e", "S")})


def test_repair_failure_reports_depth(tmp_path):
    # the only chain is 2 long; asking for 3 dead-ends at level 3
    p = tmp_path / "g.tsv"
    p.write_text("S\tr\tA\nA\ts\t\"leaf\"\n", encoding="utf-8")
    g = load_tsv(p)
    llm = FirstPathLlm(2)
    with pytest.raises(RepairFailed) as err:
        repair(g, "q", "S", 3, RepairConfig(), llm, EMB, [], {})
    assert err.value.depth_reached == 3
    assert "depth 3" in str(err.value)


def test_repair_call_budget_random():
    rng = random.Random(7)
    for _ in range(15):
        tsv, og, start, depth, gold, _ = unique_gold_instance(rng)
        import tempfile

        f = tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False)
        f.write(tsv)
        f.close()
        g = load_tsv(f.name)
        llm = GoldSelectorLlm(gold, start)
        cfg = RepairConfig(beam_width=3, relation_filter=10, path_filter=64)
        rels = repair(g, "q", start, depth, cfg, llm, EMB, [], {})
        assert rels == gold
        assert llm.calls == depth + 1


def test_counting_llm_counts():
    llm = CountingLlm(ReplyLlm("a", "b"))
    llm.complete("x")
    llm.complete("y")
    assert llm.calls == 2
