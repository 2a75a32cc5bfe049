"""The relation-major graph index against brute-force scans of the triples."""

from __future__ import annotations

import random
import sys
import tracemalloc
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from kgrelay.execute import evaluate_query
from kgrelay.kg import NUMERIC, STRING, KnowledgeGraph, Literal, load_tsv, parse_literal_token
from kgrelay.reasoning import Constraint, EntityMatch, ReasoningPath
from kgrelay.sparql import path_to_sparql
from conftest import full_answers
from oracle import keyset, oracle_execute, oracle_reach, parse_tsv

_RELATIONS = ["one", "many", "mixed", "link"]
_LITERALS = ['"7"^^xsd:integer', '"7"', '"2001-05"^^xsd:dateTime', '"red"@en']


def index_graph_tsv(rng: random.Random) -> str:
    """A shuffled random graph with every shape the index stores apart:
    duplicate triples, subjects with one and with several objects under a
    relation, entity objects that are also subjects, and one relation
    (``mixed``) with both entity and literal objects."""
    entities = [f"E{i}" for i in range(rng.randint(3, 12))]
    lines = []
    for s in entities:
        for r in rng.sample(_RELATIONS, rng.randint(0, len(_RELATIONS))):
            for _ in range(1 if r == "one" else rng.randint(1, 4)):
                if r == "mixed" and rng.random() < 0.5:
                    lines.append(f"{s}\t{r}\t{rng.choice(_LITERALS)}")
                else:
                    lines.append(f"{s}\t{r}\t{rng.choice(entities)}")
    lines += [
        "S1\tone\tE0",
        "S2\tmany\tE0",
        "S2\tmany\tE1",
        "S1\tmixed\tS2",
        'S2\tmixed\t"7"^^xsd:integer',
        "E0\tlink\tS1",
    ]
    lines += rng.choices(lines, k=rng.randint(1, 5))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_index_matches_a_scan_of_the_triples(tmp_path_factory, seed):
    rng = random.Random(seed)
    tsv = index_graph_tsv(rng)
    path = tmp_path_factory.mktemp("i") / "g.tsv"
    path.write_text(tsv, encoding="utf-8")
    g = load_tsv(path)
    og = parse_tsv(tsv)
    triples = og.triples

    # the generator planted every shape
    lines = [line for line in tsv.splitlines() if line]
    assert len(lines) > len(triples)
    sizes = {len(og.objects(s, r)) for s, r, _ in triples}
    assert 1 in sizes and max(sizes) > 1
    assert {o[0] for s, r, o in triples if r == "mixed"} == {"e", "l"}
    subjects = {s for s, _, _ in triples}
    assert any(o[0] == "e" and o[1] in subjects for _, _, o in triples)

    names = sorted(og.entities) + ["Ghost"]
    literals = [parse_literal_token(t) for t in _LITERALS]
    for e in names:
        assert g.outgoing_relations([e]) == sorted({r for s, r, _ in triples if s == e})
    for r in sorted(og.relations) + ["nope"]:
        for e in names:
            assert keyset(g.neighbors(e, r)) == og.objects(e, r)
            assert g.subjects(r, e) == {s for s, r2, o in triples if r2 == r and o == ("e", e)}
        assert g.subjects(r, None) == frozenset()
        assert {s: keyset(objs) for s, objs in g.objects(r).items()} == {
            s: og.objects(s, r) for s, r2, _ in triples if r2 == r
        }

    for _ in range(5):
        frontier = rng.sample(names, rng.randint(0, len(names)))
        assert g.outgoing_relations(frontier) == sorted(
            {r for s, r, _ in triples if s in frontier}
        )
        r = rng.choice(sorted(og.relations) + ["nope"])
        assert keyset(g.image(frontier, r)) == set().union(
            *(og.objects(e, r) for e in frontier))
        start = rng.choice(names)
        chain = tuple(rng.choices(sorted(og.relations) + ["nope"], k=rng.randint(0, 3)))
        reached = g.reach(start, chain, {})
        assert keyset(reached) == oracle_reach(og, start, chain)
        # A walked frontier goes to outgoing_relations as it is; its
        # literals contribute nothing, alone or among entities.
        assert g.outgoing_relations(reached) == sorted(
            {r for s, r, _ in triples if ("e", s) in keyset(reached)}
        )
        mixed = frontier + rng.sample(literals, rng.randint(1, len(literals)))
        assert g.outgoing_relations(mixed) == g.outgoing_relations(frontier)
        assert g.outgoing_relations(mixed[-1:]) == []

    # entity constraints, at any hop, grounded or not
    for _ in range(5):
        depth = rng.randint(1, 3)
        rp = ReasoningPath(
            "t",
            tuple(rng.choices(_RELATIONS, k=depth)),
            tuple(
                Constraint(
                    rng.randint(1, depth),
                    rng.choice(_RELATIONS),
                    EntityMatch(t, entity=t) if t != "Ghost" else EntityMatch(t),
                )
                for t in rng.choices(names, k=rng.randint(1, 3))
            ),
            topic_entity=rng.choice(sorted(subjects)),
        )
        got = full_answers(g, rp)
        assert keyset(got) == oracle_execute(og, rp)
        grounded = replace(rp, constraints=tuple(
            c for c in rp.constraints if c.value.entity is not None))
        assert evaluate_query(g, path_to_sparql(grounded), {}) == full_answers(g, grounded)


def test_equal_object_sets_are_one_object():
    g = KnowledgeGraph([
        ("a", "r", "x"), ("a", "r", "y"),
        ("b", "r", "y"), ("b", "r", "x"),
        ("c", "s", "x"), ("c", "s", "y"), ("c", "s", "x"),
        ("a", "t", Literal(NUMERIC, "7")),
        ("b", "u", Literal(NUMERIC, "7")),
        ("c", "u", Literal(NUMERIC, "7")), ("c", "u", Literal(NUMERIC, "7")),
        ("a", "s", "x"), ("b", "t", "x"),
    ])
    # several objects, in any order, under one relation or another
    assert g.neighbors("a", "r") == {"x", "y"}
    assert g.neighbors("a", "r") is g.neighbors("b", "r") is g.neighbors("c", "s")
    # one object, including equal literals that are not one object
    assert g.neighbors("a", "t") == {Literal(NUMERIC, "7")}
    assert g.neighbors("a", "t") is g.neighbors("b", "u") is g.neighbors("c", "u")
    assert g.neighbors("a", "s") is g.neighbors("b", "t")
    assert g.neighbors("a", "s") == {"x"}
    assert len(g) == 11


def test_image_of_one_node_is_the_graph_own_set():
    g = KnowledgeGraph([
        ("a", "r", "x"), ("a", "r", "y"), ("b", "r", "z"),
        ("x", "s", Literal(NUMERIC, "7")),
    ])
    own = g.objects("r")["a"]
    assert g.image({"a"}, "r") is own
    assert g.image(frozenset({"a"}), "r") is own
    assert g.reach("a", ("r",), {}) is own
    # no objects: the absent subject, the absent relation and a literal
    assert g.image({"ghost"}, "r") == g.image({"a"}, "nope") == frozenset()
    assert g.image({Literal(NUMERIC, "7")}, "s") == frozenset()
    # a larger frontier gets a new union
    union = g.image({"a", "b", Literal(NUMERIC, "7")}, "r")
    assert type(union) is frozenset
    assert union == {"x", "y", "z"}
    assert g.image(set(), "r") == frozenset()
    assert type(g.reach("a", (), {})) is frozenset


def test_index_memory_per_triple():
    # A hub graph of 50k triples: 4,000 members with ten single-valued
    # attributes over few distinct values, and a multi-object tag relation.
    # Names are interned, as load_tsv interns them, so the alias table
    # shares a lower-case name instead of interning a copy: the first new
    # string that fills CPython's process-wide interned table resizes it
    # (about 2 MB), and a window that interned thousands of copies would
    # catch that resize or not depending on what ran before it.
    rng = random.Random(5)
    members = [sys.intern(f"m{i}") for i in range(4000)]
    attributes = [sys.intern(f"attr.{j}") for j in range(10)]
    values = [Literal(STRING, f"v{k}") for k in range(6)] + [sys.intern(f"V{k}") for k in range(6)]
    tags = [sys.intern(f"tag{k}") for k in range(8)]
    triples = [(m, a, rng.choice(values)) for m in members for a in attributes]
    triples += [(m, "member.tag", t) for m in members for t in rng.sample(tags, 2)]
    triples += [("hub", "hub.member", m) for m in members]

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = KnowledgeGraph(iter(triples))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(g) == 52_000
    # Measured 29 B per triple on CPython 3.11 (a graph of one frozenset
    # per subject and relation kept 232); the bound is about 1.5 times that.
    assert kept / len(g) < 43
