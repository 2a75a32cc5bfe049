"""Graph loading, literal handling, traversal, and grounding."""

from __future__ import annotations

import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrelay.errors import BadLiteral, MalformedLine, UnknownEntity
from kgrelay.kg import (
    DATETIME,
    NUMERIC,
    STRING,
    KnowledgeGraph,
    Literal,
    answer_texts,
    escape_quotes,
    load_tsv,
    node_sort_key,
    parse_literal_token,
    unescape_quotes,
)
from oracle import keyset, oracle_reach, parse_tsv, random_graph_tsv


# --- fixture counts, frozen from the independent parse ---

def test_fixture_counts(presidents, presidents_tsv_text):
    og = parse_tsv(presidents_tsv_text)
    assert len(presidents) == len(og.triples) == 12
    assert set(presidents.entities) == og.entities
    assert sorted(presidents.entities) == [
        "Clinton", "GWBush", "Georgetown", "Harvard",
        "Obama", "T1", "T2", "T3", "USA",
    ]
    assert sorted(presidents.relations) == [
        "country.presidents",
        "education.institution",
        "position.from",
        "president.office_holder",
    ]


def test_fixture_reach_worked(presidents, presidents_tsv_text):
    og = parse_tsv(presidents_tsv_text)
    chain = ("country.presidents", "president.office_holder")
    got = presidents.reach("USA", chain, {})
    assert keyset(got) == oracle_reach(og, "USA", chain)
    assert got == {"Obama", "GWBush", "Clinton"}


# --- literal tokens ---

@pytest.mark.parametrize(
    "token,kind,text,lang",
    [
        ('"plain"', STRING, "plain", None),
        ('"hello"@en', STRING, "hello", "en"),
        ('"pt-BR text"@pt-BR', STRING, "pt-BR text", "pt-BR"),
        ('"2009"^^xsd:dateTime', DATETIME, "2009", None),
        ('"2009-01-20"^^xsd:dateTime', DATETIME, "2009-01-20", None),
        ('"42"^^xsd:integer', NUMERIC, "42", None),
        ('"-7"^^xsd:integer', NUMERIC, "-7", None),
        ('"3.14"^^xsd:float', NUMERIC, "3.14", None),
        ('"1e3"^^xsd:float', NUMERIC, "1e3", None),
        ('"say \\"hi\\""', STRING, 'say "hi"', None),
    ],
)
def test_parse_literal_token(token, kind, text, lang):
    lit = parse_literal_token(token)
    assert (lit.kind, lit.text, lit.lang) == (kind, text, lang)


@pytest.mark.parametrize(
    "token",
    [
        '"unclosed',
        '"x"^^xsd:double',   # unsupported tag
        '"x"^^xsd:integer',  # not an integer
        '"3.5"^^xsd:integer',
        '"x"@9en',           # bad language tag
        '""@',
    ],
)
def test_parse_literal_token_rejects(token):
    with pytest.raises(ValueError):
        parse_literal_token(token)


@pytest.mark.parametrize(
    "kind,text",
    [(NUMERIC, "abc"), (NUMERIC, "NaN"), (NUMERIC, "Infinity"),
     (DATETIME, "20-01"), (DATETIME, "2009-1"), ("bogus", "x")],
)
def test_literal_validation(kind, text):
    with pytest.raises(ValueError):
        Literal(kind, text)


def test_literal_value_is_set_once_and_left_out_of_equality():
    assert Literal(NUMERIC, "1e3").value == Decimal("1e3")
    assert Literal(DATETIME, "2001-05").value == "2001-05"
    assert Literal(STRING, "hi", lang="en").value == "hi"
    five, five_point_zero = Literal(NUMERIC, "5"), Literal(NUMERIC, "5.0")
    assert five.value == five_point_zero.value
    assert five != five_point_zero
    assert repr(five) == "Literal(kind='numeric', text='5', lang=None)"
    assert repr(five_point_zero) == "Literal(kind='numeric', text='5.0', lang=None)"


def test_literal_lang_only_for_strings():
    with pytest.raises(ValueError):
        Literal(NUMERIC, "3", lang="en")


@pytest.mark.parametrize(
    "lit,token",
    [
        (Literal(NUMERIC, "42"), '"42"^^xsd:integer'),
        (Literal(NUMERIC, "4.2"), '"4.2"^^xsd:float'),
        (Literal(NUMERIC, "1e3"), '"1e3"^^xsd:float'),
        (Literal(NUMERIC, "1E3"), '"1E3"^^xsd:float'),
        (Literal(DATETIME, "1999"), '"1999"^^xsd:dateTime'),
        (Literal(STRING, "hi", lang="en"), '"hi"@en'),
        (Literal(STRING, 'say "hi"'), '"say \\"hi\\""'),
    ],
)
def test_literal_token_rendering(lit, token):
    assert lit.token() == token
    assert parse_literal_token(token) == lit


@given(st.text())
def test_quote_escape_roundtrip(text):
    assert unescape_quotes(escape_quotes(text)) == text


# --- TSV loading errors ---

def test_load_tsv_malformed_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\trel\tb\nonly two\tfields\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        load_tsv(p)
    assert err.value.line_no == 2


def test_load_tsv_empty_field(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\t\tb\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_tsv(p)


def test_load_tsv_bad_literal(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text('a\trel\t"x"^^xsd:nope\n', encoding="utf-8")
    with pytest.raises(BadLiteral) as err:
        load_tsv(p)
    assert err.value.line_no == 1


def test_load_tsv_skips_blank_lines_and_collapses_duplicates(tmp_path):
    p = tmp_path / "dup.tsv"
    p.write_text("a\trel\tb\n\n   \na\trel\tb\n", encoding="utf-8")
    g = load_tsv(p)
    assert len(g) == 1


def test_load_tsv_shares_names_and_literals(tmp_path):
    p = tmp_path / "shared.tsv"
    p.write_text(
        'Obama\tname\t"Obama"\nClinton\tname\t"Obama"\n'
        "Obama\tparty\tDemocrats\nClinton\tparty\tDemocrats\n",
        encoding="utf-8",
    )
    g = load_tsv(p)
    # a quoted token is a literal, a bare one an entity symbol
    [lit] = g.neighbors("Obama", "name")
    [same_lit] = g.neighbors("Clinton", "name")
    assert lit == Literal(STRING, "Obama")
    assert same_lit is lit
    [party] = g.neighbors("Obama", "party")
    [same_party] = g.neighbors("Clinton", "party")
    assert party == "Democrats"
    assert same_party is party
    assert g.outgoing_relations(["Obama"])[0] is g.outgoing_relations(["Clinton"])[0]


def test_alias_lines(tmp_path):
    p = tmp_path / "alias.tsv"
    p.write_text(
        "USA\thas\tT1\n@alias\tUnited States\tUSA\n@alias\tUnited States\tT1\n",
        encoding="utf-8",
    )
    g = load_tsv(p)
    # tie on the alias resolves to the smallest id
    assert g.ground_entity("united states") == "T1"
    assert g.ground_entity("USA") == "USA"


def test_alias_to_unknown_entity_is_accepted(tmp_path):
    p = tmp_path / "alias.tsv"
    p.write_text("a\trel\tb\n@alias\tghost\tNowhere\n", encoding="utf-8")
    g = load_tsv(p)
    assert g.ground_entity("ghost") == "Nowhere"
    assert g.reach("Nowhere", ("rel",), {}) == set()


def test_alias_line_after_the_triples_grounds(tmp_path):
    p = tmp_path / "alias.tsv"
    p.write_text(
        "@alias\tStates\tT1\nUSA\thas\tT1\nUSA\thas\tT2\n\n@alias\tStates\tT2\n"
        "@alias\tthe union\tUSA\n",
        encoding="utf-8",
    )
    g = load_tsv(p)
    assert g.ground_entity("the union") == "USA"
    assert g.ground_entity("states") == "T1"


def test_alias_ties_resolve_to_the_smallest_id():
    # "Usa" and "USA" share a casefolded surface; an alias adds a third
    # candidate that sorts before both
    triples = [("Usa", "r", "x"), ("USA", "r", "x")]
    g = KnowledgeGraph(triples)
    assert [g.ground_entity(s) for s in ("usa", "Usa", "USA")] == ["USA"] * 3
    g = KnowledgeGraph(triples, {"usa": {"Zed", "America"}, "USa": {"Usa"}})
    assert [g.ground_entity(s) for s in ("usa", "Usa", "USA")] == ["America"] * 3


def test_alias_table_maps_surfaces_to_ids(presidents):
    assert presidents.aliases == {e.casefold(): e for e in presidents.entities}
    assert len(presidents.aliases) == 9


# --- traversal ---

def test_neighbors_and_outgoing_sorted(presidents):
    assert presidents.neighbors("USA", "country.presidents") == {"T1", "T2", "T3"}
    assert presidents.neighbors("USA", "nope") == frozenset()
    assert presidents.neighbors("Ghost", "nope") == frozenset()
    assert presidents.outgoing_relations(["T1", "T2", "T3"]) == [
        "president.office_holder"
    ]
    rels = presidents.outgoing_relations(["Obama", "T1"])
    assert rels == sorted(rels)
    assert rels == [
        "education.institution", "position.from", "president.office_holder"
    ]
    assert presidents.outgoing_relations([]) == []


def test_reach_empty_chain_is_start(presidents):
    assert presidents.reach("USA", (), {}) == {"USA"}


def test_reach_dead_relation(presidents):
    assert presidents.reach("USA", ("country.presidents", "nope"), {}) == set()


def test_reach_drops_intermediate_literals(tmp_path):
    p = tmp_path / "lit.tsv"
    p.write_text(
        'a\tr\t"5"^^xsd:integer\na\tr\tb\nb\tr\tc\n', encoding="utf-8"
    )
    g = load_tsv(p)
    # the literal cannot expand; only the entity path continues
    assert g.reach("a", ("r", "r"), {}) == {"c"}
    assert g.reach("a", ("r",), {}) == {"b", Literal(NUMERIC, "5")}


def test_walk_shares_memo_entries_by_filter_key():
    g = KnowledgeGraph([("a", "r", "b"), ("a", "r", "c"), ("b", "s", "d"), ("c", "s", "e")])
    calls = []

    def keep(graph, frontier, key):
        calls.append(key)
        return frontier & {key[1]}

    memo: dict = {}
    assert g.walk("a", ["r", ("keep", "b")], memo, keep) == {"b"}
    # an equal key reads the entry, and keep is not called again
    assert g.walk("a", ["r", ("keep", "b"), "s"], memo, keep) == {"d"}
    assert calls == [("keep", "b")]
    # an unequal key shares nothing past the hop
    assert g.walk("a", ["r", ("keep", "b", 2), "s"], memo, keep) == {"d"}
    assert g.walk("a", ["r", ("keep", "c"), "s"], memo, keep) == {"e"}
    assert calls == [("keep", "b"), ("keep", "b", 2), ("keep", "c")]
    # the same key after another prefix is another entry
    assert g.walk("a", ["r", ("keep", "b"), "s", ("keep", "d")], memo, keep) == {"d"}
    assert g.walk("a", ["r", "s", ("keep", "d")], memo, keep) == {"d"}
    assert calls[3:] == [("keep", "d"), ("keep", "d")]


def test_ground_entity_casefold_and_unknown(presidents):
    assert presidents.ground_entity("obama") == "Obama"
    assert presidents.ground_entity("OBAMA") == "Obama"
    with pytest.raises(UnknownEntity):
        presidents.ground_entity("Lincoln")


def test_graph_constructible_from_triples():
    g = KnowledgeGraph([("a", "r", "b"), ("a", "r", Literal(STRING, "x"))])
    assert len(g) == 2
    assert g.entities == {"a", "b"}
    # any iterable of tuples will do, and a duplicate triple counts once
    g = KnowledgeGraph(t for t in [("a", "r", "b"), ("b", "s", "c"), ("a", "r", "b")])
    assert len(g) == 2
    assert g.entities == {"a", "b", "c"}
    assert g.relations == {"r", "s"}
    assert g.reach("a", ("r", "s"), {}) == {"c"}
    # neighbour sets are frozen, so a shared graph cannot be changed through them
    assert isinstance(g.neighbors("a", "r"), frozenset)
    assert isinstance(g.neighbors("a", "missing"), frozenset)
    assert isinstance(g.neighbors("nobody", "r"), frozenset)


# --- node helpers ---

def test_node_text_and_sort_key():
    assert answer_texts([Literal(NUMERIC, "5"), "Obama"]) == ["Obama", "5"]
    nodes = [Literal(STRING, "a"), "Z", "A", Literal(NUMERIC, "1")]
    ordered = sorted(nodes, key=node_sort_key)
    assert ordered == ["A", "Z", Literal(NUMERIC, "1"), Literal(STRING, "a")]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_graphs_match_oracle(tmp_path_factory, seed):
    rng = random.Random(seed)
    tsv = random_graph_tsv(rng, max_entities=20, max_relations=6)
    path = tmp_path_factory.mktemp("g") / "g.tsv"
    path.write_text(tsv, encoding="utf-8")
    g = load_tsv(path)
    og = parse_tsv(tsv)
    assert set(g.entities) == og.entities
    assert set(g.relations) == og.relations
    assert len(g) == len(og.triples)
    start = rng.choice(sorted(og.entities))
    chain = tuple(rng.choice(sorted(og.relations)) for _ in range(rng.randint(0, 3)))
    assert keyset(g.reach(start, chain, {})) == oracle_reach(og, start, chain)
