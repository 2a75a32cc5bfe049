"""Query subset: parser, chain analysis, both conversions, round trips."""

from __future__ import annotations

import contextlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrelay.errors import (
    AmbiguousMainPath,
    KgRelayError,
    NoTopicEntity,
    ParseError,
    UnclassifiableBranch,
    UngroundedTopic,
    UnresolvedConstraintEntity,
    UnsupportedFeature,
)
from kgrelay.kg import DATETIME, NUMERIC, STRING, Literal
from kgrelay.reasoning import (
    ComparisonOp,
    Constraint,
    EntityMatch,
    NumericCompare,
    ReasoningPath,
    StringMatch,
    canonicalize,
)
from kgrelay.sparql import (
    FilterClause,
    OrderClause,
    SparqlQuery,
    TriplePattern,
    Var,
    chain_branches,
    find_main_chain,
    parse_sparql,
    path_to_sparql,
    render_sparql,
    round_trip_check,
    sparql_to_path,
)
from conftest import timed
from oracle import random_ungrounded_path

WORKED_QUERY = """\
SELECT DISTINCT ?h2 WHERE {
  :USA :country.presidents ?h1 .
  ?h1 :president.office_holder ?h2 .
  ?h2 :education.institution :Harvard .
  ?h2 :position.from ?c1 .
  FILTER(?c1 >= "2000"^^xsd:dateTime)
}"""

WORKED_ARGMAX_QUERY = """\
SELECT DISTINCT ?h2 WHERE {
  :USA :country.presidents ?h1 .
  ?h1 :president.office_holder ?h2 .
  ?h2 :education.institution :Harvard .
  ?h2 :position.from ?c1 .
  ?h2 :position.from ?c2 .
  FILTER(?c2 >= "2000"^^xsd:dateTime)
}
ORDER BY DESC(?c1) LIMIT 1"""


# --- parser ---

def test_parse_worked_query():
    q = parse_sparql(WORKED_QUERY)
    assert q.select_var == Var("h2")
    assert q.patterns == (
        TriplePattern("USA", "country.presidents", Var("h1")),
        TriplePattern(Var("h1"), "president.office_holder", Var("h2")),
        TriplePattern(Var("h2"), "education.institution", "Harvard"),
        TriplePattern(Var("h2"), "position.from", Var("c1")),
    )
    assert q.filters == (
        FilterClause(Var("c1"), ComparisonOp.GE, Literal(DATETIME, "2000")),
    )
    assert q.order is None


def test_parse_is_keyword_case_insensitive():
    q = parse_sparql(
        'select distinct ?x where { :A :r ?x . filter(?x > "1"^^xsd:integer) }'
    )
    assert q.select_var == Var("x")
    # but FILTER is attached to a chain var here; only the parse is legal


def test_parse_order_clause():
    q = parse_sparql(WORKED_ARGMAX_QUERY)
    assert q.order == OrderClause(Var("c1"), descending=True)
    q2 = parse_sparql(
        "SELECT DISTINCT ?x WHERE { :A :r ?x . ?x :v ?c . } ORDER BY ASC(?c) LIMIT 1"
    )
    assert q2.order == OrderClause(Var("c"), descending=False)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?x WHERE { :A :r ?x . }",                      # no DISTINCT
        "SELECT DISTINCT ?x ?y WHERE { :A :r ?x . }",          # two vars
        "SELECT DISTINCT ?x WHERE { :A :r ?x . OPTIONAL { ?x :s ?y . } }",
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } UNION { :B :r ?x . }",
        "SELECT DISTINCT ?x WHERE { :A :r ?x . MINUS { :B :r ?x . } }",
        "SELECT DISTINCT ?x WHERE { :A :r ?x . BIND(1 AS ?y) }",
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } GROUP BY ?x",
        "SELECT REDUCED ?x WHERE { :A :r ?x . }",
        "SELECT DISTINCT ?x WHERE { SERVICE :ep { :A :r ?x . } }",
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } OFFSET 2",
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } ORDER BY ASC(?x)",    # no LIMIT
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } ORDER BY ASC(?x) LIMIT 2",
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } LIMIT 1",     # LIMIT alone
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } ORDER BY ?x LIMIT 1",
        "SELECT DISTINCT ?x WHERE { :A ?p ?x . }",             # var relation
        "SELECT DISTINCT ?x WHERE { :A a ?x . }",              # rdf:type shorthand
    ],
)
def test_parse_unsupported(text):
    with pytest.raises(UnsupportedFeature):
        parse_sparql(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "SELECT DISTINCT ?x WHERE { }",
        "SELECT DISTINCT ?x WHERE { :A :r ?x }",           # missing dot
        "SELECT DISTINCT ?x WHERE { :A :r ?x .",           # missing brace
        'SELECT DISTINCT ?x WHERE { "lit" :r ?x . }',      # literal subject
        "SELECT DISTINCT ?x WHERE { :A :r ?x . FILTER(?x ~ \"1\") }",
        'SELECT DISTINCT ?x WHERE { :A :r ?x . FILTER("1" = ?x) }',
        "SELECT DISTINCT ?x WHERE { :A :r ?x . } trailing",
        'SELECT DISTINCT ?x WHERE { :A :r "3.5"^^xsd:integer . }',
        # prologue declarations never start a query in this subset
        "PREFIX ns: <http://x> SELECT DISTINCT ?x WHERE { :A :r ?x . }",
        "ASK { :A :r ?x . }",
        # nested groups fail before the UNION keyword is even seen
        "SELECT DISTINCT ?x WHERE { { :A :r ?x . } UNION { :B :r ?x . } }",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_sparql(text)


def test_parse_error_carries_line():
    text = 'SELECT DISTINCT ?x WHERE {\n  :A :r ?x .\n  :B :r ?y\n}'
    with pytest.raises(ParseError) as err:
        parse_sparql(text)
    assert err.value.line == 4  # the '}' arrives where '.' was expected


_HEAD = "SELECT DISTINCT ?x WHERE {\n  :A :r ?x .\n"
_ORDER = "SELECT DISTINCT ?x WHERE { :A :r ?x . ?x :v ?c . }\nORDER BY "


@pytest.mark.parametrize(
    "text, message, line",
    [
        # one input for each token the grammar requires
        ("ASK DISTINCT ?x WHERE { :A :r ?x . }", "expected SELECT, got 'ASK'", 1),
        ("SELECT DISTINCT\n:x WHERE { :A :r ?x . }",
         "expected one select variable, got ':x'", 2),
        ("SELECT DISTINCT ?x\n{ :A :r ?x . }", "expected WHERE, got '{'", 2),
        ("SELECT DISTINCT ?x WHERE\n:A :r ?x . }", "expected '{', got ':A'", 2),
        (_HEAD + '  FILTER ?x > "1"^^xsd:integer\n}', "expected '(', got '?x'", 3),
        (_HEAD + '  FILTER("1" = ?x)\n}',
         "FILTER must start with a variable, got '\"1\"'", 3),
        (_HEAD + "  FILTER(?x ?y)\n}", "expected comparison operator, got '?y'", 3),
        (_HEAD + "  FILTER(?x > :B)\n}", "FILTER compares against a literal, got ':B'", 3),
        (_HEAD + '  FILTER(?x > "1"^^xsd:integer\n}', "expected ')', got '}'", 4),
        ("SELECT DISTINCT ?x WHERE {\n  :A :r ?x\n}", "pattern must end with '.', got '}'", 3),
        (_ORDER.replace(" BY ", "\n") + "ASC(?c) LIMIT 1", "expected BY, got 'ASC'", 3),
        (_ORDER + "DESC ?c) LIMIT 1", "expected '(', got '?c'", 2),
        (_ORDER + "DESC(:c) LIMIT 1", "expected a variable in ORDER BY, got ':c'", 2),
        (_ORDER + "DESC(?c LIMIT 1", "expected ')', got 'LIMIT'", 2),
        # the other messages
        (_HEAD + "  $\n}", "unexpected character '$'", 3),
        ("", "expected SELECT, got ''", 1),
        ("SELECT DISTINCT ?x\n\n", "expected WHERE, got ''", 1),  # eof: the last token's line
        (_HEAD + "\n\n", "unterminated group: missing }", 2),
        ("SELECT DISTINCT ?x WHERE {\n  :A :r .\n}", "expected a term, got '.'", 2),
        ('SELECT DISTINCT ?x WHERE {\n  "a\nb" :r ?x .\n}', "a literal cannot be a subject", 3),
        ('SELECT DISTINCT ?x WHERE {\n  :A "b" ?x .\n}', "expected a relation symbol", 2),
        ('SELECT DISTINCT ?x WHERE {\n  :A :r "3.5"^^xsd:integer .\n}',
         "bad literal '\"3.5\"^^xsd:integer': not an integer: '3.5'", 2),
        (_HEAD + '  FILTER(?x > "1.5"^^xsd:integer)\n}',
         "bad literal '\"1.5\"^^xsd:integer': not an integer: '1.5'", 3),
        (_HEAD[:-1] + " }\n\ntrailing", "trailing input: 'trailing'", 4),
    ],
)
def test_parse_error_messages(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_sparql(text)
    assert type(err.value) is ParseError
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_parse_empty_group_has_no_line():
    with pytest.raises(ParseError) as err:
        parse_sparql("SELECT DISTINCT ?x WHERE { }")
    assert (str(err.value), err.value.line) == ("empty WHERE group", 0)


_FUZZ_PIECES = [
    "{", "}", ".", "(", ")", "?x", "?h1", "?c1", ":A", ":r", '"1"^^xsd:integer',
    '"2000"^^xsd:dateTime', '"x"@en', '"3.5"^^xsd:integer', "FILTER", "ORDER BY", "DESC",
    "LIMIT 1", "UNION", "a", ">=", "=", "~", "\n", '"', "$", "?", ":",
]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        words = text.split(" ")
        if op == 0:  # delete a few characters
            text = text[:i] + text[i + rng.randint(1, 10):]
        elif op == 1:  # insert a piece of the grammar
            text = text[:i] + rng.choice(_FUZZ_PIECES) + text[i:]
        elif op == 2:  # swap two words
            a, b = rng.randrange(len(words)), rng.randrange(len(words))
            words[a], words[b] = words[b], words[a]
            text = " ".join(words)
        elif op == 3:  # copy a line
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
        elif names := re.findall(r"[?:][A-Za-z_][A-Za-z0-9_.]*", text):
            # rename a variable or entity to another the query uses
            text = text.replace(rng.choice(names), rng.choice(names), 1)
    return text


def test_parse_fuzz_raises_only_typed_errors(data_dir):
    # Every mutated corpus query parses or raises a KgRelayError, and
    # every one that parses goes through chain analysis, rendering and the
    # round trip raising nothing else.
    rng = random.Random(5000)
    blocks = _corpus_blocks(data_dir)
    parsed = 0
    for _ in range(5000):
        text = _mutate(rng, rng.choice(blocks))
        try:
            q = parse_sparql(text)
        except KgRelayError:
            continue
        parsed += 1
        with contextlib.suppress(KgRelayError):
            chain_branches(q)
        render_sparql(q)
        round_trip_check(text)
    assert parsed >= 500


# --- chain analysis ---

def test_find_main_chain_worked():
    topic, chain = find_main_chain(parse_sparql(WORKED_QUERY))
    assert topic == "USA"
    assert [p.relation for p in chain] == [
        "country.presidents", "president.office_holder"
    ]


def test_find_main_chain_no_topic():
    q = parse_sparql("SELECT DISTINCT ?x WHERE { ?y :r ?x . }")
    with pytest.raises(NoTopicEntity):
        find_main_chain(q)


def test_find_main_chain_entity_object_blocks_nothing():
    # a second named entity as a *constraint* object is not a second path
    q = parse_sparql(
        "SELECT DISTINCT ?x WHERE { :A :r ?x . ?x :s :B . }"
    )
    topic, chain = find_main_chain(q)
    assert topic == "A" and len(chain) == 1


def test_find_main_chain_ambiguous():
    q = parse_sparql(
        "SELECT DISTINCT ?x WHERE { :A :r ?x . :B :s ?x . }"
    )
    with pytest.raises(AmbiguousMainPath):
        find_main_chain(q)


def test_find_main_chain_two_routes_same_entity():
    q = parse_sparql(
        "SELECT DISTINCT ?x WHERE { :A :r ?x . :A :s ?m . ?m :t ?x . }"
    )
    with pytest.raises(AmbiguousMainPath):
        find_main_chain(q)


def _layers(first: str, layers: int, last: str) -> list[str]:
    # Two variables per layer, each layer fully linked to the next: 2^layers
    # simple paths from first to last.
    names = [[f"?l{i}a", f"?l{i}b"] for i in range(layers)]
    pats = [f"{first} :r {v} ." for v in names[0]]
    for prev, nxt in zip(names, names[1:]):
        pats += [f"{s} :r {o} ." for s in prev for o in nxt]
    pats += [f"{v} :r {last} ." for v in names[-1]]
    return pats


def test_find_main_chain_layered_query_is_fast():
    pats = _layers(":A", 50, "?x")
    assert len(pats) == 200
    q = parse_sparql("SELECT DISTINCT ?x WHERE { " + " ".join(pats) + " }")
    raised, elapsed = timed(lambda: pytest.raises(AmbiguousMainPath, find_main_chain, q))
    raised.match("more than one candidate main path")
    assert elapsed < 1.0


def test_find_main_chain_layered_dead_end_is_fast():
    # A layered region hanging off the chain that never reaches the select
    # variable must not be searched path by path.
    pats = [":A :r ?h ."] + _layers("?h", 50, "?end") + ["?h :s ?x ."]
    q = parse_sparql("SELECT DISTINCT ?x WHERE { " + " ".join(pats) + " }")
    (topic, chain), elapsed = timed(lambda: find_main_chain(q))
    assert elapsed < 1.0
    assert topic == "A" and [p.relation for p in chain] == ["r", "s"]


def test_find_main_chain_long_chain_is_fast():
    # One search per chain node made this quadratic: 0.44 s at 4,000 hops.
    hops = 4000
    pats = [":A :r ?h1 ."] + [f"?h{i} :r ?h{i + 1} ." for i in range(1, hops)]
    q = parse_sparql(f"SELECT DISTINCT ?h{hops} WHERE {{ {' '.join(pats)} }}")
    (topic, chain), elapsed = timed(lambda: find_main_chain(q))
    assert elapsed < 0.1
    assert topic == "A" and chain == list(q.patterns)


def test_chain_branches_rebound_variable_is_fast():
    # One slice scan per branch made this quadratic: 5.7 s at 8,000 branches.
    # The error names the variable whose second binding comes first.
    branches = 8000
    pats = [":A :r ?x ."] + [f"?x :p ?b{i} ." for i in range(branches - 2)]
    pats += ["?x :q ?b1 .", "?x :q ?b0 ."]
    q = parse_sparql(f"SELECT DISTINCT ?x WHERE {{ {' '.join(pats)} }}")
    raised, elapsed = timed(lambda: pytest.raises(UnclassifiableBranch, chain_branches, q))
    raised.match(r"variable \?b1 is bound by more than one")
    assert elapsed < 0.5


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000_000))
def test_find_main_chain_matches_path_enumeration(seed):
    # Small random pattern graphs, cycles and repeated patterns included,
    # against every simple path from every named entity, counted to two.
    rng = random.Random(seed)
    terms = [Var(f"v{i}") for i in range(rng.randint(1, 5))]
    terms += [f"E{i}" for i in range(rng.randint(1, 3))]
    pats = tuple(
        TriplePattern(rng.choice(terms), rng.choice("rs"),
                      rng.choice(terms + [Literal(STRING, "x")]))
        for _ in range(rng.randint(1, 8))
    )
    q = SparqlQuery(terms[0], pats)
    found = []

    def walk(node, seen, path):
        if node == q.select_var:
            found.append((path[0].subject, path))
            return
        for pat in pats:
            if len(found) < 2 and pat.subject == node and pat.object not in seen \
                    and not isinstance(pat.object, Literal):
                walk(pat.object, seen + [pat.object], path + [pat])

    for e in {t for pat in pats for t in (pat.subject, pat.object) if isinstance(t, str)}:
        walk(e, [e], [])
    if not found:
        with pytest.raises(NoTopicEntity):
            find_main_chain(q)
    elif len(found) > 1:
        with pytest.raises(AmbiguousMainPath):
            find_main_chain(q)
    else:
        topic, chain = find_main_chain(q)
        assert (topic, chain) == found[0]
        assert all(a is b for a, b in zip(chain, found[0][1]))


# --- query to path ---

def test_sparql_to_path_worked(worked_path):
    rp = sparql_to_path(parse_sparql(WORKED_QUERY))
    assert rp == canonicalize(worked_path)
    assert rp.topic_entity == "USA"
    assert rp.constraints[0].value == EntityMatch("Harvard", entity="Harvard")


def test_sparql_to_path_constraint_kinds():
    q = parse_sparql(
        """SELECT DISTINCT ?h2 WHERE {
  :A :r1 ?h1 .
  ?h1 :r2 ?h2 .
  ?h1 :name "Bob" .
  ?h1 :count "5"^^xsd:integer .
  ?h2 :score ?s .
  FILTER(?s < "10"^^xsd:integer)
} ORDER BY ASC(?s) LIMIT 1"""
    )
    rp = sparql_to_path(q)
    assert rp.path == ("r1", "r2")
    assert set(rp.constraints) == {
        Constraint(1, "name", StringMatch("Bob")),
        Constraint(1, "count", NumericCompare(ComparisonOp.EQ, Literal(NUMERIC, "5"))),
        Constraint(2, "score", NumericCompare(ComparisonOp.LT, Literal(NUMERIC, "10"))),
        Constraint(2, "score", NumericCompare(ComparisonOp.ARGMIN)),
    }


@pytest.mark.parametrize(
    "text",
    [
        # bare branch variable, no filter, no order
        "SELECT DISTINCT ?x WHERE { :A :r ?x . ?x :s ?y . }",
        # edge from the answer back to a chain variable
        "SELECT DISTINCT ?x WHERE { :A :r ?m . ?m :s ?x . ?x :t ?m . }",
        # filter on a chain variable
        'SELECT DISTINCT ?x WHERE { :A :r ?x . FILTER(?x = "1"^^xsd:integer) }',
        # order on a chain variable
        "SELECT DISTINCT ?x WHERE { :A :r ?x . ?x :v ?c . FILTER(?c ="
        ' "1"^^xsd:integer) } ORDER BY ASC(?x) LIMIT 1',
        # string filter with a non-EQ operator
        'SELECT DISTINCT ?x WHERE { :A :r ?x . ?x :n ?c . FILTER(?c > "b") }',
        # branch hangs off a variable that is not on the chain
        "SELECT DISTINCT ?x WHERE { :A :r ?x . :B :s ?c . ?x :t :B . "
        'FILTER(?c = "1"^^xsd:integer) }',
        # one ORDER BY variable bound by two patterns
        "SELECT DISTINCT ?x WHERE { :A :r ?x . ?x :p ?c . ?x :q ?c . }"
        " ORDER BY DESC(?c) LIMIT 1",
    ],
)
def test_sparql_to_path_unclassifiable(text):
    with pytest.raises(UnclassifiableBranch):
        sparql_to_path(parse_sparql(text))


def test_sparql_to_path_skeleton_depth4():
    q = parse_sparql(
        "SELECT DISTINCT ?d WHERE { :S :r1 ?a . ?a :r2 ?b . ?b :r3 ?c . ?c :r4 ?d . }"
    )
    rp = sparql_to_path(q)
    assert rp.path == ("r1", "r2", "r3", "r4")
    assert rp.constraints == ()


# --- path to query ---

def test_path_to_sparql_worked(worked_path):
    q = path_to_sparql(worked_path)
    assert q.select_var == Var("h2")
    assert q.patterns == (
        TriplePattern("USA", "country.presidents", Var("h1")),
        TriplePattern(Var("h1"), "president.office_holder", Var("h2")),
        TriplePattern(Var("h2"), "education.institution", "Harvard"),
        TriplePattern(Var("h2"), "position.from", Var("c1")),
    )
    assert q.filters == (
        FilterClause(Var("c1"), ComparisonOp.GE, Literal(DATETIME, "2000")),
    )
    assert render_sparql(q) == WORKED_QUERY


def test_path_to_sparql_argmax(worked_argmax_path):
    q = path_to_sparql(worked_argmax_path)
    # canonical constraint order puts the extremal first, so it owns ?c1
    assert q.order == OrderClause(Var("c1"), descending=True)
    assert render_sparql(q) == WORKED_ARGMAX_QUERY


def test_path_to_sparql_requires_grounding():
    rp = ReasoningPath("USA", ("r",))
    with pytest.raises(UngroundedTopic):
        path_to_sparql(rp)
    rp2 = ReasoningPath(
        "USA", ("r",), (Constraint(1, "s", EntityMatch("X")),), topic_entity="USA"
    )
    with pytest.raises(UnresolvedConstraintEntity):
        path_to_sparql(rp2)


def test_path_to_sparql_two_extremals_unsupported():
    rp = ReasoningPath(
        "USA",
        ("r",),
        (
            Constraint(1, "a", NumericCompare(ComparisonOp.ARGMAX)),
            Constraint(1, "b", NumericCompare(ComparisonOp.ARGMIN)),
        ),
        topic_entity="USA",
    )
    with pytest.raises(UnsupportedFeature):
        path_to_sparql(rp)


# --- canonical rendering ---

def test_render_renames_variables():
    messy = """SELECT DISTINCT ?who WHERE {
  ?mid :president.office_holder ?who .
  :USA :country.presidents ?mid .
  ?who :position.from ?when .
  FILTER(?when >= "2000"^^xsd:dateTime)
}"""
    expected = """\
SELECT DISTINCT ?h2 WHERE {
  :USA :country.presidents ?h1 .
  ?h1 :president.office_holder ?h2 .
  ?h2 :position.from ?c1 .
  FILTER(?c1 >= "2000"^^xsd:dateTime)
}"""
    assert render_sparql(parse_sparql(messy)) == expected


def test_render_rewrites_literal_objects():
    inline = """SELECT DISTINCT ?h1 WHERE {
  :USA :country.presidents ?h1 .
  ?h1 :nickname "Bill"@en .
  ?h1 :position.from "2000"^^xsd:integer .
}"""
    expected = """\
SELECT DISTINCT ?h1 WHERE {
  :USA :country.presidents ?h1 .
  ?h1 :nickname ?c1 .
  ?h1 :position.from ?c2 .
  FILTER(?c1 = "Bill"@en)
  FILTER(?c2 = "2000"^^xsd:dateTime)
}"""
    # the integer-tagged year is retyped to a date, the documented rule
    assert render_sparql(parse_sparql(inline)) == expected
    # the rewrite's fresh names never capture a variable of the query
    clash = """SELECT DISTINCT ?x WHERE {
  :A :r ?x .
  ?x :p "1"^^xsd:integer .
  ?x :q ?_lit1 .
  FILTER(?_lit1 > "5"^^xsd:integer)
}"""
    assert render_sparql(parse_sparql(clash)) == """\
SELECT DISTINCT ?h1 WHERE {
  :A :r ?h1 .
  ?h1 :p ?c1 .
  ?h1 :q ?c2 .
  FILTER(?c1 = "1"^^xsd:integer)
  FILTER(?c2 > "5"^^xsd:integer)
}"""


def test_render_non_chain_query_keeps_names():
    q = parse_sparql("SELECT DISTINCT ?x WHERE { ?y :r ?x . }")
    assert "?y :r ?x ." in render_sparql(q)


def test_render_bare_branch_is_canonical():
    # evaluate_query accepts a bare branch, so the renderer canonicalizes it
    q = parse_sparql("SELECT DISTINCT ?who WHERE { ?who :s ?any . :A :r ?who . }")
    assert render_sparql(q) == """\
SELECT DISTINCT ?h1 WHERE {
  :A :r ?h1 .
  ?h1 :s ?c1 .
}"""


def test_render_filter_on_unbound_variable_keeps_names():
    q = parse_sparql(
        'SELECT DISTINCT ?who WHERE { :A :r ?who . FILTER(?nowhere = "1"^^xsd:integer) }'
    )
    rendered = render_sparql(q)
    assert ":A :r ?who ." in rendered
    assert "FILTER(?nowhere = " in rendered


def test_render_non_chain_query_prints_as_parsed():
    # a filter on a chain variable is not chain-shaped: the literal object
    # stays inline and the integer-tagged year keeps its tag
    text = """SELECT DISTINCT ?x WHERE {
  :A :r ?x .
  ?x :v "5"^^xsd:integer .
  FILTER(?x = "2001"^^xsd:integer)
}"""
    assert render_sparql(parse_sparql(text)) == text


def _shuffled(q: SparqlQuery, rng) -> SparqlQuery:
    patterns, filters = list(q.patterns), list(q.filters)
    rng.shuffle(patterns)
    rng.shuffle(filters)
    return SparqlQuery(q.select_var, tuple(patterns), tuple(filters), q.order)


def _inlined(q: SparqlQuery, rng) -> SparqlQuery:
    # Some `=` filters written as the literal object of their variable's
    # pattern; path_to_sparql gives each variable one filter at most.
    inline = {f.var: f.value for f in q.filters if f.op == ComparisonOp.EQ and rng.random() < 0.7}
    patterns = tuple(
        TriplePattern(p.subject, p.relation, inline.get(p.object, p.object)) for p in q.patterns
    )
    filters = tuple(f for f in q.filters if f.var not in inline)
    return SparqlQuery(q.select_var, patterns, filters, q.order)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000_000))
def test_render_ignores_clause_order_and_inline_literals(seed):
    rng = random.Random(seed)
    q = path_to_sparql(random_ungrounded_path(rng, max_constraints=5))
    text = render_sparql(q)
    for variant in (_shuffled(q, rng), _inlined(q, rng), _shuffled(_inlined(q, rng), rng)):
        assert render_sparql(variant) == text

def test_render_parse_fixpoint(worked_argmax_path):
    text = render_sparql(path_to_sparql(worked_argmax_path))
    assert render_sparql(parse_sparql(text)) == text


# --- round trips ---

def test_round_trip_corpus(data_dir):
    blocks = _corpus_blocks(data_dir)
    assert len(blocks) >= 30
    for i, block in enumerate(blocks, start=1):
        error = round_trip_check(block)
        assert error is None, f"block {i}: {error}\n{block}"


def _corpus_blocks(data_dir):
    text = (data_dir / "roundtrip_corpus.sparql").read_text(encoding="utf-8")
    kept = "\n".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("#")
    )
    return [b.strip() for b in re.split(r"\n\s*\n", kept) if b.strip()]


def test_round_trip_reports_parse_failure():
    error = round_trip_check("SELECT ?x WHERE { :A :r ?x . }")
    assert "UnsupportedFeature" in error


def test_round_trip_two_filters_one_var_differs():
    # A conjunction on one binding converts to two existential constraints,
    # which compile back as two separate patterns: structurally different.
    text = """SELECT DISTINCT ?x WHERE {
  :A :r ?x .
  ?x :v ?c .
  FILTER(?c >= "1990"^^xsd:dateTime)
  FILTER(?c <= "1999"^^xsd:dateTime)
}"""
    assert round_trip_check(text) == "canonical forms differ"
    q = parse_sparql(text)
    assert render_sparql(q).count(":v ?c") == 1
    assert render_sparql(path_to_sparql(sparql_to_path(q))).count(":v") == 2


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_generated_path_round_trip(seed):
    rng = random.Random(seed)
    rp = random_ungrounded_path(rng)
    q = path_to_sparql(rp)
    again = sparql_to_path(parse_sparql(render_sparql(q)))
    assert again == canonicalize(rp)
    assert render_sparql(path_to_sparql(again)) == render_sparql(q)
