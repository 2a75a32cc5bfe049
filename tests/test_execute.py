"""Path execution, constraint semantics, relaxation, direct query evaluation."""

from __future__ import annotations

import logging
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgrelay
from kgrelay.errors import UnclassifiableBranch, UngroundedTopic
from kgrelay.execute import (
    TIER_DROP_STRING_NUMERIC,
    TIER_FULL,
    TIER_SKELETON,
    TIERS,
    AnswerSet,
    evaluate_query,
    execute_with_relaxation,
    _filter,
    _keep,
)
from kgrelay.kg import NUMERIC, KnowledgeGraph, Literal, answer_texts, load_tsv
from kgrelay.reasoning import (
    ComparisonOp,
    Constraint,
    EntityMatch,
    NumericCompare,
    ReasoningPath,
    ground_reasoning_path,
    parse_reasoning_path,
)
from kgrelay.sparql import parse_sparql, path_to_sparql
from conftest import full_answers, timed
from oracle import (
    keyset,
    oracle_execute,
    oracle_reach,
    oracle_tier,
    parse_tsv,
    random_graph_tsv,
    random_reasoning_path,
)


def graph(tmp_path, text):
    p = tmp_path / "g.tsv"
    p.write_text(text, encoding="utf-8")
    return load_tsv(p)


def grounded(g, text):
    return ground_reasoning_path(g, parse_reasoning_path(text))


def texts(answers):
    return set(answer_texts(answers))


# --- worked example ---

def test_worked_full(presidents, worked_path):
    assert full_answers(presidents, worked_path) == frozenset({"Obama", "GWBush"})


def test_worked_argmax(presidents, worked_argmax_path):
    assert full_answers(presidents, worked_argmax_path) == frozenset({"Obama"})


def test_worked_skeleton(presidents):
    got = presidents.reach("USA", ("country.presidents", "president.office_holder"), {})
    assert got == frozenset({"Obama", "GWBush", "Clinton"})


def test_worked_relaxation_stops_at_full(presidents, worked_path):
    result = execute_with_relaxation(presidents, worked_path, {})
    assert result == AnswerSet(frozenset({"Obama", "GWBush"}), TIER_FULL)
    assert bool(result)


def test_ungrounded_topic_raises(presidents):
    rp = ReasoningPath("USA", ("country.presidents",))
    with pytest.raises(UngroundedTopic):
        full_answers(presidents, rp)


# --- frontier mechanics ---

def test_literal_final_hop_kept(presidents):
    rp = grounded(
        presidents,
        "TOPIC: USA\nPATH: country.presidents -> president.office_holder"
        " -> position.from",
    )
    assert texts(full_answers(presidents, rp)) == {"1993", "2001", "2009"}


def test_constraint_at_literal_hop_drops_literals(presidents):
    rp = grounded(
        presidents,
        "TOPIC: USA\nPATH: country.presidents -> president.office_holder"
        ' -> position.from\nCONSTRAINT: hop=3; rel=position.from; op=GE; value="2000"',
    )
    # the constrained frontier holds no entities, so nothing survives
    assert full_answers(presidents, rp) == frozenset()


def test_dead_relation_mid_chain(presidents):
    rp = grounded(presidents, "TOPIC: USA\nPATH: country.presidents -> nope")
    assert full_answers(presidents, rp) == frozenset()


def test_literal_cannot_continue_chain(tmp_path):
    g = graph(tmp_path, 'S\tr\t"leaf"\n')
    rp = ReasoningPath("S", ("r", "r2"), (), topic_entity="S")
    assert full_answers(g, rp) == frozenset()


# --- constraint semantics ---

def test_entity_constraint(tmp_path):
    g = graph(tmp_path, "S\tr\tA\nS\tr\tB\nA\te\tX\nB\te\tY\n")
    keep_x = Constraint(1, "e", EntityMatch("X", entity="X"))
    rp = ReasoningPath("S", ("r",), (keep_x,), topic_entity="S")
    assert full_answers(g, rp) == frozenset({"A"})


def test_entity_constraint_ungrounded_matches_nothing(tmp_path):
    g = graph(tmp_path, "S\tr\tA\n")
    c = Constraint(1, "r", EntityMatch("nosuch"))
    rp = ReasoningPath("S", ("r",), (c,), topic_entity="S")
    assert full_answers(g, rp) == frozenset()


def test_execution_does_not_ground_entity_constraints(tmp_path):
    # execution takes a grounded path: a surface that would ground does not
    # make an ungrounded constraint match
    g = graph(tmp_path, "S\tr\tA\nA\te\tX\n")
    c = Constraint(1, "e", EntityMatch("x"))
    assert g.ground_entity("x") == "X"
    rp = ReasoningPath("S", ("r",), (c,), topic_entity="S")
    assert full_answers(g, rp) == frozenset()
    assert full_answers(g, ground_reasoning_path(g, rp)) == frozenset({"A"})


def test_string_match_trims_and_ignores_lang(tmp_path):
    g = graph(
        tmp_path,
        'R\tq\tS\nR\tq\tT\nS\tn\t"  Bob  "@en\nS\tn\t"bob"\nT\tn\t"Bob"\n',
    )
    rp = grounded(g, 'TOPIC: R\nPATH: q\nCONSTRAINT: hop=1; rel=n; string="Bob"')
    # trimmed exact match, case preserved: the lowercase variant never helps
    assert full_answers(g, rp) == frozenset({"S", "T"})
    rp2 = grounded(g, 'TOPIC: R\nPATH: q\nCONSTRAINT: hop=1; rel=n; string="bob"')
    assert full_answers(g, rp2) == frozenset({"S"})


@pytest.mark.parametrize(
    "op,threshold,expected",
    [
        ("GE", "5", {"A", "B"}),
        ("GT", "5", {"A"}),
        ("LE", "5", {"B", "C"}),
        ("LT", "5", {"C"}),
        ("EQ", "5", {"B"}),
        ("EQ", "5.0", {"B"}),
        ("GE", "100", set()),
    ],
)
def test_binary_numeric_ops(tmp_path, op, threshold, expected):
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\nS\tr\tC\n'
        'A\tv\t"10"^^xsd:integer\nB\tv\t"5"^^xsd:integer\nC\tv\t"-1"^^xsd:float\n',
    )
    rp = grounded(
        g, f'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op={op}; value="{threshold}"'
    )
    assert full_answers(g, rp) == frozenset(expected)


def test_datetime_prefix_comparison(tmp_path):
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\nS\tr\tC\n'
        'A\td\t"2001"^^xsd:dateTime\nB\td\t"2001-05"^^xsd:dateTime\n'
        'C\td\t"2002-01-01"^^xsd:dateTime\n',
    )
    rp = grounded(g, 'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=d; op=GT; value="2001"')
    assert full_answers(g, rp) == frozenset({"B", "C"})
    rp2 = grounded(g, 'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=d; op=LE; value="2001-05"')
    assert full_answers(g, rp2) == frozenset({"A", "B"})


def test_string_value_fails_binary_silently(tmp_path, caplog):
    g = graph(tmp_path, 'S\tr\tA\nA\tv\t"abc"\n')
    rp = grounded(g, 'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=GE; value="2"')
    with caplog.at_level(logging.WARNING, logger="kgrelay.execute"):
        assert full_answers(g, rp) == frozenset()
    assert not caplog.records


def test_cross_kind_comparison_warns(tmp_path, caplog):
    g = graph(tmp_path, 'S\tr\tA\nA\tv\t"2003"^^xsd:dateTime\n')
    rp = grounded(g, 'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=GE; value="2"')
    with caplog.at_level(logging.WARNING, logger="kgrelay.execute"):
        assert full_answers(g, rp) == frozenset()
    assert any("non-comparable" in r.message for r in caplog.records)


def test_cross_kind_comparison_warns_once_per_step(tmp_path, caplog):
    # 50 date literals under a numeric threshold, the same again under a
    # date-and-number conjunction: one warning line for each step.
    dates = "".join(f'E{i}\tv\t"{1950 + i}"^^xsd:dateTime\n' for i in range(50))
    g = graph(tmp_path, "".join(f"S\tr\tE{i}\n" for i in range(50)) + dates)
    rp = grounded(g, 'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=GE; value="2"')
    conj = parse_sparql(
        "SELECT DISTINCT ?x WHERE { :S :r ?x . ?x :v ?c ."
        ' FILTER(?c >= "2"^^xsd:integer) FILTER(?c <= "3"^^xsd:integer) }'
    )
    for run in (lambda: full_answers(g, rp), lambda: evaluate_query(g, conj, {})):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="kgrelay.execute"):
            assert run() == frozenset()
        assert len([r for r in caplog.records if "non-comparable" in r.message]) == 1


def test_cross_kind_comparison_warns_once_per_keep_call(tmp_path, caplog):
    # Tier 0 compares B1's date after the name filter, tier 1 compares the
    # dates of B1 and B2 after no filter: two prefixes, two _keep calls,
    # one warning line each.
    g = graph(
        tmp_path,
        'S\tr\tA1\nS\tr\tA2\nA1\tname\t"y"\nA1\ts\tB1\nA2\ts\tB2\n'
        'B1\tv\t"2003"^^xsd:dateTime\nB2\tv\t"2004"^^xsd:dateTime\n',
    )
    rp = grounded(
        g,
        'TOPIC: S\nPATH: r -> s\nCONSTRAINT: hop=1; rel=name; string="y"\n'
        'CONSTRAINT: hop=2; rel=v; op=GE; value="2"',
    )
    with caplog.at_level(logging.WARNING, logger="kgrelay.execute"):
        assert execute_with_relaxation(g, rp, {}) == AnswerSet(
            frozenset({"B1", "B2"}), TIER_DROP_STRING_NUMERIC
        )
    assert len([r for r in caplog.records if "non-comparable" in r.message]) == 2


_WARN_SCRIPT = """
import logging, sys
from kgrelay.execute import TIER_FULL, execute_with_relaxation
from kgrelay.kg import load_tsv
from kgrelay.reasoning import ground_reasoning_path, parse_reasoning_path
logging.basicConfig(format="%(message)s")
g = load_tsv(sys.argv[1])
rp = parse_reasoning_path('TOPIC: S\\nPATH: r\\nCONSTRAINT: hop=1; rel=v; op=GE; value="2"')
print(len(execute_with_relaxation(g, ground_reasoning_path(g, rp), {}, (TIER_FULL,)).answers))
"""


def test_cross_kind_warning_does_not_depend_on_the_hash_seed(tmp_path):
    # 50 dates under a numeric threshold, every other entity also with a
    # passing integer: set order decides which literal a scan meets first,
    # but the one line names the smallest date in every process.
    p = tmp_path / "g.tsv"
    p.write_text(
        "".join(f"S\tr\tE{i}\nE{i}\tv\t\"{1950 + i}\"^^xsd:dateTime\n" for i in range(50))
        + "".join(f'E{i}\tv\t"5"^^xsd:integer\n' for i in range(0, 50, 2)),
        encoding="utf-8",
    )
    src = Path(kgrelay.__file__).resolve().parents[1]
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", _WARN_SCRIPT, str(p)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outs.append((done.stdout, done.stderr))
    assert outs[0] == outs[1] == (
        "25\n", "non-comparable literal: datetime value '1950' vs numeric threshold '2'\n"
    )


def test_extremal_ties_survive(tmp_path):
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\nS\tr\tC\n'
        'A\tv\t"7"^^xsd:integer\nB\tv\t"7.0"^^xsd:float\nC\tv\t"3"^^xsd:integer\n',
    )
    rp = grounded(g, "TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=ARGMAX")
    assert full_answers(g, rp) == frozenset({"A", "B"})


@pytest.mark.parametrize(
    "value",
    [NumericCompare(ComparisonOp.ARGMAX), NumericCompare(ComparisonOp.GE, Literal(NUMERIC, "5"))],
)
def test_keep_compares_numbers_by_value_across_texts(value):
    g = KnowledgeGraph([("A", "v", Literal(NUMERIC, "5")), ("B", "v", Literal(NUMERIC, "5.0"))])
    _, key = _filter("v", [value])
    assert _keep(g, frozenset({"A", "B"}), key) == {"A", "B"}


def test_extremal_mixed_kinds_deterministic(tmp_path):
    # numeric sorts above datetime; plain strings never enter the pool
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\nS\tr\tC\n'
        'A\tv\t"5"^^xsd:integer\nB\tv\t"2003"^^xsd:dateTime\nC\tv\t"zed"@en\n',
    )
    up = grounded(g, "TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=ARGMAX")
    down = grounded(g, "TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=ARGMIN")
    assert full_answers(g, up) == frozenset({"A"})
    assert full_answers(g, down) == frozenset({"B"})


def test_extremal_ignores_string_only_entities(tmp_path):
    g = graph(tmp_path, 'S\tr\tA\nS\tr\tB\nA\tv\t"zed"\nB\tv\t"1"^^xsd:integer\n')
    rp = grounded(g, "TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=ARGMAX")
    assert full_answers(g, rp) == frozenset({"B"})


def test_extremal_per_entity_best_then_global(tmp_path):
    # A's best is 9 even though it also has 1; the global max picks A
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\n'
        'A\tv\t"1"^^xsd:integer\nA\tv\t"9"^^xsd:integer\nB\tv\t"5"^^xsd:integer\n',
    )
    rp = grounded(g, "TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=ARGMAX")
    assert full_answers(g, rp) == frozenset({"A"})


def test_binary_runs_before_extremal(tmp_path):
    # if ARGMAX on w ran first it would keep only B, then LE on v keeps B
    # too; but run the other listing order and the result must not change
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\n'
        'A\tv\t"10"^^xsd:integer\nB\tv\t"5"^^xsd:integer\n'
        'A\tw\t"1"^^xsd:integer\nB\tw\t"2"^^xsd:integer\n',
    )
    first = grounded(
        g,
        'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=LE; value="6"\n'
        "CONSTRAINT: hop=1; rel=w; op=ARGMAX",
    )
    second = grounded(
        g,
        "TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=w; op=ARGMAX\n"
        'CONSTRAINT: hop=1; rel=v; op=LE; value="6"',
    )
    assert full_answers(g, first) == frozenset({"B"})
    assert full_answers(g, second) == frozenset({"B"})


# --- relaxation tiers ---

def test_tier_zero_not_monotone_when_string_gates_extremal(tmp_path):
    # the string keeps A in the extremal pool at tier 0; dropping it at
    # tier 1 lets B outscore A, so tier-0 answers are not a subset
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\n'
        'A\tv\t"1"^^xsd:integer\nB\tv\t"2"^^xsd:integer\nA\ts\t"x"\n',
    )
    rp = grounded(
        g,
        'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=s; string="x"\n'
        "CONSTRAINT: hop=1; rel=v; op=ARGMAX",
    )
    per_tier = [execute_with_relaxation(g, rp, {}, (t,)).answers for t in TIERS]
    assert per_tier[0] == frozenset({"A"})
    assert per_tier[1] == frozenset({"B"})
    assert per_tier[2] == frozenset({"A", "B"})
    assert per_tier[3] == frozenset({"A", "B"})
    assert not per_tier[0] <= per_tier[1]
    assert per_tier[1] <= per_tier[2] <= per_tier[3]
    # relaxation still reports the strictest non-empty tier
    assert execute_with_relaxation(g, rp, {}) == AnswerSet(frozenset({"A"}), TIER_FULL)


def test_relaxation_reaches_tier_two(tmp_path):
    g = graph(tmp_path, 'S\tr\tA\nA\tv\t"1"^^xsd:integer\n')
    rp = grounded(
        g,
        'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=n; string="gone"\n'
        'CONSTRAINT: hop=1; rel=v; op=GE; value="5"',
    )
    assert execute_with_relaxation(g, rp, {}) == AnswerSet(
        frozenset({"A"}), TIER_DROP_STRING_NUMERIC
    )


def test_relaxation_reaches_skeleton(tmp_path):
    g = graph(tmp_path, "S\tr\tA\nA\te\tX\n")
    rp = ReasoningPath(
        "S", ("r",), (Constraint(1, "e", EntityMatch("Y", entity="Y")),),
        topic_entity="S",
    )
    assert execute_with_relaxation(g, rp, {}) == AnswerSet(
        frozenset({"A"}), TIER_SKELETON
    )


def test_relaxation_expands_topic_once():
    # Every tier walks from the topic; the tiers share that first expansion.
    class CountingGraph(KnowledgeGraph):
        topic_expansions = 0

        def image(self, frontier, relation):
            # Only the first hop, from the topic, expands relation r.
            if relation == "r":
                self.topic_expansions += 1
            return super().image(frontier, relation)

    g = CountingGraph([("S", "r", "A"), ("A", "q", "B"), ("B", "e", "X")])
    rp = grounded(
        g,
        "TOPIC: S\nPATH: r -> q\n"
        'CONSTRAINT: hop=2; rel=n; string="gone"\n'
        'CONSTRAINT: hop=2; rel=v; op=GE; value="5"\n'
        "CONSTRAINT: hop=2; rel=e; entity=Y",
    )
    assert execute_with_relaxation(g, rp, {}) == AnswerSet(frozenset({"B"}), TIER_SKELETON)
    assert g.topic_expansions == 1


def test_relaxation_empty_everywhere(tmp_path):
    g = graph(tmp_path, "S\tr\tA\n")
    rp = ReasoningPath("S", ("r", "gone"), (), topic_entity="S")
    result = execute_with_relaxation(g, rp, {})
    assert result == AnswerSet(frozenset(), TIER_SKELETON)
    assert not result


# --- direct query interpretation ---

def test_evaluate_query_matches_worked(presidents, worked_path, worked_argmax_path):
    for rp in (worked_path, worked_argmax_path):
        q = path_to_sparql(rp)
        assert evaluate_query(presidents, q, {}) == full_answers(presidents, rp)


def test_evaluate_query_existence_branch(presidents):
    # position.from has only literal objects; they count as existing too
    for relation in ("education.institution", "position.from"):
        q = parse_sparql(
            "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?t ."
            f" ?t :president.office_holder ?x . ?x :{relation} ?e . }}"
        )
        assert evaluate_query(presidents, q, {}) == frozenset({"Obama", "GWBush", "Clinton"})


def test_evaluate_query_literal_object_branch(tmp_path):
    # a string object matches on its text; neither side's lang tag counts
    g = graph(tmp_path, 'S\tr\tA\nS\tr\tB\nA\tn\t"Bob"@en\nB\tn\t"Ann"\n')
    for literal in ('"Bob"', '"Bob"@de'):
        q = parse_sparql(f'SELECT DISTINCT ?x WHERE {{ :S :r ?x . ?x :n {literal} . }}')
        assert evaluate_query(g, q, {}) == frozenset({"A"})


def test_evaluate_query_filter_conjunction_single_binding(tmp_path):
    # both inequalities must hold for one value of ?c, not two different ones
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\n'
        'A\td\t"1989"^^xsd:dateTime\nA\td\t"2005"^^xsd:dateTime\n'
        'B\td\t"1995"^^xsd:dateTime\n',
    )
    q = parse_sparql(
        'SELECT DISTINCT ?x WHERE { :S :r ?x . ?x :d ?c .'
        ' FILTER(?c >= "1990"^^xsd:dateTime) FILTER(?c <= "1999"^^xsd:dateTime) }'
    )
    assert evaluate_query(g, q, {}) == frozenset({"B"})


def test_evaluate_query_filtered_extremal_single_binding(tmp_path):
    # ARGMIN over bindings that individually pass the filter: B's 3 wins,
    # while the split-constraint reading would hand the answer to A
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\n'
        'A\tv\t"1"^^xsd:integer\nA\tv\t"5"^^xsd:integer\nB\tv\t"3"^^xsd:integer\n'
        'B\tv\t"x"\n',
    )
    q = parse_sparql(
        'SELECT DISTINCT ?x WHERE { :S :r ?x . ?x :v ?c .'
        ' FILTER(?c >= "2"^^xsd:integer) } ORDER BY ASC(?c) LIMIT 1'
    )
    assert evaluate_query(g, q, {}) == frozenset({"B"})
    # B's "x" passes a string filter, but a string never wins an extremal
    q = parse_sparql(
        'SELECT DISTINCT ?x WHERE { :S :r ?x . ?x :v ?c .'
        ' FILTER(?c = "x") } ORDER BY ASC(?c) LIMIT 1'
    )
    assert evaluate_query(g, q, {}) == frozenset()
    rp = grounded(
        g,
        'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=GE; value="2"\n'
        "CONSTRAINT: hop=1; rel=v; op=ARGMIN",
    )
    assert full_answers(g, rp) == frozenset({"A"})


@pytest.mark.parametrize(
    "text,message",
    [
        (
            'SELECT DISTINCT ?x WHERE { :USA :country.presidents ?x .'
            ' FILTER(?x = "1"^^xsd:integer) }',
            "filter on chain variable",
        ),
        (
            "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?x ."
            ' ?x :position.from ?c . FILTER(?q = "1"^^xsd:integer) }',
            "filter on unknown variable",
        ),
        (
            "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?x ."
            " ?x :position.from ?c . } ORDER BY ASC(?zz) LIMIT 1",
            "order on unknown variable",
        ),
        (
            "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?x ."
            ' ?y :position.from ?c . FILTER(?c >= "2"^^xsd:integer) }',
            "is not on the chain",
        ),
        (
            "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?m ."
            " ?m :president.office_holder ?x . ?x :aliasrel ?m . }",
            "branch variable rejoins the chain",
        ),
        (
            # no consumer joins two patterns on one branch variable
            "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?m ."
            " ?m :president.office_holder ?x . ?x :position.from ?c ."
            ' ?x :position.to ?c . FILTER(?c >= "1"^^xsd:integer) }',
            "branch variable \\?c is bound by more than one pattern",
        ),
        (
            # string values have no order; only "=" is defined on them
            "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?m ."
            ' ?m :president.office_holder ?x . ?x :nickname ?c . FILTER(?c > "b") }',
            "string filter with '>' on \\?c",
        ),
    ],
)
def test_evaluate_query_unclassifiable(presidents, text, message):
    with pytest.raises(UnclassifiableBranch, match=message):
        evaluate_query(presidents, parse_sparql(text), {})


def test_long_walk_is_linear():
    # A walk memo keyed by whole prefix tuples made an n-hop walk build n
    # keys of n/2 names each: this took 0.6-0.75 s, and the routing walk
    # alone 64 MB of keys.
    g = KnowledgeGraph([("a", "r", "a"), ("a", "v", Literal(NUMERIC, "5"))])
    hops = 4000
    too_high = NumericCompare(ComparisonOp.GE, Literal(NUMERIC, "9"))
    rp = ReasoningPath("a", ("r",) * hops, (Constraint(hops, "v", too_high),), "a")
    walks: dict = {}
    (reached, relaxed), elapsed = timed(
        lambda: (g.reach("a", rp.path, walks), execute_with_relaxation(g, rp, walks))
    )
    assert reached == {"a"}
    assert relaxed == AnswerSet(frozenset({"a"}), TIER_DROP_STRING_NUMERIC)
    assert elapsed < 0.25


# --- random agreement with the independent interpreter ---

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000_000))
def test_random_execution_matches_oracle(tmp_path_factory, seed):
    rng = random.Random(seed)
    tsv = random_graph_tsv(rng)
    path = tmp_path_factory.mktemp("x") / "g.tsv"
    path.write_text(tsv, encoding="utf-8")
    g = load_tsv(path)
    og = parse_tsv(tsv)
    for _ in range(3):
        rp = random_reasoning_path(rng, og)
        got = full_answers(g, rp)
        assert keyset(got) == oracle_execute(og, rp)
        q = path_to_sparql(rp)
        assert evaluate_query(g, q, {}) == got
        # each tier alone answers as the oracle does on the constraints the
        # tier keeps, and relaxation answers at the first non-empty one
        per_tier = [
            oracle_execute(og, replace(rp, constraints=oracle_tier(rp.constraints, t)))
            for t in TIERS
        ]
        for t in TIERS:
            assert keyset(execute_with_relaxation(g, rp, {}, (t,)).answers) == per_tier[t]
        tier = next((t for t, answers in enumerate(per_tier) if answers), TIER_SKELETON)
        relaxed = execute_with_relaxation(g, rp, {})
        assert relaxed.relaxation_tier == tier
        assert keyset(relaxed.answers) == per_tier[tier]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_relaxation_from_the_skeleton_walk_is_unchanged(tmp_path_factory, seed):
    # One memo is filled as a question fills it: routing checks along
    # several chains, some from the path's topic through a prefix of its
    # path, and every prefix of each, one hop longer each time, as repair
    # walks them. Constraints land on any hop, so some tiers reuse those
    # walks and others walk their own prefix.
    rng = random.Random(seed)
    tsv = random_graph_tsv(rng)
    path = tmp_path_factory.mktemp("s") / "g.tsv"
    path.write_text(tsv, encoding="utf-8")
    g = load_tsv(path)
    og = parse_tsv(tsv)
    for _ in range(3):
        rp = random_reasoning_path(rng, og, max_constraints=4, for_query=False)
        walks: dict = {}
        for _ in range(4):
            other = random_reasoning_path(rng, og)
            topic = rng.choice((rp.topic_entity, other.topic_entity))
            chain = rp.path[: rng.randint(0, len(rp.path))] + other.path
            for k in range(len(chain) + 1):
                reached = g.reach(topic, chain[:k], walks)
                assert keyset(reached) == oracle_reach(og, topic, chain[:k])
        assert g.reach(rp.topic_entity, rp.path, walks) == g.reach(rp.topic_entity, rp.path, {})
        assert full_answers(g, rp, walks) == full_answers(g, rp)
        assert execute_with_relaxation(g, rp, walks) == execute_with_relaxation(g, rp, {})
        # Gold queries read the filled memo: one along the same chain with
        # the path's own constraints (one extremal at most), one anywhere.
        extremal = [
            c for c in rp.constraints
            if isinstance(c.value, NumericCompare) and c.value.op.is_extremal
        ]
        same_chain = replace(rp, constraints=tuple(
            [c for c in rp.constraints if c not in extremal] + extremal[:1]))
        for gold in (same_chain, random_reasoning_path(rng, og)):
            q = path_to_sparql(gold)
            assert evaluate_query(g, q, walks) == evaluate_query(g, q, {})


# --- one filter per equal constraint in a question ---

def _with_surfaces(rp):
    # Entity surfaces that sort against their ids the other way round, so
    # a step order taken from the surface would not match the query's.
    return replace(rp, constraints=tuple(
        replace(c, value=replace(c.value, surface=c.value.entity[::-1].swapcase()))
        if isinstance(c.value, EntityMatch) else c
        for c in rp.constraints
    ))


def _shuffled(q, rng):
    # The same query with its patterns and filters written in another order.
    patterns, filters = list(q.patterns), list(q.filters)
    rng.shuffle(patterns)
    rng.shuffle(filters)
    return replace(q, patterns=tuple(patterns), filters=tuple(filters))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_gold_query_through_the_relaxation_memo_is_unchanged(tmp_path_factory, seed):
    rng = random.Random(seed)
    tsv = random_graph_tsv(rng)
    path = tmp_path_factory.mktemp("m") / "g.tsv"
    path.write_text(tsv, encoding="utf-8")
    g = load_tsv(path)
    og = parse_tsv(tsv)
    for _ in range(3):
        rp = _with_surfaces(random_reasoning_path(rng, og, max_constraints=4))
        walks: dict = {}
        relaxed = execute_with_relaxation(g, rp, walks)
        golds = [replace(rp, constraints=oracle_tier(rp.constraints, t)) for t in TIERS]
        golds.append(random_reasoning_path(rng, og))
        for gold in golds:
            q = path_to_sparql(gold)
            for query in (q, _shuffled(q, rng)):
                assert evaluate_query(g, query, walks) == evaluate_query(g, query, {})
        at_tier = path_to_sparql(golds[relaxed.relaxation_tier])
        assert evaluate_query(g, at_tier, walks) == relaxed.answers


@contextmanager
def counted_filters():
    """Counts the ``_keep`` calls ``execute`` makes meanwhile, by relation."""
    import kgrelay.execute as execute

    calls = []
    keep = execute._keep

    def counting(g, frontier, key):
        calls.append(key[0])
        return keep(g, frontier, key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(execute, "_keep", counting)
        yield calls


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_query_at_the_answering_tier_runs_no_filter_again(tmp_path_factory, seed):
    rng = random.Random(seed)
    tsv = random_graph_tsv(rng)
    path = tmp_path_factory.mktemp("q") / "g.tsv"
    path.write_text(tsv, encoding="utf-8")
    g = load_tsv(path)
    og = parse_tsv(tsv)
    for _ in range(3):
        rp = _with_surfaces(random_reasoning_path(rng, og, max_constraints=4))
        walks: dict = {}
        with counted_filters() as calls:
            relaxed = execute_with_relaxation(g, rp, walks)
            kept = oracle_tier(rp.constraints, relaxed.relaxation_tier)
            q = _shuffled(path_to_sparql(replace(rp, constraints=kept)), rng)
            calls.clear()
            assert evaluate_query(g, q, walks) == relaxed.answers
            assert calls == []


def test_thresholds_of_other_kinds_do_not_share_a_filter(tmp_path):
    g = graph(
        tmp_path,
        'S\tr\tA\nS\tr\tB\nA\tv\t"2001"^^xsd:dateTime\nB\tv\t"2001"^^xsd:integer\n',
    )
    rp = grounded(g, 'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=GE; value="2001"')
    assert rp.constraints[0].value.threshold.kind == "datetime"
    walks: dict = {}
    assert execute_with_relaxation(g, rp, walks) == AnswerSet(frozenset({"A"}), TIER_FULL)
    q = parse_sparql(
        'SELECT DISTINCT ?x WHERE { :S :r ?x . ?x :v ?c . FILTER(?c >= "2001"^^xsd:integer) }'
    )
    assert evaluate_query(g, q, walks) == frozenset({"B"})
    assert full_answers(g, rp, walks) == frozenset({"A"})


@pytest.mark.parametrize("query_first", [False, True])
def test_a_filter_conjunction_does_not_share_the_split_constraints(tmp_path, query_first):
    # One binding must lie in [5, 10]; the path asks one literal >= 5 and
    # one literal <= 10, which 12 and 3 are.
    g = graph(tmp_path, 'S\tr\tA\nA\tv\t"3"^^xsd:integer\nA\tv\t"12"^^xsd:integer\n')
    rp = grounded(
        g,
        'TOPIC: S\nPATH: r\nCONSTRAINT: hop=1; rel=v; op=GE; value="5"\n'
        'CONSTRAINT: hop=1; rel=v; op=LE; value="10"',
    )
    q = parse_sparql(
        'SELECT DISTINCT ?x WHERE { :S :r ?x . ?x :v ?c .'
        ' FILTER(?c >= "5"^^xsd:integer) FILTER(?c <= "10"^^xsd:integer) }'
    )
    walks: dict = {}
    runs = [lambda: evaluate_query(g, q, walks), lambda: full_answers(g, rp, walks)]
    got = [run() for run in (runs[::-1] if query_first else runs)]
    assert got == ([frozenset({"A"}), frozenset()] if query_first else [frozenset(), frozenset({"A"})])
