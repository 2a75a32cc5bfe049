"""Compilation of reasoning paths and subset queries into hop plans.

Both forms compile to one hop plan: for each hop of the main chain, the
relation to expand and the steps that filter the hop's frontier. One
function, ``_step``, compiles every step, from a path constraint or from
a query branch, into a plain closure. It reads only the step's relation
and tests, what the step checks of each constraint value, and those are
the step's key. Binary steps run before extremal ones, so the result does
not depend on the order constraints were written in. One table gives
both the tier at which relaxation drops each kind of test and the order
of a hop's steps. Every plan runs on ``KnowledgeGraph.walk``, the graph's
one chain walker.

Relaxation and query evaluation take the question's walk memo, which the
routing check and repair have filled, so every walk from the topic along
a chain already walked starts from it. The walk keys the memo by step
keys, so equal constraints of every relaxation tier and of the gold query
share its entries, and the steps of a hop run in one canonical order. A
gold query that repeats a walk of relaxation, its branches written in any
order, then reads that walk from the memo and runs no filter.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from decimal import Decimal
from operator import eq, ge, gt, itemgetter, le, lt
from typing import AbstractSet, Callable, Sequence

from .errors import UngroundedTopic
from .kg import DATETIME, NUMERIC, STRING, EntityId, KnowledgeGraph, Literal, NodeRef
from .reasoning import (
    ComparisonOp,
    Constraint,
    ConstraintValue,
    EntityMatch,
    ReasoningPath,
    StringMatch,
)
from .sparql import SparqlQuery, branch_values, chain_branches

log = logging.getLogger(__name__)

# Relaxation tiers, least to most aggressive.
TIER_FULL = 0
TIER_DROP_STRING = 1
TIER_DROP_STRING_NUMERIC = 2
TIER_SKELETON = 3


@dataclass(frozen=True)
class AnswerSet:
    answers: frozenset[NodeRef]
    relaxation_tier: int

    def __bool__(self) -> bool:
        return bool(self.answers)


def _value_key(lit: Literal) -> tuple:
    # Orders extremal candidates; kinds never mix in the second slot.
    if lit.kind == NUMERIC:
        return (NUMERIC, lit.decimal())
    return (lit.kind, lit.text)


# --- the filter compiler ---

_NO_NODES: frozenset = frozenset()

# A test is what a filter reads of one constraint value: ("entity", id),
# ("entity",) when ungrounded, ("string", trimmed text), (op,) for an
# extremal, (op, threshold kind, threshold text) for a comparison. Its
# head gives its kind, and this table the tier at which relaxation drops
# each kind. Steps at a hop run in the reverse order, entity first: they
# commute, so the steps a tier keeps at a hop are then a prefix of the
# tier before, and the walk memo computes them once.
_DROPPED_AT = {
    "string": TIER_DROP_STRING,
    "comparison": TIER_DROP_STRING_NUMERIC,
    "extremal": TIER_DROP_STRING_NUMERIC,
    "entity": TIER_SKELETON,
}
_PICK = {ComparisonOp.ARGMAX.value: max, ComparisonOp.ARGMIN.value: min}
# Each binary operator on a literal's value and a threshold of its kind:
# numbers compare as decimals, dates as ISO text (so "2001" < "2001-05"
# < "2002").
_HOLDS = {
    ComparisonOp.EQ.value: eq,
    ComparisonOp.GE.value: ge,
    ComparisonOp.LE.value: le,
    ComparisonOp.GT.value: gt,
    ComparisonOp.LT.value: lt,
}


def _test(v: ConstraintValue) -> tuple[str, ...]:
    if isinstance(v, EntityMatch):
        return ("entity",) if v.entity is None else ("entity", v.entity)
    if isinstance(v, StringMatch):
        return ("string", v.text.strip())
    if v.threshold is None:
        return (v.op.value,)
    return (v.op.value, v.threshold.kind, v.threshold.text)


def _kind(test: tuple[str, ...]) -> str:
    head = test[0]
    if head in ("entity", "string"):
        return head
    return "extremal" if head in _PICK else "comparison"


def _step(relation: str, tests: Sequence[tuple[str, ...]]) -> Callable:
    """Compile the tests one binding of ``relation`` must pass into a
    filter, called as ``step(g, frontier)``. It reads nothing but its
    arguments, so equal tests compile to filters that keep equal nodes.

    No tests keeps the entities with any object under ``relation``. An
    entity test, which comes alone, keeps the entities that have its
    entity among their objects, as one intersection with ``g.subjects``;
    an ungrounded one keeps nothing. Any other tests are ones that one
    literal object must all pass. A string test is trimmed,
    case-sensitive equality. A comparison of a number with a date
    threshold, or the reverse, does not match; the filter logs the first
    such pair it meets, so a question costs one warning per filter, not one
    per literal. Without an extremal, an entity stays when one of its literal
    objects passes; with one (ARGMAX/ARGMIN), the entities whose best
    passing date or number is the extreme one stay, ties included. A
    literal in the frontier has no objects, so every filter drops it.
    """
    if not tests:
        def exists(g: KnowledgeGraph, frontier: AbstractSet[NodeRef]) -> set[EntityId]:
            objs = g.objects(relation)
            return {e for e in frontier if objs.get(e)}

        return exists
    if _kind(tests[0]) == "entity":
        target = tests[0][1] if len(tests[0]) > 1 else None
        return lambda g, frontier: frontier & g.subjects(relation, target)

    warned = False

    def literal_test(head: str, *rest: str) -> Callable[[Literal], bool]:
        if head == "string":
            (want,) = rest
            return lambda o: o.kind == STRING and o.text.strip() == want
        holds, (kind, text) = _HOLDS[head], rest
        bound = Decimal(text) if kind == NUMERIC else text

        def test(o: Literal) -> bool:
            nonlocal warned
            if o.kind == kind:
                return holds(o.decimal() if kind == NUMERIC else o.text, bound)
            if o.kind != STRING and not warned:
                warned = True
                log.warning(
                    "non-comparable literal: %s value %r vs %s threshold %r",
                    o.kind, o.text, kind, text,
                )
            return False

        return test

    checks, pick = [], None
    for t in tests:
        if _kind(t) == "extremal":
            pick = _PICK[t[0]]
        else:
            checks.append(literal_test(*t))
    admits = checks[0] if len(checks) == 1 else (lambda o: all(c(o) for c in checks))

    if pick is None:
        def any_passes(g: KnowledgeGraph, frontier: AbstractSet[NodeRef]) -> set[EntityId]:
            objs = g.objects(relation)
            return {
                e for e in frontier
                if any(isinstance(o, Literal) and admits(o) for o in objs.get(e, _NO_NODES))
            }

        return any_passes

    def extreme(g: KnowledgeGraph, frontier: AbstractSet[NodeRef]) -> set[EntityId]:
        objs = g.objects(relation)
        best_of = {}
        for e in frontier:
            keys = [
                _value_key(o)
                for o in objs.get(e, _NO_NODES)
                if isinstance(o, Literal) and o.kind in (NUMERIC, DATETIME) and admits(o)
            ]
            if keys:
                best_of[e] = pick(keys)
        best = pick(best_of.values(), default=None)
        return {e for e, key in best_of.items() if key == best}

    return extreme


def _filter(
    relation: str, values: Sequence[ConstraintValue]
) -> tuple[tuple[bool, int], tuple, Callable]:
    """``(place, key, filter)`` for what a binding of ``relation`` must
    meet: ``values``, each read as its test.

    The key is the relation and the tests, and ``_step`` compiles the
    filter from them alone, so the walk memo shares the entries past equal
    keys. The place, then the key, orders the steps of a hop. Extremal
    steps do not commute; they run last. The other steps run by the tier
    at which relaxation drops them, latest first (bare existence is never
    dropped); the place holds that tier negated. A query branch and the
    path constraint it renders then take the same place.
    """
    tests = tuple(map(_test, values))
    kinds = [_kind(t) for t in tests]
    dropped = min((_DROPPED_AT[k] for k in kinds), default=TIER_SKELETON + 1)
    return ("extremal" in kinds, -dropped), (relation, *tests), _step(relation, tests)


def apply_constraint(
    g: KnowledgeGraph, candidates: set[EntityId], c: Constraint
) -> set[EntityId]:
    """Filter a candidate entity set by one constraint."""
    return _step(c.relation, [_test(c.value)])(g, candidates)


# --- reasoning paths ---

def constraints_for_tier(
    constraints: tuple[Constraint, ...], tier: int
) -> tuple[Constraint, ...]:
    """Constraints that remain active at a relaxation tier.

    Tier 0 keeps everything; tier 1 drops string constraints; tier 2 also
    drops numeric ones (comparisons and extremals); tier 3 drops all.
    """
    return tuple(c for c in constraints if tier < _DROPPED_AT[_kind(_test(c.value))])


def _run_tiers(
    g: KnowledgeGraph, rp: ReasoningPath, tiers: Sequence[int], walks: dict | None
) -> AnswerSet:
    """Walk the path at each tier in turn, through the walk memo ``walks``
    (a fresh one when None); the first non-empty tier wins."""
    if rp.topic_entity is None:
        raise UngroundedTopic("execution needs a grounded topic")
    walks = {} if walks is None else walks
    steps = sorted(
        ((c.hop, *_filter(c.relation, (c.value,))) for c in rp.constraints),
        key=itemgetter(1, 2),
    )
    for tier in tiers:
        hops: list[list[tuple]] = [[] for _ in rp.path]
        for hop, (_, minus_dropped), key, step in steps:
            if tier < -minus_dropped:
                hops[hop - 1].append((key, step))
        answers = g.walk(rp.topic_entity, zip(rp.path, hops), walks)
        if answers:
            return AnswerSet(answers, tier)
    return AnswerSet(frozenset(), tiers[-1])


def answers_at_tier(g: KnowledgeGraph, rp: ReasoningPath, tier: int) -> frozenset[NodeRef]:
    return _run_tiers(g, rp, (tier,), None).answers


def execute_full(
    g: KnowledgeGraph, rp: ReasoningPath, walks: dict | None = None
) -> frozenset[NodeRef]:
    """Execute a grounded reasoning path with all its constraints, through
    the walk memo ``walks`` (a fresh one when None).

    Literals reached at a hop that carries constraints are dropped there;
    at the final hop without constraints they are answers.
    """
    return _run_tiers(g, rp, (TIER_FULL,), walks).answers


def execute_with_relaxation(
    g: KnowledgeGraph, rp: ReasoningPath, walks: dict | None = None
) -> AnswerSet:
    """Try tiers 0..3 in order and return the first non-empty answer set.

    The tier that produced the answers is recorded. When even the bare
    skeleton is empty the result is the empty set at tier 3. The tiers
    read and fill the walk memo ``walks`` (a fresh one when None), so a
    chain prefix already walked through it is not walked again.
    """
    return _run_tiers(g, rp, range(TIER_FULL, TIER_SKELETON + 1), walks)


# --- subset queries ---

def evaluate_query(
    g: KnowledgeGraph, q: SparqlQuery, walks: dict | None = None
) -> frozenset[NodeRef]:
    """Interpret a chain-shaped query on the graph.

    Each branch from ``chain_branches`` compiles to a step from its
    ``branch_values``, including the shapes a reasoning path cannot
    express: bare existence, literal objects, filter conjunctions over one
    binding and a filtered ORDER BY.
    Queries that are not chain-shaped raise the chain-analysis errors.
    The steps of a hop run in ``_filter``'s order, the extremal branch,
    the one the ORDER BY sorts, last. The walk reads and fills the memo
    ``walks`` (a fresh one when None) under the steps' keys. So a query
    that a path renders, at the tier relaxation answered at, walks that
    path's walk again from the memo, with no filter run.
    """
    topic, chain, branches = chain_branches(q)
    steps: list[list[tuple]] = [[] for _ in chain]
    for b in branches:
        steps[b.hop - 1].append(_filter(b.pattern.relation, branch_values(b)))
    hops = [
        (pat.relation, tuple(
            (key, step) for _, key, step in sorted(at_hop, key=itemgetter(0, 1))
        ))
        for pat, at_hop in zip(chain, steps)
    ]
    return g.walk(topic, hops, walks)
