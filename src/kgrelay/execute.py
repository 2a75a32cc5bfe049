"""Compilation of reasoning paths and subset queries into hop plans.

Both forms compile to one hop plan: for each hop of the main chain, the
relation to expand and the steps that filter the hop's frontier. One
function, ``_step``, compiles every step, from a path constraint or from
a query branch, into a plain closure. Binary steps run before extremal
ones, so the result does not depend on the order constraints were written
in. One table gives both the tier at which relaxation drops each
constraint kind and the order of a hop's steps. Every plan runs on
``KnowledgeGraph.walk``, the graph's one chain walker.

Relaxation and query evaluation take the question's walk memo, which the
routing check and repair have filled, so every walk from the topic along
a chain already walked starts from it. The memo also keeps the question's
compiled filters, keyed by relation and canonical values, so equal
constraints of every relaxation tier and of the gold query compile to one
filter, and the steps of a hop run in one canonical order. A gold query
that repeats a walk of relaxation, its branches written in any order,
then reads that walk from the memo and runs no filter.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Callable, Sequence

from .errors import UngroundedTopic
from .kg import DATETIME, NUMERIC, STRING, EntityId, KnowledgeGraph, Literal, NodeRef
from .reasoning import (
    ComparisonOp,
    Constraint,
    ConstraintValue,
    EntityMatch,
    NumericCompare,
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


def _compare(value: Literal, op: ComparisonOp, threshold: Literal) -> bool:
    """Compare two date or two numeric literals.

    Numbers compare as decimals, dates as ISO text (so "2001" < "2001-05"
    < "2002").
    """
    if value.kind == NUMERIC:
        a, b = value.decimal(), threshold.decimal()
    else:
        a, b = value.text, threshold.text
    if op == ComparisonOp.EQ:
        return a == b
    if op == ComparisonOp.GE:
        return a >= b
    if op == ComparisonOp.LE:
        return a <= b
    if op == ComparisonOp.GT:
        return a > b
    return a < b


def _value_key(lit: Literal) -> tuple:
    # Orders extremal candidates; kinds never mix in the second slot.
    if lit.kind == NUMERIC:
        return (NUMERIC, lit.decimal())
    return (lit.kind, lit.text)


# --- the filter compiler ---

_NO_NODES: frozenset = frozenset()

# The tier at which relaxation drops each constraint kind. Steps at a hop
# run in the reverse order, entity first: they commute, so the steps a
# tier keeps at a hop are then a prefix of the tier before, and the walk
# memo computes them once.
_DROPPED_AT = {
    StringMatch: TIER_DROP_STRING,
    NumericCompare: TIER_DROP_STRING_NUMERIC,
    EntityMatch: TIER_SKELETON,
}


def _step(relation: str, values: Sequence[ConstraintValue]) -> Callable:
    """Compile what one binding of ``relation`` must meet into a filter,
    called as ``step(g, frontier)``.

    No values keeps the entities with any object under ``relation``. An
    entity match, which comes alone, keeps the entities that have its
    entity among their objects, as one intersection with ``g.subjects``;
    an ungrounded one keeps nothing. Any other values are tests that one
    literal object must all pass. A string match is trimmed,
    case-sensitive equality. A comparison of a number with a date
    threshold, or the reverse, does not match; the filter logs the first
    such pair it meets, so a question costs one warning per filter, not one
    per literal. Without an extremal, an entity stays when one of its literal
    objects passes; with one (ARGMAX/ARGMIN), the entities whose best
    passing date or number is the extreme one stay, ties included. A
    literal in the frontier has no objects, so every filter drops it.

    Filters are closures, so they hash by identity, and only walks that
    share a compiled filter share the walk-memo prefixes past it;
    ``_filter`` gives equal constraints of one question one closure.
    """
    if not values:
        def exists(g: KnowledgeGraph, frontier: AbstractSet[NodeRef]) -> set[EntityId]:
            objs = g.objects(relation)
            return {e for e in frontier if objs.get(e)}

        return exists
    if isinstance(values[0], EntityMatch):
        target = values[0].entity
        return lambda g, frontier: frontier & g.subjects(relation, target)

    warned = False

    def literal_test(v: StringMatch | NumericCompare) -> Callable[[Literal], bool]:
        if isinstance(v, StringMatch):
            want = v.text.strip()
            return lambda o: o.kind == STRING and o.text.strip() == want
        op, threshold = v.op, v.threshold

        def test(o: Literal) -> bool:
            nonlocal warned
            if o.kind == threshold.kind:
                return _compare(o, op, threshold)
            if o.kind != STRING and not warned:
                warned = True
                log.warning(
                    "non-comparable literal: %s value %r vs %s threshold %r",
                    o.kind, o.text, threshold.kind, threshold.text,
                )
            return False

        return test

    tests, pick = [], None
    for v in values:
        if _extremal(v):
            pick = max if v.op == ComparisonOp.ARGMAX else min
        else:
            tests.append(literal_test(v))
    admits = tests[0] if len(tests) == 1 else (lambda o: all(t(o) for t in tests))

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


# The key, in a walk memo, of its question's compiled filters. The memo is
# ``KnowledgeGraph.walk``'s, which looks it up only by a walk's start, an
# entity id; this key is none, so it never meets a walk, and the filters
# die with the memo at the end of the question.
_FILTERS = object()


def _extremal(v: ConstraintValue) -> bool:
    return isinstance(v, NumericCompare) and v.op.is_extremal


def _canonical(v: ConstraintValue) -> tuple[str, ...]:
    # What a compiled filter reads of a value: the entity id, not the
    # surface; the trimmed text of a string match; the operator and the
    # threshold's kind and text of a comparison.
    if isinstance(v, EntityMatch):
        return ("entity",) if v.entity is None else ("entity", v.entity)
    if isinstance(v, StringMatch):
        return ("string", v.text.strip())
    if v.threshold is None:
        return (v.op.value,)
    return (v.op.value, v.threshold.kind, v.threshold.text)


def _filter(
    walks: dict, relation: str, values: Sequence[ConstraintValue]
) -> tuple[tuple, Callable]:
    """The question's one filter for ``relation`` and ``values``, compiled
    by ``_step`` on first use and kept in the walk memo ``walks``, with
    the place it runs among the steps of its hop.

    Values with equal keys compile to equal filters, so they share one
    closure, and the walks past it share their memo entries. Extremal
    steps do not commute; they run last. The other steps run by the tier
    at which relaxation drops them, latest first (bare existence is never
    dropped), then by key. A query branch and the path constraint it
    renders then take the same place.
    """
    if (compiled := walks.get(_FILTERS)) is None:
        compiled = walks[_FILTERS] = {}
    key = (relation, *map(_canonical, values))
    if (entry := compiled.get(key)) is None:
        dropped = min((_DROPPED_AT[type(v)] for v in values), default=TIER_SKELETON + 1)
        order = (any(map(_extremal, values)), -dropped, key)
        entry = compiled[key] = (order, _step(relation, values))
    return entry


def apply_constraint(
    g: KnowledgeGraph, candidates: set[EntityId], c: Constraint
) -> set[EntityId]:
    """Filter a candidate entity set by one constraint."""
    return _step(c.relation, [c.value])(g, candidates)


# --- reasoning paths ---

def _kept_at(c: Constraint, tier: int) -> bool:
    return tier < _DROPPED_AT[type(c.value)]


def constraints_for_tier(
    constraints: tuple[Constraint, ...], tier: int
) -> tuple[Constraint, ...]:
    """Constraints that remain active at a relaxation tier.

    Tier 0 keeps everything; tier 1 drops string constraints; tier 2 also
    drops numeric ones (comparisons and extremals); tier 3 drops all.
    """
    return tuple(c for c in constraints if _kept_at(c, tier))


def _run_tiers(
    g: KnowledgeGraph, rp: ReasoningPath, tiers: Sequence[int], walks: dict | None
) -> AnswerSet:
    """Walk the path at each tier in turn, through the walk memo ``walks``
    (a fresh one when None); the first non-empty tier wins."""
    if rp.topic_entity is None:
        raise UngroundedTopic("execution needs a grounded topic")
    walks = {} if walks is None else walks
    compiled = sorted(
        ((c, *_filter(walks, c.relation, (c.value,))) for c in rp.constraints),
        key=itemgetter(1),
    )
    for tier in tiers:
        hops = [
            (rel, tuple(s for c, _, s in compiled if c.hop == hop and _kept_at(c, tier)))
            for hop, rel in enumerate(rp.path, start=1)
        ]
        answers = g.walk(rp.topic_entity, hops, walks)
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
    ``walks`` (a fresh one when None), and its steps are the memo's
    filters. So a query that a path renders, at the tier relaxation
    answered at, walks that path's walk again from the memo, with no
    filter run.
    """
    topic, chain, branches = chain_branches(q)
    walks = {} if walks is None else walks
    steps: list[list[tuple]] = [[] for _ in chain]
    for b in branches:
        steps[b.hop - 1].append(_filter(walks, b.pattern.relation, branch_values(b)))
    hops = [
        (pat.relation, tuple(step for _, step in sorted(at_hop, key=itemgetter(0))))
        for pat, at_hop in zip(chain, steps)
    ]
    return g.walk(topic, hops, walks)
