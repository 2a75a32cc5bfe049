"""Compilation of reasoning paths and subset queries into hop plans.

Both forms compile to one hop plan: for each hop of the main chain, the
relation to expand and the steps that filter the hop's frontier. An
entity step keeps the frontier entities that have the target entity among
their objects under the step relation, as one set intersection; a binary
step keeps an entity when a test on those objects holds; an extremal step
(ARGMAX/ARGMIN) keeps the entities whose best admitted value is the
extreme one. Binary steps run before extremal ones, so the result does
not depend on the order constraints were written in. Every plan runs on
``KnowledgeGraph.walk``, the graph's one chain walker.

Relaxation compiles each constraint once and walks every tier through one
walk memo, so the expansions and steps that tiers have in common run
once. Relaxation and query evaluation take the question's memo, which the
routing check and repair have filled, so every walk from the topic along
a chain already walked starts from it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import AbstractSet, Callable, Sequence

from .errors import UngroundedTopic
from .kg import DATETIME, NUMERIC, STRING, EntityId, KnowledgeGraph, Literal, NodeRef
from .reasoning import (
    ComparisonOp,
    Constraint,
    EntityMatch,
    NumericCompare,
    ReasoningPath,
    StringMatch,
)
from .sparql import SparqlQuery, chain_branches

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


# --- compiled steps ---

_NO_NODES: frozenset = frozenset()


@dataclass(frozen=True, eq=False)
class Step:
    """A filter on a hop's frontier, called as ``step(g, frontier)``.

    Steps compare by identity, so only walks that share a compiled step
    share the walk-memo prefixes past it.

    An entity step (``test`` is None) keeps the entities that have
    ``target`` among their objects under ``relation``, as one intersection
    with ``g.subjects(relation, target)``. A binary step (``pick`` is None)
    keeps an entity when ``test`` holds on its object set in
    ``g.objects(relation)``. An extremal step keeps the entities whose best
    date or number admitted by ``test`` is the extreme one under ``pick``
    (max or min); ties survive. A literal in the frontier has no objects,
    so every step drops it, and an ungrounded target (None) has no
    subjects, so its step keeps nothing.
    """

    relation: str
    test: Callable | None
    pick: Callable | None = None
    target: EntityId | None = None

    def __call__(self, g: KnowledgeGraph, frontier: AbstractSet[NodeRef]) -> AbstractSet[EntityId]:
        test, pick = self.test, self.pick
        if test is None:
            return frontier & g.subjects(self.relation, self.target)
        objs = g.objects(self.relation)
        if pick is None:
            return {e for e in frontier if test(objs.get(e, _NO_NODES))}
        best_of = {}
        for e in frontier:
            values = [
                _value_key(o)
                for o in objs.get(e, _NO_NODES)
                if isinstance(o, Literal) and o.kind in (NUMERIC, DATETIME) and test(o)
            ]
            if values:
                best_of[e] = pick(values)
        extreme = pick(best_of.values(), default=None)
        return {e for e, val in best_of.items() if val == extreme}


def _literal_step(relation: str, conds: list, pick: Callable | None = None) -> Step:
    """Step over the literal objects that meet every (op, value) condition
    in ``conds``, all on one binding; extremal when ``pick`` is given.

    A string value is trimmed, case-sensitive equality whatever the op. A
    numeric value against a date threshold, or the reverse, is not
    comparable and does not match; the step logs the first such pair it
    meets, so a large frontier costs one warning, not one per literal.
    """
    warned = False

    def literal_test(op: ComparisonOp, value: Literal) -> Callable[[Literal], bool]:
        if value.kind == STRING:
            want = value.text.strip()
            return lambda o: o.kind == STRING and o.text.strip() == want

        def test(o: Literal) -> bool:
            nonlocal warned
            if o.kind == value.kind:
                return _compare(o, op, value)
            if o.kind != STRING and not warned:
                warned = True
                log.warning(
                    "non-comparable literal: %s value %r vs %s threshold %r",
                    o.kind, o.text, value.kind, value.text,
                )
            return False

        return test

    tests = [literal_test(op, value) for op, value in conds]
    admits = tests[0] if len(tests) == 1 else (lambda o: all(t(o) for t in tests))
    if pick is not None:
        return Step(relation, admits, pick)
    return Step(relation, lambda objs: any(isinstance(o, Literal) and admits(o) for o in objs))


def _constraint_step(c: Constraint) -> Step:
    """Compile one constraint of a grounded reasoning path.

    Every constraint is existential over the objects of the constraint
    relation. An entity constraint left ungrounded matches nothing.
    """
    v = c.value
    if isinstance(v, EntityMatch):
        return Step(c.relation, None, target=v.entity)
    if isinstance(v, StringMatch):
        return _literal_step(c.relation, [(ComparisonOp.EQ, Literal(STRING, v.text))])
    if v.op.is_extremal:
        return _literal_step(c.relation, [], max if v.op == ComparisonOp.ARGMAX else min)
    return _literal_step(c.relation, [(v.op, v.threshold)])


def apply_constraint(
    g: KnowledgeGraph, candidates: set[EntityId], c: Constraint
) -> set[EntityId]:
    """Filter a candidate entity set by one constraint."""
    return _constraint_step(c)(g, candidates)


# --- reasoning paths ---

def _kept_at(c: Constraint, tier: int) -> bool:
    if isinstance(c.value, StringMatch):
        return tier < TIER_DROP_STRING
    if isinstance(c.value, NumericCompare):
        return tier < TIER_DROP_STRING_NUMERIC
    return tier < TIER_SKELETON


def constraints_for_tier(
    constraints: tuple[Constraint, ...], tier: int
) -> tuple[Constraint, ...]:
    """Constraints that remain active at a relaxation tier.

    Tier 0 keeps everything; tier 1 drops string constraints; tier 2 also
    drops numeric ones (comparisons and extremals); tier 3 drops all.
    """
    return tuple(c for c in constraints if _kept_at(c, tier))


# Binary steps commute, so they run in the order the tiers drop them:
# entity, numeric, string. The binary steps a tier keeps at a hop are then
# a prefix of the tier before, and the walk memo computes them once.
# Extremal steps do not commute; they run last, in canonical order.
_STEP_RANK = {EntityMatch: 0, NumericCompare: 1, StringMatch: 2}


def _step_order(c: Constraint) -> tuple:
    return (c.is_extremal, _STEP_RANK[type(c.value)], c.sort_key())


def _run_tiers(
    g: KnowledgeGraph, rp: ReasoningPath, tiers: Sequence[int], walks: dict | None
) -> AnswerSet:
    """Walk the path at each tier in turn, through the walk memo ``walks``
    (a fresh one when None); the first non-empty tier wins."""
    if rp.topic_entity is None:
        raise UngroundedTopic("execution needs a grounded topic")
    walks = {} if walks is None else walks
    compiled = [(c, _constraint_step(c)) for c in sorted(rp.constraints, key=_step_order)]
    for tier in tiers:
        hops = [
            (rel, tuple(s for c, s in compiled if c.hop == hop and _kept_at(c, tier)))
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

    Each branch from ``chain_branches`` compiles to a step, including the
    shapes a reasoning path cannot express: bare existence, literal
    objects, filter conjunctions over one binding and a filtered ORDER BY.
    Queries that are not chain-shaped raise the chain-analysis errors.
    The walk reads and fills the memo ``walks`` (a fresh one when None),
    so a query along a chain prefix already walked through it starts
    from that walk.
    """
    topic, chain, branches = chain_branches(q)
    steps: list[list[Step]] = [[] for _ in chain]
    for b in branches:
        rel, obj = b.pattern.relation, b.pattern.object
        conds = [(f.op, f.value) for f in b.filters]
        if isinstance(obj, str):
            step = Step(rel, None, target=obj)
        elif isinstance(obj, Literal):
            step = _literal_step(rel, [(ComparisonOp.EQ, obj)])
        elif b.descending is not None:
            step = _literal_step(rel, conds, max if b.descending else min)
        elif conds:
            step = _literal_step(rel, conds)
        else:
            # Bare existence: the entity has at least one object here.
            step = Step(rel, bool)
        steps[b.hop - 1].append(step)

    hops = [
        (pat.relation, tuple(sorted(at_hop, key=lambda s: s.pick is not None)))
        for pat, at_hop in zip(chain, steps)
    ]
    return g.walk(topic, hops, walks)
