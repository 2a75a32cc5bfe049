"""Compilation of reasoning paths and subset queries into hop plans.

Both forms compile to one plan: for each hop of the main chain, the
relation to expand, then the keys of the steps that filter the hop's
frontier. A step is its key: the relation and the tests one binding of it
must pass, a test being what the step checks of one constraint value.
One plain function, ``_keep``, applies a key to a frontier, for a path
constraint and for a query branch alike. Binary steps run before
extremal ones, so the result does not depend on the order constraints
were written in. One table gives both the tier at which relaxation drops
each kind of test and the order of a hop's steps. Every plan runs on
``KnowledgeGraph.walk``, the graph's one chain walker. A reasoning path
runs through one executor, ``execute_with_relaxation``, at a list of
tiers.

Relaxation and query evaluation take the question's walk memo, which the
routing check and repair have filled, so every walk from the topic along
a chain already walked starts from it. The walk keys the memo by step
keys, so equal constraints of every relaxation tier and of the gold query
share its entries, and the steps of a hop run in one canonical order. A
gold query that repeats a walk of relaxation, its branches written in any
order, then reads that walk from the memo and applies no key.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from decimal import Decimal
from operator import eq, ge, gt, itemgetter, le, lt
from typing import AbstractSet, Iterable, Iterator, Sequence

from .errors import UngroundedTopic
from .kg import NUMERIC, STRING, EntityId, KnowledgeGraph, Literal, NodeRef
from .reasoning import (
    ComparisonOp,
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
TIERS = (TIER_FULL, TIER_DROP_STRING, TIER_DROP_STRING_NUMERIC, TIER_SKELETON)


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


# --- the step keys ---

_NO_NODES: frozenset = frozenset()

# A test is what a step reads of one constraint value, its kind at its
# head: ("entity", id), or ("entity",) when ungrounded (None would not
# order against an id); ("string", trimmed text); ("extremal", op); and
# ("comparison", op, threshold kind, threshold text). This table gives the
# tier at which relaxation drops each kind. Steps at a hop run in the
# reverse order, entity first: they commute, so the steps a tier keeps at
# a hop are then a prefix of the tier before, and the walk memo computes
# them once.
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


def _trimmed_eq(text: str, want: str) -> bool:
    return text.strip() == want


def _test(v: ConstraintValue) -> tuple[str, ...]:
    if isinstance(v, EntityMatch):
        return ("entity",) if v.entity is None else ("entity", v.entity)
    if isinstance(v, StringMatch):
        return ("string", v.text.strip())
    if v.threshold is None:
        return ("extremal", v.op.value)
    return ("comparison", v.op.value, v.threshold.kind, v.threshold.text)


def _keep(g: KnowledgeGraph, frontier: AbstractSet[NodeRef], key: tuple) -> AbstractSet[NodeRef]:
    """The nodes of ``frontier`` that step ``key``, a relation and its
    tests, keeps: the one function that reads a key.

    No tests keeps the entities with any object under the relation. An
    entity test, which comes alone, keeps the entities that have its
    entity among their objects, as one intersection with ``g.subjects``;
    an ungrounded one keeps nothing. Any other tests are ones that one
    literal object must all pass, checked in order up to the first that
    fails. A string test is trimmed, case-sensitive equality. A
    comparison of a number with a date threshold, or the reverse, does
    not match. Every literal object of the frontier is checked, and a call
    logs at most one warning, naming the smallest such (value kind, value
    text, threshold kind, threshold text), so the line does not depend on
    set order. Without an extremal, an entity stays when one of its
    literal objects passes; with one (ARGMAX/ARGMIN), the entities whose
    best passing date or number is the extreme one stay, ties included.
    A literal in the frontier has no objects, so every step drops it.
    """
    relation, *tests = key
    objs = g.objects(relation)
    if not tests:
        return {e for e in frontier if objs.get(e)}
    if tests[0][0] == "entity":
        return frontier & g.subjects(relation, tests[0][1] if len(tests[0]) > 1 else None)

    pick, checks = None, []
    for head, *rest in tests:
        if head == "extremal":
            pick = _PICK[rest[0]]
        elif head == "string":
            checks.append((_trimmed_eq, STRING, rest[0], None))
        else:
            op, kind, text = rest
            checks.append((_HOLDS[op], kind, Decimal(text) if kind == NUMERIC else text, text))
    mismatched: list[tuple[str, str, str, str]] = []
    kept: set[EntityId] = set()
    best_of: dict[EntityId, tuple] = {}
    for e in frontier:
        for o in objs.get(e, _NO_NODES):
            if not isinstance(o, Literal) or pick and o.kind == STRING:
                continue
            for holds, kind, bound, text in checks:
                if o.kind != kind:
                    if STRING not in (o.kind, kind):
                        mismatched.append((o.kind, o.text, kind, text))
                    break
                if not holds(o.decimal() if kind == NUMERIC else o.text, bound):
                    break
            else:
                if pick is None:
                    kept.add(e)
                else:
                    value = _value_key(o)
                    best_of[e] = pick(best_of.get(e, value), value)
    if mismatched:
        log.warning(
            "non-comparable literal: %s value %r vs %s threshold %r", *min(mismatched)
        )
    if pick is None:
        return kept
    best = pick(best_of.values(), default=None)
    return {e for e, value in best_of.items() if value == best}


def _filter(relation: str, values: Sequence[ConstraintValue]) -> tuple[tuple[bool, int], tuple]:
    """``(place, key)`` of the step that a binding of ``relation`` must
    pass: ``values``, each read as its test.

    The key is the relation and the tests; ``_keep`` applies it, and the
    walk memo shares the entries past equal keys. The place, then the key,
    orders the steps of a hop. Extremal steps do not commute; they run
    last. The other steps run by the tier at which relaxation drops them,
    latest first (bare existence is never dropped); the place holds that
    tier negated. A query branch and the path constraint it renders then
    take the same place.
    """
    tests = tuple(map(_test, values))
    dropped = min((_DROPPED_AT[t[0]] for t in tests), default=TIER_SKELETON + 1)
    return (any(t[0] == "extremal" for t in tests), -dropped), (relation, *tests)


def _hop_plans(
    path: Sequence[str],
    steps: Iterable[tuple[int, str, Sequence[ConstraintValue]]],
    tiers: Iterable[int],
) -> Iterator[list[str | tuple]]:
    """The plan of ``path`` at each tier in turn: each relation, then the
    keys of the steps ``(hop, relation, values)`` on its hop that the tier
    keeps, in ``_filter``'s order. The steps are sorted once."""
    ordered = sorted(
        ((hop, *_filter(relation, values)) for hop, relation, values in steps),
        key=itemgetter(1, 2),
    )
    for tier in tiers:
        hops: list[list[str | tuple]] = [[relation] for relation in path]
        for hop, (_, minus_dropped), key in ordered:
            if tier < -minus_dropped:
                hops[hop - 1].append(key)
        yield [step for hop in hops for step in hop]


# --- reasoning paths ---

def execute_with_relaxation(
    g: KnowledgeGraph, rp: ReasoningPath, walks: dict, tiers: Sequence[int] = TIERS
) -> AnswerSet:
    """Walk a grounded reasoning path at each of ``tiers`` in turn and
    return the first non-empty answer set, with the tier that produced it.

    When every tier is empty the result is the empty set at the last one.
    Literals reached at a hop that carries constraints are dropped there;
    at the final hop without constraints they are answers. The tiers read
    and fill the walk memo ``walks``, so a chain prefix already walked
    through it is not walked again.
    """
    if rp.topic_entity is None:
        raise UngroundedTopic("execution needs a grounded topic")
    steps = ((c.hop, c.relation, (c.value,)) for c in rp.constraints)
    for tier, plan in zip(tiers, _hop_plans(rp.path, steps, tiers)):
        if answers := g.walk(rp.topic_entity, plan, walks, _keep):
            return AnswerSet(answers, tier)
    return AnswerSet(frozenset(), tiers[-1])


# --- subset queries ---

def evaluate_query(g: KnowledgeGraph, q: SparqlQuery, walks: dict) -> frozenset[NodeRef]:
    """Interpret a chain-shaped query on the graph.

    Each branch from ``chain_branches`` is a step, keyed by its
    ``branch_values``, including the shapes a reasoning path cannot
    express: bare existence, literal objects, filter conjunctions over one
    binding and a filtered ORDER BY.
    Queries that are not chain-shaped raise the chain-analysis errors.
    The steps of a hop run in ``_filter``'s order, the extremal branch,
    the one the ORDER BY sorts, last. The walk reads and fills the memo
    ``walks`` under the steps' keys. So a query that a path renders, at
    the tier relaxation answered at, walks that path's walk again from
    the memo, with no key applied.
    """
    topic, chain, branches = chain_branches(q)
    steps = ((b.hop, b.pattern.relation, branch_values(b)) for b in branches)
    (plan,) = _hop_plans([pat.relation for pat in chain], steps, (TIER_FULL,))
    return g.walk(topic, plan, walks, _keep)
