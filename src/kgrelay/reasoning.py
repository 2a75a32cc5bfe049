"""Reasoning paths: a topic entity, a relation chain, typed constraints.

Text form, one field per line::

    TOPIC: USA
    PATH: country.presidents -> president.office_holder
    CONSTRAINT: hop=2; rel=education.institution; entity=Harvard
    CONSTRAINT: hop=2; rel=position.from; op=GE; value="2000"

Constraint bodies come in four shapes: ``entity=<surface>`` (membership in
the objects of the constraint relation), ``op=<EQ|GE|LE|GT|LT>;
value="<text>"`` (numeric or date comparison), ``op=<ARGMAX|ARGMIN>``
(keep candidates with the extreme value), and ``string="<text>"`` (exact
string match). Hops are 1-based positions on the path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum

from .errors import HopOutOfRange, ParseError, UnknownEntity
from .kg import (
    DATETIME,
    DATETIME_RE,
    NUMERIC,
    KnowledgeGraph,
    Literal,
    escape_quotes,
    unescape_quotes,
)


class ComparisonOp(str, Enum):
    EQ = "EQ"
    GE = "GE"
    LE = "LE"
    GT = "GT"
    LT = "LT"
    ARGMAX = "ARGMAX"
    ARGMIN = "ARGMIN"

    @property
    def is_extremal(self) -> bool:
        return self in (ComparisonOp.ARGMAX, ComparisonOp.ARGMIN)


@dataclass(frozen=True)
class EntityMatch:
    """Candidate must have the constraint relation pointing at this entity."""

    surface: str
    entity: str | None = None  # filled by grounding


@dataclass(frozen=True)
class NumericCompare:
    """Comparison against a numeric or date threshold, or an extremum."""

    op: ComparisonOp
    threshold: Literal | None = None

    def __post_init__(self):
        if self.op.is_extremal:
            if self.threshold is not None:
                raise ValueError(f"{self.op.value} takes no threshold")
        else:
            if self.threshold is None:
                raise ValueError(f"{self.op.value} needs a threshold")
            if self.threshold.kind not in (NUMERIC, DATETIME):
                raise ValueError("threshold must be numeric or datetime")


@dataclass(frozen=True)
class StringMatch:
    """Exact string equality after trimming, case-sensitive."""

    text: str


ConstraintValue = EntityMatch | NumericCompare | StringMatch


@dataclass(frozen=True)
class Constraint:
    hop: int
    relation: str
    value: ConstraintValue

    def body_text(self) -> str:
        v = self.value
        if isinstance(v, EntityMatch):
            return f"entity={v.surface}"
        if isinstance(v, StringMatch):
            return f'string="{escape_quotes(v.text)}"'
        if v.op.is_extremal:
            return f"op={v.op.value}"
        return f'op={v.op.value}; value="{escape_quotes(v.threshold.text)}"'

    def sort_key(self) -> tuple:
        return (self.hop, self.relation, self.body_text())


@dataclass(frozen=True)
class ReasoningPath:
    topic_surface: str
    path: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()
    topic_entity: str | None = None

    def __post_init__(self):
        if not self.topic_surface:
            raise ValueError("empty topic")
        if not self.path:
            raise ValueError("empty path")
        for i, c in enumerate(self.constraints):
            if not 1 <= c.hop <= len(self.path):
                raise HopOutOfRange(i, c.hop, len(self.path))

    @property
    def depth(self) -> int:
        return len(self.path)


# --- parsing ---

# Matched against stripped lines, so a greedy tail ends at the last
# non-space character; a lazy (.+?)\s*$ backtracks quadratically over a
# run of inner spaces.
_TOPIC_RE = re.compile(r"^TOPIC:\s*(.+)$")
_PATH_RE = re.compile(r"^PATH:\s*(.+)$")
_CONSTRAINT_RE = re.compile(r"^CONSTRAINT:\s*hop=(\d+);\s*rel=([^;\s]+);\s*(.+)$")
_QUOTED_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')
_BINARY_BODY_RE = re.compile(r"^op=(EQ|GE|LE|GT|LT);\s*value=(.+)$")
_EXTREMAL_BODY_RE = re.compile(r"^op=(ARGMAX|ARGMIN)$")
_ENTITY_BODY_RE = re.compile(r"^entity=(.+)$")
_STRING_BODY_RE = re.compile(r"^string=(.+)$")


def classify_threshold(text: str, line: int = 0) -> Literal:
    """Type a quoted comparison value: date-shaped text is a date, any
    other must be a finite number, which ``Literal`` checks."""
    try:
        return Literal(DATETIME if DATETIME_RE.match(text) else NUMERIC, text)
    except ValueError as exc:
        raise ParseError(f"bad comparison value: {exc}", line) from None


def _parse_quoted(token: str, line: int) -> str:
    m = _QUOTED_RE.match(token.strip())
    if not m:
        raise ParseError(f"expected quoted value, got {token!r}", line)
    return unescape_quotes(m.group(1))


def _parse_constraint_body(body: str, line: int) -> ConstraintValue:
    m = _ENTITY_BODY_RE.match(body)
    if m:
        surface = m.group(1).strip()
        if not surface:
            raise ParseError("empty entity surface", line)
        return EntityMatch(surface)
    m = _BINARY_BODY_RE.match(body)
    if m:
        text = _parse_quoted(m.group(2), line)
        return NumericCompare(ComparisonOp(m.group(1)), classify_threshold(text, line))
    m = _EXTREMAL_BODY_RE.match(body)
    if m:
        return NumericCompare(ComparisonOp(m.group(1)))
    m = _STRING_BODY_RE.match(body)
    if m:
        return StringMatch(_parse_quoted(m.group(1), line))
    raise ParseError(f"unrecognized constraint body: {body!r}", line)


def parse_reasoning_path(text: str) -> ReasoningPath:
    """Parse the line-oriented text form. Raises ParseError or HopOutOfRange."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines:
        raise ParseError("empty input")

    line_no, first = lines[0]
    m = _TOPIC_RE.match(first)
    if not m:
        raise ParseError("expected TOPIC line first", line_no)
    topic = m.group(1)

    if len(lines) < 2:
        raise ParseError("missing PATH line", line_no)
    line_no, second = lines[1]
    m = _PATH_RE.match(second)
    if not m:
        raise ParseError("expected PATH line after TOPIC", line_no)
    rels = [r.strip() for r in m.group(1).split("->")]
    if any(not r or " " in r or ";" in r for r in rels):
        raise ParseError(f"bad relation chain: {m.group(1)!r}", line_no)
    path = tuple(rels)

    constraints: list[Constraint] = []
    for line_no, ln in lines[2:]:
        m = _CONSTRAINT_RE.match(ln)
        if not m:
            raise ParseError(f"expected CONSTRAINT line, got {ln!r}", line_no)
        try:
            hop = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise ParseError("hop number too long", line_no) from None
        value = _parse_constraint_body(m.group(3), line_no)
        constraints.append(Constraint(hop, m.group(2), value))
        if not 1 <= hop <= len(path):
            raise HopOutOfRange(len(constraints) - 1, hop, len(path))

    return ReasoningPath(topic, path, tuple(constraints))


def serialize_reasoning_path(rp: ReasoningPath) -> str:
    """Canonical text form; constraints sorted, grounding not serialized."""
    out = [f"TOPIC: {rp.topic_surface}", f"PATH: {' -> '.join(rp.path)}"]
    for c in sorted(rp.constraints, key=Constraint.sort_key):
        out.append(f"CONSTRAINT: hop={c.hop}; rel={c.relation}; {c.body_text()}")
    return "\n".join(out)


def canonicalize(rp: ReasoningPath) -> ReasoningPath:
    """Sort constraints and re-derive threshold kinds from their text.

    Idempotent; parse(serialize(rp)) equals canonicalize(rp) up to
    grounding, which the text form does not carry.
    """
    fixed = []
    for c in rp.constraints:
        v = c.value
        if isinstance(v, NumericCompare) and v.threshold is not None:
            lit = classify_threshold(v.threshold.text)
            if lit != v.threshold:
                c = replace(c, value=replace(v, threshold=lit))
        fixed.append(c)
    ordered = tuple(sorted(fixed, key=Constraint.sort_key))
    return replace(rp, constraints=ordered)


def ground_reasoning_path(g: KnowledgeGraph, rp: ReasoningPath) -> ReasoningPath:
    """Resolve the topic and entity-constraint surfaces via the alias table.

    The topic must resolve (UnknownEntity otherwise). Constraint entities
    that fail to resolve stay ungrounded; execution treats them as
    unsatisfiable rather than erroring.
    """
    topic = g.ground_entity(rp.topic_surface)
    constraints = []
    for c in rp.constraints:
        if isinstance(c.value, EntityMatch) and c.value.entity is None:
            try:
                c = replace(c, value=replace(c.value, entity=g.ground_entity(c.value.surface)))
            except UnknownEntity:
                pass
        constraints.append(c)
    return replace(rp, topic_entity=topic, constraints=tuple(constraints))
