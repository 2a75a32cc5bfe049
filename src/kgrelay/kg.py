"""In-memory knowledge graph with indexed traversal primitives.

Triples are (subject, relation, object); the object is either an entity
symbol or a typed literal. The graph keeps one adjacency index
(subject -> relation -> frozen object set) and a count of distinct
triples. It is immutable once built, so it can be shared freely across
worker threads.

TSV input format, one triple per line::

    subject<TAB>relation<TAB>object

where object is an entity symbol, a quoted string (optionally tagged
``@lang``), or a typed literal such as ``"2009"^^xsd:dateTime``. Lines of
the form ``@alias<TAB>surface<TAB>entity`` add alias-table entries.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .errors import BadLiteral, MalformedLine, UnknownEntity

EntityId = str
RelationId = str

# Literal kinds.
STRING = "string"
NUMERIC = "numeric"
DATETIME = "datetime"

DATETIME_RE = re.compile(r"^\d{4}(-\d{2}(-\d{2})?)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")
_LITERAL_TOKEN_RE = re.compile(
    r'^"(?P<body>(?:[^"\\]|\\.)*)"'
    r"(?:\^\^xsd:(?P<xsd>dateTime|float|integer)|@(?P<lang>[A-Za-z][A-Za-z0-9-]*))?$"
)


def unescape_quotes(body: str) -> str:
    return body.replace('\\"', '"').replace("\\\\", "\\")


def escape_quotes(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True)
class Literal:
    """A typed literal value.

    kind is one of ``string``, ``numeric``, ``datetime``. The text is kept
    verbatim; numeric comparison parses it on demand. ``lang`` is only
    meaningful for strings.
    """

    kind: str
    text: str
    lang: str | None = None

    def __post_init__(self):
        if self.kind not in (STRING, NUMERIC, DATETIME):
            raise ValueError(f"unknown literal kind: {self.kind!r}")
        if self.kind == NUMERIC:
            try:
                value = Decimal(self.text)
            except InvalidOperation as exc:
                raise ValueError(f"not a number: {self.text!r}") from exc
            if not value.is_finite():
                raise ValueError(f"not finite: {self.text!r}")
        elif self.kind == DATETIME and not DATETIME_RE.match(self.text):
            raise ValueError(f"not a date: {self.text!r}")
        if self.lang is not None and self.kind != STRING:
            raise ValueError("only strings carry a language tag")

    def decimal(self) -> Decimal:
        # Valid by construction for numeric literals.
        return Decimal(self.text)

    def token(self) -> str:
        """Render in the surface syntax used by TSV files and queries."""
        quoted = f'"{escape_quotes(self.text)}"'
        if self.kind == DATETIME:
            return quoted + "^^xsd:dateTime"
        if self.kind == NUMERIC:
            tag = "float" if any(c in self.text for c in ".eE") else "integer"
            return f"{quoted}^^xsd:{tag}"
        if self.lang:
            return f"{quoted}@{self.lang}"
        return quoted


NodeRef = EntityId | Literal


def node_text(node: NodeRef) -> str:
    """Plain answer text for an entity symbol or literal."""
    return node if isinstance(node, str) else node.text


def node_sort_key(node: NodeRef) -> tuple:
    # Entities before literals, then lexicographic. Total and deterministic.
    if isinstance(node, str):
        return (0, node, "", "")
    return (1, node.kind, node.text, node.lang or "")


def parse_literal_token(token: str) -> Literal:
    """Parse a quoted literal token; raises ValueError on bad input."""
    m = _LITERAL_TOKEN_RE.match(token)
    if not m:
        raise ValueError("malformed literal token")
    text = unescape_quotes(m.group("body"))
    xsd = m.group("xsd")
    if xsd == "dateTime":
        return Literal(DATETIME, text)
    if xsd == "integer":
        if not _INTEGER_RE.match(text):
            raise ValueError(f"not an integer: {text!r}")
        return Literal(NUMERIC, text)
    if xsd == "float":
        return Literal(NUMERIC, text)
    return Literal(STRING, text, lang=m.group("lang"))


class KnowledgeGraph:
    """Immutable adjacency index with an alias table and a triple count."""

    def __init__(
        self,
        triples: Iterable[tuple[EntityId, RelationId, NodeRef]],
        aliases: dict[str, set[EntityId]] | None = None,
    ):
        """``aliases`` maps a surface to candidate ids. It is read only
        after ``triples`` is consumed, so a generator may fill it."""
        adj: dict[EntityId, dict[RelationId, frozenset[NodeRef]]] = {}
        entities: set[EntityId] = set()
        for s, r, o in triples:
            adj.setdefault(s, {}).setdefault(r, set()).add(o)
            if isinstance(o, str):
                entities.add(o)
        entities.update(adj)
        # Freeze each object set in place; duplicates have already collapsed.
        for rels in adj.values():
            for r, objs in rels.items():
                rels[r] = frozenset(objs)
        self._adj = adj
        self._count = sum(len(objs) for rels in adj.values() for objs in rels.values())
        self.entities: frozenset[EntityId] = frozenset(entities)
        self.relations = frozenset(r for rels in adj.values() for r in rels)

        # Alias table: casefolded surface -> smallest candidate id, so ties
        # are decided once, here. Every entity is a candidate for its own
        # casefolded name, which interning shares when it is the name itself.
        self.aliases: dict[str, EntityId] = {}
        for surface, ids in chain(((e, (e,)) for e in entities), (aliases or {}).items()):
            key = sys.intern(surface.casefold())
            for e in ids:
                self.aliases[key] = min(e, self.aliases.get(key, e))

    def __len__(self) -> int:
        return self._count

    def neighbors(self, entity: EntityId, relation: RelationId) -> frozenset[NodeRef]:
        """Objects of (entity, relation, *); empty set when none exist."""
        return self._adj.get(entity, {}).get(relation, frozenset())

    def outgoing_relations(self, frontier: Iterable[EntityId]) -> list[RelationId]:
        """Sorted union of relations leaving any frontier entity.

        Sorted output keeps downstream tie-breaking independent of set
        iteration order, which varies across processes.
        """
        rels: set[RelationId] = set()
        for e in frontier:
            rels.update(self._adj.get(e, ()))
        return sorted(rels)

    def reach(self, start: EntityId, relations: Iterable[RelationId]) -> set[NodeRef]:
        """Entities/literals reached from start along a relation chain.

        The empty chain reaches exactly {start}. Literals reached before
        the final hop cannot be expanded and are dropped; literals in the
        final frontier are kept.
        """
        frontier: set[NodeRef] = {start}
        for rel in relations:
            step: set[NodeRef] = set()
            for node in frontier:
                if isinstance(node, str):
                    step.update(self._adj.get(node, {}).get(rel, ()))
            frontier = step
            if not frontier:
                return set()
        return frontier

    def ground_entity(self, surface: str) -> EntityId:
        """Resolve a surface form through the alias table.

        Matching is exact after casefolding; ties resolve to the
        lexicographically smallest id so grounding is deterministic.
        """
        if (entity := self.aliases.get(surface.casefold())) is None:
            raise UnknownEntity(surface)
        return entity


def load_tsv(path: str | Path) -> KnowledgeGraph:
    """Load a graph from a TSV file. Duplicate triples collapse silently.

    One pass feeds each line to the index as it is read. Names repeat
    across lines, so every subject, relation and entity object is interned
    and each distinct literal token parses to one shared ``Literal``.
    """
    aliases: dict[str, set[EntityId]] = {}
    literals: dict[str, Literal] = {}
    intern = sys.intern

    def triples() -> Iterator[tuple[EntityId, RelationId, NodeRef]]:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise MalformedLine(line_no, f"expected 3 fields, got {len(fields)}")
                first, second, third = fields
                if first == "@alias":
                    if not second or not third:
                        raise MalformedLine(line_no, "empty alias field")
                    aliases.setdefault(second, set()).add(third)
                    continue
                if not first or not second or not third:
                    raise MalformedLine(line_no, "empty field")
                if not third.startswith('"'):
                    obj = intern(third)
                elif (obj := literals.get(third)) is None:
                    try:
                        obj = literals[third] = parse_literal_token(third)
                    except ValueError as exc:
                        raise BadLiteral(line_no, third, str(exc)) from exc
                yield intern(first), intern(second), obj

    return KnowledgeGraph(triples(), aliases)
