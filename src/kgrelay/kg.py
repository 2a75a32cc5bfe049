"""In-memory knowledge graph with indexed traversal primitives.

Triples are (subject, relation, object); the object is either an entity
symbol or a typed literal. The graph keeps one relation-major index
(relation -> subject -> frozen object set), in which equal object sets are
one shared frozenset, plus each subject's relation tuple and a count of
distinct triples. The inverse of a relation (entity object -> frozen
subject set) is built the first time it is asked for. What the graph
answers never changes once it is built, so it can be shared freely across
worker threads.

Every chain walk, filtered or bare, runs through ``KnowledgeGraph.walk``,
the one owner of the walk-prefix memo and its format. A walk is one flat
list of steps: a relation name, or the key of a filter, which the one
function the caller passes applies to a frontier.

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
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Collection, Hashable, Iterable, Iterator, Mapping

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

_NO_NODES: frozenset = frozenset()
_NO_OBJECTS: Mapping = MappingProxyType({})


def node_sort_key(node: NodeRef) -> tuple:
    # Entities before literals, then lexicographic. Total and deterministic.
    if isinstance(node, str):
        return (0, node, "", "")
    return (1, node.kind, node.text, node.lang or "")


def answer_texts(nodes: Collection[NodeRef]) -> list[str]:
    """The answer text of each node, in ``node_sort_key`` order: an
    entity's symbol, a literal's text.

    An entity is its own text, so entities sort as plain strings and only
    the few literals need the key. The list is built at its final size.
    """
    literals = [n for n in nodes if type(n) is not str]
    if not literals:
        return sorted(nodes)
    entities = [n for n in nodes if type(n) is str]
    entities.sort()
    return entities + [n.text for n in sorted(literals, key=node_sort_key)]


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
    """Immutable relation-major index with an alias table and a triple count."""

    def __init__(
        self,
        triples: Iterable[tuple[EntityId, RelationId, NodeRef]],
        aliases: dict[str, set[EntityId]] | None = None,
    ):
        """``aliases`` maps a surface to candidate ids. It is read only
        after ``triples`` is consumed, so a generator may fill it."""
        # The first object of a (relation, subject) pair is stored bare; a
        # second, different one turns it into a set.
        index: dict[RelationId, dict[EntityId, NodeRef | set[NodeRef]]] = {}
        for s, r, o in triples:
            if (objs := index.get(r)) is None:
                objs = index[r] = {}
            if (prev := objs.get(s)) is None:
                objs[s] = o
            elif type(prev) is set:
                prev.add(o)
            elif prev != o:
                objs[s] = {prev, o}

        # Freeze: one shared frozenset per distinct object set (a bare object
        # is keyed by itself), and one shared tuple per distinct relation
        # list, which follows index order for every subject.
        shared: dict[NodeRef | frozenset[NodeRef], frozenset[NodeRef]] = {}
        out: dict[EntityId, list[RelationId] | tuple[RelationId, ...]] = {}
        count = 0
        for r, objs in index.items():
            for s, v in objs.items():
                if type(v) is set:
                    v = frozenset(v)
                    frozen = shared.setdefault(v, v)
                elif (frozen := shared.get(v)) is None:
                    frozen = shared[v] = frozenset((v,))
                objs[s] = frozen
                count += len(frozen)
                out.setdefault(s, []).append(r)
        tuples: dict[tuple[RelationId, ...], tuple[RelationId, ...]] = {}
        for s, rels in out.items():
            out[s] = tuples.setdefault(t := tuple(rels), t)
        self._index: dict[RelationId, dict[EntityId, frozenset[NodeRef]]] = index
        self._relations_of = out
        self._inverse: dict[RelationId, dict[EntityId, frozenset[EntityId]]] = {}
        self._count = count

        # Alias table: casefolded surface -> smallest candidate id, so ties
        # are decided once, here. Every entity is a candidate for its own
        # casefolded name, which interning shares when it is the name itself.
        self.aliases: dict[str, EntityId] = {}
        own = ((e, (e,)) for e in self._entities(shared.values()))
        for surface, ids in chain(own, (aliases or {}).items()):
            key = sys.intern(surface.casefold())
            for e in ids:
                self.aliases[key] = min(e, self.aliases.get(key, e))

    def __len__(self) -> int:
        return self._count

    def _entities(self, object_sets: Iterable[frozenset[NodeRef]]) -> set[EntityId]:
        found = set(self._relations_of)
        for objs in object_sets:
            found.update(o for o in objs if isinstance(o, str))
        return found

    @property
    def entities(self) -> frozenset[EntityId]:
        """Every subject and entity object, derived from the index on each
        access; nothing but counts needs it, so no copy is kept."""
        shared = {f for objs in self._index.values() for f in objs.values()}
        return frozenset(self._entities(shared))

    @property
    def relations(self) -> frozenset[RelationId]:
        """Every relation name, derived from the index on each access."""
        return frozenset(self._index)

    def objects(self, relation: RelationId) -> Mapping[EntityId, frozenset[NodeRef]]:
        """The index for one relation: subject -> frozen object set.

        Subjects without the relation are absent. The mapping is the
        graph's own and must not be changed; it is returned bare because
        an executor step reads it once for a whole frontier.
        """
        return self._index.get(relation, _NO_OBJECTS)

    def subjects(self, relation: RelationId, entity: EntityId | None) -> frozenset[EntityId]:
        """Subjects of (*, relation, entity); empty when none exist.

        The inverse of a relation is built on its first use and published
        with one dict store. Threads that race build equal inverses, so
        the answer never depends on which store lands.
        """
        if (inverse := self._inverse.get(relation)) is None:
            if relation not in self._index:
                return _NO_NODES
            found: dict[EntityId, list[EntityId]] = {}
            for s, objs in self._index[relation].items():
                for o in objs:
                    if isinstance(o, str):
                        found.setdefault(o, []).append(s)
            inverse = {o: frozenset(subs) for o, subs in found.items()}
            self._inverse[relation] = inverse
        return inverse.get(entity, _NO_NODES)

    def neighbors(self, entity: EntityId, relation: RelationId) -> frozenset[NodeRef]:
        """Objects of (entity, relation, *); empty set when none exist.

        Two lookups per call. Walks do not use it: they expand whole
        frontiers through ``image``.
        """
        return self._index.get(relation, _NO_OBJECTS).get(entity, _NO_NODES)

    def outgoing_relations(self, frontier: Collection[NodeRef]) -> list[RelationId]:
        """Sorted union of relations leaving any frontier entity.

        A literal is never a subject, so literals in the frontier
        contribute nothing and a walked frontier is passed as it is.
        Sorted output keeps downstream tie-breaking independent of set
        iteration order, which varies across processes. A one-node
        frontier sorts the subject's own relation tuple, whose names are
        distinct, with no set built.
        """
        if len(frontier) == 1:
            (entity,) = frontier
            return sorted(self._relations_of.get(entity, ()))
        return sorted(set().union(*map(self._relations_of.get, frontier, repeat(()))))

    def image(self, frontier: Collection[NodeRef], relation: RelationId) -> frozenset[NodeRef]:
        """Objects of (n, relation, *) over every node n of the frontier.

        The one hop of every chain walk. A one-node frontier gets the
        graph's own frozen object set, with no copy; a larger one gets a
        new union. A literal is never a subject, so it finds no objects.
        """
        objs = self._index.get(relation, _NO_OBJECTS)
        if len(frontier) == 1:
            (node,) = frontier
            return objs.get(node, _NO_NODES)
        return frozenset().union(*map(objs.get, frontier, repeat(_NO_NODES)))

    def walk(
        self, start: EntityId, steps: Iterable[RelationId | Hashable],
        memo: dict, keep: Callable | None = None,
    ) -> frozenset[NodeRef]:
        """Run a plan of steps from ``start``. A step that is a ``str`` is
        a relation, expanded through ``image``; any other step is a key,
        and a key the memo does not hold at its place is applied as
        ``keep(graph, frontier, key)``, the frontier going on as what that
        returns.

        ``memo`` keeps every walked prefix as a trie: it maps the start to
        a level, and a level maps the next step to the frontier it gives
        and the level after it. Walks through one memo compute a shared
        prefix once, and a walk adds at most one entry per step. A literal
        has no objects, so it ends a walk where it is reached, and an
        empty frontier ends the walk at the next relation. A memo is only
        valid for one graph and one ``keep``, and each question gets its
        own.
        """
        if (level := memo.get(start)) is None:
            level = memo[start] = {}
        frontier: Collection[NodeRef] = frozenset((start,))
        for step in steps:
            if isinstance(step, str):
                if not frontier:
                    return _NO_NODES
                if (entry := level.get(step)) is None:
                    entry = level[step] = (self.image(frontier, step), {})
            elif (entry := level.get(step)) is None:
                entry = level[step] = (keep(self, frontier, step), {})
            frontier, level = entry
        return frozenset(frontier)

    def reach(
        self, start: EntityId, relations: Iterable[RelationId], memo: dict
    ) -> frozenset[NodeRef]:
        """Entities/literals reached from start along a relation chain.

        The empty chain reaches exactly {start}. Literals reached before
        the final hop cannot be expanded and are dropped; literals in the
        final frontier are kept. It is ``walk`` with relations only, so
        the result may be the graph's own object set.
        """
        return self.walk(start, relations, memo)

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
        with open(path, encoding="utf-8-sig") as fh:
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
