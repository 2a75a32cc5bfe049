"""A small SPARQL subset: parser, canonical renderer, path conversions.

Supported shape::

    SELECT DISTINCT ?h2 WHERE {
      :USA :country.presidents ?h1 .
      ?h1 :president.office_holder ?h2 .
      ?h2 :position.from ?c1 .
      FILTER(?c1 >= "2000"^^xsd:dateTime)
    }
    ORDER BY DESC(?c1) LIMIT 1

Terms are ``:Symbol`` entities and relations, ``?name`` variables, and
quoted literals with an optional ``@lang`` or ``^^xsd:`` tag. Anything
else in the language (UNION, OPTIONAL, property paths, several select
variables, LIMIT other than the ORDER BY form) raises UnsupportedFeature
rather than being silently misread.

One analysis, ``chain_branches``, decides what is chain-shaped: exactly
one simple path of triple patterns from one named entity to the selected
variable, every remaining pattern a branch hanging off a chain variable,
each branch variable bound by one pattern only, every FILTER and the ORDER
BY on a branch variable, and string FILTERs with ``=`` only. Conversion to
a reasoning path, canonical rendering and query evaluation (in
``execute``) all take their branches from it; the renderer canonicalizes
exactly the queries it accepts and prints any other query as parsed.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, replace
from itertools import count

from .errors import (
    AmbiguousMainPath,
    KgRelayError,
    NoTopicEntity,
    ParseError,
    UnclassifiableBranch,
    UngroundedTopic,
    UnresolvedConstraintEntity,
    UnsupportedFeature,
)
from .kg import STRING, Literal, escape_quotes, parse_literal_token
from .reasoning import (
    ComparisonOp,
    Constraint,
    EntityMatch,
    NumericCompare,
    ReasoningPath,
    StringMatch,
    canonicalize,
    classify_threshold,
)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class TriplePattern:
    subject: Var | str
    relation: str
    object: Var | str | Literal


@dataclass(frozen=True)
class FilterClause:
    var: Var
    op: ComparisonOp
    value: Literal


@dataclass(frozen=True)
class OrderClause:
    var: Var
    descending: bool


@dataclass(frozen=True)
class SparqlQuery:
    select_var: Var
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterClause, ...] = ()
    order: OrderClause | None = None


_OP_TEXT = {
    ComparisonOp.EQ: "=",
    ComparisonOp.GE: ">=",
    ComparisonOp.LE: "<=",
    ComparisonOp.GT: ">",
    ComparisonOp.LT: "<",
}
_TEXT_OP = {v: k for k, v in _OP_TEXT.items()}

# Valid SPARQL keywords outside the subset; named in errors.
_UNSUPPORTED = {
    "UNION", "OPTIONAL", "PREFIX", "BASE", "GROUP", "HAVING", "OFFSET",
    "MINUS", "CONSTRUCT", "ASK", "DESCRIBE", "BIND", "VALUES", "SERVICE",
    "GRAPH", "REDUCED", "EXISTS", "NOT", "A",
}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<lit>"(?:[^"\\]|\\.)*"(?:\^\^xsd:[A-Za-z]+|@[A-Za-z][A-Za-z0-9-]*)?)
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>:[A-Za-z_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<op>>=|<=|=|>|<)
      | (?P<punct>[{}().])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        line += text[pos:m.end()].count("\n")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), line))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", self.tokens[-1][2] if self.tokens else 1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_name(self, word: str):
        kind, value, line = self.next()
        if kind != "name" or value.upper() != word:
            raise ParseError(f"expected {word}, got {value!r}", line)

    def expect_punct(self, ch: str):
        kind, value, line = self.next()
        if kind != "punct" or value != ch:
            raise ParseError(f"expected {ch!r}, got {value!r}", line)

    def _check_unsupported(self, kind: str, value: str, line: int):
        if kind == "name" and value.upper() in _UNSUPPORTED:
            raise UnsupportedFeature(f"line {line}: {value} is outside the subset")

    def term(self):
        kind, value, line = self.next()
        self._check_unsupported(kind, value, line)
        if kind == "var":
            return Var(value[1:])
        if kind == "sym":
            return value[1:]
        if kind == "lit":
            try:
                return parse_literal_token(value)
            except ValueError as exc:
                raise ParseError(f"bad literal {value!r}: {exc}", line)
        raise ParseError(f"expected a term, got {value!r}", line)


def parse_sparql(text: str) -> SparqlQuery:
    """Parse subset text into an AST. Raises ParseError or UnsupportedFeature."""
    p = _Parser(text)
    p.expect_name("SELECT")
    kind, value, line = p.peek()
    if kind == "name" and value.upper() == "DISTINCT":
        p.next()
    else:
        raise UnsupportedFeature(f"line {line}: SELECT without DISTINCT")
    kind, value, line = p.next()
    if kind != "var":
        raise ParseError(f"expected one select variable, got {value!r}", line)
    select_var = Var(value[1:])
    kind, value, line = p.peek()
    if kind == "var":
        raise UnsupportedFeature(f"line {line}: more than one select variable")
    p.expect_name("WHERE")
    p.expect_punct("{")

    patterns: list[TriplePattern] = []
    filters: list[FilterClause] = []
    while True:
        kind, value, line = p.peek()
        if kind == "punct" and value == "}":
            p.next()
            break
        if kind == "eof":
            raise ParseError("unterminated group: missing }", line)
        if kind == "name" and value.upper() == "FILTER":
            p.next()
            p.expect_punct("(")
            kind, value, line = p.next()
            if kind != "var":
                raise ParseError(f"FILTER must start with a variable, got {value!r}", line)
            fvar = Var(value[1:])
            kind, value, line = p.next()
            if kind != "op":
                raise ParseError(f"expected comparison operator, got {value!r}", line)
            op = _TEXT_OP[value]
            kind, value, line = p.next()
            if kind != "lit":
                raise ParseError(f"FILTER compares against a literal, got {value!r}", line)
            try:
                lit = parse_literal_token(value)
            except ValueError as exc:
                raise ParseError(f"bad literal {value!r}: {exc}", line)
            p.expect_punct(")")
            filters.append(FilterClause(fvar, op, lit))
            continue
        # triple pattern
        subject = p.term()
        if isinstance(subject, Literal):
            raise ParseError(f"a literal cannot be a subject", line)
        kind, value, line = p.peek()
        if kind == "var":
            raise UnsupportedFeature(f"line {line}: variable in relation position")
        rel = p.term()
        if not isinstance(rel, str):
            raise ParseError("expected a relation symbol", line)
        obj = p.term()
        kind, value, line = p.next()
        if kind != "punct" or value != ".":
            raise ParseError(f"pattern must end with '.', got {value!r}", line)
        patterns.append(TriplePattern(subject, rel, obj))

    order = None
    kind, value, line = p.peek()
    if kind == "name" and value.upper() == "ORDER":
        p.next()
        p.expect_name("BY")
        kind, value, line = p.next()
        if kind != "name" or value.upper() not in ("ASC", "DESC"):
            raise UnsupportedFeature(f"line {line}: ORDER BY needs ASC(...) or DESC(...)")
        descending = value.upper() == "DESC"
        p.expect_punct("(")
        kind, value, line = p.next()
        if kind != "var":
            raise ParseError(f"expected a variable in ORDER BY, got {value!r}", line)
        ovar = Var(value[1:])
        p.expect_punct(")")
        kind, value, line = p.peek()
        if kind != "name" or value.upper() != "LIMIT":
            raise UnsupportedFeature(f"line {line}: ORDER BY without LIMIT 1")
        p.next()
        kind, value, line = p.next()
        if kind != "num" or value != "1":
            raise UnsupportedFeature(f"line {line}: only LIMIT 1 is supported")
        order = OrderClause(ovar, descending)
    elif kind == "name" and value.upper() == "LIMIT":
        raise UnsupportedFeature(f"line {line}: LIMIT without ORDER BY")

    kind, value, line = p.peek()
    if kind != "eof":
        p._check_unsupported(kind, value, line)
        raise ParseError(f"trailing input: {value!r}", line)

    if not patterns:
        raise ParseError("empty WHERE group")
    return SparqlQuery(select_var, tuple(patterns), tuple(filters), order)


# --- chain analysis ---

def find_main_chain(q: SparqlQuery) -> tuple[str, list[TriplePattern]]:
    """Locate the unique pattern path from a named entity to the select var.

    Returns (topic entity, chain patterns in hop order). Raises
    NoTopicEntity when no named entity reaches the select variable and
    AmbiguousMainPath when more than one simple path does. The search
    stops at the second path, so it stays polynomial in the pattern count.
    """
    def key(term):
        return ("var", term.name) if isinstance(term, Var) else ("ent", term)

    edges: dict[tuple, list[tuple[tuple, TriplePattern]]] = {}
    sources = set()
    for pat in q.patterns:
        if isinstance(pat.object, Literal):
            if not isinstance(pat.subject, Var):
                sources.add(key(pat.subject))
            continue
        s, o = key(pat.subject), key(pat.object)
        edges.setdefault(s, []).append((o, pat))
        if s[0] == "ent":
            sources.add(s)
        if o[0] == "ent":
            sources.add(o)

    target = ("var", q.select_var.name)
    found = None
    for src in sorted(sources):
        path = _shortest_path(edges, src, target, set(), None)
        if path is None:
            continue
        # Any other simple path from src leaves this one at some node, by
        # another pattern, and never revisits the nodes before that one.
        nodes = [src] + [key(pat.object) for pat in path]
        if found or any(
            _shortest_path(edges, nodes[i], target, set(nodes[:i]), pat) is not None
            for i, pat in enumerate(path)
        ):
            raise AmbiguousMainPath("more than one candidate main path")
        found = (src[1], path)
    if found is None:
        raise NoTopicEntity("no named entity reaches the select variable")
    return found


def _shortest_path(
    edges: dict, start: tuple, target: tuple, avoid: set, skip: TriplePattern | None
) -> list[TriplePattern] | None:
    # Breadth-first, so the path found is simple; it enters no node in
    # avoid and does not take the pattern skip.
    back = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == target:
            path = []
            while back[node] is not None:
                node, pat = back[node]
                path.append(pat)
            return path[::-1]
        for nxt, pat in edges.get(node, ()):
            if nxt not in back and nxt not in avoid and pat is not skip:
                back[nxt] = (node, pat)
                queue.append(nxt)
    return None


@dataclass(frozen=True)
class Branch:
    """An off-chain pattern whose subject is the object of chain hop
    ``hop`` (1-based), with the FILTERs on its object variable and the
    ORDER BY direction when the query sorts that variable."""

    hop: int
    pattern: TriplePattern
    filters: tuple[FilterClause, ...] = ()
    descending: bool | None = None


def chain_branches(q: SparqlQuery) -> tuple[str, list[TriplePattern], list[Branch]]:
    """Split a chain-shaped query into (topic, chain, branches).

    Every pattern off the main chain must hang off a chain variable, and
    a branch variable must be new: bound by that one pattern only, not on
    the chain. Every FILTER and the ORDER BY must sit on a branch
    variable, and a string FILTER must use ``=``. Anything else raises
    UnclassifiableBranch; a query with no unique main chain raises the
    find_main_chain errors.
    """
    topic, chain = find_main_chain(q)
    hop_of = {pat.object: i for i, pat in enumerate(chain, start=1)}
    filters_of: dict[Var, list[FilterClause]] = {}
    for f in q.filters:
        if f.var in hop_of:
            raise UnclassifiableBranch(f"filter on chain variable ?{f.var.name}")
        filters_of.setdefault(f.var, []).append(f)
    order_var = q.order.var if q.order else None
    if order_var in hop_of:
        raise UnclassifiableBranch(f"order on chain variable ?{order_var.name}")

    chain_ids = {id(pat) for pat in chain}
    branches: list[Branch] = []
    bound: list[Var] = []
    for pat in q.patterns:
        if id(pat) in chain_ids:
            continue
        hop = hop_of.get(pat.subject)
        if hop is None:
            raise UnclassifiableBranch(f"pattern subject {pat.subject!r} is not on the chain")
        obj = pat.object
        if not isinstance(obj, Var):
            branches.append(Branch(hop, pat))
            continue
        if obj in hop_of:
            raise UnclassifiableBranch("branch variable rejoins the chain")
        bound.append(obj)
        descending = q.order.descending if order_var == obj else None
        branches.append(Branch(hop, pat, tuple(filters_of.get(obj, ())), descending))

    bound_set = set(bound)
    for var in filters_of:
        if var not in bound_set:
            raise UnclassifiableBranch(f"filter on unknown variable ?{var.name}")
    if order_var is not None and order_var not in bound_set:
        raise UnclassifiableBranch(f"order on unknown variable ?{order_var.name}")
    if len(bound_set) < len(bound):
        shared = next(v for i, v in enumerate(bound) if v in bound[:i])
        raise UnclassifiableBranch(
            f"branch variable ?{shared.name} is bound by more than one pattern"
        )
    for f in q.filters:
        if f.value.kind == STRING and f.op != ComparisonOp.EQ:
            raise UnclassifiableBranch(f"string filter with {_OP_TEXT[f.op]!r} on ?{f.var.name}")
    return topic, chain, branches


def _literal_value(op: ComparisonOp, lit: Literal) -> StringMatch | NumericCompare:
    # chain_branches admits only EQ on strings.
    return StringMatch(lit.text) if lit.kind == STRING else NumericCompare(op, lit)


def sparql_to_path(q: SparqlQuery) -> ReasoningPath:
    """Convert a chain-shaped query into a reasoning path.

    Each branch becomes constraints on its hop: an entity object an
    entity match, a literal object an EQ comparison (a string object an
    exact string match), each filter one comparison with its operator,
    and the ORDER BY direction ARGMAX or ARGMIN. A branch variable with
    neither a filter nor an order raises UnclassifiableBranch, as does
    every query chain_branches rejects.
    """
    topic, chain, branches = chain_branches(q)
    constraints: list[Constraint] = []
    for b in branches:
        obj = b.pattern.object
        if isinstance(obj, str):
            values = [EntityMatch(obj, entity=obj)]
        elif isinstance(obj, Literal):
            values = [_literal_value(ComparisonOp.EQ, obj)]
        elif not b.filters and b.descending is None:
            raise UnclassifiableBranch(
                f"branch variable ?{obj.name} has no filter or order clause"
            )
        else:
            values = [_literal_value(f.op, f.value) for f in b.filters]
            if b.descending is not None:
                op = ComparisonOp.ARGMAX if b.descending else ComparisonOp.ARGMIN
                values.append(NumericCompare(op))
        constraints += [Constraint(b.hop, b.pattern.relation, v) for v in values]

    rp = ReasoningPath(
        topic_surface=topic,
        path=tuple(pat.relation for pat in chain),
        constraints=tuple(constraints),
        topic_entity=topic,
    )
    return canonicalize(rp)


def path_to_sparql(rp: ReasoningPath) -> SparqlQuery:
    """Compile a grounded reasoning path into a query.

    Chain variables are ?h1..?hN rooted at the topic entity; constraint
    variables ?c1.. are numbered in canonical constraint order.
    """
    if rp.topic_entity is None:
        raise UngroundedTopic("topic entity is not grounded")
    rp = canonicalize(rp)

    patterns: list[TriplePattern] = []
    prev: Var | str = rp.topic_entity
    for i, rel in enumerate(rp.path, start=1):
        var = Var(f"h{i}")
        patterns.append(TriplePattern(prev, rel, var))
        prev = var

    filters: list[FilterClause] = []
    order: OrderClause | None = None
    counter = 1
    for c in rp.constraints:
        anchor = Var(f"h{c.hop}")
        v = c.value
        if isinstance(v, EntityMatch):
            if v.entity is None:
                raise UnresolvedConstraintEntity(v.surface)
            patterns.append(TriplePattern(anchor, c.relation, v.entity))
            continue
        cvar = Var(f"c{counter}")
        counter += 1
        patterns.append(TriplePattern(anchor, c.relation, cvar))
        if isinstance(v, StringMatch):
            filters.append(FilterClause(cvar, ComparisonOp.EQ, Literal(STRING, v.text)))
        elif v.op.is_extremal:
            if order is not None:
                raise UnsupportedFeature(
                    "more than one extremal constraint cannot compile to one query"
                )
            order = OrderClause(cvar, descending=v.op == ComparisonOp.ARGMAX)
        else:
            filters.append(FilterClause(cvar, v.op, v.threshold))

    return SparqlQuery(Var(f"h{len(rp.path)}"), tuple(patterns), tuple(filters), order)


# --- canonical rendering ---

def _retype(lit: Literal) -> Literal:
    # Non-string literal kinds are re-derived from the text so that the
    # same value always prints the same way.
    return lit if lit.kind == STRING else classify_threshold(lit.text)


def _branch_body(b: Branch) -> str:
    # Mirrors Constraint.body_text so canonical clause order agrees with
    # canonical constraint order.
    obj = b.pattern.object
    if isinstance(obj, str):
        return f"entity={obj}"
    parts = []
    for f in b.filters:
        if f.value.kind == STRING:
            parts.append(f'string="{escape_quotes(f.value.text)}"')
        else:
            parts.append(f'op={f.op.value}; value="{escape_quotes(f.value.text)}"')
    if b.descending is not None:
        parts.append(f"op={'ARGMAX' if b.descending else 'ARGMIN'}")
    return " | ".join(sorted(parts))


def _canonical_ast(q: SparqlQuery) -> SparqlQuery:
    # Inline literal objects become a fresh variable plus an EQ filter;
    # fresh names skip every name the query already uses.
    taken = {q.select_var, *(f.var for f in q.filters)}
    taken.update(t for pat in q.patterns for t in (pat.subject, pat.object))
    if q.order is not None:
        taken.add(q.order.var)
    fresh = (v for v in (Var(f"_lit{i}") for i in count(1)) if v not in taken)
    patterns: list[TriplePattern] = []
    filters = [replace(f, value=_retype(f.value)) for f in q.filters]
    for pat in q.patterns:
        if isinstance(pat.object, Literal):
            var = next(fresh)
            patterns.append(replace(pat, object=var))
            filters.append(FilterClause(var, ComparisonOp.EQ, _retype(pat.object)))
        else:
            patterns.append(pat)
    q = SparqlQuery(q.select_var, tuple(patterns), tuple(filters), q.order)

    try:
        _, chain, branches = chain_branches(q)
    except KgRelayError:
        return q  # not chain shaped; leave as parsed
    branches.sort(key=lambda b: (b.hop, b.pattern.relation, _branch_body(b)))
    rename = {pat.object: Var(f"h{i}") for i, pat in enumerate(chain, start=1)}
    branch_vars = [b.pattern.object for b in branches if isinstance(b.pattern.object, Var)]
    rename.update((v, Var(f"c{i}")) for i, v in enumerate(branch_vars, start=1))

    def sub(term):
        return rename.get(term, term)

    out_patterns = tuple(
        replace(pat, subject=sub(pat.subject), object=sub(pat.object))
        for pat in chain + [b.pattern for b in branches]
    )
    out_filters = [replace(f, var=rename[f.var]) for f in q.filters]
    # (len, name) sorts c2 before c10; plain lexicographic would not.
    out_filters.sort(key=lambda f: (len(f.var.name), f.var.name, f.op.value, f.value.token()))
    order = replace(q.order, var=rename[q.order.var]) if q.order else None
    return SparqlQuery(rename[q.select_var], out_patterns, tuple(out_filters), order)


def _term_text(term) -> str:
    if isinstance(term, Var):
        return f"?{term.name}"
    if isinstance(term, Literal):
        return term.token()
    return f":{term}"


def render_sparql(q: SparqlQuery) -> str:
    """Canonical text: one clause per line, chain variables renamed to
    ?h1..?hN and constraint variables to ?c1.. when the query is chain
    shaped; other queries print with their original names."""
    q = _canonical_ast(q)
    lines = [f"SELECT DISTINCT {_term_text(q.select_var)} WHERE {{"]
    for pat in q.patterns:
        lines.append(
            f"  {_term_text(pat.subject)} :{pat.relation} {_term_text(pat.object)} ."
        )
    for f in q.filters:
        lines.append(f"  FILTER({_term_text(f.var)} {_OP_TEXT[f.op]} {f.value.token()})")
    lines.append("}")
    if q.order is not None:
        direction = "DESC" if q.order.descending else "ASC"
        lines.append(f"ORDER BY {direction}({_term_text(q.order.var)}) LIMIT 1")
    return "\n".join(lines)


@dataclass(frozen=True)
class RoundTripReport:
    ok: bool
    error: str | None = None
    rendered: str | None = None
    regenerated: str | None = None


def round_trip_check(text: str) -> RoundTripReport:
    """Parse, convert to a reasoning path, compile back, and compare
    canonical renderings. Conversion failures are reported, not raised."""
    try:
        q = parse_sparql(text)
        baseline = render_sparql(q)
        rp = sparql_to_path(q)
        regenerated = render_sparql(path_to_sparql(rp))
    except KgRelayError as exc:
        return RoundTripReport(False, f"{type(exc).__name__}: {exc}")
    if regenerated != baseline:
        return RoundTripReport(False, "canonical forms differ", baseline, regenerated)
    return RoundTripReport(True, None, baseline, regenerated)
