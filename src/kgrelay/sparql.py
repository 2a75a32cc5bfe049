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
from dataclasses import dataclass

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
from .kg import STRING, Literal, parse_literal_token
from .reasoning import (
    ComparisonOp,
    Constraint,
    ConstraintValue,
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


class _Parser:
    """The tokens of one query text, read front to back.

    A token is ``(kind, text, line)``: its group in ``_TOKEN_RE``, its
    text and the line it ends on. Whitespace makes no token.
    """

    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        pos, line = 0, 1
        while pos < len(text):
            if not (m := _TOKEN_RE.match(text, pos)):
                raise ParseError(f"unexpected character {text[pos]!r}", line)
            line += text.count("\n", pos, m.end())
            pos = m.end()
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), line))

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", self.tokens[-1][2] if self.tokens else 1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def take(self, kind: str, what: str, word: str | None = None) -> str:
        """The text of the next token, which must be of ``kind`` and, when
        ``word`` is given, spell it in any case; otherwise ParseError
        ``"{what}, got {text!r}"``."""
        got, value, line = self.next()
        if got != kind or word is not None and value.upper() != word:
            raise ParseError(f"{what}, got {value!r}", line)
        return value

    def literal(self, value: str) -> Literal:
        """The literal that ``value``, the token just read, spells."""
        try:
            return parse_literal_token(value)
        except ValueError as exc:
            raise ParseError(f"bad literal {value!r}: {exc}", self.tokens[self.pos - 1][2])

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
            return self.literal(value)
        raise ParseError(f"expected a term, got {value!r}", line)


def parse_sparql(text: str) -> SparqlQuery:
    """Parse subset text into an AST. Raises ParseError or UnsupportedFeature."""
    p = _Parser(text)
    p.take("name", "expected SELECT", "SELECT")
    kind, value, line = p.peek()
    if kind != "name" or value.upper() != "DISTINCT":
        raise UnsupportedFeature(f"line {line}: SELECT without DISTINCT")
    p.next()
    select_var = Var(p.take("var", "expected one select variable")[1:])
    kind, value, line = p.peek()
    if kind == "var":
        raise UnsupportedFeature(f"line {line}: more than one select variable")
    p.take("name", "expected WHERE", "WHERE")
    p.take("punct", "expected '{'", "{")

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
            p.take("punct", "expected '('", "(")
            fvar = Var(p.take("var", "FILTER must start with a variable")[1:])
            op = _TEXT_OP[p.take("op", "expected comparison operator")]
            lit = p.literal(p.take("lit", "FILTER compares against a literal"))
            p.take("punct", "expected ')'", ")")
            filters.append(FilterClause(fvar, op, lit))
            continue
        # triple pattern
        subject = p.term()
        if isinstance(subject, Literal):
            raise ParseError("a literal cannot be a subject", line)
        kind, value, line = p.peek()
        if kind == "var":
            raise UnsupportedFeature(f"line {line}: variable in relation position")
        rel = p.term()
        if not isinstance(rel, str):
            raise ParseError("expected a relation symbol", line)
        obj = p.term()
        p.take("punct", "pattern must end with '.'", ".")
        patterns.append(TriplePattern(subject, rel, obj))

    order = None
    kind, value, line = p.peek()
    if kind == "name" and value.upper() == "ORDER":
        p.next()
        p.take("name", "expected BY", "BY")
        kind, value, line = p.next()
        if kind != "name" or value.upper() not in ("ASC", "DESC"):
            raise UnsupportedFeature(f"line {line}: ORDER BY needs ASC(...) or DESC(...)")
        descending = value.upper() == "DESC"
        p.take("punct", "expected '('", "(")
        ovar = Var(p.take("var", "expected a variable in ORDER BY")[1:])
        p.take("punct", "expected ')'", ")")
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
    AmbiguousMainPath when more than one simple path does. One backward
    and one forward pass decide it, so the cost is linear in the pattern
    count.
    """
    # The nodes are the terms: a Var never equals an entity name.
    edges: dict[Var | str, list[tuple[Var | str, TriplePattern]]] = {}
    into: dict[Var | str, list[tuple[Var | str, TriplePattern]]] = {}
    sources: set[str] = set()
    for pat in q.patterns:
        s, o = pat.subject, pat.object
        if isinstance(s, str):
            sources.add(s)
        if isinstance(o, Literal):
            continue
        edges.setdefault(s, []).append((o, pat))
        into.setdefault(o, []).append((s, pat))
        if isinstance(o, str):
            sources.add(o)

    # Backward, breadth first from the select variable: each node that
    # reaches it, with the next node and pattern on a shortest path there.
    toward: dict[Var | str, tuple[Var | str, TriplePattern] | None] = {q.select_var: None}
    queue: list[Var | str] = [q.select_var]
    for node in queue:
        for prev, pat in into.get(node, ()):
            if prev not in toward:
                toward[prev] = (node, pat)
                queue.append(prev)
    starts = [src for src in sources if src in toward]
    if not starts:
        raise NoTopicEntity("no named entity reaches the select variable")
    if len(starts) > 1:
        raise AmbiguousMainPath("more than one candidate main path")
    node = starts[0]
    path: list[TriplePattern] = []
    position = {node: 0}
    while (step := toward[node]) is not None:
        node, pat = step
        path.append(pat)
        position[node] = len(path)

    # Forward: a second simple path leaves this one at some chain node n_i
    # and first rejoins it at a later node n_j, by a pattern other than
    # hop i or through nodes off the chain. Rounds run in chain order and
    # visit each off-chain node once, from the first n_i that reaches it,
    # so a pattern into a later n_j from n_i or from a node its round
    # visits is such a path.
    off_chain: set[Var | str] = set()
    for i, hop in enumerate(path):
        stack = [hop.subject]
        while stack:
            for nxt, pat in edges.get(stack.pop(), ()):
                j = position.get(nxt)
                if j is None:
                    if nxt not in off_chain:
                        off_chain.add(nxt)
                        stack.append(nxt)
                elif j > i and pat is not hop:
                    raise AmbiguousMainPath("more than one candidate main path")
    return starts[0], path


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
    bound: set[Var] = set()
    shared: Var | None = None  # the first branch variable bound twice
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
        if shared is None and obj in bound:
            shared = obj
        bound.add(obj)
        descending = q.order.descending if order_var == obj else None
        branches.append(Branch(hop, pat, tuple(filters_of.get(obj, ())), descending))

    for var in filters_of:
        if var not in bound:
            raise UnclassifiableBranch(f"filter on unknown variable ?{var.name}")
    if order_var is not None and order_var not in bound:
        raise UnclassifiableBranch(f"order on unknown variable ?{order_var.name}")
    if shared is not None:
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


def branch_values(b: Branch) -> list[ConstraintValue]:
    """What a branch constrains on its hop; [] for a bare branch variable,
    one with neither a filter nor an order."""
    obj = b.pattern.object
    if isinstance(obj, str):
        return [EntityMatch(obj, entity=obj)]
    if isinstance(obj, Literal):
        return [_literal_value(ComparisonOp.EQ, obj)]
    values = [_literal_value(f.op, f.value) for f in b.filters]
    if b.descending is not None:
        op = ComparisonOp.ARGMAX if b.descending else ComparisonOp.ARGMIN
        values.append(NumericCompare(op))
    return values


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
        values = branch_values(b)
        if not values:
            raise UnclassifiableBranch(
                f"branch variable ?{b.pattern.object.name} has no filter or order clause"
            )
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
    # The branch's constraint texts, so canonical clause order agrees
    # with canonical constraint order.
    return " | ".join(sorted(
        Constraint(b.hop, b.pattern.relation, v).body_text() for v in branch_values(b)
    ))


def _term_text(term) -> str:
    if isinstance(term, Var):
        return f"?{term.name}"
    if isinstance(term, Literal):
        return term.token()
    return f":{term}"


def _query_text(q: SparqlQuery) -> str:
    lines = [f"SELECT DISTINCT ?{q.select_var.name} WHERE {{"]
    for pat in q.patterns:
        lines.append(f"  {_term_text(pat.subject)} :{pat.relation} {_term_text(pat.object)} .")
    for f in q.filters:
        lines.append(f"  FILTER(?{f.var.name} {_OP_TEXT[f.op]} {f.value.token()})")
    lines.append("}")
    if q.order is not None:
        direction = "DESC" if q.order.descending else "ASC"
        lines.append(f"ORDER BY {direction}(?{q.order.var.name}) LIMIT 1")
    return "\n".join(lines)


def render_sparql(q: SparqlQuery) -> str:
    """Canonical text, one clause per line, of a chain-shaped query.

    The chain prints first, its variables ?h1..?hN. Then the branches
    from ``chain_branches`` print in hop, relation and constraint-text
    order, each branch variable or literal object named by the next of
    ?c1..; a literal object becomes an ``=`` FILTER on its name. The
    FILTERs follow by that name, operator and value, each value with the
    kind its text gives. Any other query prints as parsed.
    """
    try:
        _, chain, branches = chain_branches(q)
    except KgRelayError:
        return _query_text(q)
    patterns = [
        TriplePattern(pat.subject if i == 1 else Var(f"h{i - 1}"), pat.relation, Var(f"h{i}"))
        for i, pat in enumerate(chain, start=1)
    ]
    filters: list[FilterClause] = []
    order, named = None, 0
    branches.sort(key=lambda b: (b.hop, b.pattern.relation, _branch_body(b)))
    for b in branches:
        var = obj = b.pattern.object
        if not isinstance(obj, str):
            named += 1
            var = Var(f"c{named}")
            clauses = (
                [(ComparisonOp.EQ, obj)] if isinstance(obj, Literal)
                else [(f.op, f.value) for f in b.filters]
            )
            filters += sorted(
                (FilterClause(var, op, _retype(value)) for op, value in clauses),
                key=lambda f: (f.op.value, f.value.token()),
            )
            if b.descending is not None:
                order = OrderClause(var, b.descending)
        patterns.append(TriplePattern(Var(f"h{b.hop}"), b.pattern.relation, var))
    return _query_text(SparqlQuery(Var(f"h{len(chain)}"), tuple(patterns), tuple(filters), order))


def round_trip_check(text: str) -> str | None:
    """Parse, convert to a reasoning path, compile back, and compare
    canonical renderings: None when they are equal, else the failure
    text. Conversion failures are reported, not raised."""
    try:
        q = parse_sparql(text)
        baseline = render_sparql(q)
        regenerated = render_sparql(path_to_sparql(sparql_to_path(q)))
    except KgRelayError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None if regenerated == baseline else "canonical forms differ"
