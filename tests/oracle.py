"""Independent brute-force reference implementations used by the tests.

Everything here works on raw TSV text and plain tuples, scanning the
triple list on every step. No indexes, no package graph types: agreement
between these functions and the package is evidence, not tautology.

Node keys: ("e", symbol) for entities, ("l", kind, text, lang) for
literals. Package results are mapped through node_key() for comparison.
"""

from __future__ import annotations

import re
from collections import Counter
from decimal import Decimal

from kgrelay.kg import Literal
from kgrelay.reasoning import (
    ComparisonOp,
    Constraint,
    EntityMatch,
    NumericCompare,
    ReasoningPath,
    StringMatch,
    classify_threshold,
)

# --- independent TSV parsing ---

_LIT_RE = re.compile(
    r'^"(?P<body>(?:[^"\\]|\\.)*)"'
    r"(?:\^\^xsd:(?P<tag>dateTime|float|integer)|@(?P<lang>[A-Za-z][A-Za-z0-9-]*))?$"
)


def _unescape(body: str) -> str:
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _object_key(token: str):
    if not token.startswith('"'):
        return ("e", token)
    m = _LIT_RE.match(token)
    assert m, f"oracle cannot parse literal {token!r}"
    text = _unescape(m.group("body"))
    tag = m.group("tag")
    if tag == "dateTime":
        return ("l", "datetime", text, None)
    if tag in ("integer", "float"):
        return ("l", "numeric", text, None)
    return ("l", "string", text, m.group("lang"))


class OracleGraph:
    """Triples as a set of (subject, relation, object-key) tuples."""

    def __init__(self, triples, aliases):
        self.triples = frozenset(triples)
        entities = {s for s, _, _ in self.triples}
        entities |= {o[1] for _, _, o in self.triples if o[0] == "e"}
        self.entities = entities
        self.relations = {r for _, r, _ in self.triples}
        table: dict[str, set[str]] = {}
        for e in entities:
            table.setdefault(e.casefold(), set()).add(e)
        for surface, target in aliases:
            table.setdefault(surface.casefold(), set()).add(target)
        self.alias_table = table

    def ground(self, surface: str) -> str | None:
        hits = self.alias_table.get(surface.casefold())
        return min(hits) if hits else None

    def objects(self, entity: str, relation: str) -> set:
        return {o for s, r, o in self.triples if s == entity and r == relation}


def parse_tsv(text: str) -> OracleGraph:
    triples = []
    aliases = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        fields = raw.split("\t")
        assert len(fields) == 3, f"oracle: bad line {raw!r}"
        a, b, c = fields
        if a == "@alias":
            aliases.append((b, c))
        else:
            triples.append((a, b, _object_key(c)))
    return OracleGraph(triples, aliases)


def node_key(node) -> tuple:
    """Map a package NodeRef (entity str or Literal) to an oracle key."""
    if isinstance(node, str):
        return ("e", node)
    assert isinstance(node, Literal)
    return ("l", node.kind, node.text, node.lang)


def keyset(nodes) -> frozenset:
    return frozenset(node_key(n) for n in nodes)


# --- reference answer text ---

def normalize_answer(text: str) -> str:
    """Whitespace runs collapsed to one space, trimmed, casefolded."""
    return " ".join(text.split()).casefold()


def node_text(node) -> str:
    """An entity symbol as itself, a literal as its text."""
    return node if isinstance(node, str) else node.text


# --- brute-force reach ---

def oracle_reach(og: OracleGraph, start: str, relations) -> frozenset:
    frontier = {("e", start)}
    for rel in relations:
        step = set()
        for node in frontier:
            if node[0] == "e":
                step |= og.objects(node[1], rel)
        frontier = step
    return frozenset(frontier)


# --- brute-force constrained execution ---

def _cmp_key(okey):
    # okey is a literal key of kind numeric or datetime.
    _, kind, text, _ = okey
    return (kind, Decimal(text)) if kind == "numeric" else (kind, text)


def _binary_holds(okey, op: ComparisonOp, threshold: Literal) -> bool:
    _, kind, text, _ = okey
    if kind != threshold.kind or kind == "string":
        return False
    if kind == "numeric":
        a, b = Decimal(text), Decimal(threshold.text)
    else:
        a, b = text, threshold.text
    return {
        ComparisonOp.EQ: a == b,
        ComparisonOp.GE: a >= b,
        ComparisonOp.LE: a <= b,
        ComparisonOp.GT: a > b,
        ComparisonOp.LT: a < b,
    }[op]


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _constraint_order(c: Constraint) -> tuple:
    # Binary before extremal, then the canonical body grammar text.
    v = c.value
    extremal = isinstance(v, NumericCompare) and v.op.is_extremal
    if isinstance(v, EntityMatch):
        body = f"entity={v.surface}"
    elif isinstance(v, StringMatch):
        body = f'string="{_escape(v.text)}"'
    elif v.threshold is None:
        body = f"op={v.op.value}"
    else:
        body = f'op={v.op.value}; value="{_escape(v.threshold.text)}"'
    return (extremal, c.hop, c.relation, body)


def _apply(og: OracleGraph, entities: set, c: Constraint) -> set:
    v = c.value
    if isinstance(v, EntityMatch):
        target = v.entity if v.entity is not None else og.ground(v.surface)
        if target is None:
            return set()
        return {
            e for e in entities if ("e", target) in og.objects(e, c.relation)
        }
    if isinstance(v, StringMatch):
        want = v.text.strip()
        return {
            e
            for e in entities
            if any(
                o[0] == "l" and o[1] == "string" and o[2].strip() == want
                for o in og.objects(e, c.relation)
            )
        }
    if v.op.is_extremal:
        best = {}
        for e in entities:
            vals = [
                _cmp_key(o)
                for o in og.objects(e, c.relation)
                if o[0] == "l" and o[1] in ("numeric", "datetime")
            ]
            if vals:
                best[e] = max(vals) if v.op == ComparisonOp.ARGMAX else min(vals)
        if not best:
            return set()
        pick = max if v.op == ComparisonOp.ARGMAX else min
        extreme = pick(best.values())
        return {e for e, val in best.items() if val == extreme}
    return {
        e
        for e in entities
        if any(
            o[0] == "l" and _binary_holds(o, v.op, v.threshold)
            for o in og.objects(e, c.relation)
        )
    }


def oracle_tier(constraints, tier: int) -> tuple:
    """The constraints that relaxation keeps at ``tier``: tier 0 keeps all,
    tier 1 drops string matches, tier 2 also drops numeric comparisons and
    extremals, and tier 3 drops every constraint."""
    def dropped_at(c: Constraint) -> int:
        if isinstance(c.value, StringMatch):
            return 1
        if isinstance(c.value, NumericCompare):
            return 2
        return 3

    return tuple(c for c in constraints if tier < dropped_at(c))


def oracle_execute(og: OracleGraph, rp: ReasoningPath) -> frozenset:
    """Walk the main path, filtering each hop's entity frontier.

    Binary constraints run before extremal ones; a constrained hop keeps
    no literals; intermediate literals never expand.
    """
    assert rp.topic_entity is not None
    entities = {rp.topic_entity}
    depth = len(rp.path)
    result: frozenset = frozenset()
    for i, rel in enumerate(rp.path, start=1):
        step_entities: set[str] = set()
        step_literals: set[tuple] = set()
        for e in entities:
            for o in og.objects(e, rel):
                if o[0] == "e":
                    step_entities.add(o[1])
                else:
                    step_literals.add(o)
        here = sorted(
            (c for c in rp.constraints if c.hop == i), key=_constraint_order
        )
        for c in here:
            step_entities = _apply(og, step_entities, c)
        if here:
            step_literals = set()
        entities = step_entities
        if i == depth:
            result = frozenset({("e", e) for e in entities} | step_literals)
    return result


def oracle_sequences(og: OracleGraph, start: str, depth: int) -> list[tuple]:
    """All relation sequences of exactly this length with non-empty reach."""
    found: list[tuple] = []

    def walk(frontier: set, prefix: tuple):
        if len(prefix) == depth:
            found.append(prefix)
            return
        rels = sorted({r for e in frontier for s, r, _ in og.triples if s == e})
        for rel in rels:
            nxt = {
                o[1]
                for e in frontier
                for o in og.objects(e, rel)
                if o[0] == "e"
            }
            lits = any(
                o[0] == "l" for e in frontier for o in og.objects(e, rel)
            )
            if len(prefix) + 1 == depth:
                if nxt or lits:
                    found.append(prefix + (rel,))
            elif nxt:
                walk(nxt, prefix + (rel,))

    walk({start}, ())
    return found


# --- random instance generators (seeded, deterministic) ---

_BINARY_OPS = (
    ComparisonOp.EQ, ComparisonOp.GE, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.LT,
)
_WORDS = ["alpha", "beta", "gamma", "delta", "Omega", "say \"hi\""]
_THRESHOLD_POOL = [
    "0", "7", "13", "-2", "3.5", "250", "1995", "2001-05", "2003-07-22", "1e2",
]


def random_graph_tsv(rng, max_entities=50, max_relations=10) -> str:
    n = rng.randint(3, max_entities)
    m = rng.randint(2, max_relations)
    entities = [f"E{i}" for i in range(n)]
    relations = [f"r{j}.t{j}" for j in range(m)]
    lines = []
    for _ in range(rng.randint(n, 3 * n)):
        s = rng.choice(entities)
        r = rng.choice(relations)
        roll = rng.random()
        if roll < 0.62:
            obj = rng.choice(entities)
        elif roll < 0.74:
            word = rng.choice(_WORDS[:-1])  # plain words in graphs
            obj = f'"{word}"' + ("@en" if rng.random() < 0.3 else "")
        elif roll < 0.82:
            obj = f'"{rng.randint(-20, 2100)}"^^xsd:integer'
        elif roll < 0.88:
            obj = f'"{rng.randint(0, 99)}.{rng.randint(0, 9)}"^^xsd:float'
        else:
            y = rng.randint(1980, 2020)
            pick = rng.random()
            if pick < 0.4:
                text = f"{y}"
            elif pick < 0.8:
                text = f"{y}-{rng.randint(1, 12):02d}"
            else:
                text = f"{y}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            obj = f'"{text}"^^xsd:dateTime'
        lines.append(f"{s}\t{r}\t{obj}")
    if rng.random() < 0.25:
        e = rng.choice(entities)
        lines.append(f"@alias\tthe {e}\t{e}")
    return "\n".join(lines) + "\n"


def _string_texts_at(og: OracleGraph, entities, rel) -> list[str]:
    out = []
    for e in entities:
        for o in og.objects(e, rel):
            if o[0] == "l" and o[1] == "string":
                out.append(o[2])
    return sorted(set(out))


def random_reasoning_path(
    rng,
    og: OracleGraph,
    max_depth=3,
    max_constraints=3,
    for_query=True,
    safe_relaxation=False,
) -> ReasoningPath:
    """A random path over the graph, grounded and compile-ready.

    for_query caps extremal constraints at one (the query subset has a
    single ORDER BY). safe_relaxation drops string constraints whenever an
    extremal is present, the regime where tier containment is a theorem.
    """
    subjects = sorted({s for s, _, _ in og.triples})
    topic = rng.choice(subjects)
    depth = rng.randint(1, max_depth)
    all_rels = sorted(og.relations)

    rels: list[str] = []
    frontier = {topic}
    frontiers: list[set] = []  # entity frontier after each hop
    for _ in range(depth):
        out = sorted({r for e in frontier for s, r, _ in og.triples if s == e})
        if out and rng.random() < 0.85:
            rel = rng.choice(out)
        else:
            rel = rng.choice(all_rels)
        rels.append(rel)
        frontier = {
            o[1] for e in frontier for o in og.objects(e, rel) if o[0] == "e"
        }
        frontiers.append(set(frontier))

    constraints: list[Constraint] = []
    extremal_used = False
    for _ in range(rng.randint(0, max_constraints)):
        hop = rng.randint(1, depth)
        anchor = frontiers[hop - 1]
        local = sorted({r for e in anchor for s, r, _ in og.triples if s == e})
        if local and rng.random() < 0.7:
            rel = rng.choice(local)
        else:
            rel = rng.choice(all_rels)
        roll = rng.random()
        if roll < 0.15 and not (for_query and extremal_used):
            extremal_used = True
            op = rng.choice([ComparisonOp.ARGMAX, ComparisonOp.ARGMIN])
            value = NumericCompare(op)
        elif roll < 0.45:
            behind = sorted(
                o[1]
                for e in anchor
                for o in og.objects(e, rel)
                if o[0] == "e"
            )
            target = (
                rng.choice(behind)
                if behind and rng.random() < 0.7
                else rng.choice(sorted(og.entities))
            )
            value = EntityMatch(target, entity=target)
        elif roll < 0.8:
            op = rng.choice(_BINARY_OPS)
            value = NumericCompare(op, classify_threshold(rng.choice(_THRESHOLD_POOL)))
        else:
            texts = _string_texts_at(og, anchor, rel)
            text = (
                rng.choice(texts)
                if texts and rng.random() < 0.6
                else rng.choice(_WORDS)
            )
            value = StringMatch(text)
        constraints.append(Constraint(hop, rel, value))

    if safe_relaxation and any(
        isinstance(c.value, NumericCompare) and c.value.op.is_extremal
        for c in constraints
    ):
        # An extremal whose candidate pool is gated by a string constraint
        # is not monotone under relaxation; keep the theorem regime.
        constraints = [
            c for c in constraints if not isinstance(c.value, StringMatch)
        ]

    return ReasoningPath(topic, tuple(rels), tuple(constraints), topic_entity=topic)


def random_ungrounded_path(rng, max_depth=4, max_constraints=3) -> ReasoningPath:
    """A syntactically arbitrary path for pure round-trip checks."""
    symbols = ["m.0x1", "USA", "Film_noir", "a.b.c", "K-2", "Nine_9"]
    rel_parts = ["people", "person", "film", "award", "place", "time"]
    topic = rng.choice(symbols)
    depth = rng.randint(1, max_depth)
    rels = [
        ".".join(rng.sample(rel_parts, rng.randint(1, 3)))
        + (f"_{rng.randint(0, 9)}" if rng.random() < 0.4 else "")
        for _ in range(depth)
    ]
    constraints = []
    extremal_used = False
    for _ in range(rng.randint(0, max_constraints)):
        hop = rng.randint(1, depth)
        rel = ".".join(rng.sample(rel_parts, 2))
        roll = rng.random()
        if roll < 0.2 and not extremal_used:
            extremal_used = True
            value = NumericCompare(
                rng.choice([ComparisonOp.ARGMAX, ComparisonOp.ARGMIN])
            )
        elif roll < 0.5:
            t = rng.choice(symbols)
            value = EntityMatch(t, entity=t)
        elif roll < 0.8:
            value = NumericCompare(
                rng.choice(_BINARY_OPS),
                classify_threshold(rng.choice(_THRESHOLD_POOL)),
            )
        else:
            value = StringMatch(rng.choice(_WORDS))
        constraints.append(Constraint(hop, rel, value))
    return ReasoningPath(topic, tuple(rels), tuple(constraints), topic_entity=topic)


# --- scripted LLM stand-ins for repair tests ---

class CountingLlm:
    """Wraps any provider and counts complete() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, prompt, temperature=0.0):
        self.calls += 1
        return self.inner.complete(prompt, temperature)


class FirstPathLlm:
    """Blueprint of fixed steps; always selects the leading paths."""

    def __init__(self, steps=2):
        self.steps = steps
        self.calls = 0

    def complete(self, prompt, temperature=0.0):
        self.calls += 1
        from kgrelay.providers import LlmUsage, approx_tokens

        if "Select up to" in prompt:
            reply = "Path 1, Path 2, Path 3"
        else:
            reply = "\n".join(f"#{i} do step {i}" for i in range(1, self.steps + 1))
        return reply, LlmUsage(
            approx_tokens(prompt), approx_tokens(reply), provider_reported=False
        )


_PATH_LINE_RE = re.compile(r"^Path (\d+): (.+)$")


class GoldSelectorLlm:
    """Selector with perfect foresight: keeps exactly gold-prefix paths."""

    def __init__(self, gold: tuple, start: str):
        self.gold = tuple(gold)
        self.start = start
        self.calls = 0

    def complete(self, prompt, temperature=0.0):
        self.calls += 1
        from kgrelay.providers import LlmUsage, approx_tokens

        if "Select up to" not in prompt:
            reply = "\n".join(
                f"#{i} follow {rel}" for i, rel in enumerate(self.gold, start=1)
            )
        else:
            refs = []
            for line in prompt.splitlines():
                m = _PATH_LINE_RE.match(line)
                if not m:
                    continue
                parts = m.group(2).split(" -> ")
                assert parts[0] == self.start
                chain = tuple(parts[1:])
                if self.gold[: len(chain)] == chain:
                    refs.append(int(m.group(1)))
            assert refs, "gold prefix missing from candidate list"
            reply = ", ".join(f"Path {k}" for k in refs)
        return reply, LlmUsage(
            approx_tokens(prompt), approx_tokens(reply), provider_reported=False
        )


def unique_gold_instance(rng):
    """A graph, start, depth, and the only relation sequence of that depth
    whose reach contains the chosen answer node."""
    while True:
        tsv = random_graph_tsv(rng, max_entities=12, max_relations=6)
        og = parse_tsv(tsv)
        subjects = sorted({s for s, _, _ in og.triples})
        start = rng.choice(subjects)
        depth = rng.randint(1, 3)
        seqs = oracle_sequences(og, start, depth)
        if len(seqs) < 2:
            continue
        per_node = Counter()
        reach_of = {}
        for seq in seqs:
            reach_of[seq] = oracle_reach(og, start, seq)
            for node in reach_of[seq]:
                per_node[node] += 1
        unique_nodes = sorted(
            (n for n, k in per_node.items() if k == 1), key=repr
        )
        if not unique_nodes:
            continue
        answer = rng.choice(unique_nodes)
        gold = next(seq for seq in seqs if answer in reach_of[seq])
        return tsv, og, start, depth, gold, answer
