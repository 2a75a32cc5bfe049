"""Seeded input generator for the kgrelay benchmark workloads.

For one workload and one seed it writes, into an output directory:

- ``graph.tsv``: the knowledge graph in the program's TSV format
- ``dataset.jsonl``: the questions, in the format ``load_dataset`` reads
- ``replies.json``: the reply table the benchmark providers answer from
- ``expected.jsonl``: per question, the answers, route and relaxation tier
  the generator planted, and the properties the question was built with
- ``manifest.json``: sizes and the planted share of each property

The same workload and seed give byte-identical files. Only the first three
reach the program; the benchmark checks its rows against the fourth.

Repair questions are planted so that the beam search finds the gold chain
whatever the selection reply says. Every relation of a repair graph is
named with two words no other relation uses, and a question's text holds
the words of its gold relations and no other relation word. So the
token-overlap embedder ranks the gold prefix strictly first at every level,
and a planted unparsable selection reply falls back to it. A tie would
need another gold relation of the same question to leave a gold frontier;
the generator checks for that once the graph is complete and drops the
questions that fail.

Run ``python3 kgbench/gen.py --workload graph-heavy --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import random
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("relay-mixed", "graph-heavy", "repair-heavy")

# Words of question and blueprint text; relation words never use these.
FILLER = frozenset(
    "what is the then of which reached from identify and compare entities".split()
)
ROUTE_STAGE1 = "stage1_only"
ROUTE_REPAIRED = "stage1_plus_2"


class Graph:
    """Triples in file order plus the indexes the oracle needs."""

    def __init__(self):
        self.lines: list[str] = []
        self.links: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
        self.out: dict[str, set[str]] = defaultdict(set)
        # (entity, relation) -> [(kind, value)], kind one of ent/str/num/date
        self.values: dict[tuple[str, str], list[tuple[str, object]]] = defaultdict(list)
        # (relation, kind, value) -> entities holding it, for ent and str
        self.holders: dict[tuple, set[str]] = defaultdict(set)
        self.triples = 0
        self._reach: dict[tuple, tuple[set[str], list[str]]] = {}

    def add(self, s: str, r: str, kind: str, value) -> None:
        if kind == "ent":
            token = value
            self.links[s][r].append(value)
        elif kind == "str":
            token = f'"{value}"'
        elif kind == "num":
            token = f'"{value}"^^xsd:integer'
        else:
            token = f'"{value}"^^xsd:dateTime'
        if kind in ("ent", "str"):
            self.holders[(r, kind, value)].add(s)
        self.lines.append(f"{s}\t{r}\t{token}")
        self.out[s].add(r)
        self.values[(s, r)].append((kind, value))
        self.triples += 1
        self._reach.clear()

    def link(self, s: str, r: str, o: str) -> None:
        self.add(s, r, "ent", o)

    def alias(self, surface: str, entity: str) -> None:
        self.lines.append(f"@alias\t{surface}\t{entity}")

    def out_relations(self, frontier) -> set[str]:
        rels: set[str] = set()
        for e in frontier:
            rels |= self.out.get(e, set())
        return rels

    def step(self, frontier, rel: str) -> set[str]:
        out: set[str] = set()
        for e in frontier:
            out.update(self.links.get(e, {}).get(rel, ()))
        return out

    def reach(self, topic: str, path: tuple[str, ...]) -> tuple[set[str], list[str]]:
        """Unconstrained frontier at the end of path, as a set and sorted."""
        if (topic, path) not in self._reach:
            frontier = {topic}
            for rel in path:
                frontier = self.step(frontier, rel)
            self._reach[(topic, path)] = (frontier, sorted(frontier))
        return self._reach[(topic, path)]

    def first(self, e: str, rel: str, kind: str):
        for k, value in self.values.get((e, rel), ()):
            if k == kind:
                return value
        return None


# --- constraints: (hop, relation, kind, value), kind one of entity/string/ge/le ---

_VALUE_KIND = {"entity": "ent", "string": "str", "ge": "num", "le": "date"}


def filter_frontier(g: Graph, frontier: set[str], c: tuple) -> set[str]:
    """Entities with some object of the constraint relation that passes.

    A numeric threshold never matches a date object and a date threshold
    never matches a number, as in the program.
    """
    _, rel, kind, want = c
    vkind = _VALUE_KIND[kind]
    if kind in ("entity", "string"):
        return frontier & g.holders.get((rel, vkind, want), set())
    values = g.values
    if kind == "ge":
        return {e for e in frontier
                if any(k == vkind and v >= want for k, v in values.get((e, rel), ()))}
    return {e for e in frontier
            if any(k == vkind and v <= want for k, v in values.get((e, rel), ()))}


def active_at_tier(constraints: list[tuple], tier: int) -> list[tuple]:
    """Constraints the program keeps at a relaxation tier."""
    if tier == 0:
        return list(constraints)
    if tier == 3:
        return []
    dropped = {"string"} if tier == 1 else {"string", "ge", "le"}
    return [c for c in constraints if c[2] not in dropped]


def walk(g: Graph, topic: str, path: list[str], constraints: list[tuple]) -> set[str]:
    """Oracle: entities at the end of the path that pass every constraint."""
    start = min([c[0] for c in constraints] + [len(path)])
    frontier = g.reach(topic, tuple(path[:start]))[0]
    for hop in range(start, len(path) + 1):
        if hop > start:
            frontier = g.step(frontier, path[hop - 1])
        for c in constraints:
            if c[0] == hop:
                frontier = filter_frontier(g, frontier, c)
        if not frontier:
            return set()
    return frontier


def constraint_line(c: tuple) -> str:
    hop, rel, kind, value = c
    if kind == "entity":
        body = f"entity={value}"
    elif kind == "string":
        body = f'string="{value}"'
    else:
        body = f'op={"GE" if kind == "ge" else "LE"}; value="{value}"'
    return f"CONSTRAINT: hop={hop}; rel={rel}; {body}"


def stage1_text(surface: str, path: list[str], constraints: list[tuple]) -> str:
    lines = [f"TOPIC: {surface}", "PATH: " + " -> ".join(path)]
    return "\n".join(lines + [constraint_line(c) for c in constraints])


def sparql_text(topic: str, path: list[str], constraints: list[tuple]) -> str:
    """Gold query: the chain plus the given constraints as branches."""
    parts = []
    prev = f":{topic}"
    for i, rel in enumerate(path, start=1):
        parts.append(f"{prev} :{rel} ?h{i} .")
        prev = f"?h{i}"
    filters = []
    for n, (hop, rel, kind, value) in enumerate(constraints, start=1):
        if kind == "entity":
            parts.append(f"?h{hop} :{rel} :{value} .")
            continue
        parts.append(f"?h{hop} :{rel} ?c{n} .")
        if kind == "string":
            filters.append(f'FILTER(?c{n} = "{value}")')
        elif kind == "ge":
            filters.append(f'FILTER(?c{n} >= "{value}"^^xsd:integer)')
        else:
            filters.append(f'FILTER(?c{n} <= "{value}"^^xsd:dateTime)')
    return f"SELECT DISTINCT ?h{len(path)} WHERE {{ " + " ".join(parts + filters) + " }"


def relation_vocabulary(rng: random.Random, n: int) -> list[str]:
    """n relation names, each made of two words no other relation uses."""
    consonants, vowels = "bdfgklmnprstvz", "aeiou"
    words: set[str] = set()
    while len(words) < 2 * n:
        w = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(3))
        if w not in FILLER:
            words.add(w)
    ordered = sorted(words)
    rng.shuffle(ordered)
    return [f"{ordered[2 * i]}.{ordered[2 * i + 1]}" for i in range(n)]


def stratified(rng: random.Random, block: list, count: int) -> list:
    """count labels, block by block, each block a shuffled copy.

    Any prefix has close to the block's mix, so a run that answers only the
    first questions still sees the planted shares.
    """
    out: list = []
    while len(out) < count:
        b = list(block)
        rng.shuffle(b)
        out.extend(b)
    return out[:count]


# --- walkable questions ---

def plan_walkable(g: Graph, rng: random.Random, topic: str, tier: int,
                  paths: list[list[str]], attrs_by_depth: dict, empty_entity: str):
    """Constraints on a walkable path whose answers come from the given tier.

    Satisfiable constraints are read off a witness answer. Tier 0 keeps
    them all; tier 1 adds an unsatisfiable string match; tier 2 an
    unsatisfiable numeric comparison; tier 3 an entity match that no
    candidate has. Returns (path, constraints, answers) or None.
    """
    path = rng.choice(paths)
    skeleton = g.reach(topic, tuple(path))[1]
    if not skeleton:
        return None
    hop = len(path)
    attrs = attrs_by_depth[hop]
    witness = rng.choice(skeleton)

    ent_rel = attrs["entity"]
    category = g.first(witness, ent_rel, "ent")
    num_kind = rng.choice(("ge", "le"))
    num_rel = attrs[num_kind]
    value = g.first(witness, num_rel, _VALUE_KIND[num_kind])
    label = g.first(witness, attrs["string"], "str")
    if category is None or value is None or label is None:
        return None
    threshold = max(0, value - rng.randrange(300)) if num_kind == "ge" \
        else str(int(value) + rng.randrange(6))
    entity_c = (hop, ent_rel, "entity", category)
    numeric_c = (hop, num_rel, num_kind, threshold)
    if tier == 0:
        constraints = [entity_c, numeric_c]
        if rng.random() < 0.5:
            constraints.append((hop, attrs["string"], "string", label))
    elif tier == 1:
        constraints = [entity_c, numeric_c, (hop, attrs["string"], "string", "tag none")]
    elif tier == 2:
        unsat = (hop, num_rel, "ge", 1000000) if num_kind == "ge" else (hop, num_rel, "le", "1000")
        constraints = [entity_c, unsat]
    else:
        constraints = [(hop, ent_rel, "entity", empty_entity), numeric_c]
    answers = walk(g, topic, path, active_at_tier(constraints, tier))
    if not answers or any(
        walk(g, topic, path, active_at_tier(constraints, t)) for t in range(tier)
    ):
        return None
    return path, constraints, answers


def walkable_question(g, qid, text, topic, surface, tier, plan):
    path, constraints, answers = plan
    return {
        "id": qid, "question": text, "stage1": stage1_text(surface, path, constraints),
        "answers": sorted(answers), "route": ROUTE_STAGE1, "tier": tier,
        "props": {"walkable": True, "tier": tier,
                  "frontier": len(g.step({topic}, path[0]))},
    }


# --- repair questions ---

class RepairPlanter:
    """Plants gold relation chains that the beam search must rediscover."""

    def __init__(self, g: Graph, rng: random.Random, relations: list[str],
                 pool: list[str], leaves: list[str], distractors: int):
        self.g = g
        self.rng = rng
        self.relations = relations
        self.pool = pool
        self.leaves = leaves
        self.distractors = distractors
        self.serial = 0

    def _node(self) -> str:
        self.serial += 1
        return f"gn{self.serial:05d}"

    def plant(self, topic: str, depth: int, dead_end: bool) -> list[str]:
        """Add a gold chain of the given depth from topic; return its relations.

        Gold nodes get distractor links; with dead_end they point at leaves
        with no outgoing relation, so beam paths that follow them dead-end.
        """
        taken = self.g.out[topic]
        gold = self.rng.sample([r for r in self.relations if r not in taken], depth)
        others = [r for r in self.relations if r not in gold]
        node = topic
        for level, rel in enumerate(gold, start=1):
            nxt = self._node()
            self.g.link(node, rel, nxt)
            if level == depth:
                if self.rng.random() < 0.5:
                    self.g.link(node, rel, self._node())
                break
            targets = self.leaves if dead_end else self.pool
            for r in self.rng.sample(others, self.distractors):
                self.g.link(nxt, r, self.rng.choice(targets))
            node = nxt
        return gold

    def answers(self, topic: str, gold: list[str]) -> set[str] | None:
        """What the search must reach, or None when another gold relation of
        the question leaves a gold frontier (a ranking tie)."""
        frontier = {topic}
        for rel in gold:
            out = self.g.out_relations(frontier)
            if rel not in out or (set(gold) - {rel}) & out:
                return None
            frontier = self.g.step(frontier, rel)
        return frontier or None


def relation_words(rel: str) -> str:
    return rel.replace(".", " ")


def repair_question(g, rng, qid, topic, surface, gold, answers, relations,
                    dead_end, unparsable_share):
    """A question whose stage-1 path does not walk; repair finds gold."""
    words = " then ".join(relation_words(r) for r in gold)
    gold_set = set(gold)
    steps = []
    for k, rel in enumerate(gold, start=1):
        # Each step also names a word of two other relations, so the expand
        # step keeps varied distractors besides the gold relation.
        noise = [rng.choice(r.split(".")) for r in rng.sample(relations, 4)
                 if r not in gold_set][:2]
        steps.append(f"#{k} Identify the {relation_words(rel)} and compare {' '.join(noise)}")
    unparsable = [lv for lv in range(1, len(gold) + 1) if rng.random() < unparsable_share]
    wrong = [f"noroute.hop{i}" for i in range(1, len(gold) + 1)]
    return {
        "id": qid, "question": f"{qid} what is the {words} reached from {surface}",
        "stage1": stage1_text(surface, wrong, []), "blueprint": "\n".join(steps),
        "gold": gold, "unparsable": unparsable,
        "answers": sorted(answers), "route": ROUTE_REPAIRED, "tier": 0,
        "props": {"walkable": False, "tier": 0, "depth": len(gold),
                  "topic_relations": len(g.out[topic]), "dead_end": dead_end,
                  "unparsable": len(unparsable)},
    }


# --- workloads ---

RELAY_ATTRS = {
    "entity": "attr.category", "ge": "attr.score", "le": "attr.year", "string": "attr.label",
}


def gen_relay_mixed(rng: random.Random, count: int = 800):
    """Uniform-degree graph of about 20k triples. 70% of questions walk, with
    answers spread over relaxation tiers 0-3; 30% repair at depth 2-3."""
    g = Graph()
    relations = relation_vocabulary(rng, 80)
    entities = [f"e{i:04d}" for i in range(1500)]
    for e in entities:
        for r in rng.sample(relations, 8):
            g.link(e, r, rng.choice(entities))
        g.add(e, "attr.category", "ent", f"cat{rng.randrange(40):02d}")
        g.add(e, "attr.score", "num", rng.randrange(1000))
        g.add(e, "attr.year", "date", str(rng.randrange(1950, 2021)))
        g.add(e, "attr.label", "str", f"tag {rng.randrange(60)}")
    surfaces = {e: e for e in entities}
    for e in entities[::10]:
        surfaces[e] = f"Entity {e[1:]}"
        g.alias(surfaces[e], e)
    g.add("catnone", "attr.kind", "str", "category")

    kinds = stratified(rng, ["w0", "w1", "w2", "w3"] * 7 + ["r2", "r3"] * 6, count)
    topics = [rng.choice(entities) for _ in kinds]
    planter = RepairPlanter(g, rng, relations, entities, [], distractors=4)
    golds = {i: planter.plant(topics[i], int(k[1]), dead_end=False)
             for i, k in enumerate(kinds) if k[0] == "r"}
    link_rels = set(relations)

    def paths_from(topic):
        one = sorted(r for r in g.links[topic] if r in link_rels)
        out = [[r] for r in one]
        for r in one:
            for nxt in sorted(g.links[topic][r]):
                out += [[r, r2] for r2 in sorted(g.links[nxt]) if r2 in link_rels]
        return out

    questions = []
    for i, kind in enumerate(kinds):
        qid = f"rm{i:04d}"
        if kind[0] == "r":
            answers = planter.answers(topics[i], golds[i])
            if answers:
                questions.append(repair_question(
                    g, rng, qid, topics[i], surfaces[topics[i]], golds[i], answers,
                    relations, dead_end=False, unparsable_share=0.0))
            continue
        tier = int(kind[1])
        for _ in range(200):
            plan = plan_walkable(g, rng, topics[i], tier, paths_from(topics[i]),
                                 {1: RELAY_ATTRS, 2: RELAY_ATTRS}, "catnone")
            if plan:
                break
            topics[i] = rng.choice(entities)
        else:
            raise RuntimeError(f"cannot plant tier-{tier} question {qid}")
        text = f"{qid} which entities are reached from {surfaces[topics[i]]}"
        questions.append(walkable_question(g, qid, text, topics[i], surfaces[topics[i]], tier, plan))
    return g, questions


MEMBER_ATTRS = {
    "entity": "m.category", "ge": "m.score", "le": "m.since", "string": "m.label",
}
ITEM_ATTRS = {
    "entity": "i.genre", "ge": "i.rank", "le": "i.released", "string": "i.title",
}


def gen_graph_heavy(rng: random.Random, count: int = 1500):
    """Hub-heavy graph of about 300k triples. Every path leaves a hub with a
    first-hop frontier of 1k-3k members; 2-3 constraints per path, most
    answers from tiers 1-3; gold is a query. One member in a hundred has a
    date where the score number should be, as real graphs mix kinds."""
    g = Graph()
    items = [f"i{i:04d}" for i in range(8000)]
    for it in items:
        g.add(it, "i.genre", "ent", f"g{rng.randrange(40):02d}")
        g.add(it, "i.rank", "num", rng.randrange(1000))
        g.add(it, "i.released", "date", str(rng.randrange(1950, 2021)))
        g.add(it, "i.title", "str", f"title {rng.randrange(100)}")
    members = [f"m{i:05d}" for i in range(28000)]
    for m in members:
        g.add(m, "m.category", "ent", f"c{rng.randrange(60):02d}")
        if rng.random() < 0.01:
            g.add(m, "m.score", "date", str(rng.randrange(1950, 2021)))
        else:
            g.add(m, "m.score", "num", rng.randrange(1000))
        g.add(m, "m.since", "date", str(rng.randrange(1950, 2021)))
        g.add(m, "m.label", "str", f"tag {rng.randrange(200)}")
        for it in rng.sample(items, 2):
            g.link(m, "m.works", it)
    # Hub sizes are evenly spaced and every block of questions visits each
    # hub once, so the cost of a run varies little from seed to seed.
    hubs = [f"h{i:02d}" for i in range(40)]
    surfaces = {}
    for n, h in enumerate(hubs):
        for m in sorted(rng.sample(members, 1000 + 2000 * n // (len(hubs) - 1))):
            g.link(h, "hub.member", m)
        surfaces[h] = f"Hub {h[1:]}" if n % 2 else h
        if surfaces[h] != h:
            g.alias(surfaces[h], h)
    g.add("cnone", "c.kind", "str", "category")

    short, long_ = ["hub.member"], ["hub.member", "m.works"]
    block = [(0, short)] * 3 + [(0, long_)] * 3 + [(1, short)] * 6 + [(1, long_)] * 6 \
        + [(2, short)] * 6 + [(2, long_)] * 6 + [(3, short)] * 10
    kinds = stratified(rng, block, count)
    topics = stratified(rng, hubs, count)
    questions = []
    for i, (tier, path) in enumerate(kinds):
        qid = f"gh{i:04d}"
        topic = topics[i]
        for _ in range(100):
            plan = plan_walkable(g, rng, topic, tier, [path],
                                 {1: MEMBER_ATTRS, 2: ITEM_ATTRS}, "cnone")
            if plan:
                break
        else:
            raise RuntimeError(f"cannot plant tier-{tier} question {qid}")
        text = f"{qid} which members of {surfaces[topic]} match"
        q = walkable_question(g, qid, text, topic, surfaces[topic], tier, plan)
        path, constraints, _ = plan
        q["sparql"] = sparql_text(topic, path, active_at_tier(constraints, tier))
        questions.append(q)
    return g, questions


def gen_repair_heavy(rng: random.Random, count: int = 5000):
    """About 100k triples over 500 relation names. Every stage-1 path fails;
    repair runs at depth 3-4 from topics with 110 or more relations. A
    quarter of the chains lead distractor beams into leaves (dead ends) and
    one selection reply in ten is unparsable."""
    g = Graph()
    relations = relation_vocabulary(rng, 500)
    pool = [f"n{i:05d}" for i in range(2500)]
    for n in pool:
        for r in rng.sample(relations, 8):
            g.link(n, r, rng.choice(pool))
    leaves = [f"lf{i:03d}" for i in range(300)]
    topics = [f"t{i:03d}" for i in range(200)]
    surfaces = {}
    for t in topics:
        for r in rng.sample(relations, rng.randrange(110, 141)):
            g.link(t, r, rng.choice(pool))
        surfaces[t] = f"Topic {t[1:]}" if int(t[1:]) % 4 == 0 else t
        if surfaces[t] != t:
            g.alias(surfaces[t], t)

    kinds = stratified(rng, ["r3", "r3", "r3", "r3x", "r4", "r4", "r4", "r4x"], count)
    topic_of = [rng.choice(topics) for _ in kinds]
    planter = RepairPlanter(g, rng, relations, pool, leaves, distractors=4)
    golds = [planter.plant(topic_of[i], int(k[1]), dead_end=k.endswith("x"))
             for i, k in enumerate(kinds)]
    questions = []
    for i, kind in enumerate(kinds):
        answers = planter.answers(topic_of[i], golds[i])
        if answers:
            t = topic_of[i]
            questions.append(repair_question(
                g, rng, f"rh{i:04d}", t, surfaces[t], golds[i], answers, relations,
                dead_end=kind.endswith("x"), unparsable_share=0.1))
    return g, questions


GENERATORS = {
    "relay-mixed": gen_relay_mixed,
    "graph-heavy": gen_graph_heavy,
    "repair-heavy": gen_repair_heavy,
}


def planted_shares(questions: list[dict]) -> dict:
    """The share of questions with each planted property."""
    props = [q["props"] for q in questions]
    walkable = [p for p in props if p["walkable"]]
    repaired = [p for p in props if not p["walkable"]]
    selections = sum(p["depth"] for p in repaired)
    shares = {"walkable": len(walkable) / len(props)}
    if walkable:
        shares["tiers_of_walkable"] = {
            f"t{t}": sum(p["tier"] == t for p in walkable) / len(walkable) for t in range(4)
        }
        sizes = sorted(p["frontier"] for p in walkable)
        shares["frontier_min"] = sizes[0]
        shares["frontier_median"] = sizes[len(sizes) // 2]
        shares["frontier_max"] = sizes[-1]
        shares["frontier_ge_1000"] = sum(p["frontier"] >= 1000 for p in walkable) / len(walkable)
    if repaired:
        shares["topic_relations_ge_100"] = (
            sum(p["topic_relations"] >= 100 for p in repaired) / len(repaired))
        shares["dead_end"] = sum(p["dead_end"] for p in repaired) / len(repaired)
        shares["unparsable_reply"] = sum(p["unparsable"] for p in repaired) / selections
    return shares


def generate(workload: str, seed: int, out_dir: str | Path) -> dict:
    """Write the workload's files for this seed; return the manifest."""
    rng = random.Random(f"{workload}:{seed}")
    g, questions = GENERATORS[workload](rng)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.tsv").write_text("\n".join(g.lines) + "\n", encoding="utf-8")
    with open(out / "dataset.jsonl", "w", encoding="utf-8") as fh:
        for q in questions:
            gold = {"sparql": q["sparql"]} if "sparql" in q else {"answers": q["answers"]}
            fh.write(json.dumps({"id": q["id"], "question": q["question"], **gold}) + "\n")
    replies = {
        q["question"]: {
            "stage1": q["stage1"],
            "blueprint": q.get("blueprint"),
            "gold": q.get("gold"),
            "unparsable": q.get("unparsable", []),
        }
        for q in questions
    }
    (out / "replies.json").write_text(json.dumps(replies, sort_keys=True), encoding="utf-8")
    with open(out / "expected.jsonl", "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps({k: q[k] for k in ("id", "answers", "route", "tier", "props")}) + "\n")
    manifest = {
        "workload": workload,
        "seed": seed,
        "triples": g.triples,
        "questions": len(questions),
        "planted": planted_shares(questions),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return manifest


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, args.out)
    print(json.dumps(manifest, sort_keys=True))


if __name__ == "__main__":
    main()
