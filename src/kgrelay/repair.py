"""KG-guided repair of unreachable reasoning paths.

When a generated path does not execute on the graph, a beam search walks
outward from the topic entity, keeping only relation chains that exist in
the graph. One blueprint call sketches the reasoning steps; at each depth
the candidate relations are ranked against each blueprint step and
pruned, the paths (plain relation tuples) are ranked by how similar
their text is to the question, and a selection call picks the paths to
keep. Total LLM calls for depth d are therefore at most d + 1.

Each level walks its beam paths through the question's walk memo, where
the level before left all but their last hop, so it expands one hop each.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import ConfigError, EmptyBlueprint, RepairError, RepairFailed
from .kg import EntityId, KnowledgeGraph
from .prompts import blueprint_prompt, selection_prompt
from .providers import EmbeddingProvider, LlmProvider

log = logging.getLogger(__name__)

# A numbered line is "#", digits, then the step text. The text is
# stripped in code, not by the pattern: a pattern that trims trailing
# spaces itself backtracks quadratically over a run of inner spaces.
_STEP_RE = re.compile(r"\s*#\d+(.*)")


@dataclass(frozen=True)
class RepairConfig:
    beam_width: int = 3       # paths kept per depth
    relation_filter: int = 4  # relations kept per blueprint step
    path_filter: int = 10     # candidates shown to the selector
    max_depth_cap: int = 4

    def __post_init__(self):
        if min(self.beam_width, self.relation_filter, self.path_filter) < 1:
            raise ConfigError("beam_width, relation_filter, path_filter must be >= 1")
        if self.max_depth_cap < 1:
            raise ConfigError("max_depth_cap must be >= 1")


def linearize(relations: tuple[str, ...]) -> str:
    return " -> ".join(relations)


def generate_blueprint(llm: LlmProvider, question: str) -> tuple[str, ...]:
    """One LLM call producing numbered reasoning steps (#1, #2, ...).

    A numbered line with no text after the number gives no step.
    """
    reply, _ = llm.complete(blueprint_prompt(question))
    steps = []
    for line in reply.splitlines():
        m = _STEP_RE.match(line)
        step = m.group(1).strip() if m else ""
        if step:
            steps.append(step)
    if not steps:
        raise EmptyBlueprint(f"no numbered steps in reply: {reply[:80]!r}")
    return tuple(steps)


def expand_beam(
    g: KnowledgeGraph,
    s1: EntityId,
    beam: list[tuple[str, ...]],
    blueprint: tuple[str, ...],
    emb: EmbeddingProvider,
    x: int,
    trace: list,
    walks: dict,
) -> list[tuple[str, ...]]:
    """Extend each beam path by one relation that exists at its frontier.

    Frontiers are walked through the walk memo ``walks``. One
    ``emb.rank`` call per beam path keeps, for each blueprint step, the x
    relations most similar to the step; the union over steps is kept,
    deduplicated across beam paths.
    Paths whose frontier has no outgoing relation are dead ends and are
    dropped, each appended once to ``trace`` as a ``dead_end`` event.
    Every returned candidate reaches a non-empty frontier by construction.
    """
    candidates: dict[tuple[str, ...], None] = {}
    for path in beam:
        rels = g.outgoing_relations(g.reach(s1, path, walks))
        if not rels:
            trace.append({"event": "dead_end", "path": linearize(path)})
            continue
        keep = set().union(*emb.rank(blueprint, rels, x))
        for rel in sorted(keep):
            candidates.setdefault(path + (rel,), None)
    return list(candidates)


def filter_paths(
    question: str,
    cands: list[tuple[str, ...]],
    emb: EmbeddingProvider,
    y: int,
) -> list[tuple[str, ...]]:
    """Keep the y candidates most similar to the question, best first.

    Ties break on the linearized path text, so input order does not
    matter, except between candidates that linearize to one text (a
    relation name may hold " -> "): those keep it.
    """
    text = {path: linearize(path) for path in cands}
    return sorted(cands, key=lambda p: (-emb.similarity(question, text[p]), text[p]))[:y]


_PATH_REF_RE = re.compile(r"[Pp]ath\s+(\d+)")


def select_paths(
    llm: LlmProvider,
    question: str,
    s1_names: str,
    cands: list[tuple[str, ...]],
    n: int,
) -> tuple[list[tuple[str, ...]], str]:
    """One LLM call choosing up to n of the candidate paths.

    The reply is parsed for "Path k" references in mention order. Any
    reference outside 1..len(cands), or a reply with no reference at all,
    falls back to the first n candidates, which ``filter_paths`` left best
    first.
    """
    lines = [
        f"Path {k}: {s1_names} -> {linearize(path)}"
        for k, path in enumerate(cands, start=1)
    ]
    prompt = selection_prompt(question, s1_names, lines, n)
    reply, _ = llm.complete(prompt)

    try:
        refs = [int(m) for m in _PATH_REF_RE.findall(reply)]
    except ValueError:  # more digits than int() converts: out of range
        refs = [0]
    if not refs or not all(1 <= k <= len(cands) for k in refs):
        log.warning("selection fallback, reply was %r", reply[:80])
        return cands[:n], reply
    return [cands[k - 1] for k in dict.fromkeys(refs)][:n], reply


def repair(
    g: KnowledgeGraph,
    question: str,
    s1: EntityId,
    depth: int,
    cfg: RepairConfig,
    llm: LlmProvider,
    emb: EmbeddingProvider,
    trace: list,
    walks: dict,
) -> tuple[str, ...]:
    """Search the graph for an executable relation chain of the given depth.

    The depth is capped by cfg.max_depth_cap. At every depth below the
    target the selector keeps up to beam_width paths; at the final depth
    it keeps exactly one, which is returned. Every level walks through
    the walk memo ``walks``. The search appends its events to ``trace``:
    the blueprint, each dead end and one event per depth. Raises
    RepairFailed when all beam paths dead-end, and RepairError for a depth
    below 1.
    """
    if depth < 1:
        raise RepairError("repair depth must be at least 1")
    d_eff = min(depth, cfg.max_depth_cap)

    blueprint = generate_blueprint(llm, question)
    trace.append({"event": "blueprint", "steps": list(blueprint)})

    beam: list[tuple[str, ...]] = [()]
    for level in range(1, d_eff + 1):
        cands = expand_beam(g, s1, beam, blueprint, emb, cfg.relation_filter, trace, walks)
        if not cands:
            raise RepairFailed(level, "all beam paths dead-ended")
        cands = filter_paths(question, cands, emb, cfg.path_filter)
        n = 1 if level == d_eff else cfg.beam_width
        chosen, reply = select_paths(llm, question, s1, cands, n)
        trace.append(
            {
                "event": "depth",
                "depth": level,
                "beam": [linearize(path) for path in beam],
                "candidates": [linearize(path) for path in cands],
                "llm_reply": reply,
                "chosen": [linearize(path) for path in chosen],
            }
        )
        beam = chosen
    return beam[0]
