"""Per-question pipeline: generate a reasoning path, check it against the
graph, repair it when it cannot execute, then answer with relaxation.

Routing is decided by the constraint-free skeleton: if the main path
reaches anything from the topic entity, the generated path is kept as is;
otherwise the repair search replaces the main path and the original
constraints are re-attached where their hop still exists. The repair-only
ablation is a question with no specialized model: its topic and depth are
given, and its path is always the repaired one.

Each question has one walk memo (see ``KnowledgeGraph.walk``), and every
walk of the question goes through it: the routing check, which is one
``KnowledgeGraph.reach`` call, each repair level, which expands only the
last hop of each beam path, the answers, and gold scoring when the caller
passes the memo on. So a chain prefix is expanded once per question.
Both routes share the repair call, the one failure exit and the one
``execute_with_relaxation`` call that gives every answer set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

from .errors import KgRelayError
from .execute import TIER_FULL, TIERS, AnswerSet, execute_with_relaxation
from .kg import KnowledgeGraph
from .prompts import generation_prompt
from .providers import (
    ROLE_GENERAL,
    ROLE_SPECIALIZED,
    CostLedger,
    EmbeddingProvider,
    LlmProvider,
    TrackedLlm,
)
from .reasoning import ReasoningPath, ground_reasoning_path, parse_reasoning_path
from .repair import RepairConfig, repair

log = logging.getLogger(__name__)


class Route(str, Enum):
    STAGE1_ONLY = "stage1_only"
    STAGE1_PLUS_2 = "stage1_plus_2"
    STAGE2_ONLY = "stage2_only"
    FALLBACK = "repair_failed_fallback"


@dataclass
class QuestionResult:
    route: Route
    answers: AnswerSet
    crp_initial: ReasoningPath | None
    crp_final: ReasoningPath | None
    ledger: CostLedger
    trace: list = field(default_factory=list)
    error: str | None = None


def run_stage1(llm: LlmProvider, question: str) -> ReasoningPath:
    """One specialized-model call; the reply must parse as a reasoning path."""
    reply, _ = llm.complete(generation_prompt(question))
    return parse_reasoning_path(reply)


def _fallback(
    question: str, ledger: CostLedger, trace: list, stage: str, error: Exception | str,
    initial: ReasoningPath | None = None, final: ReasoningPath | None = None,
) -> QuestionResult:
    """The one failed outcome: no answers at the full tier, an ``error``
    event on the trace and one warning line. An exception is described
    by stage and type; a string is the whole message."""
    message = error if isinstance(error, str) else f"{stage}: {type(error).__name__}: {error}"
    log.warning("question %r failed, %s", question, message)
    trace.append({"event": "error", "stage": stage, "message": message})
    return QuestionResult(
        Route.FALLBACK, AnswerSet(frozenset(), TIER_FULL), initial, final, ledger, trace,
        error=message,
    )


def answer_question(
    g: KnowledgeGraph,
    question: str,
    specialized: LlmProvider | None,
    general: LlmProvider,
    embedder: EmbeddingProvider,
    repair_cfg: RepairConfig = RepairConfig(),
    relax: bool = True,
    *,
    walks: dict,
    topic: str | None = None,
    depth: int | None = None,
) -> QuestionResult:
    """Answer one question; never raises on provider or path failures.

    With a specialized model its path is grounded and kept when it reaches
    anything, else repaired to its own depth; ``topic`` and ``depth`` are
    not read. Without one (``specialized`` None) the question takes the
    repair-only route: ``topic`` is grounded and repaired to ``depth``,
    with no constraints, and either missing gives the fallback result.
    Failures degrade to the fallback route with empty answers and the
    error, named by the stage reached, recorded on the result. The final
    path is answered at every relaxation tier when ``relax`` holds, else
    at tier 0 only; a repaired path without constraints reaches a
    non-empty frontier, so it is answered at tier 0 either way. ``walks``
    is the question's walk memo; the routing check, repair and execution
    fill it, and the caller may score the answers through it.
    """
    ledger = CostLedger()
    gen_llm = TrackedLlm(general, ROLE_GENERAL, ledger)
    trace: list = []
    stage, rp_initial, rp = "repair", None, None
    constraints: tuple = ()
    try:
        if specialized is None:
            route = Route.STAGE2_ONLY
            if topic is None or depth is None:
                return _fallback(question, ledger, trace, stage, "record lacks topic or depth")
            entity = g.ground_entity(topic)
        else:
            stage = "generation"
            rp_initial = run_stage1(TrackedLlm(specialized, ROLE_SPECIALIZED, ledger), question)
            stage = "grounding"
            rp = rp_final = ground_reasoning_path(g, rp_initial)
            stage = "repair"
            topic, entity, depth, constraints = (
                rp.topic_surface, rp.topic_entity, rp.depth, rp.constraints
            )
            reached = g.reach(entity, rp.path, walks)
            route = Route.STAGE1_ONLY if reached else Route.STAGE1_PLUS_2
        if route is not Route.STAGE1_ONLY:
            new_path = repair(
                g, question, entity, depth, repair_cfg, gen_llm, embedder, trace, walks
            )
            kept = tuple(c for c in constraints if c.hop <= len(new_path))
            for c in constraints:
                if c.hop > len(new_path):
                    trace.append(
                        {"event": "constraint_dropped", "hop": c.hop, "relation": c.relation}
                    )
            rp_final = ReasoningPath(topic, tuple(new_path), kept, entity)
    except KgRelayError as exc:
        return _fallback(question, ledger, trace, stage, exc, rp_initial, rp)

    answers = execute_with_relaxation(g, rp_final, walks, TIERS if relax else TIERS[:1])
    return QuestionResult(route, answers, rp_initial, rp_final, ledger, trace)
