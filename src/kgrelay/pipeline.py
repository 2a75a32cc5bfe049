"""Per-question pipeline: generate a reasoning path, check it against the
graph, repair it when it cannot execute, then answer with relaxation.

Routing is decided by the constraint-free skeleton: if the main path
reaches anything from the topic entity, the generated path is kept as is;
otherwise the repair search replaces the main path and the original
constraints are re-attached where their hop still exists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

from .errors import KgRelayError
from .execute import AnswerSet, TIER_FULL, execute_full, execute_with_relaxation
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
from .repair import RepairConfig, linearize, repair

log = logging.getLogger(__name__)


class Route(str, Enum):
    STAGE1_ONLY = "stage1_only"
    STAGE1_PLUS_2 = "stage1_plus_2"
    STAGE2_ONLY = "stage2_only"
    FALLBACK = "repair_failed_fallback"


@dataclass
class QuestionResult:
    question: str
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
        question, Route.FALLBACK, AnswerSet(frozenset(), TIER_FULL),
        initial, final, ledger, trace, error=message,
    )


def answer_question(
    g: KnowledgeGraph,
    question: str,
    specialized: LlmProvider,
    general: LlmProvider,
    embedder: EmbeddingProvider,
    repair_cfg: RepairConfig | None = None,
    prices: dict | None = None,
    relax: bool = True,
) -> QuestionResult:
    """Answer one question; never raises on provider or path failures.

    Failures degrade to the fallback route with empty answers and the
    error recorded on the result.
    """
    repair_cfg = repair_cfg or RepairConfig()
    ledger = CostLedger(prices)
    spec_llm = TrackedLlm(specialized, ROLE_SPECIALIZED, ledger)
    gen_llm = TrackedLlm(general, ROLE_GENERAL, ledger)
    trace: list = []
    try:
        rp_initial = run_stage1(spec_llm, question)
    except (KgRelayError, ValueError) as exc:
        return _fallback(question, ledger, trace, "generation", exc)
    try:
        rp = ground_reasoning_path(g, rp_initial)
    except KgRelayError as exc:
        return _fallback(question, ledger, trace, "grounding", exc, rp_initial)

    skeleton = g.reach(rp.topic_entity, rp.path)
    if skeleton:
        route = Route.STAGE1_ONLY
        rp_final = rp
    else:
        route = Route.STAGE1_PLUS_2
        try:
            new_path = repair(
                g, question, rp.topic_entity, rp.depth, repair_cfg, gen_llm, embedder, trace
            )
        except KgRelayError as exc:
            return _fallback(question, ledger, trace, "repair", exc, rp_initial, rp)
        kept = tuple(c for c in rp.constraints if c.hop <= len(new_path))
        for c in rp.constraints:
            if c.hop > len(new_path):
                trace.append(
                    {"event": "constraint_dropped", "hop": c.hop, "relation": c.relation}
                )
        if new_path == rp.path:
            # The search came back with the path that already failed the
            # reachability check; note it and execute anyway.
            trace.append({"event": "repair_returned_original", "path": linearize(new_path)})
        rp_final = ReasoningPath(
            rp.topic_surface, tuple(new_path), kept, rp.topic_entity
        )

    if relax:
        answers = execute_with_relaxation(g, rp_final)
    else:
        answers = AnswerSet(execute_full(g, rp_final), TIER_FULL)
    return QuestionResult(question, route, answers, rp_initial, rp_final, ledger, trace)


def run_stage2_only(
    g: KnowledgeGraph,
    question: str,
    topic_surface: str | None,
    depth: int | None,
    general: LlmProvider,
    embedder: EmbeddingProvider,
    repair_cfg: RepairConfig | None = None,
    prices: dict | None = None,
) -> QuestionResult:
    """Repair-only ablation: no specialized model, no constraints.

    The topic and search depth come from the caller (dataset fields);
    either missing gives the fallback result. The answers are whatever
    the repaired skeleton reaches.
    """
    repair_cfg = repair_cfg or RepairConfig()
    ledger = CostLedger(prices)
    gen_llm = TrackedLlm(general, ROLE_GENERAL, ledger)
    trace: list = []
    if topic_surface is None or depth is None:
        return _fallback(question, ledger, trace, "repair", "record lacks topic or depth")
    try:
        topic = g.ground_entity(topic_surface)
        path = repair(g, question, topic, depth, repair_cfg, gen_llm, embedder, trace)
    except (KgRelayError, ValueError) as exc:
        return _fallback(question, ledger, trace, "repair", exc)
    rp = ReasoningPath(topic_surface, tuple(path), (), topic)
    answers = AnswerSet(frozenset(g.reach(topic, path)), TIER_FULL)
    return QuestionResult(question, Route.STAGE2_ONLY, answers, None, rp, ledger, trace)
