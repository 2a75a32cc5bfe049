"""Knowledge-graph question answering with reasoning-path repair.

The pipeline: a specialized model drafts a reasoning path (topic entity,
relation chain, typed constraints); the graph checks whether the chain
can execute; unreachable chains are rebuilt by a KG-guided beam search
that consults a general model; the final path runs with progressive
constraint relaxation. A bridge converts paths to and from a small
SPARQL subset, and an evaluation harness scores answers and cost.
"""

from .execute import (
    AnswerSet,
    answers_at_tier,
    apply_constraint,
    evaluate_query,
    execute_full,
    execute_with_relaxation,
)
from .kg import KnowledgeGraph, Literal, load_tsv
from .pipeline import QuestionResult, Route, answer_question, run_stage2_only
from .providers import (
    CostLedger,
    HttpLlm,
    LlmUsage,
    ScriptedLlm,
    TokenOverlapEmbedder,
    token_overlap_similarity,
)
from .reasoning import (
    ComparisonOp,
    Constraint,
    EntityMatch,
    NumericCompare,
    ReasoningPath,
    StringMatch,
    canonicalize,
    ground_reasoning_path,
    parse_reasoning_path,
    serialize_reasoning_path,
)
from .repair import Blueprint, PartialPath, RepairConfig, repair
from .sparql import (
    SparqlQuery,
    parse_sparql,
    path_to_sparql,
    render_sparql,
    round_trip_check,
    sparql_to_path,
)

__version__ = "0.1.0"
