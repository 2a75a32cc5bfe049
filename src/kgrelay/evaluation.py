"""Batch evaluation: metrics, dataset loading, and the run harness.

Answer comparison is set-based after normalization (casefold, trim,
collapse inner whitespace). Path-level metrics compare the generated path
against one derived from the record's gold query; they are reported over
the records where that derivation succeeds and stay null otherwise.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable

from .errors import DatasetError, KgRelayError
from .execute import evaluate_query
from .kg import KnowledgeGraph, NodeRef, node_sort_key, node_text
from .pipeline import QuestionResult, answer_question, run_stage2_only
from .providers import CostLedger
from .reasoning import (
    Constraint,
    EntityMatch,
    ReasoningPath,
    StringMatch,
    canonicalize,
    serialize_reasoning_path,
)
from .repair import RepairConfig
from .sparql import parse_sparql, sparql_to_path

log = logging.getLogger(__name__)


@dataclass
class DatasetRecord:
    id: str
    question: str
    answers: tuple[str, ...] = ()
    sparql: str | None = None
    topic: str | None = None
    depth: int | None = None
    error: str | None = None  # set for unparsable lines


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Read a JSONL dataset. Unparsable lines become flagged records so a
    batch run can score the rest; an unreadable or empty file raises."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset: {exc}") from exc
    records: list[DatasetRecord] = []
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValueError("record is not an object")
            rid = str(obj.get("id", f"line-{line_no}"))
            question = obj["question"]
            if not isinstance(question, str) or not question:
                raise ValueError("missing question")
            answers = tuple(str(a) for a in obj.get("answers", []))
            sparql, topic, depth = obj.get("sparql"), obj.get("topic"), obj.get("depth")
            if not answers and not sparql:
                raise ValueError("record needs answers or a gold query")
            if sparql is not None and not isinstance(sparql, str):
                raise ValueError("sparql is not a string")
            if topic is not None and not isinstance(topic, str):
                raise ValueError("topic is not a string")
            if depth is not None and (isinstance(depth, bool) or not isinstance(depth, int)):
                raise ValueError("depth is not an integer")
            records.append(DatasetRecord(rid, question, answers, sparql, topic, depth))
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("dataset line %d unusable: %s", line_no, exc)
            records.append(
                DatasetRecord(f"line-{line_no}", "", error=f"line {line_no}: {exc}")
            )
    if not records:
        raise DatasetError("no records in dataset")
    return records


# --- metrics ---

def normalize_answer(text: str) -> str:
    return " ".join(text.split()).casefold()


def _norm_set(values: Iterable[str]) -> frozenset[str]:
    return frozenset(normalize_answer(v) for v in values)


def _hits_and_f1(p: frozenset[str], g: frozenset[str]) -> tuple[int, float]:
    # Both sides already normalized.
    if not p and not g:
        return 0, 1.0
    overlap = len(p & g)
    if not overlap:
        return 0, 0.0
    precision = overlap / len(p)
    recall = overlap / len(g)
    return 1, 2 * precision * recall / (precision + recall)


def hits_at_1(pred: Iterable[str], gold: Iterable[str]) -> int:
    """1 iff the first executable query's answers overlap the gold set."""
    return _hits_and_f1(_norm_set(pred), _norm_set(gold))[0]


def f1_score(pred: Iterable[str], gold: Iterable[str]) -> float:
    """Set-level F1; two empty sets count as a perfect match."""
    return _hits_and_f1(_norm_set(pred), _norm_set(gold))[1]


def _constraint_shape(c: Constraint) -> tuple:
    # Payloads are masked: only hop, relation, class, and operator count.
    v = c.value
    if isinstance(v, EntityMatch):
        return (c.hop, c.relation, "entity", None)
    if isinstance(v, StringMatch):
        return (c.hop, c.relation, "string", None)
    return (c.hop, c.relation, "numeric", v.op.value)


def skeleton_accuracy(pred: ReasoningPath | None, gold: ReasoningPath) -> int:
    """1 iff main paths match and constraint shapes agree as multisets."""
    if pred is None:
        return 0
    if pred.path != gold.path:
        return 0
    return int(
        Counter(map(_constraint_shape, pred.constraints))
        == Counter(map(_constraint_shape, gold.constraints))
    )


def exact_match(pred: ReasoningPath | None, gold: ReasoningPath) -> int:
    """1 iff canonical serializations are identical (payloads included)."""
    if pred is None:
        return 0
    return int(
        serialize_reasoning_path(canonicalize(pred))
        == serialize_reasoning_path(canonicalize(gold))
    )


# --- batch harness ---

@dataclass
class MetricReport:
    questions: int
    flagged: int
    hits_at_1: float
    f1: float
    skeleton_accuracy: float | None
    exact_match: float | None
    path_scored: int
    avg_llm_calls: float
    avg_prompt_tokens: float
    avg_completion_tokens: float
    avg_tokens: float
    cost_usd: float
    cost_per_10k_usd: float
    routes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["routes"] = dict(sorted(self.routes.items()))
        return out

    def format_table(self) -> str:
        rows = []
        for key, value in self.to_dict().items():
            if key == "routes":
                value = ", ".join(f"{k}={v}" for k, v in value.items()) or "-"
            elif value is None:
                value = "n/a"
            elif isinstance(value, float):
                value = f"{value:.6f}"
            rows.append((key, str(value)))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


ProviderFactory = Callable[[], tuple]


def _answer_texts(nodes: Iterable[NodeRef]) -> list[str]:
    return [node_text(n) for n in sorted(nodes, key=node_sort_key)]


def _path_text(rp: ReasoningPath | None) -> str | None:
    return serialize_reasoning_path(rp) if rp else None


def _row(
    g: KnowledgeGraph, rec: DatasetRecord, result: QuestionResult | None, include_trace: bool
) -> tuple[dict, float]:
    """One result row and its unrounded F1.

    A record without a result (an unusable dataset line) is flagged with
    its load error. Any other record is scored against its gold answers,
    or the gold query's answers when it has none, and flagged when there
    is no gold to score against.
    """
    ledger = result.ledger if result else CostLedger()
    row = {
        "id": rec.id,
        "question": rec.question,
        "route": result.route.value if result else None,
        "answers": _answer_texts(result.answers.answers) if result else [],
        "relaxation_tier": result.answers.relaxation_tier if result else None,
        "crp_initial": _path_text(result.crp_initial) if result else None,
        "crp_final": _path_text(result.crp_final) if result else None,
        "llm_calls": ledger.calls(),
        "prompt_tokens": ledger.prompt_tokens(),
        "completion_tokens": ledger.completion_tokens(),
    }
    if result is None:
        row.update(flagged=True, error=rec.error)
        return row, 0.0

    error = result.error
    # The gold query is parsed once, for the gold answers when the
    # record has none and for path scoring.
    gold, query = rec.answers, None
    try:
        if rec.sparql:
            query = parse_sparql(rec.sparql)
        if not gold:
            gold = _answer_texts(evaluate_query(g, query))
    except KgRelayError as exc:
        if not gold:
            error = f"gold: {type(exc).__name__}: {exc}"
    hits, f1 = _hits_and_f1(_norm_set(row["answers"]), _norm_set(gold)) if gold else (0, 0.0)
    row["hits_at_1"] = hits
    row["f1"] = round(f1, 10)
    if query is not None and gold:
        try:
            gold_rp = sparql_to_path(query)
        except KgRelayError:
            pass
        else:
            row["skeleton_accuracy"] = skeleton_accuracy(result.crp_initial, gold_rp)
            row["exact_match"] = exact_match(result.crp_initial, gold_rp)
    if not gold:
        # Cannot score against nothing; count the record as failed.
        row["flagged"] = True
    if error:
        row["error"] = error
    if include_trace:
        row["trace"] = result.trace
    return row, f1


def run_batch(
    g: KnowledgeGraph,
    records: list[DatasetRecord],
    provider_factory: ProviderFactory,
    repair_cfg: RepairConfig | None = None,
    prices: dict | None = None,
    workers: int = 1,
    relax: bool = True,
    stage2_only: bool = False,
    include_trace: bool = False,
) -> tuple[MetricReport, list[dict]]:
    """Run the pipeline over a dataset and score every record.

    Fresh providers per record (scripted state must not leak between
    questions). Per-record failures are flagged and score zero; the batch
    itself never aborts. With workers > 1 records run concurrently but
    aggregation stays in dataset order, so output is identical. Every
    report figure is a sum or mean over the rows, except cost, which is
    priced per call from the records' ledgers merged in dataset order.
    """
    repair_cfg = repair_cfg or RepairConfig()

    def work(rec: DatasetRecord) -> QuestionResult | None:
        if rec.error:
            return None
        specialized, general, embedder = provider_factory()
        if stage2_only:
            return run_stage2_only(
                g, rec.question, rec.topic, rec.depth, general, embedder,
                repair_cfg, prices,
            )
        return answer_question(
            g, rec.question, specialized, general, embedder, repair_cfg, prices, relax
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, records))
    else:
        results = [work(rec) for rec in records]

    ledger = CostLedger(prices)
    rows: list[dict] = []
    f1s: list[float] = []
    for rec, result in zip(records, results):
        if result is not None:
            ledger.merge(result.ledger)
        row, f1 = _row(g, rec, result, include_trace)
        rows.append(row)
        f1s.append(f1)

    def total(key: str) -> int:
        return sum(r.get(key, 0) for r in rows)

    n = len(rows)
    scored = sum("skeleton_accuracy" in r for r in rows)
    prompt, completion = total("prompt_tokens"), total("completion_tokens")
    cost = ledger.cost_usd()
    return MetricReport(
        questions=n,
        flagged=total("flagged"),
        hits_at_1=total("hits_at_1") / n,
        f1=sum(f1s) / n,
        skeleton_accuracy=total("skeleton_accuracy") / scored if scored else None,
        exact_match=total("exact_match") / scored if scored else None,
        path_scored=scored,
        avg_llm_calls=total("llm_calls") / n,
        avg_prompt_tokens=prompt / n,
        avg_completion_tokens=completion / n,
        avg_tokens=(prompt + completion) / n,
        cost_usd=cost,
        cost_per_10k_usd=cost / n * 10_000,
        routes=dict(Counter(r["route"] for r in rows if r["route"] is not None)),
    ), rows


def write_results(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_summary(path: str | Path, report: MetricReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n")
