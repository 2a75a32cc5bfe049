"""Batch evaluation: metrics, dataset loading, and the run harness.

Answer comparison is set-based after normalization (casefold, trim,
collapse inner whitespace). Path-level metrics compare the generated path
against one derived from the record's gold query; they are reported over
the records where that derivation succeeds and stay null otherwise.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable

from .errors import DatasetError, KgRelayError
from .execute import evaluate_query
from .kg import KnowledgeGraph, answer_texts
from .pipeline import QuestionResult, Route, answer_question
from .providers import DEFAULT_PRICES, price_calls
from .reasoning import (
    Constraint,
    EntityMatch,
    ReasoningPath,
    StringMatch,
    serialize_reasoning_path,
)
from .repair import RepairConfig
from .sparql import parse_sparql, sparql_to_path


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
    """Read a JSONL dataset. Unparsable lines become flagged records whose
    ``error`` names the line, so a batch run can score the rest; nothing
    is logged. A line whose text does not encode as UTF-8 (a lone
    surrogate, which a JSON escape can carry) is unparsable too, its error
    naming the field. An unreadable or empty file raises."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset: {exc}") from exc
    records: list[DatasetRecord] = []
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValueError("record is not an object")
            rid = obj.get("id", f"line-{line_no}")
            if type(rid) not in (str, int, float):
                raise ValueError("id is not a string or a number")
            rid = str(rid)
            question = obj["question"]
            if not isinstance(question, str) or not question:
                raise ValueError("missing question")
            answers = obj.get("answers", [])
            if not isinstance(answers, list):
                raise ValueError("answers is not a list")
            if any(type(a) not in (str, int, float) for a in answers):
                # str() would turn null into the answer "None".
                raise ValueError("an answer is not a string or a number")
            answers = tuple(str(a) for a in answers)
            sparql, topic, depth = obj.get("sparql"), obj.get("topic"), obj.get("depth")
            if not answers and not sparql:
                raise ValueError("record needs answers or a gold query")
            if sparql is not None and not isinstance(sparql, str):
                raise ValueError("sparql is not a string")
            if topic is not None and not isinstance(topic, str):
                raise ValueError("topic is not a string")
            if depth is not None and (isinstance(depth, bool) or not isinstance(depth, int)):
                raise ValueError("depth is not an integer")
            texts = (rid, question, sparql or "", topic or "", *answers)
            if not all(map(str.isascii, texts)):
                names = chain(("id", "question", "sparql", "topic"), repeat("an answer"))
                for name, text in zip(names, texts):
                    try:
                        text.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise ValueError(
                            f"{name} does not encode as UTF-8"
                            f" at character {exc.start}: {exc.reason}"
                        ) from None
            records.append(DatasetRecord(rid, question, answers, sparql, topic, depth))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            # json.loads raises RecursionError on a line nested too deeply.
            records.append(
                DatasetRecord(f"line-{line_no}", "", error=f"line {line_no}: {exc}")
            )
    if not records:
        raise DatasetError("no records in dataset")
    return records


# --- metrics ---

def _norm_set(values: Iterable[str]) -> frozenset[str]:
    # Each value with its whitespace runs collapsed to one space, trimmed
    # and casefolded, with no Python call per value.
    return frozenset(map(str.casefold, map(" ".join, map(str.split, values))))


def _hits_and_f1(p: frozenset[str], g: frozenset[str]) -> tuple[int, float]:
    # Both sides already normalized; two empty sets have F1 1.0.
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
    """1 iff the serializations are identical (payloads included).

    Serialization sorts the constraints and prints no threshold kind, so
    it is already canonical.
    """
    if pred is None:
        return 0
    return int(serialize_reasoning_path(pred) == serialize_reasoning_path(gold))


# --- batch harness ---

@dataclass(slots=True)
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


def _path_text(rp: ReasoningPath | None) -> str | None:
    return serialize_reasoning_path(rp) if rp else None


def _row(
    g: KnowledgeGraph,
    rec: DatasetRecord,
    result: QuestionResult | None,
    walks: dict,
    include_trace: bool,
) -> tuple[dict, float]:
    """One result row and its unrounded F1.

    A record without a result (an unusable dataset line) is flagged with
    its load error. Any other record is scored against its gold answers,
    or the gold query's answers when it has none, and flagged when its
    question fell back or there is no gold to score against, as when it
    has neither answers nor a query. The gold query walks through the
    question's walk memo ``walks``, with the question's filters. When it
    reaches the answer node set itself, no answer text is normalized: a
    non-empty set is its own gold and scores hits 1 and F1 1.0, however
    normalization would collapse its texts.
    """
    calls = result.calls if result else []
    initial = final = None
    if result:
        initial = _path_text(result.crp_initial)
        # On the stage-1 route the final path is the grounded initial one,
        # and grounding does not change the text.
        final = initial if result.route is Route.STAGE1_ONLY else _path_text(result.crp_final)
    row = {
        "id": rec.id,
        "question": rec.question,
        "route": result.route.value if result else None,
        "answers": answer_texts(result.answers.answers) if result else [],
        "relaxation_tier": result.answers.relaxation_tier if result else None,
        "crp_initial": initial,
        "crp_final": final,
        "llm_calls": len(calls),
        "prompt_tokens": sum(c.usage.prompt_tokens for c in calls),
        "completion_tokens": sum(c.usage.completion_tokens for c in calls),
    }
    if result is None:
        row.update(flagged=True, error=rec.error)
        return row, 0.0

    error = result.error
    # The gold query is parsed once, for the gold answers when the
    # record has none and for path scoring.
    gold, query, same = _norm_set(rec.answers), None, False
    try:
        if rec.sparql:
            query = parse_sparql(rec.sparql)
        if not gold and query is not None:
            nodes = evaluate_query(g, query, walks)
            same = nodes == result.answers.answers
            # Only the set is scored, so the nodes need no sorting.
            gold = nodes if same else _norm_set([n if type(n) is str else n.text for n in nodes])
    except KgRelayError as exc:
        if not gold:
            error = f"gold: {type(exc).__name__}: {exc}"
    if not gold:
        hits, f1 = 0, 0.0
    elif same:
        hits, f1 = 1, 1.0
    else:
        hits, f1 = _hits_and_f1(_norm_set(row["answers"]), gold)
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
    if not gold or result.route is Route.FALLBACK:
        # A question that failed, or one with no gold to score against,
        # counts as failed.
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
    repair_cfg: RepairConfig = RepairConfig(),
    prices: dict | None = None,
    workers: int = 1,
    relax: bool = True,
    include_trace: bool = False,
) -> tuple[MetricReport, list[dict]]:
    """Run the pipeline over a dataset and score every record.

    Fresh providers per record (scripted state must not leak between
    questions). A factory whose specialized slot is None makes every
    record a repair-only question, answered from its topic and depth.
    Each record is answered and scored in one step, through one walk
    memo, so the gold query reuses the question's own walks and the memo
    and answer sets are freed when the record is done. Per-record
    failures are flagged and score zero, and each is reported once, as its
    row's ``error``, never logged; the batch itself never aborts.
    With workers > 1 records run concurrently but aggregation stays in
    dataset order, so output is identical. Every report figure is a sum
    or mean over the rows, except cost. Each question's ``calls`` are
    priced here and nowhere else, under ``prices`` (default
    ``DEFAULT_PRICES``), summed in dataset order, then call order. An
    empty ``records`` raises DatasetError.
    """
    if not records:
        raise DatasetError("no records in dataset")

    def work(rec: DatasetRecord) -> tuple[dict, float, list]:
        """The record's row, its unrounded F1 and its call records."""
        walks: dict = {}
        result = None
        if not rec.error:
            specialized, general, embedder = provider_factory()
            result = answer_question(
                g, rec.question, specialized, general, embedder, repair_cfg, relax,
                walks=walks, topic=rec.topic, depth=rec.depth,
            )
        row, f1 = _row(g, rec, result, walks, include_trace)
        return row, f1, result.calls if result else []

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(work, records))
    else:
        done = [work(rec) for rec in records]
    rows = [row for row, _, _ in done]

    def total(key: str) -> int:
        return sum(r.get(key, 0) for r in rows)

    n = len(rows)
    scored = sum("skeleton_accuracy" in r for r in rows)
    prompt, completion = total("prompt_tokens"), total("completion_tokens")
    cost = price_calls(
        (call for _, _, calls in done for call in calls),
        DEFAULT_PRICES if prices is None else prices,
    )
    return MetricReport(
        questions=n,
        flagged=total("flagged"),
        hits_at_1=total("hits_at_1") / n,
        f1=sum(f1 for _, f1, _ in done) / n,
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
