"""Metrics, dataset loading, and the batch harness."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from kgrelay.errors import (
    DatasetError,
    HttpError,
    MalformedReply,
    MissingKey,
    NoScriptMatch,
    ProviderTimeout,
    ProviderUnreachable,
)
from kgrelay.evaluation import (
    DatasetRecord,
    MetricReport,
    exact_match,
    f1_score,
    hits_at_1,
    load_dataset,
    normalize_answer,
    run_batch,
    skeleton_accuracy,
    write_results,
    write_summary,
)
from kgrelay.providers import LlmUsage, ScriptedLlm, TokenOverlapEmbedder, approx_tokens
from kgrelay.reasoning import parse_reasoning_path
from metric_cases import ANSWER_CASES, PATH_CASES
from oracle import random_ungrounded_path

# --- metric functions against the hand-computed table ---


@pytest.mark.parametrize(
    "pred,gold,hits,f1",
    [c[1:] for c in ANSWER_CASES],
    ids=[c[0] for c in ANSWER_CASES],
)
def test_answer_metrics(pred, gold, hits, f1):
    assert hits_at_1(pred, gold) == hits
    assert f1_score(pred, gold) == pytest.approx(f1)


@pytest.mark.parametrize(
    "pred_text,gold_text,skel,exact",
    [c[1:] for c in PATH_CASES],
    ids=[c[0] for c in PATH_CASES],
)
def test_path_metrics(pred_text, gold_text, skel, exact):
    pred = parse_reasoning_path(pred_text) if pred_text else None
    gold = parse_reasoning_path(gold_text)
    assert skeleton_accuracy(pred, gold) == skel
    assert exact_match(pred, gold) == exact


def test_normalize_answer():
    assert normalize_answer("  Barack   Obama ") == "barack obama"
    assert normalize_answer("STRASSE") == "strasse"
    assert normalize_answer("") == ""


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_exact_match_implies_skeleton(seed):
    rng = random.Random(seed)
    a = random_ungrounded_path(rng)
    b = random_ungrounded_path(rng) if rng.random() < 0.5 else a
    if exact_match(a, b):
        assert skeleton_accuracy(a, b) == 1


# --- dataset loading ---

def test_load_dataset_fields(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        json.dumps({"id": "q1", "question": "who?", "answers": ["Obama"]}) + "\n"
        + "\n"
        + json.dumps({
            "question": "which?",
            "sparql": "SELECT DISTINCT ?x WHERE { :A :r ?x . }",
            "topic": "A",
            "depth": 2,
            "extra_key": "ignored",
        }) + "\n",
        encoding="utf-8",
    )
    records = load_dataset(p)
    assert len(records) == 2
    assert records[0] == DatasetRecord("q1", "who?", ("Obama",))
    assert records[1].id == "line-3"  # blank line keeps numbering honest
    assert records[1].topic == "A"
    assert records[1].depth == 2
    assert records[1].error is None


@pytest.mark.parametrize(
    "line",
    [
        "{not json",
        json.dumps(["not", "an", "object"]),
        json.dumps({"question": ""}),
        json.dumps({"answers": ["x"]}),
        json.dumps({"question": "q"}),  # no answers and no query
        json.dumps({"question": "q", "answers": ["a"], "depth": "2"}),
        json.dumps({"question": "q", "answers": ["a"], "depth": True}),
        json.dumps({"question": "q", "answers": ["a"], "topic": ["USA"]}),
        json.dumps({"question": "q", "sparql": 5}),
    ],
)
def test_load_dataset_flags_bad_lines(tmp_path, line):
    p = tmp_path / "d.jsonl"
    p.write_text(
        json.dumps({"id": "ok", "question": "q", "answers": ["a"]}) + "\n"
        + line + "\n",
        encoding="utf-8",
    )
    records = load_dataset(p)
    assert len(records) == 2
    assert records[0].error is None
    assert records[1].id == "line-2"
    assert records[1].error.startswith("line 2:")


def test_load_dataset_empty_raises(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(p)


def test_load_dataset_missing_file_raises(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "missing.jsonl")


# --- batch harness ---

WORKED_REPLY = """\
TOPIC: USA
PATH: country.presidents -> president.office_holder
CONSTRAINT: hop=2; rel=education.institution; entity=Harvard
CONSTRAINT: hop=2; rel=position.from; op=GE; value="2000"
"""

SKELETON_REPLY = "TOPIC: USA\nPATH: country.presidents -> president.office_holder\n"

BROKEN_REPLY = "TOPIC: USA\nPATH: country.presidents -> made.up\n"


def make_factory():
    """Fresh scripted providers per question, matched on question text."""

    def factory():
        specialized = ScriptedLlm([
            {"match": "harvard after 2000", "reply": WORKED_REPLY},
            {"match": "all presidents", "reply": SKELETON_REPLY},
            {"match": "needs repair", "reply": BROKEN_REPLY},
            {"match": "bad gold query", "reply": SKELETON_REPLY},
            {"match": "empty gold", "reply": SKELETON_REPLY},
        ])
        general = ScriptedLlm([
            {"match": "reasoning steps", "reply": "#1 step one\n#2 step two",
             "repeat": None},
            {"match": "Select up to", "reply": "Path 1", "repeat": None},
        ])
        return specialized, general, TokenOverlapEmbedder()

    return factory


SKELETON_GOLD_QUERY = (
    "SELECT DISTINCT ?x WHERE { :USA :country.presidents ?t ."
    " ?t :president.office_holder ?x . }"
)


def batch_records(tmp_path):
    p = tmp_path / "d.jsonl"
    rows = [
        {"id": "a", "question": "harvard after 2000",
         "answers": ["Obama", "GWBush"]},
        {"id": "b", "question": "all presidents",
         "sparql": SKELETON_GOLD_QUERY},
        {"id": "c", "question": "needs repair",
         "answers": ["Obama", "GWBush", "Clinton"]},
        {"id": "e", "question": "bad gold query",
         "sparql": "SELECT nonsense"},
        {"id": "f", "question": "empty gold",
         "sparql": "SELECT DISTINCT ?x WHERE { :Harvard :made.up ?x . }"},
    ]
    text = "\n".join(json.dumps(r) for r in rows) + "\n{broken line\n"
    p.write_text(text, encoding="utf-8")
    return load_dataset(p)


def assert_report_folds_rows(report, rows):
    """The report's counts are sums and means over its rows."""
    n = len(rows)
    assert report.flagged == sum(1 for r in rows if r.get("flagged"))
    assert report.hits_at_1 == pytest.approx(sum(r.get("hits_at_1", 0) for r in rows) / n)
    assert report.path_scored == sum(1 for r in rows if "skeleton_accuracy" in r)
    assert report.routes == Counter(r["route"] for r in rows if r["route"] is not None)
    assert report.avg_llm_calls == pytest.approx(sum(r["llm_calls"] for r in rows) / n)


def test_run_batch_scores_and_routes(presidents, tmp_path):
    report, rows = run_batch(presidents, batch_records(tmp_path), make_factory())
    assert_report_folds_rows(report, rows)
    assert report.questions == 6
    assert report.flagged == 3  # bad gold, empty gold, unparsable line
    assert report.hits_at_1 == pytest.approx(3 / 6)
    assert report.f1 == pytest.approx(3 / 6)
    assert report.path_scored == 1
    assert report.skeleton_accuracy == 1.0
    assert report.exact_match == 1.0
    assert report.routes == {"stage1_only": 4, "stage1_plus_2": 1}
    # 1+1+4+1+1 pipeline calls over six records
    assert report.avg_llm_calls == pytest.approx(8 / 6)

    by_id = {row["id"]: row for row in rows}
    assert [row["id"] for row in rows] == ["a", "b", "c", "e", "f", "line-6"]
    assert by_id["a"]["answers"] == ["GWBush", "Obama"]
    assert by_id["a"]["hits_at_1"] == 1
    assert by_id["a"]["f1"] == 1.0
    assert by_id["b"]["skeleton_accuracy"] == 1
    assert by_id["b"]["exact_match"] == 1
    assert by_id["c"]["route"] == "stage1_plus_2"
    assert by_id["c"]["llm_calls"] == 4
    assert by_id["c"]["crp_final"] == SKELETON_REPLY.strip()
    assert by_id["e"]["flagged"] is True
    assert by_id["e"]["error"].startswith("gold: ")
    assert by_id["f"]["flagged"] is True
    assert by_id["f"]["answers"] == ["Clinton", "GWBush", "Obama"]
    assert by_id["line-6"]["flagged"] is True
    assert by_id["line-6"]["llm_calls"] == 0


def test_run_batch_answers_with_unparsable_query(presidents):
    # Literal answers score the record; a gold query that does not parse
    # only leaves the path metrics out, with no error on the row.
    rec = DatasetRecord("g", "all presidents", ("Obama",), sparql="SELECT nonsense")
    report, [row] = run_batch(presidents, [rec], make_factory())
    assert row["hits_at_1"] == 1
    assert not {"flagged", "error", "skeleton_accuracy"} & set(row)
    assert report.path_scored == 0


def test_run_batch_row_schema(presidents, tmp_path):
    _, rows = run_batch(presidents, batch_records(tmp_path), make_factory())
    base = {
        "id", "question", "route", "answers", "relaxation_tier",
        "crp_initial", "crp_final", "llm_calls", "prompt_tokens",
        "completion_tokens",
    }
    scored = base | {"hits_at_1", "f1"}
    assert set(rows[0]) == scored
    assert set(rows[1]) == scored | {"skeleton_accuracy", "exact_match"}
    assert set(rows[3]) == scored | {"flagged", "error"}
    assert set(rows[5]) == base | {"flagged", "error"}


def test_run_batch_workers_do_not_change_output(presidents, tmp_path):
    records = batch_records(tmp_path)
    report1, rows1 = run_batch(presidents, records, make_factory(), workers=1)
    report2, rows2 = run_batch(presidents, records, make_factory(), workers=3)
    assert json.dumps(rows1) == json.dumps(rows2)
    assert report1.to_dict() == report2.to_dict()


def test_run_batch_include_trace(presidents, tmp_path):
    _, rows = run_batch(
        presidents, batch_records(tmp_path), make_factory(), include_trace=True
    )
    by_id = {row["id"]: row for row in rows}
    assert by_id["a"]["trace"] == []
    assert [ev["event"] for ev in by_id["c"]["trace"]] == [
        "blueprint", "depth", "depth"
    ]


def test_run_batch_stage2_only(presidents, tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        json.dumps({
            "id": "s", "question": "who?", "topic": "USA", "depth": 2,
            "answers": ["Obama", "GWBush", "Clinton"],
        }) + "\n"
        + json.dumps({"id": "t", "question": "who?", "answers": ["x"]}) + "\n",
        encoding="utf-8",
    )
    report, rows = run_batch(
        presidents, load_dataset(p), make_factory(), stage2_only=True
    )
    assert rows[0]["route"] == "stage2_only"
    assert rows[0]["hits_at_1"] == 1
    assert rows[0]["f1"] == 1.0
    assert rows[0]["llm_calls"] == 3
    assert rows[1]["route"] == "repair_failed_fallback"
    assert rows[1]["error"] == "record lacks topic or depth"
    assert report.routes == {"stage2_only": 1, "repair_failed_fallback": 1}

    # The record without topic or depth fails like any other question:
    # same row error, and its trace ends with the error event.
    _, traced = run_batch(
        presidents, load_dataset(p), make_factory(), stage2_only=True, include_trace=True
    )
    assert traced[1]["error"] == "record lacks topic or depth"
    assert traced[1]["trace"][-1]["event"] == "error"
    assert traced[1]["trace"][-1]["message"] == "record lacks topic or depth"


def test_run_batch_stage2_only_flags_mistyped_depth(presidents, tmp_path):
    # A string depth used to reach repair and abort the whole batch.
    p = tmp_path / "d.jsonl"
    p.write_text(
        json.dumps({"id": "bad", "question": "who?", "topic": "USA", "depth": "2",
                    "answers": ["Obama"]}) + "\n"
        + json.dumps({"id": "ok", "question": "who?", "topic": "USA", "depth": 2,
                      "answers": ["Obama", "GWBush", "Clinton"]}) + "\n",
        encoding="utf-8",
    )
    report, rows = run_batch(presidents, load_dataset(p), make_factory(), stage2_only=True)
    assert rows[0]["flagged"] is True
    assert rows[0]["error"] == "line 1: depth is not an integer"
    assert rows[1]["hits_at_1"] == 1
    assert report.flagged == 1


# --- the batch promise: one row per record, whatever the input ---

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)
RECORD_LIKE = st.fixed_dictionaries({}, optional={
    "id": JSON_VALUES,
    "question": st.sampled_from(["who?", "harvard after 2000"]) | JSON_VALUES,
    "answers": st.lists(st.sampled_from(["Obama", "Harvard", "2009"]), max_size=3) | JSON_VALUES,
    "sparql": st.sampled_from([SKELETON_GOLD_QUERY, "SELECT nonsense"]) | JSON_VALUES,
    "topic": st.sampled_from(["USA", "Obama", "Nowhere"]) | JSON_VALUES,
    "depth": st.integers(-1, 5) | JSON_VALUES,
})
REPLIES = st.sampled_from([
    WORKED_REPLY, SKELETON_REPLY, BROKEN_REPLY, "#1 step one\n#2 step two", "Path 1", "Path 9",
]) | st.text(max_size=40)
FAILURES = st.sampled_from([
    lambda: NoScriptMatch("prompt"),
    lambda: MissingKey("KGRELAY_API_KEY"),
    lambda: HttpError(503, "busy"),
    lambda: ProviderTimeout("timed out"),
    lambda: ProviderUnreachable("refused"),
    lambda: MalformedReply("no choices"),
])


class FlakyLlm:
    """Plays drawn outcomes in order: a reply text, or a provider failure."""

    def __init__(self, outcomes):
        self._outcomes = iter(outcomes)

    def complete(self, prompt, temperature=0.0):
        outcome = next(self._outcomes, "")
        if callable(outcome):
            raise outcome()
        return outcome, LlmUsage(approx_tokens(prompt), approx_tokens(outcome))


@pytest.mark.parametrize("stage2_only", [False, True])
@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(JSON_VALUES | RECORD_LIKE, min_size=1, max_size=5),
    outcomes=st.lists(REPLIES | FAILURES, max_size=8),
)
def test_run_batch_keeps_its_promise(presidents, tmp_path_factory, stage2_only, lines, outcomes):
    p = tmp_path_factory.mktemp("batch") / "d.jsonl"
    p.write_text("".join(json.dumps(v) + "\n" for v in lines), encoding="utf-8")
    records = load_dataset(p)

    def factory():
        llm = FlakyLlm(outcomes)
        return llm, llm, TokenOverlapEmbedder()

    report, rows = run_batch(presidents, records, factory, stage2_only=stage2_only)
    assert len(records) == len(lines)
    assert [row["id"] for row in rows] == [rec.id for rec in records]
    assert report.questions == len(records)
    assert_report_folds_rows(report, rows)
    json.dumps(rows)


def test_write_results_and_summary(presidents, tmp_path):
    report, rows = run_batch(presidents, batch_records(tmp_path), make_factory())
    out_rows = tmp_path / "results.jsonl"
    out_summary = tmp_path / "summary.json"
    write_results(out_rows, rows)
    write_summary(out_summary, report)

    lines = out_rows.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    assert [json.loads(ln) for ln in lines] == rows

    text = out_summary.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == report.to_dict()


def test_write_results_keeps_unicode(tmp_path):
    p = tmp_path / "r.jsonl"
    write_results(p, [{"answers": ["Gödel"]}])
    assert "Gödel" in p.read_text(encoding="utf-8")


def test_format_table_readable():
    report = MetricReport(
        questions=2, flagged=0, hits_at_1=0.5, f1=0.25,
        skeleton_accuracy=None, exact_match=None, path_scored=0,
        avg_llm_calls=1.0, avg_prompt_tokens=10.0, avg_completion_tokens=5.0,
        avg_tokens=15.0, cost_usd=0.0, cost_per_10k_usd=0.0,
        routes={"stage1_only": 2},
    )
    table = report.format_table()
    assert "hits_at_1" in table
    assert "0.500000" in table
    assert "n/a" in table
    assert "stage1_only=2" in table
    # two-space gutter after the widest key keeps columns aligned
    assert "\ncost_per_10k_usd  " in table
