"""Metrics, dataset loading, and the batch harness."""

from __future__ import annotations

import json
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
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
from kgrelay import evaluation
from kgrelay.evaluation import (
    DatasetRecord,
    MetricReport,
    _hits_and_f1,
    _norm_set,
    exact_match,
    hits_at_1,
    load_dataset,
    run_batch,
    skeleton_accuracy,
    write_results,
    write_summary,
)
from kgrelay.kg import (
    DATETIME,
    NUMERIC,
    STRING,
    Literal,
    answer_texts,
    load_tsv,
    node_sort_key,
)
from kgrelay.execute import TIER_FULL, AnswerSet
from kgrelay.pipeline import QuestionResult, Route
from kgrelay.providers import (
    LlmUsage,
    ScriptedLlm,
    TokenOverlapEmbedder,
    approx_tokens,
)
from kgrelay.reasoning import ground_reasoning_path, parse_reasoning_path
from metric_cases import ANSWER_CASES, PATH_CASES
from oracle import node_text, normalize_answer, random_ungrounded_path

# --- metric functions against the hand-computed table ---


@pytest.mark.parametrize(
    "pred,gold,hits,f1",
    [c[1:] for c in ANSWER_CASES],
    ids=[c[0] for c in ANSWER_CASES],
)
def test_answer_metrics(pred, gold, hits, f1):
    assert hits_at_1(pred, gold) == hits
    assert _hits_and_f1(_norm_set(pred), _norm_set(gold))[1] == pytest.approx(f1)


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
    assert _norm_set(["  Barack   Obama ", "STRASSE", ""]) == {"barack obama", "strasse", ""}


# Text that str.split and casefold treat specially: Unicode spaces, the
# ASCII separators \x1c-\x1f (str.split splits on them), and letters whose
# casefold is longer than the letter or differs from its lower().
_TRICKY = ["\u00a0", "\u2003", "\u3000", "\x85", "\x1c", "\x1d", "\x1e", "\x1f",
           "ß", "İ", "Σ", "ς", "ﬁ", " ", "\t", "a", "A"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.sampled_from(_TRICKY) | st.characters(), max_size=8), max_size=6))
@example(["İ ß", "Σ\x1cΣ", "a\u00a0 b", "\u3000", "i\u0307 SS", "σ\x1fσ"])
def test_norm_set_is_normalize_answer_per_value(values):
    assert _norm_set(values) == frozenset(map(normalize_answer, values))


# Texts chosen to collide across entities and literal kinds.
_NODE_TEXTS = st.sampled_from(["1999", "2000-01", "Foo", "foo", "ß", "Σ a", ""]) | st.text(max_size=3)
_NODES = st.frozensets(
    _NODE_TEXTS
    | st.builds(Literal, st.just(STRING), _NODE_TEXTS, st.sampled_from([None, "en", "de"]))
    | st.builds(Literal, st.just(NUMERIC), st.sampled_from(["1999", "2000", "-1.5", "1e3"]))
    | st.builds(Literal, st.just(DATETIME), st.sampled_from(["1999", "2000-01", "2000-01-02"])),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_NODES)
@example(frozenset({
    "1999", Literal(NUMERIC, "1999"), Literal(DATETIME, "1999"),
    "Foo", Literal(STRING, "Foo"), Literal(STRING, "Foo", "en"), Literal(STRING, "foo", "de"),
}))
@example(frozenset(f"e{i}" for i in range(9)))
def test_answer_texts_is_node_text_in_sort_key_order(nodes):
    expected = [node_text(n) for n in sorted(nodes, key=node_sort_key)]
    got = answer_texts(nodes)
    assert got == expected
    assert sys.getsizeof(got) <= sys.getsizeof(expected)


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
        json.dumps({"question": "q", "answers": "Obama"}),
        json.dumps({"question": "q", "answers": {"Obama": 1}}),
        json.dumps({"question": "q", "answers": [None]}),
        json.dumps({"question": "q", "answers": ["Obama", True]}),
        json.dumps({"question": "q", "answers": [False]}),
        json.dumps({"question": "q", "answers": [["Obama"]]}),
        json.dumps({"question": "q", "answers": [{"name": "Obama"}]}),
        # Nested past the recursion limit, json.loads raises RecursionError.
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
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


def test_load_dataset_keeps_numeric_answers_as_text(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"question": "q", "answers": ["a", 1999, 2.5]}) + "\n",
                 encoding="utf-8")
    assert load_dataset(p)[0].answers == ("a", "1999", "2.5")


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


def make_factory(stage2_only=False):
    """Fresh scripted providers per question, matched on question text;
    with ``stage2_only`` no specialized model, as the config builds it."""

    def factory():
        specialized = None if stage2_only else ScriptedLlm([
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


def test_run_batch_without_records_raises(presidents):
    def factory():
        raise AssertionError("no provider is built for an empty batch")

    with pytest.raises(DatasetError, match="^no records in dataset$"):
        run_batch(presidents, [], factory)


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


COLLIDING_TSV = """\
T\tc.r\tFoo
T\tc.r\t"foo"
T\tc.r\tBar
T\tc.s\tFoo
T\tc.d\t"1999"^^xsd:dateTime
T\tc.d\t"1999"^^xsd:integer
T\tc.d\t"2000"^^xsd:integer
"""


def test_run_batch_query_gold_collapses_equal_texts(tmp_path):
    # Gold from a query is a set of normalized texts: entity Foo and the
    # string "foo" are one gold answer, as are datetime and numeric 1999.
    tsv = tmp_path / "g.tsv"
    tsv.write_text(COLLIDING_TSV, encoding="utf-8")
    g = load_tsv(tsv)

    def factory():
        specialized = ScriptedLlm([
            {"match": "which foo", "reply": "TOPIC: T\nPATH: c.s\n"},
            {"match": "which year", "reply": "TOPIC: T\nPATH: c.d\n"},
        ])
        return specialized, ScriptedLlm([]), TokenOverlapEmbedder()

    records = [
        DatasetRecord("foo", "which foo", sparql="SELECT DISTINCT ?x WHERE { :T :c.r ?x . }"),
        DatasetRecord("year", "which year", sparql="SELECT DISTINCT ?x WHERE { :T :c.d ?x . }"),
    ]
    report, (foo, year) = run_batch(g, records, factory)
    # Predicted {foo}, gold {foo, bar}: p = 1, r = 1/2, F1 = 2/3.
    assert foo["answers"] == ["Foo"]
    assert (foo["hits_at_1"], foo["f1"]) == (1, pytest.approx(2 / 3))
    # Predicted and gold are both {1999, 2000}; the row keeps both 1999s,
    # datetime before numeric.
    assert year["answers"] == ["1999", "1999", "2000"]
    assert (year["hits_at_1"], year["f1"]) == (1, 1.0)
    assert not {"flagged", "error"} & (set(foo) | set(year))
    assert report.f1 == pytest.approx((2 / 3 + 1) / 2)


def test_run_batch_query_gold_of_another_node_set_scores_its_own_texts(tmp_path):
    # The answers are reused as the gold set only when the gold query
    # reaches the same nodes. Here both sets have two nodes and share one.
    tsv = tmp_path / "g.tsv"
    tsv.write_text("T\tc.r\tA\nT\tc.r\tB\nT\tc.s\tA\nT\tc.s\tC\n", encoding="utf-8")
    g = load_tsv(tsv)

    def factory():
        return ScriptedLlm([{"match": "", "reply": "TOPIC: T\nPATH: c.s\n"}]), \
            ScriptedLlm([]), TokenOverlapEmbedder()

    records = [
        DatasetRecord("other", "q", sparql="SELECT DISTINCT ?x WHERE { :T :c.r ?x . }"),
        DatasetRecord("same", "q", sparql="SELECT DISTINCT ?x WHERE { :T :c.s ?x . }"),
    ]
    _, (other, same) = run_batch(g, records, factory)
    assert other["answers"] == same["answers"] == ["A", "C"]
    # Predicted {A, C}, gold {A, B}: p = r = 1/2.
    assert (other["hits_at_1"], other["f1"]) == (1, 0.5)
    assert (same["hits_at_1"], same["f1"]) == (1, 1.0)


def test_run_batch_gold_query_from_another_topic_walks_its_own_chain(tmp_path):
    # Both gold queries follow the generated path's relations; only the
    # one from the path's own topic may reuse its walks.
    tsv = tmp_path / "g.tsv"
    tsv.write_text("A\tr\tX1\nX1\ts\tY1\nB\tr\tX2\nX2\ts\tY2\n", encoding="utf-8")
    g = load_tsv(tsv)

    def factory():
        return ScriptedLlm([{"match": "", "reply": "TOPIC: A\nPATH: r -> s\n"}]), \
            ScriptedLlm([]), TokenOverlapEmbedder()

    query = "SELECT DISTINCT ?x WHERE {{ :{} :r ?h . ?h :s ?x . }}"
    records = [DatasetRecord(t, "q", sparql=query.format(t)) for t in ("A", "B")]
    _, rows = run_batch(g, records, factory)
    assert [(r["answers"], r["hits_at_1"]) for r in rows] == [(["Y1"], 1), (["Y1"], 0)]
    assert not any("flagged" in r for r in rows)


def test_run_batch_answers_with_unparsable_query(presidents):
    # Literal answers score the record; a gold query that does not parse
    # only leaves the path metrics out, with no error on the row.
    rec = DatasetRecord("g", "all presidents", ("Obama",), sparql="SELECT nonsense")
    report, [row] = run_batch(presidents, [rec], make_factory())
    assert row["hits_at_1"] == 1
    assert not {"flagged", "error", "skeleton_accuracy"} & set(row)
    assert report.path_scored == 0


@pytest.mark.parametrize("stage2_only", [False, True])
def test_run_batch_flags_a_record_without_gold(presidents, stage2_only):
    # With neither answers nor a query (what ask builds), the question is
    # answered, scored 0 and flagged; only a failed question has an error.
    answered = DatasetRecord("n", "all presidents", topic="USA", depth=2)
    failed = DatasetRecord("u", "nobody scripted this")
    report, rows = run_batch(presidents, [answered, failed], make_factory(stage2_only))
    assert rows[0]["answers"] == ["Clinton", "GWBush", "Obama"]
    assert (rows[0]["hits_at_1"], rows[0]["f1"], rows[0]["flagged"]) == (0, 0.0, True)
    assert "error" not in rows[0]
    assert rows[1]["flagged"] is True and rows[1]["error"]
    assert report.flagged == 2


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


REPAIR_WORDS = [
    "film", "director", "office", "holder", "term", "start", "award", "winner",
    "city", "river", "mouth", "author", "genre", "team", "coach", "league",
]


def repair_graph(tmp_path, rng):
    """A topic with 60 two-word relations over three levels of hubs."""
    names = [f"{a}.{b}" for a in REPAIR_WORDS for b in REPAIR_WORDS if a != b]
    levels = [["T"]] + [[f"L{d}_{i}" for i in range(8)] for d in (1, 2, 3)]
    lines = []
    for d in range(3):
        fan_out = 60 if d == 0 else 8
        for s in levels[d]:
            for rel in rng.sample(names, fan_out):
                lines.append(f"{s}\t{rel}\t{rng.choice(levels[d + 1])}")
    p = tmp_path / "repair.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_tsv(p)


class PromptSeededLlm:
    """Replies drawn from a generator seeded by the prompt alone, so no
    reply depends on which worker sends it. Stage 1 always needs repair."""

    def complete(self, prompt, temperature=0.0):
        rng = random.Random(prompt)
        if "reasoning steps" in prompt:
            reply = "\n".join(
                f"#{i} find the {' '.join(rng.sample(REPAIR_WORDS, 2))}" for i in (1, 2, 3)
            )
        elif "Select up to" in prompt:
            reply = rng.choice(["Path 1", "Path 2, Path 3", "Path 7", "Path 99", "none"])
        else:
            reply = "TOPIC: T\nPATH: made.up -> made.up -> made.up\n"
        return reply, LlmUsage(approx_tokens(prompt), approx_tokens(reply))


def test_run_batch_workers_do_not_change_repair_output(tmp_path):
    # Many repairs at once share the embedder's module-level token cache;
    # 80 questions score more distinct strings than it holds.
    rng = random.Random(11)
    g = repair_graph(tmp_path, rng)
    records = [
        DatasetRecord(f"q{i}", "which " + " ".join(rng.sample(REPAIR_WORDS, 4)), ("L3_1",))
        for i in range(80)
    ]

    def factory():
        llm = PromptSeededLlm()
        return llm, llm, TokenOverlapEmbedder()

    report1, rows1 = run_batch(g, records, factory, workers=1)
    report4, rows4 = run_batch(g, records, factory, workers=4)
    assert {row["route"] for row in rows1} == {"stage1_plus_2"}
    assert json.dumps(rows1) == json.dumps(rows4)
    assert report1.to_dict() == report4.to_dict()


class HubPathLlm:
    """Stage-1 replies that walk the hub named in the question and keep
    the members whose ``member.party<k>`` is the named party."""

    def complete(self, prompt, temperature=0.0):
        hub, k, party = re.search(r"members of (\w+) in party(\d) (\w+)", prompt).groups()
        reply = (
            f"TOPIC: {hub}\nPATH: hub.member\n"
            f"CONSTRAINT: hop=1; rel=member.party{k}; entity={party}\n"
        )
        return reply, LlmUsage(approx_tokens(prompt), approx_tokens(reply))


def test_run_batch_workers_do_not_change_entity_constraint_output(tmp_path):
    # Each entity constraint asks the graph for a relation's inverse, which
    # a fresh graph builds on first use; here four workers race to build
    # the eight party relations, eight questions at a time on each.
    rng = random.Random(3)
    lines = [
        f"H{h}\thub.member\tM{h}_{i}\n" + "".join(
            f"M{h}_{i}\tmember.party{k}\tP{rng.randrange(4)}\n" for k in range(8)
        )
        for h in range(3)
        for i in range(400)
    ]
    p = tmp_path / "hub.tsv"
    p.write_text("".join(lines), encoding="utf-8")
    records = []
    for i in range(64):
        hub, k, party = f"H{i % 3}", i // 8, f"P{i % 4}"
        query = (
            f"SELECT DISTINCT ?x WHERE {{ :{hub} :hub.member ?x . "
            f"?x :member.party{k} :{party} . }}"
        )
        records.append(DatasetRecord(f"q{i}", f"members of {hub} in party{k} {party}",
                                     sparql=query))

    def factory():
        llm = HubPathLlm()
        return llm, llm, TokenOverlapEmbedder()

    report1, rows1 = run_batch(load_tsv(p), records, factory, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report4, rows4 = run_batch(load_tsv(p), records, factory, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert {(row["route"], row["relaxation_tier"], row["hits_at_1"]) for row in rows1} == {
        ("stage1_only", 0, 1)
    }
    assert all(len(row["answers"]) > 50 for row in rows1)
    assert json.dumps(rows1) == json.dumps(rows4)
    assert report1.to_dict() == report4.to_dict()


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
    report, rows = run_batch(presidents, load_dataset(p), make_factory(stage2_only=True))
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
        presidents, load_dataset(p), make_factory(stage2_only=True), include_trace=True
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
    report, rows = run_batch(presidents, load_dataset(p), make_factory(stage2_only=True))
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
TOO_LONG_FOR_INT = "Path " + "9" * 5000
REPLIES = st.sampled_from([
    WORKED_REPLY, SKELETON_REPLY, BROKEN_REPLY, "#1 step one\n#2 step two", "Path 1", "Path 9",
    TOO_LONG_FOR_INT,
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
# a repair after stage 1 whose selection reply int() cannot convert
@example(
    lines=[{"question": "who?", "answers": ["Obama"], "topic": "USA", "depth": 2}],
    outcomes=[BROKEN_REPLY, "#1 step one\n#2 step two", TOO_LONG_FOR_INT],
)
def test_run_batch_keeps_its_promise(presidents, tmp_path_factory, stage2_only, lines, outcomes):
    p = tmp_path_factory.mktemp("batch") / "d.jsonl"
    p.write_text("".join(json.dumps(v) + "\n" for v in lines), encoding="utf-8")
    records = load_dataset(p)

    def factory():
        llm = FlakyLlm(outcomes)
        return None if stage2_only else llm, llm, TokenOverlapEmbedder()

    report, rows = run_batch(presidents, records, factory)
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


# --- scoring through the question's own answers ---

def _scored_row(g, rec, answers, monkeypatch):
    """``_row`` for a stage-1 result with ``answers``, and the texts it
    normalized beyond the record's own gold answers."""
    normalized = []

    def spy(values):
        values = list(values)
        normalized.extend(values)
        return _norm_set(values)

    monkeypatch.setattr(evaluation, "_norm_set", spy)
    rp = ground_reasoning_path(g, parse_reasoning_path("TOPIC: T\nPATH: c.r\n"))
    result = QuestionResult(Route.STAGE1_ONLY, AnswerSet(answers, TIER_FULL), rp, rp, [])
    row, f1 = evaluation._row(g, rec, result, {}, False)
    return row, f1, normalized


def test_row_equal_node_sets_score_without_normalizing(tmp_path, monkeypatch):
    # Four nodes, one normalized text: the answers are their own gold.
    tsv = tmp_path / "g.tsv"
    tsv.write_text(
        'T\tc.r\tFoo\nT\tc.r\tfoo\nT\tc.r\t"FOO "\nT\tc.r\t"  foo"@en\n', encoding="utf-8"
    )
    g = load_tsv(tsv)
    rec = DatasetRecord("r", "q", sparql="SELECT DISTINCT ?x WHERE { :T :c.r ?x . }")
    row, f1, normalized = _scored_row(g, rec, g.reach("T", ("c.r",), {}), monkeypatch)
    assert len(row["answers"]) == 4
    assert (row["hits_at_1"], row["f1"], f1) == (1, 1.0, 1.0)
    assert not {"flagged", "error"} & set(row)
    assert normalized == []


def test_row_empty_answers_and_empty_gold_are_flagged(tmp_path, monkeypatch):
    tsv = tmp_path / "g.tsv"
    tsv.write_text("T\tc.r\tA\n", encoding="utf-8")
    g = load_tsv(tsv)
    rec = DatasetRecord("r", "q", sparql="SELECT DISTINCT ?x WHERE { :T :c.s ?x . }")
    row, f1, normalized = _scored_row(g, rec, frozenset(), monkeypatch)
    assert row["answers"] == []
    assert (row["hits_at_1"], row["f1"], f1) == (0, 0.0, 0.0)
    assert row["flagged"] is True
    assert normalized == []


def test_stage1_rows_serialize_the_path_once(presidents, tmp_path):
    _, rows = run_batch(presidents, batch_records(tmp_path), make_factory())
    stage1 = [r for r in rows if r["route"] == "stage1_only"]
    assert stage1
    for r in stage1:
        assert r["crp_final"] is r["crp_initial"]
    [repaired] = [r for r in rows if r["route"] == "stage1_plus_2"]
    assert repaired["crp_final"] != repaired["crp_initial"]
