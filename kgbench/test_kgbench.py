"""Tests of the benchmark's own parts: the generator, the span recorder,
the stub server and the in-process fake provider.

Run from the repository root: ``python -m pytest -q kgbench``.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from kgrelay.errors import HttpError  # noqa: E402
from kgrelay.evaluation import load_dataset, run_batch  # noqa: E402
from kgrelay.prompts import blueprint_prompt, generation_prompt, selection_prompt  # noqa: E402
from kgrelay.providers import HttpLlm, LlmProvider, LlmUsage, TokenOverlapEmbedder  # noqa: E402

import gen  # noqa: E402
from replies import UNPARSABLE_REPLY, FakeLlm, ReplyBook  # noqa: E402
from stub_llm import StubServer  # noqa: E402
from tracer import MissingName, SpanRecorder, Spans  # noqa: E402

FILES = ("graph.tsv", "dataset.jsonl", "replies.json", "expected.jsonl", "manifest.json")

QUESTION = "q1 what is the kala mero reached from t001"
TABLE = {
    QUESTION: {
        "stage1": "TOPIC: t001\nPATH: noroute.hop1 -> noroute.hop2",
        "blueprint": "#1 Identify the kala\n#2 Identify the mero",
        "gold": ["ka.la", "me.ro"],
        "unparsable": [2],
    }
}


@pytest.fixture(scope="module")
def relay_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("relay")
    gen.generate("relay-mixed", 7, out)
    return out


# --- generator ---

def test_same_seed_gives_byte_identical_files(relay_data, tmp_path):
    # A second process with another hash seed: set order must not leak out.
    env = dict(os.environ, PYTHONHASHSEED="12345")
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", "relay-mixed",
         "--seed", "7", "--out", str(tmp_path)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (relay_data / name).read_bytes(), name


def test_another_seed_gives_another_graph(relay_data, tmp_path):
    gen.generate("relay-mixed", 8, tmp_path)
    assert (tmp_path / "graph.tsv").read_bytes() != (relay_data / "graph.tsv").read_bytes()


def test_manifest_records_planted_shares(relay_data):
    planted = json.loads((relay_data / "manifest.json").read_text())["planted"]
    assert planted["walkable"] == pytest.approx(0.7, abs=0.02)
    assert set(planted["tiers_of_walkable"]) == {"t0", "t1", "t2", "t3"}
    assert planted["tiers_of_walkable"]["t3"] == pytest.approx(0.25, abs=0.02)


# --- span recorder ---

def test_self_time_subtracts_direct_children_only():
    #   root 0-100
    #     a 10-40
    #     b 50-90
    #       c 60-70
    spans = Spans(["root", "a", "b", "c"], name=[0, 1, 2, 3], start=[0, 10, 50, 60],
                  end=[100, 40, 90, 70], parent=[-1, 0, 0, 2], qid=[1, 1, 1, 1])
    assert spans.self_times() == [30, 30, 30, 10]
    assert sum(spans.self_times()) == 100


def test_recorder_links_parents_and_restores_names():
    class Target:
        @staticmethod
        def outer(x):
            return Target.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    original = Target.__dict__["inner"]
    recorder = SpanRecorder()
    recorder.set_question(5)
    targets = [(Target, "outer", "outer", lambda a, k, r: r),
               (Target, "inner", "inner", None)]
    with recorder.installed(targets):
        assert Target.outer(3) == 7
    assert Target.__dict__["inner"] is original
    spans = recorder.spans()
    assert [spans.names[n] for n in spans.name] == ["outer", "inner"]
    assert list(spans.parent) == [-1, 0]
    assert list(spans.qid) == [5, 5]
    assert spans.notes == {0: 7}
    own = spans.self_times()
    assert own[0] + own[1] == spans.end[0] - spans.start[0]


def test_recorder_fails_with_the_missing_name():
    class Target:
        pass

    recorder = SpanRecorder()
    with pytest.raises(MissingName, match="gone"):
        with recorder.installed([(Target, "gone", "gone", None)]):
            pass


def test_recorder_merges_threads_with_global_parents():
    recorder = SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)
    root = recorder.wrap("root", lambda: leaf())

    threads = [threading.Thread(target=root) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    spans = recorder.spans()
    assert len(spans) == 4
    for i, p in enumerate(spans.parent):
        if spans.names[spans.name[i]] == "leaf":
            assert spans.names[spans.name[p]] == "root"


# --- providers ---

@pytest.fixture
def stub():
    server = StubServer(("127.0.0.1", 0), ReplyBook(TABLE), {"slow": 0.05, "fast": 0.0})
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/v1"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def selection(level: int) -> str:
    cands = {1: [["zo.zo"], ["ka.la"]], 2: [["ka.la", "zo.zo"], ["ka.la", "me.ro"]]}[level]
    lines = [f"Path {k}: t001 -> {' -> '.join(c)}" for k, c in enumerate(cands, start=1)]
    return selection_prompt(QUESTION, "t001", lines, 1)


def test_stub_maps_prompts_to_replies_and_reports_usage(stub, monkeypatch):
    server, url = stub
    monkeypatch.setenv("KGBENCH_TEST_KEY", "x")
    llm = HttpLlm(url, "fast", key_env="KGBENCH_TEST_KEY")
    prompt = generation_prompt(QUESTION)
    text, usage = llm.complete(prompt)
    assert text == TABLE[QUESTION]["stage1"]
    assert usage == LlmUsage(len(prompt.split()), len(text.split()), provider_reported=True)
    assert llm.complete(blueprint_prompt(QUESTION))[0] == TABLE[QUESTION]["blueprint"]
    assert llm.complete(selection(1))[0] == "Path 2"
    assert llm.complete(selection(2))[0] == UNPARSABLE_REPLY
    assert server.requests == 4


def test_stub_injects_latency_per_model(stub, monkeypatch):
    _, url = stub
    monkeypatch.setenv("KGBENCH_TEST_KEY", "x")
    slow = HttpLlm(url, "slow", key_env="KGBENCH_TEST_KEY")
    t0 = time.perf_counter()
    slow.complete(generation_prompt(QUESTION))
    assert time.perf_counter() - t0 >= 0.05


def test_stub_rejects_unknown_prompts_without_retry(stub, monkeypatch):
    server, url = stub
    monkeypatch.setenv("KGBENCH_TEST_KEY", "x")
    llm = HttpLlm(url, "fast", key_env="KGBENCH_TEST_KEY")
    with pytest.raises(HttpError):
        llm.complete(generation_prompt("a question nobody planted"))
    assert server.requests == 1


def test_fake_provider_conforms_to_the_protocol():
    fake = FakeLlm(ReplyBook(TABLE))
    expected = inspect.signature(LlmProvider.complete)
    assert inspect.signature(FakeLlm.complete) == expected
    text, usage = fake.complete(generation_prompt(QUESTION))
    assert isinstance(text, str) and isinstance(usage, LlmUsage)
    assert usage.provider_reported


def test_fake_provider_answers_planted_questions_correctly(relay_data):
    from kgrelay.kg import load_tsv

    g = load_tsv(relay_data / "graph.tsv")
    records = load_dataset(relay_data / "dataset.jsonl")[:40]
    with open(relay_data / "expected.jsonl") as fh:
        expected = {e["id"]: e for e in map(json.loads, fh)}
    fake = FakeLlm(ReplyBook.load(relay_data / "replies.json"))
    _, rows = run_batch(g, records, lambda: (fake, fake, TokenOverlapEmbedder()))
    routes = set()
    for row in rows:
        exp = expected[row["id"]]
        assert (row["answers"], row["route"], row["relaxation_tier"]) == (
            exp["answers"], exp["route"], exp["tier"])
        routes.add(row["route"])
    assert routes == {"stage1_only", "stage1_plus_2"}
