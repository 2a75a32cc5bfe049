"""The benchmark's contract: every workload's rows pass kgbench's checks,
every name kgbench wraps still exists and its span fires.

A kgbench run fails when a row differs from the planted answers, and a
traced run exits 3 when a wrapped name is gone or a declared span never
fires. This test replays the start of each workload in process through
kgbench's own answer loop, checker and metric code, untraced and under
the same wrappers, so such a change fails here first.
"""

from __future__ import annotations

import importlib.util
import math
import time
from pathlib import Path

import pytest

from kgrelay import config, evaluation
from kgrelay.evaluation import load_dataset
from kgrelay.kg import load_tsv
from kgrelay.providers import TokenOverlapEmbedder

KGBENCH = Path(__file__).resolve().parents[1] / "kgbench"
RECORDS = 150


def _replay(run, call, env, recorder=None):
    """Each record answered once, in order, the way a client thread does."""
    phase = run.Phase()
    start = time.perf_counter()
    for idx, rec in enumerate(env["records"]):
        if recorder is not None:
            recorder.set_question(idx)
        phase.results[idx] = run.answer(call, env, rec)
    phase.elapsed = time.perf_counter() - start
    return phase


@pytest.mark.parametrize("workload", ["relay-mixed", "graph-heavy", "repair-heavy"])
def test_workload_passes_kgbench_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(KGBENCH))
    import gen
    from replies import FakeLlm, ReplyBook
    from tracer import SpanRecorder

    spec = importlib.util.spec_from_file_location("kgbench_run", KGBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    gen.generate(workload, 7, tmp_path)
    records = load_dataset(tmp_path / "dataset.jsonl")[:RECORDS]
    expected = run.load_expected(tmp_path)
    fake = FakeLlm(ReplyBook.load(tmp_path / "replies.json"))

    def factory():
        return fake, fake, TokenOverlapEmbedder()

    settings = config.load_settings()
    env = {
        "g": load_tsv(tmp_path / "graph.tsv"), "records": records, "factory": factory,
        "repair_cfg": config.repair_config(settings),
        "prices": config.price_table(settings), "setup_s": [0.0],
    }
    checker = run.Checker(records, expected)

    plain = _replay(run, evaluation.run_batch, env)
    checker.rows(plain, "untraced")
    assert checker.failures == []
    assert run.measured_properties(env, plain)["questions"] == len(records)
    metrics = run.end_to_end(env, plain, 0.0, expected)
    assert all(math.isfinite(v) for v in metrics.values())

    recorder = SpanRecorder()
    with recorder.installed(run.trace_targets()):
        call = recorder.wrap("evaluation.run_batch", evaluation.run_batch)
        traced = _replay(run, call, env, recorder)
    spans = recorder.spans()

    fired = {spans.names[nid] for nid in set(spans.name)}
    declared = set(run.WORKLOADS[workload]["spans"])
    assert sorted(declared - fired) == []
    checker.rows(traced, "traced")
    checker.same_rows(plain, traced, "traced vs untraced")
    assert checker.failures == []
    notes = [note for _, note in run.spans_notes(spans, "repair.repair")]
    assert all(type(note) is int for note in notes)
    if "repair.repair" in declared:
        assert notes
