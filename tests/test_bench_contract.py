"""The benchmark's trace contract: every name kgbench wraps still exists and
its span fires.

A traced kgbench run exits 3 when a wrapped name is gone or a declared
span never fires. This test replays the start of the relay-mixed workload
in process under the same wrappers, so such a change fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from kgrelay import evaluation
from kgrelay.evaluation import load_dataset
from kgrelay.kg import load_tsv
from kgrelay.providers import TokenOverlapEmbedder

KGBENCH = Path(__file__).resolve().parents[1] / "kgbench"


def test_relay_mixed_fires_every_declared_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(KGBENCH))
    import gen
    from replies import FakeLlm, ReplyBook
    from tracer import SpanRecorder

    spec = importlib.util.spec_from_file_location("kgbench_run", KGBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    gen.generate("relay-mixed", 7, tmp_path)
    g = load_tsv(tmp_path / "graph.tsv")
    records = load_dataset(tmp_path / "dataset.jsonl")[:200]
    fake = FakeLlm(ReplyBook.load(tmp_path / "replies.json"))

    def factory():
        return fake, fake, TokenOverlapEmbedder()

    recorder = SpanRecorder()
    with recorder.installed(run.trace_targets()):
        evaluation.run_batch(g, records, factory)
    spans = recorder.spans()

    fired = {spans.names[nid] for nid in set(spans.name)}
    declared = set(run.WORKLOADS["relay-mixed"]["spans"]) - {"evaluation.run_batch"}
    assert sorted(declared - fired) == []
    notes = [note for _, note in run.spans_notes(spans, "repair.repair")]
    assert notes and all(type(note) is int for note in notes)
