"""Acceptance suite: one test per release criterion, one printed line each.

Expected values come from independent oracles (tests/oracle.py), from hand
arithmetic recorded next to the assertion, or from the hand-computed case
tables in tests/metric_cases.py.
"""

from __future__ import annotations

import json
import random
import re
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from kgrelay.config import (
    load_settings,
    price_table,
    provider_factory,
    repair_config,
)
from kgrelay.errors import RepairFailed
from kgrelay.evaluation import (
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
from kgrelay.execute import evaluate_query, execute_with_relaxation
from kgrelay.kg import load_tsv
from kgrelay.providers import TokenOverlapEmbedder
from kgrelay.reasoning import canonicalize, parse_reasoning_path
from kgrelay.repair import RepairConfig, repair
from kgrelay.sparql import (
    parse_sparql,
    path_to_sparql,
    render_sparql,
    round_trip_check,
    sparql_to_path,
)
from conftest import full_answers
from metric_cases import ANSWER_CASES, PATH_CASES
from oracle import (
    FirstPathLlm,
    GoldSelectorLlm,
    keyset,
    oracle_execute,
    oracle_reach,
    oracle_sequences,
    oracle_tier,
    parse_tsv,
    random_graph_tsv,
    random_reasoning_path,
    random_ungrounded_path,
    unique_gold_instance,
)

EMB = TokenOverlapEmbedder()


@contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"{label}: PASS")


def load_text(text):
    f = tempfile.NamedTemporaryFile(
        "w", suffix=".tsv", delete=False, encoding="utf-8"
    )
    f.write(text)
    f.close()
    return load_tsv(f.name)


def corpus_blocks(data_dir):
    text = (data_dir / "roundtrip_corpus.sparql").read_text(encoding="utf-8")
    kept = "\n".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("#")
    )
    return [b.strip() for b in re.split(r"\n\s*\n", kept) if b.strip()]


def test_criterion_1_round_trips(capsys, data_dir):
    with criterion(capsys, "criterion 1: conversion round trips"):
        started = time.monotonic()
        blocks = corpus_blocks(data_dir)
        assert len(blocks) >= 30
        for i, block in enumerate(blocks, start=1):
            error = round_trip_check(block)
            assert error is None, f"corpus block {i}: {error}"

        rng = random.Random(20001)
        for _ in range(500):
            rp = random_ungrounded_path(rng)
            rendered = render_sparql(path_to_sparql(rp))
            again = sparql_to_path(parse_sparql(rendered))
            assert again == canonicalize(rp)
            assert render_sparql(path_to_sparql(again)) == rendered
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"round trips took {elapsed:.1f}s"


def test_criterion_2_execution_equivalence(capsys):
    with criterion(capsys, "criterion 2: execution matches the brute-force oracle"):
        started = time.monotonic()
        rng = random.Random(20002)
        for _ in range(200):
            tsv = random_graph_tsv(rng, max_entities=50, max_relations=10)
            g = load_text(tsv)
            og = parse_tsv(tsv)
            for _ in range(2):
                rp = random_reasoning_path(
                    rng, og, max_depth=3, max_constraints=3
                )
                full = full_answers(g, rp)
                assert keyset(full) == oracle_execute(og, rp)
                # compiled query and direct path execution must agree
                q = path_to_sparql(rp)
                assert evaluate_query(g, q, {}) == full
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"equivalence sweep took {elapsed:.1f}s"


def test_criterion_3_worked_example(capsys, presidents, worked_path,
                                    worked_argmax_path):
    with criterion(capsys, "criterion 3: worked example"):
        assert full_answers(presidents, worked_path) == frozenset(
            {"Obama", "GWBush"}
        )
        assert full_answers(presidents, worked_argmax_path) == frozenset(
            {"Obama"}
        )
        skeleton = presidents.reach(
            "USA", ("country.presidents", "president.office_holder"), {}
        )
        assert skeleton == frozenset({"Obama", "GWBush", "Clinton"})


def test_criterion_4_repair_budget(capsys):
    with criterion(capsys, "criterion 4: repair call budget"):
        rng = random.Random(20004)
        # filters wide enough that nothing the selector needs gets cut
        cfg = RepairConfig(beam_width=3, relation_filter=10, path_filter=64)
        runs = 0
        successes = 0
        clean_runs = 0  # runs whose trace shows no dead-ended beam path
        for turn in range(120):
            depth = [1, 2, 3, 4][turn % 4]
            tsv = random_graph_tsv(rng, max_entities=20, max_relations=6)
            og = parse_tsv(tsv)
            start = rng.choice(sorted({s for s, _, _ in og.triples}))
            seqs = oracle_sequences(og, start, depth)
            if seqs:
                llm = GoldSelectorLlm(rng.choice(seqs), start)
            else:
                llm = FirstPathLlm(2)
            g = load_text(tsv)
            trace = []
            runs += 1
            try:
                rels = repair(
                    g, "scripted question", start, depth, cfg, llm, EMB, trace, {}
                )
            except RepairFailed:
                rels = None
            assert llm.calls <= depth + 1  # the budget holds unconditionally
            dead_ends = any(e["event"] == "dead_end" for e in trace)
            if not dead_ends:
                clean_runs += 1
                assert rels is not None
                assert llm.calls == depth + 1
            if rels is not None:
                successes += 1
                # success always costs one blueprint plus one pick per level
                assert llm.calls == depth + 1
                assert oracle_reach(og, start, rels)
            for event in trace:
                if event["event"] != "depth":
                    continue
                for lin in event["candidates"] + event["chosen"]:
                    chain = tuple(lin.split(" -> "))
                    assert oracle_reach(og, start, chain), lin
        assert runs >= 100
        assert successes >= 60
        assert clean_runs >= 20


def test_criterion_5_repair_completeness(capsys):
    with criterion(capsys, "criterion 5: repair recovers unique gold paths"):
        rng = random.Random(20005)
        cfg = RepairConfig(beam_width=3, relation_filter=10, path_filter=64)
        for _ in range(50):
            tsv, og, start, depth, gold, answer = unique_gold_instance(rng)
            g = load_text(tsv)
            llm = GoldSelectorLlm(gold, start)
            rels = repair(g, "scripted question", start, depth, cfg, llm, EMB, [], {})
            assert rels == gold
            assert llm.calls == depth + 1
            assert answer in oracle_reach(og, start, rels)


def test_criterion_6_relaxation_monotone(capsys):
    with criterion(capsys, "criterion 6: relaxation tiers nest in order"):
        rng = random.Random(20006)
        checked_drops = 0
        for _ in range(80):
            tsv = random_graph_tsv(rng, max_entities=30, max_relations=8)
            g = load_text(tsv)
            og = parse_tsv(tsv)
            rp = random_reasoning_path(
                rng, og, max_depth=3, max_constraints=3, safe_relaxation=True
            )
            tiers = [execute_with_relaxation(g, rp, {}, (t,)).answers for t in range(4)]
            for t in range(3):
                assert tiers[t] <= tiers[t + 1], f"tier {t} not nested"
            # each tier answers as the oracle does with the constraints it
            # keeps: strings dropped first, then numerics, then all
            for t, answers in enumerate(tiers):
                kept = oracle_tier(rp.constraints, t)
                assert keyset(answers) == oracle_execute(og, replace(rp, constraints=kept))
            if oracle_tier(rp.constraints, 2) != rp.constraints:
                checked_drops += 1
        assert checked_drops >= 20  # enough instances actually had constraints


ROUTING_GOLDENS = {
    # 20 records; e1 and e2 miss (prediction {Clinton} vs gold {Obama})
    "hits_at_1": 18 / 20,
    # d1 and d2 predict {Obama, GWBush} against gold {Obama}: f1 2/3 each,
    # e1 and e2 score zero, the other sixteen are exact: (16 + 4/3) / 20
    "f1": (16 + 4 / 3) / 20,
    # gold queries exist for a1 a2 a3 b1 d1 d2; the d pair has an ARGMAX
    # skeleton while the prediction used Harvard + GE, so 4 of 6 match
    "skeleton_accuracy": 4 / 6,
    "exact_match": 4 / 6,
    "path_scored": 6,
    "routes": {"stage1_only": 15, "stage1_plus_2": 5},
}

# Token totals by role, frozen from the scripted fixture and verified by
# hand on samples: the a1 generation prompt is the 14-word template plus
# "Input: Question:" plus the braced 12-word question plus "Output:",
# 29 whitespace tokens; its reply is 15 tokens.
SPEC_PROMPT, SPEC_COMPLETION = 494, 189
GEN_PROMPT, GEN_COMPLETION = 1461, 85


def test_criterion_7_routing_accounting(capsys, data_dir):
    with criterion(capsys, "criterion 7: routing mix and cost accounting"):
        settings = load_settings(data_dir / "demo.cfg")
        settings.kg = str(data_dir / "presidents.tsv")
        settings.specialized_script = str(data_dir / "scripts" / "specialized.json")
        settings.general_script = str(data_dir / "scripts" / "general.json")
        g = load_tsv(settings.kg)
        records = load_dataset(data_dir / "routing_eval.jsonl")
        assert len(records) == 20
        report, rows = run_batch(
            g, records, provider_factory(settings),
            repair_config(settings), price_table(settings),
        )

        assert report.questions == 20
        assert report.flagged == 0
        # 15 questions stop after generation; 5 fail reachability and take
        # the repair route at depth 2: avg = 1 + (5/20) * (2 + 1)
        failing_fraction = 5 / 20
        expected_calls = 1 + failing_fraction * (2 + 1)
        assert abs(report.avg_llm_calls - expected_calls) < 1e-9
        assert report.hits_at_1 == pytest.approx(ROUTING_GOLDENS["hits_at_1"])
        assert report.f1 == pytest.approx(ROUTING_GOLDENS["f1"])
        assert report.skeleton_accuracy == pytest.approx(
            ROUTING_GOLDENS["skeleton_accuracy"]
        )
        assert report.exact_match == pytest.approx(
            ROUTING_GOLDENS["exact_match"]
        )
        assert report.path_scored == ROUTING_GOLDENS["path_scored"]
        assert report.routes == ROUTING_GOLDENS["routes"]

        # cost by hand: (494*0.05 + 189*0.25 + 1461*0.15 + 85*0.60) / 1e6
        # = (24.70 + 47.25 + 219.15 + 51.00) / 1e6 = 342.10 / 1e6
        prices = price_table(settings)
        expected_cost = (
            SPEC_PROMPT * prices["specialized"][0]
            + SPEC_COMPLETION * prices["specialized"][1]
            + GEN_PROMPT * prices["general"][0]
            + GEN_COMPLETION * prices["general"][1]
        ) / 1e6
        assert expected_cost == pytest.approx(342.10 / 1e6)
        assert report.cost_usd == pytest.approx(expected_cost, abs=1e-12)
        assert report.cost_per_10k_usd == pytest.approx(
            expected_cost / 20 * 10_000, abs=1e-9
        )
        assert report.avg_prompt_tokens == (SPEC_PROMPT + GEN_PROMPT) / 20
        assert report.avg_completion_tokens == (
            (SPEC_COMPLETION + GEN_COMPLETION) / 20
        )
        # per-row call counts: 1 for kept paths, 4 for repaired ones
        for row in rows:
            expected = 4 if row["route"] == "stage1_plus_2" else 1
            assert row["llm_calls"] == expected


def test_criterion_8_metric_suite(capsys):
    with criterion(capsys, "criterion 8: metric unit cases"):
        assert len(ANSWER_CASES) + len(PATH_CASES) >= 20
        for name, pred, gold, hits, f1 in ANSWER_CASES:
            assert hits_at_1(pred, gold) == hits, name
            assert _hits_and_f1(_norm_set(pred), _norm_set(gold))[1] == pytest.approx(f1), name
        for name, pred_text, gold_text, skel, exact in PATH_CASES:
            pred = parse_reasoning_path(pred_text) if pred_text else None
            gold = parse_reasoning_path(gold_text)
            assert skeleton_accuracy(pred, gold) == skel, name
            assert exact_match(pred, gold) == exact, name

        # exact match implies skeleton match on generated pairs
        rng = random.Random(20008)
        implications = 0
        for _ in range(200):
            a = random_ungrounded_path(rng)
            b = a if rng.random() < 0.5 else random_ungrounded_path(rng)
            if exact_match(a, b):
                assert skeleton_accuracy(a, b) == 1
                implications += 1
        assert implications >= 50


def test_criterion_9_determinism(capsys, data_dir, tmp_path):
    with criterion(capsys, "criterion 9: byte-identical reruns"):
        settings = load_settings(data_dir / "demo.cfg")
        settings.kg = str(data_dir / "presidents.tsv")
        settings.specialized_script = str(data_dir / "scripts" / "specialized.json")
        settings.general_script = str(data_dir / "scripts" / "general.json")
        g = load_tsv(settings.kg)
        records = load_dataset(data_dir / "routing_eval.jsonl")

        outputs = []
        for run_dir in ("one", "two"):
            random.seed(42)
            report, rows = run_batch(
                g, records, provider_factory(settings),
                repair_config(settings), price_table(settings),
                workers=1,
            )
            out = tmp_path / run_dir
            out.mkdir()
            write_results(out / "results.jsonl", rows)
            write_summary(out / "summary.json", report)
            outputs.append(
                (
                    (out / "results.jsonl").read_bytes(),
                    (out / "summary.json").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        # and the rows themselves are valid JSONL
        for line in outputs[0][0].decode("utf-8").splitlines():
            json.loads(line)
