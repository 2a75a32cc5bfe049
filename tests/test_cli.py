"""End-to-end command-line behavior via click's test runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import kgrelay
from kgrelay.cli import main

RUNNER = CliRunner()
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def cfg_path(tmp_path, data_dir):
    """demo.cfg equivalent with absolute paths, safe under any cwd."""
    p = tmp_path / "run.cfg"
    p.write_text(
        f"kg = {data_dir / 'presidents.tsv'}\n"
        f"specialized_script = {data_dir / 'scripts' / 'specialized.json'}\n"
        f"general_script = {data_dir / 'scripts' / 'general.json'}\n"
        "workers = 1\n",
        encoding="utf-8",
    )
    return str(p)


def run(*args, **kwargs):
    return RUNNER.invoke(main, list(args), **kwargs)


# --- load-check ---

def test_load_check(data_dir):
    result = run("--kg", str(data_dir / "presidents.tsv"), "load-check")
    assert result.exit_code == 0
    # every entity contributes its own casefolded name to the alias table
    assert result.output == (
        "triples    12\nentities   9\nrelations  4\naliases    9\n"
    )


def test_load_check_missing_graph(tmp_path):
    result = run("--kg", str(tmp_path / "none.tsv"), "load-check")
    assert result.exit_code == 2
    assert result.stderr.startswith("error: cannot load graph")


def test_no_graph_configured():
    result = run("load-check")
    assert result.exit_code == 2
    assert "no knowledge graph configured" in result.stderr


def test_bad_config_file(tmp_path):
    result = run("--config", str(tmp_path / "absent.cfg"), "load-check")
    assert result.exit_code == 2
    assert result.stderr.startswith("error: cannot read config")


@pytest.mark.parametrize("reads", ["graph", "dataset", "config", "script", "convert"])
def test_input_that_is_not_utf8_exits_2(reads, cfg_path, data_dir, tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\n")
    if reads == "script":
        Path(cfg_path).write_text(
            f"kg = {data_dir / 'presidents.tsv'}\nspecialized_script = {bad}\n"
            f"general_script = {data_dir / 'scripts' / 'general.json'}\n",
            encoding="utf-8",
        )
    args, message = {
        "graph": (["--kg", str(bad), "load-check"], "cannot load graph: "),
        "dataset": (["--config", cfg_path, "eval", str(bad), "--out", str(tmp_path / "out")],
                    "cannot read dataset: "),
        "config": (["--config", str(bad), "load-check"], "cannot read config: "),
        "script": (["--config", cfg_path, "ask", "q"], f"cannot load script {bad}: "),
        "convert": (["convert", str(bad), "--direction", "roundtrip"], f"cannot read {bad}: "),
    }[reads]
    result = run(*args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {message}'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("reads", ["graph", "dataset", "config", "script", "convert"])
def test_input_with_a_utf8_bom_reads_as_without_it(reads, cfg_path, data_dir, tmp_path):
    source = {
        "graph": data_dir / "presidents.tsv",
        "dataset": data_dir / "routing_eval.jsonl",
        "config": Path(cfg_path),
        "script": data_dir / "scripts" / "specialized.json",
        "convert": data_dir / "roundtrip_corpus.sparql",
    }[reads]
    copy = tmp_path / "input" / source.name
    copy.parent.mkdir()
    script_cfg = tmp_path / "script.cfg"
    script_cfg.write_text(
        f"kg = {data_dir / 'presidents.tsv'}\nspecialized_script = {copy}\n"
        f"general_script = {data_dir / 'scripts' / 'general.json'}\n",
        encoding="utf-8",
    )
    question = "which us presidents attended harvard and took office in 2000 or later"
    out = tmp_path / "out"
    args = {
        "graph": ["--config", cfg_path, "--kg", str(copy), "ask", question],
        "dataset": ["--config", cfg_path, "eval", str(copy), "--out", str(out)],
        "config": ["--config", str(copy), "ask", question],
        "script": ["--config", str(script_cfg), "ask", question],
        "convert": ["convert", str(copy), "--direction", "roundtrip"],
    }[reads]
    runs = []
    for bom in ("", "\ufeff"):
        copy.write_text(bom + source.read_text(encoding="utf-8"), encoding="utf-8")
        result = run(*args)
        written = (out / "results.jsonl").read_bytes() if reads == "dataset" else b""
        runs.append((result.exit_code, result.output, result.stderr, written))
    assert runs[0][0] == 0, runs[0]
    assert runs[1] == runs[0]


# --- ask ---

def test_ask_stage1(cfg_path):
    result = run(
        "--config", cfg_path, "ask",
        "which us presidents attended harvard and took office in 2000 or later",
    )
    assert result.exit_code == 0
    assert "route: stage1_only\n" in result.output
    assert "relaxation_tier: 0\n" in result.output
    assert "  TOPIC: USA\n" in result.output
    assert "answers (2):\n  GWBush\n  Obama\n" in result.output


def test_ask_repaired(cfg_path):
    result = run(
        "--config", cfg_path, "ask", "which presidents of the us held office"
    )
    assert result.exit_code == 0
    assert "route: stage1_plus_2\n" in result.output
    assert "  PATH: country.presidents -> president.office_holder\n" in result.output
    assert "answers (3):\n  Clinton\n  GWBush\n  Obama\n" in result.output


def test_ask_trace_goes_to_stderr(cfg_path):
    result = run(
        "--config", cfg_path, "--trace", "ask",
        "which presidents of the us held office",
    )
    assert result.exit_code == 0
    events = [json.loads(ln) for ln in result.stderr.splitlines()]
    assert [ev["event"] for ev in events] == ["blueprint", "depth", "depth"]


def test_ask_unscripted_question_fails(cfg_path):
    result = run("--config", cfg_path, "ask", "question nobody scripted")
    assert result.exit_code == 1
    assert "answers (0):" in result.output
    assert result.stderr.startswith("error: generation: NoScriptMatch")


def test_ask_stage2_only(cfg_path):
    result = run(
        "--config", cfg_path, "ask", "who was president",
        "--stage2-only", "--topic", "usa", "--depth", "2",
    )
    assert result.exit_code == 0
    assert "route: stage2_only\n" in result.output
    assert "answers (3):" in result.output


def test_ask_stage2_only_needs_topic_and_depth(cfg_path):
    result = run("--config", cfg_path, "ask", "q", "--stage2-only")
    assert result.exit_code == 2
    assert "--topic and --depth" in result.stderr


def ask_output(row):
    """What ask prints to stdout for an eval row."""
    lines = [f"route: {row['route']}", f"relaxation_tier: {row['relaxation_tier']}"]
    if row["crp_final"] is not None:
        lines += ["path:", *(f"  {line}" for line in row["crp_final"].splitlines())]
    lines += [f"answers ({len(row['answers'])}):", *(f"  {a}" for a in row["answers"])]
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("golden, flags", [
    ("", []),
    ("stage2_only", ["--stage2-only", "--topic", "USA", "--depth", "2"]),
])
def test_ask_prints_the_eval_row(cfg_path, golden, flags, trace):
    """ask answers each demo question as eval does: the golden row's
    route, tier, final path and answers, and with --trace its events."""
    rows = (GOLDEN / golden / "results_trace.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 20
    for row in map(json.loads, rows):
        result = run(
            "--config", cfg_path, *(["--trace"] if trace else []), "ask", row["question"], *flags
        )
        assert result.exit_code == (1 if "error" in row else 0), row["id"]
        assert result.stdout == ask_output(row), row["id"]
        events = [json.loads(line) for line in result.stderr.splitlines()]
        assert events == (row["trace"] if trace else []), row["id"]


# --- eval ---

def test_eval_writes_outputs(cfg_path, data_dir, tmp_path):
    out = tmp_path / "out"
    result = run(
        "--config", cfg_path, "eval", str(data_dir / "routing_eval.jsonl"),
        "--out", str(out),
    )
    assert result.exit_code == 0
    assert "hits_at_1" in result.output
    assert f"wrote {out / 'results.jsonl'} and {out / 'summary.json'}" in result.output
    rows = [
        json.loads(ln)
        for ln in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(rows) == 20
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["questions"] == 20
    assert summary["flagged"] == 0


def test_eval_reruns_are_byte_identical(cfg_path, data_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        result = run(
            "--config", cfg_path, "eval", str(data_dir / "routing_eval.jsonl"),
            "--out", str(out),
        )
        assert result.exit_code == 0
    assert (out1 / "results.jsonl").read_bytes() == (out2 / "results.jsonl").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_eval_outputs_do_not_depend_on_the_hash_seed(data_dir, tmp_path):
    # Set iteration order changes with PYTHONHASHSEED; what eval writes
    # must not, whatever the memo keys its walks and filters by.
    src = Path(kgrelay.__file__).resolve().parents[1]
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", "from kgrelay.cli import main; main()",
             "--config", "data/demo.cfg", "eval", "data/routing_eval.jsonl", "--out", str(out)],
            cwd=data_dir.parent, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outs.append(out)
    for name in ("results.jsonl", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


GOLDEN_RUNS = pytest.mark.parametrize("trace, results_file", [
    (False, "results.jsonl"),
    (True, "results_trace.jsonl"),
])


def check_golden(cfg_path, data_dir, out, trace, results_file, golden, *flags):
    result = run(
        "--config", cfg_path, *(["--trace"] if trace else []),
        "eval", str(data_dir / "routing_eval.jsonl"), "--out", str(out), *flags,
    )
    assert result.exit_code == 0
    assert (out / "results.jsonl").read_bytes() == (golden / results_file).read_bytes()
    assert (out / "summary.json").read_bytes() == (golden / "summary.json").read_bytes()


@GOLDEN_RUNS
def test_eval_matches_golden_outputs(cfg_path, data_dir, tmp_path, trace, results_file):
    """The demo eval writes exactly the checked-in outputs, float bits included.

    tests/golden/ holds ``kgrelay --config data/demo.cfg [--trace] eval
    data/routing_eval.jsonl`` output; a change that moves any byte, such
    as the order in which call costs are summed, fails here.
    """
    check_golden(cfg_path, data_dir, tmp_path / "out", trace, results_file, GOLDEN)


@GOLDEN_RUNS
def test_eval_stage2_only_matches_golden_outputs(
    cfg_path, data_dir, tmp_path, trace, results_file
):
    """tests/golden/stage2_only/ holds the same runs with ``--stage2-only``."""
    check_golden(
        cfg_path, data_dir, tmp_path / "out", trace, results_file,
        GOLDEN / "stage2_only", "--stage2-only",
    )


@GOLDEN_RUNS
def test_eval_stage2_only_is_answered_at_tier_0_without_relaxation(
    cfg_path, data_dir, tmp_path, monkeypatch, trace, results_file
):
    # A repaired path has no constraints and reaches something, so the
    # first tier answers it whether or not later tiers are tried.
    monkeypatch.setenv("KGRELAY_RELAXATION", "false")
    check_golden(
        cfg_path, data_dir, tmp_path / "out", trace, results_file,
        GOLDEN / "stage2_only", "--stage2-only",
    )


def test_eval_stage2_only_needs_no_specialized_provider(data_dir, tmp_path, monkeypatch):
    # The specialized role points at an HTTP server whose key is unset;
    # a repair-only run neither builds nor calls it.
    monkeypatch.delenv("KGRELAY_API_KEY", raising=False)
    cfg = tmp_path / "general_only.cfg"
    cfg.write_text(
        f"kg = {data_dir / 'presidents.tsv'}\n"
        "specialized_url = http://127.0.0.1:9/v1\nspecialized_model = m\n"
        f"general_script = {data_dir / 'scripts' / 'general.json'}\n",
        encoding="utf-8",
    )
    check_golden(
        str(cfg), data_dir, tmp_path / "out", False, "results.jsonl",
        GOLDEN / "stage2_only", "--stage2-only",
    )


def test_golden_summaries_hold_the_route_trade_off():
    # On the demo, routing answers with fewer calls, at a third of the
    # cost and with a higher F1 than the repair-only ablation.
    def point(summary_path):
        s = json.loads(summary_path.read_text(encoding="utf-8"))
        return s["avg_llm_calls"], round(s["f1"], 4), round(s["cost_per_10k_usd"], 3)

    assert point(GOLDEN / "summary.json") == (1.75, 0.8667, 0.171)
    assert point(GOLDEN / "stage2_only" / "summary.json") == (3.0, 0.77, 0.542)


def test_eval_flagged_records_exit_1(cfg_path, tmp_path):
    # An unusable line still gets its flagged row, which names the line.
    ds = tmp_path / "d.jsonl"
    ds.write_text(
        '{"broken json\n{"id": "ok", "question": "q", "answers": ["Obama"]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "o"
    result = run("--config", cfg_path, "eval", str(ds), "--out", str(out))
    assert result.exit_code == 1
    rows = [json.loads(ln) for ln in (out / "results.jsonl").read_text("utf-8").splitlines()]
    assert [r["id"] for r in rows] == ["line-1", "ok"]
    assert rows[0]["flagged"] is True
    assert rows[0]["error"].startswith("line 1: ")


def _eval_output(cfg_path, ds, out):
    """Run eval; its exit code and its rows and summary read as strict UTF-8."""
    result = run("--config", cfg_path, "eval", str(ds), "--out", str(out))
    rows = [
        json.loads(ln)
        for ln in (out / "results.jsonl").read_bytes().decode("utf-8").splitlines()
    ]
    summary = json.loads((out / "summary.json").read_bytes().decode("utf-8"))
    return result.exit_code, rows, summary


def test_eval_flags_a_dataset_line_with_a_lone_surrogate(cfg_path, tmp_path):
    ds = tmp_path / "d.jsonl"
    ds.write_text(
        '{"id": "s", "question": "who \\ud800 was president", "answers": ["Obama"]}\n',
        encoding="utf-8",
    )
    code, rows, summary = _eval_output(cfg_path, ds, tmp_path / "o")
    assert code == 1
    assert rows[0]["id"] == "line-1" and rows[0]["flagged"] is True
    assert rows[0]["error"].startswith("line 1: ")
    assert summary["flagged"] == 1


def test_eval_flags_a_reply_with_a_lone_surrogate(cfg_path, data_dir, tmp_path):
    script = tmp_path / "specialized.json"
    script.write_text(
        '[{"match": "{who was president}", "reply": "TOPIC: USA\\ud800\\nPATH: x.y"}]',
        encoding="utf-8",
    )
    Path(cfg_path).write_text(
        f"kg = {data_dir / 'presidents.tsv'}\nspecialized_script = {script}\n"
        f"general_script = {data_dir / 'scripts' / 'general.json'}\n",
        encoding="utf-8",
    )
    ds = tmp_path / "d.jsonl"
    ds.write_text('{"id": "r", "question": "who was president", "answers": ["Obama"]}\n',
                  encoding="utf-8")
    code, rows, summary = _eval_output(cfg_path, ds, tmp_path / "o")
    assert code == 1
    assert rows[0]["flagged"] is True and rows[0]["llm_calls"] == 1
    assert rows[0]["error"].startswith("generation: MalformedReply: ")
    assert summary["flagged"] == 1


def test_eval_fallback_rows_are_flagged(cfg_path, tmp_path):
    # Both records have gold answers; the repair-only route fails on a
    # record without a topic and on one repaired to depth 0.
    ds = tmp_path / "d.jsonl"
    ds.write_text(
        '{"id": "f1", "question": "q1", "answers": ["Obama"]}\n'
        '{"id": "f2", "question": "q2", "answers": ["Obama"], "topic": "usa", "depth": 0}\n',
        encoding="utf-8",
    )
    out = tmp_path / "o"
    result = run("--config", cfg_path, "eval", str(ds), "--out", str(out), "--stage2-only")
    assert result.exit_code == 1
    rows = [
        json.loads(ln)
        for ln in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [(r["route"], r["flagged"]) for r in rows] == [("repair_failed_fallback", True)] * 2
    assert json.loads((out / "summary.json").read_text(encoding="utf-8"))["flagged"] == 2


def test_eval_missing_dataset(cfg_path, tmp_path):
    result = run(
        "--config", cfg_path, "eval", str(tmp_path / "none.jsonl"),
        "--out", str(tmp_path / "o"),
    )
    assert result.exit_code == 2
    assert "cannot read dataset" in result.stderr


@pytest.mark.parametrize("url, key, message", [
    ("localhost:9/v1", "k", "error: specialized provider: URL must be http or https"),
    ("http://127.0.0.1:9/v1", None, "error: environment variable KGRELAY_API_KEY is not set"),
], ids=["bad_url", "missing_key"])
def test_eval_unusable_http_provider_exits_2(tmp_path, data_dir, monkeypatch, url, key, message):
    if key is None:
        monkeypatch.delenv("KGRELAY_API_KEY", raising=False)
    else:
        monkeypatch.setenv("KGRELAY_API_KEY", key)
    cfg = tmp_path / "http.cfg"
    cfg.write_text(
        f"kg = {data_dir / 'presidents.tsv'}\n"
        f"specialized_url = {url}\nspecialized_model = m\n"
        f"general_script = {data_dir / 'scripts' / 'general.json'}\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    result = run("--config", str(cfg), "eval", str(data_dir / "routing_eval.jsonl"),
                 "--out", str(out))
    assert result.exit_code == 2
    assert result.stderr.startswith(message)
    assert not out.exists()


def test_eval_unusable_out_exits_2_before_any_record(cfg_path, data_dir, tmp_path, monkeypatch):
    built = []
    real = kgrelay.config.provider_factory

    def counting(*args, **kwargs):
        factory = real(*args, **kwargs)

        def build():
            built.append(1)
            return factory()
        return build

    monkeypatch.setattr(kgrelay.config, "provider_factory", counting)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    dataset = str(data_dir / "routing_eval.jsonl")
    result = run("--config", cfg_path, "eval", dataset, "--out", str(blocker / "o"))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: cannot write output: ")
    assert built == []
    # The same run with a usable --out builds providers for all 20 records.
    result = run("--config", cfg_path, "eval", dataset, "--out", str(tmp_path / "o"))
    assert result.exit_code == 0
    assert len(built) == 20


@pytest.mark.parametrize("source, key, value", [
    ("file", "price_general_input", "nan"),
    ("file", "price_specialized_output", "-0.5"),
    ("file", "workers", "0"),
    ("env", "price_general_output", "inf"),
    ("env", "price_specialized_input", "-inf"),
    ("env", "workers", "-3"),
    ("flag", "workers", "0"),
    ("flag", "workers", "-3"),
])
def test_eval_unusable_setting_exits_2(cfg_path, data_dir, tmp_path, monkeypatch,
                                       source, key, value):
    """Settings checks its own fields, wherever a value comes from, so a
    price cannot write NaN into summary.json."""
    args = ["--config", cfg_path]
    if source == "file":
        with open(cfg_path, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = {value}\n")
    elif source == "env":
        monkeypatch.setenv(f"KGRELAY_{key.upper()}", value)
    else:
        args.append(f"--{key}={value}")
    out = tmp_path / "o"
    result = run(*args, "eval", str(data_dir / "routing_eval.jsonl"), "--out", str(out))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {key} must be ")
    assert not out.exists()


def test_importing_the_cli_does_not_load_requests():
    # The standard library carries the HTTP transport; click is the one
    # runtime dependency. The transport itself, with ssl, loads only when
    # an HttpLlm makes its first call.
    src = Path(kgrelay.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    unwanted = ["requests", "http.client", "ssl", "urllib.request"]
    probe = f"import sys, kgrelay.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --- convert ---

def test_convert_roundtrip_corpus(data_dir):
    result = run(
        "convert", str(data_dir / "roundtrip_corpus.sparql"),
        "--direction", "roundtrip",
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) >= 30
    assert all(line.endswith(": ok") for line in lines)


def test_convert_query_to_path(tmp_path):
    p = tmp_path / "q.sparql"
    p.write_text(
        "# a comment\n"
        "SELECT DISTINCT ?x WHERE { :A :r ?x . }\n"
        "\n"
        "SELECT DISTINCT ?y WHERE { :B :s ?m . ?m :t ?y . }\n",
        encoding="utf-8",
    )
    result = run("convert", str(p), "--direction", "query-to-path")
    assert result.exit_code == 0
    assert result.output == (
        "TOPIC: A\nPATH: r\n\nTOPIC: B\nPATH: s -> t\n\n"
    )


def test_convert_path_to_query_ungrounded(tmp_path):
    p = tmp_path / "p.crp"
    p.write_text(
        "TOPIC: USA\nPATH: country.presidents\n"
        "CONSTRAINT: hop=1; rel=r; entity=X\n",
        encoding="utf-8",
    )
    result = run("convert", str(p), "--direction", "path-to-query")
    assert result.exit_code == 0
    assert ":USA :country.presidents ?h1 ." in result.output
    assert "?h1 :r :X ." in result.output


def test_convert_path_to_query_grounds_through_graph(tmp_path, data_dir):
    p = tmp_path / "p.crp"
    p.write_text("TOPIC: usa\nPATH: country.presidents\n", encoding="utf-8")
    result = run(
        "--kg", str(data_dir / "presidents.tsv"),
        "convert", str(p), "--direction", "path-to-query",
    )
    assert result.exit_code == 0
    assert ":USA :country.presidents ?h1 ." in result.output


def test_convert_path_to_query_reports_a_hop_too_long(tmp_path):
    p = tmp_path / "p.crp"
    p.write_text(
        "TOPIC: USA\nPATH: r\nCONSTRAINT: hop=1; rel=s; entity=X\n\n"
        "TOPIC: USA\nPATH: r\nCONSTRAINT: hop=" + "9" * 5000 + "; rel=s; entity=X\n",
        encoding="utf-8",
    )
    result = run("convert", str(p), "--direction", "path-to-query")
    assert result.exit_code == 1
    assert "?h1 :s :X ." in result.output
    assert result.stderr == "block 2: ParseError: line 3: hop number too long\n"


def test_convert_reports_block_failures(tmp_path):
    p = tmp_path / "q.sparql"
    p.write_text(
        "SELECT DISTINCT ?x WHERE { :A :r ?x . }\n"
        "\n"
        "SELECT ?x WHERE { :A :r ?x . }\n",
        encoding="utf-8",
    )
    result = run("convert", str(p), "--direction", "query-to-path")
    assert result.exit_code == 1
    assert "TOPIC: A" in result.output
    assert result.stderr.startswith("block 2: UnsupportedFeature")


def test_convert_empty_input(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# only comments\n", encoding="utf-8")
    result = run("convert", str(p), "--direction", "roundtrip")
    assert result.exit_code == 2
    assert "no blocks" in result.stderr


# --- watching a repair: ask --stage2-only ---

def test_ask_stage2_only_traces_the_repair(cfg_path):
    result = run(
        "--config", cfg_path, "--trace", "ask", "--stage2-only", "who was president",
        "--topic", "usa", "--depth", "2",
    )
    assert result.exit_code == 0
    assert result.stdout == (
        "route: stage2_only\nrelaxation_tier: 0\npath:\n  TOPIC: usa\n"
        "  PATH: country.presidents -> president.office_holder\n"
        "answers (3):\n  Clinton\n  GWBush\n  Obama\n"
    )
    events = [json.loads(ln) for ln in result.stderr.splitlines()]
    assert [ev["event"] for ev in events] == ["blueprint", "depth", "depth"]
    assert events[2]["chosen"] == ["country.presidents -> president.office_holder"]


def test_ask_stage2_only_repair_failure(cfg_path):
    result = run(
        "--config", cfg_path, "--trace", "ask", "--stage2-only", "q",
        "--topic", "Harvard", "--depth", "2",
    )
    assert result.exit_code == 1
    assert "route: repair_failed_fallback\n" in result.stdout
    events = [json.loads(ln) for ln in result.stderr.splitlines()[:-1]]
    assert [ev["event"] for ev in events] == ["blueprint", "dead_end", "error"]
    assert result.stderr.splitlines()[-1] == (
        "error: repair: RepairFailed: repair failed at depth 1: all beam paths dead-ended"
    )


def test_ask_stage2_only_unknown_topic(cfg_path):
    # An unknown topic is a failed record, as in eval: a fallback row.
    result = run(
        "--config", cfg_path, "ask", "--stage2-only", "q", "--topic", "Narnia", "--depth", "2",
    )
    assert result.exit_code == 1
    assert result.stdout == "route: repair_failed_fallback\nrelaxation_tier: 0\nanswers (0):\n"
    assert result.stderr == "error: repair: UnknownEntity: unknown entity: 'Narnia'\n"


def test_failed_ask_prints_its_error_once(data_dir):
    # Outside pytest's log capture: a logged warning would be a second line.
    src = Path(kgrelay.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "from kgrelay.cli import main; main()",
         "--config", "data/demo.cfg", "ask", "--stage2-only", "q",
         "--topic", "Narnia", "--depth", "2"],
        cwd=data_dir.parent, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "error: repair: UnknownEntity: unknown entity: 'Narnia'"
    ]


@pytest.mark.parametrize("command", [
    ("ask", "q", "--topic", "usa"),
    ("ask", "q", "--stage2-only", "--topic", "usa"),
])
def test_depth_below_one_is_a_usage_error(cfg_path, command):
    result = run("--config", cfg_path, *command, "--depth", "0")
    assert result.exit_code == 2
    assert "Invalid value for '--depth'" in result.stderr


@pytest.mark.parametrize("given", [
    ("--topic", "usa"),
    ("--depth", "2"),
    ("--topic", "usa", "--depth", "2"),
], ids=["topic", "depth", "both"])
def test_topic_or_depth_without_stage2_only_is_a_usage_error(cfg_path, monkeypatch, given):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a provider factory was built")

    monkeypatch.setattr(kgrelay.config, "provider_factory", unbuilt)
    result = run("--config", cfg_path, "ask", "who was president", *given)
    assert result.exit_code == 2
    assert result.stderr == "error: --topic and --depth need --stage2-only\n"
