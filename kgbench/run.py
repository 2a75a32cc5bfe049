#!/usr/bin/env python3
"""Run one kgrelay benchmark workload and print its metrics.

    python3 kgbench/run.py --workload relay-mixed --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``
and keeps generated inputs, logs and spans under ``.kgbench_work/``.

The load is a closed loop of two client threads. Each takes the next
dataset record and calls ``evaluation.run_batch(g, [record], factory,
repair_cfg, prices)``, the call ``kgrelay eval`` makes per record, and
waits for it before taking another. With ``--trace 0`` the run measures
for ``--seconds`` and prints the end-to-end metrics. With ``--trace 1`` it
measures untraced for half the time, then with spans around the program's
public functions for the other half, and prints the per-layer metrics.

Every row is checked against the answers, route and relaxation tier the
generator planted, against the row of the same record answered again
after the measured phase, against the traced row, and against the rows an
earlier run with the same seed left in the checkout. A failed check counts
the question as failed; the last line then reports ``"correct": false``
and the command exits 1. It exits 2 when the program cannot be imported
and 3 when a wrapped name is missing or a declared span never fired.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".kgbench_work"

CLIENTS = 2  # the core count of the machine the bounds were set on
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S, and
# the median counts, so that a small graph's set-up time is steady too.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
VERIFY_RECORDS = 20
MODELS = {"specialized": "kgbench-specialized", "general": "kgbench-general"}
LATENCY_S = {"specialized": 0.020, "general": 0.040}

COMMON_SPANS = [
    "evaluation.run_batch", "pipeline.answer_question", "pipeline.run_stage1",
    "reasoning.parse", "reasoning.ground", "kg.ground_entity", "kg.reach",
    "execute.relax", "providers.llm",
]
REPAIR_SPANS = [
    "repair.repair", "repair.blueprint", "repair.expand", "repair.filter",
    "repair.select", "kg.outgoing_relations", "providers.embed",
]
QUERY_SPANS = ["execute.evaluate_query", "sparql.parse", "sparql.to_path"]

# Why each workload exists is in README.md.
WORKLOADS = {
    "relay-mixed": {"http": True, "spans": COMMON_SPANS + REPAIR_SPANS},
    "graph-heavy": {"http": False, "spans": COMMON_SPANS + QUERY_SPANS},
    "repair-heavy": {"http": False, "spans": COMMON_SPANS + REPAIR_SPANS},
}

E2E_UNITS = {
    "setup_s": "s", "questions_per_s": "q/s", "latency_p50_ms": "ms",
    "latency_p95_ms": "ms", "peak_rss_mb": "MB", "llm_calls_per_q": "count",
    "tokens_per_q": "count", "cost_per_10k_usd": "USD", "hits_at_1": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one kgrelay benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import kgrelay from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kgrelay").is_dir():
        raise ImportError(f"no kgrelay package under {src}")
    sys.path.insert(0, str(src))
    import kgrelay
    if Path(kgrelay.__file__).resolve().parent != (src / "kgrelay").resolve():
        raise ImportError(f"kgrelay imported from {kgrelay.__file__}, not {src}")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs in a child process, so the generator's
    memory never counts toward the peak resident memory measured here."""
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


@contextmanager
def stub_server(replies: Path, log_path: Path):
    """Start the loopback stub LLM server; yield its base URL; stop it."""
    args = [sys.executable, str(HERE / "stub_llm.py"), "--replies", str(replies)]
    for role, model in MODELS.items():
        args += ["--latency", f"{model}={LATENCY_S[role]}"]
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            line = proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"stub server did not start; see {log_path}")
            yield f"http://127.0.0.1:{int(line.split()[1])}/v1"
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def stub_requests(base_url: str) -> int:
    import requests
    return int(requests.get(f"{base_url}/stats", timeout=10).json()["requests"])


def current_rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def set_up(data: Path, base_url: str | None):
    """Load the graph and dataset and build the provider factory, several
    times; keep the last. Returns the pieces and the timings. Only the first
    load's memory growth counts, as later loads reuse freed memory."""
    from kgrelay import config
    from kgrelay.evaluation import load_dataset
    from kgrelay.kg import load_tsv
    from kgrelay.providers import TokenOverlapEmbedder
    from replies import FakeLlm, ReplyBook

    if base_url:
        os.environ.setdefault("KGRELAY_API_KEY", "kgbench-stub")
        settings = config.load_settings(overrides={
            "specialized_url": base_url, "specialized_model": MODELS["specialized"],
            "general_url": base_url, "general_model": MODELS["general"],
        })
    else:
        settings = config.load_settings()

    setup_s, load_s, bytes_per_triple = [], [], 0.0
    g = records = factory = None
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        rep = len(setup_s)
        g = records = factory = None
        gc.collect()
        rss0 = current_rss()
        t0 = time.perf_counter()
        g = load_tsv(data / "graph.tsv")
        t1 = time.perf_counter()
        if rep == 0:
            bytes_per_triple = (current_rss() - rss0) / len(g)
        records = load_dataset(data / "dataset.jsonl")
        if base_url:
            factory = config.provider_factory(settings)
        else:
            fake = FakeLlm(ReplyBook.load(data / "replies.json"))

            def factory(fake=fake):
                return fake, fake, TokenOverlapEmbedder()
        setup_s.append(time.perf_counter() - t0)
        load_s.append(t1 - t0)
    return {
        "g": g, "records": records, "factory": factory,
        "repair_cfg": config.repair_config(settings),
        "prices": config.price_table(settings),
        "setup_s": setup_s, "load_s": load_s, "bytes_per_triple": bytes_per_triple,
    }


class Phase:
    """What one closed-loop phase did: per attempted index, the latency and
    the row, report or error."""

    def __init__(self):
        self.results: dict[int, tuple] = {}
        self.elapsed = 0.0
        self.warning_lines = 0
        self.fallback_lines = 0

    @property
    def questions_per_s(self) -> float:
        return len(self.results) / self.elapsed


@contextmanager
def stderr_to(path: Path):
    """Send everything written to sys.stderr to a file. The program's log
    warnings go there, as they go to stderr under the CLI."""
    old = sys.stderr
    with open(path, "w", encoding="utf-8") as fh:
        sys.stderr = fh
        try:
            yield
        finally:
            sys.stderr = old


def log_counts(path: Path) -> tuple[int, int]:
    """Lines in a phase's stderr log, and how many are selection fallbacks."""
    lines = fallbacks = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            lines += 1
            fallbacks += "selection fallback" in line
    return lines, fallbacks


def answer(call, env: dict, record) -> tuple:
    """One record through run_batch: (seconds, row, report, error)."""
    t0 = time.perf_counter()
    try:
        report, rows = call(env["g"], [record], env["factory"], env["repair_cfg"], env["prices"])
        out = (rows[0], report, None)
    except Exception as exc:  # a question that escapes run_batch counts as failed
        out = (None, None, f"{type(exc).__name__}: {exc}")
    return (time.perf_counter() - t0, *out)


def run_phase(call, env: dict, seconds: float, log_path: Path, recorder=None) -> Phase:
    """Closed loop of CLIENTS threads over the dataset for `seconds`."""
    records = env["records"]
    phase = Phase()
    lock = threading.Lock()
    next_index = [0]

    def client():
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                idx = next_index[0]
                next_index[0] += 1
            if recorder is not None:
                recorder.set_question(idx)
            result = answer(call, env, records[idx % len(records)])
            with lock:
                phase.results[idx] = result

    with stderr_to(log_path):
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        start = time.perf_counter()
        deadline = start + seconds
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.elapsed = time.perf_counter() - start
    phase.warning_lines, phase.fallback_lines = log_counts(log_path)
    return phase


def load_expected(data: Path) -> dict[str, dict]:
    with open(data / "expected.jsonl", encoding="utf-8") as fh:
        return {e["id"]: e for e in map(json.loads, fh)}


class Checker:
    """Collects failed checks; each names the record and what went wrong."""

    def __init__(self, records, expected):
        self.records = records
        self.expected = expected
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def rows(self, phase: Phase, label: str) -> None:
        """Each row against the planted answer and the first row for its record."""
        first: dict[int, dict] = {}
        for idx in sorted(phase.results):
            _, row, _, error = phase.results[idx]
            rec = self.records[idx % len(self.records)]
            if error is not None:
                self.fail(f"{label} {rec.id}: raised {error}")
                continue
            exp = self.expected[rec.id]
            problem = None
            if row.get("error") or row.get("flagged"):
                problem = f"row flagged: {row.get('error')}"
            elif row["answers"] != exp["answers"]:
                problem = f"{len(row['answers'])} answers, expected {len(exp['answers'])}"
            elif row["route"] != exp["route"] or row["relaxation_tier"] != exp["tier"]:
                problem = (f"route {row['route']} tier {row['relaxation_tier']}, "
                           f"expected {exp['route']} tier {exp['tier']}")
            elif idx % len(self.records) in first and first[idx % len(self.records)] != row:
                problem = "row differs from the earlier row for this record"
            if problem:
                self.fail(f"{label} {rec.id}: {problem}")
            first.setdefault(idx % len(self.records), row)

    def same_rows(self, a: Phase, b: Phase, label: str) -> None:
        for idx in sorted(set(a.results) & set(b.results)):
            if a.results[idx][1] is not None and a.results[idx][1] != b.results[idx][1]:
                self.fail(f"{label} {self.records[idx % len(self.records)].id}: rows differ")


def check_digest(checker: Checker, workload: str, seed: int, rows: list) -> None:
    """Rows of the first records must match any earlier run with this seed."""
    path = WORK / "digests" / f"{workload}-{seed}.sha256"
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
    if path.exists():
        if path.read_text().strip() != digest:
            checker.fail(f"rows of the first {len(rows)} records differ from an earlier "
                         f"run with seed {seed}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest + "\n")


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(env: dict, phase: Phase, peak_rss_mb: float, expected: dict) -> dict:
    from kgrelay.evaluation import hits_at_1

    done = list(phase.results.values())
    latency = [r[0] for r in done]
    reports = [r[2] for r in done if r[2] is not None]
    records = env["records"]
    hits = [
        hits_at_1(row["answers"], expected[records[idx % len(records)].id]["answers"])
        if row is not None else 0
        for idx, (_, row, _, _) in phase.results.items()
    ]
    n = max(len(reports), 1)
    return {
        "setup_s": statistics.median(env["setup_s"]),
        "questions_per_s": phase.questions_per_s,
        "latency_p50_ms": statistics.median(latency) * 1e3,
        "latency_p95_ms": percentile(latency, 95) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "llm_calls_per_q": sum(r.avg_llm_calls for r in reports) / n,
        "tokens_per_q": sum(r.avg_tokens for r in reports) / n,
        "cost_per_10k_usd": sum(r.cost_usd for r in reports) / n * 10_000,
        "hits_at_1": sum(hits) / len(hits),
    }


def measured_properties(env: dict, phase: Phase, spans=None) -> dict:
    """The share of answered questions that has each planted property."""
    from kgrelay.reasoning import ground_reasoning_path, parse_reasoning_path

    g = env["g"]
    rows = [r[1] for r in phase.results.values() if r[1] is not None]
    walkable = [r for r in rows if r["route"] == "stage1_only"]
    repaired = [r for r in rows if r["route"] == "stage1_plus_2"]
    props: dict = {"questions": len(rows), "walkable": len(walkable) / max(len(rows), 1)}
    if walkable:
        props["tiers_of_walkable"] = {
            f"t{t}": sum(r["relaxation_tier"] == t for r in walkable) / len(walkable)
            for t in range(4)
        }
        sizes = []
        for r in walkable:
            rp = ground_reasoning_path(g, parse_reasoning_path(r["crp_final"]))
            sizes.append(len(g.neighbors(rp.topic_entity, rp.path[0])))
        props["frontier_min"] = min(sizes)
        props["frontier_ge_1000"] = sum(s >= 1000 for s in sizes) / len(sizes)
    if repaired:
        topics = [ground_reasoning_path(g, parse_reasoning_path(r["crp_final"])).topic_entity
                  for r in repaired]
        props["topic_relations_ge_100"] = sum(
            len(g.outgoing_relations([t])) >= 100 for t in topics) / len(topics)
        selections = sum(r["llm_calls"] - 2 for r in repaired)
        props["unparsable_reply"] = phase.fallback_lines / max(selections, 1)
        if spans is not None:
            ends = [v for _, v in spans_notes(spans, "repair.repair")]
            props["dead_end"] = sum(isinstance(v, int) and v > 0 for v in ends) / max(len(ends), 1)
    return props


def spans_notes(spans, name: str):
    nid = spans.names.index(name) if name in spans.names else -1
    return [(i, spans.notes.get(i)) for i, n in enumerate(spans.name) if n == nid]


def trace_targets():
    """(owner, attribute, span name, note) for every wrapped public name.

    Each name is wrapped where its caller looks it up; ``neighbors`` is too
    hot to wrap from outside.
    """
    from importlib import import_module

    from kgrelay.kg import KnowledgeGraph
    from kgrelay.providers import TokenOverlapEmbedder, TrackedLlm

    # The package re-exports the function repair under the module's name.
    evaluation, pipeline, repair = (
        import_module(f"kgrelay.{m}") for m in ("evaluation", "pipeline", "repair"))

    def dead_ends(args, kwargs, result):
        trace = kwargs.get("trace", args[7] if len(args) > 7 else None) or []
        return sum(1 for e in trace if e.get("event") == "dead_end")

    return [
        (evaluation, "answer_question", "pipeline.answer_question",
         lambda a, k, r: r.route.value),
        (evaluation, "evaluate_query", "execute.evaluate_query", None),
        (evaluation, "parse_sparql", "sparql.parse", None),
        (evaluation, "sparql_to_path", "sparql.to_path", None),
        (pipeline, "run_stage1", "pipeline.run_stage1", None),
        (pipeline, "parse_reasoning_path", "reasoning.parse", None),
        (pipeline, "ground_reasoning_path", "reasoning.ground", None),
        (pipeline, "repair", "repair.repair", dead_ends),
        (pipeline, "execute_with_relaxation", "execute.relax",
         lambda a, k, r: (r.relaxation_tier, len(r.answers))),
        (repair, "generate_blueprint", "repair.blueprint", None),
        (repair, "expand_beam", "repair.expand", lambda a, k, r: len(r)),
        (repair, "filter_paths", "repair.filter", lambda a, k, r: (len(a[1]), len(r))),
        (repair, "select_paths", "repair.select", None),
        (KnowledgeGraph, "reach", "kg.reach", None),
        (KnowledgeGraph, "outgoing_relations", "kg.outgoing_relations", None),
        (KnowledgeGraph, "ground_entity", "kg.ground_entity", None),
        (TrackedLlm, "complete", "providers.llm", lambda a, k, r: a[0].role),
        (TokenOverlapEmbedder, "similarity", "providers.embed", None),
    ]


def layer_metrics(spans, http_requests: int | None) -> tuple[dict, dict]:
    """Per-layer metrics from the traced phase, per question unless the
    name says otherwise; also the self time of each layer in ns."""
    names = spans.names
    own = spans.self_times()
    count: Counter = Counter()
    total: defaultdict = defaultdict(int)
    self_ns: defaultdict = defaultdict(int)
    for i, nid in enumerate(spans.name):
        name = names[nid]
        count[name] += 1
        total[name] += spans.end[i] - spans.start[i]
        self_ns[name] += own[i]

    def dur(i):
        return spans.end[i] - spans.start[i]

    def name_at(i):
        return names[spans.name[i]]

    q = max(count["evaluation.run_batch"], 1)
    skeleton = gold_parse = 0
    for i in range(len(spans)):
        n = name_at(i)
        if n == "kg.reach" and spans.parent[i] >= 0 \
                and name_at(spans.parent[i]) == "pipeline.answer_question":
            skeleton += dur(i)
        elif n == "execute.evaluate_query" and i > 0 and name_at(i - 1) == "sparql.parse" \
                and spans.parent[i - 1] == spans.parent[i]:
            gold_parse += dur(i - 1)

    relax = [v for _, v in spans_notes(spans, "execute.relax")]
    tiers = Counter(t for t, _ in relax)
    expand = [v for _, v in spans_notes(spans, "repair.expand")]
    filt = [v for _, v in spans_notes(spans, "repair.filter")]
    repairs = [v for _, v in spans_notes(spans, "repair.repair")]
    routes = Counter(v for _, v in spans_notes(spans, "pipeline.answer_question"))
    llm = spans_notes(spans, "providers.llm")
    wait = Counter()
    overhead = 0.0
    for i, role in llm:
        wait[role] += dur(i)
        overhead += dur(i) / 1e9 - LATENCY_S.get(role, 0.0)

    def us(ns):
        return ns / q / 1e3

    m = {
        "kg.reach.calls": (count["kg.reach"] / q, "count"),
        "kg.reach.self_us": (us(self_ns["kg.reach"]), "us"),
        "kg.outgoing_relations.calls": (count["kg.outgoing_relations"] / q, "count"),
        "kg.outgoing_relations.self_us": (us(self_ns["kg.outgoing_relations"]), "us"),
        "kg.ground_entity.calls": (count["kg.ground_entity"] / q, "count"),
        "reasoning.parse.self_us": (us(self_ns["reasoning.parse"]), "us"),
        "reasoning.ground.self_us": (us(self_ns["reasoning.ground"]), "us"),
        "sparql.parse.self_us": (us(self_ns["sparql.parse"]), "us"),
        "sparql.to_path.self_us": (us(self_ns["sparql.to_path"]), "us"),
        "execute.relax.us": (us(total["execute.relax"]), "us"),
        "execute.walks_per_answer": (
            sum(t + 1 for t, _ in relax) / max(len(relax), 1), "walks"),
        **{f"execute.tier_share.t{t}": (tiers[t] / max(len(relax), 1), "share")
           for t in range(4)},
        "execute.answers_per_q": (sum(a for _, a in relax) / q, "count"),
        "execute.evaluate_query.us": (us(total["execute.evaluate_query"]), "us"),
        "repair.blueprint.self_us": (us(self_ns["repair.blueprint"]), "us"),
        "repair.expand.self_us": (us(self_ns["repair.expand"]), "us"),
        "repair.filter.self_us": (us(self_ns["repair.filter"]), "us"),
        "repair.select.self_us": (us(self_ns["repair.select"]), "us"),
        "repair.candidates_per_level": (sum(expand) / max(len(expand), 1), "count"),
        "repair.kept_ratio": (
            sum(o for _, o in filt) / max(sum(i for i, _ in filt), 1), "share"),
        "repair.failed_share": (
            sum(isinstance(v, tuple) for v in repairs) / max(len(repairs), 1), "share"),
        "providers.llm.wait_ms": (sum(wait.values()) / q / 1e6, "ms"),
        "providers.llm.wait_ms.specialized": (wait["specialized"] / q / 1e6, "ms"),
        "providers.llm.wait_ms.general": (wait["general"] / q / 1e6, "ms"),
        "providers.http.overhead_ms_per_call": (
            overhead / len(llm) * 1e3 if http_requests is not None and llm else 0.0, "ms"),
        "providers.http.requests_per_call": (
            http_requests / len(llm) if http_requests is not None and llm else 0.0, "count"),
        "providers.embed.calls": (count["providers.embed"] / q, "count"),
        "providers.embed.self_us": (us(self_ns["providers.embed"]), "us"),
        "pipeline.self_us": (
            us(self_ns["pipeline.answer_question"] + self_ns["pipeline.run_stage1"]), "us"),
        "pipeline.skeleton_check_us": (us(skeleton), "us"),
        "pipeline.escalation_share": (routes["stage1_plus_2"] / max(sum(routes.values()), 1),
                                      "share"),
        "pipeline.fallback_share": (
            routes["repair_failed_fallback"] / max(sum(routes.values()), 1), "share"),
        "evaluation.self_us": (us(self_ns["evaluation.run_batch"]), "us"),
        "evaluation.gold_us": (us(total["execute.evaluate_query"] + gold_parse), "us"),
    }
    layers: defaultdict = defaultdict(int)
    for name, ns in self_ns.items():
        # Span names start with their layer; the LLM and the embedder count apart.
        layers[name if name.startswith("providers.") else name.split(".")[0]] += ns
    layers["question"] = total["evaluation.run_batch"]
    return m, dict(layers)


def stress_check(workload: str, layers: dict, metrics: dict, traced: Phase) -> str:
    """Whether the traced run shows the workload stresses its layer."""
    if workload == "relay-mixed":
        mean_ms = statistics.mean(r[0] for r in traced.results.values()) * 1e3
        share = metrics["providers.llm.wait_ms"][0] / mean_ms
        return f"LLM wait is {share:.1%} of mean latency (want >= 80%)"
    if workload == "graph-heavy":
        graph = sum(layers.get(k, 0) for k in ("kg", "execute", "sparql", "evaluation"))
        share = graph / layers["question"]
        return f"kg+execute+sparql+evaluation self time is {share:.1%} of question time (want > 50%)"
    own = {k: v for k, v in layers.items() if k != "question"}
    own["repair+embed"] = own.pop("repair", 0) + own.pop("providers.embed", 0)
    top = max(own, key=own.get)
    return f"largest layer is {top} ({own[top] / layers['question']:.1%} of question time)"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from kgrelay import evaluation
    from tracer import MissingName, SpanRecorder

    spec = WORKLOADS[args.workload]
    work = WORK / args.workload
    data = work / "data"
    manifest = generate(args.workload, args.seed, data)
    os.environ["NO_PROXY"] = ",".join(
        filter(None, [os.environ.get("NO_PROXY"), "127.0.0.1", "localhost"]))

    with maybe_stub(spec["http"], data, work) as base_url:
        env = set_up(data, base_url)
        records, expected = env["records"], load_expected(data)
        checker = Checker(records, expected)
        plain_seconds = args.seconds / 2 if args.trace else args.seconds

        plain = run_phase(evaluation.run_batch, env, plain_seconds, work / "stderr-plain.log")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker.rows(plain, "measured")

        traced = spans = None
        if args.trace:
            recorder = SpanRecorder()
            before = stub_requests(base_url) if base_url else None
            try:
                with recorder.installed(trace_targets()):
                    call = recorder.wrap("evaluation.run_batch", evaluation.run_batch)
                    traced = run_phase(call, env, args.seconds / 2, work / "stderr-traced.log",
                                       recorder)
            except MissingName as exc:
                print(f"error: wrapped name no longer exists: {exc}", file=sys.stderr)
                return 3
            http_requests = stub_requests(base_url) - before if base_url else None
            spans = recorder.spans()
            spans.write(work / "spans.bin")
            fired = {spans.names[nid] for nid in set(spans.name)}
            silent = [n for n in spec["spans"] if n not in fired]
            if silent:
                print(f"error: declared spans never fired: {', '.join(silent)}", file=sys.stderr)
                return 3
            checker.rows(traced, "traced")
            checker.same_rows(plain, traced, "traced vs untraced")

        again = Phase()
        with stderr_to(work / "stderr-verify.log"):
            for idx in range(min(VERIFY_RECORDS, len(records))):
                again.results[idx] = answer(evaluation.run_batch, env, records[idx])
        checker.same_rows(plain, again, "answered again")
        check_digest(checker, args.workload, args.seed,
                     [again.results[i][1] for i in sorted(again.results)])

    attempted = len(plain.results) + len(again.results) + (len(traced.results) if traced else 0)
    failed = len(checker.failures)
    for message in checker.failures[:20]:
        print(f"check failed: {message}")
    print(f"workload {args.workload} seed {args.seed} clients {CLIENTS} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("planted: " + json.dumps(manifest["planted"], sort_keys=True))
    print("measured: " + json.dumps(measured_properties(env, traced or plain, spans),
                                    sort_keys=True))
    if args.trace:
        metrics, layers = layer_metrics(spans, http_requests)
        metrics["kg.load_us_per_triple"] = (
            statistics.median(env["load_s"]) / len(env["g"]) * 1e6, "us")
        metrics["kg.bytes_per_triple"] = (env["bytes_per_triple"], "B")
        metrics["trace.overhead_share"] = (
            1 - traced.questions_per_s / plain.questions_per_s, "share")
        metrics["log.warning_lines_per_q"] = (
            plain.warning_lines / max(len(plain.results), 1), "count")
        metrics["error_rate"] = (failed / attempted, "share")
        print("stress: " + stress_check(args.workload, layers, metrics, traced))
        print(f"spans: {len(spans)} over {len(traced.results)} questions")
    else:
        values = end_to_end(env, plain, peak_rss_mb, expected)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
        print(f"latency samples: {len(plain.results)}; set-up runs: {len(env['setup_s'])}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


@contextmanager
def maybe_stub(http: bool, data: Path, work: Path):
    """The stub server's base URL for workloads that talk HTTP, else None."""
    if not http:
        yield None
        return
    with stub_server(data / "replies.json", work / "stub.log") as url:
        yield url


if __name__ == "__main__":
    sys.exit(main())
