"""Command-line interface.

Exit codes: 0 success, 1 partial failures (a record or block failed but
the run completed), 2 configuration or input/output problems.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import config as cfg
from .errors import ConfigError, KgRelayError
from .evaluation import DatasetRecord, load_dataset, run_batch, write_results, write_summary
from .kg import load_tsv
from .reasoning import (
    EntityMatch,
    ground_reasoning_path,
    parse_reasoning_path,
    serialize_reasoning_path,
)
from .sparql import (
    parse_sparql,
    path_to_sparql,
    render_sparql,
    round_trip_check,
    sparql_to_path,
)


def _die(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_graph(settings):
    if not settings.kg:
        _die("no knowledge graph configured (use --kg or the kg setting)", 2)
    try:
        return load_tsv(settings.kg)
    except (OSError, UnicodeDecodeError, KgRelayError) as exc:
        _die(f"cannot load graph: {exc}", 2)


@click.group()
@click.option("--config", "config_path", default=None, metavar="FILE",
              help="Flat key = value config file.")
@click.option("--kg", "kg_path", default=None, metavar="TSV",
              help="Knowledge graph TSV file.")
@click.option("--workers", type=int, default=None, help="Worker threads for eval.")
@click.option("--trace", is_flag=True, help="Emit per-step trace events.")
@click.pass_context
def main(ctx, config_path, kg_path, workers, trace):
    """Knowledge-graph question answering with path repair."""
    overrides = {}
    if kg_path is not None:
        overrides["kg"] = kg_path
    if workers is not None:
        overrides["workers"] = workers
    try:
        settings = cfg.load_settings(config_path, overrides)
    except ConfigError as exc:
        _die(str(exc), 2)
    ctx.obj = {"settings": settings, "trace": trace}


@main.command("load-check")
@click.pass_context
def load_check(ctx):
    """Load the graph and print basic counts."""
    g = _load_graph(ctx.obj["settings"])
    click.echo(f"triples    {len(g)}")
    click.echo(f"entities   {len(g.entities)}")
    click.echo(f"relations  {len(g.relations)}")
    click.echo(f"aliases    {len(g.aliases)}")


@main.command()
@click.argument("question")
@click.option("--stage2-only", is_flag=True,
              help="Skip generation; search the graph directly.")
@click.option("--topic", default=None, help="Topic entity for --stage2-only.")
@click.option("--depth", type=click.IntRange(min=1), default=None,
              help="Search depth for --stage2-only.")
@click.pass_context
def ask(ctx, question, stage2_only, topic, depth):
    """Answer one question and print the row eval would write for it."""
    if stage2_only and (topic is None or depth is None):
        _die("--stage2-only needs --topic and --depth", 2)
    if not stage2_only and (topic is not None or depth is not None):
        _die("--topic and --depth need --stage2-only", 2)
    settings = ctx.obj["settings"]
    g = _load_graph(settings)
    try:
        repair_cfg = cfg.repair_config(settings)
        factory = cfg.provider_factory(settings, stage2_only)
    except KgRelayError as exc:
        _die(str(exc), 2)

    _, (row,) = run_batch(
        g, [DatasetRecord("ask", question, topic=topic, depth=depth)], factory, repair_cfg,
        relax=settings.relaxation, include_trace=ctx.obj["trace"],
    )
    for event in row.get("trace", ()):
        click.echo(json.dumps(event, ensure_ascii=False), err=True)
    click.echo(f"route: {row['route']}")
    click.echo(f"relaxation_tier: {row['relaxation_tier']}")
    if row["crp_final"] is not None:
        click.echo("path:")
        for line in row["crp_final"].splitlines():
            click.echo(f"  {line}")
    click.echo(f"answers ({len(row['answers'])}):")
    for text in row["answers"]:
        click.echo(f"  {text}")
    if "error" in row:
        click.echo(f"error: {row['error']}", err=True)
        sys.exit(1)


@main.command("eval")
@click.argument("dataset", type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Directory for results.jsonl and summary.json.")
@click.option("--stage2-only", is_flag=True, help="Repair-only ablation run.")
@click.pass_context
def eval_cmd(ctx, dataset, out_dir, stage2_only):
    """Run the pipeline over a JSONL dataset and score it."""
    settings = ctx.obj["settings"]
    g = _load_graph(settings)
    try:
        records = load_dataset(dataset)
        repair_cfg = cfg.repair_config(settings)
        factory = cfg.provider_factory(settings, stage2_only)
    except KgRelayError as exc:
        _die(str(exc), 2)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _die(f"cannot write output: {exc}", 2)

    report, rows = run_batch(
        g, records, factory, repair_cfg, cfg.price_table(settings),
        workers=settings.workers, relax=settings.relaxation, include_trace=ctx.obj["trace"],
    )
    try:
        write_results(out / "results.jsonl", rows)
        write_summary(out / "summary.json", report)
    except OSError as exc:
        _die(f"cannot write output: {exc}", 2)
    click.echo(report.format_table())
    click.echo(f"\nwrote {out / 'results.jsonl'} and {out / 'summary.json'}")
    sys.exit(1 if report.flagged else 0)


def _read_blocks(path: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        _die(f"cannot read {path}: {exc}", 2)
    kept = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    return [b.strip() for b in re.split(r"\n\s*\n", kept) if b.strip()]


@main.command()
@click.argument("input_file", type=click.Path())
@click.option("--direction", type=click.Choice(
    ["path-to-query", "query-to-path", "roundtrip"]), required=True)
@click.pass_context
def convert(ctx, input_file, direction):
    """Convert between reasoning paths and queries.

    The input file holds blocks separated by blank lines; lines starting
    with # are comments. path-to-query grounds topic surfaces through the
    configured graph when one is given, else treats them as symbols.
    """
    settings = ctx.obj["settings"]
    blocks = _read_blocks(input_file)
    if not blocks:
        _die("no blocks in input", 2)
    g = None
    if direction == "path-to-query" and settings.kg:
        g = _load_graph(settings)

    failures = 0
    for idx, block in enumerate(blocks, start=1):
        try:
            if direction == "path-to-query":
                rp = parse_reasoning_path(block)
                if g is not None:
                    rp = ground_reasoning_path(g, rp)
                else:
                    fixed = tuple(
                        replace(c, value=replace(c.value, entity=c.value.surface))
                        if isinstance(c.value, EntityMatch) and c.value.entity is None
                        else c
                        for c in rp.constraints
                    )
                    rp = replace(rp, topic_entity=rp.topic_surface, constraints=fixed)
                click.echo(render_sparql(path_to_sparql(rp)))
                click.echo("")
            elif direction == "query-to-path":
                rp = sparql_to_path(parse_sparql(block))
                click.echo(serialize_reasoning_path(rp))
                click.echo("")
            else:
                error = round_trip_check(block)
                if error is None:
                    click.echo(f"block {idx}: ok")
                else:
                    failures += 1
                    click.echo(f"block {idx}: FAIL ({error})")
        except KgRelayError as exc:
            failures += 1
            click.echo(f"block {idx}: {type(exc).__name__}: {exc}", err=True)
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
