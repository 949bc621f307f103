"""Command-line operator surface: ingest, query, evaluate, ablate, inspect-store.

Every run writes a manifest echoing the fully resolved configuration so the
experiment can be re-run identically. evaluate runs as the one-cell case of
ablate, so both rank every item through one path. Evaluation checkpoints per
item and resumes from the checkpoint after an interruption. Reports contain
no timestamps: a run against the replay backend is bit-reproducible.

Configuration precedence: command-line flags > --config file > defaults;
max_retries takes the backend JSON's value before its default.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import click

from molrag import __version__, bm25
from molrag.calibration import CalibrationFailure, calibrated_query, rank_examples
from molrag.fingerprint import FingerprintParams, MorganFingerprint
from molrag.llm import (
    BackendConfig,
    BackendError,
    ChatClient,
    FixtureParseError,
    HttpBackend,
    MissingFixture,
    ReplayBackend,
)
from molrag.metrics import (
    STATUS_FAILED,
    STATUS_OK,
    EvalPair,
    build_report,
    format_columns,
    render_table,
)
from molrag.prompt import PromptError, PromptTemplate, default_template, load_template
from molrag.smiles import is_valid_smiles
from molrag.store import (
    STRATEGY_KINDS,
    TASKS,
    MoleculeRecord,
    RetrievalStrategy,
    Store,
    StoreError,
    build_store,
    file_sha256,
    load_chebi_tsv,
    load_store,
    resolve_strategy,
    save_store,
)

DEFAULT_GRID_SHOTS = (0, 1, 2, 5, 10)
DEFAULT_GRID_STRATEGIES = ("random", "bm25", "morgan_fts")

@dataclass(frozen=True)
class RunConfig:
    store_path: str
    task: str
    n_shots: int
    strategy: RetrievalStrategy
    template_path: str | None
    out_path: str | None
    seed: int
    concurrency: int
    max_retries: int
    max_error_allowance: int
    replay_path: str | None
    backend: BackendConfig | None
    limit: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.n_shots <= 10:
            raise ValueError("n_shots must lie in 0..10")
        if self.concurrency < 1:
            raise ValueError("concurrency must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_error_allowance < 1:
            raise ValueError("max_error_allowance must be positive")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive")
        if self.replay_path is None and self.backend is None:
            raise ValueError("either a replay fixture or a backend config is required")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise click.ClickException(f"config file {path} must hold a JSON object")
    return data


# Settings with a default other than None; flags and the --config file override them.
_DEFAULTS = {"n_shots": 2, "seed": 0, "concurrency": 4, "max_error_allowance": 5}


def _make_run_config(cfg_file: str | None, flags: dict) -> RunConfig:
    """Layer the command's flags over the --config file over the defaults."""
    settings = {**_DEFAULTS, **_load_config_file(cfg_file)}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    task = settings.get("task")
    if task not in TASKS:
        raise click.ClickException(f"--task must be one of {', '.join(TASKS)}")
    if not settings.get("store"):
        raise click.ClickException("--store is required")
    try:
        backend = settings.get("backend")
        backend = BackendConfig(**_load_config_file(backend)) if backend else None
        return RunConfig(
            store_path=settings["store"],
            task=task,
            n_shots=settings["n_shots"],
            strategy=resolve_strategy(task, settings.get("strategy"), settings["seed"]),
            template_path=settings.get("template"),
            out_path=settings.get("out"),
            seed=settings["seed"],
            concurrency=settings["concurrency"],
            max_retries=settings.get("max_retries", (backend or BackendConfig()).max_retries),
            max_error_allowance=settings["max_error_allowance"],
            replay_path=settings.get("replay"),
            backend=backend,
            limit=settings.get("limit"),
        )
    # TypeError: a backend JSON key BackendConfig does not have, or a value of the wrong type
    except (ValueError, TypeError) as exc:
        raise click.ClickException(str(exc))


def _make_client(config: RunConfig) -> ChatClient:
    if config.replay_path:
        backend, backoff = ReplayBackend(config.replay_path), 0.0
    else:
        backend, backoff = HttpBackend(config.backend), config.backend.retry_backoff_base
    return ChatClient(backend, max_retries=config.max_retries, backoff_base=backoff)


def _load_prompt_template(config: RunConfig) -> PromptTemplate:
    if config.template_path:
        return load_template(config.template_path, config.task)
    return default_template(config.task)


def _store_params(store: Store) -> dict:
    """The store's size and split, and the one fingerprint and BM25 setting in use."""
    return {
        "record_count": len(store),
        "split": store.split,
        "fingerprint_params": dataclasses.asdict(FingerprintParams()),
        "bm25_params": {"k1": bm25.K1, "b": bm25.B},
    }


def _config_echo(config: RunConfig, store: Store, template: PromptTemplate) -> dict:
    return {
        "version": __version__,
        "task": config.task,
        "n_shots": config.n_shots,
        "strategy": {"kind": config.strategy.kind, "seed": config.strategy.seed},
        "seed": config.seed,
        "model": config.backend.model_name if config.backend else "replay",
        "backend_mode": "replay" if config.replay_path else "http",
        "calibration": {"max_error_allowance": config.max_error_allowance},
        "template": template.source,
        "concurrency": config.concurrency,
        "max_retries": config.max_retries,
        "limit": config.limit,
        "store": _store_params(store),
    }


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot create directory {path}: {exc.strerror}")


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


class _Group(click.Group):
    """Ends a command on a store, template, fatal backend or replay error with a one-line
    message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (StoreError, PromptError, BackendError, MissingFixture, FixtureParseError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="molrag")
def main() -> None:
    """Retrieval-augmented molecule-caption translation toolkit."""


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


@main.command("ingest")
@click.argument("tsv_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_store", type=click.Path(file_okay=False))
@click.option("--split", default="train", show_default=True)
def cmd_ingest(tsv_path, out_store, split) -> None:
    """Load a molecule-caption TSV, build indices and persist the store.

    Fingerprints are Morgan, radius 2, 2,048 bits; BM25 uses k1 1.5 and b 0.75.
    """
    records, fingerprints, report = load_chebi_tsv(tsv_path)
    save_store(build_store(records, fingerprints, split=split), out_store)
    click.echo(
        json.dumps(
            {
                "store": str(out_store),
                "rows": report.total_rows,
                "ingested": report.kept,
                "quarantined": [
                    {"line": q.line_number, "reason": q.reason} for q in report.quarantined
                ],
                "parse_success_rate": report.parse_success_rate,
            },
            indent=2,
            sort_keys=True,
        )
    )


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

_SHARED_OPTIONS = [
    click.option("--store", type=click.Path(), default=None, help="Store directory."),
    click.option("--task", type=click.Choice(list(TASKS)), default=None),
    click.option("--n-shots", type=int, default=None),
    click.option("--strategy", type=click.Choice([*STRATEGY_KINDS, "bm25"]), default=None),
    click.option("--seed", type=int, default=None),
    click.option("--backend", type=click.Path(), default=None, help="Backend config JSON."),
    click.option("--replay", type=click.Path(), default=None, help="Replay fixture JSONL."),
    click.option("--template", type=click.Path(), default=None),
    click.option("--out", type=click.Path(), default=None),
    click.option("--concurrency", type=int, default=None),
    click.option("--max-retries", type=int, default=None),
    click.option("--max-error-allowance", type=int, default=None),
    click.option("--config", "cfg_file", type=click.Path(), default=None),
]


def _shared_options(fn):
    for opt in reversed(_SHARED_OPTIONS):
        fn = opt(fn)
    return fn


@main.command("query")
@click.argument("user_input")
@_shared_options
def cmd_query(user_input, cfg_file, **flags) -> None:
    """Run one retrieval-prompt-calibrate round trip and print the result."""
    config = _make_run_config(cfg_file, flags)
    db = load_store(config.store_path)
    tmpl = _load_prompt_template(config)
    client = _make_client(config)

    examples = rank_examples(db, config.task, user_input, config.n_shots, config.strategy)
    try:
        result = calibrated_query(client, tmpl, user_input, examples, config.max_error_allowance)
    except CalibrationFailure as fail:
        transcript_path = Path(config.out_path or ".") / "calibration_failure.json"
        _make_dir(transcript_path.parent)
        _dump_json(
            transcript_path,
            {"attempts": fail.attempts, "last_raw_text": fail.last_raw_text},
        )
        click.echo(f"calibration failed; transcript at {transcript_path}", err=True)
        sys.exit(1)

    payload = {
        "input": user_input,
        "output": result.value,
        "examples_used": [rec.id for rec in examples],
        "query_count": result.query_count,
        "final_shot_count": result.final_shot_count,
        "repairs_applied": list(result.repairs_applied),
        "strategy": config.strategy.kind,
    }
    if TASKS[config.task].output_field == "smiles":
        payload["output_is_valid"] = is_valid_smiles(result.value)
    click.echo(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))


# ---------------------------------------------------------------------------
# evaluate and ablate
# ---------------------------------------------------------------------------


# (item index, query) -> the item's context examples, best first
Ranking = Callable[[int, str], list[MoleculeRecord]]


def _process_item(index, record, config, tmpl, client, stop, rank: Ranking) -> dict | None:
    """One checkpoint row, the item ranked by ``rank``; None when a fatal backend error
    has stopped the run."""
    if stop.is_set():
        return None
    spec = TASKS[config.task]
    query = getattr(record, spec.input_field)
    examples = rank(index, query)
    row = {
        "index": index,
        "id": record.id,
        "input": query,
        "reference": getattr(record, spec.output_field),
    }
    try:
        result = calibrated_query(client, tmpl, query, examples, config.max_error_allowance)
        row.update(
            prediction=result.value,
            status=STATUS_OK,
            query_count=result.query_count,
            final_shot_count=result.final_shot_count,
            repairs_applied=list(result.repairs_applied),
        )
    except CalibrationFailure as fail:
        row.update(
            prediction="",
            status=STATUS_FAILED,
            query_count=fail.query_count,
            final_shot_count=None,
            repairs_applied=[],
            attempts=fail.attempts,
            last_raw_text=fail.last_raw_text,
        )
    except (BackendError, MissingFixture):
        # every later item would fail the same way: start no more of them
        stop.set()
        raise
    return row


def _row_line(row: dict) -> str:
    return json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as sink:
        sink.writelines(map(_row_line, rows))


def _read_checkpoint(path: Path, items: int) -> dict[int, dict]:
    """The checkpoint rows by item index, an int in [0, items), each with a known
    status and a string prediction and reference. An unterminated last line that is
    not a row was torn by an interruption: it is dropped and run again."""
    done: dict[int, dict] = {}
    lines = path.read_bytes().split(b"\n") if path.exists() else []
    for number, line in enumerate(lines, 1):
        try:
            if line.strip():
                row = json.loads(line)  # a torn UTF-8 sequence is a ValueError too
                index = row["index"]
                if (type(index) is not int or not 0 <= index < items  # a bool is no index
                        or row["status"] not in (STATUS_OK, STATUS_FAILED)
                        or not isinstance(row["prediction"], str)
                        or not isinstance(row["reference"], str)):
                    raise ValueError(index)
                done[index] = row
        except (ValueError, KeyError, TypeError):
            if number < len(lines):
                raise click.ClickException(
                    f"{path}:{number} is not a checkpoint row; use another --out")
    return done


def _check_resumable(path: Path, manifest: dict) -> None:
    """Refuse to mix checkpoint rows written under another config, test file or store."""
    try:
        old = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise click.ClickException(
            f"{path.parent} holds checkpoint rows but no readable manifest.json ({exc}); "
            "use another --out"
        )
    differ = sorted(k for k in old.keys() | manifest.keys() if old.get(k) != manifest.get(k))
    if differ:
        raise click.ClickException(
            f"{path.parent} holds rows of a run with a different {', '.join(differ)}; "
            "use another --out"
        )


def run_evaluation(config: RunConfig, db: Store, tmpl: PromptTemplate,
                   records: list[MoleculeRecord], sources: dict, out_dir: Path,
                   rank: Ranking) -> dict:
    """Evaluate one cell over loaded test records; returns the report dict.

    Each item is ranked by ``rank`` in its worker. Rows already in
    ``out_dir/items.jsonl`` are kept, not re-queried, when the manifest there
    equals this run's.
    """
    client = _make_client(config)  # a bad replay fixture fails here, before any file is written
    _make_dir(out_dir)
    echo = _config_echo(config, db, tmpl)
    manifest = {**echo, **sources, "items": len(records)}
    items_path = out_dir / "items.jsonl"
    done = _read_checkpoint(items_path, len(records))
    if done:
        _check_resumable(out_dir / "manifest.json", manifest)
    _dump_json(out_dir / "manifest.json", manifest)
    _write_rows(items_path, done.values())  # no new row is glued onto a torn last line

    stop = threading.Event()
    todo = [i for i in range(len(records)) if i not in done]
    with open(items_path, "a", encoding="utf-8") as sink:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            futures = [
                pool.submit(_process_item, i, records[i], config, tmpl, client, stop, rank)
                for i in todo
            ]
            try:
                for future in as_completed(futures):
                    row = future.result()
                    if row is None:
                        continue
                    sink.write(_row_line(row))
                    sink.flush()
                    done[row["index"]] = row
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise

    rows = [done[i] for i in sorted(done)]
    _write_rows(items_path, rows)
    _write_rows(out_dir / "failures.jsonl", (row for row in rows if row["status"] == STATUS_FAILED))

    pairs = [
        EvalPair(prediction=row["prediction"], reference=row["reference"], status=row["status"])
        for row in rows
    ]
    report = build_report(pairs, config.task, echo)
    _dump_json(out_dir / "report.json", report)
    (out_dir / "report.txt").write_text(render_table(report), encoding="utf-8")
    return report


class _Rankings:
    """The rankings of one evaluate or ablate command: each (strategy, item) is ranked
    once, on the first cell that needs it, at the largest n any cell asks of that
    strategy, and a cell of n shots takes the first n. Retrieval is prefix-stable in
    n, so that slice is the ranking at n.

    Cells run one after another and a cell hands each item to one worker, so no
    two threads fill the same key. ``fingerprints[i]`` is the fingerprint of item
    i's molecule, which spares a Mol2Cap retrieval its parse.
    """

    def __init__(self, db: Store, task: str, cells: list[RunConfig],
                 fingerprints: list[MorganFingerprint]) -> None:
        self.db, self.task, self.fingerprints = db, task, fingerprints
        self.depth: dict[RetrievalStrategy, int] = {}
        for cell in cells:
            self.depth[cell.strategy] = max(self.depth.get(cell.strategy, 0), cell.n_shots)
        self.ranked: dict[tuple[RetrievalStrategy, int], list[MoleculeRecord]] = {}

    def for_cell(self, cell: RunConfig) -> Ranking:
        strategy, n = cell.strategy, cell.n_shots

        def rank(index: int, query: str) -> list[MoleculeRecord]:
            if n == 0:
                return []
            ranked = self.ranked.get((strategy, index))
            if ranked is None:
                ranked = self.ranked[strategy, index] = rank_examples(
                    self.db, self.task, query, self.depth[strategy], strategy,
                    query_fp=self.fingerprints[index])
            return ranked[:n]

        return rank


def _run_cells(base: RunConfig, test_tsv: str, cells: list[RunConfig]) -> list[dict]:
    """Run each cell of an evaluate or ablate command into its ``out_path``; returns
    their reports.

    The store, template and test records (the first ``base.limit`` kept rows, each
    with its fingerprint) are loaded once, before any file is written, and one
    :class:`_Rankings` serves every cell.
    """
    db = load_store(base.store_path)
    tmpl = _load_prompt_template(base)
    records, fingerprints, ingest_report = load_chebi_tsv(test_tsv, base.limit)
    if not records:
        raise click.ClickException(f"no usable rows in {test_tsv}")
    sources = {
        "test_file": str(test_tsv),
        "test_sha256": file_sha256(test_tsv),
        "quarantined_rows": len(ingest_report.quarantined),
        "store_path": str(base.store_path),
        "store_manifest_sha256": db.manifest_sha256,
    }
    rankings = _Rankings(db, base.task, cells, fingerprints)
    return [
        run_evaluation(cell, db, tmpl, records, sources, Path(cell.out_path),
                       rankings.for_cell(cell))
        for cell in cells
    ]


@main.command("evaluate")
@click.argument("test_tsv", type=click.Path(exists=True, dir_okay=False))
@click.option("--limit", type=int, default=None, help="Evaluate only the first N items.")
@_shared_options
def cmd_evaluate(test_tsv, cfg_file, **flags) -> None:
    """Evaluate the pipeline on a test split and write metric reports (one ablate cell)."""
    config = _make_run_config(cfg_file, flags)
    out_dir = Path(config.out_path or "molrag-eval")
    [report] = _run_cells(config, test_tsv, [dataclasses.replace(config, out_path=str(out_dir))])
    click.echo(render_table(report))
    click.echo(f"reports written to {out_dir}")


@main.command("ablate")
@click.argument("test_tsv", type=click.Path(exists=True, dir_okay=False))
@click.option("--grid-shots", default=",".join(str(n) for n in DEFAULT_GRID_SHOTS),
              show_default=True, help="Comma-separated n-shot values; repeats are dropped.")
@click.option("--grid-strategies", default=None,
              help="Comma-separated strategy names; repeats are dropped.  [default: those of "
                   f"{','.join(DEFAULT_GRID_STRATEGIES)} that apply to the task]")
@click.option("--limit", type=int, default=None)
@_shared_options
def cmd_ablate(test_tsv, grid_shots, grid_strategies, cfg_file, **flags) -> None:
    """Run the n-shot x strategy grid and write a consolidated comparison."""
    base = _make_run_config(cfg_file, flags)
    try:
        shots = list(dict.fromkeys(int(x) for x in grid_shots.split(",") if x.strip() != ""))
    except ValueError as exc:
        raise click.ClickException(f"bad grid spec: {exc}")
    if grid_strategies is None:
        kinds = TASKS[base.task].strategies
        strategies = [name for name in DEFAULT_GRID_STRATEGIES if name == "bm25" or name in kinds]
    else:
        strategies = list(dict.fromkeys(x.strip() for x in grid_strategies.split(",") if x.strip()))
    if not shots or not strategies:
        raise click.ClickException("--grid-shots and --grid-strategies must each name a value")

    out_dir = Path(base.out_path or "molrag-ablation")
    grid = []
    for n, name in product(shots, strategies):
        try:
            cell = dataclasses.replace(
                base,
                n_shots=n,
                strategy=resolve_strategy(base.task, name, base.seed),
                out_path=str(out_dir / f"cell_{base.task}_n{n}_{name}"),
            )
        except ValueError as exc:
            raise click.ClickException(str(exc))
        grid.append((n, name, cell))

    reports = _run_cells(base, test_tsv, [cell for _, _, cell in grid])
    comparison = {
        "task": base.task,
        "grid": {"n_shots": shots, "strategies": strategies},
        "cells": [
            {
                "n_shots": n,
                "strategy": name,
                "metrics": report["metrics"],
                "counts": report["counts"],
            }
            for (n, name, _), report in zip(grid, reports)
        ],
    }
    _dump_json(out_dir / "comparison.json", comparison)
    (out_dir / "comparison.txt").write_text(_comparison_table(comparison), encoding="utf-8")
    click.echo(_comparison_table(comparison))
    click.echo(f"ablation written to {out_dir}")


def _comparison_table(comparison: dict) -> str:
    cells = sorted(comparison["cells"], key=lambda c: (c["n_shots"], c["strategy"]))
    metric_names = sorted(cells[0]["metrics"])
    rows = [[f"{cell['n_shots']}-shot ({cell['strategy']})",
             *(f"{cell['metrics'][m]:.3f}" for m in metric_names)] for cell in cells]
    return "\n".join(format_columns(["method", *metric_names], rows)) + "\n"


# ---------------------------------------------------------------------------
# inspect-store
# ---------------------------------------------------------------------------


@main.command("inspect-store")
@click.option("--store", "store_path", type=click.Path(exists=True), required=True)
def cmd_inspect_store(store_path) -> None:
    """Print a persisted store's manifest and basic statistics."""
    db = load_store(store_path)
    payload = {
        **_store_params(db),
        "caption_vocabulary": len(db.caption_index.postings),
        # a caption query that holds one of these takes BM25's two-phase path
        "caption_terms_in_every_record": len(db.caption_index.universal),
        "smiles_trigram_vocabulary": len(db.smiles_index.postings),
        "mean_caption_tokens": db.caption_index.avgdl,
    }
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
