"""Command-line operator surface: ingest, query, evaluate, ablate, inspect-store.

Every run writes a manifest echoing the fully resolved configuration so the
experiment can be re-run identically. evaluate runs as the one-cell case of
ablate, and query, evaluate and ablate rank every item through one path, which
each hands a Mol2Cap query's fingerprint. evaluate and ablate tell
:func:`molrag.store.ranked_ahead` which items each cell runs and take each
cell's examples from it, while their threads drive the backend through the
command's one chat client. Evaluation checkpoints per item and resumes from the
checkpoint after an interruption, ranking only the items it still runs. Reports
contain no timestamps: a run against the replay backend is bit-reproducible.

Configuration precedence: command-line flags > --config file > defaults;
max_retries takes the backend JSON's value before its default.

The command line is parsed by ``argparse``, so the package needs nothing beyond
the standard library. A command loads only the code it runs: ``ingest``,
``inspect-store``, ``--help`` and ``--version`` load the store's modules and
:mod:`molrag.metrics` (whose ``build_report`` is bound here), while
:mod:`molrag.calibration`, :mod:`molrag.llm` and :mod:`molrag.prompt` are
imported inside the functions of ``query``, ``evaluate`` and ``ablate`` that use
them. The known errors share one base, :class:`molrag.errors.MolragError`, so
``main`` maps them to an ``Error:`` line without importing their modules.

Exit codes: 0 on success; 1 for a one-line ``Error: <message>`` on stderr (a
backend outage among them, after which a rerun resumes), a calibration failure
of ``query``, Ctrl-C (``Aborted!``) or a closed stdout pipe (no message); 2 for
a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from molrag import __version__, bm25
from molrag.errors import MolragError
from molrag.fingerprint import FingerprintParams, morgan_fingerprint
from molrag.metrics import (
    STATUS_FAILED,
    STATUS_OK,
    EvalPair,
    build_report,
    format_columns,
    render_table,
)
from molrag.smiles import SmilesError, is_valid_smiles, parse_smiles
from molrag.store import (
    STRATEGY_KINDS,
    TASKS,
    MoleculeRecord,
    RetrievalStrategy,
    Store,
    build_store,
    file_sha256,
    load_chebi_tsv,
    load_store,
    ranked_ahead,
    resolve_strategy,
    save_store,
)

if TYPE_CHECKING:  # the run path imports these where it needs them
    from molrag.llm import BackendConfig
    from molrag.prompt import PromptTemplate

DEFAULT_GRID_SHOTS = (0, 1, 2, 5, 10)
DEFAULT_GRID_STRATEGIES = ("random", "bm25", "morgan_fts")


class CliError(MolragError):
    """A setting, path or checkpoint the command refuses; printed as one ``Error:`` line."""


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
        from molrag.llm import check_field_types

        check_field_types(self)
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
        if not self.replay_path and self.backend is None:  # "" names no fixture
            raise ValueError("either a replay fixture or a backend config is required")


def _load_settings(path: str | None, what: str, known: frozenset[str]) -> dict:
    """The JSON object of the ``what`` file at ``path`` ({} when there is none), each of
    whose keys must be in ``known``."""
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError(f"{what} {path} must hold a JSON object")
    unknown = sorted(data.keys() - known)
    if unknown:
        raise CliError(f"{what} {path} holds unknown setting(s): {', '.join(unknown)}")
    return data


# Settings with a default other than None; flags and the --config file override them.
_DEFAULTS = {"n_shots": 2, "seed": 0, "concurrency": 4, "max_error_allowance": 5}
# The keys a --config file may hold
_FILE_SETTINGS = frozenset({
    "store", "task", "n_shots", "strategy", "seed", "backend", "replay", "template", "out",
    "concurrency", "max_retries", "max_error_allowance", "limit"})


def _make_run_config(cfg_file: str | None, flags: dict) -> RunConfig:
    """Layer the command's flags over the --config file over the defaults."""
    from molrag.llm import BackendConfig

    settings = {**_DEFAULTS, **_load_settings(cfg_file, "config file", _FILE_SETTINGS)}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    task = settings.get("task")
    if not isinstance(task, str) or task not in TASKS:
        raise CliError(f"--task must be one of {', '.join(TASKS)}")
    if not settings.get("store"):
        raise CliError("--store is required")
    for key in ("strategy", "backend"):  # the two settings that are no RunConfig field
        if not isinstance(settings.get(key), (str, type(None))):
            raise CliError(f"{key} must be a string, not {settings[key]!r}")
    backend = settings.get("backend")
    backend_keys = frozenset(spec.name for spec in dataclasses.fields(BackendConfig))
    backend_settings = _load_settings(backend, "backend file", backend_keys)
    try:
        backend = BackendConfig(**backend_settings) if backend else None
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
    except ValueError as exc:
        raise CliError(str(exc))


@contextmanager
def _make_client(config: RunConfig):
    """The command's one :class:`ChatClient`, which every thread and cell shares: over
    a replay of the fixture, read here, or over an :class:`HttpBackend` that is closed
    when the block is left."""
    from molrag.llm import ChatClient, HttpBackend, ReplayBackend

    if config.replay_path:
        backend, backoff = nullcontext(ReplayBackend(config.replay_path)), 0.0
    else:
        backend, backoff = HttpBackend(config.backend), config.backend.retry_backoff_base
    with backend as backend:
        yield ChatClient(backend, max_retries=config.max_retries, backoff_base=backoff)


def _load_prompt_template(config: RunConfig) -> PromptTemplate:
    from molrag.prompt import default_template, load_template

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
        raise CliError(f"cannot create directory {path}: {exc.strerror}")


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> None:
    """Load a molecule-caption TSV, build indices and persist the store.

    Fingerprints are Morgan, radius 2, 2,048 bits; BM25 uses k1 1.5 and b 0.75.
    """
    records, fingerprints, report = load_chebi_tsv(args.tsv_path)
    save_store(build_store(records, fingerprints, split=args.split), args.out_store)
    print(
        json.dumps(
            {
                "store": args.out_store,
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


def _cmd_query(args: argparse.Namespace) -> None:
    """Run one retrieval-prompt-calibrate round trip and print the result."""
    from molrag.calibration import CalibrationFailure, calibrated_query, rank_examples

    config = _make_run_config(args.config, vars(args))
    user_input = args.user_input
    db = load_store(config.store_path)
    tmpl = _load_prompt_template(config)

    query_fp = None
    if config.task == "mol2cap":
        try:
            query_fp = morgan_fingerprint(parse_smiles(user_input))
        except SmilesError as exc:
            raise CliError(f"query SMILES does not parse: {exc}") from exc
    examples = rank_examples(db, config.task, user_input, config.n_shots, config.strategy,
                             query_fp=query_fp)
    try:
        with _make_client(config) as client:
            result = calibrated_query(client, tmpl, user_input, examples,
                                      config.max_error_allowance)
    except CalibrationFailure as fail:
        transcript_path = Path(config.out_path or ".") / "calibration_failure.json"
        _make_dir(transcript_path.parent)
        _dump_json(
            transcript_path,
            {"attempts": fail.attempts, "last_raw_text": fail.last_raw_text},
        )
        print(f"calibration failed; transcript at {transcript_path}", file=sys.stderr)
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
    print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))


# ---------------------------------------------------------------------------
# evaluate and ablate
# ---------------------------------------------------------------------------


# item index -> the item's context examples, best first; None when the run stopped
# before the item was ranked
Ranking = Callable[[int], list[MoleculeRecord] | None]


def _process_item(index, record, config, tmpl, client, stop, rank: Ranking) -> dict | None:
    """One checkpoint row, the item ranked by ``rank``; None when a fatal error has
    stopped the run."""
    from molrag.calibration import CalibrationFailure, calibrated_query
    from molrag.llm import BackendError, ReplayError

    if stop.is_set():
        return None
    spec = TASKS[config.task]
    query = getattr(record, spec.input_field)
    examples = rank(index)
    if examples is None:  # the run stopped before the item was ranked
        return None
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
    except (BackendError, ReplayError):
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
                raise CliError(
                    f"{path}:{number} is not a checkpoint row; use another --out")
    return done


def _check_resumable(path: Path, manifest: dict) -> None:
    """Refuse to mix checkpoint rows written under another config, test file or store."""
    try:
        old = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliError(
            f"{path.parent} holds checkpoint rows but no readable manifest.json ({exc}); "
            "use another --out"
        )
    differ = sorted(k for k in old.keys() | manifest.keys() if old.get(k) != manifest.get(k))
    if differ:
        raise CliError(
            f"{path.parent} holds rows of a run with a different {', '.join(differ)}; "
            "use another --out"
        )


def run_evaluation(config: RunConfig, echo: dict, done: dict[int, dict],
                   futures: list) -> dict:
    """Finish one cell of :func:`_run_cells` into ``config.out_path``: rewrite
    ``items.jsonl`` from ``done``, the rows :func:`_read_checkpoint` read there, and
    append each new row as its future ends; then write the report, whose config is
    ``echo``. Returns the report dict."""
    from concurrent.futures import as_completed

    out_dir = Path(config.out_path)
    items_path = out_dir / "items.jsonl"
    with open(items_path, "w", encoding="utf-8") as sink:
        # the kept rows first, so that no new row is glued onto a torn last line
        sink.writelines(map(_row_line, done.values()))
        sink.flush()

        def keep(row: dict | None) -> None:
            if row is not None and row["index"] not in done:
                sink.write(_row_line(row))
                sink.flush()
                done[row["index"]] = row

        try:
            for future in as_completed(futures):
                keep(future.result())
        except BaseException:
            # as_completed yields the futures already done in no set order: keep the
            # rows of every item that finished before the error, not only those seen
            for future in futures:
                if future.done() and not future.cancelled() and future.exception() is None:
                    keep(future.result())
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


def _run_cells(base: RunConfig, test_tsv: str, cells: list[RunConfig]) -> list[dict]:
    """Run each cell of an evaluate or ablate command into its ``out_path``; returns
    their reports.

    The store, template and test records (the first ``base.limit`` kept rows, each
    with its fingerprint) are loaded once, before any file is written. Before any
    thread starts, each cell's checkpoint is read to find the items it will run, and
    refused when the manifest beside it is not this run's. Each cell takes its
    examples from :func:`~molrag.store.ranked_ahead`, told which items each cell
    runs. Every cell's directory and manifest are written before any item is sent, so
    a directory that cannot be made costs no backend call. Then every cell's items
    are queued, cells in grid order and each cell's items in index order, on one
    thread pool of ``base.concurrency`` threads, started once the ranking workers
    have forked. They send through the command's one :class:`ChatClient`, so over
    HTTP each thread keeps its connection from the first cell to the last; they are
    closed when the command ends. :func:`run_evaluation` then finishes the cells in
    order while the threads run on into later cells. A fatal error stops the
    command: no item starts after it.
    """
    from concurrent.futures import ThreadPoolExecutor

    db = load_store(base.store_path)
    tmpl = _load_prompt_template(base)
    records, fingerprints, ingest_report = load_chebi_tsv(test_tsv, base.limit)
    if not records:
        raise CliError(f"no usable rows in {test_tsv}")
    sources = {
        "test_file": str(test_tsv),
        "test_sha256": file_sha256(test_tsv),
        "quarantined_rows": len(ingest_report.quarantined),
        "store_path": str(base.store_path),
        "store_manifest_sha256": db.manifest_sha256,
    }
    done = [_read_checkpoint(Path(cell.out_path) / "items.jsonl", len(records))
            for cell in cells]
    echoes = [_config_echo(cell, db, tmpl) for cell in cells]
    manifests = [{**echo, **sources, "items": len(records)} for echo in echoes]
    for cell, rows, manifest in zip(cells, done, manifests):
        if rows:
            _check_resumable(Path(cell.out_path) / "manifest.json", manifest)
    todo = [[i for i in range(len(records)) if i not in rows] for rows in done]
    needs = [(cell.strategy, cell.n_shots, items) for cell, items in zip(cells, todo)]
    # a bad replay fixture is refused here, before any file is written or worker forks
    with _make_client(base) as client, \
            ranked_ahead(db, base.task, records, fingerprints, needs) as (examples, stop), \
            ThreadPoolExecutor(max_workers=base.concurrency) as pool:
        futures: list[list] = []
        try:
            for cell, manifest in zip(cells, manifests):
                _make_dir(Path(cell.out_path))
                _dump_json(Path(cell.out_path) / "manifest.json", manifest)
            for cell, items in zip(cells, todo):
                rank = partial(examples, cell.strategy, cell.n_shots)
                futures.append([pool.submit(_process_item, i, records[i], cell, tmpl, client,
                                            stop, rank) for i in items])
            return [run_evaluation(cell, echo, rows, cell_futures)
                    for cell, echo, rows, cell_futures in zip(cells, echoes, done, futures)]
        except BaseException:
            stop.set()
            for future in chain.from_iterable(futures):
                future.cancel()
            raise


def _cmd_evaluate(args: argparse.Namespace) -> None:
    """Evaluate the pipeline on a test split and write metric reports (one ablate cell)."""
    config = _make_run_config(args.config, vars(args))
    out_dir = Path(config.out_path or "molrag-eval")
    cell = dataclasses.replace(config, out_path=str(out_dir))
    [report] = _run_cells(config, args.test_tsv, [cell])
    print(render_table(report))
    print(f"reports written to {out_dir}")


def _cmd_ablate(args: argparse.Namespace) -> None:
    """Run the n-shot x strategy grid and write a consolidated comparison."""
    base = _make_run_config(args.config, vars(args))
    try:
        shots = list(dict.fromkeys(int(x) for x in args.grid_shots.split(",") if x.strip() != ""))
    except ValueError as exc:
        raise CliError(f"bad grid spec: {exc}")
    if args.grid_strategies is None:
        kinds = TASKS[base.task].strategies
        strategies = [name for name in DEFAULT_GRID_STRATEGIES if name == "bm25" or name in kinds]
    else:
        strategies = list(dict.fromkeys(
            x.strip() for x in args.grid_strategies.split(",") if x.strip()))
    if not shots or not strategies:
        raise CliError("--grid-shots and --grid-strategies must each name a value")

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
            raise CliError(str(exc))
        grid.append((n, name, cell))

    reports = _run_cells(base, args.test_tsv, [cell for _, _, cell in grid])
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
    print(_comparison_table(comparison))
    print(f"ablation written to {out_dir}")


def _comparison_table(comparison: dict) -> str:
    cells = sorted(comparison["cells"], key=lambda c: (c["n_shots"], c["strategy"]))
    metric_names = sorted(cells[0]["metrics"])
    rows = [[f"{cell['n_shots']}-shot ({cell['strategy']})",
             *(f"{cell['metrics'][m]:.3f}" for m in metric_names)] for cell in cells]
    return "\n".join(format_columns(["method", *metric_names], rows)) + "\n"


# ---------------------------------------------------------------------------
# inspect-store
# ---------------------------------------------------------------------------


def _cmd_inspect_store(args: argparse.Namespace) -> None:
    """Print a persisted store's manifest and basic statistics."""
    db = load_store(args.store_path)
    payload = {
        **_store_params(db),
        "caption_vocabulary": len(db.caption_index.postings),
        # a caption query that holds one of these takes BM25's two-phase path
        "caption_terms_in_every_record": len(db.caption_index.universal),
        "smiles_trigram_vocabulary": len(db.smiles_index.postings),
        "mean_caption_tokens": db.caption_index.avgdl,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write: --help or --version into a closed stdout pipe
        # would exit 0 where every other command exits 1
        if message:
            (file or sys.stderr).write(message)


def _parser(prog: str) -> argparse.ArgumentParser:
    """The molrag command line. Each command's handler is its ``run`` default."""
    help_flag = argparse.ArgumentParser(add_help=False)  # --help alone: no -h
    help_flag.add_argument("--help", action="help", help="Show this message and exit.")
    # query, evaluate and ablate share these; a flag not given is None, so that the
    # --config file and the defaults fill it
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--store", help="Store directory.")
    run_flags.add_argument("--task", choices=list(TASKS))
    run_flags.add_argument("--n-shots", type=int)
    run_flags.add_argument("--strategy", choices=[*STRATEGY_KINDS, "bm25"])
    run_flags.add_argument("--seed", type=int)
    run_flags.add_argument("--backend", help="Backend config JSON.")
    run_flags.add_argument("--replay", help="Replay fixture JSONL.")
    run_flags.add_argument("--template")
    run_flags.add_argument("--out")
    run_flags.add_argument("--concurrency", type=int)
    run_flags.add_argument("--max-retries", type=int)
    run_flags.add_argument("--max-error-allowance", type=int)
    run_flags.add_argument("--config")

    parser = _Parser(
        prog=prog, description="Retrieval-augmented molecule-caption translation toolkit.",
        parents=[help_flag], add_help=False, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"molrag, version {__version__}")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, *parents) -> argparse.ArgumentParser:
        doc = run.__doc__ or ""  # python -OO strips docstrings
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc,
                                  parents=[help_flag, *parents], add_help=False,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    ingest = command("ingest", _cmd_ingest)
    ingest.add_argument("tsv_path")
    ingest.add_argument("out_store")
    ingest.add_argument("--split", default="train", help="(default: %(default)s)")
    command("query", _cmd_query, run_flags).add_argument("user_input")
    evaluate = command("evaluate", _cmd_evaluate, run_flags)
    evaluate.add_argument("test_tsv")
    evaluate.add_argument("--limit", type=int, help="Evaluate only the first N items.")
    ablate = command("ablate", _cmd_ablate, run_flags)
    ablate.add_argument("test_tsv")
    ablate.add_argument("--grid-shots", default=",".join(map(str, DEFAULT_GRID_SHOTS)),
                        help="Comma-separated n-shot values; repeats are dropped. "
                             "(default: %(default)s)")
    ablate.add_argument("--grid-strategies",
                        help="Comma-separated strategy names; repeats are dropped. (default: "
                             f"those of {','.join(DEFAULT_GRID_STRATEGIES)} that apply to the "
                             "task)")
    ablate.add_argument("--limit", type=int)
    command("inspect-store", _cmd_inspect_store).add_argument(
        "--store", dest="store_path", required=True)
    return parser


def main(args: list[str] | None = None, prog_name: str = "molrag") -> None:
    """Run the molrag command line ``args`` (by default ``sys.argv[1:]``).

    Exits 1 after one ``Error: <message>`` line for a known error, after
    ``Aborted!`` for Ctrl-C, and silently for a closed stdout pipe.
    """
    try:
        try:
            parsed = _parser(prog_name).parse_args(args)
            parsed.run(parsed)
        finally:
            sys.stdout.flush()  # so that a closed stdout pipe fails here, not at exit
    except MolragError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
