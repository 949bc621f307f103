import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, suppress
from pathlib import Path

import pytest

import molrag
from molrag import calibration, cli
from molrag import store as store_module
from molrag.bm25 import tokenize
from molrag.calibration import rank_examples
from molrag.cli import (
    CliError, RunConfig, _comparison_table, _process_item, _start_cell, run_evaluation)
from molrag.fingerprint import morgan_fingerprint
from molrag.llm import BackendError, ChatClient, HttpBackend, ReplayBackend, ReplayError
from molrag.metrics import build_report, render_table
from molrag.prompt import PromptError, default_template
from molrag.smiles import parse_smiles
from molrag.store import (
    STRATEGY_KINDS,
    TASKS,
    StoreError,
    build_store,
    load_chebi_tsv,
    load_store,
    resolve_strategy,
    save_store,
)
from backends import ScriptedBackend
from cli_runner import invoke
from test_metrics import CAPTION_PAIRS, SMILES_PAIRS, pairs

REPLAY_M2C = "replay_eval_mol2cap.jsonl"
REPLAY_C2M = "replay_eval_cap2mol.jsonl"
REPLAY_GRID = "replay_ablate_mol2cap.jsonl"
LOCAL_URL = "http://127.0.0.1:9/"  # the discard port: nothing answers
# the modules ingest, inspect-store and an import of molrag.cli leave unloaded
RUN_PATH_MODULES = frozenset({
    "molrag.calibration", "molrag.llm", "molrag.prompt", "logging", "http.client",
    "urllib.request", "concurrent.futures"})


@pytest.fixture(scope="session")
def store_dir(tmp_path_factory, corpus_store):
    path = tmp_path_factory.mktemp("session") / "store"
    save_store(corpus_store, path)
    return path


def src_env(**overrides) -> dict:
    """The environment of a fresh interpreter that imports this molrag."""
    src = str(Path(molrag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


def eval_args(data_dir, store_dir, out, task="mol2cap", replay=REPLAY_M2C, extra=()):
    return [
        "evaluate",
        str(data_dir / "test_items.tsv"),
        "--store", str(store_dir),
        "--task", task,
        "--n-shots", "2",
        "--strategy", "morgan_fts" if task == "mol2cap" else "bm25",
        "--replay", str(data_dir / replay),
        "--out", str(out),
        *extra,
    ]


def command_args(command, data_dir, store_dir, out):
    """query, evaluate or ablate on the fixture store and replay files, writing to out."""
    args = eval_args(data_dir, store_dir, out)
    args[0] = command
    if command == "query":
        args[1] = "CCCCCO"
    return args


def count_mol2cap_retrievals(monkeypatch) -> list:
    """Record (strategy kind, query, n) of every mol2cap ranking made in this process:
    every store.ranked_positions call, which the retrieve functions and the rankings
    ahead of evaluate and ablate all make."""
    ranked = store_module.ranked_positions
    calls = []

    def counted(store, task, query, n, strategy, **kwargs):
        if task == "mol2cap":
            calls.append((strategy.kind, query, n))
        return ranked(store, task, query, n, strategy, **kwargs)

    monkeypatch.setattr(store_module, "ranked_positions", counted)
    return calls


def count_parses(monkeypatch) -> list:
    """Record the text of every parse_smiles call made through the store and cli
    bindings."""
    parse = store_module.parse_smiles
    calls = []

    def counted(text):
        calls.append(text)
        return parse(text)

    for module in (store_module, cli):
        if getattr(module, "parse_smiles", None) is parse:
            monkeypatch.setattr(module, "parse_smiles", counted)
    return calls


def graph_check_parses(db, records) -> int:
    """The parses mol2cap retrieval needs beyond the one per test row at load: once
    per distinct query SMILES whose bitmap some stored record shares, one of the
    query and one of each such record, for the graph-equality check."""
    total = 0
    for smiles in {rec.smiles for rec in records}:
        bitmap = morgan_fingerprint(parse_smiles(smiles)).bitmap
        shared = sum(fp.bitmap == bitmap for fp in db.fingerprints)
        total += 1 + shared if shared else 0
    return total


def assert_one_line_error(result, *parts):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # an Error: line, no traceback
    assert "Traceback" not in result.output
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    for part in parts:
        assert part in result.output


class TestIngest:
    def test_ingest_and_inspect(self, data_dir, tmp_path):
        result = invoke(["ingest", str(data_dir / "corpus.tsv"), str(tmp_path / "store")])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["ingested"] == 112
        assert payload["quarantined"] == []

        result = invoke(["inspect-store", "--store", str(tmp_path / "store")])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["record_count"] == 112
        records, _, _ = load_chebi_tsv(data_dir / "corpus.tsv")
        shared = set.intersection(*(set(tokenize(record.caption)) for record in records))
        assert payload["caption_terms_in_every_record"] == len(shared) == 3

    def test_store_matches_golden_manifest(self, data_dir, tmp_path):
        # the manifest's checksums cover every data file, so this pins the store's bytes
        out = tmp_path / "store"
        result = invoke(["ingest", str(data_dir / "corpus.tsv"), str(out)])
        assert result.exit_code == 0, result.output
        golden = data_dir / "golden" / "store_manifest.json"
        assert (out / "manifest.json").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("extra_rows, reaching_parser", [
        ("", 112),
        # an unparseable SMILES reaches the parser; an empty caption and a short row do not
        ("900\tC1CC\tan unclosed ring\n901\tCCO\t\n902\tCCO\n", 113),
    ], ids=["corpus", "with-bad-rows"])
    def test_ingest_parses_each_row_once(self, data_dir, tmp_path, monkeypatch,
                                         extra_rows, reaching_parser):
        calls = []
        original = store_module.parse_smiles

        def counted(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(store_module, "parse_smiles", counted)
        tsv = tmp_path / "corpus.tsv"
        tsv.write_text((data_dir / "corpus.tsv").read_text(encoding="utf-8") + extra_rows,
                       encoding="utf-8")
        result = invoke(["ingest", str(tsv), str(tmp_path / "store")])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["ingested"] == 112
        assert len(calls) == reaching_parser

    def test_store_bytes_do_not_depend_on_the_hash_seed(self, data_dir, tmp_path):
        # Manifest checksums and the BM25 header's term order must not follow set or
        # dict iteration order, which PYTHONHASHSEED changes between processes.
        stores = []
        for seed in ("1", "2"):
            out = tmp_path / f"store-{seed}"
            subprocess.run([sys.executable, "-m", "molrag.cli", "ingest",
                            str(data_dir / "corpus.tsv"), str(out)],
                           env=src_env(PYTHONHASHSEED=seed), check=True, capture_output=True,
                           timeout=120)
            stores.append(out)
        names = sorted(path.name for path in stores[0].iterdir())
        assert names == sorted(path.name for path in stores[1].iterdir())
        assert "captions.bm25" in names and "manifest.json" in names
        for name in names:
            assert (stores[0] / name).read_bytes() == (stores[1] / name).read_bytes(), name

    @staticmethod
    def _loaded_by_cli_import() -> set[str]:
        """The modules a fresh interpreter loads to ``import molrag.cli``."""
        check = "import sys; before = set(sys.modules); import molrag.cli; " \
                "print(*set(sys.modules) - before)"
        result = subprocess.run([sys.executable, "-c", check], env=src_env(), check=True,
                                capture_output=True, text=True, timeout=60)
        return set(result.stdout.split())

    def test_import_loads_only_the_standard_library(self):
        # the command line, the chat client and all the rest need nothing else
        loaded = self._loaded_by_cli_import()
        assert "molrag.cli" in loaded
        assert {name for name in loaded
                if name.split(".")[0] not in {"molrag", *sys.stdlib_module_names}} == set()

    def test_import_loads_no_http_client(self):
        # only HttpBackend sends requests, so only building one loads the client modules;
        # only evaluate and ablate load the pools that run their items and rankings; and
        # only query, evaluate and ablate load the chat, prompt and calibration code
        assert self._loaded_by_cli_import() & RUN_PATH_MODULES == set()

    def test_ingest_and_inspect_load_no_run_path_module(self, data_dir, tmp_path):
        # the fixture corpus's 112 rows are parsed in this process, with no worker pool
        check = "import sys; from molrag import cli; cli.main(sys.argv[1:4]); " \
                "cli.main(sys.argv[4:]); print(*sys.modules, file=sys.stderr)"
        store = str(tmp_path / "store")
        result = subprocess.run(
            [sys.executable, "-c", check, "ingest", str(data_dir / "corpus.tsv"), store,
             "inspect-store", "--store", store],
            env=src_env(), check=True, capture_output=True, text=True, timeout=60)
        assert '"ingested": 112' in result.stdout and '"record_count": 112' in result.stdout
        loaded = set(result.stderr.split())
        assert "molrag.store" in loaded
        assert loaded & (RUN_PATH_MODULES | {"multiprocessing"}) == set()

    def test_corrupt_file_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("WRONG\tHEADER\n1\t2\n", encoding="utf-8")
        result = invoke(["ingest", str(bad), str(tmp_path / "store")])
        assert result.exit_code != 0
        assert "column" in result.output.lower()

    def test_parameter_options_are_gone(self, data_dir, tmp_path):
        # every store fingerprints and ranks under the one default setting
        out = tmp_path / "store"
        result = invoke(["ingest", str(data_dir / "corpus.tsv"), str(out), "--radius", "3"])
        assert result.exit_code == 2
        assert "unrecognized arguments: --radius 3" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_undecodable_tsv_is_a_one_line_error(self, data_dir, store_dir, tmp_path,
                                                 command):
        # evaluate once ended in a UnicodeDecodeError traceback
        latin = tmp_path / "latin1.tsv"
        latin.write_bytes("CID\tSMILES\tdescription\n1\tCCO\t\u00e9thanol\n".encode("latin-1"))
        if command == "ingest":
            args = ["ingest", str(latin), str(tmp_path / "store")]
        else:
            args = eval_args(data_dir, store_dir, tmp_path / "out")
            args[1] = str(latin)
        result = invoke(args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # an Error: line, no traceback
        assert result.output.startswith("Error: cannot read ") and result.output.count("\n") == 1

    def test_quarantine_reported(self, tmp_path):
        mixed = tmp_path / "mixed.tsv"
        mixed.write_text(
            "CID\tSMILES\tdescription\n1\tCCO\tfine\n2\tC1CC\tbroken ring\n",
            encoding="utf-8",
        )
        result = invoke(["ingest", str(mixed), str(tmp_path / "store2")])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["ingested"] == 1
        assert payload["quarantined"][0]["reason"].startswith("UnmatchedRingClosure")


class TestQuery:
    def test_replay_query_deterministic(self, data_dir, store_dir):
        args = [
            "query", "CCCCCO",
            "--store", str(store_dir),
            "--task", "mol2cap",
            "--n-shots", "2",
            "--strategy", "morgan_fts",
            "--replay", str(data_dir / REPLAY_M2C),
        ]
        first = invoke(args)
        assert first.exit_code == 0, first.output
        second = invoke(args)
        assert first.output == second.output
        payload = json.loads(first.output)
        assert payload["input"] == "CCCCCO"
        assert payload["examples_used"] == ["100091", "100092"]
        assert payload["query_count"] == 1

    def test_zero_shot_query(self, data_dir, store_dir):
        result = invoke(
            [
                "query", "CCCCCO",
                "--store", str(store_dir),
                "--task", "mol2cap",
                "--n-shots", "0",
                "--replay", str(data_dir / REPLAY_GRID),
            ],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["final_shot_count"] == 0

    @pytest.mark.parametrize("smiles", ["C1CC", "."])
    @pytest.mark.parametrize("n_shots", ["2", "0"])
    def test_unparseable_mol2cap_input_is_refused_before_sending(
            self, data_dir, store_dir, monkeypatch, smiles, n_shots):
        # at 0 shots such an input once went to the backend unread
        backend = ScriptedBackend(['{"caption": "A molecule."}'])
        monkeypatch.setattr(cli, "_make_client", lambda config: nullcontext(ChatClient(
            backend, max_retries=0, backoff_base=0.0)))
        result = invoke([
            "query", smiles, "--store", str(store_dir), "--task", "mol2cap",
            "--n-shots", n_shots, "--replay", str(data_dir / REPLAY_M2C),
        ])
        assert_one_line_error(result, "Error: query SMILES does not parse: ")
        assert backend.calls == 0

    def test_cap2mol_reports_validity(self, data_dir, store_dir, test_records):
        result = invoke(
            [
                "query", test_records[0].caption,
                "--store", str(store_dir),
                "--task", "cap2mol",
                "--n-shots", "2",
                "--strategy", "bm25",
                "--replay", str(data_dir / REPLAY_C2M),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["output_is_valid"] is True

    def test_missing_store_clear_error(self, data_dir, tmp_path):
        result = invoke(
            [
                "query", "CCO",
                "--store", str(tmp_path / "absent"),
                "--task", "mol2cap",
                "--replay", str(data_dir / REPLAY_M2C),
            ],
        )
        assert result.exit_code != 0
        assert "manifest" in result.output.lower()

    def test_backend_required(self, store_dir):
        result = invoke(["query", "CCO", "--store", str(store_dir), "--task", "mol2cap"])
        assert result.exit_code != 0


class TestStrategyNames:
    def test_default_and_bm25_resolve_to_table_kinds(self):
        expected = {
            "mol2cap": ("morgan_fts", "bm25_smiles_chargram"),
            "cap2mol": ("bm25_caption", "bm25_caption"),
        }
        for task, spec in TASKS.items():
            default = resolve_strategy(task, None, 0).kind
            bm25 = resolve_strategy(task, "bm25", 0).kind
            assert (default, bm25) == expected[task] == (spec.strategies[0], spec.bm25)
            assert default in spec.strategies and bm25 in spec.strategies
        assert resolve_strategy("mol2cap", "random", 7).seed == 7
        assert resolve_strategy("mol2cap", "morgan_fts", 7).seed is None

    def test_strategy_choices_are_table_kinds_plus_bm25(self):
        for name in ("query", "evaluate", "ablate"):
            result = invoke([name, "--help"])
            assert f"--strategy {{{','.join([*STRATEGY_KINDS, 'bm25'])}}}" in result.stdout
            result = invoke([name, "x", "--strategy", "bm25_everything"])
            assert result.exit_code == 2 and "invalid choice: 'bm25_everything'" in result.stderr
        kinds = {kind for spec in TASKS.values() for kind in spec.strategies}
        assert set(STRATEGY_KINDS) == kinds

    def test_strategy_of_other_task_fails(self, data_dir, store_dir, tmp_path):
        args = eval_args(data_dir, store_dir, tmp_path / "x")
        args[args.index("--strategy") + 1] = "bm25_caption"
        result = invoke(args)
        assert result.exit_code != 0
        assert "does not apply to task 'mol2cap'" in result.output
        assert not (tmp_path / "x").exists()


class TestEvaluate:
    def test_replay_runs_are_byte_identical(self, data_dir, store_dir, tmp_path):
        for out in ("run_a", "run_b"):
            result = invoke(eval_args(data_dir, store_dir, tmp_path / out))
            assert result.exit_code == 0, result.output
        a, b = tmp_path / "run_a", tmp_path / "run_b"
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "items.jsonl").read_bytes() == (b / "items.jsonl").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()

    def test_outputs_complete(self, data_dir, store_dir, tmp_path):
        out = tmp_path / "full"
        result = invoke(eval_args(data_dir, store_dir, out))
        assert result.exit_code == 0
        for name in ("manifest.json", "report.json", "report.txt", "items.jsonl", "failures.jsonl"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("task", "n_shots", "strategy", "seed", "model", "calibration",
                    "template", "store", "test_file"):
            assert key in manifest, key
        report = json.loads((out / "report.json").read_text())
        for value in report["metrics"].values():
            assert 0.0 <= value or report["task"] == "cap2mol"
        items = [json.loads(line) for line in (out / "items.jsonl").read_text().splitlines()]
        assert [row["index"] for row in items] == list(range(50))
        failed = [row for row in items if row["status"] == "calibration_failed"]
        assert len(failed) == 2
        failures = (out / "failures.jsonl").read_text().splitlines()
        assert len(failures) == 2

    def test_cap2mol_replay(self, data_dir, store_dir, tmp_path):
        out = tmp_path / "c2m"
        result = invoke(eval_args(data_dir, store_dir, out, task="cap2mol", replay=REPLAY_C2M))
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["metrics"]["validity"] <= 1.0
        assert report["metrics"]["exact_match"] > 0.5

    def test_resume_from_checkpoint(self, data_dir, store_dir, tmp_path):
        out = tmp_path / "resume"
        result = invoke(eval_args(data_dir, store_dir, out))
        assert result.exit_code == 0
        full_report = (out / "report.json").read_bytes()

        # simulate an interrupted run: keep only the first 20 checkpoint rows
        lines = (out / "items.jsonl").read_text().splitlines()
        (out / "items.jsonl").write_text("".join(line + "\n" for line in lines[:20]))
        (out / "report.json").unlink()
        result = invoke(eval_args(data_dir, store_dir, out))
        assert result.exit_code == 0
        assert (out / "report.json").read_bytes() == full_report

    @pytest.mark.parametrize(
        "fragment",
        [lambda row: row[: len(row) // 2], lambda row: b'{"index": 20, "input": "caf\xc3'],
        ids=["half-row", "torn-utf8"],
    )
    def test_resume_after_a_torn_last_row(self, data_dir, store_dir, tmp_path,
                                          monkeypatch, fragment):
        # an interruption mid-write leaves an unterminated last row, which once ended
        # the resume in a JSONDecodeError traceback
        out = tmp_path / "torn"
        args = eval_args(data_dir, store_dir, out, extra=("--concurrency", "1"))
        assert invoke(args).exit_code == 0
        full_report = (out / "report.json").read_bytes()
        full_items = (out / "items.jsonl").read_bytes()
        rows = full_items.splitlines(keepends=True)
        (out / "items.jsonl").write_bytes(b"".join(rows[:20]) + fragment(rows[20]))
        (out / "report.json").unlink()

        # interrupt the resume after a few appended rows: they must not be glued onto
        # the fragment, or the next resume finds a malformed row
        send, sent = ReplayBackend.send, []

        def interrupted_send(self, prompt):
            sent.append(1)
            if len(sent) > 5:
                raise BackendError("auth", "interrupted")
            return send(self, prompt)

        with monkeypatch.context() as patch:
            patch.setattr(ReplayBackend, "send", interrupted_send)
            assert invoke(args).exit_code == 1
        kept = (out / "items.jsonl").read_bytes().splitlines()
        assert len(kept) > 20 and all(json.loads(row)["index"] >= 0 for row in kept)

        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert (out / "report.json").read_bytes() == full_report
        assert (out / "items.jsonl").read_bytes() == full_items

    @pytest.mark.parametrize(
        "bad",
        ['{"index": 3, "id"', "[3]", '{"id": "x"}', '{"index": -1}', '{"index": "3"}',
         '{"index": true}', '{"index": 50}', '{"index": 1}',
         '{"index": 3, "prediction": "CCO", "reference": "CCO", "status": "weird"}',
         '{"index": 3, "prediction": null, "reference": "CCO", "status": "ok"}'],
        ids=["torn", "not-an-object", "no-index", "negative-index", "string-index",
             "bool-index", "index-past-the-items", "index-only", "unknown-status",
             "null-prediction"])
    def test_malformed_checkpoint_row_is_a_one_line_error(self, data_dir, store_dir,
                                                          tmp_path, bad):
        out = tmp_path / "bad"
        args = eval_args(data_dir, store_dir, out)
        assert invoke(args).exit_code == 0
        rows = (out / "items.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        rows[3] = bad + "\n"
        (out / "items.jsonl").write_text("".join(rows), encoding="utf-8")
        before = (out / "items.jsonl").read_bytes()
        result = invoke(args)
        assert_one_line_error(result, f"{out / 'items.jsonl'}:4 ", "use another --out")
        assert (out / "items.jsonl").read_bytes() == before

    def test_each_item_is_ranked_once_at_n_shots(self, data_dir, store_dir, tmp_path,
                                                 monkeypatch):
        # evaluate ranks through ablate's path, as a grid of one cell
        calls = count_mol2cap_retrievals(monkeypatch)
        args = eval_args(data_dir, store_dir, tmp_path / "out", extra=("--limit", "10"))
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert len(calls) == 10 and len(set(calls)) == 10 and {n for _, _, n in calls} == {2}
        # a finished run that is resumed ranks nothing
        calls.clear()
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert calls == []

    def test_mol2cap_parses_each_item_once(self, data_dir, store_dir, corpus_store,
                                           test_records, tmp_path, monkeypatch):
        # each item was parsed at load, again in every retrieval, and so was each stored
        # record sharing its bitmap: 375 parses for these 50 rows, where 357 suffice.
        # One usable CPU keeps the ranking, and so the graph check, in this process.
        monkeypatch.setattr(store_module, "_usable_cpus", lambda: 1)
        calls = count_parses(monkeypatch)
        result = invoke(eval_args(data_dir, store_dir, tmp_path / "eval"))
        assert result.exit_code == 0, result.output
        assert len(calls) == len(test_records) + graph_check_parses(corpus_store, test_records)
        assert len(calls) == 357
        # a grid of three strategies parses no more than one cell: the graph check of a
        # query is made once, whichever strategy ranks it first
        calls.clear()
        args = eval_args(data_dir, store_dir, tmp_path / "eval10", extra=("--limit", "10"))
        result = invoke(args)
        assert result.exit_code == 0, result.output
        one_cell = len(calls)
        calls.clear()
        args = [
            "ablate", str(data_dir / "test_items.tsv"),
            "--store", str(store_dir),
            "--task", "mol2cap",
            "--grid-strategies", "random,bm25,morgan_fts",
            "--limit", "10",
            "--replay", str(data_dir / REPLAY_GRID),
            "--out", str(tmp_path / "grid"),
        ]
        result = invoke(args)
        assert result.exit_code == 0, result.output
        # reading stops after the 10th kept row: 50 parses at load once, 10 now
        assert len(calls) == one_cell == 10 + graph_check_parses(corpus_store, test_records[:10])

    def test_limit_stops_reading_the_test_file(self, data_dir, store_dir, test_records,
                                               tmp_path, monkeypatch):
        # the rows after the 5th kept one were parsed too, and the unparseable one among
        # them was counted in the manifest's quarantined_rows, though no item reads it
        lines = (data_dir / "test_items.tsv").read_text(encoding="utf-8").splitlines(True)
        tsv = tmp_path / "test.tsv"
        tsv.write_text("".join(lines[:6]) + "900\tC1CC\tan unclosed ring\n" + "".join(lines[6:]),
                       encoding="utf-8")
        assert len(load_chebi_tsv(tsv)[2].quarantined) == 1
        calls = count_parses(monkeypatch)
        out = tmp_path / "eval"
        args = eval_args(data_dir, store_dir, out, extra=("--limit", "5"))
        args[1] = str(tsv)
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert calls[:5] == [rec.smiles for rec in test_records[:5]]
        assert "C1CC" not in calls
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert (manifest["items"], manifest["quarantined_rows"]) == (5, 0)

    def test_cap2mol_pattern_fallback_skips_words_that_cannot_parse(
            self, data_dir, store_dir, tmp_path, monkeypatch):
        # "Unable. Unknown. Unclear. Unavailable for this request." was parsed word by
        # word on every attempt: 72 is_valid_smiles calls for the 4 items that fall back
        calls = []
        original = calibration.is_valid_smiles

        def counted(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(calibration, "is_valid_smiles", counted)
        out = tmp_path / "c2m"
        result = invoke(eval_args(data_dir, store_dir, out, task="cap2mol", replay=REPLAY_C2M))
        assert result.exit_code == 0, result.output
        assert len(calls) < 72
        assert sorted(calls) == ["CCCCCCCCCCCCCCCCCCCCCCCCCCCCO", "CCCCCCCCCCCCCCCCCCCCCN"]

    def test_empty_test_file_error(self, data_dir, store_dir, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("CID\tSMILES\tdescription\n", encoding="utf-8")
        result = invoke(
            [
                "evaluate", str(empty),
                "--store", str(store_dir),
                "--task", "mol2cap",
                "--replay", str(data_dir / REPLAY_M2C),
                "--out", str(tmp_path / "nope"),
            ],
        )
        assert result.exit_code != 0

    def test_config_file_precedence(self, data_dir, store_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "task": "mol2cap",
                    "n_shots": 5,
                    "strategy": "morgan_fts",
                    "store": str(store_dir),
                    "replay": str(data_dir / REPLAY_M2C),
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "cfg"
        result = invoke(
            [
                "evaluate", str(data_dir / "test_items.tsv"),
                "--config", str(config),
                "--n-shots", "2",  # flag beats file
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_shots"] == 2
        assert manifest["task"] == "mol2cap"

    def test_no_network_with_replay(self, data_dir, store_dir, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("network access attempted during replay run")

        monkeypatch.setattr(socket, "socket", refuse)
        config = RunConfig(
            store_path=str(store_dir),
            task="mol2cap",
            n_shots=2,
            strategy=resolve_strategy("mol2cap", "morgan_fts", 0),
            template_path=None,
            out_path=None,
            seed=0,
            concurrency=4,
            max_retries=3,
            max_error_allowance=5,
            replay_path=str(data_dir / REPLAY_M2C),
            backend=None,
            limit=10,
        )
        records, fingerprints, _ = load_chebi_tsv(data_dir / "test_items.tsv", config.limit)
        store = load_store(store_dir)
        template, out, done = default_template("mol2cap"), tmp_path / "offline", {}
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool, \
                cli._make_client(config) as client:
            futures = _start_cell(
                config,
                template,
                records,
                {},
                out,
                lambda i: rank_examples(store, "mol2cap", records[i].smiles, 2, config.strategy,
                                        query_fp=fingerprints[i]),
                done,
                pool,
                threading.Event(),
                client,
            )
            report = run_evaluation(config, store, template, out, done, futures)
        assert report["counts"]["items"] == 10


    @pytest.mark.parametrize("change", ["n_shots", "test_order", "store"])
    def test_stale_resume_refused(self, data_dir, corpus_records, corpus_fingerprints,
                                  tmp_path, change):
        store = tmp_path / "store"
        save_store(build_store(corpus_records, corpus_fingerprints), store)
        tsv = tmp_path / "test.tsv"
        lines = (data_dir / "test_items.tsv").read_text(encoding="utf-8").splitlines(True)
        tsv.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        args = eval_args(data_dir, store, out, extra=("--limit", "5"))
        args[1] = str(tsv)
        result = invoke(args)
        assert result.exit_code == 0, result.output
        before = (out / "items.jsonl").read_bytes()

        if change == "n_shots":
            args[args.index("--n-shots") + 1] = "0"
            key = "n_shots"
        elif change == "test_order":
            tsv.write_text(lines[0] + "".join(reversed(lines[1:])), encoding="utf-8")
            key = "test_sha256"
        else:
            save_store(build_store(corpus_records[1:], corpus_fingerprints[1:]), store)
            key = "store_manifest_sha256"
        result = invoke(args)
        assert result.exit_code != 0
        assert key in result.output
        assert (out / "items.jsonl").read_bytes() == before

    def test_checkpoint_without_manifest_refused(self, data_dir, store_dir, tmp_path):
        out = tmp_path / "orphan"
        out.mkdir()
        row = {"index": 0, "prediction": "", "reference": "CCO", "status": "ok"}
        (out / "items.jsonl").write_text(json.dumps(row) + "\n", encoding="utf-8")
        result = invoke(eval_args(data_dir, store_dir, out))
        assert result.exit_code != 0
        assert "no readable manifest.json" in result.output

    def test_fatal_backend_error_stops_run(self, data_dir, store_dir, tmp_path,
                                           monkeypatch):
        calls = []
        send = ReplayBackend.send

        def counting_send(self, prompt):
            calls.append(1)
            return send(self, prompt)

        monkeypatch.setattr(ReplayBackend, "send", counting_send)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "fatal"
        args = eval_args(data_dir, store_dir, out, extra=("--concurrency", "2"))
        args[args.index("--replay") + 1] = str(empty)
        result = invoke(args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # an Error: line, no traceback
        assert result.output.startswith("Error: no fixture entry")
        assert result.output.count("\n") == 1
        assert 1 <= len(calls) <= 2
        assert (out / "items.jsonl").read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-error-allowance", "0", "max_error_allowance must be positive"),
            ("--concurrency", "0", "concurrency must be positive"),
            ("--max-retries", "-1", "max_retries must be non-negative"),
            ("--replay", "missing.jsonl", "cannot read fixture"),
            ("--backend", "unknown_key.json", "unknown_key.json holds unknown setting(s): bogus"),
            ("--backend", "misspelt_keys.json",
             "backend file {tmp}/misspelt_keys.json holds unknown setting(s): bogus, modle_name"),
            ("--backend", "list.json", "backend file {tmp}/list.json must hold a JSON object"),
            ("--limit", "0", "limit must be positive"),
            ("--limit", "-1", "limit must be positive"),
            ("--grid-shots", "", "must each name a value"),
            ("--grid-strategies", ",", "must each name a value"),
            ("--grid-shots", "1,x", "bad grid spec: invalid literal for int() with base 10: 'x'"),
            ("--n-shots", "11", "n_shots must lie in 0..10"),
            ("--config", "missing.json", "cannot read config file"),
            ("--config", "list.json", "list.json must hold a JSON object"),
            ("--config", "misspelt.json",
             "misspelt.json holds unknown setting(s): concurency, nshots"),
        ],
        ids=["allowance", "concurrency", "retries", "missing-replay", "backend-key",
             "backend-keys", "list-backend", "limit-zero", "limit-negative",
             "empty-grid-shots", "empty-grid-strategies", "bad-grid-shots", "n-shots-eleven",
             "missing-config", "list-config", "unknown-config-key"],
    )
    def test_bad_setting_is_a_one_line_error(self, data_dir, store_dir, tmp_path,
                                             flag, value, message):
        (tmp_path / "unknown_key.json").write_text('{"bogus": 1}', encoding="utf-8")
        # once refused with Python's TypeError text, which named only the first key
        (tmp_path / "misspelt_keys.json").write_text('{"bogus": 1, "modle_name": "x"}',
                                                     encoding="utf-8")
        (tmp_path / "list.json").write_text("[1]", encoding="utf-8")
        # these two keys once ran with exit 0 under n_shots 2 and concurrency 4
        (tmp_path / "misspelt.json").write_text('{"nshots": 5, "concurency": 9}',
                                                encoding="utf-8")
        out = tmp_path / "out"
        args = eval_args(data_dir, store_dir, out)
        if flag == "--backend":
            del args[args.index("--replay") : args.index("--replay") + 2]
        if flag in ("--replay", "--backend", "--config"):
            value = str(tmp_path / value)
        if flag.startswith("--grid"):
            args[0] = "ablate"
        result = invoke([*args, flag, value])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # an Error: line, no traceback
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert message.format(tmp=tmp_path) in result.output
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_replay_path_without_backend_is_a_one_line_error(
            self, data_dir, store_dir, tmp_path, source):
        # an empty path passed RunConfig's check, and the run then built an HTTP client
        # from no backend config: an AttributeError traceback
        out = tmp_path / "out"
        args = eval_args(data_dir, store_dir, out)
        del args[args.index("--replay") : args.index("--replay") + 2]
        if source == "flag":
            args += ["--replay", ""]
        else:
            (tmp_path / "run.json").write_text('{"replay": ""}', encoding="utf-8")
            args += ["--config", str(tmp_path / "run.json")]
        result = invoke(args)
        assert_one_line_error(result, "either a replay fixture or a backend config is required")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, file_flag, settings, message",
        [
            ("evaluate", "--config", {"n_shots": 2.5}, "n_shots must be an integer, not 2.5"),
            ("evaluate", "--config", {"limit": 2.5}, "limit must be an integer, not 2.5"),
            ("evaluate", "--config", {"limit": True}, "limit must be an integer, not True"),
            ("evaluate", "--config", {"concurrency": 1.5}, "concurrency must be an integer"),
            ("evaluate", "--config", {"seed": "x"}, "seed must be an integer, not 'x'"),
            ("evaluate", "--config", {"store": 5}, "store_path must be a string, not 5"),
            ("evaluate", "--config", {"task": ["mol2cap"]}, "--task must be one of"),
            ("evaluate", "--config", {"strategy": []}, "strategy must be a string, not []"),
            ("evaluate", "--config", {"backend": 5}, "backend must be a string, not 5"),
            ("evaluate", "--config", {"store": ""}, "--store is required"),
            # a local endpoint, so that a value that passes unchecked reaches no remote host
            ("query", "--backend", {"endpoint_url": LOCAL_URL, "request_timeout": "x"},
             "request_timeout must be a number, not 'x'"),
            ("query", "--backend", {"endpoint_url": 5}, "endpoint_url must be a string, not 5"),
            ("query", "--backend", {"endpoint_url": LOCAL_URL, "max_retries": False},
             "max_retries must be an integer, not False"),
            # values of the right type out of range: a timeout or backoff past what a socket
            # or time.sleep takes, or a NaN temperature, once crashed the run or failed every send
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "request_timeout": 0},
             "request_timeout must lie in (0, 9223372036] seconds"),
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "request_timeout": 1e300},
             "request_timeout must lie in (0, 9223372036] seconds"),
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "retry_backoff_base": -1},
             "retry_backoff_base must lie in [0, 9223372036] seconds"),
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "retry_backoff_base": 1e300},
             "retry_backoff_base must lie in [0, 9223372036] seconds"),
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "temperature": math.nan},
             "temperature must be >= 0"),
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "temperature": -0.5},
             "temperature must be >= 0"),
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "max_output_tokens": 0},
             "max_output_tokens must be positive"),
            ("evaluate", "--backend", {"endpoint_url": LOCAL_URL, "max_retries": -1},
             "max_retries must be non-negative"),
        ],
        ids=["n-shots-float", "limit-float", "limit-bool", "concurrency-float", "seed-string",
             "store-number", "task-list", "strategy-list", "backend-number", "store-empty",
             "timeout-string", "endpoint-number", "retries-bool", "timeout-zero",
             "timeout-huge", "backoff-negative", "backoff-huge", "temperature-nan",
             "temperature-negative", "max-tokens-zero", "retries-negative"],
    )
    def test_wrong_typed_setting_is_a_one_line_error(self, data_dir, store_dir,
                                                     tmp_path, command, file_flag, settings,
                                                     message):
        settings_file = tmp_path / "settings.json"
        settings_file.write_text(json.dumps(settings), encoding="utf-8")
        out = tmp_path / "out"
        if command == "evaluate":
            args = eval_args(data_dir, store_dir, out)
            for flag in ("--n-shots", "--store", "--task", "--strategy"):
                if flag.lstrip("-").replace("-", "_") in settings:
                    del args[args.index(flag) : args.index(flag) + 2]
            if file_flag == "--backend":
                del args[args.index("--replay") : args.index("--replay") + 2]
        else:
            args = ["query", "CCO", "--store", str(store_dir), "--task", "mol2cap",
                    "--out", str(out)]
        result = invoke([*args, file_flag, str(settings_file)])
        assert_one_line_error(result, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "backend_json, config_file, flag, expected",
        [
            ({"max_retries": 0}, {"max_retries": 1}, ["--max-retries", "2"], 2),
            ({"max_retries": 0}, {"max_retries": 1}, [], 1),
            ({"max_retries": 0}, {}, [], 0),
            ({}, {}, [], 3),
        ],
        ids=["flag", "config", "backend-json", "default"],
    )
    def test_max_retries_order(self, data_dir, store_dir, tmp_path, monkeypatch,
                               backend_json, config_file, flag, expected):
        attempts = []

        def unreachable(self, prompt):
            attempts.append(1)
            raise BackendError("network", "unreachable")

        monkeypatch.setattr(HttpBackend, "send", unreachable)
        backend = tmp_path / "backend.json"
        backend.write_text(json.dumps({**backend_json, "retry_backoff_base": 0}), encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_file), encoding="utf-8")
        out = tmp_path / "out"
        args = eval_args(data_dir, store_dir, out)
        del args[args.index("--replay") : args.index("--replay") + 2]
        result = invoke(
            [*args, "--backend", str(backend), "--config", str(config), "--limit", "1", *flag])
        # the exhausted network error ends the run before it writes a report
        assert_one_line_error(result, "Error: [network] unreachable")
        assert len(attempts) == expected + 1
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["max_retries"] == expected
        assert not (out / "report.json").exists()

    def test_item_rows(self, corpus_store, test_records):
        config = RunConfig(
            store_path="unused",
            task="mol2cap",
            n_shots=1,
            strategy=resolve_strategy("mol2cap", None, 0),
            template_path=None,
            out_path=None,
            seed=0,
            concurrency=1,
            max_retries=0,
            max_error_allowance=5,
            replay_path="unused",
            backend=None,
        )
        tmpl = default_template("mol2cap")
        query_fp = morgan_fingerprint(parse_smiles(test_records[0].smiles))

        def rank(index):
            return rank_examples(corpus_store, "mol2cap", test_records[index].smiles, 1,
                                 config.strategy, query_fp=query_fp)

        def row(script, stop):
            client = ChatClient(ScriptedBackend(script), max_retries=0, backoff_base=0.0)
            return _process_item(0, test_records[0], config, tmpl, client, stop, rank)

        # a failed item records the queries it was charged, not the allowance
        failed = row(["malformed_response"], threading.Event())
        assert failed["status"] == "calibration_failed" and failed["query_count"] == 1
        assert failed["input"] == test_records[0].smiles
        assert failed["reference"] == test_records[0].caption
        # an auth error stops the run: this item raises, later ones do not start
        stop = threading.Event()
        with pytest.raises(BackendError):
            row(["auth"], stop)
        assert stop.is_set()
        assert row(['{"caption": "x"}'], stop) is None


class TestAblate:
    @pytest.mark.parametrize(
        "task, answer, cells",
        [
            ("mol2cap", '{"caption": "x"}', ["random", "bm25", "morgan_fts"]),
            ("cap2mol", '{"molecule": "CCO"}', ["random", "bm25"]),
        ],
    )
    def test_default_grid_fits_the_task(self, data_dir, store_dir, tmp_path,
                                        monkeypatch, task, answer, cells):
        monkeypatch.setattr(
            cli, "_make_client", lambda config: nullcontext(ChatClient(ScriptedBackend([answer])))
        )
        out = tmp_path / "grid"
        result = invoke(
            [
                "ablate", str(data_dir / "test_items.tsv"),
                "--store", str(store_dir),
                "--task", task,
                "--grid-shots", "1",
                "--limit", "2",
                "--replay", "unused.jsonl",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert comparison["grid"]["strategies"] == cells
        assert [cell["strategy"] for cell in comparison["cells"]] == cells
        assert all(cell["counts"]["calibration_failed"] == 0 for cell in comparison["cells"])

    def test_grid_loads_inputs_once(self, data_dir, store_dir, tmp_path, monkeypatch):
        calls = {"load_store": 0, "load_chebi_tsv": 0}
        for name in calls:
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        result = invoke(
            [
                "ablate", str(data_dir / "test_items.tsv"),
                "--store", str(store_dir),
                "--task", "mol2cap",
                "--grid-shots", "0,1",
                "--grid-strategies", "random,morgan_fts",
                "--limit", "10",
                "--replay", str(data_dir / REPLAY_GRID),
                "--out", str(tmp_path / "grid"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert calls == {"load_store": 1, "load_chebi_tsv": 1}

    def test_grid_with_inapplicable_strategy_runs_no_cell(self, data_dir, store_dir,
                                                          tmp_path):
        out = tmp_path / "grid"
        result = invoke(
            [
                "ablate", str(data_dir / "test_items.tsv"),
                "--store", str(store_dir),
                "--task", "cap2mol",
                "--grid-shots", "0",
                "--grid-strategies", "random,morgan_fts",
                "--replay", str(data_dir / REPLAY_GRID),
                "--out", str(out),
            ],
        )
        assert result.exit_code != 0
        assert "does not apply to task 'cap2mol'" in result.output
        assert not out.exists()

    def test_two_by_two_grid(self, data_dir, store_dir, tmp_path):
        out = tmp_path / "grid"
        result = invoke(
            [
                "ablate", str(data_dir / "test_items.tsv"),
                "--store", str(store_dir),
                "--task", "mol2cap",
                "--grid-shots", "0,1",
                "--grid-strategies", "random,morgan_fts",
                "--limit", "10",
                "--replay", str(data_dir / REPLAY_GRID),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        cells = [p for p in out.iterdir() if p.is_dir()]
        assert len(cells) == 4
        for cell in cells:
            assert (cell / "report.json").exists()
            assert (cell / "manifest.json").exists()
        comparison = json.loads((out / "comparison.json").read_text())
        assert len(comparison["cells"]) == 4
        assert (out / "comparison.txt").exists()

    def test_grid_ranks_each_item_once_per_strategy(self, data_dir, store_dir, tmp_path,
                                                    monkeypatch):
        # every cell is ranked once per item at the grid's largest n and sliced; the
        # replay fixture holds the prompts of rankings made at each cell's own n
        calls = count_mol2cap_retrievals(monkeypatch)
        args = [
            "ablate", str(data_dir / "test_items.tsv"),
            "--store", str(store_dir),
            "--task", "mol2cap",
            "--grid-shots", "1,2,5",
            "--grid-strategies", "random,bm25,morgan_fts",
            "--limit", "10",
            "--replay", str(data_dir / REPLAY_GRID),
            "--out", str(tmp_path / "grid"),
        ]
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert len(calls) == 30  # 9 cells x 10 items when each cell ranks for itself
        assert len(set(calls)) == 30 and {n for _, _, n in calls} == {5}
        # a finished cell that is resumed ranks nothing
        calls.clear()
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert calls == []

    def test_repeated_grid_values_run_each_cell_once(self, data_dir, store_dir,
                                                     tmp_path, monkeypatch):
        # a repeated value once ran its cells twice and listed them twice
        calls = count_mol2cap_retrievals(monkeypatch)
        out = tmp_path / "grid"
        result = invoke(
            [
                "ablate", str(data_dir / "test_items.tsv"),
                "--store", str(store_dir),
                "--task", "mol2cap",
                "--grid-shots", "2,1,2",
                "--grid-strategies", "morgan_fts,random,morgan_fts",
                "--limit", "10",
                "--replay", str(data_dir / REPLAY_GRID),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert comparison["grid"] == {"n_shots": [2, 1], "strategies": ["morgan_fts", "random"]}
        assert [(cell["n_shots"], cell["strategy"]) for cell in comparison["cells"]] == [
            (2, "morgan_fts"), (2, "random"), (1, "morgan_fts"), (1, "random")]
        assert len((out / "comparison.txt").read_text(encoding="utf-8").splitlines()) == 2 + 4
        assert len(calls) == 20

    def test_shared_rankings_under_many_workers(self, data_dir, store_dir, tmp_path):
        # the workers of a cell fill one shared memo; with more workers than cores and
        # frequent thread switches the comparison must equal a one-worker run's
        args = [
            "ablate", str(data_dir / "test_items.tsv"),
            "--store", str(store_dir),
            "--task", "mol2cap",
            "--grid-shots", "1,2,5,10",
            "--limit", "10",
            "--replay", str(data_dir / REPLAY_GRID),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = invoke([*args, "--concurrency", "8", "--out", str(tmp_path / "a")])
        finally:
            sys.setswitchinterval(interval)
        one = invoke([*args, "--concurrency", "1", "--out", str(tmp_path / "b")])
        assert many.exit_code == 0 and one.exit_code == 0, many.output + one.output
        assert (tmp_path / "a" / "comparison.json").read_bytes() == (
            tmp_path / "b" / "comparison.json").read_bytes()

    def test_grid_resumes_after_interruption(self, data_dir, store_dir, tmp_path):
        out = tmp_path / "grid2"
        args = [
            "ablate", str(data_dir / "test_items.tsv"),
            "--store", str(store_dir),
            "--task", "mol2cap",
            "--grid-shots", "0,1",
            "--grid-strategies", "random",
            "--limit", "10",
            "--replay", str(data_dir / REPLAY_GRID),
            "--out", str(out),
        ]
        result = invoke(args)
        assert result.exit_code == 0
        cell = out / "cell_mol2cap_n1_random"
        before = (cell / "report.json").read_bytes()
        # wipe one cell; rerun should redo only that cell and leave results equal
        (cell / "report.json").unlink()
        result = invoke(args)
        assert result.exit_code == 0
        assert (cell / "report.json").read_bytes() == before

    def test_a_later_stale_cell_is_refused_before_any_item_runs(self, data_dir, store_dir,
                                                               tmp_path, monkeypatch):
        # every cell's checkpoint is checked against its manifest before the first cell's
        # items are sent, so no backend call is spent on a command that will be refused
        backend = ScriptedBackend(['{"caption": "x"}'])
        monkeypatch.setattr(cli, "_make_client", lambda config: nullcontext(ChatClient(backend)))
        out = tmp_path / "grid"
        stale = out / "cell_mol2cap_n1_random"
        stale.mkdir(parents=True)
        (stale / "manifest.json").write_text('{"n_shots": 7}', encoding="utf-8")
        (stale / "items.jsonl").write_text(
            '{"index": 0, "prediction": "", "reference": "", "status": "ok"}\n',
            encoding="utf-8")
        result = invoke([
            "ablate", str(data_dir / "test_items.tsv"), "--store", str(store_dir),
            "--task", "mol2cap", "--grid-shots", "0,1", "--grid-strategies", "random",
            "--limit", "5", "--replay", "unused.jsonl", "--out", str(out)])
        assert_one_line_error(result, "holds rows of a run with a different")
        assert backend.calls == 0
        assert not (out / "cell_mol2cap_n0_random").exists()

    def test_random_rows_reproducible_under_seed(self, data_dir, store_dir, tmp_path):
        outputs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            result = invoke(
                [
                    "ablate", str(data_dir / "test_items.tsv"),
                    "--store", str(store_dir),
                    "--task", "mol2cap",
                    "--grid-shots", "2",
                    "--grid-strategies", "random",
                    "--limit", "10",
                    "--seed", "0",
                    "--replay", str(data_dir / REPLAY_GRID),
                    "--out", str(out),
                ],
            )
            assert result.exit_code == 0, result.output
            outputs.append((out / "comparison.json").read_bytes())
        assert outputs[0] == outputs[1]


class TestBadPaths:
    @pytest.mark.parametrize("case, message", [
        ("missing", "cannot read template"),
        ("not-utf8", "cannot read template"),
        ("no-sections", "missing section(s)"),
    ], ids=["missing", "not-utf8", "no-sections"])
    @pytest.mark.parametrize("command", ["query", "evaluate", "ablate"])
    def test_bad_template_is_a_one_line_error(self, data_dir, store_dir, tmp_path,
                                              command, case, message):
        # each case once ended in a FileNotFoundError, UnicodeDecodeError or
        # PromptError traceback, and ablate had already created --out
        template = tmp_path / f"{case}.tmpl"
        if case == "not-utf8":
            template.write_bytes("## role\n\u00e9\n".encode("latin-1"))
        elif case == "no-sections":
            template.write_text("## role\nYou are a chemist.\n", encoding="utf-8")
        out = tmp_path / "out"
        args = command_args(command, data_dir, store_dir, out)
        result = invoke([*args, "--template", str(template)])
        assert_one_line_error(result, str(template), message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "query", "evaluate", "ablate"])
    def test_output_path_that_cannot_be_a_directory_is_a_one_line_error(
        self, data_dir, store_dir, tmp_path, monkeypatch, command
    ):
        # ingest once ended in a NotADirectoryError traceback, the others in FileExistsError
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        if command == "ingest":
            out = blocker / "store"
            args = ["ingest", str(data_dir / "corpus.tsv"), str(out)]
            message = f"cannot create store directory {out}"
        else:
            out = blocker
            args = command_args(command, data_dir, store_dir, out)
            message = f"cannot create directory {out}"
        # query writes under --out only the transcript of a failed calibration
        monkeypatch.setattr(cli, "_make_client", lambda config: nullcontext(ChatClient(
            ScriptedBackend(["no answer here"]), max_retries=0, backoff_base=0.0)))
        result = invoke(args)
        assert_one_line_error(result, message)
        assert blocker.read_text(encoding="utf-8") == "x"


class TestCommandLine:
    @pytest.mark.parametrize("command", ["", "ingest", "query", "evaluate", "ablate",
                                         "inspect-store"])
    def test_help_exits_0(self, command):
        result = invoke([*command.split(), "--help"])
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith(" ".join(["usage: molrag", *command.split()]))

    def test_version(self):
        result = invoke(["--version"])
        assert (result.exit_code, result.stdout) == (0, "molrag, version 0.1.0\n")

    @pytest.mark.parametrize("args", [["evaluate"], ["query", "CCO", "--n-shots", "two"],
                                      ["evaluate", "t.tsv", "--task", "mol2smiles"]],
                             ids=["no-test-file", "not-an-int", "unknown-task"])
    def test_usage_error_exits_2(self, args):
        result = invoke(args)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.startswith(f"usage: molrag {args[0]} ")

    @pytest.mark.parametrize("command, message", [
        (["ingest", "absent.tsv", "store"], "cannot read "),
        (["evaluate", "absent.tsv"], "cannot read "),
        (["inspect-store", "--store", "absent"], "manifest"),
    ], ids=["ingest", "evaluate", "inspect-store"])
    def test_missing_input_path_is_a_one_line_error(self, data_dir, store_dir, tmp_path,
                                                    command, message):
        # the loaders name the path that is missing; no usage error checks it first
        command = [str(tmp_path / arg) if arg.startswith(("absent", "store")) else arg
                   for arg in command]
        if command[0] == "evaluate":
            command += ["--store", str(store_dir), "--task", "mol2cap",
                        "--replay", str(data_dir / REPLAY_M2C), "--out", str(tmp_path / "out")]
        result = invoke(command)
        assert_one_line_error(result, str(tmp_path / "absent"), message)
        assert [path.name for path in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("error, message", [
        (CliError("a refused setting"), "a refused setting"),
        (StoreError("a store that cannot be read"), "a store that cannot be read"),
        (PromptError("a template without a section"), "a template without a section"),
        (BackendError("auth", "a refused key"), "[auth] a refused key"),
        (ReplayError("no fixture entry"), "no fixture entry"),
    ], ids=["CliError", "StoreError", "PromptError", "BackendError", "ReplayError"])
    def test_known_error_is_one_line(self, store_dir, monkeypatch, error, message):
        # main maps each through their one base class, which it imports without them
        def failing(directory):
            raise error

        monkeypatch.setattr(cli, "load_store", failing)
        result = invoke(["inspect-store", "--store", str(store_dir)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert (result.stdout, result.stderr) == ("", f"Error: {message}\n")

    def test_unknown_error_escapes(self, store_dir, monkeypatch):
        def failing(directory):
            raise RuntimeError("a fault in molrag")

        monkeypatch.setattr(cli, "load_store", failing)
        result = invoke(["inspect-store", "--store", str(store_dir)])
        assert isinstance(result.exception, RuntimeError)  # a traceback, not an Error: line
        assert result.output == ""

    def test_ctrl_c_is_aborted(self, store_dir, monkeypatch):
        def interrupted(directory):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_store", interrupted)
        result = invoke(["inspect-store", "--store", str(store_dir)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert (result.stdout, result.stderr) == ("", "\nAborted!\n")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["--version", "--help", "inspect-store"])
    def test_closed_stdout_pipe_exits_1_quietly(self, store_dir, command, unbuffered):
        # buffered, the write fails when stdout is flushed; unbuffered, at once
        args = [command, "--store", str(store_dir)] if command == "inspect-store" else [command]
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails
        try:
            proc = subprocess.run([sys.executable, "-m", "molrag.cli", *args], stdout=write,
                                  stderr=subprocess.PIPE, timeout=60,
                                  env=src_env(PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


def probe_command(*flags, command) -> dict:
    """What tests/cli_probe.py reports of one molrag command in a fresh interpreter. A
    probe that outlasts 120 s is asked to dump its threads' stacks (SIGUSR1), then
    killed, and the test fails with its stderr."""
    probe = subprocess.Popen(
        [sys.executable, str(Path(__file__).parent / "cli_probe.py"), *flags, "--", *command],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = probe.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        probe.send_signal(signal.SIGUSR1)
        with suppress(subprocess.TimeoutExpired):  # a hung probe runs on once it has dumped
            probe.wait(timeout=1)
        probe.kill()
        _, stderr = probe.communicate()
        pytest.fail(f"probe still running after 120 s; its stderr:\n{stderr}")
    assert probe.returncode == 0, stderr
    return json.loads(stdout)


def run_outputs(out: Path) -> dict[str, bytes]:
    """The bytes of every items.jsonl, report.json and comparison.json under out."""
    return {str(path.relative_to(out)): path.read_bytes()
            for name in ("items.jsonl", "report.json", "comparison.json")
            for path in out.rglob(name)}


def ranking_pids(probed: dict) -> set[int]:
    return {pid for pid, _, _ in probed["rankings"]}


class TestRankingWorkers:
    """evaluate and ablate rank their items in forked worker processes or in this one;
    both write alike."""

    @pytest.mark.parametrize("command, task", [
        ("evaluate", "mol2cap"), ("evaluate", "cap2mol"), ("ablate", "mol2cap"),
        ("ablate", "cap2mol")])
    def test_workers_rank_what_one_process_ranks(self, data_dir, store_dir, tmp_path, command,
                                                 task):
        # evaluate replays its fixture; ablate ranks every strategy of the task, its
        # prompts answered with their digests so each reply follows the examples.
        # Each worker waits in its first ranking for the other to begin one: else the
        # first to start may rank both blocks of an evaluate before the other starts.
        args = [command, str(data_dir / "test_items.tsv"), "--store", str(store_dir),
                "--task", task]
        if command == "evaluate":
            args += ["--n-shots", "2", "--replay",
                     str(data_dir / (REPLAY_M2C if task == "mol2cap" else REPLAY_C2M))]
            flags = ["--meet", "2"]
        else:
            args += ["--grid-shots", "0,2,5", "--grid-strategies",
                     ",".join(TASKS[task].strategies), "--replay", str(data_dir / REPLAY_GRID)]
            flags = ["--meet", "2", "--echo"]
        here, workers = (
            probe_command("--cpus", cpus, *flags, command=[*args, "--out", str(tmp_path / cpus)])
            for cpus in ("1", "2"))
        assert here["exit_code"] == workers["exit_code"] == 0, here["output"] + workers["output"]
        assert here["forks"] == 0 and ranking_pids(here) == {here["pid"]}
        assert workers["forks"] == 2 and len(ranking_pids(workers)) == 2
        assert workers["pid"] not in ranking_pids(workers)
        assert sorted(r[1:] for r in workers["rankings"]) == sorted(r[1:] for r in here["rankings"])
        assert len(here["rankings"]) == 50 * (1 if command == "evaluate" else len(
            TASKS[task].strategies))
        assert run_outputs(tmp_path / "2") == run_outputs(tmp_path / "1") != {}

    def test_one_worker_per_block_up_to_the_cpus(self, data_dir, store_dir, tmp_path):
        probed = probe_command("--cpus", "8", command=eval_args(data_dir, store_dir,
                                                                tmp_path / "a"))
        assert probed["exit_code"] == 0 and probed["forks"] == 2  # 50 items: 2 blocks
        probed = probe_command("--cpus", "4", "--block", "8",
                               command=eval_args(data_dir, store_dir, tmp_path / "b"))
        assert probed["exit_code"] == 0 and probed["forks"] == 4  # 7 blocks
        # the 20 items of each strategy of a small grid are one block: ranked here
        probed = probe_command("--cpus", "2", "--echo", command=[
            "ablate", str(data_dir / "test_items.tsv"), "--store", str(store_dir),
            "--task", "mol2cap", "--limit", "20", "--replay", str(data_dir / REPLAY_GRID),
            "--out", str(tmp_path / "grid")])
        assert probed["exit_code"] == 0, probed["output"]
        assert probed["forks"] == 0 and not probed["multiprocessing_imported"]
        assert ranking_pids(probed) == {probed["pid"]} and len(probed["rankings"]) == 60

    # on one CPU the 2 blocks of 50 items go to the ranking thread, which also ends. In
    # the auth cases each item is a block and each ranking takes 50 ms, so the ranking
    # keeps pace with the sends: once the error sets the stop flag, each worker ranks
    # at most the item it has begun.
    @pytest.mark.parametrize("cpus, flags, error", [
        ("2", ["--echo"], None),
        ("2", ["--echo", "--auth-after", "10", "--block", "1", "--rank-delay", "0.05"],
         "Error: [auth] scripted auth"),
        ("2", ["--echo", "--exit-on", "CCO"], "Error: a worker process ranking items ended abruptly"),
        ("1", ["--echo"], None),
        ("1", ["--echo", "--auth-after", "10", "--block", "1", "--rank-delay", "0.05"],
         "Error: [auth] scripted auth"),
    ], ids=["finished", "auth-error-mid-run", "worker-dies", "finished-one-cpu",
            "auth-error-one-cpu"])
    def test_no_worker_outlives_the_command(self, data_dir, store_dir, tmp_path, cpus, flags,
                                            error):
        probed = probe_command("--cpus", cpus, *flags,
                               command=eval_args(data_dir, store_dir, tmp_path / "out"))
        assert probed["forks"] == (2 if cpus == "2" else 0)
        assert probed["live_children"] == 0 and not probed["any_child"]
        assert probed["threads"] == 1
        if error is None:
            assert probed["exit_code"] == 0, probed["output"]
        else:
            assert probed["exit_code"] == 1 and not probed["traceback"]
            assert probed["output"].startswith(error) and probed["output"].count("\n") == 1
        if "--auth-after" in flags:
            assert len(probed["rankings"]) <= probed["sends"] + int(cpus)

    def test_a_resumed_run_ranks_only_the_items_it_runs(self, data_dir, store_dir, test_records,
                                                       tmp_path):
        full = tmp_path / "full"
        probed = probe_command("--cpus", "1", command=eval_args(data_dir, store_dir, full))
        assert probed["exit_code"] == 0, probed["output"]
        missing = {3, 17, 30, 41, 49}
        rows = (full / "items.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        # one block of 32 holds the 5 missing items and is ranked here; blocks of 2 are
        # 3, ranked by 2 workers
        for block, forks in (("32", 0), ("2", 2)):
            out = tmp_path / f"resumed-{block}"
            out.mkdir()
            (out / "manifest.json").write_bytes((full / "manifest.json").read_bytes())
            (out / "items.jsonl").write_text(
                "".join(row for row in rows if json.loads(row)["index"] not in missing),
                encoding="utf-8")
            probed = probe_command("--cpus", "2", "--block", block,
                                   command=eval_args(data_dir, store_dir, out))
            assert probed["exit_code"] == 0, probed["output"]
            assert probed["forks"] == forks
            assert sorted(query for _, _, query in probed["rankings"]) == sorted(
                test_records[i].smiles for i in missing)
            assert (probed["pid"] in ranking_pids(probed)) == (forks == 0)
            assert run_outputs(out) == run_outputs(full)


@pytest.mark.parametrize("golden, command, replay, options, artefact", [
    ("report_eval_mol2cap.json", "evaluate", REPLAY_M2C,
     ["--task", "mol2cap", "--n-shots", "2"], "report.json"),
    ("report_eval_cap2mol.json", "evaluate", REPLAY_C2M,
     ["--task", "cap2mol", "--n-shots", "2", "--strategy", "bm25"], "report.json"),
    ("comparison_ablate_mol2cap.json", "ablate", REPLAY_GRID,
     ["--task", "mol2cap", "--limit", "10"], "comparison.json"),
], ids=["evaluate-mol2cap", "evaluate-cap2mol", "ablate-mol2cap"])
def test_replay_artefacts_match_goldens(data_dir, store_dir, tmp_path,
                                        golden, command, replay, options, artefact):
    """The replay runs of the CI step "Installed console script runs end to end" write
    exactly the bytes of tests/data/golden. After a deliberate change to a report,
    regenerate a golden with that step's command and copy its artefact over, e.g.

        molrag ingest tests/data/corpus.tsv STORE
        molrag evaluate tests/data/test_items.tsv --store STORE --task mol2cap \\
            --n-shots 2 --replay tests/data/replay_eval_mol2cap.jsonl --out OUT
        cp OUT/report.json tests/data/golden/report_eval_mol2cap.json
    """
    out = tmp_path / "out"
    result = invoke([
        command, str(data_dir / "test_items.tsv"), "--store", str(store_dir), *options,
        "--replay", str(data_dir / replay), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert (out / artefact).read_bytes() == (data_dir / "golden" / golden).read_bytes()


@pytest.mark.parametrize("golden, item, task, strategy, replay", [
    ("query_mol2cap_evicted.json", 13, "mol2cap", "morgan_fts", REPLAY_M2C),
    ("query_cap2mol_pattern.json", 11, "cap2mol", "bm25", REPLAY_C2M),
], ids=["mol2cap", "cap2mol"])
def test_query_stdout_matches_golden(data_dir, store_dir, test_records,
                                     golden, item, task, strategy, replay):
    """The queries of the CI step "Installed console script runs end to end" print exactly
    their goldens. Test item 13's mol2cap replay fixture forces a context-length eviction,
    so examples_used lists both retrieved ids while final_shot_count is 1; item 11's
    cap2mol reply is bare prose, which the pattern fallback repairs. After a deliberate
    change, regenerate a golden with its CI command."""
    field = "smiles" if task == "mol2cap" else "caption"
    result = invoke([
        "query", getattr(test_records[item], field), "--store", str(store_dir),
        "--task", task, "--n-shots", "2", "--strategy", strategy,
        "--replay", str(data_dir / replay),
    ])
    assert result.exit_code == 0, result.output
    assert result.stdout.encode("utf-8") == (data_dir / "golden" / golden).read_bytes()


def test_report_and_comparison_tables_keep_their_bytes():
    # one column formatter lays out report.txt and comparison.txt
    assert render_table(build_report(pairs(SMILES_PAIRS), "cap2mol", {})) == (
        "task: cap2mol\n"
        "BLEU-2  BLEU-4  EM     Levenshtein  MACCS FTS  RDK FTS  Morgan FTS  FCD  Text2Mol  Validity\n"
        "-------------------------------------------------------------------------------------------\n"
        "0.287   0.001   0.200  3.20         n/a        n/a      0.280       n/a  n/a       0.800   \n"
        "\n"
        "items: 5  calibration_failed: 0\n"
        "valid: 4  invalid: 1\n"
    )
    assert render_table(build_report(pairs(CAPTION_PAIRS), "mol2cap", {})) == (
        "task: mol2cap\n"
        "BLEU-2  BLEU-4  ROUGE-1  ROUGE-2  ROUGE-L  METEOR  Text2Mol\n"
        "-----------------------------------------------------------\n"
        "0.412   0.385   0.467    0.371    0.467    n/a     n/a     \n"
        "\n"
        "items: 5  calibration_failed: 0\n"
    )
    cells = [(2, "morgan_fts", 0.5, 0.25, 0.125), (10, "bm25", 0.0625, 0.0, 1.0),
             (0, "random", 0.375, 1.0, 0.0)]
    comparison = {"cells": [
        {"n_shots": n, "strategy": name, "metrics": {"bleu2": b, "em": e, "rouge_l": r}}
        for n, name, b, e, r in cells
    ]}
    assert _comparison_table(comparison) == (
        "method               bleu2  em     rouge_l\n"
        "------------------------------------------\n"
        "0-shot (random)      0.375  1.000  0.000  \n"
        "2-shot (morgan_fts)  0.500  0.250  0.125  \n"
        "10-shot (bm25)       0.062  0.000  1.000  \n"
    )
