"""molrag benchmark: drive the unmodified CLI on a seeded ChEBI-20-shaped corpus.

Run from the repository root:

    python3 perfbench/run.py --workload mol2cap-fts --seed 1 --seconds 36 --trace 0

Each run generates its corpus from the seed, starts the loopback stub backend
(``stub.py``), and runs ``python3 -m molrag.cli`` in child processes against
``src/``, in rounds of ``ingest`` (``setup_s``), cold ``query`` calls
(``query_s``) and the workload's ``evaluate`` or ``ablate`` command
(``items_per_s``, ``peak_rss_mb``, ``failed_share``) until ``--seconds`` have
passed. Every command's outputs are checked; the last stdout line is the JSON
result, and the exit code is 1 when a check failed (2 without molrag sources).

With ``--trace 1`` the run instead makes one untraced and one traced pass and
prints the per-layer metrics of ``layers.py`` (see ``tracer.py``).
``--smoke`` runs the workload on the bundled test fixtures in a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import layers  # noqa: E402
from stub import ZERO_SHOT_ANSWER, Stub  # noqa: E402

# Split sizes are ChEBI-20's (26,407 train; 3,300 test and validation) over
# SCALE. At full size one ingest takes ~35 s and one store load ~13 s on a
# 2-core x86 VM, so a run could not repeat its set-up. The 8:1 ratio between
# the train and validation stores is kept: retrieval stays ~8x cheaper on
# ablate-small.
SCALE = 16
SHOTS = 10
CONCURRENCY = 2
MIN_ROUNDS = 3
# Seconds each round spends at least on ingests and on cold queries.
INGEST_FLOOR_S = 1.0
QUERY_FLOOR_S = 3.0
MIN_ROUNDS_SMOKE = 2
QUERY_INPUTS = 8
SAMPLE_ITEMS = 6
SAMPLE_DUPLICATES = 2
# A run must end within 180 s; a child that hangs is killed before that.
RUN_DEADLINE_S = 170


@dataclass(frozen=True)
class Workload:
    command: str  # evaluate | ablate
    task: str
    strategy: str  # CLI strategy name (ablate: the one its cold queries use)
    store_size: int
    items: int  # per grid cell


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mol2cap-fts": Workload("evaluate", "mol2cap", "morgan_fts",
                            corpus.CHEBI20_SPLITS["train"] // SCALE, 200),
    "cap2mol-bm25": Workload("evaluate", "cap2mol", "bm25",
                             corpus.CHEBI20_SPLITS["train"] // SCALE, 80),
    "ablate-small": Workload("ablate", "mol2cap", "morgan_fts",
                             corpus.CHEBI20_SPLITS["validation"] // SCALE, 20),
}
# CLI strategy name -> store strategy kind, per task
STRATEGY_KIND = {
    ("mol2cap", "morgan_fts"): "morgan_fts", ("mol2cap", "bm25"): "bm25_smiles_chargram",
    ("mol2cap", "random"): "random", ("cap2mol", "bm25"): "bm25_caption",
    ("cap2mol", "random"): "random",
}
GRID_SHOTS = (0, 1, 2, 5, 10)
GRID_STRATEGIES = ("random", "bm25", "morgan_fts")
DIGESTED = ("report.json", "items.jsonl", "comparison.json")
CORPUS_STATS = ("heavy_atoms", "caption_tokens", "vocabulary_size", "quarantined_share",
                "test_duplicate_share")


class CheckFailed(Exception):
    pass


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    status: int
    stdout: str


class Runner:
    """Starts molrag CLI children against ``src/`` and waits for each one."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PYTHONHASHSEED", "MOLRAG_API_KEY")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.seq = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, args: list[str], trace_to: Path | None = None) -> Child:
        self.seq += 1
        out_path = self.work / f"child-{self.seq}.out"
        err_path = self.work / f"child-{self.seq}.err"
        if trace_to is None:
            argv = [sys.executable, "-m", "molrag.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_to), *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            try:
                status, usage = _wait(proc, max(1.0, self.deadline - time.monotonic()))
            except BaseException:
                # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        if status != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            log(f"molrag {' '.join(args[:1])} exited with {status}:\n{tail}")
        return Child(wall, usage.ru_maxrss / 1024.0, status, stdout)


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc``; return (exit status, the child's own rusage)."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        log(f"child ended by signal {-proc.returncode}")
    return proc.returncode, usage


def _digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.name in DIGESTED):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, smoke: bool, root: Path,
                 work: Path, stub: Stub) -> None:
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.smoke = smoke
        self.work = work
        self.stub = stub
        self.runner = Runner(root, work)
        self.problems: list[str] = []
        self.unexpected = 0

        if smoke:
            data = root / "tests" / "data"
            self.train_tsv, self.test_tsv = data / "corpus.tsv", data / "test_items.tsv"
            self.item_limit = 8
            self.bad_train = None
            self.duplicates = set()
        else:
            stats = corpus.generate(work / "corpus", seed, self.wl.store_size,
                                    corpus.CHEBI20_SPLITS["test"] // SCALE)
            self.train_tsv = work / "corpus" / "train.tsv"
            self.test_tsv = work / "corpus" / "test.tsv"
            self.item_limit = self.wl.items
            self.bad_train = len(stats["bad_train_cids"])
            self.duplicates = stats["dup_test_cids"]
            log(f"corpus: {json.dumps({k: v for k, v in stats.items() if k in CORPUS_STATS})}")

        from reference import Reference, read_tsv

        self.ref = Reference(self.train_tsv)
        test_rows = read_tsv(self.test_tsv)
        self.items = test_rows[: self.item_limit]
        if not self.items:
            raise CheckFailed(f"no usable test items in {self.test_tsv}")
        col = 1 if self.wl.task == "mol2cap" else 2
        self.queries = [row[col] for row in self.items]
        extra = [row[col] for row in test_rows[self.item_limit :]]
        stub.plan(self.queries)
        self.query_inputs = [q for q in extra + self.queries if stub.classify(q) == "plain"]
        if not self.query_inputs:
            raise CheckFailed("no test item for the cold queries")
        del self.query_inputs[QUERY_INPUTS:]
        # Items the stub always fails resend their prompt until the program
        # gives up, and a query text two items share logs twice per cell.
        counts = Counter(self.queries)
        usable = [i for i, q in enumerate(self.queries)
                  if counts[q] == 1 and stub.classify(q) != "garbage"]
        dups = [i for i in usable if self.items[i][0] in self.duplicates]
        self.sample = sorted(set(usable[:SAMPLE_ITEMS] + dups[:SAMPLE_DUPLICATES]))
        stub.watch = {self.queries[i] for i in self.sample}
        self.position = {rec[0]: i for i, rec in enumerate(self.ref.records)}
        self.outputs = {rec[2] if self.wl.task == "mol2cap" else rec[1] for rec in self.ref.records}
        self.outputs.add(ZERO_SHOT_ANSWER["caption" if self.wl.task == "mol2cap" else "molecule"])

        self.backend = work / "backend.json"
        self.backend.write_text(json.dumps({
            "endpoint_url": stub.url, "model_name": "loopback-stub", "retry_backoff_base": 0,
            "max_retries": 3, "request_timeout": 30}))

    def fail(self, message: str) -> None:
        log(f"CHECK FAILED: {message}")
        self.problems.append(message)

    # -- set-up ---------------------------------------------------------------

    def ingest(self, index: int, trace_to: Path | None = None) -> tuple[Path, float]:
        store = self.work / f"store-{index}"
        child = self.runner.run(["ingest", str(self.train_tsv), str(store)], trace_to)
        if child.status != 0:
            raise CheckFailed("ingest failed")
        report = json.loads(child.stdout)
        if report["ingested"] != len(self.ref.records):
            self.fail(f"ingest kept {report['ingested']} rows, "
                      f"reference keeps {len(self.ref.records)}")
        if self.bad_train is not None and len(report["quarantined"]) != self.bad_train:
            self.fail(f"ingest quarantined {len(report['quarantined'])} rows, "
                      f"corpus has {self.bad_train} bad")
        return store, child.wall_s

    # -- cold queries ---------------------------------------------------------

    def query(self, store: Path, text: str, trace_to: Path | None = None) -> float:
        self.stub.reset()
        child = self.runner.run(
            ["query", text, "--store", str(store), "--task", self.wl.task, "--strategy",
             self.wl.strategy, "--n-shots", str(SHOTS), "--backend", str(self.backend)], trace_to)
        if child.status != 0:
            self.fail("query command failed")
            return child.wall_s
        self._check_statuses()
        payload = json.loads(child.stdout)
        kind = STRATEGY_KIND[(self.wl.task, self.wl.strategy)]
        got = [self.ref.pair(self.position.get(cid, -1), self.wl.task)
               for cid in payload["examples_used"]]
        if not self.ref.matches(kind, text, self.wl.task, got):
            self.fail(f"query {text[:40]!r}: examples {payload['examples_used']} "
                      "differ from the reference")
        if payload["output"] not in {output for _, output in got}:
            self.fail(f"query {text[:40]!r}: output is not one of the examples' outputs")
        return child.wall_s

    def _check_statuses(self) -> None:
        odd = {k: v for k, v in self.stub.by_status.items() if k not in (200, 400, 429)}
        if odd:
            self.fail(f"stub answered with unexpected statuses {odd}")

    # -- the measured command ------------------------------------------------

    def command_args(self, store: Path, out: Path) -> list[str]:
        common = ["--store", str(store), "--task", self.wl.task, "--backend", str(self.backend),
                  "--out", str(out), "--concurrency", str(CONCURRENCY),
                  "--limit", str(self.item_limit)]
        if self.wl.command == "evaluate":
            return ["evaluate", str(self.test_tsv), *common, "--strategy", self.wl.strategy,
                    "--n-shots", str(SHOTS)]
        return ["ablate", str(self.test_tsv), *common]

    def cells(self) -> list[tuple[int, str]]:
        if self.wl.command == "evaluate":
            return [(SHOTS, self.wl.strategy)]
        return [(n, s) for n in GRID_SHOTS for s in GRID_STRATEGIES]

    def evaluate(self, store: Path, index: int, check_rankings: bool,
                 trace_to: Path | None = None) -> tuple[Child, str, int, int]:
        """Run the workload command once; return (child, digest, attempted, calibration_failed)."""
        self.stub.reset()
        out = self.work / f"run-{index}"
        child = self.runner.run(self.command_args(store, out), trace_to)
        cells = self.cells()
        attempted = len(self.items) * len(cells)
        if child.status != 0:
            self.fail(f"{self.wl.command} command failed")
            self.unexpected += attempted
            return child, "", attempted, attempted
        self._check_statuses()
        failed = 0
        for n, strategy in cells:
            cell = out
            if self.wl.command == "ablate":
                cell = out / f"cell_{self.wl.task}_n{n}_{strategy}"
            failed += self._check_cell(cell, n)
        if self.wl.command == "ablate":
            comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
            got = sorted((c["n_shots"], c["strategy"], c["counts"]["items"])
                         for c in comparison["cells"])
            if got != sorted((n, s, len(self.items)) for n, s in cells):
                self.fail("comparison.json cells or item counts differ from the grid")
        if check_rankings:
            self._check_rankings(cells)
        digest = _digest(out)
        shutil.rmtree(out, ignore_errors=True)
        return child, digest, attempted, failed

    def _check_cell(self, cell: Path, n_shots: int) -> int:
        report = json.loads((cell / "report.json").read_text(encoding="utf-8"))
        rows = [json.loads(line) for line in
                (cell / "items.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
        if report["counts"]["items"] != len(self.items) or len(rows) != len(self.items):
            self.fail(f"{cell.name}: report counts {report['counts']['items']} items, "
                      f"{len(rows)} rows, attempted {len(self.items)}")
        failed = 0
        for row in rows:
            expect_fail = self.stub.classify(row["input"]) == "garbage"
            if row["status"] == "calibration_failed":
                failed += 1
            if (row["status"] == "calibration_failed") != expect_fail:
                self.unexpected += 1
                self.fail(f"{cell.name}: item {row['index']} status {row['status']}")
            elif not expect_fail and row["prediction"] not in self.outputs:
                self.unexpected += 1
                self.fail(f"{cell.name}: item {row['index']} prediction is no store output")
            elif (n_shots == 0 and not expect_fail
                  and row["prediction"] not in ZERO_SHOT_ANSWER.values()):
                self.unexpected += 1
                self.fail(f"{cell.name}: zero-shot item {row['index']} saw examples")
        if report["counts"]["calibration_failed"] != failed:
            self.fail(f"{cell.name}: report counts {report['counts']['calibration_failed']} "
                      f"failures, items show {failed}")
        return failed

    def _check_rankings(self, cells) -> None:
        """The examples the stub received for sampled items equal the reference top-n.

        The stub logs one prompt per item and cell, leaving out the retries it
        scripted, and cells run one after another in grid order. So the k-th
        prompt logged for an item belongs to the k-th cell, and no prompt can
        stand in for another cell whose reference happens to be the same.
        """
        for i in self.sample:
            query = self.queries[i]
            received = self.stub.log.get(query, [])
            if len(received) != len(cells):
                self.unexpected += 1
                self.fail(f"item {i}: the stub logged {len(received)} prompts "
                          f"for {len(cells)} cells")
                continue
            for (n, strategy), got in zip(cells, received):
                kind = STRATEGY_KIND.get((self.wl.task, strategy))
                if len(got) != n or (n and kind != "random"
                                     and not self.ref.matches(kind, query, self.wl.task, got)):
                    self.unexpected += 1
                    self.fail(f"item {i} ({strategy}, {n}-shot): prompt examples differ "
                              "from the reference ranking")

    # -- runs ----------------------------------------------------------------

    def measure(self) -> tuple[dict, int]:
        """Rounds of ingests, cold queries and one command, until ``seconds`` have passed.

        A shared 2-vCPU VM runs a process up to 40% slower in phases that last
        from a few seconds to minutes. Interleaving spreads every metric's
        samples over the whole run. Each round repeats ingest and query until
        it has spent ``INGEST_FLOOR_S`` and ``QUERY_FLOOR_S`` on them, so short
        commands get more samples; cold queries get the most, as they vary
        most. A cold query lasts well under a second, so its samples fall
        into a fast and a slow mode, and their median jumps between the two
        as the mix shifts; ``query_s`` and ``items_per_s`` are therefore
        ratios of totals over the run, which move smoothly with the mix.
        ``setup_s`` stays a median. Every sample of a metric takes the same
        place in the round: a query started right after a long command ran
        ~25% slower than one started after an ingest.
        """
        setups, query_s, rates, rss, digests = [], [], [], [], set()
        attempted = failed = 0
        command_s = 0.0
        start = time.perf_counter()
        min_rounds = MIN_ROUNDS_SMOKE if self.smoke else MIN_ROUNDS
        while len(rates) < min_rounds or (not self.smoke and self._round_fits(start, len(rates))):
            rnd = len(rates)
            spent = 0.0
            while spent < INGEST_FLOOR_S or not spent:
                store, wall = self.ingest(len(setups))
                setups.append(wall)
                spent += wall
            spent = 0.0
            while spent < QUERY_FLOOR_S or not spent:
                text = self.query_inputs[len(query_s) % len(self.query_inputs)]
                query_s.append(self.query(store, text))
                spent += query_s[-1]
            child, digest, n, f = self.evaluate(store, rnd, check_rankings=rnd == 0)
            for old in self.work.glob("store-*"):
                shutil.rmtree(old, ignore_errors=True)
            attempted += n
            failed += f
            command_s += child.wall_s
            rates.append(n / child.wall_s)
            rss.append(child.rss_mb)
            digests.add(digest)
        if len(digests) != 1:
            self.fail(f"outputs differ between runs of one seed: {sorted(digests)}")
        print(f"perfbench: outputs sha256 {sorted(digests)[0]}", flush=True)
        log(f"{len(rates)} rounds; items/s {['%.2f' % r for r in rates]}; "
            f"setup {['%.3f' % s for s in setups]}; query {['%.3f' % q for q in query_s]}")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_s": (statistics.fmean(query_s), "s"),
            "items_per_s": (attempted / command_s, "items/s"),
            "peak_rss_mb": (statistics.median(rss), "MiB"),
            "failed_share": (failed / attempted, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted

    def _round_fits(self, start: float, rounds: int) -> bool:
        """Start another round if at least half of a typical round fits in ``seconds``."""
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / rounds / 2 < self.seconds

    def trace(self) -> tuple[dict, int]:
        store, _ = self.ingest(0)
        plain, digest, attempted, _ = self.evaluate(store, 0, check_rankings=True)
        spans = layers.Spans()
        span_files = [self.work / f"spans-{k}.jsonl" for k in ("ingest", "query", "run")]
        self.ingest(1, span_files[0])
        self.query(store, self.query_inputs[0], span_files[1])
        traced, traced_digest, n, _ = self.evaluate(store, 1, check_rankings=False,
                                                    trace_to=span_files[2])
        if traced_digest != digest:
            self.fail("traced outputs differ from untraced outputs")
        print(f"perfbench: outputs sha256 {digest}", flush=True)
        for path in span_files:
            spans.add_file(path)
        command_spans = layers.Spans()
        command_spans.add_file(span_files[2])
        log(f"traced {self.wl.command}: {traced.wall_s:.2f} s; self-time shares "
            f"{json.dumps(layers.time_shares(command_spans, traced.wall_s))}")
        missing = layers.missing_calls(spans, layers.REQUIRED_ALWAYS + self.required())
        if missing:
            self.fail(f"traced functions with zero calls: {missing}")
        ratio = (n / traced.wall_s) / (attempted / plain.wall_s)
        return layers.layer_metrics(spans, ratio), attempted + n

    def required(self) -> tuple[str, ...]:
        if self.wl.command == "ablate":
            return ("bm25.top_n", "store.retrieve_mol2cap", "fingerprint.dice_similarity",
                    "metrics.bleu_n", "metrics.rouge_scores")
        if self.wl.task == "mol2cap":
            return ("store.retrieve_mol2cap", "fingerprint.dice_similarity",
                    "metrics.bleu_n", "metrics.rouge_scores")
        return ("store.retrieve_cap2mol", "bm25.top_n", "smiles.is_valid_smiles",
                "smiles.molecules_equal", "metrics.exact_match_rate", "metrics.morgan_fts_stats",
                "metrics.levenshtein_mean", "metrics.validity_rate", "metrics.bleu_n")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="use the bundled test fixtures instead of a generated corpus")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "molrag" / "cli.py").is_file():
        log(f"no molrag sources under {root / 'src'}; run from the repository root")
        return 2
    work = root / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(root / "src"))
    try:
        with Stub() as stub:
            bench = Bench(args.workload, args.seed, args.seconds, args.smoke, root, work, stub)
            metrics, attempted = bench.trace() if args.trace else bench.measure()
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": bench.unexpected,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
