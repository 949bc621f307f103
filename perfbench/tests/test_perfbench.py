"""Tests of the benchmark itself, on the bundled fixtures (smoke mode).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import stub  # noqa: E402
from reference import Reference, read_tsv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FIXTURES = ROOT / "tests" / "data"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert "outputs sha256" in proc.stdout


def test_end_to_end_metrics_are_never_zero():
    proc = _run(ROOT, "--workload", "ablate-small", "--seed", "0", "--seconds", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corpus_is_a_function_of_the_seed(tmp_path):
    first = corpus.generate(tmp_path / "a", 3, 300, 60)
    corpus.generate(tmp_path / "b", 3, 300, 60)
    corpus.generate(tmp_path / "c", 4, 300, 60)
    for name in ("train.tsv", "test.tsv", "stats.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    train = [(tmp_path / d / "train.tsv").read_bytes() for d in "ac"]
    assert train[0] != train[1]
    stats = json.loads((tmp_path / "a" / "stats.json").read_text())
    assert {"heavy_atoms", "caption_tokens", "vocabulary_size", "quarantined_share",
            "test_duplicate_share"} <= set(stats)
    # rows the generator broke are exactly the rows the parser rejects
    kept = {row[0] for row in read_tsv(tmp_path / "a" / "train.tsv")}
    assert len(kept) == 300 - len(first["bad_train_cids"])
    assert not kept & first["bad_train_cids"]


def test_stub_classes_hold_their_share():
    fake = stub.Stub.__new__(stub.Stub)
    queries = [f"query {i}" for i in range(200)]
    stub.Stub.plan(fake, queries)
    classes = [stub.Stub.classify(fake, q) for q in queries]
    for name, share in stub.CLASS_SHARES:
        assert classes.count(name) == math.ceil(share * len(queries))


SYSTEM = ('## examples\nExample 1:\nInput: CCO\nOutput: {"caption": "first"}\n\n'
          'Example 2:\nInput: CCC\nOutput: {"caption": "second"}\n\n## output_instruction\nx')


def _offline_stub(watch=()):
    fake = stub.Stub.__new__(stub.Stub)
    fake.boundaries, fake.watch = [], set(watch)
    fake.lock = threading.Lock()
    stub.Stub.reset(fake)
    return fake


def test_stub_copies_the_top_example():
    assert stub.parse_examples(SYSTEM) == ("caption", [("CCO", "first"), ("CCC", "second")])
    fake = _offline_stub()
    status, body = stub.Stub.answer(fake, SYSTEM, "Input: CC")
    assert status == 200
    assert json.loads(body["choices"][0]["message"]["content"]) == {"caption": "first"}


def test_stub_logs_one_prompt_per_cell():
    fake = _offline_stub(watch={"CC"})
    fake.classify = lambda query: "rate_once"
    assert stub.Stub.answer(fake, SYSTEM, "Input: CC")[0] == 429
    assert stub.Stub.answer(fake, SYSTEM, "Input: CC")[0] == 200
    # a second cell that sends the same prompt is logged again
    assert stub.Stub.answer(fake, SYSTEM, "Input: CC")[0] == 200
    assert fake.log["CC"] == [[("CCO", "first"), ("CCC", "second")]] * 2


def test_reference_bm25_agrees_with_molrag():
    from molrag import bm25

    ref = Reference(FIXTURES / "corpus.tsv")
    index = bm25.build_index([c for _, _, c in ref.records], tokenizer_mode="caption")
    query = "an aromatic carboxylic acid with a role as a solvent"
    order, scores = ref.ranking("bm25_caption", query)
    ranked = bm25.top_n(index, query, len(ref.records))
    for (doc, score) in ranked:
        assert abs(scores[doc] - score) <= 1e-9
    assert [doc for doc, _ in ranked][:10] == order[:10]


def test_reference_rejects_a_wrong_ranking():
    ref = Reference(FIXTURES / "corpus.tsv")
    query = "Cc1ccc(O)cc1"
    order, _ = ref.ranking("morgan_fts", query)
    top = [ref.pair(i, "mol2cap") for i in order[:5]]
    assert ref.matches("morgan_fts", query, "mol2cap", top)
    assert not ref.matches("morgan_fts", query, "mol2cap", top[::-1])
    assert not ref.matches("morgan_fts", query, "mol2cap", [ref.pair(order[-1], "mol2cap")])
    # the query's own graph, written in another atom order, is excluded
    own = [i for i, rec in enumerate(ref.records) if rec[1] == "Cc1ccc(O)cc1"]
    assert own and not set(own) & set(order)


def test_tracer_wraps_every_binding_site():
    code = (
        "import sys; sys.path[:0] = ['perfbench', 'src']\n"
        "import tracer; t = tracer.Tracer(); t.install()\n"
        "import molrag.store, molrag.metrics, molrag.cli, molrag.calibration, molrag.smiles\n"
        "import molrag.smiles.validity, molrag.smiles.parser, molrag.bm25\n"
        "sites = [molrag.store.parse_smiles, molrag.metrics.parse_smiles,\n"
        "         molrag.smiles.validity.parse_smiles, molrag.smiles.parse_smiles,\n"
        "         molrag.smiles.parser.parse_smiles, molrag.cli.load_store,\n"
        "         molrag.cli.build_report, molrag.calibration.retrieve_mol2cap,\n"
        "         molrag.bm25._TOKENIZERS['caption'], molrag.store.dice_similarity]\n"
        "assert all(hasattr(f, '__wrapped__') for f in sites), sites\n"
        "assert len({id(f) for f in sites[:5]}) == 1\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
