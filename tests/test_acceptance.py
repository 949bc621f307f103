"""Acceptance suite: one test per acceptance criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The graph-identity
criterion uses the full ChEBI-20 test split when the CHEBI20_TEST_TSV
environment variable points at it; otherwise it runs on the bundled fixture
corpora at the same thresholds.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from molrag.bm25 import build_index, tokenize, top_n
from molrag.calibration import (
    CalibrationFailure,
    calibrated_query,
    extract_payload,
)
from molrag.cli import main
from molrag.fingerprint import (
    DegenerateInput,
    FingerprintParams,
    dice_similarity,
    morgan_environments,
    morgan_fingerprint,
)
from molrag.llm import ChatClient
from molrag.metrics import (
    EvalPair,
    bleu_n,
    exact_match_rate,
    levenshtein,
    levenshtein_mean,
    molecule_scores,
    morgan_fts_stats,
    rouge_scores,
    validity_rate,
)
from molrag.prompt import CAPTION_MASK, MOLECULE_MASK, build_prompt, default_template
from molrag.smiles import molecules_equal, parse_smiles
from molrag.store import RetrievalStrategy, load_chebi_tsv, retrieve_mol2cap, save_store
from backends import ScriptedBackend
from oracles import (
    all_environment_signatures,
    bm25_rank_direct,
    fingerprint_of,
    permute_molecule,
    query_fingerprint,
)
from test_metrics import (
    CAPTION_PAIRS,
    HAND_BLEU2,
    HAND_BLEU4,
    HAND_LEV,
    HAND_ROUGE1,
    HAND_ROUGE2,
    HAND_ROUGEL,
    SMILES_PAIRS,
)

DATA = Path(__file__).parent / "data"


def ok(name: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS", flush=True)


def test_smiles_permutation_identity():
    env_path = os.environ.get("CHEBI20_TEST_TSV")
    if env_path:
        sources = [Path(env_path)]
        expected_minimum = 3000
    else:
        sources = [DATA / "corpus.tsv", DATA / "test_items.tsv"]
        expected_minimum = 150
    molecules = []
    total_rows = 0
    for src in sources:
        records, _, report = load_chebi_tsv(src)
        total_rows += report.total_rows
        molecules.extend(rec.smiles for rec in records)
    assert len(molecules) >= expected_minimum
    parse_rate = len(molecules) / total_rows
    assert parse_rate >= 0.99, f"parse success rate {parse_rate:.4f} < 0.99"

    rng = random.Random(2023)
    start = time.monotonic()
    for smiles in molecules:
        mol = parse_smiles(smiles)
        perm = list(range(len(mol)))
        rng.shuffle(perm)
        assert molecules_equal(mol, permute_molecule(mol, perm)), smiles
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"permutation check took {elapsed:.1f}s"
    ok(f"smiles-permutation-identity ({len(molecules)} molecules, {elapsed:.1f}s, "
       f"rate {parse_rate:.3f})")


def test_fingerprint_oracle(corpus_records):
    params = FingerprintParams(radius=2, nbits=2048)
    fixture = corpus_records[:20]
    assert len(fixture) == 20
    for rec in fixture:
        mol = parse_smiles(rec.smiles)
        by_id: dict[int, set] = {}
        for atom, rnd, ident in morgan_environments(mol, params):
            by_id.setdefault(ident, set()).add((atom, rnd))
        by_sig: dict[object, set] = {}
        for atom, rnd, sig in all_environment_signatures(mol, 2):
            by_sig.setdefault(sig, set()).add((atom, rnd))
        assert sorted(by_id.values(), key=sorted) == sorted(by_sig.values(), key=sorted)

    for rec in fixture:
        fp = morgan_fingerprint(parse_smiles(rec.smiles), params)
        assert dice_similarity(fp, fp) == 1.0

    rng = random.Random(2024)
    for _ in range(1000):
        a = fingerprint_of(rng.sample(range(2048), rng.randint(0, 64)))
        b = fingerprint_of(rng.sample(range(2048), rng.randint(0, 64)))
        if not a.count and not b.count:
            with pytest.raises(DegenerateInput):
                dice_similarity(a, b)
            continue
        sim = dice_similarity(a, b)
        assert sim == dice_similarity(b, a)
        assert 0.0 <= sim <= 1.0
    ok("fingerprint-oracle (20-molecule environment multisets + 1000-pair fuzz)")


def test_bm25_oracle():
    rng = random.Random(77)
    vocab = [f"term{i}" for i in range(40)]
    start = time.monotonic()
    queries_checked = 0
    while queries_checked < 100:
        n_docs = rng.randint(1, 50)
        docs = [" ".join(rng.choices(vocab, k=rng.randint(1, 15))) for _ in range(n_docs)]
        index = build_index(docs)
        docs_tokens = [tokenize(d) for d in docs]
        for _ in range(5):
            if queries_checked >= 100:
                break
            query_tokens = rng.choices(vocab + ["missing"], k=rng.randint(1, 5))
            expected_order, expected_scores = bm25_rank_direct(docs_tokens, query_tokens)
            got = top_n(index, " ".join(query_tokens), n_docs)
            assert [doc for doc, _ in got] == expected_order
            for doc_id, value in got:
                assert abs(value - expected_scores[doc_id]) <= 1e-9
            queries_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"BM25 oracle sweep took {elapsed:.1f}s"
    ok(f"bm25-oracle (100 queries, corpora <= 50 docs, {elapsed:.2f}s)")


def test_retrieval_determinism(corpus_store, tmp_path):
    store_dir = tmp_path / "store"
    save_store(corpus_store, store_dir)
    probe = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from molrag.store import load_store, retrieve_mol2cap, retrieve_cap2mol, RetrievalStrategy\n"
        "from oracles import query_fingerprint\n"
        "store = load_store(sys.argv[1])\n"
        "fp = query_fingerprint('CCCCCO')\n"
        "out = {\n"
        "  'morgan': [r.id for r in retrieve_mol2cap(store, 'CCCCCO', 5, RetrievalStrategy('morgan_fts'), query_fp=fp)],\n"
        "  'chargram': [r.id for r in retrieve_mol2cap(store, 'CCCCCO', 5, RetrievalStrategy('bm25_smiles_chargram'), query_fp=fp)],\n"
        "  'random': [r.id for r in retrieve_mol2cap(store, 'CCCCCO', 5, RetrievalStrategy('random', seed=123), query_fp=fp)],\n"
        "  'caption': [r.id for r in retrieve_cap2mol(store, 'a primary alcohol chain', 5, RetrievalStrategy('bm25_caption'))],\n"
        "  'random_cap': [r.id for r in retrieve_cap2mol(store, 'a primary alcohol chain', 5, RetrievalStrategy('random', seed=9))],\n"
        "}\n"
        "print(json.dumps(out, sort_keys=True))\n"
    )
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(store_dir), str(Path(__file__).parent)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1], "retrieval differs across process invocations"

    first = retrieve_mol2cap(corpus_store, "CCCCCO", 1, RetrievalStrategy("morgan_fts"),
                             query_fp=query_fingerprint("CCCCCO"))[0]
    assert first.smiles in ("CCCCO", "CCCCCCO"), "near-duplicate did not rank first"
    ok("retrieval-determinism (two processes, all strategies, near-duplicate first)")


def test_calibration_state_machine(corpus_store):
    template = default_template("mol2cap")
    allowance = 5
    strategy = RetrievalStrategy("morgan_fts")
    good = '{"caption": "A compound."}'

    def client(script):
        return ChatClient(ScriptedBackend(script), max_retries=3, backoff_base=0, sleep=lambda s: None)

    def examples(n):
        return retrieve_mol2cap(corpus_store, "CCO", n, strategy, query_fp=query_fingerprint("CCO"))

    out = calibrated_query(client([good]), template, "CCO", examples(3), allowance)
    assert out.query_count == 1 and out.final_shot_count == 3

    out = calibrated_query(
        client(["context_length_exceeded", "context_length_exceeded", good]),
        template, "CCO", examples(5), allowance,
    )
    assert out.final_shot_count == 3  # n - 2

    garbage_client = client(["Apologies, that cannot be described here."])
    backend = garbage_client.backend
    with pytest.raises(CalibrationFailure):
        calibrated_query(garbage_client, template, "CCO", examples(2), allowance)
    assert backend.calls == allowance

    fixture = json.loads((DATA / "chatty_responses.json").read_text())
    assert len(fixture) == 15
    for case in fixture:
        if case.get("expect_error"):
            with pytest.raises(Exception):
                extract_payload(case["text"], case["task"])
        else:
            result = extract_payload(case["text"], case["task"])
            assert result.strategy == case["expect_strategy"]
            assert result.value == case["expect_value"]
    ok("calibration-state-machine (first-try, eviction, allowance, 15-response fixture)")


def test_metric_fixtures():
    cap_pairs = [EvalPair(p, r) for p, r in CAPTION_PAIRS]
    smi_pairs = [EvalPair(p, r) for p, r in SMILES_PAIRS]
    assert abs(bleu_n(cap_pairs, 2) - HAND_BLEU2) <= 1e-6
    assert abs(bleu_n(cap_pairs, 4) - HAND_BLEU4) <= 1e-6
    rouge = rouge_scores(cap_pairs)
    assert abs(rouge["rouge1_f"] - HAND_ROUGE1) <= 1e-6
    assert abs(rouge["rouge2_f"] - HAND_ROUGE2) <= 1e-6
    assert abs(rouge["rougeL_f"] - HAND_ROUGEL) <= 1e-6
    for (pred, ref), expected in zip(SMILES_PAIRS, HAND_LEV):
        assert levenshtein(pred, ref) == expected
    assert abs(levenshtein_mean(smi_pairs) - 3.2) <= 1e-6
    assert levenshtein("kitten", "sitting") == 3

    exact = [EvalPair("OCC", "CCO"), EvalPair("C(C)C", "CCC"), EvalPair("C%12CCCC%12", "C1CCCC1")]
    scores = molecule_scores(exact)
    assert exact_match_rate(scores) == 1.0
    assert morgan_fts_stats(scores)[0] == pytest.approx(1.0)
    assert validity_rate(scores) == 1.0
    ok("metric-fixtures (hand-worked BLEU/ROUGE/Levenshtein, EM implication)")


def _run_cli(args, env_overrides=None):
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    if env_overrides:
        env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-m", "molrag.cli", *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return proc


def test_end_to_end_replay(corpus_store, tmp_path):
    store_dir = tmp_path / "store"
    save_store(corpus_store, store_dir)
    reports = {}
    for task, replay, strategy in (
        ("mol2cap", "replay_eval_mol2cap.jsonl", "morgan_fts"),
        ("cap2mol", "replay_eval_cap2mol.jsonl", "bm25"),
    ):
        paths = []
        for run, hash_seed in (("one", "0"), ("two", "31337")):
            out = tmp_path / f"{task}_{run}"
            _run_cli(
                [
                    "evaluate", str(DATA / "test_items.tsv"),
                    "--store", str(store_dir),
                    "--task", task,
                    "--n-shots", "2",
                    "--strategy", strategy,
                    "--replay", str(DATA / replay),
                    "--out", str(out),
                ],
                {"PYTHONHASHSEED": hash_seed},
            )
            paths.append(out / "report.json")
        assert paths[0].read_bytes() == paths[1].read_bytes(), f"{task} reports differ"
        reports[task] = json.loads(paths[0].read_text())
        assert reports[task]["counts"]["items"] == 50

    zero_m2c = build_prompt(default_template("mol2cap"), "CCO", [])
    zero_c2m = build_prompt(default_template("cap2mol"), "some caption", [])
    assert CAPTION_MASK in zero_m2c.system_text and MOLECULE_MASK in zero_m2c.system_text
    assert MOLECULE_MASK in zero_c2m.system_text and CAPTION_MASK in zero_c2m.system_text
    ok("end-to-end-replay (50 items x 2 tasks, byte-identical across processes, mask spans)")


def test_ablation_shape(corpus_store, tmp_path):
    store_dir = tmp_path / "store"
    save_store(corpus_store, store_dir)
    out = tmp_path / "grid"
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "ablate", str(DATA / "test_items.tsv"),
            "--store", str(store_dir),
            "--task", "mol2cap",
            "--limit", "10",
            "--replay", str(DATA / "replay_ablate_mol2cap.jsonl"),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output

    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(cells) == 15  # {0,1,2,5,10} x {random, bm25, morgan_fts}
    for n in (0, 1, 2, 5, 10):
        for strategy in ("random", "bm25", "morgan_fts"):
            cell = out / f"cell_mol2cap_n{n}_{strategy}"
            assert cell.is_dir(), cell.name
            manifest = json.loads((cell / "manifest.json").read_text())
            for key in ("task", "n_shots", "strategy", "seed", "model", "calibration",
                        "template", "store", "test_file", "limit"):
                assert key in manifest, f"{cell.name} manifest lacks {key}"
            assert manifest["n_shots"] == n
            assert (cell / "report.json").exists()

    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["grid"]["n_shots"] == [0, 1, 2, 5, 10]
    assert comparison["grid"]["strategies"] == ["random", "bm25", "morgan_fts"]
    assert len(comparison["cells"]) == 15
    table = (out / "comparison.txt").read_text()
    assert "10-shot (morgan_fts)" in table
    ok("ablation-shape (15-cell grid, complete manifests, comparison table)")


@pytest.mark.skipif(
    not os.environ.get("MOLRAG_LIVE_BACKEND"),
    reason="optional live smoke: set MOLRAG_LIVE_BACKEND to a backend config JSON",
)
def test_live_smoke(corpus_store, tmp_path):
    # non-binding plumbing check against a configured live backend
    store_dir = tmp_path / "store"
    save_store(corpus_store, store_dir)
    out = tmp_path / "live"
    _run_cli(
        [
            "evaluate", str(DATA / "test_items.tsv"),
            "--store", str(store_dir),
            "--task", "cap2mol",
            "--n-shots", "2",
            "--strategy", "bm25",
            "--backend", os.environ["MOLRAG_LIVE_BACKEND"],
            "--limit", "100",
            "--out", str(out),
        ]
    )
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["validity"] >= 0.7
    ok("live-smoke (non-binding)")
