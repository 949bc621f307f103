import hashlib
import json
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molrag import store as store_module
from molrag.bm25 import build_index, save_index, top_n
from molrag.fingerprint import FingerprintParams, dice_similarity, morgan_fingerprint
from molrag.smiles import molecules_equal, parse_smiles
from molrag.store import (
    EmptyFile,
    EmptyStore,
    IoFailure,
    MissingColumn,
    MoleculeRecord,
    RetrievalStrategy,
    Store,
    StoreIntegrityError,
    build_store,
    load_chebi_tsv,
    load_store,
    retrieve_cap2mol,
    retrieve_mol2cap,
    save_store,
)
from oracles import cap2mol_exclusions_scan, mol2cap_exclusions_scan, query_fingerprint
from test_bm25 import rewrite_index


def fingerprints_of(smiles) -> list:
    return [query_fingerprint(text) for text in smiles]


def write_tsv(path, rows, header="CID\tSMILES\tdescription"):
    path.write_text(header + "\n" + "".join(f"{r}\n" for r in rows), encoding="utf-8")
    return path


def corpus_rows_tsv(data_dir, path, count):
    """``count`` rows that repeat corpus.tsv's SMILES and captions under new ids."""
    rows = (data_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines()[1:]
    return write_tsv(path, [f"{i}\t{rows[i % len(rows)].split(chr(9), 1)[1]}"
                            for i in range(count)])


def probe_reader(tsv, *flags) -> dict:
    """What tests/reader_probe.py reports of one load_chebi_tsv call in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "reader_probe.py"), str(tsv), *flags],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(result.stdout)


def multi_block_tsv(path, data_dir):
    """3.5 blocks of corpus.tsv rows with a short row, an empty caption, an unparseable
    SMILES and blank lines on both sides of each block boundary, and a caption that holds
    a tab. Returns the path and the expected (line number, reason prefix) of each
    quarantined row."""
    corpus = (data_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines()[1:]
    size = store_module.BLOCK_ROWS
    bad = [("\tCC", "too few columns"), ("\tCCO\t  ", "empty caption"),
           ("\tC1CC\tan unclosed ring", "UnmatchedRingClosure")]
    lines = ["CID\tSMILES\tdescription"]
    expected = []
    for row in range(3 * size + size // 2):
        if row % size in (0, size - 1):
            lines.append("" if row % 2 else "  ")
        if row % size in (0, 1, size - 1):
            tail, reason = bad[row % len(bad)]
            lines.append(f"{row}{tail}")
            expected.append((len(lines), reason))
        elif row == size + 2:
            lines.append(f"{row}\tCCO\tethanol\twith a tab")
        else:
            lines.append(f"{row}\t{corpus[row % len(corpus)].split(chr(9), 1)[1]}")
        if row % size == 0:
            lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, expected


# The graph of CROWDED_SMILES written 16 times in different atom orders.
CROWDED_SMILES = "Cc1ccc(O)cc1N"
_ORDERS = [
    CROWDED_SMILES, "Nc1cc(O)ccc1C", "Oc1ccc(C)c(N)c1", "c1(C)ccc(O)cc1N",
    "c1cc(O)cc(N)c1C", "Cc1c(N)cc(O)cc1", "Oc1cc(N)c(C)cc1", "c1c(O)ccc(C)c1N",
]
CROWDED_COPIES = _ORDERS + [text.replace("1", "2") for text in _ORDERS]
CROWDED_CAPTION = "The molecule is a primary alcohol with a chain of 5 carbon atoms."


def crowded_mol2cap_store(corpus_records):
    """The 16 copies, heptane..undecane (which share octane's bitmap without sharing
    its graph) and 40 corpus records, shuffled."""
    smiles = (CROWDED_COPIES + ["C" * k for k in range(7, 12)]
              + [r.smiles for r in corpus_records[:40]])
    random.Random(5).shuffle(smiles)
    return build_store(
        [MoleculeRecord(id=str(i), smiles=s, caption=f"c{i}") for i, s in enumerate(smiles)],
        fingerprints_of(smiles),
    )


def crowded_cap2mol_store(corpus_records):
    """CROWDED_CAPTION 12 times, a near copy 6 times and 40 corpus captions, shuffled."""
    captions = (
        [CROWDED_CAPTION] * 12 + [CROWDED_CAPTION + " It is volatile."] * 6
        + [rec.caption for rec in corpus_records[:40]]
    )
    random.Random(5).shuffle(captions)
    return build_store(
        [MoleculeRecord(id=str(i), smiles="C" * (1 + i % 9), caption=c)
         for i, c in enumerate(captions)],
        fingerprints_of("C" * (1 + i % 9) for i in range(len(captions))),
    )


class TestIngest:
    def test_three_valid_rows(self, tmp_path):
        path = write_tsv(
            tmp_path / "ok.tsv",
            ["1\tCCO\tethanol text", "2\tCC\tethane text", "3\tC\tmethane text"],
        )
        records, _, report = load_chebi_tsv(path)
        assert [r.id for r in records] == ["1", "2", "3"]
        assert report.kept == 3 and not report.quarantined

    def test_unclosed_ring_quarantined(self, tmp_path):
        path = write_tsv(tmp_path / "bad.tsv", ["1\tC1CC\toops", "2\tCC\tfine"])
        records, _, report = load_chebi_tsv(path)
        assert len(records) == 1
        assert report.quarantined[0].reason.startswith("UnmatchedRingClosure")
        assert report.quarantined[0].line_number == 2

    def test_empty_caption_quarantined(self, tmp_path):
        path = write_tsv(tmp_path / "cap.tsv", ["1\tCC\t", "2\tCC\tfine"])
        records, _, report = load_chebi_tsv(path)
        assert len(records) == 1
        assert report.quarantined[0].reason == "empty caption"

    def test_atomless_smiles_quarantined(self, tmp_path):
        path = write_tsv(tmp_path / "dots.tsv", ["1\t.\tdot", "2\t..\tdots", "3\tC.\tfine"])
        records, _, report = load_chebi_tsv(path)
        assert [r.id for r in records] == ["3"]
        assert [q.line_number for q in report.quarantined] == [2, 3]
        assert all(q.reason.startswith("UnknownToken") for q in report.quarantined)

    def test_short_row_quarantined(self, tmp_path):
        path = write_tsv(tmp_path / "short.tsv", ["1\tCC", "2\tCC\tfine"])
        records, _, report = load_chebi_tsv(path)
        assert len(records) == 1
        assert report.quarantined[0].reason == "too few columns"

    def test_missing_column(self, tmp_path):
        path = write_tsv(tmp_path / "cols.tsv", ["1\tCC\tx"], header="CID\tSMILES\ttext")
        with pytest.raises(MissingColumn):
            load_chebi_tsv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_chebi_tsv(path)

    def test_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_chebi_tsv(tmp_path / "does-not-exist.tsv")

    def test_fingerprints_pair_with_kept_records(self, tmp_path):
        path = write_tsv(
            tmp_path / "mixed.tsv",
            ["1\tCCO\tethanol text", "2\tC1CC\tunclosed ring", "3\tc1ccccc1\tbenzene text"],
        )
        records, fingerprints, report = load_chebi_tsv(path)
        assert [r.id for r in records] == ["1", "3"] and report.kept == 2
        assert fingerprints == fingerprints_of(["CCO", "c1ccccc1"])

    def test_column_order_free(self, tmp_path):
        path = write_tsv(
            tmp_path / "reorder.tsv",
            ["ethanol text\t1\tCCO"],
            header="description\tCID\tSMILES",
        )
        records, _, _ = load_chebi_tsv(path)
        assert records[0].smiles == "CCO"
        assert records[0].caption == "ethanol text"

    def test_limit_stops_after_that_many_kept_rows(self, tmp_path, monkeypatch):
        path = write_tsv(
            tmp_path / "mixed.tsv",
            ["1\tCCO\tethanol", "2\tC1CC\tunclosed ring", "3\tCC\tethane", "4\tC1CC\tagain"],
        )
        parsed = []
        monkeypatch.setattr(store_module, "parse_smiles",
                            lambda text, _parse=parse_smiles: parsed.append(text) or _parse(text))
        records, fingerprints, report = load_chebi_tsv(path, limit=2)
        assert [r.id for r in records] == ["1", "3"]
        assert fingerprints == fingerprints_of(["CCO", "CC"])
        assert parsed == ["CCO", "C1CC", "CC"]
        assert (report.total_rows, report.kept, len(report.quarantined)) == (3, 2, 1)

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\x1c"])
    def test_any_line_break_ends_a_row(self, tmp_path, newline):
        path = tmp_path / "breaks.tsv"
        path.write_bytes(newline.join(["CID\tSMILES\tdescription", "1\tCCO\tethanol",
                                       "2\tCC\tethane", ""]).encode("utf-8"))
        records, _, report = load_chebi_tsv(path)
        assert [r.caption for r in records] == ["ethanol", "ethane"]
        assert not report.quarantined

    def test_ingest_holds_fingerprints_not_molecules(self, data_dir, tmp_path, monkeypatch):
        # every parsed molecule was kept until build_store had fingerprinted them all:
        # a peak of 7.35 MiB for these 2,000 rows on Python 3.11, against 2.56 MiB when
        # each molecule is fingerprinted and dropped as it is read (in this process;
        # test_worker_ingest_holds_fingerprints_not_molecules reads in workers)
        monkeypatch.setattr(store_module, "_usable_cpus", lambda: 1)
        count = 2000
        path = corpus_rows_tsv(data_dir, tmp_path / "big.tsv", count)
        tracemalloc.start()
        try:
            records, fingerprints, _ = load_chebi_tsv(path)
            build_store(records, fingerprints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == count
        assert peak < count * 2048

    def test_worker_ingest_holds_fingerprints_not_molecules(self, data_dir, tmp_path):
        # the parent of the workers holds no more than the reader does in one process
        count = 2000
        workers = probe_reader(corpus_rows_tsv(data_dir, tmp_path / "big.tsv", count),
                               "--cpus", "2", "--memory")
        assert workers["forks"] == 2 and workers["pid"] not in workers["parse_pids"]
        assert len(workers["records"]) == count
        assert workers["peak_bytes"] < count * 2048

    def test_ordering_preserved(self, corpus_records):
        ids = [r.id for r in corpus_records]
        assert ids == sorted(ids, key=int)


class TestReaderPaths:
    """load_chebi_tsv parses in worker processes or in this one; both read alike."""

    RESULT = ("records", "bitmaps", "total_rows", "quarantined", "error")

    def test_workers_read_what_one_process_reads(self, data_dir, tmp_path):
        tsv, expected = multi_block_tsv(tmp_path / "blocks.tsv", data_dir)
        here = probe_reader(tsv, "--cpus", "1")
        workers = probe_reader(tsv, "--cpus", "2")
        assert here["parse_pids"] == [here["pid"]] and here["forks"] == 0
        assert len(workers["parse_pids"]) == 2 and workers["pid"] not in workers["parse_pids"]
        for key in self.RESULT:
            assert workers.get(key) == here.get(key), key
        assert [(line, reason.split(":")[0]) for line, reason in here["quarantined"]] == expected
        assert here["total_rows"] == 3 * store_module.BLOCK_ROWS + store_module.BLOCK_ROWS // 2
        assert len(here["records"]) == here["total_rows"] - len(expected)
        assert ["258", "CCO", "ethanol\twith a tab"] in here["records"]
        assert here["bitmaps"] == [hex(fp.bitmap) for fp in
                                   fingerprints_of(rec[1] for rec in here["records"])]

    def test_one_worker_per_block_up_to_the_cpus(self, data_dir, tmp_path):
        tsv, _ = multi_block_tsv(tmp_path / "blocks.tsv", data_dir)
        assert probe_reader(tsv, "--cpus", "8")["forks"] == 4  # 3.5 blocks

    @pytest.mark.parametrize("one_block, flags", [
        (False, ["--thread", "--cpus", "2"]), (False, ["--cpus", "1"]),
        (False, ["--limit", "300", "--cpus", "2"]), (True, ["--cpus", "2"]),
    ], ids=["second-thread", "one-cpu", "limit", "one-block"])
    def test_reads_in_process(self, data_dir, tmp_path, one_block, flags):
        if one_block:
            tsv = corpus_rows_tsv(data_dir, tmp_path / "one.tsv", store_module.BLOCK_ROWS)
        else:
            tsv, _ = multi_block_tsv(tmp_path / "blocks.tsv", data_dir)
        got = probe_reader(tsv, *flags)
        assert got["parse_pids"] == [got["pid"]] and "error" not in got
        assert got["forks"] == 0 and not got["multiprocessing_imported"]

    @pytest.mark.parametrize("damage, flags, error", [
        ("none", [], None),
        ("bad-utf8", [], ["IoFailure", "cannot read"]),
        ("worker-raises", ["--raise-on", "CCO"], ["RuntimeError", "cannot parse CCO"]),
        ("worker-exits", ["--exit-on", "CCO"], ["StoreError", "ended abruptly"]),
    ])
    def test_no_worker_outlives_the_read(self, data_dir, tmp_path, damage, flags, error):
        tsv, _ = multi_block_tsv(tmp_path / "blocks.tsv", data_dir)
        if damage == "bad-utf8":
            # a byte that is no UTF-8 late in the third block: the file is decoded 8 KiB
            # ahead of the line read, and the first two blocks are read before any fork
            raw = tsv.read_bytes().split(b"\n")
            raw[2 * store_module.BLOCK_ROWS + 200] += b"\xff"
            tsv.write_bytes(b"\n".join(raw))
        workers = probe_reader(tsv, "--cpus", "2", *flags)
        assert workers["forks"] == 2
        assert workers["live_children"] == 0 and not workers["any_child"]
        assert workers["threads"] == 1
        if error is None:
            assert "error" not in workers
            return
        kind, message = workers["error"]
        assert kind == error[0] and error[1] in message
        if damage != "worker-exits":  # a reader in one process that exits cannot report
            here = probe_reader(tsv, "--cpus", "1", *flags)
            assert workers["error"] == here["error"]


class TestBuild:
    def test_empty_records(self):
        with pytest.raises(EmptyStore):
            build_store([], [])

    def test_records_and_fingerprints_must_pair(self, corpus_records, corpus_fingerprints):
        with pytest.raises(ValueError, match="3 records but 2 fingerprints"):
            build_store(corpus_records[:3], corpus_fingerprints[:2])

    def test_fingerprints_precomputed(self, corpus_store):
        assert corpus_store.fingerprints == [
            morgan_fingerprint(parse_smiles(rec.smiles), FingerprintParams())
            for rec in corpus_store.records
        ]

    def test_all_strategies_answer(self, corpus_store):
        for strategy in (
            RetrievalStrategy("morgan_fts"),
            RetrievalStrategy("bm25_smiles_chargram"),
            RetrievalStrategy("random", seed=1),
        ):
            ranked = retrieve_mol2cap(corpus_store, "CCO", 5, strategy,
                                      query_fp=query_fingerprint("CCO"))
            assert len(ranked) == 5
        for strategy in (RetrievalStrategy("bm25_caption"), RetrievalStrategy("random", seed=1)):
            assert len(retrieve_cap2mol(corpus_store, "an alcohol caption", 5, strategy)) == 5

    def test_rebuild_identical_manifests(self, corpus_records, corpus_fingerprints, tmp_path):
        store_a = build_store(list(corpus_records), list(corpus_fingerprints))
        store_b = build_store(list(corpus_records), list(corpus_fingerprints))
        save_store(store_a, tmp_path / "a")
        save_store(store_b, tmp_path / "b")
        manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest_a["checksums"] == manifest_b["checksums"]


class TestStrategyType:
    def test_random_needs_seed(self):
        with pytest.raises(ValueError):
            RetrievalStrategy("random")
        RetrievalStrategy("random", seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RetrievalStrategy("sentence_embeddings")

    def test_task_mismatch(self, corpus_store):
        with pytest.raises(ValueError):
            retrieve_mol2cap(corpus_store, "CCO", 2, RetrievalStrategy("bm25_caption"),
                             query_fp=query_fingerprint("CCO"))
        with pytest.raises(ValueError):
            retrieve_cap2mol(corpus_store, "text", 2, RetrievalStrategy("morgan_fts"))


class TestMol2CapRetrieval:
    def test_self_exclusion(self, corpus_store):
        # ethanol is a stored record; it must never come back for itself
        results = retrieve_mol2cap(corpus_store, "CCO", 5, RetrievalStrategy("morgan_fts"),
                                   query_fp=query_fingerprint("CCO"))
        assert all(rec.smiles != "CCO" for rec in results)
        query = parse_smiles("CCO")
        assert all(not molecules_equal(query, parse_smiles(r.smiles)) for r in results)

    def test_self_exclusion_is_graph_level(self, corpus_store):
        # same molecule written differently is still excluded
        results = retrieve_mol2cap(corpus_store, "OCC", 5, RetrievalStrategy("morgan_fts"),
                                   query_fp=query_fingerprint("OCC"))
        assert all(rec.smiles != "CCO" for rec in results)

    def test_n_equals_store_size(self, corpus_store):
        results = retrieve_mol2cap(
            corpus_store, "CCO", len(corpus_store), RetrievalStrategy("morgan_fts"),
            query_fp=query_fingerprint("CCO"),
        )
        assert len(results) == len(corpus_store) - 1  # everything except itself

    def test_near_duplicate_ranks_first(self, corpus_store):
        results = retrieve_mol2cap(corpus_store, "CCCCCO", 1, RetrievalStrategy("morgan_fts"),
                                   query_fp=query_fingerprint("CCCCCO"))
        assert results[0].smiles in ("CCCCO", "CCCCCCO")

    def test_morgan_matches_exhaustive_dice(self, corpus_store):
        assert len(corpus_store) >= 100
        params = FingerprintParams()
        for query in ("CCCCCO", "Oc1ccc(C)cc1", "NCCO"):
            query_fp = morgan_fingerprint(parse_smiles(query), params)
            query_mol = parse_smiles(query)
            scored = sorted(
                range(len(corpus_store.records)),
                key=lambda pos: (
                    -dice_similarity(query_fp, corpus_store.fingerprints[pos]),
                    pos,
                ),
            )
            expected = []
            for pos in scored:
                rec = corpus_store.records[pos]
                if corpus_store.fingerprints[pos] == query_fp and molecules_equal(
                    query_mol, parse_smiles(rec.smiles)
                ):
                    continue
                expected.append(rec.id)
                if len(expected) == 5:
                    break
            got = [
                rec.id
                for rec in retrieve_mol2cap(corpus_store, query, 5, RetrievalStrategy("morgan_fts"),
                                            query_fp=query_fp)
            ]
            assert got == expected

    @pytest.mark.parametrize("kind", ["morgan_fts", "bm25_smiles_chargram", "random"])
    def test_top_n_matches_full_sort_with_many_exclusions(self, corpus_records, kind):
        # The query graph is stored 16 times in different atom orders, and
        # heptane..undecane share octane's bitmap (Dice 1.0) without sharing
        # its graph, so the exclusions and the exact ties both outnumber n.
        query = CROWDED_SMILES
        assert all(molecules_equal(parse_smiles(query), parse_smiles(c)) for c in CROWDED_COPIES)
        store = crowded_mol2cap_store(corpus_records)
        octane = morgan_fingerprint(parse_smiles("CCCCCCCC"), FingerprintParams())
        assert morgan_fingerprint(parse_smiles("C" * 11), FingerprintParams()) == octane
        # Under seed 2, random.sample of 2-5 of these records is not a prefix of
        # the full sample, so a random ranking cut short fails here too.
        strategy = RetrievalStrategy(kind, seed=2 if kind == "random" else None)

        def full_order(text):
            if kind == "random":
                return random.Random(2).sample(range(len(store)), len(store))
            if kind == "bm25_smiles_chargram":
                return [pos for pos, _ in top_n(store.smiles_index, text, len(store))]
            query_fp = morgan_fingerprint(parse_smiles(text), FingerprintParams())
            return sorted(
                range(len(store)),
                key=lambda pos: (-dice_similarity(query_fp, store.fingerprints[pos]), pos),
            )

        for text in (query, "OC1=CC=C(C)C(N)=C1", "CCCCCCCC", corpus_records[3].smiles):
            query_mol, query_fp = parse_smiles(text), query_fingerprint(text)
            kept = [
                store.records[pos].id
                for pos in full_order(text)
                if not molecules_equal(query_mol, parse_smiles(store.records[pos].smiles))
            ]
            for n in range(1, len(store) + 4):
                got = retrieve_mol2cap(store, text, n, strategy, query_fp=query_fp)
                assert [r.id for r in got] == kept[:n], (text, n)

    def test_random_seeded_deterministic(self, corpus_store):
        query_fp = query_fingerprint("CCO")
        one = retrieve_mol2cap(corpus_store, "CCO", 5, RetrievalStrategy("random", seed=42),
                               query_fp=query_fp)
        two = retrieve_mol2cap(corpus_store, "CCO", 5, RetrievalStrategy("random", seed=42),
                               query_fp=query_fp)
        other = retrieve_mol2cap(corpus_store, "CCO", 5, RetrievalStrategy("random", seed=43),
                                 query_fp=query_fp)
        assert [r.id for r in one] == [r.id for r in two]
        assert [r.id for r in one] != [r.id for r in other]


class TestCap2MolRetrieval:
    def test_exact_caption_excluded(self, corpus_store):
        caption = corpus_store.records[0].caption
        results = retrieve_cap2mol(corpus_store, caption, 5, RetrievalStrategy("bm25_caption"))
        assert all(rec.caption != caption for rec in results)

    def test_disjoint_vocabulary_fallback(self, corpus_store):
        results = retrieve_cap2mol(
            corpus_store, "zzzz qqqq wwww", 3, RetrievalStrategy("bm25_caption")
        )
        assert [rec.id for rec in results] == [rec.id for rec in corpus_store.records[:3]]

    @pytest.mark.parametrize("kind", ["bm25_caption", "random"])
    def test_top_n_matches_full_order_with_many_exclusions(self, corpus_records, kind):
        # The query caption is stored 12 times and a near copy 6 times, so the
        # exclusions outnumber small n and crowd the head of the BM25 ranking.
        query = CROWDED_CAPTION
        store = crowded_cap2mol_store(corpus_records)
        strategy = RetrievalStrategy(kind, seed=2 if kind == "random" else None)
        for text in (query, query + " It is volatile.", corpus_records[3].caption, "zzzz"):
            if kind == "random":
                order = random.Random(2).sample(range(len(store)), len(store))
            else:
                order = [pos for pos, _ in top_n(store.caption_index, text, len(store))]
            kept = [store.records[pos].id for pos in order if store.records[pos].caption != text]
            for n in range(1, len(store) + 4):
                got = retrieve_cap2mol(store, text, n, strategy)
                assert [r.id for r in got] == kept[:n], (text, n)

    def test_bm25_matches_exhaustive(self, corpus_store):
        query = "The molecule is a primary alcohol with a chain of 5 carbon atoms."
        ranked = top_n(corpus_store.caption_index, query, len(corpus_store))
        expected = []
        for pos, _ in ranked:
            if corpus_store.records[pos].caption == query:
                continue
            expected.append(corpus_store.records[pos].id)
            if len(expected) == 5:
                break
        got = [
            rec.id
            for rec in retrieve_cap2mol(corpus_store, query, 5, RetrievalStrategy("bm25_caption"))
        ]
        assert got == expected


def fresh(store: Store) -> Store:
    """The same records, fingerprints and indices, with no lookup table built yet."""
    return Store(store.records, store.fingerprints, store.caption_index, store.smiles_index)


class TestSelfExclusionLookup:
    """The lookup tables exclude exactly what a scan of the whole store excludes."""

    @pytest.mark.parametrize("name", ["corpus", "mol2cap_crowded"])
    def test_mol2cap_lookup_matches_scan(self, stores, corpus_records, name):
        store = fresh(stores[name])
        queries = ([r.smiles for r in corpus_records] + CROWDED_COPIES
                   + ["C" * k for k in range(5, 14)] + ["OCC", "OC1=CC=C(C)C(N)=C1"])
        for query in queries:
            query_fp = query_fingerprint(query)
            expected = mol2cap_exclusions_scan(store, query)
            assert store_module._same_graph_positions(store, query, query_fp) == expected, query
        assert any(mol2cap_exclusions_scan(store, query) for query in queries)

    @pytest.mark.parametrize("name", ["corpus", "cap2mol_crowded"])
    def test_cap2mol_lookup_matches_scan(self, stores, corpus_records, name):
        store = fresh(stores[name])
        queries = sorted({r.caption for r in store.records}) + [
            corpus_records[3].caption, CROWDED_CAPTION, CROWDED_CAPTION + " ", "zzzz"]
        for query in queries:
            expected = cap2mol_exclusions_scan(store, query)
            assert set(store._positions_by_caption.get(query, ())) == expected, query
        assert any(cap2mol_exclusions_scan(store, query) for query in queries)

    def test_morgan_order_is_the_full_sort_under_many_ties(self, corpus_records):
        # Chains of 7 carbons and more share one bitmap, as do their alcohols and acids
        # past some length, and each molecule is stored twice: most records tie with
        # others at every Dice value.
        smiles = [f"C{'C' * k}{end}" for k in range(2, 26) for end in ("", "O", "C(=O)O")]
        smiles = smiles * 2 + [r.smiles for r in corpus_records[:20]]
        random.Random(3).shuffle(smiles)
        store = build_store(
            [MoleculeRecord(id=str(i), smiles=s, caption=s) for i, s in enumerate(smiles)],
            fingerprints_of(smiles),
        )
        strategy = RetrievalStrategy("morgan_fts")
        for query in ("CCCCCCCC", "CCCCCCCCCCO", "CCCC(=O)O", corpus_records[30].smiles):
            query_fp = query_fingerprint(query)
            dice = [dice_similarity(query_fp, fp) for fp in store.fingerprints]
            full = sorted(range(len(store)), key=lambda pos: (-dice[pos], pos))
            assert len(dice) - len(set(dice)) > len(store) // 2
            for n in range(1, len(store) + 3):
                assert store_module._ranked(store, query, n, strategy, query_fp) == full[:n]

    def test_threads_on_a_fresh_store_see_complete_tables(self, stores):
        # More threads than cores race to build the tables and the graph check of one
        # query on each fresh store; a thread that saw a part of a table, or a check
        # that another thread had half made, would exclude or return other records.
        mol_store, cap_store = stores["mol2cap_crowded"], stores["cap2mol_crowded"]
        morgan, bm25_caption = RetrievalStrategy("morgan_fts"), RetrievalStrategy("bm25_caption")
        query_fp = query_fingerprint(CROWDED_SMILES)
        expected = (
            _positions(fp.bitmap for fp in mol_store.fingerprints),
            _positions(rec.caption for rec in cap_store.records),
            retrieve_mol2cap(mol_store, CROWDED_SMILES, 5, morgan, query_fp=query_fp),
            retrieve_cap2mol(cap_store, CROWDED_CAPTION, 5, bm25_caption),
        )
        workers = 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                mols, caps = fresh(mol_store), fresh(cap_store)
                barrier = threading.Barrier(workers)
                seen = [None] * workers

                def work(k):
                    barrier.wait()
                    # half the threads read the tables first, half rank first
                    tables = () if k % 2 else (mols._positions_by_bitmap,
                                               caps._positions_by_caption)
                    ranked = (
                        retrieve_mol2cap(mols, CROWDED_SMILES, 5, morgan, query_fp=query_fp),
                        retrieve_cap2mol(caps, CROWDED_CAPTION, 5, bm25_caption),
                    )
                    tables = tables or (mols._positions_by_bitmap, caps._positions_by_caption)
                    seen[k] = (*tables, *ranked)

                threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert seen == [expected] * workers, round_
                assert mols._graph_matches == {
                    CROWDED_SMILES: mol2cap_exclusions_scan(mol_store, CROWDED_SMILES)}
        finally:
            sys.setswitchinterval(interval)


def _positions(keys) -> dict:
    table: dict = {}
    for pos, key in enumerate(keys):
        table.setdefault(key, []).append(pos)
    return table


class TestPersistence:
    def test_roundtrip_retrieval_identical(self, corpus_store, tmp_path, corpus_records):
        save_store(corpus_store, tmp_path / "store")
        loaded = load_store(tmp_path / "store")
        probes_mol = [rec.smiles for rec in corpus_records[:10]]
        probes_cap = [rec.caption for rec in corpus_records[:10]]
        for probe in probes_mol:
            query_fp = query_fingerprint(probe)
            before = retrieve_mol2cap(corpus_store, probe, 10, RetrievalStrategy("morgan_fts"),
                                      query_fp=query_fp)
            after = retrieve_mol2cap(loaded, probe, 10, RetrievalStrategy("morgan_fts"),
                                     query_fp=query_fp)
            assert [r.id for r in before] == [r.id for r in after]
        for probe in probes_cap:
            before = retrieve_cap2mol(corpus_store, probe, 10, RetrievalStrategy("bm25_caption"))
            after = retrieve_cap2mol(loaded, probe, 10, RetrievalStrategy("bm25_caption"))
            assert [r.id for r in before] == [r.id for r in after]

    def test_checksum_verification(self, corpus_store, tmp_path):
        save_store(corpus_store, tmp_path / "store")
        records_file = tmp_path / "store" / "records.tsv"
        records_file.write_text(records_file.read_text() + "tampered\tC\tx\n")
        with pytest.raises(StoreIntegrityError):
            load_store(tmp_path / "store")

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("missing-file", "cannot read captions.bm25"),
            ("list-manifest", "manifest is not a JSON object"),
            ("no-checksums", "manifest lacks checksums"),
            ("list-checksums", "manifest checksums has the wrong type"),
            ("version-1", r"version 1 \(this molrag reads 3\); re-run `molrag ingest`"),
            ("version-2", r"version 2 \(this molrag reads 3\); re-run `molrag ingest`"),
            ("index-k1", "captions.bm25: BM25 index was built with k1=2.0, b=0.75"),
            ("index-doc-count", "captions.bm25 holds caption BM25 over 3 records"),
            ("index-mode", "captions.bm25 holds smiles_chargram BM25"),
            ("non-hex-fingerprint", "fingerprints.jsonl:3 is malformed"),
            ("row-without-tab", "records.tsv:4 is malformed"),
            ("extra-fingerprint", "fingerprints.jsonl:113 is malformed"),
            ("extra-record", "records.tsv:114 is malformed"),
        ],
    )
    def test_damaged_store_is_an_integrity_error(self, corpus_store, tmp_path, damage, message):
        directory = tmp_path / "store"
        save_store(corpus_store, directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        captions = [rec.caption for rec in corpus_store.records]

        def set_line(path, index, text):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[index:index + 1] = [text + "\n"]  # at len(lines) this appends a line
            path.write_text("".join(lines), encoding="utf-8")

        # a checksummed data file that disagrees with the store or with bm25.K1
        rewritten = {
            "index-k1": ("captions.bm25", lambda path: rewrite_index(
                path, lambda h: h.update(k1=2.0))),
            "index-doc-count": ("captions.bm25", lambda path: save_index(
                build_index(captions[:3]), path)),
            "index-mode": ("captions.bm25", lambda path: save_index(
                build_index(captions, tokenizer_mode="smiles_chargram"), path)),
            "non-hex-fingerprint": ("fingerprints.jsonl",
                                    lambda path: set_line(path, 2, "zz" * 256)),
            "row-without-tab": ("records.tsv",
                                lambda path: set_line(path, 3, "no tab in this row")),
            "extra-fingerprint": ("fingerprints.jsonl",
                                  lambda path: set_line(path, 112, "00" * 256)),
            "extra-record": ("records.tsv",
                             lambda path: set_line(path, 113, "900\tCCO\tan extra row")),
        }
        edited_manifest = {
            "list-manifest": lambda: [manifest],
            "no-checksums": lambda: {k: v for k, v in manifest.items() if k != "checksums"},
            "list-checksums": lambda: {**manifest, "checksums": []},
            "version-1": lambda: {**manifest, "format_version": 1},
            # what a format-2 store's manifest held
            "version-2": lambda: {**manifest, "format_version": 2,
                                  "fingerprint_params": {"nbits": 2048, "radius": 2},
                                  "bm25_params": {"b": 0.75, "k1": 1.5}},
        }
        if damage == "missing-file":
            (directory / "captions.bm25").unlink()
        elif damage in rewritten:
            name, rewrite = rewritten[damage]
            rewrite(directory / name)
            digest = hashlib.sha256((directory / name).read_bytes()).hexdigest()
            manifest["checksums"][name] = digest
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        else:
            manifest_path.write_text(json.dumps(edited_manifest[damage]()), encoding="utf-8")
        with pytest.raises(StoreIntegrityError, match=message):
            load_store(directory)

    def test_format_3_files(self, corpus_store, tmp_path):
        save_store(corpus_store, tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest) == ["checksums", "format_version", "record_count", "split"]
        assert manifest["format_version"] == 3
        fp_lines = (tmp_path / "store" / "fingerprints.jsonl").read_text().splitlines()
        assert fp_lines == [fp.to_hex() for fp in corpus_store.fingerprints]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IoFailure):
            load_store(tmp_path / "nothing-here")


@pytest.fixture(scope="module")
def stores(corpus_store, corpus_records):
    return {
        "corpus": corpus_store,
        "mol2cap_crowded": crowded_mol2cap_store(corpus_records),
        "cap2mol_crowded": crowded_cap2mol_store(corpus_records),
    }


class TestPrefixStability:
    """A ranking at n is the first n of a ranking at any larger n, so a ranking made
    once at the largest n can be sliced for every smaller one."""

    @pytest.mark.parametrize("task, kind", [
        ("mol2cap", "morgan_fts"), ("mol2cap", "bm25_smiles_chargram"), ("mol2cap", "random"),
        ("cap2mol", "bm25_caption"), ("cap2mol", "random"),
    ])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ranking_at_n_is_a_prefix(self, stores, corpus_records, task, kind, data):
        store = stores[data.draw(st.sampled_from(["corpus", f"{task}_crowded"]))]
        field = "smiles" if task == "mol2cap" else "caption"
        extra = ([CROWDED_SMILES, "CCCCCCCC", *CROWDED_COPIES[8:10]] if task == "mol2cap"
                 else [CROWDED_CAPTION, CROWDED_CAPTION + " It is volatile.", "zzzz"])
        query = data.draw(st.sampled_from([getattr(r, field) for r in corpus_records] + extra))
        strategy = RetrievalStrategy(kind, seed=data.draw(st.integers(0, 3))
                                     if kind == "random" else None)
        if task == "mol2cap":
            query_fp = query_fingerprint(query)

            def retrieve(*args):
                return retrieve_mol2cap(*args, query_fp=query_fp)
        else:
            retrieve = retrieve_cap2mol
        depth = data.draw(st.integers(1, len(store) + 3))
        ranked = retrieve(store, query, depth, strategy)
        for n in range(1, depth + 1):
            assert retrieve(store, query, n, strategy) == ranked[:n], n
