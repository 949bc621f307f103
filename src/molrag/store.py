"""Molecule-caption example database: ingest, indexing, retrieval, persistence.

Ingest reads the ChEBI-20 TSV layout (header ``CID<TAB>SMILES<TAB>description``),
quarantining rather than failing on malformed rows. The built store holds one
BM25 index over captions, one over SMILES character 3-grams, and a Morgan
fingerprint per record, and serves top-n context examples per retrieval
strategy with the query's own pair excluded. Every store fingerprints under
the default ``FingerprintParams()`` (radius 2, 2,048 bits) and ranks with
``bm25.K1`` and ``bm25.B``, so neither the store nor its files carry those
parameters.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path

from molrag import bm25
from molrag.fingerprint import MorganFingerprint, dice_similarity, morgan_fingerprint
from molrag.smiles import SmilesError, molecules_equal, parse_smiles

STORE_FORMAT_VERSION = 3
_REQUIRED_COLUMNS = ("CID", "SMILES", "description")


class StoreError(Exception):
    """A TSV or a persisted store cannot be read, or holds nothing to build from."""


@dataclass(frozen=True)
class TaskSpec:
    """What one translation direction reads, answers and retrieves with."""

    input_field: str  # the MoleculeRecord field a query is taken from
    output_field: str  # the MoleculeRecord field a prediction is compared with
    answer_key: str  # the JSON key the model answers under
    strategies: tuple[str, ...]  # retrieval kinds that apply; the first is the default
    bm25: str  # the kind the CLI name "bm25" stands for


TASKS = {
    "mol2cap": TaskSpec("smiles", "caption", "caption",
                        ("morgan_fts", "bm25_smiles_chargram", "random"), "bm25_smiles_chargram"),
    "cap2mol": TaskSpec("caption", "smiles", "molecule",
                        ("bm25_caption", "random"), "bm25_caption"),
}
STRATEGY_KINDS = tuple(dict.fromkeys(kind for spec in TASKS.values() for kind in spec.strategies))


@dataclass(frozen=True)
class RetrievalStrategy:
    kind: str
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random strategy requires a seed")


def resolve_strategy(task: str, name: str | None, seed: int) -> RetrievalStrategy:
    """The strategy a CLI name selects for ``task``; None selects the task's default."""
    spec = TASKS[task]
    kind = spec.bm25 if name == "bm25" else name or spec.strategies[0]
    _require_applicable(task, kind)
    return RetrievalStrategy(kind=kind, seed=seed if kind == "random" else None)


def _require_applicable(task: str, kind: str) -> None:
    if kind not in TASKS[task].strategies:
        raise ValueError(f"strategy {kind!r} does not apply to task {task!r}")


@dataclass(frozen=True)
class MoleculeRecord:
    id: str
    smiles: str
    caption: str


@dataclass(frozen=True)
class QuarantinedRow:
    line_number: int
    reason: str


@dataclass(frozen=True)
class IngestReport:
    total_rows: int
    kept: int
    quarantined: tuple[QuarantinedRow, ...]

    @property
    def parse_success_rate(self) -> float:
        return self.kept / self.total_rows if self.total_rows else 0.0


def load_chebi_tsv(
    path, limit: int | None = None
) -> tuple[list[MoleculeRecord], list[MorganFingerprint], IngestReport]:
    """Read a molecule-caption TSV; malformed rows are quarantined, not fatal.

    Returns the kept records, the default Morgan fingerprint of each (in record
    order) and the ingest report. The file is read a line at a time (the lines
    ``str.splitlines`` gives) and each row's SMILES is parsed once; its molecule
    is fingerprinted right away and dropped.

    Rows are parsed in worker processes when the whole file is read (no
    ``limit``), it holds more than one block of ``BLOCK_ROWS`` non-blank rows,
    this process may run on two or more CPUs, runs no other thread, and can
    fork. This process keeps reading the file and hands each block to one of
    ``min(CPUs, blocks)`` forked workers; each worker keeps one identifier memo
    for its life, and the results are put together in file order, so the output
    is the same on either path. A worker's exception is raised here as it would
    have been in this process, and a worker that dies is a :class:`StoreError`.
    Otherwise rows are parsed here, one at a time, with one identifier memo that
    is dropped on return. With a ``limit`` reading stops after that many kept
    rows, before the next row is parsed, and the report covers the rows read.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_rows(path, fh, limit)
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreError(f"cannot read {path}: {exc}") from exc


# Rows per block a worker process parses at a time; 256 beat 64, 128 and 512 on a
# 2-vCPU host.
BLOCK_ROWS = 256


def _read_rows(path: Path, fh, limit: int | None):
    """:func:`load_chebi_tsv` over the open file ``fh``."""
    # the lines str.splitlines gives for the whole text, read one chunk at a time
    lines = (line for chunk in fh for line in chunk.splitlines())
    header_line = next(lines, "")
    if not header_line.strip():
        raise StoreError(f"{path} has no header row")

    header = header_line.split("\t")
    missing = [col for col in _REQUIRED_COLUMNS if col not in header]
    if missing:
        raise StoreError(f"{path} lacks column(s): {', '.join(missing)}")
    desc_idx = header.index("description")
    columns = (header.index("CID"), header.index("SMILES"), desc_idx, len(header),
               desc_idx == len(header) - 1)

    rows = ((line_no, line) for line_no, line in enumerate(lines, start=2) if line.strip())
    cpus = fork_capacity()
    if limit is None and cpus:
        blocks = _blocks(rows)
        first = list(islice(blocks, cpus))
        if len(first) > 1:
            with forked_pool(len(first), f"reading {path}") as pool:
                return _collect(_in_order(pool, columns, first, blocks), None)
        rows = chain.from_iterable(first)  # the whole file: one block, or none
    memo: dict = {}
    return _collect((_parse_row(columns, line_no, line, memo) for line_no, line in rows), limit)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_capacity() -> int:
    """How many worker processes this process may fork: the CPUs it may run on when
    there are two or more, it runs no other thread and the platform can fork; 0
    otherwise. Forking a process that runs threads could copy a lock one of them
    holds."""
    cpus = _usable_cpus()
    return cpus if cpus > 1 and threading.active_count() == 1 and hasattr(os, "fork") else 0


@contextmanager
def forked_pool(workers: int, doing: str):
    """A pool of ``workers`` forked worker processes, which start on its first
    ``submit``. A worker that dies ends the block with a :class:`StoreError` that
    says what the pool was ``doing``; every worker has ended when the block is
    left, however it is left."""
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # fork named, not left to the platform default: a forkserver or spawned worker
    # would import molrag anew
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise StoreError(f"a worker process {doing} ended abruptly: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _blocks(rows):
    """``rows`` in lists of ``BLOCK_ROWS`` (the last one may be shorter)."""
    while block := list(islice(rows, BLOCK_ROWS)):
        yield block


def _parse_row(columns, line_no: int, line: str, memo: dict) -> tuple:
    """One non-blank TSV row: ``(cid, smiles, caption, fingerprint bitmap)`` when it is
    kept, ``(line_no, reason)`` when it is quarantined."""
    cid_idx, smi_idx, desc_idx, width, desc_last = columns
    parts = line.split("\t")
    if len(parts) < width:
        return line_no, "too few columns"
    caption = ("\t".join(parts[desc_idx:]) if desc_last else parts[desc_idx]).strip()
    if not caption:
        return line_no, "empty caption"
    smiles = parts[smi_idx].strip()
    try:
        mol = parse_smiles(smiles)
    except SmilesError as exc:
        return line_no, f"{type(exc).__name__}: {exc}"
    return parts[cid_idx].strip(), smiles, caption, morgan_fingerprint(mol, memo=memo).bitmap


# The identifier memo of a worker process. This process never fills it, so each
# forked worker starts from an empty one and keeps it for its life.
_worker_memo: dict = {}


def _parse_block(columns, block: list[tuple[int, str]]) -> list[tuple]:
    """:func:`_parse_row` over each row of ``block``, run in a worker process."""
    return [_parse_row(columns, line_no, line, _worker_memo) for line_no, line in block]


def _in_order(pool, columns, first: list, blocks):
    """The rows' results in file order, while ``len(first) + 1`` blocks are in flight."""
    pending = deque(pool.submit(_parse_block, columns, block) for block in first)
    for block in blocks:
        pending.append(pool.submit(_parse_block, columns, block))
        yield from pending.popleft().result()
    while pending:
        yield from pending.popleft().result()


def _collect(results, limit: int | None):
    """The records, fingerprints and report of the rows whose :func:`_parse_row`
    results ``results`` yields, taken until ``limit`` rows are kept."""
    records: list[MoleculeRecord] = []
    fingerprints: list[MorganFingerprint] = []
    quarantined: list[QuarantinedRow] = []
    total = 0
    # the limit is checked before the next result is drawn, and so before its row is parsed
    while len(records) != limit and (result := next(results, None)):
        total += 1
        if len(result) == 2:
            quarantined.append(QuarantinedRow(*result))
        else:
            cid, smiles, caption, bitmap = result
            records.append(MoleculeRecord(id=cid, smiles=smiles, caption=caption))
            fingerprints.append(MorganFingerprint(bitmap))
    report = IngestReport(total_rows=total, kept=len(records), quarantined=tuple(quarantined))
    return records, fingerprints, report


@dataclass(eq=False)
class Store:
    """Immutable retrieval database over molecule-caption records.

    Self-exclusion looks records up in two tables that are built from the
    records on first use and then kept: the positions of each fingerprint
    bitmap and the positions of each caption. Building one costs a pass over
    the store, more than one query's scan would, and every later query pays a
    dict lookup. The store also keeps, per query SMILES whose bitmap some
    record shares, the positions of the records with the query's graph, so
    that check runs once per distinct query however many strategies rank it.
    """

    records: list[MoleculeRecord]
    fingerprints: list[MorganFingerprint]  # one per record, in record order
    caption_index: bm25.Bm25Index
    smiles_index: bm25.Bm25Index
    split: str = "train"
    # digest of the manifest a persisted store was loaded from; None when built in memory
    manifest_sha256: str | None = None
    _graph_matches: dict[str, frozenset[int]] = field(
        default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def _positions_by_bitmap(self) -> dict[int, list[int]]:
        return _positions_by(fp.bitmap for fp in self.fingerprints)

    @cached_property
    def _positions_by_caption(self) -> dict[str, list[int]]:
        return _positions_by(rec.caption for rec in self.records)


def _positions_by(keys) -> dict:
    """Each key's positions in ``keys``, ascending. The table is complete before it is
    returned, so a thread never sees a part of it (threads that race to build one
    each build a whole one)."""
    table: dict = {}
    for pos, key in enumerate(keys):
        table.setdefault(key, []).append(pos)
    return table


def build_store(
    records: list[MoleculeRecord], fingerprints: list[MorganFingerprint], *,
    split: str = "train",
) -> Store:
    """Build both BM25 indices over ``records`` and keep ``fingerprints[i]``, the
    default fingerprint of ``records[i].smiles`` as ``load_chebi_tsv`` returns it."""
    if not records:
        raise StoreError("no records to build a store from")
    if len(fingerprints) != len(records):
        raise ValueError(f"{len(records)} records but {len(fingerprints)} fingerprints")
    caption_index = bm25.build_index([rec.caption for rec in records], tokenizer_mode="caption")
    smiles_index = bm25.build_index(
        [rec.smiles for rec in records], tokenizer_mode="smiles_chargram"
    )
    return Store(list(records), list(fingerprints), caption_index, smiles_index, split=split)


def _check_request(store: Store, task: str, n: int, strategy: RetrievalStrategy) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not store.records:
        raise StoreError("store holds no records")
    _require_applicable(task, strategy.kind)


def _ranked(store: Store, query: str, limit: int, strategy: RetrievalStrategy, query_fp=None):
    """Record positions in rank order: the first ``limit`` of them, or all for random."""
    if strategy.kind == "random":
        # A shorter sample draws a different order, so random always ranks every record.
        return random.Random(strategy.seed).sample(range(len(store)), len(store))
    if strategy.kind == "morgan_fts":
        scores = list(map(dice_similarity, repeat(query_fp), store.fingerprints))
        # nlargest is sorted(..., reverse=True)[:limit], a stable sort: ties keep position order
        return heapq.nlargest(limit, range(len(scores)), key=scores.__getitem__)
    index = store.caption_index if strategy.kind == "bm25_caption" else store.smiles_index
    return [pos for pos, _ in bm25.top_n(index, query, limit)]


def ranked_positions(store: Store, task: str, query: str, n: int,
                     strategy: RetrievalStrategy, *,
                     query_fp: MorganFingerprint | None = None) -> list[int]:
    """The record positions of the top-n context examples for a ``task`` query, best
    first: the first n of the ranking that are not the query's own pair.

    At most len(excluded) of the first n + len(excluded) ranked positions are
    excluded, so that prefix always holds the n best survivors. ``query_fp`` is the
    default fingerprint of a mol2cap query; a cap2mol ranking does not read it.
    """
    _check_request(store, task, n, strategy)
    if task == "mol2cap":
        excluded = _same_graph_positions(store, query, query_fp)
    else:
        excluded = frozenset(store._positions_by_caption.get(query, ()))
    order = _ranked(store, query, n + len(excluded), strategy, query_fp)
    return list(islice((pos for pos in order if pos not in excluded), n))


def retrieve_mol2cap(
    store: Store, query_smiles: str, n: int, strategy: RetrievalStrategy, *,
    query_fp: MorganFingerprint,
) -> list[MoleculeRecord]:
    """Top-n context examples for molecule captioning.

    morgan_fts ranks by Dice similarity of Morgan fingerprints (ties by record
    position); bm25_smiles_chargram ranks by character 3-gram BM25; random
    draws without replacement from a seeded generator. A record whose graph
    equals the query is never returned.

    ``query_fp`` is the default fingerprint of ``query_smiles``, which the
    caller has parsed; the query is parsed again only when some record shares
    its bitmap.
    """
    positions = ranked_positions(store, "mol2cap", query_smiles, n, strategy, query_fp=query_fp)
    return [store.records[pos] for pos in positions]


def _same_graph_positions(store: Store, query_smiles: str,
                          query_fp: MorganFingerprint) -> frozenset[int]:
    """The positions of the records whose graph equals the query's.

    Isomorphic graphs always share a fingerprint, so only the records with the
    query's bitmap go through the (expensive) isomorphism check, and an equal
    graph is never missed. The store keeps the answer per query SMILES; two
    threads that check one query at once both make it and store equal sets.
    """
    candidates = store._positions_by_bitmap.get(query_fp.bitmap)
    if not candidates:
        return frozenset()
    found = store._graph_matches.get(query_smiles)
    if found is None:
        mol = parse_smiles(query_smiles)
        found = store._graph_matches[query_smiles] = frozenset(
            pos for pos in candidates
            if molecules_equal(mol, parse_smiles(store.records[pos].smiles))
        )
    return found


def retrieve_cap2mol(
    store: Store, query_caption: str, n: int, strategy: RetrievalStrategy
) -> list[MoleculeRecord]:
    """Top-n context examples for text-based molecule generation.

    bm25_caption ranks by caption BM25; random draws from a seeded generator.
    A record whose caption equals the query string exactly is never returned.
    When no query term is indexed, the lowest-position records fill the list
    with score zero (documented degenerate behavior).
    """
    positions = ranked_positions(store, "cap2mol", query_caption, n, strategy)
    return [store.records[pos] for pos in positions]


# ---------------------------------------------------------------------------
# Persistence: a store directory with manifest, records TSV, fingerprint file
# (one hex bitmap per record, no header) and the two BM25 index files.
# Checksums are verified on load.
# ---------------------------------------------------------------------------

_RECORDS_FILE = "records.tsv"
_FP_FILE = "fingerprints.jsonl"
_CAPTION_INDEX_FILE = "captions.bm25"
_SMILES_INDEX_FILE = "smiles.bm25"
_MANIFEST_FILE = "manifest.json"
_DATA_FILES = (_RECORDS_FILE, _FP_FILE, _CAPTION_INDEX_FILE, _SMILES_INDEX_FILE)
# Every manifest value load_store reads, with the type it must have.
_MANIFEST_FIELDS = (
    ("record_count", int),
    ("split", str),
    ("checksums", dict),
)
_INDEX_FILES = ((_CAPTION_INDEX_FILE, "caption"), (_SMILES_INDEX_FILE, "smiles_chargram"))


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_store(store: Store, directory) -> None:
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreError(f"cannot create store directory {directory}: {exc.strerror}") from exc

    records_path = directory / _RECORDS_FILE
    with open(records_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("CID\tSMILES\tdescription\n")
        for rec in store.records:
            fh.write(f"{rec.id}\t{rec.smiles}\t{rec.caption}\n")

    fp_path = directory / _FP_FILE
    with open(fp_path, "w", encoding="utf-8", newline="\n") as fh:
        for fp in store.fingerprints:
            fh.write(fp.to_hex() + "\n")

    bm25.save_index(store.caption_index, directory / _CAPTION_INDEX_FILE)
    bm25.save_index(store.smiles_index, directory / _SMILES_INDEX_FILE)

    manifest = {
        "format_version": STORE_FORMAT_VERSION,
        "record_count": len(store.records),
        "split": store.split,
        "checksums": {name: file_sha256(directory / name) for name in _DATA_FILES},
    }
    with open(directory / _MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_store(directory) -> Store:
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_FILE
    if not manifest_path.exists():
        raise StoreError(f"no store manifest at {manifest_path}")
    try:
        manifest_bytes = manifest_path.read_bytes()
        manifest = json.loads(manifest_bytes)
    except (OSError, ValueError) as exc:
        raise StoreError(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StoreError("manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != STORE_FORMAT_VERSION:
        raise StoreError(
            f"unsupported store format version {version!r} (this molrag reads "
            f"{STORE_FORMAT_VERSION}); re-run `molrag ingest` to rebuild the store"
        )
    for key, kind in _MANIFEST_FIELDS:
        if key not in manifest:
            raise StoreError(f"manifest lacks {key}")
        if not isinstance(manifest[key], kind) or isinstance(manifest[key], bool):
            raise StoreError(f"manifest {key} has the wrong type")

    for name in _DATA_FILES:
        try:
            actual = file_sha256(directory / name)
        except OSError as exc:
            raise StoreError(f"cannot read {name}: {exc.strerror}") from exc
        if actual != manifest["checksums"].get(name):
            raise StoreError(f"checksum mismatch for {name}")

    rows = (directory / _RECORDS_FILE).read_text(encoding="utf-8").splitlines()
    fp_lines = (directory / _FP_FILE).read_text(encoding="utf-8").splitlines()
    records: list[MoleculeRecord] = []
    fingerprints: list[MorganFingerprint] = []
    try:
        for row, hex_line in zip(rows[1:], fp_lines, strict=True):
            cid, smiles, caption = row.split("\t", 2)
            records.append(MoleculeRecord(id=cid, smiles=smiles, caption=caption))
            fingerprints.append(MorganFingerprint.from_hex(hex_line))
    except ValueError as exc:
        # The pair that failed follows the last whole pair: a bad hex line, a row that
        # is not three fields, or a line of one file that the other file lacks.
        done = len(fingerprints)
        if len(records) > done or done == len(rows) - 1:
            where = f"{_FP_FILE}:{done + 1}"
        else:
            where = f"{_RECORDS_FILE}:{done + 2}"
        raise StoreError(f"{where} is malformed: {exc}") from exc
    if len(records) != manifest["record_count"]:
        raise StoreError("record count does not match manifest")

    indices = []
    for name, mode in _INDEX_FILES:
        try:
            index = bm25.load_index(directory / name)
        except bm25.Bm25Error as exc:
            raise StoreError(f"{name}: {exc}") from exc
        if (index.doc_count, index.tokenizer_mode) != (len(records), mode):
            raise StoreError(
                f"{name} holds {index.tokenizer_mode} BM25 over {index.doc_count} records; "
                f"the store needs {mode} BM25 over {len(records)} records"
            )
        indices.append(index)
    caption_index, smiles_index = indices
    return Store(
        records, fingerprints, caption_index, smiles_index, split=manifest["split"],
        manifest_sha256=hashlib.sha256(manifest_bytes).hexdigest(),
    )
