"""Okapi BM25 ranking over caption text (or character 3-grams of SMILES).

Scoring follows score(Q, D) = sum over query positions of
IDF(q_i) * f(q_i, D) * (k1 + 1) / (f(q_i, D) + k1 * (1 - b + b * |D| / avgdl))
with the non-negative IDF variant idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)),
at the one setting every index uses: k1 = ``K1`` and b = ``B``.
Each posting's term of that sum (its impact) is computed once, at build, and
stored beside the posting's document id, so a query only adds impacts.

The tokenizer is shared between indexing and querying. Captions are
lowercased and split on whitespace with leading/trailing punctuation stripped
per token; interior hyphens, digits, commas and parentheses survive, which is
what chemical nomenclature needs. No stemming, no stop-word removal.
"""

from __future__ import annotations

import heapq
import json
import math
import string
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

K1 = 1.5
B = 0.75
# Length of the character n-grams that the smiles_chargram mode indexes.
CHARGRAM_SIZE = 3

_MAGIC = b"BM25"
_FORMAT_VERSION = 3
_EDGE_PUNCT = string.punctuation
_BELOW_0X7F = bytes(range(0x7F))


class Bm25Error(ValueError):
    """An empty corpus, or an index file that is corrupt or of an unsupported version."""


def tokenize(text: str) -> list[str]:
    """Lowercase, whitespace-split, strip edge punctuation, drop empties."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_EDGE_PUNCT)
        if token:
            tokens.append(token)
    return tokens


def tokenize_chargrams(text: str) -> list[str]:
    """Character 3-grams (case preserved; SMILES case is significant)."""
    text = text.strip()
    if not text:
        return []
    if len(text) <= CHARGRAM_SIZE:
        return [text]
    return [text[i : i + CHARGRAM_SIZE] for i in range(len(text) - CHARGRAM_SIZE + 1)]


_TOKENIZERS = {"caption": tokenize, "smiles_chargram": tokenize_chargrams}


@dataclass(frozen=True)
class Bm25Index:
    """An inverted index held as two parallel columns per term.

    ``postings[term]`` holds the ids of the documents containing ``term`` in
    ascending order, so its length is the term's document frequency.
    ``impacts[term][i]`` is what one query occurrence of ``term`` adds to the
    score of document ``postings[term][i]``.

    ``universal`` maps each term found in every document to its largest
    impact. Its posting column is every doc id, so document d's impact sits at
    ``impacts[term][d]``. It is derived whenever an index is built or loaded,
    and never written.
    """

    postings: dict[str, array]
    impacts: dict[str, array]
    doc_lengths: array
    avgdl: float
    doc_count: int
    tokenizer_mode: str = "caption"
    universal: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        universal = {term: max(self.impacts[term]) for term, doc_ids in self.postings.items()
                     if len(doc_ids) == self.doc_count}
        object.__setattr__(self, "universal", universal)

    def tokenize_query(self, text: str) -> list[str]:
        return _TOKENIZERS[self.tokenizer_mode](text)


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def build_index(docs: list[str], tokenizer_mode: str = "caption") -> Bm25Index:
    """Index a caption corpus. Raises Bm25Error on an empty document list."""
    if not docs:
        raise Bm25Error("cannot index an empty corpus")
    if tokenizer_mode not in _TOKENIZERS:
        raise ValueError(f"unknown tokenizer mode {tokenizer_mode!r}")
    tok = _TOKENIZERS[tokenizer_mode]

    postings: dict[str, array] = {}
    tfs: dict[str, list[int]] = {}
    doc_lengths = array("i")
    for doc_id, doc in enumerate(docs):
        tokens = tok(doc)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            if term not in postings:
                postings[term], tfs[term] = array("i"), []
            postings[term].append(doc_id)
            tfs[term].append(tf)

    doc_count = len(doc_lengths)
    avgdl = sum(doc_lengths) / doc_count
    # avgdl is 0 only when no document has a token, and then there are no postings.
    norms = [K1 * (1.0 - B + B * dl / avgdl) for dl in doc_lengths] if avgdl else []
    idf = {term: _idf(doc_count, len(doc_ids)) for term, doc_ids in postings.items()}
    impacts = {
        term: array("d", [
            idf[term] * tf * (K1 + 1.0) / (tf + norms[doc_id])
            for doc_id, tf in zip(doc_ids, tfs[term])
        ])
        for term, doc_ids in postings.items()
    }
    return Bm25Index(postings, impacts, doc_lengths, avgdl, doc_count, tokenizer_mode)


def _accumulate(index: Bm25Index, terms: list[tuple[str, int]]) -> list[float]:
    """One float per document: the sum of ``count * impact`` over ``terms``, in order."""
    acc = [0.0] * index.doc_count
    for term, count in terms:
        for doc_id, impact in zip(index.postings[term], index.impacts[term]):
            acc[doc_id] += count * impact
    return acc


def _rescore(index: Bm25Index, terms: list[tuple[str, int]], doc_id: int) -> float:
    """What :func:`_accumulate` over ``terms`` holds for ``doc_id``, computed alone."""
    score = 0.0
    for term, count in terms:
        if term in index.universal:
            score += count * index.impacts[term][doc_id]
            continue
        doc_ids = index.postings[term]
        pos = bisect_left(doc_ids, doc_id)
        if pos < len(doc_ids) and doc_ids[pos] == doc_id:
            score += count * index.impacts[term][pos]
    return score


def top_n(index: Bm25Index, query: str, n: int) -> list[tuple[int, float]]:
    """Best-scoring (doc_id, score) pairs, score descending, doc_id ascending.

    When fewer than ``n`` documents match any query term, zero-score documents
    fill the tail in ascending doc_id order.

    A document's score is its ``count * impact`` terms summed in the query's
    ``Counter`` order. Terms found in every document (``index.universal``, the
    boilerplate of a caption corpus) hold most of the postings, so when the
    query has one, scoring runs in two phases and still returns exactly those
    floats:

    1. Sum only the other terms into a partial score per document, and find
       the k-th largest partial (k = min(n, doc_count)).
    2. Rescore, from 0.0 over every query term in ``Counter`` order, only the
       documents whose partial is at least that k-th partial minus U minus a
       rounding margin, where U sums ``count * max impact`` over the query's
       universal terms; then select among them.

    This is exact because impacts are non-negative: a document's full score is
    at least its partial and at most its partial plus U. So each of the k
    documents at or above the k-th partial scores at least that partial, and
    a document below the cutoff scores strictly less than all k of them: it
    cannot be returned, and cannot tie with a returned document. The margin,
    ``(m + 1) * 2**-48 * (kth + U)`` for m query terms, covers the rounding of
    a sum of at most m non-negative floats (relative error under m * 2**-53)
    in the partial, in the full score and in the cutoff itself. A rescored
    document adds the same products in the same order as the dense sum, so
    its float is the one a single pass over every term computes, and
    ``nlargest`` over the candidates in doc_id order keeps ties in doc_id
    order. When the cutoff admits every document, one dense pass over every
    term is cheaper than rescoring each, and that is what runs; it is also
    the whole of the work for a query with no universal term.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if index.doc_count == 0:
        raise Bm25Error("index holds no documents")

    terms = [(term, count) for term, count in Counter(index.tokenize_query(query)).items()
             if term in index.postings]
    k = min(n, index.doc_count)
    bound = sum(count * index.universal[term] for term, count in terms if term in index.universal)
    if bound and k < index.doc_count:
        partial = _accumulate(index, [item for item in terms if item[0] not in index.universal])
        kth = heapq.nlargest(k, partial)[-1]
        cutoff = kth - bound - (len(terms) + 1) * 2.0**-48 * (kth + bound)
        candidates = [doc_id for doc_id, score in enumerate(partial) if score >= cutoff]
        if len(candidates) < index.doc_count:
            scores = {doc_id: _rescore(index, terms, doc_id) for doc_id in candidates}
            best = heapq.nlargest(k, candidates, key=scores.__getitem__)
            return [(doc_id, scores[doc_id]) for doc_id in best]
    acc = _accumulate(index, terms)
    # nlargest keeps the first of equal keys, and the range runs in doc_id order.
    best = heapq.nlargest(k, range(index.doc_count), key=acc.__getitem__)
    return [(doc_id, acc[doc_id]) for doc_id in best]


# ---------------------------------------------------------------------------
# Persistence. The file is the magic 'BM25', the format version (4 bytes,
# big-endian), the header length (4 bytes, big-endian), a JSON header, then one
# body of little-endian columns: doc_lengths (int32 x doc_count), every term's
# doc ids (int32 x sum(df)), then every term's impacts (float64 x sum(df)),
# terms in the header's sorted order. It ends with a CRC-32 (4 bytes,
# big-endian) of every byte before it, so the header is covered too.
# ---------------------------------------------------------------------------

_HEADER_TYPES = {
    "k1": (int, float),
    "b": (int, float),
    "tokenizer_mode": str,
    "doc_count": int,
    "terms": list,
    "df": list,
}


def _le_bytes(column: array) -> bytes:
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _le_column(typecode: str, data) -> array:
    column = array(typecode)
    column.frombytes(data)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def save_index(index: Bm25Index, path) -> None:
    """Write the versioned binary index file (magic 'BM25')."""
    terms = sorted(index.postings)
    doc_ids, impacts = array("i"), array("d")
    for term in terms:
        doc_ids.extend(index.postings[term])
        impacts.extend(index.impacts[term])
    body = b"".join(_le_bytes(column) for column in (index.doc_lengths, doc_ids, impacts))
    header = {
        "k1": K1,
        "b": B,
        "tokenizer_mode": index.tokenizer_mode,
        "doc_count": index.doc_count,
        "terms": terms,
        "df": [len(index.postings[term]) for term in terms],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    crc = 0
    with open(path, "wb") as fh:
        for part in (_MAGIC, _FORMAT_VERSION.to_bytes(4, "big"),
                     len(header_bytes).to_bytes(4, "big"), header_bytes, body):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(crc.to_bytes(4, "big"))


def _check_header(header) -> None:
    if not isinstance(header, dict):
        raise Bm25Error("BM25 index header is not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        value = header.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise Bm25Error(f"BM25 index header key {key!r} is missing or has the wrong type")
    terms, df = header["terms"], header["df"]
    if header["doc_count"] < 1:
        raise Bm25Error("BM25 index header counts no documents")
    if header["tokenizer_mode"] not in _TOKENIZERS:
        raise Bm25Error(f"unknown tokenizer mode {header['tokenizer_mode']!r}")
    if len(terms) != len(df) or not all(type(count) is int and count > 0 for count in df):
        raise Bm25Error("BM25 index header 'df' is not one positive count per term")
    if not all(isinstance(term, str) for term in terms) or any(
        a >= b for a, b in zip(terms, terms[1:])
    ):
        raise Bm25Error("BM25 index header 'terms' are not distinct sorted strings")


def load_index(path) -> Bm25Index:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise Bm25Error("not a BM25 index file (bad magic)")
    version = int.from_bytes(blob[4:8], "big")
    if version != _FORMAT_VERSION:
        raise Bm25Error(
            f"unsupported BM25 index format version {version} (this molrag reads "
            f"{_FORMAT_VERSION}); re-run `molrag ingest` to rebuild it"
        )
    content = memoryview(blob)[:-4]
    if len(blob) < 16 or zlib.crc32(content) != int.from_bytes(blob[-4:], "big"):
        raise Bm25Error("BM25 index file fails its CRC-32 check")
    hlen = int.from_bytes(blob[8:12], "big")
    try:
        header = json.loads(bytes(content[12 : 12 + hlen]))
    except ValueError as exc:
        raise Bm25Error(f"corrupt BM25 index header: {exc}") from exc
    _check_header(header)
    # Impacts carry k1 and b, so an index built under other values would rank
    # under values other than the ones every run manifest reports.
    if (header["k1"], header["b"]) != (K1, B):
        raise Bm25Error(
            f"BM25 index was built with k1={header['k1']}, b={header['b']} (this molrag "
            f"ranks with k1={K1}, b={B}); re-run `molrag ingest` to rebuild it"
        )

    body = content[12 + hlen :]
    doc_count, terms, df = header["doc_count"], header["terms"], header["df"]
    total = sum(df)
    if len(body) != 4 * doc_count + 12 * total:
        raise Bm25Error(
            f"BM25 index body holds {len(body)} bytes, not 4*{doc_count} + 12*{total}"
        )
    ids_end = 4 * (doc_count + total)
    doc_lengths = _le_column("i", body[: 4 * doc_count])
    doc_ids = _le_column("i", body[4 * doc_count : ids_end])
    impacts = _le_column("d", body[ids_end:])
    if total and (min(doc_ids) < 0 or max(doc_ids) >= doc_count):
        raise Bm25Error(f"BM25 index holds a doc id outside [0, {doc_count})")
    # top_n's pruning is exact only for non-negative impacts. The last byte of a
    # little-endian float64 holds the sign and the top exponent bits; below 0x7F
    # it is a number in [0, 2**1009), so no NaN, infinity or negative passes.
    if blob[12 + hlen + ids_end + 7 : -4 : 8].translate(None, _BELOW_0X7F):
        raise Bm25Error("BM25 index holds an impact outside [0, 2**1009)")

    postings: dict[str, array] = {}
    impact_columns: dict[str, array] = {}
    start = 0
    for term, count in zip(terms, df):
        postings[term] = doc_ids[start : start + count]
        impact_columns[term] = impacts[start : start + count]
        start += count
    return Bm25Index(
        postings,
        impact_columns,
        doc_lengths,
        sum(doc_lengths) / doc_count,
        doc_count,
        header["tokenizer_mode"],
    )
