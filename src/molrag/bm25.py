"""Okapi BM25 ranking over caption text (or character 3-grams of SMILES).

Scoring follows score(Q, D) = sum over query positions of
IDF(q_i) * f(q_i, D) * (k1 + 1) / (f(q_i, D) + k1 * (1 - b + b * |D| / avgdl))
with the non-negative IDF variant idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)).

The tokenizer is shared between indexing and querying. Captions are
lowercased and split on whitespace with leading/trailing punctuation stripped
per token; interior hyphens, digits, commas and parentheses survive, which is
what chemical nomenclature needs. No stemming, no stop-word removal.
"""

from __future__ import annotations

import json
import math
import string
import zlib
from collections import Counter
from dataclasses import dataclass

_MAGIC = b"BM25"
_FORMAT_VERSION = 1
_EDGE_PUNCT = string.punctuation


class Bm25Error(ValueError):
    pass


class EmptyCorpus(Bm25Error):
    pass


class Bm25FormatError(Bm25Error):
    """Persisted index file is corrupt or has an unsupported version."""


def tokenize(text: str) -> list[str]:
    """Lowercase, whitespace-split, strip edge punctuation, drop empties."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_EDGE_PUNCT)
        if token:
            tokens.append(token)
    return tokens


def tokenize_chargrams(text: str, n: int = 3) -> list[str]:
    """Character n-grams (case preserved; SMILES case is significant)."""
    text = text.strip()
    if not text:
        return []
    if len(text) <= n:
        return [text]
    return [text[i : i + n] for i in range(len(text) - n + 1)]


_TOKENIZERS = {"caption": tokenize, "smiles_chargram": tokenize_chargrams}


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError("k1 must be positive")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


@dataclass(frozen=True)
class Bm25Index:
    postings: dict[str, list[tuple[int, int]]]
    doc_lengths: list[int]
    avgdl: float
    doc_count: int
    idf: dict[str, float]
    params: Bm25Params
    tokenizer_mode: str = "caption"

    def tokenize_query(self, text: str) -> list[str]:
        return _TOKENIZERS[self.tokenizer_mode](text)


def build_index(
    docs: list[str], params: Bm25Params | None = None, tokenizer_mode: str = "caption"
) -> Bm25Index:
    """Index a caption corpus. Raises EmptyCorpus on an empty document list."""
    if not docs:
        raise EmptyCorpus("cannot index an empty corpus")
    if tokenizer_mode not in _TOKENIZERS:
        raise ValueError(f"unknown tokenizer mode {tokenizer_mode!r}")
    params = params or Bm25Params()
    tok = _TOKENIZERS[tokenizer_mode]

    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for doc_id, doc in enumerate(docs):
        tokens = tok(doc)
        doc_lengths.append(len(tokens))
        for term, tf in sorted(Counter(tokens).items()):
            postings.setdefault(term, []).append((doc_id, tf))
    return _make_index(postings, doc_lengths, params, tokenizer_mode)


def _make_index(
    postings: dict[str, list[tuple[int, int]]],
    doc_lengths: list[int],
    params: Bm25Params,
    tokenizer_mode: str,
) -> Bm25Index:
    """Derive the document count, avgdl and IDF table from postings and lengths."""
    doc_count = len(doc_lengths)
    return Bm25Index(
        postings=postings,
        doc_lengths=doc_lengths,
        avgdl=sum(doc_lengths) / doc_count if doc_count else 0.0,
        doc_count=doc_count,
        idf={
            term: math.log(1.0 + (doc_count - len(plist) + 0.5) / (len(plist) + 0.5))
            for term, plist in postings.items()
        },
        params=params,
        tokenizer_mode=tokenizer_mode,
    )


def _term_score(index: Bm25Index, tf: int, doc_id: int, term: str) -> float:
    k1, b = index.params.k1, index.params.b
    norm = k1 * (1.0 - b + b * index.doc_lengths[doc_id] / index.avgdl)
    return index.idf[term] * tf * (k1 + 1.0) / (tf + norm)


def top_n(index: Bm25Index, query: str, n: int) -> list[tuple[int, float]]:
    """Best-scoring (doc_id, score) pairs, score descending, doc_id ascending.

    When fewer than ``n`` documents match any query term, zero-score documents
    fill the tail in ascending doc_id order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if index.doc_count == 0:
        raise EmptyCorpus("index holds no documents")

    query_tokens = index.tokenize_query(query)
    accum: dict[int, float] = {}
    for term, count in Counter(query_tokens).items():
        plist = index.postings.get(term)
        if not plist:
            continue
        for doc_id, tf in plist:
            accum[doc_id] = accum.get(doc_id, 0.0) + count * _term_score(index, tf, doc_id, term)

    ranked = sorted(accum.items(), key=lambda item: (-item[1], item[0]))
    limit = min(n, index.doc_count)
    if len(ranked) < limit:
        matched = set(accum)
        for doc_id in range(index.doc_count):
            if doc_id not in matched:
                ranked.append((doc_id, 0.0))
                if len(ranked) >= limit:
                    break
    return ranked[:limit]


def save_index(index: Bm25Index, path) -> None:
    """Write the versioned binary index file (magic 'BM25')."""
    header = {
        "version": _FORMAT_VERSION,
        "k1": index.params.k1,
        "b": index.params.b,
        "tokenizer_mode": index.tokenizer_mode,
        "lowercased": index.tokenizer_mode == "caption",
        "stopwords_removed": False,
        "doc_count": index.doc_count,
    }
    body = {
        "doc_lengths": index.doc_lengths,
        "postings": {term: index.postings[term] for term in sorted(index.postings)},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body_bytes = zlib.compress(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode(), level=6
    )
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_FORMAT_VERSION.to_bytes(4, "big"))
        fh.write(len(header_bytes).to_bytes(4, "big"))
        fh.write(header_bytes)
        fh.write(len(body_bytes).to_bytes(4, "big"))
        fh.write(body_bytes)


def load_index(path) -> Bm25Index:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise Bm25FormatError("not a BM25 index file (bad magic)")
    version = int.from_bytes(blob[4:8], "big")
    if version != _FORMAT_VERSION:
        raise Bm25FormatError(f"unsupported index format version {version}")
    hlen = int.from_bytes(blob[8:12], "big")
    try:
        header = json.loads(blob[12 : 12 + hlen])
        blen_off = 12 + hlen
        blen = int.from_bytes(blob[blen_off : blen_off + 4], "big")
        body = json.loads(zlib.decompress(blob[blen_off + 4 : blen_off + 4 + blen]))
    except (ValueError, zlib.error) as exc:
        raise Bm25FormatError(f"corrupt BM25 index file: {exc}") from exc

    postings = {term: [(d, tf) for d, tf in plist] for term, plist in body["postings"].items()}
    doc_lengths = list(body["doc_lengths"])
    if header["doc_count"] != len(doc_lengths):
        raise Bm25FormatError("doc_count does not match doc_lengths")
    return _make_index(
        postings,
        doc_lengths,
        Bm25Params(k1=header["k1"], b=header["b"]),
        header["tokenizer_mode"],
    )
