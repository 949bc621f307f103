"""Brute-force reference rankings for the output checks.

Every ranking is a full sort of all store records by score, ties broken by
record position, with the query's own pair excluded: records whose graph
equals the query molecule for Mol2Cap, records whose caption equals the query
for Cap2Mol. Morgan fingerprints and graph equality come from molrag's public
API; BM25 is computed here from its formula, term by term in query order.
Records with exactly equal scores must come in record order. Two records
whose scores differ, but by no more than ``TIE_TOLERANCE``, may swap places,
so a ranking that rounds its sums differently still passes.
"""

from __future__ import annotations

import math
import string
from collections import Counter

from molrag.fingerprint import FingerprintParams, dice_similarity, morgan_fingerprint
from molrag.smiles import SmilesError, molecules_equal, parse_smiles

TIE_TOLERANCE = 1e-9
K1, B = 1.5, 0.75


def read_tsv(path) -> list[tuple[str, str, str]]:
    """Rows a store would keep, in file order: caption present and SMILES parseable."""
    rows = []
    lines = open(path, encoding="utf-8").read().splitlines()
    header = lines[0].split("\t")
    cid, smi, desc = header.index("CID"), header.index("SMILES"), header.index("description")
    for line in lines[1:]:
        parts = line.split("\t")
        if not line.strip() or len(parts) < len(header):
            continue
        caption = "\t".join(parts[desc:]) if desc == len(header) - 1 else parts[desc]
        caption = caption.strip()
        smiles = parts[smi].strip()
        if not caption:
            continue
        try:
            parse_smiles(smiles)
        except SmilesError:
            continue
        rows.append((parts[cid].strip(), smiles, caption))
    return rows


def _caption_tokens(text: str) -> list[str]:
    return [t for t in (raw.strip(string.punctuation) for raw in text.lower().split()) if t]


def _chargrams(text: str) -> list[str]:
    text = text.strip()
    if len(text) <= 3:
        return [text] if text else []
    return [text[i : i + 3] for i in range(len(text) - 2)]


class _Bm25:
    def __init__(self, docs: list[list[str]]) -> None:
        self.tfs = [Counter(doc) for doc in docs]
        self.lengths = [len(doc) for doc in docs]
        self.avgdl = sum(self.lengths) / len(docs)
        df = Counter(term for tf in self.tfs for term in tf)
        n = len(docs)
        self.idf = {t: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for t, d in df.items()}

    def scores(self, query: list[str]) -> list[float]:
        q = Counter(query)
        out = []
        for tf, length in zip(self.tfs, self.lengths):
            norm = K1 * (1.0 - B + B * length / self.avgdl)
            total = 0.0
            for t, c in q.items():
                if tf.get(t):
                    total += c * (self.idf[t] * tf[t] * (K1 + 1.0) / (tf[t] + norm))
            out.append(total)
        return out


class Reference:
    def __init__(self, train_tsv) -> None:
        self.records = read_tsv(train_tsv)
        self._fps = None
        self._caption = None
        self._chargram = None

    def _fingerprints(self):
        if self._fps is None:
            params = FingerprintParams()
            self._fps = [morgan_fingerprint(parse_smiles(s), params) for _, s, _ in self.records]
        return self._fps

    def ranking(self, strategy: str, query: str) -> tuple[list[int], list[float]]:
        """(record positions in rank order with exclusions removed, score per position)."""
        if strategy == "bm25_caption":
            if self._caption is None:
                self._caption = _Bm25([_caption_tokens(c) for _, _, c in self.records])
            scores = self._caption.scores(_caption_tokens(query))
            excluded = {i for i, rec in enumerate(self.records) if rec[2] == query}
        else:
            query_mol = parse_smiles(query)
            query_fp = morgan_fingerprint(query_mol, FingerprintParams())
            fps = self._fingerprints()
            dice = [dice_similarity(query_fp, fp) for fp in fps]
            excluded = {
                i for i, d in enumerate(dice)
                if d == 1.0 and molecules_equal(query_mol, parse_smiles(self.records[i][1]))
            }
            if strategy == "morgan_fts":
                scores = dice
            elif strategy == "bm25_smiles_chargram":
                if self._chargram is None:
                    self._chargram = _Bm25([_chargrams(s) for _, s, _ in self.records])
                scores = self._chargram.scores(_chargrams(query))
            else:
                raise ValueError(f"no reference ranking for {strategy!r}")
        order = sorted((i for i in range(len(scores)) if i not in excluded),
                       key=lambda i: (-scores[i], i))
        return order, scores

    def matches(self, strategy: str, query: str, task: str, got: list[tuple[str, str]]) -> bool:
        """True when ``got`` (example (input, output) pairs, in prompt order) is a top-n.

        Another record may hold a rank only when its score differs from the
        reference record's, by no more than the tolerance: rounding noise may
        reorder near-ties, but exact ties must follow record order.
        """
        order, scores = self.ranking(strategy, query)
        score_of: dict[tuple[str, str], float] = {}
        for i in order:
            score_of.setdefault(self.pair(i, task), scores[i])
        if len(got) > len(order):
            return False
        for rank, pair in enumerate(got):
            want = order[rank]
            if pair == self.pair(want, task):
                continue
            have, expected = score_of.get(pair), scores[want]
            if (have is None or have == expected
                    or abs(have - expected) > TIE_TOLERANCE * max(1.0, abs(expected))):
                return False
        return True

    def pair(self, pos: int, task: str) -> tuple[str, str]:
        """(input, output) of the record at ``pos`` for ``task``; ("", "") for no record."""
        if not 0 <= pos < len(self.records):
            return "", ""
        _, smiles, caption = self.records[pos]
        return (smiles, caption) if task == "mol2cap" else (caption, smiles)
