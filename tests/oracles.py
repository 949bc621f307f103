"""Independent brute-force oracles.

Everything here recomputes results from first principles, without touching
the production code paths it checks (inverted indices, refinement classes,
incremental hashing). Expected values frozen into tests were produced by
these oracles.
"""

from __future__ import annotations

import ast
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from molrag.fingerprint import (
    FingerprintParams,
    MorganFingerprint,
    _encode_initial,
    _encode_round,
    dice_similarity,
    fnv1a_64,
    morgan_fingerprint,
)
from molrag.smiles import SmilesError, is_valid_smiles, molecules_equal, parse_smiles
from molrag.smiles.model import AROMATIC, DOUBLE, QUADRUPLE, SINGLE, TRIPLE, Atom, Molecule


# ---------------------------------------------------------------------------
# The edge list of a molecule, an isomorphic copy of a molecule in another
# atom order, and a SMILES string that spells a molecule in its own atom order.
# ---------------------------------------------------------------------------


def edges(mol: Molecule) -> list[tuple[int, int, int]]:
    """Every bond once, as a sorted list of (low atom, high atom, order)
    triples read from the neighbor maps."""
    return sorted(
        (i, j, order) for i, nbrs in enumerate(mol.neighbors) for j, order in nbrs.items() if i < j
    )


def permute_molecule(mol: Molecule, perm: list[int]) -> Molecule:
    """The same graph with atom ``i`` moved to index ``perm[i]``."""
    atoms = [None] * len(mol)
    neighbors = [None] * len(mol)
    for old, new in enumerate(perm):
        atoms[new] = mol.atoms[old]
        neighbors[new] = {perm[j]: order for j, order in mol.neighbors[old].items()}
    return Molecule(atoms=tuple(atoms), neighbors=tuple(neighbors))


_BOND_SYMBOL = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", QUADRUPLE: "$", AROMATIC: ":"}


def _atom_text(atom: Atom) -> str:
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if not atom.bracket:
        return symbol
    isotope = "" if atom.isotope is None else str(atom.isotope)
    hydrogens = "" if atom.explicit_h_count is None else f"H{atom.explicit_h_count}"
    charge = f"{atom.formal_charge:+d}" if atom.formal_charge else ""
    return f"[{isotope}{symbol}{hydrogens}{charge}]"


def write_smiles(mol: Molecule) -> str:
    """A SMILES string that parses back to ``mol`` atom for atom, in index order.

    Every atom is its own dot-separated fragment and every bond is a ring
    closure ``%nn`` with its order written out, so atom order is free.
    """
    pairs = edges(mol)
    if len(pairs) > 100:
        raise ValueError("at most 100 bonds: one two-digit ring label each")
    closures: list[list[str]] = [[] for _ in range(len(mol))]
    for label, (low, high, order) in enumerate(pairs):
        closures[low].append(f"{_BOND_SYMBOL[order]}%{label:02d}")
        closures[high].append(f"%{label:02d}")
    return ".".join(_atom_text(atom) + "".join(closures[i]) for i, atom in enumerate(mol.atoms))


# ---------------------------------------------------------------------------
# Graph isomorphism by plain backtracking (no refinement): atoms may map
# wherever raw attributes agree; bonds must match order-for-order.
# ---------------------------------------------------------------------------


def _attrs(mol: Molecule, i: int):
    a = mol.atoms[i]
    return (a.element, a.aromatic, a.formal_charge, a.isotope, a.explicit_h_count)


def _bond_map(mol: Molecule) -> dict[tuple[int, int], int]:
    return {(low, high): order for low, high, order in edges(mol)}


def brute_force_isomorphic(a: Molecule, b: Molecule) -> bool:
    n = len(a)
    bonds_a, bonds_b = _bond_map(a), _bond_map(b)
    if n != len(b) or len(bonds_a) != len(bonds_b):
        return False
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or _attrs(a, i) != _attrs(b, j):
                continue
            consistent = True
            for k in range(i):
                key_a = (k, i) if k < i else (i, k)
                jk = mapping[k]
                key_b = (jk, j) if jk < j else (j, jk)
                if bonds_a.get(key_a) != bonds_b.get(key_b):
                    consistent = False
                    break
            if not consistent:
                continue
            mapping[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Valence by its definition: a pass over every bond of the molecule.
# ---------------------------------------------------------------------------


def computed_valence_from_edges(mol: Molecule, idx: int) -> int:
    """Bond orders at atom ``idx``, an aromatic bond counting 1, plus 1 when any
    of them is aromatic."""
    orders = [order for low, high, order in edges(mol) if idx in (low, high)]
    total = sum(1 if order == AROMATIC else order for order in orders)
    return total + (AROMATIC in orders)


# ---------------------------------------------------------------------------
# Rooted-neighborhood signatures: the uncompressed structural counterpart of
# the hashed Morgan environment identifiers.
# ---------------------------------------------------------------------------


def bonded_from_edges(mol: Molecule) -> list[list[tuple[int, int]]]:
    """Each atom's (neighbor index, bond order) pairs, rebuilt from the edge
    list :func:`edges` rather than read from the atom's own neighbor map."""
    bonded: list[list[tuple[int, int]]] = [[] for _ in range(len(mol))]
    for low, high, order in edges(mol):
        bonded[low].append((high, order))
        bonded[high].append((low, order))
    return bonded


def _local_tuple(mol: Molecule, bonded, i: int):
    a = mol.atoms[i]
    return (
        a.element,
        a.aromatic,
        a.formal_charge,
        -1 if a.isotope is None else a.isotope,
        -1 if a.explicit_h_count is None else a.explicit_h_count,
        len(bonded[i]),
    )


def environment_signature(mol: Molecule, bonded, idx: int, radius: int):
    """Canonical nested structure of the BFS tree rooted at an atom; ``bonded`` is
    :func:`bonded_from_edges` of ``mol``."""
    if radius == 0:
        return _local_tuple(mol, bonded, idx)
    inner = environment_signature(mol, bonded, idx, radius - 1)
    subs = tuple(
        sorted((order, environment_signature(mol, bonded, j, radius - 1)) for j, order in bonded[idx])
    )
    return (inner, subs)


def all_environment_signatures(mol: Molecule, radius: int):
    """(atom, round, signature) for every atom and round, mirroring the shape
    of the production environment list."""
    bonded = bonded_from_edges(mol)
    out = []
    for r in range(radius + 1):
        for i in range(len(mol)):
            out.append((i, r, environment_signature(mol, bonded, i, r)))
    return out


def fingerprint_of(bits) -> MorganFingerprint:
    """The fingerprint whose bitmap sets exactly the bit indices ``bits``."""
    return MorganFingerprint(sum(1 << bit for bit in set(bits)))


def bits_of(fp: MorganFingerprint) -> frozenset[int]:
    """The bit indices set in ``fp``'s bitmap; :func:`fingerprint_of` inverted."""
    return frozenset(i for i in range(fp.bitmap.bit_length()) if fp.bitmap >> i & 1)


def morgan_fingerprint_direct(
    mol: Molecule, params: FingerprintParams | None = None
) -> MorganFingerprint:
    """The Morgan fingerprint with every identifier hashed afresh: no memo, and
    each atom's neighbors rebuilt from :func:`edges`, not read from its neighbor map."""
    params = params or FingerprintParams()
    n = len(mol)
    bonded = bonded_from_edges(mol)
    ids = [fnv1a_64(_encode_initial(_local_tuple(mol, bonded, i))) for i in range(n)]
    bits = {ident % params.nbits for ident in ids}
    for _ in range(params.radius):
        ids = [
            fnv1a_64(_encode_round(ids[i], sorted((order, ids[j]) for j, order in bonded[i])))
            for i in range(n)
        ]
        bits.update(ident % params.nbits for ident in ids)
    return fingerprint_of(bits)


# ---------------------------------------------------------------------------
# BM25 by direct evaluation (no inverted index, no cached idf).
# ---------------------------------------------------------------------------


def bm25_score_direct(
    docs_tokens: list[list[str]],
    query_tokens: list[str],
    doc_idx: int,
    k1: float = 1.5,
    b: float = 0.75,
) -> float:
    n_docs = len(docs_tokens)
    doc = docs_tokens[doc_idx]
    avgdl = sum(len(d) for d in docs_tokens) / n_docs
    total = 0.0
    for term in query_tokens:
        df = sum(1 for d in docs_tokens if term in d)
        if df == 0:
            continue
        tf = doc.count(term)
        if tf == 0:
            continue
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avgdl))
    return total


def bm25_rank_direct(docs_tokens, query_tokens, k1=1.5, b=0.75):
    scores = [
        bm25_score_direct(docs_tokens, query_tokens, i, k1, b) for i in range(len(docs_tokens))
    ]
    return sorted(range(len(docs_tokens)), key=lambda i: (-scores[i], i)), scores


# ---------------------------------------------------------------------------
# BM25 over (doc_id, tf) postings, the way the index ranked before impacts were
# precomputed: each posting's score is computed at query time, summed in a dict
# and fully sorted. Scores must match the impact index bit for bit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TfIndex:
    postings: dict[str, list[tuple[int, int]]]
    doc_lengths: list[int]
    avgdl: float
    doc_count: int
    idf: dict[str, float]
    k1: float
    b: float
    tokenize: Callable[[str], list[str]]


def build_tf_index(docs: list[str], tokenize, k1: float = 1.5, b: float = 0.75) -> TfIndex:
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for doc_id, doc in enumerate(docs):
        tokens = tokenize(doc)
        doc_lengths.append(len(tokens))
        for term, tf in sorted(Counter(tokens).items()):
            postings.setdefault(term, []).append((doc_id, tf))
    n = len(doc_lengths)
    idf = {
        term: math.log(1.0 + (n - len(plist) + 0.5) / (len(plist) + 0.5))
        for term, plist in postings.items()
    }
    return TfIndex(postings, doc_lengths, sum(doc_lengths) / n, n, idf, k1, b, tokenize)


def _term_score(index: TfIndex, tf: int, doc_id: int, term: str) -> float:
    k1, b = index.k1, index.b
    norm = k1 * (1.0 - b + b * index.doc_lengths[doc_id] / index.avgdl)
    return index.idf[term] * tf * (k1 + 1.0) / (tf + norm)


def bm25_top_n_tf(index: TfIndex, query: str, n: int) -> list[tuple[int, float]]:
    accum: dict[int, float] = {}
    for term, count in Counter(index.tokenize(query)).items():
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


# ---------------------------------------------------------------------------
# Self-exclusion by its first formulation: every query scans the whole store.
# ---------------------------------------------------------------------------


def mol2cap_exclusions_scan(store, query_smiles: str) -> set[int]:
    """Positions of the records with the query's bitmap and the query's graph."""
    query_mol = parse_smiles(query_smiles)
    query_fp = morgan_fingerprint(query_mol)
    return {
        pos for pos, fp in enumerate(store.fingerprints)
        if fp.bitmap == query_fp.bitmap
        and molecules_equal(query_mol, parse_smiles(store.records[pos].smiles))
    }


def cap2mol_exclusions_scan(store, query_caption: str) -> set[int]:
    """Positions of the records whose caption is exactly the query."""
    return {pos for pos, rec in enumerate(store.records) if rec.caption == query_caption}


# ---------------------------------------------------------------------------
# Text metrics recomputed by direct counting.
# ---------------------------------------------------------------------------


def ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_direct(pairs_tokens: list[tuple[list[str], list[str]]], max_n: int) -> float:
    eps = 1e-9
    cand_len = sum(len(c) for c, _ in pairs_tokens)
    ref_len = sum(len(r) for _, r in pairs_tokens)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matched = 0
        possible = 0
        for cand, ref in pairs_tokens:
            cgrams = ngram_counts(cand, n)
            rgrams = ngram_counts(ref, n)
            matched += sum(min(c, rgrams[g]) for g, c in cgrams.items())
            possible += max(len(cand) - n + 1, 0)
        p_n = matched / possible if matched > 0 and possible > 0 else eps
        log_sum += math.log(p_n) / max_n
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum)


def f1_direct(overlap: int, cand_n: int, ref_n: int) -> float:
    if overlap == 0 or cand_n == 0 or ref_n == 0:
        return 0.0
    p = overlap / cand_n
    r = overlap / ref_n
    return 2 * p * r / (p + r)


def lcs_direct(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def levenshtein_direct(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


# ---------------------------------------------------------------------------
# Molecule metrics by their first formulation: each metric, and the validity
# count, parses every pair's molecules again for itself.
# ---------------------------------------------------------------------------


def _parse_or_none(text: str):
    try:
        return parse_smiles(text)
    except SmilesError:
        return None


def exact_match_rate_reparse(pairs) -> float:
    if not pairs:
        return 0.0
    hits = 0
    for pair in pairs:
        pred = _parse_or_none(pair.effective_prediction)
        ref = _parse_or_none(pair.reference)
        if pred is not None and ref is not None and molecules_equal(pred, ref):
            hits += 1
    return hits / len(pairs)


def morgan_fts_stats_reparse(pairs) -> tuple[float, float, int]:
    if not pairs:
        return 0.0, 0.0, 0
    total = 0.0
    valid_count = 0
    for pair in pairs:
        pred = _parse_or_none(pair.effective_prediction)
        ref = _parse_or_none(pair.reference)
        if pred is None or ref is None:
            continue
        total += dice_similarity(morgan_fingerprint(pred), morgan_fingerprint(ref))
        valid_count += 1
    mean_all = total / len(pairs)
    mean_valid = total / valid_count if valid_count else 0.0
    return mean_all, mean_valid, valid_count


def valid_count_reparse(pairs) -> int:
    return sum(1 for p in pairs if is_valid_smiles(p.effective_prediction))


def validity_rate_reparse(pairs) -> float:
    return valid_count_reparse(pairs) / len(pairs) if pairs else 0.0


# ---------------------------------------------------------------------------
# Model-reply extraction by its first, quadratic formulation: every strategy
# rescans the reply, and a brace scan restarts at every unclosed "{".
# ---------------------------------------------------------------------------

_ANSWER_KEYS = {"mol2cap": ("caption", "caption"), "cap2mol": ("molecule", "smiles")}
_SMILES_CHARS = re.compile(r"[A-Za-z0-9@+\-\[\]\(\)=#$%/\\.:*]+")
_CAPTION_LABEL = re.compile(r"caption\W{0,3}[:=]\s*(.+?)\s*(?:$|\n)", re.IGNORECASE)


def _value_from_mapping(obj, key: str, case_insensitive: bool = False) -> str | None:
    if not isinstance(obj, dict):
        return None
    if key in obj and isinstance(obj[key], str) and obj[key].strip():
        return obj[key].strip()
    if case_insensitive:
        for k, v in obj.items():
            if isinstance(k, str) and k.lower() == key and isinstance(v, str) and v.strip():
                return v.strip()
    return None


def balanced_objects_rescan(text: str) -> list[str]:
    """Every balanced {...} span in appearance order, string-aware."""
    spans = []
    i, n = 0, len(text)
    while i < n:
        if text[i] != "{":
            i += 1
            continue
        depth = 0
        in_string = False
        escaped = False
        for j in range(i, n):
            ch = text[j]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    spans.append(text[i : j + 1])
                    i = j
                    break
        i += 1
    return spans


def _try_strict(text: str, key: str) -> str | None:
    try:
        return _value_from_mapping(json.loads(text), key)
    except (ValueError, RecursionError):
        return None


def _try_embedded(text: str, key: str) -> str | None:
    for span in balanced_objects_rescan(text):
        try:
            value = _value_from_mapping(json.loads(span), key)
        except (ValueError, RecursionError):
            continue
        if value is not None:
            return value
    return None


def _try_tolerant(text: str, key: str) -> str | None:
    candidates = [text.strip()] + balanced_objects_rescan(text)
    for span in candidates:
        for loader in (json.loads, ast.literal_eval):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # undefined escapes such as '\C'
                    obj = loader(span)
            except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
                continue
            value = _value_from_mapping(obj, key, case_insensitive=True)
            if value is not None:
                return value
    return None


def _try_pattern(text: str, output_field: str) -> str | None:
    if output_field == "smiles":
        candidates = sorted(_SMILES_CHARS.findall(text), key=len, reverse=True)
        for cand in candidates:
            stripped = cand.strip(".")
            if stripped and is_valid_smiles(stripped):
                return stripped
        return None
    match = _CAPTION_LABEL.search(text)
    if match:
        value = match.group(1).strip().strip('"`“”').strip()
        if value:
            return value
    return None


def extract_payload_rescan(raw_text: str, task: str) -> tuple[str, str] | None:
    """(value, strategy) of the first strategy that fires, or None when none does."""
    key, output_field = _ANSWER_KEYS[task]
    strategies = (
        ("strict_json", lambda: _try_strict(raw_text, key)),
        ("embedded_json", lambda: _try_embedded(raw_text, key)),
        ("tolerant_json", lambda: _try_tolerant(raw_text, key)),
        ("pattern_fallback", lambda: _try_pattern(raw_text, output_field)),
    )
    for name, attempt in strategies:
        value = attempt()
        if value is not None:
            return value, name
    return None
