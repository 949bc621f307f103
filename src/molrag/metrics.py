"""Scoring: BLEU-2/4, ROUGE-1/2/L, Levenshtein, exact match, Morgan FTS, validity.

Caption metrics tokenize by whitespace on lowercased text; molecule metrics
work on raw characters (SMILES case is significant). Pairs whose calibration
failed score as empty predictions rather than being dropped, so failures
always push the scores the honest way.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import NamedTuple

from molrag.fingerprint import FingerprintParams, dice_similarity, morgan_fingerprint
from molrag.smiles import SmilesError, molecules_equal, parse_smiles
from molrag.smiles.validity import molecule_within_valence

BLEU_EPSILON = 1e-9

STATUS_OK = "ok"
STATUS_FAILED = "calibration_failed"


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class EvalPair:
    prediction: str
    reference: str
    status: str = STATUS_OK

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_FAILED):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def effective_prediction(self) -> str:
        return "" if self.status == STATUS_FAILED else self.prediction


def _tokens(text: str, mode: str) -> list[str]:
    if mode == "caption":
        return text.lower().split()
    if mode == "smiles":
        return list(text)
    raise ValueError(f"unknown tokenization mode {mode!r}")


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


class PairGrams(NamedTuple):
    """One pair's tokens and its clipped n-gram overlaps, counted once per report."""
    cand: list[str]
    ref: list[str]
    overlaps: list[int]  # clipped count of candidate n-grams found in the reference, n = 1, 2, ...


def _pair_grams(pairs: list[EvalPair], mode: str, max_n: int) -> list[PairGrams]:
    out = []
    for pair in pairs:
        cand = _tokens(pair.effective_prediction, mode)
        ref = _tokens(pair.reference, mode)
        overlaps = []
        for n in range(1, max_n + 1):
            rgrams = _ngrams(ref, n)
            cgrams = _ngrams(cand, n)
            overlaps.append(sum(min(count, rgrams[gram]) for gram, count in cgrams.items()))
        out.append(PairGrams(cand, ref, overlaps))
    return out


def bleu_n(pairs: list[EvalPair], max_n: int, mode: str = "caption",
           grams: list[PairGrams] | None = None) -> float:
    """Corpus BLEU with uniform 1..max_n weights, brevity penalty and
    epsilon smoothing of zero n-gram matches.

    ``grams``, when given, holds ``pairs`` counted in ``mode`` up to at least
    ``max_n``, so BLEU-2 and BLEU-4 can share one count.
    """
    if not pairs:
        raise MetricError("no pairs to score")
    if max_n not in (2, 4):
        raise ValueError("max_n must be 2 or 4")
    if grams is None:
        grams = _pair_grams(pairs, mode, max_n)

    cand_total = 0
    ref_total = 0
    matches = [0] * max_n
    possible = [0] * max_n
    for cand, ref, overlaps in grams:
        cand_total += len(cand)
        ref_total += len(ref)
        for n in range(1, max_n + 1):
            matches[n - 1] += overlaps[n - 1]
            possible[n - 1] += max(len(cand) - n + 1, 0)

    if cand_total == 0:
        return 0.0
    log_sum = 0.0
    for n in range(max_n):
        p_n = matches[n] / possible[n] if matches[n] > 0 and possible[n] > 0 else BLEU_EPSILON
        log_sum += math.log(p_n) / max_n
    brevity = 1.0 if cand_total >= ref_total else math.exp(1.0 - ref_total / cand_total)
    return brevity * math.exp(log_sum)


def _overlap_f1(overlap: int, cand_n: int, ref_n: int) -> float:
    if cand_n == 0 or ref_n == 0 or overlap == 0:
        return 0.0
    precision = overlap / cand_n
    recall = overlap / ref_n
    return 2.0 * precision * recall / (precision + recall)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986; Hyyrö 2004).

    Bit i of ``v`` is 1 while the DP row does not step up at ``b[i]``, so the
    LCS is the number of zero bits once every token of ``a`` is applied.
    """
    masks: dict[str, int] = {}
    for i, token in enumerate(b):
        masks[token] = masks.get(token, 0) | 1 << i
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        mask = masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_scores(pairs: list[EvalPair], grams: list[PairGrams] | None = None) -> dict[str, float]:
    """Mean per-item F1 for unigram overlap, bigram overlap and LCS.

    ``grams``, when given, holds ``pairs`` counted in caption mode up to at least n = 2.
    """
    if not pairs:
        raise MetricError("no pairs to score")
    if grams is None:
        grams = _pair_grams(pairs, "caption", 2)
    r1 = r2 = rl = 0.0
    for cand, ref, overlaps in grams:
        r1 += _overlap_f1(overlaps[0], len(cand), len(ref))
        r2 += _overlap_f1(overlaps[1], max(len(cand) - 1, 0), max(len(ref) - 1, 0))
        lcs = _lcs_length(cand, ref)
        if lcs and cand and ref:
            precision = lcs / len(cand)
            recall = lcs / len(ref)
            rl += 2.0 * precision * recall / (precision + recall)
    count = len(pairs)
    return {"rouge1_f": r1 / count, "rouge2_f": r2 / count, "rougeL_f": rl / count}


def levenshtein(a: str, b: str) -> int:
    """Character edit distance with unit insert/delete/substitute costs.

    Myers' bit-vector algorithm (Myers 1999) in Hyyrö's formulation: one DP
    column of ``a`` is held as bitsets of +1 and -1 vertical deltas and
    advanced once per character of ``b``; ``score`` tracks the last row.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | 1 << i
    full = (1 << len(a)) - 1
    high = 1 << (len(a) - 1)
    pv, mv, score = full, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & full
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        # row 0 of the table is 0, 1, 2, ...: every column adds +1 there
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv & full
    return score


def levenshtein_mean(pairs: list[EvalPair]) -> float:
    if not pairs:
        raise MetricError("no pairs to score")
    return sum(levenshtein(p.effective_prediction, p.reference) for p in pairs) / len(pairs)


class MoleculeScore(NamedTuple):
    """What exact match, Morgan FTS and validity read of one cap2mol pair."""
    valid: bool  # the prediction parses and respects valence
    exact: bool  # prediction and reference are the same graph
    dice: float | None  # None when either side fails to parse


def molecule_scores(pairs: list[EvalPair]) -> list[MoleculeScore]:
    """Parse each prediction once, and its reference once if the prediction
    parsed; no molecule outlives its pair. One Morgan identifier memo serves
    every fingerprint of the call and is dropped with it."""
    memo: dict = {}
    scores = []
    for pair in pairs:
        try:
            pred = parse_smiles(pair.effective_prediction)
        except SmilesError:
            scores.append(MoleculeScore(False, False, None))
            continue
        valid = molecule_within_valence(pred)
        try:
            ref = parse_smiles(pair.reference)
        except SmilesError:
            scores.append(MoleculeScore(valid, False, None))
            continue
        fts = dice_similarity(morgan_fingerprint(pred, memo=memo),
                              morgan_fingerprint(ref, memo=memo))
        scores.append(MoleculeScore(valid, molecules_equal(pred, ref), fts))
    return scores


def exact_match_rate(scores: list[MoleculeScore]) -> float:
    """Fraction of pairs whose molecules are graph-isomorphic; unparseable
    predictions count as non-matches."""
    return sum(1 for s in scores if s.exact) / len(scores) if scores else 0.0


def morgan_fts_stats(scores: list[MoleculeScore]) -> tuple[float, float, int]:
    """(mean over all pairs with unparseable counting 0, mean over parseable
    pairs only, parseable pair count)."""
    total = 0.0
    valid_count = 0
    for s in scores:
        if s.dice is not None:
            total += s.dice
            valid_count += 1
    mean_all = total / len(scores) if scores else 0.0
    mean_valid = total / valid_count if valid_count else 0.0
    return mean_all, mean_valid, valid_count


def validity_rate(scores: list[MoleculeScore]) -> float:
    return sum(1 for s in scores if s.valid) / len(scores) if scores else 0.0


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

_RANGES = {"levenshtein": (0.0, math.inf)}
# (title, metrics key) per column; a column without a key is out of scope
_TABLE_COLUMNS = {
    "mol2cap": [
        ("BLEU-2", "bleu2"),
        ("BLEU-4", "bleu4"),
        ("ROUGE-1", "rouge1"),
        ("ROUGE-2", "rouge2"),
        ("ROUGE-L", "rougeL"),
        ("METEOR", None),
        ("Text2Mol", None),
    ],
    "cap2mol": [
        ("BLEU-2", "bleu2"),
        ("BLEU-4", "bleu4"),
        ("EM", "exact_match"),
        ("Levenshtein", "levenshtein"),
        ("MACCS FTS", None),
        ("RDK FTS", None),
        ("Morgan FTS", "morgan_fts"),
        ("FCD", None),
        ("Text2Mol", None),
        ("Validity", "validity"),
    ],
}


def build_report(pairs: list[EvalPair], task: str, config: dict) -> dict:
    """MetricReport as a plain JSON-ready dict; pure function of its inputs."""
    if task not in _TABLE_COLUMNS:
        raise ValueError(f"unknown task {task!r}")
    if not pairs:
        raise MetricError("no pairs to score")

    failed = sum(1 for p in pairs if p.status == STATUS_FAILED)
    metrics: dict[str, float] = {}
    counts = {"items": len(pairs), "calibration_failed": failed}

    if task == "mol2cap":
        grams = _pair_grams(pairs, "caption", 4)
        metrics["bleu2"] = bleu_n(pairs, 2, mode="caption", grams=grams)
        metrics["bleu4"] = bleu_n(pairs, 4, mode="caption", grams=grams)
        rouge = rouge_scores(pairs, grams)
        metrics["rouge1"] = rouge["rouge1_f"]
        metrics["rouge2"] = rouge["rouge2_f"]
        metrics["rougeL"] = rouge["rougeL_f"]
    else:
        grams = _pair_grams(pairs, "smiles", 4)
        metrics["bleu2"] = bleu_n(pairs, 2, mode="smiles", grams=grams)
        metrics["bleu4"] = bleu_n(pairs, 4, mode="smiles", grams=grams)
        metrics["levenshtein"] = levenshtein_mean(pairs)
        scores = molecule_scores(pairs)
        metrics["exact_match"] = exact_match_rate(scores)
        mean_all, mean_valid, parseable = morgan_fts_stats(scores)
        metrics["morgan_fts"] = mean_all
        metrics["morgan_fts_valid_only"] = mean_valid
        metrics["validity"] = validity_rate(scores)
        counts["valid"] = sum(1 for s in scores if s.valid)
        counts["invalid"] = counts["items"] - counts["valid"]
        counts["parseable"] = parseable

    for name, value in metrics.items():
        low, high = _RANGES.get(name, (0.0, 1.0))
        if not (low <= value <= high) or math.isnan(value):
            raise MetricError(f"{name} = {value} outside documented range")

    return {
        "task": task,
        "metrics": metrics,
        "not_computed": {title.lower().replace(" ", "_"): "n/a - out of scope"
                         for title, key in _TABLE_COLUMNS[task] if key is None},
        "counts": counts,
        "config": config,
        "fingerprint_params": asdict(FingerprintParams()),
    }


def format_columns(header: list[str], rows: list[list[str]]) -> list[str]:
    """The header, a dash rule as long as it and the rows, each column left-justified
    to its widest cell and two spaces from the next."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    head, *body = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                   for row in (header, *rows)]
    return [head, "-" * len(head), *body]


def render_table(report: dict) -> str:
    """Aligned-column text table mirroring the standard column ordering."""
    task = report["task"]
    headers = []
    values = []
    for title, key in _TABLE_COLUMNS[task]:
        headers.append(title)
        if key is None:
            values.append("n/a")
        elif key == "levenshtein":
            values.append(f"{report['metrics'][key]:.2f}")
        else:
            values.append(f"{report['metrics'][key]:.3f}")
    counts = report["counts"]
    lines = [
        f"task: {task}",
        *format_columns(headers, [values]),
        "",
        f"items: {counts['items']}  calibration_failed: {counts['calibration_failed']}",
    ]
    if "valid" in counts:
        lines.append(f"valid: {counts['valid']}  invalid: {counts['invalid']}")
    return "\n".join(lines) + "\n"
