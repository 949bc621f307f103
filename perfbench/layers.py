"""Per-layer metrics derived from the spans that ``tracer.py`` writes.

Layers are molrag's modules. ``.calls`` counts spans, ``.self_s`` sums each
span's duration minus the part of it that its child spans cover, ``.s`` sums
whole (inclusive) durations, and ``.p50_ms``/``.p95_ms`` are percentiles of
inclusive durations. All figures are totals over the traced commands of one
run: one ingest, one query and one evaluate (or ablate).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

RETRIEVAL_KINDS = ("morgan_fts", "bm25_caption", "bm25_smiles_chargram", "random")
RETRY_KINDS = ("rate_limited", "network", "server")
REPAIRS = ("strict_json", "embedded_json", "tolerant_json", "pattern_fallback")
METRIC_FUNCS = {
    "bleu": ("metrics.bleu_n",),
    "rouge": ("metrics.rouge_scores",),
    "levenshtein": ("metrics.levenshtein_mean", "metrics.levenshtein"),
    "exact_match": ("metrics.exact_match_rate",),
    "morgan_fts": ("metrics.morgan_fts_stats",),
    "validity": ("metrics.validity_rate",),
}

# Spans every traced run must record, whatever the workload: ingest, query and
# an evaluation all go through these.
REQUIRED_ALWAYS = (
    "smiles.parse_smiles", "fingerprint.morgan_fingerprint", "bm25.build_index",
    "bm25.load_index", "store.load_chebi_tsv", "store.build_store", "store.save_store",
    "store.load_store", "fingerprint.MorganFingerprint.from_hex", "prompt.build_prompt",
    "llm.ChatClient.complete", "llm.HttpBackend.send", "calibration.calibrated_query",
    "calibration.extract_payload", "metrics.build_report", "cli.run_evaluation",
)


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json: the metric names and their units."""
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(spec.read_text(encoding="utf-8"))["per_layer"]


class Spans:
    """Spans of several traced processes; ids are unique within one process only."""

    def __init__(self) -> None:
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def add_file(self, path: Path) -> None:
        spans = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if isinstance(row, dict):
                for key, value in row["counts"].items():
                    self.counts[key] += value
                continue
            span_id, name, start, end, parent, item, error, note = row
            spans.append({"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "item": item, "error": error, "note": note})
        children = defaultdict(list)
        for span in spans:
            children[span["parent"]].append((span["start"], span["end"]))
        for span in spans:
            span["self"] = span["end"] - span["start"] - _covered(
                span["start"], span["end"], children.get(span["id"], ()))
            self.by_name[span["name"]].append(span)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def self_s(self, *names: str) -> float:
        return sum(span["self"] for name in names for span in self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(span["end"] - span["start"] for span in self.by_name.get(name, ()))

    def durations_ms(self, name: str, kind: str | None = None) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.by_name.get(name, ())
                if kind is None or (s["note"] or {}).get("kind") == kind]

    def notes(self, name: str, key: str) -> list:
        return [s["note"][key] for s in self.by_name.get(name, ())
                if s["note"] and s["note"].get(key) is not None]

    def errors(self, name: str, kind: str) -> int:
        return sum(1 for s in self.by_name.get(name, ()) if s["error"] == kind)

    def count(self, prefix: str, site: str | None = None) -> int:
        if site is not None:
            return self.counts.get(f"{prefix}@{site}", 0)
        return sum(v for k, v in self.counts.items() if k.split("@")[0] == prefix)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(sp: Spans, overhead_ratio: float) -> dict[str, float]:
    items = sp.calls("calibration.calibrated_query")
    retrieves = sp.by_name.get("store.retrieve_mol2cap", []) + sp.by_name.get(
        "store.retrieve_cap2mol", [])
    kinds = defaultdict(list)
    for span in retrieves:
        kinds[(span["note"] or {}).get("kind")].append(span)
    bm25_returned = sum(s["note"]["returned"] for k in ("bm25_caption", "bm25_smiles_chargram")
                        for s in kinds[k])
    completes = sp.calls("llm.ChatClient.complete")
    postings = sp.notes("bm25.top_n", "postings")
    tokens = sp.notes("prompt.build_prompt", "tokens")
    repairs = sp.notes("calibration.extract_payload", "strategy")

    m = {
        "smiles.parse.calls": sp.calls("smiles.parse_smiles"),
        "smiles.parse.self_s": sp.self_s("smiles.parse_smiles"),
        "smiles.molecules_equal.calls": sp.calls("smiles.molecules_equal"),
        "smiles.molecules_equal.self_s": sp.self_s("smiles.molecules_equal"),
        "smiles.is_valid.calls": sp.calls("smiles.is_valid_smiles"),
        "fingerprint.morgan.calls": sp.calls("fingerprint.morgan_fingerprint"),
        "fingerprint.morgan.self_s": sp.self_s("fingerprint.morgan_fingerprint",
                                               "fingerprint.morgan_environments"),
        "fingerprint.dice.calls": sp.count("fingerprint.dice_similarity"),
        "fingerprint.dice.per_query": _ratio(sp.count("fingerprint.dice_similarity", "store"),
                                             len(kinds["morgan_fts"])),
        "fingerprint.from_hex.self_s": sp.self_s("fingerprint.MorganFingerprint.from_hex"),
        "bm25.build_index.self_s": sp.self_s("bm25.build_index"),
        "bm25.load_index.self_s": sp.self_s("bm25.load_index"),
        "bm25.top_n.p50_ms": _pct(sp.durations_ms("bm25.top_n"), 50),
        "bm25.top_n.p95_ms": _pct(sp.durations_ms("bm25.top_n"), 95),
        "bm25.top_n.calls": sp.calls("bm25.top_n"),
        "bm25.postings_scored_per_query": _ratio(sum(postings), len(postings)),
        "bm25.requested_per_result": _ratio(sum(sp.notes("bm25.top_n", "n")), bm25_returned),
        "store.load_chebi_tsv.self_s": sp.self_s("store.load_chebi_tsv"),
        "store.build_store.self_s": sp.self_s("store.build_store"),
        "store.save_store.self_s": sp.self_s("store.save_store"),
        "store.load_store.s": sp.total_s("store.load_store"),
        "store.load_store.calls": sp.calls("store.load_store"),
    }
    for kind in RETRIEVAL_KINDS:
        durations = [(s["end"] - s["start"]) * 1e3 for s in kinds[kind]]
        m[f"store.retrieve.{kind}.p50_ms"] = _pct(durations, 50)
        m[f"store.retrieve.{kind}.p95_ms"] = _pct(durations, 95)
    m.update({
        "store.retrieve.calls_per_item": _ratio(len(retrieves), items),
        "prompt.build.calls": sp.calls("prompt.build_prompt"),
        "prompt.build.self_s": sp.self_s("prompt.build_prompt", "prompt.build_mol2cap_prompt",
                                         "prompt.build_cap2mol_prompt", "prompt.estimate_tokens"),
        "prompt.tokens_mean": _ratio(sum(tokens), len(tokens)),
        "prompt.evictions": sp.calls("prompt.drop_longest_example"),
        "llm.complete.p50_ms": _pct(sp.durations_ms("llm.ChatClient.complete"), 50),
        "llm.complete.p95_ms": _pct(sp.durations_ms("llm.ChatClient.complete"), 95),
        "llm.send.self_s": sp.self_s("llm.HttpBackend.send"),
        "llm.wait_s": sp.total_s("llm.ChatClient.complete") - sp.total_s("llm.HttpBackend.send"),
        "llm.attempts_per_call": _ratio(sp.calls("llm.HttpBackend.send"), completes),
    })
    for kind in RETRY_KINDS:
        m[f"llm.retries.{kind}"] = sp.errors("llm.HttpBackend.send", kind)
    m.update({
        "calibration.item.p50_ms": _pct(sp.durations_ms("calibration.calibrated_query"), 50),
        "calibration.item.p95_ms": _pct(sp.durations_ms("calibration.calibrated_query"), 95),
        "calibration.extract.calls": sp.calls("calibration.extract_payload"),
        "calibration.extract.self_s": sp.self_s("calibration.extract_payload"),
    })
    for name in REPAIRS:
        m[f"calibration.repairs.{name}"] = repairs.count(name)
    m.update({
        "calibration.format_errors": sp.errors("calibration.extract_payload", "FormatError"),
        "calibration.queries_per_item": _ratio(completes, items),
        "metrics.build_report.s": sp.total_s("metrics.build_report"),
    })
    for name, funcs in METRIC_FUNCS.items():
        m[f"metrics.{name}.self_s"] = sp.self_s(*funcs)
    m.update({
        "cli.run_evaluation.s": sp.total_s("cli.run_evaluation"),
        "cli.self_s": sp.self_s("cli.run_evaluation"),
        "cli.cells": sp.calls("cli.run_evaluation"),
        "trace.overhead_ratio": overhead_ratio,
    })
    return {spec["name"]: {"value": m[spec["name"]], "unit": spec["unit"]}
            for spec in per_layer_spec()}


def time_shares(sp: Spans, wall_s: float, top: int = 12) -> dict[str, float]:
    """The ``top`` span names by self time, each as a share of ``wall_s``.

    ``(outside spans)`` is the wall time no span covers: interpreter start,
    imports and argument parsing. Worker threads overlap, so shares can add
    up to more than 1.
    """
    self_by_name = {name: sum(s["self"] for s in spans) for name, spans in sp.by_name.items()}
    roots = [(s["start"], s["end"]) for spans in sp.by_name.values() for s in spans
             if s["parent"] == 0]
    covered = _covered(min((s for s, _ in roots), default=0.0),
                       max((e for _, e in roots), default=0.0), roots)
    ranked = sorted(self_by_name.items(), key=lambda kv: -kv[1])[:top]
    shares = {name: round(t / wall_s, 3) for name, t in ranked}
    shares["(outside spans)"] = round(max(0.0, wall_s - covered) / wall_s, 3)
    return shares


def missing_calls(sp: Spans, required) -> list[str]:
    """Required span or counter names that recorded zero calls."""
    return [name for name in required if not sp.calls(name) and not sp.count(name)]
