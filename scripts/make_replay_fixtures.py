#!/usr/bin/env python3
"""Generate the committed replay fixtures for deterministic evaluation tests.

Runs the real retrieval + prompting + calibration pipeline against a
fabricating backend and records every (prompt digest -> response) pair the
run produces, including scripted error entries. Regenerate whenever the
default templates, retrieval behavior or fixture corpora change:

    python3 scripts/make_replay_fixtures.py
"""

import json
from pathlib import Path

from molrag.calibration import CalibrationFailure, calibrated_query, rank_examples
from molrag.llm import BackendError, ChatClient, prompt_digest
from molrag.prompt import default_template
from molrag.store import RetrievalStrategy, build_store, load_chebi_tsv

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"
SEED = 0
# the default of `molrag evaluate --max-error-allowance`
MAX_ERROR_ALLOWANCE = 5

# cap2mol garbage must contain no token that parses as a valid molecule
GARBAGE_TEXT = "Unable. Unknown. Unclear. Unavailable for this request."

CHATTY_IDX = {3, 23}
SINGLE_QUOTED_IDX = {7, 31}
BARE_IDX = {11, 37}
LENGTH_IDX = {13, 27}
GARBAGE_IDX = {17, 41}
RATE_LIMIT_IDX = {19}
MUTATE_IDX = {5, 9, 21, 29, 43}
INVALID_IDX = {33}


class FabricatingBackend:
    """Plans a response per item the first time a prompt digest appears,
    then serves it with ReplayBackend semantics."""

    def __init__(self, task: str, plan):
        self.task = task
        self.plan = plan
        self.entries: dict[str, dict] = {}
        self.calls: dict[str, int] = {}

    def send(self, prompt):
        digest = prompt_digest(prompt)
        if digest not in self.entries:
            self.entries[digest] = self.plan(prompt, digest)
        entry = self.entries[digest]
        idx = self.calls.get(digest, 0)
        self.calls[digest] = idx + 1
        script = entry.get("error_script", [])
        if idx < len(script):
            raise BackendError(script[idx], "scripted")
        if entry.get("response") is None:
            raise BackendError(script[-1], "scripted (exhausted)")
        return entry["response"], "stop"


def make_planner(task: str, items, n_shots: int):
    by_query = {}
    for i, rec in enumerate(items):
        query = rec.smiles if task == "mol2cap" else rec.caption
        by_query[query] = (i, rec)

    key = "caption" if task == "mol2cap" else "molecule"

    def clean_value(i, rec):
        if task == "mol2cap":
            value = rec.caption
            if i in MUTATE_IDX:
                value = value + " It is handled as a bulk commodity."
            return value
        value = rec.smiles
        if i in MUTATE_IDX:
            value = "C" + value
        if i in INVALID_IDX:
            value = "C1CC"  # parses to an unclosed-ring error: invalid prediction
        return value

    def plan(prompt, digest):
        query = prompt.user_text.split("Input: ", 1)[-1].strip()
        if query not in by_query:
            raise SystemExit(f"unplanned query {query!r}")
        i, rec = by_query[query]
        value = clean_value(i, rec)
        payload = json.dumps({key: value}, ensure_ascii=False)
        if i in LENGTH_IDX and prompt.example_count == n_shots and n_shots > 0:
            return {"error_script": ["context_length_exceeded"]}
        if i in GARBAGE_IDX:
            return {"response": GARBAGE_TEXT}
        if i in RATE_LIMIT_IDX:
            return {"error_script": ["rate_limited", "rate_limited"], "response": payload}
        if i in CHATTY_IDX:
            return {"response": f"Certainly, happy to help! Here is the result: {payload} Let me know if you need more."}
        if i in SINGLE_QUOTED_IDX:
            return {"response": "{'" + key.capitalize() + "': '" + value.replace("'", "") + "'}"}
        if i in BARE_IDX:
            if task == "cap2mol":
                return {"response": f"After analysing the description, the structure is {value} as drawn."}
            return {"response": f"Caption: {value}"}
        return {"response": payload}

    return plan


def run_session(task: str, items, store, n_shots: int, strategy: RetrievalStrategy):
    template = default_template(task)
    backend = FabricatingBackend(task, make_planner(task, items, n_shots))
    client = ChatClient(backend, max_retries=3, backoff_base=0.0, sleep=lambda s: None)
    failures = 0
    for rec in items:
        query = rec.smiles if task == "mol2cap" else rec.caption
        examples = rank_examples(store, task, query, n_shots, strategy)
        try:
            calibrated_query(client, template, query, examples, MAX_ERROR_ALLOWANCE)
        except CalibrationFailure:
            failures += 1
    return backend.entries, failures


def write_fixture(path: Path, entries: dict[str, dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for digest in sorted(entries):
            row = {"digest": digest}
            row.update(entries[digest])
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"{path.name}: {len(entries)} entries")


def main() -> None:
    corpus, fingerprints, _ = load_chebi_tsv(DATA_DIR / "corpus.tsv")
    test_items, _, _ = load_chebi_tsv(DATA_DIR / "test_items.tsv")
    store = build_store(corpus, fingerprints)

    entries, failures = run_session(
        "mol2cap", test_items, store, 2, RetrievalStrategy("morgan_fts")
    )
    write_fixture(DATA_DIR / "replay_eval_mol2cap.jsonl", entries)
    print(f"  mol2cap failures: {failures}")

    entries, failures = run_session(
        "cap2mol", test_items, store, 2, RetrievalStrategy("bm25_caption")
    )
    write_fixture(DATA_DIR / "replay_eval_cap2mol.jsonl", entries)
    print(f"  cap2mol failures: {failures}")

    grid_entries: dict[str, dict] = {}
    grid_items = test_items[:10]
    for n in (0, 1, 2, 5, 10):
        for kind in ("random", "bm25_smiles_chargram", "morgan_fts"):
            strategy = RetrievalStrategy(kind, seed=SEED if kind == "random" else None)
            entries, _ = run_session("mol2cap", grid_items, store, n, strategy)
            grid_entries.update(entries)
    write_fixture(DATA_DIR / "replay_ablate_mol2cap.jsonl", grid_entries)


if __name__ == "__main__":
    main()
