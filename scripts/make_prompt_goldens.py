#!/usr/bin/env python3
"""Regenerate the golden prompt snapshots under tests/data/golden/.

Run after any deliberate change to the default templates or prompt assembly:

    python3 scripts/make_prompt_goldens.py
"""

from pathlib import Path

from molrag.prompt import build_prompt, default_template
from molrag.store import load_chebi_tsv

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"
SEPARATOR = "\n<<<USER>>>\n"


def main() -> None:
    golden = DATA_DIR / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    records, _, _ = load_chebi_tsv(DATA_DIR / "corpus.tsv")

    cases = {
        "mol2cap_2shot.txt": ("mol2cap", "CCO", records[:2]),
        "mol2cap_zero.txt": ("mol2cap", "CCO", []),
        "cap2mol_3shot.txt": ("cap2mol", "An interesting alcohol.", records[3:6]),
        "cap2mol_zero.txt": ("cap2mol", "An interesting alcohol.", []),
    }
    for name, (task, query, examples) in cases.items():
        prompt = build_prompt(default_template(task), query, examples)
        (golden / name).write_text(
            prompt.system_text + SEPARATOR + prompt.user_text, encoding="utf-8"
        )
        print(f"{name}: {prompt.token_estimate} estimated tokens")


if __name__ == "__main__":
    main()
