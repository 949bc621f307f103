"""Seeded ChEBI-20-shaped corpus generator.

The recipe is fixed; only the seed and the split sizes vary. A molecule is a
graph grown from a core (chain, ring or fused ring) by attaching further
fragments (chains, rings, branches and charged groups); the number of attached
fragments is drawn from a long-tailed distribution, so heavy-atom counts are
long-tailed too. SMILES are written by a depth-first walk from a random start
atom with shuffled neighbour order, which is how a test molecule can repeat a
train graph in a different atom order.

A caption names the molecule's fragments (so caption-BM25 neighbours tend to
be structurally related) and fills the rest from a Zipfian vocabulary.

Recipe constants (never tuned after the first measurement):

* vocabulary: 4,000 pseudo-words, Zipf exponent 1.07;
* unparseable rows: every 100th row of every split (quarantined by ingest);
* test molecules repeating a train graph in another atom order: every 20th.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import statistics
from pathlib import Path

VOCAB_SIZE = 4000
ZIPF_EXPONENT = 1.07
UNPARSEABLE_STRIDE = 100  # every 100th row of every split: 1%
DUPLICATE_STRIDE = 20  # every 20th test row: 5%

# ChEBI-20 split sizes (train / test / validation).
CHEBI20_SPLITS = {"train": 26407, "test": 3300, "validation": 3300}

_MAX_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1, "Br": 1}
_ALKYL = ["methyl", "ethyl", "propyl", "butyl", "pentyl", "hexyl", "heptyl", "octyl",
          "nonyl", "decyl", "undecyl", "dodecyl"]
_SYLLABLES = ["a", "e", "i", "o", "u", "ab", "ac", "al", "am", "an", "ar", "ba", "be",
              "ca", "ce", "ci", "co", "da", "de", "di", "do", "el", "en", "er", "ex",
              "fa", "fe", "fo", "ga", "ge", "go", "ha", "he", "hy", "id", "il", "in",
              "is", "ka", "la", "le", "li", "lo", "ma", "me", "mi", "mo", "na", "ne",
              "ni", "no", "ol", "on", "or", "ox", "pa", "pe", "pi", "po", "ra", "re",
              "ri", "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to", "ul", "um",
              "un", "ur", "va", "ve", "vi", "yl", "za", "ze", "zo"]


class _Graph:
    """Atoms as (element, aromatic, charge, bracket text or None); bond orders 1-3 or 'ar'."""

    def __init__(self) -> None:
        self.atoms: list[tuple[str, bool, int, str | None]] = []
        self.adj: list[dict[int, object]] = []
        self.free: list[int] = []

    def add_atom(self, element, aromatic=False, charge=0, bracket=None) -> int:
        self.atoms.append((element, aromatic, charge, bracket))
        self.adj.append({})
        # bracket atoms take no substituents; aromatic atoms owe one unit to the ring
        self.free.append(0 if bracket else _MAX_VALENCE[element] - (1 if aromatic else 0))
        return len(self.atoms) - 1

    def bond(self, a: int, b: int, order=1) -> None:
        self.adj[a][b] = order
        self.adj[b][a] = order
        cost = 1 if order == "ar" else order
        self.free[a] -= cost
        self.free[b] -= cost


def _ring(g: _Graph, elements: str, aromatic: bool) -> list[int]:
    idx = [g.add_atom(el, aromatic) for el in elements]
    order = "ar" if aromatic else 1
    for a, b in zip(idx, idx[1:] + idx[:1]):
        g.bond(a, b, order)
    return idx


def _fused(g: _Graph, aromatic: bool) -> list[int]:
    idx = _ring(g, "CCCCCC", aromatic)
    order = "ar" if aromatic else 1
    extra = [g.add_atom("C", aromatic) for _ in range(4)]
    for a, b in zip([idx[0]] + extra, extra + [idx[1]]):
        g.bond(a, b, order)
    return idx + extra


def _chain(g: _Graph, rng: random.Random) -> tuple[list[int], str]:
    k = min(12, 1 + int(rng.expovariate(0.3)))
    idx = [g.add_atom("C") for _ in range(k)]
    unsaturated = k > 1 and rng.random() < 0.25
    for i, (a, b) in enumerate(zip(idx, idx[1:])):
        g.bond(a, b, 2 if unsaturated and i == 0 else 1)
    return idx, ("unsaturated " if unsaturated else "") + _ALKYL[k - 1] + " chain"


def _scaffold(g: _Graph, rng: random.Random) -> tuple[list[int], str]:
    kind = rng.choices(
        ["chain", "benzene", "pyridine", "thiophene", "cyclohexane", "cyclopentane",
         "naphthalene", "decalin"],
        weights=[30, 25, 8, 5, 10, 6, 5, 3],
    )[0]
    if kind == "chain":
        return _chain(g, rng)
    if kind == "naphthalene":
        return _fused(g, True), "naphthalene ring system"
    if kind == "decalin":
        return _fused(g, False), "decalin ring system"
    elements, aromatic = {
        "benzene": ("CCCCCC", True),
        "pyridine": ("NCCCCC", True),
        "thiophene": ("SCCCC", True),
        "cyclohexane": ("CCCCCC", False),
        "cyclopentane": ("CCCCC", False),
    }[kind]
    return _ring(g, elements, aromatic), kind + " ring"


def _substituent(g: _Graph, rng: random.Random, anchor: int) -> str:
    kind = rng.choices(
        ["hydroxy", "amino", "fluoro", "chloro", "bromo", "methoxy", "carboxy", "oxo",
         "cyano", "carboxylate", "ammonium", "nitro", "sulfonate"],
        weights=[14, 9, 5, 5, 3, 6, 8, 6, 3, 4, 3, 3, 2],
    )[0]
    if kind in ("hydroxy", "amino", "fluoro", "chloro", "bromo"):
        el = {"hydroxy": "O", "amino": "N", "fluoro": "F", "chloro": "Cl", "bromo": "Br"}[kind]
        g.bond(anchor, g.add_atom(el))
        return kind + " group"
    if kind == "oxo" and g.free[anchor] >= 2 and not g.atoms[anchor][1]:
        g.bond(anchor, g.add_atom("O"), 2)
        return "oxo group"
    if kind == "methoxy":
        o = g.add_atom("O")
        g.bond(anchor, o)
        g.bond(o, g.add_atom("C"))
        return "methoxy group"
    if kind == "cyano":
        c = g.add_atom("C")
        g.bond(anchor, c)
        g.bond(c, g.add_atom("N"), 3)
        return "cyano group"
    if kind == "ammonium":
        g.bond(anchor, g.add_atom("N", charge=1, bracket="[NH3+]"))
        return "ammonium group"
    if kind == "nitro":
        n = g.add_atom("N", charge=1, bracket="[N+]")
        g.bond(anchor, n)
        g.bond(n, g.add_atom("O"), 2)
        g.bond(n, g.add_atom("O", charge=-1, bracket="[O-]"))
        return "nitro group"
    if kind == "sulfonate":
        s = g.add_atom("S", bracket="S")
        g.bond(anchor, s)
        g.bond(s, g.add_atom("O"), 2)
        g.bond(s, g.add_atom("O"), 2)
        g.bond(s, g.add_atom("O", charge=-1, bracket="[O-]"))
        return "sulfonate group"
    # carboxy / carboxylate, and oxo where the anchor cannot take a double bond
    c = g.add_atom("C")
    g.bond(anchor, c)
    g.bond(c, g.add_atom("O"), 2)
    if kind == "carboxylate":
        g.bond(c, g.add_atom("O", charge=-1, bracket="[O-]"))
        if rng.random() < 0.5:
            g.add_atom("Na", charge=1, bracket="[Na+]")
            return "carboxylate group with sodium counterion"
        return "carboxylate group"
    g.bond(c, g.add_atom("O"))
    return "carboxylic acid group"


def _molecule(rng: random.Random) -> tuple[_Graph, list[str]]:
    g = _Graph()
    _, phrase = _scaffold(g, rng)
    phrases = [phrase]
    extra = min(40, int(rng.lognormvariate(1.6, 0.8)))
    for _ in range(extra):
        anchors = [i for i, f in enumerate(g.free) if f >= 1 and g.atoms[i][3] is None]
        if not anchors:
            break
        anchor = rng.choice(anchors)
        if rng.random() < 0.35:
            start = len(g.atoms)
            _, phrase = _scaffold(g, rng)
            attach = next(i for i in range(start, len(g.atoms)) if g.free[i] >= 1)
            g.bond(anchor, attach)
        else:
            phrase = _substituent(g, rng, anchor)
        phrases.append(phrase)
    return g, phrases


def write_smiles(g: _Graph, rng: random.Random) -> str:
    """Depth-first SMILES from a random start atom with shuffled neighbour order."""
    n = len(g.atoms)
    seen = [False] * n
    parts = []
    for start in rng.sample(range(n), n):
        if seen[start]:
            continue
        children: dict[int, list[int]] = {}
        preorder: dict[int, int] = {}
        ring_bonds: list[tuple[int, int]] = []
        stack = [(start, -1)]
        while stack:
            atom, parent = stack.pop()
            if seen[atom]:
                ring_bonds.append((parent, atom))
                continue
            seen[atom] = True
            preorder[atom] = len(preorder)
            if parent >= 0:
                children.setdefault(parent, []).append(atom)
            nbrs = [b for b in g.adj[atom] if b != parent and not seen[b]]
            rng.shuffle(nbrs)
            stack.extend((b, atom) for b in reversed(nbrs))
        # a ring bond is found from both ends' stacks; keep each once
        rings = {tuple(sorted(pair, key=preorder.get)) for pair in ring_bonds
                 if pair[1] not in children.get(pair[0], ())
                 and pair[0] not in children.get(pair[1], ())}
        opens: dict[int, list[int]] = {}
        closes: dict[int, list[int]] = {}
        for a, b in sorted(rings, key=lambda p: (preorder[p[0]], preorder[p[1]])):
            opens.setdefault(a, []).append(b)
            closes.setdefault(b, []).append(a)
        parts.append(_emit(g, start, children, opens, closes))
    return ".".join(parts)


def _bond_text(g: _Graph, a: int, b: int) -> str:
    order = g.adj[a][b]
    if order == "ar":
        return ""
    if order == 1:
        return "-" if g.atoms[a][1] and g.atoms[b][1] else ""
    return "=" if order == 2 else "#"


def _atom_text(atom) -> str:
    element, aromatic, _, bracket = atom
    if bracket:
        return bracket
    return element.lower() if aromatic else element


def _emit(g, start, children, opens, closes) -> str:
    out: list[str] = []
    free_digits = list(range(1, 100))
    digit_of: dict[tuple[int, int], int] = {}
    # explicit stack: (atom, incoming-bond text) or a literal string to emit
    stack: list = [(start, "")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        atom, bond = item
        out.append(bond + _atom_text(g.atoms[atom]))
        for other in closes.get(atom, ()):
            digit = digit_of.pop((other, atom))
            out.append(_digit(digit))
            bisect.insort(free_digits, digit)
        for other in opens.get(atom, ()):
            digit = free_digits.pop(0)
            digit_of[(atom, other)] = digit
            out.append(_bond_text(g, atom, other) + _digit(digit))
        kids = children.get(atom, [])
        for i, kid in reversed(list(enumerate(kids))):
            if i < len(kids) - 1:
                stack.append(")")
                stack.append((kid, _bond_text(g, atom, kid)))
                stack.append("(")
            else:
                stack.append((kid, _bond_text(g, atom, kid)))
    return "".join(out)


def _digit(d: int) -> str:
    return str(d) if d < 10 else f"%{d:02d}"


def _corrupt(smiles: str, rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return smiles + "("
    if kind == 1:
        return smiles + "9" if "9" not in smiles else "C%97" + smiles
    return smiles[: len(smiles) // 2] + "Q" + smiles[len(smiles) // 2 :]


class _Vocabulary:
    def __init__(self, rng: random.Random) -> None:
        words: set[str] = set()
        while len(words) < VOCAB_SIZE:
            words.add("".join(rng.choices(_SYLLABLES, k=rng.randint(2, 4))))
        self.words = sorted(words)
        rng.shuffle(self.words)
        weights = (1.0 / r**ZIPF_EXPONENT for r in range(1, VOCAB_SIZE + 1))
        self.cum = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def _caption(phrases: list[str], vocab: _Vocabulary, rng: random.Random) -> str:
    names = sorted(set(phrases), key=phrases.index)
    core = names[0]
    rest = ", ".join(names[1:5]) if len(names) > 1 else "no further substituents"
    tail = max(4, int(rng.lognormvariate(2.8, 0.45)))
    words = vocab.draw(rng, tail)
    cut = len(words) // 2
    return (
        f"The molecule is a {' '.join(vocab.draw(rng, 2))} compound built on a {core} "
        f"carrying {rest}. It has a role as a {' '.join(words[:cut])} and is "
        f"{' '.join(words[cut:])}."
    )


def _rows(rng, vocab, count, first_cid, train_graphs=None):
    """(cid, smiles, caption, kind, heavy atoms) rows, kind ok/bad/dup; and the good graphs.

    Broken and repeated rows sit at fixed strides, so every prefix of a split
    holds its stated share of them.
    """
    rows = []
    graphs = []
    for i in range(count):
        kind = "ok"
        if train_graphs and i % DUPLICATE_STRIDE == DUPLICATE_STRIDE - 1:
            for _ in range(50):
                g, phrases, written = rng.choice(train_graphs)
                smiles = write_smiles(g, rng)
                if smiles != written:
                    kind = "dup"
                    break
        else:
            g, phrases = _molecule(rng)
            smiles = write_smiles(g, rng)
        if i % UNPARSEABLE_STRIDE == UNPARSEABLE_STRIDE // 2:
            smiles, kind = _corrupt(smiles, rng), "bad"
        else:
            graphs.append((g, phrases, smiles))
        rows.append((str(first_cid + i), smiles, _caption(phrases, vocab, rng), kind, len(g.atoms)))
    return rows, graphs


def _write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("CID\tSMILES\tdescription\n")
        for cid, smiles, caption, _, _ in rows:
            fh.write(f"{cid}\t{smiles}\t{caption}\n")


def _quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4)
    return {"q1": q[0], "median": q[1], "q3": q[2], "max": max(values)}


def generate(out_dir, seed: int, train_size: int, test_size: int) -> dict:
    """Write train.tsv, test.tsv and stats.json under ``out_dir``; return the stats.

    Rows carry a ``kind`` only in memory: the TSVs hold the ChEBI-20 columns.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench-corpus-{seed}")
    vocab = _Vocabulary(rng)
    train, train_graphs = _rows(rng, vocab, train_size, 1_000_000)
    test, _ = _rows(rng, vocab, test_size, 5_000_000, train_graphs)
    _write_tsv(out_dir / "train.tsv", train)
    _write_tsv(out_dir / "test.tsv", test)

    all_rows = train + test
    tokens = [len(row[2].split()) for row in all_rows]
    stats = {
        "seed": seed,
        "rows": {"train": len(train), "test": len(test)},
        "heavy_atoms": _quartiles([row[4] for row in all_rows]),
        "caption_tokens": _quartiles(tokens),
        "vocabulary_size": len({w.lower().strip(".,") for row in all_rows for w in row[2].split()}),
        "quarantined_share": sum(row[3] == "bad" for row in all_rows) / len(all_rows),
        "test_duplicate_share": sum(row[3] == "dup" for row in test) / max(1, len(test)),
        "recipe": {
            "vocab_size": VOCAB_SIZE,
            "zipf_exponent": ZIPF_EXPONENT,
            "unparseable_share": 1 / UNPARSEABLE_STRIDE,
            "duplicate_share": 1 / DUPLICATE_STRIDE,
        },
    }
    (out_dir / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    stats["bad_train_cids"] = {row[0] for row in train if row[3] == "bad"}
    stats["bad_test_cids"] = {row[0] for row in test if row[3] == "bad"}
    stats["dup_test_cids"] = {row[0] for row in test if row[3] == "dup"}
    return stats


if __name__ == "__main__":
    import sys

    print(json.dumps({k: v for k, v in generate(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]),
                                                  int(sys.argv[4])).items()
                      if not k.endswith("_cids")}, indent=2))
