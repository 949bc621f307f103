"""Canonical atom ranking and graph equality.

Ranking works by iterative neighborhood refinement: atoms start from a local
invariant tuple and are repeatedly re-partitioned by the sorted multiset of
(bond order, neighbor rank) pairs until the partition stabilises. Remaining
ties are split one atom at a time (lowest-ranked class first) followed by
re-refinement, which yields a total order usable for deterministic output.

Stereochemistry is deliberately excluded from invariants and equality.
"""

from __future__ import annotations

from molrag.smiles.model import Bond, Molecule

Invariant = tuple[str, bool, int, int, int, int]


def atom_invariant(mol: Molecule, idx: int) -> Invariant:
    """Local invariant: element, aromatic flag, charge, isotope, explicit H, degree."""
    a = mol.atoms[idx]
    return (
        a.element,
        a.aromatic,
        a.formal_charge,
        -1 if a.isotope is None else a.isotope,
        -1 if a.explicit_h_count is None else a.explicit_h_count,
        mol.degree(idx),
    )


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(mol: Molecule, ranks: list[int]) -> list[int]:
    """Refine ranks until the partition stops splitting."""
    n = len(mol)
    while True:
        keys = [
            (
                ranks[i],
                tuple(sorted((bond.order.value, ranks[j]) for j, bond in mol.neighbors(i))),
            )
            for i in range(n)
        ]
        new_ranks = _dense_ranks(keys)
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def refined_ranks(mol: Molecule) -> list[int]:
    """Stable refinement ranks, before any artificial tie-breaking.

    Isomorphic molecules map corresponding atoms to equal ranks, so the
    sorted rank profile is an isomorphism invariant.
    """
    initial = [atom_invariant(mol, i) for i in range(len(mol))]
    return _refine(mol, _dense_ranks(initial))


def invariant_sequence(mol: Molecule) -> tuple:
    """Rank-ordered invariant sequence; identical for isomorphic molecules.

    Each entry couples an atom's refined rank with its local invariant and
    its sorted (bond order, neighbor rank) profile.
    """
    ranks = refined_ranks(mol)
    entries = [
        (
            ranks[i],
            atom_invariant(mol, i),
            tuple(sorted((bond.order.value, ranks[j]) for j, bond in mol.neighbors(i))),
        )
        for i in range(len(mol))
    ]
    return tuple(sorted(entries))


def canonical_rank(mol: Molecule) -> list[int]:
    """Assign each atom a distinct rank in 0..len(mol)-1.

    Ties surviving refinement are broken by promoting the lowest-index atom of
    the lowest-ranked tied class, then re-refining, until the partition is
    discrete.
    """
    n = len(mol)
    ranks = refined_ranks(mol)
    while len(set(ranks)) < n:
        counts: dict[int, list[int]] = {}
        for i, r in enumerate(ranks):
            counts.setdefault(r, []).append(i)
        tied_rank = min(r for r, members in counts.items() if len(members) > 1)
        chosen = min(counts[tied_rank])
        keys = [(r, 0 if i == chosen else 1) for i, r in enumerate(ranks)]
        ranks = _refine(mol, _dense_ranks(keys))
    return ranks


def _bond_signature(bond: Bond) -> int:
    return bond.order.value


def molecules_equal(a: Molecule, b: Molecule) -> bool:
    """Graph isomorphism (stereo-blind), for the exact-match metric.

    Compares refined invariant sequences first, then verifies by searching
    for an explicit atom mapping constrained to equal refinement classes and
    consistent bond sets.
    """
    if len(a) != len(b) or len(a.bonds) != len(b.bonds):
        return False
    if len(a) == 0:
        return True
    if invariant_sequence(a) != invariant_sequence(b):
        return False

    ranks_a = refined_ranks(a)
    ranks_b = refined_ranks(b)
    by_rank_b: dict[int, list[int]] = {}
    for j, r in enumerate(ranks_b):
        by_rank_b.setdefault(r, []).append(j)

    # Invariant sequences matched, so atom invariants agree within each rank
    # class; only adjacency needs verification. Assign rarest classes first.
    order = sorted(range(len(a)), key=lambda i: (len(by_rank_b.get(ranks_a[i], ())), ranks_a[i], i))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    bonds_b: dict[tuple[int, int], int] = {bond.key: _bond_signature(bond) for bond in b.bonds}

    def compatible(i: int, j: int) -> bool:
        for nbr, bond in a.neighbors(i):
            if nbr in mapping:
                key = (mapping[nbr], j) if mapping[nbr] < j else (j, mapping[nbr])
                if bonds_b.get(key) != _bond_signature(bond):
                    return False
        return True

    # Depth-first search with an explicit stack: one iterator over the remaining
    # candidates per assigned atom, so a long chain cannot exhaust the recursion limit.
    candidates = [iter(by_rank_b.get(ranks_a[order[0]], ()))]
    while candidates:
        i = order[len(candidates) - 1]
        if i in mapping:  # the search below this choice failed: take it back
            used.discard(mapping.pop(i))
        for j in candidates[-1]:
            if j not in used and compatible(i, j):
                mapping[i] = j
                used.add(j)
                break
        else:
            candidates.pop()
            continue
        if len(candidates) == len(order):
            return True
        candidates.append(iter(by_rank_b.get(ranks_a[order[len(candidates)]], ())))
    return False
