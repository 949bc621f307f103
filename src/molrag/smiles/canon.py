"""Refinement ranks and graph equality.

Ranking works by iterative neighborhood refinement: atoms start from a local
invariant tuple and are repeatedly re-partitioned by the sorted multiset of
(bond order, neighbor rank) pairs, read from each atom's neighbor map, until
the partition stabilises. Atoms that stay tied are left tied; equality
resolves them by searching for a mapping.

Stereochemistry is deliberately excluded from invariants and equality.
"""

from __future__ import annotations

from molrag.smiles.model import Molecule

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
        len(mol.neighbors[idx]),
    )


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _neighbor_profiles(mol: Molecule, ranks: list[int]) -> list[tuple]:
    """Each atom's sorted (bond order, neighbor rank) pairs."""
    return [tuple(sorted((order, ranks[j]) for j, order in nbrs.items())) for nbrs in mol.neighbors]


def refined_ranks(mol: Molecule) -> list[int]:
    """Ranks refined until the partition stops splitting.

    Isomorphic molecules map corresponding atoms to equal ranks, so the
    sorted rank profile is an isomorphism invariant.
    """
    ranks = _dense_ranks([atom_invariant(mol, i) for i in range(len(mol))])
    while True:
        new_ranks = _dense_ranks(list(zip(ranks, _neighbor_profiles(mol, ranks))))
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def invariant_sequence(mol: Molecule, ranks: list[int]) -> tuple:
    """Each atom's (rank, local invariant, sorted (bond order, neighbor rank)
    profile), sorted; under :func:`refined_ranks`, equal for isomorphic molecules."""
    invariants = [atom_invariant(mol, i) for i in range(len(mol))]
    return tuple(sorted(zip(ranks, invariants, _neighbor_profiles(mol, ranks))))


def molecules_equal(a: Molecule, b: Molecule) -> bool:
    """Graph isomorphism (stereo-blind), for the exact-match metric.

    Refines each molecule once and compares the invariant sequences built from
    those ranks (they hold every atom's degree, so molecules with unequal bond
    counts differ there), then verifies by searching for an explicit atom
    mapping constrained to equal refinement classes and consistent bond sets.
    """
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    ranks_a = refined_ranks(a)
    ranks_b = refined_ranks(b)
    if invariant_sequence(a, ranks_a) != invariant_sequence(b, ranks_b):
        return False

    by_rank_b: dict[int, list[int]] = {}
    for j, r in enumerate(ranks_b):
        by_rank_b.setdefault(r, []).append(j)

    # Invariant sequences matched, so atom invariants agree within each rank
    # class; only adjacency needs verification. Assign rarest classes first.
    order = sorted(range(len(a)), key=lambda i: (len(by_rank_b.get(ranks_a[i], ())), ranks_a[i], i))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def compatible(i: int, j: int) -> bool:
        nbrs_b = b.neighbors[j]
        for nbr, order in a.neighbors[i].items():
            if nbr in mapping and nbrs_b.get(mapping[nbr]) != order:
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
