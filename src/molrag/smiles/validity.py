"""Valence-checked SMILES validity.

A string is valid when it parses and every organic-subset (non-bracket) atom
stays within the standard maximum valence for its element. The aromatic
convention is Kekulé-free: each aromatic bond contributes 1, plus a single
extra unit for taking part in an aromatic system at all. Bracket atoms are
exempt from the cap, since explicit specification overrides.
"""

from __future__ import annotations

from molrag.smiles.model import AROMATIC, MAX_VALENCE, WILDCARD, Molecule, SmilesError
from molrag.smiles.parser import parse_smiles


def computed_valence(mol: Molecule, idx: int) -> int:
    """Sum of bond-order contributions at an atom (1 per aromatic bond), plus the
    aromatic bonus."""
    orders = mol.neighbors[idx].values()
    return sum(1 if order == AROMATIC else order for order in orders) + (AROMATIC in orders)


def molecule_within_valence(mol: Molecule) -> bool:
    """True when every non-bracket, non-wildcard atom respects its valence cap."""
    for idx, atom in enumerate(mol.atoms):
        if atom.bracket or atom.element == WILDCARD:
            continue
        cap = MAX_VALENCE.get(atom.element)
        if cap is not None and computed_valence(mol, idx) > cap:
            return False
    return True


def is_valid_smiles(text: str) -> bool:
    """Parse-and-valence check; total (never raises)."""
    try:
        mol = parse_smiles(text)
    except SmilesError:
        return False
    except (TypeError, AttributeError):
        return False
    return molecule_within_valence(mol)
