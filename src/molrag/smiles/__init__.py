"""SMILES parsing, graph equality and validity."""

from molrag.smiles.canon import molecules_equal
from molrag.smiles.model import (
    Atom,
    Bond,
    BondOrder,
    EmptyBranch,
    InvalidBracketAtom,
    Molecule,
    SmilesError,
    UnbalancedParenthesis,
    UnknownToken,
    UnmatchedRingClosure,
)
from molrag.smiles.parser import parse_smiles
from molrag.smiles.validity import is_valid_smiles

__all__ = [
    "Atom",
    "Bond",
    "BondOrder",
    "EmptyBranch",
    "InvalidBracketAtom",
    "Molecule",
    "SmilesError",
    "UnbalancedParenthesis",
    "UnknownToken",
    "UnmatchedRingClosure",
    "is_valid_smiles",
    "molecules_equal",
    "parse_smiles",
]
