"""SMILES parsing, graph equality and validity."""

from molrag.smiles.canon import molecules_equal
from molrag.smiles.model import (
    Atom,
    EmptyBranch,
    InvalidBracketAtom,
    Molecule,
    SmilesError,
    UnbalancedParenthesis,
    UnknownToken,
    UnmatchedRingClosure,
)
from molrag.smiles.parser import TOKEN_RUN, branches_nest, parse_smiles
from molrag.smiles.validity import is_valid_smiles

__all__ = [
    "Atom",
    "EmptyBranch",
    "InvalidBracketAtom",
    "Molecule",
    "SmilesError",
    "TOKEN_RUN",
    "UnbalancedParenthesis",
    "UnknownToken",
    "UnmatchedRingClosure",
    "branches_nest",
    "is_valid_smiles",
    "molecules_equal",
    "parse_smiles",
]
