"""Molecular graph data model shared by the SMILES parser, equality and metrics."""

from __future__ import annotations

from dataclasses import dataclass


class SmilesError(ValueError):
    """Base class for all SMILES parsing errors."""


class UnmatchedRingClosure(SmilesError):
    """Ring bond digit opened but never closed, closed onto itself, or duplicated."""


class UnbalancedParenthesis(SmilesError):
    """Branch parenthesis without a matching partner or without a parent atom."""


class UnknownToken(SmilesError):
    """Character outside the supported grammar, or a dangling bond symbol."""


class EmptyBranch(SmilesError):
    """Branch parentheses enclosing no atom."""


class InvalidBracketAtom(SmilesError):
    """Malformed bracket-atom expression."""


# The bond orders that the neighbor maps of a Molecule hold.
SINGLE = 1
DOUBLE = 2
TRIPLE = 3
QUADRUPLE = 4
AROMATIC = 5


# The 118 IUPAC element symbols plus the wildcard.
ELEMENTS = frozenset(
    """H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni
    Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe
    Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg
    Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf Db Sg
    Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og""".split()
)

WILDCARD = "*"

# Elements eligible for the lowercase aromatic form.
AROMATIC_ELIGIBLE = frozenset({"B", "C", "N", "O", "P", "S", "Se", "As"})

# Atoms allowed outside brackets, and their standard maximum valence.
ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})
MAX_VALENCE = {
    "B": 3,
    "C": 4,
    "N": 3,
    "O": 2,
    "P": 5,
    "S": 6,
    "F": 1,
    "Cl": 1,
    "Br": 1,
    "I": 1,
}


@dataclass(frozen=True)
class Atom:
    """One atom of a molecular graph.

    ``explicit_h_count`` is only ever set for bracket atoms; implicit hydrogens
    are never materialised as graph atoms.
    """

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    isotope: int | None = None
    explicit_h_count: int | None = None
    bracket: bool = False

    def __post_init__(self) -> None:
        if self.element != WILDCARD and self.element not in ELEMENTS:
            raise ValueError(f"unknown element symbol {self.element!r}")
        if self.aromatic and self.element not in AROMATIC_ELIGIBLE:
            raise ValueError(f"element {self.element!r} cannot be aromatic")
        if self.isotope is not None and self.isotope < 0:
            raise ValueError("isotope must be non-negative")
        if self.explicit_h_count is not None and self.explicit_h_count < 0:
            raise ValueError("explicit hydrogen count must be non-negative")


@dataclass(frozen=True)
class Molecule:
    """Immutable molecular graph: atoms and one neighbor map per atom.

    ``neighbors[i]`` maps each neighbor of atom ``i`` to the order of their
    bond, one of :data:`SINGLE` to :data:`AROMATIC`. The parser writes both
    endpoints of every bond, so the maps are symmetric, with no self-loops and
    no duplicate edges; every graph algorithm reads them, and they must not be
    mutated. Disconnected components (dot-separated SMILES) are permitted.

    Two molecules compare equal when their atoms and maps are equal. A
    molecule is not hashable: its maps are dicts.
    """

    atoms: tuple[Atom, ...]
    neighbors: tuple[dict[int, int], ...]

    def __len__(self) -> int:
        return len(self.atoms)
