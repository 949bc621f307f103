"""SMILES string parser.

Covers the Daylight grammar minus reaction syntax. Outside brackets a SMILES
string is a run of tokens, each read by one match of ``_TOKENS``:

- an organic-subset atom ``B C N O P S F Cl Br I``, an aromatic one
  ``b c n o p s``, or the wildcard ``*``;
- a bracket atom ``[...]`` (no ``[`` inside);
- a ring closure: one digit, or ``%`` and two digits;
- a bond ``- = # $ :``, or a directional marker ``/`` or ``\\``, which reads
  as a single bond;
- a branch ``(`` or ``)``;
- a dot, which separates fragments.

A bracket atom's body is one match of ``_BRACKET``, in this order: an isotope
(digits); an element symbol, ``*``, or an aromatic ``b c n o p s se as``;
chirality ``@`` or ``@@``, consumed and discarded; ``H`` and an optional
hydrogen count; a charge, either a repeated sign (``--``) or one sign and a
number (``+2``); and an atom-map class ``:`` and digits, consumed and
discarded. Digits are ASCII digits throughout.

The parser writes the graph once: each atom gets a neighbor map, and each
bond is written into the maps of both its endpoints (see
:class:`~molrag.smiles.model.Molecule`).

Text that is not a run of these tokens (:data:`TOKEN_RUN`) or whose branches
do not nest (:func:`branches_nest`) never parses; the reply pre-filter asks
these two cheap questions before it parses a word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from molrag.smiles.model import (
    AROMATIC,
    AROMATIC_ELIGIBLE,
    DOUBLE,
    ORGANIC_SUBSET,
    QUADRUPLE,
    SINGLE,
    TRIPLE,
    WILDCARD,
    Atom,
    EmptyBranch,
    InvalidBracketAtom,
    Molecule,
    UnbalancedParenthesis,
    UnknownToken,
    UnmatchedRingClosure,
)

# [0-9] rather than \d: \d also matches digits such as "٣" that SMILES does not allow.
_TOKENS = r"""
    (?P<organic> Cl | Br | [BCNOPSFIbcnops*] )
  | \[ (?P<bracket> [^\[\]]* ) \]
  | (?P<ring> [0-9] | %[0-9]{2} )
  | (?P<bond> [-=#$:] )
  | (?P<stereo> [/\\] )
  | (?P<open> \( )
  | (?P<close> \) )
  | (?P<dot> \. )
"""
# The last alternative takes any character that starts no token, so finditer leaves no gap.
_TOKEN = re.compile(_TOKENS + r"| (?P<other> . )", re.VERBOSE | re.DOTALL)

# TOKEN_RUN.fullmatch(text) is None for text that is not a run of these tokens.
TOKEN_RUN = re.compile(f"(?:{_TOKENS})+", re.VERBOSE)

_BRACKET = re.compile(
    r"""
    (?P<isotope> [0-9]+ )?
    (?: (?P<element> \* | [A-Z][a-z]? ) | (?P<aromatic> se | as | [bcnops] ) )
    @{0,2}
    (?: H (?P<hydrogens> [0-9]* ) )?
    (?: (?P<sign> \++ | -+ ) (?P<charge> [0-9]+ )? )?
    (?: : [0-9]+ )?
    """,
    re.VERBOSE,
)

_BOND_SYMBOLS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, "$": QUADRUPLE, ":": AROMATIC}

# One shared instance per atom written without brackets: an Atom is frozen and compares by value.
_ORGANIC = {symbol: Atom(element=symbol) for symbol in ORGANIC_SUBSET | {WILDCARD}} | {
    symbol.lower(): Atom(element=symbol, aromatic=True)
    for symbol in ORGANIC_SUBSET & AROMATIC_ELIGIBLE
}


@dataclass
class _State:
    atoms: list[Atom] = field(default_factory=list)
    # neighbors[i]: each neighbor of atom i -> the order of their bond
    neighbors: list[dict[int, int]] = field(default_factory=list)
    prev_atom: int | None = None
    # the order of the bond symbol read since the last atom or ring closure, if any
    pending: int | None = None
    # ring digit -> (opening atom, the bond order written at the opening, if any)
    open_rings: dict[int, tuple[int, int | None]] = field(default_factory=dict)
    # (atom to return to, atom count at open) per '('
    branch_stack: list[tuple[int, int]] = field(default_factory=list)


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a :class:`Molecule`.

    Raises a typed :class:`~molrag.smiles.model.SmilesError` subclass on any
    grammar violation; never crashes on malformed input.
    """
    text = text.strip()
    if not text:
        raise UnknownToken("empty SMILES string")

    st = _State()
    for m in _TOKEN.finditer(text):
        kind, token = m.lastgroup, m.group()
        if kind == "organic":
            _add_atom(st, _ORGANIC[token])
        elif kind == "bracket":
            _add_atom(st, _bracket_atom(token))
        elif kind == "ring":
            if st.prev_atom is None:
                raise UnmatchedRingClosure(f"ring closure before any atom at position {m.start()}")
            _ring_closure(st, int(token.lstrip("%")))
        elif kind == "bond":
            if st.pending is not None:
                raise UnknownToken(f"two consecutive bond symbols at position {m.start()}")
            st.pending = _BOND_SYMBOLS[token]
        elif kind == "stereo":
            if st.pending is not None and st.pending != SINGLE:
                raise UnknownToken(f"stereo marker on non-single bond at position {m.start()}")
            st.pending = SINGLE
        elif kind == "open":
            if st.prev_atom is None:
                raise UnbalancedParenthesis(f"branch opened before any atom at {m.start()}")
            if st.pending is not None:
                raise UnknownToken(f"bond symbol before '(' at position {m.start()}")
            st.branch_stack.append((st.prev_atom, len(st.atoms)))
        elif kind == "close":
            if not st.branch_stack:
                raise UnbalancedParenthesis(f"')' without matching '(' at position {m.start()}")
            if st.pending is not None:
                raise EmptyBranch(f"branch ends with a dangling bond at position {m.start()}")
            parent, count_at_open = st.branch_stack.pop()
            if len(st.atoms) == count_at_open:
                raise EmptyBranch(f"empty branch closing at position {m.start()}")
            st.prev_atom = parent
        elif kind == "dot":
            if st.pending is not None:
                raise UnknownToken(f"bond symbol before a fragment separator at {m.start()}")
            st.prev_atom = None
        elif token == "[":
            raise InvalidBracketAtom(f"'[' at position {m.start()} is never closed, or nests")
        elif token == "%":
            raise UnmatchedRingClosure(f"'%' not followed by two digits at position {m.start()}")
        else:
            raise UnknownToken(f"unexpected character {token!r} at position {m.start()}")

    if st.pending is not None:
        raise UnknownToken("SMILES ends with a dangling bond symbol")
    if st.branch_stack:
        raise UnbalancedParenthesis(f"{len(st.branch_stack)} branch(es) left open at end of input")
    if st.open_rings:
        digits = sorted(st.open_rings)
        raise UnmatchedRingClosure(f"ring closure(s) {digits} opened but never closed")
    if not st.atoms:
        raise UnknownToken("SMILES contains no atoms")
    return Molecule(atoms=tuple(st.atoms), neighbors=tuple(st.neighbors))


def branches_nest(text: str) -> bool:
    """True when every ')' in ``text`` closes an earlier '(' and every '(' is closed."""
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            return False
    return depth == 0


def _add_bond(st: _State, a: int, b: int, order: int) -> None:
    if a == b:
        raise UnmatchedRingClosure("ring closed onto its opening atom")
    if b in st.neighbors[a]:
        key = (a, b) if a < b else (b, a)
        raise UnmatchedRingClosure(f"ring closure duplicates the bond between atoms {key}")
    st.neighbors[a][b] = st.neighbors[b][a] = order


def _add_atom(st: _State, atom: Atom) -> None:
    idx = len(st.atoms)
    st.atoms.append(atom)
    st.neighbors.append({})
    if st.prev_atom is not None:
        if st.pending is not None:
            order = st.pending
        elif st.atoms[st.prev_atom].aromatic and atom.aromatic:
            order = AROMATIC
        else:
            order = SINGLE
        _add_bond(st, st.prev_atom, idx, order)
    st.pending = None
    st.prev_atom = idx


def _ring_closure(st: _State, digit: int) -> None:
    opening = st.open_rings.pop(digit, None)
    if opening is None:
        st.open_rings[digit] = (st.prev_atom, st.pending)
    else:
        a, opening_order = opening
        b = st.prev_atom
        if opening_order and st.pending and opening_order != st.pending:
            raise UnmatchedRingClosure(f"conflicting bond orders on ring closure {digit}")
        order = st.pending or opening_order
        if order is None:
            if st.atoms[a].aromatic and st.atoms[b].aromatic:
                order = AROMATIC
            else:
                order = SINGLE
        _add_bond(st, a, b, order)
    st.pending = None


def _bracket_atom(token: str) -> Atom:
    m = _BRACKET.fullmatch(token, 1, len(token) - 1)
    if m is None:
        raise InvalidBracketAtom(f"malformed bracket atom {token!r}")
    isotope, element, aromatic, hydrogens, sign, charge = m.groups()
    sign = sign or ""
    if charge and len(sign) > 1:
        raise InvalidBracketAtom(f"charge mixes repeated signs with digits in {token!r}")
    # An unknown element symbol fails the Atom's own validation, and int() fails on a
    # number past the interpreter's integer-string digit limit: both are ValueErrors.
    try:
        magnitude = int(charge) if charge else len(sign)
        return Atom(
            element=element or aromatic.capitalize(),
            aromatic=aromatic is not None,
            formal_charge=-magnitude if sign.startswith("-") else magnitude,
            isotope=None if isotope is None else int(isotope),
            explicit_h_count=None if hydrogens is None else int(hydrogens or 1),
            bracket=True,
        )
    except ValueError as exc:
        raise InvalidBracketAtom(f"{exc} in bracket atom {token!r}") from exc
