"""SMILES string parser.

Covers the Daylight grammar minus reaction syntax: organic-subset atoms,
bracket atoms, single/double/triple/quadruple/aromatic bonds, directional
bond markers, branches, ring closures (digit and ``%nn``) and dot-separated
fragments. A directional marker ``/`` or ``\\`` reads as a single bond;
chirality tokens ``@``/``@@`` and atom-map classes are consumed and discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from molrag.smiles.model import (
    AROMATIC_ELIGIBLE,
    ELEMENTS,
    ORGANIC_SUBSET,
    WILDCARD,
    Atom,
    Bond,
    BondOrder,
    EmptyBranch,
    InvalidBracketAtom,
    Molecule,
    UnbalancedParenthesis,
    UnknownToken,
    UnmatchedRingClosure,
)

_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    "$": BondOrder.QUADRUPLE,
    ":": BondOrder.AROMATIC,
}

# ASCII only: str.isdigit also accepts digits such as "²" that int() rejects.
_DIGITS = frozenset("0123456789")

# Lowercase forms allowed outside brackets.
_AROMATIC_ORGANIC = frozenset({"b", "c", "n", "o", "p", "s"})


@dataclass
class _State:
    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    bond_keys: set[tuple[int, int]] = field(default_factory=set)
    prev_atom: int | None = None
    # the order of the bond symbol read since the last atom or ring closure, if any
    pending: BondOrder | None = None
    # ring digit -> (opening atom, the bond order written at the opening, if any)
    open_rings: dict[int, tuple[int, BondOrder | None]] = field(default_factory=dict)
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
    pos = 0
    n = len(text)

    while pos < n:
        ch = text[pos]

        if ch == ".":
            if st.pending is not None:
                raise UnknownToken(f"bond symbol before fragment separator at position {pos}")
            st.prev_atom = None
            pos += 1
            continue

        if ch in _BOND_SYMBOLS:
            if st.pending is not None:
                raise UnknownToken(f"two consecutive bond symbols at position {pos}")
            st.pending = _BOND_SYMBOLS[ch]
            pos += 1
            continue

        if ch in "/\\":
            if st.pending is not None and st.pending is not BondOrder.SINGLE:
                raise UnknownToken(f"stereo marker on non-single bond at position {pos}")
            st.pending = BondOrder.SINGLE
            pos += 1
            continue

        if ch == "(":
            if st.prev_atom is None:
                raise UnbalancedParenthesis(f"branch opened before any atom at position {pos}")
            if st.pending is not None:
                raise UnknownToken(f"bond symbol before '(' at position {pos}")
            st.branch_stack.append((st.prev_atom, len(st.atoms)))
            pos += 1
            continue

        if ch == ")":
            if not st.branch_stack:
                raise UnbalancedParenthesis(f"')' without matching '(' at position {pos}")
            if st.pending is not None:
                raise EmptyBranch(f"branch ends with a dangling bond at position {pos}")
            parent, count_at_open = st.branch_stack.pop()
            if len(st.atoms) == count_at_open:
                raise EmptyBranch(f"empty branch closing at position {pos}")
            st.prev_atom = parent
            pos += 1
            continue

        if ch in _DIGITS or ch == "%":
            pos = _ring_closure(st, text, pos)
            continue

        if ch == "[":
            pos = _bracket_atom(st, text, pos)
            continue

        if ch == WILDCARD:
            _add_atom(st, Atom(element=WILDCARD))
            pos += 1
            continue

        if ch.isalpha():
            pos = _organic_atom(st, text, pos)
            continue

        raise UnknownToken(f"unexpected character {ch!r} at position {pos}")

    if st.pending is not None:
        raise UnknownToken("SMILES ends with a dangling bond symbol")
    if st.branch_stack:
        raise UnbalancedParenthesis(f"{len(st.branch_stack)} branch(es) left open at end of input")
    if st.open_rings:
        digits = sorted(st.open_rings)
        raise UnmatchedRingClosure(f"ring closure(s) {digits} opened but never closed")
    if not st.atoms:
        raise UnknownToken("SMILES contains no atoms")
    return Molecule(atoms=tuple(st.atoms), bonds=tuple(st.bonds))


def _add_bond(st: _State, a: int, b: int, order: BondOrder) -> None:
    key = (a, b) if a < b else (b, a)
    if a == b:
        raise UnmatchedRingClosure("ring closed onto its opening atom")
    if key in st.bond_keys:
        raise UnmatchedRingClosure(f"ring closure duplicates the bond between atoms {key}")
    st.bond_keys.add(key)
    st.bonds.append(Bond(a=a, b=b, order=order))


def _add_atom(st: _State, atom: Atom) -> None:
    idx = len(st.atoms)
    st.atoms.append(atom)
    if st.prev_atom is not None:
        if st.pending is not None:
            order = st.pending
        elif st.atoms[st.prev_atom].aromatic and atom.aromatic:
            order = BondOrder.AROMATIC
        else:
            order = BondOrder.SINGLE
        _add_bond(st, st.prev_atom, idx, order)
    st.pending = None
    st.prev_atom = idx


def _digit_run(text: str, i: int) -> int:
    """End of the run of ASCII digits that starts at ``i``."""
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    return i


def _ring_closure(st: _State, text: str, pos: int) -> int:
    if st.prev_atom is None:
        raise UnmatchedRingClosure(f"ring closure digit before any atom at position {pos}")
    if text[pos] == "%":
        if pos + 2 >= len(text) or not (text[pos + 1] in _DIGITS and text[pos + 2] in _DIGITS):
            raise UnmatchedRingClosure(f"'%' not followed by two digits at position {pos}")
        digit = int(text[pos + 1 : pos + 3])
        pos += 3
    else:
        digit = int(text[pos])
        pos += 1

    opening = st.open_rings.pop(digit, None)
    if opening is None:
        st.open_rings[digit] = (st.prev_atom, st.pending)
    else:
        a, opening_order = opening
        b = st.prev_atom
        if (
            opening_order is not None
            and st.pending is not None
            and opening_order is not st.pending
        ):
            raise UnmatchedRingClosure(
                f"conflicting bond orders on ring closure {digit}"
            )
        order = st.pending or opening_order
        if order is None:
            if st.atoms[a].aromatic and st.atoms[b].aromatic:
                order = BondOrder.AROMATIC
            else:
                order = BondOrder.SINGLE
        _add_bond(st, a, b, order)
    st.pending = None
    return pos


def _organic_atom(st: _State, text: str, pos: int) -> int:
    two = text[pos : pos + 2]
    if two in ("Cl", "Br"):
        _add_atom(st, Atom(element=two))
        return pos + 2
    ch = text[pos]
    if ch in ORGANIC_SUBSET:  # single-letter uppercase: B C N O P S F I
        _add_atom(st, Atom(element=ch))
        return pos + 1
    if ch in _AROMATIC_ORGANIC:
        _add_atom(st, Atom(element=ch.upper(), aromatic=True))
        return pos + 1
    raise UnknownToken(f"atom symbol {ch!r} at position {pos} needs brackets or is unknown")


def _bracket_atom(st: _State, text: str, pos: int) -> int:
    start = pos
    end = text.find("]", pos)
    if end == -1:
        raise InvalidBracketAtom(f"'[' at position {pos} is never closed")
    body = text[pos + 1 : end]
    if not body:
        raise InvalidBracketAtom(f"empty bracket atom at position {pos}")

    i = 0
    m = len(body)

    def err(msg: str) -> InvalidBracketAtom:
        return InvalidBracketAtom(f"{msg} in bracket atom {text[start : end + 1]!r}")

    def number(i: int, j: int) -> int:
        try:
            return int(body[i:j])
        except ValueError as exc:  # past the interpreter's integer-string digit limit
            raise err(f"{j - i}-digit number") from exc

    # isotope
    isotope: int | None = None
    j = _digit_run(body, i)
    if j > i:
        isotope = number(i, j)
        i = j

    # element symbol
    if i >= m:
        raise err("missing element symbol")
    aromatic = False
    if body[i] == WILDCARD:
        element = WILDCARD
        i += 1
    elif body[i].islower():
        # aromatic: one- or two-letter lowercase (c, n, o, p, s, b, se, as)
        sym = body[i : i + 2]
        if len(sym) == 2 and sym.isalpha() and sym.islower() and sym.capitalize() in AROMATIC_ELIGIBLE:
            element = sym.capitalize()
            i += 2
        elif body[i].upper() in AROMATIC_ELIGIBLE:
            element = body[i].upper()
            i += 1
        else:
            raise err(f"{body[i]!r} is not an aromatic-eligible element")
        aromatic = True
    elif body[i].isupper():
        sym = body[i : i + 2]
        if len(sym) == 2 and sym[1].islower() and sym in ELEMENTS:
            element = sym
            i += 2
        elif body[i] in ELEMENTS:
            element = body[i]
            i += 1
        else:
            raise err(f"unknown element symbol {sym!r}")
    else:
        raise err(f"unexpected character {body[i]!r}")

    # chirality: consumed and discarded
    if i < m and body[i] == "@":
        i += 1
        if i < m and body[i] == "@":
            i += 1

    # explicit hydrogen count
    explicit_h: int | None = None
    if i < m and body[i] == "H":
        i += 1
        j = _digit_run(body, i)
        explicit_h = number(i, j) if j > i else 1
        i = j

    # charge: +, -, ++, --, +2, -3
    charge = 0
    if i < m and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symbol = body[i]
        count = 0
        while i < m and body[i] == symbol:
            count += 1
            i += 1
        j = _digit_run(body, i)
        if j > i:
            if count > 1:
                raise err("charge mixes repeated signs with digits")
            charge = sign * number(i, j)
            i = j
        else:
            charge = sign * count

    # atom-map class: parsed and discarded
    if i < m and body[i] == ":":
        i += 1
        j = _digit_run(body, i)
        if j == i:
            raise err("':' not followed by a class number")
        i = j

    if i != m:
        raise err(f"trailing characters {body[i:]!r}")

    try:
        atom = Atom(
            element=element,
            aromatic=aromatic,
            formal_charge=charge,
            isotope=isotope,
            explicit_h_count=explicit_h,
            bracket=True,
        )
    except ValueError as exc:
        raise err(str(exc)) from exc
    _add_atom(st, atom)
    return end + 1
