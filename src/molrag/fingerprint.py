"""Morgan circular fingerprints and Dice similarity.

Each atom starts from a local-invariant identifier; every expansion round
rehashes an atom's identifier together with the sorted (bond order, neighbor
identifier) pairs, capturing its circular environment one bond further out.
All identifiers from all rounds fold modulo ``nbits`` into one bitmap, held
as a Python int so Dice similarity is one AND plus a popcount.

Identifiers are 64-bit FNV-1a hashes over a fixed byte encoding (offset basis
0xcbf29ce484222325, prime 0x100000001b3), so fingerprints are byte-identical
across runs and platforms.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from molrag.smiles.canon import atom_invariant
from molrag.smiles.model import Molecule

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _encode_initial(invariant: tuple) -> bytes:
    element, aromatic, charge, isotope, explicit_h, degree = invariant
    sym = element.encode("utf-8")
    return (
        b"A"
        + len(sym).to_bytes(1, "big")
        + sym
        + (b"\x01" if aromatic else b"\x00")
        + (charge & 0xFFFF).to_bytes(2, "big")
        + (isotope & 0xFFFF).to_bytes(2, "big")
        + (explicit_h & 0xFFFF).to_bytes(2, "big")
        + degree.to_bytes(2, "big")
    )


def _encode_round(prev_id: int, pairs: tuple[tuple[int, int], ...]) -> bytes:
    out = [b"E", prev_id.to_bytes(8, "big")]
    for order_code, nbr_id in pairs:
        out.append(order_code.to_bytes(1, "big"))
        out.append(nbr_id.to_bytes(8, "big"))
    return b"".join(out)


class FingerprintError(ValueError):
    pass


class ParamMismatch(FingerprintError):
    """Fingerprints built with different parameters cannot be compared."""


class DegenerateInput(FingerprintError):
    """Dice similarity is undefined when both bit sets are empty."""


@dataclass(frozen=True)
class FingerprintParams:
    radius: int = 2
    nbits: int = 2048

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if self.nbits < 64 or self.nbits & (self.nbits - 1):
            raise ValueError("nbits must be a power of two >= 64")


class MorganFingerprint:
    """A folded fingerprint: bit ``i`` of the ``bitmap`` int is set when some
    environment folds to index ``i``; ``count`` caches its popcount.

    Immutable and compared by value. ``bits`` rebuilds the index set on demand;
    it is not stored.
    """

    __slots__ = ("bitmap", "count", "nbits", "radius")

    def __init__(self, bits: Iterable[int], nbits: int, radius: int) -> None:
        bitmap = 0
        for bit in bits:
            if bit < 0 or bit >= nbits:
                raise ValueError("bit index out of range")
            bitmap |= 1 << bit
        self._init(bitmap, nbits, radius)

    def _init(self, bitmap: int, nbits: int, radius: int) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "bitmap", bitmap)
        setattr_(self, "count", bitmap.bit_count())
        setattr_(self, "nbits", nbits)
        setattr_(self, "radius", radius)

    @classmethod
    def _from_bitmap(cls, bitmap: int, nbits: int, radius: int) -> "MorganFingerprint":
        fp = cls.__new__(cls)
        fp._init(bitmap, nbits, radius)
        return fp

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"MorganFingerprint is immutable; cannot set {name!r}")

    def __reduce__(self):
        return MorganFingerprint._from_bitmap, (self.bitmap, self.nbits, self.radius)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MorganFingerprint):
            return NotImplemented
        return (self.bitmap, self.nbits, self.radius) == (other.bitmap, other.nbits, other.radius)

    def __hash__(self) -> int:
        return hash((self.bitmap, self.nbits, self.radius))

    def __repr__(self) -> str:
        return f"MorganFingerprint(bits={sorted(self.bits)}, nbits={self.nbits}, radius={self.radius})"

    @property
    def bits(self) -> frozenset[int]:
        out = []
        rest = self.bitmap
        while rest:
            low = rest & -rest
            out.append(low.bit_length() - 1)
            rest ^= low
        return frozenset(out)

    def to_hex(self) -> str:
        """Hex-encoded bitmap, lowest bit index first."""
        return self.bitmap.to_bytes(self.nbits // 8, "little").hex()

    @classmethod
    def from_hex(cls, text: str, nbits: int, radius: int) -> "MorganFingerprint":
        raw = bytes.fromhex(text)
        if len(raw) != nbits // 8:
            raise ValueError("bitmap length does not match nbits")
        return cls._from_bitmap(int.from_bytes(raw, "little"), nbits, radius)


def morgan_environments(
    mol: Molecule, params: FingerprintParams, memo: dict | None = None
) -> list[tuple[int, int, int]]:
    """All (atom index, round, identifier) environments up to the radius.

    Round 0 identifiers hash the atom's local invariant; round r identifiers
    rehash the round r-1 identifier with the sorted (bond order, neighbor
    round r-1 identifier) pairs.

    ``memo`` maps each hash input (a local invariant, or a ``(prev_id, pairs)``
    tuple) to its identifier. The identifier is a pure function of that input,
    so one memo may serve many molecules and every radius; a caller that
    fingerprints a batch passes one in, and each call without one gets its own.
    """
    if memo is None:
        memo = {}
    n = len(mol)
    ids = []
    for i in range(n):
        invariant = atom_invariant(mol, i)
        ident = memo.get(invariant)
        if ident is None:
            ident = memo[invariant] = fnv1a_64(_encode_initial(invariant))
        ids.append(ident)
    out = [(i, 0, ids[i]) for i in range(n)]
    # (bond order value, neighbor index) per atom, built once for every round
    bonded: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bond in mol.bonds:
        order = bond.order.value
        bonded[bond.a].append((order, bond.b))
        bonded[bond.b].append((order, bond.a))
    for rnd in range(1, params.radius + 1):
        nxt = []
        for prev_id, nbrs in zip(ids, bonded):
            key = (prev_id, tuple(sorted([(order, ids[j]) for order, j in nbrs])))
            ident = memo.get(key)
            if ident is None:
                ident = memo[key] = fnv1a_64(_encode_round(*key))
            nxt.append(ident)
        ids = nxt
        out.extend((i, rnd, ids[i]) for i in range(n))
    return out


def morgan_fingerprint(
    mol: Molecule, params: FingerprintParams | None = None, memo: dict | None = None
) -> MorganFingerprint:
    """The folded fingerprint of ``mol``; ``memo`` is as for :func:`morgan_environments`."""
    params = params or FingerprintParams()
    bitmap = 0
    for _, _, ident in morgan_environments(mol, params, memo):
        bitmap |= 1 << (ident % params.nbits)
    return MorganFingerprint._from_bitmap(bitmap, params.nbits, params.radius)


def dice_similarity(a: MorganFingerprint, b: MorganFingerprint) -> float:
    """2·|A∩B| / (|A| + |B|), in [0, 1]."""
    if a.nbits != b.nbits or a.radius != b.radius:
        raise ParamMismatch(
            f"fingerprint params differ: ({a.nbits}, r{a.radius}) vs ({b.nbits}, r{b.radius})"
        )
    total = a.count + b.count
    if not total:
        raise DegenerateInput("both fingerprints are empty")
    return 2.0 * (a.bitmap & b.bitmap).bit_count() / total
