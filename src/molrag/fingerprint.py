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

from dataclasses import dataclass, field

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


# Every stored fingerprint is this wide: the bitmap of the default parameters.
_NBYTES = FingerprintParams.nbits // 8


@dataclass(frozen=True, slots=True)
class MorganFingerprint:
    """A folded fingerprint: bit ``i`` of the ``bitmap`` int is set when some
    environment folds to index ``i``; ``count`` is its popcount, set once.

    It carries no parameters of its own, so two fingerprints are equal when
    their bitmaps are.
    """

    bitmap: int
    count: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", self.bitmap.bit_count())

    def to_hex(self) -> str:
        """Hex-encoded bitmap, lowest bit index first."""
        return self.bitmap.to_bytes(_NBYTES, "little").hex()

    @classmethod
    def from_hex(cls, text: str) -> "MorganFingerprint":
        """The fingerprint :meth:`to_hex` wrote; a bitmap of another width is a ValueError."""
        raw = bytes.fromhex(text)
        if len(raw) != _NBYTES:
            raise ValueError(f"bitmap is {len(raw)} bytes, not {_NBYTES}")
        return cls(int.from_bytes(raw, "little"))


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
    for rnd in range(1, params.radius + 1):
        nxt = []
        for prev_id, nbrs in zip(ids, mol.neighbors):
            key = (prev_id, tuple(sorted([(order, ids[j]) for j, order in nbrs.items()])))
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
    return MorganFingerprint(bitmap)


def dice_similarity(a: MorganFingerprint, b: MorganFingerprint) -> float:
    """2·|A∩B| / (|A| + |B|), in [0, 1]."""
    total = a.count + b.count
    if not total:
        raise FingerprintError("both fingerprints are empty")
    return 2.0 * (a.bitmap & b.bitmap).bit_count() / total
