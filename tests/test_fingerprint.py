import dataclasses
import random
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molrag.fingerprint import (
    FingerprintError,
    FingerprintParams,
    MorganFingerprint,
    dice_similarity,
    fnv1a_64,
    morgan_environments,
    morgan_fingerprint,
)
from molrag.smiles import parse_smiles
from oracles import (
    all_environment_signatures,
    bits_of,
    fingerprint_of,
    morgan_fingerprint_direct,
    permute_molecule,
)

# FNV-1a 64 reference vectors (offset basis for empty input, published test value)
FNV_EMPTY = 14695981039346656037
FNV_ABC = 16654208175385433931

# frozen regression anchor: byte-stable across runs and platforms
CCO_BITS_R2_2048 = frozenset([254, 259, 551, 694, 1087, 1270, 1351, 1519, 2027])
# the fingerprints.jsonl line for CCO as format version 1 stores it; frozen
CCO_HEX_R2_2048 = (
    "0000000000000000000000000000000000000000000000000000000000000040"
    "0800000000000000000000000000000000000000000000000000000000000000"
    "0000000080000000000000000000000000000000000040000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000080000000000000000000000000000000000000000000004000"
    "0000000000000000800000000000000000000000000000000000000000800000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000080000"
)


CORPUS_SMILES = [
    line.split("\t")[1]
    for line in (Path(__file__).parent / "data" / "corpus.tsv").read_text(
        encoding="utf-8").splitlines()[1:]
]
RING_1100 = "C1" + "C" * 1098 + "1"
FRAGMENTS = "[Na+].[Cl-].CC(=O)[O-].[NH4+]"
BRACKET_ATOMS = "[13CH3][N+](C)(C)C.[O-]c1ccccc1.[2H]O[2H].[Fe+2]"


def fp(text: str, radius: int = 2, nbits: int = 2048) -> MorganFingerprint:
    return morgan_fingerprint(parse_smiles(text), FingerprintParams(radius, nbits))


class TestHash:
    def test_reference_vectors(self):
        assert fnv1a_64(b"") == FNV_EMPTY
        assert fnv1a_64(b"abc") == FNV_ABC


class TestParams:
    def test_nbits_power_of_two(self):
        with pytest.raises(ValueError):
            FingerprintParams(radius=2, nbits=100)
        with pytest.raises(ValueError):
            FingerprintParams(radius=2, nbits=32)
        with pytest.raises(ValueError):
            FingerprintParams(radius=-1, nbits=2048)


class TestMorgan:
    def test_methane_radius_zero_single_bit(self):
        assert fp("C", radius=0).count == 1

    def test_cco_radius_one_bounds(self):
        assert 3 <= fp("CCO", radius=1).count <= 6

    def test_frozen_bits_stable(self):
        assert bits_of(fp("CCO")) == CCO_BITS_R2_2048

    def test_environment_partition_matches_oracle(self, corpus_records):
        # hashed identifiers must induce the same grouping of (atom, round)
        # slots as the uncompressed rooted-neighborhood signatures
        params = FingerprintParams(radius=2, nbits=2048)
        for rec in corpus_records[:20]:
            mol = parse_smiles(rec.smiles)
            produced = morgan_environments(mol, params)
            expected = all_environment_signatures(mol, 2)
            by_id = defaultdict(set)
            for atom, rnd, ident in produced:
                by_id[ident].add((atom, rnd))
            by_sig = defaultdict(set)
            for atom, rnd, sig in expected:
                by_sig[sig].add((atom, rnd))
            assert sorted(by_id.values(), key=sorted) == sorted(
                by_sig.values(), key=sorted
            ), rec.smiles

    def test_isomorphism_invariance(self, corpus_records):
        rng = random.Random(23)
        params = FingerprintParams()
        for rec in rng.sample(corpus_records, 15):
            mol = parse_smiles(rec.smiles)
            perm = list(range(len(mol)))
            rng.shuffle(perm)
            assert morgan_fingerprint(mol, params) == morgan_fingerprint(
                permute_molecule(mol, perm), params
            )

    def test_hex_roundtrip(self):
        original = fp("CC(=O)Oc1ccccc1C(=O)O")
        again = MorganFingerprint.from_hex(original.to_hex())
        assert again == original

    def test_frozen_hex_stable(self):
        assert fp("CCO").to_hex() == CCO_HEX_R2_2048
        assert bits_of(MorganFingerprint.from_hex(CCO_HEX_R2_2048)) == CCO_BITS_R2_2048

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hex_roundtrip_random_bits(self, data):
        bits = data.draw(st.frozensets(st.integers(min_value=0, max_value=2047)))
        original = fingerprint_of(bits)
        text = original.to_hex()
        assert len(text) == 2048 // 4
        # lowest bit index first: bit i lives in byte i // 8 at position i % 8
        raw = bytes.fromhex(text)
        assert {i for i in range(2048) if raw[i // 8] >> (i % 8) & 1} == bits
        again = MorganFingerprint.from_hex(text)
        assert again == original
        assert bits_of(again) == bits
        assert again.count == len(bits)

    def test_hex_length_checked(self):
        # every stored fingerprint is 2,048 bits wide
        for nbytes in (8, 255, 257, 512):
            with pytest.raises(ValueError, match=f"bitmap is {nbytes} bytes, not 256"):
                MorganFingerprint.from_hex("00" * nbytes)

    def test_value_semantics(self):
        # a fingerprint is its bitmap and that bitmap's popcount, compared by value
        assert [f.name for f in dataclasses.fields(MorganFingerprint)] == ["bitmap", "count"]
        a = fingerprint_of({3, 70})
        assert a == fingerprint_of([70, 3]) and a.count == 2
        assert hash(a) == hash(MorganFingerprint((1 << 3) | (1 << 70)))
        assert a != fingerprint_of({3})


class TestDice:
    def test_self_similarity(self, corpus_records):
        for rec in corpus_records[:10]:
            x = fp(rec.smiles)
            assert dice_similarity(x, x) == 1.0

    def test_disjoint(self):
        a = fingerprint_of({1, 2})
        b = fingerprint_of({3, 4})
        assert dice_similarity(a, b) == 0.0

    def test_direct_arithmetic(self):
        a = fingerprint_of({1, 2, 3})
        b = fingerprint_of({2, 3, 4})
        assert dice_similarity(a, b) == pytest.approx(2 / 3)

    def test_degenerate(self):
        empty = fingerprint_of(())
        with pytest.raises(FingerprintError, match="both fingerprints are empty"):
            dice_similarity(empty, empty)

    @settings(max_examples=200, deadline=None)
    @given(
        st.frozensets(st.integers(min_value=0, max_value=2047), max_size=40),
        st.frozensets(st.integers(min_value=0, max_value=2047), max_size=40),
    )
    def test_symmetry_and_bounds(self, bits_a, bits_b):
        a = fingerprint_of(bits_a)
        b = fingerprint_of(bits_b)
        if not bits_a and not bits_b:
            with pytest.raises(FingerprintError, match="both fingerprints are empty"):
                dice_similarity(a, b)
            return
        sim = dice_similarity(a, b)
        assert sim == dice_similarity(b, a)
        assert 0.0 <= sim <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.frozensets(st.integers(min_value=0, max_value=2047), max_size=120),
        st.frozensets(st.integers(min_value=0, max_value=2047), min_size=1, max_size=120),
    )
    def test_equals_set_arithmetic(self, bits_a, bits_b):
        # the popcount form must give the same float as the set form, bit for bit
        a = fingerprint_of(bits_a)
        b = fingerprint_of(bits_b)
        assert dice_similarity(a, b) == 2 * len(bits_a & bits_b) / (len(bits_a) + len(bits_b))

    def test_fragment_containment_lower_bound(self, corpus_records):
        # a chain fragment's environments are a subset of the longer chain's
        short = fp("CCCC")
        longer = fp("CCCCCCCC")
        shared = len(bits_of(short) & bits_of(longer))
        assert shared >= 1
        assert dice_similarity(short, longer) >= 2 * shared / (
            len(bits_of(short)) + len(bits_of(longer))
        ) - 1e-12


class TestMemo:
    # One memo shared by a batch, as build_store shares it, must give every
    # molecule exactly the fingerprint that hashing each identifier afresh gives.
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(CORPUS_SMILES), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(0, 64), (1, 512), (2, 2048), (3, 1024)]),
    )
    @example([RING_1100, "C" * 12, RING_1100], 0, (2, 2048))
    @example([FRAGMENTS, "CC(=O)O", FRAGMENTS], 1, (2, 2048))
    @example([BRACKET_ATOMS, "C[N+](C)(C)C", "Oc1ccccc1"], 2, (3, 1024))
    def test_shared_memo_matches_direct_hashing(self, smiles, seed, radius_nbits):
        rng = random.Random(seed)
        mols = []
        for text in smiles:
            mol = parse_smiles(text)
            perm = list(range(len(mol)))
            rng.shuffle(perm)
            mols.append(permute_molecule(mol, perm))
        params = FingerprintParams(*radius_nbits)
        expected = [morgan_fingerprint_direct(mol, params) for mol in mols]

        memo = {}
        # a second pass in reverse order meets a memo that already holds every input
        shared = [morgan_fingerprint(mol, params, memo=memo) for mol in mols + mols[::-1]]
        assert shared == expected + expected[::-1]
        assert [morgan_fingerprint(mol, params, memo={}) for mol in mols] == expected
        assert [morgan_fingerprint(mol, params) for mol in mols] == expected

    def test_memo_serves_every_radius(self, corpus_records):
        # the identifier depends only on the hash input, not on the round or radius
        mols = [parse_smiles(rec.smiles) for rec in corpus_records[:30]]
        memo = {}
        for radius in (3, 0, 2, 1):
            params = FingerprintParams(radius=radius)
            assert [morgan_fingerprint(m, params, memo=memo) for m in mols] == [
                morgan_fingerprint_direct(m, params) for m in mols
            ]
