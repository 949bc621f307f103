import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molrag.smiles import canon
from molrag.smiles import (
    Atom,
    EmptyBranch,
    InvalidBracketAtom,
    Molecule,
    SmilesError,
    UnbalancedParenthesis,
    UnknownToken,
    UnmatchedRingClosure,
    is_valid_smiles,
    molecules_equal,
    parse_smiles,
)
from molrag.smiles.canon import invariant_sequence, refined_ranks
from molrag.smiles.model import AROMATIC, DOUBLE, QUADRUPLE, SINGLE, TRIPLE
from molrag.smiles.validity import computed_valence
from oracles import (
    brute_force_isomorphic,
    computed_valence_from_edges,
    edges,
    permute_molecule,
    write_smiles,
)


class TestParser:
    def test_single_atom(self):
        mol = parse_smiles("C")
        assert len(mol.atoms) == 1
        assert not edges(mol)
        assert mol.atoms[0].element == "C"
        assert not mol.atoms[0].aromatic

    def test_29_carbon_chain(self):
        mol = parse_smiles("C" * 29)
        assert len(mol.atoms) == 29
        assert edges(mol) == [(i, i + 1, SINGLE) for i in range(28)]

    def test_benzene_structure(self):
        mol = parse_smiles("c1ccccc1")
        assert len(mol.atoms) == 6
        assert all(a.element == "C" and a.aromatic for a in mol.atoms)
        assert [order for *_, order in edges(mol)] == [AROMATIC] * 6
        assert all(len(mol.neighbors[i]) == 2 for i in range(6))

    def test_explicit_bonds(self):
        assert edges(parse_smiles("C=C")) == [(0, 1, DOUBLE)]
        assert edges(parse_smiles("C#N")) == [(0, 1, TRIPLE)]
        assert edges(parse_smiles("C$C")) == [(0, 1, QUADRUPLE)]
        assert edges(parse_smiles("C:C")) == [(0, 1, AROMATIC)]

    def test_aromatic_bond_inference(self):
        # no symbol between two aromatic atoms -> aromatic; otherwise single
        assert edges(parse_smiles("cc")) == [(0, 1, AROMATIC)]
        assert edges(parse_smiles("Cc")) == [(0, 1, SINGLE)]
        assert edges(parse_smiles("c-c")) == [(0, 1, SINGLE)]

    def test_stereo_markers_retained(self):
        # a directional marker reads as a single bond
        assert edges(parse_smiles("F/C=C/F")) == [(0, 1, SINGLE), (1, 2, DOUBLE), (2, 3, SINGLE)]

    def test_bracket_atom_fields(self):
        atom = parse_smiles("[13CH3+:5]").atoms[0]
        assert atom.element == "C"
        assert atom.isotope == 13
        assert atom.explicit_h_count == 3
        assert atom.formal_charge == 1
        assert atom.bracket

    def test_bracket_charge_forms(self):
        assert parse_smiles("[Fe++]").atoms[0].formal_charge == 2
        assert parse_smiles("[Fe+2]").atoms[0].formal_charge == 2
        assert parse_smiles("[O-]").atoms[0].formal_charge == -1
        assert parse_smiles("[N+3]").atoms[0].formal_charge == 3

    def test_chirality_consumed(self):
        mol = parse_smiles("N[C@@H](C)C(=O)O")
        assert len(mol.atoms) == 6
        assert mol.atoms[1].explicit_h_count == 1

    def test_two_letter_aromatic_bracket(self):
        atom = parse_smiles("[se]").atoms[0]
        assert atom.element == "Se"
        assert atom.aromatic

    def test_dot_fragments(self):
        mol = parse_smiles("[Na+].[Cl-]")
        assert len(mol.atoms) == 2
        assert not edges(mol)
        # stray separators are harmless once there is an atom
        assert [len(parse_smiles(t)) for t in ("C.", ".C", "C..C")] == [1, 1, 2]

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%12CCCC%12")
        assert len(edges(mol)) == 5

    def test_ring_bond_symbol_on_open_side(self):
        mol = parse_smiles("C=1CCCCC=1")
        assert (0, 5, DOUBLE) in edges(mol)

    def test_wildcard(self):
        mol = parse_smiles("*C")
        assert mol.atoms[0].element == "*"

    def test_whitespace_trimmed(self):
        assert len(parse_smiles("  CCO \n").atoms) == 3

    @pytest.mark.parametrize(
        "text,error",
        [
            ("C1CC", UnmatchedRingClosure),
            ("C11", UnmatchedRingClosure),
            ("C12C12", UnmatchedRingClosure),
            ("1CC1", UnmatchedRingClosure),
            ("C=1CCCCC#1", UnmatchedRingClosure),
            ("C(C", UnbalancedParenthesis),
            ("C)", UnbalancedParenthesis),
            ("(C)C", UnbalancedParenthesis),
            ("C()C", EmptyBranch),
            ("C(=)C", EmptyBranch),
            ("qq", UnknownToken),
            ("C=", UnknownToken),
            ("C==C", UnknownToken),
            ("C=.C", UnknownToken),
            ("", UnknownToken),
            ("   ", UnknownToken),
            (".", UnknownToken),
            ("..", UnknownToken),
            ("[Cx]", InvalidBracketAtom),
            ("[]", InvalidBracketAtom),
            ("[C", InvalidBracketAtom),
            ("[Zz]", InvalidBracketAtom),
            ("[f]", InvalidBracketAtom),
            # one case per branch of the token and bracket patterns
            ("[C+-]", InvalidBracketAtom),
            ("[C++2]", InvalidBracketAtom),
            ("[Ch]", InvalidBracketAtom),
            ("[CU]", InvalidBracketAtom),
            ("[C@TH1]", InvalidBracketAtom),
            ("[C:]", InvalidBracketAtom),
            ("[٣C]", InvalidBracketAtom),
            ("[[C]", InvalidBracketAtom),
            ("C%", UnmatchedRingClosure),
            ("C%1", UnmatchedRingClosure),
            ("C٣", UnknownToken),
            ("C=/C", UnknownToken),
            ("C/-C", UnknownToken),
        ],
    )
    def test_typed_errors(self, text, error):
        with pytest.raises(error):
            parse_smiles(text)

    @pytest.mark.parametrize("text", ["[ſ]", "[ſe]", "[ſH2]"])
    def test_element_symbols_are_ascii(self, text):
        # "ſ" (U+017F) upper-cases to "S"; it once read as aromatic sulfur
        with pytest.raises(InvalidBracketAtom):
            parse_smiles(text)

    @pytest.mark.parametrize(
        "text,fields",
        [
            ("[sH]", ("S", True, 0, None, 1)),
            ("[as]", ("As", True, 0, None, None)),
            ("[Cu]", ("Cu", False, 0, None, None)),
            ("[HH]", ("H", False, 0, None, 1)),
            ("[2H]", ("H", False, 0, 2, None)),
            ("[*]", ("*", False, 0, None, None)),
        ],
    )
    def test_accepted_bracket_forms(self, text, fields):
        (atom,) = parse_smiles(text).atoms
        assert (atom.element, atom.aromatic, atom.formal_charge, atom.isotope,
                atom.explicit_h_count) == fields
        assert atom.bracket

    @pytest.mark.parametrize("text", ["C//C", "C-/C"])
    def test_directional_marker_after_a_single_bond(self, text):
        assert edges(parse_smiles(text)) == [(0, 1, SINGLE)]

    def test_ring_digit_reused_across_fragments(self):
        # the dot ends the first fragment, but the ring bond still joins its two atoms
        mol = parse_smiles("C1.C1")
        assert edges(mol) == [(0, 1, SINGLE)]

    def test_organic_atoms_are_shared_and_compare_by_value(self):
        mol = parse_smiles("CCc")
        assert mol.atoms[0] is mol.atoms[1]
        assert mol.atoms[0] == Atom(element="C")
        assert mol.atoms[2] == Atom(element="C", aromatic=True)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="CcNnOoSs[]()=#$123%+-@H/\\.*Clr²٣é", max_size=30))
    # "²" passes str.isdigit but not int(); the parser once raised ValueError on it.
    @example("C²")
    @example("C%1²")
    @example("[²C]")
    @example("[CH²]")
    @example("[C+²]")
    # digit runs past int()'s limit once raised ValueError
    @example("[" + "1" * 5000 + "C]")
    @example("[CH" + "1" * 5000 + "]")
    @example("[C+" + "1" * 5000 + "]")
    def test_parser_totality(self, text):
        try:
            mol = parse_smiles(text)
        except SmilesError:
            return
        assert isinstance(mol, Molecule)

    def test_corpus_parses(self, corpus_records):
        for rec in corpus_records:
            parse_smiles(rec.smiles)


_ORDERS = [SINGLE, DOUBLE, TRIPLE, QUADRUPLE, AROMATIC]


@st.composite
def molecules(draw):
    """A graph of 1 to 12 atoms and any set of distinct bonds between them."""
    n = draw(st.integers(min_value=1, max_value=12))
    element = st.sampled_from([Atom("C"), Atom("N"), Atom("O"), Atom("C", aromatic=True)])
    atoms = tuple(draw(st.lists(element, min_size=n, max_size=n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    neighbors = [{} for _ in range(n)]
    for i, j in chosen:
        neighbors[i][j] = neighbors[j][i] = draw(st.sampled_from(_ORDERS))
    return Molecule(atoms=atoms, neighbors=tuple(neighbors))


class TestNeighborMaps:
    @settings(max_examples=200, deadline=None)
    @given(molecules())
    def test_every_bond_is_in_both_endpoint_maps(self, drawn):
        # A random graph, spelled with every bond a ring closure and parsed back.
        mol = parse_smiles(write_smiles(drawn))
        for i, nbrs in enumerate(mol.neighbors):
            assert i not in nbrs
            for j, order in nbrs.items():
                assert mol.neighbors[j][i] == order
        assert mol.atoms == drawn.atoms
        assert edges(mol) == edges(drawn)

    def test_computed_valence_matches_the_bond_scan(self, data_dir):
        checked = 0
        for path in sorted(data_dir.glob("*.tsv")):
            for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                mol = parse_smiles(line.split("\t")[1])
                for idx in range(len(mol)):
                    assert computed_valence(mol, idx) == computed_valence_from_edges(mol, idx)
                    checked += 1
        assert checked > 1000


class TestCanonical:
    def test_entry_order_invariance(self):
        a, b = parse_smiles("OCC"), parse_smiles("CCO")
        assert invariant_sequence(a, refined_ranks(a)) == invariant_sequence(b, refined_ranks(b))

    def test_permutation_harness_12_atoms(self):
        # fixed 12-atom molecule, 10 seeded permutations
        mol = parse_smiles("CC(C)Cc1ccc(O)cc1C")
        assert len(mol) == 12
        reference = invariant_sequence(mol, refined_ranks(mol))
        rng = random.Random(7)
        for _ in range(10):
            perm = list(range(12))
            rng.shuffle(perm)
            permuted = permute_molecule(mol, perm)
            assert invariant_sequence(permuted, refined_ranks(permuted)) == reference

    def test_different_molecules_differ(self):
        a, b = parse_smiles("CCO"), parse_smiles("CCN")
        assert invariant_sequence(a, refined_ranks(a)) != invariant_sequence(b, refined_ranks(b))


class TestEquality:
    def test_reversed_equal(self):
        assert molecules_equal(parse_smiles("CCO"), parse_smiles("OCC"))

    def test_element_mismatch(self):
        assert not molecules_equal(parse_smiles("CCO"), parse_smiles("CCN"))

    def test_bond_order_counts(self):
        assert molecules_equal(parse_smiles("C=CC"), parse_smiles("CC=C"))
        assert not molecules_equal(parse_smiles("C=CC"), parse_smiles("CCC"))

    def test_matches_brute_force_on_pairs(self, corpus_records):
        small = [
            rec.smiles for rec in corpus_records if len(parse_smiles(rec.smiles)) <= 12
        ]
        rng = random.Random(3)
        pairs = []
        # equal pairs: a molecule against a random atom permutation of itself
        for smiles in rng.sample(small, 25):
            mol = parse_smiles(smiles)
            perm = list(range(len(mol)))
            rng.shuffle(perm)
            pairs.append((mol, permute_molecule(mol, perm)))
        # unequal pairs: two random distinct fixtures
        for _ in range(25):
            x, y = rng.sample(small, 2)
            pairs.append((parse_smiles(x), parse_smiles(y)))
        for a, b in pairs:
            assert molecules_equal(a, b) == brute_force_isomorphic(a, b)

    def test_equivalence_relation(self, corpus_records):
        rng = random.Random(5)
        sample = [parse_smiles(rec.smiles) for rec in rng.sample(corpus_records, 12)]
        for mol in sample:
            assert molecules_equal(mol, mol)
        for a in sample[:6]:
            for b in sample[:6]:
                assert molecules_equal(a, b) == molecules_equal(b, a)
        # transitivity through permuted copies
        base = sample[0]
        perm = list(range(len(base)))
        rng.shuffle(perm)
        p1 = permute_molecule(base, perm)
        rng.shuffle(perm)
        p2 = permute_molecule(p1, perm)
        assert molecules_equal(base, p1) and molecules_equal(p1, p2) and molecules_equal(base, p2)

    def test_stereo_blind(self):
        assert molecules_equal(parse_smiles("N[C@@H](C)C(=O)O"), parse_smiles("N[C@H](C)C(=O)O"))

    def test_atom_count_beyond_the_recursion_limit(self):
        # The mapping search once recursed per atom. A 1,500-atom ring refines in one
        # round; a 1,500-atom chain takes ~750 rounds but fails the same way.
        ring = "C1" + "C" * 1498 + "1"
        assert molecules_equal(parse_smiles(ring), parse_smiles(ring))

    @pytest.mark.parametrize("left, right", [
        ("CC(=O)Oc1ccccc1C(=O)O", "OC(=O)c1ccccc1OC(C)=O"),
        ("CCO", "CCN"),
    ], ids=["equal", "unequal"])
    def test_refines_each_molecule_once(self, monkeypatch, left, right):
        calls = []
        refine = canon.refined_ranks
        monkeypatch.setattr(canon, "refined_ranks", lambda mol: calls.append(mol) or refine(mol))
        a, b = parse_smiles(left), parse_smiles(right)
        molecules_equal(a, b)
        assert calls == [a, b]


class TestValidity:
    def test_simple_valid(self):
        assert is_valid_smiles("C")

    def test_pentavalent_carbon(self):
        assert not is_valid_smiles("C(C)(C)(C)(C)C")

    def test_parse_failure_is_invalid(self):
        assert not is_valid_smiles("C1CC")
        assert not is_valid_smiles("")
        assert not is_valid_smiles(".")

    def test_bracket_atoms_exempt(self):
        assert is_valid_smiles("[CH5]")
        assert not is_valid_smiles("N(C)(C)(C)C")
        assert is_valid_smiles("[N+](C)(C)(C)C")

    def test_aromatic_accounting(self):
        assert is_valid_smiles("c1ccccc1")
        assert is_valid_smiles("c1ccc2ccccc2c1")  # fusion carbon: 3 aromatic bonds + 1 = 4
        assert is_valid_smiles("c1ccncc1")
        assert not is_valid_smiles("c1ccccc1(C)C")  # aromatic C with two substituents: 5

    def test_valence_monotonicity(self):
        # an atom exactly at its cap flips invalid when one more bond lands on it
        at_cap = parse_smiles("C(C)(C)(C)C")
        assert is_valid_smiles("C(C)(C)(C)C")
        new = len(at_cap)
        atoms = at_cap.atoms + (Atom(element="C"),)
        neighbors = [dict(nbrs) for nbrs in at_cap.neighbors] + [{0: SINGLE}]
        neighbors[0][new] = SINGLE
        from molrag.smiles.validity import molecule_within_valence

        assert not molecule_within_valence(Molecule(atoms=atoms, neighbors=tuple(neighbors)))

    def test_fixture_validity_rate(self, corpus_records):
        # fixture is curated to be fully valid; the recorded rate is 1.0
        rate = sum(1 for rec in corpus_records if is_valid_smiles(rec.smiles)) / len(
            corpus_records
        )
        assert rate == 1.0
