import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molrag import fingerprint as fingerprint_module
from molrag import metrics as metrics_module
from molrag.fingerprint import FingerprintParams, dice_similarity, morgan_fingerprint
from molrag.metrics import (
    STATUS_FAILED,
    STATUS_OK,
    EvalPair,
    MetricError,
    bleu_n,
    build_report,
    exact_match_rate,
    levenshtein,
    levenshtein_mean,
    molecule_scores,
    morgan_fts_stats,
    render_table,
    rouge_scores,
    validity_rate,
)
from molrag.smiles import parse_smiles
from molrag.smiles import parser as smiles_parser
from oracles import (
    bleu_direct,
    edges,
    exact_match_rate_reparse,
    f1_direct,
    lcs_direct,
    levenshtein_direct,
    morgan_fts_stats_reparse,
    ngram_counts,
    permute_molecule,
    valid_count_reparse,
    validity_rate_reparse,
    write_smiles,
)

# --- hand-worked worksheet -------------------------------------------------
# caption pairs: unigram matches 6+3+3+0+0 = 12 of 6+3+4+0+4 = 17 positions;
# bigram matches 5+2+1+0+0 = 8 of 5+2+3+0+3 = 13; trigram 4+1+0 = 5 of 9;
# 4-gram 3+0+0 = 3 of 5; candidate length 17, reference length 25.
CAPTION_PAIRS = [
    ("the cat sat on the mat", "the cat sat on the mat"),
    ("the cat sat", "the cat sat on the mat"),
    ("a dog ran fast", "the dog ran very fast"),
    ("", "empty prediction here"),
    ("completely different words here", "nothing matches at all now"),
]
HAND_BLEU2 = math.exp(1 - 25 / 17) * math.sqrt((12 / 17) * (8 / 13))
HAND_BLEU4 = math.exp(1 - 25 / 17) * math.exp(
    (math.log(12 / 17) + math.log(8 / 13) + math.log(5 / 9) + math.log(3 / 5)) / 4
)
# per-pair ROUGE F1 (pairs 4 and 5 contribute 0):
#   pair 1: 1, 1, 1;  pair 2: 2/3, 4/7, 2/3;  pair 3: 2/3, 2/7, 2/3
HAND_ROUGE1 = (1 + 2 / 3 + 2 / 3) / 5
HAND_ROUGE2 = (1 + 4 / 7 + 2 / 7) / 5
HAND_ROUGEL = (1 + 2 / 3 + 2 / 3) / 5

SMILES_PAIRS = [
    ("CCO", "CCO"),
    ("CCO", "CC(=O)O"),
    ("c1ccccc1", "C1CCCCC1"),
    ("", "CCCC"),
    ("CC(C)O", "CCCO"),
]
# frozen from the direct-counting oracle (tests/oracles.py)
ORACLE_SMILES_BLEU2 = 0.28691766312673045
ORACLE_SMILES_BLEU4 = 0.0013929616460552137
HAND_LEV = [0, 4, 6, 4, 2]  # per-pair character edits, mean 3.2


def pairs(raw) -> list[EvalPair]:
    return [EvalPair(prediction=p, reference=r) for p, r in raw]


_MOLECULES = [
    "CCO", "CC(=O)Oc1ccccc1C(=O)O", "c1ccc2ccccc2c1", "[Na+].[Cl-]", "N[C@@H](C)C(=O)O",
    "C1CC1", "[13CH3]C#N", "O=S(=O)(O)O", "C=CC=C", "c1cc[se]c1", "C(C)(C)(C)(C)C",
]
_INVALID = ["C1CC", "bad(", "", ".", "c1ccccc1(C)C", "[Xx]"]  # the first two fail to parse


_WORDS = ["the", "The", "molecule", "is", "a", "an", "acid", "of", "role", "it", "has", "C"]


@st.composite
def _caption_pairs(draw) -> EvalPair:
    """Captions over a small vocabulary, so n-grams and subsequences overlap; some
    with calibration failed."""
    words = st.lists(st.sampled_from(_WORDS), max_size=80).map(" ".join)
    status = draw(st.sampled_from([STATUS_OK, STATUS_OK, STATUS_FAILED]))
    return EvalPair(draw(words), draw(words), status)


@st.composite
def _molecule_pairs(draw) -> EvalPair:
    """A reference, which may fail to parse, and a prediction that is an atom
    permutation of it, another molecule, an unparseable or over-valence string,
    or empty; about a quarter with calibration failed."""
    reference = draw(st.sampled_from(_MOLECULES + _INVALID[:2]))
    kind = draw(st.sampled_from(["permuted", "other", "invalid"]))
    if kind == "permuted" and reference in _MOLECULES:
        mol = parse_smiles(reference)
        prediction = write_smiles(permute_molecule(mol, draw(st.permutations(range(len(mol))))))
    elif kind == "invalid":
        prediction = draw(st.sampled_from(_INVALID))
    else:
        prediction = draw(st.sampled_from(_MOLECULES))
    status = draw(st.sampled_from([STATUS_OK, STATUS_OK, STATUS_OK, STATUS_FAILED]))
    return EvalPair(prediction, reference, status)


class TestBleu:
    def test_identical_corpus(self):
        assert bleu_n(pairs([("a b c d", "a b c d")] * 3), 2) == pytest.approx(1.0)
        assert bleu_n(pairs([("a b c d", "a b c d")] * 3), 4) == pytest.approx(1.0)
        smiles = "CC(=O)Oc1ccccc1C(=O)O"
        assert bleu_n(pairs([(smiles, smiles)]), 4, mode="smiles") == pytest.approx(1.0)

    def test_disjoint_epsilon_floor(self):
        score = bleu_n(pairs([("x y z w", "a b c d")]), 2)
        assert 0.0 <= score < 1e-4

    def test_caption_worksheet_values(self):
        assert bleu_n(pairs(CAPTION_PAIRS), 2) == pytest.approx(HAND_BLEU2, abs=1e-6)
        assert bleu_n(pairs(CAPTION_PAIRS), 4) == pytest.approx(HAND_BLEU4, abs=1e-6)

    def test_smiles_oracle_values(self):
        assert bleu_n(pairs(SMILES_PAIRS), 2, mode="smiles") == pytest.approx(
            ORACLE_SMILES_BLEU2, abs=1e-6
        )
        assert bleu_n(pairs(SMILES_PAIRS), 4, mode="smiles") == pytest.approx(
            ORACLE_SMILES_BLEU4, abs=1e-6
        )

    def test_matches_direct_oracle_live(self):
        cap_tokens = [(c.lower().split(), r.lower().split()) for c, r in CAPTION_PAIRS]
        assert bleu_n(pairs(CAPTION_PAIRS), 2).hex() == bleu_direct(cap_tokens, 2).hex()
        smi_tokens = [(list(c), list(r)) for c, r in SMILES_PAIRS]
        assert bleu_n(pairs(SMILES_PAIRS), 4, mode="smiles").hex() == (
            bleu_direct(smi_tokens, 4).hex()
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_caption_pairs(), min_size=1, max_size=6), st.sampled_from([2, 4]),
           st.sampled_from(["caption", "smiles"]))
    def test_matches_direct_oracle_exactly(self, evaluated, max_n, mode):
        def tokens(text):
            return text.lower().split() if mode == "caption" else list(text)

        expected = bleu_direct(
            [(tokens(p.effective_prediction), tokens(p.reference)) for p in evaluated], max_n
        )
        assert bleu_n(evaluated, max_n, mode=mode).hex() == expected.hex()

    def test_case_folding_for_captions(self):
        assert bleu_n(pairs([("The CAT", "the cat")]), 2) == pytest.approx(1.0)

    def test_empty_input(self):
        with pytest.raises(MetricError, match="no pairs to score"):
            bleu_n([], 2)

    def test_all_empty_predictions(self):
        assert bleu_n(pairs([("", "a b")]), 2) == 0.0


class TestRouge:
    def test_identical(self):
        scores = rouge_scores(pairs([("a b c", "a b c")]))
        assert scores == {"rouge1_f": 1.0, "rouge2_f": 1.0, "rougeL_f": 1.0}

    def test_empty_prediction(self):
        scores = rouge_scores(pairs([("", "a b c")]))
        assert scores == {"rouge1_f": 0.0, "rouge2_f": 0.0, "rougeL_f": 0.0}

    def test_worksheet_values(self):
        scores = rouge_scores(pairs(CAPTION_PAIRS))
        assert scores["rouge1_f"] == pytest.approx(HAND_ROUGE1, abs=1e-6)
        assert scores["rouge2_f"] == pytest.approx(HAND_ROUGE2, abs=1e-6)
        assert scores["rougeL_f"] == pytest.approx(HAND_ROUGEL, abs=1e-6)

    def test_lcs_worked_example(self):
        # cand "the cat sat", ref "the cat sat on the mat": LCS 3 -> F1 = 2/3
        scores = rouge_scores(pairs([("the cat sat", "the cat sat on the mat")]))
        assert scores["rougeL_f"] == pytest.approx(2 / 3)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_caption_pairs(), min_size=1, max_size=6))
    # references longer than 64 tokens span more than one machine word of the LCS bitset
    @example([EvalPair(" ".join(["a", "b", "c"] * 40), " ".join(["c", "a", "b", "d"] * 30))])
    def test_matches_direct_oracle_exactly(self, evaluated):
        def overlap(cand, ref, n):
            c, r = ngram_counts(cand, n), ngram_counts(ref, n)
            return sum(min(k, r[g]) for g, k in c.items())

        r1 = r2 = rl = 0.0
        for pair in evaluated:
            cand = pair.effective_prediction.lower().split()
            ref = pair.reference.lower().split()
            r1 += f1_direct(overlap(cand, ref, 1), len(cand), len(ref))
            r2 += f1_direct(overlap(cand, ref, 2), max(len(cand) - 1, 0), max(len(ref) - 1, 0))
            rl += f1_direct(lcs_direct(cand, ref), len(cand), len(ref))
        count = len(evaluated)
        expected = {"rouge1_f": r1 / count, "rouge2_f": r2 / count, "rougeL_f": rl / count}
        got = rouge_scores(evaluated)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}

    def test_lcs_order_sensitivity(self):
        scores = rouge_scores(pairs([("c b a", "a b c")]))
        # only one common subsequence element survives the reversal
        assert scores["rougeL_f"] == pytest.approx(1 / 3)
        assert scores["rouge1_f"] == pytest.approx(1.0)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("same", "same") == 0

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_prediction_costs_reference_length(self):
        assert levenshtein("", "CCCC") == 4

    def test_worksheet_values(self):
        for (pred, ref), expected in zip(SMILES_PAIRS, HAND_LEV):
            assert levenshtein(pred, ref) == expected
        assert levenshtein_mean(pairs(SMILES_PAIRS)) == pytest.approx(3.2)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=20), st.text(max_size=20))
    def test_matches_full_table_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_direct(a, b)

    # A small alphabet keeps the strings close, so long runs of matches and of
    # edits both occur; 200 characters span several machine words of the bitsets.
    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="CNO()=1cé漢\U0001f600", max_size=200),
           st.text(alphabet="CNO()=1cé漢\U0001f600", max_size=200))
    @example("C" * 200, "C" * 199 + "é")
    @example("(" * 70 + "漢" * 70, "漢" * 70 + "(" * 70)
    def test_matches_full_table_oracle_on_long_strings(self, a, b):
        assert levenshtein(a, b) == levenshtein_direct(a, b)


class TestExactMatch:
    def test_graph_level_match(self):
        assert exact_match_rate(molecule_scores(pairs([("OCC", "CCO")]))) == 1.0

    def test_invalid_prediction_no_match(self):
        assert exact_match_rate(molecule_scores(pairs([("C1CC", "CCO")]))) == 0.0

    def test_twenty_pair_hand_count(self):
        # 7 graph matches out of 20 by construction
        match = [("CCO", "OCC"), ("CCC", "CCC"), ("c1ccccc1", "c1ccccc1"),
                 ("C(C)C", "CCC"), ("N[C@@H](C)C(=O)O", "N[C@H](C)C(=O)O"),
                 ("[Na+].[Cl-]", "[Cl-].[Na+]"), ("C%12CCCC%12", "C1CCCC1")]
        differ = [("CCO", "CCN"), ("CC", "CCC"), ("C=C", "CC"), ("C#C", "C=C"),
                  ("c1ccccc1", "C1CCCCC1"), ("CCO", "CCCO"), ("CC(=O)O", "CCO"),
                  ("C1CC1", "CCC"), ("O", "N"), ("CCOC", "CCCO"), ("CN", "CO"),
                  ("bad(", "CCO"), ("", "CC")]
        rate = exact_match_rate(molecule_scores(pairs(match + differ)))
        assert rate == pytest.approx(7 / 20)


class TestMorganFts:
    def test_exact_matches_score_one(self):
        scores = molecule_scores(pairs([("CCO", "OCC"), ("CC", "CC")]))
        assert morgan_fts_stats(scores)[0] == pytest.approx(1.0)

    def test_all_invalid_zero(self):
        assert morgan_fts_stats(molecule_scores(pairs([("nope(", "CCO"), ("", "CC")])))[0] == 0.0

    def test_cross_check_per_pair_dice(self):
        raw = [("CCO", "CCCO"), ("CC", "CCC"), ("c1ccccc1", "Cc1ccccc1"), ("xx", "CC")]
        params = FingerprintParams()
        expected_sum = 0.0
        for pred, ref in raw[:3]:
            expected_sum += dice_similarity(
                morgan_fingerprint(parse_smiles(pred), params),
                morgan_fingerprint(parse_smiles(ref), params),
            )
        mean_all, mean_valid, n_valid = morgan_fts_stats(molecule_scores(pairs(raw)))
        assert mean_all == pytest.approx(expected_sum / 4)
        assert mean_valid == pytest.approx(expected_sum / 3)
        assert n_valid == 3


class TestValidity:
    def test_rates(self):
        scores = molecule_scores(pairs([("CCO", ""), ("C1CC", ""), ("C(C)(C)(C)(C)C", "")]))
        assert validity_rate(scores) == pytest.approx(1 / 3)

    def test_exact_match_implies_fts_and_validity(self):
        exact = pairs([("OCC", "CCO"), ("C(C)C", "CCC"), ("C%12CCCC%12", "C1CCCC1")])
        scores = molecule_scores(exact)
        assert exact_match_rate(scores) == 1.0
        assert morgan_fts_stats(scores)[0] == pytest.approx(1.0)
        assert validity_rate(scores) == 1.0


class TestFailureAccounting:
    def test_failed_pairs_score_as_empty(self):
        ok = EvalPair(prediction="CCO", reference="CCO")
        failed = EvalPair(prediction="CCO", reference="CCO", status=STATUS_FAILED)
        assert failed.effective_prediction == ""
        assert exact_match_rate(molecule_scores([ok])) == 1.0
        assert exact_match_rate(molecule_scores([failed])) == 0.0

    def test_monotone_penalty(self):
        base_raw = [(r.capitalize(), r) for r in ("the cat sat", "a dog ran", "birds fly high")]
        base = pairs(base_raw)
        degraded = [
            EvalPair(prediction=p.prediction, reference=p.reference,
                     status=STATUS_FAILED if i == 0 else p.status)
            for i, p in enumerate(base)
        ]
        assert bleu_n(degraded, 2) <= bleu_n(base, 2)
        assert rouge_scores(degraded)["rouge1_f"] <= rouge_scores(base)["rouge1_f"]
        assert levenshtein_mean(degraded) >= levenshtein_mean(base)

        smi = pairs([("CCO", "CCO"), ("CC", "CC")])
        smi_degraded = [smi[0], EvalPair("CC", "CC", status=STATUS_FAILED)]
        scores, degraded_scores = molecule_scores(smi), molecule_scores(smi_degraded)
        assert exact_match_rate(degraded_scores) <= exact_match_rate(scores)
        assert morgan_fts_stats(degraded_scores)[0] <= morgan_fts_stats(scores)[0]
        assert validity_rate(degraded_scores) <= validity_rate(scores)


class TestRanges:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(max_size=15), st.text(min_size=1, max_size=15)),
            min_size=1,
            max_size=5,
        )
    )
    def test_fuzz_ranges(self, raw):
        ps = pairs(raw)
        scores = molecule_scores(ps)
        for value in (
            bleu_n(ps, 2),
            bleu_n(ps, 4),
            *rouge_scores(ps).values(),
            exact_match_rate(scores),
            morgan_fts_stats(scores)[0],
            validity_rate(scores),
        ):
            assert 0.0 <= value <= 1.0
        assert levenshtein_mean(ps) >= 0.0


class TestMoleculeScores:
    """One parse per molecule gives the same figures as parsing once per metric."""

    @pytest.mark.parametrize("smiles", _MOLECULES)
    def test_writer_round_trip(self, smiles):
        mol = parse_smiles(smiles)
        back = parse_smiles(write_smiles(mol))
        assert back.atoms == mol.atoms
        assert edges(back) == edges(mol)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_molecule_pairs(), min_size=1, max_size=8))
    @example([EvalPair("C(C)(C)(C)(C)C", "C(C)(C)(C)(C)C")])
    @example([EvalPair("CCO", "C1CC"), EvalPair("", "CCO"), EvalPair("CCO", "CCO", STATUS_FAILED)])
    def test_matches_reparse_oracle(self, evaluated):
        report = build_report(evaluated, "cap2mol", {})
        metrics, counts = report["metrics"], report["counts"]
        mean_all, mean_valid, parseable = morgan_fts_stats_reparse(evaluated)
        expected = {
            "exact_match": exact_match_rate_reparse(evaluated),
            "morgan_fts": mean_all,
            "morgan_fts_valid_only": mean_valid,
            "validity": validity_rate_reparse(evaluated),
        }
        assert {k: metrics[k].hex() for k in expected} == {k: v.hex() for k, v in expected.items()}
        valid = valid_count_reparse(evaluated)
        assert (counts["valid"], counts["invalid"], counts["parseable"]) == (
            valid, len(evaluated) - valid, parseable
        )

    def test_parses_each_molecule_at_most_once(self, monkeypatch):
        parse = smiles_parser.parse_smiles
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("molrag") and getattr(module, "parse_smiles", None) is parse:
                monkeypatch.setattr(module, "parse_smiles", counting_parse)
        evaluated = pairs([(s, s) for s in _MOLECULES] + [("C1CC", "CCO"), ("C(C)(C)(C)(C)C", "CC")])
        build_report(evaluated, "cap2mol", {})
        assert 0 < len(calls) <= 2 * len(evaluated)


_SMILESISH = "CcNnOoSs[]()=#$123%+-@H/\\.*Clr "
_RING_1100 = "C1" + "C" * 1098 + "1"


class TestReport:
    def test_structure_and_na_fields(self):
        report = build_report(pairs(SMILES_PAIRS), "cap2mol", {"n_shots": 2})
        assert set(report["metrics"]) == {
            "bleu2", "bleu4", "levenshtein", "exact_match",
            "morgan_fts", "morgan_fts_valid_only", "validity",
        }
        assert report["not_computed"]["fcd"].startswith("n/a")
        assert report["counts"]["items"] == 5
        assert report["config"] == {"n_shots": 2}

    def test_mol2cap_columns(self):
        report = build_report(pairs(CAPTION_PAIRS), "mol2cap", {})
        assert set(report["metrics"]) == {"bleu2", "bleu4", "rouge1", "rouge2", "rougeL"}
        assert "meteor" in report["not_computed"]

    def test_deterministic(self):
        a = build_report(pairs(SMILES_PAIRS), "cap2mol", {"seed": 1})
        b = build_report(pairs(SMILES_PAIRS), "cap2mol", {"seed": 1})
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_caption_pairs(), min_size=1, max_size=6))
    def test_shared_ngram_counts_match_separate_calls(self, evaluated):
        # build_report counts n-grams once for BLEU-2, BLEU-4 and ROUGE-1/2;
        # bleu_n and rouge_scores alone are checked against the oracles above.
        report = build_report(evaluated, "mol2cap", {})["metrics"]
        rouge = rouge_scores(evaluated)
        assert {k: v.hex() for k, v in report.items()} == {
            "bleu2": bleu_n(evaluated, 2).hex(), "bleu4": bleu_n(evaluated, 4).hex(),
            "rouge1": rouge["rouge1_f"].hex(), "rouge2": rouge["rouge2_f"].hex(),
            "rougeL": rouge["rougeL_f"].hex()}
        report = build_report(evaluated, "cap2mol", {})["metrics"]
        assert report["bleu2"].hex() == bleu_n(evaluated, 2, mode="smiles").hex()
        assert report["bleu4"].hex() == bleu_n(evaluated, 4, mode="smiles").hex()

    @pytest.mark.parametrize("task, data", [("mol2cap", CAPTION_PAIRS), ("cap2mol", SMILES_PAIRS)])
    def test_counts_each_pairs_ngrams_once(self, monkeypatch, task, data):
        ngrams = metrics_module._ngrams
        calls = []

        def counting(tokens, n):
            calls.append(n)
            return ngrams(tokens, n)

        monkeypatch.setattr(metrics_module, "_ngrams", counting)
        build_report(pairs(data), task, {})
        # a candidate and a reference counter for each n = 1..4, per pair
        assert sorted(calls) == sorted([1, 2, 3, 4] * 2 * len(data))

    def test_molecule_scores_share_one_morgan_memo(self, monkeypatch):
        hashes = []
        fnv = fingerprint_module.fnv1a_64
        monkeypatch.setattr(fingerprint_module, "fnv1a_64",
                            lambda data: hashes.append(data) or fnv(data))
        molecule_scores(pairs([("CCO", "CCO")] * 3))
        # every environment of the six fingerprints was hashed once
        assert len(hashes) == len(set(hashes)) > 0

    def test_table_rendering(self):
        report = build_report(pairs(SMILES_PAIRS), "cap2mol", {})
        table = render_table(report)
        for column in ("BLEU-2", "EM", "Levenshtein", "Morgan FTS", "Validity", "FCD"):
            assert column in table
        assert "n/a" in table

        cap_table = render_table(build_report(pairs(CAPTION_PAIRS), "mol2cap", {}))
        for column in ("ROUGE-1", "ROUGE-L", "METEOR", "Text2Mol"):
            assert column in cap_table

    def test_atomless_smiles_score_as_invalid(self):
        # "." once parsed to an empty molecule, and two empty fingerprints
        # made Morgan FTS raise FingerprintError
        report = build_report(pairs([(".", "."), ("..", "CCO"), ("CCO", "CCO")]), "cap2mol", {})
        assert report["counts"]["valid"] == 1
        assert report["counts"]["parseable"] == 1
        assert report["metrics"]["validity"] == pytest.approx(1 / 3)
        assert report["metrics"]["morgan_fts"] == pytest.approx(1 / 3)

    def test_prediction_beyond_the_recursion_limit(self):
        ring = "C1" + "C" * 1498 + "1"
        report = build_report([EvalPair(ring, ring), EvalPair("CCO", "CCO")], "cap2mol", {})
        assert report["metrics"]["exact_match"] == 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.builds(
                EvalPair,
                st.text(alphabet=_SMILESISH, max_size=25),
                st.text(alphabet=_SMILESISH, max_size=25),
                st.sampled_from([STATUS_OK, STATUS_FAILED]),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(["mol2cap", "cap2mol"]),
    )
    # Past the recursion limit; a ring refines in one round, so this stays fast.
    @example([EvalPair(_RING_1100, _RING_1100)], "cap2mol")
    # a digit run past int()'s limit once raised ValueError out of the SMILES parser
    @example([EvalPair("[" + "1" * 5000 + "C]", "CCO")], "cap2mol")
    def test_build_report_never_raises(self, evaluated, task):
        report = build_report(evaluated, task, {})
        assert report["counts"]["items"] == len(evaluated)

    def test_empty_pairs_rejected(self):
        with pytest.raises(MetricError, match="no pairs to score"):
            build_report([], "cap2mol", {})
