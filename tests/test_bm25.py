import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molrag.bm25 import (
    Bm25FormatError,
    Bm25Params,
    EmptyCorpus,
    build_index,
    load_index,
    save_index,
    tokenize,
    tokenize_chargrams,
    top_n,
)
from oracles import bm25_rank_direct, bm25_score_direct


class TestTokenize:
    def test_hand_fixture(self, data_dir):
        fixture = json.loads((data_dir / "captions_tokenized.json").read_text())
        assert len(fixture) == 20
        for case in fixture:
            assert tokenize(case["text"]) == case["tokens"], case["text"]

    def test_chargrams(self):
        assert tokenize_chargrams("CCO") == ["CCO"]
        assert tokenize_chargrams("c1ccccc1") == ["c1c", "1cc", "ccc", "ccc", "ccc", "cc1"]
        assert tokenize_chargrams("") == []
        assert tokenize_chargrams("CC") == ["CC"]

    def test_chargrams_preserve_case(self):
        assert tokenize_chargrams("CcO") == ["CcO"]


class TestBuild:
    def test_single_doc_idf(self):
        index = build_index(["a b"])
        assert index.avgdl == 2.0
        assert index.idf["a"] == pytest.approx(math.log(4 / 3))

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_index([])

    def test_absent_term_no_postings(self):
        index = build_index(["a b", "b c"])
        assert "z" not in index.postings
        assert top_n(index, "z", 2) == [(0, 0.0), (1, 0.0)]

    def test_ubiquitous_term_idf_positive(self):
        index = build_index(["a x", "a y", "a z"])
        expected = math.log(1 + 0.5 / 3.5)
        assert index.idf["a"] == pytest.approx(expected)
        assert index.idf["a"] > 0


class TestScore:
    def test_no_indexed_terms(self):
        index = build_index(["a b", "c d"])
        assert top_n(index, "zz qq", 2) == [(0, 0.0), (1, 0.0)]

    def test_repeated_query_positions(self):
        index = build_index(["cat sat", "dog ran"])
        [(doc, single)] = top_n(index, "cat", 1)
        assert doc == 0 and single > 0
        assert top_n(index, "cat cat", 1) == [(0, pytest.approx(2 * single))]

    def test_matches_direct_evaluation_randomized(self):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(100):
            n_docs = rng.randint(1, 20)
            docs = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 12))) for _ in range(n_docs)
            ]
            query = rng.choices(vocab + ["zz", "qq"], k=rng.randint(1, 5))
            index = build_index(docs)
            docs_tokens = [tokenize(d) for d in docs]
            for doc_id, value in top_n(index, " ".join(query), n_docs):
                assert value == pytest.approx(
                    bm25_score_direct(docs_tokens, query, doc_id), abs=1e-9
                )

    @settings(max_examples=100, deadline=None)
    @given(
        tf_low=st.integers(min_value=1, max_value=6),
        bump=st.integers(min_value=1, max_value=6),
    )
    def test_tf_monotonicity(self, tf_low, bump):
        # same doc length, same corpus stats: higher tf strictly raises the score
        tf_high = tf_low + bump
        length = tf_high + 2
        doc_low = " ".join(["t"] * tf_low + [f"f{i}" for i in range(length - tf_low)])
        doc_high = " ".join(["t"] * tf_high + [f"g{i}" for i in range(length - tf_high)])
        index = build_index([doc_low, doc_high, "z z z"])
        scores = dict(top_n(index, "t", 3))
        assert scores[1] > scores[0]


class TestTopN:
    def test_n_larger_than_corpus(self):
        index = build_index(["cat", "dog", "cat dog"])
        ranked = top_n(index, "cat", 10)
        assert len(ranked) == 3
        assert [doc for doc, _ in ranked][0] in (0, 2)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_duplicate_docs_tie_by_doc_id(self):
        index = build_index(["same text", "same text", "same text"])
        ranked = top_n(index, "same", 3)
        assert [doc for doc, _ in ranked] == [0, 1, 2]

    def test_zero_match_fill(self):
        index = build_index(["aa", "bb", "cc"])
        ranked = top_n(index, "zz", 2)
        assert ranked == [(0, 0.0), (1, 0.0)]

    def test_deterministic(self, corpus_records):
        index = build_index([rec.caption for rec in corpus_records[:30]])
        first = top_n(index, "primary alcohol with a chain", 10)
        second = top_n(index, "primary alcohol with a chain", 10)
        assert first == second

    def test_matches_exhaustive_ranking(self):
        rng = random.Random(4)
        vocab = [f"tok{i}" for i in range(25)]
        docs = [" ".join(rng.choices(vocab, k=rng.randint(2, 10))) for _ in range(20)]
        index = build_index(docs)
        docs_tokens = [tokenize(d) for d in docs]
        for _ in range(50):
            query_tokens = rng.choices(vocab, k=rng.randint(1, 4))
            query = " ".join(query_tokens)
            expected_order, expected_scores = bm25_rank_direct(docs_tokens, query_tokens)
            got = top_n(index, query, 20)
            assert [doc for doc, _ in got] == expected_order
            for doc, value in got:
                assert value == pytest.approx(expected_scores[doc], abs=1e-9)


class TestPersistence:
    def test_roundtrip(self, tmp_path, corpus_records):
        index = build_index([rec.caption for rec in corpus_records[:40]])
        path = tmp_path / "captions.bm25"
        save_index(index, path)
        again = load_index(path)
        assert again.postings == index.postings
        assert again.doc_lengths == index.doc_lengths
        assert again.idf == index.idf
        assert again.params == index.params
        assert top_n(again, "alcohol chain", 5) == top_n(index, "alcohol chain", 5)

    def test_deterministic_bytes(self, tmp_path):
        index = build_index(["one two", "three four"])
        save_index(index, tmp_path / "a.bm25")
        save_index(index, tmp_path / "b.bm25")
        assert (tmp_path / "a.bm25").read_bytes() == (tmp_path / "b.bm25").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bm25"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(Bm25FormatError):
            load_index(path)

    def test_corrupt_body(self, tmp_path):
        index = build_index(["one two"])
        path = tmp_path / "x.bm25"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(Bm25FormatError):
            load_index(path)

    def test_chargram_mode_persisted(self, tmp_path):
        index = build_index(["CCO", "CCC"], tokenizer_mode="smiles_chargram")
        save_index(index, tmp_path / "s.bm25")
        again = load_index(tmp_path / "s.bm25")
        assert again.tokenizer_mode == "smiles_chargram"
        assert top_n(again, "CCO", 2) == top_n(index, "CCO", 2)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=0)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)
        defaults = Bm25Params()
        assert defaults.k1 == 1.5 and defaults.b == 0.75
