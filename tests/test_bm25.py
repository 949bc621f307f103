import json
import math
import random
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import molrag.bm25 as bm25_module
from molrag.bm25 import (
    B,
    K1,
    Bm25Error,
    _idf,
    build_index,
    load_index,
    save_index,
    tokenize,
    tokenize_chargrams,
    top_n,
)
from oracles import bm25_rank_direct, bm25_score_direct, bm25_top_n_tf, build_tf_index

_TOKENIZERS = {"caption": tokenize, "smiles_chargram": tokenize_chargrams}
# Queries draw from a wider alphabet than documents, so some query terms are unindexed.
_CAPTION_WORDS = ["acid", "amine", "ring", "the", "a", "is"]
_QUERY_WORDS = _CAPTION_WORDS + ["ketone", "zz"]


@st.composite
def _corpus_and_query(draw):
    mode = draw(st.sampled_from(sorted(_TOKENIZERS)))
    if mode == "caption":
        doc = st.lists(st.sampled_from(_CAPTION_WORDS), max_size=8).map(" ".join)
        query = st.lists(st.sampled_from(_QUERY_WORDS), min_size=1, max_size=8).map(" ".join)
    else:
        doc = st.text(alphabet="CNOc1", max_size=10)
        query = st.text(alphabet="CNOSc1", min_size=1, max_size=10)
    docs = draw(st.lists(doc, min_size=1, max_size=12))
    n = draw(st.integers(min_value=1, max_value=len(docs) + 3))
    return mode, docs, draw(query), n


_BOILERPLATE = ["the", "molecule", "is", "a"]
_BODY_WORDS = ["acid", "amine", "ring", "chain", "ketone"]


@st.composite
def _boilerplate_corpus_and_query(draw):
    """Captions that all open with the same 1-4 words, so those words are in
    every document (unless one document is empty), with duplicates and
    one-word variants for near-ties at the k-th place."""
    prefix = draw(st.lists(st.sampled_from(_BOILERPLATE), min_size=1, max_size=4))
    word = st.sampled_from(_BODY_WORDS + _BOILERPLATE)
    bodies: list[list[str]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        kind = draw(st.sampled_from(["new", "copy", "one word"])) if bodies else "new"
        if kind == "new":
            bodies.append(draw(st.lists(word, max_size=6)))
            continue
        body = list(draw(st.sampled_from(bodies)))
        if kind == "one word":
            pos = draw(st.integers(min_value=0, max_value=len(body)))
            replace = pos < len(body) and draw(st.booleans())
            body[pos : pos + replace] = [draw(word)]
        bodies.append(body)
    docs = [" ".join(prefix + body) for body in bodies]
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        docs.insert(draw(st.integers(min_value=0, max_value=len(docs))), "")
    # universal words, often repeated, then other words, in any order; either part may be empty
    universal = draw(st.lists(st.sampled_from(prefix), max_size=6))
    other = draw(st.lists(st.sampled_from(_BODY_WORDS + ["zz"]),
                          min_size=0 if universal else 1, max_size=4))
    query = " ".join(draw(st.permutations(universal + other)))
    n = draw(st.integers(min_value=1, max_value=len(docs) + 3))
    return docs, query, n


def _assert_matches_tf_oracle(tmp_path, docs, query, ns, mode="caption"):
    """top_n gives the oracle's ids and float.hex scores, before and after a save/load."""
    index = build_index(docs, tokenizer_mode=mode)
    # A fresh file each time: Hypothesis runs many examples in one tmp_path, and
    # rewriting one file in place makes the file system write it back on close.
    (tmp_path / "index.bm25").unlink(missing_ok=True)
    save_index(index, tmp_path / "index.bm25")
    oracle = build_tf_index(docs, _TOKENIZERS[mode], K1, B)
    for n in ns:
        expected = [(doc, score.hex()) for doc, score in bm25_top_n_tf(oracle, query, n)]
        for candidate in (index, load_index(tmp_path / "index.bm25")):
            got = [(doc, score.hex()) for doc, score in top_n(candidate, query, n)]
            assert got == expected, (query, n)


def rewrite_index(path, edit_header=lambda header: None, body=None):
    """Rewrite an index file with an edited header or body and a matching CRC."""
    blob = path.read_bytes()
    header_end = 12 + int.from_bytes(blob[8:12], "big")
    header = json.loads(blob[12:header_end])
    body = blob[header_end:-4] if body is None else body
    edit_header(header)
    header_bytes = json.dumps(header).encode()
    content = blob[:8] + len(header_bytes).to_bytes(4, "big") + header_bytes + body
    path.write_bytes(content + zlib.crc32(content).to_bytes(4, "big"))


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
        assert _idf(1, 1) == pytest.approx(math.log(4 / 3))
        # with tf 1 in a document of average length, the impact is the idf
        assert index.impacts["a"][0] == pytest.approx(math.log(4 / 3))

    def test_empty_corpus(self):
        with pytest.raises(Bm25Error, match="cannot index an empty corpus"):
            build_index([])

    def test_absent_term_no_postings(self):
        index = build_index(["a b", "b c"])
        assert "z" not in index.postings
        assert top_n(index, "z", 2) == [(0, 0.0), (1, 0.0)]

    def test_ubiquitous_term_idf_positive(self):
        index = build_index(["a x", "a y", "a z"])
        expected = math.log(1 + 0.5 / 3.5)
        assert _idf(3, 3) == pytest.approx(expected)
        assert list(index.impacts["a"]) == pytest.approx([expected] * 3)
        assert expected > 0


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

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_corpus_and_query())
    def test_matches_tf_postings_oracle_bit_for_bit(self, tmp_path, case):
        # Same ids and the same float at every rank as scoring (doc_id, tf) postings at
        # query time, before and after a save/load round trip.
        mode, docs, query, n = case
        _assert_matches_tf_oracle(tmp_path, docs, query, [n], mode)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_boilerplate_corpus_and_query())
    def test_two_phase_path_matches_tf_postings_oracle(self, tmp_path, case):
        docs, query, n = case
        _assert_matches_tf_oracle(tmp_path, docs, query, [n])

    def test_universal_terms_are_those_in_every_document(self):
        index = build_index(["the acid", "the amine acid", "the the ring"])
        assert index.universal == {"the": max(index.impacts["the"])}
        assert build_index(["the acid", "the amine", ""]).universal == {}

    def test_universal_terms_can_overtake_the_best_partial_score(self, tmp_path):
        # Without "is", doc 0 scores highest (doc 1 is longer); with "is" three
        # times in the query, doc 1 wins, so the cutoff must leave room for U.
        docs = ["is acid", "is is acid", "is ring"]
        index = build_index(docs)
        assert index.universal.keys() == {"is"}
        assert top_n(index, "acid", 1)[0][0] == 0
        assert top_n(index, "is is is acid", 1)[0][0] == 1
        _assert_matches_tf_oracle(tmp_path, docs, "is is is acid", [1, 2, 3])

    @staticmethod
    def _boilerplate_corpus(doc_count, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(400)]
        weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
        docs = []
        for _ in range(doc_count):
            roll = rng.random()
            if docs and roll < 0.1:
                docs.append(rng.choice(docs))
            elif docs and roll < 0.2:
                words = rng.choice(docs).split()
                words[rng.randrange(4, len(words))] = rng.choice(vocab)
                docs.append(" ".join(words))
            else:
                body = rng.choices(vocab, weights, k=rng.randint(3, 30))
                docs.append("the molecule is a " + " ".join(body) + " it has a role")
        return docs, rng

    def test_two_thousand_boilerplate_captions(self, tmp_path):
        docs, rng = self._boilerplate_corpus(2000, seed=14)
        queries = [rng.choice(docs) for _ in range(8)] + [
            "the molecule is a", "a a a role", "the molecule is a w0 w1 w2 w399 zz"]
        for query in queries:
            _assert_matches_tf_oracle(tmp_path, docs, query, [1, 10, 57, 1999, 2000, 2003])

    def test_rescores_only_the_candidates(self, monkeypatch):
        # A caption query over boilerplate captions rescores a few documents, not all.
        docs, rng = self._boilerplate_corpus(2000, seed=15)
        index = build_index(docs)
        assert {"the", "molecule", "is", "a"} <= set(index.universal)
        rescored = []
        real = bm25_module._rescore

        def counting(index, terms, doc_id):
            rescored.append(doc_id)
            return real(index, terms, doc_id)

        monkeypatch.setattr(bm25_module, "_rescore", counting)
        top_n(index, docs[7], 10)
        assert 10 <= len(rescored) < 100

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
        assert top_n(again, "alcohol chain", 5) == top_n(index, "alcohol chain", 5)

    def test_deterministic_bytes(self, tmp_path):
        index = build_index(["one two", "three four"])
        save_index(index, tmp_path / "a.bm25")
        save_index(index, tmp_path / "b.bm25")
        assert (tmp_path / "a.bm25").read_bytes() == (tmp_path / "b.bm25").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bm25"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(Bm25Error, match=r"not a BM25 index file \(bad magic\)"):
            load_index(path)

    def test_corrupt_body(self, tmp_path):
        index = build_index(["one two"])
        path = tmp_path / "x.bm25"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(Bm25Error, match="fails its CRC-32 check"):
            load_index(path)

    @pytest.mark.parametrize("mode, docs", [
        ("caption", ["one two two", "two three", "four"]),
        ("smiles_chargram", ["CCO", "c1ccccc1", "CC"]),
    ])
    def test_every_byte_flip_and_truncation_is_a_format_error(self, tmp_path, mode, docs):
        path = tmp_path / "x.bm25"
        save_index(build_index(docs, tokenizer_mode=mode), path)
        blob = path.read_bytes()
        damaged = [blob[:size] for size in range(len(blob))]
        for pos in range(len(blob)):
            # The trailing CRC-32 covers the header as well as the body, so it
            # catches every single-bit change anywhere in the file.
            for mask in [0xFF] + [1 << bit for bit in range(8)]:
                flipped = bytearray(blob)
                flipped[pos] ^= mask
                damaged.append(bytes(flipped))
        for data in damaged:
            # A fresh file each time: truncating one file in place makes the
            # file system write each shortened copy back on close.
            path.unlink()
            path.write_bytes(data)
            with pytest.raises(Bm25Error):
                load_index(path)

    def test_header_byte_flip_is_a_format_error(self, tmp_path):
        # Flipping the low bit of the 5 in "k1":1.5 leaves valid JSON that reads k1=1.4.
        path = tmp_path / "x.bm25"
        save_index(build_index(["one two", "two three"]), path)
        blob = bytearray(path.read_bytes())
        pos = blob.index(b'"k1":1.5') + len(b'"k1":1.')
        blob[pos] ^= 1
        assert b'"k1":1.4' in blob
        path.write_bytes(bytes(blob))
        with pytest.raises(Bm25Error, match="CRC-32"):
            load_index(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("df"), "'df' is missing or has the wrong type"),
        (lambda h: h.update(k1="1.5"), "'k1' is missing or has the wrong type"),
        (lambda h: h.update(doc_count=True), "'doc_count' is missing or has the wrong type"),
        (lambda h: h.update(terms=h["terms"][::-1]), "not distinct sorted strings"),
        (lambda h: h.update(df=[0] * len(h["df"])), "not one positive count per term"),
        (lambda h: h.update(doc_count=h["doc_count"] + 1), "body holds"),
    ], ids=["no-df", "string-k1", "bool-doc-count", "unsorted-terms", "zero-df", "size"])
    def test_inconsistent_header_is_a_format_error(self, tmp_path, edit, message):
        path = tmp_path / "x.bm25"
        save_index(build_index(["one two", "two three"]), path)
        rewrite_index(path, edit)
        with pytest.raises(Bm25Error, match=message):
            load_index(path)

    @pytest.mark.parametrize("key", ["k1", "b"])
    def test_other_k1_or_b_asks_for_a_re_ingest(self, tmp_path, key):
        # Impacts are computed under K1 and B, so a header naming other values
        # describes an index that top_n would rank under the wrong setting.
        path = tmp_path / "x.bm25"
        save_index(build_index(["one two", "two three"]), path)
        rewrite_index(path, lambda h: h.update({key: 2.0}))
        with pytest.raises(Bm25Error, match=f"{key}=2.0.*re-run `molrag ingest`"):
            load_index(path)

    def test_doc_id_out_of_range_is_a_format_error(self, tmp_path):
        path = tmp_path / "x.bm25"
        save_index(build_index(["one two", "two three"]), path)
        blob = path.read_bytes()
        body = bytearray(blob[12 + int.from_bytes(blob[8:12], "big"):-4])
        body[8:12] = (2).to_bytes(4, "little")  # the first posting's doc id, after 2 lengths
        rewrite_index(path, body=bytes(body))
        with pytest.raises(Bm25Error, match="outside"):
            load_index(path)

    @pytest.mark.parametrize("value", [-1.0, -0.0, math.inf, -math.inf, math.nan, 2.0**1009])
    def test_negative_or_non_finite_impact_is_a_format_error(self, tmp_path, value):
        # top_n's pruning bounds a score by its partial sum only for non-negative impacts.
        path = tmp_path / "x.bm25"
        save_index(build_index(["one two", "two three"]), path)
        blob = path.read_bytes()
        body = bytearray(blob[12 + int.from_bytes(blob[8:12], "big"):-4])
        body[-8:] = struct.pack("<d", value)  # the last term's last impact
        rewrite_index(path, body=bytes(body))
        with pytest.raises(Bm25Error, match=r"impact outside \[0, 2\*\*1009\)"):
            load_index(path)

    def test_largest_accepted_impact_loads(self, tmp_path):
        path = tmp_path / "x.bm25"
        save_index(build_index(["one two", "two three"]), path)
        blob = path.read_bytes()
        body = bytearray(blob[12 + int.from_bytes(blob[8:12], "big"):-4])
        body[-8:] = struct.pack("<d", math.nextafter(2.0**1009, 0.0))
        rewrite_index(path, body=bytes(body))
        assert load_index(path).impacts["two"][-1] == math.nextafter(2.0**1009, 0.0)

    def test_version_1_index_asks_for_a_re_ingest(self, tmp_path):
        # The version 1 layout: a JSON header, then a zlib-compressed JSON body.
        header = json.dumps({"version": 1, "k1": 1.5, "b": 0.75, "doc_count": 1,
                             "tokenizer_mode": "caption"}).encode()
        body = zlib.compress(json.dumps({"doc_lengths": [1], "postings": {"a": [[0, 1]]}}).encode())
        path = tmp_path / "v1.bm25"
        path.write_bytes(b"BM25" + (1).to_bytes(4, "big") + len(header).to_bytes(4, "big")
                         + header + len(body).to_bytes(4, "big") + body)
        with pytest.raises(Bm25Error, match="version 1 .*re-run `molrag ingest`"):
            load_index(path)

    def test_version_2_index_asks_for_a_re_ingest(self, tmp_path):
        # The version 2 layout: the body's CRC-32 sat in the JSON header and no
        # trailer covered the header.
        body = (1).to_bytes(4, "little") + (0).to_bytes(4, "little") + b"\0" * 8
        header = json.dumps({"k1": 1.5, "b": 0.75, "tokenizer_mode": "caption",
                             "doc_count": 1, "terms": ["a"], "df": [1],
                             "body_crc32": zlib.crc32(body)}).encode()
        path = tmp_path / "v2.bm25"
        path.write_bytes(b"BM25" + (2).to_bytes(4, "big") + len(header).to_bytes(4, "big")
                         + header + body)
        with pytest.raises(Bm25Error, match="version 2 .*re-run `molrag ingest`"):
            load_index(path)

    def test_chargram_mode_persisted(self, tmp_path):
        index = build_index(["CCO", "CCC"], tokenizer_mode="smiles_chargram")
        save_index(index, tmp_path / "s.bm25")
        again = load_index(tmp_path / "s.bm25")
        assert again.tokenizer_mode == "smiles_chargram"
        assert top_n(again, "CCO", 2) == top_n(index, "CCO", 2)
