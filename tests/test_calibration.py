import json
import sys
import threading
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molrag import calibration
from molrag.calibration import (
    STRATEGY_PATTERN,
    STRATEGY_TOLERANT,
    CalibratedOutput,
    CalibrationFailure,
    FormatError,
    calibrated_query,
    extract_payload,
    rank_examples,
)
from molrag.cli import _make_run_config
from molrag.llm import BackendError, ChatClient, ReplayBackend, prompt_digest
from molrag.prompt import build_prompt, default_template
from molrag.smiles import is_valid_smiles
from molrag.store import RetrievalStrategy, retrieve_mol2cap
from backends import ScriptedBackend
from oracles import extract_payload_rescan, query_fingerprint

GOOD_CAPTION = '{"caption": "A molecule description."}'
GARBAGE = "Apologies, that request falls outside what may be described."
ALLOWANCE = 5


def make_client(script) -> ChatClient:
    return ChatClient(ScriptedBackend(script), max_retries=3, backoff_base=0.0, sleep=lambda s: None)


def run(script, n, store=None, task="mol2cap", allowance=ALLOWANCE):
    strategy = RetrievalStrategy("morgan_fts") if task == "mol2cap" else RetrievalStrategy("bm25_caption")
    query = "CCO" if task == "mol2cap" else "An alcohol caption."
    query_fp = query_fingerprint(query) if task == "mol2cap" else None
    examples = rank_examples(store, task, query, n, strategy, query_fp=query_fp)
    return calibrated_query(make_client(script), default_template(task), query, examples, allowance)


class TestPolicy:
    def test_defaults(self):
        config = _make_run_config(None, {"task": "mol2cap", "store": "s", "replay": "r"})
        assert config.max_error_allowance == ALLOWANCE

    def test_validation(self):
        with pytest.raises(ValueError, match="max_error_allowance must be positive"):
            run([GOOD_CAPTION], n=0, allowance=0)


class TestExtraction:
    def test_fifteen_response_fixture(self, data_dir):
        fixture = json.loads((data_dir / "chatty_responses.json").read_text())
        assert len(fixture) == 15
        for case in fixture:
            if case.get("expect_error"):
                with pytest.raises(FormatError):
                    extract_payload(case["text"], case["task"])
                continue
            result = extract_payload(case["text"], case["task"])
            assert result.strategy == case["expect_strategy"], case["text"]
            assert result.value == case["expect_value"], case["text"]

    def test_strategy_order_respected(self):
        # text both embedded-parseable and pattern-parseable: embedded wins
        text = 'Note {"molecule": "CCO"} and also CC(=O)O appears.'
        assert extract_payload(text, "cap2mol").strategy == "embedded_json"

    def test_pure_function(self):
        text = "Caption: something stable"
        assert extract_payload(text, "mol2cap") == extract_payload(text, "mol2cap")

    def test_format_error_carries_raw_text(self):
        with pytest.raises(FormatError) as err:
            extract_payload(GARBAGE, "mol2cap")
        assert err.value.raw_text == GARBAGE

    @pytest.mark.parametrize(
        "text",
        ["[" * 3000, '{"caption": ' + "[" * 3000 + "]", "{" * 1200, "{{}}", "{[]: 1}"],
        ids=["deep-list", "deep-list-in-object", "deep-braces", "set-of-dict", "list-key"],
    )
    def test_pathological_nesting_is_a_format_error(self, text):
        # deep nesting once raised RecursionError, and unhashable literal keys TypeError
        with pytest.raises(FormatError):
            extract_payload(text, "cap2mol")

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=120),
            st.text(alphabet='[]{}():,"\'0a ', max_size=120),
            # nesting past the recursion limit (which Hypothesis raises while
            # a test runs), in lists, tuples, sets and objects
            st.builds(
                lambda prefix, opener, depth, core: prefix + opener * depth + core,
                st.sampled_from(["", '{"caption": ', '{"molecule": ']),
                st.sampled_from(["[", "(", "{", '{"caption": ', '{"molecule": {']),
                st.integers(min_value=1000, max_value=5000),
                st.text(alphabet='[]{}"a:1', max_size=10),
            ),
        ),
        st.sampled_from(["mol2cap", "cap2mol"]),
    )
    # the pattern fallback once let a parser ValueError out on a long bracket-atom digit run
    @example("the answer is [" + "1" * 5000 + "C]", "cap2mol")
    def test_extraction_is_total(self, text, task):
        try:
            result = extract_payload(text, task)
        except FormatError:
            return
        assert isinstance(result.value, str) and result.value

    # the same answer and strategy as the quadratic rescan in tests/oracles.py
    @settings(max_examples=1000, deadline=None)
    # an unclosed brace before a span; a "{" inside the string of a scan that never closes;
    # escaped quotes; a backslash escaping a letter
    @example('Note: { {"caption": "x"}', "mol2cap")
    @example('{ "a {"molecule": "CCO"}', "cap2mol")
    @example('{"caption": "\\"}" {"Caption": "y"}', "mol2cap")
    @example('Answer: {"caption": "a\\nb"}', "mol2cap")
    @given(
        st.lists(
            st.sampled_from(
                ["{", "}", '"', "\\", "'", ":", ",", "[", "]", " ", "\n", "\t", "\xa0", "\x0c",
                 "caption", "Caption", "molecule", "MOLECULE", "CCO", "c1ccccc1", "C(=O)O",
                 "Cl", "N#N", "x", "1", "null", '{"caption": "', '{"molecule": "', '"}',
                 "{'Caption': '", "'}"]
            ),
            max_size=40,
        ).map("".join),
        st.sampled_from(["mol2cap", "cap2mol"]),
    )
    def test_matches_rescan_oracle(self, text, task):
        try:
            result = extract_payload(text, task)
        except FormatError:
            assert extract_payload_rescan(text, task) is None
            return
        assert (result.value, result.strategy) == extract_payload_rescan(text, task)

    @pytest.mark.parametrize("reply, task, value", [
        ("{'caption': 'a \\C b'}", "mol2cap", "a \\C b"),
        ("Sure: {'Caption': 'set \\{a\\}'}", "mol2cap", "set \\{a\\}"),
    ], ids=["backslash-C", "backslash-brace"])
    def test_tolerant_json_escapes_raise_no_warning(self, reply, task, value):
        # ast.literal_eval warns on escapes Python does not define; none may reach the caller
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = extract_payload(reply, task)
        assert (result.value, result.strategy) == (value, STRATEGY_TOLERANT)
        assert [str(w.message) for w in caught] == []

    def test_tolerant_json_is_quiet_in_worker_threads(self):
        # Each call swaps the process-wide warning filters. Unserialised, one thread can
        # restore "always" while another is still compiling a reply; on a copy without
        # the lock about one round in seven let a warning through.
        results = {}

        def work(k, replies):
            results[k] = [extract_payload(r, "mol2cap").value for r in replies]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(10):
                replies = [f"{{'caption': 'x{round_}.{i} \\C'}}" for i in range(200)]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    threads = [threading.Thread(target=work, args=(k, replies))
                               for k in range(6)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                expected = [f"x{round_}.{i} \\C" for i in range(200)]
                assert all(results[k] == expected for k in range(6))
                assert [str(w.message) for w in caught] == [], round_
        finally:
            sys.setswitchinterval(interval)

    def test_unclosed_braces_are_linear(self):
        # the rescan took seconds on this reply: it restarted at each of its 2,200 open braces
        reply = '{"molecule": {' * 1100
        start = time.perf_counter()
        with pytest.raises(FormatError):
            extract_payload(reply, "cap2mol")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("k", [1, 2, 25])
    def test_pattern_parses_a_repeated_word_once(self, monkeypatch, k):
        calls = []

        def counting(text):
            calls.append(text)
            return is_valid_smiles(text)

        monkeypatch.setattr(calibration, "is_valid_smiles", counting)
        # "C1CC" is made of SMILES tokens, so only the parser can reject it
        with pytest.raises(FormatError):
            extract_payload("C1CC. " * k, "cap2mol")
        assert calls == ["C1CC"]

    # a word is skipped unparsed only when the parser would reject it: the answer and
    # strategy are those of the oracle's loop, which parses every word
    @settings(max_examples=1000, deadline=None)
    @example("Try C(C or CC) or )C(C, [C or C], then CCO.", "cap2mol")
    @example("Unknown: ClCBr, [NH4+] or C[C@@H](N)C(=O)O", "cap2mol")
    @given(
        st.lists(
            st.sampled_from(
                ["C", "c", "N", "n", "O", "S", "Cl", "Br", "l", "r", "H", "U", "x", "e",
                 "(", ")", "[", "]", "[NH4+]", "[C@@H]", "=", "#", "1", "2", "%12", "@",
                 "+", "-", "/", ".", "*", " ", "\n", "CCO", "c1ccccc1", "C(=O)O", "C(C",
                 "CC)", ")C(C", "[C", "C]", "Unknown", "is", '{"molecule": "', '"}']
            ),
            max_size=30,
        ).map("".join),
        st.sampled_from(["cap2mol", "mol2cap"]),
    )
    def test_pattern_prefilter_matches_oracle(self, text, task):
        try:
            result = extract_payload(text, task)
        except FormatError:
            assert extract_payload_rescan(text, task) is None
            return
        assert (result.value, result.strategy) == extract_payload_rescan(text, task)

    @pytest.mark.parametrize("word", ["C(C", "CC)", ")C(C", "[C", "C]", "[[C]]", "C[C",
                                      "Unknown", "for", "CCCr", "C@C", "C+",
                                      "C%", "C%1"])
    def test_prefilter_skips_words_the_parser_rejects(self, word):
        assert not calibration._may_parse(word)
        assert not is_valid_smiles(word)

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet="CNOcnoSBFIlrUHx()[]=#12%@+-.*/\\:$", max_size=12))
    def test_prefilter_is_sound(self, word):
        assert calibration._may_parse(word) or not is_valid_smiles(word)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=120))
    def test_cap2mol_pattern_soundness(self, text):
        # whatever the fallback extracts must be a valid molecule
        try:
            result = extract_payload(text, "cap2mol")
        except FormatError:
            return
        if result.strategy == STRATEGY_PATTERN:
            assert is_valid_smiles(result.value)


class TestLoop:
    def test_success_first_try(self, corpus_store):
        out = run([GOOD_CAPTION], n=2, store=corpus_store)
        assert isinstance(out, CalibratedOutput)
        assert out.query_count == 1
        assert out.final_shot_count == 2
        assert out.repairs_applied == ()

    def test_two_length_errors_then_success(self, corpus_store):
        out = run(
            ["context_length_exceeded", "context_length_exceeded", GOOD_CAPTION],
            n=5,
            store=corpus_store,
        )
        assert out.final_shot_count == 3  # n - 2 per the eviction rule
        assert out.query_count <= ALLOWANCE

    def test_perpetual_garbage_exhausts_allowance(self, corpus_store):
        client = make_client([GARBAGE])
        backend = client.backend
        with pytest.raises(CalibrationFailure) as err:
            calibrated_query(
                client,
                default_template("mol2cap"),
                "CCO",
                retrieve_mol2cap(corpus_store, "CCO", 2, RetrievalStrategy("morgan_fts"),
                                 query_fp=query_fingerprint("CCO")),
                ALLOWANCE,
            )
        assert backend.calls == ALLOWANCE
        assert err.value.last_raw_text == GARBAGE
        assert len(err.value.attempts) == 5

    @pytest.mark.parametrize(
        "script, charged",
        [(["malformed_response"], 1), ([GARBAGE, "malformed_response"], 2), ([GARBAGE], 5)],
    )
    def test_failure_carries_charged_query_count(self, corpus_store, script, charged):
        with pytest.raises(CalibrationFailure) as err:
            run(script, n=1, store=corpus_store)
        assert err.value.query_count == charged

    def test_format_error_then_success_consumes_allowance(self, corpus_store):
        out = run([GARBAGE, GOOD_CAPTION], n=1, store=corpus_store)
        assert out.query_count == 2
        assert out.final_shot_count == 1

    @pytest.mark.parametrize("finish, event", [("length", "truncated"), ("stop", "format_error")])
    def test_truncated_reply_is_its_own_event(self, tmp_path, finish, event):
        # a reply cut at the token limit was recorded as a format error
        template, query = default_template("cap2mol"), "An alcohol caption."
        reply = '{"molecule": "CC('
        fixture = tmp_path / "replay.jsonl"
        entry = {"digest": prompt_digest(build_prompt(template, query, [])),
                 "response": reply, "finish_reason": finish}
        fixture.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        client = ChatClient(ReplayBackend(fixture), max_retries=0, backoff_base=0.0)
        with pytest.raises(CalibrationFailure) as err:
            calibrated_query(client, template, query, [], ALLOWANCE)
        # each one is charged to the allowance, as a format error is
        assert err.value.query_count == ALLOWANCE
        attempt = {"event": event, "shot_count": 0, "raw_text": reply}
        assert err.value.attempts == [attempt] * ALLOWANCE

    def test_repairs_recorded(self, corpus_store):
        out = run(["Caption: something adequate"], n=1, store=corpus_store)
        assert out.repairs_applied == (STRATEGY_PATTERN,)
        strict = run([GOOD_CAPTION], n=1, store=corpus_store)
        assert strict.repairs_applied == ()

    def test_zero_shot_without_store(self):
        out = run([GOOD_CAPTION], n=0)
        assert out.final_shot_count == 0
        assert out.query_count == 1

    def test_length_error_at_zero_examples_fails(self):
        with pytest.raises(CalibrationFailure):
            run(["context_length_exceeded"], n=0)

    def test_termination_bound(self, corpus_store):
        # endless length errors: one charged query, n evictions, then failure
        n = 3
        client = make_client(["context_length_exceeded"])
        backend = client.backend
        with pytest.raises(CalibrationFailure):
            calibrated_query(
                client,
                default_template("mol2cap"),
                "CCO",
                retrieve_mol2cap(corpus_store, "CCO", n, RetrievalStrategy("morgan_fts"),
                                 query_fp=query_fingerprint("CCO")),
                ALLOWANCE,
            )
        assert backend.calls <= ALLOWANCE + n

    def test_monotone_eviction(self, corpus_store):
        # the shot count of the prompts sent never increases
        client = make_client(
            ["context_length_exceeded", GARBAGE, "context_length_exceeded", GOOD_CAPTION])
        shots = []
        send = client.backend.send
        client.backend.send = lambda prompt: shots.append(prompt.example_count) or send(prompt)
        examples = retrieve_mol2cap(corpus_store, "CCO", 4, RetrievalStrategy("morgan_fts"),
                                    query_fp=query_fingerprint("CCO"))
        out = calibrated_query(client, default_template("mol2cap"), "CCO", examples, ALLOWANCE)
        assert shots == [4, 3, 3, 2]
        assert out.final_shot_count == 2

    def test_auth_error_propagates(self, corpus_store):
        with pytest.raises(BackendError) as err:
            run(["auth"], n=1, store=corpus_store)
        assert err.value.kind == "auth"

    def test_server_exhaustion_is_item_failure(self, corpus_store):
        # an exhausted transport error ends the run as auth does; only a malformed
        # reply is still the item's own failure
        for kind in ("rate_limited", "network", "server"):
            client = make_client([kind])
            with pytest.raises(BackendError) as err:
                calibrated_query(client, default_template("mol2cap"), "CCO", [], ALLOWANCE)
            assert err.value.kind == kind
            assert client.backend.calls == client.max_retries + 1
        with pytest.raises(CalibrationFailure):
            run(["malformed_response"], n=1, store=corpus_store)
