"""Output validation and repair: format checking, correction, re-querying.

An item is ranked first (:func:`rank_examples`), then prompted with those
examples until a reply validates (:func:`calibrated_query`). Model responses
are run through an ordered list of correction strategies, strictest first.
When none fires, the item is re-queried with the identical prompt until the
error allowance runs out. Context-length errors are the special case: the
longest context example is evicted and the re-query does not consume
allowance (shot counts only ever shrink, so at most one such free pass per
example exists per item).
"""

from __future__ import annotations

import ast
import json
import re
import threading
import warnings
from dataclasses import dataclass

from molrag.fingerprint import MorganFingerprint
from molrag.llm import BackendError, ChatClient
from molrag.prompt import PromptTemplate, build_prompt, drop_longest_example
from molrag.smiles import TOKEN_RUN, branches_nest, is_valid_smiles
from molrag.store import (
    TASKS,
    MoleculeRecord,
    RetrievalStrategy,
    Store,
    TaskSpec,
    retrieve_cap2mol,
    retrieve_mol2cap,
)

STRATEGY_STRICT = "strict_json"
STRATEGY_EMBEDDED = "embedded_json"
STRATEGY_TOLERANT = "tolerant_json"
STRATEGY_PATTERN = "pattern_fallback"

# Characters that may appear in a SMILES string; used by the pattern fallback.
_SMILES_CHARS = re.compile(r"[A-Za-z0-9@+\-\[\]\(\)=#$%/\\.:*]+")
_CAPTION_LABEL = re.compile(r"caption\W{0,3}[:=]\s*(.+?)\s*(?:$|\n)", re.IGNORECASE)
# The characters that move a brace scan; the text between them leaves its state as it is.
_SCAN_MARKS = re.compile(r'["\\{}]')


class FormatError(Exception):
    """All correction strategies failed; carries the raw text for logging."""

    def __init__(self, message: str, raw_text: str) -> None:
        super().__init__(message)
        self.raw_text = raw_text


class CalibrationFailure(Exception):
    """Error allowance exhausted (or examples could not shrink any further)."""

    def __init__(
        self, message: str, attempts: list[dict], last_raw_text: str, query_count: int
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_raw_text = last_raw_text
        # allowance-charged queries made before giving up
        self.query_count = query_count


@dataclass(frozen=True)
class ExtractionResult:
    value: str
    strategy: str


@dataclass(frozen=True)
class CalibratedOutput:
    value: str
    query_count: int
    repairs_applied: tuple[str, ...]
    final_shot_count: int


def _value_from_mapping(obj, key: str, case_insensitive: bool = False) -> str | None:
    if not isinstance(obj, dict):
        return None
    if key in obj and isinstance(obj[key], str) and obj[key].strip():
        return obj[key].strip()
    if case_insensitive:
        for k, v in obj.items():
            if isinstance(k, str) and k.lower() == key and isinstance(v, str) and v.strip():
                return v.strip()
    return None


def _balanced_objects(text: str) -> list[str]:
    """The balanced {...} spans of a string-aware brace scan, in appearance order.

    A scan starts, outside any string, at the first "{" and ends at the "}"
    that closes it; the next scan starts at the first "{" after that span,
    or after the start of a scan that never closed. One right-to-left pass
    over the quotes, backslashes and braces records where a scan entering
    each of them outside a string would close, so each start is looked up in
    O(1) and the whole search is linear in the length of the text.
    """
    marks = [m.start() for m in _SCAN_MARKS.finditer(text)]
    n = len(marks)
    # close[k]: the mark at which a scan entering mark k outside a string meets one "}"
    # more than it met "{", or None; in_string and after_backslash: the same for a scan
    # entering mark k + 1 inside a string, and just after a backslash inside one
    close: list[int | None] = [None] * (n + 1)
    in_string = after_backslash = None
    for k in range(n - 1, -1, -1):
        ch, out = text[marks[k]], close[k + 1]
        if ch == '"':
            close[k], string_k = in_string, out
        elif ch == "\\":
            # inside a string a backslash escapes the next character, a mark or not
            escapes_mark = k + 1 < n and marks[k + 1] == marks[k] + 1
            close[k], string_k = out, after_backslash if escapes_mark else in_string
        elif ch == "}":
            close[k], string_k = k, in_string
        else:  # "{"
            close[k], string_k = (None if out is None else close[out + 1]), in_string
        in_string, after_backslash = string_k, in_string
    spans = []
    k = 0
    while k < n:
        end = close[k + 1] if text[marks[k]] == "{" else None
        if end is None:
            k += 1
        else:
            spans.append(text[marks[k] : marks[end] + 1])
            k = end + 1
    return spans


def _decoded(loader, text: str):
    """``loader(text)``, or None when the text is not a literal the loader reads."""
    try:
        return loader(text)
    # the exceptions ast.literal_eval documents for malformed input, and deep nesting
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return None


# catch_warnings swaps the process-wide warning filters; worker threads take turns at it
_QUIET_LOCK = threading.Lock()


def _literal_eval_quiet(text: str):
    """``ast.literal_eval`` without the warnings its compile step raises for escapes
    Python does not define, such as ``'\\C'`` (one per reply on Python 3.12)."""
    with _QUIET_LOCK, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ast.literal_eval(text)


def _may_parse(word: str) -> bool:
    """False for a word the SMILES parser is sure to reject: one that is not a run of
    its tokens, such as "Unknown" or "C]", or whose branches do not nest."""
    return TOKEN_RUN.fullmatch(word) is not None and branches_nest(word)


def _try_pattern(text: str, output_field: str) -> str | None:
    if output_field == "smiles":
        candidates = sorted(_SMILES_CHARS.findall(text), key=len, reverse=True)
        # a word the reply repeats is parsed once; the first valid candidate is the same
        for stripped in dict.fromkeys(cand.strip(".") for cand in candidates):
            if stripped and _may_parse(stripped) and is_valid_smiles(stripped):
                return stripped
        return None
    match = _CAPTION_LABEL.search(text)
    if match:
        value = match.group(1).strip().strip('"`“”').strip()
        if value:
            return value
    return None


def _task_spec(task: str) -> TaskSpec:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    return TASKS[task]


def extract_payload(raw_text: str, task: str) -> ExtractionResult:
    """The answer in a model reply and the strategy that found it.

    Strategies, strictest first: the whole reply is JSON holding the answer
    key (``strict_json``); a balanced {...} span is (``embedded_json``); the
    reply or a span holds the key in any letter case, as JSON or as a Python
    literal (``tolerant_json``); a caption label or the longest valid SMILES
    (``pattern_fallback``). Each candidate is JSON-decoded once. A pure
    function of its inputs; raises :class:`FormatError` when every strategy
    fails.
    """
    spec = _task_spec(task)
    key = spec.answer_key
    text = raw_text.strip()
    whole = _decoded(json.loads, text)
    # json.loads skips only JSON whitespace, so the raw reply is JSON exactly when this holds
    if raw_text.strip(" \t\n\r") == text:
        value = _value_from_mapping(whole, key)
        if value is not None:
            return ExtractionResult(value=value, strategy=STRATEGY_STRICT)
    spans = _balanced_objects(raw_text)
    objects = [_decoded(json.loads, span) for span in spans]
    for obj in objects:
        value = _value_from_mapping(obj, key)
        if value is not None:
            return ExtractionResult(value=value, strategy=STRATEGY_EMBEDDED)
    for candidate, obj in zip([text, *spans], [whole, *objects]):
        value = _value_from_mapping(obj, key, case_insensitive=True)
        if value is None:
            value = _value_from_mapping(
                _decoded(_literal_eval_quiet, candidate), key, case_insensitive=True
            )
        if value is not None:
            return ExtractionResult(value=value, strategy=STRATEGY_TOLERANT)
    value = _try_pattern(raw_text, spec.output_field)
    if value is not None:
        return ExtractionResult(value=value, strategy=STRATEGY_PATTERN)
    raise FormatError(f"no strategy extracted a {spec.answer_key!r} value", raw_text)


def rank_examples(
    store: Store, task: str, query: str, n: int, strategy: RetrievalStrategy, *,
    query_fp: MorganFingerprint | None,
) -> list[MoleculeRecord]:
    """The n context examples an item of ``task`` is prompted with, best first;
    none, and no store lookup, when n is 0. ``query_fp`` is the fingerprint of a
    mol2cap query, as :func:`~molrag.store.retrieve_mol2cap` takes it; a cap2mol
    ranking does not read it, so a cap2mol caller may pass None."""
    if n == 0:
        return []
    if task == "mol2cap":
        return retrieve_mol2cap(store, query, n, strategy, query_fp=query_fp)
    return retrieve_cap2mol(store, query, n, strategy)


def calibrated_query(
    client: ChatClient,
    template: PromptTemplate,
    query: str,
    examples: list[MoleculeRecord],
    max_error_allowance: int,
) -> CalibratedOutput:
    """Run the full validate-repair-requery loop for one item of ``template.task``,
    prompted with ``examples`` as ranked.

    ``query_count`` counts allowance-charged queries; re-queries forced by a
    context-length error are exempt (and bounded by the number of examples),
    so the loop makes at most ``max_error_allowance + len(examples)`` backend
    calls.
    """
    if max_error_allowance < 1:
        raise ValueError("max_error_allowance must be positive")
    task = template.task
    transcript: list[dict] = []
    charged = 0
    exempt_next = False
    last_raw = ""

    while True:
        if not exempt_next:
            if charged >= max_error_allowance:
                raise CalibrationFailure(
                    f"error allowance ({max_error_allowance}) exhausted",
                    transcript,
                    last_raw,
                    charged,
                )
            charged += 1
        exempt_next = False

        chat_prompt = build_prompt(template, query, examples)
        try:
            result = client.complete(chat_prompt)
        except BackendError as err:
            transcript.append(
                {"event": "backend_error", "kind": err.kind, "shot_count": len(examples)}
            )
            if err.kind == "context_length_exceeded":
                if not examples:
                    raise CalibrationFailure(
                        "prompt exceeds the length limit even with zero examples",
                        transcript,
                        last_raw,
                        charged,
                    ) from err
                examples = drop_longest_example(template, examples)
                exempt_next = True
                continue
            if err.kind == "auth":
                raise
            raise CalibrationFailure(
                f"backend failed ({err.kind})", transcript, last_raw, charged
            ) from err

        last_raw = result.raw_text
        try:
            extraction = extract_payload(result.raw_text, task)
        except FormatError:
            # a reply cut at the token limit failed for its length, not its format
            event = "truncated" if result.finish_reason == "length" else "format_error"
            transcript.append(
                {"event": event, "shot_count": len(examples), "raw_text": result.raw_text}
            )
            continue

        repairs = () if extraction.strategy == STRATEGY_STRICT else (extraction.strategy,)
        return CalibratedOutput(
            value=extraction.value,
            query_count=charged,
            repairs_applied=repairs,
            final_shot_count=len(examples),
        )
