"""Output validation and repair: format checking, correction, re-querying.

Model responses are run through an ordered list of correction strategies,
strictest first. When none fires, the item is re-queried with the identical
prompt until the error allowance runs out. Context-length errors are the
special case: the longest context example is evicted and the re-query does
not consume allowance (shot counts only ever shrink, so at most ``n`` such
free passes exist per item).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field

from molrag.llm import BackendError, ChatClient
from molrag.prompt import PromptTemplate, build_prompt, drop_longest_example
from molrag.smiles import is_valid_smiles
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

DEFAULT_STRATEGIES = (
    STRATEGY_STRICT,
    STRATEGY_EMBEDDED,
    STRATEGY_TOLERANT,
    STRATEGY_PATTERN,
)

# Characters that may appear in a SMILES string; used by the pattern fallback.
_SMILES_CHARS = re.compile(r"[A-Za-z0-9@+\-\[\]\(\)=#$%/\\.:*]+")
_CAPTION_LABEL = re.compile(r"caption\W{0,3}[:=]\s*(.+?)\s*(?:$|\n)", re.IGNORECASE)


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
class CalibrationPolicy:
    max_error_allowance: int = 5
    correction_strategies: tuple[str, ...] = DEFAULT_STRATEGIES

    def __post_init__(self) -> None:
        if self.max_error_allowance < 1:
            raise ValueError("max_error_allowance must be positive")
        if not self.correction_strategies:
            raise ValueError("at least one correction strategy must be enabled")
        for name in self.correction_strategies:
            if name not in DEFAULT_STRATEGIES:
                raise ValueError(f"unknown correction strategy {name!r}")


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
    transcript: tuple[dict, ...] = field(default=())
    # ids of the context examples as retrieved, before any context-length eviction
    example_ids: tuple[str, ...] = ()


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
    """Every balanced {...} span in appearance order, string-aware."""
    spans = []
    i, n = 0, len(text)
    while i < n:
        if text[i] != "{":
            i += 1
            continue
        depth = 0
        in_string = False
        escaped = False
        for j in range(i, n):
            ch = text[j]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    spans.append(text[i : j + 1])
                    i = j
                    break
        i += 1
    return spans


def _try_strict(text: str, key: str) -> str | None:
    try:
        return _value_from_mapping(json.loads(text), key)
    except (ValueError, RecursionError):
        return None


def _try_embedded(text: str, key: str) -> str | None:
    for span in _balanced_objects(text):
        try:
            value = _value_from_mapping(json.loads(span), key)
        except (ValueError, RecursionError):
            continue
        if value is not None:
            return value
    return None


def _try_tolerant(text: str, key: str) -> str | None:
    candidates = [text.strip()] + _balanced_objects(text)
    for span in candidates:
        for loader in (json.loads, ast.literal_eval):
            try:
                obj = loader(span)
            # the exceptions ast.literal_eval documents for malformed input
            except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
                continue
            value = _value_from_mapping(obj, key, case_insensitive=True)
            if value is not None:
                return value
    return None


def _try_pattern(text: str, output_field: str) -> str | None:
    if output_field == "smiles":
        candidates = sorted(_SMILES_CHARS.findall(text), key=len, reverse=True)
        for cand in candidates:
            stripped = cand.strip(".")
            if stripped and is_valid_smiles(stripped):
                return stripped
        return None
    match = _CAPTION_LABEL.search(text)
    if match:
        value = match.group(1).strip().strip('"`“”').strip()
        if value:
            return value
    return None


_STRATEGY_FUNCS = {
    STRATEGY_STRICT: lambda text, spec: _try_strict(text, spec.answer_key),
    STRATEGY_EMBEDDED: lambda text, spec: _try_embedded(text, spec.answer_key),
    STRATEGY_TOLERANT: lambda text, spec: _try_tolerant(text, spec.answer_key),
    STRATEGY_PATTERN: lambda text, spec: _try_pattern(text, spec.output_field),
}


def _task_spec(task: str) -> TaskSpec:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    return TASKS[task]


def extract_payload(
    raw_text: str, task: str, strategies: tuple[str, ...] = DEFAULT_STRATEGIES
) -> ExtractionResult:
    """Apply correction strategies in order; return the value and which fired.

    A pure function of its inputs. Raises :class:`FormatError` when every
    strategy fails.
    """
    spec = _task_spec(task)
    for name in strategies:
        value = _STRATEGY_FUNCS[name](raw_text, spec)
        if value is not None:
            return ExtractionResult(value=value, strategy=name)
    raise FormatError(f"no strategy extracted a {spec.answer_key!r} value", raw_text)


def calibrated_query(
    client: ChatClient,
    store: Store | None,
    template: PromptTemplate,
    query: str,
    n: int,
    policy: CalibrationPolicy,
    task: str,
    strategy: RetrievalStrategy | None = None,
) -> CalibratedOutput:
    """Run the full validate-repair-requery loop for one item.

    ``query_count`` counts allowance-charged queries; re-queries forced by a
    context-length error are exempt (and bounded by the initial shot count),
    so the loop makes at most ``max_error_allowance + n`` backend calls.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _task_spec(task)
    if n > 0:
        if store is None or strategy is None:
            raise ValueError("n > 0 requires a store and a retrieval strategy")
        retrieve = retrieve_mol2cap if task == "mol2cap" else retrieve_cap2mol
        examples: list[MoleculeRecord] = retrieve(store, query, n, strategy)
    else:
        examples = []
    example_ids = tuple(rec.id for rec in examples)

    transcript: list[dict] = []
    charged = 0
    exempt_next = False
    last_raw = ""

    while True:
        if not exempt_next:
            if charged >= policy.max_error_allowance:
                raise CalibrationFailure(
                    f"error allowance ({policy.max_error_allowance}) exhausted",
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
            extraction = extract_payload(result.raw_text, task, policy.correction_strategies)
        except FormatError:
            transcript.append(
                {
                    "event": "format_error",
                    "shot_count": len(examples),
                    "raw_text": result.raw_text,
                }
            )
            continue

        transcript.append(
            {
                "event": "accepted",
                "strategy": extraction.strategy,
                "shot_count": len(examples),
            }
        )
        repairs = () if extraction.strategy == STRATEGY_STRICT else (extraction.strategy,)
        return CalibratedOutput(
            value=extraction.value,
            query_count=charged,
            repairs_applied=repairs,
            final_shot_count=len(examples),
            transcript=tuple(transcript),
            example_ids=example_ids,
        )
