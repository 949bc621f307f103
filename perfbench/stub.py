"""Loopback chat-completions stub: the "retrieval-copy" backend.

It answers every prompt with the top-1 context example's output, wrapped as
the JSON object the template asks for, so the whole pipeline (calibration
included) runs with no model and no network. A fixed mix of misbehaviour is
laid on top. Each query falls in one class by a hash of its text; the class
boundaries are set from the hashes of the queries the benchmark will send, so
every class holds its share of them (rounded up to whole queries) and every
run makes identical calls:

==============  =====  ==================================================
class           share  reply
==============  =====  ==================================================
chatty          10%    JSON embedded in prose or a code fence
loose           5%     single-quoted dict, or a bare ``Caption:`` line
garbage_once    3%     unextractable text on the first call per prompt
rate_once       2%     HTTP 429 on the first call per prompt
garbage         1%     unextractable text on every call
plain           rest   strict JSON
==============  =====  ==================================================

Independently of the class, a prompt longer than ``CONTEXT_BUDGET`` characters
gets HTTP 400 ``context_length_exceeded``, which makes the program evict
examples. Zero-shot prompts carry no example to copy; they get a fixed
answer per task.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CONTEXT_BUDGET = 5200
CLASS_SHARES = (("chatty", 0.10), ("loose", 0.05), ("garbage_once", 0.03),
                ("rate_once", 0.02), ("garbage", 0.01))
GARBAGE = "?? ~~ ?? ;; !!"
ZERO_SHOT_ANSWER = {"caption": "The molecule is a chemical entity.", "molecule": "C"}

_OUTPUT_LINE = re.compile(r"^Output: (\{.*\})\s*$", re.MULTILINE)
_INPUT_LINE = re.compile(r"^Input: (.*?)\s*$", re.MULTILINE)
_USER_LABEL = re.compile(r"^\s*Input:\s*")


def query_hash(query: str) -> float:
    digest = hashlib.sha256(query.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def query_of(user_text: str) -> str:
    return _USER_LABEL.sub("", user_text, count=1).strip()


def parse_examples(system_text: str) -> tuple[str, list[tuple[str, str]]]:
    """(answer key, [(input, output), ...]) of the examples block, in prompt order."""
    block = system_text.split("## examples", 1)[-1].split("## output_instruction", 1)[0]
    outputs = [json.loads(m) for m in _OUTPUT_LINE.findall(block)]
    inputs = _INPUT_LINE.findall(block)
    if not outputs or len(inputs) != len(outputs):
        raise ValueError("examples block does not have the expected Input/Output layout")
    (key,) = outputs[0]
    pairs = [(inp, out[key]) for inp, out in zip(inputs, outputs)]
    if pairs[0][1] in ("[CAPTION_MASK]", "[MOLECULE_MASK]"):
        pairs = []
    return key, pairs


class Stub:
    """Owns the HTTP server thread; ``with Stub() as stub`` starts and stops it."""

    def __init__(self) -> None:
        self.boundaries: list[float] = []
        # prompts for these queries are logged for the output checks
        self.watch: set[str] = set()
        self.lock = threading.Lock()
        self.reset()
        handler = type("Handler", (_Handler,), {"stub": self})
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat/completions"

    def __enter__(self) -> "Stub":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def plan(self, queries) -> None:
        """Fix class boundaries so each class holds its share of ``queries``, rounded up."""
        hashes = sorted(query_hash(q) for q in set(queries))
        bounds, taken = [], 0
        for _, share in CLASS_SHARES:
            taken += math.ceil(share * len(hashes))
            bounds.append(hashes[taken] if taken < len(hashes) else 1.0)
        self.boundaries = bounds

    def reset(self) -> None:
        """Forget per-prompt state and logs, so the next command sees a fresh backend."""
        with self.lock:
            self.seen: set[str] = set()
            self.log: dict[str, list[list[tuple[str, str]]]] = {}
            self.retrying: set[str] = set()
            self.by_status: dict[int, int] = {}

    def classify(self, query: str) -> str:
        if not self.boundaries:
            return "plain"
        idx = bisect.bisect_right(self.boundaries, query_hash(query))
        return CLASS_SHARES[idx][0] if idx < len(CLASS_SHARES) else "plain"

    def answer(self, system_text: str, user_text: str) -> tuple[int, dict]:
        query = query_of(user_text)
        key, pairs = parse_examples(system_text)
        prompt_id = hashlib.sha256((system_text + "\x1f" + user_text).encode()).hexdigest()
        with self.lock:
            first_call = prompt_id not in self.seen
            self.seen.add(prompt_id)
            # The call after a scripted failure retries the same item and cell,
            # so the log holds one prompt per item and cell.
            retry = query in self.retrying
            self.retrying.discard(query)
            if query in self.watch and not retry:
                self.log.setdefault(query, []).append(pairs)
        status, payload = self._reply(query, key, pairs, first_call,
                                      len(system_text) + len(user_text))
        if status != 200 or payload["choices"][0]["message"]["content"] == GARBAGE:
            with self.lock:
                self.retrying.add(query)
        return status, payload

    def _reply(self, query: str, key: str, pairs, first_call: bool,
               length: int) -> tuple[int, dict]:
        if length > CONTEXT_BUDGET:
            return 400, {"error": {"code": "context_length_exceeded",
                                   "message": "This model's maximum context length is exceeded"}}
        kind = self.classify(query)
        if kind == "rate_once" and first_call:
            return 429, {"error": {"code": "rate_limit_exceeded", "message": "slow down"}}
        if kind == "garbage" or (kind == "garbage_once" and first_call):
            return 200, _completion(GARBAGE)
        value = pairs[0][1] if pairs else ZERO_SHOT_ANSWER[key]
        strict = json.dumps({key: value}, ensure_ascii=False)
        if kind == "chatty":
            if query_hash(query + "#") < 0.5:
                return 200, _completion(f"Sure! Here is the answer:\n{strict}\nHope this helps.")
            return 200, _completion(f"```json\n{strict}\n```")
        if kind == "loose":
            if key == "caption" and query_hash(query + "#") < 0.5:
                return 200, _completion(f"Caption: {value}")
            return 200, _completion("{'%s': '%s'}" % (key, value))
        return 200, _completion(strict)


def _completion(text: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text},
                         "finish_reason": "stop"}]}


class _Handler(BaseHTTPRequestHandler):
    stub: Stub

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length))
            system_text = body["messages"][0]["content"]
            user_text = body["messages"][1]["content"]
            status, payload = self.stub.answer(system_text, user_text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            status, payload = 422, {"error": {"code": "stub_error", "message": str(exc)}}
        with self.stub.lock:
            self.stub.by_status[status] = self.stub.by_status.get(status, 0) + 1
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:  # noqa: A002 (signature is fixed)
        pass
