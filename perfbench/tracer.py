"""Run the molrag CLI with every public molrag function wrapped in a span.

Usage: ``python3 perfbench/tracer.py SPANS.jsonl <molrag arguments...>``

Wrapping happens from outside the program: each public function (and each
public method of a public class) of every molrag module is replaced at every
binding site - the defining module, every module that imported it by name,
and module-level dicts that hold it - so ``from x import y`` callers are
traced too. Spans (name, start, end, parent, item, note, error) stay in memory
and are written once, when the command ends.

The parent of a span is the innermost open span of its thread; a thread with
no open span (a worker of the evaluation pool) inherits the innermost open
span of the main thread. The item of a span is the enclosing
``calibration.calibrated_query`` span.

A few leaf functions run once per atom or once per candidate record. They get
a call counter per binding site instead of a span, because a timer per call
would cost more than the work.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time

COUNT_ONLY = {
    "fingerprint.dice_similarity",
    "fingerprint.fnv1a_64",
    "smiles.atom_invariant",
    "smiles.computed_valence",
}
# Modules whose classes hold data, not work; their methods are tiny and hot.
SKIP_CLASS_MODULES = {"molrag.smiles.model"}


def _layer(module_name: str) -> str:
    return module_name.split(".")[1]


def _top_n_note(args, kwargs, result):
    index, query = args[0], args[1]
    n = args[2] if len(args) > 2 else kwargs.get("n")
    try:
        postings = sum(len(index.postings.get(t) or ()) for t in set(index.tokenize_query(query)))
    except (AttributeError, TypeError):
        postings = None
    return {"n": n, "postings": postings}


def _retrieve_note(args, kwargs, result):
    strategy = args[3] if len(args) > 3 else kwargs.get("strategy")
    return {"kind": getattr(strategy, "kind", None), "returned": len(result)}


NOTES = {
    "bm25.top_n": _top_n_note,
    "store.retrieve_mol2cap": _retrieve_note,
    "store.retrieve_cap2mol": _retrieve_note,
    "prompt.build_prompt": lambda a, k, r: {"tokens": getattr(r, "token_estimate", None)},
    "calibration.extract_payload": lambda a, k, r: {"strategy": getattr(r, "strategy", None)},
    "llm.ChatClient.complete": lambda a, k, r: {"attempts": getattr(r, "attempt_count", None)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, itertools.count] = {}
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.main_stack: list[tuple[int, int]] = []
        self.local.stack = self.main_stack
        self.local.quiet = False

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def span_wrapper(self, name: str, func):
        note = NOTES.get(name)
        is_item = name == "calibration.calibrated_query"
        spans, ids, clock = self.spans, self.ids, time.perf_counter

        def wrapper(*args, **kwargs):
            if getattr(self.local, "quiet", False):
                return func(*args, **kwargs)
            stack = self._stack()
            outer = stack[-1] if stack else (self.main_stack[-1] if self.main_stack else (0, 0))
            span_id = next(ids)
            item = span_id if is_item else outer[1]
            stack.append((span_id, item))
            error = None
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = getattr(exc, "kind", None) or type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                extra = None
                if note and error is None:
                    # notes may call traced functions; those calls are not the program's
                    self.local.quiet = True
                    try:
                        extra = note(args, kwargs, result)
                    finally:
                        self.local.quiet = False
                spans.append((span_id, name, start, end, outer[0], item, error, extra))

        wrapper.__wrapped__ = func
        return wrapper

    def count_wrapper(self, name: str, func):
        counter = self.counts.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap every public molrag function at every binding site."""
        import molrag

        modules = [molrag] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(molrag.__path__, "molrag.")
        ]
        originals: dict[int, tuple[str, object]] = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    originals[id(value)] = (f"{_layer(mod.__name__)}.{attr}", value)
                elif inspect.isclass(value) and mod.__name__ not in SKIP_CLASS_MODULES:
                    self._wrap_methods(value, f"{_layer(mod.__name__)}.{attr}")

        shared = {
            key: self.span_wrapper(name, func)
            for key, (name, func) in originals.items()
            if name not in COUNT_ONLY
        }
        for mod in modules:
            site = _layer(mod.__name__) if mod is not molrag else "molrag"
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, self._replacement(value, originals, shared, site))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            value[key] = self._replacement(item, originals, shared, site)

    def _replacement(self, value, originals, shared, site):
        name, func = originals[id(value)]
        if id(value) in shared:
            return shared[id(value)]
        return self.count_wrapper(f"{name}@{site}", func)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.span_wrapper(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.span_wrapper(name, raw))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": {k: next(c) for k, c in self.counts.items()}}) + "\n")


def main(argv: list[str]) -> None:
    spans_path, molrag_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from molrag import cli

    try:
        cli.main(args=molrag_args, prog_name="molrag")
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
