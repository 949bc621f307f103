"""Run ``load_chebi_tsv`` once in a fresh interpreter and print what it did.

    python tests/reader_probe.py TSV [--limit N] [--thread] [--cpus N]
        [--raise-on SMILES] [--exit-on SMILES] [--memory]

A fresh interpreter runs no thread that a test runner may have started, so the
reader takes its worker path whenever the file and the CPUs allow it.
``--thread`` keeps a second thread alive during the read, ``--cpus`` sets the
number of CPUs the reader sees the process may use, ``--raise-on`` makes parsing that SMILES raise a
``RuntimeError`` and ``--exit-on`` makes the process parsing it end at once.
``--memory`` traces the allocations of this process during the read and a
``build_store`` over its result; the modules of the worker path are imported
before, so that their one-off size does not count.

The one JSON line printed holds the result (or the exception's type and
message), the ids of the processes that parsed SMILES, how many times the
process forked, whether ``multiprocessing`` had been imported, and the child
processes left after the read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from molrag import store  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("tsv")
    parser.add_argument("--limit", type=int)
    parser.add_argument("--thread", action="store_true")
    parser.add_argument("--cpus", type=int)
    parser.add_argument("--raise-on")
    parser.add_argument("--exit-on")
    parser.add_argument("--memory", action="store_true")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = probe(args, Path(tmp) / "parse-pids")
    import multiprocessing

    out["live_children"] = len(multiprocessing.active_children())
    try:
        os.waitpid(-1, os.WNOHANG)  # reaps an ended child, if there is one
        out["any_child"] = True
    except ChildProcessError:  # no child process at all, running or ended
        out["any_child"] = False
    print(json.dumps(out))


def probe(args, pid_file: Path) -> dict:
    forks = []
    os.register_at_fork(before=lambda: forks.append(1))
    if args.cpus:
        store._usable_cpus = lambda: args.cpus
    parse = store.parse_smiles

    def recorded(text):
        with open(pid_file, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if text == args.raise_on:
            raise RuntimeError(f"cannot parse {text}")
        if text == args.exit_on:
            os._exit(3)
        return parse(text)

    store.parse_smiles = recorded
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    if args.thread:
        helper.start()
    out: dict = {}
    try:
        if args.memory:
            import concurrent.futures.process  # noqa: F401

            tracemalloc.start()
        records, fingerprints, report = store.load_chebi_tsv(args.tsv, args.limit)
        if args.memory:
            store.build_store(records, fingerprints)
            out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        out["records"] = [[rec.id, rec.smiles, rec.caption] for rec in records]
        out["bitmaps"] = [hex(fp.bitmap) for fp in fingerprints]
        out["total_rows"] = report.total_rows
        out["quarantined"] = [[q.line_number, q.reason] for q in report.quarantined]
    except Exception as exc:  # reported for the test to check
        out["error"] = [type(exc).__name__, str(exc)]
    finally:
        release.set()
        if args.thread:
            helper.join()
    out["multiprocessing_imported"] = "multiprocessing" in sys.modules
    out["forks"] = len(forks)
    out["pid"] = os.getpid()
    pids = pid_file.read_text(encoding="utf-8").split() if pid_file.exists() else []
    out["parse_pids"] = sorted(set(map(int, pids)))
    out["threads"] = threading.active_count()
    return out


if __name__ == "__main__":
    main()
