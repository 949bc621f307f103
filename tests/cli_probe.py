"""Run one ``molrag`` command once in a fresh interpreter and print what it did.

    python tests/cli_probe.py [--cpus N] [--block N] [--echo] [--auth-after K]
        [--exit-on QUERY] [--meet N] [--rank-delay S] -- MOLRAG ARGUMENTS...

A fresh interpreter runs no thread that a test runner may have started, so an
``evaluate`` or ``ablate`` ranks its items in forked workers whenever the items
and the CPUs allow it. ``--cpus`` sets the number of CPUs the command sees the
process may use and ``--block`` the items per ranking block. ``--echo`` answers
every prompt from a backend that needs no fixture: its reply is a digest of the
prompt, so it changes with the examples ranked; with ``--auth-after`` that
backend raises an ``auth`` error from its K+1st call on. ``--exit-on`` makes the
process that ranks that query end at once. With ``--meet`` the first ranking of
each forked worker waits, for at most ``MEET_TIMEOUT`` seconds, until N processes
have begun ranking: a worker that starts late then still finds a block queued,
which the worker that started first would otherwise have taken. ``--rank-delay``
makes each ranking take S seconds longer, so that the ranking keeps pace with the
sends instead of running far ahead of them.

The one JSON line printed holds the exit code and output of the command, each
ranking as ``[pid, strategy kind, query]``, the calls the ``--echo`` backend took,
the id of this process, how many times it forked, whether ``multiprocessing`` had been imported, and the threads
and child processes left after the command.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import signal
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from molrag import cli, store  # noqa: E402
from molrag.llm import BackendError, ChatClient, prompt_digest  # noqa: E402
from cli_runner import invoke  # noqa: E402

MEET_TIMEOUT = 10.0
SENDS: list[int] = []  # one entry per call any EchoBackend took


class EchoBackend:
    """Answers each prompt with a value made from its digest; from the call after
    ``auth_after`` calls on, raises an ``auth`` error."""

    def __init__(self, task: str, auth_after: int | None) -> None:
        self.task, self.auth_after = task, auth_after
        self.calls = 0
        self._lock = threading.Lock()

    def send(self, prompt) -> tuple[str, str]:
        with self._lock:
            self.calls += 1
            SENDS.append(1)
            if self.auth_after is not None and self.calls > self.auth_after:
                raise BackendError("auth", "scripted auth")
        digest = prompt_digest(prompt)
        if self.task == "mol2cap":
            return json.dumps({"caption": f"The molecule is {digest}."}), "stop"
        return json.dumps({"molecule": "C" * (1 + int(digest[:8], 16) % 9)}), "stop"


def main() -> None:
    # SIGUSR1 writes every thread's stack to stderr: a probe that hangs says where. The
    # handler starts no thread, so the command still forks its workers.
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpus", type=int)
    parser.add_argument("--block", type=int)
    parser.add_argument("--echo", action="store_true")
    parser.add_argument("--auth-after", type=int)
    parser.add_argument("--exit-on")
    parser.add_argument("--meet", type=int)
    parser.add_argument("--rank-delay", type=float)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    with tempfile.TemporaryDirectory() as tmp:
        out = probe(args, argv, Path(tmp) / "rankings")
    out["multiprocessing_imported"] = "multiprocessing" in sys.modules
    import multiprocessing

    out["live_children"] = len(multiprocessing.active_children())
    try:
        os.waitpid(-1, os.WNOHANG)  # reaps an ended child, if there is one
        out["any_child"] = True
    except ChildProcessError:  # no child process at all, running or ended
        out["any_child"] = False
    print(json.dumps(out))


def ranking_pids(rank_file: Path) -> set[int]:
    """The processes with a whole line in ``rank_file``, which several append to."""
    text = rank_file.read_text(encoding="utf-8") if rank_file.exists() else ""
    return {json.loads(line)[0] for line in text.split("\n")[:-1]}


def meet(rank_file: Path, count: int) -> None:
    """Wait until ``count`` processes have begun ranking, or ``MEET_TIMEOUT`` seconds."""
    deadline = time.monotonic() + MEET_TIMEOUT
    while len(ranking_pids(rank_file)) < count and time.monotonic() < deadline:
        time.sleep(0.005)


def probe(args, argv: list[str], rank_file: Path) -> dict:
    forks = []
    here, waited = os.getpid(), []
    os.register_at_fork(before=lambda: forks.append(1))
    if args.cpus:
        store._usable_cpus = lambda: args.cpus
    if args.block:
        store.RANK_BLOCK = args.block
    if args.echo:
        cli._make_client = lambda config: nullcontext(ChatClient(
            EchoBackend(config.task, args.auth_after), max_retries=0, backoff_base=0.0))
    ranked_positions = store.ranked_positions

    def recorded(db, task, query, n, strategy, **kwargs):
        with open(rank_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), strategy.kind, query]) + "\n")
        if query == args.exit_on:
            os._exit(3)
        if args.meet and os.getpid() != here and not waited:
            waited.append(1)  # a forked worker holds its own copy
            meet(rank_file, args.meet)
        if args.rank_delay:
            time.sleep(args.rank_delay)
        return ranked_positions(db, task, query, n, strategy, **kwargs)

    store.ranked_positions = recorded
    result = invoke(argv)
    lines = rank_file.read_text(encoding="utf-8").splitlines() if rank_file.exists() else []
    return {
        "exit_code": result.exit_code,
        "output": result.output,
        "traceback": not isinstance(result.exception, (SystemExit, type(None))),
        "rankings": [json.loads(line) for line in lines],
        "sends": len(SENDS),
        "pid": os.getpid(),
        "forks": len(forks),
        "threads": threading.active_count(),
    }


if __name__ == "__main__":
    main()
