"""Run one ``molrag`` command line in this process and capture what it did."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from molrag import cli


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    # the SystemExit of a failed command, or the exception it let escape
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args) -> Result:
    """Run ``cli.main(args)`` in the calling thread, with stdout and stderr captured.

    A thread of its own would make ``store._fork_capacity()`` refuse to fork.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            cli.main(args)
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code or 0  # main exits with an int, or None for 0
            exception = exc if exit_code else None
        except (Exception, KeyboardInterrupt) as exc:  # a traceback from the console script
            exit_code, exception = 1, exc
    return Result(exit_code, stdout.getvalue(), stderr.getvalue(), exception)
