"""Run ``convlab.cli.main`` in process with stdout and stderr captured, in
the shape of click's ``CliRunner``: ``CliRunner().invoke(main, args)``."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    # the SystemExit of a nonzero exit, or what main raised; None on exit 0
    exception: BaseException | None

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class CliRunner:
    def invoke(self, main, args: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
                exception = exc if code else None
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, out.getvalue(), err.getvalue(), exception)
