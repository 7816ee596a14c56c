"""Run one CLI command line in this process and capture what it writes."""

import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from shockpgf.cli import main


class CliResult(NamedTuple):
    exit_code: int
    stdout_bytes: bytes
    stderr: str

    @property
    def output(self) -> str:
        """Standard output as text."""
        return self.stdout_bytes.decode("utf-8")


def run_cli(argv: list[str]) -> CliResult:
    """``main(argv)`` with stdout encoded as UTF-8 bytes, as a process writes it."""
    raw, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    out.flush()
    stdout = raw.getvalue()
    out.detach()
    return CliResult(code, stdout, err.getvalue())
