"""CLI fingerprint: sha256 of the stdout of a fixed set of diskspec commands.

Runs each command in-process through ``diskspec.cli.main`` and prints one
line per command: the exit code, the sha256 of everything it wrote to
stdout, and the command itself.  Two checkouts whose outputs are
byte-identical print identical lines, so comparing the output of

    PYTHONPATH=src python scripts/cli_fingerprint.py

before and after a change checks the whole CLI surface in one command.
"""

import contextlib
import hashlib
import io
import sys

from diskspec.cli import main as cli_main

COMMANDS = (
    "zeros --n-max 60 --mu 200",
    "scan --mu-min 20 --mu-max 300 --step 0.7",
    "count --mu 123.456",
    "verify --suite special",
    "verify --suite geometry",
    "verify --suite lattice",
    "verify --suite sandwich",
    "verify --suite appendix",
    "mollify --mu 20",
)


def fingerprint(command: str) -> tuple[int, str]:
    """Exit code and stdout sha256 of one CLI command run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(command.split())
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> int:
    for command in COMMANDS:
        code, digest = fingerprint(command)
        print(f"{code} {digest} {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
