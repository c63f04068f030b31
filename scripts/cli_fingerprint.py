"""CLI fingerprint: sha256 of the stdout of a fixed set of diskspec commands.

Runs each command in-process through ``diskspec.cli.main`` and prints one
line per command: the exit code, the sha256 of everything it wrote to
stdout, and the command itself.  The output of the ``scan`` command is
saved to a temporary file, and a last ``fit`` command reads it back, so
the scan-CSV parser is covered too.  Two checkouts whose outputs are
byte-identical print identical lines, so comparing the output of

    PYTHONPATH=src python scripts/cli_fingerprint.py

before and after a change checks the whole CLI surface in one command.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from diskspec.cli import main as cli_main

SCAN = "scan --mu-min 20 --mu-max 300 --step 0.7"
COMMANDS = (
    "zeros --n-max 60 --mu 200",
    "zeros --n-max 80 --mu 60",
    SCAN,
    "count --mu 123.456",
    "verify --suite special",
    "verify --suite geometry",
    "verify --suite lattice",
    "verify --suite sandwich",
    "verify --suite appendix",
    "mollify --mu 20",
    "mollify --mu 20 --eps-exp 0.25 --quad-cells 32",
)
# Reads the saved scan output; SCAN_CSV stands for its temporary path.
FIT = "fit --in SCAN_CSV --block 5"


def run(command: str) -> tuple[int, str]:
    """Exit code and stdout of one CLI command run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(command.split())
    return code, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scan_csv = os.path.join(tmp, "scan.csv")
        for command in COMMANDS:
            code, out = run(command)
            if command == SCAN:
                with open(scan_csv, "w", newline="") as fh:
                    fh.write(out)
            print(f"{code} {digest(out)} {command}")
        code, out = run(FIT.replace("SCAN_CSV", scan_csv))
        print(f"{code} {digest(out)} {FIT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
