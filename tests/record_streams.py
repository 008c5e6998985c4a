"""Rewrite ``tests/streams.json``, the recorded output of the command lines below.

    PYTHONPATH=src python tests/record_streams.py

Each line runs in this process through ``mfcir.cli.main``, as the test
that reads the table runs it: stdout and stderr captured, every Python
warning raised as an error, ``COLUMNS=80``, and a ``SystemExit`` (argparse
exits after ``--help``) taken as the exit code.  The table maps each line to
its exit code and its stdout and stderr.  A stream of at most 4096
characters is stored as its lines (``text.split("\\n")``), so that a
re-record's diff shows the bytes that moved; a longer one is stored as its
SHA-256.  ``LINES`` print output; ``HELP_LINES`` print help and parser
errors, whose wording and wrapping are argparse's and so change with the
Python version.  The table records the Python and numpy versions and the
platform that it was written on.  A change that moves a stream names the
lines that moved, and why, in CHANGES.md.

Every output line also runs under a second layout, in
``TestStreams::test_no_byte_depends_on_the_layout`` of ``tests/test_cli.py``:
the eight private constants that cut a run into chunks of paths, draw
blocks, stepping segments (of either kernel, which the chunk's width
picks) and write blocks take values that a rule picks
from the line's steps and paths, and the line must print what the table
records.  So a line added here is checked at two layouts with no other edit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import sys
import warnings
from unittest import mock

import numpy as np

import mfcir.cli

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "streams.json")

# the longest stream stored as its text; a longer one is stored as its SHA-256
MAX_TEXT = 4096

LINES = (
    # every command in both formats, at small sizes; 1505 simulate rows span two 1024-row CSV blocks
    "simulate --n 300 --paths 5",
    "simulate --n 300 --paths 5 --format json-lines",
    "convergence --paths 3 --n-list 8,16 --n-ref 128",
    "convergence --paths 3 --n-list 8,16 --n-ref 128 --format json-lines",
    "positivity --n 256 --paths 20",
    "positivity --n 256 --paths 20 --format json-lines",
    "bracket --n 1024 --refinements 1,4,16 --paths 10",
    "bracket --n 1024 --refinements 1,4,16 --paths 10 --format json-lines",
    "mcstats --n 64 --paths 200",
    "mcstats --n 64 --paths 200 --format json-lines",
    "simulate --preset figure1 --paths 2",
    # driver weights other than 1/1; a Brownian-only weight on a step that is not a power of 4
    "simulate --n 100 --paths 5 --weight-bm 0.5 --weight-fbm 0",
    "simulate --n 100 --paths 5 --weight-bm 0.3 --weight-fbm 0",
    "simulate --n 64 --paths 5 --weight-bm 0.3 --weight-fbm -1.7",
    "mcstats --weight-bm 0.5 --weight-fbm 0 --theta 0.04 --sigma 0.2 --r0 0.08 --T 5 --n 512 --paths 200 --seed 3",
    "mcstats --weight-bm 0 --weight-fbm 0 --theta 0.04 --sigma 0.2 --r0 0.08 --T 5 --n 512 --paths 2",
    # H near 1 on a long grid, the largest seed, and the Feller warning
    "positivity --hurst 0.999 --n 65536 --paths 2",
    "simulate --n 16 --paths 3 --seed 18446744073709551615",
    "simulate --theta 0.4 --n 8 --paths 2",
    # the chunk shapes: a 1024-wide chunk and a 76-wide one, a 3-wide one of 2**17 steps, six 2-wide lanes
    "mcstats --weight-fbm 0 --n 1024 --paths 1100",
    "positivity --n 131072 --paths 3",
    "convergence --paths 2",
    # a 40-wide simulate block of 8 steps, wide enough for the array kernel
    "simulate --n 8 --paths 40",
    # chunk boundaries: a 1024-wide fractional chunk of 256 4-row blocks and a 6-wide one; three grids over
    # a 256-wide chunk and a 4-wide one; a 64-wide chunk of one-row bracket blocks and a 2-wide one
    "positivity --n 4096 --paths 1030",
    "convergence --paths 260 --n-list 8,16",
    "bracket --n 65536 --refinements 1,256 --paths 66",
    # json-lines blocks: 2200 rows in two chunks, each block across 512 paths; five blocks per 4097-row path;
    # a pure fractional driver
    "simulate --n 1 --paths 1100 --format json-lines",
    "simulate --preset figure1 --paths 2 --format json-lines",
    "simulate --weight-bm 0 --n 100 --paths 5 --format json-lines",
    # rejected lines; path 3's rate overflows, after three paths' rows reach stdout
    "simulate --k 0.01 --theta 300 --sigma 3 --T 0.01 --n 1 --weight-bm 1e155 --seed 7 --paths 40",
    "simulate --k 0.01 --theta 300 --sigma 3 --T 0.01 --n 1 --weight-bm 1e155 --seed 7 --paths 40 --format json-lines",
    "simulate --weight-bm 1e160 --weight-fbm 0 --n 4 --paths 3",
    # the harnesses' chunk states overflow in the implicit step
    "positivity --weight-bm 1e160 --weight-fbm 0 --n 4 --paths 3",
    # path 16's draw overflows; the finite draws before it are stepped, and path 0's state overflows
    "simulate --weight-bm 1e308 --weight-fbm 0 --n 1 --paths 50",
    "bracket --hurst 0.999 --n 262144 --paths 1",
    "simulate --T 5e-324 --n 2",
    # every command's rows in both formats, short enough to be stored as text
    "simulate --n 3 --paths 2 --seed 5",
    "simulate --n 3 --paths 2 --seed 5 --format json-lines",
    "positivity --n 8 --paths 3 --seed 5",
    "positivity --n 8 --paths 3 --seed 5 --format json-lines",
    "mcstats --weight-fbm 0 --n 8 --paths 3 --seed 5",
    "mcstats --weight-fbm 0 --n 8 --paths 3 --seed 5 --format json-lines",
    "bracket --n 16 --refinements 1,4 --paths 3 --seed 5",
    "bracket --n 16 --refinements 1,4 --paths 3 --seed 5 --format json-lines",
    "convergence --n-list 2,4 --n-ref 32 --paths 3 --seed 5",
    "convergence --n-list 2,4 --n-ref 32 --paths 3 --seed 5 --format json-lines",
    # the simulate-csv benchmark line at seed 1: 25 x 4097 rows in 101 blocks
    "simulate --preset figure1 --paths 25 --format csv --seed 1",
    # the other three benchmark workloads at seed 1: a 500-wide chunk of 15-row blocks at the Feller margin,
    # five chunks of Brownian paths (4 x 1024 + 904), and 25 one-row bracket blocks of 2**16 steps
    "positivity --theta 0.5025 --hurst 0.75 --n 1024 --paths 500 --seed 1",
    "mcstats --weight-fbm 0 --theta 0.04 --sigma 0.2 --r0 0.08 --n 1024 --paths 5000 --seed 1",
    "bracket --n 65536 --refinements 1,16,256 --paths 25 --seed 1",
    # below the Feller boundary with a heavy Brownian weight: steps through the kernel's c < 0 branch
    "positivity --theta 0.35 --r0 0.04 --weight-bm 2 --n 64 --paths 10 --seed 3",
    # a step domain (m < -1/2) rejected before the first path is stepped
    "simulate --sigma 3 --n 8 --paths 2",
    "simulate --sigma 3 --n 8 --paths 2 --format json-lines",
)

HELP_LINES = (
    # the top-level and each command's help
    "--help",
    "simulate --help",
    "convergence --help",
    "positivity --help",
    "bracket --help",
    "mcstats --help",
    "-h",
    "positivity -h --bogus",
    # parser errors: no command, an unknown one, a flag before it, unknown and bad flags and values
    "",
    "badcmd",
    "--config x positivity",
    "positivity --bogus 1",
    "convergence --n-list 4,x",
    "bracket --refinements 2.5",
    "positivity --n",
    "positivity --n x",
    "positivity simulate",
    "simulate --n-list 4",
    "pos",
    "--seed 3 simulate",
    "mcstats --t-eval",
    "simulate --config",
    # the command's parser reads the flags after it, though argv[0] names no command
    "--bogus simulate --n 5",
    "--bogus bracket --refinements x",
)


def _stored(text: str):
    """``text`` as the table stores it: its lines, or the SHA-256 of a longer text."""
    if len(text) <= MAX_TEXT:
        return text.split("\n")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_line(line: str) -> dict:
    """Exit code, stdout and stderr of ``mfcir LINE``, run in this process, as the table stores them."""
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
    ):
        warnings.simplefilter("error")
        try:
            code = mfcir.cli.main(shlex.split(line))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": _stored(out.getvalue()), "stderr": _stored(err.getvalue())}


def provenance() -> dict:
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "platform": f"{platform.system()} {platform.machine()}",
    }


def main() -> None:
    table = {
        "about": "exit code, stdout and stderr of `mfcir LINE`, each stream as its lines or, past "
        f"{MAX_TEXT} characters, its SHA-256; help texts change with the Python version; "
        "rewritten by tests/record_streams.py",
        **provenance(),
        "lines": {line: run_line(line) for line in LINES},
        "help": {line: run_line(line) for line in HELP_LINES},
    }
    with open(TABLE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
