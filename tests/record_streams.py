"""Rewrite ``tests/streams.json``, the output hashes of the command lines below.

    PYTHONPATH=src python tests/record_streams.py

Each line runs in this process through ``mfcir.cli.main``, as the test
that reads the table runs it, with stdout and stderr captured and every
Python warning raised as an error.  The table maps the line to its exit
code and the SHA-256 of its stdout and of its stderr, and records the
numpy version and the platform that it was written on.  A change that
moves a hash names the lines that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import warnings

import numpy as np

import mfcir.cli

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "streams.json")

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
    # chunk boundaries: a 1024-wide fractional chunk of 64 16-row blocks and a 6-wide one; three grids over
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
    "bracket --hurst 0.999 --n 262144 --paths 1",
    "simulate --T 5e-324 --n 2",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_line(line: str) -> dict:
    """Exit code and the SHA-256 of stdout and stderr of ``mfcir LINE``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = mfcir.cli.main(shlex.split(line))
    return {"code": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def provenance() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()} {platform.machine()}"}


def main() -> None:
    table = {
        "about": "exit code and SHA-256 of stdout and stderr of `mfcir LINE`; rewritten by tests/record_streams.py",
        **provenance(),
        "lines": {line: run_line(line) for line in LINES},
    }
    with open(TABLE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
