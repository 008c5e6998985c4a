"""Peak memory of ``mfcir`` command lines, each in a fresh process.

    python tests/check_resources.py

Each line of ``LINES`` runs in its own child (``python -B -c``), which
imports ``mfcir.cli`` from this checkout's ``src/``, calls ``main`` on the
line with ``--out /dev/null`` and prints its own high-water RSS, ``VmHWM``
from ``/proc/self/status``.  ``ru_maxrss`` would not do: Linux carries the
launcher's high-water mark across ``exec``.  A child that only imports
``mfcir.cli`` gives the baseline, so Python, numpy and the import cancel
out.  Every child compiles mfcir from its source: it neither reads the
bytecode in ``src/mfcir/__pycache__``, which installing or testing the
package may have written (it took 1.1 MB off the baseline and 0.1 MB off
the ``figure1`` line), nor writes any.  ``LINES`` maps each line to its
last measured growth over that baseline, and one rule gives every bound:
``max(growth * 1.05, growth + 1.0)`` MB over the baseline.  The script
prints each line's reading and bound, and exits 1 if any line is over.
``tests/test_resources.py`` runs the same table in the Tier-1 suite.
"""

from __future__ import annotations

import os
import subprocess
import sys

# command line -> its VmHWM less the baseline's, in MB: the highest of three
# fresh processes, rounded up to 0.1 MB (2-core x86-64 box, Python 3.11, numpy 2.4.6;
# baseline 28.9 MB)
LINES = {
    # one 2**20-step path: the circulant setup must not stack on the block buffers
    "positivity --n 1048576 --paths 1": 79.6,
    # three 2**16-step paths: each path's states are let go before the next is stepped
    "simulate --n 65536 --paths 3": 17.3,
    # the same in json-lines: rows are rendered a 1024-row block at a time
    "simulate --n 65536 --paths 3 --format json-lines": 22.5,
    # each chunk's increment buffer is freed before the next chunk is drawn
    "simulate --n 262144 --paths 17": 37.8,
    # many short paths: only one chunk's seeds are derived at a time
    "positivity --n 16 --paths 300000": 7.7,
    "simulate --n 1 --paths 50000": 7.7,
    # 10-row draw blocks, where simulate's draw budget and the harnesses' cut most differently
    "simulate --n 100 --paths 2000": 7.7,
    "convergence --paths 50": 17.7,
    # the four benchmark workloads
    "simulate --preset figure1 --paths 25 --format csv": 8.1,
    "positivity --theta 0.5025 --hurst 0.75 --n 1024 --paths 500": 11.4,
    "mcstats --weight-fbm 0 --theta 0.04 --sigma 0.2 --r0 0.08 --n 1024 --paths 5000": 15.0,
    "bracket --n 65536 --refinements 1,16,256 --paths 25": 11.6,
}

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CHILD = """\
import sys
from importlib import machinery

SRC = sys.argv.pop(1)


class SourceLoader(machinery.SourceFileLoader):
    def path_stats(self, path):  # without the source's mtime, bytecode is neither read nor written
        raise OSError


def source_only(path):
    if path != SRC and not path.startswith(SRC + "/"):
        raise ImportError  # the entries outside src/ go to the default hooks
    return machinery.FileFinder(path, (SourceLoader, machinery.SOURCE_SUFFIXES))


sys.path_hooks.insert(0, source_only)
sys.path_importer_cache.clear()
import mfcir.cli
rc = mfcir.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(rc)
"""


def bound_mb(growth: float) -> float:
    """The most a line may grow over the baseline, given its recorded growth."""
    return max(growth * 1.05, growth + 1.0)


def peak_mb(line: str = "", src: str = _SRC) -> float:
    """The VmHWM of a fresh child that runs ``line`` (or, for "", only imports mfcir.cli from ``src``), in MB.

    Its argv ends with ``--out /dev/null``; a nonzero exit is a RuntimeError
    that carries the child's stderr.
    """
    argv = line.split() + ["--out", os.devnull] if line else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, src, *argv], capture_output=True, text=True, env=env, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{line!r} exited {proc.returncode}: {proc.stderr.strip()}")
    return int(proc.stdout.split()[-1]) / 1024.0


def main() -> int:
    if sys.argv[1:]:  # a bound is the table's, never a flag's
        print(f"usage: python {sys.argv[0]}  (no arguments)", file=sys.stderr)
        return 2
    baseline = peak_mb()
    print(f"{baseline:6.1f} MB  baseline (import mfcir.cli)")
    over = False
    for line, growth in LINES.items():
        peak, bound = peak_mb(line), baseline + bound_mb(growth)
        over |= peak > bound
        print(f"{peak:6.1f} MB  bound {bound:6.1f} MB  {'OVER' if peak > bound else 'ok  '}  {line}")
    return int(over)


if __name__ == "__main__":
    sys.exit(main())
