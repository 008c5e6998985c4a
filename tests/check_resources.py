"""Run one ``mfcir`` command line in this process and check what it cost.

    PYTHONPATH=src python tests/check_resources.py --max-rss-mb 45 -- positivity --n 16 --paths 300000 --out /dev/null

The command line runs through ``mfcir.cli.main``.  The script prints the
process's peak resident set size (``ru_maxrss``, import included), and
exits with main's code if it is not 0, else with 1 if the peak is above
its bound.
"""

from __future__ import annotations

import argparse
import resource
import sys


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rss-mb", type=float, help="the bound on the peak resident set size, in MiB")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- and the mfcir command line")
    args = parser.parse_args()
    if args.argv[:1] == ["--"]:
        del args.argv[0]
    return args


def main() -> int:
    args = _parse_args()  # the parser is freed before mfcir is imported

    from mfcir.cli import main as mfcir_main

    rc = mfcir_main(args.argv)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ru_maxrss {peak:.1f} MB")
    over = args.max_rss_mb is not None and peak > args.max_rss_mb
    if over:
        print(f"ru_maxrss {peak:.1f} MB is above {args.max_rss_mb} MB", file=sys.stderr)
    return rc or int(over)


if __name__ == "__main__":
    sys.exit(main())
