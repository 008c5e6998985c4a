"""Run one ``mfcir`` command line in this process and check what it cost.

    PYTHONPATH=src python tests/check_resources.py --max-rss-mb 45 -- positivity --n 16 --paths 300000 --out /dev/null
    PYTHONPATH=src python tests/check_resources.py --max-minor-faults 2500 -- bracket --n 65536 --out /dev/null

The command line runs through ``mfcir.cli.main``.  The script prints the
process's peak resident set size (``ru_maxrss``, import included) and the
minor page faults taken during ``main``, and exits with main's code if it
is not 0, else with 1 if a reading is above its bound.
"""

from __future__ import annotations

import argparse
import resource
import sys


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rss-mb", type=float, help="the bound on the peak resident set size, in MiB")
    parser.add_argument("--max-minor-faults", type=int, help="the bound on the minor page faults during main")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- and the mfcir command line")
    args = parser.parse_args()
    if args.argv[:1] == ["--"]:
        del args.argv[0]
    return args


def main() -> int:
    args = _parse_args()  # the parser is freed before mfcir is imported

    from mfcir.cli import main as mfcir_main

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rc = mfcir_main(args.argv)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak, faults = usage.ru_maxrss / 1024, usage.ru_minflt - before
    print(f"ru_maxrss {peak:.1f} MB, minor faults {faults}")
    over = []
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        over.append(f"ru_maxrss {peak:.1f} MB is above {args.max_rss_mb} MB")
    if args.max_minor_faults is not None and faults > args.max_minor_faults:
        over.append(f"minor faults {faults} are above {args.max_minor_faults}")
    for line in over:
        print(line, file=sys.stderr)
    return rc or int(bool(over))


if __name__ == "__main__":
    sys.exit(main())
