"""One benchmark operation in a fresh process.

    python3 worker.py ROOT TRACE ARGV_JSON

Imports ``mfcir.cli`` from ``ROOT/src``, then (unless ARGV_JSON is
``null``) calls ``mfcir.cli.main(argv)`` once and prints one JSON record
on stdout: the clock reading when the import finished, wall and CPU time
of the call, the process's peak RSS and, with TRACE = 1, the per-layer
figures of :mod:`spans`.  Thread limits come from the environment the
benchmark gives this process, so they hold before numpy is imported.
"""

import os
import sys
import time


def _cpu_s() -> float:
    import resource

    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process's own address space.  ru_maxrss would
    # also carry the benchmark process's size over from before the exec.
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    root, trace_flag, argv_json = sys.argv[1:4]
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import mfcir.cli  # setup_s ends here

    imported_at = time.perf_counter()
    import json

    package = os.path.dirname(os.path.abspath(mfcir.cli.__file__))
    if os.path.dirname(package) != src:
        print(f"mfcir was imported from {package}, not from {src}", file=sys.stderr)
        return 1
    argv = json.loads(argv_json)
    record = {"imported_at": imported_at}
    if argv is not None:
        tracer = None
        if trace_flag == "1":
            from spans import Tracer

            tracer = Tracer()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        rc = mfcir.cli.main(argv)
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
        record.update(rc=rc, run_s=t1 - t0, cpu_s=cpu1 - cpu0, peak_rss_mb=_peak_rss_mb())
        if tracer is not None:
            record["layers"] = tracer.report()
            record["layer_self_s"] = sum(tracer.self_s.values())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
