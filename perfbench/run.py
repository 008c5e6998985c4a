#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mfcir command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke

Every operation is a fresh ``python3 perfbench/worker.py`` process that
imports ``mfcir.cli`` from ``src/`` of the checkout and calls
``mfcir.cli.main(argv)`` once, writing its output to a file.  Processes
run one at a time with one thread each (``MFCIR_THREADS=1`` and 1 BLAS /
OpenMP thread), the single-threaded baseline of each problem.  A run
repeats whole rounds of the same operation until ``--seconds`` have
passed, checks every output (see ``checks.py``) and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and the
medians of the metrics: the end-to-end ones with ``--trace 0``, the
per-layer ones (see ``spans.py``) with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

THREAD_ENV = {
    "MFCIR_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# This process checks outputs with numpy too; keep it off the second core.
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

# End-to-end times are scaled to the machine speed that Probe measures
# next to each operation: time * PROBE_REF_S / probe time.  On a machine
# where the probe takes PROBE_REF_S they equal wall-clock seconds.
TIMES = ("setup_s", "run_s", "cpu_s")
PROBE_REF_S = 0.13
OP_TIMEOUT_S = 120.0
# No round starts after this, so a run ends well inside 180 s.
LAST_ROUND_START_S = 100.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    smoke_argv: tuple[str, ...]  # appended to argv in smoke mode; later flags win
    check: Callable


def _workloads() -> dict[str, Workload]:
    import checks

    return {
        "simulate-csv": Workload(
            ("simulate", "--preset", "figure1", "--paths", "25", "--format", "csv"),
            ("--paths", "2"),
            checks.simulate_csv,
        ),
        "audit-cholesky": Workload(
            ("positivity", "--theta", "0.5025", "--hurst", "0.75", "--n", "1024", "--paths", "500"),
            ("--n", "128", "--paths", "100"),
            checks.positivity,
        ),
        "mcstats-brownian": Workload(
            ("mcstats", "--weight-fbm", "0", "--theta", "0.04", "--sigma", "0.2", "--r0", "0.08",
             "--n", "1024", "--paths", "5000"),
            ("--n", "128", "--paths", "1000"),
            checks.mcstats,
        ),
        "bracket-fine": Workload(
            ("bracket", "--n", "65536", "--refinements", "1,16,256", "--paths", "25"),
            ("--n", "4096", "--paths", "10"),
            checks.bracket,
        ),
    }


def cli_seed(workload: str, seed: int) -> int:
    """The CLI's 64-bit master seed for one workload and benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _spawn(argv, traced: bool, env) -> dict:
    """Run one worker process; return its record plus the measured setup_s."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), ROOT, "1" if traced else "0",
           json.dumps(argv)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        return {"rc": proc.returncode, "stderr": proc.stderr[-2000:]}
    record = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by both processes.
    record["setup_s"] = record.pop("imported_at") - start
    if record.get("rc", 0) != 0:
        record["stderr"] = proc.stderr[-2000:]
    return record


class Probe:
    """A fixed mix of the kinds of work the workloads do, timed as a whole.

    A Python loop, vector arithmetic on arrays larger than the caches, float
    formatting, dense matrix-vector products, FFTs and generator
    construction with a short draw.  It uses nothing of mfcir, so no change
    to the program can move it.  First touch of fresh pages is left out:
    its cost swung far more from run to run than any workload did.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((1024, 1024))
        self._vector = rng.standard_normal(1024)
        self._spectrum = rng.standard_normal(131_072) + 0j

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        x = np.arange(1_000_000, dtype=np.float64)
        for _ in range(8):
            x = np.sqrt(x * 0.5 + 1.0)
        ",".join(format(v, ".17g") for v in x[:20_000].tolist())
        for _ in range(50):
            self._matrix @ self._vector
        for _ in range(5):
            np.fft.ifft(self._spectrum)
        for i in range(600):
            np.random.Generator(np.random.PCG64(i)).standard_normal(1024)
        return time.perf_counter() - start


def _provenance(threads: str, env) -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": threads,
        "thread_env": {key: env.get(key) for key in THREAD_ENV},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: str, smoke: bool) -> dict:
    w = _workloads()[name]
    env = dict(os.environ)
    if threads == "default":
        for key in THREAD_ENV:
            env.pop(key, None)
    os.makedirs(WORK_DIR, exist_ok=True)
    out_path = os.path.join(WORK_DIR, f"{name}.out")
    argv = list(w.argv) + (list(w.smoke_argv) if smoke else []) + [
        "--seed", str(cli_seed(name, seed)), "--out", out_path]

    warm = _spawn(None, False, env)  # fills the page and bytecode caches; not an operation
    if warm.get("rc", 0) != 0:
        raise RuntimeError(f"cannot import mfcir.cli from {SRC}:\n{warm.get('stderr', '')}")

    modes = (False, True) if trace else (False,)
    min_rounds = 1 if smoke else 3
    ops, check_fails = [], []
    first_digest = None
    start = time.perf_counter()
    rounds = 0
    probe = Probe()
    probes = [probe()]
    while True:
        for traced in modes:
            if os.path.exists(out_path):
                os.remove(out_path)
            op = _spawn(argv, traced, env)
            probes.append(probe())
            op.update(traced=traced, check_failures=[], probe_s=(probes[-2] + probes[-1]) / 2.0)
            ops.append(op)
            if op["rc"] != 0:
                continue
            with open(out_path, "rb") as handle:
                data = handle.read()
            op["output_bytes"] = len(data)
            digest = hashlib.sha256(data).hexdigest()
            if first_digest is None:
                first_digest = digest
                # Equal bytes give equal verdicts, so later outputs are
                # checked by comparing their digest with this one.
                fails = w.check(out_path, argv)
            elif digest != first_digest:
                fails = ["output bytes differ from the run's first operation"]
            else:
                fails = []
            op["check_failures"] = fails
            check_fails += fails
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and (elapsed >= seconds or elapsed >= LAST_ROUND_START_S):
            break

    failed = sum(1 for op in ops if op["rc"] != 0 or op["check_failures"])
    plain = [op for op in ops if op["rc"] == 0 and not op["traced"]]
    traced = [op for op in ops if op["rc"] == 0 and op["traced"]]
    if not plain or (trace and not traced):
        raise RuntimeError(f"no operation of a kind succeeded: {ops[-1].get('stderr', '')}")
    metrics = {}
    if trace:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(op["layers"][key] for op in traced)
        emit_s = metrics["cli.emit_s"]
        out_mb = statistics.median(op["output_bytes"] for op in traced) / 1e6
        metrics["cli.emit_mb_per_s"] = out_mb / emit_s if emit_s > 0.0 else 0.0
        metrics["trace.overhead_s"] = (
            statistics.median(op["run_s"] for op in traced)
            - statistics.median(op["run_s"] for op in plain)
        )
        # Wall time of the traced call that no wrapped layer accounts for.
        extra = {"unwrapped_s": statistics.median(op["run_s"] - op["layer_self_s"] for op in traced)}
    else:
        extra = {"probe_s": statistics.median(probes)}
        for key in TIMES:
            metrics[key] = statistics.median(op[key] * PROBE_REF_S / op["probe_s"] for op in plain)
            extra[key.replace("_s", "_wall_s")] = statistics.median(op[key] for op in plain)
        metrics["peak_rss_mb"] = statistics.median(op["peak_rss_mb"] for op in plain)
    return {
        "workload": name,
        "seed": seed,
        "cli_seed": cli_seed(name, seed),
        "argv": argv[:-1] + [os.path.relpath(out_path, ROOT)],
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "rounds": rounds,
        "attempted": len(ops),
        "failed": failed,
        "correct": not check_fails,
        "check_failures": sorted(set(check_fails)),
        "output_sha256": first_digest,
        "metrics": metrics,
        "extra": extra,
        "provenance": _provenance(threads, env),
        "operations": ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one round: every workload and check in seconds")
    parser.add_argument("--threads", choices=("1", "default"), default="1",
                        help="'default' leaves MFCIR_THREADS and BLAS threads unset (untraced only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfcir", "cli.py")):
        print(f"perfbench: no mfcir sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace and args.threads != "1":
        print("perfbench: traced runs are single-threaded only", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(_workloads())
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} (one of {names} or all)", file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    seconds = 0.0 if args.smoke else args.seconds

    results = []
    try:
        for name in selected:
            results.append(run_workload(name, args.seed, seconds, bool(args.trace), args.threads, args.smoke))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(unwrapped_s="s", probe_s="s", setup_wall_s="s", run_wall_s="s", cpu_wall_s="s")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    summary_metrics = {}
    for res in results:
        tag = f"{res['workload']}-seed{args.seed}-trace{args.trace}-threads{args.threads}"
        tag += "-smoke" if args.smoke else ""
        with open(os.path.join(RESULTS_DIR, tag + ".json"), "w", encoding="utf-8") as handle:
            json.dump(res, handle, indent=1)
        print(f"== {res['workload']}  seed {res['seed']}  attempted {res['attempted']}  "
              f"failed {res['failed']}  correct {res['correct']}  rounds {res['rounds']}")
        for fail in res["check_failures"]:
            print(f"   check failed: {fail}")
        for key, value in {**res["metrics"], **res["extra"]}.items():
            print(f"   {key:34s} {value:16.6g} {units[key]}")
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for key, value in res["metrics"].items():
            summary_metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"provenance": results[0]["provenance"]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": summary_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
