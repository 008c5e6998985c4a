"""Layer spans for a traced benchmark operation.

The program has no tracing of its own, so :class:`Tracer` wraps the
public functions of each mfcir module where another module calls them
(``mfcir.cli.simulate_z``, ``mfcir.experiments.build_mixed``, ...) on
the paths the benchmark's commands take (``convergence`` is not one), and
numpy's ``PCG64``/``Generator`` constructors, which ``mfcir.noise`` looks
up on every draw.  Each span adds its self time (its duration minus the
wrapped spans it contains) to its layer, so the layer times partition the
traced part of the run and do not double count.  Spans are kept as
running sums in memory; :meth:`Tracer.report` turns them into the
benchmark's per-layer metrics.  Works single-threaded only: the benchmark
runs traced operations with ``MFCIR_THREADS=1``.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

import mfcir.cli
import mfcir.experiments
import mfcir.mixed


class _CountingGenerator:
    """A numpy Generator that counts the standard normals it hands out."""

    __slots__ = ("_gen", "_counts")

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._counts["normals"] += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Installs the wrappers on construction; the process ends after one run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.first_call_s = {}
        self._open = [0.0]  # time covered by finished child spans, per open span
        counts = self.counts

        def steps(args, result):
            counts["scalar_steps"] += args[1].increments.size

        def batch(args, result):
            counts["batch_steps"] += np.asarray(args[2]).size
            counts["matrix_bytes"] += result.nbytes

        def rows(args, result):
            counts["matrix_bytes"] += result.increments.nbytes

        def cholesky(args, result):
            n = args[1].steps_n
            counts["cholesky_bytes"] += 8.0 * n * n  # the dense factor, read once per path

        def fft(args, result):
            size = 2 * args[1].steps_n
            counts["fft_flop"] += 5.0 * size * math.log2(size)

        def points(args, result):
            counts["bracket_points"] += args[0].grid.steps_n

        cli, exp, mixed = mfcir.cli, mfcir.experiments, mfcir.mixed
        for name in ("emit_trajectories", "emit_report"):
            self._wrap(cli, name, "cli.emit")
        for name in ("run_positivity", "run_mc_stats", "run_bracket"):
            self._wrap(cli, name, "experiments")
        self._wrap(cli, "simulate_z", "scheme.scalar", steps)
        self._wrap(exp, "simulate_z_batch", "scheme.batch", batch)
        self._wrap(cli, "build_mixed", "mixed.build")
        self._wrap(exp, "build_mixed", "mixed.build", rows)
        self._wrap(exp, "discrete_ito_iterated", "bracket", points)
        self._wrap(mixed, "sample_brownian_increments", "noise.brownian")
        self._wrap(mixed, "sample_fbm_cholesky", "noise.cholesky", cholesky)
        self._wrap(mixed, "sample_fbm_davies_harte", "noise.davies_harte", fft)
        for module in (cli, exp, mixed):
            self._wrap(module, "substream_seed", "noise.seed", count=False)
        self._wrap(np.random, "PCG64", "noise.seed")
        generator = np.random.Generator
        np.random.Generator = lambda bits: _CountingGenerator(generator(bits), counts)
        self._wrap(np.random, "Generator", "noise.seed", count=False)

    def _wrap(self, owner, name, layer, counter=None, count=True):
        fn = getattr(owner, name)
        open_spans = self._open
        self_s, calls, first = self.self_s, self.calls, self.first_call_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = open_spans.pop()
                open_spans[-1] += span
                self_s[layer] += span - children
            if count:
                calls[layer] += 1
                first.setdefault(layer, span)
            if counter is not None:
                counter(args, result)
            return result

        setattr(owner, name, wrapper)

    def report(self) -> dict:
        """Per-layer metrics of the run, keyed by benchmark metric name."""
        s, calls, counts = self.self_s, self.calls, self.counts

        def rate(amount, seconds):
            return amount / seconds if seconds > 0.0 else 0.0

        cholesky_gb = counts["cholesky_bytes"] / 1e9
        return {
            "cli.emit_s": s["cli.emit"],
            "scheme.scalar_steps": counts["scalar_steps"],
            "scheme.scalar_s": s["scheme.scalar"],
            "scheme.scalar_steps_per_s": rate(counts["scalar_steps"], s["scheme.scalar"]),
            "scheme.batch_steps": counts["batch_steps"],
            "scheme.batch_s": s["scheme.batch"],
            "scheme.batch_steps_per_s": rate(counts["batch_steps"], s["scheme.batch"]),
            "noise.seed_calls": calls["noise.seed"],
            "noise.seed_s": s["noise.seed"],
            "noise.brownian_calls": calls["noise.brownian"],
            "noise.brownian_s": s["noise.brownian"],
            "noise.brownian_us_per_path": 1e6 * rate(s["noise.brownian"], calls["noise.brownian"]),
            "noise.cholesky_calls": calls["noise.cholesky"],
            "noise.cholesky_s": s["noise.cholesky"],
            "noise.cholesky_first_call_s": self.first_call_s.get("noise.cholesky", 0.0),
            "noise.cholesky_gb_computed": cholesky_gb,
            "noise.cholesky_gb_per_s": rate(cholesky_gb, s["noise.cholesky"]),
            "noise.davies_harte_calls": calls["noise.davies_harte"],
            "noise.davies_harte_s": s["noise.davies_harte"],
            "noise.davies_harte_gflop_computed": counts["fft_flop"] / 1e9,
            "noise.normals": counts["normals"],
            "mixed.build_calls": calls["mixed.build"],
            "mixed.build_self_s": s["mixed.build"],
            "experiments.self_s": s["experiments"],
            "experiments.matrix_mb_computed": counts["matrix_bytes"] / 1e6,
            "bracket.calls": calls["bracket"],
            "bracket.s": s["bracket"],
            "bracket.points_per_s": rate(counts["bracket_points"], s["bracket"]),
        }
