"""Shared test helpers: CSV round-trip readers, driver references and the acceptance summary.

The readers parse exactly what the CLI emits, so any format drift breaks
the suite.  The driver references collect the rows that the ensemble
harnesses consume one block at a time, and a second solver steps the rate
on them.  After a run that touched tests/test_acceptance.py, one
PASS/FAIL line per acceptance criterion is printed in the terminal summary.
"""

from __future__ import annotations

import numpy as np

from mfcir.mixed import _increment_blocks, build_mixed
from mfcir.noise import GridSpec, NoisePath, _block_sums


def increment_matrix(spec, grid, seeds):
    """Mixed-driver increments of ``seeds`` (ints in [0, 2**64)), one row per seed, copied out of the reused buffers."""
    out = np.empty((len(seeds), grid.steps_n))
    for lo, block in _increment_blocks(spec, grid, np.array(seeds, dtype=np.uint64)):
        out[lo : lo + len(block)] = block
    return out


def euler_on_r(params, dt, increments):
    """r_T of explicit Euler on the rate itself, one path per row of ``increments``.

    ``r += k (theta - r) dt + sigma sqrt(max(r, 0)) dM`` from r0: a second
    solver of the paper's equation, with no square-root transform and no Ito
    correction.  Its left-point sums converge to the Ito integral against
    the Brownian part and to the Young integral against the fractional one.
    """
    r = np.full(len(increments), params.r0)
    for dm in increments.T:
        r += params.k * (params.theta - r) * dt + params.sigma * np.sqrt(np.maximum(r, 0.0)) * dm
    return r


def coupled_paths(spec, horizon_t, n_fine, coarse_list, seed):
    """One seed's driver on ``n_fine`` steps, then its block sums onto each coarse grid: run_convergence's views."""
    fine = build_mixed(spec, GridSpec(horizon_t, n_fine), seed)
    return [fine] + [
        NoisePath(GridSpec(horizon_t, n), _block_sums(fine.increments, n), seed=seed)
        for n in coarse_list
    ]


def read_csv_rows(path):
    """Parse a CLI CSV file into (header_fields, data_rows, footer_dict).

    Data cells are converted with float() when possible; empty cells map
    to None and the literal true/false to booleans.  A footer line of
    key=value pairs (convergence reports) is returned separately.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle]
    header = lines[0].split(",")
    rows = []
    footer = None
    for line in lines[1:]:
        if "=" in line:
            footer = {}
            for part in line.split(","):
                key, _, raw = part.partition("=")
                footer[key] = float(raw)
            continue
        cells = []
        for cell in line.split(","):
            if cell == "":
                cells.append(None)
            elif cell == "true":
                cells.append(True)
            elif cell == "false":
                cells.append(False)
            else:
                cells.append(float(cell))
        rows.append(cells)
    return header, rows, footer


def read_trajectory_rows(path):
    """Parse a simulate CSV into a list of (path_id, t, z, r) tuples."""
    header, rows, footer = read_csv_rows(path)
    assert header == ["path_id", "t", "z", "r"]
    assert footer is None
    return [(int(pid), t, z, r) for pid, t, z, r in rows]


_CRITERION_TITLES = {
    "test_criterion_1": "bracket identity and QV of the mixed driver",
    "test_criterion_2": "discrete telescoping identity (1e6 fuzz cases)",
    "test_criterion_3": "implicit step vs bisection oracle (1e5 tuples)",
    "test_criterion_4": "positivity with shrinking Feller margin",
    "test_criterion_5": "self-convergence order band",
    "test_criterion_6": "degenerate classical mean oracle",
    "test_criterion_7": "fBm generator cross-validation",
    "test_criterion_8": "pathwise uniform bound, zero violations",
    "test_criterion_9": "byte-identical CLI reruns",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in report.nodeid:
                name = report.nodeid.split("::")[-1].split("[")[0]
                key = "_".join(name.split("_")[:3])  # test_criterion_N
                title = _CRITERION_TITLES.get(key, name)
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append((key, f"{verdict}  {key.replace('test_', '')}: {title}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(set(lines)):
            terminalreporter.write_line(line)
