"""Simulation and validation toolkit for a mixed fractional square-root
short-rate model.

The driver is the sum of a Brownian motion and an independent fractional
Brownian motion with hurst exponent above 1/2.  The rate is simulated
through its square-root transform with a drift-implicit Euler scheme
whose steps solve a quadratic in closed form, which keeps every path
strictly positive for any step size.  Companion modules estimate the
discrete bracket of the driver, audit positivity and pathwise bounds
over ensembles, and measure the scheme's self-convergence order.
"""

from .bracket import BracketEstimate
from .experiments import (
    ConvergenceReport,
    McStats,
    PositivityReport,
    run_bracket,
    run_convergence,
    run_mc_stats,
    run_positivity,
)
from .mixed import MixedSpec, build_mixed
from .noise import STREAM_VERSION, CirculantEmbeddingError, GridSpec, NoiseError, NoisePath, substream_seed
from .scheme import CirParams, Trajectory, r_to_z, simulate_z, singular_drift, z_to_r

__version__ = "0.1.0"

__all__ = [
    "BracketEstimate",
    "CirParams",
    "CirculantEmbeddingError",
    "ConvergenceReport",
    "GridSpec",
    "McStats",
    "MixedSpec",
    "NoiseError",
    "NoisePath",
    "PositivityReport",
    "STREAM_VERSION",
    "Trajectory",
    "build_mixed",
    "r_to_z",
    "run_bracket",
    "run_convergence",
    "run_mc_stats",
    "run_positivity",
    "simulate_z",
    "singular_drift",
    "substream_seed",
    "z_to_r",
]
