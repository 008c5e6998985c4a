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

from .bracket import BracketEstimate, discrete_ito_iterated
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
from .noise import (
    CHOLESKY_MAX_STEPS,
    STREAM_VERSION,
    CirculantEmbeddingError,
    FactorizationError,
    GridSpec,
    NoiseError,
    NoisePath,
    fbm_covariance,
    sample_brownian_increments,
    sample_fbm_cholesky,
    sample_fbm_davies_harte,
    substream_seed,
)
from .scheme import (
    CirParams,
    Trajectory,
    r_to_z,
    simulate_z,
    simulate_z_batch,
    singular_drift,
    z_to_r,
)

__version__ = "0.1.0"

__all__ = [
    "BracketEstimate",
    "CHOLESKY_MAX_STEPS",
    "CirParams",
    "CirculantEmbeddingError",
    "ConvergenceReport",
    "FactorizationError",
    "GridSpec",
    "McStats",
    "MixedSpec",
    "NoiseError",
    "NoisePath",
    "PositivityReport",
    "STREAM_VERSION",
    "Trajectory",
    "build_mixed",
    "discrete_ito_iterated",
    "fbm_covariance",
    "r_to_z",
    "run_bracket",
    "run_convergence",
    "run_mc_stats",
    "run_positivity",
    "sample_brownian_increments",
    "sample_fbm_cholesky",
    "sample_fbm_davies_harte",
    "simulate_z",
    "simulate_z_batch",
    "singular_drift",
    "substream_seed",
    "z_to_r",
]
