"""Negative-eigenvalue counting for randomly bumped 1-D Schrodinger operators.

The operator is H = -d^2/dx^2 + V - W on the half axis with a Dirichlet
condition at the origin, where V is a random arrangement of rectangular
bumps and W is a nonnegative decaying envelope.  The package samples
realizations, counts negative eigenvalues on truncations by two
independent certified methods, evaluates the closed-form borderline
constants for the decay of W, and runs seeded growth experiments that
exhibit the finite/infinite transition empirically.
"""

__version__ = "0.1.0"

from .randpot import (
    CoverageError,
    GapDistribution,
    Perturbation,
    PotentialRealization,
    RealizationParseError,
    bernoulli_lattice,
    build_realization,
    load_realization,
    mean_spacing,
    sample_gaps,
    sample_realization,
    save_realization,
)
from .spectral import (
    CountCertificate,
    NumericalError,
    PiecewisePotential,
    WellGeometry,
    bracket_certificate,
    count_negative_exact,
    count_with_bracketed_w,
    decoupled_count,
    edge_penetration_depth,
    fd_inertia_count,
    sandwich_counts,
    well_ground_asymptotic,
    well_ground_state,
)
from .theory import (
    ApproxWeights,
    BorderlineLaw,
    DiagnosticSum,
    approx_weights,
    bc_sum,
    borderline,
    expectation_bounds,
)
from .montecarlo import (
    CountEstimate,
    ExperimentConfig,
    GrowthReport,
    TrialResult,
    estimate_expected_count,
    run_experiment,
    run_trial,
)

__all__ = [
    "__version__",
    "GapDistribution", "Perturbation", "PotentialRealization",
    "CoverageError", "RealizationParseError",
    "sample_gaps", "sample_realization", "build_realization", "bernoulli_lattice",
    "mean_spacing", "save_realization", "load_realization",
    "PiecewisePotential", "CountCertificate", "WellGeometry", "NumericalError",
    "count_negative_exact", "fd_inertia_count", "count_with_bracketed_w",
    "bracket_certificate", "sandwich_counts",
    "decoupled_count", "well_ground_state", "well_ground_asymptotic",
    "edge_penetration_depth",
    "BorderlineLaw", "ApproxWeights", "DiagnosticSum",
    "borderline", "approx_weights", "bc_sum", "expectation_bounds",
    "ExperimentConfig", "TrialResult", "GrowthReport", "CountEstimate",
    "run_trial", "run_experiment", "estimate_expected_count",
]
