"""Local hidden-variable models of the spin singlet.

Three stochastic model families (a damped-correlation family, a cross-term
family, and a cubic-correlation family) alongside the quantum singlet
reference, with the machinery to score them against the CHSH, Leggett, and
Branciard inequalities: analytic correlators, seeded Monte-Carlo estimation,
plane-averaged quadrature, window/threshold searches, and a closed-form
verification suite behind the ``hv`` command line.
"""

__version__ = "0.1.0"

from .geometry import (
    Plane,
    Triad,
    UnitVector3,
    branciard_settings,
    chsh_optimal_settings,
    cross,
    dot,
    make_rng,
    orthogonal_plane,
    sample_unit_uniform,
    vectors_in_plane,
    xy_plane,
)
from .models import (
    CapP,
    ConstantP,
    FSpec,
    HiddenState,
    InvalidModelError,
    MalusReport,
    ModelFamily,
    ModelParams,
    ProbabilityTable,
    Settings,
    UndefinedConditionalError,
    conditional,
    joint,
    malus_check,
    marginal,
    outcome_dependence_witness,
    sample_hidden,
)
from .correlators import (
    MCEstimate,
    PlaneAverageSpec,
    analytic_correlator,
    mc_correlator,
    plane_avg_correlator,
    sphere_moment_oracle,
)
from .inequalities import (
    InequalityReport,
    ThresholdResult,
    ViolationWindow,
    branciard_bound,
    branciard_value,
    chsh_bound,
    chsh_value,
    leggett_bound,
    leggett_value,
    margin,
    max_violation,
    threshold,
    violation_window,
)
from .harness import (
    ConfigError,
    RunConfig,
    VerificationReport,
    parse_config,
    run_scan,
    run_single,
    run_verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
