"""The package's public names, pinned: adding or removing one is a visible
edit to this list.  The search entry points' signatures are pinned too, so
a refactor of the search layer cannot reshape them silently."""

import inspect

import hvsinglet
from hvsinglet import inequalities

PUBLIC = [
    "CapP",
    "ConfigError",
    "ConstantP",
    "FSpec",
    "HiddenState",
    "InequalityReport",
    "InvalidModelError",
    "MCEstimate",
    "MalusReport",
    "ModelFamily",
    "ModelParams",
    "Plane",
    "PlaneAverageSpec",
    "ProbabilityTable",
    "RunConfig",
    "Settings",
    "ThresholdResult",
    "Triad",
    "UndefinedConditionalError",
    "UnitVector3",
    "VerificationReport",
    "ViolationWindow",
    "analytic_correlator",
    "branciard_bound",
    "branciard_settings",
    "branciard_value",
    "chsh_bound",
    "chsh_optimal_settings",
    "chsh_value",
    "conditional",
    "correlators",
    "cross",
    "dot",
    "geometry",
    "harness",
    "inequalities",
    "joint",
    "leggett_bound",
    "leggett_value",
    "make_rng",
    "malus_check",
    "margin",
    "marginal",
    "max_violation",
    "mc_correlator",
    "models",
    "orthogonal_plane",
    "outcome_dependence_witness",
    "parse_config",
    "plane_avg_correlator",
    "run_scan",
    "run_single",
    "run_verify",
    "sample_hidden",
    "sample_unit_uniform",
    "sphere_moment_oracle",
    "threshold",
    "vectors_in_plane",
    "violation_window",
    "xy_plane",
]


def test_public_names_are_pinned():
    assert sorted(hvsinglet.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(hvsinglet, name) is not None


SEARCH_SIGNATURES = {
    "violation_window": (
        "(name: 'str', params: 'ModelParams', variable: 'str', "
        "domain: 'tuple[float, float]', tol: 'float' = 1e-09, *, "
        "phi: 'float | None' = None) -> 'ViolationWindow'"
    ),
    "max_violation": (
        "(name: 'str', params: 'ModelParams', variable: 'str', "
        "domain: 'tuple[float, float]', tol: 'float' = 1e-10) "
        "-> 'tuple[float, float]'"
    ),
    "threshold": (
        "(name: 'str', params: 'ModelParams', variable: 'str', "
        "domain: 'tuple[float, float]', tol: 'float' = 1e-09, *, "
        "phi: 'float | None' = None) -> 'ThresholdResult'"
    ),
    "margin_function": (
        "(name: 'str', params: 'ModelParams', variable: 'str', *, "
        "phi: 'float | None' = None) -> 'Callable[[np.ndarray], np.ndarray]'"
    ),
    "scan_values": (
        "(name: 'str', params: 'ModelParams', variable: 'str', xs: 'np.ndarray', *, "
        "phi: 'float | None' = None) -> 'tuple[np.ndarray, np.ndarray]'"
    ),
}


def test_search_signatures_are_pinned():
    for name, signature in SEARCH_SIGNATURES.items():
        assert str(inspect.signature(getattr(inequalities, name))) == signature, name
