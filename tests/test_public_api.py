"""The package's public names, pinned: adding or removing one is a visible
edit to this list."""

import hvsinglet

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
