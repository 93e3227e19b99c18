"""Boundary fuzz of the library's arguments: every public constructor and
function that takes a real, a count, a name or a vector is called with
arguments drawn well-formed or malformed (wrong types, nan and +-inf, zero,
negative and fractional sizes, short tuples, unknown names).  A call either
returns or raises one ValueError (or a subclass) with a one-line message;
any other exception fails the test.

The other arguments (models, settings, planes, tables, generators) are
always well-formed library objects: their constructors are fuzzed here on
their own.  Sizes stay small: n <= 10^4 samples, trials <= 50, never more
shards than `_usable_cpus()`, and the searches scan phi, so one example
takes milliseconds.
"""

import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvsinglet
from hvsinglet import (
    CapP,
    ConstantP,
    FSpec,
    HiddenState,
    InvalidModelError,
    ModelFamily,
    ModelParams,
    Plane,
    PlaneAverageSpec,
    ProbabilityTable,
    Settings,
    Triad,
    UnitVector3,
    branciard_bound,
    branciard_settings,
    branciard_value,
    conditional,
    joint,
    leggett_bound,
    leggett_value,
    make_rng,
    malus_check,
    margin,
    marginal,
    max_violation,
    mc_correlator,
    orthogonal_plane,
    outcome_dependence_witness,
    plane_avg_correlator,
    sphere_moment_oracle,
    threshold,
    vectors_in_plane,
    violation_window,
    xy_plane,
)
from hvsinglet.correlators import _usable_cpus
from hvsinglet.geometry import X, Y, Z
from hvsinglet.inequalities import (
    INEQUALITIES,
    SCAN_VARIABLES,
    bhv_chsh_search,
    lhv_branciard_search,
    lhv_leggett_search,
    margin_function,
    scan_values,
)

PI = math.pi

# ------------------------------- argument slots ------------------------------

# values that are no number, vector or name any argument takes
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=2), st.just(object()),
                 st.sampled_from([math.nan, math.inf, -math.inf]))


def real(lo: float, hi: float):
    """A real in [lo, hi], or any float (huge, nan, +-inf), or junk."""
    return st.one_of(st.floats(lo, hi), st.floats(allow_nan=True, allow_infinity=True), junk)


def count(lo: int, hi: int):
    """A count in [lo, hi], or one below lo, or a fraction, or junk; never
    an integer above ``hi``, so no call allocates more than it allows."""
    return st.one_of(st.integers(lo, hi), st.integers(-5, lo - 1),
                     st.floats(-5.0, float(hi)), junk)


def name(*names):
    return st.one_of(st.sampled_from(names), st.text(max_size=5), junk)


floats3 = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
# three finite reals, or the wrong length, a nan or junk in place
triple = st.one_of(floats3, st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
                   st.tuples(junk, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), junk)
# a UnitVector3, or three bare reals, or the wrong length, or junk
vector = st.one_of(st.sampled_from([X, Y, Z, -X, UnitVector3.normalized(0.6, 0.0, 0.8)]),
                   floats3, st.lists(st.floats(-1.0, 1.0), max_size=4), junk)
settings4 = st.one_of(st.none(), st.tuples(vector, vector, vector, vector),
                      st.lists(st.sampled_from([X, Y, Z]), max_size=5), junk)


def domain(lo: float, hi: float):
    """A domain pair inside [lo, hi], or a reversed, infinite or short one, or junk."""
    return st.one_of(st.tuples(st.floats(lo, lo + 0.2 * (hi - lo)), st.just(hi)),
                     st.tuples(real(lo, hi), real(lo, hi)),
                     st.lists(st.floats(lo, hi), max_size=3), junk)


rng = st.integers(0, 9).map(make_rng)
models = st.sampled_from([ModelParams.qm(), ModelParams.fhv(0.1), ModelParams.shv(),
                          ModelParams.thv(1.0)])
# the searches get models whose model-parameter scans raise at the first
# value (qm reads none, and shv only p_m), so a search only scans phi
search_models = st.sampled_from([ModelParams.qm(), ModelParams.shv()])
search_variables = name("phi", "eta", "zeta")
table = ProbabilityTable(0.1, 0.2, 0.3, 0.4)
fhv = ModelParams.fhv(0.5)


def kw(**slots):
    return st.fixed_dictionaries(slots)


def searched(search):
    """A search call: (name, params, variable, domain, tol) and a fixed phi."""
    return (search, (name(*INEQUALITIES), search_models, search_variables, domain(-PI, PI),
                     real(1e-10, 1e-3)), kw(phi=st.one_of(st.none(), real(0.0, PI))))


# Each covered name: the call and the strategies of its positional and keyword
# arguments.
CALLS = {
    "UnitVector3": (UnitVector3, (real(-1, 1), real(-1, 1), real(-1, 1)), kw()),
    "UnitVector3.normalized": (UnitVector3.normalized, (real(-2, 2),) * 3, kw()),
    "UnitVector3.from_array": (UnitVector3.from_array, (triple,), kw()),
    "Plane": (Plane, (vector, vector, vector), kw()),
    "Plane.with_normal": (Plane.with_normal, (vector,), kw()),
    "Triad": (Triad, (vector, vector, vector), kw()),
    "branciard_settings": (branciard_settings, (real(0, PI),), kw()),
    "make_rng": (make_rng, (count(0, 2**32),), kw()),
    "vectors_in_plane": (vectors_in_plane, (st.just(xy_plane()), real(-PI, PI), real(-PI, PI)),
                         kw()),
    "FSpec": (FSpec, (real(0, 0.5), count(1, 3)), kw()),
    "ConstantP": (ConstantP, (triple,), kw()),
    "CapP": (CapP, (vector, real(0, PI), real(0, 2)), kw()),
    "ModelParams": (ModelParams, (st.one_of(st.sampled_from(list(ModelFamily)), name("fhv")),
                                  real(0, 1), real(0, 2)), kw()),
    "ModelParams.fhv": (ModelParams.fhv, (real(0, 1),), kw()),
    "ModelParams.thv": (ModelParams.thv, (real(0, 2),), kw()),
    "ModelParams.with_eta": (fhv.with_eta, (real(0, 1),), kw()),
    "ModelParams.with_zeta": (ModelParams.thv(0.0).with_zeta, (real(0, 2),), kw()),
    "ModelParams.with_pm": (ModelParams.shv().with_pm, (real(0, 2),), kw()),
    "ModelFamily": (ModelFamily, (name("fhv", "shv", "thv", "qm"),), kw()),
    "HiddenState": (HiddenState, (vector, vector, st.one_of(st.none(), triple)), kw()),
    "HiddenState.uv": (HiddenState.uv, (vector, vector), kw()),
    "HiddenState.carrier": (HiddenState.carrier, (triple,), kw()),
    "Settings": (Settings, (vector, vector), kw()),
    "ProbabilityTable": (ProbabilityTable, (real(0, 1),) * 4, kw()),
    "marginal": (marginal, (st.just(table), name("A", "B")), kw()),
    "conditional": (conditional, (st.just(table), st.one_of(st.sampled_from([1, -1]),
                                                            count(-1, 1))), kw()),
    "malus_check": (malus_check, (models, count(2, 200)), kw()),
    "outcome_dependence_witness": (outcome_dependence_witness,
                                   (st.sampled_from([fhv, ModelParams.shv()]), rng, count(1, 50)),
                                   kw()),
    "PlaneAverageSpec": (PlaneAverageSpec, (st.just(xy_plane()), real(-PI, PI), count(4, 64)),
                         kw()),
    "plane_avg_correlator": (plane_avg_correlator,
                             (models, st.just(PlaneAverageSpec(xy_plane(), 0.5, 16)),
                              real(-PI, PI)), kw()),
    "mc_correlator": (mc_correlator, (models, st.just(Settings(X, Y)), count(100, 10_000),
                                      count(0, 2**32), count(1, _usable_cpus())), kw()),
    "sphere_moment_oracle": (sphere_moment_oracle, (vector, vector, count(4, 32)), kw()),
    "margin": (margin, (name(*INEQUALITIES), models),
               kw(phi=st.one_of(st.none(), real(-PI, PI)), settings=settings4)),
    "leggett_value": (leggett_value, (models, st.just(xy_plane()),
                                      st.just(orthogonal_plane(xy_plane())), real(-PI, PI)),
                      kw()),
    "branciard_value": (branciard_value, (models, real(0, PI)), kw()),
    "leggett_bound": (leggett_bound, (real(-PI, PI),), kw()),
    "branciard_bound": (branciard_bound, (real(0, PI),), kw()),
    "violation_window": searched(violation_window),
    "max_violation": (max_violation, searched(max_violation)[1], kw()),
    "threshold": searched(threshold),
    "scan_values": (scan_values, (name(*INEQUALITIES), models, name(*SCAN_VARIABLES),
                                  st.one_of(st.lists(real(0, 1), max_size=3), junk)),
                    kw(phi=st.one_of(st.none(), real(0, PI)))),
    "margin_function": (lambda name, params, variable, xs, **phi:
                        margin_function(name, params, variable, **phi)(xs),
                        (name(*INEQUALITIES), models, name(*SCAN_VARIABLES),
                         st.one_of(st.lists(real(0, 1), max_size=3), junk)),
                        kw(phi=st.one_of(st.none(), real(0, PI)))),
    "bhv_chsh_search": (bhv_chsh_search, (rng, count(1, 50)), kw()),
    "lhv_leggett_search": (lhv_leggett_search, (rng, count(1, 50)), kw()),
    "lhv_branciard_search": (lhv_branciard_search, (rng, count(1, 50)), kw()),
}

# Every other public name, with the reason it is not fuzzed here.
EXCLUDED = {
    **dict.fromkeys(["correlators", "geometry", "harness", "inequalities", "models"],
                    "a module, not a call"),
    **dict.fromkeys(["dot", "cross", "chsh_value"],
                    "arithmetic on values its caller has already checked"),
    **dict.fromkeys(["RunConfig", "parse_config", "run_scan", "run_single", "run_verify"],
                    "takes parse_config's checked output; tests/test_cli_boundary.py "
                    "fuzzes config documents"),
    **dict.fromkeys(["ConfigError", "InvalidModelError", "UndefinedConditionalError"],
                    "an exception class"),
    **dict.fromkeys(["InequalityReport", "MCEstimate", "MalusReport", "ThresholdResult",
                     "VerificationReport", "ViolationWindow"],
                    "a result record the library builds from checked values"),
    **dict.fromkeys(["analytic_correlator", "joint", "orthogonal_plane", "sample_hidden",
                     "sample_unit_uniform"],
                    "takes only library objects, whose constructors are fuzzed here"),
    **dict.fromkeys(["chsh_bound", "chsh_optimal_settings", "xy_plane"], "takes no argument"),
}


def test_every_public_name_is_fuzzed_or_excluded():
    # the scan helpers and the three bound audits live in `inequalities` only
    covered = {key.split(".")[0] for key in CALLS} & set(hvsinglet.__all__)
    assert covered.isdisjoint(EXCLUDED)
    assert sorted(covered | EXCLUDED.keys()) == sorted(hvsinglet.__all__)


@pytest.mark.parametrize("key", CALLS)
def test_malformed_arguments_raise_one_line_value_errors(key):
    call, args, kwargs = CALLS[key]

    @given(args=st.tuples(*args), kwargs=kwargs)
    @settings(max_examples=25, deadline=timedelta(seconds=2), derandomize=True,
              database=None)
    def check(args, kwargs):
        try:
            call(*args, **kwargs)
        except ValueError as exc:
            message = str(exc)
            assert message and "\n" not in message, f"{key}: {message!r}"

    check()


fhv0 = ModelParams.fhv(0.0)
thv1 = ModelParams.thv(1.0)
pair = Settings(X, Y)
# Arguments the library once accepted (or silently ignored), or failed on
# with another exception (AttributeError, TypeError, numpy's zero-size
# error) or a misleading message: each now raises one ValueError naming the
# argument.  A row whose error is None was a wrong rejection: its call now
# returns the value in the message slot.
GAPS = {
    "constant-p-nan": (lambda: ConstantP((math.nan, 0, 0)),
                       InvalidModelError, "p0 component must be a finite number, got nan"),
    "settings-tuples": (lambda: Settings((1, 0, 0), (0, 1, 0)),
                        ValueError, r"setting a must be a UnitVector3, got \(1, 0, 0\)"),
    "chsh-settings-ints": (lambda: margin("chsh", ModelParams.qm(), settings=(1, 2, 3, 4)),
                           ValueError, "chsh setting a must be a UnitVector3, got 1"),
    "with-normal-tuple": (lambda: Plane.with_normal((0, 0, 1)),
                          ValueError, r"plane normal must be a UnitVector3, got \(0, 0, 1\)"),
    "threshold-tol-text": (lambda: threshold("chsh", fhv0, "eta", (0.0, 1.0), tol="x"),
                           ValueError, "tol must be a finite number, got 'x'"),
    "max-violation-tol-text": (lambda: max_violation("leggett", ModelParams.qm(), "phi",
                                                     (0.0, PI), tol="x"),
                               ValueError, "tol must be a finite number, got 'x'"),
    "threshold-short-domain": (lambda: threshold("chsh", fhv0, "eta", (0.0,)),
                               ValueError, r"domain must be a pair \(lo, hi\), got \(0.0,\)"),
    "witness-zero-trials": (lambda: outcome_dependence_witness(fhv, make_rng(0), trials=0),
                            ValueError, "trials must be at least 1"),
    "witness-fractional-trials": (lambda: outcome_dependence_witness(fhv, make_rng(0),
                                                                     trials=2.5),
                                  ValueError, "trials must be an integer, got 2.5"),
    "bhv-zero-trials": (lambda: bhv_chsh_search(make_rng(0), trials=0),
                        ValueError, "trials must be at least 1"),
    "bhv-negative-trials": (lambda: bhv_chsh_search(make_rng(0), trials=-5),
                            ValueError, "trials must be at least 1"),
    "leggett-audit-zero-trials": (lambda: lhv_leggett_search(make_rng(0), trials=0),
                                  ValueError, "trials must be at least 1"),
    "branciard-audit-zero-trials": (lambda: lhv_branciard_search(make_rng(0), trials=0),
                                    ValueError, "trials must be at least 1"),
    "rng-fractional-seed": (lambda: make_rng(1.5), ValueError, "seed must be an integer, got 1.5"),
    "phi-scan-fixed-phi": (lambda: scan_values("leggett", ModelParams.qm(), "phi", [0.3],
                                               phi=2.0),
                           ValueError, "phi is the scan variable; a fixed phi would be ignored"),
    "phi-window-fixed-phi": (lambda: violation_window("leggett", ModelParams.qm(), "phi",
                                                      (0.0, PI), phi=0.5),
                             ValueError, "phi is the scan variable; a fixed phi would be ignored"),
    "plane-average-nan-phi": (lambda: PlaneAverageSpec(xy_plane(), math.nan),
                              ValueError, "phi must be a finite number, got nan"),
    "hidden-tuples": (lambda: HiddenState(u=(0, 0, 1), v=(0, 0, 1)),
                      ValueError, r"hidden u must be a UnitVector3, got \(0, 0, 1\)"),
    "carrier-nan": (lambda: HiddenState.carrier((math.nan, 0, 0)),
                    ValueError, "hidden p component must be a finite number, got nan"),
    "fhv-bool-eta": (lambda: ModelParams.fhv(True),
                     InvalidModelError, "eta must be a finite number, got True"),
    "f-bool-power": (lambda: FSpec(0.5, True),
                     InvalidModelError, "f power must be an integer, got True"),
    "cap-tuple-axis": (lambda: CapP(axis=(0, 0, 1)),
                       InvalidModelError, r"cap axis must be a UnitVector3, got \(0, 0, 1\)"),
    # a rebinder refuses a field its family does not read, even at the default
    "with-eta-on-thv-at-default": (lambda: thv1.with_eta(0.0), InvalidModelError,
                                   "'eta' is a fhv parameter; the thv model ignores it"),
    "with-zeta-on-fhv-at-default": (lambda: ModelParams.fhv(0.1).with_zeta(0.0),
                                    InvalidModelError,
                                    "'zeta' is a thv parameter; the fhv model ignores it"),
    "with-eta-on-qm-at-default": (lambda: ModelParams.qm().with_eta(0.0), InvalidModelError,
                                  "'eta' is a fhv parameter; the qm model ignores it"),
    "with-pm-on-fhv": (lambda: ModelParams.fhv(0.1).with_pm(0.5), InvalidModelError,
                       "'p_m' is a shv parameter; the fhv model ignores it"),
    "with-pm-on-thv": (lambda: thv1.with_pm(0.5), InvalidModelError,
                       "'p_m' is a shv parameter; the thv model ignores it"),
    # a scan over a variable its family does not read
    "eta-scan-of-thv-at-default": (lambda: scan_values("chsh", ModelParams.thv(0.5), "eta",
                                                       [0.0, 0.0]),
                                   InvalidModelError,
                                   "'eta' is a fhv parameter; the thv model ignores it"),
    "zeta-scan-of-fhv-at-default": (lambda: scan_values("chsh", ModelParams.fhv(0.1), "zeta",
                                                        [0.0]),
                                    InvalidModelError,
                                    "'zeta' is a thv parameter; the fhv model ignores it"),
    "p_m-scan-of-fhv": (lambda: scan_values("chsh", ModelParams.fhv(0.1), "p_m", [0.5]),
                        InvalidModelError, "'p_m' is a shv parameter; the fhv model ignores it"),
    # a search's domain is checked at its ends before any value is computed
    "threshold-zeta-domain-end": (lambda: threshold("branciard", ModelParams.thv(0.0), "zeta",
                                                    (0.0, 3.0), phi=1.0),
                                  InvalidModelError, r"zeta = 3.0 fails the positivity audit "
                                  r"\(some joint probability would be negative\)"),
    # a hidden vector the family does not read
    "thv-hidden-v-not-minus-u": (lambda: joint(thv1, HiddenState(u=Z, v=Z), pair),
                                 InvalidModelError,
                                 r"thv hidden v must be -u \(the cubic family locks v = -u\)"),
    "fhv-hidden-p": (lambda: joint(fhv, HiddenState(u=Z, v=Z, p=(0, 0, 9)), pair),
                     InvalidModelError, "fhv hidden state takes no p"),
    "shv-hidden-u-v": (lambda: joint(ModelParams.shv(), HiddenState(u=Z, v=X, p=(0, 0, 0.1)),
                                     pair),
                       InvalidModelError, "shv hidden state takes no u and v"),
    # a squared norm that overflows or underflows still has a direction
    "normalize-huge": (lambda: UnitVector3.normalized(1e200, 0, 0), None, X),
    "normalize-tiny": (lambda: UnitVector3.from_array((1e-200, 0, 0)), None, X),
    "normalize-subnormal-square": (lambda: UnitVector3.normalized(3e-160, 4e-160, 0), None,
                                   UnitVector3(0.6, 0.8, 0.0)),
    "second-angle-overflow": (lambda: vectors_in_plane(xy_plane(), 1e308, 1e308),
                              ValueError, r"theta \+ phi must be a finite number, got inf"),
}


@pytest.mark.parametrize("key", GAPS)
def test_each_gap_raises_one_named_value_error(key):
    call, error, message = GAPS[key]
    if error is None:
        assert call() == message
        return
    with pytest.raises(error, match=f"^{message}$") as caught:
        call()
    assert type(caught.value) is error
