"""The array-first margin layer against scalar references, and the lockstep
search helpers against one-problem-at-a-time runs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvsinglet import inequalities as inequalities_module
from hvsinglet import models as models_module
from hvsinglet.correlators import PlaneAverageSpec, analytic_correlator, plane_avg_correlator
from hvsinglet.geometry import (
    Plane,
    UnitVector3,
    branciard_settings,
    chsh_optimal_settings,
    orthogonal_plane,
    vectors_in_plane,
)
from hvsinglet.inequalities import (
    BLOCK_PAIRS,
    BRANCIARD_QM_ARGMAX_SIN,
    LEGGETT_QM_ARGMAX_PHI,
    MAX_SEED_NODES,
    SCAN_NODES,
    THRESHOLD_NODES,
    _boundary,
    _golden_max,
    _max_violations,
    _maximize,
    _violation_windows,
    branciard_bound,
    default_leggett_planes,
    leggett_bound,
    leggett_value,
    margin,
    margin_function,
    max_violation,
    scan_values,
    threshold,
    violation_window,
)
from hvsinglet.models import (
    CapP,
    ConstantP,
    InvalidModelError,
    ModelParams,
    Settings,
    thv_positivity_margin,
)

PI = math.pi
ORDER = 16

unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: 0.1 < math.sqrt(sum(c * c for c in v))
).map(lambda v: UnitVector3.normalized(*v))

# one strategy per family, the cross-term family as a constant and as a cap
# p-field
FAMILY_MODELS = {
    "qm": st.just(ModelParams.qm()),
    "fhv": st.floats(0.0, 1.0).map(ModelParams.fhv),
    "thv": st.floats(0.0, 1.8).map(ModelParams.thv),
    "shv-constant": st.builds(lambda d, m: ModelParams.shv(ConstantP(tuple(m * d.arr))),
                              unit, st.floats(0.0, 1.0)),
    "shv-cap": st.builds(lambda axis, half, m: ModelParams.shv(CapP(axis, half, m)),
                         unit, st.floats(0.0, PI / 2), st.floats(0.0, 1.0)),
}
models = st.one_of(*FAMILY_MODELS.values())
phis = st.lists(st.floats(0.0, PI), min_size=1, max_size=12)


def _reference_plane_avg(params, plane, phi, order=ORDER):
    """Node-by-node scalar loop over the in-plane orientation."""
    total = 0.0
    for j in range(order):
        a, b = vectors_in_plane(plane, j * 2.0 * PI / order, phi)
        total += analytic_correlator(params, Settings(a, b))
    return total / order


def _reference_leggett_margin(params, phi):
    p, q = default_leggett_planes(params)
    pairs = [(p, q)]
    if params.family.value == "shv":
        flipped = type(p).with_normal(-p.n)
        pairs.append((flipped, orthogonal_plane(flipped)))
    best = max(
        sum(abs(_reference_plane_avg(params, pl, phi) + _reference_plane_avg(params, pl, 0.0))
            for pl in pair)
        for pair in pairs
    )
    return best - leggett_bound(phi)


def _reference_branciard_margin(params, phi):
    triad, bs, bps = branciard_settings(phi)
    total = sum(
        abs(analytic_correlator(params, Settings(ai, bi))
            + analytic_correlator(params, Settings(ai, bpi)))
        for ai, bi, bpi in zip(triad.axes, bs, bps)
    )
    return total / 3.0 - branciard_bound(phi)


class TestArrayMargins:
    @settings(max_examples=40, deadline=None)
    @given(params=models, xs=phis, name=st.sampled_from(["leggett", "branciard"]))
    def test_phi_grid_matches_scalar_margin(self, params, xs, name):
        got = margin_function(name, params, "phi")(np.array(xs))
        want = [margin(name, params, phi=x).margin for x in xs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(params=models, xs=st.lists(st.floats(0.0, PI), min_size=1, max_size=4))
    def test_matches_node_by_node_reference(self, params, xs):
        leggett = margin_function("leggett", params, "phi")(np.array(xs))
        branciard = margin_function("branciard", params, "phi")(np.array(xs))
        for x, lg, br in zip(xs, leggett, branciard):
            assert lg == pytest.approx(_reference_leggett_margin(params, x), abs=1e-12)
            assert br == pytest.approx(_reference_branciard_margin(params, x), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        case=st.sampled_from([
            (ModelParams.fhv(0.0), "eta", 1.0),
            (ModelParams.thv(0.0), "zeta", 1.8),
            (ModelParams.shv(ConstantP((0.3, -0.2, 0.4))), "p_m", 1.5),
            (ModelParams.shv(CapP(UnitVector3.normalized(1, 1, 0), 0.5, 0.5)), "p_m", 1.5),
        ]),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        name=st.sampled_from(["chsh", "leggett", "branciard"]),
        phi=st.floats(0.0, PI),
    )
    def test_parameter_grid_matches_scalar_margin(self, case, fractions, name, phi):
        base, variable, top = case
        values = [f * top for f in fractions]
        fixed = None if name == "chsh" else phi
        got = margin_function(name, base, variable, phi=fixed)(np.array(values))
        rebind = {"eta": base.with_eta, "zeta": base.with_zeta, "p_m": base.with_pm}[variable]
        want = [margin(name, rebind(v), phi=fixed).margin for v in values]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestUnreadArguments:
    """A scan over a parameter its family does not read, phi on CHSH, and
    settings on Leggett or Branciard raise before any value is computed."""

    @pytest.fixture(autouse=True)
    def no_values(self, monkeypatch):
        def value_function(*args, **kwargs):
            raise AssertionError("a value was computed before the arguments were checked")

        monkeypatch.setattr(inequalities_module, "_value_function", value_function)

    @pytest.mark.parametrize("name", ["chsh", "leggett", "branciard"])
    def test_eta_grid_of_the_singlet_rejected(self, name):
        # the singlet does not read eta, so a sweep over it would be flat
        phi = None if name == "chsh" else 1.0
        with pytest.raises(InvalidModelError, match="'eta' is a fhv parameter"):
            margin_function(name, ModelParams.qm(), "eta", phi=phi)(np.array([0.5, 1.0]))

    def test_zeta_scan_of_the_singlet_rejected(self):
        with pytest.raises(InvalidModelError, match="'zeta' is a thv parameter"):
            scan_values("chsh", ModelParams.qm(), "zeta", np.array([0.1, 0.2]))

    @pytest.mark.parametrize("params, variable", [(ModelParams.thv(0.5), "eta"),
                                                  (ModelParams.fhv(0.1), "zeta")])
    def test_unread_variable_rejected_at_its_default_too(self, params, variable):
        # every point rebuilds the base model unchanged, so no model rejects it
        with pytest.raises(InvalidModelError, match=f"'{variable}' is a .* model ignores it"):
            scan_values("chsh", params, variable, np.array([0.0, 0.0]))

    def test_phi_on_chsh_margin_rejected(self):
        with pytest.raises(ValueError, match="chsh has no phi dependence"):
            margin("chsh", ModelParams.qm(), phi=1.0)

    @pytest.mark.parametrize("name", ["leggett", "branciard"])
    def test_settings_on_an_angle_inequality_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} takes no settings"):
            margin(name, ModelParams.qm(), phi=0.5, settings=chsh_optimal_settings())

    @pytest.mark.parametrize("search", [
        lambda: threshold("chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0), phi=2.0),
        lambda: scan_values("chsh", ModelParams.fhv(0.0), "eta", np.array([0.1]), phi=2.0),
        lambda: violation_window("chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0), phi=2.0),
        lambda: margin_function("chsh", ModelParams.fhv(0.0), "eta", phi=2.0),
    ], ids=["threshold", "scan_values", "violation_window", "margin_function"])
    def test_phi_on_a_chsh_search_rejected(self, search):
        with pytest.raises(ValueError, match="chsh has no phi dependence"):
            search()


class TestOrientationInvariance:
    @pytest.mark.parametrize("family", FAMILY_MODELS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), normal=unit, phi=st.floats(-PI, PI),
           theta0=st.floats(0.0, 2.0 * PI))
    def test_one_pair_value_matches_plane_average(self, family, data, normal, phi, theta0):
        # the search scores each plane at the one pair a = e1; the 256-node
        # orientation average at any node phase must give the same F
        params = data.draw(FAMILY_MODELS[family])
        p = Plane.with_normal(normal)
        q = orthogonal_plane(p)
        want = sum(
            abs(plane_avg_correlator(params, PlaneAverageSpec(plane, phi), theta0)
                + plane_avg_correlator(params, PlaneAverageSpec(plane, 0.0), theta0))
            for plane in (p, q))
        assert leggett_value(params, p, q, phi) == pytest.approx(want, rel=0.0, abs=1e-13)


# margins of d = root - x, positive below the root, that defeat plain false
# position: a step, a root of order nine, and a kink at the root
HARD_MARGINS = {
    "step": lambda d: 1.0 if d > 0.0 else -1.0,
    "flat": lambda d: d**9,
    "kink": lambda d: 1e-4 * d if d > 0.0 else d,
}


def _recording(f):
    calls = []

    def g(x, i):
        calls.extend(zip(i.tolist(), np.asarray(x).tolist()))
        return f(x, i)

    return g, calls


def _per_problem(calls, k):
    return [x for i, x in calls if i == k]


def _solo(f, k):
    """Problem k of a batch, as a batch of one."""
    return lambda x, i: f(x, np.full(len(i), k))


class TestLockstep:
    @settings(max_examples=30, deadline=None)
    @given(roots=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=8),
           tol=st.sampled_from([1e-6, 1e-10, 1e-13]))
    def test_bisection_matches_one_at_a_time(self, roots, tol):
        roots = np.array(roots)
        widths = 0.05 + 0.9 * ((roots * 7.3) % 1.0)

        def f(x, i):
            return np.sin(3.0 * (roots[i] - x))

        lo, hi = roots - widths * 0.4, roots + widths * 0.6
        g, calls = _recording(f)
        batch = _boundary(g, lo, hi, tol)
        for k in range(len(roots)):
            gk, solo_calls = _recording(_solo(f, k))
            alone = _boundary(gk, lo[k:k + 1], hi[k:k + 1], tol)
            assert batch[k] == alone[0]
            assert _per_problem(calls, k) == [pt for _, pt in solo_calls]

    @settings(max_examples=60, deadline=None)
    @given(cases=st.lists(st.tuples(st.sampled_from(sorted(HARD_MARGINS)),
                                    st.floats(0.05, 0.95), st.floats(0.01, 0.99),
                                    st.floats(-6.0, 0.0), st.booleans()),
                          min_size=1, max_size=8),
           tol=st.sampled_from([1e-6, 1e-10, 1e-13]))
    def test_hard_margins_take_at_most_twice_bisection(self, cases, tol):
        # margins on which plain false position stalls: each problem still
        # stops within 2 evaluations per halving of its bracket, plus four
        kinds, roots, where, log_width, rising = (np.array(c) for c in zip(*cases))
        width = 10.0 ** log_width
        lo = roots - where * width
        hi = lo + width
        sign = np.where(rising, -1.0, 1.0)  # rising: positive above the root

        def f(x, i):
            return sign[i] * np.array([HARD_MARGINS[k](r - y)
                                       for k, r, y in zip(kinds[i], roots[i], x)])

        g, calls = _recording(f)
        got = _boundary(g, lo, hi, tol)
        for k in range(len(roots)):
            bound = 2 * math.ceil(math.log2((hi[k] - lo[k]) / tol)) + 4
            assert len(_per_problem(calls, k)) <= bound
            assert abs(got[k] - roots[k]) <= tol

    @settings(max_examples=30, deadline=None)
    @given(peaks=st.lists(st.floats(0.1, 0.9), min_size=1, max_size=8),
           tol=st.sampled_from([1e-6, 1e-9]))
    def test_golden_matches_one_at_a_time(self, peaks, tol):
        peaks = np.array(peaks)

        def f(x, i):
            return np.cos(2.0 * (x - peaks[i])) + 0.1 * (x - peaks[i]) ** 3

        lo, hi = np.zeros_like(peaks), np.ones_like(peaks)
        g, calls = _recording(f)
        x, fx = _golden_max(g, lo, hi, tol)
        for k in range(len(peaks)):
            gk, solo_calls = _recording(_solo(f, k))
            xk, fk = _golden_max(gk, lo[k:k + 1], hi[k:k + 1], tol)
            assert (x[k], fx[k]) == (xk[0], fk[0])
            assert _per_problem(calls, k) == [pt for _, pt in solo_calls]

    def test_margin_maximization_matches_one_at_a_time(self):
        family = [ModelParams.fhv(eta) for eta in (0.0, 0.004, 0.011, 0.02)]
        functions = [margin_function("leggett", m, "phi") for m in family]

        def f(x, i):
            out = np.empty(len(x))
            for k in np.unique(i):
                out[i == k] = functions[k](x[i == k])
            return out

        x, fx = _maximize(f, len(family), (0.0, PI), 64, 1e-10)
        for k in range(len(family)):
            xk, fk = _maximize(_solo(f, k), 1, (0.0, PI), 64, 1e-10)
            assert (x[k], fx[k]) == (xk[0], fk[0])

    @pytest.mark.parametrize("name", ["leggett", "branciard"])
    def test_batched_windows_match_public_calls(self, name):
        # eta = 0 is the singlet correlator: on (0.1, pi) its window is cut
        # by the domain edge; the larger eta lie above both thresholds
        family = [ModelParams.fhv(eta) for eta in (0.0, 0.005, 0.02, 0.05, 0.3)]
        for domain in ((0.0, PI), (0.1, PI)):
            batch = _violation_windows(name, family, "phi", domain, 1e-10)
            alone = [violation_window(name, m, "phi", domain, 1e-10)
                     for m in family]
            assert [_window_bits(w) for w in batch] == [_window_bits(w) for w in alone]
        # the (0.1, pi) batch holds empty, edge-cut and inner windows
        on_edge = [w.lower == domain[0] for w in batch if not w.empty]
        assert batch[-1].empty and any(on_edge) and not all(on_edge)

    @pytest.mark.parametrize("name", ["leggett", "branciard"])
    def test_batched_maxima_match_public_calls(self, name):
        family = [ModelParams.fhv(eta) for eta in (0.0, 0.005, 0.02, 0.05, 0.3)]
        x, fx = _max_violations(name, family, "phi", (0.0, PI))
        alone = [max_violation(name, m, "phi", (0.0, PI)) for m in family]
        assert np.array([x, fx]).T.tobytes() == np.array(alone).tobytes()

    def test_model_variable_batch_matches_public_calls(self):
        # p-fields whose mean shrinks with the cap's half angle: the windows
        # in p_m share the edge p_m = 0 and end at different inner points
        family = [ModelParams.shv(CapP(UnitVector3.normalized(0.0, 0.0, 1.0), h, 0.5))
                  for h in (0.0, 0.6, 1.2)]
        batch = _violation_windows("leggett", family, "p_m", (0.0, 2.0), 1e-8, phi=0.4)
        alone = [violation_window("leggett", m, "p_m", (0.0, 2.0), 1e-8, phi=0.4)
                 for m in family]
        assert [_window_bits(w) for w in batch] == [_window_bits(w) for w in alone]
        assert len({w.upper for w in batch}) == len(family)
        x, fx = _max_violations("branciard", family, "p_m", (0.0, 2.0), 1e-6)
        alone = [max_violation("branciard", m, "p_m", (0.0, 2.0), 1e-6) for m in family]
        assert np.array([x, fx]).T.tobytes() == np.array(alone).tobytes()


def _window_bits(w):
    """A window with its endpoints as bytes, so equal NaNs compare equal."""
    return w.variable, w.empty, np.array([w.lower, w.upper]).tobytes()


class TestPositivityAudit:
    def test_batched_zeta_sweep_rejects_inadmissible_zeta(self):
        f = margin_function("branciard", ModelParams.thv(0.0), "zeta", phi=1.0)
        with pytest.raises(InvalidModelError, match="positivity"):
            f(np.array([0.5, 1.0, 2.5]))

    def test_every_evaluated_zeta_is_audited(self, monkeypatch):
        audited = []
        original = models_module.thv_positivity_margin

        def record(zeta):
            audited.append(zeta)
            return original(zeta)

        monkeypatch.setattr(models_module, "thv_positivity_margin", record)
        zetas = [0.1, 0.7, 1.3]
        margin_function("leggett", ModelParams.thv(0.0), "zeta", phi=0.4)(
            np.array(zetas))
        assert audited == zetas
        audited.clear()
        threshold("branciard", ModelParams.thv(0.0), "zeta", (0.0, 1.0), 1e-6, phi=1.0)
        grid = np.linspace(0.0, 1.0, THRESHOLD_NODES).tolist()
        # the range check rebinds the domain's ends first; zeta = 0 needs no audit
        assert audited[:THRESHOLD_NODES] == [1.0, *grid[1:]]


# ------------------------- bit-for-bit layout guards -------------------------


def _uncached_audit(zeta):
    """The positivity audit as a grid search over the polar angles of a and
    b about u, refined four times around the worst cell: an independent
    oracle that the closed form must reproduce bit for bit."""
    lo_a, hi_a = 0.0, math.pi
    lo_b, hi_b = 0.0, math.pi
    n = 160
    best = math.inf
    for _ in range(4):
        alpha = np.linspace(lo_a, hi_a, n)
        beta = np.linspace(lo_b, hi_b, n)
        ca, cb = np.cos(alpha)[:, None], np.cos(beta)[None, :]
        cubic = zeta * ca**3 * cb**3
        worst = None
        for ab in (
            np.cos(alpha[:, None] - beta[None, :]),
            np.cos(alpha[:, None] + beta[None, :]),
        ):
            margin = 1.0 - np.abs(ab - cubic)
            idx = np.unravel_index(np.argmin(margin), margin.shape)
            if margin[idx] < best:
                best = float(margin[idx])
                worst = idx
        if worst is None:
            break
        da = (hi_a - lo_a) / (n - 1)
        db = (hi_b - lo_b) / (n - 1)
        lo_a = max(0.0, lo_a + (worst[0] - 1) * da)
        hi_a = min(math.pi, lo_a + 2 * da)
        lo_b = max(0.0, lo_b + (worst[1] - 1) * db)
        hi_b = min(math.pi, lo_b + 2 * db)
    return best


class TestBitIdenticalLayouts:
    def test_audit_matches_uncached_grids_on_a_zeta_grid(self):
        zetas = [*np.linspace(0.0, 2.2, 111).tolist(), 1.999, 2.0, 2.0 + 1e-9, 2.05,
                 5.0, 1e6]
        for zeta in zetas:
            got, want = thv_positivity_margin.__wrapped__(zeta), _uncached_audit(zeta)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), zeta
        assert thv_positivity_margin.__wrapped__(2.05) < -1e-3

    @settings(max_examples=40, deadline=None)
    @given(zeta=st.floats(0.0, 2.2))
    def test_audit_matches_uncached_grids_at_random_zeta(self, zeta):
        got = thv_positivity_margin.__wrapped__(zeta)
        assert np.float64(got).tobytes() == np.float64(_uncached_audit(zeta)).tobytes()


class TestSearchLayerMemory:
    def test_window_scan_peak_does_not_grow_with_problems(self):
        # without the grid's block cap, a scan's temporaries would grow with
        # the problems of one scan call
        step = max(1, BLOCK_PAIRS // SCAN_NODES)  # problems per scan block
        seeds = max(1, BLOCK_PAIRS // MAX_SEED_NODES)  # problems per seed-scan block
        family = [ModelParams.fhv(0.01 * k) for k in range(4 * max(step, seeds))]

        def peak(n):
            tracemalloc.start()
            try:
                _violation_windows("branciard", family[:n], "phi", (0.0, PI), 1e-10)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(step), peak(4 * step)
        assert large <= 1.5 * small

        # the maximizer's seed scan goes through the same blocked grid
        def max_peak(n):
            tracemalloc.start()
            try:
                _max_violations("branciard", family[:n], "phi", (0.0, PI))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert max_peak(4 * seeds) <= 1.5 * max_peak(seeds)


@pytest.fixture
def unevaluated(monkeypatch):
    """Margins that fail when evaluated, so a search that raises before its
    first evaluation is one that raises at once."""
    def margins(*args, **kwargs):
        def evaluate(*points):
            raise AssertionError("a margin was evaluated before the arguments were checked")
        return evaluate

    monkeypatch.setattr(inequalities_module, "_margins", margins)


class TestSearchArguments:
    """Arguments a search cannot honour (a tol that is not finite and
    positive, a reversed or infinite domain) raise one ValueError, from the
    check that `violation_window`, `max_violation`, `threshold` and the
    batched searches share, before any margin is evaluated."""

    tol_match = "tol must be at least 5e-324"
    domain_match = "domain must have lo < hi"

    def test_zero_tol(self, unevaluated):
        with pytest.raises(ValueError, match=self.tol_match):
            threshold("chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0), tol=0.0)

    def test_negative_tol(self, unevaluated):
        with pytest.raises(ValueError, match=self.tol_match):
            violation_window("leggett", ModelParams.fhv(0.5), "phi", (0.0, PI), tol=-1)

    def test_nan_tol(self, unevaluated):
        with pytest.raises(ValueError, match="tol must be a finite number, got nan"):
            threshold("chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0), tol=math.nan)

    def test_reversed_domain(self, unevaluated):
        with pytest.raises(ValueError, match=self.domain_match):
            max_violation("leggett", ModelParams.qm(), "phi", (PI, 0.0))

    def test_infinite_domain(self, unevaluated):
        with pytest.raises(ValueError, match="domain end must be a finite number, got inf"):
            _max_violations("branciard", [ModelParams.qm()], "phi", (0.0, math.inf))

    def test_batched_windows_share_the_check(self, unevaluated):
        with pytest.raises(ValueError, match=self.domain_match):
            _violation_windows("leggett", [ModelParams.qm()] * 2, "phi", (0.0, 0.0), 1e-9)


# the threshold calls of `hv verify`: (inequality, model, variable, domain, phi)
VERIFY_THRESHOLDS = [
    ("chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0), None),
    ("chsh", ModelParams.shv(), "p_m", (0.0, 2.0), None),
    ("leggett", ModelParams.fhv(0.0), "eta", (0.0, 0.1), None),
    ("leggett", ModelParams.thv(0.0), "zeta", (0.0, 1.0), LEGGETT_QM_ARGMAX_PHI),
    ("branciard", ModelParams.fhv(0.0), "eta", (0.0, 0.2), None),
    ("branciard", ModelParams.thv(0.0), "zeta", (0.0, 1.0),
     2.0 * math.asin(BRANCIARD_QM_ARGMAX_SIN)),
]


class TestOneBracketingSearch:
    """`threshold` is the upper end of a window search, and the window
    search rejects a margin positive on two or more separate runs."""

    match = "two or more separate runs"

    @pytest.mark.parametrize("name, params, variable, domain, phi", VERIFY_THRESHOLDS,
                             ids=[f"{c[0]}-{c[2]}" for c in VERIFY_THRESHOLDS])
    def test_verify_thresholds_are_window_upper_ends(self, name, params, variable,
                                                     domain, phi):
        res = threshold(name, params, variable, domain, 1e-10, phi=phi)
        win, = _violation_windows(name, (params,), variable, domain, 1e-10,
                                  nodes=THRESHOLD_NODES, phi=phi)
        assert res.found and win.lower == domain[0]
        assert np.float64(res.root).tobytes() == np.float64(win.upper).tobytes()

    def test_split_window_rejected(self):
        # fhv(0.01) violates Leggett on +-(0.0698, 0.5814), not at phi = 0
        assert margin("leggett", ModelParams.fhv(0.01), phi=0.0).margin < 0.0
        with pytest.raises(ValueError, match=self.match):
            violation_window("leggett", ModelParams.fhv(0.01), "phi", (-PI, PI))

    def test_split_threshold_rejected(self):
        # the grid's first point is not positive, yet the margin is split
        with pytest.raises(ValueError, match=self.match):
            threshold("leggett", ModelParams.fhv(0.01), "phi", (-PI, PI))

    def test_batched_split_window_rejected(self):
        family = [ModelParams.fhv(0.3), ModelParams.fhv(0.01)]
        with pytest.raises(ValueError, match=self.match):
            _violation_windows("leggett", family, "phi", (-PI, PI), 1e-9)


# value calls of each verify threshold search, grid included: a third of
# bisection's 703 (Branciard) and 677 (Leggett) for the roots with phi
# maximized, half of its 30-31 for the others
MAX_VALUE_CALLS = {"chsh-eta": 15, "chsh-p_m": 15, "leggett-eta": 225,
                   "leggett-zeta": 15, "branciard-eta": 234, "branciard-zeta": 15}


class TestSearchWork:
    @pytest.mark.parametrize("name, params, variable, domain, phi", VERIFY_THRESHOLDS,
                             ids=[f"{c[0]}-{c[2]}" for c in VERIFY_THRESHOLDS])
    def test_value_calls_per_threshold(self, monkeypatch, name, params, variable,
                                       domain, phi):
        calls = []
        value_function = inequalities_module._value_function

        def counted(*args, **kwargs):
            value = value_function(*args, **kwargs)

            def count(x, i):
                calls.append(len(x))
                return value(x, i)
            return count

        monkeypatch.setattr(inequalities_module, "_value_function", counted)
        assert threshold(name, params, variable, domain, 1e-10, phi=phi).found
        assert len(calls) <= MAX_VALUE_CALLS[f"{name}-{variable}"]


@pytest.fixture
def bounded_margins(monkeypatch):
    """Margins that raise after 2,000 evaluation calls, so a bisection that
    never stops fails instead of hanging."""
    margins = inequalities_module._margins

    def bounded(*args, **kwargs):
        f = margins(*args, **kwargs)
        calls = iter(range(2000))

        def evaluate(*points):
            if next(calls, None) is None:
                raise AssertionError("bisection did not stop")
            return f(*points)
        return evaluate

    monkeypatch.setattr(inequalities_module, "_margins", bounded)


class TestBisectionStops:
    """A bracket of two adjacent floats has no midpoint strictly inside it,
    so bisection stops there whatever ``tol`` is."""

    def test_tol_below_float_spacing(self):
        calls = []

        def f(x, i):
            calls.append(len(x))
            if len(calls) > 2000:
                raise AssertionError("bisection did not stop")
            return 0.5 - x

        root = _boundary(f, [0.0, 0.25], [1.0, 0.75], 1e-300)
        assert root.tolist() == [0.5, 0.5]
        assert len(calls) < 100

    def test_threshold_below_float_spacing(self, bounded_margins):
        res = threshold("chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0), 1e-17)
        assert res.found and abs(res.root - (math.sqrt(2.0) - 1.0)) < 1e-15

    def test_window_below_float_spacing(self, bounded_margins):
        win = violation_window("branciard", ModelParams.qm(), "phi", (0.0, PI), 1e-300)
        assert abs(math.sin(win.upper / 2.0) - 0.6) < 1e-15
