"""The array-first margin layer against scalar references, and the lockstep
search helpers against one-problem-at-a-time runs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvsinglet import models as models_module
from hvsinglet.correlators import PlaneAverageSpec, analytic_correlator, plane_avg_correlator
from hvsinglet.geometry import (
    Plane,
    UnitVector3,
    branciard_settings,
    orthogonal_plane,
    vectors_in_plane,
)
from hvsinglet.inequalities import (
    BLOCK_PAIRS,
    MAX_SEED_NODES,
    SCAN_NODES,
    _bisect_boundary,
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
            (ModelParams.qm(), "eta", 1.0),  # the singlet ignores eta
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
        batch = _bisect_boundary(g, lo, hi, tol)
        for k in range(len(roots)):
            gk, solo_calls = _recording(_solo(f, k))
            alone = _bisect_boundary(gk, lo[k:k + 1], hi[k:k + 1], tol)
            assert batch[k] == alone[0]
            assert _per_problem(calls, k) == [pt for _, pt in solo_calls]

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
        batch = _violation_windows("leggett", family, "p_m", (0.0, 2.0), 1e-8,
                                   nodes=17, phi=0.4)
        alone = [violation_window("leggett", m, "p_m", (0.0, 2.0), 1e-8,
                                  nodes=17, phi=0.4) for m in family]
        assert [_window_bits(w) for w in batch] == [_window_bits(w) for w in alone]
        assert len({w.upper for w in batch}) == len(family)
        x, fx = _max_violations("branciard", family, "p_m", (0.0, 2.0), 1e-6, nodes=9)
        alone = [max_violation("branciard", m, "p_m", (0.0, 2.0), 1e-6, nodes=9)
                 for m in family]
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
        threshold("branciard", ModelParams.thv(0.0), "zeta", (0.0, 1.0), 1e-6,
                  phi=1.0, nodes=5)
        assert audited[:4] == [0.25, 0.5, 0.75, 1.0]  # zeta = 0 needs no audit


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
