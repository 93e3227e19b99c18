import inspect
import math
import tracemalloc

import numpy as np
import pytest

from hvsinglet.correlators import analytic_correlator
from hvsinglet.geometry import (
    Plane,
    UnitVector3,
    X,
    branciard_settings,
    chsh_optimal_settings,
    make_rng,
    orthogonal_plane,
    sample_unit_batch,
    sample_unit_uniform,
    xy_plane,
)
from hvsinglet.inequalities import (
    BHV_ATOMS,
    BRANCIARD_QM_ARGMAX_SIN,
    BRANCIARD_QM_MAX_MARGIN,
    BRANCIARD_QM_WINDOW_HI_SIN,
    ETA_MAX_BRANCIARD_FHV,
    ETA_MAX_CHSH_FHV,
    ETA_MAX_LEGGETT_FHV,
    LEGGETT_QM_ARGMAX_PHI,
    LEGGETT_QM_MAX_MARGIN,
    LEGGETT_QM_WINDOW_HI_PHI,
    ZETA_MAX_BRANCIARD_THV,
    ZETA_MAX_LEGGETT_THV,
    bhv_chsh_search,
    branciard_bound,
    branciard_fhv_argmax_sin,
    branciard_fhv_max_margin,
    branciard_value,
    chsh_bound,
    chsh_value,
    correlator_fn,
    leggett_bound,
    leggett_fhv_argmax_phi,
    leggett_fhv_max_margin,
    leggett_fhv_window_sin,
    leggett_value,
    lhv_branciard_search,
    lhv_leggett_search,
    margin,
    max_violation,
    threshold,
    violation_window,
    _malus_mixtures,
)
from hvsinglet.models import ConstantP, ModelParams, Settings, lhv_feasible_c_range, table_cells

SQRT2 = math.sqrt(2.0)
PI = math.pi


class TestChsh:
    def test_qm_optimal_value(self):
        e = chsh_value(correlator_fn(ModelParams.qm()), *chsh_optimal_settings())
        assert e == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_fhv_at_threshold_eta_hits_bound(self):
        e = chsh_value(correlator_fn(ModelParams.fhv(SQRT2 - 1)), *chsh_optimal_settings())
        assert e == pytest.approx(2.0, abs=1e-12)

    def test_zero_correlator(self):
        assert chsh_value(lambda a, b: 0.0, *chsh_optimal_settings()) == 0.0

    def test_bound_constant(self):
        assert chsh_bound() == 2.0

    def test_shv_reduces_to_qm_at_zero_pm(self):
        params = ModelParams.shv(ConstantP((0.0, 0.0, 0.0)))
        e = chsh_value(correlator_fn(params), *chsh_optimal_settings())
        assert e == pytest.approx(2 * SQRT2, abs=1e-12)
        assert e > chsh_bound()

    def test_shv_scale_and_cross_cancellation(self):
        rng = make_rng(3)
        for _ in range(20):
            pbar = float(rng.uniform(0, 1)) * sample_unit_uniform(rng).arr
            params = ModelParams.shv(ConstantP(tuple(pbar)))
            e = chsh_value(correlator_fn(params), *chsh_optimal_settings())
            assert e == pytest.approx(
                2 * SQRT2 / math.sqrt(1 + params.p_m**2), abs=1e-10
            )

    def test_fhv_value_decreases_in_eta(self):
        values = [
            chsh_value(correlator_fn(ModelParams.fhv(float(eta))), *chsh_optimal_settings())
            for eta in np.linspace(0.0, 1.0, 21)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestLeggett:
    def test_qm_closed_form(self):
        p = xy_plane()
        q = orthogonal_plane(p)
        for phi in np.linspace(0.0, PI, 10):
            f = leggett_value(ModelParams.qm(), p, q, float(phi))
            assert f == pytest.approx(2 * (1 + math.cos(phi)), abs=1e-12)

    def test_qm_value_at_zero(self):
        assert margin("leggett", ModelParams.qm(), phi=0.0).value == pytest.approx(4.0, abs=1e-12)

    def test_shv_hand_value(self):
        params = ModelParams.shv(ConstantP((0.0, 0.0, 0.5)))
        got = margin("leggett", params, phi=PI / 4).value
        expected = (2 * (1 + math.cos(PI / 4)) + 0.5 * math.sin(PI / 4)) / math.sqrt(1.25)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(3.3699932120840215, abs=1e-12)

    def test_orientation_hedge_never_loses(self):
        # flipping pbar must not change the reported F
        up = ModelParams.shv(ConstantP((0.0, 0.0, 0.5)))
        down = ModelParams.shv(ConstantP((0.0, 0.0, -0.5)))
        for phi in np.linspace(0.1, PI - 0.1, 7):
            assert margin("leggett", up, phi=float(phi)).value == pytest.approx(
                margin("leggett", down, phi=float(phi)).value, abs=1e-12
            )

    def test_non_orthogonal_planes_rejected(self):
        p = xy_plane()
        with pytest.raises(ValueError):
            leggett_value(ModelParams.qm(), p, p, 0.5)

    @pytest.mark.parametrize("phi", [10.0, math.nan])
    def test_phi_outside_domain_rejected(self, phi):
        p = xy_plane()
        with pytest.raises(ValueError, match="leggett phi must (lie in|be a finite number)"):
            leggett_value(ModelParams.qm(), p, orthogonal_plane(p), phi)

    def test_bound_values(self):
        assert leggett_bound(0.0) == 4.0
        assert leggett_bound(PI) == pytest.approx(4 - 4 / PI, abs=1e-15)
        assert leggett_bound(LEGGETT_QM_ARGMAX_PHI) == pytest.approx(
            4 - 2 / PI**2, abs=1e-15
        )

    def test_bound_domain(self):
        with pytest.raises(ValueError):
            leggett_bound(4.0)


class TestBranciard:
    def test_qm_closed_form(self):
        for phi in np.linspace(0.0, PI, 10):
            g = branciard_value(ModelParams.qm(), float(phi))
            assert g == pytest.approx(2 * abs(math.cos(phi / 2)), abs=1e-12)

    def test_value_at_zero(self):
        assert branciard_value(ModelParams.qm(), 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_triad_matches_scalar_shortcut(self):
        # shortcut 2|C(cos(phi/2))| for the families whose correlator reads a.b only
        for params in (ModelParams.qm(), ModelParams.fhv(0.3), ModelParams.thv(1.1)):
            for phi in np.linspace(0.0, PI, 9):
                b = UnitVector3.normalized(math.cos(phi / 2), math.sin(phi / 2), 0.0)
                assert branciard_value(params, float(phi)) == pytest.approx(
                    2 * abs(analytic_correlator(params, Settings(X, b))), abs=1e-12
                )

    def test_shv_cross_terms_cancel_on_triad(self):
        rng = make_rng(6)
        for _ in range(10):
            pbar = float(rng.uniform(0, 1)) * sample_unit_uniform(rng).arr
            params = ModelParams.shv(ConstantP(tuple(pbar)))
            scale = math.sqrt(1 + params.p_m**2)
            for phi in np.linspace(0.0, PI, 7):
                got = branciard_value(params, float(phi))
                assert got == pytest.approx(2 * abs(math.cos(phi / 2)) / scale, abs=1e-12)

    def test_bound_values(self):
        assert branciard_bound(0.0) == 2.0
        assert branciard_bound(PI) == pytest.approx(4.0 / 3.0, abs=1e-15)
        phi_m = 2 * math.asin(1 / math.sqrt(10))
        assert branciard_bound(phi_m) == pytest.approx(
            2 - 2 / (3 * math.sqrt(10)), abs=1e-15
        )


class TestMargin:
    def test_leggett_qm_peak(self):
        rep = margin("leggett", ModelParams.qm(), phi=LEGGETT_QM_ARGMAX_PHI)
        assert rep.margin == pytest.approx(LEGGETT_QM_MAX_MARGIN, abs=1e-9)
        assert rep.violated

    def test_branciard_qm_peak(self):
        phi = 2 * math.asin(BRANCIARD_QM_ARGMAX_SIN)
        rep = margin("branciard", ModelParams.qm(), phi=phi)
        assert rep.margin == pytest.approx(BRANCIARD_QM_MAX_MARGIN, abs=1e-9)

    def test_margin_is_exact_difference(self):
        rep = margin("chsh", ModelParams.fhv(0.3))
        assert rep.margin == rep.value - rep.bound
        assert rep.violated == (rep.margin > 0)

    def test_unknown_inequality_rejected(self):
        with pytest.raises(ValueError):
            margin("bell-nonsense", ModelParams.qm())


class TestViolationWindow:
    def test_leggett_qm_window(self):
        win = violation_window("leggett", ModelParams.fhv(0.0), "phi", (0.0, PI),
                               tol=1e-10)
        assert not win.empty
        assert win.lower == pytest.approx(0.0, abs=1e-9)
        assert win.upper == pytest.approx(LEGGETT_QM_WINDOW_HI_PHI, abs=1e-9)

    def test_leggett_fhv_above_threshold_empty(self):
        win = violation_window("leggett", ModelParams.fhv(0.05), "phi", (0.0, PI))
        assert win.empty

    def test_branciard_qm_window(self):
        win = violation_window("branciard", ModelParams.qm(), "phi", (0.0, PI),
                               tol=1e-10)
        assert math.sin(win.upper / 2) == pytest.approx(
            BRANCIARD_QM_WINDOW_HI_SIN, abs=1e-9
        )

    def test_leggett_fhv_windows_match_quadratic(self):
        rng = make_rng(14)
        for _ in range(10):
            eta = float(rng.uniform(0.0, 0.9 * ETA_MAX_LEGGETT_FHV))
            win = violation_window("leggett", ModelParams.fhv(eta), "phi",
                                   (0.0, PI), tol=1e-10)
            s_lo, s_hi = leggett_fhv_window_sin(eta)
            assert win.lower == pytest.approx(2 * math.asin(s_lo), abs=1e-8)
            assert win.upper == pytest.approx(2 * math.asin(s_hi), abs=1e-8)


class TestMaxViolation:
    def test_leggett_qm(self):
        arg, best = max_violation("leggett", ModelParams.qm(), "phi", (0.0, PI))
        assert arg == pytest.approx(LEGGETT_QM_ARGMAX_PHI, abs=1e-8)
        assert best == pytest.approx(LEGGETT_QM_MAX_MARGIN, abs=1e-8)

    def test_leggett_fhv_closed_form(self):
        rng = make_rng(22)
        for _ in range(5):
            eta = float(rng.uniform(0.0, ETA_MAX_LEGGETT_FHV))
            arg, best = max_violation("leggett", ModelParams.fhv(eta), "phi", (0.0, PI))
            assert arg == pytest.approx(leggett_fhv_argmax_phi(eta), abs=1e-8)
            assert best == pytest.approx(leggett_fhv_max_margin(eta), abs=1e-8)

    def test_branciard_fhv_closed_form(self):
        rng = make_rng(33)
        for _ in range(5):
            eta = float(rng.uniform(0.0, ETA_MAX_BRANCIARD_FHV))
            arg, best = max_violation("branciard", ModelParams.fhv(eta), "phi", (0.0, PI))
            assert math.sin(arg / 2) == pytest.approx(
                branciard_fhv_argmax_sin(eta), abs=1e-8
            )
            assert best == pytest.approx(branciard_fhv_max_margin(eta), abs=1e-8)


class TestThreshold:
    def test_chsh_fhv(self):
        res = threshold("chsh", ModelParams.fhv(0.0), "eta", (0.0, 1.0), 1e-10)
        assert res.found
        assert res.root == pytest.approx(ETA_MAX_CHSH_FHV, abs=1e-9)

    def test_branciard_thv_at_peak_angle(self):
        phi = 2 * math.asin(BRANCIARD_QM_ARGMAX_SIN)
        res = threshold("branciard", ModelParams.thv(0.0), "zeta", (0.0, 1.0),
                        1e-10, phi=phi)
        assert res.root == pytest.approx(ZETA_MAX_BRANCIARD_THV, abs=1e-8)

    def test_leggett_thv_at_peak_angle(self):
        res = threshold("leggett", ModelParams.thv(0.0), "zeta", (0.0, 1.0),
                        1e-10, phi=LEGGETT_QM_ARGMAX_PHI)
        assert res.root == pytest.approx(ZETA_MAX_LEGGETT_THV, abs=1e-8)

    def test_no_sign_change_reports_not_found(self):
        # the cross-term family at pm = 0 violates CHSH on the whole domain
        res = threshold("chsh", ModelParams.shv(), "p_m", (0.0, 0.5), 1e-9)
        assert not res.found
        assert res.root is None


AUDITS = pytest.mark.parametrize(
    "audit", [bhv_chsh_search, lhv_leggett_search, lhv_branciard_search],
    ids=lambda f: f.__name__)


class TestBoundAudits:
    @AUDITS
    def test_memory_does_not_grow_with_trials(self, audit):
        trials = inspect.signature(audit).parameters["trials"].default

        def peak(n):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            audit(make_rng(45), n)
            return tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            audit(make_rng(45), 1)  # first-call allocations belong to neither run
            one, four = peak(trials), peak(4 * trials)
        finally:
            tracemalloc.stop()
        assert four <= 1.5 * one

    @AUDITS
    def test_same_seed_gives_identical_floats(self, audit):
        assert audit(make_rng(46)) == audit(make_rng(46))

    # Per-trial references for one-trial audits: each replays the audit's
    # draws from the same seed, in the audit's order, and scores the trial
    # through the public single-setting pieces.

    @staticmethod
    def _mixture(rng):
        u, v, w, t = _malus_mixtures(rng, 1)
        return u[0], v[0], w.ravel(), t.ravel()

    @staticmethod
    def _mixture_correlator(ua, vb, w, t):
        lo, hi = lhv_feasible_c_range(ua, vb)
        pp, pm, mp, mm = table_cells(ua, vb, t * lo + (1.0 - t) * hi)
        return np.sum(w * (pp - pm - mp + mm), axis=-1)

    def test_bhv_trial_matches_chsh_value(self):
        a, b, ap, bp = chsh_optimal_settings()
        for seed in range(12):
            rng = make_rng(seed)
            vals = rng.uniform(-1.0, 1.0, size=(4, BHV_ATOMS))
            if rng.random(1)[0] < 0.25:
                vals = np.sign(vals)
            w = rng.random(BHV_ATOMS)
            w /= w.sum()

            def corr(x, y):
                return float(np.sum(w * vals[0 if x is a else 1] * vals[2 if y is b else 3]))

            expected = chsh_value(corr, a, b, ap, bp)
            assert bhv_chsh_search(make_rng(seed), 1) == pytest.approx(expected, abs=1e-14)

    def test_leggett_trial_matches_orientation_quadrature(self):
        # the audit's exact orientation average against a plain average over
        # 4096 orientations of the settings in each plane
        theta = np.linspace(0.0, 2.0 * PI, 4096, endpoint=False)[:, None, None]
        for seed in range(6):
            rng = make_rng(seed)
            plane = Plane.with_normal(UnitVector3.from_array(sample_unit_batch(rng, 1)[0]))
            phi = float(rng.uniform(0.0, PI, 1)[0])
            u, v, w, t = self._mixture(rng)
            f = 0.0
            for p in (plane, orthogonal_plane(plane)):
                c = 0.0
                for shift in (phi, 0.0):
                    a = np.cos(theta) * p.e1.arr + np.sin(theta) * p.e2.arr
                    b = np.cos(theta + shift) * p.e1.arr + np.sin(theta + shift) * p.e2.arr
                    ua, vb = np.sum(u * a, axis=-1), np.sum(v * b, axis=-1)
                    c += float(np.mean(self._mixture_correlator(ua, vb, w, t)))
                f += abs(c)
            expected = f - float(leggett_bound(phi))
            assert lhv_leggett_search(make_rng(seed), 1) == pytest.approx(expected, abs=1e-5)

    def test_branciard_trial_matches_triad_settings(self):
        for seed in range(12):
            rng = make_rng(seed)
            phi = float(rng.uniform(0.0, PI, 1)[0])
            u, v, w, t = self._mixture(rng)
            triad, bs, bps = branciard_settings(phi)
            g = sum(abs(sum(self._mixture_correlator(u @ a.arr, v @ b.arr, w, t) for b in pair))
                    for a, pair in zip(triad.axes, zip(bs, bps)))
            expected = g / 3.0 - float(branciard_bound(phi))
            assert lhv_branciard_search(make_rng(seed), 1) == pytest.approx(expected, abs=1e-14)

    def test_bhv_search_stays_below_two(self):
        worst = bhv_chsh_search(make_rng(40), trials=10_000)
        assert worst <= 2.0 + 1e-9

    def test_bhv_corner_strategies_reach_two(self):
        worst = bhv_chsh_search(make_rng(41), trials=5000)
        assert worst == pytest.approx(2.0, abs=1e-12)

    def test_lhv_leggett_bound_holds(self):
        assert lhv_leggett_search(make_rng(42), trials=300) <= 1e-9

    def test_lhv_branciard_bound_holds(self):
        assert lhv_branciard_search(make_rng(43), trials=3000) <= 1e-9

    def test_margin_of_product_model_never_positive(self):
        # a mixture correlator from the product class scored through the
        # standard machinery keeps a nonpositive CHSH margin
        rng = make_rng(44)
        a, b, ap, bp = chsh_optimal_settings()
        for _ in range(100):
            vals = rng.uniform(-1, 1, size=(4, 8))
            w = rng.random(8)
            w /= w.sum()

            def corr(x, y, vals=vals, w=w):
                ia = 0 if x is a else 1
                ib = 0 if y is b else 1
                return float(np.sum(w * vals[ia] * vals[2 + ib]))

            e = chsh_value(corr, a, b, ap, bp)
            assert e - chsh_bound() <= 1e-12
