import math

import numpy as np
import pytest

from hvsinglet.correlators import (
    PlaneAverageSpec,
    _sphere_moments,
    analytic_correlator,
    mc_correlator,
    plane_avg_correlator,
    sphere_moment_oracle,
)
from hvsinglet.geometry import (
    Plane,
    UnitVector3,
    X,
    Y,
    Z,
    make_rng,
    sample_unit_batch,
    sample_unit_uniform,
    xy_plane,
)
from hvsinglet.models import (
    CapP,
    ConstantP,
    ModelParams,
    Settings,
)


def random_settings(rng):
    return Settings(sample_unit_uniform(rng), sample_unit_uniform(rng))


class TestAnalyticCorrelator:
    def test_fhv_half_at_aligned_settings(self):
        c = analytic_correlator(ModelParams.fhv(1.0), Settings(Z, Z))
        assert c == pytest.approx(-0.5, abs=1e-15)

    def test_thv_reduces_to_qm_at_zero_zeta(self):
        rng = make_rng(0)
        for _ in range(20):
            s = random_settings(rng)
            assert analytic_correlator(ModelParams.thv(0.0), s) == pytest.approx(
                analytic_correlator(ModelParams.qm(), s), abs=1e-15
            )

    def test_shv_hand_value(self):
        # pbar = 0.5 z, pm = 0.5, a = x, b = y: -(0 + 0.5)/sqrt(1.25)
        params = ModelParams.shv(ConstantP((0.0, 0.0, 0.5)))
        c = analytic_correlator(params, Settings(X, Y))
        assert c == pytest.approx(-0.4472135954999579, abs=1e-15)

    def test_magnitude_bounded_by_one(self):
        rng = make_rng(3)
        families = [
            lambda: ModelParams.fhv(float(rng.uniform(0, 3))),
            lambda: ModelParams.shv(ConstantP(tuple(
                float(rng.uniform(0, 1)) * sample_unit_uniform(rng).arr))),
            lambda: ModelParams.thv(float(rng.uniform(0, 2))),
            ModelParams.qm,
        ]
        for make in families:
            for _ in range(250):
                c = analytic_correlator(make(), random_settings(rng))
                assert abs(c) <= 1.0 + 1e-12

    def test_fhv_is_shrunk_qm(self):
        # damping by 1/(1+eta) equals mixing the singlet with weight 1-epsilon
        rng = make_rng(5)
        for _ in range(100):
            eta = float(rng.uniform(0, 3))
            s = random_settings(rng)
            fhv = analytic_correlator(ModelParams.fhv(eta), s)
            qm = analytic_correlator(ModelParams.qm(), s)
            eps = eta / (1 + eta)
            assert fhv == pytest.approx((1 - eps) * qm, abs=1e-12)

    def test_correlator_depends_on_ab_alone(self):
        # every family but SHV reads the settings only through a.b, so a
        # pair (x, b') with x.b' = a.b gives the same correlator
        rng = make_rng(7)
        for _ in range(50):
            s = random_settings(rng)
            ab = float(s.a.arr @ s.b.arr)
            planar = Settings(X, UnitVector3.normalized(ab, math.sqrt(max(0.0, 1.0 - ab * ab)), 0.0))
            for params in (ModelParams.qm(), ModelParams.fhv(0.4), ModelParams.thv(1.2)):
                assert analytic_correlator(params, planar) == pytest.approx(
                    analytic_correlator(params, s), abs=1e-14
                )


class TestMcCorrelator:
    def test_qm_aligned_settings_are_deterministic(self):
        est = mc_correlator(ModelParams.qm(), Settings(Z, Z), 10_000, seed=0)
        assert est.mean == -1.0
        assert est.stderr == 0.0

    def test_reproducible_for_fixed_seed_and_shards(self):
        params = ModelParams.fhv(0.5)
        s = Settings(X, UnitVector3.normalized(1.0, 1.0, 0.0))
        a = mc_correlator(params, s, 50_000, seed=11, shards=4)
        b = mc_correlator(params, s, 50_000, seed=11, shards=4)
        assert a == b

    def test_shard_split_changes_stream_but_not_statistics(self):
        params = ModelParams.thv(1.0)
        s = Settings(X, Z)
        one = mc_correlator(params, s, 200_000, seed=2, shards=1)
        four = mc_correlator(params, s, 200_000, seed=2, shards=4)
        assert one.mean != four.mean  # different substreams
        target = analytic_correlator(params, s)
        for est in (one, four):
            assert abs(est.mean - target) <= 4 * est.stderr

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams.fhv(0.4),
            ModelParams.shv(ConstantP((0.1, -0.2, 0.4))),
            ModelParams.shv(CapP(axis=Z, half_angle=0.8, magnitude=0.9)),
            ModelParams.thv(1.0),
            ModelParams.qm(),
        ],
        ids=["fhv", "shv-const", "shv-cap", "thv", "qm"],
    )
    def test_matches_analytic_within_four_sigma(self, params):
        rng = make_rng(101)
        s = random_settings(rng)
        est = mc_correlator(params, s, 1_000_000, seed=77)
        target = analytic_correlator(params, s)
        assert abs(est.mean - target) <= 4 * est.stderr

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            mc_correlator(ModelParams.qm(), Settings(X, Y), 50, seed=0)

    @pytest.mark.parametrize("n, shards", [(1000.0, 1), (1000, 2.5)])
    def test_non_integer_size_rejected(self, n, shards):
        with pytest.raises(ValueError, match="must be .*integer"):
            mc_correlator(ModelParams.qm(), Settings(X, Y), n, seed=0, shards=shards)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            mc_correlator(ModelParams.qm(), Settings(X, Y), 1000, seed=1.5)


class TestPlaneAverage:
    def test_qm_gives_minus_cos_phi(self):
        plane = Plane.with_normal(UnitVector3.normalized(1.0, 2.0, -1.0))
        for phi in np.linspace(0.0, math.pi, 20):
            spec = PlaneAverageSpec(plane, float(phi))
            got = plane_avg_correlator(ModelParams.qm(), spec)
            assert got == pytest.approx(-math.cos(phi), abs=1e-12)

    def test_shv_normal_aligned_plane(self):
        # plane normal parallel to pbar: cross term survives as |pbar| sin(phi)
        params = ModelParams.shv(ConstantP((0.0, 0.0, 0.5)))
        plane = xy_plane()
        for phi in np.linspace(0.0, math.pi, 15):
            got = plane_avg_correlator(params, PlaneAverageSpec(plane, float(phi)))
            expected = -(math.cos(phi) + 0.5 * math.sin(phi)) / math.sqrt(1.25)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_shv_normal_orthogonal_plane_drops_cross_term(self):
        params = ModelParams.shv(ConstantP((0.0, 0.0, 0.5)))
        plane = Plane.with_normal(X)  # pbar lies inside this plane
        for phi in np.linspace(0.0, math.pi, 15):
            got = plane_avg_correlator(params, PlaneAverageSpec(plane, float(phi)))
            assert got == pytest.approx(-math.cos(phi) / math.sqrt(1.25), abs=1e-12)

    def test_phase_shift_invariance(self):
        params = ModelParams.shv(ConstantP((0.3, 0.1, 0.2)))
        plane = Plane.with_normal(UnitVector3.normalized(0.0, 1.0, 1.0))
        spec = PlaneAverageSpec(plane, 0.9)
        base = plane_avg_correlator(params, spec)
        for theta0 in (0.123, 1.7, 5.0):
            assert plane_avg_correlator(params, spec, theta0=theta0) == pytest.approx(
                base, abs=1e-10
            )

    def test_order_independence_once_sufficient(self):
        params = ModelParams.thv(1.3)
        plane = xy_plane()
        lo = plane_avg_correlator(params, PlaneAverageSpec(plane, 0.6, 16))
        hi = plane_avg_correlator(params, PlaneAverageSpec(plane, 0.6, 512))
        assert lo == pytest.approx(hi, abs=1e-12)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            PlaneAverageSpec(xy_plane(), 0.5, 3)

    def test_fractional_order_rejected(self):
        # 4.5 nodes spaced 2*pi/4.5 would not be a periodic rule
        with pytest.raises(ValueError, match="must be an integer"):
            PlaneAverageSpec(xy_plane(), 0.5, 4.5)


class TestSphereMomentOracle:
    def test_aligned(self):
        assert sphere_moment_oracle(Z, Z) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_orthogonal(self):
        assert sphere_moment_oracle(Z, X) == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap(self):
        b = UnitVector3.normalized(math.sqrt(3.0) / 2.0, 0.0, 0.5)
        assert sphere_moment_oracle(Z, b) == pytest.approx(0.05, abs=1e-12)

    def test_grid_against_closed_form(self):
        for x in np.linspace(-1.0, 1.0, 101):
            x = float(x)
            b = UnitVector3.normalized(math.sqrt(max(0.0, 1.0 - x * x)), 0.0, x)
            got = sphere_moment_oracle(Z, b, order=12)
            expected = (3.0 / 35.0) * x + (2.0 / 35.0) * x**3
            assert got == pytest.approx(expected, abs=1e-8)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            sphere_moment_oracle(Z, Z, order=3)

    def test_fractional_order_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            sphere_moment_oracle(Z, Z, order=12.5)

    def test_batched_rows_give_the_bits_of_single_calls(self):
        # moments.sixth_grid evaluates its grid as one batch
        a = UnitVector3.normalized(0.2, -0.4, 0.9)
        bs = [UnitVector3.from_array(row) for row in sample_unit_batch(make_rng(3), 40)]
        for order in (4, 16):
            assert _sphere_moments(a, np.array([v.arr for v in bs]), order).tolist() == [
                sphere_moment_oracle(a, v, order) for v in bs]

    def test_consistency_with_thv_correlator(self):
        # the cubic family's closed form is exactly the sixth-moment identity
        rng = make_rng(15)
        zeta = 1.4
        params = ModelParams.thv(zeta)
        for _ in range(20):
            s = random_settings(rng)
            ab = float(s.a.arr @ s.b.arr)
            via_moment = -ab + zeta * sphere_moment_oracle(s.a, s.b)
            assert analytic_correlator(params, s) == pytest.approx(via_moment, abs=1e-12)
