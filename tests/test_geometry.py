import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hvsinglet.geometry import (
    ChunkWorkspace,
    Plane,
    Triad,
    UnitVector3,
    X,
    Y,
    Z,
    _branciard_companions,
    _plane_frames,
    _zone_projection,
    branciard_settings,
    chsh_optimal_settings,
    cross,
    dot,
    make_rng,
    orthogonal_plane,
    sample_cap_batch,
    sample_unit_batch,
    sample_unit_uniform,
    vectors_in_plane,
    xy_plane,
)

SQRT2 = math.sqrt(2.0)


def units():
    """Hypothesis strategy: uniform-ish unit vectors from spherical angles."""
    return st.builds(
        lambda z, az: UnitVector3.normalized(
            math.sqrt(max(0.0, 1.0 - z * z)) * math.cos(az),
            math.sqrt(max(0.0, 1.0 - z * z)) * math.sin(az),
            z,
        ),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 2.0 * math.pi),
    )


class TestUnitVector3:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("make", [
        lambda c: UnitVector3(*c), lambda c: UnitVector3.from_array(np.array(c)),
    ], ids=["constructor", "from_array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_components(self, make, bad):
        with pytest.raises(ValueError):
            make([bad, 0.0, 0.0])
        with pytest.raises(ValueError):
            Plane(UnitVector3(1.0, 0.0, 0.0), make([0.0, bad, 0.0]), UnitVector3(0.0, 0.0, 1.0))

    def test_normalized_constructor(self):
        v = UnitVector3.normalized(3.0, 4.0, 0.0)
        assert v.x == pytest.approx(0.6, abs=1e-15)
        assert v.y == pytest.approx(0.8, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            UnitVector3.normalized(0.0, 0.0, 0.0)

    def test_negation_is_exact(self):
        v = UnitVector3.normalized(0.3, -0.2, 0.93)
        w = -v
        assert (v.x + w.x, v.y + w.y, v.z + w.z) == (0.0, 0.0, 0.0)

    @given(units())
    def test_constructor_invariant(self, v):
        assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) <= 1e-12


class TestDotCross:
    def test_dot_identity(self):
        assert dot(X, X) == 1.0

    def test_dot_orthogonal(self):
        assert dot(X, Y) == 0.0

    def test_dot_diagonal(self):
        v = UnitVector3.normalized(1.0, 1.0, 0.0)
        assert dot(X, v) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_cross_basis(self):
        assert np.allclose(cross(X, Y), Z.arr, atol=1e-15)

    def test_cross_parallel(self):
        assert np.allclose(cross(X, X), 0.0, atol=1e-15)

    @given(units(), units())
    def test_lagrange_identity(self, u, v):
        # |u x v|^2 + (u.v)^2 = 1 for unit vectors
        c = cross(u, v)
        assert float(c @ c) + dot(u, v) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestPlanesAndTriads:
    def test_xy_plane_invariants(self):
        p = xy_plane()
        assert dot(p.e1, p.e2) == 0.0
        assert np.allclose(cross(p.e1, p.e2), p.n.arr, atol=1e-15)

    def test_bad_plane_rejected(self):
        with pytest.raises(ValueError):
            Plane(X, Y, X)

    def test_with_normal_is_right_handed(self):
        rng = make_rng(11)
        for _ in range(1000):
            n = sample_unit_uniform(rng)
            p = Plane.with_normal(n)
            assert abs(dot(p.e1, p.e2)) <= 1e-12
            assert np.max(np.abs(cross(p.e1, p.e2) - p.n.arr)) <= 1e-12

    def test_orthogonal_plane(self):
        p = Plane.with_normal(UnitVector3.normalized(1.0, 2.0, 3.0))
        q = orthogonal_plane(p)
        assert abs(dot(p.n, q.n)) <= 1e-12

    def test_triad_validation(self):
        Triad(X, Y, Z)
        with pytest.raises(ValueError):
            Triad(X, Y, -Z)  # left-handed


class TestVectorsInPlane:
    def test_basis_case(self):
        a, b = vectors_in_plane(xy_plane(), 0.0, math.pi / 2)
        assert np.allclose(a.arr, X.arr, atol=1e-15)
        assert np.allclose(b.arr, Y.arr, atol=1e-12)

    def test_coincident_at_zero_phi(self):
        a, b = vectors_in_plane(xy_plane(), 0.0, 0.0)
        assert np.allclose(a.arr, b.arr)

    def test_relative_angle_grid(self):
        p = Plane.with_normal(UnitVector3.normalized(1.0, -1.0, 0.5))
        for theta in np.linspace(0.0, 2 * math.pi, 32):
            for phi in np.linspace(-math.pi, math.pi, 32):
                a, b = vectors_in_plane(p, float(theta), float(phi))
                assert dot(a, b) == pytest.approx(math.cos(phi), abs=1e-12)

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_orientation_convention(self, theta, phi):
        # counterclockwise angles about n: (a x b).n = sin(phi)
        p = xy_plane()
        a, b = vectors_in_plane(p, theta, phi)
        assert float(cross(a, b) @ p.n.arr) == pytest.approx(math.sin(phi), abs=1e-12)


class TestSettingConstructors:
    def test_chsh_dot_table(self):
        a, b, ap, bp = chsh_optimal_settings()
        assert dot(a, b) == pytest.approx(1 / SQRT2, abs=1e-12)
        assert dot(a, bp) == pytest.approx(1 / SQRT2, abs=1e-12)
        assert dot(ap, b) == pytest.approx(1 / SQRT2, abs=1e-12)
        assert dot(ap, bp) == pytest.approx(-1 / SQRT2, abs=1e-12)

    def test_branciard_degenerate_angle(self):
        triad, bs, bps = branciard_settings(0.0)
        for ai, bi, bpi in zip(triad.axes, bs, bps):
            assert np.allclose(bi.arr, ai.arr, atol=1e-15)
            assert np.allclose(bpi.arr, ai.arr, atol=1e-15)

    def test_branciard_construction_angle(self):
        triad, bs, bps = branciard_settings(math.pi / 3)
        for ai, bi, bpi in zip(triad.axes, bs, bps):
            assert dot(ai, bi) == pytest.approx(math.cos(math.pi / 6), abs=1e-12)
            assert dot(ai, bpi) == pytest.approx(math.cos(math.pi / 6), abs=1e-12)

    def test_branciard_difference_orthogonal_to_axis(self):
        rng = make_rng(5)
        for _ in range(50):
            phi = float(rng.uniform(0.0, math.pi))
            triad, bs, bps = branciard_settings(phi)
            for ai, bi, bpi in zip(triad.axes, bs, bps):
                diff = bi.arr - bpi.arr
                assert abs(float(diff @ ai.arr)) <= 1e-12

    def test_branciard_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            branciard_settings(-0.1)


# Normals for the frame kernel: sphere draws, both poles and a row past the
# |n_z| >= 0.9 switch of helper axis.
_NORMALS = np.concatenate([sample_unit_batch(make_rng(3), 200),
                           [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                           UnitVector3.normalized(0.1, -0.2, 0.95).arr[None]])


def _companions(phi):
    _, b, b_prime = branciard_settings(phi)
    return [*b, *b_prime]


def _companions_reference(phi):
    """b_i and b'_i as c a_i +- s a_{i+1}, one normalized vector at a time."""
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    axes = (X, Y, Z)
    return [UnitVector3.normalized(*(c * axes[i].arr + sign * s * axes[(i + 1) % 3].arr))
            for sign in (1.0, -1.0) for i in range(3)]


def _frame(n):
    p = Plane.with_normal(UnitVector3(*n))
    return [p.e1, p.e2]


def _frame_reference(n):
    """e1 = helper x n and e2 = n x e1, one normalized vector at a time."""
    n = UnitVector3(*n)
    e1 = UnitVector3.from_array(np.cross((Z if abs(n.z) < 0.9 else X).arr, n.arr))
    return [e1, UnitVector3.from_array(np.cross(n.arr, e1.arr))]


# Each scalar helper as (its vectors at one input, the same vectors built
# one at a time as a reference, the array kernel it is a batch of one over,
# giving one row of vectors per input, the inputs).
SCALAR_KERNELS = {
    "branciard_settings": (_companions, _companions_reference,
                           lambda phis: _branciard_companions(phis).reshape(len(phis), 6, 3),
                           np.linspace(0.0, math.pi, 101)),
    "Plane.with_normal": (_frame, _frame_reference,
                          lambda ns: np.stack(_plane_frames(ns), axis=1), _NORMALS),
}


@pytest.mark.parametrize("key", SCALAR_KERNELS)
def test_scalar_helper_is_its_kernels_batch_of_one(key):
    # bit for bit against the kernel's row in a batch of every input, and
    # against the reference
    scalar, reference, kernel, inputs = SCALAR_KERNELS[key]
    if key == "Plane.with_normal":
        assert 0 < np.sum(np.abs(inputs[:, 2]) >= 0.9) < len(inputs)
    for x, row in zip(inputs.tolist(), kernel(inputs)):
        for vectors in (scalar(x), reference(x)):
            assert np.array([[v.x, v.y, v.z] for v in vectors]).tobytes() == row.tobytes()


class TestSampling:
    def test_determinism(self):
        r1, r2 = make_rng(42), make_rng(42)
        seq1 = [sample_unit_uniform(r1) for _ in range(50)]
        seq2 = [sample_unit_uniform(r2) for _ in range(50)]
        assert seq1 == seq2

    def test_batch_matches_distribution_moments(self):
        n = 1_000_000
        u = sample_unit_batch(make_rng(0), n)
        # component means vanish as 1/sqrt(n)
        assert np.max(np.abs(u.mean(axis=0))) <= 4.0 / math.sqrt(n)
        # second moment of z is 1/3; var(z^2) = 1/5 - 1/9 = 4/45
        z2 = u[:, 2] ** 2
        stderr = math.sqrt(4.0 / 45.0 / n)
        assert abs(z2.mean() - 1.0 / 3.0) <= 4.0 * stderr

    def test_batch_is_normalized(self):
        u = sample_unit_batch(make_rng(1), 10_000)
        assert np.max(np.abs(np.sum(u * u, axis=1) - 1.0)) <= 1e-12

    def test_cap_batch_stays_in_cap(self):
        axis = UnitVector3.normalized(1.0, 1.0, 1.0)
        half = 0.4
        w = sample_cap_batch(make_rng(2), axis, half, 20_000)
        assert np.min(w @ axis.arr) >= math.cos(half) - 1e-12
        # mean lies along the axis, shortened by (1 + cos half)/2
        mean = w.mean(axis=0)
        expected = 0.5 * (1.0 + math.cos(half))
        assert np.linalg.norm(mean - expected * axis.arr) <= 4.0 / math.sqrt(20_000)


def _cos_sin_reference(rng, z_lo, n):
    """The sampler's points the cos/sin way, from the same two uniforms:
    z ~ U(z_lo, 1), then u ~ U(0, 1) with azimuth 2 pi u."""
    z = z_lo + (1.0 - z_lo) * rng.random(out=np.empty(n))
    az = 2.0 * math.pi * rng.random(out=np.empty(n))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


class _StubRng:
    """Feeds fixed uniforms to `random(out=...)`, one list per call."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, out):
        out[:] = self.draws.pop(0)
        return out


class TestHalfAngleSampler:
    """The tangent half-angle map against cos/sin on the same uniforms."""

    CHUNK, CHUNKS = 250_000, 4

    def test_unit_points_match_cos_sin_on_the_same_stream(self):
        for seed in range(self.CHUNKS):
            rng, ref = make_rng(seed), make_rng(seed)
            got = sample_unit_batch(rng, self.CHUNK)
            assert np.max(np.abs(got - _cos_sin_reference(ref, -1.0, self.CHUNK))) <= 2e-15
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_cap_points_match_cos_sin_on_the_same_stream(self):
        axis, half = UnitVector3.normalized(0.3, -0.5, 0.8), 1.1
        frame = Plane.with_normal(axis)
        basis = np.array([frame.e1.arr, frame.e2.arr, axis.arr])
        for seed in range(self.CHUNKS):
            rng, ref = make_rng(seed), make_rng(seed)
            got = sample_cap_batch(rng, axis, half, self.CHUNK)
            local = _cos_sin_reference(ref, math.cos(half), self.CHUNK)
            assert np.max(np.abs(got - local @ basis)) <= 2e-15
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_projection_matches_cap_points_on_the_same_stream(self):
        # d in the (e1, axis) half-plane: the projection's azimuth starts at e1,
        # as the cap sampler's does, so the two agree point by point
        axis, half, beta = UnitVector3.normalized(0.3, -0.5, 0.8), 1.1, 0.9
        d = math.cos(beta) * axis.arr + math.sin(beta) * Plane.with_normal(axis).e1.arr
        for seed in range(self.CHUNKS):
            rng, ref = make_rng(seed), make_rng(seed)
            ws = ChunkWorkspace(self.CHUNK)
            z, proj = _zone_projection(rng, math.cos(half), math.cos(beta), math.sin(beta), ws)
            points = sample_cap_batch(ref, axis, half, self.CHUNK)
            assert np.max(np.abs(proj - points @ d)) <= 4e-15
            assert np.max(np.abs(z - points @ axis.arr)) <= 4e-15
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("z_uniform", [0.0, 0.5, 1.0 - 2.0**-53])
    def test_edge_uniforms_give_finite_projections(self, z_uniform):
        az = [0.0, 0.5, 1.0 - 2.0**-53]
        z, proj = _zone_projection(_StubRng([z_uniform] * 3, az), -1.0, 0.6, 0.8,
                                   ChunkWorkspace(3))
        ref = _cos_sin_reference(_StubRng([z_uniform] * 3, az), -1.0, 3)
        assert np.max(np.abs(proj - (0.6 * ref[:, 2] + 0.8 * ref[:, 0]))) <= 2e-15

    def test_azimuth_moments(self):
        n = self.CHUNK * self.CHUNKS
        u = sample_unit_batch(make_rng(5), n)
        x, y = u[:, 0], u[:, 1]
        for values, expected in ((x * x, 1.0 / 3.0), (y * y, 1.0 / 3.0),
                                 (x * y, 0.0), (x * x * y * y, 1.0 / 15.0)):
            stderr = float(np.std(values)) / math.sqrt(n)
            assert abs(float(np.mean(values)) - expected) <= 4.0 * stderr

    @pytest.mark.parametrize("z_uniform", [0.0, 0.25, 0.5, 1.0 - 2.0**-53])
    def test_edge_uniforms_give_finite_unit_rows(self, z_uniform):
        # u = 0 and u -> 1 put tan at its largest, u = 0.5 at zero
        az = [0.0, 0.5, 1.0 - 2.0**-53]
        rows = sample_unit_batch(_StubRng([z_uniform] * 3, az), 3)
        assert np.all(np.isfinite(rows))
        assert np.max(np.abs(np.sum(rows * rows, axis=1) - 1.0)) <= 1e-12
        ref = _cos_sin_reference(_StubRng([z_uniform] * 3, az), -1.0, 3)
        assert np.max(np.abs(rows - ref)) <= 2e-15
