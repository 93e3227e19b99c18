"""The Monte-Carlo pipeline (settings-frame projection draw, table formula,
partial-sum outcome draw, chunked per-shard reduction) against a plain numpy
reference of the same draws, the projection laws against the 3-D samplers,
plus the table checks of the kernel and of the draw, the batched witness,
the chunked memory bound and the thread pool's independence of its worker
count."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvsinglet import correlators as correlators_module
from hvsinglet import models as models_module
from hvsinglet.correlators import (
    MC_CHUNK,
    MIN_MC_SAMPLES,
    _pool_map,
    _shard_counts,
    mc_correlator,
    sphere_moment_oracle,
)
from hvsinglet.harness import _mc_trial_failures, parse_config, report_to_json, run_verify
from hvsinglet.geometry import (
    ChunkWorkspace, UnitVector3, X, Y, Z, _zone_projection, sample_unit_batch,
)
from hvsinglet.models import (
    TABLE_TOL,
    CapP,
    ConstantP,
    FSpec,
    HiddenState,
    InvalidModelError,
    ModelFamily,
    ModelParams,
    Settings,
    _draw_projections,
    _projection_coeffs,
    coeffs,
    conditional,
    draw_outcomes,
    joint,
    outcome_dependence_witness,
    sample_hidden_batch,
    table_cells,
)

# ------------------------------ reference ----------------------------------
# The settings-frame draws written as plain numpy expressions, in the
# kernel's arithmetic order: rng.uniform rows, the tangent half-angle
# azimuth, the family formulas, then the three partial sums of the table
# in closed form and one comparison of r with each.


def _rowdot(x, y):
    return np.sum(x * y, axis=-1)


def _ref_zone_projection(rng, z_lo, par, perp, n):
    """(z, par z + perp sqrt(1 - z^2) cos psi), psi through t = tan(pi u - pi/2)."""
    z = rng.uniform(z_lo, 1.0, n)
    t = np.tan(rng.uniform(-math.pi / 2, math.pi / 2, n))
    q = t * t + 1.0
    return z, (q - 2.0) * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) / q * perp) + z * par


def _ref_f(f, x):
    return (x * x * x if f.power == 3 else x) * f.coeff


def _ref_coeffs(params, rng, a, b, n):
    fam = params.family
    ab = _rowdot(a, b)
    A = B = 0.0
    if fam is ModelFamily.FHV:
        ua, vb = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        A = _ref_f(params.f_spec, ua) * params.epsilon
        B = _ref_f(params.f_b, vb) * params.epsilon
        C = -ab / (1.0 + params.eta)
    elif fam is ModelFamily.SHV:
        spec, c = params.p_spec, np.cross(a, b)
        if isinstance(spec, ConstantP):
            pc = _rowdot(np.asarray(spec.p0), c)
        else:
            m, axis = spec.magnitude, spec.axis.arr
            pc = _ref_zone_projection(rng, math.cos(spec.half_angle), m * _rowdot(axis, c),
                                      m * np.linalg.norm(np.cross(axis, c)), n)[1]
        C = -(pc + ab) / math.sqrt(1.0 + params.p_m**2)
    elif fam is ModelFamily.THV:
        ua, ub = _ref_zone_projection(rng, -1.0, ab, np.linalg.norm(np.cross(a, b)), n)
        C = -(ab - ua * ua * ua * params.zeta * (ub * ub * ub))
    else:
        C = -ab
    return A, B, C


def _ref_outcomes(A, B, C, r):
    """(sigma == +1, sigma*tau == +1) of each uniform r against the partial
    sums pp = (1 + A + B + C)/4, pp+pm = (1 + A)/2 and
    pp+pm+mp = pp + (1 - C)/2."""
    pp = (1.0 + A + B + C) / 4.0
    return r < (1.0 + A) / 2.0, (r < pp) | (r >= pp + (1.0 - C) / 2.0)


def _ref_mc(params, s, n, seed, shards):
    """(mean, stderr, n) of the reference pipeline; bit for bit that of
    `mc_correlator` while no shard holds more than MC_CHUNK samples."""
    base, extra = divmod(n, shards)
    parts = []
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(shards)):
        m = base + (1 if i < extra else 0)
        if m == 0:
            continue
        rng = np.random.Generator(np.random.PCG64(ss))
        A, B, C = _ref_coeffs(params, rng, s.a.arr, s.b.arr, m)
        _, same = _ref_outcomes(A, B, C, rng.random(m))
        st_ = np.where(same, 1.0, -1.0)
        parts.append((float(np.sum(st_)), float(np.sum(st_ * st_))))
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    var = max(0.0, (total_sq - total * total / n) / (n - 1))
    return total / n, math.sqrt(var / n), n


# ------------------------------ strategies ---------------------------------

unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda c: 0.1 < math.sqrt(sum(x * x for x in c))
).map(lambda c: UnitVector3.normalized(*c))

fspecs = st.builds(FSpec, st.floats(0.0, 0.5), st.sampled_from([1, 3]))
p_specs = st.one_of(
    st.builds(lambda d, m: ConstantP(tuple(m * d.arr)), unit, st.floats(0.0, 1.0)),
    st.builds(CapP, unit, st.floats(0.0, math.pi), st.floats(0.0, 1.0)),
)
params_st = st.one_of(
    st.builds(ModelParams.fhv, st.floats(0.0, 5.0), fspecs, st.one_of(st.none(), fspecs)),
    st.builds(ModelParams.shv, p_specs),
    st.builds(ModelParams.thv, st.floats(0.0, 1.8)),
    st.just(ModelParams.qm()),
)


# -------------------------------- tests ------------------------------------


class TestEquivalence:
    @given(params_st, unit, unit, st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.integers(100, 4000))
    @settings(max_examples=150, deadline=None)
    def test_mc_matches_reference_bit_for_bit(self, params, a, b, seed, shards, n):
        est = mc_correlator(params, Settings(a, b), n, seed, shards)
        assert (est.mean, est.stderr, est.n) == _ref_mc(params, Settings(a, b), n, seed, shards)

    @pytest.mark.parametrize("params", [
        ModelParams.fhv(0.7, FSpec(0.4, 3)),
        ModelParams.shv(ConstantP((0.2, -0.3, 0.4))),
        ModelParams.shv(CapP(UnitVector3.normalized(0.0, 0.6, 0.8), 0.7, 0.7)),
        ModelParams.thv(1.2),
        ModelParams.qm(),
    ], ids=["fhv", "shv-const", "shv-cap", "thv", "qm"])
    def test_one_full_chunk_matches_reference(self, params):
        s = Settings(UnitVector3.normalized(0.3, 0.4, 0.866), UnitVector3.normalized(0.9, -0.1, 0.2))
        est = mc_correlator(params, s, MC_CHUNK, seed=4)
        assert (est.mean, est.stderr, est.n) == _ref_mc(params, s, MC_CHUNK, 4, 1)

    @pytest.mark.parametrize("z_lo", [-1.0, math.cos(0.7)], ids=["thv-sphere", "shv-cap"])
    def test_zone_projection_rows_match_reference(self, z_lo):
        # the rows themselves, not only the sign counts built from them, so
        # the reference holds the kernel's arithmetic order
        for seed, (par, perp) in enumerate([(0.6, 0.8), (-0.28, 0.96), (0.0, 1.0)]):
            z, proj = _zone_projection(np.random.default_rng(seed), z_lo, par, perp,
                                       ChunkWorkspace(MC_CHUNK))
            ref_z, ref_proj = _ref_zone_projection(np.random.default_rng(seed), z_lo, par,
                                                   perp, MC_CHUNK)
            assert np.array_equal(z, ref_z) and np.array_equal(proj, ref_proj)

    @given(params_st, st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_scalar_joint_is_row_of_batch(self, params, seed, n):
        rng = np.random.default_rng(seed)
        a, b = sample_unit_batch(rng, n), sample_unit_batch(rng, n)
        hidden = sample_hidden_batch(params, n, rng)
        cells = table_cells(*coeffs(params, hidden, a, b))
        vec = lambda row: UnitVector3(*(float(c) for c in row))
        for i in range(n):
            if params.family is ModelFamily.QM:
                h = None
            elif params.family is ModelFamily.SHV:
                h = HiddenState.carrier(hidden["p"][i])
            else:
                h = HiddenState.uv(vec(hidden["u"][i]), vec(hidden["v"][i]))
            t = joint(params, h, Settings(vec(a[i]), vec(b[i])))
            expected = [max(0.0, float(np.broadcast_to(c, (n,))[i])) for c in cells]
            assert [t.pp, t.pm, t.mp, t.mm] == expected


class TestUnmovedStreams:
    # qm and a constant p-field draw no hidden randomness, so drawing
    # projections in place of hidden vectors left their streams and their
    # estimates as the 3-D pipeline made them: these are its outputs
    @pytest.mark.parametrize("params,n,seed,shards,mean,stderr", [
        (ModelParams.qm(), 1000, 3, 1, -0.46, 0.02809251126526764),
        (ModelParams.qm(), 2 * MC_CHUNK + 11, 17, 3,
         -0.4352730255001812, 0.0017583619745621362),
        (ModelParams.shv(ConstantP((0.2, -0.3, 0.4))), 1000, 3, 1,
         -0.088, 0.03151585710795835),
        (ModelParams.shv(ConstantP((0.2, -0.3, 0.4))), 2 * MC_CHUNK + 11, 17, 3,
         -0.06255459556369324, 0.0019492627107888624),
    ], ids=["qm", "qm-chunks", "shv-const", "shv-const-chunks"])
    def test_estimates_are_those_of_the_3d_pipeline(self, params, n, seed, shards,
                                                    mean, stderr):
        est = mc_correlator(params, POOL_SETTINGS, n, seed, shards)
        assert (est.mean, est.stderr) == (mean, stderr)


# ------------------------ projection laws -----------------------------------

LAW_N = 2**16
LAW_SETTINGS = {
    "generic": (UnitVector3.normalized(0.3, 0.4, 0.866), UnitVector3.normalized(0.9, -0.1, 0.2)),
    "a=b": (UnitVector3.normalized(0.3, 0.4, 0.866),) * 2,
    "a=-b": (UnitVector3.normalized(0.3, 0.4, 0.866), -UnitVector3.normalized(0.3, 0.4, 0.866)),
}
LAW_FAMILIES = {
    "fhv": ModelParams.fhv(0.7),
    "thv": ModelParams.thv(1.2),
    "cap": ModelParams.shv(CapP(UnitVector3.normalized(0.0, 0.6, 0.8), 0.7, 0.7)),
    "cap-0": ModelParams.shv(CapP(UnitVector3.normalized(0.5, -0.5, 0.7), 0.0, 0.6)),
    "cap-pi": ModelParams.shv(CapP(UnitVector3.normalized(0.5, -0.5, 0.7), math.pi, 0.6)),
}


def _moments(proj):
    """Per-sample values whose means the drawn and the 3-D projections share."""
    if len(proj) == 1:
        (p,) = proj
        return {"p": p, "pp": p * p}
    x, y = proj
    return {"x": x, "y": y, "xx": x * x, "yy": y * y, "xy": x * y,
            "x3y3": x * x * x * (y * y * y)}


class TestProjectionLaws:
    """The settings-frame draws against the dot products of the 3-D
    sampler's hidden vectors, and against exact moments, each within 5
    standard errors, at n = 2^16."""

    @pytest.mark.parametrize("where", sorted(LAW_SETTINGS))
    @pytest.mark.parametrize("family", sorted(LAW_FAMILIES))
    def test_drawn_projections_match_3d_dot_products(self, family, where):
        params, (a, b) = LAW_FAMILIES[family], LAW_SETTINGS[where]
        ws = ChunkWorkspace(LAW_N)
        drawn = _moments([np.array(x) for x in models_module._draw_projections(
            params, a.arr, b.arr, np.random.default_rng(1), ws)])
        hidden = sample_hidden_batch(params, LAW_N, np.random.default_rng(2))
        if family == "fhv":
            solid = _moments([hidden["u"] @ a.arr, hidden["v"] @ b.arr])
        elif family == "thv":
            solid = _moments([hidden["u"] @ a.arr, hidden["u"] @ b.arr])
        else:
            solid = _moments([hidden["p"] @ np.cross(a.arr, b.arr)])

        def close(x, want, se):
            return abs(float(np.mean(x)) - want) <= 5.0 * se + 1e-12

        def se(x):
            return float(np.std(x)) / math.sqrt(LAW_N)

        for key, x in drawn.items():
            y = solid[key]
            assert close(x, float(np.mean(y)), math.hypot(se(x), se(y))), key
        ab = float(a.arr @ b.arr)
        exact = {"x": 0.0, "y": 0.0, "xx": 1.0 / 3.0, "yy": 1.0 / 3.0,
                 "xy": ab / 3.0 if family == "thv" else 0.0,
                 "x3y3": sphere_moment_oracle(a, b) if family == "thv" else 0.0,
                 "p": float(params.p_mean() @ np.cross(a.arr, b.arr))}
        for key, x in drawn.items():
            if key in exact:
                assert close(x, exact[key], se(x)), key


class TestShardCounts:
    @given(params_st, unit, unit, st.integers(0, 2**32 - 1), st.integers(1, 4000))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_one_direct_draw(self, params, a, b, seed, n):
        got = _shard_counts(params, Settings(a, b), n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        A, B, C = _ref_coeffs(params, rng, a.arr, b.arr, n)
        plus, same = _ref_outcomes(A, B, C, rng.random(n))
        assert got == (int(np.sum(plus)), int(np.sum(same)))

    def test_full_chunk_sigma_count_matches_direct_draw(self):
        params, s = ModelParams.fhv(1.0), Settings(X, UnitVector3.normalized(1.0, 2.0, 2.0))
        plus, _ = _shard_counts(params, s, MC_CHUNK, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        A, B, C = _ref_coeffs(params, rng, s.a.arr, s.b.arr, MC_CHUNK)
        assert plus == int(np.sum(_ref_outcomes(A, B, C, rng.random(MC_CHUNK))[0]))


def _bits(x, n):
    return np.ascontiguousarray(np.broadcast_to(x, (n,) + np.shape(x)[1:])).tobytes()


class TestWorkspace:
    @given(params_st, unit, unit, st.integers(0, 2**32 - 1), st.integers(1, 3000))
    @settings(max_examples=80, deadline=None)
    def test_reused_workspace_gives_the_bits_of_fresh_calls(self, params, a, b, seed, n):
        # two chunks of the settings-frame chain in one workspace, the second
        # reusing the first's rows, against chunks that each get a fresh
        # workspace
        fresh, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        a, b = a.arr, b.arr
        ws = ChunkWorkspace()
        for k in (n, max(1, n // 3)):
            own = ChunkWorkspace(k)
            abc = _projection_coeffs(params, _draw_projections(params, a, b, fresh, own),
                                     a, b, own)
            want = [_bits(x, k) for x in abc]
            outcomes = draw_outcomes(*abc, k, fresh, own)
            ws.start(k)
            abc_ws = _projection_coeffs(params, _draw_projections(params, a, b, drawn, ws),
                                        a, b, ws)
            assert [_bits(x, k) for x in abc_ws] == want
            assert [_bits(o, k) for o in draw_outcomes(*abc_ws, k, drawn, ws)] == [
                _bits(o, k) for o in outcomes]

    def test_storage_does_not_depend_on_the_order_of_chunks(self, idle_workspaces):
        # a pool worker runs verify's shv trials, constant and cap fields mixed,
        # in an order the seed sets: the rows the idle workspace keeps must not
        # follow that order
        n = 10_000
        const, cap = ModelParams.shv(ConstantP((0.2, -0.3, 0.4))), ModelParams.shv(
            CapP(UnitVector3.normalized(0.0, 0.6, 0.8), 0.7, 0.7))

        def held(order):
            idle_workspaces.clear()
            tracemalloc.start()
            try:
                for params in order:
                    _shard_counts(params, Settings(X, Z), n, np.random.default_rng(0))
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # less than half a row apart, each order kept in one workspace
        assert abs(held([const, cap]) - held([cap, const])) < 4 * n
        assert len(idle_workspaces) == 1


def _read_only(x):
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


READ_ONLY_FAMILIES = {
    "fhv": ModelParams.fhv(0.7),
    "fhv-cube": ModelParams.fhv(1.3, FSpec(0.4, 3), FSpec(0.3, 1)),
    "thv": ModelParams.thv(1.0),
    "shv-const": ModelParams.shv(ConstantP((0.1, -0.2, 0.3))),
    "shv-cap": ModelParams.shv(CapP(UnitVector3.normalized(0.0, 0.6, 0.8), 0.7, 0.6)),
    "qm": ModelParams.qm(),
}


class TestCoeffsReadsOnly:
    """`coeffs` forms its projections in rows of its own, so read-only hidden
    state and settings go in and come out byte for byte as they were."""

    @pytest.mark.parametrize("params", READ_ONLY_FAMILIES.values(),
                             ids=READ_ONLY_FAMILIES.keys())
    @pytest.mark.parametrize("route", ["rows", "fixed-settings", "single"])
    def test_read_only_inputs_are_left_as_they_were(self, params, route):
        rng, n = np.random.default_rng(8), 64
        hidden = sample_hidden_batch(params, n, rng)
        a, b = sample_unit_batch(rng, n), sample_unit_batch(rng, n)
        if route != "rows":
            a, b = a[0], b[0]
        if route == "single":  # what `joint` passes: one 3-vector each
            hidden = {k: x[0] for k, x in hidden.items()}
        inputs = [_read_only(x) for x in (*hidden.values(), a, b)]
        before = [x.tobytes() for x in inputs]
        coeffs(params, dict(zip(hidden, inputs)), inputs[-2], inputs[-1])
        assert [x.tobytes() for x in inputs] == before


class TestTableCheck:
    def test_negative_cell_raises_on_batch_path(self):
        # |p| = 5 > p_m = 0.5: C = -5/sqrt(1.25) < -1, so pp < 0
        params = ModelParams.shv()
        hidden = {"p": np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 5.0]])}
        with pytest.raises(InvalidModelError, match="negative probability"):
            table_cells(*coeffs(params, hidden, X.arr, Y.arr))

    def test_in_range_batch_passes(self):
        hidden = {"p": np.array([[0.0, 0.0, 0.5]])}
        pp, pm, mp, mm = table_cells(*coeffs(ModelParams.shv(), hidden, X.arr, Y.arr))
        assert float(np.min([pp, pm, mp, mm])) >= 0.0

    def test_four_cell_check_catches_one_negative_cell(self):
        with pytest.raises(InvalidModelError):
            # mp = (1 - 0.9 - 0.9 - 0.5)/4 < 0 while the other three cells are positive
            table_cells(np.array([0.9]), np.array([-0.9]), np.array([0.5]))


def _coeffs_of(pp, pm, mp, mm):
    """(A, B, C) of the table with these cells."""
    return pp + pm - mp - mm, pp - pm + mp - mm, pp - pm - mp + mm


def _table_with_one_cell_at(cell, value):
    """Cells with ``cell`` at ``value``, its mirror (pp and mm, pm and mp) at
    1/2 - value and the other two at 1/4, so C is 0 up to rounding."""
    cells = [0.25] * 4
    cells[cell], cells[3 - cell] = value, 0.5 - value
    return cells


class TestDrawCheck:
    """The negative-cell check of `draw_outcomes`, which never forms the
    cells: a cell of a row made negative alone by 1e-9 raises, and one at
    -1e-13, inside TABLE_TOL, passes, for each shape of coefficients the
    Monte-Carlo loop draws from."""

    @staticmethod
    def draw(value, A, B, C):
        def draw():
            draw_outcomes(A, B, C, 2, np.random.default_rng(0), ChunkWorkspace(2))

        if value < -TABLE_TOL:
            with pytest.raises(InvalidModelError, match="negative probability"):
                draw()
        else:
            draw()

    @pytest.mark.parametrize("value", [-1e-9, -1e-13])
    @pytest.mark.parametrize("cell", range(4), ids=["pp", "pm", "mp", "mm"])
    def test_fhv_rows_with_a_scalar_c(self, cell, value):
        # row 0 is the uniform table, row 1 the table with the one negative cell
        A, B, C = _coeffs_of(*_table_with_one_cell_at(cell, value))
        self.draw(value, np.array([0.0, A]), np.array([0.0, B]), C)

    @pytest.mark.parametrize("value", [-1e-9, -1e-13])
    @pytest.mark.parametrize("cell", range(4), ids=["pp", "pm", "mp", "mm"])
    def test_scalar_table(self, cell, value):
        self.draw(value, *_coeffs_of(*_table_with_one_cell_at(cell, value)))

    @pytest.mark.parametrize("value", [-1e-9, -1e-13])
    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["pp=mm", "pm=mp"])
    def test_flat_marginals_with_a_c_row(self, sign, value):
        # with A = B = 0 the cells are pp = mm = (1 + C)/4 and pm = mp = (1 - C)/4,
        # so C = -(1 - 4v) puts pp and mm at v, and C = 1 - 4v puts pm and mp there
        self.draw(value, 0.0, 0.0, np.array([0.0, sign * (1.0 - 4.0 * value)]))


class TestWitness:
    @pytest.mark.parametrize("params", [
        ModelParams.fhv(1.0), ModelParams.shv(), ModelParams.thv(1.0),
    ], ids=["fhv", "shv", "thv"])
    @pytest.mark.parametrize("seed", [0, 19, 2024])
    def test_batched_witness_found(self, params, seed):
        found = outcome_dependence_witness(params, np.random.default_rng(seed), trials=500)
        assert found.delta > 0.1
        cfg = found.config
        t = joint(params, cfg["hidden"], Settings(cfg["a"], cfg["b"]))
        delta = abs(conditional(t, 1)[0] - conditional(t, -1)[0])
        assert delta == pytest.approx(found.delta, abs=1e-12)

    def test_rows_below_conditional_floor_are_skipped(self, monkeypatch):
        # row 0 has P(tau=+1) = 0; rows 1 and 2 have delta |C| = 0.3 and 0.5
        fixed = (np.array([0.9, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
                 np.array([-0.9, 0.3, -0.5]))
        monkeypatch.setattr(models_module, "coeffs", lambda *args: fixed)
        with np.errstate(all="raise"):
            found = outcome_dependence_witness(ModelParams.fhv(1.0),
                                               np.random.default_rng(0), trials=3)
        assert found.delta == pytest.approx(0.5, abs=1e-15)

    def test_all_rows_below_floor_gives_no_witness(self, monkeypatch):
        fixed = (np.zeros(2), np.full(2, -1.0), np.zeros(2))
        monkeypatch.setattr(models_module, "coeffs", lambda *args: fixed)
        found = outcome_dependence_witness(ModelParams.fhv(1.0),
                                           np.random.default_rng(0), trials=2)
        assert (found.delta, found.config) == (-1.0, {})


@pytest.fixture
def idle_workspaces(monkeypatch):
    """An empty idle-workspace list for the shards, in place of the
    process's own.  A shard gives its workspace back there, so a memory test
    clears it before each measurement to see the shards allocate them."""
    idle = []
    monkeypatch.setattr(correlators_module, "_IDLE_WORKSPACES", idle)
    return idle


class TestChunking:
    def test_chunked_reruns_are_identical(self):
        s = Settings(X, UnitVector3.normalized(1.0, 1.0, 0.0))
        n = 2 * MC_CHUNK + 7
        first = mc_correlator(ModelParams.thv(1.0), s, n, seed=3, shards=2)
        assert first == mc_correlator(ModelParams.thv(1.0), s, n, seed=3, shards=2)
        assert first.n == n

    def test_peak_memory_does_not_grow_with_n(self, idle_workspaces):
        params = ModelParams.fhv(0.5)
        s = Settings(X, Z)

        def peak(n):
            idle_workspaces.clear()
            tracemalloc.start()
            try:
                mc_correlator(params, s, n, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2 * MC_CHUNK), peak(8 * MC_CHUNK)
        assert large <= 1.5 * small

    def test_marginal_frequency_draw_memory_does_not_grow_with_n(self, idle_workspaces):
        # the draw behind the verify claim props.fhv_marginal_zero_mean
        params, s = ModelParams.fhv(1.0), Settings(X, Y)

        def peak(n):
            idle_workspaces.clear()
            tracemalloc.start()
            try:
                _shard_counts(params, s, n, np.random.default_rng(2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2 * MC_CHUNK), peak(8 * MC_CHUNK)
        assert large <= 1.5 * small

    def test_shards_beyond_n_add_neither_output_nor_memory(self, idle_workspaces):
        # only the first n shards draw a sample, so more shards change nothing
        params, s, n = ModelParams.fhv(0.3), Settings(X, Y), MIN_MC_SAMPLES
        runs = {}

        def run(shards):
            idle_workspaces.clear()
            runs[shards] = mc_correlator(params, s, n, seed=7, shards=shards)

        at_n, beyond = _peak(lambda: run(n)), _peak(lambda: run(10**5))
        assert runs[10**5] == runs[n]
        assert beyond <= 1.5 * at_n

    def test_memory_does_not_grow_with_shards_past_the_window(self, monkeypatch,
                                                              idle_workspaces):
        # a map keeps one window of units in flight and each shard builds its
        # stream when it runs, so ten times the shards past the window cost
        # no more memory
        _force_workers(monkeypatch, 2)
        params, n = ModelParams.qm(), 20_000

        def run(shards):
            idle_workspaces.clear()
            mc_correlator(params, POOL_SETTINGS, n, seed=5, shards=shards)

        run(500)  # warm: the first map imports the thread pool
        past, far_past = _peak(lambda: run(500)), _peak(lambda: run(5_000))
        assert far_past <= 1.5 * past

    def test_a_shard_that_raises_gives_its_workspace_back(self, monkeypatch,
                                                          idle_workspaces):
        def fail(*args):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(correlators_module, "draw_outcomes", fail)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="draw failed"):
                _shard_counts(ModelParams.fhv(0.5), Settings(X, Z), 1000,
                              np.random.default_rng(0))
        assert len(idle_workspaces) == 1


# ------------------------------ thread pool --------------------------------

POOL_FAMILIES = {
    "qm": ModelParams.qm(),
    "fhv": ModelParams.fhv(0.7, FSpec(0.4, 3)),
    "thv": ModelParams.thv(1.2),
    "shv-const": ModelParams.shv(ConstantP((0.2, -0.3, 0.4))),
    "shv-cap": ModelParams.shv(CapP(UnitVector3.normalized(0.0, 0.6, 0.8), 0.7, 0.7)),
}
POOL_SETTINGS = Settings(UnitVector3.normalized(0.3, 0.4, 0.866),
                         UnitVector3.normalized(0.9, -0.1, 0.2))


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(correlators_module, "_usable_cpus", lambda: workers)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkerCount:
    @pytest.mark.parametrize("family", sorted(POOL_FAMILIES))
    def test_estimates_do_not_depend_on_the_worker_count(self, family, monkeypatch):
        params = POOL_FAMILIES[family]
        sizes = (MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7)
        runs = {}
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 2, 3):
                _force_workers(monkeypatch, workers)
                # more threads than cores, switching often: a shared buffer would show
                sys.setswitchinterval(1e-5 if workers == 3 else interval)
                runs[workers] = [mc_correlator(params, POOL_SETTINGS, n, n % 97, shards)
                                 for n in sizes for shards in (1, 2, 3, 5)]
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[2] == runs[3]

    def test_trial_failures_do_not_depend_on_the_worker_count(self, monkeypatch):
        counts = []
        for workers in (1, 2):
            _force_workers(monkeypatch, workers)
            # sigma = 1 leaves some of the 40 trials failing, so the count carries information
            counts.append(_mc_trial_failures(ModelFamily.FHV, 40, 2000, 1.0,
                                             np.random.default_rng(8)))
        assert counts[0] == counts[1] > 0

    def test_verify_report_does_not_depend_on_the_worker_count(self, monkeypatch):
        cfg = parse_config({"task": "verify", "verify": {
            "trials": 8, "mc_trial_n": 2000, "mc_n": 5000, "cases": 200}})
        reports = set()
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            reports.add(report_to_json(run_verify(cfg).as_dict()))
        assert len(reports) == 1

    def test_units_run_on_their_own_threads_in_unit_order(self, monkeypatch):
        _force_workers(monkeypatch, 2)
        both_running = threading.Barrier(2, timeout=30)

        def unit(i):
            both_running.wait()
            return i, threading.get_ident()

        results = list(_pool_map(unit, [0, 1]))
        assert [i for i, _ in results] == [0, 1]
        assert len({t for _, t in results}) == 2
        assert threading.get_ident() not in {t for _, t in results}
        # units past the first window still come back in unit order
        units = range(1_000)
        assert list(_pool_map(lambda i: i * i, units)) == [i * i for i in units]

    @pytest.mark.parametrize("family", ["fhv", "thv", "shv-cap"])
    def test_two_workers_fit_in_one_reference_shard(self, family, monkeypatch,
                                                     idle_workspaces):
        # two pooled shards of MC_CHUNK, each in its worker's workspace, peak no
        # higher than the reference pipeline drawing the same samples as one
        # shard, nor above the rows of their two warm workspaces (pinned
        # below) plus a byte per sample
        _force_workers(monkeypatch, 2)
        params = POOL_FAMILIES[family]
        pooled = _peak(lambda: mc_correlator(params, POOL_SETTINGS, 2 * MC_CHUNK, 1, 2))
        reference = _peak(lambda: _ref_mc(params, POOL_SETTINGS, 2 * MC_CHUNK, 1, 1))
        rows = {"fhv": 5, "thv": 4, "shv-cap": 4}[family]
        assert pooled <= reference
        assert pooled <= (2 * rows * 8 + 1) * MC_CHUNK

    @pytest.mark.parametrize("family,rows", [
        ("fhv", 5), ("thv", 4), ("shv-cap", 4), ("shv-const", 2), ("qm", 2)])
    def test_warm_workspace_holds_the_most_rows_lent_at_once(self, family, rows,
                                                              idle_workspaces):
        # the most rows one chunk lends at once: for fhv, the rows of A and B
        # (where pp+pm, pm and then pp+pm+mp are formed), pp, the uniforms r
        # and the flags; a constant p-field forms scalar sums, as qm does
        n, params = 10_000, POOL_FAMILIES[family]
        # made before tracing: the first generator imports numpy.random internals
        rngs = [np.random.default_rng(seed) for seed in (0, 1)]
        tracemalloc.start()
        try:
            for rng in rngs:
                _shard_counts(params, POOL_SETTINGS, n, rng)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held // (8 * n) == rows
        assert len(idle_workspaces) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_second_map_reuses_the_first_maps_workspaces(self, workers, monkeypatch,
                                                         idle_workspaces):
        _force_workers(monkeypatch, workers)
        params = POOL_FAMILIES["fhv"]
        # each shard records the workspace its draw is given, then waits while
        # holding it until every worker's shard holds one
        used, all_holding = [], threading.Barrier(workers, timeout=30)
        draw = correlators_module._draw_projections

        def holding(params, a, b, rng, ws):
            used.append(ws)
            all_holding.wait()
            return draw(params, a, b, rng, ws)

        monkeypatch.setattr(correlators_module, "_draw_projections", holding)

        def unit(i):
            _shard_counts(params, POOL_SETTINGS, MC_CHUNK, np.random.default_rng(i))

        list(_pool_map(unit, [0, 1]))
        first, kept = set(map(id, used)), list(idle_workspaces)
        used.clear()
        grown = _peak(lambda: list(_pool_map(unit, [0, 1])))
        assert len(kept) == workers
        assert first == set(map(id, used)) == set(map(id, kept))
        assert set(map(id, idle_workspaces)) == set(map(id, kept))
        assert len(idle_workspaces) <= workers
        assert grown < 8 * MC_CHUNK  # less than one float row of a chunk
