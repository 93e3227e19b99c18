import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from hvsinglet.geometry import (
    ChunkWorkspace,
    UnitVector3,
    X,
    Y,
    Z,
    dot,
    make_rng,
    sample_unit_batch,
    sample_unit_uniform,
)
from hvsinglet.models import (
    FIELD_READERS,
    TABLE_TOL,
    CapP,
    ConstantP,
    FSpec,
    HiddenState,
    InvalidModelError,
    ModelFamily,
    ModelParams,
    ProbabilityTable,
    Settings,
    UndefinedConditionalError,
    coeffs,
    conditional,
    draw_outcomes,
    fhv_conditional_closed_form,
    joint,
    lhv_feasible_c_range,
    malus_check,
    marginal,
    outcome_dependence_witness,
    sample_hidden,
    table_cells,
    thv_positivity_margin,
)

SQRT2 = math.sqrt(2.0)
QM = ModelParams.qm()


def units():
    return st.builds(
        lambda z, az: UnitVector3.normalized(
            math.sqrt(max(0.0, 1.0 - z * z)) * math.cos(az),
            math.sqrt(max(0.0, 1.0 - z * z)) * math.sin(az),
            z,
        ),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 2.0 * math.pi),
    )


def random_rotation(rng):
    """Haar-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestModelParams:
    def test_epsilon_is_derived(self):
        p = ModelParams.fhv(1.0)
        assert p.epsilon == pytest.approx(0.5, abs=1e-15)
        assert p.with_eta(3.0).epsilon == pytest.approx(0.75, abs=1e-15)

    def test_negative_eta_rejected(self):
        with pytest.raises(InvalidModelError):
            ModelParams.fhv(-0.1)

    def test_f_coeff_above_half_rejected(self):
        with pytest.raises(InvalidModelError):
            FSpec(coeff=0.6)

    def test_p_sup_matches_declared(self):
        spec = ConstantP((0.0, 0.3, 0.4))
        assert spec.p_sup() == pytest.approx(0.5, abs=1e-9)
        cap = CapP(axis=Z, half_angle=0.5, magnitude=0.8)
        assert cap.p_sup() == 0.8
        # every sampled carrier respects |p| <= p_m
        draws = cap.sample(make_rng(0), 5000)
        assert np.max(np.linalg.norm(draws, axis=1)) <= 0.8 + 1e-12

    def test_cap_mean_is_shrunk_axis(self):
        cap = CapP(axis=Z, half_angle=math.pi / 3, magnitude=1.0)
        assert np.allclose(cap.p_mean(), [0.0, 0.0, 0.75], atol=1e-15)

    def test_with_pm_rescales(self):
        p = ModelParams.shv(ConstantP((0.0, 0.0, 0.5))).with_pm(0.25)
        assert p.p_m == pytest.approx(0.25, abs=1e-15)
        assert np.allclose(p.p_mean(), [0.0, 0.0, 0.25])

    @given(st.floats(-0.1, 0.6), st.integers(0, 4))
    def test_every_accepted_f_stays_within_half(self, coeff, power):
        # the bounds on coeff and power are the only check FSpec makes
        try:
            f = FSpec(coeff, power)
        except InvalidModelError:
            return
        x = np.linspace(-1.0, 1.0, 20001)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.max(np.abs(f(x))) <= 0.5


# a value other than the default for every field of ModelParams
NON_DEFAULT = {"eta": 0.4, "zeta": 0.5, "f_spec": FSpec(0.3), "f_spec_b": FSpec(),
               "p_spec": ConstantP((0.0, 0.0, 0.3))}


class TestFamilyFields:
    """A field the family does not read (`FIELD_READERS`) must keep its
    default; any other value raises InvalidModelError naming the field and
    both families."""

    @pytest.mark.parametrize("family, name", [
        (family, name) for name, readers in FIELD_READERS.items()
        for family in ModelFamily if family not in readers])
    def test_unread_field_rejected(self, family, name):
        readers = "/".join(r.value for r in FIELD_READERS[name])
        with pytest.raises(InvalidModelError, match=f"'{name}' is a {readers} parameter; "
                                                    f"the {family.value} model ignores it"):
            ModelParams(family, **{name: NON_DEFAULT[name]})

    def test_with_zeta_on_qm_rejected(self):
        with pytest.raises(InvalidModelError, match="'zeta' is a thv parameter"):
            ModelParams.qm().with_zeta(0.5)

    def test_with_pm_on_fhv_rejected(self):
        with pytest.raises(InvalidModelError,
                           match="'p_m' is a shv parameter; the fhv model ignores it"):
            ModelParams.fhv(0.1).with_pm(0.3)

    def test_with_eta_on_thv_rejected(self):
        with pytest.raises(InvalidModelError, match="the thv model ignores it"):
            ModelParams.thv(1.0).with_eta(0.2)

    @pytest.mark.parametrize("family", ["bhv", "lhv", "fhv"])
    def test_family_outside_the_enum_rejected(self, family):
        # the comparison classes are no families, and a plain string is no tag
        # (a string model would reach no family's branch of any evaluator)
        with pytest.raises(InvalidModelError, match="unknown model family"):
            ModelParams(family)


class TestThvAudit:
    def test_margin_positive_inside(self):
        assert thv_positivity_margin(1.0) >= -1e-9
        assert thv_positivity_margin(1.999) >= -1e-9

    def test_margin_negative_beyond_two(self):
        assert thv_positivity_margin(2.05) < -1e-3

    def test_construction_rejects_bad_zeta(self):
        ModelParams.thv(2.0)
        with pytest.raises(InvalidModelError):
            ModelParams.thv(2.2)


def _unaudited_thv(zeta):
    """A thv model with the given zeta, set past the construction check."""
    params = ModelParams.thv(0.0)
    object.__setattr__(params, "zeta", zeta)
    return params


class TestThvBoundAtTheTable:
    """zeta <= 2 checked by the table kernel alone, with no positivity audit."""

    def test_no_negative_cell_at_zeta_two(self):
        rng = make_rng(41)
        n = 20000
        u, a, b = (sample_unit_batch(rng, n) for _ in range(3))
        # half the rows near the extremes a = b = +-u, where a cell reaches 0
        near = rng.choice([-1.0, 1.0], size=(n // 2, 1)) * u[: n // 2]
        a[: n // 2] = near + 1e-4 * a[: n // 2]
        b[: n // 2] = near + 1e-4 * b[: n // 2]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        a[:3] = b[:3] = u[:3]  # exactly at the extreme
        cells = table_cells(*coeffs(_unaudited_thv(2.0), {"u": u}, a, b))
        worst = min(float(np.min(c)) for c in cells)
        assert -TABLE_TOL <= worst < 1e-6

    def test_negative_cell_just_above_two(self):
        u = Z.arr
        with pytest.raises(InvalidModelError, match="negative probability"):
            table_cells(*coeffs(_unaudited_thv(2.0 + 1e-6), {"u": u}, u, u))


class TestFhvJoint:
    def test_hand_value(self):
        # f(x)=x/2, eta=1, u=a, v=b, a.b=0, outcome (+,+):
        # 1/4 + (1*(1/2+1/2) - 0)/8 = 3/8
        params = ModelParams.fhv(1.0)
        t = joint(params, HiddenState.uv(X, Y), Settings(X, Y))
        assert t.pp == pytest.approx(0.375, abs=1e-15)

    def test_eta_zero_collapses_to_qm(self):
        params = ModelParams.fhv(0.0)
        rng = make_rng(3)
        for _ in range(20):
            u, v = sample_unit_uniform(rng), sample_unit_uniform(rng)
            a, b = sample_unit_uniform(rng), sample_unit_uniform(rng)
            t = joint(params, HiddenState.uv(u, v), Settings(a, b))
            q = joint(QM, None, Settings(a, b))
            assert t.as_dict() == pytest.approx(q.as_dict(), abs=1e-15)

    @given(units(), units(), units(), units(), st.floats(0.0, 5.0))
    def test_normalization(self, u, v, a, b, eta):
        t = joint(ModelParams.fhv(eta), HiddenState.uv(u, v), Settings(a, b))
        assert t.total() == pytest.approx(1.0, abs=1e-12)


class TestShvJoint:
    def test_uniform_when_everything_vanishes(self):
        params = ModelParams.shv(ConstantP((0.0, 0.0, 0.0)))
        t = joint(params, HiddenState.carrier((0.0, 0.0, 0.0)), Settings(X, Y))
        assert t.as_dict() == pytest.approx({"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25})

    def test_hand_value(self):
        # a=x, b=y, p=z, pm=1: P(+,+) = 1/4 - 1/(4*sqrt(2))
        params = ModelParams.shv(ConstantP((0.0, 0.0, 1.0)))
        t = joint(params, HiddenState.carrier((0.0, 0.0, 1.0)), Settings(X, Y))
        assert t.pp == pytest.approx(0.07322330470336313, abs=1e-15)

    def test_marginals_exactly_half(self):
        params = ModelParams.shv()
        rng = make_rng(9)
        for _ in range(50):
            h = sample_hidden(params, rng)
            t = joint(params, h, Settings(sample_unit_uniform(rng), sample_unit_uniform(rng)))
            assert marginal(t, "A") == (0.5, 0.5)
            assert marginal(t, "B") == (0.5, 0.5)

    def test_inconsistent_carrier_rejected(self):
        params = ModelParams.shv(ConstantP((0.0, 0.0, 0.5)))
        with pytest.raises(InvalidModelError):
            joint(params, HiddenState.carrier((0.0, 0.0, 0.9)), Settings(X, Y))

    def test_positivity_bulk(self):
        # oracle: |a.b + (a x b).p| <= sqrt(1+|p|^2) by Cauchy-Schwarz plus
        # the Lagrange identity, so every entry stays nonnegative
        rng = make_rng(17)
        pm = 1.3
        params = ModelParams.shv(ConstantP((0.0, 0.0, pm)))
        a = np.array([sample_unit_uniform(rng).arr for _ in range(200)])
        for i in range(200):
            direction = sample_unit_uniform(rng).arr
            p = float(rng.uniform(0, pm)) * direction
            h = HiddenState.carrier(p)
            t = joint(params, h, Settings(
                UnitVector3.from_array(a[i]), sample_unit_uniform(rng)))
            assert min(t.pp, t.pm, t.mp, t.mm) >= 0.0


class TestThvJoint:
    def test_zeta_zero_is_qm(self):
        t = joint(ModelParams.thv(0.0), HiddenState.uv(Z, -Z), Settings(X, Y))
        assert t.as_dict() == pytest.approx(joint(QM, None, Settings(X, Y)).as_dict(), abs=1e-15)

    def test_orthogonal_u_kills_cubic_term(self):
        t = joint(ModelParams.thv(1.5), HiddenState.uv(Z, -Z), Settings(X, Y))
        assert t.as_dict() == pytest.approx(joint(QM, None, Settings(X, Y)).as_dict(), abs=1e-15)

    def test_hand_value(self):
        # a=b=u=z, zeta=1: cubic term is (1)^3*(-1)^3 = -1, so P(+,+) = 1/4
        t = joint(ModelParams.thv(1.0), HiddenState.uv(Z, -Z), Settings(Z, Z))
        assert t.pp == pytest.approx(0.25, abs=1e-15)


class TestQmJoint:
    def test_perfect_anticorrelation(self):
        t = joint(QM, None, Settings(Z, Z))
        assert t.as_dict() == pytest.approx({"++": 0.0, "+-": 0.5, "-+": 0.5, "--": 0.0})

    def test_orthogonal_settings_uniform(self):
        t = joint(QM, None, Settings(X, Y))
        assert t.as_dict() == pytest.approx({"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25})

    def test_intermediate_angle(self):
        b = UnitVector3.normalized(1.0, 1.0, 0.0)
        t = joint(QM, None, Settings(X, b))
        assert t.pp == pytest.approx(0.07322330470336313, abs=1e-15)

    def test_correlator_equals_minus_ab(self):
        rng = make_rng(1)
        for _ in range(50):
            a, b = sample_unit_uniform(rng), sample_unit_uniform(rng)
            t = joint(QM, None, Settings(a, b))
            ab = a.x * b.x + a.y * b.y + a.z * b.z
            assert t.correlator() == pytest.approx(-ab, abs=1e-12)


class TestFrameInvariance:
    def test_tables_depend_only_on_relative_angles(self):
        rng = make_rng(23)
        params = ModelParams.fhv(0.7)
        for _ in range(25):
            u, v = sample_unit_uniform(rng), sample_unit_uniform(rng)
            a, b = sample_unit_uniform(rng), sample_unit_uniform(rng)
            rot = random_rotation(rng)
            t1 = joint(params, HiddenState.uv(u, v), Settings(a, b))
            t2 = joint(
                params,
                HiddenState.uv(UnitVector3.from_array(rot @ u.arr),
                               UnitVector3.from_array(rot @ v.arr)),
                Settings(
                    UnitVector3.from_array(rot @ a.arr),
                    UnitVector3.from_array(rot @ b.arr),
                ),
            )
            assert t1.as_dict() == pytest.approx(t2.as_dict(), abs=1e-12)


class TestMarginalsConditionals:
    def test_fhv_marginal_hand_value(self):
        # f=x/2, eta=1, u=a: marginal(+) = (1 + (1/2)(1/2))/2 = 0.625
        params = ModelParams.fhv(1.0)
        t = joint(params, HiddenState.uv(Z, X), Settings(Z, Y))
        assert marginal(t, "A")[0] == pytest.approx(0.625, abs=1e-15)

    def test_uniform_table(self):
        t = ProbabilityTable(0.25, 0.25, 0.25, 0.25)
        assert marginal(t, "A") == (0.5, 0.5)
        assert marginal(t, "B") == (0.5, 0.5)

    def test_conditional_doubles_joint_for_flat_marginals(self):
        params = ModelParams.thv(1.0)
        rng = make_rng(31)
        for _ in range(20):
            h = sample_hidden(params, rng)
            t = joint(params, h, Settings(sample_unit_uniform(rng), sample_unit_uniform(rng)))
            for tau in (1, -1):
                got = conditional(t, tau)
                assert got[0] == pytest.approx(2.0 * t.prob(1, tau), abs=1e-12)
                assert got[1] == pytest.approx(2.0 * t.prob(-1, tau), abs=1e-12)

    def test_qm_anticorrelated_conditional(self):
        t = joint(QM, None, Settings(Z, Z))
        assert conditional(t, 1) == (0.0, 1.0)

    def test_zero_probability_conditioning_rejected(self):
        t = ProbabilityTable(0.5, 0.0, 0.5, 0.0)
        with pytest.raises(UndefinedConditionalError):
            conditional(t, -1)

    @given(units(), units(), units(), units(),
           st.sampled_from([1, -1]), st.sampled_from([1, -1]))
    @hyp_settings(max_examples=200)
    def test_fhv_conditional_dual_route(self, u, v, a, b, sigma, tau):
        params = ModelParams.fhv(eta=2.0)  # fixed eta; vectors vary
        t = joint(params, HiddenState.uv(u, v), Settings(a, b))
        from_table = conditional(t, tau)[0 if sigma == 1 else 1]
        closed = fhv_conditional_closed_form(params, u, v, Settings(a, b), sigma, tau)
        assert from_table == pytest.approx(closed, abs=1e-12)


class TestNoSignaling:
    @pytest.mark.parametrize("family", ["fhv", "shv", "thv"])
    def test_remote_setting_invariance(self, family):
        params = {
            "fhv": ModelParams.fhv(1.0),
            "shv": ModelParams.shv(),
            "thv": ModelParams.thv(1.0),
        }[family]
        rng = make_rng(7)
        for _ in range(100):
            h = sample_hidden(params, rng)
            a = sample_unit_uniform(rng)
            b1, b2 = sample_unit_uniform(rng), sample_unit_uniform(rng)
            m1 = marginal(joint(params, h, Settings(a, b1)), "A")
            m2 = marginal(joint(params, h, Settings(a, b2)), "A")
            assert m1[0] == pytest.approx(m2[0], abs=1e-12)


class TestSampleHidden:
    def test_thv_support(self):
        rng = make_rng(2)
        for _ in range(200):
            h = sample_hidden(ModelParams.thv(1.0), rng)
            assert (h.u.x + h.v.x, h.u.y + h.v.y, h.u.z + h.v.z) == (0.0, 0.0, 0.0)

    def test_determinism(self):
        p = ModelParams.fhv(0.3)
        s1 = [sample_hidden(p, make_rng(5)) for _ in range(1)]
        s2 = [sample_hidden(p, make_rng(5)) for _ in range(1)]
        assert s1 == s2

    def test_fhv_zero_mean_response(self):
        # sphere average of f(u.a) vanishes for odd f under the uniform draw
        params = ModelParams.fhv(1.0)
        rng = make_rng(13)
        n = 200_000
        from hvsinglet.models import sample_hidden_batch

        u = sample_hidden_batch(params, n, rng)["u"]
        vals = params.f_spec(u @ Z.arr)
        stderr = float(np.std(vals, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(vals))) <= 4.0 * stderr

    def test_qm_has_no_sampler(self):
        with pytest.raises(InvalidModelError):
            sample_hidden(ModelParams.qm(), make_rng(0))


class TestHiddenVectors:
    """`joint` reads the vectors `HIDDEN_VECTORS` names for the family and
    names any that the state lacks."""

    U, V = UnitVector3(0.0, 0.0, 1.0), UnitVector3(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("params, h, missing", [
        (ModelParams.fhv(0.5), HiddenState.carrier((0.0, 0.0, 0.1)), "u and v"),
        (ModelParams.fhv(0.5), HiddenState(u=U), "v"),
        (ModelParams.fhv(0.5), None, "u and v"),
        (ModelParams.thv(1.0), HiddenState(v=V), "u"),
        (ModelParams.shv(), HiddenState.uv(U, V), "p"),
        (ModelParams.shv(), None, "p"),
    ], ids=["fhv-carrier", "fhv-u-only", "fhv-none", "thv-v-only", "shv-uv", "shv-none"])
    def test_missing_vector_named(self, params, h, missing):
        with pytest.raises(InvalidModelError,
                           match=f"{params.family.value} hidden state needs {missing}$"):
            joint(params, h, Settings(X, Y))

    def test_qm_rejects_a_state(self):
        with pytest.raises(InvalidModelError, match="the qm model has no hidden state"):
            joint(QM, HiddenState.uv(self.U, self.V), Settings(X, Y))

    def test_thv_reads_u_alone(self):
        params = ModelParams.thv(1.0)
        h = HiddenState(u=self.U)
        assert joint(params, h, Settings(X, Y)) == joint(params, HiddenState.uv(self.U, -self.U),
                                                         Settings(X, Y))


class TestSampleOutcomes:
    # the counts of `draw_outcomes` (sigma == +1, sigma*tau == +1) over a
    # batch of one name the outcome (sigma, tau) drawn from the table with
    # coefficients (A, B, C)
    @staticmethod
    def draw_one(A, B, C, rng, ws):
        ws.start(1)
        return draw_outcomes(A, B, C, 1, rng, ws, sigma=True)

    def test_degenerate_table(self):
        # (A, B, C) = (1, 1, 1): pp = 1, every other cell 0
        rng, ws = make_rng(0), ChunkWorkspace(1)
        for _ in range(100):
            assert self.draw_one(1.0, 1.0, 1.0, rng, ws) == (1, 1)

    def test_uniform_frequencies(self):
        # (A, B, C) = (0, 0, 0) as fhv-shaped rows: every cell 1/4, so sigma
        # and sigma*tau are each +1 half the time in one batch of 100,000, and
        # each (sigma, sigma*tau) a quarter of 10,000 batches of one
        rng, n = make_rng(4), 100_000
        plus, same = draw_outcomes(np.zeros(n), np.zeros(n), 0.0, n, rng, ChunkWorkspace(n),
                                   sigma=True)
        for count in (plus, same):
            assert abs(count / n - 0.5) <= 4 * math.sqrt(0.25 / n)
        ws, n = ChunkWorkspace(1), 10_000
        drawn = [self.draw_one(np.zeros(1), np.zeros(1), 0.0, rng, ws) for _ in range(n)]
        stderr = math.sqrt(0.25 * 0.75 / n)
        for key in ((1, 1), (1, 0), (0, 1), (0, 0)):
            assert abs(drawn.count(key) / n - 0.25) <= 4 * stderr

    def test_zero_cells_never_drawn(self):
        # the qm table at a = b: pp = mm = 0
        A, B, C = coeffs(QM, {}, Z.arr, Z.arr)
        rng, ws = make_rng(8), ChunkWorkspace(1)
        for _ in range(10_000):
            assert self.draw_one(A, B, C, rng, ws)[1] == 0  # sigma != tau


class TestComparisonClasses:
    # product class: table_cells(Abar, Bbar, Abar*Bbar); Malus class:
    # table_cells(u.a, v.b, C) with C in the feasible range
    def test_bhv_uniform(self):
        t = ProbabilityTable(*table_cells(0.0, 0.0, 0.0 * 0.0))
        assert t.as_dict() == pytest.approx({"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25})

    def test_bhv_deterministic_limit(self):
        t = ProbabilityTable(*table_cells(1.0, -1.0, 1.0 * -1.0))
        assert t.pm == pytest.approx(1.0, abs=1e-15)

    def test_bhv_rejects_out_of_range(self):
        with pytest.raises(InvalidModelError):
            table_cells(1.5, 0.0, 1.5 * 0.0)
        abar, bbar = np.array([0.5, -0.2, 0.9]), np.array([0.3, -1.01, 1.0])
        with pytest.raises(InvalidModelError):  # one row with |Bbar| > 1
            table_cells(abar, bbar, abar * bbar)

    def test_bhv_outcome_independence(self):
        rng = make_rng(21)
        for _ in range(200):
            abar, bbar = rng.uniform(-0.99, 0.99, 2)
            t = ProbabilityTable(*table_cells(abar, bbar, abar * bbar))
            assert conditional(t, 1)[0] == pytest.approx(conditional(t, -1)[0], abs=1e-12)

    def test_lhv_boundary_case(self):
        # u.a = v.b = 0 leaves only the correlation term; C = -1 gives the
        # perfectly anticorrelated table
        t = ProbabilityTable(*table_cells(dot(Z, X), dot(Z, Y), -1.0))
        assert t.as_dict() == pytest.approx({"++": 0.0, "+-": 0.5, "-+": 0.5, "--": 0.0})

    def test_lhv_malus_marginals(self):
        rng = make_rng(25)
        for _ in range(100):
            u, v = sample_unit_uniform(rng), sample_unit_uniform(rng)
            a, b = sample_unit_uniform(rng), sample_unit_uniform(rng)
            ua = u.x * a.x + u.y * a.y + u.z * a.z
            vb = v.x * b.x + v.y * b.y + v.z * b.z
            lo, hi = lhv_feasible_c_range(ua, vb)
            c = float(rng.uniform(lo, hi))
            t = ProbabilityTable(*table_cells(ua, vb, c))
            assert marginal(t, "A")[0] == pytest.approx((1 + ua) / 2, abs=1e-12)
            assert marginal(t, "B")[0] == pytest.approx((1 + vb) / 2, abs=1e-12)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0))
    @hyp_settings(max_examples=300)
    def test_lhv_feasibility_matches_bruteforce(self, ua, vb, c):
        # brute-force oracle: all four cells of [1 + s*ua + t*vb + s*t*c]/4
        feasible_brute = all(
            1.0 + s * ua + t * vb + s * t * c >= -1e-12
            for s in (1, -1)
            for t in (1, -1)
        )
        lo, hi = lhv_feasible_c_range(ua, vb)
        assert feasible_brute == (lo - 1e-12 <= c <= hi + 1e-12)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_table_cells_accept_exactly_the_feasible_range(self, ua, vb):
        lo, hi = lhv_feasible_c_range(ua, vb)
        for c in (lo, 0.5 * (lo + hi), hi):
            table_cells(ua, vb, c)
        for c in (lo - 1e-9, hi + 1e-9):
            with pytest.raises(InvalidModelError):
                table_cells(ua, vb, c)

    def test_lhv_infeasible_rejected(self):
        with pytest.raises(InvalidModelError):
            table_cells(dot(X, X), dot(X, X), -0.9)  # lower bound is |1+1|-1 = 1


class TestMalusCheck:
    def test_fhv_deviation(self):
        rep = malus_check(ModelParams.fhv(1.0))
        # at u=a: marginal 0.625 vs Malus 1.0 -> deviation 0.375
        assert rep.deviation_at_alignment == pytest.approx(0.375, abs=1e-12)
        assert not rep.compliant

    def test_shv_flat_marginal(self):
        rep = malus_check(ModelParams.shv())
        assert rep.max_deviation == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("grid_points", [0, 1, 2.5])
    def test_grid_without_both_ends_rejected(self, grid_points):
        # one point would read the deviation at alignment at x = -1
        with pytest.raises(ValueError, match="grid_points must be (an integer|at least 2)"):
            malus_check(ModelParams.fhv(1.0), grid_points)


class TestOutcomeDependence:
    @pytest.mark.parametrize("family", ["fhv", "shv", "thv"])
    def test_witness_found(self, family):
        params = {
            "fhv": ModelParams.fhv(1.0),
            "shv": ModelParams.shv(),
            "thv": ModelParams.thv(1.0),
        }[family]
        found = outcome_dependence_witness(params, make_rng(19), trials=500)
        assert found.delta > 0.1

    def test_qm_rejected_before_any_draw(self):
        rng = make_rng(19)
        with pytest.raises(InvalidModelError, match="the qm model has no hidden state"):
            outcome_dependence_witness(QM, rng, trials=500)
        assert rng.bit_generator.state == make_rng(19).bit_generator.state
