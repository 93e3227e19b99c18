"""Outcome probabilities for three local hidden-variable families of the spin
singlet, the quantum reference, and two comparison classes.

Every joint table produced here has the bilinear form

    P(sigma, tau) = [1 + sigma*A + tau*B + sigma*tau*C] / 4

with family-specific single-party terms A, B and correlation term C:

    FHV  A = eps*f(u.a), B = eps*f(v.b), C = -a.b/(1+eta),   eps = eta/(1+eta)
    SHV  A = B = 0,      C = -[a.b + (a x b).p(lam)] / sqrt(1+pm^2)
    THV  A = B = 0,      C = -[a.b + zeta*(a.u)^3*(b.v)^3],  v = -u
    QM   A = B = 0,      C = -a.b
    BHV  A = Abar,       B = Bbar,  C = Abar*Bbar   (outcome independent)
    LHV  A = u.a,        B = v.b,   C free within positivity (Malus marginals)

Hidden-variable samplers never see detector settings, so setting independence
of the hidden distribution is enforced by the call signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import (
    UnitVector3,
    cross,
    dot,
    sample_cap_batch,
    sample_unit_batch,
    sample_unit_uniform,
)

TABLE_TOL = 1e-12
CONDITIONAL_FLOOR = 1e-14


class InvalidModelError(ValueError):
    """Parameters or hidden state violate a positivity/consistency constraint."""


class UndefinedConditionalError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


class ModelFamily(str, Enum):
    FHV = "fhv"
    SHV = "shv"
    THV = "thv"
    QM = "qm"
    BHV = "bhv"
    LHV = "lhv"


@dataclass(frozen=True)
class FSpec:
    """Odd single-party response f(x) = coeff * x**power on [-1, 1].

    coeff in [0, 1/2] and odd power keep |f| <= 1/2 (so every joint
    probability stays nonnegative) and make the sphere average of f(u.a)
    vanish for the uniform hidden distribution.
    """

    coeff: float = 0.5
    power: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.coeff <= 0.5:
            raise InvalidModelError("f coefficient must lie in [0, 1/2]")
        if self.power not in (1, 3):
            raise InvalidModelError("f power must be 1 or 3")
        grid = np.linspace(-1.0, 1.0, 2001)
        if np.max(np.abs(self(grid))) > 0.5 + 1e-15:
            raise InvalidModelError("|f(x)| exceeds 1/2 on [-1, 1]")

    def __call__(self, x):
        return self.coeff * x**self.power


@dataclass(frozen=True)
class ConstantP:
    """Hidden vector field p(lam) = p0 for every carrier.

    The mean equals the constant and the sup norm is |p0|.
    """

    p0: tuple[float, float, float] = (0.0, 0.0, 0.5)

    def p_sup(self) -> float:
        return float(np.linalg.norm(self.p0))

    def p_mean(self) -> np.ndarray:
        return np.asarray(self.p0, dtype=float)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.tile(np.asarray(self.p0, dtype=float), (n, 1))


@dataclass(frozen=True)
class CapP:
    """Hidden vector field p(lam) = magnitude * w with w uniform on the
    spherical cap of the given half-angle about ``axis``.

    Sup norm is ``magnitude``; the mean is shorter by (1 + cos half_angle)/2,
    which separates the sup-norm and mean roles in the correlator.
    """

    axis: UnitVector3 = UnitVector3(0.0, 0.0, 1.0)
    half_angle: float = math.pi / 6
    magnitude: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise InvalidModelError("cap magnitude must be finite and nonnegative")
        if not 0.0 <= self.half_angle <= math.pi:
            raise InvalidModelError("cap half-angle must lie in [0, pi]")

    def p_sup(self) -> float:
        return float(self.magnitude)

    def p_mean(self) -> np.ndarray:
        shrink = 0.5 * (1.0 + math.cos(self.half_angle))
        return self.magnitude * shrink * self.axis.arr

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.magnitude * sample_cap_batch(rng, self.axis, self.half_angle, n)


PSpec = ConstantP | CapP


@lru_cache(maxsize=512)
def thv_positivity_margin(zeta: float) -> float:
    """Worst-case positivity margin min(1 - |a.b - zeta*(a.u)^3*(b.u)^3|).

    With v = -u the correlation term is a.b - zeta*(a.u)^3*(b.u)^3.  At fixed
    polar angles alpha, beta of a, b about u, the term is affine in a.b, whose
    reachable extremes are cos(alpha -+ beta); checking both reduces the
    search to a 2-d grid, refined locally around the worst cell.
    """
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


@dataclass(frozen=True)
class ModelParams:
    """Family tag plus the parameters that family actually uses.

    eta (FHV) and zeta (THV) must be nonnegative; epsilon is always derived
    as eta/(1+eta) and cannot be set independently.  THV construction runs a
    positivity audit over (a, b, u) and rejects zeta values that would push
    some joint probability negative.
    """

    family: ModelFamily
    eta: float = 0.0
    zeta: float = 0.0
    f_spec: FSpec = FSpec()
    f_spec_b: FSpec | None = None
    p_spec: PSpec = ConstantP()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise InvalidModelError("eta must be finite and nonnegative")
        if not (math.isfinite(self.zeta) and self.zeta >= 0.0):
            raise InvalidModelError("zeta must be finite and nonnegative")
        if self.family is ModelFamily.THV and self.zeta > 0.0:
            if thv_positivity_margin(self.zeta) < -1e-9:
                raise InvalidModelError(
                    f"zeta = {self.zeta!r} fails the positivity audit "
                    "(some joint probability would be negative)"
                )

    @property
    def epsilon(self) -> float:
        return self.eta / (1.0 + self.eta)

    @property
    def f_b(self) -> FSpec:
        return self.f_spec_b if self.f_spec_b is not None else self.f_spec

    @property
    def p_m(self) -> float:
        return self.p_spec.p_sup()

    def p_mean(self) -> np.ndarray:
        return self.p_spec.p_mean()

    @classmethod
    def qm(cls) -> "ModelParams":
        return cls(ModelFamily.QM)

    @classmethod
    def fhv(cls, eta: float, f_spec: FSpec | None = None,
            f_spec_b: FSpec | None = None) -> "ModelParams":
        return cls(ModelFamily.FHV, eta=eta, f_spec=f_spec or FSpec(),
                   f_spec_b=f_spec_b)

    @classmethod
    def shv(cls, p_spec: PSpec | None = None) -> "ModelParams":
        return cls(ModelFamily.SHV, p_spec=p_spec or ConstantP())

    @classmethod
    def thv(cls, zeta: float) -> "ModelParams":
        return cls(ModelFamily.THV, zeta=zeta)

    def with_eta(self, eta: float) -> "ModelParams":
        return replace(self, eta=eta)

    def with_zeta(self, zeta: float) -> "ModelParams":
        return replace(self, zeta=zeta)

    def with_pm(self, p_m: float) -> "ModelParams":
        """Rescale the p-field to the given sup norm, keeping its shape."""
        if not (math.isfinite(p_m) and p_m >= 0.0):
            raise InvalidModelError("p_m must be finite and nonnegative")
        if isinstance(self.p_spec, ConstantP):
            cur = self.p_spec.p_sup()
            direction = (
                np.asarray(self.p_spec.p0) / cur if cur > 0 else np.array([0.0, 0.0, 1.0])
            )
            return replace(self, p_spec=ConstantP(tuple(p_m * direction)))
        return replace(self, p_spec=replace(self.p_spec, magnitude=p_m))


@dataclass(frozen=True)
class HiddenState:
    """One draw of the hidden variables: either a vector pair (u, v) or an
    opaque carrier with its attached vector p."""

    u: UnitVector3 | None = None
    v: UnitVector3 | None = None
    p: tuple[float, float, float] | None = None

    @classmethod
    def uv(cls, u: UnitVector3, v: UnitVector3) -> "HiddenState":
        return cls(u=u, v=v)

    @classmethod
    def carrier(cls, p) -> "HiddenState":
        px, py, pz = (float(c) for c in p)
        return cls(p=(px, py, pz))

    @property
    def p_arr(self) -> np.ndarray:
        if self.p is None:
            raise ValueError("state carries no p vector")
        return np.asarray(self.p, dtype=float)


@dataclass(frozen=True)
class Settings:
    """Detector directions for the two parties."""

    a: UnitVector3
    b: UnitVector3


def _clamped(value: float) -> float:
    if value < 0.0:
        if value < -TABLE_TOL:
            raise InvalidModelError(f"negative probability {value!r}")
        return 0.0
    return value


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint probabilities P(sigma, tau) over outcomes in {-1, +1}^2.

    Cell naming: first letter is sigma, second is tau (p = +1, m = -1).
    """

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self) -> None:
        for cell in ("pp", "pm", "mp", "mm"):
            object.__setattr__(self, cell, _clamped(getattr(self, cell)))
        total = self.pp + self.pm + self.mp + self.mm
        if abs(total - 1.0) > TABLE_TOL:
            raise InvalidModelError(f"table sums to {total!r}, not 1")

    @classmethod
    def from_coeffs(cls, A: float, B: float, C: float) -> "ProbabilityTable":
        return cls(
            (1.0 + A + B + C) / 4.0,
            (1.0 + A - B - C) / 4.0,
            (1.0 - A + B - C) / 4.0,
            (1.0 - A - B + C) / 4.0,
        )

    def prob(self, sigma: int, tau: int) -> float:
        key = ("p" if sigma > 0 else "m") + ("p" if tau > 0 else "m")
        return getattr(self, key)

    def total(self) -> float:
        return self.pp + self.pm + self.mp + self.mm

    def correlator(self) -> float:
        """Expectation of sigma*tau under the table."""
        return self.pp - self.pm - self.mp + self.mm

    def as_dict(self) -> dict[str, float]:
        return {"++": self.pp, "+-": self.pm, "-+": self.mp, "--": self.mm}


# --------------------------- joint probabilities ---------------------------


def fhv_joint(params: ModelParams, u: UnitVector3, v: UnitVector3,
              s: Settings) -> ProbabilityTable:
    """First-family table: a damped singlet correlation plus single-party
    biases eta*f through the hidden directions u, v."""
    if params.family is not ModelFamily.FHV:
        raise InvalidModelError("params.family must be FHV")
    eps = params.epsilon
    A = eps * params.f_spec(dot(u, s.a))
    B = eps * params.f_b(dot(v, s.b))
    C = -dot(s.a, s.b) / (1.0 + params.eta)
    return ProbabilityTable.from_coeffs(A, B, C)


def shv_joint(params: ModelParams, h: HiddenState, s: Settings) -> ProbabilityTable:
    """Second-family table: correlation a.b + (a x b).p(lam), scaled by
    1/sqrt(1 + pm^2) so it stays a probability for every carrier."""
    if params.family is not ModelFamily.SHV:
        raise InvalidModelError("params.family must be SHV")
    p = h.p_arr
    p_m = params.p_m
    if float(np.linalg.norm(p)) > p_m + 1e-12:
        raise InvalidModelError("hidden state has |p| > p_m")
    C = -(dot(s.a, s.b) + float(cross(s.a, s.b) @ p)) / math.sqrt(1.0 + p_m * p_m)
    return ProbabilityTable.from_coeffs(0.0, 0.0, C)


def thv_joint(params: ModelParams, u: UnitVector3, s: Settings) -> ProbabilityTable:
    """Third-family table: singlet correlation plus a cubic term
    zeta*(a.u)^3*(b.v)^3 with the partner vector locked to v = -u."""
    if params.family is not ModelFamily.THV:
        raise InvalidModelError("params.family must be THV")
    v = -u
    C = -(dot(s.a, s.b) + params.zeta * dot(s.a, u) ** 3 * dot(s.b, v) ** 3)
    return ProbabilityTable.from_coeffs(0.0, 0.0, C)


def qm_joint(s: Settings) -> ProbabilityTable:
    """Singlet reference table (1 - sigma*tau*a.b)/4 with flat marginals."""
    return ProbabilityTable.from_coeffs(0.0, 0.0, -dot(s.a, s.b))


def joint(params: ModelParams, h: HiddenState | None, s: Settings) -> ProbabilityTable:
    """Dispatch to the family's table given one hidden draw (None for QM)."""
    if params.family is ModelFamily.QM:
        return qm_joint(s)
    if h is None:
        raise InvalidModelError(f"{params.family.value} requires a hidden state")
    if params.family is ModelFamily.FHV:
        return fhv_joint(params, h.u, h.v, s)
    if params.family is ModelFamily.SHV:
        return shv_joint(params, h, s)
    if params.family is ModelFamily.THV:
        return thv_joint(params, h.u, s)
    raise InvalidModelError(f"no joint dispatch for family {params.family.value}")


# ------------------------ marginals and conditionals -----------------------


def marginal(t: ProbabilityTable, party: str) -> tuple[float, float]:
    """Single-party outcome probabilities (P(+1), P(-1)) for party A or B."""
    if party == "A":
        return (t.pp + t.pm, t.mp + t.mm)
    if party == "B":
        return (t.pp + t.mp, t.pm + t.mm)
    raise ValueError("party must be 'A' or 'B'")


def conditional(t: ProbabilityTable, tau: int) -> tuple[float, float]:
    """P(sigma | tau) as (P(+1|tau), P(-1|tau)) for party B's outcome tau."""
    if tau not in (1, -1):
        raise ValueError("tau must be +1 or -1")
    p_tau = t.pp + t.mp if tau == 1 else t.pm + t.mm
    if p_tau < CONDITIONAL_FLOOR:
        raise UndefinedConditionalError(
            f"conditioning outcome tau={tau} has probability {p_tau!r}"
        )
    if tau == 1:
        return (t.pp / p_tau, t.mp / p_tau)
    return (t.pm / p_tau, t.mm / p_tau)


def fhv_conditional_closed_form(
    params: ModelParams, u: UnitVector3, v: UnitVector3, s: Settings,
    sigma: int, tau: int,
) -> float:
    """First-family conditional evaluated without forming the table:

        P(sigma|tau) = (1/2) * {1 + sigma*[eta*f(u.a) - tau*a.b]
                                 / [1 + eta + eta*tau*f(v.b)]}
    """
    eta = params.eta
    num = eta * params.f_spec(dot(u, s.a)) - tau * dot(s.a, s.b)
    den = 1.0 + eta + eta * tau * params.f_b(dot(v, s.b))
    return 0.5 * (1.0 + sigma * num / den)


# -------------------------------- sampling ---------------------------------


def sample_hidden(params: ModelParams, rng: np.random.Generator) -> HiddenState:
    """Draw one hidden state.  The signature takes no detector settings, so
    the hidden distribution cannot depend on them."""
    if params.family is ModelFamily.FHV:
        return HiddenState.uv(sample_unit_uniform(rng), sample_unit_uniform(rng))
    if params.family is ModelFamily.THV:
        u = sample_unit_uniform(rng)
        return HiddenState.uv(u, -u)
    if params.family is ModelFamily.SHV:
        p = params.p_spec.sample(rng, 1)[0]
        return HiddenState.carrier(p)
    raise InvalidModelError(f"family {params.family.value} has no hidden sampler")


def sample_outcomes(t: ProbabilityTable, rng: np.random.Generator) -> tuple[int, int]:
    """One categorical draw (sigma, tau) from the joint table."""
    r = rng.random()
    if r < t.pp:
        return (1, 1)
    if r < t.pp + t.pm:
        return (1, -1)
    if r < t.pp + t.pm + t.mp:
        return (-1, 1)
    return (-1, -1)


# -------------------------- comparison model classes ------------------------


def bhv_product_joint(
    A: Callable[[object, UnitVector3], float],
    B: Callable[[object, UnitVector3], float],
    lam: object,
    s: Settings,
) -> ProbabilityTable:
    """Outcome-independent product table built from single-party expectation
    values Abar = A(lam, a) and Bbar = B(lam, b), each in [-1, 1]:

        P(sigma, tau) = [1 + sigma*Abar] [1 + tau*Bbar] / 4
    """
    abar = float(A(lam, s.a))
    bbar = float(B(lam, s.b))
    if abs(abar) > 1.0 + 1e-12 or abs(bbar) > 1.0 + 1e-12:
        raise InvalidModelError("single-party expectations must lie in [-1, 1]")
    return ProbabilityTable.from_coeffs(abar, bbar, abar * bbar)


def lhv_feasible_c_range(ua: float, vb: float) -> tuple[float, float]:
    """Correlation values keeping the Malus-marginal table nonnegative."""
    return (-1.0 + abs(ua + vb), 1.0 - abs(ua - vb))


def lhv_malus_joint(
    u: UnitVector3, v: UnitVector3, C: float, s: Settings
) -> ProbabilityTable:
    """Malus-marginal table [1 + sigma*u.a + tau*v.b + sigma*tau*C]/4.

    C must lie in the feasible interval for the given (u.a, v.b); outside it
    some cell would be negative and the model is rejected.
    """
    ua, vb = dot(u, s.a), dot(v, s.b)
    lo, hi = lhv_feasible_c_range(ua, vb)
    if not lo - 1e-12 <= C <= hi + 1e-12:
        raise InvalidModelError(
            f"C={C!r} outside the feasible range [{lo!r}, {hi!r}]"
        )
    return ProbabilityTable.from_coeffs(ua, vb, C)


# ------------------------------ Malus audit --------------------------------


@dataclass(frozen=True)
class MalusReport:
    """Deviation of a family's single-party marginal from the Malus form
    (1 + sigma*u.a)/2, scanned over the alignment x = u.a."""

    family: ModelFamily
    max_deviation: float
    deviation_at_alignment: float
    compliant: bool


def malus_check(params: ModelParams, grid_points: int = 1001) -> MalusReport:
    """Compare the marginal P(sigma=+1 | hidden, a) with Malus's law on a grid
    of alignments x = u.a in [-1, 1]."""
    x = np.linspace(-1.0, 1.0, grid_points)
    malus = (1.0 + x) / 2.0
    if params.family is ModelFamily.FHV:
        marg = (1.0 + params.epsilon * params.f_spec(x)) / 2.0
    elif params.family in (ModelFamily.SHV, ModelFamily.THV, ModelFamily.QM):
        marg = np.full_like(x, 0.5)
    elif params.family is ModelFamily.LHV:
        marg = malus
    else:
        raise InvalidModelError("malus_check supports fhv/shv/thv/qm/lhv")
    dev = np.abs(marg - malus)
    at_alignment = float(dev[-1])
    max_dev = float(np.max(dev))
    return MalusReport(params.family, max_dev, at_alignment, max_dev <= 1e-12)


# --------------------- outcome-dependence witness search -------------------


@dataclass(frozen=True)
class WitnessResult:
    """Best outcome-dependence violation found by random search."""

    delta: float
    config: dict


def outcome_dependence_witness(
    params: ModelParams, rng: np.random.Generator, trials: int = 2000
) -> WitnessResult:
    """Search random (hidden, a, b) for a conditional that shifts with the
    remote outcome: max |P(sigma=+1|tau=+1) - P(sigma=+1|tau=-1)|."""
    best = WitnessResult(-1.0, {})
    for _ in range(trials):
        a = sample_unit_uniform(rng)
        b = sample_unit_uniform(rng)
        h = sample_hidden(params, rng)
        t = joint(params, h, Settings(a, b))
        try:
            plus = conditional(t, 1)[0]
            minus = conditional(t, -1)[0]
        except UndefinedConditionalError:
            continue
        delta = abs(plus - minus)
        if delta > best.delta:
            best = WitnessResult(delta, {"a": a, "b": b, "hidden": h})
    return best


# --------------------------- vectorized internals --------------------------


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(x * y, axis=-1)


def _fhv_cells(params: ModelParams, u, v, a, b) -> np.ndarray:
    eps = params.epsilon
    A = eps * params.f_spec(_rowdot(u, a))
    B = eps * params.f_b(_rowdot(v, b))
    C = -_rowdot(a, b) / (1.0 + params.eta) * np.ones_like(A)
    return _cells(A, B, C)


def _shv_cells(params: ModelParams, p, a, b) -> np.ndarray:
    axb = np.cross(a, b)
    C = -(_rowdot(a, b) + _rowdot(axb, p)) / math.sqrt(1.0 + params.p_m**2)
    return _cells(np.zeros_like(C), np.zeros_like(C), C)


def _thv_cells(params: ModelParams, u, a, b) -> np.ndarray:
    C = -(_rowdot(a, b) - params.zeta * _rowdot(u, a) ** 3 * _rowdot(u, b) ** 3)
    return _cells(np.zeros_like(C), np.zeros_like(C), C)


def _qm_cells(a, b, n: int | None = None) -> np.ndarray:
    C = -_rowdot(a, b)
    if np.ndim(C) == 0:
        C = np.full(n if n is not None else 1, float(C))
    return _cells(np.zeros_like(C), np.zeros_like(C), C)


def _cells(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, 4) joint probabilities in cell order (++, +-, -+, --)."""
    return np.column_stack(
        [
            (1.0 + A + B + C) / 4.0,
            (1.0 + A - B - C) / 4.0,
            (1.0 - A + B - C) / 4.0,
            (1.0 - A - B + C) / 4.0,
        ]
    )


def _sample_hidden_batch(
    params: ModelParams, n: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    if params.family is ModelFamily.FHV:
        return {"u": sample_unit_batch(rng, n), "v": sample_unit_batch(rng, n)}
    if params.family is ModelFamily.THV:
        u = sample_unit_batch(rng, n)
        return {"u": u, "v": -u}
    if params.family is ModelFamily.SHV:
        return {"p": params.p_spec.sample(rng, n)}
    if params.family is ModelFamily.QM:
        return {}
    raise InvalidModelError(f"family {params.family.value} has no hidden sampler")


def _cells_from_batch(
    params: ModelParams, hidden: dict[str, np.ndarray], a, b, n: int
) -> np.ndarray:
    if params.family is ModelFamily.FHV:
        return _fhv_cells(params, hidden["u"], hidden["v"], a, b)
    if params.family is ModelFamily.SHV:
        return _shv_cells(params, hidden["p"], a, b)
    if params.family is ModelFamily.THV:
        return _thv_cells(params, hidden["u"], a, b)
    if params.family is ModelFamily.QM:
        return _qm_cells(a, b, n)
    raise InvalidModelError(f"family {params.family.value} has no batch cells")


def _sample_cells(
    params: ModelParams, s: Settings, n: int, rng: np.random.Generator
) -> np.ndarray:
    """(n, 4) per-draw joint tables at fixed settings."""
    hidden = _sample_hidden_batch(params, n, rng)
    return _cells_from_batch(params, hidden, s.a.arr, s.b.arr, n)


def _sample_sigma_tau(cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-row categorical outcome draws, returned as the product sigma*tau."""
    r = rng.random(cells.shape[0])
    cum = np.cumsum(cells, axis=1)
    idx = np.sum(r[:, None] >= cum[:, :3], axis=1)
    return np.array([1.0, -1.0, -1.0, 1.0])[idx]
