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
of the hidden distribution is enforced by the call signature.  A table reads
its hidden state only through projections onto the settings (u.a, v.b, u.b
or p.(a x b)); the Monte-Carlo loop draws those projections directly from
their laws, the images of the same setting-independent hidden laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .geometry import (
    ChunkWorkspace,
    UnitVector3,
    _uniform_into,
    _zone_projection,
    dot,
    sample_cap_batch,
    sample_unit_batch,
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
    vanish for the uniform hidden distribution.  No grid check is needed:
    for |x| <= 1, |x*x*x| <= 1 and rounding is monotone, so
    |coeff * x**power| <= coeff <= 1/2 in floating point too.
    """

    coeff: float = 0.5
    power: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.coeff <= 0.5:
            raise InvalidModelError("f coefficient must lie in [0, 1/2]")
        if self.power not in (1, 3):
            raise InvalidModelError("f power must be 1 or 3")

    def __call__(self, x):
        return self.coeff * (x * x * x if self.power == 3 else x)


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
        """n copies of p0 as an (n, 3) array."""
        return np.tile(np.asarray(self.p0, dtype=float), (n, 1))

    def projection(self, rng: np.random.Generator, d: np.ndarray, ws: ChunkWorkspace):
        """p.d of every draw: one scalar, since the field is constant."""
        return _dot3_rows(np.asarray(self.p0, dtype=float), d)


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
        """n draws of the field as an (n, 3) array."""
        p = sample_cap_batch(rng, self.axis, self.half_angle, n)
        p *= self.magnitude
        return p

    def projection(self, rng: np.random.Generator, d: np.ndarray, ws: ChunkWorkspace):
        """p.d of ``ws.n`` draws, drawn as one projection about the cap
        axis (`geometry._zone_projection`), not as 3-D points: a row."""
        c, m = self.axis.arr, self.magnitude
        z, proj = _zone_projection(rng, math.cos(self.half_angle), m * _dot3_rows(c, d),
                                   m * float(np.linalg.norm(np.cross(c, d))), ws)
        ws.give(z)
        return proj


PSpec = ConstantP | CapP


# the cache stays because perfbench's traced run reads its __wrapped__.cache_info()
@lru_cache(maxsize=512)
def thv_positivity_margin(zeta: float) -> float:
    """Worst-case positivity margin min(1 - |a.b - zeta*(a.u)^3*(b.u)^3|)
    over unit a, b, u, in closed form: min(0, 2 - zeta) for zeta >= 0.

    With v = -u the correlation term is T = a.b - zeta*(a.u)^3*(b.u)^3, and
    the cells (1 +- T)/4 are nonnegative iff |T| <= 1.  Let alpha, beta be
    the polar angles of a, b about u, s = cos alpha, t = cos beta and
    q = |st|.  Then a.b lies between cos(alpha + beta) and cos(alpha - beta),
    which are st -+ sin alpha sin beta, and
    (sin alpha sin beta)^2 = 1 - s^2 - t^2 + q^2 <= (1 - q)^2.
    If st >= 0, so st = q: 2q - 1 - zeta*q^3 <= T <= 1 - zeta*q^3.
    If st < 0, so st = -q: -1 + zeta*q^3 <= T <= 1 - 2q + zeta*q^3.
    So |T| <= max(1, g(q)) with g(q) = 1 - 2q + zeta*q^3, which is convex on
    [0, 1] and so at most max(g(0), g(1)) = max(1, zeta - 1).  Both are
    reached: |T| = 1 at a = b normal to u (margin 0), and T = 1 - zeta at
    a = b = u (margin 2 - zeta).  The margin is negative iff zeta > 2.
    """
    return min(0.0, 2.0 - zeta)


@dataclass(frozen=True)
class ModelParams:
    """Family tag plus the parameters that family actually uses.

    eta (FHV) and zeta (THV) must be nonnegative; epsilon is always derived
    as eta/(1+eta) and cannot be set independently.  THV construction
    rejects zeta > 2 (beyond a 1e-9 tolerance), where some joint probability
    would be negative (the proof is in `thv_positivity_margin`).
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
        if self.family is ModelFamily.SHV:
            with np.errstate(over="ignore"):  # the norm of a huge p0 overflows
                p_m = self.p_m
            if not math.isfinite(p_m * p_m):
                raise InvalidModelError("p-field sup norm out of range: p_m must stay below "
                                        "about 1.34e154, so that p_m^2 is finite")
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


def _check_cells(*cells) -> None:
    """The one negative-cell check for joint tables, scalar or batched: any
    cell below -TABLE_TOL raises InvalidModelError."""
    worst = min(float(c.min() if isinstance(c, np.ndarray) else c) for c in cells)
    if worst < -TABLE_TOL:
        raise InvalidModelError(f"negative probability {worst!r}")


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
        _check_cells(self.pp, self.pm, self.mp, self.mm)
        for cell in ("pp", "pm", "mp", "mm"):
            object.__setattr__(self, cell, max(0.0, float(getattr(self, cell))))
        total = self.pp + self.pm + self.mp + self.mm
        if abs(total - 1.0) > TABLE_TOL:
            raise InvalidModelError(f"table sums to {total!r}, not 1")

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


def coeffs(params: ModelParams, hidden: dict[str, np.ndarray], a, b):
    """Coefficients (A, B, C) of the family's table for rows of hidden state
    and settings: the projections of the hidden vectors onto the settings,
    then the family's formula `_projection_coeffs`, the one kernel behind
    every table, sampler and witness.

    ``hidden`` maps "u", "v" (FHV), "u" (THV) or "p" (SHV) to hidden
    vectors, (n, 3) arrays or single 3-vectors; it is empty for QM.  ``a``
    and ``b`` are fixed 3-vectors or (n, 3) arrays.  A, B and C come back
    as (n,) rows, except that families with flat marginals return
    A = B = 0.0 as scalars, and a C that depends on fixed settings alone is
    a scalar too.  The cubic family reads only u, since its partner is
    v = -u.

    Every step is one numpy operation on component rows, in the order of
    the formulas in the module docstring, with dots summed in component
    order: u.a and v.b (FHV), u.a and u.b (THV), p.(a x b) (SHV), none
    (QM).  The projections are rows of a `ChunkWorkspace` made for the
    call, so the caller's arrays are only read.
    """
    a, b = np.transpose(a), np.transpose(b)  # component rows: (3,) or (3, n)
    ws = ChunkWorkspace(max((len(x) for x in (*hidden.values(), a.T, b.T)
                             if np.ndim(x) == 2), default=1))
    fam = params.family
    if fam is ModelFamily.FHV:
        pairs = (("u", a), ("v", b))
    elif fam is ModelFamily.THV:
        pairs = (("u", a), ("u", b))
    elif fam is ModelFamily.SHV:
        pairs = (("p", np.cross(a, b, axis=0)),)
    else:
        pairs = ()
    proj = tuple(_dot3_rows(np.reshape(hidden[key], (-1, 3)).T, d, ws.row())
                 for key, d in pairs)
    return _projection_coeffs(params, proj, a, b, ws)


def _draw_projections(params: ModelParams, a: np.ndarray, b: np.ndarray,
                      rng: np.random.Generator, ws: ChunkWorkspace):
    """The projections `coeffs` forms from hidden vectors, for ``ws.n`` draws,
    drawn from their laws in the frame of the settings ``a``, ``b``
    (3-vectors) instead of from 3-D hidden vectors.  The hidden laws are
    rotation-invariant about a known axis, so by Archimedes' hat-box
    theorem:

        FHV  u.a, v.b ~ U(-1, 1), two independent rows
        THV  u.a = z ~ U(-1, 1), u.b = z (a.b) + sqrt(1 - z^2) |a x b| cos psi
        SHV  p.(a x b) about the cap axis (`CapP.projection`), or one
             scalar for a constant field
        QM   none

    with one uniform azimuth psi (`geometry._zone_projection`).  Only the
    Monte-Carlo loop reads these; every other table projects real hidden
    vectors.  The rows are lent by the started `ChunkWorkspace` ``ws``.
    """
    fam = params.family
    if fam is ModelFamily.FHV:
        return tuple(_uniform_into(rng, -1.0, 1.0, ws.row()) for _ in range(2))
    if fam is ModelFamily.THV:
        return _zone_projection(rng, -1.0, _dot3_rows(a, b),
                                float(np.linalg.norm(np.cross(a, b))), ws)
    if fam is ModelFamily.SHV:
        return (params.p_spec.projection(rng, np.cross(a, b), ws),)
    return ()


def _projection_coeffs(params: ModelParams, proj, a, b, ws: ChunkWorkspace):
    """The family's formula for (A, B, C) from its projection rows ``proj``
    (`coeffs`, `_draw_projections`) and the settings' component
    rows ``a``, ``b``, in the order of the module docstring.  The rows of
    ``proj`` are used up: A, B and C are formed in them and in rows of
    ``ws``, and the rest are given back."""
    fam = params.family
    ab = _dot3_rows(a, b)
    if fam is ModelFamily.QM:
        return 0.0, 0.0, -ab
    if fam is ModelFamily.FHV:
        for x, f in zip(proj, (params.f_spec, params.f_b)):
            if f.power == 3:
                cube = _cube_into(x, ws.row())
                np.multiply(cube, f.coeff, out=x)
                ws.give(cube)
            else:
                x *= f.coeff
            x *= params.epsilon
        return proj[0], proj[1], -ab / (1.0 + params.eta)
    if fam is ModelFamily.SHV:
        # a constant p-field gives one scalar p.(a x b) and a scalar C
        (C,) = proj
        out = C if np.ndim(C) else None
        C = np.negative(np.add(C, ab, out=out), out=out)
        return 0.0, 0.0, np.divide(C, math.sqrt(1.0 + params.p_m**2), out=out)
    if fam is ModelFamily.THV:
        ua, ub = proj
        C = _cube_into(ua, ws.row())
        C *= params.zeta
        C *= _cube_into(ub, ua)
        np.subtract(ab, C, out=C)
        np.negative(C, out=C)
        ws.give(ua, ub)
        return 0.0, 0.0, C
    raise InvalidModelError(f"no joint table for family {fam.value}")


def _dot3_rows(x, y, out: np.ndarray | None = None):
    """Dot products of component rows ``x`` and ``y`` ((3, n) rows or
    3-vectors), summed in component order, into ``out`` (by default a new
    array)."""
    out = np.multiply(x[0], y[0], out=out)
    for k in (1, 2):
        out += x[k] * y[k]
    return out


def _cube_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x*x*x into ``out``, multiplied in that order."""
    np.multiply(x, x, out=out)
    out *= x
    return out


# signs of A, B and C in the cells pp, pm, mp, mm
_CELL_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def table_cells(A, B, C, ws: ChunkWorkspace | None = None):
    """Cells (pp, pm, mp, mm) of [1 + sigma*A + tau*B + sigma*tau*C]/4 for
    scalars or arrays, passed through `_check_cells`; each cell is added
    left to right, then divided by 4.

    With A = B = 0 (flat marginals) only the two distinct cells are formed:
    pp = mm and pm = mp, with the same bits as the general formula, since
    adding or subtracting 0.0 is exact.  With a `ChunkWorkspace` ``ws``,
    array coefficients from `coeffs` are used up and given back, and the
    cells are workspace rows (mm takes A's row, which it reads first);
    without one, numpy makes a new array for each step and the coefficients
    are left as they were.
    """
    rows = ws is not None and any(np.ndim(x) for x in (A, B, C))

    def new():
        return ws.row() if rows else None

    if np.ndim(A) == 0 and np.ndim(B) == 0 and A == 0.0 and B == 0.0:
        pp = np.add(1.0, C, out=new())
        pm = np.subtract(1.0, C, out=C if rows else None)
        pp /= 4.0
        pm /= 4.0
        _check_cells(pp, pm)
        return pp, pm, pm, pp
    reused = A if rows and np.ndim(A) else None
    cells = []
    for signs in _CELL_SIGNS:
        cell, out = 1.0, reused if len(cells) == 3 and reused is not None else new()
        for x, sign in zip((A, B, C), signs):
            cell = (np.add if sign > 0 else np.subtract)(cell, x, out=out)
        cell /= 4.0
        cells.append(cell)
    if rows:
        ws.give(*(x for x in (A, B, C) if np.ndim(x) and x is not reused))
    _check_cells(*cells)
    return tuple(cells)


def _check_hidden_p(params: ModelParams, p: np.ndarray) -> None:
    """Reject a hidden p longer than the p-field's sup norm p_m."""
    if float(np.linalg.norm(p)) > params.p_m + 1e-12:
        raise InvalidModelError("hidden state has |p| > p_m")


def joint(params: ModelParams, h: HiddenState | None, s: Settings) -> ProbabilityTable:
    """The family's table for one hidden draw (None for QM): `coeffs` on a
    batch of one."""
    fam = params.family
    if fam is ModelFamily.QM:
        hidden = {}
    elif h is None:
        raise InvalidModelError(f"{fam.value} requires a hidden state")
    elif fam is ModelFamily.SHV:
        hidden = {"p": h.p_arr}
        _check_hidden_p(params, hidden["p"])
    else:
        hidden = {k: getattr(h, k).arr for k in ("u", "v") if getattr(h, k) is not None}
    # a batch of one: the coefficient rows hold one value each
    return ProbabilityTable(*table_cells(
        *(np.ravel(x)[0] for x in coeffs(params, hidden, s.a.arr, s.b.arr))))


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


def sample_hidden_batch(
    params: ModelParams, n: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """n hidden states as (n, 3) arrays keyed as `coeffs` reads them (empty
    for QM).  Takes no detector settings, so the hidden distribution cannot
    depend on them."""
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


def _hidden_state(params: ModelParams, hidden: dict[str, np.ndarray],
                  i: int) -> HiddenState:
    """Row i of a hidden batch as a `HiddenState`."""
    if "p" in hidden:
        return HiddenState.carrier(hidden["p"][i])
    if "u" in hidden:
        return HiddenState.uv(UnitVector3.from_array(hidden["u"][i]),
                              UnitVector3.from_array(hidden["v"][i]))
    raise InvalidModelError(f"family {params.family.value} has no hidden sampler")


def sample_hidden(params: ModelParams, rng: np.random.Generator) -> HiddenState:
    """Draw one hidden state: `sample_hidden_batch` on a batch of one."""
    return _hidden_state(params, sample_hidden_batch(params, 1, rng), 0)


def draw_outcomes(cells, n: int, rng: np.random.Generator,
                  ws: ChunkWorkspace | None = None):
    """One joint outcome per row of ``cells`` = (pp, pm, mp, mm), from a
    single uniform r compared with the partial sums pp, pp+pm and
    pp+pm+mp, added in that order.  Returns the boolean rows
    (sigma == +1, sigma*tau == +1): sigma = +1 iff r < pp+pm, and
    sigma*tau = +1 iff r < pp or r >= pp+pm+mp.  The uniforms, the flags
    and the partial sums of row cells live in rows of the `ChunkWorkspace`
    ``ws`` (by default one made for the call); scalar cells give scalar
    partial sums.  Row cells from `table_cells` in the caller's ``ws`` are
    used up: mm, which the draw never reads, is given back before r is
    drawn unless it shares pp's row (flat marginals), and the partial sums
    are formed in pp's row once r < pp is taken.
    """
    pp, pm, mp, mm = cells
    used_up = ws is not None and np.ndim(pp) > 0
    if ws is None:
        ws = ChunkWorkspace(n)
    if used_up and mm is not pp:
        ws.give(mm)
    r = rng.random(out=ws.row())
    sigma, same, late = ws.row().view(np.bool_)[:3 * n].reshape(3, n)
    np.less(r, pp, out=same)
    s1 = pp + pm if np.ndim(pp) == 0 else np.add(pp, pm, out=pp if used_up else ws.row())
    np.less(r, s1, out=sigma)
    s1 += mp
    same |= np.greater_equal(r, s1, out=late)
    return sigma, same


# -------------------------- comparison model classes ------------------------


def lhv_feasible_c_range(ua, vb):
    """Correlations (lo, hi) between which the Malus-marginal table
    `table_cells`(u.a, v.b, C) has no negative cell, elementwise for arrays.
    The product class, `table_cells`(Abar, Bbar, Abar*Bbar), needs no such
    range: its cell check rejects |Abar| > 1 or |Bbar| > 1."""
    return (-1.0 + abs(ua + vb), 1.0 - abs(ua - vb))


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
    remote outcome: max |P(sigma=+1|tau=+1) - P(sigma=+1|tau=-1)|.

    All trials are one batch; rows where either conditioning outcome has
    probability below CONDITIONAL_FLOOR are skipped, and the first row
    attaining the maximum is returned.
    """
    a = sample_unit_batch(rng, trials)
    b = sample_unit_batch(rng, trials)
    hidden = sample_hidden_batch(params, trials, rng)
    pp, pm, mp, mm = table_cells(*coeffs(params, hidden, a, b))
    p_plus, p_minus = pp + mp, pm + mm
    ok = (p_plus >= CONDITIONAL_FLOOR) & (p_minus >= CONDITIONAL_FLOOR)
    if not np.any(ok):
        return WitnessResult(-1.0, {})
    delta = np.full(trials, -1.0)
    delta[ok] = np.abs(pp[ok] / p_plus[ok] - pm[ok] / p_minus[ok])
    i = int(np.argmax(delta))
    return WitnessResult(float(delta[i]), {
        "a": UnitVector3.from_array(a[i]),
        "b": UnitVector3.from_array(b[i]),
        "hidden": _hidden_state(params, hidden, i),
    })
