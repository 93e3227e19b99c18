"""CHSH, Leggett, and Branciard parameters: values, classical bounds, margins,
violation-window finders, threshold roots, closed forms for cross-checking,
and randomized audits of the two classical bounds.

Window and threshold searches are numeric: a bracketing grid scan, then a
safeguarded Illinois false-position root search for each window end and
threshold, or golden-section refinement for a maximizer.  The known closed
forms are kept alongside so every numeric result can be compared against an
independent expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    _TRIAD, Plane, UnitVector3, _branciard_companions, _plane_frames, check_phi, check_phis,
    chsh_optimal_settings, dot, integer, member, orthogonal_plane, real, sample_unit_batch,
    unit_vector, xy_plane,
)
from .models import (
    ModelFamily, ModelParams, Settings, lhv_feasible_c_range, table_cells,
)
from .correlators import _Columns, _pair_correlator_arrays, analytic_correlator

PI = math.pi

SCAN_NODES = 512
MAX_SEED_NODES = 256
THRESHOLD_NODES = 65
DEFAULT_TOL = 1e-9

INEQUALITIES = ("chsh", "leggett", "branciard")
# The model rebinder of each model-parameter scan variable.
_REBINDERS = {"eta": ModelParams.with_eta, "zeta": ModelParams.with_zeta,
              "p_m": ModelParams.with_pm}
SCAN_VARIABLES = ("phi", *_REBINDERS)


# ------------------------------ closed forms -------------------------------

ETA_MAX_CHSH_FHV = math.sqrt(2.0) - 1.0
ETA_MAX_LEGGETT_FHV = 2.0 * PI**2 - 1.0 - 2.0 * PI * math.sqrt(PI**2 - 1.0)
ETA_MAX_BRANCIARD_FHV = 3.0 / (2.0 * math.sqrt(2.0)) - 1.0
ZETA_MAX_LEGGETT_THV = 70.0 * PI**4 / (40.0 * PI**6 - 18.0 * PI**4 + 6.0 * PI**2 - 1.0)
ZETA_MAX_BRANCIARD_THV = 175.0 * (10.0 - 3.0 * math.sqrt(10.0)) / 216.0
PM_MAX_CHSH_SHV = 1.0

# CHSH decay rate of the cubic family at the optimal settings.  The derived
# slope follows from the sixth-moment identity; the quoted alternative
# 1/(3*sqrt(2)) circulates alongside it but disagrees, so it is carried only
# for flagged comparison (its root is also printed elsewhere as 3.5417,
# although 12 - 6*sqrt(2) = 3.5147).
CHSH_THV_SLOPE_DERIVED = 8.0 * math.sqrt(2.0) / 35.0
CHSH_THV_SLOPE_QUOTED = 1.0 / (3.0 * math.sqrt(2.0))
ZETA_ROOT_CHSH_THV_DERIVED = 35.0 * (2.0 - math.sqrt(2.0)) / 8.0
ZETA_ROOT_CHSH_THV_QUOTED = 12.0 - 6.0 * math.sqrt(2.0)

LEGGETT_QM_ARGMAX_PHI = 2.0 * math.asin(1.0 / (2.0 * PI))
LEGGETT_QM_MAX_MARGIN = 1.0 / PI**2
LEGGETT_QM_WINDOW_HI_PHI = 2.0 * math.asin(1.0 / PI)
BRANCIARD_QM_ARGMAX_SIN = 1.0 / math.sqrt(10.0)
BRANCIARD_QM_MAX_MARGIN = (2.0 / 3.0) * math.sqrt(10.0) - 2.0
BRANCIARD_QM_WINDOW_HI_SIN = 3.0 / 5.0


def leggett_fhv_window_sin(eta: float) -> tuple[float, float]:
    """Closed-form window endpoints in sin(phi/2) for the first family:
    roots of s^2 - (1+eta) s / pi + eta = 0."""
    center = (1.0 + eta) / (2.0 * PI)
    disc = center * center - eta
    if disc < 0.0:
        raise ValueError("eta above the window-existence threshold")
    half = math.sqrt(disc)
    return (center - half, center + half)


def leggett_fhv_argmax_phi(eta: float) -> float:
    return 2.0 * math.asin((1.0 + eta) / (2.0 * PI))


def leggett_fhv_max_margin(eta: float) -> float:
    return -4.0 * eta / (1.0 + eta) + (1.0 + eta) / PI**2


def branciard_fhv_window_sin_derived(eta: float) -> tuple[float, float]:
    """Window endpoints in sin(phi/2) derived from the margin quadratic
    s^2 (1 + k/9) - (2k/3) s + (k - 1) < 0 with k = (1+eta)^2."""
    k = (1.0 + eta) ** 2
    disc = 9.0 - 8.0 * k
    if disc < 0.0:
        raise ValueError("eta above the window-existence threshold")
    half = 3.0 * math.sqrt(disc)
    return ((3.0 * k - half) / (9.0 + k), (3.0 * k + half) / (9.0 + k))


def branciard_fhv_window_center_derived(eta: float) -> float:
    k = (1.0 + eta) ** 2
    return 3.0 * k / (9.0 + k)


def branciard_fhv_window_center_quoted(eta: float) -> float:
    """Alternative printed window center (1+eta)^2/3.  At eta = 0 it implies
    an upper endpoint of 2/3, inconsistent with the reference value 3/5, so
    it is kept only for flagged comparison."""
    return (1.0 + eta) ** 2 / 3.0


def branciard_fhv_argmax_sin(eta: float) -> float:
    return (1.0 + eta) / math.sqrt(9.0 + (1.0 + eta) ** 2)


def branciard_fhv_max_margin(eta: float) -> float:
    return (2.0 / 3.0) * math.sqrt(9.0 + (1.0 + eta) ** 2) / (1.0 + eta) - 2.0


# ------------------------------ report types -------------------------------


@dataclass(frozen=True)
class InequalityReport:
    """One inequality evaluation: value, classical bound, and their margin."""

    name: str
    value: float
    bound: float
    margin: float
    violated: bool
    configuration: dict

    def __post_init__(self) -> None:
        if self.margin != self.value - self.bound:
            raise ValueError("margin must equal value - bound exactly")
        if self.violated != (self.margin > 0.0):
            raise ValueError("violated flag inconsistent with margin")


@dataclass(frozen=True)
class ViolationWindow:
    """The interval of a scan variable with positive margin, one run of the
    scan grid; empty when no violation was found on the grid."""

    variable: str
    lower: float
    upper: float
    empty: bool

    def __post_init__(self) -> None:
        if not self.empty and self.lower > self.upper:
            raise ValueError("window endpoints out of order")


@dataclass(frozen=True)
class ThresholdResult:
    """Root of a margin function in one model parameter."""

    inequality: str
    variable: str
    found: bool
    root: float | None


# ------------------------------ parameter values ----------------------------
#
# Values are computed for a whole batch of (model, phi) points per call:
# ``_value_function`` returns a function (phi, which) -> values whose entry i
# scores ``models[which[i]]`` at ``phi[i]``.  The scalar entry points below are
# batches of one over that code.  `geometry.check_phi` checks one phi against
# the inequality's domain, and `check_phis` an array.  The model scores and
# the bound audits add up their correlators with the same two sums.


def _chsh_sum(c: np.ndarray) -> np.ndarray:
    """|C(a,b) + C(a,b') + C(a',b) - C(a',b')| of the four correlators on the
    last axis of ``c``, in that order."""
    return np.abs(c[..., 0] + c[..., 1] + c[..., 2] - c[..., 3])


def _branciard_sum(c: np.ndarray, c_prime: np.ndarray) -> np.ndarray:
    """(1/3) sum_i |C(a_i, b_i) + C(a_i, b'_i)| of the correlators C(a_i, b_i)
    and C(a_i, b'_i) on the last axis of ``c`` and ``c_prime``."""
    return np.sum(np.abs(c + c_prime), axis=-1) / 3.0


def chsh_value(
    correlator: Callable[[UnitVector3, UnitVector3], float],
    a: UnitVector3,
    b: UnitVector3,
    a_prime: UnitVector3,
    b_prime: UnitVector3,
) -> float:
    """|C(a,b) + C(a,b') + C(a',b) - C(a',b')| for any correlator function."""
    pairs = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
    return float(_chsh_sum(np.array([correlator(x, y) for x, y in pairs])))


def chsh_bound() -> float:
    """Classical bound for outcome-independent product models."""
    return 2.0


def _plane_basis(p: Plane) -> np.ndarray:
    return np.array([p.e1.arr, p.e2.arr])


def _leggett_planes(params: ModelParams) -> np.ndarray:
    """Scoring planes of one model as an (orientations, 2, 2, 3) array: each
    plane pair, each plane as its (e1, e2) basis.  A mean-carrying p-field
    adds the flipped orientation of the normal-aligned pair, so the reported
    F does not hinge on a sign convention for the cross term."""
    p, q = default_leggett_planes(params)
    pairs = [(p, q)]
    if params.family is ModelFamily.SHV:
        flipped = Plane.with_normal(-p.n)
        pairs.append((flipped, orthogonal_plane(flipped)))
    return np.array([[_plane_basis(x) for x in pair] for pair in pairs])


def _value_function(
    name: str, models, planes: np.ndarray | None = None, settings=None,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Inequality value of a batch of points: the returned function maps
    (phi, which) to values whose entry i scores ``models[which[i]]`` at
    ``phi[i]``.  ``models`` share one family.

    Leggett scores each of ``planes`` ((models, orientations, 2, 2, 3); by
    default each model's scoring planes) and keeps the best orientation.
    Every correlator reads the settings only through a.b and a x b, which
    for a pair at relative angle phi in a plane are cos(phi) and sin(phi)
    times its normal whatever the pair's orientation, so the plane average
    is the correlator of the one pair a = e1, b = cos(phi) e1 + sin(phi) e2:
    one row per (point, plane).  Branciard sums over the triad.  CHSH uses
    ``settings`` (by default the optimal ones) and ignores phi.  The models'
    parameter columns are built once here and indexed by ``which``.  The
    callers check ``name``.
    """
    cols = _Columns(models)
    if name == "chsh":
        if settings is None:
            settings = chsh_optimal_settings()
        a, b, ap, bp = (v.arr for v in settings)
        left, right = np.array([a, a, ap, ap]), np.array([b, bp, b, bp])

        def value(phi, which):
            rows = np.broadcast_to(right, (len(which), 4, 3))
            return _chsh_sum(_pair_correlator_arrays(cols, left, rows, which))

    elif name == "leggett":
        if planes is None:  # only shv planes depend on the model
            own = models if models[0].family is ModelFamily.SHV else models[:1]
            planes = np.array([_leggett_planes(m) for m in own])
            planes = np.broadcast_to(planes, (len(models), *planes.shape[1:]))
        # (models, planes per point, 3): each plane's e1 and e2
        e1, e2 = np.moveaxis(planes.reshape(len(planes), -1, 2, 3), 2, 0)

        def plane_avg(phi, which):
            a = e1[which]
            b = np.cos(phi)[:, None, None] * a + np.sin(phi)[:, None, None] * e2[which]
            return _pair_correlator_arrays(cols, a, b, which)

        zero = plane_avg(np.zeros(len(planes)), np.arange(len(planes)))

        def value(phi, which):
            c = (plane_avg(phi, which) + zero[which]).reshape(len(phi), -1, 2)
            return np.max(np.sum(np.abs(c), axis=-1), axis=-1)

    else:  # branciard

        def value(phi, which):
            corr = _pair_correlator_arrays(cols, _TRIAD, _branciard_companions(phi), which)
            return _branciard_sum(corr[:, 0], corr[:, 1])

    return value


def _bound(name: str, phi: np.ndarray) -> np.ndarray:
    if name == "chsh":
        return np.full(len(phi), chsh_bound())
    return leggett_bound(phi) if name == "leggett" else branciard_bound(phi)


def _one(value: Callable[[np.ndarray, np.ndarray], np.ndarray], phi: float) -> float:
    return float(value(np.array([float(phi)]), np.zeros(1, dtype=int))[0])


def leggett_value(
    params: ModelParams,
    p: Plane,
    p_prime: Plane,
    phi: float,
) -> float:
    """F(phi) = |C_p(phi) + C_p(0)| + |C_p'(phi) + C_p'(0)| with plane-averaged
    correlators over two orthogonal planes."""
    check_phi("leggett", phi)
    if abs(dot(p.n, p_prime.n)) > 1e-10:
        raise ValueError("plane normals must be orthogonal")
    planes = np.array([[[_plane_basis(p), _plane_basis(p_prime)]]])
    return _one(_value_function("leggett", (params,), planes), phi)


def leggett_bound(phi):
    """Classical bound 4 - (4/pi) sin|phi/2| for Malus-marginal models
    (elementwise for an array of phi)."""
    check_phis("leggett", phi)
    return 4.0 - (4.0 / PI) * np.sin(np.abs(phi) / 2.0)


def default_leggett_planes(params: ModelParams) -> tuple[Plane, Plane]:
    """Scoring plane pair: for a mean-carrying p-field the first plane is
    normal to the mean (where the cross term survives averaging); otherwise
    an arbitrary fixed orthogonal pair."""
    if params.family is ModelFamily.SHV:
        pbar = params.p_mean()
        norm = float(np.linalg.norm(pbar))
        if norm > 1e-15:
            p = Plane.with_normal(UnitVector3.from_array(pbar / norm))
            return p, orthogonal_plane(p)
    p = xy_plane()
    return p, orthogonal_plane(p)


def branciard_value(params: ModelParams, phi: float) -> float:
    """G(phi) = (1/3) sum_i |C(a_i, b_i) + C(a_i, b'_i)| on the explicit
    orthogonal-triad construction."""
    check_phi("branciard", phi)
    return _one(_value_function("branciard", (params,)), phi)


def branciard_bound(phi):
    """Classical bound 2 - (2/3) sin(phi/2) for Malus-marginal models
    (elementwise for an array of phi), on the triad's domain [0, pi]."""
    check_phis("branciard", phi)
    return 2.0 - (2.0 / 3.0) * np.sin(np.abs(phi) / 2.0)


# ------------------------------- margins -----------------------------------


def correlator_fn(params: ModelParams) -> Callable[[UnitVector3, UnitVector3], float]:
    return lambda a, b: analytic_correlator(params, Settings(a, b))


def _check_margin(name: str, phi, settings=None) -> None:
    """`margin`'s argument rules, checked before any value is computed."""
    chsh = member(name, "inequality", INEQUALITIES) == "chsh"
    if phi is None and not chsh:
        raise ValueError(f"{name} margin requires phi")
    if settings is not None and not chsh:
        raise ValueError(f"{name} takes no settings; they follow from phi")
    if phi is not None:
        check_phi(name, phi)
    if settings is not None and np.shape(settings) != (4,):
        raise ValueError(f"chsh settings must be four UnitVector3, got {settings!r}")
    for v, label in zip(settings or (), ("a", "b", "a_prime", "b_prime")):
        unit_vector(v, f"chsh setting {label}")


def margin(
    name: str,
    params: ModelParams,
    *,
    phi: float | None = None,
    settings: tuple[UnitVector3, UnitVector3, UnitVector3, UnitVector3] | None = None,
) -> InequalityReport:
    """Assemble value, bound, margin, and violation flag for one inequality:
    CHSH at four `UnitVector3` ``settings``, the others at ``phi`` (`_check_margin`)."""
    _check_margin(name, phi, settings)
    config = {"family": params.family.value, "phi": phi} if phi is not None else {
        "family": params.family.value, "settings": "optimal" if settings is None else "custom"}
    at = 0.0 if phi is None else float(phi)
    value = _one(_value_function(name, (params,), settings=settings), at)
    bound = float(_bound(name, np.array([at]))[0])
    m = value - bound
    return InequalityReport(name, value, bound, m, m > 0.0, config)


def _check_scan(name: str, params: ModelParams, variable: str, phi, xs) -> None:
    """A scan's argument rules, before any value (``xs``: the points known up
    front).  A model parameter rebinds ``params`` at the lowest and highest
    of ``xs``: each rule on eta, zeta and p_m is an interval, so the two ends
    cover every point between them.  With no point known, it rebinds
    ``params`` to its own value, which checks only that the family reads it."""
    member(name, "inequality", INEQUALITIES)
    if member(variable, "scan variable", SCAN_VARIABLES) == "phi":
        check_phis(name, xs)
    else:
        for x in (np.min(xs), np.max(xs)) if len(xs) else (getattr(params, variable),):
            _REBINDERS[variable](params, float(x))
    if phi is not None and variable == "phi":
        raise ValueError("phi is the scan variable; a fixed phi would be ignored")
    if phi is not None:
        check_phi(name, phi)


def _scan(
    name: str, models, variable: str, *,
    phi: float | None, nodes: int, tol: float, xs=(),
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Values and bounds of one inequality along one scan variable, as a
    function (x, i) of a batch of points: point j scores the base model
    ``models[i[j]]`` (one family) at ``x[j]``.

    For phi the models are held fixed.  For a model parameter, point j
    rebinds ``models[i[j]]`` to ``x[j]``: CHSH is scored at the optimal
    settings; the angle-dependent inequalities at the given phi when
    provided, otherwise at the maximizing phi of each point, all maximized
    in lockstep (seed grid of ``nodes``, tolerance ``tol``).  `_check_scan`
    checks the arguments first (on the first model: the rules read only the
    family and the point), and every point is a model of its own.
    """
    _check_scan(name, models[0], variable, phi, xs)
    if variable == "phi":
        value = _value_function(name, models)
        return lambda x, i: (value(x, i), _bound(name, x))

    rebind = _REBINDERS[variable]

    def evaluate(x: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        points = [rebind(models[k], v) for k, v in zip(i.tolist(), x.tolist())]
        which = np.arange(len(points))
        value = _value_function(name, points)
        if name == "chsh" or phi is not None:
            at = np.full(len(points), 0.0 if phi is None else float(phi))
        else:
            at, _ = _maximize(lambda x, i: value(x, i) - _bound(name, x),
                              len(points), (0.0, PI), nodes, tol)
        return value(at, which), _bound(name, at)

    return evaluate


def _margins(name: str, models, variable: str, *, phi: float | None = None,
             xs=()) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Margin f(x, i) of a batch of points, scored as in ``_scan``."""
    # only the max VALUE matters here, and it is flat in phi near the
    # maximizer, so a coarse seed grid and loose tolerance lose nothing
    evaluate = _scan(name, models, variable, phi=phi, nodes=64, tol=1e-5, xs=xs)
    return lambda x, i: np.subtract(*evaluate(x, i))


def _first(xs) -> tuple[np.ndarray, np.ndarray]:
    """A nonempty 1-d array of real points, all of problem 0; each point is
    checked as the scan's model or phi."""
    xs = np.asarray(xs)
    if xs.ndim != 1 or not xs.size or xs.dtype.kind not in "iuf":
        raise ValueError(f"xs must be a nonempty 1-d array of real numbers, got {xs!r}")
    return xs.astype(float), np.zeros(len(xs), dtype=int)


def margin_function(
    name: str, params: ModelParams, variable: str, *,
    phi: float | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Margin as a function of one scan variable: a 1-d array of its values
    in, the array of margins out, scored as in ``_scan``."""
    f = _margins(name, (params,), variable, phi=phi)
    return lambda xs: f(*_first(xs))


def scan_values(
    name: str, params: ModelParams, variable: str, xs: np.ndarray, *,
    phi: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Value and classical bound at each grid value ``xs`` of one scan variable,
    after `_check_scan`; without a fixed phi, the angle-dependent inequalities
    at the maximizing phi of each grid value, searched as in ``max_violation``."""
    x, i = _first(xs)
    return _scan(name, (params,), variable, phi=phi, nodes=MAX_SEED_NODES, tol=1e-10, xs=x)(x, i)


# --------------------------- search machinery ------------------------------
#
# Each helper runs independent problems in lockstep: ``f(x, i)`` scores the
# points ``x`` of the problems ``i`` in one batched call, and a per-problem
# mask stops each problem when its own test says so, so every problem takes
# exactly the iterates it would take alone.


# Cap on the (problem, grid point) pairs `_grid` scores in one call, so a
# scan's temporaries do not grow with its problems.
BLOCK_PAIRS = 2**12


def _seed_grid(domain: tuple[float, float], nodes: int, tol: float) -> np.ndarray:
    """The ``nodes`` evenly spaced points of ``domain`` that seed a window,
    maximizer or threshold search, after the one check of the search
    arguments: a tolerance that is not finite and positive would never stop
    (or stop at once), and a domain that is not a finite pair lo < hi leaves
    no bracket."""
    real(tol, "tol", math.ulp(0.0))
    if np.shape(domain) != (2,):
        raise ValueError(f"domain must be a pair (lo, hi), got {domain!r}")
    lo, hi = (real(x, "domain end") for x in domain)
    if not lo < hi:
        raise ValueError(f"domain must have lo < hi, got {domain!r}")
    return np.linspace(lo, hi, nodes)


def _grid(f: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int,
          xs: np.ndarray) -> np.ndarray:
    """f at every grid point ``xs`` of each of n problems, as an (n, len(xs))
    array.  Problems go in blocks of at most ``BLOCK_PAIRS`` points (at
    least one problem), so the scan's temporaries do not grow with n; every
    point is reduced on its own, so the blocks do not change its bits."""
    nodes = len(xs)
    step = max(1, BLOCK_PAIRS // nodes)
    every = np.arange(n)
    return np.concatenate([
        f(np.tile(xs, len(b)), np.repeat(b, nodes)).reshape(len(b), nodes)
        for b in (every[s:s + step] for s in range(0, n, step))])


def _boundary(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, tol: float,
    f_lo=None, f_hi=None,
) -> np.ndarray:
    """Boundary of {x : f(x) > 0} inside each bracket [lo[i], hi[i]],
    assuming the predicate differs at the bracket's ends; ``f_lo`` and
    ``f_hi`` are f there when known (else two more evaluations).

    Illinois false position (Dowell & Jarratt 1971): a step evaluates the
    secant root of the bracket's ends, kept at least tol/4 inside the
    bracket so that a converged end is stepped past, and halves the value
    of an end that two steps in a row have kept, so that end is not kept
    for ever.  A step that does not halve the bracket makes the next one a
    bisection, so a bracket takes at most about twice the steps of
    bisection.  A bracket stops at width ``tol`` or at two adjacent floats,
    whichever comes first.
    """
    ends = np.stack([np.array(lo, dtype=float), np.array(hi, dtype=float)], axis=1)
    every = np.arange(len(ends))
    if f_lo is None:
        f_lo, f_hi = np.split(f(ends.T.ravel(), np.tile(every, 2)), 2)
    # f at each bracket's (lo, hi), as the Illinois halvings scale it
    y = np.stack([f_lo, f_hi], axis=1)
    positive_lo = y[:, 0] > 0.0
    moved = np.full(len(ends), -1)  # the end the last step moved (0 lo, 1 hi)
    bisect = np.zeros(len(ends), dtype=bool)
    active = every[ends[:, 1] - ends[:, 0] > tol]
    while active.size:
        (a, b), (ya, yb) = ends[active].T, y[active].T
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.clip(a + (b - a) * (ya / (ya - yb)), a + 0.25 * tol, b - 0.25 * tol)
        x = np.where(bisect[active] | ~((a < x) & (x < b)), 0.5 * (a + b), x)
        inside = (a < x) & (x < b)  # else the ends are adjacent
        active, x, width = active[inside], x[inside], (b - a)[inside]
        if not active.size:
            break
        fx = f(x, active)
        end = ((fx > 0.0) != positive_lo[active]).astype(int)  # the end x replaces
        ends[active, end] = x
        y[active, end] = fx
        again = moved[active] == end
        y[active[again], 1 - end[again]] *= 0.5
        moved[active] = end
        left = ends[active, 1] - ends[active, 0]
        bisect[active] = ~bisect[active] & (left > 0.5 * width)
        active = active[left > tol]
    return 0.5 * (ends[:, 0] + ends[:, 1])


def _violation_windows(
    name: str, models, variable: str, domain: tuple[float, float], tol: float, *,
    nodes: int = SCAN_NODES, phi: float | None = None,
) -> list[ViolationWindow]:
    """`violation_window` of each model of one family, in lockstep: one grid
    scan of every problem (ValueError if its positive points are not one
    run), then one `_boundary` root search of every end that is not on the
    domain edge, seeded with the grid's margins at its bracket's ends."""
    xs = _seed_grid(domain, nodes, tol)
    f = _margins(name, models, variable, phi=phi, xs=xs)
    values = _grid(f, len(models), xs)
    positive = values > 0.0
    found = positive.any(axis=1)
    # grid index of each (problem, lower or upper) end and of its outer
    # neighbour; an end on the domain edge has none and stays put
    ends = np.stack([np.argmax(positive, axis=1),
                     nodes - 1 - np.argmax(positive[:, ::-1], axis=1)], axis=1)
    if np.any(found & (positive.sum(axis=1) != ends[:, 1] - ends[:, 0] + 1)):
        raise ValueError("margin is positive on two or more separate runs of the scan grid")
    outer = ends + [-1, 1]
    k, e = np.nonzero(found[:, None] & (outer >= 0) & (outer < nodes))
    x = xs[ends]
    if k.size:
        lo, hi = np.minimum(ends, outer)[k, e], np.maximum(ends, outer)[k, e]
        x[k, e] = _boundary(lambda y, i: f(y, k[i]), xs[lo], xs[hi], tol,
                            values[k, lo], values[k, hi])
    x[~found] = math.nan
    return [ViolationWindow(variable, a, b, not ok)
            for (a, b), ok in zip(x.tolist(), found.tolist())]


def violation_window(
    name: str, params: ModelParams, variable: str, domain: tuple[float, float],
    tol: float = DEFAULT_TOL, *, phi: float | None = None,
) -> ViolationWindow:
    """Scan on ``SCAN_NODES`` points plus a root search (`_boundary`) of each
    end of the positive-margin window, which must be one run of the grid
    (else ValueError).  Windows narrower than the grid spacing (~0.01 rad on
    [0, pi]) may be missed."""
    return _violation_windows(name, (params,), variable, domain, tol, phi=phi)[0]


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    every = np.arange(lo.size)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = np.split(f(np.concatenate([x1, x2]), np.tile(every, 2)), 2)
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        up = f1[active] < f2[active]
        r, l = active[up], active[~up]
        lo[r], x1[r], f1[r] = x1[r], x2[r], f2[r]
        x2[r] = lo[r] + _GOLDEN * (hi[r] - lo[r])
        hi[l], x2[l], f2[l] = x2[l], x1[l], f1[l]
        x1[l] = hi[l] - _GOLDEN * (hi[l] - lo[l])
        probe = f(np.where(up, x2[active], x1[active]), active)
        f2[r], f1[l] = probe[up], probe[~up]
        active = active[hi[active] - lo[active] > tol]
    x = 0.5 * (lo + hi)
    return x, f(x, every)


def _parabolic_vertex(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray, fx: np.ndarray, h: float, lo: float, hi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex of the parabola through (x - h, x, x + h) and its value, or
    (x, fx) where the fit does not apply.

    Near a smooth interior maximum the margin is locally quadratic and so
    flat that golden-section alone localizes the maximizer only to about the
    square root of the evaluation noise; one parabola fit at a spacing well
    above the noise floor recovers the lost digits.
    """
    vertex, value = x.copy(), fx.copy()
    i = np.flatnonzero((x - h > lo) & (x + h < hi))
    if i.size == 0:
        return vertex, value
    f_minus, f_plus = np.split(f(np.concatenate([x[i] - h, x[i] + h]), np.tile(i, 2)), 2)
    curvature = f_minus - 2.0 * fx[i] + f_plus
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * h * (f_minus - f_plus) / curvature
    fit = (curvature < 0.0) & (np.abs(shift) <= h)
    i = i[fit]
    if i.size:
        vertex[i] = x[i] + shift[fit]
        value[i] = f(vertex[i], i)
    return vertex, value


def _maximize(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int,
    domain: tuple[float, float], nodes: int, tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximizers and maxima of n problems over one domain: blocked grid
    scan (`_grid`) to seed a bracket, golden-section refinement, then a
    parabolic vertex fit.  Golden-section stops at width max(tol, 1e-6),
    and the fit sets the last digits, so a ``tol`` below 1e-6 changes
    nothing."""
    xs = _seed_grid(domain, nodes, tol)
    k = np.argmax(_grid(f, n, xs), axis=1)
    x, fx = _golden_max(f, xs[np.maximum(k - 1, 0)], xs[np.minimum(k + 1, nodes - 1)],
                        max(tol, 1e-6))
    vertex, value = _parabolic_vertex(f, x, fx, 3e-5, *domain)
    # the fit can land a hair below the golden value by noise; prefer
    # the vertex location but report the better of the two values
    return vertex, np.maximum(value, fx)


def _max_violations(
    name: str, models, variable: str, domain: tuple[float, float], tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """`max_violation` of each model of one family, in lockstep: arrays of
    the maximizers and of the maxima."""
    f = _margins(name, models, variable, xs=_seed_grid(domain, MAX_SEED_NODES, tol))
    return _maximize(f, len(models), domain, MAX_SEED_NODES, tol)


def max_violation(
    name: str, params: ModelParams, variable: str, domain: tuple[float, float],
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Maximizer and value of the margin over the domain: grid scan to seed a
    bracket, golden-section refinement, then a parabolic vertex fit.
    ``tol`` is the golden-section width only down to 1e-6 (`_maximize`):
    any smaller ``tol``, the default included, gives the same bits."""
    x, fx = _max_violations(name, (params,), variable, domain, tol)
    return float(x[0]), float(fx[0])


def threshold(
    name: str, params: ModelParams, variable: str, domain: tuple[float, float],
    tol: float = DEFAULT_TOL, *, phi: float | None = None,
) -> ThresholdResult:
    """Largest parameter value below which the inequality is violated.

    The upper end of the violation window of the margin (at fixed phi when
    given, else maximized over phi) on ``THRESHOLD_NODES`` grid points,
    found when the window starts at the domain's lower edge and ends inside
    it.  A margin positive on two or more runs of the grid raises ValueError.
    """
    win = _violation_windows(name, (params,), variable, domain, tol,
                             nodes=THRESHOLD_NODES, phi=phi)[0]
    found = not win.empty and win.lower == domain[0] and win.upper < domain[1]
    return ThresholdResult(name, variable, found, win.upper if found else None)


# ------------------------------ bound audits --------------------------------
#
# Each audit draws and scores its trials as arrays, AUDIT_BLOCK trials at a
# time, so its memory does not grow with ``trials``.  The two comparison
# classes are tables of `table_cells`, whose cell check guards them:
#     product  A = Abar, B = Bbar, C = Abar*Bbar   (outcome independent)
#     Malus    A = u.a,  B = v.b,  C free within positivity (Malus marginals)

# Hidden atoms per random mixture, and trials per block, in the bound audits.
BHV_ATOMS = 8
LHV_ATOMS = 6
AUDIT_BLOCK = 256
# per-atom expectations A(a), A(a'), B(b), B(b') paired as the CHSH terms
_CHSH_A, _CHSH_B = [0, 0, 1, 1], [2, 3, 2, 3]


def _block_max(score, trials: int, start: float) -> float:
    """Max of ``start`` and of the values ``score(m)`` returns for blocks of
    m <= AUDIT_BLOCK of the ``trials`` (an integer >= 1); each block's arrays
    are freed before the next."""
    integer(trials, "trials", 1)
    for i in range(0, trials, AUDIT_BLOCK):
        start = max(start, float(np.max(score(min(AUDIT_BLOCK, trials - i)))))
    return start


def _mixture_correlators(A, B, C, w: np.ndarray) -> np.ndarray:
    """Correlators pp - pm - mp + mm of the atoms' `table_cells` (atoms on
    the last axis), summed with the mixture weights ``w``."""
    pp, pm, mp, mm = table_cells(A, B, C)
    return np.sum(w * (pp - pm - mp + mm), axis=-1)


def bhv_chsh_search(rng: np.random.Generator, trials: int = 10_000) -> float:
    """Max CHSH value over random mixtures of outcome-independent product
    strategies (random single-party expectations per hidden atom, random
    mixture weights, deterministic corner strategies included)."""
    def chsh(m):
        vals = rng.uniform(-1.0, 1.0, size=(m, 4, BHV_ATOMS))
        corner = rng.random(m) < 0.25
        vals[corner] = np.sign(vals[corner])  # deterministic strategies saturate the bound
        w = rng.random((m, 1, BHV_ATOMS))
        w /= w.sum(axis=-1, keepdims=True)
        abar, bbar = vals[:, _CHSH_A], vals[:, _CHSH_B]
        return _chsh_sum(_mixture_correlators(abar, bbar, abar * bbar, w))

    return _block_max(chsh, trials, 0.0)


def _malus_mixtures(rng: np.random.Generator, m: int):
    """Atoms u, v ((m, LHV_ATOMS, 3)) and, broadcastable against per-atom
    arrays, weights w and mixes t ((m, 1, 1, LHV_ATOMS)) of m random
    Malus-marginal mixtures: atom k's correlation is t*lo + (1-t)*hi on its
    feasible range.  About half the trials take v = u, and about half t = 1."""
    u, v = (sample_unit_batch(rng, m * LHV_ATOMS).reshape(m, LHV_ATOMS, 3) for _ in "uv")
    v = np.where(rng.random((m, 1, 1)) < 0.5, v, u)
    w = rng.random((m, 1, 1, LHV_ATOMS))
    w /= w.sum(axis=-1, keepdims=True)
    t = np.where(rng.random((m, 1, 1, 1)) < 0.5, 1.0, rng.random((m, 1, 1, LHV_ATOMS)))
    return u, v, w, t


def lhv_leggett_search(rng: np.random.Generator, trials: int = 200) -> float:
    """Max excess of F(phi) over the Leggett bound across random
    Malus-marginal mixtures; nonpositive up to roundoff when the bound holds.

    The planes are those of `Plane.with_normal` (`_plane_frames`) of a random
    n and its `orthogonal_plane`.  In complex in-plane coordinates c = x.e1 - i x.e2,
    the average of |u.a +- v.b| over the orientations of a, b in a plane,
    and so of each end of the feasible range, is (2/pi)|cu +- cv e^{i phi}|.
    """
    def excess(m):
        n = sample_unit_batch(rng, m)
        e1, e2 = _plane_frames(n)
        planes = np.stack([e1 - 1j * e2, e2 - 1j * n], axis=1)  # (m, plane, 3)
        phi = rng.uniform(0.0, PI, m)
        u, v, w, t = _malus_mixtures(rng, m)
        # (m, plane, angle phi or 0, atom)
        cu, cv = (np.einsum("mak,mpk->mpa", x, planes)[:, :, None] for x in (u, v))
        rot = np.exp(1j * np.stack([phi, np.zeros(m)], axis=1))[:, None, :, None]
        lo, hi = lhv_feasible_c_range(2.0 / PI * cu, 2.0 / PI * cv * rot)
        c = np.sum(w * (t * lo + (1.0 - t) * hi), axis=-1)
        return np.sum(np.abs(c[..., 0] + c[..., 1]), axis=1) - leggett_bound(phi)

    return _block_max(excess, trials, -math.inf)


def lhv_branciard_search(rng: np.random.Generator, trials: int = 2000) -> float:
    """Max excess of G(phi) over the Branciard bound across random
    Malus-marginal mixtures on the triad construction."""
    def excess(m):
        phi = rng.uniform(0.0, PI, m)
        u, v, w, t = _malus_mixtures(rng, m)
        # (m, axis i, setting b_i or b'_i, atom); u.a_i is u's component i
        ua = np.swapaxes(u, 1, 2)[:, :, None]
        vb = np.einsum("mak,mjik->mija", v, _branciard_companions(phi))
        lo, hi = lhv_feasible_c_range(ua, vb)
        e = _mixture_correlators(ua, vb, t * lo + (1.0 - t) * hi, w)
        return _branciard_sum(e[..., 0], e[..., 1]) - branciard_bound(phi)

    return _block_max(excess, trials, -math.inf)
