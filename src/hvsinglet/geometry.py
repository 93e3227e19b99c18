"""Unit-vector algebra, measurement-setting constructors, sphere sampling,
and the argument checkers every module calls.

Everything downstream (model tables, plane averaging, inequality scans) works
in one fixed right-handed orthonormal frame (X, Y, Z); all results depend only
on relative angles.  Sampling routines take an explicit
``numpy.random.Generator`` so every stochastic result is reproducible from a
seed.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

HALF_PI = 0.5 * math.pi

# The domain of the relative angle phi in each angle-dependent inequality.
PHI_DOMAINS = {"leggett": (-math.pi, math.pi), "branciard": (0.0, math.pi)}

# ------------------------------ argument checks ------------------------------
# Each returns its argument unchanged or raises ``error`` (ValueError, or
# `models.InvalidModelError` for a model field) in one line naming ``what``.


def real(value, what: str, lo: float = -math.inf, hi: float = math.inf, error=ValueError):
    """A real (not a bool) that a float holds finitely, in [lo, hi]."""
    # float and int are tested before the ABC: its test alone takes ~0.5 us
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)) or not (
            abs(value) <= sys.float_info.max):  # written so that nan fails
        raise error(f"{what} must be a finite number, got {value!r}")
    if not lo <= value <= hi:
        raise error(f"{what} must be at least {lo}" if hi == math.inf
                    else f"{what} must lie in [{lo:.6g}, {hi:.6g}]")
    return value


def integer(value, what: str, low: float = -math.inf, error=ValueError):
    """An integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise error(f"{what} must be an integer, got {value!r}")
    return real(value, what, low, error=error)


def member(value, what: str, names, error=ValueError):
    """One of ``names``."""
    if value not in names:
        raise error(f"unknown {what} {value!r}")
    return value


def triple(value, what: str, error=ValueError):
    """A list, tuple or array of three finite reals."""
    if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == 3):
        raise error(f"{what} must be a 3-component vector, got {value!r}")
    for c in value:
        real(c, f"{what} component", error=error)
    return value


def unit_vector(value, what: str, error=ValueError):
    """A `UnitVector3`."""
    if not isinstance(value, UnitVector3):
        raise error(f"{what} must be a UnitVector3, got {value!r}")
    return value


def check_phi(name: str, phi):
    """A phi of inequality ``name``: a real in its domain (none for CHSH)."""
    if name not in PHI_DOMAINS:
        raise ValueError(f"{name} has no phi dependence")
    return real(phi, f"{name} phi", *PHI_DOMAINS[name])


def check_phis(name: str, phis) -> None:
    """`check_phi` of each of ``phis`` (reals; a float array in one pass), even of none."""
    lo, hi = PHI_DOMAINS.get(name) or check_phi(name, None)  # check_phi raises: no phi
    phis = np.asarray(phis)
    if phis.dtype.kind != "f" or not np.all((phis >= lo) & (phis <= hi)):
        for x in np.ravel(phis).tolist():
            check_phi(name, x)


@dataclass(frozen=True)
class UnitVector3:
    """A direction on the 2-sphere.  Components must already be normalized;
    use :meth:`normalized` to rescale arbitrary components."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        triple((self.x, self.y, self.z), "unit vector")
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(n2 - 1.0) <= NORM_TOL:
            raise ValueError(f"components not normalized: |v|^2 = {n2!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector3":
        return cls.from_array((x, y, z))

    @classmethod
    def from_array(cls, arr, what: str = "vector") -> "UnitVector3":
        """The direction of ``arr``, three finite reals not all zero (scaled by the
        largest |component| first when the squared norm over- or underflows)."""
        x, y, z = (float(c) for c in triple(arr, what))
        n2 = x * x + y * y + z * z
        if not sys.float_info.min <= n2 < math.inf:
            m = max(abs(x), abs(y), abs(z))
            if m == 0.0:
                raise ValueError(f"{what} must have a nonzero, finite norm, got {arr!r}")
            x, y, z = x / m, y / m, z / m
            n2 = x * x + y * y + z * z
        n = math.sqrt(n2)
        return cls(x / n, y / n, z / n)

    @property
    def arr(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


X = UnitVector3(1.0, 0.0, 0.0)
Y = UnitVector3(0.0, 1.0, 0.0)
Z = UnitVector3(0.0, 0.0, 1.0)


def dot(u: UnitVector3, v: UnitVector3) -> float:
    """Standard inner product; in [-1, 1] up to roundoff for unit inputs."""
    return u.x * v.x + u.y * v.y + u.z * v.z


def cross(u: UnitVector3, v: UnitVector3) -> np.ndarray:
    """Right-handed cross product.  Not normalized: the magnitude equals the
    sine of the angle between ``u`` and ``v``."""
    return np.array(
        [
            u.y * v.z - u.z * v.y,
            u.z * v.x - u.x * v.z,
            u.x * v.y - u.y * v.x,
        ]
    )


@dataclass(frozen=True)
class Plane:
    """Oriented plane through the origin: orthonormal in-plane basis (e1, e2)
    plus the normal n = e1 x e2."""

    e1: UnitVector3
    e2: UnitVector3
    n: UnitVector3

    def __post_init__(self) -> None:
        for name in ("e1", "e2", "n"):
            unit_vector(getattr(self, name), f"plane {name}")
        if abs(dot(self.e1, self.e2)) > NORM_TOL:
            raise ValueError("e1 and e2 are not orthogonal")
        if np.max(np.abs(cross(self.e1, self.e2) - self.n.arr)) > NORM_TOL:
            raise ValueError("n must equal e1 x e2")

    @classmethod
    def with_normal(cls, n: UnitVector3) -> "Plane":
        """Complete ``n`` with an arbitrary right-handed in-plane basis (`_plane_frames`
        of a batch of one)."""
        unit_vector(n, "plane normal")
        e1, e2 = (UnitVector3(*e[0].tolist()) for e in _plane_frames(n.arr[None]))
        return cls(e1, e2, n)


def _plane_frames(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-plane bases (e1, e2) completing each unit normal row of ``n`` ((m, 3))
    right-handedly: e1 = helper x n and e2 = n x e1, each normalized, with
    the helper Z unless |n_z| >= 0.9, then X."""
    e1 = np.cross(np.where(np.abs(n[:, 2:]) < 0.9, Z.arr, X.arr), n)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(n, e1)
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    return e1, e2


def xy_plane() -> Plane:
    return Plane(X, Y, Z)


def orthogonal_plane(p: Plane) -> Plane:
    """A plane whose normal is orthogonal to that of ``p`` (normal = p.e1)."""
    return Plane(p.e2, p.n, p.e1)


@dataclass(frozen=True)
class Triad:
    """Right-handed orthonormal triple (a1, a2, a3)."""

    a1: UnitVector3
    a2: UnitVector3
    a3: UnitVector3

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3"):
            unit_vector(getattr(self, name), f"triad {name}")
        for u, v in ((self.a1, self.a2), (self.a2, self.a3), (self.a3, self.a1)):
            if abs(dot(u, v)) > NORM_TOL:
                raise ValueError("triad vectors are not pairwise orthogonal")
        if np.max(np.abs(cross(self.a1, self.a2) - self.a3.arr)) > NORM_TOL:
            raise ValueError("triad is not right-handed (a1 x a2 != a3)")

    @property
    def axes(self) -> tuple[UnitVector3, UnitVector3, UnitVector3]:
        return (self.a1, self.a2, self.a3)


def in_plane_direction(p: Plane, theta: float) -> UnitVector3:
    """Unit vector at counterclockwise angle ``theta`` from e1, about n."""
    real(theta, "theta")
    c, s = math.cos(theta), math.sin(theta)
    return UnitVector3.normalized(
        c * p.e1.x + s * p.e2.x,
        c * p.e1.y + s * p.e2.y,
        c * p.e1.z + s * p.e2.z,
    )


def vectors_in_plane(p: Plane, theta: float, phi: float) -> tuple[UnitVector3, UnitVector3]:
    """Setting pair (a, b) in plane ``p``: a at angle theta, b at theta + phi.

    By construction a.b = cos(phi) and (a x b).n = sin(phi); angles are
    counterclockwise about the plane normal.
    """
    real(phi, "phi")
    return in_plane_direction(p, theta), in_plane_direction(p, real(theta + phi, "theta + phi"))


def chsh_optimal_settings() -> tuple[UnitVector3, UnitVector3, UnitVector3, UnitVector3]:
    """Coplanar settings (a, b, a', b') in the xy-plane at 90, 45, 0, 135
    degrees, giving a.b = a.b' = a'.b = 1/sqrt(2) and a'.b' = -1/sqrt(2)."""
    p = xy_plane()
    a = in_plane_direction(p, math.pi / 2)
    b = in_plane_direction(p, math.pi / 4)
    a_prime = in_plane_direction(p, 0.0)
    b_prime = in_plane_direction(p, 3 * math.pi / 4)
    return a, b, a_prime, b_prime


# Orthogonal triad a_i (rows) of the Branciard construction and its cyclic
# successors a_{i+1}.
_TRIAD = np.eye(3)
_TRIAD_NEXT = np.roll(_TRIAD, -1, axis=0)


def branciard_settings(
    phi: float,
) -> tuple[Triad, tuple[UnitVector3, ...], tuple[UnitVector3, ...]]:
    """Orthogonal triad plus companion settings b_i, b'_i at angles +phi/2
    and -phi/2 from a_i, inside the (a_i, a_{i+1}) plane (indices mod 3):
    `_branciard_companions` of a batch of one."""
    check_phi("branciard", phi)
    b, b_prime = (tuple(UnitVector3(*v) for v in rows)
                  for rows in _branciard_companions(np.array([float(phi)]))[0].tolist())
    return Triad(X, Y, Z), b, b_prime


def _branciard_companions(phi: np.ndarray) -> np.ndarray:
    """Settings b_i, b'_i of the triad construction for each phi, as a
    (len(phi), 2, 3, 3) array: [k, 0, i] is b_i and [k, 1, i] is b'_i."""
    check_phis("branciard", phi)
    half = phi[:, None, None] / 2.0
    c, s = np.cos(half), np.sin(half)
    v = np.stack([c * _TRIAD + s * _TRIAD_NEXT, c * _TRIAD - s * _TRIAD_NEXT], axis=1)
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


class ChunkWorkspace:
    """Float rows for the arrays of one Monte-Carlo chunk, kept by one
    worker across its chunks and calls, so that a warm chunk loop allocates
    nothing.

    `start(n)` begins a chunk of n samples with every row free (the
    constructor starts one of ``n``, by default empty).  `row()` lends an
    (n,) row and `give(*rows)` takes lent rows back.

    The rows form a free list: a row is as long as the longest chunk so far,
    `row()` lends the lowest-numbered free row and allocates a new one only
    when none is free.  A workspace thus holds exactly the most rows any of
    its chunks had lent at once, in whatever order its chunks came.
    """

    def __init__(self, n: int = 0) -> None:
        self._size = 0
        self._rows: list[np.ndarray] = []
        self.start(n)

    def start(self, n: int) -> None:
        if n > self._size:
            self._rows, self._size = [], n
        self.n = n
        self._free = list(range(len(self._rows)))

    def row(self) -> np.ndarray:
        """One lent (n,) row."""
        if self._free:
            i = min(self._free)
            self._free.remove(i)
        else:
            i = len(self._rows)
            self._rows.append(np.empty(self._size))
        return self._rows[i][:self.n]

    def give(self, *rows: np.ndarray) -> None:
        """Take back lent rows."""
        for r in rows:
            self._free.append(next(i for i, own in enumerate(self._rows) if own is r.base))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 stream; pass the same seed to reproduce a run."""
    integer(seed, "seed", 0)
    return np.random.default_rng(seed)


def sample_unit_uniform(rng: np.random.Generator) -> UnitVector3:
    """One draw from the uniform distribution on the sphere (a batch of one)."""
    return UnitVector3.from_array(sample_unit_batch(rng, 1)[0])


def sample_unit_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent uniform sphere draws as a C-ordered (n, 3) array."""
    return np.column_stack(_zone_rows(rng, -1.0, n))


def sample_cap_batch(
    rng: np.random.Generator, axis: UnitVector3, half_angle: float, n: int
) -> np.ndarray:
    """n uniform draws from the spherical cap of the given half-angle
    (in [0, pi], as `models.CapP` checks) centered on ``axis``, as in
    `sample_unit_batch`."""
    (e1,), (e2,) = _plane_frames(axis.arr[None])
    e3 = axis.arr
    x, y, z = _zone_rows(rng, math.cos(half_angle), n)
    return np.column_stack([x * e1[k] + y * e2[k] + z * e3[k] for k in range(3)])


def _uniform_into(rng: np.random.Generator, lo: float, hi: float, out: np.ndarray):
    """``rng.uniform(lo, hi, len(out))`` drawn into ``out``: the same
    lo + (hi - lo) * random() for each element, so the same bits."""
    rng.random(out=out)
    out *= hi - lo
    out += lo
    return out


def _zone_draw(rng: np.random.Generator, z_lo: float, z: np.ndarray, t: np.ndarray,
               q: np.ndarray, w: np.ndarray) -> None:
    """The draw both zone samplers share, into the given rows: z ~ U(z_lo, 1)
    into ``z``, then u ~ U(0, 1) as the tangent half-angle t = tan(pi u - pi/2)
    into ``t``, then r / (1 + t^2) with r = sqrt(1 - z^2) into ``w`` and
    t^2 - 1 = (1 + t^2) - 2 into ``q`` (which may be ``t``).

    The tangent is one fast libm call in place of a cos and a sin of the
    azimuth 2 pi u: cos(2 pi u) = (t^2 - 1) / (1 + t^2) and
    sin(2 pi u) = -2 t / (1 + t^2).  |t| <= 1.7e16 (at u = 0), so t^2 is
    finite.
    """
    _uniform_into(rng, z_lo, 1.0, z)
    np.tan(_uniform_into(rng, -HALF_PI, HALF_PI, t), out=t)
    _radius_into(z, w)
    np.multiply(t, t, out=q)
    q += 1.0
    w /= q  # r / (1 + t^2)
    q -= 2.0


def _zone_rows(rng: np.random.Generator, z_lo: float, n: int) -> np.ndarray:
    """n uniform draws from the zone z >= z_lo of the unit sphere as the
    (3, n) component rows (x, y, z) = (r cos(2 pi u), r sin(2 pi u), z) of
    `_zone_draw`.  The generator reads the same uniforms in the same order
    as the cos/sin form, and the points agree with it to an ulp or two.
    """
    rows = np.empty((4, n))
    x, y, z, w = rows
    _zone_draw(rng, z_lo, z, y, x, w)
    x *= w
    y *= w
    y *= -2.0
    return rows[:3]


def _zone_projection(rng: np.random.Generator, z_lo: float, par: float, perp: float,
                     ws: ChunkWorkspace):
    """One projection of uniform draws w from the zone z >= z_lo, without
    the points themselves: for the zone axis c and a direction d with
    par = c.d and perp = |c x d|, w.d = par z + perp r cos(2 pi u).

    It reads the uniforms of `_zone_rows` through the same `_zone_draw`.
    Returns the rows (z, w.d), lent by the started `ChunkWorkspace` ``ws``.
    """
    z, t, w = ws.row(), ws.row(), ws.row()
    _zone_draw(rng, z_lo, z, t, t, w)
    w *= perp  # perp r / (1 + t^2)
    t *= w
    t += np.multiply(z, par, out=w)
    ws.give(w)
    return z, t


def _radius_into(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r = sqrt(1 - z^2) of zone draws, clipped at 0, into ``out``."""
    np.multiply(z, z, out=out)
    np.subtract(1.0, out, out=out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)
