"""Correlators for each model family: closed forms, seeded Monte-Carlo
estimation, the in-plane orientation average by periodic quadrature, and an
independent sphere-moment oracle for the sixth-moment identity behind the
cubic family.

Every closed form reads the settings only through a.b and a x b, so for a
pair at relative angle phi inside a plane it does not depend on the pair's
orientation; the quadrature of `plane_avg_correlator` is the independent
route that checks this, not a step of the inequality search.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import ChunkWorkspace, Plane, UnitVector3, integer, real, unit_vector
from .models import (
    ModelFamily,
    ModelParams,
    Settings,
    _draw_projections,
    _projection_coeffs,
    draw_outcomes,
)

DEFAULT_PLANE_NODES = 256
MIN_MC_SAMPLES = 100
# Largest Monte-Carlo chunk drawn at once from a shard's generator: 1 MB
# per workspace row, so memory is O(MC_CHUNK) whatever n is.  Part
# of the (seed, shards) contract once a shard holds more samples than this.
MC_CHUNK = 2**17


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo mean of sigma*tau with its plug-in standard error."""

    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class PlaneAverageSpec:
    """In-plane averaging request: settings at relative angle phi (finite), the
    first uniform over orientations inside ``plane``, on quadrature_order >= 4 nodes."""

    plane: Plane
    phi: float
    quadrature_order: int = DEFAULT_PLANE_NODES

    def __post_init__(self) -> None:
        real(self.phi, "phi")
        integer(self.quadrature_order, "quadrature_order", 4)


class _Columns:
    """The per-model parameter columns a batch of models of one family
    reads in `_pair_correlator_arrays`, built once per batch: zeta (THV),
    pbar and p_m (SHV), eta (FHV and QM), one entry per model."""

    def __init__(self, models) -> None:
        self.family = fam = models[0].family
        if fam is ModelFamily.THV:
            self.zeta = np.array([m.zeta for m in models], dtype=float)
        elif fam is ModelFamily.SHV:
            self.p_mean = np.array([m.p_mean() for m in models], dtype=float)
            self.p_m = np.array([m.p_m for m in models], dtype=float)
        else:  # FHV, and QM, whose eta is 0
            self.eta = np.array([m.eta for m in models], dtype=float)


def _pair_correlator_arrays(cols: _Columns, a: np.ndarray, b: np.ndarray, which=slice(None)):
    """Correlator (hidden variables already averaged out) for row-paired
    settings ``a``, ``b`` that broadcast to shape (n, ..., 3).

    ``cols`` holds the columns of models of one family; row i uses model
    ``which[i]`` (by default model i, or the only model for every row).
    """
    ab = np.sum(a * b, axis=-1)
    fam = cols.family

    def column(values, *tail):
        return values[which].reshape((-1,) + (1,) * (ab.ndim - 1) + tail)

    if fam is ModelFamily.SHV:
        pbar = column(cols.p_mean, 3)
        cross_term = np.sum(np.cross(a, b) * pbar, axis=-1)
        return -(ab + cross_term) / np.sqrt(1.0 + column(cols.p_m) ** 2)
    if fam is ModelFamily.THV:
        z = column(cols.zeta)
        return -(1.0 - 3.0 * z / 35.0) * ab + (2.0 * z / 35.0) * (ab * ab * ab)
    # FHV, and QM: -a.b / (1 + 0) is -a.b bit for bit
    return -ab / (1.0 + column(cols.eta))


def analytic_correlator(params: ModelParams, s: Settings) -> float:
    """Closed-form correlator C(a, b) = E[sigma*tau] for the family:

        FHV  -a.b / (1 + eta)
        SHV  -[a.b + (a x b).pbar] / sqrt(1 + pm^2)
        THV  -(1 - 3*zeta/35) a.b + (2*zeta/35) (a.b)^3
        QM   -a.b
    """
    return float(_pair_correlator_arrays(_Columns((params,)), s.a.arr[None], s.b.arr[None])[0])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Idle shard workspaces, shared by every shard in the process: a shard pops
# one (or makes one when none is idle) and appends it back, so rows are
# allocated once per shard running at once, not once per call.  list.pop and
# list.append are atomic, so the list needs no lock.
_IDLE_WORKSPACES: list[ChunkWorkspace] = []
# Units a map keeps in flight per worker thread: a map submits its units in
# windows of this many per worker, so its bookkeeping does not grow with the
# number of units.
_WINDOW_PER_WORKER = 64


def _pool_map(fn, units):
    """``map(fn, units)`` on min(len(units), usable CPUs) threads, inline
    when that is one; numpy releases the GIL in its bulk draws and ufuncs.

    Results are yielded in unit order, so a caller that combines them in
    that order gets the same bits for any thread count.  Units are submitted
    in windows of ``_WINDOW_PER_WORKER`` per thread, so at most one window's
    units and results are held at once.
    """
    workers = max(1, min(len(units), _usable_cpus()))
    if workers == 1:
        yield from map(fn, units)
        return
    # imported here: importing it costs ~10 ms, a twentieth of start-up
    from concurrent.futures import ThreadPoolExecutor

    window = _WINDOW_PER_WORKER * workers
    with ThreadPoolExecutor(workers) as pool:
        for start in range(0, len(units), window):
            yield from pool.map(fn, units[start:start + window])


def _shard_counts(
    params: ModelParams, s: Settings, m: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Draw one shard of ``m`` samples from ``rng`` in chunks of at most
    ``MC_CHUNK``: the hidden states' projections onto the settings, then
    each table's coefficients (A, B, C), then the joint outcome.  Returns
    the counts of sigma = +1 and of sigma*tau = +1.

    The hidden draw is `models._draw_projections`: the projections each
    table reads, drawn from their laws in the settings frame, not 3-D
    hidden vectors.  `models.draw_outcomes` draws each outcome from the
    table's partial sums, formed straight from (A, B, C) and checked for
    negative cells, so no chunk forms the four cells.  Every array of a
    chunk lives in a `ChunkWorkspace` the shard takes from
    ``_IDLE_WORKSPACES`` and gives back when it ends, so memory is
    O(MC_CHUNK) per running shard and a warm loop allocates nothing.
    """
    a, b = s.a.arr, s.b.arr
    try:
        ws = _IDLE_WORKSPACES.pop()
    except IndexError:
        ws = ChunkWorkspace()
    plus = same = 0
    try:
        for start in range(0, m, MC_CHUNK):
            k = min(MC_CHUNK, m - start)
            ws.start(k)
            proj = _draw_projections(params, a, b, rng, ws)
            sigma, product = draw_outcomes(*_projection_coeffs(params, proj, a, b, ws),
                                           k, rng, ws)
            plus += int(np.count_nonzero(sigma))
            same += int(np.count_nonzero(product))
    finally:
        _IDLE_WORKSPACES.append(ws)
    return plus, same


def mc_correlator(
    params: ModelParams, s: Settings, n: int, seed: int, shards: int = 1
) -> MCEstimate:
    """Empirical correlator: draw hidden states (as the projections each
    table reads), form each table's coefficients, draw outcomes, and average
    sigma*tau.

    Work is split over ``shards`` deterministic substreams; each shard is
    drawn from its own generator in chunks of at most ``MC_CHUNK`` samples
    and reduced chunk by chunk into its integer count of sigma*tau = +1.
    Shards run on `_pool_map` threads and their counts add exactly, so the
    result is bit-reproducible for a fixed (seed, shards) pair whatever the
    thread count, and memory grows neither with ``n`` nor with ``shards``.
    The integers ``n``, ``seed`` and ``shards`` are >= MIN_MC_SAMPLES, 0 and 1.
    """
    integer(n, "n", MIN_MC_SAMPLES)
    integer(seed, "seed", 0)
    integer(shards, "shards", 1)
    base, extra = divmod(n, shards)

    def shard(i: int) -> int:
        # SeedSequence(seed).spawn(shards)[i], built only when the shard runs
        stream = np.random.SeedSequence(seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.PCG64(stream))
        return _shard_counts(params, s, base + (1 if i < extra else 0), rng)[1]

    # shards past the n-th hold no sample, so only the first min(shards, n) run
    same = sum(_pool_map(shard, range(min(shards, n))))
    # sigma*tau is +-1, so its sum is 2*same - n and its sum of squares n:
    # integers, exact whatever the shard order
    total, total_sq = float(2 * same - n), float(n)
    var = max(0.0, (total_sq - total * total / n) / (n - 1))
    return MCEstimate(mean=total / n, stderr=math.sqrt(var / n), n=n, seed=seed)


def plane_avg_correlator(
    params: ModelParams, spec: PlaneAverageSpec, theta0: float = 0.0
) -> float:
    """Correlator averaged over the orientation of the setting pair inside a
    plane, the two settings held at relative angle phi.

    Uses the periodic trapezoid rule over ``spec.quadrature_order``
    orientation angles, which is spectrally accurate for the low-degree
    trigonometric integrands the analytic correlators produce; ``theta0``
    shifts the node phase and must not change the result.
    """
    real(theta0, "theta0")
    order = spec.quadrature_order
    theta = theta0 + np.arange(order) * (2.0 * math.pi / order)
    e1, e2 = spec.plane.e1.arr, spec.plane.e2.arr
    a = np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
    tb = theta + spec.phi
    b = np.cos(tb)[:, None] * e1 + np.sin(tb)[:, None] * e2
    return float(np.mean(_pair_correlator_arrays(_Columns((params,)), a, b)))


def sphere_moment_oracle(a: UnitVector3, b: UnitVector3, order: int = 24) -> float:
    """Quadrature value of the sphere average <(a.u)^3 (b.u)^3>.

    Gauss-Legendre nodes in the polar cosine crossed with a uniform azimuth
    grid of twice the order; exact for degree-6 polynomials once order >= 4.
    Must reproduce (3/35) x + (2/35) x^3 at x = a.b.
    """
    unit_vector(a, "a")
    return float(_sphere_moments(a, unit_vector(b, "b").arr[None], order)[0])


def _sphere_moments(a: UnitVector3, b: np.ndarray, order: int) -> np.ndarray:
    """`sphere_moment_oracle` of ``a`` against each row of ``b`` (m, 3) at
    once; each row is reduced on its own, so it gets the bits of a batch of
    one."""
    integer(order, "order", 4)  # exact for degree-6 integrands from 4 on
    z, w = np.polynomial.legendre.leggauss(order)
    az = (np.arange(2 * order) + 0.5) * (math.pi / order)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ux = np.outer(r, np.cos(az))
    uy = np.outer(r, np.sin(az))
    uz = np.outer(z, np.ones_like(az))
    fa = (a.x * ux + a.y * uy + a.z * uz) ** 3
    bx, by, bz = (col[:, None, None] for col in b.T)
    fb = (bx * ux + by * uy + bz * uz) ** 3
    inner = np.mean(fa * fb, axis=-1)
    return np.sum(w * inner, axis=-1) / 2.0
