"""Planar convex bodies, parallel sets, boundary quadrature, and derivative
checks for expectations of point-process functionals on expanding domains.

Every body is read through one outline: a convex polygon of k >= 1 ccw
vertices dilated by a disk of radius r.  A disk is its centre with r = its
radius; a segment is its two ends, a box its four corners and a polygon its
vertices, each with r = 0.  The parallel set K_t is the polygon dilated by
s = r + t.  Its patches are the polygon's triangles about the centroid, a
rectangle along each edge and a circular sector at each vertex; its boundary
is each edge offset by s and an arc at each vertex.  So no indicator function
is ever fed to a quadrature rule.  A segment has area 0 and perimeter 2L, and
the boundary of its K_0 is both of its sides.  Integrands take an (n, 2)
point array and return n values; any other shape raises TypeError.

The Crofton checks draw their replicates from the block engine of
:mod:`pivotal.point_process`: side s is ``rng.substream(s)`` and block b of
side s draws from ``rng.substream(s).substream(b)``, the replicate count per
block fixed by the mass (or m) and ``_BLOCK_POINTS``, counts before points.
``crofton_poisson_check`` samples K_{t+delta} on side 0 and K_t on side 1;
``crofton_binomial_check`` samples K_{t+delta} on side 0, K_{t-delta} on
side 1 and K_t on side 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .point_process import (
    IntensityMeasure,
    ReplicateBlock,
    Statistic,
    binomial_blocks,
    poisson_blocks,
    total_mass,
)
from .quadrature import QuadratureError, _gl_nodes
from .rng import RngStream
from .summaries import mean_stderr, zscore


# -- shapes -------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if c.size != 2:
            raise ValueError("disk is planar")


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.size != 2 or hi.size != 2:
            raise ValueError("box is planar")
        if np.any(hi <= lo):
            raise ValueError("need lo < hi componentwise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class ConvexPolygon:
    vertices: np.ndarray  # (k, 2), ccw, strictly convex

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("need at least 3 planar vertices")
        e = np.roll(v, -1, axis=0) - v
        if np.any(np.linalg.norm(e, axis=1) < 1e-14):
            raise ValueError("repeated vertices")
        crosses = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(crosses <= 0):
            raise ValueError("vertices must be strictly convex in ccw order")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class Segment:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.size != 2 or b.size != 2:
            raise ValueError("segment is planar")
        if np.allclose(a, b):
            raise ValueError("endpoints must differ")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


ConvexBody = Union[Disk, Box, ConvexPolygon, Segment]


def _outline(body: ConvexBody) -> tuple[np.ndarray, float]:
    """The body as (vertices, r): a convex polygon of k >= 1 ccw vertices,
    shape (k, 2), dilated by a disk of radius r."""
    if isinstance(body, Disk):
        return body.center.reshape(1, 2), body.radius
    if isinstance(body, Segment):
        return np.stack([body.a, body.b]), 0.0
    if isinstance(body, Box):
        (x0, y0), (x1, y1) = body.lo, body.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]), 0.0
    return body.vertices, 0.0


def _edges(v: np.ndarray) -> list:
    """The walk around the outline polygon ``v``: per edge (a, b), its outward
    unit normal and the angles phi0 <= phi1 of the corner arc at b, which
    turns from this edge's normal to the next one's.  A single vertex has no
    edge (normal None) and a full-turn arc."""
    if v.shape[0] == 1:
        return [(v[0], v[0], None, 0.0, 2.0 * math.pi)]
    ends = np.roll(v, -1, axis=0)
    e = ends - v
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    phi = [math.atan2(y, x) for x, y in nrm]
    return [(a, b, n, phi0, phi1 + 2.0 * math.pi if phi1 < phi0 else phi1)
            for a, b, n, phi0, phi1 in zip(v, ends, nrm, phi, np.roll(phi, -1))]


def distance(body: ConvexBody, pts) -> np.ndarray:
    """Euclidean distance from each row of ``pts`` to the body (0 inside)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    v, r = _outline(body)
    k = v.shape[0]
    if k == 1:
        d = np.linalg.norm(pts - v[0], axis=1)
    else:
        inside = np.full(pts.shape[0], k > 2)
        d2 = np.full(pts.shape[0], np.inf)
        x, y = pts[:, 0], pts[:, 1]
        # the two edges of a segment are one set of points: walk it once
        for a, b in zip(v[:1] if k == 2 else v, np.roll(v, -1, axis=0)):
            e = b - a
            rel = pts - a
            inside &= e[0] * rel[:, 1] - e[1] * rel[:, 0] >= 0
            along = np.clip(rel @ e / (e @ e), 0.0, 1.0)  # the nearest point of the edge is a + along e
            gx, gy = x - (a[0] + along * e[0]), y - (a[1] + along * e[1])
            d2 = np.minimum(d2, gx * gx + gy * gy)
        d = np.where(inside, 0.0, np.sqrt(d2))
    return np.maximum(d - r, 0.0)


def parallel_region(body: ConvexBody, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Membership in the parallel set K_t: an (N, 2) point array -> dist(K, x) <= t."""
    return lambda pts: distance(body, pts) <= t


def _polygon_perimeter(v: np.ndarray) -> float:
    return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())


def area(body: ConvexBody) -> float:
    """Lebesgue measure of the body (0 for a segment): Steiner's polynomial
    of the outline polygon at r."""
    v, r = _outline(body)
    x, y = v[:, 0], v[:, 1]
    # the shoelace sum of 1 or 2 vertices is 0, but the fused multiply-adds of a dot need not cancel
    polygon = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) if len(v) > 2 else 0.0
    return polygon + _polygon_perimeter(v) * r + math.pi * r * r


def perimeter(body: ConvexBody) -> float:
    """Boundary length, both sides of a segment counted (2L)."""
    v, r = _outline(body)
    return _polygon_perimeter(v) + 2.0 * math.pi * r


def steiner_mass(body: ConvexBody, t: float) -> float:
    """Exact measure of the parallel set at distance t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return area(body) + perimeter(body) * t + math.pi * t * t


def bounding_box(body: ConvexBody, pad: float = 0.0) -> np.ndarray:
    v, r = _outline(body)
    return np.stack([v.min(axis=0) - r - pad, v.max(axis=0) + r + pad], axis=1)


# -- smooth patches covering the parallel set ---------------------------------


def _affine_patch(p0, e1, e2, n):
    x, w = _gl_nodes(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    U, V = np.meshgrid(u, u, indexing="ij")
    pts = p0 + U.ravel()[:, None] * e1 + V.ravel()[:, None] * e2
    return pts, np.outer(wu, wu).ravel() * jac


def _sector_patch(center, rho0, rho1, phi0, phi1, n):
    x, w = _gl_nodes(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    phi = phi0 + u * (phi1 - phi0)
    rho = rho0 + u * (rho1 - rho0)
    P, R = np.meshgrid(phi, rho, indexing="ij")
    pts = np.stack([center[0] + R * np.cos(P), center[1] + R * np.sin(P)], axis=-1).reshape(-1, 2)
    wts = (np.outer(wu, wu) * (phi1 - phi0) * (rho1 - rho0) * R).ravel()
    return pts, wts


def _triangle_patch(a, b, c, n):
    x, w = _gl_nodes(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    jac2 = abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
    pts = a + U.ravel()[:, None] * (
        (1 - V.ravel())[:, None] * (b - a) + V.ravel()[:, None] * (c - a)
    )
    return pts, (np.outer(wu, wu) * U).ravel() * jac2


def _parallel_patches(body: ConvexBody, t: float, n: int):
    """Smooth patches whose union is K_t: the outline polygon's triangles about
    its centroid, then per edge the rectangle out to offset s = r + t and the
    sector of radius s at the edge's second end."""
    v, r = _outline(body)
    s = r + t
    walk = _edges(v)
    centroid = v.mean(axis=0)
    patches = [_triangle_patch(centroid, a, b, n) for a, b, *_ in walk] if len(v) > 2 else []
    if s > 0:
        for a, b, nrm, phi0, phi1 in walk:
            if nrm is not None:
                patches.append(_affine_patch(a, b - a, s * nrm, n))
            patches.append(_sector_patch(b, 0.0, s, phi0, phi1, n))
    return patches


def _eval_points(f, pts: np.ndarray) -> np.ndarray:
    """``f`` on the (n, dim) node array; its values must have shape (n,)."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise TypeError(f"integrand must map points of shape {pts.shape} to values of shape "
                        f"({pts.shape[0]},), got shape {vals.shape}")
    return vals


def integrate_parallel(body: ConvexBody, t: float, f, npoints: int = 32) -> float:
    """Integral of ``f`` over the parallel set via smooth-patch Gauss-Legendre."""
    total = 0.0
    for pts, wts in _parallel_patches(body, t, npoints):
        total += float(np.dot(wts, _eval_points(f, pts)))
    return total


def parallel_mass(body: ConvexBody, t: float, h=None, tol: float = 1e-9) -> float:
    """Integral of h over K_t; exact Steiner value for h = 1."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if h is None:
        return steiner_mass(body, t)
    coarse = integrate_parallel(body, t, h, npoints=16)
    fine = integrate_parallel(body, t, h, npoints=32)
    if abs(fine - coarse) > max(tol, 1e-14):
        raise QuadratureError(
            f"patch quadrature not converged: |{fine} - {coarse}| > {tol}"
        )
    return fine


# -- boundary quadrature -------------------------------------------------------


def _line_nodes(p0, p1, n):
    x, w = _gl_nodes(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    pts = p0 + u[:, None] * (p1 - p0)
    return pts, wu * float(np.linalg.norm(p1 - p0))


def _arc_nodes(center, radius, phi0, phi1, n):
    x, w = _gl_nodes(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    phi = phi0 + u * (phi1 - phi0)
    pts = np.stack([center[0] + radius * np.cos(phi), center[1] + radius * np.sin(phi)], axis=1)
    return pts, wu * radius * (phi1 - phi0)


def boundary_nodes(body: ConvexBody, t: float, npoints: int = 32):
    """Quadrature nodes and weights on the boundary of K_t: per edge, the edge
    offset by s = r + t, then the corner arc at its second end; the full turn
    of a single vertex is cut into four quarter turns."""
    v, r = _outline(body)
    s = r + t
    out = []
    for a, b, nrm, phi0, phi1 in _edges(v):
        if nrm is not None:
            out.append(_line_nodes(a + s * nrm, b + s * nrm, npoints))
        if s > 0:
            cuts = np.linspace(phi0, phi1, 2 if nrm is not None else 5)
            out += [_arc_nodes(b, s, lo, hi, npoints) for lo, hi in zip(cuts[:-1], cuts[1:])]
    pts = np.vstack([p for p, _ in out])
    wts = np.concatenate([w for _, w in out])
    return pts, wts


def boundary_integral(body: ConvexBody, t: float, f, npoints: int = 32) -> float:
    """Integral of f over the boundary of K_t by exact parameterization."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    pts, wts = boundary_nodes(body, t, npoints)
    return float(np.dot(wts, _eval_points(f, pts)))


@dataclass(frozen=True)
class SteinerCheck:
    fd_value: float
    boundary_value: float
    gap: float


def steiner_derivative_check(body: ConvexBody, f, t: float, delta: float = 1e-3,
                             npoints: int = 32) -> SteinerCheck:
    """Central difference of t -> integral of f over K_t against the boundary integral."""
    if t <= 0 or delta <= 0 or delta >= t:
        raise ValueError("need 0 < delta < t")
    fd = (integrate_parallel(body, t + delta, f, npoints)
          - integrate_parallel(body, t - delta, f, npoints)) / (2.0 * delta)
    bd = boundary_integral(body, t, f, npoints)
    return SteinerCheck(fd, bd, abs(fd - bd))


# -- Poisson / binomial derivative checks --------------------------------------


def intensity_on_parallel_set(body: ConvexBody, t: float, h=None,
                              sup_density: float = 1.0, scale: float = 1.0) -> IntensityMeasure:
    """Restriction of the density h (default 1) to K_t as an IntensityMeasure."""
    base = steiner_mass(body, t) if h is None else parallel_mass(body, t, h, tol=1e-9)
    region = parallel_region(body, t)
    if h is None:
        dens = None
    else:
        dens = lambda pts: np.asarray(h(pts), dtype=float)
    return IntensityMeasure(
        dim=2, bounds=bounding_box(body, pad=t), scale=scale, density=dens,
        sup_density=sup_density, contains=region, base_mass=base,
    )


def _finite_difference(t: float, delta: float) -> tuple[float, float, float]:
    """delta, clipped to t/2 for t > 0; the lower radius; the denominator
    (central difference for t > 0, one-sided at t = 0)."""
    if t > 0:
        delta = min(delta, t / 2.0)
        return delta, t - delta, 2.0 * delta
    return delta, 0.0, delta


def _weighted(nodes: tuple[np.ndarray, np.ndarray], h) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes, with their weights times the density h (1 if None)."""
    pts, wts = nodes
    return pts, wts if h is None else wts * np.asarray(h(pts), dtype=float)


@dataclass(frozen=True)
class CroftonReport:
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    z: float
    delta: float
    reps: int


def crofton_poisson_check(
    g: Statistic,
    body: ConvexBody,
    t: float,
    reps: int,
    rng: RngStream,
    h=None,
    sup_density: float = 1.0,
    delta: float = 1e-2,
    npoints: int = 32,
) -> CroftonReport:
    """Derivative in t of E g(eta_t) against the add-a-boundary-point integral.

    The finite difference couples the two radii by restriction: one sample on
    the larger parallel set, thinned to the smaller (the smaller intensity is
    a restriction of the larger, so the coupling is exact and removes most of
    the variance).  At t = 0 the boundary side runs over the body's own
    boundary, which for a segment is both of its sides (each inner point has
    two unit normals, as in ``perimeter``), and the difference is one-sided.
    Where K_t has mass 0, as for a segment at t = 0, every replicate of eta_t
    is empty, so the boundary side is evaluated exactly on one empty
    replicate, with standard error 0; otherwise it averages over a pool of
    min(reps, 5000) replicates of eta_t.  ``sup_density`` must bound h on the
    largest parallel set sampled, K_{t+delta}.
    """
    if g.bound is None:
        raise ValueError("the check requires a bounded statistic")
    if reps < 2:
        raise ValueError("need reps >= 2")
    if t < 0:
        raise ValueError("t must be nonnegative")
    delta, tminus, denom = _finite_difference(t, delta)
    mu_plus = intensity_on_parallel_set(body, t + delta, h, sup_density)
    region_minus = parallel_region(body, tminus)

    vals = np.concatenate([
        (g.replicate_values(blk) - g.replicate_values(blk.restricted(region_minus(blk.points)))) / denom
        for blk in poisson_blocks(mu_plus, reps, rng.substream(0))
    ])
    lhs, lhs_se = mean_stderr(vals)

    pts, wh = _weighted(boundary_nodes(body, t, npoints), h)
    mu_t = intensity_on_parallel_set(body, t, h, sup_density)
    if total_mass(mu_t) == 0.0:
        empty = ReplicateBlock(np.empty((0, 2)), np.zeros(2, dtype=np.int64), np.empty((1, 0, 2)))
        rhs, rhs_se = float(g.node_differences(empty, pts, wh)[0]), 0.0
    else:
        cvals = np.concatenate([g.node_differences(blk, pts, wh)
                                for blk in poisson_blocks(mu_t, min(reps, 5000), rng.substream(1))])
        rhs, rhs_se = mean_stderr(cvals)

    z = zscore(lhs - rhs, math.hypot(lhs_se, rhs_se))
    return CroftonReport(lhs, lhs_se, rhs, rhs_se, z, delta, reps)


def crofton_binomial_check(
    g: Statistic,
    body: ConvexBody,
    t: float,
    m: int,
    reps: int,
    rng: RngStream,
    h=None,
    sup_density: float = 1.0,
    delta: float = 1e-2,
    npoints: int = 32,
) -> CroftonReport:
    """Derivative in t of E g(xi_t^(m)) for the m-point binomial process.

    The two radii of the finite difference are sampled independently, each
    on its own stream; the boundary side pairs xi^(m) with its first m-1
    points, over a pool of min(reps, 5000) replicates.  ``sup_density`` must
    bound h on the largest parallel set sampled, K_{t+delta}.
    """
    if g.bound is None:
        raise ValueError("the check requires a bounded statistic")
    if reps < 2:
        raise ValueError("need reps >= 2")
    if m < 1:
        raise ValueError("need m >= 1")
    if area(body) <= 0 and t == 0.0:
        raise ValueError("binomial process needs positive mass at the base radius")
    delta, tminus, denom = _finite_difference(t, delta)

    def mean_g_at(radius: float, side: int) -> tuple[float, float]:
        mu = intensity_on_parallel_set(body, radius, h, sup_density)
        return mean_stderr(np.concatenate([g.replicate_values(blk)
                                           for blk in binomial_blocks(mu, m, reps, rng.substream(side))]))

    up, up_se = mean_g_at(t + delta, 0)
    down, down_se = mean_g_at(tminus, 1)
    lhs = (up - down) / denom
    lhs_se = math.hypot(up_se, down_se) / denom

    mu_t = intensity_on_parallel_set(body, t, h, sup_density)
    mass_t = total_mass(mu_t)
    pts, wh = _weighted(boundary_nodes(body, t, npoints), h)

    def boundary_sums(blk) -> np.ndarray:
        # each replicate's first m - 1 points against the whole replicate
        keep = np.ones(blk.points.shape[0], dtype=bool)
        keep[blk.offsets[1:] - 1] = False
        return g.node_differences(blk.restricted(keep), pts, wh, base=g.replicate_values(blk))

    cvals = np.concatenate([boundary_sums(blk)
                            for blk in binomial_blocks(mu_t, m, min(reps, 5000), rng.substream(2))])
    rhs, rhs_se = mean_stderr(cvals)
    rhs *= m / mass_t
    rhs_se *= m / mass_t

    z = zscore(lhs - rhs, math.hypot(lhs_se, rhs_se))
    return CroftonReport(lhs, lhs_se, rhs, rhs_se, z, delta, reps)
