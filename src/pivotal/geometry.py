"""Convex bodies, parallel sets, boundary quadrature, and derivative checks for
expectations of point-process functionals on expanding domains.

Supported shapes: disk and axis-aligned box (dimension 2 or 3), strictly
convex ccw polygon and segment (dimension 2).  All offset boundaries are
parameterized exactly (lines, circular arcs, sphere), and integrals over
parallel sets are assembled from smooth patches so no indicator function is
ever fed to a quadrature rule.  Integrands take an (n, dim) point array and
return n values; any other shape raises TypeError.

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
    PointConfiguration,
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
        if c.size not in (2, 3):
            raise ValueError("disk supports dimension 2 or 3")


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.size != hi.size or lo.size not in (2, 3):
            raise ValueError("box supports dimension 2 or 3")
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


def body_dim(body: ConvexBody) -> int:
    if isinstance(body, Disk):
        return body.center.size
    if isinstance(body, Box):
        return body.lo.size
    return 2


def _box_polygon(box: Box) -> ConvexPolygon:
    (x0, y0), (x1, y1) = box.lo, box.hi
    return ConvexPolygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


def distance(body: ConvexBody, pts) -> np.ndarray:
    """Euclidean distance from each row of ``pts`` to the body (0 inside)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, Disk):
        return np.maximum(np.linalg.norm(pts - body.center, axis=1) - body.radius, 0.0)
    if isinstance(body, Box):
        gap = np.maximum(np.maximum(body.lo - pts, pts - body.hi), 0.0)
        return np.linalg.norm(gap, axis=1)
    if isinstance(body, Segment):
        return _segment_distance(body.a, body.b, pts)
    v = body.vertices
    k = v.shape[0]
    inside = np.ones(pts.shape[0], dtype=bool)
    dmin = np.full(pts.shape[0], np.inf)
    for i in range(k):
        a, b = v[i], v[(i + 1) % k]
        e = b - a
        rel = pts - a
        inside &= e[0] * rel[:, 1] - e[1] * rel[:, 0] >= 0
        dmin = np.minimum(dmin, _segment_distance(a, b, pts))
    return np.where(inside, 0.0, dmin)


def _segment_distance(a, b, pts) -> np.ndarray:
    e = b - a
    tpar = np.clip((pts - a) @ e / (e @ e), 0.0, 1.0)
    proj = a + tpar[:, None] * e
    return np.linalg.norm(pts - proj, axis=1)


def parallel_region(body: ConvexBody, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Membership in the parallel set K_t: an (N, d) point array -> dist(K, x) <= t."""
    return lambda pts: distance(body, pts) <= t


def area(body: ConvexBody) -> float:
    """Lebesgue measure of the body (volume in dimension 3; segments have 0)."""
    if isinstance(body, Disk):
        r = body.radius
        return math.pi * r * r if body.center.size == 2 else 4.0 / 3.0 * math.pi * r**3
    if isinstance(body, Box):
        return float(np.prod(body.hi - body.lo))
    if isinstance(body, Segment):
        return 0.0
    v = body.vertices
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def perimeter(body: ConvexBody) -> float:
    """First Steiner coefficient: boundary length in 2-D with both sides of a
    segment counted (2L), surface area in 3-D."""
    if isinstance(body, Disk):
        r = body.radius
        return 2.0 * math.pi * r if body.center.size == 2 else 4.0 * math.pi * r * r
    if isinstance(body, Box):
        sides = body.hi - body.lo
        if sides.size == 2:
            return 2.0 * float(sides.sum())
        a, b, c = sides
        return 2.0 * float(a * b + b * c + c * a)
    if isinstance(body, Segment):
        return 2.0 * float(np.linalg.norm(body.b - body.a))
    e = np.roll(body.vertices, -1, axis=0) - body.vertices
    return float(np.linalg.norm(e, axis=1).sum())


def steiner_mass(body: ConvexBody, t: float) -> float:
    """Exact measure of the parallel set at distance t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = body_dim(body)
    if n == 2:
        return area(body) + perimeter(body) * t + math.pi * t * t
    if isinstance(body, Disk):
        return 4.0 / 3.0 * math.pi * (body.radius + t) ** 3
    sides = body.hi - body.lo
    return (
        float(np.prod(sides))
        + 2.0 * float(sides[0] * sides[1] + sides[1] * sides[2] + sides[2] * sides[0]) * t
        + math.pi * t * t * float(sides.sum())
        + 4.0 / 3.0 * math.pi * t**3
    )


def bounding_box(body: ConvexBody, pad: float = 0.0) -> np.ndarray:
    if isinstance(body, Disk):
        lo, hi = body.center - body.radius, body.center + body.radius
    elif isinstance(body, Box):
        lo, hi = body.lo, body.hi
    elif isinstance(body, Segment):
        lo = np.minimum(body.a, body.b)
        hi = np.maximum(body.a, body.b)
    else:
        lo = body.vertices.min(axis=0)
        hi = body.vertices.max(axis=0)
    return np.stack([lo - pad, hi + pad], axis=1)


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


def _polygon_normals(v: np.ndarray) -> np.ndarray:
    e = np.roll(v, -1, axis=0) - v
    n = np.stack([e[:, 1], -e[:, 0]], axis=1)
    return n / np.linalg.norm(n, axis=1)[:, None]


def _parallel_patches(body: ConvexBody, t: float, n: int):
    """Smooth patches whose union is the parallel set K_t (2-D bodies only)."""
    if body_dim(body) != 2:
        raise NotImplementedError("patch quadrature is planar")
    patches = []
    if isinstance(body, Disk):
        patches.append(_sector_patch(body.center, 0.0, body.radius + t, 0.0, 2.0 * math.pi, n))
        return patches
    if isinstance(body, Box):
        body = _box_polygon(body)
    if isinstance(body, Segment):
        a, b = body.a, body.b
        e = b - a
        nrm = np.array([e[1], -e[0]]) / np.linalg.norm(e)
        if t > 0:
            patches.append(_affine_patch(a, e, t * nrm, n))
            patches.append(_affine_patch(a, e, -t * nrm, n))
            phi = math.atan2(nrm[1], nrm[0])
            patches.append(_sector_patch(b, 0.0, t, phi - math.pi, phi, n))
            patches.append(_sector_patch(a, 0.0, t, phi, phi + math.pi, n))
        return patches
    v = body.vertices
    k = v.shape[0]
    nrm = _polygon_normals(v)
    centroid = v.mean(axis=0)
    for i in range(k):
        patches.append(_triangle_patch(centroid, v[i], v[(i + 1) % k], n))
    if t > 0:
        for i in range(k):
            a, b = v[i], v[(i + 1) % k]
            patches.append(_affine_patch(a, b - a, t * nrm[i], n))
            # vertex sector at b, sweeping from normal i to normal i+1
            phi0 = math.atan2(nrm[i][1], nrm[i][0])
            phi1 = math.atan2(nrm[(i + 1) % k][1], nrm[(i + 1) % k][0])
            if phi1 < phi0:
                phi1 += 2.0 * math.pi
            patches.append(_sector_patch(b, 0.0, t, phi0, phi1, n))
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
    """Quadrature nodes and weights on the offset boundary (2-D)."""
    if body_dim(body) != 2:
        raise NotImplementedError("boundary parameterization is planar")
    if isinstance(body, Disk):
        out = [
            _arc_nodes(body.center, body.radius + t, q * math.pi / 2, (q + 1) * math.pi / 2, npoints)
            for q in range(4)
        ]
    elif isinstance(body, Segment):
        if t <= 0:
            raise ValueError("the offset boundary of a segment needs t > 0 "
                             "(the bare endpoints carry no length)")
        a, b = body.a, body.b
        e = b - a
        nrm = np.array([e[1], -e[0]]) / np.linalg.norm(e)
        phi = math.atan2(nrm[1], nrm[0])
        out = [
            _line_nodes(a + t * nrm, b + t * nrm, npoints),
            _line_nodes(b - t * nrm, a - t * nrm, npoints),
            _arc_nodes(b, t, phi - math.pi, phi, npoints),
            _arc_nodes(a, t, phi, phi + math.pi, npoints),
        ]
    else:
        poly = _box_polygon(body) if isinstance(body, Box) else body
        v = poly.vertices
        k = v.shape[0]
        nrm = _polygon_normals(v)
        out = []
        for i in range(k):
            a, b = v[i], v[(i + 1) % k]
            out.append(_line_nodes(a + t * nrm[i], b + t * nrm[i], npoints))
            if t > 0:
                phi0 = math.atan2(nrm[i][1], nrm[i][0])
                phi1 = math.atan2(nrm[(i + 1) % k][1], nrm[(i + 1) % k][0])
                if phi1 < phi0:
                    phi1 += 2.0 * math.pi
                out.append(_arc_nodes(b, t, phi0, phi1, npoints))
    pts = np.vstack([p for p, _ in out])
    wts = np.concatenate([w for _, w in out])
    return pts, wts


def segment_nodes(seg: Segment, npoints: int = 32):
    """Quadrature nodes on the bare segment itself (its doubly-covered boundary)."""
    return _line_nodes(seg.a, seg.b, npoints)


def boundary_integral(body: ConvexBody, t: float, f, npoints: int = 32) -> float:
    """Integral of f over the offset boundary by exact parameterization."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0 and isinstance(body, Segment):
        raise ValueError("segment at t = 0: endpoint boundary has measure zero")
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
    inner_reps: int | None = None,
    npoints: int = 32,
) -> CroftonReport:
    """Derivative in t of E g(eta_t) against the add-a-boundary-point integral.

    The finite difference couples the two radii by restriction: one sample on
    the larger parallel set, thinned to the smaller (the smaller intensity is
    a restriction of the larger, so the coupling is exact and removes most of
    the variance).  At t = 0 for a segment the boundary integral runs over the
    segment itself with weight 2 (each inner point has two unit normals) and
    the base process is empty almost surely.  ``sup_density`` must bound h on
    the largest parallel set sampled, K_{t+delta}.
    """
    if g.bound is None:
        raise ValueError("the check requires a bounded statistic")
    if reps < 2 or (inner_reps is not None and inner_reps < 2):
        raise ValueError("need reps >= 2 and inner_reps >= 2")
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

    if isinstance(body, Segment) and t == 0.0:
        pts, wh = _weighted(segment_nodes(body, npoints), h)
        empty = PointConfiguration.empty(2)
        g0 = g.value(empty)
        dvals = np.array([g.value(empty.add_atom(p)) - g0 for p in pts])
        rhs = 2.0 * float(np.dot(wh, dvals))
        rhs_se = 0.0
    else:
        pts, wh = _weighted(boundary_nodes(body, t, npoints), h)
        mu_t = intensity_on_parallel_set(body, t, h, sup_density)
        pool = inner_reps if inner_reps is not None else min(reps, 5000)
        cvals = np.concatenate([g.node_differences(blk, pts, wh)
                                for blk in poisson_blocks(mu_t, pool, rng.substream(1))])
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

    No coupling is available across radii (the sample distribution changes
    with t), so the finite difference uses independent samples on each side;
    the boundary side pairs xi^(m) with its first m-1 points.  ``sup_density``
    must bound h on the largest parallel set sampled, K_{t+delta}.
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
