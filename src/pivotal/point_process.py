"""Finite point configurations, intensity measures, samplers, difference operators.

Configurations are finite counting measures on R^dim stored as point lists
(atoms with multiplicity by repetition).  ``dim == 0`` models a one-point
ground space, where a configuration is just a counter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import adaptive_simpson
from .rng import RngStream

MAX_ITERATED_DIFFERENCE = 20
_MAX_REJECTED_PROPOSALS = 1_000_000


class DeclarationError(RuntimeError):
    """A statistic or intensity measure broke a bound it declared."""


def _point_rows(points, dim: int) -> np.ndarray:
    """``points`` as a float (n, dim) array.

    On the one-point ground space (dim 0) a point has no coordinates, so the
    count is the number of rows of an (n, 0) array; any other empty input is
    no points.
    """
    pts = np.asarray(points, dtype=float)
    if dim:
        return pts.reshape(-1, dim)
    if pts.ndim == 2 and pts.shape[1] == 0:
        return pts
    if pts.size:
        raise ValueError("points of the one-point ground space have no coordinates")
    return np.empty((0, 0))


@dataclass(frozen=True)
class PointConfiguration:
    """A finite multiset of points in R^dim (the empty configuration is valid)."""

    dim: int
    points: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        pts = _point_rows(self.points, self.dim)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def _wrap(cls, dim: int, pts: np.ndarray) -> "PointConfiguration":
        """Wrap a float (n, dim) array the library built itself, skipping re-validation."""
        phi = object.__new__(cls)
        pts.setflags(write=False)
        phi.__dict__.update(dim=dim, points=pts)  # the frozen __setattr__ refuses
        return phi

    @staticmethod
    def empty(dim: int) -> "PointConfiguration":
        return PointConfiguration._wrap(dim, np.empty((0, dim)))

    @staticmethod
    def of(dim: int, points) -> "PointConfiguration":
        return PointConfiguration(dim, points)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def add_atom(self, z) -> "PointConfiguration":
        z = np.asarray(z, dtype=float).reshape(1, -1) if self.dim else np.empty((1, 0))
        if z.shape[1] != self.dim:
            raise ValueError(f"point has dimension {z.shape[1]}, expected {self.dim}")
        return PointConfiguration._wrap(self.dim, np.concatenate((self.points, z)))

    def add_atoms(self, zs) -> "PointConfiguration":
        zs = _point_rows(zs, self.dim)
        return PointConfiguration._wrap(self.dim, np.concatenate((self.points, zs)))

    def without_index(self, i: int) -> "PointConfiguration":
        return PointConfiguration._wrap(self.dim, np.delete(self.points, i, axis=0))

    def count_in(self, region: Callable[[np.ndarray], np.ndarray]) -> int:
        if len(self) == 0:
            return 0
        return int(np.count_nonzero(region(self.points)))

    def restrict(self, region: Callable[[np.ndarray], np.ndarray]) -> "PointConfiguration":
        if len(self) == 0:
            return self
        mask = np.asarray(region(self.points), dtype=bool)
        return PointConfiguration._wrap(self.dim, self.points[mask])


@dataclass(frozen=True)
class IntensityMeasure:
    """A measure theta * h(x) dx on a region given by a bounding box and membership test.

    ``sup_density`` is a required envelope (sup of h over the bounding box)
    used for rejection sampling; continuity of h alone does not provide it.
    ``base_mass`` may carry the exact unscaled mass for known shapes.
    """

    dim: int
    bounds: np.ndarray  # (dim, 2)
    scale: float = 1.0
    density: Callable[[np.ndarray], np.ndarray] | None = None
    sup_density: float = 1.0
    contains: Callable[[np.ndarray], np.ndarray] | None = None
    base_mass: float | None = None

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float).reshape(self.dim, 2)
        b.flags.writeable = False
        object.__setattr__(self, "bounds", b)
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if not math.isfinite(self.sup_density) or self.sup_density < 0:
            raise ValueError("sup_density must be a finite nonnegative envelope")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def box(bounds, scale: float = 1.0, density=None, sup_density: float = 1.0) -> "IntensityMeasure":
        b = np.asarray(bounds, dtype=float).reshape(-1, 2)
        base = float(np.prod(b[:, 1] - b[:, 0])) if density is None else None
        return IntensityMeasure(
            dim=b.shape[0], bounds=b, scale=scale, density=density,
            sup_density=sup_density, base_mass=base,
        )

    @staticmethod
    def unit_square(scale: float = 1.0) -> "IntensityMeasure":
        return IntensityMeasure.box([[0.0, 1.0], [0.0, 1.0]], scale=scale)

    @staticmethod
    def interval(a: float, b: float, scale: float = 1.0, density=None, sup_density: float = 1.0) -> "IntensityMeasure":
        return IntensityMeasure.box([[a, b]], scale=scale, density=density, sup_density=sup_density)

    @staticmethod
    def disk(center, radius: float, scale: float = 1.0) -> "IntensityMeasure":
        c = np.asarray(center, dtype=float)
        bounds = np.stack([c - radius, c + radius], axis=1)

        def inside(pts):
            return np.sum((pts - c) ** 2, axis=1) <= radius * radius

        return IntensityMeasure(
            dim=c.size, bounds=bounds, scale=scale, contains=inside,
            base_mass=math.pi * radius * radius if c.size == 2 else None,
        )

    @staticmethod
    def singleton(scale: float = 1.0, weight: float = 1.0) -> "IntensityMeasure":
        """One-point ground space (dim 0) carrying mass ``scale * weight``."""
        return IntensityMeasure(dim=0, bounds=np.empty((0, 2)), scale=scale, base_mass=weight)

    # -- operations --------------------------------------------------------

    def scaled(self, factor: float) -> "IntensityMeasure":
        return IntensityMeasure(
            dim=self.dim, bounds=self.bounds, scale=self.scale * factor,
            density=self.density, sup_density=self.sup_density,
            contains=self.contains, base_mass=self.base_mass,
        )

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        vals = np.ones(pts.shape[0]) if self.density is None else np.asarray(self.density(pts), dtype=float)
        if self.contains is not None:
            vals = np.where(np.asarray(self.contains(pts), dtype=bool), vals, 0.0)
        return vals

    def mass(self, tol: float = 1e-9) -> float:
        return total_mass(self, tol)


def total_mass(mu: IntensityMeasure, tol: float = 1e-9) -> float:
    """theta * integral of h over the region, exactly for known shapes else by quadrature."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if mu.base_mass is not None:
        return mu.scale * mu.base_mass
    if mu.dim == 0:
        return mu.scale  # singleton with default unit weight
    lo, hi = mu.bounds[:, 0], mu.bounds[:, 1]
    if mu.dim == 1:
        val = adaptive_simpson(lambda x: mu.density_at(x[:, None]), lo[0], hi[0], tol=tol)
    elif mu.dim == 2:

        def slice_integral(x: float) -> float:
            return adaptive_simpson(
                lambda y: mu.density_at(np.column_stack((np.full_like(y, x), y))),
                lo[1], hi[1], tol=tol / max(hi[0] - lo[0], 1.0) / 4.0,
            )

        val = adaptive_simpson(
            lambda xs: np.array([slice_integral(x) for x in xs]), lo[0], hi[0], tol=tol / 2.0
        )
    else:
        raise NotImplementedError("quadrature mass only for dim <= 2; supply base_mass")
    return mu.scale * val


def _sample_points(mu: IntensityMeasure, n: int, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. points with density h/int h via rejection from the bounding box.

    Raises DeclarationError when h exceeds ``sup_density`` at a proposal, or
    when ``_MAX_REJECTED_PROPOSALS`` proposals in a row are all rejected.
    """
    if n == 0 or mu.dim == 0:
        return np.empty((n, mu.dim))
    lo = mu.bounds[:, 0]
    span = mu.bounds[:, 1] - lo
    out = np.empty((n, mu.dim))
    got = 0
    rejected = 0
    plain = mu.density is None and mu.contains is None
    while got < n:
        m = max(n - got, 16)
        # the same draws and the same arithmetic as gen.uniform(lo, hi, (m, dim))
        pts = lo + span * gen.random((m, mu.dim))
        if plain:
            acc = pts
        else:
            u = gen.random(m) * mu.sup_density
            dens = mu.density_at(pts)
            if dens.max() > mu.sup_density:
                raise DeclarationError(
                    f"density {float(dens.max())!r} exceeds the declared sup_density {mu.sup_density!r}"
                )
            acc = pts[u < dens]
        rejected = rejected + m if acc.shape[0] == 0 else 0
        if rejected >= _MAX_REJECTED_PROPOSALS:
            raise DeclarationError(f"no proposal accepted in {rejected} draws from the bounding box")
        take = min(acc.shape[0], n - got)
        out[got : got + take] = acc[:take]
        got += take
    return out


def sample_poisson(mu: IntensityMeasure, rng: RngStream) -> PointConfiguration:
    """Draw a Poisson process with intensity measure ``mu``."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    m = total_mass(mu)
    if not math.isfinite(m):
        raise ValueError("total mass must be finite")
    n = int(gen.poisson(m)) if m > 0 else 0
    return PointConfiguration._wrap(mu.dim, _sample_points(mu, n, gen))


def sample_binomial(mu: IntensityMeasure, m: int, rng: RngStream) -> PointConfiguration:
    """Exactly ``m`` i.i.d. points with distribution mu / mass; m = 0 gives the null configuration."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return PointConfiguration.empty(mu.dim)
    if total_mass(mu) <= 0:
        raise ValueError("binomial sampling needs positive total mass")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return PointConfiguration._wrap(mu.dim, _sample_points(mu, m, gen))


@dataclass(frozen=True)
class Statistic:
    """A functional of point configurations, with optional boundedness metadata."""

    eval: Callable[[PointConfiguration], float]
    bound: float | None = None
    is_event: bool = False
    name: str = ""

    def value(self, phi: PointConfiguration) -> float:
        v = float(self.eval(phi))
        if self.bound is not None and not abs(v) <= self.bound + 1e-12:
            raise DeclarationError(f"declared bound {self.bound} violated: {v}")
        return v

    @property
    def is_bounded(self) -> bool:
        return self.bound is not None


def count_statistic() -> Statistic:
    return Statistic(eval=lambda phi: float(len(phi)), name="count")


def capped_count_statistic(cap: float) -> Statistic:
    return Statistic(eval=lambda phi: float(min(len(phi), cap)), bound=cap, name=f"count^{cap}")


def void_indicator(region, name: str = "void") -> Statistic:
    return Statistic(
        eval=lambda phi: 1.0 if phi.count_in(region) == 0 else 0.0,
        bound=1.0, is_event=True, name=name,
    )


def hit_indicator(region, k: int = 1, name: str = "at_least") -> Statistic:
    return Statistic(
        eval=lambda phi: 1.0 if phi.count_in(region) >= k else 0.0,
        bound=1.0, is_event=True, name=f"{name}_{k}",
    )


def count_event(k: int) -> Statistic:
    """Indicator of {total count >= k} (useful on the singleton ground space)."""
    return Statistic(eval=lambda phi: 1.0 if len(phi) >= k else 0.0,
                     bound=1.0, is_event=True, name=f"count>={k}")


def box_region(lo, hi) -> Callable[[np.ndarray], np.ndarray]:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def inside(pts: np.ndarray) -> np.ndarray:
        return np.logical_and.reduce((pts >= lo) & (pts <= hi), axis=1)

    return inside


def ball_region(center, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    c = np.asarray(center, dtype=float)
    r2 = radius * radius

    def inside(pts: np.ndarray) -> np.ndarray:
        return ((pts - c) ** 2).sum(axis=1) <= r2

    return inside


def difference(g: Statistic, phi: PointConfiguration, z) -> float:
    """Add-one-point difference g(phi + delta_z) - g(phi)."""
    return g.value(phi.add_atom(z)) - g.value(phi)


def iterated_difference(g: Statistic, phi: PointConfiguration, zs) -> float:
    """k-fold iterated difference via the inclusion-exclusion subset sum.

    Equals the inductive definition (one difference at a time) but needs no
    recursion state; costs 2^k evaluations of g.  Symmetric in ``zs``.
    """
    zs = _point_rows(zs, phi.dim)
    k = zs.shape[0]
    if k < 1:
        raise ValueError("need at least one point")
    if k > MAX_ITERATED_DIFFERENCE:
        raise ValueError(f"k={k} exceeds the configured maximum {MAX_ITERATED_DIFFERENCE}")
    signs, masks = _subsets(k)
    total = 0.0
    total += signs[0] * g.value(phi)  # row 0 is the empty subset
    for sign, sel in zip(signs[1:], masks[1:]):
        total += sign * g.value(phi.add_atoms(zs.compress(sel, axis=0)))
    return total


@functools.cache
def _subsets(k: int) -> tuple[tuple[float, ...], np.ndarray]:
    """Inclusion-exclusion signs and membership masks (2^k, k) of the subsets of
    range(k), in bitmask order; built once per k (2^k * k bytes)."""
    masks = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 == 1
    signs = tuple(-1.0 if (k - mask.bit_count()) % 2 else 1.0 for mask in range(1 << k))
    masks.flags.writeable = False
    return signs, masks
