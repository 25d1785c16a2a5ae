"""Finite point configurations, intensity measures, samplers, difference operators.

Configurations are finite counting measures on R^dim stored as point lists
(atoms with multiplicity by repetition).  ``dim == 0`` models a one-point
ground space, where a configuration is just a counter.

Points are given as (n, dim) arrays, one row per point; an empty input is no
points, and any other shape raises ValueError.

Replicate engine: ``poisson_blocks`` and ``binomial_blocks`` draw the
configurations of ``reps`` replicates in blocks of consecutive replicates,
computing the mass once per call.  A block's replicate count is fixed by the
mean number of points per replicate n (the mass, or m, plus the k added
points) as ``max(1, _BLOCK_POINTS // (2 n + 1))``; only the last block is
shorter.  Block b draws from ``rng.substream(b)``, in this order: the k added
points of every replicate (i.i.d. from the normalized added measure), the
replicate counts (one Poisson draw per replicate; binomial counts are m and
draw nothing), then the configuration points of all its replicates, in
replicate order, by rejection from the bounding box.  A block of two or more
replicates holds on average at most ``_BLOCK_POINTS / 2`` configuration
points and at most ``_BLOCK_POINTS / 2`` added points; its Poisson total
exceeds ``_BLOCK_POINTS`` with probability below e^-3000 (Chernoff: the mean
is at most half the limit, and the limit is 2^14).  Only a block of one
replicate, of mean above ``_BLOCK_POINTS / 4``, can hold more, and it holds
the one configuration a replicate loop would hold anyway.  So memory stays
bounded whatever the replicate count.  The engine is the only sampler:
``sample_poisson`` and ``sample_binomial`` are the one replicate of a
one-replicate call, so they draw from ``rng.substream(0)`` in this layout.

Difference operator: ``iterated_difference`` is D^k_{z_1...z_k} g(phi) for
every k >= 0, one subset sum over the 2^k subsets of the added points; k = 0
gives g(phi) and ``difference`` is the k = 1 case.

Block protocol: estimators and checks evaluate a statistic g on a
``ReplicateBlock`` only through three ``Statistic`` methods: ``differences``
(the iterated add-point difference over the added points, so g at each
replicate of a block without added points), ``node_differences`` (weighted
add-point differences at fixed nodes) and ``pivotal_points``.  The engine's
blocks, and the blocks ``restricted`` from them, are read-only.  The
``Statistic`` defaults evaluate g configuration by configuration, once per
configuration.  ``node_differences`` and ``pivotal_points`` build a replicate's
configurations grown by one point (a node, or a copy of one of its points) or
thinned by one in read-only (chunk, n +/- 1, dim) arrays of at most
``_BLOCK_POINTS`` points (a larger configuration gets an array of its own); g
receives one row at a time, and a row stays valid after the call.  A
``CountFunctional``, g(phi) = f(phi(B_1), ..., phi(B_r)), overrides them with
closed forms in the region memberships of the points, a whole block at a time,
with the same values bit for bit.

Region counts: a region given to ``count_in`` must be a pure, row-wise
membership test, mapping an (n, dim) array to n booleans (another shape
raises TypeError).  ``box_region`` and ``ball_region`` raise ValueError on
points of another width than their own dimension.  A configuration memoises
each region's count, keyed by the region object, and the membership of its
points.  A configuration that ``node_differences`` or ``pivotal_points`` grows
or thins by one row stores no memo: each of its counts is two memo lookups,
its replicate's count plus or minus that row's membership in its replicate or
node set.  So g = phi.count_in(B), like ``CountFunctional.eval``, asks B once
per replicate and once per node set, never once per grown configuration, and
every count is the same exact integer as a fresh count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .quadrature import adaptive_simpson, row_values
from .rng import RngStream

MAX_ITERATED_DIFFERENCE = 20
_MAX_REJECTED_PROPOSALS = 1_000_000
_BLOCK_POINTS = 1 << 14  # most configuration points a replicate block holds
_MASS_TOL = 1e-9  # the default quadrature tolerance of total_mass, whose result is cached


class DeclarationError(RuntimeError):
    """A statistic or intensity measure broke a bound it declared."""


def _point_rows(points, dim: int) -> np.ndarray:
    """``points`` as a float (n, dim) array: an (n, dim) array, or an empty
    input for no points.  Any other shape raises ValueError, so a point of
    another dimension is never split into, or merged with, its neighbours.

    On the one-point ground space (dim 0) a point has no coordinates, so the
    count is the number of rows of an (n, 0) array.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2 and pts.shape[1] == dim:
        return pts
    if pts.ndim and pts.shape[0] == 0:
        return np.empty((0, dim))
    raise ValueError(f"points must be rows of {dim} coordinates, got an array of shape {pts.shape}")


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """A finite multiset of points in R^dim (the empty configuration is valid).

    A configuration that the ``Statistic`` defaults derive by one row records
    its parts ``(base, rows, j, sign)``: it is ``base`` with row j of ``rows``
    (a configuration without parts) added (sign 1) or left out (sign -1).
    """

    dim: int
    points: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        pts = np.array(_point_rows(self.points, self.dim))  # a copy: the caller's array stays writeable
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __reduce__(self):
        # pickle and copy rebuild the points alone, without the memo or the parts
        return PointConfiguration, (self.dim, self.points)

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

    def __len__(self) -> int:
        return self.points.shape[0]

    def add_atom(self, z) -> "PointConfiguration":
        return self.add_atoms(np.reshape(z, (1, -1)))

    def add_atoms(self, zs) -> "PointConfiguration":
        zs = _point_rows(zs, self.dim)
        return PointConfiguration._wrap(self.dim, np.concatenate((self.points, zs)))

    def count_in(self, region: Callable[[np.ndarray], np.ndarray]) -> int:
        """The number of points in ``region``, a pure row-wise membership test
        mapping an (n, dim) array to n booleans (another shape raises TypeError),
        memoised per region object as the module docstring says."""
        parts = self.__dict__.get("_parts")
        if parts is None:
            return self._region(region)[2]
        base, rows, j, sign = parts
        return base._region(region)[2] + sign * rows._region(region)[1].item(j)

    def _region(self, region) -> tuple:
        """(region, membership, count), memoised; the entry holds the region,
        so no other object takes its id while the entry lives."""
        memo = self.__dict__.setdefault("_memo", {})
        entry = memo.get(id(region))
        if entry is None:
            inside = _inside(region, self.points)
            entry = memo[id(region)] = (region, inside, int(np.count_nonzero(inside)))
        return entry


@dataclass(frozen=True, eq=False)
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
        """Uniform on the ball about ``center`` in d = center.size dimensions; its mass is the ball's volume."""
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        c = np.asarray(center, dtype=float)
        d = c.size
        bounds = np.stack([c - radius, c + radius], axis=1)

        def inside(pts):
            return np.sum((pts - c) ** 2, axis=1) <= radius * radius

        return IntensityMeasure(
            dim=d, bounds=bounds, scale=scale, contains=inside,
            base_mass=math.pi * radius * radius if d == 2 else math.pi ** (d / 2) * radius**d / math.gamma(d / 2 + 1),
        )

    @staticmethod
    def singleton(scale: float = 1.0, weight: float = 1.0) -> "IntensityMeasure":
        """One-point ground space (dim 0) carrying mass ``scale * weight``."""
        return IntensityMeasure(dim=0, bounds=np.empty((0, 2)), scale=scale, base_mass=weight)

    # -- operations --------------------------------------------------------

    def scaled(self, factor: float) -> "IntensityMeasure":
        out = replace(self, scale=self.scale * factor)
        if "_unit_mass" in self.__dict__:  # the unscaled integral carries over
            out.__dict__["_unit_mass"] = self.__dict__["_unit_mass"]
        return out

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        """h on the rows of ``pts``, 0 outside ``contains``; both are asked through ``row_values``."""
        vals = np.ones(pts.shape[0]) if self.density is None else row_values(self.density, pts, "density")
        if self.contains is not None:
            vals = np.where(row_values(self.contains, pts, "region", bool), vals, 0.0)
        return vals

    @functools.cached_property
    def _unit_mass(self) -> float:
        """The unscaled quadrature mass at the default tolerance, integrated once."""
        return _integrate_density(self, _MASS_TOL)


def total_mass(mu: IntensityMeasure, tol: float = _MASS_TOL) -> float:
    """theta * integral of h over the region, exactly for known shapes else by quadrature.

    The quadrature at the default ``tol`` runs once per measure (and is
    shared by its ``scaled`` copies); any other ``tol`` integrates again.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if mu.base_mass is not None:
        return mu.scale * mu.base_mass
    if mu.dim == 0:
        return mu.scale  # singleton with default unit weight
    return mu.scale * (mu._unit_mass if tol == _MASS_TOL else _integrate_density(mu, tol))


def _integrate_density(mu: IntensityMeasure, tol: float) -> float:
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
    return val


def _sample_points(mu: IntensityMeasure, n: int, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. points with density h/int h via rejection from the bounding box.

    Raises DeclarationError when h exceeds ``sup_density`` at a proposal, or
    when ``_MAX_REJECTED_PROPOSALS`` proposals in a row are all rejected.
    """
    if n == 0 or mu.dim == 0:
        return np.empty((n, mu.dim))
    lo = mu.bounds[:, 0]
    span = mu.bounds[:, 1] - lo
    if mu.density is None and mu.contains is None:
        # every proposal is accepted: one draw of max(n, 16) rows, as the rejection loop draws
        pts = gen.random((max(n, 16), mu.dim))
        pts *= span
        pts += lo
        return pts[:n]
    out = np.empty((n, mu.dim))
    got = 0
    rejected = 0
    while got < n:
        m = max(n - got, 16)
        # the same draws and the same arithmetic as gen.uniform(lo, hi, (m, dim))
        pts = lo + span * gen.random((m, mu.dim))
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
    """A Poisson process with intensity measure ``mu``: the one replicate of
    ``poisson_blocks(mu, 1, rng)``, drawn from ``rng.substream(0)``."""
    return next(poisson_blocks(mu, 1, rng)).configuration(0)


def sample_binomial(mu: IntensityMeasure, m: int, rng: RngStream) -> PointConfiguration:
    """Exactly ``m`` i.i.d. points with distribution mu / mass: the one
    replicate of ``binomial_blocks(mu, m, 1, rng)``, drawn from ``rng.substream(0)``."""
    return next(binomial_blocks(mu, m, 1, rng)).configuration(0)


def poisson_blocks(mu: IntensityMeasure, reps: int, rng: RngStream,
                   added: tuple[IntensityMeasure, int] | None = None) -> Iterator["ReplicateBlock"]:
    """Poisson processes with intensity measure ``mu`` for ``reps`` replicates,
    in the blocks and draw order of the module docstring; ``added = (nu, k)``
    also gives each replicate k i.i.d. points from nu / mass(nu)."""
    mass = total_mass(mu)
    if not math.isfinite(mass):
        raise ValueError("total mass must be finite")
    if added is not None and added[1] and total_mass(added[0]) <= 0:
        raise ValueError("added points need positive total mass")

    def counts(gen: np.random.Generator, r: int) -> np.ndarray:
        return gen.poisson(mass, r) if mass > 0 else np.zeros(r, dtype=np.int64)

    return _blocks(mu, reps, rng, mass, counts, added or (mu, 0))


def binomial_blocks(mu: IntensityMeasure, m: int, reps: int, rng: RngStream) -> Iterator["ReplicateBlock"]:
    """``m`` i.i.d. points from mu / mass(mu) for each of ``reps`` replicates,
    in the blocks and draw order of the module docstring."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m and total_mass(mu) <= 0:
        raise ValueError("binomial sampling needs positive total mass")
    return _blocks(mu, reps, rng, m, lambda gen, r: np.full(r, m, dtype=np.int64), (mu, 0))


def _blocks(mu, reps, rng, mean_count, draw_counts, added) -> Iterator["ReplicateBlock"]:
    nu, k = added
    size = max(1, int(_BLOCK_POINTS // (2.0 * (mean_count + k) + 1.0)))
    for b, first in enumerate(range(0, reps, size)):
        r = min(size, reps - first)
        gen = rng.substream(b).generator()
        extra = _sample_points(nu, r * k, gen).reshape(r, k, mu.dim)
        offsets = np.concatenate(([0], np.cumsum(draw_counts(gen, r))))
        yield ReplicateBlock(*_read_only(_sample_points(mu, int(offsets[-1]), gen), offsets, extra))


@dataclass(frozen=True, eq=False)
class ReplicateBlock:
    """Configurations of consecutive replicates, concatenated (ragged)."""

    points: np.ndarray  # (n, dim)
    offsets: np.ndarray  # (reps + 1,): replicate i is points[offsets[i]:offsets[i + 1]]
    added: np.ndarray  # (reps, k, dim): the points added to each replicate

    @property
    def reps(self) -> int:
        return self.offsets.size - 1

    def configuration(self, i: int) -> PointConfiguration:
        """Replicate i as a configuration viewing the block's points."""
        return PointConfiguration._wrap(self.points.shape[1], self.points[self.offsets[i] : self.offsets[i + 1]])

    def restricted(self, keep: np.ndarray) -> "ReplicateBlock":
        """Each replicate's points where ``keep`` (one boolean per point) holds; the same added points."""
        keep = np.asarray(keep, dtype=bool)
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        return ReplicateBlock(*_read_only(self.points[keep], kept_before[self.offsets]), self.added)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only in place, so no write leaves a configuration's memoised count stale."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Statistic:
    """A functional of point configurations, with optional boundedness metadata;
    its block methods evaluate ``value`` configuration by configuration."""

    eval: Callable[[PointConfiguration], float]
    bound: float | None = None
    is_event: bool = False
    name: str = ""

    def value(self, phi: PointConfiguration) -> float:
        v = float(self.eval(phi))
        if self.bound is not None and not abs(v) <= self.bound + 1e-12:
            raise DeclarationError(f"declared bound {self.bound} violated: {v}")
        return v

    def differences(self, blk: ReplicateBlock) -> np.ndarray:
        """The iterated difference of g at each replicate, over its added
        points; g itself at a block without added points."""
        return np.array([iterated_difference(self, blk.configuration(i), blk.added[i]) for i in range(blk.reps)],
                        dtype=float)

    def node_differences(self, blk: ReplicateBlock, nodes: np.ndarray, weights: np.ndarray,
                         base: np.ndarray | None = None) -> np.ndarray:
        """For each replicate phi: the sum over nodes p, in node order, of
        w_p (g(phi + delta_p) - b), where b is the replicate's entry of ``base``,
        or g(phi) if ``base`` is None."""
        rows = PointConfiguration(blk.points.shape[1], nodes)
        value = self.value
        base = None if base is None else np.asarray(base, dtype=float).tolist()
        weights = np.asarray(weights, dtype=float).tolist()  # Python floats: the products of float64 scalars, faster
        acc = np.zeros(blk.reps)
        for i in range(blk.reps):
            phi = blk.configuration(i)
            s, b = 0.0, value(phi) if base is None else base[i]
            for psi, w in zip(_derived(phi, rows, _grown(phi.points, rows.points), 1), weights):
                s += w * (value(psi) - b)
            acc[i] = s
        return acc

    def pivotal_points(self, blk: ReplicateBlock) -> tuple[np.ndarray, np.ndarray]:
        """Per replicate with g = 1: the number of its points z with g(eta - delta_z) = 0,
        and with g(eta + delta_z) = 0 (a duplicate added); 0 where g = 0."""
        value = self.value
        r, a = np.zeros(blk.reps), np.zeros(blk.reps)
        for i in range(blk.reps):
            eta = blk.configuration(i)
            if value(eta) == 1.0:
                for fewer, more in zip(_derived(eta, eta, _thinned(eta.points), -1),
                                       _derived(eta, eta, _grown(eta.points, eta.points), 1)):
                    if value(fewer) == 0.0:
                        r[i] += 1.0
                    if value(more) == 0.0:
                        a[i] += 1.0
        return r, a


def _derived(base, rows, arrays: Iterator[np.ndarray], sign: int) -> Iterator[PointConfiguration]:
    """The configuration of the j-th read-only array of ``arrays``, with its
    parts ``(base, rows, j, sign)`` recorded, for each j in turn."""
    new, dim = object.__new__, base.dim
    for j, pts in enumerate(arrays):
        phi = new(PointConfiguration)
        d = phi.__dict__
        d["dim"], d["points"], d["_parts"] = dim, pts, (base, rows, j, sign)
        yield phi


def _grown(pts: np.ndarray, extra: np.ndarray) -> Iterator[np.ndarray]:
    """``pts`` followed by each row of ``extra`` in turn: the rows of read-only
    (chunk, n + 1, dim) arrays of at most ``_BLOCK_POINTS`` points (one row
    when a single configuration holds more)."""
    n, dim = pts.shape
    step = max(1, _BLOCK_POINTS // (n + 1))
    for j in range(0, extra.shape[0], step):
        chunk = extra[j : j + step]
        grown = np.empty((chunk.shape[0], n + 1, dim))
        grown[:, :n] = pts
        grown[:, n] = chunk
        grown.setflags(write=False)
        yield from grown


def _thinned(pts: np.ndarray) -> Iterator[np.ndarray]:
    """``pts`` without row j, for each j in turn: the rows of read-only
    (chunk, n - 1, dim) arrays of at most ``_BLOCK_POINTS`` points."""
    n = pts.shape[0]
    step = max(1, _BLOCK_POINTS // max(n - 1, 1))
    kept = np.arange(n - 1)
    for j in range(0, n, step):
        dropped = np.arange(j, min(j + step, n))[:, None]
        thinned = pts[kept + (kept >= dropped)]
        thinned.setflags(write=False)
        yield from thinned


class CountFunctional(Statistic):
    """g(phi) = f(phi(B_1), ..., phi(B_r)), a function of the point counts in r regions.

    ``regions`` are membership tests mapping an (n, dim) point array to n
    booleans, or None for the whole space.  ``f`` is vectorised: it maps an
    (N, r) integer array of counts, one row per configuration, to N values.
    Every batch of values is checked for that shape (TypeError) and against
    the declared ``bound`` (DeclarationError).  ``eval`` evaluates one
    configuration through the same ``f``, so wrapping it in a plain
    ``Statistic`` gives the default block methods, with the same values.
    """

    def __init__(self, regions, f: Callable[[np.ndarray], np.ndarray], bound: float | None = None,
                 is_event: bool = False, name: str = ""):
        regions = tuple(regions)

        def count_value(phi: PointConfiguration) -> float:
            return f(np.array([[len(phi) if b is None else phi.count_in(b) for b in regions]], dtype=np.int64))[0]

        super().__init__(count_value, bound, is_event, name)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "f", f)

    def counts(self, block: ReplicateBlock) -> np.ndarray:
        """(reps, r) region counts of the block's replicates."""
        return _replicate_sums(_memberships(self.regions, block.points), block.offsets)

    def values(self, counts: np.ndarray) -> np.ndarray:
        """f on an (N, r) array of counts, checked."""
        v = row_values(self.f, counts, "f")
        if self.bound is not None:
            bad = ~(np.abs(v) <= self.bound + 1e-12)
            if bad.any():
                raise DeclarationError(f"declared bound {self.bound} violated: {float(v[bad][0])}")
        return v

    def differences(self, blk: ReplicateBlock) -> np.ndarray:
        """With region counts C of a replicate and memberships M_i of its k added
        points: the sum over subsets S of (-1)^(k-|S|) f(C + sum over S of M_i),
        in the subset order of ``iterated_difference``."""
        reps, k, dim = blk.added.shape
        added = _memberships(self.regions, blk.added.reshape(reps * k, dim)).reshape(reps, k, len(self.regions))
        counts = self.counts(blk)
        signs, masks = _subsets(k)
        total = np.zeros(reps)
        for sign, sel in zip(signs, masks):
            total += sign * self.values(counts + added[:, sel].sum(axis=1))
        return total

    def node_differences(self, blk: ReplicateBlock, nodes: np.ndarray, weights: np.ndarray,
                         base: np.ndarray | None = None) -> np.ndarray:
        counts = self.counts(blk)
        base = self.values(counts) if base is None else base
        acc = np.zeros(blk.reps)
        for w, mem in zip(weights, _memberships(self.regions, _point_rows(nodes, blk.points.shape[1]))):
            acc += w * (self.values(counts + mem) - base)
        return acc

    def pivotal_points(self, blk: ReplicateBlock) -> tuple[np.ndarray, np.ndarray]:
        mem = _memberships(self.regions, blk.points)
        counts = _replicate_sums(mem, blk.offsets)
        owner = np.repeat(np.arange(blk.reps), np.diff(blk.offsets))
        held = self.values(counts)[owner] == 1.0
        around = counts[owner]
        r = np.bincount(owner, weights=held & (self.values(around - mem) == 0.0), minlength=blk.reps)
        a = np.bincount(owner, weights=held & (self.values(around + mem) == 0.0), minlength=blk.reps)
        return r, a


def _memberships(regions: tuple, pts: np.ndarray) -> np.ndarray:
    """(n, r) 0/1 integer array: point i lies in region j."""
    out = np.ones((pts.shape[0], len(regions)), dtype=np.int64)
    for j, region in enumerate(regions):
        if region is not None:
            out[:, j] = _inside(region, pts)
    return out


def _replicate_sums(mem: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(reps, r) sums of the membership rows of each replicate."""
    cum = np.zeros((mem.shape[0] + 1, mem.shape[1]), dtype=np.int64)
    np.cumsum(mem, axis=0, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def _inside(region, pts: np.ndarray) -> np.ndarray:
    """The n booleans of ``region`` on the n rows of ``pts`` (none asked for no
    rows); a region that answers in another shape raises TypeError."""
    if pts.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return row_values(region, pts, "region", bool)


def count_statistic() -> CountFunctional:
    return CountFunctional([None], lambda c: c[:, 0].astype(float), name="count")


def void_indicator(region, name: str = "void") -> CountFunctional:
    return CountFunctional([region], lambda c: (c[:, 0] == 0).astype(float),
                           bound=1.0, is_event=True, name=name)


def hit_indicator(region, k: int = 1, name: str = "at_least") -> CountFunctional:
    return CountFunctional([region], lambda c: (c[:, 0] >= k).astype(float),
                           bound=1.0, is_event=True, name=f"{name}_{k}")


def count_event(k: int) -> CountFunctional:
    """Indicator of {total count >= k} (useful on the singleton ground space)."""
    return CountFunctional([None], lambda c: (c[:, 0] >= k).astype(float),
                           bound=1.0, is_event=True, name=f"count>={k}")


def box_region(lo, hi) -> Callable[[np.ndarray], np.ndarray]:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    sides = tuple(zip(lo, hi))

    def inside(pts: np.ndarray) -> np.ndarray:
        pts = _point_rows(pts, len(sides))  # points of another width raise, never broadcast
        out = np.ones(pts.shape[0], dtype=bool)
        for k, (a, b) in enumerate(sides):
            col = pts[:, k]
            out &= col >= a
            out &= col <= b
        return out

    return inside


def ball_region(center, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    c = np.asarray(center, dtype=float)
    r2 = radius * radius

    def inside(pts: np.ndarray) -> np.ndarray:
        return ((_point_rows(pts, c.size) - c) ** 2).sum(axis=1) <= r2

    return inside


def difference(g: Statistic, phi: PointConfiguration, z) -> float:
    """Add-one-point difference g(phi + delta_z) - g(phi), the k = 1 case of
    ``iterated_difference``; ``z`` is the point's coordinates."""
    return iterated_difference(g, phi, np.reshape(z, (1, -1)))


def iterated_difference(g: Statistic, phi: PointConfiguration, zs) -> float:
    """D^k_{z_1...z_k} g(phi) for the k rows of ``zs``, any k >= 0; k = 0 gives g(phi).

    The inclusion-exclusion subset sum: over the subsets S of the points, in
    bitmask order, the sum of (-1)^(k-|S|) g(phi + sum over S of delta_z),
    phi itself for the empty subset and, for any other, one concatenation of
    phi's points and the rows of S.  Equals the inductive definition (one
    difference at a time) but needs no recursion state; costs 2^k
    evaluations of g.  Symmetric in ``zs``.
    """
    zs = _point_rows(zs, phi.dim)
    signs, masks = _subsets(zs.shape[0])
    total = 0.0
    for mask, sign in enumerate(signs):
        if mask:
            rows = zs.compress(masks[mask], axis=0)  # faster than boolean indexing for these few rows
            psi = PointConfiguration._wrap(phi.dim, np.concatenate((phi.points, rows)))
        else:
            psi = phi
        total += sign * g.value(psi)
    return total


@functools.cache
def _subsets(k: int) -> tuple[tuple[float, ...], np.ndarray]:
    """Inclusion-exclusion signs and membership masks (2^k, k) of the subsets of
    range(k), in bitmask order; built once per k (2^k * k bytes).  Every
    iterated difference takes its subsets here, so k is limited here."""
    if k > MAX_ITERATED_DIFFERENCE:
        raise ValueError(f"k={k} exceeds the configured maximum {MAX_ITERATED_DIFFERENCE}")
    masks = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 == 1
    signs = tuple(-1.0 if (k - mask.bit_count()) % 2 else 1.0 for mask in range(1 << k))
    masks.flags.writeable = False
    return signs, masks
