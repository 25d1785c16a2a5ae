"""Perturbation series and Monte Carlo derivative estimators for Poisson functionals.

Every estimator derives one child stream per replicate from the supplied
:class:`~pivotal.rng.RngStream` and aggregates replicate values with NumPy's
fixed-order pairwise summation, so results depend only on the master seed and
the replicate count.  Each loop draws from one generator, rekeyed to every
child stream in turn (see :mod:`pivotal.rng`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .point_process import (
    IntensityMeasure,
    Statistic,
    iterated_difference,
    sample_binomial,
    sample_poisson,
    total_mass,
)
from .rng import RngStream, _rekey
from .summaries import mean_stderr


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    reps: int


def expectation_mc(g: Statistic, mu: IntensityMeasure, reps: int, rng: RngStream) -> MCEstimate:
    """Plain Monte Carlo estimate of E g(eta) for a Poisson process with mean measure mu."""
    if reps < 2:
        raise ValueError("need reps >= 2")
    vals = np.empty(reps)
    gen = rng.generator()
    for i in range(reps):
        vals[i] = g.value(sample_poisson(mu, _rekey(gen, rng.substream(i))))
    mean, se = mean_stderr(vals)
    return MCEstimate(mean, se, reps)


@dataclass(frozen=True)
class SeriesTerm:
    order: int
    weight: float  # theta^k / k! * nu(X)^k
    mean_difference: float  # MC estimate of the normalized k-fold difference integral
    stderr: float

    @property
    def contribution(self) -> float:
        return self.weight * self.mean_difference


@dataclass(frozen=True)
class PerturbationSeriesResult:
    estimate: float
    truncation_bound: float
    stderr: float
    base: MCEstimate
    terms: list[SeriesTerm]


def perturbation_series(
    g: Statistic,
    lam: IntensityMeasure,
    nu: IntensityMeasure,
    theta: float,
    kmax: int = 6,
    reps: int = 20000,
    *,
    rng: RngStream,
    nu_over_lambda_bound: float | None = None,
) -> PerturbationSeriesResult:
    """Expectation under the intensity lam + theta*nu expanded around lam.

    Each order-k term integrates the expected k-fold add-point difference of g
    against nu^k, estimated by sampling the k locations i.i.d. from the
    normalized nu and a fresh base process per replicate.  The reported
    truncation bound is M * sum_{k>kmax} (2|theta| nu_mass)^k / k! for the
    declared bound M of g.

    Negative ``theta`` is accepted only with a declared density-ratio bound
    sup(dnu/dlam) certifying that lam + theta*nu is still a measure.
    """
    if g.bound is None:
        raise ValueError("perturbation series requires a statistic with a declared bound")
    if theta > 1.0:
        raise ValueError("theta must lie in (-inf, 1]")
    if theta < 0.0:
        if nu_over_lambda_bound is None:
            raise ValueError("negative theta requires a certified bound on dnu/dlam")
        if abs(theta) * nu_over_lambda_bound > 1.0 + 1e-12:
            raise ValueError("lam + theta*nu is not a measure under the certified ratio bound")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")

    nu_mass = total_mass(nu)
    base = expectation_mc(g, lam, reps, rng.substream(0))
    terms: list[SeriesTerm] = []
    estimate = base.mean
    var = base.stderr**2
    for k in range(1, kmax + 1):
        sub = rng.substream(k)
        vals = np.empty(reps)
        gen = sub.generator()
        for i in range(reps):
            stream = sub.substream(i)
            zs = sample_binomial(nu, k, _rekey(gen, stream)).points
            eta = sample_poisson(lam, _rekey(gen, stream.substream(1)))
            vals[i] = iterated_difference(g, eta, zs)
        mean, se = mean_stderr(vals)
        weight = theta**k / math.factorial(k) * nu_mass**k
        terms.append(SeriesTerm(k, weight, mean, se))
        estimate += weight * mean
        var += (weight * se) ** 2

    y = 2.0 * abs(theta) * nu_mass
    partial = sum(y**k / math.factorial(k) for k in range(kmax + 1))
    truncation = g.bound * max(0.0, math.exp(y) - partial)
    return PerturbationSeriesResult(estimate, truncation, math.sqrt(var), base, terms)


@dataclass(frozen=True)
class DerivativeEstimate:
    estimate: float
    stderr: float
    reps: int
    # populated for event statistics: expected (+)- and (-)-pivotal measures
    nplus: float | None = None
    nplus_stderr: float | None = None
    nminus: float | None = None
    nminus_stderr: float | None = None


def derivative_location_estimator(
    g: Statistic, lam: IntensityMeasure, theta: float, reps: int, rng: RngStream
) -> DerivativeEstimate:
    """Estimate d/dtheta E g(eta_theta) by sampling pivotal locations.

    Draws z from the normalized lam and an independent process eta with mean
    measure theta*lam, and averages lam_mass * (g(eta + delta_z) - g(eta)).
    A fresh eta is drawn for every z (unbiasedness over variance reduction).
    For events the (+) and (-) parts are reported separately.
    """
    if reps < 2:
        raise ValueError("need reps >= 2")
    lam_mass = total_mass(lam)
    scaled = lam.scaled(theta)
    vals = np.empty(reps)
    plus = np.empty(reps) if g.is_event else None
    gen = rng.generator()
    for i in range(reps):
        stream = rng.substream(i)
        z = sample_binomial(lam, 1, _rekey(gen, stream)).points[0]
        eta = sample_poisson(scaled, _rekey(gen, stream.substream(1)))
        before = g.value(eta)
        after = g.value(eta.add_atom(z))
        vals[i] = lam_mass * (after - before)
        if plus is not None:
            plus[i] = lam_mass * (1.0 if (after == 1.0 and before == 0.0) else 0.0)
    mean, se = mean_stderr(vals)
    if plus is None:
        return DerivativeEstimate(mean, se, reps)
    minus = plus - vals  # N- contribution = N+ - signed value
    pm, pse = mean_stderr(plus)
    mm, mse = mean_stderr(minus)
    return DerivativeEstimate(mean, se, reps, pm, pse, mm, mse)


@dataclass(frozen=True)
class PivotalPointEstimate:
    """Expected number of (+)-pivotal points, estimated from the process points.

    ``estimate`` removes a point (eta - delta_z not in A); the companion
    ``added_atom_estimate`` evaluates the add-a-duplicate variant of the same
    sum for side-by-side comparison.
    """

    estimate: float
    stderr: float
    added_atom_estimate: float
    added_atom_stderr: float
    reps: int


def derivative_point_estimator(
    g: Statistic, lam: IntensityMeasure, theta: float, reps: int, rng: RngStream
) -> PivotalPointEstimate:
    """Estimate E N+ as (1/theta) E sum over points z of 1{eta in A, eta - delta_z not in A}."""
    if reps < 2:
        raise ValueError("need reps >= 2")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not g.is_event:
        raise ValueError("pivotal-point estimation applies to event statistics")
    scaled = lam.scaled(theta)
    removed = np.empty(reps)
    added = np.empty(reps)
    gen = rng.generator()
    for i in range(reps):
        eta = sample_poisson(scaled, _rekey(gen, rng.substream(i)))
        r = a = 0.0
        if g.value(eta) == 1.0:
            for j in range(len(eta)):
                if g.value(eta.without_index(j)) == 0.0:
                    r += 1.0
                if g.value(eta.add_atom(eta.points[j])) == 0.0:
                    a += 1.0
        removed[i] = r / theta
        added[i] = a / theta
    rm, rse = mean_stderr(removed)
    am, ase = mean_stderr(added)
    return PivotalPointEstimate(rm, rse, am, ase, reps)


def higher_derivative_estimator(
    g: Statistic, lam: IntensityMeasure, theta: float, k: int, reps: int, rng: RngStream
) -> MCEstimate:
    """MC estimate of the k-th theta-derivative of E g(eta_theta)."""
    if reps < 2:
        raise ValueError("need reps >= 2")
    if not 1 <= k <= 10:
        raise ValueError("need 1 <= k <= 10")
    lam_mass = total_mass(lam)
    scaled = lam.scaled(theta)
    vals = np.empty(reps)
    gen = rng.generator()
    for i in range(reps):
        stream = rng.substream(i)
        zs = sample_binomial(lam, k, _rekey(gen, stream)).points
        eta = sample_poisson(scaled, _rekey(gen, stream.substream(1)))
        vals[i] = lam_mass**k * iterated_difference(g, eta, zs)
    mean, se = mean_stderr(vals)
    return MCEstimate(mean, se, reps)
