"""Perturbation series and Monte Carlo derivative estimators for Poisson functionals.

The perturbation formula E_{lam + theta nu} g = sum over k >= 0 of theta^k / k!
times the integral of E D^k_{z_1...z_k} g(eta) against nu^k (Last and
Penrose, *Lectures on the Poisson Process*, 2017, ch. 19) has E g as its
k = 0 term.  So ``_differences`` estimates every order k >= 0 alike: the
k-fold add-point difference at Poisson replicates with k added points, where
order 0 is g itself.  ``expectation_mc`` is its order 0, the series is one
loop over k = 0..kmax whose result lists every order, order 0 first, in
``terms``, and the location and higher-order estimators are its orders
k >= 1 at the intensity theta * lam.

Every estimator draws its replicates from the block engine of
:mod:`pivotal.point_process`: side s of an estimator is the stream
``rng.substream(s)``, and block b of side s draws from
``rng.substream(s).substream(b)`` (replicate count per block fixed by the
mass and ``_BLOCK_POINTS``; added points, then counts, then points).
``expectation_mc``, the location, point and higher-order estimators use side
0 only; order k of ``perturbation_series`` uses side k, so its order 0 is
``expectation_mc`` on the same stream.  Replicate values are aggregated with
NumPy's fixed-order pairwise summation, so results depend only on the master
seed and the replicate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .point_process import MAX_ITERATED_DIFFERENCE, IntensityMeasure, Statistic, poisson_blocks, total_mass
from .rng import RngStream
from .summaries import mean_stderr


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    reps: int


def expectation_mc(g: Statistic, mu: IntensityMeasure, reps: int, rng: RngStream) -> MCEstimate:
    """Plain Monte Carlo estimate of E g(eta) for a Poisson process with mean
    measure mu: the mean of the order-0 differences, which are g itself."""
    return MCEstimate(*mean_stderr(_differences(g, mu, mu, 0, reps, rng.substream(0))), reps)


def _differences(g: Statistic, mu: IntensityMeasure, nu: IntensityMeasure, k: int, reps: int,
                 rng: RngStream) -> np.ndarray:
    """The k-fold difference of g at ``reps`` Poisson(mu) replicates, over k
    points drawn i.i.d. from nu / mass(nu) for each; k = 0 gives g."""
    if reps < 2:
        raise ValueError("need reps >= 2")
    return np.concatenate([g.differences(blk) for blk in poisson_blocks(mu, reps, rng, added=(nu, k))])


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
    terms: list[SeriesTerm]  # orders 0..kmax; order 0 estimates E g under lam


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
    if not 0 <= kmax <= MAX_ITERATED_DIFFERENCE:  # before any order is estimated
        raise ValueError(f"kmax must lie in [0, {MAX_ITERATED_DIFFERENCE}]")

    nu_mass = total_mass(nu)
    terms: list[SeriesTerm] = []
    estimate = var = 0.0
    for k in range(kmax + 1):
        mean, se = mean_stderr(_differences(g, lam, nu, k, reps, rng.substream(k)))
        weight = theta**k / math.factorial(k) * nu_mass**k
        terms.append(SeriesTerm(k, weight, mean, se))
        estimate += weight * mean
        var += (weight * se) ** 2

    y = 2.0 * abs(theta) * nu_mass
    partial = sum(y**k / math.factorial(k) for k in range(kmax + 1))
    truncation = g.bound * max(0.0, math.exp(y) - partial)
    return PerturbationSeriesResult(estimate, truncation, math.sqrt(var), terms)


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
    A fresh eta is drawn for every z (unbiasedness over variance reduction):
    this is the order-1 case of ``higher_derivative_estimator``, on the same
    draws.  For events the (+) and (-) parts are reported separately; z is
    (+)-pivotal where the difference is 1.
    """
    lam_mass = total_mass(lam)
    diffs = _differences(g, lam.scaled(theta), lam, 1, reps, rng.substream(0))
    vals = lam_mass * diffs
    mean, se = mean_stderr(vals)
    if not g.is_event:
        return DerivativeEstimate(mean, se, reps)
    plus = lam_mass * np.where(diffs == 1.0, 1.0, 0.0)
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
    removed, added = zip(*(g.pivotal_points(blk) for blk in poisson_blocks(lam.scaled(theta), reps, rng.substream(0))))
    rm, rse = mean_stderr(np.concatenate(removed) / theta)
    am, ase = mean_stderr(np.concatenate(added) / theta)
    return PivotalPointEstimate(rm, rse, am, ase, reps)


def higher_derivative_estimator(
    g: Statistic, lam: IntensityMeasure, theta: float, k: int, reps: int, rng: RngStream
) -> MCEstimate:
    """MC estimate of the k-th theta-derivative of E g(eta_theta)."""
    if not 1 <= k <= 10:
        raise ValueError("need 1 <= k <= 10")
    lam_mass = total_mass(lam)
    vals = lam_mass**k * _differences(g, lam.scaled(theta), lam, k, reps, rng.substream(0))
    mean, se = mean_stderr(vals)
    return MCEstimate(mean, se, reps)
