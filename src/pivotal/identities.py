"""Poisson, Erlang and compound-Poisson identities: closed forms, recursions, quadrature.

One gamma kernel integral carries the Poisson tail integral and both Erlang quadratures."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import peak_gauss_legendre


@dataclass(frozen=True, eq=False)
class LatticeDistribution:
    """A probability distribution on {0, 1, ..., len(probs)-1}."""

    probs: np.ndarray

    def __post_init__(self):
        q = np.array(self.probs, dtype=float)  # a copy, so the caller's array stays writeable
        q.flags.writeable = False
        object.__setattr__(self, "probs", q)
        if q.ndim != 1:
            raise ValueError(f"probabilities must be a 1-D array, got shape {q.shape}")
        # NaN fails both the sign test and the sum test below
        if not np.all(np.isfinite(q)):
            raise ValueError("probabilities must be finite")
        if np.any(q < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {q.sum()!r}, not 1")

    @staticmethod
    def delta(j: int) -> "LatticeDistribution":
        q = np.zeros(j + 1)
        q[j] = 1.0
        return LatticeDistribution(q)

    @staticmethod
    def uniform(values) -> "LatticeDistribution":
        values = list(values)
        q = np.zeros(max(values) + 1)
        for v in values:
            q[v] += 1.0 / len(values)
        return LatticeDistribution(q)

    def q(self, j: int) -> float:
        return float(self.probs[j]) if 0 <= j < self.probs.size else 0.0


def poisson_tail(theta: float, k: int) -> float:
    """P(Poisson(theta) >= k), summed from the mass next to k in log space.

    For k > theta the terms j >= k are summed upward from the mass at k;
    otherwise the masses j < k are summed downward from the mass at k - 1 and
    subtracted from 1, which keeps the relative accuracy because that head
    holds at most about half the mass.  Each branch scales its terms by the
    first one, taken as exp(j log theta - theta - lgamma(j + 1)), so neither
    exp(-theta) nor a factorial is ever formed alone.
    """
    if theta < 0 or k < 1:
        raise ValueError("need theta >= 0 and k >= 1")
    if theta == 0.0:
        return 0.0
    if k > theta:
        j = k
        term = acc = 1.0
        while term > 1e-17 * acc:
            j += 1
            term *= theta / j
            acc += term
        return math.exp(k * math.log(theta) - theta - math.lgamma(k + 1.0)) * acc
    term = acc = 1.0
    for j in range(k - 1, 0, -1):
        term *= j / theta
        acc += term
        if term <= 1e-17 * acc:
            break
    return 1.0 - math.exp((k - 1) * math.log(theta) - theta - math.lgamma(k)) * acc


def _xlogy(x: int, t: np.ndarray) -> np.ndarray:
    """x log t on a node array, 0 where x = 0 (so 0^0 = 1); log 0 = -inf, so
    t^x at t = 0 comes out as exp(-inf) = 0 without a warning."""
    if x == 0:
        return np.zeros(np.shape(t))
    with np.errstate(divide="ignore"):
        return x * np.log(t)


def _gamma_integral(n: int, rate: float, upper: float) -> float:
    """Integral of the gamma kernel rate^n t^(n-1) e^(-rate t) / (n-1)! over [0, upper]
    by :func:`~pivotal.quadrature.peak_gauss_legendre` anchored at its peak (n - 1)/rate,
    whose positive weighted sum keeps the relative accuracy of a tail far below 1."""
    log_rate = n * math.log(rate)
    lg = math.lgamma(n)

    def kernel(t: np.ndarray) -> np.ndarray:
        return np.exp(log_rate + _xlogy(n - 1, t) - rate * t - lg)  # value rate at t = 0 for n = 1

    return peak_gauss_legendre(kernel, 0.0, upper, (n - 1) / rate, math.sqrt(n) / rate, (n - 1) / upper - rate)


def poisson_tail_integral(theta: float, k: int) -> float:
    """P(Poisson(theta) >= k) as the integral of the gamma kernel
    t^(k-1) e^-t / (k-1)! over [0, theta]."""
    if theta < 0 or k < 1:
        raise ValueError("need theta >= 0 and k >= 1")
    if theta == 0.0:
        return 0.0
    return _gamma_integral(k, 1.0, theta)


def erlang_cdf(n: int, theta: float, x: float) -> tuple[float, float, float]:
    """Erlang distribution function three ways: the gamma kernel at rate theta
    over [0, x] (the density), at rate x over [0, theta] (the parameter
    integral), and the Poisson tail at theta*x."""
    if n < 1 or theta <= 0 or x < 0:
        raise ValueError("need n >= 1, theta > 0, x >= 0")
    if x == 0.0:
        return 0.0, 0.0, 0.0
    return _gamma_integral(n, theta, x), _gamma_integral(n, x, theta), poisson_tail(theta * x, n)


# -- compound Poisson ---------------------------------------------------------


def _start(log_mass: float) -> float:
    """exp(log_mass), the mass a compound-Poisson route starts from and is linear in;
    ValueError below the smallest normal float (log_mass below about -708), whose
    lost digits would pass to the result as a plausible wrong number."""
    mass = math.exp(log_mass)
    if mass < sys.float_info.min:
        raise ValueError(f"the starting mass exp({log_mass!r}) is below the smallest normal float")
    return mass


def cpois_pmf_direct(theta: float, q: LatticeDistribution, k: int) -> float:
    """Mass at k by the defining mixture: sum over n of Po(theta;n) * Q^(*n)(k).

    The sum stops once the Poisson tail bound (times the trivial bound 1 on
    convolution masses) drops below 1e-14 relative to the accumulated mass;
    convolution powers are built iteratively and truncated at argument k.
    When the jump law puts no mass at 0, Q^(*n)(k) vanishes for n > k and the
    sum is finite outright.  ValueError where exp(-theta) underflows (``_start``).
    """
    if k < 0:
        return 0.0
    probs = q.probs[: k + 1]
    conv = np.zeros(k + 1)
    conv[0] = 1.0  # Q^(*0) = delta_0
    term = _start(-theta)
    acc = term * conv[k]
    nmax = k if probs[0] == 0.0 else 1_000_000
    n = 0
    while n < nmax:
        n += 1
        conv = np.convolve(conv, probs)[: k + 1]
        term *= theta / n
        acc += term * conv[k]
        # P(Po > n) <= term * (theta/(n+1)) / (1 - theta/(n+2)), a geometric
        # bound once n exceeds theta; cancellation-free
        if n + 2 > theta:
            tail_bound = term * (theta / (n + 1)) / (1.0 - theta / (n + 2))
            if tail_bound <= 1e-14 * acc or tail_bound < 1e-280:
                break
    return acc


def cpois_pmf_panjer(theta: float, q: LatticeDistribution, k: int) -> float:
    """Mass at k by the Panjer recursion with p_0 = exp(-theta(1-q_0))."""
    return float(panjer_pmfs(theta, q, k)[k])


def panjer_pmfs(theta: float, q: LatticeDistribution, kmax: int) -> np.ndarray:
    """All masses p_0..p_kmax: p_k = (theta/k) * sum_i i q_i p_{k-i};
    ValueError where p_0 = exp(-theta(1-q_0)) underflows (``_start``)."""
    p = np.zeros(kmax + 1)
    p[0] = _start(-theta * (1.0 - q.q(0)))
    jq = np.arange(q.probs.size) * q.probs
    for k in range(1, kmax + 1):
        imax = min(k, q.probs.size - 1)
        if imax >= 1:
            p[k] = (theta / k) * float(np.dot(jq[1 : imax + 1], p[k - imax : k][::-1]))
    return p


def cpois_pmf_polyrec(theta: float, q: LatticeDistribution, k: int) -> float:
    """Mass at k via the polynomial coefficient recursion.

    With c_k(theta) = exp((1-q_0) theta) * mass_k(theta), c_0 = 1 and
    c_k = sum_{j<k} q_{k-j} * Integral_0^theta c_j(t) dt, a degree-k
    polynomial whose coefficients are accumulated exactly.  They shrink like
    1/n!: ValueError where one underflows, a range narrower than the one where
    the value is right (at q = (0, 1/2, 1/2), from k = 180 on, where theta = 120
    still gives 3e-14), and where exp(-theta(1-q_0)) does (``_start``).
    """
    if k < 0:
        return 0.0
    start = _start(-theta * (1.0 - q.q(0)))
    q_pad = np.zeros(k + 1)
    take = min(q.probs.size, k + 1)
    q_pad[:take] = q.probs[:take]
    # row j holds the coefficients of Integral_0^theta c_j(t) dt (degree j + 1)
    integ = np.zeros((k + 1, k + 2))
    integ[0, 1] = 1.0
    ck = np.array([1.0])
    try:
        with np.errstate(under="raise"):
            for kk in range(1, k + 1):
                ck = q_pad[kk:0:-1] @ integ[:kk, : kk + 1]
                integ[kk, 1 : kk + 2] = ck / np.arange(1, kk + 2)
    except FloatingPointError:
        raise ValueError(f"a polynomial coefficient underflows at k = {k}; use the direct sum or Panjer") from None
    value = 0.0
    for a in ck[::-1]:  # Horner
        value = value * theta + a
    return start * value


def _lattice_floor(x: float) -> int:
    return int(math.floor(x + 1e-12))


def cpois_cdf(theta: float, q: LatticeDistribution, x: float) -> float:
    """Distribution function of the compound sum at x (lattice support)."""
    if x < 0:
        return 0.0
    return float(panjer_pmfs(theta, q, _lattice_floor(x)).sum())


def cpois_cdf_ode_residual(theta: float, q: LatticeDistribution, x: float, delta: float) -> float:
    """Residual of the rate equation for the compound distribution function.

    Central difference in theta of F(theta, x) minus
    sum_z F(theta, x - z) q_z - F(theta, x); O(delta^2) plus roundoff.  Every
    F(theta, y) with y <= x sums the first floor(y) + 1 masses of one Panjer
    vector.
    """
    if not 0.0 < delta < theta:
        raise ValueError("need 0 < delta < theta")
    fd = (cpois_cdf(theta + delta, q, x) - cpois_cdf(theta - delta, q, x)) / (2.0 * delta)
    p = panjer_pmfs(theta, q, max(_lattice_floor(x), 0))

    def cdf(y: float) -> float:
        return float(p[: _lattice_floor(y) + 1].sum()) if y >= 0 else 0.0

    rhs = -cdf(x)
    for z in range(q.probs.size):
        if q.probs[z] > 0.0:
            rhs += q.probs[z] * cdf(x - z)
    return fd - rhs
