"""Exact Margulis-Russo machinery for finite i.i.d. Bernoulli systems.

Events live on {0,1}^m with a common success probability.  For m <= 24 all
quantities (event probability as a polynomial in the success probability,
expected signed pivotal counts) are computed exactly by enumeration.  One
pass over the 2^m outcomes gives both: per popcount j, the number of outcomes
of A with j ones and the sums of N+ and N- over the outcomes with j ones.
The last event enumerated keeps these 3(m + 1) integers, held by weak
reference and matched by identity, so a run of calls on one event (its
polynomial, then its Russo derivative at each theta) enumerates it once.
The indicator must therefore stay a pure function of its input: one whose
closure is mutated between calls gets the sums of the old one.

The binomial and negative-binomial identity reports integrate the beta
kernel t^a (1-t)^b, a polynomial of degree a + b, over [0, p].  An N-point
Gauss-Legendre rule is exact for degree <= 2N - 1, so up to degree 127 the
integral takes the smallest cached rule (N = 8, 16, 32 or 64) that is exact
for the kernel: one call on N interior nodes, whose positive weighted sum
keeps the relative accuracy of a tail far below 1.  Above degree 127 the
kernel, analytic and unimodal, takes the composite 16-point rule anchored at
its peak on [0, p] (:func:`~pivotal.quadrature.peak_gauss_legendre`), so a
peak narrow against [0, p] is not missed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import GL_SIZES, gauss_legendre, peak_gauss_legendre, row_values
from .rng import RngStream

MAX_EXACT_BITS = 24


@dataclass(frozen=True)
class BooleanEvent:
    """An event A on {0,1}^nbits given by its indicator.

    ``indicator`` receives an (N, nbits) 0/1 matrix and returns (N,) booleans.
    """

    nbits: int
    indicator: Callable


def _popcount(idx: np.ndarray, m: int) -> np.ndarray:
    """Number of ones among the low m bits of each index, by m shift-and-mask adds."""
    pop = np.zeros_like(idx)
    for i in range(m):
        pop += (idx >> i) & 1
    return pop


def _bits_matrix(m: int, idx: np.ndarray) -> np.ndarray:
    return (idx[:, None] >> np.arange(m)[None, :] & 1).astype(np.uint8)


def truth_table(event: BooleanEvent) -> np.ndarray:
    """Indicator values on all 2^m outcomes, with purity spot checks."""
    m = event.nbits
    if m > MAX_EXACT_BITS:
        raise ValueError(f"exact enumeration capped at {MAX_EXACT_BITS} bits, got {m}")
    idx = np.arange(1 << m, dtype=np.int64)
    table = row_values(event.indicator, _bits_matrix(m, idx), "indicator", bool)
    # the indicator must be a pure function: re-evaluate a few outcomes
    probe = idx[:: max(1, (1 << m) // 8)][:8]
    again = row_values(event.indicator, _bits_matrix(m, probe), "indicator", bool)
    if not np.array_equal(table[probe], again):
        raise ValueError("indicator is not a pure function of its input")
    return table


def pivotal_counts(event: BooleanEvent, x) -> tuple[int, int]:
    """(+)- and (-)-pivotal coordinate counts of ``x`` for the event.

    Coordinate i is (+)-pivotal if setting it to 1 puts the outcome in A while
    setting it to 0 leaves A; (-)-pivotal is the reverse.
    """
    x = np.asarray(x)
    if x.shape != (event.nbits,):
        raise ValueError(f"expected a vector of {event.nbits} bits")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("every entry of x must be 0 or 1")
    x = x.astype(np.uint8)
    ups = np.tile(x, (event.nbits, 1))
    downs = ups.copy()
    ups[np.arange(event.nbits), np.arange(event.nbits)] = 1
    downs[np.arange(event.nbits), np.arange(event.nbits)] = 0
    in_up = row_values(event.indicator, ups, "indicator", bool)
    in_down = row_values(event.indicator, downs, "indicator", bool)
    nplus = int(np.count_nonzero(in_up & ~in_down))
    nminus = int(np.count_nonzero(in_down & ~in_up))
    return nplus, nminus


@dataclass(frozen=True)
class EventPolynomial:
    """P_theta(A) organized by popcount class: P(t) = sum_j counts[j] t^j (1-t)^(m-j).

    ``counts[j]`` is the number of outcomes of A with exactly j ones, so every
    contribution to P is nonnegative per (j, m-j) power pair and evaluation is
    cancellation-free.  ``coefficients`` are the exact monomial coefficients.
    ``probability`` and ``derivative`` raise ValueError for a theta outside
    [0, 1] (NaN included), scalar or array.
    """

    nbits: int
    counts: np.ndarray  # (m+1,) int64
    coefficients: np.ndarray  # (m+1,) float (exact integers below 2^53)

    def probability(self, theta):
        t = _success_probability(theta)[..., None]
        j = np.arange(self.nbits + 1)
        return (self.counts * t**j * (1.0 - t) ** (self.nbits - j)).sum(axis=-1)

    def derivative(self, theta):
        t = _success_probability(theta)[..., None]
        m = self.nbits
        j = np.arange(m + 1)
        up = self.counts * j * t ** np.maximum(j - 1, 0) * (1.0 - t) ** (m - j)
        down = self.counts * (m - j) * t**j * (1.0 - t) ** np.maximum(m - j - 1, 0)
        return (up - down).sum(axis=-1)


def _success_probability(theta) -> np.ndarray:
    """``theta`` as a float array; ValueError unless every entry lies in [0, 1]."""
    theta = np.asarray(theta, dtype=float)
    # NaN fails a Python comparison, and the array test checks finiteness
    # first, so NaN never reaches a NumPy comparison; the scalar test is the
    # cheap one because the Russo routes are called one theta at a time
    if theta.ndim == 0:
        ok = 0.0 <= float(theta) <= 1.0
    else:
        ok = bool(np.all(np.isfinite(theta))) and bool(np.all((theta >= 0.0) & (theta <= 1.0)))
    if not ok:
        raise ValueError("theta must lie in [0, 1]")
    return theta


def event_polynomial(event: BooleanEvent) -> EventPolynomial:
    m = event.nbits
    counts, _, _ = _popcount_sums(event)
    # exact integer expansion of sum_j c_j t^j (1-t)^(m-j)
    coeffs = [0] * (m + 1)
    for j in range(m + 1):
        c = int(counts[j])
        if c == 0:
            continue
        for l in range(m - j + 1):
            coeffs[j + l] += c * ((-1) ** l) * math.comb(m - j, l)
    return EventPolynomial(m, counts, np.array(coeffs, dtype=float))


# the last event enumerated: (weak reference to it, its popcount sums); it is
# replaced whole, so concurrent callers can at worst enumerate twice
_last_enumeration: tuple | None = None


def _popcount_sums(event: BooleanEvent) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per popcount j: the outcomes of A with j ones, and the sums of N+ and N-
    over all outcomes with j ones (exact integers, read-only arrays).

    The last event enumerated is answered without a new enumeration when it is
    the same object; a failed enumeration leaves nothing behind."""
    global _last_enumeration
    last = _last_enumeration
    if last is not None and last[0]() is event:
        return last[1]
    m = event.nbits
    table = truth_table(event)
    idx = np.arange(1 << m, dtype=np.int64)
    pop = _popcount(idx, m)
    counts = np.bincount(pop[table], minlength=m + 1)
    nplus = np.zeros(1 << m, dtype=np.int64)
    nminus = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        bit = 1 << i
        up = table[idx | bit]
        down = table[idx & ~bit]
        nplus += (up & ~down).astype(np.int64)
        nminus += (down & ~up).astype(np.int64)
    eplus = np.bincount(pop, weights=nplus, minlength=m + 1)
    eminus = np.bincount(pop, weights=nminus, minlength=m + 1)
    sums = (counts, eplus, eminus)
    for a in sums:
        a.flags.writeable = False
    _last_enumeration = (weakref.ref(event), sums)
    return sums


def russo_derivative(event: BooleanEvent, theta):
    """Exact E_theta[N+ - N-]; equals d/dtheta of the event probability."""
    plus, minus = russo_pivotal_expectations(event, theta)
    return plus - minus


def russo_pivotal_expectations(event: BooleanEvent, theta):
    """(E_theta N+, E_theta N-) by exact enumeration, done once for an array of
    thetas; a scalar theta gives two floats, each equal to the array entry.
    A theta outside [0, 1] (NaN included) raises ValueError."""
    theta = _success_probability(theta)
    m = event.nbits
    _, eplus, eminus = _popcount_sums(event)
    j = np.arange(m + 1)
    t = theta[..., None]
    w = (t**j * (1.0 - t) ** (m - j)).reshape(-1, m + 1)
    # one dot per theta: a matrix product would sum in a different order
    plus = np.array([np.dot(eplus, row) for row in w]).reshape(theta.shape)
    minus = np.array([np.dot(eminus, row) for row in w]).reshape(theta.shape)
    if theta.ndim == 0:
        return float(plus), float(minus)
    return plus, minus


# -- event builders ---------------------------------------------------------


def threshold_event(m: int, k: int) -> BooleanEvent:
    """A = {at least k of m bits are 1} (monotone)."""
    return BooleanEvent(m, lambda bits: bits.sum(axis=1) >= k)


def dnf_event(m: int, clauses: list[tuple[int, ...]]) -> BooleanEvent:
    """Monotone DNF: OR over clauses of AND over the clause's coordinates."""
    frozen = [np.asarray(c, dtype=int) for c in clauses]

    def indicator(bits):
        out = np.zeros(bits.shape[0], dtype=bool)
        for c in frozen:
            out |= bits[:, c].all(axis=1)
        return out

    return BooleanEvent(m, indicator)


def random_monotone_dnf(m: int, rng: RngStream) -> BooleanEvent:
    """A monotone DNF of 1 to 4 clauses, each of 1 to min(m, max(2, m // 2))
    distinct bits (1 <= m <= MAX_EXACT_BITS)."""
    if not 1 <= m <= MAX_EXACT_BITS:
        raise ValueError(f"a random monotone DNF needs 1 <= m <= {MAX_EXACT_BITS} bits, got {m}")
    gen = rng.generator()
    nclauses = int(gen.integers(1, 5))
    clauses = []
    for _ in range(nclauses):
        width = int(gen.integers(1, min(m, max(2, m // 2)) + 1))
        clauses.append(tuple(sorted(gen.choice(m, size=width, replace=False).tolist())))
    return dnf_event(m, clauses)


def random_event(m: int, rng: RngStream) -> BooleanEvent:
    """An arbitrary event drawn as a uniform random truth table (0 <= m <= MAX_EXACT_BITS)."""
    if not 0 <= m <= MAX_EXACT_BITS:
        raise ValueError(f"a random truth table needs 0 <= m <= {MAX_EXACT_BITS} bits, got {m}")
    gen = rng.generator()
    table = gen.random(1 << m) < 0.5
    weights = 1 << np.arange(m, dtype=np.int64)

    def indicator(bits):
        return table[bits.astype(np.int64) @ weights]

    return BooleanEvent(m, indicator)


# -- integral-representation reports ----------------------------------------


def _log_comb(n: int, j: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)


def binomial_pmf(n: int, p: float, j: int) -> float:
    """Mass at j; the binomial coefficient stays in the exponent, so large n cannot overflow."""
    if p == 0.0 or p == 1.0:
        return 1.0 if j == (n if p == 1.0 else 0) else 0.0
    return math.exp(_log_comb(n, j) + j * math.log(p) + (n - j) * math.log1p(-p))


def negbin_pmf(r: int, p: float, j: int) -> float:
    """Mass at j failures before the r-th success (r >= 1)."""
    if p == 0.0 or p == 1.0:
        return 1.0 if p == 1.0 and j == 0 else 0.0
    return math.exp(_log_comb(j + r - 1, j) + r * math.log(p) + j * math.log1p(-p))


def _beta_kernel(a: int, b: int, log_prefactor: float):
    """t -> exp(log_prefactor) * t^a * (1-t)^b on node arrays, with 0^0 = 1;
    the prefactor stays in the exponent, so large a + b cannot overflow.
    A power enters only when its exponent is nonzero, and t = 0 or 1 under a
    positive one gives exp(-inf) = 0."""

    def kernel(t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log = a * np.log(t) if a else np.zeros(np.shape(t))
            if b:
                log += b * np.log1p(-t)
        log += log_prefactor
        return np.exp(log)

    return kernel


def _beta_integral(a: int, b: int, log_prefactor: float, p: float) -> float:
    """Integral of ``_beta_kernel(a, b, log_prefactor)`` over [0, p]: exact
    Gauss-Legendre while some cached rule has 2N - 1 >= a + b; beyond, the
    composite rule anchored at the kernel's mode a / (a + b) at the spread of
    a Beta(a + 1, b + 1) law, or at p when the mode lies beyond it."""
    if p == 0.0:
        return 0.0
    kernel = _beta_kernel(a, b, log_prefactor)
    npoints = next((n for n in GL_SIZES if 2 * n - 1 >= a + b), None)
    if npoints is not None:
        return gauss_legendre(kernel, 0.0, p, npoints)
    sd = math.sqrt((a + 1) * (b + 1) / (a + b + 3)) / (a + b + 2)
    end_slope = a / p - b / (1.0 - p) if p < 1.0 else 0.0
    return peak_gauss_legendre(kernel, 0.0, p, a / (a + b), sd, end_slope)


@dataclass(frozen=True)
class BinomialIdentityReport:
    n: int
    k: int
    p: float
    tail: float  # P(Bin(n,p) >= k)
    integral: float  # incomplete-beta side
    gap: float


def identity_report_binomial(n: int, k: int, p: float) -> BinomialIdentityReport:
    """Binomial tail versus its incomplete-beta integral representation.

    The kernel t^(k-1) (1-t)^(n-k) has degree n - 1: for n <= 128 the integral
    is an exact Gauss-Legendre sum, for larger n the peak-anchored composite rule.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    tail = sum(binomial_pmf(n, p, j) for j in range(k, n + 1))
    integral = _beta_integral(k - 1, n - k, math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 1), p)
    return BinomialIdentityReport(n, k, p, tail, integral, abs(tail - integral))


@dataclass(frozen=True)
class NegBinIdentityReport:
    r: int
    k: int
    p: float
    binomial_tail: float  # P(Bin(k+r-1, p) >= r)
    integral: float
    gap: float
    nb_sum_below_k: float  # sum_{j<=k-1} NB(r,p;j) -- matches the integral
    nb_sum_through_k: float  # sum_{j<=k} NB(r,p;j) -- off by NB(r,p;k)
    gap_below_k: float
    gap_through_k: float


def identity_report_negbin(r: int, k: int, p: float) -> NegBinIdentityReport:
    """Negative-binomial identity report.

    Besides the binomial-tail formulation, both partial sums of the
    negative-binomial mass (up to k-1 and up to k) are reported against the
    integral: only the former matches, the latter exceeds it by NB(r,p;k).

    The kernel t^(r-1) (1-t)^(k-1) has degree r + k - 2: for r + k <= 129 the
    integral is an exact Gauss-Legendre sum, beyond it the peak-anchored
    composite rule.
    """
    if r < 1 or k < 1:
        raise ValueError("need r, k >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    n = k + r - 1
    tail = sum(binomial_pmf(n, p, j) for j in range(r, n + 1))
    integral = _beta_integral(r - 1, k - 1, math.lgamma(k + r) - math.lgamma(k) - math.lgamma(r), p)
    below = sum(negbin_pmf(r, p, j) for j in range(k))
    through = below + negbin_pmf(r, p, k)
    return NegBinIdentityReport(
        r, k, p, tail, integral, abs(tail - integral),
        below, through, abs(below - integral), abs(through - integral),
    )
