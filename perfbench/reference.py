"""Independent references for the benchmark's checks.

Nothing here calls ``pivotal``: the references come from scipy's
distributions and special functions, from closed forms, or from the
benchmark's own enumeration and generating-function computations.
``scipy.stats`` is imported inside the functions, because it is only needed
after the timed rounds and would otherwise count towards set-up time and
peak memory.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# -- scipy distributions ---------------------------------------------------------


def binomial_tail_refs(n: int, k: int, p: float) -> tuple[float, float]:
    """P(Bin(n, p) >= k) from scipy.stats.binom and from the regularized incomplete beta."""
    from scipy import special, stats

    return float(stats.binom.sf(k - 1, n, p)), float(special.betainc(k, n - k + 1, p))


def negbin_refs(r: int, k: int, p: float) -> tuple[float, float, float, float]:
    """Binomial tail, beta integral, and the negative-binomial sums below and through k."""
    from scipy import special, stats

    return (float(stats.binom.sf(r - 1, k + r - 1, p)), float(special.betainc(r, k, p)),
            float(stats.nbinom.cdf(k - 1, r, p)), float(stats.nbinom.cdf(k, r, p)))


def poisson_sf(theta: float, k: int) -> float:
    """P(Poisson(theta) >= k)."""
    from scipy import stats

    return float(stats.poisson.sf(k - 1, theta))


def poisson_tail_refs(theta: float, k: int) -> tuple[float, float]:
    """P(Poisson(theta) >= k) from scipy.stats.poisson and as the regularized lower gamma P(k, theta)."""
    from scipy import special

    return poisson_sf(theta, k), float(special.gammainc(k, theta))


def erlang_refs(n: int, theta: float, x: float) -> float:
    """Erlang(n, rate theta) distribution function at x."""
    from scipy import special, stats

    cdf = float(stats.gamma.cdf(x, n, scale=1.0 / theta))
    if abs(cdf - float(special.gammainc(n, theta * x))) > 1e-14:
        raise ArithmeticError("scipy gamma.cdf and gammainc disagree")
    return cdf


def binomial_two_sided_p(count: float, n: int, p: float) -> float:
    """Exact two-sided binomial test p-value for ``count`` successes in ``n`` trials."""
    from scipy import stats

    k = int(round(count))
    if abs(count - k) > 1e-6 or not 0 <= k <= n:
        return 0.0
    return float(stats.binomtest(k, n, p).pvalue)


def ks_2samp_statistic(a, b) -> float:
    from scipy import stats

    return float(stats.ks_2samp(a, b).statistic)


def levy_ks_pvalue(samples, scale: float) -> float:
    """One-sample KS p-value of ``samples`` against the Levy law (stable, alpha = 1/2, on the half line)."""
    from scipy import stats

    return float(stats.kstest(samples, stats.levy(scale=scale).cdf).pvalue)


def levy_x_pdf(x: float, scale: float) -> float:
    """x f(x) for the Levy density f."""
    from scipy import stats

    return x * float(stats.levy.pdf(x, scale=scale))


def levy_pdf_plus_x_deriv(x: float, scale: float) -> float:
    """f(x) + x f'(x) for the Levy density, with f'/f = c/(2x^2) - 3/(2x)."""
    from scipy import stats

    f = float(stats.levy.pdf(x, scale=scale))
    return f + x * f * (scale / (2.0 * x * x) - 1.5 / x)


# -- closed forms ------------------------------------------------------------------


def series_truncation_bound(bound: float, y: float, kmax: int) -> float:
    """bound * sum_{k > kmax} y^k / k!, summed directly."""
    term = y ** (kmax + 1) / math.factorial(kmax + 1)
    total = 0.0
    k = kmax + 1
    while term > 1e-18 * max(total, 1e-300):
        total += term
        k += 1
        term *= y / k
    return bound * total


def crofton_binomial_target(m: int, t: float) -> float:
    """d/dt E[#points of the m-point binomial process on the unit disk grown by t
    that fall in the disk of radius 1/2] = d/dt m / (4 (1+t)^2)."""
    return -m / (2.0 * (1.0 + t) ** 3)


def area_perimeter(spec: tuple) -> tuple[float, float]:
    """Area and first Steiner coefficient (boundary length, a segment counted on both sides)."""
    kind = spec[0]
    if kind == "disk":
        r = spec[1]
        return math.pi * r * r, 2.0 * math.pi * r
    if kind == "box":
        w, h = spec[1], spec[2]
        return w * h, 2.0 * (w + h)
    if kind == "segment":
        return 0.0, 2.0 * spec[1]
    v = np.asarray(spec[1], dtype=float)
    nxt = np.roll(v, -1, axis=0)
    area = 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    return area, float(np.sum(np.hypot(*(nxt - v).T)))


def steiner_value(spec: tuple, t: float) -> float:
    """Area of the parallel set at distance t: A + P t + pi t^2."""
    a, p = area_perimeter(spec)
    return a + p * t + math.pi * t * t


def steiner_derivative(spec: tuple, t: float) -> float:
    """d/dt of the Steiner value: P + 2 pi t, the length of the offset boundary."""
    return area_perimeter(spec)[1] + 2.0 * math.pi * t


# -- own enumeration and generating functions --------------------------------------


def event_polynomial_values(event, thetas) -> tuple[np.ndarray, np.ndarray]:
    """P_theta(A) and its derivative, from the event's indicator on all 2^m outcomes.

    The popcount histogram of A gives P(t) = sum_j c_j t^j (1-t)^(m-j); it is
    expanded into integer monomial coefficients, differentiated term by term
    and evaluated exactly in rational arithmetic at each theta.
    """
    m = event.nbits
    idx = np.arange(1 << m)
    bits = ((idx[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    inside = np.asarray(event.indicator(bits), dtype=bool)
    counts = np.bincount(bits.sum(axis=1)[inside], minlength=m + 1)
    coeffs = [0] * (m + 1)
    for j, c in enumerate(counts.tolist()):
        for l in range(m - j + 1):
            coeffs[j + l] += c * (-1) ** l * math.comb(m - j, l)
    dcoeffs = [d * coeffs[d] for d in range(1, m + 1)]

    def horner(cs, t):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    ts = [Fraction(float(t)) for t in thetas]
    return (np.array([float(horner(coeffs, t)) for t in ts]),
            np.array([float(horner(dcoeffs, t)) for t in ts]))


def compound_poisson_pmf(theta: float, q, kmax: int, npoints: int = 256) -> np.ndarray:
    """Masses 0..kmax of the compound Poisson law with jump law q, by inverting
    the generating function exp(theta (Q(s) - 1)) on npoints roots of unity.

    Aliasing adds the masses at k + npoints, k + 2 npoints, ...; with theta <= 5
    and jumps <= 5 they are far below double precision, so the result is good
    to a few units of 1e-16 in absolute terms.
    """
    q = np.asarray(q, dtype=float)
    s = np.exp(2j * np.pi * np.arange(npoints) / npoints)
    gen = np.exp(theta * (np.polyval(q[::-1], s) - 1.0))
    return (np.fft.fft(gen).real / npoints)[: kmax + 1]
