"""Quadrature kernels: Gauss-Legendre, adaptive Simpson, power-law singular integrals.

Row contract: the library calls each user function (integrand, region,
indicator, count functional) on an array of n rows through ``row_values``,
which raises ``TypeError`` unless n values come back; there is no
point-by-point retry.  Integrands take a 1-D node array (an (n, 2) point
array in ``geometry``), and ``integrand_values`` also raises
:class:`QuadratureError` on a non-finite value.  ``gauss_legendre_rule``
caches every Gauss-Legendre rule once, read-only, and ``panel_rule`` maps
it onto the panels between ascending cuts.

Adaptive Simpson refines breadth first.  Level d holds every interval still
live at depth d as arrays (endpoints, the three Simpson values, the coarse
estimate), evaluates the integrand once on all their half-interval
midpoints, and applies the same per-interval test |S2 - S1| <= 15 eps with
eps = tol / 2^(d-1) that a depth-first recursion applies at depth
d <= ``_MAX_DEPTH``.  The test of an interval depends only on its own
endpoints and values, never on the order in which intervals are visited, so
both orders reach the same leaves.  The value is then reduced bottom up,
each split interval taking the sum of its left and right child, which is the
recursion's own ``left + right`` summation tree: given the same integrand
values the result is the same to the bit, and so is the reported depth.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

GL_SIZES = (8, 16, 32, 64)  # the rules gauss_legendre accepts
_MAX_DEPTH = 40  # deepest level of adaptive_simpson
_PANEL_OFFSETS = np.arange(-45.0, 46.0)  # cuts of peak_gauss_legendre, in scales


class QuadratureError(RuntimeError):
    """Raised when a quadrature routine cannot meet its tolerance."""


@functools.cache
def gauss_legendre_rule(npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only npoints-point Gauss-Legendre nodes and weights on [-1, 1],
    computed once per size."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panel_rule(cuts: np.ndarray, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """The npoints-point rule on each nonempty panel [lo, hi] between ascending
    ``cuts``: the (panels, npoints) nodes lo + half + half * x and the panels'
    half-widths half; panel i's weights are half[i] * w, with (x, w) from
    ``gauss_legendre_rule(npoints)``."""
    lo, hi = cuts[:-1], cuts[1:]
    keep = hi > lo
    lo, half = lo[keep], 0.5 * (hi[keep] - lo[keep])
    x, _ = gauss_legendre_rule(npoints)
    return (lo + half)[:, None] + half[:, None] * x, half


def row_values(f: Callable, x: np.ndarray, what: str = "integrand", dtype=float) -> np.ndarray:
    """``f(x)`` as an array of ``dtype``; it must hold one value per row of ``x``."""
    vals = np.asarray(f(x), dtype=dtype)
    if vals.shape != (x.shape[0],):
        raise TypeError(
            f"{what} must map an array of shape {x.shape} to values of shape "
            f"({x.shape[0]},), got shape {vals.shape}"
        )
    return vals


def integrand_values(f: Callable, x: np.ndarray) -> np.ndarray:
    """``row_values`` of the integrand ``f``, which must also be finite."""
    vals = row_values(f, x)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise QuadratureError(f"non-finite integrand at x={x[bad][0].tolist()!r}")
    return vals


def gauss_legendre(f: Callable, a: float, b: float, npoints: int = 32) -> float:
    """Gauss-Legendre quadrature of ``f`` on ``[a, b]``.

    Exact for polynomials of degree <= 2*npoints - 1.  ``f`` is called once,
    on the (npoints,) array of nodes, and must return an array of that shape.

    Parameters
    ----------
    f : callable
        Integrand.
    a, b : float
        Interval endpoints, ``a < b``.
    npoints : int
        One of 8, 16, 32, 64.
    """
    if not a < b:
        raise ValueError("require a < b")
    if npoints not in GL_SIZES:
        raise ValueError(f"npoints must be one of {GL_SIZES}, got {npoints}")
    x, w = gauss_legendre_rule(npoints)
    y = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.dot(w, integrand_values(f, y)))


def _interleave(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """[left[0], right[0], left[1], right[1], ...]: the children of each split
    interval, in the order the recursion visits them."""
    out = np.empty(2 * left.size)
    out[0::2] = left
    out[1::2] = right
    return out


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    full_output: bool = False,
):
    """Adaptive Simpson quadrature with the standard |S2-S1|/15 error estimate.

    The refinement runs breadth first: each level calls ``f`` once, on the
    midpoints of the halves of every interval still live at that level (see
    the module docstring).  Returns the integral, or
    ``(integral, achieved_depth)`` when ``full_output`` is set.  Raises
    :class:`QuadratureError` on a non-finite integrand value, or if the
    intervals cut off at depth ``_MAX_DEPTH`` leave more than ``tol`` of unresolved
    error.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return (0.0, 0) if full_output else 0.0
    if a > b:
        raise ValueError("require a <= b")

    fa, fm, fb = integrand_values(f, np.array([a, 0.5 * (a + b), b]))
    x0, x2 = np.array([float(a)]), np.array([float(b)])
    f0, f1, f2 = np.array([fa]), np.array([fm]), np.array([fb])
    whole = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
    eps, depth = tol, 1
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (interval values, split mask)
    unconverged = 0.0  # error budget spent on intervals cut off at _MAX_DEPTH
    while True:
        n = x0.size
        x1 = 0.5 * (x0 + x2)
        fmid = integrand_values(f, np.concatenate((0.5 * (x0 + x1), 0.5 * (x1 + x2))))
        fl, fr = fmid[:n], fmid[n:]
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * fr + f2)
        both = left + right
        err = both - whole
        value = both + err / 15.0
        split = np.abs(err) > 15.0 * eps
        if depth >= _MAX_DEPTH and split.any():
            # localized non-smoothness (e.g. a jump): the intervals are now so
            # narrow that their residual error is at most |err|; spend budget,
            # added left to right as the recursion would
            unconverged = float(np.cumsum(np.abs(err[split]))[-1])
            split[:] = False
        levels.append((value, split))
        if not split.any():
            break
        x0, x2 = _interleave(x0[split], x1[split]), _interleave(x1[split], x2[split])
        f0, f2 = _interleave(f0[split], f1[split]), _interleave(f1[split], f2[split])
        f1 = _interleave(fl[split], fr[split])
        whole = _interleave(left[split], right[split])
        eps *= 0.5
        depth += 1
    if unconverged > tol:
        raise QuadratureError(
            f"adaptive Simpson: unresolved error {unconverged:.3e} > tol {tol:.3e} "
            f"after depth {_MAX_DEPTH}"
        )
    # each split interval's value is the sum of its two children's, bottom up
    child = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = child[0::2] + child[1::2]
        child = value
    return (float(child[0]), depth) if full_output else float(child[0])


def peak_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, mode: float, sd: float, end_slope: float
) -> float:
    """Composite 16-point Gauss-Legendre sum of an analytic unimodal ``f`` on
    [a, b], over cuts at anchor + j * scale, j = -45..45, clipped to [a, b].

    The anchor is f's peak on [a, b]: ``mode`` if it lies there, else the
    nearer end, where the scale ``sd`` is capped at 1 / |end_slope|, the
    e-folding length of f (``end_slope`` = d log f/dt at that end).  ``f`` is
    called once, on the nodes of every panel.
    """
    if not a < b:
        raise ValueError("require a < b")
    anchor = min(max(mode, a), b)
    scale = sd if anchor == mode or abs(end_slope) * sd <= 1.0 else 1.0 / abs(end_slope)
    cuts = np.concatenate(([a], np.clip(anchor + scale * _PANEL_OFFSETS, a, b), [b]))  # ascending
    nodes, half = panel_rule(cuts, 16)
    _, w = gauss_legendre_rule(16)
    vals = integrand_values(f, nodes.ravel()).reshape(nodes.shape)
    return float(half @ (vals @ w))


def power_singular_integral(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    x: float,
    tol: float = 1e-8,
    lipschitz: float | None = None,
) -> float:
    """Integrate ``f(z) * z**(-alpha-1)`` over ``(0, x]`` for ``f(0) = 0``.

    ``f`` follows the integrand contract of :func:`adaptive_simpson`: it maps
    an array of radii to an array of values.

    ``lipschitz`` must be a declared bound with ``|f(z)| <= lipschitz * z``
    near zero (we require it on all of ``(0, x]``); it certifies that the
    contribution of ``(0, eps]`` is below ``tol/2``, so quadrature only runs
    on ``[eps, x]``.

    Requires ``alpha < 1`` so that the integrand is integrable at zero.
    """
    if lipschitz is None:
        raise ValueError("a Lipschitz bound for f near 0 must be declared")
    if not 0 < alpha < 1:
        raise ValueError("power kernel exponent must satisfy 0 < alpha < 1")
    if x <= 0:
        return 0.0
    # L * eps^(1-alpha) / (1-alpha) <= tol/2
    if lipschitz == 0.0:
        eps = x
    else:
        eps = (tol * (1.0 - alpha) / (2.0 * lipschitz)) ** (1.0 / (1.0 - alpha))
        eps = min(eps, x)
    if eps >= x:
        return 0.0

    # Substitute z = eps * exp(u) to even out the power-law scale near eps.
    umax = math.log(x / eps)

    def g_sub(u: np.ndarray) -> np.ndarray:
        z = eps * np.exp(u)
        return f(z) * z ** (-alpha - 1.0) * z

    return adaptive_simpson(g_sub, 0.0, umax, tol=tol / 2.0)
