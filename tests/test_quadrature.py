import math

import numpy as np
import pytest

from pivotal import quadrature
from pivotal.quadrature import (
    GL_SIZES,
    QuadratureError,
    adaptive_simpson,
    gauss_legendre,
    gauss_legendre_rule,
    panel_rule,
    peak_gauss_legendre,
    power_singular_integral,
)


class TestGaussLegendre:
    def test_cubic_exact(self):
        assert gauss_legendre(lambda x: x**3, 0.0, 1.0, 8) == pytest.approx(0.25, abs=1e-15)

    def test_constant(self):
        assert gauss_legendre(lambda x: np.ones_like(x), -2.0, 5.0, 16) == pytest.approx(7.0, abs=1e-13)

    def test_exponential(self):
        val = gauss_legendre(lambda x: np.exp(-x), 0.0, 1.0, 32)
        assert abs(val - (1.0 - math.exp(-1.0))) < 1e-14

    def test_polynomial_exactness_property(self):
        # exact through degree 2n-1 for every supported order
        rng = np.random.default_rng(101)
        for npts in (8, 16, 32, 64):
            deg = 2 * npts - 1
            coeffs = rng.uniform(-1, 1, size=deg + 1)
            poly = np.polynomial.Polynomial(coeffs)
            integ = poly.integ()
            got = gauss_legendre(poly, -0.7, 1.3, npts)
            want = integ(1.3) - integ(-0.7)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_scalar_integrand_raises(self):
        # no point-by-point retry: the error names the expected shape
        with pytest.raises(TypeError):
            gauss_legendre(lambda x: float(x) ** 2, 0.0, 1.0, 8)
        with pytest.raises(TypeError, match=r"shape \(8,\)"):
            gauss_legendre(lambda x: 1.0, 0.0, 1.0, 8)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            gauss_legendre(lambda x: x, 0.0, 1.0, 10)


class TestRules:
    def test_one_read_only_cache(self):
        for n in GL_SIZES:
            x, w = gauss_legendre_rule(n)
            assert gauss_legendre_rule(n)[0] is x and gauss_legendre_rule(n)[1] is w
            for arr in (x, w):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_panel_rule_drops_empty_panels(self):
        nodes, half = panel_rule(np.array([0.0, 0.0, 1.0, 3.0, 3.0]), 8)
        x, w = gauss_legendre_rule(8)
        assert nodes.shape == (2, 8) and half.tolist() == [0.5, 1.0]
        assert nodes[1].tolist() == (2.0 + x).tolist()
        # the panel weights half * w integrate x^3 over [0, 3] exactly
        assert float(np.sum(half[:, None] * w * nodes**3)) == pytest.approx(81.0 / 4.0, rel=1e-14)


class TestAdaptiveSimpson:
    def test_closed_forms(self):
        assert adaptive_simpson(lambda x: np.exp(-x), 0.0, 1.0, tol=1e-12) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12
        )
        assert adaptive_simpson(lambda x: x**3, 0.0, 1.0, tol=1e-12) == pytest.approx(0.25, abs=1e-13)
        assert adaptive_simpson(np.ones_like, 2.0, 3.5, tol=1e-12) == pytest.approx(1.5, abs=1e-13)

    def test_empty_interval(self):
        assert adaptive_simpson(lambda x: x, 1.0, 1.0) == 0.0

    def test_depth_reported(self):
        val, depth = adaptive_simpson(lambda x: np.sin(20 * x), 0.0, 3.0, tol=1e-11, full_output=True)
        assert val == pytest.approx((1 - math.cos(60.0)) / 20.0, abs=1e-10)
        assert depth >= 1

    def test_jump_integrand(self):
        val = adaptive_simpson(lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 1.0, tol=1e-9)
        assert val == pytest.approx(0.7, abs=1e-8)

    def test_unresolvable_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 6)
        with pytest.raises(QuadratureError):
            adaptive_simpson(lambda x: np.where(x > 1 / math.pi, 1.0, 0.0), 0.0, 1.0, tol=1e-13)

    def test_non_finite_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_simpson(lambda x: np.where(np.abs(x) < 0.1, np.inf, 1.0), -1.0, 1.0, tol=1e-8)

    def test_scalar_integrand_raises(self):
        with pytest.raises(TypeError, match=r"shape \(3,\)"):
            adaptive_simpson(lambda x: 1.0, 0.0, 1.0)
        with pytest.raises(TypeError):
            adaptive_simpson(lambda x: math.exp(-x), 0.0, 1.0)

    def test_one_integrand_call_per_level(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.sin(20 * x)

        _, depth = adaptive_simpson(f, 0.0, 3.0, tol=1e-11, full_output=True)
        # the three initial nodes, then one batch of midpoints per level
        assert len(calls) == depth + 1
        assert calls[0] == 3 and calls[1] == 2


def _recursive_simpson(f, a, b, tol=1e-10, max_depth=40, full_output=False):
    """Depth-first adaptive Simpson, one scalar integrand call per node: the
    reference the breadth-first refinement must match to the bit."""
    if a == b:
        return (0.0, 0) if full_output else 0.0

    def _eval(x):
        v = float(f(x))
        if not math.isfinite(v):
            raise QuadratureError(f"non-finite integrand at x={x!r}")
        return v

    def _simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    depth_used = 0
    unconverged = 0.0

    def _recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        nonlocal depth_used, unconverged
        xm_l = 0.5 * (x0 + 0.5 * (x0 + x2))
        xm_r = 0.5 * (0.5 * (x0 + x2) + x2)
        fl = _eval(xm_l)
        fr = _eval(xm_r)
        x1 = 0.5 * (x0 + x2)
        left = _simpson(f0, fl, f1, x0, x1)
        right = _simpson(f1, fr, f2, x1, x2)
        err = left + right - whole
        if abs(err) <= 15.0 * eps:
            depth_used = max(depth_used, depth)
            return left + right + err / 15.0
        if depth >= max_depth:
            depth_used = depth
            unconverged += abs(err)
            return left + right + err / 15.0
        return _recurse(x0, x1, f0, fl, f1, left, 0.5 * eps, depth + 1) + _recurse(
            x1, x2, f1, fr, f2, right, 0.5 * eps, depth + 1
        )

    f0, f1, f2 = _eval(a), _eval(0.5 * (a + b)), _eval(b)
    whole = _simpson(f0, f1, f2, a, b)
    value = _recurse(a, b, f0, f1, f2, whole, tol, 1)
    if unconverged > tol:
        raise QuadratureError(f"unresolved error {unconverged:.3e} > tol {tol:.3e}")
    return (value, depth_used) if full_output else value


class TestPeakGaussLegendre:
    def test_narrow_bump_is_found(self):
        # every initial probe of [0, 1] sees exp(-huge): one wide Simpson
        # interval converges on 0, the panels around the peak resolve the bump
        bump = lambda x: np.exp(-0.5 * ((x - 0.9) / 1e-3) ** 2)
        want = math.sqrt(2.0 * math.pi) * 1e-3
        assert adaptive_simpson(bump, 0.0, 1.0, tol=1e-12) < 1e-20
        assert peak_gauss_legendre(bump, 0.0, 1.0, 0.9, 1e-3, 0.0) == pytest.approx(want, rel=1e-13)

    def test_anchors_clipped_to_the_interval(self):
        # a mode outside [a, b] anchors at the nearer end; with a scale wider
        # than the interval one 16-point panel integrates the quadratic exactly
        assert peak_gauss_legendre(lambda x: 3.0 * x * x, 0.0, 1.0, 5.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert peak_gauss_legendre(lambda x: 3.0 * x * x, 0.0, 1.0, -5.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_one_call_on_every_panel(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x)

        got = peak_gauss_legendre(f, 0.0, 100.0, 0.0, 1.0, 0.0)
        # cuts at 0, 1, ..., 45 and the panel [45, 100]
        assert calls == [46 * 16]
        assert got == pytest.approx(-math.expm1(-100.0), rel=1e-14)

    def test_end_scale_follows_the_decay(self):
        # e^(40 (t - 1)) on [0, 1]: the mode lies beyond b and the kernel falls
        # from b at rate 40; at the scale sd = 10 one panel reads 8e-10 low
        got = peak_gauss_legendre(lambda t: np.exp(40.0 * (t - 1.0)), 0.0, 1.0, 5.0, 10.0, 40.0)
        assert got == pytest.approx(-math.expm1(-40.0) / 40.0, rel=1e-14)

    def test_integrand_contract(self):
        with pytest.raises(TypeError):
            peak_gauss_legendre(lambda x: 1.0, 0.0, 1.0, 0.5, 0.1, 0.0)
        with pytest.raises(QuadratureError):
            peak_gauss_legendre(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0, 0.5, 0.1, 0.0)
        with pytest.raises(ValueError):
            peak_gauss_legendre(np.exp, 1.0, 1.0, 0.5, 0.1, 0.0)


def _pointwise(g):
    """An array integrand that calls the scalar ``g`` once per node."""
    return lambda x: np.array([g(float(t)) for t in x])


class TestBreadthFirstMatchesRecursion:
    """Given the same integrand values, the breadth-first refinement reaches
    the recursion's leaves and sums them in its tree: value and depth agree
    with ``==``."""

    @pytest.mark.parametrize("g, a, b, tol, max_depth", [
        (lambda x: x**3 - 2.0 * x + 1.0, 0.0, 1.7, 1e-12, 40),
        (lambda x: x**7 - 3.0 * x**4 + 0.5, -1.2, 0.9, 1e-12, 40),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-11, 40),
        (lambda x: (x + 2.0) / (x * x + 0.01), -1.0, 2.0, 1e-10, 40),
        (lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0, 1e-9, 40),
        # intervals cut off at max_depth whose unresolved error stays within tol
        (lambda x: 1.0 if x > 1 / math.pi else 0.0, 0.0, 1.0, 1e-4, 12),
    ])
    def test_same_value_and_depth(self, g, a, b, tol, max_depth, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
        want = _recursive_simpson(g, a, b, tol=tol, max_depth=max_depth, full_output=True)
        got = adaptive_simpson(_pointwise(g), a, b, tol=tol, full_output=True)
        assert got == want

    def test_max_depth_raises_in_both(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 6)
        g = lambda x: 1.0 if x > 1 / math.pi else 0.0
        with pytest.raises(QuadratureError):
            _recursive_simpson(g, 0.0, 1.0, tol=1e-13, max_depth=6)
        with pytest.raises(QuadratureError):
            adaptive_simpson(_pointwise(g), 0.0, 1.0, tol=1e-13)

    def test_binomial_beta_kernel_grid(self):
        # the incomplete-beta integrals of criterion c02, k <= n <= 30
        for n in range(1, 31):
            for k in range(1, n + 1):
                prefac = math.exp(math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 1))
                g = lambda t: prefac * t ** (k - 1) * (1.0 - t) ** (n - k)
                for p in (0.1, 0.5, 0.9):
                    want = _recursive_simpson(g, 0.0, p, tol=1e-12, full_output=True)
                    got = adaptive_simpson(_pointwise(g), 0.0, p, tol=1e-12, full_output=True)
                    assert got == want, (n, k, p)


class TestPowerSingular:
    def test_linear(self):
        got = power_singular_integral(lambda z: z, 0.5, 1.0, tol=1e-10, lipschitz=1.0)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_zero(self):
        assert power_singular_integral(lambda z: 0.0, 0.5, 1.0, tol=1e-10, lipschitz=0.0) == 0.0

    def test_quadratic(self):
        got = power_singular_integral(lambda z: z * z, 0.5, 1.0, tol=1e-10, lipschitz=1.0)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_requires_declaration(self):
        with pytest.raises(ValueError):
            power_singular_integral(lambda z: z, 0.5, 1.0, tol=1e-10)

    def test_zero_upper_limit(self):
        assert power_singular_integral(lambda z: z, 0.5, 0.0, tol=1e-10, lipschitz=1.0) == 0.0
