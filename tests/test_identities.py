import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from pivotal import identities
from pivotal.identities import (
    LatticeDistribution,
    cpois_cdf,
    cpois_cdf_ode_residual,
    cpois_pmf_direct,
    cpois_pmf_panjer,
    cpois_pmf_polyrec,
    erlang_cdf,
    panjer_pmfs,
    poisson_tail,
    poisson_tail_integral,
)
from pivotal.rng import RngStream


def random_lattice(gen, support_max=5):
    q = gen.random(support_max + 1) * (gen.random(support_max + 1) < 0.7)
    if q.sum() == 0:
        q[0] = 1.0
    return LatticeDistribution(q / q.sum())


class TestPoissonTail:
    def test_k1_closed_form(self):
        for th in (0.3, 2.0, 20.0):
            want = 1.0 - math.exp(-th)
            assert poisson_tail(th, 1) == pytest.approx(want, abs=1e-13)
            assert poisson_tail_integral(th, 1) == pytest.approx(want, abs=1e-11)

    def test_zero_parameter(self):
        assert poisson_tail(0.0, 3) == 0.0
        assert poisson_tail_integral(0.0, 3) == 0.0

    def test_tail_vs_integral(self):
        for th, k in [(2.0, 3), (7.0, 2), (20.0, 30), (0.5, 5)]:
            assert abs(poisson_tail(th, k) - poisson_tail_integral(th, k)) <= 1e-10

    @pytest.mark.parametrize("theta, k", [
        (800.0, 900),  # exp(-theta) underflows
        (800.0, 790),
        (0.5, 30),  # 1 minus the head sum cancels to nothing
        (20.0, 21),
    ])
    def test_relative_accuracy(self, theta, k):
        want = stats.poisson.sf(k - 1, theta)
        assert poisson_tail(theta, k) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("theta, k", [(0.5, 30), (2.0, 30), (20.0, 3), (20.0, 30)])
    def test_integral_relative_accuracy(self, theta, k):
        # a positive weighted sum keeps the relative accuracy of a tail of 2e-42
        want = stats.poisson.sf(k - 1, theta)
        assert poisson_tail_integral(theta, k) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_integral_relative_accuracy_on_the_tail_grid(self):
        # the c04 grid and larger theta, up to the 200 of the Erlang grid's theta * x
        cases = [(theta, k) for theta in (0.1, 0.5, 2.0, 7.0, 20.0, 50.0, 100.0, 200.0) for k in range(1, 31)]
        got = [poisson_tail_integral(theta, k) for theta, k in cases]
        want = special.gammainc([k for _, k in cases], [theta for theta, _ in cases])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("k", [2, 5, 30, 200])
    @pytest.mark.parametrize("beyond", [0.0, 1e-9])
    def test_integral_with_the_mode_at_the_upper_end(self, k, beyond):
        # the kernel's mode k - 1 at theta, or just beyond it: the end-point
        # scale 1/|d log f/dt| is infinite or huge there, and the spread caps it
        theta = k - 1.0 - beyond
        assert poisson_tail_integral(theta, k) == pytest.approx(special.gammainc(k, theta), rel=1e-13, abs=0.0)


class TestErlang:
    def test_n1_closed_form(self):
        d, i, p = erlang_cdf(1, 2.0, 0.7)
        want = 1.0 - math.exp(-1.4)
        for v in (d, i, p):
            assert v == pytest.approx(want, abs=1e-11)

    def test_zero_x(self):
        assert erlang_cdf(3, 1.5, 0.0) == (0.0, 0.0, 0.0)

    def test_three_way_agreement(self):
        for n, th, x in [(3, 1.5, 2.0), (10, 7.0, 1.0), (30, 20.0, 10.0), (2, 0.5, 9.0)]:
            d, i, p = erlang_cdf(n, th, x)
            assert abs(d - i) <= 1e-10
            assert abs(d - p) <= 1e-10
            assert abs(i - p) <= 1e-10


    def test_relative_accuracy(self):
        # the c04 Erlang grid, theta * x up to 200; an absolute quadrature
        # tolerance gave 7.80e-72 for the 3.35e-72 of (30, 0.5, 0.1)
        for n in (1, 2, 3, 5, 10, 20, 30, 60):
            for th in (0.5, 2.0, 7.0, 20.0):
                for x in (0.1, 1.0, 3.0, 10.0):
                    want = special.gammainc(n, th * x)
                    assert want == pytest.approx(stats.gamma.cdf(x, n, scale=1.0 / th), rel=1e-12, abs=0.0)
                    for v in erlang_cdf(n, th, x):
                        assert v == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beyond", [0.0, 1e-9])
    def test_mode_at_the_upper_end(self, beyond):
        # the density's mode (n - 1)/theta at x, and the parameter kernel's
        # mode (n - 1)/x at theta, or each just beyond its interval
        n, theta, x = 10, 3.0, 4.0
        direct = erlang_cdf(n, theta, (n - 1) / theta - beyond)[0]
        assert direct == pytest.approx(special.gammainc(n, (n - 1) - theta * beyond), rel=1e-13, abs=0.0)
        via_integral = erlang_cdf(n, (n - 1) / x - beyond, x)[1]
        assert via_integral == pytest.approx(special.gammainc(n, (n - 1) - x * beyond), rel=1e-13, abs=0.0)


class TestGammaKernel:
    @pytest.mark.parametrize("x", [0, 1, 4])
    def test_xlogy_at_endpoints(self, x):
        t = np.array([0.0, 0.5, 1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = identities._xlogy(x, t)
        np.testing.assert_allclose(got, special.xlogy(x, t), rtol=1e-14, atol=0.0)
        assert got.shape == t.shape

    def test_kernels_at_zero_without_warnings(self):
        # the kernels start at t = 0: value 1 for exponent 0, else 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert poisson_tail_integral(0.5, 1) == pytest.approx(-math.expm1(-0.5), rel=1e-12, abs=0.0)
            assert poisson_tail_integral(2.0, 4) == pytest.approx(stats.poisson.sf(3, 2.0), rel=1e-12, abs=0.0)
            for v in erlang_cdf(1, 2.0, 1.0):
                assert v == pytest.approx(-math.expm1(-2.0), rel=1e-11, abs=0.0)
            for v in erlang_cdf(3, 2.0, 1.0):
                assert v == pytest.approx(stats.gamma.cdf(1.0, 3, scale=0.5), rel=1e-11, abs=0.0)


class TestCompoundPoissonPmf:
    def test_direct_reduces_to_poisson(self):
        q = LatticeDistribution.delta(1)
        for k in (0, 1, 4):
            assert cpois_pmf_direct(2.0, q, k) == pytest.approx(stats.poisson.pmf(k, 2.0), abs=1e-14)

    def test_mass_at_zero(self):
        q = LatticeDistribution(np.array([0.25, 0.5, 0.25]))
        want = math.exp(-1.5 * 0.75)
        assert cpois_pmf_direct(1.5, q, 0) == pytest.approx(want, abs=1e-14)
        assert cpois_pmf_panjer(1.5, q, 0) == pytest.approx(want, abs=1e-15)
        assert cpois_pmf_polyrec(1.5, q, 0) == pytest.approx(want, abs=1e-15)

    def test_uniform_two_atoms(self):
        # one jump of size 2, or two jumps of size 1
        q = LatticeDistribution.uniform([1, 2])
        want = 0.625 * math.exp(-1.0)
        assert cpois_pmf_direct(1.0, q, 2) == pytest.approx(want, abs=1e-14)

    def test_panjer_poisson_case(self):
        q = LatticeDistribution.delta(1)
        p = panjer_pmfs(3.0, q, 20)
        np.testing.assert_allclose(p, stats.poisson.pmf(np.arange(21), 3.0), rtol=1e-13)

    def test_polyrec_monomials(self):
        # jump size 1: the rescaled masses integrate to theta^k / k!
        q = LatticeDistribution.delta(1)
        for k, th in [(0, 0.3), (3, 1.2), (7, 2.0)]:
            want = th**k / math.factorial(k) * math.exp(-th)
            assert cpois_pmf_polyrec(th, q, k) == pytest.approx(want, rel=1e-13)

    def test_polyrec_matches_loop_reference(self):
        # the criterion-c05 jump laws against the per-j loop the matrix form replaced
        def loop_polyrec(theta, q, k):
            coeffs = [np.array([1.0])]
            for kk in range(1, k + 1):
                c = np.zeros(kk + 1)
                for j in range(kk):
                    if q.q(kk - j) == 0.0:
                        continue
                    cj = coeffs[j]
                    integ = np.zeros(cj.size + 1)
                    integ[1:] = cj / np.arange(1, cj.size + 1)
                    c[: integ.size] += q.q(kk - j) * integ
                coeffs.append(c)
            value = 0.0
            for a in coeffs[k][::-1]:
                value = value * theta + a
            return math.exp(-theta * (1.0 - q.q(0))) * value

        rng = RngStream(20260810, 5)
        for i in range(50):
            gen = rng.substream(i).generator()
            q_raw = gen.random(6) * (gen.random(6) < 0.7)
            if q_raw.sum() == 0:
                q_raw[1] = 1.0
            q = LatticeDistribution(q_raw / q_raw.sum())
            theta = float(gen.uniform(0.05, 5.0))
            for k in range(51):
                want = loop_polyrec(theta, q, k)
                assert cpois_pmf_polyrec(theta, q, k) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_three_routes_agree(self):
        rng = RngStream(31)
        for i in range(10):
            gen = rng.substream(i).generator()
            q = random_lattice(gen)
            th = float(gen.uniform(0.05, 5.0))
            for k in (0, 1, 7, 23, 50):
                pan = cpois_pmf_panjer(th, q, k)
                direct = cpois_pmf_direct(th, q, k)
                poly = cpois_pmf_polyrec(th, q, k)
                scale = max(abs(pan), 1e-300)
                assert abs(direct - pan) / scale <= 1e-12
                assert abs(poly - pan) / scale <= 1e-12

    def test_masses_nonnegative_and_sum_to_one(self):
        rng = RngStream(32)
        gen = rng.substream(0).generator()
        q = random_lattice(gen)
        p = panjer_pmfs(2.0, q, 400)
        assert np.all(p >= 0.0)
        partial = np.cumsum(p)
        assert np.all(np.diff(partial) >= 0.0)
        assert partial[-1] <= 1.0 + 1e-12
        assert partial[-1] == pytest.approx(1.0, abs=1e-10)


class TestCompoundPoissonOde:
    def test_lattice_rate_forms_agree(self):
        # the two lattice forms of the rate equation are algebraically equal
        rng = RngStream(33)
        gen = rng.substream(0).generator()
        q = random_lattice(gen)
        th = 1.7
        p = panjer_pmfs(th, q, 40)
        for k in (0, 3, 10, 25):
            full = sum(q.q(k - j) * p[j] for j in range(min(k + q.probs.size, 41))) - p[k]
            skip = sum(q.q(k - j) * p[j] for j in range(min(k + q.probs.size, 41)) if j != k) \
                - (1.0 - q.q(0)) * p[k]
            assert full == pytest.approx(skip, abs=1e-14)

    def test_degenerate_at_zero(self):
        q = LatticeDistribution.delta(0)
        assert cpois_cdf_ode_residual(1.0, q, 2.0, 1e-3) == pytest.approx(0.0, abs=1e-14)

    def test_poisson_case_residual(self):
        q = LatticeDistribution.delta(1)
        for k in (1, 3, 6):
            assert abs(cpois_cdf_ode_residual(1.0, q, float(k), 1e-3)) <= 1e-5

    def test_uniform_case_residual(self):
        q = LatticeDistribution.uniform([1, 2])
        assert abs(cpois_cdf_ode_residual(1.0, q, 3.0, 1e-3)) <= 1e-5

    def test_one_panjer_vector_gives_every_cdf(self):
        # the residual's slice sums equal a cpois_cdf call per support point, bit for bit
        gen = RngStream(34).generator()
        for _ in range(40):
            q = random_lattice(gen, support_max=int(gen.integers(0, 8)))
            theta, x = float(gen.uniform(0.1, 6.0)), float(gen.choice([-0.5, 0.0, 2.5, 7.0, 30.0]))
            rhs = -cpois_cdf(theta, q, x)
            for z in range(q.probs.size):
                if q.probs[z] > 0.0:
                    rhs += q.probs[z] * cpois_cdf(theta, q, x - z)
            fd = (cpois_cdf(theta + 1e-3, q, x) - cpois_cdf(theta - 1e-3, q, x)) / 2e-3
            assert cpois_cdf_ode_residual(theta, q, x, 1e-3) == fd - rhs

    def test_delta_validation(self):
        q = LatticeDistribution.delta(1)
        with pytest.raises(ValueError):
            cpois_cdf_ode_residual(1.0, q, 3.0, 2.0)


class TestLatticeDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeDistribution(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            LatticeDistribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 1.0], [1.0, -np.inf]])
    def test_non_finite_probabilities_raise(self, probs):
        with pytest.raises(ValueError, match="finite"):
            LatticeDistribution(np.array(probs))

    def test_caller_array_stays_writeable(self):
        a = np.array([0.5, 0.5])
        q = LatticeDistribution(a)
        assert a.flags.writeable and not q.probs.flags.writeable
        a[0] = 0.9
        assert q.q(0) == 0.5

    def test_identity_equality(self):
        a, b = LatticeDistribution.uniform([1, 2]), LatticeDistribution.uniform([1, 2])
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_probabilities_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            LatticeDistribution(np.array([[0.5], [0.5]]))

    def test_cdf_below_support(self):
        q = LatticeDistribution.uniform([1, 2])
        assert cpois_cdf(1.0, q, -0.5) == 0.0
