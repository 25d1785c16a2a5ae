import contextlib
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from pivotal import stable
from pivotal.rng import RngStream
from pivotal.stable import (
    EnvelopeError,
    IdentityResidual,
    RadialEnvelope,
    SpectralMeasure,
    StableParams,
    alphadens1_residual,
    dimone_residual,
    levy_integral,
    positive_half_cdf,
    positive_half_pdf,
    positive_half_pdf_deriv,
    radvec_residual,
    sample_stable_exact,
    sample_stable_many,
    truncation_plan,
)
from pivotal.suites import _RADVEC_CASES
from pivotal.summaries import ks_two_sample

UNCENTRED_3 = SpectralMeasure(np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]]),
                              np.array([0.3, 1.1, 0.6]))
CENTRED_3 = SpectralMeasure(np.array([[1.0, 0.0], [-0.6, 0.8], [-0.6, -0.8]]),
                            np.array([1.2, 1.0, 1.0]))


class TestSpectralMeasure:
    def test_unit_norm_required(self):
        with pytest.raises(ValueError):
            SpectralMeasure(np.array([[1.0, 1.0]]), np.array([1.0]))

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            SpectralMeasure(np.array([[1.0]]), np.array([0.0]))

    def test_centered_required_above_one(self):
        with pytest.raises(ValueError):
            StableParams(1.2, SpectralMeasure.positive_half_line(1.0))
        StableParams(1.2, SpectralMeasure.symmetric_pair(1.0))  # fine

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            StableParams(2.0, SpectralMeasure.symmetric_pair(1.0))
        with pytest.raises(ValueError):
            StableParams(0.0, SpectralMeasure.positive_half_line(1.0))

    def test_mean_direction(self):
        spec = SpectralMeasure.axis_symmetric(2.0, dim=2)
        assert np.linalg.norm(spec.mean_direction) < 1e-15
        assert spec.total_mass == pytest.approx(2.0)

    def test_compares_by_identity_and_hashes(self):
        # value equality compared the atom arrays, so == on two atoms raised ValueError
        spec = SpectralMeasure.symmetric_pair(1.0)
        twin = SpectralMeasure.symmetric_pair(1.0)
        assert spec == spec and spec != twin
        params = StableParams(1.5, spec)
        assert hash(params) == hash(StableParams(1.5, spec))
        assert params == StableParams(1.5, spec) and params != StableParams(1.5, twin)
        assert len({params, StableParams(1.5, spec)}) == 1


class TestTailSums:
    def test_closed_forms_match_partial_sums(self):
        # telescoping: the closed form equals a long partial sum plus its
        # closed-form remainder
        for n0, beta in [(10, 2.0), (10, 1.25), (50, 2.5)]:
            k = np.arange(n0 + 1, n0 + 200_001, dtype=float)
            partial = float(np.exp(gammaln(k - beta) - gammaln(k)).sum())
            remainder = math.exp(gammaln(n0 + 200_000 + 1 - beta) - gammaln(n0 + 200_000)) / (beta - 1.0)
            closed = math.exp(gammaln(n0 + 1 - beta) - gammaln(n0)) / (beta - 1.0)
            assert partial + remainder == pytest.approx(closed, rel=1e-9)

    @staticmethod
    def _meansq_sum(n, alpha):
        """S2(n) = sum_{k>n} Gamma(k - 2/alpha)/Gamma(k) from the plan's bound:
        the pair of unit atoms keeps n terms each, so the bound is sqrt(2 S2(n))."""
        params = StableParams(alpha, SpectralMeasure.symmetric_pair(2.0))
        return truncation_plan(params, nterms=2 * n).tail_std_bound ** 2 / 2

    def test_wrappers(self):
        # alpha=0.5: mean-square beta=4
        assert self._meansq_sum(10, 0.5) == pytest.approx(
            math.exp(gammaln(7.0) - gammaln(10.0)) / 3.0, rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0 / 3.0])
    @pytest.mark.parametrize("n", [10, 10**3, 10**5, 10**6])
    def test_meansq_sum_exact_rationals(self, alpha, n):
        # beta = 2/alpha an integer: Gamma(n+1-beta)/Gamma(n) = 1/((n-1)...(n-beta+1));
        # a difference of two log-gammas near n log n loses ~1e-10 here
        beta = round(2.0 / alpha)
        denom = (beta - 1) * math.prod(range(n - beta + 1, n))
        assert self._meansq_sum(n, alpha) == pytest.approx(float(Fraction(1, denom)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha, spec, tol, nterms, want, atoms", [
        (0.5, SpectralMeasure.positive_half_line(1.0), 1e-3, None, 72, (72,)),
        (0.5, SpectralMeasure.positive_half_line(2.0), 1e-3, None, 177, (177,)),
        (0.5, SpectralMeasure.positive_half_line(1.0), 3e-3, None, 36, (36,)),
        (0.5, SpectralMeasure.positive_half_line(2.0), 3e-3, None, 86, (86,)),
        (0.8, SpectralMeasure.symmetric_pair(1.0), 3e-3, None, 1767, (884, 884)),
        (0.8, SpectralMeasure.symmetric_pair(2.0), 3e-3, None, 5603, (2802, 2802)),
        (0.7, SpectralMeasure.positive_half_line(1.0), 1e-3, None, 1221, (1221,)),
        (1.5, SpectralMeasure.symmetric_pair(1.0), 3e-3, 5000, 5000, (2500, 2500)),
        (1.0, SpectralMeasure.symmetric_pair(1.0), 1e-3, 1000, 1000, (500, 500)),
        (0.8, SpectralMeasure.axis_symmetric(1.0, dim=2), 1e-3, 800, 800, (200,) * 4),
    ])
    def test_pinned_plans(self, alpha, spec, tol, nterms, want, atoms):
        # the series lengths of the benchmark workloads and the gates
        plan = truncation_plan(StableParams(alpha, spec), trunc_tol=tol, nterms=nterms)
        assert (plan.nterms, plan.atom_terms) == (want, atoms)

    def test_plan_monotone(self):
        params = StableParams(0.5, SpectralMeasure.positive_half_line(1.0))
        bounds = [truncation_plan(params, nterms=n).tail_std_bound for n in (10, 30, 100, 300)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("alpha, spec, tol", [
        *((0.3, SpectralMeasure.positive_half_line(1.5), tol) for tol in (3e-3, 1e-4, 1e-6)),
        *((0.5, UNCENTRED_3, tol) for tol in (1e-2, 1e-3, 1e-5)),
        *((0.8, SpectralMeasure.positive_half_line(1.5), tol) for tol in (1e-1, 1e-2, 1e-3)),
        *((1.2, CENTRED_3, tol) for tol in (1.0, 0.3, 0.1)),
    ])
    def test_plan_hits_tolerance(self, alpha, spec, tol):
        # the plan's length is the least one that meets the tolerance
        params = StableParams(alpha, spec)
        plan = truncation_plan(params, trunc_tol=tol)
        assert not plan.capped and plan.nterms > math.ceil(2.0 / alpha) + 3
        assert plan.tail_std_bound <= tol
        assert truncation_plan(params, nterms=plan.nterms - 1).tail_std_bound > tol

    def test_cap_reported(self):
        params = StableParams(1.5, SpectralMeasure.symmetric_pair(1.0))
        plan = truncation_plan(params, trunc_tol=1e-6)
        assert plan.capped and plan.nterms == 100_000

    def test_bound_beyond_the_float_range_of_its_factors(self):
        # w^(2/alpha) = 1e300 overflows at alpha = 0.02 and w = 1e6, and used
        # to give an inf bound at nterms = 200 and a nan one, uncapped, at 3296
        alpha, w = 0.02, 1e6
        params = StableParams(alpha, SpectralMeasure.positive_half_line(w))

        def log10_bound(n):
            beta = 2.0 / alpha
            return 0.5 * (beta * math.log(w) + gammaln(n + 1 - beta) - gammaln(n) - math.log(beta - 1)) / math.log(10)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed = truncation_plan(params, nterms=200)
            plan = truncation_plan(params)
        assert math.log10(fixed.tail_std_bound) == pytest.approx(log10_bound(200), rel=1e-12)
        assert plan.capped and plan.nterms == 100_000
        assert math.log10(plan.tail_std_bound) == pytest.approx(log10_bound(100_000), rel=1e-9)

    @pytest.mark.parametrize("alpha, spec", [(0.5, UNCENTRED_3), (1.2, CENTRED_3)])
    def test_plan_splits_over_atoms(self, alpha, spec):
        plan = truncation_plan(StableParams(alpha, spec), nterms=400)
        nmin = math.ceil(2.0 / alpha) + 3
        w = spec.weights
        assert plan.atom_terms == tuple(max(nmin, math.ceil(p * 400)) for p in w / w.sum())
        beta = 2.0 / alpha
        want = math.sqrt(sum(wj ** beta * math.exp(gammaln(nj + 1 - beta) - gammaln(nj)) / (beta - 1.0)
                             for wj, nj in zip(w, plan.atom_terms)))
        assert plan.tail_std_bound == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha, spec", [
        (0.8, SpectralMeasure.symmetric_pair(1.0)),
        (0.8, SpectralMeasure.axis_symmetric(1.0, dim=2)),
        (0.5, UNCENTRED_3),
    ])
    def test_plan_is_reproduced_from_its_length(self, alpha, spec):
        # estimators pass a plan's nterms back for every block
        params = StableParams(alpha, spec)
        plan = truncation_plan(params, trunc_tol=3e-3)
        assert truncation_plan(params, nterms=plan.nterms) == plan


class TestSampler:
    def test_positive_law_is_positive(self):
        params = StableParams(0.5, SpectralMeasure.positive_half_line(1.0))
        draws, _ = sample_stable_many(params, 500, RngStream(71))
        assert np.all(draws > 0.0)
        single, _ = sample_stable_many(params, 1, RngStream(72))
        assert single.shape == (1, 1) and single[0, 0] > 0

    def test_partial_sums_increase_with_terms(self):
        # for a positive law every series term is positive, so the raw
        # truncated sum is monotone in the number of kept terms
        gen = RngStream(73).generator()
        gam = np.cumsum(gen.exponential(size=2000))
        partial = np.cumsum(gam ** -2.0)
        assert np.all(np.diff(partial) > 0.0)

    def test_reproducible(self):
        params = StableParams(0.8, SpectralMeasure.symmetric_pair(1.0))
        a, _ = sample_stable_many(params, 300, RngStream(74, 5))
        b, _ = sample_stable_many(params, 300, RngStream(74, 5))
        assert np.array_equal(a, b)

    def test_half_cdf_matches_levy(self):
        # erfc(z) has condition number ~2 z^2 in its argument, whose rounding
        # alone moves the deep tail (cdf ~1e-290 near x = 1e-3) by ~1e-13;
        # scipy flushes the subnormal range to 0
        for theta in (1.0, 2.0):
            c = math.pi * theta * theta / 2.0
            x = np.logspace(-3, 6, 2000)
            want = stats.levy.cdf(x, scale=c)
            got = positive_half_cdf(x, theta)
            normal = want >= np.finfo(float).tiny
            cond = 1.0 + c / x[normal]  # 1 + 2 z^2, z = sqrt(c / (2x))
            assert np.all(np.abs(got[normal] - want[normal]) <= 1e-14 * cond * want[normal])
            assert np.all(got[~normal] < np.finfo(float).tiny)
            body = want > 1e-3
            np.testing.assert_allclose(got[body], want[body], rtol=1e-14, atol=0.0)
        assert positive_half_cdf(0.0, 1.0) == 0.0 and positive_half_cdf(-1.0, 1.0) == 0.0
        assert isinstance(positive_half_cdf(2.0, 1.0), float)

    def test_golden_cdf(self):
        params = StableParams(0.5, SpectralMeasure.positive_half_line(1.0))
        draws, plan = sample_stable_many(params, 10_000, RngStream(75))
        xs = np.sort(draws[:, 0])
        gap = np.max(np.abs(np.arange(1, 10_001) / 10_000 - positive_half_cdf(xs, 1.0)))
        assert gap <= 0.02
        assert plan.atom_terms == (plan.nterms,)

    def test_scaling_law(self):
        for alpha, symmetric in [(0.5, False), (1.5, True)]:
            mk = SpectralMeasure.symmetric_pair if symmetric else SpectralMeasure.positive_half_line
            nt = 5000 if alpha >= 1 else None
            a, _ = sample_stable_many(StableParams(alpha, mk(1.0)), 10_000,
                                      RngStream(76, int(alpha * 10)), nterms=nt)
            b, _ = sample_stable_many(StableParams(alpha, mk(2.0)), 10_000,
                                      RngStream(77, int(alpha * 10)), nterms=nt)
            _, p = ks_two_sample(2.0 ** (1.0 / alpha) * a[:, 0], b[:, 0])
            assert p > 0.01

    def test_strict_stability(self):
        params = StableParams(0.8, SpectralMeasure.symmetric_pair(1.0))
        t = 0.5
        x1, _ = sample_stable_many(params, 10_000, RngStream(78, 1))
        x2, _ = sample_stable_many(params, 10_000, RngStream(78, 2))
        x0, _ = sample_stable_many(params, 10_000, RngStream(78, 3))
        combo = t ** (1 / 0.8) * x1[:, 0] + (1 - t) ** (1 / 0.8) * x2[:, 0]
        _, p = ks_two_sample(combo, x0[:, 0])
        assert p > 0.01

    def test_symmetric_one_matches_cauchy(self):
        # two equal atoms at +-1 with alpha = 1: the law is Cauchy with scale
        # theta*pi/2 (matched through the characteristic function)
        theta = 1.0
        params = StableParams(1.0, SpectralMeasure.symmetric_pair(theta))
        draws, _ = sample_stable_many(params, 10_000, RngStream(79), nterms=2000)
        gamma = theta * math.pi / 2.0
        rs = np.sort(np.abs(draws[:, 0]))
        cdf = 2.0 / math.pi * np.arctan(rs / gamma)
        gap = np.max(np.abs(np.arange(1, 10_001) / 10_000 - cdf))
        assert gap <= 0.025


def _merged_samples(params, nsamples, rng, nterms):
    """The merged LePage series, as a law oracle for the per-atom kernel.

    One arrival process of rate theta; each term picks its atom by a uniform
    mark.  For alpha < 1 the discarded tail's mean theta^(1/alpha) S1(N) times
    the mean direction is added back; a centered law needs no compensation.
    """
    spec = params.spectral
    alpha = params.alpha
    theta = spec.total_mass
    gen = rng.generator()
    gam = np.cumsum(gen.exponential(scale=1.0 / theta, size=(nsamples, nterms)), axis=1)
    coef = gam ** (-1.0 / alpha)
    which = np.minimum(np.searchsorted(np.cumsum(spec.probabilities), gen.random(gam.shape), side="right"),
                       spec.weights.size - 1)
    x = np.zeros((nsamples, spec.dim))
    for i, u in enumerate(spec.directions):
        x += np.where(which == i, coef, 0.0).sum(axis=1)[:, None] * u
    if alpha < 1.0:
        beta = 1.0 / alpha
        s1 = math.exp(gammaln(nterms + 1 - beta) - gammaln(nterms)) / (beta - 1.0)
        x += theta**beta * s1 * spec.mean_direction
    return x


def _order_statistic_arrivals(gen, w, rows, n):
    """The draw contract: the last kept arrival G ~ Gamma(n, 1/w), then n - 1
    arrivals G (1 - U); G is the last column."""
    last = gen.gamma(n, 1.0 / w, size=rows)
    return np.column_stack([last[:, None] * (1.0 - gen.random((rows, n - 1))), last])


def _cumsum_arrivals(gen, w, rows, n):
    """The arrival times as cumulated exponential gaps of mean 1/w: the
    series itself, and the law oracle for the order-statistics draws."""
    return np.cumsum(gen.exponential(scale=1.0 / w, size=(rows, n)), axis=1)


def _per_atom_reference(params, nsamples, rng, nterms, arrivals=_order_statistic_arrivals):
    """Per-atom LePage samples, atom by atom on whole blocks, from the
    (rows, N_j) ``arrivals`` of each atom, whose last column is the last kept
    arrival.

    Also returns each sample's sum of |terms| and |compensators|, which
    bounds the rounding that a different summation order can introduce.
    """
    plan = truncation_plan(params, nterms=nterms)
    spec = params.spectral
    alpha = params.alpha
    batch = max(1, min(nsamples, stable._BATCH_ELEMENTS // plan.nterms))
    out, scale = [], []
    for index, got in enumerate(range(0, nsamples, batch)):
        take = min(batch, nsamples - got)
        gen = rng.substream(index).generator()
        x = np.zeros((take, spec.dim))
        size = np.zeros(take)
        for w, u, n in zip(spec.weights, spec.directions, plan.atom_terms):
            gam = arrivals(gen, w, take, n)
            last = gam[:, -1]
            if alpha == 1.0:
                comp = w * np.log(last)
            else:
                comp = w * last ** (1.0 - 1.0 / alpha) / (1.0 - 1.0 / alpha)
            coef = gam ** (-1.0 / alpha)
            x += (coef.sum(axis=1) - comp)[:, None] * u
            size += coef.sum(axis=1) + np.abs(comp)
        out.append(x)
        scale.append(size)
    return np.concatenate(out), np.concatenate(scale)


def _serial_replay(params, nbatch, atom_terms, gen):
    """The LePage draw contract on one generator in one thread: per atom the
    gamma array of last kept arrivals G, then the (rows, N_j - 1) uniforms in
    row chunks of ``_CHUNK_ELEMENTS``, each row summed as the kernel sums it."""
    spec = params.spectral
    alpha = params.alpha
    sums = np.empty((nbatch, len(atom_terms)))
    last = np.empty_like(sums)
    for j, (w, n) in enumerate(zip(spec.weights, atom_terms)):
        last[:, j] = gen.gamma(n, 1.0 / w, size=nbatch)
        sums[:, j] = stable._neg_power(last[:, j].copy(), alpha)
        rows = max(1, stable._CHUNK_ELEMENTS // (n - 1))
        for r0 in range(0, nbatch, rows):
            g = last[r0:r0 + rows, j, None] * (1.0 - gen.random((min(rows, nbatch - r0), n - 1)))
            sums[r0:r0 + rows, j] += stable._neg_power(g, alpha).sum(axis=1)
    if alpha == 1.0:
        return (sums - spec.weights * np.log(last)) @ spec.directions
    return (sums - spec.weights * last ** (1.0 - 1.0 / alpha) / (1.0 - 1.0 / alpha)) @ spec.directions


@contextlib.contextmanager
def _workers(count):
    """Run the LePage kernel at ``count`` workers: the CPU affinity it reads
    is faked, and its pool is built afresh and shut down afterwards."""
    real = os.sched_getaffinity
    os.sched_getaffinity = lambda pid: set(range(count))
    stable._pool.cache_clear()
    try:
        assert stable._pool(os.getpid())[0] == count
        yield
    finally:
        pool = stable._pool(os.getpid())[1]
        if pool is not None:
            pool.shutdown()
        stable._pool.cache_clear()
        os.sched_getaffinity = real


class TestPool:
    def test_one_worker_per_usable_cpu(self):
        workers, pool = stable._pool(os.getpid())
        assert workers == len(os.sched_getaffinity(0))
        assert (pool is None) == (workers == 1)

    def test_importing_builds_no_pool(self):
        code = "import sys, pivotal; sys.exit('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(stable.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestJumped:
    @pytest.mark.parametrize("drawn", range(9))  # every buffer position, fresh and refilled
    def test_matches_sequential_outputs(self, drawn):
        seq = RngStream(84).generator().bit_generator.random_raw(drawn + 44)
        for outputs in range(40):
            gen = RngStream(84).generator()
            gen.bit_generator.random_raw(drawn)
            copy = stable._jumped(gen, outputs)
            assert np.array_equal(copy.bit_generator.random_raw(4), seq[drawn + outputs:drawn + outputs + 4])
            # the source is where it was
            assert np.array_equal(gen.bit_generator.random_raw(4), seq[drawn:drawn + 4])

    def test_a_long_jump(self):
        gen = RngStream(84).generator()
        gen.bit_generator.random_raw(5)
        copy = stable._jumped(gen, 10**7 + 3)
        gen.bit_generator.random_raw(10**7 + 3, output=False)
        assert np.array_equal(copy.bit_generator.random_raw(6), gen.bit_generator.random_raw(6))

    def test_one_output_per_double(self):
        gen = RngStream(84).generator()
        gen.gamma(30.0, size=7)  # leaves the buffer part spent
        want = stable._jumped(gen, 0).random(20)[13:]
        assert np.array_equal(stable._jumped(gen, 13).random(7), want)


class TestLepageKernel:
    CASES = [
        (0.5, SpectralMeasure.positive_half_line(1.0), None),
        (0.5, SpectralMeasure.symmetric_pair(2.0), 300),
        (0.8, SpectralMeasure.symmetric_pair(1.0), 700),
        (1.0, SpectralMeasure.symmetric_pair(1.0), 1000),
        (1.5, SpectralMeasure.symmetric_pair(1.0), 2000),
        (0.8, SpectralMeasure.axis_symmetric(1.0, dim=2), 800),
        (1.5, SpectralMeasure.axis_symmetric(1.0, dim=2), 500),
        (0.5, UNCENTRED_3, 200),
        (0.8, UNCENTRED_3, 600),
        (1.2, CENTRED_3, 600),
    ]

    @pytest.mark.parametrize("alpha, spec, nterms", CASES)
    def test_matches_per_atom_reference(self, monkeypatch, alpha, spec, nterms):
        # a small block size gives several blocks, each atom in several
        # chunks ending in a partial one
        monkeypatch.setattr(stable, "_BATCH_ELEMENTS", 300_000)
        params = StableParams(alpha, spec)
        got, _ = sample_stable_many(params, 1500, RngStream(86, 3), nterms=nterms)
        want, scale = _per_atom_reference(params, 1500, RngStream(86, 3), nterms)
        # only the summation order differs: rounding stays within a few
        # nterms * eps of the sum of |terms|
        assert np.all(np.abs(got - want) <= 1e-12 * scale[:, None])

    @pytest.mark.parametrize("alpha, spec, nterms", [CASES[0], CASES[2], CASES[7]])
    def test_chunking_does_not_change_samples(self, monkeypatch, alpha, spec, nterms):
        params = StableParams(alpha, spec)
        whole, _ = sample_stable_many(params, 400, RngStream(87), nterms=nterms)
        monkeypatch.setattr(stable, "_CHUNK_ELEMENTS", 3)  # one row per chunk
        rows, _ = sample_stable_many(params, 400, RngStream(87), nterms=nterms)
        assert np.array_equal(whole, rows)

    def test_kernel_draws_one_gamma_then_uniforms_per_atom(self, monkeypatch):
        # 250 samples in chunks of at most 2000 uniforms, at every worker
        # count: each atom draws its gamma array, then (rows, N_j - 1)
        # uniforms until 250 rows are drawn, all from one stream
        monkeypatch.setattr(stable, "_CHUNK_ELEMENTS", 2000)
        params = StableParams(0.8, UNCENTRED_3)
        plan = truncation_plan(params, nterms=300)
        want = _serial_replay(params, 250, plan.atom_terms, RngStream(88).generator())
        for count in (1, 2, 4):
            with _workers(count):
                got = stable._sample_batch(params, 250, plan.atom_terms, RngStream(88).generator())
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha, spec, nsamples, nterms", [
        (0.3, SpectralMeasure.positive_half_line(1.0), 5, None),  # one chunk, so one part
        (0.5, UNCENTRED_3, 3000, 300),
        (0.8, SpectralMeasure.symmetric_pair(1.0), 2500, None),
        (1.0, CENTRED_3, 1200, 1000),
        (1.5, SpectralMeasure.axis_symmetric(1.0, dim=2), 700, 2000),
    ])
    def test_equal_at_1_2_and_4_workers(self, monkeypatch, alpha, spec, nsamples, nterms):
        # several blocks, each atom in parts of whole chunks ending in a partial one
        monkeypatch.setattr(stable, "_BATCH_ELEMENTS", 600_000)
        params = StableParams(alpha, spec)
        with monkeypatch.context() as m:
            m.setattr(stable, "_sample_batch", _serial_replay)
            want, _ = sample_stable_many(params, nsamples, RngStream(82), nterms=nterms)
        for count in (1, 2, 4):
            with _workers(count):
                got, _ = sample_stable_many(params, nsamples, RngStream(82), nterms=nterms)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha, spec, nterms", [
        (0.5, SpectralMeasure.positive_half_line(1.0), 100),
        (0.8, UNCENTRED_3, 100),
        (1.0, CENTRED_3, 100),
        (1.5, SpectralMeasure.symmetric_pair(1.0), 100),
    ])
    def test_law_matches_the_arrival_series(self, alpha, spec, nterms):
        # the order-statistics draws against the cumulated exponential gaps
        # at the same plan, 2 x 10^5 samples a side, projected on a direction
        # that every atom of the planar measures reaches
        params = StableParams(alpha, spec)
        got, _ = sample_stable_many(params, 200_000, RngStream(85, 1), nterms=nterms)
        want, _ = _per_atom_reference(params, 200_000, RngStream(85, 2), nterms, _cumsum_arrivals)
        axis = np.array([0.6, 0.8]) if spec.dim == 2 else np.array([1.0])
        _, p = ks_two_sample(got @ axis, want @ axis)
        assert p > 0.01

    def test_a_zero_uniform_stays_finite(self, monkeypatch):
        # random() = 0 is the arrival G (1 - 0) = G, not 0^(-1/alpha) = inf;
        # every part draws the fixed values from their start
        monkeypatch.setattr(stable, "_jumped", lambda gen, outputs: gen)
        gen = _EdgeDraws(gamma=[10.0], random=[0.0, 0.5])
        x = stable._sample_batch(StableParams(0.5, SpectralMeasure.positive_half_line(1.0)), 4, (10,), gen)
        assert np.all(np.isfinite(x))

    def test_an_infinite_draw_raises(self, monkeypatch):
        # at alpha = 0.02 the uniform arrival G 2^-53 has the term
        # (G 2^-53)^(-50), far above the largest double
        monkeypatch.setattr(stable, "_jumped", lambda gen, outputs: gen)
        params = StableParams(0.02, SpectralMeasure.positive_half_line(1.0))
        plan = truncation_plan(params, nterms=200)
        finite = _EdgeDraws(gamma=[200.0], random=[0.5])
        assert np.all(np.isfinite(stable._sample_batch(params, 3, plan.atom_terms, finite)))
        gen = _EdgeDraws(gamma=[200.0], random=[0.5, 1.0 - 2.0**-53])
        with pytest.raises(FloatingPointError):
            stable._sample_batch(params, 3, plan.atom_terms, gen)

    def test_an_overflow_in_a_worker_raises_without_a_warning(self):
        # alpha = 0.02 and weight 1000: the last kept arrival G ~ 0.2 keeps
        # G^(-50) finite, but a uniform arrival G U below 6.8e-7 overflows,
        # and about 7 in 10^4 samples have one (2 at this seed)
        params = StableParams(0.02, SpectralMeasure.positive_half_line(1000.0))
        last = RngStream(83).substream(0).generator().gamma(200, 1e-3, size=10_000)
        assert np.all(np.isfinite(last**-50.0))
        for count in (1, 2):
            with _workers(count), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(FloatingPointError):
                    sample_stable_many(params, 10_000, RngStream(83), nterms=200)

    @pytest.mark.parametrize("alpha, spec, nterms, seed", [
        (0.5, UNCENTRED_3, 300, 1),
        (0.8, UNCENTRED_3, 1000, 2),
        (1.0, CENTRED_3, 1000, 3),
        (1.2, CENTRED_3, 1000, 4),
        (1.5, CENTRED_3, 1000, 5),
    ])
    def test_law_matches_merged_series(self, alpha, spec, nterms, seed):
        # both coordinates, each at p > 0.005 (0.01 over the two)
        params = StableParams(alpha, spec)
        got, _ = sample_stable_many(params, 4000, RngStream(89, seed), nterms=nterms)
        want = _merged_samples(params, 4000, RngStream(90, seed), nterms)
        for axis in range(2):
            _, p = ks_two_sample(got[:, axis], want[:, axis])
            assert p > 0.005


class _EdgeDraws:
    """A generator that hands out fixed values per method (``random``,
    ``standard_exponential``, ``gamma``), each tiled over the requested shape;
    it records the calls in order."""

    def __init__(self, **values):
        self.values = {name: np.asarray(v, dtype=float) for name, v in values.items()}
        self.calls = []

    def _tile(self, name, shape):
        self.calls.append((name, shape))
        return np.resize(self.values[name], shape)

    def random(self, shape=None, out=None):
        if out is None:
            return self._tile("random", shape)
        out[...] = self._tile("random", out.shape)
        return out

    def standard_exponential(self, shape):
        return self._tile("standard_exponential", shape)

    def gamma(self, shape, scale, size):
        return self._tile("gamma", size)


def _cauchy_projection(spec, axis):
    """Law of coordinate ``axis`` of a centered alpha = 1 vector: Cauchy with
    scale sum |a_j| w_j pi/2 and location -sum a_j w_j log|a_j|, a_j = u_j[axis]
    (the skewness sum a_j w_j vanishes because the measure is centered)."""
    a = spec.directions[:, axis]
    w = spec.weights
    loc = -float(np.sum(w * a * np.log(np.where(a != 0.0, np.abs(a), 1.0))))
    return stats.cauchy(loc=loc, scale=float(np.sum(np.abs(a) * w)) * math.pi / 2.0)


class TestExactSampler:
    @pytest.mark.parametrize("alpha, spec, nterms, seed", [
        (0.5, SpectralMeasure.positive_half_line(1.0), None, 1),
        (0.8, UNCENTRED_3, None, 2),
        (1.0, SpectralMeasure.symmetric_pair(1.0), 1000, 3),
        (1.5, SpectralMeasure.symmetric_pair(1.0), 2000, 4),
    ])
    def test_law_matches_lepage(self, alpha, spec, nterms, seed):
        # every coordinate at p > 0.005
        params = StableParams(alpha, spec)
        exact = sample_stable_exact(params, 10_000, RngStream(92, seed))
        lepage, _ = sample_stable_many(params, 10_000, RngStream(93, seed), trunc_tol=3e-3, nterms=nterms)
        for axis in range(params.dim):
            _, p = ks_two_sample(exact[:, axis], lepage[:, axis])
            assert p > 0.005

    def test_centred_planar_alpha_one_keeps_the_log_drift(self):
        # unequal weights: sum_j u_j w_j log w_j = (1.2 log 1.2, 0) does not
        # cancel, and without it the first coordinate fails its Cauchy oracle
        params = StableParams(1.0, CENTRED_3)
        draws = sample_stable_exact(params, 20_000, RngStream(94))
        drift = (CENTRED_3.weights * np.log(CENTRED_3.weights)) @ CENTRED_3.directions
        assert drift[0] == pytest.approx(1.2 * math.log(1.2), rel=1e-15) and drift[1] == 0.0
        for axis in range(2):
            assert stats.kstest(draws[:, axis], _cauchy_projection(CENTRED_3, axis).cdf).pvalue > 0.01
        assert stats.kstest(draws[:, 0] - drift[0], _cauchy_projection(CENTRED_3, 0).cdf).pvalue < 1e-6
        lepage, _ = sample_stable_many(params, 20_000, RngStream(95), nterms=1000)
        for axis in range(2):
            assert ks_two_sample(draws[:, axis], lepage[:, axis])[1] > 0.01

    def test_half_index_matches_erfc(self):
        draws = sample_stable_exact(StableParams(0.5, SpectralMeasure.positive_half_line(1.3)), 20_000,
                                    RngStream(96))
        assert np.all(draws > 0.0)
        assert stats.kstest(draws[:, 0], lambda x: positive_half_cdf(x, 1.3)).pvalue > 0.01

    def test_alpha_08_matches_levy_stable(self):
        # sigma^alpha = w Gamma(1 - alpha) cos(pi alpha / 2), beta = 1, in
        # scipy's S1 parametrization
        alpha, w = 0.8, 1.3
        sigma = (w * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)
        draws = sample_stable_exact(StableParams(alpha, SpectralMeasure.positive_half_line(w)), 5000,
                                    RngStream(97))
        assert stats.kstest(draws[:, 0], stats.levy_stable(alpha, 1.0, scale=sigma).cdf).pvalue > 0.01

    def test_same_stream_same_array(self):
        params = StableParams(0.8, UNCENTRED_3)
        a = sample_stable_exact(params, 3000, RngStream(98, 5))
        assert np.array_equal(a, sample_stable_exact(params, 3000, RngStream(98, 5)))
        assert not np.array_equal(a, sample_stable_exact(params, 3000, RngStream(98, 6)))

    @pytest.mark.parametrize("alpha, spec", [(0.7, UNCENTRED_3), (1.0, CENTRED_3)])
    def test_block_i_draws_from_substream_i(self, monkeypatch, alpha, spec):
        # 1000 samples in blocks of 300: three full blocks and one of 100
        monkeypatch.setattr(stable, "_EXACT_BLOCK", 300)
        params = StableParams(alpha, spec)
        rng = RngStream(99, 2)
        got = sample_stable_exact(params, 1000, rng)
        want = np.concatenate([
            stable._exact_block(alpha, spec.weights, n, rng.substream(i).generator()) @ spec.directions
            for i, n in enumerate((300, 300, 300, 100))])
        assert np.array_equal(got, want)

    def test_uniforms_then_exponentials_one_array_each(self):
        gen = _EdgeDraws(random=[0.25], standard_exponential=[1.0])
        stable._exact_block(0.8, UNCENTRED_3.weights, 7, gen)
        assert gen.calls == [("random", (7, 3)), ("standard_exponential", (7, 3))]

    @pytest.mark.parametrize("alpha, spec", [
        (0.5, SpectralMeasure.positive_half_line(1.0)),
        (0.8, SpectralMeasure.positive_half_line(1.0)),
        (1.0, CENTRED_3),
        (1.5, CENTRED_3),
    ])
    def test_edge_draws_stay_finite(self, alpha, spec):
        # U at both ends of [0, 1) puts V next to -pi/2 and +pi/2; 2^-64 lies
        # below the smallest positive exponential NumPy's ziggurat returns,
        # and 45 above its largest
        uniforms = [0.0, 1.0 - 2.0**-53, 2.0**-53, 0.5, 0.5 - 2.0**-53]
        exponentials = [2.0**-64, 1.0, 45.0]
        gen = _EdgeDraws(random=uniforms, standard_exponential=exponentials)
        y = stable._exact_block(alpha, spec.weights, 15, gen)  # every pairing of the two lists
        assert np.all(np.isfinite(y))
        if alpha < 1.0:
            assert np.all(y >= 0.0)

    def test_an_infinite_draw_raises(self):
        # W = 0 sends the positive law to +infinity
        gen = _EdgeDraws(random=[0.3], standard_exponential=[0.0])
        with pytest.raises(FloatingPointError):
            stable._exact_block(0.5, np.array([1.0]), 4, gen)


class TestTruncationBound:
    @pytest.mark.parametrize("alpha, nterms", [(0.5, None), (0.8, 50)])
    def test_rms_gap_to_a_long_continuation_meets_the_bound(self, alpha, nterms):
        # the N-term sample and its M-term continuation (the arrivals after
        # the last kept one G, as G plus fresh exponential gaps) differ by a
        # martingale increment of RMS sqrt(bound(N)^2 - bound(M)^2)
        params = StableParams(alpha, SpectralMeasure.positive_half_line(1.0))
        short = truncation_plan(params, nterms=nterms)
        long = truncation_plan(params, nterms=1500)
        a = stable._sample_batch(params, 10_000, short.atom_terms, RngStream(91).generator())[:, 0]
        last = RngStream(91).generator().gamma(short.atom_terms[0], 1.0, size=10_000)  # the kernel's G

        def compensator(g):
            return g ** (1.0 - 1.0 / alpha) / (1.0 - 1.0 / alpha)

        fresh = RngStream(92).generator()
        b = np.empty_like(a)
        for r0 in range(0, 10_000, 1000):
            g = last[r0:r0 + 1000, None] + np.cumsum(
                fresh.exponential(size=(1000, long.nterms - short.nterms)), axis=1)
            b[r0:r0 + 1000] = (a[r0:r0 + 1000] + (g ** (-1.0 / alpha)).sum(axis=1)
                               - compensator(g[:, -1]) + compensator(last[r0:r0 + 1000]))
        rms = math.sqrt(float(np.mean((a - b) ** 2)))
        assert rms <= 1.15 * short.tail_std_bound
        assert rms >= 0.85 * math.sqrt(short.tail_std_bound**2 - long.tail_std_bound**2)


class TestLevyIntegral:
    PARAMS = StableParams(0.8, SpectralMeasure.axis_symmetric(2.0, dim=2))

    def test_far_indicator(self):
        val = levy_integral(self.PARAMS, lambda z: 1.0 if np.linalg.norm(z) > 1 else 0.0,
                            tol=1e-6, envelope=RadialEnvelope(0.0, 2.0, 1.0))
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_zero(self):
        val = levy_integral(self.PARAMS, lambda z: 0.0, tol=1e-8,
                            envelope=RadialEnvelope(0.0, 2.0, 0.0))
        assert val == 0.0

    def test_homogeneity(self):
        def shell(a, b):
            return lambda z: 1.0 if a < float(np.linalg.norm(z)) <= b else 0.0

        base = levy_integral(self.PARAMS, shell(1.0, 2.0), tol=1e-9,
                             envelope=RadialEnvelope(0.0, 2.0, 1.0))
        assert base == pytest.approx(2.0 * (1.0 - 2.0**-0.8), abs=1e-8)
        for c in (0.5, 2.0, 4.0):
            small = 1.5 / (c * c) if c < 1.0 else 0.0
            val = levy_integral(self.PARAMS, shell(c, 2.0 * c), tol=1e-9,
                                envelope=RadialEnvelope(small, 2.0, 1.0))
            assert val / base == pytest.approx(c**-0.8, abs=1e-6)

    def test_envelope_violation_detected(self):
        with pytest.raises(EnvelopeError):
            levy_integral(self.PARAMS, lambda z: 1.0, tol=1e-6,
                          envelope=RadialEnvelope(1.0, 2.0, 1.0))

    def test_exponent_must_clear_alpha(self):
        with pytest.raises(EnvelopeError):
            levy_integral(self.PARAMS, lambda z: 0.0, tol=1e-6,
                          envelope=RadialEnvelope(1.0, 0.5, 1.0))


class TestCdfIdentity:
    def test_quadrature_residuals(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            res = dimone_residual(0.5, 1.0, x, tol=1e-7)
            assert abs(res.residual) <= 1e-3

    def test_known_left_side(self):
        res = dimone_residual(0.5, 1.0, 1.0, tol=1e-7)
        assert res.lhs == pytest.approx(0.5 * math.exp(-math.pi / 4.0), abs=1e-12)

    def test_vanishes_at_origin(self):
        res = dimone_residual(0.5, 1.0, 1e-3, tol=1e-9)
        assert abs(res.lhs) <= 1e-6 and abs(res.rhs) <= 1e-6

    def test_monte_carlo_route(self):
        res = dimone_residual(0.7, 1.0, 1.0, method="monte_carlo", reps=100_000,
                              rng=RngStream(80))
        assert abs(res.residual) <= 4.0 * res.stderr
        assert not res.sign_flip_suspected

    def test_method_validation(self):
        with pytest.raises(ValueError):
            dimone_residual(0.7, 1.0, 1.0, method="closed_form_levy")
        with pytest.raises(ValueError):
            dimone_residual(0.5, 1.0, 1.0, method="unknown")


class TestDensityIdentity:
    def test_quadrature_residuals(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            res = alphadens1_residual(0.5, 1.0, x, tol=1e-7)
            assert abs(res.residual) <= 1e-3

    def test_consistent_with_cdf_identity(self):
        # d/dx of the CDF identity's two sides, by central difference,
        # reproduces the density identity
        h = 1e-4
        x = 1.3

        def side(fn):
            up = dimone_residual(0.5, 1.0, x + h, tol=1e-9)
            dn = dimone_residual(0.5, 1.0, x - h, tol=1e-9)
            return (fn(up) - fn(dn)) / (2.0 * h)

        res = alphadens1_residual(0.5, 1.0, x, tol=1e-9)
        assert side(lambda r: r.lhs) == pytest.approx(res.lhs, abs=1e-4)
        assert side(lambda r: r.rhs) == pytest.approx(res.rhs, abs=1e-4)

    def test_density_derivative_is_elementwise(self):
        # the array call gives each scalar call's value bit for bit, 0 off the
        # support, and the central difference of the density
        x = np.concatenate([[-1.0, 0.0], np.logspace(-3, 1, 50)])
        got = positive_half_pdf_deriv(x, 1.3)
        assert got.tolist() == [positive_half_pdf_deriv(float(v), 1.3) for v in x]
        assert got[:2].tolist() == [0.0, 0.0]
        h = 1e-6 * x[2:]
        fd = (positive_half_pdf(x[2:] + h, 1.3) - positive_half_pdf(x[2:] - h, 1.3)) / (2.0 * h)
        assert np.allclose(got[2:], fd, rtol=1e-6, atol=1e-12)

    def test_monte_carlo_route(self):
        res = alphadens1_residual(0.5, 1.0, 1.0, method="monte_carlo", reps=200_000,
                                  rng=RngStream(81))
        assert abs(res.residual) <= 4.0 * res.stderr


class TestRadiusIdentity:
    def test_positive_reduction_matches_truth(self):
        params = StableParams(0.5, SpectralMeasure.positive_half_line(1.0))
        res = radvec_residual(params, 1.0, 100_000, RngStream(82))
        assert abs(res.residual) <= 4.0 * res.stderr
        assert res.lhs == pytest.approx(0.5 * math.exp(-math.pi / 4.0), abs=0.02)
        assert not res.sign_flip_suspected

    def test_symmetric_one_dimensional(self):
        params = StableParams(1.0, SpectralMeasure.symmetric_pair(1.0))
        res = radvec_residual(params, 1.0, 100_000, RngStream(83))
        assert abs(res.residual) <= 4.0 * res.stderr

    def test_planar_four_atoms(self):
        params = StableParams(0.8, SpectralMeasure.axis_symmetric(1.0, dim=2))
        res = radvec_residual(params, 1.0, 100_000, RngStream(84))
        assert abs(res.residual) <= 4.0 * res.stderr

    def test_samples_are_exact_and_nterms_is_ignored(self):
        params = StableParams(0.8, SpectralMeasure.axis_symmetric(1.0, dim=2))
        res = radvec_residual(params, 1.0, 1000, RngStream(85))
        assert isinstance(res, IdentityResidual)
        assert radvec_residual(params, 1.0, 1000, RngStream(85), nterms=800) == res

    def test_validation(self):
        params = StableParams(0.5, SpectralMeasure.positive_half_line(1.0))
        with pytest.raises(ValueError):
            radvec_residual(params, -1.0, 1000, RngStream(85))
        with pytest.raises(ValueError):
            radvec_residual(params, 1.0, 10, RngStream(85))


def _radial_nodes_by_panel(alpha, eps, smax):
    """The radial rule panel by panel, with each panel's midpoint 0.5 * (u0 + u1)."""
    x, w = np.polynomial.legendre.leggauss(16)
    ss, ww = [], []
    for umax, sign in ((math.log(1.0 / eps), -1.0), (math.log(smax), 1.0)):
        n = max(1, math.ceil(umax / 1.5)) if umax > 0.0 else 0
        for i in range(n):
            u0, u1 = i * umax / n, (i + 1) * umax / n
            uh = 0.5 * (u1 - u0)
            u = 0.5 * (u0 + u1) + uh * x
            ss.append(np.exp(sign * u))
            ww.append(uh * w * alpha * np.exp(-sign * alpha * u))
    return np.concatenate(ss), np.concatenate(ww)


class TestRadialNodes:
    def test_equal_to_the_panel_by_panel_rule(self):
        # the panel rule's midpoint lo + half equals 0.5 * (u0 + u1) exactly: u1 - u0 is exact for u1 <= 2 u0
        gen = np.random.default_rng(162)
        for _ in range(300):
            args = (gen.uniform(0.05, 1.95), 10 ** gen.uniform(-9, -0.01), 10 ** gen.uniform(0.01, 4))
            got, want = stable._radial_nodes(*args), _radial_nodes_by_panel(*args)
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


def _distance_counts(xi, u, r, s):
    """The reference count: |xi + s u|^2 = |xi|^2 + 2 s <xi, u> + s^2 <= r^2 over an (n, nodes) matrix."""
    d2 = np.sum(xi * xi, axis=1)[:, None] + 2.0 * np.outer(xi @ u, s) + s**2
    return np.count_nonzero(d2 <= r * r, axis=0)


def _exact_inside(x, u, r, s):
    """|x + s u|^2 - r^2 in exact rational arithmetic, and a few ulps of its largest term."""
    gap = sum((Fraction(a) + Fraction(s) * Fraction(b)) ** 2 for a, b in zip(x, u)) - Fraction(r) ** 2
    return gap, 8.0 * np.finfo(float).eps * ((np.linalg.norm(x) + abs(s)) ** 2 + r * r)


class TestShiftedBallCounts:
    """stable._shifted_ball_counts, the interval count of the radius identity's right side."""

    @pytest.mark.parametrize("name, params", _RADVEC_CASES + [
        ("axis_3d", StableParams(0.8, SpectralMeasure.axis_symmetric(1.0, dim=3)))])
    def test_matches_the_distance_matrix(self, name, params):
        s = stable._radial_nodes(params.alpha, 1e-6, 50.0)[0]
        for j in range(3):
            xi = sample_stable_exact(params, 4000, RngStream(160, j))
            for u in params.spectral.directions:
                for r in (1.0, 0.3, 2.5):
                    got = stable._shifted_ball_counts(xi, u, r, s)
                    assert got.tolist() == _distance_counts(xi, u, r, s).tolist()

    @pytest.mark.parametrize("name, params", _RADVEC_CASES + [("uncentred_3", StableParams(0.5, UNCENTRED_3))])
    def test_exact_away_from_the_sphere(self, name, params):
        # samples on the sphere |xi + s u| = r of a node s, moved by up to 2^12 ulps per
        # coordinate; about half of them stay within a few ulps of it and are left out
        gen = np.random.default_rng(161)
        s_all = stable._radial_nodes(params.alpha, 1e-6, 50.0)[0]
        nodes = s_all[:: len(s_all) // 6]
        near = 0  # samples checked at their own node
        for u in params.spectral.directions:
            for s in nodes:
                for r in (1.0, 0.7):
                    v = gen.normal(size=(24, params.dim))
                    xi = -s * u + r * v / np.linalg.norm(v, axis=1, keepdims=True)
                    steps = gen.integers(-(2**12), 2**12 + 1, size=xi.shape) >> gen.integers(0, 13, size=xi.shape)
                    xi = xi + steps * np.spacing(xi)
                    for x in xi:
                        got = stable._shifted_ball_counts(x[None, :], u, r, nodes)
                        for count, t in zip(got.tolist(), nodes.tolist()):
                            gap, few_ulps = _exact_inside(x, u, r, t)
                            if abs(gap) > few_ulps:
                                assert count == int(gap <= 0), (x.tolist(), u.tolist(), r, t)
                                near += t == s
        assert near > 0.3 * params.spectral.weights.size * nodes.size * 2 * 24

    def test_empty_and_missed(self):
        u = np.array([1.0, 0.0])
        s = np.array([0.0, 1.0, 5.0])
        assert stable._shifted_ball_counts(np.empty((0, 2)), u, 1.0, s).tolist() == [0, 0, 0]
        # |y| > r: no shift along u reaches the ball, and no square root of a negative number is taken
        with np.errstate(invalid="raise"):
            assert stable._shifted_ball_counts(np.array([[0.0, 3.0]]), u, 1.0, s).tolist() == [0, 0, 0]
        assert stable._shifted_ball_counts(np.array([[-1.0, 0.0]]), u, 1.0, s).tolist() == [1, 1, 0]


class TestMonteCarloBlocks:
    """The Monte Carlo block contract shared by the three estimators."""

    POSITIVE = StableParams(0.5, SpectralMeasure.positive_half_line(1.0))

    @pytest.mark.parametrize("reps", [-5, 0, 1, 10, 49, 50, 99])
    def test_every_route_needs_100_reps(self, reps):
        with pytest.raises(ValueError, match="reps >= 100"):
            radvec_residual(self.POSITIVE, 1.0, reps, RngStream(96))
        with pytest.raises(ValueError, match="reps >= 100"):
            dimone_residual(0.7, 1.0, 1.0, method="monte_carlo", reps=reps, rng=RngStream(96))
        with pytest.raises(ValueError, match="reps >= 100"):
            alphadens1_residual(0.5, 1.0, 1.0, method="monte_carlo", reps=reps, rng=RngStream(96))

    def test_density_route_flags_opposite_sides(self):
        # the block estimate of the right side is negative here, the left side positive
        res = alphadens1_residual(0.5, 1.0, 1.0, method="monte_carlo", reps=20_000, rng=RngStream(152))
        assert res.lhs > 0.0 > res.rhs and res.sign_flip_suspected

    def test_left_over_samples_are_not_drawn(self):
        # 50 blocks of reps // 50 samples: at a fixed bandwidth 5049 reps give the result of 5000
        for j, params in enumerate((self.POSITIVE, StableParams(0.8, SpectralMeasure.axis_symmetric(1.0)))):
            assert (radvec_residual(params, 1.0, 5049, RngStream(97, j), bandwidth=0.1)
                    == radvec_residual(params, 1.0, 5000, RngStream(97, j), bandwidth=0.1))


# (lhs, rhs, residual, stderr, sign_flip_suspected), recorded before the
# estimators shared one block loop and the closed forms one route
_GOLDEN_RADVEC = {
    "positive_half": (0.24717612224387653, 0.23668124899445023, 0.010494873249426289, 0.013769533937346643, False),
    "symmetric_1d": (0.2979845473717845, 0.1746773299523245, 0.12330721741945994, 0.12087309978571828, False),
    "axis_2d": (0.31308975484224355, 0.3107462690101791, 0.0023434858320644514, 0.030691351792979514, False),
}
_GOLDEN_CLOSED = {  # x -> (dimone, alphadens1) at tol = 1e-7
    0.5: ((0.14699305810781044, 0.14699304677271952, 1.1335090921438251e-08, None, False),
          (0.3147992533723844, 0.31479925485637056, -1.4839861561810608e-09, None, False)),
    2.0: ((0.23873053003491101, 0.23873052542360307, 4.6113079466003626e-09, None, False),
          (-0.012808002549648145, -0.012808001571736463, -9.779116821873046e-10, None, False)),
}


def _fields(res):
    return (res.lhs, res.rhs, res.residual, res.stderr, res.sign_flip_suspected)


class TestIdentityGolden:
    """Bit-for-bit values of the estimators at 5000 reps on fixed streams."""

    def test_radius_identity_cases(self):
        for j, (name, params) in enumerate(_RADVEC_CASES):
            assert _fields(radvec_residual(params, 1.0, 5000, RngStream(140, j))) == _GOLDEN_RADVEC[name]

    def test_monte_carlo_routes(self):
        assert _fields(dimone_residual(0.7, 1.0, 1.0, method="monte_carlo", reps=5000, rng=RngStream(141))) == (
            0.018920169343208577, 0.011138915308461164, 0.007781254034747415, 0.006617183754215404, False)
        assert _fields(alphadens1_residual(0.5, 1.0, 1.0, method="monte_carlo", reps=5000,
                                           rng=RngStream(142))) == (
            0.17585207744286244, 0.09154431010546286, 0.08430776733739957, 0.026732298083415512, False)
        # below x = 1 the density route drops the radial nodes past x
        assert _fields(alphadens1_residual(0.5, 1.0, 0.5, method="monte_carlo", reps=5000,
                                           rng=RngStream(144))) == (
            0.471910033361084, 0.40883686096980126, 0.06307317239128273, 0.08401580560962871, False)

    @pytest.mark.parametrize("x", sorted(_GOLDEN_CLOSED))
    def test_closed_forms(self, x):
        cdf, density = _GOLDEN_CLOSED[x]
        assert _fields(dimone_residual(0.5, 1.0, x, tol=1e-7)) == cdf
        assert _fields(alphadens1_residual(0.5, 1.0, x, tol=1e-7)) == density
