import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from pivotal.point_process import (
    CountFunctional,
    DeclarationError,
    IntensityMeasure,
    PointConfiguration,
    ReplicateBlock,
    Statistic,
    ball_region,
    binomial_blocks,
    box_region,
    count_event,
    count_statistic,
    difference,
    hit_indicator,
    iterated_difference,
    poisson_blocks,
    sample_binomial,
    sample_poisson,
    total_mass,
    void_indicator,
)
from pivotal import point_process
from pivotal.rng import RngStream


class TestTotalMass:
    def test_unit_square(self):
        assert total_mass(IntensityMeasure.unit_square()) == 1.0

    def test_disk_quadrature_oracle(self):
        # membership-only region, no closed-form hint: quadrature path
        mu = IntensityMeasure(
            dim=2, bounds=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
            contains=ball_region([0.0, 0.0], 1.0),
        )
        assert total_mass(mu, tol=1e-4) == pytest.approx(math.pi, abs=2e-3)
        # the factory carries the exact value
        assert total_mass(IntensityMeasure.disk([0.0, 0.0], 1.0)) == pytest.approx(math.pi, abs=1e-14)

    @pytest.mark.parametrize("d, volume", [(1, 3.0), (2, math.pi * 1.5 * 1.5), (3, 4.5 * math.pi)])
    def test_disk_mass_in_every_dimension(self, d, volume):
        mu = IntensityMeasure.disk(np.zeros(d), 1.5, scale=2.0)
        assert total_mass(mu) == pytest.approx(2.0 * volume, rel=1e-14)
        pts = np.concatenate([blk.points for blk in poisson_blocks(mu, 50, RngStream(23, d))])
        assert pts.shape[1] == d and np.all(np.linalg.norm(pts, axis=1) <= 1.5)
        assert pts.shape[0] / 50 == pytest.approx(2.0 * volume, rel=0.3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan])
    def test_disk_radius_must_be_positive(self, d, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            IntensityMeasure.disk(np.zeros(d), radius)

    def test_linear_density(self):
        mu = IntensityMeasure.interval(0.0, 1.0, density=lambda p: 2.0 * p[:, 0], sup_density=2.0)
        assert total_mass(mu, tol=1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_scale_applies(self):
        assert total_mass(IntensityMeasure.unit_square(scale=3.5)) == 3.5

    def test_quadrature_runs_once_per_measure(self, monkeypatch):
        # the mass of a density without a closed form is integrated once and
        # shared by scaled copies; a non-default tolerance integrates again
        outer = []
        real = point_process.adaptive_simpson

        def counting(f, a, b, **kw):
            if (a, b) == (-1.0, 0.5):
                outer.append(kw.get("tol"))
            return real(f, a, b, **kw)

        monkeypatch.setattr(point_process, "adaptive_simpson", counting)
        mu = IntensityMeasure.box([[-1.0, 0.5], [0.0, 2.0]], density=lambda p: 1.0 + 0.5 * p[:, 0] * p[:, 1],
                                  sup_density=2.0)
        for i in range(50):
            sample_poisson(mu, RngStream(20, i))
        assert len(outer) == 1
        assert total_mass(mu.scaled(3.0)) == 3.0 * total_mass(mu)
        assert len(outer) == 1
        assert total_mass(mu, tol=1e-6) == pytest.approx(total_mass(mu), abs=1e-6)
        assert len(outer) == 2


class TestPoissonSampler:
    def test_zero_mass_always_empty(self):
        mu = IntensityMeasure.unit_square(scale=0.0)
        for i in range(20):
            assert len(sample_poisson(mu, RngStream(1, i))) == 0

    def test_count_distribution(self):
        mu = IntensityMeasure.unit_square(scale=4.0)
        counts = np.array([len(sample_poisson(mu, RngStream(2, i))) for i in range(10_000)])
        se = counts.std(ddof=1) / 100.0
        assert abs(counts.mean() - 4.0) < 4.0 * se

    def test_void_probability(self):
        mu = IntensityMeasure.unit_square(scale=2.0)
        B = box_region([0.0, 0.0], [0.5, 0.5])
        voids = np.array([sample_poisson(mu, RngStream(3, i)).count_in(B) == 0 for i in range(10_000)])
        p_hat = voids.mean()
        se = math.sqrt(p_hat * (1 - p_hat) / 10_000)
        assert abs(p_hat - math.exp(-0.5)) < 4.0 * se

    def test_disjoint_regions_uncorrelated(self):
        mu = IntensityMeasure.unit_square(scale=3.0)
        B1 = box_region([0.0, 0.0], [0.5, 1.0])
        B2 = box_region([0.5, 0.0], [1.0, 1.0])
        n1 = np.empty(10_000)
        n2 = np.empty(10_000)
        for i in range(10_000):
            phi = sample_poisson(mu, RngStream(4, i))
            n1[i] = phi.count_in(B1)
            n2[i] = phi.count_in(B2)
        prods = (n1 - n1.mean()) * (n2 - n2.mean())
        cov = prods.mean()
        se = prods.std(ddof=1) / 100.0
        assert abs(cov) < 4.0 * se

    def test_density_shape_via_rejection(self):
        mu = IntensityMeasure.interval(0.0, 1.0, scale=5.0,
                                       density=lambda p: 2.0 * p[:, 0], sup_density=2.0)
        pts = np.concatenate(
            [sample_poisson(mu, RngStream(5, i)).points[:, 0] for i in range(3000)]
        )
        # under h(x)=2x the point fraction below 1/2 is 1/4
        frac = (pts < 0.5).mean()
        se = math.sqrt(frac * (1 - frac) / pts.size)
        assert abs(frac - 0.25) < 4.0 * se


class TestEnvelope:
    @staticmethod
    def cubic(sup: float) -> IntensityMeasure:
        return IntensityMeasure.interval(0.0, 1.0, density=lambda p: 3.0 * p[:, 0] ** 2,
                                         sup_density=sup)

    def test_exceeded_envelope_raises(self):
        with pytest.raises(DeclarationError):
            sample_binomial(self.cubic(1.0), 1000, RngStream(16))

    def test_true_envelope_samples_the_law(self):
        # mean 3/4 and variance 3/5 - 9/16 under the density 3x^2
        pts = sample_binomial(self.cubic(3.0), 20_000, RngStream(16)).points[:, 0]
        se = math.sqrt((0.6 - 0.5625) / pts.size)
        assert abs(pts.mean() - 0.75) < 5.0 * se

    def test_nothing_accepted_raises(self):
        mu = IntensityMeasure.interval(0.0, 1.0, density=lambda p: np.zeros(p.shape[0]))
        with pytest.raises(DeclarationError):
            point_process._sample_points(mu, 5, RngStream(17).generator())

    @pytest.mark.parametrize("answer", ["density", "contains"])
    def test_one_answer_per_batch_raises(self, answer):
        # a scalar for the whole proposal batch would be broadcast to every
        # proposal, and with base_mass declared no quadrature calls it first
        mu = IntensityMeasure(dim=2, bounds=[[0.0, 1.0], [0.0, 1.0]], base_mass=0.5,
                              **{answer: lambda p: p[0, 0] < 0.5})
        with pytest.raises(TypeError):
            list(point_process.binomial_blocks(mu, 2000, 1, RngStream(18)))


class TestPlainSampler:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 5000])
    def test_plain_box_draws_as_one_uniform_array(self, n, dim):
        # no density and no membership test: the rows of one (max(n, 16), dim)
        # uniform draw on the box, and the stream moves on by exactly those draws
        bounds = [[-1.0, 2.5], [0.25, 0.75]][:dim]
        mu = IntensityMeasure.box(bounds)
        gen, ref = RngStream(19, 10 * n + dim).generator(), RngStream(19, 10 * n + dim).generator()
        lo, hi = np.array(bounds).T
        expected = lo + (hi - lo) * ref.random((max(n, 16), dim))[:n]
        out = point_process._sample_points(mu, n, gen)
        assert out.shape == (n, dim) and np.array_equal(out, expected)
        if n:
            assert gen.random() == ref.random()


class TestBinomialSampler:
    def test_zero_points(self):
        phi = sample_binomial(IntensityMeasure.unit_square(), 0, RngStream(6))
        assert len(phi) == 0

    def test_exact_count_inside(self):
        mu = IntensityMeasure.disk([0.0, 0.0], 1.0)
        phi = sample_binomial(mu, 5, RngStream(7))
        assert len(phi) == 5
        assert np.all(np.linalg.norm(phi.points, axis=1) <= 1.0)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            sample_binomial(IntensityMeasure.unit_square(scale=0.0), 3, RngStream(8))

    def test_region_proportion(self):
        mu = IntensityMeasure.unit_square()
        B = box_region([0.0, 0.0], [0.25, 1.0])
        hits = np.array([sample_binomial(mu, 1, RngStream(9, i)).count_in(B) for i in range(10_000)])
        p_hat = hits.mean()
        se = math.sqrt(p_hat * (1 - p_hat) / 10_000)
        assert abs(p_hat - 0.25) < 4.0 * se

    def test_partition_counts_multinomial(self):
        # conditional law given the total: chi-square GOF against the
        # multinomial cell probabilities, not rejected at the 1% level
        mu = IntensityMeasure.unit_square()
        quads = [box_region([x, y], [x + 0.5, y + 0.5])
                 for x in (0.0, 0.5) for y in (0.0, 0.5)]
        m_total = 8
        counts = np.zeros(4)
        for i in range(10_000):
            phi = sample_binomial(mu, m_total, RngStream(10, i))
            for j, B in enumerate(quads):
                counts[j] += phi.count_in(B)
        res = stats.chisquare(counts, f_exp=np.full(4, counts.sum() / 4.0))
        assert res.pvalue > 0.01


class TestDifferenceOperators:
    def test_count_difference_is_one(self):
        g = count_statistic()
        phi = PointConfiguration(2, [[0.1, 0.2]])
        assert difference(g, phi, [0.5, 0.5]) == 1.0
        assert difference(g, PointConfiguration.empty(2), [0.5, 0.5]) == 1.0

    def test_constant_difference_is_zero(self):
        g = Statistic(eval=lambda phi: 7.0, bound=7.0)
        assert difference(g, PointConfiguration.empty(2), [0.5, 0.5]) == 0.0

    def test_hit_indicator_from_empty(self):
        g = hit_indicator(box_region([0.0, 0.0], [0.5, 0.5]))
        assert difference(g, PointConfiguration.empty(2), [0.25, 0.25]) == 1.0
        assert difference(g, PointConfiguration.empty(2), [0.75, 0.75]) == 0.0

    def test_first_order_matches_difference(self):
        g = hit_indicator(ball_region([0.0, 0.0], 0.5))
        phi = PointConfiguration(2, [[0.9, 0.9]])
        z = np.array([0.1, 0.1])
        assert iterated_difference(g, phi, [z]) == difference(g, phi, z)

    def test_order_zero_is_the_statistic(self):
        g = Statistic(eval=lambda phi: float(len(phi)) ** 2 + 0.5)
        phi = PointConfiguration(2, [[0.1, 0.2], [0.3, 0.4]])
        for none in (np.empty((0, 2)), []):
            assert iterated_difference(g, phi, none) == g.value(phi) == 4.5
        assert iterated_difference(g, PointConfiguration(0, np.empty((3, 0))), np.empty((0, 0))) == 9.5

    def test_empty_subset_is_phi_itself(self):
        kept = []
        g = Statistic(eval=lambda phi: kept.append(phi) or float(len(phi)))
        phi = PointConfiguration(2, [[0.1, 0.2]])
        for k in range(3):
            kept.clear()
            iterated_difference(g, phi, np.full((k, 2), 0.5))
            assert len(kept) == 1 << k and kept[0] is phi
            assert all(psi is not phi for psi in kept[1:])

    def test_second_difference_of_count_vanishes(self):
        g = count_statistic()
        phi = PointConfiguration(2, [[0.3, 0.3]])
        assert iterated_difference(g, phi, [[0.1, 0.1], [0.2, 0.2]]) == 0.0

    @staticmethod
    def _recursive(g, phi, zs):
        # inductive form: one difference applied to the (k-1)-fold one
        if len(zs) == 1:
            return g.value(phi.add_atom(zs[0])) - g.value(phi)
        head, last = zs[:-1], zs[-1]
        return (TestDifferenceOperators._recursive(g, phi.add_atom(last), head)
                - TestDifferenceOperators._recursive(g, phi, head))

    def test_matches_recursive_definition(self):
        gen = RngStream(11).generator()
        w = gen.normal(size=2)

        def smooth(phi):
            if len(phi) == 0:
                return 0.25
            return float(np.cos(phi.points @ w).sum()) / (1.0 + len(phi))

        g = Statistic(eval=smooth, bound=None)
        for k in range(1, 5):
            phi = PointConfiguration(2, gen.normal(size=(2, 2)))
            zs = gen.normal(size=(k, 2))
            assert iterated_difference(g, phi, zs) == pytest.approx(
                self._recursive(g, phi, list(zs)), abs=1e-12
            )

    @staticmethod
    def _subset_sum(g, phi, zs):
        # the subset sum in bitmask order, rebuilt per call
        k = zs.shape[0]
        total = 0.0
        for mask in range(1 << k):
            sel = [j for j in range(k) if mask >> j & 1]
            sign = 1.0 if (k - len(sel)) % 2 == 0 else -1.0
            total += sign * g.value(phi.add_atoms(zs[sel]) if sel else phi)
        return total

    def test_matches_the_bitmask_loop_exactly(self):
        # the same configurations must be evaluated in the same order as the
        # subset sum, giving the same sum
        reference = self._subset_sum
        gen = RngStream(19).generator()
        seen = []

        def smooth(phi):
            seen.append(phi.points.tolist())
            return float(np.exp(-(phi.points ** 2).sum())) + 0.1 * len(phi)

        g = Statistic(eval=smooth)
        for k in range(7):
            phi = PointConfiguration(2, gen.normal(size=(3, 2)))
            zs = gen.normal(size=(k, 2))
            seen.clear()
            got = iterated_difference(g, phi, zs)
            order = list(seen)
            seen.clear()
            assert got == reference(g, phi, zs)
            assert order == seen

    def test_first_order_equals_the_subset_sum_on_the_suites_statistics(self):
        # the subset sum 0 - g(phi) + g(phi + z) is g(phi + z) - g(phi) to the bit
        from pivotal import suites

        gen = RngStream(23).generator()
        w = gen.normal(size=2)
        planar = [
            suites._COUNT,
            void_indicator(suites._QUARTER),
            hit_indicator(suites._QUARTER),
            CountFunctional([None], lambda c: c[:, 0].astype(float) ** 2, name="count_squared"),
            CountFunctional([], lambda c: np.full(c.shape[0], 2.5), bound=2.5, name="const"),
            CountFunctional([ball_region([0.0, 0.0], 0.5)], lambda c: c[:, 0].astype(float), bound=20.0),
            Statistic(eval=lambda phi: float(np.cos(phi.points @ w).sum()) / (1.0 + len(phi))),
        ]
        for g in planar:
            for n in (0, 1, 3, 7):
                phi = PointConfiguration(2, gen.uniform(-0.2, 1.2, size=(n, 2)))
                zs = gen.uniform(-0.2, 1.2, size=(1, 2))
                assert iterated_difference(g, phi, zs) == self._subset_sum(g, phi, zs)
        atleast = hit_indicator(box_region([0.0], [1.5]), k=3)
        for n in (0, 2, 3, 5):
            phi = PointConfiguration(1, gen.uniform(0.0, 2.0, size=(n, 1)))
            zs = gen.uniform(0.0, 2.0, size=(1, 1))
            assert iterated_difference(atleast, phi, zs) == self._subset_sum(atleast, phi, zs)

    def test_symmetric_in_points(self):
        gen = RngStream(12).generator()
        g = Statistic(eval=lambda phi: math.sin(float(len(phi))) + float((phi.points ** 2).sum()),
                      bound=None)
        phi = PointConfiguration(2, gen.normal(size=(3, 2)))
        zs = gen.normal(size=(4, 2))
        base = iterated_difference(g, phi, zs)
        for _ in range(5):
            perm = gen.permutation(4)
            assert iterated_difference(g, phi, zs[perm]) == pytest.approx(base, abs=1e-10)

    def test_bounded_statistic_bound(self):
        g = hit_indicator(ball_region([0.0, 0.0], 1.0))
        gen = RngStream(13).generator()
        for k in (1, 2, 3, 5):
            phi = PointConfiguration(2, gen.normal(size=(2, 2)))
            zs = gen.normal(size=(k, 2))
            assert abs(iterated_difference(g, phi, zs)) <= 2.0**k * g.bound + 1e-12

    def test_too_many_points_rejected(self):
        g = count_statistic()
        with pytest.raises(ValueError):
            iterated_difference(g, PointConfiguration.empty(1), np.zeros((21, 1)))


class TestPointRows:
    """Points are rows of dim coordinates: a point of another dimension raises,
    and is never split into, or merged with, other points."""

    FOUR_D = [[1.0, 2.0, 3.0, 4.0]]  # one 4-D point, or two planar ones if reshaped

    def test_iterated_difference(self):
        squared = Statistic(eval=lambda phi: float(len(phi)) ** 2)
        for g in (count_statistic(), squared):
            with pytest.raises(ValueError):
                iterated_difference(g, PointConfiguration.empty(2), self.FOUR_D)
            with pytest.raises(ValueError):
                difference(g, PointConfiguration.empty(2), self.FOUR_D[0])

    @pytest.mark.parametrize("points", [FOUR_D, [1.0, 2.0], np.zeros((2, 2, 1)), np.zeros((3, 0)), 1.0])
    def test_configuration(self, points):
        with pytest.raises(ValueError):
            PointConfiguration(2, points)

    def test_add_atoms(self):
        phi = PointConfiguration(2, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            phi.add_atoms(self.FOUR_D)
        with pytest.raises(ValueError):
            phi.add_atoms([0.1, 0.2])
        assert phi.add_atoms([[0.1, 0.2], [0.3, 0.4]]).points.tolist() == [[0.5, 0.5], [0.1, 0.2], [0.3, 0.4]]
        assert len(phi.add_atoms([])) == len(phi.add_atoms(np.empty((0, 2)))) == 1

    def test_single_points(self):
        # add_atom and difference take one point as its coordinates
        assert PointConfiguration.empty(1).add_atom(0.25).points.tolist() == [[0.25]]
        assert difference(count_statistic(), PointConfiguration.empty(1), [0.25]) == 1.0

    def test_caller_array_stays_writeable(self):
        pts = np.zeros((2, 2))
        phi = PointConfiguration(2, pts)
        pts[0, 0] = 1.0
        assert not phi.points.flags.writeable


class TestCountFunctional:
    # two regions and a nonlinear f, so no difference vanishes identically
    TWO = CountFunctional([box_region([0.0, 0.0], [0.5, 0.5]), None],
                          lambda c: np.sin(c[:, 0]) + 0.25 * c[:, 1] ** 2 - (c[:, 1] >= 3))

    def test_value_is_f_of_counts(self):
        phi = PointConfiguration(2, [[0.1, 0.2], [0.7, 0.7], [0.4, 0.1]])
        assert self.TWO.value(phi) == math.sin(2) + 0.25 * 9 - 1
        assert count_statistic().value(phi) == 3.0
        assert hit_indicator(box_region([0.0, 0.0], [0.5, 0.5]), k=3).value(phi) == 0.0

    @pytest.mark.parametrize("k", range(7))
    def test_closed_form_equals_iterated_difference(self, k):
        gen = RngStream(21, k).generator()
        reps = 30
        pts = gen.random((reps, 4, 2))
        zs = gen.random((reps, k, 2))
        blk = ReplicateBlock(pts.reshape(-1, 2), np.arange(0, 4 * reps + 1, 4), zs)
        for g in (self.TWO, hit_indicator(ball_region([0.5, 0.5], 0.4), k=2)):
            closed = g.differences(blk)
            assert closed.tolist() == [iterated_difference(g, PointConfiguration(2, p), z)
                                       for p, z in zip(pts, zs)]

    def test_more_points_than_the_maximum_rejected_on_both_paths(self, as_generic):
        # the limit sits in the subset table both paths take, so neither builds it
        k = point_process.MAX_ITERATED_DIFFERENCE + 1
        blk = ReplicateBlock(np.empty((0, 1)), np.zeros(3, dtype=np.int64), np.zeros((2, k, 1)))
        for g in (count_statistic(), as_generic(count_statistic())):
            with pytest.raises(ValueError, match=f"k={k} exceeds"):
                g.differences(blk)

    def test_broken_bound_raises_on_a_batch(self):
        g = CountFunctional([None], lambda c: c[:, 0].astype(float), bound=1.0)
        blk = next(poisson_blocks(IntensityMeasure.unit_square(scale=3.0), 100, RngStream(22)))
        with pytest.raises(DeclarationError):
            g.values(g.counts(blk))

    def test_wrongly_shaped_f_raises(self):
        g = CountFunctional([None], lambda c: 1.0)
        with pytest.raises(TypeError, match="shape"):
            g.values(np.zeros((4, 1), dtype=np.int64))


def _hand_block(dim: int, sizes: list[int], k: int, seed: int) -> ReplicateBlock:
    """Replicates of the given sizes, uniform on the unit cube, with k added points each."""
    gen = RngStream(seed).generator()
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return ReplicateBlock(gen.random((int(offsets[-1]), dim)), offsets, gen.random((len(sizes), k, dim)))


def _without_added(blk: ReplicateBlock) -> ReplicateBlock:
    return ReplicateBlock(blk.points, blk.offsets, blk.added[:, :0])


_QUARTER = box_region([0.0, 0.0], [0.5, 0.5])
_PLANE = _hand_block(2, [0, 3, 1, 0, 5, 2, 4], 3, 31)
_PLANE.points[2] = _PLANE.points[1]  # a point of multiplicity two
# (statistic, block) pairs: the plane, the plane restricted to a box (which
# empties some replicates), a block of empty replicates, and the one-point
# ground space (dim 0, where a configuration is a counter)
BLOCK_CASES = {
    "two_regions": (TestCountFunctional.TWO, _PLANE),
    "hit": (hit_indicator(ball_region([0.5, 0.5], 0.4), k=2), _PLANE),
    "void_restricted": (void_indicator(_QUARTER), _PLANE.restricted(box_region([0.0, 0.0], [0.7, 0.6])(_PLANE.points))),
    "two_regions_restricted": (TestCountFunctional.TWO, _PLANE.restricted(_PLANE.points[:, 0] < 0.5)),
    "const_empty": (CountFunctional([], lambda c: np.full(c.shape[0], 2.5), bound=2.5), _hand_block(2, [0, 0, 0], 2, 32)),
    "count_empty": (count_statistic(), _hand_block(2, [0, 0], 1, 33)),
    "count_event_dim0": (count_event(2), _hand_block(0, [0, 2, 1, 4], 2, 34)),
    "count_dim0": (count_statistic(), _hand_block(0, [3, 0, 1], 1, 35)),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
class TestBlockMethods:
    """Each CountFunctional override gives what the Statistic default gives
    for the same f, value for value."""

    def test_replicate_values(self, case, as_generic):
        # order 0: on a block without added points the differences are g at each replicate
        g, blk = BLOCK_CASES[case]
        bare = _without_added(blk)
        want = [g.value(bare.configuration(i)) for i in range(bare.reps)]
        assert g.differences(bare).tolist() == as_generic(g).differences(bare).tolist() == want

    def test_differences(self, case, as_generic):
        g, blk = BLOCK_CASES[case]
        assert g.differences(blk).tolist() == as_generic(g).differences(blk).tolist()

    def test_node_differences(self, case, as_generic):
        g, blk = BLOCK_CASES[case]
        gen = RngStream(36).generator()
        dim = blk.points.shape[1]
        nodes, weights, base = gen.random((5, dim)), gen.random(5), gen.random(blk.reps)
        for b in (None, base):
            assert g.node_differences(blk, nodes, weights, b).tolist() == \
                as_generic(g).node_differences(blk, nodes, weights, b).tolist()

    def test_pivotal_points(self, case, as_generic):
        g, blk = BLOCK_CASES[case]
        for closed, generic in zip(g.pivotal_points(blk), as_generic(g).pivotal_points(blk)):
            assert closed.tolist() == generic.tolist()

    def test_small_chunks(self, case, as_generic, monkeypatch):
        # 8 points per chunk: the 9 nodes of a replicate of n points span
        # ceil(9 / max(1, 8 // (n + 1))) chunks, and its thinned copies several too
        monkeypatch.setattr(point_process, "_BLOCK_POINTS", 8)
        g, blk = BLOCK_CASES[case]
        gen = RngStream(38).generator()
        nodes, weights = gen.random((9, blk.points.shape[1])), gen.random(9)
        assert g.node_differences(blk, nodes, weights).tolist() == \
            as_generic(g).node_differences(blk, nodes, weights).tolist()
        for closed, generic in zip(g.pivotal_points(blk), as_generic(g).pivotal_points(blk)):
            assert closed.tolist() == generic.tolist()


class TestGenericConfigurations:
    """The ``Statistic`` defaults build the grown and thinned configurations of
    a replicate in chunked read-only arrays and evaluate g once per configuration."""

    NODES = RngStream(39).generator().random((6, 2))

    @staticmethod
    def _keeper(value: float = 0.0):
        kept = []

        def keep(phi):
            kept.append(phi)
            return value

        return Statistic(eval=keep), kept

    @pytest.mark.parametrize("block_points", [point_process._BLOCK_POINTS, 8])
    def test_node_configurations_kept_intact(self, block_points, monkeypatch):
        monkeypatch.setattr(point_process, "_BLOCK_POINTS", block_points)
        g, kept = self._keeper()
        g.node_differences(_PLANE, self.NODES, np.ones(len(self.NODES)), base=np.zeros(_PLANE.reps))
        expected = [_PLANE.configuration(i).points.tolist() + [p.tolist()]
                    for i in range(_PLANE.reps) for p in self.NODES]
        assert [phi.points.tolist() for phi in kept] == expected
        assert not any(phi.points.flags.writeable for phi in kept)

    @pytest.mark.parametrize("block_points", [point_process._BLOCK_POINTS, 3])
    def test_pivotal_configurations_kept_intact(self, block_points, monkeypatch):
        monkeypatch.setattr(point_process, "_BLOCK_POINTS", block_points)
        g, kept = self._keeper(1.0)
        g.pivotal_points(_PLANE)
        expected = []
        for i in range(_PLANE.reps):
            pts = _PLANE.configuration(i).points.tolist()
            expected.append(pts)
            for j, z in enumerate(pts):
                expected += [pts[:j] + pts[j + 1:], pts + [z]]
        assert [phi.points.tolist() for phi in kept] == expected
        assert not any(phi.points.flags.writeable for phi in kept)

    def test_one_evaluation_per_configuration(self, monkeypatch):
        calls = []
        value = Statistic.value
        monkeypatch.setattr(Statistic, "value", lambda self, phi: calls.append(phi) or value(self, phi))
        g = Statistic(eval=lambda phi: float(len(phi)))
        for base, extra in ((np.zeros(_PLANE.reps), 0), (None, _PLANE.reps)):
            calls.clear()
            g.node_differences(_PLANE, self.NODES, np.ones(len(self.NODES)), base)
            assert len(calls) == _PLANE.reps * len(self.NODES) + extra

    @pytest.mark.parametrize("dim, nodes", [(2, np.zeros((4, 3))), (2, np.zeros(4)), (1, np.zeros((3, 2))),
                                            (0, np.zeros((2, 1)))])
    def test_nodes_of_another_dimension_raise(self, dim, nodes):
        # on both paths: the count functional's closed form would count them
        blk = _hand_block(dim, [2, 0, 1], 0, 40)
        for g in (Statistic(eval=lambda phi: 0.0), count_statistic()):
            with pytest.raises(ValueError):
                g.node_differences(blk, nodes, np.ones(len(nodes)))


class TestRegionCounts:
    """``count_in`` memoises a region's membership per configuration, and counts
    a configuration that the ``Statistic`` defaults derive by one row as its
    base's count plus or minus that row's membership."""

    NODES = RngStream(42).generator().random((6, 2))
    REGIONS = {
        "ball": lambda dim: ball_region(np.full(dim, 0.5), 0.4),
        "box": lambda dim: box_region(np.zeros(dim), np.full(dim, 0.6)),
        "row_sum": lambda dim: lambda pts: pts.sum(axis=1) < 0.4 * dim,
    }

    @staticmethod
    def _spy(region):
        calls = []

        def spy(pts):
            calls.append(pts.shape[0])
            return region(pts)

        return spy, calls

    @pytest.mark.parametrize("given_base", [False, True])
    def test_node_differences_ask_once_per_replicate_and_once_per_node_set(self, given_base):
        spy, calls = self._spy(ball_region([0.5, 0.5], 0.4))
        g = Statistic(eval=lambda phi: float(phi.count_in(spy)))
        g.node_differences(_PLANE, self.NODES, np.ones(6), np.zeros(_PLANE.reps) if given_base else None)
        # the nonempty replicates (sizes 3, 1, 5, 2, 4) and the 6 nodes, once each
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]

    def test_pivotal_points_ask_once_per_replicate(self):
        spy, calls = self._spy(ball_region([0.5, 0.5], 0.4))
        g = Statistic(eval=lambda phi: float(phi.count_in(spy) >= 1), bound=1.0, is_event=True)
        g.pivotal_points(_PLANE)
        assert sorted(calls) == [1, 2, 3, 4, 5]

    def test_count_functional_pivotal_points_ask_once(self):
        # the counts come from the one membership array of the block's points
        spy, calls = self._spy(ball_region([0.5, 0.5], 0.4))
        g = hit_indicator(spy)
        blk = next(binomial_blocks(IntensityMeasure.unit_square(), 5, 10, RngStream(48)))
        assert blk.reps == 10
        r, a = g.pivotal_points(blk)
        assert calls == [50]
        plain = Statistic(eval=g.eval, bound=1.0, is_event=True).pivotal_points(blk)
        assert r.tolist() == plain[0].tolist() and a.tolist() == plain[1].tolist()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_derived_counts_equal_fresh_counts(self, dim):
        blk = _hand_block(dim, [0, 3, 1, 0, 5, 2], 0, 43 + dim)
        blk.points[1] = blk.points[0]  # a point of multiplicity two
        regions = [make(dim) for make in self.REGIONS.values()]
        seen = []

        def counting(phi):
            seen.append((phi, [phi.count_in(region) for region in regions]))
            return 1.0

        g = Statistic(eval=counting)
        g.node_differences(blk, RngStream(44).generator().random((4, dim)), np.ones(4))
        g.pivotal_points(blk)
        # 6 replicates and 6 x 4 grown by a node, then 6 replicates and 11 x 2 thinned or grown by a copy
        assert len(seen) == 6 + 24 + 6 + 22
        assert sum(len(phi) == 0 for phi, _ in seen) == 4 + 1  # the empty replicates and a thinned singleton
        for phi, counts in seen:
            fresh = [int(np.count_nonzero(region(np.array(phi.points)))) if len(phi) else 0 for region in regions]
            assert counts == fresh
            assert [phi.count_in(region) for region in regions] == fresh
        # a grown or thinned configuration counts from its parts and stores nothing
        derived = [phi for phi, _ in seen if "_parts" in phi.__dict__]
        assert len(derived) == 24 + 22 and not any("_memo" in phi.__dict__ for phi in derived)

    def test_count_functional_evaluates_through_the_memo(self):
        # g.eval counts a configuration by count_in, so a derived one asks nothing more
        spy, calls = self._spy(ball_region([0.5, 0.5], 0.4))
        g = CountFunctional([spy, None], lambda c: c[:, 0] + 0.5 * c[:, 1])
        blk = _hand_block(2, [5] * 10, 0, 46)
        nodes = RngStream(47).generator().random((8, 2))
        generic = Statistic(eval=g.eval).node_differences(blk, nodes, np.ones(8))
        assert sorted(calls) == [5] * 10 + [8]
        assert generic.tolist() == g.node_differences(blk, nodes, np.ones(8)).tolist()

    def test_memo_per_configuration_and_region_object(self):
        spy, calls = self._spy(box_region([0.0, 0.0], [0.5, 0.5]))
        twin, twin_calls = self._spy(box_region([0.0, 0.0], [0.5, 0.5]))
        phi = PointConfiguration(2, [[0.1, 0.1], [0.7, 0.2], [0.3, 0.4]])
        assert phi.count_in(spy) == phi.count_in(spy) == phi.count_in(twin) == 2
        assert calls == [3] and twin_calls == [3]
        # pickling keeps the points and drops the memo (spy is a local function)
        copied = pickle.loads(pickle.dumps(phi))
        assert copied.points.tolist() == phi.points.tolist() and not copied.points.flags.writeable
        assert copied.count_in(spy) == 2 and calls == [3, 3]

    def test_caller_writes_do_not_reach_the_configuration(self):
        pts = np.zeros((2, 2))
        phi = PointConfiguration(2, pts)
        quarter = box_region([0.0, 0.0], [0.5, 0.5])
        assert phi.count_in(quarter) == 2
        pts[:] = 1.0
        assert phi.points.tolist() == [[0.0, 0.0], [0.0, 0.0]] and phi.count_in(quarter) == 2

    @pytest.mark.parametrize("answer", [lambda pts: True, lambda pts: np.ones((pts.shape[0], 1), dtype=bool),
                                        lambda pts: np.ones(pts.shape[0] + 1, dtype=bool)])
    def test_region_of_another_shape_raises(self, answer):
        # a scalar answer was counted once by count_in and broadcast to every point by the count functional
        phi = PointConfiguration(2, [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
        g = CountFunctional([answer], lambda c: c[:, 0].astype(float))
        with pytest.raises(TypeError):
            phi.count_in(answer)
        with pytest.raises(TypeError):
            g.eval(phi)
        with pytest.raises(TypeError):
            g.differences(_without_added(_PLANE))


def _reduced_box(lo, hi):
    """The box test as one reduction over the comparison of every coordinate."""
    return lambda pts: np.logical_and.reduce((pts >= np.asarray(lo, float)) & (pts <= np.asarray(hi, float)), axis=1)


class TestRegions:
    @pytest.mark.parametrize("dtype", [float, np.float32])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_equals_the_reduction_over_columns(self, dim, dtype):
        lo, hi = [0.1, -0.5, 0.0][:dim], [0.7, 0.5, 0.3][:dim]
        pts = RngStream(51, dim).generator().uniform(-1.0, 1.0, (400, dim))
        pts[:5 * dim] = 0.5 * (np.array(lo) + hi)
        pts[:dim], pts[dim:2 * dim] = lo, hi  # the corners, then each side on the boundary
        for k in range(dim):
            pts[2 * dim + k, k], pts[3 * dim + k, k] = lo[k], hi[k]
        pts[4 * dim + np.arange(dim), np.arange(dim)] = np.nan  # NaN is in no box
        pts = pts.astype(dtype)
        box, reduced = box_region(lo, hi), _reduced_box(lo, hi)
        assert np.array_equal(box(pts), reduced(pts))
        assert not box(pts)[4 * dim:5 * dim].any()
        if dtype is float:
            assert box(pts)[:4 * dim].all()
        assert box(pts[:0]).shape == (0,) and np.array_equal(box(pts[:0]), reduced(pts[:0]))

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("region", [box_region([0.0, 0.0], [0.5, 0.5]), ball_region([0.0, 0.0], 0.5)])
    def test_points_of_another_width_raise(self, region, width):
        # (n, 1) points used to broadcast against the corners or the center, and a
        # column-wise box would test an (n, 3) array on two of its columns
        pts = np.full((2, width), 0.2)
        with pytest.raises(ValueError):
            region(pts)
        with pytest.raises(ValueError):
            PointConfiguration(width, pts).count_in(region)
        blk = _hand_block(width, [2, 0, 3], 0, 52)
        with pytest.raises(ValueError):
            hit_indicator(region).differences(blk)


class TestReplicateBlocks:
    def test_blocks_cover_the_replicates(self):
        lam = IntensityMeasure.unit_square()
        for mu, mean in ((IntensityMeasure.unit_square(scale=200.0), 201.0),
                         (IntensityMeasure.unit_square(scale=0.3), 1.3)):
            blocks = list(poisson_blocks(mu, 6000, RngStream(23), added=(lam, 1)))
            size = int(point_process._BLOCK_POINTS // (2 * mean + 1))
            assert [b.reps for b in blocks[:-1]] == [size] * (len(blocks) - 1)
            assert sum(b.reps for b in blocks) == 6000
            for b in blocks:
                assert b.points.shape == (b.offsets[-1], 2) and b.added.shape == (b.reps, 1, 2)
                assert b.offsets[0] == 0 and np.all(np.diff(b.offsets) >= 0)

    def test_library_blocks_are_read_only(self):
        mu = IntensityMeasure.unit_square(scale=5.0)
        blocks = [next(poisson_blocks(mu, 10, RngStream(48), added=(mu, 2))),
                  next(binomial_blocks(mu, 3, 10, RngStream(49)))]
        blocks += [b.restricted(b.points[:, 0] < 0.5) for b in blocks]
        quarter = box_region([0.0, 0.0], [0.5, 0.5])
        for b in blocks:
            for a in (b.points, b.offsets, b.added):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
            # so a configuration's memoised count cannot go stale under it
            phi = b.configuration(int(np.argmax(np.diff(b.offsets))))
            before = phi.count_in(quarter)
            with pytest.raises(ValueError, match="read-only"):
                b.points[:] = 0.9
            assert before == phi.count_in(quarter) == int(np.count_nonzero(quarter(np.array(phi.points))))

    def test_restricting_a_hand_block_leaves_it_as_it_is(self):
        blk = _hand_block(2, [2, 3], 1, 50)
        sub = blk.restricted(blk.points[:, 0] < 0.5)
        assert not (sub.points.flags.writeable or sub.offsets.flags.writeable)
        assert sub.added is blk.added
        assert blk.points.flags.writeable and blk.offsets.flags.writeable and blk.added.flags.writeable

    def test_no_block_exceeds_the_limit(self):
        dense = IntensityMeasure.unit_square(scale=200.0)
        disk = IntensityMeasure.disk([0.0, 0.0], 1.5, scale=30.0)
        for blocks in (poisson_blocks(dense, 6000, RngStream(24), added=(dense, 6)),
                       poisson_blocks(disk, 3000, RngStream(25)),
                       binomial_blocks(disk, 20, 20_000, RngStream(26))):
            for b in blocks:
                assert b.points.shape[0] <= point_process._BLOCK_POINTS
                assert b.added.size <= point_process._BLOCK_POINTS

    def test_block_draw_order(self):
        # block b of the stream: added points, then the counts, then the points
        mu = IntensityMeasure.unit_square(scale=4.0)
        nu = IntensityMeasure.box([[0.0, 2.0], [0.0, 1.0]])
        size = point_process._BLOCK_POINTS // 13
        blocks = list(poisson_blocks(mu, size + 5, RngStream(27), added=(nu, 2)))
        assert [b.reps for b in blocks] == [size, 5]
        for b, blk in enumerate(blocks):
            gen = RngStream(27).substream(b).generator()
            extra = point_process._sample_points(nu, blk.reps * 2, gen)
            counts = gen.poisson(4.0, blk.reps)
            pts = point_process._sample_points(mu, int(counts.sum()), gen)
            assert np.array_equal(blk.added.reshape(-1, 2), extra)
            assert np.array_equal(np.diff(blk.offsets), counts)
            assert np.array_equal(blk.points, pts)

    def test_binomial_blocks(self):
        mu = IntensityMeasure.disk([0.0, 0.0], 1.0)
        blocks = list(binomial_blocks(mu, 5, 100, RngStream(28)))
        assert sum(b.reps for b in blocks) == 100
        for b in blocks:
            assert np.array_equal(np.diff(b.offsets), np.full(b.reps, 5))
            assert np.all(np.linalg.norm(b.points, axis=1) <= 1.0)
        with pytest.raises(ValueError):
            binomial_blocks(IntensityMeasure.unit_square(scale=0.0), 3, 10, RngStream(28))

    def test_density_above_envelope_raises(self):
        mu = IntensityMeasure.interval(0.0, 1.0, scale=50.0, density=lambda p: 3.0 * p[:, 0] ** 2)
        with pytest.raises(DeclarationError):
            list(poisson_blocks(mu, 100, RngStream(29)))

    def test_restricted_view(self):
        # replicates [a, b, c], [], [d, e]: keeping a, c and e
        pts = np.arange(10.0).reshape(5, 2)
        blk = ReplicateBlock(pts, np.array([0, 3, 3, 5]), np.zeros((3, 1, 2)))
        kept = blk.restricted(np.array([True, False, True, False, True]))
        assert kept.offsets.tolist() == [0, 2, 2, 3]
        assert [kept.configuration(i).points.tolist() for i in range(3)] == [
            [[0.0, 1.0], [4.0, 5.0]], [], [[8.0, 9.0]]]
        assert kept.added is blk.added
        inner = blk.restricted(box_region([0.0, 0.0], [5.0, 5.0])(blk.points))
        assert [len(inner.configuration(i)) for i in range(3)] == [3, 0, 0]

    def test_singleton_blocks(self):
        mu = IntensityMeasure.singleton(scale=2.0)
        blk = next(poisson_blocks(mu, 50, RngStream(30), added=(mu, 3)))
        assert blk.points.shape == (blk.offsets[-1], 0) and blk.added.shape == (50, 3, 0)
        assert len(blk.configuration(7)) == blk.offsets[8] - blk.offsets[7]


class TestConfiguration:
    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            PointConfiguration.empty(2).add_atom([1.0, 2.0, 3.0])

    def test_multiplicities_allowed(self):
        phi = PointConfiguration(1, [[0.5], [0.5]])
        assert len(phi) == 2

    def test_singleton_ground_space(self):
        mu = IntensityMeasure.singleton(scale=2.0)
        assert total_mass(mu) == 2.0
        phi = sample_poisson(mu, RngStream(14))
        assert phi.dim == 0
        bigger = phi.add_atom([])
        assert len(bigger) == len(phi) + 1

    def test_singleton_add_atoms(self):
        # points of the one-point ground space have no coordinates
        assert len(PointConfiguration.empty(0).add_atoms([[], []])) == 2
        assert len(PointConfiguration(0, np.empty((3, 0)))) == 3
        assert len(PointConfiguration(0, [])) == 0

    def test_declared_bound_asserted(self):
        g = Statistic(eval=lambda phi: float(len(phi)), bound=1.0)
        with pytest.raises(DeclarationError):
            g.value(PointConfiguration(1, [[0.0], [0.1]]))

    def test_declared_bound_checked_under_optimize(self):
        # python -O strips assert statements; the bound check must survive it
        code = (
            "from pivotal.point_process import DeclarationError, PointConfiguration, Statistic\n"
            "g = Statistic(eval=lambda phi: 5.0, bound=1.0)\n"
            "try:\n"
            "    g.value(PointConfiguration.empty(1))\n"
            "except DeclarationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n"
        )
        src = str(Path(point_process.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_identity_equality(self):
        # frozen dataclasses over arrays compare by identity, so each can be hashed and kept in a set
        for make in (lambda: PointConfiguration(2, [[0.0, 0.0]]), IntensityMeasure.unit_square,
                     lambda: _hand_block(2, [1, 2], 1, 5)):
            a, b = make(), make()
            assert a == a and a != b
            assert len({a, b, a}) == 2


class TestOneReplicateSamplers:
    """``sample_poisson`` and ``sample_binomial`` are the one replicate of the block engine."""

    MEASURES = (IntensityMeasure.unit_square(scale=4.0), IntensityMeasure.disk([0.0, 0.0], 1.0, scale=3.0),
                IntensityMeasure.interval(0.0, 1.0, scale=5.0, density=lambda p: 2.0 * p[:, 0], sup_density=2.0),
                IntensityMeasure.singleton(scale=2.0))

    def test_poisson(self):
        for mu in self.MEASURES:
            for i in range(5):
                blk = next(poisson_blocks(mu, 1, RngStream(60, i)))
                assert np.array_equal(sample_poisson(mu, RngStream(60, i)).points, blk.points)

    def test_binomial(self):
        for mu in self.MEASURES:
            for m in (0, 1, 7):
                blk = next(binomial_blocks(mu, m, 1, RngStream(61, m)))
                assert np.array_equal(sample_binomial(mu, m, RngStream(61, m)).points, blk.points)


def test_sampler_reproducible():
    mu = IntensityMeasure.unit_square(scale=5.0)
    a = sample_poisson(mu, RngStream(15, 4))
    b = sample_poisson(mu, RngStream(15, 4))
    assert np.array_equal(a.points, b.points)


def _uniform_proposal_reference(mu, n, gen):
    """Rejection sampling with proposals from gen.uniform(lo, hi, size)."""
    lo, hi = mu.bounds[:, 0], mu.bounds[:, 1]
    out = np.empty((n, mu.dim))
    got = 0
    while got < n:
        m = max(n - got, 16)
        pts = gen.uniform(lo, hi, size=(m, mu.dim))
        if mu.density is not None or mu.contains is not None:
            u = gen.random(m) * mu.sup_density
            pts = pts[u < mu.density_at(pts)]
        take = min(pts.shape[0], n - got)
        out[got : got + take] = pts[:take]
        got += take
    return out


@pytest.mark.parametrize("bounds", [
    [[-3.5, -0.25]],
    [[-1.0, 2.5], [-7.0, -6.9]],
    [[-2.0, -1.0], [0.1, 5.0], [-0.3, 0.3]],
])
def test_proposals_match_uniform_reference(bounds):
    plain = IntensityMeasure.box(bounds)
    dens = IntensityMeasure.box(bounds, density=lambda p: np.exp(-np.abs(p).sum(axis=1)), sup_density=1.0)
    center = np.asarray(bounds).mean(axis=1)
    width = min(b[1] - b[0] for b in bounds)
    ball = IntensityMeasure(dim=len(bounds), bounds=np.asarray(bounds), contains=ball_region(center, width / 2))
    for mu in (plain, dens, ball):
        for n in (1, 5, 16, 40):
            stream = RngStream(18, n)
            got = point_process._sample_points(mu, n, stream.generator())
            assert np.array_equal(got, _uniform_proposal_reference(mu, n, stream.generator()))
