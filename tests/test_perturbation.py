import math

import numpy as np
import pytest

from pivotal.point_process import (
    CountFunctional,
    DeclarationError,
    IntensityMeasure,
    Statistic,
    ball_region,
    box_region,
    count_event,
    count_statistic,
    hit_indicator,
    void_indicator,
)
from pivotal.perturbation import (
    DerivativeEstimate,
    MCEstimate,
    PerturbationSeriesResult,
    PivotalPointEstimate,
    SeriesTerm,
    derivative_location_estimator,
    derivative_point_estimator,
    expectation_mc,
    higher_derivative_estimator,
    perturbation_series,
)
from pivotal.rng import RngStream

SQUARE = IntensityMeasure.unit_square()
B = box_region([0.0, 0.0], [0.5, 0.5])  # mass 1/4 under Lebesgue


class TestExpectationMC:
    def test_constant(self):
        g = Statistic(eval=lambda phi: 3.25, bound=3.25)
        est = expectation_mc(g, SQUARE, 100, RngStream(41))
        assert est.mean == 3.25
        assert est.stderr == 0.0

    def test_count_mean(self):
        mu = IntensityMeasure.unit_square(scale=3.0)
        est = expectation_mc(count_statistic(), mu, 10_000, RngStream(42))
        assert abs(est.mean - 3.0) < 4.0 * est.stderr

    def test_void_probability(self):
        mu = IntensityMeasure.unit_square(scale=2.0)
        est = expectation_mc(void_indicator(B), mu, 10_000, RngStream(43))
        assert abs(est.mean - math.exp(-0.5)) < 4.0 * est.stderr

    def test_recorded_value(self):
        # recorded before the estimate became the order-0 case of the differences
        est = expectation_mc(void_indicator(B), IntensityMeasure.unit_square(scale=2.0), 1000, RngStream(150))
        assert est == MCEstimate(0.6, 0.015499685165842573, 1000)

    def test_reproducible(self):
        est1 = expectation_mc(count_statistic(), SQUARE, 500, RngStream(44, 9))
        est2 = expectation_mc(count_statistic(), SQUARE, 500, RngStream(44, 9))
        assert est1 == est2


class TestPerturbationSeries:
    def test_constant_statistic(self):
        g = Statistic(eval=lambda phi: 1.5, bound=1.5)
        res = perturbation_series(g, SQUARE, SQUARE, 0.5, kmax=3, reps=200, rng=RngStream(45))
        assert res.estimate == 1.5 and res.terms[0].mean_difference == 1.5
        assert all(t.mean_difference == 0.0 for t in res.terms[1:])

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            perturbation_series(count_statistic(), SQUARE, SQUARE, 0.5, reps=100, rng=RngStream(46))

    def test_recorded_values(self):
        # recorded before the base term became the order-0 term of the series loop
        g = void_indicator(B)
        res = perturbation_series(g, SQUARE, SQUARE, 0.5, kmax=4, reps=1000, rng=RngStream(151))
        assert (res.estimate, res.stderr, res.truncation_bound) == (
            0.7130338541666668, 0.014114513475239421, 0.009948495125712054)
        base = expectation_mc(g, SQUARE, 1000, RngStream(151))
        assert base == MCEstimate(0.797, 0.01272607374459825, 1000)
        assert [(t.order, t.weight, t.mean_difference, t.stderr) for t in res.terms] == [
            (0, 1.0, base.mean, base.stderr),
            (1, 0.5, -0.178, 0.012102167676183573), (2, 0.125, 0.043, 0.006418114379799739),
            (3, 0.020833333333333332, -0.017, 0.004089954489689063),
            (4, 0.0026041666666666665, 0.005, 0.00223158687484489)]

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        with pytest.raises(ValueError, match="reps"):
            perturbation_series(void_indicator(B), SQUARE, SQUARE, 0.5, reps=reps, rng=RngStream(46))

    def test_linear_statistic_terminates_at_first_order(self):
        # counting measure capped far above any sampled count: second and
        # higher differences vanish pathwise, the estimate is mass + theta*mass
        g = Statistic(eval=lambda phi: float(min(len(phi), 1000.0)), bound=1000.0)
        th = 0.5
        res = perturbation_series(g, SQUARE, SQUARE, th, kmax=3, reps=3000, rng=RngStream(47))
        for term in res.terms[2:]:
            assert term.mean_difference == 0.0
        assert abs(res.estimate - (1.0 + th)) < 4.0 * res.stderr

    def test_void_probability_target(self):
        g = void_indicator(B)
        for th in (0.25, 0.5, 1.0):
            res = perturbation_series(g, SQUARE, SQUARE, th, kmax=6, reps=4000,
                                      rng=RngStream(48, int(th * 100)))
            target = math.exp(-0.25 * (1.0 + th))
            assert abs(res.estimate - target) <= res.truncation_bound + 4.0 * res.stderr

    def test_theta_validation(self):
        g = void_indicator(B)
        with pytest.raises(ValueError):
            perturbation_series(g, SQUARE, SQUARE, 1.5, reps=100, rng=RngStream(49))
        with pytest.raises(ValueError):
            perturbation_series(g, SQUARE, SQUARE, -0.5, reps=100, rng=RngStream(49))

    def test_kmax_validation(self):
        # an order beyond the iterated-difference limit is refused before any order is estimated
        g = void_indicator(B)
        for kmax in (-1, 21):
            with pytest.raises(ValueError, match="kmax"):
                perturbation_series(g, SQUARE, SQUARE, 0.5, kmax=kmax, reps=100, rng=RngStream(49))

    def test_stream_required(self):
        g = void_indicator(B)
        with pytest.raises(TypeError):
            perturbation_series(g, SQUARE, SQUARE, 0.5, kmax=1, reps=10)

    def test_negative_theta_with_certificate(self):
        # nu = lam, certified ratio 1: lam + theta*nu valid down to theta = -1
        g = void_indicator(B)
        th = -0.5
        res = perturbation_series(g, SQUARE, SQUARE, th, kmax=6, reps=6000,
                                  rng=RngStream(50), nu_over_lambda_bound=1.0)
        target = math.exp(-0.25 * (1.0 + th))
        assert abs(res.estimate - target) <= res.truncation_bound + 4.0 * res.stderr
        with pytest.raises(ValueError):
            perturbation_series(g, SQUARE, SQUARE, -0.5, reps=100, rng=RngStream(50),
                                nu_over_lambda_bound=3.0)


class TestLocationEstimator:
    def test_count_derivative(self):
        est = derivative_location_estimator(count_statistic(), SQUARE, 2.0, 4000, RngStream(51))
        # every replicate contributes exactly the total mass
        assert est.estimate == pytest.approx(1.0, abs=1e-12)
        assert est.stderr == 0.0

    def test_void_derivative(self):
        th = 1.5
        est = derivative_location_estimator(void_indicator(B), SQUARE, th, 20_000, RngStream(52))
        truth = -0.25 * math.exp(-th * 0.25)
        assert abs(est.estimate - truth) < 4.0 * est.stderr
        assert est.nminus is not None and est.nminus > 0.0
        assert est.nplus == 0.0  # adding a point can only leave a void event

    def test_zero_intensity_base(self):
        # theta = 0: the base process is empty, the estimator integrates
        # g(one point) - g(empty)
        est = derivative_location_estimator(hit_indicator(B), SQUARE, 0.0, 20_000, RngStream(53))
        assert abs(est.estimate - 0.25) < 4.0 * est.stderr

    def test_signed_decomposition(self):
        est = derivative_location_estimator(hit_indicator(B), SQUARE, 1.0, 5000, RngStream(54))
        assert est.estimate == pytest.approx(est.nplus - est.nminus, abs=1e-12)
        assert est.nplus >= 0.0 and est.nminus >= 0.0


class TestSingletonGroundSpace:
    # one-point ground space: a configuration is a counter and the event
    # {count >= k} flips exactly when the count sits at k - 1
    def test_location_estimator_gives_poisson_mass(self):
        from pivotal.point_process import count_event
        from scipy import stats

        lam = IntensityMeasure.singleton(scale=1.0)
        theta, k = 2.0, 3
        est = derivative_location_estimator(count_event(k), lam, theta, 20_000, RngStream(67))
        truth = float(stats.poisson.pmf(k - 1, theta))
        assert abs(est.estimate - truth) < 4.0 * est.stderr

    def test_point_estimator_matches(self):
        from pivotal.point_process import count_event
        from scipy import stats

        lam = IntensityMeasure.singleton(scale=1.0)
        theta, k = 2.0, 3
        est = derivative_point_estimator(count_event(k), lam, theta, 20_000, RngStream(68))
        truth = float(stats.poisson.pmf(k - 1, theta))
        assert abs(est.estimate - truth) < 4.0 * est.stderr

    def test_second_derivative(self):
        # d^2/dtheta^2 P(N >= 2) = (1 - theta) e^-theta
        from pivotal.point_process import count_event

        lam = IntensityMeasure.singleton()
        theta = 0.5
        est = higher_derivative_estimator(count_event(2), lam, theta, 2, 2000, RngStream(1))
        truth = (1.0 - theta) * math.exp(-theta)
        assert abs(est.mean - truth) < 4.0 * est.stderr


class TestPointEstimator:
    def test_agrees_with_location_form(self):
        th = 1.5
        A = hit_indicator(B)
        loc = derivative_location_estimator(A, SQUARE, th, 20_000, RngStream(55))
        pnt = derivative_point_estimator(A, SQUARE, th, 20_000, RngStream(56))
        truth = 0.25 * math.exp(-th * 0.25)
        se = math.hypot(loc.nplus_stderr, pnt.stderr)
        assert abs(pnt.estimate - loc.nplus) < 4.0 * se
        assert abs(pnt.estimate - truth) < 4.0 * pnt.stderr

    def test_full_space_no_pivotal_points(self):
        A = Statistic(eval=lambda phi: 1.0, bound=1.0, is_event=True)
        pnt = derivative_point_estimator(A, SQUARE, 1.0, 500, RngStream(57))
        assert pnt.estimate == 0.0
        assert pnt.stderr == 0.0

    def test_duplicate_atom_variant_differs_for_monotone_events(self):
        # the rejected bookkeeping (adding a duplicate instead of removing the
        # point) gives zero for increasing events; both are reported
        pnt = derivative_point_estimator(hit_indicator(B), SQUARE, 1.5, 2000, RngStream(58))
        assert pnt.added_atom_estimate == 0.0
        assert pnt.estimate > 0.0

    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError):
            derivative_point_estimator(hit_indicator(B), SQUARE, 0.0, 100, RngStream(59))

    def test_non_event_rejected(self):
        with pytest.raises(ValueError):
            derivative_point_estimator(count_statistic(), SQUARE, 1.0, 100, RngStream(59))

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        # one replicate has no standard error (it would read 0.0)
        with pytest.raises(ValueError):
            derivative_point_estimator(hit_indicator(B), SQUARE, 1.0, reps, RngStream(59))


class TestHigherDerivatives:
    def test_count_second_derivative_vanishes(self):
        est = higher_derivative_estimator(count_statistic(), SQUARE, 1.0, 2, 2000, RngStream(60))
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_count_squared(self):
        # the second difference of count^2 is identically 2, so the estimator
        # returns 2 * mass^2 with no Monte Carlo noise at all
        g = Statistic(eval=lambda phi: float(len(phi)) ** 2, name="count^2")
        est = higher_derivative_estimator(g, SQUARE, 0.8, 2, 2000, RngStream(61))
        assert est.mean == pytest.approx(2.0, abs=1e-12)
        assert est.stderr == 0.0

    def test_first_order_is_location_formula(self):
        g = void_indicator(B)
        hi = higher_derivative_estimator(g, SQUARE, 1.0, 1, 20_000, RngStream(62))
        lo = derivative_location_estimator(g, SQUARE, 1.0, 20_000, RngStream(63))
        assert abs(hi.mean - lo.estimate) < 4.0 * math.hypot(hi.stderr, lo.stderr)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            higher_derivative_estimator(count_statistic(), SQUARE, 1.0, 11, 100, RngStream(64))

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        with pytest.raises(ValueError):
            higher_derivative_estimator(void_indicator(B), SQUARE, 1.0, 2, reps, RngStream(64))


class TestFiniteDifferenceConsistency:
    def test_fd_matches_location_estimator(self):
        g = void_indicator(B)
        th, dlt = 1.0, 0.05
        up = expectation_mc(g, SQUARE.scaled(th + dlt), 100_000, RngStream(65, 1))
        down = expectation_mc(g, SQUARE.scaled(th - dlt), 100_000, RngStream(65, 2))
        fd = (up.mean - down.mean) / (2.0 * dlt)
        fd_se = math.hypot(up.stderr, down.stderr) / (2.0 * dlt)
        loc = derivative_location_estimator(g, SQUARE, th, 100_000, RngStream(65, 3))
        bias = dlt**2  # third-derivative scale is order 1 here
        assert abs(fd - loc.estimate) < 4.0 * math.hypot(fd_se, loc.stderr) + bias

    def test_erlang_arrival_time_derivative(self):
        # at least n arrivals in [0, x] under unit density: the rate of change
        # in the intensity scale is x^n/(n-1)! * theta^(n-1) exp(-theta x)
        n, x, th = 3, 1.5, 0.8
        seg = IntensityMeasure.interval(0.0, x)
        atleast = hit_indicator(box_region([0.0], [x]), k=n)
        est = derivative_location_estimator(atleast, seg, th, 30_000, RngStream(66))
        truth = x**n / math.factorial(n - 1) * th ** (n - 1) * math.exp(-th * x)
        assert abs(est.estimate - truth) < 4.0 * est.stderr


# every count-functional constructor, the suites' statistics and a two-region f
COUNT_FUNCTIONALS = {
    "count": count_statistic(),
    "void": void_indicator(B),
    "hit": hit_indicator(ball_region([0.2, 0.7], 0.3), k=2),
    "count_event": count_event(3),
    "count_squared": CountFunctional([None], lambda c: c[:, 0].astype(float) ** 2, bound=1e9),
    "count_in_ball": CountFunctional([ball_region([0.5, 0.5], 0.4)], lambda c: c[:, 0].astype(float), bound=1e9),
    "const": CountFunctional([], lambda c: np.full(c.shape[0], 2.5), bound=2.5),
    "two_regions": CountFunctional([B, None], lambda c: np.sin(c[:, 0]) + 0.1 * c[:, 1] ** 2, bound=1e9),
}


@pytest.mark.parametrize("name", COUNT_FUNCTIONALS)
class TestVectorisedPathMatchesGeneric:
    """The block path of a CountFunctional and the per-configuration path of
    the same f, on the same blocks, give equal results."""

    def test_expectation(self, name, as_generic):
        g = COUNT_FUNCTIONALS[name]
        assert expectation_mc(g, SQUARE.scaled(2.0), 300, RngStream(70)) == expectation_mc(
            as_generic(g), SQUARE.scaled(2.0), 300, RngStream(70))

    def test_location_estimator(self, name, as_generic):
        g = COUNT_FUNCTIONALS[name]
        assert derivative_location_estimator(g, SQUARE, 1.5, 300, RngStream(71)) == derivative_location_estimator(
            as_generic(g), SQUARE, 1.5, 300, RngStream(71))

    def test_higher_derivative(self, name, as_generic):
        g = COUNT_FUNCTIONALS[name]
        for k in (1, 3):
            assert higher_derivative_estimator(g, SQUARE, 1.2, k, 200, RngStream(73)) == \
                higher_derivative_estimator(as_generic(g), SQUARE, 1.2, k, 200, RngStream(73))

    def test_perturbation_series(self, name, as_generic):
        # the count gets the bound the series needs
        g = COUNT_FUNCTIONALS[name] if name != "count" else CountFunctional([None], lambda c: c[:, 0] * 1.0, 1e9)
        assert perturbation_series(g, SQUARE, SQUARE, 0.5, kmax=4, reps=100, rng=RngStream(74)) == \
            perturbation_series(as_generic(g), SQUARE, SQUARE, 0.5, kmax=4, reps=100, rng=RngStream(74))


@pytest.mark.parametrize("name", [name for name, g in COUNT_FUNCTIONALS.items() if g.is_event])
def test_point_estimator_paths_agree(name, as_generic):
    g = COUNT_FUNCTIONALS[name]
    assert derivative_point_estimator(g, SQUARE, 2.5, 300, RngStream(72)) == derivative_point_estimator(
        as_generic(g), SQUARE, 2.5, 300, RngStream(72))


@pytest.mark.parametrize("name", ["count", "void", "hit"])
def test_location_estimator_is_the_first_order_estimator(name, as_generic):
    # the location estimator is the k = 1 case of the difference sampler
    for g in (COUNT_FUNCTIONALS[name], as_generic(COUNT_FUNCTIONALS[name])):
        loc = derivative_location_estimator(g, SQUARE, 1.5, 300, RngStream(81))
        first = higher_derivative_estimator(g, SQUARE, 1.5, 1, 300, RngStream(81))
        assert (loc.estimate, loc.stderr, loc.reps) == (first.mean, first.stderr, first.reps)


class TestBlockEngine:
    def test_same_seed_same_results(self):
        g = void_indicator(B)
        for run in (lambda: derivative_location_estimator(g, SQUARE, 1.5, 5000, RngStream(75)),
                    lambda: perturbation_series(g, SQUARE, SQUARE, 0.5, kmax=3, reps=500, rng=RngStream(76)),
                    lambda: derivative_point_estimator(g, SQUARE, 1.5, 500, RngStream(77))):
            assert run() == run()

    def test_singleton_paths_agree(self, as_generic):
        lam = IntensityMeasure.singleton(scale=1.0)
        g = count_event(2)
        for est in (lambda h: derivative_location_estimator(h, lam, 2.0, 500, RngStream(78)),
                    lambda h: derivative_point_estimator(h, lam, 2.0, 500, RngStream(78)),
                    lambda h: higher_derivative_estimator(h, lam, 0.5, 2, 500, RngStream(78)),
                    lambda h: perturbation_series(h, lam, lam, 0.5, kmax=3, reps=200, rng=RngStream(78))):
            assert est(g) == est(as_generic(g))

    def test_broken_bound_raises_on_the_block_path(self):
        g = CountFunctional([None], lambda c: c[:, 0].astype(float), bound=1.0)
        mu = IntensityMeasure.unit_square(scale=3.0)
        with pytest.raises(DeclarationError):
            expectation_mc(g, mu, 100, RngStream(79))
        with pytest.raises(DeclarationError):
            derivative_location_estimator(g, mu, 1.0, 100, RngStream(79))
        with pytest.raises(DeclarationError):
            perturbation_series(g, mu, mu, 0.5, kmax=2, reps=100, rng=RngStream(79))

    def test_density_above_envelope_raises(self):
        mu = IntensityMeasure.interval(0.0, 1.0, density=lambda p: 3.0 * p[:, 0] ** 2)
        with pytest.raises(DeclarationError):
            derivative_location_estimator(void_indicator(box_region([0.0], [0.5])), mu, 5.0, 100, RngStream(80))


class TestGoldenValues:
    """Exact results at fixed seeds, pinned so that a change to the sampling or
    evaluation path that alters a single draw or the order of a sum shows."""

    def test_location_estimator(self):
        est = derivative_location_estimator(hit_indicator(B), SQUARE, 1.5, 200, RngStream(31))
        assert est == DerivativeEstimate(
            estimate=0.205, stderr=0.02861764926136022, reps=200, nplus=0.205,
            nplus_stderr=0.02861764926136022, nminus=0.0, nminus_stderr=0.0)

    def test_location_estimator_rejection_sampling(self):
        # a disk (membership test) and a density: both reject proposals
        disk = IntensityMeasure.disk([0.2, -0.1], 0.8, scale=2.0)
        g = hit_indicator(ball_region([0.2, 0.0], 0.3), k=2)
        est = derivative_location_estimator(g, disk, 1.2, 200, RngStream(32))
        assert est == DerivativeEstimate(
            estimate=0.16084954386379743, stderr=0.05585974082078999, reps=200,
            nplus=0.16084954386379743, nplus_stderr=0.05585974082078999, nminus=0.0, nminus_stderr=0.0)
        dens = IntensityMeasure.box([[-1.0, 0.5], [0.0, 2.0]], scale=1.5,
                                    density=lambda p: 1.0 + 0.5 * p[:, 0] * p[:, 1], sup_density=2.0)
        est = derivative_location_estimator(void_indicator(box_region([-0.5, 0.5], [0.0, 1.5])),
                                            dens, 0.7, 100, RngStream(33))
        assert est == DerivativeEstimate(
            estimate=-0.590625, stderr=0.14130517325503816, reps=100, nplus=0.0, nplus_stderr=0.0,
            nminus=0.590625, nminus_stderr=0.14130517325503816)

    def test_point_estimator(self):
        est = derivative_point_estimator(hit_indicator(B), SQUARE, 1.5, 200, RngStream(34))
        assert est == PivotalPointEstimate(
            estimate=0.11333333333333333, stderr=0.01775193543289361,
            added_atom_estimate=0.0, added_atom_stderr=0.0, reps=200)

    def test_higher_derivative_estimator(self):
        g = Statistic(eval=lambda phi: float(len(phi)) ** 2, name="count_squared")
        assert higher_derivative_estimator(g, SQUARE, 0.8, 2, 200, RngStream(35)) == MCEstimate(
            mean=2.0, stderr=0.0, reps=200)
        assert higher_derivative_estimator(void_indicator(B), SQUARE, 0.8, 3, 100, RngStream(36)) == MCEstimate(
            mean=-0.02, stderr=0.014070529413628968, reps=100)

    def test_perturbation_series(self):
        res = perturbation_series(void_indicator(B), SQUARE, SQUARE, 0.5, kmax=3, reps=40, rng=RngStream(37))
        assert res == PerturbationSeriesResult(
            estimate=0.6249999999999999, truncation_bound=0.05161516179237857, stderr=0.07966275068156914,
            terms=[SeriesTerm(order=0, weight=1.0, mean_difference=0.7, stderr=0.07337993857053428),
                   SeriesTerm(order=1, weight=0.5, mean_difference=-0.175, stderr=0.060843430844447585),
                   SeriesTerm(order=2, weight=0.125, mean_difference=0.1, stderr=0.048038446141526144),
                   SeriesTerm(order=3, weight=0.020833333333333332, mean_difference=0.0, stderr=0.0)])
