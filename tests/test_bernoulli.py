import gc
import hashlib
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy import special, stats

from pivotal import bernoulli as bn
from pivotal.rng import RngStream


def brute_pivotal_counts(event, x):
    """Exhaustive flip enumeration, independent of the library path."""
    x = np.asarray(x, dtype=np.uint8)
    nplus = nminus = 0
    for i in range(event.nbits):
        up = x.copy()
        up[i] = 1
        down = x.copy()
        down[i] = 0
        in_up = bool(event.indicator(up[None, :])[0])
        in_down = bool(event.indicator(down[None, :])[0])
        nplus += in_up and not in_down
        nminus += in_down and not in_up
    return nplus, nminus


class TestPivotalCounts:
    def test_threshold_one_below(self):
        # one success short of the threshold: every zero coordinate is (+)-pivotal
        n, k = 7, 3
        ev = bn.threshold_event(n, k)
        x = np.array([1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
        assert bn.pivotal_counts(ev, x) == (n - k + 1, 0)

    def test_threshold_at_boundary(self):
        # exactly at the threshold: every set coordinate is pivotal
        r, k = 4, 6
        ev = bn.threshold_event(k + r - 1, r)
        x = np.zeros(k + r - 1, dtype=np.uint8)
        x[:r] = 1
        assert bn.pivotal_counts(ev, x) == (r, 0)
        assert brute_pivotal_counts(ev, x) == (r, 0)

    def test_full_space_nothing_pivotal(self):
        ev = bn.threshold_event(4, 0)
        for v in range(16):
            x = np.array([(v >> i) & 1 for i in range(4)], dtype=np.uint8)
            assert bn.pivotal_counts(ev, x) == (0, 0)

    def test_against_brute_force(self):
        rng = RngStream(21)
        for i in range(10):
            ev = bn.random_event(6, rng.substream(i))
            gen = rng.substream(100 + i).generator()
            x = (gen.random(6) < 0.5).astype(np.uint8)
            assert bn.pivotal_counts(ev, x) == brute_pivotal_counts(ev, x)

    @pytest.mark.parametrize("x", [[0.7, 1, 0], [2, 0, 0], [-1, 0, 0], [np.nan, 0, 0], [1, 0, 0.5]])
    def test_entries_other_than_zero_or_one_raise(self, x):
        # a cast to uint8 read these as [0, 1, 0], [2, 0, 0], an OverflowError, ...
        with pytest.raises(ValueError, match="0 or 1"):
            bn.pivotal_counts(bn.threshold_event(3, 2), x)

    def test_zero_one_entries_of_any_dtype(self):
        ev = bn.threshold_event(3, 2)
        for x in ([1, 0, 0], [1.0, 0.0, 0.0], [True, False, False], np.array([1, 0, 0], dtype=np.int64)):
            assert bn.pivotal_counts(ev, x) == (2, 0)

    def test_relabeling_invariance(self):
        rng = RngStream(22)
        ev = bn.random_event(6, rng.substream(0))
        gen = rng.substream(1).generator()
        perm = gen.permutation(6)

        def relabeled(bits):
            return ev.indicator(bits[:, perm])

        ev_rel = bn.BooleanEvent(6, relabeled)
        for trial in range(20):
            x = (gen.random(6) < 0.5).astype(np.uint8)
            # x seen by the relabeled event equals x[perm] seen by the original
            assert bn.pivotal_counts(ev_rel, x) == brute_pivotal_counts(ev, x[perm])


class TestEventProbability:
    def test_full_space(self):
        ev = bn.threshold_event(3, 0)
        for th in (0.0, 0.3, 1.0):
            assert bn.event_polynomial(ev).probability(th) == pytest.approx(1.0, abs=1e-14)

    def test_all_ones(self):
        assert bn.event_polynomial(bn.threshold_event(3, 3)).probability(0.5) == pytest.approx(0.125, abs=1e-15)

    def test_two_trials_at_least_one(self):
        assert bn.event_polynomial(bn.threshold_event(2, 1)).probability(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_too_many_bits(self):
        with pytest.raises(ValueError):
            bn.event_polynomial(bn.threshold_event(25, 0))

    def test_scalar_indicator_raises(self):
        # no row-by-row retry: the error names the expected shape
        event = bn.BooleanEvent(3, lambda bits: bool(bits.sum() >= 2))
        with pytest.raises(TypeError, match=r"shape \(8,\)"):
            bn.truth_table(event)

    def test_popcount_matches_bit_count(self):
        for m in (1, 5, 12):
            idx = np.arange(1 << m, dtype=np.int64)
            want = [int(v).bit_count() for v in range(1 << m)]
            assert bn._popcount(idx, m).tolist() == want

    def test_impure_indicator_detected(self):
        calls = {"n": 0}

        def flaky(bits):
            calls["n"] += 1
            out = bits.sum(axis=1) >= 1
            return ~out if calls["n"] > 1 else out

        with pytest.raises(ValueError):
            bn.event_polynomial(bn.BooleanEvent(4, flaky))


class TestRussoDerivative:
    def test_two_trials(self):
        assert bn.russo_derivative(bn.threshold_event(2, 1), 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_all_ones_derivative(self):
        for m in (2, 4, 6):
            ev = bn.threshold_event(m, m)
            for th in (0.2, 0.7):
                assert bn.russo_derivative(ev, th) == pytest.approx(m * th ** (m - 1), abs=1e-13)

    def test_full_space_constant(self):
        assert bn.russo_derivative(bn.threshold_event(5, 0), 0.4) == 0.0

    def test_matches_polynomial_derivative(self):
        rng = RngStream(23)
        thetas = np.arange(0.1, 0.95, 0.1)
        for i in range(15):
            stream = rng.substream(i)
            m = int(stream.generator().integers(2, 13))
            ev = (bn.random_monotone_dnf if i % 2 else bn.random_event)(m, stream.substream(1))
            poly = bn.event_polynomial(ev)
            for th in thetas:
                assert bn.russo_derivative(ev, float(th)) == pytest.approx(
                    float(poly.derivative(th)), abs=1e-10
                )

    def test_theta_array_equals_scalar_calls(self):
        rng = RngStream(25)
        thetas = np.array([0.0, 0.05, 0.3, 0.5, 0.71, 0.95, 1.0])
        for i in range(30):
            stream = rng.substream(i)
            m = int(stream.generator().integers(2, 13))
            ev = (bn.random_monotone_dnf if i % 2 else bn.random_event)(m, stream.substream(1))
            plus, minus = bn.russo_pivotal_expectations(ev, thetas)
            deriv = bn.russo_derivative(ev, thetas)
            assert plus.shape == minus.shape == deriv.shape == thetas.shape
            for j, th in enumerate(thetas):
                assert (plus[j], minus[j]) == bn.russo_pivotal_expectations(ev, float(th))
                assert deriv[j] == bn.russo_derivative(ev, float(th))
        assert isinstance(bn.russo_derivative(ev, 0.3), float)
        assert bn.russo_derivative(ev, thetas.reshape(7, 1)).shape == (7, 1)

    def test_monotone_events_have_no_minus_pivotals(self):
        rng = RngStream(24)
        for i in range(10):
            ev = bn.random_monotone_dnf(8, rng.substream(i))
            _, _, eminus = bn._popcount_sums(ev)
            assert np.all(eminus == 0)


class TestEnumerationMemo:
    """The last event enumerated answers a run of calls on it."""

    @staticmethod
    def spy(calls, k=2):
        def indicator(bits):
            calls.append(bits.shape[0])
            return bits.sum(axis=1) >= k

        return indicator

    def test_polynomial_then_russo_calls_enumerate_once(self):
        calls = []
        ev = bn.BooleanEvent(6, self.spy(calls))
        poly = bn.event_polynomial(ev)
        russo = [bn.russo_derivative(ev, th / 10.0) for th in range(1, 10)]
        # one call for the table, one for the purity probe
        assert calls == [64, 8]
        assert russo == pytest.approx([float(poly.derivative(th / 10.0)) for th in range(1, 10)], abs=1e-13)

    def test_distinct_events_are_enumerated_afresh(self):
        # d/dt P(S_4 >= 1) = 4 (1-t)^3 and d/dt P(S_4 = 4) = 4 t^3
        a, b = bn.threshold_event(4, 1), bn.threshold_event(4, 4)
        for ev, want in ((a, 4 * 0.7**3), (b, 4 * 0.3**3), (a, 4 * 0.7**3)):
            assert bn.russo_derivative(ev, 0.3) == pytest.approx(want, abs=1e-15)
        # equal events (one shared indicator) are still told apart by identity
        calls = []
        indicator = self.spy(calls)
        a, b = bn.BooleanEvent(3, indicator), bn.BooleanEvent(3, indicator)
        assert a == b
        sums = [bn._popcount_sums(ev) for ev in (a, b, a)]
        assert calls == [8, 8] * 3
        assert all(np.array_equal(x, y) for s in sums[1:] for x, y in zip(s, sums[0]))

    def test_memo_keeps_no_event_alive(self):
        ev = bn.threshold_event(5, 2)
        bn.event_polynomial(ev)
        ref = weakref.ref(ev)
        del ev
        gc.collect()
        assert ref() is None

    def test_memo_sums_are_read_only(self):
        ev = bn.threshold_event(4, 2)
        counts, eplus, eminus = bn._popcount_sums(ev)
        for a in (counts, eplus, eminus, bn.event_polynomial(ev).counts):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_failed_enumeration_caches_nothing(self):
        calls = []

        def flaky(bits):
            calls.append(bits.shape[0])
            out = bits.sum(axis=1) >= 1
            return ~out if len(calls) % 2 == 0 else out

        ev = bn.BooleanEvent(4, flaky)
        for _ in range(2):
            with pytest.raises(ValueError, match="pure"):
                bn.russo_derivative(ev, 0.5)
        assert calls == [16, 8, 16, 8]
        last = bn._last_enumeration
        assert last is None or last[0]() is not ev


class TestThetaRange:
    """Every route that takes a success probability refuses one outside [0, 1]."""

    EV = bn.threshold_event(2, 1)
    ROUTES = {
        "probability": lambda th: bn.event_polynomial(TestThetaRange.EV).probability(th),
        "derivative": lambda th: bn.event_polynomial(TestThetaRange.EV).derivative(th),
        "russo_derivative": lambda th: bn.russo_derivative(TestThetaRange.EV, th),
        "russo_pivotal_expectations": lambda th: bn.russo_pivotal_expectations(TestThetaRange.EV, th),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("theta", [1.5, -0.1, 1.0 + 1e-15, np.nan, np.inf, -np.inf,
                                       [0.3, 1.5], np.array([[0.2], [np.nan]])])
    def test_outside_the_unit_interval_raises(self, route, theta):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            self.ROUTES[route](theta)

    def test_ends_of_the_interval_are_accepted(self):
        # P(S_2 >= 1) = 2 t - t^2; at t = 0 both bits are (+)-pivotal, at t = 1 neither
        ends = np.array([0.0, 1.0])
        assert self.ROUTES["probability"](ends).tolist() == [0.0, 1.0]
        assert self.ROUTES["derivative"](ends).tolist() == [2.0, 0.0]
        assert self.ROUTES["russo_derivative"](ends).tolist() == [2.0, 0.0]
        plus, minus = self.ROUTES["russo_pivotal_expectations"](ends)
        assert (plus.tolist(), minus.tolist()) == ([2.0, 0.0], [0.0, 0.0])
        assert [self.ROUTES["russo_derivative"](th) for th in (0.0, 1.0)] == [2.0, 0.0]


class TestRandomEvent:
    @pytest.mark.parametrize("m", [-1, 25, 64])
    def test_sizes_outside_the_exact_range_raise_before_drawing(self, m):
        with pytest.raises(ValueError, match="0 <= m <= 24"):
            bn.random_event(m, RngStream(26))

    def test_zero_bits(self):
        ev = bn.random_event(0, RngStream(26))
        assert bn.truth_table(ev).shape == (1,)


class TestRandomMonotoneDnf:
    # blake2b-8 digests of np.packbits(truth table) of random_monotone_dnf(m, RngStream(19, m))
    RECORDED = {
        2: "bfe893145eef9752", 3: "03ade32a89d43ebd", 4: "ddf3656bdb46132a", 5: "2eda28ec7b671759",
        6: "ed50e0d61975d594", 7: "0ae28c9733c5cb76", 8: "46794d48c53d11b9", 9: "1130d667aff8cbbc",
        10: "7ec349206da04da2", 11: "843c3bd84df96e9f", 12: "37918764d280be14",
    }

    def test_one_bit(self):
        for i in range(50):
            assert bn.truth_table(bn.random_monotone_dnf(1, RngStream(7, i))).tolist() == [False, True]

    @pytest.mark.parametrize("m", [-1, 0, 25])
    def test_sizes_outside_the_exact_range_raise(self, m):
        with pytest.raises(ValueError, match="1 <= m <= 24"):
            bn.random_monotone_dnf(m, RngStream(7))

    def test_draws_unchanged(self):
        for m, digest in self.RECORDED.items():
            table = bn.truth_table(bn.random_monotone_dnf(m, RngStream(19, m)))
            assert hashlib.blake2b(np.packbits(table).tobytes(), digest_size=8).hexdigest() == digest, m


class TestIdentityReports:
    def test_binomial_simple(self):
        rep = bn.identity_report_binomial(2, 1, 0.5)
        assert rep.tail == pytest.approx(0.75, abs=1e-12)
        assert rep.integral == pytest.approx(0.75, abs=1e-12)

    def test_binomial_single_trial(self):
        for p in (0.0, 0.3, 1.0):
            rep = bn.identity_report_binomial(1, 1, p)
            assert rep.tail == pytest.approx(p, abs=1e-12)
            assert rep.integral == pytest.approx(p, abs=1e-12)

    def test_binomial_range(self):
        for n, k, p in [(10, 4, 0.1), (30, 15, 0.5), (30, 1, 0.9), (30, 30, 0.9)]:
            rep = bn.identity_report_binomial(n, k, p)
            assert rep.gap <= 1e-10

    def test_negbin_summation_limits(self):
        # r = k = 1, p = 0.5: the integral equals the head sum through k-1,
        # while the sum through k overshoots by the k-th mass
        rep = bn.identity_report_negbin(1, 1, 0.5)
        assert rep.integral == pytest.approx(0.5, abs=1e-12)
        assert rep.binomial_tail == pytest.approx(0.5, abs=1e-12)
        assert rep.nb_sum_below_k == pytest.approx(0.5, abs=1e-12)
        assert rep.nb_sum_through_k == pytest.approx(0.75, abs=1e-12)
        assert rep.gap_below_k <= 1e-12
        assert rep.gap_through_k == pytest.approx(bn.negbin_pmf(1, 0.5, 1), abs=1e-12)

    def test_negbin_range(self):
        for r, k, p in [(3, 5, 0.3), (20, 20, 0.9), (1, 20, 0.5), (20, 1, 0.1)]:
            rep = bn.identity_report_negbin(r, k, p)
            assert rep.gap <= 1e-10
            assert rep.gap_below_k <= 1e-10

    def test_large_n_binomial(self):
        # the binomial coefficient and the beta prefactor overflow a float here
        rep = bn.identity_report_binomial(2000, 1000, 0.5)
        assert abs(rep.tail - stats.binom.sf(999, 2000, 0.5)) <= 1e-10
        assert abs(rep.integral - special.betainc(1000, 1001, 0.5)) <= 1e-10

    def test_masses_at_p_endpoints(self):
        for n, j in [(5, 0), (5, 2), (5, 5)]:
            assert bn.binomial_pmf(n, 0.0, j) == float(j == 0)
            assert bn.binomial_pmf(n, 1.0, j) == float(j == n)
            assert bn.negbin_pmf(3, 0.0, j) == 0.0
            assert bn.negbin_pmf(3, 1.0, j) == float(j == 0)
        for k in (1, 3, 5):
            assert bn.identity_report_binomial(5, k, 0.0).integral == 0.0
            rep = bn.identity_report_binomial(5, k, 1.0)
            assert rep.tail == 1.0
            assert rep.integral == pytest.approx(1.0, abs=1e-12)

    def test_beta_integrals_keep_relative_accuracy(self):
        # the c02 and c03 grids; an absolute quadrature tolerance gave
        # 2.34e-30 for the 1.0e-30 of (30, 30, 0.1)
        cases = [(k, n - k + 1, bn.identity_report_binomial(n, k, p).integral, p)
                 for n in range(1, 31) for k in range(1, n + 1) for p in (0.1, 0.5, 0.9)]
        cases += [(r, k, bn.identity_report_negbin(r, k, p).integral, p)
                  for r in range(1, 21) for k in range(1, 21) for p in (0.1, 0.5, 0.9)]
        got = np.array([c[2] for c in cases])
        want = special.betainc([c[0] for c in cases], [c[1] for c in cases], [c[3] for c in cases])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert bn.identity_report_binomial(30, 30, 0.1).integral == pytest.approx(1e-30, rel=1e-13, abs=0.0)

    @pytest.fixture
    def rules(self, monkeypatch):
        """The Gauss-Legendre sizes and the number of composite-rule calls used."""
        used = {"gauss_legendre": [], "composite": 0}
        gauss_legendre, peak_gauss_legendre = bn.gauss_legendre, bn.peak_gauss_legendre

        def spy_gl(f, a, b, npoints):
            used["gauss_legendre"].append(npoints)
            return gauss_legendre(f, a, b, npoints)

        def spy_composite(*args):
            used["composite"] += 1
            return peak_gauss_legendre(*args)

        monkeypatch.setattr(bn, "gauss_legendre", spy_gl)
        monkeypatch.setattr(bn, "peak_gauss_legendre", spy_composite)
        return used

    def test_smallest_exact_rule(self, rules):
        # degree n - 1 needs 2N - 1 >= n - 1
        sizes = {1: 8, 16: 8, 17: 16, 32: 16, 33: 32, 64: 32, 65: 64, 128: 64}
        for n in sizes:
            bn.identity_report_binomial(n, 1, 0.5)
        assert rules["gauss_legendre"] == list(sizes.values())
        assert rules["composite"] == 0

    P_BOUNDARY = (0.01, 0.1, 0.5, 0.9, 0.99)

    def test_degree_127_takes_the_64_point_rule(self, rules):
        # the rule is exact; what is left is the kernel's exp(log) rounding,
        # about eps times an exponent that reaches 580 here (1.2e-13 at worst)
        for k in range(1, 129):
            for p in self.P_BOUNDARY:
                assert bn.identity_report_binomial(128, k, p).integral == pytest.approx(
                    special.betainc(k, 129 - k, p), rel=2e-13, abs=0.0)
        for r in (1, 64, 128):
            assert bn.identity_report_negbin(r, 129 - r, 0.5).integral == pytest.approx(
                special.betainc(r, 129 - r, 0.5), rel=2e-13, abs=0.0)
        assert rules["gauss_legendre"] == [64] * (128 * len(self.P_BOUNDARY) + 3)
        assert rules["composite"] == 0

    def test_degree_128_takes_the_composite_rule(self, rules):
        # a peak narrow against [0, p] (k = 2, p = 0.9 has its mass near 1/128)
        # read 1e-11 instead of 1 before the rule was anchored at the mode
        for k in range(1, 130):
            for p in self.P_BOUNDARY:
                assert bn.identity_report_binomial(129, k, p).integral == pytest.approx(
                    special.betainc(k, 130 - k, p), rel=1e-11, abs=0.0)
        assert bn.identity_report_negbin(2, 128, 0.9).integral == pytest.approx(
            special.betainc(2, 128, 0.9), rel=1e-11, abs=0.0)
        assert rules["gauss_legendre"] == []
        assert rules["composite"] == 129 * len(self.P_BOUNDARY) + 1

    def test_high_degree_sweep_keeps_relative_accuracy(self):
        # degrees 128 to 1999, k across [1, n], p from 0.01 to 0.99; the
        # exp(log) rounding of the kernel leaves about 3.5e-12 at worst.
        # scipy's betainc itself fails below about 1e-240 (8.18e-244 at
        # (2000, 1962, 0.7), where 40-digit mpmath gives 6.31e-244, as does
        # the rule), so those values are left out of the comparison
        cases = [(n, k, p) for n in (129, 200, 400, 1000, 2000) for k in range(1, n + 1, 1 + n // 150)
                 for p in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        cases += [(2000, 1969, 0.9), (2000, 2000, 0.99), (400, 200, 0.01), (2000, 1, 0.01)]
        want = np.array([special.betainc(k, n - k + 1, p) for n, k, p in cases])
        keep = want > 1e-200
        # the integral alone: the reports' tail sums take 2000 masses each
        log_prefactor = lambda n, k: math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 1)
        got = np.array([bn._beta_integral(k - 1, n - k, log_prefactor(n, k), p)
                        for (n, k, p), kept in zip(cases, keep) if kept])
        assert keep.sum() > 2000
        np.testing.assert_allclose(got, want[keep], rtol=1e-11, atol=0.0)
        for r, k, p in [(64, 1936, 0.99), (1000, 1000, 0.5), (1999, 1, 0.9), (1, 1999, 0.01)]:
            assert bn.identity_report_negbin(r, k, p).integral == pytest.approx(
                special.betainc(r, k, p), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 3), (2, 0), (2, 3)])
    def test_beta_kernel_at_endpoints(self, a, b):
        # 0^0 = 1 and 0^a = 0, without a divide-by-zero warning
        t = np.array([0.0, 0.25, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bn._beta_kernel(a, b, 0.5)(t)
        want = np.exp(0.5 + special.xlogy(a, t) + special.xlog1py(b, -t))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert got.shape == t.shape

    def test_validation(self):
        with pytest.raises(ValueError):
            bn.identity_report_binomial(3, 0, 0.5)
        with pytest.raises(ValueError):
            bn.identity_report_binomial(3, 4, 0.5)
        with pytest.raises(ValueError):
            bn.identity_report_negbin(0, 1, 0.5)
