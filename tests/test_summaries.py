import numpy as np
import pytest

from pivotal.rng import RngStream
from pivotal.summaries import ks_two_sample, mean_stderr, zscore


def test_mc_summary_against_numpy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=500)
    mean, stderr = mean_stderr(x)
    assert mean == pytest.approx(np.mean(x))
    assert stderr == pytest.approx(np.std(x, ddof=1) / np.sqrt(500))
    # the true mean 0 lies within the 95% normal interval mean +- 1.96 stderr
    assert abs(zscore(mean, stderr)) < 1.96


def test_constant_samples_zero_stderr():
    assert mean_stderr([2.0] * 10) == (2.0, 0.0)


def test_too_few_samples():
    with pytest.raises(ValueError):
        mean_stderr([1.0])


def test_ks_identical_sets():
    x = np.arange(100, dtype=float)
    stat, p = ks_two_sample(x, x.copy())
    assert stat == 0.0
    assert p == 1.0


def test_ks_detects_shift():
    rng = np.random.default_rng(11)
    a = rng.normal(size=4000)
    b = rng.normal(loc=0.5, size=4000)
    _, p = ks_two_sample(a, b)
    assert p < 1e-6


def test_ks_rejects_nan():
    # sorted last, NaN used to pass: all-NaN sides gave (0, 1), and 100 NaNs
    # a side gave a plausible p
    nan = np.full(1000, np.nan)
    with pytest.raises(ValueError, match="NaN"):
        ks_two_sample(nan, nan.copy())
    gen = RngStream(556).generator()
    a, b = gen.normal(size=1000), gen.normal(size=1000)
    a[::10] = b[5::10] = np.nan
    for x, y in ((a, b), (a, gen.normal(size=1000)), (gen.normal(size=1000), b)):
        with pytest.raises(ValueError, match="NaN"):
            ks_two_sample(x, y)


def test_ks_takes_infinities_by_order():
    # the same ranks with finite values in place of -inf and +inf
    b = np.array([-0.5, 0.5, 2.0, 3.0])
    got = ks_two_sample(np.array([-np.inf, 0.0, 1.0, np.inf]), b)
    assert got == ks_two_sample(np.array([-10.0, 0.0, 1.0, 10.0]), b)
    assert got[0] == 0.25


def test_ks_calibration_uniform():
    # null p-values exceed 0.01 in at least 98 of 100 seeded trials
    hits = 0
    for i in range(100):
        gen = RngStream(555, i).generator()
        a = gen.random(10_000)
        b = gen.random(10_000)
        _, p = ks_two_sample(a, b)
        hits += p > 0.01
    assert hits >= 98


class TestMeanStderr:
    def test_matches_numpy(self):
        x = RngStream(8).generator().normal(size=101)
        assert mean_stderr(x) == (float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(101)))

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            mean_stderr([1.0])
        assert mean_stderr([1.0, 1.0]) == (1.0, 0.0)


class TestZscore:
    def test_cases(self):
        assert zscore(1.0, 0.5) == 2.0
        assert zscore(-1.0, 0.5) == -2.0
        assert zscore(0.0, 0.0) == 0.0
        assert zscore(1e-300, 0.0) == float("inf")
