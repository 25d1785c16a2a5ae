"""Check suites: the one definition of every check.

Each ``check_*`` function takes the RngStream it draws from, in a fixed
substream layout, and its cases, replication counts and bounds, and returns
one CheckResult row per case.  Its callers are the ``run_*`` suites of the
command-line runner, with the config's values and streams derived from
``SuiteConfig.rng(suite)``, and the acceptance gate, with its own.  A row
compares a gap with a tolerance, a z-score with a z threshold, or a KS
p-value with a floor.  This module owns the runner's config schema: each
key, with its default and valid values, is in the table ``SETTINGS`` (top
level) or in its block's table in ``OPTIONS`` (``tolerances`` and one per
suite).  ``check_config`` checks a config against them in one loop, and
``run_*`` read the blocks through ``SuiteConfig.suite_options``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bernoulli as bn
from . import geometry as geo
from . import identities as idn
from . import perturbation as pert
from . import stable as stb
from .point_process import CountFunctional, IntensityMeasure, ball_region, box_region, hit_indicator, void_indicator
from .rng import RngStream
from .summaries import ks_two_sample, zscore

SUITE_INDEX = {"identities": 1, "russo": 2, "poisson-derivative": 3, "stable": 4, "crofton": 5}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check_id: str
    params: dict
    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float
    z_or_gap: float
    threshold: float
    passed: bool


def _gap_row(suite, check_id, params, lhs, rhs, tol) -> CheckResult:
    gap = abs(lhs - rhs)
    return CheckResult(suite, check_id, params, lhs, rhs, 0.0, 0.0, gap, tol, gap <= tol)


def _z_row(suite, check_id, params, lhs, rhs, lse, rse, zmax, ok: bool = True) -> CheckResult:
    """z row; ``ok``: a further condition the row needs to pass."""
    z = zscore(lhs - rhs, math.hypot(lse, rse))
    return CheckResult(suite, check_id, params, lhs, rhs, lse, rse, z, zmax, abs(z) <= zmax and ok)


def _p_row(suite, check_id, params, stat, pvalue, floor) -> CheckResult:
    return CheckResult(suite, check_id, params, stat, 0.0, 0.0, 0.0, pvalue, floor, pvalue > floor)


def _crofton_row(check_id, params, rep: geo.CroftonReport, zmax, rhs_ok: bool = True) -> CheckResult:
    """z row of a Crofton check; ``rhs_ok``: its boundary side matches a closed form."""
    return _z_row("crofton", check_id, params, rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr, zmax, rhs_ok)


def number_in(value, lo=0.0, hi=math.inf) -> bool:
    """A finite real number, not a bool, in [lo, hi]."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and lo <= value <= hi and -math.inf < value < math.inf)


def _count(default, lo, hi=math.inf):
    return default, (lambda v: isinstance(v, int) and number_in(v, lo, hi)), f"an integer in [{lo}, {hi}]"


# a table of config keys: key -> (default, is_valid(value), what the value
# must be); a callable default is computed from the SuiteConfig
_TOLERANCE_OPTIONS = {key: (default, number_in, "a finite nonnegative number") for key, default in (
    ("identity", 1e-10), ("relative", 1e-12), ("ode", 1e-5), ("quadrature", 1e-6),
    ("stable_quadrature", 1e-3), ("golden_gap", 0.02), ("z", 4.0), ("ks_p", 0.01))}


@dataclass
class SuiteConfig:
    """A config that ``check_config`` accepted: its seed, its reps and its blocks by name."""
    seed: int
    reps: int
    options: dict

    def rng(self, suite: str) -> RngStream:
        return RngStream(self.seed, SUITE_INDEX[suite])

    def suite_options(self, block: str) -> dict:
        """The block (a suite's or ``tolerances``), each option it leaves unset at its default."""
        given = self.options.get(block, {})
        return {key: given.get(key, default(self) if callable(default) else default)
                for key, (default, _, _) in OPTIONS[block].items()}


# -- identities ---------------------------------------------------------------


def check_binomial_identity(cases, tol) -> list[CheckResult]:
    """Binomial tail against its incomplete-beta integral, per (n, k, p)."""
    rows = []
    for n, k, p in cases:
        rep = bn.identity_report_binomial(n, k, p)
        rows.append(_gap_row("identities", "binomial_tail_vs_beta_integral",
                             {"n": n, "k": k, "p": p}, rep.tail, rep.integral, tol))
    return rows


def check_negbin_identity(cases, tol, overshoot_tol) -> list[CheckResult]:
    """Negative-binomial integral against the binomial tail, the head sum below
    k, and the sum through k less the k-th mass, per (r, k, p); and that sum's
    overshoot exceeding ``tol`` at (1, 1, 1/2), where the two sums differ."""
    rows = []
    for r, k, p in cases:
        rep = bn.identity_report_negbin(r, k, p)
        params = {"r": r, "k": k, "p": p}
        rows.append(_gap_row("identities", "negbin_binomial_tail_vs_integral",
                             params, rep.binomial_tail, rep.integral, tol))
        rows.append(_gap_row("identities", "negbin_sum_below_k_vs_integral",
                             params, rep.nb_sum_below_k, rep.integral, tol))
        rows.append(_gap_row("identities", "negbin_sum_through_k_overshoot", params,
                             rep.nb_sum_through_k - rep.integral, bn.negbin_pmf(r, p, k),
                             overshoot_tol))
    rep = bn.identity_report_negbin(1, 1, 0.5)
    rows.append(CheckResult("identities", "negbin_sum_through_k_exceeds_integral",
                            {"r": 1, "k": 1, "p": 0.5}, rep.nb_sum_through_k, rep.integral,
                            0.0, 0.0, rep.gap_through_k, tol, rep.gap_through_k > tol))
    return rows


def check_poisson_erlang(tail_cases, erlang_cases, tol) -> list[CheckResult]:
    """Poisson tail against its gamma-kernel integral, per (theta, k), and the
    Erlang CDF three ways (direct, integral, Poisson tail), per (n, theta, x)."""
    rows = [_gap_row("identities", "poisson_tail_vs_integral", {"theta": theta, "k": k},
                     idn.poisson_tail(theta, k), idn.poisson_tail_integral(theta, k), tol)
            for theta, k in tail_cases]
    for n, theta, x in erlang_cases:
        direct, via_int, via_po = idn.erlang_cdf(n, theta, x)
        gap = max(abs(direct - via_int), abs(direct - via_po), abs(via_int - via_po))
        rows.append(CheckResult("identities", "erlang_three_way", {"n": n, "theta": theta, "x": x},
                                direct, via_po, 0.0, 0.0, gap, tol, gap <= tol))
    return rows


def _random_jump_law(gen: np.random.Generator) -> idn.LatticeDistribution:
    q_raw = gen.random(6) * (gen.random(6) < 0.7)
    if q_raw.sum() == 0:
        q_raw[1] = 1.0
    return idn.LatticeDistribution(q_raw / q_raw.sum())


def check_compound_poisson(rng: RngStream, nlaws, kmax, nrate, tol_relative, tol_ode) -> list[CheckResult]:
    """Direct sum and polynomial recursion against Panjer (worst relative gap
    over k <= kmax) on random jump laws (stream i), and the CDF rate-equation
    residual at step 1e-3 on others (stream 1000 + i)."""
    rows = []
    for i in range(nlaws):
        gen = rng.substream(i).generator()
        q = _random_jump_law(gen)
        theta = float(gen.uniform(0.05, 5.0))
        pan = idn.panjer_pmfs(theta, q, kmax)
        for check_id, route in (("cpois_direct_vs_panjer", idn.cpois_pmf_direct),
                                ("cpois_polyrec_vs_panjer", idn.cpois_pmf_polyrec)):
            vals = np.array([route(theta, q, k) for k in range(kmax + 1)])
            rel = np.abs(vals - pan) / np.maximum(np.abs(pan), 1e-300)
            k = int(np.argmax(rel))
            rows.append(CheckResult("identities", check_id, {"law": i, "theta": theta, "k": k},
                                    float(vals[k]), float(pan[k]), 0.0, 0.0, float(rel[k]),
                                    tol_relative, bool(rel[k] <= tol_relative)))
    for i in range(nrate):
        gen = rng.substream(1000 + i).generator()
        q = _random_jump_law(gen)
        theta, x = float(gen.uniform(0.1, 5.0)), float(gen.uniform(0.0, 8.0))
        rows.append(_gap_row("identities", "cpois_cdf_rate_equation", {"law": 1000 + i, "theta": theta, "x": x},
                             idn.cpois_cdf_ode_residual(theta, q, x, 1e-3), 0.0, tol_ode))
    return rows


def run_identities(cfg: SuiteConfig) -> list[CheckResult]:
    tols = cfg.suite_options("tolerances")
    tol = tols["identity"]
    return (check_binomial_identity([(2, 1, 0.5), (10, 3, 0.1), (10, 3, 0.9), (25, 1, 0.5),
                                     (30, 15, 0.5), (30, 30, 0.9)], tol)
            + check_negbin_identity([(1, 1, 0.5), (3, 5, 0.3), (10, 10, 0.5), (20, 20, 0.9)],
                                    tol, overshoot_tol=1e-12)
            + check_poisson_erlang([(0.5, 1), (2.0, 3), (20.0, 30)],
                                   [(1, 2.0, 0.5), (3, 1.5, 2.0), (30, 20.0, 10.0)], tol)
            + check_compound_poisson(cfg.rng("identities"), nlaws=1, kmax=25, nrate=2,
                                     tol_relative=tols["relative"], tol_ode=tols["ode"]))


# -- russo --------------------------------------------------------------------


def check_russo_derivative(rng: RngStream, nevents, max_bits, thetas, tol) -> list[CheckResult]:
    """E_theta[N+ - N-] against the event polynomial's derivative: per family
    (monotone DNF, uniform truth table) the worst gap over its events, event i
    of family f drawing its size in [2, max_bits] from stream 1000 f + i."""
    thetas = np.asarray(thetas, dtype=float)
    rows = []
    for f, (kind, builder) in enumerate((("monotone_dnf", bn.random_monotone_dnf),
                                         ("arbitrary", bn.random_event))):
        worst = 0.0
        for i in range(nevents):
            stream = rng.substream(1000 * f + i)
            m = int(stream.generator().integers(2, max_bits + 1))
            event = builder(m, stream.substream(1))
            gaps = np.abs(bn.russo_derivative(event, thetas)
                          - bn.event_polynomial(event).derivative(thetas))
            worst = max(worst, float(gaps.max()))
        rows.append(_gap_row("russo", f"derivative_matches_polynomial_{kind}",
                             {"events": nevents, "max_bits": max_bits}, worst, 0.0, tol))
    return rows


def check_threshold_pivotal_counts() -> list[CheckResult]:
    """Pivotal counts at the boundary of threshold events, against their closed forms."""
    n, k = 8, 3
    x = np.zeros(n, dtype=np.uint8)
    x[: k - 1] = 1
    nplus, nminus = bn.pivotal_counts(bn.threshold_event(n, k), x)
    rows = [_gap_row("russo", "threshold_below_boundary_pivotal_count",
                     {"n": n, "k": k}, float(nplus), float(n - k + 1), 0.0),
            _gap_row("russo", "threshold_monotone_no_minus", {"n": n, "k": k}, float(nminus), 0.0, 0.0)]
    r, k = 4, 6
    x = np.zeros(k + r - 1, dtype=np.uint8)
    x[:r] = 1  # exactly r successes: flipping any of them exits the event
    nplus, _ = bn.pivotal_counts(bn.threshold_event(k + r - 1, r), x)
    rows.append(_gap_row("russo", "negbin_boundary_pivotal_count_is_r",
                         {"r": r, "k": k}, float(nplus), float(r), 0.0))
    return rows


_RUSSO_OPTIONS = {
    "events": _count(30, 1, 1000),
    "max_bits": _count(10, 2, bn.MAX_EXACT_BITS),
    "thetas": ([0.1, 0.3, 0.5, 0.7, 0.9],
               lambda v: isinstance(v, list) and len(v) > 0 and all(number_in(x, 0, 1) for x in v),
               "a nonempty list of numbers in [0, 1]"),
}


def run_russo(cfg: SuiteConfig) -> list[CheckResult]:
    opts = cfg.suite_options("russo")
    return (check_russo_derivative(cfg.rng("russo"), opts["events"], opts["max_bits"], opts["thetas"],
                                   cfg.suite_options("tolerances")["identity"])
            + check_threshold_pivotal_counts())


# -- poisson derivative -------------------------------------------------------

_UNIT_SQUARE = IntensityMeasure.unit_square()
# the count is unbounded; the bound only gets it past the Crofton checks' guard
_COUNT = CountFunctional([None], lambda c: c[:, 0].astype(float), bound=1e9, name="count")
_QUARTER = box_region([0.0, 0.0], [0.5, 0.5])  # B = [0, 1/2]^2, of measure 1/4


def check_location_estimators(rng: RngStream, theta, reps, zmax) -> list[CheckResult]:
    """Pivotal-location estimates of d/dtheta E g on the unit square for the
    count, void and hit of B (streams 0-2); pivotal-point E N+ for the hit
    (stream 3) against the pivotal-location one."""
    params = {"theta": theta, "reps": reps}
    slope = 0.25 * math.exp(-theta * 0.25)  # |d/dtheta P(no point in B)|
    est = pert.derivative_location_estimator(_COUNT, _UNIT_SQUARE, theta, reps, rng.substream(0))
    # the count's difference is identically 1, so the estimate must be 1 to rounding
    rows = [_z_row("poisson-derivative", "location_count", params, est.estimate, 1.0, est.stderr, 0.0, zmax,
                   abs(est.estimate - 1.0) <= 1e-9)]
    est = pert.derivative_location_estimator(void_indicator(_QUARTER), _UNIT_SQUARE, theta, reps,
                                             rng.substream(1))
    rows.append(_z_row("poisson-derivative", "location_void", params, est.estimate, -slope,
                       est.stderr, 0.0, zmax))
    hit = hit_indicator(_QUARTER)
    loc = pert.derivative_location_estimator(hit, _UNIT_SQUARE, theta, reps, rng.substream(2))
    rows.append(_z_row("poisson-derivative", "location_hit", params, loc.estimate, slope,
                       loc.stderr, 0.0, zmax))
    pnt = pert.derivative_point_estimator(hit, _UNIT_SQUARE, theta, reps, rng.substream(3))
    rows.append(_z_row("poisson-derivative", "pivotal_points_vs_locations", params,
                       pnt.estimate, loc.nplus, pnt.stderr, loc.nplus_stderr, zmax))
    return rows


def check_perturbation_series(rng: RngStream, thetas, reps, kmax, zmax) -> list[CheckResult]:
    """Perturbation series of P(no point in B) at (1 + theta) times the unit
    square against exp(-(1 + theta)/4), thetas[j] on stream j; the gap may
    use the truncation bound plus zmax standard errors."""
    g = void_indicator(_QUARTER)
    rows = []
    for j, theta in enumerate(thetas):
        res = pert.perturbation_series(g, _UNIT_SQUARE, _UNIT_SQUARE, theta, kmax=kmax, reps=reps,
                                       rng=rng.substream(j))
        target = math.exp(-0.25 * (1.0 + theta))
        gap = abs(res.estimate - target)
        slack = res.truncation_bound + zmax * res.stderr
        rows.append(CheckResult("poisson-derivative", "series_void_probability",
                                {"theta": theta, "kmax": kmax}, res.estimate, target,
                                res.stderr, 0.0, gap, slack, gap <= slack))
    return rows


def check_count_derivatives(rng: RngStream, reps, zmax) -> list[CheckResult]:
    """At theta = 0.8: d/dtheta P(at least n points in [0, x]) against
    x^n / (n-1)! theta^(n-1) e^(-theta x) (stream 11), and the second
    derivative of E N^2 on the unit square against 2 (stream 12)."""
    n, x, theta = 3, 1.5, 0.8
    atleast = hit_indicator(box_region([0.0], [x]), k=n)
    est = pert.derivative_location_estimator(atleast, IntensityMeasure.interval(0.0, x), theta, reps,
                                             rng.substream(11))
    truth = x**n / math.factorial(n - 1) * theta ** (n - 1) * math.exp(-theta * x)
    sq_count = CountFunctional([None], lambda c: c[:, 0].astype(float) ** 2, name="count_squared")
    est2 = pert.higher_derivative_estimator(sq_count, _UNIT_SQUARE, theta, 2, reps, rng.substream(12))
    return [_z_row("poisson-derivative", "erlang_arrival_derivative", {"n": n, "x": x, "theta": theta},
                   est.estimate, truth, est.stderr, 0.0, zmax),
            _z_row("poisson-derivative", "second_derivative_count_squared",
                   {"theta": theta, "reps": reps}, est2.mean, 2.0, est2.stderr, 0.0, zmax)]


_POISSON_DERIVATIVE_OPTIONS = {"reps": _count(lambda cfg: cfg.reps, 2)}


def run_poisson_derivative(cfg: SuiteConfig) -> list[CheckResult]:
    reps = cfg.suite_options("poisson-derivative")["reps"]
    zmax = cfg.suite_options("tolerances")["z"]
    rng = cfg.rng("poisson-derivative")
    return (check_location_estimators(rng, 1.5, reps, zmax)
            + check_perturbation_series(rng.substream(5), (0.25, 1.0), max(2000, reps // 4), 6, zmax)
            + check_count_derivatives(rng, reps, zmax))


# -- stable -------------------------------------------------------------------


def check_half_index_law(rng: RngStream, nsamples, max_gap, xs, tol) -> list[CheckResult]:
    """The alpha = 1/2 law: empirical CDF of ``nsamples`` draws (stream 0)
    against erfc, and the CDF and density identities by quadrature at each x."""
    params = stb.StableParams(0.5, stb.SpectralMeasure.positive_half_line(1.0))
    draws, _ = stb.sample_stable_many(params, nsamples, rng.substream(0))
    gap = float(np.max(np.abs(np.arange(1, nsamples + 1) / nsamples
                              - stb.positive_half_cdf(np.sort(draws[:, 0]), 1.0))))
    rows = [CheckResult("stable", "golden_cdf_vs_erfc", {"samples": nsamples},
                        gap, 0.0, 0.0, 0.0, gap, max_gap, gap <= max_gap)]
    for x in xs:
        rows.append(_gap_row("stable", "cdf_identity_quadrature", {"x": x},
                             stb.dimone_residual(0.5, 1.0, x, tol=1e-7).residual, 0.0, tol))
        rows.append(_gap_row("stable", "density_identity_quadrature", {"x": x},
                             stb.alphadens1_residual(0.5, 1.0, x, tol=1e-7).residual, 0.0, tol))
    return rows


def check_stable_properties(rng: RngStream, alphas, thetas, nsamples, ks_floor, cs, tol,
                            trunc_tol=1e-3, nterms=None) -> list[CheckResult]:
    """KS checks on streams 0, 1, 2, ... in the order drawn: 2^(1/alpha) X_theta
    against X_{2 theta} (only the first theta and ``nterms`` terms if alpha >= 1)
    and, for alpha < 1, t^(1/alpha) X1 + (1-t)^(1/alpha) X2 against X0; then
    Levy-measure homogeneity of the shells c < |z| <= 2c."""
    def spectral(alpha, theta):
        return (stb.SpectralMeasure.positive_half_line(theta) if alpha == 0.5
                else stb.SpectralMeasure.symmetric_pair(theta))

    def draw(params, idx, nt=None):
        return stb.sample_stable_many(params, nsamples, rng.substream(idx), trunc_tol=trunc_tol,
                                      nterms=nt)[0][:, 0]

    rows, idx = [], 0
    for alpha in alphas:
        for theta in (thetas if alpha < 1.0 else thetas[:1]):
            p1 = stb.StableParams(alpha, spectral(alpha, theta))
            p2 = stb.StableParams(alpha, spectral(alpha, 2.0 * theta))
            nt = nterms if alpha >= 1.0 else None
            stat, p = ks_two_sample(2.0 ** (1.0 / alpha) * draw(p1, idx, nt), draw(p2, idx + 1, nt))
            rows.append(_p_row("stable", "scaling_ks", {"alpha": alpha, "theta": theta}, stat, p, ks_floor))
            idx += 2
            if alpha >= 1.0:
                continue
            for t in (0.3, 0.5, 0.7):
                combo = (t ** (1.0 / alpha) * draw(p1, idx)
                         + (1.0 - t) ** (1.0 / alpha) * draw(p1, idx + 1))
                stat, p = ks_two_sample(combo, draw(p1, idx + 2))
                rows.append(_p_row("stable", "strict_stability_ks", {"alpha": alpha, "theta": theta, "t": t},
                                   stat, p, ks_floor))
                idx += 3

    hom = stb.StableParams(0.8, stb.SpectralMeasure.axis_symmetric(2.0, dim=2))

    def shell(a_, b_):
        return lambda z: 1.0 if a_ < float(np.linalg.norm(z)) <= b_ else 0.0

    base = stb.levy_integral(hom, shell(1.0, 2.0), tol=1e-9, envelope=stb.RadialEnvelope(0.0, 2.0, 1.0))
    for c in cs:
        small_c = 1.5 / (c * c) if c < 1.0 else 0.0
        val = stb.levy_integral(hom, shell(c, 2.0 * c), tol=1e-9,
                                envelope=stb.RadialEnvelope(small_c, 2.0, 1.0))
        rows.append(_gap_row("stable", "levy_measure_homogeneity", {"c": c}, val / base, c**-0.8, tol))
    return rows


_RADVEC_CASES = [  # (name, params)
    ("positive_half", stb.StableParams(0.5, stb.SpectralMeasure.positive_half_line(1.0))),
    ("symmetric_1d", stb.StableParams(1.0, stb.SpectralMeasure.symmetric_pair(1.0))),
    ("axis_2d", stb.StableParams(0.8, stb.SpectralMeasure.axis_symmetric(1.0, dim=2))),
]


def check_radius_density(rng: RngStream, reps, zmax) -> list[CheckResult]:
    """Radius-density identity at r = 1 from ``reps`` exact samples, case j of
    _RADVEC_CASES on stream j."""
    rows = []
    for j, (name, params) in enumerate(_RADVEC_CASES):
        res = stb.radvec_residual(params, 1.0, reps, rng.substream(j))
        rows.append(_z_row("stable", f"radius_density_identity_{name}", {"r": 1.0, "reps": reps},
                           res.residual, 0.0, res.stderr, 0.0, zmax))
    return rows


def check_cdf_identity_mc(rng: RngStream, reps, zmax) -> list[CheckResult]:
    """CDF identity at alpha = 0.7, x = 1 from ``reps`` exact samples (stream 120)."""
    res = stb.dimone_residual(0.7, 1.0, 1.0, method="monte_carlo", reps=reps, rng=rng.substream(120))
    return [_z_row("stable", "cdf_identity_monte_carlo", {"alpha": 0.7, "x": 1.0},
                   res.residual, 0.0, res.stderr, 0.0, zmax)]


_STABLE_OPTIONS = {"samples": _count(10000, 2), "radvec_reps": _count(100_000, 100)}


def run_stable(cfg: SuiteConfig) -> list[CheckResult]:
    opts = cfg.suite_options("stable")
    nsamples, radvec_reps = opts["samples"], opts["radvec_reps"]
    tols = cfg.suite_options("tolerances")
    rng = cfg.rng("stable")
    return (check_half_index_law(rng, nsamples, tols["golden_gap"], (0.5, 1.0, 2.0, 5.0), tols["stable_quadrature"])
            + check_stable_properties(rng.substream(10), (0.5, 0.8, 1.5), (1.0,), nsamples, tols["ks_p"],
                                      (0.5, 2.0, 4.0), tols["quadrature"], nterms=10_000)
            + check_radius_density(rng.substream(100), radvec_reps, tols["z"])
            + check_cdf_identity_mc(rng, radvec_reps, tols["z"]))


# -- crofton ------------------------------------------------------------------


def parse_shape(spec: dict) -> geo.ConvexBody:
    kind = spec.get("kind")
    if kind == "disk":
        return geo.Disk(np.asarray(spec["center"], dtype=float), float(spec["radius"]))
    if kind == "box":
        return geo.Box(np.asarray(spec["lo"], dtype=float), np.asarray(spec["hi"], dtype=float))
    if kind == "polygon":
        return geo.ConvexPolygon(np.asarray(spec["vertices"], dtype=float))
    if kind == "segment":
        return geo.Segment(np.asarray(spec["a"], dtype=float), np.asarray(spec["b"], dtype=float))
    raise ValueError(f"unknown shape kind {kind!r}")


def parse_density(spec: str | None):
    """Density spec: 'const:<c>' with c > 0, or 'affine:<a>,<b>,<c>' meaning
    max(a + b*x + c*y, 0); returns h (None for 1) and sup h, None if affine."""
    if spec is None or spec == "const:1":
        return None, 1.0
    kind, _, args = spec.partition(":")
    coeffs = [float(v) for v in args.split(",")]
    if not all(math.isfinite(v) for v in coeffs):
        raise ValueError(f"density {spec!r} has a coefficient that is not finite")
    if kind == "const" and len(coeffs) == 1:
        c = coeffs[0]
        if c <= 0:
            raise ValueError("constant density must be positive")
        return (lambda pts: np.full(pts.shape[0], c)), c
    if kind == "affine" and len(coeffs) == 3:
        a, b, c = coeffs
        return (lambda pts: np.maximum(a + b * pts[:, 0] + c * pts[:, 1], 0.0)), None
    raise ValueError(f"unknown density spec {spec!r}")


def configured_shape(shape: dict, density: str | None, t: float):
    """The configured body, its density h and an envelope of h on every set
    the Crofton checks sample: out to radius max(t, 0.2) + delta (delta <=
    1e-2).  Raises ValueError if h has no mass on K_{max(t, 0.2) - delta},
    the smallest set the binomial check samples when it runs, or if the
    envelope's mass on the largest set is not finite."""
    body = parse_shape(shape)
    h, sup = parse_density(density)
    tb = max(t, 0.2)
    if sup is None:
        box = geo.bounding_box(body, pad=tb + 1e-2)
        corners = np.array([[x, y] for x in box[0] for y in box[1]])
        sup = float(np.max(h(corners)))
        if (geo.area(body) > 0 or t > 0) and not geo.integrate_parallel(body, tb - 1e-2, h) > 0:
            raise ValueError(f"density {density!r} has no mass on K_{tb - 1e-2:g}")
    if not math.isfinite(sup * geo.steiner_mass(body, tb + 1e-2)):
        raise ValueError(f"the envelope of h = {density or 'const:1'} has no finite mass on K_{tb + 1e-2:g}")
    return body, h, sup


_DISK = geo.Disk(np.array([0.0, 0.0]), 1.0)
_SHAPES = {
    "disk": _DISK,
    "box": geo.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
    "polygon": geo.ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0], [-0.5, 1.0]])),
    "segment": geo.Segment(np.array([0.0, 0.0]), np.array([2.0, 0.0])),
}


def check_steiner() -> list[CheckResult]:
    """Patch quadrature of K_0.4 against the Steiner mass; the t-derivative of
    the integral of 1 + x^2 over K_t against the boundary integral at t = 0.3."""
    rows = [_gap_row("crofton", "steiner_mass_consistency", {"shape": name, "t": 0.4},
                     geo.integrate_parallel(body, 0.4, lambda p: np.ones(p.shape[0])),
                     geo.steiner_mass(body, 0.4), 1e-8)
            for name, body in _SHAPES.items()]
    for name in ("disk", "box", "polygon"):
        chk = geo.steiner_derivative_check(_SHAPES[name], lambda p: 1.0 + p[:, 0] ** 2, 0.3, delta=1e-3)
        rows.append(_gap_row("crofton", "volume_derivative_vs_boundary", {"shape": name, "t": 0.3},
                             chk.fd_value, chk.boundary_value, 1e-5))
    return rows


def check_crofton_poisson(rng: RngStream, reps, const_reps, zmax) -> list[CheckResult]:
    """Crofton derivative for the unit-intensity Poisson process on K_t: the
    count on the unit disk at t = 0.5 (stream 0) and on the segment [0, 2] x {0}
    at t = 0 (stream 1), each also requiring the boundary side within 1e-9
    (disk) or 1e-12 (segment) of the perimeter of K_t; and a constant
    statistic on the disk (stream 2), both of whose sides must be exactly 0."""
    rows = []
    for j, (check_id, body, t, rhs_tol) in enumerate((("poisson_count_disk", _DISK, 0.5, 1e-9),
                                                      ("poisson_count_segment_t0", _SHAPES["segment"], 0.0, 1e-12))):
        rep = geo.crofton_poisson_check(_COUNT, body, t, reps, rng.substream(j))
        perimeter_t = geo.perimeter(body) + 2.0 * math.pi * t
        rows.append(_crofton_row(check_id, {"t": t, "reps": reps}, rep, zmax,
                                 abs(rep.rhs - perimeter_t) <= rhs_tol))
    const = CountFunctional([], lambda c: np.full(c.shape[0], 2.5), bound=2.5, name="const")
    rep = geo.crofton_poisson_check(const, _DISK, 0.5, const_reps, rng.substream(2))
    rows.append(CheckResult("crofton", "poisson_constant_statistic", {"t": 0.5}, rep.lhs, rep.rhs,
                            0.0, 0.0, max(abs(rep.lhs), abs(rep.rhs)), 0.0,
                            rep.lhs == 0.0 and rep.rhs == 0.0))
    return rows


def check_crofton_binomial(rng: RngStream, cases, reps, zmax) -> list[CheckResult]:
    """Crofton derivative for the m-point binomial process on the unit disk's
    K_t, g = the count within 1/2 of the centre, case j = (m, t) on stream j;
    each also requires the boundary side within zmax standard errors (+1e-12)
    of its closed form -m / (2 (1+t)^3)."""
    inner = ball_region([0.0, 0.0], 0.5)
    rows = []
    for j, (m, t) in enumerate(cases):
        g = CountFunctional([inner], lambda c: c[:, 0].astype(float), bound=float(m), name="count_inner")
        rep = geo.crofton_binomial_check(g, _DISK, t, m, reps, rng.substream(j))
        truth = -m / (2.0 * (1.0 + t) ** 3)
        rows.append(_crofton_row("binomial_count_disk", {"m": m, "t": t, "reps": reps}, rep, zmax,
                                 abs(rep.rhs - truth) <= zmax * rep.rhs_stderr + 1e-12))
    return rows


def check_crofton_shape(rng: RngStream, shape: dict, density, t, m, reps, zmax) -> list[CheckResult]:
    """Both Crofton checks on a configured planar shape and density: the
    Poisson count at t (stream 50) and, for a body of positive area or t > 0,
    the m-point binomial count in a central ball at max(t, 0.2) (stream 51)."""
    body, h, sup = configured_shape(shape, density, t)
    rep = geo.crofton_poisson_check(_COUNT, body, t, reps, rng.substream(50), h=h, sup_density=sup)
    rows = [_crofton_row("poisson_count_configured_shape", {"t": t, "reps": reps, "shape": shape.get("kind")},
                         rep, zmax)]
    if geo.area(body) > 0 or t > 0:
        bb = geo.bounding_box(body)
        center = bb.mean(axis=1)
        radius = 0.25 * float(np.min(bb[:, 1] - bb[:, 0])) + 0.1 * t
        gb = CountFunctional([ball_region(center, radius)], lambda c: c[:, 0].astype(float),
                             bound=float(m), name="count_inner")
        rep = geo.crofton_binomial_check(gb, body, max(t, 0.2), m, reps, rng.substream(51),
                                         h=h, sup_density=sup)
        rows.append(_crofton_row("binomial_count_configured_shape",
                                 {"t": max(t, 0.2), "m": m, "shape": shape.get("kind")}, rep, zmax))
    return rows


_CROFTON_OPTIONS = {
    "reps": _count(lambda cfg: min(cfg.reps, 10000), 2),
    "m": _count(10, 1),
    "t": (0.5, number_in, "a finite nonnegative number"),
    "shape": (None, lambda v: isinstance(v, dict) and parse_shape(v) is not None, "a planar shape"),
    "h": (None, lambda v: isinstance(v, str) and parse_density(v) is not None, "a density spec"),
}


def run_crofton(cfg: SuiteConfig) -> list[CheckResult]:
    opts = cfg.suite_options("crofton")
    reps, zmax = opts["reps"], cfg.suite_options("tolerances")["z"]
    rng = cfg.rng("crofton")
    rows = (check_steiner()
            + check_crofton_poisson(rng, reps, max(100, reps // 50), zmax)
            + check_crofton_binomial(rng.substream(10), [(1, 0.2), (5, 0.2)], reps, zmax))
    if opts["shape"] is not None:
        rows += check_crofton_shape(rng, opts["shape"], opts["h"], float(opts["t"]), opts["m"], reps, zmax)
    return rows


SUITES: dict[str, Callable[[SuiteConfig], list[CheckResult]]] = {
    "identities": run_identities,
    "russo": run_russo,
    "poisson-derivative": run_poisson_derivative,
    "stable": run_stable,
    "crofton": run_crofton,
}
OPTIONS = {"tolerances": _TOLERANCE_OPTIONS, "identities": {}, "russo": _RUSSO_OPTIONS,
           "poisson-derivative": _POISSON_DERIVATIVE_OPTIONS, "stable": _STABLE_OPTIONS,
           "crofton": _CROFTON_OPTIONS}


# the top-level keys; a default of None marks one that must be set
SETTINGS = {
    "seed": (None, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "reps": _count(20000, 2),
    "suites": (None, lambda v: isinstance(v, list) and len(v) > 0 and all(n == "all" or n in SUITES for n in v),
               f"a suite name or a nonempty list of them, from {sorted(SUITES)} or 'all'"),
}


def check_config(config: dict) -> tuple[SuiteConfig, list[str]]:
    """The SuiteConfig of a parsed config and the suites it selects; raises
    ValueError unless every key is in a table with a valid value, every
    required setting is set and a configured Crofton shape can be sampled."""
    if isinstance(config.get("suites"), str):
        config = {**config, "suites": [config["suites"]]}
    entries = []
    for key, value in config.items():
        if key in SETTINGS:
            entries.append((key, SETTINGS[key], value))
        elif key in OPTIONS and isinstance(value, dict):
            entries += [(f"{key}.{k}", OPTIONS[key].get(k), v) for k, v in value.items()]
        else:
            raise ValueError(f"config key {key!r} is neither a setting nor a block given as an object")
    for name, spec, value in entries:
        if spec is None:
            raise ValueError(f"unknown config key {name!r}")
        _, valid, expected = spec
        try:
            ok = valid(value)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
        if not ok:
            raise ValueError(f"{name} must be {expected}")
    for key, (default, _, _) in SETTINGS.items():
        if default is None and key not in config:
            raise ValueError(f"{key!r} is required: set it in the config or on the command line")
    cfg = SuiteConfig(config["seed"], config.get("reps", SETTINGS["reps"][0]),
                      {key: value for key, value in config.items() if key in OPTIONS})
    crofton = cfg.suite_options("crofton")
    if crofton["shape"] is not None:
        configured_shape(crofton["shape"], crofton["h"], float(crofton["t"]))
    return cfg, list(SUITES) if "all" in config["suites"] else config["suites"]
