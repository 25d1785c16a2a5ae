"""Check suites behind the command-line runner.

Every check produces one CheckResult row.  Deterministic checks compare a
gap against an absolute tolerance; Monte Carlo checks compare a z-score
against a z threshold (default 4); KS-type checks compare a p-value against
a floor.  Seeds are derived per suite and per check from the master seed, in
a fixed order, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bernoulli as bn
from . import geometry as geo
from . import identities as idn
from . import perturbation as pert
from . import stable as stb
from .point_process import IntensityMeasure, Statistic, ball_region, box_region, hit_indicator, void_indicator
from .rng import RngStream
from .summaries import ks_two_sample

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


def _z_row(suite, check_id, params, lhs, rhs, lse, rse, zmax) -> CheckResult:
    se = math.hypot(lse, rse)
    z = 0.0 if (se == 0.0 and lhs == rhs) else (math.inf if se == 0.0 else (lhs - rhs) / se)
    return CheckResult(suite, check_id, params, lhs, rhs, lse, rse, z, zmax, abs(z) <= zmax)


def _p_row(suite, check_id, params, stat, pvalue, floor) -> CheckResult:
    return CheckResult(suite, check_id, params, stat, 0.0, 0.0, 0.0, pvalue, floor, pvalue > floor)


@dataclass
class SuiteConfig:
    seed: int
    reps: int = 20000
    tol_identity: float = 1e-10
    tol_relative: float = 1e-12
    tol_ode: float = 1e-5
    tol_quadrature: float = 1e-6
    tol_stable_quad: float = 1e-3
    golden_gap: float = 0.02
    zmax: float = 4.0
    ks_floor: float = 0.01
    options: dict = field(default_factory=dict)

    def rng(self, suite: str) -> RngStream:
        return RngStream(self.seed, SUITE_INDEX[suite])

    def suite_options(self, suite: str) -> dict:
        return self.options.get(suite, {})


# -- identities ---------------------------------------------------------------


def run_identities(cfg: SuiteConfig) -> list[CheckResult]:
    rows = []
    tol = cfg.tol_identity
    for n, k, p in [(2, 1, 0.5), (10, 3, 0.1), (10, 3, 0.9), (25, 1, 0.5), (30, 15, 0.5), (30, 30, 0.9)]:
        rep = bn.identity_report_binomial(n, k, p)
        rows.append(_gap_row("identities", "binomial_tail_vs_beta_integral",
                             {"n": n, "k": k, "p": p}, rep.tail, rep.integral, tol))
    for r, k, p in [(1, 1, 0.5), (3, 5, 0.3), (10, 10, 0.5), (20, 20, 0.9)]:
        rep = bn.identity_report_negbin(r, k, p)
        rows.append(_gap_row("identities", "negbin_binomial_tail_vs_integral",
                             {"r": r, "k": k, "p": p}, rep.binomial_tail, rep.integral, tol))
        rows.append(_gap_row("identities", "negbin_sum_below_k_vs_integral",
                             {"r": r, "k": k, "p": p}, rep.nb_sum_below_k, rep.integral, tol))
        # the sum through k overshoots by exactly the k-th mass (documented
        # discrepancy); the check verifies the overshoot is that mass
        rows.append(_gap_row("identities", "negbin_sum_through_k_overshoot",
                             {"r": r, "k": k, "p": p},
                             rep.nb_sum_through_k - rep.integral, bn.negbin_pmf(r, p, k), 1e-12))
    for theta, k in [(0.5, 1), (2.0, 3), (20.0, 30)]:
        rows.append(_gap_row("identities", "poisson_tail_vs_integral", {"theta": theta, "k": k},
                             idn.poisson_tail(theta, k), idn.poisson_tail_integral(theta, k), tol))
    for n, theta, x in [(1, 2.0, 0.5), (3, 1.5, 2.0), (30, 20.0, 10.0)]:
        direct, via_int, via_po = idn.erlang_cdf(n, theta, x)
        gap = max(abs(direct - via_int), abs(direct - via_po), abs(via_int - via_po))
        rows.append(CheckResult("identities", "erlang_three_way", {"n": n, "theta": theta, "x": x},
                                direct, via_po, 0.0, 0.0, gap, tol, gap <= tol))
    q1 = idn.LatticeDistribution.uniform([1, 2])
    q2 = idn.LatticeDistribution.from_dict({0: 0.2, 1: 0.3, 3: 0.5})
    for name, q, theta, k in [("uniform12", q1, 1.0, 25), ("mixed03", q2, 2.5, 25)]:
        direct = idn.cpois_pmf_direct(theta, q, k)
        panjer = idn.cpois_pmf_panjer(theta, q, k)
        rel = abs(direct - panjer) / max(abs(panjer), 1e-300)
        rows.append(CheckResult("identities", "cpois_direct_vs_panjer",
                                {"q": name, "theta": theta, "k": k},
                                direct, panjer, 0.0, 0.0, rel, cfg.tol_relative, rel <= cfg.tol_relative))
    poly = idn.cpois_pmf_polyrec(2.5, q2, 20)
    pan = idn.cpois_pmf_panjer(2.5, q2, 20)
    rel = abs(poly - pan) / max(abs(pan), 1e-300)
    rows.append(CheckResult("identities", "cpois_polyrec_vs_panjer", {"q": "mixed03", "theta": 2.5, "k": 20},
                            poly, pan, 0.0, 0.0, rel, cfg.tol_relative, rel <= cfg.tol_relative))
    for q, theta, x in [(q1, 1.0, 3.0), (q2, 2.0, 4.0)]:
        resid = idn.cpois_cdf_ode_residual(theta, q, x, 1e-3)
        rows.append(_gap_row("identities", "cpois_cdf_rate_equation",
                             {"theta": theta, "x": x}, resid, 0.0, cfg.tol_ode))
    return rows


# -- russo --------------------------------------------------------------------


def run_russo(cfg: SuiteConfig) -> list[CheckResult]:
    opts = cfg.suite_options("russo")
    nevents = int(opts.get("events", 30))
    max_bits = int(opts.get("max_bits", 10))
    thetas = np.asarray(opts.get("thetas", [0.1, 0.3, 0.5, 0.7, 0.9]), dtype=float)
    rng = cfg.rng("russo")
    rows = []
    for kind, builder in (("monotone_dnf", bn.random_monotone_dnf), ("arbitrary", bn.random_event)):
        worst = 0.0
        for i in range(nevents):
            stream = rng.substream(i if kind == "monotone_dnf" else 10_000 + i)
            m = int(stream.generator().integers(2, max_bits + 1))
            event = builder(m, stream.substream(1))
            poly = bn.event_polynomial(event)
            for th in thetas:
                worst = max(worst, abs(bn.russo_derivative(event, float(th))
                                       - float(poly.derivative(th))))
        rows.append(_gap_row("russo", f"derivative_matches_polynomial_{kind}",
                             {"events": nevents, "max_bits": max_bits}, worst, 0.0, cfg.tol_identity))
    n, k = 8, 3
    ev = bn.threshold_event(n, k)
    x = np.zeros(n, dtype=np.uint8)
    x[: k - 1] = 1
    nplus, nminus = bn.pivotal_counts(ev, x)
    rows.append(_gap_row("russo", "threshold_below_boundary_pivotal_count",
                         {"n": n, "k": k}, float(nplus), float(n - k + 1), 0.0))
    rows.append(_gap_row("russo", "threshold_monotone_no_minus", {"n": n, "k": k}, float(nminus), 0.0, 0.0))
    r, k = 4, 6
    ev = bn.threshold_event(k + r - 1, r)
    x = np.zeros(k + r - 1, dtype=np.uint8)
    x[:r] = 1  # exactly r successes: flipping any of them exits the event
    nplus, _ = bn.pivotal_counts(ev, x)
    rows.append(_gap_row("russo", "negbin_boundary_pivotal_count_is_r",
                         {"r": r, "k": k}, float(nplus), float(r), 0.0))
    return rows


# -- poisson derivative -------------------------------------------------------


def run_poisson_derivative(cfg: SuiteConfig) -> list[CheckResult]:
    opts = cfg.suite_options("poisson-derivative")
    reps = int(opts.get("reps", cfg.reps))
    rng = cfg.rng("poisson-derivative")
    lam = IntensityMeasure.unit_square()
    B = box_region([0.0, 0.0], [0.5, 0.5])
    theta = 1.5
    pB = 0.25
    rows = []

    count = Statistic(eval=lambda phi: float(len(phi)), name="count")
    est = pert.derivative_location_estimator(count, lam, theta, reps, rng.substream(0))
    rows.append(_z_row("poisson-derivative", "location_count", {"theta": theta, "reps": reps},
                       est.estimate, 1.0, est.stderr, 0.0, cfg.zmax))

    void = void_indicator(B)
    est = pert.derivative_location_estimator(void, lam, theta, reps, rng.substream(1))
    rows.append(_z_row("poisson-derivative", "location_void", {"theta": theta, "reps": reps},
                       est.estimate, -pB * math.exp(-theta * pB), est.stderr, 0.0, cfg.zmax))

    hit = hit_indicator(B)
    est = pert.derivative_location_estimator(hit, lam, theta, reps, rng.substream(2))
    rows.append(_z_row("poisson-derivative", "location_hit", {"theta": theta, "reps": reps},
                       est.estimate, pB * math.exp(-theta * pB), est.stderr, 0.0, cfg.zmax))

    loc = pert.derivative_location_estimator(hit, lam, theta, reps, rng.substream(3))
    pnt = pert.derivative_point_estimator(hit, lam, theta, reps, rng.substream(4))
    rows.append(_z_row("poisson-derivative", "pivotal_points_vs_locations", {"theta": theta, "reps": reps},
                       pnt.estimate, loc.nplus, pnt.stderr, loc.nplus_stderr, cfg.zmax))

    nu = IntensityMeasure.unit_square()
    for th in (0.25, 1.0):
        res = pert.perturbation_series(void, lam, nu, th, kmax=6, reps=max(2000, reps // 4),
                                       rng=rng.substream(5 + int(th * 4)))
        target = math.exp(-pB * (1.0 + th))
        gap = abs(res.estimate - target)
        slack = res.truncation_bound + cfg.zmax * res.stderr
        rows.append(CheckResult("poisson-derivative", "series_void_probability",
                                {"theta": th, "kmax": 6}, res.estimate, target,
                                res.stderr, 0.0, gap, slack, gap <= slack))

    # arrival-time identity: on [0, x] with unit density, the derivative of
    # P(at least n points) is x^n/(n-1)! * theta^(n-1) e^(-theta x)
    n_arr, x_arr, th_arr = 3, 1.5, 0.8
    seg = IntensityMeasure.interval(0.0, x_arr)
    atleast = hit_indicator(box_region([0.0], [x_arr]), k=n_arr)
    est = pert.derivative_location_estimator(atleast, seg, th_arr, reps, rng.substream(11))
    truth = x_arr**n_arr / math.factorial(n_arr - 1) * th_arr ** (n_arr - 1) * math.exp(-th_arr * x_arr)
    rows.append(_z_row("poisson-derivative", "erlang_arrival_derivative",
                       {"n": n_arr, "x": x_arr, "theta": th_arr}, est.estimate, truth,
                       est.stderr, 0.0, cfg.zmax))

    sq_count = Statistic(eval=lambda phi: float(len(phi)) ** 2, name="count_squared")
    est2 = pert.higher_derivative_estimator(sq_count, lam, th_arr, 2, reps, rng.substream(12))
    rows.append(_z_row("poisson-derivative", "second_derivative_count_squared",
                       {"theta": th_arr, "reps": reps}, est2.mean, 2.0, est2.stderr, 0.0, cfg.zmax))
    return rows


# -- stable -------------------------------------------------------------------


def run_stable(cfg: SuiteConfig) -> list[CheckResult]:
    opts = cfg.suite_options("stable")
    nsamples = int(opts.get("samples", 10000))
    radvec_reps = int(opts.get("radvec_reps", 100_000))
    rng = cfg.rng("stable")
    rows = []

    pos = stb.StableParams(0.5, stb.SpectralMeasure.positive_half_line(1.0))
    draws, _ = stb.sample_stable_many(pos, nsamples, rng.substream(0))
    xs = np.sort(draws[:, 0])
    gap = float(np.max(np.abs(np.arange(1, nsamples + 1) / nsamples
                              - stb.positive_half_cdf(xs, 1.0))))
    rows.append(CheckResult("stable", "golden_cdf_vs_erfc", {"samples": nsamples},
                            gap, 0.0, 0.0, 0.0, gap, cfg.golden_gap, gap <= cfg.golden_gap))

    for x in (0.5, 1.0, 2.0, 5.0):
        res = stb.dimone_residual(0.5, 1.0, x, tol=1e-7)
        rows.append(_gap_row("stable", "cdf_identity_quadrature", {"x": x},
                             res.residual, 0.0, cfg.tol_stable_quad))
        res = stb.alphadens1_residual(0.5, 1.0, x, tol=1e-7)
        rows.append(_gap_row("stable", "density_identity_quadrature", {"x": x},
                             res.residual, 0.0, cfg.tol_stable_quad))

    def spectral_for(alpha: float, theta: float):
        if alpha < 1.0:
            return stb.SpectralMeasure.positive_half_line(theta) if alpha == 0.5 \
                else stb.SpectralMeasure.symmetric_pair(theta)
        return stb.SpectralMeasure.symmetric_pair(theta)

    idx = 10
    for alpha in (0.5, 0.8, 1.5):
        nt = 10_000 if alpha >= 1.0 else None
        p1 = stb.StableParams(alpha, spectral_for(alpha, 1.0))
        p2 = stb.StableParams(alpha, spectral_for(alpha, 2.0))
        a, _ = stb.sample_stable_many(p1, nsamples, rng.substream(idx), nterms=nt)
        b, _ = stb.sample_stable_many(p2, nsamples, rng.substream(idx + 1), nterms=nt)
        stat, p = ks_two_sample(2.0 ** (1.0 / alpha) * a[:, 0], b[:, 0])
        rows.append(_p_row("stable", "scaling_ks", {"alpha": alpha}, stat, p, cfg.ks_floor))
        idx += 2
        if alpha >= 1.0:
            continue
        for t in (0.3, 0.5, 0.7):
            x1, _ = stb.sample_stable_many(p1, nsamples, rng.substream(idx))
            x2, _ = stb.sample_stable_many(p1, nsamples, rng.substream(idx + 1))
            x0, _ = stb.sample_stable_many(p1, nsamples, rng.substream(idx + 2))
            combo = t ** (1.0 / alpha) * x1[:, 0] + (1.0 - t) ** (1.0 / alpha) * x2[:, 0]
            stat, p = ks_two_sample(combo, x0[:, 0])
            rows.append(_p_row("stable", "strict_stability_ks", {"alpha": alpha, "t": t},
                               stat, p, cfg.ks_floor))
            idx += 3

    hom = stb.StableParams(0.8, stb.SpectralMeasure.axis_symmetric(2.0, dim=2))

    def shell(a_, b_):
        return lambda z: 1.0 if a_ < float(np.linalg.norm(z)) <= b_ else 0.0

    base = stb.levy_integral(hom, shell(1.0, 2.0), tol=1e-9,
                             envelope=stb.RadialEnvelope(0.0, 2.0, 1.0))
    for c in (0.5, 2.0, 4.0):
        small_c = 1.5 / (c * c) if c < 1.0 else 0.0
        val = stb.levy_integral(hom, shell(c, 2.0 * c), tol=1e-9,
                                envelope=stb.RadialEnvelope(small_c, 2.0, 1.0))
        rows.append(_gap_row("stable", "levy_measure_homogeneity", {"c": c},
                             val / base, c**-0.8, cfg.tol_quadrature))

    radvec_cases = [
        ("positive_half", stb.StableParams(0.5, stb.SpectralMeasure.positive_half_line(1.0)), None),
        ("symmetric_1d", stb.StableParams(1.0, stb.SpectralMeasure.symmetric_pair(1.0)), 1000),
        ("axis_2d", stb.StableParams(0.8, stb.SpectralMeasure.axis_symmetric(1.0, dim=2)), 800),
    ]
    for j, (name, params, nt) in enumerate(radvec_cases):
        res = stb.radvec_residual(params, 1.0, radvec_reps, rng.substream(100 + j), nterms=nt)
        rows.append(_z_row("stable", f"radius_density_identity_{name}",
                           {"r": 1.0, "reps": radvec_reps}, res.residual, 0.0, res.stderr, 0.0, cfg.zmax))

    res = stb.dimone_residual(0.7, 1.0, 1.0, method="monte_carlo", reps=radvec_reps,
                              rng=rng.substream(120))
    rows.append(_z_row("stable", "cdf_identity_monte_carlo", {"alpha": 0.7, "x": 1.0},
                       res.residual, 0.0, res.stderr, 0.0, cfg.zmax))
    return rows


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
    """Density spec: 'const:<c>' or 'affine:<a>,<b>,<c>' meaning a + b*x + c*y."""
    if spec is None or spec == "const:1":
        return None, 1.0
    if spec.startswith("const:"):
        c = float(spec.split(":", 1)[1])
        if c < 0:
            raise ValueError("constant density must be nonnegative")
        return (lambda pts: np.full(pts.shape[0], c)), c
    if spec.startswith("affine:"):
        a, b, c = (float(v) for v in spec.split(":", 1)[1].split(","))
        return (lambda pts: np.maximum(a + b * pts[:, 0] + c * pts[:, 1], 0.0)), None
    raise ValueError(f"unknown density spec {spec!r}")


def run_crofton(cfg: SuiteConfig) -> list[CheckResult]:
    opts = cfg.suite_options("crofton")
    reps = int(opts.get("reps", min(cfg.reps, 10000)))
    rng = cfg.rng("crofton")
    rows = []

    shapes = {
        "disk": geo.Disk(np.array([0.0, 0.0]), 1.0),
        "box": geo.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
        "polygon": geo.ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0], [-0.5, 1.0]])),
        "segment": geo.Segment(np.array([0.0, 0.0]), np.array([2.0, 0.0])),
    }
    for name, body in shapes.items():
        t = 0.4
        patch = geo.integrate_parallel(body, t, lambda p: np.ones(p.shape[0]))
        rows.append(_gap_row("crofton", "steiner_mass_consistency", {"shape": name, "t": t},
                             patch, geo.steiner_mass(body, t), 1e-8))
    for name in ("disk", "box", "polygon"):
        body = shapes[name]
        chk = geo.steiner_derivative_check(body, lambda p: 1.0 + p[:, 0] ** 2, 0.3, delta=1e-3)
        rows.append(_gap_row("crofton", "volume_derivative_vs_boundary", {"shape": name, "t": 0.3},
                             chk.fd_value, chk.boundary_value, 1e-5))

    count = Statistic(eval=lambda phi: float(len(phi)), bound=1e9, name="count")
    rep = geo.crofton_poisson_check(count, shapes["disk"], 0.5, reps, rng.substream(0))
    rows.append(CheckResult("crofton", "poisson_count_disk", {"t": 0.5, "reps": reps},
                            rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr,
                            rep.z, cfg.zmax, abs(rep.z) <= cfg.zmax))
    rep = geo.crofton_poisson_check(count, shapes["segment"], 0.0, reps, rng.substream(1))
    rows.append(CheckResult("crofton", "poisson_count_segment_t0", {"reps": reps},
                            rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr,
                            rep.z, cfg.zmax, abs(rep.z) <= cfg.zmax))
    const = Statistic(eval=lambda phi: 2.5, bound=2.5, name="const")
    rep = geo.crofton_poisson_check(const, shapes["disk"], 0.5, max(100, reps // 50), rng.substream(2))
    rows.append(_gap_row("crofton", "poisson_constant_statistic", {"t": 0.5},
                         rep.lhs, rep.rhs, 0.0))

    B = ball_region([0.0, 0.0], 0.5)
    gB = Statistic(eval=lambda phi: float(phi.count_in(B)), bound=1e9, name="count_inner")
    for m in (1, 5):
        rep = geo.crofton_binomial_check(gB, shapes["disk"], 0.2, m, reps, rng.substream(10 + m))
        rows.append(CheckResult("crofton", "binomial_count_disk", {"m": m, "t": 0.2, "reps": reps},
                                rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr,
                                rep.z, cfg.zmax, abs(rep.z) <= cfg.zmax))

    # user-configured shape block
    if "shape" in opts:
        body = parse_shape(opts["shape"])
        h, sup = parse_density(opts.get("h"))
        t = float(opts.get("t", 0.5))
        m = int(opts.get("m", 10))
        if sup is None:
            # the checks below sample out to radius max(t, 0.2) + delta
            # (delta <= 1e-2), so the envelope must hold on that box
            box = geo.bounding_box(body, pad=max(t, 0.2) + 1e-2)
            corners = np.array([[x, y] for x in box[0] for y in box[1]])
            sup = float(np.max(h(corners)))
        rep = geo.crofton_poisson_check(count, body, t, reps, rng.substream(50),
                                        h=h, sup_density=sup)
        rows.append(CheckResult("crofton", "poisson_count_configured_shape",
                                {"t": t, "reps": reps, "shape": opts["shape"].get("kind")},
                                rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr,
                                rep.z, cfg.zmax, abs(rep.z) <= cfg.zmax))
        if geo.area(body) > 0 or t > 0:
            bb = geo.bounding_box(body)
            center = bb.mean(axis=1)
            radius = 0.25 * float(np.min(bb[:, 1] - bb[:, 0])) + 0.1 * t
            gb = Statistic(eval=lambda phi: float(phi.count_in(ball_region(center, radius))),
                           bound=float(m), name="count_inner")
            rep = geo.crofton_binomial_check(gb, body, max(t, 0.2), m, reps, rng.substream(51),
                                             h=h, sup_density=sup)
            rows.append(CheckResult("crofton", "binomial_count_configured_shape",
                                    {"t": max(t, 0.2), "m": m, "shape": opts["shape"].get("kind")},
                                    rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr,
                                    rep.z, cfg.zmax, abs(rep.z) <= cfg.zmax))
    return rows


SUITES: dict[str, Callable[[SuiteConfig], list[CheckResult]]] = {
    "identities": run_identities,
    "russo": run_russo,
    "poisson-derivative": run_poisson_derivative,
    "stable": run_stable,
    "crofton": run_crofton,
}
