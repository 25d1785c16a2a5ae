"""The three benchmark workloads, as lists of operations on ``pivotal``.

An operation is one call (or a short fixed sequence of calls) into the
library's public functions on inputs built from the workload seed, plus a
check of its output against a reference that does not come from the library
(see ``reference.py``).  A workload round calls every operation once, in
order; the inputs are built once, before the first round, so every round
repeats exactly the same work.

Library functions are always looked up through their module at call time
(``pert.derivative_location_estimator``, never a name imported from it), so
the traced run can wrap them by patching module attributes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from pivotal import bernoulli as bn
from pivotal import geometry as geo
from pivotal import identities as idn
from pivotal import perturbation as pert
from pivotal import stable as stb
from pivotal import summaries as summ
from pivotal.point_process import IntensityMeasure, Statistic, ball_region, box_region, hit_indicator, void_indicator
from pivotal.rng import RngStream

import reference as refs

# Monte Carlo checks reject a correct program with probability below about
# 1e-6 per check and seed, so no seed the benchmark is run with should turn a
# statistical fluctuation into a failed operation.
Z_MAX = 5.0
P_FLOOR = 1e-6
# deterministic identities: the absolute tolerance of the acceptance gates
ABS_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``call`` runs the library and is the only part that is timed.  ``ref``
    computes the independent reference, once, after the timed rounds; ``check``
    compares an output of ``call`` with it.  ``known_fault`` marks an operation
    that fails on every seed because of a named fault in the library.
    """

    name: str
    call: Callable[[], Any]
    ref: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    known_fault: bool = False


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)

    def add(self, name, call, ref, check, known_fault=False):
        self.ops.append(Op(name, call, ref, check, known_fault))


# -- check helpers -------------------------------------------------------------


def _close(out, ref, tol=ABS_TOL) -> bool:
    a = np.asarray(out, dtype=float)
    b = np.asarray(ref, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _close_rel(out, ref, rel: float, floor: float = 0.0) -> bool:
    a = np.asarray(out, dtype=float)
    b = np.asarray(ref, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.abs(b) + floor))


def _z_ok(estimate: float, stderr: float, truth: float) -> bool:
    if not (math.isfinite(estimate) and math.isfinite(stderr)):
        return False
    if stderr == 0.0:
        return abs(estimate - truth) <= 1e-12
    return abs(estimate - truth) <= Z_MAX * stderr


def _check_close(out, ref) -> bool:
    return _close(out, ref)


def _const(value):
    return lambda: value


def _lib(fn, *args, **kwargs):
    """``partial`` that looks ``fn`` up through its module at call time."""
    module, name = sys.modules[fn.__module__], fn.__name__
    return lambda: getattr(module, name)(*args, **kwargs)


# -- poisson-replicates ----------------------------------------------------------


def poisson_replicates(seed: int, smoke: bool = False) -> Workload:
    """Per-replicate Monte Carlo estimators of Poisson derivatives and Crofton checks."""
    scale = 0.02 if smoke else 1.0

    def reps(n: int) -> int:
        return max(50, int(n * scale))

    w = Workload()
    rng = RngStream(seed, 6)
    lam = IntensityMeasure.unit_square()
    B = box_region([0.0, 0.0], [0.5, 0.5])
    area_B = 0.25
    theta = 1.5
    count = Statistic(eval=lambda phi: float(len(phi)), name="count")
    void = void_indicator(B)
    hit = hit_indicator(B)
    d_hit = area_B * math.exp(-theta * area_B)  # d/dtheta P(hit B) = E N+

    n = reps(2000)
    w.add("location/count", _lib(pert.derivative_location_estimator, count, lam, theta, n, rng.substream(0)),
          _const(1.0),  # d/dtheta E N = lam(X)
          lambda out, ref: _z_ok(out.estimate, out.stderr, ref))
    w.add("location/void", _lib(pert.derivative_location_estimator, void, lam, theta, n, rng.substream(1)),
          _const(-d_hit),
          lambda out, ref: (_z_ok(out.estimate, out.stderr, ref) and out.nplus == 0.0
                            and _z_ok(out.nminus, out.nminus_stderr, -ref)))
    w.add("location/hit", _lib(pert.derivative_location_estimator, hit, lam, theta, n, rng.substream(2)),
          _const(d_hit),
          lambda out, ref: (_z_ok(out.estimate, out.stderr, ref) and _z_ok(out.nplus, out.nplus_stderr, ref)
                            and out.nminus == 0.0))
    w.add("point/hit", _lib(pert.derivative_point_estimator, hit, lam, theta, n, rng.substream(3)),
          _const(d_hit),
          lambda out, ref: _z_ok(out.estimate, out.stderr, ref) and out.added_atom_estimate == 0.0)

    # high intensity: ~200 points per replicate against a box of mass 1/theta,
    # where the void derivative -|B| e^{-theta |B|} is largest
    dense_theta, dense_area = 200.0, 0.005
    dense_void = void_indicator(box_region([0.0, 0.0], [0.05, 0.1]))
    n_dense = reps(6000)
    p_dense = dense_area * math.exp(-dense_theta * dense_area)
    w.add("location/void-dense",
          _lib(pert.derivative_location_estimator, dense_void, lam, dense_theta, n_dense, rng.substream(4)),
          # each replicate contributes 0 or -1, so -estimate * reps is a
          # Binomial(reps, |B| e^{-theta |B|}) count
          _const((n_dense, p_dense)),
          lambda out, ref: refs.binomial_two_sided_p(-out.estimate * ref[0], ref[0], ref[1]) > P_FLOOR)

    n_arr, x_arr, th_arr = 3, 1.5, 0.8
    seg = IntensityMeasure.interval(0.0, x_arr)
    atleast = hit_indicator(box_region([0.0], [x_arr]), k=n_arr)
    w.add("location/erlang-arrival",
          _lib(pert.derivative_location_estimator, atleast, seg, th_arr, n, rng.substream(5)),
          _const(x_arr**n_arr / math.factorial(n_arr - 1) * th_arr ** (n_arr - 1) * math.exp(-th_arr * x_arr)),
          lambda out, ref: _z_ok(out.estimate, out.stderr, ref))

    sq_count = Statistic(eval=lambda phi: float(len(phi)) ** 2, name="count_squared")
    w.add("higher/count-squared-k2",
          _lib(pert.higher_derivative_estimator, sq_count, lam, th_arr, 2, n, rng.substream(6)),
          _const(2.0),  # d^2/dtheta^2 E N^2 = 2 lam(X)^2
          lambda out, ref: _z_ok(out.mean, out.stderr, ref))

    series_theta, kmax = 0.5, 6
    n_series = reps(300)
    w.add("series/void-kmax6",
          _lib(pert.perturbation_series, void, lam, lam, series_theta, kmax=kmax, reps=n_series,
               rng=rng.substream(7)),
          lambda: (math.exp(-area_B * (1.0 + series_theta)),
                   refs.series_truncation_bound(1.0, 2.0 * series_theta * 1.0, kmax)),
          lambda out, ref: (_close_rel(out.truncation_bound, ref[1], 1e-9)
                            and abs(out.estimate - ref[0]) <= ref[1] + Z_MAX * out.stderr))

    disk = geo.Disk(np.array([0.0, 0.0]), 1.0)
    segment = geo.Segment(np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    # the count is unbounded; the check's boundedness guard needs a bound
    unbounded_count = Statistic(eval=lambda phi: float(len(phi)), bound=1e9, name="count")
    t_disk = 0.5
    w.add("crofton/poisson-disk",
          _lib(geo.crofton_poisson_check, unbounded_count, disk, t_disk, reps(500), rng.substream(8)),
          _const(2.0 * math.pi * (1.0 + t_disk)),  # boundary length of the parallel disk
          lambda out, ref: _close(out.rhs, ref, 1e-9) and _z_ok(out.lhs, out.lhs_stderr, ref))
    w.add("crofton/poisson-segment-t0",
          _lib(geo.crofton_poisson_check, unbounded_count, segment, 0.0, n, rng.substream(9)),
          _const(2.0 * 2.0),  # both sides of a segment of length 2
          lambda out, ref: _close(out.rhs, ref, 1e-12) and _z_ok(out.lhs, out.lhs_stderr, ref))
    const = Statistic(eval=lambda phi: 2.5, bound=2.5, name="const")
    w.add("crofton/poisson-constant",
          _lib(geo.crofton_poisson_check, const, disk, t_disk, reps(100), rng.substream(10)),
          _const(0.0),
          lambda out, ref: out.lhs == ref and out.rhs == ref)

    inner = ball_region([0.0, 0.0], 0.5)
    t_bin = 0.2
    for m in (1, 20):
        g = Statistic(eval=lambda phi: float(phi.count_in(inner)), bound=float(m), name="count_inner")
        w.add(f"crofton/binomial-disk-m{m}",
              _lib(geo.crofton_binomial_check, g, disk, t_bin, m, reps(300), rng.substream(11 + m)),
              partial(refs.crofton_binomial_target, m, t_bin),
              lambda out, ref: (_z_ok(out.lhs, out.lhs_stderr, ref)
                                and abs(out.rhs - ref) <= Z_MAX * out.rhs_stderr + 1e-12))
    return w


# -- stable-lepage -------------------------------------------------------------


def _first_coordinates(params, nsamples, stream):
    return stb.sample_stable_many(params, nsamples, stream)[0][:, 0]


def _ks_pair(a: np.ndarray, b: np.ndarray):
    stat, p = summ.ks_two_sample(a, b)
    return stat, p, a, b


def _check_ks(out, ref) -> bool:
    stat, p, a, b = out
    return p > P_FLOOR and abs(stat - refs.ks_2samp_statistic(a, b)) <= 1e-12


def _scaling_ks(p1, p2, nsamples, s1, s2, trunc_tol, nterms):
    alpha = p1.alpha
    a, _ = stb.sample_stable_many(p1, nsamples, s1, trunc_tol=trunc_tol, nterms=nterms)
    b, _ = stb.sample_stable_many(p2, nsamples, s2, trunc_tol=trunc_tol, nterms=nterms)
    return _ks_pair(2.0 ** (1.0 / alpha) * a[:, 0], b[:, 0])


def _strict_ks(params, t, nsamples, stream, trunc_tol):
    alpha = params.alpha
    x1, _ = stb.sample_stable_many(params, nsamples, stream.substream(0), trunc_tol=trunc_tol)
    x2, _ = stb.sample_stable_many(params, nsamples, stream.substream(1), trunc_tol=trunc_tol)
    x0, _ = stb.sample_stable_many(params, nsamples, stream.substream(2), trunc_tol=trunc_tol)
    combo = t ** (1.0 / alpha) * x1[:, 0] + (1.0 - t) ** (1.0 / alpha) * x2[:, 0]
    return _ks_pair(combo, x0[:, 0])


def _homogeneity(params, cs):
    def shell(a_, b_):
        return lambda z: 1.0 if a_ < float(np.linalg.norm(z)) <= b_ else 0.0

    base = stb.levy_integral(params, shell(1.0, 2.0), tol=1e-9, envelope=stb.RadialEnvelope(0.0, 2.0, 1.0))
    out = []
    for c in cs:
        small = 1.5 / (c * c) if c < 1.0 else 0.0
        val = stb.levy_integral(params, shell(c, 2.0 * c), tol=1e-9, envelope=stb.RadialEnvelope(small, 2.0, 1.0))
        out.append(val / base)
    return np.array(out)


def _residual_z_ok(out, ref) -> bool:
    return _z_ok(out.residual, out.stderr, ref)


def stable_lepage(seed: int, smoke: bool = False) -> Workload:
    """LePage series sampling, KS property checks, radius-identity estimators."""
    scale = 0.05 if smoke else 1.0

    def size(n: int) -> int:
        return max(100, int(n * scale))

    w = Workload()
    rng = RngStream(seed, 9)
    half = {th: stb.StableParams(0.5, stb.SpectralMeasure.positive_half_line(th)) for th in (1.0, 2.0)}
    pair08 = {th: stb.StableParams(0.8, stb.SpectralMeasure.symmetric_pair(th)) for th in (1.0, 2.0)}
    pair15 = {th: stb.StableParams(1.5, stb.SpectralMeasure.symmetric_pair(th)) for th in (1.0, 2.0)}

    # short series: alpha = 1/2 on the half line, 72 and 177 terms at the
    # default truncation tolerance, 36 and 90 at 3e-3
    n_golden = size(10_000)
    for j, th in enumerate((1.0, 2.0)):
        w.add(f"golden/half-theta{th:g}",
              partial(_first_coordinates, half[th], n_golden, rng.substream(j)),
              _const(math.pi * th * th / 2.0),  # scipy.stats.levy scale
              lambda out, ref: refs.levy_ks_pvalue(out, ref) > P_FLOOR)
    n_short = size(10_000)
    w.add("scaling/half", partial(_scaling_ks, half[1.0], half[2.0], n_short, rng.substream(10),
                                  rng.substream(11), 3e-3, None), _const(None), _check_ks)
    for j, t in enumerate((0.3, 0.5, 0.7)):
        w.add(f"strict/half-t{t:g}", partial(_strict_ks, half[1.0], t, n_short, rng.substream(20 + j), 3e-3),
              _const(None), _check_ks)

    # long series: alpha = 0.8 symmetric pair (1766 and 5601 terms at 3e-3),
    # alpha = 1.5 at 5000 terms
    n_long = size(2000)
    w.add("scaling/pair-a0.8", partial(_scaling_ks, pair08[1.0], pair08[2.0], n_long, rng.substream(30),
                                       rng.substream(31), 3e-3, None), _const(None), _check_ks)
    w.add("strict/pair-a0.8-t0.5", partial(_strict_ks, pair08[1.0], 0.5, n_long, rng.substream(32), 3e-3),
          _const(None), _check_ks)
    w.add("scaling/pair-a1.5", partial(_scaling_ks, pair15[1.0], pair15[2.0], size(1000), rng.substream(33),
                                       rng.substream(34), 3e-3, 5000), _const(None), _check_ks)

    # radius-density identity on the three cases of the acceptance gate
    radvec_reps = size(10_000)
    radvec_cases = [
        ("positive-half", half[1.0], None),
        ("symmetric-a1", stb.StableParams(1.0, stb.SpectralMeasure.symmetric_pair(1.0)), 1000),
        ("axis-2d-a0.8", stb.StableParams(0.8, stb.SpectralMeasure.axis_symmetric(1.0, dim=2)), 800),
    ]
    for j, (label, params, nt) in enumerate(radvec_cases):
        w.add(f"radvec/{label}",
              _lib(stb.radvec_residual, params, 1.0, radvec_reps, rng.substream(40 + j), nterms=nt),
              _const(0.0), _residual_z_ok)
    mc_reps = size(20_000)
    w.add("dimone/monte-carlo-a0.7",
          _lib(stb.dimone_residual, 0.7, 1.0, 1.0, method="monte_carlo", reps=mc_reps, rng=rng.substream(50)),
          _const(0.0), _residual_z_ok)
    w.add("alphadens1/monte-carlo-a0.5",
          _lib(stb.alphadens1_residual, 0.5, 1.0, 1.0, method="monte_carlo", reps=mc_reps, rng=rng.substream(51)),
          _const(0.0), _residual_z_ok)

    hom = stb.StableParams(0.8, stb.SpectralMeasure.axis_symmetric(2.0, dim=2))
    cs = (0.5, 2.0, 4.0)
    w.add("levy/homogeneity", partial(_homogeneity, hom, cs),
          _const(np.array(cs) ** -0.8),  # the Levy measure scales as c^{-alpha}
          lambda out, ref: _close(out, ref, 1e-6))
    return w


# -- exact-identities ----------------------------------------------------------


def _russo_call(event, thetas):
    poly = bn.event_polynomial(event)
    russo = np.array([bn.russo_derivative(event, float(t)) for t in thetas])
    return poly.probability(thetas), poly.derivative(thetas), russo


def _check_russo(out, ref) -> bool:
    prob, deriv, russo = out
    p_ref, d_ref = ref
    return _close(prob, p_ref) and _close(deriv, d_ref) and _close(russo, d_ref)


def _binomial_call(n, k, p):
    rep = bn.identity_report_binomial(n, k, p)
    return rep.tail, rep.integral


def _negbin_call(r, k, p):
    rep = bn.identity_report_negbin(r, k, p)
    return rep.binomial_tail, rep.integral, rep.nb_sum_below_k, rep.nb_sum_through_k


def _poisson_call(theta, k):
    return idn.poisson_tail(theta, k), idn.poisson_tail_integral(theta, k)


def _cpois_call(theta, q, kmax):
    ks = range(kmax + 1)
    return (idn.panjer_pmfs(theta, q, kmax),
            np.array([idn.cpois_pmf_direct(theta, q, k) for k in ks]),
            np.array([idn.cpois_pmf_polyrec(theta, q, k) for k in ks]))


def _check_cpois(out, ref) -> bool:
    # the FFT reference is good to ~1e-16 absolute, so tiny masses are only
    # checked to that level; larger ones to the gate's 1e-12 relative
    return all(_close_rel(route, ref, 1e-12, 5e-15) for route in out)


def _jump_law(gen) -> idn.LatticeDistribution:
    q_raw = gen.random(6) * (gen.random(6) < 0.7)
    if q_raw.sum() == 0:
        q_raw[1] = 1.0
    return idn.LatticeDistribution(q_raw / q_raw.sum())


def _steiner_derivative_call(body, f, t):
    chk = geo.steiner_derivative_check(body, f, t, delta=1e-3)
    return chk.fd_value, chk.boundary_value


def _ones(p):
    return np.ones(p.shape[0])


def _one_plus_x2(p):
    return 1.0 + p[:, 0] ** 2


def exact_identities(seed: int, smoke: bool = False) -> Workload:
    """The deterministic checks of criteria c01-c05 over their full case grids."""
    w = Workload()

    # Russo derivatives: sizes 2..12 in turn, structure drawn from the seed
    thetas = np.arange(1, 10) / 10.0
    nevents = 4 if smoke else 100
    rng = RngStream(seed, 1)
    for kind, builder, offset in (("monotone-dnf", bn.random_monotone_dnf, 0), ("table", bn.random_event, 1000)):
        for i in range(nevents):
            m = 2 + i % 11
            event = builder(m, rng.substream(offset + i))
            w.add(f"russo/{kind}/{i}-m{m}", partial(_russo_call, event, thetas),
                  partial(refs.event_polynomial_values, event, thetas), _check_russo)

    nmax, rkmax = (4, 3) if smoke else (30, 20)
    for n in range(1, nmax + 1):
        for k in range(1, n + 1):
            for p in (0.1, 0.5, 0.9):
                w.add(f"binomial/n{n}-k{k}-p{p}", partial(_binomial_call, n, k, p),
                      partial(refs.binomial_tail_refs, n, k, p), _check_close)
    for r in range(1, rkmax + 1):
        for k in range(1, rkmax + 1):
            for p in (0.1, 0.5, 0.9):
                w.add(f"negbin/r{r}-k{k}-p{p}", partial(_negbin_call, r, k, p),
                      partial(refs.negbin_refs, r, k, p), _check_close)

    kpois = 4 if smoke else 30
    for theta in (0.5, 2.0, 7.0, 20.0):
        for k in range(1, kpois + 1):
            w.add(f"poisson-tail/theta{theta:g}-k{k}", partial(_poisson_call, theta, k),
                  partial(refs.poisson_tail_refs, theta, k), _check_close)
    for n in ((1, 5) if smoke else (1, 2, 3, 5, 10, 20, 30)):
        for theta in (0.5, 2.0, 7.0, 20.0):
            for x in (0.1, 1.0, 3.0, 10.0):
                w.add(f"erlang/n{n}-theta{theta:g}-x{x:g}", _lib(idn.erlang_cdf, n, theta, x),
                      partial(refs.erlang_refs, n, theta, x),
                      lambda out, r: _close(out, [r] * 3))

    # compound Poisson: theta stratified over (0.05, 5) so the work per round
    # does not depend on the seed
    rng5 = RngStream(seed, 5)
    nlaws = 3 if smoke else 50
    kmax = 50
    for i in range(nlaws):
        gen = rng5.substream(i).generator()
        q = _jump_law(gen)
        theta = 0.05 + (i + float(gen.random())) * 4.95 / nlaws
        w.add(f"cpois/law{i}", partial(_cpois_call, theta, q, kmax),
              partial(refs.compound_poisson_pmf, theta, q.probs, kmax), _check_cpois)
    for i in range(2 if smoke else 20):
        gen = rng5.substream(1000 + i).generator()
        q = _jump_law(gen)
        theta = 0.1 + (i + float(gen.random())) * 4.9 / 20
        x = float(gen.uniform(0.0, 8.0))
        w.add(f"cpois-rate-equation/{i}", _lib(idn.cpois_cdf_ode_residual, theta, q, x, 1e-3),
              _const(0.0), lambda out, r: abs(out - r) <= 1e-5)

    # closed-form residuals of the alpha = 1/2 stable law
    for x in (0.5, 1.0, 2.0, 5.0):
        w.add(f"stable-closed/dimone-x{x:g}", _lib(stb.dimone_residual, 0.5, 1.0, x, tol=1e-7),
              partial(refs.levy_x_pdf, x, math.pi / 2.0),
              lambda out, r: abs(out.residual) <= 1e-3 and _close_rel(out.lhs, r, 1e-12))
        w.add(f"stable-closed/alphadens1-x{x:g}", _lib(stb.alphadens1_residual, 0.5, 1.0, x, tol=1e-7),
              partial(refs.levy_pdf_plus_x_deriv, x, math.pi / 2.0),
              lambda out, r: abs(out.residual) <= 1e-3 and _close_rel(out.lhs, r, 1e-12))

    # Steiner patch and boundary quadrature; the references get the same
    # shapes as plain numbers
    vertices = [[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0], [-0.5, 1.0]]
    shapes = {
        "disk": (geo.Disk(np.array([0.0, 0.0]), 1.0), ("disk", 1.0)),
        "box": (geo.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])), ("box", 1.0, 1.0)),
        "polygon": (geo.ConvexPolygon(np.array(vertices)), ("polygon", vertices)),
        "segment": (geo.Segment(np.array([0.0, 0.0]), np.array([2.0, 0.0])), ("segment", 2.0)),
    }
    for name, (body, spec) in shapes.items():
        w.add(f"steiner/mass-{name}", _lib(geo.integrate_parallel, body, 0.4, _ones),
              partial(refs.steiner_value, spec, 0.4), lambda out, r: abs(out - r) <= 1e-8)
    for name in ("disk", "box", "polygon"):
        body, spec = shapes[name]
        w.add(f"steiner/derivative-{name}", partial(_steiner_derivative_call, body, _ones, 0.3),
              partial(refs.steiner_derivative, spec, 0.3), lambda out, r: _close(out, [r, r], 1e-8))
        w.add(f"steiner/derivative-weighted-{name}", partial(_steiner_derivative_call, body, _one_plus_x2, 0.3),
              _const(None), lambda out, r: abs(out[0] - out[1]) <= 1e-5)

    # three operations that fail on every seed, each because of a named fault
    w.add("fault/poisson-tail-underflow-theta800-k900", _lib(idn.poisson_tail, 800.0, 900),
          partial(refs.poisson_sf, 800.0, 900),  # exp(-800) underflows; returns 1.0
          lambda out, r: _close_rel(out, r, 1e-6), known_fault=True)
    w.add("fault/poisson-tail-relative-theta0.5-k30", partial(_poisson_call, 0.5, 30),
          partial(refs.poisson_sf, 0.5, 30),  # 1 - partial sum cancels; quadrature tol swamps 2e-42
          lambda out, r: _close_rel(out, [r, r], 1e-6), known_fault=True)
    w.add("fault/binomial-identity-n2000-k1000", partial(_binomial_call, 2000, 1000, 0.5),
          partial(refs.binomial_tail_refs, 2000, 1000, 0.5),  # int x float product overflows
          _check_close, known_fault=True)
    return w


WORKLOADS: dict[str, Callable[[int, bool], Workload]] = {
    "poisson-replicates": poisson_replicates,
    "stable-lepage": stable_lepage,
    "exact-identities": exact_identities,
}
