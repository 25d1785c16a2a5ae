"""Traced run: per-layer counts and self times, recorded from outside the library.

The tracer wraps the public functions of each ``pivotal`` module, and a few
methods, by patching attributes: every module attribute bound to a wrapped
function is replaced, so the names that ``from .x import f`` copies into other
modules (``adaptive_simpson`` in ``identities``, ``bernoulli``,
``point_process`` and ``stable``; ``sample_poisson`` in ``perturbation`` and
``geometry``; ...) are traced too.  ``uninstall`` restores every attribute.

A layer's self time is the time inside its wrapped calls minus the time of
traced calls nested in them.  Calls of the coarse functions are also kept as
spans ``(id, parent id, name, start, end)``, the parent being the nearest
enclosing span; each benchmark operation is a root span.  Per-replicate calls
(samplers, statistic evaluations, generator construction) are only counted
and timed, so that the span list stays small.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# (module, function, layer key, keep spans)
FUNCTIONS = [
    ("pivotal.point_process", "sample_poisson", "point_process.sample_poisson", False),
    ("pivotal.point_process", "sample_binomial", "point_process.sample_binomial", False),
    ("pivotal.point_process", "iterated_difference", "point_process.iterated_difference", False),
    ("pivotal.perturbation", "perturbation_series", "perturbation.perturbation_series", True),
    ("pivotal.perturbation", "derivative_location_estimator", "perturbation.location_estimator", True),
    ("pivotal.perturbation", "derivative_point_estimator", "perturbation.point_estimator", True),
    ("pivotal.perturbation", "higher_derivative_estimator", "perturbation.higher_derivative", True),
    ("pivotal.geometry", "crofton_poisson_check", "geometry.crofton_poisson", True),
    ("pivotal.geometry", "crofton_binomial_check", "geometry.crofton_binomial", True),
    ("pivotal.geometry", "integrate_parallel", "geometry.patch_quadrature", True),
    ("pivotal.geometry", "steiner_derivative_check", "geometry.patch_quadrature", True),
    ("pivotal.stable", "sample_stable_many", "stable.sample_stable_many", True),
    ("pivotal.stable", "truncation_plan", "stable.truncation_plan", True),
    ("pivotal.stable", "radvec_residual", "stable.radvec_residual", True),
    ("pivotal.stable", "dimone_residual", "stable.identity_residual", True),
    ("pivotal.stable", "alphadens1_residual", "stable.identity_residual", True),
    ("pivotal.stable", "levy_integral", "stable.levy_integral", True),
    ("pivotal.summaries", "ks_two_sample", "summaries.ks_two_sample", True),
    ("pivotal.quadrature", "adaptive_simpson", "quadrature.adaptive_simpson", True),
    ("pivotal.quadrature", "power_singular_integral", "quadrature.power_singular_integral", True),
    ("pivotal.bernoulli", "truth_table", "bernoulli.enumeration", True),
    ("pivotal.bernoulli", "event_polynomial", "bernoulli.enumeration", True),
    ("pivotal.bernoulli", "russo_derivative", "bernoulli.enumeration", True),
    ("pivotal.bernoulli", "identity_report_binomial", "bernoulli.identity_reports", True),
    ("pivotal.bernoulli", "identity_report_negbin", "bernoulli.identity_reports", True),
    ("pivotal.identities", "poisson_tail", "identities.poisson_erlang", True),
    ("pivotal.identities", "poisson_tail_integral", "identities.poisson_erlang", True),
    ("pivotal.identities", "erlang_cdf", "identities.poisson_erlang", True),
    ("pivotal.identities", "cpois_pmf_direct", "identities.cpois", True),
    ("pivotal.identities", "cpois_pmf_panjer", "identities.cpois", True),
    ("pivotal.identities", "cpois_pmf_polyrec", "identities.cpois", True),
    ("pivotal.identities", "panjer_pmfs", "identities.cpois", True),
    ("pivotal.identities", "cpois_cdf", "identities.cpois", True),
    ("pivotal.identities", "cpois_cdf_ode_residual", "identities.cpois", True),
]

# (module, class, method, layer key, timed); untimed methods are only counted
METHODS = [
    ("pivotal.rng", "RngStream", "generator", "rng.generator", True),
    ("pivotal.rng", "RngStream", "substream", "rng.substream_calls", False),
    ("pivotal.point_process", "PointConfiguration", "add_atom", "point_process.add_atom_calls", False),
    ("pivotal.point_process", "PointConfiguration", "add_atoms", "point_process.add_atom_calls", False),
    ("pivotal.point_process", "Statistic", "value", "point_process.statistic", True),
]

# per-layer metric -> (unit, source, key): "calls" and "self_s" of a timed
# layer key, or a plain counter
PER_LAYER = {
    "rng.generator_calls": ("count", "calls", "rng.generator"),
    "rng.generator_s": ("s", "self_s", "rng.generator"),
    "rng.substream_calls": ("count", "counter", "rng.substream_calls"),
    "point_process.sample_poisson_calls": ("count", "calls", "point_process.sample_poisson"),
    "point_process.sample_poisson_s": ("s", "self_s", "point_process.sample_poisson"),
    "point_process.sample_binomial_s": ("s", "self_s", "point_process.sample_binomial"),
    "point_process.points_drawn": ("count", "counter", "point_process.points_drawn"),
    "point_process.add_atom_calls": ("count", "counter", "point_process.add_atom_calls"),
    "point_process.statistic_evals": ("count", "calls", "point_process.statistic"),
    "point_process.statistic_eval_s": ("s", "self_s", "point_process.statistic"),
    "point_process.iterated_difference_calls": ("count", "calls", "point_process.iterated_difference"),
    "point_process.iterated_difference_s": ("s", "self_s", "point_process.iterated_difference"),
    "perturbation.perturbation_series_s": ("s", "self_s", "perturbation.perturbation_series"),
    "perturbation.location_estimator_s": ("s", "self_s", "perturbation.location_estimator"),
    "perturbation.point_estimator_s": ("s", "self_s", "perturbation.point_estimator"),
    "perturbation.higher_derivative_s": ("s", "self_s", "perturbation.higher_derivative"),
    "geometry.crofton_poisson_s": ("s", "self_s", "geometry.crofton_poisson"),
    "geometry.crofton_binomial_s": ("s", "self_s", "geometry.crofton_binomial"),
    "geometry.patch_quadrature_s": ("s", "self_s", "geometry.patch_quadrature"),
    "stable.sample_stable_many_s": ("s", "self_s", "stable.sample_stable_many"),
    "stable.samples_drawn": ("count", "counter", "stable.samples_drawn"),
    "stable.lepage_terms": ("count", "counter", "stable.lepage_terms"),
    "stable.truncation_plan_s": ("s", "self_s", "stable.truncation_plan"),
    "stable.radvec_residual_s": ("s", "self_s", "stable.radvec_residual"),
    "stable.identity_residual_s": ("s", "self_s", "stable.identity_residual"),
    "stable.levy_integral_s": ("s", "self_s", "stable.levy_integral"),
    "summaries.ks_two_sample_s": ("s", "self_s", "summaries.ks_two_sample"),
    "quadrature.adaptive_simpson_calls": ("count", "calls", "quadrature.adaptive_simpson"),
    "quadrature.adaptive_simpson_s": ("s", "self_s", "quadrature.adaptive_simpson"),
    "quadrature.integrand_evals": ("count", "counter", "quadrature.integrand_evals"),
    "quadrature.power_singular_integral_s": ("s", "self_s", "quadrature.power_singular_integral"),
    "bernoulli.enumeration_s": ("s", "self_s", "bernoulli.enumeration"),
    "bernoulli.identity_reports_s": ("s", "self_s", "bernoulli.identity_reports"),
    "identities.poisson_erlang_s": ("s", "self_s", "identities.poisson_erlang"),
    "identities.cpois_s": ("s", "self_s", "identities.cpois"),
}


def _count_points(tracer: "Tracer", result) -> None:
    tracer.counters["point_process.points_drawn"] += len(result)


def _count_lepage(tracer: "Tracer", result) -> None:
    samples, plan = result
    tracer.counters["stable.samples_drawn"] += samples.shape[0]
    tracer.counters["stable.lepage_terms"] += samples.shape[0] * plan.nterms


_ON_RESULT = {
    "point_process.sample_poisson": _count_points,
    "point_process.sample_binomial": _count_points,
    "stable.sample_stable_many": _count_lepage,
}


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list = []
        self._stack: list[list] = []  # frames [nested time, span id]
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a new round of counts (spans are kept)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    def per_layer(self) -> dict[str, float]:
        sources = {"calls": self.calls, "self_s": self.self_s, "counter": self.counters}
        return {name: sources[src].get(key, 0) for name, (_, src, key) in PER_LAYER.items()}

    # -- wrappers -----------------------------------------------------------

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def timed(self, key: str, fn, keep_span: bool):
        on_result = _ON_RESULT.get(key)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = -1
            if keep_span and len(self.spans) < self.max_spans:
                span = len(self.spans)
                self.spans.append(None)
            frame = [0.0, span]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                elapsed = t1 - t0
                self.calls[key] += 1
                self.self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span >= 0:
                    self.spans[span] = (span, self._parent_span(), key, t0, t1)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_integrand(self, fn):
        """adaptive_simpson with its integrand (first argument) counted."""

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            counters = self.counters

            def counted_f(x):
                counters["quadrature.integrand_evals"] += 1
                return f(x)

            return fn(counted_f, *args, **kwargs)

        return wrapper

    def run_op(self, name: str, call):
        """Run one benchmark operation as a root span."""
        return self.timed("op:" + name, call, True)()

    # -- patching -----------------------------------------------------------

    def _patch_bindings(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "pivotal" or modname.startswith("pivotal.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, fname, key, keep_span in FUNCTIONS:
            original = getattr(sys.modules[modname], fname)
            inner = self._counting_integrand(original) if fname == "adaptive_simpson" else original
            self._patch_bindings(original, self.timed(key, inner, keep_span))
        for modname, cname, mname, key, timed in METHODS:
            cls = getattr(sys.modules[modname], cname)
            original = cls.__dict__[mname]
            wrapper = self.timed(key, original, False) if timed else self.counted(key, original)
            self._patches.append((cls, mname, original))
            setattr(cls, mname, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
