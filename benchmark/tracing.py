"""Timing wrappers installed from outside the program.

The program has no instrumentation of its own, so every measurement here
comes from replacing a function at the name its callers look it up
(``potentials.polar_rule_for_target``, the ``DomainGrid.cardinal_matrices``
class attribute, ...) with a wrapper, and putting the original back
afterwards.  Two kinds of wrapper exist:

* ``Probes`` always times ``solve_bvp`` and ``DirichletSolution.evaluate``;
  these few calls give the end-to-end ``solve_s`` and ``eval_s``.
* With tracing on, ``Probes`` also wraps one entry point per layer and
  records self time (span minus child spans) and exact work counts.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

import numpy as np

# (name, unit, better) of every per-layer metric a traced run reports.
LAYER_METRICS = (
    ("geometry.build_s", "s", "lower"),
    ("geometry.polar_rule_s", "s", "lower"),
    ("geometry.polar_rule_calls", "count", "lower"),
    ("geometry.rule_nodes", "count", "lower"),
    ("geometry.rule_distinct_frac", "ratio", "higher"),
    ("geometry.cardinal_s", "s", "lower"),
    ("geometry.cardinal_points", "count", "lower"),
    ("geometry.contract_s", "s", "lower"),
    ("laplace.kress_s", "s", "lower"),
    ("laplace.kress_calls", "count", "lower"),
    ("laplace.single_layer_s", "s", "lower"),
    ("laplace.single_layer_calls", "count", "lower"),
    ("laplace.single_layer_distinct_frac", "ratio", "higher"),
    ("laplace.dipole_s", "s", "lower"),
    ("laplace.near_rows_s", "s", "lower"),
    ("laplace.near_rows_targets", "count", "lower"),
    ("laplace.layer_eval_s", "s", "lower"),
    ("laplace.layer_eval_targets", "count", "lower"),
    ("coefficient.eval_s", "s", "lower"),
    ("coefficient.points", "count", "lower"),
    ("potentials.remainder_rows_s", "s", "lower"),
    ("potentials.remainder_targets", "count", "lower"),
    ("potentials.volume_potential_s", "s", "lower"),
    ("potentials.volume_targets", "count", "lower"),
    ("potentials.remainder_potential_s", "s", "lower"),
    ("potentials.boundary_ops_s", "s", "lower"),
    ("solver.assemble_s", "s", "lower"),
    ("solver.rhs_s", "s", "lower"),
    ("solver.evaluate_s", "s", "lower"),
    ("solver.lu_s", "s", "lower"),
    ("solver.cond_s", "s", "lower"),
    ("solver.unknowns", "count", "lower"),
    ("verification.identity_suite_s", "s", "lower"),
    ("verification.invertibility_s", "s", "lower"),
    ("verification.spectrum_s", "s", "lower"),
    ("verification.study_s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
)

#: Work counts must repeat exactly between traced runs of one seed.
COUNT_METRICS = tuple(n for n, unit, _ in LAYER_METRICS if unit != "s")


def _n_points(p) -> int:
    return len(np.atleast_2d(np.asarray(p, dtype=float)))


def _spec_key(spec):
    return (spec.kind, spec.center.tobytes(), float(spec.radius),
            np.asarray(spec.cos_coeffs, dtype=float).tobytes())


class Tracer:
    """Self time per span name and work counters, accumulated in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self._child_s = []          # one accumulator per open span

    def wrap(self, span, fn, count=None):
        """Wrap ``fn`` as span ``span``; ``count(args, kwargs, result)``
        records work counters after each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.self_s[span] += dur - tracer._child_s.pop()
                if tracer._child_s:
                    tracer._child_s[-1] += dur
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Every per-layer metric; layers a workload never enters read 0."""
        c = self.counts
        rules = c["geometry.polar_rule_calls"]
        layers = c["laplace.single_layer_calls"]
        values = {
            "geometry.rule_distinct_frac":
                len(self.distinct["rules"]) / rules if rules else 0.0,
            "laplace.single_layer_distinct_frac":
                len(self.distinct["curves"]) / layers if layers else 0.0,
        }
        for name, unit, _ in LAYER_METRICS:
            if name in values:
                continue
            if unit == "s":
                values[name] = self.self_s[name[:-2]]
            else:
                values[name] = c[name]
        return values

    # -- counters ----------------------------------------------------------

    def _count(self, name, amount=1):
        self.counts[name] += amount

    def count_rule(self, args, kwargs, rule):
        spec = args[0] if args else kwargs["spec"]
        self._count("geometry.polar_rule_calls")
        self._count("geometry.rule_nodes", len(rule.points))
        self.distinct["rules"].add((_spec_key(spec), rule.target.tobytes(),
                                    len(rule.theta), len(rule.points)))

    def count_curve(self, args, kwargs, _):
        curve = args[0] if args else kwargs["curve"]
        self._count("laplace.single_layer_calls")
        self.distinct["curves"].add(curve.points.tobytes())

    def count_arg(self, name, index, key):
        """Counter adding the number of points passed as one argument."""
        def count(args, kwargs, _):
            pts = args[index] if len(args) > index else kwargs[key]
            self._count(name, _n_points(pts))
        return count

    def count_calls(self, name):
        def count(args, kwargs, _):
            self._count(name)
        return count

    def coefficient(self, coeff):
        """Copy of ``coeff`` whose evaluators are timed leaf spans."""
        def timed(fn):
            return self.wrap("coefficient.eval", fn,
                             self.count_arg("coefficient.points", 0, "p"))
        return dataclasses.replace(
            coeff, a=timed(coeff.a), grad_a=timed(coeff.grad_a),
            grad_ln_a=timed(coeff.grad_ln_a),
            laplacian_ln_a=timed(coeff.laplacian_ln_a))


class Probes:
    """Installs the wrappers of one run and restores the originals."""

    def __init__(self, bd, trace: bool):
        self.bd = bd
        self.tracer = Tracer() if trace else None
        self.seconds = {"solve_s": 0.0, "eval_s": 0.0}
        self._saved = []            # (owner, attribute, original)

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        bd = self.bd
        if self.tracer is not None:
            self._install_tracer(self.tracer)
        self._replace(bd.solver, "solve_bvp",
                      self._timer("solve_s", bd.solver.solve_bvp))
        self._replace(bd.solver.DirichletSolution, "evaluate",
                      self._timer("eval_s",
                                  bd.solver.DirichletSolution.evaluate))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _timer(self, metric, fn):
        seconds = self.seconds

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[metric] += time.perf_counter() - t0

        return timed

    def _install_tracer(self, tr: Tracer):
        bd = self.bd
        geometry, laplace, potentials = bd.geometry, bd.laplace, bd.potentials
        solver, verification, cli = bd.solver, bd.verification, bd.cli
        grid_cls = geometry.DomainGrid

        def span(owner, attr, name, count=None):
            self._replace(owner, attr,
                          tr.wrap(name, owner.__dict__[attr], count))

        for owner in (geometry, verification):
            span(owner, "build_curve", "geometry.build")
            span(owner, "build_domain_grid", "geometry.build")
        span(potentials, "polar_rule_for_target", "geometry.polar_rule",
             tr.count_rule)
        span(grid_cls, "cardinal_matrices", "geometry.cardinal",
             tr.count_arg("geometry.cardinal_points", 1, "points"))
        span(grid_cls, "interpolation_row", "geometry.contract")
        span(grid_cls, "interpolate", "geometry.contract")

        span(laplace, "kress_log_weights", "laplace.kress",
             tr.count_calls("laplace.kress_calls"))
        span(laplace, "single_layer_matrix", "laplace.single_layer",
             tr.count_curve)
        span(laplace, "double_layer_matrix", "laplace.dipole")
        span(laplace, "adjoint_double_layer_matrix", "laplace.dipole")
        span(laplace, "layer_matrix_at_targets", "laplace.near_rows",
             tr.count_arg("laplace.near_rows_targets", 2, "targets"))
        span(laplace, "layer_eval", "laplace.layer_eval",
             tr.count_arg("laplace.layer_eval_targets", 3, "targets"))

        span(potentials, "remainder_rows", "potentials.remainder_rows",
             tr.count_arg("potentials.remainder_targets", 3, "targets"))
        span(potentials, "volume_potential", "potentials.volume_potential",
             tr.count_arg("potentials.volume_targets", 4, "targets"))
        span(potentials, "remainder_potential",
             "potentials.remainder_potential")
        for attr in ("single_layer_direct_matrix",
                     "double_layer_direct_matrix", "wprime_direct_matrix",
                     "single_layer_matrix_at_targets"):
            span(potentials, attr, "potentials.boundary_ops")

        def count_unknowns(args, kwargs, sol):
            tr.counts["solver.unknowns"] += sol.system.size

        span(solver, "assemble_system", "solver.assemble")
        span(solver, "assemble_rhs", "solver.rhs")
        span(solver, "solve_dirichlet", "solver.lu", count_unknowns)
        span(solver.DirichletSolution, "evaluate", "solver.evaluate")
        span(solver.BdieSystem, "_singular_values", "solver.cond")

        span(verification, "identity_suite", "verification.identity_suite")
        span(verification, "invertibility_report",
             "verification.invertibility")
        span(verification, "remainder_spectrum_decay",
             "verification.spectrum")
        span(verification, "solve_case", "verification.study")

        span(cli, "load_config", "cli.config")
        for attr in ("write_results", "write_errors_csv",
                     "write_errors_csv_named"):
            span(cli, attr, "cli.write")

        # Coefficients: callers receive a copy with timed evaluators.
        def returning(owner, attr, transform):
            fn = owner.__dict__[attr]

            @functools.wraps(fn)
            def make(*args, **kwargs):
                return transform(fn(*args, **kwargs))

            self._replace(owner, attr, make)

        returning(verification, "manufactured_case",
                  lambda case: dataclasses.replace(
                      case, coeff=tr.coefficient(case.coeff)))
        returning(bd.coefficient, "make_preset", tr.coefficient)
