"""Spans around the public functions of elmap's modules, recorded from
outside the library.

``Tracer.install`` replaces each traced function by a wrapper in every
``elmap`` module namespace that holds it (``from .projection import
dual_newton`` copies the name into ``estimators``), in the ``cli.RUNNERS``
table, and on the classes for ``EstimatingModel.u_matrix``,
``Sample.__post_init__`` and ``cli.Config.__init__``.  A span records its
name, start, end, parent id and an optional count read from the call's
arguments or result.  Spans stay in memory and are written out once, when
the run ends.  Wrappers record only while ``active`` is set, that is,
inside a timed operation, so that the program calls the output checks make
between operations stay out of the figures.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

_DIVERGENCES = (
    "entropy", "l_divergence", "kl_divergence", "euclidean_discrepancy",
    "cressie_read", "polya_l_divergence",
)
_FITS = ("el_estimate", "et_estimate", "euclidean_estimate", "cr_estimate")
_EXPERIMENTS = ("decay_curve", "blln_check", "example21")


# (module, function, span name, count(args, kwargs, result) or None)
FUNCTIONS = (
    [("prob", "log_mass_table", "prob.log_mass_table",
      lambda a, k, out: int(out.size))]
    + [("divergences", f, "divergences", None) for f in _DIVERGENCES]
    + [
        ("projection", "l_project_linear", "projection.l_project_linear", None),
        ("projection", "dual_newton", "projection.dual_newton",
         lambda a, k, out: int(out[2])),
        ("projection", "moment_feasibility", "projection.moment_feasibility",
         lambda a, k, out: int(a[0].shape[1] >= 2)),
        ("projection", "project_oracle", "projection.project_oracle", None),
        ("estimators", "tilt_dual", "estimators.tilt_dual", None),
    ]
    + [
        # ELFit.trace holds one (theta, value) record per theta evaluation.
        ("estimators", f, "estimators.fit",
         lambda a, k, out: (len(out.trace), sum(math.isfinite(v) for _, v in out.trace)))
        for f in _FITS
    ]
    + [
        ("bayes", "posterior_update", "bayes.posterior_update",
         lambda a, k, out: int(a[1].n)),
        ("bayes", "split_mean_prior", "bayes.split_mean_prior", None),
    ]
    + [("bayes", f, "bayes.experiment", None) for f in _EXPERIMENTS]
    + [
        ("polya", "polya_draw", "polya.polya_draw", lambda a, k, out: int(out.n)),
        ("polya", "polya_log_prob", "polya.polya_log_prob", None),
        ("polya", "polya_decay_experiment", "polya.polya_decay_experiment", None),
        ("censoring", "censor_generate", "censoring.censor_generate",
         lambda a, k, out: len(out)),
        ("censoring", "censored_decay_experiment",
         "censoring.censored_decay_experiment", None),
        ("cli", "validate", "cli.validate", None),
        ("cli", "_write_outputs", "cli.write_outputs",
         lambda a, k, out: sum(
             (Path(a[0]) / name).stat().st_size for name, _ in a[1]
         ) + (Path(a[0]) / "manifest.txt").stat().st_size),
        ("cli", "main", "cli.main", None),
        ("rng", "rng_from", "rng.rng_from", None),
    ]
)

# Every per-layer metric, with its unit.  Names ending in .self_s are self
# times; the others are counts (see layer_metrics for how each is read).
METRICS = {
    "prob.Sample.obs": "count", "prob.Sample.self_s": "s",
    "prob.log_mass_table.cells": "count", "prob.log_mass_table.self_s": "s",
    "prob.u_matrix.rows": "count", "prob.u_matrix.self_s": "s",
    "divergences.calls": "count", "divergences.self_s": "s",
    "projection.l_project_linear.calls": "count",
    "projection.l_project_linear.self_s": "s",
    "projection.dual_newton.calls": "count",
    "projection.dual_newton.iterations": "count",
    "projection.dual_newton.self_s": "s",
    "projection.moment_feasibility.calls": "count",
    "projection.moment_feasibility.lp_calls": "count",
    "projection.moment_feasibility.self_s": "s",
    "projection.project_oracle.calls": "count",
    "projection.project_oracle.self_s": "s",
    "estimators.fits": "count", "estimators.theta_evals": "count",
    "estimators.theta_finite_ratio": "ratio", "estimators.fit.self_s": "s",
    "estimators.tilt_dual.calls": "count", "estimators.tilt_dual.self_s": "s",
    "bayes.posterior_update.calls": "count", "bayes.posterior_update.obs": "count",
    "bayes.posterior_update.self_s": "s",
    "bayes.split_mean_prior.calls": "count", "bayes.split_mean_prior.self_s": "s",
    "bayes.experiment.self_s": "s",
    "polya.polya_draw.draws": "count", "polya.polya_draw.self_s": "s",
    "polya.polya_log_prob.calls": "count", "polya.polya_log_prob.self_s": "s",
    "polya.polya_decay_experiment.self_s": "s",
    "censoring.censor_generate.obs": "count", "censoring.censor_generate.self_s": "s",
    "censoring.censored_decay_experiment.self_s": "s",
    "cli.Config.self_s": "s", "cli.validate.self_s": "s", "cli.runner.self_s": "s",
    "cli.write_outputs.self_s": "s", "cli.write_outputs.bytes": "bytes",
    "cli.main.self_s": "s",
    "rng.rng_from.calls": "count",
}

# Where a metric's count comes from, when it is not the number of spans.
_COUNT_SOURCE = {
    "prob.Sample.obs": "prob.Sample",
    "prob.log_mass_table.cells": "prob.log_mass_table",
    "prob.u_matrix.rows": "prob.u_matrix",
    "projection.dual_newton.iterations": "projection.dual_newton",
    "projection.moment_feasibility.lp_calls": "projection.moment_feasibility",
    "bayes.posterior_update.obs": "bayes.posterior_update",
    "polya.polya_draw.draws": "polya.polya_draw",
    "censoring.censor_generate.obs": "censoring.censor_generate",
    "cli.write_outputs.bytes": "cli.write_outputs",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, name, start, end, parent, count]
        self.stack: list = []
        self.active = False

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), name, 0.0, 0.0,
                    tracer.stack[-1] if tracer.stack else -1, None]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import elmap.cli as cli
        from elmap.prob import EstimatingModel, Sample

        modules = [m for k, m in sys.modules.items() if k == "elmap" or k.startswith("elmap.")]
        for mod_name, fn_name, span, count in FUNCTIONS:
            orig = getattr(sys.modules[f"elmap.{mod_name}"], fn_name)
            wrapped = self.wrap(span, orig, count)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        for kind, runner in list(cli.RUNNERS.items()):
            cli.RUNNERS[kind] = self.wrap("cli.runner", runner)
        EstimatingModel.u_matrix = self.wrap(
            "prob.u_matrix", EstimatingModel.u_matrix,
            lambda a, k, out: int(out.shape[0]),
        )
        Sample.__post_init__ = self.wrap(
            "prob.Sample", Sample.__post_init__, lambda a, k, out: a[0].n
        )
        cli.Config.__init__ = self.wrap("cli.Config", cli.Config.__init__)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, count in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "count": count}) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass totals of every metric in METRICS."""
        child_s = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counted = defaultdict(int)
        evals = finite = fits = 0
        by_id = {s[0]: s for s in self.spans}
        for sid, name, t0, t1, parent, count in self.spans:
            self_s[name] += (t1 - t0) - child_s[sid]
            calls[name] += 1
            if name == "estimators.fit":
                if parent >= 0 and by_id[parent][1] == "estimators.fit":
                    continue  # cr_estimate handing over to et/el_estimate
                fits += 1
                if count is not None:
                    evals += count[0]
                    finite += count[1]
            elif count is not None:
                counted[name] += count
        out = {}
        for metric, unit in METRICS.items():
            span, _, tail = metric.rpartition(".")
            if tail == "self_s":
                val = self_s[span] / passes
            elif metric in _COUNT_SOURCE:
                val = counted[_COUNT_SOURCE[metric]] / passes
            elif metric == "divergences.calls":
                val = calls["divergences"] / passes
            elif metric == "estimators.fits":
                val = fits / passes
            elif metric == "estimators.theta_evals":
                val = evals / passes
            elif metric == "estimators.theta_finite_ratio":
                val = finite / evals if evals else 0.0
            else:  # <span>.calls
                val = calls[span] / passes
            out[metric] = (val, unit)
        return out
