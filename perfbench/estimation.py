"""Workload ``estimation``: estimating-equation fits on samples from
finite-support laws.

One pass fits the mean model on samples of SAMPLE_N draws from each of
LAWS_PER_SIZE laws per support size in SUPPORT_SIZES, all on the library's
default GRID_POINTS-point theta grid: by EL on one sample of every law, by
ET on that sample for the first ET_LAWS_PER_SIZE laws of each size, and by
Euclidean weights on EUCLIDEAN_SAMPLES other samples of every law.  Then come
Cressie-Read fits with gamma of both signs on the first CR_LAWS samples, and
one linear-preset EL fit on the uncentred (x, y) pairs LINEAR_X, LINEAR_Y.
The laws in LEFT_OUT are skipped.

The laws are fixed lattices with Dirichlet weights drawn once.  The
Euclidean and CR samples are drawn from the workload seed.  The EL and ET
samples are fixed instead, because the cost of those fits swings with the
draw by more than the benchmark's bounds, which would bury any change in
the seed-to-seed spread:

* ET: ``tilt_dual`` stalls in its line search when theta is within about
  1e-5 of the sample mean, so one ET fit takes from 65 ms to 2 s depending
  on where the refinement's evaluations land.
* EL: on the m = 8 laws one fit takes from 80 to 160 ms at a 41-point
  grid depending on the draw; the 75th percentile falls among the EL fits.

The linear-preset pairs are a draw on which ``el_estimate`` stops short of
its optimum: it returns (0.84, 0.637) where the just-identified optimum is
the OLS fit (0.688, 0.688).  That fit counts as a failed operation in every
pass (``Op.fault``) until the program is mended.  The draw does not depend
on the seed, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import elmap.estimators as estimators
import elmap.prob as prob
from common import Op, workload_rng

SUPPORT_SIZES = (3, 5, 8)
LAWS_PER_SIZE = 3
ET_LAWS_PER_SIZE = 1
# Three cheap Euclidean fits per law put the pass median among them and
# the 75th percentile among the EL fits, inside clusters of similar cost
# rather than on the step from one kind of fit to the next.
EUCLIDEAN_SAMPLES = 3
SAMPLE_N = 200
GRID_POINTS = 201  # estimators.GRID_POINTS, as configs/fit.cfg runs it
CR_LAWS = 1
CR_GAMMAS = (0.5, -0.5)
CR_GRID_POINTS = 21
LINEAR_X = (1.0, 2.0, 1.0, 3.0, 2.0, 0.0, 0.0, 3.0)
LINEAR_Y = (1.232, 2.181, 2.152, 2.974, 1.648, 0.367, 0.688, 2.521)
LINEAR_GRID_POINTS = 11
# el_estimate raises NotNormalized on this law's fixed sample (see
# CHANGES.md).  The benchmark keeps a single known-fault operation, the
# linear-preset fit, so this law is left out until the program is mended.
LEFT_OUT = ("m=3#2",)


def laws() -> list:
    """Fixed laws on the lattices {0, ..., m - 1}, weights drawn once."""
    rng = np.random.default_rng(0)
    return [
        (f"m={m}#{j}", np.arange(m, dtype=float), rng.dirichlet(np.full(m, 4.0)))
        for m in SUPPORT_SIZES
        for j in range(LAWS_PER_SIZE)
    ]


class Workload:
    tail_pct = 75
    min_passes = 2  # 38 operations a pass, so p75 of 76 has 18 beyond it

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = workload_rng(seed, "estimation")
        self.ops = []
        # EL and ET samples come from a fixed generator: see the module docstring.
        fixed = np.random.default_rng(1)
        samples = []
        for k, (label, support, weights) in enumerate(laws()):
            draws = [rng.choice(support, p=weights, size=SAMPLE_N) for _ in range(EUCLIDEAN_SAMPLES)]
            fixed_draws = fixed.choice(support, p=weights, size=SAMPLE_N)
            if label in LEFT_OUT:
                continue
            samples.append((label, draws[0]))
            self.ops.append(Op(f"el {label}", self.fit_mean, "el", fixed_draws, None))
            if k % LAWS_PER_SIZE < ET_LAWS_PER_SIZE:
                self.ops.append(Op(f"et {label}", self.fit_mean, "et", fixed_draws, None))
            self.ops += [
                Op(f"euclidean {label}/{j}", self.fit_mean, "euclidean", d, None)
                for j, d in enumerate(draws)
            ]
        for label, draws in samples[:CR_LAWS]:
            for gamma in CR_GAMMAS:
                self.ops.append(Op(f"cr({gamma}) {label}", self.fit_mean, "cr", draws, gamma))
        x, y = np.array(LINEAR_X), np.array(LINEAR_Y)
        self.ops.append(Op("el linear", self.fit_linear, x, y, fault=self.not_ols))
        self._warm_up(samples[0][1])

    def _warm_up(self, draws) -> None:
        sample = prob.Sample(tuple(draws))
        model = prob.mean_model()
        th = [float(np.mean(draws))]
        estimators.el_inner(sample, model, th)
        estimators.et_inner(sample, model, th)
        estimators.euclidean_inner(sample, model, th)
        x, y = np.array(LINEAR_X), np.array(LINEAR_Y)
        estimators.el_inner(prob.Sample(tuple(zip(x, y))), prob.linear_model(), [1.0, 0.5])

    def fit_mean(self, method: str, draws: np.ndarray, gamma):
        sample = prob.Sample(tuple(draws))
        model = prob.mean_model()
        if method == "cr":
            return estimators.cr_estimate(sample, model, gamma, CR_GRID_POINTS)
        return getattr(estimators, f"{method}_estimate")(sample, model, GRID_POINTS)

    def fit_linear(self, x: np.ndarray, y: np.ndarray):
        sample = prob.Sample(tuple(zip(x, y)))
        return estimators.el_estimate(sample, prob.linear_model(), LINEAR_GRID_POINTS)

    # -- checks ----------------------------------------------------------------

    def same(self, op: Op, first, fit) -> list:
        if np.array_equal(first.theta_hat, fit.theta_hat) and np.array_equal(first.inner.w, fit.inner.w):
            return []
        return ["fit differs from the first pass"]

    @staticmethod
    def _theta_off(theta_hat, target, scale: float) -> list:
        err = float(np.abs(theta_hat - target).max())
        if err > 1e-6 * scale:
            return [f"theta_hat {theta_hat} is {err:.3g} from {target}"]
        return []

    def not_ols(self, op: Op, fit) -> list:
        """The linear preset is just identified, so theta_hat is the OLS fit."""
        x, y = op.args
        design = np.column_stack([np.ones_like(x), x])
        target = np.linalg.lstsq(design, y, rcond=None)[0]
        return self._theta_off(fit.theta_hat, target, float(np.abs(y).max() + np.abs(x).max()))

    def check(self, op: Op, fit) -> list:
        if op.fn == self.fit_linear:
            x, y = op.args
            a, b = fit.theta_hat
            u = np.column_stack([y - a - b * x, x * (y - a - b * x)])
            scale = float(np.abs(y).max() + np.abs(x).max())
            nonneg = True
            problems = []  # theta_hat against OLS is not_ols, the op's fault check
        else:
            method, draws, _ = op.args
            u = (draws - fit.theta_hat[0])[:, None]
            scale = float(np.ptp(draws))
            nonneg = method != "euclidean"
            problems = self._theta_off(fit.theta_hat, np.array([draws.mean()]), scale)
        w = fit.inner.w
        if nonneg and w.min() < 0.0:
            problems.append(f"negative weight {w.min()}")
        if not nonneg and fit.inner.nonnegative != bool(w.min() >= 0.0):
            problems.append("nonnegative flag disagrees with the weights")
        if abs(w.sum() - 1.0) > 1e-9:
            problems.append(f"weights sum to {w.sum()!r}")
        moment = np.abs(w @ u).max()
        if moment > 1e-8 * scale:
            problems.append(f"weighted moment {moment:.3g} at theta_hat")
        return problems
