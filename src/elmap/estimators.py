"""Sample-based estimators built on estimating equations.

For a sample x_1..x_n and a model with constraints u(x; theta), the
empirical-likelihood route maximizes sum_i log w_i over weight vectors on
the observations subject to sum_i w_i u(x_i; theta) = 0.  That route,
exponential tilting (KL) and the Cressie-Read family all minimize
CR_gamma(q || empirical) through the one dual Newton kernel of
:mod:`elmap.projection` (``dual_newton``) over the multipliers of sum q = 1
and sum q u = 0: empirical likelihood is its gamma = -1 limit and tilting
its gamma = 0 limit.  Euclidean weights have a closed form.  The sample is
the moment problem of :mod:`elmap.projection` on its atoms, with the
frequencies as base weights and n the sample size, the same problem the
L-projection solves with base r and n = 1.

The outer search over theta minimizes the profile P(theta) on a coarse
grid, which is the global start because P is +inf where the zero moment
leaves the hull of the u values, then refines from the best node by
projected BFGS.  Every inner fit takes a stack of theta values: the grid of
each domain box goes through the kernel (or the batched Euclidean normal
equations) as one stack, in blocks of bounded size, and the refinement
solves stacks of one.  The gradient comes free from the inner fit by the
envelope theorem: dP/dtheta = sum_a q_a mu . du_a/dtheta, with q the fitted
atom weights and mu the moment multiplier of the primal (-n lam for EL, ET
and Cressie-Read, 2 lam for the Euclidean closed form).  Atoms, counts and
the observation-to-atom index are computed once per fit; each theta
evaluation solves only the inner dual, and each theta is solved once: the
fit at the estimate is the search's own solution there.
``profile_l_projection`` runs the same search.  A non-finite observation
raises DomainViolation before any of this work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllInfinite,
    AllThetaInfeasible,
    DomainViolation,
    EmptySample,
    NotConverged,
    SingularConstraints,
    ThetaOutOfDomain,
)
from .prob import (
    LIKELIHOOD_TIE, EstimatingModel, Pmf, Sample, counts_loglik, log_mass_table, make_pmf, near_min
)
from .projection import (
    REFINE_TOL,
    ProjectionStack,
    _MomentProblem,
    _profile_min,
    dual_newton,
    node_error,
)

GRID_POINTS = 201
# Newton steps allowed to the root of a just-identified model's sample equations
_ROOT_STEPS = 50


@dataclass(frozen=True)
class DualFit:
    """Inner fit at a fixed parameter value.

    ``w`` holds one weight per observation (order preserved); ``pmf`` is the
    same fit aggregated to atoms, or None when weights may be negative
    (Euclidean closed form) or observations are not scalar.  For the EL
    method ``profile_value`` is -sum_i log w_i; for the other methods it is
    n times the fitted discrepancy, so that smaller is better throughout.
    ``profile_grad`` is the gradient of ``profile_value`` in theta, by the
    envelope theorem.
    """

    lam: np.ndarray
    w: np.ndarray
    profile_value: float
    pmf: Pmf | None
    nonnegative: bool = True
    profile_grad: np.ndarray | None = None


@dataclass(frozen=True)
class ELFit:
    theta_hat: np.ndarray
    inner: DualFit
    trace: tuple
    method: str


class _SampleProblem(_MomentProblem):
    """A sample reduced, once per fit, to its distinct atoms, their counts
    and the atom index of each observation; the base weights are the
    frequencies and n the sample size, so that the gamma = -1 value is
    -sum_i log w_i = n log n + n KL(freq || q)."""

    def __init__(self, sample: Sample, model: EstimatingModel):
        if sample.n == 0:
            raise EmptySample("estimation needs at least one observation")
        vals = sample.values()
        finite = np.isfinite(vals).reshape(sample.n, -1).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainViolation(f"observation {i} = {sample.observations[i]!r}: not finite")
        self.scalar = vals.ndim == 1
        atoms, inverse, counts = np.unique(
            vals, axis=None if self.scalar else 0, return_inverse=True, return_counts=True
        )
        self.inverse = inverse.reshape(-1)
        self.counts = counts.astype(float)
        n = float(sample.n)
        super().__init__(atoms, self.counts / n, n, model, n * math.log(n))

    def fit(self, th: np.ndarray, sol: ProjectionStack, i: int) -> DualFit:
        """DualFit from node i of a solve: each observation gets its atom's
        weight shared equally among the atom's observations."""
        if sol.failure[i] is not None:
            raise node_error(sol.failure[i], th)
        nonnegative = bool(np.all(sol.weights[i] >= 0.0))
        pmf = None
        if self.scalar and nonnegative:
            pmf = make_pmf(self.atoms, sol.weights[i])
        return DualFit(
            lam=sol.lam[i],
            w=(sol.weights[i] / self.counts)[self.inverse],
            profile_value=float(sol.value[i]),
            pmf=pmf,
            nonnegative=nonnegative,
            profile_grad=self.gradient(th, sol, i),
        )

    def root(self, theta0: np.ndarray) -> np.ndarray | None:
        """The root of the sample estimating equations sum_a freq_a u(a;
        theta) = 0 of a just-identified model, by Newton's method on the
        Jacobian ``du_matrix`` from theta0; None where Newton leaves the
        domain, meets a singular Jacobian or does not settle."""
        th = np.asarray(theta0, dtype=float)
        for _ in range(_ROOT_STEPS):
            if not self.model.domain.contains(th):
                return None
            mean_u = self.base @ self.model.u_matrix(self.atoms, th)
            jac = np.einsum("a,ajk->jk", self.base, self.model.du_matrix(self.atoms, th))
            try:
                step = np.linalg.solve(jac, mean_u)
            except np.linalg.LinAlgError:
                return None
            th = th - step
            if np.max(np.abs(step)) <= REFINE_TOL * max(1.0, float(np.max(np.abs(th)))):
                return th if self.model.domain.contains(th) else None
        return None


# The dual-kernel solves; ``_MomentProblem.dual`` adds n log n at gamma = -1,
# which makes the EL value -sum_i log w_i.
_el = functools.partial(_MomentProblem.dual, gamma=-1.0)
_et = functools.partial(_MomentProblem.dual, gamma=0.0)


def _euclidean(mp: _SampleProblem, ths: np.ndarray) -> ProjectionStack:
    """Closed-form least-squares weights at a stack of theta values: the
    normal equations of every node in one batched solve, +inf where they
    are singular or inconsistent."""
    umat, failure = mp.u(ths, None)
    nodes, m, j = umat.shape
    n, counts = mp.n, mp.counts
    arows = np.concatenate([np.ones((nodes, m, 1)), umat], axis=2)
    target = np.zeros(j + 1)
    target[0] = 1.0
    gram = np.matmul(arows.transpose(0, 2, 1) * counts, arows) / n
    rhs = np.matmul(counts / n, arows) - target
    # An identically-zero constraint is vacuous: its equation becomes z = 0.
    node, col = np.nonzero(~np.any(umat != 0.0, axis=1))
    gram[node, col + 1, col + 1] = 1.0
    z = np.zeros((nodes, j + 1))
    try:
        z = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        for i in range(nodes):
            try:
                z[i] = np.linalg.solve(gram[i], rhs[i])
            except np.linalg.LinAlgError:
                failure[i] = failure[i] or SingularConstraints
    delta = -np.matmul(arows, z[:, :, None])[:, :, 0] / n  # per-observation shift from 1/n
    w_atom = 1.0 / n + delta
    resid = np.abs(np.matmul((counts * w_atom)[:, None, :], arows)[:, 0, :] - target).max(axis=1)
    for i in np.flatnonzero(~np.all(np.isfinite(w_atom), axis=1) | ~(resid <= 1e-8)):
        failure[i] = failure[i] or SingularConstraints
    lam = z[:, 1:]
    value = n * (counts * delta**2).sum(axis=1)
    value[[f is not None for f in failure]] = math.inf
    # n sum_i delta_i^2 has derivative -2 a_i . z in w_i, so mu = 2 lam
    return ProjectionStack(value, lam, counts * w_atom, 2.0 * lam, failure, 0)


def _inner(sample: Sample, model: EstimatingModel, theta, solve) -> DualFit:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    mp = _SampleProblem(sample, model)
    return mp.fit(th, solve(mp, th[None]), 0)


def el_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Profile the nonparametric likelihood at a fixed theta.

    Returns per-observation weights w_i = (1/n) / (1 - lam.u(x_i; theta))
    and the profile value n log n + sum_i log(1 - lam.u_i), the minimum of
    -sum log w over the constrained weight simplex.
    """
    return _inner(sample, model, theta, _el)


def tilt_dual(freq: np.ndarray, umat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Exponential tilting of freq to the zero moment: min_lam log sum_x
    freq_x exp(lam.u_x), solved by the Cressie-Read dual kernel at gamma = 0.

    Returns (lam, tilted weights, KL of the tilt from freq), per node for a
    stack of u matrices as ``dual_newton`` does.  The caller is responsible
    for checking that the zero moment lies strictly inside the hull of the
    u rows, otherwise the dual is unbounded below.
    """
    lam, pi, _, kl = dual_newton(freq, umat, 0.0)
    return lam, pi, kl


def et_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Minimum of KL(q || empirical) under the moment constraints, solved
    through the smooth dual min_lam log sum_x freq_x exp(lam.u_x)."""
    return _inner(sample, model, theta, _et)


def cr_inner(sample: Sample, model: EstimatingModel, theta, gamma: float) -> DualFit:
    """Minimum of CR_gamma(q, empirical) under the moment constraints, by
    the Cressie-Read dual kernel.  For gamma > 0 some atoms may get zero
    weight, so the zero moment may also sit on the hull's boundary."""
    return _inner(sample, model, theta, functools.partial(_MomentProblem.dual, gamma=gamma))


def euclidean_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Closed-form least-squares weights on the constraint-affine subspace;
    weights may come out negative and are then flagged."""
    return _inner(sample, model, theta, _euclidean)


def _estimate(
    sample: Sample,
    model: EstimatingModel,
    solve,
    method: str,
    grid_points: int,
    bounds,
) -> ELFit:
    """Minimize the profile of ``solve`` over the model's parameter domain
    by ``_profile_min``, on a grid over each domain box; the fit is the
    search's solution at the minimizer.

    The grid's axes span each box, or where it is unbounded ``bounds`` or
    else the data range with a margin.  For scalar models they include
    the data values, which keeps degenerate point-feasible problems
    (constant samples) solvable; for other just-identified models the root
    of the sample estimating equations, when it lies in the box, is one
    extra node.  Every evaluation inside the domain appends one (theta,
    value) record to the fit's trace, grid nodes in order.
    """
    mp = _SampleProblem(sample, model)
    k = model.domain.k
    if bounds is None:  # the observed data range with a small margin
        lo, hi = float(mp.atoms.min()), float(mp.atoms.max())
        span = (hi - lo) or 1.0
        bounds = [(lo - 0.05 * span, hi + 0.05 * span)] * k

    extra = mp.atoms if k == 1 and mp.scalar else None
    root = None
    if extra is None and model.n_constraints == k:
        # Newton starts in the middle of the data range (or of ``bounds``)
        middle = [sum(bounds[min(c, len(bounds) - 1)]) / 2.0 for c in range(k)]
        root = mp.root(np.array(middle))
    stages = []
    for box in model.domain.boxes:
        axes = []
        steps = []
        for coord, (lo, hi) in enumerate(box):
            flo, fhi = bounds[coord] if coord < len(bounds) else bounds[-1]
            glo = lo if math.isfinite(lo) else flo
            ghi = hi if math.isfinite(hi) else fhi
            ghi = max(ghi, glo)
            axis = np.linspace(glo, ghi, grid_points) if ghi > glo else np.array([glo])
            steps.append((ghi - glo) / max(grid_points - 1, 1) if ghi > glo else 1.0)
            if extra is not None:
                inside = extra[(extra >= glo) & (extra <= ghi)]
                axis = np.union1d(axis, inside)
            axes.append(axis)
        mesh = np.meshgrid(*axes, indexing="ij") if k > 1 else [axes[0]]
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        if root is not None and all(lo <= t <= hi for t, (lo, hi) in zip(root, box)):
            pts = np.vstack([pts, root])
        stages.append((pts, steps))
    theta, _, solved, trace = _profile_min(mp, solve, stages)
    if theta is None:
        raise AllThetaInfeasible("profile objective infinite on the whole grid")
    fit = mp.fit(theta, *solved)
    trace = tuple((tuple(th), v) for th, v, f in trace if f is not ThetaOutOfDomain)
    return ELFit(theta_hat=theta, inner=fit, trace=trace, method=method)


def el_estimate(
    sample: Sample,
    model: EstimatingModel,
    grid_points: int = GRID_POINTS,
    bounds=None,
) -> ELFit:
    """Empirical-likelihood estimator: minimize the EL profile over theta."""
    return _estimate(sample, model, _el, "EL", grid_points, bounds)


def et_estimate(
    sample: Sample,
    model: EstimatingModel,
    grid_points: int = GRID_POINTS,
    bounds=None,
) -> ELFit:
    """Exponential-tilting estimator: minimize the fitted KL over theta."""
    return _estimate(sample, model, _et, "ET", grid_points, bounds)


def euclidean_estimate(
    sample: Sample,
    model: EstimatingModel,
    grid_points: int = GRID_POINTS,
    bounds=None,
) -> ELFit:
    """Least-squares-weight estimator with the closed-form inner solution."""
    return _estimate(sample, model, _euclidean, "Euclidean", grid_points, bounds)


def cr_estimate(
    sample: Sample,
    model: EstimatingModel,
    gamma: float,
    grid_points: int = GRID_POINTS,
    bounds=None,
) -> ELFit:
    """Power-divergence estimator; gamma = 0 dispatches to exponential
    tilting and gamma = -1 to empirical likelihood (the two limits)."""
    if not math.isfinite(gamma):
        raise DomainViolation("gamma must be finite")
    if gamma == 0.0:
        return et_estimate(sample, model, grid_points, bounds)
    if gamma == -1.0:
        return el_estimate(sample, model, grid_points, bounds)

    solve = functools.partial(_MomentProblem.dual, gamma=gamma)
    return _estimate(sample, model, solve, f"CR({gamma})", grid_points, bounds)


def mnpl_grid(sample: Sample, candidates) -> tuple[list, float]:
    """Rank candidate distributions by the nonparametric likelihood of the
    sample: returns (all indices minimizing -sum_i log q(x_i), value)."""
    if sample.n == 0:
        raise EmptySample("need observations")
    atoms, counts = np.unique(sample.values(), return_counts=True)
    values = -counts_loglik(log_mass_table(list(candidates), atoms), counts)
    vmin = float(values.min())
    if math.isinf(vmin):
        raise AllInfinite("every candidate misses part of the sample")
    return near_min(values, LIKELIHOOD_TIE), vmin
