"""Sample-based estimators built on estimating equations.

For a sample x_1..x_n and a model with constraints u(x; theta), the
empirical-likelihood route maximizes sum_i log w_i over weight vectors on
the observations subject to sum_i w_i u(x_i; theta) = 0.  That route,
exponential tilting (KL) and the Cressie-Read family all minimize
CR_gamma(q || empirical) through the one dual Newton kernel of
:mod:`elmap.projection` (``dual_newton``) over the multipliers of sum q = 1
and sum q u = 0: empirical likelihood is its gamma = -1 limit and tilting
its gamma = 0 limit.  Euclidean weights have a closed form.  gamma is the
one key of a fit (None for the Euclidean form): ``_discrepancy`` derives
from it the inner solve, the floor of a root's value and the method label,
so ``cr_estimate`` at gamma = -1 and 0 is the EL and ET fit.  The sample is
the moment problem of :mod:`elmap.projection` on its atoms, with the
frequencies as base weights and n the sample size, the same problem the
L-projection solves with base r and n = 1.

In a just-identified model (as many constraints as parameters) the root
of the sample estimating equations, found by Newton's method, lets the
weights stay at the empirical frequencies, so every discrepancy sits at its
floor there: n log n for EL (-sum_i log w_i >= n log n) and 0 for ET,
Euclidean and Cressie-Read.  The floor is a global lower bound, reached
only where the frequencies are feasible, so a root in the domain whose
solve reaches it (to LIKELIHOOD_TIE relative to max(1, |floor|)) is the
fit, with a one-record trace and no grid.  Where the equations have several
roots in the domain the fit is the one Newton finds, not the grid's
lexicographically smallest tie; the mean and linear presets have one root,
as their u is affine in theta.  Every other model, and a root outside the
domain, goes to the outer search: it minimizes the profile P(theta) on a
coarse grid, which is the global start because P is +inf where the zero
moment leaves the hull of the u values, then refines from the best node by
projected BFGS; a root that lies in the domain but misses the floor is one
extra grid node.  Every inner fit takes a stack of theta values: the grid
of each domain box goes through the kernel (or the batched Euclidean
normal equations) as one stack, in blocks of bounded size, and the root
and the refinement solve stacks of one.  The gradient comes free
from the inner fit by the envelope theorem: dP/dtheta = sum_a q_a mu .
du_a/dtheta, with q the fitted atom weights and mu the moment multiplier of
the primal (-n lam for EL, ET and Cressie-Read, 2 lam for the Euclidean
closed form).  Atoms, counts and the observation-to-atom index are computed
once per fit; each theta evaluation solves only the inner dual, and each
theta is solved once (save a root that misses the floor, which its grid
node solves again): the fit at the estimate is the solution found there.
``profile_l_projection`` runs the same search.  A non-finite observation
raises DomainViolation before any of this work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroLikelihood,
    DomainViolation,
    EmptySample,
    SingularConstraints,
    ThetaOutOfDomain,
)
from .prob import (
    LIKELIHOOD_TIE,
    EstimatingModel,
    Sample,
    _whole,
    counts_loglik,
    log_mass_table,
    near_min,
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

    ``w`` holds one weight per observation (order preserved); ``nonnegative``
    says whether every weight is >= 0, which only the Euclidean closed form
    can break.  For the EL method ``profile_value`` is -sum_i log w_i; for
    the other methods it is n times the fitted discrepancy, so that smaller
    is better throughout.  ``profile_grad`` is the gradient of
    ``profile_value`` in theta, by the envelope theorem.
    """

    lam: np.ndarray
    w: np.ndarray
    profile_value: float
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
        return DualFit(
            lam=sol.lam[i],
            w=(sol.weights[i] / self.counts)[self.inverse],
            profile_value=float(sol.value[i]),
            nonnegative=bool(np.all(sol.weights[i] >= 0.0)),
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


def _discrepancy(mp: _SampleProblem, gamma):
    """What gamma keys in a fit on mp: the inner solve (None: the Euclidean
    closed form, else the Cressie-Read dual kernel), the floor of its value
    at a just-identified model's root (``mp.offset``, n log n, at gamma = -1,
    where the value is -sum_i log w_i; 0 for every other) and the label."""
    if gamma is None:
        return _euclidean, 0.0, "Euclidean"
    solve = functools.partial(_MomentProblem.dual, gamma=gamma)
    if gamma == -1.0:
        return solve, mp.offset, "EL"
    return solve, 0.0, "ET" if gamma == 0.0 else f"CR({gamma})"


def _finite(gamma):
    """A caller's Cressie-Read index, which must be a finite number."""
    if gamma is None or not math.isfinite(gamma):
        raise DomainViolation("gamma must be finite")
    return gamma


def _inner(sample: Sample, model: EstimatingModel, theta, gamma) -> DualFit:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    mp = _SampleProblem(sample, model)
    solve, _, _ = _discrepancy(mp, gamma)
    return mp.fit(th, solve(mp, th[None]), 0)


def el_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Profile the nonparametric likelihood at a fixed theta.

    Returns per-observation weights w_i = (1/n) / (1 - lam.u(x_i; theta))
    and the profile value n log n + sum_i log(1 - lam.u_i), the minimum of
    -sum log w over the constrained weight simplex.
    """
    return _inner(sample, model, theta, -1.0)


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
    return _inner(sample, model, theta, 0.0)


def cr_inner(sample: Sample, model: EstimatingModel, theta, gamma: float) -> DualFit:
    """Minimum of CR_gamma(q, empirical) under the moment constraints, by
    the Cressie-Read dual kernel.  For gamma > 0 some atoms may get zero
    weight, so the zero moment may also sit on the hull's boundary."""
    return _inner(sample, model, theta, _finite(gamma))


def euclidean_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Closed-form least-squares weights on the constraint-affine subspace;
    weights may come out negative and are then flagged."""
    return _inner(sample, model, theta, None)


def _estimate(sample: Sample, model: EstimatingModel, gamma, grid_points: int) -> ELFit:
    """Minimize the profile of gamma's discrepancy over the model's
    parameter domain; the fit is the solution at the minimizer.

    For a just-identified model Newton's method looks for the root of the
    sample estimating equations from the middle of the first box's grid
    span.  When the root lies in the domain and its solve, a stack of one,
    is within LIKELIHOOD_TIE * max(1, |floor|) of the floor (n log n at
    gamma = -1, 0 for every other), the root is the fit and its one (theta,
    value) record is the trace.  Where several roots lie in the domain this
    returns the one Newton reaches.

    Otherwise ``_profile_min`` searches a grid over each domain box, with
    ``grid_points`` (a whole number of at least 1) points per axis.  The
    grid's axes span each box, or where it is unbounded the data range with
    a 5% margin; where that range lies wholly beyond a box's one finite end,
    they span as wide a range inside the box, ending at that end.  For
    scalar models they include the data values, which keeps degenerate
    point-feasible problems solvable.  A root in the box is one extra node.
    The grid start is the lexicographically smallest node within
    LIKELIHOOD_TIE of the grid minimum.  Every evaluation in the domain adds
    one (theta, value) record to the fit's trace, grid nodes in order.
    """
    grid_points = int(_whole(grid_points, "grid_points"))
    if grid_points < 1:
        raise DomainViolation(f"grid_points = {grid_points}: must be at least 1")
    mp = _SampleProblem(sample, model)
    solve, floor, method = _discrepancy(mp, gamma)
    k = model.domain.k
    lo, hi = float(mp.atoms.min()), float(mp.atoms.max())
    margin = 0.05 * ((hi - lo) or 1.0)  # the data range with a small margin
    dlo, dhi = lo - margin, hi + margin

    # per box, the (lo, hi) its grid spans along each coordinate
    spans = []
    for box in model.domain.boxes:
        span = []
        for lo, hi in box:
            glo = lo if math.isfinite(lo) else dlo
            ghi = hi if math.isfinite(hi) else dhi
            if ghi < glo and math.isfinite(lo) != math.isfinite(hi):
                # the data range lies wholly beyond the box's one finite
                # end: a span as wide as it, inside the box, ending there
                width = dhi - dlo
                glo, ghi = (hi - width, hi) if math.isfinite(hi) else (lo, lo + width)
            span.append((glo, max(ghi, glo)))
        spans.append(span)

    root = None
    if model.n_constraints == k:  # Newton starts in the middle of the first box's span
        root = mp.root(np.array([(glo + ghi) / 2.0 for glo, ghi in spans[0]]))
    if root is not None:
        sol = solve(mp, root[None])
        if sol.failure[0] is None and (
            abs(sol.value[0] - floor) <= LIKELIHOOD_TIE * max(1.0, abs(floor))
        ):
            trace = ((tuple(root.tolist()), float(sol.value[0])),)
            return ELFit(theta_hat=root, inner=mp.fit(root, sol, 0), trace=trace, method=method)

    extra = mp.atoms if k == 1 and mp.scalar else None
    stages = []
    for box, span in zip(model.domain.boxes, spans):
        axes = []
        steps = []
        for glo, ghi in span:
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
    fit = mp.fit(theta, *solved)
    trace = tuple((tuple(th), v) for th, v, f in trace if f is not ThetaOutOfDomain)
    return ELFit(theta_hat=theta, inner=fit, trace=trace, method=method)


def el_estimate(sample: Sample, model: EstimatingModel, grid_points: int = GRID_POINTS) -> ELFit:
    """Empirical-likelihood estimator: minimize the EL profile over theta."""
    return _estimate(sample, model, -1.0, grid_points)


def et_estimate(sample: Sample, model: EstimatingModel, grid_points: int = GRID_POINTS) -> ELFit:
    """Exponential-tilting estimator: minimize the fitted KL over theta."""
    return _estimate(sample, model, 0.0, grid_points)


def euclidean_estimate(
    sample: Sample, model: EstimatingModel, grid_points: int = GRID_POINTS
) -> ELFit:
    """Least-squares-weight estimator with the closed-form inner solution."""
    return _estimate(sample, model, None, grid_points)


def cr_estimate(
    sample: Sample, model: EstimatingModel, gamma: float, grid_points: int = GRID_POINTS
) -> ELFit:
    """Power-divergence estimator.  Its gamma = -1 and gamma = 0 members are
    empirical likelihood and exponential tilting, the fits, floors and
    labels of ``el_estimate`` and ``et_estimate``."""
    return _estimate(sample, model, _finite(gamma), grid_points)


def mnpl_grid(sample: Sample, candidates) -> tuple[list, float]:
    """Rank candidate distributions by the nonparametric likelihood of the
    sample: returns (all indices minimizing -sum_i log q(x_i), value)."""
    if sample.n == 0:
        raise EmptySample("need observations")
    candidates = list(candidates)
    if not candidates:
        raise DomainViolation("need at least one candidate")
    atoms, counts = np.unique(sample.values(), return_counts=True)
    values = -counts_loglik(log_mass_table(candidates, atoms), counts)
    vmin = float(values.min())
    if math.isinf(vmin):
        raise AllZeroLikelihood("every candidate misses part of the sample")
    return near_min(values, LIKELIHOOD_TIE), vmin
