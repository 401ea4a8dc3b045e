"""Sample-based estimators built on estimating equations.

For a sample x_1..x_n and a model with constraints u(x; theta), the
empirical-likelihood route maximizes sum_i log w_i over weight vectors on
the observations subject to sum_i w_i u(x_i; theta) = 0.  That route,
exponential tilting (KL) and the Cressie-Read family all minimize
CR_gamma(q || empirical) through the one dual Newton kernel of
:mod:`elmap.projection` (``dual_newton``) over the multipliers of sum q = 1
and sum q u = 0: empirical likelihood is its gamma = -1 limit and tilting
its gamma = 0 limit.  Euclidean weights have a closed form.

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
evaluation solves only the inner dual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AllInfinite,
    AllThetaInfeasible,
    EmptySample,
    InfeasibleMoment,
    NotConverged,
    SingularConstraints,
    ThetaOutOfDomain,
)
from .prob import EstimatingModel, Pmf, Sample, counts_loglik, log_mass_table, make_pmf
from .projection import (
    REFINE_TOL,
    blocks,
    dual_newton,
    envelope_gradient,
    moment_feasibility,
    node_error,
    refine_min,
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
    converged: bool = True
    nonnegative: bool = True
    profile_grad: np.ndarray | None = None


@dataclass(frozen=True)
class ELFit:
    theta_hat: np.ndarray
    inner: DualFit
    trace: tuple
    method: str


class _Solution(NamedTuple):
    """Inner solves at a stack of G parameter values.  Per node: the
    profile value, +inf where the fit does not exist, with the error class
    ``failure`` holds there (None elsewhere); the dual multiplier; the
    fitted weight q_a of each atom; the multiplier mu of the moment
    constraint in the primal Lagrangian, so that the profile's gradient is
    sum_a q_a mu . du_a/dtheta; and whether the weights are nonnegative."""

    value: np.ndarray
    lam: np.ndarray
    q: np.ndarray
    mu: np.ndarray
    nonnegative: np.ndarray
    failure: list


class _MomentProblem:
    """A sample reduced, once per fit, to its distinct atoms, their counts
    and the atom index of each observation, with the model's u on them."""

    def __init__(self, sample: Sample, model: EstimatingModel):
        if sample.n == 0:
            raise EmptySample("estimation needs at least one observation")
        vals = sample.values()
        self.scalar = vals.ndim == 1
        self.atoms, inverse, counts = np.unique(
            vals, axis=None if self.scalar else 0, return_inverse=True, return_counts=True
        )
        self.inverse = inverse.reshape(-1)
        self.counts = counts.astype(float)
        self.n = float(sample.n)
        self.freq = self.counts / self.n
        self.model = model

    def u(self, ths: np.ndarray, feasibility: str | None) -> tuple[np.ndarray, list]:
        """u at the atoms for each row of ``ths``, (G, m, J), and per node
        the error class where the fit cannot exist: theta outside the domain
        or, unless ``feasibility`` is None, the zero moment not attainable,
        that is, not strictly inside the hull of the u rows ("interior") or
        not in it ("boundary").  Rows outside the domain are left zero."""
        umat = np.zeros((len(ths), self.counts.size, self.model.n_constraints))
        failure: list = [None] * len(ths)
        for i, th in enumerate(ths):
            if self.model.domain.contains(th):
                umat[i] = self.model.u_matrix(self.atoms, th)
            else:
                failure[i] = ThetaOutOfDomain
        if feasibility is not None:
            status, _ = moment_feasibility(umat)
            unattainable = (status == "infeasible") | (
                (status == "boundary") & (feasibility == "interior")
            )
            for i in np.flatnonzero(unattainable):
                failure[i] = failure[i] or InfeasibleMoment
        return umat, failure

    def gradient(self, th: np.ndarray, sol: _Solution, i: int) -> np.ndarray:
        return envelope_gradient(sol.q[i], sol.mu[i], self.model.du_matrix(self.atoms, th))

    def fit(self, th: np.ndarray, sol: _Solution, i: int) -> DualFit:
        """DualFit from node i of a solve: each observation gets its atom's
        weight shared equally among the atom's observations."""
        if sol.failure[i] is not None:
            raise node_error(sol.failure[i], th)
        nonnegative = bool(sol.nonnegative[i])
        pmf = None
        if self.scalar and nonnegative:
            pmf = make_pmf(self.atoms, sol.q[i])
        return DualFit(
            lam=sol.lam[i],
            w=(sol.q[i] / self.counts)[self.inverse],
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
            mean_u = self.freq @ self.model.u_matrix(self.atoms, th)
            jac = np.einsum("a,ajk->jk", self.freq, self.model.du_matrix(self.atoms, th))
            try:
                step = np.linalg.solve(jac, mean_u)
            except np.linalg.LinAlgError:
                return None
            th = th - step
            if np.max(np.abs(step)) <= REFINE_TOL * max(1.0, float(np.max(np.abs(th)))):
                return th if self.model.domain.contains(th) else None
        return None


def _dual(mp: _MomentProblem, ths: np.ndarray, gamma: float, offset: float = 0.0) -> _Solution:
    """Cressie-Read fits at a stack of theta values by the dual kernel, with
    profile value offset + n CR_gamma(q, freq) and mu = -n lam.  For gamma
    > 0 the zero moment may sit on the hull's boundary."""
    umat, failure = mp.u(ths, "boundary" if gamma > 0.0 else "interior")
    nodes, m, j = umat.shape
    ok = np.array([f is None for f in failure], dtype=bool)
    value = np.full(nodes, math.inf)
    lam = np.full((nodes, j), np.nan)
    q = np.full((nodes, m), np.nan)
    if ok.any():
        lam[ok], q[ok], _, v = dual_newton(mp.freq, umat[ok], gamma)
        value[ok] = offset + mp.n * v
    for i in np.flatnonzero(ok & ~np.isfinite(value)):
        failure[i] = NotConverged
    return _Solution(value, lam, q, -mp.n * lam, np.ones(nodes, dtype=bool), failure)


def _el(mp: _MomentProblem, ths: np.ndarray) -> _Solution:
    # -sum_i log w_i = n log n + n KL(freq || q), the kernel's value at gamma = -1
    return _dual(mp, ths, -1.0, mp.n * math.log(mp.n))


def _et(mp: _MomentProblem, ths: np.ndarray) -> _Solution:
    return _dual(mp, ths, 0.0)


def _cr(mp: _MomentProblem, ths: np.ndarray, gamma: float) -> _Solution:
    return _dual(mp, ths, gamma)


def _euclidean(mp: _MomentProblem, ths: np.ndarray) -> _Solution:
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
    return _Solution(
        value, lam, counts * w_atom, 2.0 * lam, np.all(w_atom >= 0.0, axis=1), failure
    )


def _inner(sample: Sample, model: EstimatingModel, theta, solve) -> DualFit:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    mp = _MomentProblem(sample, model)
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
    return _inner(sample, model, theta, functools.partial(_cr, gamma=gamma))


def euclidean_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Closed-form least-squares weights on the constraint-affine subspace;
    weights may come out negative and are then flagged."""
    return _inner(sample, model, theta, _euclidean)


def _data_bounds(atoms: np.ndarray, k: int) -> list[tuple[float, float]]:
    """Fallback search interval per coordinate when the domain box is
    unbounded: the observed data range with a small margin."""
    lo, hi = float(atoms.min()), float(atoms.max())
    span = (hi - lo) or 1.0
    return [(lo - 0.05 * span, hi + 0.05 * span)] * k


def _profile_search(
    mp: _MomentProblem, solve, grid_points: int, bounds
) -> tuple[np.ndarray, float, list]:
    """Minimize the profile of ``solve`` over the model's parameter domain:
    a grid over each domain box, then ``refine_min`` from the best node.

    ``solve(mp, thetas)`` fits a stack of theta values, scoring +inf where
    the inner fit does not exist; each box's grid goes through it in stacks
    cut by ``projection.blocks``.  The grid's axes span each box,
    or the data range with a margin (or ``bounds``) where the box is
    unbounded.  For scalar models they include the data values, which keeps
    degenerate point-feasible problems (constant samples) solvable; for
    other just-identified models the root of the sample estimating
    equations, when it lies in the box, is one extra node.  Ties within
    1e-12 go to the lexicographically smallest node.  The grid is the
    global start because the profile is +inf off the hull; the refinement
    stays in the best node's box and follows the envelope gradient.  Every
    evaluation inside the domain appends one (theta, value) record to the
    returned trace, grid nodes in order.
    """
    model = mp.model
    k = model.domain.k
    fallback = bounds if bounds is not None else _data_bounds(mp.atoms, k)
    trace: list = []

    def evaluate(ths: np.ndarray) -> _Solution:
        sol = solve(mp, ths)
        trace.extend(
            (tuple(th), v)
            for th, v, f in zip(ths.tolist(), sol.value.tolist(), sol.failure)
            if f is not ThetaOutOfDomain
        )
        return sol

    def one(th: np.ndarray):
        sol = evaluate(th[None])
        if sol.failure[0] is not None:
            return math.inf, None
        return float(sol.value[0]), lambda: mp.gradient(th, sol, 0)

    extra = mp.atoms if k == 1 and mp.scalar else None
    root = None
    if extra is None and model.n_constraints == k:
        # Newton starts in the middle of the data range (or of ``bounds``)
        middle = [sum(fallback[min(c, len(fallback) - 1)]) / 2.0 for c in range(k)]
        root = mp.root(np.array(middle))
    best_theta = None
    best_val = math.inf
    for box in model.domain.boxes:
        axes = []
        steps = []
        for coord, (lo, hi) in enumerate(box):
            flo, fhi = fallback[coord] if coord < len(fallback) else fallback[-1]
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
        for block in blocks(len(pts)):
            ths = pts[block]
            sol = evaluate(ths)
            for i in np.flatnonzero(np.isfinite(sol.value)):
                v = float(sol.value[i])
                better = v < best_val - 1e-12
                tie_smaller = v <= best_val + 1e-12 and (
                    best_theta is None or tuple(ths[i]) < tuple(best_theta)
                )
                if better or tie_smaller:
                    best_val = min(best_val, v)
                    best_theta = ths[i].copy()
                    start = (v, sol, i, box, steps)
    if best_theta is None:
        raise AllThetaInfeasible("profile objective infinite on the whole grid")
    value, sol, i, box, steps = start
    grad = mp.gradient(best_theta, sol, i)
    theta, value = refine_min(one, best_theta, value, grad, box, steps)
    return theta, value, trace


def _estimate(
    sample: Sample,
    model: EstimatingModel,
    solve,
    method: str,
    grid_points: int,
    bounds,
) -> ELFit:
    mp = _MomentProblem(sample, model)
    theta, _, trace = _profile_search(mp, solve, grid_points, bounds)
    fit = mp.fit(theta, solve(mp, theta[None]), 0)
    return ELFit(theta_hat=theta, inner=fit, trace=tuple(trace), method=method)


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
        raise ValueError("gamma must be finite")
    if gamma == 0.0:
        return et_estimate(sample, model, grid_points, bounds)
    if gamma == -1.0:
        return el_estimate(sample, model, grid_points, bounds)

    solve = functools.partial(_cr, gamma=gamma)
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
    idx = [int(i) for i in np.flatnonzero(values <= vmin + 1e-12)]
    return idx, vmin
