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
projected BFGS.  The gradient comes free from the inner fit by the envelope
theorem: dP/dtheta = sum_a q_a mu . du_a/dtheta, with q the fitted atom
weights and mu the moment multiplier of the primal (-n lam for EL, ET and
Cressie-Read, 2 lam for the Euclidean closed form).  Atoms, counts and the
observation-to-atom index are computed once per fit; each theta evaluation
solves only the inner dual.
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
    SupportCondition,
    ThetaOutOfDomain,
)
from .prob import EstimatingModel, Pmf, Sample, counts_loglik, log_mass_table, make_pmf
from .projection import dual_newton, envelope_gradient, moment_feasibility, refine_min

GRID_POINTS = 201


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
    """One inner solve: the profile value, the dual multiplier, the fitted
    weight q_a of each atom, and the multiplier mu of the moment constraint
    in the primal Lagrangian, so that the profile's gradient is
    sum_a q_a mu . du_a/dtheta."""

    value: float
    lam: np.ndarray
    q: np.ndarray
    mu: np.ndarray
    nonnegative: bool = True


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

    def u(self, th: np.ndarray, feasibility: str | None) -> np.ndarray:
        """u at the atoms, once theta is in the domain and, unless
        ``feasibility`` is None, the zero moment is attainable: strictly
        inside the hull of the u rows ("interior"), or on its boundary too
        ("boundary")."""
        if not self.model.domain.contains(th):
            raise ThetaOutOfDomain(f"theta {th} outside the parameter domain")
        umat = self.model.u_matrix(self.atoms, th)
        if feasibility is not None:
            status, _ = moment_feasibility(umat)
            if status == "infeasible" or (status == "boundary" and feasibility == "interior"):
                raise InfeasibleMoment(f"0 outside the convex hull of u values at theta={th}")
        return umat

    def gradient(self, th: np.ndarray, sol: _Solution) -> np.ndarray:
        return envelope_gradient(sol.q, sol.mu, self.model.du_matrix(self.atoms, th))

    def fit(self, th: np.ndarray, sol: _Solution) -> DualFit:
        """DualFit from a solve: each observation gets its atom's weight
        shared equally among the atom's observations."""
        pmf = None
        if self.scalar and sol.nonnegative:
            pmf = make_pmf(self.atoms, sol.q)
        return DualFit(
            lam=sol.lam,
            w=(sol.q / self.counts)[self.inverse],
            profile_value=float(sol.value),
            pmf=pmf,
            nonnegative=sol.nonnegative,
            profile_grad=self.gradient(th, sol),
        )


def _el(mp: _MomentProblem, th: np.ndarray) -> _Solution:
    # -sum_i log w_i = n log n + n KL(freq || q), the kernel's value at gamma = -1
    lam, q, _, kl = dual_newton(mp.freq, mp.u(th, "interior"), -1.0)
    return _Solution(mp.n * math.log(mp.n) + mp.n * kl, lam, q, -mp.n * lam)


def _et(mp: _MomentProblem, th: np.ndarray) -> _Solution:
    lam, pi, kl = tilt_dual(mp.freq, mp.u(th, "interior"))
    return _Solution(mp.n * kl, lam, pi, -mp.n * lam)


def _cr(mp: _MomentProblem, th: np.ndarray, gamma: float) -> _Solution:
    umat = mp.u(th, "boundary" if gamma > 0.0 else "interior")
    lam, q, _, value = dual_newton(mp.freq, umat, gamma)
    return _Solution(mp.n * value, lam, q, -mp.n * lam)


def _euclidean(mp: _MomentProblem, th: np.ndarray) -> _Solution:
    umat = mp.u(th, None)
    n, counts = mp.n, mp.counts
    live = np.any(umat != 0.0, axis=0)  # identically-zero constraints are vacuous
    arows = np.hstack([np.ones((counts.size, 1)), umat[:, live]])
    target = np.concatenate([[1.0], np.zeros(int(live.sum()))])
    gram = (arows * counts[:, None]).T @ arows / n
    rhs = (counts / n) @ arows - target
    try:
        z = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularConstraints(str(exc)) from None
    delta = -(arows @ z) / n  # per-observation shift from 1/n
    w_atom = 1.0 / n + delta
    resid = np.abs(counts @ (w_atom[:, None] * arows) - target)
    if not np.all(np.isfinite(w_atom)) or np.max(resid) > 1e-8:
        raise SingularConstraints(
            f"normal equations inconsistent at theta={th} (residual {np.max(resid):.2e})"
        )
    lam = np.zeros(umat.shape[1])
    lam[live] = z[1:]
    # n sum_i delta_i^2 has derivative -2 a_i . z in w_i, so mu = 2 lam
    return _Solution(
        n * float(counts @ delta**2), lam, counts * w_atom, 2.0 * lam,
        nonnegative=bool(np.all(w_atom >= 0.0)),
    )


def _inner(sample: Sample, model: EstimatingModel, theta, solve) -> DualFit:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    mp = _MomentProblem(sample, model)
    return mp.fit(th, solve(mp, th))


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

    Returns (lam, tilted weights, KL of the tilt from freq).  The caller is
    responsible for checking that the zero moment lies strictly inside the
    hull of the u rows, otherwise the dual is unbounded below.
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


def _data_bounds(sample: Sample, k: int) -> list[tuple[float, float]]:
    """Fallback search interval per coordinate when the domain box is
    unbounded: the observed data range with a small margin."""
    vals = sample.values()
    flat = vals.reshape(-1)
    lo, hi = float(flat.min()), float(flat.max())
    span = (hi - lo) or 1.0
    return [(lo - 0.05 * span, hi + 0.05 * span)] * k


def _profile_search(
    objective,
    model: EstimatingModel,
    sample: Sample,
    grid_points: int,
    bounds,
) -> tuple[np.ndarray, float, list]:
    """Minimize ``objective`` over the model's parameter domain: a grid
    over each domain box, then ``refine_min`` from the best node.

    ``objective(theta)`` returns (value, gradient thunk) and raises where
    the inner fit does not exist; such values score +inf.  The grid's axes
    span each box, or the data range with a margin (or ``bounds``) where
    the box is unbounded, and for scalar models they include the data
    values, which keeps degenerate point-feasible problems (constant
    samples) solvable.  Ties within 1e-12 go to the lexicographically
    smallest node.  The grid is the global start because the profile is
    +inf off the hull; the refinement stays in the best node's box and
    follows the envelope gradient.  Every evaluation appends one
    (theta, value) record to the returned trace.
    """
    k = model.domain.k
    fallback = bounds if bounds is not None else _data_bounds(sample, k)
    trace: list = []

    def safe(th: np.ndarray):
        if not model.domain.contains(th):
            return math.inf, None
        try:
            val, grad = objective(th)
        except (InfeasibleMoment, SupportCondition, NotConverged, SingularConstraints):
            val, grad = math.inf, None
        trace.append((tuple(float(t) for t in th), float(val)))
        return val, grad

    extra = np.unique(sample.values()) if k == 1 and sample.is_scalar else None

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
        for row in pts:
            v, grad = safe(row)
            if v == math.inf:
                continue
            better = v < best_val - 1e-12
            tie_smaller = v <= best_val + 1e-12 and (
                best_theta is None or tuple(row) < tuple(best_theta)
            )
            if better or tie_smaller:
                best_val = min(best_val, v)
                best_theta = row.copy()
                start = (v, grad, box, steps)
    if best_theta is None:
        raise AllThetaInfeasible("profile objective infinite on the whole grid")
    value, grad, box, steps = start
    theta, value = refine_min(safe, best_theta, value, grad(), box, steps)
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

    def objective(th: np.ndarray):
        sol = solve(mp, th)
        return sol.value, lambda: mp.gradient(th, sol)

    theta, _, trace = _profile_search(objective, model, sample, grid_points, bounds)
    fit = mp.fit(theta, solve(mp, theta))
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
