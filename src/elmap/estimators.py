"""Sample-based estimators built on estimating equations.

For a sample x_1..x_n and a model with constraints u(x; theta), the
empirical-likelihood route maximizes sum_i log w_i over weight vectors on
the observations subject to sum_i w_i u(x_i; theta) = 0, which by convex
duality reduces to the same concave dual solved in :mod:`elmap.projection`
with the empirical distribution as the base.  Exponential tilting (KL) and
the Cressie-Read family minimize CR_gamma(q || empirical) through one dual
Newton kernel over the multipliers of sum q = 1 and sum q u = 0
(``projection.cr_dual``; tilting is its gamma = 0 limit).  Euclidean
weights have a closed form.  The outer search over theta is a coarse
grid followed by golden-section refinement, which tolerates the kinks that
appear where the moment problem leaves the convex hull.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
from .prob import (
    EstimatingModel,
    Pmf,
    Sample,
    counts_loglik,
    log_mass_table,
    make_pmf,
)
from .projection import cr_dual, dual_newton, moment_feasibility

GRID_POINTS = 201
REFINE_TOL = 1e-9


@dataclass(frozen=True)
class DualFit:
    """Inner fit at a fixed parameter value.

    ``w`` holds one weight per observation (order preserved); ``pmf`` is the
    same fit aggregated to atoms, or None when weights may be negative
    (Euclidean closed form) or observations are not scalar.  For the EL
    method ``profile_value`` is -sum_i log w_i; for the other methods it is
    n times the fitted discrepancy, so that smaller is better throughout.
    """

    lam: np.ndarray
    w: np.ndarray
    profile_value: float
    pmf: Pmf | None
    converged: bool = True
    nonnegative: bool = True


@dataclass(frozen=True)
class ELFit:
    theta_hat: np.ndarray
    inner: DualFit
    trace: tuple
    method: str


def _atoms_and_counts(sample: Sample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct observations, their counts, and the atom index of each
    observation."""
    if sample.n == 0:
        raise EmptySample("estimation needs at least one observation")
    vals = sample.values()
    if vals.ndim == 1:
        atoms, inverse, counts = np.unique(vals, return_inverse=True, return_counts=True)
        atom_list = list(atoms)
    else:
        atoms, inverse, counts = np.unique(vals, axis=0, return_inverse=True, return_counts=True)
        atom_list = [tuple(row) for row in atoms]
    return atom_list, counts.astype(float), inverse.reshape(-1)


def _atoms_pmf(atom_list, weights: np.ndarray) -> Pmf | None:
    if atom_list and isinstance(atom_list[0], tuple):
        return None
    return make_pmf(np.asarray(atom_list, dtype=float), weights)


def _moment_problem(
    sample: Sample, model: EstimatingModel, theta, boundary_ok: bool = False
) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Atoms, counts, atom index of each observation and u matrix at theta,
    once theta is in the domain and the zero moment is attainable: inside
    the hull of the u rows, or on its boundary too when ``boundary_ok``."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if not model.domain.contains(th):
        raise ThetaOutOfDomain(f"theta {th} outside the parameter domain")
    atom_list, counts, inverse = _atoms_and_counts(sample)
    umat = model.u_matrix(atom_list, th)
    status, _ = moment_feasibility(umat)
    if status == "infeasible" or (status == "boundary" and not boundary_ok):
        raise InfeasibleMoment(f"0 outside the convex hull of u values at theta={th}")
    return atom_list, counts, inverse, umat


def _weights_fit(atom_list, counts, inverse, lam, q, profile_value, converged=True) -> DualFit:
    """DualFit from per-atom weights q: each observation gets its atom's
    weight shared equally among the atom's observations."""
    return DualFit(
        lam=lam,
        w=(q / counts)[inverse],
        profile_value=float(profile_value),
        pmf=_atoms_pmf(atom_list, q),
        converged=converged,
    )


def el_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Profile the nonparametric likelihood at a fixed theta.

    Returns per-observation weights w_i = (1/n) / (1 - lam.u(x_i; theta))
    and the profile value n log n + sum_i log(1 - lam.u_i), the minimum of
    -sum log w over the constrained weight simplex.
    """
    atom_list, counts, inverse, umat = _moment_problem(sample, model, theta)
    n = float(sample.n)
    freq = counts / n
    lam, gval, _, gnorm = dual_newton(freq, umat)
    q = freq / (1.0 - umat @ lam)
    # q sums to 1 - lam . grad g, so to 1 only as far as the dual converged.
    return _weights_fit(
        atom_list, counts, inverse, lam, q / q.sum(),
        n * math.log(n) + n * gval, converged=gnorm <= 1e-10,
    )


def tilt_dual(freq: np.ndarray, umat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Exponential tilting of freq to the zero moment: min_lam log sum_x
    freq_x exp(lam.u_x), solved by the Cressie-Read dual kernel at gamma = 0.

    Returns (lam, tilted weights, KL of the tilt from freq).  The caller is
    responsible for checking that the zero moment lies strictly inside the
    hull of the u rows, otherwise the dual is unbounded below.
    """
    lam, pi, kl, _ = cr_dual(freq, umat, 0.0)
    return lam, pi, kl


def et_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Minimum of KL(q || empirical) under the moment constraints, solved
    through the smooth dual min_lam log sum_x freq_x exp(lam.u_x)."""
    atom_list, counts, inverse, umat = _moment_problem(sample, model, theta)
    lam, pi, kl = tilt_dual(counts / sample.n, umat)
    return _weights_fit(atom_list, counts, inverse, lam, pi, sample.n * kl)


def cr_inner(sample: Sample, model: EstimatingModel, theta, gamma: float) -> DualFit:
    """Minimum of CR_gamma(q, empirical) under the moment constraints, by
    the Cressie-Read dual kernel.  For gamma > 0 some atoms may get zero
    weight, so the zero moment may also sit on the hull's boundary."""
    atom_list, counts, inverse, umat = _moment_problem(
        sample, model, theta, boundary_ok=gamma > 0.0
    )
    lam, q, value, _ = cr_dual(counts / sample.n, umat, gamma)
    return _weights_fit(atom_list, counts, inverse, lam, q, sample.n * value)


def euclidean_inner(sample: Sample, model: EstimatingModel, theta) -> DualFit:
    """Closed-form least-squares weights on the constraint-affine subspace;
    weights may come out negative and are then flagged."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if not model.domain.contains(th):
        raise ThetaOutOfDomain(f"theta {th} outside the parameter domain")
    atom_list, counts, inverse = _atoms_and_counts(sample)
    n = float(sample.n)
    umat = model.u_matrix(atom_list, th)
    live = np.any(umat != 0.0, axis=0)  # identically-zero constraints are vacuous
    arows = np.hstack([np.ones((len(atom_list), 1)), umat[:, live]])
    gram = (arows * counts[:, None]).T @ arows / n
    rhs = (counts / n) @ arows
    rhs = rhs - np.concatenate([[1.0], np.zeros(int(live.sum()))])
    try:
        z = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularConstraints(str(exc)) from None
    delta = -(arows @ z) / n  # per-observation shift from 1/n
    w_atom = 1.0 / n + delta
    resid = np.abs(counts @ (w_atom[:, None] * arows) - np.concatenate(
        [[1.0], np.zeros(int(live.sum()))]
    ))
    if not np.all(np.isfinite(w_atom)) or np.max(resid) > 1e-8:
        raise SingularConstraints(
            f"normal equations inconsistent at theta={th} (residual {np.max(resid):.2e})"
        )
    w_obs = w_atom[inverse]
    objective = float(counts @ delta**2)
    nonneg = bool(np.all(w_obs >= 0.0))
    pmf = _atoms_pmf(atom_list, counts * w_atom) if nonneg else None
    lam = np.zeros(umat.shape[1])
    lam[live] = z[1:]
    return DualFit(
        lam=lam,
        w=w_obs,
        profile_value=n * objective,
        pmf=pmf,
        converged=True,
        nonnegative=nonneg,
    )


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
    """Grid plus cyclic golden-section minimization of ``objective`` over
    the model's parameter domain.  Infeasible values score +inf."""
    k = model.domain.k
    fallback = bounds if bounds is not None else _data_bounds(sample, k)
    trace: list = []

    def safe(th: np.ndarray) -> float:
        if not model.domain.contains(th):
            return math.inf
        try:
            val = objective(th)
        except (InfeasibleMoment, SupportCondition, NotConverged, SingularConstraints):
            val = math.inf
        trace.append((tuple(float(t) for t in th), float(val)))
        return val

    # scalar models: the exact data values are candidate grid points too,
    # which keeps degenerate point-feasible problems (constant samples)
    # solvable without relying on linspace hitting them
    extra = np.unique(sample.values()) if k == 1 and sample.is_scalar else None

    best_theta = None
    best_val = math.inf
    for box in model.domain.boxes:
        axes = []
        for coord, (lo, hi) in enumerate(box):
            flo, fhi = fallback[coord] if coord < len(fallback) else fallback[-1]
            glo = lo if math.isfinite(lo) else flo
            ghi = hi if math.isfinite(hi) else fhi
            ghi = max(ghi, glo)
            axis = np.linspace(glo, ghi, grid_points) if ghi > glo else np.array([glo])
            if extra is not None:
                inside = extra[(extra >= glo) & (extra <= ghi)]
                axis = np.union1d(axis, inside)
            axes.append(axis)
        mesh = np.meshgrid(*axes, indexing="ij") if k > 1 else [axes[0]]
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        for row in pts:
            v = safe(row)
            if v == math.inf:
                continue
            better = v < best_val - 1e-12
            tie_smaller = v <= best_val + 1e-12 and (
                best_theta is None or tuple(row) < tuple(best_theta)
            )
            if better or tie_smaller:
                best_val = min(best_val, v)
                best_theta = row.copy()
                best_box = box
                best_axes = axes
    if best_theta is None:
        raise AllThetaInfeasible("profile objective infinite on the whole grid")

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    theta = best_theta.copy()
    for _ in range(60):
        moved = 0.0
        for coord in range(k):
            axis = best_axes[coord]
            pos = int(np.searchsorted(axis, theta[coord]))
            lo = axis[max(pos - 1, 0)]
            hi = axis[min(pos + 1, axis.size - 1)]
            lo = max(lo, best_box[coord][0])
            hi = min(hi, best_box[coord][1])
            if hi - lo <= REFINE_TOL:
                continue
            a, b = float(lo), float(hi)
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)

            def along(t: float, coord=coord) -> float:
                trial = theta.copy()
                trial[coord] = t
                return safe(trial)

            fc, fd = along(c), along(d)
            while b - a > REFINE_TOL:
                if fc <= fd:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    fc = along(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    fd = along(d)
            cand = c if fc <= fd else d
            cval = along(cand)
            if cval < best_val - 1e-15:
                moved = max(moved, abs(cand - theta[coord]))
                theta[coord] = cand
                best_val = cval
        if moved <= 1e-8:
            break
    return theta, best_val, trace


def _estimate(
    sample: Sample,
    model: EstimatingModel,
    inner,
    method: str,
    grid_points: int,
    bounds,
) -> ELFit:
    def objective(th: np.ndarray) -> float:
        return inner(sample, model, th).profile_value

    theta, _, trace = _profile_search(objective, model, sample, grid_points, bounds)
    fit = inner(sample, model, theta)
    return ELFit(theta_hat=theta, inner=fit, trace=tuple(trace), method=method)


def el_estimate(
    sample: Sample,
    model: EstimatingModel,
    grid_points: int = GRID_POINTS,
    bounds=None,
) -> ELFit:
    """Empirical-likelihood estimator: minimize the EL profile over theta."""
    return _estimate(sample, model, el_inner, "EL", grid_points, bounds)


def et_estimate(
    sample: Sample,
    model: EstimatingModel,
    grid_points: int = GRID_POINTS,
    bounds=None,
) -> ELFit:
    """Exponential-tilting estimator: minimize the fitted KL over theta."""
    return _estimate(sample, model, et_inner, "ET", grid_points, bounds)


def euclidean_estimate(
    sample: Sample,
    model: EstimatingModel,
    grid_points: int = GRID_POINTS,
    bounds=None,
) -> ELFit:
    """Least-squares-weight estimator with the closed-form inner solution."""
    return _estimate(sample, model, euclidean_inner, "Euclidean", grid_points, bounds)


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

    inner = functools.partial(cr_inner, gamma=gamma)
    return _estimate(sample, model, inner, f"CR({gamma})", grid_points, bounds)


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
