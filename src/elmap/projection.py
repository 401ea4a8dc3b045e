"""Projections of a base distribution onto linear families.

The main route is convex duality.  One damped Newton kernel
(``dual_newton``) solves the dual of every Cressie-Read projection of a base
p onto {q : sum q = 1, sum q u(x; theta) = 0}, over the multipliers (eta,
lam) of both constraints.  Its gamma = -1 member is empirical likelihood:
the L-projection, the minimizer of L(q || r), has q_i = r_i / (1 - lam.u_i)
and value entropy(r) + KL(r || q); gamma = 0 is exponential tilting.  The
kernel takes one problem or a stack of problems on one base, one per node
of a theta grid, and runs the whole stack in lock-step.
``moment_feasibility`` decides, per node, whether the zero moment is
attainable: by min/max for one constraint, by a closed-form planar hull
test for two, and by a linear program for more.

One moment problem on weighted atoms (atoms, base weights, a scale n and
the model) is the only place that solves a theta stack: it evaluates u
over the whole stack in one call, classifies each node and runs the
kernel.  The estimators build it from a sample (frequencies, n the sample
size), ``l_project_stack`` from the atoms r charges (r's weights, n = 1).
One search, the grid minimum and then ``refine_min`` on the envelope
gradient, serves ``profile_l_projection`` and every estimator; it alone
cuts grids into stacks, and its solve at the minimizer is the fit it returns.

An independent primal oracle (entropic mirror descent with an augmented
Lagrangian, plus a local equality-constrained Newton polish) shares no code
with the dual.  The tests use it to cross-check the dual and for the
Euclidean and reinforced-urn discrepancies; it is not exported from the
package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergences import DivergenceSpec, entropy
from .errors import (
    AllThetaInfeasible,
    InfeasibleMoment,
    NotConverged,
    SingularConstraints,
    SupportCondition,
    ThetaOutOfDomain,
)
from .prob import LIKELIHOOD_TIE, PROJECTION_TIE, EstimatingModel, Pmf, make_pmf, near_min
from .rng import rng_from

GRAD_TOL = 1e-10
MAX_ITER = 200
# A u row within this distance (relative to its length) of the line through
# 0 and the rows' centroid counts as on it in the planar hull test.
_COLLINEAR = 1e-12
# Nodes of a theta grid are solved in stacks of at most this many.
_BLOCK = 256
# Relative resolution of an objective value (dual_newton's dual, refine_min's
# profile), and dual_newton's curvature (per unit of base mass) given to atoms
# clipped at zero weight.
_RESOLUTION = 4.0 * np.finfo(float).eps
_CLIP_CURVATURE = 1e-9
# refine_min: steps stop below REFINE_TOL; Armijo's sufficient-decrease
# constant; caps on quasi-Newton steps and (in dual_newton too) on
# backtracks per step.
REFINE_TOL = 1e-9
_ARMIJO = 1e-4
_REFINE_STEPS = 100
_BACKTRACKS = 60


@dataclass(frozen=True)
class ProjectionResult:
    qhat: Pmf
    lam: np.ndarray
    value: float
    converged: bool
    iterations: int
    grad_norm: float


def moment_feasibility(umat: np.ndarray):
    """Classify whether 0 lies in the convex hull of the rows of umat.

    Returns ("interior", t), ("boundary", t) or ("infeasible", 0): t is the
    largest minimum weight of a hull representation of 0, so t > 0 means a
    strictly positive representation exists, and t <= 1e-9 counts as the
    boundary.  A stack (G, m, J) gives a (G,) array of those labels and a
    (G,) array of t.  One constraint is decided by the sign of the extreme
    rows (t is then 1/m inside), two by the closed form ``_planar_hull_t``,
    and more by one linear program per node.  The closed form extends t
    below zero outside the hull, and a t in [-1e-9, 0) (zero on the hull's
    edge up to rounding) also counts as the boundary.
    """
    stacked = umat.ndim == 3
    u = umat if stacked else umat[None]
    nodes, m, j = u.shape
    if j == 0:
        t = np.full(nodes, 1.0 / m)
    elif j == 1:
        lo, hi = u[:, :, 0].min(axis=1), u[:, :, 0].max(axis=1)
        inside = ((lo < 0.0) & (hi > 0.0)) | ((lo == 0.0) & (hi == 0.0))
        t = np.where(inside, 1.0 / m, np.where((lo == 0.0) | (hi == 0.0), 0.0, -np.inf))
    elif j == 2:
        t = _planar_hull_t(u)
    else:
        t = np.array([_hull_lp_t(node) for node in u])
    tol = 1e-9
    status = np.where(t < -tol, "infeasible", np.where(t <= tol, "boundary", "interior"))
    t = np.where(t < -tol, 0.0, np.maximum(t, 0.0))
    if stacked:
        return status, t
    return str(status[0]), float(t[0])


def _planar_hull_t(u: np.ndarray) -> np.ndarray:
    """The largest minimum weight t of a representation of 0 by the rows of
    each (m, 2) node of a stack; -inf where 0 is outside their hull.

    Write the weights as t + v with v >= 0: sum v_i u_i = -t m c, c the
    rows' centroid, so t = rho / (m (|c| + rho)) with rho the distance the
    hull reaches beyond 0 along the ray from c through 0.  That ray's line
    meets the hull in a segment that holds c, so rho < 0 means 0 is outside,
    rho = 0 that it is on the boundary (zero rows included), and rho > 0
    that it is inside, collinear rows on both sides of 0 included.  rho is
    the farthest point where the line is crossed by a row on it or by a
    segment between rows on its two sides; Dinkelbach's iteration finds the
    farthest segment exactly (it is Newton's method on a convex, piecewise
    linear function), in a few passes over the rows.  c = 0 gives t = 1/m.
    """
    nodes, m, _ = u.shape
    rows = np.arange(nodes)
    c = u.mean(axis=1)
    cn = np.hypot(c[:, 0], c[:, 1])
    away = cn > 0.0
    e = np.where(away[:, None], -c / np.where(away, cn, 1.0)[:, None], [1.0, 0.0])
    along = u[:, :, 0] * e[:, None, 0] + u[:, :, 1] * e[:, None, 1]
    side = u[:, :, 1] * e[:, None, 0] - u[:, :, 0] * e[:, None, 1]
    side[np.abs(side) <= _COLLINEAR * np.hypot(u[:, :, 0], u[:, :, 1])] = 0.0
    left, right = side > 0.0, side < 0.0
    crossed = left.any(axis=1) & right.any(axis=1)
    on_line = np.where(side == 0.0, along, -np.inf).max(axis=1)
    # Dinkelbach: the segment (i, k) that maximizes (along_i - x) / side_i
    # + (along_k - x) / -side_k crosses the line beyond x unless x is the
    # farthest crossing; every crossing lies above the smallest row value.
    x = along.min(axis=1)
    dist = np.abs(side)
    while True:
        gain = (along - x[:, None]) / np.where(dist > 0.0, dist, 1.0)
        i = np.argmax(np.where(left, gain, -np.inf), axis=1)
        k = np.argmax(np.where(right, gain, -np.inf), axis=1)
        si, sk = dist[rows, i], dist[rows, k]
        with np.errstate(invalid="ignore", divide="ignore"):
            cross = (sk * along[rows, i] + si * along[rows, k]) / (si + sk)
        farther = crossed & (cross > x)
        if not farther.any():
            break
        x = np.where(farther, cross, x)
    rho = np.maximum(np.where(crossed, x, -np.inf), on_line)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(cn + rho > 0.0, rho / (m * (cn + rho)), -np.inf)
    return np.where(away, t, 1.0 / m)


def _hull_lp_t(umat: np.ndarray) -> float:
    """The largest minimum weight of a representation of 0 by the rows of
    umat, by a linear program; -inf where there is none."""
    from scipy.optimize import linprog

    m, j = umat.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.zeros((j + 1, m + 1))
    a_eq[0, :m] = 1.0
    a_eq[1:, :m] = umat.T
    b_eq = np.zeros(j + 1)
    b_eq[0] = 1.0
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    b_ub = np.zeros(m)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * m + [(0.0, 1.0)],
        method="highs",
    )
    if res.status == 2:
        return -math.inf
    if not res.success:
        raise NotConverged(f"feasibility LP failed: {res.message}")
    return float(res.x[-1])


def dual_newton(p: np.ndarray, umat: np.ndarray, gamma: float):
    """Cressie-Read projection of p onto {q : sum q = 1, sum q u = 0}.

    Damped Newton over the multipliers (eta, lam) of the two constraints
    minimizes the convex dual

        D(eta, lam) = sum_i p_i z_i^((gamma+1)/gamma) / (gamma+1) - eta,
        z_i = 1 + gamma (eta + lam . u_i),

    whose gradient is (sum q - 1, sum q u) at q_i = p_i z_i^(1/gamma).  For
    gamma > 0, z is clipped at 0, which is exactly the simplex-constrained
    primal, so atoms may get zero weight; for gamma < 0, D is +inf unless
    every z_i > 0 and q stays strictly positive.  The two limits: gamma = -1
    is empirical likelihood, D = -sum_i p_i log z_i - eta with q_i = p_i / z_i,
    and gamma = 0 is exponential tilting, z_i = eta + lam . u_i with
    q_i = p_i exp(z_i).

    ``umat`` is one problem, (m, J), or a stack of G problems on the same
    base, (G, m, J), one per node of a theta grid.  The stack runs in
    lock-step; each node has its own Armijo step, iteration count and
    least-squares fallback (used only where its Newton matrix is singular),
    and leaves the stack when it stops.

    For one problem, returns (lam, q, iterations, value) with value
    CR_gamma(q, p); its limits are KL(p || q) at gamma = -1 and KL(q || p)
    at gamma = 0.  It raises NotConverged when the gradient, taken with each
    u column scaled to unit maximum, stays above 1e-8.  For a stack, returns
    lam (G, J), q (G, m), the iterations summed over the nodes, and value
    (G,), with value +inf (lam and q NaN) at the nodes that do not converge.
    The caller checks that the zero moment is attainable: inside the hull
    of the u rows for gamma <= 0, in it for gamma > 0.
    """
    stacked = umat.ndim == 3
    u = umat if stacked else umat[None]
    nodes, m, j = u.shape
    # Unit-scaled constraint columns keep eta and lam on one footing.
    scale = np.abs(u).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    amat = np.empty((nodes, m, j + 1))
    amat[:, :, 0] = 1.0
    amat[:, :, 1:] = u / scale[:, None, :]
    first = np.zeros(j + 1)
    first[0] = 1.0
    # z moves by dz_dv per unit of eta + lam . u (the tilting limit carries
    # v = eta + lam . u itself), so by dz_da @ step for a Newton step.
    dz_da = (gamma if gamma != 0.0 else 1.0) * amat
    rowsum = np.add.reduce
    minus_p = -p

    def evaluate(eta, z):
        """D, q and the per-atom curvature dq/d eta at the carried z.  For
        gamma < 0, D is +inf, or NaN from the logarithm at gamma = -1,
        unless every z_i > 0; either fails every test that a trial point
        must pass."""
        if gamma == 0.0:
            q = p * np.exp(z)
            return rowsum(q, 1) - eta, q, q
        if gamma < 0.0:
            q = p * z ** (1.0 / gamma)
            if gamma == -1.0:
                return rowsum(minus_p * np.log(z), 1) - eta, q, q / z
            d = rowsum(q * z, 1) / (gamma + 1.0) - eta
            d[(z <= 0.0).any(axis=1)] = math.inf
            return d, q, q / z
        live = z > 0.0
        q = p * np.maximum(z, 0.0) ** (1.0 / gamma)
        # A clipped atom has no curvature; the floor keeps the Newton system
        # regular when too few atoms are live to span the constraints, so
        # the step can bring clipped atoms back.
        h = np.where(live, q / np.where(live, z, 1.0), _CLIP_CURVATURE * p)
        return rowsum(q * z, 1) / (gamma + 1.0) - eta, q, h

    def gradient(amat, q):
        return np.matmul(q[:, None, :], amat)[:, 0, :] - first

    # z is carried by increments, not recomputed from x: near the hull's
    # edge some z_i are tiny, and 1 + gamma (A x)_i would lose their digits.
    x = np.zeros((nodes, j + 1))
    z = np.full((nodes, m), 1.0 if gamma != 0.0 else 0.0)
    # The working set holds the nodes still iterating (``active``, their
    # index in the stack); a node that stops before the others leaves its
    # state in the *_end arrays, made when the first such node stops.
    active = np.arange(nodes)
    x_end = None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d, q, h = evaluate(x[:, 0], z)
        grad = gradient(amat, q)
        amat_t = amat.transpose(0, 2, 1)
        for it in range(1, MAX_ITER + 1):
            if not active.size:
                break
            hess = np.matmul(amat_t * h[:, None, :], amat)
            step = _newton_step(hess, grad)
            dz = np.matmul(dz_da, step[:, :, None])[:, :, 0]
            decrement = rowsum(grad * step, 1)
            xt, zt = x - step, z - dz
            dt, qt, ht = evaluate(xt[:, 0], zt)
            gt = gradient(amat, qt)
            accept = dt <= d - 1e-4 * decrement
            # Below the resolution of D, Armijo cannot see a decrease: such a
            # node takes full steps while they still shrink the gradient.
            tiny = decrement <= _RESOLUTION * np.maximum(1.0, np.abs(d))
            if np.count_nonzero(tiny):
                shrinks = rowsum(gt * gt, 1) < rowsum(grad * grad, 1)
                accept = np.where(tiny, np.isfinite(dt) & shrinks, accept)
            kept = np.count_nonzero(accept)
            if kept < accept.size:
                # Armijo backtracking, in lock-step from the full step
                back = np.flatnonzero(~(tiny | accept))
                alpha = 1.0
                for _ in range(_BACKTRACKS - 1):
                    if not back.size:
                        break
                    alpha *= 0.5
                    xb, zb = x[back] - alpha * step[back], z[back] - alpha * dz[back]
                    db, qb, hb = evaluate(xb[:, 0], zb)
                    ok = db <= d[back] - 1e-4 * alpha * decrement[back]
                    if np.count_nonzero(ok):
                        took = back[ok]
                        xt[took], zt[took], dt[took] = xb[ok], zb[ok], db[ok]
                        qt[took], ht[took] = qb[ok], hb[ok]
                        gt[took] = gradient(amat[took], qb[ok])
                        accept[took] = True
                        back = back[~ok]
                kept = np.count_nonzero(accept)
            if kept < accept.size:
                if not kept:
                    break
                if x_end is None:
                    x_end, q_end, g_end = np.empty_like(x), np.empty_like(z), np.empty_like(x)
                    it_end = np.empty(nodes, dtype=int)
                stop = ~accept
                done = active[stop]
                x_end[done], q_end[done], g_end[done] = x[stop], q[stop], grad[stop]
                it_end[done] = it
                active, amat, dz_da = active[accept], amat[accept], dz_da[accept]
                amat_t = amat.transpose(0, 2, 1)
                xt, zt, dt, qt, ht, gt = (
                    xt[accept], zt[accept], dt[accept], qt[accept], ht[accept], gt[accept]
                )
            x, z, d, q, h, grad = xt, zt, dt, qt, ht, gt
        # the nodes left stopped together, or ran out of iterations
        if x_end is None:  # the working set is still the whole stack
            x_end, q_end, g_end, it_end = x, q, grad, np.full(nodes, it)
        else:
            x_end[active], q_end[active], g_end[active] = x, q, grad
            it_end[active] = it
        gnorm = np.sqrt(rowsum(g_end * g_end, 1))
        converged = gnorm <= 1e-8
        if not stacked and not converged[0]:
            raise NotConverged(
                f"Cressie-Read dual gradient {gnorm[0]:.2e} after {it_end[0]} iterations"
            )
        q = q_end / rowsum(q_end, 1)[:, None]
        ratio = np.where(q > 0.0, q / p, 1.0)
        if gamma == -1.0:
            value = -rowsum(p * np.log(ratio), 1)
        elif gamma == 0.0:
            value = rowsum(q * np.log(ratio), 1)
        else:
            value = rowsum(q * (ratio**gamma - 1.0), 1) / (gamma * (gamma + 1.0))
    lam = x_end[:, 1:] / scale
    if not stacked:
        return lam[0], q[0], int(it_end[0]), float(value[0])
    if not converged.all():
        lam[~converged] = np.nan
        q[~converged] = np.nan
        value[~converged] = math.inf
    return lam, q, int(it_end.sum()), value


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve each node's Newton system; least squares only for the nodes
    whose matrix is singular."""
    try:
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(grad)
        for i, (hi, gi) in enumerate(zip(hess, grad)):
            try:
                step[i] = np.linalg.solve(hi, gi)
            except np.linalg.LinAlgError:
                step[i] = np.linalg.lstsq(hi, gi, rcond=None)[0]
        return step


# What each kind of failure at a grid node means, for the callers that
# raise it for a single theta.
_FAILURES = {
    ThetaOutOfDomain: "theta outside the parameter domain",
    InfeasibleMoment: "zero moment outside the hull of the u values",
    SupportCondition: "zero moment on the hull's boundary: some atom needs weight zero",
    NotConverged: "dual Newton did not converge",
    SingularConstraints: "normal equations singular or inconsistent",
}


def node_error(failure: type, theta) -> Exception:
    """The exception a single-theta call raises for a grid node's failure."""
    return failure(f"{_FAILURES[failure]} at theta={np.asarray(theta)}")


class ProjectionStack(NamedTuple):
    """Fits of one moment problem at a stack of G parameter values.  Per
    node: the profile value, +inf where the fit does not exist, with the
    error class ``failure`` holds there (None elsewhere); the dual
    multiplier; the fitted weight q_a of each atom; and the multiplier mu of
    the moment constraint in the primal Lagrangian, so that the profile's
    gradient is sum_a q_a mu . du_a/dtheta.  ``iterations`` sums the
    kernel's Newton iterations over the nodes."""

    value: np.ndarray
    lam: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    failure: list
    iterations: int


class _MomentProblem:
    """The moment constraints sum_a q_a u(a; theta) = 0 on distinct atoms
    with base weights, a scale n and the model.  ``offset`` is the constant
    of the gamma = -1 value offset + n KL(base || q): n log n for a sample,
    which makes the value -sum_i log w_i, and entropy(r) for a base r (n =
    1), which makes it L(q || r)."""

    def __init__(self, atoms, base, n: float, model: EstimatingModel, offset: float):
        self.atoms, self.base, self.n, self.model, self.offset = atoms, base, n, model, offset

    def u(self, ths: np.ndarray, feasibility: str | None) -> tuple[np.ndarray, list]:
        """u at the atoms for each row of ``ths``, (G, m, J), and per node
        the error class where the fit cannot exist: ThetaOutOfDomain, and
        unless ``feasibility`` is None, InfeasibleMoment where the zero
        moment is outside the hull of the u rows, and SupportCondition
        where it is on the hull's boundary and ``feasibility`` is
        "interior".  Rows outside the domain are left zero."""
        inside = self.model.domain.contains(ths)
        umat = np.zeros((len(ths), self.base.size, self.model.n_constraints))
        umat[inside] = self.model.u_matrix(self.atoms, ths[inside])
        failure: list = [None if ok else ThetaOutOfDomain for ok in inside]
        if feasibility is not None:
            status, _ = moment_feasibility(umat)
            for i in np.flatnonzero(status == "infeasible"):
                failure[i] = failure[i] or InfeasibleMoment
            if feasibility == "interior":
                for i in np.flatnonzero(status == "boundary"):
                    failure[i] = failure[i] or SupportCondition
        return umat, failure

    def gradient(self, th: np.ndarray, sol: ProjectionStack, i: int) -> np.ndarray:
        return envelope_gradient(sol.weights[i], sol.mu[i], self.model.du_matrix(self.atoms, th))

    def dual(self, ths: np.ndarray, gamma: float) -> ProjectionStack:
        """Cressie-Read fits at a stack of theta values by one kernel call:
        value n CR_gamma(q, base), or offset + n KL(base || q) at gamma = -1,
        and mu = -n lam.  For gamma > 0 the zero moment may sit on the
        hull's boundary."""
        umat, failure = self.u(ths, "boundary" if gamma > 0.0 else "interior")
        nodes, m, j = umat.shape
        ok = np.flatnonzero([f is None for f in failure])
        value = np.full(nodes, math.inf)
        lam = np.full((nodes, j), np.nan)
        q = np.full((nodes, m), np.nan)
        iterations = 0
        if ok.size:
            lam[ok], q[ok], iterations, v = dual_newton(self.base, umat[ok], gamma)
            value[ok] = (self.offset if gamma == -1.0 else 0.0) + self.n * v
        for i in ok[~np.isfinite(value[ok])]:
            failure[i] = NotConverged
        return ProjectionStack(value, lam, q, -self.n * lam, failure, iterations)


def _l_problem(r: Pmf, model: EstimatingModel) -> _MomentProblem:
    active = r.weights > 0.0
    return _MomentProblem(r.support[active], r.weights[active], 1.0, model, entropy(r))


def l_project_stack(r: Pmf, model: EstimatingModel, thetas) -> ProjectionStack:
    """Project r under L(. || r) onto the linear family at each row of
    ``thetas`` (G, K): value entropy(r) + KL(r || q), with ``weights`` q on
    r's support (zero off the atoms r charges, NaN on them where the
    projection fails)."""
    ths = np.asarray(thetas, dtype=float).reshape(len(thetas), -1)
    sol = _l_problem(r, model).dual(ths, -1.0)
    weights = np.zeros((len(ths), r.m))
    weights[:, r.weights > 0.0] = sol.weights
    return sol._replace(weights=weights)


def _projection_result(r: Pmf, model, th, sol: ProjectionStack, i: int) -> ProjectionResult:
    """The projection of r at th from node i of a solve of _l_problem(r, model)."""
    if sol.failure[i] is not None:
        raise node_error(sol.failure[i], th)
    active = r.weights > 0.0
    q = np.zeros(r.m)
    q[active] = sol.weights[i]
    gnorm = float(np.linalg.norm(model.u_matrix(r.support, th)[active].T @ sol.weights[i]))
    return ProjectionResult(
        qhat=make_pmf(r.support, q),
        lam=sol.lam[i],
        value=float(sol.value[i]),
        converged=gnorm <= GRAD_TOL,
        iterations=sol.iterations,
        grad_norm=gnorm,
    )


def l_project_linear(r: Pmf, model: EstimatingModel, theta) -> ProjectionResult:
    """Project r onto the linear family at theta under L(. || r)."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    return _projection_result(r, model, th, _l_problem(r, model).dual(th[None], -1.0), 0)


# -- primal oracle -------------------------------------------------------------


def _mirror_descent(
    spec: DivergenceSpec,
    base: np.ndarray,
    umat: np.ndarray,
    q0: np.ndarray,
    outer: int,
    inner: int,
) -> np.ndarray:
    """Augmented-Lagrangian entropic mirror descent toward the constrained
    minimizer; returns an interior approximation."""
    q = np.maximum(q0, 1e-12)
    q = q / q.sum()
    j = umat.shape[1]
    y = np.zeros(j)
    rho = 10.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(outer):
            for t in range(1, inner + 1):
                mom = q @ umat
                grad = spec.grad(q, base) + umat @ (y + rho * mom)
                step = (1.0 / math.sqrt(t)) * grad
                nrm = float(np.max(np.abs(step)))
                if nrm > 0.5:  # bound each multiplicative update
                    step *= 0.5 / nrm
                z = np.log(q) - step
                z = np.maximum(z - z.max(), -700.0)
                q = np.exp(z)
                q /= q.sum()
            mom = q @ umat
            y = y + rho * mom
            if j == 0 or float(np.max(np.abs(mom))) < 1e-11:
                break
            rho = min(rho * 2.0, 1e5)
    return q


def _kkt_polish(
    spec: DivergenceSpec,
    base: np.ndarray,
    umat: np.ndarray,
    q0: np.ndarray,
    max_iter: int = 80,
) -> np.ndarray:
    """Local Newton solve of the equality-constrained optimality system,
    restricted to the primal side (never uses the tilted-family form)."""
    m, j = umat.shape
    amat = np.vstack([np.ones((1, m)), umat.T])
    b = np.zeros(j + 1)
    b[0] = 1.0
    positivity = spec.kind in {"L", "KL", "CR", "PolyaL"}

    fixed = np.zeros(m, dtype=bool)
    q = q0.copy()
    for _ in range(m + 1):
        free = ~fixed
        qf = q[free]
        af = amat[:, free]
        bf = base[free]
        nu = np.linalg.lstsq(af.T, -spec.grad(qf, bf), rcond=None)[0]
        for _ in range(max_iter):
            g = spec.grad(qf, bf) + af.T @ nu
            rc = af @ qf - b
            res = max(float(np.max(np.abs(g))), float(np.max(np.abs(rc))))
            if res <= 1e-13:
                break
            h = spec.hess_diag(qf, bf) + 1e-13
            sinv = af @ (af / h).T
            try:
                dnu = np.linalg.solve(sinv, rc - af @ (g / h))
            except np.linalg.LinAlgError:
                dnu = np.linalg.lstsq(sinv, rc - af @ (g / h), rcond=None)[0]
            dq = -(g + af.T @ dnu) / h
            alpha = 1.0
            if positivity:
                neg = dq < 0
                if np.any(neg):
                    alpha = min(1.0, 0.995 * float(np.min(qf[neg] / -dq[neg])))
            for _ in range(60):
                qt = qf + alpha * dq
                nut = nu + alpha * dnu
                if positivity and np.any(qt <= 0):
                    alpha *= 0.5
                    continue
                gt = spec.grad(qt, bf) + af.T @ nut
                rt = af @ qt - b
                if max(float(np.max(np.abs(gt))), float(np.max(np.abs(rt)))) <= (1.0 - 1e-4 * alpha) * res:
                    qf, nu = qt, nut
                    break
                alpha *= 0.5
            else:
                break
        q = np.zeros(m)
        q[free] = qf
        if positivity or not np.any(qf < -1e-12):
            break
        # Euclidean-type face handling: pin the most negative weight at zero.
        worst = np.where(free)[0][int(np.argmin(qf))]
        fixed[worst] = True
        q[q < 0] = 0.0
        q /= q.sum()
    return q


def project_oracle(
    r: Pmf,
    model: EstimatingModel,
    theta,
    spec: DivergenceSpec,
    restarts: int = 5,
    seed: int = 0,
    outer: int = 12,
    inner: int = 300,
) -> Pmf:
    """Brute-force projection of r under the chosen divergence, by entropic
    mirror descent over the simplex with decreasing steps plus a local
    polish; independent of the dual route."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if not model.domain.contains(th):
        raise node_error(ThetaOutOfDomain, th)
    umat_full = model.u_matrix(r.support, th)
    if spec.kind in {"L", "KL", "CR"}:
        atoms = r.weights > 0.0
    else:
        atoms = np.ones(r.m, dtype=bool)
    umat = umat_full[atoms]
    base = r.weights[atoms]
    m = int(atoms.sum())
    status, _ = moment_feasibility(umat)
    if status == "infeasible":
        raise node_error(InfeasibleMoment, th)

    rng = rng_from("project_oracle", seed)
    inits = [np.full(m, 1.0 / m), np.maximum(base, 0.02 / m) / np.maximum(base, 0.02 / m).sum()]
    while len(inits) < max(restarts, 1):
        inits.append(rng.dirichlet(np.ones(m)))

    best_q = None
    best_val = math.inf
    for q0 in inits[: max(restarts, 1)]:
        q = _mirror_descent(spec, base, umat, q0, outer, inner)
        q = np.maximum(q, 1e-12)
        q = _kkt_polish(spec, base, umat, q / q.sum())
        mom = q @ umat
        if umat.shape[1] and float(np.max(np.abs(mom))) > 1e-9:
            continue
        val = spec.value(q, base)
        if val < best_val:
            best_val = val
            best_q = q
    if best_q is None:
        raise NotConverged("no oracle restart reached the feasibility tolerance")
    out = np.zeros(r.m)
    out[atoms] = best_q
    out[out < 0] = 0.0
    return make_pmf(r.support, out)


# -- profile search over a parameter grid ---------------------------------------


@dataclass(frozen=True)
class ProfileResult:
    theta_star: np.ndarray
    result: ProjectionResult
    minimizers: tuple
    values: tuple


def envelope_gradient(q: np.ndarray, mu: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Gradient in theta of a profile min_q {D(q) : sum q u(theta) = 0, ...}
    by the envelope theorem: sum_a q_a mu . du_a/dtheta, with q the fitted
    weights, mu the multiplier of the moment constraint in the Lagrangian
    D + mu . sum q u, and jac the (m, J, K) Jacobian of u at the atoms."""
    return np.einsum("a,j,ajk->k", q, mu, jac)


def refine_min(
    fun, grad, theta: np.ndarray, value: float, fit, box, step
) -> tuple[np.ndarray, float, object]:
    """Projected quasi-Newton descent from a grid node.

    ``fun(theta)`` returns (value, fit), with value +inf where the profile
    is undefined; ``grad(theta, fit)`` is the profile's gradient there, and
    ``fit`` is the start node's.  BFGS runs on the coordinates that the
    gradient does not hold at a bound of ``box`` (for one coordinate it is
    the secant method).  The first step moves at most ``step`` along each
    coordinate.  Each step is clipped to the box and backtracked until the
    Armijo condition holds, rejecting +inf trials; the backtracking follows
    the zero of the directional derivative along the step.  Once the
    predicted decrease is below the resolution of the profile value, a
    trial is accepted while it shrinks the projected gradient instead.
    Stops when a step would move less than REFINE_TOL or the projected
    gradient vanishes.  Returns (theta, value, fit) of the last accepted
    trial, or of the start when that is not worse.
    """
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    step = np.asarray(step, dtype=float)
    x, f, g = theta.copy(), value, grad(theta, fit)
    xfit = fit
    hinv = None

    def projected(x, g):
        held = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
        return np.where(held, 0.0, g)

    pg = projected(x, g)
    for _ in range(_REFINE_STEPS):
        if not np.any(pg):
            break
        free = pg != 0.0
        if hinv is not None:
            d = np.zeros_like(x)
            d[free] = -(hinv[np.ix_(free, free)] @ pg[free])
            if d @ pg >= 0.0:
                hinv = None
        if hinv is None:
            d = -(step**2) * pg / float(np.max(np.abs(step * pg)))
        resolution = _RESOLUTION * max(1.0, abs(f))
        alpha = 1.0
        accepted = False
        for _ in range(_BACKTRACKS):
            t = np.clip(x + alpha * d, lo, hi)
            s = t - x
            if float(np.max(np.abs(s))) <= REFINE_TOL:
                break
            slope = float(g @ s)
            ft, tfit = fun(t)
            if not math.isfinite(ft):
                alpha *= 0.5
                continue
            gt = grad(t, tfit)
            pgt = projected(t, gt)
            if ft <= f + _ARMIJO * slope or (
                -slope <= resolution
                and ft <= f + resolution
                and np.linalg.norm(pgt) < np.linalg.norm(pg)
            ):
                accepted = True
                break
            # zero of the directional derivative, interpolated linearly
            d0, dt = float(g @ d), float(gt @ d)
            alpha = alpha * 0.5 if dt <= d0 else alpha * min(0.5, -d0 / (dt - d0))
        if not accepted:
            break
        y = gt - g
        sy = float(s @ y)
        if sy > 0.0:
            if hinv is None:
                hinv = np.eye(x.size) * (sy / float(y @ y))
            rho = 1.0 / sy
            v = np.eye(x.size) - rho * np.outer(s, y)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        x, f, g, pg, xfit = t, ft, gt, pgt, tfit
    if f > value:
        return theta.copy(), value, fit
    return x, f, xfit


def _profile_min(mp: _MomentProblem, solve, stages):
    """Minimize the profile of ``solve`` over theta: the grid minimum, then
    ``refine_min`` from it on the envelope gradient.

    ``solve(mp, thetas)`` returns the ProjectionStack of a stack of theta
    values.  ``stages`` holds (points, steps) pairs: grid points (G, K),
    solved in stacks of at most _BLOCK nodes, and the refinement's first
    step per coordinate from a start among them.  The start is, among the
    finite nodes of every stage within LIKELIHOOD_TIE of the grid minimum,
    the lexicographically smallest.  The grid is the global start because
    the profile is +inf off the hull; the refinement stays in the first
    domain box that holds the start.  Returns (theta, value, fit, trace):
    fit the (ProjectionStack, node) pair that solved the returned theta,
    which no second solve repeats; the trace a (theta, value, failure)
    record per evaluation, grid nodes first and in order.  Raises
    AllThetaInfeasible when no grid value is finite.
    """
    trace: list = []
    solved = []  # (ProjectionStack, steps) per block of grid nodes
    for pts, steps in stages:
        for lo in range(0, len(pts), _BLOCK):
            ths = pts[lo : lo + _BLOCK]
            sol = solve(mp, ths)
            trace.extend(zip(ths.tolist(), sol.value.tolist(), sol.failure))
            solved.append((sol, steps))
    values = np.concatenate([np.empty(0)] + [sol.value for sol, _ in solved])
    finite = np.flatnonzero(np.isfinite(values))
    if not finite.size:
        raise AllThetaInfeasible("profile objective infinite on the whole grid")
    thetas = np.concatenate([pts for pts, _ in stages])
    near = finite[values[finite] <= values[finite].min() + LIKELIHOOD_TIE]
    pick = near[np.lexsort(thetas[near].T[::-1])[0]]
    starts = np.cumsum([0] + [sol.value.size for sol, _ in solved])
    block = int(np.searchsorted(starts, pick, side="right")) - 1
    sol, steps = solved[block]
    theta = thetas[pick]
    box = next(
        b for b in mp.model.domain.boxes
        if all(lo <= t <= hi for t, (lo, hi) in zip(theta, b))
    )

    def one(th: np.ndarray):
        sol = solve(mp, th[None])
        trace.append((th.tolist(), float(sol.value[0]), sol.failure[0]))
        if sol.failure[0] is not None:
            return math.inf, None
        return float(sol.value[0]), (sol, 0)

    def grad(th: np.ndarray, fit) -> np.ndarray:
        return mp.gradient(th, *fit)

    fit = (sol, int(pick - starts[block]))
    return (*refine_min(one, grad, theta, float(values[pick]), fit, box, steps), trace)


def profile_l_projection(
    r: Pmf, model: EstimatingModel, theta_grid
) -> ProfileResult:
    """Minimize the projection value over a grid of parameter points by
    ``_profile_min``, reporting every grid minimizer (``near_min``).  ``result``
    is the search's solve at theta_star, with the grid block's iterations
    when the refinement keeps the grid node."""
    grid = np.array([np.atleast_1d(np.asarray(t, dtype=float)) for t in theta_grid])
    steps = [(a[-1] - a[0]) / (a.size - 1) if a.size > 1 else 1.0 for a in map(np.unique, grid.T)]
    solve = functools.partial(_MomentProblem.dual, gamma=-1.0)
    theta, _, fit, trace = _profile_min(_l_problem(r, model), solve, [(grid, steps)])
    vals = [v for _, v, _ in trace[: len(grid)]]
    return ProfileResult(
        theta_star=theta,
        result=_projection_result(r, model, theta, *fit),
        minimizers=tuple(grid[i] for i in near_min(vals, PROJECTION_TIE)),
        values=tuple(vals),
    )
