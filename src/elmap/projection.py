"""Projections of a base distribution onto linear families.

The main route is convex duality: the minimizer of L(q || r) over
{q : sum q_i u(x_i; theta) = 0} has the closed form q_i = r_i / (1 - lam.u_i)
with the multiplier lam maximizing the concave dual

    g(lam) = sum_i r_i log(1 - lam . u(x_i; theta))

over the open region where every factor stays positive.  A damped Newton
iteration solves the dual.  A second damped Newton kernel (``cr_dual``)
solves the dual of the Cressie-Read projections, exponential tilting
included, over the multipliers of both the normalization and the moment
constraints.  An independent primal oracle (entropic mirror descent with an
augmented Lagrangian, plus a local equality-constrained Newton polish)
shares no code with either dual; it cross-checks them and also handles the
Euclidean and reinforced-urn discrepancies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .divergences import DivergenceSpec, entropy
from .errors import (
    AllInfeasible,
    GammaSingular,
    Infeasible,
    InfeasibleMoment,
    NotConverged,
    SupportCondition,
    ThetaOutOfDomain,
)
from .prob import EstimatingModel, Pmf, make_pmf
from .rng import rng_from

GRAD_TOL = 1e-10
MAX_ITER = 200
_BOUNDARY_T = 1e-9
# Relative resolution of an objective value (cr_dual's dual, refine_min's
# profile), and cr_dual's curvature (per unit of base mass) given to atoms
# clipped at zero weight.
_RESOLUTION = 4.0 * np.finfo(float).eps
_CLIP_CURVATURE = 1e-9
# refine_min: steps stop below REFINE_TOL; Armijo's sufficient-decrease
# constant; caps on quasi-Newton steps and on backtracks per step.
REFINE_TOL = 1e-9
_ARMIJO = 1e-4
_REFINE_STEPS = 100
_BACKTRACKS = 60


@dataclass(frozen=True)
class LambdaFamilyMember:
    """A member q_i = base_i / (1 - lam . u(x_i; theta)) of the tilted
    family generated by a base distribution and estimating functions."""

    base: Pmf
    lam: np.ndarray
    theta: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "theta", np.atleast_1d(np.asarray(self.theta, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


@dataclass(frozen=True)
class ProjectionResult:
    qhat: Pmf
    lam: np.ndarray
    value: float
    converged: bool
    iterations: int
    grad_norm: float


def moment_feasibility(umat: np.ndarray, tol: float = _BOUNDARY_T) -> tuple[str, float]:
    """Classify whether 0 lies in the convex hull of the rows of umat.

    Returns ("interior", t), ("boundary", t) or ("infeasible", 0): t is the
    largest minimum weight of a hull representation of 0, so t > 0 means a
    strictly positive representation exists.
    """
    m, j = umat.shape
    if j == 0:
        return "interior", 1.0 / m
    if j == 1:
        col = umat[:, 0]
        lo, hi = float(col.min()), float(col.max())
        if lo < 0.0 < hi or (lo == 0.0 == hi):
            return "interior", 1.0 / m
        if lo == 0.0 or hi == 0.0:
            return "boundary", 0.0
        return "infeasible", 0.0
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
        return "infeasible", 0.0
    if not res.success:
        raise NotConverged(f"feasibility LP failed: {res.message}")
    t = float(res.x[-1])
    if t <= tol:
        return "boundary", t
    return "interior", t


def _log_ext(z: np.ndarray, tau: float) -> np.ndarray:
    """log with a quadratic extension below tau, used only while line
    searching so that near-boundary trial points evaluate smoothly."""
    out = np.empty_like(z)
    hi = z >= tau
    out[hi] = np.log(z[hi])
    d = z[~hi] - tau
    out[~hi] = math.log(tau) + d / tau - d * d / (2.0 * tau * tau)
    return out


def dual_newton(
    w: np.ndarray,
    umat: np.ndarray,
    grad_tol: float = GRAD_TOL,
    max_iter: int = MAX_ITER,
) -> tuple[np.ndarray, float, int, float]:
    """Maximize g(lam) = sum w_i log(1 - lam.u_i) by damped Newton.

    Returns (lam, g(lam), iterations, grad_norm).  Raises NotConverged when
    the gradient norm cannot be brought below grad_tol; callers are expected
    to have screened infeasible moment problems already.
    """
    m, j = umat.shape
    if j == 0:
        return np.zeros(0), 0.0, 0, 0.0
    tau = 1.0 / (10.0 * m)
    lam = np.zeros(j)
    s = np.ones(m)
    gval = 0.0
    gnorm = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = -(umat.T @ (w / s))
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-14:
            break
        curv = umat.T @ (umat * (w / s**2)[:, None])
        try:
            step = np.linalg.solve(curv, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(curv, grad, rcond=None)[0]
        du = umat @ step
        pos = du > 0
        alpha = 1.0
        if np.any(pos):
            alpha = min(1.0, 0.99 * float(np.min(s[pos] / du[pos])))
        slope = float(grad @ step)
        accepted = False
        for _ in range(70):
            trial = s - alpha * du
            val = float(w @ _log_ext(trial, tau))
            if val >= gval + 1e-4 * alpha * slope and np.all(trial > 0.0):
                lam = lam + alpha * step
                s = trial
                gval = float(w @ np.log(s))
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    grad = -(umat.T @ (w / s))
    gnorm = float(np.linalg.norm(grad))
    if gnorm > grad_tol:
        raise NotConverged(
            f"dual gradient norm {gnorm:.3e} > {grad_tol:.0e} after {it} iterations"
        )
    return lam, float(w @ np.log(s)), it, gnorm


def cr_dual(
    p: np.ndarray, umat: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Cressie-Read projection of p onto {q : sum q = 1, sum q u = 0}.

    Damped Newton over the multipliers (eta, lam) of the two constraints
    minimizes the convex dual

        D(eta, lam) = sum_i p_i z_i^((gamma+1)/gamma) / (gamma+1) - eta,
        z_i = 1 + gamma (eta + lam . u_i),

    whose gradient is (sum q - 1, sum q u) at q_i = p_i z_i^(1/gamma).  For
    gamma > 0, z is clipped at 0, which is exactly the simplex-constrained
    primal, so atoms may get zero weight; for gamma < 0, D is +inf unless
    every z_i > 0 and q stays strictly positive.  gamma = 0 is the
    exponential-tilting limit z_i = eta + lam . u_i, q_i = p_i exp(z_i).

    Returns (lam, q, CR_gamma(q, p), iterations), with KL(q || p) as the
    value at gamma = 0.  The caller checks that the zero moment is
    attainable: inside the hull of the u rows for gamma <= 0, in it for
    gamma > 0.  Raises NotConverged when the gradient, taken with each u
    column scaled to unit maximum, stays above 1e-8.
    """
    if abs(gamma + 1.0) < 1e-12:
        raise GammaSingular("gamma = -1 is the empirical-likelihood dual (dual_newton)")
    m, j = umat.shape
    # Unit-scaled constraint columns keep eta and lam on one footing.
    scale = np.abs(umat).max(axis=0, initial=0.0)
    scale[scale == 0.0] = 1.0
    amat = np.hstack([np.ones((m, 1)), umat / scale])

    def evaluate(x):
        """D(x), q and the per-atom curvature dq/d eta."""
        v = amat @ x
        if gamma == 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                q = p * np.exp(v)
            return float(q.sum()) - x[0], q, q
        z = 1.0 + gamma * v
        if gamma < 0.0:
            if np.any(z <= 0.0):
                return math.inf, None, None
            q = p * z ** (1.0 / gamma)
            return float(q @ z) / (gamma + 1.0) - x[0], q, q / z
        live = z > 0.0
        q = p * np.maximum(z, 0.0) ** (1.0 / gamma)
        # A clipped atom has no curvature; the floor keeps the Newton system
        # regular when too few atoms are live to span the constraints, so
        # the step can bring clipped atoms back.
        h = np.where(live, q / np.where(live, z, 1.0), _CLIP_CURVATURE * p)
        return float(q @ z) / (gamma + 1.0) - x[0], q, h

    def gradient(q):
        g = amat.T @ q
        g[0] -= 1.0
        return g

    x = np.zeros(j + 1)
    d, q, h = evaluate(x)
    grad = gradient(q)
    gnorm = float(np.linalg.norm(grad))
    it = 0
    for it in range(1, MAX_ITER + 1):
        if gnorm == 0.0:
            break
        step = np.linalg.lstsq((amat * h[:, None]).T @ amat, grad, rcond=None)[0]
        decrement = float(grad @ step)
        if decrement <= _RESOLUTION * max(1.0, abs(d)):
            # Armijo cannot see a decrease this small: take full steps while
            # they still shrink the gradient, then stop.
            xt = x - step
            dt, qt, ht = evaluate(xt)
            if not math.isfinite(dt):
                break
            gt = gradient(qt)
            gtnorm = float(np.linalg.norm(gt))
            if gtnorm >= gnorm:
                break
            x, d, q, h, grad, gnorm = xt, dt, qt, ht, gt, gtnorm
            continue
        alpha = 1.0
        for _ in range(60):
            xt = x - alpha * step
            dt, qt, ht = evaluate(xt)
            if dt <= d - 1e-4 * alpha * decrement:
                x, d, q, h = xt, dt, qt, ht
                grad = gradient(q)
                gnorm = float(np.linalg.norm(grad))
                break
            alpha *= 0.5
        else:
            break
    if gnorm > 1e-8:
        raise NotConverged(f"Cressie-Read dual gradient {gnorm:.2e} after {it} iterations")
    q = q / q.sum()
    pos = q > 0.0
    ratio = q[pos] / p[pos]
    if gamma == 0.0:
        value = float(q[pos] @ np.log(ratio))
    else:
        value = float(q[pos] @ (ratio**gamma - 1.0)) / (gamma * (gamma + 1.0))
    return x[1:] / scale, q, value, it


def solve_lambda(
    r: Pmf, model: EstimatingModel, theta
) -> tuple[np.ndarray, float, bool]:
    """Multiplier, projection value and convergence flag of the dual."""
    res = l_project_linear(r, model, theta, _boundary_as_infeasible=True)
    return res.lam, res.value, res.converged


def lambda_family_member(
    base: Pmf, model: EstimatingModel, theta, lam
) -> LambdaFamilyMember:
    """Evaluate the tilted-family weights base_i / (1 - lam.u(x_i; theta))."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    lam = np.asarray(lam, dtype=float)
    umat = model.u_matrix(base.support, th)
    s = 1.0 - umat @ lam
    if np.any((base.weights > 0.0) & (s <= 0.0)):
        raise InfeasibleMoment("1 - lam.u must stay positive on the base support")
    w = np.where(base.weights > 0.0, base.weights / np.where(s > 0, s, 1.0), 0.0)
    return LambdaFamilyMember(base=base, lam=lam, theta=th, weights=w)


def _l_dual(
    r: Pmf, model: EstimatingModel, th: np.ndarray, boundary_as_infeasible: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, float]:
    """Dual of the L-projection of r at theta: the active atoms, u on them,
    and dual_newton's (lam, g(lam), iterations, grad_norm)."""
    if not model.domain.contains(th):
        raise ThetaOutOfDomain(f"theta {th} outside the parameter domain")
    active = r.weights > 0.0
    umat = model.u_matrix(r.support, th)[active]
    status, _ = moment_feasibility(umat)
    if status == "infeasible":
        raise InfeasibleMoment(f"zero moment unattainable at theta={th}")
    if status == "boundary":
        if boundary_as_infeasible:
            raise InfeasibleMoment(
                f"moment condition only attainable with zero weights at theta={th}"
            )
        raise SupportCondition(
            f"family support at theta={th} is smaller than the support of the base"
        )
    return (active, umat) + dual_newton(r.weights[active], umat)


def l_project_linear(
    r: Pmf,
    model: EstimatingModel,
    theta,
    _boundary_as_infeasible: bool = False,
) -> ProjectionResult:
    """Project r onto the linear family at theta under L(. || r)."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    active, umat, lam, gval, iters, gnorm = _l_dual(r, model, th, _boundary_as_infeasible)
    q = np.zeros(r.m)
    q[active] = r.weights[active] / (1.0 - umat @ lam)
    value = entropy(r) + gval
    return ProjectionResult(
        qhat=make_pmf(r.support, q),
        lam=lam,
        value=value,
        converged=gnorm <= GRAD_TOL,
        iterations=iters,
        grad_norm=gnorm,
    )


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
        raise ThetaOutOfDomain(f"theta {th} outside the parameter domain")
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
        raise Infeasible(f"no distribution on the atoms satisfies the moments at theta={th}")

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
    fun, theta: np.ndarray, value: float, grad: np.ndarray, box, step
) -> tuple[np.ndarray, float]:
    """Projected quasi-Newton descent from a grid node.

    ``fun(theta)`` returns (value, gradient thunk), with value +inf where
    the profile is undefined.  BFGS runs on the coordinates that the
    gradient does not hold at a bound of ``box`` (for one coordinate it is
    the secant method).  The first step moves at most ``step`` along each
    coordinate.  Each step is clipped to the box and backtracked until the
    Armijo condition holds, rejecting +inf trials; the backtracking follows
    the zero of the directional derivative along the step.  Once the
    predicted decrease is below the resolution of the profile value, a
    trial is accepted while it shrinks the projected gradient instead.
    Stops when a step would move less than REFINE_TOL or the projected
    gradient vanishes.  Returns (theta, value), never worse than the start.
    """
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    step = np.asarray(step, dtype=float)
    x, f, g = theta.copy(), value, grad
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
            ft, thunk = fun(t)
            if not math.isfinite(ft):
                alpha *= 0.5
                continue
            gt = thunk()
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
        x, f, g, pg = t, ft, gt, pgt
    if f > value:
        return theta.copy(), value
    return x, f


def profile_l_projection(
    r: Pmf, model: EstimatingModel, theta_grid
) -> ProfileResult:
    """Minimize the projection value over a grid of parameter points, then
    refine from the lexicographically smallest grid minimizer by
    ``refine_min`` on the envelope gradient.  All grid minimizers within
    1e-9 of the minimum are reported (there may be several)."""
    grid = [np.atleast_1d(np.asarray(t, dtype=float)) for t in theta_grid]
    if not grid:
        raise AllInfeasible("empty parameter grid")
    base_entropy = entropy(r)

    def value_at(th: np.ndarray):
        if not model.domain.contains(th):
            return math.inf, None
        try:
            active, umat, lam, gval, _, _ = _l_dual(r, model, th, False)
        except (InfeasibleMoment, SupportCondition, NotConverged):
            return math.inf, None

        def gradient() -> np.ndarray:
            q = r.weights[active] / (1.0 - umat @ lam)
            return envelope_gradient(q, -lam, model.du_matrix(r.support[active], th))

        return base_entropy + gval, gradient

    evals = [value_at(th) for th in grid]
    vals = np.array([v for v, _ in evals])
    if not np.any(np.isfinite(vals)):
        raise AllInfeasible("projection infeasible on the whole grid")
    vmin = float(np.min(vals))
    near = [i for i in range(len(grid)) if vals[i] <= vmin + 1e-9]
    i0 = min(near, key=lambda i: tuple(grid[i]))
    start = grid[i0]
    box = next(
        b for b in model.domain.boxes if all(lo <= t <= hi for t, (lo, hi) in zip(start, b))
    )
    step = []
    for coord in range(start.size):
        axis = np.unique([g[coord] for g in grid])
        step.append((axis[-1] - axis[0]) / (axis.size - 1) if axis.size > 1 else 1.0)
    theta, _ = refine_min(value_at, start, float(vals[i0]), evals[i0][1](), box, step)
    return ProfileResult(
        theta_star=theta,
        result=l_project_linear(r, model, theta),
        minimizers=tuple(grid[i] for i in near),
        values=tuple(float(v) for v in vals),
    )
