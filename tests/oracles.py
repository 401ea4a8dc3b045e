"""Independent brute-force oracles used to cross-check the solvers.

These deliberately avoid the tilted-family closed form and the Newton
duals: the constrained sets are parametrized directly and searched densely
(or solved with a generic constrained optimizer), so agreement with the
production code is evidence, not tautology.  The finite-grid posterior
oracles work from per-atom counts in closed form and enumerate the
multinomial count law exactly, instead of summing log masses along a
simulated path.  The path oracles do the opposite: one log mass per
observation, summed in observation order, as a reference for the
production code's counts form.  The Polya sequence law's reference is its
product form, one factor per draw, against the library's log-Gamma form.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog, minimize, minimize_scalar
from scipy.special import gammaln

from elmap.censoring import _split
from elmap.errors import DomainViolation, NoEvents, NotConverged
from elmap.polya import UrnConfig
from elmap.prob import Pmf, make_pmf
from elmap.rng import rng_from


def interior_point(umat: np.ndarray) -> np.ndarray | None:
    """A strictly positive simplex point with zero u-moments, or None."""
    m, j = umat.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.zeros((j + 1, m + 1))
    a_eq[0, :m] = 1.0
    if j:
        a_eq[1:, :m] = umat.T
    b_eq = np.zeros(j + 1)
    b_eq[0] = 1.0
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * (m + 1), method="highs")
    if not res.success or res.x[-1] <= 1e-9:
        return None
    return res.x[:m]


def hull_lp_t(umat: np.ndarray) -> float:
    """The largest minimum weight t of a simplex point with zero u-moments,
    by a linear program over (w, t); -inf when there is none.  The J = 2
    oracle for the closed-form hull test of ``moment_feasibility``."""
    m, j = umat.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.zeros((j + 1, m + 1))
    a_eq[0, :m] = 1.0
    a_eq[1:, :m] = umat.T
    b_eq = np.zeros(j + 1)
    b_eq[0] = 1.0
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * (m + 1), method="highs")
    if res.status == 2:
        return -math.inf
    assert res.success, res.message
    return float(res.x[-1])


def el_primal_bruteforce(counts: np.ndarray, umat: np.ndarray) -> float:
    """max sum_x counts_x log q_x over {q in simplex : q @ umat = 0} by
    direct parametrization of the feasible affine set."""
    counts = np.asarray(counts, dtype=float)
    m = counts.size
    amat = np.vstack([np.ones((1, m)), umat.T])
    q0 = interior_point(umat)
    if q0 is None:
        return -math.inf
    zmat = null_space(amat)
    dim = zmat.shape[1]

    def value(q: np.ndarray) -> float:
        if np.any(q <= 0):
            return -math.inf
        return float(counts @ np.log(q))

    if dim == 0:
        return value(q0)
    if dim == 1:
        z = zmat[:, 0]
        t_lo, t_hi = -math.inf, math.inf
        for qi, zi in zip(q0, z):
            if zi > 0:
                t_lo = max(t_lo, -qi / zi)
            elif zi < 0:
                t_hi = min(t_hi, -qi / zi)
        grid = np.linspace(t_lo, t_hi, 4001)[1:-1]
        line = q0 + grid[:, None] * z  # one row per grid point
        inside = (line > 0).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(inside, np.log(line) @ counts, -math.inf)
        best = int(np.argmax(vals))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        res = minimize_scalar(lambda t: -value(q0 + t * z), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-13})
        return -float(res.fun)

    best = -math.inf
    rng = np.random.default_rng(0)
    starts = [q0]
    for _ in range(4):
        w = rng.dirichlet(np.ones(m))
        t = np.linalg.lstsq(zmat, w - q0, rcond=None)[0]
        starts.append(np.clip(q0 + zmat @ t, 1e-9, None))
    for s in starts:
        res = minimize(
            lambda q: -float(counts @ np.log(np.maximum(q, 1e-300))),
            s / s.sum(),
            method="SLSQP",
            bounds=[(1e-12, 1.0)] * m,
            constraints=[
                {"type": "eq", "fun": lambda q: amat @ q - np.concatenate([[1.0], np.zeros(umat.shape[1])])}
            ],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.success:
            best = max(best, float(counts @ np.log(np.maximum(res.x, 1e-300))))
    return best


def bisect_lambda(w: np.ndarray, ucol: np.ndarray, iters: int = 200) -> float:
    """Root of sum_i w_i u_i / (1 - lam u_i) = 0 on the feasible interval,
    by bisection on the strictly decreasing dual derivative."""
    u_min, u_max = float(ucol.min()), float(ucol.max())
    assert u_min < 0.0 < u_max, "needs a sign change for an interior root"
    lo = 1.0 / u_min + 1e-13
    hi = 1.0 / u_max - 1e-13

    def deriv(lam: float) -> float:
        return float(-(w * ucol / (1.0 - lam * ucol)).sum())

    f_lo = deriv(lo)
    f_hi = deriv(hi)
    assert f_lo > 0.0 > f_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_candidates(grid) -> list:
    """One Pmf per row of a prior grid's weight matrix."""
    return [Pmf(grid.support, w) for w in grid.weights]


def fit_pmf(sample, fit) -> Pmf:
    """An inner fit's per-observation weights summed per atom, as the
    validated Pmf on the sample's distinct values."""
    atoms, inverse = np.unique(sample.values(), return_inverse=True)
    return make_pmf(atoms, np.bincount(inverse, weights=fit.w))


def domain_contains(domain, theta):
    """``ParamDomain.contains`` with the box ends rebuilt from ``boxes`` on
    each call: one answer per row of theta (..., K), False for rows with
    NaN or of the wrong length."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape[-1] != domain.k:
        return np.zeros(th.shape[:-1], dtype=bool)
    lo, hi = np.moveaxis(np.array(domain.boxes), -1, 0)
    t = th[..., None, :]
    return np.any(np.all((lo <= t) & (t <= hi), axis=-1), axis=-1)


def polya_log_prob_product(counts, config: UrnConfig) -> float:
    """Log probability of the per-color counts in order, by multiplying the
    per-draw factors directly in O(n): -inf at a zero factor,
    DomainViolation, with ``polya_log_prob``'s texts, at a negative one."""
    cnt = np.asarray(counts, dtype=np.int64)
    if cnt.shape != (config.m,) or np.any(cnt < 0):
        raise DomainViolation("counts must be nonnegative, one per color")
    n = int(cnt.sum())
    c = config.c
    alpha = np.asarray(config.alpha, dtype=float)
    big_n = float(config.n_total)
    if c == 0:
        return float(cnt @ np.log(alpha / big_n))
    total = 0.0
    for a_i, n_i in zip(alpha, cnt):
        if n_i == 0:
            continue
        terms = a_i + c * np.arange(n_i, dtype=float)
        if np.any(terms < 0.0):
            raise DomainViolation("negative factor in the numerator product")
        if np.any(terms == 0.0):
            return -math.inf
        total += float(np.log(terms).sum())
    denom = big_n + c * np.arange(n, dtype=float)
    if np.any(denom <= 0.0):
        raise DomainViolation("urn cannot sustain that many draws")
    return total - float(np.log(denom).sum())


COUNT_WINDOW_SD = 9.0


def multinomial_cells(n: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Count vectors of n multinomial(p) draws within COUNT_WINDOW_SD
    standard deviations of their mean, with their exact probabilities.

    The most probable atom is the dependent coordinate; every other atom
    ranges over its own window, so the omitted mass is below the Gaussian
    tail at that many sd per free atom.  p must be strictly positive.
    Returns (counts (C, m) int, pmf (C,)).
    """
    p = np.asarray(p, dtype=float)
    dep = int(np.argmax(p))
    free = [i for i in range(p.size) if i != dep]
    axes = []
    for i in free:
        sd = math.sqrt(n * p[i] * (1.0 - p[i]))
        lo = max(0, math.ceil(n * p[i] - COUNT_WINDOW_SD * sd))
        hi = min(n, math.floor(n * p[i] + COUNT_WINDOW_SD * sd))
        axes.append(np.arange(lo, hi + 1))
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    rest = n - grid.sum(axis=1)
    keep = rest >= 0
    counts = np.empty((int(keep.sum()), p.size), dtype=np.int64)
    counts[:, free] = grid[keep]
    counts[:, dep] = rest[keep]
    log_fact = gammaln(np.arange(n + 1) + 1.0)
    log_pmf = log_fact[n] - log_fact[counts].sum(axis=1) + counts @ np.log(p)
    return counts, np.exp(log_pmf)


def grid_posterior(log_prior, wmat, counts) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over a finite candidate grid and its posterior-mean mixture
    for each count vector, from log_prior + counts @ log W.T.

    wmat is (K, m) strictly positive candidate masses on the shared
    support, counts is (C, m).  Returns (posterior (C, K), mixture (C, m)).
    """
    wmat = np.asarray(wmat, dtype=float)
    log_post = np.asarray(log_prior, dtype=float) + np.asarray(counts) @ np.log(wmat).T
    post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    return post, post @ wmat


def posterior_mean_law(log_prior, wmat, p, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law of the posterior-mean mixture after n i.i.d. draws from p:
    every count vector of :func:`multinomial_cells` with its probability
    and its mixture.  Returns (counts (C, m), pmf (C,), mixture (C, m));
    the expected posterior mean is ``pmf @ mixture``."""
    counts, pmf = multinomial_cells(n, p)
    mix = np.empty(counts.shape)
    block = 1 << 16  # bounds the (block, K) posterior held at once
    for start in range(0, len(counts), block):
        rows = slice(start, start + block)
        mix[rows] = grid_posterior(log_prior, wmat, counts[rows])[1]
    return counts, pmf, mix


def draw_log_masses(candidates, values, censored=None) -> np.ndarray:
    """Log mass of each observation under each candidate, shape (K, n):
    the atom mass at an event, the mass strictly beyond the time at a
    censoring.  Built from ``Pmf.mass`` and ``Pmf.tail_beyond`` one distinct
    observation at a time."""
    values = np.asarray(values, dtype=float)
    censored = np.zeros(values.size, bool) if censored is None else np.asarray(censored)
    keys = list(zip(values.tolist(), censored.tolist()))
    out = np.empty((len(candidates), values.size))
    for k, cand in enumerate(candidates):
        lookup = {}
        for t, c in set(keys):
            mass = cand.tail_beyond(t) if c else cand.mass(t)
            lookup[(t, c)] = math.log(mass) if mass > 0.0 else -math.inf
        out[k] = [lookup[key] for key in keys]
    return out


def shuffled_path(rng, law, schedule, order) -> np.ndarray:
    """Cell index of each observation of an i.i.d. path from ``law``: the
    counts of one ``rng.multinomial`` per increment between the sorted
    checkpoints, each increment expanded into observations in a uniformly
    random order drawn from ``order`` (the law of a path given its counts)."""
    cells, done = [], 0
    for n in schedule:
        counts = rng.multinomial(n - done, law)
        cells.append(order.permutation(np.repeat(np.arange(len(law)), counts)))
        done = n
    return np.concatenate(cells)


def sequential_log_mass(log_prior, table, member, schedule) -> np.ndarray:
    """Log posterior mass of the member candidates after the first n
    observations, for each n in schedule: the per-observation table summed
    in observation order, then normalized with a max-shifted log-sum-exp."""
    def lse(x):
        top = np.max(x)
        return top + math.log(np.sum(np.exp(x - top)))

    total = np.asarray(log_prior, dtype=float).copy()
    out = []
    done = 0
    for n in sorted(schedule):
        for j in range(done, n):
            total += table[:, j]
        done = n
        out.append(lse(total[member]) - lse(total))
    return np.array(out)


def censored_el_bruteforce(data, support=None) -> Pmf:
    """Direct minimizer of l_n over distributions on the event-time support
    (plus one atom beyond the last censoring when needed): dense simplex
    grid then local refinement.  Intended for small n as an oracle."""
    times, cens = _split(data)
    if not np.any(~cens):
        raise NoEvents("need at least one event")
    if times.size > 8:
        raise ValueError("brute force is for n <= 8")
    if support is None:
        support = np.unique(times[~cens])
    support = np.asarray(support, dtype=float)
    if np.any(cens) and times[cens].max() >= support.max():
        support = np.append(support, times.max() + 1.0)
    k = support.size

    ev_idx = np.searchsorted(support, times[~cens])
    tail_from = np.searchsorted(support, times[cens], side="right")
    ev_counts = np.bincount(ev_idx, minlength=k).astype(float)
    tail_counts = np.bincount(tail_from, minlength=k + 1).astype(float)

    def objective(w: np.ndarray) -> float:
        suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
        with np.errstate(divide="ignore"):
            ev_part = -float(ev_counts @ np.log(np.maximum(w, 1e-300)))
            tails = suffix[tail_from]
            if np.any(tails <= 0):
                return math.inf
            tl_part = -float(np.log(tails).sum())
        return ev_part + tl_part

    def gradient(w: np.ndarray) -> np.ndarray:
        suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
        g = -ev_counts / np.maximum(w, 1e-300)
        inv_tail = np.zeros(k + 1)
        pos = suffix > 0
        inv_tail[pos] = tail_counts[pos] / suffix[pos]
        # atom j sits in every tail starting at index <= j
        g -= np.cumsum(inv_tail[: k])
        return g

    # dense grid over the simplex
    best_w = None
    best_val = math.inf
    steps = {1: 1, 2: 60, 3: 30, 4: 16, 5: 12, 6: 10}.get(k, 8)
    for comp in _compositions(steps, k):
        w = np.asarray(comp, dtype=float) / steps
        val = objective(w)
        if val < best_val:
            best_val = val
            best_w = w
    starts = [np.full(k, 1.0 / k)]
    if best_w is not None:
        starts.insert(0, 0.9 * best_w + 0.1 / k)
    rng = rng_from("censor.bruteforce", 0)
    for _ in range(3):
        starts.append(rng.dirichlet(np.ones(k)))
    best_w = None
    best_val = math.inf
    for w0 in starts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                objective,
                w0,
                jac=gradient,
                method="SLSQP",
                bounds=[(1e-12, 1.0)] * k,
                constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                              "jac": lambda w: np.ones_like(w)}],
                options={"maxiter": 300, "ftol": 1e-14},
            )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_w = np.asarray(res.x)
    if best_w is None:
        raise NotConverged("no refinement start succeeded")
    best_w = np.maximum(best_w, 0.0)
    best_w /= best_w.sum()
    return make_pmf(support, best_w)


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
