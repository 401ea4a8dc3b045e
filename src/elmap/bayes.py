"""Exact finite-grid Bayesian posterior machinery.

The prior lives on a finite set of candidate distributions sharing one
support, so the posterior after any sample is computable in closed form
with log-sum-exp, with no Monte Carlo error in the posterior itself.  The
experiments then check two asymptotic statements on simulated data paths:
the posterior mass of a candidate subset decays exponentially at the rate
given by the gap of minimal L(. || r) values, and the posterior
concentrates on total-variation neighborhoods of the candidates minimizing
L(. || r) even when r is not on the grid.

The data enter only through per-atom counts over the shared support: the
log posterior is log_prior + counts @ log W.T, one row of W per candidate.
Counts add exactly, so updating with one sample and then another gives
bit-identical results to one update with both, in any observation order.
``log_posterior`` normalizes it and the censored and urn posteriors alike.

Every decay experiment (``decay_curve`` here, the censored and the urn one
in their modules) takes all its seeds in one call and returns a tuple with
one ``DecayReport`` per seed; the target, the schedule and the log-mass
table are built once per call and shared by every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroLikelihood,
    AsymmetricConfig,
    DomainViolation,
    InfiniteRate,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
    SupportMismatch,
)
from .prob import (
    LIKELIHOOD_TIE,
    NORM_TOL,
    PROJECTION_TIE,
    Pmf,
    Sample,
    _whole,
    _whole_int,
    atom_index,
    counts_loglik,
    logsumexp,
    make_pmf,
    mean_model,
    near_min,
    normalize_rows,
    path_counts,
)
from .projection import l_project_stack, node_error
from .rng import rng_from


@dataclass(frozen=True)
class PriorGrid:
    """Finite candidate set with strictly positive prior weights.

    The candidates are the rows of one read-only (K, m) weight matrix on
    the shared support; the matrix's elementwise log is built once, here,
    and is the log-mass table of every posterior on that support.
    """

    support: np.ndarray
    weights: np.ndarray
    log_prior: np.ndarray
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sup = np.array(self.support, dtype=float)
        w = np.array(self.weights, dtype=float, order="C")
        if w.ndim != 2 or w.shape[0] == 0:
            raise LengthMismatch(f"weights of shape {w.shape}: need a nonempty (K, m) matrix")
        if sup.ndim != 1 or w.shape[1:] != sup.shape:
            raise LengthMismatch(f"support of shape {sup.shape}, weights {w.shape}")
        if not (np.isfinite(sup).all() and np.isfinite(w).all()):
            raise DomainViolation("support points and candidate weights must be finite")
        if not (sup[1:] > sup[:-1]).all():
            raise DomainViolation("support points must be unique and increasing")
        if (w < 0.0).any():
            raise NegativeWeight(f"negative candidate weight {w.min()!r}")
        if (abs(w.sum(axis=1) - 1.0) > NORM_TOL).any():
            raise NotNormalized("every candidate's weights must sum to 1")
        lp = np.asarray(self.log_prior, dtype=float)
        if lp.shape != (w.shape[0],):
            raise LengthMismatch(f"log prior of shape {lp.shape} for {w.shape[0]} candidates")
        if not np.isfinite(lp).all():
            raise DomainViolation("prior must be strictly positive on the grid")
        lp = lp - logsumexp(lp)
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        for arr in (sup, w, lp, log_w):
            arr.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "log_prior", lp)
        object.__setattr__(self, "log_weights", log_w)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    def log_masses(self, values) -> np.ndarray:
        """The (K, len(values)) log-mass table at the given values: columns
        of the stored log matrix, -inf at a value that is not an atom."""
        idx, hit = atom_index(self.support, values)
        # take keeps C order (w[:, idx] would not), so products with this
        # table round as products with the stored matrix do
        return np.where(hit, self.log_weights.take(idx, axis=1), -np.inf)


def make_prior_grid(candidates, weights=None) -> PriorGrid:
    """Grid of the given Pmfs, which must share one support, with prior
    weights proportional to ``weights`` (uniform if None)."""
    cands = tuple(candidates)
    if not cands:
        raise LengthMismatch("empty candidate grid")
    sup = cands[0].support
    if any(not np.array_equal(c.support, sup) for c in cands[1:]):
        raise SupportMismatch("candidates must share one support")
    if weights is None:
        lp = np.zeros(len(cands))
    else:
        w = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(w) & (w > 0)):
            raise DomainViolation("prior weights must be finite and strictly positive")
        lp = np.log(w)
    return PriorGrid(sup, np.stack([c.weights for c in cands]), lp)


@dataclass(frozen=True)
class PosteriorState:
    """Posterior over the grid given the per-atom counts of the data so far."""

    log_posterior: np.ndarray
    cum_loglik: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class DecayReport:
    """Empirical versus theoretical posterior decay along one data path."""

    checkpoints: tuple
    empirical_rate: tuple
    theoretical_rate: float
    projections: tuple
    seed: int


def log_posterior(log_prior, loglik: np.ndarray) -> np.ndarray:
    """log_prior + loglik normalized by log-sum-exp; AllZeroLikelihood when
    every candidate gives the data probability 0."""
    tot = log_prior + loglik
    norm = logsumexp(tot)
    if not math.isfinite(norm):
        raise AllZeroLikelihood("every candidate assigns zero probability to the data")
    return tot - norm


def _posterior(prior: PriorGrid, counts: np.ndarray) -> PosteriorState:
    cum = counts_loglik(prior.log_weights, counts)
    return PosteriorState(log_posterior(prior.log_prior, cum), cum_loglik=cum, counts=counts)


def posterior_update(
    prior: PriorGrid, sample: Sample, state: PosteriorState | None = None
) -> PosteriorState:
    """Absorb a sample into the (possibly already updated) posterior."""
    idx, hit = atom_index(prior.support, sample.values())
    if not hit.all():  # mass 0 under every candidate
        raise AllZeroLikelihood("every candidate assigns zero probability to the data")
    counts = np.bincount(idx, minlength=prior.support.size)
    if state is not None:
        counts = counts + state.counts
    return _posterior(prior, counts)


def map_candidate(state: PosteriorState) -> list:
    """Indices of all posterior modes (within LIKELIHOOD_TIE of the maximum)."""
    return near_min(-state.log_posterior, LIKELIHOOD_TIE)


def posterior_mean(state: PosteriorState, prior: PriorGrid) -> Pmf:
    """Posterior-weighted mixture of the candidates."""
    wts = np.exp(state.log_posterior)
    mix = wts @ prior.weights
    return make_pmf(prior.support, mix)


def grid_l_projections(prior: PriorGrid, r: Pmf) -> tuple[np.ndarray, list]:
    """L(. || r) per candidate and the indices attaining the grid minimum:
    the posterior's log-likelihood kernel with r's weights as the counts."""
    vals = -counts_loglik(prior.log_masses(r.support), r.weights)
    if math.isinf(vals.min()):
        raise InfiniteRate("no candidate dominates the support of r")
    return vals, near_min(vals, PROJECTION_TIE)


def q_mask(q_set, k: int) -> np.ndarray:
    """Boolean mask of the candidate subset Q given by its indices."""
    q_idx = _whole(list(q_set), "Q").tolist()
    if not q_idx or min(q_idx) < 0 or max(q_idx) >= k:
        raise DomainViolation(
            f"Q = {q_idx} must be a nonempty set of candidate indices in 0..{k - 1}"
        )
    mask = np.zeros(k, dtype=bool)
    mask[q_idx] = True
    return mask


def decay_target(vals, q_set) -> tuple[np.ndarray, float, tuple]:
    """From one divergence value per candidate: the mask of Q, the
    theoretical decay rate min_Q - min_grid, and the grid minimizers."""
    vals = np.asarray(vals, dtype=float)
    mask = q_mask(q_set, vals.size)
    vmin = float(vals.min())
    if math.isinf(vmin):
        raise InfiniteRate("the divergence is infinite for every candidate")
    min_q = float(vals[mask].min())
    if math.isinf(min_q):
        raise InfiniteRate("the divergence of Q is infinite: Q-support deficiency")
    return mask, min_q - vmin, tuple(near_min(vals, PROJECTION_TIE))


def checkpoints(n_schedule) -> list:
    """Sorted int sample sizes; DomainViolation if empty, or if any n is not
    a whole number or is below 1."""
    schedule = sorted(_whole(list(n_schedule), "n_schedule").tolist())
    if not schedule or schedule[0] < 1:
        raise DomainViolation(f"n_schedule {schedule} must be nonempty with every n >= 1")
    return schedule


def _checkpoint_log_mass(log_prior, loglik: np.ndarray, mask: np.ndarray, schedule) -> np.ndarray:
    """Log posterior mass of the masked candidates at each checkpoint, from
    the (checkpoints, K) log-likelihood matrix; the decay rate is minus
    this over n."""
    tot = log_prior + loglik
    norm = logsumexp(tot, axis=1)
    if not np.isfinite(norm).all():
        n = schedule[int(np.argmin(np.isfinite(norm)))]
        raise AllZeroLikelihood(f"posterior vanished at n={n}")
    return logsumexp(tot[:, mask], axis=1) - norm


def decay_report(log_prior, loglik, target: tuple, schedule, seed: int) -> DecayReport:
    """Empirical decay rates -(1/n) log posterior-mass(Q) of one path, from
    its (checkpoints, K) log-likelihood matrix and the decay_target of Q."""
    mask, theoretical, projections = target
    log_mass = _checkpoint_log_mass(log_prior, loglik, mask, schedule)
    return DecayReport(
        checkpoints=tuple(schedule),
        empirical_rate=tuple(float(v) for v in -log_mass / schedule),
        theoretical_rate=theoretical,
        projections=projections,
        seed=int(seed),
    )


def decay_curve(prior: PriorGrid, q_set, r: Pmf, n_schedule, seeds) -> tuple:
    """Empirical decay -(1/n) log posterior-mass(Q) along one simulated
    path per seed, against the theoretical value min_Q L - min_grid L;
    returns one DecayReport per seed."""
    target = decay_target(grid_l_projections(prior, r)[0], q_set)
    schedule = checkpoints(n_schedule)
    table = prior.log_masses(r.support)
    reports = []
    for seed in (int(s) for s in seeds):
        counts = path_counts(rng_from("bayes.decay", seed), r.weights, schedule)
        loglik = counts_loglik(table, counts)
        reports.append(decay_report(prior.log_prior, loglik, target, schedule, seed))
    return tuple(reports)


@dataclass(frozen=True)
class BllnReport:
    """Posterior mass of the union of TV balls around the grid projections."""

    checkpoints: tuple
    seeds: tuple
    epsilon: float
    projections: tuple
    ball_indices: tuple
    masses: np.ndarray  # (len(seeds), len(checkpoints))
    medians: tuple

    @property
    def median_monotone(self) -> bool:
        med = np.asarray(self.medians)
        return bool(np.all(np.diff(med) >= -1e-9))


def _tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total variation distance between weight rows on one support, over
    the last axis; tv_distance's arithmetic, so the values agree bit for bit."""
    return 0.5 * np.abs(a - b).sum(axis=-1)


def _tv_ball(prior: PriorGrid, centers, epsilon: float) -> np.ndarray:
    """Mask of the candidates within TV distance epsilon of a center."""
    w = prior.weights
    return (_tv(w[:, None], w[list(centers)]) <= epsilon).any(axis=1)


def blln_check(
    prior: PriorGrid, r: Pmf, epsilon: float, n_schedule, seeds
) -> BllnReport:
    """Posterior mass of the union of TV epsilon-balls centered at the grid
    minimizers of L(. || r), per checkpoint and seed."""
    if not epsilon > 0:
        raise DomainViolation(f"epsilon = {epsilon} must be positive")
    _, projections = grid_l_projections(prior, r)
    mask = _tv_ball(prior, projections, epsilon)
    schedule = checkpoints(n_schedule)
    seeds = tuple(int(s) for s in seeds)
    masses = np.empty((len(seeds), len(schedule)))
    table = prior.log_masses(r.support)
    for i, seed in enumerate(seeds):
        loglik = counts_loglik(table, path_counts(rng_from("bayes.blln", seed), r.weights, schedule))
        masses[i] = np.exp(_checkpoint_log_mass(prior.log_prior, loglik, mask, schedule))
    medians = tuple(float(v) for v in np.median(masses, axis=0))
    return BllnReport(
        checkpoints=tuple(schedule),
        seeds=seeds,
        epsilon=float(epsilon),
        projections=tuple(projections),
        ball_indices=tuple(int(i) for i in np.flatnonzero(mask)),
        masses=masses,
        medians=medians,
    )


# -- two-sided parameter-split experiment ---------------------------------------


@dataclass(frozen=True)
class Example21Report:
    """Per-seed posterior diagnostics for the split mean-parameter family.

    The candidate grid splits into a low-mean and a high-mean component
    whose minimal L values agree by construction; the posterior then puts
    all its mass on the two TV balls around the component minimizers.  On
    a single path it mostly collapses onto one of them, so that path's
    posterior mean has a mean near theta1 or theta2.  Only the across-path
    average ``mean_of_means`` keeps a mean near E[X], which no candidate
    has.
    """

    theta1: float
    theta2: float
    epsilon: float
    proj_low: int
    proj_high: int
    projection_tv: float
    n: int
    seeds: tuple
    mass_low: np.ndarray
    mass_high: np.ndarray
    tv_mean_low: np.ndarray
    tv_mean_high: np.ndarray
    map_in_union: np.ndarray
    mean_of_means: Pmf

    @property
    def mass_sum(self) -> np.ndarray:
        return self.mass_low + self.mass_high


def split_mean_prior(
    r: Pmf,
    theta1: float,
    theta2: float,
    per_side: int = 8,
    spread: float = 0.4,
) -> PriorGrid:
    """Candidate grid for the split mean family: L-projections of r onto
    mean-theta families for theta in [theta1 - spread, theta1] and in
    [theta2, theta2 + spread].

    Whether the two component minima actually tie is the caller's concern:
    with r symmetric about (theta1 + theta2) / 2 they agree to rounding,
    and :func:`example21` rejects configurations where they differ by more
    than 1e-6.  ``per_side`` must be a whole number of at least 1.
    """
    per_side = _whole_int(per_side, "per_side")
    if per_side < 1:
        raise DomainViolation(f"per_side = {per_side}: need at least one candidate per side")
    low = np.linspace(theta1 - spread, theta1, per_side)
    thetas = np.concatenate([low, np.linspace(theta2, theta2 + spread, per_side)])
    proj = l_project_stack(r, mean_model(), thetas[:, None])
    failed = np.flatnonzero(np.isinf(proj.value))  # the nodes with a failure class
    if failed.size:
        raise node_error(proj.failure[failed[0]], thetas[failed[0]])
    return PriorGrid(*normalize_rows(r.support, proj.weights), np.zeros(thetas.size))


def split_projections(prior: PriorGrid, r: Pmf, theta1: float, theta2: float) -> tuple:
    """Indices of the L-projections of r onto the low-mean (<= theta1) and
    the high-mean (>= theta2) candidates.  Raises AsymmetricConfig when the
    two component minima differ by more than 1e-6."""
    means = prior.weights @ prior.support
    low = means <= theta1 + 1e-9
    high = means >= theta2 - 1e-9
    if np.any(~(low | high)):
        raise DomainViolation(
            f"a candidate's mean lies inside the excluded band ({theta1}, {theta2})"
        )
    vals, _ = grid_l_projections(prior, r)
    v_low = float(vals[low].min())
    v_high = float(vals[high].min())
    if abs(v_low - v_high) > 1e-6:
        raise AsymmetricConfig(
            f"asymmetric split: component minima {v_low!r} vs {v_high!r}"
        )
    return (int(np.flatnonzero(low)[np.argmin(vals[low])]),
            int(np.flatnonzero(high)[np.argmin(vals[high])]))


def example21(
    theta1: float,
    theta2: float,
    r: Pmf,
    prior: PriorGrid,
    n: int,
    seeds,
    epsilon: float = 0.05,
) -> Example21Report:
    """Run the split-family experiment: posterior mass of the two balls,
    distance of the posterior mean from either component projection, and
    MAP membership.  Raises AsymmetricConfig when the two component minima
    differ by more than 1e-6, and DomainViolation when n < 1."""
    schedule = checkpoints([n])
    if not np.array_equal(r.support, prior.support):
        raise SupportMismatch("r and the candidates must share one support")
    proj_low, proj_high = split_projections(prior, r, theta1, theta2)
    w = prior.weights
    d12 = _tv(w[proj_low], w[proj_high])
    ball_low = _tv_ball(prior, [proj_low], epsilon)
    ball_high = _tv_ball(prior, [proj_high], epsilon)
    union = ball_low | ball_high

    seeds = tuple(int(s) for s in seeds)
    mass_low = np.empty(len(seeds))
    mass_high = np.empty(len(seeds))
    tv_lo = np.empty(len(seeds))
    tv_hi = np.empty(len(seeds))
    map_in = np.zeros(len(seeds), dtype=bool)
    mean_stack = np.zeros(r.m)
    for i, seed in enumerate(seeds):
        counts = path_counts(rng_from("bayes.example21", seed), r.weights, schedule)
        state = _posterior(prior, counts[-1])
        post = np.exp(state.log_posterior)
        mass_low[i] = float(post[ball_low].sum())
        mass_high[i] = float(post[ball_high].sum())
        pm = posterior_mean(state, prior).weights
        tv_lo[i] = _tv(pm, w[proj_low])
        tv_hi[i] = _tv(pm, w[proj_high])
        map_in[i] = union[map_candidate(state)].all()
        mean_stack += pm
    return Example21Report(
        theta1=float(theta1),
        theta2=float(theta2),
        epsilon=float(epsilon),
        proj_low=proj_low,
        proj_high=proj_high,
        projection_tv=float(d12),
        n=int(n),
        seeds=seeds,
        mass_low=mass_low,
        mass_high=mass_high,
        tv_mean_low=tv_lo,
        tv_mean_high=tv_hi,
        map_in_union=map_in,
        mean_of_means=make_pmf(r.support, mean_stack / len(seeds)),
    )
