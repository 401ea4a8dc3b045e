"""Multicolor reinforced-urn sampling and its posterior decay experiments.

An urn starts with alpha_i balls of color i (N total); each draw of color
i returns the ball plus c extra of the same color (c < 0 removes balls).
The probability of a draw sequence depends only on the color counts:

    log P(counts) = sum_i sum_{j<n_i} log(alpha_i + j c)
                    - sum_{j<n} log(N + j c),

with a single denominator product over all n draws.  ``polya_log_prob``
evaluates it in its log-Gamma form through eta = N / c, O(m) on
``math.lgamma``; the product form, O(n), is the tests' reference, which
the log-Gamma form must match to 1e-9 wherever both are defined, giving
-inf or raising exactly where it does.
The decay experiments rebuild the urn at every checkpoint so that n / N
stays at a fixed ratio beta while the initial composition tracks a target
distribution r; every seed shares one call's urns, and the call returns
one ``bayes.DecayReport`` per seed, as the other decay experiments do.
Since only the counts enter the scores, they draw the counts from their
exact law (``polya_counts``); ``polya_draw``, which runs the urn one ball
at a time, is the sequence-level reference.  The stream changed in
version 0.7.0.  Since version 0.13.0 the scores come from the log-Gamma
form, so a checkpoint's cost does not grow with n for c >= 0.
Posteriors are ``bayes.log_posterior`` under a uniform prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import checkpoints, decay_report, decay_target, log_posterior
from .divergences import polya_l_divergence
from .errors import AllZeroLikelihood, DomainViolation, InfiniteRate, UrnExhausted
from .prob import LIKELIHOOD_TIE, Pmf, _whole, _whole_int, near_min
from .rng import derive_seed, rng_from


@dataclass(frozen=True)
class UrnConfig:
    """Initial composition alpha (positive integers) and reinforcement c (an
    integer); DomainViolation for anything else."""

    alpha: tuple
    c: int

    def __post_init__(self):
        alpha, c = _whole(self.alpha, "alpha"), _whole(self.c, "c")
        if alpha.ndim != 1 or c.ndim != 0:
            raise DomainViolation(f"need flat alpha and integer c: {self.alpha!r}, {self.c!r}")
        if not alpha.size or alpha.min() < 1:
            raise DomainViolation("every initial count must be a positive integer")
        object.__setattr__(self, "alpha", tuple(alpha.tolist()))
        object.__setattr__(self, "c", int(c))

    @property
    def n_total(self) -> int:
        return sum(self.alpha)

    @property
    def m(self) -> int:
        return len(self.alpha)

    def valid_for_horizon(self, n: int) -> bool:
        """Sufficient condition for every length-n count vector to have a
        well-defined sampling probability: -n c <= min(alpha)."""
        if self.c >= 0:
            return True
        return -n * self.c <= min(self.alpha)


@dataclass(frozen=True)
class PolyaPath:
    """A draw sequence (color indices) and its per-color counts."""

    colors: tuple
    counts: tuple

    def __post_init__(self):
        colors, counts = _whole(self.colors, "colors"), _whole(self.counts, "counts")
        if colors.ndim != 1 or counts.ndim != 1:
            raise DomainViolation("colors and counts must be flat sequences")
        colors, counts = tuple(colors.tolist()), tuple(counts.tolist())
        if sum(counts) != len(colors):
            raise DomainViolation("counts must sum to the number of draws")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return len(self.colors)


def polya_draw(config: UrnConfig, n: int, seed: int) -> PolyaPath:
    """Draw n colors sequentially; color i has probability proportional to
    alpha_i + c * (draws of i so far)."""
    n = _whole_int(n, "n")
    if n < 0:
        raise DomainViolation(f"n = {n} draws: must be nonnegative")
    rng = rng_from("polya.draw", seed)
    m = config.m
    weights = [float(a) for a in config.alpha]
    total = float(config.n_total)
    c = float(config.c)
    colors = []
    counts = [0] * m
    for _ in range(n):
        if total <= 0.0 or all(w <= 0.0 for w in weights):
            raise UrnExhausted(f"urn exhausted after {len(colors)} draws")
        pick = rng.random() * total
        acc = 0.0
        chosen = m - 1
        for i in range(m):
            wi = weights[i]
            if wi <= 0.0:
                continue
            acc += wi
            if pick < acc:
                chosen = i
                break
        if weights[chosen] <= 0.0:  # numerical edge: fall back to last live color
            chosen = max(i for i in range(m) if weights[i] > 0.0)
        colors.append(chosen)
        counts[chosen] += 1
        weights[chosen] += c
        total += c
        if weights[chosen] < 0.0:
            raise UrnExhausted(f"color {chosen} went negative")
    return PolyaPath(tuple(colors), tuple(counts))


def polya_counts(config: UrnConfig, n: int, seed: int) -> tuple:
    """Per-color counts after n draws, drawn from their exact law.

    c > 0: a Dirichlet(alpha / c) mixture of multinomials (Blackwell and
    MacQueen, 1973); c = 0: a multinomial.  c < 0: one color at a time,
    whose count against the rest of the urn follows the two-color Polya
    law given the counts already drawn (Johnson and Kotz, 1977).  The cost
    does not grow with n for c >= 0.  Raises DomainViolation when n < 0 and
    UrnExhausted when the horizon check fails.
    """
    n = _whole_int(n, "n")
    if n < 0:
        raise DomainViolation(f"n = {n} draws: must be nonnegative")
    if not config.valid_for_horizon(n):
        raise UrnExhausted(f"urn cannot sustain {n} draws: -n c > min(alpha)")
    rng = rng_from("polya.counts", seed)
    alpha = np.asarray(config.alpha, dtype=float)
    c = config.c
    if c > 0:
        return tuple(int(k) for k in rng.multinomial(n, rng.dirichlet(alpha / c)))
    if c == 0:
        return tuple(int(k) for k in rng.multinomial(n, alpha / config.n_total))
    steps = c * np.arange(n, dtype=float)

    def cum_log(a, left):  # sum_{j<k} log(a + j c), k = 0..left; zero factors give -inf
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(a + steps[:left], 0.0))
        return np.concatenate(([0.0], np.cumsum(logs)))

    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1.0)))))
    counts = []
    rest = float(config.n_total)
    left = n
    for a in alpha[:-1]:
        rest -= a
        lp = (
            log_fact[left] - log_fact[: left + 1] - log_fact[left::-1]
            + cum_log(a, left) + cum_log(rest, left)[::-1]
        )
        cdf = np.cumsum(np.exp(lp - lp.max()))
        pick = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), left)
        counts.append(pick)
        left -= pick
    counts.append(left)
    return tuple(counts)


def polya_log_prob(counts, config: UrnConfig) -> float:
    """Log probability of observing the given per-color counts in order
    (any order: the sequence law is exchangeable).

    The per-draw factor products are evaluated in log-Gamma form through
    eta = N / c with ``math.lgamma``, at most 2m + 2 calls.  Zero factors
    give -inf; negative factors mean the counts are not reachable and
    raise DomainViolation.  For c < 0 each color's last factor and the last
    denominator tell these cases apart in O(m).
    """
    cnt = _whole(counts, "counts")
    if cnt.shape != (config.m,) or np.any(cnt < 0):
        raise DomainViolation("counts must be nonnegative, one per color")
    n = int(cnt.sum())
    c = config.c
    big_n = float(config.n_total)
    if c == 0:
        return float(cnt @ np.log(np.asarray(config.alpha, dtype=float) / big_n))
    ks = cnt.tolist()
    if c < 0:
        # the factors fall by |c| per draw, so each color's last one and the
        # last denominator decide, in integers
        for a_i, k_i in zip(config.alpha, ks):
            last = a_i + c * (k_i - 1)
            if k_i and last < 0:
                raise DomainViolation("negative factor in the numerator product")
            if k_i and last == 0:
                return -math.inf
        if n and config.n_total + c * (n - 1) <= 0:
            raise DomainViolation("urn cannot sustain that many draws")
        # prod_{j<k} (a + j c) = s^k Gamma(a/s + 1) / Gamma(a/s + 1 - k), s = |c|;
        # the s^n cancel
        s = -c
        out = math.lgamma(big_n / s + 1.0 - n) - math.lgamma(big_n / s + 1.0)
        for a_i, k_i in zip(config.alpha, ks):
            if k_i:
                out += math.lgamma(a_i / s + 1.0) - math.lgamma(a_i / s + 1.0 - k_i)
        return out
    # prod_{j<k} (a + j c) = c^k Gamma(a/c + k) / Gamma(a/c); the c^n cancel
    out = math.lgamma(big_n / c) - math.lgamma(big_n / c + n)
    for a_i, k_i in zip(config.alpha, ks):
        if k_i:
            out += math.lgamma(a_i / c + k_i) - math.lgamma(a_i / c)
    return out


def gamma_ratio_bounds(a: float, b: float) -> tuple[float, float]:
    """Two-sided bounds on Gamma(b)/Gamma(a) for 1 <= a < b:

        b^(b-1) / a^(a-1) * e^(a-b)  <=  Gamma(b)/Gamma(a)
                                     <=  b^(b-1/2) / a^(a-1/2) * e^(a-b).
    """
    if not (1.0 <= a < b):
        raise DomainViolation(f"bounds require 1 <= a < b, got a={a}, b={b}")
    lower = math.exp((b - 1.0) * math.log(b) - (a - 1.0) * math.log(a) + a - b)
    upper = math.exp((b - 0.5) * math.log(b) - (a - 0.5) * math.log(a) + a - b)
    return lower, upper


def _grid_loglik(grid, counts) -> np.ndarray:
    """Log probability of the counts under each configuration of a nonempty
    grid sharing N and c; AllZeroLikelihood when every one is -inf."""
    configs = list(grid)
    if len({(cfg.n_total, cfg.c) for cfg in configs}) != 1:
        raise DomainViolation("need a nonempty grid of configurations sharing N and c")
    ll = np.array([polya_log_prob(counts, cfg) for cfg in configs])
    if math.isinf(ll.max()):
        raise AllZeroLikelihood("all configurations give these counts zero probability")
    return ll


def polya_posterior(grid, counts) -> np.ndarray:
    """Posterior weights, uniform prior, over urn configurations sharing N and
    c, given the counts of a draw path (the law is exchangeable)."""
    return np.exp(log_posterior(0.0, _grid_loglik(grid, counts)))


def mnpl_exact(grid, counts) -> list:
    """Indices of the configurations maximizing the sequence probability."""
    return near_min(-_grid_loglik(grid, counts), LIKELIHOOD_TIE)


def mnpl_asymptotic(grid_pmfs, nu: Pmf, beta: float, c: int) -> list:
    """Indices minimizing the reinforced L-divergence to the empirical pmf,
    with ``mnpl_exact``'s ties; InfiniteRate if every value is +inf, which
    only c = 0 allows."""
    vals = np.array([polya_l_divergence(q, nu, beta, c) for q in grid_pmfs])
    if not vals.size:
        raise DomainViolation("need at least one candidate")
    if math.isinf(vals.min()):
        raise InfiniteRate("every candidate's reinforced divergence is infinite")
    return near_min(vals, LIKELIHOOD_TIE)


def rebuild_urn(r: Pmf, n: int, beta: float, c: int) -> UrnConfig:
    """Urn tracking r at sampling ratio beta: N = round(n / beta) and
    alpha_i = max(1, round(N r_i)), with N corrected to the actual sum."""
    if not 0.0 < beta < 1.0:
        raise DomainViolation(f"beta={beta} outside (0, 1)")
    n_target = max(int(round(n / beta)), r.m)
    alpha = np.maximum(1, np.round(n_target * r.weights).astype(int))
    return UrnConfig(tuple(int(a) for a in alpha), c)


def apportion_counts(total: int, weights: np.ndarray) -> tuple:
    """Integer composition of ``total`` proportional to ``weights`` with
    every entry at least 1 (largest-remainder rounding)."""
    total = _whole_int(total, "total")
    m = weights.size
    if total < m:
        raise DomainViolation(f"cannot apportion {total} into {m} positive parts")
    ideal = total * weights / weights.sum()
    base = np.maximum(1, np.floor(ideal).astype(int))
    while base.sum() > total:
        over = base - ideal
        over[base <= 1] = -np.inf
        base[int(np.argmax(over))] -= 1
    while base.sum() < total:
        base[int(np.argmax(ideal - base))] += 1
    return tuple(int(b) for b in base)


def polya_decay_experiment(
    grid_pmfs, q_set, r: Pmf, beta: float, c: int, n_schedule, seeds
) -> tuple:
    """Empirical -(1/n) log posterior-mass(Q), uniform prior, for urns rebuilt
    per checkpoint (once, for all seeds), against the reinforced L-divergence
    gap of the target pmfs; returns one DecayReport per seed.  A checkpoint
    costs O(m) per candidate."""
    grid_pmfs = list(grid_pmfs)
    target = decay_target([polya_l_divergence(q, r, beta, c) for q in grid_pmfs], q_set)
    schedule = checkpoints(n_schedule)
    urns = [rebuild_urn(r, n, beta, c) for n in schedule]
    grids = [[UrnConfig(apportion_counts(u.n_total, q.weights), c) for q in grid_pmfs]
             for u in urns]
    reports = []
    for seed in (int(s) for s in seeds):
        loglik = np.empty((len(schedule), len(grid_pmfs)))
        for j, (n, sampler, grid) in enumerate(zip(schedule, urns, grids)):
            counts = polya_counts(sampler, n, derive_seed("polya.decay", seed, n))
            loglik[j] = [polya_log_prob(counts, cfg) for cfg in grid]
        reports.append(decay_report(0.0, loglik, target, schedule, seed))
    return tuple(reports)
