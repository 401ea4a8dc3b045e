"""Multicolor reinforced-urn sampling and its posterior decay experiments.

An urn starts with alpha_i balls of color i (N total); each draw of color
i returns the ball plus c extra of the same color (c < 0 removes balls).
The probability of a draw sequence depends only on the color counts:

    log P(counts) = sum_i sum_{j<n_i} log(alpha_i + j c)
                    - sum_{j<n} log(N + j c),

with a single denominator product over all n draws; the same quantity has
a log-Gamma form through eta = N / c, and the two must agree to 1e-9
wherever both are defined.  The decay experiments rebuild the urn at every
checkpoint so that n / N stays at a fixed ratio beta while the initial
composition tracks a target distribution r; every seed shares one call's
urns.  Since only the counts enter the scores, they draw the counts from
their exact law (``polya_counts``); ``polya_draw``, which runs the urn one
ball at a time, is the sequence-level reference.  The stream changed in
version 0.7.0.  Posteriors are ``bayes.log_posterior`` under a uniform prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import checkpoints, decay_report, decay_target, log_posterior
from .divergences import polya_l_divergence
from .errors import AllInfinite, AllZeroLikelihood, DomainViolation, UrnExhausted
from .prob import LIKELIHOOD_TIE, Pmf, near_min
from .rng import derive_seed, rng_from


@dataclass(frozen=True)
class UrnConfig:
    """Initial composition alpha (positive integers) and reinforcement c."""

    alpha: tuple
    c: int

    def __post_init__(self):
        alpha = tuple(int(a) for a in self.alpha)
        if not alpha or any(a < 1 for a in alpha):
            raise DomainViolation("every initial count must be a positive integer")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "c", int(self.c))

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
        colors = tuple(int(i) for i in self.colors)
        counts = tuple(int(k) for k in self.counts)
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
    rng = rng_from("polya.draw", seed)
    m = config.m
    weights = [float(a) for a in config.alpha]
    total = float(config.n_total)
    c = float(config.c)
    colors = []
    counts = [0] * m
    for _ in range(int(n)):
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
    n = int(n)
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
    from scipy.special import gammaln

    steps = c * np.arange(n, dtype=float)

    def cum_log(a, left):  # sum_{j<k} log(a + j c), k = 0..left; zero factors give -inf
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(a + steps[:left], 0.0))
        return np.concatenate(([0.0], np.cumsum(logs)))

    counts = []
    rest = float(config.n_total)
    left = n
    for a in alpha[:-1]:
        rest -= a
        k = np.arange(left + 1.0)
        lp = (
            gammaln(left + 1.0) - gammaln(k + 1.0) - gammaln(left - k + 1.0)
            + cum_log(a, left) + cum_log(rest, left)[::-1]
        )
        cdf = np.cumsum(np.exp(lp - lp.max()))
        pick = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), left)
        counts.append(pick)
        left -= pick
    counts.append(left)
    return tuple(counts)


def polya_log_prob(counts, config: UrnConfig, method: str = "product") -> float:
    """Log probability of observing the given per-color counts in order
    (any order: the sequence law is exchangeable).

    method="product" multiplies the per-draw factors directly;
    method="gamma" evaluates the equivalent log-Gamma expression through
    eta = N / c.  Zero factors give -inf; negative factors mean the counts
    are not reachable and raise DomainViolation.
    """
    cnt = np.asarray(counts, dtype=np.int64)
    if cnt.shape != (config.m,) or np.any(cnt < 0):
        raise DomainViolation("counts must be nonnegative, one per color")
    n = int(cnt.sum())
    c = config.c
    alpha = np.asarray(config.alpha, dtype=float)
    big_n = float(config.n_total)
    if c == 0:
        return float(cnt @ np.log(alpha / big_n))
    if method == "product":
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
    if method != "gamma":
        raise DomainViolation(f"unknown method {method!r}")
    from scipy.special import gammaln

    eta = big_n / c
    eta_q = alpha / c
    if c > 0:
        out = gammaln(eta) - gammaln(eta + n)
        out += float(np.sum(gammaln(eta_q + cnt) - gammaln(eta_q)))
        return float(out)
    lead = 1.0 - eta - n
    if lead <= 0.0 or np.any(1.0 - eta_q - cnt <= 0.0):
        raise DomainViolation("log-Gamma form undefined for these counts")
    out = gammaln(lead) - gammaln(1.0 - eta)
    out += float(np.sum(gammaln(1.0 - eta_q) - gammaln(1.0 - eta_q - cnt)))
    return float(out)


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
    with ``mnpl_exact``'s ties; AllInfinite if every value is +inf."""
    vals = np.array([polya_l_divergence(q, nu, beta, c) for q in grid_pmfs])
    if math.isinf(vals.min()):
        raise AllInfinite("every candidate's reinforced divergence is infinite")
    return near_min(vals, LIKELIHOOD_TIE)


def rebuild_urn(r: Pmf, n: int, beta: float, c: int) -> UrnConfig:
    """Urn tracking r at sampling ratio beta: N = round(n / beta) and
    alpha_i = max(1, round(N r_i)), with N corrected to the actual sum."""
    n_target = max(int(round(n / beta)), r.m)
    alpha = np.maximum(1, np.round(n_target * r.weights).astype(int))
    return UrnConfig(tuple(int(a) for a in alpha), c)


def apportion_counts(total: int, weights: np.ndarray) -> tuple:
    """Integer composition of ``total`` proportional to ``weights`` with
    every entry at least 1 (largest-remainder rounding)."""
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


@dataclass(frozen=True)
class PolyaDecayReport:
    """Per-seed decay of the posterior over urn configurations."""

    checkpoints: tuple
    beta: float
    c: int
    reports: tuple  # one DecayReport per seed


def polya_decay_experiment(
    grid_pmfs, q_set, r: Pmf, beta: float, c: int, n_schedule, seeds
) -> PolyaDecayReport:
    """Empirical -(1/n) log posterior-mass(Q), uniform prior, for urns rebuilt
    per checkpoint (once, for all seeds), against the reinforced L-divergence
    gap of the target pmfs."""
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
    return PolyaDecayReport(
        checkpoints=tuple(schedule), beta=float(beta), c=int(c), reports=tuple(reports)
    )
