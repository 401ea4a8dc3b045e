"""Reference computations for the output checks, written apart from the
library: plain numpy and math on the same inputs, never elmap calls."""

from __future__ import annotations

import math

import numpy as np

# An empirical rate within this many per-observation standard deviations
# of its limit: the chance that a correct run fails a check is below 1e-8.
Z = 6.0


def log_score(cands: np.ndarray, r: np.ndarray) -> np.ndarray:
    """-sum_i r_i log q_i per candidate row (terms with r_i = 0 dropped)."""
    live = r > 0
    with np.errstate(divide="ignore"):
        return -(np.log(cands[:, live]) @ r[live])


def tails(cands: np.ndarray) -> np.ndarray:
    """Mass strictly beyond each grid point, per candidate row."""
    return np.cumsum(cands[:, ::-1], axis=1)[:, ::-1] - cands


def censored_score(cands: np.ndarray, f0: np.ndarray, g0: np.ndarray) -> np.ndarray:
    """Censored divergence per candidate with alpha = sum g0 * cdf(f0)."""
    alpha = float(g0 @ np.cumsum(f0))
    ev = alpha * f0
    ce = (1.0 - alpha) * g0
    with np.errstate(divide="ignore"):
        return -(np.log(cands[:, ev > 0]) @ ev[ev > 0]) - (
            np.log(tails(cands)[:, ce > 0]) @ ce[ce > 0]
        )


def reinforced_score(cands: np.ndarray, r: np.ndarray, beta: float, c: int) -> np.ndarray:
    """Closed form of the reinforced (urn) divergence per candidate."""
    if c == 0:
        return log_score(cands, r) - 1.0
    t = beta * c
    mix = cands + t * r
    with np.errstate(divide="ignore", invalid="ignore"):
        first = -(np.log(mix) * r).sum(axis=1)
        second = np.where(cands > 0, cands * np.log(cands / mix), 0.0).sum(axis=1) / t
    return first + second


def gap(values: np.ndarray, q_idx) -> float:
    """min over Q minus the grid minimum."""
    return float(values[list(q_idx)].min() - values.min())


def rate_tolerance(llr: np.ndarray, prob: np.ndarray, n: int, extra: float) -> float:
    """Allowed |empirical - theoretical| rate at n observations for a
    two-candidate grid whose per-observation log-likelihood ratio takes the
    values ``llr`` with probabilities ``prob``: Z standard deviations of
    the mean, plus the O(1/n) terms (log 2 from the log-sum-exp, ``extra``
    for prior weights and finite-urn corrections)."""
    mean = float(prob @ llr)
    sd = math.sqrt(float(prob @ (llr - mean) ** 2))
    return Z * sd / math.sqrt(n) + (math.log(2.0) + extra) / n


def mean_tilt(support: np.ndarray, r: np.ndarray, theta: float) -> np.ndarray:
    """L-projection of r onto {q : sum q x = theta}, q = r / (1 - lam (x - theta)),
    with lam found by bisection on sum r u / (1 - lam u) = 0."""
    u = support - theta
    live = r > 0
    lo, hi = 1.0 / u[live].min(), 1.0 / u[live].max()  # open interval of lam

    def h(lam):
        return float(np.sum(r[live] * u[live] / (1.0 - lam * u[live])))

    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    return r / (1.0 - lam * u)


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())

