"""Discrepancy functionals between finite-support distributions.

The central quantity is the log-score divergence

    L(q || p) = -sum_i p_i log q(x_i),

which is finite exactly when q covers the support of p, reduces to
Kerridge's inaccuracy when p is an empirical pmf, and governs the decay
rate of posterior mass in the experiments downstream.  Infinite values are
meaningful results here, not errors.  It is scored by the posterior's own
kernel, :func:`~elmap.prob.counts_loglik`, with p's weights as the counts,
so a candidate's L value and its posterior log-likelihood come from one
computation.

Also provided: Kullback-Leibler, squared Euclidean, the Cressie-Read power
family, and the reinforced-urn variant of L used by the Polya experiments.
Each is an array expression over the masses the two distributions give
one set of atoms (:meth:`~elmap.prob.Pmf.masses`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, GammaSingular, SupportMismatch
from .prob import Pmf, counts_loglik

_SINGULAR_TOL = 1e-12


def entropy(p: Pmf) -> float:
    """Shannon entropy -sum p log p (natural log); equals L(p || p)."""
    w = p.weights[p.weights > 0]
    return float(-(w @ np.log(w)))


def l_divergence(q: Pmf, p: Pmf) -> float:
    """-sum_i p_i log q(x_i); +inf unless q dominates the support of p."""
    with np.errstate(divide="ignore"):
        log_q = np.log(q.masses(p.support))
    return float(-counts_loglik(log_q[None, :], p.weights)[0])


def kl_divergence(q: Pmf, p: Pmf) -> float:
    """sum_i q_i log(q_i / p_i) with 0 log 0 = 0; +inf if q puts mass
    where p has none."""
    on_q = q.weights > 0.0
    qw, pw = q.weights[on_q], p.masses(q.support[on_q])
    if (pw <= 0.0).any():
        return math.inf
    return float(qw @ np.log(qw / pw))


def _require_common_support(q: Pmf, mu: Pmf) -> None:
    if not np.array_equal(q.support, mu.support):
        raise SupportMismatch("distributions must share one support")


def euclidean_discrepancy(q: Pmf, mu: Pmf) -> float:
    """sum_i (q_i - mu_i)^2 on a common support."""
    _require_common_support(q, mu)
    d = q.weights - mu.weights
    return float(d @ d)


def cressie_read(q: Pmf, mu: Pmf, gamma: float) -> float:
    """Power divergence CR_gamma(q, mu) = sum_i q_i [(q_i/mu_i)^gamma - 1]
    / (gamma (gamma+1)).

    The normalization is fixed so that gamma -> 0 recovers KL(q||mu),
    gamma -> -1 recovers KL(mu||q) and gamma = 1 is half of Pearson's
    chi-square.  gamma in {0, -1} raises GammaSingular; use the KL limits
    directly there.
    """
    if abs(gamma) < _SINGULAR_TOL or abs(gamma + 1.0) < _SINGULAR_TOL:
        raise GammaSingular(f"gamma={gamma} needs the KL limit form")
    _require_common_support(q, mu)
    on_q, on_mu = q.weights > 0.0, mu.weights > 0.0
    # q_i^(1+gamma)/mu_i^gamma at q_i = 0: zero for gamma > -1, else +inf
    if gamma < -1.0 and (on_mu & ~on_q).any():
        return math.inf
    # at mu_i = 0 < q_i, (q_i/mu_i)^gamma is +inf for gamma > 0, else 0
    if gamma > 0.0 and (on_q & ~on_mu).any():
        return math.inf
    both = on_q & on_mu
    qw, mw = q.weights[both], mu.weights[both]
    total = qw @ ((qw / mw) ** gamma - 1.0) - q.weights[on_q & ~on_mu].sum()
    return float(total / (gamma * (gamma + 1.0)))


def polya_l_divergence(q: Pmf, p: Pmf, beta: float, c: int) -> float:
    """Reinforced-sampling variant of L with mixing ratio beta and
    reinforcement c:

        -sum_i p_i log(q_i + beta c p_i)
        + (1/(beta c)) sum_i q_i log(q_i / (q_i + beta c p_i)),

    taken over the union support.  c = 0 returns the continuity limit
    -sum_i p_i log q_i - 1 exactly.
    """
    if not 0.0 < beta < 1.0:
        raise DomainViolation(f"beta={beta} outside (0, 1)")
    if c == 0:
        return l_divergence(q, p) - 1.0
    t = beta * float(c)
    sup = np.union1d(q.support, p.support)
    qw, pw = q.masses(sup), p.masses(sup)
    mix = qw + t * pw
    on_p, on_q = pw > 0.0, qw > 0.0
    bad = (on_p | on_q) & (mix <= 0.0)
    if bad.any():
        i = int(bad.argmax())
        raise DomainViolation(
            f"q + beta*c*p = {float(mix[i])!r} at x={float(sup[i])} is not positive"
        )
    total = -(pw[on_p] @ np.log(mix[on_p])) + qw[on_q] @ np.log(qw[on_q] / mix[on_q]) / t
    return float(total)


@dataclass(frozen=True)
class DivergenceSpec:
    """Selector for the discrepancy minimized by the projection oracle.

    kind is one of "L", "KL", "Euclidean", "CR" (with gamma) or "PolyaL"
    (with beta and c).  ``value``/``grad``/``hess_diag`` operate on weight
    arrays aligned on a common support, with the second argument the base
    distribution.
    """

    kind: str
    gamma: float | None = None
    beta: float | None = None
    c: int | None = None

    def __post_init__(self):
        if self.kind not in {"L", "KL", "Euclidean", "CR", "PolyaL"}:
            raise ValueError(f"unknown divergence kind {self.kind!r}")
        if self.kind == "CR":
            if self.gamma is None:
                raise ValueError("CR needs gamma")
            if abs(self.gamma) < _SINGULAR_TOL or abs(self.gamma + 1) < _SINGULAR_TOL:
                raise GammaSingular(f"gamma={self.gamma}")
        if self.kind == "PolyaL":
            if self.beta is None or self.c is None:
                raise ValueError("PolyaL needs beta and c")
            if not 0.0 < self.beta < 1.0:
                raise DomainViolation(f"beta={self.beta} outside (0, 1)")

    # The array forms assume strictly positive q on atoms where the math
    # needs it; the mirror-descent oracle keeps its iterates interior.

    def value(self, q: np.ndarray, base: np.ndarray) -> float:
        if self.kind == "L":
            mask = base > 0
            return float(-(base[mask] @ np.log(q[mask])))
        if self.kind == "KL":
            mask = q > 0
            return float(q[mask] @ np.log(q[mask] / base[mask]))
        if self.kind == "Euclidean":
            d = q - base
            return float(d @ d)
        if self.kind == "CR":
            g = self.gamma
            return float((q @ ((q / base) ** g - 1.0)) / (g * (g + 1.0)))
        t = self.beta * float(self.c)
        if self.c == 0:
            mask = base > 0
            return float(-(base[mask] @ np.log(q[mask])) - 1.0)
        mix = q + t * base
        if np.any(mix <= 0):
            raise DomainViolation("q + beta*c*base must stay positive")
        out = -(base @ np.log(mix))
        mask = q > 0
        out += (q[mask] @ np.log(q[mask] / mix[mask])) / t
        return float(out)

    def grad(self, q: np.ndarray, base: np.ndarray) -> np.ndarray:
        if self.kind == "L":
            return -base / q
        if self.kind == "KL":
            return np.log(q / base) + 1.0
        if self.kind == "Euclidean":
            return 2.0 * (q - base)
        if self.kind == "CR":
            g = self.gamma
            return ((g + 1.0) * (q / base) ** g - 1.0) / (g * (g + 1.0))
        t = self.beta * float(self.c)
        if self.c == 0:
            return -base / q
        mix = q + t * base
        return -base / mix + (np.log(q / mix) + 1.0 - q / mix) / t

    def hess_diag(self, q: np.ndarray, base: np.ndarray) -> np.ndarray:
        if self.kind == "L":
            return base / q**2
        if self.kind == "KL":
            return 1.0 / q
        if self.kind == "Euclidean":
            return np.full_like(q, 2.0)
        if self.kind == "CR":
            g = self.gamma
            return (q / base) ** (g - 1.0) / base
        t = self.beta * float(self.c)
        if self.c == 0:
            return base / q**2
        mix = q + t * base
        return base / mix**2 + (1.0 / q - 1.0 / mix - t * base / mix**2) / t

    @classmethod
    def l(cls) -> "DivergenceSpec":
        return cls("L")

    @classmethod
    def kl(cls) -> "DivergenceSpec":
        return cls("KL")

    @classmethod
    def euclidean(cls) -> "DivergenceSpec":
        return cls("Euclidean")

    @classmethod
    def cr(cls, gamma: float) -> "DivergenceSpec":
        return cls("CR", gamma=gamma)

    @classmethod
    def polya_l(cls, beta: float, c: int) -> "DivergenceSpec":
        return cls("PolyaL", beta=beta, c=c)
