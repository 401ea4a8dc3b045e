"""Right-censored data: generation, likelihood, product-limit estimation
and posterior decay.

Data come from a two-component mixture on a fixed time grid: with
probability alpha_unc an event time is drawn from F0 and observed exactly;
otherwise a censoring time is drawn from G0 and only the survival beyond
it is known.  The fit criterion for a candidate lifetime distribution F is

    l_n(F) = - sum_{uncensored} log F({x_i}) - sum_{censored} log F((y_i, inf)),

whose n-normalized limit is the censored divergence

    L(F | F0, G0) = -[ alpha int log F({x}) dF0 + (1-alpha) int log F((y, inf)) dG0 ].

The product-limit (Kaplan-Meier) curve is the exact minimizer of l_n over
all distributions on the event times; the tests check it against a
brute-force simplex search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bayes import PriorGrid, checkpoints, decay_report, decay_target, log_posterior
from .errors import DomainViolation, LengthMismatch, NoEvents, SupportMismatch
from .prob import Pmf, _whole_int, atom_index, counts_loglik, path_counts
from .rng import rng_from


@dataclass(frozen=True)
class CensoredObservation:
    """One datum: a time, and whether it is only a lower bound."""

    time: float
    censored: bool

    def __post_init__(self):
        t = float(self.time)
        if not math.isfinite(t):
            raise DomainViolation(f"observation time {t!r} must be finite")
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "censored", bool(self.censored))


@dataclass(frozen=True)
class CensoringModel:
    """Event distribution F0 and censor-time distribution G0 (same grid);
    ``alpha_unc``, the probability of observing an event exactly, is
    derived from them: P(X <= Y) for X ~ F0, Y ~ G0 independent, ties
    counting as events."""

    f0: Pmf
    g0: Pmf
    alpha_unc: float = field(init=False)

    def __post_init__(self):
        if not np.array_equal(self.f0.support, self.g0.support):
            raise SupportMismatch("F0 and G0 must live on the same grid")
        object.__setattr__(self, "alpha_unc", float(self.g0.weights @ np.cumsum(self.f0.weights)))


@dataclass(frozen=True)
class SurvivalCurve:
    """Step survival function with atoms at the event times; the atoms may
    sum to less than one when the last observation is censored."""

    event_times: np.ndarray
    survival: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.event_times, dtype=float)
        surv = np.asarray(self.survival, dtype=float)
        atoms = np.asarray(self.atoms, dtype=float)
        if not (times.shape == surv.shape == atoms.shape):
            raise LengthMismatch("mismatched curve arrays")
        if np.any(np.diff(times) <= 0):
            raise DomainViolation("event times must be increasing")
        if np.any(np.diff(surv) > 1e-12) or np.any(surv > 1.0 + 1e-12):
            raise DomainViolation("survival must be nonincreasing and at most 1")
        if np.any(atoms < -1e-12) or atoms.sum() > 1.0 + 1e-9:
            raise DomainViolation("atoms must be a (possibly defective) pmf")
        for arr in (times, surv, atoms):
            arr.setflags(write=False)
        object.__setattr__(self, "event_times", times)
        object.__setattr__(self, "survival", surv)
        object.__setattr__(self, "atoms", atoms)

    @property
    def defect(self) -> float:
        """Mass left beyond the last event time."""
        return float(max(0.0, 1.0 - self.atoms.sum()))


def censor_generate(model: CensoringModel, n: int, seed: int) -> list:
    """n observations from the mixture mechanism, deterministic in seed."""
    n = _whole_int(n, "n")
    if n < 1:
        raise DomainViolation(f"n = {n} must be at least 1")
    rng = rng_from("censor.generate", seed)
    uncensored = rng.random(n) < model.alpha_unc
    times = np.where(
        uncensored,
        rng.choice(model.f0.support, p=model.f0.weights, size=n),
        rng.choice(model.g0.support, p=model.g0.weights, size=n),
    )
    return [CensoredObservation(float(t), not u) for t, u in zip(times, uncensored)]


def _split(data) -> tuple[np.ndarray, np.ndarray]:
    times = np.array([obs.time for obs in data], dtype=float)
    cens = np.array([obs.censored for obs in data], dtype=bool)
    return times, cens


def _cells(support: np.ndarray, times: np.ndarray, cens: np.ndarray) -> np.ndarray:
    """Cell of each observation among 2m + 1 over an m-point support: an
    event at atom j is cell j, a censoring at y the tail strictly beyond y,
    cell m + searchsorted(support, y, "right").  An event off the support
    goes to the empty tail 2m: both have mass 0 under every candidate."""
    m = support.size
    idx, hit = atom_index(support, times)
    events = np.where(hit, idx, 2 * m)
    return np.where(cens, m + np.searchsorted(support, times, side="right"), events)


def _log_cell_masses(weights: np.ndarray) -> np.ndarray:
    """Log masses of the 2m + 1 cells under each row of a (K, m) weight
    matrix: the atoms, then the tails from each atom on, then 0."""
    tails = np.cumsum(weights[:, ::-1], axis=1)[:, ::-1]
    cells = np.concatenate([weights, tails, np.zeros((len(weights), 1))], axis=1)
    with np.errstate(divide="ignore"):
        return np.log(cells)


def censored_loglik(candidate: Pmf, data) -> float:
    """l_n(F): lower is better; +inf when a needed mass is zero."""
    if not data:
        return 0.0
    cells = _cells(candidate.support, *_split(data))
    counts = np.bincount(cells, minlength=2 * candidate.m + 1)
    return float(-counts_loglik(_log_cell_masses(candidate.weights[None, :]), counts)[0])


def kaplan_meier(data) -> SurvivalCurve:
    """Product-limit estimate; ties between events and censorings at one
    time treat the events first (censored items stay at risk)."""
    times, cens = _split(data)
    if not np.any(~cens):
        raise NoEvents("product-limit estimation needs at least one event")
    event_times, deaths = np.unique(times[~cens], return_counts=True)
    at_risk = times.size - np.searchsorted(np.sort(times), event_times)
    surv = np.cumprod(1.0 - deaths / at_risk)
    return SurvivalCurve(event_times, surv, -np.diff(surv, prepend=1.0))


def _cell_law(support: np.ndarray, model: CensoringModel) -> np.ndarray:
    """Law of one observation over the 2m + 1 cells of the support: alpha F0
    on the events and (1 - alpha) G0 on the tails."""
    f0, g0, alpha = model.f0, model.g0, model.alpha_unc
    cells = _cells(
        support,
        np.concatenate([f0.support, g0.support]),
        np.repeat([False, True], [f0.m, g0.m]),
    )
    return np.bincount(
        cells,
        weights=np.concatenate([alpha * f0.weights, (1.0 - alpha) * g0.weights]),
        minlength=2 * support.size + 1,
    )


def censored_l_divergence(candidate: Pmf, model: CensoringModel) -> float:
    """Population limit of l_n / n: the log-likelihood kernel applied to the
    cell law of one observation."""
    law = _cell_law(candidate.support, model)
    return float(-counts_loglik(_log_cell_masses(candidate.weights[None, :]), law)[0])


def censored_grid_divergences(prior: PriorGrid, model: CensoringModel) -> np.ndarray:
    """censored_l_divergence of every candidate of the grid: one product of
    the grid's (K, 2m + 1) log cell masses with the cell law."""
    law = _cell_law(prior.support, model)
    return -counts_loglik(_log_cell_masses(prior.weights), law)


def censored_posterior(prior: PriorGrid, data, carried=None) -> tuple:
    """Log posterior over lifetime candidates given censored data.

    The data enter through their counts over the 2m + 1 cells of the shared
    support (an event at each atom, a censoring in each strict tail).
    ``carried`` holds the cell counts of earlier observations; counts add
    exactly, so chaining two calls equals one call on the concatenated data
    bit for bit.  Returns (log_posterior, cell_counts).
    """
    m = prior.support.size
    counts = np.bincount(_cells(prior.support, *_split(data)), minlength=2 * m + 1)
    if carried is not None:
        counts = counts + carried
    loglik = counts_loglik(_log_cell_masses(prior.weights), counts)
    return log_posterior(prior.log_prior, loglik), counts


def censored_decay_experiment(
    prior: PriorGrid, q_set, model: CensoringModel, n_schedule, seeds
) -> tuple:
    """Empirical -(1/n) log posterior-mass(Q) on censored paths versus the
    censored-divergence gap; returns one DecayReport per seed."""
    target = decay_target(censored_grid_divergences(prior, model), q_set)
    schedule = checkpoints(n_schedule)
    law = _cell_law(prior.support, model)
    log_cells = _log_cell_masses(prior.weights)
    reports = []
    for seed in (int(s) for s in seeds):
        counts = path_counts(rng_from("censor.decay", seed), law, schedule)
        loglik = counts_loglik(log_cells, counts)
        reports.append(decay_report(prior.log_prior, loglik, target, schedule, seed))
    return tuple(reports)
