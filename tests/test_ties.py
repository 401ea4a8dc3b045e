"""One tie rule for every candidate ranking: each site that reports the
candidates at an extreme agrees with ``prob.near_min`` under its tolerance
on constructed score vectors.  The scores reach a site through the
function that would compute them, replaced by one returning the vector."""

import math

import numpy as np
import pytest

from elmap import bayes, estimators, polya, projection
from elmap.bayes import PosteriorState, PriorGrid, decay_target, grid_l_projections, map_candidate
from elmap.estimators import mnpl_grid
from elmap.polya import UrnConfig, mnpl_asymptotic, mnpl_exact
from elmap.prob import LIKELIHOOD_TIE, PROJECTION_TIE, Sample, make_pmf, mean_model, near_min
from elmap.projection import profile_l_projection

BASE = 0.75


def beyond(tol):
    """The first float past BASE + tol: no longer a tie."""
    return np.nextafter(BASE + tol, math.inf)


# Ties 1e-13 apart, a gap just beyond each tolerance, one inside the wider
# one, and +inf entries; the exact minimum is not first.
SCORES = [
    np.array([BASE + 1e-13, math.inf, BASE, BASE + 1e-13, beyond(LIKELIHOOD_TIE),
              BASE + 5e-10, beyond(PROJECTION_TIE), math.inf, BASE + 2.0]),
    np.array([beyond(PROJECTION_TIE), BASE + 1e-13, BASE, beyond(LIKELIHOOD_TIE), math.inf]),
    np.array([BASE, BASE]),
]

SUPPORT = np.array([0.0, 1.0, 2.0])
R = make_pmf(SUPPORT, [0.2, 0.5, 0.3])


def uniform_rows(k):
    return np.full((k, SUPPORT.size), 1.0 / SUPPORT.size)


def map_site(v, monkeypatch):
    k = v.size
    return map_candidate(PosteriorState(-v, np.zeros(k), np.zeros(SUPPORT.size)))


def grid_l_site(v, monkeypatch):
    monkeypatch.setattr(bayes, "counts_loglik", lambda table, counts: -v)
    return grid_l_projections(PriorGrid(SUPPORT, uniform_rows(v.size), np.zeros(v.size)), R)[1]


def decay_target_site(v, monkeypatch):
    return list(decay_target(v, [int(np.argmin(v))])[2])


def mnpl_exact_site(v, monkeypatch):
    k = v.size
    monkeypatch.setattr(polya, "polya_log_prob", lambda counts, cfg: -v[cfg.alpha[0] - 1])
    return mnpl_exact([UrnConfig((i + 1, k - i), 1) for i in range(k)], (1, 1))


def mnpl_asymptotic_site(v, monkeypatch):
    # the candidates are their own indices into v
    monkeypatch.setattr(polya, "polya_l_divergence", lambda q, nu, beta, c: v[q])
    return mnpl_asymptotic(range(v.size), R, 0.5, 1)


def mnpl_grid_site(v, monkeypatch):
    monkeypatch.setattr(estimators, "counts_loglik", lambda table, counts: -v)
    return mnpl_grid(Sample((0.0, 1.0)), [R] * v.size)[0]


def profile_site(v, monkeypatch):
    search = projection._profile_min

    def scored(*args):  # the real search, its grid records rescored by v
        theta, value, fit, trace = search(*args)
        grid = [(th, s, f) for (th, _, f), s in zip(trace, v.tolist())]
        return theta, value, fit, grid + trace[v.size:]

    monkeypatch.setattr(projection, "_profile_min", scored)
    grid = [[t] for t in np.linspace(0.5, 1.5, v.size)]
    minimizers = profile_l_projection(R, mean_model(), grid).minimizers
    return [[g[0] for g in grid].index(m[0]) for m in minimizers]


SITES = [
    (map_site, LIKELIHOOD_TIE),
    (mnpl_exact_site, LIKELIHOOD_TIE),
    (mnpl_asymptotic_site, LIKELIHOOD_TIE),
    (mnpl_grid_site, LIKELIHOOD_TIE),
    (grid_l_site, PROJECTION_TIE),
    (decay_target_site, PROJECTION_TIE),
    (profile_site, PROJECTION_TIE),
]


@pytest.mark.parametrize("v", SCORES, ids=["mixed", "short", "exact-tie"])
@pytest.mark.parametrize("site, tol", SITES, ids=[s.__name__ for s, _ in SITES])
def test_site_agrees_with_near_min(site, tol, v, monkeypatch):
    assert site(v, monkeypatch) == near_min(v, tol)


def test_near_min():
    v = SCORES[0]
    assert near_min(v, LIKELIHOOD_TIE) == [0, 2, 3]
    assert near_min(v, PROJECTION_TIE) == [0, 2, 3, 4, 5]
    assert near_min([math.inf, math.inf], LIKELIHOOD_TIE) == [0, 1]
    assert all(type(i) is int for i in near_min(v, 0.0))
