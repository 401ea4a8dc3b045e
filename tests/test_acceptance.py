"""Acceptance criteria, one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 is a statement about the law of the data path.  On a single
path the posterior collapses onto one of the two mirror components (their
log odds are (n0 - n2) log(q_low[0] / q_low[2]), which fluctuates on the
sqrt(n) scale), so the posterior mean stays half the inter-projection
distance from both projections only on the lattice tie n0 = n2.  What
holds is that the expected posterior mean over the path law does so; the
test computes it exactly by enumerating the multinomial count law
(tests/oracles.py) and prints the per-path probabilities as diagnostics.
The per-seed statements for the same experiment live in
tests/test_bayes.py::TestExample21.
"""

import itertools
import math
import time

import numpy as np

from elmap.bayes import (
    blln_check,
    decay_curve,
    example21,
    make_prior_grid,
    map_candidate,
    posterior_mean,
    posterior_update,
    split_mean_prior,
)
from elmap.censoring import (
    CensoredObservation,
    CensoringModel,
    censor_generate,
    censored_decay_experiment,
    censored_l_divergence,
    censored_loglik,
    kaplan_meier,
)
from elmap.divergences import (
    DivergenceSpec,
    cressie_read,
    kl_divergence,
    l_divergence,
    polya_l_divergence,
)
from elmap.errors import InfeasibleMoment, NotConverged, SupportCondition
from elmap.estimators import el_estimate, el_inner, et_estimate, mnpl_grid, tilt_dual
from elmap.polya import (
    UrnConfig,
    gamma_ratio_bounds,
    polya_decay_experiment,
    polya_log_prob,
)
from elmap.prob import (
    EstimatingModel,
    ParamDomain,
    Sample,
    make_pmf,
    mean_model,
)
from elmap.projection import (
    l_project_linear,
    moment_feasibility,
    project_oracle,
)
from elmap.rng import rng_from

from oracles import (
    censored_el_bruteforce,
    el_primal_bruteforce,
    grid_candidates,
    grid_posterior,
    polya_log_prob_product,
    posterior_mean_law,
)
from scipy.special import gammaln

R_BIN = make_pmf([0, 1], [0.5, 0.5])
CAND_A = make_pmf([0, 1], [0.6, 0.4])
CAND_B = make_pmf([0, 1], [0.9, 0.1])
SEEDS = range(20)


def report(num: int, text: str) -> None:
    print(f"\ncriterion {num:2d}: PASS  ({text})")


def test_criterion_01_bst_rate():
    t0 = time.time()
    # independent oracle: the divergence gap by direct arithmetic
    gap = -0.5 * (math.log(0.9) + math.log(0.1)) + 0.5 * (
        math.log(0.6) + math.log(0.4)
    )
    assert abs(gap - 0.490415) <= 5e-7
    prior = make_prior_grid([CAND_A, CAND_B])
    rates = [
        decay_curve(prior, [1], R_BIN, [5000], [seed])[0].empirical_rate[-1]
        for seed in SEEDS
    ]
    avg = float(np.mean(rates))
    elapsed = time.time() - t0
    assert abs(avg - gap) <= 0.05 * gap, (avg, gap)
    assert elapsed < 10.0, elapsed
    report(1, f"avg rate {avg:.6f} vs {gap:.6f}, {elapsed:.2f}s")


def test_criterion_02_blln_concentration():
    prior = make_prior_grid([CAND_A, CAND_B])
    rep = blln_check(prior, R_BIN, 0.05, [10000], SEEDS)
    final = np.sort(rep.masses[:, -1])
    assert final[1] >= 0.99  # at least 19 of 20 seeds
    report(2, f"ball mass ≥ {final[1]:.6f} on 19/20 seeds")


def _random_projection_instance(rng):
    m = int(rng.integers(3, 7))
    j = int(rng.integers(1, 3))
    sup = np.sort(rng.normal(size=m) * 2.0)
    while np.any(np.diff(sup) < 1e-6):
        sup = np.sort(rng.normal(size=m) * 2.0)
    w = rng.dirichlet(np.ones(m) * 3.0) * 0.9 + 0.1 / m
    qstar = rng.dirichlet(np.ones(m) * 3.0) * 0.9 + 0.1 / m
    qstar = qstar / qstar.sum()
    t1 = float(qstar @ sup)
    t2 = float(qstar @ sup**2)

    def u(x, th, t1=t1, t2=t2, j=j):
        cols = np.stack([x - t1, x * x - t2][:j], axis=-1)
        return np.broadcast_to(cols, th.shape[:-1] + cols.shape)

    model = EstimatingModel(
        u=u, domain=ParamDomain.real_line(1), n_constraints=j, n_params=1
    )
    return make_pmf(sup, w / w.sum()), model


def test_criterion_03_strong_duality():
    rng = np.random.default_rng(7)
    worst_q = worst_identity = worst_value = 0.0
    for k in range(25):
        r, model = _random_projection_instance(rng)
        dual = l_project_linear(r, model, [0.0])
        orc = project_oracle(r, model, [0.0], DivergenceSpec.l(), seed=k)
        worst_q = max(worst_q, float(np.max(np.abs(dual.qhat.weights - orc.weights))))
        umat = model.u_matrix(r.support, [0.0])
        scale = 1.0 - umat @ dual.lam
        worst_identity = max(
            worst_identity,
            float(np.max(np.abs(dual.qhat.weights * scale - r.weights))),
        )
        worst_value = max(worst_value, abs(l_divergence(orc, r) - dual.value))
    assert worst_q <= 1e-6, worst_q
    assert worst_identity <= 1e-12, worst_identity
    assert worst_value <= 1e-6, worst_value
    report(3, f"sup-norm {worst_q:.2e}, identity {worst_identity:.2e}")


def _all_multisets(n: int):
    """Count vectors (c0, c1, c2) over support {0, 1, 2} summing to n."""
    for c0 in range(n + 1):
        for c1 in range(n + 1 - c0):
            yield c0, c1, n - c0 - c1


def test_criterion_04_el_primal_dual():
    support = np.array([0.0, 1.0, 2.0])
    mean_m = mean_model()
    over_m = EstimatingModel(
        u=lambda x, th: np.stack([x - th[..., :1], x * x - th[..., :1] ** 2 - 0.5], axis=-1),
        domain=ParamDomain.real_line(1), n_constraints=2, n_params=1,
    )
    cases = [(mean_m, [0.35, 1.0, 1.55]), (over_m, [0.8, 1.0, 1.2])]
    worst = 0.0
    checked = 0
    for n in range(1, 9):
        for counts in _all_multisets(n):
            counts = np.asarray(counts, dtype=float)
            mask = counts > 0
            obs = tuple(
                float(v) for v, c in zip(support, counts) for _ in range(int(c))
            )
            sample = Sample(obs)
            atoms = support[mask]
            for model, thetas in cases:
                for th in thetas:
                    umat = model.u_matrix(list(atoms), [th])
                    feasible = moment_feasibility(umat[None])[0][0] == "interior"
                    try:
                        fit = el_inner(sample, model, [th])
                    except InfeasibleMoment:
                        assert not feasible
                        continue
                    assert feasible
                    primal = el_primal_bruteforce(counts[mask], umat)
                    correction = float(counts[mask] @ np.log(counts[mask]))
                    diff = abs(fit.profile_value - (correction - primal))
                    worst = max(worst, diff)
                    checked += 1
    assert worst <= 1e-6, worst
    report(4, f"{checked} feasible (sample, theta) pairs, worst gap {worst:.2e}")


def _population_profiles():
    r = make_pmf([0, 1, 2, 3], [0.22, 0.38, 0.38, 0.02])
    var = float(r.support**2 @ r.weights) - r.mean() ** 2
    assert abs(var - 0.64) <= 1e-12
    model = EstimatingModel(
        u=lambda x, th: np.stack([x - th[..., :1], x * x - th[..., :1] ** 2 - 1.0], axis=-1),
        domain=ParamDomain.real_line(1), n_constraints=2, n_params=1,
    )

    def el_value(th):
        try:
            return l_project_linear(r, model, [th]).value
        except (InfeasibleMoment, SupportCondition, NotConverged):
            return math.inf

    def kl_value(th):
        umat = model.u_matrix(r.support, [th])
        if moment_feasibility(umat[None])[0][0] != "interior":
            return math.inf
        return tilt_dual(r.weights, umat[None])[2][0]  # +inf where it does not converge

    from scipy.optimize import minimize_scalar

    def profile(vfun):
        grid = np.linspace(0.05, 2.95, 1161)
        vals = np.array([vfun(t) for t in grid])
        i = int(np.argmin(vals))
        res = minimize_scalar(
            vfun, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
            method="bounded", options={"xatol": 1e-11},
        )
        return float(res.x)

    return r, model, profile(el_value), profile(kl_value)


def test_criterion_05_misspecification_consistency():
    r, model, theta_l, theta_kl = _population_profiles()
    assert abs(theta_l - theta_kl) > 1e-3  # the two limits genuinely differ
    rng = rng_from("acceptance.crit5", 0)
    obs = rng.choice(r.support, p=r.weights, size=100000)
    sample = Sample(tuple(obs))
    fit_el = el_estimate(sample, model)
    fit_et = et_estimate(sample, model)
    err_el = abs(fit_el.theta_hat[0] - theta_l)
    err_et = abs(fit_et.theta_hat[0] - theta_kl)
    assert err_el <= 0.02, (fit_el.theta_hat[0], theta_l)
    assert err_et <= 0.02, (fit_et.theta_hat[0], theta_kl)
    if abs(theta_l - theta_kl) > 0.2:
        assert abs(fit_el.theta_hat[0] - theta_kl) >= 5 * 0.02
        assert abs(fit_et.theta_hat[0] - theta_l) >= 5 * 0.02
    report(
        5,
        f"theta_L*={theta_l:.5f} err {err_el:.4f}; theta_KL*={theta_kl:.5f} "
        f"err {err_et:.4f}; oracle gap {abs(theta_l - theta_kl):.4f}",
    )


def test_criterion_06_posterior_mean_split_family():
    r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
    prior = split_mean_prior(r, 0.7, 1.3, per_side=8, spread=0.4)
    means = np.array([c.mean() for c in grid_candidates(prior)])
    vals = np.array([l_divergence(c, r) for c in grid_candidates(prior)])
    v_low = vals[means <= 0.7 + 1e-9].min()
    v_high = vals[means >= 1.3 - 1e-9].min()
    assert abs(v_low - v_high) <= 1e-9  # symmetry precheck
    rep = example21(0.7, 1.3, r, prior, n=10000, seeds=SEEDS, epsilon=0.05)
    assert rep.mass_sum.min() >= 0.99
    half_d = 0.5 * rep.projection_tv
    min_dist = np.minimum(rep.tv_mean_low, rep.tv_mean_high)
    print(
        "\ncriterion  6 diagnostics: per-seed min TV from the projections ="
        f" {np.round(min_dist, 4).tolist()}, required >= {half_d:.4f};"
        f" per-seed low-ball mass = {np.round(rep.mass_low, 3).tolist()}"
    )

    wmat = prior.weights
    q_low = wmat[rep.proj_low]
    q_high = wmat[rep.proj_high]

    def tv_to_projections(mix):
        return (0.5 * np.abs(mix - q_low).sum(axis=-1),
                0.5 * np.abs(mix - q_high).sum(axis=-1))

    # The oracle's closed counts form is the program's posterior: checked on
    # data paths with given counts, observations in uniformly random order
    # (the law of an i.i.d. path given its counts).  n0 - n2 = 0, -1 and 4
    # put the low-ball mass at 0.5, 0.204 and 0.996.
    rng = rng_from("acceptance.crit6", 0)
    for counts in ((2000, 6000, 2000), (2000, 5999, 2001), (2003, 5998, 1999),
                   (2100, 5950, 1950)):
        sample = Sample(tuple(rng.permutation(np.repeat(r.support, counts))))
        state = posterior_update(prior, sample)
        # every log mass is negative, so the sequential sum's relative error
        # is at most about n * 2**-53 (1.1e-12 at n = 10^4)
        assert np.allclose(state.cum_loglik, np.log(wmat) @ counts, rtol=2e-12, atol=0)
        # near a tie that rounding reaches the posterior at the 1e-11 level
        post, mix = grid_posterior(prior.log_prior, wmat, [counts])
        assert np.max(np.abs(np.exp(state.log_posterior) - post[0])) <= 1e-10
        assert np.max(np.abs(posterior_mean(state, prior).weights - mix[0])) <= 1e-10

    # The per-path clause (posterior mean at least half_d from both
    # projections on the path) holds only on the lattice tie n0 = n2, whose
    # probability falls like n^-1/2.  Printed, not asserted; 1e-12 absorbs
    # rounding on the tie, where the distance is exactly half_d.
    diag = []
    for n in (100, 1000, 10000):
        counts, pmf, mix = posterior_mean_law(prior.log_prior, wmat, r.weights, n)
        per_path = np.minimum(*tv_to_projections(mix)) >= half_d - 1e-12
        tie = counts[:, 0] == counts[:, 2]
        diag.append(f"n={n}: {pmf[per_path].sum():.4f} (P(n0=n2) = {pmf[tie].sum():.4f})")
    print("criterion  6 diagnostics: exact P(per-path clause) " + ", ".join(diag))

    # What holds is a statement about the law of the path: the expected
    # posterior mean E_r^n[pbar_n] stays half_d from both projections and
    # has mean E_r X, which no candidate's mean is near.
    mass = pmf.sum()
    expected = pmf @ mix
    assert abs(mass - 1.0) <= 1e-10, mass
    tv_low, tv_high = tv_to_projections(expected)
    assert min(tv_low, tv_high) >= half_d - 1e-10, (tv_low - half_d, tv_high - half_d)
    assert abs(expected @ r.support - r.mean()) <= 1e-10, expected @ r.support
    assert np.all(np.abs(means - r.mean()) >= 0.3 - 1e-9)
    report(
        6,
        f"E[posterior mean] is half_d + {min(tv_low, tv_high) - half_d:.1e} from both"
        f" projections, mean - E X = {expected @ r.support - r.mean():.1e},"
        f" mass - 1 = {mass - 1.0:.1e}",
    )


def test_criterion_07_map_mnpl_agreement():
    prior_eq = make_prior_grid([CAND_A, CAND_B])
    rng = rng_from("acceptance.crit7", 0)
    obs = tuple(rng.choice([0.0, 1.0], size=300))
    for n in range(1, 301):
        state = posterior_update(prior_eq, Sample(obs[:n]))
        mn, _ = mnpl_grid(Sample(obs[:n]), grid_candidates(prior_eq))
        assert map_candidate(state) == mn
    prior_uneq = make_prior_grid([CAND_A, CAND_B], [0.15, 0.85])
    agree = 0
    for seed in SEEDS:
        draws = rng_from("acceptance.crit7b", seed).choice([0.0, 1.0], size=10000)
        sample = Sample(tuple(draws))
        state = posterior_update(prior_uneq, sample)
        mn, _ = mnpl_grid(sample, grid_candidates(prior_uneq))
        agree += map_candidate(state) == mn
    assert agree == 20
    report(7, "exact at every n with equal priors; 20/20 seeds at n=10^4")


def test_criterion_08_polya():
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 5))
        alpha = tuple(int(a) for a in rng.integers(1, 9, size=m))
        c = int(rng.choice([-1, 1, 2, 3]))
        n = int(rng.integers(1, 13))
        cfg = UrnConfig(alpha, c)
        if c < 0 and not cfg.valid_for_horizon(n):
            continue
        counts = tuple(int(v) for v in rng.multinomial(n, np.ones(m) / m))
        a = polya_log_prob_product(counts, cfg)
        if not math.isfinite(a):
            continue
        worst = max(worst, abs(a - polya_log_prob(counts, cfg)))
        checked += 1
    assert worst <= 1e-9, worst

    rep0 = polya_decay_experiment([CAND_A, CAND_B], [1], R_BIN, 0.5, 0, [5000], SEEDS)
    rates0 = [r.empirical_rate[-1] for r in rep0]
    gap0 = l_divergence(CAND_B, R_BIN) - l_divergence(CAND_A, R_BIN)
    assert abs(np.mean(rates0) - gap0) <= 0.05 * gap0

    gap1 = polya_l_divergence(CAND_B, R_BIN, 0.5, 1) - polya_l_divergence(
        CAND_A, R_BIN, 0.5, 1
    )
    rep1 = polya_decay_experiment([CAND_A, CAND_B], [1], R_BIN, 0.5, 1, [5000], SEEDS)
    rates1 = [r.empirical_rate[-1] for r in rep1]
    assert abs(np.mean(rates1) - gap1) <= 0.05 * gap1

    for a in np.arange(1.0, 50.0, 0.5):
        bvals = np.arange(a + 0.5, 50.0 + 1e-9, 0.5)
        lows, highs = zip(*(gamma_ratio_bounds(a, b) for b in bvals))
        truth = np.exp(gammaln(bvals) - gammaln(a))
        assert np.all(np.asarray(lows) <= truth) and np.all(truth <= np.asarray(highs))
    report(
        8,
        f"forms agree {worst:.1e}; c=0 rate {np.mean(rates0):.4f}/{gap0:.4f}; "
        f"c=1 rate {np.mean(rates1):.4f}/{gap1:.4f}; bounds bracket",
    )


def test_criterion_09_censoring():
    worst = 0.0
    for n in range(1, 6):
        for flags in itertools.product([False, True], repeat=n):
            if all(flags):
                continue
            data = [
                CensoredObservation(float(i + 1), f) for i, f in enumerate(flags)
            ]
            km = kaplan_meier(data)
            bf = censored_el_bruteforce(data)
            for t, a in zip(km.event_times, km.atoms):
                worst = max(worst, abs(bf.mass(float(t)) - a))
            extra = 1.0 - sum(bf.mass(float(t)) for t in km.event_times)
            worst = max(worst, abs(extra - km.defect))
    assert worst <= 1e-6, worst

    grid = [1.0, 2.0, 3.0]
    model = CensoringModel(
        make_pmf(grid, [0.5, 0.3, 0.2]), make_pmf(grid, [0.1, 0.9, 0.0])
    )
    cand_a = make_pmf(grid, [0.5, 0.3, 0.2])
    cand_b = make_pmf(grid, [0.6, 0.3, 0.1])
    data = censor_generate(model, 100000, seed=11)
    slln_dev = 0.0
    for cand in (cand_a, cand_b):
        ln = censored_loglik(cand, data) / len(data)
        lim = censored_l_divergence(cand, model)
        slln_dev = max(slln_dev, abs(ln - lim) / lim)
    assert slln_dev <= 0.01, slln_dev

    prior = make_prior_grid([cand_a, cand_b])
    gap = censored_l_divergence(cand_b, model) - censored_l_divergence(cand_a, model)
    reps = censored_decay_experiment(prior, [1], model, [5000], SEEDS)
    rates = [r.empirical_rate[-1] for r in reps]
    assert abs(np.mean(rates) - gap) <= 0.05 * gap
    report(
        9,
        f"KM≡bruteforce {worst:.1e}; SLLN dev {slln_dev:.4f}; "
        f"rate {np.mean(rates):.4f}/{gap:.4f}",
    )


def test_criterion_10_divergence_suite():
    rng = np.random.default_rng(123)

    def floored(m):
        w = rng.dirichlet(np.ones(m))
        return 0.5 * w + 0.5 / m

    for _ in range(1000):
        m = int(rng.integers(2, 7))
        sup = np.arange(m, dtype=float)
        q = make_pmf(sup, floored(m))
        p = make_pmf(sup, floored(m))
        # Gibbs inequality and KL nonnegativity
        assert l_divergence(q, p) >= l_divergence(p, p) - 1e-12
        assert kl_divergence(q, p) >= -1e-12
        # Cressie-Read limits at the singular points
        kl_qp = kl_divergence(q, p)
        kl_pq = kl_divergence(p, q)
        assert abs(cressie_read(q, p, 1e-6) - kl_qp) <= 1e-3 * kl_qp + 1e-9
        assert abs(cressie_read(q, p, -1.0 + 1e-6) - kl_pq) <= 1e-3 * kl_pq + 1e-9
        # reinforced-divergence continuity at c -> 0
        base = polya_l_divergence(q, p, 0.5, 0)
        assert abs(polya_l_divergence(q, p, 1e-4, 1) - base) <= 1e-3
        assert abs(polya_l_divergence(q, p, 1e-4, -1) - base) <= 1e-3
    report(10, "1000 random cases per property")
