import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmap.bayes import (
    PROJECTION_TIE,
    PriorGrid,
    _posterior,
    _tv_ball,
    blln_check,
    decay_curve,
    example21,
    grid_l_projections,
    make_prior_grid,
    map_candidate,
    posterior_mean,
    posterior_update,
    split_mean_prior,
    split_projections,
)
from elmap.divergences import l_divergence
from elmap.errors import (
    AllZeroLikelihood,
    AsymmetricConfig,
    DomainViolation,
    InfiniteRate,
    LengthMismatch,
    SupportMismatch,
)
from elmap.estimators import mnpl_grid
from elmap.prob import (
    Sample,
    counts_loglik,
    log_mass_table,
    logsumexp,
    make_pmf,
    mean_model,
    normalize_rows,
    path_counts,
    tv_distance,
)
from elmap.projection import l_project_stack
from elmap.rng import rng_from
from oracles import draw_log_masses, grid_candidates, sequential_log_mass, shuffled_path

R_BIN = make_pmf([0, 1], [0.5, 0.5])
CAND_A = make_pmf([0, 1], [0.6, 0.4])
CAND_B = make_pmf([0, 1], [0.9, 0.1])


def two_grid(weights=None):
    return make_prior_grid([CAND_A, CAND_B], weights)


class TestPosteriorUpdate:
    def test_single_candidate(self):
        prior = make_prior_grid([CAND_A])
        state = posterior_update(prior, Sample((0.0, 1.0)))
        assert np.allclose(np.exp(state.log_posterior), [1.0])

    def test_identical_candidates_stay_even(self):
        prior = make_prior_grid([CAND_A, CAND_A])
        state = posterior_update(prior, Sample((0.0, 1.0, 1.0)))
        assert np.allclose(np.exp(state.log_posterior), [0.5, 0.5])

    def test_balanced_counts_ratio(self):
        prior = two_grid()
        obs = (0.0,) * 50 + (1.0,) * 50
        state = posterior_update(prior, Sample(obs))
        expected_gap = 50.0 * math.log((0.6 * 0.4) / (0.9 * 0.1))
        gap = state.log_posterior[0] - state.log_posterior[1]
        assert math.isclose(gap, expected_gap, rel_tol=1e-12)
        assert np.argmax(state.log_posterior) == 0

    def test_normalization_invariant(self):
        from scipy.special import logsumexp

        prior = two_grid([0.3, 0.7])
        state = posterior_update(prior, Sample((0.0, 1.0, 0.0)))
        assert abs(logsumexp(state.log_posterior)) <= 1e-10

    def test_sequential_equals_concatenated(self):
        prior = two_grid([0.2, 0.8])
        a = Sample((0.0, 1.0, 1.0))
        b = Sample((1.0, 0.0))
        s1 = posterior_update(prior, b, posterior_update(prior, a))
        s2 = posterior_update(prior, Sample(a.observations + b.observations))
        assert np.array_equal(s1.log_posterior, s2.log_posterior)
        assert np.array_equal(s1.cum_loglik, s2.cum_loglik)
        assert s1.n == s2.n == 5

    def test_all_zero_likelihood(self):
        prior = make_prior_grid([make_pmf([0, 1], [1.0, 0.0])])
        with pytest.raises(AllZeroLikelihood):
            posterior_update(prior, Sample((1.0,)))

    def test_offgrid_point_zero_for_all(self):
        prior = two_grid()
        with pytest.raises(AllZeroLikelihood):
            posterior_update(prior, Sample((7.0,)))


GRID3 = make_prior_grid(
    [make_pmf([0, 1, 2], [0.2, 0.5, 0.3]), make_pmf([0, 1, 2], [0.61, 0.09, 0.3]),
     make_pmf([0, 1, 2], [0.1, 0.13, 0.77])],
    [0.25, 0.35, 0.4],
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_posterior_update_ignores_observation_order(data):
    obs = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=400))
    shuffled = data.draw(st.permutations(obs))
    a = posterior_update(GRID3, Sample(tuple(obs)))
    b = posterior_update(GRID3, Sample(tuple(shuffled)))
    assert np.array_equal(a.cum_loglik, b.cum_loglik)
    assert np.array_equal(a.log_posterior, b.log_posterior)


class TestPerObservationOracle:
    """The counts form against one log mass per draw summed in observation
    order, on the shipped blln setting (R_BIN, CAND_A, CAND_B, Q = {1}).
    The path has the library's multinomial increments, its observations
    in a random order."""

    SCHEDULE = [10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5000, 10000]

    def reference(self, prior, mask, label, seed):
        cells = shuffled_path(
            rng_from(label, seed), R_BIN.weights, self.SCHEDULE, rng_from("test.order", seed)
        )
        table = draw_log_masses(grid_candidates(prior), R_BIN.support[cells])
        return sequential_log_mass(prior.log_prior, table, mask, self.SCHEDULE)

    def test_decay_curve(self):
        prior = two_grid()
        for seed in range(20):
            rep = decay_curve(prior, [1], R_BIN, self.SCHEDULE, seed)
            ref = self.reference(prior, [False, True], "bayes.decay", seed)
            np.testing.assert_allclose(
                rep.empirical_rate, -ref / self.SCHEDULE, rtol=1e-11, atol=0
            )

    def test_blln_check(self):
        prior = two_grid()
        rep = blln_check(prior, R_BIN, 0.05, self.SCHEDULE, range(20))
        mask = np.zeros(prior.k, dtype=bool)
        mask[list(rep.ball_indices)] = True
        for i, seed in enumerate(rep.seeds):
            ref = self.reference(prior, mask, "bayes.blln", seed)
            np.testing.assert_allclose(rep.masses[i], np.exp(ref), rtol=1e-11, atol=0)


class TestMapAndMean:
    def test_map_prior_argmax_before_data(self):
        prior = two_grid([0.3, 0.7])
        from elmap.bayes import PosteriorState

        state = PosteriorState(
            log_posterior=prior.log_prior.copy(), cum_loglik=np.zeros(2),
            counts=np.zeros(2, dtype=np.int64),
        )
        assert map_candidate(state) == [1]

    def test_map_symmetric_tie(self):
        prior = make_prior_grid([CAND_A, make_pmf([0, 1], [0.4, 0.6])])
        state = posterior_update(prior, Sample((0.0, 1.0)))
        assert map_candidate(state) == [0, 1]

    def test_map_long_sample_is_projection(self):
        prior = two_grid()
        rng = rng_from("test.map", 0)
        obs = rng.choice([0.0, 1.0], size=3000)
        state = posterior_update(prior, Sample(tuple(obs)))
        assert map_candidate(state) == [0]  # L 0.7136 < 1.2040

    def test_posterior_mean_point_mass(self):
        prior = two_grid()
        obs = (0.0,) * 200
        state = posterior_update(prior, Sample(obs))
        pm = posterior_mean(state, prior)
        lead = np.exp(state.log_posterior).max()
        assert lead > 0.999
        assert np.max(np.abs(pm.weights - CAND_B.weights)) <= 2e-3

    def test_posterior_mean_even_mixture(self):
        prior = make_prior_grid(
            [make_pmf([0, 1], [1.0, 0.0]), make_pmf([0, 1], [0.0, 1.0])]
        )
        from elmap.bayes import PosteriorState

        state = PosteriorState(
            log_posterior=np.log([0.5, 0.5]), cum_loglik=np.zeros(2),
            counts=np.zeros(2, dtype=np.int64),
        )
        pm = posterior_mean(state, prior)
        assert np.allclose(pm.weights, [0.5, 0.5])


class TestMapMnplAgreement:
    def test_equal_priors_exact_at_every_n(self):
        prior = two_grid()
        rng = rng_from("test.agree", 1)
        obs = tuple(rng.choice([0.0, 1.0], size=200))
        for n in range(1, 201):
            state = posterior_update(prior, Sample(obs[:n]))
            mn_idx, _ = mnpl_grid(Sample(obs[:n]), grid_candidates(prior))
            assert map_candidate(state) == mn_idx

    def test_unequal_priors_agree_at_large_n(self):
        prior = two_grid([0.05, 0.95])
        for seed in range(20):
            rng = rng_from("test.agree2", seed)
            obs = tuple(rng.choice([0.0, 1.0], size=10000))
            state = posterior_update(prior, Sample(obs))
            mn_idx, _ = mnpl_grid(Sample(obs), grid_candidates(prior))
            assert map_candidate(state) == mn_idx


class TestDecayCurve:
    def test_full_set_zero_rate(self):
        rep = decay_curve(two_grid(), [0, 1], R_BIN, [10, 100], seed=0)
        assert all(abs(r) <= 1e-12 for r in rep.empirical_rate)
        assert rep.theoretical_rate == 0.0

    def test_rate_value(self):
        gap = l_divergence(CAND_B, R_BIN) - l_divergence(CAND_A, R_BIN)
        rates = [
            decay_curve(two_grid(), [1], R_BIN, [5000], seed).empirical_rate[-1]
            for seed in range(20)
        ]
        assert abs(np.mean(rates) - gap) <= 0.05 * gap
        assert math.isclose(gap, 0.490415, abs_tol=5e-7)

    def test_q_containing_projection_zero_rate(self):
        rep = decay_curve(two_grid(), [0], R_BIN, [2000], seed=3)
        assert rep.theoretical_rate == 0.0
        assert abs(rep.empirical_rate[-1]) <= 1e-3

    def test_projection_indices(self):
        rep = decay_curve(two_grid(), [1], R_BIN, [100], seed=0)
        assert rep.projections == (0,)

    def test_infinite_rate(self):
        defective = make_pmf([0, 1], [1.0, 0.0])
        prior = make_prior_grid([CAND_A, defective])
        with pytest.raises(InfiniteRate):
            decay_curve(prior, [1], R_BIN, [100], seed=0)

    def test_misspecification_allowed(self):
        r = make_pmf([0, 1], [0.45, 0.55])  # not on the grid
        rep = decay_curve(two_grid(), [1], r, [1000], seed=0)
        assert rep.theoretical_rate > 0

    @pytest.mark.parametrize("schedule", [[], [0, 10], [10, -5], [10.5], [math.nan]])
    def test_rejects_bad_schedule(self, schedule):
        with pytest.raises(DomainViolation):
            decay_curve(two_grid(), [1], R_BIN, schedule, seed=0)

    def test_rate_at_ten_million_within_clt_spread(self):
        # Per draw x the log-likelihood ratio of CAND_A to CAND_B moves by
        # log(A_x / B_x); with equal priors the rate is that ratio over n to
        # within log 2 / n.
        n = 10**7
        llr = np.log(CAND_A.weights / CAND_B.weights)
        gap = float(R_BIN.weights @ llr)
        sd = math.sqrt(float(R_BIN.weights @ (llr - gap) ** 2))
        for seed in range(5):
            rate = decay_curve(two_grid(), [1], R_BIN, [n], seed).empirical_rate[-1]
            assert abs(rate - gap) <= 6.0 * sd / math.sqrt(n) + math.log(2.0) / n


class TestBlln:
    @pytest.mark.parametrize("schedule", [[], [0, 10], [10, -5], [10.5], [math.nan]])
    def test_rejects_bad_schedule(self, schedule):
        with pytest.raises(DomainViolation):
            blln_check(two_grid(), R_BIN, 0.05, schedule, seeds=[0])

    def test_wellspecified_truth_on_grid(self):
        prior = make_prior_grid([CAND_A, CAND_B, R_BIN])
        rep = blln_check(prior, R_BIN, 0.05, [10, 100, 1000], seeds=[0, 1, 2])
        assert rep.projections == (2,)
        assert rep.masses[:, -1].min() >= 0.99

    def test_misspecified_concentration(self):
        rep = blln_check(two_grid(), R_BIN, 0.05, [100, 10000], seeds=range(20))
        assert np.sort(rep.masses[:, -1])[1] >= 0.99  # at least 19/20 seeds

    def test_epsilon_larger_than_diameter(self):
        rep = blln_check(two_grid(), R_BIN, 0.9, [10, 100], seeds=[0])
        assert np.allclose(rep.masses, 1.0)

    def test_median_monotone_field(self):
        rep = blln_check(two_grid(), R_BIN, 0.05, [10, 100, 1000, 10000], seeds=range(8))
        assert rep.median_monotone
        assert rep.medians[-1] >= 0.99


@pytest.fixture(scope="module")
def config():
    r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
    prior = split_mean_prior(r, 0.7, 1.3, per_side=8, spread=0.4)
    return r, prior


class TestExample21:
    def test_symmetry_precheck_tight(self, config):
        r, prior = config
        means = np.array([c.mean() for c in grid_candidates(prior)])
        vals = np.array([l_divergence(c, r) for c in grid_candidates(prior)])
        v_low = vals[means <= 0.7 + 1e-9].min()
        v_high = vals[means >= 1.3 - 1e-9].min()
        assert abs(v_low - v_high) <= 1e-9

    def test_asymmetric_config_rejected(self, config):
        r, prior = config
        skewed = make_pmf([0, 1, 2], [0.25, 0.55, 0.2])
        with pytest.raises(AsymmetricConfig):
            example21(0.7, 1.3, skewed, prior, 100, seeds=[0])

    def test_posterior_lands_in_the_two_balls(self, config):
        r, prior = config
        rep = example21(0.7, 1.3, r, prior, n=10000, seeds=range(20), epsilon=0.05)
        assert rep.mass_sum.min() >= 0.99
        assert rep.map_in_union.all()

    def test_both_components_visited_across_seeds(self, config):
        # the posterior locks onto one component per path, but which one
        # varies by seed, so the posterior mean has no almost-sure limit
        r, prior = config
        rep = example21(0.7, 1.3, r, prior, n=10000, seeds=range(20), epsilon=0.05)
        assert (rep.mass_low > 0.5).any()
        assert (rep.mass_high > 0.5).any()
        # per seed the mixture mean sits far from at least one projection
        half_d = 0.5 * rep.projection_tv
        assert np.all(np.maximum(rep.tv_mean_low, rep.tv_mean_high) >= half_d - 1e-9)

    def test_mean_of_means_mean_value_near_center(self, config):
        # averaged over seeds the posterior-mean distribution recenters
        # near E[X] = 1, which lies in neither parameter component
        r, prior = config
        rep = example21(0.7, 1.3, r, prior, n=10000, seeds=range(20), epsilon=0.05)
        assert 0.7 < rep.mean_of_means.mean() < 1.3


class TestGridProjections:
    def test_values_and_indices(self):
        vals, idx = grid_l_projections(two_grid(), R_BIN)
        assert idx == [0]
        assert math.isclose(vals[0], 0.713558, abs_tol=5e-7)
        assert math.isclose(vals[1], 1.203973, abs_tol=5e-7)


class TestTypedErrors:
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
    def test_blln_epsilon_not_positive(self, epsilon):
        with pytest.raises(DomainViolation):
            blln_check(two_grid(), R_BIN, epsilon, [10], seeds=[0])

    @pytest.mark.parametrize("n", [0, -5])
    def test_example21_n_below_one(self, config, n):
        r, prior = config
        with pytest.raises(DomainViolation):
            example21(0.7, 1.3, r, prior, n, seeds=[0])

    def test_example21_r_off_the_grid_support(self, config):
        _, prior = config
        with pytest.raises(SupportMismatch):
            example21(0.7, 1.3, make_pmf([0, 1, 3], [0.2, 0.6, 0.2]), prior, 100, seeds=[0])

    def test_empty_grid(self):
        with pytest.raises(LengthMismatch):
            make_prior_grid([])
        with pytest.raises(LengthMismatch):
            PriorGrid(R_BIN.support, np.zeros((0, 2)), np.zeros(0))

    def test_log_prior_length(self):
        with pytest.raises(LengthMismatch):
            make_prior_grid([CAND_A, CAND_B], [1.0, 2.0, 3.0])
        with pytest.raises(LengthMismatch):
            PriorGrid(R_BIN.support, two_grid().weights, np.zeros(3))

    def test_candidates_on_different_supports(self):
        with pytest.raises(SupportMismatch):
            make_prior_grid([CAND_A, make_pmf([0, 2], [0.5, 0.5])])

    @pytest.mark.parametrize("w", [[1.0, 0.0], [1.0, -1.0], [1.0, math.nan], [1.0, math.inf]])
    def test_prior_weight_not_positive_or_not_finite(self, w):
        with pytest.raises(DomainViolation):
            make_prior_grid([CAND_A, CAND_B], w)

    @pytest.mark.parametrize("per_side", [0, -1, 2.5])
    def test_split_prior_per_side(self, per_side):
        r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        with pytest.raises(DomainViolation):
            split_mean_prior(r, 0.7, 1.3, per_side)

    @pytest.mark.parametrize("q", [[1.9], [math.nan]])
    def test_q_index_not_whole(self, q):
        with pytest.raises(DomainViolation):
            decay_curve(two_grid(), q, R_BIN, [10], seed=0)

    def test_mean_inside_excluded_band(self):
        r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        prior = make_prior_grid([r, make_pmf([0, 1, 2], [0.5, 0.3, 0.2])])
        with pytest.raises(DomainViolation):
            split_projections(prior, r, 0.7, 1.3)


# -- the array form against a per-candidate reference --------------------------


def example21_per_candidate(theta1, theta2, r, n, seeds, epsilon, per_side=8, spread=0.4):
    """example21 on split_mean_prior's grid, one candidate at a time: each
    candidate a make_pmf, TV distances by tv_distance, log masses by
    log_mass_table and the component minima by l_divergence."""
    thetas = np.concatenate([np.linspace(theta1 - spread, theta1, per_side),
                             np.linspace(theta2, theta2 + spread, per_side)])
    cands = [make_pmf(r.support, w)
             for w in l_project_stack(r, mean_model(), thetas[:, None]).weights]
    means = np.array([c.mean() for c in cands])
    vals = np.array([l_divergence(c, r) for c in cands])
    low = np.flatnonzero(means <= theta1 + 1e-9)
    high = np.flatnonzero(means >= theta2 - 1e-9)
    p_lo, p_hi = int(low[np.argmin(vals[low])]), int(high[np.argmin(vals[high])])
    ball_lo = [tv_distance(c, cands[p_lo]) <= epsilon for c in cands]
    ball_hi = [tv_distance(c, cands[p_hi]) <= epsilon for c in cands]
    table = log_mass_table(cands, r.support)
    lp = np.zeros(len(cands)) - np.log(len(cands))
    fields = {k: [] for k in ("mass_low", "mass_high", "tv_mean_low", "tv_mean_high",
                              "map_in_union")}
    mean_stack = np.zeros(r.m)
    for seed in seeds:
        counts = path_counts(rng_from("bayes.example21", seed), r.weights, [n])[-1]
        log_post = lp + counts_loglik(table, counts)
        log_post = log_post - logsumexp(log_post)
        post = np.exp(log_post)
        fields["mass_low"].append(float(post[ball_lo].sum()))
        fields["mass_high"].append(float(post[ball_hi].sum()))
        pm = make_pmf(r.support, post @ np.stack([c.weights for c in cands]))
        fields["tv_mean_low"].append(tv_distance(pm, cands[p_lo]))
        fields["tv_mean_high"].append(tv_distance(pm, cands[p_hi]))
        modes = np.flatnonzero(log_post >= log_post.max() - 1e-12)
        fields["map_in_union"].append(all(ball_lo[j] or ball_hi[j] for j in modes))
        mean_stack += pm.weights
    return cands, p_lo, p_hi, tv_distance(cands[p_lo], cands[p_hi]), fields, mean_stack


class TestArrayFormAgreement:
    """PriorGrid's weight matrix and its stored log against the
    per-candidate computations they replace, bit for bit."""

    def random_stacks(self, count):
        rng = np.random.default_rng(20261019)
        for _ in range(count):
            m = int(rng.integers(2, 17))
            support = np.sort(rng.choice(np.arange(-20, 21), size=m, replace=False)) / 4.0
            law = rng.dirichlet(np.full(m, 0.7))
            law[rng.random(m) < 0.15] = 0.0
            if law.sum() == 0.0:
                law[rng.integers(m)] = 1.0
            r = make_pmf(support, law / law.sum())
            on = r.support[r.weights > 0]
            if on.size < 2:
                continue
            thetas = rng.uniform(on[0], on[-1], size=int(rng.integers(1, 20)))
            proj = l_project_stack(r, mean_model(), thetas[:, None])
            yield rng, r, proj.weights[np.isfinite(proj.value)]

    def test_row_normaliser_matches_make_pmf(self):
        rows = settled = 0
        for rng, r, w in self.random_stacks(200):
            perm = rng.permutation(r.m)  # unsorted input, as make_pmf accepts
            sup, out = normalize_rows(r.support[perm], w[:, perm])
            for k in range(len(w)):
                ref = make_pmf(r.support[perm], w[k, perm])
                assert np.array_equal(sup, ref.support)
                assert np.array_equal(out[k], ref.weights), (r, k)
            rows += len(w)
            settled += int(np.sum((w / w.sum(axis=1, keepdims=True)).sum(axis=1) != 1.0))
        assert rows > 1000 and settled > 50  # the residual loop ran on many rows

    def test_tv_ball_matches_tv_distance_loop(self, config):
        r, split = config
        grids = [split] + [make_prior_grid([make_pmf(r.support, row) for row in w])
                           for _, r, w in self.random_stacks(30) if len(w) >= 3]
        for prior in grids:
            cands = grid_candidates(prior)
            d = np.array([[tv_distance(a, b) for b in cands] for a in cands])
            for centers in ([0], [0, prior.k - 1]):
                for eps in (0.05, float(d[0, prior.k // 2]), float(d[-1, 1])):
                    ref = [any(d[i, p] <= eps for p in centers) for i in range(prior.k)]
                    assert np.array_equal(_tv_ball(prior, centers, eps), ref)

    def test_posterior_loglik_matches_log_mass_table(self, config):
        _, split = config
        rng = np.random.default_rng(7)
        for prior in (split, GRID3, two_grid([0.3, 0.7])):
            table = log_mass_table(grid_candidates(prior), prior.support)
            assert np.array_equal(prior.log_masses(prior.support), table)
            for _ in range(50):
                counts = rng.integers(0, 10**6, size=prior.support.size)
                state = _posterior(prior, counts)
                assert np.array_equal(state.cum_loglik, counts_loglik(table, counts))
        wide = np.array([-1.0, 0.0, 1.0, 2.0])
        assert np.array_equal(two_grid().log_masses(wide),
                              log_mass_table(grid_candidates(two_grid()), wide))

    def test_example21_report_on_shipped_settings(self, config):
        r, prior = config
        seeds = range(20)
        cands, p_lo, p_hi, d12, ref, mean_stack = example21_per_candidate(
            0.7, 1.3, r, 10000, seeds, 0.05)
        assert all(a == b for a, b in zip(grid_candidates(prior), cands))
        rep = example21(0.7, 1.3, r, prior, n=10000, seeds=seeds, epsilon=0.05)
        assert (rep.proj_low, rep.proj_high, rep.projection_tv) == (p_lo, p_hi, d12)
        for name, values in ref.items():
            assert np.array_equal(getattr(rep, name), values), name
        assert rep.mean_of_means == make_pmf(r.support, mean_stack / len(seeds))

    def random_grids(self, count):
        """Grids of candidates with zero weights, each with an r on a
        subset of the grid's support, in half the draws with an atom off it."""
        rng = np.random.default_rng(17)
        for _ in range(count):
            m = int(rng.integers(2, 9))
            support = np.sort(rng.choice(np.arange(-12, 13), size=m, replace=False)) / 4.0
            w = rng.dirichlet(np.ones(m), size=int(rng.integers(1, 9)))
            w[rng.random(w.shape) < 0.25] = 0.0
            w = w[w.sum(axis=1) > 0.0]
            r_sup = support[rng.random(m) < 0.8]
            if rng.random() < 0.5:
                r_sup = np.append(r_sup, 5.0)
            if len(w) == 0 or r_sup.size == 0:
                continue
            r_w = rng.dirichlet(np.ones(r_sup.size))
            yield make_prior_grid([make_pmf(support, row / row.sum()) for row in w]), \
                make_pmf(r_sup, r_w)

    def test_grid_l_projections_match_per_candidate_l_divergence(self, config):
        r, split = config
        ref = np.array([l_divergence(c, r) for c in grid_candidates(split)])  # 8 low, 8 high
        low, high = int(np.argmin(ref[:8])), 8 + int(np.argmin(ref[8:]))
        assert split_projections(split, r, 0.7, 1.3) == (low, high)
        infinite = none_finite = 0
        for prior, r in [(split, r)] + list(self.random_grids(400)):
            ref = np.array([l_divergence(c, r) for c in grid_candidates(prior)])
            if np.isinf(ref).all():
                with pytest.raises(InfiniteRate):
                    grid_l_projections(prior, r)
                none_finite += 1
                continue
            vals, idx = grid_l_projections(prior, r)
            # the scores split_projections took before, one log-mass row per candidate
            table = log_mass_table(grid_candidates(prior), r.support)
            assert np.array_equal(vals, -counts_loglik(table, r.weights))
            fin = np.isfinite(ref)
            assert np.array_equal(np.isfinite(vals), fin)
            assert np.allclose(vals[fin], ref[fin], rtol=1e-14, atol=0.0)
            assert idx == [int(i) for i in np.flatnonzero(ref <= ref.min() + PROJECTION_TIE)]
            infinite += int((~fin).sum())
        assert infinite > 200 and none_finite > 50
