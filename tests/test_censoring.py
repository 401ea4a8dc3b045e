import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmap.bayes import make_prior_grid
from elmap.censoring import (
    CensoredObservation,
    CensoringModel,
    SurvivalCurve,
    censor_generate,
    censored_decay_experiment,
    censored_grid_divergences,
    censored_l_divergence,
    censored_loglik,
    censored_posterior,
    kaplan_meier,
)
from elmap.divergences import l_divergence
from elmap.errors import DomainViolation, InfiniteRate, NoEvents
from elmap.prob import Sample, empirical_pmf, make_pmf
from elmap.rng import rng_from
from oracles import (
    censored_el_bruteforce,
    draw_log_masses,
    grid_candidates,
    sequential_log_mass,
    shuffled_path,
)

GRID = [1.0, 2.0, 3.0]
F0 = make_pmf(GRID, [0.5, 0.3, 0.2])
G0 = make_pmf(GRID, [0.1, 0.9, 0.0])
MODEL = CensoringModel(F0, G0)
CAND_A = make_pmf(GRID, [0.5, 0.3, 0.2])
CAND_B = make_pmf(GRID, [0.6, 0.3, 0.1])


def obs(*pairs):
    return [CensoredObservation(t, bool(c)) for t, c in pairs]


class TestModel:
    def test_alpha_value(self):
        # P(X <= Y) with ties counted as events: 0.1*0.5 + 0.9*0.8
        assert math.isclose(MODEL.alpha_unc, 0.77, rel_tol=1e-15)

    def test_alpha_derived_from_components(self):
        model = CensoringModel(F0, G0)
        assert model.alpha_unc == MODEL.alpha_unc
        assert model == MODEL


class TestGenerate:
    def test_all_uncensored(self):
        f = make_pmf(GRID, [0.5, 0.5, 0.0])
        g = make_pmf(GRID, [0.0, 0.0, 1.0])  # censor time beyond all events
        model = CensoringModel(f, g)
        assert model.alpha_unc == 1.0
        data = censor_generate(model, 200, seed=0)
        assert not any(o.censored for o in data)

    def test_all_censored(self):
        f = make_pmf(GRID, [0.0, 0.0, 1.0])
        g = make_pmf(GRID, [1.0, 0.0, 0.0])
        model = CensoringModel(f, g)
        assert model.alpha_unc == 0.0
        data = censor_generate(model, 200, seed=0)
        assert all(o.censored for o in data)

    def test_censored_fraction_concentrates(self):
        data = censor_generate(MODEL, 10000, seed=1)
        frac = sum(o.censored for o in data) / len(data)
        assert abs(frac - (1.0 - MODEL.alpha_unc)) <= 0.02

    def test_deterministic(self):
        a = censor_generate(MODEL, 50, seed=3)
        b = censor_generate(MODEL, 50, seed=3)
        assert a == b

    def test_stream_pinned(self):
        data = censor_generate(MODEL, 8, seed=0)
        assert [(o.time, o.censored) for o in data] == [
            (1.0, False), (3.0, False), (1.0, False), (2.0, True),
            (3.0, False), (1.0, False), (3.0, False), (3.0, False),
        ]

    def test_rejects_empty_sample(self):
        with pytest.raises(DomainViolation):
            censor_generate(MODEL, 0, seed=0)

    def test_typed_errors(self):
        # a non-integral or non-finite size is rejected, not truncated;
        # whole numbers pass in any type
        for n in (2.5, math.nan, math.inf):
            with pytest.raises(DomainViolation):
                censor_generate(MODEL, n, seed=0)
        assert censor_generate(MODEL, 8.0, seed=0) == censor_generate(MODEL, 8, seed=0)
        assert censor_generate(MODEL, np.int64(8), seed=0) == censor_generate(MODEL, 8, seed=0)

    def test_size_must_be_one_number(self):
        for n in ([8], np.array([8]), ((8,), (8, 8))):
            with pytest.raises(DomainViolation):
                censor_generate(MODEL, n, seed=0)

    def test_numpy_int_seed_is_the_int(self):
        # a seed keys its stream by value, whatever its integer type
        for seed in (0, 3, 2**40):
            assert censor_generate(MODEL, 20, np.int64(seed)) == censor_generate(MODEL, 20, seed)


class TestLoglik:
    def test_uncensored_reduction(self):
        data = obs((1, 0), (2, 0), (2, 0), (3, 0))
        cand = make_pmf(GRID, [0.25, 0.5, 0.25])
        direct = -sum(math.log(cand.mass(o.time)) for o in data)
        assert math.isclose(censored_loglik(cand, data), direct, rel_tol=1e-15)
        # matches the uncensored Kerridge identity
        sample = Sample(tuple(o.time for o in data))
        nu = empirical_pmf(sample)
        assert abs(censored_loglik(cand, data) - sample.n * l_divergence(cand, nu)) <= 1e-10

    def test_ecdf_is_uncensored_minimizer(self):
        data = obs((1, 0), (2, 0), (2, 0), (3, 0))
        ecdf = empirical_pmf(Sample(tuple(o.time for o in data)))
        best = censored_loglik(ecdf, data)
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.dirichlet(np.ones(3))
            cand = make_pmf(GRID, w)
            assert censored_loglik(cand, data) >= best - 1e-12

    def test_mixed_value(self):
        data = obs((1, 0), (2, 1), (3, 0))
        cand = make_pmf([1.0, 3.0], [1 / 3, 2 / 3])
        expected = -(math.log(1 / 3) + math.log(2 / 3) + math.log(2 / 3))
        assert math.isclose(censored_loglik(cand, data), expected, rel_tol=1e-15)

    def test_support_failure_infinite(self):
        data = obs((3, 1),)
        cand = make_pmf(GRID, [0.5, 0.5, 0.0])
        assert censored_loglik(cand, data) == math.inf


class TestKaplanMeier:
    def test_all_uncensored_is_ecdf(self):
        data = obs((1, 0), (2, 0), (2, 0), (3, 0))
        curve = kaplan_meier(data)
        assert np.allclose(curve.atoms, [0.25, 0.5, 0.25], atol=1e-12)
        assert curve.defect <= 1e-12

    def test_three_point_example(self):
        curve = kaplan_meier(obs((1, 0), (2, 1), (3, 0)))
        assert np.allclose(curve.event_times, [1.0, 3.0])
        assert np.allclose(curve.atoms, [1 / 3, 2 / 3], atol=1e-12)
        assert np.allclose(curve.survival, [2 / 3, 0.0], atol=1e-12)

    def test_trailing_censor_defective(self):
        curve = kaplan_meier(obs((1, 0), (2, 1)))
        assert np.allclose(curve.atoms, [0.5])
        assert math.isclose(curve.defect, 0.5, rel_tol=1e-12)
        assert curve.survival[-1] > 0

    def test_no_events(self):
        with pytest.raises(NoEvents):
            kaplan_meier(obs((1, 1), (2, 1)))

    def test_tie_events_first(self):
        # censored at the same time stays in the risk set for that time
        curve = kaplan_meier(obs((1, 0), (1, 1), (2, 0)))
        assert np.allclose(curve.atoms, [1 / 3, 2 / 3], atol=1e-12)

    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=30
        ).filter(lambda rows: any(not c for _, c in rows))
    )
    @settings(max_examples=1000, deadline=None)
    def test_curve_invariants(self, rows):
        curve = kaplan_meier(obs(*((float(t), c) for t, c in rows)))
        assert np.all(np.diff(curve.survival) <= 1e-12)
        assert np.all(curve.atoms >= -1e-12)
        assert curve.atoms.sum() <= 1.0 + 1e-9


class TestBruteforceAgreement:
    def test_single_event_later_censor(self):
        fit = censored_el_bruteforce(obs((1, 0), (2, 1)))
        assert np.allclose(fit.support, [1.0, 3.0])
        assert np.allclose(fit.weights, [0.5, 0.5], atol=1e-7)

    def test_uncensored_is_ecdf(self):
        fit = censored_el_bruteforce(obs((1, 0), (2, 0), (2, 0)))
        assert np.allclose(fit.weights, [1 / 3, 2 / 3], atol=1e-7)

    def test_exhaustive_patterns_match_kaplan_meier(self):
        worst = 0.0
        for n in range(1, 6):
            for flags in itertools.product([False, True], repeat=n):
                if all(flags):
                    continue
                data = obs(*((float(i + 1), f) for i, f in enumerate(flags)))
                km = kaplan_meier(data)
                bf = censored_el_bruteforce(data)
                for t, a in zip(km.event_times, km.atoms):
                    worst = max(worst, abs(bf.mass(float(t)) - a))
                extra = 1.0 - sum(bf.mass(float(t)) for t in km.event_times)
                worst = max(worst, abs(extra - km.defect))
        assert worst <= 1e-6


class TestCensoredDivergence:
    def test_alpha_one_reduces_to_plain_divergence(self):
        f = make_pmf(GRID, [0.5, 0.5, 0.0])
        g = make_pmf(GRID, [0.0, 0.0, 1.0])
        model = CensoringModel(f, g)
        cand = make_pmf(GRID, [0.3, 0.4, 0.3])
        # censored integral weighted by zero; only events contribute
        assert math.isclose(
            censored_l_divergence(cand, model), l_divergence(cand, f), rel_tol=1e-12
        )

    def test_alpha_zero_depends_on_tails_only(self):
        f = make_pmf(GRID, [0.0, 0.0, 1.0])
        g = make_pmf(GRID, [1.0, 0.0, 0.0])
        model = CensoringModel(f, g)
        c1 = make_pmf(GRID, [0.2, 0.4, 0.4])
        c2 = make_pmf(GRID, [0.2, 0.3, 0.5])  # same tail beyond 1
        assert math.isclose(
            censored_l_divergence(c1, model), -math.log(0.8), rel_tol=1e-12
        )
        assert math.isclose(
            censored_l_divergence(c2, model), -math.log(0.8), rel_tol=1e-12
        )

    def test_slln(self):
        data = censor_generate(MODEL, 100000, seed=11)
        for cand in (CAND_A, CAND_B):
            ln = censored_loglik(cand, data) / len(data)
            lim = censored_l_divergence(cand, MODEL)
            assert abs(ln - lim) <= 0.01 * lim


class TestDecay:
    def test_full_set_zero_rate(self):
        prior = make_prior_grid([CAND_A, CAND_B])
        reps = censored_decay_experiment(prior, [0, 1], MODEL, [200], [0])
        assert abs(reps[0].empirical_rate[-1]) <= 1e-12

    def test_rate_matches_gap(self):
        prior = make_prior_grid([CAND_A, CAND_B])
        gap = censored_l_divergence(CAND_B, MODEL) - censored_l_divergence(CAND_A, MODEL)
        reps = censored_decay_experiment(prior, [1], MODEL, [5000], range(20))
        rates = [r.empirical_rate[-1] for r in reps]
        assert abs(np.mean(rates) - gap) <= 0.05 * gap

    def test_map_matches_divergence_argmin(self):
        prior = make_prior_grid([CAND_A, CAND_B])
        data = censor_generate(MODEL, 10000, seed=2)
        post, _ = censored_posterior(prior, data)
        assert int(np.argmax(post)) == 0

    def test_infinite_rate_detected(self):
        bad = make_pmf(GRID, [1.0, 0.0, 0.0])  # no tail beyond 2, no mass at 2,3
        prior = make_prior_grid([bad])
        with pytest.raises(InfiniteRate):
            censored_decay_experiment(prior, [0], MODEL, [100], [0])

    def test_posterior_normalized(self):
        from scipy.special import logsumexp

        prior = make_prior_grid([CAND_A, CAND_B], [0.4, 0.6])
        data = censor_generate(MODEL, 100, seed=9)
        post, _ = censored_posterior(prior, data)
        assert abs(logsumexp(post)) <= 1e-10

    def test_rates_match_per_observation_oracle(self):
        # the shipped censor setting, against one log mass per observation
        # summed in observation order; the path has the library's multinomial
        # increments over the 2m + 1 cells, its observations in a random order
        prior = make_prior_grid([CAND_A, CAND_B])
        schedule = [10, 40, 160, 640, 2560, 5000]
        reps = censored_decay_experiment(prior, [1], MODEL, schedule, range(20))
        # cells: an event at each atom, a censoring before the first atom
        # (mass 0 under the model), a censoring at each atom
        alpha = MODEL.alpha_unc
        law = np.concatenate([alpha * F0.weights, [0.0], (1.0 - alpha) * G0.weights])
        times = np.concatenate([GRID, [0.0], GRID])
        censored = np.repeat([False, True], [len(GRID), len(GRID) + 1])
        for rep in reps:
            cells = shuffled_path(
                rng_from("censor.decay", rep.seed), law, schedule,
                rng_from("test.order", rep.seed),
            )
            table = draw_log_masses(grid_candidates(prior), times[cells], censored[cells])
            ref = sequential_log_mass(prior.log_prior, table, [False, True], schedule)
            np.testing.assert_allclose(
                rep.empirical_rate, -ref / schedule, rtol=1e-11, atol=0
            )

    @pytest.mark.parametrize("schedule", [[], [0, 10], [10, -5], [10.5], [math.nan]])
    def test_rejects_bad_schedule(self, schedule):
        prior = make_prior_grid([CAND_A, CAND_B])
        with pytest.raises(DomainViolation):
            censored_decay_experiment(prior, [1], MODEL, schedule, [0])

    def test_rate_at_one_million_within_clt_spread(self):
        # Per observation the log-likelihood ratio of CAND_A to CAND_B moves
        # by the log ratio of their masses of it (an atom at an event, a tail
        # at a censoring); with equal priors the rate is that ratio over n to
        # within log 2 / n.
        n = 10**6
        alpha = MODEL.alpha_unc
        prob = np.concatenate([alpha * F0.weights, (1.0 - alpha) * G0.weights])
        keep = prob > 0.0
        times = np.concatenate([GRID, GRID])[keep]
        censored = np.repeat([False, True], len(GRID))[keep]
        log_mass = draw_log_masses([CAND_A, CAND_B], times, censored)
        llr = log_mass[0] - log_mass[1]
        gap = float(prob[keep] @ llr)
        sd = math.sqrt(float(prob[keep] @ (llr - gap) ** 2))
        prior = make_prior_grid([CAND_A, CAND_B])
        for rep in censored_decay_experiment(prior, [1], MODEL, [n], range(5)):
            err = abs(rep.empirical_rate[-1] - gap)
            assert err <= 6.0 * sd / math.sqrt(n) + math.log(2.0) / n

    def test_sequential_equals_concatenated(self):
        prior = make_prior_grid([CAND_A, CAND_B])
        data = censor_generate(MODEL, 40, seed=4)
        _, cum_a = censored_posterior(prior, data[:25])
        post_chain, cum_chain = censored_posterior(prior, data[25:], carried=cum_a)
        post_once, cum_once = censored_posterior(prior, data)
        assert np.array_equal(post_chain, post_once)
        assert np.array_equal(cum_chain, cum_once)


class TestGridDivergences:
    """The grid's censored divergences, one matrix product, against
    censored_l_divergence one candidate at a time."""

    def test_match_per_candidate(self):
        rng = np.random.default_rng(29)

        def rows(size, m):
            w = rng.dirichlet(np.ones(m), size=size)
            w[rng.random(w.shape) < 0.3] = 0.0
            w[w.sum(axis=1) == 0.0, 0] = 1.0
            return w / w.sum(axis=1, keepdims=True)

        infinite = finite = 0
        for _ in range(300):
            m = int(rng.integers(1, 8))
            grid = np.sort(rng.choice(np.arange(1, 20), size=m, replace=False)).astype(float)
            f0, g0 = rows(2, m)
            model = CensoringModel(make_pmf(grid, f0), make_pmf(grid, g0))
            prior = make_prior_grid([make_pmf(grid, w) for w in rows(int(rng.integers(1, 9)), m)])
            vals = censored_grid_divergences(prior, model)
            ref = np.array([censored_l_divergence(c, model) for c in grid_candidates(prior)])
            fin = np.isfinite(ref)
            assert np.array_equal(np.isfinite(vals), fin)
            assert np.allclose(vals[fin], ref[fin], rtol=1e-14, atol=0.0)
            infinite += int((~fin).sum())
            finite += int(fin.sum())
            if fin.all():
                rep, = censored_decay_experiment(prior, [prior.k - 1], model, [5], [0])
                assert rep.theoretical_rate == vals[-1] - vals.min()
        assert infinite > 200 and finite > 200


class TestSurvivalCurveValidation:
    def test_rejects_increasing_survival(self):
        with pytest.raises(DomainViolation):
            SurvivalCurve(
                np.array([1.0, 2.0]), np.array([0.5, 0.9]), np.array([0.5, 0.1])
            )
