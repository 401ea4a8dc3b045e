import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from elmap.bayes import make_prior_grid, posterior_update
from elmap.divergences import polya_l_divergence
from elmap import polya
from elmap.errors import AllZeroLikelihood, DomainViolation, InfiniteRate, UrnExhausted
from elmap.estimators import mnpl_grid
from elmap.polya import (
    PolyaPath,
    UrnConfig,
    apportion_counts,
    gamma_ratio_bounds,
    mnpl_asymptotic,
    mnpl_exact,
    polya_counts,
    polya_decay_experiment,
    polya_draw,
    polya_log_prob,
    polya_posterior,
    rebuild_urn,
)
from elmap.prob import Sample, make_pmf
from elmap.rng import derive_seed
from oracles import polya_log_prob_product

R_BIN = make_pmf([0, 1], [0.5, 0.5])
G1 = make_pmf([0, 1], [0.6, 0.4])
G2 = make_pmf([0, 1], [0.9, 0.1])


class TestUrnConfig:
    def test_counts_positive(self):
        with pytest.raises(DomainViolation):
            UrnConfig((0, 2), 1)

    def test_horizon_validity(self):
        assert UrnConfig((5, 5), 1).valid_for_horizon(100)
        assert UrnConfig((5, 5), -1).valid_for_horizon(5)
        assert not UrnConfig((5, 5), -1).valid_for_horizon(6)


class TestDraw:
    def test_c_zero_is_iid(self):
        cfg = UrnConfig((3, 1), 0)
        path = polya_draw(cfg, 20000, seed=0)
        freq = path.counts[0] / path.n
        assert abs(freq - 0.75) <= 0.02

    def test_single_color(self):
        for c in (-1, 0, 2):
            cfg = UrnConfig((4,), c)
            path = polya_draw(cfg, 4, seed=1)
            assert path.counts == (4,)

    def test_without_replacement_exhausts(self):
        cfg = UrnConfig((2, 2), -1)
        for seed in range(10):
            path = polya_draw(cfg, 4, seed=seed)
            assert path.counts == (2, 2)
        with pytest.raises(UrnExhausted):
            polya_draw(cfg, 5, seed=0)

    def test_deterministic_in_seed(self):
        cfg = UrnConfig((2, 3), 1)
        a = polya_draw(cfg, 50, seed=7)
        b = polya_draw(cfg, 50, seed=7)
        assert a.colors == b.colors


def exact_counts_law(cfg, n) -> dict:
    """Every count vector of n draws with its probability: multinomial
    coefficient times the sequence probability of the product form."""
    law = {}
    for counts in itertools.product(range(n + 1), repeat=cfg.m):
        if sum(counts) == n:
            coef = gammaln(n + 1.0) - sum(gammaln(k + 1.0) for k in counts)
            law[counts] = math.exp(coef + polya_log_prob_product(counts, cfg))
    return law


class TestCounts:
    DRAWS = 4000

    @pytest.mark.parametrize(
        "alpha, c, n",
        [((6, 7, 8), -2, 3), ((4, 5, 6), -1, 4), ((2, 3), -1, 2), ((1, 2, 3), 0, 5),
         ((1, 2, 3), 1, 5), ((2, 1, 1), 3, 6)],
    )
    def test_law_matches_enumeration(self, alpha, c, n):
        cfg = UrnConfig(alpha, c)
        law = exact_counts_law(cfg, n)
        assert abs(sum(law.values()) - 1.0) <= 1e-12
        freq = {}
        for seed in range(self.DRAWS):
            counts = polya_counts(cfg, n, seed)
            assert polya_log_prob(counts, cfg) > -math.inf
            freq[counts] = freq.get(counts, 0) + 1
        assert set(freq) <= set(law)
        tv = 0.5 * sum(abs(freq.get(k, 0) / self.DRAWS - p) for k, p in law.items())
        # P(TV >= t) <= 2^K exp(-2 D t^2) for D draws over K outcomes; at 1e-9
        bound = math.sqrt((len(law) * math.log(2.0) - math.log(1e-9)) / (2 * self.DRAWS))
        assert tv <= bound, (tv, bound)

    @given(
        alpha=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        c=st.integers(-3, 4),
        n=st.integers(0, 30),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_properties(self, alpha, c, n, seed):
        cfg = UrnConfig(tuple(alpha), c)
        if c < 0 and not cfg.valid_for_horizon(n):
            with pytest.raises(UrnExhausted):
                polya_counts(cfg, n, seed)
            return
        counts = polya_counts(cfg, n, seed)
        assert len(counts) == cfg.m and min(counts) >= 0 and sum(counts) == n
        assert polya_counts(cfg, n, seed) == counts
        assert polya_counts(UrnConfig(alpha[:1], c), n, seed) == (n,)

    @pytest.mark.parametrize("c", [-1, 0, 1])
    def test_negative_n_rejected(self, c):
        with pytest.raises(DomainViolation):
            polya_counts(UrnConfig((4, 5), c), -1, 0)


class TestLogProb:
    def test_c_zero_value(self):
        cfg = UrnConfig((1, 1), 0)
        assert math.isclose(polya_log_prob((2, 1), cfg), -3 * math.log(2.0), rel_tol=1e-15)

    def test_enumeration_value(self):
        cfg = UrnConfig((1, 1), 1)
        assert math.isclose(polya_log_prob((1, 1), cfg), math.log(1 / 6), rel_tol=1e-12)

    def test_exchangeability_exact(self):
        cfg = UrnConfig((2, 3, 1), 2)
        path = polya_draw(cfg, 30, seed=5)
        perm = tuple(reversed(path.colors))
        counts_perm = tuple(
            sum(1 for c in perm if c == i) for i in range(cfg.m)
        )
        assert counts_perm == path.counts
        assert polya_log_prob(counts_perm, cfg) == polya_log_prob(path.counts, cfg)

    def test_product_vs_gamma_random(self):
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
            b = polya_log_prob(counts, cfg)
            worst = max(worst, abs(a - b))
            checked += 1
        assert worst <= 1e-9

    @staticmethod
    def _outcome(log_prob, counts, cfg):
        try:
            return log_prob(counts, cfg)
        except DomainViolation as exc:
            return exc

    @pytest.mark.parametrize("c", [-1, -2, -3])
    def test_gamma_form_classifies_every_small_urn_as_the_product_form(self, c):
        # every count vector with n <= 8 on urns of m <= 3 colors; alpha 6
        # is a multiple of each |c|, so every c meets zero factors
        agree = {"value": 0, "-inf": 0, "raise": 0}
        for m in (1, 2, 3):
            entries = range(1, 7) if m < 3 else (1, 2, 3, 6)
            for alpha in itertools.product(entries, repeat=m):
                cfg = UrnConfig(alpha, c)
                for counts in itertools.product(range(9), repeat=m):
                    if sum(counts) > 8:
                        continue
                    want = self._outcome(polya_log_prob_product, counts, cfg)
                    got = self._outcome(polya_log_prob, counts, cfg)
                    case = (alpha, counts, want, got)
                    if isinstance(want, DomainViolation):
                        assert isinstance(got, DomainViolation) and str(got) == str(want), case
                        agree["raise"] += 1
                    elif want == -math.inf:
                        assert got == -math.inf, case
                        agree["-inf"] += 1
                    else:
                        assert isinstance(got, float) and abs(got - want) <= 1e-9, case
                        agree["value"] += 1
        assert min(agree.values()) > 0, agree

    def test_gamma_form_leaves_scipy_special_unloaded(self):
        code = (
            "import sys\n"
            "from elmap.polya import UrnConfig, polya_log_prob\n"
            "for c in (-1, 1, 2):\n"
            "    polya_log_prob((2, 1), UrnConfig((3, 4), c))\n"
            "print('scipy.special' in sys.modules)"
        )
        src = str(Path(polya.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert out.stdout.split() == ["False"]

    def test_unreachable_counts(self):
        cfg = UrnConfig((2, 2), -1)
        assert polya_log_prob((3, 1), cfg) == -math.inf  # third draw of color 1 impossible
        with pytest.raises(DomainViolation):
            polya_log_prob((4, 1), cfg)  # factor goes negative


class TestGammaRatioBounds:
    def test_unit_interval_example(self):
        lo, hi = gamma_ratio_bounds(1.0, 2.0)
        assert math.isclose(lo, 2.0 * math.exp(-1.0), rel_tol=1e-15)
        assert math.isclose(hi, 2.0**1.5 * math.exp(-1.0), rel_tol=1e-15)
        assert lo <= 1.0 <= hi

    def test_continuity_as_b_approaches_a(self):
        lo, hi = gamma_ratio_bounds(3.0, 3.0 + 1e-9)
        assert abs(lo - 1.0) <= 1e-6 and abs(hi - 1.0) <= 1e-6

    def test_brackets_on_grid(self):
        avals = np.arange(1.0, 50.0, 0.5)
        for a in avals:
            bvals = np.arange(a + 0.5, 50.0 + 1e-9, 0.5)
            lows, highs = zip(*(gamma_ratio_bounds(a, b) for b in bvals))
            truth = np.exp(gammaln(bvals) - gammaln(a))
            assert np.all(np.asarray(lows) <= truth)
            assert np.all(truth <= np.asarray(highs))

    def test_domain(self):
        with pytest.raises(DomainViolation):
            gamma_ratio_bounds(0.5, 2.0)
        with pytest.raises(DomainViolation):
            gamma_ratio_bounds(2.0, 2.0)


class TestPosteriorAndMnpl:
    def test_single_config(self):
        cfg = UrnConfig((2, 2), 1)
        w = polya_posterior([cfg], (3, 1))
        assert np.allclose(w, [1.0])

    def test_color_swap_symmetry(self):
        a = UrnConfig((3, 1), 1)
        b = UrnConfig((1, 3), 1)
        w = polya_posterior([a, b], (2, 2))
        assert np.allclose(w, [0.5, 0.5])

    def test_c_zero_reduces_to_iid_posterior(self):
        grid = [UrnConfig((6, 4), 0), UrnConfig((9, 1), 0)]
        counts = (7, 3)
        w = polya_posterior(grid, counts)
        prior = make_prior_grid([G1, G2])
        obs = (0.0,) * 7 + (1.0,) * 3
        state = posterior_update(prior, Sample(obs))
        assert np.max(np.abs(w - np.exp(state.log_posterior))) <= 1e-12

    def test_mnpl_exact_c_zero_matches_grid(self):
        grid = [UrnConfig((6, 4), 0), UrnConfig((9, 1), 0)]
        counts = (6, 4)
        obs = (0.0,) * 6 + (1.0,) * 4
        exact = mnpl_exact(grid, counts)
        iid, _ = mnpl_grid(Sample(obs), [G1, G2])
        assert exact == iid

    def test_mnpl_exact_symmetric_tie(self):
        grid = [UrnConfig((3, 1), 1), UrnConfig((1, 3), 1)]
        assert mnpl_exact(grid, (2, 2)) == [0, 1]

    @pytest.mark.parametrize("score", [polya_posterior, mnpl_exact])
    def test_grid_must_share_n_and_c(self, score):
        mixed = [UrnConfig((1, 1), 1), UrnConfig((5, 5), 1), UrnConfig((1, 9), 2)]
        with pytest.raises(DomainViolation):
            score(mixed, (3, 1))
        with pytest.raises(DomainViolation):
            score([], (3, 1))

    @pytest.mark.parametrize("score", [polya_posterior, mnpl_exact])
    def test_all_zero_probability(self, score):
        grid = [UrnConfig((1, 2), -1), UrnConfig((1, 2), -1)]  # one ball of color 0
        with pytest.raises(AllZeroLikelihood):
            score(grid, (2, 0))

    def test_typed_errors(self):
        with pytest.raises(DomainViolation):
            PolyaPath((0, 1, 1), (1, 1))
        urn = UrnConfig((3, 4), 1)
        for counts in ([1.5, 2], [math.nan, 2]):
            with pytest.raises(DomainViolation):
                polya_log_prob(counts, urn)
        for n in (2.7, math.nan):
            with pytest.raises(DomainViolation):
                polya_counts(urn, n, 0)
        # whole numbers pass in any type
        assert polya_log_prob([1.0, 2.0], urn) == polya_log_prob(np.array([1, 2]), urn)
        assert polya_counts(urn, 2.0, 0) == polya_counts(urn, np.int64(2), 0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.nan])
    def test_rebuild_urn_beta_outside_unit_interval(self, beta):
        with pytest.raises(DomainViolation):
            rebuild_urn(R_BIN, 10, beta, 1)

    def test_mnpl_asymptotic_no_candidates(self):
        with pytest.raises(DomainViolation):
            mnpl_asymptotic([], R_BIN, 0.5, 0)

    def test_mnpl_asymptotic_all_infinite(self):
        nu = make_pmf([0, 1, 2], [0.2, 0.3, 0.5])
        off = [make_pmf([0, 1, 2], [0.5, 0.5, 0.0]), make_pmf([0, 1, 2], [0.0, 0.5, 0.5])]
        with pytest.raises(InfiniteRate):
            mnpl_asymptotic(off, nu, 0.5, 0)

    def test_mnpl_asymptotic_c_zero(self):
        nu = make_pmf([0, 1], [0.62, 0.38])
        assert mnpl_asymptotic([G1, G2], nu, 0.5, 0) == [0]

    def test_mnpl_asymptotic_gibbs(self):
        nu = G1
        assert mnpl_asymptotic([G1, G2], nu, 0.5, 0) == [0]

    def test_exact_asymptotic_agreement_long_paths(self):
        # n = 10^7 is the decay experiment's scale; its counts come from
        # their exact law, as a ball-by-ball path of that length is slow
        beta, c = 0.5, 1
        for n in (10000, 10**7):
            urn = rebuild_urn(R_BIN, n, beta, c)
            grid = [
                UrnConfig(apportion_counts(urn.n_total, q.weights), c)
                for q in (G1, G2)
            ]
            for seed in range(20):
                if n == 10000:
                    counts = polya_draw(urn, n, derive_seed("agree", seed)).counts
                else:
                    counts = polya_counts(urn, n, derive_seed("agree", seed))
                exact = mnpl_exact(grid, counts)
                nu = make_pmf([0, 1], np.asarray(counts) / n)
                asym = mnpl_asymptotic([G1, G2], nu, beta, c)
                assert exact == asym
                assert exact == [int(np.argmax(polya_posterior(grid, counts)))]


class TestSlln:
    def test_frequencies_track_target(self):
        n = 100000
        for seed in range(20):
            urn = rebuild_urn(R_BIN, n, 0.5, 1)
            path = polya_draw(urn, n, derive_seed("slln", seed))
            freq = np.asarray(path.counts) / n
            assert np.max(np.abs(freq - R_BIN.weights)) <= 0.02


class TestDecay:
    def test_full_grid_zero_rate(self):
        rep = polya_decay_experiment([G1, G2], [0, 1], R_BIN, 0.5, 1, [200], [0])
        assert abs(rep.reports[0].empirical_rate[-1]) <= 1e-12

    def test_c1_rate_matches_divergence_gap(self):
        gap = polya_l_divergence(G2, R_BIN, 0.5, 1) - polya_l_divergence(G1, R_BIN, 0.5, 1)
        rep = polya_decay_experiment([G1, G2], [1], R_BIN, 0.5, 1, [5000], range(20))
        rates = [r.empirical_rate[-1] for r in rep.reports]
        assert abs(np.mean(rates) - gap) <= 0.05 * gap

    def test_c0_reproduces_iid_rate(self):
        rep = polya_decay_experiment([G1, G2], [1], R_BIN, 0.5, 0, [5000], range(20))
        rates = [r.empirical_rate[-1] for r in rep.reports]
        target = 0.49041462650586309
        assert abs(np.mean(rates) - target) <= 0.05 * target

    @pytest.mark.parametrize("c", [1, 0, -1])
    def test_seeds_run_independently(self, c):
        r = make_pmf([0, 1, 2], [0.3, 0.5, 0.2])
        grid = [r, make_pmf([0, 1, 2], [0.5, 0.3, 0.2]), make_pmf([0, 1, 2], [0.2, 0.2, 0.6])]
        schedule = [20, 40, 80]
        both = polya_decay_experiment(grid, [1, 2], r, 0.1, c, schedule, [7, 31])
        for seed, report in zip([7, 31], both.reports):
            alone = polya_decay_experiment(grid, [1, 2], r, 0.1, c, schedule, [seed])
            assert alone.reports == (report,)

    @pytest.mark.parametrize("seeds", [range(1), range(6)])
    def test_urns_built_once_per_checkpoint(self, seeds, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[1])
            return rebuild_urn(*args)

        monkeypatch.setattr(polya, "rebuild_urn", spy)
        polya_decay_experiment([G1, G2], [1], R_BIN, 0.5, 1, [100, 10, 1000], seeds)
        assert calls == [10, 100, 1000]

    @pytest.mark.parametrize("schedule", [[], [0, 10], [10, -5], [10.5], [math.nan]])
    def test_rejects_bad_schedule(self, schedule):
        with pytest.raises(DomainViolation):
            polya_decay_experiment([G1, G2], [1], R_BIN, 0.5, 1, schedule, [0])

    @pytest.mark.parametrize("c, n", [
        pytest.param(1, 10**6, id="1"), pytest.param(0, 10**6, id="0"),
        pytest.param(1, 10**7, id="1-n1e7"),
    ])
    def test_rate_at_one_million_within_clt_spread(self, c, n):
        beta, seeds = 0.5, 20
        gap = polya_l_divergence(G2, R_BIN, beta, c) - polya_l_divergence(G1, R_BIN, beta, c)
        rep = polya_decay_experiment([G1, G2], [1], R_BIN, beta, c, [n], range(seeds))
        rates = [r.empirical_rate[-1] for r in rep.reports]
        # Per draw, a count of x moves the log-likelihood ratio of G1 to G2
        # by log((G1_x + beta c r_x) / (G2_x + beta c r_x)); reinforcement
        # inflates the count variance by (1 + beta c), and the finite urns
        # add O(log n / n).
        t = beta * c
        r = R_BIN.weights
        llr = np.log((G1.weights + t * r) / (G2.weights + t * r))
        sd = math.sqrt((1.0 + t) * float(r @ (llr - r @ llr) ** 2) / n)
        finite_urn = 2 * r.size * (1.0 + np.abs(llr).max()) * math.log(n) / n
        assert abs(np.mean(rates) - gap) <= 4.0 * sd / math.sqrt(seeds) + finite_urn


class TestRebuild:
    def test_rounding_keeps_colors(self):
        r = make_pmf([0, 1, 2], [0.002, 0.499, 0.499])
        urn = rebuild_urn(r, 100, 0.5, 1)
        assert min(urn.alpha) >= 1
        assert urn.n_total == sum(urn.alpha)

    def test_apportionment_exact_total(self):
        w = np.array([0.2601, 0.7399])
        parts = apportion_counts(1000, w)
        assert sum(parts) == 1000 and min(parts) >= 1
        assert parts == (260, 740)
