import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmap.divergences import (
    DivergenceSpec,
    cressie_read,
    entropy,
    euclidean_discrepancy,
    kl_divergence,
    l_divergence,
    polya_l_divergence,
)
from elmap.errors import DomainViolation, GammaSingular, SupportMismatch
from elmap.prob import Sample, empirical_pmf, make_pmf


def positive_pair(m):
    return st.tuples(
        st.lists(st.floats(0.02, 1.0), min_size=m, max_size=m),
        st.lists(st.floats(0.02, 1.0), min_size=m, max_size=m),
    ).map(
        lambda pair: (
            make_pmf(np.arange(m, dtype=float), np.asarray(pair[0]) / np.sum(pair[0])),
            make_pmf(np.arange(m, dtype=float), np.asarray(pair[1]) / np.sum(pair[1])),
        )
    )


pair_strategy = st.integers(2, 6).flatmap(positive_pair)


def floored_pair(m):
    """Pairs whose weights stay above ~0.08, keeping the O(beta*c) error
    constant of the reinforced divergence's continuity limit below the
    stated 1e-3 tolerance."""
    raw = st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)
    return st.tuples(raw, raw).map(
        lambda pair: tuple(
            make_pmf(
                np.arange(m, dtype=float),
                0.5 * np.asarray(ws) / np.sum(ws) + 0.5 / m,
            )
            for ws in pair
        )
    )


floored_pair_strategy = st.integers(2, 6).flatmap(floored_pair)


class TestLDivergence:
    def test_uniform_self_is_log3(self):
        p = make_pmf([0, 1, 2], [1 / 3, 1 / 3, 1 / 3])
        assert math.isclose(l_divergence(p, p), math.log(3.0), rel_tol=1e-15)

    def test_support_failure_infinite(self):
        q = make_pmf([0, 1], [1.0, 0.0])
        p = make_pmf([0, 1], [0.5, 0.5])
        assert l_divergence(q, p) == math.inf

    def test_direct_value(self):
        q = make_pmf([0, 1], [0.75, 0.25])
        p = make_pmf([0, 1], [0.5, 0.5])
        expected = -0.5 * (math.log(0.75) + math.log(0.25))
        assert math.isclose(l_divergence(q, p), expected, rel_tol=1e-15)
        assert math.isclose(expected, 0.836988, abs_tol=5e-7)

    def test_kerridge_identity(self):
        sample = Sample((0.0, 1.0, 1.0, 2.0, 0.0))
        nu = empirical_pmf(sample)
        q = make_pmf([0, 1, 2], [0.3, 0.45, 0.25])
        direct = -sum(math.log(q.mass(x)) for x in sample.observations)
        assert abs(sample.n * l_divergence(q, nu) - direct) <= 1e-10

    @given(pair_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_gibbs_property(self, pair):
        q, p = pair
        assert l_divergence(q, p) >= l_divergence(p, p) - 1e-12

    def test_gibbs_equality_iff_equal(self):
        p = make_pmf([0, 1], [0.3, 0.7])
        q = make_pmf([0, 1], [0.31, 0.69])
        assert l_divergence(q, p) > l_divergence(p, p)


class TestKlDivergence:
    def test_self_zero(self):
        q = make_pmf([0, 1], [0.4, 0.6])
        assert kl_divergence(q, q) == 0.0

    def test_direct_value(self):
        q = make_pmf([0, 1], [0.5, 0.5])
        p = make_pmf([0, 1], [0.75, 0.25])
        expected = 0.5 * math.log(2 / 3) + 0.5 * math.log(2.0)
        assert math.isclose(kl_divergence(q, p), expected, rel_tol=1e-15)
        assert math.isclose(expected, 0.143841, abs_tol=5e-7)

    def test_absolute_continuity(self):
        q = make_pmf([0, 1], [0.5, 0.5])
        p = make_pmf([0, 1], [1.0, 0.0])
        assert kl_divergence(q, p) == math.inf

    @given(pair_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_nonnegative(self, pair):
        q, p = pair
        val = kl_divergence(q, p)
        assert val >= -1e-12
        if np.array_equal(q.weights, p.weights):
            assert abs(val) <= 1e-12


class TestEuclidean:
    def test_self_zero(self):
        mu = make_pmf([0, 1], [0.5, 0.5])
        assert euclidean_discrepancy(mu, mu) == 0.0

    def test_arithmetic(self):
        q = make_pmf([0, 1], [1.0, 0.0])
        mu = make_pmf([0, 1], [0.5, 0.5])
        assert math.isclose(euclidean_discrepancy(q, mu), 0.5, rel_tol=1e-15)

    def test_permutation_invariance(self):
        q = make_pmf([0, 1, 2], [0.1, 0.3, 0.6])
        mu = make_pmf([0, 1, 2], [0.5, 0.2, 0.3])
        qp = make_pmf([0, 1, 2], [0.6, 0.1, 0.3])
        mup = make_pmf([0, 1, 2], [0.3, 0.5, 0.2])
        assert math.isclose(
            euclidean_discrepancy(q, mu), euclidean_discrepancy(qp, mup), rel_tol=1e-14
        )

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            euclidean_discrepancy(
                make_pmf([0, 1], [0.5, 0.5]), make_pmf([0, 2], [0.5, 0.5])
            )


class TestCressieRead:
    def test_singular_gamma(self):
        q = make_pmf([0, 1], [0.5, 0.5])
        for gamma in (0.0, -1.0):
            with pytest.raises(GammaSingular):
                cressie_read(q, q, gamma)

    @given(pair_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_gamma_one_is_half_pearson(self, pair):
        q, mu = pair
        pearson = 0.5 * float(np.sum((q.weights - mu.weights) ** 2 / mu.weights))
        assert math.isclose(cressie_read(q, mu, 1.0), pearson, rel_tol=1e-10, abs_tol=1e-14)

    @given(pair_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_gamma_to_zero_limit(self, pair):
        q, mu = pair
        kl = kl_divergence(q, mu)
        approx = cressie_read(q, mu, 1e-6)
        # relative 1e-3, with an absolute floor at the cancellation scale
        # (terms of size gamma*log collapse to gamma*KL, so the rounding
        # error after dividing by gamma is around 1e-16 / gamma = 1e-10)
        assert abs(approx - kl) <= 1e-3 * kl + 1e-9

    @given(pair_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_gamma_to_minus_one_limit(self, pair):
        q, mu = pair
        kl = kl_divergence(mu, q)
        approx = cressie_read(q, mu, -1.0 + 1e-6)
        assert abs(approx - kl) <= 1e-3 * kl + 1e-9

    @given(pair_strategy, st.sampled_from([-2.0, -0.5, 0.5, 1.0, 2.0]))
    @settings(max_examples=1000, deadline=None)
    def test_nonnegative(self, pair, gamma):
        q, mu = pair
        assert cressie_read(q, mu, gamma) >= -1e-12


class TestPolyaL:
    def test_c_zero_exact(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        assert math.isclose(
            polya_l_divergence(p, p, 0.5, 0), math.log(2.0) - 1.0, rel_tol=1e-15
        )

    def test_direct_value(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        expected = -math.log(0.75) + 2.0 * math.log(2 / 3)
        assert math.isclose(polya_l_divergence(p, p, 0.5, 1), expected, rel_tol=1e-14)
        assert math.isclose(expected, -0.523248, abs_tol=5e-7)

    @given(floored_pair_strategy)
    @settings(max_examples=1000, deadline=None)
    def test_continuity_at_c_zero(self, pair):
        q, p = pair
        base = polya_l_divergence(q, p, 0.5, 0)
        up = polya_l_divergence(q, p, 1e-4, 1)
        down = polya_l_divergence(q, p, 1e-4, -1)
        assert abs(up - base) <= 1e-3
        assert abs(down - base) <= 1e-3

    def test_domain_violation(self):
        q = make_pmf([0, 1], [0.1, 0.9])
        p = make_pmf([0, 1], [0.9, 0.1])
        with pytest.raises(DomainViolation):
            polya_l_divergence(q, p, 0.5, -3)

    def test_beta_range_enforced(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        with pytest.raises(DomainViolation):
            polya_l_divergence(p, p, 1.5, 1)

    @given(pair_strategy)
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_in_q(self, pair):
        q, p = pair
        eps = 1e-6
        bump = q.weights.copy()
        bump[0] += eps
        bump[-1] -= eps
        if bump[-1] <= 0:
            return
        q2 = make_pmf(q.support, bump / bump.sum())
        d1 = abs(polya_l_divergence(q2, p, 0.5, 1) - polya_l_divergence(q, p, 0.5, 1))
        l1 = float(np.abs(q2.weights - q.weights).sum())
        assert d1 <= 200.0 * l1


class TestDivergenceSpec:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            DivergenceSpec("XX")
        with pytest.raises(GammaSingular):
            DivergenceSpec.cr(0.0)
        with pytest.raises(DomainViolation):
            DivergenceSpec.polya_l(1.2, 1)

    @given(pair_strategy)
    @settings(max_examples=200, deadline=None)
    def test_array_forms_match_public_functions(self, pair):
        q, p = pair
        qw, pw = q.weights, p.weights
        assert math.isclose(DivergenceSpec.l().value(qw, pw), l_divergence(q, p), rel_tol=1e-12)
        assert math.isclose(DivergenceSpec.kl().value(qw, pw), kl_divergence(q, p), rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(
            DivergenceSpec.euclidean().value(qw, pw), euclidean_discrepancy(q, p), rel_tol=1e-12, abs_tol=1e-15
        )
        assert math.isclose(
            DivergenceSpec.cr(0.5).value(qw, pw), cressie_read(q, p, 0.5), rel_tol=1e-12, abs_tol=1e-14
        )
        assert math.isclose(
            DivergenceSpec.polya_l(0.5, 1).value(qw, pw),
            polya_l_divergence(q, p, 0.5, 1),
            rel_tol=1e-12,
            abs_tol=1e-14,
        )

    @given(pair_strategy, st.sampled_from(["L", "KL", "Euclidean", "CR", "PolyaL"]))
    @settings(max_examples=200, deadline=None)
    def test_gradients_match_finite_differences(self, pair, kind):
        q, p = pair
        spec = {
            "L": DivergenceSpec.l(),
            "KL": DivergenceSpec.kl(),
            "Euclidean": DivergenceSpec.euclidean(),
            "CR": DivergenceSpec.cr(0.5),
            "PolyaL": DivergenceSpec.polya_l(0.5, 1),
        }[kind]
        qw, pw = q.weights.copy(), p.weights
        grad = spec.grad(qw, pw)
        eps = 1e-7
        for i in range(qw.size):
            bump = qw.copy()
            bump[i] += eps
            fd = (spec.value(bump, pw) - spec.value(qw, pw)) / eps
            assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(grad[i]))


def test_entropy_matches_self_divergence():
    p = make_pmf([0, 1, 2], [0.2, 0.5, 0.3])
    assert math.isclose(entropy(p), l_divergence(p, p), rel_tol=1e-15)


# -- the array forms against per-atom loops -----------------------------------
#
# Each reference walks the atoms one at a time, reading masses from a dict,
# and returns its terms (None when the value is +inf).  The array forms sum
# in another order, so they agree to within 1e-14 of the sum of the terms'
# absolute values: at most a few dozen roundings of eps = 2.2e-16 each.  For
# L, whose terms share one sign, that is plain rtol 1e-14.


def atom_masses(d):
    return dict(zip(d.support.tolist(), d.weights.tolist()))


def l_terms(q, p):
    qm, terms = atom_masses(q), []
    for x, pw in atom_masses(p).items():
        if pw == 0.0:
            continue
        if qm.get(x, 0.0) <= 0.0:
            return None
        terms.append(-pw * math.log(qm[x]))
    return terms


def kl_terms(q, p):
    pm, terms = atom_masses(p), []
    for x, qw in atom_masses(q).items():
        if qw == 0.0:
            continue
        if pm.get(x, 0.0) <= 0.0:
            return None
        terms.append(qw * math.log(qw / pm[x]))
    return terms


def cr_terms(q, mu, gamma):
    terms = []
    for qi, mi in zip(q.weights.tolist(), mu.weights.tolist()):
        if qi == 0.0:
            if gamma < -1.0 and mi > 0.0:
                return None
        elif mi == 0.0:
            if gamma > 0.0:
                return None
            terms.append(-qi / (gamma * (gamma + 1.0)))
        else:
            terms.append(qi * ((qi / mi) ** gamma - 1.0) / (gamma * (gamma + 1.0)))
    return terms


def polya_terms(q, p, beta, c):
    if c == 0:
        terms = l_terms(q, p)
        return None if terms is None else terms + [-1.0]
    t = beta * float(c)
    qm, pm, terms = atom_masses(q), atom_masses(p), []
    for x in sorted(set(qm) | set(pm)):
        qi, pi = qm.get(x, 0.0), pm.get(x, 0.0)
        mix = qi + t * pi
        if (pi > 0.0 or qi > 0.0) and mix <= 0.0:
            raise DomainViolation(f"q + beta*c*p = {mix!r} at x={x} is not positive")
        if pi > 0.0:
            terms.append(-pi * math.log(mix))
        if qi > 0.0:
            terms.append(qi * math.log(qi / mix) / t)
    return terms


def assert_sums(value, terms):
    if terms is None:
        assert value == math.inf
    else:
        assert math.isfinite(value)
        assert abs(value - sum(terms)) <= 1e-14 * sum(abs(v) for v in terms)


def random_pmfs(seed, count, same_support=False):
    """Pairs of pmfs with zero weights, on one support (always when
    same_support, else in two draws of three) or on two random ones."""
    rng = np.random.default_rng(seed)
    grid = np.arange(-12, 13) / 4.0
    for _ in range(count):
        m = int(rng.integers(1, 10))
        sup = [np.sort(rng.choice(grid, size=m, replace=False)) for _ in range(2)]
        if same_support or rng.random() < 2 / 3:
            sup[1] = sup[0]
        pair = []
        for s in sup:
            w = rng.dirichlet(np.full(s.size, 0.8))
            w[rng.random(s.size) < 0.2] = 0.0
            if w.sum() == 0.0:
                w[rng.integers(s.size)] = 1.0
            pair.append(make_pmf(s, w / w.sum()))
        yield pair


class TestArrayFormAgreement:
    def test_l_and_kl_match_atom_loops(self):
        infinite = finite = 0
        for q, p in random_pmfs(11, 2000):
            for div, terms in ((l_divergence, l_terms), (kl_divergence, kl_terms)):
                ref = terms(q, p)
                assert_sums(div(q, p), ref)
                infinite += ref is None
                finite += ref is not None
        assert infinite > 1000 and finite > 1000

    def test_cressie_read_matches_atom_loop(self):
        infinite = 0
        for q, mu in random_pmfs(12, 500, same_support=True):
            for gamma in (-2.5, -1.5, -0.5, 0.5, 1.0, 2.0):
                ref = cr_terms(q, mu, gamma)
                assert_sums(cressie_read(q, mu, gamma), ref)
                infinite += ref is None
        assert infinite > 500

    def test_polya_l_matches_atom_loop(self):
        cases = {"finite": 0, "infinite": 0, "violation": 0}
        for q, p in random_pmfs(13, 1000):
            for beta, c in ((0.5, 0), (0.3, 1), (0.7, 3), (0.4, -1), (0.9, -2)):
                try:
                    ref = polya_terms(q, p, beta, c)
                except DomainViolation as exc:
                    with pytest.raises(DomainViolation, match=re.escape(str(exc))):
                        polya_l_divergence(q, p, beta, c)
                    cases["violation"] += 1
                    continue
                assert_sums(polya_l_divergence(q, p, beta, c), ref)
                cases["infinite" if ref is None else "finite"] += 1
        assert min(cases.values()) > 500
