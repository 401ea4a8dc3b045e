import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmap.errors import (
    DomainViolation,
    EmptySample,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
    ThetaOutOfDomain,
)
from elmap.prob import (
    EstimatingModel,
    ParamDomain,
    Pmf,
    Sample,
    empirical_pmf,
    linear_model,
    make_pmf,
    mean_model,
    moments,
    support_dominates,
    tv_distance,
)


def weights_strategy(m):
    return st.lists(
        st.floats(0.01, 1.0, allow_nan=False), min_size=m, max_size=m
    ).map(lambda w: np.asarray(w) / np.sum(w))


pmf_strategy = st.integers(2, 6).flatmap(
    lambda m: weights_strategy(m).map(lambda w: make_pmf(np.arange(m, dtype=float), w))
)


class TestMakePmf:
    def test_direct_construction(self):
        p = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        assert np.array_equal(p.support, [0.0, 1.0, 2.0])
        assert np.allclose(p.weights, [0.2, 0.6, 0.2])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_pmf([0, 1], [0.5, 0.4])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_pmf([0, 1], [1.2, -0.2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_pmf([0, 1, 2], [0.5, 0.5])

    def test_clamps_tiny_negatives(self):
        p = make_pmf([0, 1], [1.0 + 5e-16, -5e-16])
        assert p.weights[1] == 0.0

    @given(pmf_strategy)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_identity(self, p):
        q = make_pmf(p.support, p.weights)
        assert np.array_equal(q.support, p.support)
        assert np.max(np.abs(q.weights - p.weights)) <= 1e-12

    @given(st.integers(1, 40), st.integers(2, 5))
    @settings(max_examples=200, deadline=None)
    def test_exact_unit_sum(self, n, m):
        rng = np.random.default_rng(n * 7 + m)
        counts = rng.multinomial(n, np.ones(m) / m)
        mask = counts > 0
        p = make_pmf(np.arange(m)[mask], counts[mask] / n)
        assert p.weights.sum() == 1.0

    def test_sorts_unordered_support(self):
        p = make_pmf([2, 0, 1], [0.5, 0.2, 0.3])
        assert np.array_equal(p.support, [0.0, 1.0, 2.0])
        assert np.allclose(p.weights, [0.2, 0.3, 0.5])

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            make_pmf([0, 0, 1], [0.3, 0.3, 0.4])

    @pytest.mark.parametrize(
        "support, weights",
        [
            ([0, 1], [math.nan, 0.4]),  # abs(nan - 1) > tol is False: no sum check fires
            ([0, 1], [math.nan, math.nan]),
            ([0, 1], [math.inf, 0.0]),
            ([0, math.nan], [0.6, 0.4]),
            ([0, math.inf], [0.6, 0.4]),
        ],
    )
    def test_non_finite_rejected(self, support, weights):
        with pytest.raises(DomainViolation):
            make_pmf(support, weights)

    def test_tail_beyond(self):
        p = make_pmf([0, 1, 2], [0.2, 0.3, 0.5])
        assert p.tail_beyond(0.5) == pytest.approx(0.8)
        assert p.tail_beyond(1.0) == pytest.approx(0.5)  # strict tail
        assert p.tail_beyond(2.0) == 0.0


class TestSerialization:
    @given(pmf_strategy)
    @settings(max_examples=100, deadline=None)
    def test_json_roundtrip_value_exact(self, p):
        q = Pmf.from_json(p.to_json())
        assert np.array_equal(q.support, p.support)
        assert np.array_equal(q.weights, p.weights)

    def test_record_shape(self):
        rec = json.loads(make_pmf([0, 1], [0.25, 0.75]).to_json())
        assert set(rec) == {"support", "weights"}


class TestEmpirical:
    def test_counts(self):
        p = empirical_pmf(Sample((1.0, 1.0, 2.0)))
        assert np.array_equal(p.support, [1.0, 2.0])
        assert np.allclose(p.weights, [2 / 3, 1 / 3])
        assert p.weights.sum() == 1.0

    def test_point_mass(self):
        p = empirical_pmf(Sample((5.0,)))
        assert p.mass(5.0) == 1.0

    def test_empty(self):
        with pytest.raises(EmptySample):
            empirical_pmf(Sample(()))


class TestTvDistance:
    def test_self_zero(self):
        p = make_pmf([0, 1], [0.4, 0.6])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_is_one(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        q = make_pmf([2, 3], [0.5, 0.5])
        assert tv_distance(p, q) == 1.0

    def test_arithmetic(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        q = make_pmf([0, 1], [0.9, 0.1])
        assert math.isclose(tv_distance(p, q), 0.4, abs_tol=1e-15)

    @given(pmf_strategy, pmf_strategy, pmf_strategy)
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms(self, p, q, r):
        assert tv_distance(p, q) == tv_distance(q, p)
        assert 0.0 <= tv_distance(p, q) <= 1.0
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12


class TestMoments:
    def test_uniform_centered(self):
        p = make_pmf([0, 1, 2], [1 / 3, 1 / 3, 1 / 3])
        assert abs(moments(p, mean_model(), [1.0])[0]) < 1e-15

    def test_uniform_offcenter(self):
        p = make_pmf([0, 1, 2], [1 / 3, 1 / 3, 1 / 3])
        assert math.isclose(moments(p, mean_model(), [0.0])[0], 1.0)

    def test_symmetric(self):
        p = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        assert abs(moments(p, mean_model(), [1.0])[0]) < 1e-15

    def test_domain_enforced(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        model = mean_model(ParamDomain.box((0.0, 1.0)))
        with pytest.raises(ThetaOutOfDomain):
            moments(p, model, [2.0])


class TestSupportDominates:
    def test_self(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        assert support_dominates(p, p)

    def test_missing_atom(self):
        p = make_pmf([0, 3], [0.5, 0.5])
        q = make_pmf([0, 3], [1.0, 0.0])
        assert not support_dominates(p, q)

    def test_subset(self):
        p = make_pmf([0, 1], [0.5, 0.5])
        q = make_pmf([0, 1, 2], [1 / 3, 1 / 3, 1 / 3])
        assert support_dominates(p, q)
        assert not support_dominates(q, p)


class TestDomainsAndModels:
    def test_union_boxes(self):
        dom = ParamDomain.union(
            ParamDomain.box((-math.inf, 0.7)), ParamDomain.box((1.3, math.inf))
        )
        assert dom.contains([0.5]) and dom.contains([1.5])
        assert not dom.contains([1.0])

    def test_mean_preset(self):
        m = mean_model()
        assert m.n_constraints == 1
        assert np.allclose(m.u_matrix([0.0, 2.0], [0.5]).ravel(), [-0.5, 1.5])

    def test_linear_preset(self):
        m = linear_model()
        u = m.u_matrix([(1.0, 3.0)], [1.0, 2.0])  # resid = 3 - (1 + 2) = 0
        assert np.allclose(u, [[0.0, 0.0]])
        u = m.u_matrix([(2.0, 1.0)], [0.0, 0.0])
        assert np.allclose(u, [[1.0, 2.0]])


def _in_boxes(dom, theta) -> bool:
    """Per-row membership, written out box by box."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    return th.size == dom.k and any(
        all(lo <= t <= hi for t, (lo, hi) in zip(th, box)) for box in dom.boxes
    )


class TestStackedDomain:
    def test_stack_matches_rows(self):
        dom = ParamDomain.union(
            ParamDomain.box((-1.0, 0.5), (0.0, math.inf)),
            ParamDomain.box((1.0, 2.0), (-math.inf, 1.0)),
        )
        rng = np.random.default_rng(3)
        ths = rng.uniform(-2.0, 3.0, size=(40, 2))
        ths[3] = [np.nan, 0.5]
        ths[4] = [1.5, np.nan]
        ths[5] = [0.5, 0.0]  # on a corner
        ths[6] = [1.5, -math.inf]
        inside = dom.contains(ths)
        assert inside.shape == (40,) and inside.dtype == bool
        assert inside.tolist() == [_in_boxes(dom, th) for th in ths]
        assert inside.tolist() == [bool(dom.contains(th)) for th in ths]
        assert inside[5] and inside[6] and not inside[3] and not inside[4]
        grid = ths.reshape(4, 10, 2)
        assert np.array_equal(dom.contains(grid), inside.reshape(4, 10))

    def test_wrong_k(self):
        dom = ParamDomain.real_line(2)
        assert not dom.contains([0.0])
        assert not dom.contains([0.0, 0.0, 0.0])
        assert dom.contains(np.zeros((3, 3))).tolist() == [False] * 3
        assert ParamDomain.real_line(1).contains(0.5)


class TestBatchedModels:
    """The presets' u on a stack of theta values and their closed-form
    Jacobian, against per-point formulas written here."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(5)
        xs = rng.normal(size=12) * 3.0
        pairs = np.column_stack([rng.integers(0, 4, size=12), rng.normal(size=12)])

        def mean_u(x, th):
            return [x - th[0]]

        def linear_u(xy, th):
            resid = xy[1] - (th[0] + th[1] * xy[0])
            return [resid, xy[0] * resid]

        return [
            (mean_model(), xs, rng.normal(size=(6, 1)) * 2.0, mean_u),
            (linear_model(), pairs, rng.normal(size=(6, 2)), linear_u),
        ]

    def test_batched_u_matches_stacked_u(self):
        for model, points, ths, formula in self._cases():
            expected = np.array([[formula(x, th) for x in points] for th in ths])
            stacked = model.u_matrix(points, ths)
            assert stacked.shape == (len(ths), len(points), model.n_constraints)
            assert np.array_equal(stacked, expected)
            assert np.array_equal(model.u_matrix(points, ths[2]), expected[2])
            grid = ths.reshape(2, 3, -1)
            grid_u = model.u_matrix(points, grid)
            assert np.array_equal(grid_u, expected.reshape((2, 3) + expected.shape[1:]))

    def test_du_matches_central_differences(self):
        h = 1e-6
        for model, points, ths, formula in self._cases():
            th = ths[0]
            jac = model.du(points, th)
            assert jac.shape == (len(points), model.n_constraints, model.n_params)
            for i in range(th.size):
                step = np.zeros(th.size)
                step[i] = h
                fd = np.array([
                    (np.array(formula(x, th + step)) - np.array(formula(x, th - step))) / (2.0 * h)
                    for x in points
                ])
                assert np.abs(jac[:, :, i] - fd).max() <= 1e-7

    def test_model_without_du(self):
        # a user model with only u: du_matrix falls back to central
        # differences of u, taken in one stacked call
        model = EstimatingModel(
            u=lambda x, th: np.stack([x - th[..., :1], x * x - th[..., :1] ** 2 - 1.0], axis=-1),
            domain=ParamDomain.real_line(1), n_constraints=2, n_params=1,
        )
        points = [0.0, 1.0, 2.5, 3.0]
        th = np.array([1.2])
        expected = np.array([[x - 1.2, x * x - 1.2**2 - 1.0] for x in points])
        assert np.array_equal(model.u_matrix(points, th), expected)
        jac = model.du_matrix(points, th)
        assert np.abs(jac[:, :, 0] - np.array([[-1.0, -2.4]] * 4)).max() <= 1e-8
        empty = EstimatingModel(
            u=lambda x, th: np.zeros(th.shape[:-1] + (len(x), 0)),
            domain=ParamDomain.real_line(1), n_constraints=0, n_params=1,
        )
        assert empty.u_matrix(points, th).shape == (4, 0)
        assert empty.u_matrix(points, np.zeros((3, 1))).shape == (3, 4, 0)
        assert empty.du_matrix(points, th).shape == (4, 0, 1)

    def test_central_differences_per_coordinate(self):
        # the stacked difference quotient equals the one taken coordinate
        # by coordinate, dividing by the steps as represented
        model = linear_model()
        model = EstimatingModel(u=model.u, domain=model.domain, n_constraints=2, n_params=2)
        points = np.array([[0.0, 1.0], [1.0, 0.5], [3.0, 2.5]])
        th = np.array([1e3, -0.3])
        cols = []
        for i in range(2):
            h = float(np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, abs(th[i]))
            up, down = th.copy(), th.copy()
            up[i] += h
            down[i] -= h
            diff = model.u_matrix(points, up) - model.u_matrix(points, down)
            cols.append(diff / (up[i] - down[i]))
        assert np.array_equal(model.du_matrix(points, th), np.stack(cols, axis=2))

    def test_bad_u_raises(self):
        points = [0.0, 1.0, 2.0]
        stack = np.array([[0.5], [1.0]])

        def model(u, j):
            return EstimatingModel(
                u=u, domain=ParamDomain.real_line(1), n_constraints=j, n_params=1
            )

        wrong_j = model(lambda x, th: np.stack([x - th[..., :1]] * 3, axis=-1), 2)
        non_finite = model(lambda x, th: np.log(x - th[..., :1])[..., None], 1)
        ignores_stack = model(lambda x, th: (x - th[0])[:, None], 1)
        for theta in (stack[0], stack):
            with pytest.raises(ValueError, match="2 components"):
                wrong_j.u_matrix(points, theta)
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
                non_finite.u_matrix(points, theta)
        with pytest.raises(ValueError, match="shape"):
            ignores_stack.u_matrix(points, stack)
