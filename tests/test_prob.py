import json
import math
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

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
    _settle_residual,
    atom_index,
    counts_loglik,
    empirical_pmf,
    linear_model,
    logsumexp,
    make_pmf,
    mean_model,
    moments,
    path_counts,
    support_dominates,
    tv_distance,
)
from elmap.rng import rng_from

from oracles import domain_contains


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
        with pytest.raises(DomainViolation):
            make_pmf([0, 0, 1], [0.3, 0.3, 0.4])

    @pytest.mark.parametrize(
        "build, support, weights",
        [
            # abs(nan - 1) > tol is False: no sum check fires
            pytest.param(make_pmf, [0, 1], [math.nan, 0.4], id="support0-weights0"),
            pytest.param(make_pmf, [0, 1], [math.nan, math.nan], id="support1-weights1"),
            pytest.param(make_pmf, [0, 1], [math.inf, 0.0], id="support2-weights2"),
            pytest.param(make_pmf, [0, math.nan], [0.6, 0.4], id="support3-weights3"),
            pytest.param(make_pmf, [0, math.inf], [0.6, 0.4], id="support4-weights4"),
            pytest.param(Pmf, [0, math.inf], [0.5, 0.5], id="Pmf-inf-support"),
            pytest.param(Pmf, [0, 1], [math.nan, math.nan], id="Pmf-nan-weights"),
            pytest.param(lambda s, w: Pmf.from_json(json.dumps({"support": s, "weights": w})),
                         [0, 1], [math.nan, 1.0], id="from_json-nan-weight"),
            pytest.param(lambda s, w: empirical_pmf(Sample(tuple(s))),
                         [math.nan], None, id="empirical_pmf-nan-observation"),
        ],
    )
    def test_non_finite_rejected(self, build, support, weights):
        with pytest.raises(DomainViolation):
            build(support, weights)

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


def _per_element(observations):
    """Sample's conversion before it took one array conversion: float() of
    each scalar and of each entry of each tuple, list or array."""
    return tuple(
        tuple(float(v) for v in o) if isinstance(o, (tuple, list, np.ndarray)) else float(o)
        for o in observations
    )


_NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
)


def _same_bits(got, want):
    assert type(got) is tuple and len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, tuple):
            assert all(type(v) is float for v in g)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


class TestSample:
    @given(st.lists(_NUMBERS, max_size=30))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_scalars_convert_as_per_element_float(self, obs):
        _same_bits(Sample(obs).observations, _per_element(obs))

    @given(st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(_NUMBERS, min_size=d, max_size=d), min_size=1, max_size=20)
    ), st.sampled_from([tuple, list, lambda r: np.array(r, dtype=object)]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rows_convert_as_per_element_float(self, rows, row_type):
        obs = tuple(map(row_type, rows))
        _same_bits(Sample(obs).observations, _per_element(obs))

    @pytest.mark.parametrize(
        "observations",
        [
            [(1.0, 2.0), (3.0,)],  # rows of mixed length
            [0.0, (1.0, 2.0)],  # a scalar mixed with a tuple
            [(1.0, 2.0), 3.0],
            np.zeros((2, 2, 2)),
            [[[1.0]]],
            5.0,  # not a sequence
            "123",
            ["1.5", "abc"],
            [1.0, None],
            [(1.0, None)],
            [1j],
            [10**400],
        ],
    )
    def test_malformed_raises_domain_violation(self, observations):
        with pytest.raises(DomainViolation, match="observations must be"):
            Sample(observations)

    @pytest.mark.parametrize(
        "observations", [(0.5, 2, -1.0, 0.5), [(1.0, 2.0), (3, 4.5), (1.0, 2.0)], ()]
    )
    def test_values_is_the_read_only_float_array(self, observations):
        sample = Sample(observations)
        vals, want = sample.values(), np.asarray(observations, dtype=float)
        assert vals.shape == want.shape and vals.dtype == want.dtype
        assert vals.tobytes() == want.tobytes()
        assert sample.values() is vals
        with pytest.raises(ValueError, match="read-only"):
            vals[...] = 0.0

    def test_input_array_stays_writable(self):
        obs = np.array([0.0, 1.0, 1.0])
        sample = Sample(obs)
        assert obs.flags.writeable and not np.shares_memory(obs, sample.values())
        obs[0] = 5.0
        assert sample.values().tolist() == [0.0, 1.0, 1.0]
        assert sample == Sample((0.0, 1.0, 1.0)) and hash(sample) == hash(Sample([0, 1, 1]))
        assert repr(sample) == "Sample(observations=(0.0, 1.0, 1.0))"


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


# -- the one atom lookup against a scan of the support ---------------------------


def scan(support, x):
    """(j, True) for the atom support[j] == x, (None, False) if none is."""
    for j, s in enumerate(support):
        if s == x:
            return j, True
    return None, False


def random_pmf(rng, grid):
    m = int(rng.integers(1, 12))
    support = np.sort(rng.choice(grid, size=m, replace=False))
    w = rng.dirichlet(np.ones(m))
    w[rng.random(m) < 0.2] = 0.0
    if w.sum() == 0.0:
        w[rng.integers(m)] = 1.0
    return make_pmf(support, w / w.sum())


class TestAtomIndex:
    """atom_index, Pmf.masses and the functions built on them against
    per-value scans of the support."""

    GRID = np.arange(-30, 31) / 4.0

    def test_matches_scan(self):
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            p = random_pmf(rng, self.GRID)
            between = (p.support[:-1] + p.support[1:]) / 2.0
            values = np.concatenate([
                p.support, between, [p.support[0] - 1.0, p.support[-1] + 1.0],
                [-math.inf, math.inf, math.nan],
            ])
            rng.shuffle(values)
            idx, hit = atom_index(p.support, values)
            masses = p.masses(values)
            assert idx.shape == hit.shape == masses.shape == values.shape
            for x, i, h, w in zip(values, idx, hit, masses):
                j, on = scan(p.support, x)
                assert h == on and 0 <= i < p.m
                assert w == (p.weights[j] if on else 0.0)
                assert i == j or not on
                assert p.mass(x) == w
            two_rows = values[: values.size // 2 * 2].reshape(2, -1)
            assert np.array_equal(p.masses(two_rows), masses[: two_rows.size].reshape(2, -1))

    def test_tv_distance_and_support_dominates_match_scans(self):
        rng = np.random.default_rng(31)
        dominated = 0
        for _ in range(300):
            p, q = random_pmf(rng, self.GRID[::6]), random_pmf(rng, self.GRID[::6])
            atoms = sorted(set(p.support.tolist()) | set(q.support.tolist()))
            mp, mq = (dict(zip(d.support.tolist(), d.weights.tolist())) for d in (p, q))
            tv = 0.5 * sum(abs(mp.get(x, 0.0) - mq.get(x, 0.0)) for x in atoms)
            assert abs(tv_distance(p, q) - tv) <= 1e-14
            dom = all(mq.get(x, 0.0) > 0.0 for x, w in mp.items() if w > 0.0)
            assert support_dominates(p, q) == dom
            dominated += dom
        assert 30 < dominated < 270  # both answers occur


def settle_residual_loop(w):
    """_settle_residual as a walk over the atoms from the smallest weight."""
    for _ in range(16):
        resid = 1.0 - w.sum()
        if resid == 0.0:
            break
        applied = False
        for k in np.argsort(w):
            if w[k] <= 0.0 or w[k] + resid <= 0.0:
                continue
            cand = w[k] + resid
            if cand != w[k]:
                w[k] = cand
                applied = True
                break
        if not applied:
            break


def test_settle_residual_matches_atom_walk():
    rng = np.random.default_rng(5)
    settled = 0
    for _ in range(2000):
        m = int(rng.integers(2, 40))
        w = rng.dirichlet(np.full(m, 0.3)) * rng.uniform(0.999, 1.001)
        w[rng.random(m) < 0.2] = 0.0
        if w.sum() == 0.0:
            continue
        w /= w.sum()
        settled += w.sum() != 1.0
        ref = w.copy()
        settle_residual_loop(ref)
        _settle_residual(w)
        assert np.array_equal(w, ref)
    assert settled > 500  # the residual walk ran on many rows


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

    def test_n_params_must_match_domain(self):
        # the estimators size theta by the domain, the CLI's columns by n_params
        for n_params, domain in ((1, ParamDomain.real_line(2)), (2, ParamDomain.box((0.0, 1.0)))):
            with pytest.raises(LengthMismatch, match="n_params"):
                EstimatingModel(
                    u=mean_model().u, domain=domain, n_constraints=1, n_params=n_params
                )


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

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_per_call_reference(self, data):
        k = data.draw(st.integers(1, 3), label="k")
        end = st.one_of(
            st.sampled_from([-math.inf, math.inf, -1.0, 0.0, 0.5, 1.0]),
            st.floats(-3.0, 3.0),
        )
        interval = st.tuples(end, end).map(sorted).map(tuple)
        boxes = data.draw(
            st.lists(st.tuples(*[interval] * k), min_size=1, max_size=3), label="boxes"
        )
        dom = ParamDomain(tuple(boxes))
        coord = st.one_of(end, st.sampled_from([math.nan, -math.inf, math.inf]))
        lead = data.draw(st.sampled_from([(), (4,), (2, 3)]), label="stack")
        width = data.draw(st.sampled_from([k, k, k, k + 1, k - 1]), label="length")
        size = math.prod(lead) * width
        theta = np.array(data.draw(st.lists(coord, min_size=size, max_size=size)), dtype=float)
        theta = theta.reshape(lead + (width,))
        got, want = dom.contains(theta), domain_contains(dom, theta)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == lead
        assert np.array_equal(got, want)
        if width == k:
            assert np.ravel(got).tolist() == [_in_boxes(dom, th) for th in theta.reshape(-1, k)]

    def test_box_ends_are_built_once_and_read_only(self):
        dom = ParamDomain.union(
            ParamDomain.box((-math.inf, 0.7), (0.0, 1.0)),
            ParamDomain.box((1.3, math.inf), (2.0, 3.0)),
        )
        assert dom._lo.tolist() == [[-math.inf, 0.0], [1.3, 2.0]]
        assert dom._hi.tolist() == [[0.7, 1.0], [math.inf, 3.0]]
        for ends in (dom._lo, dom._hi):
            assert not ends.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                ends[0, 0] = 5.0
        same = ParamDomain(dom.boxes)
        assert same == dom and hash(same) == hash(dom)
        assert "_lo" not in repr(dom) and "_hi" not in repr(dom)

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
            with pytest.raises(LengthMismatch, match="2 components"):
                wrong_j.u_matrix(points, theta)
            with np.errstate(all="ignore"), pytest.raises(DomainViolation, match="non-finite"):
                non_finite.u_matrix(points, theta)
        with pytest.raises(LengthMismatch, match="shape"):
            ignores_stack.u_matrix(points, stack)



# scipy.special.logsumexp is the oracle.  From 1.15 on (the fix of scipy's
# gh-18295) it separates the maximal entries and sums the rest through
# log1p, the algorithm the port copies, so results must agree bit for bit;
# older releases (the floor is 1.10) compute log(sum(exp(a - max))) + max
# and may differ by a few ulp.
SCIPY_LSE_SEPARATES_MAX = tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (1, 15)
LSE_EDGE_CASES = [
    np.array([0.0, -40.0]),  # one entry dominates
    np.array([1e3, 1e3, 1e3 - 1e-12]),  # tied maxima at the top magnitude
    np.array([-np.inf, 2.0, -np.inf]),
    np.full(3, -np.inf),
    np.array([[0.5, -np.inf], [-np.inf, -np.inf], [3.0, 3.0]]),
]


def _lse_cases(seed: int, count: int):
    """Random 1-D and (k, 2) arrays at magnitudes up to 1e3, some with -inf
    entries, tied maxima or an all -inf row."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, 10))
        shape = (k,) if i % 2 else (k, 2)
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.3:
            a = np.round(a)  # ties at the maximum
        if rng.random() < 0.3:
            a[rng.random(shape) < 0.4] = -np.inf
        if a.ndim == 2 and rng.random() < 0.1:
            a[int(rng.integers(k))] = -np.inf
        yield a


def test_logsumexp_matches_scipy():
    eps = np.finfo(float).eps
    for a in [*LSE_EDGE_CASES, *_lse_cases(seed=0, count=2000)]:
        for axis in (None, 1) if a.ndim == 2 else (None,):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # all -inf gives -inf silently
                got = logsumexp(a, axis=axis)
            want = scipy_logsumexp(a, axis=axis)
            assert type(got) is (np.float64 if axis is None else np.ndarray)
            assert np.shape(got) == np.shape(want)
            if SCIPY_LSE_SEPARATES_MAX:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=8 * eps, atol=8 * eps)
    assert logsumexp(np.full(3, -np.inf)) == -np.inf


class TestPathCounts:
    LAW = np.array([0.3, 0.0, 0.5, 0.2, 0.0])
    SCHEDULE = [1, 7, 7, 50, 1000, 1000, 123456]

    def paths(self):
        for seed in range(20):
            yield path_counts(rng_from("test.path_counts", seed), self.LAW, self.SCHEDULE)

    def test_rows_nondecreasing_and_sum_to_schedule(self):
        for counts in self.paths():
            assert counts.shape == (len(self.SCHEDULE), self.LAW.size)
            assert np.all(np.diff(counts, axis=0) >= 0)
            assert counts.sum(axis=1).tolist() == self.SCHEDULE

    def test_zero_mass_cells_stay_zero(self):
        for counts in self.paths():
            assert not counts[:, self.LAW == 0.0].any()

    def test_repeated_checkpoint_gives_equal_rows(self):
        for counts in self.paths():
            assert np.array_equal(counts[1], counts[2])
            assert np.array_equal(counts[4], counts[5])

    def test_frequencies_track_law(self):
        n = self.SCHEDULE[-1]
        sd = np.sqrt(self.LAW * (1.0 - self.LAW) / n)
        for counts in self.paths():
            assert np.all(np.abs(counts[-1] / n - self.LAW) <= 6.0 * sd)


class TestCountsLoglik:
    def test_memory_order_does_not_change_bits(self):
        # A table taken by fancy indexing (w[:, idx]) is Fortran-ordered;
        # its scores must be those of the C-ordered copy, bit for bit.
        rng = np.random.default_rng(0)
        log_w = np.log(rng.dirichlet(np.ones(40), size=16))
        idx = rng.permutation(40)[:25]
        log_w[3, idx[0]] = -np.inf
        fortran = log_w[:, idx]
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        table = np.ascontiguousarray(fortran)
        counts = rng.multinomial(1000, np.full(25, 1 / 25), size=200).astype(float)
        for row in counts:
            assert counts_loglik(fortran, row).tobytes() == counts_loglik(table, row).tobytes()
        assert counts_loglik(fortran, counts).tobytes() == counts_loglik(table, counts).tobytes()
