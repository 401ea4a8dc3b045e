import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmap.divergences import DivergenceSpec, cressie_read, entropy, l_divergence
from elmap.errors import (
    AllThetaInfeasible,
    InfeasibleMoment,
    LengthMismatch,
    NotConverged,
    SupportCondition,
    ThetaOutOfDomain,
)
from elmap.prob import EstimatingModel, ParamDomain, make_pmf, mean_model, moments
from elmap import projection
from elmap.projection import (
    ProjectionStack,
    _MomentProblem,
    _profile_min,
    dual_newton,
    l_project_linear,
    l_project_stack,
    moment_feasibility,
    profile_l_projection,
    project_oracle,
)

from oracles import bisect_lambda, hull_lp_t

UNIFORM3 = make_pmf([0, 1, 2], [1 / 3, 1 / 3, 1 / 3])


def random_instance(rng, m=None, j=None):
    """Base pmf plus a model whose constraints are centered at a strictly
    positive target distribution (guaranteeing interior feasibility)."""
    m = m or int(rng.integers(3, 7))
    j = j or int(rng.integers(1, 3))
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

    model = EstimatingModel(u=u, domain=ParamDomain.real_line(1),
                            n_constraints=j, n_params=1)
    return make_pmf(sup, w / w.sum()), model


def feasibility(umat):
    """``moment_feasibility`` on a stack of one: the node's label and t."""
    status, t = moment_feasibility(umat[None])
    return status[0], t[0]


def solve_one(p, umat, gamma):
    """``dual_newton`` on a stack of one: the node's lam, q, iterations and
    value (+inf, with lam and q NaN, where it does not converge)."""
    lam, q, iterations, value = dual_newton(p, umat[None], gamma)
    return lam[0], q[0], iterations, value[0]


class TestSolveLambda:
    def test_constraint_already_satisfied(self):
        res = l_project_linear(UNIFORM3, mean_model(), [1.0])
        lam, value, converged = res.lam, res.value, res.converged
        assert converged
        assert abs(lam[0]) <= 1e-12
        assert math.isclose(value, math.log(3.0), rel_tol=1e-14)

    def test_matches_bisection_oracle(self):
        model = mean_model()
        lam = l_project_linear(UNIFORM3, model, [1.2]).lam
        ucol = model.u_matrix(UNIFORM3.support, [1.2]).ravel()
        lam_oracle = bisect_lambda(UNIFORM3.weights, ucol)
        assert abs(lam[0] - lam_oracle) <= 1e-9

    def test_matches_bisection_on_random_instances(self):
        model = mean_model()
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(3, 7))
            sup = np.sort(rng.normal(size=m) * 2.0)
            while np.any(np.diff(sup) < 1e-6):
                sup = np.sort(rng.normal(size=m) * 2.0)
            w = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
            r = make_pmf(sup, w / w.sum())
            # target mean strictly inside the support range
            frac = rng.uniform(0.1, 0.9)
            target = float(sup[0] + frac * (sup[-1] - sup[0]))
            res = l_project_linear(r, model, [target])
            lam, value, converged = res.lam, res.value, res.converged
            assert converged
            ucol = model.u_matrix(r.support, [target]).ravel()
            lam_oracle = bisect_lambda(r.weights, ucol)
            assert abs(lam[0] - lam_oracle) <= 1e-9 * max(1.0, abs(lam_oracle))

    def test_infeasible_moment(self):
        with pytest.raises(InfeasibleMoment):
            l_project_linear(UNIFORM3, mean_model(), [2.5])


class TestLProjectLinear:
    def test_mean_of_base_returns_base(self):
        res = l_project_linear(UNIFORM3, mean_model(), [1.0])
        assert np.max(np.abs(res.qhat.weights - UNIFORM3.weights)) <= 1e-12

    def test_matches_oracle(self):
        res = l_project_linear(UNIFORM3, mean_model(), [1.2])
        orc = project_oracle(UNIFORM3, mean_model(), [1.2], DivergenceSpec.l())
        assert np.max(np.abs(res.qhat.weights - orc.weights)) <= 1e-6

    def test_lambda_identity(self):
        model = mean_model()
        res = l_project_linear(UNIFORM3, model, [1.2])
        scale = 1.0 - model.u_matrix(UNIFORM3.support, [1.2]) @ res.lam
        member = UNIFORM3.weights / scale
        resid = np.max(np.abs(res.qhat.weights * scale - UNIFORM3.weights))
        assert resid <= 1e-12
        assert np.max(np.abs(member - res.qhat.weights)) <= 1e-12

    def test_moment_and_duality_postconditions(self):
        res = l_project_linear(UNIFORM3, mean_model(), [1.4])
        assert np.max(np.abs(moments(res.qhat, mean_model(), [1.4]))) <= 1e-8
        assert abs(l_divergence(res.qhat, UNIFORM3) - res.value) <= 1e-9
        assert res.grad_norm <= 1e-10

    def test_support_condition(self):
        with pytest.raises(SupportCondition):
            l_project_linear(UNIFORM3, mean_model(), [2.0])

    def test_theta_domain(self):
        model = mean_model(ParamDomain.box((0.0, 1.0)))
        with pytest.raises(ThetaOutOfDomain):
            l_project_linear(UNIFORM3, model, [1.5])

    def test_uniqueness_across_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r, model = random_instance(rng)
            a = l_project_linear(r, model, [0.0])
            b = project_oracle(r, model, [0.0], DivergenceSpec.l(), seed=1)
            assert np.max(np.abs(a.qhat.weights - b.weights)) <= 1e-8

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        r, model = random_instance(rng, m=5, j=2)
        amat = np.array([[2.0, 0.3], [-0.4, 1.5]])

        def u2(x, th, model=model):
            return model.u(x, th) @ amat.T

        model2 = EstimatingModel(u=u2, domain=model.domain, n_constraints=2, n_params=1)
        res1 = l_project_linear(r, model, [0.0])
        res2 = l_project_linear(r, model2, [0.0])
        assert np.max(np.abs(res1.qhat.weights - res2.qhat.weights)) <= 1e-8
        lam_mapped = np.linalg.solve(amat.T, res1.lam)
        assert np.max(np.abs(lam_mapped - res2.lam)) <= 1e-7

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        r, model = random_instance(rng, m=5, j=2)
        umat = model.u_matrix(r.support, [0.0])
        lam = np.array([0.05, -0.03])

        def g(la):
            return float(r.weights @ np.log(1.0 - umat @ la))

        grad = -(umat.T @ (r.weights / (1.0 - umat @ lam)))
        eps = 1e-7
        for k in range(2):
            bump = lam.copy()
            bump[k] += eps
            fd = (g(bump) - g(lam)) / eps
            assert abs(fd - grad[k]) <= 1e-5 * max(1.0, abs(grad[k]))


class TestMomentFeasibility:
    def test_interior(self):
        assert feasibility(np.array([[-1.0], [1.0]]))[0] == "interior"

    def test_boundary(self):
        assert feasibility(np.array([[0.0], [1.0]]))[0] == "boundary"

    def test_infeasible(self):
        assert feasibility(np.array([[0.5], [1.0]]))[0] == "infeasible"

    def test_j2_interior(self):
        u = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 2.0]])
        assert feasibility(u)[0] == "interior"

    @pytest.mark.parametrize("j", [3, 4])
    def test_j_above_two_by_construction(self, j):
        # Answers fixed by construction, not by another linear program:
        # rows with a first coordinate of at least 0.1 are separated from 0
        # by e_1; 0 is the rows' mean of the 2J rows +-e_i under any
        # invertible map, with t = 1 / 2J, and stays interior when other
        # rows join them; rows +-e_i (i > 1) next to rows with a positive
        # first coordinate put 0 on a face of the hull.
        rng = np.random.default_rng(40 + j)
        signed = np.vstack([np.eye(j), -np.eye(j)])
        for _ in range(10):
            rows = rng.normal(size=(6, j))
            rows[:, 0] = np.abs(rows[:, 0]) + 0.1
            assert feasibility(rows) == ("infeasible", 0.0), rows
            mix = rng.normal(size=(j, j)) * 10.0 ** rng.uniform(-2, 2)
            status, t = feasibility(signed @ mix)
            assert status == "interior" and abs(t - 1.0 / (2 * j)) <= 1e-9, (status, t)
            extra = rng.normal(size=(3, j)) * 3.0
            assert feasibility(np.vstack([signed, extra]) @ mix)[0] == "interior"
            face = np.vstack([signed[1:j], signed[j + 1 :], rows])
            assert feasibility(face @ mix)[0] == "boundary"

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_stack_matches_single_calls(self, j):
        rng = np.random.default_rng(j)
        stack = rng.normal(size=(40, 5, j)) + rng.normal(size=(40, 1, j))
        stack[::7] = 0.0
        status, t = moment_feasibility(stack)
        for node, s, tk in zip(stack, status, t):
            assert feasibility(node) == (s, tk)


def rotate(u, angle, scale=1.0):
    c, s = math.cos(angle), math.sin(angle)
    return scale * u @ np.array([[c, s], [-s, c]])


def hull_cases():
    """(label, u) pairs of (m, 2) rows: random rows, and the degenerate rows
    on which the closed form must classify as the linear program does."""
    rng = np.random.default_rng(7)
    for _ in range(150):
        m = int(rng.integers(2, 10))
        yield "random", rng.normal(size=(m, 2)) + rng.normal(size=2) * rng.uniform(0, 2)
    for _ in range(20):
        angle, scale = rng.uniform(0, 2 * math.pi), 10 ** rng.uniform(-3, 3)
        d = np.array([[math.cos(angle), math.sin(angle)]])
        s = rng.uniform(0.2, 3.0, size=(4, 1))
        one_side = s * d
        yield "collinear, one side", one_side
        yield "collinear, one side, zero row", np.vstack([one_side, np.zeros((1, 2))])
        yield "collinear, both sides", np.vstack([one_side, -s[:2] * d]) * scale
        yield "zero rows only", np.zeros((3, 2))
        half = rotate(np.column_stack([rng.normal(size=4), rng.uniform(0.1, 2, 4)]), angle)
        yield "open half-plane", half
        yield "open half-plane, zero row", np.vstack([half, np.zeros((2, 2))])
        # zero on an edge: exactly representable, then rotated
        edge = np.array([[1.0, 0.0], [-2.0, 0.0], [0.5, 1.0], [-0.3, 2.0]])
        yield "on an edge", edge
        yield "on an edge, rotated", rotate(edge, angle, scale)
        yield "at a vertex", np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -0.5]])
        # zero inside, with t = eps / (1 + 3 eps): 1e-10 is on the boundary,
        # 1e-8 inside.  Unit scale, since the program's tolerances are
        # absolute and would swallow a 1e-10 row scaled down.
        for eps in (1e-10, 1e-8):
            near = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -eps]])
            yield f"t = {eps:g}", rotate(near, angle)


class TestPlanarHull:
    """The closed-form J = 2 test against the linear program, its oracle."""

    def test_matches_linear_program(self):
        seen = set()
        for label, u in hull_cases():
            status, t = feasibility(u)
            t_lp = hull_lp_t(u)
            want = "infeasible" if t_lp == -math.inf else "boundary" if t_lp <= 1e-9 else "interior"
            assert status == want, (label, u, t, t_lp)
            if status != "infeasible":
                # the program's t carries the solver's tolerance, about 1e-11
                assert abs(t - t_lp) <= 1e-10 + 1e-7 * t_lp, (label, t, t_lp)
            if label.startswith("t = "):
                eps = float(label[4:])
                assert abs(t - eps / (1.0 + 3.0 * eps)) <= 1e-6 * eps, (label, t)
            seen.add((label, status))
        assert ("t = 1e-10", "boundary") in seen and ("t = 1e-08", "interior") in seen
        assert ("collinear, both sides", "interior") in seen
        assert ("on an edge, rotated", "boundary") in seen

    @pytest.mark.parametrize("eps", [1e-9, 1e-8, 3e-8, -1e-8])
    def test_rows_just_off_a_line_through_zero(self, eps):
        # both rows lie strictly on one side of the line y = 0, so 0 is
        # outside their hull however small |eps| is next to the rows' length
        u = np.array([[2.0, eps], [-1.0, eps]])
        assert feasibility(u) == ("infeasible", 0.0)
        for angle in (0.3, 2.0, 4.5):
            assert feasibility(rotate(u, angle)) == ("infeasible", 0.0), angle


class TestProjectOracle:
    def test_l_matches_dual(self):
        orc = project_oracle(UNIFORM3, mean_model(), [1.3], DivergenceSpec.l())
        res = l_project_linear(UNIFORM3, mean_model(), [1.3])
        assert np.max(np.abs(orc.weights - res.qhat.weights)) <= 1e-6

    def test_kl_at_mean_returns_base(self):
        r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        orc = project_oracle(r, mean_model(), [1.0], DivergenceSpec.kl())
        assert np.max(np.abs(orc.weights - r.weights)) <= 1e-9

    def test_euclidean_unconstrained_returns_base(self):
        r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        model = EstimatingModel(
            u=lambda x, th: np.zeros(th.shape[:-1] + (len(x), 0)), domain=ParamDomain.real_line(1),
            n_constraints=0, n_params=1,
        )
        orc = project_oracle(r, model, [0.0], DivergenceSpec.euclidean())
        assert np.max(np.abs(orc.weights - r.weights)) <= 1e-9

    def test_unconstrained_l_minimizer_is_base(self):
        # the oracle's version of the Gibbs inequality: with no constraints
        # the minimizer of L(. || r) is r itself
        r = make_pmf([0, 1, 2, 3], [0.1, 0.4, 0.3, 0.2])
        model = EstimatingModel(
            u=lambda x, th: np.zeros(th.shape[:-1] + (len(x), 0)), domain=ParamDomain.real_line(1),
            n_constraints=0, n_params=1,
        )
        orc = project_oracle(r, model, [0.0], DivergenceSpec.l())
        assert np.max(np.abs(orc.weights - r.weights)) <= 1e-9

    def test_infeasible(self):
        with pytest.raises(InfeasibleMoment):
            project_oracle(UNIFORM3, mean_model(), [2.5], DivergenceSpec.l())

    def test_uniqueness_across_restart_seeds(self):
        rng = np.random.default_rng(21)
        r, model = random_instance(rng, m=5, j=2)
        a = project_oracle(r, model, [0.0], DivergenceSpec.l(), seed=0)
        b = project_oracle(r, model, [0.0], DivergenceSpec.l(), seed=99)
        assert np.max(np.abs(a.weights - b.weights)) <= 1e-8

    def test_cr_gamma_one_matches_weighted_least_squares(self):
        # CR(1) is half of Pearson chi-square, whose projection onto a
        # linear family solves a mu-weighted least-squares system exactly
        rng = np.random.default_rng(33)
        for k in range(10):
            r, model = random_instance(rng)
            mu = r.weights
            umat = model.u_matrix(r.support, [0.0])
            amat = np.vstack([np.ones(r.m), umat.T])
            b = np.zeros(amat.shape[0])
            b[0] = 1.0
            gram = (amat * mu) @ amat.T
            nu = np.linalg.solve(gram, amat @ mu - b)
            closed = mu - mu * (amat.T @ nu)
            if np.any(closed <= 0):
                continue  # closed form only valid when interior
            orc = project_oracle(r, model, [0.0], DivergenceSpec.cr(1.0), seed=k)
            assert np.max(np.abs(orc.weights - closed)) <= 1e-7

    def test_polya_l_projection_first_order_optimality(self):
        # at an interior constrained minimum the gradient must be constant
        # over the support directions modulo the constraint rows
        r = make_pmf([0, 1, 2], [0.3, 0.4, 0.3])
        spec = DivergenceSpec.polya_l(0.5, 1)
        model = mean_model()
        orc = project_oracle(r, model, [1.3], spec, seed=2)
        grad = spec.grad(orc.weights, r.weights)
        umat = model.u_matrix(r.support, [1.3])
        amat = np.vstack([np.ones(r.m), umat.T])
        nu = np.linalg.lstsq(amat.T, -grad, rcond=None)[0]
        assert np.max(np.abs(grad + amat.T @ nu)) <= 1e-8
        assert abs(orc.weights @ (r.support - 1.3)) <= 1e-9


CR_GAMMAS = (-2.0, -0.5, 0.5, 1.0, 2.0)


def random_law(rng, m):
    """A law on m distinct atoms with every weight at least 0.1 / m."""
    sup = np.sort(rng.normal(size=m) * 2.0)
    while np.any(np.diff(sup) < 1e-3):
        sup = np.sort(rng.normal(size=m) * 2.0)
    w = rng.dirichlet(np.ones(m) * 3.0) * 0.9 + 0.1 / m
    return make_pmf(sup, w / w.sum())


class TestCrDual:
    def test_agrees_with_oracle(self):
        # the oracle with cr_estimate's former settings, where it converges
        rng = np.random.default_rng(41)
        compared = dict.fromkeys(CR_GAMMAS, 0)
        for k in range(60):
            gamma = CR_GAMMAS[k % len(CR_GAMMAS)]
            m = int(rng.integers(3, 9))
            if k % 2:
                r, model = random_instance(rng, m=m, j=2)
                theta = [0.0]
            else:
                r, model = random_law(rng, m), mean_model()
                theta = [float(r.support[0] + rng.uniform(0.1, 0.9) * np.ptp(r.support))]
            umat = model.u_matrix(r.support, theta)
            if feasibility(umat)[0] != "interior":
                continue
            lam, q, _, value = solve_one(r.weights, umat, gamma)
            try:
                orc = project_oracle(
                    r, model, theta, DivergenceSpec.cr(gamma), restarts=1, outer=6, inner=150
                )
            except NotConverged:
                continue
            assert abs(cressie_read(orc, r, gamma) - value) <= 1e-9
            assert np.max(np.abs(orc.weights - q)) <= 1e-6
            compared[gamma] += 1
        assert min(compared.values()) >= 4, compared

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_kkt_with_zero_weights(self, gamma):
        # theta near the bottom of the support: the optimal q leaves the
        # top atoms without weight
        rng = np.random.default_rng(int(gamma * 10))
        with_zeros = 0
        for _ in range(30):
            r = random_law(rng, int(rng.integers(3, 9)))
            x, p = r.support, r.weights
            theta = x[0] + rng.uniform(0.05, 0.5) * (r.mean() - x[0])
            umat = (x - theta)[:, None]
            lam, q, _, value = solve_one(p, umat, gamma)
            assert abs(q.sum() - 1.0) <= 1e-12
            assert abs(q @ umat[:, 0]) <= 1e-12
            assert np.all(q >= 0.0)
            live = q > 0.0
            with_zeros += int(not live.all())
            # stationarity: (q/p)^gamma - gamma lam.u is one constant
            # c = 1 + gamma eta on every atom with weight
            level = (q / p) ** gamma - gamma * (umat @ lam)
            c = float(np.mean(level[live]))
            assert np.max(np.abs(level[live] - c)) <= 1e-9 * max(1.0, abs(c))
            # complementary slackness: a zero-weight atom has z = c + gamma lam.u <= 0
            assert np.all(c + gamma * (umat[~live] @ lam) <= 1e-9 * max(1.0, abs(c)))
            assert abs(value - cressie_read(make_pmf(x, q), r, gamma)) <= 1e-12
        assert with_zeros >= 10

    @settings(max_examples=150, deadline=None)
    @given(
        atoms=st.lists(st.integers(-20, 20), min_size=3, max_size=8, unique=True),
        raw=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
        frac=st.floats(0.05, 0.95),
        gamma=st.sampled_from((-2.0, -0.5, 0.0, 0.5, 1.0, 2.0)),
    )
    def test_projection_properties(self, atoms, raw, frac, gamma):
        x = np.sort(np.asarray(atoms, dtype=float))
        p = np.asarray(raw[: x.size]) / sum(raw[: x.size])
        theta = x[0] + frac * np.ptp(x)
        umat = (x - theta)[:, None]
        lam, q, _, value = solve_one(p, umat, gamma)
        assert np.all(q >= 0.0) and abs(q.sum() - 1.0) <= 1e-12
        assert abs(q @ umat[:, 0]) <= 1e-10 * np.abs(umat).max()
        spec = DivergenceSpec.kl() if gamma == 0.0 else DivergenceSpec.cr(gamma)
        assert value >= -1e-12
        assert abs(value - spec.value(q, p)) <= 1e-10 * max(1.0, value)
        # no feasible mixture with the two-point law around theta does better
        hi = int(np.searchsorted(x, theta))
        lo = hi - 1
        two = np.zeros(x.size)
        two[lo] = (x[hi] - theta) / (x[hi] - x[lo])
        two[hi] = 1.0 - two[lo]
        for t in (0.01, 0.5):
            assert spec.value((1.0 - t) * q + t * two, p) >= value - 1e-12 * max(1.0, value)

    def test_tilting_stops_at_the_objective_resolution(self):
        # theta within 1e-4 of the sample mean: the first step leaves a
        # Newton decrement far below what the dual objective can resolve
        freq = np.array([42.0, 55.0, 103.0]) / 200.0
        x = np.array([0.0, 1.0, 2.0])
        for offset in np.concatenate([[4.55e-5], np.linspace(1e-6, 1e-4, 60)]):
            umat = (x - (freq @ x + offset))[:, None]
            lam, q, iterations, kl = solve_one(freq, umat, 0.0)
            assert iterations <= 10
            assert abs(q @ umat[:, 0]) <= 1e-15
            tilt = freq * np.exp(umat[:, 0] * lam[0])
            assert np.max(np.abs(q - tilt / tilt.sum())) <= 1e-15

    def test_unconstrained_returns_base(self):
        p = np.array([0.2, 0.3, 0.5])
        for gamma in (-2.0, 0.0, 1.0):
            lam, q, _, value = solve_one(p, np.zeros((3, 0)), gamma)
            assert lam.size == 0 and np.allclose(q, p, atol=1e-15) and abs(value) <= 1e-15


def near_boundary_draws(count):
    """(p, umat) per draw: moments centred at a law qs with a few atoms
    carrying mass down to about 1e-7 / m, so that zero sits close to the
    edge of the hull of the u rows."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        m = int(rng.integers(3, 9))
        j = int(rng.integers(1, 3))
        x = np.sort(rng.normal(size=m) * 2)
        p = rng.dirichlet(np.ones(m) * rng.choice([0.3, 1.0, 3.0]))
        p = np.maximum(p, 1e-4)
        p = p / p.sum()
        qs = rng.dirichlet(np.ones(m) * 0.2)
        eps = 10 ** rng.uniform(-7, -1)
        qs = (1 - eps) * qs + eps / m
        yield p, np.column_stack([x - qs @ x, x**2 - qs @ x**2])[:, :j]


class TestStackOnly:
    """The kernel and the hull test take (G, m, J) stacks and nothing else."""

    @pytest.mark.parametrize("shape", [(3, 1), (1, 1, 3, 1), (3,)])
    def test_other_shapes_raise(self, shape):
        umat = np.linspace(-1.0, 1.0, 3).reshape(shape)
        with pytest.raises(LengthMismatch):
            moment_feasibility(umat)
        with pytest.raises(LengthMismatch):
            dual_newton(np.full(3, 1.0 / 3.0), umat, -1.0)

    def test_a_node_that_does_not_converge_is_inf_not_raised(self):
        # gamma = -1 with zero outside the hull: the dual runs off to the
        # hull's edge and never meets the gradient tolerance
        umat = np.array([[[0.5], [1.0], [2.0]]])
        lam, q, _, value = dual_newton(np.full(3, 1.0 / 3.0), umat, -1.0)
        assert value[0] == math.inf and np.isnan(q).all() and np.isnan(lam).all()


class TestNearBoundary:
    # 1906 and 2111 ran the former EL-only Newton into its iteration cap;
    # 1632, 2320 and 2865 (m = 3, J = 2, hull margin about 1e-6) stall a
    # kernel that solves by least squares and recomputes z from the
    # multipliers.
    DRAWS = (1632, 1906, 2111, 2320, 2865)

    @pytest.mark.parametrize("draw", DRAWS)
    def test_empirical_likelihood_converges(self, draw):
        p, umat = next(itertools.islice(near_boundary_draws(draw + 1), draw, None))
        lam, q, iterations, value = solve_one(p, umat, -1.0)
        assert iterations < 200
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(q @ umat)) <= 1e-12
        assert np.all(q > 0.0)
        assert abs(value - float(p @ np.log(p / q))) <= 1e-12


def assert_stack_matches_single_calls(p, stack, gamma):
    """dual_newton on the stack against its stacks of one, node by node: q,
    lam and the value to 1e-12 relative, +inf (lam and q NaN) exactly where
    a stack of one does not converge, and, when every node converges, the
    iterations summed over the nodes."""
    lam, q, iterations, value = dual_newton(p, stack, gamma)
    assert lam.shape == stack.shape[::2] and q.shape == stack.shape[:2]
    total = 0
    for g, node in enumerate(stack):
        lam1, q1, it1, value1 = solve_one(p, node, gamma)
        if value1 == math.inf:
            assert np.isnan(q1).all() and np.isnan(lam1).all()
            assert value[g] == math.inf and np.isnan(q[g]).all() and np.isnan(lam[g]).all()
            total = None
            continue
        assert math.isfinite(value[g])
        total = None if total is None else total + it1
        np.testing.assert_allclose(q[g], q1, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(lam[g], lam1, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(value[g], value1, rtol=1e-12, atol=0.0)
    assert total is None or iterations == total


class TestStackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        atoms=st.lists(st.integers(-20, 20), min_size=3, max_size=8, unique=True),
        raw=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
        fracs=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=12),
        spread=st.floats(0.0, 0.5),
        j=st.sampled_from((1, 2)),
        gamma=st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 2.0)),
    )
    def test_stack_matches_single_calls(self, atoms, raw, fracs, spread, j, gamma):
        x = np.sort(np.asarray(atoms, dtype=float))
        p = np.asarray(raw[: x.size]) / sum(raw[: x.size])
        nodes = []
        for frac in fracs:
            theta = x[0] + frac * np.ptp(x)
            # the second moment sits between theta^2 and the largest one
            second = theta**2 + spread * (np.max(x**2) - theta**2)
            nodes.append(np.column_stack([x - theta, x**2 - second])[:, :j])
        stack = np.stack(nodes)
        status, _ = moment_feasibility(stack)
        keep = status != "infeasible" if gamma > 0.0 else status == "interior"
        if keep.any():
            assert_stack_matches_single_calls(p, stack[keep], gamma)

    @pytest.mark.parametrize("draw", TestNearBoundary.DRAWS)
    def test_near_boundary_draws_in_a_stack(self, draw):
        # each hard draw between easy nodes on its base: moments centred at
        # the base itself and at its mixtures with the uniform law
        p, umat = next(itertools.islice(near_boundary_draws(draw + 1), draw, None))
        m = p.size
        easy = []
        for mix in (0.0, 0.3, 0.7):
            target = (1.0 - mix) * p + mix / m
            easy.append(umat - target @ umat)
        stack = np.stack([easy[0], umat, easy[1], easy[2]])
        lam, q, iterations, value = dual_newton(p, stack, -1.0)
        qh = q[1]
        assert abs(qh.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(qh @ umat)) <= 1e-12
        assert np.all(qh > 0.0)
        assert abs(value[1] - float(p @ np.log(p / qh))) <= 1e-12
        assert dual_newton(p, umat[None], -1.0)[2] < 200
        assert_stack_matches_single_calls(p, stack, -1.0)


class TestLProjectStack:
    THETAS = np.array([-2.0, 0.0, 0.5, 1.3, 2.2, 3.9, 4.0])

    def test_matches_single_projections(self):
        self.check(self.THETAS)

    def test_more_nodes_than_a_grid_block(self):
        # one stack of 300 nodes, which the search would have cut into blocks of 256
        self.check(np.concatenate([self.THETAS, np.linspace(0.01, 3.5, 293)]))

    def check(self, thetas):
        r = make_pmf([0, 1, 2, 4], [0.1, 0.5, 0.3, 0.1])
        model = mean_model(ParamDomain.box((-1.0, 3.5)))
        thetas = thetas[:, None]
        proj = l_project_stack(r, model, thetas)
        for th, value, lam, weights, failure in zip(
            thetas, proj.value, proj.lam, proj.weights, proj.failure
        ):
            if failure is None:
                res = l_project_linear(r, model, th)
                assert value == res.value and np.array_equal(lam, res.lam)
                assert np.array_equal(make_pmf(r.support, weights).weights, res.qhat.weights)
            else:
                assert value == math.inf
                with pytest.raises(failure):
                    l_project_linear(r, model, th)
        assert proj.failure[0] is ThetaOutOfDomain and proj.failure[1] is SupportCondition


class TestProfile:
    def test_grid_containing_mean(self):
        prof = profile_l_projection(
            UNIFORM3, mean_model(), [[t] for t in np.linspace(0.2, 1.8, 33)]
        )
        assert abs(prof.theta_star[0] - 1.0) <= 1e-8
        assert math.isclose(prof.result.value, entropy(UNIFORM3), rel_tol=1e-12)

    def test_boundary_minimum(self):
        r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        model = mean_model(ParamDomain.box((-math.inf, 0.7)))
        grid = [[t] for t in np.linspace(0.05, 0.7, 14)]
        prof = profile_l_projection(r, model, grid)
        assert abs(prof.theta_star[0] - 0.7) <= 1e-9
        vals = [v for v in prof.values if math.isfinite(v)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))  # decreasing toward 0.7

    def test_two_minimizers_reported(self):
        r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        dom = ParamDomain.union(
            ParamDomain.box((-math.inf, 0.7)), ParamDomain.box((1.3, math.inf))
        )
        model = mean_model(dom)
        grid = [[t] for t in np.concatenate([np.linspace(0.3, 0.7, 5), np.linspace(1.3, 1.7, 5)])]
        prof = profile_l_projection(r, model, grid)
        assert len(prof.minimizers) == 2
        assert abs(prof.minimizers[0][0] - 0.7) <= 1e-12
        assert abs(prof.minimizers[1][0] - 1.3) <= 1e-12
        assert abs(prof.theta_star[0] - 0.7) <= 1e-9  # lexicographic tie-break

    def test_all_infeasible(self):
        with pytest.raises(AllThetaInfeasible):
            profile_l_projection(UNIFORM3, mean_model(), [[2.5], [3.0]])

    @pytest.mark.parametrize("points", [32, 300])
    def test_result_is_the_search_solve(self, points, monkeypatch):
        """``result`` comes from the search's solve at theta_star: it equals
        a fresh projection there, and no solve repeats it."""
        r = make_pmf([0, 1, 2, 4], [0.1, 0.5, 0.3, 0.1])
        calls = []
        dual = _MomentProblem.dual

        def spy(mp, ths, gamma):
            calls.append(len(ths))
            return dual(mp, ths, gamma)

        traces = []
        search = _profile_min

        def keep_trace(*args):
            out = search(*args)
            traces.append(out[3])
            return out

        monkeypatch.setattr(_MomentProblem, "dual", spy)
        monkeypatch.setattr(projection, "_profile_min", keep_trace)
        prof = profile_l_projection(r, mean_model(), [[t] for t in np.linspace(0.15, 2.75, points)])
        refinement = len(traces[0]) - points
        blocks = [min(256, points - lo) for lo in range(0, points, 256)]
        assert refinement > 0 and calls == blocks + [1] * refinement
        monkeypatch.setattr(_MomentProblem, "dual", dual)
        fresh = l_project_linear(r, mean_model(), prof.theta_star)
        for field in ("lam", "value", "converged", "grad_norm"):
            assert np.array_equal(getattr(prof.result, field), getattr(fresh, field)), field
        assert np.array_equal(prof.result.qhat.weights, fresh.qhat.weights)


class _TableProblem:
    """A stand-in moment problem whose profile is ``table`` (theta tuple to
    value, +inf elsewhere) with a zero gradient, so that the refinement
    keeps the grid start and ``_profile_min`` returns the node it picked."""

    def __init__(self, table, domain):
        self.table = table
        self.model = SimpleNamespace(domain=domain)

    def gradient(self, th, sol, i):
        return np.zeros(th.size)


def _table_solve(mp, ths):
    value = np.array([mp.table.get(tuple(t), math.inf) for t in ths.tolist()])
    failure = [None if math.isfinite(v) else InfeasibleMoment for v in value]
    zeros = np.zeros((len(ths), 1))
    return ProjectionStack(value, zeros, zeros, zeros, failure)


HALVES = ParamDomain.union(ParamDomain.box((-math.inf, 0.7)), ParamDomain.box((1.3, math.inf)))


class TestProfileMinPick:
    """The grid start: among the finite nodes of every stage within 1e-12
    of the grid minimum, the lexicographically smallest theta."""

    @pytest.mark.parametrize(
        "stages, table, domain, expected",
        [
            pytest.param(  # exact ties; the +inf node at 0.0 is not a candidate
                [[[0.3], [0.1], [0.0], [0.2]]], {(0.3,): 1.0, (0.1,): 1.0, (0.2,): 1.0},
                ParamDomain.real_line(), (0.1,), id="exact-ties"),
            pytest.param(
                [[[0.1], [0.2], [0.3]]], {(0.1,): 1.0 + 1e-13, (0.2,): 1.0, (0.3,): 2.0},
                ParamDomain.real_line(), (0.1,), id="ties-1e-13-apart"),
            pytest.param(
                [[[0.1], [0.2], [0.3]]], {(0.1,): 1.0 + 1e-11, (0.2,): 1.0, (0.3,): 2.0},
                ParamDomain.real_line(), (0.2,), id="gap-1e-11-no-tie"),
            pytest.param(  # a root node appended after the grid, below a tied node
                [[[0.0], [0.5], [1.0], [0.25]]],
                {(0.0,): 3.0, (0.5,): 1.0, (1.0,): 2.0, (0.25,): 1.0 + 5e-13},
                ParamDomain.real_line(), (0.25,), id="root-out-of-order"),
            pytest.param(  # two domain boxes, the upper one's stage first
                [[[1.3], [1.5]], [[0.5], [0.7]]],
                {(1.3,): 1.0, (1.5,): 2.0, (0.5,): 3.0, (0.7,): 1.0 + 1e-13},
                HALVES, (0.7,), id="two-boxes"),
            pytest.param(
                [[[0.5, 0.9], [0.6, 0.0], [0.5, 0.1]]],
                {(0.5, 0.9): 1.0, (0.6, 0.0): 1.0, (0.5, 0.1): 1.0 + 1e-13},
                ParamDomain.real_line(2), (0.5, 0.1), id="lexicographic-2d"),
        ],
    )
    def test_pick(self, stages, table, domain, expected):
        stages = [(np.array(pts, dtype=float), [0.1] * len(pts[0])) for pts in stages]
        theta, value, (sol, i), trace = _profile_min(
            _TableProblem(table, domain), _table_solve, stages
        )
        assert tuple(theta) == expected
        assert value == table[expected] == sol.value[i]
        assert len(trace) == sum(len(pts) for pts, _ in stages)  # no refinement evaluation

    def test_nothing_finite(self):
        stages = [(np.array([[0.1], [0.2]]), [0.1])]
        with pytest.raises(AllThetaInfeasible):
            _profile_min(_TableProblem({}, ParamDomain.real_line()), _table_solve, stages)
