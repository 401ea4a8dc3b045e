import dataclasses
import math

import numpy as np
import pytest

from elmap.divergences import l_divergence
from elmap.errors import (
    AllThetaInfeasible,
    AllZeroLikelihood,
    DomainViolation,
    InfeasibleMoment,
    NotConverged,
    SingularConstraints,
    SupportCondition,
    ThetaOutOfDomain,
)
from elmap.estimators import (
    _SampleProblem,
    cr_estimate,
    cr_inner,
    el_estimate,
    el_inner,
    et_estimate,
    et_inner,
    euclidean_estimate,
    euclidean_inner,
    mnpl_grid,
)
from elmap.prob import (
    EstimatingModel,
    ParamDomain,
    Sample,
    empirical_pmf,
    linear_model,
    make_pmf,
    mean_model,
)
from elmap import projection
from elmap.projection import l_project_linear, profile_l_projection, project_oracle
from elmap.divergences import DivergenceSpec

from oracles import el_primal_bruteforce, fit_pmf

S012 = Sample((0.0, 1.0, 2.0))


def null_model():
    return EstimatingModel(
        u=lambda x, th: np.zeros(th.shape[:-1] + (len(x), 0)), domain=ParamDomain.real_line(1),
        n_constraints=0, n_params=1,
    )


def overidentified_model():
    return EstimatingModel(
        u=lambda x, th: np.stack([x - th[..., :1], x * x - th[..., :1] ** 2 - 1.0], axis=-1),
        domain=ParamDomain.real_line(1), n_constraints=2, n_params=1,
    )


def shifted_mean_model(shift, domain):
    """u(x; theta) = x - theta - shift, with its root at the sample mean
    minus shift."""
    return EstimatingModel(
        u=lambda xs, th: xs[:, None] - th[..., None, :1] - shift,
        domain=domain, n_constraints=1, n_params=1,
    )


def _scalar_grid_oracle(sample, model, gamma, lo=0.0, hi=3.0, points=3001):
    """Exhaustive grid minimization of the profile at Cressie-Read gamma
    (-1 for EL, 0 for ET), the grid solved as one stack, plus a bounded
    scalar refinement by single-theta solves; independent of the
    estimator's own outer search.  A theta where the fit does not exist
    scores +inf."""
    from scipy.optimize import minimize_scalar

    mp = _SampleProblem(sample, model)

    def safe(t):
        return float(mp.dual(np.array([[t]]), gamma).value[0])

    grid = np.linspace(lo, hi, points)
    vals = mp.dual(grid[:, None], gamma).value
    i = int(np.argmin(vals))
    res = minimize_scalar(
        safe,
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x), float(res.fun)


class TestElInner:
    def test_unconstrained(self):
        fit = el_inner(S012, null_model(), [0.0])
        assert np.allclose(fit.w, 1 / 3)
        assert math.isclose(fit.profile_value, 3 * math.log(3.0), rel_tol=1e-14)

    def test_at_sample_mean(self):
        fit = el_inner(S012, mean_model(), [1.0])
        assert np.max(np.abs(fit.lam)) <= 1e-12
        assert np.allclose(fit.w, 1 / 3)

    def test_matches_primal_bruteforce(self):
        model = mean_model()
        fit = el_inner(S012, model, [1.2])
        counts = np.ones(3)
        umat = model.u_matrix([0.0, 1.0, 2.0], [1.2])
        primal = el_primal_bruteforce(counts, umat)
        # per-observation optimum = primal over atoms minus sum c log c (= 0 here)
        assert abs(fit.profile_value - (-primal)) <= 1e-6

    def test_duplicates_consistent(self):
        sample = Sample((0.0, 0.0, 1.0, 2.0, 2.0, 2.0))
        model = mean_model()
        fit = el_inner(sample, model, [1.0])
        vals, counts = np.unique(sample.values(), return_counts=True)
        umat = model.u_matrix(list(vals), [1.0])
        primal = el_primal_bruteforce(counts.astype(float), umat)
        correction = float(counts @ np.log(counts))
        assert abs(fit.profile_value - (correction - primal)) <= 1e-6
        assert abs(fit.w.sum() - 1.0) <= 1e-10
        assert np.all(fit.w > 0)

    def test_kerridge_identity(self):
        # duplicate-free sample: profile value is exactly n * L(qhat || nu)
        sample = Sample((0.0, 0.7, 1.0, 2.0, 2.5))
        fit = el_inner(sample, mean_model(), [1.2])
        nu = empirical_pmf(sample)
        assert abs(fit.profile_value - sample.n * l_divergence(fit_pmf(sample, fit), nu)) <= 1e-8

    def test_kerridge_identity_with_duplicates(self):
        # duplicated observations add the count-entropy correction
        sample = Sample((0.0, 0.0, 1.0, 2.0, 2.0, 2.0))
        fit = el_inner(sample, mean_model(), [1.2])
        nu = empirical_pmf(sample)
        _, counts = np.unique(sample.values(), return_counts=True)
        correction = float(counts @ np.log(counts))
        lhs = fit.profile_value
        rhs = sample.n * l_divergence(fit_pmf(sample, fit), nu) + correction
        assert abs(lhs - rhs) <= 1e-8

    def test_moment_satisfied(self):
        fit = el_inner(S012, mean_model(), [1.4])
        assert abs(fit.w @ (S012.values() - 1.4)) <= 1e-8

    def test_infeasible(self):
        with pytest.raises(InfeasibleMoment):
            el_inner(S012, mean_model(), [2.4])

    def test_affine_invariance(self):
        sample = Sample((0.0, 1.0, 1.0, 2.0, 3.0))
        model = overidentified_model()
        amat = np.array([[1.5, -0.2], [0.7, 2.0]])
        model2 = EstimatingModel(
            u=lambda x, th: model.u(x, th) @ amat.T,
            domain=model.domain, n_constraints=2, n_params=1,
        )
        f1 = el_inner(sample, model, [1.3])
        f2 = el_inner(sample, model2, [1.3])
        assert np.max(np.abs(f1.w - f2.w)) <= 1e-8


class TestElEstimate:
    def test_just_identified_gives_sample_mean(self):
        fit = el_estimate(S012, mean_model())
        assert abs(fit.theta_hat[0] - 1.0) <= 1e-8

    def test_halfline_boundary(self):
        model = mean_model(ParamDomain.box((-math.inf, 1.0 - 0.3)))
        fit = el_estimate(S012, model)
        assert abs(fit.theta_hat[0] - 0.7) <= 1e-8
        # profile decreases toward the boundary on the feasible side
        tr = sorted((th[0], v) for th, v in fit.trace if math.isfinite(v))
        vals = [v for _, v in tr]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_overidentified_matches_grid_oracle(self):
        rng = np.random.default_rng(42)
        obs = rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.22, 0.38, 0.38, 0.02], size=200)
        sample = Sample(tuple(obs))
        assert 3.0 in sample.values()  # family needs the spread atom
        model = overidentified_model()
        fit = el_estimate(sample, model)
        oracle_t, oracle_v = _scalar_grid_oracle(sample, model, -1.0)
        assert abs(fit.theta_hat[0] - oracle_t) <= 2e-6
        assert fit.inner.profile_value <= oracle_v + 1e-9

    def test_trace_invariant(self):
        fit = el_estimate(S012, mean_model())
        finite = [v for _, v in fit.trace if math.isfinite(v)]
        assert fit.inner.profile_value <= min(finite) + 1e-12

    def test_all_theta_infeasible(self):
        model = mean_model(ParamDomain.box((5.0, 6.0)))
        with pytest.raises(AllThetaInfeasible):
            el_estimate(S012, model)

    @pytest.mark.parametrize("grid_points", [41, 201])
    def test_atom_weights_normalized(self, grid_points):
        # the dual converges only to 1e-10 in gradient, so freq / (1 - lam.u)
        # summed to 0.9999999980 at some theta of this scan
        sample = Sample((0.0,) * 23 + (1.0,) * 72 + (2.0,) * 105)
        fit = el_estimate(sample, mean_model(), grid_points)
        assert abs(fit.theta_hat[0] - 1.41) <= 1e-6
        assert abs(fit_pmf(sample, fit.inner).weights.sum() - 1.0) <= 1e-12
        assert abs(fit.inner.w.sum() - 1.0) <= 1e-12

    def test_linear_model_pair(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        y = 0.5 + 1.5 * x + rng.normal(size=40) * 0.3
        sample = Sample(tuple(zip(x, y)))
        fit = el_estimate(sample, linear_model(), grid_points=31)
        ols_b, ols_a = np.polyfit(x, y, 1)
        assert abs(fit.theta_hat[0] - ols_a) <= 1e-6
        assert abs(fit.theta_hat[1] - ols_b) <= 1e-6


class TestEtEstimate:
    def test_just_identified_gives_sample_mean(self):
        fit = et_estimate(S012, mean_model())
        assert abs(fit.theta_hat[0] - 1.0) <= 1e-8

    def test_weights_exponential_family_form(self):
        sample = Sample((0.0, 1.0, 1.0, 3.0))
        fit = et_inner(sample, mean_model(), [1.0])
        assert np.all(fit.w > 0)
        assert abs(fit.w.sum() - 1.0) <= 1e-10
        umat = mean_model().u_matrix(list(sample.values()), [1.0])
        tilts = np.exp(umat @ fit.lam).ravel()
        ratio = fit.w * sample.n / tilts
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-9

    def test_tilt_dual_matches_generic_minimizer(self):
        from scipy.optimize import minimize

        from elmap.estimators import tilt_dual

        rng = np.random.default_rng(31)
        for _ in range(25):
            m = int(rng.integers(3, 7))
            j = int(rng.integers(1, 3))
            freq = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
            freq = freq / freq.sum()
            qstar = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
            qstar = qstar / qstar.sum()
            sup = np.sort(rng.normal(size=m) * 2.0)
            cols = [sup - qstar @ sup, sup**2 - qstar @ sup**2]
            umat = np.stack(cols[:j], axis=1)
            lam, pi, kl = tilt_dual(freq, umat)

            def logz(la, freq=freq, umat=umat):
                e = umat @ la
                s = e.max()
                return float(np.log(freq @ np.exp(e - s)) + s)

            ref = minimize(logz, np.zeros(j), method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
            assert logz(lam) <= ref.fun + 1e-10
            # KL of the tilt = -min log Z, up to the 1e-8 gradient tolerance
            assert abs(kl + logz(lam)) <= 1e-7
            assert np.max(np.abs(pi @ umat)) <= 1e-8

    def test_misspecified_el_et_differ_and_match_oracles(self):
        rng = np.random.default_rng(7)
        obs = rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.22, 0.38, 0.38, 0.02], size=2000)
        sample = Sample(tuple(obs))
        model = overidentified_model()
        f_el = el_estimate(sample, model)
        f_et = et_estimate(sample, model)
        assert abs(f_el.theta_hat[0] - f_et.theta_hat[0]) > 5e-3
        t_el, _ = _scalar_grid_oracle(sample, model, -1.0)
        t_et, _ = _scalar_grid_oracle(sample, model, 0.0)
        assert abs(f_el.theta_hat[0] - t_el) <= 2e-6
        assert abs(f_et.theta_hat[0] - t_et) <= 2e-6


class TestEuclidean:
    def test_unconstrained(self):
        fit = euclidean_inner(S012, null_model(), [0.0])
        assert np.allclose(fit.w, 1 / 3)
        assert fit.profile_value == 0.0

    def test_just_identified_gives_sample_mean(self):
        fit = euclidean_estimate(S012, mean_model())
        assert abs(fit.theta_hat[0] - 1.0) <= 1e-8

    def test_matches_oracle_when_nonnegative(self):
        fit = euclidean_inner(S012, mean_model(), [1.1])
        assert fit.nonnegative
        orc = project_oracle(
            empirical_pmf(S012), mean_model(), [1.1], DivergenceSpec.euclidean()
        )
        vals, _ = np.unique(S012.values(), return_counts=True)
        atom_w = np.array([fit.w[list(S012.values()).index(v)] for v in vals])
        assert np.max(np.abs(atom_w - orc.weights)) <= 1e-6

    def test_negative_weights_flagged(self):
        sample = Sample((0.0, 0.0, 0.0, 0.0, 10.0))
        fit = euclidean_inner(sample, mean_model(), [0.2])
        assert fit.nonnegative == bool(fit.w.min() >= 0.0)
        assert abs(fit.w.sum() - 1.0) <= 1e-10
        assert abs(fit.w @ (sample.values() - 0.2)) <= 1e-8

    def test_singular_constraints(self):
        from elmap.errors import SingularConstraints

        model = EstimatingModel(
            u=lambda x, th: np.stack([x - th[..., :1], 2.0 * (x - th[..., :1])], axis=-1),
            domain=ParamDomain.real_line(1), n_constraints=2, n_params=1,
        )
        with pytest.raises(SingularConstraints):
            euclidean_inner(S012, model, [1.0])

    def test_constant_sample_all_methods(self):
        sample = Sample((5.0, 5.0, 5.0))
        for est in (el_estimate, et_estimate, euclidean_estimate):
            fit = est(sample, mean_model())
            assert abs(fit.theta_hat[0] - 5.0) <= 1e-12
            assert np.allclose(fit.inner.w, 1 / 3)


class TestCr:
    def test_gamma_one_unconstrained(self):
        fit = cr_estimate(S012, null_model(), 1.0)
        assert np.allclose(fit.inner.w, 1 / 3)

    def test_gamma_zero_dispatch(self):
        f1 = cr_estimate(S012, mean_model(), 0.0)
        f2 = et_estimate(S012, mean_model())
        assert f1.method == f2.method == "ET"
        assert np.array_equal(f1.theta_hat, f2.theta_hat)

    @pytest.mark.parametrize("gamma", [-2.0, -0.5, 0.5, 1.0, 2.0])
    def test_just_identified_gives_sample_mean(self, gamma):
        sample = Sample((0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 3.0))
        fit = cr_estimate(sample, mean_model(), gamma, grid_points=21)
        assert abs(fit.theta_hat[0] - sample.values().mean()) <= 1e-6
        assert abs(fit.inner.w.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("gamma", [-0.5, 0.5, 2.0])
    def test_inner_carries_the_multiplier(self, gamma):
        # q = p (1 + gamma (eta + lam u))^(1/gamma) with the fit's own lam
        sample = Sample((0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 3.0))
        fit = cr_inner(sample, mean_model(), [1.2], gamma)
        vals, counts = np.unique(sample.values(), return_counts=True)
        weights = fit_pmf(sample, fit).weights
        level = (weights * sample.n / counts) ** gamma - gamma * fit.lam[0] * (vals - 1.2)
        assert abs(fit.lam[0]) > 0.1
        assert np.ptp(level) <= 1e-12

    @pytest.mark.parametrize("theta,p_a", [(0.0, 0.36), (2.0, 0.225)])
    def test_hull_edge_node_is_the_point_mass(self, theta, p_a):
        # At the smallest or the largest atom only the point mass there has
        # mean theta, and CR_gamma of a point mass from the frequencies is
        # ((1/p_a)^gamma - 1) / (gamma (gamma + 1)): 177.78 and 295.52 at n = 200.
        gamma, n = 0.5, 200
        sample = Sample((0.0,) * 72 + (1.0,) * 83 + (2.0,) * 45)
        fit = cr_inner(sample, mean_model(), [theta], gamma)
        pmf = fit_pmf(sample, fit)
        point_mass = (pmf.support == theta).astype(float)
        assert np.abs(pmf.weights - point_mass).max() <= 1e-12
        want = n * ((1.0 / p_a) ** gamma - 1.0) / (gamma * (gamma + 1.0))
        assert abs(fit.profile_value - want) <= 1e-12 * want

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, None])
    def test_gamma_not_finite(self, gamma):
        # gamma = None keys the Euclidean fit inside the module; a caller's
        # None is no Cressie-Read index
        with pytest.raises(DomainViolation):
            cr_inner(S012, mean_model(), [1.0], gamma)
        with pytest.raises(DomainViolation):
            cr_estimate(S012, mean_model(), gamma)

    @pytest.mark.parametrize("gamma, estimate, label", [
        (-1.0, el_estimate, "EL"), (-1, el_estimate, "EL"),
        (0.0, et_estimate, "ET"), (-0.0, et_estimate, "ET"),
    ])
    @pytest.mark.parametrize("domain, at_root", [
        pytest.param(ParamDomain.real_line(), True, id="root"),
        pytest.param(ParamDomain.box((2.0, 3.0)), False, id="grid"),  # the mean 1.5 is outside
    ])
    def test_limits_are_el_and_et(self, gamma, estimate, label, domain, at_root):
        # the same fit, floor and label, whether the root or the grid decides
        sample = Sample((0.0, 1.0, 1.0, 2.0, 2.0, 3.0))
        f_cr = cr_estimate(sample, mean_model(domain), gamma, grid_points=41)
        f_ref = estimate(sample, mean_model(domain), grid_points=41)
        assert f_cr.method == f_ref.method == label
        assert f_cr.trace == f_ref.trace
        assert (len(f_cr.trace) == 1) == at_root
        assert np.array_equal(f_cr.theta_hat, f_ref.theta_hat)
        for field in ("lam", "w", "profile_value", "profile_grad"):
            assert np.array_equal(getattr(f_cr.inner, field), getattr(f_ref.inner, field))

    @pytest.mark.parametrize("gamma", [2, 0.5])
    def test_label_keeps_the_callers_gamma(self, gamma):
        assert cr_estimate(S012, mean_model(), gamma).method == f"CR({gamma})"

    def test_near_el_limit(self):
        rng = np.random.default_rng(9)
        obs = rng.choice([0.0, 1.0, 2.0], p=[0.3, 0.4, 0.3], size=25)
        sample = Sample(tuple(obs))
        f_cr = cr_estimate(sample, mean_model(), -1.0 + 1e-4, grid_points=101)
        f_el = el_estimate(sample, mean_model(), grid_points=101)
        assert abs(f_cr.theta_hat[0] - f_el.theta_hat[0]) <= 1e-3


class TestMnplGrid:
    def test_empirical_wins(self):
        sample = Sample((0.0, 1.0, 1.0))
        emp = empirical_pmf(sample)
        other = make_pmf([0, 1], [0.5, 0.5])
        idx, _ = mnpl_grid(sample, [emp, other])
        assert idx == [0]

    def test_missing_atom_infinite(self):
        sample = Sample((0.0, 2.0))
        cand = make_pmf([0, 1], [0.5, 0.5])
        good = make_pmf([0, 1, 2], [0.4, 0.2, 0.4])
        idx, val = mnpl_grid(sample, [cand, good])
        assert idx == [1]

    def test_all_infinite(self):
        sample = Sample((5.0,))
        with pytest.raises(AllZeroLikelihood):
            mnpl_grid(sample, [make_pmf([0, 1], [0.5, 0.5])])

    def test_no_candidates(self):
        with pytest.raises(DomainViolation):
            mnpl_grid(S012, [])

    def test_long_run_winner(self):
        rng = np.random.default_rng(0)
        obs = rng.choice([0.0, 1.0], size=2000)
        idx, _ = mnpl_grid(
            Sample(tuple(obs)),
            [make_pmf([0, 1], [0.6, 0.4]), make_pmf([0, 1], [0.9, 0.1])],
        )
        assert idx == [0]


def _ols(x, y):
    design = np.column_stack([np.ones_like(x), x])
    return np.linalg.lstsq(design, y, rcond=None)[0]


def _linear_fit_error(x, y, grid_points):
    fit = el_estimate(Sample(tuple(zip(x, y))), linear_model(), grid_points)
    return float(np.abs(fit.theta_hat - _ols(x, y)).max())


class TestLinearPresetOls:
    """The linear preset is just identified, so the EL estimate is OLS."""

    def test_uncentred_pairs(self):
        x = np.array([1.0, 2.0, 1.0, 3.0, 2.0, 0.0, 0.0, 3.0])
        y = np.array([1.232, 2.181, 2.152, 2.974, 1.648, 0.367, 0.688, 2.521])
        assert _linear_fit_error(x, y, 11) <= 1e-8

    def test_feasible_region_between_grid_nodes(self):
        # The region of (a, b) where the EL profile is finite falls between
        # the nodes of the 11-point grid; the root of the sample estimating
        # equations (OLS) is the fit's start node.
        x = np.array([1.0, 3.0, 3.0, 1.0, 0.0, 3.0, 2.0, 0.0])
        y = np.array([0.858, 2.187, 2.428, 1.254, 0.209, 2.092, 1.816, 0.486])
        assert _linear_fit_error(x, y, 11) <= 1e-8

    def test_seeded_draws(self):
        # n = 8 pairs, x on {0, 1, 2, 3}, y rounded to 3 decimals.  Every
        # draw must have a start node, even where the region of (a, b) with
        # a finite EL profile falls between the nodes of the 11-point grid.
        rng = np.random.default_rng(2024)
        errors, no_start = [], 0
        while len(errors) < 20:
            x = rng.integers(0, 4, size=8).astype(float)
            if np.unique(x).size < 2:
                continue
            y = np.round(0.5 + 0.7 * x + 0.3 * rng.normal(size=8), 3)
            try:
                errors.append(_linear_fit_error(x, y, 11))
            except AllThetaInfeasible:
                no_start += 1
        print(f"{len(errors)} fits, {no_start} draws without a feasible grid node")
        assert no_start == 0
        assert max(errors) <= 1e-8, errors

    def test_half_lattice_fifty_pairs(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 4, size=50).astype(float)
        y = np.round(2.0 * (1.0 + 0.5 * x + 0.6 * rng.normal(size=50))) / 2.0
        assert _linear_fit_error(x, y, 21) <= 1e-8


def _central_difference(profile, theta, h=1e-5):
    grad = np.empty(theta.size)
    for i in range(theta.size):
        step = np.zeros(theta.size)
        step[i] = h * max(1.0, abs(theta[i]))
        grad[i] = (profile(theta + step) - profile(theta - step)) / (2.0 * step[i])
    return grad


_ESTIMATES = {
    "EL": el_estimate,
    "ET": et_estimate,
    "Euclidean": euclidean_estimate,
    "CR(-0.5)": lambda s, m, k: cr_estimate(s, m, -0.5, k),
    "CR(2.0)": lambda s, m, k: cr_estimate(s, m, 2.0, k),
}

_INNERS = [
    ("EL", el_inner),
    ("ET", et_inner),
    ("Euclidean", euclidean_inner),
] + [
    (f"CR({g})", lambda s, m, th, g=g: cr_inner(s, m, th, g)) for g in (-2.0, -0.5, 0.5, 2.0)
]


_INNERS_BY_METHOD = [(m, f) for m, f in _INNERS if m in _ESTIMATES]


class TestGridPoints:
    @pytest.mark.parametrize("grid_points", [0, -3, 2.5, math.nan])
    @pytest.mark.parametrize("estimate", _ESTIMATES.values(), ids=_ESTIMATES)
    def test_rejected(self, estimate, grid_points):
        # also where the fit returns at the root and no grid is built
        for domain in (ParamDomain.real_line(), ParamDomain.box((2.0, 3.0))):
            with pytest.raises(DomainViolation):
                estimate(S012, mean_model(domain), grid_points)

    @pytest.mark.parametrize("estimate", _ESTIMATES.values(), ids=_ESTIMATES)
    def test_integral_float_is_the_int(self, estimate):
        model = mean_model(ParamDomain.box((1.5, 3.0)))
        f_float, f_int = (estimate(S012, model, g) for g in (21.0, np.int64(21)))
        assert f_float.trace == f_int.trace and len(f_int.trace) > 1


class TestNonFiniteObservation:
    """A non-finite observation raises DomainViolation naming the first
    one, from every estimate and inner fit, before u is evaluated at any
    theta and without a numpy warning."""

    CASES = [  # (id, observations with the bad value third, model, theta)
        ("scalar", lambda b: (0.0, 1.0, b, 2.0, math.nan), mean_model, (0.5,)),
        ("pairs", lambda b: ((0.0, 1.0), (1.0, 1.5), (2.0, b), (math.nan, 0.0)),
         linear_model, (0.5, 0.5)),
    ]

    @staticmethod
    def _fits():
        for name, fit in _ESTIMATES.items():
            yield f"{name} estimate", lambda s, m, th, fit=fit: fit(s, m, 11)
        for name, fit in _INNERS:
            yield f"{name} inner", fit

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_rejected_before_any_solve(self, case, bad, monkeypatch):
        _, observations, model, theta = case
        sample = Sample(observations(bad))

        def no_u(*args):
            raise AssertionError("u evaluated")

        monkeypatch.setattr(_SampleProblem, "u", no_u)
        for label, fit in self._fits():
            with pytest.raises(DomainViolation, match=r"observation 2 = ") as info:
                fit(sample, model(), np.array(theta))
            assert repr(sample.observations[2]) in str(info.value), label


class TestGridStack:
    """The grid stage solves each domain box's grid as one stack and the
    refinement solves stacks of one; every trace record matches a
    single-theta inner fit.  The just-identified case keeps the grid
    because its root lies outside the box."""

    @pytest.mark.parametrize(
        "method,inner", _INNERS_BY_METHOD, ids=[m for m, _ in _INNERS_BY_METHOD]
    )
    def test_grid_values_match_single_solves(self, method, inner):
        rng = np.random.default_rng(3)
        # the over-identified family needs the spread atom 3
        obs = np.append(rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.22, 0.38, 0.38, 0.02], size=59), 3.0)
        models = ((mean_model(ParamDomain.box((-math.inf, 0.7))), 41), (overidentified_model(), 21))
        for model, grid_points in models:
            sample = Sample(tuple(obs))
            fit = _ESTIMATES[method](sample, model, grid_points)
            assert len(fit.trace) > grid_points
            for th, value in fit.trace:
                try:
                    single = inner(sample, model, list(th)).profile_value
                except (InfeasibleMoment, NotConverged, SingularConstraints):
                    single = math.inf
                if math.isinf(single):
                    assert value == math.inf, (th, value)
                else:
                    assert abs(value - single) <= 1e-12 * abs(single), (th, value, single)

    @pytest.mark.parametrize(
        "method,inner", _INNERS_BY_METHOD, ids=[m for m, _ in _INNERS_BY_METHOD]
    )
    def test_inner_is_a_fresh_fit_at_theta_hat(self, method, inner):
        # The estimate reuses the search's solution at theta_hat: a grid
        # node's from its grid stack (S012's mean 1.0 is a data-value node,
        # where refinement does not move), else the last accepted refinement
        # trial's.  Either must equal a fresh single-theta fit bit for bit.
        rng = np.random.default_rng(5)
        obs = np.append(rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.22, 0.38, 0.38, 0.02], size=59), 3.0)
        x = rng.integers(0, 4, size=30).astype(float)
        y = np.round(0.5 + 0.7 * x + 0.3 * rng.normal(size=30), 3)
        cases = [
            (S012, mean_model(), 201),
            (Sample(tuple(obs)), mean_model(), 41),
            (Sample(tuple(obs)), overidentified_model(), 21),
            (Sample(tuple(zip(x, y))), linear_model(), 11),
        ]
        for sample, model, grid_points in cases:
            fit = _ESTIMATES[method](sample, model, grid_points)
            if sample is S012:
                assert fit.theta_hat.tolist() == [1.0]
            fresh = inner(sample, model, fit.theta_hat)
            for name in ("lam", "w", "profile_grad"):
                got, want = getattr(fit.inner, name), getattr(fresh, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert np.float64(fit.inner.profile_value).tobytes() == np.float64(
                fresh.profile_value).tobytes()


def _refine_spy(monkeypatch) -> list:
    """Record, per call of the search's refinement, its start theta and the
    number of trials it evaluates."""
    calls = []
    refine_min = projection.refine_min

    def spy(fun, grad, theta, value, fit, box, step):
        trials = []

        def counted(th):
            trials.append(th)
            return fun(th)

        out = refine_min(counted, grad, theta, value, fit, box, step)
        calls.append((theta.copy(), len(trials)))
        return out

    monkeypatch.setattr(projection, "refine_min", spy)
    return calls


class TestRootStart:
    """In a just-identified model every discrepancy reaches its floor at
    the root of the sample estimating equations, where the weights stay at
    the empirical frequencies.  A root in the domain whose solve reaches
    the floor is the fit, with a one-record trace and no grid or
    refinement; every other model runs the grid."""

    METHODS = {
        "EL": (el_estimate, el_inner),
        "ET": (et_estimate, et_inner),
        "Euclidean": (euclidean_estimate, euclidean_inner),
        "CR(0.5)": (lambda s, m: cr_estimate(s, m, 0.5), lambda s, m, t: cr_inner(s, m, t, 0.5)),
        "CR(-0.5)": (lambda s, m: cr_estimate(s, m, -0.5), lambda s, m, t: cr_inner(s, m, t, -0.5)),
    }

    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("case", ["S012", "n200"])
    def test_mean_model_starts_at_the_root(self, case, method, monkeypatch):
        if case == "S012":
            sample = S012
        else:
            rng = np.random.default_rng(20)
            support = np.array([-2.0, 0.0, 1.0, 3.0, 4.0])
            sample = Sample(tuple(rng.choice(support, size=200, p=rng.dirichlet(np.ones(5)))))
        calls = _refine_spy(monkeypatch)
        estimate, inner = self.METHODS[method]
        fit = estimate(sample, mean_model())
        x = sample.values()
        span = x.max() - x.min()
        assert calls == []
        (th, value), = fit.trace
        assert th == tuple(fit.theta_hat.tolist()) and value == fit.inner.profile_value
        assert abs(fit.theta_hat[0] - x.mean()) <= 1e-14 * span
        fresh = inner(sample, mean_model(), fit.theta_hat)
        for name in ("lam", "w", "profile_grad"):
            got, want = getattr(fit.inner, name), getattr(fresh, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert np.float64(fit.inner.profile_value).tobytes() == np.float64(
            fresh.profile_value).tobytes()

    def test_root_found_from_inside_the_box(self, monkeypatch):
        # the data range's middle 1.0 lies outside [1.5, 3]; Newton starts
        # at the box's middle 2.25 and reaches the root 1.6
        calls = _refine_spy(monkeypatch)
        sample = Sample((0.0, 2.0, 2.0, 2.0, 2.0))
        fit = el_estimate(sample, mean_model(ParamDomain.box((1.5, 3.0))))
        assert calls == [] and len(fit.trace) == 1
        assert abs(fit.theta_hat[0] - 1.6) <= 1e-14
        assert abs(fit.inner.profile_value - 5 * math.log(5)) <= 1e-12 * 5 * math.log(5)

    def test_root_outside_the_box_is_no_node(self, monkeypatch):
        # the root 1.0 lies outside (-inf, 0.7]: the grid spans the box from
        # the data range's lower end, with the data value 0 among its nodes
        calls = _refine_spy(monkeypatch)
        fit = el_estimate(S012, mean_model(ParamDomain.box((-math.inf, 0.7))))
        grid = np.union1d(np.linspace(-0.1, 0.7, 201), [0.0])
        (_, trials), = calls
        assert len(fit.trace) == grid.size + trials
        assert [th[0] for th, _ in fit.trace[: grid.size]] == grid.tolist()
        assert abs(fit.theta_hat[0] - 0.7) <= 1e-8

    @pytest.mark.parametrize("shift, box, root", [
        (10.0, (-math.inf, -5.0), -9.0), (-10.0, (5.0, math.inf), 11.0),
    ])
    def test_one_sided_box_beyond_the_data(self, shift, box, root, monkeypatch):
        # the box lies wholly beyond the data range [0, 2] and its margin:
        # the grid span lies inside the box, ending at its finite end
        calls = _refine_spy(monkeypatch)
        fit = el_estimate(S012, shifted_mean_model(shift, ParamDomain.box(box)))
        assert calls == [] and len(fit.trace) == 1
        assert abs(fit.theta_hat[0] - root) <= 1e-14 * abs(root)

    def test_one_sided_box_beyond_the_data_runs_the_grid_inside_it(self):
        # the root -9 lies outside (-inf, -9.5]: the 201 nodes span the box's
        # last 2.2, the width of the data range with its margin
        fit = el_estimate(S012, shifted_mean_model(10.0, ParamDomain.box((-math.inf, -9.5))))
        nodes = [th[0] for th, _ in fit.trace[:201]]
        assert np.allclose(nodes, np.linspace(-11.7, -9.5, 201), rtol=0.0, atol=1e-12)
        assert abs(fit.theta_hat[0] + 9.5) <= 1e-8

    def test_overidentified_model_has_no_root(self, monkeypatch):
        # two constraints on one parameter, so no root node: 201 grid nodes
        # and the 4 data values, then 4 refinement trials
        rng = np.random.default_rng(42)
        obs = rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.22, 0.38, 0.38, 0.02], size=200)
        calls = _refine_spy(monkeypatch)
        fit = el_estimate(Sample(tuple(obs)), overidentified_model())
        (_, trials), = calls
        assert len(fit.trace) == 209 and trials == 4


class TestRootCertificate:
    """A just-identified fit returned at its root reaches the floor, the
    global lower bound of its discrepancy (n log n for EL, 0 for the
    others), and no node of an independent grid, scored by single-theta
    inner fits, does better."""

    METHODS = TestRootStart.METHODS

    @staticmethod
    def _cases():
        rng = np.random.default_rng(21)
        for _ in range(16):
            m, n = int(rng.integers(2, 8)), int(rng.integers(5, 300))
            support = rng.choice(np.arange(-5.0, 6.0), size=m, replace=False)
            obs = rng.choice(support, size=n, p=rng.dirichlet(np.ones(m)))
            # 41 nodes inside the data range, off its ends, where only a
            # point mass is feasible
            grid = np.linspace(obs.min(), obs.max(), 43)[1:-1, None]
            yield Sample(tuple(obs)), mean_model(), np.array([obs.mean()]), grid
        for _ in range(4):
            x = rng.integers(0, 4, size=30).astype(float)
            y = np.round(0.5 + 0.7 * x + 0.3 * rng.normal(size=30), 3)
            ols = _ols(x, y)
            yield Sample(tuple(zip(x, y))), linear_model(), ols, ols + rng.uniform(
                -0.3, 0.3, (41, 2))

    @pytest.mark.parametrize("method", list(METHODS))
    def test_certified_root_beats_an_independent_grid(self, method):
        estimate, inner = self.METHODS[method]
        for sample, model, want, grid in self._cases():
            fit = estimate(sample, model)
            floor = sample.n * math.log(sample.n) if method == "EL" else 0.0
            assert len(fit.trace) == 1
            assert abs(fit.inner.profile_value - floor) <= 1e-12 * max(1.0, floor)
            assert np.abs(fit.theta_hat - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
            finite = 0
            for th in grid:
                try:
                    value = inner(sample, model, th).profile_value
                except (InfeasibleMoment, NotConverged, SingularConstraints, SupportCondition):
                    continue
                if math.isfinite(value):
                    finite += 1
                    assert fit.inner.profile_value <= value, (th, value)
            assert finite > 0


def _gradient_cases(name, rng):
    """(sample, model, interior thetas) for the three models."""
    if name == "mean":
        obs = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], p=[0.1, 0.3, 0.2, 0.25, 0.15], size=60)
        return Sample(tuple(obs)), mean_model(), [np.array([t]) for t in rng.uniform(0.8, 3.2, 4)]
    if name == "linear":
        x = rng.integers(0, 4, size=30).astype(float)
        y = 0.5 + 0.7 * x + 0.3 * rng.normal(size=30)
        ols = _ols(x, y)
        return (
            Sample(tuple(zip(x, y))), linear_model(),
            [ols + rng.uniform(-0.05, 0.05, 2) for _ in range(4)],
        )
    obs = rng.choice([0.0, 1.0, 2.0, 3.0], p=[0.22, 0.38, 0.38, 0.02], size=60)
    assert 3.0 in obs
    thetas = [np.array([t]) for t in rng.uniform(0.8, 1.7, 4)]
    return Sample(tuple(obs)), overidentified_model(), thetas


class TestEnvelopeGradient:
    """Each inner fit's profile_grad matches central differences of its
    profile_value; the over-identified model has no du, so its Jacobian
    comes from central differences of u."""

    @pytest.mark.parametrize("model_name", ["mean", "linear", "overidentified"])
    @pytest.mark.parametrize("method,inner", _INNERS, ids=[m for m, _ in _INNERS])
    def test_matches_central_differences(self, method, inner, model_name):
        rng = np.random.default_rng(17)
        sample, model, thetas = _gradient_cases(model_name, rng)
        for th in thetas:
            fit = inner(sample, model, th)
            fd = _central_difference(lambda t: inner(sample, model, t).profile_value, th)
            scale = max(float(np.abs(fd).max()), 1.0)
            assert np.abs(fit.profile_grad - fd).max() <= 1e-6 * scale, (th, fit.profile_grad, fd)


class TestOneMomentProblem:
    """Estimators and L-projections solve one moment problem on weighted
    atoms and share one search."""

    def test_boundary_raises_support_condition(self):
        # at these theta the zero moment is on the hull's edge: an atom needs weight 0
        r = make_pmf([0, 1, 2], [0.2, 0.6, 0.2])
        for call in (
            lambda: el_inner(Sample((0.0, 1.0)), mean_model(), [1.0]),
            lambda: l_project_linear(r, mean_model(), [2.0]),
        ):
            with pytest.raises(SupportCondition):
                call()
            with pytest.raises(InfeasibleMoment):  # what callers catch
                call()

    def test_profile_l_projection_matches_el_estimate(self):
        # r = counts / n: L(q || r) and -sum_i log w_i differ by a constant
        # and a factor n, so both minimize at the same theta
        counts = np.array([22, 38, 38, 2])
        support = np.array([0.0, 1.0, 2.0, 3.0])
        r = make_pmf(support, counts / counts.sum())
        sample = Sample(tuple(np.repeat(support, counts)))
        model = overidentified_model()
        prof = profile_l_projection(r, model, [[t] for t in np.linspace(0.05, 2.95, 59)])
        fit = el_estimate(sample, model)
        assert abs(prof.theta_star[0] - fit.theta_hat[0]) <= 1e-7


class TestStackedU:
    """The moment problem evaluates u over a whole theta stack in one call:
    each node equals a per-theta ``u_matrix`` call bit for bit, and a node
    off the domain is a zero block with ThetaOutOfDomain."""

    @pytest.mark.parametrize("name", ["mean", "linear", "overidentified", "null"])
    def test_matches_per_theta_calls(self, name):
        rng = np.random.default_rng(23)
        obs = rng.choice([0.0, 1.0, 2.0, 3.0], size=30)
        model = {
            "mean": mean_model, "linear": linear_model,
            "overidentified": overidentified_model, "null": null_model,
        }[name]()
        k = model.n_params
        sample = Sample(tuple(obs))
        if name == "linear":
            sample = Sample(tuple(zip(obs, 0.5 + 0.7 * obs + rng.normal(size=30))))
        domain = ParamDomain.union(
            ParamDomain.box(*[(-1.0, 0.8)] * k), ParamDomain.box(*[(1.2, 3.0)] * k)
        )
        model = dataclasses.replace(model, domain=domain)
        ths = rng.uniform(-1.5, 3.5, size=(60, k))
        ths[0] = np.nan
        ths[1] = 0.8  # on a box's corner
        mp = _SampleProblem(sample, model)
        umat, failure = mp.u(ths, None)
        assert umat.shape == (60, mp.atoms.shape[0], model.n_constraints)
        inside = [
            any(all(lo <= t <= hi for t, (lo, hi) in zip(th, box)) for box in domain.boxes)
            for th in ths
        ]
        assert 0 < sum(inside) < 60 and inside[1] and not inside[0]
        for th, ok, u_node, fail in zip(ths, inside, umat, failure):
            if ok:
                assert fail is None
                assert np.array_equal(u_node, model.u_matrix(mp.atoms, th))
            else:
                assert fail is ThetaOutOfDomain
                assert not u_node.any()
        with pytest.raises(ThetaOutOfDomain):
            el_inner(sample, model, np.full(k, 1.0))  # between the boxes
