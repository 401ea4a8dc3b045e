"""Finite-support probability objects, samples and estimating models.

Everything downstream runs on distributions with a fixed finite support,
where the weak topology coincides with the simplex topology and total
variation is an exact, cheap ball metric.  An estimating model's u takes
all the points at once and broadcasts over a stack of parameter values, so
a whole theta grid is one call.  All objects are immutable after
construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    EmptySample,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
    ThetaOutOfDomain,
)

# Tolerances for weight handling: tiny negatives from round-off are clamped,
# sums within ACCEPT_TOL of 1 are renormalized, and a constructed Pmf must
# sum to 1 within NORM_TOL.
CLAMP_TOL = 1e-15
ACCEPT_TOL = 1e-9
NORM_TOL = 1e-12
# The ties of every candidate ranking (near_min): LIKELIHOOD_TIE for posterior
# modes and likelihood maxima, PROJECTION_TIE for divergence minimizers.
LIKELIHOOD_TIE = 1e-12
PROJECTION_TIE = 1e-9
# Central-difference step (relative to max(1, |theta_i|)) for the Jacobian of
# models without a closed form: eps^(1/3) balances truncation and rounding.
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _exact_renormalize(w: np.ndarray) -> np.ndarray:
    """Divide each row (the last axis) by its sum; then, in each row whose
    sum is not exactly 1.0 in floating point, push the residual into a
    weight where the addition registers, until it is."""
    w = w / w.sum(axis=-1, keepdims=True)
    rows = w.reshape(-1, w.shape[-1])
    for i in (rows.sum(axis=1) != 1.0).nonzero()[0]:
        _settle_residual(rows[i])
    return w


def _settle_residual(w: np.ndarray) -> None:
    """Make ``w.sum() == 1.0`` in place, for weights already divided by
    their sum.  Adding a sub-ulp residual to the largest weight can be a
    no-op, so the correction walks candidate weights from the smallest up."""
    for _ in range(16):
        resid = 1.0 - w.sum()
        if resid == 0.0:
            break
        order = np.argsort(w)
        cand = w[order] + resid
        takes = (w[order] > 0.0) & (cand > 0.0) & (cand != w[order])
        if not takes.any():
            break
        first = int(takes.argmax())
        w[order[first]] = cand[first]


def _whole(values, what: str) -> np.ndarray:
    """Sizes, counts or indices as int64; DomainViolation unless each is a
    whole number.  Ints pass unconverted, integral floats are converted."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.trunc(arr)))
    ):
        raise DomainViolation(f"{what} = {values!r}: each must be a whole number")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on a strictly increasing finite support."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if sup.ndim != 1 or w.ndim != 1 or sup.shape != w.shape:
            raise LengthMismatch(
                f"support has shape {sup.shape}, weights {w.shape}"
            )
        if sup.size == 0:
            raise LengthMismatch("empty support")
        if not (np.isfinite(sup).all() and np.isfinite(w).all()):
            raise DomainViolation("support points and weights must be finite")
        if not np.all(np.diff(sup) > 0):
            raise DomainViolation("support points must be unique and increasing")
        if np.any(w < 0.0):
            raise NegativeWeight(f"negative weight {w.min()!r}")
        if abs(w.sum() - 1.0) > NORM_TOL:
            raise NotNormalized(f"weights sum to {w.sum()!r}")
        sup.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return int(self.support.size)

    def masses(self, values) -> np.ndarray:
        """Weights of the atoms at the given values, 0.0 where a value is
        not a support point."""
        idx, hit = atom_index(self.support, values)
        return np.where(hit, self.weights[idx], 0.0)

    def mass(self, x: float) -> float:
        """Weight of the atom at x, 0.0 if x is not a support point."""
        return float(self.masses(x))

    def mean(self) -> float:
        return float(self.support @ self.weights)

    def tail_beyond(self, y: float) -> float:
        """Mass strictly to the right of y."""
        i = int(np.searchsorted(self.support, y, side="right"))
        return float(self.weights[i:].sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pmf)
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.weights, other.weights)
        )

    def to_json(self) -> str:
        """Round-trip-exact plain-text record of the Pmf."""
        return json.dumps(
            {"support": self.support.tolist(), "weights": self.weights.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "Pmf":
        rec = json.loads(text)
        return cls(np.asarray(rec["support"]), np.asarray(rec["weights"]))


def make_pmf(support: Sequence[float], weights: Sequence[float]) -> Pmf:
    """Validating constructor: rejects non-finite values, clamps round-off
    negatives and renormalizes weight sums within 1e-9 of 1."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise LengthMismatch(f"weights have shape {w.shape}, not one row")
    sup, rows = normalize_rows(support, w[None, :])
    return Pmf(sup, rows[0])


def normalize_rows(support: Sequence[float], weights) -> tuple:
    """make_pmf over the rows of a (K, m) weight matrix on one support.

    Returns the sorted support and the (K, m) rows, row k being the
    weights of ``make_pmf(support, weights[k])`` bit for bit: round-off
    negatives clamped, each row divided by its sum, and the residual loop
    run on the rows whose sum is then not exactly 1.0.
    """
    sup = np.asarray(support, dtype=float)
    w = np.array(weights, dtype=float)
    if sup.ndim != 1 or w.ndim != 2 or w.shape[1:] != sup.shape:
        raise LengthMismatch(f"{sup.shape} vs {w.shape}")
    if sup.size == 0:
        raise LengthMismatch("empty support")
    if not (np.isfinite(sup).all() and np.isfinite(w).all()):
        raise DomainViolation("support points and weights must be finite")
    if (w < -CLAMP_TOL).any():
        raise NegativeWeight(f"weight {w.min()!r} below clamp tolerance")
    w[w < 0.0] = 0.0
    total = w.sum(axis=1)
    off = abs(total - 1.0) > ACCEPT_TOL
    if off.any():
        raise NotNormalized(f"weights sum to {total[off][0]!r}")
    order = np.argsort(sup, kind="stable")
    sup = sup[order]
    if (sup[1:] == sup[:-1]).any():
        raise DomainViolation("support points must be unique")
    # C order, so that each row's sums are those of a lone (m,) row
    return sup, _exact_renormalize(np.ascontiguousarray(w[:, order]))


@dataclass(frozen=True)
class Sample:
    """An observed data sequence; observations are scalars or fixed-length
    tuples (the bivariate regression preset uses (x, y) pairs).  Anything
    else, such as rows of mixed length, scalars mixed with tuples or
    non-numeric entries, raises DomainViolation.  The float array they are
    converted from is kept, read-only, for ``values``."""

    observations: tuple
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            # a copy, so that freezing it leaves the caller's array writable
            vals = np.array(self.observations, dtype=float)
            # None is the one non-number the conversion takes (as nan)
            if np.isnan(vals).any() and np.equal(np.array(self.observations, object), None).any():
                raise TypeError("None is not a number")
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainViolation(
                f"observations must be numbers or equal-length tuples of numbers: {exc}"
            ) from None
        if vals.ndim == 1:
            obs = tuple(vals.tolist())
        elif vals.ndim == 2:
            obs = tuple(map(tuple, vals.tolist()))
        else:
            raise DomainViolation(
                f"observations must be scalars or equal-length tuples, not of shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "_values", vals)

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def is_scalar(self) -> bool:
        return self.n == 0 or not isinstance(self.observations[0], tuple)

    def values(self) -> np.ndarray:
        """Observations as a read-only float array, built once with the
        sample: shape (n,) for scalars, (n, d) for pairs."""
        return self._values


def empirical_pmf(sample: Sample) -> Pmf:
    """Uniform distribution over the observations, collapsed to atoms with
    relative-frequency weights."""
    if sample.n == 0:
        raise EmptySample("cannot form an empirical pmf from no observations")
    if not sample.is_scalar:
        raise DomainViolation("empirical_pmf is defined for scalar observations")
    vals, counts = np.unique(sample.values(), return_counts=True)
    return Pmf(vals, _exact_renormalize(counts.astype(float)))


def atom_index(support: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    """Where the values sit on a strictly increasing support: ``idx`` and
    ``hit``, shaped like ``values``, with ``support[idx] == values`` exactly
    where ``hit`` is True.  Elsewhere ``idx`` is a valid index that names
    no atom, so ``weights[idx]`` can be read before masking."""
    vals = np.asarray(values, dtype=float)
    idx = np.minimum(np.searchsorted(support, vals), support.size - 1)
    return idx, support[idx] == vals


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance over the union of the two supports."""
    sup = np.union1d(p.support, q.support)
    return float(0.5 * np.abs(p.masses(sup) - q.masses(sup)).sum())


def support_dominates(p: Pmf, q: Pmf) -> bool:
    """True iff every atom of p with positive weight has positive weight
    under q."""
    return bool((q.masses(p.support)[p.weights > 0.0] > 0.0).all())


# -- parameter domains -------------------------------------------------------


@dataclass(frozen=True)
class ParamDomain:
    """Finite union of (possibly unbounded) axis-aligned boxes in R^K.

    The boxes' lower and upper ends are also kept as read-only (boxes, K)
    arrays, built once here, which ``contains`` compares against."""

    boxes: tuple  # tuple of boxes; each box is a tuple of (lo, hi) pairs
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        boxes = tuple(
            tuple((float(lo), float(hi)) for lo, hi in box) for box in self.boxes
        )
        if not boxes:
            raise LengthMismatch("domain needs at least one box")
        k = len(boxes[0])
        if any(len(b) != k for b in boxes):
            raise LengthMismatch("all boxes must share one dimension")
        for box in boxes:
            for lo, hi in box:
                if not lo <= hi:
                    raise DomainViolation(f"empty interval ({lo}, {hi})")
        ends = np.array(boxes).reshape(len(boxes), k, 2)
        ends.setflags(write=False)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "_lo", ends[..., 0])
        object.__setattr__(self, "_hi", ends[..., 1])

    @property
    def k(self) -> int:
        return len(self.boxes[0])

    def contains(self, theta):
        """Whether theta (K,) lies in the domain; for a stack (..., K), one
        answer per row.  Rows with NaN, or of the wrong length, are outside."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if th.shape[-1] != self.k:
            return np.zeros(th.shape[:-1], dtype=bool)
        t = th[..., None, :]
        return np.any(np.all((self._lo <= t) & (t <= self._hi), axis=-1), axis=-1)

    @classmethod
    def box(cls, *intervals) -> "ParamDomain":
        return cls((tuple(intervals),))

    @classmethod
    def real_line(cls, k: int = 1) -> "ParamDomain":
        return cls((tuple((-math.inf, math.inf) for _ in range(k)),))

    @classmethod
    def union(cls, *domains: "ParamDomain") -> "ParamDomain":
        return cls(tuple(box for d in domains for box in d.boxes))


@dataclass(frozen=True)
class EstimatingModel:
    """J estimating functions u(x; theta) with parameter domain Theta.

    ``u(X, theta)`` takes the points X, (m,) or (m, d), and broadcasts over
    the leading axes of theta (..., K), giving (..., m, J): a single theta
    (K,) gives (m, J) and a stack (G, K) gives (G, m, J).  The zero-moment
    conditions sum(q_i * u(x_i; theta)) = 0 define a linear family of
    distributions for each theta.

    The optional closed form ``du(X, theta)`` gives the Jacobian
    du/dtheta at one theta as (m, J, K); without it, the Jacobian comes from
    central differences of u.
    """

    u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: ParamDomain
    n_constraints: int
    n_params: int
    name: str = ""
    du: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def u_matrix(self, points, theta) -> np.ndarray:
        """u at the given points for theta (K,) or a stack (..., K): an
        (m, J) or (..., m, J) array."""
        pts = np.asarray(points, dtype=float)
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.asarray(self.u(pts, th), dtype=float)
        expected = th.shape[:-1] + (len(pts), self.n_constraints)
        if out.shape != expected:
            raise LengthMismatch(
                f"u returned shape {out.shape}, expected {expected} "
                f"({self.n_constraints} components per point)"
            )
        if not np.all(np.isfinite(out)):
            raise DomainViolation("u produced non-finite values")
        return out

    def du_matrix(self, points, theta) -> np.ndarray:
        """Jacobian of u in theta at the given points, shape (m, J, K):
        ``du`` when the model has it, else central differences of u from
        one stacked call at the 2K nodes theta +- h e_i."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.du is not None:
            return np.asarray(self.du(np.asarray(points, dtype=float), th), dtype=float)
        step = np.diag(_FD_STEP * np.maximum(1.0, np.abs(th)))
        up, down = th + step, th - step
        diff = self.u_matrix(points, np.concatenate([up, down]))
        diff = diff[: th.size] - diff[th.size :]
        return np.moveaxis(diff / (np.diag(up) - np.diag(down))[:, None, None], 0, -1)


def moments(q: Pmf, model: EstimatingModel, theta) -> np.ndarray:
    """Componentwise sum(q_i * u(x_i; theta))."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if not model.domain.contains(th):
        raise ThetaOutOfDomain(f"theta {th} outside the parameter domain")
    umat = model.u_matrix(q.support, th)
    return q.weights @ umat


# -- model presets ------------------------------------------------------------


def mean_model(domain: ParamDomain | None = None) -> EstimatingModel:
    """Scalar location model, u(x; theta) = x - theta."""
    return EstimatingModel(
        u=lambda xs, th: xs[:, None] - th[..., None, :1],
        domain=domain if domain is not None else ParamDomain.real_line(1),
        n_constraints=1,
        n_params=1,
        name="mean",
        du=lambda xs, th: np.full((xs.shape[0], 1, 1), -1.0),
    )


def linear_model(domain: ParamDomain | None = None) -> EstimatingModel:
    """Bivariate regression model on observations (x, y) with theta=(a, b):
    u1 = y - (a + b x), u2 = x (y - (a + b x))."""

    def u(xy, th):
        x, y = xy[:, 0], xy[:, 1]
        resid = y - (th[..., :1] + th[..., 1:] * x)
        return np.stack([resid, x * resid], axis=-1)

    def du(xy, th):
        x = xy[:, 0]
        # d resid / d(a, b) = -(1, x); the second row carries a factor x
        d_resid = -np.stack([np.ones_like(x), x], axis=1)
        return np.stack([d_resid, x[:, None] * d_resid], axis=1)

    return EstimatingModel(
        u=u,
        domain=domain if domain is not None else ParamDomain.real_line(2),
        n_constraints=2,
        n_params=2,
        name="linear",
        du=du,
    )


def log_mass_table(candidates: Sequence[Pmf], values: np.ndarray) -> np.ndarray:
    """Log candidate masses at the given support values, shape (K, len(values)).

    Values that are not atoms of a candidate get -inf.  Called on the
    distinct atoms a sample can take, it is the (K, atoms) table that
    :func:`counts_loglik` weights by per-atom counts, the one form in which
    exact posterior updates and likelihood rankings see the data.
    """
    vals = np.asarray(values, dtype=float)
    masses = np.array([cand.masses(vals) for cand in candidates])
    with np.errstate(divide="ignore"):
        return np.log(masses.reshape(len(candidates), vals.size))


def counts_loglik(log_mass: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """counts @ log_mass.T: per-candidate log-likelihood of data given by
    per-cell counts.  ``log_mass`` is (K, c); ``counts`` is (c,) or (C, c),
    giving (K,) or (C, K).  A zero count contributes 0 even where the mass
    is 0; a positive count there gives -inf."""
    log_mass = np.ascontiguousarray(log_mass)  # the sums must not depend on memory order
    finite = np.isfinite(log_mass)
    out = counts @ np.where(finite, log_mass, 0.0).T
    out[(counts > 0) @ ~finite.T] = -np.inf
    return out


def near_min(values, tol: float) -> list:
    """Indices, in order, of the entries within ``tol`` of the minimum (all +inf
    entries if it is +inf); a maximum's are the negated vector's, exactly."""
    vals = np.asarray(values, dtype=float)
    return np.flatnonzero(vals <= vals.min() + tol).tolist()


def path_counts(rng: np.random.Generator, law, schedule) -> np.ndarray:
    """Cell counts of an i.i.d. path from ``law`` at each sorted checkpoint,
    shape (checkpoints, cells): one multinomial draw per increment, summed,
    which is the law of the prefix counts at a cost that does not grow with n."""
    return np.cumsum(rng.multinomial(np.diff(schedule, prepend=0), law), axis=0)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over all entries (``axis=None``, an np.float64) or
    along one axis, without overflow.

    The algorithm of scipy.special.logsumexp (1.17) for real input, with
    which it agrees bit for bit: the m entries equal to the maximum are
    taken out of the shifted sum s, and the result is
    log1p(s / m) + log(m) + max.  Where that is not finite (every entry
    -inf, or an entry +inf) the direct log(sum(exp(a))) is returned, so
    an all -inf input gives -inf with no warning.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axis, keepdims=True)
        at_top = a == top
        m = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=axis, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))[bad]
    return out.reshape(())[()] if axis is None else out.squeeze(axis)
