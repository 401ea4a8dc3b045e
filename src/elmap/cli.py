"""Experiment runner: declarative configs, seeded runs, CSV emission.

Configs are flat key-value text with typed sections (INI syntax, no
nesting).  Each run writes one CSV per experiment plus a manifest that
records the config hash, the effective seeds and package versions.  Given
an identical config and seeds, the CSV bodies are byte-identical run to
run; floats print with 17 significant digits.

Subcommands: project, fit, blln, example21, polya, censor, validate.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import (
    PriorGrid,
    blln_check,
    decay_curve,
    example21,
    make_prior_grid,
    q_mask,
    split_mean_prior,
    split_projections,
)
from .censoring import (
    CensoredObservation,
    CensoringModel,
    censored_decay_experiment,
    censored_l_divergence,
    kaplan_meier,
)
from .divergences import l_divergence, polya_l_divergence
from .errors import ConfigInvalid, DomainViolation, ElmapError
from .estimators import cr_estimate, el_estimate, et_estimate, euclidean_estimate
from .polya import polya_decay_experiment, rebuild_urn
from .prob import Pmf, Sample, linear_model, make_pmf, mean_model
from .projection import l_project_stack

KINDS = ("project", "fit", "blln", "example21", "polya", "censor")
_SENTINEL = object()


def fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- config parsing -------------------------------------------------------------


def _floats(text: str) -> list:
    vals = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    bad = [v for v in vals if not np.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite value {bad[0]!r}")
    return vals


def _ints(text: str) -> list:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            lo, hi = tok.split(":")
            vals.extend(range(int(lo), int(hi)))
        else:
            vals.append(int(tok))
    return vals


def _pmf_list(text: str) -> list:
    groups = [grp for grp in text.split(";") if grp.strip()]
    return [[float(tok) for tok in grp.split(",") if tok.strip()] for grp in groups]


class Config:
    """Typed view over a parsed INI file with error messages naming keys."""

    def __init__(self, path: Path):
        self.path = Path(path)
        if not self.path.is_file():
            raise ConfigInvalid(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            parser.read(self.path)
        except configparser.Error as exc:
            raise ConfigInvalid(f"cannot parse config: {exc}") from None
        self.parser = parser
        self.raw = self.path.read_bytes()

    def get(self, section: str, key: str, convert, default=_SENTINEL):
        if not self.parser.has_option(section, key):
            if default is not _SENTINEL:
                return default
            raise ConfigInvalid(f"missing key [{section}] {key}")
        text = self.parser.get(section, key)
        try:
            return convert(text)
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(f"bad value for [{section}] {key}: {exc}") from None

    @property
    def kind(self) -> str:
        kind = self.get("experiment", "kind", str.strip)
        if kind not in KINDS:
            raise ConfigInvalid(f"unknown kind {kind!r} in [experiment] kind")
        return kind

    def seeds(self) -> list:
        seeds = self.get("experiment", "seeds", _ints, default=None)
        if seeds is not None and not seeds:
            raise ConfigInvalid("empty [experiment] seeds")
        return seeds

    def schedule(self) -> list:
        sched = self.get("experiment", "n_schedule", _ints, default=None)
        if sched is not None and not sched:
            raise ConfigInvalid("empty [experiment] n_schedule")
        if sched is not None and min(sched) <= 0:
            raise ConfigInvalid(f"[experiment] n_schedule entry {min(sched)} is not positive")
        return sched

    def positive(self, section: str, key: str, convert, default=_SENTINEL):
        """``get`` for a value that must be positive."""
        val = self.get(section, key, convert, default)
        if not val > 0:
            raise ConfigInvalid(f"[{section}] {key} = {val} is not positive")
        return val

    def pmf(self, section: str, wkey: str = "weights", skey: str = "support") -> Pmf:
        support = self.get(section, skey, _floats)
        weights = self.get(section, wkey, _floats)
        try:
            return make_pmf(support, weights)
        except ElmapError as exc:
            raise ConfigInvalid(f"bad pmf in [{section}]: {exc}") from None

    def grid_pmfs(self, support) -> list:
        rows = self.get("grid", "candidates", _pmf_list)
        try:
            return [make_pmf(support, row) for row in rows]
        except ElmapError as exc:
            raise ConfigInvalid(f"bad candidate in [grid]: {exc}") from None

    def blln_candidates(self, r: Pmf) -> list:
        """blln grid candidates, on [grid] support when given, else on the
        support of the truth r."""
        support = self.get("grid", "support", _floats, default=None)
        return self.grid_pmfs(r.support if support is None else support)

    def prior_grid(self, cands) -> PriorGrid:
        """The candidates with the [grid] prior weights, uniform if absent."""
        weights = self.get("grid", "prior", _floats, default=None)
        if weights is not None and (len(weights) != len(cands) or min(weights, default=0) <= 0):
            raise ConfigInvalid(
                f"[grid] prior needs {len(cands)} positive weights, one per candidate"
            )
        return make_prior_grid(cands, weights)

    @functools.cached_property
    def split_prior(self):
        """The example21 split prior; built once, since both validation
        and the run need it."""
        theta1 = self.get("split", "theta1", float)
        theta2 = self.get("split", "theta2", float)
        if not theta1 < theta2:
            raise ConfigInvalid(f"[split] theta1 = {theta1} is not below theta2 = {theta2}")
        return split_mean_prior(
            self.pmf("truth"),
            theta1,
            theta2,
            self.positive("split", "per_side", int, default=8),
            self.positive("split", "spread", float, default=0.4),
        )


def config_hash(cfg: Config) -> str:
    return hashlib.sha256(cfg.raw).hexdigest()


# -- experiment bodies -----------------------------------------------------------


def _parallel(seeds, worker, threads: int) -> list:
    if threads <= 1:
        return [worker(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, seeds))


def run_project(cfg: Config, seeds, threads: int) -> list:
    r = cfg.pmf("truth")
    preset = cfg.get("model", "preset", str.strip, default="mean")
    if preset != "mean":
        raise ConfigInvalid("project supports the mean preset only")
    model = mean_model()
    grid = cfg.get("model", "theta_grid", _floats, default=None)
    if grid is None:
        grid = [cfg.get("model", "theta", float)]
    rows = [["theta", "feasible", "value", "lambda", "qhat"]]
    proj = l_project_stack(r, model, np.asarray(grid, dtype=float)[:, None])
    for th, value, lam, weights, failure in zip(
        grid, proj.value, proj.lam, proj.weights, proj.failure
    ):
        if failure is None:
            qhat = make_pmf(r.support, weights)
            rows.append(
                [fmt(th), "1", fmt(value), fmt(lam[0]), " ".join(fmt(w) for w in qhat.weights)]
            )
        else:
            rows.append([fmt(th), "0", "inf", "", ""])
    return [("project.csv", rows)]


def _data_file(path: str, parse) -> list:
    """parse(row) for each row of a comma-separated data file, skipping
    blank lines and header lines (first character a letter)."""
    fpath = Path(path)
    if not fpath.is_file():
        raise ConfigInvalid(f"[data] file not found: {path}")
    rows = []
    for lineno, line in enumerate(fpath.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line[0].isalpha():
            continue
        try:
            rows.append(parse(line))
        except ValueError as exc:
            raise ConfigInvalid(f"bad row in {path} line {lineno}: {exc}") from None
    return rows


def _observation(row: str):
    vals = _floats(row)
    return vals[0] if len(vals) == 1 else tuple(vals)


def _censored_observation(row: str) -> CensoredObservation:
    time, censored = row.split(",")  # ValueError unless two fields
    return CensoredObservation(float(time), bool(int(censored)))


def _load_sample(cfg: Config) -> Sample:
    obs = cfg.get("data", "observations", _floats, default=None)
    if obs is not None:
        return Sample(tuple(obs))
    path = cfg.get("data", "file", str.strip, default=None)
    if path is None:
        raise ConfigInvalid("[data] needs observations or file")
    return Sample(tuple(_data_file(path, _observation)))


_PRESETS = {"mean": mean_model, "linear": linear_model}
_ESTIMATES = {
    "el": el_estimate, "et": et_estimate, "euclidean": euclidean_estimate, "cr": cr_estimate,
}


def _fit_settings(cfg: Config) -> tuple:
    """The [model] section of a fit config: (model, method, grid_points,
    gamma).  gamma is required for method cr and must be finite when given."""
    preset = cfg.get("model", "preset", str.strip, default="mean")
    if preset not in _PRESETS:
        raise ConfigInvalid(f"unknown preset {preset!r} in [model] preset")
    method = cfg.get("model", "method", str.strip, default="el")
    if method not in _ESTIMATES:
        raise ConfigInvalid(f"unknown method {method!r} in [model] method")
    grid_points = cfg.positive("model", "grid_points", int, default=201)
    gamma = cfg.get("model", "gamma", float, default=_SENTINEL if method == "cr" else None)
    if gamma is not None and not math.isfinite(gamma):
        raise ConfigInvalid(f"[model] gamma = {gamma} is not finite")
    return _PRESETS[preset](), method, grid_points, gamma


def run_fit(cfg: Config, seeds, threads: int) -> list:
    sample = _load_sample(cfg)
    model, method, grid_points, gamma = _fit_settings(cfg)
    args = (gamma,) if method == "cr" else ()
    fit = _ESTIMATES[method](sample, model, *args, grid_points)
    rows = [["method", "profile_value"] + [f"theta_{i}" for i in range(model.n_params)]]
    rows.append([fit.method, fmt(fit.inner.profile_value)] + [fmt(t) for t in fit.theta_hat])
    return [("fit.csv", rows)]


def run_blln(cfg: Config, seeds, threads: int) -> list:
    r = cfg.pmf("truth")
    prior = cfg.prior_grid(cfg.blln_candidates(r))
    q_idx = cfg.get("target", "q_indices", _ints)
    epsilon = cfg.positive("target", "epsilon", float, default=0.05)
    schedule = cfg.schedule()
    if not schedule:
        raise ConfigInvalid("blln needs [experiment] n_schedule")
    rows = [["seed", "n", "target", "empirical_value", "theoretical_value"]]

    def worker(seed):
        rep = decay_curve(prior, q_idx, r, schedule, seed)
        ball = blln_check(prior, r, epsilon, schedule, [seed])
        return rep, ball

    for rep, ball in _parallel(seeds, worker, threads):
        for n, rate in zip(rep.checkpoints, rep.empirical_rate):
            rows.append([str(rep.seed), str(n), "Q", fmt(rate), fmt(rep.theoretical_rate)])
        for j, n in enumerate(ball.checkpoints):
            rows.append([str(ball.seeds[0]), str(n), "U", fmt(ball.masses[0, j]), fmt(1.0)])
    return [("blln.csv", rows)]


def run_example21(cfg: Config, seeds, threads: int) -> list:
    r = cfg.pmf("truth")
    theta1 = cfg.get("split", "theta1", float)
    theta2 = cfg.get("split", "theta2", float)
    epsilon = cfg.positive("split", "epsilon", float, default=0.05)
    n = cfg.positive("split", "n", int)
    rep = example21(theta1, theta2, r, cfg.split_prior, n, seeds, epsilon)
    rows = [["seed", "n", "target", "empirical_value", "theoretical_value"]]
    half_d = 0.5 * rep.projection_tv
    for i, seed in enumerate(rep.seeds):
        rows.append([str(seed), str(n), "U", fmt(rep.mass_sum[i]), fmt(1.0)])
        rows.append(
            [str(seed), str(n), "mean_dist",
             fmt(min(rep.tv_mean_low[i], rep.tv_mean_high[i])), fmt(half_d)]
        )
    return [("example21.csv", rows)]


def run_polya(cfg: Config, seeds, threads: int) -> list:
    r = cfg.pmf("truth")
    cands = cfg.grid_pmfs(r.support)
    q_idx = cfg.get("target", "q_indices", _ints)
    c = cfg.get("urn", "c", int)
    beta = cfg.get("urn", "beta", float)
    schedule = cfg.schedule()
    if not schedule:
        raise ConfigInvalid("polya needs [experiment] n_schedule")
    rows = [["seed", "n", "c", "beta", "empirical_rate", "theoretical_rate"]]

    def worker(seed):
        return polya_decay_experiment(cands, q_idx, r, beta, c, schedule, [seed])

    for rep in _parallel(seeds, worker, threads):
        for sub in rep.reports:
            for n, rate in zip(sub.checkpoints, sub.empirical_rate):
                rows.append(
                    [str(sub.seed), str(n), str(c), fmt(beta), fmt(rate),
                     fmt(sub.theoretical_rate)]
                )
    return [("polya.csv", rows)]


def _censor_model(cfg: Config) -> CensoringModel:
    grid = cfg.get("model", "grid", _floats)
    f0 = cfg.get("model", "f0", _floats)
    g0 = cfg.get("model", "g0", _floats)
    try:
        return CensoringModel.from_components(make_pmf(grid, f0), make_pmf(grid, g0))
    except (ElmapError, ValueError) as exc:
        raise ConfigInvalid(f"bad censoring model: {exc}") from None


def run_censor(cfg: Config, seeds, threads: int) -> list:
    data_file = cfg.get("data", "file", str.strip, default=None)
    if data_file is not None:
        data = _data_file(data_file, _censored_observation)
        curve = kaplan_meier(data)
        rows = [["time", "survival", "atom"]]
        for t, s, a in zip(curve.event_times, curve.survival, curve.atoms):
            rows.append([fmt(t), fmt(s), fmt(a)])
        return [("survival.csv", rows)]

    model = _censor_model(cfg)
    grid_support = model.f0.support
    prior = cfg.prior_grid(cfg.grid_pmfs(grid_support))
    q_idx = cfg.get("target", "q_indices", _ints)
    schedule = cfg.schedule()
    if not schedule:
        raise ConfigInvalid("censor decay needs [experiment] n_schedule")
    rows = [["seed", "n", "target", "empirical_value", "theoretical_value"]]

    def worker(seed):
        return censored_decay_experiment(prior, q_idx, model, schedule, [seed])

    for reps in _parallel(seeds, worker, threads):
        for sub in reps:
            for n, rate in zip(sub.checkpoints, sub.empirical_rate):
                rows.append(
                    [str(sub.seed), str(n), "Q", fmt(rate), fmt(sub.theoretical_rate)]
                )
    return [("censor.csv", rows)]


RUNNERS = {
    "project": run_project,
    "fit": run_fit,
    "blln": run_blln,
    "example21": run_example21,
    "polya": run_polya,
    "censor": run_censor,
}


# -- validation -----------------------------------------------------------------


def validate(cfg: Config) -> list:
    """Schema and cross-field diagnostics; returns a list of problems."""
    problems = []
    try:
        kind = cfg.kind
    except ConfigInvalid as exc:
        return [str(exc)]
    needs_seeds = kind in {"blln", "example21", "polya"} or (
        kind == "censor"
        and cfg.get("data", "file", str.strip, default=None) is None
    )
    seeds = None
    try:
        seeds = cfg.seeds()
    except ConfigInvalid as exc:
        problems.append(str(exc))
    if needs_seeds and not seeds and not problems:
        problems.append("missing or empty [experiment] seeds")

    def check_q(cands) -> None:
        try:
            q_mask(cfg.get("target", "q_indices", _ints), len(cands))
        except DomainViolation as exc:
            problems.append(f"[target] q_indices out of range: {exc}")

    try:
        if kind == "example21":
            cfg.positive("split", "n", int)
            cfg.positive("split", "epsilon", float, default=0.05)
            split_projections(
                cfg.split_prior, cfg.pmf("truth"),
                cfg.get("split", "theta1", float), cfg.get("split", "theta2", float),
            )
        elif kind == "polya":
            r = cfg.pmf("truth")
            c = cfg.get("urn", "c", int)
            beta = cfg.get("urn", "beta", float)
            if not 0.0 < beta < 1.0:
                problems.append(f"[urn] beta={beta} outside (0, 1)")
            schedule = cfg.schedule() or []
            if not schedule:
                problems.append("missing [experiment] n_schedule")
            for n in schedule:
                urn = rebuild_urn(r, n, beta, c)
                if not urn.valid_for_horizon(n):
                    problems.append(
                        f"urn invalid at n={n}: constraint -n*c <= min(alpha) fails "
                        f"(-{n}*{c} > {min(urn.alpha)})"
                    )
                    break
            cands = cfg.grid_pmfs(r.support)
            check_q(cands)
            if 0.0 < beta < 1.0:
                try:  # the run's target rate needs every candidate's value
                    for cand in cands:
                        polya_l_divergence(cand, r, beta, c)
                except DomainViolation as exc:
                    problems.append(f"[urn] c = {c}, beta = {beta}: {exc}")
        elif kind == "censor" and cfg.get("data", "file", str.strip, default=None) is None:
            model = _censor_model(cfg)
            cands = cfg.grid_pmfs(model.f0.support)
            vals = [censored_l_divergence(cand, model) for cand in cands]
            if all(v == float("inf") for v in vals):
                problems.append("every candidate has infinite censored divergence")
            if not (cfg.schedule() or []):
                problems.append("missing [experiment] n_schedule")
            cfg.prior_grid(cands)
            check_q(cands)
        elif kind == "blln":
            r = cfg.pmf("truth")
            cands = cfg.blln_candidates(r)
            if all(l_divergence(c, r) == float("inf") for c in cands):
                problems.append("no candidate dominates the support of r")
            if not (cfg.schedule() or []):
                problems.append("missing [experiment] n_schedule")
            cfg.positive("target", "epsilon", float, default=0.05)
            cfg.prior_grid(cands)
            check_q(cands)
        elif kind == "fit":
            _load_sample(cfg)
            _fit_settings(cfg)
        elif kind == "project":
            cfg.pmf("truth")
    except ElmapError as exc:
        problems.append(str(exc))
    return problems


# -- entry point ----------------------------------------------------------------


def _write_outputs(out: Path, outputs, cfg: Config, seeds) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in outputs:
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    import scipy

    manifest = [
        f"config = {cfg.path}",
        f"config_sha256 = {config_hash(cfg)}",
        f"kind = {cfg.kind}",
        f"seeds = {','.join(str(s) for s in (seeds or []))}",
        f"package = elmap {__version__}",
        f"python = {sys.version.split()[0]}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
        f"written_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elmap",
        description="finite-support likelihood projections and posterior decay experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = Config(args.config)
        if args.command == "validate":
            problems = validate(cfg)
            for p in problems:
                print(f"FAIL: {p}")
            if not problems:
                print("OK")
            return 0 if not problems else 1
        if cfg.kind != args.command:
            raise ConfigInvalid(
                f"config kind {cfg.kind!r} does not match subcommand {args.command!r}"
            )
        problems = validate(cfg)
        if problems:
            raise ConfigInvalid("; ".join(problems))
        seeds = [args.seed] if args.seed is not None else (cfg.seeds() or [0])
        outputs = RUNNERS[cfg.kind](cfg, seeds, max(1, args.threads))
        _write_outputs(args.out, outputs, cfg, seeds)
        for name, _ in outputs:
            print(f"wrote {args.out / name}")
        return 0
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ElmapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
