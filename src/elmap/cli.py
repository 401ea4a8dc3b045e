"""Experiment runner: declarative configs, seeded runs, CSV emission.

Usage: ``elmap COMMAND --config PATH [--out DIR] [--seed N]`` with COMMAND
one of project, fit, blln, example21, polya, censor, validate.

Configs are flat key-value text with typed sections (INI syntax, no
nesting).  Each kind has one settings function that reads every key its run
uses, makes every check the run relies on, cross-field checks included, and
returns a frozen record of the parsed values and the objects built from
them (pmfs, prior grid, schedule, model, data); a bad config raises
ConfigInvalid.  The run and ``validate`` both call it, so they accept the
same configs.  Each run writes one CSV per experiment plus a manifest that
records the config hash, the effective seeds and package versions.  Seeds
run in order; given an identical config and seeds, the CSV bodies are
byte-identical run to run; floats print with 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import locale
import math
import sys
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import (
    PriorGrid,
    blln_check,
    decay_curve,
    decay_target,
    example21,
    grid_l_projections,
    make_prior_grid,
    q_mask,
    split_mean_prior,
    split_projections,
)
from .censoring import (
    CensoringModel,
    CensoredObservation,
    censored_decay_experiment,
    censored_grid_divergences,
    kaplan_meier,
)
from .divergences import polya_l_divergence
from .errors import ConfigInvalid, DomainViolation, ElmapError
from .estimators import cr_estimate, el_estimate, et_estimate, euclidean_estimate
from .polya import polya_decay_experiment, rebuild_urn
from .prob import Pmf, Sample, linear_model, make_pmf, mean_model, normalize_rows
from .projection import l_project_stack

KINDS = ("project", "fit", "blln", "example21", "polya", "censor")
_SENTINEL = object()


def fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- config parsing -------------------------------------------------------------


def _float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {val!r}")
    return val


def _floats(text: str) -> list:
    return [_float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


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
    return [_floats(grp) for grp in text.split(";") if grp.strip()]


class Config:
    """Typed view over a parsed INI file with error messages naming keys."""

    def __init__(self, path: Path):
        self.path = Path(path)
        if not self.path.is_file():
            raise ConfigInvalid(f"config file not found: {path}")
        try:
            self.raw = self.path.read_bytes()
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config: {exc}") from None
        # one read feeds the manifest's hash and the parser; decoded and
        # newline-translated as ConfigParser.read would open the file
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            text = self.raw.decode(locale.getpreferredencoding(False))
            parser.read_file(io.StringIO(text, newline=None), source=str(self.path))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"cannot parse config: {exc}") from None
        self.parser = parser

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

    def schedule(self) -> list:
        sched = self.get("experiment", "n_schedule", _ints)
        if not sched:
            raise ConfigInvalid("empty [experiment] n_schedule")
        if min(sched) <= 0:
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
            raise ConfigInvalid(f"bad pmf in [{section}] {skey}, {wkey}: {exc}") from None

    def grid_pmfs(self, support) -> list:
        rows = self.get("grid", "candidates", _pmf_list)
        if not rows:
            raise ConfigInvalid("empty [grid] candidates")
        try:
            return [make_pmf(support, row) for row in rows]
        except ElmapError as exc:
            raise ConfigInvalid(f"bad candidate in [grid] candidates: {exc}") from None

    def prior_grid(self, cands) -> PriorGrid:
        """The candidates with the [grid] prior weights, uniform if absent."""
        weights = self.get("grid", "prior", _floats, default=None)
        if weights is not None and (len(weights) != len(cands) or min(weights, default=0) <= 0):
            raise ConfigInvalid(
                f"[grid] prior needs {len(cands)} positive weights, one per candidate"
            )
        return make_prior_grid(cands, weights)

    def q_indices(self, k: int) -> list:
        """[target] q_indices, checked against the k candidates."""
        q_idx = self.get("target", "q_indices", _ints)
        try:
            q_mask(q_idx, k)
        except DomainViolation as exc:
            raise ConfigInvalid(f"[target] q_indices out of range: {exc}") from None
        return q_idx


def _seeds(cfg: Config) -> list:
    """The [experiment] seeds, which every kind that draws data needs."""
    seeds = cfg.get("experiment", "seeds", _ints, default=None)
    draws = cfg.kind in ("blln", "example21", "polya") or (
        cfg.kind == "censor" and not cfg.parser.has_option("data", "file")
    )
    if seeds == [] or (draws and seeds is None):
        raise ConfigInvalid("missing or empty [experiment] seeds")
    return seeds or [0]


def _header(line: str) -> bool:
    """Starts with a letter, and the first field is no number ("inf,0" is data)."""
    try:
        float(line.replace(";", ",").split(",")[0])
    except ValueError:
        return line[0].isalpha()
    return False


def _data_file(path: str, parse) -> list:
    """parse(row) for each row of a comma-separated data file, skipping
    blank lines and header lines."""
    fpath = Path(path)
    if not fpath.is_file():
        raise ConfigInvalid(f"[data] file not found: {path}")
    rows = []
    for lineno, line in enumerate(fpath.read_text(errors="replace").splitlines(), start=1):
        line = line.strip()
        if not line or _header(line):
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
    return CensoredObservation(_float(time), bool(int(censored)))


# -- settings, one record per kind ----------------------------------------------


ProjectSettings = namedtuple("ProjectSettings", "r model thetas")


def project_settings(cfg: Config) -> ProjectSettings:
    r = cfg.pmf("truth")
    if cfg.get("model", "preset", str.strip, default="mean") != "mean":
        raise ConfigInvalid("project supports the mean preset only")
    thetas = cfg.get("model", "theta_grid", _floats, default=None)
    if thetas is None:
        thetas = [cfg.get("model", "theta", _float)]
    if not thetas:
        raise ConfigInvalid("empty [model] theta_grid")
    return ProjectSettings(r, mean_model(), thetas)


_PRESETS = {"mean": mean_model, "linear": linear_model}
_ESTIMATES = {
    "el": el_estimate, "et": et_estimate, "euclidean": euclidean_estimate, "cr": cr_estimate,
}


FitSettings = namedtuple("FitSettings", "sample model method grid_points gamma")


def fit_settings(cfg: Config) -> FitSettings:
    """gamma is required for method cr, else None unless given."""
    obs = cfg.get("data", "observations", _floats, default=None)
    if obs is None:
        path = cfg.get("data", "file", str.strip, default=None)
        if path is None:
            raise ConfigInvalid("[data] needs observations or file")
        obs = _data_file(path, _observation)
    if not obs:
        raise ConfigInvalid("[data] observations or file holds no observation")
    try:
        sample = Sample(tuple(obs))
    except DomainViolation as exc:  # rows of a data file with mixed lengths
        raise ConfigInvalid(f"bad [data] observations or file: {exc}") from None
    preset = cfg.get("model", "preset", str.strip, default="mean")
    if preset not in _PRESETS:
        raise ConfigInvalid(f"unknown preset {preset!r} in [model] preset")
    method = cfg.get("model", "method", str.strip, default="el")
    if method not in _ESTIMATES:
        raise ConfigInvalid(f"unknown method {method!r} in [model] method")
    return FitSettings(
        sample,
        _PRESETS[preset](),
        method,
        cfg.positive("model", "grid_points", int, default=201),
        cfg.get("model", "gamma", _float, default=_SENTINEL if method == "cr" else None),
    )


BllnSettings = namedtuple("BllnSettings", "r prior q_idx epsilon schedule")


def blln_settings(cfg: Config) -> BllnSettings:
    """The grid candidates live on [grid] support when given, else on the
    support of the truth r."""
    r = cfg.pmf("truth")
    support = cfg.get("grid", "support", _floats, default=None)
    cands = cfg.grid_pmfs(r.support if support is None else support)
    prior = cfg.prior_grid(cands)
    # some candidate must dominate the support of r, and one of Q too
    vals = grid_l_projections(prior, r)[0]
    q_idx = cfg.q_indices(len(cands))
    decay_target(vals, q_idx)
    return BllnSettings(
        r,
        prior,
        q_idx,
        cfg.positive("target", "epsilon", _float, default=0.05),
        cfg.schedule(),
    )


Example21Settings = namedtuple("Example21Settings", "r theta1 theta2 n epsilon prior")


def example21_settings(cfg: Config) -> Example21Settings:
    r = cfg.pmf("truth")
    theta1 = cfg.get("split", "theta1", _float)
    theta2 = cfg.get("split", "theta2", _float)
    if not theta1 < theta2:
        raise ConfigInvalid(f"[split] theta1 = {theta1} is not below theta2 = {theta2}")
    n = cfg.positive("split", "n", int)
    epsilon = cfg.positive("split", "epsilon", _float, default=0.05)
    prior = split_mean_prior(
        r,
        theta1,
        theta2,
        cfg.positive("split", "per_side", int, default=8),
        cfg.positive("split", "spread", _float, default=0.4),
    )
    split_projections(prior, r, theta1, theta2)  # the two component minima must tie
    return Example21Settings(r, theta1, theta2, n, epsilon, prior)


PolyaSettings = namedtuple("PolyaSettings", "r cands q_idx c beta schedule")


def polya_settings(cfg: Config) -> PolyaSettings:
    r = cfg.pmf("truth")
    c = cfg.get("urn", "c", int)
    beta = cfg.get("urn", "beta", _float)
    if not 0.0 < beta < 1.0:
        raise ConfigInvalid(f"[urn] beta={beta} outside (0, 1)")
    schedule = cfg.schedule()
    for n in schedule:
        urn = rebuild_urn(r, n, beta, c)
        if not urn.valid_for_horizon(n):
            raise ConfigInvalid(
                f"urn invalid at n={n}: constraint -n*c <= min(alpha) fails "
                f"(-{n}*{c} > {min(urn.alpha)})"
            )
    cands = cfg.grid_pmfs(r.support)
    q_idx = cfg.q_indices(len(cands))
    try:  # the run's target rate needs every candidate's value
        vals = [polya_l_divergence(cand, r, beta, c) for cand in cands]
    except DomainViolation as exc:
        raise ConfigInvalid(f"[urn] c = {c}, beta = {beta}: {exc}") from None
    decay_target(vals, q_idx)
    return PolyaSettings(r, cands, q_idx, c, beta, schedule)


# Kaplan-Meier mode when [data] file is given (data), else the decay experiment
CensorSettings = namedtuple(
    "CensorSettings", "data model prior q_idx schedule", defaults=(None,) * 4
)


def censor_settings(cfg: Config) -> CensorSettings:
    path = cfg.get("data", "file", str.strip, default=None)
    if path is not None:
        return CensorSettings(_data_file(path, _censored_observation))
    grid = cfg.get("model", "grid", _floats)
    f0 = cfg.get("model", "f0", _floats)
    g0 = cfg.get("model", "g0", _floats)
    try:
        model = CensoringModel.from_components(make_pmf(grid, f0), make_pmf(grid, g0))
    except ElmapError as exc:
        raise ConfigInvalid(f"bad censoring model: {exc}") from None
    cands = cfg.grid_pmfs(model.f0.support)
    prior = cfg.prior_grid(cands)
    vals = censored_grid_divergences(prior, model)
    if np.isinf(vals).all():
        raise ConfigInvalid("every candidate has infinite censored divergence")
    q_idx = cfg.q_indices(len(cands))
    decay_target(vals, q_idx)
    return CensorSettings(None, model, prior, q_idx, cfg.schedule())


_SETTINGS = {
    "project": project_settings,
    "fit": fit_settings,
    "blln": blln_settings,
    "example21": example21_settings,
    "polya": polya_settings,
    "censor": censor_settings,
}


def settings(cfg: Config):
    """The settings record of the config's kind.  Every problem the run
    would meet in the config raises ConfigInvalid, including a library
    error from a cross-field check."""
    try:
        return _SETTINGS[cfg.kind](cfg)
    except ConfigInvalid:
        raise
    except ElmapError as exc:
        raise ConfigInvalid(str(exc)) from None


def validate(cfg: Config) -> list:
    """The config's problems, those of its seeds and its settings, as the
    run raises them; empty when the run accepts the config."""
    try:
        cfg.kind
    except ConfigInvalid as exc:
        return [str(exc)]
    problems = []
    for check in (_seeds, settings):
        try:
            check(cfg)
        except ConfigInvalid as exc:
            problems.append(str(exc))
    return problems


# -- experiment bodies -----------------------------------------------------------


def run_project(s: ProjectSettings, seeds) -> list:
    rows = [["theta", "feasible", "value", "lambda", "qhat"]]
    proj = l_project_stack(s.r, s.model, np.asarray(s.thetas, dtype=float)[:, None])
    feasible = np.array([failure is None for failure in proj.failure])
    # the feasible rows' pmfs in one call, each bit for bit its make_pmf's
    qhats = iter(normalize_rows(s.r.support, proj.weights[feasible])[1])
    for th, value, lam, ok in zip(s.thetas, proj.value, proj.lam, feasible):
        if ok:
            qhat = next(qhats)
            rows.append([fmt(th), "1", fmt(value), fmt(lam[0]), " ".join(fmt(w) for w in qhat)])
        else:
            rows.append([fmt(th), "0", "inf", "", ""])
    return [("project.csv", rows)]


def run_fit(s: FitSettings, seeds) -> list:
    args = (s.gamma,) if s.method == "cr" else ()
    fit = _ESTIMATES[s.method](s.sample, s.model, *args, s.grid_points)
    rows = [["method", "profile_value"] + [f"theta_{i}" for i in range(s.model.n_params)]]
    rows.append([fit.method, fmt(fit.inner.profile_value)] + [fmt(t) for t in fit.theta_hat])
    return [("fit.csv", rows)]


def run_blln(s: BllnSettings, seeds) -> list:
    rows = [["seed", "n", "target", "empirical_value", "theoretical_value"]]
    ball = blln_check(s.prior, s.r, s.epsilon, s.schedule, seeds)
    for i, seed in enumerate(seeds):
        rep = decay_curve(s.prior, s.q_idx, s.r, s.schedule, seed)
        for n, rate in zip(rep.checkpoints, rep.empirical_rate):
            rows.append([str(rep.seed), str(n), "Q", fmt(rate), fmt(rep.theoretical_rate)])
        for j, n in enumerate(ball.checkpoints):
            rows.append([str(ball.seeds[i]), str(n), "U", fmt(ball.masses[i, j]), fmt(1.0)])
    return [("blln.csv", rows)]


def run_example21(s: Example21Settings, seeds) -> list:
    rep = example21(s.theta1, s.theta2, s.r, s.prior, s.n, seeds, s.epsilon)
    rows = [["seed", "n", "target", "empirical_value", "theoretical_value"]]
    half_d = 0.5 * rep.projection_tv
    for i, seed in enumerate(rep.seeds):
        rows.append([str(seed), str(s.n), "U", fmt(rep.mass_sum[i]), fmt(1.0)])
        rows.append(
            [str(seed), str(s.n), "mean_dist",
             fmt(min(rep.tv_mean_low[i], rep.tv_mean_high[i])), fmt(half_d)]
        )
    return [("example21.csv", rows)]


def run_polya(s: PolyaSettings, seeds) -> list:
    rows = [["seed", "n", "c", "beta", "empirical_rate", "theoretical_rate"]]
    rep = polya_decay_experiment(s.cands, s.q_idx, s.r, s.beta, s.c, s.schedule, seeds)
    for sub in rep.reports:
        for n, rate in zip(sub.checkpoints, sub.empirical_rate):
            rows.append(
                [str(sub.seed), str(n), str(s.c), fmt(s.beta), fmt(rate),
                 fmt(sub.theoretical_rate)]
            )
    return [("polya.csv", rows)]


def run_censor(s: CensorSettings, seeds) -> list:
    if s.data is not None:
        curve = kaplan_meier(s.data)
        rows = [["time", "survival", "atom"]]
        for t, surv, a in zip(curve.event_times, curve.survival, curve.atoms):
            rows.append([fmt(t), fmt(surv), fmt(a)])
        return [("survival.csv", rows)]
    rows = [["seed", "n", "target", "empirical_value", "theoretical_value"]]
    for sub in censored_decay_experiment(s.prior, s.q_idx, s.model, s.schedule, seeds):
        for n, rate in zip(sub.checkpoints, sub.empirical_rate):
            rows.append([str(sub.seed), str(n), "Q", fmt(rate), fmt(sub.theoretical_rate)])
    return [("censor.csv", rows)]


RUNNERS = {
    "project": run_project,
    "fit": run_fit,
    "blln": run_blln,
    "example21": run_example21,
    "polya": run_polya,
    "censor": run_censor,
}


# -- entry point ----------------------------------------------------------------


def _write_outputs(out: Path, outputs, cfg: Config, seeds) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in outputs:
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    import scipy

    manifest = [
        f"config = {cfg.path}",
        f"config_sha256 = {hashlib.sha256(cfg.raw).hexdigest()}",
        f"kind = {cfg.kind}",
        f"seeds = {','.join(str(s) for s in seeds)}",
        f"package = elmap {__version__}",
        f"python = {sys.version.split()[0]}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
        f"written_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")


# built once: parse_args leaves the parser unchanged, and in-process callers
# of main (tests, notebooks, a benchmark loop) would otherwise rebuild it
_PARSER = argparse.ArgumentParser(
    prog="elmap",
    description="finite-support likelihood projections and posterior decay experiments",
)
_PARSER.add_argument("command", choices=KINDS + ("validate",))
_PARSER.add_argument("--config", required=True, type=Path)
_PARSER.add_argument("--out", type=Path, default=Path("out"))
_PARSER.add_argument("--seed", type=int, default=None, help="replaces the config's seeds")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

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
                f"config kind {cfg.kind!r} does not match command {args.command!r}"
            )
        seeds = _seeds(cfg)
        record = settings(cfg)
        if args.seed is not None:
            seeds = [args.seed]
        outputs = RUNNERS[cfg.kind](record, seeds)
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
