"""Workload ``experiments``: every shipped config in ``configs/`` run
through ``elmap.cli.main`` in-process, as users run the paper's
experiments.

One pass is one invocation per (seeded config, seed), with SEEDS[kind]
seeds drawn from the workload seed, plus one invocation each of the
configs that take no seed (``fit``, ``project``).  The seed counts put the
pass median inside the ``censor`` invocations and the 95th percentile
inside the ``example21`` ones, away from the steps in the sorted times
where one kind of invocation gives way to the next.  Every invocation gets a
fresh output directory.  The first pass checks each output against values
recomputed from the config with numpy; later passes must reproduce the
first pass's CSV bodies byte for byte.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import shutil
from pathlib import Path

import numpy as np

import elmap.cli as cli
import oracles
from common import Op, close, workload_rng

SEEDS = {"blln": 25, "censor": 25, "polya": 15, "example21": 15}
RATE_HEADER = ["seed", "n", "target", "empirical_value", "theoretical_value"]


def _floats(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.replace(";", ",").split(",") if t.strip()])


def _rows(text: str) -> np.ndarray:
    return np.array([_floats(g) for g in text.split(";") if g.strip()])


def _ints(text: str) -> list:
    out = []
    for tok in (t.strip() for t in text.split(",")):
        if ":" in tok:
            lo, hi = tok.split(":")
            out.extend(range(int(lo), int(hi)))
        elif tok:
            out.append(int(tok))
    return out


class Workload:
    tail_pct = 95
    min_passes = 3  # at least 246 operations, so p95 has 12 beyond it

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.workdir = workdir
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir()
        rng = workload_rng(seed, "experiments")
        self.ops = []
        self.cfg = {}
        for src in sorted((root / "configs").glob("*.cfg")):
            path = cfg_dir / src.name
            shutil.copyfile(src, path)
            parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
            parser.read(path)
            kind = parser.get("experiment", "kind").strip()
            self.cfg[path.name] = parser
            if kind in SEEDS:
                seeds = rng.integers(0, 2**31, SEEDS[kind])
                self.ops += [
                    Op(f"{path.name} --seed {s}", self.invoke, kind, path, int(s))
                    for s in seeds
                ]
            else:
                self.ops.append(Op(path.name, self.invoke, kind, path, None))
        self._count = 0
        for kind, path in {op.args[:2] for op in self.ops}:  # warm-up
            shutil.rmtree(self.invoke(kind, path, 0 if kind in SEEDS else None))

    def invoke(self, kind: str, path: Path, seed) -> Path:
        self._count += 1
        out = self.workdir / f"out{self._count}"
        argv = [kind, "--config", str(path), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"elmap {' '.join(argv)} exited with {code}")
        return out

    def collect(self, op: Op, out: Path) -> dict:
        """The CSV files an invocation wrote, read back outside its timing."""
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        shutil.rmtree(out)
        return csvs

    # -- checks ----------------------------------------------------------------

    def same(self, op: Op, first: dict, out: dict) -> list:
        return [] if out == first else ["CSV bodies differ from the first pass"]

    def check(self, op: Op, out: dict) -> list:
        kind, path, seed = op.args
        cfg = self.cfg[path.name]
        expected = f"{kind}.csv"
        if list(out) != [expected]:
            return [f"wrote {sorted(out)}, expected {expected}"]
        rows = list(csv.reader(io.StringIO(out[expected].decode())))
        return getattr(self, f"_check_{kind}")(cfg, seed, rows[0], rows[1:])

    def _rate_rows(self, header, body, seed, schedule) -> tuple:
        problems = []
        if header != RATE_HEADER:
            problems.append(f"header {header}")
        q = [r for r in body if r[2] == "Q"]
        u = [r for r in body if r[2] == "U"]
        for r in body:
            if int(r[0]) != seed:
                problems.append(f"seed column {r[0]}")
                break
        if schedule is not None and [int(r[1]) for r in q] != schedule:
            problems.append("Q rows do not follow the n schedule")
        for r in u:
            if not 0.0 <= float(r[3]) <= 1.0 or float(r[4]) != 1.0:
                problems.append(f"ball mass row {r}")
                break
        return q, u, problems

    def _last_rate(self, q, theo: float, llr, prob, extra: float) -> list:
        n = int(q[-1][1])
        tol = oracles.rate_tolerance(np.asarray(llr), np.asarray(prob), n, extra)
        emp = float(q[-1][3])
        if not close(emp, theo, tol):
            return [f"empirical rate {emp} at n={n} is {abs(emp - theo):.3g} from {theo} (tolerance {tol:.3g})"]
        return []

    def _two_candidate_q(self, cfg, cands) -> tuple:
        q_idx = _ints(cfg.get("target", "q_indices"))
        if len(cands) != 2 or len(q_idx) != 1 or cfg.has_option("grid", "prior"):
            raise ValueError("rate check written for two equally weighted candidates, Q of one")
        return q_idx[0], 1 - q_idx[0]

    def _check_blln(self, cfg, seed, header, body) -> list:
        r = _floats(cfg.get("truth", "weights"))
        cands = _rows(cfg.get("grid", "candidates"))
        schedule = _ints(cfg.get("experiment", "n_schedule"))
        q, u, problems = self._rate_rows(header, body, seed, schedule)
        iq, other = self._two_candidate_q(cfg, cands)
        theo = oracles.gap(oracles.log_score(cands, r), [iq])
        for row in q:
            if not close(float(row[4]), theo, 1e-12):
                problems.append(f"theoretical_value {row[4]} != {theo!r}")
                break
        if len(u) != len(schedule):
            problems.append("one ball-mass row per checkpoint expected")
        llr = np.log(cands[other]) - np.log(cands[iq])
        return problems + self._last_rate(q, theo, llr, r, 0.0)

    def _check_censor(self, cfg, seed, header, body) -> list:
        f0 = _floats(cfg.get("model", "f0"))
        g0 = _floats(cfg.get("model", "g0"))
        cands = _rows(cfg.get("grid", "candidates"))
        schedule = _ints(cfg.get("experiment", "n_schedule"))
        q, _, problems = self._rate_rows(header, body, seed, schedule)
        iq, other = self._two_candidate_q(cfg, cands)
        theo = oracles.gap(oracles.censored_score(cands, f0, g0), [iq])
        for row in q:
            if not close(float(row[4]), theo, 1e-12):
                problems.append(f"theoretical_value {row[4]} != {theo!r}")
                break
        alpha = float(g0 @ np.cumsum(f0))
        tl = oracles.tails(cands)
        with np.errstate(divide="ignore", invalid="ignore"):
            llr = np.concatenate([np.log(cands[other] / cands[iq]), np.log(tl[other] / tl[iq])])
        prob = np.concatenate([alpha * f0, (1.0 - alpha) * g0])
        live = prob > 0
        return problems + self._last_rate(q, theo, llr[live], prob[live], 0.0)

    def _check_polya(self, cfg, seed, header, body) -> list:
        r = _floats(cfg.get("truth", "weights"))
        cands = _rows(cfg.get("grid", "candidates"))
        c = int(cfg.get("urn", "c"))
        beta = float(cfg.get("urn", "beta"))
        schedule = _ints(cfg.get("experiment", "n_schedule"))
        problems = []
        if header != ["seed", "n", "c", "beta", "empirical_rate", "theoretical_rate"]:
            problems.append(f"header {header}")
        if [int(row[1]) for row in body] != schedule:
            problems.append("rows do not follow the n schedule")
        if any(int(row[0]) != seed or int(row[2]) != c or float(row[3]) != beta for row in body):
            problems.append("seed, c or beta column differs from the invocation")
        iq, other = self._two_candidate_q(cfg, cands)
        theo = oracles.gap(oracles.reinforced_score(cands, r, beta, c), [iq])
        if any(not close(float(row[5]), theo, 1e-12) for row in body):
            problems.append(f"theoretical_rate differs from {theo!r}")
        # Counts move the log-likelihood ratio by log((q_o + beta c r) /
        # (q_Q + beta c r)) per draw; reinforcement inflates the count
        # variance by (1 + beta c); the finite urn adds O(log n / n).
        t = beta * c
        llr = np.log((cands[other] + t * r) / (cands[iq] + t * r)) * math.sqrt(1.0 + t)
        n = schedule[-1]
        extra = 2.0 * len(r) * (1.0 + abs(llr).max()) * math.log(n)
        return problems + self._last_rate(
            [[row[0], row[1], "Q", row[4]] for row in body], theo, llr, r, extra
        )

    def _check_example21(self, cfg, seed, header, body) -> list:
        support = _floats(cfg.get("truth", "support"))
        r = _floats(cfg.get("truth", "weights"))
        t1 = float(cfg.get("split", "theta1"))
        t2 = float(cfg.get("split", "theta2"))
        problems = []
        if header != RATE_HEADER:
            problems.append(f"header {header}")
        if not t1 < float(support @ r) < t2:
            return problems + ["check assumes E_r X between theta1 and theta2"]
        half_d = 0.5 * oracles.tv(oracles.mean_tilt(support, r, t1), oracles.mean_tilt(support, r, t2))
        for row in body:
            if int(row[0]) != seed or int(row[1]) != int(cfg.get("split", "n")):
                problems.append(f"seed or n column in {row}")
            elif row[2] == "U" and not (0.0 <= float(row[3]) <= 1.0 + 1e-12 and float(row[4]) == 1.0):
                problems.append(f"ball mass row {row}")
            elif row[2] == "mean_dist" and not (
                close(float(row[4]), half_d, 1e-8) and 0.0 <= float(row[3]) <= 1.0
            ):
                problems.append(f"mean_dist row {row}, half distance {half_d!r}")
            elif row[2] not in ("U", "mean_dist"):
                problems.append(f"target {row[2]}")
        if sorted(row[2] for row in body) != ["U", "mean_dist"]:
            problems.append("one U and one mean_dist row expected")
        return problems

    def _check_fit(self, cfg, seed, header, body) -> list:
        obs = _floats(cfg.get("data", "observations"))
        if header != ["method", "profile_value", "theta_0"] or len(body) != 1:
            return [f"fit.csv layout {header} with {len(body)} rows"]
        theta = float(body[0][2])
        if not close(theta, obs.mean(), 1e-6 * (obs.max() - obs.min())):
            return [f"theta_hat {theta} is not the sample mean {obs.mean()}"]
        return []

    def _check_project(self, cfg, seed, header, body) -> list:
        support = _floats(cfg.get("truth", "support"))
        r = _floats(cfg.get("truth", "weights"))
        grid = _floats(cfg.get("model", "theta_grid"))
        problems = []
        if header != ["theta", "feasible", "value", "lambda", "qhat"]:
            problems.append(f"header {header}")
        if [float(row[0]) for row in body] != list(grid):
            return problems + ["rows do not follow the theta grid"]
        inside = support[r > 0]
        for row, th in zip(body, grid):
            feasible = inside.min() < th < inside.max()
            if row[1] != ("1" if feasible else "0"):
                problems.append(f"theta={th}: feasible flag {row[1]}")
                continue
            if not feasible:
                continue
            q = _floats(row[4].replace(" ", ","))
            value = float(oracles.log_score(q[None, :], r)[0])
            if not (close(q.sum(), 1.0, 1e-12) and close(q @ support, th, 1e-9)
                    and close(float(row[2]), value, 1e-9) and q.min() >= 0.0):
                problems.append(f"theta={th}: projection row {row}")
        return problems
