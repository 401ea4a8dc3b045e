import configparser
import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elmap
import elmap.cli as cli
from elmap.cli import main
from elmap.errors import ConfigInvalid
from elmap.estimators import cr_estimate, el_estimate, et_estimate, euclidean_estimate
from elmap.prob import Sample, mean_model

SHIPPED = Path(__file__).parent.parent / "configs"
SEEDED_KINDS = ["blln", "censor", "polya", "example21"]

BLLN_CFG = """
[experiment]
kind = blln
seeds = 0:20
n_schedule = 100, 1000, 5000

[truth]
support = 0, 1
weights = 0.5, 0.5

[grid]
candidates = 0.6, 0.4 ; 0.9, 0.1

[target]
q_indices = 1
epsilon = 0.05
"""

FIT_CFG = """
[experiment]
kind = fit

[data]
observations = 0, 1, 2, 1, 1, 0, 2, 1

[model]
preset = mean
method = el
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def seeded_config(tmp_path, kind, seeds):
    """BLLN_CFG for blln, the shipped config for the other kinds, with
    ``seeds`` in place of 0:20."""
    text = BLLN_CFG if kind == "blln" else (SHIPPED / f"{kind}.cfg").read_text()
    return write(tmp_path, f"{kind}.cfg", text.replace("0:20", seeds))


class TestRun:
    def test_blln_final_rate_near_target(self, tmp_path):
        cfg = write(tmp_path, "blln.cfg", BLLN_CFG)
        out = tmp_path / "out"
        assert main(["blln", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "blln.csv")
        finals = [
            float(r["empirical_value"])
            for r in rows
            if r["target"] == "Q" and r["n"] == "5000"
        ]
        assert len(finals) == 20
        target = 0.490415
        assert abs(np.mean(finals) - target) <= 0.05 * target
        assert (out / "manifest.txt").exists()

    def test_fit_returns_sample_mean(self, tmp_path):
        cfg = write(tmp_path, "fit.cfg", FIT_CFG)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "fit.csv")
        assert math.isclose(float(rows[0]["theta_0"]), 1.0, abs_tol=1e-8)

    @pytest.mark.parametrize(
        "method, extra, label, estimate",
        [
            ("el", "gamma = 0.5", "EL", el_estimate),  # gamma is checked, not used
            ("et", "", "ET", et_estimate),
            ("euclidean", "", "Euclidean", euclidean_estimate),
            ("cr", "gamma = 0.5", "CR(0.5)", lambda s, m, g: cr_estimate(s, m, 0.5, g)),
        ],
    )
    def test_fit_each_method(self, tmp_path, method, extra, label, estimate):
        text = FIT_CFG.replace("method = el", f"method = {method}\ngrid_points = 11\n{extra}")
        cfg = write(tmp_path, "fit.cfg", text)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        (row,) = read_rows(out / "fit.csv")
        fit = estimate(Sample((0.0, 1.0, 2.0, 1.0, 1.0, 0.0, 2.0, 1.0)), mean_model(), 11)
        assert row == {
            "method": label,
            "profile_value": cli.fmt(fit.inner.profile_value),
            "theta_0": cli.fmt(fit.theta_hat[0]),
        }
        assert math.isclose(float(row["theta_0"]), 1.0, abs_tol=1e-8)

    def test_project_needs_theta_grid(self, tmp_path, capsys):
        text = (SHIPPED / "project.cfg").read_text()
        text = re.sub(r"(?m)^theta_grid = .*$", "theta = 0.5", text)
        cfg = write(tmp_path, "project.cfg", text)
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "FAIL: missing key [model] theta_grid" in capsys.readouterr().out
        assert main(["project", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("kind", SEEDED_KINDS)
    def test_determinism_byte_identical(self, tmp_path, kind):
        cfg = seeded_config(tmp_path, kind, "0:4")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([kind, "--config", str(cfg), "--out", str(out1)]) == 0
        assert main([kind, "--config", str(cfg), "--out", str(out2)]) == 0
        name = f"{kind}.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        cfg = write(tmp_path, "blln.cfg", BLLN_CFG)
        out = tmp_path / "out"
        assert main(["blln", "--config", str(cfg), "--out", str(out), "--seed", "42"]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "seeds = 42" in manifest
        rows = read_rows(out / "blln.csv")
        assert {r["seed"] for r in rows} == {"42"}

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = write(tmp_path, "blln.cfg", BLLN_CFG)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_empty_seeds_invalid(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", BLLN_CFG.replace("seeds = 0:20", "seeds ="))
        assert main(["blln", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["blln", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_project_sweep(self, tmp_path):
        cfg = write(
            tmp_path,
            "project.cfg",
            """
[experiment]
kind = project
[truth]
support = 0, 1, 2
weights = 0.2, 0.6, 0.2
[model]
preset = mean
theta_grid = 0.5, 1.0, 2.5
""",
        )
        out = tmp_path / "out"
        assert main(["project", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "project.csv")
        assert rows[1]["feasible"] == "1"
        entropy_r = -(2 * 0.2 * math.log(0.2) + 0.6 * math.log(0.6))
        assert math.isclose(float(rows[1]["value"]), entropy_r, rel_tol=1e-12)
        assert rows[2]["feasible"] == "0"

    def test_fit_linear_preset_from_file(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        y = 0.4 + 1.2 * x + 0.2 * rng.normal(size=30)
        data = tmp_path / "pairs.csv"
        data.write_text("\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n")
        cfg = write(
            tmp_path,
            "fit.cfg",
            f"""
[experiment]
kind = fit
[data]
file = {data}
[model]
preset = linear
method = el
grid_points = 21
""",
        )
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "fit.csv")
        # just-identified pair: the fit lands on the least-squares line
        b_ols, a_ols = np.polyfit(x, y, 1)
        assert math.isclose(float(rows[0]["theta_0"]), a_ols, abs_tol=1e-6)
        assert math.isclose(float(rows[0]["theta_1"]), b_ols, abs_tol=1e-6)

    def test_censor_km_mode(self, tmp_path):
        data = tmp_path / "cens.csv"
        data.write_text("time,censored\n1,0\n2,1\n3,0\n")
        cfg = write(
            tmp_path,
            "censor.cfg",
            f"""
[experiment]
kind = censor
[data]
file = {data}
""",
        )
        out = tmp_path / "out"
        assert main(["censor", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "survival.csv")
        assert [r["time"] for r in rows] == ["1", "3"]
        assert math.isclose(float(rows[0]["atom"]), 1 / 3, rel_tol=1e-12)

    def test_polya_run(self, tmp_path):
        cfg = write(
            tmp_path,
            "polya.cfg",
            """
[experiment]
kind = polya
seeds = 0:5
n_schedule = 500
[truth]
support = 0, 1
weights = 0.5, 0.5
[grid]
candidates = 0.6, 0.4 ; 0.9, 0.1
[urn]
c = 1
beta = 0.5
[target]
q_indices = 1
""",
        )
        out = tmp_path / "out"
        assert main(["polya", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "polya.csv")
        assert list(rows[0]) == ["seed", "n", "c", "beta", "empirical_rate", "theoretical_rate"]
        assert len(rows) == 5

    def test_example21_run(self, tmp_path):
        cfg = write(
            tmp_path,
            "ex.cfg",
            """
[experiment]
kind = example21
seeds = 0:4
[truth]
support = 0, 1, 2
weights = 0.2, 0.6, 0.2
[split]
theta1 = 0.7
theta2 = 1.3
n = 2000
""",
        )
        out = tmp_path / "out"
        assert main(["example21", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "example21.csv")
        masses = [float(r["empirical_value"]) for r in rows if r["target"] == "U"]
        assert len(masses) == 4 and min(masses) >= 0.9

    def test_example21_builds_split_prior_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return split_mean_prior(*args)

        split_mean_prior = cli.split_mean_prior
        monkeypatch.setattr(cli, "split_mean_prior", counted)
        cfg = seeded_config(tmp_path, "example21", "0:2")
        assert main(["example21", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert main(["validate", "--config", str(cfg)]) == 0
        assert len(calls) == 2

    def test_blln_computes_decay_target_once_per_call(self, tmp_path, monkeypatch):
        # once in the settings, once in the one decay_curve call for every seed
        calls = []

        def counted(*args):
            calls.append(args)
            return decay_target(*args)

        decay_target = elmap.bayes.decay_target
        monkeypatch.setattr(elmap.bayes, "decay_target", counted)
        monkeypatch.setattr(cli, "decay_target", counted)
        cfg = seeded_config(tmp_path, "blln", "0:3")
        out = tmp_path / "o"
        assert main(["blln", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_rows(out / "blln.csv")) == 3 * 3 * 2
        assert len(calls) == 2
        assert main(["validate", "--config", str(cfg)]) == 0
        assert len(calls) == 3

    def test_blln_grid_support_wider_than_truth(self, tmp_path, capsys):
        cfg = write(tmp_path, "blln.cfg", BLLN_CFG.replace(
            "candidates = 0.6, 0.4 ; 0.9, 0.1",
            "support = 0, 1, 2\ncandidates = 0.5, 0.4, 0.1 ; 0.8, 0.1, 0.1",
        ))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "OK"
        out = tmp_path / "out"
        assert main(["blln", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_rows(out / "blln.csv")) == 20 * 3 * 2


class TestBadData:
    """Malformed data files and values end in ConfigInvalid (exit 2) with a
    message naming the file and line, or the key."""

    @pytest.mark.parametrize("row", ["2,x", "2,1,7", "2", "inf,0"])
    def test_censor_file_bad_row(self, tmp_path, capsys, row):
        data = tmp_path / "cens.csv"
        data.write_text(f"time,censored\n1,0\n{row}\n3,0\n")
        cfg = write(
            tmp_path, "censor.cfg", f"[experiment]\nkind = censor\n[data]\nfile = {data}\n"
        )
        assert main(["censor", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{data} line 3" in capsys.readouterr().err

    def test_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "cens.csv"
        data.write_bytes(b"time,censored\n1,0\n\xff,1\n")
        cfg = write(
            tmp_path, "censor.cfg", f"[experiment]\nkind = censor\n[data]\nfile = {data}\n"
        )
        assert main(["censor", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{data} line 3" in capsys.readouterr().err
        cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "cannot parse config" in capsys.readouterr().err

    def test_fit_file_bad_row(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("x\n0\n1,abc\n2\n")
        cfg = write(tmp_path, "fit.cfg", FIT_CFG.replace(
            "observations = 0, 1, 2, 1, 1, 0, 2, 1", f"file = {data}"))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{data} line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["nan", "inf", "-inf", "Infinity"])
    def test_fit_file_non_finite_row(self, tmp_path, capsys, row):
        data = tmp_path / "obs.csv"
        data.write_text(f"x\n0\n{row}\n2\n")
        cfg = write(tmp_path, "fit.cfg", FIT_CFG.replace(
            "observations = 0, 1, 2, 1, 1, 0, 2, 1", f"file = {data}"))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{data} line 3" in capsys.readouterr().err

    def test_fit_file_mixed_row_lengths(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("x\n0\n1,2\n2\n")
        cfg = write(tmp_path, "fit.cfg", FIT_CFG.replace(
            "observations = 0, 1, 2, 1, 1, 0, 2, 1", f"file = {data}"))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "FAIL: bad [data] observations or file" in capsys.readouterr().out
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bad [data] observations or file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["censor", "fit"])
    def test_missing_data_file_validate_agrees_with_run(self, tmp_path, capsys, kind):
        cfg = write(tmp_path, f"{kind}.cfg",
                    f"[experiment]\nkind = {kind}\n[data]\nfile = {tmp_path / 'nope.csv'}\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "FAIL: [data] file not found" in capsys.readouterr().out
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[data] file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_fit_observations_not_finite(self, tmp_path, capsys, value):
        cfg = write(tmp_path, "fit.cfg", FIT_CFG.replace(
            "observations = 0, 1, 2,", f"observations = 0, 1, {value},"))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[data] observations" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["5", "-1", ""])
@pytest.mark.parametrize("kind", ["blln", "censor", "polya"])
def test_q_indices_out_of_range(tmp_path, capsys, kind, q):
    text = (SHIPPED / f"{kind}.cfg").read_text()
    cfg = write(tmp_path, f"{kind}.cfg", text.replace("q_indices = 1", f"q_indices = {q}"))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "FAIL: [target] q_indices out of range" in capsys.readouterr().out
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "[target] q_indices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("blln", "[grid] prior", "1, 0"),
        ("blln", "[grid] prior", "1"),
        ("censor", "[grid] prior", "1, -2"),
        ("censor", "[grid] prior", "1, 1, 1"),
        ("blln", "[target] epsilon", "-1"),
        ("example21", "[split] n", "-5"),
        ("example21", "[split] per_side", "0"),
        ("example21", "[split] spread", "-1"),
        ("example21", "[split] epsilon", "-1"),
        ("example21", "[split] theta1", "1.3"),
        ("fit", "[model] grid_points", "-1"),
        ("fit", "[model] grid_points", "0"),
        ("fit", "[model] gamma", "nan"),
        ("fit", "[model] gamma", "inf"),
        ("fit", "[model] method", "foo"),
        ("fit", "[model] preset", "foo"),
        ("blln", "[truth] support", "0, 0"),
        ("project", "[truth] support", "0, 1, 1"),
        ("blln", "[grid] candidates", ";"),
        ("censor", "[grid] candidates", ";"),
        ("blln", "[grid] candidates", "nan, 0.4 ; 0.9, 0.1"),
        ("project", "[model] theta_grid", ","),
        ("fit", "[data] observations", ","),
    ]
    + [
        (kind, "[experiment] n_schedule", f"10, {n}")
        for kind in ("blln", "polya", "censor")
        for n in (0, -10)
    ],
)
def test_bad_numeric_values(tmp_path, capsys, kind, key, value):
    section, name = key.split()
    text = (SHIPPED / f"{kind}.cfg").read_text()
    # set the key where the shipped config has it, else first in its section
    text, found = re.subn(rf"(?m)^{name} = .*$", f"{name} = {value}", text)
    if not found:
        text = text.replace(f"{section}\n", f"{section}\n{name} = {value}\n")
    cfg = write(tmp_path, f"{kind}.cfg", text)
    assert main(["validate", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: " in out and key in out
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("c, beta, ok", [(-1, 0.5, False), (-2, 0.1, False), (-1, 0.1, True)])
def test_polya_negative_c_validate_agrees_with_run(tmp_path, capsys, c, beta, ok):
    # q + beta c r must stay positive for every candidate, as the run's
    # target rate needs; the horizon check alone passes all three
    text = (SHIPPED / "polya.cfg").read_text()
    text = text.replace("c = 1", f"c = {c}").replace("beta = 0.5", f"beta = {beta}")
    cfg = write(tmp_path, "polya.cfg", text)
    out = tmp_path / "o"
    assert main(["validate", "--config", str(cfg)]) == (0 if ok else 1)
    assert ("OK" if ok else "FAIL: [urn] c") in capsys.readouterr().out
    assert main(["polya", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == (
        0 if ok else 2
    )
    if ok:
        assert len(read_rows(out / "polya.csv")) == 6
    else:
        assert "is not positive" in capsys.readouterr().err
        assert not out.exists()


# -- config fuzz: mutate one or two values of a shipped config ------------------

SHIPPED_LINES = {
    cfg.stem: cfg.read_text().splitlines() for cfg in sorted(SHIPPED.glob("*.cfg"))
}
MUTANTS = ["nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "1e308", "", "abc", ";", ","]


@st.composite
def mutated_config(draw):
    """A shipped config with small seeds, n_schedule and n chosen here, then
    one or two of its values replaced by a mutant, its first token replaced
    by one, negated, or the line deleted."""
    kind = draw(st.sampled_from(sorted(SHIPPED_LINES)))
    small = {
        "seeds": "0:2",
        "n_schedule": ", ".join(
            str(n) for n in draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
        ),
        "n": str(draw(st.integers(1, 200))),
    }
    lines = []
    for line in SHIPPED_LINES[kind]:
        key = line.split(" = ")[0]
        lines.append(f"{key} = {small[key]}" if " = " in line and key in small else line)
    keyed = [i for i, line in enumerate(lines) if " = " in line]
    for i in draw(st.lists(st.sampled_from(keyed), min_size=1, max_size=2, unique=True)):
        key, value = lines[i].split(" = ", 1)
        rest = value[len(re.split("[,;]", value)[0]):]  # value after its first token
        lines[i] = draw(st.sampled_from(
            [f"{key} = {m}" for m in MUTANTS]
            + [f"{key} = {m}{rest}" for m in MUTANTS]
            + [f"{key} = -{value}", ""]
        ))
    return kind, "\n".join(lines) + "\n"


def quiet_main(argv) -> tuple:
    """main's exit code and its output, with any exception's traceback as
    the code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except Exception:  # any exception escaping main is the failure under test
            code = traceback.format_exc()
    return code, out.getvalue()


@given(mutated_config())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_config_fuzz_validate_agrees_with_run(case):
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / f"{kind}.cfg"
        cfg.write_text(text)
        code, out = quiet_main(["validate", "--config", str(cfg)])
        assert code in (0, 1), code
        failed = "FAIL: " in out
        assert failed == (code == 1), out
        code, err = quiet_main([kind, "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2, 3), f"{text}\n{code}"
        assert failed == (code == 2), f"{text}\nvalidate: {out}run: {code} {err}"


class TestShippedConfigs:
    CONFIG_DIR = Path(__file__).parent.parent / "configs"

    def test_all_shipped_configs_validate(self):
        cfgs = sorted(self.CONFIG_DIR.glob("*.cfg"))
        assert cfgs, "sample configs missing"
        for cfg in cfgs:
            assert main(["validate", "--config", str(cfg)]) == 0, cfg.name

    def test_shipped_configs_run_with_seed_override(self, tmp_path):
        for cfg in sorted(self.CONFIG_DIR.glob("*.cfg")):
            kind = cfg.stem
            out = tmp_path / kind
            assert main(
                [kind, "--config", str(cfg), "--out", str(out), "--seed", "5"]
            ) == 0, cfg.name
            assert any(out.glob("*.csv"))
            assert (out / "manifest.txt").exists()


def _read_reference(path):
    """The config as ConfigParser.read parses it from the file, or the
    text of the ConfigInvalid that its parse error gives."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        return f"cannot parse config: {exc}"
    return {name: dict(parser[name]) for name in parser.sections()}


class TestConfigRead:
    """Config reads its file once, for the manifest hash and the parser,
    and parses it as ConfigParser.read does."""

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("name", sorted(p.name for p in SHIPPED.glob("*.cfg")))
    def test_other_line_ends_parse_as_read_does(self, name, newline, tmp_path):
        raw = (SHIPPED / name).read_bytes().replace(b"\n", newline.encode())
        path = tmp_path / name
        path.write_bytes(raw)
        cfg = cli.Config(path)
        assert cfg.raw == raw
        assert {s: dict(cfg.parser[s]) for s in cfg.parser.sections()} == _read_reference(path)
        assert main(["validate", "--config", str(path)]) == 0

    def test_undecodable_byte_gives_read_error_text(self, tmp_path):
        path = tmp_path / "blln.cfg"
        path.write_bytes(b"# caf\xe9 au lait\n" + BLLN_CFG.encode())
        want = _read_reference(path)
        assert isinstance(want, str) and "decode" in want
        with pytest.raises(ConfigInvalid) as err:
            cli.Config(path)
        assert str(err.value) == want
        assert main(["validate", "--config", str(path)]) == 2


class TestValidate:
    def test_valid_config_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, "blln.cfg", BLLN_CFG)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_urn_horizon_violation(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "polya.cfg",
            """
[experiment]
kind = polya
seeds = 0:2
n_schedule = 1000
[truth]
support = 0, 1
weights = 0.5, 0.5
[grid]
candidates = 0.6, 0.4 ; 0.9, 0.1
[urn]
c = -3
beta = 0.5
[target]
q_indices = 1
""",
        )
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "-n*c <= min(alpha)" in capsys.readouterr().out

    def test_asymmetric_split_fails_with_values(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "ex.cfg",
            """
[experiment]
kind = example21
seeds = 0:2
[truth]
support = 0, 1, 2
weights = 0.2, 0.6, 0.2
[split]
theta1 = 0.7
theta2 = 1.5
n = 100
""",
        )
        assert main(["validate", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "asymmetric split: component minima" in out
        lhs, rhs = out.split("component minima")[1].split(" vs ")
        assert float(lhs) != float(rhs.split()[0])  # both values printed


    @pytest.mark.parametrize("kind, old, new, message", [
        ("blln", "candidates = 0.6, 0.4 ; 0.9, 0.1", "candidates = 1, 0 ; 0, 1",
         "no candidate dominates the support of r"),
        ("censor", "candidates = 0.5, 0.3, 0.2 ; 0.6, 0.3, 0.1",
         "candidates = 0, 0.5, 0.5 ; 0, 0.9, 0.1",
         "every candidate has infinite censored divergence"),
        # Q infinite (or, for polya with c = 0, every candidate) while some
        # candidate is finite: the run's decay target, checked by validate
        pytest.param("blln", "candidates = 0.6, 0.4 ; 0.9, 0.1",
                     "candidates = 0.6, 0.4 ; 1.0, 0.0",
                     "the divergence of Q is infinite", id="blln-Q-infinite"),
        pytest.param("censor", "candidates = 0.5, 0.3, 0.2 ; 0.6, 0.3, 0.1",
                     "candidates = 0.5, 0.3, 0.2 ; 0.6, 0.4, 0.0",
                     "the divergence of Q is infinite", id="censor-Q-infinite"),
        pytest.param("polya", "candidates = 0.6, 0.4 ; 0.9, 0.1\n\n[urn]\nc = 1",
                     "candidates = 0.6, 0.4 ; 1.0, 0.0\n\n[urn]\nc = 0",
                     "the divergence of Q is infinite", id="polya-c0-Q-infinite"),
        pytest.param("polya", "candidates = 0.6, 0.4 ; 0.9, 0.1\n\n[urn]\nc = 1",
                     "candidates = 1.0, 0.0 ; 0.0, 1.0\n\n[urn]\nc = 0",
                     "the divergence is infinite for every candidate",
                     id="polya-c0-all-infinite"),
    ])
    def test_every_candidate_infinite(self, tmp_path, capsys, kind, old, new, message):
        text = BLLN_CFG if kind == "blln" else (SHIPPED / f"{kind}.cfg").read_text()
        assert old in text
        cfg = write(tmp_path, f"{kind}.cfg", text.replace(old, new))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert f"FAIL: {message}" in capsys.readouterr().out
        out = tmp_path / "o"
        assert main([kind, "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_pyproject_version_is_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^\[project\]$[^\[]*?^version = "([^"]+)"$', text, re.M | re.S)
    assert match is not None and match.group(1) == elmap.__version__


def scipy_modules_after(code: str) -> str:
    """The list, as printed, of scipy.special and scipy.optimize if loaded
    after running ``code`` in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code += "\nprint([m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_optimize_unloaded():
    # the linear program of moment_feasibility (J >= 3) imports scipy.optimize
    # on use; polya_counts for c < 0 takes its log binomials from numpy
    assert scipy_modules_after("import elmap") == "[]"
    assert scipy_modules_after("import elmap.cli") == "[]"
    draw = "from elmap.polya import UrnConfig, polya_counts\n"
    assert scipy_modules_after(draw + "polya_counts(UrnConfig((3, 4), -1), 3, 0)") == "[]"


def test_shipped_runs_leave_scipy_special_and_optimize_unloaded(tmp_path):
    code = "\n".join(
        f"assert elmap.cli.main([{cfg.stem!r}, '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / cfg.stem)!r}]) == 0"
        for cfg in sorted(SHIPPED.glob("*.cfg"))
    )
    assert scipy_modules_after("import elmap.cli\n" + code) == "[]"


def test_readme_quick_start_runs(capsys):
    # the README's library example, run as written, so the documented API
    # cannot drift from the library's
    text = (SHIPPED.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
