"""Check the determinism contract between two source trees.

    python scripts/determinism.py BASE HEAD

BASE and HEAD are checkout roots, each holding ``src/elmap`` (in CI, the
pull request's base commit as a git worktree, and the head).  Every
config in BASE's ``configs/`` runs with its own seeds through each tree's
``elmap.cli``, and each tree runs one fixed, seeded list of estimator fits
(EL, ET, Euclidean and Cressie-Read with gamma = 0.5, -0.5, -1 and 0, on
the mean model and on the linear preset; the mean-model cases include a constant
sample, a two-atom sample and two box domains, one holding the root of the
sample equations and one not, so that fits returned at the root and fits
found by the grid search are both compared).  When both trees report the
same ``elmap.__version__``, every CSV a run writes and every fit's method
label, theta_hat, profile value, lam, w, profile gradient and nonnegative
flag (as 1.0 or 0.0) must be byte-identical between the two, and both runs must succeed;
otherwise the script exits 1 and names what differs, with the largest
absolute difference of each CSV column and each fit field that differs.
When the version changed, differences are listed and allowed.
"""

from __future__ import annotations

import array
import configparser
import csv
import io
import itertools
import subprocess
import sys
import tempfile
from pathlib import Path

# The child puts the tree's src first on sys.path, ahead of any installed
# elmap, and checks that the package came from there.
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import elmap, elmap.cli
assert elmap.__file__.startswith(sys.argv[1]), elmap.__file__
if sys.argv[2] == "version":
    print(elmap.__version__)
elif sys.argv[2] == "fits":
    exec(sys.argv[3])
else:
    sys.exit(elmap.cli.main(sys.argv[2:]))
"""

# Run by the child with the tree's elmap: one line per fit and field, the
# method label as text, each numeric field's bytes in hex, or the class of
# the error the fit raised.
_FITS = """
import math
import numpy as np
from elmap.estimators import cr_estimate, el_estimate, et_estimate, euclidean_estimate
from elmap.prob import ParamDomain, Sample, linear_model, mean_model

methods = {
    "EL": el_estimate, "ET": et_estimate, "Euclidean": euclidean_estimate,
    "CR(0.5)": lambda s, m, g: cr_estimate(s, m, 0.5, g),
    "CR(-0.5)": lambda s, m, g: cr_estimate(s, m, -0.5, g),
    "CR(-1)": lambda s, m, g: cr_estimate(s, m, -1.0, g),
    "CR(0)": lambda s, m, g: cr_estimate(s, m, 0.0, g),
}
rng = np.random.default_rng(18)
cases = []
for n in (12, 60, 200):
    support = rng.choice(np.arange(-5.0, 6.0), size=int(rng.integers(2, 7)), replace=False)
    obs = rng.choice(support, size=n, p=rng.dirichlet(np.ones(support.size)))
    cases.append((f"mean n={n}", Sample(tuple(obs)), mean_model(), 201))
x = rng.integers(0, 4, size=30).astype(float)
y = np.round(0.5 + 0.7 * x + 0.3 * rng.normal(size=30), 3)
cases.append(("linear n=30", Sample(tuple(zip(x, y))), linear_model(), 11))
# degenerate samples, a root inside a box away from the data's middle, and
# a root outside the box, which leaves the fit to the grid
cases += [
    ("constant n=7", Sample((1.5,) * 7), mean_model(), 201),
    ("two atoms n=5", Sample((-1.0, 2.0, 2.0, -1.0, 2.0)), mean_model(), 201),
    ("box [1.5, 3]", Sample((0.0, 2.0, 2.0, 2.0, 2.0)),
     mean_model(ParamDomain.box((1.5, 3.0))), 201),
    ("box (-inf, 0.7]", Sample((0.0, 1.0, 2.0)),
     mean_model(ParamDomain.box((-math.inf, 0.7))), 201),
]
for case, sample, model, grid_points in cases:
    for method, estimate in methods.items():
        name = f"{case} {method}"
        try:
            fit = estimate(sample, model, grid_points)
        except Exception as exc:
            print(name, "error", type(exc).__name__, sep="\t")
            continue
        print(name, "method", fit.method, sep="\t")
        fields = {"theta_hat": fit.theta_hat, "profile_value": fit.inner.profile_value,
                  "lam": fit.inner.lam, "w": fit.inner.w,
                  "profile_grad": fit.inner.profile_grad, "nonnegative": fit.inner.nonnegative}
        for field, value in fields.items():
            print(name, field, np.asarray(value, dtype=float).tobytes().hex(), sep="\t")
"""


def _elmap(tree: Path, *args: str) -> subprocess.CompletedProcess:
    src = str((tree / "src").resolve())
    return subprocess.run([sys.executable, "-c", _CHILD, src, *args],
                          capture_output=True, text=True)


def _run_all(tree: Path, configs: list, out: Path) -> dict:
    """{config name: {csv name: bytes}}, or the run's stderr on failure."""
    results = {}
    for cfg in configs:
        parser = configparser.ConfigParser()
        parser.read(cfg)
        kind = parser.get("experiment", "kind")
        dest = out / cfg.stem
        proc = _elmap(tree, kind, "--config", str(cfg.resolve()), "--out", str(dest))
        if proc.returncode != 0:
            results[cfg.name] = f"exit {proc.returncode}: {proc.stderr.strip()}"
        else:
            results[cfg.name] = {p.name: p.read_bytes() for p in sorted(dest.glob("*.csv"))}
    return results


def _status(result) -> str:
    return result if isinstance(result, str) else "ok"


def _fits(tree: Path):
    """{fit name: {field: hex bytes}}, or the run's stderr on failure."""
    proc = _elmap(tree, "fits", _FITS)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()}"
    fits: dict = {}
    for line in proc.stdout.splitlines():
        name, field, value = line.split("\t")
        fits.setdefault(name, {})[field] = value
    return fits


def _field_change(field: str, a, b) -> str:
    """The field's name with the largest absolute difference between its
    two float64 values, decoded from the hex of their bytes, or with both
    texts where they are not hex (the method label)."""
    try:
        x, y = (array.array("d", bytes.fromhex(h)) for h in (a, b))
    except TypeError:  # missing on one side, or an error line
        return field
    except ValueError:
        return f"{field} ({a!r} vs {b!r})"
    if len(x) != len(y):
        return f"{field} ({len(x)} vs {len(y)} values)"
    return f"{field} (max |diff| {max(abs(p - q) for p, q in zip(x, y)):.3g})"


def _cell_diff(a: str, b: str):
    """The largest absolute difference between two CSV cells holding one
    number or several separated by spaces; None when they are not numbers
    of the same count."""
    try:
        x, y = ([float(t) for t in cell.split()] for cell in (a, b))
    except ValueError:
        return None
    if len(x) != len(y):
        return None
    return max((abs(p - q) for p, q in zip(x, y) if p != q), default=0.0)


def _csv_change(a: bytes, b: bytes) -> str:
    """Which columns of two CSV bodies differ, with the largest absolute
    difference of each numeric column."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(body.decode()))) for body in (a, b))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return "header differs"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 1} vs {len(rows_b) - 1} rows"
    worst: dict = {}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for col, ca, cb in itertools.zip_longest(rows_a[0], ra, rb, fillvalue=""):
            if ca != cb:
                d = _cell_diff(ca, cb)
                prev = worst.get(col, 0.0)
                worst[col] = None if d is None or prev is None else max(prev, d)
    return ", ".join(f"{col} (max |diff| {d:.3g})" if d is not None else f"{col} (text)"
                     for col, d in worst.items())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = (Path(a) for a in args)
    versions = []
    for tree in (base, head):
        proc = _elmap(tree, "version")
        if proc.returncode != 0:
            print(f"cannot import elmap from {tree / 'src'}: {proc.stderr.strip()}")
            return 1
        versions.append(proc.stdout.strip())
    configs = sorted((base / "configs").glob("*.cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        runs = [_run_all(tree, configs, Path(tmp) / side)
                for tree, side in ((base, "base"), (head, "head"))]
    problems = []
    for cfg in configs:
        a, b = runs[0][cfg.name], runs[1][cfg.name]
        if isinstance(a, str) or isinstance(b, str):
            problems.append(f"{cfg.name}: base {_status(a)}, head {_status(b)}")
            continue
        for name in sorted(set(a) | set(b)):
            if name not in a or name not in b:
                problems.append(f"{cfg.name}: {name} written by one tree only")
            elif a[name] != b[name]:
                problems.append(f"{cfg.name}: {name} differs: {_csv_change(a[name], b[name])}")
            else:
                print(f"{cfg.name}: {name} identical")
    a, b = (_fits(tree) for tree in (base, head))
    if isinstance(a, str) or isinstance(b, str):
        problems.append(f"estimator fits: base {_status(a)}, head {_status(b)}")
    else:
        for name in dict.fromkeys([*a, *b]):
            fa, fb = a.get(name, {}), b.get(name, {})
            differ = [_field_change(f, fa.get(f), fb.get(f))
                      for f in dict.fromkeys([*fa, *fb]) if fa.get(f) != fb.get(f)]
            if differ:
                problems.append(f"fit {name}: {', '.join(differ)} differ")
            else:
                print(f"fit {name}: identical")
    for p in problems:
        print(p)
    if versions[0] != versions[1]:
        print(f"version {versions[0]} -> {versions[1]}: {len(problems)} difference(s) allowed")
        return 0
    if problems:
        print(f"version {versions[0]} unchanged, but {len(problems)} output(s) differ")
        return 1
    print(f"version {versions[0]}: {len(configs)} configs, every CSV identical; "
          f"{len(a)} estimator fits identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
