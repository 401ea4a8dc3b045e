"""Check the determinism contract between two source trees.

    python scripts/determinism.py BASE HEAD

BASE and HEAD are checkout roots, each holding ``src/elmap`` (in CI, the
pull request's base commit as a git worktree, and the head).  Every
config in BASE's ``configs/`` runs with its own seeds through each tree's
``elmap.cli``.  When both trees report the same ``elmap.__version__``,
every CSV a run writes must be byte-identical between the two, and both
runs must succeed; otherwise the script exits 1 and names what differs.
When the version changed, differences are listed and allowed.
"""

from __future__ import annotations

import configparser
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
else:
    sys.exit(elmap.cli.main(sys.argv[2:]))
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
            problems.append(f"{cfg.name}: base {a if isinstance(a, str) else 'ok'}, "
                            f"head {b if isinstance(b, str) else 'ok'}")
            continue
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                problems.append(f"{cfg.name}: {name} differs")
            else:
                print(f"{cfg.name}: {name} identical")
    for p in problems:
        print(p)
    if versions[0] != versions[1]:
        print(f"version {versions[0]} -> {versions[1]}: {len(problems)} difference(s) allowed")
        return 0
    if problems:
        print(f"version {versions[0]} unchanged, but {len(problems)} output(s) differ")
        return 1
    print(f"version {versions[0]}: {len(configs)} configs, every CSV identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
