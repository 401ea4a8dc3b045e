"""Benchmark entry point for elmap.

    python3 perfbench/run.py --workload {experiments,estimation}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/elmap``
and ``configs``).  The library is imported from that checkout's ``src``;
nothing needs installing.

Each workload runs in its own single-threaded child process
(``worker.py``).  With ``--trace 0`` the set-up is also timed in
``SETUP_PROBES`` extra fresh interpreters, and ``setup_s`` is the median
of all set-ups.  With ``--trace 1`` an untraced and a traced child share
the run's seconds, and ``trace.overhead_s`` is the traced child's median
pass minus the untraced child's.  The last line on standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("experiments", "estimation")
SETUP_PROBES = 4
# Worst case stays under three minutes: probes, then the measured run; or
# the untraced, then the traced child.
PROBE_TIMEOUT_S = 10
RUN_TIMEOUT_S = 120
TRACE_RUN_TIMEOUT_S = 80

# One thread for every numerical library, and a fixed hash seed.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child(root: Path, args, seconds: float, trace: int, extra: list, timeout: float) -> dict:
    """Run worker.py to completion and return its last-line JSON."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(root),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + extra
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be nonnegative")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    root = Path.cwd().resolve()
    if not (root / "src" / "elmap" / "__init__.py").is_file():
        return _fail(f"no elmap source tree under {root / 'src'}; run from a checkout root")
    if args.workload == "experiments" and not any((root / "configs").glob("*.cfg")):
        return _fail(f"no shipped configs under {root / 'configs'}")

    try:
        if args.trace:
            half = args.seconds / 2
            plain = _child(root, args, half, 0, [], TRACE_RUN_TIMEOUT_S)
            result = _child(root, args, half, 1, [], TRACE_RUN_TIMEOUT_S)
            traced_wall = result["metrics"].pop("wall_s")["value"]
            result["metrics"]["trace.overhead_s"] = {
                "value": traced_wall - plain["metrics"]["wall_s"]["value"], "unit": "s"
            }
            print(f"{args.workload} wall_s untraced = {plain['metrics']['wall_s']['value']:.6g} s, "
                  f"traced = {traced_wall:.6g} s")
            result["correct"] = result["correct"] and plain["correct"]
            result["attempted"] += plain["attempted"]
            result["failed"] += plain["failed"]
        else:
            probes = [
                _child(root, args, args.seconds, 0, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            result = _child(root, args, args.seconds, 0, [], RUN_TIMEOUT_S)
            own = result["metrics"]["setup_s"]["value"]
            print(f"{args.workload} setup_s of the measuring process = {own:.6g} s")
            print(f"{args.workload} setup_s of the probes = {' '.join(f'{t:.6g}' for t in probes)} s")
            result["metrics"]["setup_s"]["value"] = statistics.median(probes + [own])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        return _fail(f"{args.workload} run failed: {exc}")

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"{args.workload} attempted = {result['attempted']} "
        f"failed = {result['failed']} correct = {result['correct']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
