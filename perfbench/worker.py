"""One workload in one single-threaded process: set-up, a closed loop of
whole passes over the workload's fixed operation list, output checks, and
one JSON result line on standard output.

Started by run.py; see README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path


class Loop:
    """Runs whole passes of the workload's operations, one after another."""

    def __init__(self, wl, null):
        self.wl = wl
        self.null = null  # the program's own printing goes here
        self.first = [None] * len(wl.ops)  # outputs of the first pass
        self.op_s: list = []
        self.pass_s: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []  # wrong outputs of operations that ran
        self.failures: list = []  # operations that raised or showed a known fault

    def one_pass(self, tracer=None) -> None:
        total = 0.0
        for i, op in enumerate(self.wl.ops):
            self.attempted += 1
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(self.null):
                    out = op.run()
            except Exception as exc:  # an operation the program failed
                dt = time.perf_counter() - t0
                self.failed += 1
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                out = None
            else:
                dt = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.active = False
            total += dt
            self.op_s.append(dt)
            if out is None:
                continue
            collect = getattr(self.wl, "collect", None)  # untimed read-back
            if collect is not None:
                out = collect(op, out)
            fault = op.fault(op, out) if op.fault is not None else []
            if fault:
                self.failed += 1
                self.failures.append(f"{op.label}: known fault: {fault[0]}")
            if self.first[i] is None:
                self.first[i] = out
                found = self.wl.check(op, out)
            else:
                found = self.wl.same(op, self.first[i], out)
            self.problems.extend(f"{op.label}: {p}" for p in found)
        self.pass_s.append(total)

    def run_for(self, seconds: float, min_passes: int, tracer=None) -> None:
        """Whole passes until the next one would end after ``seconds``."""
        start = time.perf_counter()
        done = 0
        while True:
            elapsed = time.perf_counter() - start
            if done >= max(min_passes, 1) and elapsed * (done + 1) / done > seconds:
                return
            self.one_pass(tracer)
            done += 1


def main(argv=None) -> int:
    t_setup = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import elmap

    if not Path(elmap.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported elmap from {elmap.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        module = importlib.import_module(args.workload)
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            wl = module.Workload(root, args.seed, workdir)
        setup_s = time.perf_counter() - t_setup
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        with open(os.devnull, "w") as null:
            result = _measure(args, Loop(wl, null), setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in list(dict.fromkeys(result.pop("failures")))[:10] + result.pop("problems")[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _measure(args, loop: Loop, setup_s: float) -> dict:
    import numpy as np

    wl = loop.wl
    if not args.trace:
        loop.run_for(args.seconds, wl.min_passes)
        ms = 1e3 * np.asarray(loop.op_s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (float(np.median(loop.pass_s)), "s"),
            "op_p50_ms": (float(np.median(ms)), "ms"),
            "op_tail_ms": (float(np.percentile(ms, wl.tail_pct)), "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        print(
            f"{args.workload}: {len(loop.pass_s)} passes of {len(wl.ops)} operations; "
            f"op_tail_ms is p{wl.tail_pct}"
        )
    else:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        loop.run_for(args.seconds, 1, tr)
        tr.write(Path(args.root) / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = tr.layer_metrics(len(loop.pass_s))
        # run.py subtracts the untraced run's wall_s to give trace.overhead_s.
        metrics["wall_s"] = (float(np.median(loop.pass_s)), "s")
        print(f"{args.workload}: {len(loop.pass_s)} traced passes; per-layer figures are per pass")
    return {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": loop.failures,
        "problems": loop.problems,
    }


if __name__ == "__main__":
    sys.exit(main())
