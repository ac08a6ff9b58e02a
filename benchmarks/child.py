"""One workload process: import bqem, run passes through ``bqem.cli.main``, check them.

Run by ``run.py`` as ``python3 child.py --workload W --seed S --work DIR
--deadline T --min-warm K [--trace FILE]``; prints one JSON line.  The
first pass is the cold one; warm passes follow until ``--deadline`` (a
``time.perf_counter`` value, which on Linux is CLOCK_MONOTONIC and so is
shared with the parent) has passed and at least ``--min-warm`` were made.
With ``--trace`` the public functions of bqem are wrapped (``tracing``),
one more pass records the tracemalloc peak of ``green_residual``, and the
spans are written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

clock = time.perf_counter


class SolveCapture:
    """Keeps each MFS solution and the relative residual of each dense solve.

    The residual is recomputed here from the matrix the solver saw; the time
    that takes is added to ``paused`` and left out of the pass time.
    """

    def __init__(self, scattering):
        import numpy as np

        self.solutions: list = []
        self.residuals: list[float] = []
        self.paused = 0.0
        solve_dense, solve_problem = scattering.solve_dense, scattering.solve_problem

        def checked_solve_dense(matrix, rhs):
            out = solve_dense(matrix, rhs)
            t0 = clock()
            self.residuals.append(float(np.linalg.norm(matrix @ out.coeffs - rhs) / np.linalg.norm(rhs)))
            self.paused += clock() - t0
            return out

        def captured_solve_problem(*args, **kwargs):
            sol = solve_problem(*args, **kwargs)
            self.solutions.append(sol)
            return sol

        scattering.solve_dense = checked_solve_dense
        scattering.solve_problem = captured_solve_problem

    def take(self):
        out = (self.solutions, self.residuals)
        self.solutions, self.residuals = [], []
        return out


def run_pass(cli, commands, capture):
    """Run every command of one pass; returns (seconds, outputs, end time)."""
    if capture is not None:
        capture.paused = 0.0
    outputs = []
    t0 = clock()
    for cmd in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(cmd["argv"])
            except Exception:  # one failed operation must not end the run
                traceback.print_exc()
                rc = -1
        outputs.append((rc, buf.getvalue(), capture.take() if capture is not None else ([], [])))
    t1 = clock()
    return t1 - t0 - (capture.paused if capture is not None else 0.0), outputs, t1


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--min-warm", type=int, required=True)
    p.add_argument("--trace", type=Path)
    args = p.parse_args()

    from bqem import cli

    commands, _ = workloads.build(args.workload, args.seed, args.work)
    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    capture = None
    if any(cmd["check"] == "scatter" for cmd in commands):
        import bqem.scattering

        capture = SolveCapture(bqem.scattering)

    passes = []  # (seconds, outputs)
    first_end = None
    while first_end is None or len(passes) <= args.min_warm or clock() < args.deadline:
        if tracer is not None:
            tracer.pass_no = len(passes)
        seconds, outputs, end = run_pass(cli, commands, capture)
        first_end = first_end or end
        passes.append((seconds, outputs))

    peaks = []
    if tracer is not None:
        tracer.pass_no = len(passes)
        tracer.track_peak = True
        run_pass(cli, commands, capture)
        tracer.track_peak = False
        peaks = tracer.peaks

    import checks

    attempted = failed = 0
    errors = []
    for _, outputs in passes:
        for cmd, (rc, text, (solutions, residuals)) in zip(commands, outputs):
            attempted += 1
            if not checks.completed(cmd, rc, text):
                failed += 1
                continue
            try:
                errors += checks.check_output(cmd, rc, text, solutions, residuals)
            except (ValueError, IndexError, KeyError) as exc:
                errors.append(f"{' '.join(cmd['argv'][:2])}: unreadable output ({exc!r})")

    result = {
        "first_end": first_end,
        "warm": [s for s, _ in passes[1:]],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
    }
    if tracer is not None:
        result["layers"] = [tracing.pass_metrics(tracer.spans, k) for k in range(1, len(passes))]
        result["green_residual_peak_mb"] = max(peaks, default=0.0)
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
