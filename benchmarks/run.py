"""The bqem benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from anywhere inside a source checkout; bqem is imported from its
``src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (see ``README.md``):

* ``setup_s``: median wall time of a fresh ``python3 -c "import bqem"``,
  after one discarded import that compiles the bytecode;
* ``cold_s``: median time from starting a fresh workload process to the
  end of its first pass;
* ``wall_s``: median time of one warm pass, over all passes of the run;
* ``peak_rss_mb``: median peak resident memory of the workload processes.

With ``--trace 1`` they are the per-layer ones, from one untraced and one
traced workload process and from ``python3 -X importtime``.  Every workload
process runs with BLAS on one thread, one at a time, and this process waits
idle while they run.  ``--smoke`` runs one checked pass of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
CHILD_TIMEOUT = 170.0
# Fresh-import samples per run, spread over the run so that one slow spell
# of the shared machine does not set them all.
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # One BLAS thread: the default two-thread pool on two cores makes the
    # scatter sweep 3x slower and its timings follow the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run one process to its end; a timeout kills it and waits for it."""
    return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)


def import_seconds(env: dict) -> float:
    t0 = time.perf_counter()
    proc = run_process([sys.executable, "-c", "import bqem"], env)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import bqem failed:\n{proc.stderr}")
    return elapsed


def run_child(workload: str, seed: int, work: Path, env: dict, deadline: float, min_warm: int,
              trace: Path | None = None) -> tuple[dict, float]:
    """One workload process; returns its result and the time it was started."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
            "--work", str(work), "--deadline", repr(deadline), "--min-warm", str(min_warm)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    start = time.perf_counter()
    proc = run_process(argv, env)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def end_to_end(workload: str, seed: int, seconds: float, work: Path, env: dict) -> dict:
    spec = workloads.WORKLOADS[workload]
    import_seconds(env)  # compiles the bytecode of a fresh checkout; not counted
    setup, cold, warm, rss, children = [], [], [], [], []
    used = 0.0
    for i in range(spec.procs):
        gap = SETUP_SAMPLES // spec.procs + (i < SETUP_SAMPLES % spec.procs)
        setup += [import_seconds(env) for _ in range(gap)]
        t0 = time.perf_counter()
        deadline = t0 + (seconds - used) / (spec.procs - i)
        res, start = run_child(workload, seed, work, env, deadline, spec.min_warm)
        used += time.perf_counter() - t0
        cold.append(res["first_end"] - start)
        warm += res["warm"]
        rss.append(res["maxrss_mb"])
        children.append(res)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_s": (statistics.median(cold), "s"),
        "wall_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return summary(children, metrics)


def import_layers(env: dict) -> dict[str, float]:
    """Import time of numpy, scipy, sympy and bqem's own modules, from -X importtime.

    A third-party package is charged the cumulative time of its outermost
    imports, so what it pulls in counts with it; bqem is charged the self
    time of its own modules only.
    """
    out = {"numpy": 0.0, "scipy": 0.0, "sympy": 0.0, "bqem": 0.0}
    proc = run_process([sys.executable, "-X", "importtime", "-c", "import bqem"], env)
    if proc.returncode != 0:
        raise RuntimeError(f"import bqem failed:\n{proc.stderr}")
    open_pkgs: list[tuple[int, str]] = []  # innermost last: (depth, package)
    # importtime lists a module after its children, so walk it backwards.
    for line in reversed(proc.stderr.splitlines()):
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, depth, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        pkg = name.split(".", 1)[0]
        while open_pkgs and open_pkgs[-1][0] >= depth:
            open_pkgs.pop()
        if pkg == "bqem":
            out["bqem"] += self_us / 1e6
        elif pkg in out and not any(p == pkg for _, p in open_pkgs):
            out[pkg] += cum_us / 1e6
        open_pkgs.append((depth, pkg))
    return out


def traced(workload: str, seed: int, seconds: float, work: Path, env: dict) -> dict:
    samples = [import_layers(env) for _ in range(IMPORTTIME_SAMPLES)]
    metrics = {f"import.{k}_s": (statistics.median(s[k] for s in samples), "s") for k in samples[0]}

    plain, _ = run_child(workload, seed, work, env, time.perf_counter() + seconds / 2, 2)
    spans_path = RESULTS / f"spans-{workload}-{seed}.json"
    res, _ = run_child(workload, seed, work, env, time.perf_counter() + seconds / 2, 2, trace=spans_path)
    units = {"scattering.solves": "count", "scattering.unknowns": "count",
             "kernels.fundamental_solution.points": "count", "grids.diff.calls": "count",
             "chiral_time.bessel_j.points": "count",
             "scattering.matrix_mb": "MB-computed", "grids.diff.mb": "MB-computed"}
    for name in res["layers"][0]:
        metrics[name] = (statistics.median(p[name] for p in res["layers"]), units.get(name, "s"))
    metrics["chiral_time.green_residual.peak_mb"] = (res["green_residual_peak_mb"], "MB")
    metrics["trace.overhead_s"] = (statistics.median(res["warm"]) - statistics.median(plain["warm"]), "s")
    return summary([plain, res], metrics)


def summary(children: list[dict], metrics: dict) -> dict:
    errors = [e for c in children for e in c["errors"]]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke(env: dict) -> int:
    ok = True
    for name in workloads.WORKLOADS:
        work = prepare(name, 0)
        t0 = time.perf_counter()
        res, start = run_child(name, 0, work, env, 0.0, 0)
        status = "ok" if not res["errors"] and not res["failed"] else "FAILED"
        ok = ok and status == "ok"
        print(f"{name:14s} {status:6s} cold {res['first_end'] - start:7.3f} s  "
              f"peak {res['maxrss_mb']:6.0f} MB  ops {res['attempted']}  failed {res['failed']}  "
              f"({time.perf_counter() - t0:.1f} s)")
        for e in res["errors"]:
            print(f"    {e}")
    return 0 if ok else 1


def prepare(workload: str, seed: int) -> Path:
    work = RESULTS / f"{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    _, files = workloads.build(workload, seed, work)
    for path, text in files.items():
        path.write_text(text)
    return work


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one checked pass of every workload")
    args = p.parse_args()
    if not (ROOT / "src" / "bqem" / "__init__.py").is_file():
        print(f"no bqem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    if args.smoke:
        return smoke(env)
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    work = prepare(args.workload, args.seed)
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds, work, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
