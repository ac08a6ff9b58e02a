"""Run the benchmark on the same code in two sets and compare them with its bounds.

    python3 benchmarks/selfcheck.py [--runs 10] [--workloads a,b]

Each of the two sets runs every chosen workload ``--runs`` times for
``run_seconds`` of ``BENCHMARK.json``, each run with its own seed.  For
every end-to-end metric the script prints, per set, the median and the
spread (distance between the first and third quartile of the run values, as
``statistics.quantiles(values, n=4)`` gives them, over the median), and the
drift of the median from the first set to the second.  Every spread and the
size of every drift, in either direction, must stay within the metric's
bound: a set that is faster than the other on the same code would hide a
regression as surely as a slower one.  The failed share of operations must
be the same in both sets.  The raw results go to
``benchmarks/results/selfcheck.json``.

The defaults make the full check (about 45 minutes).  While the benchmark is
being tuned, a smaller one on the workload that spreads most is cheaper,
e.g. ``--runs 5 --workloads scatter_sweep``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    seed = 1
    for s in range(SETS):
        results = {}
        for name in names:
            results[name] = []
            for _ in range(args.runs):
                res = run_once(name, seed, spec["run_seconds"])
                results[name].append(res)
                print(f"set {s + 1} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
                seed += 1
        sets.append(results)
    out = BENCH / "results" / "selfcheck.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))

    ok = True
    print(f"\n{'workload':14s} {'metric':12s} {'bound':>6s}  "
          + "  ".join(f"{'median' + str(i + 1):>10s} {'spread' + str(i + 1):>8s}" for i in range(SETS))
          + "   drift")
    for name in names:
        for metric, bound in bounds.items():
            cells, medians = [], []
            for results in sets:
                values = [r["metrics"][metric]["value"] for r in results[name]]
                sp = spread(values)
                medians.append(statistics.median(values))
                flag = "!" if sp > bound else ("~" if sp > bound / 3 else " ")
                ok = ok and flag != "!"
                cells.append(f"{medians[-1]:10.4g} {sp:7.1%}{flag}")
            drift = medians[1] / medians[0] - 1.0
            flag = "!" if abs(drift) > bound else " "
            ok = ok and flag != "!"
            print(f"{name:14s} {metric:12s} {bound:6.2f}  " + "  ".join(cells) + f"  {drift:+6.1%}{flag}")
        shares = [(sum(r["failed"] for r in res[name]), sum(r["attempted"] for r in res[name])) for res in sets]
        ok = ok and len({f / a for f, a in shares}) == 1 and all(r["correct"] for res in sets for r in res[name])
        print(f"{name:14s} failed/attempted per set: {shares}")
    print("\n! outside the bound, ~ spread above a third of the bound")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
