"""Steadiness check of the benchmark.

    python3 perfbench/steadiness.py --first-seed 1 [--traced] --out FILE

Run from the root of a checkout.  Runs ``perfbench/run.py`` once per seed
(first-seed .. first-seed+9) on every workload of BENCHMARK.json with its
run length, and writes, per workload and end-to-end metric, the ten values,
their median and their spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
A spread must stay within the metric's bound and should stay below a third
of it.

With ``--traced`` it instead runs the traced mode twice at the first seed and
lists every count metric that differs between the two runs (there should be
none).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def bench(spec, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} without a result:\n"
                         f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    if not result["correct"]:
        print(proc.stdout[-3000:], flush=True)
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if not trace), flush=True)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]

    summary = {}
    for workload in names:
        if args.traced:
            ra, rb = (bench(spec, workload, args.first_seed, 1) for _ in range(2))
            a, b = ra["metrics"], rb["metrics"]
            counts = [k for k, v in a.items() if v["unit"] == "count"]
            summary[workload] = {
                "seed": args.first_seed, "correct": [ra["correct"], rb["correct"]],
                "count_metrics": len(counts),
                "differing_counts": [k for k in counts if a[k] != b[k]],
                "runs": [a, b]}
            continue
        results = [bench(spec, workload, seed, 0)
                   for seed in range(args.first_seed, args.first_seed + RUNS)]
        summary[workload] = {"incorrect_runs": sum(not r["correct"] for r in results),
                             "failed": sum(r["failed"] for r in results),
                             "attempted": sum(r["attempted"] for r in results)}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {
                "values": values, "median": med, "spread": spread, "bound": m["bound"],
                "within_bound": spread <= m["bound"],
                "below_third_of_bound": spread < m["bound"] / 3}
            print(f"  {workload} {m['name']}: median {med:.6g} spread {spread:.4f} "
                  f"(bound {m['bound']})", flush=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
