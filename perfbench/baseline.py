"""Measure the baseline: sets of seeded runs of every workload, plus a traced run.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--sets 2] [--workloads a,b] [--out FILE]

A set runs ``run.py --trace 0`` once per seed on every workload in turn.
Set k uses the seeds shifted by k times their count, so two sets share no
input. Per end-to-end metric it reports each set's median, quartiles and
spread (quartile distance over median), how far the worst set's median is
from the best one's, and the median over all runs, which is the recorded
baseline. One ``--trace 1`` run per workload gives the per-layer values
and the purpose check. The result is written as JSON (default
``perfbench/BASELINE.json``) with the Python version and git revision.
"""
from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    sets = [[s + k * len(seeds) for s in seeds] for k in range(args.sets)]
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True).stdout.strip()
    baseline = {"python": platform.python_version(), "git_revision": revision or "unknown",
                "run_seconds": declared["run_seconds"], "sets": sets, "workloads": {}}

    runs = {w: [] for w in workloads}  # workload -> one list of results per set
    for k, set_seeds in enumerate(sets):
        for workload in workloads:
            runs[workload].append(
                [bench(workload, seed, declared["run_seconds"], 0) for seed in set_seeds])
            for name, m in metrics.items():
                s = summary([r["metrics"][name]["value"] for r in runs[workload][k]])
                print(f"set {k} {workload:15s} {name:14s} median {s['median']:.4f} "
                      f"{m['unit']:5s} quartiles {s['q1']:.4f} .. {s['q3']:.4f}  "
                      f"spread {s['spread']:.4f}", flush=True)

    for workload in workloads:
        everything = [r for per_set in runs[workload] for r in per_set]
        end_to_end = {}
        for name, m in metrics.items():
            per_set = [summary([r["metrics"][name]["value"] for r in rs])
                       for rs in runs[workload]]
            medians = [s["median"] for s in per_set]
            best, worst = ((min, max) if m["better"] == "lower" else (max, min))
            end_to_end[name] = {
                **summary([r["metrics"][name]["value"] for r in everything]),
                "sets": per_set,
                "worst_set_vs_best": abs(worst(medians) / best(medians) - 1.0),
            }
        traced = bench(workload, sets[0][0], declared["run_seconds"], 1)
        attempted = sum(r["attempted"] for r in everything)
        failed = sum(r["failed"] for r in everything)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = {
            "correct": all(r["correct"] for r in everything) and traced["correct"],
            "ops_failed_frac": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": layers,
        }
        for name, s in end_to_end.items():
            print(f"all   {workload:15s} {name:14s} median {s['median']:.4f} "
                  f"{metrics[name]['unit']:5s} spread {s['spread']:.4f}  worst set vs best "
                  f"{s['worst_set_vs_best']:.4f} (bound {metrics[name]['bound']})", flush=True)
        print(f"all   {workload:15s} ops_failed_frac {failed / attempted:.4f} "
              f"({failed} of {attempted} operations)", flush=True)
        print(f"all   {workload:15s} purpose.holds {layers['purpose.holds']:.0f} "
              f"trace.coverage {layers['trace.coverage']:.4f} "
              f"trace.overhead_frac {layers['trace.overhead_frac']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
