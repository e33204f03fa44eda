"""Repeat run.py over several seeds and summarise every metric.

    python3 perfbench/collect.py [--seeds 10] [--first-seed 0] [--seconds 20]
                                 [--workloads NAME ...] [--out FILE]

For each workload this makes one untraced run per seed, one run after the
other, then one traced run on the first seed.  It prints, per end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median next to the metric's bound from
BENCHMARK.json, and writes every run's metrics and stamp to FILE as JSON.
Run it on two commits to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    result = json.loads(lines[-1])
    return {"seed": seed, "stamp": stamp, **result, "report": lines[:-1]}


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    out = {"seconds": args.seconds, "seeds": list(seeds), "workloads": {}}
    for workload in args.workloads:
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = _run(workload, args.first_seed, args.seconds, 1)
        summary = {
            name: summarise([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]
        }
        out["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
        print(f"== {workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name, s in summary.items():
            print(f"  {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                  f"spread {s['spread']:.3f}  bound {bounds[name]}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
