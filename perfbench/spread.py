#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...]

Runs ``run.py --trace 0`` once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, then prints, per metric, the median of the runs and the
spread: (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json.  ``--jsonl PATH`` also appends every run's two output lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--jsonl", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or names:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            meta, result = json.loads(lines[-2]), json.loads(lines[-1])
            rows.append(result)
            if args.jsonl:
                with open(args.jsonl, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
        correct = all(r["correct"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        attempted = sum(r["attempted"] for r in rows)
        print(f"{workload}: {len(rows)} runs, correct={correct}, failed {failed}/{attempted}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            print(f"  {name:12s} median {median:12.5g}  spread {spread:.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
