#!/usr/bin/env python3
"""shiftmodels benchmark: one workload, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload semigroup-suite --seed 1 --seconds 25 --trace 0

Workloads (see ``jobs.py`` for the job lists and their oracles):

  semigroup-suite  many small dense generators: numkit, classify, semigroup
  shift-kernels    Neumann-sum kernels and short vector jobs: operators, shimorin
  inner-symbols    long power series, Toeplitz bases: series, hardy
  verify-all       repeated ``shiftmodels verify-all``: acceptance, mixed gate

Each run starts fresh worker processes (``worker.py``) with
OPENBLAS/OMP/MKL_NUM_THREADS=1 set before numpy loads.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; ``setup_s`` is the
median over SETUP_SAMPLES worker starts (process start, import, seeded
input generation and one warm-up job).  Every timing is scaled to a
reference host speed (``probe.py``).  With ``--trace 1`` the last line
carries the per-layer metrics of a traced run.  The line before it is a
metadata object: environment, sample counts, the raw pass times and the
run's median probe, the job p90 where at least ten samples lie beyond it,
and the failure ratio with its base.

Exit status is 0 when a result line was printed, non-zero otherwise (for
example when ``src/shiftmodels`` is missing from the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("semigroup-suite", "shift-kernels", "inner-symbols", "verify-all")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NO_WAITING = (
    "none: one closed-loop client in one process; no queue, lock or peer exists to wait on"
)


class WorkerError(RuntimeError):
    pass


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the worker's ready stamp compares
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON output and its set-up time.

    The set-up time is scaled to the reference host speed by the probe the
    worker times right after it is ready (see ``probe.py``).
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    start = _now()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    return result, (result["ready_monotonic"] - start) * result["ready_speed"]


def sample_setup(args: argparse.Namespace, deadline: float) -> float:
    """Set-up time of one worker that stops after its warm-up job."""
    sample, setup_s = spawn(args, deadline, setup_only=True)
    if sample["warmup_failure"]:
        raise WorkerError(f"warm-up failed: {sample['warmup_failure']}")
    return setup_s


def percentile_with_tail(values: list[float], q: float, tail: int = 10):
    """The q-quantile, or None unless at least ``tail`` samples lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
    return cut if sum(v > cut for v in values) >= tail else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "shiftmodels" / "__init__.py").is_file():
        print(f"error: no shiftmodels sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = _now() + DEADLINE_S
    try:
        # set-up samples straddle the measuring worker, so a drift in the
        # host's speed during the run reaches both halves of them
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [sample_setup(args, deadline) for _ in range(extra // 2)]
        result, setup_s = spawn(args, deadline, setup_only=False)
        setups.append(setup_s)
        setups += [sample_setup(args, deadline) for _ in range(extra - extra // 2)]
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    for line in result["failures"] + [result["warmup_failure"]]:
        if line:
            print(f"failed: {line}", file=sys.stderr)

    latencies = result["job_latencies_s"]
    p90 = percentile_with_tail(latencies, 0.9)
    attempted, failed = result["attempted"], result["failed"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "env": result["env"],
        "jobs_per_pass": result["jobs_per_pass"],
        "passes": result["passes"],
        "pass_wall_s": result["pass_wall_s"],
        "probe_median_s": result["probe_median_s"],
        "distinct_jobs": result["distinct_jobs"],
        "job_samples": len(latencies),
        "job_p90_ms": None if p90 is None else p90 * 1000.0,
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "setup_samples_s": setups,
        "waiting": NO_WAITING,
    }
    if args.trace:
        meta["trace_counts_exact"] = result["trace_counts_exact"]
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in result["per_layer"].items()
        }
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "job_p50_ms": {"value": statistics.median(result["job_median_s"]) * 1000.0, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    correct = failed == 0 and not result["warmup_failure"]
    if args.trace:
        correct = correct and result["trace_counts_exact"]
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        correct = False
    print(json.dumps(meta))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
