"""One workload process: set up, run closed-loop passes, print one JSON line.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  A pass runs
the workload's fixed job list once, one job at a time; the next job starts
only when the previous one returned.  Only the call into shiftmodels is
timed: the oracle check after each job is the client's think time.

Each latency is scaled to a reference host speed with ``probe.py``.  A
job's latency is the median of its scaled latencies over every visit in
the run's untraced passes; ``wall_s`` is their sum over the distinct jobs,
the time to finish the job list once, and ``job_median_s`` lists them for
the job median.  Short jobs are visited several times per pass (see
``jobs.interleave``).  The scaled latencies of all visits are pooled for
the p90 in the metadata.

Every pass must reproduce the first pass's per-job output digests.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones must
reproduce the untraced digests too (spans are trace-neutral).  ``--setup-only`` stops after the warm-up job; ``run.py``
uses it to sample set-up time several times per run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import shiftmodels  # noqa: E402
from jobs import WORKLOADS, CliResult, Mismatch  # noqa: E402
from probe import PROBE_REF_S, probe  # noqa: E402
from spans import Tracer  # noqa: E402

MAX_FAILURE_LINES = 10
PROBE_EVERY_S = 0.05  # a probe costs about 2 ms
SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"array{value.shape}{value.dtype}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"seq{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(f"map{len(value)}".encode())
        for k in sorted(value):
            _feed(h, k)
            _feed(h, value[k])
    else:
        h.update(f"{type(value).__name__}:{value!r};".encode())


def fingerprint(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def run_job(job, state: dict):
    """(output, latency_s, ok, digest, failure message) for one job."""
    error = None
    start = perf_counter()
    try:
        out = job.call(state)
    except Exception as exc:  # any escape is recorded and judged below
        out, error = None, exc
    latency = perf_counter() - start
    if job.expect is not None or error is not None:
        digest = fingerprint((type(error).__name__, str(error)))
        if job.expect is not None and type(error) is job.expect:
            return out, latency, True, digest, ""
        wanted = job.expect.__name__ if job.expect else "no exception"
        return out, latency, False, digest, f"expected {wanted}, got {error!r}"
    digest = fingerprint(out)
    try:
        if job.check is not None:
            job.check(out, state)
    except Mismatch as exc:
        return out, latency, False, digest, str(exc)
    except Exception as exc:  # an oracle that cannot read the output is a miss too
        return out, latency, False, digest, f"oracle raised {exc!r}"
    return out, latency, True, digest, ""


class Pass:
    """Outcome of one run through the job list.

    A probe runs at the start, and after a job once PROBE_EVERY_S has passed
    since the last one.  Each job between two probes is scaled by the probe
    time interpolated linearly to the job's midpoint: a short job right
    after a probe takes that probe's reading, a long job the mean of both.
    """

    def __init__(self, jobs) -> None:
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = [probe()]
        self.digests: list[str] = []
        self.failures: dict[int, str] = {}
        self.report_bytes = 0
        state: dict = {}
        probed_at = perf_counter()
        mids: list[float] = []  # midpoints of the jobs since the last probe
        for index, job in enumerate(jobs):
            start = perf_counter()
            out, latency, ok, digest, message = run_job(job, state)
            mids.append(start + latency / 2.0)
            self.latencies.append(latency)
            self.digests.append(digest)
            if not ok:
                self.failures[index] = f"{job.name}: {message}"
            if isinstance(out, CliResult):
                self.report_bytes += len(out.stdout.encode())
            now = perf_counter()
            if index == len(jobs) - 1 or now - probed_at >= PROBE_EVERY_S:
                before, after = self.probes[-1], probe()
                self.probes.append(after)
                pending = self.latencies[len(self.scaled) :]
                for mid, t in zip(mids, pending):
                    w = (mid - probed_at) / (now - probed_at)
                    self.scaled.append(t * PROBE_REF_S / (before + w * (after - before)))
                mids = []
                probed_at = perf_counter()

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_passes(jobs, budget_s: float, tracer: Tracer | None = None):
    """Whole passes until the next would overrun the budget (at least two,
    so every job's latency is a median over more than one visit).

    Returns the passes and the peak RSS in MB after the second untraced
    pass; later passes can raise the peak by a megabyte or two, which would
    make it depend on how many passes the host's speed allowed.

    With a tracer, untraced and traced passes alternate, so drift in the
    host's speed biases neither side of the overhead ratio.
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while True:
        untraced.append(Pass(jobs))
        if len(untraced) == 2:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.install()
            try:
                traced.append(Pass(jobs))
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - start
        if len(untraced) >= 2 and elapsed + elapsed / len(untraced) > budget_s:
            return untraced, traced, peak_rss_mb


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "shiftmodels": shiftmodels.__file__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(shiftmodels.__file__).resolve().is_relative_to(ROOT):
        print(f"error: imported {shiftmodels.__file__}, not the checkout's copy", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    _, _, warm_ok, _, warm_message = run_job(jobs[0], {})
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out: dict = {
        "ready_monotonic": ready,
        "ready_speed": PROBE_REF_S / statistics.median(probe() for _ in range(SETUP_PROBES)),
        "env": environment(),
        "jobs_per_pass": len(jobs),
    }
    out["warmup_failure"] = "" if warm_ok else f"{jobs[0].name}: {warm_message}"
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = Tracer(shiftmodels) if args.trace else None
    untraced, traced, peak_rss_mb = run_passes(jobs, args.seconds, tracer)

    # a job fails when it misses its oracle or its output differs from pass 0's
    reference = untraced[0].digests
    failures = []
    for number, p in enumerate(untraced + traced):
        kind = "traced" if number >= len(untraced) else "untraced"
        for index, job in enumerate(jobs):
            if index in p.failures:
                failures.append(p.failures[index])
            elif p.digests[index] != reference[index]:
                failures.append(f"{job.name}: {kind} pass {number} output differs from pass 0")

    walls = [p.wall_s for p in untraced]
    visits: dict[str, list[float]] = {}  # job name -> its scaled latency at every visit
    for p in untraced:
        for job, latency in zip(jobs, p.scaled):
            visits.setdefault(job.name, []).append(latency)
    per_job = sorted(statistics.median(v) for v in visits.values())
    out.update(
        {
            "passes": len(untraced),
            "pass_wall_s": walls,
            "probe_median_s": statistics.median(t for p in untraced for t in p.probes),
            "distinct_jobs": len(per_job),
            "wall_s": sum(per_job),
            "job_median_s": per_job,
            "job_latencies_s": sorted(t for p in untraced for t in p.scaled),
            "attempted": len(jobs) * (len(untraced) + len(traced)),
            "failed": len(failures),
            "failures": failures[:MAX_FAILURE_LINES],
            "peak_rss_mb": peak_rss_mb,
        }
    )
    if tracer is not None:
        traced_wall = sum(p.wall_s for p in traced)
        layers = tracer.per_layer(len(traced), traced_wall)
        layers["cli.report_bytes"] = (statistics.median(p.report_bytes for p in traced), "B")
        layers["trace.overhead_ratio"] = (
            statistics.median(sum(p.scaled) for p in traced)
            / statistics.median(sum(p.scaled) for p in untraced),
            "ratio",
        )
        out["per_layer"] = layers
        out["trace_counts_exact"] = tracer.exact_per_pass(len(traced))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
