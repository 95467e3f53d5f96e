"""Every job of the benchmark's four workloads meets its oracle against this tree.

The job lists call the package through its public names (``sm.ComplexMatrix``,
``.array`` of a Cayley round trip, the CLI), so a change to that surface shows here
before a benchmark run reports it as a failed operation.  Each job is judged by the
benchmark worker's own ``run_job``, so the rules cannot drift from the worker's.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("semigroup-suite", "shift-kernels", "inner-symbols", "verify-all")


@functools.cache
def _load_worker():
    # the worker imports jobs, probe and spans from its own directory
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_the_workloads_are_the_four_of_the_benchmark():
    assert sorted(_load_worker().WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_distinct_job_meets_its_oracle(workload, monkeypatch):
    monkeypatch.chdir(ROOT)  # fixture paths are relative to the root
    worker = _load_worker()
    state: dict = {}
    seen = set()
    failures = []
    for job in worker.WORKLOADS[workload](np.random.default_rng(1)):
        if job.name in seen:  # short jobs are visited several times per pass
            continue
        seen.add(job.name)
        _, _, ok, _, message = worker.run_job(job, state)
        if not ok:
            failures.append(f"{job.name}: {message}")
    assert seen
    assert not failures
