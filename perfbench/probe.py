"""Host-speed probe: a fixed piece of work, timed between jobs.

The benchmark host is a VM whose speed drifts by up to about 1.6x over
seconds to minutes, with whole runs spent in a slow phase (contention from
other tenants for the memory system).  A run-local statistic cannot remove
a drift that lasts the whole run, so ``worker.py`` times this probe between
jobs and scales each job's latency by ``PROBE_REF_S / probe time``: the
latency the job would have had on a host where the probe takes
``PROBE_REF_S``.  The probe does the same kind of work as the jobs (a
Python loop and small complex matrix products) and touches no shiftmodels
code, so a change to the program does not move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# probe time in a fast phase of a 2-vCPU Xeon VM at 2.1 GHz (Python 3.11,
# numpy 2.4, one BLAS thread); scaled timings are seconds at that speed
PROBE_REF_S = 0.00065
UNITS = 3  # a probe is the fastest of three units, so one interrupt does not skew it

_M = np.random.default_rng(0).standard_normal((16, 16)) + 0j


def _unit() -> float:
    start = perf_counter()
    s = 0
    for i in range(8000):
        s += i * i % 7
    m = _M
    for _ in range(24):
        m = (m @ _M) * 0.01 + _M
    return perf_counter() - start


def probe() -> float:
    """Seconds one probe unit takes at this moment."""
    return min(_unit() for _ in range(UNITS))
