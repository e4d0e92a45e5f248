"""Host-speed calibration: scale host times to a reference speed.

On a shared virtual machine the CPU speed can drift by tens of percent
over seconds and minutes (other tenants share the host), which moves
every host time measured in that stretch together.  :func:`sample`
times a fixed piece of pure-Python work (integer arithmetic, dict
building and JSON encoding) that touches none of the program.  The
benchmark samples in gaps between units and reports each unit's host
time multiplied by ``REFERENCE_S / (mean of the samples on either
side)`` -- seconds at the reference speed -- so a slow stretch of the
host does not read as a slower program.  The raw times are printed beside them.
"""

from __future__ import annotations

import json
import statistics
import time

#: Iterations of the calibration loop.
LOOP = 8_000

#: The record the calibration encodes (fixed; built once).
_RECORD = {
    f"k{i}": {"a": i * 1.5, "b": [i, i + 1.25, str(i)], "c": {"x": i / 3}}
    for i in range(120)
}

#: Median seconds of one :func:`sample` on the host the baseline was
#: measured on (a fixed constant: changing it rescales every reported
#: time).
REFERENCE_S = 0.00125


def sample() -> float:
    """Seconds for one run of the calibration work."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    copy = {key: dict(value, n=acc) for key, value in _RECORD.items()}
    json.dumps(copy, sort_keys=True)
    return time.perf_counter() - start


def median_sample(budget_s: float) -> float:
    """Median of samples taken for about ``budget_s`` (at least one)."""
    samples = [sample()]
    while sum(samples) < budget_s:
        samples.append(sample())
    return statistics.median(samples)
