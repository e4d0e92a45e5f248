"""Metric names, units and the end-to-end metric each layer should move.

``BENCHMARK.json`` at the repository root lists the same names; this
table adds, for every per-layer metric, which end-to-end metric on
which workload a change to that layer is expected to move.
"""

from __future__ import annotations

import math
import statistics

#: (name, unit) of every end-to-end metric (untraced run).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_s.p50", "s"),
    ("latency_s.tail", "s"),
    ("throughput_per_s", "1/s"),
    ("lanes_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
)

_SETUP = "setup_s (all workloads)"
_UNIT_BUILD = "latency_s.p50 (dse_granularity, service_mixed)"
_COMPUTE = "latency_s.p50 (paper_zoo, dse_granularity)"
_DISK = "latency_s.p50 (zoo_warm_disk, service_mixed)"
_SERIAL = "latency_s.p50, lanes_per_s (paper_zoo); ~0 on dse_granularity"
_DSE = "latency_s.p50 (dse_granularity); 0 on paper_zoo"
_HTTP = "latency_s.p50, latency_s.tail (service_mixed)"

#: (name, unit, moves) of every per-layer metric (traced run).  Times
#: are self time per unit (campaign, search or round trip) in the traced
#: window, except ``models.build_ms`` and ``simulator.build_ms``: those
#: total the (traced) set-up; their ``_unit_`` twins are per unit.
PER_LAYER = (
    ("models.build_ms", "ms", _SETUP),
    ("simulator.build_ms", "ms", _SETUP),
    ("models.build_unit_ms", "ms", _UNIT_BUILD),
    ("simulator.build_unit_ms", "ms", _UNIT_BUILD),
    ("batch.run_ms", "ms", _COMPUTE),
    ("batch.runs", "count", _COMPUTE),
    ("plan.grid", "count", _COMPUTE),
    ("plan.serial", "count", _COMPUTE),
    ("plan.pool", "count", _COMPUTE),
    ("grid.evaluate_ms", "ms", _COMPUTE + "; small"),
    ("grid.lanes", "count", _COMPUTE + "; small"),
    ("vectorized.simulate_ms", "ms", _COMPUTE + "; small"),
    ("invariants.audit_ms", "ms", "latency_s.p50 (zoo_warm_disk)"),
    ("invariants.audits", "count", "latency_s.p50 (zoo_warm_disk)"),
    ("cache.get_ms", "ms", _DISK),
    ("cache.put_ms", "ms", _DISK),
    ("cache.hits", "count", _DISK),
    ("cache.misses", "count", _DISK),
    ("cache.disk_hits", "count", _DISK),
    ("cache.hit_rate", "frac", _DISK),
    ("store.read_ms", "ms", _DISK),
    # Grid lanes are lazy: they materialize on first access, which is
    # inside ``model_result_to_dict``, so this self time includes it.
    ("serialization.to_dict_ms", "ms",
     _SERIAL + "; includes lazy grid-lane materialization"),
    ("serialization.bytes", "bytes", _SERIAL),
    ("digest.ms", "ms", _SERIAL),
    ("validate.simulator_ms", "ms", _DSE),
    ("validate.calls", "count", _DSE),
    ("dse.bounds_ms", "ms", _DSE),
    ("dse.evaluated", "count", _DSE),
    ("dse.pruned", "count", _DSE),
    ("dse.prune_ratio", "frac", _DSE),
    ("http.submit_ms", "ms", _HTTP),
    ("http.to_terminal_ms", "ms", _HTTP),
    ("http.results_ms", "ms", _HTTP),
    ("http.results_bytes", "bytes", _HTTP),
    ("http.errors", "count", _HTTP),
    ("queue.wait_ms", "ms", _HTTP + "; rises before throughput stops rising"),
    ("scheduler.exec_ms", "ms", _HTTP),
    ("service.dedupe_frac", "frac", _HTTP),
    ("failed_frac", "frac", "every metric: failed or refused units / attempted"),
    ("trace.overhead_frac", "frac", "none: traced p50 / untraced p50 - 1"),
)

#: Standard percentiles, highest first, for the tail latency.
_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10


def nearest_rank(ordered: list[float], q: float) -> tuple[float, int]:
    """The nearest-rank ``q`` percentile of sorted samples and the
    number of samples above its rank."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the highest percentile
    with at least :data:`TAIL_BEYOND` samples beyond it.

    A run with fewer than ``2 * TAIL_BEYOND`` samples has no percentile
    at or above the median that qualifies; its tail is the median, and
    the printed sample count says how few lie beyond it.
    """
    ordered = sorted(samples)
    for q in _LADDER:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= TAIL_BEYOND:
            return value, q, beyond
    value = statistics.median(ordered)
    return value, 50.0, sum(1 for sample in ordered if sample > value)

