"""In-memory span recorder and the wrappers a traced run installs.

The benchmark measures each layer from outside: :func:`install` swaps a
public function of the program for a wrapper that records one span per
call (name, start, end, parent span, unit id) and puts the original
back on :meth:`Tracer.uninstall`.  An untraced run never calls
:func:`install`, so its timings carry no wrapper cost and the
difference between the two runs is the tracing overhead.

A layer's self time is its span time minus the time of its child spans
(children run nested on the same thread, so they never overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

class Tracer:
    """Collects spans and counts in memory; writes them out at the end."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, name, start_s, end_s, unit)`` tuples.
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------
    def set_unit(self, unit) -> None:
        """Tag the calling thread's following spans with ``unit``."""
        self._local.unit = unit

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn, after=None, before=None):
        """``fn`` recording one span per call.  ``after(tracer, result,
        args, state)`` takes counts at the same boundary, where
        ``state`` is what ``before(args)`` returned on entry."""
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            state = before(args) if before is not None else None
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end,
                     getattr(local, "unit", None))
                )
            if after is not None:
                after(self, result, args, state)
            return result

        return traced

    # -- installing -----------------------------------------------------
    def _patch(self, owner, attr: str, wrapped, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def patch(self, where: str, name: str, *, after=None, before=None,
              also=()) -> None:
        """Wrap ``module:attr`` (or ``module:Class.method``) and every
        module in ``also`` that imported the same function by name."""
        module_name, _, path = where.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, after, before)
        self._patch(owner, attr, wrapped, original)
        for other in also:
            module = importlib.import_module(other)
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapped, original)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def self_times(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> dict:
        """``{name: [self seconds, calls]}`` over spans that started in
        ``[since, until)``."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span_id, _, name, start, end, _ in self.spans:
            if not since <= start < until:
                continue
            entry = out[name]
            entry[0] += (end - start) - child_time.get(span_id, 0.0)
            entry[1] += 1
        return dict(out)

    def dump(self, path) -> None:
        """Write the counts, then the spans (one JSON array per line),
        gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    @staticmethod
    def load(path) -> "Tracer":
        tracer = Tracer()
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            tracer.counts.update(json.loads(handle.readline())["counts"])
            for line in handle:
                tracer.spans.append(tuple(json.loads(line)))
        return tracer


# ----------------------------------------------------------------------
# Counts taken at span boundaries
# ----------------------------------------------------------------------
def _before_run(args):
    return args[0].cache.stats


def _after_run(tracer: Tracer, result, args, before) -> None:
    """Plan decisions, and the cache counts as the delta of the
    program's own ``ResultCache.stats`` over the run: the runner's hot
    loops answer memory-tier hits without calling ``ResultCache.get``,
    so only the cache's counters see every lookup."""
    runner = args[0]
    for decision in runner.plan_decisions:
        plan = "pool" if decision.plan == "spawn" else decision.plan
        tracer.count(f"plan.{plan}", decision.jobs)
    after = runner.cache.stats
    tracer.count("cache.hits", after.hits - before.hits)
    tracer.count("cache.misses", after.misses - before.misses)
    tracer.count("cache.disk_hits", after.disk_hits - before.disk_hits)


def _after_grid(tracer: Tracer, result, args, before) -> None:
    tracer.count("grid.lanes", result.lanes)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry point of every traced layer."""
    tracer.patch(
        "repro.models.zoo:get_model", "models.build",
        also=("repro.cli",),
    )
    tracer.patch(
        "repro.experiments.harness:default_trio", "simulator.build",
        also=("repro.experiments", "repro.experiments.per_layer"),
    )
    tracer.patch(
        "repro.dse.space:build_simulator", "simulator.build",
        also=("repro.dse.search", "repro.dse"),
    )
    # The service resolves machine names to simulator factories; the
    # factory call is the build.
    from repro.service import protocol

    builder = protocol.machine_builder

    def machine_builder(name):
        return tracer.wrap("simulator.build", builder(name))

    tracer._patch(protocol, "machine_builder", machine_builder, builder)

    tracer.patch(
        "repro.core.batch:SweepRunner.run", "batch.run",
        before=_before_run, after=_after_run,
    )
    tracer.patch("repro.core.grid:evaluate_grid", "grid.evaluate",
                 after=_after_grid)
    tracer.patch(
        "repro.core.vectorized:simulate_layers_vectorized",
        "vectorized.simulate",
    )
    tracer.patch(
        "repro.core.invariants:audit_model_result", "invariants.audit",
        also=("repro.core.batch",),
    )
    tracer.patch("repro.core.batch:ResultCache.get", "cache.get")
    tracer.patch("repro.core.batch:ResultCache.put", "cache.put")
    for reader in ("parse_log", "iter_json_records", "scan_log"):
        tracer.patch(f"repro.core.store:{reader}", "store.read")
    tracer.patch(
        "repro.serialization:model_result_to_dict", "serialization.to_dict",
        also=("repro",),
    )
    tracer.patch(
        "repro.service.protocol:results_digest", "digest",
        also=("repro.service.scheduler", "repro.service"),
    )
    tracer.patch("repro.validate:validate_simulator", "validate.simulator")
    for entry in ("frontier_bounds", "objective_lower_bound"):
        tracer.patch(
            f"repro.dse.bounds:{entry}", "dse.bounds",
            also=("repro.dse.search", "repro.dse"),
        )
    return tracer
