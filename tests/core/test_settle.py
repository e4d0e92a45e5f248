"""One job lifecycle: every route settles a job the same way.

The serial loop, the grid kernel and the warm pool each hand their
finished attempts to one settle step, which audits a result before any
of its freshly computed lanes enter the runner's cache.  These tests
pin the observable contract of that step:

* an audit failure looks the same on every route -- no result, no
  cached lane of the failed job, a manifest ``failed`` record, equal
  :class:`JobFailure` fields, one attempt wall time, and
  ``on_error="raise"`` raises;
* a :class:`Simulator` subclass never shares the stock machine's cache
  keys, so it cannot replay stock lanes as its own;
* a warm pool rerun over a shared cache directory appends nothing:
  only lanes a worker computed fresh are committed.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from crashkit import CrashingSimulator
from repro.core import batch
from repro.core.batch import (
    ResultCache,
    SweepJob,
    SweepJobError,
    SweepRunner,
    layer_cache_key,
    simulator_fingerprint,
)
from repro.core.campaign import CampaignManifest, read_manifest_events
from repro.core.invariants import InvariantViolation
from repro.core.simulator import Simulator
from repro.models.zoo import get_model
from repro.serialization import model_result_to_dict
from repro.spacx.architecture import spacx_simulator

#: The three execution routes (``auto`` grids a stock machine).
ROUTES = ("serial", "auto", "pool")

VICTIM = "MobileNetV2"
HEALTHY = "ResNet-50"


def _inject_audit_failure(monkeypatch) -> None:
    """Make the runner's audit reject every result of :data:`VICTIM`."""
    real = batch.audit_model_result

    def audit(result, spec=None, **kwargs):
        found = list(real(result, spec, **kwargs))
        if result.model == VICTIM:
            found.append(
                InvariantViolation(
                    code="INV-TEST",
                    message="injected audit failure",
                    accelerator=result.accelerator,
                    layer=result.model,
                )
            )
        return found

    monkeypatch.setattr(batch, "audit_model_result", audit)


def _keys(simulator, model) -> set[str]:
    fingerprint = simulator_fingerprint(simulator)
    return {
        layer_cache_key(fingerprint, layer, False)
        for layer in model.unique_layers
    }


def _run_route(route, tmp_path, *, on_error="skip"):
    simulator = spacx_simulator()
    jobs = [
        SweepJob(simulator, get_model(VICTIM)),
        SweepJob(simulator, get_model(HEALTHY)),
    ]
    cache = ResultCache()
    manifest = CampaignManifest(tmp_path / route)
    runner = SweepRunner(
        max_workers=2,
        cache=cache,
        manifest=manifest,
        on_error=on_error,
        exec_plan=route,
    )
    try:
        out = runner.run(jobs)
    finally:
        runner.close()
    return runner, cache, manifest, out


@pytest.mark.parametrize("route", ROUTES)
def test_audit_failure_settles_alike_on_every_route(
    route, tmp_path, monkeypatch
):
    _inject_audit_failure(monkeypatch)
    runner, cache, manifest, out = _run_route(route, tmp_path)
    if runner.used_fallback:
        pytest.skip("worker pool unavailable on this platform")
    expected_mode = {"serial": "serial", "auto": "grid", "pool": "pool"}
    assert {s.mode for s in runner.stats} == {expected_mode[route]}

    assert out[0] is None
    assert out[1] is not None
    # Only the healthy job's lanes were committed -- shapes the failed
    # job shares with it included, none of its own.
    simulator = spacx_simulator()
    healthy = _keys(simulator, get_model(HEALTHY))
    victim_only = _keys(simulator, get_model(VICTIM)) - healthy
    assert victim_only
    assert set(cache._memory) == healthy
    assert cache.stats.puts == len(healthy)

    assert not manifest.is_done(0)
    assert manifest.is_done(1)
    events = read_manifest_events(manifest.path)
    assert [e["index"] for e in events if e["event"] == "failed"] == [0]

    [failure] = runner.failures
    assert failure.error_type == "InvariantViolationError"
    assert failure.attempts == 1
    assert not failure.quarantined
    assert len(failure.attempt_wall_times_s) == 1
    assert [v["code"] for v in failure.violations] == ["INV-TEST"]
    [failed_stat] = [s for s in runner.stats if s.failed]
    assert failed_stat.index == 0

    with pytest.raises(SweepJobError) as excinfo:
        _run_route(route, tmp_path / "raise", on_error="raise")
    assert excinfo.value.failure.index == 0
    assert excinfo.value.failure.error_type == "InvariantViolationError"


def test_failure_records_agree_across_routes(tmp_path, monkeypatch):
    _inject_audit_failure(monkeypatch)
    records = {}
    for route in ROUTES:
        runner, _, _, _ = _run_route(route, tmp_path)
        if runner.used_fallback:
            pytest.skip("worker pool unavailable on this platform")
        [failure] = runner.failures
        records[route] = (
            failure.error_type,
            failure.message,
            failure.violations,
            failure.attempts,
            failure.quarantined,
            len(failure.attempt_wall_times_s),
        )
    assert records["serial"] == records["auto"] == records["pool"]


# ----------------------------------------------------------------------
# Simulator type in the cache fingerprint
# ----------------------------------------------------------------------
class _CorruptingSimulator(Simulator):
    """Stock SPACX with a negative computation time on every layer."""

    def simulate_layer(self, layer, layer_by_layer=True):
        result = super().simulate_layer(layer, layer_by_layer=layer_by_layer)
        return dataclasses.replace(result, computation_time_s=-1.0)


def _corrupting_spacx() -> _CorruptingSimulator:
    healthy = spacx_simulator()
    return _CorruptingSimulator(
        healthy.spec,
        healthy.compute_energy,
        healthy.network_energy,
        strict=False,
    )


def test_stock_fingerprint_is_unchanged():
    # Pinned so existing on-disk caches keep serving the stock machine.
    assert simulator_fingerprint(spacx_simulator()) == (
        "a325325bbc6622892b47739b5d3310703bc010092c9c99a2c54e576c819f000c"
    )


def test_subclass_fingerprint_differs_but_a_proxy_keys_as_its_machine():
    stock = spacx_simulator()
    assert simulator_fingerprint(_corrupting_spacx()) != (
        simulator_fingerprint(stock)
    )
    proxy = CrashingSimulator(stock, mode="raise")
    assert simulator_fingerprint(proxy) == simulator_fingerprint(stock)


def test_subclass_never_replays_stock_lanes():
    model = get_model(VICTIM)
    runner = SweepRunner(
        cache=ResultCache(), manifest=False, on_error="skip"
    )
    [stock] = runner.run([SweepJob(spacx_simulator(), model)])
    assert stock is not None
    [corrupt] = runner.run([SweepJob(_corrupting_spacx(), model)])
    assert corrupt is None
    [failure] = runner.failures
    assert failure.error_type == "InvariantViolationError"
    assert failure.violations[0]["code"] == "INV-TIME-NEG"


def test_pool_worker_fingerprint_memo_keys_by_type():
    from repro.core.pool import _warm_fingerprint

    memo: dict = {}
    stock = spacx_simulator()
    assert _warm_fingerprint(stock, memo) == simulator_fingerprint(stock)
    corrupt = _corrupting_spacx()
    assert _warm_fingerprint(corrupt, memo) == simulator_fingerprint(corrupt)
    assert _warm_fingerprint(corrupt, memo) != _warm_fingerprint(stock, memo)


# ----------------------------------------------------------------------
# Warm pool reruns commit only what workers computed
# ----------------------------------------------------------------------
def test_warm_pool_rerun_appends_no_shard_bytes(tmp_path):
    simulator = spacx_simulator()
    jobs = [
        SweepJob(simulator, get_model(name))
        for name in ("MobileNetV2", "ResNet-50", "VGG-16", "EfficientNet-B0")
    ]

    def shard_bytes() -> int:
        return sum(path.stat().st_size for path in tmp_path.glob("?.jsonl"))

    def run_once() -> str:
        with SweepRunner(
            max_workers=2,
            cache=ResultCache(cache_dir=tmp_path),
            manifest=False,
            exec_plan="pool",
        ) as runner:
            out = runner.run(jobs)
            if runner.used_fallback:
                pytest.skip("worker pool unavailable on this platform")
        return json.dumps(
            [model_result_to_dict(result) for result in out], sort_keys=True
        )

    cold = run_once()
    written = shard_bytes()
    assert written > 0
    for _ in range(2):
        assert run_once() == cold
        assert shard_bytes() == written

