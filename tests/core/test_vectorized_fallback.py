"""Structural scalar fallback of the vectorized path, and how it
composes with the pool, the crash-injection kit and campaign resume.

The coverage registry (:func:`repro.core.vectorized.coverage_gap`)
must *decline* anything it does not fully understand -- a subclassed
simulator, an unregistered network-energy model -- so the sweep
engine silently runs the scalar oracle instead and reports why.  A
wrong fast answer is the one failure mode this layer may never have.
"""

from __future__ import annotations

import json

import pytest

from crashkit import CrashingSimulator
from repro.core import batch
from repro.core.batch import (
    CacheStats,
    NullCache,
    ResultCache,
    SweepJob,
    SweepRunner,
)
from repro.core.campaign import CampaignManifest
from repro.core.layer import ConvLayer, LayerSet
from repro.core.metrics import NetworkEnergy
from repro.core.simulator import Simulator
from repro.core.vectorized import coverage_gap, simulate_layers_vectorized
from repro.serialization import model_result_to_dict
from repro.spacx.architecture import spacx_simulator


def _layer(name, **kw):
    shape = dict(c=4, k=4, r=3, s=3, h=6, w=6)
    shape.update(kw)
    return ConvLayer(name=name, **shape)


def _models(n=3):
    # Two layers each, one shape repeated, so every job is a real
    # (if small) batch for the kernel.
    return [
        LayerSet(
            f"net-{i}",
            [
                _layer(f"l{i}a", c=2 + i, k=4 + i),
                _layer(f"l{i}b", c=2 + i, k=4 + i),
                _layer(f"l{i}c", c=3 + i, k=2 + i, h=8, w=8),
            ],
        )
        for i in range(n)
    ]


def _digest(results) -> str:
    return json.dumps(
        [None if r is None else model_result_to_dict(r) for r in results],
        sort_keys=True,
    )


class FlatNetworkEnergy:
    """A stand-in interconnect model the kernel has no lowering for."""

    def network_energy(self, mapping, traffic, execution_time_s):
        return NetworkEnergy(electrical_mj=1e-6 * execution_time_s)


def _custom_simulator() -> Simulator:
    base = spacx_simulator()
    return Simulator(
        base.spec, base.compute_energy, FlatNetworkEnergy(), strict=False
    )


# ----------------------------------------------------------------------
# Coverage registry: decline, never guess
# ----------------------------------------------------------------------
def test_unregistered_network_model_is_a_coverage_gap():
    simulator = _custom_simulator()
    gap = coverage_gap(simulator)
    assert gap is not None and "FlatNetworkEnergy" in gap
    assert simulate_layers_vectorized(simulator, [_layer("probe")]) is None


def test_subclassed_simulator_is_a_coverage_gap():
    class TracingSimulator(Simulator):
        pass

    base = spacx_simulator()
    simulator = TracingSimulator(
        base.spec, base.compute_energy, base.network_energy, strict=False
    )
    gap = coverage_gap(simulator)
    assert gap is not None and "TracingSimulator" in gap
    assert simulate_layers_vectorized(simulator, [_layer("probe")]) is None


def test_runner_records_fallback_and_matches_scalar():
    """An uncovered machine in a campaign: the job runs on the scalar
    oracle, the reason lands in ``vectorized_fallbacks`` and
    ``campaign_report()``, and results equal the oracle's."""
    models = _models(2)
    custom = _custom_simulator()
    stock = spacx_simulator()
    jobs = [SweepJob(sim, m) for m in models for sim in (custom, stock)]

    fast_runner = SweepRunner(max_workers=1, cache=NullCache(), manifest=False)
    fast = fast_runner.run(jobs)
    oracle = [job.simulator.simulate_model(job.model) for job in jobs]
    assert _digest(fast) == _digest(oracle)

    fallbacks = fast_runner.vectorized_fallbacks
    assert [index for index, *_ in fallbacks] == [0, 2]
    for index, accelerator, model_name, reason in fallbacks:
        assert accelerator == custom.spec.name
        assert model_name == models[index // 2].name
        assert "FlatNetworkEnergy" in reason
    report = fast_runner.campaign_report()
    assert "vectorized fallback" in report and "FlatNetworkEnergy" in report


def test_merged_loop_contract_for_gap_and_stock_machines():
    """One loop serves both routes: a repeated-shape model run twice
    through one cache has the same hit/miss/put accounting on a
    coverage-gap machine as on a stock one, equals the oracle, and
    records the gap once per gap job -- also on the all-hit rerun."""
    model = _models(1)[0]  # three layers, two unique shapes
    oracle_digests = {}
    stats = {}
    for name, simulator in (
        ("gap", _custom_simulator()),
        ("stock", spacx_simulator()),
    ):
        oracle_digests[name] = _digest([simulator.simulate_model(model)])
        cache = ResultCache()
        runner = SweepRunner(
            max_workers=1, cache=cache, manifest=False, exec_plan="serial"
        )
        for _ in range(2):
            [result] = runner.run([SweepJob(simulator, model)])
            assert _digest([result]) == oracle_digests[name]
            fallbacks = runner.vectorized_fallbacks
            if name == "gap":
                assert len(fallbacks) == 1
                assert "FlatNetworkEnergy" in fallbacks[0][3]
            else:
                assert not fallbacks
        stats[name] = cache.stats
    assert stats["gap"] == stats["stock"]
    assert stats["stock"] == CacheStats(hits=2, misses=2, puts=2)


# ----------------------------------------------------------------------
# Composition: pool x kernel x crash injection x resume
# ----------------------------------------------------------------------
def test_pooled_vectorized_campaign_crash_resume_identical(tmp_path):
    """A pooled campaign with a crashing job resumes to the exact
    results of the scalar oracle."""
    models = _models(3)
    stock = spacx_simulator()
    clean = [stock.simulate_model(m) for m in models]

    cache_dir = tmp_path / "campaign"
    first = SweepRunner(
        max_workers=2,
        cache=ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
        on_error="skip",
    )
    broken = [
        SweepJob(stock, models[0]),
        SweepJob(CrashingSimulator(stock), models[1]),
        SweepJob(stock, models[2]),
    ]
    partial = first.run(broken)
    assert partial[1] is None
    assert first.manifest.completed == 2

    second = SweepRunner(
        max_workers=2,
        cache=ResultCache(cache_dir=cache_dir),
        manifest=CampaignManifest(cache_dir),
    )
    resumed = second.run(
        [SweepJob(stock, m) for m in models], resume=True
    )
    assert second.resumed_jobs == 2
    assert _digest(resumed) == _digest(clean)


def test_crashing_proxy_is_itself_a_coverage_gap(tmp_path):
    """The crash-injection proxy is not a stock Simulator, so even its
    *successful* attempts take the scalar path -- never a fast guess
    about an instrumented machine."""
    stock = spacx_simulator()
    flaky = CrashingSimulator(
        stock, fail_times=1, counter_path=tmp_path / "counter"
    )
    assert coverage_gap(flaky) is not None
    runner = SweepRunner(
        max_workers=1,
        cache=NullCache(),
        manifest=False,
        retries=2,
        backoff_s=0.01,
    )
    [result] = runner.run([SweepJob(flaky, _models(1)[0])])
    scalar = stock.simulate_model(_models(1)[0])
    assert _digest([result]) == _digest([scalar])
    assert runner.stats[0].attempts == 2
