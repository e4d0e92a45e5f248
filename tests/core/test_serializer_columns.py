"""The column-reading serializer against the object-walking oracle.

:func:`repro.serialization.model_result_to_dict` reads lazy kernel
lanes straight from their lane-store columns and every other result
from its attributes.  Both sources must give byte-for-byte the dicts
the object-walking serializer in :mod:`oracle` builds, on every
execution route, and serializing must never materialize a lazy lane.
"""

from __future__ import annotations

import json

import pytest

from oracle import (
    covered_union_layers,
    oracle_layer_result_to_dict,
    oracle_model_result_to_dict,
    zoo_grid_families,
    zoo_machines,
)
from repro.core.batch import NullCache, ResultCache, SweepJob, SweepRunner
from repro.core.grid import evaluate_grid
from repro.core.layer import LayerSet
from repro.core.dataflow import DataflowKind
from repro.core.metrics import (
    LANE_FIELDS,
    LANE_INDEX,
    LayerResult,
    ModelResult,
    _lane_state,
    lane_row,
)
from repro.core.simulator import Simulator
from repro.core.vectorized import coverage_gap, simulate_layers_vectorized
from repro.models.zoo import get_model
from repro.serialization import layer_result_to_dict, model_result_to_dict

MODELS = ("MobileNetV2", "ResNet-50")


def _lazy(lane) -> bool:
    return "_lane" in lane.__dict__


def _assert_same(*forms: str, what: str = "") -> None:
    """Byte equality of JSON forms, failing with the first differing
    stretch (pytest's own diff of megabyte strings would take minutes)."""
    first = forms[0]
    for other in forms[1:]:
        if other != first:
            at = next(
                (i for i, (a, b) in enumerate(zip(first, other)) if a != b),
                min(len(first), len(other)),
            )
            start = max(0, at - 60)
            pytest.fail(
                f"{what}: forms differ at byte {at}: "
                f"{first[start:at + 60]!r} != {other[start:at + 60]!r}"
            )


def _both_forms(result) -> tuple[str, str]:
    """(new, oracle) JSON of one model result; the new form first, so
    the oracle's materializing walk cannot influence it."""
    new = model_result_to_dict(result)
    old = oracle_model_result_to_dict(result)
    # Key order matters too: model_result_to_json does not sort.
    _assert_same(json.dumps(new), json.dumps(old), what="key order")
    return json.dumps(new, sort_keys=True), json.dumps(old, sort_keys=True)


def _assert_matches_oracle(results) -> None:
    for result in results:
        _assert_same(
            *_both_forms(result), what=f"{result.accelerator}/{result.model}"
        )


def _renamed_models():
    """Two copies of MobileNetV2 whose layers share shapes but not
    names: the second copy's lanes are rebound to renamed layers."""
    base = get_model("MobileNetV2")
    renamed = LayerSet(
        "MobileNetV2-renamed",
        [layer.renamed(f"{layer.name}-r") for layer in base.all_layers],
    )
    return [base, renamed]


def _trio():
    machines = zoo_machines()
    return [machines[name] for name in ("simba", "popstar", "spacx")]


def _run(jobs, **kwargs):
    runner = SweepRunner(manifest=False, **kwargs)
    try:
        return runner.run(jobs)
    finally:
        runner.close()


@pytest.mark.parametrize("layer_by_layer", [False, True])
def test_every_zoo_family_grid_and_1d_lanes(layer_by_layer):
    """Grid lanes of every zoo machine family, and the same machines'
    one-machine (m = 1) lanes, in both timing modes."""
    union = covered_union_layers()
    families = zoo_grid_families(layer_by_layer)
    assert families
    for members in families.values():
        sims = [simulator for _, simulator in members]
        outcome = evaluate_grid(sims, union, layer_by_layer=layer_by_layer)
        for j, simulator in enumerate(sims):
            lanes = outcome.by_machine[j]
            assert lanes is not None, outcome.reasons[j]
            grid_result = ModelResult(
                simulator.spec.name, "union", list(lanes.values())
            )
            vec = simulate_layers_vectorized(
                simulator, union, layer_by_layer=layer_by_layer
            )
            vec_result = ModelResult(simulator.spec.name, "union", vec)
            new_grid = json.dumps(
                model_result_to_dict(grid_result), sort_keys=True
            )
            new_vec = json.dumps(
                model_result_to_dict(vec_result), sort_keys=True
            )
            assert all(map(_lazy, grid_result.layers))
            assert all(map(_lazy, vec_result.layers))
            old = json.dumps(
                oracle_model_result_to_dict(vec_result), sort_keys=True
            )
            _assert_same(old, new_grid, new_vec, what=simulator.spec.name)


@pytest.mark.parametrize("exec_plan", ["auto", "serial", "pool"])
def test_every_route_matches_the_oracle(exec_plan):
    jobs = [
        SweepJob(simulator, model)
        for model in _renamed_models() + [get_model(MODELS[1])]
        for simulator in _trio()
    ]
    results = _run(
        jobs, max_workers=2, cache=NullCache(), exec_plan=exec_plan
    )
    if exec_plan != "pool":  # pool results come back pickled, built
        # Renamed copies ride rebound lanes, still lazy.
        assert all(_lazy(lane) for lane in results[3].layers)
    _assert_matches_oracle(results)


def test_scalar_fallback_machine_matches_the_oracle():
    class TracingSimulator(Simulator):
        pass

    spacx = zoo_machines()["spacx"]
    fallback = TracingSimulator(
        spacx.spec, spacx.compute_energy, spacx.network_energy, strict=False
    )
    assert coverage_gap(fallback) is not None
    jobs = [SweepJob(fallback, get_model(name)) for name in MODELS]
    results = _run(jobs, max_workers=1, cache=NullCache())
    assert not any(_lazy(lane) for r in results for lane in r.layers)
    _assert_matches_oracle(results)
    stock = _run(
        [SweepJob(spacx, get_model(name)) for name in MODELS],
        max_workers=1, cache=NullCache(),
    )
    for fallback_result, stock_result in zip(results, stock):
        _assert_same(
            _both_forms(fallback_result)[0], _both_forms(stock_result)[0],
            what=fallback_result.model,
        )


def test_warm_disk_hits_match_the_oracle(tmp_path):
    jobs = [
        SweepJob(simulator, model)
        for model in _renamed_models()
        for simulator in _trio()
    ]
    cold = _run(
        jobs, max_workers=1, cache=ResultCache(cache_dir=tmp_path)
    )
    cold_forms = [_both_forms(r)[0] for r in cold]
    warm_cache = ResultCache(cache_dir=tmp_path)
    warm = _run(jobs, max_workers=1, cache=warm_cache)
    assert warm_cache.stats.disk_hits > 0
    _assert_matches_oracle(warm)
    for result, cold_form in zip(warm, cold_forms):
        _assert_same(_both_forms(result)[0], cold_form, what=result.model)


def test_mixed_materialized_and_lazy_lanes():
    """Serializing one model whose lanes are partly materialized."""
    jobs = [SweepJob(simulator, get_model(MODELS[1])) for simulator in _trio()]
    fresh = _run(jobs, max_workers=1, cache=NullCache(), exec_plan="auto")
    touched = _run(jobs, max_workers=1, cache=NullCache(), exec_plan="auto")
    for result in touched:
        for lane in result.layers[::3]:
            lane.mapping  # materializes this lane only
        assert any(map(_lazy, result.layers))
        assert not all(map(_lazy, result.layers))
    for a, b in zip(fresh, touched):
        _assert_same(
            json.dumps(model_result_to_dict(a), sort_keys=True),
            json.dumps(model_result_to_dict(b), sort_keys=True),
            what=a.accelerator,
        )
    _assert_matches_oracle(touched)


def test_serializing_leaves_grid_lanes_lazy():
    jobs = [SweepJob(simulator, get_model(MODELS[0])) for simulator in _trio()]
    results = _run(jobs, max_workers=1, cache=NullCache(), exec_plan="auto")
    lanes = [lane for result in results for lane in result.layers]
    assert all(map(_lazy, lanes))
    for result in results:
        model_result_to_dict(result)
        result.execution_time_s, result.energy, result.throughput_gbps
    for lane in lanes:
        layer_result_to_dict(lane)
    assert all(map(_lazy, lanes))
    # Reading a field materializes exactly that lane.
    assert lanes[0].mapping is lanes[0].mapping
    assert not _lazy(lanes[0]) and all(map(_lazy, lanes[1:]))
    _assert_same(
        json.dumps(layer_result_to_dict(lanes[0])),
        json.dumps(oracle_layer_result_to_dict(lanes[0])),
        what="one lane",
    )


def test_lane_dict_reads_every_field_by_table_position():
    """The dict builder unpacks lane rows by position: a row of distinct
    sentinels must report every field under its own name, as the
    oracle reads them off the objects the same row materializes."""
    row = list(range(1000, 1000 + len(LANE_FIELDS)))
    row[LANE_INDEX["dataflow"]] = DataflowKind.SPACX_OS
    row = tuple(row)
    layer = get_model(MODELS[0]).all_layers[0]
    lane = object.__new__(LayerResult)
    object.__setattr__(lane, "__dict__", _lane_state(row, layer))
    assert lane_row(lane) == row
    _assert_same(
        json.dumps(layer_result_to_dict(lane), sort_keys=True),
        json.dumps(oracle_layer_result_to_dict(lane), sort_keys=True),
        what="sentinel row",
    )
