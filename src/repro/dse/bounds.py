"""Admissible objective lower bounds -- no simulation required.

Branch-and-bound pruning is only correct when the bound never exceeds
the true objective value (*admissibility*).  Every bound here derives
from quantities the simulator itself is pinned to by the invariant
auditor (:mod:`repro.core.invariants`):

* **time** -- ``execution_time_s = max(compute, communication)`` per
  layer, with compute exactly ``compute_cycles * cycle_time_s``
  (INV-OPS-TIME) and communication at least every per-resource
  transfer floor (INV-COMM-LB).
  :func:`repro.core.roofline.time_lower_bound` takes the max of those
  floors, so it is a true floor -- and *exact* for compute-, GB- or
  DRAM-bound layers, which is what makes pruning effective;
* **energy** -- MAC, global-buffer and DRAM energy are pure functions
  of the mapping and traffic (no simulation), and the total always
  additionally contains PE-buffer and network energy, so their sum is
  a strict floor;
* **edp** -- the product of two admissible floors of two positive
  totals is a floor of the product;
* **static power** -- a pure function of the network topology: the
  "bound" is *exact*, so pruning on it is perfect.

Model-level bounds sum per-layer floors over unique layers weighted
by multiplicity -- exactly how ``simulate_model`` accumulates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.mapping import map_layer
from ..core.roofline import (
    mapped_time_floor_s,
    time_lower_bound,
    time_lower_bounds,
)
from ..core.traffic import derive_traffic
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.layer import ConvLayer, LayerSet
    from ..core.simulator import Simulator

__all__ = [
    "frontier_bounds",
    "layer_bounds",
    "layer_bounds_batch",
    "model_energy_lower_bound_mj",
    "model_time_lower_bound_s",
    "objective_lower_bound",
    "static_network_power_w",
    "time_lower_bound",
]


def layer_bounds(
    simulator: "Simulator",
    layer: "ConvLayer",
    *,
    layer_by_layer: bool = False,
) -> tuple[float, float]:
    """(time floor [s], energy floor [mJ]) for one layer.

    One shared mapping/traffic derivation feeds both floors, so the
    bound for a whole space costs a few microseconds per layer where a
    simulation costs milliseconds.
    """
    spec = simulator.spec
    mapping = map_layer(layer, spec.mapping_parameters(), spec.dataflow)
    traffic = derive_traffic(
        mapping,
        spec.capabilities,
        layer_by_layer=layer_by_layer,
        gb_bytes=spec.gb_bytes,
    )
    time_floor = mapped_time_floor_s(spec, mapping, traffic)
    energy = simulator.compute_energy
    energy_floor = (
        energy.mac_energy_mj(layer, mapping)
        + energy.gb_energy_mj(traffic)
        + energy.dram_energy_mj(traffic)
    )
    return time_floor, energy_floor


def layer_bounds_batch(
    simulator: "Simulator",
    layers,
    *,
    layer_by_layer: bool = False,
) -> list[tuple[float, float]]:
    """:func:`layer_bounds` over many layers, batched.

    Routes the covered lanes through the array kernel's
    :func:`~repro.core.grid.bounds_grid` with m = 1 (bit-identical
    floors by construction); sieved lanes -- and every lane when the
    machine is outside bounds coverage or the exactness screen declines
    the batch -- fall back to the scalar helper, so the output is
    always element-wise equal to ``[layer_bounds(simulator, l) for l
    in layers]``.
    """
    from ..core.grid import bounds_row

    layers = list(layers)
    if not layers:
        return []
    pairs = bounds_row(
        simulator.spec,
        layers,
        compute_energy=simulator.compute_energy,
        layer_by_layer=layer_by_layer,
    )
    return [
        layer_bounds(simulator, layer, layer_by_layer=layer_by_layer)
        if pair is None
        else pair
        for layer, pair in zip(layers, pairs)
    ]


def model_time_lower_bound_s(
    simulator: "Simulator", model: "LayerSet", *, layer_by_layer: bool = False
) -> float:
    """Admissible floor on ``simulate_model(model).execution_time_s``.

    The per-layer floors come from the batched kernel; the sum runs in
    ``unique_layers`` order, so the value is bit-identical to the
    serial accumulation.
    """
    unique = model.unique_layers
    floors = time_lower_bounds(
        simulator.spec, unique, layer_by_layer=layer_by_layer
    )
    return sum(
        model.multiplicity(layer) * floor
        for layer, floor in zip(unique, floors)
    )


def model_energy_lower_bound_mj(
    simulator: "Simulator", model: "LayerSet", *, layer_by_layer: bool = False
) -> float:
    """Admissible floor on ``simulate_model(model).energy.total_mj``."""
    unique = model.unique_layers
    pairs = layer_bounds_batch(
        simulator, unique, layer_by_layer=layer_by_layer
    )
    return sum(
        model.multiplicity(layer) * pair[1]
        for layer, pair in zip(unique, pairs)
    )


def static_network_power_w(simulator: "Simulator") -> float | None:
    """Exact static network power [W], or ``None`` for machines whose
    energy model has no standing-power report (the electrical
    baselines)."""
    report = getattr(simulator.network_energy, "report", None)
    if report is None:
        return None
    return report().overall_w


def objective_lower_bound(
    simulator: "Simulator",
    model: "LayerSet",
    objective: str,
    *,
    layer_by_layer: bool = False,
) -> float:
    """Admissible lower bound on one candidate's objective value.

    Admissibility per objective is proven layer-wise (module
    docstring) and verified zoo-wide in ``tests/dse/test_bounds.py``.
    The per-layer floors take the batched kernel path and are
    bit-identical to the scalar derivation (:func:`layer_bounds`,
    :func:`time_lower_bound`), so pruning decisions cannot depend on
    which path computed them.
    """
    if objective == "static_power":
        power = static_network_power_w(simulator)
        return 0.0 if power is None else power

    unique = model.unique_layers
    time_floor = 0.0
    energy_floor = 0.0
    if objective == "execution_time":
        floors = time_lower_bounds(
            simulator.spec, unique, layer_by_layer=layer_by_layer
        )
        for layer, floor in zip(unique, floors):
            time_floor += model.multiplicity(layer) * floor
    else:
        pairs = layer_bounds_batch(
            simulator, unique, layer_by_layer=layer_by_layer
        )
        for layer, (t, e) in zip(unique, pairs):
            count = model.multiplicity(layer)
            time_floor += count * t
            energy_floor += count * e
    if objective == "execution_time":
        return time_floor
    if objective == "energy":
        return energy_floor
    if objective == "edp":
        return time_floor * energy_floor
    raise ConfigError(
        f"unknown objective {objective!r}; choose from "
        "('execution_time', 'energy', 'edp', 'static_power')"
    )


def frontier_bounds(
    pairs,
    objective: str,
    *,
    layer_by_layer: bool = False,
) -> list[float]:
    """:func:`objective_lower_bound` over many ``(simulator, model)``
    pairs, grid-batched.

    A dense design-space frontier bounds hundreds of same-family
    machines against one workload; the per-pair path re-lowers the
    workload's shapes once per machine.  This helper groups the pairs
    by :func:`~repro.core.grid.family_key`, evaluates each group's
    union of covered layer shapes through one
    :func:`~repro.core.grid.bounds_grid` pass, and accumulates every
    pair's floors from its machine's row.

    The output is element-wise **bit-identical** to
    ``[objective_lower_bound(s, m, objective, ...) for s, m in pairs]``:
    grid floors match the scalar derivations lane-for-lane, lanes
    and machines outside bounds coverage take the per-pair path, and the
    per-model accumulation runs in the same ``unique_layers`` order
    with the same operations -- so branch-and-bound prune decisions
    cannot depend on whether the frontier was batched.
    """
    pairs = list(pairs)

    def per_pair(simulator, model):
        return objective_lower_bound(
            simulator, model, objective, layer_by_layer=layer_by_layer
        )

    if objective == "static_power" or len(pairs) < 2:
        return [per_pair(simulator, model) for simulator, model in pairs]
    if objective not in ("execution_time", "energy", "edp"):
        raise ConfigError(
            f"unknown objective {objective!r}; choose from "
            "('execution_time', 'energy', 'edp', 'static_power')"
        )

    from ..core import grid as grid_mod

    cover_memo: dict[int, bool] = {}

    def covered(layer) -> bool:
        flag = cover_memo.get(id(layer))
        if flag is None:
            flag = grid_mod.lane_covered(layer)
            cover_memo[id(layer)] = flag
        return flag

    out: "list[float | None]" = [None] * len(pairs)
    groups: dict[tuple, dict] = {}
    for idx, (simulator, model) in enumerate(pairs):
        key = grid_mod.family_key(simulator, layer_by_layer)
        group = groups.setdefault(key, {"machines": {}, "pairs": []})
        group["machines"].setdefault(id(simulator), simulator)
        group["pairs"].append(idx)

    for group in groups.values():
        machines = list(group["machines"].values())
        indices = group["pairs"]
        union: dict = {}
        for idx in indices:
            for layer in pairs[idx][1].unique_layers:
                if covered(layer):
                    union.setdefault(layer.shape_key, layer)
        union_layers = list(union.values())
        rows, _ = grid_mod.bounds_grid(
            [simulator.spec for simulator in machines],
            union_layers,
            energies=[simulator.compute_energy for simulator in machines],
            layer_by_layer=layer_by_layer,
        )
        row_by_machine = {
            id(simulator): row for simulator, row in zip(machines, rows)
        }
        position = {
            layer.shape_key: i for i, layer in enumerate(union_layers)
        }
        for idx in indices:
            simulator, model = pairs[idx]
            row = row_by_machine[id(simulator)]
            if row is None:
                # Outside bounds coverage, or the exactness screen
                # declined this machine for this layer table: per-pair
                # path, bit-identical.
                out[idx] = per_pair(simulator, model)
                continue
            time_floor = 0.0
            energy_floor = 0.0
            for layer in model.unique_layers:
                count = model.multiplicity(layer)
                if covered(layer):
                    t, e = row[position[layer.shape_key]]
                else:
                    t, e = layer_bounds(
                        simulator, layer, layer_by_layer=layer_by_layer
                    )
                time_floor += count * t
                energy_floor += count * e
            if objective == "execution_time":
                out[idx] = time_floor
            elif objective == "energy":
                out[idx] = energy_floor
            else:
                out[idx] = time_floor * energy_floor
    return out
