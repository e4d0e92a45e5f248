"""The (machines x layers) array kernel.

This is the repository's one array kernel.  The union of layer shapes
is lowered **once** (the memoized :func:`~.vectorized._shared_lower`
table), per-machine mapping parameters become ``(m, 1)`` integer
columns, and NumPy broadcasting evaluates mapping, traffic, timing,
energy and the invariant audit for the whole ``(configs x layers)``
grid in one pass.  A single machine is a grid with m = 1: the sweep
planner grids every eligible machine family, including one-machine
families, and :func:`~.vectorized.simulate_layers_vectorized`,
:func:`repro.core.roofline.time_lower_bounds` and
:func:`repro.dse.bounds.layer_bounds_batch` call this module with
m = 1.

**Bit-identity by construction.**  The mapping and traffic stages
(:func:`~.vectorized._map_lanes`, :func:`~.vectorized._traffic_lanes`)
run against a shim spec whose mapping parameters are ``(m, 1)``
arrays; the timing/energy/audit stages mirror the scalar simulator
expression-for-expression with per-machine scalars turned into
``(m, 1)`` float columns (same operand values, same association), and
broadcasting never changes per-element IEEE arithmetic.
Network-energy lowering calls the registered per-machine lowerers on
row views, so custom models need no grid-specific port.

**Screen or scalar.**  A machine joins a grid only when
:func:`~.vectorized._screen_spec` proves its whole batch can never
reach any 2**53/2**62 limit.  Machines that fail the screen, have a
coverage gap, carry a dead (``inf``-semantics) link, exceed the
parameter budget, or bail out strictly on a dirty audit lane come back
as ``None`` rows with a reason string; callers evaluate them lane by
lane through the scalar oracle (the sweep runner surfaces the reason
in ``campaign_report()``).

**Lazy materialization.**  The grid publishes its results as one
:class:`~.metrics.LaneStore` (a column per
:data:`~.metrics.LANE_FIELDS` entry) and returns lazy lanes -- real
:class:`LayerResult` instances whose ``__dict__`` holds only the store
lane and the layer -- that build their objects on first attribute
access; serialization and model folds read the columns directly.
Clean lanes carry the pre-audit marker from birth, so
``audit_model_result`` stays O(1) per model.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

try:  # pragma: no cover - numpy ships with the toolchain
    import numpy as np
except ImportError:  # pragma: no cover - gated fallback
    np = None

from .invariants import DEFAULT_REL_TOL
from .metrics import LaneStore
from .simulator import _MIN_BANDWIDTH_GBPS
from .vectorized import (
    _EXACT_INT,
    _NETWORK_LOWERERS,
    _copy_cols,
    _ensure_builtin_lowerers,
    _fits_int64,
    _map_lanes,
    _precheck,
    _screen_spec,
    _shared_cols,
    _shared_lower,
    _traffic_lanes,
    bounds_coverage_gap,
    coverage_gap,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .accelerator import AcceleratorSpec
    from .layer import ConvLayer
    from .simulator import Simulator

__all__ = [
    "GridOutcome",
    "STRICT_BAILOUT",
    "bounds_grid",
    "bounds_row",
    "evaluate_grid",
    "family_key",
    "grid_gap",
    "lane_covered",
]

#: Row reason of a strict machine with an invariant-dirty lane: the
#: caller must run the scalar loop, which reproduces the exact raise.
STRICT_BAILOUT = "strict invariant bailout"
_SCREEN_DECLINED = "exactness screen declined the grid batch"


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _used_links(spec) -> list[str]:
    """The bandwidth fields the kernel actually divides by for this
    spec (the split/combined selection of the communication stage)."""
    links = [
        "chiplet_write_gbps",
        "pe_write_gbps",
        "gb_ingress_gbps",
        "dram_bandwidth_gbps",
    ]
    if spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps:
        links += ["gb_weight_egress_gbps", "gb_ifmap_egress_gbps"]
    else:
        links.append("gb_egress_gbps")
    if spec.chiplet_weight_read_gbps and spec.chiplet_ifmap_read_gbps:
        links += ["chiplet_weight_read_gbps", "chiplet_ifmap_read_gbps"]
    else:
        links.append("chiplet_read_gbps")
    if spec.pe_weight_read_gbps and spec.pe_ifmap_read_gbps:
        links += ["pe_weight_read_gbps", "pe_ifmap_read_gbps"]
    else:
        links.append("pe_read_gbps")
    return links


def _budget_gap(spec) -> str | None:
    """Parameter-parameter products must stay in the exact range: the
    grid multiplies mapping parameters as int64 columns."""
    p = spec.mapping_parameters()
    if float(p.total_pes) * float(p.total_pes) * float(p.chiplets) >= _EXACT_INT:
        return "mapping parameters exceed the exact-integer budget"
    return None


def grid_gap(simulator: "Simulator") -> str | None:
    """Why this machine cannot join any grid (None = eligible).

    Beyond :func:`~.vectorized.coverage_gap`, dead links are refused
    (their ``inf``-transfer semantics are a per-spec scalar branch the
    broadcast pass cannot take per row), and so are mapping parameters
    large enough that parameter-parameter products could leave the
    proven-exact range.
    """
    gap = coverage_gap(simulator)
    if gap is not None:
        return gap
    spec = simulator.spec
    for name in _used_links(spec):
        if getattr(spec, name) <= _MIN_BANDWIDTH_GBPS:
            return f"dead link {name} needs scalar inf semantics"
    return _budget_gap(spec)


def family_key(simulator: "Simulator", layer_by_layer: bool = False) -> tuple:
    """Machines with equal keys share every Python-level branch of the
    kernel (dataflow dispatch, broadcast selects, split-link choices),
    so they can be evaluated as rows of one grid.  Values -- bandwidth
    magnitudes, buffer sizes, granularities, energy coefficients --
    may differ freely: they become per-row columns."""
    spec = simulator.spec
    caps = spec.capabilities
    return (
        spec.dataflow,
        bool(layer_by_layer),
        bool(caps.weight_broadcast),
        bool(caps.ifmap_broadcast),
        bool(caps.ifmap_reuse_multicast),
        bool(spec.gb_weight_egress_gbps and spec.gb_ifmap_egress_gbps),
        bool(spec.chiplet_weight_read_gbps and spec.chiplet_ifmap_read_gbps),
        bool(spec.pe_weight_read_gbps and spec.pe_ifmap_read_gbps),
    )


def lane_covered(layer) -> bool:
    """Can this layer enter a grid batch at all?"""
    return _precheck(layer) and _fits_int64(layer)


# ----------------------------------------------------------------------
# Shims: (m, 1) parameter columns behind the mapping stage's spec API
# ----------------------------------------------------------------------
class _GridParams:
    """``MappingParameters`` lookalike whose fields (including the
    derived group/total properties) are ``(m, 1)`` int64 columns."""

    __slots__ = (
        "chiplets", "pes_per_chiplet", "mac_vector_width",
        "pe_buffer_bytes", "ef_group", "k_group",
        "n_chiplet_groups", "n_pe_groups", "total_pes",
    )


class _GridSpec:
    """Just enough ``AcceleratorSpec`` surface for the mapping and
    traffic stages: shared dataflow/capabilities, column parameters."""

    __slots__ = ("dataflow", "capabilities", "gb_bytes", "_params")

    def mapping_parameters(self) -> _GridParams:
        return self._params


def _int_col(values):
    return np.array(values, dtype=np.int64).reshape(len(values), 1)


def _float_col(values):
    return np.array(values, dtype=np.float64).reshape(len(values), 1)


def _link_seconds(total_bytes, bandwidth_col):
    """Live-link transfer/floor seconds, (m, n).

    Mirrors the live branch of ``simulator._transfer_time_s`` and
    ``invariants._transfer_lower_bound_s`` (identical expressions);
    grid eligibility already excluded dead links, so the scalar
    ``inf`` branch cannot apply.
    """
    return np.where(
        total_bytes <= 0, 0.0, total_bytes * 8 / (bandwidth_col * 1e9)
    )


def _floor_col(values):
    """Bandwidth column for the bounds floors.  A non-positive
    bandwidth becomes ``inf``, so :func:`_link_seconds` yields the
    0.0 floor ``invariants._transfer_lower_bound_s`` returns for it
    (a finite byte count over an infinite rate is exactly +0.0)."""
    return _float_col([v if v > 0 else math.inf for v in values])


class _RowView:
    """One machine's row of the traffic columns, shaped (n,) -- what a
    registered network-energy lowerer expects to receive."""

    __slots__ = ("_d", "_j")

    def __init__(self, d, j):
        self._d = d
        self._j = j

    def __getattr__(self, name):
        col = getattr(self._d, name)
        if getattr(col, "ndim", 0) == 2:
            return col[self._j]
        return col


def _close_lanes(observed, expected, rel_tol):
    """Vector mirror of ``invariants._close`` (math.isclose formula)."""
    either_inf = np.isinf(observed) | np.isinf(expected)
    agree = np.abs(observed - expected) <= np.maximum(
        rel_tol * np.maximum(np.abs(observed), np.abs(expected)), 1e-18
    )
    return np.where(either_inf, observed == expected, agree)


# ----------------------------------------------------------------------
# The grid evaluation
# ----------------------------------------------------------------------
def _screen(specs, shared, reasons) -> list[int]:
    """Indexes of the specs the exactness screen passes; the others get
    their reason (unless an earlier check already gave one)."""
    kept: list[int] = []
    for j, spec in enumerate(specs):
        if reasons[j] is not None:
            continue
        if _screen_spec(spec, shared):
            kept.append(j)
        else:
            reasons[j] = _SCREEN_DECLINED
    return kept


def _grid_lower(specs, shared, layer_by_layer):
    """Mapping + traffic columns for one (machines x layers) grid.

    Broadcasts the shared ``(n,)`` layer columns against per-machine
    ``(m, 1)`` parameter columns; shared setup of :func:`evaluate_grid`
    and :func:`bounds_grid`.  Callers must have screened every spec
    with :func:`_screen_spec`.
    """
    params = [spec.mapping_parameters() for spec in specs]

    gp = _GridParams()
    gp.chiplets = _int_col([p.chiplets for p in params])
    gp.pes_per_chiplet = _int_col([p.pes_per_chiplet for p in params])
    gp.mac_vector_width = _int_col([p.mac_vector_width for p in params])
    gp.pe_buffer_bytes = _int_col([p.pe_buffer_bytes for p in params])
    gp.ef_group = _int_col([p.ef_group for p in params])
    gp.k_group = _int_col([p.k_group for p in params])
    gp.n_chiplet_groups = _int_col([p.n_chiplet_groups for p in params])
    gp.n_pe_groups = _int_col([p.n_pe_groups for p in params])
    gp.total_pes = _int_col([p.total_pes for p in params])

    gspec = _GridSpec()
    gspec.dataflow = specs[0].dataflow
    gspec.capabilities = specs[0].capabilities
    gspec.gb_bytes = _int_col([spec.gb_bytes for spec in specs])
    gspec._params = gp

    d = _copy_cols(_shared_cols(shared))
    with np.errstate(all="ignore"):
        _map_lanes(gspec, d)
        _traffic_lanes(gspec, d, layer_by_layer)
    return d


class GridOutcome:
    """Per-machine results of one grid evaluation.

    ``rows[j]`` is a list of lazy :class:`LayerResult` lanes aligned
    with the input layers (each bound to its own layer), or ``None``
    with ``reasons[j]`` naming why machine ``j`` must take the scalar
    path instead.  ``by_machine[j]`` is the same row keyed by
    ``layer.shape_key``.
    """

    __slots__ = ("rows", "reasons", "lanes", "n_layers", "_keys", "_maps")

    def __init__(self, rows, reasons, lanes, n_layers, keys):
        self.rows = rows
        self.reasons = reasons
        self.lanes = lanes
        self.n_layers = n_layers
        self._keys = keys
        self._maps = None

    @property
    def by_machine(self) -> list:
        if self._maps is None:
            keys = self._keys
            self._maps = [
                None if row is None else dict(zip(keys, row))
                for row in self.rows
            ]
        return self._maps

    @property
    def n_machines(self) -> int:
        return sum(1 for row in self.rows if row is not None)


def evaluate_grid(
    simulators: "Sequence[Simulator]",
    layers: "Sequence[ConvLayer]",
    *,
    layer_by_layer: bool = False,
) -> GridOutcome:
    """Evaluate the full (machines x layers) grid in one NumPy pass.

    Every simulator must share one :func:`family_key` and pass
    :func:`grid_gap`; every layer must pass :func:`lane_covered`
    (callers sieve with it).  Results are bit-identical to the scalar
    oracle; machines the exactness screen or a strict dirty-audit
    bailout excludes come back as ``None`` rows with a reason string.
    """
    _ensure_builtin_lowerers()
    n = len(layers)
    reasons: list = [None] * len(simulators)
    if n == 0:
        return GridOutcome([[] for _ in simulators], reasons, 0, 0, [])
    rows: list = [None] * len(simulators)
    keys = [layer.shape_key for layer in layers]

    shared = _shared_lower(layers)
    kept = _screen([s.spec for s in simulators], shared, reasons)
    if not kept:
        return GridOutcome(rows, reasons, 0, n, keys)

    sims = [simulators[j] for j in kept]
    specs = [s.spec for s in sims]
    d = _grid_lower(specs, shared, layer_by_layer)

    split_gb = bool(
        specs[0].gb_weight_egress_gbps and specs[0].gb_ifmap_egress_gbps
    )
    split_chiplet = bool(
        specs[0].chiplet_weight_read_gbps
        and specs[0].chiplet_ifmap_read_gbps
    )
    split_pe = bool(
        specs[0].pe_weight_read_gbps and specs[0].pe_ifmap_read_gbps
    )

    with np.errstate(all="ignore"):
        # --- communication (mirror of Simulator.communication_times,
        # per-spec scalars as (m, 1) columns; live links only)
        chiplets_active = np.maximum(1, d.ch_active)
        # pes_active <= total_pes < 2**53 by the spec coverage gate, so
        # it is always an exact division denominator.
        pes_active = d.ch_active * d.pe_active_per_chiplet
        pes_active_c = np.maximum(1, pes_active)

        if split_gb:
            gb_egress_s = np.maximum(
                _link_seconds(
                    d.gw,
                    _float_col([s.gb_weight_egress_gbps for s in specs]),
                ),
                _link_seconds(
                    d.gi,
                    _float_col([s.gb_ifmap_egress_gbps for s in specs]),
                ),
            )
        else:
            gb_egress_s = _link_seconds(
                d.gb_send, _float_col([s.gb_egress_gbps for s in specs])
            )

        chiplet_w = d.cw / chiplets_active
        chiplet_i = d.ci / chiplets_active
        if split_chiplet:
            chiplet_read_s = np.maximum(
                _link_seconds(
                    chiplet_w,
                    _float_col([s.chiplet_weight_read_gbps for s in specs]),
                ),
                _link_seconds(
                    chiplet_i,
                    _float_col([s.chiplet_ifmap_read_gbps for s in specs]),
                ),
            )
        else:
            chiplet_read_s = _link_seconds(
                chiplet_w + chiplet_i,
                _float_col([s.chiplet_read_gbps for s in specs]),
            )

        if d.pe_forwarding:
            pes_per_chiplet = np.maximum(1, d.pe_active_per_chiplet)
            pe_w = chiplet_w / pes_per_chiplet
            pe_i = chiplet_i / pes_per_chiplet
        else:
            pe_w = d.pw / pes_active_c
            pe_i = d.pi / pes_active_c
        if split_pe:
            pe_read_s = np.maximum(
                _link_seconds(
                    pe_w,
                    _float_col([s.pe_weight_read_gbps for s in specs]),
                ),
                _link_seconds(
                    pe_i,
                    _float_col([s.pe_ifmap_read_gbps for s in specs]),
                ),
            )
        else:
            pe_read_s = _link_seconds(
                pe_w + pe_i, _float_col([s.pe_read_gbps for s in specs])
            )

        per_chiplet_out = (d.out + d.psum) / chiplets_active
        chiplet_write_s = _link_seconds(
            per_chiplet_out,
            _float_col([s.chiplet_write_gbps for s in specs]),
        )
        per_pe_out = d.out / pes_active_c
        pe_write_s = _link_seconds(
            per_pe_out, _float_col([s.pe_write_gbps for s in specs])
        )
        gb_ingress_col = _float_col([s.gb_ingress_gbps for s in specs])
        gb_ingress_s = _link_seconds(d.out, gb_ingress_col)
        dram_col = _float_col([s.dram_bandwidth_gbps for s in specs])
        dram_s = _link_seconds(d.dread + d.dwrite, dram_col)

        waves = d.ef_waves * d.k_waves
        tuning_col = _float_col([
            s.package_latency.tuning_delay_s + s.chiplet_latency.tuning_delay_s
            for s in specs
        ])
        reconfiguration_s = waves * tuning_col

        busy = np.maximum(gb_egress_s, gb_ingress_s)
        busy = np.maximum(busy, chiplet_read_s)
        busy = np.maximum(busy, chiplet_write_s)
        busy = np.maximum(busy, pe_read_s)
        busy = np.maximum(busy, pe_write_s)
        busy = np.maximum(busy, dram_s)
        comm = busy + reconfiguration_s

        comp = d.cycles * _float_col([s.cycle_time_s for s in specs])
        # Python's max(0.0, diff) keeps 0.0 when diff is NaN or -0.0;
        # np.maximum would propagate the NaN.  The select mirrors max.
        diff = comm - comp
        exposed = np.where(diff > 0.0, diff, 0.0)
        exec_s = comp + exposed

        # --- energy (per-machine model coefficients as columns)
        energies_models = [s.compute_energy for s in sims]
        active_pe_cycles = pes_active * d.cycles
        picojoules = (
            d.macs
            * _float_col([ce.mac.energy_per_mac_pj for ce in energies_models])
            + active_pe_cycles
            * _float_col(
                [ce.mac.leakage_per_pe_cycle_pj for ce in energies_models]
            )
        )
        mac_mj = picojoules * 1e-9

        operand_reads = 2 * d.macs
        psum_accesses = np.where(d.psum_fanin > 1, 2 * d.psum, d.obytes)
        pe_buffer_mj = (
            (operand_reads + d.pe_receive + psum_accesses)
            * _float_col(
                [ce.pe_buffer.energy_pj_per_byte for ce in energies_models]
            )
        ) * 1e-9

        gb_reads = d.gb_send + d.dwrite
        gb_writes = d.out + d.dread
        gb_mj = (
            (gb_reads + gb_writes)
            * _float_col([ce.gb.energy_pj_per_byte for ce in energies_models])
        ) * 1e-9

        dram_mj = (
            ((d.dread + d.dwrite) * 8)
            * _float_col(
                [ce.dram.energy_pj_per_bit for ce in energies_models]
            )
        ) * 1e-9

        eo_rows, oe_rows, heat_rows, laser_rows, elec_rows = [], [], [], [], []
        for jj, sim in enumerate(sims):
            lowerer = _NETWORK_LOWERERS[type(sim.network_energy)]
            eo, oe, heat, laser, elec = lowerer(
                sim.network_energy, _RowView(d, jj), exec_s[jj]
            )
            eo_rows.append(eo)
            oe_rows.append(oe)
            heat_rows.append(heat)
            laser_rows.append(laser)
            elec_rows.append(elec)
        eo_mj = np.vstack(eo_rows)
        oe_mj = np.vstack(oe_rows)
        heating_mj = np.vstack(heat_rows)
        laser_mj = np.vstack(laser_rows)
        electrical_mj = np.vstack(elec_rows)

        # delivered stays exact at any int64 magnitude (sums cannot wrap
        # below 3 * 2**53) and only ever feeds further integer arithmetic.
        delivered = d.cw + d.ci + d.out
        packet = [sim.packet_latency_s() for sim in sims]
        energies = (
            mac_mj, pe_buffer_mj, gb_mj, dram_mj,
            eo_mj, oe_mj, heating_mj, laser_mj, electrical_mj,
        )
        dirty = _audit_grid(
            specs, packet, d, comm, exec_s, energies,
            split_gb, gb_ingress_col, dram_col,
        )

    store = LaneStore(
        n, d, accel=[spec.name for spec in specs], packet=packet,
        dataflow=specs[0].dataflow, comp=comp, comm=comm, exposed=exposed,
        delivered=delivered, mac=mac_mj, pe=pe_buffer_mj, gb=gb_mj,
        dram=dram_mj, eo=eo_mj, oe=oe_mj, heat=heating_mj, laser=laser_mj,
        elec=electrical_mj,
    )

    lanes = 0
    for jj, sim in enumerate(sims):
        row_dirty = bool(dirty[jj].any())
        if sim.strict and row_dirty:
            # The scalar loop reproduces the exact raise and its side
            # effects.
            reasons[kept[jj]] = STRICT_BAILOUT
            continue
        rows[kept[jj]] = store.lanes(
            jj, layers, sim.spec, dirty[jj].tolist() if row_dirty else None
        )
        lanes += n
    return GridOutcome(rows, reasons, lanes, n, keys)


def _audit_grid(
    specs, packet, d, comm, exec_s, energies,
    split_gb, gb_ingress_col, dram_col,
):
    """Array form of ``audit_layer_result(result, spec)``: (m, n)
    dirty mask.

    Check-for-check mirror of :mod:`repro.core.invariants` at
    ``DEFAULT_REL_TOL``; a lane is dirty iff the scalar audit would
    report at least one violation.  Checks that cannot fire on
    kernel-built lanes are not evaluated: comp is ``cycles *
    cycle_time_s`` with positive finite factors (so INV-OPS-TIME
    compares a value with itself), exposed is ``max(0, comm - comp)``
    by construction, every byte column is a product of non-negative
    integers, and chiplets/PEs-active are clamped to the spec.  What
    remains is every check whose verdict depends on spec parameters
    the constructor does not validate or on mapper allocation bugs
    this audit exists to catch.
    """
    rel_tol = DEFAULT_REL_TOL
    slack = 1.0 + rel_tol

    dirty = ~(comm >= 0)  # negative or NaN (a negative tuning delay)
    for j, latency in enumerate(packet):
        if math.isnan(latency) or latency < 0:
            dirty[j, :] = True

    # energy: a negative or NaN component (negative/NaN energy-model
    # coefficients, 0 * inf on a stalled layer), then the sum identity.
    # EnergyBreakdown.total_mj associates (((mac+pe)+gb)+dram) +
    # ((((eo+oe)+heat)+laser)+elec); the audit's expectation is the
    # flat left fold.  Mirror both and compare like _close does.  A
    # NaN total implies a NaN (or +/-inf pair) among the components,
    # which the sign check already marked dirty.
    mac, pe, gb, dram, eo, oe, heat, laser, elec = energies
    for arr in energies:
        dirty |= ~(arr >= 0)
    observed_total = (((mac + pe) + gb) + dram) + (
        (((eo + oe) + heat) + laser) + elec
    )
    expected_total = mac + pe + gb + dram + eo + oe + heat + laser + elec
    dirty |= ~np.isnan(expected_total) & ~_close_lanes(
        observed_total, expected_total, rel_tol
    )

    # op conservation.  capacity = cycles * peak legitimately crosses
    # 2**53, where the scalar compares the exact integer against
    # fl(capacity * slack) in one rounding but float math would take
    # two.  Screen in float with a 1e-9 relative margin (conversion
    # error is ~1e-16), then re-judge the rare near-bound lanes with
    # exact Python integers -- the scalar expression itself.
    peaks = [spec.peak_macs_per_cycle for spec in specs]
    peak_col = _float_col([float(peak) for peak in peaks])
    capacity_f = d.cycles.astype(np.float64) * peak_col
    macs_f = d.macs.astype(np.float64)
    near = macs_f > capacity_f * (slack * (1.0 - 1e-9))
    if bool(near.any()):
        for j, i in np.argwhere(near).tolist():
            if int(d.macs[i]) > int(d.cycles[j, i]) * peaks[j] * slack:
                dirty[j, i] = True

    # communication lower bounds
    if split_gb:
        gb_floor = np.maximum(
            _link_seconds(
                d.gw, _float_col([s.gb_weight_egress_gbps for s in specs])
            ),
            _link_seconds(
                d.gi, _float_col([s.gb_ifmap_egress_gbps for s in specs])
            ),
        )
    else:
        gb_floor = _link_seconds(
            d.gb_send, _float_col([s.gb_egress_gbps for s in specs])
        )
    dirty |= comm < gb_floor * (1.0 - rel_tol)
    dirty |= comm < _link_seconds(d.out, gb_ingress_col) * (1.0 - rel_tol)
    dirty |= comm < _link_seconds(
        d.dread + d.dwrite, dram_col
    ) * (1.0 - rel_tol)

    # roofline
    valid = np.isfinite(exec_s) & (exec_s > 0)
    achieved = d.macs / np.where(valid, exec_s, 1.0)
    peak_macs_col = _float_col([
        spec.peak_macs_per_cycle * spec.frequency_ghz * 1e9 for spec in specs
    ])
    dirty |= valid & (achieved > peak_macs_col * slack)
    return dirty


# ----------------------------------------------------------------------
# Grid-batched lower bounds (roofline / DSE pruning)
# ----------------------------------------------------------------------
def bounds_grid(
    specs: "Sequence[AcceleratorSpec]",
    layers: "Sequence[ConvLayer]",
    *,
    energies=None,
    layer_by_layer: bool = False,
) -> tuple[list, list]:
    """Batched lower bounds over a (machines x layers) grid.

    Returns ``(rows, reasons)``.  ``rows[j]`` is aligned with
    ``layers`` and holds ``roofline.time_lower_bound`` floats when
    ``energies`` is ``None``, else ``(time_floor_s, energy_floor_mj)``
    tuples of ``dse.bounds.layer_bounds`` (``energies[j]`` is machine
    ``j``'s compute-energy model).  A ``None`` row comes with
    ``reasons[j]`` naming why machine ``j`` must take the scalar
    helpers: a :func:`~.vectorized.bounds_coverage_gap` (no network
    model is needed), the parameter budget, or the exactness screen.

    All specs must share one :func:`family_key` shape (trivially true
    for m = 1); every layer must pass :func:`lane_covered`.  Each floor
    is bit-identical to the scalar derivation: the mapping and traffic
    columns come from the same kernel stages, and every per-spec
    scalar becomes an ``(m, 1)`` column so the elementwise IEEE
    operations are unchanged.
    """
    n = len(layers)
    m = len(specs)
    rows: list = [None] * m
    reasons: list = [
        bounds_coverage_gap(
            spec, None if energies is None else energies[j]
        )
        or _budget_gap(spec)
        for j, spec in enumerate(specs)
    ]
    if n == 0:
        return [[] if r is None else None for r in reasons], reasons
    if all(reason is not None for reason in reasons):
        return rows, reasons

    shared = _shared_lower(layers)
    kept = _screen(specs, shared, reasons)
    if not kept:
        return rows, reasons
    specs = [specs[j] for j in kept]
    d = _grid_lower(specs, shared, layer_by_layer)

    with np.errstate(all="ignore"):
        # --- time floor (mirror of roofline.mapped_time_floor_s)
        comp_floor = d.cycles * _float_col(
            [spec.cycle_time_s for spec in specs]
        )
        if specs[0].gb_weight_egress_gbps and specs[0].gb_ifmap_egress_gbps:
            gb_floor = np.maximum(
                _link_seconds(
                    d.gw, _floor_col([s.gb_weight_egress_gbps for s in specs])
                ),
                _link_seconds(
                    d.gi, _floor_col([s.gb_ifmap_egress_gbps for s in specs])
                ),
            )
        else:
            gb_floor = _link_seconds(
                d.gb_send, _floor_col([s.gb_egress_gbps for s in specs])
            )
        ingress_floor = _link_seconds(
            d.out, _floor_col([s.gb_ingress_gbps for s in specs])
        )
        dram_floor = _link_seconds(
            d.dread + d.dwrite,
            _floor_col([s.dram_bandwidth_gbps for s in specs]),
        )
        floor = np.maximum(comp_floor, gb_floor)
        floor = np.maximum(floor, ingress_floor)
        floor = np.maximum(floor, dram_floor)
        floors_l = floor.tolist()
        if energies is None:
            for jj, j in enumerate(kept):
                rows[j] = floors_l[jj]
            return rows, reasons

        # --- energy floor: MAC + GB + DRAM energy (no simulation)
        models = [energies[j] for j in kept]
        pes_active = d.ch_active * d.pe_active_per_chiplet
        active_pe_cycles = pes_active * d.cycles
        picojoules = (
            d.macs * _float_col([ce.mac.energy_per_mac_pj for ce in models])
            + active_pe_cycles
            * _float_col([ce.mac.leakage_per_pe_cycle_pj for ce in models])
        )
        mac_mj = picojoules * 1e-9
        gb_reads = d.gb_send + d.dwrite
        gb_writes = d.out + d.dread
        gb_mj = (
            (gb_reads + gb_writes)
            * _float_col([ce.gb.energy_pj_per_byte for ce in models])
        ) * 1e-9
        dram_mj = (
            ((d.dread + d.dwrite) * 8)
            * _float_col([ce.dram.energy_pj_per_bit for ce in models])
        ) * 1e-9
        energy_l = ((mac_mj + gb_mj) + dram_mj).tolist()
    for jj, j in enumerate(kept):
        rows[j] = list(zip(floors_l[jj], energy_l[jj]))
    return rows, reasons


def bounds_row(
    spec: "AcceleratorSpec",
    layers: "Sequence[ConvLayer]",
    *,
    compute_energy=None,
    layer_by_layer: bool = False,
) -> list:
    """One machine's floors aligned with ``layers``: an m = 1
    :func:`bounds_grid` over the covered lanes.  Entries are time
    floors, or ``(time, energy)`` pairs when ``compute_energy`` is
    given; ``None`` entries -- sieved lanes, or every lane when the
    machine is declined -- need the scalar helper."""
    out: list = [None] * len(layers)
    vec = [i for i, layer in enumerate(layers) if lane_covered(layer)]
    if vec:
        rows, _ = bounds_grid(
            [spec],
            [layers[i] for i in vec],
            energies=None if compute_energy is None else [compute_energy],
            layer_by_layer=layer_by_layer,
        )
        if rows[0] is not None:
            for i, value in zip(vec, rows[0]):
                out[i] = value
    return out
