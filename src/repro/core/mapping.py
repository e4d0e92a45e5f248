"""Spatial/temporal mapping of a layer onto a chiplet accelerator.

A :class:`Mapping` answers, for one (layer, accelerator, dataflow)
triple, the questions every downstream model needs:

* how many compute *waves* (temporal iterations) are required and how
  many cycles one wave takes (-> computation time);
* how many chiplets / PEs are active (-> utilization, Fig. 13's
  low-utilization FC layers);
* what the *spatial sharing* of each datatype is, i.e. how many
  destinations one broadcast/multicast send can serve (-> traffic and
  energy models);
* how often each datatype must be re-fetched from the GB because the
  PE buffers cannot retain it across waves.

The arithmetic follows the paper's Fig. 9 loop nest for SPACX, the
Simba weight-stationary organisation [13] for ``WEIGHT_STATIONARY``
and the ShiDianNao organisation [36] for ``OUTPUT_STATIONARY_EF``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataflow import DataflowKind
from .layer import ConvLayer

__all__ = ["MappingParameters", "Mapping", "map_layer", "mac_utilization"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class MappingParameters:
    """Hardware facts the mapper needs (a slice of the full spec)."""

    chiplets: int
    pes_per_chiplet: int
    mac_vector_width: int
    pe_buffer_bytes: int
    # SPACX broadcast granularities; for the baselines these default to
    # "whole machine" and only shape the SPACX_OS mapping.
    ef_granularity: int = 0  # chiplets per cross-chiplet broadcast group
    k_granularity: int = 0  # PEs per single-chiplet broadcast group

    def __post_init__(self) -> None:
        if self.chiplets < 1 or self.pes_per_chiplet < 1:
            raise ValueError("need at least one chiplet and one PE")
        if self.mac_vector_width < 1:
            raise ValueError("MAC vector width must be >= 1")
        if self.pe_buffer_bytes < 1:
            raise ValueError("PE buffer must be >= 1 byte")
        ef_g = self.ef_granularity or self.chiplets
        k_g = self.k_granularity or self.pes_per_chiplet
        if self.chiplets % ef_g:
            raise ValueError(
                f"ef granularity {ef_g} must divide chiplet count {self.chiplets}"
            )
        if self.pes_per_chiplet % k_g:
            raise ValueError(
                f"k granularity {k_g} must divide PE count {self.pes_per_chiplet}"
            )

    @property
    def ef_group(self) -> int:
        """Chiplets per cross-chiplet broadcast group."""
        return self.ef_granularity or self.chiplets

    @property
    def k_group(self) -> int:
        """PEs per single-chiplet broadcast group."""
        return self.k_granularity or self.pes_per_chiplet

    @property
    def n_chiplet_groups(self) -> int:
        """Independent cross-chiplet broadcast groups."""
        return self.chiplets // self.ef_group

    @property
    def n_pe_groups(self) -> int:
        """Independent single-chiplet broadcast groups per chiplet."""
        return self.pes_per_chiplet // self.k_group

    @property
    def total_pes(self) -> int:
        """PEs in the whole package."""
        return self.chiplets * self.pes_per_chiplet


@dataclass(frozen=True)
class Mapping:
    """Result of mapping one layer onto one accelerator."""

    layer: ConvLayer
    dataflow: DataflowKind
    # --- compute ---
    compute_cycles: int
    chiplets_active: int
    pes_active_per_chiplet: int
    # --- temporal structure ---
    ef_waves: int
    k_waves: int
    # --- spatial sharing (destinations servable by one send) ---
    weight_sharers: int  # PEs receiving the same weight element together
    ifmap_sharers: int  # PEs receiving the same input feature together
    # --- chiplet-level fan-out: how many chiplet interfaces one GB
    # send physically crosses (1 = the sharers sit on one chiplet) ---
    weight_chiplet_fanout: int
    ifmap_chiplet_fanout: int
    # --- refetch multipliers (GB re-sends due to small PE buffers) ---
    weight_refetch: int
    ifmap_refetch: int
    # --- reduction chunking: how many pieces the c-reduction is cut
    # into so one piece's weight slice fits the PE buffer (psums keep
    # accumulating in place across chunks) ---
    c_chunks: int
    # --- spatial psum reduction fan-in (1 = output stationary) ---
    psum_spatial_fanin: int
    # --- ShiDianNao-style inter-PE forwarding: the chiplet ingests a
    # stream once and PEs propagate it through neighbour links, so a
    # PE receiver only carries its 1/N share [36] ---
    pe_forwarding: bool = False

    @property
    def pes_active(self) -> int:
        """Total concurrently active PEs."""
        return self.chiplets_active * self.pes_active_per_chiplet

    def utilization(self, params: MappingParameters) -> float:
        """Fraction of peak MACs actually used over the layer."""
        return mac_utilization(self.layer.macs, self.compute_cycles, params)


def mac_utilization(
    macs: int, compute_cycles: int, params: MappingParameters
) -> float:
    """Fraction of the peak MACs of ``compute_cycles`` cycles that
    ``macs`` uses; 0.0 for a zero-cycle mapping."""
    peak = compute_cycles * params.total_pes * params.mac_vector_width
    return macs / peak if peak else 0.0


def map_layer(
    layer: ConvLayer, params: MappingParameters, dataflow: DataflowKind
) -> Mapping:
    """Dispatch to the dataflow-specific mapper."""
    if dataflow is DataflowKind.SPACX_OS:
        return _map_spacx(layer, params)
    if dataflow is DataflowKind.WEIGHT_STATIONARY:
        return _map_weight_stationary(layer, params)
    if dataflow is DataflowKind.OUTPUT_STATIONARY_EF:
        return _map_os_ef(layer, params)
    raise ValueError(f"unknown dataflow {dataflow!r}")


# ----------------------------------------------------------------------
# SPACX broadcast-enabled output-stationary dataflow (Fig. 9)
# ----------------------------------------------------------------------
def _map_spacx(layer: ConvLayer, p: MappingParameters) -> Mapping:
    """Map per Fig. 8/9: e/f across chiplets (and PE groups), k across
    PEs (and chiplet groups).

    One cross-chiplet group covers ``ef_group`` chiplets, each holding a
    distinct output position; the ``n_pe_groups`` PE groups of a chiplet
    hold further positions, so ``ef_parallel = ef_group * n_pe_groups``.
    Symmetrically ``k_parallel = k_group * n_chiplet_groups``.
    """
    ef_total = layer.batch * layer.e * layer.f
    ef_parallel = p.ef_group * p.n_pe_groups
    k_parallel = p.k_group * p.n_chiplet_groups

    ef_active = min(ef_total, ef_parallel)
    k_active = min(layer.k, k_parallel)

    # Fig. 9 line 4: ``parallel_for k1`` -- when the ofmap plane is too
    # small to occupy a whole broadcast group (e*f < g_ef, the FC
    # case of Section V), the idle chiplets of each group take further
    # output channels.  They then time-share the group's X carriers
    # (no two of them want the same weights), trading broadcast
    # fan-out for utilization exactly as the paper describes.
    chiplets_per_group_used = min(p.ef_group, ef_active)
    k1_intra = min(
        p.ef_group // chiplets_per_group_used,
        _ceil_div(layer.k, k_parallel),
    )
    k1_intra = max(1, k1_intra)
    k_parallel *= k1_intra

    ef_waves = _ceil_div(ef_total, ef_parallel)
    k_waves = _ceil_div(layer.k, k_parallel)
    k_active = min(layer.k, k_parallel)

    c_per_group = layer.c // layer.groups
    cycles_per_wave = layer.r * layer.s * _ceil_div(
        c_per_group, p.mac_vector_width
    )
    compute_cycles = ef_waves * k_waves * cycles_per_wave

    # Active hardware: positions (and k1 replicas) occupy chiplets of
    # each group; channels occupy PEs of each group.
    chiplets_active = min(
        p.chiplets,
        chiplets_per_group_used
        * k1_intra
        * min(p.n_chiplet_groups, _ceil_div(k_active, p.k_group * k1_intra)),
    )
    pes_active_per_chiplet = min(
        p.pes_per_chiplet,
        min(p.k_group, k_active) * min(p.n_pe_groups, _ceil_div(ef_active, p.ef_group)),
    )

    # One cross-chiplet weight send reaches every chiplet of a group
    # holding a distinct position wanting that weight; chiplets taken
    # by k1 replicas hold different weights and do not share.
    weight_sharers = chiplets_per_group_used
    # One single-chiplet ifmap send reaches every PE of a group holding
    # a distinct output channel consuming that feature.
    ifmap_sharers = min(p.k_group, k_active)

    # Schedule: the execution controller keeps the current weight
    # slice resident while sweeping output positions (k outermost),
    # cutting the c-reduction into chunks whose r*s*c_chunk slice fits
    # half the 4 kB buffer -- psums accumulate in place across chunks,
    # so output-stationarity is preserved.  Weights therefore stream
    # from the GB exactly once; input features are re-broadcast once
    # per (k wave, c chunk) because the PE cannot retain its window
    # across them.
    slice_bytes = layer.r * layer.s * c_per_group
    c_chunks = max(1, _ceil_div(slice_bytes, p.pe_buffer_bytes // 2))
    weight_refetch = 1
    # Each k wave re-consumes the ifmap channels it reduces over; for
    # grouped (depthwise) convolutions a wave only touches its own
    # channel group, so the per-element re-broadcast count shrinks by
    # the group count.  Reduction chunks cover disjoint channel
    # ranges, so chunking never duplicates ifmap traffic.
    ifmap_refetch = max(1, _ceil_div(k_waves, layer.groups))

    return Mapping(
        layer=layer,
        dataflow=DataflowKind.SPACX_OS,
        compute_cycles=compute_cycles,
        chiplets_active=chiplets_active,
        pes_active_per_chiplet=pes_active_per_chiplet,
        ef_waves=ef_waves,
        k_waves=k_waves,
        weight_sharers=max(1, weight_sharers),
        ifmap_sharers=max(1, ifmap_sharers),
        # A cross-chiplet weight broadcast crosses every sharing
        # chiplet's interface; a single-chiplet ifmap broadcast enters
        # exactly one chiplet.
        weight_chiplet_fanout=max(1, weight_sharers),
        ifmap_chiplet_fanout=1,
        weight_refetch=weight_refetch,
        ifmap_refetch=ifmap_refetch,
        c_chunks=c_chunks,
        psum_spatial_fanin=1,
    )


# ----------------------------------------------------------------------
# Simba-style weight-stationary dataflow [13]
# ----------------------------------------------------------------------
def _map_weight_stationary(layer: ConvLayer, p: MappingParameters) -> Mapping:
    """k across chiplets; c, then k, then e/f across the PEs of a
    chiplet (Simba's PE array tiles all three [13]).

    Weights are resident; every chiplet needs the whole ifmap (its PEs
    jointly cover all input channels) and partial sums from the
    c-parallel PEs are spatially reduced.
    """
    c_per_group = layer.c // layer.groups
    chiplets_active = min(p.chiplets, layer.k)
    k_per_chiplet = _ceil_div(layer.k, chiplets_active)

    # PE allocation inside a chiplet: the channel reduction first
    # (each PE reduces a V-wide slice per cycle), leftover PEs then
    # replicate across output channels, and finally across positions.
    c_slices = _ceil_div(c_per_group, p.mac_vector_width)
    pes_for_c = min(p.pes_per_chiplet, c_slices)
    pes_for_k = min(p.pes_per_chiplet // pes_for_c, k_per_chiplet)
    ef_total = layer.batch * layer.e * layer.f
    pes_for_ef = min(
        max(1, p.pes_per_chiplet // (pes_for_c * pes_for_k)), ef_total
    )
    pes_active_per_chiplet = pes_for_c * pes_for_k * pes_for_ef
    c_slices_per_pe = _ceil_div(c_slices, pes_for_c)

    # Temporal: each chiplet walks its remaining k channels and the
    # positions its PE array does not cover spatially.
    compute_cycles = (
        _ceil_div(k_per_chiplet, pes_for_k)
        * _ceil_div(ef_total, pes_for_ef)
        * layer.r
        * layer.s
        * c_slices_per_pe
    )

    # Weight residency: if a chiplet's stationary slice overflows its
    # PEs' buffers the weights are re-streamed proportionally.
    weight_bytes_per_pe = _ceil_div(
        k_per_chiplet * layer.r * layer.s * c_per_group,
        pes_active_per_chiplet,
    )
    weight_refetch = 1 if weight_bytes_per_pe <= p.pe_buffer_bytes else _ceil_div(
        weight_bytes_per_pe, p.pe_buffer_bytes
    )
    # Ifmap residency: a PE's channel slice of the full ifmap.
    ifmap_bytes_per_pe = layer.h * layer.w * _ceil_div(layer.c, pes_for_c)
    ifmap_refetch = (
        1
        if ifmap_bytes_per_pe <= p.pe_buffer_bytes
        else _ceil_div(k_per_chiplet, pes_for_k)
    )

    return Mapping(
        layer=layer,
        dataflow=DataflowKind.WEIGHT_STATIONARY,
        compute_cycles=compute_cycles,
        chiplets_active=chiplets_active,
        pes_active_per_chiplet=pes_active_per_chiplet,
        ef_waves=_ceil_div(ef_total, pes_for_ef),
        k_waves=_ceil_div(k_per_chiplet, pes_for_k),
        # Weights go to exactly one PE each: no spatial sharing.
        weight_sharers=1,
        # An ifmap element is wanted by every active chiplet (each works
        # on different k) -- the broadcast Simba must emulate by unicast.
        ifmap_sharers=chiplets_active,
        weight_chiplet_fanout=1,
        ifmap_chiplet_fanout=chiplets_active,
        weight_refetch=weight_refetch,
        ifmap_refetch=ifmap_refetch,
        c_chunks=1,
        psum_spatial_fanin=pes_for_c,
    )


# ----------------------------------------------------------------------
# ShiDianNao-style output-stationary e/f dataflow [36]
# ----------------------------------------------------------------------
def _map_os_ef(layer: ConvLayer, p: MappingParameters) -> Mapping:
    """e/f across every PE in the package, k temporal.

    Each PE owns output positions; all PEs work on the same output
    channel at the same time, so a weight is shared machine-wide but an
    input feature is private to (a few) PEs.
    """
    ef_total = layer.batch * layer.e * layer.f
    total_pes = p.total_pes
    ef_active = min(ef_total, total_pes)
    ef_waves = _ceil_div(ef_total, total_pes)

    # When positions cannot fill the machine, idle PEs replicate the
    # array across output channels (ShiDianNao processes multiple
    # kernels concurrently when the map is small).
    k_spread = max(1, min(layer.k, total_pes // ef_active))
    k_waves = _ceil_div(layer.k, k_spread)

    pes_used = min(total_pes, ef_active * k_spread)
    chiplets_active = min(p.chiplets, _ceil_div(pes_used, p.pes_per_chiplet))
    pes_active_per_chiplet = min(p.pes_per_chiplet, pes_used)

    c_per_group = layer.c // layer.groups
    cycles_per_wave = layer.r * layer.s * _ceil_div(c_per_group, p.mac_vector_width)
    compute_cycles = ef_waves * k_waves * cycles_per_wave

    # A weight element is consumed simultaneously by every active PE.
    weight_sharers = max(1, ef_active)
    # Input features are only shared through receptive-field overlap,
    # which this dataflow does not exploit spatially.
    ifmap_sharers = 1

    # The c-reduction is chunked like SPACX's so a slice fits the
    # buffer; psums accumulate in place.
    slice_bytes = layer.r * layer.s * c_per_group
    c_chunks = max(1, _ceil_div(slice_bytes, p.pe_buffer_bytes // 2))
    # k is temporal: each weight slice is consumed by one system-wide
    # wave and must be re-streamed for every e/f wave.
    weight_refetch = ef_waves
    # A PE's window is streamed once per position and held across the
    # temporal k sweep (reduction chunks cover disjoint channels, so
    # chunking does not duplicate the stream).
    ifmap_refetch = 1

    return Mapping(
        layer=layer,
        dataflow=DataflowKind.OUTPUT_STATIONARY_EF,
        compute_cycles=compute_cycles,
        chiplets_active=chiplets_active,
        pes_active_per_chiplet=pes_active_per_chiplet,
        ef_waves=ef_waves,
        k_waves=k_waves,
        weight_sharers=weight_sharers,
        ifmap_sharers=ifmap_sharers,
        # A machine-wide weight broadcast crosses every active chiplet;
        # per-PE ifmap windows enter exactly one chiplet each.
        weight_chiplet_fanout=chiplets_active,
        ifmap_chiplet_fanout=1,
        weight_refetch=weight_refetch,
        ifmap_refetch=ifmap_refetch,
        c_chunks=c_chunks,
        psum_spatial_fanin=1,
        # ShiDianNao propagates operands between neighbouring PEs, so
        # each PE receiver carries only its share of the stream.
        pe_forwarding=True,
    )
