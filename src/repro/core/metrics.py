"""Result containers for layer- and model-level simulations.

Besides the result dataclasses this module defines the *lane row*: a
:class:`LayerResult` flattened into one tuple of its leaf values, in
:data:`LANE_FIELDS` order.  The array kernel publishes its results as
one column per field (:class:`LaneStore`) and hand out lazy lanes that
build the object graph only when someone reads an attribute; the
serializer and the :class:`ModelResult` folds read lane rows instead,
from the columns of a lazy lane or from the attributes of any other
result, and so never build that graph.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice, repeat
from operator import add, attrgetter, mul

from .invariants import _PREAUDIT_ATTR
from .layer import ConvLayer
from .mapping import Mapping
from .traffic import TrafficSummary

__all__ = [
    "NetworkEnergy",
    "EnergyBreakdown",
    "LayerResult",
    "ModelResult",
    "ENERGY_LEAVES",
    "LANE_FIELDS",
    "LANE_INDEX",
    "LaneStore",
    "ModelTotals",
    "lane_row",
    "rebind_lane",
]


@dataclass(frozen=True)
class NetworkEnergy:
    """Interconnect energy, split the way Fig. 21b splits it (mJ)."""

    eo_mj: float = 0.0  # electrical-to-optical conversions
    oe_mj: float = 0.0  # optical-to-electrical conversions
    heating_mj: float = 0.0  # MRR thermal tuning
    laser_mj: float = 0.0  # laser wall-plug
    electrical_mj: float = 0.0  # metallic links and routers

    @property
    def total_mj(self) -> float:
        """All network energy."""
        return (
            self.eo_mj
            + self.oe_mj
            + self.heating_mj
            + self.laser_mj
            + self.electrical_mj
        )

    def __add__(self, other: "NetworkEnergy") -> "NetworkEnergy":
        return NetworkEnergy(
            eo_mj=self.eo_mj + other.eo_mj,
            oe_mj=self.oe_mj + other.oe_mj,
            heating_mj=self.heating_mj + other.heating_mj,
            laser_mj=self.laser_mj + other.laser_mj,
            electrical_mj=self.electrical_mj + other.electrical_mj,
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Layer energy split into the paper's 'network' and 'other' (mJ)."""

    mac_mj: float
    pe_buffer_mj: float
    gb_mj: float
    dram_mj: float
    network: NetworkEnergy

    @property
    def other_mj(self) -> float:
        """The paper's 'other' bar: MACs plus the memory hierarchy."""
        return self.mac_mj + self.pe_buffer_mj + self.gb_mj + self.dram_mj

    @property
    def network_mj(self) -> float:
        """The paper's 'network' bar."""
        return self.network.total_mj

    @property
    def total_mj(self) -> float:
        """Total layer energy."""
        return self.other_mj + self.network_mj

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            mac_mj=self.mac_mj + other.mac_mj,
            pe_buffer_mj=self.pe_buffer_mj + other.pe_buffer_mj,
            gb_mj=self.gb_mj + other.gb_mj,
            dram_mj=self.dram_mj + other.dram_mj,
            network=self.network + other.network,
        )


@dataclass(frozen=True)
class LayerResult:
    """Simulation outcome for one layer on one accelerator."""

    accelerator: str
    layer: ConvLayer
    mapping: Mapping
    traffic: TrafficSummary
    computation_time_s: float
    communication_time_s: float  # total (overlappable) communication
    exposed_communication_s: float  # the part not hidden by compute
    energy: EnergyBreakdown
    packet_latency_s: float
    delivered_bytes: int

    @property
    def execution_time_s(self) -> float:
        """Computation plus exposed communication (max-overlap)."""
        return self.computation_time_s + self.exposed_communication_s

    @property
    def throughput_gbps(self) -> float:
        """Delivered network bytes per unit of network busy time."""
        if self.communication_time_s <= 0:
            return 0.0
        return self.delivered_bytes * 8 / self.communication_time_s / 1e9


#: A :class:`LayerResult` as one flat *lane row*: every leaf field but
#: the layers, as ``(owner, attribute, kernel column)`` in row order.
#: The owner is the attribute path from the result (``""`` is the
#: result itself).  Each kernel launch publishes one column per entry
#: (:class:`LaneStore`); lazy lanes materialize their objects from it;
#: :func:`lane_row` reads a row from the columns or the attributes.
LANE_FIELDS = (
    # Each owner's fields are contiguous, and the owners whose fields
    # ModelTotals folds lead, so it transposes only that prefix.
    ("", "computation_time_s", "comp"),
    ("", "communication_time_s", "comm"),
    ("", "exposed_communication_s", "exposed"),
    ("", "packet_latency_s", "packet"),
    ("", "delivered_bytes", "delivered"),
    ("", "accelerator", "accel"),
    ("energy", "mac_mj", "mac"),
    ("energy", "pe_buffer_mj", "pe"),
    ("energy", "gb_mj", "gb"),
    ("energy", "dram_mj", "dram"),
    ("energy.network", "eo_mj", "eo"),
    ("energy.network", "oe_mj", "oe"),
    ("energy.network", "heating_mj", "heat"),
    ("energy.network", "laser_mj", "laser"),
    ("energy.network", "electrical_mj", "elec"),
    ("mapping", "dataflow", "dataflow"),
    ("mapping", "compute_cycles", "cycles"),
    ("mapping", "chiplets_active", "ch_active"),
    ("mapping", "pes_active_per_chiplet", "pe_active_per_chiplet"),
    ("mapping", "ef_waves", "ef_waves"),
    ("mapping", "k_waves", "k_waves"),
    ("mapping", "weight_sharers", "w_sharers"),
    ("mapping", "ifmap_sharers", "i_sharers"),
    ("mapping", "weight_chiplet_fanout", "w_fanout"),
    ("mapping", "ifmap_chiplet_fanout", "i_fanout"),
    ("mapping", "weight_refetch", "w_refetch"),
    ("mapping", "ifmap_refetch", "i_refetch"),
    ("mapping", "c_chunks", "c_chunks"),
    ("mapping", "psum_spatial_fanin", "psum_fanin"),
    ("mapping", "pe_forwarding", "pe_forwarding"),
    ("traffic", "gb_weight_send_bytes", "gw"),
    ("traffic", "gb_ifmap_send_bytes", "gi"),
    ("traffic", "pe_weight_receive_bytes", "pw"),
    ("traffic", "pe_ifmap_receive_bytes", "pi"),
    ("traffic", "chiplet_weight_cross_bytes", "cw"),
    ("traffic", "chiplet_ifmap_cross_bytes", "ci"),
    ("traffic", "output_bytes", "out"),
    ("traffic", "psum_bytes", "psum"),
    ("traffic", "dram_read_bytes", "dread"),
    ("traffic", "dram_write_bytes", "dwrite"),
)

#: Row position of every field (attribute names are unique across owners).
LANE_INDEX = {attr: k for k, (_, attr, _) in enumerate(LANE_FIELDS)}


def _owner_parts() -> dict:
    """owner -> (attribute names, row slice), in row order."""
    parts: dict = {}
    for k, (owner, attr, _) in enumerate(LANE_FIELDS):
        names, start = parts.setdefault(owner, ([], k))
        if start + len(names) != k:
            raise ValueError(f"LANE_FIELDS: {owner!r} fields not contiguous")
        names.append(attr)
    return {
        owner: (tuple(names), slice(start, start + len(names)))
        for owner, (names, start) in parts.items()
    }


_PARTS = _owner_parts()
#: Per owner: (getter of the owner object, getter of its row fields).
_PART_GETTERS = tuple(
    (attrgetter(owner) if owner else None, attrgetter(*names))
    for owner, (names, _) in _PARTS.items()
)


def _row_from_attrs(result: LayerResult) -> tuple:
    """A built result's lane row."""
    row = ()
    for owner, fields in _PART_GETTERS:
        row += fields(owner(result) if owner else result)
    return row


_RESULT_NAMES, _RESULT_SPAN = _PARTS[""]
_MAPPING_NAMES, _MAPPING_SPAN = _PARTS["mapping"]
_TRAFFIC_NAMES, _TRAFFIC_SPAN = _PARTS["traffic"]
_ENERGY_NAMES, _ENERGY_SPAN = _PARTS["energy"]
_NETWORK_NAMES, _NETWORK_SPAN = _PARTS["energy.network"]


def _lane_state(row: tuple, layer: ConvLayer) -> dict:
    """The attribute dict of the :class:`LayerResult` a lane row
    describes.  Objects are built through ``object.__new__`` with their
    ``__dict__`` installed wholesale: the values are final, so
    ``__init__`` would only re-run validation the kernels hold by
    construction."""
    new = object.__new__
    set_ = object.__setattr__
    mapping = new(Mapping)
    mapping_state = dict(zip(_MAPPING_NAMES, row[_MAPPING_SPAN]))
    mapping_state["layer"] = layer
    set_(mapping, "__dict__", mapping_state)
    traffic = new(TrafficSummary)
    set_(traffic, "__dict__", dict(zip(_TRAFFIC_NAMES, row[_TRAFFIC_SPAN])))
    network = new(NetworkEnergy)
    set_(network, "__dict__", dict(zip(_NETWORK_NAMES, row[_NETWORK_SPAN])))
    energy = new(EnergyBreakdown)
    energy_state = dict(zip(_ENERGY_NAMES, row[_ENERGY_SPAN]))
    energy_state["network"] = network
    set_(energy, "__dict__", energy_state)
    state = dict(zip(_RESULT_NAMES, row[_RESULT_SPAN]))
    state["layer"] = layer
    state["mapping"] = mapping
    state["traffic"] = traffic
    state["energy"] = energy
    return state


def lane_row(result: LayerResult) -> tuple:
    """One result's lane row: from the kernel columns while the lane is
    lazy (without materializing it), else from its attributes."""
    lane = result.__dict__.get("_lane")
    if lane is None:
        return _row_from_attrs(result)
    store, j, i = lane
    return store.row(j)[i]


_COMP = LANE_INDEX["computation_time_s"]
_COMM = LANE_INDEX["communication_time_s"]
_EXPOSED = LANE_INDEX["exposed_communication_s"]
_PACKET = LANE_INDEX["packet_latency_s"]
_DELIVERED = LANE_INDEX["delivered_bytes"]
#: The energy fields, in ``EnergyBreakdown`` then ``NetworkEnergy``
#: constructor order.
ENERGY_LEAVES = (
    "mac_mj", "pe_buffer_mj", "gb_mj", "dram_mj",
    "eo_mj", "oe_mj", "heating_mj", "laser_mj", "electrical_mj",
)
_ENERGY_COLUMNS = tuple(LANE_INDEX[name] for name in ENERGY_LEAVES)
_N_TOTALS = 1 + max(
    _COMP, _COMM, _EXPOSED, _PACKET, _DELIVERED, *_ENERGY_COLUMNS
)


class ModelTotals:
    """Model-level aggregates as plain float reductions over the lane
    columns of every layer occurrence.

    Each reduction replays the object-level definition it replaces in
    the same order: built-in ``sum()`` where the per-layer values were
    summed, and an explicit left fold from ``0.0`` where
    ``EnergyBreakdown.__add__`` was folded.  (``sum()`` of floats is
    compensated from Python 3.12 on, so it must not stand in for the
    fold.)
    """

    __slots__ = ("cols",)

    def __init__(self, rows):
        # zip(*rows) yields columns in row order, so this transposes
        # only the leading fields the reductions read.
        self.cols = list(islice(zip(*rows), _N_TOTALS)) or [()] * _N_TOTALS

    @property
    def execution_time_s(self) -> float:
        return sum(map(add, self.cols[_COMP], self.cols[_EXPOSED]))

    @property
    def computation_time_s(self) -> float:
        return sum(self.cols[_COMP])

    @property
    def exposed_communication_s(self) -> float:
        return sum(self.cols[_EXPOSED])

    def energy_leaves(self) -> list:
        """The energy fields in :data:`ENERGY_LEAVES` order, each a left
        fold from ``0.0``."""
        return [reduce(add, self.cols[k], 0.0) for k in _ENERGY_COLUMNS]

    @property
    def energy(self) -> EnergyBreakdown:
        mac, pe_buffer, gb, dram, *network = self.energy_leaves()
        return EnergyBreakdown(
            mac, pe_buffer, gb, dram, NetworkEnergy(*network)
        )

    @property
    def mean_packet_latency_s(self) -> float:
        delivered = self.cols[_DELIVERED]
        total_bytes = sum(delivered)
        if not total_bytes:
            return 0.0
        return sum(map(mul, self.cols[_PACKET], delivered)) / total_bytes

    @property
    def throughput_gbps(self) -> float:
        busy = sum(self.cols[_COMM])
        if busy <= 0:
            return 0.0
        return sum(self.cols[_DELIVERED]) * 8 / busy / 1e9


@dataclass
class ModelResult:
    """Accumulated outcome of a full inference pass."""

    accelerator: str
    model: str
    layers: list[LayerResult] = field(default_factory=list)

    def totals(self) -> ModelTotals:
        """The aggregates below, reading each distinct lane once."""
        rows: dict[int, tuple] = {}
        for layer_result in self.layers:
            if id(layer_result) not in rows:
                rows[id(layer_result)] = lane_row(layer_result)
        return ModelTotals([rows[id(r)] for r in self.layers])

    @property
    def execution_time_s(self) -> float:
        """Sum of per-layer execution times."""
        return self.totals().execution_time_s

    @property
    def computation_time_s(self) -> float:
        """Sum of per-layer computation times."""
        return self.totals().computation_time_s

    @property
    def exposed_communication_s(self) -> float:
        """Sum of per-layer exposed communication times."""
        return self.totals().exposed_communication_s

    @property
    def energy(self) -> EnergyBreakdown:
        """Accumulated energy breakdown."""
        return self.totals().energy

    @property
    def mean_packet_latency_s(self) -> float:
        """Byte-weighted mean packet latency across layers."""
        return self.totals().mean_packet_latency_s

    @property
    def throughput_gbps(self) -> float:
        """Aggregate delivered bytes over aggregate network busy time."""
        return self.totals().throughput_gbps


# ----------------------------------------------------------------------
# Columnar lane stores and lazy lanes
# ----------------------------------------------------------------------
def _row_values(col, j: int, n: int):
    """Row ``j`` of one column as ``n`` plain Python values.

    A column is an ``(m, n)`` array, an ``(m, 1)`` array (one value per
    row), an ``(n,)`` array (one value per lane, shared by every row),
    a 0-d array, a list of one value per row, or a single shared value.
    ``tolist()``/``item()`` convert int64 -> int and float64 -> float,
    so every row is JSON- and pickle-compatible with scalar results.
    """
    nd = getattr(col, "ndim", None)
    if nd == 2:
        if col.shape[1] == 1:
            return repeat(col[j, 0].item(), n)
        return col[j].tolist()
    if nd == 1:
        return col.tolist()
    if nd == 0:
        return repeat(col.item(), n)
    if type(col) is list:
        return repeat(col[j], n)
    return repeat(col, n)


class LaneStore:
    """The result columns of one kernel launch over ``m`` machine rows
    by ``n`` lanes, one per :data:`LANE_FIELDS` entry, shared by the
    launch's lazy lanes.

    Thread safety: a row's lane tuples are built in full and then
    published with one ``dict.setdefault``, so concurrent readers see
    either no row or the complete one (two racing builders publish the
    first).  Nothing else in a store changes after construction.
    """

    __slots__ = ("cols", "n", "_rows")

    def __init__(self, n: int, d, **columns):
        """Each field's column is the keyword named by its kernel
        column, else the attribute of that name on ``d`` (the kernel's
        mapping and traffic column bag)."""
        self.cols = [
            columns[col] if col in columns else getattr(d, col)
            for _, _, col in LANE_FIELDS
        ]
        self.n = n
        self._rows: dict = {}

    def row(self, j: int) -> list:
        """Row ``j`` as one lane-row tuple per lane (cached)."""
        rows = self._rows.get(j)
        if rows is None:
            n = self.n
            built = list(zip(*[_row_values(col, j, n) for col in self.cols]))
            rows = self._rows.setdefault(j, built)
        return rows

    def lanes(self, j: int, layers, spec, dirty=None) -> list:
        """Row ``j``'s lazy results, aligned with ``layers``.  Every lane
        whose ``dirty`` entry is false (all, when ``dirty`` is None)
        carries the pre-audit marker for ``spec``."""
        new = object.__new__
        set_ = object.__setattr__
        out = []
        for i, layer in enumerate(layers):
            state = {"_lane": (self, j, i), "layer": layer}
            if dirty is None or not dirty[i]:
                state[_PREAUDIT_ATTR] = spec
            lane = new(_LaneProxy)
            set_(lane, "__dict__", state)
            out.append(lane)
        return out


#: Serializes materialization, so each lazy lane builds its objects
#: exactly once even when threads race to read it.
_MATERIALIZE_LOCK = threading.Lock()


def _restore_lane(state):
    """Unpickle target: a materialized lane is a plain LayerResult."""
    obj = object.__new__(LayerResult)
    object.__setattr__(obj, "__dict__", state)
    return obj


class _LaneProxy(LayerResult):
    """A ``LayerResult`` whose fields materialize on first access.

    Born with only ``{_lane: (store, row, lane), layer}`` (plus the
    pre-audit marker when the lane passed the kernel audit).  Reading
    any other field installs the full scalar-compatible ``__dict__``
    and only then drops the ``_lane`` reference, so a concurrent reader
    finds either the marker or every field.  Identity-based fast paths
    (``result.layer``, the marker's ``__dict__.get``) and
    :func:`lane_row` never materialize.
    """

    __slots__ = ()

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        d = self.__dict__
        if "_lane" in d:
            _materialize(d)
        try:
            return d[name]
        except KeyError:
            raise AttributeError(name) from None

    # The dataclass-generated comparisons insist on an exact class
    # match; a materialized proxy is value-equal to the plain result
    # the scalar path would have built, so compare (and hash) by the
    # same field tuple the dataclass uses.
    def __eq__(self, other):
        if not isinstance(other, LayerResult):
            return NotImplemented
        return tuple(getattr(self, f) for f in _RESULT_FIELDS) == tuple(
            getattr(other, f) for f in _RESULT_FIELDS
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in _RESULT_FIELDS))

    def __reduce__(self):
        d = self.__dict__
        if "_lane" in d:
            _materialize(d)
        return (_restore_lane, (dict(d),))


_RESULT_FIELDS = tuple(LayerResult.__dataclass_fields__)


def _materialize(d: dict) -> None:
    with _MATERIALIZE_LOCK:
        lane = d.get("_lane")
        if lane is None:
            return
        store, j, i = lane
        d.update(_lane_state(store.row(j)[i], d["layer"]))
        del d["_lane"]


def rebind_lane(result: LayerResult, layer: ConvLayer) -> "LayerResult | None":
    """A lazy lane's twin bound to ``layer``: same store lane, same
    pre-audit marker.  ``None`` when ``result`` is not a lazy lane (use
    a generic rebind)."""
    d = result.__dict__
    lane = d.get("_lane")
    if lane is None:
        return None
    state = {"_lane": lane, "layer": layer}
    spec = d.get(_PREAUDIT_ATTR)
    if spec is not None:
        state[_PREAUDIT_ATTR] = spec
    clone = object.__new__(_LaneProxy)
    object.__setattr__(clone, "__dict__", state)
    return clone
