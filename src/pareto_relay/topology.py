"""Static network description: nodes, roles, geometry, radio constants, slot frame.

The network is an implicitly complete graph: every ordered pair of nodes is
a potential link. Sources and destinations never relay; that is enforced by
role, not by convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import SchemaError, TopologyError

ROLE_SOURCE = "source"
ROLE_RELAY = "relay"
ROLE_DESTINATION = "destination"


class Role(str, Enum):
    SOURCE = ROLE_SOURCE
    RELAY = ROLE_RELAY
    DESTINATION = ROLE_DESTINATION


@dataclass(frozen=True)
class NodeSpec:
    """One node: integer id (1-based), role and planar position in meters."""

    id: int
    role: Role
    position: tuple[float, float]


@dataclass(frozen=True)
class RadioSpec:
    """Radio constants shared by all nodes.

    Attributes
    ----------
    tx_power : float
        Transmission power P_T in watts, identical for every node.
    noise_power : float
        Noise power N_0 in watts.
    packet_bits : int
        Number of bits per data packet.
    pathloss_exponent : float
        Isotropic pathloss exponent alpha.
    reference_distance : float
        Distance d_0 in meters at which the gain equals ``reference_gain``.
    reference_gain : float
        Dimensionless gain of a link of length d_0.
    """

    tx_power: float
    noise_power: float
    packet_bits: int
    pathloss_exponent: float = 2.0
    reference_distance: float = 1.0
    reference_gain: float = 1.0

    def __post_init__(self):
        constants = (self.tx_power, self.noise_power, self.packet_bits,
                     self.pathloss_exponent, self.reference_distance, self.reference_gain)
        try:
            finite = all(map(math.isfinite, constants))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise SchemaError("radio constants must be finite")
        if self.tx_power <= 0:
            raise SchemaError("tx_power_w must be > 0")
        if self.noise_power <= 0:
            raise SchemaError("noise_power_w must be > 0")
        if int(self.packet_bits) != self.packet_bits or self.packet_bits < 1:
            raise SchemaError("packet_bits must be an integer >= 1")
        if self.pathloss_exponent < 0:
            raise SchemaError("pathloss_exponent must be >= 0")
        if self.reference_distance <= 0:
            raise SchemaError("reference_distance_m must be > 0")
        if self.reference_gain <= 0:
            raise SchemaError("reference_gain must be > 0")


@dataclass(frozen=True)
class SlotFrame:
    """The repeated frame of time slots; slots are numbered 1..slot_count."""

    slot_count: int

    def __post_init__(self):
        if int(self.slot_count) != self.slot_count or self.slot_count < 1:
            raise SchemaError("frame.slots must be an integer >= 1")


@dataclass(frozen=True)
class NetworkSpec:
    """Validated network: node list, radio constants and slot frame."""

    nodes: tuple[NodeSpec, ...]
    radio: RadioSpec
    frame: SlotFrame

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise TopologyError(f"duplicate node id(s): {dup}")
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise TopologyError("node ids must form a contiguous range starting at 1")
        roles = [n.role for n in self.nodes]
        if Role.SOURCE not in roles:
            raise TopologyError("network needs at least one source node")
        if Role.DESTINATION not in roles:
            raise TopologyError("network needs at least one destination node")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def slot_count(self) -> int:
        return self.frame.slot_count

    def node(self, node_id: int) -> NodeSpec:
        return self.nodes[node_id - 1] if self.nodes[node_id - 1].id == node_id else (
            next(n for n in self.nodes if n.id == node_id)
        )

    @cached_property
    def _gains(self) -> np.ndarray:
        # Computed on first use, so a coincident-node TopologyError surfaces
        # where the gains are needed; the spec is frozen, so it never goes stale.
        n = self.n_nodes
        g = np.zeros((n, n))
        for i in self.nodes:
            for j in self.nodes:
                if i.id != j.id:
                    g[i.id - 1, j.id - 1] = pathloss_gain(i, j, self.radio)
        g.setflags(write=False)
        return g

    def ids_with_role(self, role: Role) -> tuple[int, ...]:
        return tuple(n.id for n in sorted(self.nodes, key=lambda n: n.id) if n.role == role)

    @cached_property
    def source_ids(self) -> tuple[int, ...]:
        return self.ids_with_role(Role.SOURCE)

    @cached_property
    def relay_ids(self) -> tuple[int, ...]:
        return self.ids_with_role(Role.RELAY)

    @cached_property
    def destination_ids(self) -> tuple[int, ...]:
        return self.ids_with_role(Role.DESTINATION)


def read_object(document, name: str) -> dict:
    """The one parser of outside documents: JSON text, bytes or an
    already-parsed value, which must be a JSON object."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:  # also non-UTF-8, too deep
            raise SchemaError(f"{name} document is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError(f"{name} document must be a JSON object")
    return document


def _number(value, where: str) -> float:
    # An int too large for a float becomes inf, for the caller's check to reject.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def require(doc: dict, key: str, kind, where: str):
    """``doc[key]`` checked against ``kind``: ``int`` is a JSON integer (not a
    bool or a float), ``float`` a finite JSON number (not a bool or a string),
    any other type an ``isinstance`` check."""
    if key not in doc:
        raise SchemaError(f"missing key '{key}' in {where}")
    value = doc[key]
    if kind is float:
        value = _number(value, f"{where}.{key}")
        if not math.isfinite(value):
            raise SchemaError(f"{where}.{key} must be finite")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where}.{key} must be an integer")
        return value
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key} has the wrong type")
    return value


def require_rows(doc: dict, key: str, where: str) -> list[list[float]]:
    """``doc[key]`` as a list of equal-length lists of JSON numbers, converted
    to float; the shape and range are the caller's checks."""
    rows = require(doc, key, list, where)
    if not all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
        raise SchemaError(f"{where}.{key} must be a list of equal-length lists")
    return [[_number(v, f"{where}.{key} entry") for v in row] for row in rows]


def require_objects(doc: dict, key: str):
    """Yield ``(where, entry)`` for each entry of the list ``doc[key]``, which
    must be a JSON object."""
    for k, entry in enumerate(require(doc, key, list, "document")):
        if not isinstance(entry, dict):
            raise SchemaError(f"{key}[{k}] must be an object")
        yield f"{key}[{k}]", entry


def sparse_entries(doc: dict, key: str, value: str, bounds: dict[str, int]):
    """Yield ``(*indices, value)`` for every object in the list ``doc[key]``:
    each index named in ``bounds`` must be a JSON integer in 1..bound and is
    yielded 0-based; the value must be a finite number."""
    for where, entry in require_objects(doc, key):
        indices = []
        for name, bound in bounds.items():
            index = require(entry, name, int, where)
            if not 1 <= index <= bound:
                raise SchemaError(f"{where}.{name} must lie in 1..{bound}, got {index}")
            indices.append(index - 1)
        yield (*indices, require(entry, value, float, where))


def load_network(document) -> NetworkSpec:
    """Parse and validate a topology document.

    ``document`` may be JSON text (str or bytes) or an already-parsed
    dict with the top-level keys ``nodes``, ``radio`` and ``frame``.
    """
    document = read_object(document, "topology")
    nodes = []
    for where, entry in require_objects(document, "nodes"):
        node_id = require(entry, "id", int, where)
        role = require(entry, "role", str, where)
        try:
            role = Role(role)
        except ValueError:
            raise SchemaError(
                f"{where}.role must be one of source/relay/destination, got {role!r}"
            ) from None
        x = require(entry, "x", float, where)
        y = require(entry, "y", float, where)
        nodes.append(NodeSpec(id=node_id, role=role, position=(x, y)))

    raw_radio = require(document, "radio", dict, "document")
    radio = RadioSpec(
        tx_power=require(raw_radio, "tx_power_w", float, "radio"),
        noise_power=require(raw_radio, "noise_power_w", float, "radio"),
        packet_bits=require(raw_radio, "packet_bits", int, "radio"),
        pathloss_exponent=require(raw_radio, "pathloss_exponent", float, "radio"),
        reference_distance=require(raw_radio, "reference_distance_m", float, "radio"),
        reference_gain=require(raw_radio, "reference_gain", float, "radio"),
    )

    raw_frame = require(document, "frame", dict, "document")
    frame = SlotFrame(slot_count=require(raw_frame, "slots", int, "frame"))

    nodes.sort(key=lambda n: n.id)
    return NetworkSpec(nodes=tuple(nodes), radio=radio, frame=frame)


def serialize_network(spec: NetworkSpec) -> dict:
    """Inverse of :func:`load_network`: a dict that reloads to an equal spec."""
    return {
        "nodes": [
            {"id": n.id, "role": n.role.value, "x": n.position[0], "y": n.position[1]}
            for n in spec.nodes
        ],
        "radio": {
            "tx_power_w": spec.radio.tx_power,
            "noise_power_w": spec.radio.noise_power,
            "packet_bits": spec.radio.packet_bits,
            "pathloss_exponent": spec.radio.pathloss_exponent,
            "reference_distance_m": spec.radio.reference_distance,
            "reference_gain": spec.radio.reference_gain,
        },
        "frame": {"slots": spec.frame.slot_count},
    }


def distance(i: NodeSpec, j: NodeSpec) -> float:
    return math.dist(i.position, j.position)


def pathloss_gain(i: NodeSpec, j: NodeSpec, radio: RadioSpec) -> float:
    """Isotropic pathloss gain a_ij = g_ref * (d_0 / d)^alpha, clamped at g_ref.

    The clamp keeps the gain from exceeding its reference value for links
    shorter than d_0, which would otherwise produce unbounded SINR.
    """
    d = distance(i, j)
    if d <= 0.0:
        raise TopologyError(f"nodes {i.id} and {j.id} are coincident (distance 0)")
    try:
        gain = radio.reference_gain * (radio.reference_distance / d) ** radio.pathloss_exponent
    except OverflowError:  # (d_0 / d)^alpha > 1 beyond the float range: clamped
        return radio.reference_gain
    return min(gain, radio.reference_gain)


def gain_matrix(spec: NetworkSpec) -> np.ndarray:
    """(n, n) read-only matrix of pairwise gains, computed once per spec;
    the diagonal is 0 and never used."""
    return spec._gains
