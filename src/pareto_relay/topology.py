"""Static network description: nodes, roles, geometry, radio constants and
the number of slots in the repeated frame.

The network is an implicitly complete graph: every ordered pair of nodes is
a potential link. Sources and destinations never relay; that is enforced by
role, not by convention. Node ids and slots are 1-based, as in the
documents; the arrays built on a spec index node ``i`` and slot ``u`` at
``i - 1`` and ``u - 1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import SchemaError, TopologyError


class Role(str, Enum):
    SOURCE = "source"
    RELAY = "relay"
    DESTINATION = "destination"


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
        # Gains are clamped at reference_gain, so this product bounds every
        # received power; past the float range a link's SINR would be inf/inf.
        if not math.isfinite(float(self.tx_power) * self.reference_gain):
            raise SchemaError("tx_power_w * reference_gain must be finite")


@dataclass(frozen=True)
class NetworkSpec:
    """Validated network: node list, radio constants and the number of
    slots in the repeated frame, numbered 1..slot_count."""

    nodes: tuple[NodeSpec, ...]
    radio: RadioSpec
    slot_count: int

    def __post_init__(self):
        if int(self.slot_count) != self.slot_count or self.slot_count < 1:
            raise SchemaError("frame.slots must be an integer >= 1")
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

    def node(self, node_id: int) -> NodeSpec:
        (k,) = zero_based((self.n_nodes,), node=node_id)
        return self.nodes[k] if self.nodes[k].id == node_id else (
            next(n for n in self.nodes if n.id == node_id)
        )

    @cached_property
    def _gains(self) -> np.ndarray:
        # Computed on first use, so a coincident-node TopologyError surfaces
        # where the gains are needed; the spec is frozen, so it never goes stale.
        # The distance and the power of (d_0 / d) are symmetric bit for bit,
        # so each unordered pair is computed once, in the order that raises
        # for the same first coincident pair as the ordered loop. The gains
        # go into nested lists by node id and become an array in one call.
        n = self.n_nodes
        g = [[0.0] * n for _ in range(n)]
        for a, i in enumerate(self.nodes):
            for j in self.nodes[a + 1:]:
                g[i.id - 1][j.id - 1] = g[j.id - 1][i.id - 1] = pathloss_gain(i, j, self.radio)
        g = np.array(g)
        # No interferer sum at receiver j exceeds noise plus the power of every
        # transmitter but j; past the float range the SINR would be a wrong 0.
        senders = [k.id - 1 for k in self.nodes if k.role != Role.DESTINATION]
        with np.errstate(over="ignore"):
            worst = self.radio.noise_power + (self.radio.tx_power * g[senders]).sum(axis=0)
        if not np.isfinite(worst).all():
            raise SchemaError(
                f"noise_power_w plus the power of every other transmitter at "
                f"node {int(np.argmin(np.isfinite(worst))) + 1} must be finite"
            )
        g.setflags(write=False)
        return g

    def ids_with_role(self, role: Role) -> tuple[int, ...]:
        return tuple(sorted(n.id for n in self.nodes if n.role == role))

    @cached_property
    def source_ids(self) -> tuple[int, ...]:
        return self.ids_with_role(Role.SOURCE)

    @cached_property
    def relay_ids(self) -> tuple[int, ...]:
        return self.ids_with_role(Role.RELAY)

    @cached_property
    def destination_ids(self) -> tuple[int, ...]:
        return self.ids_with_role(Role.DESTINATION)

    @cached_property
    def relay_rows(self) -> np.ndarray:
        """Read-only 0-based rows of ``relay_ids``."""
        return _rows(self.relay_ids)

    @cached_property
    def source_rows(self) -> np.ndarray:
        """Read-only 0-based rows of ``source_ids``."""
        return _rows(self.source_ids)

    @cached_property
    def destination_rows(self) -> np.ndarray:
        """Read-only 0-based rows of ``destination_ids``."""
        return _rows(self.destination_ids)


def _rows(ids: tuple[int, ...]) -> np.ndarray:
    rows = np.array([i - 1 for i in ids], dtype=int)
    rows.setflags(write=False)
    return rows


def zero_based(shape, **ids: int) -> tuple[int, ...]:
    """The 0-based indices of the 1-based node ids and slots ``ids``, one
    per axis of ``shape`` in order. Raises unless each lies in 1..its axis
    length, where ``id - 1`` would index silently: 0 wraps to the last entry."""
    out = []
    for (what, value), count in zip(ids.items(), shape):
        if not 1 <= value <= count:
            raise ValueError(f"{what} {value} is out of range 1..{count}")
        out.append(value - 1)
    return tuple(out)


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


def _number(value) -> float | None:
    # None unless a JSON number (not a bool); an int too large for a float
    # becomes inf, for the caller's check to reject.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _at(where) -> str:
    # A document part: its name, or (list key, position) of a list entry,
    # named only when a check fails.
    return where if isinstance(where, str) else f"{where[0]}[{where[1]}]"


def require(doc: dict, key: str, kind, where: str | tuple[str, int]):
    """``doc[key]`` checked against ``kind``: ``int`` is a JSON integer (not a
    bool or a float), ``float`` a finite JSON number (not a bool or a string),
    any other type an ``isinstance`` check. ``where`` names ``doc`` in the
    error: a string, or the (list key, position) that ``require_objects``
    yields."""
    if key not in doc:
        raise SchemaError(f"missing key '{key}' in {_at(where)}")
    value = doc[key]
    if kind is float:
        if type(value) is float and math.isfinite(value):
            return value
        number = _number(value)
        if number is None:
            raise SchemaError(f"{_at(where)}.{key} must be a number")
        if not math.isfinite(number):
            raise SchemaError(f"{_at(where)}.{key} must be finite")
        return number
    if kind is int:
        if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
            return value
        raise SchemaError(f"{_at(where)}.{key} must be an integer")
    if not isinstance(value, kind):
        raise SchemaError(f"{_at(where)}.{key} has the wrong type")
    return value


def require_rows(doc: dict, key: str, where: str) -> list[list[float]]:
    """``doc[key]`` as a list of equal-length lists of JSON numbers, converted
    to float; the shape and range are the caller's checks."""
    rows = require(doc, key, list, where)
    if not all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
        raise SchemaError(f"{where}.{key} must be a list of equal-length lists")
    out = [[v if type(v) is float else _number(v) for v in row] for row in rows]
    if any(None in row for row in out):
        raise SchemaError(f"{where}.{key} entry must be a number")
    return out


def require_objects(doc: dict, key: str):
    """Yield ``(where, entry)`` for each entry of the list ``doc[key]``, which
    must be a JSON object; ``where`` is ``(key, position)``."""
    for k, entry in enumerate(require(doc, key, list, "document")):
        if not isinstance(entry, dict):
            raise SchemaError(f"{key}[{k}] must be an object")
        yield (key, k), entry


def sparse_entries(doc: dict, key: str, value: str, bounds: dict[str, int]):
    """Yield ``(*indices, value)`` for every object in the list ``doc[key]``:
    each index named in ``bounds`` must be a JSON integer in 1..bound and is
    yielded 0-based; the value must be a finite number. An index tuple may
    appear only once. Each entry is checked in full, index by index, then
    for a repeat, then its value, before the next is read."""
    seen = set()
    for where, entry in require_objects(doc, key):
        indices = []
        for name, bound in bounds.items():
            index = entry.get(name)
            if type(index) is not int:  # require's checks and messages
                index = require(entry, name, int, where)
            if not 1 <= index <= bound:
                raise SchemaError(f"{_at(where)}.{name} must lie in 1..{bound}, got {index}")
            indices.append(index - 1)
        key = tuple(indices)
        if key in seen:
            named = ", ".join(f"{name}={k + 1}" for name, k in zip(bounds, key))
            raise SchemaError(f"{_at(where)} repeats the entry at {named}")
        seen.add(key)
        x = entry.get(value)
        if type(x) is not float or not math.isfinite(x):
            x = require(entry, value, float, where)
        yield (*key, x)


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
                f"{_at(where)}.role must be one of source/relay/destination, got {role!r}"
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
    slot_count = require(raw_frame, "slots", int, "frame")

    nodes.sort(key=lambda n: n.id)
    return NetworkSpec(nodes=tuple(nodes), radio=radio, slot_count=slot_count)


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
        "frame": {"slots": spec.slot_count},
    }


def pathloss_gain(i: NodeSpec, j: NodeSpec, radio: RadioSpec) -> float:
    """Isotropic pathloss gain a_ij = g_ref * (d_0 / d)^alpha, clamped at g_ref.

    The clamp keeps the gain from exceeding its reference value for links
    shorter than d_0, which would otherwise produce unbounded SINR.
    """
    d = math.dist(i.position, j.position)
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
