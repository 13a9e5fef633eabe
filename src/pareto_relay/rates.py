"""Transmission-rate matrices on a discretized grid and their feasibility checks.

A rate matrix assigns every relay and every source a per-slot transmission
rate in [0, 1]; destinations never transmit. Feasibility is two checks per
relay: flow conservation (a relay cannot send more than it receives) and
half duplex (reception plus own transmission cannot exceed one slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, isfinite
from typing import Iterator

import numpy as np

from .errors import FlowConservationError, GridError, HalfDuplexError, SchemaError
from .topology import NetworkSpec, read_object, require_rows

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RateGrid:
    """Ordered set of admissible rate values; must start at 0."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = self.values
        if not all(map(isfinite, v)):
            raise GridError("rate grid values must be finite")
        if len(v) < 1 or v[0] != 0.0:
            raise GridError("rate grid must start with 0")
        if any(b <= a for a, b in zip(v, v[1:])):
            raise GridError("rate grid values must be strictly increasing")
        if v[-1] > 1.0 or v[0] < 0.0:
            raise GridError("rate grid values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, x) -> bool:
        return any(x == v for v in self.values)

    @classmethod
    def parse(cls, text: str) -> "RateGrid":
        try:
            vals = tuple(float(t) for t in text.split(","))
        except ValueError as exc:
            raise GridError(f"cannot parse rate grid {text!r}") from exc
        return cls(vals)


class RateMatrix:
    """Per-node, per-slot transmission rates for relays and sources.

    Relay rows are indexed by ``relay_ids`` order, source rows by
    ``source_ids`` order. Slots are 1-based in the API, matching the frame.
    """

    def __init__(self, relay_ids, source_ids, slot_count, relay_rates, source_rates):
        relay_rates = np.asarray(relay_rates, dtype=float)
        source_rates = np.asarray(source_rates, dtype=float)
        if relay_rates.shape != (len(relay_ids), slot_count):
            raise SchemaError(
                f"relay rates must have shape ({len(relay_ids)}, {slot_count}),"
                f" got {relay_rates.shape}"
            )
        if source_rates.shape != (len(source_ids), slot_count):
            raise SchemaError(
                f"source rates must have shape ({len(source_ids)}, {slot_count}),"
                f" got {source_rates.shape}"
            )
        for name, arr in (("relay", relay_rates), ("source", source_rates)):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise SchemaError(f"{name} rates must lie in [0, 1]")
        self.relay_ids = tuple(relay_ids)
        self.source_ids = tuple(source_ids)
        self.slot_count = int(slot_count)
        self.relay_rates = relay_rates
        self.source_rates = source_rates
        self.relay_rates.setflags(write=False)
        self.source_rates.setflags(write=False)
        self._row_of = {i: ("relay", k) for k, i in enumerate(self.relay_ids)}
        self._row_of.update({i: ("source", k) for k, i in enumerate(self.source_ids)})
        self._active = _build_active_set(self)
        relays = set(self.relay_ids)
        self._relay_index = tuple(
            pair for pair in sorted(self._active.transmissions) if pair[0] in relays
        )

    @classmethod
    def for_network(cls, spec: NetworkSpec, relay_rates, source_rates) -> "RateMatrix":
        return cls(spec.relay_ids, spec.source_ids, spec.slot_count, relay_rates, source_rates)

    def rate(self, node_id: int, slot: int) -> float:
        """Rate of node ``node_id`` in 1-based ``slot``; 0 for destinations."""
        loc = self._row_of.get(node_id)
        if loc is None:
            return 0.0
        kind, k = loc
        arr = self.relay_rates if kind == "relay" else self.source_rates
        return float(arr[k, slot - 1])

    def row(self, node_id: int) -> np.ndarray:
        loc = self._row_of.get(node_id)
        if loc is None:
            return np.zeros(self.slot_count)
        kind, k = loc
        return (self.relay_rates if kind == "relay" else self.source_rates)[k]

    @property
    def transmitter_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.relay_ids + self.source_ids))

    def validate_grid(self, grid: RateGrid) -> None:
        """Every relay entry must be a grid member (sources are free inputs)."""
        for k, i in enumerate(self.relay_ids):
            for u in range(self.slot_count):
                if self.relay_rates[k, u] not in grid:
                    raise GridError(
                        f"relay {i} slot {u + 1}: rate {self.relay_rates[k, u]!r}"
                        " is not on the grid"
                    )

    def to_json_dict(self) -> dict:
        return {
            "tau": [[float(x) for x in row] for row in self.relay_rates],
            "sources": [[float(x) for x in row] for row in self.source_rates],
        }

    @classmethod
    def from_json(cls, spec: NetworkSpec, document) -> "RateMatrix":
        document = read_object(document, "rate")
        # An empty row list carries no slot count: a network without relays
        # writes "tau": [].
        tau, sources = (
            require_rows(document, k, "rate document") or np.zeros((0, spec.slot_count))
            for k in ("tau", "sources")
        )
        return cls.for_network(spec, tau, sources)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RateMatrix)
            and self.relay_ids == other.relay_ids
            and self.source_ids == other.source_ids
            and np.array_equal(self.relay_rates, other.relay_rates)
            and np.array_equal(self.source_rates, other.source_rates)
        )

    def __repr__(self) -> str:
        return (
            f"RateMatrix(relays={self.relay_ids}, tau={self.relay_rates.tolist()},"
            f" sources={self.source_rates.tolist()})"
        )


@dataclass(frozen=True)
class ActiveSet:
    """All (node, slot) pairs with a positive transmission rate."""

    transmissions: frozenset[tuple[int, int]]
    by_slot: dict[int, tuple[int, ...]]

    def in_slot(self, slot: int) -> tuple[int, ...]:
        return self.by_slot.get(slot, ())

    def __len__(self) -> int:
        return len(self.transmissions)

    def __contains__(self, pair) -> bool:
        return pair in self.transmissions


def active_set(tau: RateMatrix) -> ActiveSet:
    """The active set of ``tau``, computed once when the matrix is built."""
    return tau._active


def relay_transmission_index(tau: RateMatrix) -> tuple[tuple[int, int], ...]:
    """Active relay transmissions (node, slot), sorted: the rows and columns
    of Q and the order of the forwarding constraints."""
    return tau._relay_index


def _build_active_set(tau: RateMatrix) -> ActiveSet:
    pairs = set()
    for i in tau.transmitter_ids:
        row = tau.row(i)
        for u in range(tau.slot_count):
            if row[u] > 0.0:
                pairs.add((i, u + 1))
    by_slot = {
        u: tuple(sorted(i for (i, v) in pairs if v == u))
        for u in range(1, tau.slot_count + 1)
    }
    return ActiveSet(transmissions=frozenset(pairs), by_slot=by_slot)


def incoming_rate(j: int, tau: RateMatrix, channel) -> tuple[np.ndarray, float]:
    """Average symbol arrival rate at node ``j``: per slot and total.

    The per-slot rate is sum_i tau_i^u * p_ij^u over all transmitters i != j.
    """
    per_slot = np.zeros(tau.slot_count)
    for i in tau.transmitter_ids:
        if i == j:
            continue
        row = tau.row(i)
        for u in range(tau.slot_count):
            if row[u] > 0.0:
                per_slot[u] += row[u] * channel.p(i, j, u + 1)
    return per_slot, float(per_slot.sum())


def outgoing_rate(j: int, tau: RateMatrix) -> float:
    """Total transmission rate of node ``j`` over all slots."""
    return float(tau.row(j).sum())


@dataclass(frozen=True)
class FlowConservationReport:
    """Per-relay verdicts: outgoing rate may not exceed incoming rate."""

    entries: dict[int, tuple[float, float, bool]]  # node -> (out, in, ok)

    @property
    def all_ok(self) -> bool:
        return all(ok for (_, _, ok) in self.entries.values())

    def failures(self) -> list[int]:
        return sorted(i for i, (_, _, ok) in self.entries.items() if not ok)

    def raise_if_failed(self) -> None:
        if not self.all_ok:
            raise FlowConservationError(
                f"flow conservation fails: relays {self.failures()} "
                f"transmit more than they receive"
            )


def check_flow_conservation(
    tau: RateMatrix, channel, tol: float = DEFAULT_TOLERANCE
) -> FlowConservationReport:
    """Flow conservation per relay. Sources originate traffic and are exempt;
    destinations never transmit."""
    entries = {}
    for j in tau.relay_ids:
        out = outgoing_rate(j, tau)
        _, inn = incoming_rate(j, tau, channel)
        entries[j] = (out, inn, out <= inn + tol)
    return FlowConservationReport(entries=entries)


@dataclass(frozen=True)
class HalfDuplexReport:
    """Per (relay, slot) verdicts for the half-duplex constraint."""

    entries: dict[tuple[int, int], tuple[float, bool]]  # (node, slot) -> (lhs, ok)

    @property
    def all_ok(self) -> bool:
        return all(ok for (_, ok) in self.entries.values())

    def failures(self) -> list[tuple[int, int]]:
        return sorted(k for k, (_, ok) in self.entries.items() if not ok)

    def raise_if_failed(self) -> None:
        if not self.all_ok:
            raise HalfDuplexError(
                f"half-duplex constraint fails at (node, slot) {self.failures()}"
            )


def check_half_duplex(
    tau: RateMatrix, channel, tol: float = DEFAULT_TOLERANCE
) -> HalfDuplexReport:
    """Half duplex per relay and slot: r_j^u * (1 - tau_j^u) + tau_j^u <= 1.

    With several feeders in one slot the incoming rate can exceed 1 and the
    constraint genuinely fails; failures are reported, never assumed away.
    """
    entries = {}
    for j in tau.relay_ids:
        per_slot, _ = incoming_rate(j, tau, channel)
        row = tau.row(j)
        for u in range(tau.slot_count):
            lhs = per_slot[u] * (1.0 - row[u]) + row[u]
            entries[(j, u + 1)] = (float(lhs), lhs <= 1.0 + tol)
    return HalfDuplexReport(entries=entries)


def default_source_rates(spec: NetworkSpec) -> np.ndarray:
    """Default source schedule: every source transmits at rate 1 in slot 1."""
    rates = np.zeros((len(spec.source_ids), spec.slot_count))
    if rates.size:
        rates[:, 0] = 1.0
    return rates


def enumerate_rate_matrices(
    grid: RateGrid,
    spec: NetworkSpec,
    n_max: int,
    source_rates: np.ndarray | None = None,
) -> Iterator[RateMatrix]:
    """Yield every relay rate matrix with at most ``n_max`` active relays.

    Entries are drawn from ``grid``; a relay counts as active when any slot
    of its row is positive. Destination rows are structurally zero. The
    stream is deterministic: active-relay count ascending, then relay subset
    order, then row-value product order.
    """
    relays = spec.relay_ids
    if n_max > len(relays):
        raise GridError(f"n_max={n_max} exceeds the number of relays ({len(relays)})")
    if n_max < 0:
        raise GridError("n_max must be >= 0")
    slots = spec.slot_count
    if source_rates is None:
        source_rates = default_source_rates(spec)
    nonzero_rows = [row for row in product(grid.values, repeat=slots) if any(r > 0 for r in row)]
    for k in range(n_max + 1):
        for subset in combinations(range(len(relays)), k):
            for rows in product(nonzero_rows, repeat=k):
                relay_rates = np.zeros((len(relays), slots))
                for pos, row in zip(subset, rows):
                    relay_rates[pos] = row
                yield RateMatrix.for_network(spec, relay_rates, source_rates)


def count_rate_matrices(grid: RateGrid, spec: NetworkSpec, n_max: int) -> int:
    """Closed-form size of the stream from :func:`enumerate_rate_matrices`."""
    n = len(spec.relay_ids)
    nonzero = len(grid) ** spec.slot_count - 1
    return sum(comb(n, k) * nonzero**k for k in range(min(n_max, n) + 1))
