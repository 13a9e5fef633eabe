"""Transmission-rate matrices on a discretized grid and their feasibility checks.

A rate matrix assigns every relay and every source a per-slot transmission
rate in [0, 1]; destinations never transmit. Feasibility is two checks per
relay: flow conservation (a relay cannot send more than it receives) and
half duplex (reception plus own transmission cannot exceed one slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """Per-node, per-slot transmission rates tau_i^u.

    ``rates`` is one read-only ``(n_nodes, slot_count)`` array: row ``i - 1``
    is node ``i`` and column ``u - 1`` is slot ``u``; destination rows are 0.
    ``relay_rates`` and ``source_rates`` are its relay and source rows, in
    ``relay_ids`` and ``source_ids`` order. Slots are 1-based in the API,
    matching the frame. ``active_coords`` holds the 0-based (rows, columns)
    of every positive rate, sorted by node then slot; ``relay_coords`` holds
    those of the relays, the order of Q's rows and of the forwarding
    constraints.
    """

    def __init__(self, spec: NetworkSpec, relay_rates, source_rates):
        self.relay_ids = spec.relay_ids
        self.source_ids = spec.source_ids
        self.slot_count = spec.slot_count
        self._relay_rows = np.array(self.relay_ids, dtype=int) - 1
        self._source_rows = np.array(self.source_ids, dtype=int) - 1
        rates = np.zeros((spec.n_nodes, self.slot_count))
        for name, rows, given in (
            ("relay", self._relay_rows, relay_rates),
            ("source", self._source_rows, source_rates),
        ):
            given = np.asarray(given, dtype=float)
            if given.shape != (len(rows), self.slot_count):
                raise SchemaError(
                    f"{name} rates must have shape ({len(rows)}, {self.slot_count}),"
                    f" got {given.shape}"
                )
            rates[rows] = given
        if not np.all((rates >= 0.0) & (rates <= 1.0)):
            raise SchemaError("relay and source rates must lie in [0, 1]")
        rates.setflags(write=False)
        self.rates = rates

    @cached_property
    def active_coords(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.rates > 0.0)

    @cached_property
    def relay_coords(self) -> tuple[np.ndarray, np.ndarray]:
        positive = self.rates > 0.0
        positive[self._source_rows] = False  # destination rows are 0 already
        return np.nonzero(positive)

    @cached_property
    def _active(self) -> "ActiveSet":
        pairs = _one_based(self.active_coords)
        by_slot = {
            u: tuple(i for i, w in pairs if w == u) for u in range(1, self.slot_count + 1)
        }
        return ActiveSet(transmissions=frozenset(pairs), by_slot=by_slot)

    @cached_property
    def _relay_index(self) -> tuple[tuple[int, int], ...]:
        return _one_based(self.relay_coords)

    @classmethod
    def for_network(cls, spec: NetworkSpec, relay_rates, source_rates) -> "RateMatrix":
        return cls(spec, relay_rates, source_rates)

    @property
    def relay_rates(self) -> np.ndarray:
        return self.rates[self._relay_rows]

    @property
    def source_rates(self) -> np.ndarray:
        return self.rates[self._source_rows]

    def rate(self, node_id: int, slot: int) -> float:
        """Rate of node ``node_id`` in 1-based ``slot``; 0 for destinations."""
        return float(self.rates[node_id - 1, slot - 1])

    def row(self, node_id: int) -> np.ndarray:
        return self.rates[node_id - 1]

    @property
    def transmitter_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.relay_ids + self.source_ids))

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
            and np.array_equal(self.rates, other.rates)
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


def _one_based(coords) -> tuple[tuple[int, int], ...]:
    rows, slots = coords
    return tuple(zip((rows + 1).tolist(), (slots + 1).tolist()))


def active_set(tau: RateMatrix) -> ActiveSet:
    """The active set of ``tau``, computed once when the matrix is built."""
    return tau._active


def relay_transmission_index(tau: RateMatrix) -> tuple[tuple[int, int], ...]:
    """Active relay transmissions (node, slot), sorted: the rows and columns
    of Q and the order of the forwarding constraints."""
    return tau._relay_index


def incoming_rates(tau: RateMatrix, channel) -> np.ndarray:
    """Average symbol arrival rate at every node, per slot: row ``j - 1``
    holds sum_i tau_i^u * p_ij^u over all transmitters i != j."""
    # The channel's diagonal is 0, and idle or destination rows add +0.0;
    # the sum runs over the senders in id order.
    return (tau.rates[:, None, :] * channel.probs).sum(axis=0)


def incoming_rate(j: int, tau: RateMatrix, channel) -> tuple[np.ndarray, float]:
    """Average symbol arrival rate at node ``j``: per slot and total."""
    per_slot = incoming_rates(tau, channel)[j - 1]
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
    inflow = incoming_rates(tau, channel)
    entries = {}
    for j in tau.relay_ids:
        out = outgoing_rate(j, tau)
        inn = float(inflow[j - 1].sum())
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
    rows = tau.relay_rates
    lhs = incoming_rates(tau, channel)[tau._relay_rows] * (1.0 - rows) + rows
    entries = {
        (j, u + 1): (x, x <= 1.0 + tol)
        for j, row in zip(tau.relay_ids, lhs.tolist())
        for u, x in enumerate(row)
    }
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
