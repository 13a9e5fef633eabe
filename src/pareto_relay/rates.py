"""Transmission-rate matrices on a discretized grid and their feasibility checks.

A rate matrix assigns every relay and every source a per-slot transmission
rate in [0, 1]; destinations never transmit. Feasibility is two checks per
relay: flow conservation (a relay cannot send more than it receives) and
half duplex (reception plus own transmission cannot exceed one slot).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb, isfinite
from typing import Iterator

import numpy as np

from .errors import FlowConservationError, GridError, HalfDuplexError, InfeasibleError, SchemaError
from .topology import NetworkSpec, read_object, require_rows, zero_based

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
    ``relay_ids`` and ``source_ids`` order, whose 0-based rows are
    ``relay_rows`` and ``source_rows``. ``rate`` and ``row`` take 1-based
    node ids and slots, matching the documents. ``active_coords`` holds the
    0-based (rows, columns) of every positive rate, sorted by node then
    slot; ``relay_coords`` holds those of the relays. The model indexes
    ``rates`` with them directly: ``relay_coords`` orders Q's rows and
    columns and the forwarding constraints.
    """

    def __init__(self, spec: NetworkSpec, relay_rates, source_rates):
        self.relay_ids = spec.relay_ids
        self.source_ids = spec.source_ids
        self.slot_count = spec.slot_count
        self.relay_rows = spec.relay_rows
        self.source_rows = spec.source_rows
        blocks = []
        for name, rows, given in (
            ("relay", self.relay_rows, relay_rates),
            ("source", self.source_rows, source_rates),
        ):
            given = np.asarray(given, dtype=float)
            # An empty row list carries no slot count: a network without
            # relays writes "tau": [].
            if given.size == 0 == len(rows):
                continue
            blocks.append((rows, _shaped(name, given, len(rows), self.slot_count)))
        # Allocated only once the shapes hold, so a slot count no input
        # matches is refused before it sizes an array.
        rates = np.zeros((spec.n_nodes, self.slot_count))
        for rows, given in blocks:
            rates[rows] = given
        if not in_unit_interval(rates):
            raise SchemaError("relay and source rates must lie in [0, 1]")
        rates.setflags(write=False)
        self.rates = rates

    @cached_property
    def active_coords(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.rates > 0.0)

    @cached_property
    def relay_coords(self) -> tuple[np.ndarray, np.ndarray]:
        positive = self.rates > 0.0
        positive[self.source_rows] = False  # destination rows are 0 already
        return np.nonzero(positive)

    @classmethod
    def for_network(cls, spec: NetworkSpec, relay_rates, source_rates) -> "RateMatrix":
        return cls(spec, relay_rates, source_rates)

    @property
    def relay_rates(self) -> np.ndarray:
        return self.rates[self.relay_rows]

    @property
    def source_rates(self) -> np.ndarray:
        return self.rates[self.source_rows]

    def rate(self, node_id: int, slot: int) -> float:
        """Rate of node ``node_id`` in 1-based ``slot``; 0 for destinations."""
        return float(self.rates[zero_based(self.rates.shape, node=node_id, slot=slot)])

    def row(self, node_id: int) -> np.ndarray:
        return self.rates[zero_based(self.rates.shape, node=node_id)]

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
        tau, sources = (
            require_rows(document, k, "rate document") for k in ("tau", "sources")
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


def in_unit_interval(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` lies in [0, 1]; NaN does not."""
    return a.size == 0 or bool(0.0 <= a.min() <= a.max() <= 1.0)


@dataclass(frozen=True)
class ActiveSet:
    """All 1-based (node, slot) pairs with a positive transmission rate."""

    transmissions: frozenset[tuple[int, int]]


def active_set(tau: RateMatrix) -> ActiveSet:
    """The active set of ``tau``, read from ``tau.active_coords``."""
    rows, slots = tau.active_coords
    return ActiveSet(frozenset(zip((rows + 1).tolist(), (slots + 1).tolist())))


def incoming_rates(tau: RateMatrix, channel) -> np.ndarray:
    """Average symbol arrival rate at every node, per slot: row ``j - 1``
    holds sum_i tau_i^u * p_ij^u over all transmitters i != j."""
    # The channel's diagonal is 0, and idle or destination rows add +0.0;
    # the sum runs over the senders in id order.
    return (tau.rates[:, None, :] * channel.probs).sum(axis=0)


@dataclass(frozen=True)
class GateReport:
    """Verdicts of one feasibility gate: ``entries`` maps each checked node,
    or (node, slot) pair, to its figures with the verdict last. A failed gate
    raises ``error`` with ``message`` formatted on the sorted failing keys."""

    entries: dict
    error: type[InfeasibleError]
    message: str

    @property
    def all_ok(self) -> bool:
        return all(entry[-1] for entry in self.entries.values())

    def failures(self) -> list:
        return sorted(k for k, entry in self.entries.items() if not entry[-1])

    def raise_if_failed(self) -> None:
        if not self.all_ok:
            raise self.error(self.message.format(self.failures()))


def check_flow_conservation(
    tau: RateMatrix, channel, tol: float = DEFAULT_TOLERANCE
) -> GateReport:
    """Flow conservation per relay. Sources originate traffic and are exempt;
    destinations never transmit."""
    outflow = tau.relay_rates.sum(axis=1).tolist()
    inflow = incoming_rates(tau, channel)[tau.relay_rows].sum(axis=1).tolist()
    entries = {  # relay -> (out, in, ok)
        j: (out, inn, out <= inn + tol)
        for j, out, inn in zip(tau.relay_ids, outflow, inflow)
    }
    return GateReport(
        entries, FlowConservationError,
        "flow conservation fails: relays {} transmit more than they receive",
    )


def check_half_duplex(
    tau: RateMatrix, channel, tol: float = DEFAULT_TOLERANCE
) -> GateReport:
    """Half duplex per relay and slot: r_j^u * (1 - tau_j^u) + tau_j^u <= 1.

    With several feeders in one slot the incoming rate can exceed 1 and the
    constraint genuinely fails; failures are reported, never assumed away.
    """
    rows = tau.relay_rates
    lhs = incoming_rates(tau, channel)[tau.relay_rows] * (1.0 - rows) + rows
    entries = {  # (relay, slot) -> (lhs, ok)
        (j, u + 1): (x, x <= 1.0 + tol)
        for j, row in zip(tau.relay_ids, lhs.tolist())
        for u, x in enumerate(row)
    }
    return GateReport(
        entries, HalfDuplexError, "half-duplex constraint fails at (node, slot) {}"
    )


def _shaped(name: str, given, n_rows: int, slot_count: int) -> np.ndarray:
    """``given`` as a float array; raises unless it is ``(n_rows, slot_count)``."""
    given = np.asarray(given, dtype=float)
    if given.shape != (n_rows, slot_count):
        raise SchemaError(
            f"{name} rates must have shape ({n_rows}, {slot_count}), got {given.shape}"
        )
    return given


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
    _check_n_max(spec, n_max)
    relays = spec.relay_ids
    slots = spec.slot_count
    if source_rates is not None:  # a given schedule must match the frame first
        source_rates = _shaped("source", source_rates, len(spec.source_ids), slots)
    _check_rows(grid, slots)
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
    """Closed-form size of the stream from :func:`enumerate_rate_matrices`;
    raises the same :class:`GridError` for an ``n_max`` or a frame it
    rejects."""
    _check_n_max(spec, n_max)
    _check_rows(grid, spec.slot_count)
    n = len(spec.relay_ids)
    nonzero = len(grid) ** spec.slot_count - 1
    return sum(comb(n, k) * nonzero**k for k in range(n_max + 1))


def _check_rows(grid: RateGrid, slots: int) -> None:
    # The enumeration walks all |grid|^slots relay rows, and every rate
    # matrix has ``slots`` columns: refuse a frame where either passes a
    # list's or an array's index limit, before any row or array is built.
    if slots > sys.maxsize:
        raise GridError("frame.slots is more than an array can hold")
    if len(grid) ** min(slots, 64) > sys.maxsize:
        raise GridError(
            f"a {len(grid)}-value rate grid over {slots} slots gives more than "
            f"{sys.maxsize} relay rows to search"
        )


def _check_n_max(spec: NetworkSpec, n_max: int) -> None:
    if n_max > len(spec.relay_ids):
        raise GridError(
            f"n_max={n_max} exceeds the number of relays ({len(spec.relay_ids)})"
        )
    if n_max < 0:
        raise GridError("n_max must be >= 0")
