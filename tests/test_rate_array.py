"""The flow algebra on the node-by-slot rate array against the loops it
replaced.

``_LoopRates`` and the ``_*_reference`` functions below are the
entry-by-entry versions: a rate matrix split into a relay block and a source
block behind a node-to-row dict, and builders that read one ``tau.rate`` /
``P.p`` / ``X.x`` scalar at a time. Every output must match them bit for bit,
except the consistency residuals, which the loop summed in set order and
which only a 1e-9 tolerance reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from pareto_relay import (
    ChannelMatrix,
    ForwardingMatrix,
    RateMatrix,
    active_set,
    check_flow_conservation,
    check_half_duplex,
    consistency_residuals,
    default_source_rates,
)
from pareto_relay.forwarding import feeder_terms
from pareto_relay.mc_oracle import _injections
from pareto_relay.pareto import tau_flow_rate
from pareto_relay.rates import incoming_rate, relay_transmission_index
from pareto_relay.steady_state import (
    build_arrival_matrix,
    build_initial_flow,
    build_relaying_matrix,
    destination_slot_index,
)

from conftest import line_spec, make_spec
from test_mc_oracle import multi_fixture


class _LoopRates:
    """The split layout: relay rows in ``relay_ids`` order, source rows in
    ``source_ids`` order, destinations in neither."""

    def __init__(self, spec, relay_rates, source_rates):
        self.relay_ids = spec.relay_ids
        self.source_ids = spec.source_ids
        self.slot_count = spec.slot_count
        self.relay_rates = np.asarray(relay_rates, dtype=float)
        self.source_rates = np.asarray(source_rates, dtype=float)
        self._row_of = {i: ("relay", k) for k, i in enumerate(self.relay_ids)}
        self._row_of.update({i: ("source", k) for k, i in enumerate(self.source_ids)})
        pairs = set()
        for i in self.transmitter_ids:
            row = self.row(i)
            for u in range(self.slot_count):
                if row[u] > 0.0:
                    pairs.add((i, u + 1))
        self.transmissions = frozenset(pairs)
        self.by_slot = {
            u: tuple(sorted(i for (i, v) in pairs if v == u))
            for u in range(1, self.slot_count + 1)
        }
        relays = set(self.relay_ids)
        self.relay_index = tuple(p for p in sorted(pairs) if p[0] in relays)

    def rate(self, node_id, slot):
        loc = self._row_of.get(node_id)
        if loc is None:
            return 0.0
        kind, k = loc
        arr = self.relay_rates if kind == "relay" else self.source_rates
        return float(arr[k, slot - 1])

    def row(self, node_id):
        loc = self._row_of.get(node_id)
        if loc is None:
            return np.zeros(self.slot_count)
        kind, k = loc
        return (self.relay_rates if kind == "relay" else self.source_rates)[k]

    @property
    def transmitter_ids(self):
        return tuple(sorted(self.relay_ids + self.source_ids))


def _incoming_rate_reference(j, tau, channel):
    per_slot = np.zeros(tau.slot_count)
    for i in tau.transmitter_ids:
        if i == j:
            continue
        row = tau.row(i)
        for u in range(tau.slot_count):
            if row[u] > 0.0:
                per_slot[u] += row[u] * channel.p(i, j, u + 1)
    return per_slot, float(per_slot.sum())


def _gates_reference(tau, channel, tol=1e-9):
    flow, duplex = {}, {}
    for j in tau.relay_ids:
        per_slot, inn = _incoming_rate_reference(j, tau, channel)
        out = float(tau.row(j).sum())
        flow[j] = (out, inn, out <= inn + tol)
        row = tau.row(j)
        for u in range(tau.slot_count):
            lhs = per_slot[u] * (1.0 - row[u]) + row[u]
            duplex[(j, u + 1)] = (float(lhs), lhs <= 1.0 + tol)
    return flow, duplex


def _feeder_terms_reference(tau, P, forwarder, out_slot):
    t_out = tau.rate(forwarder, out_slot)
    listen = 1.0 - t_out
    terms = []
    for sender, in_slot in sorted(tau.transmissions):
        if sender == forwarder:
            continue
        coeff = tau.rate(sender, in_slot) * P.p(sender, forwarder, in_slot) * listen
        if coeff > 0.0:
            terms.append((sender, in_slot, coeff))
    return terms


def _residuals_reference(X, tau, P):
    residuals = {}
    for j, v in tau.relay_index:
        t_out = tau.rate(j, v)
        inflow = 0.0
        for i, u in tau.transmissions:
            if i == j:
                continue
            inflow += tau.rate(i, u) * P.p(i, j, u) * (1.0 - t_out) * X.x(i, j, u, v)
        residuals[(j, v)] = inflow - t_out
    return residuals


def _relaying_matrix_reference(X, tau, P):
    index = tau.relay_index
    Q = np.zeros((len(index), len(index)))
    for a, (i, u) in enumerate(index):
        for b, (j, v) in enumerate(index):
            if i == j:
                continue
            Q[a, b] = P.p(i, j, u) * (1.0 - tau.rate(j, v)) * X.x(i, j, u, v)
    return Q


def _arrival_matrix_reference(tau, P, spec):
    index = tau.relay_index
    arrivals = destination_slot_index(spec)
    D = np.zeros((len(index), len(arrivals)))
    for a, (i, u) in enumerate(index):
        for b, (d, w) in enumerate(arrivals):
            if w == u:
                D[a, b] = P.p(i, d, u)
    return D


def _initial_flow_reference(X, tau, P, spec):
    index = tau.relay_index
    arrivals = destination_slot_index(spec)
    F1 = np.zeros((len(spec.source_ids), len(index) + len(arrivals)))
    for s_row, S in enumerate(spec.source_ids):
        for u in range(1, spec.slot_count + 1):
            t_src = tau.source_rates[s_row, u - 1]
            if t_src == 0.0:
                continue
            for b, (j, v) in enumerate(index):
                F1[s_row, b] += (
                    t_src * P.p(S, j, u) * (1.0 - tau.rate(j, v)) * X.x(S, j, u, v)
                )
            for b, (d, w) in enumerate(arrivals):
                if w == u:
                    F1[s_row, len(index) + b] = t_src * P.p(S, d, u)
    return F1


def _injections_reference(tau, X, P, spec):
    out = []
    for s_row, S in enumerate(spec.source_ids):
        for u in range(1, spec.slot_count + 1):
            t_src = float(tau.source_rates[s_row, u - 1])
            if t_src == 0.0:
                continue
            spawn = np.array(
                [
                    P.p(S, j, u) * (1.0 - tau.rate(j, v)) * X.x(S, j, u, v)
                    for (j, v) in tau.relay_index
                ]
            )
            direct = np.array([P.p(S, d, u) for d in spec.destination_ids])
            out.append((t_src, spawn, direct))
    return out


def _tau_flow_rate_reference(tau, P):
    n = P.n_nodes
    transmitters = set(tau.transmitter_ids)
    destinations = [d for d in range(1, n + 1) if d not in transmitters]
    total = 0.0
    for s in tau.source_ids:
        row = tau.row(s)
        for u in range(1, tau.slot_count + 1):
            if row[u - 1] > 0.0:
                total += row[u - 1] * sum(P.p(s, d, u) for d in destinations)
    for j in tau.relay_ids:
        row = tau.row(j)
        for v in range(1, tau.slot_count + 1):
            if row[v - 1] > 0.0:
                total += row[v - 1] * sum(P.p(j, d, v) for d in destinations)
    return total


@dataclass
class Case:
    spec: object
    relay_rates: np.ndarray
    source_rates: np.ndarray
    P: ChannelMatrix
    X: ForwardingMatrix


def _relay_rate_rows(spec, values, n_max):
    """Every relay block with at most ``n_max`` nonzero rows on ``values``."""
    rows = list(itertools.product(values, repeat=spec.slot_count))
    for block in itertools.product(rows, repeat=len(spec.relay_ids)):
        if sum(any(r) for r in block) <= n_max:
            yield np.array(block, dtype=float).reshape(len(spec.relay_ids), -1)


def _random_channel(spec, rng):
    n, slots = spec.n_nodes, spec.slot_count
    probs = rng.random((n, n, slots))
    probs[np.arange(n), np.arange(n)] = 0.0
    return ChannelMatrix(n, slots, probs)


def _random_forwarding(spec, rng):
    n, slots = spec.n_nodes, spec.slot_count
    return ForwardingMatrix(rng.random((n, n, slots, slots)))


def _grid_cases(spec, source_rates, n_max, seed):
    rng = np.random.default_rng(seed)
    for relay_rates in _relay_rate_rows(spec, (0.0, 0.25, 0.5), n_max):
        yield Case(spec, relay_rates, source_rates, _random_channel(spec, rng),
                   _random_forwarding(spec, rng))


def search_interference_cases():
    # The benchmark's 5-node, 3-slot network at grid 0,0.25,0.5, n_max 2.
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0.5),
            (3, "relay", 1, -0.5),
            (4, "relay", 2, 0),
            (5, "destination", 3, 0),
        ],
        slots=3,
    )
    cases = list(_grid_cases(spec, default_source_rates(spec), 2, seed=0))
    assert len(cases) == 2107
    return cases


def inner_destination_cases():
    # Destination 2 sits between the source and the relays, destination 5
    # comes last; the source sends in both slots.
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "destination", 3, 1),
            (3, "relay", 1, 0.5),
            (4, "relay", 1, -0.5),
            (5, "destination", 3, 0),
        ],
        slots=2,
    )
    return list(_grid_cases(spec, np.array([[1.0, 0.5]]), 2, seed=1))


def multi_cases():
    # The two-source, two-destination fixture with its own channel and
    # sampled forwarding, then every relay row on the grid against them.
    spec, tau, P, X, _ = multi_fixture()
    return [
        Case(spec, relay_rates, tau.source_rates, P, X)
        for relay_rates in _relay_rate_rows(spec, (0.0, 0.25, 0.5), 1)
    ]


def nine_slot_cases():
    # Nine slots, one source sending in all of them, one relay transmission:
    # F1's sum over in-slots then runs over a (9, 1, 1) array.
    spec = line_spec(slots=9)
    rng = np.random.default_rng(2)
    cases = []
    for v in range(9):
        relay_rates = np.zeros((1, 9))
        relay_rates[0, v] = 0.25
        cases.append(Case(spec, relay_rates, rng.random((1, 9)),
                          _random_channel(spec, rng), _random_forwarding(spec, rng)))
    return cases


CASES = {
    "search-interference": search_interference_cases,
    "inner-destination": inner_destination_cases,
    "multi-source-multi-destination": multi_cases,
    "nine-slots": nine_slot_cases,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rate_array_matches_split_layout_loops(name):
    for case in CASES[name]():
        spec, P, X = case.spec, case.P, case.X
        tau = RateMatrix.for_network(spec, case.relay_rates, case.source_rates)
        ref = _LoopRates(spec, case.relay_rates, case.source_rates)
        nodes = range(1, spec.n_nodes + 1)

        for i in nodes:
            assert np.array_equal(tau.row(i), ref.row(i))
            for u in range(1, spec.slot_count + 1):
                assert tau.rate(i, u) == ref.rate(i, u)
        assert active_set(tau).transmissions == ref.transmissions
        assert active_set(tau).by_slot == ref.by_slot
        assert relay_transmission_index(tau) == ref.relay_index

        for j in nodes:
            per_slot, total = incoming_rate(j, tau, P)
            want_per_slot, want_total = _incoming_rate_reference(j, ref, P)
            assert np.array_equal(per_slot, want_per_slot)
            assert total == want_total
        flow, duplex = _gates_reference(ref, P)
        assert check_flow_conservation(tau, P).entries == flow
        assert check_half_duplex(tau, P).entries == duplex

        for j, v in ref.relay_index:
            assert feeder_terms(tau, P, j, v) == _feeder_terms_reference(ref, P, j, v)
        got = consistency_residuals(X, tau, P).residuals
        want = _residuals_reference(X, ref, P)
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-15 for k in want)

        assert np.array_equal(
            build_relaying_matrix(X, tau, P), _relaying_matrix_reference(X, ref, P)
        )
        assert np.array_equal(
            build_arrival_matrix(tau, P, spec), _arrival_matrix_reference(ref, P, spec)
        )
        assert np.array_equal(
            build_initial_flow(tau.source_rates, X, tau, P, spec),
            _initial_flow_reference(X, ref, P, spec),
        )
        got = _injections(tau, X, P, spec, relay_transmission_index(tau))
        want = _injections_reference(ref, X, P, spec)
        assert len(got) == len(want)
        for (t, spawn, direct), (t_ref, spawn_ref, direct_ref) in zip(got, want):
            assert t == t_ref
            assert np.array_equal(spawn, spawn_ref)
            assert np.array_equal(direct, direct_ref)
        assert tau_flow_rate(tau, P) == _tau_flow_rate_reference(ref, P)
