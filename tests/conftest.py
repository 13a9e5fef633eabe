"""Shared builders for network fixtures and injected channel matrices."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from pareto_relay import (
    ChannelMatrix,
    NetworkSpec,
    ParetoArchive,
    RateMatrix,
    exhaustive_search,
    load_network,
)

DEFAULT_RADIO = {
    "tx_power_w": 1.0,
    "noise_power_w": 0.1,
    "packet_bits": 100,
    "pathloss_exponent": 2.0,
    "reference_distance_m": 1.0,
    "reference_gain": 1.0,
}


def make_spec(nodes, slots=2, radio=None) -> NetworkSpec:
    """nodes: iterable of (id, role, x, y)."""
    doc = {
        "nodes": [
            {"id": i, "role": role, "x": float(x), "y": float(y)}
            for (i, role, x, y) in nodes
        ],
        "radio": {**DEFAULT_RADIO, **(radio or {})},
        "frame": {"slots": slots},
    }
    return load_network(doc)


def line_spec(slots=2) -> NetworkSpec:
    """Source 1 at the origin, relay 2 at 1 m, destination 3 at 2 m."""
    return make_spec(
        [(1, "source", 0, 0), (2, "relay", 1, 0), (3, "destination", 2, 0)],
        slots=slots,
    )


def injected_channel(n_nodes: int, slots: int, entries: dict) -> ChannelMatrix:
    """Dense channel matrix with prescribed p values; unspecified links are 0.

    entries maps (sender, receiver, slot) -> probability, 1-based.
    """
    probs = np.zeros((n_nodes, n_nodes, slots))
    for (i, j, u), p in entries.items():
        probs[i - 1, j - 1, u - 1] = p
    return ChannelMatrix(n_nodes, slots, probs)


def rate_matrix(spec, relay_rows, source_rows) -> RateMatrix:
    return RateMatrix.for_network(
        spec, relay_rates=np.asarray(relay_rows, float),
        source_rates=np.asarray(source_rows, float),
    )


@pytest.fixture
def three_node():
    return line_spec(slots=2)


def search_recording_candidates(spec, grid, **kwargs):
    """Run ``exhaustive_search`` and return ``(result, candidates)``, where
    ``candidates`` lists every solution the search evaluated, in order, as
    ``ParetoArchive.insert`` received them."""
    candidates = []
    insert = ParetoArchive.insert

    def recording_insert(archive, solution):
        candidates.append(solution)
        return insert(archive, solution)

    with mock.patch.object(ParetoArchive, "insert", recording_insert):
        result = exhaustive_search(spec, grid, **kwargs)
    return result, candidates
