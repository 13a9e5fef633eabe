import json
import math

import numpy as np
import pytest

from pareto_relay import NetworkSpec, load_network, serialize_network
from pareto_relay.errors import SchemaError, TopologyError
from pareto_relay.topology import distance, gain_matrix, pathloss_gain

from conftest import DEFAULT_RADIO, make_spec


def _doc(nodes, slots=2, radio=None):
    return {
        "nodes": nodes,
        "radio": {**DEFAULT_RADIO, **(radio or {})},
        "frame": {"slots": slots},
    }


FOUR_NODES = [
    {"id": 1, "role": "source", "x": 0.0, "y": 0.0},
    {"id": 2, "role": "relay", "x": 1.0, "y": 0.0},
    {"id": 3, "role": "relay", "x": 1.0, "y": 1.0},
    {"id": 4, "role": "destination", "x": 2.0, "y": 0.0},
]


def test_load_four_node_network():
    spec = load_network(_doc(FOUR_NODES))
    assert spec.n_nodes == 4
    assert spec.source_ids == (1,)
    assert spec.relay_ids == (2, 3)
    assert spec.destination_ids == (4,)
    assert spec.slot_count == 2
    assert spec.radio.packet_bits == 100


def test_load_accepts_json_text():
    spec = load_network(json.dumps(_doc(FOUR_NODES)))
    assert spec.relay_ids == (2, 3)


def test_zero_destinations_rejected():
    nodes = [n for n in FOUR_NODES if n["role"] != "destination"]
    with pytest.raises(TopologyError):
        load_network(_doc(nodes))


def test_zero_sources_rejected():
    nodes = [dict(n, role="relay") if n["role"] == "source" else n for n in FOUR_NODES]
    with pytest.raises(TopologyError):
        load_network(_doc(nodes))


def test_duplicate_id_rejected():
    nodes = [dict(n) for n in FOUR_NODES]
    nodes[2]["id"] = 3
    nodes[3]["id"] = 3
    with pytest.raises(TopologyError):
        load_network(_doc(nodes))


def test_non_contiguous_ids_rejected():
    nodes = [dict(n) for n in FOUR_NODES]
    nodes[3]["id"] = 9
    with pytest.raises(TopologyError):
        load_network(_doc(nodes))


def test_missing_field_rejected():
    doc = _doc(FOUR_NODES)
    del doc["radio"]["noise_power_w"]
    with pytest.raises(SchemaError):
        load_network(doc)


def test_unknown_role_rejected():
    nodes = [dict(n) for n in FOUR_NODES]
    nodes[1]["role"] = "router"
    with pytest.raises(SchemaError):
        load_network(_doc(nodes))


@pytest.mark.parametrize(
    "field,value",
    [
        ("tx_power_w", 0.0),
        ("noise_power_w", 0.0),
        ("packet_bits", 0),
        ("pathloss_exponent", -1.0),
        ("reference_distance_m", 0.0),
    ],
)
def test_radio_bounds(field, value):
    with pytest.raises((SchemaError, ValueError)):
        load_network(_doc(FOUR_NODES, radio={field: value}))


def test_slots_must_be_positive():
    with pytest.raises((SchemaError, ValueError)):
        load_network(_doc(FOUR_NODES, slots=0))


def test_gain_at_reference_distance_is_reference_gain():
    spec = make_spec([(1, "source", 0, 0), (2, "destination", 1, 0)])
    assert pathloss_gain(spec.node(1), spec.node(2), spec.radio) == pytest.approx(1.0)


def test_gain_inverse_square():
    spec = make_spec([(1, "source", 0, 0), (2, "destination", 2, 0)])
    assert pathloss_gain(spec.node(1), spec.node(2), spec.radio) == pytest.approx(0.25)


def test_gain_clamped_inside_reference_distance():
    spec = make_spec([(1, "source", 0, 0), (2, "destination", 0.5, 0)])
    assert pathloss_gain(spec.node(1), spec.node(2), spec.radio) == pytest.approx(1.0)
    # (d_0 / d)^alpha beyond the float range is clamped too, not an OverflowError
    far = make_spec([(1, "source", 0, 0), (2, "destination", 1, 0)],
                    radio={"reference_distance_m": 1e300})
    assert pathloss_gain(far.node(1), far.node(2), far.radio) == 1.0


def test_coincident_positions_rejected():
    spec = make_spec([(1, "source", 1, 1), (2, "destination", 1, 1)])
    with pytest.raises(TopologyError):
        pathloss_gain(spec.node(1), spec.node(2), spec.radio)


def test_gain_symmetric_and_monotone():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1.3, 0.4),
            (3, "relay", 2.6, -1.0),
            (4, "destination", 4.0, 0.0),
        ]
    )
    g = gain_matrix(spec)
    assert np.allclose(g, g.T)
    assert np.all(np.diag(g) == 0.0)
    # farther pairs never gain more
    pairs = [(1, 2), (1, 3), (1, 4)]
    dists = [distance(spec.node(a), spec.node(b)) for a, b in pairs]
    gains = [g[a - 1, b - 1] for a, b in pairs]
    order = np.argsort(dists)
    assert all(
        gains[order[k]] >= gains[order[k + 1]] - 1e-15 for k in range(len(order) - 1)
    )


def test_serialize_round_trip():
    spec = load_network(_doc(FOUR_NODES, slots=3))
    again = load_network(serialize_network(spec))
    assert again == spec
    assert isinstance(again, NetworkSpec)


def test_distance_euclidean():
    spec = make_spec([(1, "source", 0, 0), (2, "destination", 3, 4)])
    assert distance(spec.node(1), spec.node(2)) == pytest.approx(5.0)


def test_network_without_relays_loads():
    spec = make_spec([(1, "source", 0, 0), (2, "destination", 1, 0)])
    assert spec.relay_ids == ()
    assert math.isclose(gain_matrix(spec)[0, 1], 1.0)
