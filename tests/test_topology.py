import json
import math

import numpy as np
import pytest

from pareto_relay import (
    NetworkSpec,
    channel_matrix,
    channel_probability_exact,
    channel_probability_sampled,
    load_network,
    serialize_network,
    solve_chain_closed_form,
)
from pareto_relay.errors import SchemaError, TopologyError
from pareto_relay.forwarding import feeder_terms
from pareto_relay.topology import gain_matrix, pathloss_gain

from conftest import DEFAULT_RADIO, line_spec, make_spec, rate_matrix


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
    dists = [math.dist(spec.node(a).position, spec.node(b).position) for a, b in pairs]
    gains = [g[a - 1, b - 1] for a, b in pairs]
    order = np.argsort(dists)
    assert all(
        gains[order[k]] >= gains[order[k + 1]] - 1e-15 for k in range(len(order) - 1)
    )


def _ordered_gains(spec):
    """The gain of every ordered pair, each computed on its own."""
    g = np.zeros((spec.n_nodes, spec.n_nodes))
    for i in spec.nodes:
        for j in spec.nodes:
            if i.id != j.id:
                g[i.id - 1, j.id - 1] = pathloss_gain(i, j, spec.radio)
    return g


@pytest.mark.parametrize("seed", range(6))
def test_gain_matrix_matches_every_ordered_pair(seed):
    # Seeded positions on both sides of d_0, and exponents 2 to 4.
    rng = np.random.default_rng(seed)
    roles = ["source"] + ["relay"] * 7 + ["destination"]
    nodes = [(k + 1, role, *rng.uniform(-3, 3, 2)) for k, role in enumerate(roles)]
    radio = {"pathloss_exponent": float(rng.uniform(2, 4)), "reference_distance_m": 1.5}
    spec = make_spec(nodes, radio=radio)
    assert np.array_equal(gain_matrix(spec), _ordered_gains(spec))
    # (d_0 / d)^alpha beyond the float range stays clamped
    far = make_spec(nodes, radio={"reference_distance_m": 1e300})
    assert np.array_equal(gain_matrix(far), _ordered_gains(far))


@pytest.mark.parametrize(
    "positions",
    [
        # 2 and 3 coincide, and so do 1 and 4: the ordered loop meets (1, 4) first
        [(0, 0), (1, 1), (1, 1), (0, 0)],
        [(0, 0), (1, 1), (2, 0), (3, 3), (1, 1)],
        [(0, 0), (1, 1), (2, 2), (2, 2), (1, 1), (0, 0)],
    ],
)
def test_gain_matrix_names_the_first_coincident_pair(positions):
    roles = ["source"] + ["relay"] * (len(positions) - 2) + ["destination"]
    spec = make_spec([(k + 1, roles[k], x, y) for k, (x, y) in enumerate(positions)])
    with pytest.raises(TopologyError) as want:
        _ordered_gains(spec)
    with pytest.raises(TopologyError) as got:
        gain_matrix(spec)
    assert str(got.value) == str(want.value)


def _out_of_id_order(spec, seed):
    """``spec`` with its ``nodes`` tuple shuffled out of id order."""
    rng = np.random.default_rng(seed)
    while True:
        nodes = tuple(spec.nodes[k] for k in rng.permutation(spec.n_nodes))
        if [n.id for n in nodes] != sorted(n.id for n in nodes):
            return NetworkSpec(nodes=nodes, radio=spec.radio, slot_count=spec.slot_count)


@pytest.mark.parametrize("seed", range(3))
def test_gain_matrix_of_nodes_out_of_id_order(seed):
    # NetworkSpec does not sort its nodes: the gains are stored by node id.
    rng = np.random.default_rng(seed)
    roles = ["source"] + ["relay"] * 7 + ["destination"]
    nodes = [(k + 1, role, *rng.uniform(-3, 3, 2)) for k, role in enumerate(roles)]
    spec = _out_of_id_order(make_spec(nodes), seed)
    assert np.array_equal(gain_matrix(spec), _ordered_gains(spec))
    for role in ("source", "relay", "destination"):
        rows = getattr(spec, f"{role}_rows")
        assert rows.tolist() == sorted(n.id - 1 for n in spec.nodes if n.role == role)
    # A coincident pair is named as the loop over the nodes tuple meets it:
    # (4, 1) when the tuple runs 4, 3, 2, 1.
    positions = [(0, 0), (1, 1), (1, 1), (0, 0)]
    in_order = make_spec([(k + 1, r, x, y) for k, (r, (x, y)) in enumerate(
        zip(["source", "relay", "relay", "destination"], positions))])
    for coincident in (_out_of_id_order(in_order, seed), NetworkSpec(
            nodes=in_order.nodes[::-1], radio=in_order.radio, slot_count=2)):
        with pytest.raises(TopologyError) as want:
            _ordered_gains(coincident)
        with pytest.raises(TopologyError) as got:
            gain_matrix(coincident)
        assert str(got.value) == str(want.value)
    assert str(got.value) == "nodes 4 and 1 are coincident (distance 0)"


def test_serialize_round_trip():
    spec = load_network(_doc(FOUR_NODES, slots=3))
    again = load_network(serialize_network(spec))
    assert again == spec
    assert isinstance(again, NetworkSpec)


def test_distance_euclidean():
    # The pathloss distance is Euclidean: a 3-4-5 triangle at d_0 = 1.
    spec = make_spec([(1, "source", 0, 0), (2, "destination", 3, 4)])
    assert pathloss_gain(spec.node(1), spec.node(2), spec.radio) == pytest.approx(1 / 25)


def test_network_without_relays_loads():
    spec = make_spec([(1, "source", 0, 0), (2, "destination", 1, 0)])
    assert spec.relay_ids == ()
    assert math.isclose(gain_matrix(spec)[0, 1], 1.0)


# Each accessor that takes 1-based node ids or slots, with one argument
# left free: (label, what the free argument is, call(spec, tau, P, X, k)).
ONE_BASED_ACCESSORS = [
    ("rate-node", "node", lambda s, t, P, X, k: t.rate(k, 1)),
    ("rate-slot", "slot", lambda s, t, P, X, k: t.rate(1, k)),
    ("row", "node", lambda s, t, P, X, k: t.row(k)),
    ("x-sender", "sender", lambda s, t, P, X, k: X.x(k, 2, 1, 2)),
    ("x-forwarder", "forwarder", lambda s, t, P, X, k: X.x(1, k, 1, 2)),
    ("x-in-slot", "in_slot", lambda s, t, P, X, k: X.x(1, 2, k, 2)),
    ("x-out-slot", "out_slot", lambda s, t, P, X, k: X.x(1, 2, 1, k)),
    ("node", "node", lambda s, t, P, X, k: s.node(k)),
    ("feeder-forwarder", "forwarder", lambda s, t, P, X, k: feeder_terms(t, P, k, 2)),
    ("feeder-out-slot", "out_slot", lambda s, t, P, X, k: feeder_terms(t, P, 2, k)),
    ("exact-sender", "sender", lambda s, t, P, X, k: channel_probability_exact(s, t, k, 3, 1)),
    ("exact-receiver", "receiver",
     lambda s, t, P, X, k: channel_probability_exact(s, t, 1, k, 1)),
    ("exact-slot", "slot", lambda s, t, P, X, k: channel_probability_exact(s, t, 1, 3, k)),
    ("sampled-sender", "sender",
     lambda s, t, P, X, k: channel_probability_sampled(s, t, k, 3, 1, 10, 0)),
    ("sampled-receiver", "receiver",
     lambda s, t, P, X, k: channel_probability_sampled(s, t, 1, k, 1, 10, 0)),
    ("sampled-slot", "slot",
     lambda s, t, P, X, k: channel_probability_sampled(s, t, 1, 3, k, 10, 0)),
]


@pytest.mark.parametrize("past_end", [False, True], ids=["zero", "past-end"])
@pytest.mark.parametrize(
    "what, call", [pytest.param(w, c, id=label) for label, w, c in ONE_BASED_ACCESSORS]
)
def test_one_based_accessors_reject_ids_out_of_range(what, call, past_end):
    # Without the check, 0 would wrap to the last node or slot, and an id
    # past the end would raise a bare IndexError or find nothing.
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, 0.25]], [[1.0, 0.0]])
    P = channel_matrix(tau, spec)
    X = solve_chain_closed_form(tau, P, spec)
    count = spec.slot_count if "slot" in what else spec.n_nodes
    k = count + 1 if past_end else 0
    with pytest.raises(ValueError, match=rf"^{what} {k} is out of range 1\.\.{count}$"):
        call(spec, tau, P, X, k)
