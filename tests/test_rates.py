import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_relay import (
    RateGrid,
    RateMatrix,
    active_set,
    check_flow_conservation,
    check_half_duplex,
    count_rate_matrices,
    default_source_rates,
    enumerate_rate_matrices,
)
from pareto_relay.errors import FlowConservationError, GridError, HalfDuplexError, SchemaError
from pareto_relay.rates import incoming_rates
from pareto_relay.steady_state import check_strategy

from conftest import injected_channel, line_spec, make_spec, rate_matrix


def test_grid_parse():
    grid = RateGrid.parse("0,0.25,0.5,0.75,1")
    assert grid.values == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert 0.5 in grid
    assert 0.3 not in grid


@pytest.mark.parametrize("text", ["0.5,1", "0,0.5,0.5", "0,1.5", "1,0", ""])
def test_grid_rejects_bad_values(text):
    with pytest.raises(GridError):
        RateGrid.parse(text)


def test_rate_matrix_json_round_trip(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.4]], [[1.0, 0.0]])
    again = RateMatrix.from_json(three_node, tau.to_json_dict())
    assert again == tau
    assert again.rate(2, 2) == 0.4
    assert again.rate(1, 1) == 1.0
    assert again.rate(3, 1) == 0.0  # destinations never transmit


def test_rate_matrix_shape_validation(three_node):
    with pytest.raises(SchemaError):
        rate_matrix(three_node, [[0.0, 0.4, 0.1]], [[1.0, 0.0]])


def test_active_set_empty(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[0.0, 0.0]])
    assert active_set(tau).transmissions == frozenset()


def test_active_set_single():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0),
            (3, "relay", 1, 1),
            (4, "destination", 2, 0),
        ]
    )
    tau = rate_matrix(spec, [[0.0, 0.0], [0.0, 0.5]], [[0.0, 0.0]])
    act = active_set(tau)
    assert act.transmissions == frozenset({(3, 2)})


def test_incoming_rate_no_neighbors(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[0.0, 0.0]])
    P = injected_channel(3, 2, {})
    per_slot = incoming_rates(tau, P)[1]
    assert per_slot.sum() == 0.0
    assert np.all(per_slot == 0.0)


def test_incoming_rate_single_feeder(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.6})
    per_slot = incoming_rates(tau, P)[1]
    assert per_slot[0] == pytest.approx(0.6)
    assert per_slot.sum() == pytest.approx(0.6)


def test_incoming_rate_two_feeders():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ]
    )
    tau = rate_matrix(spec, [[0.0, 0.0]], [[0.5, 0.0], [1.0, 0.0]])
    P = injected_channel(4, 2, {(1, 3, 1): 0.8, (2, 3, 1): 0.3})
    per_slot = incoming_rates(tau, P)[2]
    assert per_slot[0] == pytest.approx(0.5 * 0.8 + 1.0 * 0.3)
    assert per_slot.sum() == pytest.approx(0.7)


def test_outgoing_rate(three_node):
    # the flow gate reports each relay's total transmission rate first
    P = injected_channel(3, 2, {})
    for row, total in (([0.0, 0.0], 0.0), ([0.5, 0.25], 0.75), ([1.0, 1.0], 2.0)):
        tau = rate_matrix(three_node, [row], [[0, 0]])
        assert check_flow_conservation(tau, P).entries[2][0] == total


def test_flow_conservation_idle_relay_passes(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[1.0, 0.0]])
    report = check_flow_conservation(tau, injected_channel(3, 2, {}))
    assert report.all_ok


def test_flow_conservation_failure(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.8]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.6})
    report = check_flow_conservation(tau, P)
    assert not report.all_ok
    assert report.failures() == [2]


def test_flow_conservation_equality_passes(three_node):
    # relay rate exactly matching its inflow sits on the boundary
    p_sr = 0.8
    tau = rate_matrix(three_node, [[0.0, p_sr]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): p_sr})
    assert check_flow_conservation(tau, P).all_ok


def test_flow_conservation_sources_exempt(three_node):
    # the source transmits with zero inflow and must not be flagged
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[1.0, 0.0]])
    report = check_flow_conservation(tau, injected_channel(3, 2, {}))
    assert 1 not in report.entries


def test_half_duplex_boundary_rate_one(three_node):
    tau = rate_matrix(three_node, [[1.0, 0.0]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.9})
    report = check_half_duplex(tau, P)
    # transmitting a full slot leaves lhs = 1 exactly
    lhs, ok = report.entries[(2, 1)]
    assert lhs == pytest.approx(1.0)
    assert ok


def test_half_duplex_pure_listening_passes(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.9})
    report = check_half_duplex(tau, P)
    lhs, ok = report.entries[(2, 1)]
    assert lhs == pytest.approx(0.9)
    assert ok


def test_half_duplex_two_full_feeders_fail():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ]
    )
    tau = rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    P = injected_channel(4, 2, {(1, 3, 1): 0.8, (2, 3, 1): 0.8})
    report = check_half_duplex(tau, P)
    lhs, ok = report.entries[(3, 1)]
    assert lhs == pytest.approx(1.6)
    assert not ok
    assert report.failures() == [(3, 1)]


def test_gate_errors_through_check_strategy(three_node):
    # Each gate raises its own error class, with a message naming the
    # failing relays or (relay, slot) pairs.
    tau = rate_matrix(three_node, [[0.0, 0.8]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.6})
    with pytest.raises(FlowConservationError) as flow:
        check_strategy(tau, three_node, P)
    assert type(flow.value) is FlowConservationError
    assert str(flow.value) == (
        "flow conservation fails: relays [2] transmit more than they receive"
    )
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ]
    )
    tau = rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    P = injected_channel(4, 2, {(1, 3, 1): 0.8, (2, 3, 1): 0.8})
    with pytest.raises(HalfDuplexError) as duplex:
        check_strategy(tau, spec, P)
    assert type(duplex.value) is HalfDuplexError
    assert str(duplex.value) == "half-duplex constraint fails at (node, slot) [(3, 1)]"


def test_default_source_rates(three_node):
    rates = default_source_rates(three_node)
    assert rates.shape == (1, 2)
    assert rates[0, 0] == 1.0 and rates[0, 1] == 0.0


def _brute_force_count(grid, n_relays, slots, n_max):
    rows = list(itertools.product(grid.values, repeat=slots))
    count = 0
    for combo in itertools.product(rows, repeat=n_relays):
        active = sum(1 for row in combo if any(v > 0 for v in row))
        if active <= n_max:
            count += 1
    return count


@pytest.mark.parametrize(
    "grid_text,n_relays,slots,n_max,expected",
    [
        ("0,1", 1, 1, 1, 2),
        ("0,0.5,1", 2, 1, 2, 9),
        ("0,0.5,1", 2, 1, 1, 5),
    ],
)
def test_enumeration_counts(grid_text, n_relays, slots, n_max, expected):
    nodes = [(1, "source", 0, 0)]
    nodes += [(2 + k, "relay", 1, k) for k in range(n_relays)]
    nodes += [(2 + n_relays, "destination", 3, 0)]
    spec = make_spec(nodes, slots=slots)
    grid = RateGrid.parse(grid_text)
    stream = list(enumerate_rate_matrices(grid, spec, n_max))
    assert len(stream) == expected
    assert count_rate_matrices(grid, spec, n_max) == expected
    assert _brute_force_count(grid, n_relays, slots, n_max) == expected


def test_enumeration_count_matches_brute_force_exhaustively():
    for n_relays, slots, grid_text in itertools.product(
        (1, 2, 3), (1, 2), ("0,1", "0,0.5,1")
    ):
        nodes = [(1, "source", 0, 0)]
        nodes += [(2 + k, "relay", 1, k) for k in range(n_relays)]
        nodes += [(2 + n_relays, "destination", 3, 0)]
        spec = make_spec(nodes, slots=slots)
        grid = RateGrid.parse(grid_text)
        for n_max in range(n_relays + 1):
            stream = list(enumerate_rate_matrices(grid, spec, n_max))
            assert len(stream) == count_rate_matrices(grid, spec, n_max)
            assert len(stream) == _brute_force_count(grid, n_relays, slots, n_max)
            # no duplicates
            keys = {tuple(map(tuple, t.relay_rates)) for t in stream}
            assert len(keys) == len(stream)


def test_enumeration_respects_n_max_and_grid():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0),
            (3, "relay", 1, 1),
            (4, "destination", 2, 0),
        ]
    )
    grid = RateGrid.parse("0,0.5,1")
    for tau in enumerate_rate_matrices(grid, spec, 1):
        active_relays = {j for j, _ in active_set(tau).transmissions if j in (2, 3)}
        assert len(active_relays) <= 1
        for row in tau.relay_rates:
            for v in row:
                assert v in grid


def test_enumeration_is_deterministic(three_node):
    grid = RateGrid.parse("0,0.5,1")
    a = [t.relay_rates.tolist() for t in enumerate_rate_matrices(grid, three_node, 1)]
    b = [t.relay_rates.tolist() for t in enumerate_rate_matrices(grid, three_node, 1)]
    assert a == b


def test_enumeration_rejects_bad_n_max(three_node):
    grid = RateGrid.parse("0,1")
    with pytest.raises(GridError):
        list(enumerate_rate_matrices(grid, three_node, 2))
    with pytest.raises(GridError):
        list(enumerate_rate_matrices(grid, three_node, -1))


def test_count_rejects_the_n_max_enumeration_rejects(three_node):
    grid = RateGrid.parse("0,1")
    for n_max in (2, -1):
        with pytest.raises(GridError) as listed:
            list(enumerate_rate_matrices(grid, three_node, n_max))
        with pytest.raises(GridError) as counted:
            count_rate_matrices(grid, three_node, n_max)
        assert str(counted.value) == str(listed.value)


@settings(max_examples=50, deadline=None)
@given(
    rates=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=2, max_size=2
    ),
    src=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_active_set_matches_definition(rates, src):
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [rates], [[src, 0.0]])
    act = active_set(tau)
    expected = {(2, u + 1) for u, v in enumerate(rates) if v > 0}
    if src > 0:
        expected.add((1, 1))
    assert act.transmissions == frozenset(expected)
