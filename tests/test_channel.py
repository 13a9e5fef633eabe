import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_relay import (
    ChannelMatrix,
    ForwardingMatrix,
    ber_bpsk_awgn,
    channel_matrix,
    channel_probability_exact,
    channel_probability_sampled,
    check_flow_conservation,
    check_half_duplex,
    consistency_residuals,
    evaluate,
    packet_success,
    sample_feasible_forwarding,
    solve_chain_closed_form,
)
from pareto_relay import RateGrid, channel, enumerate_rate_matrices, topology
from pareto_relay.channel import spawned_seed
from pareto_relay.errors import (
    ClosedFormNotApplicableError,
    EnumerationCapError,
    ParetoRelayError,
    SchemaError,
)
from pareto_relay.mc_oracle import _injections
from pareto_relay.pareto import tau_flow_rate
from pareto_relay.topology import gain_matrix

from conftest import injected_channel, line_spec, make_spec, rate_matrix

# frozen references computed from 0.5*erfc(sqrt(gamma)) at gamma = 1
BER_AT_1 = 0.07864960352514257
PER_AT_1_100 = 0.9997229981264794


# Reference formulas of the interference model, written out link by link
# and subset by subset. The library folds them into the subset doubling of
# channel_probability_exact; the tests below pin them and check the
# library against them.


def per(gamma, packet_bits: int):
    """Packet error rate 1 - (1 - BER)^N_b for an N_b-bit packet."""
    if packet_bits < 1:
        raise ValueError("packet_bits must be >= 1")
    return 1.0 - packet_success(gamma, packet_bits)


def interference_power(spec, sender, receiver, members) -> float:
    """Total interference power in watts at ``receiver``: sum of P_T * a_kj."""
    members = tuple(members)
    if sender in members or receiver in members:
        raise ValueError("interfering set must exclude both link endpoints")
    gains = gain_matrix(spec)
    return float(
        sum(spec.radio.tx_power * gains[k - 1, receiver - 1] for k in members)
    )


def sinr(spec, sender, receiver, interference) -> float:
    """SINR of the link: P_T * a_ij / (N_0 + I)."""
    signal = spec.radio.tx_power * gain_matrix(spec)[sender - 1, receiver - 1]
    return signal / (spec.radio.noise_power + interference)


def interferers(tau, sender, receiver, slot) -> tuple[int, ...]:
    """The interferer pool of a link: every node with a positive rate in
    ``slot`` other than the two endpoints, by ascending id."""
    return tuple(
        k for k in range(1, len(tau.rates) + 1)
        if k not in (sender, receiver) and tau.rate(k, slot) > 0.0
    )


def interfering_set_probability(members, candidates, slot, tau) -> float:
    """Probability that exactly ``members`` out of ``candidates`` transmit:
    tau_k over the members times (1 - tau_m) over the other candidates."""
    members = set(members)
    candidates = tuple(candidates)
    if not members <= set(candidates):
        raise ValueError("interfering set must be a subset of the candidate pool")
    p = 1.0
    for k in candidates:
        t = tau.rate(k, slot)
        p *= t if k in members else (1.0 - t)
    return p


def five_node():
    """Source 1, relays 2-4 at unit distance from everything relevant,
    destination 5. Distinct positions keep all pairwise gains positive."""
    return make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0),
            (3, "relay", 1, 1),
            (4, "relay", 2, 1),
            (5, "destination", 3, 0),
        ]
    )


def test_ber_reference_values():
    assert ber_bpsk_awgn(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ber_bpsk_awgn(1.0) == pytest.approx(BER_AT_1, abs=1e-15)
    arr = ber_bpsk_awgn(np.array([0.0, 1.0]))
    assert arr == pytest.approx([0.5, BER_AT_1], abs=1e-15)


def test_ber_rejects_negative_sinr():
    with pytest.raises(ValueError):
        ber_bpsk_awgn(-0.1)
    with pytest.raises(ValueError):
        ber_bpsk_awgn(np.array([0.5, -1.0]))


def test_ber_decreases_with_sinr():
    gammas = np.linspace(0, 20, 50)
    bers = ber_bpsk_awgn(gammas)
    assert np.all(np.diff(bers) < 0)


def test_per_reference_values():
    assert per(1.0, 100) == pytest.approx(PER_AT_1_100, abs=1e-15)
    assert per(1.0, 1) == pytest.approx(BER_AT_1, abs=1e-15)
    assert packet_success(1.0, 100) == pytest.approx(1.0 - PER_AT_1_100, abs=1e-15)


def test_per_rejects_zero_bits():
    with pytest.raises(ValueError):
        per(1.0, 0)


def test_per_grows_with_packet_length():
    assert per(1.0, 200) > per(1.0, 100) > per(1.0, 1)


def test_interference_power_examples():
    spec = line_spec()
    assert interference_power(spec, 1, 3, []) == 0.0
    # relay 2 sits 1 m from the destination: gain 1, tx power 1
    assert interference_power(spec, 1, 3, [2]) == pytest.approx(1.0)
    # interferer gains 0.05 and 0.1 at tx power 2 W add up to 0.3 W
    big = make_spec(
        [
            (1, "source", 5, 5),
            (2, "relay", 2, 4),  # d^2 = 20 from the receiver: gain 0.05
            (3, "relay", 1, 3),  # d^2 = 10 from the receiver: gain 0.1
            (4, "destination", 0, 0),
        ],
        radio={"tx_power_w": 2.0},
    )
    gains = gain_matrix(big)
    assert gains[1, 3] == pytest.approx(0.05)
    assert gains[2, 3] == pytest.approx(0.1)
    assert interference_power(big, 1, 4, [2, 3]) == pytest.approx(0.3)


def test_interference_power_rejects_endpoints():
    spec = line_spec()
    with pytest.raises(ValueError):
        interference_power(spec, 1, 3, [1])
    with pytest.raises(ValueError):
        interference_power(spec, 1, 3, [3])


def test_sinr_examples():
    # distance 2 with unit reference: gain 0.25, so signal 0.25 W
    spec = line_spec()
    assert sinr(spec, 1, 3, 0.0) == pytest.approx(0.25 / 0.1)
    # pick interference so the ratio lands exactly at 1
    assert sinr(spec, 1, 3, 0.15) == pytest.approx(1.0)
    assert sinr(spec, 1, 2, 0.9) == pytest.approx(1.0)
    assert sinr(spec, 1, 3, 1e9) == pytest.approx(0.0, abs=1e-8)


def test_interference_candidates_excludes_endpoints():
    # Neither endpoint of a link interferes with it, active or not, and
    # each slot has its own active set; p matches the subset enumeration
    # over exactly that pool.
    spec = five_node()
    tau = rate_matrix(spec, [[0.5, 0.0], [0.5, 0.0], [0.0, 0.3]], [[1.0, 0.0]])
    idle = rate_matrix(spec, [[0.0] * 2] * 3, [[0.0, 0.0]])
    cases = [
        (tau, (1, 5, 1), (2, 3)),  # an active sender
        (tau, (2, 5, 1), (1, 3)),
        (tau, (1, 2, 1), (3,)),  # an active receiver
        (tau, (5, 2, 1), (1, 3)),  # an idle sender
        (tau, (1, 5, 2), (4,)),
        (idle, (1, 5, 1), ()),
    ]
    for rates, link, pool in cases:
        assert interferers(rates, *link) == pool
        got = channel_probability_exact(spec, rates, *link)
        assert got == pytest.approx(_brute_force_probability(spec, rates, *link), abs=1e-12)
    quiet = packet_success(sinr(spec, 1, 5, 0.0), spec.radio.packet_bits)
    assert channel_probability_exact(spec, idle, 1, 5, 1) == pytest.approx(quiet, abs=1e-15)


def test_interfering_set_probability_certainty():
    spec = line_spec()
    tau = rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0]])
    assert interfering_set_probability([], [], 1, tau) == 1.0


def test_interfering_set_probability_single_candidate():
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])
    assert interfering_set_probability([2], [2], 1, tau) == pytest.approx(0.3)
    assert interfering_set_probability([], [2], 1, tau) == pytest.approx(0.7)


def test_interfering_set_probability_four_subsets():
    spec = five_node()
    tau = rate_matrix(spec, [[0.5, 0.0], [0.5, 0.0], [0.0, 0.0]], [[1.0, 0.0]])
    pool = (2, 3)
    for members in ([], [2], [3], [2, 3]):
        assert interfering_set_probability(members, pool, 1, tau) == pytest.approx(0.25)


def test_interfering_set_probability_rejects_non_subset():
    spec = five_node()
    tau = rate_matrix(spec, [[0.5, 0.0]] * 3, [[1.0, 0.0]])
    with pytest.raises(ValueError):
        interfering_set_probability([4], [2, 3], 1, tau)


def test_subset_probabilities_partition_unity():
    spec = five_node()
    tau = rate_matrix(
        spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]]
    )
    pool = interferers(tau, 1, 5, 1)
    total = 0.0
    for r in range(len(pool) + 1):
        for members in itertools.combinations(pool, r):
            total += interfering_set_probability(members, pool, 1, tau)
    assert total == pytest.approx(1.0, abs=1e-12)


def _brute_force_probability(spec, tau, sender, receiver, slot):
    """Independent oracle: explicit subset enumeration via combinations."""
    pool = interferers(tau, sender, receiver, slot)
    total = 0.0
    for r in range(len(pool) + 1):
        for members in itertools.combinations(pool, r):
            w = interfering_set_probability(members, pool, slot, tau)
            power = interference_power(spec, sender, receiver, members)
            gamma = sinr(spec, sender, receiver, power)
            total += w * packet_success(gamma, spec.radio.packet_bits)
    return total


def test_exact_probability_matches_subset_enumeration():
    spec = five_node()
    tau = rate_matrix(
        spec, [[0.3, 0.2], [0.7, 0.0], [0.25, 0.6]], [[0.9, 0.0]]
    )
    for sender, receiver in ((1, 5), (2, 5), (1, 2), (3, 4)):
        for slot in (1, 2):
            got = channel_probability_exact(spec, tau, sender, receiver, slot)
            want = _brute_force_probability(spec, tau, sender, receiver, slot)
            assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    taus=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=3,
    )
)
def test_exact_probability_matches_oracle_randomized(taus):
    spec = five_node()
    tau = rate_matrix(spec, [[t, 0.0] for t in taus], [[1.0, 0.0]])
    got = channel_probability_exact(spec, tau, 1, 5, 1)
    want = _brute_force_probability(spec, tau, 1, 5, 1)
    assert got == pytest.approx(want, abs=1e-12)
    assert 0.0 <= got <= 1.0


def test_exact_probability_interference_free():
    spec = line_spec()
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    # no concurrent transmitters in slot 1 besides the endpoints
    p_sr = channel_probability_exact(spec, tau, 1, 2, 1)
    assert p_sr == pytest.approx(packet_success(10.0, 100), abs=1e-15)
    p_sd = channel_probability_exact(spec, tau, 1, 3, 1)
    assert p_sd == pytest.approx(packet_success(2.5, 100), abs=1e-15)


def test_exact_probability_cap(monkeypatch):
    nodes = [(1, "source", 0, 0)]
    nodes += [(1 + k, "relay", k, 1) for k in range(1, 22)]
    nodes += [(23, "destination", 22, 0)]
    spec = make_spec(nodes, slots=1)
    tau = rate_matrix(spec, [[0.5]] * 21, [[1.0]])
    with pytest.raises(EnumerationCapError):
        channel_probability_exact(spec, tau, 1, 23, 1)
    # a generous cap admits the same pool
    monkeypatch.setattr(channel, "EXACT_CAP", 21)
    assert 0.0 <= channel_probability_exact(spec, tau, 1, 23, 1) <= 1.0


def test_interference_lowers_probability_monotonically():
    spec = five_node()
    last = None
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        tau = rate_matrix(spec, [[0.0, 0.0], [t, 0.0], [0.0, 0.0]], [[1.0, 0.0]])
        p = channel_probability_exact(spec, tau, 1, 2, 1)
        if last is not None:
            assert p < last
        last = p


def test_sampled_probability_is_deterministic():
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]])
    a = channel_probability_sampled(spec, tau, 1, 5, 1, samples=5000, seed=7)
    b = channel_probability_sampled(spec, tau, 1, 5, 1, samples=5000, seed=7)
    assert a == b
    c = channel_probability_sampled(spec, tau, 1, 5, 1, samples=5000, seed=8)
    assert a != c


def test_sampled_probability_zero_variance_at_degenerate_rates():
    spec = five_node()
    tau = rate_matrix(spec, [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])
    mean, se = channel_probability_sampled(spec, tau, 1, 5, 1, samples=2000, seed=0)
    exact = channel_probability_exact(spec, tau, 1, 5, 1)
    assert mean == pytest.approx(exact, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_sampled_probability_matches_exact():
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]])
    exact = channel_probability_exact(spec, tau, 1, 5, 1)
    mean, se = channel_probability_sampled(spec, tau, 1, 5, 1, samples=200_000, seed=3)
    assert se > 0
    assert abs(mean - exact) <= 4.0 * se


def test_sampled_standard_error_scales_inverse_sqrt():
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]])
    _, se_small = channel_probability_sampled(spec, tau, 1, 5, 1, samples=20_000, seed=11)
    _, se_big = channel_probability_sampled(spec, tau, 1, 5, 1, samples=80_000, seed=11)
    assert se_small / se_big == pytest.approx(2.0, rel=0.15)


def test_channel_matrix_interference_free_geometry():
    spec = line_spec()
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    P = channel_matrix(tau, spec)
    # gamma = 10 / d^2 with this radio
    assert P.probs[0, 1, 0] == pytest.approx(packet_success(10.0, 100), abs=1e-15)
    assert P.probs[0, 2, 0] == pytest.approx(packet_success(2.5, 100), abs=1e-15)
    assert P.probs[1, 2, 1] == pytest.approx(packet_success(10.0, 100), abs=1e-15)


def test_channel_matrix_shared_slot_strictly_below_interference_free():
    spec = five_node()
    quiet = rate_matrix(spec, [[0.0, 0.0]] * 3, [[1.0, 0.0]])
    busy = rate_matrix(spec, [[0.6, 0.0], [0.6, 0.0], [0.6, 0.0]], [[1.0, 0.0]])
    P_quiet = channel_matrix(quiet, spec)
    P_busy = channel_matrix(busy, spec)
    for j in (1, 2, 3, 4):
        assert P_busy.probs[0, j, 0] < P_quiet.probs[0, j, 0]
        assert P_busy.probs[0, j, 1] == P_quiet.probs[0, j, 1]


def test_channel_matrix_sampled_fallback_deterministic_and_close(monkeypatch):
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]])
    exact = channel_matrix(tau, spec)
    monkeypatch.setattr(channel, "EXACT_CAP", 0)
    monkeypatch.setattr(channel, "SAMPLE_SEED", 5)
    sampled_a = channel_matrix(tau, spec)
    sampled_b = channel_matrix(tau, spec)
    assert np.array_equal(sampled_a.probs, sampled_b.probs)
    assert np.max(np.abs(sampled_a.probs - exact.probs)) < 5e-3


def test_channel_matrix_default_sampled_estimate_is_pinned(monkeypatch):
    # No benchmark pool exceeds the cap, so this digest is what guards the
    # default SAMPLES and SAMPLE_SEED of the sampled fallback. It covers the
    # 16 links whose sender transmits, in (i, j, u) order; the digest is that
    # of the same entries when every ordered link was estimated.
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]])
    monkeypatch.setattr(channel, "EXACT_CAP", 0)
    probs = channel_matrix(tau, spec).probs
    sending = sending_links(tau)
    assert sending.sum() == 16 and not probs[~sending].any()
    assert hashlib.sha256(probs[sending].tobytes()).hexdigest() == (
        "b43a9dbda9489ed26359c7294423da7a2aad32509e70b38c575af5da93810cdf"
    )


def test_channel_matrix_computes_gains_once_per_spec(monkeypatch):
    calls = []
    original = topology.pathloss_gain

    def counting(i, j, radio):
        calls.append((i.id, j.id))
        return original(i, j, radio)

    monkeypatch.setattr(topology, "pathloss_gain", counting)
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]])
    channel_matrix(tau, spec)
    monkeypatch.setattr(channel, "EXACT_CAP", 0)
    monkeypatch.setattr(channel, "SAMPLES", 10)
    channel_matrix(tau, spec)
    n = spec.n_nodes
    assert len(calls) == n * (n - 1) // 2
    with pytest.raises(ValueError):
        gain_matrix(spec)[0, 1] = 0.5


@pytest.mark.parametrize(
    "constants", [{}, {"EXACT_CAP": 0, "SAMPLES": 64}], ids=["exact", "sampled"],
)
def test_channel_matrix_slot_cache_matches_fresh(constants, monkeypatch):
    # One cache serves every tau of a search, with default and with given
    # source rates; with all links sampled, equal columns in different slots
    # must not share a slice (each link is seeded by its slot).
    for name, value in constants.items():
        monkeypatch.setattr(channel, name, value)
    spec = five_node()
    grid = RateGrid.parse("0,0.5")
    cache = {}
    columns = set()
    for sources in (None, np.array([[0.5, 0.5]])):
        for tau in enumerate_rate_matrices(grid, spec, 2, source_rates=sources):
            cached = channel_matrix(tau, spec, slot_cache=cache)
            fresh = channel_matrix(tau, spec)
            assert np.array_equal(cached.probs, fresh.probs)
            columns |= {
                (u, tuple(tau.rate(i, u) for i in range(1, spec.n_nodes + 1)))
                for u in range(1, spec.slot_count + 1)
            }
    # One slice per distinct (slot, column) pair: repeated columns share it.
    assert len(cache) == len(columns)


def test_channel_matrix_validates_range():
    with pytest.raises(SchemaError):
        ChannelMatrix(2, 1, np.full((2, 2, 1), 1.5))
    with pytest.raises(SchemaError):
        ChannelMatrix(2, 1, np.zeros((2, 2, 2)))
    self_link = np.zeros((3, 3, 2))
    self_link[0, 0, 0] = 0.7
    with pytest.raises(SchemaError):
        ChannelMatrix.from_dense(self_link)


def test_channel_matrix_json_round_trip():
    P = injected_channel(3, 2, {(1, 2, 1): 0.5, (2, 3, 2): 0.75, (1, 3, 1): 0.1})
    doc = P.to_json_dict()
    assert all(link["i"] != link["j"] for link in doc["links"])
    again = ChannelMatrix.from_json(json.dumps(doc), 3, 2)
    assert np.array_equal(again.probs, P.probs)


# The per-link loop that channel_matrix ran before it took a slot one
# interferer pool at a time: every ordered pair is its own subset doubling
# and its own np.dot, and a pool above the cap takes the sampled estimate.
# The slice kernel must match it bit for bit on every link whose sender
# transmits, and leave every other link at 0.


def _link_probability_reference(spec, tau, sender, receiver, slot):
    pool = interferers(tau, sender, receiver, slot)
    gains = gain_matrix(spec)
    p_t = spec.radio.tx_power
    signal = p_t * gains[sender - 1, receiver - 1]
    interf = np.zeros(1)
    prob = np.ones(1)
    for k in pool:
        g, t = p_t * gains[k - 1, receiver - 1], tau.rate(k, slot)
        interf = np.concatenate([interf, interf + g])
        prob = np.concatenate([prob * (1.0 - t), prob * t])
    gamma = signal / (spec.radio.noise_power + interf)
    return float(np.dot(prob, packet_success(gamma, spec.radio.packet_bits)))


def _channel_matrix_reference(tau, spec):
    n, slots = spec.n_nodes, spec.slot_count
    probs = np.zeros((n, n, slots))
    for u in range(1, slots + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                if len(interferers(tau, i, j, u)) <= channel.EXACT_CAP:
                    p = _link_probability_reference(spec, tau, i, j, u)
                else:
                    p, _ = channel_probability_sampled(
                        spec, tau, i, j, u, channel.SAMPLES,
                        seed=spawned_seed(channel.SAMPLE_SEED, i, j, u),
                    )
                probs[i - 1, j - 1, u - 1] = p
    return probs


def sending_links(tau):
    """Mask of the links (i, j, u), i != j, whose sender i transmits in u."""
    n = len(tau.rates)
    return (tau.rates[:, None, :] > 0.0) & ~np.eye(n, dtype=bool)[:, :, None]


def assert_matches_reference(got, tau, spec):
    """Each link whose sender transmits equals the per-link reference bit
    for bit; every other entry, the diagonal included, is exactly 0."""
    sending = sending_links(tau)
    assert np.array_equal(got[sending], _channel_matrix_reference(tau, spec)[sending])
    assert np.all(got[~sending] == 0.0)


def _wide_strategy(seed):
    """One source, 12 relays and one destination on seeded positions, three
    slots: the source sends at rate 1 in slot 1, and each relay is active
    with probability 0.6 in one random slot of {2, 3} at rate 0.05, 0.1 or
    0.15. No gate is checked: the channel does not need one."""
    rng = np.random.default_rng([seed, 1])
    nodes = [(1, "source", 0.0, 0.0)]
    nodes += [
        (k, "relay", rng.uniform(0.6, 1.6), rng.uniform(-1.2, 1.2)) for k in range(2, 14)
    ]
    nodes.append((14, "destination", 2.2, 0.0))
    spec = make_spec(nodes, slots=3)
    relay_rows = np.zeros((12, 3))
    for row in relay_rows:
        if rng.random() < 0.6:
            row[rng.integers(1, 3)] = rng.choice((0.05, 0.1, 0.15))
    return spec, rate_matrix(spec, relay_rows, [[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("seed", range(6))
def test_channel_matrix_matches_per_link_reference_on_wide_nets(seed):
    spec, tau = _wide_strategy(seed)
    assert_matches_reference(channel_matrix(tau, spec).probs, tau, spec)


def test_channel_matrix_matches_reference_on_empty_and_single_slots():
    # Slot 1: one transmitter; slot 2: none; slot 3: three.
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0.4),
            (3, "relay", 1, -0.4),
            (4, "relay", 2, 0.3),
            (5, "destination", 3, 0),
        ],
        slots=3,
    )
    tau = rate_matrix(
        spec, [[0.0, 0.0, 0.3], [0.0, 0.0, 0.6], [0.0, 0.0, 0.2]], [[1.0, 0.0, 0.5]]
    )
    assert_matches_reference(channel_matrix(tau, spec).probs, tau, spec)


def test_channel_matrix_matches_reference_with_two_sources_and_two_destinations():
    spec = make_spec(
        [
            (1, "source", 0, 0.5),
            (2, "source", 0, -0.5),
            (3, "relay", 1, 0.6),
            (4, "relay", 1.2, -0.3),
            (5, "relay", 1.8, 0.1),
            (6, "destination", 2.5, 0.7),
            (7, "destination", 2.5, -0.7),
        ],
    )
    tau = rate_matrix(
        spec, [[0.0, 0.4], [0.25, 0.3], [0.0, 0.35]], [[0.8, 0.0], [0.6, 0.1]]
    )
    assert_matches_reference(channel_matrix(tau, spec).probs, tau, spec)


def test_channel_matrix_cap_splits_the_pools_of_one_slice(monkeypatch):
    # Five transmitters in slot 1: a link from one of them has a pool of 4
    # (an idle receiver) or 3 (an active one). A cap of 3 samples only the
    # first kind.
    spec, _ = _wide_strategy(0)
    relay_rows = np.zeros((12, 3))
    relay_rows[[0, 3, 5, 8], 0] = (0.1, 0.15, 0.05, 0.1)
    tau = rate_matrix(spec, relay_rows, [[1.0, 0.0, 0.0]])
    exact = channel_matrix(tau, spec).probs
    monkeypatch.setattr(channel, "EXACT_CAP", 3)
    monkeypatch.setattr(channel, "SAMPLES", 256)
    monkeypatch.setattr(channel, "SAMPLE_SEED", 3)
    got = channel_matrix(tau, spec).probs
    assert_matches_reference(got, tau, spec)
    same = (got == exact)[sending_links(tau)]
    assert same.any() and not same.all()


def test_channel_matrix_mixes_cached_and_missed_slots():
    # Slot 1 of the second tau is a cache hit; its slots 2 and 3 hold the
    # first tau's columns swapped, so they miss, with different active sets.
    spec, tau = _wide_strategy(0)
    cache = {}
    channel_matrix(tau, spec, slot_cache=cache)
    swapped = rate_matrix(spec, tau.rates[1:13][:, [0, 2, 1]], [[1.0, 0.0, 0.0]])
    assert (swapped.rates[:, 1:] > 0).any(axis=0).all()
    got = channel_matrix(swapped, spec, slot_cache=cache).probs
    assert_matches_reference(got, swapped, spec)
    assert len(cache) == 5


@pytest.mark.parametrize("seed", range(3))
def test_channel_matrix_blocks_of_one_pool_size_match_reference(seed, monkeypatch):
    # At 32 elements a block holds 4 links of 3 interferers, 1 from 5 on, so
    # every group of links with more than 2 interferers spans several blocks.
    monkeypatch.setattr(channel, "_BLOCK_ELEMENTS", 32)
    spec, tau = _wide_strategy(seed)
    assert_matches_reference(channel_matrix(tau, spec).probs, tau, spec)


def test_channel_matrix_averages_each_pool_size_once(monkeypatch):
    spec, tau = _wide_strategy(0)
    sizes = {
        len(interferers(tau, i, j, u))
        for i in range(1, spec.n_nodes + 1)
        for j in range(1, spec.n_nodes + 1)
        for u in range(1, spec.slot_count + 1)
        if i != j and tau.rate(i, u) > 0.0
    }
    calls = []
    kernel = channel._pool_average

    def spy(radio, signal, gains, rates):
        calls.append(gains.shape[1])
        return kernel(radio, signal, gains, rates)

    monkeypatch.setattr(channel, "_pool_average", spy)
    cache = {}
    channel_matrix(tau, spec, slot_cache=cache)
    assert sorted(calls) == sorted(sizes)
    calls.clear()
    channel_matrix(tau, spec, slot_cache=cache)
    assert calls == []
    # Above the cap, a pool size takes the sampled estimate, not the kernel.
    cap = sorted(sizes)[len(sizes) // 2]
    monkeypatch.setattr(channel, "EXACT_CAP", cap)
    monkeypatch.setattr(channel, "SAMPLES", 16)
    channel_matrix(tau, spec)
    assert sorted(calls) == sorted(m for m in sizes if m <= cap)


@pytest.mark.parametrize("m, rows", [(0, 67), (1, 67), (2, 67), (5, 67), (12, 5), (16, 3)])
def test_pool_average_matches_one_dot_per_row(m, rows, monkeypatch):
    # At 64 elements a block holds 64, 32, 16 and 2 rows of 0, 1, 2 and 5
    # interferers, so 67 rows span several blocks and end in a short one;
    # from 12 interferers on every block holds one row.
    monkeypatch.setattr(channel, "_BLOCK_ELEMENTS", 64)
    radio = line_spec().radio
    rng = np.random.default_rng([m, rows])
    signal = rng.uniform(0.5, 5.0, rows)
    gains = rng.uniform(0.0, 0.5, (rows, m))
    rates = rng.uniform(0.0, 1.0, (rows, m))
    want = []
    for s, g, t in zip(signal, gains, rates):
        interf, prob = np.zeros(1), np.ones(1)
        for gk, tk in zip(g, t):
            interf = np.concatenate([interf, interf + gk])
            prob = np.concatenate([prob * (1.0 - tk), prob * tk])
        success = packet_success(s / (radio.noise_power + interf), radio.packet_bits)
        want.append(float(np.dot(prob, success)))
    got = channel._pool_average(radio, signal, gains, rates)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_pool_average_is_quiet_only_where_the_sinr_overflows():
    # A SINR past the float range is inf, whose packet success is 1: no
    # warning. An interferer sum past it is a wrong SINR of 0 and still warns.
    radio = five_node().radio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = channel._pool_average(radio, np.array([1e308]), np.zeros((1, 1)), np.ones((1, 1)))
    assert got.tolist() == [1.0]
    with pytest.warns(RuntimeWarning, match="overflow encountered in add"):
        channel._pool_average(radio, np.array([1e308]), np.full((1, 2), 1e308), np.ones((1, 2)))


def test_sampled_fallback_is_quiet_where_the_sinr_overflows(monkeypatch):
    # On the 1e308-W line network every link whose pool is empty has a SINR
    # of inf, whose packet success is 1; with EXACT_CAP 0 the pools of one
    # interferer take the sampled estimate, whose draws include such a SINR
    # whenever the interferer is idle.
    spec = make_spec(
        [(1, "source", 0, 0), (2, "relay", 1, 0), (3, "destination", 2, 0)],
        radio={"tx_power_w": 1e308, "reference_gain": 1.0},
    )
    tau = rate_matrix(spec, [[0.4, 0.4]], [[1.0, 0.0]])
    exact = channel_probability_exact(spec, tau, 1, 3, 1)
    assert 0.6 <= exact < 1.0
    monkeypatch.setattr(channel, "EXACT_CAP", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = channel_matrix(tau, spec)
        assert channel_probability_sampled(spec, tau, 1, 2, 1, 1000, 0) == (1.0, 0.0)
    assert P.probs[0, 1, 0] == 1.0
    assert P.probs[0, 2, 0] == pytest.approx(exact, abs=0.01)


def test_exact_probability_is_a_float_equal_to_the_channel_matrix():
    spec, tau = _wide_strategy(0)
    probs = channel_matrix(tau, spec)
    links = [(1, 14, 1), (3, 14, 2), (4, 3, 2), (7, 14, 3)]
    assert all(tau.rate(i, u) > 0.0 for i, _, u in links)
    assert max(len(interferers(tau, *link)) for link in links) >= 4
    for i, j, u in links:
        got = channel_probability_exact(spec, tau, i, j, u)
        assert type(got) is float
        assert got.hex() == float(probs.probs[i - 1, j - 1, u - 1]).hex()


def test_channel_slice_memory_stays_near_one_link():
    # Sixteen transmitters: every link from one of them to one of the four
    # idle nodes has the other fifteen as its pool, the largest the channel
    # averages; a slice may hold no more at once than about one such link does.
    nodes = [(1, "source", 0, 0)]
    nodes += [(k, "relay", 1 + 0.3 * k, (-1) ** k * 0.2 * k) for k in range(2, 20)]
    nodes.append((20, "destination", 9, 0))
    spec = make_spec(nodes, slots=1)
    tau = rate_matrix(spec, [[0.5]] * 15 + [[0.0]] * 3, [[1.0]])
    assert len(interferers(tau, 1, 20, 1)) == 15
    gain_matrix(spec)

    tracemalloc.start()
    try:
        _link_probability_reference(spec, tau, 1, 20, 1)
        link_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        channel_matrix(tau, spec)
        slice_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slice_peak <= 2 * link_peak, (slice_peak, link_peak)


def _small_strategy(seed):
    """A seeded net of 1–2 sources, 2–4 relays and 1–2 destinations over
    2–3 slots: each source sends in one slot at rate 0.5 or 1, and each relay
    is active with probability 0.7 in one slot at a rate up to 0.3. No gate
    is checked."""
    rng = np.random.default_rng([seed, 3])
    n_src, n_rel, n_dst, slots = (
        int(rng.integers(lo, hi)) for lo, hi in ((1, 3), (2, 5), (1, 3), (2, 4))
    )
    nodes = [(k, "source", 0.0, rng.uniform(-0.5, 0.5)) for k in range(1, n_src + 1)]
    nodes += [
        (n_src + k, "relay", rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
        for k in range(1, n_rel + 1)
    ]
    nodes += [
        (n_src + n_rel + k, "destination", 2.2, rng.uniform(-0.5, 0.5))
        for k in range(1, n_dst + 1)
    ]
    spec = make_spec(nodes, slots=slots)
    source_rows = np.zeros((n_src, slots))
    source_rows[np.arange(n_src), rng.integers(0, slots, n_src)] = rng.choice((0.5, 1.0), n_src)
    relay_rows = np.zeros((n_rel, slots))
    for row in relay_rows:
        if rng.random() < 0.7:
            row[rng.integers(0, slots)] = rng.choice((0.05, 0.1, 0.2, 0.3))
    return spec, rate_matrix(spec, relay_rows, source_rows)


def _forwarding(tau, P, spec, seed):
    """The closed form, else one sampler draw, else (tau is infeasible) an
    X that forwards nothing."""
    try:
        try:
            return solve_chain_closed_form(tau, P, spec)
        except ClosedFormNotApplicableError:
            return sample_feasible_forwarding(tau, P, spec, 1, seed)[0]
    except ParetoRelayError:
        n, slots = spec.n_nodes, spec.slot_count
        return ForwardingMatrix(np.zeros((n, n, slots, slots)))


def _channel_readings(tau, X, spec, P):
    """Everything the pipeline reads from a channel, as exact reprs and bytes:
    both gate reports, the consistency residuals, the prune's flow rate, the
    oracle's injections, and evaluate's criteria or its error."""
    readings = [
        repr(check_flow_conservation(tau, P).entries),
        repr(check_half_duplex(tau, P).entries),
        repr(consistency_residuals(X, tau, P).entries),
        tau_flow_rate(tau, P).hex(),
        [(t, a.tobytes(), b.tobytes()) for t, a, b in _injections(tau, X, P, spec)],
    ]
    try:
        readings.append([c.hex() for c in evaluate(tau, X, spec, channel=P).as_tuple()])
    except ParetoRelayError as exc:
        readings.append(f"{type(exc).__name__}: {exc}")
    return readings


def test_idle_sender_links_change_no_reading():
    # Every reader weighs p_ij^u by tau_i^u or reads only active
    # transmissions, so filling the idle-sender links with their exact
    # per-link p must leave every reading identical to the bit.
    evaluated = 0
    for seed in range(40):
        spec, tau = _small_strategy(seed)
        P = channel_matrix(tau, spec)
        probs = P.probs.copy()
        idle = np.argwhere(~sending_links(tau) & ~np.eye(spec.n_nodes, dtype=bool)[:, :, None])
        for i, j, u in idle.tolist():
            probs[i, j, u] = channel_probability_exact(spec, tau, i + 1, j + 1, u + 1)
        filled = ChannelMatrix.from_dense(probs)
        assert (filled.probs != P.probs).any()
        X = _forwarding(tau, P, spec, seed)
        assert X.values.tobytes() == _forwarding(tau, filled, spec, seed).values.tobytes()
        readings = _channel_readings(tau, X, spec, P)
        assert readings == _channel_readings(tau, X, spec, filled), seed
        evaluated += isinstance(readings[-1], list)
    assert evaluated >= 30, evaluated
