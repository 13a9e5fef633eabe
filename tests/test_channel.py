import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_relay import (
    ChannelConfig,
    ChannelMatrix,
    ber_bpsk_awgn,
    channel_matrix,
    channel_probability_exact,
    channel_probability_sampled,
    interference_candidates,
    packet_success,
)
from pareto_relay import RateGrid, enumerate_rate_matrices, topology
from pareto_relay.channel import _link_seed
from pareto_relay.errors import EnumerationCapError, SchemaError
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
    spec = five_node()
    tau = rate_matrix(
        spec,
        [[0.5, 0.0], [0.5, 0.0], [0.0, 0.3]],
        [[1.0, 0.0]],
    )
    assert interference_candidates(tau, 1, 5, 1) == (2, 3)
    assert interference_candidates(tau, 2, 5, 1) == (1, 3)
    assert interference_candidates(tau, 1, 2, 1) == (3,)
    assert interference_candidates(tau, 1, 5, 2) == (4,)
    idle = rate_matrix(spec, [[0.0] * 2] * 3, [[0.0, 0.0]])
    assert interference_candidates(idle, 1, 5, 1) == ()


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
    pool = interference_candidates(tau, 1, 5, 1)
    total = 0.0
    for r in range(len(pool) + 1):
        for members in itertools.combinations(pool, r):
            total += interfering_set_probability(members, pool, 1, tau)
    assert total == pytest.approx(1.0, abs=1e-12)


def _brute_force_probability(spec, tau, sender, receiver, slot):
    """Independent oracle: explicit subset enumeration via combinations."""
    pool = interference_candidates(tau, sender, receiver, slot)
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


def test_exact_probability_cap():
    nodes = [(1, "source", 0, 0)]
    nodes += [(1 + k, "relay", k, 1) for k in range(1, 22)]
    nodes += [(23, "destination", 22, 0)]
    spec = make_spec(nodes, slots=1)
    tau = rate_matrix(spec, [[0.5]] * 21, [[1.0]])
    with pytest.raises(EnumerationCapError):
        channel_probability_exact(spec, tau, 1, 23, 1, cap=20)
    # a generous cap admits the same pool
    assert 0.0 <= channel_probability_exact(spec, tau, 1, 23, 1, cap=21) <= 1.0


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
    assert P.p(1, 2, 1) == pytest.approx(packet_success(10.0, 100), abs=1e-15)
    assert P.p(1, 3, 1) == pytest.approx(packet_success(2.5, 100), abs=1e-15)
    assert P.p(2, 3, 2) == pytest.approx(packet_success(10.0, 100), abs=1e-15)


def test_channel_matrix_shared_slot_strictly_below_interference_free():
    spec = five_node()
    quiet = rate_matrix(spec, [[0.0, 0.0]] * 3, [[1.0, 0.0]])
    busy = rate_matrix(spec, [[0.6, 0.0], [0.6, 0.0], [0.6, 0.0]], [[1.0, 0.0]])
    P_quiet = channel_matrix(quiet, spec)
    P_busy = channel_matrix(busy, spec)
    for j in (2, 3, 4, 5):
        assert P_busy.p(1, j, 1) < P_quiet.p(1, j, 1)
        assert P_busy.p(1, j, 2) == P_quiet.p(1, j, 2)


def test_channel_matrix_sampled_fallback_deterministic_and_close():
    spec = five_node()
    tau = rate_matrix(spec, [[0.3, 0.0], [0.7, 0.0], [0.25, 0.0]], [[0.9, 0.0]])
    exact = channel_matrix(tau, spec)
    cfg = ChannelConfig(exact_cap=0, samples=100_000, seed=5)
    sampled_a = channel_matrix(tau, spec, cfg)
    sampled_b = channel_matrix(tau, spec, cfg)
    assert np.array_equal(sampled_a.probs, sampled_b.probs)
    assert np.max(np.abs(sampled_a.probs - exact.probs)) < 5e-3


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
    channel_matrix(tau, spec, ChannelConfig(exact_cap=0, samples=10))
    n = spec.n_nodes
    assert len(calls) == n * (n - 1)
    with pytest.raises(ValueError):
        gain_matrix(spec)[0, 1] = 0.5


@pytest.mark.parametrize(
    "config", [ChannelConfig(), ChannelConfig(exact_cap=0, samples=64)],
    ids=["exact", "sampled"],
)
def test_channel_matrix_slot_cache_matches_fresh(config):
    # One cache serves every tau of a search, with default and with given
    # source rates; with all links sampled, equal columns in different slots
    # must not share a slice (each link is seeded by its slot).
    spec = five_node()
    grid = RateGrid.parse("0,0.5")
    cache = {}
    columns = set()
    for sources in (None, np.array([[0.5, 0.5]])):
        for tau in enumerate_rate_matrices(grid, spec, 2, source_rates=sources):
            cached = channel_matrix(tau, spec, config, slot_cache=cache)
            fresh = channel_matrix(tau, spec, config)
            assert np.array_equal(cached.probs, fresh.probs)
            columns |= {
                (u, tuple(tau.rate(i, u) for i in range(1, spec.n_nodes + 1)))
                for u in range(1, spec.slot_count + 1)
            }
    # One slice per distinct (slot, column) pair: repeated columns share it.
    assert len(cache) == len(columns)


def test_channel_matrix_diagonal_access_rejected(three_node):
    P = injected_channel(3, 2, {(1, 2, 1): 0.5})
    with pytest.raises(ValueError):
        P.p(2, 2, 1)


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
# The slice kernel must match it bit for bit.


def _link_probability_reference(spec, tau, sender, receiver, slot):
    pool = interference_candidates(tau, sender, receiver, slot)
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


def _channel_matrix_reference(tau, spec, config=ChannelConfig()):
    n, slots = spec.n_nodes, spec.slot_count
    probs = np.zeros((n, n, slots))
    for u in range(1, slots + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                if len(interference_candidates(tau, i, j, u)) <= config.exact_cap:
                    p = _link_probability_reference(spec, tau, i, j, u)
                else:
                    p, _ = channel_probability_sampled(
                        spec, tau, i, j, u, config.samples,
                        seed=_link_seed(config.seed, i, j, u),
                    )
                probs[i - 1, j - 1, u - 1] = p
    return probs


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
    got = channel_matrix(tau, spec).probs
    assert np.array_equal(got, _channel_matrix_reference(tau, spec))


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
    assert np.array_equal(channel_matrix(tau, spec).probs, _channel_matrix_reference(tau, spec))


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
    assert np.array_equal(channel_matrix(tau, spec).probs, _channel_matrix_reference(tau, spec))


def test_channel_matrix_cap_splits_the_pools_of_one_slice():
    # Five transmitters in slot 1: pools of 5 (two idle endpoints), 4 (one
    # active endpoint) and 3 (two). A cap of 4 samples only the first kind.
    spec, _ = _wide_strategy(0)
    relay_rows = np.zeros((12, 3))
    relay_rows[[0, 3, 5, 8], 0] = (0.1, 0.15, 0.05, 0.1)
    tau = rate_matrix(spec, relay_rows, [[1.0, 0.0, 0.0]])
    config = ChannelConfig(exact_cap=4, samples=256, seed=3)
    got = channel_matrix(tau, spec, config).probs
    assert np.array_equal(got, _channel_matrix_reference(tau, spec, config))
    exact = channel_matrix(tau, spec).probs
    off_diagonal = ~np.eye(spec.n_nodes, dtype=bool)
    same = (got[:, :, 0] == exact[:, :, 0])[off_diagonal]
    assert same.any() and not same.all()


def test_channel_slice_memory_stays_near_one_link():
    # Sixteen transmitters share the pool of every link between the four idle
    # nodes; a slice may hold no more at once than about one such link does.
    nodes = [(1, "source", 0, 0)]
    nodes += [(k, "relay", 1 + 0.3 * k, (-1) ** k * 0.2 * k) for k in range(2, 20)]
    nodes.append((20, "destination", 9, 0))
    spec = make_spec(nodes, slots=1)
    tau = rate_matrix(spec, [[0.5]] * 15 + [[0.0]] * 3, [[1.0]])
    assert len(interference_candidates(tau, 17, 20, 1)) == 16
    gain_matrix(spec)

    tracemalloc.start()
    try:
        _link_probability_reference(spec, tau, 17, 20, 1)
        link_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        channel_matrix(tau, spec)
        slice_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slice_peak <= 2 * link_peak, (slice_peak, link_peak)
