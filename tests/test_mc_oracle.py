import numpy as np
import pytest

from pareto_relay import (
    CriteriaVector,
    ForwardingMatrix,
    SimConfig,
    evaluate,
    sample_feasible_forwarding,
    simulate,
    solve_chain_closed_form,
)
from pareto_relay import mc_oracle
from pareto_relay.errors import FlowConservationError, InconsistentForwardingError
from pareto_relay.mc_oracle import CriterionEstimate, _injections, _simulate_block
from pareto_relay.steady_state import build_arrival_matrix, build_relaying_matrix

from conftest import injected_channel, line_spec, make_spec, rate_matrix


def single_relay_fixture():
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.8, (1, 3, 1): 0.2, (2, 3, 2): 0.9})
    X = solve_chain_closed_form(tau, P, spec)
    analytic = evaluate(tau, X, spec, channel=P)
    return spec, tau, P, X, analytic


def two_relay_fixture():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0),
            (3, "relay", 2, 0),
            (4, "destination", 3, 0),
        ],
        slots=3,
    )
    tau = rate_matrix(
        spec, [[0.0, 0.4, 0.0], [0.0, 0.0, 0.2]], [[1.0, 0.0, 0.0]]
    )
    P = injected_channel(
        4,
        3,
        {
            (1, 2, 1): 0.8,
            (1, 4, 1): 0.1,
            (2, 3, 2): 0.7,
            (2, 4, 2): 0.3,
            (3, 4, 3): 0.9,
        },
    )
    X = solve_chain_closed_form(tau, P, spec)
    analytic = evaluate(tau, X, spec, channel=P)
    return spec, tau, P, X, analytic


def multi_fixture():
    """Sources 1 and 2 feed relay 3 in slot 1, and it forwards to
    destinations 4 and 5 in slot 2. Both sources also reach the
    destinations directly. Source 1 sends in slot 2 as well, where it
    reaches no one, and neither source sends in every frame."""
    spec = make_spec(
        [
            (1, "source", 0, 1),
            (2, "source", 0, -1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 1),
            (5, "destination", 2, -1),
        ],
        slots=2,
    )
    tau = rate_matrix(spec, [[0.0, 0.4]], [[0.8, 0.3], [0.6, 0.0]])
    P = injected_channel(
        5,
        2,
        {
            (1, 3, 1): 0.7,
            (1, 4, 1): 0.2,
            (1, 5, 1): 0.3,
            (2, 3, 1): 0.5,
            (2, 5, 1): 0.4,
            (3, 4, 2): 0.8,
            (3, 5, 2): 0.6,
        },
    )
    (X,) = sample_feasible_forwarding(tau, P, spec, count=1, seed=0)
    return spec, tau, P, X, evaluate(tau, X, spec, channel=P)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_packets": 0, "seed": 0},
        {"n_packets": 10, "seed": 0, "max_epochs": 0},
        {"n_packets": 10, "seed": 0, "confidence": 0.0},
        {"n_packets": 10, "seed": 0, "confidence": 1.0},
        {"n_packets": 10, "seed": 0, "confidence": float("nan")},
        {"n_packets": 10, "seed": -1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_deterministic_direct_link(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 3, 1): 1.0})
    X = ForwardingMatrix.zeros(3, 2)
    est = simulate(tau, X, three_node, SimConfig(n_packets=5000, seed=0), channel=P)
    assert est.flow.mean == 1.0
    assert est.flow.se == 0.0
    assert est.flow.covers(1.0)
    assert est.delay.mean == 0.0 and est.delay.se == 0.0
    assert est.energy.mean == 0.0 and est.energy.se == 0.0
    assert est.truncated == 0 and not est.truncation_warning


def test_same_seed_reproducible():
    spec, tau, P, X, _ = single_relay_fixture()
    cfg = SimConfig(n_packets=20_000, seed=42)
    a = simulate(tau, X, spec, cfg, channel=P)
    b = simulate(tau, X, spec, cfg, channel=P)
    assert a == b
    c = simulate(tau, X, spec, SimConfig(n_packets=20_000, seed=43), channel=P)
    assert a.flow.mean != c.flow.mean


def test_thread_count_invariance(monkeypatch):
    spec, tau, P, X, _ = single_relay_fixture()
    monkeypatch.setattr(mc_oracle, "BLOCK_SIZE", 1000)
    serial = simulate(
        tau, X, spec, SimConfig(n_packets=20_000, seed=3, threads=1), channel=P
    )
    parallel = simulate(
        tau, X, spec, SimConfig(n_packets=20_000, seed=3, threads=4), channel=P
    )
    assert serial == parallel


def test_ci_covers_analytic_single_relay():
    spec, tau, P, X, analytic = single_relay_fixture()
    est = simulate(tau, X, spec, SimConfig(n_packets=100_000, seed=0), channel=P)
    assert est.flow.se > 0
    assert est.flow.covers(analytic.f)
    assert est.delay.covers(analytic.f_d)
    assert est.energy.covers(analytic.f_e)


def test_ci_covers_analytic_two_relay_chain():
    spec, tau, P, X, analytic = two_relay_fixture()
    est = simulate(tau, X, spec, SimConfig(n_packets=50_000, seed=1), channel=P)
    assert est.flow.covers(analytic.f)
    assert est.delay.covers(analytic.f_d)
    assert est.energy.covers(analytic.f_e)


def test_standard_error_scales_inverse_sqrt():
    spec, tau, P, X, _ = single_relay_fixture()
    small = simulate(tau, X, spec, SimConfig(n_packets=25_000, seed=5), channel=P)
    big = simulate(tau, X, spec, SimConfig(n_packets=100_000, seed=5), channel=P)
    assert small.flow.se / big.flow.se == pytest.approx(2.0, rel=0.2)
    assert small.energy.se / big.energy.se == pytest.approx(2.0, rel=0.2)


def test_truncation_is_reported():
    spec, tau, P, X, analytic = single_relay_fixture()
    est = simulate(
        tau, X, spec, SimConfig(n_packets=5000, seed=0, max_epochs=1), channel=P
    )
    # roughly 40% of trials spawn a relay copy that the cap now drops
    assert est.truncated > 0
    assert est.truncation_warning
    assert est.flow.mean < analytic.f
    assert est.energy.mean == 0.0
    # one extra epoch lets the single-hop cascade finish
    full = simulate(
        tau, X, spec, SimConfig(n_packets=5000, seed=0, max_epochs=2), channel=P
    )
    assert full.truncated == 0 and not full.truncation_warning


def test_simulate_applies_feasibility_gates():
    spec, _, P, X, _ = single_relay_fixture()
    too_fast = rate_matrix(spec, [[0.0, 0.9]], [[1.0, 0.0]])
    with pytest.raises(FlowConservationError, match="flow conservation"):
        simulate(too_fast, ForwardingMatrix.zeros(3, 2), spec,
                 SimConfig(n_packets=10, seed=0), channel=P)
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    with pytest.raises(InconsistentForwardingError):
        simulate(tau, ForwardingMatrix.zeros(3, 2), spec,
                 SimConfig(n_packets=10, seed=0), channel=P)


def test_estimate_json_shape():
    spec, tau, P, X, _ = single_relay_fixture()
    est = simulate(tau, X, spec, SimConfig(n_packets=1000, seed=0), channel=P)
    doc = est.to_json_dict()
    assert set(doc) == {
        "f", "f_d", "f_e", "n_packets", "confidence", "truncated",
        "truncation_warning",
    }
    assert set(doc["f"]) == {"mean", "se", "ci_low", "ci_high"}
    assert doc["n_packets"] == 1000


def test_criterion_estimate_covers():
    est = CriterionEstimate(mean=0.5, se=0.1, ci_low=0.3, ci_high=0.7)
    assert est.covers(0.3) and est.covers(0.7) and est.covers(0.5)
    assert not est.covers(0.29) and not est.covers(0.71)


def _simulate_block_reference(block_idx, block_n, seed, injections, Q, D, max_epochs):
    """The loop that the batched oracle replaced: one binomial call per
    positive probability, each over every trial of the block."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
    )
    l = Q.shape[0]
    f_cnt = np.zeros(block_n, dtype=np.int64)
    delay_cnt = np.zeros(block_n, dtype=np.int64)
    energy_cnt = np.zeros(block_n, dtype=np.int64)
    counts = np.zeros((block_n, l), dtype=np.int64)

    for t_src, spawn, direct in injections:
        tx = (rng.random(block_n) < t_src).astype(np.int64)
        for p in direct:
            if p > 0.0:
                f_cnt += rng.binomial(tx, p)
        for b in range(l):
            if spawn[b] > 0.0:
                counts[:, b] += rng.binomial(tx, spawn[b])

    truncated = 0
    epoch = 2
    while counts.any():
        if epoch > max_epochs:
            truncated = int(np.count_nonzero(counts.sum(axis=1)))
            break
        energy_cnt += counts.sum(axis=1)
        new_counts = np.zeros_like(counts)
        for a in range(l):
            n_a = counts[:, a]
            if not n_a.any():
                continue
            for col in range(D.shape[1]):
                if D[a, col] > 0.0:
                    delivered = rng.binomial(n_a, D[a, col])
                    f_cnt += delivered
                    delay_cnt += delivered * (epoch - 1)
            for b in range(l):
                if Q[a, b] > 0.0:
                    new_counts[:, b] += rng.binomial(n_a, Q[a, b])
        counts = new_counts
        epoch += 1

    moments = np.array(
        [
            f_cnt.sum(),
            (f_cnt**2).sum(),
            delay_cnt.sum(),
            (delay_cnt**2).sum(),
            energy_cnt.sum(),
            (energy_cnt**2).sum(),
        ],
        dtype=np.int64,
    )
    return moments, truncated


def _block_inputs(fixture):
    spec, tau, P, X, _ = fixture()
    Q = build_relaying_matrix(X, tau, P)
    D = build_arrival_matrix(tau, P, spec)
    return _injections(tau, X, P, spec), Q, D


def _assert_single_relay(injections, Q, D, results):
    # copies reach the relay and it forwards them, with nothing truncated
    assert not Q.any() and D.any()
    assert all(m[4] > 0 and t == 0 for m, t in results)


def _assert_relay_to_relay(injections, Q, D, results):
    # the near relay feeds the far one, so some deliveries take two hops
    assert Q.any()
    assert all(m[3] > m[2] and t == 0 for m, t in results)


def _assert_multi(injections, Q, D, results):
    # three injections, one of which reaches no one; direct delivery to
    # both destinations; the relay's row of D has two positive columns
    assert len(injections) == 3
    assert any(not (spawn.any() or direct.any()) for _, spawn, direct in injections)
    assert any(np.count_nonzero(direct) == 2 for _, _, direct in injections)
    assert all(t_src < 1.0 for t_src, _, _ in injections)
    assert np.count_nonzero(D[0]) == 2
    assert all(m[0] > 0 and m[4] > 0 for m, _ in results)


def _assert_truncated(injections, Q, D, results):
    assert all(t > 0 for _, t in results)


BLOCK_CASES = {
    "single-relay": (single_relay_fixture, 10_000, _assert_single_relay),
    "two-relay-chain": (two_relay_fixture, 10_000, _assert_relay_to_relay),
    "multi-source-multi-destination": (multi_fixture, 10_000, _assert_multi),
    "max-epochs-truncates": (two_relay_fixture, 2, _assert_truncated),
}


@pytest.mark.parametrize("block_n", [1_000, 65_536])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_simulate_block_matches_reference(case, block_n):
    """Drawing each row's binomials in one call over live trials keeps
    every draw of the per-probability loop: same moments, same count of
    truncated trials."""
    fixture, max_epochs, reaches_path = BLOCK_CASES[case]
    injections, Q, D = _block_inputs(fixture)
    results = []
    for seed in (0, 1, 7, 123):
        got = _simulate_block(0, block_n, seed, injections, Q, D, max_epochs)
        want = _simulate_block_reference(0, block_n, seed, injections, Q, D, max_epochs)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        results.append(got)
    reaches_path(injections, Q, D, results)
