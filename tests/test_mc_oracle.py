import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from pareto_relay.mc_oracle import (
    CriterionEstimate,
    _injections,
    _log_q,
    _scatter,
)
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


def parallel_relays_fixture():
    """The source reaches two relays with certainty, each forwarding at
    rate 0.45, so about 70% of trials hold a copy after injection: more
    than the half block a worker's pool holds."""
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 1),
            (3, "relay", 1, -1),
            (4, "destination", 2, 0),
        ],
        slots=2,
    )
    tau = rate_matrix(spec, [[0.0, 0.45], [0.0, 0.45]], [[1.0, 0.0]])
    P = injected_channel(
        4,
        2,
        {(1, 2, 1): 1.0, (1, 3, 1): 1.0, (1, 4, 1): 0.1, (2, 4, 2): 0.7, (3, 4, 2): 0.7},
    )
    X = solve_chain_closed_form(tau, P, spec)
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
        {"n_packets": 10, "seed": 0, "threads": 0},
        {"n_packets": 10, "seed": 0, "threads": -2},
        {"n_packets": 1, "seed": 0},  # a standard error needs two trials
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
    """More workers than cores, switching threads every microsecond, run
    each of the 20 blocks exactly once in their stripes: a block lost or
    run twice would change the moments."""
    spec, tau, P, X, _ = single_relay_fixture()
    monkeypatch.setattr(mc_oracle, "BLOCK_SIZE", 1000)
    serial = simulate(
        tau, X, spec, SimConfig(n_packets=20_000, seed=3, threads=1), channel=P
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = simulate(
            tau, X, spec, SimConfig(n_packets=20_000, seed=3, threads=4), channel=P
        )
    finally:
        sys.setswitchinterval(interval)
    assert serial == parallel


def test_unknown_numpy_log_rule_draws_through_numpy(monkeypatch):
    """With numpy's log q rule unknown, every row is drawn by
    ``Generator.binomial`` one run at a time. With 1000-trial blocks a
    pool holds several runs; the estimate is the same at 1 and 2 threads
    and equals the inversion path's, which mirrors numpy's draws (here
    with trials holding two copies, which go through ``_inversion``)."""
    spec, tau, P, X, _ = multi_fixture()
    monkeypatch.setattr(mc_oracle, "BLOCK_SIZE", 1000)
    inversions = []
    inversion = mc_oracle._inversion
    monkeypatch.setattr(
        mc_oracle, "_inversion", lambda *a: inversions.append(a[0]) or inversion(*a)
    )
    config = SimConfig(n_packets=6000, seed=4)
    inverted = simulate(tau, X, spec, config, channel=P)
    assert inversions
    inversions.clear()
    monkeypatch.setattr(mc_oracle, "_log_q", lambda: None)
    serial = simulate(tau, X, spec, config, channel=P)
    parallel = simulate(tau, X, spec, SimConfig(n_packets=6000, seed=4, threads=2), channel=P)
    assert serial == parallel == inverted
    assert not inversions


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


def _assert_injection_only(injections, Q, D, results):
    # every copy a relay holds is truncated before it is sent on
    assert all(t > 0 and m[2] == m[4] == 0 for m, t in results)


def _assert_overflows(injections, Q, D, results):
    # one sure source; a trial holds no copy only if both relays miss it
    ((t_src, spawn, _),) = injections
    assert t_src == 1.0 and 1.0 - np.prod(1.0 - spawn) > 0.6
    assert all(m[4] > 0 and t == 0 for m, t in results)


BLOCK_CASES = {
    "single-relay": (single_relay_fixture, 10_000, _assert_single_relay),
    "two-relay-chain": (two_relay_fixture, 10_000, _assert_relay_to_relay),
    "multi-source-multi-destination": (multi_fixture, 10_000, _assert_multi),
    "max-epochs-truncates": (two_relay_fixture, 2, _assert_truncated),
    "max-epochs-1": (multi_fixture, 1, _assert_injection_only),
    "live-set-overflows-pool": (parallel_relays_fixture, 10_000, _assert_overflows),
}


@pytest.mark.parametrize("block_n", [1_000, 65_536])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_simulate_block_matches_reference(case, block_n):
    """One block through a worker's pool, whose steps draw each row's
    binomials in one call over the live trials, keeps every draw of the
    per-probability loop: same moments, same count of truncated trials."""
    fixture, max_epochs, reaches_path = BLOCK_CASES[case]
    injections, Q, D = _block_inputs(fixture)
    results = []
    for seed in (0, 1, 7, 123):
        # block 0, alone in a worker's pool
        got = mc_oracle._work([0], seed, block_n, injections, Q, D, max_epochs)
        want = _simulate_block_reference(0, block_n, seed, injections, Q, D, max_epochs)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        results.append(got)
    reaches_path(injections, Q, D, results)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_reused_block_arrays_carry_nothing_over(monkeypatch, case, threads):
    """Each worker thread advances the live trials of all the blocks of
    its stripe together in one pool, which half a block fills. With
    1000-trial blocks and a short last one, simulate's moments and
    truncated count are the per-block sums of the reference loop, which
    runs every block alone in fresh arrays. Each worker allocates one
    pool, which grows to a whole block, once, only when a block's live
    trials overflow it empty."""
    fixture, max_epochs, reaches_path = BLOCK_CASES[case]
    spec, tau, P, X, _ = fixture()
    injections = _injections(tau, X, P, spec)
    Q = build_relaying_matrix(X, tau, P)
    D = build_arrival_matrix(tau, P, spec)
    n, seed = 20_500, 5
    want = np.zeros(6, dtype=np.int64)
    want_truncated = 0
    n_blocks = -(-n // 1000)  # the last block holds 500 trials
    for b in range(n_blocks):
        m, t = _simulate_block_reference(
            b, min(1000, n - 1000 * b), seed, injections, Q, D, max_epochs
        )
        want += m
        want_truncated += t
    reaches_path(injections, Q, D, [(want, want_truncated)])

    monkeypatch.setattr(mc_oracle, "BLOCK_SIZE", 1000)
    moments = []
    estimate = mc_oracle._estimate
    monkeypatch.setattr(
        mc_oracle, "_estimate", lambda *a: moments.extend(a[:2]) or estimate(*a)
    )
    capacities = []
    allocate = mc_oracle._Pool._allocate
    monkeypatch.setattr(
        mc_oracle._Pool, "_allocate", lambda p, c: capacities.append(c) or allocate(p, c)
    )
    config = SimConfig(n_packets=n, seed=seed, max_epochs=max_epochs, threads=threads)
    got = simulate(tau, X, spec, config, channel=P)
    assert moments == want.tolist()
    assert got.truncated == want_truncated
    pools = capacities.count(500)
    assert pools == min(threads, n_blocks)
    grown = 1000 in capacities
    assert grown == (case == "live-set-overflows-pool")
    assert sorted(capacities) == [500] * pools + [1000] * (pools if grown else 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_truncation_drops_the_oldest_runs_only(monkeypatch, threads):
    """The two-relay chain with a source that sends in one frame of five:
    about 16% of a 1000-trial block joins, so several blocks' runs share a
    pool. At max_epochs = 2 a step truncates the runs that have already
    stepped once, oldest first, while a run that joined after them steps
    on; some step drops two or more runs and keeps a younger one. Moments
    and truncated count are the per-block sums of the reference loop."""
    spec, _, P, _, _ = two_relay_fixture()
    tau = rate_matrix(spec, [[0.0, 0.1, 0.0], [0.0, 0.0, 0.05]], [[0.2, 0.0, 0.0]])
    X = solve_chain_closed_form(tau, P, spec)
    injections = _injections(tau, X, P, spec)
    Q = build_relaying_matrix(X, tau, P)
    D = build_arrival_matrix(tau, P, spec)
    n, seed, max_epochs = 20_500, 5, 2
    want = np.zeros(6, dtype=np.int64)
    want_truncated = 0
    for b in range(-(-n // 1000)):
        m, t = _simulate_block_reference(
            b, min(1000, n - 1000 * b), seed, injections, Q, D, max_epochs
        )
        want += m
        want_truncated += t

    monkeypatch.setattr(mc_oracle, "BLOCK_SIZE", 1000)
    moments = []
    estimate = mc_oracle._estimate
    monkeypatch.setattr(
        mc_oracle, "_estimate", lambda *a: moments.extend(a[:2]) or estimate(*a)
    )
    drops = []  # (runs dropped, runs kept) of each truncating step
    step = mc_oracle._Pool.step

    def spy(pool):
        runs, truncated = list(pool.rngs), pool.truncated
        step(pool)
        if pool.truncated > truncated:
            kept = [any(rng is r for r in pool.rngs) for rng in runs]
            drops.append((kept.index(True) if any(kept) else len(kept), sum(kept)))

    monkeypatch.setattr(mc_oracle._Pool, "step", spy)
    config = SimConfig(n_packets=n, seed=seed, max_epochs=max_epochs, threads=threads)
    got = simulate(tau, X, spec, config, channel=P)
    assert moments == want.tolist()
    assert got.truncated == want_truncated > 0
    assert type(got.truncated) is int  # it goes into the JSON output
    assert any(dropped >= 2 and kept for dropped, kept in drops), drops


def test_workers_match_the_blocks(monkeypatch):
    """A call starts no more worker threads than it has blocks: 64 threads
    on a 3-block call start 3 workers, whose stripes hold one block each,
    and each allocates one pool."""
    spec, tau, P, X, _ = single_relay_fixture()
    monkeypatch.setattr(mc_oracle, "BLOCK_SIZE", 1000)
    config = SimConfig(n_packets=2500, seed=3, threads=64)
    serial = simulate(tau, X, spec, SimConfig(n_packets=2500, seed=3), channel=P)
    workers = []

    class Executor(mc_oracle.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    stripes, pools = [], []
    work, init = mc_oracle._work, mc_oracle._Pool.__init__
    monkeypatch.setattr(mc_oracle, "ThreadPoolExecutor", Executor)
    monkeypatch.setattr(
        mc_oracle, "_work", lambda blocks, *a: stripes.append(list(blocks)) or work(blocks, *a)
    )
    monkeypatch.setattr(mc_oracle._Pool, "__init__", lambda p, *a: pools.append(p) or init(p, *a))
    assert simulate(tau, X, spec, config, channel=P) == serial
    assert workers == [3]
    assert sorted(stripes) == [[0], [1], [2]]
    assert len(pools) == 3


def test_sure_source_skips_its_uniforms():
    """A source that sends in every frame (t_src = 1) advances each
    block's generator past the block's uniforms instead of drawing them:
    the generator ends where ``random(block_n)`` and one
    ``Generator.binomial`` call per probability over the block leave it,
    and the injection is the one a source that sends on every uniform
    below 1 - 2^-53 draws."""
    injections, Q, D = _block_inputs(single_relay_fixture)
    ((t_src, spawn, direct),) = injections
    assert t_src == 1.0
    block_n = 1000

    def inject(t, rng):
        pool = mc_oracle._Pool([(t, spawn, direct)], Q, D, block_n, 10)
        live = pool.inject(rng, block_n)
        return live, pool.injected.copy()

    def generator():
        return np.random.Generator(np.random.PCG64(5))

    sure, almost = generator(), generator()
    live, block = inject(1.0, sure)
    almost_live, almost_block = inject(1.0 - 2.0**-53, almost)
    assert np.array_equal(live, almost_live) and np.array_equal(block, almost_block)
    assert live.size and block[-1].any()
    numpy_rng = generator()
    numpy_rng.random(block_n)
    for p in [*direct[direct > 0.0], *spawn[spawn > 0.0]]:
        numpy_rng.binomial(np.ones(block_n, dtype=np.int64), p)
    for rng in (sure, almost):
        assert rng.bit_generator.state == numpy_rng.bit_generator.state


# Prints the minor page faults of a 2-block and a 16-block simulate call
# at threads 1, after one warm-up call. They are the whole process's: the
# call runs its blocks on a worker thread.
FAULTS_CHILD = """
import json, resource
from pareto_relay import SimConfig, mc_oracle, simulate
from test_mc_oracle import single_relay_fixture
spec, tau, P, X, _ = single_relay_fixture()
allocate = mc_oracle._Pool._allocate
allocations = [0]

def counting(pool, capacity):
    allocations[0] += 1
    allocate(pool, capacity)

mc_oracle._Pool._allocate = counting

def faults(blocks):
    config = SimConfig(n_packets=blocks * mc_oracle.BLOCK_SIZE, seed=0)
    allocations[0] = 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate(tau, X, spec, config, channel=P)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, allocations[0]

faults(2)
print(json.dumps([faults(2), faults(16)]))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts glibc's page faults"
)
def test_block_arrays_are_not_faulted_in_per_block():
    """A call allocates its worker's arrays (the pool of live trials and
    the injection buffers) once, not once per block: a 16-block call
    takes no more minor page faults than a 2-block one plus a slack of 64
    pages (256 KiB) for each extra block. Arrays freed at
    the end of each block go back to the kernel and are faulted in again
    by the next, over 800 pages a block on this fixture. The calls run in
    a fresh interpreter: inside the test process, the heap that earlier
    tests leave behind can hide the re-faulting.

    Whether glibc hands freed arrays back depends on the heap's history,
    so the faults alone can miss a fresh pool per block; the call's one
    worker must also allocate its pool's arrays once, plus at most one
    regrow."""
    tests = Path(__file__).resolve().parent
    src = Path(mc_oracle.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_CHILD],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": f"{src}{os.pathsep}{tests}", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    (two, two_pools), (sixteen, sixteen_pools) = json.loads(proc.stdout)
    assert sixteen <= two + 14 * 64, (two, sixteen)
    assert 1 <= two_pools <= 2 and 1 <= sixteen_pools <= 2, (two_pools, sixteen_pools)


# Prints the tracemalloc peak of a 10^6-packet simulate call at threads 1
# on the benchmark's 3-relay oracle fixture, and its count l of transient
# states.
PEAK_CHILD = """
import importlib.util, json, sys, tracemalloc
import pareto_relay
from pareto_relay import ForwardingMatrix, RateMatrix, SimConfig, channel_matrix, simulate
from pareto_relay.steady_state import build_relaying_matrix
spec = importlib.util.spec_from_file_location("bench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
names = [name for name, *_ in workloads.ORACLE_FIXTURES]
topology, (tau_doc, x_doc) = workloads.fixture_strategy(pareto_relay, names.index(sys.argv[2]))
net = pareto_relay.load_network(topology)
tau = RateMatrix.from_json(net, json.dumps(tau_doc))
X = ForwardingMatrix.from_json(json.dumps(x_doc), net.n_nodes, net.slot_count)
P = channel_matrix(tau, net)
tracemalloc.start()
simulate(tau, X, net, SimConfig(n_packets=10**6, seed=0), channel=P)
print(json.dumps([tracemalloc.get_traced_memory()[1], len(build_relaying_matrix(X, tau, P))]))
"""


def test_worker_memory_stays_within_the_readme_formula():
    """README bounds a worker thread's arrays by (2l + 4) int64 rows of
    half a block, for the pool of live trials, plus l + 9 bytes per trial
    of a block, for the injection buffer and the uniforms. A 1-thread call
    on the 3-relay benchmark fixture (l = 3) peaks within 1 MiB of that,
    which leaves room for one row-sized temporary at a time and the other
    small arrays of a step. The call runs in a fresh interpreter so that
    tracemalloc sees only its allocations."""
    tests = Path(__file__).resolve().parent
    src = Path(mc_oracle.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_CHILD, str(tests.parent / "bench" / "workloads.py"),
         "3-relay shared slot"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    peak, l = json.loads(proc.stdout)
    block = mc_oracle.BLOCK_SIZE
    formula = (2 * l + 4) * (block // 2) * 8 + (l + 9) * block
    assert l == 3
    assert peak < formula + 2**20, (peak / 2**20, formula / 2**20)


def _first_uniform(u: float) -> np.random.Generator:
    """A generator whose first uniform is ``u`` (a multiple of 2^-53):
    SFC64's first output is a + b + counter of its state words
    (a, b, c, counter), and a uniform is that output's top 53 bits over
    2^53."""
    bits = np.random.SFC64()
    words = np.array([int(u * 2.0**53) << 11, 0, 0, 0], dtype=np.uint64)
    bits.state = {"bit_generator": "SFC64", "state": {"state": words},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def _numpy_threshold(n: int, p: float) -> float:
    """The smallest uniform on which numpy's binomial(n, p), p <= 0.5,
    draws X > 0: it sits at numpy's own P(X = 0), whatever libm call
    numpy computes that with."""
    lo, hi = 0, 2**53 - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _first_uniform(mid / 2.0**53).binomial(n, p) > 0:
            hi = mid
        else:
            lo = mid
    return hi / 2.0**53


def _assert_segments_match_numpy(ours, theirs, starts, n, probs):
    """``_scatter`` over the segments of ``n`` cut at ``starts``, segment
    k drawn from ``ours[k]``, against one ``Generator.binomial`` call per
    p and segment on ``theirs[k]``. The first p's draws go to ``first``,
    the others to the rows of ``to`` in reverse order; both start at 7,
    so the draws must be added."""
    n = np.asarray(n, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    # a buffer longer than n, filled with junk, as a reused one would be
    u = np.full(n.size + 3, 2.0)
    n_first = min(1, len(probs))
    rows = np.arange(len(probs) - n_first)[::-1]
    first = np.full(n.size, 7, dtype=np.int64)
    to = np.full((rows.size, n.size), 7, dtype=np.int64)
    _scatter(ours, starts, n, (probs, n_first, rows), u, first, to)
    got = [first - 7] * n_first + [to[b] - 7 for b in rows]
    # zero where n = 0
    for x in got:
        assert not x[n == 0].any()
    cuts = [*starts.tolist(), n.size]
    want = [
        np.concatenate([rng.binomial(n[s:e], p) for rng, s, e in zip(theirs, cuts, cuts[1:])])
        for p in probs
    ]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    # every generator stands where numpy's calls left it
    for mine, numpy_rng in zip(ours, theirs):
        assert mine.random() == numpy_rng.random()


def _assert_rows_match_numpy(ours, theirs, n, probs):
    _assert_segments_match_numpy([ours], [theirs], [0], n, probs)


def test_numpy_log_q_is_known():
    """The installed numpy's log(1 - p) is one of the two known rules, so
    the oracle draws by inversion rather than through ``rng.binomial``."""
    assert _log_q() is not None


PROBABILITIES = st.sampled_from([0.5, 1.0 - 1e-12, 1e-300, 0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    n=arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 70))
    | arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 2)),
    probs=st.lists(PROBABILITIES, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_binomial_rows_match_numpy(n, probs, seed):
    """Element for element the draws of ``Generator.binomial(n, p)``, one
    call per p, and the same generator state afterwards. n up to 70
    reaches numpy's BTPE branch (n * min(p, 1 - p) > 30)."""
    _assert_rows_match_numpy(
        np.random.default_rng(seed), np.random.default_rng(seed), n, probs
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    p=st.floats(1e-6, 0.5) | st.sampled_from([0.3, 0.01375, 0.2, 0.5]),
    flip=st.booleans(),
    step=st.sampled_from([0, -1, 1]),
)
def test_binomial_rows_match_numpy_at_its_threshold(n, p, flip, step):
    """The first trial's uniform sits on numpy's P(X = 0), or one double
    either side, where the comparison must be bit for bit the same: P(X = 0)
    computed as (1 - p)^n or by another libm call than numpy's misses here.
    With ``flip`` the row asks for 1 - p, which numpy draws as n - X."""
    u = _numpy_threshold(n, p)
    if step:
        u = math.nextafter(u, step * math.inf)
    row_p = 1.0 - p if flip and 1.0 - (1.0 - p) == p else p
    _assert_rows_match_numpy(
        _first_uniform(u), _first_uniform(u), [n, 1, 0, 2], [row_p]
    )


def test_binomial_rows_redraw_on_crafted_uniforms():
    """A walk that passes its bound takes a fresh uniform. With the first
    uniform U0 = 1 - 2^-53, SFC64 then yields U1 = 0 and
    U2 = 1 - 9 * 2^-53. On numpy's loop the first trial (bound = n here)
    walks from U0 past X = n, so numpy draws U1 and returns X = 0; the
    second trial (n = 1) draws U2 > P(X = 0): X = 1. The row's fill held
    only U0 and U1, so the second trial's uniform comes after it. Which
    of the two rows redraws depends on numpy's P(X = 0) rule: with
    log1p(-p) the n = 1 walk at p = 0.3715 does, with log(1 - p) the
    n = 2 walk at p = 0.01375."""
    u0 = 1.0 - 2.0**-53
    redrawn = []
    for n, p in (([1, 1], 0.3715), ([2, 1], 0.01375)):
        numpy_rng = _first_uniform(u0)
        want = numpy_rng.binomial(n, p)
        # numpy redrew if its two trials took three uniforms
        fourth = _first_uniform(u0)
        fourth.random(3)
        redraw = numpy_rng.random() == fourth.random()
        redrawn.append(redraw)
        # worked out from numpy's loop as above; without a redraw the
        # first trial keeps U0 (X = n) and the second takes U1 = 0 (X = 0)
        assert want.tolist() == ([0, 1] if redraw else [n[0], 0])
        _assert_rows_match_numpy(_first_uniform(u0), _first_uniform(u0), n, [p])
    assert any(redrawn)


@settings(max_examples=300, deadline=None)
@given(
    n=arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 70))
    | arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 2)),
    cuts=st.lists(st.integers(0, 40), max_size=4),
    probs=st.lists(PROBABILITIES, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_segmented_rows_match_numpy(n, cuts, probs, seed):
    """Rows cut into consecutive segments, each with its own generator,
    as a pool's runs are: element for element each segment's draws of
    ``Generator.binomial(n[s:e], p)``, one call per p, and every
    generator in the same state afterwards. Segments may be empty, and a
    row that reaches BTPE in one segment (n * min(p, 1 - p) > 30) draws
    every segment through ``Generator.binomial``."""
    starts = [0, *sorted(min(c, n.size) for c in cuts)]
    seeds = np.random.SeedSequence(seed).spawn(len(starts))
    _assert_segments_match_numpy(
        [np.random.default_rng(s) for s in seeds],
        [np.random.default_rng(s) for s in seeds],
        starts, n, probs,
    )


def test_segmented_rows_decide_per_segment(monkeypatch):
    """A row with n * min(p, 1 - p) > 30 in one segment is drawn by
    ``Generator.binomial`` one segment at a time and matches numpy in
    every segment. In a row drawn by inversion, only the middle segment,
    whose generator's first uniform is 1 - 2^-53, is walked one trial at
    a time, at p < 0.5 and at p > 0.5 alike."""
    def generators(middle):
        rngs = [np.random.default_rng(k) for k in range(3)]
        return [rngs[0], middle, rngs[1], rngs[2]]

    # segment 1 holds the one n with n * 0.4 > 30
    n = [1, 2, 0, 1, 100, 3, 2, 1, 1, 0, 1, 3]
    for p in (0.4, 0.6):
        _assert_segments_match_numpy(
            generators(np.random.default_rng(9)),
            generators(np.random.default_rng(9)),
            [0, 4, 6, 8], n, [p, 0.01],
        )

    walked, n_walks = [], 0
    walk = mc_oracle._walk
    monkeypatch.setattr(mc_oracle, "_walk", lambda rng, *a: walked.append(rng) or walk(rng, *a))
    # the rows of the crafted-uniform test, which redraw under one rule each
    for middle, p in (([1, 1], 0.3715), ([2, 1], 0.01375)):
        n = [1, 2, 0, 1, *middle, 2, 1, 1, 0, 1, 3]
        for row_p in (p, 1.0 - p):
            walked.clear()
            ours = generators(_first_uniform(1.0 - 2.0**-53))
            _assert_segments_match_numpy(
                ours, generators(_first_uniform(1.0 - 2.0**-53)), [0, 4, 6, 8], n, [row_p]
            )
            assert all(rng is ours[1] for rng in walked)
            n_walks += len(walked)
    assert n_walks


class _CountingGenerator:
    """A generator proxy that counts the ``random`` and ``binomial`` calls
    made on it and passes every attribute through."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)

    def binomial(self, *args, **kwargs):
        self.calls += 1
        return self.rng.binomial(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("cuts", [[0, 5], [0, 4, 9]])
def test_sure_draws_advance_past_their_uniforms(cuts):
    """numpy's binomial with p = 1 reads one uniform per trial with n > 0
    and returns n. ``_scatter`` adds n for such a p, to ``first`` and to
    each row of ``to``, and advances each segment's generator to where
    ``Generator.binomial(n[s:e], 1.0)`` leaves it without calling
    ``random`` or ``binomial``. numpy never takes BTPE at p = 1, where
    n * (1 - p) = 0, so one trial holds n = 100."""
    n = np.array([2, 0, 1, 100, 3, 0, 0, 1, 4, 1, 0, 2], dtype=np.int64)
    seeds = np.random.SeedSequence(11).spawn(len(cuts))
    ours = [_CountingGenerator(np.random.default_rng(s)) for s in seeds]
    theirs = [np.random.default_rng(s) for s in seeds]
    first = np.full(n.size, 7, dtype=np.int64)
    to = np.full((2, n.size), 7, dtype=np.int64)
    u = np.full(n.size, 2.0)
    _scatter(ours, np.array(cuts), n, ([1.0, 1.0, 1.0], 1, np.array([1, 0])), u, first, to)
    assert np.array_equal(first, 7 + n) and np.array_equal(to, 7 + np.stack([n, n]))
    bounds = [*cuts, n.size]
    for mine, numpy_rng, s, e in zip(ours, theirs, bounds, bounds[1:]):
        for _ in range(3):
            assert np.array_equal(numpy_rng.binomial(n[s:e], 1.0), n[s:e])
        assert mine.calls == 0
        assert mine.bit_generator.state == numpy_rng.bit_generator.state
