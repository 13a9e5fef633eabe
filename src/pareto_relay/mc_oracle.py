"""Packet-level Monte Carlo estimates of the steady-state criteria.

Each trial injects one frame of source packets and follows every copy
through the relay cascade as a branching process: a copy transmitted at
(i, u) is received and re-forwarded at (j, v) with the same per-copy
probabilities that drive the analytic flow recursion. Deliveries count
multiplicities, a delivery made by the s-th transmission wave carries
s - 1 relay hops of delay, and every relay transmission costs one unit
of energy, so the sample means estimate f, f_D and f_E directly.

Interference is already folded into the channel probabilities through
tau, so copies never contend with each other; that premise is exactly
the analytic model's, which is what makes the oracle a fair referee.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import ChannelMatrix, channel_matrix
from .forwarding import ForwardingMatrix, check_forwarder_roles, consistency_residuals
from .rates import (
    DEFAULT_TOLERANCE,
    RateMatrix,
    check_flow_conservation,
    check_half_duplex,
    relay_transmission_index,
)
from .steady_state import build_arrival_matrix, build_relaying_matrix, check_layout
from .topology import NetworkSpec

DEFAULT_BLOCK_SIZE = 65_536


@dataclass(frozen=True)
class SimConfig:
    """Simulation budget and reproducibility knobs.

    ``block_size`` fixes the random-draw granularity: every block owns an
    independent generator derived from (seed, block index), so results are
    identical no matter how blocks are scheduled across threads.
    """

    n_packets: int
    seed: int
    max_epochs: int = 10_000
    confidence: float = 0.99
    block_size: int = DEFAULT_BLOCK_SIZE
    threads: int = 1

    def __post_init__(self):
        if self.n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


@dataclass(frozen=True)
class CriterionEstimate:
    mean: float
    se: float
    ci_low: float
    ci_high: float

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "se": self.se,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def _estimate(total: int, total_sq: int, n: int, z: float) -> CriterionEstimate:
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        se = (var / n) ** 0.5
    else:
        se = float("inf")
    return CriterionEstimate(mean, se, mean - z * se, mean + z * se)


@dataclass(frozen=True)
class SimEstimate:
    """Sample means with standard errors and confidence intervals."""

    flow: CriterionEstimate
    delay: CriterionEstimate
    energy: CriterionEstimate
    n_packets: int
    confidence: float
    truncated: int
    truncation_warning: bool

    def to_json_dict(self) -> dict:
        return {
            "f": self.flow.to_json_dict(),
            "f_d": self.delay.to_json_dict(),
            "f_e": self.energy.to_json_dict(),
            "n_packets": self.n_packets,
            "confidence": self.confidence,
            "truncated": self.truncated,
            "truncation_warning": self.truncation_warning,
        }


def _injections(
    tau: RateMatrix,
    X: ForwardingMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
    relay_index: tuple[tuple[int, int], ...],
):
    """Per (source, slot) with a positive rate, in that order: transmission
    rate, spawn probabilities p_Sj^u * (1 - tau_j^v) * x_Sj^{uv} per entry
    (j, v) of ``relay_index``, and direct-delivery probabilities per
    destination."""
    j, v = np.array(relay_index, dtype=int).reshape(-1, 2).T - 1
    S = np.array(spec.source_ids)[:, None, None] - 1
    u = np.arange(spec.slot_count)[:, None]
    # Indexed (source, slot, column).
    spawn = P.probs[S, j, u] * (1.0 - tau.rates[j, v]) * X.values[S, j, u, v]
    direct = P.probs[S, np.array(spec.destination_ids) - 1, u]
    return [
        (t_src, spawn[k, w], direct[k, w])
        for k, row in enumerate(tau.source_rates.tolist())
        for w, t_src in enumerate(row)
        if t_src != 0.0
    ]


def _row_draws(Q: np.ndarray, D: np.ndarray):
    """Per transient state a: the positive probabilities of D[a] then Q[a]
    as a column, how many of them are D's, and the states Q[a] feeds."""
    rows = []
    for a in range(Q.shape[0]):
        d_pos = D[a, D[a] > 0.0]
        q_cols = np.flatnonzero(Q[a] > 0.0)
        probs = np.concatenate([d_pos, Q[a, q_cols]])[:, None]
        rows.append((probs, d_pos.size, q_cols))
    return rows


def _binomial_rows(rng, n, probs: np.ndarray, width: int, limit: int):
    """Yield ``rng.binomial(n, p, size=width)`` for each p in the column
    ``probs``, drawn in calls of at most ``limit`` values each (at least
    one row per call); C order makes these the draws of one call."""
    step = max(1, limit // max(width, 1))
    for lo in range(0, probs.shape[0], step):
        chunk = probs[lo : lo + step]
        yield from rng.binomial(n, chunk, size=(chunk.shape[0], width))


def _simulate_block(
    block_idx: int,
    block_n: int,
    seed: int,
    injections,
    Q: np.ndarray,
    D: np.ndarray,
    max_epochs: int,
) -> tuple[np.ndarray, int]:
    """One block of independent trials; returns the moment vector
    (sum f, sum f^2, sum delay, sum delay^2, sum energy, sum energy^2)
    and the number of truncated trials.

    Draw order: each injection makes one ``random`` draw per trial, then
    draws binomials over the trials that sent, for its positive
    direct-delivery probabilities and then its positive spawn
    probabilities. Each epoch then draws, for each transient state a in
    turn, binomials over the live trials (those still holding a copy) for
    the positive entries of D[a] and then of Q[a]. Two facts about
    ``Generator.binomial`` make this the stream of one call per
    probability over the whole block: a call with ``n`` of shape (N,) and
    ``p`` of shape (k, 1) draws in C order, bit for bit like k separate
    calls, and a trial with ``n = 0`` consumes no draw. The probabilities
    of a row share one call up to the size of the block's copy-count
    array, so no draw array outgrows it.
    """
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
    )
    l = Q.shape[0]
    f_cnt = np.zeros(block_n, dtype=np.int64)
    delay_cnt = np.zeros(block_n, dtype=np.int64)
    energy_cnt = np.zeros(block_n, dtype=np.int64)
    # copies held per (transient state, trial); one row per state
    counts = np.zeros((l, block_n), dtype=np.int64)
    limit = counts.size

    for t_src, spawn, direct in injections:
        sent = np.flatnonzero(rng.random(block_n) < t_src)
        spawn_rows = np.flatnonzero(spawn > 0.0)
        probs = np.concatenate([direct[direct > 0.0], spawn[spawn_rows]])[:, None]
        drawn = _binomial_rows(rng, 1, probs, sent.size, limit)
        for _ in range(probs.shape[0] - spawn_rows.size):
            f_cnt[sent] += next(drawn)
        for b, spawned in zip(spawn_rows, drawn):
            counts[b, sent] += spawned

    live = np.flatnonzero(counts.any(axis=0))
    counts = counts[:, live]
    rows = _row_draws(Q, D)
    epoch = 2
    while live.size and epoch <= max_epochs:
        energy_cnt[live] += counts.sum(axis=0)
        delivered = np.zeros(live.size, dtype=np.int64)
        new_counts = np.zeros_like(counts)
        for a, (probs, n_deliver, q_rows) in enumerate(rows):
            drawn = _binomial_rows(rng, counts[a], probs, live.size, limit)
            for _ in range(n_deliver):
                delivered += next(drawn)
            for b, spawned in zip(q_rows, drawn):
                new_counts[b] += spawned
        f_cnt[live] += delivered
        delay_cnt[live] += delivered * (epoch - 1)
        keep = new_counts.any(axis=0)
        live = live[keep]
        counts = new_counts[:, keep]
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
    return moments, live.size


def simulate(
    tau: RateMatrix,
    X: ForwardingMatrix,
    spec: NetworkSpec,
    config: SimConfig,
    channel: ChannelMatrix | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SimEstimate:
    """Estimate f, f_D and f_E from ``config.n_packets`` independent trials.

    Applies the same feasibility gates as the analytic evaluation, then
    runs the branching process in fixed-size blocks. Deterministic per
    seed and independent of ``config.threads``.
    """
    check_layout(tau, X, spec, channel)
    if channel is None:
        channel = channel_matrix(tau, spec)
    check_forwarder_roles(X, tau)
    check_flow_conservation(tau, channel, tolerance).raise_if_failed()
    check_half_duplex(tau, channel, tolerance).raise_if_failed()
    consistency_residuals(X, tau, channel, tolerance).raise_if_inconsistent()

    relay_index = relay_transmission_index(tau)
    Q = build_relaying_matrix(X, tau, channel)
    D = build_arrival_matrix(tau, channel, spec)
    injections = _injections(tau, X, channel, spec, relay_index)

    n = config.n_packets
    n_blocks = (n + config.block_size - 1) // config.block_size
    block_args = [
        (b, min(config.block_size, n - b * config.block_size))
        for b in range(n_blocks)
    ]

    def run(arg):
        b, size = arg
        return _simulate_block(
            b, size, config.seed, injections, Q, D, config.max_epochs
        )

    if config.threads > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run, block_args))
    else:
        results = [run(arg) for arg in block_args]

    moments = np.zeros(6, dtype=np.int64)
    truncated = 0
    for m, t in results:
        moments += m
        truncated += t

    z = NormalDist().inv_cdf(0.5 + config.confidence / 2.0)
    return SimEstimate(
        flow=_estimate(int(moments[0]), int(moments[1]), n, z),
        delay=_estimate(int(moments[2]), int(moments[3]), n, z),
        energy=_estimate(int(moments[4]), int(moments[5]), n, z),
        n_packets=n,
        confidence=config.confidence,
        truncated=truncated,
        truncation_warning=truncated > 0.01 * n,
    )
