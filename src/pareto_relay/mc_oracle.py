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

import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import ChannelMatrix
from .forwarding import ForwardingMatrix
from .rates import DEFAULT_TOLERANCE, RateMatrix
from .steady_state import build_arrival_matrix, build_relaying_matrix, check_strategy
from .topology import NetworkSpec

# Not called here; kept because bench/spans.py wraps them on this module.
from .channel import channel_matrix
from .forwarding import check_forwarder_roles, consistency_residuals
from .rates import check_flow_conservation, check_half_duplex

# The random-draw granularity: every block of BLOCK_SIZE trials owns an
# independent generator derived from (seed, block index), so results are
# identical no matter how blocks are scheduled across threads. It also
# sets the width of the arrays each worker thread reuses for its blocks
# (``_BlockArrays``, about (2l + 5) * BLOCK_SIZE * 8 bytes).
BLOCK_SIZE = 65_536


@dataclass(frozen=True)
class SimConfig:
    """Simulation budget and reproducibility knobs."""

    n_packets: int
    seed: int
    max_epochs: int = 10_000
    confidence: float = 0.99
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
):
    """Per (source, slot) with a positive rate, in that order: transmission
    rate, spawn probabilities p_Sj^u * (1 - tau_j^v) * x_Sj^{uv} per active
    relay transmission (j, v) in ``tau.relay_coords`` order, and
    direct-delivery probabilities per destination."""
    j, v = tau.relay_coords
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
    """Per transient state a: the positive probabilities of D[a] then Q[a],
    how many of them are D's, and the states Q[a] feeds."""
    rows = []
    for a in range(Q.shape[0]):
        d_pos = D[a, D[a] > 0.0]
        q_cols = np.flatnonzero(Q[a] > 0.0)
        probs = np.concatenate([d_pos, Q[a, q_cols]]).tolist()
        rows.append((probs, d_pos.size, q_cols))
    return rows


# The two known ways to compute log q = log(1 - p), by name.
_LOG_Q = {
    "log1p": lambda p: math.log1p(-p),
    "log": lambda p: math.log(1.0 - p),
}


@functools.cache
def _log_q() -> str | None:
    """How the installed numpy computes log q = log(1 - p) in binomial's
    P(X = 0) = exp(n log q): ``"log1p"``, ``math.log1p(-p)`` (numpy 2.4),
    or ``"log"``, ``math.log(1 - p)`` (the published algorithm); None if
    neither.

    A candidate must give numpy's exact threshold for X = 0 on three
    (n, p) pairs where the two rules differ by an ulp. Each draw runs on
    an SFC64 generator whose first uniform is set to the candidate's
    P(X = 0) or the next double up: SFC64's first output is
    a + b + counter of its state words (a, b, c, counter), and a uniform
    is that output's top 53 bits over 2^53.
    """
    bits = np.random.SFC64()

    def first_draw(n, p, u):
        words = np.array([int(u * 2.0**53) << 11, 0, 0, 0], dtype=np.uint64)
        bits.state = {"bit_generator": "SFC64", "state": {"state": words},
                      "has_uint32": 0, "uinteger": 0}
        return np.random.Generator(bits).binomial(n, p)

    for name, log_q in _LOG_Q.items():
        if all(
            first_draw(n, p, qn) == 0 and first_draw(n, p, math.nextafter(qn, 1.0)) == 1
            for n, p in ((1, 0.3), (2, 0.01375), (5, 0.2))
            for qn in [math.exp(n * log_q(p))]
        ):
            return name
    return None


def _inversion(n: int, p: float, log_q: float, u: np.ndarray) -> np.ndarray:
    """numpy's inversion draws of binomial(n, p) for 0 < p <= 0.5, one on
    each uniform of ``u``, operation for operation: every walk subtracts
    the same terms P(X = 0), P(X = 1), ... from its uniform; -1 where a
    walk passes its bound and numpy draws a fresh uniform."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = math.exp(n * log_q)
    x = np.zeros(u.size, dtype=np.int64)
    walking = u > px
    for k in range(1, bound + 1):
        if not walking.any():
            break
        x += walking
        u = u - px
        px = (n - k + 1) * p * px / (k * q)
        walking &= u > px
    x[walking] = -1
    return x


def _walk(rng, n: list, p: float, log_q: float, u: list) -> np.ndarray:
    """Inversion draws for the counts ``n`` one trial at a time, on the
    uniforms ``u`` and then on fresh ``rng.random()`` values."""
    stream = itertools.chain(u, iter(rng.random, None))
    out = []
    for k in n:
        x = -1
        while x < 0:
            x = _inversion(k, p, log_q, np.array([next(stream)]))[0]
        out.append(x)
    return np.array(out, dtype=np.int64)


def _binomial_rows(rng, n: np.ndarray, probs: list, u: np.ndarray):
    """``rng.binomial(n, p)`` for each p of ``probs`` in turn, at the
    trials with n > 0: the same values, leaving ``rng`` in the same
    state, from one ``rng.random`` fill per p of the caller's buffer
    ``u`` (at least as long as ``n``). Returns the positions of those
    trials (``slice(None)`` when every n is positive) and an iterator
    over the rows of draws at them; a row of counts 0 and 1 comes as a
    bool array.

    numpy flips p > 0.5 to p' = 1 - p and returns n - X. While
    n * p' <= 30 it draws X by inversion (Kachitvichyanukul & Schmeiser,
    CACM 31(2), 1988): one uniform per trial with n > 0, walked down the
    probabilities from P(X = 0) = exp(n log q) (``_log_q``); only a walk
    that passes its bound, which needs a uniform within about 1e-16 of 1,
    takes another. A trial with n = 0 draws nothing. A trial with n = 1
    is one comparison with exp(log q); the few with n >= 2 go through
    ``_inversion``, one group of equal n at a time, and a row where some
    walk may pass its bound is walked one trial at a time. A row with
    n * p' > 30 somewhere is left to ``rng.binomial``, as is every row
    when numpy's log q is not known.
    """
    every = n.all()
    pos = slice(None) if every else np.flatnonzero(n > 0)  # far faster on bools
    n_pos = n if every else n[pos]
    return pos, _draw_rows(rng, n_pos, probs, u[: n_pos.size])


def _draw_rows(rng, n: np.ndarray, probs: list, u: np.ndarray):
    """``_binomial_rows``' draws for counts ``n`` that are all positive,
    on the buffer ``u`` of one uniform per count."""
    n_max = int(n.max(initial=1))
    groups = []
    if n_max > 1:
        multi = np.flatnonzero(n > 1)
        groups = [(k, multi[n[multi] == k]) for k in np.unique(n[multi]).tolist()]
    log_rule = _LOG_Q.get(_log_q())
    for p in probs:
        flip = p > 0.5
        pp = 1.0 - p if flip else p
        if not n.size or p == 0.0:  # nothing to draw
            yield np.zeros(n.size, dtype=np.int64)
            continue
        if log_rule is None or pp * n_max > 30.0:
            yield rng.binomial(n, p)
            continue
        log_q = log_rule(pp)
        qn = math.exp(log_q)
        rng.random(out=u)
        if u.max() - qn > pp * qn / (1.0 - pp):  # an n = 1 walk may pass its bound
            x = _walk(rng, n.tolist(), pp, log_q, u.tolist())
        elif groups:
            x = (u > qn).astype(np.int64)
            for k, at in groups:
                x[at] = _inversion(k, pp, log_q, u[at])
            if x[multi].min() < 0:
                x = _walk(rng, n.tolist(), pp, log_q, u.tolist())
        else:
            x = u <= qn if flip else u > qn
            flip = False
        yield n - x if flip else x


def _still_live(live, new: np.ndarray, held: np.ndarray, spare: np.ndarray):
    """``live`` and the copy counts ``new``, a view of the flat buffer
    ``spare``, without the trials that hold no copy, then the two flat
    buffers in the order (holding the counts, free). ``live`` is
    ``slice(None)`` while every trial of the block is live, and nothing
    is re-indexed while every trial stays live; otherwise the kept
    columns are written to the front of ``held``, whose counts are no
    longer needed, and the counts returned are that view."""
    keep = new.any(axis=0)
    if keep.all():
        return live, new, spare, held
    kept = np.flatnonzero(keep)
    counts = held[: new.shape[0] * kept.size].reshape(new.shape[0], kept.size)
    np.take(new, kept, axis=1, out=counts, mode="clip")  # "raise" would buffer out
    return (kept if isinstance(live, slice) else live[kept]), counts, held, spare


class _BlockArrays:
    """The arrays of one block of up to ``width`` trials over ``l``
    transient states. A worker thread allocates one set per ``simulate``
    call, and every block it runs zeroes and reuses them, so no block
    page-faults fresh memory: the uniform buffer, the three per-trial
    accumulators, two flat ``(l, width)`` copy-count buffers that swap
    roles when live trials are compacted, and one row for deliveries."""

    def __init__(self, l: int, width: int):
        self.u = np.empty(width)
        self.f_cnt = np.empty(width, dtype=np.int64)
        self.delay_cnt = np.empty(width, dtype=np.int64)
        self.energy_cnt = np.empty(width, dtype=np.int64)
        self.counts = tuple(np.empty(l * width, dtype=np.int64) for _ in range(2))
        self.delivered = np.empty(width, dtype=np.int64)


def _simulate_block(
    block_idx: int,
    block_n: int,
    seed: int,
    injections,
    Q: np.ndarray,
    D: np.ndarray,
    max_epochs: int,
    arrays: _BlockArrays,
) -> tuple[np.ndarray, int]:
    """One block of independent trials; returns the moment vector
    (sum f, sum f^2, sum delay, sum delay^2, sum energy, sum energy^2)
    and the number of truncated trials. Works in ``arrays`` (at least
    ``block_n`` wide) and zeroes every part of them it reads, so nothing
    carries over from the block that used them last.

    Draw order: each injection makes one ``random`` draw per trial, then
    draws binomials over the trials that sent, for its positive
    direct-delivery probabilities and then its positive spawn
    probabilities. Each epoch then draws, for each transient state a in
    turn, binomials over the live trials (those still holding a copy) for
    the positive entries of D[a] and then of Q[a]. The stream is numpy's
    binomial stream of one call per probability over the whole block
    (a trial with n = 0 draws nothing), reproduced by ``_binomial_rows``
    from one uniform per trial; tier-1 checks it against the installed
    numpy's ``Generator.binomial``.
    """
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
    )
    l = Q.shape[0]
    u = arrays.u
    f_cnt = arrays.f_cnt[:block_n]
    delay_cnt = arrays.delay_cnt[:block_n]
    energy_cnt = arrays.energy_cnt[:block_n]
    for acc in (f_cnt, delay_cnt, energy_cnt):
        acc.fill(0)
    # copies held per (transient state, trial); one row per state
    held, spare = arrays.counts
    new = spare[: l * block_n].reshape(l, block_n)
    new.fill(0)

    for t_src, spawn, direct in injections:
        sent = rng.random(out=u[:block_n]) < t_src
        # each trial that sent holds one copy: a read-only view of one 1
        ones = np.broadcast_to(np.int64(1), np.count_nonzero(sent))
        # every trial sent (t_src = 1): no index needed
        sent = slice(None) if ones.size == block_n else np.flatnonzero(sent)
        spawn_rows = np.flatnonzero(spawn > 0.0)
        probs = np.concatenate([direct[direct > 0.0], spawn[spawn_rows]]).tolist()
        _, drawn = _binomial_rows(rng, ones, probs, u)
        for _ in range(len(probs) - spawn_rows.size):
            f_cnt[sent] += next(drawn)
        for b, spawned in zip(spawn_rows, drawn):
            new[b, sent] += spawned

    live, counts, held, spare = _still_live(slice(None), new, held, spare)
    rows = _row_draws(Q, D)
    epoch = 2
    while counts.shape[1] and epoch <= max_epochs:
        width = counts.shape[1]
        delivered = arrays.delivered[:width]
        energy_cnt[live] += np.sum(counts, axis=0, out=delivered)
        delivered.fill(0)
        new = spare[: l * width].reshape(l, width)
        new.fill(0)
        for a, (probs, n_deliver, q_rows) in enumerate(rows):
            at, drawn = _binomial_rows(rng, counts[a], probs, u)
            for _ in range(n_deliver):
                delivered[at] += next(drawn)
            for b, spawned in zip(q_rows, drawn):
                new[b, at] += spawned
        f_cnt[live] += delivered
        delivered *= epoch - 1
        delay_cnt[live] += delivered
        live, counts, held, spare = _still_live(live, new, held, spare)
        epoch += 1

    # integer products and sums wrap alike, so f @ f is sum(f**2) exactly
    moments = np.array(
        [
            f_cnt.sum(),
            f_cnt @ f_cnt,
            delay_cnt.sum(),
            delay_cnt @ delay_cnt,
            energy_cnt.sum(),
            energy_cnt @ energy_cnt,
        ],
        dtype=np.int64,
    )
    return moments, counts.shape[1]


def simulate(
    tau: RateMatrix,
    X: ForwardingMatrix,
    spec: NetworkSpec,
    config: SimConfig,
    channel: ChannelMatrix | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SimEstimate:
    """Estimate f, f_D and f_E from ``config.n_packets`` independent trials.

    Gates the strategy with :func:`check_strategy`, as ``evaluate`` does,
    then runs the branching process in blocks of ``BLOCK_SIZE`` trials.
    Deterministic per seed and independent of ``config.threads``.
    """
    channel = check_strategy(tau, spec, channel, X, tolerance)

    Q = build_relaying_matrix(X, tau, channel)
    D = build_arrival_matrix(tau, channel, spec)
    injections = _injections(tau, X, channel, spec)

    n = config.n_packets
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    block_args = [(b, min(BLOCK_SIZE, n - b * BLOCK_SIZE)) for b in range(n_blocks)]

    # One set of block arrays per worker thread; blocks stay dynamically
    # scheduled by the pool, so a thread that finishes early takes the next.
    per_thread = threading.local()

    def run(arg):
        b, size = arg
        if not hasattr(per_thread, "arrays"):
            per_thread.arrays = _BlockArrays(Q.shape[0], min(n, BLOCK_SIZE))
        return _simulate_block(
            b, size, config.seed, injections, Q, D, config.max_epochs, per_thread.arrays
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
