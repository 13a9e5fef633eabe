"""Interference-aware channel success probabilities.

The probability p_ij^u that a packet sent by i in slot u is received at j
is the average of the packet success rate over every subset of the other
transmitters active in that slot, weighted by the probability that exactly
that subset transmits concurrently. Interference is additive noise; the
packet success rate comes from an uncoded BPSK/AWGN bit error rate. The
links of a slot share their interferer pools, so ``channel_matrix`` computes
a slot one pool at a time, with one ``np.dot`` per link.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from .errors import EnumerationCapError, SchemaError
from .rates import RateMatrix, active_set
from .topology import NetworkSpec, gain_matrix, read_object, sparse_entries

# A pool of at most EXACT_CAP interferers is averaged exactly over its 2^m
# subsets; each link of a larger pool takes SAMPLES draws, from a per-link
# seed derived from SAMPLE_SEED.
EXACT_CAP = 20
SAMPLES = 100_000
SAMPLE_SEED = 0


def ber_bpsk_awgn(gamma):
    """Bit error rate for uncoded BPSK on AWGN: 0.5 * erfc(sqrt(gamma))."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("SINR must be >= 0")
    out = 0.5 * erfc(np.sqrt(g))
    return float(out) if np.isscalar(gamma) else out


def packet_success(gamma, packet_bits: int):
    """(1 - BER)^N_b: the probability that all N_b bits of a packet arrive."""
    out = np.power(1.0 - ber_bpsk_awgn(gamma), packet_bits)
    return float(out) if np.isscalar(gamma) else out


def interference_candidates(
    tau: RateMatrix, sender: int, receiver: int, slot: int
) -> tuple[int, ...]:
    """Nodes that can interfere on link (sender, receiver) in ``slot``:
    every transmitter active in the slot except the two link endpoints.

    The receiver is excluded because its own transmit activity blocks
    reception outright (handled by the listening factor in the forwarding
    model), and a node has no propagation distance to itself.
    """
    act = active_set(tau)
    return tuple(k for k in act.in_slot(slot) if k not in (sender, receiver))


# The links of a pool of m interferers are taken in blocks of rows, so that
# no 2-D array holds more than max(2^m, this) elements: one link at a time
# from m = 16 on, as a per-link loop would hold them.
_BLOCK_ELEMENTS = 1 << 16


def _pool_average(
    spec: NetworkSpec, column: np.ndarray, pool: list[int], links: list[tuple[int, int]]
) -> list[float]:
    # p of each 0-based link (sender, receiver) whose interferers are the
    # ascending 0-based ``pool``, at the slot's rates ``column``: all 2^m
    # subsets by doubling, one row per link.
    power = spec.radio.tx_power * gain_matrix(spec)
    rows = max(1, _BLOCK_ELEMENTS >> len(pool))
    out = []
    for start in range(0, len(links), rows):
        senders, receivers = np.array(links[start:start + rows]).T
        signal = power[senders, receivers]
        interf = np.zeros((len(receivers), 1))
        prob = np.ones(1)
        for g, t in zip(power[np.ix_(pool, receivers)], column[pool]):
            interf = np.concatenate([interf, interf + g[:, None]], axis=1)
            prob = np.concatenate([prob * (1.0 - t), prob * t])
        success = packet_success(
            signal[:, None] / (spec.radio.noise_power + interf), spec.radio.packet_bits
        )
        out += [float(np.dot(prob, row)) for row in success]
    return out


def channel_probability_exact(
    spec: NetworkSpec,
    tau: RateMatrix,
    sender: int,
    receiver: int,
    slot: int,
) -> float:
    """p_ij^u by exact enumeration of every interfering set.

    Raises :class:`EnumerationCapError` when the candidate pool exceeds
    ``EXACT_CAP``; use :func:`channel_probability_sampled` then.
    """
    pool = interference_candidates(tau, sender, receiver, slot)
    if len(pool) > EXACT_CAP:
        raise EnumerationCapError(
            f"{len(pool)} candidate interferers on link ({sender},{receiver})"
            f" slot {slot} exceed the exact-enumeration cap {EXACT_CAP}"
        )
    links = [(sender - 1, receiver - 1)]
    return _pool_average(spec, tau.rates[:, slot - 1], [k - 1 for k in pool], links)[0]


def channel_probability_sampled(
    spec: NetworkSpec,
    tau: RateMatrix,
    sender: int,
    receiver: int,
    slot: int,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of p_ij^u with its standard error.

    Each candidate interferer is drawn active with its own transmission
    rate; the packet success rate is averaged over the draws. Deterministic
    for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pool = [k - 1 for k in interference_candidates(tau, sender, receiver, slot)]
    power = spec.radio.tx_power * gain_matrix(spec)[:, receiver - 1]
    signal, int_gains, int_taus = power[sender - 1], power[pool], tau.rates[pool, slot - 1]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    total = 0.0
    total_sq = 0.0
    remaining = samples
    chunk = 131_072
    while remaining > 0:
        n = min(chunk, remaining)
        if len(int_taus):
            masks = rng.random((n, len(int_taus))) < int_taus
            interf = masks @ int_gains
        else:
            interf = np.zeros(n)
        succ = packet_success(signal / (spec.radio.noise_power + interf),
                              spec.radio.packet_bits)
        total += float(succ.sum())
        total_sq += float(np.dot(succ, succ))
        remaining -= n
    mean = total / samples
    if samples > 1:
        var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        se = (var / samples) ** 0.5
    else:
        se = float("inf")
    return mean, se


class ChannelMatrix:
    """Per-edge, per-slot success probabilities: ``probs[i - 1, j - 1, u - 1]``
    is p_ij^u. A node has no link to itself, so the diagonal must be 0."""

    def __init__(self, n_nodes: int, slot_count: int, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (n_nodes, n_nodes, slot_count):
            raise SchemaError(
                f"channel matrix must have shape ({n_nodes}, {n_nodes}, {slot_count})"
            )
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise SchemaError("channel probabilities must lie in [0, 1]")
        if np.any(np.diagonal(probs)):
            raise SchemaError("channel probabilities from a node to itself must be 0")
        self.n_nodes = n_nodes
        self.slot_count = slot_count
        self.probs = probs
        self.probs.setflags(write=False)

    def p(self, sender: int, receiver: int, slot: int) -> float:
        if sender == receiver:
            raise ValueError(f"channel probability is undefined on ({sender},{sender})")
        return float(self.probs[sender - 1, receiver - 1, slot - 1])

    def to_json_dict(self) -> dict:
        links = []
        for i in range(self.n_nodes):
            for j in range(self.n_nodes):
                if i == j:
                    continue
                for u in range(self.slot_count):
                    links.append(
                        {"i": i + 1, "j": j + 1, "u": u + 1, "p": float(self.probs[i, j, u])}
                    )
        return {"links": links}

    @classmethod
    def from_dense(cls, probs) -> "ChannelMatrix":
        probs = np.asarray(probs, dtype=float)
        return cls(probs.shape[0], probs.shape[2], probs)

    @classmethod
    def from_json(cls, document, n_nodes: int, slot_count: int) -> "ChannelMatrix":
        document = read_object(document, "channel")
        probs = np.zeros((n_nodes, n_nodes, slot_count))
        bounds = {"i": n_nodes, "j": n_nodes, "u": slot_count}
        for i, j, u, p in sparse_entries(document, "links", "p", bounds):
            if i == j:
                raise SchemaError(f"channel link from node {i + 1} to itself")
            probs[i, j, u] = p
        return cls(n_nodes, slot_count, probs)


def channel_matrix(
    tau: RateMatrix,
    spec: NetworkSpec,
    *,
    slot_cache: dict | None = None,
) -> ChannelMatrix:
    """Assemble p_ij^u for every ordered node pair and slot.

    Link (i, j) of slot u draws its interferers from the pool A minus {i, j}
    of the slot's active set A. A pool within ``EXACT_CAP`` is enumerated
    once for all its links, as one 2-D array, with one ``np.dot`` per link:
    a matrix-vector product would sum in another order and change the last
    bits. The links of a larger pool take the seeded sampled estimate.

    The slice of slot u depends only on the geometry and on column u of tau
    (every node's rate in slot u). Each slice is looked up in ``slot_cache``
    under ``(u, column bytes)`` and computed and stored only on a miss, so a
    cached result is the same array a fresh call returns; without a given
    cache a fresh one serves this call alone. ``u`` stays in the key because
    the sampled fallback seeds each link by its slot. A cache belongs to one
    ``NetworkSpec``: its keys do not name the geometry.
    """
    cache = {} if slot_cache is None else slot_cache
    n = spec.n_nodes
    slots = spec.slot_count
    probs = np.zeros((n, n, slots))
    for u in range(1, slots + 1):
        column = tau.rates[:, u - 1]
        key = (u, column.tobytes())
        if key in cache:
            probs[:, :, u - 1] = cache[key]
            continue
        active = np.flatnonzero(column > 0.0).tolist()
        idle = [k for k in range(n) if k not in active]
        # (endpoints dropped from A, links): both idle, one active, both active.
        groups = [((), [(i, j) for i in idle for j in idle if i != j])]
        groups += [((a,), [(a, j) for j in idle] + [(i, a) for i in idle]) for a in active]
        groups += [((a, b), [(a, b), (b, a)]) for a in active for b in active if a < b]
        for dropped, links in groups:
            pool = [k for k in active if k not in dropped]
            if len(pool) <= EXACT_CAP:
                values = _pool_average(spec, column, pool, links)
            else:
                values = [channel_probability_sampled(
                    spec, tau, i + 1, j + 1, u, SAMPLES,
                    seed=_link_seed(SAMPLE_SEED, i + 1, j + 1, u))[0] for i, j in links]
            for (i, j), p in zip(links, values):
                probs[i, j, u - 1] = p
        cache[key] = probs[:, :, u - 1].copy()
    return ChannelMatrix(n, slots, probs)


def _link_seed(seed: int, i: int, j: int, u: int) -> int:
    # Stable per-link seed so the sampled fallback is reproducible and
    # independent of evaluation order.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, j, u))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
