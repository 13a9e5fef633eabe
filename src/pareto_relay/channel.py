"""Interference-aware channel success probabilities.

The probability p_ij^u that a packet sent by i in slot u is received at j
is the average of the packet success rate over every subset of the other
transmitters active in that slot, weighted by the probability that exactly
that subset transmits concurrently. The interferers of link (i, j) are every
transmitter active in slot u except i and j, by ascending id. Interference
is additive noise; the packet success rate comes from an uncoded BPSK/AWGN
bit error rate.
``channel_matrix`` takes the links of every uncached slot whose sender
transmits in that slot together and averages all links with m interferers
in one subset lattice, one row per link; each block of rows ends in one
stacked row-by-column ``np.matmul``, which numpy computes with the dot
kernel of a per-link ``np.dot``. A link whose sender is idle in the slot
carries no packet, so the channel leaves its p at 0.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from .errors import EnumerationCapError, SchemaError
from .rates import RateMatrix, in_unit_interval
from .topology import NetworkSpec, gain_matrix, read_object, sparse_entries, zero_based

# A pool of at most EXACT_CAP interferers is averaged exactly over its 2^m
# subsets; each link of a larger pool takes SAMPLES draws, from a per-link
# seed derived from SAMPLE_SEED.
EXACT_CAP = 20
SAMPLES = 100_000
SAMPLE_SEED = 0


def _ber(gamma: np.ndarray) -> np.ndarray:
    return 0.5 * erfc(np.sqrt(gamma))


def _packet_success(gamma: np.ndarray, packet_bits: int) -> np.ndarray:
    # The formula of packet_success, on a float array of SINRs >= 0.
    return np.power(1.0 - _ber(gamma), packet_bits)


def _sinr_array(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("SINR must be >= 0")
    return g


def ber_bpsk_awgn(gamma):
    """Bit error rate for uncoded BPSK on AWGN: 0.5 * erfc(sqrt(gamma))."""
    out = _ber(_sinr_array(gamma))
    return float(out) if np.isscalar(gamma) else out


def packet_success(gamma, packet_bits: int):
    """(1 - BER)^N_b: the probability that all N_b bits of a packet arrive."""
    out = _packet_success(_sinr_array(gamma), packet_bits)
    return float(out) if np.isscalar(gamma) else out


def _link(spec: NetworkSpec, tau: RateMatrix, sender: int, receiver: int, slot: int):
    """Signal power, interferer powers and interferer rates of the link from
    1-based ``sender`` to ``receiver`` in ``slot``. The interferers are every
    transmitter active in the slot except the two endpoints, by ascending id:
    the receiver's own sending is the forwarding model's listening factor,
    and a node has no propagation distance to itself."""
    n = len(tau.rates)
    i, j, u = zero_based((n, n, tau.slot_count), sender=sender, receiver=receiver, slot=slot)
    pool = [k for k in np.flatnonzero(tau.rates[:, u] > 0.0).tolist() if k not in (i, j)]
    power = spec.radio.tx_power * gain_matrix(spec)[:, j]
    return power[i], power[pool], tau.rates[pool, u]


def _success(radio, signal, interf):
    """Packet success at SINR ``signal / (noise + interf)``. A SINR too
    large for a float becomes inf, whose packet success is 1: only the
    divide's overflow is ignored, so an overflowing sum still warns."""
    noisy = radio.noise_power + interf
    with np.errstate(over="ignore"):
        sinr = signal / noisy
    return _packet_success(sinr, radio.packet_bits)


# The rows of one pool size m are taken in blocks, so that no 2-D array
# holds more than max(2^m, this) elements: one link at a time from m = 12
# on, as a per-link loop would hold them. At 2^16, the rare call with many
# links of one large pool size grew the heap: the evaluate-wide benchmark's
# peak RSS read about 0.5 MB higher.
_BLOCK_ELEMENTS = 1 << 12


def _pool_average(radio, signal: np.ndarray, gains: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """p of each row r: a link received at power ``signal[r]`` whose m
    interferers (ascending node id) reach its receiver at powers
    ``gains[r]`` and send at ``rates[r]``.

    The 2^m subsets are built by doubling, one interferer at a time, into
    the halves of a preallocated lattice: the IEEE operations, in the
    order, of a per-link loop. Each block ends in one stacked
    ``(r, 1, 2^m) @ (r, 2^m, 1)`` matmul: a row times a column with a 1x1
    output, which numpy computes with the same dot kernel as one ``np.dot``
    per row. A matrix-vector product, ``np.einsum``, or a plain loop
    without FMA sums otherwise and differs from it from length 2 on.
    """
    m = gains.shape[1]
    rows = max(1, _BLOCK_ELEMENTS >> m)
    interf = np.empty((min(rows, len(signal)), 1 << m))
    prob = np.empty_like(interf)
    out = np.empty(len(signal))
    for at in range(0, len(signal), rows):
        g, t = gains[at:at + rows], rates[at:at + rows]
        i, p = interf[:len(g)], prob[:len(g)]
        i[:, 0], p[:, 0] = 0.0, 1.0
        for k in range(m):
            lo, hi = slice(0, 1 << k), slice(1 << k, 2 << k)
            np.add(i[:, lo], g[:, k, None], out=i[:, hi])
            np.multiply(p[:, lo], t[:, k, None], out=p[:, hi])
            np.multiply(p[:, lo], 1.0 - t[:, k, None], out=p[:, lo])
        success = _success(radio, signal[at:at + rows, None], i)
        np.matmul(p[:, None, :], success[:, :, None], out=out[at:at + rows, None, None])
    return out


def channel_probability_exact(
    spec: NetworkSpec,
    tau: RateMatrix,
    sender: int,
    receiver: int,
    slot: int,
) -> float:
    """p_ij^u of the link from 1-based ``sender`` to ``receiver`` in
    ``slot``, by exact enumeration of every subset of its interferers: the
    transmitters active in the slot other than the two endpoints.

    Raises :class:`EnumerationCapError` when there are more than
    ``EXACT_CAP`` interferers; use :func:`channel_probability_sampled` then.
    The link is averaged whether or not the sender transmits in the slot;
    ``channel_matrix`` computes only links whose sender does and holds 0 for
    the others, so the two agree on active senders alone.
    """
    signal, gains, rates = _link(spec, tau, sender, receiver, slot)
    if len(rates) > EXACT_CAP:
        raise EnumerationCapError(
            f"{len(rates)} candidate interferers on link ({sender},{receiver})"
            f" slot {slot} exceed the exact-enumeration cap {EXACT_CAP}"
        )
    return _pool_average(spec.radio, np.array([signal]), gains[None], rates[None])[0].item()


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
    for a fixed seed. Like :func:`channel_probability_exact`, it estimates
    the link even when the sender is idle in the slot, where
    ``channel_matrix`` holds 0.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    signal, int_gains, int_taus = _link(spec, tau, sender, receiver, slot)
    rng = spawned_rng(seed)

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
        succ = _success(spec.radio, signal, interf)
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
    is p_ij^u. A node has no link to itself, so the diagonal must be 0.
    Every reader weighs p_ij^u by tau_i^u or reads only active
    transmissions, so ``channel_matrix`` leaves the links of idle senders
    at 0; an injected channel may hold any value there."""

    def __init__(self, n_nodes: int, slot_count: int, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (n_nodes, n_nodes, slot_count):
            raise SchemaError(
                f"channel matrix must have shape ({n_nodes}, {n_nodes}, {slot_count})"
            )
        if not in_unit_interval(probs):
            raise SchemaError("channel probabilities must lie in [0, 1]")
        if np.any(np.diagonal(probs)):
            raise SchemaError("channel probabilities from a node to itself must be 0")
        self.n_nodes = n_nodes
        self.slot_count = slot_count
        self.probs = probs
        self.probs.setflags(write=False)

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
    """Assemble p_ij^u for every ordered node pair (i, j) and slot u in
    which i transmits; p is 0 where i is idle in u, since no packet is sent
    there and every reader weighs p_ij^u by tau_i^u.

    Link (i, j) of slot u draws its interferers from the pool A minus {i, j}
    of the slot's active set A. The links of every slot that misses the
    cache are grouped by pool size m, across pools and slots, and each
    group within ``EXACT_CAP`` is one ``_pool_average`` call whose rows
    carry their own gains, rates and signal; each block of links ends in
    one stacked ``np.matmul`` that numpy computes with the dot kernel of a
    per-link ``np.dot``, so the result is bit for bit that of a per-link
    loop.
    The links of a larger pool take the seeded sampled estimate.

    The slice of slot u depends only on the geometry and on column u of tau
    (every node's rate in slot u). Each slice is looked up in ``slot_cache``
    under ``(u, column bytes)`` and computed and stored only on a miss, so a
    cached result is the same array a fresh call returns; without a given
    cache a fresh one serves this call alone. ``u`` stays in the key because
    the sampled fallback seeds each link by its slot. A cache belongs to one
    ``NetworkSpec``: its keys do not name the geometry.
    """
    cache = {} if slot_cache is None else slot_cache
    n, slots = spec.n_nodes, spec.slot_count
    probs = np.zeros((n, n, slots))
    keys = [(u, tau.rates[:, u].tobytes()) for u in range(slots)]
    miss = [u for u, key in enumerate(keys) if key not in cache]
    for u, key in enumerate(keys):
        probs[:, :, u] = cache.get(key, 0.0)  # a missed slice is computed below
    if not miss:
        return ChannelMatrix(n, slots, probs)
    # Every link (i, j, u) of the missed slots whose sender i transmits in
    # u, with its pool as a mask over the nodes active in some missed slot.
    active = tau.rates[:, miss] > 0.0
    nodes = np.flatnonzero(active.any(axis=1))
    i, j, s = np.nonzero(active[:, None, :] & ~np.eye(n, dtype=bool)[:, :, None])
    pools = active[nodes, s[:, None]] & (nodes != i[:, None]) & (nodes != j[:, None])
    sizes = pools.sum(axis=1)
    u = np.array(miss)[s]
    power = spec.radio.tx_power * gain_matrix(spec)
    for m in sorted(set(sizes.tolist())):  # np.unique alone adds 0.25 MB of resident code
        at = np.flatnonzero(sizes == m)
        pool = nodes[np.nonzero(pools[at])[1]].reshape(len(at), m)
        snd, rcv, slot = i[at], j[at], u[at]
        if m <= EXACT_CAP:
            probs[snd, rcv, slot] = _pool_average(spec.radio, power[snd, rcv],
                                                  power[pool, rcv[:, None]],
                                                  tau.rates[pool, slot[:, None]])
        else:
            probs[snd, rcv, slot] = [channel_probability_sampled(
                spec, tau, a + 1, b + 1, c + 1, SAMPLES,
                seed=spawned_seed(SAMPLE_SEED, a + 1, b + 1, c + 1))[0]
                for a, b, c in zip(snd.tolist(), rcv.tolist(), slot.tolist())]
    for v in miss:
        cache[keys[v]] = probs[:, :, v].copy()
    return ChannelMatrix(n, slots, probs)


def spawned_rng(seed: int, *key: int) -> np.random.Generator:
    """A PCG64 generator on the seed sequence of ``seed`` spawned at
    ``key``: draws keyed by a link, a tau or a block are reproducible and
    independent of the order in which they are made."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def spawned_seed(seed: int, *key: int) -> int:
    """The first 64-bit word of the seed sequence of ``seed`` spawned at
    ``key``."""
    sequence = np.random.SeedSequence(seed, spawn_key=key)
    return int(sequence.generate_state(1, dtype=np.uint64)[0])
