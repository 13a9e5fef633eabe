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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import ChannelMatrix, spawned_rng
from .forwarding import ForwardingMatrix
from .rates import DEFAULT_TOLERANCE, RateMatrix
from .steady_state import build_arrival_matrix, build_relaying_matrix, check_strategy, spawn_rows
from .topology import NetworkSpec

# Not called here; kept because bench/spans.py wraps them on this module.
from .channel import channel_matrix
from .forwarding import check_forwarder_roles, consistency_residuals
from .rates import check_flow_conservation, check_half_duplex

# The random-draw granularity: every block of BLOCK_SIZE trials owns an
# independent generator derived from (seed, block index), so results are
# identical whichever worker's stripe of blocks holds a block and which
# blocks share its pool. It also sizes each worker thread's arrays
# (``_Pool``): a pool of BLOCK_SIZE // 2 live trials, (2l + 4) int64 rows
# or (2l + 4) * BLOCK_SIZE * 4 bytes for l transient states, plus one block's
# uniforms and injection buffer, about (l + 9) * BLOCK_SIZE bytes.
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
        if self.n_packets < 2:  # a standard error needs two trials
            raise ValueError("n_packets must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


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
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    se = (var / n) ** 0.5
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
    rate, ``spawn_rows`` row and direct-delivery probabilities per
    destination."""
    k, u = np.nonzero(tau.source_rates > 0.0)
    S = spec.source_rows[k]
    direct = P.probs[S[:, None], spec.destination_rows, u[:, None]]
    return list(zip(tau.rates[S, u].tolist(), spawn_rows(X, tau, P, S, u), direct))


def _row_draws(Q, D):
    """Per row pair (q, d) of Q and D, as for a transient state a: the
    positive probabilities of d then q, how many of them are d's, and the
    states q feeds."""
    rows = []
    for q, d in zip(Q, D):
        d_pos = d[d > 0.0]
        q_cols = np.flatnonzero(q > 0.0)
        probs = np.concatenate([d_pos, q[q_cols]]).tolist()
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


def _scatter(rngs: list, starts: np.ndarray, n: np.ndarray, row, u: np.ndarray, first, to) -> None:
    """Draws the binomials of ``row`` = (probs, n_first, rows) over the
    counts ``n`` and adds them where they land: the first n_first rows of
    draws to ``first``, each later one to ``to[b]`` for b in rows. For
    each p in turn the draws are ``rng.binomial(n[s:e], p)`` on each
    segment [s, e) of ``n`` that ``starts`` cut out (the first at 0), with
    the segment's own generator of ``rngs``: the same values, leaving
    every generator in the same state, from one ``rng.random`` fill per p
    and segment of the caller's buffer ``u`` (at least as long as ``n``).
    A draw with p = 1, where numpy reads one uniform per trial with n > 0
    and returns n, adds n and advances each generator past those uniforms
    instead.

    numpy flips p > 0.5 to p' = 1 - p and returns n - X. While
    n * p' <= 30 it draws X by inversion (Kachitvichyanukul & Schmeiser,
    CACM 31(2), 1988): one uniform per trial with n > 0, walked down the
    probabilities from P(X = 0) = exp(n log q) (``_log_q``); only a walk
    that passes its bound, which needs a uniform within about 1e-16 of 1,
    takes another. A trial with n = 0 draws nothing. A trial with n = 1
    is one comparison with exp(log q); the few with n >= 2 go through
    ``_inversion``, one group of equal n at a time, and a segment where
    some walk may pass its bound is walked one trial at a time. A row
    with n * p' > 30 somewhere, or every row when numpy's log q is not
    known, is left to ``rng.binomial``, one segment at a time.
    """
    probs, n_first, rows = row
    every = n.all()
    at = slice(None) if every else np.flatnonzero(n > 0)  # far faster on bools
    if not every:
        n, starts = n[at], np.searchsorted(at, starts)
    if not n.size:
        return
    cuts = [*starts.tolist(), n.size]
    segments = [(rng, s, e) for rng, s, e in zip(rngs, cuts, cuts[1:]) if e > s]
    u = u[: n.size]
    n_max = int(n.max())
    groups = []
    if n_max > 1:
        multi = np.flatnonzero(n > 1)
        groups = [(k, multi[n[multi] == k]) for k in np.unique(n[multi]).tolist()]
    log_rule = _LOG_Q.get(_log_q())
    for p, dst in zip(probs, [first] * n_first + [to[b] for b in rows]):
        if p == 0.0:  # nothing to draw
            continue
        if p == 1.0:  # a double is one output
            for rng, s, e in segments:
                rng.bit_generator.advance(e - s)
            dst[at] += n
            continue
        flip = p > 0.5
        pp = 1.0 - p if flip else p
        if log_rule is None or pp * n_max > 30.0:
            dst[at] += np.concatenate([rng.binomial(n[s:e], p) for rng, s, e in segments])
            continue
        log_q = log_rule(pp)
        qn = math.exp(log_q)
        for rng, s, e in segments:
            rng.random(out=u[s:e])
        passes = pp * qn / (1.0 - pp)  # an n = 1 walk from u passes its bound
        redraw = u.max() - qn > passes
        if groups:
            x = (u > qn).astype(np.int64)
            for k, of_k in groups:
                x[of_k] = _inversion(k, pp, log_q, u[of_k])
            redraw = redraw or x[multi].min() < 0
        elif flip and not redraw:
            x, flip = u <= qn, False
        else:
            x = u > qn
        if redraw:
            for rng, s, e in segments:
                if u[s:e].max() - qn > passes or x[s:e].min() < 0:
                    x[s:e] = _walk(rng, n[s:e].tolist(), pp, log_q, u[s:e].tolist())
        dst[at] += n - x if flip else x


class _Pool:
    """One worker thread's live trials, from every block of its stripe
    injected so far, advanced one epoch at a time together.

    A block is injected at full width into ``injected`` (copies per
    transient state, then f), and its trials that hold a copy join as one
    run of consecutive columns with the block's own generator (``rngs``),
    its first column (``starts``) and the weight = epoch - 1 that its
    trials share (``weights``); runs join in order, so the weights never
    rise along the runs. Each column holds a trial's copy counts
    (``counts``) and its f, delay and energy (``acc``). A trial that
    holds no copy leaves, and its f, delay and energy go into the int64
    ``moments`` (sum f, sum f^2, sum delay, sum delay^2, sum energy,
    sum energy^2), whose sums do not depend on the order, wrap-around
    included. The pool holds half a block and grows to a whole one, once,
    for a block whose live trials do not fit it empty.
    """

    def __init__(self, injections, Q: np.ndarray, D: np.ndarray, width: int, max_epochs: int):
        self.rows = _row_draws(Q, D)
        self.sends = [t_src for t_src, _, _ in injections]
        self.injections = _row_draws([s for _, s, _ in injections], [d for _, _, d in injections])
        # no entry of the injection buffer exceeds the draws per trial
        draws = sum(len(probs) for probs, _, _ in self.injections)
        self.injected = np.empty((len(self.rows) + 1, width), np.int8 if draws < 128 else np.int64)
        self.u = np.empty(width)
        self.max_epochs = max_epochs
        self.moments = np.zeros(6, dtype=np.int64)
        self.truncated = 0
        self.width = 0
        self.rngs = []
        self.starts, self.weights = (np.zeros(0, dtype=np.int64) for _ in range(2))
        self._allocate(width // 2)

    def _allocate(self, capacity: int) -> None:
        """Empty arrays for ``capacity`` trials; the copy counts have a
        spare, into which a step draws the next epoch's. They are allocated
        one by one: glibc keeps free up to twice the largest block it has
        unmapped, so one larger allocation raises the memory later calls
        hold."""
        self.capacity = capacity
        l = len(self.rows)
        self.counts, self.spare = (np.empty((l, capacity), dtype=np.int64) for _ in range(2))
        self.acc = np.empty((3, capacity), dtype=np.int64)
        self.delivered = np.empty(capacity, dtype=np.int64)

    def inject(self, rng, block_n: int) -> np.ndarray:
        """Draws the injections of a block of ``block_n`` trials into
        ``injected``; returns the positions of the trials that hold a copy.

        Each injection makes one ``random`` draw per trial (a source that
        always sends advances the generator past them instead), then
        draws binomials over the trials that sent, for its positive
        direct-delivery probabilities and then its positive spawn
        probabilities.
        """
        l = len(self.rows)
        block = self.injected[:, :block_n]
        block.fill(0)
        one_run = np.zeros(1, dtype=np.int64)
        for t_src, row in zip(self.sends, self.injections):
            # each trial that sent holds one copy
            if t_src >= 1.0:  # every uniform is below 1; a double is one output
                rng.bit_generator.advance(block_n)
                sent = np.ones(block_n, dtype=np.int8)  # a broadcast 1 reduces slowly
            else:
                sent = (rng.random(out=self.u[:block_n]) < t_src).view(np.int8)
            _scatter([rng], one_run, sent, row, self.u, block[l], block)
        return np.flatnonzero(block[:l].any(axis=0))

    def join(self, rng, block_n: int, live: np.ndarray) -> None:
        """Appends the injected trials ``live`` as a run and settles the f
        of the block's other trials."""
        l, w, k = len(self.rows), self.width, live.size
        f = self.injected[l, :block_n]
        # sum f is the sum over v >= 1 of #(f >= v), sum f^2 that of
        # (2v - 1) #(f >= v); f takes a few small values
        for v in range(1, int(f.max()) + 1):
            at_least = np.count_nonzero(f >= v)
            self.moments[:2] += at_least, (2 * v - 1) * at_least
        if not k:
            return
        for src, dst in zip(self.injected, [*self.counts, self.acc[0]]):
            dst[w : w + k] = src[live]
        self.acc[1:, w : w + k] = 0
        f = self.acc[0, w : w + k]  # the joining trials settle when they leave
        self.moments[:2] -= f.sum(), f @ f
        self.rngs.append(rng)
        self.starts = np.append(self.starts, w)
        self.weights = np.append(self.weights, 1)
        self.width += k

    def step(self) -> None:
        """Advances every run by one epoch; the runs past ``max_epochs``,
        the oldest ones, first leave as truncated.

        Each run draws what its block's epoch draws alone: for each
        transient state a in turn, binomials over its trials that hold a
        copy at a, for the positive entries of D[a] and then of Q[a].
        """
        w = self.width
        old = np.count_nonzero(self.weights >= self.max_epochs)
        if old:
            self._compact(np.arange(w) >= np.append(self.starts, w)[old])
            self.truncated += w - self.width
            w = self.width
        if not w:
            return
        counts, new = self.counts[:, :w], self.spare[:, :w]
        f, delay, energy = self.acc[:, :w]
        delivered = self.delivered[:w]
        energy += np.sum(counts, axis=0, out=delivered)
        delivered.fill(0)
        new.fill(0)
        for n, row in zip(counts, self.rows):
            _scatter(self.rngs, self.starts, n, row, self.u, delivered, new)
        f += delivered
        cuts = [*self.starts.tolist(), w]
        for s, e, weight in zip(cuts, cuts[1:], self.weights.tolist()):
            delay[s:e] += np.multiply(delivered[s:e], weight, out=delivered[s:e])
        self.weights += 1
        self.counts, self.spare = self.spare, self.counts
        keep = new.any(axis=0)
        if not keep.all():
            self._compact(keep)

    def _compact(self, keep: np.ndarray) -> None:
        """Settles the trials outside ``keep`` and moves the others to the
        front: the copy counts into the spare, which becomes the pool's,
        and the rows of ``acc`` in place, one row-sized temporary at a
        time. The moments take the sums and sums of squares over every
        column, then give back the kept columns' ones: int64 sums wrap
        alike, so that equals the leaving trials' sums to the bit."""
        w = self.width
        kept = np.flatnonzero(keep)
        k = kept.size
        acc = self.acc[:, :w]
        self.moments[0::2] += acc.sum(axis=1)
        self.moments[1::2] += np.einsum("ij,ij->i", acc, acc)
        for src, dst in zip(self.counts, self.spare):
            np.take(src[:w], kept, out=dst[:k], mode="clip")  # "raise" would buffer out
        self.counts, self.spare = self.spare, self.counts
        for row in self.acc:
            row[:k] = row[kept]
        acc = self.acc[:, :k]
        self.moments[0::2] -= acc.sum(axis=1)
        self.moments[1::2] -= np.einsum("ij,ij->i", acc, acc)
        starts = np.searchsorted(kept, self.starts)
        held = starts < np.append(starts[1:], k)
        self.rngs = list(itertools.compress(self.rngs, held.tolist()))
        self.starts = starts[held]
        self.weights = self.weights[held]
        self.width = k


def _work(blocks, seed: int, n: int, injections, Q, D, max_epochs: int):
    """Runs the ``blocks`` in order through one ``_Pool``; returns the
    moments and the number of truncated trials."""
    pool = _Pool(injections, Q, D, min(n, BLOCK_SIZE), max_epochs)
    for b in blocks:
        rng = spawned_rng(seed, b)
        block_n = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        live = pool.inject(rng, block_n)
        while pool.width + live.size > pool.capacity:
            if not pool.width:
                pool._allocate(pool.u.size)
                break
            pool.step()
        pool.join(rng, block_n, live)
    while pool.width:
        pool.step()
    return pool.moments, pool.truncated


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
    then runs the branching process in blocks of ``BLOCK_SIZE`` trials on
    T = ``min(config.threads, blocks)`` worker threads: worker w runs blocks
    w, w + T, w + 2T, ... through its own ``_Pool``. Deterministic per seed
    and independent of ``config.threads``.
    """
    channel = check_strategy(tau, spec, channel, X, tolerance)

    Q = build_relaying_matrix(X, tau, channel)
    D = build_arrival_matrix(tau, channel, spec)
    injections = _injections(tau, X, channel, spec)

    n = config.n_packets
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    workers = min(config.threads, n_blocks)
    # Worker w's stripe; the moments are integer sums, so which worker runs
    # a block does not matter.
    stripes = (range(w, n_blocks, workers) for w in range(workers))
    with ThreadPoolExecutor(max_workers=workers) as executor:
        results = executor.map(
            lambda blocks: _work(blocks, config.seed, n, injections, Q, D, config.max_epochs),
            stripes,
        )
        moments, truncated = map(sum, zip(*results))

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
