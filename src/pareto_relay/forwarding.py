"""Forwarding-probability matrices and the rate-coupling constraints.

A relay j that transmits in slot v at rate tau_j^v must be fed exactly that
much flow: summed over senders i and in-slots u,

    tau_i^u * p_ij^u * (1 - tau_j^v) * x_ij^{uv}  =  tau_j^v.

The x entries are free parameters in [0, 1] otherwise, so the feasible set
per active relay transmission is a simplex slice. This module checks the
constraints, solves them in closed form when each has a single feeder term,
and samples the general polytope by rejection: each constraint draws its 200
candidate points in one batch and takes the first one inside the box; a
constraint whose draws are all rejected falls back to its proportional
point, so the samples are not uniform on such a constraint.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .errors import (
    ClosedFormNotApplicableError,
    InconsistentForwardingError,
    InfeasibleRateError,
    InfeasibleTauError,
    ModelViolationError,
    SchemaError,
)
from .rates import DEFAULT_TOLERANCE, RateMatrix, relay_transmission_index
from .topology import NetworkSpec, read_object, sparse_entries

MAX_REJECTION_ATTEMPTS = 200


class ForwardingMatrix:
    """x[i, j, u, v]: probability that j retransmits in slot v a packet it
    received from i in slot u. Entries live in [0, 1]."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 4 or values.shape[0] != values.shape[1] \
                or values.shape[2] != values.shape[3]:
            raise SchemaError("forwarding matrix must have shape (n, n, T, T)")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise SchemaError("forwarding probabilities must lie in [0, 1]")
        self.values = values
        self.values.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def slot_count(self) -> int:
        return self.values.shape[2]

    @classmethod
    def zeros(cls, n_nodes: int, slot_count: int) -> "ForwardingMatrix":
        return cls(np.zeros((n_nodes, n_nodes, slot_count, slot_count)))

    def x(self, sender: int, forwarder: int, in_slot: int, out_slot: int) -> float:
        return float(self.values[sender - 1, forwarder - 1, in_slot - 1, out_slot - 1])

    def to_json_dict(self) -> dict:
        entries = []
        nz = np.argwhere(self.values > 0.0)
        for i, j, u, v in nz:
            entries.append(
                {
                    "i": int(i) + 1,
                    "j": int(j) + 1,
                    "u": int(u) + 1,
                    "v": int(v) + 1,
                    "x": float(self.values[i, j, u, v]),
                }
            )
        return {"entries": entries}

    @classmethod
    def from_json(cls, document, n_nodes: int, slot_count: int) -> "ForwardingMatrix":
        document = read_object(document, "forwarding")
        values = np.zeros((n_nodes, n_nodes, slot_count, slot_count))
        bounds = {"i": n_nodes, "j": n_nodes, "u": slot_count, "v": slot_count}
        for i, j, u, v, x in sparse_entries(document, "entries", "x", bounds):
            values[i, j, u, v] = x
        return cls(values)

    def __eq__(self, other) -> bool:
        return isinstance(other, ForwardingMatrix) and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class ConsistencyReport:
    """Signed residual of the coupling constraint per active relay
    transmission (forwarder, out-slot). Source transmissions carry no
    constraint: they inject flow rather than forward it."""

    residuals: dict[tuple[int, int], float]
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def max_abs_residual(self) -> float:
        if not self.residuals:
            return 0.0
        return max(abs(r) for r in self.residuals.values())

    @property
    def consistent(self) -> bool:
        return self.max_abs_residual <= self.tolerance

    def raise_if_inconsistent(self) -> None:
        if not self.consistent:
            worst = max(self.residuals, key=lambda k: abs(self.residuals[k]))
            raise InconsistentForwardingError(
                f"forwarding matrix violates the rate-coupling constraint at "
                f"(node {worst[0]}, slot {worst[1]}): residual "
                f"{self.residuals[worst]:.3e} exceeds {self.tolerance:.1e}"
            )


def check_forwarder_roles(X: ForwardingMatrix, tau: RateMatrix) -> None:
    """Nonzero forwarding by a source or destination breaks the model."""
    relay_cols = np.array([r - 1 for r in tau.relay_ids], dtype=int)
    mask = np.ones(X.n_nodes, dtype=bool)
    mask[relay_cols] = False
    if np.any(X.values[:, mask, :, :] > 0.0):
        raise ModelViolationError(
            "forwarding entries must be zero when the forwarder is a source "
            "or a destination"
        )


def _feeder_columns(
    tau: RateMatrix, P: ChannelMatrix, constraints: Iterable[tuple[int, int]]
) -> Iterator[list[tuple[int, int, float]]]:
    # The terms of each constraint (forwarder j, out-slot v) in turn, from
    # one gather of the channel from every active transmission (i, u) to
    # every node. Each coefficient is (tau_i^u * p_ij^u) * (1 - tau_j^v); the
    # channel's diagonal is 0, so a forwarder's own transmissions drop out.
    rows, slots = tau.active_coords
    rates = tau.rates.tolist()
    senders = [(i + 1, u + 1, rates[i][u]) for i, u in zip(rows.tolist(), slots.tolist())]
    channel = P.probs[rows, :, slots].T.tolist()
    for j, v in constraints:
        listen = 1.0 - rates[j - 1][v - 1]
        yield [
            (i, u, c)
            for (i, u, t), p in zip(senders, channel[j - 1])
            if (c := t * p * listen) > 0.0
        ]


def feeder_terms(
    tau: RateMatrix, P: ChannelMatrix, forwarder: int, out_slot: int
) -> list[tuple[int, int, float]]:
    """Coefficients of the coupling constraint at (forwarder, out_slot).

    Returns (sender, in_slot, coefficient) for every active transmission by
    another node with a usable channel; coefficient multiplies the matching
    x entry. Zero-coefficient terms are dropped since their x is irrelevant.
    """
    return next(_feeder_columns(tau, P, [(forwarder, out_slot)]))


def consistency_residuals(
    X: ForwardingMatrix,
    tau: RateMatrix,
    P: ChannelMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConsistencyReport:
    """Residual (incoming forwarded flow) - tau_j^v for every active relay
    transmission. X is feasible for tau iff all residuals vanish within
    the tolerance."""
    i, u = (c[:, None] for c in tau.active_coords)
    j, v = tau.relay_coords
    t_out = tau.rates[j, v]
    # One row per active transmission (i, u), one column per (j, v); the
    # channel's diagonal is 0, so i == j adds nothing.
    inflow = (
        tau.rates[i, u] * P.probs[i, j, u] * (1.0 - t_out) * X.values[i, j, u, v]
    ).sum(axis=0)
    residuals = dict(zip(relay_transmission_index(tau), (inflow - t_out).tolist()))
    return ConsistencyReport(residuals, tolerance)


def solve_chain_closed_form(
    tau: RateMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ForwardingMatrix:
    """Solve the coupling constraints when each has exactly one feeder term.

    The unique solution is x = tau_j^v / (tau_i^u * p_ij^u * (1 - tau_j^v)).
    Raises when a constraint has several feeders (no closed form), none at
    all, or demands x outside [0, 1].
    """
    values = np.zeros((spec.n_nodes, spec.n_nodes, spec.slot_count, spec.slot_count))
    index = relay_transmission_index(tau)
    for (j, v), terms in zip(index, _feeder_columns(tau, P, index)):
        t_out = tau.rate(j, v)
        if not terms:
            raise InfeasibleTauError(
                f"relay {j} transmits in slot {v} but receives no flow"
            )
        if len(terms) > 1:
            raise ClosedFormNotApplicableError(
                f"(node {j}, slot {v}) has {len(terms)} feeder terms; the "
                f"closed form needs exactly one"
            )
        i, u, coeff = terms[0]
        x = t_out / coeff
        if x > 1.0 + tolerance:
            raise InfeasibleRateError(
                f"(node {j}, slot {v}) needs forwarding probability {x:.6g} > 1; "
                f"tau is too fast for the incoming flow"
            )
        values[i - 1, j - 1, u - 1, v - 1] = min(x, 1.0)
    return ForwardingMatrix(values)


def sample_feasible_forwarding(
    tau: RateMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
    count: int,
    seed: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[ForwardingMatrix]:
    """Draw ``count`` forwarding matrices satisfying every coupling constraint.

    Each constraint fixes a weighted sum of its x entries, so the feasible
    region is the product over constraints of simplex slices bounded by
    x <= 1. Per constraint the slice is sampled by scaling flat Dirichlet
    draws and rejecting points with an entry above 1: the
    ``MAX_REJECTION_ATTEMPTS`` (200) draws are made in one batched call and
    the first accepted row is used, after which the generator is rewound so
    that it stands where drawing one point at a time up to that row would
    leave it. When all 200 draws are rejected the proportional point
    x_i = t / sum(coeffs) is used, which always lies inside; the draw is
    then not uniform on that constraint, and every sample repeats that
    point there. Deterministic per seed; sample k
    depends only on (seed, k), so draws may be distributed across workers.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    constraints = []
    index = relay_transmission_index(tau)
    for (j, v), terms in zip(index, _feeder_columns(tau, P, index)):
        t_out = tau.rate(j, v)
        total = sum(c for _, _, c in terms)
        if not terms or total + tolerance < t_out:
            raise InfeasibleTauError(
                f"relay {j} in slot {v} needs inflow {t_out:.6g} but at most "
                f"{total:.6g} is reachable even at full forwarding"
            )
        coeffs = np.array([c for _, _, c in terms])
        constraints.append((j, v, t_out, terms, total, coeffs))

    out = []
    for k in range(count):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        )
        values = np.zeros(
            (spec.n_nodes, spec.n_nodes, spec.slot_count, spec.slot_count)
        )
        for j, v, t_out, terms, total, coeffs in constraints:
            alpha = np.ones(len(terms))
            state = rng.bit_generator.state
            candidates = (
                t_out * rng.dirichlet(alpha, size=MAX_REJECTION_ATTEMPTS) / coeffs
            )
            accepted = np.flatnonzero(np.all(candidates <= 1.0, axis=1))
            if accepted.size:
                first = int(accepted[0])
                xs = candidates[first]
                # Rewind and redraw only the draws up to the accepted one, so
                # the next constraint sees the generator where a draw-by-draw
                # loop would have left it.
                rng.bit_generator.state = state
                rng.dirichlet(alpha, size=first + 1)
            else:
                # Tight constraint: fall back to the always-feasible
                # proportional solution instead of rejecting forever.
                xs = np.full(len(terms), t_out / total)
            for (i, u, _), x in zip(terms, xs):
                values[i - 1, j - 1, u - 1, v - 1] = min(float(x), 1.0)
        out.append(ForwardingMatrix(values))
    return out
