"""Forwarding-probability matrices and the rate-coupling constraints.

A relay j that transmits in slot v at rate tau_j^v must be fed exactly that
much flow: summed over senders i and in-slots u,

    tau_i^u * p_ij^u * (1 - tau_j^v) * x_ij^{uv}  =  tau_j^v.

The x entries are free parameters in [0, 1] otherwise, so the feasible set
per active relay transmission is a simplex slice. This module checks the
constraints and builds X from one table of them, which refuses a tau that
admits no X. The table's proportional point is the closed form when each
constraint has a single feeder term; otherwise the sampler draws the
polytope by rejection: each constraint draws its 200 candidate points in one
batch and takes the first one inside the box; a constraint whose draws are
all rejected keeps its proportional point, so the samples are not uniform on
such a constraint.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrix, spawned_rng
from .errors import (
    ClosedFormNotApplicableError,
    InconsistentForwardingError,
    InfeasibleRateError,
    InfeasibleTauError,
    ModelViolationError,
    SchemaError,
)
from .rates import DEFAULT_TOLERANCE, GateReport, RateMatrix, in_unit_interval
from .topology import NetworkSpec, read_object, sparse_entries, zero_based

MAX_REJECTION_ATTEMPTS = 200


class ForwardingMatrix:
    """x[i, j, u, v]: probability that j retransmits in slot v a packet it
    received from i in slot u. Entries live in [0, 1]."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 4 or values.shape[0] != values.shape[1] \
                or values.shape[2] != values.shape[3]:
            raise SchemaError("forwarding matrix must have shape (n, n, T, T)")
        if not in_unit_interval(values):
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
        at = zero_based(self.values.shape, sender=sender, forwarder=forwarder,
                        in_slot=in_slot, out_slot=out_slot)
        return float(self.values[at])

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


def check_forwarder_roles(X: ForwardingMatrix, tau: RateMatrix) -> GateReport:
    """Nonzero forwarding by a source or destination breaks the model."""
    mask = np.ones(X.n_nodes, dtype=bool)
    mask[tau.relay_rows] = False
    forwards = np.any(X.values[:, mask] > 0.0, axis=(0, 2, 3)).tolist()
    ids = (np.flatnonzero(mask) + 1).tolist()
    entries = {k: (not f,) for k, f in zip(ids, forwards)}  # source or destination -> (ok,)
    return GateReport(
        entries, ModelViolationError,
        "forwarding entries must be zero when the forwarder is a source or a "
        "destination",
    )


def coupling(tau: RateMatrix, P: ChannelMatrix, i, u, j, v) -> np.ndarray:
    """tau_i^u * p_ij^u * (1 - tau_j^v), the coefficient of x_ij^{uv} in the
    coupling constraint at (j, v), on 0-based node and slot index arrays that
    broadcast together. The channel's diagonal is 0, so it is 0 for i == j."""
    return tau.rates[i, u] * P.probs[i, j, u] * (1.0 - tau.rates[j, v])


def _constraints(
    tau: RateMatrix, P: ChannelMatrix, tolerance: float
) -> list[tuple[int, int, float, list[tuple[int, int, float]], float]]:
    # (j, v, tau_j^v, terms, total) per active relay transmission, in
    # relay_coords order; terms holds (i, u, coefficient) per active
    # transmission (i, u) with a positive coefficient, total their sum. All
    # indices are 0-based. Refuses a relay with no feeder, or one whose
    # residual at x = 1 exceeds what the coupling gate forgives.
    i, u = tau.active_coords
    j, v = tau.relay_coords
    senders = list(zip(i.tolist(), u.tolist()))
    columns = coupling(tau, P, i[:, None], u[:, None], j, v).T.tolist()
    table = []
    for jk, vk, t_out, column in zip(
        j.tolist(), v.tolist(), tau.rates[j, v].tolist(), columns
    ):
        terms = [(a, b, c) for (a, b), c in zip(senders, column) if c > 0.0]
        if not terms:
            raise InfeasibleTauError(
                f"relay {jk + 1} transmits in slot {vk + 1} but receives no flow"
            )
        total = sum(c for _, _, c in terms)
        if t_out - total > tolerance:
            raise InfeasibleRateError(
                f"(node {jk + 1}, slot {vk + 1}) needs forwarding probability > 1: "
                f"residual {t_out - total:.3e} at x = 1 exceeds {tolerance:.1e}; "
                f"tau is too fast for the incoming flow"
            )
        table.append((jk, vk, t_out, terms, total))
    return table


def _proportional_point(table, spec: NetworkSpec) -> np.ndarray:
    # x = min(tau_j^v / total, 1) on every feeder: inside the box always,
    # and the one solution when each constraint has one feeder.
    values = np.zeros((spec.n_nodes, spec.n_nodes, spec.slot_count, spec.slot_count))
    for j, v, t_out, terms, total in table:
        x = min(t_out / total, 1.0)
        for i, u, _ in terms:
            values[i, j, u, v] = x
    return values


def feeder_terms(
    tau: RateMatrix, P: ChannelMatrix, forwarder: int, out_slot: int
) -> list[tuple[int, int, float]]:
    """Coefficients of the coupling constraint at (forwarder, out_slot).

    Returns (sender, in_slot, coefficient) for every active transmission by
    another node with a usable channel; coefficient multiplies the matching
    x entry. Zero-coefficient terms are dropped since their x is irrelevant.
    """
    i, u = tau.active_coords
    j, v = zero_based(P.probs.shape[1:], forwarder=forwarder, out_slot=out_slot)
    column = coupling(tau, P, i, u, j, v).tolist()
    return [
        (a + 1, b + 1, c) for a, b, c in zip(i.tolist(), u.tolist(), column) if c > 0.0
    ]


def consistency_residuals(
    X: ForwardingMatrix,
    tau: RateMatrix,
    P: ChannelMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateReport:
    """Residual (incoming forwarded flow) - tau_j^v for every active relay
    transmission (forwarder, out-slot); sources inject flow and carry none.
    X is feasible for tau iff all residuals vanish within the tolerance."""
    i, u = (c[:, None] for c in tau.active_coords)
    j, v = tau.relay_coords
    # One row per active transmission (i, u), one column per (j, v).
    inflow = (coupling(tau, P, i, u, j, v) * X.values[i, j, u, v]).sum(axis=0)
    keys = zip((j + 1).tolist(), (v + 1).tolist())
    residuals = dict(zip(keys, (inflow - tau.rates[j, v]).tolist()))
    entries = {k: (r, abs(r) <= tolerance) for k, r in residuals.items()}  # -> (residual, ok)
    # The message names the first entry with the largest |residual|.
    worst = max(residuals, key=lambda k: abs(residuals[k]), default=None)
    message = "" if worst is None else (
        f"forwarding matrix violates the rate-coupling constraint at "
        f"(node {worst[0]}, slot {worst[1]}): residual "
        f"{residuals[worst]:.3e} exceeds {tolerance:.1e}"
    )
    return GateReport(entries, InconsistentForwardingError, message)


def solve_chain_closed_form(
    tau: RateMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ForwardingMatrix:
    """Solve the coupling constraints when each has exactly one feeder term.

    The unique solution is x = tau_j^v / (tau_i^u * p_ij^u * (1 - tau_j^v));
    with no active relay transmission it is the zero matrix. First, as in
    the sampler, a constraint with no feeder, or one that demands x > 1
    beyond what the coupling gate forgives (tau_j^v - coeff > tolerance), is
    refused; a smaller excess is clipped to x = 1. Then a constraint with
    several feeders raises :class:`ClosedFormNotApplicableError`.
    """
    table = _constraints(tau, P, tolerance)
    for j, v, _, terms, _ in table:
        if len(terms) > 1:
            raise ClosedFormNotApplicableError(
                f"(node {j + 1}, slot {v + 1}) has {len(terms)} feeder terms; the "
                f"closed form needs exactly one"
            )
    return ForwardingMatrix(_proportional_point(table, spec))


def sample_feasible_forwarding(
    tau: RateMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
    count: int,
    seed: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[ForwardingMatrix]:
    """Draw ``count`` forwarding matrices satisfying every coupling
    constraint, or return the one that exists.

    Each constraint fixes a weighted sum of its x entries, so the feasible
    region is the product over constraints of simplex slices bounded by
    x <= 1. When no constraint has two feeders, or no relay transmits, it is
    one point, the closed form's, returned alone without a generator. Else
    per constraint the slice is sampled by scaling flat Dirichlet draws and
    rejecting points with an entry above 1: the
    ``MAX_REJECTION_ATTEMPTS`` (200) draws are made in one batched call and
    the first accepted row is used, after which the generator is rewound so
    that it stands where drawing one point at a time up to that row would
    leave it. When all 200 draws are rejected the constraint keeps the
    proportional point x_i = min(t / sum(coeffs), 1), which always lies
    inside; the draw is then not uniform on that constraint, and every
    sample repeats that point there. Deterministic per seed; sample k
    depends only on (seed, k), so draws may be distributed across workers.
    It refuses a tau as the closed form does.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    table = _constraints(tau, P, tolerance)
    point = _proportional_point(table, spec)
    if all(len(terms) == 1 for _, _, _, terms, _ in table):
        return [ForwardingMatrix(point)]
    coeffs = [np.array([c for _, _, c in terms]) for _, _, _, terms, _ in table]

    out = []
    for k in range(count):
        rng = spawned_rng(seed, k)
        values = point.copy()
        for (j, v, t_out, terms, _), c in zip(table, coeffs):
            alpha = np.ones(len(terms))
            state = rng.bit_generator.state
            candidates = t_out * rng.dirichlet(alpha, size=MAX_REJECTION_ATTEMPTS) / c
            accepted = np.flatnonzero(np.all(candidates <= 1.0, axis=1))
            if not accepted.size:
                # Tight constraint: keep the always-feasible proportional
                # point instead of rejecting forever.
                continue
            first = int(accepted[0])
            # Rewind and redraw only the draws up to the accepted one, so
            # the next constraint sees the generator where a draw-by-draw
            # loop would have left it.
            rng.bit_generator.state = state
            rng.dirichlet(alpha, size=first + 1)
            for (i, u, _), x in zip(terms, candidates[first]):
                values[i, j, u, v] = x
        out.append(ForwardingMatrix(values))
    return out
