"""Steady-state packet-flow analysis and the four performance criteria.

Active relay transmissions form the transient states of a linear flow
recursion: Q moves expected flow between relay transmissions epoch by
epoch, D absorbs it at the destinations, and the sources induce the
initial flow F(1). The fundamental matrix M_F = (I - Q)^{-1} sums the
whole cascade, giving

    f   = F1_relay . M_F . D . 1  +  F1_direct . 1   (delivered flow)
    f_C = min(1, f)                                   (capacity reading)
    f_D = F1_relay . M_F^2 . D . 1                    (relay-hop delay mass)
    f_E = F1_relay . M_F . 1                          (relay transmissions)

Multiple sources superpose: each contributes its own F(1) row against the
same Q and D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .channel import ChannelMatrix, channel_matrix
from .errors import (
    DivergentSystemError,
    ModelViolationError,
    NumericalError,
    SchemaError,
)
from .forwarding import ForwardingMatrix, check_forwarder_roles, consistency_residuals
from .rates import (
    DEFAULT_TOLERANCE,
    RateMatrix,
    check_flow_conservation,
    check_half_duplex,
    relay_transmission_index,
)
from .topology import NetworkSpec

SPECTRAL_MARGIN = 1e-6


@dataclass(frozen=True)
class CriteriaVector:
    """The four steady-state criteria for one (tau, X) strategy."""

    f: float
    f_c: float
    f_d: float
    f_e: float

    def to_json_dict(self) -> dict:
        return {"f": self.f, "f_c": self.f_c, "f_d": self.f_d, "f_e": self.f_e}

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f, self.f_c, self.f_d, self.f_e)


def destination_slot_index(spec: NetworkSpec) -> tuple[tuple[int, int], ...]:
    """Absorbing coordinates (destination, slot); columns of D."""
    return tuple(
        (d, u) for d in spec.destination_ids for u in range(1, spec.slot_count + 1)
    )


@dataclass(frozen=True)
class TransitionSystem:
    """Q, D and per-source initial flows over a fixed transmission index.

    ``relay_index`` lists the active relay transmissions backing the l rows
    and columns of Q (sources inject through F1, so they carry no row);
    ``arrival_index`` lists the m destination-slot columns of D. Each F1 row
    is the concatenation (l relay components, m direct-arrival components)
    for one source.
    """

    relay_index: tuple[tuple[int, int], ...]
    arrival_index: tuple[tuple[int, int], ...]
    Q: np.ndarray
    D: np.ndarray
    F1: np.ndarray

    @property
    def n_transient(self) -> int:
        return len(self.relay_index)


def build_relaying_matrix(
    X: ForwardingMatrix,
    tau: RateMatrix,
    P: ChannelMatrix,
) -> np.ndarray:
    """Q[(i,u),(j,v)] = p_ij^u * (1 - tau_j^v) * x_ij^{uv} over the active
    relay transmissions; zero on same-node pairs. Entries must stay < 1."""
    index = relay_transmission_index(tau)
    i, u = tau.relay_coords
    # Rows (i, u) and columns (j, v) run over the same transmissions; the
    # channel's diagonal is 0, so Q is 0 on same-node pairs.
    Q = (
        P.probs[i[:, None], i, u[:, None]] * (1.0 - tau.rates[i, u])
        * X.values[i[:, None], i, u[:, None], u]
    )
    if Q.size and np.max(Q) >= 1.0:
        a, b = np.unravel_index(int(np.argmax(Q)), Q.shape)
        raise ModelViolationError(
            f"relaying probability from {index[a]} to {index[b]} reaches "
            f"{Q[a, b]:.6g}; the flow recursion needs every entry < 1"
        )
    return Q


def build_arrival_matrix(
    tau: RateMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
) -> np.ndarray:
    """D[(i,u),(d,w)] = p_id^u when w = u, else 0: a transmission reaches a
    destination only in its own slot."""
    i, u = tau.relay_coords
    dests = np.array(spec.destination_ids) - 1
    D = np.zeros((len(i), len(dests), spec.slot_count))
    D[np.arange(len(i)), :, u] = P.probs[i[:, None], dests, u[:, None]]
    return D.reshape(len(i), len(dests) * spec.slot_count)


def build_initial_flow(
    source_rates: np.ndarray,
    X: ForwardingMatrix,
    tau: RateMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
) -> np.ndarray:
    """Per-source initial flow rows (one per source, length l + m).

    Relay component (j,v): sum_u tau_S^u * p_Sj^u * (1 - tau_j^v) * x_Sj^{uv};
    direct component (d,u): tau_S^u * p_Sd^u.
    """
    source_rates = np.asarray(source_rates, dtype=float)
    sources = np.array(spec.source_ids) - 1
    if source_rates.shape != (len(sources), spec.slot_count):
        raise SchemaError(
            f"source rates must have shape ({len(sources)}, {spec.slot_count})"
        )
    j, v = tau.relay_coords
    S, u = sources[:, None], np.arange(spec.slot_count)[:, None, None]
    # Axis 0 is the in-slot u; a cumulative sum adds the slots in order.
    relay = np.add.accumulate(
        source_rates.T[:, :, None] * P.probs[S, j, u] * (1.0 - tau.rates[j, v])
        * X.values[S, j, u, v]
    )[-1]
    dests = np.array(spec.destination_ids) - 1
    direct = source_rates[:, None, :] * P.probs[S, dests]
    return np.concatenate([relay, direct.reshape(len(sources), -1)], axis=1)


def spectral_radius(Q: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a non-negative matrix."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape[0] == 0:
        return 0.0
    if np.min(Q) < 0.0:
        raise ValueError("spectral_radius expects a non-negative matrix")
    return float(np.max(np.abs(np.linalg.eigvals(Q))))


def fundamental_matrix(Q: np.ndarray) -> np.ndarray:
    """M_F = (I - Q)^{-1} via LU factorization with an explicit convergence
    guard: the series behind M_F only makes sense when rho(Q) < 1.

    Entries < 1 alone do not guarantee convergence (row sums may exceed 1),
    so the spectral radius is always checked.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    rho_bound = float(np.max(np.abs(Q).sum(axis=1)))
    if rho_bound >= 1.0 - SPECTRAL_MARGIN:
        rho = spectral_radius(Q)
        if rho >= 1.0 - SPECTRAL_MARGIN:
            raise DivergentSystemError(
                f"spectral radius {rho:.6g} of the relaying matrix is not "
                f"safely below 1; the flow cascade does not die out"
            )
    try:
        lu, piv = lu_factor(np.eye(n) - Q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"I - Q could not be factorized: {exc}") from exc
    if np.min(np.abs(np.diag(lu))) < 1e-14:
        raise NumericalError("I - Q is numerically singular")
    return lu_solve((lu, piv), np.eye(n))


def delay_identity_gap(Q: np.ndarray, M_F: np.ndarray) -> float:
    """Max-norm gap of M_F^2 = M_F + Q @ M_F^2, the identity behind using
    M_F^2 as the expected-visits-weighted accumulator."""
    if Q.shape[0] == 0:
        return 0.0
    M2 = M_F @ M_F
    return float(np.max(np.abs(M2 - (M_F + Q @ M2))))


def criteria(F1: np.ndarray, M_F: np.ndarray, D: np.ndarray) -> CriteriaVector:
    """The four criteria from the initial flow, the fundamental matrix and
    the arrival matrix. Rows of F1 (one per source) superpose. f counts
    copies and adds the direct source deliveries; f_C caps it at 1; f_D
    weights each delivery by the relay transmissions on its path, so
    direct deliveries add nothing; f_E counts relay transmissions."""
    l = M_F.shape[0]
    visits = F1[:, :l] @ M_F
    f = float(np.sum(visits @ D) + np.sum(F1[:, l:]))
    return CriteriaVector(
        f=f, f_c=min(1.0, f), f_d=float(np.sum(visits @ M_F @ D)),
        f_e=float(np.sum(visits)),
    )


def build_transition_system(
    tau: RateMatrix,
    X: ForwardingMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
) -> TransitionSystem:
    return TransitionSystem(
        relay_index=relay_transmission_index(tau),
        arrival_index=destination_slot_index(spec),
        Q=build_relaying_matrix(X, tau, P),
        D=build_arrival_matrix(tau, P, spec),
        F1=build_initial_flow(tau.source_rates, X, tau, P, spec),
    )


def _cut_set_guard(
    tau: RateMatrix, P: ChannelMatrix, spec: NetworkSpec, f: float, tol: float
) -> None:
    # Internal sanity: in a single-source/single-relay/single-destination
    # network with disjoint slots and p_SD + p_RD <= 1, the delivered flow
    # can be proven to stay under the source-side cut 1-(1-p_SD)(1-p_SR).
    # Outside that regime duplicate copies can push f above the cut, so no
    # check applies.
    if (
        len(spec.source_ids) != 1
        or len(spec.relay_ids) != 1
        or len(spec.destination_ids) != 1
    ):
        return
    S, R, D_id = spec.source_ids[0], spec.relay_ids[0], spec.destination_ids[0]
    src_slots = [u + 1 for u, t in enumerate(tau.row(S)) if t > 0.0]
    rel_slots = [v + 1 for v, t in enumerate(tau.row(R)) if t > 0.0]
    if len(src_slots) != 1 or len(rel_slots) > 1 or rel_slots == src_slots:
        return
    u0 = src_slots[0]
    p_sd = P.p(S, D_id, u0)
    p_sr = P.p(S, R, u0)
    p_rd = P.p(R, D_id, rel_slots[0]) if rel_slots else 0.0
    if p_sd + p_rd > 1.0 + tol:
        return
    bound = 1.0 - (1.0 - p_sd) * (1.0 - p_sr)
    if f > bound + 1e-9:
        raise NumericalError(
            f"delivered flow {f:.12g} exceeds the source cut {bound:.12g} in a "
            f"regime where that is impossible; flow accounting is broken"
        )


def check_layout(
    tau: RateMatrix,
    X: ForwardingMatrix,
    spec: NetworkSpec,
    channel: ChannelMatrix | None = None,
) -> None:
    """Raise :class:`SchemaError` unless tau, X and the channel (when given)
    are laid out for ``spec``'s nodes and slots."""
    n, slots = spec.n_nodes, spec.slot_count
    if (
        tau.rates.shape != (n, slots)
        or tau.relay_ids != spec.relay_ids
        or tau.source_ids != spec.source_ids
    ):
        raise SchemaError("rate matrix layout does not match the network")
    if X.values.shape != (n, n, slots, slots):
        raise SchemaError("forwarding matrix shape does not match the network")
    if channel is not None and channel.probs.shape != (n, n, slots):
        raise SchemaError("channel matrix shape does not match the network")


def evaluate(
    tau: RateMatrix,
    X: ForwardingMatrix,
    spec: NetworkSpec,
    channel: ChannelMatrix | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    check_feasibility: bool = True,
) -> CriteriaVector:
    """Full pipeline: channel, feasibility gates, transition system, criteria.

    ``channel`` overrides the computed interference-aware probabilities,
    which lets callers evaluate a prescribed link model.
    """
    check_layout(tau, X, spec, channel)
    if channel is None:
        channel = channel_matrix(tau, spec)

    if check_feasibility:
        check_forwarder_roles(X, tau)
        check_flow_conservation(tau, channel, tolerance).raise_if_failed()
        check_half_duplex(tau, channel, tolerance).raise_if_failed()
        consistency_residuals(X, tau, channel, tolerance).raise_if_inconsistent()

    ts = build_transition_system(tau, X, channel, spec)
    M_F = fundamental_matrix(ts.Q)
    gap = delay_identity_gap(ts.Q, M_F)
    if gap > 1e-8:
        raise NumericalError(
            f"fundamental-matrix identity violated by {gap:.3e}; "
            f"the linear solve is unreliable"
        )

    crit = criteria(ts.F1, M_F, ts.D)
    if check_feasibility:
        _cut_set_guard(tau, channel, spec, crit.f, tolerance)
    return crit
