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
from scipy.linalg import get_lapack_funcs

from .channel import ChannelMatrix, channel_matrix
from .errors import (
    DivergentSystemError,
    ModelViolationError,
    NumericalError,
    SchemaError,
)
from .forwarding import (
    ForwardingMatrix,
    check_forwarder_roles,
    consistency_residuals,
    coupling,
)
from .rates import (
    DEFAULT_TOLERANCE,
    RateMatrix,
    check_flow_conservation,
    check_half_duplex,
)
from .topology import NetworkSpec

SPECTRAL_MARGIN = 1e-6

# LAPACK's LU factorization and solve for float64, resolved once: the
# ``lu_factor``/``lu_solve`` wrappers look them up and check their
# arguments on every call, which costs more than the solve of a small Q.
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


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


def spawn_rows(
    X: ForwardingMatrix, tau: RateMatrix, P: ChannelMatrix, i: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """p_ij^u * (1 - tau_j^v) * x_ij^{uv}, the probability that a copy sent
    at (i, u) spawns one at (j, v): one row per sending transmission given
    by the 0-based index arrays ``i`` and ``u``, one column per active
    relay transmission (j, v) in ``tau.relay_coords`` order."""
    j, v = tau.relay_coords
    i, u = i[:, None], u[:, None]
    return P.probs[i, j, u] * (1.0 - tau.rates[j, v]) * X.values[i, j, u, v]


def build_relaying_matrix(
    X: ForwardingMatrix,
    tau: RateMatrix,
    P: ChannelMatrix,
) -> np.ndarray:
    """Q[(i,u),(j,v)] = p_ij^u * (1 - tau_j^v) * x_ij^{uv} over the active
    relay transmissions; zero on same-node pairs. Entries must stay < 1."""
    i, u = tau.relay_coords
    # Rows (i, u) and columns (j, v) run over the same transmissions; the
    # channel's diagonal is 0, so Q is 0 on same-node pairs.
    Q = spawn_rows(X, tau, P, i, u)
    if Q.size and np.max(Q) >= 1.0:
        a, b = np.unravel_index(int(np.argmax(Q)), Q.shape)
        raise ModelViolationError(
            f"relaying probability from ({i[a] + 1}, {u[a] + 1}) to "
            f"({i[b] + 1}, {u[b] + 1}) reaches "
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
    dests = spec.destination_rows
    D = np.zeros((len(i), len(dests), spec.slot_count))
    D[np.arange(len(i)), :, u] = P.probs[i[:, None], dests, u[:, None]]
    return D.reshape(len(i), len(dests) * spec.slot_count)


def build_initial_flow(
    X: ForwardingMatrix,
    tau: RateMatrix,
    P: ChannelMatrix,
    spec: NetworkSpec,
) -> np.ndarray:
    """Per-source initial flow rows (one per source, length l + m).

    Relay component (j,v): sum_u tau_S^u * p_Sj^u * (1 - tau_j^v) * x_Sj^{uv};
    direct component (d,u): tau_S^u * p_Sd^u.
    """
    j, v = tau.relay_coords
    S, u = spec.source_rows[:, None], np.arange(spec.slot_count)[:, None, None]
    # Axis 0 is the in-slot u; a cumulative sum adds the slots in order.
    relay = np.add.accumulate(coupling(tau, P, S, u, j, v) * X.values[S, j, u, v])[-1]
    direct = tau.rates[S] * P.probs[S, spec.destination_rows]
    return np.concatenate([relay, direct.reshape(len(S), -1)], axis=1)


def spectral_radius(Q: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a non-negative matrix."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape[0] == 0:
        return 0.0
    if np.min(Q) < 0.0:
        raise ValueError("spectral_radius expects a non-negative matrix")
    return float(np.max(np.abs(np.linalg.eigvals(Q))))


def fundamental_matrix(Q: np.ndarray) -> np.ndarray:
    """M_F = (I - Q)^{-1} via LAPACK ``getrf`` and ``getrs`` (the calls
    and arguments of ``scipy.linalg.lu_factor`` and ``lu_solve``), with an
    explicit convergence guard: the series behind M_F only makes sense when
    rho(Q) < 1.

    Entries < 1 alone do not guarantee convergence (row sums may exceed 1).
    The largest absolute row sum bounds rho(Q); past 1 - ``SPECTRAL_MARGIN``
    the solve certifies it: for Q >= 0 and finite w = M_F 1 > 0, rho(Q) <=
    max_i (Q w)_i / w_i (Collatz-Wielandt), and only when that ratio is not
    below 1 - 2 ``SPECTRAL_MARGIN`` (2 covers the rounding of Q w) are the
    eigenvalues computed. A non-finite Q or a numerically singular I - Q
    raises :class:`NumericalError`.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if not np.isfinite(Q).all():
        raise NumericalError("the relaying matrix has a non-finite entry")
    lu, piv, _ = _GETRF(np.eye(n) - Q)
    singular = np.min(np.abs(np.diag(lu))) < 1e-14
    M_F = None if singular else _GETRS(lu, piv, np.eye(n))[0]
    rho_bound = float(np.max(np.abs(Q).sum(axis=1)))
    if rho_bound >= 1.0 - SPECTRAL_MARGIN and not _certifies(Q, M_F):
        rho = spectral_radius(Q)
        if rho >= 1.0 - SPECTRAL_MARGIN:
            raise DivergentSystemError(
                f"spectral radius {rho:.6g} of the relaying matrix is not "
                f"safely below 1; the flow cascade does not die out"
            )
    if singular:
        raise NumericalError("I - Q is numerically singular")
    return M_F


def _certifies(Q: np.ndarray, M_F: np.ndarray | None) -> bool:
    """Whether M_F's row sums w prove rho(Q) < 1 - 2 * SPECTRAL_MARGIN; an
    overflow of w or Q w fails the test through inf or NaN."""
    if M_F is None or not np.isfinite(M_F).all() or np.min(Q) < 0.0:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        w = M_F.sum(axis=1)
        return np.min(w) > 0.0 and np.max(Q @ w / w) < 1.0 - 2.0 * SPECTRAL_MARGIN


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q, D and F1 of the strategy: rows and columns of Q and rows of D run
    over the active relay transmissions in ``tau.relay_coords`` order, D's
    columns over (destination, slot) pairs, and each source's F1 row holds l
    relay then m direct components."""
    return (
        build_relaying_matrix(X, tau, P),
        build_arrival_matrix(tau, P, spec),
        build_initial_flow(X, tau, P, spec),
    )


def _cut_set_guard(
    tau: RateMatrix, P: ChannelMatrix, spec: NetworkSpec, f: float, tol: float
) -> None:
    # Internal sanity: in a single-source/single-relay/single-destination
    # network with disjoint slots and p_SD + p_RD <= 1, the delivered flow
    # can be proven to stay under the source-side cut 1-(1-p_SD)(1-p_SR).
    # Outside that regime duplicate copies can push f above the cut, so no
    # check applies.
    roles = spec.source_rows, spec.relay_rows, spec.destination_rows
    if any(len(rows) != 1 for rows in roles):
        return
    (s,), (r,), (d,) = (rows.tolist() for rows in roles)
    src_slots = np.flatnonzero(tau.rates[s] > 0.0).tolist()
    rel_slots = np.flatnonzero(tau.rates[r] > 0.0).tolist()
    if len(src_slots) != 1 or len(rel_slots) > 1 or rel_slots == src_slots:
        return
    u0 = src_slots[0]
    p_sd = P.probs[s, d, u0]
    p_sr = P.probs[s, r, u0]
    p_rd = P.probs[r, d, rel_slots[0]] if rel_slots else 0.0
    if p_sd + p_rd > 1.0 + tol:
        return
    bound = 1.0 - (1.0 - p_sd) * (1.0 - p_sr)
    if f > bound + 1e-9:
        raise NumericalError(
            f"delivered flow {f:.12g} exceeds the source cut {bound:.12g} in a "
            f"regime where that is impossible; flow accounting is broken"
        )


def check_strategy(
    tau: RateMatrix,
    spec: NetworkSpec,
    P: ChannelMatrix | None = None,
    X: ForwardingMatrix | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ChannelMatrix:
    """The one feasibility gate: return the channel (``channel_matrix(tau,
    spec)`` when ``P`` is None) once the strategy passes every check, in
    this order: the layouts of tau, X and P against ``spec``
    (:class:`SchemaError`), then X's forwarder roles, flow conservation,
    half duplex and X's consistency (:class:`InfeasibleError`). The checks
    on X run only when X is given. The first failure raises."""
    n, slots = spec.n_nodes, spec.slot_count
    if (
        tau.rates.shape != (n, slots)
        or tau.relay_ids != spec.relay_ids
        or tau.source_ids != spec.source_ids
    ):
        raise SchemaError("rate matrix layout does not match the network")
    if X is not None and X.values.shape != (n, n, slots, slots):
        raise SchemaError("forwarding matrix shape does not match the network")
    if P is None:
        P = channel_matrix(tau, spec)
    elif P.probs.shape != (n, n, slots):
        raise SchemaError("channel matrix shape does not match the network")
    if X is not None:
        check_forwarder_roles(X, tau).raise_if_failed()
    check_flow_conservation(tau, P, tolerance).raise_if_failed()
    check_half_duplex(tau, P, tolerance).raise_if_failed()
    if X is not None:
        consistency_residuals(X, tau, P, tolerance).raise_if_failed()
    return P


def evaluate(
    tau: RateMatrix,
    X: ForwardingMatrix,
    spec: NetworkSpec,
    channel: ChannelMatrix | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CriteriaVector:
    """Gate the strategy with :func:`check_strategy`, then build the
    transition system and compute the criteria.

    ``channel`` overrides the computed interference-aware probabilities,
    which lets callers evaluate a prescribed link model.
    """
    channel = check_strategy(tau, spec, channel, X, tolerance)

    Q, D, F1 = build_transition_system(tau, X, channel, spec)
    M_F = fundamental_matrix(Q)
    gap = delay_identity_gap(Q, M_F)
    if gap > 1e-8:
        raise NumericalError(
            f"fundamental-matrix identity violated by {gap:.3e}; "
            f"the linear solve is unreliable"
        )

    crit = criteria(F1, M_F, D)
    _cut_set_guard(tau, channel, spec, crit.f, tolerance)
    return crit
