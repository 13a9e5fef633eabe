"""Pareto dominance, front maintenance, and the discretized strategy search.

The search space is the grid of relay rate matrices (at most ``n_max``
relays active) crossed with the forwarding matrices that one sampler call
builds from each rate matrix's feasible family. Candidates stream through
feasibility gates, an exact prune, and the steady-state evaluation;
survivors enter a non-dominated archive. Dominance is one predicate on
sign-oriented objective rows, each maximized objective negated, which
``dominates``, the archive and its invariant check all share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, channel_matrix, spawned_seed
from .errors import InfeasibleError, ParetoRelayError, SchemaError
from .forwarding import ForwardingMatrix, sample_feasible_forwarding
from .rates import (
    DEFAULT_TOLERANCE,
    RateGrid,
    RateMatrix,
    enumerate_rate_matrices,
)
from .steady_state import CriteriaVector, check_strategy, evaluate
from .topology import NetworkSpec

# Not called here; kept because bench/spans.py wraps them on this module.
from .forwarding import solve_chain_closed_form
from .rates import check_flow_conservation, check_half_duplex


# The sign that makes smaller better on each criterion, fixed by the model:
# delivered flow f and capacity f_C are maximized, delay f_D and energy f_E
# minimized.
_ORIENTATION = {"f": -1.0, "f_c": -1.0, "f_d": 1.0, "f_e": 1.0}


@dataclass(frozen=True)
class ObjectiveSense:
    """Which criteria the search optimizes; each one's direction is fixed
    by ``_ORIENTATION``.

    The default compares the capped capacity reading f_C against delay and
    energy. Substituting raw f switches to the robustness reading; both
    appear in the criteria vector either way.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise SchemaError("at least one objective is required")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("duplicate objective")
        for name in self.names:
            if name not in _ORIENTATION:
                raise SchemaError(
                    f"unknown objective {name!r}; choose from {', '.join(_ORIENTATION)}"
                )

    @classmethod
    def default(cls) -> "ObjectiveSense":
        return cls(("f_c", "f_d", "f_e"))

    @classmethod
    def parse(cls, text: str) -> "ObjectiveSense":
        tokens = {name.replace("_", ""): name for name in _ORIENTATION}
        names = []
        for token in text.split(","):
            token = token.strip().lower().replace("_", "")
            if token not in tokens:
                raise SchemaError(
                    f"unknown objective {token!r}; choose from {', '.join(tokens)}"
                )
            names.append(tokens[token])
        return cls(tuple(names))

    def values(self, criteria: CriteriaVector) -> tuple[float, ...]:
        return tuple(getattr(criteria, name) for name in self.names)

    def oriented(self, criteria: CriteriaVector) -> np.ndarray:
        """The objective values with each maximized one negated, so that
        smaller is better on every objective."""
        return np.multiply(self.values(criteria), [_ORIENTATION[n] for n in self.names])


def _dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether oriented rows ``a`` dominate oriented rows ``b``, broadcast
    over the leading axes: no objective worse and at least one better. A
    NaN compares neither worse nor better, as in the scalar rule."""
    return ~np.any(a > b, -1) & np.any(a < b, -1)


def dominates(a: CriteriaVector, b: CriteriaVector, senses: ObjectiveSense) -> bool:
    """True iff ``a`` is at least as good as ``b`` on every objective and
    strictly better on at least one. Equal vectors dominate neither way."""
    return bool(_dominates(senses.oriented(a), senses.oriented(b)))


@dataclass(frozen=True)
class ParetoSolution:
    """One evaluated strategy: identifier, criteria, and the strategy itself."""

    solution_id: str
    criteria: CriteriaVector
    tau: RateMatrix
    forwarding: ForwardingMatrix


class ParetoArchive:
    """Set of mutually non-dominated solutions under :func:`dominates`.

    Members with equal objective vectors dominate neither way, so all of
    them are kept. ``_values`` holds the members' oriented objectives, one
    row per member in insertion order.
    """

    def __init__(self, senses: ObjectiveSense | None = None):
        self.senses = senses or ObjectiveSense.default()
        self._members: list[ParetoSolution] = []
        self._values = np.empty((0, len(self.senses.names)))

    def insert(self, solution: ParetoSolution) -> bool:
        """Insert unless a member dominates the newcomer; evict the members
        it dominates. Survivors keep their order and the newcomer goes last.
        Returns whether the solution was accepted."""
        row = self.senses.oriented(solution.criteria)
        if _dominates(self._values, row).any():
            return False
        keep = ~_dominates(row, self._values)
        self._members = [m for m, k in zip(self._members, keep) if k]
        self._members.append(solution)
        self._values = np.vstack([self._values[keep], row])
        return True

    def check_non_dominated(self) -> None:
        """Raise unless no member dominates another: the invariant that
        ``insert`` keeps. The objectives are rebuilt from the members'
        criteria rather than read from ``_values``. O(n^2) time and memory,
        so callers run it once, not per insert."""
        values = np.reshape(
            [self.senses.oriented(m.criteria) for m in self._members],
            (len(self._members), len(self.senses.names)),
        )
        pairs = np.argwhere(_dominates(values[:, None], values[None, :]))
        if len(pairs):
            a, b = (self._members[i] for i in pairs[0])
            raise ParetoRelayError(
                f"archive member {a.solution_id} dominates "
                f"{b.solution_id}; the front is not non-dominated"
            )

    @property
    def members(self) -> tuple[ParetoSolution, ...]:
        """The front, sorted by solution id."""
        return tuple(sorted(self._members, key=lambda s: s.solution_id))

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class PruneThresholds:
    """Optional performance floors applied before evaluating any forwarding
    matrix. Unset fields never prune."""

    min_robustness: float | None = None
    max_energy: float | None = None


@dataclass(frozen=True)
class PruneDecision:
    keep: bool
    reason: str | None
    flow: float
    energy: float


def tau_flow_rate(tau: RateMatrix, P: ChannelMatrix) -> float:
    """Delivered flow shared by every forwarding matrix feasible for tau.

    The coupling constraints make each active relay transmission carry flow
    exactly tau_j^v, so deliveries reduce to direct source arrivals plus
    tau-weighted relay arrivals regardless of how X splits the feeders.
    """
    senders = tau.source_rows.tolist() + tau.relay_rows.tolist()
    reach = sum(P.probs[:, d] for d in range(P.n_nodes) if d not in senders)
    # Sources first, then relays, each row slot by slot: a cumulative sum
    # adds in exactly that order, and idle slots add +0.0.
    return float(np.cumsum((tau.rates * reach)[senders])[-1])


def tau_energy_rate(tau: RateMatrix) -> float:
    """Relay transmissions per epoch: the sum of active relay rates. Like
    the flow rate, identical across the whole feasible forwarding family."""
    return float(np.sum(tau.relay_rates))


def prune_tau(
    tau: RateMatrix, P: ChannelMatrix, thresholds: PruneThresholds | None
) -> PruneDecision:
    """Decide whether any forwarding matrix for ``tau`` can meet the
    thresholds. Exact, not heuristic: flow and energy are tau-determined,
    so a dropped tau has no qualifying solution at all."""
    flow = tau_flow_rate(tau, P)
    energy = tau_energy_rate(tau)
    if thresholds is not None:
        if (
            thresholds.min_robustness is not None
            and flow < thresholds.min_robustness - 1e-12
        ):
            return PruneDecision(
                False,
                f"delivered flow {flow:.6g} below minimum "
                f"{thresholds.min_robustness:.6g}",
                flow,
                energy,
            )
        if (
            thresholds.max_energy is not None
            and energy > thresholds.max_energy + 1e-12
        ):
            return PruneDecision(
                False,
                f"energy rate {energy:.6g} above maximum "
                f"{thresholds.max_energy:.6g}",
                flow,
                energy,
            )
    return PruneDecision(True, None, flow, energy)


@dataclass
class SearchResult:
    archive: ParetoArchive
    n_tau: int = 0
    n_infeasible: int = 0
    n_pruned: int = 0
    n_evaluated: int = 0
    channel_slices: int = 0


def exhaustive_search(
    spec: NetworkSpec,
    grid: RateGrid,
    n_max: int,
    x_samples_per_tau: int,
    seed: int,
    senses: ObjectiveSense | None = None,
    thresholds: PruneThresholds | None = None,
    source_rates: np.ndarray | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SearchResult:
    """Stream every rate matrix on the grid through feasibility, pruning,
    forwarding generation, and evaluation; maintain the Pareto archive.

    Each rate matrix that passes the gates and the prune gets one call of
    ``sample_feasible_forwarding``: the closed form's one X when no
    constraint leaves a choice, else ``x_samples_per_tau`` draws.

    Deterministic for a fixed seed: candidate tau_idx fixes the forwarding
    sampler's seed, evaluation is pure, and archive insertion happens in
    enumeration order. The channel slices of one slot column are computed
    once per search and shared by every rate matrix that repeats the column;
    ``channel_slices`` counts them, so the other ``n_tau * slot_count -
    channel_slices`` slices were cache hits.
    """
    if x_samples_per_tau < 1:
        raise SchemaError("x_samples_per_tau must be >= 1")
    result = SearchResult(archive=ParetoArchive(senses))
    prune = thresholds not in (None, PruneThresholds())  # unset fields never prune
    slot_cache: dict = {}
    taus = enumerate_rate_matrices(grid, spec, n_max, source_rates=source_rates)
    for tau_idx, tau in enumerate(taus):
        result.n_tau += 1
        P = channel_matrix(tau, spec, slot_cache=slot_cache)
        try:
            check_strategy(tau, spec, P, tolerance=tolerance)
        except InfeasibleError:
            result.n_infeasible += 1
            continue
        if prune and not prune_tau(tau, P, thresholds).keep:
            result.n_pruned += 1
            continue
        try:
            forwardings = sample_feasible_forwarding(
                tau, P, spec, x_samples_per_tau, spawned_seed(seed, tau_idx),
                tolerance,
            )
        except InfeasibleError:
            result.n_infeasible += 1
            continue
        n_before = result.n_evaluated
        for x_idx, X in enumerate(forwardings):
            try:
                criteria = evaluate(tau, X, spec, channel=P, tolerance=tolerance)
            except InfeasibleError:
                continue
            sol = ParetoSolution(f"{tau_idx:06d}-{x_idx:04d}", criteria, tau, X)
            result.n_evaluated += 1
            result.archive.insert(sol)
        if result.n_evaluated == n_before:
            result.n_infeasible += 1
    result.archive.check_non_dominated()
    result.channel_slices = len(slot_cache)
    return result
