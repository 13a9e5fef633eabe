"""Pareto dominance, front maintenance, and the discretized strategy search.

The search space is the grid of relay rate matrices (at most ``n_max``
relays active) crossed with forwarding matrices sampled from each rate
matrix's feasible family. Candidates stream through feasibility gates,
an exact prune, and the steady-state evaluation; survivors enter a
non-dominated archive. Dominance is one predicate on sign-oriented
objective rows, each maximized objective negated, which ``dominates``,
the archive and its invariant check all share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, channel_matrix
from .errors import (
    ClosedFormNotApplicableError,
    InfeasibleError,
    ParetoRelayError,
    SchemaError,
)
from .forwarding import (
    ForwardingMatrix,
    sample_feasible_forwarding,
    solve_chain_closed_form,
)
from .rates import (
    DEFAULT_TOLERANCE,
    RateGrid,
    RateMatrix,
    check_flow_conservation,
    check_half_duplex,
    enumerate_rate_matrices,
    relay_transmission_index,
)
from .steady_state import CriteriaVector, evaluate
from .topology import NetworkSpec


class Sense(enum.Enum):
    MAXIMIZE = "max"
    MINIMIZE = "min"


_OBJECTIVE_TOKENS = {
    "f": ("f", Sense.MAXIMIZE),
    "fc": ("f_c", Sense.MAXIMIZE),
    "fd": ("f_d", Sense.MINIMIZE),
    "fe": ("f_e", Sense.MINIMIZE),
}
_CRITERIA = tuple(name for name, _ in _OBJECTIVE_TOKENS.values())


@dataclass(frozen=True)
class ObjectiveSense:
    """Which criteria the search optimizes, and in which direction.

    The default compares the capped capacity reading f_C (maximized)
    against delay and energy (minimized). Substituting raw f switches to
    the robustness reading; both appear in the criteria vector either way.
    """

    names: tuple[str, ...]
    senses: tuple[Sense, ...]

    def __post_init__(self):
        if len(self.names) != len(self.senses) or not self.names:
            raise SchemaError("objective names and senses must align")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("duplicate objective")
        for name in self.names:
            if name not in _CRITERIA:
                raise SchemaError(
                    f"unknown objective {name!r}; choose from {', '.join(_CRITERIA)}"
                )
        for sense in self.senses:
            if not isinstance(sense, Sense):
                raise SchemaError(f"objective sense {sense!r} is not a Sense")

    @classmethod
    def default(cls) -> "ObjectiveSense":
        return cls(
            names=("f_c", "f_d", "f_e"),
            senses=(Sense.MAXIMIZE, Sense.MINIMIZE, Sense.MINIMIZE),
        )

    @classmethod
    def parse(cls, text: str) -> "ObjectiveSense":
        names, senses = [], []
        for token in text.split(","):
            token = token.strip().lower().replace("_", "")
            if token not in _OBJECTIVE_TOKENS:
                raise SchemaError(
                    f"unknown objective {token!r}; choose from f, fc, fd, fe"
                )
            name, sense = _OBJECTIVE_TOKENS[token]
            names.append(name)
            senses.append(sense)
        return cls(names=tuple(names), senses=tuple(senses))

    def values(self, criteria: CriteriaVector) -> tuple[float, ...]:
        return tuple(getattr(criteria, name) for name in self.names)

    def oriented(self, criteria: CriteriaVector) -> np.ndarray:
        """The objective values with each maximized one negated, so that
        smaller is better on every objective."""
        signs = [-1.0 if sense is Sense.MAXIMIZE else 1.0 for sense in self.senses]
        return np.multiply(self.values(criteria), signs)


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
    transmitters = set(tau.transmitter_ids)
    reach = sum(P.probs[:, d] for d in range(P.n_nodes) if d + 1 not in transmitters)
    senders = np.array(tau.source_ids + tau.relay_ids) - 1
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
    evaluated: list[ParetoSolution] = field(default_factory=list)


def _tau_seed(seed: int, tau_idx: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tau_idx,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _forwardings(
    tau: RateMatrix, P: ChannelMatrix, spec: NetworkSpec, x_samples: int,
    seed: int, tau_idx: int, tolerance: float,
) -> list[ForwardingMatrix]:
    """The forwarding matrices to evaluate for ``tau``: the zero matrix when
    no relay transmits, else the closed form, else ``x_samples`` draws of
    the sampler. Raises :class:`InfeasibleError` when tau admits none."""
    if not relay_transmission_index(tau):
        return [ForwardingMatrix.zeros(spec.n_nodes, spec.slot_count)]
    try:
        return [solve_chain_closed_form(tau, P, spec, tolerance)]
    except ClosedFormNotApplicableError:
        return sample_feasible_forwarding(
            tau, P, spec, x_samples, _tau_seed(seed, tau_idx), tolerance
        )


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
    collect_evaluated: bool = False,
) -> SearchResult:
    """Stream every rate matrix on the grid through feasibility, pruning,
    forwarding generation, and evaluation; maintain the Pareto archive.

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
    slot_cache: dict = {}
    taus = enumerate_rate_matrices(grid, spec, n_max, source_rates=source_rates)
    for tau_idx, tau in enumerate(taus):
        result.n_tau += 1
        P = channel_matrix(tau, spec, slot_cache=slot_cache)
        if not (
            check_flow_conservation(tau, P, tolerance).all_ok
            and check_half_duplex(tau, P, tolerance).all_ok
        ):
            result.n_infeasible += 1
            continue
        if not prune_tau(tau, P, thresholds).keep:
            result.n_pruned += 1
            continue
        try:
            forwardings = _forwardings(
                tau, P, spec, x_samples_per_tau, seed, tau_idx, tolerance
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
            if collect_evaluated:
                result.evaluated.append(sol)
        if result.n_evaluated == n_before:
            result.n_infeasible += 1
    result.archive.check_non_dominated()
    result.channel_slices = len(slot_cache)
    return result
