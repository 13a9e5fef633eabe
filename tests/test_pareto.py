import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_relay import (
    CriteriaVector,
    ForwardingMatrix,
    ObjectiveSense,
    ParetoArchive,
    ParetoSolution,
    PruneThresholds,
    RateGrid,
    Sense,
    count_rate_matrices,
    dominates,
    enumerate_rate_matrices,
    evaluate,
    exhaustive_search,
    prune_tau,
    solve_chain_closed_form,
)
from pareto_relay.errors import ParetoRelayError, SchemaError
from pareto_relay.pareto import tau_energy_rate, tau_flow_rate

from conftest import injected_channel, line_spec, make_spec, rate_matrix


def crit(fc, fd, fe, f=None):
    return CriteriaVector(f=fc if f is None else f, f_c=fc, f_d=fd, f_e=fe)


def criteria_values(archive) -> set[tuple[float, ...]]:
    """The members' objective vectors, in the archive's objective order."""
    return {archive.senses.values(m.criteria) for m in archive}


def solution(sid, criteria, spec, tau=None):
    tau = tau or rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0]])
    return ParetoSolution(
        solution_id=sid,
        criteria=criteria,
        tau=tau,
        forwarding=ForwardingMatrix.zeros(3, 2),
    )


def test_default_objectives():
    senses = ObjectiveSense.default()
    assert senses.names == ("f_c", "f_d", "f_e")
    assert senses.senses == (Sense.MAXIMIZE, Sense.MINIMIZE, Sense.MINIMIZE)
    assert senses.values(crit(0.9, 0.5, 0.3)) == (0.9, 0.5, 0.3)


def test_objective_parsing():
    assert ObjectiveSense.parse("fc,fd,fe") == ObjectiveSense.default()
    single = ObjectiveSense.parse("f")
    assert single.names == ("f",) and single.senses == (Sense.MAXIMIZE,)
    relaxed = ObjectiveSense.parse(" F_C , fD ")
    assert relaxed.names == ("f_c", "f_d")
    with pytest.raises(SchemaError):
        ObjectiveSense.parse("fc,bogus")
    with pytest.raises(SchemaError):
        ObjectiveSense.parse("fc,fc")
    with pytest.raises(SchemaError):
        ObjectiveSense.parse("")


def test_objective_sense_rejects_unknown_name():
    with pytest.raises(SchemaError, match="unknown objective 'f_x'"):
        ObjectiveSense(("f_c", "f_x"), (Sense.MAXIMIZE, Sense.MINIMIZE))


def test_objective_sense_rejects_sense_that_is_not_a_member():
    # "max" is Sense.MAXIMIZE's value, not the member; taking it would
    # silently minimize f_c.
    with pytest.raises(SchemaError, match="not a Sense"):
        ObjectiveSense(("f_c",), ("max",))


def test_dominates_examples():
    senses = ObjectiveSense.default()
    better = crit(0.9, 0.5, 0.3)
    worse = crit(0.8, 0.6, 0.3)
    assert dominates(better, worse, senses)
    assert not dominates(worse, better, senses)
    # equal vectors dominate neither way
    assert not dominates(better, crit(0.9, 0.5, 0.3), senses)
    # trade-offs are incomparable
    fast = crit(0.7, 0.1, 0.9)
    frugal = crit(0.7, 0.9, 0.1)
    assert not dominates(fast, frugal, senses)
    assert not dominates(frugal, fast, senses)


def test_dominates_respects_sense_direction():
    up = ObjectiveSense(names=("f",), senses=(Sense.MAXIMIZE,))
    down = ObjectiveSense(names=("f",), senses=(Sense.MINIMIZE,))
    hi, lo = crit(0, 0, 0, f=2.0), crit(0, 0, 0, f=1.0)
    assert dominates(hi, lo, up) and not dominates(lo, hi, up)
    assert dominates(lo, hi, down) and not dominates(hi, lo, down)


@settings(max_examples=200, deadline=None)
@given(
    a=st.tuples(*[st.integers(0, 3) for _ in range(3)]),
    b=st.tuples(*[st.integers(0, 3) for _ in range(3)]),
    c=st.tuples(*[st.integers(0, 3) for _ in range(3)]),
)
def test_dominance_is_a_strict_partial_order(a, b, c):
    senses = ObjectiveSense.default()
    ca, cb, cc = (crit(*map(float, v)) for v in (a, b, c))
    assert not dominates(ca, ca, senses)  # irreflexive
    if dominates(ca, cb, senses):
        assert not dominates(cb, ca, senses)  # asymmetric
        if dominates(cb, cc, senses):
            assert dominates(ca, cc, senses)  # transitive


def dominates_reference(a, b, senses) -> bool:
    """The scalar rule, one objective at a time with a branch per sense."""
    strict = False
    for va, vb, sense in zip(senses.values(a), senses.values(b), senses.senses):
        if sense is Sense.MAXIMIZE:
            if va < vb:
                return False
            strict = strict or va > vb
        else:
            if va > vb:
                return False
            strict = strict or va < vb
    return strict


class ReferenceArchive:
    """The pairwise-loop archive: reject when a member dominates the
    newcomer, else drop the members it dominates and append it."""

    def __init__(self, senses):
        self.senses = senses
        self.members = []

    def insert(self, solution) -> bool:
        for member in self.members:
            if dominates_reference(member.criteria, solution.criteria, self.senses):
                return False
        self.members = [
            m
            for m in self.members
            if not dominates_reference(solution.criteria, m.criteria, self.senses)
        ]
        self.members.append(solution)
        return True


@st.composite
def objective_senses(draw):
    names = draw(st.permutations(["f", "f_c", "f_d", "f_e"]))
    k = draw(st.integers(1, 4))
    senses = draw(st.lists(st.sampled_from(Sense), min_size=k, max_size=k))
    return ObjectiveSense(tuple(names[:k]), tuple(senses))


# Few values, so that ties and equal vectors are common; 0.0 and -0.0
# compare equal, and NaN compares neither way.
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0, float("nan")])


@settings(max_examples=200, deadline=None)
@given(
    senses=objective_senses(),
    vectors=st.lists(st.tuples(*[TIE_VALUES] * 4), max_size=30),
)
def test_archive_matches_pairwise_reference(senses, vectors):
    spec = line_spec(slots=2)
    archive, reference = ParetoArchive(senses), ReferenceArchive(senses)
    for k, values in enumerate(vectors):
        sol = solution(f"{k:04d}", CriteriaVector(*values), spec)
        assert archive.insert(sol) == reference.insert(sol)
    assert [m.solution_id for m in archive._members] == [
        m.solution_id for m in reference.members
    ]
    archive.check_non_dominated()
    for a in vectors[:5]:
        for b in vectors[:5]:
            ca, cb = CriteriaVector(*a), CriteriaVector(*b)
            assert dominates(ca, cb, senses) == dominates_reference(ca, cb, senses)


def test_archive_insert_and_evict(three_node):
    archive = ParetoArchive()
    assert archive.insert(solution("b", crit(0.5, 0.5, 0.5), three_node))
    assert len(archive) == 1
    # dominated newcomer is rejected
    assert not archive.insert(solution("c", crit(0.4, 0.6, 0.6), three_node))
    assert len(archive) == 1
    # incomparable newcomer coexists
    assert archive.insert(solution("d", crit(0.4, 0.1, 0.5), three_node))
    assert len(archive) == 2
    # a dominating newcomer evicts everyone it beats
    assert archive.insert(solution("a", crit(0.9, 0.05, 0.1), three_node))
    assert len(archive) == 1
    assert [s.solution_id for s in archive.members] == ["a"]


def test_archive_keeps_equal_vectors(three_node):
    archive = ParetoArchive()
    assert archive.insert(solution("x", crit(0.5, 0.5, 0.5), three_node))
    assert archive.insert(solution("y", crit(0.5, 0.5, 0.5), three_node))
    assert len(archive) == 2
    assert [s.solution_id for s in archive.members] == ["x", "y"]
    assert criteria_values(archive) == {(0.5, 0.5, 0.5)}


def test_archive_check_non_dominated(three_node):
    archive = ParetoArchive()
    archive.insert(solution("a", crit(0.5, 0.5, 0.5), three_node))
    archive.insert(solution("b", crit(0.4, 0.1, 0.5), three_node))
    archive.check_non_dominated()
    # bypass insert to plant a member that "a" dominates
    archive._members.append(solution("c", crit(0.4, 0.6, 0.6), three_node))
    with pytest.raises(ParetoRelayError, match="a dominates c"):
        archive.check_non_dominated()


def test_archive_iterates_sorted_by_id(three_node):
    archive = ParetoArchive()
    archive.insert(solution("000002-0000", crit(0.5, 0.4, 0.5), three_node))
    archive.insert(solution("000001-0000", crit(0.4, 0.3, 0.4), three_node))
    assert [s.solution_id for s in archive] == ["000001-0000", "000002-0000"]


def test_tau_rates_hand_check(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.4]], [[1.0, 0.0]])
    P = injected_channel(
        3, 2, {(1, 3, 1): 0.25, (2, 3, 2): 0.9, (1, 2, 1): 0.8}
    )
    assert tau_flow_rate(tau, P) == pytest.approx(1.0 * 0.25 + 0.4 * 0.9)
    assert tau_energy_rate(tau) == pytest.approx(0.4)


def test_prune_matches_evaluated_criteria():
    # the prune's flow/energy reading equals the evaluated f and f_e for
    # every consistent forwarding matrix, which is what makes it exact
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.8, (1, 3, 1): 0.25, (2, 3, 2): 0.9})
    X = solve_chain_closed_form(tau, P, spec)
    criteria = evaluate(tau, X, spec, channel=P)
    decision = prune_tau(tau, P, None)
    assert decision.flow == pytest.approx(criteria.f, abs=1e-12)
    assert decision.energy == pytest.approx(criteria.f_e, abs=1e-12)


def test_prune_decisions(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.4]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 3, 1): 0.25, (2, 3, 2): 0.9})
    flow = 1.0 * 0.25 + 0.4 * 0.9  # 0.61
    assert prune_tau(tau, P, None).keep
    assert prune_tau(tau, P, PruneThresholds()).keep
    kept = prune_tau(tau, P, PruneThresholds(min_robustness=flow))
    assert kept.keep  # boundary value passes
    dropped = prune_tau(tau, P, PruneThresholds(min_robustness=flow + 0.01))
    assert not dropped.keep and "flow" in dropped.reason
    assert prune_tau(tau, P, PruneThresholds(max_energy=0.4)).keep
    hot = prune_tau(tau, P, PruneThresholds(max_energy=0.39))
    assert not hot.keep and "energy" in hot.reason


def test_search_no_relays_gives_direct_solution(three_node):
    result = exhaustive_search(
        three_node, RateGrid.parse("0,0.5"), n_max=0, x_samples_per_tau=1, seed=0
    )
    assert result.n_tau == 1
    assert len(result.archive) == 1
    only = result.archive.members[0]
    assert only.criteria.f_e == 0.0
    assert only.solution_id == "000000-0000"


def test_search_counters_and_determinism(three_node):
    grid = RateGrid.parse("0,0.25,0.5")
    kwargs = dict(n_max=1, x_samples_per_tau=3, seed=0, collect_evaluated=True)
    a = exhaustive_search(three_node, grid, **kwargs)
    b = exhaustive_search(three_node, grid, **kwargs)
    assert a.n_tau == count_rate_matrices(grid, three_node, 1) == 9
    assert a.n_tau == a.n_infeasible + a.n_pruned + len(
        {s.solution_id.split("-")[0] for s in a.evaluated}
    )
    assert a.n_pruned == 0
    assert a.n_evaluated == len(a.evaluated)
    assert [s.solution_id for s in a.archive] == [s.solution_id for s in b.archive]
    assert criteria_values(a.archive) == criteria_values(b.archive)
    for s in a.archive:
        assert re.fullmatch(r"\d{6}-\d{4}", s.solution_id)


def test_search_front_equals_brute_force_filter(three_node):
    grid = RateGrid.parse("0,0.25,0.5")
    result = exhaustive_search(
        three_node, grid, n_max=1, x_samples_per_tau=3, seed=0,
        collect_evaluated=True,
    )
    senses = ObjectiveSense.default()
    non_dominated = {
        s.solution_id
        for s in result.evaluated
        if not any(
            dominates(o.criteria, s.criteria, senses) for o in result.evaluated
        )
    }
    assert {s.solution_id for s in result.archive} == non_dominated


def test_search_rerun_is_deterministic(three_node):
    grid = RateGrid.parse("0,0.25,0.5")
    kwargs = dict(n_max=1, x_samples_per_tau=3, seed=1)
    first = exhaustive_search(three_node, grid, **kwargs)
    second = exhaustive_search(three_node, grid, **kwargs)
    assert [s.solution_id for s in first.archive] == [
        s.solution_id for s in second.archive
    ]
    assert criteria_values(first.archive) == criteria_values(second.archive)
    assert (first.n_tau, first.n_infeasible, first.n_pruned, first.n_evaluated) == (
        second.n_tau,
        second.n_infeasible,
        second.n_pruned,
        second.n_evaluated,
    )


def test_search_slack_thresholds_do_not_change_front(three_node):
    grid = RateGrid.parse("0,0.25,0.5")
    plain = exhaustive_search(three_node, grid, n_max=1, x_samples_per_tau=3, seed=0)
    slack = exhaustive_search(
        three_node, grid, n_max=1, x_samples_per_tau=3, seed=0,
        thresholds=PruneThresholds(min_robustness=0.0, max_energy=10.0),
    )
    assert slack.n_pruned == 0
    assert [s.solution_id for s in plain.archive] == [
        s.solution_id for s in slack.archive
    ]


def test_search_energy_threshold_prunes_all_relaying(three_node):
    grid = RateGrid.parse("0,0.25,0.5")
    result = exhaustive_search(
        three_node, grid, n_max=1, x_samples_per_tau=3, seed=0,
        thresholds=PruneThresholds(max_energy=0.0),
    )
    # every tau with an active relay is pruned before forwarding sampling
    assert result.n_pruned + result.n_infeasible == 8
    assert len(result.archive) == 1
    assert result.archive.members[0].criteria.f_e == 0.0


def test_search_multi_feeder_uses_sampled_forwarding():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0.5),
            (4, "destination", 2, 0.5),
        ]
    )
    source_rates = np.array([[0.5, 0.0], [0.5, 0.0]])
    result = exhaustive_search(
        spec, RateGrid.parse("0,0.3"), n_max=1, x_samples_per_tau=4, seed=0,
        source_rates=source_rates, collect_evaluated=True,
    )
    assert result.n_tau == 4
    # rate matrices with an active relay have two feeders, so their
    # candidates carry distinct x indices from the sampler
    x_indices = {
        s.solution_id for s in result.evaluated if s.solution_id.endswith("0001")
    }
    assert x_indices
    # stored strategies re-evaluate to their recorded criteria
    for s in result.archive:
        again = evaluate(s.tau, s.forwarding, spec)
        assert again.as_tuple() == pytest.approx(s.criteria.as_tuple(), abs=1e-12)


def fork_spec():
    """The benchmark's 5-node, 3-slot line-and-fork network."""
    return make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0.5),
            (3, "relay", 1, -0.5),
            (4, "relay", 2, 0),
            (5, "destination", 3, 0),
        ],
        slots=3,
    )


def test_search_counts_channel_slices():
    # The benchmark's search-interference network: 169 rate matrices share
    # 21 distinct (slot, column) pairs.
    spec = fork_spec()
    grid = RateGrid.parse("0,0.25")
    result = exhaustive_search(spec, grid, n_max=2, x_samples_per_tau=1, seed=0)
    columns = {
        (u, tuple(tau.rate(i, u) for i in range(1, spec.n_nodes + 1)))
        for tau in enumerate_rate_matrices(grid, spec, 2)
        for u in range(1, spec.slot_count + 1)
    }
    assert result.n_tau == 169
    assert result.channel_slices == len(columns) == 21
    assert result.n_tau * spec.slot_count - result.channel_slices == 486


def front_digest(result) -> str:
    """sha256 over the front as front.csv writes it (id and criteria to 12
    significant digits), then the search's four counts."""
    lines = [
        ",".join([s.solution_id] + [f"{v:.12g}" for v in s.criteria.as_tuple()])
        for s in result.archive.members
    ]
    lines.append(
        f"{result.n_tau},{result.n_infeasible},{result.n_pruned},{result.n_evaluated}"
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "grid, n_max, x_samples, objectives, front_size, digest",
    [
        # The anchor search: 2107 rate matrices, 2980 candidates evaluated.
        (
            "0,0.25,0.5", 2, 5, "fc,fd,fe", 162,
            "a9e2735210825389c584212c3232231b6b89ff733b717cca96aad9c106cf59fa",
        ),
        # The benchmark-size search under the robustness reading.
        (
            "0,0.25", 2, 1, "f,fe", 13,
            "b84e3cb22256e84974bdce2baae772010b2c2be65a188617b0476937b6e33fe2",
        ),
    ],
)
def test_search_front_digest_is_pinned(
    grid, n_max, x_samples, objectives, front_size, digest
):
    result = exhaustive_search(
        fork_spec(), RateGrid.parse(grid), n_max=n_max,
        x_samples_per_tau=x_samples, seed=0,
        senses=ObjectiveSense.parse(objectives),
    )
    assert len(result.archive) == front_size
    assert front_digest(result) == digest
