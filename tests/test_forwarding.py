import json

import numpy as np
import pytest

from pareto_relay import (
    ForwardingMatrix,
    consistency_residuals,
    sample_feasible_forwarding,
    solve_chain_closed_form,
)
from pareto_relay.errors import (
    ClosedFormNotApplicableError,
    InconsistentForwardingError,
    InfeasibleRateError,
    InfeasibleTauError,
    ModelViolationError,
    SchemaError,
)
from pareto_relay.forwarding import (
    MAX_REJECTION_ATTEMPTS,
    check_forwarder_roles,
    feeder_terms,
)
from pareto_relay.rates import relay_transmission_index

from conftest import injected_channel, line_spec, make_spec, rate_matrix


def chain_setup(tau_r=0.4, p_sr=0.8):
    """Source fires at rate 1 in slot 1; relay forwards in slot 2."""
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, tau_r]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): p_sr, (2, 3, 2): 0.9, (1, 3, 1): 0.2})
    return spec, tau, P


def two_source_setup():
    """Two sources feed the relay in slot 1; relay forwards in slot 2."""
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ]
    )
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0], [1.0, 0.0]])
    P = injected_channel(
        4, 2, {(1, 3, 1): 0.8, (2, 3, 1): 0.6, (3, 4, 2): 0.9}
    )
    return spec, tau, P


def test_feeder_terms_single_chain():
    _, tau, P = chain_setup()
    terms = feeder_terms(tau, P, 2, 2)
    assert terms == [(1, 1, pytest.approx(1.0 * 0.8 * 0.6))]


def test_feeder_terms_drop_zero_coefficient():
    spec, tau, _ = chain_setup()
    P = injected_channel(3, 2, {(2, 3, 2): 0.9})  # no source-to-relay channel
    assert feeder_terms(tau, P, 2, 2) == []


def test_vacuous_consistency():
    spec, _, P = chain_setup()
    tau = rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0]])
    report = consistency_residuals(ForwardingMatrix.zeros(3, 2), tau, P)
    assert report.residuals == {}
    assert report.max_abs_residual == 0.0
    assert report.consistent
    report.raise_if_inconsistent()  # must not raise


def test_closed_form_reference_value():
    spec, tau, P = chain_setup(tau_r=0.4, p_sr=0.8)
    X = solve_chain_closed_form(tau, P, spec)
    # 0.4 / (1.0 * 0.8 * 0.6) = 5/6
    assert X.x(1, 2, 1, 2) == pytest.approx(0.8333333333333334, abs=1e-15)
    assert np.count_nonzero(X.values) == 1


def test_closed_form_solution_is_consistent():
    spec, tau, P = chain_setup()
    X = solve_chain_closed_form(tau, P, spec)
    report = consistency_residuals(X, tau, P)
    assert report.max_abs_residual <= 1e-12


def test_perturbed_solution_residual_is_linear():
    spec, tau, P = chain_setup()
    X = solve_chain_closed_form(tau, P, spec)
    bumped = np.array(X.values)
    bumped[0, 1, 0, 1] += 0.1
    report = consistency_residuals(ForwardingMatrix(bumped), tau, P)
    # residual grows by exactly the feeder coefficient times the bump
    assert report.residuals[(2, 2)] == pytest.approx(0.1 * 1.0 * 0.8 * 0.6)
    assert not report.consistent
    with pytest.raises(InconsistentForwardingError):
        report.raise_if_inconsistent()


def test_closed_form_idle_relay_yields_zero_matrix():
    spec, _, P = chain_setup()
    tau = rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0]])
    X = solve_chain_closed_form(tau, P, spec)
    assert np.count_nonzero(X.values) == 0


def test_closed_form_infeasible_rate():
    # 0.4 / (1.0 * 0.5 * 0.6) = 1.33 > 1: no forwarding probability works
    spec, tau, P = chain_setup(tau_r=0.4, p_sr=0.5)
    with pytest.raises(InfeasibleRateError):
        solve_chain_closed_form(tau, P, spec)


def test_closed_form_starved_relay():
    spec, tau, _ = chain_setup()
    P = injected_channel(3, 2, {(2, 3, 2): 0.9})
    with pytest.raises(InfeasibleTauError):
        solve_chain_closed_form(tau, P, spec)


def test_closed_form_rejects_multiple_feeders():
    spec, tau, P = two_source_setup()
    with pytest.raises(ClosedFormNotApplicableError):
        solve_chain_closed_form(tau, P, spec)


def test_closed_form_scales_linearly_with_rate():
    # holding the feeder coefficient fixed, doubling the out-rate doubles x
    spec_a, tau_a, P_a = chain_setup(tau_r=0.2, p_sr=0.6)  # coeff 0.48
    spec_b, tau_b, P_b = chain_setup(tau_r=0.4, p_sr=0.8)  # coeff 0.48
    x_a = solve_chain_closed_form(tau_a, P_a, spec_a).x(1, 2, 1, 2)
    x_b = solve_chain_closed_form(tau_b, P_b, spec_b).x(1, 2, 1, 2)
    assert x_b == pytest.approx(2.0 * x_a, rel=1e-12)


def test_sampler_single_feeder_matches_closed_form():
    spec, tau, P = chain_setup()
    closed = solve_chain_closed_form(tau, P, spec)
    for X in sample_feasible_forwarding(tau, P, spec, count=5, seed=0):
        assert X.x(1, 2, 1, 2) == pytest.approx(closed.x(1, 2, 1, 2), abs=1e-12)


def test_sampler_two_feeders_all_consistent():
    spec, tau, P = two_source_setup()
    draws = sample_feasible_forwarding(tau, P, spec, count=100, seed=42)
    assert len(draws) == 100
    for X in draws:
        assert consistency_residuals(X, tau, P).max_abs_residual <= 1e-9
        assert np.min(X.values) >= 0.0 and np.max(X.values) <= 1.0
    # the sampler explores the constraint segment rather than one point
    xs = {round(X.x(1, 3, 1, 2), 12) for X in draws}
    assert len(xs) > 50


def test_sampler_is_deterministic_per_seed():
    spec, tau, P = two_source_setup()
    a = sample_feasible_forwarding(tau, P, spec, count=10, seed=7)
    b = sample_feasible_forwarding(tau, P, spec, count=10, seed=7)
    assert all(x == y for x, y in zip(a, b))
    c = sample_feasible_forwarding(tau, P, spec, count=10, seed=8)
    assert any(x != y for x, y in zip(a, c))


def test_sampler_prefix_stability():
    # sample k depends only on (seed, k), so prefixes agree across counts
    spec, tau, P = two_source_setup()
    short = sample_feasible_forwarding(tau, P, spec, count=3, seed=9)
    long = sample_feasible_forwarding(tau, P, spec, count=10, seed=9)
    assert all(x == y for x, y in zip(short, long))


def test_sampler_detects_unreachable_rate():
    # even x = 1 everywhere cannot carry 0.9 through a 0.08 pipe
    spec, tau, P = chain_setup(tau_r=0.9, p_sr=0.8)
    with pytest.raises(InfeasibleTauError):
        sample_feasible_forwarding(tau, P, spec, count=1, seed=0)


def tight_setup():
    """Both feeder coefficients sum exactly to the out-rate, so the only
    feasible point is x = 1 on every feeder: every draw is rejected and the
    constraint falls back to its proportional point."""
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ]
    )
    tau = rate_matrix(spec, [[0.0, 0.5]], [[1.0, 0.0], [1.0, 0.0]])
    P = injected_channel(4, 2, {(1, 3, 1): 0.5, (2, 3, 1): 0.5, (3, 4, 2): 0.9})
    return spec, tau, P


def test_sampler_tight_constraint_falls_back_to_full_forwarding():
    spec, tau, P = tight_setup()
    (X,) = sample_feasible_forwarding(tau, P, spec, count=1, seed=0)
    assert X.x(1, 3, 1, 2) == pytest.approx(1.0)
    assert X.x(2, 3, 1, 2) == pytest.approx(1.0)
    assert consistency_residuals(X, tau, P).consistent


def _sampler_reference(tau, P, spec, count, seed):
    """The draw-by-draw rejection loop that the batched sampler replaced:
    one Dirichlet call per attempt. Returns the forwarding values and how
    many draws each constraint used."""
    constraints = []
    for j, v in relay_transmission_index(tau):
        terms = feeder_terms(tau, P, j, v)
        constraints.append((j, v, tau.rate(j, v), terms, sum(c for _, _, c in terms)))
    out, used = [], []
    for k in range(count):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        )
        values = np.zeros((spec.n_nodes, spec.n_nodes, spec.slot_count, spec.slot_count))
        for j, v, t_out, terms, total in constraints:
            coeffs = np.array([c for _, _, c in terms])
            xs = None
            for attempt in range(1, MAX_REJECTION_ATTEMPTS + 1):
                candidate = t_out * rng.dirichlet(np.ones(len(terms))) / coeffs
                if np.all(candidate <= 1.0):
                    xs = candidate
                    break
            used.append(attempt)
            if xs is None:
                xs = np.full(len(terms), t_out / total)
            for (i, u, _), x in zip(terms, xs):
                values[i - 1, j - 1, u - 1, v - 1] = min(float(x), 1.0)
        out.append(values)
    return out, used


def two_constraint_setup():
    """Two sources feed relay 3 in slot 1; it forwards in slots 2 and 3. The
    slot-2 constraint accepts about one draw in eight, so it usually stops
    after several draws; the slot-3 constraint follows it on the same
    generator."""
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ],
        slots=3,
    )
    tau = rate_matrix(spec, [[0.0, 0.4, 0.2]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    P = injected_channel(
        4, 3, {(1, 3, 1): 0.4, (2, 3, 1): 0.35, (3, 4, 2): 0.9, (3, 4, 3): 0.9}
    )
    return spec, tau, P


@pytest.mark.parametrize(
    "setup, draws",
    [
        (chain_setup, "first"),  # one feeder: the first draw is the point
        (two_source_setup, "few"),
        (tight_setup, "all"),
        (two_constraint_setup, "several"),
    ],
)
def test_batched_sampler_matches_draw_by_draw_loop(setup, draws):
    spec, tau, P = setup()
    used = []
    for seed in (0, 1, 7, 123):
        for count in (1, 3, 8):
            want, n = _sampler_reference(tau, P, spec, count, seed)
            used += n
            got = sample_feasible_forwarding(tau, P, spec, count=count, seed=seed)
            assert len(got) == count
            for X, values in zip(got, want):
                assert np.array_equal(X.values, values)
    # the setup exercises the path it is named for
    if draws == "first":
        assert set(used) == {1}
    elif draws == "few":
        assert max(used) < 10
    elif draws == "all":
        assert set(used) == {MAX_REJECTION_ATTEMPTS}
    else:
        assert any(1 < n < MAX_REJECTION_ATTEMPTS for n in used)


def test_forwarding_matrix_validation():
    with pytest.raises(SchemaError):
        ForwardingMatrix(np.full((2, 2, 1, 1), -0.1))
    with pytest.raises(SchemaError):
        ForwardingMatrix(np.zeros((2, 3, 1, 1)))
    with pytest.raises(SchemaError):
        ForwardingMatrix(np.zeros((2, 2, 1)))


def test_forwarding_matrix_json_round_trip():
    values = np.zeros((3, 3, 2, 2))
    values[0, 1, 0, 1] = 0.25
    values[1, 2, 1, 0] = 1.0
    X = ForwardingMatrix(values)
    doc = X.to_json_dict()
    assert len(doc["entries"]) == 2
    again = ForwardingMatrix.from_json(json.dumps(doc), 3, 2)
    assert again == X


@pytest.mark.parametrize(
    "entry",
    [
        {"i": 4, "j": 2, "u": 1, "v": 1, "x": 0.5},
        {"i": 1, "j": 2, "u": 3, "v": 1, "x": 0.5},
        {"i": 1, "j": 2, "u": 1, "v": 1, "x": 1.5},
        {"i": 1, "j": 2, "v": 1, "x": 0.5},
    ],
)
def test_forwarding_matrix_from_json_rejects_bad_entries(entry):
    with pytest.raises(SchemaError):
        ForwardingMatrix.from_json({"entries": [entry]}, 3, 2)


def test_forwarder_roles_enforced():
    spec, tau, _ = chain_setup()
    bad = np.zeros((3, 3, 2, 2))
    bad[1, 0, 1, 0] = 0.5  # the source cannot forward
    with pytest.raises(ModelViolationError):
        check_forwarder_roles(ForwardingMatrix(bad), tau)
    worse = np.zeros((3, 3, 2, 2))
    worse[0, 2, 0, 1] = 0.5  # neither can the destination
    with pytest.raises(ModelViolationError):
        check_forwarder_roles(ForwardingMatrix(worse), tau)
    ok = np.zeros((3, 3, 2, 2))
    ok[0, 1, 0, 1] = 0.5
    check_forwarder_roles(ForwardingMatrix(ok), tau)  # must not raise
