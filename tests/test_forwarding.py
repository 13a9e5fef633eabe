import json

import numpy as np
import pytest

from pareto_relay import (
    ForwardingMatrix,
    consistency_residuals,
    evaluate,
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
from pareto_relay import forwarding
from pareto_relay.forwarding import (
    MAX_REJECTION_ATTEMPTS,
    check_forwarder_roles,
    feeder_terms,
)

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
    assert report.entries == {}
    assert report.all_ok
    report.raise_if_failed()  # must not raise


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
    assert max(abs(r) for r, _ in report.entries.values()) <= 1e-12


def test_perturbed_solution_residual_is_linear():
    spec, tau, P = chain_setup()
    X = solve_chain_closed_form(tau, P, spec)
    bumped = np.array(X.values)
    bumped[0, 1, 0, 1] += 0.1
    report = consistency_residuals(ForwardingMatrix(bumped), tau, P)
    # residual grows by exactly the feeder coefficient times the bump
    assert report.entries[(2, 2)][0] == pytest.approx(0.1 * 1.0 * 0.8 * 0.6)
    assert not report.all_ok
    with pytest.raises(InconsistentForwardingError):
        report.raise_if_failed()


def test_closed_form_idle_relay_yields_zero_matrix():
    spec, _, P = chain_setup()
    tau = rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0]])
    X = solve_chain_closed_form(tau, P, spec)
    assert np.count_nonzero(X.values) == 0


def test_closed_form_infeasible_rate():
    # 0.4 / (1.0 * 0.5 * 0.6) = 1.33 > 1: no forwarding probability works
    spec, tau, P = chain_setup(tau_r=0.4, p_sr=0.5)
    with pytest.raises(
        InfeasibleRateError,
        match=r"^\(node 2, slot 2\) needs forwarding probability > 1: residual "
        r"1\.000e-01 at x = 1 exceeds 1\.0e-09;",
    ):
        solve_chain_closed_form(tau, P, spec)


def test_closed_form_takes_the_coupling_gates_tolerance():
    """x - 1 = 2.25e-9 is more than the tolerance, but the residual at
    x = 1, tau_R - coeff = 7.5e-10, is within it: the closed form clips x
    to 1, as the sampler does, and evaluate accepts it. A residual of
    3e-9 is refused by both."""
    spec, tau, P = chain_setup(tau_r=1 / 3 + 5e-10, p_sr=0.5)
    X = solve_chain_closed_form(tau, P, spec)
    assert X.x(1, 2, 1, 2) == 1.0
    (sampled,) = sample_feasible_forwarding(tau, P, spec, count=1, seed=0)
    assert np.array_equal(sampled.values, X.values)
    assert consistency_residuals(X, tau, P).all_ok
    evaluate(tau, X, spec, channel=P)

    spec, tau, P = chain_setup(tau_r=1 / 3 + 2e-9, p_sr=0.5)
    with pytest.raises(
        InfeasibleRateError,
        match=r"^\(node 2, slot 2\) needs forwarding probability > 1: residual "
        r"3\.000e-09 at x = 1 exceeds 1\.0e-09;",
    ):
        solve_chain_closed_form(tau, P, spec)
    with pytest.raises(
        InfeasibleRateError,
        match=r"^\(node 2, slot 2\) needs forwarding probability > 1: residual "
        r"3\.000e-09 at x = 1 exceeds 1\.0e-09;",
    ):
        sample_feasible_forwarding(tau, P, spec, count=1, seed=0)


def test_closed_form_starved_relay():
    spec, tau, _ = chain_setup()
    P = injected_channel(3, 2, {(2, 3, 2): 0.9})
    with pytest.raises(
        InfeasibleTauError, match=r"^relay 2 transmits in slot 2 but receives no flow$"
    ):
        solve_chain_closed_form(tau, P, spec)


def test_closed_form_rejects_multiple_feeders():
    spec, tau, P = two_source_setup()
    with pytest.raises(
        ClosedFormNotApplicableError, match=r"^\(node 3, slot 2\) has 2 feeder terms;"
    ):
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
        assert consistency_residuals(X, tau, P).all_ok  # |residual| <= 1e-9
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
    with pytest.raises(
        InfeasibleRateError,
        match=r"^\(node 2, slot 2\) needs forwarding probability > 1: residual "
        r"8\.200e-01 at x = 1 exceeds 1\.0e-09;",
    ):
        sample_feasible_forwarding(tau, P, spec, count=1, seed=0)


def starved_setup():
    """The relay transmits but no channel reaches it."""
    spec, tau, _ = chain_setup()
    return spec, tau, injected_channel(3, 2, {(2, 3, 2): 0.9})


def idle_relay_setup():
    spec, _, P = chain_setup()
    return spec, rate_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0]]), P


@pytest.mark.parametrize(
    "setup",
    [starved_setup, lambda: chain_setup(tau_r=1 / 3 + 2e-9, p_sr=0.5)],
    ids=["starved", "residual-3e-9"],
)
def test_constructors_refuse_alike(setup):
    """Both constructors read one constraint table, so a tau that admits no
    forwarding matrix is refused with one class and one message."""
    spec, tau, P = setup()
    raised = []
    for build in (
        lambda: solve_chain_closed_form(tau, P, spec),
        lambda: sample_feasible_forwarding(tau, P, spec, count=3, seed=0),
    ):
        with pytest.raises((InfeasibleTauError, InfeasibleRateError)) as info:
            build()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


@pytest.mark.parametrize(
    "setup",
    [
        chain_setup,
        idle_relay_setup,
        lambda: chain_setup(tau_r=1 / 3 + 5e-10, p_sr=0.5),  # x clipped to 1
    ],
    ids=["chain", "idle-relay", "clipped"],
)
@pytest.mark.parametrize("count", [1, 3, 8])
def test_sampler_without_choice_returns_the_closed_form(setup, count, monkeypatch):
    """No constraint with two feeders: one matrix, the closed form's to the
    bit, and no generator is built."""
    spec, tau, P = setup()

    def no_rng(*args):
        raise AssertionError("spawned_rng called")

    monkeypatch.setattr(forwarding, "spawned_rng", no_rng)
    got = sample_feasible_forwarding(tau, P, spec, count=count, seed=0)
    assert len(got) == 1
    assert got[0].values.tobytes() == solve_chain_closed_form(tau, P, spec).values.tobytes()


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
    assert consistency_residuals(X, tau, P).all_ok


def _sampler_reference(tau, P, spec, count, seed):
    """The draw-by-draw rejection loop that the batched sampler replaced:
    one Dirichlet call per attempt. Returns the forwarding values and how
    many draws each constraint used."""
    constraints = []
    rows, slots = tau.relay_coords
    for j, v in zip((rows + 1).tolist(), (slots + 1).tolist()):
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
            # One feeder leaves no choice: the sampler returns that one point.
            assert len(got) == (1 if draws == "first" else count)
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
        check_forwarder_roles(ForwardingMatrix(bad), tau).raise_if_failed()
    worse = np.zeros((3, 3, 2, 2))
    worse[0, 2, 0, 1] = 0.5  # neither can the destination
    with pytest.raises(ModelViolationError):
        check_forwarder_roles(ForwardingMatrix(worse), tau).raise_if_failed()
    ok = np.zeros((3, 3, 2, 2))
    ok[0, 1, 0, 1] = 0.5
    check_forwarder_roles(ForwardingMatrix(ok), tau).raise_if_failed()  # must not raise
