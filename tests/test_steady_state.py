import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import lu_factor, lu_solve

from pareto_relay import (
    CriteriaVector,
    ForwardingMatrix,
    SimConfig,
    build_transition_system,
    evaluate,
    fundamental_matrix,
    sample_feasible_forwarding,
    simulate,
    solve_chain_closed_form,
    spectral_radius,
)
from pareto_relay.errors import (
    DivergentSystemError,
    FlowConservationError,
    HalfDuplexError,
    InconsistentForwardingError,
    ModelViolationError,
    NumericalError,
    SchemaError,
)
from pareto_relay.steady_state import (
    _cut_set_guard,
    build_arrival_matrix,
    build_initial_flow,
    build_relaying_matrix,
    criteria,
    delay_identity_gap,
)

from conftest import injected_channel, line_spec, make_spec, rate_matrix


def delay_per_delivery(crit) -> float:
    """Mean relay hops per delivered packet, f_D / f (0 when f = 0)."""
    return crit.f_d / crit.f if crit.f > 0.0 else 0.0


def ungated_criteria(tau, X, spec, P):
    """The criteria without any of evaluate's gates or guards."""
    Q, D, F1 = build_transition_system(tau, X, P, spec)
    return criteria(F1, fundamental_matrix(Q), D)


def single_relay_setup(tau_r=0.4, p_sr=0.8, p_sd=0.2, p_rd=0.9):
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, tau_r]], [[1.0, 0.0]])
    P = injected_channel(
        3, 2, {(1, 2, 1): p_sr, (1, 3, 1): p_sd, (2, 3, 2): p_rd}
    )
    X = solve_chain_closed_form(tau, P, spec)
    return spec, tau, P, X


def two_relay_chain_setup():
    """1 -> 2 (slot 1->2) -> 3 (slot 2->3) -> 4, three slots."""
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0),
            (3, "relay", 2, 0),
            (4, "destination", 3, 0),
        ],
        slots=3,
    )
    tau = rate_matrix(
        spec, [[0.0, 0.4, 0.0], [0.0, 0.0, 0.2]], [[1.0, 0.0, 0.0]]
    )
    P = injected_channel(
        4,
        3,
        {
            (1, 2, 1): 0.8,
            (1, 4, 1): 0.1,
            (2, 3, 2): 0.7,
            (2, 4, 2): 0.3,
            (3, 4, 3): 0.9,
        },
    )
    X = solve_chain_closed_form(tau, P, spec)
    return spec, tau, P, X


def test_relay_transmission_index_excludes_sources(three_node):
    tau = rate_matrix(three_node, [[0.3, 0.4]], [[1.0, 0.0]])
    j, v = tau.relay_coords
    assert list(zip((j + 1).tolist(), (v + 1).tolist())) == [(2, 1), (2, 2)]


def test_relaying_matrix_hand_computed():
    spec, tau, P, X = two_relay_chain_setup()
    Q = build_relaying_matrix(X, tau, P)
    # index ((2,2), (3,3)): only the 2 -> 3 hop carries probability
    assert Q.shape == (2, 2)
    x_23 = X.x(2, 3, 2, 3)
    assert x_23 == pytest.approx(0.2 / (0.4 * 0.7 * 0.8), abs=1e-15)
    assert Q[0, 1] == pytest.approx(0.7 * (1.0 - 0.2) * x_23)
    assert Q[1, 0] == 0.0
    assert Q[0, 0] == 0.0 and Q[1, 1] == 0.0


def test_relaying_matrix_same_node_entries_are_zero():
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.3, 0.4]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 2, 1): 0.9, (2, 3, 1): 0.5, (2, 3, 2): 0.5})
    X = ForwardingMatrix(np.full((3, 3, 2, 2), 0.5))
    Q = build_relaying_matrix(X, tau, P)
    # both transmissions belong to relay 2, which cannot feed itself
    assert np.array_equal(Q, np.zeros((2, 2)))


def test_relaying_matrix_names_an_entry_of_one_by_its_transmissions():
    # 1 - 1e-20 rounds to 1, so p = x = 1 gives a relaying probability of 1.
    spec, _, _, _ = two_relay_chain_setup()
    tau = rate_matrix(spec, [[0.5, 0.0, 0.0], [0.0, 0.0, 1e-20]], [[1.0, 0.0, 0.0]])
    P = injected_channel(4, 3, {(2, 3, 1): 1.0})
    with pytest.raises(
        ModelViolationError, match=r"^relaying probability from \(2, 1\) to \(3, 3\) reaches 1;"
    ):
        build_relaying_matrix(ForwardingMatrix(np.ones((4, 4, 3, 3))), tau, P)


def test_relaying_matrix_entries_strictly_below_one():
    # p * (1 - tau_j^v) * x < 1 whenever the target transmission is active
    spec, tau, P, _ = two_relay_chain_setup()
    X = ForwardingMatrix(np.ones((4, 4, 3, 3)))
    Q = build_relaying_matrix(X, tau, P)
    assert np.max(Q) < 1.0


def test_arrival_matrix_slot_aligned():
    spec, tau, P, _ = two_relay_chain_setup()
    D = build_arrival_matrix(tau, P, spec)
    # rows ((2,2),(3,3)); columns ((4,1),(4,2),(4,3))
    assert D.shape == (2, 3)
    assert D[0, 1] == pytest.approx(0.3)  # relay 2 reaches 4 in its slot 2
    assert D[1, 2] == pytest.approx(0.9)  # relay 3 reaches 4 in its slot 3
    assert D[0, 0] == D[0, 2] == D[1, 0] == D[1, 1] == 0.0


def test_arrival_matrix_empty_when_no_relays_active(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[1.0, 0.0]])
    P = injected_channel(3, 2, {(1, 3, 1): 0.5})
    D = build_arrival_matrix(tau, P, three_node)
    assert D.shape == (0, 2)


def test_initial_flow_structure():
    spec, tau, P, X = single_relay_setup()
    F1 = build_initial_flow(X, tau, P, spec)
    assert F1.shape == (1, 3)  # one relay transmission + two arrival slots
    x = X.x(1, 2, 1, 2)
    assert F1[0, 0] == pytest.approx(1.0 * 0.8 * (1.0 - 0.4) * x)
    assert F1[0, 1] == pytest.approx(1.0 * 0.2)  # direct hit in slot 1
    assert F1[0, 2] == 0.0


def test_fundamental_matrix_trivial_cases():
    assert fundamental_matrix(np.zeros((0, 0))).shape == (0, 0)
    assert np.allclose(fundamental_matrix(np.zeros((3, 3))), np.eye(3))
    assert fundamental_matrix(np.array([[0.6]]))[0, 0] == pytest.approx(2.5)


def test_fundamental_matrix_matches_series_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.random((4, 4))
        Q = 0.85 * A / np.max(A.sum(axis=1))
        M = fundamental_matrix(Q)
        series = np.zeros((4, 4))
        term = np.eye(4)
        for _ in range(400):
            series += term
            term = term @ Q
        assert np.max(np.abs(M - series)) <= 1e-10


def test_fundamental_matrix_nilpotent_with_large_row_sum():
    # row sums above 1 are fine as long as the cascade still dies out
    Q = np.array([[0.0, 1.2], [0.0, 0.0]])
    M = fundamental_matrix(Q)
    assert np.allclose(M, np.array([[1.0, 1.2], [0.0, 1.0]]))


def test_fundamental_matrix_rejects_divergent():
    with pytest.raises(DivergentSystemError):
        fundamental_matrix(np.full((2, 2), 0.6))
    with pytest.raises(DivergentSystemError):
        fundamental_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))  # period 2
    with pytest.raises(DivergentSystemError):
        fundamental_matrix(np.array([[1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_fundamental_matrix_rejects_non_finite_q(bad):
    Q = np.array([[0.0, 0.2], [bad, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a LinAlgWarning would fail the test
        with pytest.raises(NumericalError, match="non-finite"):
            fundamental_matrix(Q)


def test_fundamental_matrix_matches_scipy_lu_bit_for_bit():
    # getrf/getrs with lu_factor's and lu_solve's arguments: the same
    # values and the same (Fortran) memory layout, which later products see.
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        Q = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        Q *= rng.uniform(0.1, 0.99) / max(1.0, float(np.max(Q.sum(axis=1))))
        want = lu_solve(lu_factor(np.eye(n) - Q), np.eye(n))
        got = fundamental_matrix(Q)
        assert np.array_equal(got, want) and got.strides == want.strides


def _fundamental_matrix_by_eigenvalues(Q):
    """The guard before the solve certified convergence: the eigenvalues
    whenever the largest row sum reaches 1 - SPECTRAL_MARGIN, then the
    factorization."""
    n = Q.shape[0]
    if not np.isfinite(Q).all():
        raise NumericalError("the relaying matrix has a non-finite entry")
    if float(np.max(np.abs(Q).sum(axis=1))) >= 1.0 - 1e-6:
        rho = float(np.max(np.abs(np.linalg.eigvals(Q))))
        if rho >= 1.0 - 1e-6:
            raise DivergentSystemError(
                f"spectral radius {rho:.6g} of the relaying matrix is not "
                f"safely below 1; the flow cascade does not die out"
            )
    lu, piv = lu_factor(np.eye(n) - Q, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < 1e-14:
        raise NumericalError("I - Q is numerically singular")
    return lu_solve((lu, piv), np.eye(n), check_finite=False)


def _same_outcome(Q):
    """fundamental_matrix(Q) raises what the eigenvalue guard raises, with
    the same message, or returns its M_F bit for bit; no warning either way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = _fundamental_matrix_by_eigenvalues(Q)
        except (DivergentSystemError, NumericalError) as exc:
            with pytest.raises(type(exc)) as got:
                fundamental_matrix(Q)
            assert str(got.value) == str(exc)
            return exc
        got = fundamental_matrix(Q)
    assert np.array_equal(got, want) and got.strides == want.strides
    return got


@st.composite
def _scaled_q(draw):
    """A non-negative Q of order 1 to 8 scaled to a drawn spectral radius in
    about 0.3-1.5, near 1 within 2e-6, or exactly 1 with dyadic row sums
    (I - Q exactly singular); some are reducible and some nilpotent, and
    most have a row sum past 1."""
    n = draw(st.integers(1, 8))
    if draw(st.integers(0, 5)) == 0:
        # each row splits 1 into eighths, so I - Q is exactly singular
        cuts = np.sort(draw(hnp.arrays(np.int64, (n, 7), elements=st.integers(0, 8))), axis=1)
        eighths = np.diff(cuts, axis=1, prepend=0, append=8) / 8.0
        Q = np.zeros((n, n))
        for c in range(8):
            Q[:, c % n] += eighths[:, c]
        return Q
    # fill=nothing draws every element, not one fill value and a few others
    B = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 1.0), fill=st.nothing()))
    B *= draw(hnp.arrays(bool, (n, n), fill=st.nothing()))
    k = draw(st.integers(0, n))
    if draw(st.booleans()):
        B[k:, :k] = 0.0  # reducible: the last rows never reach the first
    # a diagonal similarity keeps rho and spreads the row sums around it
    d = draw(hnp.arrays(float, n, elements=st.floats(0.2, 5.0), fill=st.nothing()))
    B = B * d[:, None] / d[None, :]
    rho = float(np.max(np.abs(np.linalg.eigvals(B))))
    if rho < 1e-3:
        return B * draw(st.sampled_from([1.0, 3.0]))  # (nearly) nilpotent
    target = draw(st.one_of(
        st.floats(0.3, 1.5),
        st.floats(1.0 - 2e-6, 1.0 + 1e-6),
        st.sampled_from([1.0 - 2e-6, 1.0 - 1.5e-6, 1.0 - 1e-6, 1.0]),
    ))
    return B * (target / rho)


@settings(max_examples=400, deadline=None)
@given(Q=_scaled_q())
def test_certificate_agrees_with_the_eigenvalue_guard(Q):
    _same_outcome(Q)


def test_fundamental_matrix_falls_back_to_eigenvalues_near_the_margin(monkeypatch):
    import pareto_relay.steady_state as steady_state

    radii = []

    def spy(Q):
        radii.append(spectral_radius(Q))
        return radii[-1]

    monkeypatch.setattr(steady_state, "spectral_radius", spy)
    # rho in (1 - 2e-6, 1 - 1e-6) with a row sum past 1: the solve cannot
    # certify it, the eigenvalues can (at 1 - 2e-6 itself the ratio sits on
    # its threshold)
    for rho in (1.0 - 1.99e-6, 1.0 - 1.5e-6, 1.0 - 1.01e-6):
        Q = np.array([[0.0, 1.5 * rho], [rho / 1.5, 0.0]])
        assert isinstance(_same_outcome(Q), np.ndarray)
        assert len(radii) == 1 and radii.pop() < 1.0 - 1e-6
    # a row sum past 1 with rho well below it is certified by the solve
    Q = np.array([[0.0, 1.2, 0.0], [0.0, 0.0, 1.5], [0.3, 0.0, 0.0]])
    assert isinstance(_same_outcome(Q), np.ndarray)
    assert radii == []
    with pytest.raises(DivergentSystemError):
        fundamental_matrix(np.array([[0.0, 1.5], [(1.0 - 1e-6) ** 2 / 1.5, 0.0]]))
    assert len(radii) == 1


def test_solve_certifies_every_wide_benchmark_strategy(tmp_path, capsys, monkeypatch):
    # The 40 strategies that bench/run.py's evaluate-wide workload scores at
    # seed 0, built by its own input generators: no Q needs the eigenvalues,
    # every M_F is the eigenvalue guard's bit for bit, and the first ten
    # outputs hash to the digest the benchmark pins.
    import hashlib
    import importlib.util
    import json
    from pathlib import Path

    import pareto_relay
    import pareto_relay.steady_state as steady_state
    from pareto_relay.cli import main

    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pinned = json.loads((bench / "digests.json").read_text())["full"]["evaluate-wide"]

    solve = steady_state.fundamental_matrix
    solved = []

    def checked_solve(Q):
        solved.append(Q.shape[0])
        assert not isinstance(_same_outcome(Q), Exception)
        return solve(Q)

    def no_eigenvalues(Q):
        raise AssertionError("spectral_radius ran")

    monkeypatch.setattr(steady_state, "fundamental_matrix", checked_solve)
    monkeypatch.setattr(steady_state, "spectral_radius", no_eigenvalues)
    doc = workloads.topology_doc(workloads.wide_nodes(0, 12), workloads.WIDE_SLOTS)
    topology = workloads.write_json(tmp_path / "topo.json", doc)
    network = pareto_relay.load_network(doc)
    texts = []
    for k in range(40):
        docs = workloads.wide_strategy(pareto_relay, network, 0, k)
        tau, x = workloads.write_strategy(tmp_path, f"s{k}", docs)
        argv = ["evaluate", "--topology", str(topology), "--tau", str(tau), "--x", str(x)]
        assert main(argv) == 0
        texts.append(capsys.readouterr().out)
    assert len(solved) >= 80 and min(solved) > 0  # the generator's and the CLI's
    assert hashlib.sha256("".join(texts[:10]).encode()).hexdigest() == pinned


def test_spectral_radius_against_eig_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        Q = rng.random((n, n)) * rng.random()
        want = float(np.max(np.abs(np.linalg.eigvals(Q))))
        assert spectral_radius(Q) == pytest.approx(want, abs=1e-8)


def test_spectral_radius_alternating_structure():
    Q = np.array([[0.0, 0.9], [0.4, 0.0]])
    assert spectral_radius(Q) == pytest.approx(np.sqrt(0.36), abs=1e-10)
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[-0.5]]))


@settings(max_examples=25, deadline=None)
@given(
    Q=hnp.arrays(
        float,
        (3, 3),
        elements=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    )
)
def test_delay_identity_holds_for_substochastic_matrices(Q):
    M = fundamental_matrix(Q)
    assert delay_identity_gap(Q, M) <= 1e-10


def test_transition_system_shapes():
    spec, tau, P, X = two_relay_chain_setup()
    Q, D, F1 = build_transition_system(tau, X, P, spec)
    j, v = tau.relay_coords
    assert list(zip((j + 1).tolist(), (v + 1).tolist())) == [(2, 2), (3, 3)]
    assert Q.shape == (2, 2)
    # rows (2, 2) and (3, 3); columns (4, 1), (4, 2) and (4, 3)
    assert np.array_equal(D, [[0.0, 0.3, 0.0], [0.0, 0.0, 0.9]])
    assert F1.shape == (1, 5)


def test_direct_transmission_only(three_node):
    tau = rate_matrix(three_node, [[0.0, 0.0]], [[0.7, 0.0]])
    P = injected_channel(3, 2, {(1, 3, 1): 0.25, (1, 2, 1): 0.9})
    crit = evaluate(tau, ForwardingMatrix.zeros(3, 2), three_node, channel=P)
    assert crit.f == pytest.approx(0.7 * 0.25, abs=1e-15)
    assert crit.f_c == crit.f
    assert crit.f_d == 0.0
    assert crit.f_e == 0.0
    assert delay_per_delivery(crit) == 0.0


def test_single_relay_criteria_closed_form():
    spec, tau, P, X = single_relay_setup(tau_r=0.4, p_sr=0.8, p_sd=0.2, p_rd=0.9)
    crit = evaluate(tau, X, spec, channel=P)
    # consistency collapses the relay pipeline to tau_R itself
    assert crit.f == pytest.approx(1.0 * 0.2 + 0.4 * 0.9, abs=1e-12)
    assert crit.f_d == pytest.approx(0.4 * 0.9, abs=1e-12)
    assert crit.f_e == pytest.approx(0.4, abs=1e-12)
    assert delay_per_delivery(crit) == pytest.approx(crit.f_d / crit.f)


def test_single_relay_criteria_across_rate_grid():
    # with a perfect source-relay link, x = tau / (1 - tau) stays feasible
    # up to tau = 1/2 and f is exactly p_SD + tau * p_RD
    for tau_r in (0.1, 0.2, 0.3, 0.4, 0.5):
        spec, tau, P, X = single_relay_setup(
            tau_r=tau_r, p_sr=1.0, p_sd=0.15, p_rd=0.6
        )
        crit = evaluate(tau, X, spec, channel=P)
        assert crit.f == pytest.approx(0.15 + tau_r * 0.6, abs=1e-12)
        assert crit.f_e == pytest.approx(tau_r, abs=1e-12)


def test_capacity_saturation_reference():
    # p_SR = 1, p_SD = 0.6, p_RD = 0.8, tau_R = 1/2 delivers exactly one
    # packet per slot frame
    spec, tau, P, X = single_relay_setup(tau_r=0.5, p_sr=1.0, p_sd=0.6, p_rd=0.8)
    crit = evaluate(tau, X, spec, channel=P)
    assert crit.f == pytest.approx(1.0, abs=1e-12)
    assert crit.f_c == pytest.approx(1.0, abs=1e-12)


def test_flow_can_exceed_capacity_through_duplicates():
    # a strong direct link plus a lossless relay path counts copies, so f
    # rises above 1 and f_c caps it
    spec, tau, P, X = single_relay_setup(tau_r=0.5, p_sr=1.0, p_sd=0.9, p_rd=1.0)
    crit = evaluate(tau, X, spec, channel=P)
    assert crit.f == pytest.approx(1.4, abs=1e-12)
    assert crit.f_c == 1.0


def test_two_relay_chain_criteria():
    spec, tau, P, X = two_relay_chain_setup()
    crit = evaluate(tau, X, spec, channel=P)
    # consistency pins each relay stage to its configured rate
    f_expected = 1.0 * 0.1 + 0.4 * 0.3 + 0.2 * 0.9
    assert crit.f == pytest.approx(f_expected, abs=1e-12)
    assert crit.f_e == pytest.approx(0.4 + 0.2, abs=1e-12)
    # delay: relay-2 deliveries travel 1 hop, relay-3 deliveries 2 hops
    assert crit.f_d == pytest.approx(0.4 * 0.3 + 2.0 * 0.2 * 0.9, abs=1e-12)


def test_multi_source_superposition():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ]
    )
    P = injected_channel(
        4,
        2,
        {(1, 3, 1): 0.8, (2, 3, 1): 0.6, (1, 4, 1): 0.3, (2, 4, 1): 0.2, (3, 4, 2): 0.9},
    )
    tau = rate_matrix(spec, [[0.0, 0.3]], [[0.6, 0.0], [0.5, 0.0]])
    (X,) = sample_feasible_forwarding(tau, P, spec, count=1, seed=2)
    both = evaluate(tau, X, spec, channel=P)
    # per-source flows with the same tau, X and channel add up
    alone_1 = rate_matrix(spec, [[0.0, 0.3]], [[0.6, 0.0], [0.0, 0.0]])
    alone_2 = rate_matrix(spec, [[0.0, 0.3]], [[0.0, 0.0], [0.5, 0.0]])
    f_1 = ungated_criteria(alone_1, X, spec, P).f
    f_2 = ungated_criteria(alone_2, X, spec, P).f
    assert both.f == pytest.approx(f_1 + f_2, abs=1e-12)


def test_flow_grows_linearly_in_forwarding_probability():
    spec, tau, P, X = single_relay_setup()
    x0 = X.x(1, 2, 1, 2)
    base = evaluate(tau, X, spec, channel=P).f
    direct = 1.0 * 0.2
    for scale in (0.25, 0.5, 0.75):
        scaled = np.array(X.values) * scale
        crit = ungated_criteria(tau, ForwardingMatrix(scaled), spec, P)
        assert crit.f == pytest.approx(direct + scale * (base - direct), abs=1e-12)


def test_evaluate_rejects_flow_conservation_violation():
    spec, _, P, _ = single_relay_setup()
    tau = rate_matrix(spec, [[0.0, 0.9]], [[1.0, 0.0]])  # inflow is only 0.8
    with pytest.raises(FlowConservationError, match="flow conservation"):
        evaluate(tau, ForwardingMatrix.zeros(3, 2), spec, channel=P)


def test_evaluate_rejects_half_duplex_violation():
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "source", 0, 1),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ]
    )
    P = injected_channel(4, 2, {(1, 3, 1): 0.8, (2, 3, 1): 0.8, (3, 4, 2): 0.9})
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(HalfDuplexError):
        evaluate(tau, ForwardingMatrix.zeros(4, 2), spec, channel=P)


def test_evaluate_rejects_inconsistent_forwarding():
    spec, tau, P, _ = single_relay_setup()
    with pytest.raises(InconsistentForwardingError):
        evaluate(tau, ForwardingMatrix.zeros(3, 2), spec, channel=P)


def test_evaluate_rejects_forwarding_by_source():
    spec, tau, P, X = single_relay_setup()
    bad = np.array(X.values)
    bad[1, 0, 1, 0] = 0.5
    with pytest.raises(ModelViolationError):
        evaluate(tau, ForwardingMatrix(bad), spec, channel=P)


def test_evaluate_rejects_shape_mismatch():
    spec, tau, P, X = single_relay_setup()
    with pytest.raises(SchemaError):
        evaluate(tau, ForwardingMatrix.zeros(4, 2), spec, channel=P)


def _wrong_layouts():
    spec, tau, P, X = single_relay_setup()
    wide = make_spec(
        [(1, "source", 0, 0), (2, "relay", 1, 0), (3, "destination", 2, 0),
         (4, "destination", 2, 1)]
    )
    return spec, {
        "tau": (rate_matrix(wide, [[0.0, 0.4]], [[1.0, 0.0]]), X, P),
        "X": (tau, ForwardingMatrix.zeros(4, 2), P),
        "wider channel": (tau, X, injected_channel(4, 2, {(1, 2, 1): 0.8})),
        "narrower channel": (tau, X, injected_channel(2, 2, {(1, 2, 1): 0.8})),
    }


@pytest.mark.parametrize("wrong", ["tau", "X", "wider channel", "narrower channel"])
@pytest.mark.parametrize("entry", ["evaluate", "simulate"])
def test_layout_mismatch_is_a_schema_error(entry, wrong):
    spec, layouts = _wrong_layouts()
    tau, X, P = layouts[wrong]
    with pytest.raises(SchemaError, match="does not match the network"):
        if entry == "evaluate":
            evaluate(tau, X, spec, channel=P)
        else:
            simulate(tau, X, spec, SimConfig(n_packets=100, seed=0), channel=P)


def test_evaluate_detects_divergent_cascade():
    # two relays ping-pong every packet with near-certain success; the
    # cascade never dies out and the solver must refuse
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0),
            (3, "relay", 1, 1),
            (4, "destination", 2, 0),
        ]
    )
    entries = {}
    for u in (1, 2):
        entries[(1, 2, u)] = 0.9
        entries[(2, 3, u)] = 1.0
        entries[(3, 2, u)] = 1.0
    P = injected_channel(4, 2, entries)
    tau = rate_matrix(spec, [[0.01, 0.01], [0.01, 0.01]], [[1.0, 0.0]])
    X = ForwardingMatrix(np.ones((4, 4, 2, 2)))
    with pytest.raises(DivergentSystemError):
        ungated_criteria(tau, X, spec, P)


def test_cut_set_guard_regimes():
    spec, tau, P, _ = single_relay_setup(tau_r=0.2, p_sr=0.4, p_sd=0.3, p_rd=0.5)
    # the same network with its roles in the id order destination, relay, source
    permuted = make_spec([(1, "destination", 2, 0), (2, "relay", 1, 0), (3, "source", 0, 0)])
    for spec, tau, P in (
        (spec, tau, P),
        (
            permuted,
            rate_matrix(permuted, [[0.0, 0.2]], [[1.0, 0.0]]),
            injected_channel(3, 2, {(3, 2, 1): 0.4, (3, 1, 1): 0.3, (2, 1, 2): 0.5}),
        ),
    ):
        # inside the provable regime the bound is 1 - (1-p_SD)(1-p_SR) = 0.58
        _cut_set_guard(tau, P, spec, f=0.579, tol=1e-9)  # fine
        with pytest.raises(NumericalError):
            _cut_set_guard(tau, P, spec, f=0.581, tol=1e-9)
    # with p_SD + p_RD > 1 duplicates legitimately beat the cut: no check
    spec2, tau2, P2, _ = single_relay_setup(
        tau_r=0.04, p_sr=0.05, p_sd=0.9, p_rd=1.0
    )
    _cut_set_guard(tau2, P2, spec2, f=0.94, tol=1e-9)


def test_over_unity_counterexample_outside_cut_regime():
    # strong direct link and lossless relay: f legitimately exceeds the
    # source-side cut because copies are counted separately
    spec, tau, P, X = single_relay_setup(tau_r=0.04, p_sr=0.05, p_sd=0.9, p_rd=1.0)
    crit = evaluate(tau, X, spec, channel=P)
    assert crit.f == pytest.approx(0.94, abs=1e-12)
    bound = 1.0 - (1.0 - 0.9) * (1.0 - 0.05)
    assert crit.f > bound


def test_criteria_vector_json_dict():
    crit = CriteriaVector(f=1.2, f_c=1.0, f_d=0.5, f_e=0.25)
    assert crit.to_json_dict() == {"f": 1.2, "f_c": 1.0, "f_d": 0.5, "f_e": 0.25}
    assert crit.as_tuple() == (1.2, 1.0, 0.5, 0.25)


def test_criterion_helpers_agree_with_evaluate():
    spec, tau, P, X = two_relay_chain_setup()
    Q, D, F1 = build_transition_system(tau, X, P, spec)
    assert criteria(F1, fundamental_matrix(Q), D) == evaluate(tau, X, spec, channel=P)


@pytest.mark.parametrize("seed", range(5))
def test_criteria_keeps_left_to_right_products(seed):
    # The relay part of F1 meets M_F first, then D, as the formulas read;
    # on these inputs another association moves the last bits of f_D.
    rng = np.random.default_rng(seed)
    F1, M, D = rng.random((2, 15)), rng.random((12, 12)) / 12, rng.random((12, 3))
    relay, direct = F1[:, :12], F1[:, 12:]
    f = float(np.sum(relay @ M @ D) + np.sum(direct))
    assert criteria(F1, M, D) == CriteriaVector(
        f=f, f_c=min(1.0, f), f_d=float(np.sum(relay @ M @ M @ D)),
        f_e=float(np.sum(relay @ M)),
    )
