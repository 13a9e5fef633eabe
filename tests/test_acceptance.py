"""Acceptance gate: nine end-to-end checks covering the capacity identity,
the cut-set bound, the linear-algebra core, the interference model, the
Monte Carlo referee, Pareto correctness, feasibility gating, and bitwise
determinism. Each check prints one PASS/FAIL verdict line."""

import itertools
import json
import time
from contextlib import contextmanager
from math import comb

import numpy as np
from scipy.special import erfc

from pareto_relay import (
    ForwardingMatrix,
    ObjectiveSense,
    RateGrid,
    channel_matrix,
    channel_probability_exact,
    check_flow_conservation,
    check_half_duplex,
    count_rate_matrices,
    dominates,
    enumerate_rate_matrices,
    evaluate,
    exhaustive_search,
    fundamental_matrix,
    interference_candidates,
    sample_feasible_forwarding,
    serialize_network,
    simulate,
    solve_chain_closed_form,
    SimConfig,
)
from pareto_relay.cli import main as cli_main
from pareto_relay.steady_state import delay_identity_gap
from pareto_relay.topology import gain_matrix

from conftest import injected_channel, line_spec, make_spec, rate_matrix


@contextmanager
def criterion(capsys, number):
    outcome = {"ok": False, "detail": "no detail recorded"}
    try:
        yield outcome
    except BaseException as exc:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL: {type(exc).__name__}: {exc}")
        raise
    verdict = "PASS" if outcome["ok"] else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number}] {verdict}: {outcome['detail']}")
    assert outcome["ok"], f"criterion {number}: {outcome['detail']}"


def test_criterion_1_single_relay_capacity_identity(capsys):
    # A lossless source-relay link saturates the frame: with
    # tau_R = (1 - p_SD) / p_RD the delivered flow is exactly one packet
    # per frame whenever the closed-form forwarding probability exists.
    with criterion(capsys, 1) as outcome:
        started = time.perf_counter()
        spec = line_spec(slots=2)
        worst = 0.0
        n_cases = 0
        for p_sd in np.linspace(0.5, 0.95, 10):
            for p_rd in np.linspace(0.6, 1.0, 9):
                tau_star = (1.0 - p_sd) / p_rd
                if p_sd + p_rd < 1.0 or tau_star > 0.5:
                    continue  # x = tau/(1-tau) must stay a probability
                tau = rate_matrix(spec, [[0.0, tau_star]], [[1.0, 0.0]])
                P = injected_channel(
                    3, 2, {(1, 2, 1): 1.0, (1, 3, 1): p_sd, (2, 3, 2): p_rd}
                )
                X = solve_chain_closed_form(tau, P, spec)
                crit = evaluate(tau, X, spec, channel=P)
                worst = max(worst, abs(crit.f - 1.0))
                n_cases += 1
        elapsed = time.perf_counter() - started
        outcome["ok"] = n_cases >= 40 and worst <= 1e-9 and elapsed < 1.0
        outcome["detail"] = (
            f"{n_cases} (p_SD, p_RD) pairs, max |f - 1| = {worst:.3e}, "
            f"{elapsed:.2f} s"
        )


def test_criterion_2_cut_set_bound(capsys):
    # Between the source and {relay, destination} at most one packet per
    # frame crosses, succeeding with 1 - (1-p_SD)(1-p_SR). With
    # p_SD + p_RD <= 1 no copy accounting can beat that cut. (Outside
    # that regime duplicate deliveries make the bound false, so the
    # sampler stays inside it.)
    with criterion(capsys, 2) as outcome:
        started = time.perf_counter()
        spec = line_spec(slots=2)
        rng = np.random.default_rng(12345)
        n_instances = 1200
        violations = 0
        worst_margin = -np.inf
        for _ in range(n_instances):
            p_sr = rng.uniform(0.05, 1.0)
            p_sd = rng.uniform(0.0, 1.0)
            p_rd = rng.uniform(0.0, 1.0 - p_sd)
            x = rng.uniform(0.05, 1.0)
            tau_r = p_sr * x / (1.0 + p_sr * x)  # consistent by construction
            tau = rate_matrix(spec, [[0.0, tau_r]], [[1.0, 0.0]])
            P = injected_channel(
                3, 2, {(1, 2, 1): p_sr, (1, 3, 1): p_sd, (2, 3, 2): p_rd}
            )
            values = np.zeros((3, 3, 2, 2))
            values[0, 1, 0, 1] = x
            crit = evaluate(tau, ForwardingMatrix(values), spec, channel=P)
            bound = 1.0 - (1.0 - p_sd) * (1.0 - p_sr)
            margin = crit.f - bound
            worst_margin = max(worst_margin, margin)
            if margin > 1e-9:
                violations += 1
        elapsed = time.perf_counter() - started
        outcome["ok"] = violations == 0 and elapsed < 10.0
        outcome["detail"] = (
            f"{n_instances} feasible instances, worst f - bound = "
            f"{worst_margin:.3e}, {elapsed:.2f} s"
        )


_BATTERY_CACHE: list[tuple[np.ndarray, np.ndarray]] = []


def _spectral_battery():
    """100 random matrices with prescribed infinity norm in (0.3, 0.9),
    paired with their computed fundamental matrices."""
    if not _BATTERY_CACHE:
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            A = rng.random((n, n))
            target = rng.uniform(0.3, 0.9)
            Q = A * (target / np.max(A.sum(axis=1)))
            _BATTERY_CACHE.append((Q, fundamental_matrix(Q)))
    return _BATTERY_CACHE


def test_criterion_3_fundamental_matrix_neumann_oracle(capsys):
    # The LU-based inverse must match the truncated geometric series with
    # the truncation depth chosen from the infinity-norm tail bound
    # q^(S+1) / (1 - q) < 1e-12.
    with criterion(capsys, 3) as outcome:
        started = time.perf_counter()
        worst = 0.0
        for Q, M_F in _spectral_battery():
            q = float(np.max(np.abs(Q).sum(axis=1)))
            S = 1
            while q ** (S + 1) / (1.0 - q) >= 1e-12:
                S += 1
            series = np.zeros_like(Q)
            term = np.eye(Q.shape[0])
            for _ in range(S + 1):
                series += term
                term = term @ Q
            worst = max(worst, float(np.max(np.abs(M_F - series))))
        elapsed = time.perf_counter() - started
        outcome["ok"] = worst <= 1e-10 and elapsed < 5.0
        outcome["detail"] = (
            f"100 matrices up to 12x12, max |M_F - series| = {worst:.3e}, "
            f"{elapsed:.2f} s"
        )


def test_criterion_4_delay_identity(capsys):
    # M_F^2 = M_F + Q M_F^2 is what lets M_F^2 weight each delivery by
    # its transmission depth; it must hold on the same battery.
    with criterion(capsys, 4) as outcome:
        worst = 0.0
        for Q, M_F in _spectral_battery():
            worst = max(worst, delay_identity_gap(Q, M_F))
        outcome["ok"] = worst <= 1e-10
        outcome["detail"] = f"max |M_F^2 - (M_F + Q M_F^2)| = {worst:.3e}"


def interfering_set_probability(members, candidates, slot, tau) -> float:
    """Independent reference: probability that exactly ``members`` out of
    ``candidates`` transmit, tau_k over the members times (1 - tau_m) over
    the other candidates."""
    p = 1.0
    for k in candidates:
        t = tau.rate(k, slot)
        p *= t if k in members else (1.0 - t)
    return p


def test_criterion_5_interfering_set_normalization(capsys):
    # Interfering-set probabilities must partition unity, and the exact
    # channel probability must match a from-scratch subset enumeration
    # that never touches the production averaging code.
    with criterion(capsys, 5) as outcome:
        rng = np.random.default_rng(777)
        worst_norm = 0.0
        worst_prob = 0.0
        largest_pool = 0
        for index in range(100):
            k = 12 if index == 0 else int(rng.integers(0, 13))
            nodes = [(1, "source", 0.0, 0.0)]
            nodes += [
                (2 + i, "relay", rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
                for i in range(k)
            ]
            nodes += [(k + 2, "destination", 3.5, 0.0)]
            spec = make_spec(nodes, slots=1)
            relay_rows = rng.uniform(0.0, 1.0, size=(k, 1))
            if index > 0:
                relay_rows[rng.random(k) < 0.2] = 0.0
            tau = rate_matrix(spec, relay_rows, [[1.0]])
            sender, receiver = 1, k + 2
            pool = interference_candidates(tau, sender, receiver, 1)
            largest_pool = max(largest_pool, len(pool))

            gains = gain_matrix(spec)
            radio = spec.radio
            total_prob = 0.0
            total_success = 0.0
            for r in range(len(pool) + 1):
                for members in itertools.combinations(pool, r):
                    w = interfering_set_probability(members, pool, 1, tau)
                    total_prob += w
                    power = radio.tx_power * sum(
                        gains[m - 1, receiver - 1] for m in members
                    )
                    gamma = (
                        radio.tx_power
                        * gains[sender - 1, receiver - 1]
                        / (radio.noise_power + power)
                    )
                    ber = 0.5 * erfc(np.sqrt(gamma))
                    total_success += w * (1.0 - ber) ** radio.packet_bits
            worst_norm = max(worst_norm, abs(total_prob - 1.0))
            exact = channel_probability_exact(spec, tau, sender, receiver, 1, cap=12)
            worst_prob = max(worst_prob, abs(exact - total_success))
        outcome["ok"] = worst_norm <= 1e-12 and worst_prob <= 1e-12
        outcome["detail"] = (
            f"100 configurations (pools up to {largest_pool}), "
            f"max |sum P_l - 1| = {worst_norm:.3e}, "
            f"max probability gap = {worst_prob:.3e}"
        )


def _mc_fixtures():
    """Five geometric networks with a feasible, consistent strategy each."""
    fixtures = []

    # (a) single relay on a line
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    fixtures.append(("1-relay line", spec, tau, None))

    # (b) two-relay chain; the far relay hears both the source and the
    # near relay, so its forwarding comes from the feasibility sampler
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0),
            (3, "relay", 2, 0),
            (4, "destination", 3, 0),
        ],
        slots=3,
    )
    tau = rate_matrix(spec, [[0.0, 0.4, 0.0], [0.0, 0.0, 0.2]], [[1.0, 0.0, 0.0]])
    fixtures.append(("2-relay chain", spec, tau, None))

    # (c) two relays forwarding in the same slot: cross-feeding plus
    # interference at the destination
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 1),
            (3, "relay", 1, -1),
            (4, "destination", 2, 0),
        ],
        slots=2,
    )
    tau = rate_matrix(spec, [[0.0, 0.3], [0.0, 0.3]], [[1.0, 0.0]])
    fixtures.append(("2-relay parallel", spec, tau, None))

    # (d) three relays sharing the forwarding slot
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0.8),
            (3, "relay", 1, 0),
            (4, "relay", 1, -0.8),
            (5, "destination", 2, 0),
        ],
        slots=2,
    )
    tau = rate_matrix(
        spec, [[0.0, 0.2], [0.0, 0.2], [0.0, 0.2]], [[1.0, 0.0]]
    )
    fixtures.append(("3-relay shared slot", spec, tau, None))

    # (e) two sources interfering in slot 1, one relay, one sink
    spec = make_spec(
        [
            (1, "source", 0, 0.5),
            (2, "source", 0, -0.5),
            (3, "relay", 1, 0),
            (4, "destination", 2, 0),
        ],
        slots=2,
    )
    tau = rate_matrix(spec, [[0.0, 0.3]], [[0.5, 0.0], [0.5, 0.0]])
    fixtures.append(("2-source 1-sink", spec, tau, None))

    out = []
    for name, spec, tau, _ in fixtures:
        P = channel_matrix(tau, spec)
        try:
            X = solve_chain_closed_form(tau, P, spec)
        except Exception:
            (X,) = sample_feasible_forwarding(tau, P, spec, count=1, seed=0)
        out.append((name, spec, tau, X, P))
    return out


def test_criterion_6_monte_carlo_agreement(capsys):
    # The packet-level simulator is an independent referee: on all five
    # fixtures every analytic criterion must land inside the 99% CI and
    # the CIs must be tight (relative half-width <= 1%).
    with criterion(capsys, 6) as outcome:
        started = time.perf_counter()
        failures = []
        widest = 0.0
        for name, spec, tau, X, P in _mc_fixtures():
            analytic = evaluate(tau, X, spec, channel=P)
            est = simulate(
                tau, X, spec,
                SimConfig(n_packets=1_000_000, seed=314, threads=4),
                channel=P,
            )
            for label, value, bucket in (
                ("f", analytic.f, est.flow),
                ("f_d", analytic.f_d, est.delay),
                ("f_e", analytic.f_e, est.energy),
            ):
                if not bucket.covers(value):
                    failures.append(f"{name}:{label} {value:.6g} outside CI")
                half = (bucket.ci_high - bucket.ci_low) / 2.0
                rel = half / abs(bucket.mean)
                widest = max(widest, rel)
                if rel > 0.01:
                    failures.append(f"{name}:{label} half-width {rel:.3%}")
        elapsed = time.perf_counter() - started
        outcome["ok"] = not failures and elapsed < 120.0
        outcome["detail"] = (
            f"5 fixtures x 10^6 packets, 15/15 CIs cover, "
            f"widest relative half-width = {widest:.3%}, {elapsed:.1f} s"
            if not failures
            else "; ".join(failures)
        )


def _pareto_instance():
    # Source transmits in both slots so that relay rates of 0.5 have
    # enough inflow to be consistent; rates of 1 never do (zero listen
    # share), which keeps infeasible strategies in the mix.
    spec = make_spec(
        [
            (1, "source", 0, 0),
            (2, "relay", 1, 0.3),
            (3, "relay", 1, -0.3),
            (4, "destination", 2, 0),
        ],
        slots=2,
    )
    return spec, RateGrid.parse("0,0.5,1"), np.array([[1.0, 1.0]])


def test_criterion_7_pareto_front_correctness(capsys):
    # The streaming archive must agree with the definition: filter all
    # evaluated candidates by pairwise dominance. Dominance itself must
    # behave as a strict partial order.
    with criterion(capsys, 7) as outcome:
        spec, grid, source_rates = _pareto_instance()
        result = exhaustive_search(
            spec, grid, n_max=2, x_samples_per_tau=5, seed=7,
            source_rates=source_rates, collect_evaluated=True,
        )
        senses = ObjectiveSense.default()
        brute = {
            s.solution_id
            for s in result.evaluated
            if not any(
                dominates(o.criteria, s.criteria, senses)
                for o in result.evaluated
            )
        }
        front = {s.solution_id for s in result.archive}
        front_ok = front == brute and len(front) > 0

        rng = np.random.default_rng(99)
        triples = rng.integers(0, 4, size=(10_000, 3, 3)).astype(float)
        order_ok = True
        from pareto_relay import CriteriaVector

        for a, b, c in triples:
            ca = CriteriaVector(f=a[0], f_c=a[0], f_d=a[1], f_e=a[2])
            cb = CriteriaVector(f=b[0], f_c=b[0], f_d=b[1], f_e=b[2])
            cc = CriteriaVector(f=c[0], f_c=c[0], f_d=c[1], f_e=c[2])
            if dominates(ca, ca, senses):
                order_ok = False
            if dominates(ca, cb, senses) and dominates(cb, ca, senses):
                order_ok = False
            if (
                dominates(ca, cb, senses)
                and dominates(cb, cc, senses)
                and not dominates(ca, cc, senses)
            ):
                order_ok = False
            if not order_ok:
                break
        outcome["ok"] = front_ok and order_ok
        outcome["detail"] = (
            f"front of {len(front)} equals brute-force filter of "
            f"{len(result.evaluated)} candidates; dominance order checks "
            f"on 10^4 triples {'pass' if order_ok else 'fail'}"
        )


def test_criterion_8_feasibility_gates(capsys):
    # Enumeration sizes must match the combinatorial closed form on every
    # small configuration, and everything the search evaluates must obey
    # the rate constraints under its own recomputed channel.
    with criterion(capsys, 8) as outcome:
        count_ok = True
        checked = 0
        for n_relays, slots, grid_text in itertools.product(
            (1, 2, 3), (1, 2), ("0,1", "0,0.5,1")
        ):
            nodes = [(1, "source", 0, 0)]
            nodes += [(2 + k, "relay", 1, k) for k in range(n_relays)]
            nodes += [(2 + n_relays, "destination", 3, 0)]
            spec = make_spec(nodes, slots=slots)
            grid = RateGrid.parse(grid_text)
            g = len(grid.values)
            for n_max in range(n_relays + 1):
                expected = sum(
                    comb(n_relays, k) * (g**slots - 1) ** k
                    for k in range(n_max + 1)
                )
                stream = list(enumerate_rate_matrices(grid, spec, n_max))
                if (
                    len(stream) != expected
                    or count_rate_matrices(grid, spec, n_max) != expected
                ):
                    count_ok = False
                checked += 1

        spec, grid, source_rates = _pareto_instance()
        result = exhaustive_search(
            spec, grid, n_max=2, x_samples_per_tau=3, seed=7,
            source_rates=source_rates, collect_evaluated=True,
        )
        gate_ok = len(result.evaluated) > 0
        for sol in result.evaluated:
            P = channel_matrix(sol.tau, spec)
            if not check_flow_conservation(sol.tau, P, 1e-9).all_ok:
                gate_ok = False
            if not check_half_duplex(sol.tau, P, 1e-9).all_ok:
                gate_ok = False
        outcome["ok"] = count_ok and gate_ok
        outcome["detail"] = (
            f"{checked} enumeration counts match the closed form; "
            f"{len(result.evaluated)} evaluated strategies satisfy the "
            f"rate constraints at 1e-9"
        )


def test_criterion_9_bitwise_determinism(capsys, tmp_path):
    # Reruns with one seed, and thread counts 1 vs 8, must produce
    # byte-identical search and oracle outputs (manifests carry wall
    # times and are exempt).
    with criterion(capsys, 9) as outcome:
        spec = line_spec(slots=2)
        topology = tmp_path / "topology.json"
        topology.write_text(json.dumps(serialize_network(spec)))
        tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
        tau_path = tmp_path / "tau.json"
        tau_path.write_text(json.dumps(tau.to_json_dict()))
        P = channel_matrix(tau, spec)
        X = solve_chain_closed_form(tau, P, spec)
        x_path = tmp_path / "x.json"
        x_path.write_text(json.dumps(X.to_json_dict()))

        def run_search(tag, threads):
            out = tmp_path / f"search-{tag}"
            code = cli_main(
                [
                    "search",
                    "--topology", str(topology),
                    "--grid", "0,0.25,0.5",
                    "--n-max", "1",
                    "--x-samples", "3",
                    "--seed", "5",
                    "--threads", str(threads),
                    "--output-dir", str(out),
                ]
            )
            assert code == 0
            return {
                p.name: p.read_bytes()
                for p in out.iterdir()
                if p.name != "manifest.json"
            }

        def run_oracle(tag, threads):
            out = tmp_path / f"oracle-{tag}.json"
            code = cli_main(
                [
                    "oracle",
                    "--topology", str(topology),
                    "--tau", str(tau_path),
                    "--x", str(x_path),
                    "--packets", "200000",
                    "--seed", "5",
                    "--threads", str(threads),
                    "--output", str(out),
                ]
            )
            assert code == 0
            return out.read_bytes()

        searches = [run_search("a", 1), run_search("b", 1), run_search("c", 8)]
        search_ok = searches[0] == searches[1] == searches[2]
        n_files = len(searches[0])
        oracles = [run_oracle("a", 1), run_oracle("b", 1), run_oracle("c", 8)]
        oracle_ok = oracles[0] == oracles[1] == oracles[2]
        outcome["ok"] = search_ok and oracle_ok and n_files > 1
        outcome["detail"] = (
            f"search ({n_files} files) and oracle outputs byte-identical "
            f"across reruns and --threads 1 vs 8"
        )
