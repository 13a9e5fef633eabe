import hashlib
import json

import pytest

from pareto_relay import (
    ForwardingMatrix,
    channel_matrix,
    evaluate,
    serialize_network,
    solve_chain_closed_form,
)
from pareto_relay.cli import main

from conftest import line_spec, rate_matrix


def fmt(x: float) -> float:
    return float(f"{x:.12g}")


@pytest.fixture
def workspace(tmp_path):
    """Line network on disk plus a consistent (tau, X) strategy."""
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

    criteria = evaluate(tau, X, spec, channel=P)
    return {
        "dir": tmp_path,
        "spec": spec,
        "topology": topology,
        "tau": tau,
        "tau_path": tau_path,
        "X": X,
        "x_path": x_path,
        "criteria": criteria,
    }


def eval_args(ws, *extra):
    return [
        "evaluate",
        "--topology", str(ws["topology"]),
        "--tau", str(ws["tau_path"]),
        "--x", str(ws["x_path"]),
        *extra,
    ]


def test_evaluate_stdout_matches_library(workspace, capsys):
    assert main(eval_args(workspace)) == 0
    payload = json.loads(capsys.readouterr().out)
    want = workspace["criteria"]
    assert payload == {
        "f": fmt(want.f),
        "f_c": fmt(want.f_c),
        "f_d": fmt(want.f_d),
        "f_e": fmt(want.f_e),
    }


def test_evaluate_writes_output_and_manifest(workspace, capsys):
    out = workspace["dir"] / "criteria.json"
    assert main(eval_args(workspace, "--output", str(out))) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout

    manifest = json.loads((workspace["dir"] / "criteria.json.manifest.json").read_text())
    assert manifest["tool"] == "pareto-relay"
    assert manifest["subcommand"] == "evaluate"
    assert manifest["wall_time_s"] >= 0.0
    digest = hashlib.sha256(workspace["topology"].read_bytes()).hexdigest()
    assert manifest["inputs"][str(workspace["topology"])] == digest


def test_evaluate_missing_file_exits_1(workspace, capsys):
    args = eval_args(workspace)
    args[args.index("--tau") + 1] = str(workspace["dir"] / "absent.json")
    assert main(args) == 1
    assert "error" in capsys.readouterr().err


def test_evaluate_infeasible_rates_exit_2(workspace, capsys):
    spec = workspace["spec"]
    too_fast = rate_matrix(spec, [[0.6, 0.6]], [[1.0, 0.0]])
    tau_path = workspace["dir"] / "tau_bad.json"
    tau_path.write_text(json.dumps(too_fast.to_json_dict()))
    args = eval_args(workspace)
    args[args.index("--tau") + 1] = str(tau_path)
    assert main(args) == 2
    assert "flow conservation" in capsys.readouterr().err


def test_evaluate_forwarder_role_violation_exit_2(workspace, capsys):
    import numpy as np

    bad = np.array(workspace["X"].values)
    bad[1, 0, 1, 0] = 0.5  # source in the forwarder slot
    bad_path = workspace["dir"] / "x_bad.json"
    bad_path.write_text(json.dumps(ForwardingMatrix(bad).to_json_dict()))
    args = eval_args(workspace)
    args[args.index("--x") + 1] = str(bad_path)
    assert main(args) == 2
    assert "infeasible" in capsys.readouterr().err


def test_evaluate_dump_channels(workspace, capsys):
    ch_path = workspace["dir"] / "channels.json"
    assert main(eval_args(workspace, "--dump-channels", str(ch_path))) == 0
    capsys.readouterr()
    doc = json.loads(ch_path.read_text())
    spec, tau = workspace["spec"], workspace["tau"]
    P = channel_matrix(tau, spec)
    by_key = {(e["i"], e["j"], e["u"]): e["p"] for e in doc["links"]}
    assert by_key[(1, 2, 1)] == fmt(P.p(1, 2, 1))
    assert by_key[(1, 3, 1)] == fmt(P.p(1, 3, 1))
    assert (2, 2, 1) not in by_key


def search_args(ws, out_dir, *extra):
    return [
        "search",
        "--topology", str(ws["topology"]),
        "--grid", "0,0.25,0.5",
        "--n-max", "1",
        "--x-samples", "3",
        "--seed", "0",
        "--output-dir", str(out_dir),
        *extra,
    ]


def test_search_outputs(workspace, capsys):
    out_dir = workspace["dir"] / "front"
    assert main(search_args(workspace, out_dir)) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("front size ")
    assert "9 rate matrices" in summary

    lines = (out_dir / "front.csv").read_text().splitlines()
    assert lines[0] == "solution_id,f,f_c,f_d,f_e,tau_path,x_path"
    assert len(lines) > 1
    for line in lines[1:]:
        sid, f, f_c, f_d, f_e, tau_name, x_name = line.split(",")
        assert (out_dir / tau_name).exists()
        assert (out_dir / x_name).exists()
        assert tau_name == f"tau_{sid}.json" and x_name == f"x_{sid}.json"
        assert float(f_c) <= min(1.0, float(f)) + 1e-15
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "search"
    assert manifest["flags"]["seed"] == 0


def test_search_reruns_are_byte_identical(workspace, capsys):
    dir_a = workspace["dir"] / "a"
    dir_b = workspace["dir"] / "b"
    assert main(search_args(workspace, dir_a, "--threads", "1")) == 0
    assert main(search_args(workspace, dir_b, "--threads", "4")) == 0
    capsys.readouterr()
    names_a = sorted(p.name for p in dir_a.iterdir() if p.name != "manifest.json")
    names_b = sorted(p.name for p in dir_b.iterdir() if p.name != "manifest.json")
    assert names_a == names_b
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_search_without_relays(workspace, capsys):
    out_dir = workspace["dir"] / "none"
    args = search_args(workspace, out_dir)
    args[args.index("--n-max") + 1] = "0"
    assert main(args) == 0
    capsys.readouterr()
    lines = (out_dir / "front.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("000000-0000,")


def test_search_aggressive_threshold_empties_front(workspace, capsys):
    out_dir = workspace["dir"] / "empty"
    assert main(search_args(workspace, out_dir, "--min-robustness", "5")) == 0
    capsys.readouterr()
    lines = (out_dir / "front.csv").read_text().splitlines()
    assert lines == ["solution_id,f,f_c,f_d,f_e,tau_path,x_path"]


def test_search_notes_ignored_dump_channels(workspace, capsys):
    out_dir = workspace["dir"] / "noted"
    assert main(search_args(workspace, out_dir, "--dump-channels", "nowhere.json")) == 0
    assert "ignored" in capsys.readouterr().err


def test_search_objectives_flag(workspace, capsys):
    out_dir = workspace["dir"] / "raw-flow"
    assert main(search_args(workspace, out_dir, "--objectives", "f,fe")) == 0
    capsys.readouterr()
    assert (out_dir / "front.csv").exists()
    assert main(search_args(workspace, workspace["dir"] / "z", "--objectives", "zzz")) == 1
    assert "error" in capsys.readouterr().err


def oracle_args(ws, *extra):
    return [
        "oracle",
        "--topology", str(ws["topology"]),
        "--tau", str(ws["tau_path"]),
        "--x", str(ws["x_path"]),
        "--packets", "2000",
        "--seed", "11",
        *extra,
    ]


def test_oracle_stdout_deterministic(workspace, capsys):
    assert main(oracle_args(workspace)) == 0
    first = capsys.readouterr().out
    assert main(oracle_args(workspace, "--threads", "4")) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {
        "f", "f_d", "f_e", "n_packets", "confidence", "truncated",
        "truncation_warning",
    }
    assert payload["n_packets"] == 2000
    est = payload["f"]
    assert est["ci_low"] <= est["mean"] <= est["ci_high"]


def test_oracle_output_and_manifest(workspace, capsys):
    out = workspace["dir"] / "oracle.json"
    assert main(oracle_args(workspace, "--output", str(out))) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    manifest = json.loads((workspace["dir"] / "oracle.json.manifest.json").read_text())
    assert manifest["subcommand"] == "oracle"
    assert manifest["flags"]["packets"] == 2000
    assert manifest["flags"]["seed"] == 11


def test_oracle_infeasible_exit_2(workspace, capsys):
    spec = workspace["spec"]
    too_fast = rate_matrix(spec, [[0.6, 0.6]], [[1.0, 0.0]])
    tau_path = workspace["dir"] / "tau_bad.json"
    tau_path.write_text(json.dumps(too_fast.to_json_dict()))
    args = oracle_args(workspace)
    args[args.index("--tau") + 1] = str(tau_path)
    assert main(args) == 2
    assert "infeasible" in capsys.readouterr().err


def test_usage_errors_exit_1(workspace, capsys):
    assert main(["evaluate", "--topology"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(eval_args(workspace, "--bogus-flag")) == 1
    capsys.readouterr()
    assert main(oracle_args(workspace, "--packets", "0")) == 1
    assert capsys.readouterr().err == "error: n_packets must be >= 1\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pareto-relay" in capsys.readouterr().out


def test_threads_env_variable(workspace, capsys, monkeypatch):
    monkeypatch.setenv("PARETO_RELAY_THREADS", "2")
    assert main(oracle_args(workspace)) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("PARETO_RELAY_THREADS")
    assert main(oracle_args(workspace, "--threads", "1")) == 0
    assert capsys.readouterr().out == with_env
    monkeypatch.setenv("PARETO_RELAY_THREADS", "banana")
    assert main(oracle_args(workspace)) == 1
    assert "PARETO_RELAY_THREADS" in capsys.readouterr().err


def test_malformed_json_input_exits_1(workspace, capsys):
    broken = workspace["dir"] / "broken.json"
    broken.write_text("{not json")
    args = eval_args(workspace)
    args[args.index("--tau") + 1] = str(broken)
    assert main(args) == 1
    assert "error" in capsys.readouterr().err
    broken.write_text('{"tau": [[NaN, 0.4]], "sources": [[1.0, 0.0]]}')
    assert main(args) == 1
    assert "rates must lie in [0, 1]" in capsys.readouterr().err
    broken.write_text('{"tau": [["a", 0.4]], "sources": [[1.0, 0.0]]}')
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    broken.write_text('{"sources": [["a", 0.0]]}')
    out_dir = workspace["dir"] / "front"
    assert main(search_args(workspace, out_dir, "--sources", str(broken))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
