import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_relay import (
    ForwardingMatrix,
    channel_matrix,
    evaluate,
    serialize_network,
    solve_chain_closed_form,
)
from pareto_relay.cli import main

from conftest import line_spec, make_spec, rate_matrix


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


@pytest.mark.parametrize("relays", [0, 1])
def test_search_output_evaluates_to_front_csv(workspace, capsys, relays):
    # relays=0: a source->destination network, whose tau files hold "tau": [].
    out_dir = workspace["dir"] / f"round-trip-{relays}"
    args = search_args(workspace, out_dir)
    if not relays:
        spec = make_spec([(1, "source", 0, 0), (2, "destination", 1, 0)])
        workspace["topology"].write_text(json.dumps(serialize_network(spec)))
        args[args.index("--n-max") + 1] = "0"
    assert main(args) == 0
    capsys.readouterr()
    lines = (out_dir / "front.csv").read_text().splitlines()
    assert len(lines) > 1
    for line in lines[1:]:
        _, f, f_c, f_d, f_e, tau_name, x_name = line.split(",")
        code = main([
            "evaluate",
            "--topology", str(workspace["topology"]),
            "--tau", str(out_dir / tau_name),
            "--x", str(out_dir / x_name),
        ])
        assert code == 0, capsys.readouterr().err
        payload = json.loads(capsys.readouterr().out)
        # The strategy files carry 12 digits, so re-evaluating them can move
        # a criterion in its last printed digit.
        want = dict(zip(("f", "f_c", "f_d", "f_e"), map(float, (f, f_c, f_d, f_e))))
        assert payload == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_search_aggressive_threshold_empties_front(workspace, capsys):
    out_dir = workspace["dir"] / "empty"
    assert main(search_args(workspace, out_dir, "--min-robustness", "5")) == 0
    capsys.readouterr()
    lines = (out_dir / "front.csv").read_text().splitlines()
    assert lines == ["solution_id,f,f_c,f_d,f_e,tau_path,x_path"]


def test_search_rejects_dump_channels(workspace, capsys):
    out_dir = workspace["dir"] / "rejected"
    assert main(search_args(workspace, out_dir, "--dump-channels", "nowhere.json")) == 1
    assert "--dump-channels" in capsys.readouterr().err
    assert not out_dir.exists()


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
    out_dir = workspace["dir"] / "never"
    for args in (
        search_args(workspace, out_dir, "--x-samples", "0"),
        search_args(workspace, out_dir, "--x-samples", "-2"),
        search_args(workspace, out_dir, "--min-robustness", "nan"),
        search_args(workspace, out_dir, "--max-energy", "nan"),
        search_args(workspace, out_dir, "--grid", "0,nan"),
        search_args(workspace, out_dir, "--tolerance", "nan"),
        eval_args(workspace, "--tolerance", "nan"),
        eval_args(workspace, "--tolerance", "-1e-9"),
        oracle_args(workspace, "--confidence", "nan"),
        oracle_args(workspace, "--seed", "-1"),
        search_args(workspace, out_dir, "--seed", "-1"),
    ):
        assert main(args) == 1, args
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:"), args
    assert not out_dir.exists()


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
    broken.write_bytes(b'{"tau": "\xff"}')  # not UTF-8
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    out_dir = workspace["dir"] / "front"
    for sources in ('{"sources": [["a", 0.0]]}', '{"sources": [["1.0", 0.0]]}',
                    '{"sources": [[1.0, 0.0, 0.0]]}', '{"rates": [[1.0, 0.0]]}'):
        broken.write_text(sources)
        assert main(search_args(workspace, out_dir, "--sources", str(broken))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


# Any JSON value, kept small: no count it could stand in for makes the
# program allocate more than its inputs need.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.just(10**400) | st.just(1e300)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)

# (document, path to the field replaced); the empty path replaces the document.
FUZZ_FIELDS = [
    ("topology", ()), ("topology", ("nodes",)), ("topology", ("nodes", 1)),
    ("topology", ("nodes", 1, "id")), ("topology", ("nodes", 1, "role")),
    ("topology", ("nodes", 1, "x")), ("topology", ("radio",)),
    ("topology", ("radio", "tx_power_w")), ("topology", ("radio", "noise_power_w")),
    ("topology", ("radio", "packet_bits")), ("topology", ("radio", "pathloss_exponent")),
    ("topology", ("radio", "reference_distance_m")), ("topology", ("frame", "slots")),
    ("tau", ()), ("tau", ("tau",)), ("tau", ("tau", 0)), ("tau", ("tau", 0, 1)),
    ("tau", ("sources", 0, 0)),
    ("x", ()), ("x", ("entries",)), ("x", ("entries", 0)), ("x", ("entries", 0, "i")),
    ("x", ("entries", 0, "v")), ("x", ("entries", 0, "x")),
]
SEARCH_FUZZ_FIELDS = [f for f in FUZZ_FIELDS if f[0] == "topology"] + [
    ("sources", ()), ("sources", ("sources",)), ("sources", ("sources", 0)),
    ("sources", ("sources", 0, 1)),
]


def _strategy_documents() -> dict:
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    X = solve_chain_closed_form(tau, channel_matrix(tau, spec), spec)
    return {
        "topology": serialize_network(spec),
        "tau": tau.to_json_dict(),
        "x": X.to_json_dict(),
        "sources": {"sources": tau.to_json_dict()["sources"]},
    }


def _fuzzed_documents(field, value, names=("topology", "tau", "x")) -> dict:
    """The strategy documents ``names`` with the field at ``field`` set to
    ``value``; unchanged when ``field`` is None."""
    docs = {name: doc for name, doc in _strategy_documents().items() if name in names}
    if field is None:
        return docs
    name, path = field
    if path:
        target = docs[name]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        docs[name] = value
    return docs


def _run_on_documents(subcommand, docs, *extra) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``subcommand`` on the given documents."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = [subcommand]
        for key, doc in docs.items():
            doc_path = Path(tmp) / f"{key}.json"
            doc_path.write_text(json.dumps(doc))
            args += [f"--{key}", str(doc_path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args + list(extra))
    return code, err.getvalue().splitlines()


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), value=JSON_VALUES)
def test_evaluate_exit_code_contract(field, value):
    """Whatever one field of the inputs holds, evaluate exits 0, 1 or 2, and
    on failure prints exactly one error:/infeasible: line."""
    code, lines = _run_on_documents("evaluate", _fuzzed_documents(field, value))
    assert code in (0, 1, 2)
    if code:
        assert len(lines) == 1, lines
        assert lines[0].startswith(("error:", "infeasible:")), lines


# Text for one oracle flag: small and huge integers of either sign, floats
# with nan and inf, and short arbitrary strings.
FLAG_TEXT = (
    st.integers(-3, 3).map(str)
    | st.integers(-(10**20), 10**20).map(str)
    | st.floats().map(repr)
    | st.text(max_size=3)
)


@settings(max_examples=50, deadline=None)
@given(
    field=st.none() | st.sampled_from(FUZZ_FIELDS),
    value=JSON_VALUES,
    flag=st.sampled_from(["--seed", "--max-epochs", "--confidence"]),
    flag_text=FLAG_TEXT,
)
def test_oracle_exit_code_contract(field, value, flag, flag_text):
    """Whatever one field of the inputs (or none) and one of the oracle's
    own flags hold, oracle exits 0, 1 or 2, and on failure prints exactly one
    error:/infeasible: line, last, after at most argparse's usage text."""
    code, lines = _run_on_documents(
        "oracle", _fuzzed_documents(field, value), "--packets", "200", flag, flag_text
    )
    assert code in (0, 1, 2)
    if code:
        verdicts = [line for line in lines if line.startswith(("error:", "infeasible:"))]
        assert verdicts == lines[-1:], lines
        assert len(lines) == 1 or lines[0].startswith("usage:"), lines


@settings(max_examples=30, deadline=None)
@given(field=st.none() | st.sampled_from(SEARCH_FUZZ_FIELDS), value=JSON_VALUES)
def test_search_sources_exit_code_contract(field, value):
    """Whatever one field of the topology or the --sources document (or
    none) holds, a tiny search exits 0, 1 or 2, and on failure prints exactly
    one error:/infeasible: line, last."""
    docs = _fuzzed_documents(field, value, names=("topology", "sources"))
    with tempfile.TemporaryDirectory() as out_dir:
        code, lines = _run_on_documents(
            "search", docs, "--grid", "0,0.25", "--n-max", "1", "--x-samples", "1",
            "--output-dir", out_dir,
        )
    assert code in (0, 1, 2)
    if code:
        verdicts = [line for line in lines if line.startswith(("error:", "infeasible:"))]
        assert verdicts == lines[-1:], lines
