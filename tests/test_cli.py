import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pareto_relay
from pareto_relay import (
    ForwardingMatrix,
    SimConfig,
    channel_matrix,
    check_flow_conservation,
    check_half_duplex,
    consistency_residuals,
    evaluate,
    serialize_network,
    simulate,
    solve_chain_closed_form,
)
from pareto_relay.cli import main
from pareto_relay.forwarding import check_forwarder_roles
from pareto_relay.mc_oracle import _log_q
from pareto_relay.errors import (
    FlowConservationError,
    HalfDuplexError,
    InconsistentForwardingError,
    ModelViolationError,
    SchemaError,
)
from pareto_relay.steady_state import check_strategy

from conftest import DEFAULT_RADIO, line_spec, make_spec, rate_matrix


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


def assert_library_versions(manifest):
    assert manifest["python"] == ".".join(map(str, sys.version_info[:3]))
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__


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
    assert_library_versions(manifest)
    assert "binomial_log_rule" not in manifest


@pytest.mark.parametrize(
    "stage, args, manifest",
    [
        ("evaluate", lambda ws, d: eval_args(ws, "--output", str(d / "c.json")),
         "c.json.manifest.json"),
        ("simulate", lambda ws, d: oracle_args(ws, "--output", str(d / "o.json")),
         "o.json.manifest.json"),
        ("exhaustive_search", lambda ws, d: search_args(ws, d / "front"),
         "front/manifest.json"),
    ],
    ids=["evaluate", "oracle", "search"],
)
def test_manifest_digests_the_bytes_the_run_read(workspace, capsys, monkeypatch,
                                                 stage, args, manifest):
    # The stage after parsing rewrites every input; the manifest must keep
    # the digests of what was parsed, not of what the files hold afterwards.
    paths = [workspace[k] for k in ("topology", "tau_path", "x_path")]
    before = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    original = getattr(pareto_relay.cli, stage)

    def rewriting(*a, **kw):
        for p in paths:
            p.write_text(p.read_text() + "\n")
        return original(*a, **kw)

    monkeypatch.setattr(pareto_relay.cli, stage, rewriting)
    d = workspace["dir"]
    assert main(args(workspace, d)) == 0
    capsys.readouterr()
    inputs = json.loads((d / manifest).read_text())["inputs"]
    assert inputs == {k: v for k, v in before.items() if k in inputs}
    assert str(workspace["topology"]) in inputs
    assert all(hashlib.sha256(p.read_bytes()).hexdigest() != before[str(p)] for p in paths)


def test_evaluate_missing_file_exits_1(workspace, capsys):
    args = eval_args(workspace)
    args[args.index("--tau") + 1] = str(workspace["dir"] / "absent.json")
    assert main(args) == 1
    assert "error" in capsys.readouterr().err


def test_evaluate_repeated_x_entry_exits_1(workspace, capsys):
    # The document holds the closed form's one entry; a repeat of its
    # indices used to replace its x and fail the consistency gate (exit 2).
    doc = workspace["X"].to_json_dict()
    (entry,) = doc["entries"]
    doc["entries"].append({**entry, "x": 0.6})
    workspace["x_path"].write_text(json.dumps(doc))
    assert main(eval_args(workspace)) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "entries[1] repeats the entry at i=1, j=2, u=1, v=2" in err


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
    assert by_key[(1, 2, 1)] == fmt(P.probs[0, 1, 0])
    assert by_key[(1, 3, 1)] == fmt(P.probs[0, 2, 0])
    assert (2, 2, 1) not in by_key
    # One link per ordered pair and slot; p is 0 where i does not transmit.
    assert len(by_key) == 3 * 2 * 2
    assert by_key[(1, 2, 2)] == by_key[(2, 3, 1)] == by_key[(3, 1, 1)] == 0.0
    assert by_key[(2, 3, 2)] > 0.0


def test_evaluate_overflowing_sinr_writes_no_warning(tmp_path):
    """At a transmit power of 1e308 W the SINR of a 1-m link overflows to
    inf, whose packet success is 1; stderr stays free of numpy warnings."""
    spec = make_spec(
        [(1, "source", 0, 0), (2, "relay", 1, 0), (3, "destination", 2, 0)],
        radio={"tx_power_w": 1e308, "reference_gain": 1.0},
    )
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    P = channel_matrix(tau, spec)
    assert P.probs[0, 1, 0] == 1.0
    paths = {}
    for name, doc in (
        ("topology", serialize_network(spec)),
        ("tau", tau.to_json_dict()),
        ("x", solve_chain_closed_form(tau, P, spec).to_json_dict()),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    src = str(Path(pareto_relay.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pareto_relay", "evaluate",
         *(arg for name, path in paths.items() for arg in (f"--{name}", str(path)))],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert "Warning" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["f"] > 0.0


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
    assert_library_versions(manifest)
    assert "binomial_log_rule" not in manifest


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
    assert_library_versions(manifest)
    # the rule the oracle found for numpy's binomial P(X = 0)
    assert manifest["binomial_log_rule"] == _log_q()
    assert manifest["binomial_log_rule"] in ("log1p", "log", None)


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
    # a standard error needs two trials
    for packets in ("0", "1"):
        assert main(oracle_args(workspace, "--packets", packets)) == 1
        assert capsys.readouterr().err == "error: n_packets must be >= 2\n"
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


def test_threads_flag(workspace, capsys, monkeypatch):
    assert main(oracle_args(workspace, "--threads", "1")) == 0
    one = capsys.readouterr().out
    # the default is the machine's CPU count, or 1 when it is unknown; the
    # environment does not set it
    monkeypatch.setenv("PARETO_RELAY_THREADS", "banana")
    for cpus in (None, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(oracle_args(workspace)) == 0
        assert capsys.readouterr().out == one
    assert main(oracle_args(workspace, "--threads", "2")) == 0
    assert capsys.readouterr().out == one
    # a count below 1 reaches SimConfig's check, as a negative seed does
    for threads in ("0", "-3"):
        assert main(oracle_args(workspace, "--threads", threads)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads must be >= 1\n"


_STRERROR = {2: "No such file or directory", 20: "Not a directory", 21: "Is a directory"}

_FILE_ERROR_CASES = [
    (subcommand, case)
    for subcommand in ("evaluate", "oracle", "search")
    for case in (
        "missing input", "directory input", "output below a file",
        "output is a directory",
    )
] + [
    ("evaluate", "output in a missing directory"),
    ("oracle", "output in a missing directory"),
    ("evaluate", "dump in a missing directory"),
    ("oracle", "dump in a missing directory"),
    ("search", "missing sources"),
]


def _file_error_case(ws, subcommand, case):
    """argv of ``subcommand`` that fails on one file, and the errno and path
    its error line names."""
    d = ws["dir"]
    (d / "taken").mkdir()
    if subcommand == "search":
        argv, out_flag = search_args(ws, d / "front"), "--output-dir"
    else:
        args = eval_args if subcommand == "evaluate" else oracle_args
        argv, out_flag = args(ws, "--output", str(d / "out.json")), "--output"

    def put(flag, value):
        argv[argv.index(flag) + 1] = str(value)

    if case == "missing input":
        # the line names the path as pathlib spells it
        put("--topology", f"{d}//absent.json")
        return argv, 2, d / "absent.json"
    if case == "directory input":
        put("--topology", d / "taken")
        return argv, 21, d / "taken"
    if case == "missing sources":
        argv += ["--sources", str(d / "absent.json")]
        return argv, 2, d / "absent.json"
    if case == "output below a file":
        put(out_flag, ws["topology"] / "out")
        return argv, 20, ws["topology"] / "out"
    if case == "output is a directory":
        if subcommand == "search":
            (d / "front" / "front.csv").mkdir(parents=True)
            return argv, 21, d / "front" / "front.csv"
        put(out_flag, d / "taken")
        return argv, 21, d / "taken"
    if case == "output in a missing directory":
        put(out_flag, d / "absent" / "out.json")
        return argv, 2, d / "absent" / "out.json"
    assert case == "dump in a missing directory"
    argv += ["--dump-channels", str(d / "absent" / "channels.json")]
    return argv, 2, d / "absent" / "channels.json"


@pytest.mark.parametrize("subcommand,case", _FILE_ERROR_CASES)
def test_file_errors_are_one_pinned_line(workspace, capsys, subcommand, case):
    argv, errno, path = _file_error_case(workspace, subcommand, case)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno {errno}] {_STRERROR[errno]}: '{path}'\n"
    )


def test_outputs_replace_longer_files_whole(workspace, capsys):
    d = workspace["dir"]
    out, dump = d / "out.json", d / "channels.json"
    manifest = d / "out.json.manifest.json"
    front = d / "front"
    fresh = d / "fresh"
    front.mkdir()
    stale = [out, dump, manifest, front / "front.csv", front / "manifest.json"]
    for path in stale:
        path.write_bytes(b"\x00" * 100_000)
    assert main(eval_args(workspace, "--output", str(out), "--dump-channels", str(dump))) == 0
    assert out.read_text() == capsys.readouterr().out
    json.loads(dump.read_text())
    json.loads(manifest.read_text())
    assert main(search_args(workspace, front)) == 0
    assert main(search_args(workspace, fresh)) == 0
    capsys.readouterr()
    assert (front / "front.csv").read_bytes() == (fresh / "front.csv").read_bytes()
    json.loads((front / "manifest.json").read_text())


def test_new_outputs_take_the_umask(workspace, capsys):
    d = workspace["dir"]
    previous = os.umask(0o027)
    try:
        assert main(eval_args(
            workspace, "--output", str(d / "out.json"),
            "--dump-channels", str(d / "channels.json"),
        )) == 0
        assert main(search_args(workspace, d / "front")) == 0
    finally:
        os.umask(previous)
    capsys.readouterr()
    written = [
        d / "out.json", d / "out.json.manifest.json", d / "channels.json",
        *(d / "front").iterdir(),
    ]
    assert len(written) > 5
    assert {p.stat().st_mode & 0o777 for p in written} == {0o666 & ~0o027}


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


def _run_on_documents(subcommand, docs, *extra, out=None) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``subcommand`` on the given documents;
    stdout goes to ``out`` when it is given."""
    out = io.StringIO() if out is None else out
    err = io.StringIO()
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


@pytest.mark.parametrize("subcommand", ["evaluate", "oracle", "search", "search-default-sources"])
def test_slot_count_no_input_matches_is_refused(subcommand):
    """A frame of 10^400 slots, which no array can hold, is refused by the
    rate-shape check with exit 1, not by numpy or itertools. A search
    without ``--sources`` has no input to match, so the search's own size
    check refuses that frame, and one of 10^12 slots, before it sizes the
    default source rates or walks the grid's rows."""
    names = {
        "evaluate": ("topology", "tau", "x"),
        "oracle": ("topology", "tau", "x"),
        "search": ("topology", "sources"),
        "search-default-sources": ("topology",),
    }[subcommand]
    extra = {
        "evaluate": (),
        "oracle": ("--packets", "200"),
        "search": ("--grid", "0,0.25", "--n-max", "1", "--x-samples", "1"),
        "search-default-sources": ("--grid", "0,0.25", "--n-max", "1", "--x-samples", "1"),
    }[subcommand]
    slot_counts = (10**400, 10**12) if subcommand == "search-default-sources" else (10**400,)
    for slots in slot_counts:
        docs = _fuzzed_documents(("topology", ("frame", "slots")), slots, names=names)
        with tempfile.TemporaryDirectory() as out_dir:
            args = extra + (("--output-dir", out_dir) if subcommand.startswith("search") else ())
            code, lines = _run_on_documents(subcommand.split("-")[0], docs, *args)
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        reason = "slots" if subcommand == "search-default-sources" else "shape"
        assert reason in lines[0], lines


def test_search_out_of_memory_is_one_error_line(tmp_path):
    """A one-value grid has no relay rows for the rate-shape check to bound,
    so on a 10^12-slot frame numpy cannot allocate the default source rates;
    ``python -m pareto_relay`` reports that as one error: line with exit 1.
    The child's address space is capped at 8 GiB, so the allocation fails
    even where the kernel would overcommit it."""
    doc = serialize_network(line_spec(slots=2))
    doc["frame"]["slots"] = 10**12
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps(doc))
    run_capped = (
        "import resource, runpy; "
        "resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30)); "
        "runpy.run_module('pareto_relay', run_name='__main__', alter_sys=True)"
    )
    src = str(Path(pareto_relay.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", run_capped, "search", "--topology", str(topology),
         "--grid", "0", "--n-max", "1", "--x-samples", "1",
         "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in proc.stderr


def _gate_failures() -> dict:
    """(spec, tau, X, error) per case. Each case fails the gate it names
    and passes every gate before it; "roles and flow" fails both."""
    spec = line_spec(slots=2)
    tau = rate_matrix(spec, [[0.0, 0.4]], [[1.0, 0.0]])
    X = solve_chain_closed_form(tau, channel_matrix(tau, spec), spec)
    by_destination = np.array(X.values)
    by_destination[0, 2, 0, 1] = 0.5  # node 3, a destination, forwards
    # The relay sends at rate 1 but hears the source with p_SR < 1.
    overdrawn = rate_matrix(spec, [[0.0, 1.0]], [[1.0, 0.0]])
    wide = make_spec(
        [(1, "source", 0, 0), (2, "relay", 1, 0), (3, "destination", 2, 0),
         (4, "destination", 2, 1)]
    )
    # Both sources reach the relay in slot 1 with p near 1: it would have
    # to receive about 1.8 packets in one slot.
    two_feeders = make_spec(
        [(1, "source", 0, 0), (2, "source", 2, 0), (3, "relay", 1, 0),
         (4, "destination", 1, -1)],
        radio={"packet_bits": 1, "noise_power_w": 0.01},
    )
    crowded = rate_matrix(two_feeders, [[0.0, 0.1]], [[1.0, 0.0], [1.0, 0.0]])
    return {
        "layout": (spec, rate_matrix(wide, [[0.0, 0.4]], [[1.0, 0.0]]), X, SchemaError),
        "roles": (spec, tau, ForwardingMatrix(by_destination), ModelViolationError),
        "flow": (spec, overdrawn, ForwardingMatrix.zeros(3, 2), FlowConservationError),
        "half duplex": (two_feeders, crowded, ForwardingMatrix.zeros(4, 2), HalfDuplexError),
        "consistency": (spec, tau, ForwardingMatrix.zeros(3, 2), InconsistentForwardingError),
        "roles and flow": (
            spec, overdrawn, ForwardingMatrix(by_destination), ModelViolationError
        ),
    }


@pytest.mark.parametrize(
    "case", ["layout", "roles", "flow", "half duplex", "consistency", "roles and flow"]
)
def test_gate_failures_agree_across_callers(case):
    """``check_strategy``, ``evaluate`` and ``simulate`` raise the same first
    failure, and CLI ``evaluate`` and ``oracle`` print it identically. The
    CLI cannot be handed a layout mismatch: its readers shape-check."""
    spec, tau, X, error = _gate_failures()[case]
    raised = []
    for call in (
        lambda: check_strategy(tau, spec, None, X),
        lambda: evaluate(tau, X, spec),
        lambda: simulate(tau, X, spec, SimConfig(n_packets=100, seed=0)),
    ):
        with pytest.raises(error) as info:
            call()
        raised.append((type(info.value), str(info.value)))
    assert raised == [(error, raised[0][1])] * 3
    if error is SchemaError:
        return
    docs = {
        "topology": serialize_network(spec),
        "tau": tau.to_json_dict(),
        "x": X.to_json_dict(),
    }
    expected = (2, [f"infeasible: {raised[0][1]}"])
    assert _run_on_documents("evaluate", docs) == expected
    assert _run_on_documents("oracle", docs, "--packets", "100") == expected


# The message each case of ``_gate_failures`` raises, and the failing keys
# of every gate report on it (none for a layout mismatch, where the gates
# cannot run).
GATE_VERDICTS = {
    "layout": ("rate matrix layout does not match the network", None),
    "roles": (
        "forwarding entries must be zero when the forwarder is a source or a "
        "destination",
        {"roles": [3], "flow": [], "half duplex": [], "consistency": []},
    ),
    "flow": (
        "flow conservation fails: relays [2] transmit more than they receive",
        {"roles": [], "flow": [2], "half duplex": [], "consistency": [(2, 2)]},
    ),
    "half duplex": (
        "half-duplex constraint fails at (node, slot) [(3, 1)]",
        {"roles": [], "flow": [], "half duplex": [(3, 1)], "consistency": [(3, 2)]},
    ),
    "consistency": (
        "forwarding matrix violates the rate-coupling constraint at (node 2, "
        "slot 2): residual -4.000e-01 exceeds 1.0e-09",
        {"roles": [], "flow": [], "half duplex": [], "consistency": [(2, 2)]},
    ),
    "roles and flow": (
        "forwarding entries must be zero when the forwarder is a source or a "
        "destination",
        {"roles": [3], "flow": [2], "half duplex": [], "consistency": [(2, 2)]},
    ),
}


@pytest.mark.parametrize("case", list(GATE_VERDICTS))
def test_gate_messages_and_failures_are_pinned(case):
    spec, tau, X, error = _gate_failures()[case]
    message, failures = GATE_VERDICTS[case]
    with pytest.raises(error) as info:
        check_strategy(tau, spec, None, X)
    assert str(info.value) == message
    if failures is None:
        return
    P = channel_matrix(tau, spec)
    reports = {
        "roles": check_forwarder_roles(X, tau),
        "flow": check_flow_conservation(tau, P),
        "half duplex": check_half_duplex(tau, P),
        "consistency": consistency_residuals(X, tau, P),
    }
    assert {name: report.failures() for name, report in reports.items()} == failures


def test_evaluate_refuses_received_power_past_the_float_range():
    docs = _strategy_documents()
    del docs["sources"]
    docs["topology"]["radio"].update(tx_power_w=1e308, reference_gain=1e308)
    assert _run_on_documents("evaluate", docs) == (
        1, ["error: tx_power_w * reference_gain must be finite"]
    )


def test_evaluate_refuses_an_interferer_sum_past_the_float_range(tmp_path):
    """At 1e308 W, relays 3 and 4 reach the destination and relay 2 with a
    gain near 1, so their summed power there is past the float range: the
    network is refused with one line. Before, evaluate exited 0 on this
    strategy, with two numpy warnings and f taken from SINR-0 terms where
    that sum overflowed to inf. X is a feasible draw for that channel."""
    nodes = [("source", 0.0, 0.0), ("relay", 2.0, 0.3), ("relay", 2.0, -0.3),
             ("relay", 2.5, 0.0), ("destination", 3.0, 0.0)]
    x = [(1, 2, 1, 0.006266301891583002), (1, 3, 1, 0.0010158877531148878),
         (1, 4, 1, 0.0005281780564296242), (2, 3, 2, 0.10025104125529784),
         (2, 4, 2, 0.7280634735975792), (3, 2, 2, 0.14666028303316453),
         (3, 4, 2, 0.2388865526532886), (4, 2, 2, 0.240682896759608),
         (4, 3, 2, 0.8174355171089058)]
    docs = {
        "topology": {
            "nodes": [{"id": k, "role": role, "x": a, "y": b}
                      for k, (role, a, b) in enumerate(nodes, 1)],
            "radio": {**DEFAULT_RADIO, "tx_power_w": 1e308},
            "frame": {"slots": 2},
        },
        "tau": {"tau": [[0.0, 0.01]] * 3, "sources": [[1.0, 0.0]]},
        "x": {"entries": [{"i": i, "j": j, "u": u, "v": 2, "x": value}
                          for i, j, u, value in x]},
    }
    paths = []
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
    src = str(Path(pareto_relay.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pareto_relay", "evaluate", *paths],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: noise_power_w plus the power of every other transmitter at "
        "node 2 must be finite"
    ]


# Text for one oracle flag: small and huge integers of either sign, floats
# with nan and inf, and short arbitrary strings.
FLAG_TEXT = (
    st.integers(-3, 3).map(str)
    | st.integers(-(10**20), 10**20).map(str)
    | st.floats().map(repr)
    | st.text(max_size=3)
)
# The same for --packets, with its integers kept small: a larger valid count
# only makes the run longer.
ORACLE_FLAGS = st.tuples(
    st.sampled_from(["--seed", "--max-epochs", "--confidence"]), FLAG_TEXT
) | st.tuples(
    st.just("--packets"),
    st.integers(-3, 3000).map(str) | st.floats().map(repr) | st.text(max_size=3),
)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=50, deadline=None)
@given(
    field=st.none() | st.sampled_from(FUZZ_FIELDS),
    value=JSON_VALUES,
    flag_and_text=ORACLE_FLAGS,
)
# one trial, whose standard error would be infinite; the fewest trials that
# run; every relay copy truncated
@example(field=None, value=None, flag_and_text=("--packets", "1"))
@example(field=None, value=None, flag_and_text=("--packets", "2"))
@example(field=None, value=None, flag_and_text=("--max-epochs", "1"))
def test_oracle_exit_code_contract(field, value, flag_and_text):
    """Whatever one field of the inputs (or none) and one of the oracle's
    own flags hold, oracle exits 0, 1 or 2. On success it prints valid
    JSON, with no NaN or infinity; on failure exactly one
    error:/infeasible: line, last, after at most argparse's usage text."""
    out = io.StringIO()
    code, lines = _run_on_documents(
        "oracle", _fuzzed_documents(field, value), "--packets", "200", *flag_and_text, out=out
    )
    assert code in (0, 1, 2)
    if code:
        verdicts = [line for line in lines if line.startswith(("error:", "infeasible:"))]
        assert verdicts == lines[-1:], lines
        assert len(lines) == 1 or lines[0].startswith("usage:"), lines
    else:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


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
