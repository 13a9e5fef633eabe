"""The benchmark reaches into the package from outside: ``bench/spans.py``
rebinds the module attributes it lists in ``BOUNDARIES``, and it and
``bench/workloads.py`` read more names while they build inputs and count
workload properties. Every one must exist on the package, or ``--trace 1``
and ``bench/smoke.py`` break."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pareto_relay
from pareto_relay.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_boundaries_resolve_on_package():
    missing = []
    for path, attr, _, _ in _load("spans").BOUNDARIES:
        target = pareto_relay
        for part in path.split("."):
            target = getattr(target, part, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{path}.{attr}")
    assert not missing, f"bench/spans.py names missing from the package: {missing}"


def test_bench_inputs_and_workload_properties_run_on_package(tmp_path):
    # The oracle fixtures go through the benchmark's input builders, and a
    # traced full-size bench search through its property counts, which walk
    # every multi-feeder constraint of every sampled forwarding matrix.
    spans, workloads = _load("spans"), _load("workloads")
    for k in range(len(workloads.ORACLE_FIXTURES)):
        workloads.fixture_strategy(pareto_relay, k)
    topology = tmp_path / "topology.json"
    topology.write_text(
        json.dumps(workloads.topology_doc(workloads.SEARCH_NODES, workloads.SEARCH_SLOTS))
    )
    params = workloads.SEARCH_SIZES["full"]
    argv = [
        "search", "--topology", str(topology), "--grid", params["grid"],
        "--n-max", str(params["n_max"]), "--x-samples", str(params["x_samples"]),
        "--seed", "0", "--output-dir", str(tmp_path / "out"),
    ]
    tracer = spans.Tracer(pareto_relay)
    tracer.install()
    try:
        with tracer.root(0), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    props = spans.workload_properties(tracer.observed, pareto_relay)
    assert props["multi_feeder_constraints"] > 0
