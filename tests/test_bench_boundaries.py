"""The traced benchmark rebinds module attributes listed in
``bench/spans.py``; every one must exist on the package, or ``--trace 1``
and ``bench/smoke.py`` break."""

import importlib.util
from pathlib import Path

import pareto_relay

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_bench_boundaries_resolve_on_package():
    missing = []
    for path, attr, _, _ in _boundaries():
        target = pareto_relay
        for part in path.split("."):
            target = getattr(target, part, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{path}.{attr}")
    assert not missing, f"bench/spans.py names missing from the package: {missing}"
