#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the root of a checkout:

    python3 bench/smoke.py

It runs every workload untraced and traced, and asserts that each run
prints exactly the metrics BENCHMARK.json names, each with its unit, and
passes every output check. ``--workload all`` must print the nine named
figures of bench/README.md with their units. A stored digest that no
longer matches must drive ``error_rate`` above 0, and without the program's
sources the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
TINY = ["--seed", "0", "--seconds", "1", "--size", "tiny"]
NAMED = {
    "setup_s": "s",
    "search_s": "s",
    "search_2t_s": "s",
    "evaluate_p50_ms": "ms",
    "evaluate_p95_ms": "ms",
    "oracle_mpkt_per_s": "Mpkt/s",
    "oracle_2t_mpkt_per_s": "Mpkt/s",
    "error_rate": "share",
    "peak_rss_mb": "MB",
}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def result(*args: str, cwd: Path = ROOT) -> dict:
    proc = run(*args, cwd=cwd)
    assert proc.returncode == 0, f"{args} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            r = result("--workload", workload, "--trace", trace, *TINY)
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
            units = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            assert got == units, f"{workload} --trace {trace}: {got} != {units}"
            print(f"smoke: {workload} --trace {trace}: {len(got)} metrics, correct")

    r = result("--workload", "all", *TINY)
    for name, unit in NAMED.items():
        assert r["metrics"][name]["unit"] == unit, (name, r["metrics"].get(name))
    assert r["metrics"]["error_rate"]["value"] == 0, r
    print("smoke: --workload all prints the nine named figures, error_rate 0")

    # A copy of the benchmark whose stored digests are zeroed, run on the
    # real sources through a link.
    corrupt = copy_bench("smoke-corrupt")
    stored = json.loads((BENCH / "digests.json").read_text())
    zeroed = {
        size: {w: "0" * len(d) for w, d in pinned.items()} for size, pinned in stored.items()
    }
    (corrupt / "bench" / "digests.json").write_text(json.dumps(zeroed))
    (corrupt / "src").symlink_to(ROOT / "src", target_is_directory=True)
    r = result("--workload", "all", *TINY, cwd=corrupt)
    shutil.rmtree(corrupt)
    assert r["metrics"]["error_rate"]["value"] > 0, r
    print(f"smoke: corrupted digests give error_rate {r['metrics']['error_rate']['value']:.3g}")

    bare = copy_bench("smoke-bare")
    proc = run("--workload", "search-interference", "--trace", "0", *TINY, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("smoke: without the sources the benchmark exits", proc.returncode)
    return 0


def copy_bench(name: str) -> Path:
    """A directory holding only BENCHMARK.json and a copy of bench/."""
    root = WORK / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


if __name__ == "__main__":
    sys.exit(main())
