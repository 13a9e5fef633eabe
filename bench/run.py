#!/usr/bin/env python3
"""Benchmark of the pareto-relay CLI: search, evaluate and oracle.

Run from the root of a checkout:

    python3 bench/run.py --workload search-interference --seed 0 --seconds 30 --trace 0

One process, one caller, closed loop: the benchmark calls
``pareto_relay.cli.main`` in-process and issues the next call only after
the previous one returned. Inputs are generated from ``--seed``; every call
passes ``--threads`` explicitly. With ``--trace 0`` the last line of stdout
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run at ``--threads 1``. Every output is checked;
``failed`` counts the calls whose output failed a check. ``--workload all``
runs the three workloads one after another, each in its own process, and
prints the figures named in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("search-interference", "evaluate-wide", "oracle-fixtures")
THREADS = (1, 2)
DEFAULT_SEED = 0  # outputs of this seed are pinned by bench/digests.json
SETUP_REPS = 5
EVAL_UNIT = 10  # evaluate calls per traced unit, and per pinned digest
EVAL_2T_EVERY = 5  # every fifth evaluate call passes --threads 2
REF_REPS = 3  # reference-kernel runs on each side of a call
REL_TOL = 1e-9  # front.csv carries 12 significant digits
SENSES = (1.0, -1.0, -1.0)  # f_c is maximised, f_d and f_e minimised


# Shared hosts slow a core down by up to 2x for seconds to minutes. Each
# call is bracketed by a fixed reference kernel of a few ms, and a call
# counts its wall time over the mean reference time around it. Each
# workload uses the kernel whose slowdown matches its own (README.md).
def reference_loop() -> float:
    """Time of a pure-Python arithmetic loop."""
    start = time.perf_counter()
    x = 0
    for i in range(50_000):
        x += i * i
    return time.perf_counter() - start


def reference_numpy() -> float:
    """Time of many small-array numpy calls."""
    import numpy as np

    start = time.perf_counter()
    step = np.arange(32.0)
    v = np.zeros(1)
    for i in range(800):
        v = np.concatenate([v[:32], v[:32] + step[i % 32]])
        float(np.dot(v, v))
    return time.perf_counter() - start


def reference_mixed() -> float:
    """Geometric mean of the two kernels, for a workload that spends its
    time in both kinds of code."""
    return math.sqrt(reference_loop() * reference_numpy())


class Bench:
    """Shared state of one run: the package, the work directory and the
    correctness tally."""

    def __init__(self, package, main, args):
        self.package = package
        self.main = main
        self.seed = args.seed
        self.size = args.size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.pinned = json.loads((BENCH / "digests.json").read_text()).get(args.size, {})
        self.reference = reference_loop
        self.files_written = 0
        self.bytes_written = 0
        self.work = WORK / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def call(self, argv: list[str], tracer=None) -> tuple[object, float]:
        """One CLI call; returns its exit code (or the exception) and wall
        time, and leaves the reference time around it in ``last_ref``."""
        self.attempted += 1
        before = self.reference_time()
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    with tracer.root(self.attempted):
                        code = self.main(argv)
            except Exception as exc:  # a traceback is a failed call, not a crash
                code = exc
            elapsed = time.perf_counter() - start
        self.last_ref = (before + self.reference_time()) / 2
        if code != 0:
            self.fail(f"{argv[0]} exited {code!r}: {err.getvalue().strip()[:300]}")
        return code, elapsed

    def reference_time(self) -> float:
        """Median of a few reference-kernel runs, so that one interrupted
        run does not skew the call it brackets."""
        return statistics.median(self.reference() for _ in range(REF_REPS))

    def wrote(self, paths) -> None:
        for path in paths:
            self.files_written += 1
            self.bytes_written += path.stat().st_size

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def pin(self, key: str, digest: str) -> None:
        """Outputs of the default seed must match the stored digests."""
        self.digests[key] = digest
        if self.seed == DEFAULT_SEED and self.pinned.get(key) != digest:
            self.fail(f"{key} digest {digest} differs from the stored one")

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def digest_texts(texts) -> str:
    return hashlib.sha256("".join(t or "" for t in texts).encode()).hexdigest()


def output_files(directory: Path) -> list[Path]:
    """Files a call wrote, minus its manifest (which records wall time)."""
    return sorted(p for p in directory.iterdir() if not p.name.endswith("manifest.json"))


def same_bytes(a: list[Path], b: list[Path]) -> bool:
    return [p.name for p in a] == [p.name for p in b] and all(
        x.read_bytes() == y.read_bytes() for x, y in zip(a, b)
    )


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


class Workload:
    """Call times per thread count, in seconds and in reference-kernel times;
    one unit of work is one CLI call."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.times = {t: [] for t in THREADS}
        self.refs = {t: [] for t in THREADS}

    def record(self, threads: int, elapsed: float) -> None:
        self.times[threads].append(elapsed)
        self.refs[threads].append(elapsed / self.bench.last_ref)

    def p50(self, series: dict, threads: int) -> float:
        return statistics.median(series[threads])


class SearchInterference(Workload):
    """`search` on the 5-node line-and-fork network, at 1 and 2 threads."""

    name = "search-interference"

    def __init__(self, bench: Bench):
        from workloads import SEARCH_SIZES

        super().__init__(bench)
        bench.reference = reference_mixed
        self.params = SEARCH_SIZES[bench.size]
        # front.csv and the x files carry 12 significant digits, so the
        # dominance check needs the exact criteria the archive compared:
        # keep the result `search` gets back.
        cli = bench.package.cli
        exhaustive_search = cli.exhaustive_search

        def keep(*args, **kwargs):
            self.kept = exhaustive_search(*args, **kwargs)
            return self.kept

        cli.exhaustive_search = keep

    def setup(self, d: Path) -> None:
        from workloads import SEARCH_NODES, SEARCH_SLOTS, SEARCH_WARMUP, topology_doc, write_json

        self.topo = write_json(d / "topo.json", topology_doc(SEARCH_NODES, SEARCH_SLOTS))
        self.spec = self.bench.package.load_network(self.topo.read_text())
        code, _ = self.bench.call(self._argv(SEARCH_WARMUP, 0, 1, d / "warmup"))
        if code != 0:
            raise RuntimeError("warm-up search failed")

    def _argv(self, params, seed, threads, out):
        return [
            "search", "--topology", self.topo, "--grid", params["grid"],
            "--n-max", params["n_max"], "--x-samples", params["x_samples"],
            "--seed", seed, "--threads", threads, "--output-dir", out,
        ]

    def search(self, k: int, threads: int, tracer=None) -> tuple[Path | None, dict, float]:
        """One search; returns its output directory, the exact criteria of
        its front by solution id, and its wall time."""
        out = self.bench.fresh_dir(f"search-{k}-{threads}")
        self.kept = None
        code, elapsed = self.bench.call(
            self._argv(self.params, self.bench.seed * 1000 + k, threads, out), tracer
        )
        if code != 0:
            return None, {}, elapsed
        self.bench.wrote(p for p in out.iterdir())
        return out, {m.solution_id: m.criteria for m in self.kept.archive.members}, elapsed

    def check(self, out: Path | None, front: dict, k: int) -> None:
        """front.csv lists the archive; every member passes the gates and
        re-evaluates to its row; no member dominates another."""
        if out is None:
            return
        pkg = self.bench.package
        with open(out / "front.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if sorted(r["solution_id"] for r in rows) != sorted(front):
            self.bench.fail(f"search {k}: front.csv does not list the archive")
            return
        for r in rows:
            tau = pkg.RateMatrix.from_json(self.spec, (out / r["tau_path"]).read_text())
            X = pkg.ForwardingMatrix.from_json(
                (out / r["x_path"]).read_text(), self.spec.n_nodes, self.spec.slot_count
            )
            P = pkg.channel_matrix(tau, self.spec)
            if not (pkg.check_flow_conservation(tau, P).all_ok
                    and pkg.check_half_duplex(tau, P).all_ok):
                self.bench.fail(f"search {k}: {r['solution_id']} fails a gate")
                return
            c = pkg.evaluate(tau, X, self.spec, channel=P)
            if not all(close(getattr(c, f), float(r[f])) for f in ("f", "f_c", "f_d", "f_e")):
                self.bench.fail(f"search {k}: {r['solution_id']} re-evaluates to {c}")
                return
        # Pareto dominance on the exact criteria, oriented so that larger is
        # better: no objective worse and at least one better.
        points = [
            (sid, [sign * v for sign, v in zip(SENSES, (c.f_c, c.f_d, c.f_e))])
            for sid, c in front.items()
        ]
        for id_a, a in points:
            for id_b, b in points:
                if all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b)):
                    self.bench.fail(f"search {k}: front member {id_a} dominates {id_b}")
                    return
        if k == 0:
            self.bench.pin(self.name, digest_files(output_files(out)))

    def measure(self, deadline: float) -> None:
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            outs, fronts = {}, {}
            for t in THREADS if k % 2 == 0 else THREADS[::-1]:
                outs[t], fronts[t], elapsed = self.search(k, t)
                self.record(t, elapsed)
            self.check(outs[1], fronts[1], k)
            if outs[1] and outs[2] and not same_bytes(output_files(outs[1]), output_files(outs[2])):
                self.bench.fail(f"search {k}: output differs between 1 and 2 threads")
            for out in outs.values():
                if out is not None:
                    shutil.rmtree(out)
            k += 1

    def unit(self, tracer) -> float:
        out, front, elapsed = self.search(0, 1, tracer)
        self.check(out, front, 0)
        return elapsed

    def named(self) -> dict:
        return {
            "search_s": (self.p50(self.times, 1), "s", len(self.times[1])),
            "search_2t_s": (self.p50(self.times, 2), "s", len(self.times[2])),
        }


class EvaluateWide(Workload):
    """`evaluate` on seeded strategies over a 14-node, 12-relay network."""

    name = "evaluate-wide"
    WARMUP_K = 10**9

    def __init__(self, bench: Bench):
        from workloads import WIDE_SIZES, WIDE_SLOTS, topology_doc, wide_nodes

        super().__init__(bench)
        bench.reference = reference_numpy
        self.topo_doc = topology_doc(wide_nodes(bench.seed, WIDE_SIZES[bench.size]), WIDE_SLOTS)
        self.spec = bench.package.load_network(self.topo_doc)
        self.unit_files = None

    def setup(self, d: Path) -> None:
        from workloads import write_json

        self.d = d
        self.topo = write_json(d / "topo.json", self.topo_doc)
        text, _ = self.evaluate(self.WARMUP_K, 1)
        if text is None:
            raise RuntimeError("warm-up evaluate failed")

    def strategy(self, k: int) -> tuple[Path, Path]:
        from workloads import wide_strategy, write_strategy

        docs = wide_strategy(self.bench.package, self.spec, self.bench.seed, k)
        return write_strategy(self.d, f"s{k}", docs)

    def evaluate(self, k: int, threads: int, tracer=None, files=None):
        tau, x = files or self.strategy(k)
        out = self.d / "out.json"
        code, elapsed = self.bench.call(
            ["evaluate", "--topology", self.topo, "--tau", tau, "--x", x,
             "--threads", threads, "--output", out],
            tracer,
        )
        if files is None:
            tau.unlink()
            x.unlink()
        if code != 0:
            return None, elapsed
        self.bench.wrote([out, out.with_suffix(".json.manifest.json")])
        return out.read_text(), elapsed

    def check(self, text: str | None, k: int) -> None:
        if text is None:
            return
        c = json.loads(text)
        values = [c[key] for key in ("f", "f_c", "f_d", "f_e")]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            self.bench.fail(f"evaluate {k}: non-finite criteria {c}")
        elif c["f_c"] != min(1.0, c["f"]):
            self.bench.fail(f"evaluate {k}: f_c {c['f_c']} != min(1, f={c['f']})")

    def measure(self, deadline: float) -> None:
        k = 0
        texts = []
        while k < EVAL_UNIT or time.perf_counter() < deadline:
            threads = 2 if k % EVAL_2T_EVERY == EVAL_2T_EVERY - 1 else 1
            text, elapsed = self.evaluate(k, threads)
            self.record(threads, elapsed)
            self.check(text, k)
            if k < EVAL_UNIT:
                texts.append(text)
            k += 1
        self.bench.pin(self.name, digest_texts(texts))

    def unit(self, tracer) -> float:
        if self.unit_files is None:
            self.unit_files = [self.strategy(k) for k in range(EVAL_UNIT)]
        total, texts = 0.0, []
        for k, files in enumerate(self.unit_files):
            text, elapsed = self.evaluate(k, 1, tracer, files)
            self.check(text, k)
            texts.append(text)
            total += elapsed
        self.bench.pin(self.name, digest_texts(texts))
        return total

    def named(self) -> dict:
        ms = sorted(1000 * t for t in self.times[1])
        return {
            "evaluate_p50_ms": (statistics.median(ms), "ms", len(ms)),
            "evaluate_p95_ms": (statistics.quantiles(ms, n=20)[18], "ms", len(ms)),
        }


class OracleFixtures(Workload):
    """`oracle` on the five criterion-6 fixtures, at 1 and 2 threads; one
    unit of work is a sweep over the five."""

    name = "oracle-fixtures"

    def __init__(self, bench: Bench):
        from workloads import ORACLE_FIXTURES, ORACLE_PACKETS

        super().__init__(bench)
        self.packets = ORACLE_PACKETS[bench.size]
        self.n = len(ORACLE_FIXTURES)
        self.times = {t: [[] for _ in range(self.n)] for t in THREADS}
        self.refs = {t: [[] for _ in range(self.n)] for t in THREADS}

    def setup(self, d: Path) -> None:
        from workloads import ORACLE_WARMUP_PACKETS, fixture_strategy, write_json, write_strategy

        pkg = self.bench.package
        self.d = d
        self.files = []
        self.analytic = []
        for k in range(self.n):
            topo_doc, docs = fixture_strategy(pkg, k)
            topo = write_json(d / f"f{k}_topo.json", topo_doc)
            tau, x = write_strategy(d, f"f{k}", docs)
            self.files.append((topo, tau, x))
            spec = pkg.load_network(topo.read_text())
            self.analytic.append(
                pkg.evaluate(
                    pkg.RateMatrix.from_json(spec, tau.read_text()),
                    pkg.ForwardingMatrix.from_json(x.read_text(), spec.n_nodes, spec.slot_count),
                    spec,
                )
            )
        text, _ = self.oracle(0, 0, 1, ORACLE_WARMUP_PACKETS, d / "warmup.json")
        if text is None:
            raise RuntimeError("warm-up oracle failed")

    def oracle(self, k, seed, threads, packets, out, tracer=None):
        from workloads import ORACLE_CONFIDENCE

        topo, tau, x = self.files[k]
        code, elapsed = self.bench.call(
            ["oracle", "--topology", topo, "--tau", tau, "--x", x,
             "--packets", packets, "--seed", seed, "--threads", threads,
             "--confidence", ORACLE_CONFIDENCE, "--output", out],
            tracer,
        )
        if code != 0:
            return None, elapsed
        self.bench.wrote([out, out.with_suffix(".json.manifest.json")])
        return out.read_text(), elapsed

    def sweep(self, p: int, threads: int, tracer=None) -> tuple[list[str | None], float]:
        texts, total = [], 0.0
        for k in range(self.n):
            out = self.d / f"o{k}_{threads}.json"
            text, elapsed = self.oracle(
                k, self.bench.seed * 1000 + p, threads, self.packets, out, tracer
            )
            self.times[threads][k].append(elapsed)
            self.refs[threads][k].append(elapsed / self.bench.last_ref)
            self.check(text, k, p)
            texts.append(text)
            total += elapsed
        return texts, total

    def check(self, text: str | None, k: int, p: int) -> None:
        if text is None:
            return
        est = json.loads(text)
        a = self.analytic[k]
        for key, value in (("f", a.f), ("f_d", a.f_d), ("f_e", a.f_e)):
            if not est[key]["ci_low"] <= value <= est[key]["ci_high"]:
                self.bench.fail(f"oracle {p}/{k}: analytic {key}={value} outside {est[key]}")

    def measure(self, deadline: float) -> None:
        p = 0
        while p == 0 or time.perf_counter() < deadline:
            texts = {t: self.sweep(p, t)[0] for t in (THREADS if p % 2 == 0 else THREADS[::-1])}
            for k, (a, b) in enumerate(zip(texts[1], texts[2])):
                if a is not None and b is not None and a != b:
                    self.bench.fail(f"oracle {p}/{k}: output differs between 1 and 2 threads")
            if p == 0:
                self.bench.pin(self.name, digest_texts(texts[1]))
            p += 1

    def unit(self, tracer) -> float:
        texts, total = self.sweep(0, 1, tracer)
        self.bench.pin(self.name, digest_texts(texts))
        return total

    def named(self) -> dict:
        mpkt = self.n * self.packets / 1e6
        return {
            "oracle_mpkt_per_s": (mpkt / self.p50(self.times, 1), "Mpkt/s", len(self.times[1][0])),
            "oracle_2t_mpkt_per_s": (mpkt / self.p50(self.times, 2), "Mpkt/s", len(self.times[2][0])),
        }

    def p50(self, series: dict, threads: int) -> float:
        # One unit is a sweep over the five fixtures: the sum of each
        # fixture's median call time.
        return sum(statistics.median(ts) for ts in series[threads])


CLASSES = dict(zip(WORKLOADS, (SearchInterference, EvaluateWide, OracleFixtures)))


def traced_run(bench: Bench, workload, deadline: float) -> dict[str, float]:
    """Alternate traced and untraced units at --threads 1 until the deadline;
    per-layer figures are medians over the traced units."""
    from spans import Tracer, layer_metrics

    tracer = Tracer(bench.package)
    per_unit: list[dict[str, float]] = []
    untraced: list[float] = []
    while not per_unit or time.perf_counter() < deadline:
        first, first_obs, calls = len(tracer.spans), len(tracer.observed), bench.attempted
        files, size = bench.files_written, bench.bytes_written
        tracer.install()
        try:
            wall = workload.unit(tracer)
        finally:
            tracer.uninstall()
        m = layer_metrics(
            tracer, first, len(tracer.spans), first_obs, len(tracer.observed),
            bench.attempted - calls,
        )
        m["trace.wall_s"] = wall
        m["trace.self_sum_share"] = m.pop("trace.self_sum_s") / wall
        m["trace.uncovered_share"] = m["cli.self_s"] / wall
        m["cli.files_written"] = bench.files_written - files
        m["cli.bytes_written"] = bench.bytes_written - size
        per_unit.append(m)
        untraced.append(workload.unit(None))
    tracer.write(bench.work.parent / f"trace-{bench.work.name}.json")
    metrics = {key: statistics.median(m[key] for m in per_unit) for key in per_unit[0]}
    metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(untraced)
    metrics["trace.units"] = len(per_unit)
    return metrics


def provenance(args) -> dict:
    import numpy
    import scipy

    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind = read(base + "level").strip(), read(base + "type").strip()
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read(base + "size").strip()
    head = read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        head = read(str(ROOT / ".git" / head[5:])).strip() or head
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": head or "unknown (not a git checkout)",
        "seed": args.seed,
        "threads": list(THREADS) if not args.trace else [1],
        "size": args.size,
        "load": (
            "closed loop: one process, one caller; each CLI call runs with "
            f"--threads 1 or 2 (at most nproc={os.cpu_count()} worker threads) "
            "next to the BLAS library's own thread pool"
        ),
    }


def import_seconds(src: Path) -> float:
    """Median time to import the CLI in a fresh interpreter, as every
    command-line user pays it."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import pareto_relay.cli; print(time.perf_counter() - t)"
    )
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                             text=True, check=True, cwd=ROOT).stdout)
        for _ in range(SETUP_REPS)
    )


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "pareto_relay" / "cli.py").is_file():
        sys.stderr.write(f"error: no pareto_relay sources under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    import pareto_relay
    import pareto_relay.cli

    if Path(pareto_relay.__file__).resolve().parent != (src / "pareto_relay").resolve():
        sys.stderr.write(f"error: imported pareto_relay from {pareto_relay.__file__}\n")
        return 2
    import_s = import_seconds(src)

    bench = Bench(pareto_relay, pareto_relay.cli.main, args)
    workload = CLASSES[args.workload](bench)
    setup = []
    for rep in range(SETUP_REPS):
        d = bench.fresh_dir(f"setup{rep}")
        t0 = time.perf_counter()
        workload.setup(d)
        setup.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup)

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        from spans import UNITS

        metrics = traced_run(bench, workload, deadline)
        units = UNITS
        named = {}
    else:
        workload.measure(deadline)
        metrics = {
            "setup_s": setup_s,
            "p50_ref": workload.p50(workload.refs, 1),
            "p50_2t_ref": workload.p50(workload.refs, 2),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "p50_ref": "ref", "p50_2t_ref": "ref", "peak_rss_mb": "MB"}
        named = {
            name: {"value": v, "unit": u, "samples": n}
            for name, (v, u, n) in workload.named().items()
        }
        named["error_rate"] = {"value": bench.failed / bench.attempted, "unit": "share",
                               "samples": bench.attempted}
        named["peak_rss_mb"] = {"value": metrics["peak_rss_mb"], "unit": "MB", "samples": 1}
        named["setup_s"] = {"value": setup_s, "unit": "s", "samples": SETUP_REPS}

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "provenance": provenance(args),
        "named": named,
        "digests": bench.digests,
        "problems": bench.problems,
        "call_times_s": workload.times,
        "call_refs": workload.refs,
        "setup_parts_s": {"import": import_s, "reps": setup},
        **result,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    shutil.rmtree(bench.work, ignore_errors=True)
    for problem in bench.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print("# provenance " + json.dumps(record["provenance"]))
    print("# digests " + json.dumps(bench.digests))
    for name, m in named.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    if named:
        print("# named " + json.dumps(named))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    named, attempted, failed = {}, 0, 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0", "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(f"error: {workload} exited {proc.returncode}\n")
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for line in lines[:-1]:
            if line.startswith("# named "):
                for name, m in json.loads(line[len("# named "):]).items():
                    if name in ("setup_s", "peak_rss_mb", "error_rate"):
                        name = f"{workload}.{name}"
                    named[name] = m
            else:
                print(line)
    named["error_rate"] = {"value": failed / attempted, "unit": "share", "samples": attempted}
    named["peak_rss_mb"] = {
        "value": max(m["value"] for k, m in named.items() if k.endswith(".peak_rss_mb")),
        "unit": "MB", "samples": len(WORKLOADS),
    }
    named["setup_s"] = {
        "value": sum(m["value"] for k, m in named.items() if k.endswith(".setup_s")),
        "unit": "s", "samples": len(WORKLOADS),
    }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in named.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    WORK.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
