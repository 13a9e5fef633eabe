"""Command-line front end: evaluate, search, oracle.

Exit codes: 0 success, 1 usage or runtime error, 2 infeasible input
(rate/forwarding constraints violated or divergent flow system). The
result files of ``--output`` and ``--output-dir`` are accompanied by a run
manifest recording tool version, Python, numpy and scipy versions, input
digests, seeds, flags, and wall time; the ``--dump-channels`` file is not.
Numeric output carries 12 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import channel_matrix
from .errors import InfeasibleError, ParetoRelayError, SchemaError
from .forwarding import ForwardingMatrix
from .mc_oracle import SimConfig, _log_q, simulate
from .pareto import ObjectiveSense, PruneThresholds, exhaustive_search
from .rates import DEFAULT_TOLERANCE, RateGrid, RateMatrix
from .steady_state import evaluate
from .topology import load_network, read_object, require_rows


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for infeasible inputs, so usage problems become exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round_floats(obj):
    """Round every float in a JSON-like structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_round_floats(payload), indent=2) + "\n"


# The flags of open(path, "rb") and open(path, "wb"): files are read and
# written whole through raw descriptors, without buffered-io objects.
_OPEN_FLAGS = os.O_CLOEXEC | getattr(os, "O_BINARY", 0)
_READ_FLAGS = os.O_RDONLY | _OPEN_FLAGS
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _OPEN_FLAGS


def _read(path, digests: dict[str, str]) -> bytes:
    """The bytes of an input file, read once; their sha256 goes into
    ``digests`` under the path, so a manifest names the content the run
    parsed even when the file changes while the run goes on."""
    name = str(Path(path))
    fd = os.open(name, _READ_FLAGS)
    try:
        data = b"".join(iter(functools.partial(os.read, fd, 1 << 16), b""))
    except IsADirectoryError as exc:  # open() names the path; a bare read does not
        raise IsADirectoryError(exc.errno, exc.strerror, name) from None
    finally:
        os.close(fd)
    digests[name] = hashlib.sha256(data).hexdigest()
    return data


def finite(text: str) -> float:
    """argparse type: a finite float ("invalid finite value" otherwise)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def nonnegative_finite(text: str) -> float:
    value = finite(text)
    if value < 0:
        raise ValueError(text)
    return value


def nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, such as a seed."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _manifest(
    subcommand: str, args: argparse.Namespace, digests: dict[str, str], wall: float
) -> dict:
    flags = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and v is not None
    }
    manifest = {
        "tool": "pareto-relay",
        "version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "subcommand": subcommand,
        "flags": flags,
        "inputs": digests,
        "wall_time_s": wall,
    }
    if subcommand == "oracle":
        # how the oracle reproduces numpy's binomial P(X = 0); None when it
        # leaves every draw to Generator.binomial
        manifest["binomial_log_rule"] = _log_q()
    return manifest


def _write(path, text: str) -> None:
    """Write ``text`` (ASCII JSON or CSV) to ``path`` in one unbuffered
    write, truncating an existing file; a new file gets mode 0o666 less the
    umask."""
    data = text.encode()
    fd = os.open(Path(path), _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write_manifest(path: Path, manifest: dict) -> None:
    _write(path, json.dumps(manifest, indent=2) + "\n")


def _load_strategy(args, digests: dict[str, str]):
    """The evaluate/oracle inputs and the channel they induce (dumped on request)."""
    spec = load_network(_read(args.topology, digests))
    tau = RateMatrix.from_json(spec, _read(args.tau, digests))
    X = ForwardingMatrix.from_json(_read(args.x, digests), spec.n_nodes, spec.slot_count)
    channel = channel_matrix(tau, spec)
    if args.dump_channels:
        _write(args.dump_channels, _dump_json(channel.to_json_dict()))
    return spec, tau, X, channel


def _write_result(subcommand: str, args, payload: dict, digests: dict, started: float) -> int:
    """Print an evaluate/oracle result; with --output also write it and its manifest."""
    text = _dump_json(payload)
    sys.stdout.write(text)
    if args.output:
        out = Path(args.output)
        _write(out, text)
        manifest = _manifest(subcommand, args, digests, time.perf_counter() - started)
        _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    return 0


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    digests = {}
    spec, tau, X, channel = _load_strategy(args, digests)
    criteria = evaluate(tau, X, spec, channel=channel, tolerance=args.tolerance)
    return _write_result("evaluate", args, criteria.to_json_dict(), digests, started)


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    digests = {}
    spec, tau, X, channel = _load_strategy(args, digests)
    try:
        config = SimConfig(
            n_packets=args.packets,
            seed=args.seed,
            max_epochs=args.max_epochs,
            confidence=args.confidence,
            threads=(os.cpu_count() or 1) if args.threads is None else args.threads,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    estimate = simulate(
        tau, X, spec, config, channel=channel, tolerance=args.tolerance
    )
    return _write_result("oracle", args, estimate.to_json_dict(), digests, started)


def cmd_search(args) -> int:
    started = time.perf_counter()
    digests = {}
    spec = load_network(_read(args.topology, digests))
    grid = RateGrid.parse(args.grid)
    senses = ObjectiveSense.parse(args.objectives)
    thresholds = PruneThresholds(
        min_robustness=args.min_robustness, max_energy=args.max_energy
    )
    source_rates = None
    if args.sources is not None:
        # The search checks the shape, and every RateMatrix the range.
        document = read_object(_read(args.sources, digests), "source-rate")
        source_rates = np.asarray(require_rows(document, "sources", "source-rate document"))

    result = exhaustive_search(
        spec,
        grid,
        n_max=args.n_max,
        x_samples_per_tau=args.x_samples,
        seed=args.seed,
        senses=senses,
        thresholds=thresholds,
        source_rates=source_rates,
        tolerance=args.tolerance,
    )

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for sol in result.archive.members:
        tau_name = f"tau_{sol.solution_id}.json"
        x_name = f"x_{sol.solution_id}.json"
        _write(out_dir / tau_name, _dump_json(sol.tau.to_json_dict()))
        _write(out_dir / x_name, _dump_json(sol.forwarding.to_json_dict()))
        c = sol.criteria
        rows.append(
            [
                sol.solution_id,
                _fmt(c.f),
                _fmt(c.f_c),
                _fmt(c.f_d),
                _fmt(c.f_e),
                tau_name,
                x_name,
            ]
        )

    front = io.StringIO()
    writer = csv.writer(front, lineterminator="\n")
    writer.writerow(["solution_id", "f", "f_c", "f_d", "f_e", "tau_path", "x_path"])
    writer.writerows(rows)
    _write(out_dir / "front.csv", front.getvalue())

    manifest = _manifest("search", args, digests, time.perf_counter() - started)
    _write_manifest(out_dir / "manifest.json", manifest)

    sys.stdout.write(
        f"front size {len(result.archive)}; {result.n_tau} rate matrices "
        f"({result.n_infeasible} infeasible, {result.n_pruned} pruned), "
        f"{result.n_evaluated} candidates evaluated\n"
    )
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pareto-relay",
        description=(
            "Steady-state criteria and Pareto search for probabilistic-"
            "forwarding relay networks under interference"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="oracle worker threads, at least 1 (default: the machine's CPU "
        "count); search and evaluate ignore it and start none, though their "
        "linear solve wakes the BLAS thread pool (OPENBLAS_NUM_THREADS)",
    )
    common.add_argument(
        "--tolerance",
        type=nonnegative_finite,
        default=DEFAULT_TOLERANCE,
        help="numeric tolerance for the feasibility constraints",
    )
    strategy = argparse.ArgumentParser(add_help=False, parents=[common])
    strategy.add_argument(
        "--dump-channels",
        metavar="PATH",
        default=None,
        help="write the channel probabilities used as JSON",
    )

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser(
        "evaluate", parents=[strategy], help="criteria for one (tau, X) strategy"
    )
    p_eval.add_argument("--topology", required=True)
    p_eval.add_argument("--tau", required=True)
    p_eval.add_argument("--x", required=True)
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_search = sub.add_parser(
        "search", parents=[common], help="exhaustive Pareto search on the rate grid"
    )
    p_search.add_argument("--topology", required=True)
    p_search.add_argument("--grid", required=True, help="comma list, e.g. 0,0.5,1")
    p_search.add_argument("--n-max", type=int, required=True)
    p_search.add_argument("--x-samples", type=int, default=5)
    p_search.add_argument("--seed", type=nonnegative_int, default=0)
    p_search.add_argument(
        "--objectives", default="fc,fd,fe", help="comma list from f, fc, fd, fe"
    )
    p_search.add_argument("--min-robustness", type=finite, default=None)
    p_search.add_argument("--max-energy", type=finite, default=None)
    p_search.add_argument(
        "--sources", default=None, help="JSON file fixing the source rates"
    )
    p_search.add_argument("--output-dir", required=True)
    p_search.set_defaults(func=cmd_search)

    p_oracle = sub.add_parser(
        "oracle", parents=[strategy], help="Monte Carlo estimate of the criteria"
    )
    p_oracle.add_argument("--topology", required=True)
    p_oracle.add_argument("--tau", required=True)
    p_oracle.add_argument("--x", required=True)
    p_oracle.add_argument("--packets", type=int, required=True)
    p_oracle.add_argument("--seed", type=nonnegative_int, default=0)
    p_oracle.add_argument("--max-epochs", type=int, default=10_000)
    p_oracle.add_argument("--confidence", type=finite, default=0.99)
    p_oracle.add_argument("--output", default=None)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        return args.func(args)
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 2
    except (ParetoRelayError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
