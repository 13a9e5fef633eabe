"""Command-line front end: evaluate, search, oracle.

Exit codes: 0 success, 1 usage or runtime error, 2 infeasible input
(rate/forwarding constraints violated or divergent flow system). Every
file written is accompanied by a run manifest recording tool version,
input digests, seeds, flags, and wall time; numeric output carries 12
significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel import channel_matrix
from .errors import InfeasibleError, ParetoRelayError, SchemaError
from .forwarding import ForwardingMatrix
from .mc_oracle import SimConfig, simulate
from .pareto import ObjectiveSense, PruneThresholds, exhaustive_search
from .rates import DEFAULT_TOLERANCE, RateGrid, RateMatrix
from .steady_state import evaluate
from .topology import load_network


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_threads(value) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("PARETO_RELAY_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise SchemaError(
                f"PARETO_RELAY_THREADS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _manifest(
    subcommand: str, args: argparse.Namespace, inputs: dict[str, Path], wall: float
) -> dict:
    flags = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and v is not None
    }
    return {
        "tool": "pareto-relay",
        "version": __version__,
        "subcommand": subcommand,
        "flags": flags,
        "inputs": {str(p): _sha256(p) for p in inputs.values()},
        "wall_time_s": wall,
    }


def _write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _load_common(args):
    spec = load_network(Path(args.topology).read_text())
    tau = RateMatrix.from_json(spec, Path(args.tau).read_text())
    X = ForwardingMatrix.from_json(
        Path(args.x).read_text(), spec.n_nodes, spec.slot_count
    )
    return spec, tau, X


def _maybe_dump_channels(args, channel) -> None:
    if args.dump_channels:
        Path(args.dump_channels).write_text(_dump_json(channel.to_json_dict()))


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    spec, tau, X = _load_common(args)
    channel = channel_matrix(tau, spec)
    _maybe_dump_channels(args, channel)
    criteria = evaluate(tau, X, spec, channel=channel, tolerance=args.tolerance)
    text = _dump_json(criteria.to_json_dict())
    sys.stdout.write(text)
    if args.output:
        out = Path(args.output)
        out.write_text(text)
        manifest = _manifest(
            "evaluate",
            args,
            {"topology": Path(args.topology), "tau": Path(args.tau), "x": Path(args.x)},
            time.perf_counter() - started,
        )
        _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    return 0


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    spec, tau, X = _load_common(args)
    channel = channel_matrix(tau, spec)
    _maybe_dump_channels(args, channel)
    threads = _resolve_threads(args.threads)
    try:
        config = SimConfig(
            n_packets=args.packets,
            seed=args.seed,
            max_epochs=args.max_epochs,
            confidence=args.confidence,
            threads=threads,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    estimate = simulate(
        tau, X, spec, config, channel=channel, tolerance=args.tolerance
    )
    text = _dump_json(estimate.to_json_dict())
    sys.stdout.write(text)
    if args.output:
        out = Path(args.output)
        out.write_text(text)
        manifest = _manifest(
            "oracle",
            args,
            {"topology": Path(args.topology), "tau": Path(args.tau), "x": Path(args.x)},
            time.perf_counter() - started,
        )
        _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    return 0


def _load_source_rates(path: str | None, spec):
    if path is None:
        return None
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or "sources" not in document:
        raise SchemaError("source-rate document must be an object with 'sources'")
    try:
        rates = np.asarray(document["sources"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"source rates must be numbers: {exc}") from exc
    if rates.shape != (len(spec.source_ids), spec.slot_count):
        raise SchemaError(
            f"source rates must have shape "
            f"({len(spec.source_ids)}, {spec.slot_count})"
        )
    return rates


def cmd_search(args) -> int:
    started = time.perf_counter()
    if args.dump_channels:
        sys.stderr.write(
            "note: --dump-channels is ignored by search; each rate matrix "
            "induces its own channel matrix\n"
        )
    spec = load_network(Path(args.topology).read_text())
    grid = RateGrid.parse(args.grid)
    senses = ObjectiveSense.parse(args.objectives)
    thresholds = PruneThresholds(
        min_robustness=args.min_robustness, max_energy=args.max_energy
    )
    source_rates = _load_source_rates(args.sources, spec)

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
        (out_dir / tau_name).write_text(_dump_json(sol.tau.to_json_dict()))
        (out_dir / x_name).write_text(_dump_json(sol.forwarding.to_json_dict()))
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

    with open(out_dir / "front.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["solution_id", "f", "f_c", "f_d", "f_e", "tau_path", "x_path"])
        writer.writerows(rows)

    manifest = _manifest(
        "search", args, {"topology": Path(args.topology)}, time.perf_counter() - started
    )
    if args.sources:
        manifest["inputs"][str(Path(args.sources))] = _sha256(Path(args.sources))
    _write_manifest(out_dir / "manifest.json", manifest)

    sys.stdout.write(
        f"front size {len(result.archive)}; {result.n_tau} rate matrices "
        f"({result.n_infeasible} infeasible, {result.n_pruned} pruned), "
        f"{result.n_evaluated} candidates evaluated\n"
    )
    return 0


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
        help="oracle worker threads (default: PARETO_RELAY_THREADS or machine "
        "count); search and evaluate run on one thread",
    )
    common.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="numeric tolerance for the feasibility constraints",
    )
    common.add_argument(
        "--dump-channels",
        metavar="PATH",
        default=None,
        help="write the channel probabilities used as JSON",
    )

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser(
        "evaluate", parents=[common], help="criteria for one (tau, X) strategy"
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
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument(
        "--objectives", default="fc,fd,fe", help="comma list from f, fc, fd, fe"
    )
    p_search.add_argument("--min-robustness", type=float, default=None)
    p_search.add_argument("--max-energy", type=float, default=None)
    p_search.add_argument(
        "--sources", default=None, help="JSON file fixing the source rates"
    )
    p_search.add_argument("--output-dir", required=True)
    p_search.set_defaults(func=cmd_search)

    p_oracle = sub.add_parser(
        "oracle", parents=[common], help="Monte Carlo estimate of the criteria"
    )
    p_oracle.add_argument("--topology", required=True)
    p_oracle.add_argument("--tau", required=True)
    p_oracle.add_argument("--x", required=True)
    p_oracle.add_argument("--packets", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--max-epochs", type=int, default=10_000)
    p_oracle.add_argument("--confidence", type=float, default=0.99)
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
    except ParetoRelayError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
