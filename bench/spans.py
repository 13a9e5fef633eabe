"""Span tracing at the package's module boundaries, from outside the package.

``Tracer.install()`` rebinds the public functions each module calls across
a boundary (``pareto_relay.pareto.channel_matrix``, ``ParetoArchive.insert``
and so on) to wrappers that record one span per call: name, layer, start,
end, parent span and the id of the CLI call it belongs to. Spans stay in
memory; ``write`` dumps them when the run ends. ``uninstall()`` restores
every original binding. Only single-threaded calls may be traced: the span
stack is not per thread.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Unit of every per-layer metric a traced run reports.
UNITS = {
    "topology.gain_matrix_calls": "count",
    "topology.gain_matrix_s": "s",
    "rates.enumerate_s": "s",
    "rates.gate_calls": "count",
    "rates.gate_calls_per_tau": "count",
    "rates.gate_s": "s",
    "rates.flow_rejects": "count",
    "rates.duplex_rejects": "count",
    "channel.calls": "count",
    "channel.self_s": "s",
    "channel.links_exact": "count",
    "channel.links_sampled": "count",
    "channel.column_repeat_share": "share",
    "channel.mean_pool": "nodes",
    "forwarding.closed_form_calls": "count",
    "forwarding.closed_form_s": "s",
    "forwarding.sampler_calls": "count",
    "forwarding.sampler_s": "s",
    "forwarding.multi_feeder_constraints": "count",
    "forwarding.sampler_fallback_share": "share",
    "forwarding.consistency_s": "s",
    "steady_state.evaluate_calls": "count",
    "steady_state.self_s": "s",
    "steady_state.build_s": "s",
    "steady_state.solve_s": "s",
    "steady_state.mean_transient": "states",
    "steady_state.failures": "count",
    "pareto.insert_calls": "count",
    "pareto.insert_s": "s",
    "pareto.accept_share": "share",
    "pareto.front_size": "count",
    "pareto.prune_s": "s",
    "pareto.self_s": "s",
    "mc_oracle.simulate_s": "s",
    "mc_oracle.self_s": "s",
    "mc_oracle.gate_s": "s",
    "mc_oracle.truncated": "count",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_share": "share",
    "trace.uncovered_share": "share",
    "trace.units": "count",
}

# (module, attribute, span name, layer). A function imported into several
# modules is wrapped at every module that calls it.
BOUNDARIES = (
    ("cli", "load_network", "topology.load_network", "topology"),
    ("channel", "gain_matrix", "topology.gain_matrix", "topology"),
    ("pareto", "enumerate_rate_matrices", "rates.enumerate", "rates"),
    ("pareto", "check_flow_conservation", "rates.flow_gate", "rates"),
    ("pareto", "check_half_duplex", "rates.duplex_gate", "rates"),
    ("steady_state", "check_flow_conservation", "rates.flow_gate", "rates"),
    ("steady_state", "check_half_duplex", "rates.duplex_gate", "rates"),
    ("mc_oracle", "check_flow_conservation", "rates.flow_gate", "rates"),
    ("mc_oracle", "check_half_duplex", "rates.duplex_gate", "rates"),
    ("cli", "channel_matrix", "channel.channel_matrix", "channel"),
    ("pareto", "channel_matrix", "channel.channel_matrix", "channel"),
    ("steady_state", "channel_matrix", "channel.channel_matrix", "channel"),
    ("mc_oracle", "channel_matrix", "channel.channel_matrix", "channel"),
    ("channel", "channel_probability_exact", "channel.link_exact", "channel"),
    ("channel", "channel_probability_sampled", "channel.link_sampled", "channel"),
    ("pareto", "solve_chain_closed_form", "forwarding.closed_form", "forwarding"),
    ("pareto", "sample_feasible_forwarding", "forwarding.sampler", "forwarding"),
    ("steady_state", "consistency_residuals", "forwarding.consistency", "forwarding"),
    ("mc_oracle", "consistency_residuals", "forwarding.consistency", "forwarding"),
    ("steady_state", "check_forwarder_roles", "forwarding.roles", "forwarding"),
    ("mc_oracle", "check_forwarder_roles", "forwarding.roles", "forwarding"),
    ("cli", "evaluate", "steady_state.evaluate", "steady_state"),
    ("pareto", "evaluate", "steady_state.evaluate", "steady_state"),
    ("steady_state", "build_transition_system", "steady_state.build", "steady_state"),
    ("mc_oracle", "build_relaying_matrix", "steady_state.build", "steady_state"),
    ("mc_oracle", "build_arrival_matrix", "steady_state.build", "steady_state"),
    ("steady_state", "fundamental_matrix", "steady_state.solve", "steady_state"),
    ("steady_state", "delay_identity_gap", "steady_state.solve", "steady_state"),
    ("cli", "exhaustive_search", "pareto.search", "pareto"),
    ("pareto", "prune_tau", "pareto.prune", "pareto"),
    ("pareto.ParetoArchive", "insert", "pareto.insert", "pareto"),
    ("cli", "simulate", "mc_oracle.simulate", "mc_oracle"),
)

NAME, LAYER, START, END, PARENT, CALL, ERROR = range(7)

# Spans whose arguments and results feed the workload-property counts.
OBSERVED = {
    "rates.flow_gate",
    "rates.duplex_gate",
    "channel.channel_matrix",
    "forwarding.sampler",
    "steady_state.evaluate",
    "pareto.insert",
    "pareto.search",
    "mc_oracle.simulate",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Arguments and results kept for the workload-property counts,
        # which are computed after the run, outside every span.
        self.observed: list[tuple[str, int, tuple, object]] = []

    def _target(self, path: str):
        obj = self.package
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def install(self) -> None:
        for module, attr, name, layer in BOUNDARIES:
            target = self._target(module)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            if name == "rates.enumerate":
                wrapper = self._wrap_generator(original, name, layer)
            else:
                wrapper = self._wrap(original, name, layer)
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.call_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, layer):
        observed = self.observed if name in OBSERVED else None

        def wrapper(*args, **kwargs):
            if not self._stack:  # outside a CLI call, e.g. the output checks
                return fn(*args, **kwargs)
            rec = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                self._close(rec)
            if observed is not None:
                observed.append((name, rec[CALL], args, out))
            return out

        return wrapper

    def _wrap_generator(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                rec = self._open(name, layer)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield item

        return wrapper

    @contextlib.contextmanager
    def root(self, call_id: int):
        """Span around one CLI call; every span opened inside it is a child."""
        self.call_id = call_id
        rec = self._open("cli.main", "cli")
        try:
            yield
        finally:
            self._close(rec)

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "layer", "start", "end", "parent", "call", "error"],
                    "spans": self.spans,
                },
                separators=(",", ":"),
            )
        )


def self_times(spans: list[list], first: int, last: int) -> np.ndarray:
    """Self time of spans[first:last]: duration minus the direct children's
    durations (children nest inside their parent on a single thread)."""
    dur = np.array([s[END] - s[START] for s in spans[first:last]])
    own = dur.copy()
    for k in range(first, last):
        parent = spans[k][PARENT]
        if parent >= first:
            own[parent - first] -= dur[k - first]
    return own


def layer_metrics(tracer: Tracer, first: int, last: int, first_obs: int,
                  last_obs: int, n_calls: int) -> dict[str, float]:
    """Per-layer counts and times over the spans of one traced unit."""
    spans = tracer.spans[first:last]
    own = self_times(tracer.spans, first, last)
    count = Counter(s[NAME] for s in spans)
    total = defaultdict(float)
    layer_self = defaultdict(float)
    for s, t in zip(spans, own):
        total[s[NAME]] += s[END] - s[START]
        layer_self[s[LAYER]] += t
    failures = sum(1 for s in spans if s[NAME] == "steady_state.evaluate" and s[ERROR])
    oracle_gates = 0.0
    for s in spans:
        parent = s[PARENT]
        if (
            parent >= first
            and tracer.spans[parent][NAME] == "mc_oracle.simulate"
            and s[NAME] in ("rates.flow_gate", "rates.duplex_gate",
                            "forwarding.consistency", "forwarding.roles")
        ):
            oracle_gates += s[END] - s[START]

    props = workload_properties(tracer.observed[first_obs:last_obs], tracer.package)
    # A search's rate-matrix stream ends with one empty step; the other
    # workloads hand every CLI call one tau.
    n_tau = count["rates.enumerate"] - props["searches"] if props["searches"] else n_calls
    gate_calls = count["rates.flow_gate"] + count["rates.duplex_gate"]
    return {
        "topology.gain_matrix_calls": count["topology.gain_matrix"],
        "topology.gain_matrix_s": total["topology.gain_matrix"],
        "rates.enumerate_s": total["rates.enumerate"],
        "rates.gate_calls": gate_calls,
        "rates.gate_calls_per_tau": gate_calls / max(n_tau, 1),
        "rates.gate_s": total["rates.flow_gate"] + total["rates.duplex_gate"],
        "rates.flow_rejects": props["flow_rejects"],
        "rates.duplex_rejects": props["duplex_rejects"],
        "channel.calls": count["channel.channel_matrix"],
        "channel.self_s": layer_self["channel"],
        "channel.links_exact": count["channel.link_exact"] - sum(
            1 for s in spans if s[NAME] == "channel.link_exact" and s[ERROR]
        ),
        "channel.links_sampled": count["channel.link_sampled"],
        "channel.column_repeat_share": props["column_repeat_share"],
        "channel.mean_pool": props["mean_pool"],
        "forwarding.closed_form_calls": count["forwarding.closed_form"],
        "forwarding.closed_form_s": total["forwarding.closed_form"],
        "forwarding.sampler_calls": count["forwarding.sampler"],
        "forwarding.sampler_s": total["forwarding.sampler"],
        "forwarding.multi_feeder_constraints": props["multi_feeder_constraints"],
        "forwarding.sampler_fallback_share": props["sampler_fallback_share"],
        "forwarding.consistency_s": total["forwarding.consistency"],
        "steady_state.evaluate_calls": count["steady_state.evaluate"],
        "steady_state.self_s": layer_self["steady_state"],
        "steady_state.build_s": total["steady_state.build"],
        "steady_state.solve_s": total["steady_state.solve"],
        "steady_state.mean_transient": props["mean_transient"],
        "steady_state.failures": failures,
        "pareto.insert_calls": count["pareto.insert"],
        "pareto.insert_s": total["pareto.insert"],
        "pareto.accept_share": props["accept_share"],
        "pareto.front_size": props["front_size"],
        "pareto.prune_s": total["pareto.prune"],
        "pareto.self_s": layer_self["pareto"],
        "mc_oracle.simulate_s": total["mc_oracle.simulate"],
        "mc_oracle.self_s": layer_self["mc_oracle"],
        "mc_oracle.gate_s": oracle_gates,
        "mc_oracle.truncated": props["truncated"],
        "cli.self_s": layer_self["cli"],
        "trace.self_sum_s": float(own.sum()),
    }


def workload_properties(observed, package) -> dict[str, float]:
    """Counts that describe the inputs the layers saw, from recorded calls."""
    feeder_terms = package.forwarding.feeder_terms
    flow_rejects = duplex_rejects = 0
    columns_seen: set = set()
    columns = repeats = 0
    pools: list[int] = []
    multi = fallback = 0
    transients: list[int] = []
    inserts = accepted = 0
    front = truncated = searches = 0
    for name, call, args, out in observed:
        if name == "rates.flow_gate":
            flow_rejects += not out.all_ok
        elif name == "rates.duplex_gate":
            duplex_rejects += not out.all_ok
        elif name == "channel.channel_matrix":
            tau, spec = args[0], args[1]
            n = spec.n_nodes
            rates = np.zeros((n, spec.slot_count))
            for i in tau.transmitter_ids:
                rates[i - 1] = tau.row(i)
            for u in range(spec.slot_count):
                key = (call, rates[:, u].tobytes())
                repeats += key in columns_seen
                columns_seen.add(key)
                columns += 1
                active = set(np.flatnonzero(rates[:, u] > 0.0).tolist())
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            pools.append(len(active - {i, j}))
        elif name == "forwarding.sampler":
            tau, P = args[0], args[1]
            for X in out:
                for j, v in sorted(package.rates.active_set(tau).transmissions):
                    if j not in tau.relay_ids:
                        continue
                    terms = feeder_terms(tau, P, j, v)
                    if len(terms) < 2:
                        continue
                    multi += 1
                    point = tau.rate(j, v) / sum(c for _, _, c in terms)
                    fallback += all(X.x(i, j, u, v) == point for i, u, _ in terms)
        elif name == "steady_state.evaluate":
            transients.append(int(np.count_nonzero(args[0].relay_rates)))
        elif name == "pareto.insert":
            inserts += 1
            accepted += bool(out)
        elif name == "pareto.search":
            searches += 1
            front += len(out.archive)
        elif name == "mc_oracle.simulate":
            truncated += out.truncated
    return {
        "flow_rejects": flow_rejects,
        "duplex_rejects": duplex_rejects,
        "column_repeat_share": repeats / columns if columns else 0.0,
        "mean_pool": float(np.mean(pools)) if pools else 0.0,
        "multi_feeder_constraints": multi,
        "sampler_fallback_share": fallback / multi if multi else 0.0,
        "mean_transient": float(np.mean(transients)) if transients else 0.0,
        "accept_share": accepted / inserts if inserts else 0.0,
        "front_size": front,
        "truncated": truncated,
        "searches": searches,
    }
