import json
import math
import re

import numpy as np
import pytest

from pareto_relay import ChannelMatrix, ForwardingMatrix, RadioSpec, RateMatrix
from pareto_relay import load_network, serialize_network
from pareto_relay.errors import SchemaError

from conftest import line_spec


def _rates(tau, sources):
    return lambda: RateMatrix.from_json(
        line_spec(slots=2), json.dumps({"tau": tau, "sources": sources})
    )


def _forwarding(**fields):
    entry = {"i": 1, "j": 2, "u": 1, "v": 2, "x": 0.5, **fields}
    return lambda: ForwardingMatrix.from_json(json.dumps({"entries": [entry]}), 3, 2)


def _forwarding_entries(*changes):
    # One entry per change, each the default entry with that change.
    entries = [{"i": 1, "j": 2, "u": 1, "v": 2, "x": 0.5, **c} for c in changes]
    return lambda: ForwardingMatrix.from_json(json.dumps({"entries": entries}), 3, 2)


def _channel(*links):
    return lambda: ChannelMatrix.from_json(json.dumps({"links": list(links)}), 3, 2)


def _topology_nodes(*changes):
    # The line network with change k applied to node k.
    doc = serialize_network(line_spec())
    for node, change in zip(doc["nodes"], changes):
        node.update(change)
    return lambda: load_network(json.dumps(doc))


def _topology(section, key, value):
    doc = serialize_network(line_spec())
    (doc["nodes"][1] if section == "nodes" else doc[section])[key] = value
    return lambda: load_network(json.dumps(doc))


def _says(message):
    """A ``match=`` pattern for exactly ``message``."""
    return f"^{re.escape(message)}$"


OUT_OF_RANGE = _says("relay and source rates must lie in [0, 1]")
NOT_FINITE_RADIO = _says("radio constants must be finite")


@pytest.mark.parametrize(
    "load, match",
    [
        pytest.param(_rates([[float("nan"), 0.0]], [[1.0, 0.0]]), OUT_OF_RANGE, id="tau-nan"),
        pytest.param(_rates([[0.0, 0.4]], [[float("nan"), 0.0]]), OUT_OF_RANGE, id="sources-nan"),
        pytest.param(_forwarding(x=float("nan")), _says("entries[0].x must be finite"), id="x-nan"),
        pytest.param(_channel({"i": 1, "j": 2, "u": 1, "p": float("nan")}),
                     _says("links[0].p must be finite"), id="p-nan"),
        pytest.param(_channel({"i": 1, "j": 2, "u": 1}),
                     _says("missing key 'p' in links[0]"), id="p-missing"),
        pytest.param(_topology("nodes", "x", float("nan")),
                     _says("nodes[1].x must be finite"), id="node-x-nan"),
        pytest.param(_topology("nodes", "y", float("inf")),
                     _says("nodes[1].y must be finite"), id="node-y-inf"),
        pytest.param(_topology("radio", "tx_power_w", float("nan")),
                     _says("radio.tx_power_w must be finite"), id="tx-power-nan"),
        pytest.param(_topology("radio", "noise_power_w", float("inf")),
                     _says("radio.noise_power_w must be finite"), id="noise-power-inf"),
        pytest.param(_topology("nodes", "x", 10**400),
                     _says("nodes[1].x must be finite"), id="node-x-huge-int"),
        pytest.param(lambda: RadioSpec(tx_power=1.0, noise_power=0.1, packet_bits=100,
                                       reference_gain=float("nan")),
                     NOT_FINITE_RADIO, id="radio-spec-nan"),
        pytest.param(_channel({"i": 0, "j": 2, "u": 1, "p": 0.5}),
                     _says("links[0].i must lie in 1..3, got 0"), id="link-i-zero"),
        pytest.param(_channel({"i": 1, "j": 4, "u": 1, "p": 0.5}),
                     _says("links[0].j must lie in 1..3, got 4"), id="link-j-past-n"),
        pytest.param(_channel({"i": 1, "j": 2, "u": 3, "p": 0.5}),
                     _says("links[0].u must lie in 1..2, got 3"), id="link-u-past-slots"),
        pytest.param(_channel({"i": 2, "j": 2, "u": 1, "p": 0.5}),
                     _says("channel link from node 2 to itself"), id="link-self"),
        pytest.param(lambda: ChannelMatrix.from_json("[]", 3, 2),
                     _says("channel document must be a JSON object"), id="links-not-object"),
        pytest.param(_rates([["a", 0.0]], [[1.0, 0.0]]),
                     _says("rate document.tau entry must be a number"), id="tau-text"),
        pytest.param(_rates([[0.0, 0.4]], [[{}, 0.0]]),
                     _says("rate document.sources entry must be a number"), id="sources-object"),
        pytest.param(_forwarding(i=True), _says("entries[0].i must be an integer"),
                     id="x-index-bool"),
        pytest.param(_channel({"i": True, "j": 2, "u": 1, "p": 0.5}),
                     _says("links[0].i must be an integer"), id="link-index-bool"),
        pytest.param(_forwarding(i=1.0), _says("entries[0].i must be an integer"),
                     id="x-index-float"),
        pytest.param(_forwarding(x="0.5"), _says("entries[0].x must be a number"), id="x-text"),
        pytest.param(_forwarding(x="abc"), _says("entries[0].x must be a number"),
                     id="x-text-not-a-number"),
        pytest.param(_channel({"i": 1, "j": 2, "u": 1, "p": "0.4"}),
                     _says("links[0].p must be a number"), id="p-text"),
        pytest.param(_rates([[0.0, "0.4"]], [[1.0, 0.0]]),
                     _says("rate document.tau entry must be a number"), id="tau-numeric-text"),
        pytest.param(_rates([[0.0, True]], [[1.0, 0.0]]),
                     _says("rate document.tau entry must be a number"), id="tau-bool"),
        pytest.param(_rates([[0.0, 10**400]], [[1.0, 0.0]]), OUT_OF_RANGE, id="tau-huge-int"),
        pytest.param(_rates([[0.0, 0.4]], [["1.0", 0.0]]),
                     _says("rate document.sources entry must be a number"),
                     id="sources-numeric-text"),
        pytest.param(lambda: ForwardingMatrix.from_json('{"entries": 5}', 3, 2),
                     _says("document.entries has the wrong type"), id="entries-not-list"),
        pytest.param(lambda: ChannelMatrix.from_json("{}", 3, 2),
                     _says("missing key 'links' in document"), id="links-missing"),
        pytest.param(_topology("radio", "packet_bits", 10**400), NOT_FINITE_RADIO,
                     id="packet-bits-huge-int"),
        pytest.param(_rates([[0.0, 0.4], [0.1]], [[1.0, 0.0]]),
                     _says("rate document.tau must be a list of equal-length lists"),
                     id="tau-ragged"),
        pytest.param(lambda: load_network("[" * 100_000),
                     r"^topology document is not valid JSON: ", id="nesting-too-deep"),
        pytest.param(_forwarding_entries({"x": 0.9}, {"u": 2, "x": 0.9}, {"x": 0.6}),
                     _says("entries[2] repeats the entry at i=1, j=2, u=1, v=2"),
                     id="x-repeated"),
        pytest.param(_channel({"i": 1, "j": 2, "u": 1, "p": 0.9},
                              {"i": 1, "j": 2, "u": 1, "p": 0.6}),
                     _says("links[1] repeats the entry at i=1, j=2, u=1"), id="link-repeated"),
        # Two faults: the entry read first decides the message.
        pytest.param(_forwarding_entries({"x": float("nan")}, {"i": 0}),
                     _says("entries[0].x must be finite"), id="x-earlier-value-wins"),
        pytest.param(_forwarding_entries({"j": 4}, {"x": "abc"}),
                     _says("entries[0].j must lie in 1..3, got 4"), id="x-earlier-index-wins"),
        pytest.param(_channel({"i": 1, "j": 2, "u": 1, "p": 0.5},
                              {"i": 1, "j": 2, "u": 3, "p": 0.5},
                              {"i": 1, "j": 3, "u": 1, "p": float("nan")}),
                     _says("links[1].u must lie in 1..2, got 3"), id="link-earlier-index-wins"),
        pytest.param(_topology_nodes({"y": "a"}, {"x": float("nan")}),
                     _says("nodes[0].y must be a number"), id="node-earlier-wins"),
        pytest.param(_rates([["a", 0.0]], [[float("nan"), 0.0]]),
                     _says("rate document.tau entry must be a number"), id="tau-before-sources"),
        # Within one entry: its indices in order, then a repeat, then the value.
        pytest.param(_forwarding(i=0, j="2"), _says("entries[0].i must lie in 1..3, got 0"),
                     id="x-index-range-before-next-index"),
        pytest.param(_forwarding_entries({}, {"v": 5, "x": float("nan")}),
                     _says("entries[1].v must lie in 1..2, got 5"), id="x-index-before-repeat"),
        pytest.param(_forwarding_entries({}, {"x": float("nan")}),
                     _says("entries[1] repeats the entry at i=1, j=2, u=1, v=2"),
                     id="x-repeat-before-value"),
        pytest.param(_channel({"i": 1, "j": 2, "u": 1, "p": 0.5}, {"i": 1, "j": 2, "u": 1}),
                     _says("links[1] repeats the entry at i=1, j=2, u=1"),
                     id="link-repeat-before-missing-value"),
        # A channel self-link is an entry's fault: it comes after that
        # entry's value and before any later entry.
        pytest.param(_channel({"i": 2, "j": 2, "u": 1, "p": 0.5},
                              {"i": 0, "j": 1, "u": 1, "p": 0.5}),
                     _says("channel link from node 2 to itself"), id="link-self-before-later-index"),
        pytest.param(_channel({"i": 2, "j": 2, "u": 1, "p": float("nan")}),
                     _says("links[0].p must be finite"), id="link-self-after-its-value"),
        # The JSON literals NaN and Infinity parse, and are not finite.
        pytest.param(lambda: ForwardingMatrix.from_json(
            '{"entries": [{"i": 1, "j": 2, "u": 1, "v": 2, "x": NaN}]}', 3, 2),
                     _says("entries[0].x must be finite"), id="x-json-nan"),
        pytest.param(lambda: ChannelMatrix.from_json(
            '{"links": [{"i": 1, "j": 2, "u": 1, "p": Infinity}]}', 3, 2),
                     _says("links[0].p must be finite"), id="p-json-infinity"),
        pytest.param(lambda: load_network(
            json.dumps(serialize_network(line_spec())).replace('"x": 1.0', '"x": -Infinity')),
                     _says("nodes[1].x must be finite"), id="node-x-json-minus-infinity"),
    ],
)
def test_loaders_reject_nan_and_missing_values(load, match):
    with pytest.raises(SchemaError, match=match):
        load()


class _Int(int):
    pass


def test_loaders_accept_int_subclasses_and_numpy_floats():
    # Already-parsed documents may hold values that are not exactly int or
    # float; the checks are isinstance checks, so these pass as before.
    doc = serialize_network(line_spec())
    for node in doc["nodes"]:
        node.update(id=_Int(node["id"]), x=np.float64(node["x"]), y=np.float64(node["y"]))
    doc["radio"].update(tx_power_w=np.float64(2.0), packet_bits=_Int(100))
    doc["frame"]["slots"] = _Int(2)
    spec = load_network(doc)
    assert spec == load_network(json.dumps(serialize_network(line_spec())).replace(
        '"tx_power_w": 1.0', '"tx_power_w": 2.0'))
    tau = RateMatrix.from_json(spec, {"tau": [[np.float64(0.25), _Int(0)]],
                                      "sources": [[_Int(1), np.float64(0.0)]]})
    assert tau.rates.tolist() == [[1.0, 0.0], [0.25, 0.0], [0.0, 0.0]]
    entry = {"i": _Int(1), "j": _Int(2), "u": _Int(1), "v": _Int(2), "x": np.float64(0.5)}
    X = ForwardingMatrix.from_json({"entries": [entry]}, 3, 2)
    assert X.values[0, 1, 0, 1] == 0.5 and np.count_nonzero(X.values) == 1
    link = {"i": _Int(2), "j": _Int(3), "u": _Int(2), "p": np.float64(0.75)}
    P = ChannelMatrix.from_json({"links": [link]}, 3, 2)
    assert P.probs[1, 2, 1] == 0.75 and np.count_nonzero(P.probs) == 1


def _one_entry(kind, value):
    if kind is RateMatrix:
        return RateMatrix.for_network(line_spec(), [[value, 0.0]], [[1.0, 0.0]]).rates[1, 0]
    if kind is ForwardingMatrix:
        values = np.zeros((3, 3, 2, 2))
        values[0, 1, 0, 1] = value
        return ForwardingMatrix(values).values[0, 1, 0, 1]
    probs = np.zeros((3, 3, 2))
    probs[0, 1, 0] = value
    return ChannelMatrix(3, 2, probs).probs[0, 1, 0]


RANGE_MESSAGES = {
    RateMatrix: "relay and source rates must lie in [0, 1]",
    ForwardingMatrix: "forwarding probabilities must lie in [0, 1]",
    ChannelMatrix: "channel probabilities must lie in [0, 1]",
}


@pytest.mark.parametrize("kind", list(RANGE_MESSAGES), ids=lambda k: k.__name__)
@pytest.mark.parametrize(
    "value, ok",
    [
        (0.0, True), (1.0, True), (-0.0, True),
        (float("nan"), False), (float("inf"), False), (-float("inf"), False),
        (math.nextafter(1.0, 2.0), False), (math.nextafter(0.0, -1.0), False),
    ],
    ids=["zero", "one", "minus-zero", "nan", "inf", "minus-inf", "above-one", "below-zero"],
)
def test_value_objects_hold_only_probabilities(kind, value, ok):
    if ok:
        stored = _one_entry(kind, value)
        assert stored == value and math.copysign(1.0, stored) == math.copysign(1.0, value)
    else:
        with pytest.raises(SchemaError, match=_says(RANGE_MESSAGES[kind])):
            _one_entry(kind, value)


def test_received_power_past_the_float_range_is_refused():
    # Each constant is finite, but P_T * g_ref is not: a short link's SINR
    # would be inf / inf.
    doc = serialize_network(line_spec())
    doc["radio"].update(tx_power_w=1e308, reference_gain=1e308)
    with pytest.raises(SchemaError, match=r"^tx_power_w \* reference_gain must be finite$"):
        load_network(json.dumps(doc))
    doc["radio"].update(reference_gain=1.0)
    assert load_network(json.dumps(doc)).radio.tx_power == 1e308
