import json

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


def _channel(link):
    return lambda: ChannelMatrix.from_json(json.dumps({"links": [link]}), 3, 2)


def _topology(section, key, value):
    doc = serialize_network(line_spec())
    (doc["nodes"][1] if section == "nodes" else doc[section])[key] = value
    return lambda: load_network(json.dumps(doc))


@pytest.mark.parametrize(
    "load",
    [
        _rates([[float("nan"), 0.0]], [[1.0, 0.0]]),
        _rates([[0.0, 0.4]], [[float("nan"), 0.0]]),
        _forwarding(x=float("nan")),
        _channel({"i": 1, "j": 2, "u": 1, "p": float("nan")}),
        _channel({"i": 1, "j": 2, "u": 1}),
        _topology("nodes", "x", float("nan")),
        _topology("nodes", "y", float("inf")),
        _topology("radio", "tx_power_w", float("nan")),
        _topology("radio", "noise_power_w", float("inf")),
        _topology("nodes", "x", 10**400),
        lambda: RadioSpec(tx_power=1.0, noise_power=0.1, packet_bits=100,
                          reference_gain=float("nan")),
        _channel({"i": 0, "j": 2, "u": 1, "p": 0.5}),
        _channel({"i": 1, "j": 4, "u": 1, "p": 0.5}),
        _channel({"i": 1, "j": 2, "u": 3, "p": 0.5}),
        _channel({"i": 2, "j": 2, "u": 1, "p": 0.5}),
        lambda: ChannelMatrix.from_json("[]", 3, 2),
        _rates([["a", 0.0]], [[1.0, 0.0]]),
        _rates([[0.0, 0.4]], [[{}, 0.0]]),
        _forwarding(i=True),
        _channel({"i": True, "j": 2, "u": 1, "p": 0.5}),
        _forwarding(i=1.0),
        _forwarding(x="0.5"),
        _forwarding(x="abc"),
        _channel({"i": 1, "j": 2, "u": 1, "p": "0.4"}),
        _rates([[0.0, "0.4"]], [[1.0, 0.0]]),
        _rates([[0.0, True]], [[1.0, 0.0]]),
        _rates([[0.0, 10**400]], [[1.0, 0.0]]),
        _rates([[0.0, 0.4]], [["1.0", 0.0]]),
        lambda: ForwardingMatrix.from_json('{"entries": 5}', 3, 2),
        lambda: ChannelMatrix.from_json("{}", 3, 2),
        _topology("radio", "packet_bits", 10**400),
        _rates([[0.0, 0.4], [0.1]], [[1.0, 0.0]]),
        lambda: load_network("[" * 100_000),
    ],
    ids=[
        "tau-nan", "sources-nan", "x-nan", "p-nan", "p-missing",
        "node-x-nan", "node-y-inf", "tx-power-nan", "noise-power-inf",
        "node-x-huge-int", "radio-spec-nan", "link-i-zero", "link-j-past-n",
        "link-u-past-slots", "link-self", "links-not-object", "tau-text",
        "sources-object", "x-index-bool", "link-index-bool", "x-index-float",
        "x-text", "x-text-not-a-number", "p-text", "tau-numeric-text", "tau-bool",
        "tau-huge-int", "sources-numeric-text", "entries-not-list", "links-missing",
        "packet-bits-huge-int", "tau-ragged", "nesting-too-deep",
    ],
)
def test_loaders_reject_nan_and_missing_values(load):
    with pytest.raises(SchemaError):
        load()
