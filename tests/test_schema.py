import json

import pytest

from pareto_relay import ChannelMatrix, ForwardingMatrix, RateMatrix
from pareto_relay.errors import SchemaError

from conftest import line_spec


def _rates(tau, sources):
    return lambda: RateMatrix.from_json(
        line_spec(slots=2), json.dumps({"tau": tau, "sources": sources})
    )


def _forwarding(x):
    entry = {"i": 1, "j": 2, "u": 1, "v": 2, "x": x}
    return lambda: ForwardingMatrix.from_json(json.dumps({"entries": [entry]}), 3, 2)


def _channel(link):
    return lambda: ChannelMatrix.from_json(json.dumps({"links": [link]}), 3, 2)


@pytest.mark.parametrize(
    "load",
    [
        _rates([[float("nan"), 0.0]], [[1.0, 0.0]]),
        _rates([[0.0, 0.4]], [[float("nan"), 0.0]]),
        _forwarding(float("nan")),
        _channel({"i": 1, "j": 2, "u": 1, "p": float("nan")}),
        _channel({"i": 1, "j": 2, "u": 1}),
    ],
    ids=["tau-nan", "sources-nan", "x-nan", "p-nan", "p-missing"],
)
def test_loaders_reject_nan_and_missing_values(load):
    with pytest.raises(SchemaError):
        load()
