"""Shared fixtures (shipped networks, a small hand-built diamond code),
derive_decoder, which gives a hand-built code the decoder of its traces,
and read_at, the reception a relay map reads at a time."""

import dataclasses
import json

import pytest

from dsnlift.codes import _decoder, deserialize_code, trace_all
from dsnlift.network import load_network
from dsnlift.pipeline import read_input_text


@pytest.fixture(scope="session")
def line_net():
    return load_network(read_input_text("line"))


@pytest.fixture(scope="session")
def diamond_net():
    return load_network(read_input_text("diamond"))


@pytest.fixture(scope="session")
def nonlayered_net():
    return load_network(read_input_text("nonlayered"))


@pytest.fixture(scope="session")
def diamond_code():
    return deserialize_code(json.loads(read_input_text("diamond_code")))


def derive_decoder(net, code):
    """``code`` with the table decoder of its own destination receptions;
    TooManyErrors when two messages share one."""
    traces = trace_all(net, code)
    return dataclasses.replace(code, decoder=_decoder(tr.received[net.destination] for tr in traces))


def read_at(rmap, t, received):
    """The one reception ``rmap`` reads at time t (1-based) of its node's
    ``received``: y(t) for a block map, y(t-1) for a causal map and None
    for a causal map at t=1."""
    if rmap.causal:
        return received[t - 2] if t >= 2 else None
    return received[t - 1]
