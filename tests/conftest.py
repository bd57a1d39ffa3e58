"""Shared fixtures (shipped networks, a small hand-built diamond code),
derive_decoder, which gives a hand-built code the decoder of its traces,
read_at, the reception a relay map reads at a time, and small_networks
with network_document, generated networks and their file form."""

import dataclasses
import json

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from dsnlift.channel import ComplexGain
from dsnlift.codes import _decoder, deserialize_code, trace_all
from dsnlift.network import Edge, RelayNetwork, load_network, validate
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


def _gain_parts(limit):
    """Integer and eighth-step gain parts below ``limit`` in magnitude."""
    return st.one_of(st.integers(1 - limit, limit - 1).map(float),
                     st.integers(1 - 8 * limit, 8 * limit - 1).map(lambda q: q / 8))


@st.composite
def small_networks(draw, max_nodes, mimo):
    """A network that validate accepts, of 2..max_nodes nodes, scalar or
    2x2, at bit depth 1..3.  It has edge 0 -> 1.  One draw picks a layered
    build: node 0 is level 0, node 1 level 1, each later node gets a level
    at most one past those so far and an edge from an earlier node one
    level up, and each other edge from a level to the next comes by its
    own draw.  Otherwise the network has an edge into the destination from
    node 0 or 1, and each other edge, into the source too, by its own draw.
    Some gain component is at least 1 in magnitude, so the bit depth is
    defined."""
    node_count = draw(st.integers(2, max_nodes))
    dest = node_count - 1
    if draw(st.booleans()):
        level, edges = [0, 1], {(0, 1)}
        for v in range(2, node_count):
            level.append(draw(st.integers(1, max(level) + 1)))
            edges.add((draw(st.sampled_from([u for u in range(v) if level[u] == level[v] - 1])), v))
        pairs = [(u, v) for u in range(node_count) for v in range(node_count) if level[v] == level[u] + 1]
    else:
        pairs = [(u, v) for u in range(node_count) for v in range(node_count) if u != v]
        edges = {(0, 1), (draw(st.integers(0, min(1, dest - 1))), dest)}
    edges |= {p for p in pairs if draw(st.booleans())}
    part = _gain_parts(2 << draw(st.integers(1, 3)))
    scalar = st.builds(ComplexGain, part, part)
    gain = st.tuples(st.tuples(scalar, scalar), st.tuples(scalar, scalar)) if mimo else scalar
    net = RelayNetwork(
        node_count=node_count,
        edges=tuple(Edge(u, v, draw(gain)) for u, v in sorted(edges)),
        antenna_mode="mimo2x2" if mimo else "scalar",
    )
    assume(any(max(abs(g.re), abs(g.im)) >= 1 for g in net.all_gain_components()))
    assert not validate(net)
    return net


def network_document(net):
    """The network file text of ``net``, which load_network reads back."""
    def part(g):
        return {"re": repr(g.re), "im": repr(g.im)}

    def gain(g):
        return [[part(c) for c in row] for row in g] if net.antenna_mode == "mimo2x2" else part(g)

    edges = [{"from": e.src, "to": e.dst, "gain": gain(e.gain)} for e in net.edges]
    return json.dumps({"nodes": net.node_count, "antenna_mode": net.antenna_mode, "edges": edges})
