"""Network document parsing, validation and layering tests."""

import json

import pytest

from dsnlift.channel import ComplexGain
from dsnlift.network import (
    Edge,
    ParseError,
    RelayNetwork,
    SchemaError,
    layer_decomposition,
    load_network,
    validate,
)


def _doc(nodes, edges, mode="scalar"):
    return json.dumps(
        {
            "nodes": nodes,
            "antenna_mode": mode,
            "edges": [
                {"from": s, "to": d, "gain": {"re": str(re), "im": str(im)}}
                for s, d, re, im in edges
            ],
        }
    )


def test_shipped_networks_are_valid(line_net, diamond_net, nonlayered_net):
    for net in (line_net, diamond_net, nonlayered_net):
        assert validate(net) == []
    assert diamond_net.node_count == 4
    assert diamond_net.destination == 3
    assert len(diamond_net.in_edges(3)) == 2
    assert sum(e.src == 0 for e in diamond_net.edges) == 2


def test_validate_flags_structural_problems():
    gain = ComplexGain(2, 0)
    net = RelayNetwork(
        node_count=3,
        edges=(Edge(0, 0, gain), Edge(0, 2, gain), Edge(0, 2, gain)),
    )
    problems = validate(net)
    assert any("self loop" in p for p in problems)
    assert any("duplicate edge" in p for p in problems)
    assert any("node 1" in p for p in problems)

    unreachable = RelayNetwork(node_count=3, edges=(Edge(0, 1, gain),))
    assert any("no path" in p for p in validate(unreachable))

    siso = RelayNetwork(node_count=2, edges=(Edge(0, 1, gain),), antenna_mode="siso")
    assert validate(siso) == ["unknown antenna_mode 'siso'"]


def test_layer_decomposition_shapes(line_net, diamond_net, nonlayered_net):
    line_levels = layer_decomposition(line_net)
    assert line_levels is not None
    assert [set(lv) for lv in line_levels] == [{0}, {1}, {2}]

    diamond_levels = layer_decomposition(diamond_net)
    assert diamond_levels is not None
    assert [set(lv) for lv in diamond_levels] == [{0}, {1, 2}, {3}]

    assert layer_decomposition(nonlayered_net) is None


def test_load_minimal_line_document():
    net = load_network(_doc(3, [(0, 1, 2, 0), (1, 2, 2, 0)]))
    assert net.node_count == 3
    assert net.antenna_mode == "scalar"
    assert net.edges[0].gain == ComplexGain(2.0, 0.0)


def test_load_rejects_malformed_documents():
    with pytest.raises(ParseError):
        load_network("{not json")
    with pytest.raises(SchemaError):
        load_network(json.dumps({"nodes": 3, "edges": []}))
    with pytest.raises(SchemaError):
        load_network(
            json.dumps(
                {"nodes": 3, "antenna_mode": "scalar", "edges": [], "extra": 1}
            )
        )
    with pytest.raises(SchemaError):
        load_network(_doc(1, []))
    with pytest.raises(SchemaError):
        load_network(_doc(3, [(0, 1, 2, 0), (0, 1, 2, 0)]))
    with pytest.raises(SchemaError):
        load_network(_doc(3, [(1, 1, 2, 0)]))
    with pytest.raises(SchemaError):
        load_network(_doc(3, [(0, 5, 2, 0)]))
    with pytest.raises(SchemaError, match="antenna_mode must be one of"):
        load_network(_doc(3, [(0, 1, 2, 0), (1, 2, 2, 0)], mode="siso"))


def test_load_rejects_networks_validate_rejects():
    # No path from the source to the destination.
    with pytest.raises(SchemaError, match="no path"):
        load_network(_doc(3, [(0, 1, 2, 0)]))
    # The destination is reached, but node 1 does not hear the source.
    with pytest.raises(SchemaError, match="node 1 has no incoming edge"):
        load_network(_doc(3, [(0, 2, 2, 0), (2, 1, 2, 0)]))


def test_load_rejects_non_string_gain_components():
    doc = json.dumps(
        {
            "nodes": 2,
            "antenna_mode": "scalar",
            "edges": [{"from": 0, "to": 1, "gain": {"re": 2.0, "im": "0"}}],
        }
    )
    with pytest.raises(SchemaError):
        load_network(doc)


def test_load_rejects_bad_mimo_gain_shape():
    doc = json.dumps(
        {
            "nodes": 2,
            "antenna_mode": "mimo2x2",
            "edges": [{"from": 0, "to": 1, "gain": {"re": "2", "im": "0"}}],
        }
    )
    with pytest.raises(SchemaError):
        load_network(doc)


def test_mimo_round_trip():
    g = lambda re, im: {"re": str(re), "im": str(im)}
    doc = json.dumps(
        {
            "nodes": 2,
            "antenna_mode": "mimo2x2",
            "edges": [
                {
                    "from": 0,
                    "to": 1,
                    "gain": [[g(3, 0), g(0, 1)], [g(1, 2), g(4, 0)]],
                }
            ],
        }
    )
    net = load_network(doc)
    assert net.antenna_mode == "mimo2x2"
    assert len(net.all_gain_components()) == 4
    c = ComplexGain
    assert net.edges == (Edge(0, 1, ((c(3, 0), c(0, 1)), (c(1, 2), c(4, 0)))),)
