"""Relay network topology, its validation and its on-disk form.

Networks are directed graphs over nodes 0..M with node 0 the source and
node M the destination.  Gains live on the edges, either a single complex
gain or, in two-antenna mode, a 2x2 matrix of them.  Files store gains as
decimal strings so that loading is not at the mercy of whatever float
formatting produced the file.  validate owns every structural rule, and
load_network returns only networks that validate accepts.  Every input
reader parses JSON, checks fields and reads integers with the rules here.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .channel import ComplexGain, ConfigError, Mimo, compute_bit_depth

__all__ = [
    "ParseError",
    "SchemaError",
    "Edge",
    "RelayNetwork",
    "validate",
    "layer_decomposition",
    "load_network",
]


# The antenna modes a network document may name.
_ANTENNA_MODES = ("scalar", "mimo2x2")


class ParseError(ConfigError):
    """The document is not valid JSON."""


class SchemaError(ConfigError):
    """The document is JSON but does not match its schema."""


# --- the JSON rules every reader shares ------------------------------------


def _parse_json(text: str, what: str) -> Any:
    """The JSON value of text; ParseError, naming what, for malformed text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc


def _require_keys(doc: Any, required: set[str], optional: set[str], where: str) -> None:
    """SchemaError unless doc is an object with every required field and no
    field beyond the required and the optional ones."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    extra = set(doc) - required - optional
    if extra:
        raise SchemaError(f"{where}: unknown fields {sorted(extra)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")


def _int(v: Any, what: str, minimum: int | None = None) -> int:
    """v when it is a JSON integer of at least minimum, if given; SchemaError
    for anything else, a bool or a fractional number included, so no value
    is truncated on the way in."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{what} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise SchemaError(f"{what} must be >= {minimum}")
    return v


GainLike = ComplexGain | Mimo


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    gain: GainLike


@dataclass(frozen=True)
class RelayNetwork:
    """A relay network with fixed source 0 and destination node_count - 1.

    The network owns the facts every layer derives from it: the bit depth
    of its discrete model, its level decomposition and the order in which
    its nodes receive.  Each is computed once, on first use.
    """

    node_count: int
    edges: tuple[Edge, ...]
    antenna_mode: str = "scalar"

    source: int = field(init=False, default=0)

    @property
    def destination(self) -> int:
        return self.node_count - 1

    @property
    def relays(self) -> range:
        """Every node but the source and the destination."""
        return range(1, self.destination)

    @cached_property
    def bit_depth(self) -> int:
        """Bit depth of the discrete model, from every gain component."""
        return compute_bit_depth(self.all_gain_components())

    @cached_property
    def levels(self) -> tuple[frozenset[int], ...] | None:
        """The nodes by BFS depth from the source, one frozenset per depth,
        or None when the network is not layered."""
        return layer_decomposition(self)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Nodes in receiving order, the source first: level by level,
        sorted within a level, when layered; by id otherwise."""
        if self.levels is None:
            return tuple(range(self.node_count))
        return tuple(j for level in self.levels for j in sorted(level))

    def in_edges(self, node: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.dst == node)

    def all_gain_components(self) -> list[ComplexGain]:
        """Every scalar gain in the network, flattening 2x2 matrices."""
        out: list[ComplexGain] = []
        for e in self.edges:
            if self.antenna_mode == "scalar":
                out.append(e.gain)  # type: ignore[arg-type]
            else:
                for row in e.gain:  # type: ignore[union-attr]
                    out.extend(row)
        return out


def validate(net: RelayNetwork) -> list[str]:
    """Structural checks, returned as human-readable violation strings.

    An empty list means the network is usable.  Violations cover: node ids
    out of range, self loops, duplicate edges, no path from source to
    destination, and node 1 not hearing the source (when node 1 exists).
    """
    problems: list[str] = []
    if net.node_count < 2:
        problems.append(f"need at least 2 nodes, got {net.node_count}")
        return problems
    if net.antenna_mode not in _ANTENNA_MODES:
        problems.append(f"unknown antenna_mode {net.antenna_mode!r}")

    seen: set[tuple[int, int]] = set()
    for e in net.edges:
        if not (0 <= e.src < net.node_count and 0 <= e.dst < net.node_count):
            problems.append(f"edge {e.src}->{e.dst} references a node out of range")
            continue
        if e.src == e.dst:
            problems.append(f"self loop at node {e.src}")
        if (e.src, e.dst) in seen:
            problems.append(f"duplicate edge {e.src}->{e.dst}")
        seen.add((e.src, e.dst))

    if net.destination not in _depths(net):
        problems.append("no path from source to destination")
    if net.node_count > 2 and not any(
        e.src == net.source and e.dst == 1 for e in net.edges
    ):
        problems.append("node 1 has no incoming edge from the source")
    return problems


def _depths(net: RelayNetwork) -> dict[int, int]:
    """BFS depth from the source of every node reachable from it."""
    adj: dict[int, list[int]] = {}
    for e in net.edges:
        adj.setdefault(e.src, []).append(e.dst)
    depth = {net.source: 0}
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for w in adj.get(u, ()):
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth


def layer_decomposition(net: RelayNetwork) -> tuple[frozenset[int], ...] | None:
    """The nodes by BFS depth from the source, when every edge crosses
    exactly one level.

    Returns None when the network is not layered: some node is not
    reachable from the source, or some edge does not go from depth k to
    depth k + 1.  Callers route non-layered networks to the interleaved
    transmission scheme instead.
    """
    depth = _depths(net)
    if len(depth) != net.node_count:
        return None
    for e in net.edges:
        if depth[e.dst] != depth[e.src] + 1:
            return None
    levels = [set() for _ in range(max(depth.values()) + 1)]
    for node, d in depth.items():
        levels[d].add(node)
    return tuple(frozenset(lv) for lv in levels)


# --- loading ---------------------------------------------------------------


def _parse_component(raw: Any, where: str) -> float:
    if not isinstance(raw, str):
        raise SchemaError(f"{where}: gain components must be decimal strings, got {raw!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad decimal string {raw!r}") from exc


def _parse_gain(raw: Any, where: str) -> ComplexGain:
    _require_keys(raw, {"re", "im"}, set(), f"{where}.gain")
    return ComplexGain(_parse_component(raw["re"], where), _parse_component(raw["im"], where))


def load_network(text: str) -> RelayNetwork:
    """Parse a network document into a network that validate accepts.

    Raises ParseError for malformed JSON.  Raises SchemaError for a
    document off the schema (unknown or missing fields, wrong types, an
    unknown antenna mode, a gain shape not matching the mode) and, with
    validate's problems joined by "; ", for a network validate rejects.
    """
    doc = _parse_json(text, "network")
    _require_keys(doc, {"nodes", "antenna_mode", "edges"}, set(), "network")
    nodes = _int(doc["nodes"], "nodes")
    mode = doc["antenna_mode"]
    if mode not in _ANTENNA_MODES:
        raise SchemaError(f"antenna_mode must be one of {list(_ANTENNA_MODES)}, got {mode!r}")
    if not isinstance(doc["edges"], list):
        raise SchemaError("edges must be a list")

    edges: list[Edge] = []
    for i, raw in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        _require_keys(raw, {"from", "to", "gain"}, set(), where)
        src, dst = _int(raw["from"], f"{where}.from"), _int(raw["to"], f"{where}.to")
        if mode == "scalar":
            gain: GainLike = _parse_gain(raw["gain"], where)
        else:
            rows = raw["gain"]
            if not (isinstance(rows, list) and len(rows) == 2
                    and all(isinstance(r, list) and len(r) == 2 for r in rows)):
                raise SchemaError(f"{where}: mimo2x2 gain must be a 2x2 array")
            gain = (
                (_parse_gain(rows[0][0], where), _parse_gain(rows[0][1], where)),
                (_parse_gain(rows[1][0], where), _parse_gain(rows[1][1], where)),
            )
        edges.append(Edge(src, dst, gain))

    net = RelayNetwork(node_count=nodes, edges=tuple(edges), antenna_mode=mode)
    problems = validate(net)
    if problems:
        raise SchemaError("; ".join(problems))
    return net
