"""Relay network topology and its on-disk form.

Networks are directed graphs over nodes 0..M with node 0 the source and
node M the destination.  Gains live on the edges, either a single complex
gain or, in two-antenna mode, a 2x2 matrix of them.  Files store gains as
decimal strings so that loading is not at the mercy of whatever float
formatting produced the file.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .channel import ComplexGain, Mimo

__all__ = [
    "ParseError",
    "SchemaError",
    "Edge",
    "RelayNetwork",
    "LevelDecomposition",
    "validate",
    "layer_decomposition",
    "load_network",
    "save_network",
]


class ParseError(ValueError):
    """The document is not valid JSON."""


class SchemaError(ValueError):
    """The document is JSON but does not match the network schema."""


GainLike = ComplexGain | Mimo


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    gain: GainLike


@dataclass(frozen=True)
class RelayNetwork:
    """A relay network with fixed source 0 and destination node_count - 1."""

    node_count: int
    edges: tuple[Edge, ...]
    antenna_mode: str = "scalar"

    source: int = field(init=False, default=0)

    @property
    def destination(self) -> int:
        return self.node_count - 1

    @property
    def relay_count(self) -> int:
        """M in the nodes-0..M picture: every node except the source."""
        return self.node_count - 1

    def in_edges(self, node: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.dst == node)

    def out_edges(self, node: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.src == node)

    def scalar_gains(self) -> list[ComplexGain]:
        if self.antenna_mode != "scalar":
            raise SchemaError("scalar_gains on a non-scalar network")
        return [e.gain for e in self.edges]  # type: ignore[misc]

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


@dataclass(frozen=True)
class LevelDecomposition:
    """Partition of the nodes by BFS depth from the source."""

    levels: tuple[frozenset[int], ...]

    def level_of(self, node: int) -> int:
        for k, lv in enumerate(self.levels):
            if node in lv:
                return k
        raise KeyError(node)


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
    if net.antenna_mode not in ("scalar", "mimo2x2"):
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

    if not _has_path(net, net.source, net.destination):
        problems.append("no path from source to destination")
    if net.node_count > 2 and not any(
        e.src == net.source and e.dst == 1 for e in net.edges
    ):
        problems.append("node 1 has no incoming edge from the source")
    return problems


def _has_path(net: RelayNetwork, a: int, b: int) -> bool:
    adj: dict[int, list[int]] = {}
    for e in net.edges:
        adj.setdefault(e.src, []).append(e.dst)
    seen = {a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            return True
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def layer_decomposition(net: RelayNetwork) -> LevelDecomposition | None:
    """BFS-depth partition when every edge crosses exactly one level.

    Returns None when the network is not layered: some node is not
    reachable from the source, or some edge does not go from depth k to
    depth k + 1.  Callers route non-layered networks to the interleaved
    transmission scheme instead.
    """
    depth: dict[int, int] = {net.source: 0}
    queue = deque([net.source])
    adj: dict[int, list[int]] = {}
    for e in net.edges:
        adj.setdefault(e.src, []).append(e.dst)
    while queue:
        u = queue.popleft()
        for w in adj.get(u, ()):
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    if len(depth) != net.node_count:
        return None
    for e in net.edges:
        if depth[e.dst] != depth[e.src] + 1:
            return None
    n_levels = max(depth.values()) + 1
    levels = [set() for _ in range(n_levels)]
    for node, d in depth.items():
        levels[d].add(node)
    return LevelDecomposition(tuple(frozenset(lv) for lv in levels))


# --- serialization ---------------------------------------------------------

_TOP_KEYS = {"nodes", "antenna_mode", "edges"}
_EDGE_KEYS = {"from", "to", "gain"}
_GAIN_KEYS = {"re", "im"}


def _parse_component(raw: Any, where: str) -> float:
    if not isinstance(raw, str):
        raise SchemaError(f"{where}: gain components must be decimal strings, got {raw!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad decimal string {raw!r}") from exc


def _parse_gain(raw: Any, where: str) -> ComplexGain:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: gain must be an object with re/im")
    extra = set(raw) - _GAIN_KEYS
    if extra:
        raise SchemaError(f"{where}: unknown gain fields {sorted(extra)}")
    if set(raw) != _GAIN_KEYS:
        raise SchemaError(f"{where}: gain needs both re and im")
    return ComplexGain(_parse_component(raw["re"], where), _parse_component(raw["im"], where))


def load_network(text: str) -> RelayNetwork:
    """Parse a network document.

    Raises ParseError for malformed JSON and SchemaError for structural
    problems: unknown fields, wrong types, node ids out of range, self
    loops, duplicate edges, or gain shape not matching the antenna mode.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise SchemaError(f"unknown top-level fields {sorted(extra)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise SchemaError(f"missing top-level fields {sorted(missing)}")

    nodes = doc["nodes"]
    if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 2:
        raise SchemaError(f"nodes must be an integer >= 2, got {nodes!r}")
    mode = doc["antenna_mode"]
    if mode not in ("scalar", "mimo2x2"):
        raise SchemaError(f"antenna_mode must be 'scalar' or 'mimo2x2', got {mode!r}")
    if not isinstance(doc["edges"], list):
        raise SchemaError("edges must be a list")

    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for i, raw in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: must be an object")
        extra = set(raw) - _EDGE_KEYS
        if extra:
            raise SchemaError(f"{where}: unknown fields {sorted(extra)}")
        if set(raw) != _EDGE_KEYS:
            raise SchemaError(f"{where}: needs from, to and gain")
        src, dst = raw["from"], raw["to"]
        for v in (src, dst):
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaError(f"{where}: node ids must be integers")
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise SchemaError(f"{where}: node id out of range for {nodes} nodes")
        if src == dst:
            raise SchemaError(f"{where}: self loop at node {src}")
        if (src, dst) in seen:
            raise SchemaError(f"{where}: duplicate edge {src}->{dst}")
        seen.add((src, dst))

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

    return RelayNetwork(node_count=nodes, edges=tuple(edges), antenna_mode=mode)


def _format_component(x: float) -> str:
    # repr of a float is the shortest string that round-trips, which keeps
    # save -> load -> save byte-stable.
    return repr(float(x))


def _gain_doc(g: ComplexGain) -> dict[str, str]:
    return {"re": _format_component(g.re), "im": _format_component(g.im)}


def save_network(net: RelayNetwork) -> str:
    """Serialize in canonical form: edges sorted, keys sorted, 2-space indent."""
    edocs = []
    for e in sorted(net.edges, key=lambda e: (e.src, e.dst)):
        if net.antenna_mode == "scalar":
            gain_doc: Any = _gain_doc(e.gain)  # type: ignore[arg-type]
        else:
            gain_doc = [[_gain_doc(g) for g in row] for row in e.gain]  # type: ignore[union-attr]
        edocs.append({"from": e.src, "to": e.dst, "gain": gain_doc})
    from .pipeline import canonical_json  # pipeline imports this module

    doc = {"nodes": net.node_count, "antenna_mode": net.antenna_mode, "edges": edocs}
    return canonical_json(doc)
