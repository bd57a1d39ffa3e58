"""Codes on the discrete superposition network.

A relay code is a codebook for the source plus one deterministic map per
relay.  A symbol is an (re_bits, im_bits) int pair, both in [0, 2**n);
the code owns the bit depth n, and every relay map of a code has the
code's.  The code and its table maps check their symbols once, when they
are built.  Relay maps come in two memory models:

* block maps, for layered networks, where the symbol a node emits at
  time t may use its reception at the same t, which the previous level
  has already sent;
* causal maps, for arbitrary networks, where the symbol emitted at t may
  only use receptions at times strictly before t.

Either way a map reads one reception, y(t) or y(t-1), and the scheduler
hands it to ``emit_from(t, y)``, the one entry point of every map.

run_dsn executes both in one walk over t (the time expansion of the
network): at each t the symbols that read only earlier receptions are
sent, then the nodes receive at t in level order, each block map sending
as soon as its node has received.  On a layered network this is the
level-by-level block schedule; elsewhere every map must be causal and
it is the interleaved one, so a causal code runs the same under both.
The walk reads the bit depth, the levels and the receiving order from
the RelayNetwork, which computes each once, and quantizes the in-link
gains once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

import numpy as np

from .channel import ChannelError, ConfigError, Zint, quantize_gain, superposition_output
from .network import RelayNetwork, SchemaError, _int, _require_keys

__all__ = [
    "BitDepthMismatch",
    "TooManyErrors",
    "CausalityError",
    "RelayMap",
    "QuantizeForward",
    "ModuloMap",
    "TableMap",
    "RelayCode",
    "ProductCode",
    "NetworkTrace",
    "run_dsn",
    "trace_all",
    "purify_zero_error",
    "message_bits",
    "search_base_code",
    "serialize_code",
    "deserialize_code",
]


class BitDepthMismatch(ConfigError):
    pass


class TooManyErrors(ConfigError):
    """Average error of the code is too high for purification."""


class CausalityError(ConfigError):
    """A non-causal relay map was scheduled on a non-layered network."""


def _require_scalar(net: RelayNetwork) -> None:
    """CausalityError unless codes can run on net: scalar links only."""
    if net.antenna_mode != "scalar":
        raise CausalityError("code execution is defined for scalar networks only")


def _check_symbols(symbols: Iterable[Zint], bit_depth: int) -> None:
    """ChannelError unless bit_depth >= 1 and both bits of every symbol lie
    in [0, 2**bit_depth)."""
    if bit_depth < 1:
        raise ChannelError(f"bit_depth must be >= 1, got {bit_depth}")
    lim = 1 << bit_depth
    for re, im in symbols:
        if not (0 <= re < lim and 0 <= im < lim):
            raise ChannelError(f"symbol bits ({re}, {im}) out of range for bit depth {bit_depth}")


def _grid(value: int, shift: int, mult: int, bit_depth: int) -> int:
    return (mult * value + shift) % (1 << bit_depth)


class RelayMap:
    """Deterministic map from one reception to the next symbol.

    A map reads one reception of its node per local time t (1-based):
    y(t) for a block map, y(t-1) for a causal map, and nothing (None) for
    a causal map at t=1.  The scheduler picks that reception and calls
    ``emit_from(t, y)``, the one entry point.
    """

    causal: bool = False
    bit_depth: int

    def __post_init__(self) -> None:
        _check_symbols((), self.bit_depth)  # the bit depth alone

    def emit_from(self, t: int, y: Zint | None) -> Zint:
        """The symbol sent at t after reading y: an (re_bits, im_bits) pair
        on the grid of the map's bit depth, which is its code's."""
        raise NotImplementedError


@dataclass(frozen=True)
class QuantizeForward(RelayMap):
    """Forward the reception, reduced onto the input grid, plus a shift.

    The reception components (Gaussian integers) are mapped to numerators
    modulo 2**n, i.e. the reception is scaled by 2**-n and folded into
    [0, 1) on the grid.  shift=0 preserves zero.
    """

    bit_depth: int
    shift: int = 0
    causal: bool = False

    def emit_from(self, t: int, y: Zint | None) -> Zint:
        y = y or (0, 0)
        n = self.bit_depth
        return (_grid(y[0], self.shift, 1, n), _grid(y[1], self.shift, 1, n))


@dataclass(frozen=True)
class ModuloMap(RelayMap):
    """Scale the reception by an integer, then reduce onto the grid."""

    bit_depth: int
    mult: int = 1
    causal: bool = False

    def emit_from(self, t: int, y: Zint | None) -> Zint:
        y = y or (0, 0)
        n = self.bit_depth
        return (_grid(y[0], 0, self.mult, n), _grid(y[1], 0, self.mult, n))


@dataclass(frozen=True)
class TableMap(RelayMap):
    """Explicit lookup table over the finite reception alphabet.

    Keys are (t, reception) pairs; a causal map at t=1 has nothing to look
    at and uses the key (1, None).  Missing keys fall back to ``default``
    bits.  Every value and the default must lie on the bit-depth grid.
    """

    bit_depth: int
    entries: tuple[tuple[tuple[int, Zint | None], tuple[int, int]], ...]
    default: tuple[int, int] = (0, 0)
    causal: bool = False

    _table: dict = field(init=False, repr=False, compare=False, hash=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _check_symbols([self.default, *(bits for _, bits in self.entries)], self.bit_depth)
        object.__setattr__(self, "_table", dict(self.entries))

    def emit_from(self, t: int, y: Zint | None) -> Zint:
        return self._table.get((t, y), self.default)


Codeword = tuple[Zint, ...]
Reception = tuple[Zint, ...]


@dataclass
class RelayCode:
    """Source codebook, per-relay maps and a destination decoder.

    The decoder is an explicit table from the destination's length-N
    reception to a message index; receptions it has never seen decode to
    nothing.  For codes built by ``search_base_code`` the codebook holds
    2**(N*R) distinct codewords.  Building a code raises ChannelError for
    a codebook symbol off the bit-depth grid, and BitDepthMismatch for a
    relay map of another bit depth.
    """

    block_length: int
    bit_depth: int
    codebook: tuple[Codeword, ...]
    relay_maps: dict[int, RelayMap]
    decoder: dict[Reception, int]

    @property
    def message_count(self) -> int:
        return len(self.codebook)

    @property
    def rate(self) -> float:
        if self.message_count <= 1:
            return 0.0
        return math.log2(self.message_count) / self.block_length

    def __post_init__(self) -> None:
        if len(set(self.codebook)) != len(self.codebook):
            raise ValueError("codebook contains duplicate codewords")
        for cw in self.codebook:
            if len(cw) != self.block_length:
                raise ValueError("codeword length does not match block_length")
        _check_symbols((s for cw in self.codebook for s in cw), self.bit_depth)
        for j, m in self.relay_maps.items():
            if m.bit_depth != self.bit_depth:
                raise BitDepthMismatch(
                    f"relay map at node {j} has bit depth {m.bit_depth}, the code {self.bit_depth}"
                )


@dataclass
class NetworkTrace:
    """Everything one message produces on the deterministic network."""

    message: int
    transmitted: dict[int, Codeword]
    received: dict[int, Reception]
    decoded: int | None


def run_dsn(net: RelayNetwork, code: RelayCode, message: int) -> NetworkTrace:
    """Run one message through the deterministic network.

    One walk over t = 1..N.  At each t, first every symbol that reads only
    receptions before t is sent: the source's, the destination's and each
    causal relay's.  Then every node receives at t, in level order on a
    layered network and in node order otherwise, and a block map sends its
    symbol at t right after its node has received.  On a layered network
    every edge enters the next level, so this is the level-by-level block
    schedule.  Other networks need every relay map to be causal, and the
    walk is the symbol-synchronous schedule.  The destination never
    transmits: it sends zero symbols, which reach nobody after truncation
    when it has outgoing edges.  A code that cannot run on net raises a
    ConfigError: on a MIMO network, of another bit depth, without a map
    for some relay, or with a block map on a non-layered network.
    """
    _require_scalar(net)
    if code.bit_depth != net.bit_depth:
        raise BitDepthMismatch(
            f"code bit depth {code.bit_depth} vs network bit depth {net.bit_depth}"
        )
    if not (0 <= message < code.message_count):
        raise ValueError(f"message {message} out of range")
    dest = net.destination
    n = code.bit_depth
    for j in net.relays:
        if j not in code.relay_maps:
            raise ConfigError(f"no relay map for node {j}")
        if net.levels is None and not code.relay_maps[j].causal:
            raise CausalityError(
                f"relay map at node {j} is not causal; the synchronous schedule "
                "needs causal maps on non-layered networks"
            )
    maps = {j: code.relay_maps[j] for j in net.relays}

    tx: dict[int, list[Zint]] = {j: [] for j in net.order}
    rx: dict[int, list[Zint]] = {j: [] for j in net.order}
    causal = [(m, rx[j], tx[j]) for j, m in maps.items() if m.causal]
    block = {j: m for j, m in maps.items() if not m.causal}
    # Every node in receiving order, with its block map or None and its
    # in-links: the senders' symbol lists and the quantized gains.
    walk = []
    for j in net.order:
        edges = net.in_edges(j)
        gains = [quantize_gain(e.gain) for e in edges]  # type: ignore[arg-type]
        walk.append((rx[j], tx[j], block.get(j), [tx[e.src] for e in edges], gains))
    codeword, from_source, from_dest = code.codebook[message], tx[net.source], tx[dest]
    for t in range(1, code.block_length + 1):
        from_source.append(codeword[t - 1])
        from_dest.append((0, 0))
        for rmap, heard, sent in causal:
            assert len(heard) == t - 1
            # A causal map reads the reception at t - 1, nothing at t = 1.
            sent.append(rmap.emit_from(t, heard[-1] if heard else None))
        for heard, sent, block_map, senders, gains in walk:
            y = superposition_output([s[t - 1] for s in senders], gains, n)
            heard.append(y)
            if block_map is not None:
                # A block map reads the reception at t: y.
                sent.append(block_map.emit_from(t, y))

    received = {j: tuple(r) for j, r in rx.items()}
    return NetworkTrace(
        message=message,
        transmitted={j: tuple(s) for j, s in tx.items()},
        received=received,
        decoded=code.decoder.get(received[dest]),
    )


def trace_all(net: RelayNetwork, code: RelayCode) -> list[NetworkTrace]:
    """Traces for every message, in message order."""
    return [run_dsn(net, code, m) for m in range(code.message_count)]


def _decoder(receptions: Iterable[Reception]) -> dict[Reception, int]:
    """The table decoder of destination receptions listed in message order.

    Raises TooManyErrors when two messages reach the destination with the
    same reception, since no decoder exists then.
    """
    decoder: dict[Reception, int] = {}
    for m, r in enumerate(receptions):
        if r in decoder:
            raise TooManyErrors(f"messages {decoder[r]} and {m} share a destination reception")
        decoder[r] = m
    return decoder


def purify_zero_error(net: RelayNetwork, code: RelayCode) -> RelayCode:
    """Discard codewords the decoder gets wrong; keep a zero-error code.

    On a deterministic network each codeword is decoded either always
    correctly or always incorrectly, so an average error delta below 1/2
    means more than half the codewords survive.  The surviving codewords
    are renumbered in their original order.  Their traces do not change
    with the renumbering, so the decoder is rebuilt from the traces that
    found them.  Raises TooManyErrors when delta >= 1/2.
    """
    correct = [tr for tr in trace_all(net, code) if tr.decoded == tr.message]
    delta = 1.0 - len(correct) / code.message_count
    if delta >= 0.5:
        raise TooManyErrors(f"average error {delta:.4f} is not below 0.5; cannot purify")
    return replace(
        code,
        codebook=tuple(code.codebook[tr.message] for tr in correct),
        decoder=_decoder(tr.received[net.destination] for tr in correct),
    )


@dataclass
class ProductCode:
    """n_rep independent uses of a base code, glued into one long code.

    Codeword i is the concatenation of the base codewords indexed by the
    mixed-radix digits of i (first use is the most significant digit, so
    message order is lexicographic in the digit tuples).  Relays apply the
    base relay map to each length-N block separately; decoding applies the
    base decoder per block.
    """

    base: RelayCode
    n_rep: int

    def __post_init__(self) -> None:
        if self.n_rep < 1:
            raise ValueError("n_rep must be at least 1")

    @property
    def codeword_count(self) -> int:
        return self.base.message_count ** self.n_rep

    @property
    def block_length(self) -> int:
        return self.base.block_length * self.n_rep

    @property
    def rate(self) -> float:
        return self.base.rate

    def message_tuple(self, index: int) -> tuple[int, ...]:
        if not (0 <= index < self.codeword_count):
            raise ValueError(f"index {index} out of range")
        K = self.base.message_count
        digits = []
        for _ in range(self.n_rep):
            digits.append(index % K)
            index //= K
        return tuple(reversed(digits))

    def message_index(self, digits: Sequence[int]) -> int:
        K = self.base.message_count
        idx = 0
        for d in digits:
            if not (0 <= d < K):
                raise ValueError(f"digit {d} out of range")
            idx = idx * K + d
        return idx

    def codeword(self, index: int) -> Codeword:
        parts: list[Zint] = []
        for d in self.message_tuple(index):
            parts.extend(self.base.codebook[d])
        return tuple(parts)

    def decode(self, reception: Reception) -> int | None:
        N = self.base.block_length
        if len(reception) != N * self.n_rep:
            return None
        digits = []
        for k in range(self.n_rep):
            block = tuple(reception[k * N : (k + 1) * N])
            d = self.base.decoder.get(block)
            if d is None:
                return None
            digits.append(d)
        return self.message_index(digits)


def _reception_bound(net: RelayNetwork, node: int) -> int:
    bound = 0
    for e in net.in_edges(node):
        a, b = quantize_gain(e.gain)  # type: ignore[arg-type]
        bound += abs(a) + abs(b)
    return bound


def _random_table_map(
    rng: np.random.Generator, net: RelayNetwork, node: int, bit_depth: int,
    block_length: int, causal: bool,
) -> TableMap | None:
    bound = _reception_bound(net, node)
    domain = [(r, i) for r in range(-bound, bound + 1) for i in range(-bound, bound + 1)]
    if len(domain) * block_length > 20000:
        return None
    lim = 1 << bit_depth
    entries = []
    ts = range(2, block_length + 1) if causal else range(1, block_length + 1)
    for t in ts:
        for y in domain:
            entries.append(((t, y), (int(rng.integers(lim)), int(rng.integers(lim)))))
    if causal:
        entries.append(((1, None), (int(rng.integers(lim)), int(rng.integers(lim)))))
    return TableMap(bit_depth=bit_depth, entries=tuple(entries), causal=causal)


# The relay map families the search draws from.
_FAMILIES = ("quantize_forward", "modulo", "table")


def _random_map(
    rng: np.random.Generator, net: RelayNetwork, node: int, bit_depth: int,
    block_length: int, causal: bool,
) -> RelayMap:
    lim = 1 << bit_depth
    families = _FAMILIES
    while True:
        family = families[int(rng.integers(len(families)))]
        if family == "quantize_forward":
            return QuantizeForward(bit_depth, shift=int(rng.integers(lim)), causal=causal)
        if family == "modulo":
            return ModuloMap(bit_depth, mult=int(rng.integers(1, max(lim, 2))), causal=causal)
        tm = _random_table_map(rng, net, node, bit_depth, block_length, causal)
        if tm is not None:
            return tm
        # Domain too large for a table at this node; draw again from the
        # parametric families.
        families = tuple(f for f in families if f != "table")


def message_bits(block_length: int, rate: float) -> int:
    """Message bits per block, block_length * rate; ValueError unless a whole number >= 0."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    nr = block_length * rate
    if abs(nr - round(nr)) > 1e-9:
        raise ValueError(f"block_length * rate must be an integer, got {nr}")
    return round(nr)


def search_base_code(
    net: RelayNetwork,
    block_length: int,
    rate: float,
    attempts: int,
    seed: int,
) -> RelayCode | None:
    """Randomized search for a zero-error base code.

    Draws random distinct codebooks and random relay maps from the three
    families, runs every message, and accepts the first draw for which the
    destination receptions are pairwise distinct (the table decoder is
    then zero-error by construction).  Returns None when no draw works
    within the attempt budget; that is an outcome, not an error.  Raises
    ChannelError when the 4^n symbols of bit depth n do not fit the int64
    range the symbols are drawn in.
    """
    if block_length < 1:
        raise ValueError("block_length must be >= 1")
    bits = message_bits(block_length, rate)
    _require_scalar(net)
    n = net.bit_depth
    if 2 * n > 63:
        raise ChannelError(f"bit depth {n} has 4^{n} symbols, beyond the int64 draw range")
    # No block of 2n-bit symbols has more than 2^(2n block_length) values;
    # testing that before 1 << bits keeps a huge rate from building a
    # huge integer.
    if bits > 2 * n * block_length:
        return None
    K = 1 << bits
    # Symbol i of the 4^n alphabet, in (re_bits, im_bits) order, has bits
    # (i >> n, i & mask).
    mask, size = (1 << n) - 1, 1 << (2 * n)
    causal = net.levels is None
    rng = np.random.default_rng(seed)
    dest = net.destination

    for _ in range(attempts):
        picks: set[Codeword] = set()
        while len(picks) < K:
            draw = rng.integers(size, size=block_length).tolist()
            picks.add(tuple((i >> n, i & mask) for i in draw))
        codebook = sorted(picks)
        maps = {j: _random_map(rng, net, j, n, block_length, causal) for j in net.relays}
        candidate = RelayCode(block_length, n, tuple(codebook), maps, decoder={})
        try:
            # Lazy, so the first shared reception ends the draw.
            candidate.decoder = _decoder(run_dsn(net, candidate, m).received[dest] for m in range(K))
        except TooManyErrors:
            continue
        return candidate
    return None


# --- code serialization (format 1) ----------------------------------------


def _map_doc(m: RelayMap) -> dict:
    if isinstance(m, QuantizeForward):
        return {"family": "quantize_forward", "shift": m.shift, "causal": m.causal}
    if isinstance(m, ModuloMap):
        return {"family": "modulo", "mult": m.mult, "causal": m.causal}
    if isinstance(m, TableMap):
        entries = []
        for (t, y), bits in sorted(m.entries, key=lambda e: (e[0][0], e[0][1] or (0, 0))):
            entries.append([t, list(y) if y is not None else None, list(bits)])
        return {
            "family": "table",
            "entries": entries,
            "default": list(m.default),
            "causal": m.causal,
        }
    raise ValueError(f"cannot serialize relay map {type(m).__name__}")


def _pair(v: Sequence, what: str) -> Zint:
    re, im = v
    return (_int(re, what), _int(im, what))


# The fields of a code document, and of a relay map's beyond "family" and
# "causal", by family.
_CODE_KEYS = {"format", "block_length", "bit_depth", "codebook", "relay_maps", "decoder"}
_MAP_KEYS = {"quantize_forward": {"shift"}, "modulo": {"mult"}, "table": {"entries", "default"}}


def _map_from_doc(doc: Any, bit_depth: int, where: str) -> RelayMap:
    family = doc.get("family") if isinstance(doc, dict) else None
    if not (isinstance(family, str) and family in _MAP_KEYS):
        raise SchemaError(f"{where}: unknown relay map family {family!r}")
    _require_keys(doc, {"family", "causal", *_MAP_KEYS[family]}, set(), where)
    causal = doc["causal"]
    if not isinstance(causal, bool):
        raise SchemaError(f"{where}: causal must be a boolean, got {causal!r}")
    if family == "quantize_forward":
        return QuantizeForward(bit_depth, shift=_int(doc["shift"], f"{where}.shift"), causal=causal)
    if family == "modulo":
        return ModuloMap(bit_depth, mult=_int(doc["mult"], f"{where}.mult"), causal=causal)
    what = f"{where}.entries"
    entries = tuple(
        ((_int(t, what), _pair(y, what) if y is not None else None), _pair(b, what))
        for t, y, b in doc["entries"]
    )
    return TableMap(bit_depth, entries, _pair(doc["default"], f"{where}.default"), causal)


def serialize_code(code: RelayCode) -> dict:
    """JSON-ready document for a relay code, format 1."""
    return {
        "format": 1,
        "block_length": code.block_length,
        "bit_depth": code.bit_depth,
        "codebook": [[list(s) for s in cw] for cw in code.codebook],
        "relay_maps": {str(j): _map_doc(m) for j, m in sorted(code.relay_maps.items())},
        "decoder": [
            [[list(pair) for pair in reception], msg]
            for reception, msg in sorted(code.decoder.items())
        ],
    }


def deserialize_code(doc: Any) -> RelayCode:
    """The relay code of a format-1 document.  SchemaError for an unknown or
    missing field, in the document or a relay map, or a non-integer value."""
    _require_keys(doc, _CODE_KEYS, set(), "base code")
    if _int(doc["format"], "format") != 1:
        raise ValueError(f"unsupported code format {doc['format']!r}")
    n = _int(doc["bit_depth"], "bit_depth")
    codebook = tuple(tuple(_pair(b, "codebook symbol") for b in cw) for cw in doc["codebook"])
    maps = {int(j): _map_from_doc(m, n, f"relay_maps.{j}") for j, m in doc["relay_maps"].items()}
    decoder = {tuple(_pair(p, "decoder") for p in r): _int(m, "decoder") for r, m in doc["decoder"]}
    return RelayCode(
        block_length=_int(doc["block_length"], "block_length"),
        bit_depth=n,
        codebook=codebook,
        relay_maps=maps,
        decoder=decoder,
    )
