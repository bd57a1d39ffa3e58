"""Deterministic-network code machinery tests."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsnlift.channel import (
    ComplexGain,
    compute_bit_depth,
    quantize_gain,
    superposition_output,
)
from dsnlift.codes import (
    BitDepthMismatch,
    CausalityError,
    ModuloMap,
    NetworkTrace,
    ProductCode,
    QuantizeForward,
    RelayCode,
    TableMap,
    TooManyErrors,
    deserialize_code,
    purify_zero_error,
    run_dsn,
    search_base_code,
    serialize_code,
    trace_all,
    _random_map,
    _random_table_map,
)
from dsnlift.network import Edge, RelayNetwork, layer_decomposition, load_network
from dsnlift.pipeline import read_input_text

from conftest import derive_decoder, read_at


def _alphabet(n: int) -> list[tuple[int, int]]:
    """All 4**n symbols of bit depth n, in (re_bits, im_bits) order."""
    return [(r, i) for r in range(1 << n) for i in range(1 << n)]


def _line(gain: float) -> RelayNetwork:
    g = ComplexGain(gain, 0)
    return RelayNetwork(node_count=3, edges=(Edge(0, 1, g), Edge(1, 2, g)))


def _line_code(block_length: int, count: int) -> RelayCode:
    """Distinct codewords on the gain-3 line; per-symbol maps are injective."""
    alphabet = _alphabet(1)
    words = []
    for m in range(count):
        digits = [(m >> (2 * t)) & 3 for t in range(block_length)]
        words.append(tuple(alphabet[d] for d in digits))
    return RelayCode(
        block_length=block_length,
        bit_depth=1,
        codebook=tuple(words),
        relay_maps={1: QuantizeForward(bit_depth=1)},
        decoder={},
    )


def test_quantize_forward_reduces_reception_onto_grid():
    m = QuantizeForward(bit_depth=2)
    assert m.emit_from(1, (6, 0)) == (2, 0)
    shifted = QuantizeForward(bit_depth=2, shift=1)
    assert shifted.emit_from(1, (6, 3)) == (3, 0)


def test_modulo_map_scales_then_reduces():
    m = ModuloMap(bit_depth=2, mult=3)
    assert m.emit_from(1, (3, 1)) == (1, 3)


def test_table_map_lookup_and_default():
    m = TableMap(
        bit_depth=1,
        entries=(((1, (1, 0)), (1, 1)),),
        default=(0, 1),
    )
    assert m.emit_from(1, (1, 0)) == (1, 1)
    assert m.emit_from(1, (9, 9)) == (0, 1)


def test_causal_maps_read_the_previous_symbol():
    # Gain-2 line at bit depth 1: node 1 hears trunc(2 x), which is (1, 1)
    # for the source symbol (1, 1) and (0, 0) for (0, 0).
    relay = TableMap(
        bit_depth=1,
        entries=(((1, None), (1, 0)), ((2, (1, 1)), (0, 1)), ((2, (0, 0)), (1, 1))),
        causal=True,
    )
    code = RelayCode(2, 1, (((1, 1), (0, 0)),), {1: relay}, {})
    tr = run_dsn(_line(2), code, 0)
    assert tr.received[1] == ((1, 1), (0, 0))
    # At t=1 nothing has been heard yet, so the (1, None) entry applies; at
    # t=2 the relay sends the entry keyed by its reception at t=1.
    assert tr.transmitted[1] == ((1, 0), (0, 1))


def test_relay_code_validation():
    sym = (0, 0)
    with pytest.raises(ValueError):
        RelayCode(1, 1, ((sym,), (sym,)), {}, {})
    with pytest.raises(ValueError):
        RelayCode(2, 1, ((sym,),), {}, {})
    with pytest.raises(BitDepthMismatch):
        RelayCode(1, 2, ((sym,),), {1: ModuloMap(bit_depth=1)}, {})


def test_run_dsn_line_hand_trace():
    # Gain-2 line, forward-the-reception relay, single codeword x = 0.5:
    # the relay hears trunc(2 * 0.5) = 1, re-emits 0.5, and the destination
    # hears trunc(2 * 0.5) = 1 again.
    net = _line(2)
    code = RelayCode(
        block_length=1,
        bit_depth=1,
        codebook=(((1, 0),),),
        relay_maps={1: QuantizeForward(bit_depth=1)},
        decoder={},
    )
    tr = run_dsn(net, code, 0)
    assert tr.received[1] == ((1, 0),)
    assert tr.transmitted[1] == ((1, 0),)
    assert tr.received[2] == ((1, 0),)
    assert code.rate == 0.0


def test_run_dsn_diamond_frozen_traces(diamond_net, diamond_code):
    want_y1 = {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (2, 2)}
    want_y3 = {0: (0, 0), 1: (6, 0), 2: (0, 6), 3: (6, 6)}
    for m in range(4):
        tr = run_dsn(diamond_net, diamond_code, m)
        assert tr.received[1] == (want_y1[m], want_y1[m])
        assert tr.received[2] == tr.received[1]
        assert tr.received[3] == (want_y3[m], want_y3[m])
        assert tr.decoded == m
        # The destination contributes nothing to the network.
        assert all(s == (0, 0) for s in tr.transmitted[diamond_net.destination])


def test_run_dsn_all_zero_codeword_gives_all_zero_trace(diamond_net, diamond_code):
    tr = run_dsn(diamond_net, diamond_code, 0)
    for j in range(1, diamond_net.node_count):
        assert tr.received[j] == ((0, 0), (0, 0))


def test_run_dsn_rejects_bit_depth_mismatch(diamond_net):
    code = _line_code(1, 2)
    with pytest.raises(BitDepthMismatch):
        run_dsn(diamond_net, code, 0)


def test_run_dsn_requires_causal_maps_off_layered_networks(nonlayered_net):
    n = 1
    code = RelayCode(
        block_length=1,
        bit_depth=n,
        codebook=(((0, 0),),),
        relay_maps={1: ModuloMap(bit_depth=n), 2: ModuloMap(bit_depth=n)},
        decoder={},
    )
    with pytest.raises(CausalityError):
        run_dsn(nonlayered_net, code, 0)


def test_code_execution_needs_a_scalar_network():
    g = ComplexGain(2, 0)
    mimo = RelayNetwork(
        node_count=3, edges=(Edge(0, 1, ((g, g), (g, g))), Edge(1, 2, ((g, g), (g, g)))),
        antenna_mode="mimo2x2",
    )
    code = RelayCode(1, 1, (((0, 0),),), {1: ModuloMap(bit_depth=1)}, {})
    with pytest.raises(CausalityError):
        run_dsn(mimo, code, 0)
    # Before a table map would read the two-antenna gains.
    with pytest.raises(CausalityError):
        search_base_code(mimo, block_length=1, rate=1.0, attempts=5, seed=0)


def test_run_dsn_synchronous_schedule_on_nonlayered_network(nonlayered_net):
    n = 1
    zero_map = TableMap(bit_depth=n, entries=(), causal=True)
    alphabet = _alphabet(n)
    code = RelayCode(
        block_length=2,
        bit_depth=n,
        codebook=((alphabet[0], alphabet[1]), (alphabet[2], alphabet[3])),
        relay_maps={1: zero_map, 2: zero_map},
        decoder={},
    )
    traces = trace_all(nonlayered_net, code)
    assert len(traces) == 2
    for tr in traces:
        for j in range(1, nonlayered_net.node_count):
            assert len(tr.received[j]) == 2


def _two_schedule_run_dsn(net: RelayNetwork, code: RelayCode, message: int) -> NetworkTrace:
    """run_dsn with its former two schedules, kept as the reference.

    Layered networks run whole blocks level by level; other networks run
    a symbol-synchronous loop that snapshots every transmission at each t.
    """
    N = code.block_length
    dest = net.destination
    zero = (0, 0)
    relays = [j for j in range(1, net.node_count) if j != dest]
    links = {j: [(e.src, quantize_gain(e.gain)) for e in net.in_edges(j)]
             for j in range(net.node_count)}

    def receive(j, sent, t):
        return superposition_output([sent[src][t - 1] for src, _ in links[j]],
                                    [g for _, g in links[j]], code.bit_depth)

    tx = {net.source: code.codebook[message]}
    rx = {net.source: tuple((0, 0) for _ in range(N))}

    levels = layer_decomposition(net)
    if levels is not None:
        for level in levels[1:]:
            for j in sorted(level):
                block = tuple(receive(j, tx, t) for t in range(1, N + 1))
                rx[j] = block
                if j == dest:
                    tx[j] = tuple(zero for _ in range(N))
                else:
                    rmap = code.relay_maps[j]
                    tx[j] = tuple(rmap.emit_from(t, read_at(rmap, t, block)) for t in range(1, N + 1))
    else:
        for j in relays:
            if not code.relay_maps[j].causal:
                raise CausalityError(f"relay map at node {j} is not causal")
        hist = {j: [] for j in range(net.node_count)}
        txs = {j: [] for j in range(net.node_count)}
        for t in range(1, N + 1):
            for j in range(net.node_count):
                if j == net.source:
                    sym = code.codebook[message][t - 1]
                elif j == dest:
                    sym = zero
                else:
                    visible = tuple(hist[j])
                    assert len(visible) == t - 1
                    rmap = code.relay_maps[j]
                    sym = rmap.emit_from(t, read_at(rmap, t, visible))
                txs[j].append(sym)
            snapshot = {j: tuple(txs[j]) for j in range(net.node_count)}
            for j in range(net.node_count):
                hist[j].append(receive(j, snapshot, t))
        for j in range(net.node_count):
            tx[j] = tuple(txs[j])
            rx[j] = tuple(hist[j])
        rx[net.source] = tuple(hist[net.source])

    decoded = code.decoder.get(rx[dest]) if rx.get(dest) is not None else None
    return NetworkTrace(message=message, transmitted=tx, received=rx, decoded=decoded)


# Every gain has a component of magnitude at least one, and none reaches 4,
# so every drawn network has bit depth 1.
_gains = st.sampled_from(
    [ComplexGain(2, 0), ComplexGain(3, 1), ComplexGain(1.5, -2), ComplexGain(-2.5, 0.5)]
)


@st.composite
def _layered_networks(draw):
    """Nodes 1..M spread over 1-3 levels after the source in a drawn order,
    so level order is often not id order and the destination (node M) may
    sit before the last level and feed it."""
    node_count = draw(st.integers(3, 6))
    others = draw(st.permutations(range(1, node_count)))
    n_levels = draw(st.integers(1, min(3, node_count - 1)))
    cuts = sorted(draw(st.lists(
        st.integers(1, node_count - 2), min_size=n_levels - 1, max_size=n_levels - 1, unique=True
    )))
    levels = [[0]] + [list(others[a:b]) for a, b in zip([0] + cuts, cuts + [node_count - 1])]
    edges = []
    for prev, level in zip(levels, levels[1:]):
        for v in level:
            for u in draw(st.lists(st.sampled_from(prev), min_size=1, unique=True)):
                edges.append(Edge(u, v, draw(_gains)))
    net = RelayNetwork(node_count=node_count, edges=tuple(edges))
    assert layer_decomposition(net) is not None
    return net


@st.composite
def _nonlayered_networks(draw):
    """Any directed graph that is not layered: back edges, level skips,
    edges into the source and unreachable nodes all occur."""
    node_count = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(node_count) for v in range(node_count) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    net = RelayNetwork(
        node_count=node_count, edges=tuple(Edge(u, v, draw(_gains)) for u, v in chosen)
    )
    assume(layer_decomposition(net) is None)
    return net


def _random_code(draw, net: RelayNetwork, causal_only: bool) -> RelayCode:
    """Distinct codewords and one random relay map per relay; on a layered
    network block and causal maps are mixed."""
    n = compute_bit_depth(net.all_gain_components())
    N = draw(st.integers(1, 3))
    alphabet = _alphabet(n)
    words = draw(st.lists(
        st.tuples(*[st.integers(0, len(alphabet) - 1)] * N), min_size=1, max_size=4, unique=True
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = {
        j: _random_map(rng, net, j, n, N, causal_only or draw(st.booleans()))
        for j in range(1, net.node_count) if j != net.destination
    }
    return RelayCode(
        block_length=N,
        bit_depth=n,
        codebook=tuple(tuple(alphabet[i] for i in w) for w in words),
        relay_maps=maps,
        decoder={},
    )


def _assert_traces_match_reference(net: RelayNetwork, code: RelayCode) -> None:
    refs = [_two_schedule_run_dsn(net, code, m) for m in range(code.message_count)]
    # A decoder that knows some destination receptions, so decoded varies.
    decoder = {tr.received[net.destination]: tr.message for tr in refs[::2]}
    code = dataclasses.replace(code, decoder=decoder)
    for m in range(code.message_count):
        assert run_dsn(net, code, m) == _two_schedule_run_dsn(net, code, m)


@settings(deadline=None)
@given(_layered_networks(), st.data())
def test_run_dsn_matches_two_schedule_reference_on_layered_networks(net, data):
    _assert_traces_match_reference(net, _random_code(data.draw, net, causal_only=False))


@settings(deadline=None)
@given(_nonlayered_networks(), st.data())
def test_run_dsn_matches_two_schedule_reference_on_nonlayered_networks(net, data):
    _assert_traces_match_reference(net, _random_code(data.draw, net, causal_only=True))


def test_derived_decoder_is_zero_error(line_net):
    code = _line_code(1, 4)
    derived = derive_decoder(line_net, code)
    assert len(derived.decoder) == 4
    for tr in trace_all(line_net, derived):
        assert tr.decoded == tr.message


def test_derived_decoder_rejects_colliding_receptions(line_net):
    constant_relay = TableMap(bit_depth=1, entries=(), default=(0, 0))
    code = RelayCode(
        block_length=1,
        bit_depth=1,
        codebook=(((0, 0),), ((1, 0),)),
        relay_maps={1: constant_relay},
        decoder={},
    )
    with pytest.raises(TooManyErrors):
        derive_decoder(line_net, code)


def _corrupt(code: RelayCode, faulty: int) -> RelayCode:
    decoder = dict(code.decoder)
    receptions = sorted(decoder, key=repr)
    k = code.message_count
    for r in receptions[:faulty]:
        decoder[r] = (decoder[r] + 1) % k
    return RelayCode(
        block_length=code.block_length,
        bit_depth=code.bit_depth,
        codebook=code.codebook,
        relay_maps=dict(code.relay_maps),
        decoder=decoder,
    )


def test_purify_is_identity_on_zero_error_codes(diamond_net, diamond_code):
    assert purify_zero_error(diamond_net, diamond_code) == diamond_code


def test_purify_drops_exactly_the_faulty_codewords(line_net):
    base = derive_decoder(line_net, _line_code(1, 4))
    cleaned = purify_zero_error(line_net, _corrupt(base, 1))
    assert cleaned.message_count == 3
    for tr in trace_all(line_net, cleaned):
        assert tr.decoded == tr.message


def test_purify_rejects_half_faulty(line_net):
    base = derive_decoder(line_net, _line_code(1, 4))
    with pytest.raises(TooManyErrors):
        purify_zero_error(line_net, _corrupt(base, 2))


def test_product_code_counts_and_digits(diamond_code):
    product = ProductCode(diamond_code, 3)
    assert product.codeword_count == 64
    assert product.block_length == 6
    assert product.rate == diamond_code.rate
    assert product.message_tuple(0) == (0, 0, 0)
    assert product.message_tuple(5) == (0, 1, 1)
    assert len(product.codeword(5)) == 6
    with pytest.raises(ValueError):
        product.message_tuple(64)
    with pytest.raises(ValueError):
        ProductCode(diamond_code, 0)


def test_product_code_single_use_is_the_base(diamond_code):
    product = ProductCode(diamond_code, 1)
    assert product.codeword_count == diamond_code.message_count
    for m in range(diamond_code.message_count):
        assert product.codeword(m) == diamond_code.codebook[m]


def test_product_code_decodes_per_block(diamond_net, diamond_code):
    product = ProductCode(diamond_code, 2)
    traces = trace_all(diamond_net, diamond_code)
    dest = diamond_net.destination
    for idx in (0, 5, 9, 15):
        d0, d1 = product.message_tuple(idx)
        reception = traces[d0].received[dest] + traces[d1].received[dest]
        assert product.decode(reception) == idx
    assert product.decode(((9, 9),) * 4) is None
    assert product.decode(((0, 0),)) is None


@given(st.integers(2, 5), st.integers(1, 6), st.data())
def test_product_code_index_round_trip(k, n_rep, data):
    alphabet = _alphabet(2)
    base = RelayCode(
        block_length=1,
        bit_depth=2,
        codebook=tuple((alphabet[i],) for i in range(k)),
        relay_maps={},
        decoder={},
    )
    product = ProductCode(base, n_rep)
    idx = data.draw(st.integers(0, product.codeword_count - 1))
    digits = product.message_tuple(idx)
    assert len(digits) == n_rep
    assert all(0 <= d < k for d in digits)
    assert product.message_index(digits) == idx


def test_search_finds_zero_error_code_on_gain_two_line():
    net = _line(2)
    code = search_base_code(net, block_length=1, rate=1.0, attempts=300, seed=3)
    assert code is not None
    assert code.message_count == 2
    for tr in trace_all(net, code):
        assert tr.decoded == tr.message


def test_search_rate_zero_is_trivial():
    code = search_base_code(_line(2), block_length=1, rate=0.0, attempts=1, seed=0)
    assert code is not None
    assert code.message_count == 1


def test_search_not_found_when_rate_exceeds_zero_error_maximum():
    # Gain-1 line: every product truncates to zero, so the destination
    # reception is constant over messages (brute-force check below) and no
    # multi-message zero-error code exists.
    net = _line(1)
    receptions = {
        superposition_output([x], [(1, 0)], 1)
        for x in _alphabet(1)
    }
    assert receptions == {(0, 0)}
    assert search_base_code(net, block_length=1, rate=1.0, attempts=50, seed=0) is None


def test_search_rejects_alphabet_overflow_immediately():
    assert search_base_code(_line(2), block_length=1, rate=3.0, attempts=5, seed=0) is None
    # A codebook size of 2^(10^9) would take 125 MB to write down.
    tracemalloc.start()
    try:
        assert search_base_code(_line(2), block_length=1, rate=1e9, attempts=5, seed=0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_on_nonlayered_network_returns_causal_maps(nonlayered_net):
    code = search_base_code(
        nonlayered_net, block_length=2, rate=0.5, attempts=3000, seed=7
    )
    assert code is not None
    assert all(m.causal for m in code.relay_maps.values())
    for tr in trace_all(nonlayered_net, code):
        assert tr.decoded == tr.message


def test_search_falls_back_from_a_table_the_reception_domain_outgrows():
    # Gain 200 at bit depth 7: node 1 hears 401^2 receptions, so a table of
    # one block would need more than 20,000 entries.
    net = _line(200)
    n = net.bit_depth
    assert _random_table_map(np.random.default_rng(0), net, 1, n, 1, False) is None
    # Seed 2 draws the table family first, then quantize_forward from the
    # two parametric families, then the shift.
    replay = np.random.default_rng(2)
    assert int(replay.integers(3)) == 2 and int(replay.integers(2)) == 0
    want = QuantizeForward(n, shift=int(replay.integers(1 << n)))
    assert _random_map(np.random.default_rng(2), net, 1, n, 1, False) == want
    for seed in range(10):
        assert not isinstance(_random_map(np.random.default_rng(seed), net, 1, n, 1, False), TableMap)
    for seed in range(3):
        code = search_base_code(net, block_length=1, rate=1.0, attempts=20, seed=seed)
        assert code is not None
        assert code == search_base_code(net, block_length=1, rate=1.0, attempts=20, seed=seed)
        assert not isinstance(code.relay_maps[1], TableMap)


def _alphabet_search(net, block_length, rate, attempts, seed):
    """The base-code search drawing its symbols from the whole alphabet, as
    _alphabet lists it; kept as the reference for search_base_code."""
    K = 1 << round(block_length * rate)
    n = compute_bit_depth(net.all_gain_components())
    alphabet = _alphabet(n)
    causal = layer_decomposition(net) is None
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        picks = set()
        while len(picks) < K:
            picks.add(tuple(alphabet[int(i)] for i in rng.integers(len(alphabet), size=block_length)))
        codebook = tuple(sorted(picks, key=lambda cw: [(s[0], s[1]) for s in cw]))
        maps = {
            j: _random_map(rng, net, j, n, block_length, causal)
            for j in range(1, net.node_count - 1)
        }
        code = RelayCode(block_length, n, codebook, maps, {})
        receptions = [run_dsn(net, code, m).received[net.node_count - 1] for m in range(K)]
        if len(set(receptions)) == K:
            return dataclasses.replace(code, decoder={r: m for m, r in enumerate(receptions)})
    return None


@pytest.mark.parametrize(
    "name, block_length, rate",
    [("line", 1, 1.0), ("line", 2, 1.0), ("diamond", 1, 1.0), ("diamond", 2, 0.5),
     ("nonlayered", 2, 0.5), ("nonlayered", 2, 1.0)],
)
def test_search_draws_what_the_whole_alphabet_draw_did(name, block_length, rate):
    net = load_network(read_input_text(name))
    assert compute_bit_depth(net.all_gain_components()) <= 2
    found = 0
    for seed in range(4):
        want = _alphabet_search(net, block_length, rate, attempts=30, seed=seed)
        assert search_base_code(net, block_length, rate, attempts=30, seed=seed) == want
        found += want is not None
    assert found == 4


def test_serialize_round_trip(diamond_code):
    doc = serialize_code(diamond_code)
    again = deserialize_code(doc)
    assert again == diamond_code
    assert serialize_code(again) == doc
    assert json.dumps(doc)  # stays JSON-serializable


def test_serialize_round_trip_with_table_maps(line_net):
    table = TableMap(
        bit_depth=1,
        entries=(((1, None), (1, 0)), ((2, (1, 1)), (0, 1))),
        default=(1, 1),
        causal=True,
    )
    code = RelayCode(
        block_length=2,
        bit_depth=1,
        codebook=(((0, 0), (1, 0)),),
        relay_maps={1: table},
        decoder={((0, 0), (1, 0)): 0},
    )
    assert deserialize_code(serialize_code(code)) == code
