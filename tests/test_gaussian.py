"""Noisy-network tests: decoding, entropy estimation, simulation, bounds."""

import dataclasses
import functools
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm
from conftest import derive_decoder, small_networks
from test_decode_kernel import _shipped, _whole

from dsnlift import gaussian
from dsnlift.channel import ComplexGain, _add_keeping_floor, decompose_batch
from dsnlift.codes import (
    ProductCode,
    QuantizeForward,
    RelayCode,
    search_base_code,
    trace_all,
)
from dsnlift.gaussian import (
    DEFAULT_THRESHOLD,
    ConfigError,
    NoiseSpec,
    _BOUND_CHUNK,
    _decide,
    _gap_histograms,
    _index_type,
    _key_counts,
    _pair_keys,
    bootstrap_entropy_ci,
    exact_gaussian_cell_entropy,
    gaussian_cell_probabilities,
    miller_madow_entropy,
    plug_in_entropy,
    simulate_lifted,
    verify_genie_bounds,
)
from dsnlift.lifting import KappaParams, build_lifted_code, kappa_mimo, prune_sets
from dsnlift.network import Edge, RelayNetwork, layer_decomposition, load_network, validate
from dsnlift.pipeline import _load_base_code, _typical_sets, load_config, read_input_text
from dsnlift.typicality import (
    _radix_codes,
    enumerate_typical_receptions,
    enumerate_typical_symbol_vectors,
)

EXACT_CELL_ENTROPY = 1.658382319503


def _diamond_lifted(diamond_net, diamond_code, n_rep, kappa_override=0.25, seed=77):
    product = ProductCode(diamond_code, n_rep)
    sets = {}
    for j in range(1, diamond_net.node_count):
        ts = enumerate_typical_receptions(diamond_net, product, j, epsilon=3.0)
        sets[ts.slot] = ts
    params = KappaParams.for_network(diamond_net, override=kappa_override)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=seed, symbols_per_slot=2)
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
    return product, lifted


# --- exact cell entropy -----------------------------------------------------


def test_cell_probabilities_cover_half_the_mass_and_match_the_cdf():
    # Only the nonnegative cells are returned; symmetry supplies the rest.
    cells = dict(gaussian_cell_probabilities())
    assert abs(2.0 * sum(cells.values()) - 1.0) < 1e-10
    sd = math.sqrt(0.5)
    for k, p in cells.items():
        assert k >= 0
        want = norm.cdf(k + 1, scale=sd) - norm.cdf(k, scale=sd)
        assert p == pytest.approx(want, abs=1e-12)


def test_exact_cell_entropy_against_independent_quadrature():
    # Independent oracle: cell masses from the normal CDF at sd sqrt(1/2).
    sd = math.sqrt(0.5)
    h = 0.0
    for k in range(-40, 40):
        p = norm.cdf(k + 1, scale=sd) - norm.cdf(k, scale=sd)
        if p > 0:
            h -= p * math.log2(p)
    got = exact_gaussian_cell_entropy()
    assert got == pytest.approx(h, abs=1e-9)
    assert got == pytest.approx(EXACT_CELL_ENTROPY, abs=1e-9)
    assert 2.0 * got < 8.0


def test_monte_carlo_entropy_matches_exact_value():
    rng = np.random.default_rng(42)
    samples = rng.normal(0.0, math.sqrt(0.5), 100_000)
    cells = np.floor(samples).astype(np.int64)
    _, counts = np.unique(cells, return_counts=True)
    est = plug_in_entropy(counts)
    lo, hi = bootstrap_entropy_ci(counts, seed=1)
    assert lo <= est <= hi
    assert lo - 0.01 <= EXACT_CELL_ENTROPY <= hi + 0.01
    assert abs(est - EXACT_CELL_ENTROPY) < 0.02


# --- entropy estimators -----------------------------------------------------


def test_plug_in_entropy_uniform_counts():
    assert plug_in_entropy(np.array([25, 25, 25, 25])) == pytest.approx(2.0)
    assert plug_in_entropy(np.array([100])) == 0.0


def test_miller_madow_adds_the_support_correction():
    counts = np.array([30, 20, 10])
    want = plug_in_entropy(counts) + (3 - 1) / (2 * 60 * math.log(2))
    assert miller_madow_entropy(counts) == pytest.approx(want, abs=1e-12)
    assert miller_madow_entropy(np.array([50])) == 0.0


def test_bootstrap_ci_is_deterministic_and_brackets_the_estimate():
    counts = np.array([400, 300, 200, 100])
    a = bootstrap_entropy_ci(counts, seed=3)
    b = bootstrap_entropy_ci(counts, seed=3)
    assert a == b
    lo, hi = a
    assert lo < plug_in_entropy(counts) < hi
    assert hi - lo < 0.2


def _bootstrap_per_row(counts, seed):
    """bootstrap_entropy_ci with one miller_madow_entropy call per resample."""
    c = np.asarray(counts, dtype=np.int64)
    n = int(c.sum())
    draws = np.random.default_rng(seed).multinomial(n, c / n, size=200)
    lo, hi = np.quantile([miller_madow_entropy(row) for row in draws], [0.025, 0.975])
    return float(lo), float(hi)


# Common cells next to rare ones, which some resamples draw and some do not.
_rare_and_common_counts = st.lists(
    st.one_of(st.integers(1, 3), st.integers(50, 100_000)), min_size=1, max_size=40
)


@settings(max_examples=60, deadline=None)
@given(counts=_rare_and_common_counts, seed=st.integers(0, 2**32 - 1))
def test_bootstrap_equals_the_per_resample_loop(counts, seed):
    assert bootstrap_entropy_ci(np.asarray(counts), seed) == _bootstrap_per_row(counts, seed)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), width=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_miller_madow_rows_equal_the_per_row_estimate(rows, width, seed):
    # Zero, rare and common cells in every row, so rows differ in sum, in
    # their nonzero cells and in how many there are; past 8 and 128 cells
    # numpy sums in blocks.
    rng = np.random.default_rng(seed)
    kind = rng.integers(3, size=(rows, width))
    counts = np.select([kind == 0, kind == 1], [0, rng.integers(1, 4, (rows, width))],
                       rng.integers(50, 100_000, (rows, width)))
    counts[:, 0] += 1
    got = gaussian._miller_madow_rows(counts)
    assert got.tolist() == [miller_madow_entropy(row) for row in counts]


# --- decisions over whole candidates ----------------------------------------
# Each candidate is one value of a one-use alphabet, decided by _decide, the
# rule every simulation slot runs.


def _decide_whole(y, effective, method="ml", threshold=DEFAULT_THRESHOLD):
    """Decide each reception row of ``y`` over the rows of ``effective``:
    the chosen index, or None where there is no decision."""
    y = np.asarray(y, dtype=np.complex128)
    chosen, failed = _decide(y, _whole(np.asarray(effective, dtype=np.complex128)), method, threshold)
    return [None if f else int(c) for c, f in zip(chosen, failed)]


def test_decode_exact_reception_returns_its_candidate():
    candidates = [[0, 1], [2, 1j], [2j, 2 + 2j]]
    assert _decide_whole([[2j, 2 + 2j]], candidates) == [2]


def test_decode_singleton_ignores_noise():
    assert _decide_whole([[50 - 50j]], [[0]]) == [0]


def test_decode_tie_breaks_to_lowest_index():
    assert _decide_whole([[1]], [[0], [2]]) == [0]


def test_decode_with_offsets_recentres_candidates():
    # Candidates 0 and 2; the offset 0.9 moves candidate 0 onto the
    # observed point, which the bare candidates would call a tie.
    offsets = np.asarray([[0.9], [0]])
    assert _decide_whole([[0.9]], np.asarray([[0], [2]]) + offsets) == [0]
    assert _decide_whole([[1.9]], np.asarray([[0], [2]]) + offsets) == [1]


def test_threshold_decode_unique_passer_semantics():
    # Close to candidate 0 only: unique passer.  Midway: both clear the
    # threshold, so no decision.  Far from both: nothing clears it.
    y = [[0.1], [1], [40 + 40j]]
    assert _decide_whole(y, [[0], [2]], "threshold", threshold=-2.0) == [0, None, None]


def test_decode_input_validation():
    with pytest.raises(ConfigError, match="bogus"):
        _decide_whole([[0]], [[0]], method="bogus")


def test_pairwise_error_matches_q_function():
    # Two candidates distance d apart under CN(0, 1) noise: the ML error
    # probability is Q(d / sqrt(2)).
    d = 3.0
    rng = np.random.default_rng(2024)
    trials = 10_000
    z = rng.normal(0, math.sqrt(0.5), size=(trials, 2))
    chosen = _decide_whole((z[:, 0] + 1j * z[:, 1])[:, None], [[0], [d]])
    p_hat = sum(c != 0 for c in chosen) / trials
    p_true = norm.sf(d / math.sqrt(2))
    sigma = math.sqrt(p_true * (1 - p_true) / trials)
    assert abs(p_hat - p_true) < 3 * sigma


# --- end-to-end simulation ---------------------------------------------------


def test_simulation_zero_noise_scale_has_zero_errors(diamond_net, diamond_code):
    product, lifted = _diamond_lifted(diamond_net, diamond_code, n_rep=2)
    res = simulate_lifted(
        diamond_net, product, lifted, trials=500, noise=NoiseSpec(seed=1, scale=0.0)
    )
    assert res.message_errors == 0
    assert res.message_error_rate == 0.0
    assert all(v == 0 for v in res.block_errors.values())


def test_simulation_is_seed_deterministic(diamond_net, diamond_code):
    product, lifted = _diamond_lifted(diamond_net, diamond_code, n_rep=2)
    a = simulate_lifted(diamond_net, product, lifted, trials=2000, noise=NoiseSpec(seed=3))
    b = simulate_lifted(diamond_net, product, lifted, trials=2000, noise=NoiseSpec(seed=3))
    assert a == b
    assert a.scheduling == "layered"
    assert a.trials == 2000
    assert set(a.block_errors) == {1, 2, 3}
    assert a.message_error_rate < 0.05
    # Transmitted symbols live on the unit square, so per-symbol power
    # stays below 2.
    assert set(a.avg_power) >= {0, 1, 2}
    assert all(0.0 <= p < 2.0 for p in a.avg_power.values())


def test_simulation_threshold_method_records_failures(diamond_net, diamond_code):
    product, lifted = _diamond_lifted(diamond_net, diamond_code, n_rep=2)
    res = simulate_lifted(
        diamond_net, product, lifted, trials=1000, noise=NoiseSpec(seed=5),
        method="threshold", threshold=-8.0,
    )
    assert res.method == "threshold"
    assert all(v >= 0 for v in res.decode_failures.values())


def test_simulation_batches_partition_the_trials(diamond_net, diamond_code):
    product, lifted = _diamond_lifted(diamond_net, diamond_code, n_rep=2)
    res = simulate_lifted(
        diamond_net, product, lifted, trials=10_000, noise=NoiseSpec(seed=3)
    )
    assert sum(count for _, count, _ in res.batches) == 10_000
    assert sum(err for _, _, err in res.batches) == res.message_errors


def test_simulation_input_validation(diamond_net, diamond_code):
    product, lifted = _diamond_lifted(diamond_net, diamond_code, n_rep=2)
    with pytest.raises(ConfigError):
        simulate_lifted(diamond_net, product, lifted, trials=0, noise=NoiseSpec(seed=1))

    # Empty lifted code: wide reception sets, but the eps = 0 digit filter
    # at n_rep = 3 rejects every codeword (no exactly balanced sequence).
    product3 = ProductCode(diamond_code, 3)
    sets = {}
    for j in range(1, diamond_net.node_count):
        ts = enumerate_typical_receptions(diamond_net, product3, j, epsilon=3.0)
        sets[ts.slot] = ts
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=1, symbols_per_slot=2)
    empty = build_lifted_code(diamond_net, product3, pruned, epsilon=0.0)
    with pytest.raises(ConfigError):
        simulate_lifted(diamond_net, product3, empty, trials=10, noise=NoiseSpec(seed=1))


def test_simulation_refuses_decision_costs_past_float64(diamond_net, diamond_code):
    # Squared distances of noise at scale 1e200 overflow to inf, and would
    # decide every trial alike.
    product, lifted = _diamond_lifted(diamond_net, diamond_code, n_rep=2)
    with pytest.raises(ConfigError, match="overflow float64"):
        simulate_lifted(diamond_net, product, lifted, trials=100, noise=NoiseSpec(seed=1, scale=1e200))


def test_simulation_rejects_mismatched_networks(diamond_net, diamond_code):
    product, lifted = _diamond_lifted(diamond_net, diamond_code, n_rep=2)

    # Same shape, much larger gains: different bit depth.
    big = ComplexGain(13, 0)
    deeper = RelayNetwork(
        node_count=4,
        edges=(Edge(0, 1, big), Edge(0, 2, big), Edge(1, 3, big), Edge(2, 3, big)),
    )
    with pytest.raises(ConfigError):
        simulate_lifted(deeper, product, lifted, trials=10, noise=NoiseSpec(seed=1))

    g = ComplexGain(5, 0)
    mimo_gain = ((g, g), (g, g))
    mimo = RelayNetwork(
        node_count=2, edges=(Edge(0, 1, mimo_gain),), antenna_mode="mimo2x2"
    )
    with pytest.raises(ConfigError):
        simulate_lifted(mimo, product, lifted, trials=10, noise=NoiseSpec(seed=1))


def test_simulation_rejects_slot_type_mismatch(diamond_net, diamond_code):
    # Per-symbol slots on a layered network are a scheduling mismatch.
    product = ProductCode(diamond_code, 2)
    sets = {}
    for j in range(1, diamond_net.node_count):
        for t in (1, 2):
            ts = enumerate_typical_symbol_vectors(diamond_net, product, j, t, epsilon=3.0)
            sets[ts.slot] = ts
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=1, symbols_per_slot=1)
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
    with pytest.raises(ConfigError):
        simulate_lifted(diamond_net, product, lifted, trials=10, noise=NoiseSpec(seed=1))


@pytest.mark.parametrize("missing", [(3, 2), (1, 1)])
def test_simulation_rejects_pruned_sets_missing_a_slot(missing):
    cfg = load_config(read_input_text("nonlayered_pipeline"))
    net = load_network(read_input_text(cfg.network))
    base, _ = _load_base_code(cfg, net)
    product = ProductCode(base, cfg.n_rep)
    lifted = _lift(net, product, cfg.epsilon, cfg.kappa_override, cfg.prune_seed)
    simulate_lifted(net, product, lifted, trials=10, noise=NoiseSpec(seed=1))
    sets = {s: v for s, v in lifted.pruned.sets.items() if s != missing}
    partial = dataclasses.replace(lifted, pruned=dataclasses.replace(lifted.pruned, sets=sets))
    with pytest.raises(ConfigError):
        simulate_lifted(net, product, partial, trials=10, noise=NoiseSpec(seed=1))


def _lift(net, product, epsilon, kappa_override, seed):
    sets, symbols_per_slot, _ = _typical_sets(net, product, epsilon)
    params = KappaParams.for_network(net, override=kappa_override)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=seed, symbols_per_slot=symbols_per_slot)
    return build_lifted_code(net, product, pruned, epsilon=epsilon)


def _out_edge_case():
    """A layered network whose destination (node 3) sits on level 1 and
    feeds node 2, with a lifted code: (network, product code, lifted code)."""
    g = ComplexGain(3.0, 0.0)
    net = RelayNetwork(
        node_count=4, edges=(Edge(0, 1, g), Edge(0, 3, g), Edge(1, 2, g), Edge(3, 2, g))
    )
    base = search_base_code(net, block_length=1, rate=1, attempts=100, seed=3)
    product = ProductCode(base, 2)
    return net, product, _lift(net, product, epsilon=3.0, kappa_override=0.0, seed=1)


def _causal_line_case():
    """A layered line whose relay map is causal, with a lifted code:
    (network, product code, lifted code).  The relay sends emit_from(1, None)
    at t = 1 and a map of its decided y(1) at t = 2."""
    g = ComplexGain(3.0, 0.0)
    line = RelayNetwork(node_count=3, edges=(Edge(0, 1, g), Edge(1, 2, g)))
    A = [(r, i) for r in range(2) for i in range(2)]
    code = derive_decoder(line, RelayCode(
        block_length=2, bit_depth=1, codebook=tuple((a, A[1]) for a in A),
        relay_maps={1: QuantizeForward(1, shift=1, causal=True)}, decoder={},
    ))
    product = ProductCode(code, 4)
    return line, product, _lift(line, product, epsilon=1.0, kappa_override=0.125, seed=5)


def _line_case(gain, re_parts, im_parts, relay_map):
    """A layered line of equal real ``gain``s whose base code sends (a, A[1])
    for each a of A = ``re_parts`` x ``im_parts`` through ``relay_map``,
    with a lifted code: (network, product code, lifted code)."""
    g = ComplexGain(gain, 0.0)
    line = RelayNetwork(node_count=3, edges=(Edge(0, 1, g), Edge(1, 2, g)))
    A = [(r, i) for r in re_parts for i in im_parts]
    code = derive_decoder(line, RelayCode(
        block_length=2, bit_depth=relay_map.bit_depth, codebook=tuple((a, A[1]) for a in A),
        relay_maps={1: relay_map}, decoder={},
    ))
    product = ProductCode(code, 4)
    return line, product, _lift(line, product, epsilon=1.0, kappa_override=0.125, seed=5)


def _block_relay_case():
    """A layered line whose block relay sends (1, 1), not (0, 0), at t = 1
    of message 0."""
    return _line_case(3.0, (0, 1), (0, 1), QuantizeForward(1, shift=1))


def _deep_line_case():
    """A layered line at bit depth 5 (gains of 40), whose symbol indices
    take two bytes, with a causal relay."""
    return _line_case(40.0, (0, 9), (0, 21), QuantizeForward(5, shift=1, causal=True))


def test_pin_cases_reach_what_the_shipped_runs_miss():
    # The block relay's time-1 symbol of message 0 is not (0, 0), and the
    # deep line's symbol indices are two bytes wide.
    net, product, _ = _block_relay_case()
    assert trace_all(net, product.base)[0].transmitted[1][0] == (1, 1)
    net, _, _ = _deep_line_case()
    assert net.bit_depth == 5 and _index_type(net.bit_depth) == np.uint16


def test_layered_simulation_with_a_destination_out_edge():
    # The destination (node 3) sits on level 1 and feeds node 2; like
    # run_dsn, the simulation pads its transmissions with zeros.
    net, product, lifted = _out_edge_case()
    assert validate(net) == []
    assert layer_decomposition(net) == (frozenset({0}), frozenset({1, 3}), frozenset({2}))
    res = simulate_lifted(net, product, lifted, trials=200, noise=NoiseSpec(1, scale=0.0))
    assert res.scheduling == "layered"
    assert res.message_errors == 0
    assert res.block_errors == {1: 0, 2: 0, 3: 0}


@pytest.mark.parametrize(
    "use_offsets, message_errors, block_errors, relay_power",
    [(True, 2308, {1: 1612, 2: 2308}, 0.3701875), (False, 2433, {1: 1689, 2: 2433}, 0.3555625)],
)
def test_layered_simulation_with_causal_relay_maps(
    use_offsets, message_errors, block_errors, relay_power
):
    # Block scheduling with a causal map.
    line, product, lifted = _causal_line_case()
    assert lifted.count == 56
    res = simulate_lifted(
        line, product, lifted, trials=3000, noise=NoiseSpec(7), use_offsets=use_offsets
    )
    assert res.scheduling == "layered"
    assert res.message_errors == message_errors
    assert res.block_errors == block_errors
    assert res.avg_power == {0: 0.2564895833333333, 1: relay_power}


def test_simulation_memory_holds_transmissions_as_symbol_indices():
    # Each node's transmissions take one byte per trial, use and time here
    # (16,384 x 8 x 2), where complex values took 16, and all four nodes'
    # arrays, 1 MB, are held to the end of the walk.  The walk then peaks
    # at 9.5 MB, in one slot's cost table, reception and their parts, and
    # the destination's step-table walk adds 3.2 MB to the 2.7 MB still
    # held (measured); the budget is 11 MB.  Numbering the distinct
    # receptions with np.unique instead added 9.6 MB to 3.0 MB, for 12.6 MB,
    # and complex transmissions peak at 20.9 MB in the walk (measured).  A
    # first small call makes the lazy imports before the trace starts.
    net, product, lifted = _simulation_case("nonlayered")
    simulate_lifted(net, product, lifted, trials=100, noise=NoiseSpec(seed=9))
    tracemalloc.start()
    try:
        simulate_lifted(net, product, lifted, trials=16_384, noise=NoiseSpec(seed=9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 11_000_000


@functools.cache
def _simulation_case(name):
    """(network, product code, lifted code) of a simulation pin."""
    if name == "out_edge":
        return _out_edge_case()
    if name == "causal_line":
        return _causal_line_case()
    if name == "block_relay":
        return _block_relay_case()
    if name == "deep_line":
        return _deep_line_case()
    _, net, product, lifted = _shipped(name)
    return net, product, lifted


# sha256 of repr(SimulationResult) for the variants the shipped digests
# miss: the threshold method, no offsets, noise scale 0.5, and 1 and 777
# trials, on the shipped codes, a layered line with a causal relay and a
# destination with an out-edge.  Recorded while every node's transmissions
# were still held as complex arrays.  The block_relay and deep_line cases,
# recorded while each relay's table was seeded by a rule of its own, add a
# block relay whose time-1 symbol of message 0 is not (0, 0) and two-byte
# symbol indices.
_SIMULATION_PINS = {
    ("diamond", 777, 3, 1.0, "threshold", True): "969aa3d657af99f566e1e10d487231e3f3b452dc7d07577d39aa126b12d54bbd",
    ("diamond", 777, 3, 1.0, "ml", False): "41e0e2ad3351a2fb3a6891f6df3a49bd5718bbffd1ee2447ba91c52b89c252a6",
    ("diamond", 777, 4, 0.5, "ml", True): "2a196bbab2757862ba8182991686067829da2db476c6184a320f8676dcb71934",
    ("diamond", 1, 3, 1.0, "ml", True): "94c83224e39e4ca2b8963cb3b7c21331ec316cce30609ae7555165c511689185",
    ("line", 777, 2, 0.5, "threshold", False): "9e4976c64875e1441777751a5ba2b9ec822a7ca6fe64827088633faaed1a282d",
    ("nonlayered", 777, 9, 1.0, "threshold", True): "d37040b6a8a85a69e97bfea50ddad038b5bf5c90c687e972def0761caae23613",
    ("nonlayered", 777, 9, 1.0, "ml", False): "8b0f76ea8b8eb023c5072cc6e7bbfcfdf00b409d8df00c22f051aae296279b82",
    ("nonlayered", 777, 5, 0.5, "ml", True): "581b0b358fdddaf2a5ea72767939d1d6e8a69a708e7df42eca36932e2c145c97",
    ("nonlayered", 1, 9, 1.0, "threshold", True): "53478b183092ee31e7028d5f8ed3635c6b5fc530e28dbaa27f1458effc3a2faf",
    ("causal_line", 777, 7, 1.0, "ml", True): "3eca681ef67670f3962bbd071455057574cac6d4e3f337ad3e1c00c787a54195",
    ("causal_line", 777, 7, 0.5, "threshold", False): "81f2b8d5c0f8775656a4c0727c9bbe07d84a2e0060101b1c3c7810c399502917",
    ("causal_line", 1, 2, 1.0, "ml", True): "4bfff0bbfb252a13b3c4b5086ef2b8a3e77d4ac7784b66a23f93c87294f7eb0e",
    ("out_edge", 777, 1, 0.5, "ml", True): "508d8dc740cc83b3590d9ef925cb2d18314b5817df7b31bf8d864d799c2e79d9",
    ("out_edge", 1, 6, 1.0, "threshold", False): "171f19052dc231ca0f249ba0bd6c4bc05e62eda98e61fcbe6557aca0ca8e9c75",
    ("block_relay", 777, 7, 1.0, "ml", True): "9b700f1b2001d2949c8aa1af239e9b1d8df5b78c69f2df7bcba3682f4777b646",
    ("block_relay", 777, 7, 0.5, "threshold", False): "4429459ffe24fe03a14055dc11b731e73af4c2046c31fa3b4d2fa0834f812ab8",
    ("block_relay", 1, 2, 1.0, "ml", True): "50604834220418110c2de623af48f3eebcbe564294934b8a2a5622a3bbbbf304",
    ("deep_line", 777, 7, 10.0, "ml", True): "75f106c36fd0e5e3cecb7563bc88688064460bd70befbb7d35f5bcce945623f0",
    ("deep_line", 777, 7, 10.0, "threshold", False): "82f212bdddac63fa552b8b846a7b4b1fd159a88ba8d91ab9ba08337e770236a6",
    ("deep_line", 1, 2, 1.0, "ml", True): "d515b8d60225c62ab61d196223e149c8396990b86d672020537accde8d1af1c2",
}


@pytest.mark.parametrize("case", list(_SIMULATION_PINS), ids=lambda c: "-".join(map(str, c)))
def test_simulation_results_match_their_pins(case):
    name, trials, seed, scale, method, use_offsets = case
    net, product, lifted = _simulation_case(name)
    res = simulate_lifted(net, product, lifted, trials=trials, noise=NoiseSpec(seed, scale=scale),
                          method=method, use_offsets=use_offsets)
    assert hashlib.sha256(repr(res).encode()).hexdigest() == _SIMULATION_PINS[case]


# --- genie bound verification ------------------------------------------------


def test_genie_bounds_on_integer_gain_diamond(diamond_net):
    report = verify_genie_bounds(diamond_net, samples=20_000, seed=11)
    assert report.mode == "scalar"
    assert report.input_bit_depth == 2
    assert report.z_entropy_exact == pytest.approx(2 * EXACT_CELL_ENTROPY, abs=1e-9)
    assert len(report.entries) == 3
    by_node = {e.node: e for e in report.entries}
    assert by_node[1].links == 1
    assert by_node[3].links == 2
    # Single positive-integer-gain links keep the perturbation floor at
    # zero exactly; the two-link destination can carry v mass.
    assert by_node[1].h_v == 0.0
    assert by_node[2].h_v == 0.0
    for e in report.entries:
        assert e.h_z < 8.0
        assert e.gap_sum == pytest.approx(e.h_v + e.h_z + e.h_c, abs=1e-12)
        assert e.bound_estimate == pytest.approx(e.gap_sum, abs=1e-12)
        assert e.margin == pytest.approx(report.kappa_reference - e.bound_estimate)
        assert e.ci_halfwidth >= 0.0
    assert report.all_within_kappa()


def test_bound_entry_estimates_are_python_floats(diamond_net):
    report = verify_genie_bounds(diamond_net, samples=2_000, seed=11)
    for e in report.entries:
        for value in (e.h_v, e.h_z, e.h_c, e.gap_sum, e.bound_estimate, e.margin):
            assert type(value) is float


def test_genie_bounds_fractional_gains_have_positive_v_entropy():
    g = ComplexGain(2.5, -1.25)
    net = RelayNetwork(node_count=2, edges=(Edge(0, 1, g),))
    report = verify_genie_bounds(net, samples=20_000, seed=4)
    assert report.entries[0].h_v > 0.1
    assert report.all_within_kappa()


def test_genie_bounds_mimo_doubles_the_per_antenna_gap():
    g = ComplexGain(5, 0)
    mimo_gain = ((g, ComplexGain(1, 1)), (ComplexGain(2, 0), g))
    net = RelayNetwork(
        node_count=2, edges=(Edge(0, 1, mimo_gain),), antenna_mode="mimo2x2"
    )
    report = verify_genie_bounds(net, samples=20_000, seed=17)
    assert report.mode == "mimo2x2"
    assert report.kappa_reference == pytest.approx(kappa_mimo(1))
    assert len(report.entries) == 2
    assert {e.antenna for e in report.entries} == {0, 1}
    for e in report.entries:
        # links counts in-edges; the lone edge carries two antenna streams.
        assert e.links == 1
        assert e.bound_estimate == pytest.approx(2 * e.gap_sum, abs=1e-12)
    assert report.all_within_kappa()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    net=st.one_of(small_networks(max_nodes=5, mimo=False), small_networks(max_nodes=3, mimo=True)),
    samples=st.integers(1, 2_000),
    seed=st.integers(0, 1_000),
)
def test_genie_bound_entries_price_their_three_estimates(net, samples, seed):
    # One entry per receiving node, or per node and antenna on 2x2, each
    # priced from its own three estimates: the gap once on a scalar
    # network, twice per antenna on a two-antenna one.
    report = verify_genie_bounds(net, samples=samples, seed=seed)
    mimo = net.antenna_mode == "mimo2x2"
    receiving = [j for j in range(1, net.node_count) if net.in_edges(j)]
    antennas = (0, 1) if mimo else (None,)
    assert [(e.node, e.antenna) for e in report.entries] == [(j, a) for j in receiving for a in antennas]
    for e in report.entries:
        assert e.gap_sum == e.h_v + e.h_z + e.h_c
        assert e.bound_estimate == (2.0 * e.gap_sum if mimo else e.gap_sum)
        assert e.margin == report.kappa_reference - e.bound_estimate
        assert e.ci_halfwidth == sum((hi - lo) / 2.0 for lo, hi in (e.ci_v, e.ci_z, e.ci_c))
        assert e.links == len(net.in_edges(e.node))


def _pair_histogram(re, im):
    """Counts of the distinct (re, im) pairs of two int64 arrays, in sorted order."""
    _, counts = np.unique(re * (1 << 32) + (im + (1 << 31)), return_counts=True)
    return counts


# Samples per chunk in the _gap_histograms tests, so that small examples
# cross chunk boundaries.
_TEST_CHUNK = 7


class _Replay:
    """A stand-in generator that deals out given draws in the order
    _gap_histograms makes them: from ``integers`` the rows of xr, then of
    xi; from ``normal`` the values of zr, then of zi."""

    def __init__(self, xr, xi, zr, zi):
        self.draws = {"integers": np.concatenate([xr, xi]), "normal": np.concatenate([zr, zi])}
        self.dealt = dict.fromkeys(self.draws, 0)

    def _deal(self, kind, size):
        count = size[0] if isinstance(size, tuple) else size
        lo = self.dealt[kind]
        self.dealt[kind] += count
        return self.draws[kind][lo : lo + count]

    def integers(self, low, high, size):
        return self._deal("integers", size)

    def normal(self, loc, scale, size):
        return self._deal("normal", size)


def _gap_histograms_and_rows(gains, xr, xi, n, zr, zi):
    """_gap_histograms' counts over the given draws and the row count of each
    decompose_batch call."""
    rows = []

    def spy(gains, x_re, *rest):
        rows.append(len(x_re))
        return decompose_batch(gains, x_re, *rest)

    replay = _Replay(xr, xi, zr, zi)
    with mock.patch.object(gaussian, "decompose_batch", spy), \
            mock.patch.object(gaussian, "_BOUND_CHUNK", _TEST_CHUNK):
        got = _gap_histograms(gains, len(zr), n, replay)
    assert replay.dealt == {kind: len(draw) for kind, draw in replay.draws.items()}
    return got, rows


def _assert_gap_histograms_match_per_sample(gains, xr, xi, n, zr, zi):
    got, rows = _gap_histograms_and_rows(gains, xr, xi, n, zr, zi)
    b = decompose_batch(gains, xr, xi, n, zr, zi)
    for g, pair in zip(got, (b.v_floor, b.z_floor, (b.c_re, b.c_im)), strict=True):
        assert g.dtype == np.int64
        assert np.array_equal(g, _pair_histogram(*pair))
    return rows


def _chunk_rows(samples):
    """Row counts of decompose_batch over the samples, one chunk at a time."""
    return [min(_TEST_CHUNK, samples - lo) for lo in range(0, samples, _TEST_CHUNK)]


_gain_part = st.one_of(
    st.integers(-24, 24).map(lambda q: q / 8),  # dyadic
    st.integers(-60, 60).map(lambda q: q / 10),  # decimal, not dyadic
    st.floats(-6.0, 6.0, allow_nan=False),
)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    links=st.integers(1, 4),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gap_floors_equal_per_sample_decomposition(data, links, n, seed):
    # Distinct rows are decomposed once when they number no more than the
    # samples, and chunk by chunk otherwise; either way every histogram
    # equals the one of the per-sample floor pairs.  The sizes give one
    # sample, exactly one chunk and a partial last chunk.
    gains = [ComplexGain(data.draw(_gain_part), data.draw(_gain_part)) for _ in range(links)]
    distinct = 1 << (2 * n * links)
    sizes = [1, _TEST_CHUNK, 200]
    if distinct <= 4096:
        sizes += [distinct - 1, distinct, distinct + 123]
    samples = data.draw(st.sampled_from(sizes))
    rng = np.random.default_rng(seed)
    xr = rng.integers(0, 1 << n, size=(samples, links))
    xi = rng.integers(0, 1 << n, size=(samples, links))
    # Gaussian noise, dyadic steps, and noise that lands y on an integer.
    sums = decompose_batch(gains, xr, xi, n, np.zeros(samples), np.zeros(samples))
    kind = rng.integers(3, size=samples)
    zr = np.select([kind == 0, kind == 1], [rng.normal(0, 0.7, samples),
                   rng.integers(-16, 17, samples) / 8], np.floor(sums.y_re) - sums.y_re)
    zi = np.select([kind == 0, kind == 1], [rng.normal(0, 0.7, samples),
                   rng.integers(-16, 17, samples) / 8], np.ceil(sums.y_im) - sums.y_im)
    rows = _assert_gap_histograms_match_per_sample(gains, xr, xi, n, zr, zi)
    assert rows == ([distinct] if distinct <= samples else _chunk_rows(samples))


def test_gap_floors_past_the_int64_code_range_decompose_per_sample():
    # 2 n K = 64 digits of input bits cannot be coded in int64.
    gains = [ComplexGain(1.5, -0.25), ComplexGain(2.3, 1.0)]
    rng = np.random.default_rng(3)
    xr = rng.integers(0, 1 << 16, size=(500, 2))
    xi = rng.integers(0, 1 << 16, size=(500, 2))
    zr, zi = rng.normal(0, 0.7, (2, 500))
    assert _assert_gap_histograms_match_per_sample(gains, xr, xi, 16, zr, zi) == _chunk_rows(500)


def test_genie_bounds_memory_stays_at_the_draws_plus_one_chunk(nonlayered_net):
    # The draws stream one chunk at a time, so the largest reception holds
    # per sample only its narrowed digits xr and xi (one byte per link each
    # at this bit depth), then its narrow state, twice its row code plus the
    # real carry bit, and its int8 real noise cell.  Past them the chunk's
    # arrays, the count, its tables and the bootstrap peak at 1.2 MB
    # (measured); the allowance is 2 MB, so the budget here is 5 MB.  One
    # int64 input draw held while it is narrowed, and the float64 noise of
    # all samples, peak at 11.2 MB (measured).  A first small call makes the
    # lazy imports of the estimates, 1.8 MB, before the trace starts.
    verify_genie_bounds(nonlayered_net, samples=1_000, seed=5)
    samples = 500_000
    n = nonlayered_net.bit_depth
    links = max(len(nonlayered_net.in_edges(j)) for j in range(1, nonlayered_net.node_count))
    narrow = np.min_scalar_type((1 << n) - 1).itemsize
    state = np.min_scalar_type(2 * (1 << n) ** (2 * links) - 1).itemsize + 1
    per_sample = samples * (2 * narrow * links + state)
    allowance = 2_000_000
    tracemalloc.start()
    try:
        verify_genie_bounds(nonlayered_net, samples=samples, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < per_sample + allowance


def _one_draw_gap_histograms(gains, xr, xi, bit_depth, zr, zi):
    """_gap_histograms' counts from whole draws, as the count was before its
    draws were streamed: the oracle of the streamed count."""
    radix, k, samples = 1 << bit_depth, len(gains), len(zr)
    chunks = [slice(lo, lo + _BOUND_CHUNK) for lo in range(0, samples, _BOUND_CHUNK)]
    if radix ** (2 * k) > samples:
        parts = [[], [], []]
        for c in chunks:
            b = decompose_batch(gains, xr[c], xi[c], bit_depth, zr[c], zi[c])
            for part, pair in zip(parts, (b.v_floor, b.z_floor, (b.c_re, b.c_im))):
                part.append(_key_counts(_pair_keys(*pair), np.ones(len(pair[0]))))
        return tuple(_key_counts(*map(np.concatenate, zip(*part)))[1] for part in parts)
    rows = np.indices((radix,) * (2 * k), dtype=np.int64).reshape(2 * k, -1).T
    zero = np.zeros(len(rows))
    t = decompose_batch(gains, rows[:, :k], rows[:, k:], bit_depth, zero, zero)
    fa_re, fa_im = np.floor(t.y_re), np.floor(t.y_im)
    z_lo = (math.floor(zr.min()), math.floor(zi.min()))
    z_cols = math.floor(zi.max()) - z_lo[1] + 1
    z_cells = (math.floor(zr.max()) - z_lo[0] + 1) * z_cols
    joint = np.zeros(4 * len(rows), dtype=np.int64)
    cells = np.zeros(z_cells, dtype=np.int64)
    for c in chunks:
        code = (_radix_codes(xr[c], radix) << (bit_depth * k)) | _radix_codes(xi[c], radix)
        fz_re, fz_im = np.floor(zr[c]), np.floor(zi[c])
        bit_re = np.floor(_add_keeping_floor(t.y_re[code], zr[c])) - fz_re - fa_re[code]
        bit_im = np.floor(_add_keeping_floor(t.y_im[code], zi[c])) - fz_im - fa_im[code]
        joint += np.bincount(4 * code + (2 * bit_re + bit_im).astype(np.int64), minlength=len(joint))
        cell = (fz_re - z_lo[0]) * z_cols + (fz_im - z_lo[1])
        cells += np.bincount(cell.astype(np.int64), minlength=z_cells)
    c_re = t.c_re[:, None] + np.array([0, 0, 1, 1])
    c_im = t.c_im[:, None] + np.array([0, 1, 0, 1])
    return (
        _key_counts(_pair_keys(*t.v_floor), joint.reshape(-1, 4).sum(axis=1))[1],
        cells[cells > 0],
        _key_counts(_pair_keys(c_re, c_im).reshape(-1), joint)[1],
    )


def _one_draw_gap_estimates(gains, samples, bit_depth, rng, ci_seed, digit=None):
    """_gap_estimates with each draw made whole, its digits narrowed to
    ``digit`` (by default their smallest unsigned type)."""
    k = len(gains)
    digit = digit or np.min_scalar_type((1 << bit_depth) - 1)
    xr = rng.integers(0, 1 << bit_depth, size=(samples, k)).astype(digit)
    xi = rng.integers(0, 1 << bit_depth, size=(samples, k)).astype(digit)
    zr = rng.normal(0.0, math.sqrt(0.5), samples)
    zi = rng.normal(0.0, math.sqrt(0.5), samples)
    hists = _one_draw_gap_histograms(gains, xr, xi, bit_depth, zr, zi)
    return [(miller_madow_entropy(h), bootstrap_entropy_ci(h, ci_seed + i)) for i, h in enumerate(hists)]


@pytest.mark.parametrize("bit_depth", [1, 2, 8, 9])
def test_gap_estimates_equal_their_int64_digit_twin(bit_depth):
    # Narrowing the digits as they are drawn leaves the stream, and so every
    # estimate, as it was.  Depths 1 and 2 take the table path, 8 and 9 the
    # per-chunk one; 9 narrows to two bytes.  The samples span two chunks.
    gains = [ComplexGain(2.5, -1.25), ComplexGain(-0.75, 3.0)]
    samples = gaussian._BOUND_CHUNK + 1000
    got = gaussian._gap_estimates(gains, samples, bit_depth, np.random.default_rng(11), 40)
    want = _one_draw_gap_estimates(gains, samples, bit_depth, np.random.default_rng(11), 40, np.int64)
    assert got == want


# Samples per chunk in the streamed-draw property: small, but no fewer
# than the 64 input rows of one link at bit depth 3.
_STREAM_CHUNK = 64


@pytest.mark.parametrize("samples", [1, _STREAM_CHUNK - 1, _STREAM_CHUNK, _STREAM_CHUNK + 1,
                                     2 * _STREAM_CHUNK + 123])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data(), links=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_streamed_gap_estimates_equal_the_one_draw_body(n, samples, data, links, seed):
    # Drawing one chunk at a time gives the values of one whole draw, so the
    # streamed estimates equal those of whole draws.  The sample counts are
    # one, a chunk less one, one chunk, one more, and two chunks and a part.
    # Depths 1-3 take the table path once the 2^(2nK) rows number no more
    # than the samples, and 8-9 always take the per-chunk one.
    gains = [ComplexGain(data.draw(_gain_part), data.draw(_gain_part)) for _ in range(links)]
    with mock.patch.object(gaussian, "_BOUND_CHUNK", _STREAM_CHUNK):
        got = gaussian._gap_estimates(gains, samples, n, np.random.default_rng(seed), 40)
    assert got == _one_draw_gap_estimates(gains, samples, n, np.random.default_rng(seed), 40)


def test_noise_cells_past_int8_raise():
    # A cell that int8 cannot hold is refused, not wrapped.
    assert np.array_equal(gaussian._noise_cells(np.array([-128.0, -0.5, 127.9])), [-128.0, -1.0, 127.0])
    for z in (-128.5, 128.0):
        with pytest.raises(RuntimeError, match="int8"):
            gaussian._noise_cells(np.array([0.0, z]))


def test_genie_bounds_validation(diamond_net):
    with pytest.raises(ValueError):
        verify_genie_bounds(diamond_net, samples=0, seed=1)
