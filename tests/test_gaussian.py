"""Noisy-network tests: decoding, entropy estimation, simulation, bounds."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from dsnlift.channel import ComplexGain
from dsnlift.codes import (
    ProductCode,
    QuantizeForward,
    RelayCode,
    build_product_code,
    enumerate_alphabet,
    search_base_code,
    with_derived_decoder,
)
from dsnlift.gaussian import (
    ConfigError,
    NoiseSpec,
    bootstrap_entropy_ci,
    decode_to_set,
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
    enumerate_typical_receptions,
    enumerate_typical_symbol_vectors,
)

EXACT_CELL_ENTROPY = 1.658382319503


def _diamond_lifted(diamond_net, diamond_code, n_rep, kappa_override=0.25, seed=77):
    product = build_product_code(diamond_code, n_rep)
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


# --- decoding to a candidate set --------------------------------------------


def test_decode_exact_reception_returns_its_candidate():
    candidates = [((0, 0), (1, 0)), ((2, 0), (0, 1)), ((0, 2), (2, 2))]
    y = [complex(0, 2), complex(2, 2)]
    assert decode_to_set(y, candidates) == 2


def test_decode_singleton_ignores_noise():
    candidates = [((0, 0),)]
    assert decode_to_set([complex(50, -50)], candidates) == 0


def test_decode_tie_breaks_to_lowest_index():
    candidates = [((0, 0),), ((2, 0),)]
    assert decode_to_set([complex(1, 0)], candidates) == 0


def test_decode_with_offsets_recentres_candidates():
    candidates = [((0, 0),), ((2, 0),)]
    # The offset moves candidate 0 onto the observed point.
    offsets = [[complex(0.9, 0)], [complex(0, 0)]]
    assert decode_to_set([complex(0.9, 0)], candidates, offsets=offsets) == 0
    with pytest.raises(ConfigError):
        decode_to_set([complex(0.9, 0)], candidates, offsets=[[0j]])


def test_threshold_decode_unique_passer_semantics():
    candidates = [((0, 0),), ((2, 0),)]
    thr = -2.0
    # Close to candidate 0 only: unique passer.
    assert decode_to_set([complex(0.1, 0)], candidates, "threshold", threshold=thr) == 0
    # Midway: both clear the threshold, so no decision.
    assert decode_to_set([complex(1, 0)], candidates, "threshold", threshold=thr) is None
    # Far from both: nothing clears it.
    assert decode_to_set([complex(40, 40)], candidates, "threshold", threshold=thr) is None


def test_decode_input_validation():
    with pytest.raises(ConfigError):
        decode_to_set([0j], [])
    with pytest.raises(ConfigError):
        decode_to_set([0j, 0j], [((0, 0),)])
    with pytest.raises(ConfigError):
        decode_to_set([0j], [((0, 0),)], method="bogus")


def test_pairwise_error_matches_q_function():
    # Two candidates distance d apart under CN(0, 1) noise: the ML error
    # probability is Q(d / sqrt(2)).
    d = 3.0
    candidates = [((0, 0),), ((3, 0),)]
    rng = np.random.default_rng(2024)
    trials = 10_000
    errors = 0
    for _ in range(trials):
        z = complex(rng.normal(0, math.sqrt(0.5)), rng.normal(0, math.sqrt(0.5)))
        if decode_to_set([z], candidates) != 0:
            errors += 1
    p_hat = errors / trials
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
    product3 = build_product_code(diamond_code, 3)
    sets = {}
    for j in range(1, diamond_net.node_count):
        ts = enumerate_typical_receptions(diamond_net, product3, j, epsilon=3.0)
        sets[ts.slot] = ts
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=1, symbols_per_slot=2)
    empty = build_lifted_code(diamond_net, product3, pruned, epsilon=0.0)
    with pytest.raises(ConfigError):
        simulate_lifted(diamond_net, product3, empty, trials=10, noise=NoiseSpec(seed=1))


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
    product = build_product_code(diamond_code, 2)
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


def test_layered_simulation_with_a_destination_out_edge():
    # The destination (node 3) sits on level 1 and feeds node 2; like
    # run_dsn, the simulation pads its transmissions with zeros.
    g = ComplexGain(3.0, 0.0)
    net = RelayNetwork(
        node_count=4, edges=(Edge(0, 1, g), Edge(0, 3, g), Edge(1, 2, g), Edge(3, 2, g))
    )
    assert validate(net) == []
    assert layer_decomposition(net).levels == (frozenset({0}), frozenset({1, 3}), frozenset({2}))
    base = search_base_code(net, block_length=1, rate=1, attempts=100, seed=3)
    product = ProductCode(base, 2)
    lifted = _lift(net, product, epsilon=3.0, kappa_override=0.0, seed=1)
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
    # Block scheduling with a causal map: the relay sends emit_from(1, None)
    # at t = 1 and a map of its decided y(1) at t = 2.
    g = ComplexGain(3.0, 0.0)
    line = RelayNetwork(node_count=3, edges=(Edge(0, 1, g), Edge(1, 2, g)))
    A = enumerate_alphabet(1)
    code = with_derived_decoder(line, RelayCode(
        block_length=2, bit_depth=1, codebook=tuple((a, A[1]) for a in A),
        relay_maps={1: QuantizeForward(1, shift=1, causal=True)}, decoder={},
    ))
    product = ProductCode(code, 4)
    lifted = _lift(line, product, epsilon=1.0, kappa_override=0.125, seed=5)
    assert lifted.count == 56
    res = simulate_lifted(
        line, product, lifted, trials=3000, noise=NoiseSpec(7), use_offsets=use_offsets
    )
    assert res.scheduling == "layered"
    assert res.message_errors == message_errors
    assert res.block_errors == block_errors
    assert res.avg_power == {0: 0.2564895833333333, 1: relay_power}


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


def test_genie_bounds_validation(diamond_net):
    with pytest.raises(ValueError):
        verify_genie_bounds(diamond_net, samples=0, seed=1)
