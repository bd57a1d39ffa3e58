"""Kappa constants, typical-set pruning and code-lifting tests."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dsnlift.codes import ProductCode, search_base_code, trace_all
from dsnlift.lifting import (
    EmptyResult,
    KappaParams,
    build_lifted_code,
    kappa,
    kappa_mimo,
    prune_sets,
    rate_report,
)
from dsnlift.network import load_network
from dsnlift.pipeline import _load_base_code, _typical_sets, load_config, read_input_text
from dsnlift.typicality import (
    FiniteDistribution,
    ReceptionVectors,
    TypicalSet,
    _slot_key,
    entropy,
    enumerate_typical_receptions,
    is_strongly_typical,
)


def _manual_set(vector_count: int, n_rep: int, eps2: float = 0.5) -> TypicalSet:
    """A synthetic typical set with a chosen cardinality: every row over range(side)."""
    assert n_rep in (1, 2)
    side = vector_count if n_rep == 1 else math.isqrt(vector_count)
    assert side**n_rep == vector_count
    symbols = tuple(range(side))
    digits = np.indices((side,) * n_rep, dtype=np.int64).reshape(n_rep, -1).T
    vectors = ReceptionVectors(symbols, digits)
    dist = FiniteDistribution.uniform(symbols)
    return TypicalSet(
        slot=1,
        epsilon=1.0,
        n_rep=n_rep,
        dist=dist,
        vectors=vectors,
        epsilon_2=eps2,
        envelope=(1.0, float(vector_count)),
    )


def _diamond_sets(diamond_net, diamond_code, n_rep, epsilon):
    product = ProductCode(diamond_code, n_rep)
    sets = {}
    for j in range(1, diamond_net.node_count):
        ts = enumerate_typical_receptions(diamond_net, product, j, epsilon)
        sets[ts.slot] = ts
    return product, sets


def test_kappa_frozen_values():
    assert kappa(1) == pytest.approx(14.321928094887362, abs=1e-12)
    assert kappa(2) == pytest.approx(15.459431618637297, abs=1e-12)
    assert kappa_mimo(2) == pytest.approx(33.047123912114024, abs=1e-12)
    with pytest.raises(ValueError):
        kappa(0)
    with pytest.raises(ValueError):
        kappa_mimo(0)


def test_kappa_params_reference_and_override(diamond_net):
    params = KappaParams.for_network(diamond_net)
    assert params.node_count_m == 3
    assert params.reference == pytest.approx(kappa(3), abs=1e-15)
    assert params.effective == params.reference

    overridden = KappaParams.for_network(diamond_net, override=0.25)
    assert overridden.reference == params.reference
    assert overridden.effective == 0.25

    mimo = KappaParams(node_count_m=2, antenna_mode="mimo2x2")
    assert mimo.reference == pytest.approx(kappa_mimo(2), abs=1e-15)


def test_prune_keeps_everything_at_zero_cost():
    ts = _manual_set(1024, n_rep=2)
    params = KappaParams(node_count_m=1, override=0.0)
    pruned = prune_sets({1: ts}, params, eta=0.0, master_seed=5, symbols_per_slot=1)
    assert pruned.sets[1] == ts.vectors
    assert pruned.exponents[1] == 0.0


def test_prune_fraction_example():
    # 1024 vectors at exponent 4: exactly 64 survive.
    ts = _manual_set(1024, n_rep=2)
    params = KappaParams(node_count_m=1, override=2.0)
    pruned = prune_sets({1: ts}, params, eta=0.0, master_seed=5, symbols_per_slot=1)
    assert pruned.exponents[1] == 4.0
    assert len(pruned.sets[1]) == 64
    assert all(v in set(ts.vectors) for v in pruned.sets[1])
    lo, hi = pruned.bounds[1]
    assert 0 < lo <= hi


def test_prune_is_seed_deterministic_and_seed_sensitive():
    ts = _manual_set(1024, n_rep=2)
    params = KappaParams(node_count_m=1, override=2.0)
    a = prune_sets({1: ts}, params, eta=0.0, master_seed=9, symbols_per_slot=1)
    b = prune_sets({1: ts}, params, eta=0.0, master_seed=9, symbols_per_slot=1)
    assert a.sets == b.sets

    # Across seeds the 64-subsets should overlap like random draws:
    # hypergeometric mean 64 * 64 / 1024 = 4 elements.
    overlaps = []
    for seed in range(30):
        other = prune_sets({1: ts}, params, eta=0.0, master_seed=100 + seed, symbols_per_slot=1)
        assert other.sets != a.sets
        overlaps.append(len(set(a.sets[1]) & set(other.sets[1])))
    mean = sum(overlaps) / len(overlaps)
    assert 2.5 < mean < 5.5


def test_prune_rounds_half_away_from_zero():
    ts = _manual_set(16, n_rep=1)
    params = KappaParams(node_count_m=1, override=5.0)
    pruned = prune_sets({1: ts}, params, eta=0.0, master_seed=1, symbols_per_slot=1)
    assert len(pruned.sets[1]) == 1


def test_prune_raises_empty_result_with_slot_list():
    ts = _manual_set(16, n_rep=1)
    params = KappaParams(node_count_m=1, override=6.0)
    with pytest.raises(EmptyResult) as exc:
        prune_sets({1: ts}, params, eta=0.0, master_seed=1, symbols_per_slot=1)
    assert list(exc.value.slots) == [1]


def test_prune_eta_policy_uses_per_slot_epsilon2():
    ts = _manual_set(16, n_rep=1, eps2=1.0)
    params = KappaParams(node_count_m=1, override=0.0)
    pruned = prune_sets({1: ts}, params, eta="epsilon2", master_seed=1, symbols_per_slot=1)
    assert pruned.exponents[1] == pytest.approx(2.0)
    assert len(pruned.sets[1]) == 4
    assert pruned.eta == "epsilon2"

    starving = _manual_set(16, n_rep=1, eps2=3.0)
    with pytest.raises(EmptyResult):
        prune_sets({1: starving}, params, eta="epsilon2", master_seed=1, symbols_per_slot=1)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _reference_prune_sets(typical_sets, kappa_params, eta, master_seed, symbols_per_slot):
    """prune_sets as it was written before sizing, drawing and pricing were
    merged: two loops that each price a slot, and an EmptyResult without advice."""
    if not typical_sets:
        raise ValueError("no typical sets to prune")
    if len({isinstance(slot, int) for slot in typical_sets}) != 1:
        raise ValueError("typical sets mix node slots and (node, t) slots")
    n_reps = {ts.n_rep for ts in typical_sets.values()}
    if len(n_reps) != 1:
        raise ValueError("typical sets disagree on n_rep")
    n_rep = n_reps.pop()
    k_eff = kappa_params.effective
    if isinstance(eta, str) and eta != "epsilon2":
        raise ValueError(f"unknown eta policy {eta!r}")

    def eta_for(ts):
        return ts.epsilon_2 if isinstance(eta, str) else float(eta)

    sizes, exponents, starved = {}, {}, []
    for slot in sorted(typical_sets):
        ts = typical_sets[slot]
        exponent = n_rep * (symbols_per_slot * k_eff + 2.0 * eta_for(ts))
        exponents[slot] = exponent
        size = _round_half_away(len(ts.vectors) * 2.0 ** (-exponent))
        sizes[slot] = size
        if size == 0:
            starved.append(slot)
    if starved:
        raise EmptyResult(starved, f"pruned sets empty at slots {starved}")

    sets, bounds = {}, {}
    for slot, ts in typical_sets.items():
        rng = np.random.default_rng(np.random.SeedSequence([master_seed] + _slot_key(slot)))
        order = rng.permutation(len(ts.vectors))[: sizes[slot]]
        sets[slot] = ReceptionVectors(ts.vectors.alphabet, ts.vectors.digits[np.sort(order)])
        h = entropy(ts.dist)
        lo = 2.0 ** (n_rep * (h - symbols_per_slot * k_eff - 3.0 * ts.epsilon_2))
        hi = 2.0 ** (n_rep * (h + ts.epsilon_2 - symbols_per_slot * k_eff - 2.0 * eta_for(ts)))
        bounds[slot] = (lo, hi)
    return sets, exponents, bounds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n_rep=st.sampled_from([1, 2]),
    pairs=st.booleans(),
    override=st.sampled_from([None, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
    eta=st.sampled_from([0, 0.0, 0.125, 0.5, 1.0, "epsilon2"]),
    symbols_per_slot=st.integers(1, 3),
    master_seed=st.integers(0, 2**32 - 1),
)
def test_prune_sets_matches_the_two_loop_reference(
    data, n_rep, pairs, override, eta, symbols_per_slot, master_seed
):
    sides = data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=4), label="sides")
    eps2s = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
    keys = [(j, 1 + j % 2) if pairs else j for j in range(1, len(sides) + 1)]
    sets = {
        key: dataclasses.replace(_manual_set(side**n_rep, n_rep, data.draw(eps2s)), slot=key)
        for key, side in zip(data.draw(st.permutations(keys), label="order"), sides)
    }
    params = KappaParams(node_count_m=len(sides), override=override)
    args = (sets, params, eta, master_seed, symbols_per_slot)
    try:
        expected = _reference_prune_sets(*args)
    except EmptyResult as exc:
        with pytest.raises(EmptyResult) as got:
            prune_sets(*args)
        assert got.value.slots == exc.slots
        return
    pruned = prune_sets(*args)
    assert (pruned.sets, pruned.exponents, pruned.bounds) == expected


def test_prune_formula_kappa_refusal_says_to_override():
    ts = _manual_set(16, n_rep=1)
    formula = KappaParams(node_count_m=3)
    with pytest.raises(EmptyResult) as exc:
        prune_sets({1: ts, 2: ts}, formula, eta=0.0, master_seed=1, symbols_per_slot=1)
    assert exc.value.slots == (1, 2)
    assert "kappa_override" in str(exc.value)
    assert f"{formula.reference:.3f}" in str(exc.value)

    overridden = KappaParams(node_count_m=3, override=6.0)
    with pytest.raises(EmptyResult) as exc:
        prune_sets({1: ts, 2: ts}, overridden, eta=0.0, master_seed=1, symbols_per_slot=1)
    assert exc.value.slots == (1, 2)
    assert "kappa_override" not in str(exc.value)
    assert f"{formula.reference:.3f}" not in str(exc.value)


def test_prune_input_validation():
    ts = _manual_set(16, n_rep=1)
    params = KappaParams(node_count_m=1, override=0.0)
    with pytest.raises(ValueError):
        prune_sets({}, params, eta=0.0, master_seed=1, symbols_per_slot=1)
    with pytest.raises(ValueError):
        prune_sets({1: ts}, params, eta="bogus", master_seed=1, symbols_per_slot=1)
    mixed = {1: ts, 2: _manual_set(1024, n_rep=2)}
    with pytest.raises(ValueError):
        prune_sets(mixed, params, eta=0.0, master_seed=1, symbols_per_slot=1)


def test_prune_rejects_mixed_slot_kinds():
    # One run's slots are all node ids or all (node, t) pairs; their
    # natural order is the slot order only then.
    ts = _manual_set(16, n_rep=1)
    params = KappaParams(node_count_m=2, override=0.0)
    with pytest.raises(ValueError, match="mix"):
        prune_sets({1: ts, (2, 1): ts}, params, eta=0.0, master_seed=1, symbols_per_slot=1)


def test_lift_with_full_sets_keeps_typical_codewords(diamond_net, diamond_code):
    product, sets = _diamond_sets(diamond_net, diamond_code, n_rep=2, epsilon=3.0)
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=7, symbols_per_slot=2)
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
    assert lifted.count == 16
    assert lifted.codeword_indices == tuple(range(16))

    # Provenance indices must point at the codeword's actual receptions.
    traces = trace_all(diamond_net, diamond_code)
    for ci in lifted.codeword_indices:
        digits = product.message_tuple(ci)
        for slot, idx in lifted.provenance[ci].items():
            vec = tuple(traces[d].received[slot] for d in digits)
            assert pruned.sets[slot][idx] == vec


def test_lift_exact_digit_typicality_count(diamond_net, diamond_code):
    # eps = 0 keeps exactly the digit-balanced codewords: 4!/(1!^4) = 24.
    product, sets = _diamond_sets(diamond_net, diamond_code, n_rep=4, epsilon=0.0)
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=7, symbols_per_slot=2)
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=0.0)
    assert lifted.count == 24


def test_lift_empty_is_an_outcome(diamond_net, diamond_code):
    # Keep every reception (wide epsilon, no pruning) but demand exactly
    # balanced digits at the lift: n_rep = 3 admits no such sequence over
    # 4 messages, so the lifted code legitimately comes out empty.
    product, sets = _diamond_sets(diamond_net, diamond_code, n_rep=3, epsilon=3.0)
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=7, symbols_per_slot=2)
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=0.0)
    assert lifted.count == 0
    report = rate_report(lifted, product, sets)
    assert report.empty
    assert report.achieved_rate == 0.0


def test_rate_report_full_survival(diamond_net, diamond_code):
    product, sets = _diamond_sets(diamond_net, diamond_code, n_rep=2, epsilon=3.0)
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=7, symbols_per_slot=2)
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
    report = rate_report(lifted, product, sets)
    assert report.codeword_count == 16
    assert report.log2_count == pytest.approx(4.0)
    assert report.achieved_rate == pytest.approx(1.0)
    assert report.base_rate == pytest.approx(1.0)
    assert report.gap_to_base == pytest.approx(0.0)
    assert report.predicted_rate == pytest.approx(1.0)
    assert report.kappa_reference == pytest.approx(kappa(3))
    assert report.kappa_effective == 0.0
    eps2_max = max(ts.epsilon_2 for ts in sets.values())
    assert report.epsilon_m == pytest.approx(10 * eps2_max)
    assert not report.empty


def test_lifted_cardinality_tracks_pruning_exponent(diamond_net, diamond_code):
    # One seeded instance of the cardinality algebra at desk scale.
    product, sets = _diamond_sets(diamond_net, diamond_code, n_rep=8, epsilon=3.0)
    params = KappaParams.for_network(diamond_net, override=0.25)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=77, symbols_per_slot=2)
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
    assert lifted.count > 0
    # Expected: log2 |C0| - M n_rep N kappa = 16 - 12 = 4 bits, so the
    # survivor count should be within a few bits of 2**4.
    assert 0 < math.log2(lifted.count) < 8


def _reference_lift(net, product, pruned, epsilon):
    """The per-codeword loop: joint typicality of the source and reception
    blocks, then dict lookups of tuple reception vectors.

    Joint typicality is decided on the zipped sequence of each use's
    (source block, reception block of nodes 1..M) under the law the code
    induces: the uniform message law puts mass 1/K on each message's
    tuple.  build_lifted_code decides digit typicality instead, so the
    two agree only if the reduction it relies on holds.
    """
    traces = trace_all(net, product.base)
    joint = [
        (tr.transmitted[net.source],) + tuple(tr.received[j] for j in range(1, net.node_count))
        for tr in traces
    ]
    induced = FiniteDistribution.from_counts(Counter(joint))
    slots = sorted(pruned.sets, key=lambda s: [s] if isinstance(s, int) else list(s))
    values = {
        slot: [
            tr.received[slot] if isinstance(slot, int) else tr.received[slot[0]][slot[1] - 1]
            for tr in traces
        ]
        for slot in slots
    }
    index_maps = {slot: {vec: i for i, vec in enumerate(pruned.sets[slot])} for slot in slots}
    survivors, provenance = [], {}
    for ci in range(product.codeword_count):
        digits = product.message_tuple(ci)
        if not is_strongly_typical([joint[d] for d in digits], induced, epsilon):
            continue
        prov = {}
        for slot in slots:
            idx = index_maps[slot].get(tuple(values[slot][d] for d in digits))
            if idx is None:
                break
            prov[slot] = idx
        else:
            survivors.append(ci)
            provenance[ci] = prov
    return tuple(survivors), provenance


def _shipped_setup(name, n_rep, epsilon):
    cfg = load_config(read_input_text(f"{name}_pipeline"))
    net = load_network(read_input_text(cfg.network))
    base, _ = _load_base_code(cfg, net)
    product = ProductCode(base, n_rep)
    sets, symbols_per_slot, _ = _typical_sets(net, product, epsilon)
    return net, product, sets, symbols_per_slot, cfg.kappa_override


@pytest.mark.parametrize(
    "name, n_rep, set_epsilon, lift_epsilon",
    [
        ("line", 6, 3.0, 3.0),
        ("line", 8, 0.5, 0.5),
        ("diamond", 3, 3.0, 3.0),
        ("diamond", 4, 0.5, 0.5),
        ("diamond", 4, 3.0, 0.0),
        ("diamond", 3, 3.0, 0.0),  # no balanced digit row: an empty code
        ("nonlayered", 6, 3.0, 3.0),
        ("nonlayered", 8, 1.0, 1.0),
    ],
)
def test_lift_matches_per_codeword_loop(name, n_rep, set_epsilon, lift_epsilon):
    net, product, sets, symbols_per_slot, override = _shipped_setup(name, n_rep, set_epsilon)
    params = KappaParams.for_network(net, override=override / 2)
    for seed in range(4):
        pruned = prune_sets(sets, params, eta=0.0, master_seed=seed, symbols_per_slot=symbols_per_slot)
        lifted = build_lifted_code(net, product, pruned, lift_epsilon)
        survivors, provenance = _reference_lift(net, product, pruned, lift_epsilon)
        assert lifted.codeword_indices == survivors
        assert lifted.provenance == provenance
        assert [list(p) for p in lifted.provenance.values()] == [list(p) for p in provenance.values()]
    if (name, n_rep, lift_epsilon) == ("diamond", 3, 0.0):
        assert survivors == ()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["line", "diamond", "nonlayered"]),
    rate=st.sampled_from([0.5, 1.0]),
    search_seed=st.integers(0, 2**16),
    n_rep=st.integers(2, 4),
    set_epsilon=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    epsilon=st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.75, 3.0]),
    override=st.sampled_from([0.0, 0.0625, 0.125]),
    prune_seed=st.integers(0, 2**16),
)
# A quarter step below a count boundary, where the reception sets at
# epsilon 3 impose nothing and the digit filter alone decides: with K = 2
# and n_rep = 2 the row (0, 0) is typical at 1 but not at 0.75, and with
# K = 4 and n_rep = 4 the row (0, 0, 0, 1) at 2 but not at 1.75.
@example(name="line", rate=0.5, search_seed=0, n_rep=2, set_epsilon=3.0, epsilon=0.75,
         override=0.0, prune_seed=0)
@example(name="line", rate=1.0, search_seed=0, n_rep=4, set_epsilon=3.0, epsilon=1.75,
         override=0.0, prune_seed=0)
def test_lift_matches_joint_typicality_on_random_base_codes(
    name, rate, search_seed, n_rep, set_epsilon, epsilon, override, prune_seed
):
    net = load_network(read_input_text(name))
    base = search_base_code(net, block_length=2, rate=rate, attempts=50, seed=search_seed)
    assume(base is not None)
    product = ProductCode(base, n_rep)
    sets, symbols_per_slot, _ = _typical_sets(net, product, set_epsilon)
    params = KappaParams.for_network(net, override=override)
    try:
        pruned = prune_sets(sets, params, eta=0.0, master_seed=prune_seed, symbols_per_slot=symbols_per_slot)
    except EmptyResult:
        assume(False)
    lifted = build_lifted_code(net, product, pruned, epsilon)
    survivors, provenance = _reference_lift(net, product, pruned, epsilon)
    assert lifted.codeword_indices == survivors
    assert lifted.provenance == provenance


def _rows(rows, dtype=np.int64):
    return np.asarray(rows, dtype=dtype)


@pytest.mark.parametrize(
    "alphabet, digits",
    [
        ((0, 1), _rows([[0, 2], [1, 0]])),  # a digit outside the alphabet
        ((0, 1), _rows([[0, -1], [1, 0]])),  # a negative digit
        ((0, 1), _rows([0, 1])),  # rows that are not 2-D
        ((0, 1), _rows([[[0], [1]]])),  # nor 3-D
        ((0, 1), _rows([[0, 1], [1, 0]], np.int32)),  # not int64
        ((0, 1), [[0, 1], [1, 0]]),  # not an array
        ((0, 1), _rows([[0, 1], [0, 1]])),  # a duplicate row
        ((0, 1), _rows([[1, 0], [0, 1]])),  # rows out of order
        ((1, 0), _rows([[0, 1], [1, 0]])),  # an alphabet out of tuple order
        ((0, 0), _rows([[0, 1], [1, 0]])),  # a repeated alphabet value
        ((0, 1), _rows([[0] * 64])),  # codes past int64
    ],
)
def test_reception_vectors_reject_malformed_rows(alphabet, digits):
    with pytest.raises(ValueError):
        ReceptionVectors(alphabet, digits)


def test_reception_vectors_sequence_face():
    vectors = ReceptionVectors(((0, 1), (2, 0)), np.asarray([[0, 0], [0, 1], [1, 0]], dtype=np.int64))
    assert len(vectors) == 3
    assert vectors[1] == ((0, 1), (2, 0))
    assert list(vectors) == [vectors[i] for i in range(3)]
    assert vectors == ReceptionVectors(vectors.alphabet, vectors.digits.copy())
    assert vectors != ReceptionVectors(vectors.alphabet, vectors.digits[1:])
    assert vectors.codes.tolist() == [0, 1, 2]


def test_lift_with_a_narrow_alphabet_and_rows_of_another_length(diamond_net, diamond_code):
    # A hand-made set at slot 1 whose alphabet leaves out one block that
    # node 1 receives: codewords using that block are in no vector.
    product, sets = _diamond_sets(diamond_net, diamond_code, n_rep=2, epsilon=3.0)
    params = KappaParams.for_network(diamond_net, override=0.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=3, symbols_per_slot=2)
    full = pruned.sets[1]
    keep = (full.digits > 0).all(axis=1)
    narrow = ReceptionVectors(full.alphabet[1:], full.digits[keep] - 1)
    edited = dataclasses.replace(pruned, sets={**pruned.sets, 1: narrow})
    lifted = build_lifted_code(diamond_net, product, edited, epsilon=3.0)
    survivors, provenance = _reference_lift(diamond_net, product, edited, 3.0)
    assert lifted.codeword_indices == survivors
    assert lifted.provenance == provenance
    assert len(survivors) == 9

    wide = ReceptionVectors(full.alphabet, full.digits[:, [0, 1, 1]])
    with pytest.raises(ValueError):
        build_lifted_code(
            diamond_net, product, dataclasses.replace(pruned, sets={**pruned.sets, 1: wide}), 3.0
        )
