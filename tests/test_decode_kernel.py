"""The simulation's decisions and lookup tables against their oracles.

Decisions read one per-use cost table: stage 1 looks up its per-use
argmin, and the kernel, stage 2, sums it per member with one-hot
products.  The oracles are the dense complex distance with
argmin/threshold, the per-vector candidate, offset and re-encode loops,
and the per-trial destination loop that the tables replaced.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsnlift import gaussian
from dsnlift.channel import ComplexGain, symbol_value
from dsnlift.codes import ProductCode, QuantizeForward, RelayCode, deserialize_code, trace_all
from dsnlift.gaussian import (
    _CHUNK,
    DEFAULT_THRESHOLD,
    LOG2E,
    NoiseSpec,
    _decide,
    _destination_messages,
    _first_argmin,
    _gather,
    _set_layout,
    _slot_tables,
    _SlotTable,
    _symbol_table,
    simulate_lifted,
)
from dsnlift.lifting import KappaParams, build_lifted_code, prune_sets
from dsnlift.network import Edge, RelayNetwork, load_network
from dsnlift.pipeline import _load_base_code, _typical_sets, load_config, read_input_text
from dsnlift.typicality import ReceptionVectors, _slot_node

from conftest import derive_decoder, read_at

# --- oracle: dense complex distances ------------------------------------------


def _distance_sq(y, cands):
    yy = np.sum(np.abs(y) ** 2, axis=-1, keepdims=True)
    cc = np.sum(np.abs(cands) ** 2, axis=-1)
    cross = y @ np.conj(cands).T
    return np.maximum(yy + cc - 2.0 * cross.real, 0.0)


def _oracle_decode(y, effective, method, threshold, chunk=2048):
    trials, L = y.shape
    chosen = np.empty(trials, dtype=np.int64)
    failed = np.zeros(trials, dtype=bool)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        d2 = _distance_sq(y[lo:hi], effective)
        ml = np.argmin(d2, axis=1)
        if method == "threshold":
            mean_loglik = -math.log2(math.pi) - (d2 / L) * LOG2E
            passing = mean_loglik > threshold
            unique = passing.sum(axis=1) == 1
            chosen[lo:hi] = np.where(unique, np.argmax(passing, axis=1), ml)
            failed[lo:hi] = ~unique
        else:
            chosen[lo:hi] = ml
    return chosen, failed


def _decided_by_rounding(y, effective, method, threshold):
    """Trials whose decision a rounding difference could flip, and the
    candidates within rounding of the nearest one.

    Near-equal distances to rows that are not exact copies of each other,
    or a log-likelihood within rounding of the threshold, leave the
    outcome to the last bits of the arithmetic.  Exact copies always tie,
    and both sides must then pick the lowest index.
    """
    d2 = _distance_sq(y, effective)
    L = y.shape[1]
    scale = np.sum(np.abs(y) ** 2, axis=1) + np.max(np.sum(np.abs(effective) ** 2, axis=1))
    tol = 1e-9 * (1.0 + scale)
    near = d2 <= d2.min(axis=1, keepdims=True) + tol[:, None]
    rounding = np.zeros(len(y), dtype=bool)
    for i in range(len(y)):
        rows = effective[near[i]]
        rounding[i] = not (rows == rows[0]).all()
    if method == "threshold":
        margin = np.abs(-math.log2(math.pi) - (d2 / L) * LOG2E - threshold)
        rounding |= (margin <= tol[:, None] * LOG2E / L).any(axis=1)
    return rounding, near


def _table(rows, digits):
    """A decision slot over per-value ``rows`` whose set is ``digits``."""
    codes = ReceptionVectors(tuple(range(len(rows))), digits).codes
    return _SlotTable(slice(0, rows.shape[1]), rows, codes, *_set_layout(rows, digits), None, None)


def _whole(effective):
    """A one-use decision slot whose members are the rows of ``effective``."""
    return _table(effective, np.arange(len(effective))[:, None])


@settings(max_examples=60, deadline=None)
@given(
    base_rows=st.lists(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=3),
        min_size=1, max_size=5,
    ),
    width=st.integers(1, 3),
    copies=st.integers(0, 4),
    trials=st.sampled_from([1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 77]),
    method=st.sampled_from(["ml", "threshold"]),
    threshold=st.floats(-6.0, -1.0),
    offset_scale=st.sampled_from([0.0, 0.25, 1.0]),
    noise_scale=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_dense_complex_oracle(
    base_rows, width, copies, trials, method, threshold, offset_scale, noise_scale, seed
):
    rng = np.random.default_rng(seed)
    ints = np.asarray([[complex(re, im) for re, im in row[:width]] for row in base_rows])
    offs = offset_scale * (rng.normal(size=ints.shape) + 1j * rng.normal(size=ints.shape))
    # Exact copies of candidate rows, at random places.
    order = rng.permutation(np.concatenate([np.arange(len(ints)), rng.integers(len(ints), size=copies)]))
    ints, offs = ints[order], offs[order]
    effective = ints + offs

    # Receptions: noisy candidates, some exactly on one, some at the
    # midpoint of two.
    target = rng.integers(len(effective), size=trials)
    other = rng.integers(len(effective), size=trials)
    noise = rng.normal(size=(trials, width)) + 1j * rng.normal(size=(trials, width))
    y = effective[target] + noise_scale * noise
    kind = rng.integers(10, size=trials)
    y[kind == 0] = effective[target[kind == 0]]
    y[kind == 1] = (effective[target[kind == 1]] + effective[other[kind == 1]]) / 2

    # Whole candidates as the values of a one-use alphabet.
    chosen, failed = _decide(y, _whole(effective), method, threshold)
    want_chosen, want_failed = _oracle_decode(y, effective, method, threshold)
    rounding, near = _decided_by_rounding(y, effective, method, threshold)
    # The complex product may round exact copies apart and so pick a later
    # copy; a decision picks the first.
    first_copy = np.asarray([(effective == row).all(axis=1).argmax() for row in effective])
    want_chosen = first_copy[want_chosen]
    assert np.array_equal(chosen, first_copy[chosen])
    assert np.array_equal(chosen[~rounding], want_chosen[~rounding])
    assert np.array_equal(failed[~rounding], want_failed[~rounding])
    if method == "ml":
        assert not failed.any()
        assert near[np.arange(trials), chosen].all()
    if (kind >= 2).sum() > 10:
        assert (~rounding).mean() > 0.5


def test_kernel_ties_go_to_the_lowest_index_across_chunks():
    effective = np.asarray([[2 + 0j], [0j], [0j], [2 + 0j]])
    y = np.full((_CHUNK + 3, 1), 1 + 0j)  # equidistant from every row
    y[_CHUNK] = 0j
    # Stage 1 settles every ML trial.  Every threshold trial goes through
    # the kernel, sees two or more passing rows, fails and keeps the ML
    # choice.
    for method in ("ml", "threshold"):
        chosen, failed = _decide(y, _whole(effective), method, DEFAULT_THRESHOLD)
        assert (failed == (method == "threshold")).all()
        assert chosen[_CHUNK] == 1
        assert (np.delete(chosen, _CHUNK) == 0).all()


def test_kernel_threshold_fails_on_copies_and_keeps_ml():
    effective = np.asarray([[0j], [0j], [5 + 0j]])
    y = np.asarray([[0.1 + 0j], [5 + 0j], [40 + 40j]])
    chosen, failed = _decide(y, _whole(effective), "threshold", -2.0)
    # Two exact copies both pass: no unique decision, ML index kept.
    assert chosen.tolist() == [0, 2, 2] and failed.tolist() == [True, False, True]


# --- two-stage decisions: per-use argmin and set lookup, then the kernel ----


@settings(max_examples=100, deadline=None)
@given(
    values=st.integers(1, 6),
    trials=st.integers(1, 40),
    n_rep=st.integers(1, 5),
    levels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_argmin_matches_argmin_with_exact_ties(values, trials, n_rep, levels, seed):
    # Few integer levels make exact ties common; the rest are continuous.
    rng = np.random.default_rng(seed)
    costs = rng.integers(levels, size=(values, trials, n_rep)).astype(np.float64)
    spread = rng.random(costs.shape) < 0.3
    costs[spread] = rng.random(int(spread.sum())) * levels
    got = _first_argmin(costs)
    assert got.dtype == np.int64
    assert np.array_equal(got, costs.argmin(axis=0))


def _stage_two_trials(monkeypatch):
    """Trial counts of every stage-2 step from now on."""
    seen = []
    choose = gaussian._choose

    def counting(d2, *args):
        seen.append(len(d2))
        return choose(d2, *args)

    monkeypatch.setattr(gaussian, "_choose", counting)
    return seen


def _steps(*trials):
    """Stage-2 step sizes of slots that send ``trials`` to stage 2."""
    return [min(_CHUNK, n - lo) for n in trials for lo in range(0, n, _CHUNK)]


@settings(max_examples=60, deadline=None)
@example(
    # OpenBLAS can add the terms of the three exact copies in different
    # orders here and round them apart; first_copy maps the pick back to
    # the first.
    values=1, copies=2, n_rep=3, width=1, keep=0.5, trials=1, method="ml",
    threshold=-1.0, offset_scale=0.0, noise_scale=0.3, seed=73430850,
)
@given(
    values=st.integers(1, 5),
    copies=st.integers(0, 2),
    n_rep=st.integers(1, 4),
    width=st.integers(1, 3),
    keep=st.floats(0.05, 1.0),
    trials=st.sampled_from([1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 77]),
    method=st.sampled_from(["ml", "threshold"]),
    threshold=st.floats(-6.0, -1.0),
    offset_scale=st.sampled_from([0.0, 0.25]),
    noise_scale=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_stage_decision_matches_dense_complex_oracle(
    values, copies, n_rep, width, keep, trials, method, threshold, offset_scale, noise_scale, seed
):
    rng = np.random.default_rng(seed)
    ints = rng.integers(-3, 4, size=(values, width)) + 1j * rng.integers(-3, 4, size=(values, width))
    rows = ints + offset_scale * (rng.normal(size=ints.shape) + 1j * rng.normal(size=ints.shape))
    # Exact copies of per-value rows, at random places.
    rows = rng.permutation(np.concatenate([rows, rows[rng.integers(values, size=copies)]]))
    every = np.indices((len(rows),) * n_rep, dtype=np.int64).reshape(n_rep, -1).T
    digits = every[np.sort(rng.choice(len(every), max(1, int(keep * len(every))), replace=False))]
    table = _table(rows, digits)
    effective = _gather(rows, digits)

    # Receptions: noisy digit rows, members or not, some exactly on one,
    # some at the midpoint of two members.
    y = _gather(rows, every[rng.integers(len(every), size=trials)])
    y = y + noise_scale * (rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape))
    kind = rng.integers(10, size=trials)
    target = effective[rng.integers(len(effective), size=trials)]
    other = effective[rng.integers(len(effective), size=trials)]
    y[kind == 0] = target[kind == 0]
    y[kind == 1] = (target[kind == 1] + other[kind == 1]) / 2

    chosen, failed = _decide(y, table, method, threshold)
    want_chosen, want_failed = _oracle_decode(y, effective, method, threshold)
    rounding, near = _decided_by_rounding(y, effective, method, threshold)
    first_copy = np.asarray([(effective == row).all(axis=1).argmax() for row in effective])
    want_chosen = first_copy[want_chosen]
    assert chosen.dtype == np.int64 and failed.dtype == bool
    assert np.array_equal(chosen, first_copy[chosen])
    assert np.array_equal(chosen[~rounding], want_chosen[~rounding])
    assert np.array_equal(failed[~rounding], want_failed[~rounding])
    if method == "ml":
        assert not failed.any()
        assert near[np.arange(trials), chosen].all()


def test_two_stage_reaches_a_later_copy_through_the_kernel(monkeypatch):
    # Values 0 and 1 are exact copies.  The per-use argmin near 0 is the
    # digit row (0, 0), which is not in the set; the members (0, 1),
    # (1, 0) and (1, 1) tie exactly, and the kernel takes the first.
    rows = np.asarray([[0j], [0j], [5 + 0j]])
    table = _table(rows, np.asarray([[0, 1], [1, 0], [1, 1], [2, 2]], dtype=np.int64))
    y = np.asarray([[0.1 + 0j, -0.2j], [5 + 0j, 4.9 + 0j], [0j, 0j]])
    seen = _stage_two_trials(monkeypatch)
    chosen, failed = _decide(y, table, "ml", DEFAULT_THRESHOLD)
    assert chosen.tolist() == [0, 3, 0] and not failed.any()
    assert seen == _steps(2)


def test_diamond_simulation_sends_few_trials_to_the_kernel(monkeypatch):
    # A guard on work, not time: stage 1 settles all but 1,907 of the
    # 30,000 ML decisions of the shipped diamond simulation.
    _, net, product, lifted = _shipped("diamond")
    seen = _stage_two_trials(monkeypatch)
    simulate_lifted(net, product, lifted, trials=10_000, noise=NoiseSpec(seed=3))
    assert seen == _steps(949, 878, 80)


# --- oracle: per-vector tables and the per-trial destination ----------------


def _shipped(name):
    cfg = load_config(read_input_text(f"{name}_pipeline"))
    net = load_network(read_input_text(cfg.network))
    base, _ = _load_base_code(cfg, net)
    product = ProductCode(base, cfg.n_rep)
    sets, symbols_per_slot, _ = _typical_sets(net, product, cfg.epsilon)
    kp = KappaParams.for_network(net, override=cfg.kappa_override)
    pruned = prune_sets(sets, kp, cfg.eta, cfg.prune_seed, symbols_per_slot)
    lifted = build_lifted_code(net, product, pruned, cfg.epsilon)
    return cfg, net, product, lifted


def _v_block(net, tr, node, t):
    acc = 0j
    for e in net.in_edges(node):
        acc += e.gain.as_complex() * symbol_value(tr.transmitted[e.src][t], net.bit_depth)
    y = tr.received[node][t]
    return acc - complex(y[0], y[1])


def _reference_layered_tables(net, product, pruned, use_offsets):
    base = product.base
    N = base.block_length
    traces = trace_all(net, base)
    effective, reencode, messages = {}, {}, None
    for j in range(1, net.node_count):
        vb = {}
        for tr in traces:
            block = tr.received[j]
            if block not in vb:
                vb[block] = [_v_block(net, tr, j, t) for t in range(N)]
        rows, offs = [], []
        for vec in pruned.sets[j]:
            rows.append([complex(re, im) for block in vec for re, im in block])
            offs.append([v for block in vec for v in vb[block]])
        cand = np.asarray(rows, dtype=np.complex128)
        effective[j] = cand + np.asarray(offs, dtype=np.complex128) if use_offsets else cand
        if j == net.destination:
            table = []
            for vec in pruned.sets[j]:
                d = product.decode(tuple(pair for block in vec for pair in block))
                table.append(-1 if d is None else d)
            messages = np.asarray(table, dtype=np.int64)
        else:
            rm = base.relay_maps[j]
            # A causal map's time 1 reads nothing, so no decision sets it.
            sends = range(1 + rm.causal, N + 1)
            reencode[j] = np.asarray(
                [
                    [symbol_value(rm.emit_from(t, read_at(rm, t, block)), base.bit_depth)
                     for block in vec for t in sends]
                    for vec in pruned.sets[j]
                ],
                dtype=np.complex128,
            )
    return effective, reencode, messages


def _first_copies(effective):
    """Each member's first member with the same effective row."""
    _, first, same = np.unique(effective, axis=0, return_index=True, return_inverse=True)
    return first[same.reshape(-1)]


def _reference_interleaved_tables(net, base, pruned, use_offsets):
    traces = trace_all(net, base)
    effective, reencode = {}, {}
    for (node, t), vectors in pruned.sets.items():
        v = {}
        for tr in traces:
            val = tr.received[node][t - 1]
            if val not in v:
                v[val] = _v_block(net, tr, node, t - 1)
        cand = np.asarray([[complex(re, im) for re, im in vec] for vec in vectors])
        offs = np.asarray([[v[sym] for sym in vec] for vec in vectors])
        effective[(node, t)] = cand + offs if use_offsets else cand
        if node != net.destination and t < base.block_length:
            rm = base.relay_maps[node]
            reencode[(node, t)] = np.asarray(
                # A causal map reads at t + 1 the reception at t.
                [[symbol_value(rm.emit_from(t + 1, sym), base.bit_depth) for sym in vec]
                 for vec in vectors]
            )
    return effective, reencode


def _reference_destination(product, sets, chosen):
    """Message decoded per trial, or -1, one trial and use at a time: each
    use's reception joins, in time order, a block slot's decided block or
    an interleaved slot's decided symbol."""
    slots = sorted(chosen)
    messages = np.full(len(chosen[slots[0]]), -1, dtype=np.int64)
    for trial in range(len(messages)):
        digits = []
        for use in range(product.n_rep):
            reception = ()
            for s in slots:
                value = sets[s][int(chosen[s][trial])][use]
                reception += value if isinstance(s, int) else (value,)
            d = product.base.decoder.get(reception)
            if d is None:
                break
            digits.append(d)
        else:
            messages[trial] = product.message_index(digits)
    return messages


def _same(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]), k


def _tables(tables, numberings, pruned, bit_depth):
    """Effective rows of every slot, and re-encode rows of every slot that
    sends, read through its node's symbol numbering."""
    effective = {s: _gather(tb.rows, pruned.sets[s].digits) for s, tb in tables.items()}
    reencode = {
        s: _symbol_table(numberings[_slot_node(s)], bit_depth)[tb.reencode]
        for s, tb in tables.items() if tb.sends is not None
    }
    return effective, reencode


def _pruned(net, product, epsilon, kappa_override, seed):
    sets, symbols_per_slot, _ = _typical_sets(net, product, epsilon)
    params = KappaParams.for_network(net, override=kappa_override)
    return prune_sets(sets, params, eta=0.0, master_seed=seed, symbols_per_slot=symbols_per_slot)


def _layered_case(name):
    """(network, product code, pruned sets) of a layered table case."""
    if name in ("line", "diamond"):
        _, net, product, lifted = _shipped(name)
        return net, product, lifted.pruned
    if name == "causal_line":
        # Block slots with a causal map: the relay's decision sets t = 2 only.
        g = ComplexGain(3.0, 0.0)
        net = RelayNetwork(node_count=3, edges=(Edge(0, 1, g), Edge(1, 2, g)))
        A = [(r, i) for r in range(2) for i in range(2)]
        code = derive_decoder(net, RelayCode(
            block_length=2, bit_depth=1, codebook=tuple((a, A[1]) for a in A),
            relay_maps={1: QuantizeForward(1, shift=1, causal=True)}, decoder={},
        ))
        product = ProductCode(code, 4)
        return net, product, _pruned(net, product, epsilon=1.0, kappa_override=0.125, seed=5)
    # float_diamond: the shipped diamond code on non-integer gains of the same bit depth.
    diamond = load_network(read_input_text("diamond"))
    gains = (ComplexGain(5.1, 0.3), ComplexGain(4.7, -0.9), ComplexGain(6.9, 1.3), ComplexGain(7.3, -0.6))
    net = dataclasses.replace(
        diamond, edges=tuple(dataclasses.replace(e, gain=g) for e, g in zip(diamond.edges, gains))
    )
    code = derive_decoder(net, deserialize_code(json.loads(read_input_text("diamond_code"))))
    product = ProductCode(code, 3)
    return net, product, _pruned(net, product, epsilon=3.0, kappa_override=0.25, seed=77)


@pytest.mark.parametrize("name", ["line", "diamond", "causal_line", "float_diamond"])
@pytest.mark.parametrize("use_offsets", [True, False])
def test_layered_tables_match_per_vector_loops(name, use_offsets):
    net, product, pruned = _layered_case(name)
    base, dest, N = product.base, net.destination, product.base.block_length
    tables, symbols = _slot_tables(net, base, pruned, trace_all(net, base), use_offsets)
    want = _reference_layered_tables(net, product, pruned, use_offsets)
    effective, reencode = _tables(tables, symbols, pruned, base.bit_depth)
    if name == "float_diamond" and use_offsets:
        # The tables read the exact genie split's v, the oracle sums floats.
        assert effective.keys() == want[0].keys()
        for s, rows in effective.items():
            ulp = np.spacing(np.abs(want[0][s]).max())
            np.testing.assert_allclose(rows, want[0][s], rtol=0, atol=4 * ulp)
    else:
        _same(effective, want[0])
    _same(reencode, want[1])
    _same({s: tb.first_copy for s, tb in tables.items()}, {s: _first_copies(e) for s, e in want[0].items()})
    # Layered slots decide whole blocks; a decision sets every time its map reads from it.
    assert all(tb.times == slice(0, N) for tb in tables.values())
    assert {s: tb.sends for s, tb in tables.items()} == {
        s: None if s == dest else slice(int(base.relay_maps[s].causal), N) for s in pruned.sets
    }
    # The destination deciding each candidate once gives each candidate's message.
    messages = _destination_messages(base, pruned.sets, {dest: np.arange(len(pruned.sets[dest]))})
    assert np.array_equal(messages, want[2])
    assert (messages >= 0).any()


@pytest.mark.parametrize("use_offsets", [True, False])
def test_interleaved_tables_and_destination_match_loops(use_offsets):
    _, net, product, lifted = _shipped("nonlayered")
    base, pruned, dest = product.base, lifted.pruned, net.destination
    N = base.block_length
    traces = trace_all(net, base)
    effective, reencode = _tables(*_slot_tables(net, base, pruned, traces, use_offsets), pruned, base.bit_depth)
    want_effective, want_reencode = _reference_interleaved_tables(net, base, pruned, use_offsets)
    _same(effective, want_effective)
    _same(reencode, want_reencode)

    rng = np.random.default_rng(5)
    trials = 3000
    chosen = {(dest, t): rng.integers(len(pruned.sets[(dest, t)]), size=trials) for t in range(1, N + 1)}
    # A decoder that misses some receptions, so that -1 shows up too.
    partial = dataclasses.replace(base, decoder=dict(list(base.decoder.items())[1:]))
    decoded = []
    for code in (base, partial):
        decoded.append(_destination_messages(code, pruned.sets, chosen))
        # True messages: half the decoded ones, half random.
        true = np.where(
            rng.random(trials) < 0.5, decoded[-1], rng.integers(product.codeword_count, size=trials)
        )
        true = np.maximum(true, 0)
        want = _reference_destination(ProductCode(code, product.n_rep), pruned.sets, chosen)
        assert np.array_equal(decoded[-1] != true, want != true)
    assert (decoded[0] >= 0).all() and (decoded[1] < 0).any()


_OUTSIDE = (3, 3)  # a received symbol no alphabet of the property below holds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    block=st.booleans(),
    N=st.integers(1, 3),
    n_rep=st.integers(1, 3),
    message_count=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_destination_messages_equal_the_per_trial_loop(block, N, n_rep, message_count, seed):
    # One block slot, or N interleaved slots, over a few symbols, so that
    # decoder receptions share prefixes; some receptions hold a part
    # outside their slot's alphabet, and every member is decided.
    rng = np.random.default_rng(seed)
    pool = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def word():
        return tuple(pool[k] for k in rng.integers(len(pool), size=N))

    receptions = {word() for _ in range(2 * message_count)}
    first = next(iter(receptions))
    # A sibling of one reception that differs only at its last time.
    receptions.add(first[:-1] + (pool[(pool.index(first[-1]) + 1) % len(pool)],))
    if rng.random() < 0.5:
        receptions.add(first[:-1] + (_OUTSIDE,))
    decoder = {y: int(rng.integers(message_count)) for y in receptions}
    code = RelayCode(
        block_length=N, bit_depth=3,
        codebook=tuple(((m, 0),) + ((0, 0),) * (N - 1) for m in range(message_count)),
        relay_maps={}, decoder=decoder,
    )
    dest = 4
    if block:
        # Blocks: some of the decoder's receptions and some others.
        values = {y for y in receptions if _OUTSIDE not in y and rng.random() < 0.8}
        alphabets = {dest: sorted(values | {word() for _ in range(3)})}
    else:
        # Symbols: a nonempty subset of the pool per time.
        alphabets = {
            (dest, t): [pool[k] for k in sorted(rng.permutation(len(pool))[: rng.integers(1, len(pool) + 1)])]
            for t in range(1, N + 1)
        }
    sets = {}
    for s, alphabet in alphabets.items():
        every = np.indices((len(alphabet),) * n_rep, dtype=np.int64).reshape(n_rep, -1).T
        keep = np.sort(rng.choice(len(every), rng.integers(1, min(len(every), 12) + 1), replace=False))
        sets[s] = ReceptionVectors(tuple(alphabet), every[keep])
    trials = max(len(v) for v in sets.values()) + int(rng.integers(0, 20))
    chosen = {s: rng.permutation(np.resize(np.arange(len(v)), trials)) for s, v in sets.items()}
    got = _destination_messages(code, sets, chosen)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_destination(ProductCode(code, n_rep), sets, chosen))


# --- golden counts of the shipped configurations -----------------------------


def test_shipped_diamond_simulation_counts():
    cfg, net, product, lifted = _shipped("diamond")
    assert (cfg.prune_seed, cfg.simulate.noise_seed, cfg.simulate.trials) == (77, 3, 10_000)
    res = simulate_lifted(net, product, lifted, trials=10_000, noise=NoiseSpec(seed=3))
    assert res.message_errors == 2
    assert res.block_errors == {1: 62, 2: 65, 3: 2}
    assert res.decode_failures == {1: 0, 2: 0, 3: 0}


def test_nonlayered_simulation_counts_at_16384_trials():
    cfg, net, product, lifted = _shipped("nonlayered")
    assert cfg.prune_seed == 41
    res = simulate_lifted(net, product, lifted, trials=16_384, noise=NoiseSpec(seed=9))
    assert res.message_errors == 14733
    assert res.block_errors == {
        (1, 1): 9960, (1, 2): 9846, (2, 1): 13442, (2, 2): 0, (3, 1): 0, (3, 2): 14733,
    }
    assert set(res.decode_failures.values()) == {0}


def test_shipped_diamond_threshold_counts():
    _, net, product, lifted = _shipped("diamond")
    res = simulate_lifted(
        net, product, lifted, trials=10_000, noise=NoiseSpec(seed=3), method="threshold"
    )
    assert res.message_errors == 2
    assert res.block_errors == {1: 62, 2: 65, 3: 2}
    assert res.decode_failures == {1: 9977, 2: 9981, 3: 49}


def test_nonlayered_threshold_counts_at_16384_trials():
    _, net, product, lifted = _shipped("nonlayered")
    res = simulate_lifted(
        net, product, lifted, trials=16_384, noise=NoiseSpec(seed=9), method="threshold"
    )
    assert res.message_errors == 14733
    assert res.block_errors == {
        (1, 1): 9960, (1, 2): 9846, (2, 1): 13442, (2, 2): 0, (3, 1): 0, (3, 2): 14733,
    }
    assert res.decode_failures == {
        (1, 1): 16384, (1, 2): 16384, (2, 1): 16384, (2, 2): 20, (3, 1): 2, (3, 2): 16384,
    }
