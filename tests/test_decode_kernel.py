"""The simulation's decode kernel and lookup tables against their oracles.

The oracles are the dense complex distance with argmin/threshold, the
per-vector candidate, offset and re-encode loops, and the per-trial
destination loop that the kernel and the tables replaced.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnlift.codes import ProductCode, trace_all
from dsnlift.gaussian import (
    _CHUNK,
    DEFAULT_THRESHOLD,
    LOG2E,
    NoiseSpec,
    _decode,
    _destination_messages,
    _slot_tables,
    decode_to_set,
    simulate_lifted,
)
from dsnlift.lifting import KappaParams, build_lifted_code, prune_sets
from dsnlift.network import load_network
from dsnlift.pipeline import _load_base_code, _typical_sets, load_config, read_input_text

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

    chosen, failed = _decode(y, effective, method, threshold)
    want_chosen, want_failed = _oracle_decode(y, effective, method, threshold)
    rounding, near = _decided_by_rounding(y, effective, method, threshold)
    # The complex product may round exact copies apart and so pick a later
    # copy; the kernel picks the first.
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

    # decode_to_set is a one-row call of the same kernel; offsets come
    # in separately there.
    cands = [[(int(c.real), int(c.imag)) for c in row] for row in ints]
    for i in range(min(trials, 5)):
        got = decode_to_set(y[i], cands, method, offsets=offs, threshold=threshold)
        if not rounding[i]:
            assert got == (None if want_failed[i] else int(want_chosen[i]))


def test_kernel_ties_go_to_the_lowest_index_across_chunks():
    effective = np.asarray([[2 + 0j], [0j], [0j], [2 + 0j]])
    y = np.full((_CHUNK + 3, 1), 1 + 0j)  # equidistant from every row
    y[_CHUNK] = 0j
    chosen, failed = _decode(y, effective, "ml", DEFAULT_THRESHOLD)
    assert not failed.any()
    assert chosen[_CHUNK] == 1
    assert (np.delete(chosen, _CHUNK) == 0).all()


def test_kernel_threshold_fails_on_copies_and_keeps_ml():
    effective = np.asarray([[0j], [0j], [5 + 0j]])
    y = np.asarray([[0.1 + 0j], [5 + 0j], [40 + 40j]])
    chosen, failed = _decode(y, effective, "threshold", -2.0)
    # Two exact copies both pass: no unique decision, ML index kept.
    assert chosen.tolist() == [0, 2, 2] and failed.tolist() == [True, False, True]


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
        acc += e.gain.as_complex() * tr.transmitted[e.src][t].as_complex()
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
            reencode[j] = np.asarray(
                [
                    [rm.emit(t, block).as_complex() for block in vec for t in range(1, N + 1)]
                    for vec in pruned.sets[j]
                ],
                dtype=np.complex128,
            )
    return effective, reencode, messages


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
                [[rm.emit(t + 1, (sym,) * t).as_complex() for sym in vec] for vec in vectors]
            )
    return effective, reencode


def _reference_destination(product, pruned, dest, chosen_by_t, true_codewords):
    base = product.base
    N = base.block_length
    trials = len(true_codewords)
    msg_errors = np.ones(trials, dtype=bool)
    for trial in range(trials):
        digits = []
        for use in range(product.n_rep):
            reception = tuple(
                pruned.sets[(dest, t)][int(chosen_by_t[t - 1][trial])][use] for t in range(1, N + 1)
            )
            d = base.decoder.get(reception)
            if d is None:
                break
            digits.append(d)
        else:
            msg_errors[trial] = product.message_index(digits) != int(true_codewords[trial])
    return msg_errors


def _same(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]), k


def _tables(tables):
    """Effective rows of every slot, and re-encode rows of every slot that sends."""
    effective = {s: tb.effective for s, tb in tables.items()}
    return effective, {s: tb.reencode for s, tb in tables.items() if tb.sends is not None}


@pytest.mark.parametrize("name", ["line", "diamond"])
@pytest.mark.parametrize("use_offsets", [True, False])
def test_layered_tables_match_per_vector_loops(name, use_offsets):
    _, net, product, lifted = _shipped(name)
    pruned, dest, N = lifted.pruned, net.destination, product.base.block_length
    traces = trace_all(net, product.base)
    tables = _slot_tables(net, product.base, pruned, traces, use_offsets)
    want = _reference_layered_tables(net, product, pruned, use_offsets)
    effective, reencode = _tables(tables)
    _same(effective, want[0])
    _same(reencode, want[1])
    # The shipped layered codes use block maps: a decision sets its whole block.
    assert all(tb.times == slice(0, N) for tb in tables.values())
    assert {s: tb.sends for s, tb in tables.items()} == {
        s: None if s == dest else slice(0, N) for s in pruned.sets
    }
    # The destination deciding each candidate once gives each candidate's message.
    messages = _destination_messages(product.base, pruned.sets, {dest: np.arange(len(pruned.sets[dest]))})
    assert np.array_equal(messages, want[2])
    assert (messages >= 0).any()


@pytest.mark.parametrize("use_offsets", [True, False])
def test_interleaved_tables_and_destination_match_loops(use_offsets):
    _, net, product, lifted = _shipped("nonlayered")
    base, pruned, dest = product.base, lifted.pruned, net.destination
    N = base.block_length
    traces = trace_all(net, base)
    effective, reencode = _tables(_slot_tables(net, base, pruned, traces, use_offsets))
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
        want = _reference_destination(
            ProductCode(code, product.n_rep), pruned, dest, list(chosen.values()), true
        )
        assert np.array_equal(decoded[-1] != true, want)
    assert (decoded[0] >= 0).all() and (decoded[1] < 0).any()


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
