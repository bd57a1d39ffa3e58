"""Exact distribution, strong-typicality and typical-set enumeration tests."""

import itertools
import math
import re
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsnlift import typicality
from dsnlift.channel import ComplexGain
from dsnlift.codes import ProductCode, RelayCode, trace_all
from dsnlift.network import Edge, RelayNetwork
from dsnlift.typicality import (
    FiniteDistribution,
    TooLarge,
    entropy,
    enumerate_typical_receptions,
    enumerate_typical_symbol_vectors,
    epsilon2,
    is_strongly_typical,
)


def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteDistribution(("a",), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        FiniteDistribution(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        FiniteDistribution(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))
    # Probabilities are exact; a float law is refused, even one that sums to 1.
    with pytest.raises(TypeError):
        FiniteDistribution(("a", "b"), (0.5, 0.5))
    with pytest.raises(TypeError):
        FiniteDistribution(("a", "b"), (Fraction(1, 2), 0.5))


def test_distribution_from_counts_is_exact():
    d = FiniteDistribution.from_counts({"x": 3, "y": 1})
    assert dict(d.items()) == {"x": Fraction(3, 4), "y": Fraction(1, 4)}
    assert all(isinstance(p, Fraction) for p in d.probs)


def test_entropy_values():
    assert entropy(FiniteDistribution.uniform(("a", "b", "c", "d"))) == 2.0
    assert entropy(FiniteDistribution(("a",), (Fraction(1),))) == 0.0
    half = FiniteDistribution(("a", "b"), (Fraction(1, 2), Fraction(1, 2)))
    assert entropy(half) == 1.0


def test_epsilon2_formula():
    d = FiniteDistribution.uniform((0, 1, 2, 3))
    got = epsilon2(d, 0.1, 8)
    want = 0.1 * 2.0 + math.log2(9) * 4 / 8
    assert got == pytest.approx(want, abs=1e-12)


def _joint_law(net, code, coords=None):
    """The law of (source block, reception block of nodes 1..M) under the
    uniform message law, or of the coordinates ``coords`` of that tuple.
    The network is deterministic, so each trace has mass 1/K.
    """
    rows = [
        (tr.transmitted[net.source],) + tuple(tr.received[j] for j in range(1, net.node_count))
        for tr in trace_all(net, code)
    ]
    if coords is not None:
        rows = [tuple(row[i] for i in coords) for row in rows]
    return FiniteDistribution.from_counts(Counter(rows))


def test_induced_distribution_is_deterministic_given_source(diamond_net, diamond_code):
    joint = _joint_law(diamond_net, diamond_code)
    assert len(joint.support) == 4
    assert all(len(value) == 4 for value in joint.support)
    assert all(p == Fraction(1, 4) for p in joint.probs)
    # Receptions are functions of the source block: H(x0, y) = H(x0).
    assert entropy(joint) == entropy(_joint_law(diamond_net, diamond_code, (0,))) == 2.0
    assert entropy(_joint_law(diamond_net, diamond_code, (1,))) == 2.0


def test_point_mass_law_from_single_codeword_code(diamond_net, diamond_code):
    single = RelayCode(
        block_length=diamond_code.block_length,
        bit_depth=diamond_code.bit_depth,
        codebook=diamond_code.codebook[:1],
        relay_maps=dict(diamond_code.relay_maps),
        decoder={},
    )
    assert entropy(_joint_law(diamond_net, single)) == 0.0


def _rational_is_strongly_typical(seq, dist, epsilon):
    """The rational reference of is_strongly_typical: each frequency is
    compared with its probability as an exact Fraction."""
    L = len(seq)
    if L == 0:
        raise ValueError("empty sequence")
    counts = Counter(seq)
    prob_of = dict(dist.items())
    for sym in counts:
        p = prob_of.get(sym)
        if p is None or p == 0:
            return False
    eps = typicality._as_exact(epsilon)
    for sym, p in dist.items():
        c = counts.get(sym, 0)
        if abs(Fraction(c, L) - p) > eps * p:
            return False
    return True


def test_strong_typicality_boundary_is_exact():
    half = FiniteDistribution((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    # |5/8 - 1/2| = 1/8 = eps * p exactly: inside the closed envelope.
    assert is_strongly_typical((0, 0, 0, 1, 1, 1, 0, 0), half, 0.25)
    # |6/8 - 1/2| = 1/4 > 1/8: outside.
    assert not is_strongly_typical((0, 0, 0, 0, 0, 0, 1, 1), half, 0.25)


def test_strong_typicality_edge_cases():
    half = FiniteDistribution((0, 1), (Fraction(1, 2), Fraction(1, 2)))
    seq = (1,) * 58 + (0,) * 42
    assert not is_strongly_typical(seq, half, 0.1)
    exact = (0, 1, 0, 1)
    assert is_strongly_typical(exact, half, 1e-9)
    with_zero_prob = (0, 1, 2)
    dist = FiniteDistribution((0, 1, 2), (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    assert not is_strongly_typical(with_zero_prob, dist, 0.5)
    with pytest.raises(ValueError):
        is_strongly_typical((), half, 0.1)


def test_joint_typicality_of_deterministic_tuples(diamond_net, diamond_code):
    joint = _joint_law(diamond_net, diamond_code)
    traces = trace_all(diamond_net, diamond_code)
    digits = (0, 1, 2, 3, 3, 2, 1, 0)
    zipped = [
        (traces[d].transmitted[0], traces[d].received[1], traces[d].received[2], traces[d].received[3])
        for d in digits
    ]
    assert is_strongly_typical(zipped, joint, 0.01)
    # Swap one reception to a value never produced with that source block.
    broken = list(zipped)
    broken[0] = zipped[0][:3] + (traces[1].received[3],)
    assert not is_strongly_typical(broken, joint, 0.5)


def test_typical_reception_counts_loose_and_exact(diamond_net, diamond_code):
    product = ProductCode(diamond_code, 2)
    loose = enumerate_typical_receptions(diamond_net, product, 1, epsilon=3.0)
    assert len(loose.vectors) == 16
    assert loose.slot == 1
    assert dict(loose.dist.items())[((2, 0), (2, 0))] == Fraction(1, 4)

    # With eps = 0 a typical vector must hit each block exactly n_rep/4
    # times; at n_rep = 4 that means one appearance each: 4! vectors.
    product4 = ProductCode(diamond_code, 4)
    strict = enumerate_typical_receptions(diamond_net, product4, 1, epsilon=0.0)
    assert len(strict.vectors) == 24


def test_typical_set_envelope_bounds_cardinality(diamond_net, diamond_code):
    # H per reception block is exactly 2 bits here, so the envelope
    # 2^{n_rep (H +/- eps2)} must bracket the enumerated count.
    product = ProductCode(diamond_code, 4)
    ts = enumerate_typical_receptions(diamond_net, product, 3, epsilon=0.05)
    lo, hi = ts.envelope
    assert lo <= hi
    assert len(ts.vectors) <= hi
    assert ts.epsilon_2 == pytest.approx(
        0.05 * 2.0 + math.log2(5) * 4 / 4, abs=1e-12
    )


def test_typical_symbol_vectors_for_interleaving(diamond_net, diamond_code):
    product = ProductCode(diamond_code, 4)
    ts = enumerate_typical_symbol_vectors(diamond_net, product, 1, t=2, epsilon=0.0)
    assert ts.slot == (1, 2)
    assert len(ts.vectors) == 24
    with pytest.raises(ValueError):
        enumerate_typical_symbol_vectors(diamond_net, product, 1, t=3, epsilon=0.0)


@pytest.mark.parametrize("slot", [0, 7, (9, 1), (1, 5)])
def test_enumerators_refuse_a_slot_that_does_not_receive(diamond_net, diamond_code, slot, monkeypatch):
    # The source, a node past the network and a time past the base block
    # are refused by name, before any trace is run.
    monkeypatch.setattr(typicality, "trace_all", None)
    product = ProductCode(diamond_code, 2)
    with pytest.raises(ValueError, match=re.escape(f"slot {slot!r} is not a receiver slot")):
        if isinstance(slot, int):
            enumerate_typical_receptions(diamond_net, product, slot, epsilon=1.0)
        else:
            enumerate_typical_symbol_vectors(diamond_net, product, *slot, epsilon=1.0)


def test_typical_enumeration_budget(diamond_net, diamond_code):
    product = ProductCode(diamond_code, 12)
    with pytest.raises(TooLarge):
        enumerate_typical_receptions(diamond_net, product, 1, epsilon=1.0)


@pytest.mark.parametrize(
    "k, n_rep, refused",
    [(2, 20, False), (2, 21, True), (1024, 2, False), (1025, 2, True), (1, 10**12, False),
     # 4**(10**12) is never built: the exponent alone settles it.
     (4, 10**12, True)],
)
def test_budget_check_never_builds_a_huge_power(k, n_rep, refused):
    assert typicality.BUDGET == 2**20
    t0 = time.perf_counter()
    if refused:
        with pytest.raises(TooLarge, match="budget"):
            typicality._check_budget(k, n_rep, "vectors")
    else:
        typicality._check_budget(k, n_rep, "vectors")
    assert time.perf_counter() - t0 < 1.0


def _reference_typical_vectors(dist, n_rep, epsilon):
    """The per-vector loop: every candidate vector checked on its own."""
    support = [s for s, p in dist.items() if p > 0]
    out = [
        vec for vec in itertools.product(support, repeat=n_rep)
        if is_strongly_typical(vec, dist, epsilon)
    ]
    out.sort()
    return tuple(out)


# Symbol pools whose repr order differs from their tuple order: "10" < "9",
# and "(10, 0)" < "(9, 0)".
SYMBOL_POOLS = (
    (9, 10, 0, 11, 2),
    ((10, 0), (9, 0), (0, -1), (2, 5)),
    (((9, 0), (1, 1)), ((10, 0), (0, 0)), ((10, 0), (-3, 2))),
)


@st.composite
def _laws(draw):
    pool = draw(st.sampled_from(SYMBOL_POOLS))
    k = draw(st.integers(1, min(4, len(pool))))
    symbols = draw(st.permutations(pool))[:k]
    counts = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    if not any(counts):
        counts[0] = 1
    return FiniteDistribution.from_counts(dict(zip(symbols, counts)))


HALF = FiniteDistribution((9, 10), (Fraction(1, 2), Fraction(1, 2)))
QUARTER = FiniteDistribution((9, 10), (Fraction(1, 4), Fraction(3, 4)))

EPSILONS = st.one_of(
    st.sampled_from((0.0, 0.1, 0.2, 0.25, 0.5, 1.0, 3.0)),
    st.floats(min_value=0.0, max_value=4.0),
)


@st.composite
def _sequences_and_laws(draw):
    """A law and a sequence of length 1..12 over its support plus one
    symbol outside it."""
    dist = draw(_laws())
    symbols = st.sampled_from(dist.support + ("outside",))
    return draw(st.lists(symbols, min_size=1, max_size=12)), dist


@settings(max_examples=200, deadline=None)
@given(case=_sequences_and_laws(), epsilon=EPSILONS)
# On the closed boundary: |3/4 - 1/2| = 0.5 * 1/2, |3/5 - 1/2| = 0.2 * 1/2
# and |5/8 - 1/2| = 0.25 * 1/2.
@example(case=((9, 9, 9, 10), HALF), epsilon=0.5)
@example(case=((9, 9, 9, 10, 10), HALF), epsilon=0.2)
@example(case=((9, 9, 9, 9, 9, 10, 10, 10), HALF), epsilon=0.25)
# Only a lower bound fails: no 9 where 4 * 1/4 * (1 - 0.5) = 1/2 rounds up to 1.
@example(case=((10, 10, 10, 10), QUARTER), epsilon=0.5)
def test_integer_typicality_matches_the_rational_reference(case, epsilon):
    seq, dist = case
    assert is_strongly_typical(seq, dist, epsilon) == _rational_is_strongly_typical(seq, dist, epsilon)


@settings(max_examples=150, deadline=None)
@given(dist=_laws(), n_rep=st.integers(1, 5), epsilon=EPSILONS)
# On the closed boundary: |3/4 - 1/2| = 0.5 * 1/2 and |3/5 - 1/2| = 0.2 * 1/2.
@example(dist=HALF, n_rep=4, epsilon=0.5)
@example(dist=HALF, n_rep=5, epsilon=0.2)
@example(dist=HALF, n_rep=4, epsilon=0.25)
# Every class is kept: |0/4 - 1/2| = 1 * 1/2 is the widest gap.
@example(dist=HALF, n_rep=4, epsilon=1.0)
# Empty: at epsilon 0 each count must be 3/2.
@example(dist=HALF, n_rep=3, epsilon=0.0)
# Only the upper bounds bite: the lower ones, L * p * (1 - 2), clip to 0.
@example(dist=QUARTER, n_rep=4, epsilon=2.0)
def test_typical_vectors_match_per_vector_loop(dist, n_rep, epsilon):
    got = typicality._typical_vectors(dist, n_rep, epsilon)
    assert tuple(got) == _reference_typical_vectors(dist, n_rep, epsilon)


@pytest.mark.parametrize("epsilon", [0.5, 3.0])
def test_typicality_is_decided_by_count_bounds(monkeypatch, diamond_net, diamond_code, epsilon):
    # The set comes from per-symbol count bounds alone: no sequence is
    # tested on its own.
    def refused(seq, dist, epsilon):
        raise AssertionError("is_strongly_typical called")

    monkeypatch.setattr(typicality, "is_strongly_typical", refused)
    product = ProductCode(diamond_code, 8)
    ts = enumerate_typical_receptions(diamond_net, product, 1, epsilon=epsilon)
    if epsilon < 1.0:
        assert 0 < len(ts.vectors) < 4**8
    else:
        # Every row is kept: all 4**8 rows, in lexicographic order.
        assert np.array_equal(ts.vectors.digits, np.array(list(itertools.product(range(4), repeat=8))))


def test_decision_slots_walk_order(diamond_net, nonlayered_net):
    # Layered: the nodes level by level.  Here the destination 3 sits on
    # level 1 and feeds node 2, so level order is not id order.
    g = ComplexGain(3.0, 0.0)
    net = RelayNetwork(
        node_count=4, edges=(Edge(0, 1, g), Edge(0, 3, g), Edge(1, 2, g), Edge(3, 2, g))
    )
    assert typicality._decision_slots(net, 2) == [1, 3, 2]
    assert typicality._decision_slots(diamond_net, 2) == [1, 2, 3]
    # Interleaved: (node, t) pairs in (t, node) order.
    assert typicality._decision_slots(nonlayered_net, 2) == [
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)
    ]
    assert typicality._decision_slots(nonlayered_net, 1) == [(1, 1), (2, 1), (3, 1)]
