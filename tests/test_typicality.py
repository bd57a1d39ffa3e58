"""Exact distribution, strong-typicality and typical-set enumeration tests."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsnlift import typicality
from dsnlift.channel import ComplexGain
from dsnlift.codes import build_product_code
from dsnlift.network import Edge, RelayNetwork
from dsnlift.typicality import (
    FiniteDistribution,
    JointDistribution,
    TooLarge,
    conditional_entropy,
    entropy,
    enumerate_typical_receptions,
    enumerate_typical_symbol_vectors,
    epsilon2,
    induced_distribution,
    is_strongly_typical,
    jointly_strongly_typical,
)


def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteDistribution(("a",), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        FiniteDistribution(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        FiniteDistribution(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))


def test_distribution_from_counts_is_exact():
    d = FiniteDistribution.from_counts({"x": 3, "y": 1})
    assert d.prob("x") == Fraction(3, 4)
    assert d.prob("y") == Fraction(1, 4)
    assert d.prob("missing") == 0


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


def test_induced_distribution_is_deterministic_given_source(diamond_net, diamond_code):
    joint = induced_distribution(diamond_net, diamond_code)
    assert joint.variables == ("x0", "y1", "y2", "y3")
    assert len(joint.table) == 4
    assert all(p == Fraction(1, 4) for _, p in joint.table)
    # Receptions are functions of the source block.
    assert conditional_entropy(joint, ("x0",)) == pytest.approx(0.0, abs=1e-12)
    assert entropy(joint.marginal(("y1",))) == pytest.approx(2.0, abs=1e-12)


def test_induced_distribution_respects_budget(diamond_net, diamond_code):
    with pytest.raises(TooLarge):
        induced_distribution(diamond_net, diamond_code, budget=2)


def test_point_mass_law_from_single_codeword_code(diamond_net, diamond_code):
    from dsnlift.codes import RelayCode

    single = RelayCode(
        block_length=diamond_code.block_length,
        bit_depth=diamond_code.bit_depth,
        codebook=diamond_code.codebook[:1],
        relay_maps=dict(diamond_code.relay_maps),
        decoder={},
    )
    joint = induced_distribution(diamond_net, single)
    assert entropy(joint) == 0.0


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
    joint = induced_distribution(diamond_net, diamond_code)
    from dsnlift.codes import trace_all

    traces = trace_all(diamond_net, diamond_code)
    digits = (0, 1, 2, 3, 3, 2, 1, 0)
    seqs = [
        tuple(traces[d].transmitted[0] for d in digits),
        tuple(traces[d].received[1] for d in digits),
        tuple(traces[d].received[2] for d in digits),
        tuple(traces[d].received[3] for d in digits),
    ]
    assert jointly_strongly_typical(seqs, joint, 0.01)
    # Swap one reception to a value never produced with that source block.
    broken = list(seqs)
    broken[3] = (traces[1].received[3],) + seqs[3][1:]
    assert not jointly_strongly_typical(broken, joint, 0.5)
    with pytest.raises(ValueError):
        jointly_strongly_typical(seqs[:2], joint, 0.1)


def test_typical_reception_counts_loose_and_exact(diamond_net, diamond_code):
    product = build_product_code(diamond_code, 2)
    loose = enumerate_typical_receptions(diamond_net, product, 1, epsilon=3.0)
    assert len(loose.vectors) == 16
    assert loose.slot == 1
    assert loose.dist.prob(((2, 0), (2, 0))) == Fraction(1, 4)

    # With eps = 0 a typical vector must hit each block exactly n_rep/4
    # times; at n_rep = 4 that means one appearance each: 4! vectors.
    product4 = build_product_code(diamond_code, 4)
    strict = enumerate_typical_receptions(diamond_net, product4, 1, epsilon=0.0)
    assert len(strict.vectors) == 24


def test_typical_set_envelope_bounds_cardinality(diamond_net, diamond_code):
    # H per reception block is exactly 2 bits here, so the envelope
    # 2^{n_rep (H +/- eps2)} must bracket the enumerated count.
    product = build_product_code(diamond_code, 4)
    ts = enumerate_typical_receptions(diamond_net, product, 3, epsilon=0.05)
    lo, hi = ts.envelope
    assert lo <= hi
    assert len(ts.vectors) <= hi
    assert ts.epsilon_2 == pytest.approx(
        0.05 * 2.0 + math.log2(5) * 4 / 4, abs=1e-12
    )


def test_typical_symbol_vectors_for_interleaving(diamond_net, diamond_code):
    product = build_product_code(diamond_code, 4)
    ts = enumerate_typical_symbol_vectors(diamond_net, product, 1, t=2, epsilon=0.0)
    assert ts.slot == (1, 2)
    assert ts.node == 1
    assert len(ts.vectors) == 24
    with pytest.raises(ValueError):
        enumerate_typical_symbol_vectors(diamond_net, product, 1, t=3, epsilon=0.0)


def test_typical_enumeration_budget(diamond_net, diamond_code):
    product = build_product_code(diamond_code, 12)
    with pytest.raises(TooLarge):
        enumerate_typical_receptions(diamond_net, product, 1, epsilon=1.0, budget=1000)


def test_marginal_sums_to_one():
    joint = JointDistribution(
        ("a", "b"),
        (
            ((0, 0), Fraction(1, 4)),
            ((0, 1), Fraction(1, 4)),
            ((1, 0), Fraction(1, 2)),
        ),
    )
    marg = joint.marginal(("a",))
    assert dict(marg.table) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}


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


@settings(max_examples=150, deadline=None)
@given(
    dist=_laws(),
    n_rep=st.integers(1, 5),
    epsilon=st.one_of(
        st.sampled_from((0.0, 0.1, 0.2, 0.25, 0.5, 1.0, 3.0)),
        st.floats(min_value=0.0, max_value=4.0),
    ),
)
# On the closed boundary: |3/4 - 1/2| = 0.5 * 1/2 and |3/5 - 1/2| = 0.2 * 1/2.
@example(dist=HALF, n_rep=4, epsilon=0.5)
@example(dist=HALF, n_rep=5, epsilon=0.2)
@example(dist=HALF, n_rep=4, epsilon=0.25)
def test_typical_vectors_match_per_vector_loop(dist, n_rep, epsilon):
    got = typicality._typical_vectors(dist, n_rep, epsilon, budget=1 << 20)
    assert tuple(got) == _reference_typical_vectors(dist, n_rep, epsilon)


def test_typicality_is_decided_once_per_type(monkeypatch, diamond_net, diamond_code):
    calls = []

    def counted(seq, dist, epsilon):
        calls.append(seq)
        return is_strongly_typical(seq, dist, epsilon)

    monkeypatch.setattr(typicality, "is_strongly_typical", counted)
    product = build_product_code(diamond_code, 8)
    ts = enumerate_typical_receptions(diamond_net, product, 1, epsilon=0.5)
    # Four equiprobable blocks, n_rep = 8: C(11, 3) = 165 types.
    assert len(calls) == 165
    assert len({tuple(sorted(c)) for c in calls}) == 165
    assert 0 < len(ts.vectors) < 4**8


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
