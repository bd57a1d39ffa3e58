"""Entropy and strong typicality over finite alphabets.

Probabilities are exact rationals (``Fraction``) so that typicality
decisions are never at the mercy of float rounding; only the final
entropy values are floats.  Typicality uses the robust
multiplicative criterion: a sequence is epsilon-typical for a law p when
every symbol frequency f(a) satisfies |f(a)/L - p(a)| <= epsilon * p(a),
and symbols of probability zero never occur.

The criterion bounds each symbol's count by itself: at length L it is one
closed integer interval per symbol, found by exact integer
cross-multiplication in ``_count_bounds``, the one place the rule is
written.  Typical sets keep, in natural order, the int64 digit rows whose
per-digit counts all lie in their intervals.  With the slot's alphabet in
tuple order (``sorted(support)``) those rows make a ReceptionVectors, the
one form every later stage reads reception vectors in.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

import numpy as np

from .channel import ConfigError
from .codes import NetworkTrace, ProductCode, trace_all
from .network import RelayNetwork

__all__ = [
    "BUDGET",
    "TooLarge",
    "FiniteDistribution",
    "ReceptionVectors",
    "TypicalSet",
    "entropy",
    "epsilon2",
    "is_strongly_typical",
    "enumerate_typical_receptions",
    "enumerate_typical_symbol_vectors",
]


class TooLarge(ConfigError):
    """Exhaustive enumeration would exceed the budget."""


# Most candidate vectors (per slot) or product codewords that are enumerated.
BUDGET = 1 << 20


def _check_budget(k: int, n_rep: int, what: str) -> None:
    """TooLarge when k**n_rep, the count of length-n_rep vectors over k values, exceeds
    BUDGET.  For k >= 2 and n_rep >= BUDGET.bit_length() that is known without k**n_rep."""
    if k > 1 and (n_rep >= BUDGET.bit_length() or k**n_rep > BUDGET):
        raise TooLarge(f"{k}**{n_rep} {what} exceed the enumeration budget {BUDGET}")


# A decision slot: a node id (block schedule) or a (node, t) pair
# (interleaved schedule).  One run's slots are all of one kind, and
# Python's order on either kind is the canonical slot order.
SlotKey = int | tuple[int, int]


def _check_normalized(probs: Sequence[Fraction]) -> None:
    if not all(isinstance(p, Fraction) for p in probs):
        raise TypeError("probabilities must be Fractions")
    if any(p < 0 for p in probs):
        raise ValueError("negative probability")
    if sum(probs) != 1:
        raise ValueError(f"probabilities sum to {sum(probs)}, not 1")


@dataclass(frozen=True)
class FiniteDistribution:
    """A law on a finite set of hashable symbols, with ``Fraction`` probabilities."""

    support: tuple[Hashable, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs differ in length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support has repeated symbols")
        _check_normalized(self.probs)

    def items(self) -> Iterable[tuple[Hashable, Fraction]]:
        return zip(self.support, self.probs)

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, int]) -> "FiniteDistribution":
        total = sum(counts.values())
        symbols = sorted(counts, key=repr)
        return cls(tuple(symbols), tuple(Fraction(counts[s], total) for s in symbols))

    @classmethod
    def uniform(cls, symbols: Sequence[Hashable]) -> "FiniteDistribution":
        k = len(symbols)
        return cls(tuple(symbols), tuple(Fraction(1, k) for _ in symbols))


def entropy(dist: FiniteDistribution) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    acc = 0.0
    for p in dist.probs:
        pf = float(p)
        if pf > 0.0:
            acc -= pf * math.log2(pf)
    return acc


def epsilon2(dist: FiniteDistribution, epsilon: float, length: int) -> float:
    """Envelope slack for length-``length`` typical sequences.

    epsilon * H(p) is the asymptotic term; the second term,
    log2(length + 1) * |support| / length, pays for the finite-length
    spread of empirical types.
    """
    support_size = sum(1 for p in dist.probs if p > 0)
    return float(epsilon) * entropy(dist) + math.log2(length + 1) * support_size / length


def _as_exact(epsilon: float) -> Fraction:
    # repr() gives the shortest decimal that round-trips, so a user-facing
    # value like 0.1 becomes exactly 1/10 here.
    return Fraction(repr(float(epsilon)))


def _count_bounds(probs: Iterable[Fraction], length: int, epsilon: float) -> list[tuple[int, int]]:
    """Each symbol's closed interval (lo, hi) of counts in a typical sequence of
    ``length``, clipped to 0..length; lo > hi when no count passes.

    With p = a/b and epsilon = e/f, |c/L - a/b| <= (e/f) * (a/b) is, times
    b * L * f > 0, the integer test |c * b - a * L| * f <= e * a * L, that is
    a * L * (f - e) <= c * b * f <= a * L * (f + e).  A p = 0 symbol gets (0, 0).
    """
    e, f = _as_exact(epsilon).as_integer_ratio()
    spans = [(p.numerator * length * (f - e), p.numerator * length * (f + e), p.denominator * f) for p in probs]
    return [(max(-(-low // bf), 0), min(high // bf, length)) for low, high, bf in spans]


def is_strongly_typical(
    seq: Sequence[Hashable], dist: FiniteDistribution, epsilon: float
) -> bool:
    """Robust strong typicality: no symbol outside ``dist``'s support, and
    every symbol's count within its ``_count_bounds``."""
    L = len(seq)
    if L == 0:
        raise ValueError("empty sequence")
    counts = Counter(seq)
    if not counts.keys() <= set(dist.support):
        return False
    bounds = _count_bounds(dist.probs, L, epsilon)
    return all(lo <= counts[s] <= hi for s, (lo, hi) in zip(dist.support, bounds))


@dataclass(frozen=True, eq=False)
class ReceptionVectors(Sequence):
    """Sorted, distinct reception vectors of one slot, as int64 digit rows.

    ``alphabet`` holds the slot's values in tuple order; row i of the
    (count, n_rep) int64 ``digits`` spells vector i, one alphabet index per
    use.  Rows are unique and ascend in their base-len(alphabet) ``codes``,
    which is tuple order.  As a sequence, item i is vector i as a tuple.
    """

    alphabet: tuple
    digits: np.ndarray
    codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = self.digits
        if not isinstance(d, np.ndarray) or d.dtype != np.int64 or d.ndim != 2:
            raise ValueError("digits must be a 2-D int64 array")
        if tuple(sorted(set(self.alphabet))) != self.alphabet:
            raise ValueError("alphabet must be a tuple of distinct values in sorted order")
        if len(self.alphabet) ** d.shape[1] > 1 << 63:
            raise ValueError("codes of these rows do not fit in int64")
        if d.size and (d.min() < 0 or d.max() >= len(self.alphabet)):
            raise ValueError("digit outside the alphabet")
        object.__setattr__(self, "codes", _radix_codes(d, len(self.alphabet)))
        if (np.diff(self.codes) <= 0).any():
            raise ValueError("rows must be distinct and in ascending code order")

    def __len__(self) -> int:
        return len(self.digits)

    def __getitem__(self, i: int) -> tuple:
        return tuple(self.alphabet[d] for d in self.digits[i].tolist())

    def __iter__(self):
        return (tuple(self.alphabet[d] for d in row) for row in self.digits.tolist())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ReceptionVectors) and self.alphabet == other.alphabet
                and np.array_equal(self.digits, other.digits))


@dataclass(frozen=True)
class TypicalSet:
    """Epsilon-typical vectors of one reception variable.

    ``slot`` identifies the variable: a node id for block-scheduled
    (layered) operation, or a (node, t) pair for interleaved operation
    where t is the 1-based symbol index inside the base block.  Vectors
    are length-n_rep digit rows over the slot's support, in sorted order.
    """

    slot: SlotKey
    epsilon: float
    n_rep: int
    dist: FiniteDistribution
    vectors: ReceptionVectors
    epsilon_2: float
    envelope: tuple[float, float]


def _decision_slots(net: RelayNetwork, block_length: int) -> list[SlotKey]:
    """The decision slots of ``net`` in walk order.

    A layered network relays whole blocks, so its slots are the nodes
    after the source in the network's receiving order, level by level.
    Any other network is interleaved: its slots are the (node, t) pairs in
    (t, node) order.  This is the one place the schedule is decided for
    the slots.
    """
    receivers = net.order[1:]
    if net.levels is not None:
        return list(receivers)
    return [(j, t) for t in range(1, block_length + 1) for j in receivers]


def _slot_key(slot: SlotKey) -> list[int]:
    """The seed suffix of ``slot``: [node] or [node, t]."""
    return [slot] if isinstance(slot, int) else [slot[0], slot[1]]


def _slot_node(slot: SlotKey) -> int:
    """The node that decides at ``slot``: a node id or a (node, t) pair."""
    return slot if isinstance(slot, int) else slot[0]


def _slot_values(traces: Sequence[NetworkTrace], slot: SlotKey) -> list:
    """Each base message's reception at ``slot``: its block, or its t-th symbol."""
    if isinstance(slot, int):
        return [tr.received[slot] for tr in traces]
    node, t = slot
    return [tr.received[node][t - 1] for tr in traces]


def _check_receiver_slot(net: RelayNetwork, slot: SlotKey, block_length: int) -> None:
    """ValueError naming ``slot`` unless its node receives in ``net`` (any
    node but the source) and its time, if it has one, is in 1..block_length."""
    t = None if isinstance(slot, int) else slot[1]
    if _slot_node(slot) not in net.order[1:] or not (t is None or 1 <= t <= block_length):
        raise ValueError(
            f"slot {slot!r} is not a receiver slot: nodes {list(net.order[1:])}, times 1..{block_length}"
        )


def _typical_digit_rows(
    support: Sequence[Hashable], dist: FiniteDistribution, n_rep: int, epsilon: float
) -> np.ndarray:
    """Rows of ``support``-digits, length n_rep, whose vectors are typical.

    ``support`` holds every symbol of ``dist`` of positive probability.  Of
    all ``len(support)**n_rep`` rows, in lexicographic order, those whose
    per-digit counts lie in their _count_bounds are kept as an int64 array;
    when every bound is all of 0..n_rep, that is np.indices' rows as they are.
    A row passes when the digit at each position counts within its bounds
    and every digit whose lower bound is positive occurs.  Each position's
    count comes from comparing it with every other position, so the cost
    grows with n_rep**2 per row, not with the support size.
    """
    prob_of = dict(dist.items())
    bounds = _count_bounds([prob_of[s] for s in support], n_rep, epsilon)
    k = len(support)
    if k == 1:  # one row of any length, past the 64 axes np.indices takes
        lo, hi = bounds[0]
        return np.zeros((int(lo <= n_rep <= hi), n_rep), dtype=np.int64)
    lo, hi = np.asarray(bounds, dtype=np.int64).T
    if (lo > hi).any() or lo.sum() > n_rep:  # no count passes, or too many digits must occur
        return np.zeros((0, n_rep), dtype=np.int64)
    rows = np.indices((k,) * n_rep, dtype=np.int64).reshape(n_rep, -1).T
    if all(b == (0, n_rep) for b in bounds):
        return rows
    cols = rows.T  # n_rep contiguous columns
    # counts[j] is how often the digit at position j occurs in its row.
    counts = np.ones(cols.shape, dtype=np.min_scalar_type(n_rep))
    for j in range(n_rep):
        for i in range(j):
            same = cols[i] == cols[j]
            counts[i] += same
            counts[j] += same
    keep = np.ones(len(rows), dtype=bool)
    for col, count in zip(cols, counts):
        keep &= (lo[col] <= count) & (count <= hi[col])
    for d in np.flatnonzero(lo > 0).tolist():  # at most n_rep digits, as lo.sum() <= n_rep
        keep &= (cols == d).any(axis=0)
    return rows[keep]


def _radix_codes(rows: np.ndarray, radix: int) -> np.ndarray:
    """Base-``radix`` int64 code of each digit row, first column most significant."""
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        codes *= radix
        codes += col
    return codes


def _typical_vectors(dist: FiniteDistribution, n_rep: int, epsilon: float) -> ReceptionVectors:
    support = tuple(sorted(s for s, p in dist.items() if p > 0))
    _check_budget(len(support), n_rep, "candidate vectors")
    return ReceptionVectors(support, _typical_digit_rows(support, dist, n_rep, epsilon))


def _build_set(
    slot: SlotKey, values_per_message: Sequence[Hashable], n_rep: int, epsilon: float
) -> TypicalSet:
    dist = FiniteDistribution.from_counts(Counter(values_per_message))
    vectors = _typical_vectors(dist, n_rep, epsilon)
    h = entropy(dist)
    e2 = epsilon2(dist, epsilon, n_rep)
    env = (2.0 ** (n_rep * (h - e2)), 2.0 ** (n_rep * (h + e2)))
    return TypicalSet(
        slot=slot, epsilon=float(epsilon), n_rep=n_rep, dist=dist,
        vectors=vectors, epsilon_2=e2, envelope=env,
    )


def enumerate_typical_receptions(
    net: RelayNetwork,
    product: ProductCode,
    node: int,
    epsilon: float,
) -> TypicalSet:
    """Typical reception-block vectors at a node, for block scheduling.

    Each codeword of the product code induces n_rep reception blocks at
    the node, one per base use, drawn independently from the base block
    law.  The returned vectors are exactly the epsilon-typical elements of
    the product image.  A node that hears nothing (for instance one that
    is unreachable from the source) has a point-mass law and a single
    all-zero typical vector.  Any other node, the source included, is
    refused with a ValueError before any trace.
    """
    _check_receiver_slot(net, node, product.base.block_length)
    traces = trace_all(net, product.base)
    return _build_set(node, _slot_values(traces, node), product.n_rep, epsilon)


def enumerate_typical_symbol_vectors(
    net: RelayNetwork,
    product: ProductCode,
    node: int,
    t: int,
    epsilon: float,
) -> TypicalSet:
    """Typical vectors of the t-th reception symbol, for interleaving.

    Under the interleaved schedule the n_rep base uses advance in
    lockstep, so the natural decision variable at (node, t) is the vector
    of t-th reception symbols across the uses.  A slot whose node does
    not receive or whose t is outside the base block is refused with a
    ValueError before any trace.
    """
    _check_receiver_slot(net, (node, t), product.base.block_length)
    traces = trace_all(net, product.base)
    return _build_set((node, t), _slot_values(traces, (node, t)), product.n_rep, epsilon)
