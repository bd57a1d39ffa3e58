"""Entropy and strong typicality over finite alphabets.

Probabilities coming from enumerable codes are kept as exact rationals so
that typicality decisions are never at the mercy of float rounding; only
the final entropy values are floats.  Typicality uses the robust
multiplicative criterion: a sequence is epsilon-typical for a law p when
every symbol frequency f(a) satisfies |f(a)/L - p(a)| <= epsilon * p(a),
and symbols of probability zero never occur.

The criterion depends on a sequence only through its type, the histogram
of its symbols.  Typical sets are therefore decided once per type class:
the exact rational test runs on one representative vector per class, and
the kept classes are expanded with numpy over int64 digit rows.  With the
slot's alphabet in tuple order (``sorted(support)``) those rows make a
ReceptionVectors, the one form every later stage reads reception vectors in.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

import numpy as np

from .codes import NetworkTrace, ProductCode, RelayCode, trace_all
from .network import RelayNetwork

__all__ = [
    "TooLarge",
    "FiniteDistribution",
    "JointDistribution",
    "ReceptionVectors",
    "TypicalSet",
    "entropy",
    "conditional_entropy",
    "epsilon2",
    "induced_distribution",
    "is_strongly_typical",
    "jointly_strongly_typical",
    "enumerate_typical_receptions",
    "enumerate_typical_symbol_vectors",
]


class TooLarge(ValueError):
    """Exhaustive enumeration would exceed the configured budget."""


ProbLike = Fraction | float


def _check_normalized(probs: Sequence[ProbLike]) -> None:
    if any((p < 0) for p in probs):
        raise ValueError("negative probability")
    if all(isinstance(p, Fraction) for p in probs):
        if sum(probs) != 1:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
    else:
        total = math.fsum(float(p) for p in probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-12")


@dataclass(frozen=True)
class FiniteDistribution:
    """A law on a finite set of hashable symbols."""

    support: tuple[Hashable, ...]
    probs: tuple[ProbLike, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs differ in length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support has repeated symbols")
        _check_normalized(self.probs)

    def prob(self, symbol: Hashable) -> ProbLike:
        try:
            return self.probs[self.support.index(symbol)]
        except ValueError:
            return Fraction(0)

    def items(self) -> Iterable[tuple[Hashable, ProbLike]]:
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


@dataclass(frozen=True)
class JointDistribution:
    """A law on tuples, with named coordinates."""

    variables: tuple[str, ...]
    table: tuple[tuple[tuple, ProbLike], ...]

    def __post_init__(self) -> None:
        for value, _ in self.table:
            if len(value) != len(self.variables):
                raise ValueError("table entry arity does not match variables")
        _check_normalized([p for _, p in self.table])

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        idx = [self.variables.index(v) for v in names]
        acc: dict[tuple, ProbLike] = {}
        for value, p in self.table:
            key = tuple(value[i] for i in idx)
            acc[key] = acc.get(key, Fraction(0)) + p
        items = sorted(acc.items(), key=lambda kv: repr(kv[0]))
        return JointDistribution(tuple(names), tuple(items))

    def as_finite(self) -> FiniteDistribution:
        return FiniteDistribution(
            tuple(v for v, _ in self.table), tuple(p for _, p in self.table)
        )


def entropy(dist: FiniteDistribution | JointDistribution) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    if isinstance(dist, JointDistribution):
        probs: Iterable[ProbLike] = (p for _, p in dist.table)
    else:
        probs = dist.probs
    acc = 0.0
    for p in probs:
        pf = float(p)
        if pf > 0.0:
            acc -= pf * math.log2(pf)
    return acc


def conditional_entropy(
    joint: JointDistribution, given: Sequence[str]
) -> float:
    """H(rest | given) = H(everything) - H(given) in bits."""
    return entropy(joint) - entropy(joint.marginal(given))


def epsilon2(dist: FiniteDistribution, epsilon: float, length: int) -> float:
    """Envelope slack for length-``length`` typical sequences.

    epsilon * H(p) is the asymptotic term; the second term,
    log2(length + 1) * |support| / length, pays for the finite-length
    spread of empirical types.
    """
    support_size = sum(1 for p in dist.probs if p > 0)
    return float(epsilon) * entropy(dist) + math.log2(length + 1) * support_size / length


def induced_distribution(
    net: RelayNetwork, code: RelayCode, budget: int = 1 << 20
) -> JointDistribution:
    """Exact joint law of the source block and every reception block.

    Runs the code on every message under the uniform message law, so each
    trace carries probability 1/K.  Variables are named "x0" and "y1" ..
    "yM" in node order.  Reception blocks are deterministic functions of
    the source block, hence H(yj | x0) = 0 for every j.
    """
    if code.message_count > budget:
        raise TooLarge(
            f"{code.message_count} messages exceed the enumeration budget {budget}"
        )
    traces = trace_all(net, code)
    names = ("x0",) + tuple(f"y{j}" for j in range(1, net.node_count))
    K = code.message_count
    rows = []
    for tr in traces:
        value = (tr.transmitted[net.source],) + tuple(
            tr.received[j] for j in range(1, net.node_count)
        )
        rows.append((value, Fraction(1, K)))
    rows.sort(key=lambda kv: repr(kv[0]))
    return JointDistribution(names, tuple(rows))


def _as_exact(epsilon: float) -> Fraction:
    # repr() gives the shortest decimal that round-trips, so a user-facing
    # value like 0.1 becomes exactly 1/10 here.
    return Fraction(repr(float(epsilon)))


def is_strongly_typical(
    seq: Sequence[Hashable], dist: FiniteDistribution, epsilon: float
) -> bool:
    """Robust strong typicality with exact rational comparisons."""
    L = len(seq)
    if L == 0:
        raise ValueError("empty sequence")
    counts = Counter(seq)
    prob_of = dict(dist.items())
    for sym in counts:
        p = prob_of.get(sym)
        if p is None or p == 0:
            return False
    eps = _as_exact(epsilon)
    for sym, p in dist.items():
        if not isinstance(p, Fraction):
            p = Fraction(repr(float(p)))
        c = counts.get(sym, 0)
        if abs(Fraction(c, L) - p) > eps * p:
            return False
    return True


def jointly_strongly_typical(
    seqs: Sequence[Sequence[Hashable]],
    joint: JointDistribution,
    epsilon: float,
) -> bool:
    """Strong typicality of coordinatewise-zipped sequences under a joint law."""
    if len(seqs) != len(joint.variables):
        raise ValueError(
            f"{len(seqs)} sequences for {len(joint.variables)} joint coordinates"
        )
    lengths = {len(s) for s in seqs}
    if len(lengths) != 1:
        raise ValueError("sequences must share one length")
    zipped = list(zip(*seqs))
    return is_strongly_typical(zipped, joint.as_finite(), epsilon)


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
        if (np.diff(self.codes) <= 0).any():
            raise ValueError("rows must be distinct and in ascending code order")

    @property
    def codes(self) -> np.ndarray:
        return _radix_codes(self.digits, len(self.alphabet))

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

    slot: int | tuple[int, int]
    epsilon: float
    n_rep: int
    dist: FiniteDistribution
    vectors: ReceptionVectors
    epsilon_2: float
    envelope: tuple[float, float]

    @property
    def node(self) -> int:
        return _slot_node(self.slot)


def _slot_node(slot: int | tuple[int, int]) -> int:
    """The node that decides at ``slot``: a node id or a (node, t) pair."""
    return slot if isinstance(slot, int) else slot[0]


def _slot_values(traces: Sequence[NetworkTrace], slot: int | tuple[int, int]) -> list:
    """Each base message's reception at ``slot``: its block, or its t-th symbol."""
    if isinstance(slot, int):
        return [tr.received[slot] for tr in traces]
    node, t = slot
    return [tr.received[node][t - 1] for tr in traces]


def _typical_digit_rows(
    support: Sequence[Hashable], dist: FiniteDistribution, n_rep: int, epsilon: float
) -> np.ndarray:
    """Rows of ``support``-digits, length n_rep, whose vectors are typical.

    All ``len(support)**n_rep`` rows are scanned in lexicographic order.
    is_strongly_typical decides once per type class, on the class's
    non-decreasing representative; a row's class is found by sorting its
    digits.  Returns the kept rows as an int64 array in row order.
    """
    k = len(support)
    kept = [
        rep for rep in itertools.combinations_with_replacement(range(k), n_rep)
        if is_strongly_typical(tuple(support[d] for d in rep), dist, epsilon)
    ]
    rows = np.indices((k,) * n_rep, dtype=np.int64).reshape(n_rep, -1).T
    kept_types = _radix_codes(np.asarray(kept, dtype=np.int64).reshape(-1, n_rep), k)
    return rows[np.isin(_radix_codes(np.sort(rows, axis=1), k), kept_types)]


def _radix_codes(rows: np.ndarray, radix: int) -> np.ndarray:
    """Base-``radix`` int64 code of each digit row, first column most significant."""
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        codes *= radix
        codes += col
    return codes


def _typical_vectors(
    dist: FiniteDistribution, n_rep: int, epsilon: float, budget: int
) -> ReceptionVectors:
    support = tuple(sorted(s for s, p in dist.items() if p > 0))
    if len(support) ** n_rep > budget:
        raise TooLarge(
            f"{len(support)}**{n_rep} candidate vectors exceed the budget {budget}"
        )
    return ReceptionVectors(support, _typical_digit_rows(support, dist, n_rep, epsilon))


def _build_set(
    slot: int | tuple[int, int],
    values_per_message: Sequence[Hashable],
    n_rep: int,
    epsilon: float,
    budget: int,
) -> TypicalSet:
    dist = FiniteDistribution.from_counts(Counter(values_per_message))
    vectors = _typical_vectors(dist, n_rep, epsilon, budget)
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
    budget: int = 1 << 20,
) -> TypicalSet:
    """Typical reception-block vectors at a node, for block scheduling.

    Each codeword of the product code induces n_rep reception blocks at
    the node, one per base use, drawn independently from the base block
    law.  The returned vectors are exactly the epsilon-typical elements of
    the product image.  A node that hears nothing (for instance one that
    is unreachable from the source) has a point-mass law and a single
    all-zero typical vector.
    """
    traces = trace_all(net, product.base)
    return _build_set(node, _slot_values(traces, node), product.n_rep, epsilon, budget)


def enumerate_typical_symbol_vectors(
    net: RelayNetwork,
    product: ProductCode,
    node: int,
    t: int,
    epsilon: float,
    budget: int = 1 << 20,
) -> TypicalSet:
    """Typical vectors of the t-th reception symbol, for interleaving.

    Under the interleaved schedule the n_rep base uses advance in
    lockstep, so the natural decision variable at (node, t) is the vector
    of t-th reception symbols across the uses.
    """
    traces = trace_all(net, product.base)
    if not (1 <= t <= product.base.block_length):
        raise ValueError(f"symbol index {t} out of range")
    return _build_set((node, t), _slot_values(traces, (node, t)), product.n_rep, epsilon, budget)
