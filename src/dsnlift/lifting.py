"""Lifting discrete-model codes onto the noisy network.

The price of moving a code from the discrete superposition model to the
Gaussian network is a per-node entropy constant kappa that depends only
on the number of nodes, never on the gains.  Lifting keeps, at every
node, a small random fraction of the typical reception vectors (the
pruned decision sets S_j) and then keeps exactly those codewords whose
receptions land in every pruned set.  The surviving codewords, together
with the pruned sets themselves, are the digital interface between code
design on the discrete model and operation on the noisy network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .codes import ProductCode, trace_all
from .network import RelayNetwork
from .typicality import (
    FiniteDistribution,
    ReceptionVectors,
    SlotKey,
    TypicalSet,
    _check_budget,
    _radix_codes,
    _slot_key,
    _slot_values,
    _typical_digit_rows,
    entropy,
)

__all__ = [
    "EmptyResult",
    "kappa",
    "kappa_mimo",
    "KappaParams",
    "PrunedSets",
    "LiftedCode",
    "RateReport",
    "prune_sets",
    "build_lifted_code",
    "rate_report",
]

class EmptyResult(ValueError):
    """Pruning rounded at least one decision set down to nothing.

    At the true kappa scale this is the expected outcome for any code
    small enough to enumerate on a desk; use a kappa override to exercise
    the mechanics at reduced scale.
    """

    def __init__(self, slots: Sequence[SlotKey], message: str):
        self.slots = tuple(slots)
        super().__init__(message)


def kappa(node_count_m: int) -> float:
    """Per-node rate loss constant, in bits per channel use.

    For a network with nodes 0..M the constant is log2(12 M - 2) + 11.
    It depends only on the node count M, never on the gains.
    """
    if node_count_m < 1:
        raise ValueError("node count M must be at least 1")
    return math.log2(12 * node_count_m - 2) + 11.0


def kappa_mimo(node_count_m: int) -> float:
    """Two-antenna variant: 2 log2(24 M - 2) + 22 bits per channel use."""
    if node_count_m < 1:
        raise ValueError("node count M must be at least 1")
    return 2.0 * math.log2(24 * node_count_m - 2) + 22.0


@dataclass(frozen=True)
class KappaParams:
    """Which kappa to price pruning with.

    ``reference`` is the formula value for the network; ``effective`` is
    what pruning actually uses, i.e. the override when one is set.  The
    override exists because the reference value (14+ bits per node per
    use) zeroes out any enumerable toy code; reports always carry both.
    """

    node_count_m: int
    antenna_mode: str = "scalar"
    override: float | None = None

    @property
    def reference(self) -> float:
        if self.antenna_mode == "mimo2x2":
            return kappa_mimo(self.node_count_m)
        return kappa(self.node_count_m)

    @property
    def effective(self) -> float:
        return self.reference if self.override is None else float(self.override)

    @classmethod
    def for_network(cls, net: RelayNetwork, override: float | None = None) -> "KappaParams":
        return cls(
            node_count_m=net.node_count - 1,
            antenna_mode=net.antenna_mode,
            override=override,
        )


@dataclass
class PrunedSets:
    """Per-slot random subsets of the typical reception vectors.

    sets[slot] keeps the typical set's alphabet and the chosen digit rows
    in their sorted order; the position of a vector in that order is its
    index for provenance and decoding.  Selection draws a seeded partial
    shuffle per slot, with the slot's generator derived from the master
    seed and the slot key, so slots are independent and the whole object
    is reproducible from master_seed alone.
    """

    sets: dict[SlotKey, ReceptionVectors]
    exponents: dict[SlotKey, float]
    bounds: dict[SlotKey, tuple[float, float]]
    master_seed: int
    kappa_params: KappaParams
    eta: float | str
    n_rep: int
    symbols_per_slot: int


def _formula_kappa_advice(kappa_params: KappaParams) -> str:
    """Why a result at the formula kappa is empty; "" under an override."""
    if kappa_params.override is not None:
        return ""
    return (
        f"; the formula kappa ({kappa_params.reference:.3f} bits/use) starves "
        "enumerable codes, so desk-scale runs need kappa_override"
    )


def prune_sets(
    typical_sets: Mapping[SlotKey, TypicalSet],
    kappa_params: KappaParams,
    eta: float | str,
    master_seed: int,
    symbols_per_slot: int,
) -> PrunedSets:
    """Keep a 2**-(n_rep (S kappa + 2 eta)) fraction of each typical set.

    S = symbols_per_slot is the number of channel symbols a slot's
    decision covers: the base block length for block-scheduled slots, 1
    for interleaved per-symbol slots.  eta is either a number or the
    policy string "epsilon2", which ties each slot's eta to that slot's
    reported epsilon_2; the policy is faithful to the construction but
    its finite-length term alone starves every slot at enumerable sizes,
    so desk-scale runs pass an explicit small number instead.  Sizes are
    rounded half up.  If any rounds to zero, EmptyResult names every
    starved slot before any set is drawn, and without a kappa override
    its message says that the formula kappa needs one.  The slots must be
    all node ids or all (node, t) pairs.
    """
    if not typical_sets:
        raise ValueError("no typical sets to prune")
    if len({isinstance(slot, int) for slot in typical_sets}) != 1:
        raise ValueError("typical sets mix node slots and (node, t) slots")
    n_reps = {ts.n_rep for ts in typical_sets.values()}
    if len(n_reps) != 1:
        raise ValueError("typical sets disagree on n_rep")
    n_rep = n_reps.pop()
    if isinstance(eta, str) and eta != "epsilon2":
        raise ValueError(f"unknown eta policy {eta!r}")
    cost = symbols_per_slot * kappa_params.effective
    etas = {
        slot: typical_sets[slot].epsilon_2 if isinstance(eta, str) else float(eta)
        for slot in sorted(typical_sets)
    }
    exponents = {slot: n_rep * (cost + 2.0 * e) for slot, e in etas.items()}
    sizes = {
        slot: math.floor(len(typical_sets[slot].vectors) * 2.0 ** (-x) + 0.5)
        for slot, x in exponents.items()
    }
    starved = [slot for slot, size in sizes.items() if size == 0]
    if starved:
        raise EmptyResult(
            starved, f"pruned sets empty at slots {starved}" + _formula_kappa_advice(kappa_params)
        )

    sets: dict[SlotKey, ReceptionVectors] = {}
    bounds: dict[SlotKey, tuple[float, float]] = {}
    for slot, size in sizes.items():
        ts = typical_sets[slot]
        rng = np.random.default_rng(np.random.SeedSequence([master_seed] + _slot_key(slot)))
        order = rng.permutation(len(ts.vectors))[:size]
        sets[slot] = ReceptionVectors(ts.vectors.alphabet, ts.vectors.digits[np.sort(order)])
        h = entropy(ts.dist)
        lo = 2.0 ** (n_rep * (h - cost - 3.0 * ts.epsilon_2))
        hi = 2.0 ** (n_rep * (h + ts.epsilon_2 - cost - 2.0 * etas[slot]))
        bounds[slot] = (lo, hi)
    return PrunedSets(
        sets=sets,
        exponents=exponents,
        bounds=bounds,
        master_seed=master_seed,
        kappa_params=kappa_params,
        eta=eta if isinstance(eta, str) else float(eta),
        n_rep=n_rep,
        symbols_per_slot=symbols_per_slot,
    )


@dataclass
class LiftedCode:
    """Codewords that survive every pruned decision set.

    ``provenance[i][slot]`` is the index, inside the slot's pruned set,
    of the reception vector codeword i produces there.  Replaying the
    codeword through the deterministic network and looking the reception
    up again must land on the same index; that round trip is the
    correctness invariant of the construction.
    """

    codeword_indices: tuple[int, ...]
    provenance: dict[int, dict[SlotKey, int]]
    epsilon: float
    pruned: PrunedSets

    @property
    def count(self) -> int:
        return len(self.codeword_indices)


def build_lifted_code(
    net: RelayNetwork,
    product: ProductCode,
    pruned: PrunedSets,
    epsilon: float,
) -> LiftedCode:
    """Intersect the inverse images of the pruned sets inside the product code.

    A codeword survives when (a) its reception vector at every slot is a
    member of that slot's pruned set and (b) the codeword is jointly
    epsilon-typical with its receptions.  Because the network is
    deterministic and codewords are distinct, joint typicality of the
    (source, receptions) tuple sequence reduces to typicality of the
    base-message digit sequence under the uniform message law, which is
    how it is evaluated here: a digit row is kept when each digit's count
    lies in its per-symbol count bounds.  Each base message
    is mapped to its digit in the slot's alphabet, so a codeword's
    reception vector at the slot is a digit row of the pruned set's kind,
    and membership and provenance come from one binary search of the
    set's sorted codes.  An empty result is valid and reported as such,
    not an error.
    """
    _check_budget(product.base.message_count, product.n_rep, "codewords")
    slots = sorted(pruned.sets)
    traces = trace_all(net, product.base)
    K = product.base.message_count
    n_rep = product.n_rep
    uniform = FiniteDistribution.uniform(tuple(range(K)))
    digits = _typical_digit_rows(range(K), uniform, n_rep, epsilon)

    members: dict[SlotKey, np.ndarray] = {}
    for slot in slots:
        vectors = pruned.sets[slot]
        if vectors.digits.shape[1] != n_rep:
            raise ValueError(f"pruned set at slot {slot} has rows of another length than {n_rep}")
        digit_of = {v: d for d, v in enumerate(vectors.alphabet)}
        rows = np.array([digit_of.get(v, -1) for v in _slot_values(traces, slot)], dtype=np.int64)[digits]
        codes = _radix_codes(rows, len(vectors.alphabet))
        index = np.searchsorted(vectors.codes, codes)
        # A message whose value is outside the alphabet is in no vector.
        hit = (rows >= 0).all(axis=1) & (index < len(vectors))
        hit[hit] = vectors.codes[index[hit]] == codes[hit]
        digits = digits[hit]
        members = {s: m[hit] for s, m in members.items()}
        members[slot] = index[hit]

    survivors = _radix_codes(digits, K).tolist()
    provenance: dict[int, dict[SlotKey, int]] = {ci: {} for ci in survivors}
    for slot in slots:
        for ci, i in zip(survivors, members[slot].tolist()):
            provenance[ci][slot] = i
    return LiftedCode(
        codeword_indices=tuple(survivors),
        provenance=provenance,
        epsilon=float(epsilon),
        pruned=pruned,
    )


@dataclass(frozen=True)
class RateReport:
    """Achieved rate of a lifted code against the pruning prediction.

    predicted_rate is base_rate - M * kappa_effective; epsilon_m is the
    bookkeeping slack (3M + 1) * max epsilon_2 accumulated by chaining
    per-node envelope bounds across M pruning stages.
    """

    codeword_count: int
    log2_count: float
    achieved_rate: float
    base_rate: float
    gap_to_base: float
    predicted_rate: float
    residual: float
    epsilon_m: float
    kappa_reference: float
    kappa_effective: float
    empty: bool


def rate_report(
    lifted: LiftedCode,
    product: ProductCode,
    typical_sets: Mapping[SlotKey, TypicalSet],
) -> RateReport:
    params = lifted.pruned.kappa_params
    n_rep = lifted.pruned.n_rep
    n_total = n_rep * product.base.block_length
    count = lifted.count
    log2_count = math.log2(count) if count > 0 else float("-inf")
    achieved = log2_count / n_total if count > 0 else 0.0
    base_rate = product.rate
    m = params.node_count_m
    predicted = base_rate - m * params.effective
    eps2_max = max(ts.epsilon_2 for ts in typical_sets.values())
    eps_m = (3 * m + 1) * eps2_max
    return RateReport(
        codeword_count=count,
        log2_count=log2_count,
        achieved_rate=achieved,
        base_rate=base_rate,
        gap_to_base=base_rate - achieved,
        predicted_rate=predicted,
        residual=achieved - predicted,
        epsilon_m=eps_m,
        kappa_reference=params.reference,
        kappa_effective=params.effective,
        empty=(count == 0),
    )
