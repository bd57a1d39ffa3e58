"""Running lifted codes on the noisy network and checking the price.

Two halves.  The simulation half transports a lifted code through the
Gaussian network in one walk over decision slots.  A slot is a node plus
the base-block times it decides: all N of them on a layered network, or
one time t otherwise.  The slots, their order and every fact of one come
from typicality, so nothing here tells a block slot from a symbol slot.
At each slot the node decodes its noisy reception to a member of
its pruned decision set.  A relay re-encodes deterministically every
time whose relay-map read falls in the slot, and the destination walks
its decisions, slot by slot, down the decoder to a message digit per use.
Each node's transmissions are a narrow (trials, n_rep, N) array of
indices into its complex symbol table, numbered by one rule for all.
The verification half prices every node by the entropies of the floored
perturbation, the floored noise and the carry, whose sum upper-bounds the
information gap between the discrete and the noisy reception and must
stay under the node-count constant kappa.  _gap_estimates estimates the
three terms of one reception (a node, or a node and receive antenna) and
knows no node or price; _gap_histograms behind it draws and counts the
samples _BOUND_CHUNK at a time, holding per sample only narrow digits and
a narrow state (or, when inputs have more rows than there are samples,
the real noise), and the bootstrap estimates its 200 resamples together.
verify_genie_bounds lists the receptions and prices them, doubling the
per-antenna gap on two-antenna networks.

Every decision reads one per-use cost table.  A slot's candidates are
digit rows over per-value rows of its alphabet, so the squared distance
splits by use: d2(y, c) = sum_u D[c_u, trial, u], with D of shape
(|alphabet|, trials, n_rep).  D is computed elementwise, one alphabet
value at a time, so equal per-value rows give bit-equal costs.  Stage 1
(ML only) takes each use's first argmin and ranks that digit row in the
set with ReceptionVectors.find; a hit is the ML decision, and among exact
copies it is the lowest-index member.  Stage 2 takes the ML misses, and
every "threshold" trial, 512 at a time: one product of D, flattened to
(trials, |alphabet| * n_rep), with the set's 0/1 one-hot matrix of
shape (|alphabet| * n_rep, |S|) gives each member's summed cost, since
products by 0 and 1 are exact.  BLAS may still add a member's terms in
another order than an exact copy's, so an ML pick maps to the first copy.
Stage-2 memory per slot is the one-hot matrix and one 512 x |S| float64
buffer (16 MB at |S| = 4096), whatever the trial count; D adds
|alphabet| * trials * n_rep floats.  The one-hot matrix holds n_rep *
|alphabet| rows, where a real candidate matrix would hold 2 * n_rep *
width; every shipped config has |alphabet| <= 2 * width.  A slot's
candidate, offset and re-encode rows are read once per value of the
pruned set's alphabet, a reception block or symbol, from the base trace
that first produces it (run_dsn's receptions and transmissions, and the
v of decompose_received's genie split), and gathered with the set's
(|S|, n_rep) digit rows; the destination reads the decoder through one
step table per slot.

Randomness is derived from explicit integer seeds via SeedSequence
streams: [seed, 0] samples messages, and [seed, 1] plus the slot's seed
key, [node] (block scheduling) or [node, t] (interleaved), drives the
noise at one decision slot.  Rerunning with the same seed reproduces
every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import (
    ComplexGain, ConfigError, _add_keeping_floor, check_batch_range, decompose_batch, decompose_received,
    symbol_value,
)
from .codes import NetworkTrace, ProductCode, RelayCode, trace_all
from .lifting import KappaParams, LiftedCode, PrunedSets
from .network import RelayNetwork
from .typicality import (
    ReceptionVectors,
    SlotKey,
    _decision_slots,
    _radix_codes,
    _schedule,
    _slot_digits,
    _slot_key,
    _slot_node,
    _slot_times,
    _slot_value,
)

__all__ = [
    "NoiseSpec",
    "BoundEntry",
    "BoundReport",
    "SimulationResult",
    "DEFAULT_THRESHOLD",
    "simulate_lifted",
    "verify_genie_bounds",
    "exact_gaussian_cell_entropy",
    "gaussian_cell_probabilities",
    "plug_in_entropy",
    "miller_madow_entropy",
    "bootstrap_entropy_ci",
]

LOG2E = math.log2(math.e)
DEFAULT_THRESHOLD = -6.0
# Trials per row of SimulationResult.batches.
_BATCH_ROWS = 4096


@dataclass(frozen=True)
class NoiseSpec:
    """Unit-variance circularly symmetric complex Gaussian noise.

    Real and imaginary parts are N(0, 1/2) each.  ``scale`` multiplies
    the standard deviation and exists only as a debug hook (scale 0 turns
    the channel deterministic); production use keeps it at 1.
    """

    seed: int
    scale: float = 1.0


def _noise(rng: np.random.Generator, shape: tuple[int, ...], scale: float) -> np.ndarray:
    # A scale near the float64 maximum overflows here; _decide refuses the
    # costs that follow, so the overflow itself is not warned about.
    sd = math.sqrt(0.5) * scale
    with np.errstate(over="ignore", invalid="ignore"):
        return rng.normal(0.0, 1.0, shape) * sd + 1j * (rng.normal(0.0, 1.0, shape) * sd)


# --- decoding --------------------------------------------------------------

# Trials per stage-2 step.  It bounds the distance buffer at _CHUNK x |S|.
_CHUNK = 512


def _use_costs(y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cost D[a, trial, u] of alphabet value a at use u of each row of ``y``.

    ``y`` is (trials, n_rep * width) and ``rows`` (|alphabet|, width).
    The cost is sum_w |y[u, w] - rows[a, w]|^2, summed elementwise in real
    arithmetic in one fixed order, so equal rows cost the same bits.  A
    candidate's squared distance is the sum of its digits' costs.
    """
    width = rows.shape[1]
    # Re and Im of each time w of every use, one contiguous array each.
    cols = [np.ascontiguousarray(part[:, w::width]) for w in range(width) for part in (y.real, y.imag)]
    costs = np.zeros((len(rows), *cols[0].shape))
    tmp = np.empty(cols[0].shape)
    for cost, row in zip(costs, rows):
        for col, x in zip(cols, (x for c in row for x in (c.real, c.imag))):
            cost += np.square(np.subtract(col, x, out=tmp), out=tmp)
    return costs


def _first_argmin(costs: np.ndarray) -> np.ndarray:
    """``costs.argmin(axis=0)`` as int64, by an elementwise running minimum.

    A strict ``<`` keeps the lowest index among ties.  The index only
    grows, so the running maximum of ``a * closer`` is the last closer a.
    """
    best = costs[0].copy()
    arg = np.zeros(best.shape, dtype=np.int64)
    for a in range(1, len(costs)):
        np.maximum(arg, a * (costs[a] < best), out=arg)
        np.minimum(best, costs[a], out=best)
    return arg


def _choose(d2: np.ndarray, L: int, method: str, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Decide each row of the squared distances ``d2`` (trials, |S|) over
    length-``L`` candidates: (column, failure flag).

    "ml" picks the nearest column, ties to the first.  "threshold" picks
    the unique column whose mean per-symbol log-likelihood (base 2) clears
    the threshold; a trial where no column or several do is flagged and
    keeps the ML column, so a simulation can go on re-encoding.  The
    threshold case overwrites ``d2``.
    """
    if method not in ("ml", "threshold"):
        raise ConfigError(f"unknown decode method {method!r}")
    ml = d2.argmin(axis=1)
    if method == "ml":
        return ml, np.zeros(len(d2), dtype=bool)
    d2 /= L
    d2 *= LOG2E
    passing = np.subtract(-math.log2(math.pi), d2, out=d2) > threshold
    unique = passing.sum(axis=1) == 1
    return np.where(unique, passing.argmax(axis=1), ml), ~unique


# --- simulation ------------------------------------------------------------


@dataclass
class SimulationResult:
    """Outcome of Monte Carlo transport of a lifted code.

    block_errors counts, per decision slot, the trials where the decoded
    set member differed from the true one; decode_failures counts
    threshold decodes that did not return a unique candidate (those trials
    fall back to the ML choice for re-encoding).  batches holds
    (start, trials, message_errors) rows for reporting.
    """

    trials: int
    message_errors: int
    message_error_rate: float
    block_errors: dict[SlotKey, int]
    decode_failures: dict[SlotKey, int]
    avg_power: dict[int, float]
    noise_seed: int
    noise_scale: float
    method: str
    n_rep: int
    batches: list[tuple[int, int, int]]
    scheduling: str


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per-candidate rows (|S|, n_rep * width) from per-value rows."""
    return table[index].reshape(len(index), -1)


def _index_type(bit_depth: int) -> np.dtype:
    """The unsigned type of a symbol index.  A node sends symbols of the
    bit_depth grid, so it has at most 4**bit_depth distinct ones."""
    return np.min_scalar_type(4**bit_depth - 1)


def _symbol_table(index: Mapping, bit_depth: int) -> np.ndarray:
    """The complex values of the symbols ``index`` numbers, in index order."""
    return np.asarray([symbol_value(x, bit_depth) for x in index], dtype=np.complex128)


def _source_symbols(product: ProductCode, lifted: LiftedCode, index: dict) -> np.ndarray:
    """The symbols of every lifted codeword, (count, n_rep, N), as indices
    into the source's numbering ``index``, which the codebook extends."""
    book = np.asarray(
        [[index.setdefault(x, len(index)) for x in cw] for cw in product.base.codebook],
        dtype=_index_type(product.base.bit_depth),
    )
    digits = np.asarray(
        [product.message_tuple(ci) for ci in lifted.codeword_indices], dtype=np.int64
    )
    return book[digits.reshape(lifted.count, product.n_rep)]


@dataclass(frozen=True)
class _SlotTable:
    """One decision slot, as the walk reads it.

    ``rows`` holds the effective row (|alphabet|, width) of each value of
    the slot's alphabet over the 0-based ``times`` the slot covers, and
    ``vectors`` the pruned set, whose find ranks a digit row.  ``onehot`` is the
    0/1 matrix (|alphabet| * n_rep, |S|) whose column s marks value a at
    use u, in row a * n_rep + u, when member s has digit a there;
    ``first_copy`` maps each member to the first member with the same
    effective rows.  A relay's decision sets its symbols at ``sends``
    (None if at no time), and ``reencode`` holds them per member (|S|,
    n_rep * width of sends), as indices into the relay's symbol numbering.
    """

    times: slice
    rows: np.ndarray
    vectors: ReceptionVectors
    onehot: np.ndarray
    first_copy: np.ndarray
    sends: slice | None
    reencode: np.ndarray | None


def _set_layout(rows: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``onehot`` and ``first_copy`` of the set ``digits`` over per-value ``rows``."""
    n_values = len(rows)
    onehot = digits.T == np.arange(n_values)[:, None, None]
    # Spell every member with the first value of equal row at each use;
    # members spelled alike are exact copies.
    _, first, same = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    spelled = _radix_codes(first[same.reshape(-1)][digits], n_values)
    _, first, same = np.unique(spelled, return_index=True, return_inverse=True)
    return onehot.reshape(-1, len(digits)).astype(np.float64), first[same]


def _slot_tables(
    net: RelayNetwork,
    base: RelayCode,
    pruned: PrunedSets,
    traces: Sequence[NetworkTrace],
    use_offsets: bool,
) -> tuple[dict[SlotKey, _SlotTable], dict[int, dict]]:
    """The table of every slot, each row read once per value of the slot's
    alphabet and gathered with the set's (|S|, n_rep) digit rows, and the
    symbol numbering of every node.

    Each value is read off the trace of the lowest base message that
    produces it: its rows are the node's receptions at the slot's times,
    its offsets the genie split's v of those receptions, and its re-encode
    rows the node's transmissions at the times the decision sets.  The
    offset is exact whenever the reception determines the in-neighbour
    transmissions, and a bounded approximation otherwise.  A relay map's
    symbol at time u reads the reception at u (block maps) or at u - 1
    (causal maps), so a decision over some times sets every u whose read
    falls among them; a causal map's time 1 reads nothing and is no
    slot's to set.  Every node's numbering starts with entry 0, its time-1
    symbol of base message 0, which stands wherever no decision writes; a
    relay's goes on with what its re-encode rows write, as met.  Entry 0 is
    exact: a causal map's time 1 reads nothing; a block map's decision
    writes all N times before an out-neighbour, a level on, reads them; the
    destination always sends (0, 0); the source's times hold codewords.
    """
    N, n = base.block_length, base.bit_depth
    numberings = {j: {x[0]: 0} for j, x in traces[0].transmitted.items()}
    tables: dict[SlotKey, _SlotTable] = {}
    for slot, vectors in pruned.sets.items():
        node, times = _slot_node(slot), _slot_times(slot, N)
        digits = _slot_digits(traces, slot, vectors.alphabet).tolist()
        picked = [traces[digits.index(a)] for a in range(len(vectors.alphabet))]
        rows = np.asarray([[complex(*y) for y in tr.received[node][times]] for tr in picked])
        if use_offsets:
            edges = net.in_edges(node)
            gains = [e.gain for e in edges]
            rows = rows + np.asarray([
                [decompose_received([tr.transmitted[e.src][t] for e in edges], gains, 0j, n).v
                 for t in range(N)[times]]
                for tr in picked
            ])
        sends = reencode = None
        if node != net.destination:
            lag = int(base.relay_maps[node].causal)
            us = slice(times.start + lag, min(times.stop + lag, N))
            if us.start < us.stop:
                index = numberings[node]
                sent = [[index.setdefault(x, len(index)) for x in tr.transmitted[node][us]] for tr in picked]
                sends, reencode = us, _gather(np.asarray(sent, dtype=_index_type(n)), vectors.digits)
        tables[slot] = _SlotTable(times, rows, vectors, *_set_layout(rows, vectors.digits), sends, reencode)
    return tables, numberings


def _decide(
    y: np.ndarray, table: _SlotTable, method: str, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Decide each row of ``y`` (trials, L) at one slot: (set index, failure flag).

    Stage 1 (ML only) ranks each trial's per-use argmin of the cost table
    with the set's find; a hit is the ML decision.  Stage 2
    sums the table per member for the misses, and for every trial of
    another method, and decides with _choose.  Costs past float64 would
    decide every trial alike, so they raise ConfigError.
    """
    with np.errstate(over="ignore"):
        costs = _use_costs(y, table.rows)
    if not np.isfinite(costs).all():
        raise ConfigError("decision costs overflow float64; the noise scale is too large")
    trials, L = y.shape
    chosen = np.zeros(trials, dtype=np.int64)
    failed = np.zeros(trials, dtype=bool)
    todo = np.arange(trials)
    if method == "ml":
        chosen = table.vectors.find(_first_argmin(costs))
        todo = np.flatnonzero(chosen < 0)
    buf = np.empty((min(_CHUNK, len(todo)), table.onehot.shape[1]))
    for lo in range(0, len(todo), _CHUNK):
        idx = todo[lo : lo + _CHUNK]
        # (trials, |alphabet| * n_rep) in the row order of onehot.
        flat = costs[:, idx].transpose(1, 0, 2).reshape(len(idx), -1)
        d2 = np.matmul(flat, table.onehot, out=buf[: len(idx)])
        column, failed[idx] = _choose(d2, L, method, threshold)
        chosen[idx] = table.first_copy[column]
    return chosen, failed


def _destination_messages(
    base: RelayCode, sets: Mapping[SlotKey, ReceptionVectors], chosen: Mapping[SlotKey, np.ndarray]
) -> np.ndarray:
    """Message decoded per trial from the destination's decisions.

    ``chosen`` holds, per destination slot, the decided index into the
    slot's pruned set ``sets[slot]`` for every trial.  Every use walks
    the decoder as a trie over the slots in time order: a state numbers a
    known prefix of the decoder's receptions, and a slot's (prefixes + 1,
    |alphabet|) step table maps a state and the decided value to the next
    state, or at the last slot to the message digit.  Unknown extensions
    and the last row, the dead row that state -1 indexes, hold -1, so -1
    marks a trial with a use the decoder does not know.
    """
    slots = sorted(chosen)
    trials = len(chosen[slots[0]])
    # (reception, message digit, prefix state) of every decoder entry whose
    # parts so far lie in their slots' alphabets; all start at the root.
    live = [(y, m, 0) for y, m in base.decoder.items()]
    known, state = 1, np.zeros(1, dtype=np.int64)
    for s in slots:
        value = {x: a for a, x in enumerate(sets[s].alphabet)}
        step = np.full((known + 1, len(value)), -1, dtype=np.int64)
        ids: dict = {}
        extended = []
        for y, m, at in live:
            a = value.get(_slot_value(y, s))
            if a is not None:
                step[at, a] = nxt = m if s == slots[-1] else ids.setdefault((at, a), len(ids))
                extended.append((y, m, nxt))
        live, known = extended, len(ids)
        state = step[state, sets[s].digits[chosen[s]].reshape(-1)]
    digit = state.reshape(trials, -1)
    return np.where((digit >= 0).all(axis=1), _radix_codes(digit, base.message_count), -1)


def simulate_lifted(
    net: RelayNetwork,
    product: ProductCode,
    lifted: LiftedCode,
    trials: int,
    noise: NoiseSpec,
    method: str = "ml",
    threshold: float | None = None,
    use_offsets: bool = True,
) -> SimulationResult:
    """Transport messages of a lifted code through the Gaussian network.

    Per trial a codeword is drawn uniformly from the lifted code and sent.
    The walk visits decision slots: on layered networks a slot is a node's
    whole noisy block and nodes go level by level; on other networks the
    interleaved schedule runs, a slot is the t-th symbol of every use at
    a node, slots go in (t, node) order, and relay maps must be causal.
    At each slot the node decodes to its pruned set and a relay re-encodes
    what its decision sets with the base relay map per use; the
    destination never transmits.  Decode errors at relays propagate
    downstream exactly as they would physically.

    With use_offsets the decoder centres each candidate at reception plus
    its canonical perturbation; otherwise the perturbation is left inside
    the noise ball.  A code that cannot run on net raises run_dsn's
    ConfigError, before any draw.
    """
    base = product.base
    traces = trace_all(net, base)
    if lifted.count == 0:
        raise ConfigError("lifted code is empty; nothing to simulate")
    if trials < 1:
        raise ConfigError("need at least one trial")
    pruned = lifted.pruned
    n_rep, N = product.n_rep, base.block_length
    order = _decision_slots(net, N)
    if set(pruned.sets) != set(order):
        raise ConfigError(f"pruned sets cover slots {list(pruned.sets)}, need {sorted(order)}")
    dest = net.destination

    threshold_val = DEFAULT_THRESHOLD if threshold is None else float(threshold)
    msg_rng = np.random.default_rng(np.random.SeedSequence([noise.seed, 0]))
    pick = msg_rng.integers(lifted.count, size=trials)
    true_codewords = np.asarray(lifted.codeword_indices, dtype=np.int64)[pick]
    tables, numberings = _slot_tables(net, base, pruned, traces, use_offsets)
    codewords = _source_symbols(product, lifted, numberings[net.source])
    symbols = {j: _symbol_table(index, base.bit_depth) for j, index in sorted(numberings.items())}

    # Every node's transmissions over the trials, uses and base-block times,
    # as indices into its symbol table; entry 0 is what it sends where no
    # decision writes.
    tx = {j: np.zeros((trials, n_rep, N), dtype=_index_type(base.bit_depth)) for j in symbols}
    tx[net.source] = codewords[pick]
    block_errors = dict.fromkeys(sorted(order), 0)
    failures = dict.fromkeys(sorted(order), 0)
    decided: dict[SlotKey, np.ndarray] = {}
    for slot in order:
        j, table = _slot_node(slot), tables[slot]
        rng = np.random.default_rng(np.random.SeedSequence([noise.seed, 1] + _slot_key(slot)))
        y = _noise(rng, (trials, n_rep * table.rows.shape[1]), noise.scale)
        for e in net.in_edges(j):
            # Gained symbols, gathered from the gained table: the same products.
            gained = e.gain.as_complex() * symbols[e.src]
            y += gained[tx[e.src][:, :, table.times]].reshape(trials, -1)
        chosen, failed = _decide(y, table, method, threshold_val)
        true_idx = [lifted.provenance[ci][slot] for ci in lifted.codeword_indices]
        block_errors[slot] = int((chosen != np.asarray(true_idx, dtype=np.int64)[pick]).sum())
        failures[slot] = int(failed.sum())
        if j == dest:
            decided[slot] = chosen
        elif table.sends is not None:
            tx[j][:, :, table.sends] = table.reencode[chosen].reshape(trials, n_rep, -1)
    # The mean over the full-shape array: np.mean's pairwise sums depend on
    # the shape, so counting each symbol would change bits.
    power = {j: float(np.mean((np.abs(symbols[j]) ** 2)[x])) for j, x in tx.items() if j != dest}
    del tx

    msg_errors = _destination_messages(base, pruned.sets, decided) != true_codewords
    batches: list[tuple[int, int, int]] = []
    for lo in range(0, trials, _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, trials)
        batches.append((lo, hi - lo, int(msg_errors[lo:hi].sum())))
    total_errors = int(msg_errors.sum())
    return SimulationResult(
        trials=trials,
        message_errors=total_errors,
        message_error_rate=total_errors / trials,
        block_errors=block_errors,
        decode_failures=failures,
        avg_power=power,
        noise_seed=noise.seed,
        noise_scale=noise.scale,
        method=method,
        n_rep=n_rep,
        batches=batches,
        scheduling=_schedule(net, N)[0],
    )


# --- cell entropies and genie bounds ---------------------------------------


def gaussian_cell_probabilities() -> list[tuple[int, float]]:
    """Cell masses p_k = P(k <= Z_R < k+1) for Z_R ~ N(0, 1/2), k >= 0.

    By symmetry p_{-k-1} = p_k, so the nonnegative cells determine the
    law.  Cells are accumulated until the remaining two-sided tail mass
    drops below 1e-12.
    """
    cells = []
    k = 0
    covered = 0.0
    while True:
        p = 0.5 * (math.erf(k + 1.0) - math.erf(k))
        cells.append((k, p))
        covered += 2.0 * p
        if 1.0 - covered < 1e-12:
            break
        k += 1
        if k > 64:
            raise RuntimeError("tail did not converge")
    return cells


def exact_gaussian_cell_entropy() -> float:
    """Entropy in bits of floor(Z_R) for Z_R ~ N(0, 1/2), by quadrature.

    The complex floored noise floor(Z) has twice this entropy since the
    real and imaginary parts are independent and identically distributed.
    The value is comfortably below 4, so the complex version stays below
    8 bits no matter the channel gains.
    """
    acc = 0.0
    for _, p in gaussian_cell_probabilities():
        if p > 0.0:
            acc -= 2.0 * p * math.log2(p)
    return acc


def plug_in_entropy(counts: np.ndarray) -> float:
    """Empirical-distribution entropy in bits."""
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum()
    if n <= 0:
        raise ValueError("empty histogram")
    p = c[c > 0] / n
    return float(-(p * np.log2(p)).sum())


def miller_madow_entropy(counts: np.ndarray) -> float:
    """Plug-in entropy with the Miller-Madow bias correction."""
    c = np.asarray(counts, dtype=np.float64)
    n = float(c.sum())
    k = int((c > 0).sum())
    return plug_in_entropy(c) + (k - 1) / (2.0 * n) * LOG2E


def _miller_madow_rows(counts: np.ndarray) -> np.ndarray:
    """miller_madow_entropy of every row of ``counts`` (rows, cells), bit-equal.

    Rows with equally many nonzero cells are estimated together.  Each row
    sums its own nonzero cells, in order, in the operations
    miller_madow_entropy uses, and a sum's rounding depends only on the
    terms and their count.
    """
    ests = np.empty(len(counts))
    nonzero = (counts > 0).sum(axis=1)
    for k in np.unique(nonzero).tolist():
        rows = np.flatnonzero(nonzero == k)
        c = counts[rows]
        c = c[c > 0].reshape(len(rows), k).astype(np.float64)
        n = c.sum(axis=1)
        p = c / n[:, None]
        ests[rows] = -(p * np.log2(p)).sum(axis=1) + (k - 1) / (2.0 * n) * LOG2E
    return ests


def bootstrap_entropy_ci(counts: np.ndarray, seed: int) -> tuple[float, float]:
    """95% percentile bootstrap interval for the Miller-Madow entropy,
    from 200 multinomial resamples of ``counts``."""
    c = np.asarray(counts, dtype=np.int64)
    n = int(c.sum())
    p = c / n
    rng = np.random.default_rng(seed)
    ests = _miller_madow_rows(rng.multinomial(n, p, size=200))
    lo, hi = np.quantile(ests, [0.025, 0.975])
    return float(lo), float(hi)


@dataclass(frozen=True)
class BoundEntry:
    """Entropy estimates for one reception (node, or node and antenna)."""

    node: int
    antenna: int | None
    links: int
    h_v: float
    h_z: float
    h_c: float
    ci_v: tuple[float, float]
    ci_z: tuple[float, float]
    ci_c: tuple[float, float]
    gap_sum: float
    bound_estimate: float
    margin: float
    ci_halfwidth: float


@dataclass
class BoundReport:
    """Per-node noise-gap entropies against the kappa reference.

    gap_sum is the estimated H(floor V) + H(floor Z) + H(C), an upper
    bound proxy for how much of the noisy reception the discrete model
    fails to explain.  bound_estimate is what must stay below
    kappa_reference: the gap itself for scalar networks, twice the
    per-antenna gap for two-antenna networks.
    """

    mode: str
    samples: int
    seed: int
    input_bit_depth: int
    kappa_reference: float
    z_entropy_exact: float
    entries: list[BoundEntry]

    def all_within_kappa(self) -> bool:
        return not any(e.bound_estimate - e.ci_halfwidth > self.kappa_reference for e in self.entries)


# Samples per step of the genie-bound count.  Per-sample temporaries are
# _BOUND_CHUNK long, whatever the sample count.
_BOUND_CHUNK = 1 << 14


def _pair_keys(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """One int64 key per (re, im) pair, sorting as the pairs do."""
    return re * (1 << 32) + (im + (1 << 31))


def _key_counts(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` of positive weight, and the summed weight of each."""
    live = weights > 0
    keys, inverse = np.unique(keys[live], return_inverse=True)
    return keys, np.bincount(inverse, weights[live], len(keys)).astype(np.int64)


def _chunks(samples: int):
    """Slices of _BOUND_CHUNK samples over ``samples``, made one at a time."""
    return (slice(lo, min(lo + _BOUND_CHUNK, samples)) for lo in range(0, samples, _BOUND_CHUNK))


def _noise_cells(z: np.ndarray) -> np.ndarray:
    """floor(z), each cell an int8 value.  A cell past int8 would wrap where
    it is stored, so it raises instead; floor(Z) of N(0, 1/2) noise, as
    numpy draws it, stays within -10..9."""
    fz = np.floor(z)
    if fz.min() < -128 or fz.max() > 127:
        raise RuntimeError(f"noise cells {fz.min()}..{fz.max()} do not fit in int8")
    return fz


def _gap_histograms(
    gains: Sequence[ComplexGain], samples: int, bit_depth: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts of the distinct (re, im) pairs of floor V, floor Z and C over
    ``samples`` draws from ``rng``, each in sorted pair order.

    The draws are, in this order, the (samples, K) real and imaginary input
    digits of K links at bit depth n, uniform, and the real and imaginary
    N(0, 1/2) noise.  Each is drawn _BOUND_CHUNK samples at a time, which
    gives the values of one draw, and the digits are narrowed to their
    smallest unsigned type at once.  Every per-sample array is allocated
    before the first draw.

    y', v and the deterministic float sum a of y depend only on a sample's
    input row.  When the 2^(2nK) rows number no more than the samples, so
    that their codes also fit in int64, decompose_batch runs once on every
    row, with zero noise.  A sample then needs only its row, its noise cell
    and its carry bits floor(a + z) - floor(a) - floor(z), in {0, 1} per
    part, with the sum taken as decompose_batch takes it; its carry is that
    of the row with zero noise plus the bits.  The real noise, one chunk at
    a time, reduces each sample to a narrow state, twice its row code plus
    the real bit, and its int8 real noise cell.  The imaginary noise, one
    chunk at a time, then adds the counts into a (row, bits) table and a
    noise-cell table, whose sums over rows of equal floor v, cells and rows
    of equal carry are the histograms.  Otherwise the real noise is kept
    whole and decompose_batch runs on one chunk of samples and imaginary
    noise at a time; the per-chunk pair counts are summed.  Both ways give
    the same counts.  Only the second way holds float64 noise of every
    sample; past the per-sample arrays the memory is a few chunk-long
    arrays and the tables, whatever the sample count.
    """
    radix, k = 1 << bit_depth, len(gains)
    digit = np.min_scalar_type(radix - 1)
    table = radix ** (2 * k) <= samples
    xr = np.empty((samples, k), dtype=digit)
    xi = np.empty((samples, k), dtype=digit)
    if table:
        state = np.empty(samples, dtype=np.min_scalar_type(2 * radix ** (2 * k) - 1))
        cell_re = np.empty(samples, dtype=np.int8)
    else:
        zr = np.empty(samples)
    for x in (xr, xi):
        for c in _chunks(samples):
            x[c] = rng.integers(0, radix, size=(c.stop - c.start, k))

    def normal(c: slice) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(0.5), c.stop - c.start)

    if not table:
        for c in _chunks(samples):
            zr[c] = normal(c)
        parts: list[list[tuple[np.ndarray, np.ndarray]]] = [[], [], []]
        for c in _chunks(samples):
            b = decompose_batch(gains, xr[c], xi[c], bit_depth, zr[c], normal(c))
            for part, pair in zip(parts, (b.v_floor, b.z_floor, (b.c_re, b.c_im))):
                part.append(_key_counts(_pair_keys(*pair), np.ones(len(pair[0]))))
        return tuple(_key_counts(*map(np.concatenate, zip(*part)))[1] for part in parts)
    # Row r holds the digits of code r, first column most significant.
    rows = np.indices((radix,) * (2 * k), dtype=np.int64).reshape(2 * k, -1).T
    zero = np.zeros(len(rows))
    t = decompose_batch(gains, rows[:, :k], rows[:, k:], bit_depth, zero, zero)
    fa_re, fa_im = np.floor(t.y_re), np.floor(t.y_im)
    for c in _chunks(samples):
        # The radix code of the row [xr, xi], without copying the two together.
        code = (_radix_codes(xr[c], radix) << (bit_depth * k)) | _radix_codes(xi[c], radix)
        z = normal(c)
        fz = _noise_cells(z)
        bit = np.floor(_add_keeping_floor(t.y_re[code], z)) - fz - fa_re[code]
        state[c] = 2 * code + bit
        cell_re[c] = fz
    # Real cells span lo..hi; an imaginary cell f sits in column f + 128.
    lo, hi = int(cell_re.min()), int(cell_re.max())
    joint = np.zeros(4 * len(rows), dtype=np.int64)
    cells = np.zeros((hi - lo + 1) * 256, dtype=np.int64)
    for c in _chunks(samples):
        s = state[c].astype(np.int64)
        code = s >> 1
        z = normal(c)
        fz = _noise_cells(z)
        bit = np.floor(_add_keeping_floor(t.y_im[code], z)) - fz - fa_im[code]
        joint += np.bincount(2 * s + bit.astype(np.int64), minlength=len(joint))
        cell = cell_re[c] * 256.0 + (fz + (128 - 256 * lo))
        cells += np.bincount(cell.astype(np.int64), minlength=len(cells))
    c_re = t.c_re[:, None] + np.array([0, 0, 1, 1])
    c_im = t.c_im[:, None] + np.array([0, 1, 0, 1])
    return (
        _key_counts(_pair_keys(*t.v_floor), joint.reshape(-1, 4).sum(axis=1))[1],
        cells[cells > 0],
        _key_counts(_pair_keys(c_re, c_im).reshape(-1), joint)[1],
    )


def _gap_estimates(
    gains: Sequence[ComplexGain], samples: int, bit_depth: int, rng: np.random.Generator, ci_seed: int
) -> list[tuple[float, tuple[float, float]]]:
    """Miller-Madow estimate and bootstrap interval (seeds ci_seed + 0, 1, 2)
    of H(floor V), H(floor Z) and H(C), in that order, for one reception of
    ``gains`` over ``samples`` uniform inputs and CN(0, 1) noise from ``rng``."""
    hists = _gap_histograms(gains, samples, bit_depth, rng)
    return [(miller_madow_entropy(h), bootstrap_entropy_ci(h, ci_seed + i)) for i, h in enumerate(hists)]


def verify_genie_bounds(net: RelayNetwork, samples: int, seed: int) -> BoundReport:
    """Monte Carlo check of the per-node noise-gap entropy sums.

    Inputs are drawn uniformly from the discrete alphabet at the network
    bit depth and noise is CN(0, 1).  The receptions are the nodes with
    in-edges, in node order; on a two-antenna network each such node has
    one per receive antenna, whose links are its in-edges' two transmit
    antennas each, which is exactly how the two-antenna gap bound is
    defined.  _gap_estimates estimates each reception's three terms from
    its own SeedSequence stream.  An entry's gap_sum is their sum, and its
    bound_estimate, the price held against kappa, is the gap_sum, or twice
    the per-antenna gap_sum on a two-antenna network.  Its margin is kappa
    minus that price, its ci_halfwidth the sum of the three bootstrap
    half-widths, and links counts the node's in-edges.  Every reception
    passes check_batch_range before the first draw, so a network beyond
    int64 raises ChannelError at once.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n = net.bit_depth
    mimo = net.antenna_mode == "mimo2x2"
    reference = KappaParams.for_network(net).reference

    # (node, antenna, gains, seed key, bootstrap seed) of each reception.
    receptions = []
    for j in range(1, net.node_count):
        in_edges = net.in_edges(j)
        if not in_edges:
            continue
        if mimo:
            receptions += [
                (j, ant, [e.gain[r][ant] for e in in_edges for r in (0, 1)],  # type: ignore[index]
                 [seed, j, ant], seed * 1000 + j * 10 + ant)
                for ant in (0, 1)
            ]
        else:
            receptions.append((j, None, [e.gain for e in in_edges], [seed, j], seed * 1000 + j))
    for _, _, gains, _, _ in receptions:
        check_batch_range(gains, n)
    entries = []
    for j, ant, gains, key, ci_seed in receptions:
        rng = np.random.default_rng(np.random.SeedSequence(key))
        (h_v, ci_v), (h_z, ci_z), (h_c, ci_c) = _gap_estimates(gains, samples, n, rng, ci_seed)
        gap = h_v + h_z + h_c
        estimate = 2.0 * gap if mimo else gap
        entries.append(BoundEntry(
            node=j, antenna=ant, links=len(net.in_edges(j)), h_v=h_v, h_z=h_z, h_c=h_c,
            ci_v=ci_v, ci_z=ci_z, ci_c=ci_c, gap_sum=gap, bound_estimate=estimate,
            margin=reference - estimate,
            ci_halfwidth=sum((hi - lo) / 2.0 for lo, hi in (ci_v, ci_z, ci_c)),
        ))
    return BoundReport(
        mode=net.antenna_mode,
        samples=samples,
        seed=seed,
        input_bit_depth=n,
        kappa_reference=reference,
        z_entropy_exact=2.0 * exact_gaussian_cell_entropy(),
        entries=entries,
    )
