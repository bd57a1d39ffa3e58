"""Running lifted codes on the noisy network and checking the price.

Two halves.  The simulation half transports a lifted code through the
Gaussian network: every non-source node decodes its noisy reception to a
member of its pruned decision set, re-encodes deterministically, and the
destination maps its decision back to a message.  The verification half
estimates, per node, the entropies of the floored perturbation, the
floored noise and the carry, whose sum upper-bounds the information gap
between the discrete and the noisy reception and must stay under the
node-count constant kappa.

Every decision goes through one decode kernel, _decode; decode_to_set is
its one-row call.  A candidate set is laid out once as the real matrix
[Re c, Im c]^T with its squared norms.  Trials go through in chunks of
512, each one real matrix product of [Re y, Im y] with that matrix,
written into one 512 x |S| float64 buffer that every chunk of the slot
reuses and finished in place to |y|^2 + |c|^2 - 2 Re<y, c>, clamped at
zero.  Memory per decision slot is that buffer (16 MB at |S| = 4096),
whatever the trial count.  A slot's candidate, offset and re-encode rows
are built once per value of the pruned set's alphabet, a reception block
(block scheduling) or symbol (interleaved scheduling), and gathered with
the set's (|S|, n_rep) digit rows; the interleaved destination decodes
each distinct reception once.

Randomness is derived from explicit integer seeds via SeedSequence
streams: [seed, 0] samples messages, [seed, 1, node] (block scheduling)
or [seed, 1, node, t] (interleaved) drives the noise at one decision
slot.  Rerunning with the same seed reproduces every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .channel import ComplexGain, Zint, compute_bit_depth, decompose_batch
from .codes import NetworkTrace, ProductCode, RelayCode, trace_all
from .lifting import KappaParams, LiftedCode, PrunedSets, SlotKey, _slot_key, kappa, kappa_mimo
from .network import RelayNetwork, layer_decomposition
from .typicality import ReceptionVectors, _radix_codes

__all__ = [
    "ConfigError",
    "NoiseSpec",
    "BoundEntry",
    "BoundReport",
    "SimulationResult",
    "DEFAULT_THRESHOLD",
    "decode_to_set",
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


class ConfigError(ValueError):
    """Simulation inputs do not fit together."""


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
    sd = math.sqrt(0.5) * scale
    return rng.normal(0.0, 1.0, shape) * sd + 1j * (rng.normal(0.0, 1.0, shape) * sd)


# --- decoding --------------------------------------------------------------

# Trials per kernel step.  It bounds the distance buffer at _CHUNK x |S|.
_CHUNK = 512


def _decode(
    y: np.ndarray, effective: np.ndarray, method: str, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Decode each row of ``y`` (trials, L) to a row of ``effective`` (|S|, L).

    Returns (chosen index, failure flag) per trial.  "ml" picks the
    nearest candidate, ties to the lowest index.  "threshold" picks the
    unique candidate whose mean per-symbol log-likelihood (base 2) clears
    the threshold; a trial where no candidate or several do is flagged
    and keeps the ML index, so a simulation can go on re-encoding.

    Squared distances are |y|^2 + |c|^2 - 2 Re<y, c>, clamped at zero.
    The cross term is one real product of [Re y, Im y] with the candidate
    matrix [Re c, Im c]^T, premultiplied by -2, chunk by chunk into one
    reused (_CHUNK, |S|) buffer.  Exact copies of a candidate are scored
    once, as the first copy: BLAS may round identical columns apart, and
    the lowest-index rule must not depend on that.
    """
    if method not in ("ml", "threshold"):
        raise ConfigError(f"unknown decode method {method!r}")
    trials, L = y.shape
    # Adding 0.0 turns -0.0 into 0.0, so equal rows have equal bytes.
    cands = np.concatenate((effective.real, effective.imag), axis=1) + 0.0
    # Copies are numbered in order of first appearance.
    copy_of: dict[bytes, int] = {}
    group = np.asarray([copy_of.setdefault(c.tobytes(), len(copy_of)) for c in cands])
    _, first, copies = np.unique(group, return_index=True, return_counts=True)
    cands = cands[first]
    cross = np.ascontiguousarray(cands.T * -2.0)
    cc = np.einsum("ij,ij->i", cands, cands)
    rows = min(_CHUNK, trials)
    y_buf = np.empty((rows, 2 * L))
    d2_buf = np.empty((rows, len(cc)))
    chosen = np.empty(trials, dtype=np.int64)
    failed = np.zeros(trials, dtype=bool)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        yr, d2 = y_buf[: hi - lo], d2_buf[: hi - lo]
        yr[:, :L] = y[lo:hi].real
        yr[:, L:] = y[lo:hi].imag
        np.matmul(yr, cross, out=d2)
        d2 += cc
        d2 += np.einsum("ij,ij->i", yr, yr)[:, None]
        np.maximum(d2, 0.0, out=d2)
        ml = d2.argmin(axis=1)
        if method == "ml":
            chosen[lo:hi] = first[ml]
            continue
        d2 /= L
        d2 *= LOG2E
        passing = np.subtract(-math.log2(math.pi), d2, out=d2) > threshold
        unique = passing @ copies == 1
        chosen[lo:hi] = first[np.where(unique, passing.argmax(axis=1), ml)]
        failed[lo:hi] = ~unique
    return chosen, failed


def decode_to_set(
    y_noisy: Sequence[complex],
    candidates: Sequence[Sequence[Zint]],
    method: str = "ml",
    offsets: Sequence[Sequence[complex]] | None = None,
    threshold: float | None = None,
) -> int | None:
    """Decode a noisy sequence to an index into a candidate set.

    Candidates are deterministic reception sequences (Gaussian integer
    pairs).  ``offsets``, when given, holds the per-candidate additive
    perturbation sequences; the likelihood is then centred at candidate
    plus offset instead of treating the perturbation as part of the
    noise.

    method "ml" returns the maximum-likelihood index, ties broken by the
    lowest index.  method "threshold" returns the unique candidate whose
    mean per-symbol log-likelihood (base 2) clears the threshold, or None
    when no candidate or more than one does; None is a decode outcome,
    not an error.
    """
    if len(candidates) == 0:
        raise ConfigError("empty candidate set")
    y = np.asarray([complex(v) for v in y_noisy], dtype=np.complex128)
    cands = np.asarray(
        [[complex(re, im) for re, im in cand] for cand in candidates],
        dtype=np.complex128,
    )
    if cands.shape[1] != y.shape[0]:
        raise ConfigError(
            f"candidate length {cands.shape[1]} vs reception length {y.shape[0]}"
        )
    if offsets is not None:
        off = np.asarray(offsets, dtype=np.complex128)
        if off.shape != cands.shape:
            raise ConfigError("offsets shape does not match candidates")
        cands = cands + off
    thr = DEFAULT_THRESHOLD if threshold is None else float(threshold)
    chosen, failed = _decode(y[None, :], cands, method, thr)
    return None if failed[0] else int(chosen[0])


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


def _perturbations(net: RelayNetwork, traces: Sequence[NetworkTrace], node: int) -> np.ndarray:
    """v = sum of gain times sent symbol - y', per base message and time: (K, N).

    The perturbation is a function of what the in-neighbours actually
    transmitted.  Decoders use, per reception value, the v of the lowest
    base message that produces it (see _offset_rows); this is exact
    whenever the reception determines the in-neighbour transmissions and
    a bounded approximation otherwise.
    """
    in_edges = net.in_edges(node)
    rows = []
    for tr in traces:
        row = []
        for t, (re, im) in enumerate(tr.received[node]):
            acc = 0j
            for e in in_edges:
                acc += e.gain.as_complex() * tr.transmitted[e.src][t].as_complex()  # type: ignore[union-attr]
            row.append(acc - complex(re, im))
        rows.append(row)
    return np.asarray(rows, dtype=np.complex128)


def _offset_rows(v: np.ndarray, received: Sequence, values: Sequence) -> np.ndarray:
    """Row of ``v`` of the lowest base message whose reception is each value."""
    first: dict = {}
    for m, r in enumerate(received):
        first.setdefault(r, m)
    return v[[first[x] for x in values]]


def _source_symbols(product: ProductCode, lifted: LiftedCode) -> np.ndarray:
    """Source symbols of every lifted codeword: (count, n_rep, N) complex."""
    book = np.asarray(
        [[s.as_complex() for s in cw] for cw in product.base.codebook], dtype=np.complex128
    )
    digits = np.asarray(
        [product.message_tuple(ci) for ci in lifted.codeword_indices], dtype=np.int64
    )
    return book[digits.reshape(lifted.count, product.n_rep)]


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
    On layered networks nodes proceed level by level, each decoding its
    whole noisy block to its pruned set and re-encoding with the base
    relay map per use.  On other networks the interleaved schedule runs:
    decisions happen per base-symbol index t on vectors of the t-th
    symbols of all uses, and relay maps must be causal.  Decode errors at
    relays propagate downstream exactly as they would physically.

    With use_offsets the decoder centres each candidate at reception plus
    its canonical perturbation; otherwise the perturbation is left inside
    the noise ball.
    """
    if net.antenna_mode != "scalar":
        raise ConfigError("simulation is defined for scalar networks")
    if lifted.count == 0:
        raise ConfigError("lifted code is empty; nothing to simulate")
    if trials < 1:
        raise ConfigError("need at least one trial")
    pruned = lifted.pruned
    layered = layer_decomposition(net)
    slots = sorted(pruned.sets, key=_slot_key)
    slot_is_block = all(isinstance(s, int) for s in slots)
    if layered is not None and not slot_is_block:
        raise ConfigError("layered network needs per-node pruned sets")
    if layered is None and slot_is_block:
        raise ConfigError("non-layered network needs per-(node, t) pruned sets")
    expected_nodes = set(range(1, net.node_count))
    got_nodes = {s if isinstance(s, int) else s[0] for s in slots}
    if got_nodes != expected_nodes:
        raise ConfigError(f"pruned sets cover nodes {sorted(got_nodes)}, need {sorted(expected_nodes)}")
    if compute_bit_depth(net.all_gain_components()) != product.base.bit_depth:
        raise ConfigError("code bit depth does not match the network")

    n_rep = product.n_rep
    threshold_val = DEFAULT_THRESHOLD if threshold is None else float(threshold)

    msg_rng = np.random.default_rng(np.random.SeedSequence([noise.seed, 0]))
    pick = msg_rng.integers(lifted.count, size=trials)
    true_codewords = np.asarray(lifted.codeword_indices, dtype=np.int64)[pick]
    true_slot_idx = {
        slot: np.asarray(
            [lifted.provenance[ci][slot] for ci in lifted.codeword_indices], dtype=np.int64
        )[pick]
        for slot in slots
    }
    source = _source_symbols(product, lifted)[pick]
    traces = trace_all(net, product.base)

    if slot_is_block:
        result = _simulate_layered(
            net, product, pruned, layered, traces, noise, method, threshold_val,
            use_offsets, source, true_codewords, true_slot_idx,
        )
    else:
        result = _simulate_interleaved(
            net, product, pruned, traces, noise, method, threshold_val,
            use_offsets, source, true_codewords, true_slot_idx,
        )
    msg_errors, block_errors, failures, avg_power = result

    batches: list[tuple[int, int, int]] = []
    for lo in range(0, trials, _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, trials)
        batches.append((lo, hi - lo, int(msg_errors[lo:hi].sum())))
    total_errors = int(msg_errors.sum())
    return SimulationResult(
        trials=trials,
        message_errors=total_errors,
        message_error_rate=total_errors / trials,
        block_errors={s: int(v) for s, v in block_errors.items()},
        decode_failures={s: int(v) for s, v in failures.items()},
        avg_power={j: float(p) for j, p in avg_power.items()},
        noise_seed=noise.seed,
        noise_scale=noise.scale,
        method=method,
        n_rep=n_rep,
        batches=batches,
        scheduling="layered" if slot_is_block else "interleaved",
    )


def _layered_tables(
    net: RelayNetwork,
    base: RelayCode,
    pruned: PrunedSets,
    traces: Sequence[NetworkTrace],
    use_offsets: bool,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], np.ndarray]:
    """Per node: effective candidate rows; per relay: re-encoded rows;
    at the destination: the message of each candidate (-1 if none).

    Every row is built once per reception block of the node's alphabet
    and gathered with its digit rows into the (|S|, n_rep * N) arrays.
    """
    N = base.block_length
    effective: dict[int, np.ndarray] = {}
    reencode: dict[int, np.ndarray] = {}
    messages = np.empty(0, dtype=np.int64)
    for j in range(1, net.node_count):
        blocks, index = pruned.sets[j].alphabet, pruned.sets[j].digits
        rows = np.asarray([[complex(re, im) for re, im in b] for b in blocks], dtype=np.complex128)
        if use_offsets:
            received = [tr.received[j] for tr in traces]
            rows = rows + _offset_rows(_perturbations(net, traces, j), received, blocks)
        effective[j] = _gather(rows, index)
        if j == net.destination:
            digits = np.asarray([base.decoder.get(b, -1) for b in blocks], dtype=np.int64)[index]
            messages = np.where((digits >= 0).all(axis=1), _radix_codes(digits, base.message_count), -1)
        else:
            rm = base.relay_maps[j]
            sent = [[rm.emit(t, b).as_complex() for t in range(1, N + 1)] for b in blocks]
            reencode[j] = _gather(np.asarray(sent, dtype=np.complex128), index)
    return effective, reencode, messages


def _simulate_layered(
    net, product, pruned, layered, traces, noise, method, threshold,
    use_offsets, source, true_codewords, true_slot_idx,
):
    trials, n_rep, N = source.shape
    L = N * n_rep
    dest = net.destination
    effective, reencode, messages = _layered_tables(net, product.base, pruned, traces, use_offsets)

    tx: dict[int, np.ndarray] = {net.source: source.reshape(trials, L)}
    block_errors = {j: 0 for j in range(1, net.node_count)}
    failures = {j: 0 for j in range(1, net.node_count)}
    power = {net.source: float(np.mean(np.abs(tx[net.source]) ** 2))}
    msg_errors = np.ones(trials, dtype=bool)

    for level in layered.levels[1:]:
        for j in sorted(level):
            rng = np.random.default_rng(np.random.SeedSequence([noise.seed, 1, j]))
            y = _noise(rng, (trials, L), noise.scale)
            for e in net.in_edges(j):
                y = y + e.gain.as_complex() * tx[e.src]
            chosen, failed = _decode(y, effective[j], method, threshold)
            block_errors[j] = int((chosen != true_slot_idx[j]).sum())
            failures[j] = int(failed.sum())
            if j == dest:
                msg_errors = messages[chosen] != true_codewords
            else:
                tx[j] = reencode[j][chosen]
                power[j] = float(np.mean(np.abs(tx[j]) ** 2))
    return msg_errors, block_errors, failures, power


def _interleaved_tables(
    net: RelayNetwork,
    base: RelayCode,
    pruned: PrunedSets,
    traces: Sequence[NetworkTrace],
    use_offsets: bool,
) -> tuple[dict, dict]:
    """Per (node, t) slot: effective candidate rows (|S|, n_rep); and for
    a relay slot with t < N, the symbols the relay sends at t + 1 after
    deciding each candidate (|S|, n_rep).

    Every row is built once per symbol of the slot's alphabet and
    gathered with its digit rows.  A causal map at t + 1 reads only the
    symbol decided at t.
    """
    effective: dict[SlotKey, np.ndarray] = {}
    reencode: dict[SlotKey, np.ndarray] = {}
    v = {
        j: _perturbations(net, traces, j) for j in range(1, net.node_count)
    } if use_offsets else {}
    for slot, vectors in pruned.sets.items():
        node, t = slot
        values, index = vectors.alphabet, vectors.digits
        rows = np.asarray([complex(re, im) for re, im in values], dtype=np.complex128)
        if use_offsets:
            received = [tr.received[node][t - 1] for tr in traces]
            rows = rows + _offset_rows(v[node][:, t - 1], received, values)
        effective[slot] = _gather(rows, index)
        if node != net.destination and t < base.block_length:
            rm = base.relay_maps[node]
            sent = [rm.emit_from(t + 1, val).as_complex() for val in values]
            reencode[slot] = _gather(np.asarray(sent, dtype=np.complex128), index)
    return effective, reencode


def _destination_messages(
    base: RelayCode, sets: Sequence[ReceptionVectors], chosen: Sequence[np.ndarray]
) -> np.ndarray:
    """Message decoded per trial from the destination's N interleaved decisions.

    ``sets[t - 1]`` and ``chosen[t - 1]`` are the destination's pruned set
    and decisions at time t.  Each use's reception is the tuple of its
    symbols at t = 1..N; the decoder runs once per distinct reception.  -1
    marks a trial with a use the decoder does not know.
    """
    trials, n_rep = chosen[0].shape[0], sets[0].digits.shape[1]
    # Number the distinct receptions one symbol at a time, so that the
    # key stays below trials * n_rep * max alphabet size for any N.
    key = np.zeros(trials * n_rep, dtype=np.int64)
    for s, c in zip(sets, chosen):
        _, key = np.unique(key * len(s.alphabet) + s.digits[c].reshape(-1), return_inverse=True)
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    uses = [s.digits[c].reshape(-1)[first].tolist() for s, c in zip(sets, chosen)]
    digit = np.asarray(
        [
            base.decoder.get(tuple(s.alphabet[k] for s, k in zip(sets, ks)), -1)
            for ks in zip(*uses)
        ],
        dtype=np.int64,
    )[key.reshape(-1)].reshape(trials, n_rep)
    return np.where((digit >= 0).all(axis=1), _radix_codes(digit, base.message_count), -1)


def _simulate_interleaved(
    net, product, pruned, traces, noise, method, threshold,
    use_offsets, source, true_codewords, true_slot_idx,
):
    trials, n_rep, N = source.shape
    dest = net.destination
    base = product.base
    for j, rm in base.relay_maps.items():
        if not rm.causal:
            raise ConfigError(f"relay map at node {j} is not causal; interleaved scheduling needs causal maps")
    effective, reencode = _interleaved_tables(net, base, pruned, traces, use_offsets)

    block_errors = {s: 0 for s in pruned.sets}
    failures = {s: 0 for s in pruned.sets}
    power_acc = {j: 0.0 for j in range(net.node_count)}
    relays = [j for j in range(1, net.node_count) if j != dest]
    chosen_at: dict[SlotKey, np.ndarray] = {}
    tx_t: dict[int, np.ndarray] = {}

    for t in range(1, N + 1):
        tx_t[net.source] = source[:, :, t - 1]
        for j in relays:
            if t == 1:
                sym = base.relay_maps[j].emit_from(1, None)
                tx_t[j] = np.full((trials, n_rep), sym.as_complex(), dtype=np.complex128)
            else:
                tx_t[j] = reencode[(j, t - 1)][chosen_at[(j, t - 1)]]
        tx_t[dest] = np.zeros((trials, n_rep), dtype=np.complex128)
        for j in range(net.node_count):
            if j in tx_t:
                power_acc[j] += float(np.sum(np.abs(tx_t[j]) ** 2))

        for j in range(1, net.node_count):
            slot = (j, t)
            rng = np.random.default_rng(np.random.SeedSequence([noise.seed, 1, j, t]))
            y = _noise(rng, (trials, n_rep), noise.scale)
            for e in net.in_edges(j):
                y = y + e.gain.as_complex() * tx_t[e.src]
            chosen, failed = _decode(y, effective[slot], method, threshold)
            block_errors[slot] = int((chosen != true_slot_idx[slot]).sum())
            failures[slot] = int(failed.sum())
            chosen_at[slot] = chosen

    decoded = _destination_messages(
        base,
        [pruned.sets[(dest, t)] for t in range(1, N + 1)],
        [chosen_at[(dest, t)] for t in range(1, N + 1)],
    )
    msg_errors = decoded != true_codewords
    symbols_total = trials * n_rep * N
    power = {
        j: power_acc[j] / symbols_total
        for j in range(net.node_count)
        if j == net.source or j in relays
    }
    return msg_errors, block_errors, failures, power


# --- cell entropies and genie bounds ---------------------------------------


def gaussian_cell_probabilities(tail: float = 1e-12) -> list[tuple[int, float]]:
    """Cell masses p_k = P(k <= Z_R < k+1) for Z_R ~ N(0, 1/2), k >= 0.

    By symmetry p_{-k-1} = p_k, so the nonnegative cells determine the
    law.  Cells are accumulated until the remaining two-sided tail mass
    drops below ``tail``.
    """
    cells = []
    k = 0
    covered = 0.0
    while True:
        p = 0.5 * (math.erf(k + 1.0) - math.erf(k))
        cells.append((k, p))
        covered += 2.0 * p
        if 1.0 - covered < tail:
            break
        k += 1
        if k > 64:
            raise RuntimeError("tail did not converge")
    return cells


def exact_gaussian_cell_entropy(tail: float = 1e-12) -> float:
    """Entropy in bits of floor(Z_R) for Z_R ~ N(0, 1/2), by quadrature.

    The complex floored noise floor(Z) has twice this entropy since the
    real and imaginary parts are independent and identically distributed.
    The value is comfortably below 4, so the complex version stays below
    8 bits no matter the channel gains.
    """
    acc = 0.0
    for _, p in gaussian_cell_probabilities(tail):
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
    n = c.sum()
    k = int((c > 0).sum())
    return plug_in_entropy(c) + (k - 1) / (2.0 * n) * LOG2E


def bootstrap_entropy_ci(
    counts: np.ndarray,
    seed: int,
    resamples: int = 200,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the Miller-Madow entropy."""
    c = np.asarray(counts, dtype=np.int64)
    n = int(c.sum())
    p = c / n
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(n, p, size=resamples)
    ests = np.asarray([miller_madow_entropy(row) for row in draws])
    lo, hi = np.quantile(ests, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


def _pair_histogram(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    pairs = re.astype(np.int64) * (1 << 32) + (im.astype(np.int64) + (1 << 31))
    _, counts = np.unique(pairs, return_counts=True)
    return counts


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

    def all_within_kappa(self, slack: float | None = None) -> bool:
        for e in self.entries:
            allowance = e.ci_halfwidth if slack is None else slack
            if e.bound_estimate - allowance > self.kappa_reference:
                return False
        return True


def _bound_entry(
    node: int,
    antenna: int | None,
    gains: Sequence[ComplexGain],
    samples: int,
    bit_depth: int,
    rng: np.random.Generator,
    ci_seed: int,
    mimo: bool,
) -> BoundEntry:
    k = len(gains)
    xr = rng.integers(0, 1 << bit_depth, size=(samples, k))
    xi = rng.integers(0, 1 << bit_depth, size=(samples, k))
    sd = math.sqrt(0.5)
    zr = rng.normal(0.0, sd, samples)
    zi = rng.normal(0.0, sd, samples)
    batch = decompose_batch(gains, xr, xi, bit_depth, zr, zi)
    vf_re, vf_im = batch.v_floor
    zf_re, zf_im = batch.z_floor
    hists = {
        "v": _pair_histogram(vf_re, vf_im),
        "z": _pair_histogram(zf_re, zf_im),
        "c": _pair_histogram(batch.c_re, batch.c_im),
    }
    ests = {kk: miller_madow_entropy(h) for kk, h in hists.items()}
    cis = {
        kk: bootstrap_entropy_ci(h, seed=ci_seed + i)
        for i, (kk, h) in enumerate(hists.items())
    }
    gap = ests["v"] + ests["z"] + ests["c"]
    halfwidth = sum((hi - lo) / 2.0 for lo, hi in cis.values())
    estimate = 2.0 * gap if mimo else gap
    return BoundEntry(
        node=node,
        antenna=antenna,
        links=k if not mimo else k // 2,
        h_v=ests["v"],
        h_z=ests["z"],
        h_c=ests["c"],
        ci_v=cis["v"],
        ci_z=cis["z"],
        ci_c=cis["c"],
        gap_sum=gap,
        bound_estimate=estimate,
        margin=0.0,  # patched by caller once kappa_reference is fixed
        ci_halfwidth=halfwidth,
    )


def verify_genie_bounds(
    net: RelayNetwork,
    samples: int,
    seed: int,
    input_bit_depth: int | None = None,
) -> BoundReport:
    """Monte Carlo check of the per-node noise-gap entropy sums.

    Inputs are drawn uniformly from the discrete alphabet at the network
    bit depth (or an explicit one), noise is CN(0, 1), and all gap terms
    come from the channel decomposition.  Two-antenna edges are flattened
    into per-receive-antenna scalar link lists (each in-edge contributes
    its two transmit antennas), which is exactly how the two-antenna gap
    bound is defined.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n = input_bit_depth or compute_bit_depth(net.all_gain_components())
    mimo = net.antenna_mode == "mimo2x2"
    m = net.node_count - 1
    reference = kappa_mimo(m) if mimo else kappa(m)

    entries: list[BoundEntry] = []
    for j in range(1, net.node_count):
        in_edges = net.in_edges(j)
        if not in_edges:
            continue
        if mimo:
            for ant in (0, 1):
                gains = []
                for e in in_edges:
                    gains.append(e.gain[0][ant])  # type: ignore[index]
                    gains.append(e.gain[1][ant])  # type: ignore[index]
                rng = np.random.default_rng(np.random.SeedSequence([seed, j, ant]))
                entry = _bound_entry(
                    j, ant, gains, samples, n, rng, ci_seed=seed * 1000 + j * 10 + ant,
                    mimo=True,
                )
                entries.append(entry)
        else:
            gains = [e.gain for e in in_edges]
            rng = np.random.default_rng(np.random.SeedSequence([seed, j]))
            entry = _bound_entry(
                j, None, gains, samples, n, rng, ci_seed=seed * 1000 + j, mimo=False,
            )
            entries.append(entry)

    entries = [replace(e, margin=reference - e.bound_estimate) for e in entries]
    return BoundReport(
        mode=net.antenna_mode,
        samples=samples,
        seed=seed,
        input_bit_depth=n,
        kappa_reference=reference,
        z_entropy_exact=2.0 * exact_gaussian_cell_entropy(),
        entries=entries,
    )
