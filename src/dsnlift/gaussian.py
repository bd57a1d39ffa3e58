"""Running lifted codes on the noisy network and checking the price.

Two halves.  The simulation half transports a lifted code through the
Gaussian network: every non-source node decodes its noisy reception to a
member of its pruned decision set, re-encodes deterministically, and the
destination maps its decision back to a message.  The verification half
estimates, per node, the entropies of the floored perturbation, the
floored noise and the carry, whose sum upper-bounds the information gap
between the discrete and the noisy reception and must stay under the
node-count constant kappa.

Randomness is derived from explicit integer seeds via SeedSequence
streams: [seed, 0] samples messages, [seed, 1, node] (block scheduling)
or [seed, 1, node, t] (interleaved) drives the noise at one decision
slot.  Rerunning with the same seed reproduces every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import ComplexGain, DiscreteSymbol, Zint, compute_bit_depth, decompose_batch
from .codes import ProductCode, RelayMap, trace_all
from .lifting import KappaParams, LiftedCode, PrunedSets, SlotKey, _slot_key, kappa, kappa_mimo
from .network import RelayNetwork, layer_decomposition

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


def _distance_sq(y: np.ndarray, cands: np.ndarray) -> np.ndarray:
    # y: (..., L); cands: (S, L) -> squared distances (..., S)
    yy = np.sum(np.abs(y) ** 2, axis=-1, keepdims=True)
    cc = np.sum(np.abs(cands) ** 2, axis=-1)
    cross = y @ np.conj(cands).T
    return np.maximum(yy + cc - 2.0 * cross.real, 0.0)


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
    d2 = _distance_sq(y[None, :], cands)[0]
    if method == "ml":
        return int(np.argmin(d2))
    if method == "threshold":
        thr = DEFAULT_THRESHOLD if threshold is None else float(threshold)
        L = y.shape[0]
        mean_loglik = -math.log2(math.pi) - (d2 / L) * LOG2E
        passing = np.flatnonzero(mean_loglik > thr)
        if passing.size == 1:
            return int(passing[0])
        return None
    raise ConfigError(f"unknown decode method {method!r}")


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


def _flatten_blocks(vec: tuple, layered: bool) -> list[Zint]:
    if layered:
        out: list[Zint] = []
        for block in vec:
            out.extend(block)
        return out
    return list(vec)


def _complex_rows(vectors: Sequence[tuple], layered: bool) -> np.ndarray:
    rows = []
    for vec in vectors:
        flat = _flatten_blocks(vec, layered)
        rows.append([complex(re, im) for re, im in flat])
    return np.asarray(rows, dtype=np.complex128)


def _chunked_decode(
    y: np.ndarray,
    effective: np.ndarray,
    method: str,
    threshold: float,
    chunk: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode_to_set over a trial axis.

    Returns (chosen index, failure flag) per trial.  Failures only occur
    for the threshold method; they fall back to the ML index so the
    simulation can keep going, and are flagged.
    """
    trials = y.shape[0]
    L = y.shape[1]
    chosen = np.empty(trials, dtype=np.int64)
    failed = np.zeros(trials, dtype=bool)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        d2 = _distance_sq(y[lo:hi], effective)
        ml = np.argmin(d2, axis=1)
        if method == "threshold":
            mean_loglik = -math.log2(math.pi) - (d2 / L) * LOG2E
            passing = mean_loglik > threshold
            n_pass = passing.sum(axis=1)
            unique = n_pass == 1
            idx = np.where(unique, np.argmax(passing, axis=1), ml)
            chosen[lo:hi] = idx
            failed[lo:hi] = ~unique
        else:
            chosen[lo:hi] = ml
    return chosen, failed


def _v_blocks(net: RelayNetwork, product: ProductCode, node: int) -> dict:
    """Per distinct reception block at a node, one canonical perturbation block.

    The perturbation v is a function of what the in-neighbours actually
    transmitted.  When several base messages produce the same reception
    block, the block of the lowest message index is used; this is exact
    whenever the reception determines the in-neighbour transmissions and a
    bounded approximation otherwise.
    """
    traces = trace_all(net, product.base)
    in_edges = net.in_edges(node)
    out: dict = {}
    for tr in traces:
        block = tr.received[node]
        if block in out:
            continue
        N = product.base.block_length
        v = []
        for t in range(N):
            acc = 0j
            for e in in_edges:
                x = tr.transmitted[e.src][t].as_complex()
                acc += e.gain.as_complex() * x  # type: ignore[union-attr]
            v.append(acc - complex(block[t][0], block[t][1]))
        out[block] = v
    return out


def _reencode_block(relay_map: RelayMap, block: tuple, N: int) -> list[DiscreteSymbol]:
    return [relay_map.emit(t, block) for t in range(1, N + 1)]


def simulate_lifted(
    net: RelayNetwork,
    product: ProductCode,
    lifted: LiftedCode,
    trials: int,
    noise: NoiseSpec,
    method: str = "ml",
    threshold: float | None = None,
    use_offsets: bool = True,
    batch_rows: int = 4096,
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
    N = product.base.block_length
    threshold_val = DEFAULT_THRESHOLD if threshold is None else float(threshold)

    msg_rng = np.random.default_rng(np.random.SeedSequence([noise.seed, 0]))
    pick = msg_rng.integers(lifted.count, size=trials)
    true_codewords = np.asarray(lifted.codeword_indices, dtype=np.int64)[pick]
    true_slot_idx = {
        slot: np.asarray(
            [lifted.provenance[int(ci)][slot] for ci in true_codewords], dtype=np.int64
        )
        for slot in slots
    }

    if slot_is_block:
        result = _simulate_layered(
            net, product, lifted, layered, trials, noise, method, threshold_val,
            use_offsets, true_codewords, true_slot_idx,
        )
    else:
        result = _simulate_interleaved(
            net, product, lifted, trials, noise, method, threshold_val,
            use_offsets, true_codewords, true_slot_idx,
        )
    chosen_dest, msg_errors, block_errors, failures, avg_power = result

    batches: list[tuple[int, int, int]] = []
    for lo in range(0, trials, batch_rows):
        hi = min(lo + batch_rows, trials)
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


def _simulate_layered(
    net, product, lifted, layered, trials, noise, method, threshold,
    use_offsets, true_codewords, true_slot_idx,
):
    pruned = lifted.pruned
    N = product.base.block_length
    n_rep = product.n_rep
    L = N * n_rep
    dest = net.destination

    cand_arrays: dict[int, np.ndarray] = {}
    effective: dict[int, np.ndarray] = {}
    reencode: dict[int, np.ndarray] = {}
    decoded_msg: dict[int, np.ndarray] = {}
    for j in range(1, net.node_count):
        vectors = pruned.sets[j]
        cand = _complex_rows(vectors, layered=True)
        cand_arrays[j] = cand
        if use_offsets:
            vb = _v_blocks(net, product, j)
            offs = np.asarray(
                [
                    [v for block in vec for v in vb[block]]
                    for vec in vectors
                ],
                dtype=np.complex128,
            )
            effective[j] = cand + offs
        else:
            effective[j] = cand
        if j != dest:
            relay_map = product.base.relay_maps[j]
            rows = []
            for vec in vectors:
                syms: list[complex] = []
                for block in vec:
                    syms.extend(s.as_complex() for s in _reencode_block(relay_map, block, N))
                rows.append(syms)
            reencode[j] = np.asarray(rows, dtype=np.complex128)
        else:
            table = []
            for vec in vectors:
                flat = tuple(pair for block in vec for pair in block)
                d = product.decode(flat)
                table.append(-1 if d is None else d)
            decoded_msg[j] = np.asarray(table, dtype=np.int64)

    source_words = np.asarray(
        [[s.as_complex() for s in product.codeword(ci)] for ci in lifted.codeword_indices],
        dtype=np.complex128,
    )
    index_in_lifted = {ci: k for k, ci in enumerate(lifted.codeword_indices)}
    tx: dict[int, np.ndarray] = {
        net.source: source_words[[index_in_lifted[int(ci)] for ci in true_codewords]]
    }

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
            chosen, failed = _chunked_decode(y, effective[j], method, threshold)
            block_errors[j] = int((chosen != true_slot_idx[j]).sum())
            failures[j] = int(failed.sum())
            if j == dest:
                decoded = decoded_msg[j][chosen]
                msg_errors = decoded != true_codewords
            else:
                tx[j] = reencode[j][chosen]
                power[j] = float(np.mean(np.abs(tx[j]) ** 2))
    return None, msg_errors, block_errors, failures, power


def _simulate_interleaved(
    net, product, lifted, trials, noise, method, threshold,
    use_offsets, true_codewords, true_slot_idx,
):
    pruned = lifted.pruned
    N = product.base.block_length
    n_rep = product.n_rep
    dest = net.destination
    base = product.base
    for j, rm in base.relay_maps.items():
        if not rm.causal:
            raise ConfigError(f"relay map at node {j} is not causal; interleaved scheduling needs causal maps")

    traces = trace_all(net, base)
    v_sym: dict[SlotKey, dict] = {}
    for slot in pruned.sets:
        node, t = slot
        per_value: dict = {}
        in_edges = net.in_edges(node)
        for tr in traces:
            val = tr.received[node][t - 1]
            if val in per_value:
                continue
            acc = 0j
            for e in in_edges:
                acc += e.gain.as_complex() * tr.transmitted[e.src][t - 1].as_complex()
            per_value[val] = acc - complex(val[0], val[1])
        v_sym[slot] = per_value

    cand: dict[SlotKey, np.ndarray] = {}
    effective: dict[SlotKey, np.ndarray] = {}
    cand_values: dict[SlotKey, tuple] = {}
    for slot, vectors in pruned.sets.items():
        arr = _complex_rows(vectors, layered=False)
        cand[slot] = arr
        cand_values[slot] = vectors
        if use_offsets:
            offs = np.asarray(
                [[v_sym[slot][sym] for sym in vec] for vec in vectors],
                dtype=np.complex128,
            )
            effective[slot] = arr + offs
        else:
            effective[slot] = arr

    index_in_lifted = {ci: k for k, ci in enumerate(lifted.codeword_indices)}
    src_syms = np.asarray(
        [
            [[s.as_complex() for s in base.codebook[d]] for d in product.message_tuple(ci)]
            for ci in lifted.codeword_indices
        ],
        dtype=np.complex128,
    )  # (count, n_rep, N)
    src_by_trial = src_syms[[index_in_lifted[int(ci)] for ci in true_codewords]]

    block_errors = {s: 0 for s in pruned.sets}
    failures = {s: 0 for s in pruned.sets}
    power_acc = {j: 0.0 for j in range(net.node_count)}
    zero = DiscreteSymbol.zero(base.bit_depth)

    # Decoded symbol values per node per use, grown one t at a time.
    decoded_syms: dict[int, list[np.ndarray]] = {j: [] for j in range(1, net.node_count)}
    tx_t: dict[int, np.ndarray] = {}
    relays = [j for j in range(1, net.node_count) if j != dest]
    dest_choice: dict[int, np.ndarray] = {}

    for t in range(1, N + 1):
        tx_t[net.source] = src_by_trial[:, :, t - 1]
        for j in relays:
            rm = base.relay_maps[j]
            if t == 1:
                sym = rm.emit(1, ())
                tx_t[j] = np.full((trials, n_rep), sym.as_complex(), dtype=np.complex128)
            else:
                prev = decoded_syms[j][t - 2]  # (trials, n_rep) of complex ints
                out = np.empty((trials, n_rep), dtype=np.complex128)
                emit_cache: dict = {}
                flat = prev.reshape(-1)
                uniq = np.unique(flat)
                for u in uniq:
                    key = (int(u.real), int(u.imag))
                    s = rm.emit(t, (key,) * (t - 1))
                    emit_cache[u] = s.as_complex()
                lut = np.vectorize(lambda u: emit_cache[u])
                out = lut(flat).reshape(trials, n_rep)
                tx_t[j] = out
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
            chosen, failed = _chunked_decode(y, effective[slot], method, threshold)
            block_errors[slot] = int((chosen != true_slot_idx[slot]).sum())
            failures[slot] = int(failed.sum())
            vec_arr = cand[slot][chosen]  # (trials, n_rep) complex ints
            decoded_syms[j].append(vec_arr)
            if j == dest:
                dest_choice[t] = chosen

    # Destination: reassemble per-use receptions from its decoded slots.
    msg_errors = np.ones(trials, dtype=bool)
    dest_vectors = {t: cand_values[(dest, t)] for t in range(1, N + 1)}
    for trial in range(trials):
        digits = []
        ok = True
        for use in range(n_rep):
            reception = tuple(
                dest_vectors[t][int(dest_choice[t][trial])][use] for t in range(1, N + 1)
            )
            d = base.decoder.get(reception)
            if d is None:
                ok = False
                break
            digits.append(d)
        if ok:
            msg_errors[trial] = product.message_index(digits) != int(true_codewords[trial])

    symbols_total = trials * n_rep * N
    power = {
        j: power_acc[j] / symbols_total
        for j in range(net.node_count)
        if j == net.source or j in relays
    }
    return None, msg_errors, block_errors, failures, power


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

    entries = [
        BoundEntry(
            node=e.node, antenna=e.antenna, links=e.links,
            h_v=e.h_v, h_z=e.h_z, h_c=e.h_c,
            ci_v=e.ci_v, ci_z=e.ci_z, ci_c=e.ci_c,
            gap_sum=e.gap_sum, bound_estimate=e.bound_estimate,
            margin=reference - e.bound_estimate, ci_halfwidth=e.ci_halfwidth,
        )
        for e in entries
    ]
    return BoundReport(
        mode=net.antenna_mode,
        samples=samples,
        seed=seed,
        input_bit_depth=n,
        kappa_reference=reference,
        z_entropy_exact=2.0 * exact_gaussian_cell_entropy(),
        entries=entries,
    )
