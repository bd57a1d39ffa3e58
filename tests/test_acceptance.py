"""Acceptance suite: one test per headline claim, run at full scale.

Each test prints a single summary line with the measured quantities when
it passes; the pytest verdict for the test is the pass/fail line for the
criterion.  Stated runtime budgets are asserted alongside the numeric
tolerances, so a regression in either shows up here.
"""

import hashlib
import itertools
import json
import math
import time

import mpmath
import numpy as np
import pytest

from dsnlift.channel import (
    ComplexGain,
    compute_bit_depth,
    decompose_batch,
    decompose_received,
    quantize_gain,
)
from dsnlift.codes import (
    CausalityError,
    ModuloMap,
    ProductCode,
    QuantizeForward,
    RelayCode,
    TooManyErrors,
    deserialize_code,
    purify_zero_error,
    run_dsn,
    search_base_code,
    trace_all,
)
from dsnlift.gaussian import (
    NoiseSpec,
    bootstrap_entropy_ci,
    exact_gaussian_cell_entropy,
    miller_madow_entropy,
    simulate_lifted,
)
from dsnlift.lifting import (
    KappaParams,
    build_lifted_code,
    kappa,
    kappa_mimo,
    prune_sets,
    rate_report,
)
from dsnlift.network import Edge, RelayNetwork
from dsnlift.pipeline import load_config, read_input_text, run_pipeline
from dsnlift.typicality import enumerate_typical_receptions
from dsnlift import cli

from conftest import derive_decoder

SEED = 20260818


def _report(num: int, text: str) -> None:
    print(f"criterion {num:2d} PASS: {text}")


def _line_base(net: RelayNetwork, block_length: int, count: int) -> RelayCode:
    """Zero-error chain code: message digits index the symbol alphabet."""
    alphabet = [(r, i) for r in range(2) for i in range(2)]
    codebook = []
    for m in range(count):
        cw = tuple(alphabet[(m >> (2 * t)) & 3] for t in range(block_length))
        codebook.append(cw)
    code = RelayCode(
        block_length=block_length,
        bit_depth=1,
        codebook=tuple(codebook),
        relay_maps={1: QuantizeForward(bit_depth=1)},
        decoder={},
    )
    return derive_decoder(net, code)


def _diamond_sets(net, code, n_rep, epsilon):
    product = ProductCode(code, n_rep)
    sets = {}
    for j in range(1, net.node_count):
        ts = enumerate_typical_receptions(net, product, j, epsilon=epsilon)
        sets[ts.slot] = ts
    return product, sets


# ---------------------------------------------------------------------------
# 1. gain quantization error bounds
# ---------------------------------------------------------------------------


def test_criterion_01_quantization_error_bounds():
    n = 1_000_000
    rng = np.random.default_rng(SEED)
    re = rng.uniform(-65536.0, 65536.0, n)
    im = rng.uniform(-65536.0, 65536.0, n)
    ints = rng.random(n) < 0.1
    re[ints] = np.round(re[ints])
    im[ints] = np.round(im[ints])

    t0 = time.monotonic()
    q = [quantize_gain(ComplexGain(float(a), float(b))) for a, b in zip(re, im)]
    elapsed = time.monotonic() - t0

    qr = np.fromiter((g[0] for g in q), dtype=np.int64, count=n)
    qi = np.fromiter((g[1] for g in q), dtype=np.int64, count=n)
    for comp, quant in ((re, qr), (im, qi)):
        err = comp - quant
        assert (np.abs(err) < 1.0).all()
        assert ((err == 0) | (np.sign(err) == np.sign(comp))).all()
        assert (np.abs(quant) <= np.abs(comp)).all()
    assert elapsed < 5.0
    _report(1, f"10^6 gains quantized in {elapsed:.2f}s; |error| < 1 and sign consistent")


# ---------------------------------------------------------------------------
# 2. exact reconstruction identity of the genie decomposition
# ---------------------------------------------------------------------------


def test_criterion_02_reconstruction_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    draws = 0
    # Random part: 1000 gain configurations x 1000 (input, noise) draws.
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        while True:
            scale = float(rng.choice([4.0, 256.0, 65536.0]))
            comps = rng.uniform(-scale, scale, size=(k, 2))
            gains = [ComplexGain(float(a), float(b)) for a, b in comps]
            try:
                bd = compute_bit_depth(gains)
                break
            except Exception:
                continue
        xr = rng.integers(0, 1 << bd, size=(1000, k))
        xi = rng.integers(0, 1 << bd, size=(1000, k))
        zr = rng.normal(0.0, math.sqrt(0.5), 1000)
        zi = rng.normal(0.0, math.sqrt(0.5), 1000)
        b = decompose_batch(gains, xr, xi, bd, zr, zi)
        # The carry must land in {0, 1} per component, with no tolerance.
        assert np.isin(b.c_re, (0, 1)).all()
        assert np.isin(b.c_im, (0, 1)).all()
        # Re-derive the floor identity from the parts.
        for y, yp, v, z, c in (
            (b.y_re, b.yp_re, b.v_re, b.z_re, b.c_re),
            (b.y_im, b.yp_im, b.v_im, b.z_im, b.c_im),
        ):
            lhs = np.floor(y).astype(np.int64)
            rhs = yp + np.floor(v).astype(np.int64) + np.floor(z).astype(np.int64) + c
            assert (lhs == rhs).all()
        draws += 1000

    # Exhaustive part: single link, integer gain components up to 4 in
    # magnitude, every input at bit depths 1 and 2, dyadic-heavy noise
    # grid.  With integer gains every term is exactly representable, so
    # the additive split holds with float equality.
    noise_vals = (-1.75, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5)
    noise_grid = [complex(a, b) for a in noise_vals for b in noise_vals]
    exhaustive = 0
    for n in (1, 2):
        symbols = [(r, i) for r in range(1 << n) for i in range(1 << n)]
        for a, b in itertools.product(range(-4, 5), repeat=2):
            if max(abs(a), abs(b)) < 1:
                continue
            g = ComplexGain(float(a), float(b))
            for x in symbols:
                for z in noise_grid:
                    d = decompose_received([x], [g], z, n)
                    assert d.c[0] in (0, 1) and d.c[1] in (0, 1)
                    assert d.y == complex(d.y_prime[0], d.y_prime[1]) + d.v + d.z
                    exhaustive += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        2,
        f"{draws} random + {exhaustive} exhaustive decompositions, carry in "
        f"{{0,1}} with zero tolerance, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. floored-noise entropy stays below 8 bits and matches Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_03_floored_noise_entropy_bound():
    t0 = time.monotonic()
    exact = exact_gaussian_cell_entropy()
    assert 2.0 * exact < 8.0

    rng = np.random.default_rng(SEED)
    samples = rng.normal(0.0, math.sqrt(0.5), 1_000_000)
    _, counts = np.unique(np.floor(samples).astype(np.int64), return_counts=True)
    est = miller_madow_entropy(counts)
    lo, hi = bootstrap_entropy_ci(counts, seed=SEED)
    half = 0.5 * (hi - lo)
    assert half < 0.05
    assert lo <= exact <= hi
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        3,
        f"2H = {2 * exact:.4f} < 8; MC estimate {est:.4f} brackets the exact "
        f"value with CI half-width {half:.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. per-node gap entropy sums stay below the kappa budget
# ---------------------------------------------------------------------------


def _pair_histogram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, counts = np.unique(np.stack([a, b], axis=1), axis=0, return_counts=True)
    return counts


def test_criterion_04_two_link_gap_entropy_budget():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst, worst_slack = 0.0, 0.0
    for cfg in range(20):
        gains = [
            ComplexGain(float(rng.uniform(1.0, 65536.0)), float(rng.uniform(1.0, 65536.0)))
            for _ in range(2)
        ]
        bd = compute_bit_depth(gains)
        xr = rng.integers(0, 1 << bd, size=(100_000, 2))
        xi = rng.integers(0, 1 << bd, size=(100_000, 2))
        zr = rng.normal(0.0, math.sqrt(0.5), 100_000)
        zi = rng.normal(0.0, math.sqrt(0.5), 100_000)
        batch = decompose_batch(gains, xr, xi, bd, zr, zi)
        hists = (
            _pair_histogram(*batch.v_floor),
            _pair_histogram(*batch.z_floor),
            _pair_histogram(batch.c_re, batch.c_im),
        )
        gap = sum(miller_madow_entropy(h) for h in hists)
        slack = sum(
            (hi - lo) / 2.0
            for lo, hi in (
                bootstrap_entropy_ci(h, seed=SEED + 10 * cfg + i)
                for i, h in enumerate(hists)
            )
        )
        assert gap <= 16.0
        assert gap <= kappa(2) + slack
        if gap > worst:
            worst, worst_slack = gap, slack
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(
        4,
        f"20 two-link configs at 10^5 samples: worst gap sum {worst:.3f} <= 16 "
        f"and <= kappa(2) = {kappa(2):.3f} (+{worst_slack:.4f} CI), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. kappa closed forms at high precision, independent of gains
# ---------------------------------------------------------------------------


def test_criterion_05_kappa_formula_precision():
    mpmath.mp.dps = 50
    ms = [*range(1, 11), 97, 1024, 31337, 100_000, 1_000_000]
    worst = 0.0
    for m in ms:
        ref = float(mpmath.log(12 * m - 2, 2) + 11)
        ref2 = float(2 * mpmath.log(24 * m - 2, 2) + 22)
        worst = max(worst, abs(kappa(m) - ref), abs(kappa_mimo(m) - ref2))
        assert abs(kappa(m) - ref) <= 1e-12
        assert abs(kappa_mimo(m) - ref2) <= 1e-12

    # Gain independence: same topology, freshly random gains, same kappa.
    rng = np.random.default_rng(SEED)
    refs = set()
    for _ in range(5):
        g = lambda: ComplexGain(float(rng.uniform(1, 300)), float(rng.uniform(1, 300)))
        net = RelayNetwork(
            node_count=4,
            edges=(Edge(0, 1, g()), Edge(0, 2, g()), Edge(1, 3, g()), Edge(2, 3, g())),
        )
        refs.add(KappaParams.for_network(net).reference)
    assert refs == {kappa(3)}
    _report(
        5,
        f"kappa and kappa_mimo match 50-digit evaluation to {worst:.2e} over "
        f"M in [1, 10^6]; reference is gain independent",
    )


# ---------------------------------------------------------------------------
# 6. purification deletes injected decoder faults
# ---------------------------------------------------------------------------


def _corrupt(code: RelayCode, faulty: int) -> RelayCode:
    decoder = dict(code.decoder)
    keys = sorted(decoder, key=repr)[:faulty]
    for r in keys:
        decoder[r] = (decoder[r] + 1) % code.message_count
    return RelayCode(
        block_length=code.block_length,
        bit_depth=code.bit_depth,
        codebook=code.codebook,
        relay_maps=dict(code.relay_maps),
        decoder=decoder,
    )


def _measured_delta(net: RelayNetwork, code: RelayCode) -> float:
    traces = trace_all(net, code)
    wrong = sum(1 for tr in traces if tr.decoded != tr.message)
    return wrong / code.message_count


def test_criterion_06_purification_removes_injected_faults(line_net):
    t0 = time.monotonic()
    cases = []
    for count, faulty in ((8, 1), (8, 3), (4, 1)):
        block = 2 if count == 8 else 1
        base = _line_base(line_net, block, count)
        assert _measured_delta(line_net, base) == 0.0
        broken = _corrupt(base, faulty)
        assert _measured_delta(line_net, broken) == pytest.approx(faulty / count)
        pure = purify_zero_error(line_net, broken)
        assert _measured_delta(line_net, pure) == 0.0
        assert pure.message_count >= count // 2
        assert pure.message_count == count - faulty
        cases.append(f"delta {faulty}/{count} -> 0 with {pure.message_count} kept")

    # Half the codewords faulty is not purifiable.
    base = _line_base(line_net, 1, 4)
    with pytest.raises(TooManyErrors):
        purify_zero_error(line_net, _corrupt(base, 2))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(6, "; ".join(cases) + f"; delta 1/2 rejected, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. deterministic receptions partition the codebook exactly
# ---------------------------------------------------------------------------


def _partition_check(groups: dict, total: int) -> None:
    sizes = sum(len(v) for v in groups.values())
    union = set().union(*groups.values()) if groups else set()
    assert sizes == total
    assert len(union) == total
    assert union == set(range(total))


def test_criterion_07_reception_preimages_partition_the_codebook(
    line_net, diamond_net, nonlayered_net, diamond_code
):
    summaries = []

    # Layered networks: materialize the full repeated code and run every
    # codeword through the network scheduler, no shortcuts.
    for name, net, base, n_rep in (
        ("line", line_net, _line_base(line_net, 1, 4), 8),
        ("diamond", diamond_net, diamond_code, 8),
    ):
        product = ProductCode(base, n_rep)
        total = product.codeword_count
        assert total <= 1 << 16
        flat = RelayCode(
            block_length=product.block_length,
            bit_depth=base.bit_depth,
            codebook=tuple(product.codeword(i) for i in range(total)),
            relay_maps=dict(base.relay_maps),
            decoder={},
        )
        receptions = {}
        for i in range(total):
            receptions[i] = run_dsn(net, flat, i).received
        # Determinism spot check: a rerun reproduces the receptions.
        rng = np.random.default_rng(SEED)
        for i in rng.integers(0, total, size=2000):
            assert run_dsn(net, flat, int(i)).received == receptions[int(i)]
        for j in range(1, net.node_count):
            groups: dict = {}
            for i in range(total):
                groups.setdefault(receptions[i][j], set()).add(i)
            _partition_check(groups, total)
        dest_groups = {receptions[i][net.destination] for i in range(total)}
        assert len(dest_groups) == total  # zero-error base: preimages singleton
        summaries.append(f"{name} {total}")

    # Non-layered network: repeated uses never share a time slot, so the
    # channel output of a repeated codeword is the tuple of its per-use
    # receptions, each produced by the causal symbol scheduler.
    base = search_base_code(nonlayered_net, block_length=2, rate=0.5, attempts=3000, seed=7)
    assert base is not None
    traces = trace_all(nonlayered_net, base)
    assert all(tr.received == trace_all(nonlayered_net, base)[k].received for k, tr in enumerate(traces))
    product = ProductCode(base, 8)
    total = product.codeword_count
    assert total <= 1 << 16
    for j in range(1, nonlayered_net.node_count):
        groups = {}
        for i in range(total):
            digits = product.message_tuple(i)
            r = tuple(traces[d].received[j] for d in digits)
            groups.setdefault(r, set()).add(i)
        _partition_check(groups, total)
    summaries.append(f"nonlayered {total}")
    _report(7, "preimages partition the codebook on " + ", ".join(summaries))


# ---------------------------------------------------------------------------
# 8. pruned cardinality tracks the pricing exponent across seeds
# ---------------------------------------------------------------------------


def test_criterion_08_pruned_cardinality_tracks_exponent(diamond_net, diamond_code):
    t0 = time.monotonic()
    n_rep, symbols, override = 8, 2, 0.25
    assert diamond_code.block_length == symbols and diamond_code.rate == 1.0
    product, sets = _diamond_sets(diamond_net, diamond_code, n_rep, epsilon=3.0)
    params = KappaParams.for_network(diamond_net, override=override)

    logs = []
    last_report = None
    for seed in range(100):
        pruned = prune_sets(sets, params, eta=0.0, master_seed=seed, symbols_per_slot=symbols)
        lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
        logs.append(math.log2(lifted.count) if lifted.count else 0.0)
        last_report = rate_report(lifted, product, sets)

    m = diamond_net.node_count - 1
    target = math.log2(product.codeword_count) - m * n_rep * symbols * override
    mean = float(np.mean(logs))
    eps_m = last_report.epsilon_m
    assert abs(mean - target) <= eps_m + 1.0
    # The envelope slack is generous at this epsilon; the construction
    # actually concentrates, so also hold a one-bit sanity band.
    assert abs(mean - target) <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(
        8,
        f"mean log2 |C_G| = {mean:.3f} over 100 seeds vs target {target:.1f} "
        f"(allowed +-{eps_m + 1.0:.1f}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. end-to-end error rate improves with repetition; singletons are free
# ---------------------------------------------------------------------------


def test_criterion_09_error_rate_trend_and_singleton(diamond_net, diamond_code):
    t0 = time.monotonic()
    trials = 10_000
    rates = []
    for n_rep in (2, 4, 8):
        product, sets = _diamond_sets(diamond_net, diamond_code, n_rep, epsilon=3.0)
        params = KappaParams.for_network(diamond_net, override=0.25)
        pruned = prune_sets(sets, params, eta=0.0, master_seed=77, symbols_per_slot=2)
        lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
        res = simulate_lifted(diamond_net, product, lifted, trials=trials, noise=NoiseSpec(seed=3))
        rates.append(res.message_error_rate)

    inversions = 0
    for prev, nxt in zip(rates, rates[1:]):
        if nxt > prev:
            sigma = math.sqrt(max(prev * (1 - prev), 1e-12) / trials)
            assert nxt - prev <= 2.0 * sigma
            inversions += 1
    assert inversions <= 1

    # Singleton candidate sets pin the codeword: zero errors, exactly.
    product, sets = _diamond_sets(diamond_net, diamond_code, 2, epsilon=3.0)
    params = KappaParams.for_network(diamond_net, override=1.0)
    pruned = prune_sets(sets, params, eta=0.0, master_seed=297, symbols_per_slot=2)
    assert all(len(v) == 1 for v in pruned.sets.values())
    lifted = build_lifted_code(diamond_net, product, pruned, epsilon=3.0)
    res = simulate_lifted(diamond_net, product, lifted, trials=trials, noise=NoiseSpec(seed=3))
    assert res.message_errors == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    _report(
        9,
        f"error rates {[f'{r:.4f}' for r in rates]} over n_rep (2, 4, 8) with "
        f"{inversions} inversions; singleton run has 0 errors, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. the causal scheduler runs the non-layered network end to end
# ---------------------------------------------------------------------------


def test_criterion_10_interleaving_and_causal_schedule(nonlayered_net, tmp_path):
    t0 = time.monotonic()
    # The scheduler's bookkeeping assertion must be live.
    assert __debug__
    noncausal = RelayCode(
        block_length=1,
        bit_depth=1,
        codebook=(((0, 0),),),
        relay_maps={1: ModuloMap(bit_depth=1), 2: ModuloMap(bit_depth=1)},
        decoder={},
    )
    with pytest.raises(CausalityError):
        run_dsn(nonlayered_net, noncausal, 0)

    cfg = load_config(read_input_text("nonlayered_pipeline"))
    res = run_pipeline(cfg, tmp_path / "nonlayered")
    assert res.scheduling == "interleaved"
    assert res.lifted_count > 0
    assert res.message_error_rate is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        10,
        f"causal scheduler ran the non-layered network end to end "
        f"({res.lifted_count} codewords), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11. the pipeline is byte reproducible
# ---------------------------------------------------------------------------


# sha256 of every artifact the shipped pipeline configs write.  A change that
# alters any of these bytes is a re-baseline and must say so.
SHIPPED_ARTIFACT_SHA256 = {
    "line": {
        "base_code.json": "d222bd3e9af076f6225aee706990109dec9c79662b6aed5ac8e58aec75ad6ad2",
        "bound_report.json": "557d46333e30b0058590fc569eb3ad7fb30717ba2549884daedd6cc4896f1fc6",
        "config.json": "7d9eba0f165bc96e2cb0a7d568524934646e6ae5cae28ef3646a7ae9373e970f",
        "lifted_code.json": "6bc3823bbf17889591ed5c6c4fd6a2470ebd9566ae387c61f8e1fb09ef2e67f6",
        "product_code.json": "62dadb04c0f4f28c04fe47af1d428b242c47a820fa17bbbdd8957dd495dcdc49",
        "pruned_sets.json": "ab435decc6da8d2b6dade749c68b4fa0540630aa4aee501e6bdfdd1f17380ed4",
        "rate_report.json": "3963c4a24b5f836772f55664e9fc684559ce1d127bd3f7d36b239955a992d025",
        "simulation.csv": "c6781702df71593b2f9971aea94590000912a1a94e40a7b528eb4af2c57427bf",
        "simulation.json": "ca41b554538406d8350b19d757e91f003bdc2badc51801d02fc947655b777f2c",
        "typical_sets.json": "5de58226e81dae08b28a8afe8dc48a8a8ef12e19f60651861e3966d388c5b740",
    },
    "diamond": {
        "base_code.json": "1c4573e61e9ff75f1e796e48e9075c58beaaaf76daee0752d75695b66cc9f75f",
        "bound_report.json": "cd2e1ea13634fd4ca233053cf386723297c49f1d44c954a24587625d7acb1f24",
        "config.json": "c51213c48e4c045a076b231225643f7004d76231f1f069d80fcc8cdf57a8a54c",
        "lifted_code.json": "43efa50cbfb1622b6b7974e4a71887a7223077cc327f7006dc9a9b71e096f7be",
        "product_code.json": "5b93be760751b1901ab50b64098d085327786943ca471545aa2d8c23e322a7f9",
        "pruned_sets.json": "229f2c1c70af11f05de3def62de28bc1b23db9bbcac1a1086b2ae7ff9e8a45c0",
        "rate_report.json": "6e10f464d77441eb2b44032e2211455bc0d79fdd1c6351dc7c533f15ad1af146",
        "simulation.csv": "9929db3577b5dc0c265a6b5369f06559cd5c5b7a805b4171a822679dc9794766",
        "simulation.json": "1eb88610930415d169a86170841b6364938654e3e7d10b0ac2bdd00baf091e55",
        "typical_sets.json": "43e1072b8dbeda40c109d7f6bb854662509043531e5c283081b080c3cdefc2ec",
    },
    "nonlayered": {
        "base_code.json": "2ac4bd4fb6a0d7035acded553d11daa5e3ac9e3e7f6fa89872af25292dea8d5f",
        "bound_report.json": "1b3d893dd2484c4c70f66fcbd7e8bcc497c3134edfa70c543deb6d8f9b186c1e",
        "config.json": "aaa20534f73e575d3a8ebe30bd1e9e00eba97ba843900983a97be9193dba85d1",
        "lifted_code.json": "4eedc786f0afa71ed2b2d2ab438c19ff899d74e7a8a090977a72da773456612f",
        "product_code.json": "75c34c1c2bb8222ca102db8f4c231cf7ae3459db0afa8e49ced880bbce907f70",
        "pruned_sets.json": "dc24d7dbafaf5eedfe9205476d5b85d97e402dcfcac3026253dbf33473e12e8d",
        "rate_report.json": "f313e3d2b967e144421bb2e3c9899064637ccdbcb5a700c98548fe1b9b9bbf0c",
        "simulation.csv": "c357ead370da1b209ece09d4f21c93c096014f4b97e6b016588a9cbca49435f1",
        "simulation.json": "74101d0cf0990432f82ddbbdacc2ec0a111fd5a627b58d416e8d409fdc7289bb",
        "typical_sets.json": "bb3a1d563b5055128ea8cbc30a00752e73489c8d58782430ab41459f20329dbc",
    },
}


def _digests(out_dir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


def _run_shipped(name: str, out_dir) -> dict[str, str]:
    rc = cli.main(["pipeline", "--config", f"{name}_pipeline", "--out", str(out_dir)])
    assert rc == 0
    return _digests(out_dir)


@pytest.mark.parametrize("name", ["line", "nonlayered"])
def test_shipped_artifacts_match_pinned_digests(name, tmp_path):
    assert _run_shipped(name, tmp_path) == SHIPPED_ARTIFACT_SHA256[name]


def test_criterion_11_pipeline_byte_reproducibility(tmp_path):
    t0 = time.monotonic()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        _run_shipped("diamond", out)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # The diamond run doubles as the pin of the shipped diamond artifacts.
    assert _digests(outs[0]) == SHIPPED_ARTIFACT_SHA256["diamond"]
    elapsed = time.monotonic() - t0
    _report(11, f"two pipeline runs produced byte-identical {names}, {elapsed:.0f}s")
