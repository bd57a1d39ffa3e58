"""Channel-level tests: quantization, discrete superposition, decomposition."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnlift.channel import (
    ChannelError,
    ComplexGain,
    DiscreteSymbol,
    EmptyGainList,
    GainBelowUnit,
    LengthMismatch,
    QuantizedGain,
    compute_bit_depth,
    decompose_batch,
    decompose_received,
    floor_parts,
    gaussian_output,
    gaussian_output_mimo,
    quantize_gain,
    superposition_output,
    superposition_output_mimo,
    trunc_parts,
)

finite_components = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def test_bit_depth_single_gain():
    assert compute_bit_depth([ComplexGain(4, 8)]) == 3


def test_bit_depth_just_below_a_power_of_two():
    # math.log2 rounds 2**15 - 2**-37 up to 15.0.
    assert compute_bit_depth([ComplexGain(2.0**15 - 2.0**-37)]) == 14
    assert compute_bit_depth([ComplexGain(-(2.0**62) + 1024.0)]) == 61


def test_bit_depth_clamps_to_one():
    assert compute_bit_depth([ComplexGain(1, 0.2)]) == 1


def test_bit_depth_takes_max_over_components():
    gains = [ComplexGain(2.7, -4.3), ComplexGain(13, 1)]
    assert compute_bit_depth(gains) == 3


def test_bit_depth_rejects_degenerate_inputs():
    with pytest.raises(EmptyGainList):
        compute_bit_depth([])
    with pytest.raises(GainBelowUnit):
        compute_bit_depth([ComplexGain(0.5, -0.9)])


def test_quantize_examples():
    assert quantize_gain(ComplexGain(2.7, -4.3)) == QuantizedGain(2, -4)
    assert quantize_gain(ComplexGain(-0.5, 3.9)) == QuantizedGain(0, 3)
    assert quantize_gain(ComplexGain(5, 0)) == QuantizedGain(5, 0)


@given(re=finite_components, im=finite_components)
def test_quantize_error_below_one_and_sign_consistent(re, im):
    q = quantize_gain(ComplexGain(re, im))
    for comp, qc in ((re, q.re), (im, q.im)):
        err = comp - qc
        assert abs(err) < 1.0
        # Truncation toward zero never flips the sign and never overshoots.
        assert abs(qc) <= abs(comp)
        if qc != 0:
            assert (qc > 0) == (comp > 0)


def test_symbol_values_and_validation():
    s = DiscreteSymbol(3, 1, 2)
    assert s.re_value == Fraction(3, 4)
    assert s.im_value == Fraction(1, 4)
    assert s.as_complex() == complex(0.75, 0.25)
    with pytest.raises(ChannelError):
        DiscreteSymbol(4, 0, 2)
    with pytest.raises(ChannelError):
        DiscreteSymbol(0, -1, 2)
    with pytest.raises(ChannelError):
        DiscreteSymbol(0, 0, 0)


def test_superposition_real_example():
    # x = 0.75, quantized gain 2: trunc(1.5) = 1.
    out = superposition_output([DiscreteSymbol(3, 0, 2)], [QuantizedGain(2, 0)])
    assert out == (1, 0)


def test_superposition_complex_product_is_exact():
    # (1 + i)(0.5 + 0.5i) = i exactly, no truncation loss.
    out = superposition_output([DiscreteSymbol(1, 1, 1)], [QuantizedGain(1, 1)])
    assert out == (0, 1)


def test_superposition_truncates_each_term_separately():
    # trunc(2 * 0.75) + trunc(-3 * 0.25) = 1 + 0.
    inputs = [DiscreteSymbol(3, 0, 2), DiscreteSymbol(1, 0, 2)]
    out = superposition_output(inputs, [QuantizedGain(2, 0), QuantizedGain(-3, 0)])
    assert out == (1, 0)


def test_superposition_length_mismatch():
    with pytest.raises(LengthMismatch):
        superposition_output([DiscreteSymbol(0, 0, 1)], [])


def _fraction_trunc(fr: Fraction) -> int:
    # int() on a Fraction truncates toward zero, matching the channel rule.
    return int(fr)


@given(
    a=st.integers(-64, 64),
    b=st.integers(-64, 64),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_truncated_product_matches_fraction_oracle(a, b, n, data):
    lim = 1 << n
    p = data.draw(st.integers(0, lim - 1))
    q = data.draw(st.integers(0, lim - 1))
    out = superposition_output([DiscreteSymbol(p, q, n)], [QuantizedGain(a, b)])
    re = _fraction_trunc(Fraction(a * p - b * q, lim))
    im = _fraction_trunc(Fraction(a * q + b * p, lim))
    assert out == (re, im)


def test_gaussian_output_matches_complex_arithmetic():
    inputs = [0.75 + 0j, 0.25 + 0j]
    gains = [ComplexGain(2.7, -4.3), ComplexGain(1.1, 0)]
    noise = 0.1 + 0.2j
    got = gaussian_output(inputs, gains, noise)
    want = (2.7 - 4.3j) * 0.75 + 1.1 * 0.25 + noise
    assert got == pytest.approx(want)
    assert gaussian_output([1.0], [ComplexGain(0, 0)], noise) == noise


def test_trunc_and_floor_parts():
    assert trunc_parts(complex(-1.7, 2.3)) == (-1, 2)
    assert floor_parts(complex(-1.7, 2.3)) == (-2, 2)


def test_decompose_single_link_example():
    # Gain 1, input 0.5, no noise: y' = 0, v = 0.5, z = 0, c = 0.
    d = decompose_received([DiscreteSymbol(1, 0, 1)], [ComplexGain(1, 0)], 0j)
    assert d.y_prime == (0, 0)
    assert d.v == complex(0.5, 0)
    assert d.z == 0j
    assert d.c == (0, 0)


def test_decompose_integer_gains_have_no_gain_error_term():
    # With h = h' the perturbation is exactly the sum of per-link product
    # truncation fractions, computable in rational arithmetic.
    rng = np.random.default_rng(7)
    gains = [ComplexGain(3, 0), ComplexGain(-2, 5)]
    for _ in range(200):
        inputs = [DiscreteSymbol(int(rng.integers(8)), int(rng.integers(8)), 3) for _ in gains]
        noise = complex(rng.normal(), rng.normal())
        d = decompose_received(inputs, gains, noise)
        want_re = Fraction(0)
        want_im = Fraction(0)
        for g, x in zip(gains, inputs):
            num_re = int(g.re) * x.re_bits - int(g.im) * x.im_bits
            num_im = int(g.re) * x.im_bits + int(g.im) * x.re_bits
            den = 1 << x.bit_depth
            want_re += Fraction(num_re, den) - int(Fraction(num_re, den))
            want_im += Fraction(num_im, den) - int(Fraction(num_im, den))
        assert d.v.real == pytest.approx(float(want_re), abs=1e-12)
        assert d.v.imag == pytest.approx(float(want_im), abs=1e-12)


def test_decompose_single_positive_link_keeps_zero_v_floor():
    # One link with a positive integer gain: the truncation fraction stays
    # in [0, 1) per component, so floor(v) is identically zero.
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = DiscreteSymbol(int(rng.integers(8)), int(rng.integers(8)), 3)
        d = decompose_received([x], [ComplexGain(7, 0)], complex(rng.normal(), rng.normal()))
        assert floor_parts(d.v) == (0, 0)


def _identity_holds(d) -> bool:
    fy = floor_parts(d.y)
    fv = floor_parts(d.v)
    fz = floor_parts(d.z)
    return fy == (
        d.y_prime[0] + fv[0] + fz[0] + d.c[0],
        d.y_prime[1] + fv[1] + fz[1] + d.c[1],
    )


def test_decompose_identity_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(500):
        k = int(rng.integers(1, 4))
        gains = [
            ComplexGain(float(rng.uniform(-40, 40)), float(rng.uniform(-40, 40)))
            for _ in range(k)
        ]
        if all(max(abs(g.re), abs(g.im)) < 1 for g in gains):
            continue
        n = compute_bit_depth(gains)
        lim = 1 << n
        inputs = [
            DiscreteSymbol(int(rng.integers(lim)), int(rng.integers(lim)), n)
            for _ in range(k)
        ]
        noise = complex(rng.normal(0, 3), rng.normal(0, 3))
        d = decompose_received(inputs, gains, noise)
        assert _identity_holds(d)
        assert d.c[0] in (0, 1) and d.c[1] in (0, 1)
        assert abs(d.v.real) < 3 * k and abs(d.v.imag) < 3 * k
        y_sum = complex(*d.y_prime) + d.v + d.z
        assert d.y == pytest.approx(y_sum, abs=1e-9)


def test_decompose_batch_matches_scalar():
    rng = np.random.default_rng(23)
    gains = [ComplexGain(6.9, -2.2), ComplexGain(1.5, 12.0)]
    n = compute_bit_depth(gains)
    lim = 1 << n
    rows = 300
    xr = rng.integers(0, lim, size=(rows, 2))
    xi = rng.integers(0, lim, size=(rows, 2))
    zr = rng.normal(0, math.sqrt(0.5), rows)
    zi = rng.normal(0, math.sqrt(0.5), rows)
    batch = decompose_batch(gains, xr, xi, n, zr, zi)
    vf = batch.v_floor
    zf = batch.z_floor
    for i in range(rows):
        inputs = [DiscreteSymbol(int(xr[i, k]), int(xi[i, k]), n) for k in range(2)]
        d = decompose_received(inputs, gains, complex(zr[i], zi[i]))
        assert (int(batch.yp_re[i]), int(batch.yp_im[i])) == d.y_prime
        assert (int(vf[0][i]), int(vf[1][i])) == floor_parts(d.v)
        assert (int(zf[0][i]), int(zf[1][i])) == floor_parts(d.z)
        assert (int(batch.c_re[i]), int(batch.c_im[i])) == d.c
        assert batch.v_re[i] == pytest.approx(d.v.real, abs=1e-9)
        assert batch.v_im[i] == pytest.approx(d.v.imag, abs=1e-9)


def _dyadic_gains(draw, links: int, int_bits: int) -> list[ComplexGain]:
    # Integer parts below 2**int_bits plus a quarter-step fraction, so the
    # float views of every product stay exact dyadics.
    comp = st.builds(
        lambda sign, whole, quarter: sign * (whole + quarter / 4),
        st.sampled_from((-1, 1)),
        st.integers(0, (1 << int_bits) - 1),
        st.integers(0, 3),
    )
    return [ComplexGain(draw(comp), draw(comp)) for _ in range(links)]


def _bit_rows(draw, links: int, n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    bits = st.lists(st.integers(0, (1 << n) - 1), min_size=rows * links, max_size=rows * links)
    xr = np.array(draw(bits), dtype=np.int64).reshape(rows, links)
    xi = np.array(draw(bits), dtype=np.int64).reshape(rows, links)
    return xr, xi


@settings(max_examples=60, deadline=None)
@given(data=st.data(), links=st.integers(1, 3), n=st.integers(1, 40))
def test_decompose_batch_equals_scalar_below_float_limit(data, links, n):
    # Every term has at most int_bits + n + links.bit_length() + 3 <= 52
    # significant bits, so both paths compute exactly and must agree bit
    # for bit, carry included.
    int_bits = data.draw(st.integers(0, 49 - n - links.bit_length()))
    gains = _dyadic_gains(data.draw, links, int_bits)
    xr, xi = _bit_rows(data.draw, links, n, rows=4)
    noise = st.floats(min_value=-4, max_value=4, allow_nan=False)
    zr = np.array([data.draw(noise) for _ in range(4)])
    zi = np.array([data.draw(noise) for _ in range(4)])
    batch = decompose_batch(gains, xr, xi, n, zr, zi)
    vf = batch.v_floor
    for i in range(4):
        inputs = [DiscreteSymbol(int(xr[i, k]), int(xi[i, k]), n) for k in range(links)]
        d = decompose_received(inputs, gains, complex(zr[i], zi[i]))
        assert (int(batch.yp_re[i]), int(batch.yp_im[i])) == d.y_prime
        assert (batch.v_re[i], batch.v_im[i]) == (d.v.real, d.v.imag)
        assert (int(vf[0][i]), int(vf[1][i])) == floor_parts(d.v)
        assert (int(batch.c_re[i]), int(batch.c_im[i])) == d.c


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    links=st.integers(1, 4),
    n=st.integers(1, 62),
    int_bits=st.integers(0, 62),
)
def test_decompose_batch_exact_up_to_int64_limit_and_rejects_beyond(data, links, n, int_bits):
    whole = st.integers(-(1 << int_bits), 1 << int_bits)
    gains = [ComplexGain(float(data.draw(whole)), float(data.draw(whole))) for _ in range(links)]
    quantized = [quantize_gain(g) for g in gains]
    q_max = max(max(abs(q.re), abs(q.im)) for q in quantized)
    xr, xi = _bit_rows(data.draw, links, n, rows=3)
    z = np.zeros(3)
    if q_max.bit_length() + n + links.bit_length() + 2 > 63:
        with pytest.raises(ChannelError):
            decompose_batch(gains, xr, xi, n, z, z)
        return
    batch = decompose_batch(gains, xr, xi, n, z, z)
    for i in range(3):
        inputs = [DiscreteSymbol(int(xr[i, k]), int(xi[i, k]), n) for k in range(links)]
        assert (int(batch.yp_re[i]), int(batch.yp_im[i])) == superposition_output(
            inputs, quantized
        )


def test_decompose_batch_rejects_the_wrapping_gain():
    # Unguarded, the int64 products wrap and y' comes out (-1, -1) instead
    # of (8589934591, 8589934591).
    gains = [ComplexGain(2.0**33 + 0.5, 0.0)]
    x = np.array([[(1 << 33) - 1]], dtype=np.int64)
    with pytest.raises(ChannelError):
        decompose_batch(gains, x, x, 33, np.zeros(1), np.zeros(1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), links=st.integers(1, 3), n=st.integers(1, 62))
def test_decompose_carry_in_zero_one_at_every_bit_depth(data, links, n):
    # Gain components in [2**n, 2**(n+1)) set the bit depth to n.  From
    # bit depth about 46 on, float sums of these terms no longer floor
    # exactly, so only exact arithmetic keeps the carry in {0, 1}.
    comp = st.builds(
        lambda sign, mag: sign * mag,
        st.sampled_from((-1.0, 1.0)),
        st.floats(min_value=2.0**n, max_value=2.0 ** (n + 1), exclude_max=True),
    )
    gains = [ComplexGain(data.draw(comp), data.draw(comp)) for _ in range(links)]
    assert compute_bit_depth(gains) == n
    bits = st.integers(0, (1 << n) - 1)
    inputs = [DiscreteSymbol(data.draw(bits), data.draw(bits), n) for _ in range(links)]
    noise = st.floats(min_value=-8, max_value=8)
    d = decompose_received(inputs, gains, complex(data.draw(noise), data.draw(noise)))
    assert d.c[0] in (0, 1) and d.c[1] in (0, 1)


def test_decompose_carry_exact_for_the_largest_gain():
    # h x = 2i (2**62 - 1) is a Gaussian integer, so v = 0 and c = 0;
    # summed in floats, this reception gives the carry (0, 2).
    n = 62
    x = DiscreteSymbol((1 << n) - 1, (1 << n) - 1, n)
    d = decompose_received([x], [ComplexGain(2.0**62 + 0.5, 2.0**62 + 0.5)], 0j)
    assert d.y_prime == (0, 2**63 - 2)
    assert d.c == (0, 0)


def test_decompose_carry_exact_when_the_sum_rounds_onto_an_integer():
    # h x = 1 and z = -5e-324: y = 1 - 5e-324 rounds to 1.0 in float, but
    # its floor is 0 and the carry floor(frac(v) + frac(z)) is 0, not 1.
    gains = [ComplexGain(2.0, 0.0)]
    z = -5e-324
    d = decompose_received([DiscreteSymbol(1, 0, 1)], gains, complex(z, 0.0))
    assert d.c == (0, 0)
    assert _identity_holds(d)
    batch = decompose_batch(gains, np.array([[1]]), np.array([[0]]), 1,
                            np.array([z]), np.zeros(1))
    assert (int(batch.c_re[0]), int(batch.c_im[0])) == d.c
    assert batch.y_re[0] == d.y.real < 1.0


def _diag(g0: QuantizedGain, g1: QuantizedGain):
    zero = QuantizedGain(0, 0)
    return ((g0, zero), (zero, g1))


def test_mimo_superposition_diagonal_reduces_to_scalar():
    # Diagonal gain matrix: each receive antenna sees one scalar link.
    x = (DiscreteSymbol(1, 0, 1), DiscreteSymbol(0, 1, 1))
    out = superposition_output_mimo([x], [_diag(QuantizedGain(2, 0), QuantizedGain(2, 0))])
    want0 = superposition_output([x[0]], [QuantizedGain(2, 0)])
    want1 = superposition_output([x[1]], [QuantizedGain(2, 0)])
    assert out == (want0, want1)
    assert out == ((1, 0), (0, 1))


def test_mimo_superposition_matches_scalar_composition():
    rng = np.random.default_rng(5)
    n = 2
    lim = 1 << n
    for _ in range(100):
        mats = []
        inputs = []
        for _ in range(2):
            mats.append(
                tuple(
                    tuple(
                        QuantizedGain(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                        for _ in range(2)
                    )
                    for _ in range(2)
                )
            )
            inputs.append(
                (
                    DiscreteSymbol(int(rng.integers(lim)), int(rng.integers(lim)), n),
                    DiscreteSymbol(int(rng.integers(lim)), int(rng.integers(lim)), n),
                )
            )
        got = superposition_output_mimo(inputs, mats)
        for ant in (0, 1):
            flat_inputs = [s for pair in inputs for s in pair]
            flat_gains = [g[k][ant] for g in mats for k in (0, 1)]
            assert got[ant] == superposition_output(flat_inputs, flat_gains)


def test_mimo_gaussian_output_zero_gain_passes_noise():
    zero = ComplexGain(0, 0)
    mat = ((zero, zero), (zero, zero))
    out = gaussian_output_mimo([(0.5 + 0j, 0.25 + 0j)], [mat], (1 + 2j, 3 - 1j))
    assert out == (1 + 2j, 3 - 1j)


def test_mimo_length_mismatch():
    with pytest.raises(LengthMismatch):
        superposition_output_mimo([], [_diag(QuantizedGain(1, 0), QuantizedGain(1, 0))])


@settings(max_examples=60)
@given(
    re=st.floats(min_value=-100, max_value=100, allow_nan=False),
    im=st.floats(min_value=-100, max_value=100, allow_nan=False),
    zr=st.floats(min_value=-5, max_value=5, allow_nan=False),
    zi=st.floats(min_value=-5, max_value=5, allow_nan=False),
    p=st.integers(0, 3),
    q=st.integers(0, 3),
)
def test_decompose_identity_property(re, im, zr, zi, p, q):
    gain = ComplexGain(re, im)
    if max(abs(re), abs(im)) < 1:
        with pytest.raises(GainBelowUnit):
            compute_bit_depth([gain])
        return
    n = compute_bit_depth([gain])
    lim = 1 << n
    d = decompose_received(
        [DiscreteSymbol(p % lim, q % lim, n)], [gain], complex(zr, zi)
    )
    assert _identity_holds(d)
    assert d.c[0] in (0, 1) and d.c[1] in (0, 1)
