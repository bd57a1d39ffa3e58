"""Quantized complex channel arithmetic.

A Gaussian relay link carries y = sum_i h_i x_i + z with complex gains h_i
and unit-power inputs.  The discrete counterpart replaces each gain by its
componentwise integer truncation and each input by a complex number whose
real and imaginary parts are n-bit fractions in [0, 1).  Truncated gains,
symbols and receptions are all (re, im) int pairs: a truncated gain and a
reception are Gaussian integers, and a symbol is held as its integer
numerators over 2**n.  The bit depth n is not stored on a symbol but
passed in; it belongs to the network and the code.  All discrete
arithmetic here is exact: every product is evaluated in integer
arithmetic before the truncation, so no float rounding can leak into the
discrete outputs.

Truncation is always toward zero and acts componentwise on the real and
imaginary parts.  The floor-based decomposition of a noisy reception uses
componentwise floor instead, with the carry defined as the exact residual
that makes the reconstruction identity hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "ChannelError",
    "EmptyGainList",
    "GainBelowUnit",
    "LengthMismatch",
    "ComplexGain",
    "Decomposition",
    "DecompositionBatch",
    "compute_bit_depth",
    "quantize_gain",
    "symbol_value",
    "superposition_output",
    "decompose_received",
    "check_batch_range",
    "decompose_batch",
    "floor_parts",
]


class ConfigError(ValueError):
    """An input the program refuses."""


class ChannelError(ConfigError):
    """Base class for channel arithmetic errors."""


class EmptyGainList(ChannelError):
    pass


class GainBelowUnit(ChannelError):
    pass


class LengthMismatch(ChannelError):
    pass


@dataclass(frozen=True)
class ComplexGain:
    """A complex link gain, kept as a separate re/im pair.

    The pair form (rather than a bare ``complex``) keeps the componentwise
    semantics of quantization explicit and lets network files carry exact
    decimal strings.
    """

    re: float
    im: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ChannelError(f"gain components must be finite, got {self.re}, {self.im}")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


# A Gaussian integer, kept as an exact (re, im) int pair.  Tuples keep the
# reception alphabet hashable and cheap, which matters once receptions are
# used as dictionary keys in decoders and typical-set machinery.  A channel
# input is the same pair type: (re_bits, im_bits) with 0 <= bits < 2**n,
# and so is a truncated gain.
Zint = tuple[int, int]


@dataclass(frozen=True)
class Decomposition:
    """Split of a noisy reception into discrete output plus gap terms.

    y        : the Gaussian reception (float view of the exact value)
    y_prime  : the discrete superposition output (exact Gaussian integer)
    v        : perturbation from gain truncation and product truncation
               (float view of the exact value)
    z        : the additive noise sample
    c        : integer carry, the residual floor(y) - y_prime - floor(v)
               - floor(z) of the exact y and v
    """

    y: complex
    y_prime: Zint
    v: complex
    z: complex
    c: Zint


def floor_parts(w: complex) -> Zint:
    """Componentwise floor of a complex number."""
    return (math.floor(w.real), math.floor(w.imag))


def compute_bit_depth(gains: Iterable[ComplexGain]) -> int:
    """Bit depth of the discrete model induced by a set of link gains.

    Takes the largest floor(log2 |component|) over all real and imaginary
    gain components of magnitude at least one, then clamps the result to a
    minimum of 1 so the input alphabet is never degenerate.  Components
    smaller than one in magnitude carry less than a bit and are skipped.
    """
    gains = list(gains)
    if not gains:
        raise EmptyGainList("at least one gain is required")
    best: int | None = None
    for g in gains:
        for comp in (g.re, g.im):
            mag = abs(comp)
            if mag >= 1.0:
                # frexp's exponent is exact; log2 rounds up just below 2**k.
                level = math.frexp(mag)[1] - 1
                best = level if best is None else max(best, level)
    if best is None:
        raise GainBelowUnit("every gain component has magnitude below one")
    return max(best, 1)


def quantize_gain(h: ComplexGain) -> Zint:
    """Truncate both components of a gain toward zero, as an (re, im) pair.

    The sign never flips and the error in each component is below one.
    """
    return (math.trunc(h.re), math.trunc(h.im))


Mimo = tuple[tuple[ComplexGain, ComplexGain], tuple[ComplexGain, ComplexGain]]


def symbol_value(x: Zint, bit_depth: int) -> complex:
    """The complex input (re_bits + i im_bits) / 2**bit_depth of a symbol."""
    # Dyadic fractions with n <= 52 are exact in binary64.
    d = float(1 << bit_depth)
    return complex(x[0] / d, x[1] / d)


def superposition_output(
    inputs: Sequence[Zint], gains: Sequence[Zint], bit_depth: int
) -> Zint:
    """Discrete reception: sum of truncated quantized-gain products.

    Each input is an (re_bits, im_bits) pair on the grid of ``bit_depth``
    and each gain a truncated (re, im) pair from quantize_gain.
    Each product is evaluated exactly on the dyadic grid, truncated toward
    zero componentwise, and the truncated Gaussian integers are summed.
    """
    if len(inputs) != len(gains):
        raise LengthMismatch(f"{len(inputs)} inputs vs {len(gains)} gains")
    n = bit_depth
    re = im = 0
    for (p, q), (a, b) in zip(inputs, gains):
        # (a + bi)(p + qi) / 2**n exactly: shift the integer numerators,
        # rounding their magnitudes down, so each part truncates toward zero.
        num_re = a * p - b * q
        num_im = a * q + b * p
        re += num_re >> n if num_re >= 0 else -(-num_re >> n)
        im += num_im >> n if num_im >= 0 else -(-num_im >> n)
    return (re, im)


def _dyadic(f: float) -> tuple[int, int]:
    # A finite float is exactly num / 2**exp.
    num, den = f.as_integer_ratio()
    return num, den.bit_length() - 1


def _float_view(num: int, exp: int) -> float:
    # num / 2**exp rounded to nearest, stepped down one ulp when rounding
    # up reached the next integer, so the view keeps the exact floor while
    # its magnitude is below 2**52.
    f = num / (1 << exp)
    if math.floor(f) > num >> exp:
        f = math.nextafter(f, -math.inf)
    return f


def decompose_received(
    inputs: Sequence[Zint],
    gains: Sequence[ComplexGain],
    noise: complex,
    bit_depth: int,
) -> Decomposition:
    """Genie split y = y' + v + z with integer carry.

    v collects, per link, the gain truncation term (h - h')x and the
    product truncation term h'x - trunc(h'x), so y' + v = sum h x.  Float
    gains, dyadic inputs and the float noise sample are all rationals
    num / 2**exp, so y and v are computed exactly as integers over one
    power of two.  The carry is the exact residual
    c = floor(y) - y' - floor(v) - floor(z), which makes

        floor(y) = y' + floor(v) + floor(z) + c

    an identity, and each component of c is floor(frac(v) + frac(z)), in
    {0, 1} at every bit depth.  The y and v fields are float views of the
    exact values that keep their floors while below 2**52 in magnitude.
    Empirically each component of v stays below 3K in magnitude for K
    incoming links.
    """
    return _decompose(inputs, gains, [quantize_gain(g) for g in gains], noise, bit_depth)


def _decompose(
    inputs: Sequence[Zint],
    gains: Sequence[ComplexGain],
    quantized: Sequence[Zint],
    noise: complex,
    bit_depth: int,
) -> Decomposition:
    """decompose_received, with the quantize_gain value of each gain given."""
    if len(inputs) != len(gains):
        raise LengthMismatch(f"{len(inputs)} inputs vs {len(gains)} gains")
    n = bit_depth
    y_prime = superposition_output(inputs, quantized, n)

    # (numerator, exponent) terms of sum h x, per component.
    re_terms: list[tuple[int, int]] = []
    im_terms: list[tuple[int, int]] = []
    for (p, q), g in zip(inputs, gains):
        (a, ea), (b, eb) = _dyadic(g.re), _dyadic(g.im)
        re_terms += [(a * p, ea + n), (-b * q, eb + n)]
        im_terms += [(a * q, ea + n), (b * p, eb + n)]
    z_re, z_im = _dyadic(noise.real), _dyadic(noise.imag)
    s = max(e for _, e in (*re_terms, *im_terms, z_re, z_im))
    hx_re = sum(m << (s - e) for m, e in re_terms)
    hx_im = sum(m << (s - e) for m, e in im_terms)
    y_re = hx_re + (z_re[0] << (s - z_re[1]))
    y_im = hx_im + (z_im[0] << (s - z_im[1]))
    v_re = hx_re - (y_prime[0] << s)
    v_im = hx_im - (y_prime[1] << s)

    fz = floor_parts(noise)
    c = (
        (y_re >> s) - y_prime[0] - (v_re >> s) - fz[0],
        (y_im >> s) - y_prime[1] - (v_im >> s) - fz[1],
    )
    return Decomposition(
        y=complex(_float_view(y_re, s), _float_view(y_im, s)),
        y_prime=y_prime,
        v=complex(_float_view(v_re, s), _float_view(v_im, s)),
        z=noise,
        c=c,
    )


@dataclass
class DecompositionBatch:
    """Vectorized decomposition over a sample axis.

    All arrays share the leading sample dimension.  Integer-valued pieces
    (y_prime, carries, floors) are int64; y and v are float pairs.
    """

    y_re: np.ndarray
    y_im: np.ndarray
    yp_re: np.ndarray
    yp_im: np.ndarray
    v_re: np.ndarray
    v_im: np.ndarray
    z_re: np.ndarray
    z_im: np.ndarray
    c_re: np.ndarray
    c_im: np.ndarray

    @property
    def v_floor(self) -> tuple[np.ndarray, np.ndarray]:
        return np.floor(self.v_re).astype(np.int64), np.floor(self.v_im).astype(np.int64)

    @property
    def z_floor(self) -> tuple[np.ndarray, np.ndarray]:
        return np.floor(self.z_re).astype(np.int64), np.floor(self.z_im).astype(np.int64)


def _add_keeping_floor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a + b rounded to nearest, stepped down one ulp where rounding up
    # reached an integer, so each sum has the floor of the exact a + b.
    # Only sums that land on an integer need TwoSum's exact error term.
    s = a + b
    hit = np.flatnonzero(s == np.floor(s))
    if hit.size:
        sh, ah, bh = s[hit], a[hit], b[hit]
        t = sh - ah
        err = (ah - (sh - t)) + (bh - t)
        down = hit[err < 0]
        s[down] = np.nextafter(s[down], -np.inf)
    return s


def check_batch_range(gains: Sequence[ComplexGain], bit_depth: int) -> None:
    """Raise ChannelError unless decompose_batch stays in int64 for these
    gains at this bit depth.

    With Q the largest integer part of a gain component and K links, every
    int64 intermediate stays in range when
    bit_length(Q) + bit_depth + bit_length(K) + 2 <= 63.  That also keeps
    the inputs' numerators below 2**bit_depth inside int64.
    """
    # |q x| < Q 2**n bounds each product numerator by 2**(bits(Q) + n + 1);
    # y', floor(y) and the carry stay below 8 K Q.
    q_max = max((abs(math.trunc(c)) for g in gains for c in (g.re, g.im)), default=0)
    if q_max.bit_length() + bit_depth + len(gains).bit_length() + 2 > 63:
        raise ChannelError(
            f"gain integer parts up to {q_max} at bit depth {bit_depth} over {len(gains)} "
            "links can overflow int64"
        )


def decompose_batch(
    gains: Sequence[ComplexGain],
    x_re_bits: np.ndarray,
    x_im_bits: np.ndarray,
    bit_depth: int,
    z_re: np.ndarray,
    z_im: np.ndarray,
) -> DecompositionBatch:
    """Vectorized twin of decompose_received for Monte Carlo work.

    x_re_bits / x_im_bits have shape (samples, K) for K links and hold the
    integer numerators of the discrete inputs.  The discrete products are
    evaluated in int64, the gap terms in float.  y keeps the exact floor
    of its float deterministic sum plus z, so while every term fits in 52
    bits the carries are the exact ones decompose_received returns.
    Beyond the int64 range of check_batch_range the call raises
    ChannelError instead of wrapping around.
    """
    if x_re_bits.shape != x_im_bits.shape or x_re_bits.ndim != 2:
        raise LengthMismatch("input bit arrays must share a (samples, links) shape")
    if x_re_bits.shape[1] != len(gains):
        raise LengthMismatch(f"{x_re_bits.shape[1]} input columns vs {len(gains)} gains")
    n = bit_depth
    check_batch_range(gains, n)
    den = 1 << n
    g_re = np.array([g.re for g in gains], dtype=np.float64)
    g_im = np.array([g.im for g in gains], dtype=np.float64)
    q_re = np.trunc(g_re).astype(np.int64)
    q_im = np.trunc(g_im).astype(np.int64)

    xr = x_re_bits.astype(np.int64)
    xi = x_im_bits.astype(np.int64)
    num_re = q_re * xr - q_im * xi
    num_im = q_re * xi + q_im * xr
    t_re = np.sign(num_re) * (np.abs(num_re) >> n)
    t_im = np.sign(num_im) * (np.abs(num_im) >> n)
    yp_re = t_re.sum(axis=1)
    yp_im = t_im.sum(axis=1)

    # Float views of the exact dyadic inputs and products.
    xv_re = xr / den
    xv_im = xi / den
    prod_re = num_re / den
    prod_im = num_im / den
    qf_re = q_re.astype(np.float64)
    qf_im = q_im.astype(np.float64)

    v_re = ((g_re - qf_re) * xv_re - (g_im - qf_im) * xv_im + (prod_re - t_re)).sum(axis=1)
    v_im = ((g_re - qf_re) * xv_im + (g_im - qf_im) * xv_re + (prod_im - t_im)).sum(axis=1)

    z_re = np.asarray(z_re, dtype=np.float64)
    z_im = np.asarray(z_im, dtype=np.float64)
    y_re = _add_keeping_floor((g_re * xv_re - g_im * xv_im).sum(axis=1), z_re)
    y_im = _add_keeping_floor((g_re * xv_im + g_im * xv_re).sum(axis=1), z_im)

    c_re = np.floor(y_re).astype(np.int64) - yp_re - np.floor(v_re).astype(np.int64) - np.floor(z_re).astype(np.int64)
    c_im = np.floor(y_im).astype(np.int64) - yp_im - np.floor(v_im).astype(np.int64) - np.floor(z_im).astype(np.int64)

    return DecompositionBatch(
        y_re=y_re, y_im=y_im,
        yp_re=yp_re, yp_im=yp_im,
        v_re=v_re, v_im=v_im,
        z_re=z_re, z_im=z_im,
        c_re=c_re, c_im=c_im,
    )
