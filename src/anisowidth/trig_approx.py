"""Trigonometric kernels, smoothing operators, and approximation rates.

Periodic machinery on the d-torus: the Fejer kernel, the de la Vallee
Poussin taper operator on coefficients (weight 1 up to ``N``, linear to 0
at ``2N``), dyadic blocks driven by the per-axis growth weights of a
smoothness vector, fractional derivatives and integrals as coefficient
multipliers, and empirical approximation-rate slopes for functions in
anisotropic smoothness classes.

Function norms here use normalized measure (grid means, or by Parseval
the coefficients' l2 norm when every exponent is 2), in contrast with the
counting-measure norms of :mod:`anisowidth.mixed_norm`.

Each coefficient-space decision (band slices, FFT positions, a multiplier
along one axis, the exact dyadic degrees, the Weyl multiplier, the
difference multiplier, the quadrature grid, the norm's route and range
scaling, degree powers) is made by one private helper.
Every quadrature norm of grid samples is taken by one helper,
:func:`_grid_norms`, with the bits of the tensor norm of their magnitudes.
A grid of at most ``_BLOCK`` (``2**15``) entries, or of one axis, has its
magnitudes taken at once; a larger one is reduced in blocks of whole
columns along its last axis, so a norm holds the samples and one block of
magnitudes, never a second grid.
The plans that depend only on degrees and orders (taper weights, scale
degrees, quadrature grids, FFT positions, Weyl multipliers) are kept by
the package's memo rule, ``lru_cache(maxsize=256, typed=True)``
(:func:`anisowidth.mixed_norm._kept`); kept arrays are read-only, no
result shares memory with them, and nothing is kept that depends on a
polynomial's coefficients.
Kernel and taper orders must be finite and >= 1, Weyl orders finite and
>= 0, phases and other real scalars finite numbers (:func:`_finite`; a
taper order is checked as a real number without conversion, so a huge
int stays exact); sample points and coefficients numbers that numpy
converts, not strings (:func:`anisowidth.mixed_norm._array`), and sample
points and frequencies finite ones (:func:`_finite_array`); and a
polynomial argument a :class:`TrigPoly`.  Anything else is refused with
:class:`ValidationError`, so no input yields NaN.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .mixed_norm import (
    ExponentVector,
    ValidationError,
    as_exponents,
    _array,
    _entries,
    _in_range,
    _is_flat_two,
    _kept,
    _ldexp,
    _magnitude_norm,
    _prescaled,
    _rescue,
    _reduce_axis0,
    _require_int,
    _require_ints,
    _require_type,
)
from .exponents import _beta_ratios, dyadic_beta, smoothness_vector

__all__ = [
    "TrigPoly",
    "samples_to_trigpoly",
    "fejer",
    "vp_power_kernel",
    "vp_multiplier",
    "vp_operator",
    "vp_at_scale",
    "dyadic_block",
    "bernoulli_kernel",
    "weyl_derivative",
    "weyl_integral",
    "trig_lp_norm",
    "nikolskii_ratio",
    "bernstein_ratio",
    "fejer_shift_sum_check",
    "RateResult",
    "approximation_rate",
    "decaying_series_1d",
    "lacunary_1d",
    "tensor_series_2d",
]

# admissible window for the kernel shift-sum bound: C1 <= m*h <= C2
SHIFT_SUM_WINDOW = (0.25, 8.0)
# steps h of the finite-difference scan in smoothness_margin
_MARGIN_STEPS = (math.pi / 3, math.pi / 7, math.pi / 16, math.pi / 40)
_FLAT_2 = as_exponents((2,))  # _l2_norm's exponent, one axis
# entries of one block of _grid_norms: 2**15 float64 magnitudes (256 KB)
# stay in a core's L2 cache while each plan's first step reduces them
_BLOCK = 2**15


def _band(inner, outer) -> tuple:
    """Slices of the degree-``inner`` band centred in a degree-``outer``
    array; the caller sees to it that ``inner`` fits in ``outer``."""
    return tuple([slice(No - Ni, No + Ni + 1) for Ni, No in zip(inner, outer)])


@functools.lru_cache(maxsize=256, typed=True)
def _spectrum_positions(degree: tuple, grid: tuple) -> tuple:
    """Per axis, the FFT positions of the band ``|k_j| <= N_j`` on a uniform
    grid that resolves it (``G_j >= 2 N_j + 1``), in frequency order:
    computed once per pair of int tuples and kept read-only (a refusal is
    not kept, so it is raised again on every call)."""
    if len(grid) != len(degree):
        raise ValidationError(f"grid {grid} and degree {degree} differ in dimension")
    for G, N in zip(grid, degree):
        if G < 2 * N + 1:
            raise ValidationError(f"grid {G} aliases a degree-{N} band (need >= {2 * N + 1})")
    positions = tuple(np.arange(-N, N + 1) % G for N, G in zip(degree, grid))
    for axis in positions:
        axis.setflags(write=False)
    return positions


def _along(a: np.ndarray, axis: int, mult: np.ndarray) -> np.ndarray:
    """``a`` times the 1-d multiplier ``mult`` along the 0-based ``axis``."""
    shape = [1] * a.ndim
    shape[axis] = len(mult)
    return a * mult.reshape(shape)


def _finite(what: str, v) -> float:
    """The real scalar ``v`` as a finite float.  A string, anything else
    that ``float`` cannot take, and a value that is not finite are refused."""
    try:
        f = None if isinstance(v, (str, bytes)) else float(v)
    except (TypeError, ValueError):
        f = None
    except OverflowError:
        f = math.inf
    if f is None:
        raise ValidationError(f"{what} must be a real number, got {v!r}")
    if not math.isfinite(f):
        raise ValidationError(f"{what} must be finite, got {f}")
    return f


def _finite_array(what: str, data) -> np.ndarray:
    """The sample data ``data`` as :func:`anisowidth.mixed_norm._array`
    converts it, every entry finite: a NaN (``None`` reads as one) or an
    infinity is refused."""
    a = _array(what, data)
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} must be finite, got {reprlib.repr(data)}")
    return a


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array ``re + i im``, each part written as it is."""
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _like(x, vals):
    """A float for scalar ``x``, the array otherwise."""
    return float(vals) if np.isscalar(x) else vals


class TrigPoly:
    """Trigonometric polynomial with degree box ``|k_j| <= N_j``.

    ``coeff`` is a complex array of shape ``(2 N_1 + 1, ..., 2 N_d + 1)``
    with index ``i_j`` holding the coefficient of frequency
    ``k_j = i_j - N_j``.
    """

    __slots__ = ("degree", "coeff")

    def __init__(self, degree: Sequence[int], coeff=None):
        degree = _require_ints("degree", degree)
        if not degree:
            raise ValidationError("bad degree vector ()")
        shape = tuple(2 * N + 1 for N in degree)
        if coeff is None:
            coeff = np.zeros(shape, dtype=complex)
        else:
            coeff = _array("coefficients", coeff, complex)
            if coeff.shape != shape:
                raise ValidationError(
                    f"coefficient array shape {coeff.shape} does not match degree {degree}"
                )
            coeff = coeff.copy()
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeff", coeff)

    @classmethod
    def _of(cls, degree: tuple, coeff: np.ndarray) -> "TrigPoly":
        """The polynomial that owns ``coeff`` as it is, unchecked: a degree
        tuple of ints and a complex array of its shape, which no one else
        holds."""
        out = object.__new__(cls)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "coeff", coeff)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable; build a new one")

    @property
    def d(self) -> int:
        return len(self.degree)

    def _index(self, k) -> tuple:
        """Array index of the integer frequency vector ``k`` (an int when d = 1)."""
        k = (k,) if np.ndim(k) == 0 else tuple(k)
        index = tuple(_require_int("frequency", kj, -Nj) + Nj for kj, Nj in zip(k, self.degree))
        if len(k) != self.d or any(i > 2 * Nj for i, Nj in zip(index, self.degree)):
            raise ValidationError(f"frequency {k} is not an integer vector in box {self.degree}")
        return index

    def c(self, k: Sequence[int]) -> complex:
        return complex(self.coeff[self._index(k)])

    @classmethod
    def from_coeff_dict(cls, degree, entries: dict) -> "TrigPoly":
        out = cls(degree)
        for k, v in entries.items():
            out.coeff[out._index(k)] = v
        return out

    @classmethod
    def random_real(cls, degree, rng) -> "TrigPoly":
        """Random real-valued polynomial: conjugate-symmetric coefficients."""
        degree = _require_ints("degree", degree)
        shape = tuple(2 * N + 1 for N in degree)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return cls(degree, 0.5 * (raw + np.conj(np.flip(raw))))

    def pad(self, degree) -> "TrigPoly":
        out = TrigPoly(degree)
        if out.d != self.d or any(map(operator.gt, self.degree, out.degree)):
            raise ValidationError(f"degree {self.degree} does not fit in degree {out.degree}")
        out.coeff[_band(self.degree, out.degree)] = self.coeff
        return out

    def _binary(self, other, sign):
        """``self + sign * other`` at the joined degree: ``self.coeff``
        written into a fresh zero array, then ``sign * other.coeff`` added
        into ``other``'s band.  Both operands are valid polynomials, so the
        result skips :meth:`pad`'s and the constructor's checks."""
        if not isinstance(other, TrigPoly) or other.d != self.d:
            raise ValidationError("operands must be TrigPoly of equal dimension")
        degree = tuple(max(a, b) for a, b in zip(self.degree, other.degree))
        coeff = np.zeros(tuple(2 * N + 1 for N in degree), dtype=complex)
        coeff[_band(self.degree, degree)] = self.coeff
        # times the int sign, a complex multiply: a plain -= would give
        # some signed zeros the other sign
        coeff[_band(other.degree, degree)] += sign * other.coeff
        return TrigPoly._of(degree, coeff)

    def __add__(self, other):
        return self._binary(other, 1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __mul__(self, scalar):
        if isinstance(scalar, TrigPoly):
            raise ValidationError("only scalar multiplication is supported")
        _finite("scalar factor", abs(scalar) if np.iscomplexobj(scalar) else scalar)
        return TrigPoly(self.degree, self.coeff * scalar)

    __rmul__ = __mul__

    def values(self, grid: Sequence[int]) -> np.ndarray:
        """Evaluate on the uniform grid ``x_j = 2 pi g_j / G_j``.

        Requires ``G_j >= 2 N_j + 1`` on every axis (no aliasing).

        Exactly conjugate-symmetric coefficients (a real polynomial) give a
        float array: the values of :func:`_real_values`, which are those of
        ``np.fft.irfftn`` on the spread half-spectrum, times ``prod(grid)``,
        bit for bit.  Other coefficients are split into their Hermitian and
        anti-Hermitian parts, ``c = h + i b`` with ``h`` and ``b`` both
        conjugate-symmetric, and give the complex array of the real
        polynomials ``h`` and ``b``.
        """
        grid = _require_ints("grid size", grid, 1)
        positions = _spectrum_positions(self.degree, grid)
        mirror = np.conj(np.flip(self.coeff))
        odd = self.coeff - mirror
        if not odd.any():
            return _real_values(self.coeff, positions, grid)
        even = 0.5 * self.coeff + 0.5 * mirror
        return _complex(
            _real_values(even, positions, grid), _real_values(-0.5j * odd, positions, grid)
        )


def _real_values(coeff: np.ndarray, positions: tuple, grid: tuple) -> np.ndarray:
    """Values of the real polynomial with conjugate-symmetric ``coeff`` on
    ``grid``, given the band's FFT positions there.

    The passes run as ``np.fft.irfftn`` orders them: complex inverse
    passes over the leading axes, first to last but one, then ``irfft`` on
    the last axis, whose frequencies ``0..N`` alone determine a real
    result.  Each complex pass spreads the band of its axis onto the grid
    and transforms only the lines that can be nonzero: band positions on
    the axes still to do, every grid point on those done.  A skipped line
    is all zeros and would transform to zeros, and each line that is
    transformed holds the same entries as in the full transform, so the
    result is ``irfftn(half_spectrum, grid) * prod(grid)`` bit for bit.
    On a two-axis grid the first pass so runs over ``N_2 + 1`` lines,
    about an eighth of the grid's.
    """
    last = coeff.ndim - 1
    out = coeff[..., coeff.shape[last] // 2 :]
    for axis in range(last):
        spread = np.zeros(out.shape[:axis] + (grid[axis],) + out.shape[axis + 1 :], complex)
        spread[(slice(None),) * axis + (positions[axis],)] = out
        out = np.fft.ifft(spread, axis=axis)
    out = np.fft.irfft(out, grid[last], axis=last)
    out *= math.prod(grid)
    return out


def samples_to_trigpoly(values: np.ndarray, degree) -> TrigPoly:
    """Recover coefficients up to ``degree`` from uniform grid samples.

    The grid must resolve the claimed band: ``G_j >= 2 N_j + 1``.

    The forward transform runs as 1-d passes, last axis first, as
    ``np.fft.fftn`` orders them, and each pass keeps only the band
    positions of its axis.  The later passes so skip the lines whose
    results would be thrown away, and each line that is transformed holds
    the same entries as in the full transform, so the coefficients are
    those of ``fftn(values)[band] / prod(grid)`` bit for bit.
    """
    values = spec = np.asarray(values)
    degree = _require_ints("degree", degree)
    positions = _spectrum_positions(degree, values.shape)
    for axis in reversed(range(values.ndim)):
        spec = np.fft.fft(spec, axis=axis).take(positions[axis], axis=axis)
    return TrigPoly(degree, spec / math.prod(values.shape))


# ---------------------------------------------------------------------------
# kernels


def fejer(m: int, x) -> Union[float, np.ndarray]:
    """Mean-one Fejer kernel of order ``m``: value ``m`` at 0, ``>= 0``.

    ``fejer(1, .) == 1``; the coefficient of frequency ``k`` is
    ``max(1 - |k|/m, 0)``, so the degree is ``m - 1``.  The closed form is
    this kernel only for integer ``m``, so other orders are refused.
    """
    m = _require_int("kernel order", m, 1)
    xa = _finite_array("sample points", x)
    s = np.sin(xa / 2.0)
    near = np.abs(s) < 1e-9
    s_safe = np.where(near, 1.0, s)
    vals = np.where(
        near, float(m), np.sin(m * xa / 2.0) ** 2 / (m * s_safe**2)
    )
    return _like(x, vals)


def vp_power_kernel(n: int, r, alpha, x) -> Union[float, np.ndarray]:
    """Tapered power kernel: coefficient ``|k|^r e^(i sgn(k) alpha pi/2)``
    up to ``n``, linearly tapered to zero at ``2n``."""
    _require_int("kernel order", n, 1)
    r = _finite("kernel smoothness r", r)
    xa = _finite_array("sample points", x)
    phase = _finite("phase alpha", alpha) * math.pi / 2.0
    out = np.ones_like(xa)
    for k, w in zip(range(1, 2 * n), vp_multiplier(n, np.arange(1, 2 * n))):
        out = out + 2.0 * w * k ** r * np.cos(k * xa + phase)
    return _like(x, out)


def bernoulli_kernel(r, alpha, x, truncation: int) -> Union[float, np.ndarray]:
    """Partial sum of ``1 + 2 sum_k k^(-r) cos(kx - alpha pi/2)``.

    For ``r > 1`` the tail beyond ``truncation`` is bounded by
    ``2 truncation^(1-r)/(r-1)``; for ``r > 0`` summation by parts bounds it
    by ``~ truncation^(-r)/|sin(x/2)|`` away from the lattice points.
    """
    _require_int("truncation", truncation, 1)
    r = _finite("kernel smoothness r", r)
    if not r > 0:
        raise ValidationError("kernel smoothness r must be positive")
    xa = _finite_array("sample points", x)
    phase = _finite("phase alpha", alpha) * math.pi / 2.0
    out = np.ones_like(xa)
    chunk = 2048
    for start in range(1, truncation + 1, chunk):
        k = np.arange(start, min(start + chunk, truncation + 1), dtype=float)
        out = out + 2.0 * (np.cos(np.multiply.outer(xa, k) - phase) * k ** -r).sum(
            axis=-1
        )
    return _like(x, out)


# ---------------------------------------------------------------------------
# coefficient operators


def vp_multiplier(m: int, k) -> Union[float, np.ndarray]:
    """Taper weight: 1 on ``|k| <= m``, linear to 0 at ``|k| = 2m``.

    The weight is ``(2m - |k|) / m`` clipped to ``[0, 1]``, which is exactly
    1.0 wherever ``|k| <= m``.  When every ``|k|`` is at most ``m``, compared
    as Python numbers, the weights are ones without that arithmetic, so
    ``m`` is never made a float and no order is too large.
    """
    if not 1 <= _require_type("taper order", m, numbers.Real) < math.inf:
        raise ValidationError(f"taper order must be finite and >= 1, got {m}")
    ka = np.abs(_finite_array("frequencies", k))
    if ka.size and not float(ka.max()) <= m:
        return _like(k, np.clip((2 * m - ka) / m, 0.0, 1.0))
    return _like(k, np.ones(ka.shape))


def vp_operator(f: TrigPoly, N: Sequence[int]) -> TrigPoly:
    """Taper operator: multiply coefficients by the per-axis taper weights.

    Reproduces any polynomial of degree ``<= N`` exactly; output degree is
    ``min(deg f, 2N - 1)`` per axis.  The band of ``f.coeff`` is multiplied
    axis by axis by the weights of :func:`vp_multiplier`, computed once
    per pair ``(N_j, D_j)`` of taper degree and output degree (at most 256
    pairs are kept), and the product, a fresh array, becomes the result's
    coefficients without another copy.
    At the degrees ``N_j = max(1, floor(2^(beta_j m)))`` of
    :func:`scale_degrees`, exact in integers for an exact ``r`` and by the
    float route for a float one, and computed once per pair ``(r, m)``,
    this is :func:`vp_at_scale`.  :func:`dyadic_block` subtracts the
    coarser taper output in place from the finer one, which it owns.
    """
    return _taper(f, _require_ints("taper degree", N, 1))


def _taper(f: TrigPoly, N: tuple) -> TrigPoly:
    """:func:`vp_operator` at a validated degree tuple ``N`` of ints.  The
    weights of each axis come from :func:`_taper_weights`; :func:`_along`
    multiplies into a fresh array, so no result shares memory with them."""
    _require_type("f", f, TrigPoly)
    if f.d != len(N):
        raise ValidationError("degree vector dimension mismatch")
    out_deg = tuple(min(Nf, 2 * Nj - 1) for Nf, Nj in zip(f.degree, N))
    coeff = f.coeff[_band(out_deg, f.degree)]
    for axis, (Nj, Dj) in enumerate(zip(N, out_deg)):
        coeff = _along(coeff, axis, _taper_weights(Nj, Dj))
    return TrigPoly._of(out_deg, coeff)


# Every memo of the package follows one rule (mixed_norm._kept):
# lru_cache(maxsize=256, typed=True), keyed by its arguments and their types.
@functools.lru_cache(maxsize=256, typed=True)
def _taper_weights(Nj: int, Dj: int) -> np.ndarray:
    """The :func:`vp_multiplier` weights of taper degree ``Nj`` at the
    frequencies ``-Dj..Dj``, computed once per pair of ints and kept
    read-only."""
    weights = vp_multiplier(Nj, np.arange(-Dj, Dj + 1, dtype=float))
    weights.setflags(write=False)
    return weights


# A degree floor(2^(a/b)) is computed on integers 2^a of at most this many
# bits; a larger one is refused rather than left to run for minutes.  One
# root at the limit takes about 0.1 s, and the cost grows with the square
# of the bits.
_POW2_BITS = 1 << 18


def _floor_pow2(a: int, b: int) -> int:
    """Exact ``floor(2^(a/b))`` for ints ``a >= 0`` and ``b >= 1``, the
    integer ``b``-th root of ``2^a``: the degree
    ``N_j = max(1, floor(2^(beta_j m)))`` of :func:`scale_degrees` for an
    exact ``r``, with ``beta_j m = a/b``, at every scale within the limit
    below (a float ``r`` takes :func:`_float_floor_pow2`).

    Newton's iteration in integers, from a start above the root, falls
    strictly until it reaches the root and then stops falling.  The start is
    the float estimate with a relative margin of ``2^-40`` while the root
    has fewer than 900 bits, and otherwise one more than the root at half
    the bits, shifted back; either way a few steps reach the root.  A power
    ``2^a`` of more than ``2^18`` bits is refused with ``ValidationError``.
    """
    if a > _POW2_BITS:
        a_text, b_text = _bounded_int(a), _bounded_int(b)
        raise ValidationError(
            f"exact degree floor(2^({a_text}/{b_text})) needs a power of {a_text} bits, "
            f"over the limit of {_POW2_BITS}"
        )
    q, rem = divmod(a, b)
    if rem == 0:
        return 1 << q
    if q == 0:
        return 1
    if q < 900:
        # The float power is within 2^-43 of 2^(a/b), relatively, so the
        # root lies in [low, x - 1]; equal ends leave no step to take.
        t = 2.0 ** (a / b)
        x, low = int(t * (1 + 2.0**-40)) + 1, int(t * (1 - 2.0**-40))
        if low == x - 1:
            return low
    else:
        s = q // 2
        x = (_floor_pow2(a - s * b, b) + 1) << s
    n = 1 << a
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


def _bounded_int(n: int) -> str:
    """The int ``n >= 0`` for a message: in full up to 20 digits, otherwise
    by its number of digits, which ``str`` would refuse past 4300."""
    if n < 10**20:
        return str(n)
    digits = int(n.bit_length() * math.log10(2)) + 1
    while 10 ** (digits - 1) > n:
        digits -= 1
    while 10**digits <= n:
        digits += 1
    return f"<a {digits}-digit integer>"


def _float_floor_pow2(beta: float, m: int) -> int:
    """``floor(2.0 ** (beta * m) + 1e-12)``, the degree of a float ``beta_j``
    at scale ``m``.  Where the power overflows it is the exact
    :func:`_floor_pow2` of the exponent, and for an ``m`` past the float
    range that exponent is the exact product ``Fraction(beta) * m``."""
    try:
        exponent = beta * m
    except OverflowError:
        exponent = Fraction(beta) * m
    try:
        return int(math.floor(2.0**exponent + 1e-12))
    except OverflowError:
        return _floor_pow2(*exponent.as_integer_ratio())


def scale_degrees(r, m: int) -> tuple:
    """Per-axis taper degrees ``N_j = max(1, floor(2^(beta_j m)))`` at scale
    ``m``, with ``beta`` the growth weights of :func:`dyadic_beta`.

    For an exact ``r`` each ``beta_j m`` is a reduced ratio of ints and the
    floor is exact in integers (:func:`_floor_pow2`) at every scale whose
    power ``2^a`` has at most ``2^18`` bits; finer scales are refused with
    ``ValidationError``.  With a float entry ``beta`` is float and the floor
    is that of :func:`_float_floor_pow2`.

    The degrees are kept by the package's memo rule (:func:`_kept`).
    """
    m = _require_int("scale index", m)
    return _kept(_scale_degrees, m, *_entries("smoothness vector", r))


@functools.lru_cache(maxsize=256, typed=True)
def _scale_degrees(m: int, *r) -> tuple:
    """The degrees of :func:`scale_degrees` for an int ``m >= 0`` and the
    entries of ``r``."""
    rr = smoothness_vector(r)
    ratios = _beta_ratios(rr, m)
    if ratios is not None:
        return tuple(max(1, _floor_pow2(a, b)) for a, b in ratios)
    return tuple(max(1, _float_floor_pow2(bj, m)) for bj in dyadic_beta(rr))


def vp_at_scale(f, r, m: int) -> TrigPoly:
    """Taper operator at dyadic scale ``m`` of the smoothness vector ``r``."""
    return _taper(f, scale_degrees(r, m))


def dyadic_block(f, r, m: int) -> TrigPoly:
    """Dyadic detail block: scale-``m`` minus scale-``m-1`` taper output.

    ``m = 0`` returns the coarsest taper output itself, so the blocks
    telescope: summing blocks 0..M reproduces the scale-M taper output.
    """
    if m == 0:
        return vp_at_scale(f, r, 0)
    fine = vp_at_scale(f, r, m)
    coarse = vp_at_scale(f, r, m - 1)
    # fine - coarse, written into fine.coeff, which fine alone holds (_taper
    # makes a fresh array).  Scale degrees do not decrease in m, so fine has
    # the joined degree, and with _binary's complex multiply by the int sign
    # this is its result, bit for bit, without its zero fill and copy.
    assert all(map(operator.le, coarse.degree, fine.degree))
    fine.coeff[_band(coarse.degree, fine.degree)] += -1 * coarse.coeff
    return fine


def _weyl(t: TrigPoly, axis: int, r, alpha, sign: int) -> TrigPoly:
    """Multiply frequency ``k != 0`` along a 1-based axis by
    ``|k|^(sign r) e^(i sign sgn(k) alpha pi/2)``; the zero frequency goes
    to zero for ``r > 0`` and keeps its phase factor 1 for ``r = 0``."""
    _require_type("t", t, TrigPoly)
    if _require_int("axis", axis, 1) > t.d:
        raise ValidationError(f"axis {axis} outside 1..{t.d}")
    r = _finite("Weyl order", r)
    if r < 0:
        raise ValidationError(f"Weyl order must be finite and >= 0, got {r}")
    alpha = _finite("phase alpha", alpha)
    mult = _weyl_multiplier(t.degree[axis - 1], r, alpha, sign)
    return TrigPoly._of(t.degree, _along(t.coeff, axis - 1, mult))


@functools.lru_cache(maxsize=256, typed=True)
def _weyl_multiplier(N: int, r: float, alpha: float, sign: int) -> np.ndarray:
    """The multiplier of :func:`_weyl` at the frequencies ``-N..N`` of one
    axis, for a validated order ``r`` and phase ``alpha``: computed once
    per key and kept read-only.  Equal floats give equal bits here: the
    one pair of equal floats with different bits, ``0.0`` and ``-0.0``,
    gives the same bytes as ``r`` (a power ``x**0`` is 1) and as ``alpha``
    (the phase ``exp(+-0i)`` has real part 1, and ``mag * phase`` adds
    ``+0`` to its imaginary part)."""
    k = np.arange(-N, N + 1, dtype=float)
    phase = np.exp(sign * 1j * np.sign(k) * alpha * math.pi / 2.0)
    mag = np.full(len(k), 0.0 if r > 0 else 1.0)
    nonzero = k != 0
    mag[nonzero] = np.abs(k[nonzero]) ** (sign * r)
    mult = mag * phase
    mult.setflags(write=False)
    return mult


def weyl_derivative(t: TrigPoly, axis: int, r, alpha) -> TrigPoly:
    """Fractional derivative along one axis as a coefficient multiplier.

    Frequency ``k`` picks up ``|k|^r e^(i sgn(k) alpha pi/2)``; the zero
    frequency is annihilated for ``r > 0`` and kept for ``r = 0`` (so
    ``r = 0, alpha = 0`` is the identity).  ``axis`` is 1-based; ``r`` must
    be finite and ``>= 0`` and ``alpha`` finite.
    """
    return _weyl(t, axis, r, alpha, 1)


def weyl_integral(t: TrigPoly, axis: int, r, alpha) -> TrigPoly:
    """Inverse of :func:`weyl_derivative` on the zero-mean band.

    Frequency ``k != 0`` picks up ``|k|^(-r) e^(-i sgn(k) alpha pi/2)``;
    the zero frequency goes to zero for ``r > 0`` and is kept for ``r = 0``.
    """
    return _weyl(t, axis, r, alpha, -1)


# ---------------------------------------------------------------------------
# norms and inequality ratios


def trig_lp_norm(t: TrigPoly, p) -> float:
    """Mixed norm with normalized measure.

    For ``p = (2, ..., 2)`` it is the l2 norm of the coefficients
    (Parseval, :func:`_l2_norm`), and no grid is built.  Other exponents
    are taken by quadrature on the grid of :func:`_norm_grid`: at least
    ``8 * max(N, 1) + 1`` points per axis, with the coefficients first
    moved into range by :func:`_scaled` and the norm scaled back; the grid's
    samples are reduced by :func:`_grid_norms`, in blocks of columns on a
    grid of more than ``_BLOCK`` entries, so the norm holds the samples and
    one block of magnitudes, never a second grid.  The quadrature is exact
    whenever the exponents are even integers at most 8, each a multiple of
    the one before (equal ones, say): each inner norm raised to the next
    exponent is then itself a polynomial the grid resolves, so any finer
    grid gives the same value up to rounding.
    Approximate otherwise.  For a real polynomial and ``p = inf`` the grid
    maximum is at least
    ``prod_j cos(pi N_j / G_j) >= cos(pi / 8)^d`` of the true
    maximum: along each axis, ``arccos(t / max|t|)`` moves at rate at most
    ``N_j`` (Bernstein's inequality), and a grid point lies within
    ``pi / G_j``.
    """
    _require_type("t", t, TrigPoly)
    p = as_exponents(p)
    if p.d != t.d:
        raise ValidationError("exponent vector dimension mismatch")
    if _is_flat_two(p):
        return _l2_norm(t.coeff)
    t, e = _scaled(t)
    return _ldexp(_grid_norms(t.values(_norm_grid(t.degree)), p)[0], e)


def _l2_norm(coeff: np.ndarray) -> float:
    """By Parseval, the L2 norm with normalized measure of the polynomial
    with coefficients ``coeff``: their l2 norm, under the range policy of
    :func:`anisowidth.mixed_norm.mixed_norm` (inf where it overflows)."""
    coeff, e = _prescaled_parts(coeff)
    return _ldexp(float(_magnitude_norm(np.abs(coeff).ravel(), _FLAT_2)), e)


def _scaled(t: TrigPoly) -> tuple:
    """``(t * 2**-e, e)`` with ``e`` from :func:`_prescaled_parts`: ``t``
    itself when its largest part lies in ``[2**-300, 2**300]``, so that no
    grid evaluation over- or underflows."""
    coeff, e = _prescaled_parts(t.coeff)
    return (t, 0) if e == 0 else (TrigPoly(t.degree, coeff), e)


def _prescaled_parts(coeff: np.ndarray) -> tuple:
    """``(coeff * 2**-e, e)`` with ``e`` chosen by :func:`_prescaled` from
    the real and imaginary parts of ``coeff``.  The scale is picked before
    any magnitude is taken, so a finite coefficient whose magnitude exceeds
    the float range is scaled, not refused as non-finite."""
    parts, e = _prescaled(np.ascontiguousarray(coeff, dtype=complex).view(np.float64))
    return parts.view(complex), e


@functools.lru_cache(maxsize=256, typed=True)
def _norm_grid(degree: tuple) -> tuple:
    """The quadrature grid of :func:`trig_lp_norm`: per axis, the least
    5-smooth length ``2^a 3^b 5^c`` of at least ``8 * max(N, 1) + 1``
    points (100 for ``N = 12``, 540 for ``N = 64``), computed once per
    degree tuple.  pocketfft runs such lengths without Bluestein's
    algorithm, which it needs for a length with a large prime factor
    (``8N + 1`` often has one: 97, 257, 1761 = 3 * 587)."""
    return tuple(_smooth_length(8 * max(N, 1) + 1) for N in degree)


def _smooth_length(n: int) -> int:
    """The least ``2^a 3^b 5^c >= n``: over each ``3^b 5^c`` below the best
    so far, the least power of two that lifts it to ``n``."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _norms(t: TrigPoly, *ps: ExponentVector) -> list:
    """The :func:`trig_lp_norm` of ``t`` for each exponent vector of ``ps``,
    for a ``t`` that :func:`_scaled` leaves as it is: a ``(2, ..., 2)`` norm
    from the coefficients, the others from one grid evaluation, made only
    when one of them needs it, through :func:`_grid_norms`."""
    on_grid = [p for p in ps if not _is_flat_two(p)]
    grid = iter(_grid_norms(t.values(_norm_grid(t.degree)), *on_grid) if on_grid else ())
    norms = []
    for p in ps:
        norms.append(_l2_norm(t.coeff) if _is_flat_two(p) else next(grid))
    return norms


def _degree_power(degree, exponents) -> float:
    """``prod_j max(N_j, 1)^(e_j)`` over degrees or grid sizes, folded in
    axis order from 1.0."""
    factor = 1.0
    for N, e in zip(degree, exponents):
        factor *= float(max(N, 1)) ** e
    return factor


def nikolskii_ratio(t: TrigPoly, p, q) -> float:
    """Norm-gap ratio ``||t||_q / (||t||_p prod N^((1/p - 1/q)_+))``.

    Bounded over all polynomials of a given degree; degree-0 axes count
    as ``N = 1``.  The norms are those of :func:`trig_lp_norm`, taken of
    ``t`` moved into range by :func:`_scaled` (the ratio does not change
    with scale), by :func:`_norms`: a ``(2, ..., 2)`` norm from the
    coefficients, any other from one grid evaluation, made once and only
    when one of them needs it.  When both need it, :func:`_grid_norms`
    takes both from the same magnitudes: all at once on a grid of at most
    ``_BLOCK`` entries, block by block of columns on a larger one, each
    block reduced for both before the next, so the two norms hold the
    samples and one block, never a second grid.
    """
    _require_type("t", t, TrigPoly)
    p = as_exponents(p)
    q = as_exponents(q)
    if not (p.d == q.d == t.d):
        raise ValidationError("dimension mismatch among t, p, q")
    np_val, nq_val = _norms(_scaled(t)[0], p, q)
    if np_val == 0:
        raise ValidationError("zero polynomial has no norm ratio")
    gaps = [max(float(rp) - float(rq), 0.0) for rp, rq in zip(p.recip, q.recip)]
    return nq_val / (np_val * _degree_power(t.degree, gaps))


def bernstein_ratio(t: TrigPoly, r, alpha, p) -> float:
    """Derivative-growth ratio ``||D^r_alpha t||_p / (||t||_p prod N^r)``.

    Requires ``alpha_j = 0`` on every axis with ``r_j = 0`` (the mixed
    derivative is only defined under that hypothesis).  Both norms are
    those of :func:`trig_lp_norm`, taken of ``t`` moved into range by
    :func:`_scaled` (the ratio does not change with scale) and of its
    derivative; ``||t||_p`` comes from :func:`_norms`, which does not
    check the range of the moved ``t`` again.
    """
    _require_type("t", t, TrigPoly)
    p = as_exponents(p)
    r = _entries("derivative orders r", r)
    alpha = _entries("phases alpha", alpha)
    if not (len(r) == len(alpha) == t.d == p.d):
        raise ValidationError("dimension mismatch among t, r, alpha, p")
    r = [_finite("derivative order", rj) for rj in r]
    alpha = [_finite("phase alpha", aj) for aj in alpha]
    for j, (rj, aj) in enumerate(zip(r, alpha)):
        if rj == 0 and aj != 0:
            raise ValidationError(
                f"axis {j + 1}: phase must vanish where the order is zero"
            )
    t = _scaled(t)[0]
    (base,) = _norms(t, p)
    if base == 0:
        raise ValidationError("zero polynomial has no norm ratio")
    dt = t
    for j, (rj, aj) in enumerate(zip(r, alpha)):
        if rj != 0:
            dt = weyl_derivative(dt, j + 1, rj, aj)
    num = trig_lp_norm(dt, p)
    return num / (base * _degree_power(t.degree, r))


def fejer_shift_sum_check(m: int, h: float) -> float:
    """Max over 1024 grid points x of ``sum_l fejer(m, x - l h) / m`` for
    shifts ``l h`` in one period.  Requires ``m h`` inside
    ``SHIFT_SUM_WINDOW``; the value is bounded by a constant depending only
    on the window."""
    m = _require_int("kernel order", m, 1)
    h = _finite("shift step h", h)
    prod = m * h
    if not (SHIFT_SUM_WINDOW[0] <= prod <= SHIFT_SUM_WINDOW[1]):
        raise ValidationError(
            f"m*h = {prod} outside admissible window {SHIFT_SUM_WINDOW}"
        )
    shifts = np.arange(0, int(math.floor(2 * math.pi / h)) + 1) * h
    x = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    total = np.zeros_like(x)
    for lh in shifts:
        total += fejer(m, x - lh)
    return float(total.max()) / m


def _half_spectra(values: np.ndarray, axis: int) -> list:
    """``rfft`` along the 0-based ``axis`` of the real samples, or of the
    real and the imaginary part of complex ones."""
    parts = [values] if np.isrealobj(values) else [values.real, values.imag]
    return [np.fft.rfft(part, axis=axis) for part in parts]


def _difference(spectra: list, h: float, axis: int, order: int, G: int) -> np.ndarray:
    """Samples of the iterated forward difference ``Delta_h^order`` on ``G``
    points along the 0-based ``axis``, from the :func:`_half_spectra` of the
    samples: the multiplier ``(e^(i k h) - 1)^order`` on ``k = 0..G // 2``,
    then ``irfft``; real for one spectrum, complex for two.  Exact for
    samples of a polynomial the grid resolves, for any finite real step
    ``h``."""
    mult = _difference_multiplier(np.arange(G // 2 + 1), h, order)
    parts = [np.fft.irfft(_along(spec, axis, mult), G, axis=axis) for spec in spectra]
    return parts[0] if len(parts) == 1 else _complex(*parts)


def _difference_multiplier(k: np.ndarray, h: float, order: int) -> np.ndarray:
    """``(e^(i k h) - 1)^order``: the multiplier of ``Delta_h^order`` at the
    integer frequencies ``k``."""
    return (np.exp(1j * h * k) - 1.0) ** order


def _grid_norms(values: np.ndarray, *ps: ExponentVector) -> list:
    """The normalized-measure mixed norms of grid samples, one for each
    exponent vector of ``ps``.

    The reductions, and with them the bits, are those of
    ``mixed_norm(Tensor.from_array(np.abs(values)), p)``: the magnitudes are
    taken in Fortran order, as ``Tensor.array`` lays them out, so each plan
    step reduces every axis-0 fibre contiguously, and the range policy of
    :func:`_prescaled` is decided once, from the grid's largest magnitude,
    before any reduction.  A grid of one axis or of at most ``_BLOCK``
    entries takes all its magnitudes at once, and they serve every vector.
    A larger grid is reduced in blocks of whole columns along its last
    axis, ``_BLOCK`` entries or one column each: the first plan step of
    every vector reduces each block's magnitudes into that vector's
    partials, a Fortran-ordered array of shape ``values.shape[1:]``, which
    the remaining steps reduce as a whole.  So a norm holds the samples and
    one block, never a second grid; only the route of :func:`_rescue` (a
    norm below ``2**-400``, which after the range scaling only a grid of
    zeros has) takes the whole grid's magnitudes again.
    """
    # plain loops: a comprehension's frame would cost a one-block norm
    # about a third of a microsecond
    norms = []
    if values.ndim == 1 or values.size <= _BLOCK:
        arr, e = _prescaled(np.abs(values, order="F"))
        for p in ps:
            norms.append(_magnitude_norm(arr, p))
    else:
        width = max(1, _BLOCK // (values.size // values.shape[-1]))  # columns
        blocks = [np.s_[..., j : j + width] for j in range(0, values.shape[-1], width)]
        if np.isrealobj(values):
            tops = [values.max(), -values.min()]
        else:
            tops = [np.abs(values[b]).max() for b in blocks]
        e = _prescaled(np.array(tops))[1]
        partials = [np.empty(values.shape[1:], order="F") for _ in ps]
        for b in blocks:
            mags = np.abs(values[b], order="F")
            if e:
                np.ldexp(mags, -e, out=mags)
            for p, partial in zip(ps, partials):
                partial[b] = _reduce_axis0(mags, p.plan[0])
        for p, r in zip(ps, partials):
            for step in p.plan[1:]:
                r = _reduce_axis0(r, step)
            if not _in_range(r):
                r = _rescue(_prescaled(np.abs(values, order="F"))[0], p, r)
            norms.append(r)
    for i, p in enumerate(ps):
        weight = _degree_power(values.shape, [-float(recip) for recip in p.recip])
        norms[i] = _ldexp(float(norms[i]), e) * weight
    return norms


def _class_args(t: TrigPoly, r, p) -> tuple:
    """The smoothness vector and exponents of a class, checked against ``t``."""
    _require_type("t", t, TrigPoly)
    p = as_exponents(p)
    rr = smoothness_vector(r)
    if not (p.d == len(rr) == t.d):
        raise ValidationError("dimension mismatch among t, r, p")
    return rr, p


def smoothness_margin(t: TrigPoly, r, p) -> float:
    """Max over axes and steps of ``||Delta^(l_j)_h t||_p / h^(r_j)``.

    ``l_j = floor(r_j) + 1`` and ``h`` runs over ``pi/3, pi/7, pi/16,
    pi/40``.  A value at most 1 witnesses membership in the smoothness
    class on the sampled steps.  An order ``r_j`` for which ``(pi/40)**r_j``
    is below the normal float range is refused with ``ValidationError``.
    The norms are those of :func:`trig_lp_norm`, taken of ``t`` moved into
    range by :func:`_scaled` and scaled back.  For ``p = (2, ..., 2)`` they
    come from the difference coefficients ``c_k (e^(i k_j h) - 1)^(l_j)``
    along axis ``j``, with no grid.  Other exponents take them on the
    quadrature grid of :func:`_norm_grid`, from one evaluation of ``t`` and
    one ``rfft`` per axis (two for a complex ``t``: real and imaginary part)
    for all four steps; each difference goes back through
    :func:`_difference` and is reduced by :func:`_grid_norms`, in blocks of
    columns on a grid of more than ``_BLOCK`` entries, so beside the
    samples, their spectra and the difference a norm holds one block of
    magnitudes, never another grid.
    """
    rr, p = _class_args(t, r, p)
    for j, rj in enumerate(rr):
        # The finest step's power must stay a normal float: above r_j of
        # about 278.4 it is not, and from about 292.6 on it is 0, so the
        # quotient below would divide by 0.
        if _MARGIN_STEPS[-1] ** float(rj) < sys.float_info.min:
            raise ValidationError(
                f"smoothness order r_{j} = {rj} is too large: (pi/40)**r_{j} "
                "is below the normal float range"
            )
    t, e = _scaled(t)
    vals = None if _is_flat_two(p) else t.values(_norm_grid(t.degree))
    worst = 0.0
    for j, rj in enumerate(rr):
        lj = int(math.floor(float(rj))) + 1
        if vals is None:
            k = np.arange(-t.degree[j], t.degree[j] + 1)
            diff = (_along(t.coeff, j, _difference_multiplier(k, h, lj)) for h in _MARGIN_STEPS)
            norms = (_l2_norm(c) for c in diff)
        else:
            spectra = _half_spectra(vals, j)
            diff = (_difference(spectra, h, j, lj, vals.shape[j]) for h in _MARGIN_STEPS)
            norms = (_grid_norms(values, p)[0] for values in diff)
        for h, norm in zip(_MARGIN_STEPS, norms):
            worst = max(worst, norm / float(h) ** float(rj))
    return _ldexp(worst, e)


@dataclass(frozen=True)
class RateResult:
    slope: float
    errors: tuple


def approximation_rate(
    f: TrigPoly, r, p, m_max: int = 8, check_membership: bool = True
) -> RateResult:
    """Empirical decay slope of taper-approximation errors in scale.

    Computes ``e_m = ||f - V_m f||_p`` for the dyadic taper outputs of the
    smoothness vector ``r`` and fits ``log2 e_m`` against ``m >= 2`` by
    least squares (:func:`_slope`), over the scales whose error exceeds
    ``1e-13``.  When fewer than two do (the taper reproduces ``f`` from
    scale 3 on, up to rounding) the slope is ``-inf``.  With
    ``check_membership``, a finite-difference scan must witness ``f`` in
    the unit class first.
    """
    rr, p = _class_args(f, r, p)
    m_max = _require_int("m_max", m_max, 3)
    if check_membership:
        margin = smoothness_margin(f, rr, p)
        if margin > 1.0 + 1e-6:
            raise ValidationError(
                f"function is not in the unit smoothness class (margin {margin:.6g})"
            )
    errors = [trig_lp_norm(f - vp_at_scale(f, rr, m), p) for m in range(m_max + 1)]
    ms = [m for m in range(2, m_max + 1) if errors[m] > 1e-13]
    slope = -math.inf
    if len(ms) >= 2:
        slope = _slope(ms, [math.log2(errors[m]) for m in ms])
    return RateResult(slope=slope, errors=tuple(errors))


def _slope(xs: list, ys: list) -> float:
    """Least-squares slope of the points ``(x_i, y_i)``: distinct integers
    ``x_i`` (at least two, ``|x_i| < 2^12``) and finite floats ``y_i``.

    The slope is ``sum_i w_i y_i / D`` with the integer weights
    ``w_i = n x_i - sum x`` and the integer ``D = sum_i w_i x_i``, so only
    the numerator rounds.  Each ``y_i`` is split into two halves of at
    most 26 bits (Veltkamp), whose products with ``w_i`` are exact, and
    ``math.fsum`` rounds their sum once: the slope is within two roundings
    of the exact one, whatever the cancellation.
    """
    n, sx = len(xs), sum(xs)
    w = [n * x - sx for x in xs]
    terms = []
    for wi, y in zip(w, ys):
        big = 134217729.0 * y  # 2**27 + 1
        hi = big - (big - y)
        terms += (wi * hi, wi * (y - hi))
    return math.fsum(terms) / sum(wi * x for wi, x in zip(w, xs))


# ---------------------------------------------------------------------------
# packaged test functions


def _cos_series_coeff(amplitudes: np.ndarray) -> np.ndarray:
    """Coefficients of ``sum_k a_k cos(k x)`` (index 0 of ``a`` unused)."""
    K = len(amplitudes) - 1
    coeff = np.zeros(2 * K + 1, dtype=complex)
    for k in range(1, K + 1):
        coeff[K + k] = amplitudes[k] / 2.0
        coeff[K - k] = amplitudes[k] / 2.0
    return coeff


def _power_amplitudes(K: int, r) -> np.ndarray:
    """Amplitudes ``a_k = k^(-r-1/2)`` for ``k = 1..K`` (``a_0 = 0``)."""
    amps = np.zeros(K + 1)
    for k in range(1, K + 1):
        amps[k] = float(k) ** (-(float(r) + 0.5))
    return amps


def _into_unit_class(t: TrigPoly, r, p) -> TrigPoly:
    """``t`` scaled to smoothness margin 0.95."""
    return t * (0.95 / smoothness_margin(t, r, p))


def decaying_series_1d(r, terms: int = 256, p=(2,)) -> TrigPoly:
    """Dense-spectrum probe ``c sum k^(-r-1/2) cos(kx)``, scaled into the
    unit class for the given norm."""
    rr = smoothness_vector((r,))[0]
    terms = _require_int("terms", terms, 1)
    t = TrigPoly((terms,), _cos_series_coeff(_power_amplitudes(terms, rr)))
    return _into_unit_class(t, (rr,), p)


def lacunary_1d(r, levels: int = 10, p=(2,)) -> TrigPoly:
    """Lacunary probe ``c sum_j 2^(-r j) cos(2^j x)`` in the unit class."""
    rr = smoothness_vector((r,))[0]
    K = 2 ** _require_int("levels", levels)
    amps = np.zeros(K + 1)
    for j in range(levels + 1):
        amps[2**j] = 2.0 ** (-float(rr) * j)
    t = TrigPoly((K,), _cos_series_coeff(amps))
    return _into_unit_class(t, (rr,), p)


def tensor_series_2d(r, terms=(96, 48), p=(2, 2)) -> TrigPoly:
    """Two-axis tensor-product probe in the unit class for ``r = (r_1, r_2)``."""
    rr = smoothness_vector(r)
    terms = _require_ints("terms", terms, 1)
    if len(rr) != 2 or len(terms) != 2:
        raise ValidationError("tensor probe is two-dimensional")
    axes = []
    for rj, K in zip(rr, terms):
        coeff = _cos_series_coeff(_power_amplitudes(K, rj))
        coeff[K] = 1.0
        axes.append(coeff)
    t = TrigPoly(terms, np.multiply.outer(axes[0], axes[1]))
    return _into_unit_class(t, rr, p)
