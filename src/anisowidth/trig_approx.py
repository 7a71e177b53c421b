"""Trigonometric kernels, smoothing operators, and approximation rates.

Periodic machinery on the d-torus: Fejer and de la Vallee Poussin kernels,
the taper operator they induce on coefficients, dyadic blocks driven by the
per-axis growth weights of a smoothness vector, fractional derivatives and
integrals as coefficient multipliers, and empirical approximation-rate
slopes for functions in anisotropic smoothness classes.

Function norms here use normalized measure (grid means), in contrast with
the counting-measure norms of :mod:`anisowidth.mixed_norm`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .mixed_norm import (
    ExponentVector,
    Tensor,
    ValidationError,
    as_exponents,
    mixed_norm,
)
from .exponents import dyadic_beta, smoothness_vector

__all__ = [
    "TrigPoly",
    "samples_to_trigpoly",
    "trigpoly_to_json",
    "trigpoly_from_json",
    "fejer",
    "vallee_poussin",
    "vp_power_kernel",
    "KernelSpec",
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
    "finite_difference",
    "RateResult",
    "approximation_rate",
    "decaying_series_1d",
    "lacunary_1d",
    "tensor_series_2d",
]

# admissible window for the kernel shift-sum bound: C1 <= m*h <= C2
SHIFT_SUM_WINDOW = (0.25, 8.0)


class TrigPoly:
    """Trigonometric polynomial with degree box ``|k_j| <= N_j``.

    ``coeff`` is a complex array of shape ``(2 N_1 + 1, ..., 2 N_d + 1)``
    with index ``i_j`` holding the coefficient of frequency
    ``k_j = i_j - N_j``.
    """

    __slots__ = ("degree", "coeff")

    def __init__(self, degree: Sequence[int], coeff=None):
        degree = tuple(int(N) for N in degree)
        if not degree or any(N < 0 for N in degree):
            raise ValidationError(f"bad degree vector {degree}")
        shape = tuple(2 * N + 1 for N in degree)
        if coeff is None:
            coeff = np.zeros(shape, dtype=complex)
        else:
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != shape:
                raise ValidationError(
                    f"coefficient array shape {coeff.shape} does not match degree {degree}"
                )
            coeff = coeff.copy()
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable; build a new one")

    @property
    def d(self) -> int:
        return len(self.degree)

    def c(self, k: Sequence[int]) -> complex:
        k = tuple(int(v) for v in k)
        if len(k) != self.d or any(abs(kj) > Nj for kj, Nj in zip(k, self.degree)):
            raise ValidationError(f"frequency {k} outside degree box {self.degree}")
        idx = tuple(kj + Nj for kj, Nj in zip(k, self.degree))
        return complex(self.coeff[idx])

    @classmethod
    def from_coeff_dict(cls, degree, entries: dict) -> "TrigPoly":
        out = cls(degree)
        for k, v in entries.items():
            k = (k,) if isinstance(k, int) else tuple(k)
            idx = tuple(kj + Nj for kj, Nj in zip(k, out.degree))
            if any(abs(kj) > Nj for kj, Nj in zip(k, out.degree)):
                raise ValidationError(f"frequency {k} outside degree box {degree}")
            out.coeff[idx] = v
        return out

    @classmethod
    def random_real(cls, degree, rng, scale: float = 1.0) -> "TrigPoly":
        """Random real-valued polynomial: conjugate-symmetric coefficients."""
        shape = tuple(2 * int(N) + 1 for N in degree)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flipped = raw[tuple(slice(None, None, -1) for _ in shape)]
        coeff = 0.5 * scale * (raw + np.conj(flipped))
        return cls(degree, coeff)

    def is_real(self, tol: float = 1e-12) -> bool:
        flipped = self.coeff[tuple(slice(None, None, -1) for _ in self.coeff.shape)]
        scale = max(1.0, float(np.abs(self.coeff).max()))
        return bool(np.abs(self.coeff - np.conj(flipped)).max() <= tol * scale)

    def pad(self, degree) -> "TrigPoly":
        degree = tuple(int(N) for N in degree)
        if len(degree) != self.d or any(b < a for a, b in zip(self.degree, degree)):
            raise ValidationError(f"cannot pad degree {self.degree} to {degree}")
        out = TrigPoly(degree)
        sl = tuple(
            slice(Nb - Na, Nb + Na + 1) for Na, Nb in zip(self.degree, degree)
        )
        out.coeff[sl] = self.coeff
        return out

    def restrict(self, degree) -> "TrigPoly":
        degree = tuple(int(N) for N in degree)
        if len(degree) != self.d or any(b > a for a, b in zip(self.degree, degree)):
            raise ValidationError(f"cannot restrict degree {self.degree} to {degree}")
        sl = tuple(
            slice(Na - Nb, Na + Nb + 1) for Na, Nb in zip(self.degree, degree)
        )
        return TrigPoly(degree, self.coeff[sl])

    def _binary(self, other, sign):
        if not isinstance(other, TrigPoly) or other.d != self.d:
            raise ValidationError("operands must be TrigPoly of equal dimension")
        degree = tuple(max(a, b) for a, b in zip(self.degree, other.degree))
        out = self.pad(degree)
        sl = tuple(
            slice(Nb - Na, Nb + Na + 1) for Na, Nb in zip(other.degree, degree)
        )
        out.coeff[sl] += sign * other.coeff
        return out

    def __add__(self, other):
        return self._binary(other, 1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __mul__(self, scalar):
        if isinstance(scalar, TrigPoly):
            raise ValidationError("only scalar multiplication is supported")
        return TrigPoly(self.degree, self.coeff * scalar)

    __rmul__ = __mul__

    def values(self, grid: Sequence[int]) -> np.ndarray:
        """Evaluate on the uniform grid ``x_j = 2 pi g_j / G_j``.

        Requires ``G_j >= 2 N_j + 1`` on every axis (no aliasing).
        """
        grid = tuple(int(G) for G in grid)
        if len(grid) != self.d:
            raise ValidationError("grid dimension mismatch")
        for G, N in zip(grid, self.degree):
            if G < 2 * N + 1:
                raise ValidationError(
                    f"grid {G} aliases a degree-{N} polynomial (need >= {2 * N + 1})"
                )
        spec = np.zeros(grid, dtype=complex)
        idx = tuple(
            (np.arange(-N, N + 1) % G) for N, G in zip(self.degree, grid)
        )
        spec[np.ix_(*idx)] = self.coeff
        return np.fft.ifftn(spec) * math.prod(grid)

    def real_values(self, grid) -> np.ndarray:
        vals = self.values(grid)
        return vals.real


def samples_to_trigpoly(values: np.ndarray, degree) -> TrigPoly:
    """Recover coefficients up to ``degree`` from uniform grid samples.

    The grid must resolve the claimed band: ``G_j >= 2 N_j + 1``.
    """
    values = np.asarray(values)
    degree = tuple(int(N) for N in degree)
    if values.ndim != len(degree):
        raise ValidationError("sample array dimension mismatch")
    for G, N in zip(values.shape, degree):
        if G < 2 * N + 1:
            raise ValidationError(
                f"grid {G} cannot resolve degree {N} (need >= {2 * N + 1})"
            )
    spec = np.fft.fftn(values) / math.prod(values.shape)
    idx = tuple(
        (np.arange(-N, N + 1) % G) for N, G in zip(degree, values.shape)
    )
    return TrigPoly(degree, spec[np.ix_(*idx)])


def trigpoly_to_json(t: TrigPoly) -> str:
    flat = t.coeff.reshape(-1)
    return json.dumps(
        {
            "degree": list(t.degree),
            "coeff": [[float(c.real), float(c.imag)] for c in flat],
        },
        sort_keys=True,
    )


def trigpoly_from_json(text: str) -> TrigPoly:
    try:
        obj = json.loads(text)
        degree = tuple(int(N) for N in obj["degree"])
        shape = tuple(2 * N + 1 for N in degree)
        flat = np.array([complex(re, im) for re, im in obj["coeff"]])
        return TrigPoly(degree, flat.reshape(shape))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"bad TrigPoly JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# kernels


def fejer(m: int, x) -> Union[float, np.ndarray]:
    """Mean-one Fejer kernel of order ``m``: value ``m`` at 0, ``>= 0``.

    ``fejer(1, .) == 1``; the coefficient of frequency ``k`` is
    ``max(1 - |k|/m, 0)``, so the degree is ``m - 1``.
    """
    if m < 1:
        raise ValidationError(f"kernel order must be >= 1, got {m}")
    xa = np.asarray(x, dtype=float)
    s = np.sin(xa / 2.0)
    near = np.abs(s) < 1e-9
    s_safe = np.where(near, 1.0, s)
    vals = np.where(
        near, float(m), np.sin(m * xa / 2.0) ** 2 / (m * s_safe**2)
    )
    return float(vals) if np.isscalar(x) else vals


def vallee_poussin(m: int, x) -> Union[float, np.ndarray]:
    """De la Vallee Poussin kernel: flat response up to ``m``, taper to ``2m``."""
    if m < 1:
        raise ValidationError(f"kernel order must be >= 1, got {m}")
    return 2.0 * fejer(2 * m, x) - fejer(m, x)


def vp_power_kernel(n: int, r, alpha, x) -> Union[float, np.ndarray]:
    """Tapered power kernel: coefficient ``|k|^r e^(i sgn(k) alpha pi/2)``
    up to ``n``, linearly tapered to zero at ``2n``."""
    if n < 1:
        raise ValidationError(f"kernel order must be >= 1, got {n}")
    xa = np.asarray(x, dtype=float)
    phase = float(alpha) * math.pi / 2.0
    out = np.ones_like(xa)
    for k in range(1, 2 * n):
        w = 1.0 if k <= n else (2 * n - k) / n
        out = out + 2.0 * w * k ** float(r) * np.cos(k * xa + phase)
    return float(out) if np.isscalar(x) else out


def bernoulli_kernel(r, alpha, x, truncation: int) -> Union[float, np.ndarray]:
    """Partial sum of ``1 + 2 sum_k k^(-r) cos(kx - alpha pi/2)``.

    For ``r > 1`` the tail beyond ``truncation`` is bounded by
    ``2 truncation^(1-r)/(r-1)``; for ``r > 0`` summation by parts bounds it
    by ``~ truncation^(-r)/|sin(x/2)|`` away from the lattice points.
    """
    if truncation < 1:
        raise ValidationError("truncation must be >= 1")
    if not float(r) > 0:
        raise ValidationError("kernel smoothness r must be positive")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    phase = float(alpha) * math.pi / 2.0
    out = np.ones_like(xa)
    chunk = 2048
    for start in range(1, truncation + 1, chunk):
        k = np.arange(start, min(start + chunk, truncation + 1), dtype=float)
        out = out + 2.0 * (np.cos(np.multiply.outer(xa, k) - phase) * k ** (-float(r))).sum(
            axis=-1
        )
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


@dataclass(frozen=True)
class KernelSpec:
    """Named kernel with its evaluation parameters.

    ``kind`` is one of ``fejer``, ``vallee_poussin``, ``vp_power``,
    ``bernoulli``.  ``order >= 1`` always; the Bernoulli evaluation
    additionally requires ``truncation >= 10 * order``.
    """

    kind: str
    order: int = 1
    r: float = 0.0
    alpha: float = 0.0
    truncation: int = 0

    def __post_init__(self):
        if self.kind not in ("fejer", "vallee_poussin", "vp_power", "bernoulli"):
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.order < 1:
            raise ValidationError("kernel order must be >= 1")
        if self.kind == "bernoulli" and self.truncation < 10 * self.order:
            raise ValidationError(
                "Bernoulli evaluation needs truncation >= 10 * order"
            )

    def evaluate(self, x):
        if self.kind == "fejer":
            return fejer(self.order, x)
        if self.kind == "vallee_poussin":
            return vallee_poussin(self.order, x)
        if self.kind == "vp_power":
            return vp_power_kernel(self.order, self.r, self.alpha, x)
        return bernoulli_kernel(self.r, self.alpha, x, self.truncation)


# ---------------------------------------------------------------------------
# coefficient operators


def vp_multiplier(m: int, k) -> Union[float, np.ndarray]:
    """Taper weight: 1 on ``|k| <= m``, linear to 0 at ``|k| = 2m``."""
    if m < 1:
        raise ValidationError(f"taper order must be >= 1, got {m}")
    ka = np.abs(np.asarray(k, dtype=float))
    w = np.clip((2 * m - ka) / m, 0.0, 1.0)
    return float(w) if np.isscalar(k) else w


def _as_trigpoly(f, N) -> TrigPoly:
    if isinstance(f, TrigPoly):
        return f
    values = np.asarray(f)
    for G, Nj in zip(values.shape, N):
        if G < 4 * Nj + 1:
            raise ValidationError(
                f"sampled input needs grid >= 4 N + 1 = {4 * Nj + 1}, got {G}"
            )
    degree = tuple(
        min(2 * Nj - 1, (G - 1) // 2) for G, Nj in zip(values.shape, N)
    )
    return samples_to_trigpoly(values, degree)


def vp_operator(f, N: Sequence[int]) -> TrigPoly:
    """Taper operator: multiply coefficients by the per-axis taper weights.

    Reproduces any polynomial of degree ``<= N`` exactly; output degree is
    at most ``2N - 1``.  Sampled input must come on a grid of at least
    ``4 N + 1`` points per axis.
    """
    N = tuple(int(v) for v in N)
    if any(v < 1 for v in N):
        raise ValidationError(f"taper degrees must be >= 1, got {N}")
    t = _as_trigpoly(f, N)
    if t.d != len(N):
        raise ValidationError("degree vector dimension mismatch")
    out_deg = tuple(min(Nf, 2 * Nj - 1) for Nf, Nj in zip(t.degree, N))
    t = t.restrict(out_deg)
    coeff = t.coeff
    for axis, (Nj, Dj) in enumerate(zip(N, out_deg)):
        k = np.arange(-Dj, Dj + 1)
        w = vp_multiplier(Nj, k)
        shape = [1] * t.d
        shape[axis] = len(k)
        coeff = coeff * w.reshape(shape)
    return TrigPoly(out_deg, coeff)


def _floor_pow2(exponent) -> int:
    """Exact floor of 2**exponent for Fraction input, float fallback."""
    if isinstance(exponent, Fraction):
        if exponent < 0:
            raise ValidationError("negative dyadic exponent")
        a, b = exponent.numerator, exponent.denominator
        if b == 1:
            return 2**a
        val = 2**a
        root = int(round(val ** (1.0 / b)))
        while (root + 1) ** b <= val:
            root += 1
        while root > 1 and root**b > val:
            root -= 1
        return root
    return int(math.floor(2.0 ** float(exponent) + 1e-12))


def scale_degrees(r, m: int) -> tuple:
    """Per-axis taper degrees ``N_j = floor(2^(beta_j m))`` at scale ``m``."""
    if m < 0:
        raise ValidationError("scale index must be >= 0")
    beta = dyadic_beta(r)
    return tuple(max(1, _floor_pow2(bj * m)) for bj in beta)


def vp_at_scale(f, r, m: int) -> TrigPoly:
    """Taper operator at dyadic scale ``m`` of the smoothness vector ``r``."""
    return vp_operator(f, scale_degrees(r, m))


def dyadic_block(f, r, m: int) -> TrigPoly:
    """Dyadic detail block: scale-``m`` minus scale-``m-1`` taper output.

    ``m = 0`` returns the coarsest taper output itself, so the blocks
    telescope: summing blocks 0..M reproduces the scale-M taper output.
    """
    if m < 0:
        raise ValidationError("block index must be >= 0")
    if m == 0:
        return vp_at_scale(f, r, 0)
    return vp_at_scale(f, r, m) - vp_at_scale(f, r, m - 1)


def weyl_derivative(t: TrigPoly, axis: int, r, alpha) -> TrigPoly:
    """Fractional derivative along one axis as a coefficient multiplier.

    Frequency ``k`` picks up ``|k|^r e^(i sgn(k) alpha pi/2)``; the zero
    frequency is annihilated for ``r > 0`` and kept for ``r = 0`` (so
    ``r = 0, alpha = 0`` is the identity).  ``axis`` is 1-based.
    """
    if not (1 <= axis <= t.d):
        raise ValidationError(f"axis {axis} outside 1..{t.d}")
    if float(r) < 0:
        raise ValidationError("derivative order must be >= 0")
    N = t.degree[axis - 1]
    k = np.arange(-N, N + 1, dtype=float)
    phase = np.exp(1j * np.sign(k) * float(alpha) * math.pi / 2.0)
    if float(r) == 0:
        mult = phase
    else:
        mag = np.abs(k) ** float(r)
        mag[N] = 0.0
        mult = mag * phase
    shape = [1] * t.d
    shape[axis - 1] = len(k)
    return TrigPoly(t.degree, t.coeff * mult.reshape(shape))


def weyl_integral(t: TrigPoly, axis: int, r, alpha) -> TrigPoly:
    """Inverse of :func:`weyl_derivative` on the zero-mean band.

    Frequency ``k != 0`` picks up ``|k|^(-r) e^(-i sgn(k) alpha pi/2)``;
    the zero frequency goes to zero for ``r > 0`` and is kept for ``r = 0``.
    """
    if not (1 <= axis <= t.d):
        raise ValidationError(f"axis {axis} outside 1..{t.d}")
    if float(r) < 0:
        raise ValidationError("integral order must be >= 0")
    N = t.degree[axis - 1]
    k = np.arange(-N, N + 1, dtype=float)
    phase = np.exp(-1j * np.sign(k) * float(alpha) * math.pi / 2.0)
    with np.errstate(divide="ignore"):
        mag = np.where(k == 0, 0.0 if float(r) > 0 else 1.0, np.abs(k) ** (-float(r)))
    mult = mag * phase
    shape = [1] * t.d
    shape[axis - 1] = len(k)
    return TrigPoly(t.degree, t.coeff * mult.reshape(shape))


# ---------------------------------------------------------------------------
# norms and inequality ratios


def trig_lp_norm(t: TrigPoly, p, oversample: int = 8) -> float:
    """Mixed norm with normalized measure, by grid quadrature.

    Uses ``oversample * max(N, 1) + 1`` points per axis.  Exact whenever
    every exponent is an even integer at most ``oversample`` (the integrand
    is then itself a polynomial the grid resolves); approximate otherwise.
    """
    p = as_exponents(p)
    if p.d != t.d:
        raise ValidationError("exponent vector dimension mismatch")
    if oversample < 4:
        raise ValidationError("oversample must be >= 4")
    grid = tuple(oversample * max(N, 1) + 1 for N in t.degree)
    return _grid_norm(t.values(grid), p)


def nikolskii_ratio(t: TrigPoly, p, q) -> float:
    """Norm-gap ratio ``||t||_q / (||t||_p prod N^((1/p - 1/q)_+))``.

    Bounded over all polynomials of a given degree; degree-0 axes count
    as ``N = 1``.
    """
    p = as_exponents(p)
    q = as_exponents(q)
    if not (p.d == q.d == t.d):
        raise ValidationError("dimension mismatch among t, p, q")
    np_val = trig_lp_norm(t, p)
    if np_val == 0:
        raise ValidationError("zero polynomial has no norm ratio")
    nq_val = trig_lp_norm(t, q)
    factor = 1.0
    for N, rp, rq in zip(t.degree, p.recip, q.recip):
        gap = max(float(rp) - float(rq), 0.0)
        factor *= float(max(N, 1)) ** gap
    return nq_val / (np_val * factor)


def bernstein_ratio(t: TrigPoly, r, alpha, p) -> float:
    """Derivative-growth ratio ``||D^r_alpha t||_p / (||t||_p prod N^r)``.

    Requires ``alpha_j = 0`` on every axis with ``r_j = 0`` (the mixed
    derivative is only defined under that hypothesis).
    """
    p = as_exponents(p)
    r = tuple(r)
    alpha = tuple(alpha)
    if not (len(r) == len(alpha) == t.d == p.d):
        raise ValidationError("dimension mismatch among t, r, alpha, p")
    for j, (rj, aj) in enumerate(zip(r, alpha)):
        if float(rj) < 0:
            raise ValidationError("derivative orders must be >= 0")
        if float(rj) == 0 and float(aj) != 0:
            raise ValidationError(
                f"axis {j + 1}: phase must vanish where the order is zero"
            )
    base = trig_lp_norm(t, p)
    if base == 0:
        raise ValidationError("zero polynomial has no norm ratio")
    dt = t
    for j, (rj, aj) in enumerate(zip(r, alpha)):
        if float(rj) == 0 and float(aj) == 0:
            continue
        dt = weyl_derivative(dt, j + 1, rj, aj)
    num = trig_lp_norm(dt, p)
    factor = 1.0
    for N, rj in zip(t.degree, r):
        factor *= float(max(N, 1)) ** float(rj)
    return num / (base * factor)


def fejer_shift_sum_check(m: int, h: float, grid_size: int = 1024) -> float:
    """Max over x of ``sum_l fejer(m, x - l h) / m`` for shifts ``l h`` in
    one period.  Requires ``m h`` inside ``SHIFT_SUM_WINDOW``; the value is
    bounded by a constant depending only on the window."""
    if m < 1:
        raise ValidationError("kernel order must be >= 1")
    prod = m * h
    if not (SHIFT_SUM_WINDOW[0] <= prod <= SHIFT_SUM_WINDOW[1]):
        raise ValidationError(
            f"m*h = {prod} outside admissible window {SHIFT_SUM_WINDOW}"
        )
    shifts = np.arange(0, int(math.floor(2 * math.pi / h)) + 1) * h
    x = np.linspace(0.0, 2 * math.pi, grid_size, endpoint=False)
    total = np.zeros_like(x)
    for lh in shifts:
        total += fejer(m, x - lh)
    return float(total.max()) / m


def finite_difference(values: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """Iterated forward difference ``Delta_h^order`` along a 1-based axis.

    Acts on uniform grid samples through the spectrum (multiplier
    ``(e^(i k h) - 1)^order``), so it is exact for samples of a polynomial
    the grid resolves, for any real step ``h``.
    """
    values = np.asarray(values)
    if not (1 <= axis <= values.ndim):
        raise ValidationError(f"axis {axis} outside 1..{values.ndim}")
    if order < 1:
        raise ValidationError("difference order must be >= 1")
    G = values.shape[axis - 1]
    spec = np.fft.fft(values, axis=axis - 1)
    k = np.fft.fftfreq(G) * G
    mult = (np.exp(1j * k * h) - 1.0) ** order
    shape = [1] * values.ndim
    shape[axis - 1] = G
    spec = spec * mult.reshape(shape)
    out = np.fft.ifft(spec, axis=axis - 1)
    if np.isrealobj(values):
        return out.real
    return out


def _grid_norm(values: np.ndarray, p: ExponentVector) -> float:
    raw = mixed_norm(Tensor.from_array(np.abs(values)), p)
    scale = 1.0
    for G, recip in zip(values.shape, p.recip):
        scale *= float(G) ** (-float(recip))
    return raw * scale


def smoothness_margin(t: TrigPoly, r, p, steps=(math.pi / 3, math.pi / 7, math.pi / 16, math.pi / 40)) -> float:
    """Max over axes and steps of ``||Delta^(l_j)_h t||_p / h^(r_j)``.

    ``l_j = floor(r_j) + 1``.  A value at most 1 witnesses membership in the
    smoothness class on the sampled steps.
    """
    p = as_exponents(p)
    rr = smoothness_vector(r)
    if not (p.d == len(rr) == t.d):
        raise ValidationError("dimension mismatch among t, r, p")
    grid = tuple(8 * max(N, 1) + 1 for N in t.degree)
    vals = t.values(grid)
    if t.is_real():
        vals = vals.real
    worst = 0.0
    for j, rj in enumerate(rr):
        lj = int(math.floor(float(rj))) + 1
        for h in steps:
            diff = finite_difference(vals, h, j + 1, lj)
            worst = max(worst, _grid_norm(diff, p) / float(h) ** float(rj))
    return worst


@dataclass(frozen=True)
class RateResult:
    slope: float
    errors: tuple
    scales: tuple


def approximation_rate(
    f: TrigPoly, r, p, m_max: int = 8, check_membership: bool = True
) -> RateResult:
    """Empirical decay slope of taper-approximation errors in scale.

    Computes ``e_m = ||f - V_m f||_p`` for the dyadic taper outputs of the
    smoothness vector ``r`` and fits ``log2 e_m`` against ``m >= 2`` by
    least squares.  When every error is zero (the taper reproduces ``f``)
    the slope is ``-inf``.  With ``check_membership``, a finite-difference
    scan must witness ``f`` in the unit class first.
    """
    p = as_exponents(p)
    rr = smoothness_vector(r)
    if not (p.d == len(rr) == f.d):
        raise ValidationError("dimension mismatch among f, r, p")
    if m_max < 3:
        raise ValidationError("m_max must be at least 3")
    if check_membership:
        margin = smoothness_margin(f, rr, p)
        if margin > 1.0 + 1e-6:
            raise ValidationError(
                f"function is not in the unit smoothness class (margin {margin:.6g})"
            )
    errors = []
    for m in range(m_max + 1):
        em = trig_lp_norm(f - vp_at_scale(f, rr, m), p)
        errors.append(em)
    ms = [m for m in range(2, m_max + 1) if errors[m] > 1e-13]
    if not ms:
        return RateResult(slope=-math.inf, errors=tuple(errors), scales=tuple(range(m_max + 1)))
    logs = [math.log2(errors[m]) for m in ms]
    slope = float(np.polyfit(ms, logs, 1)[0])
    return RateResult(slope=slope, errors=tuple(errors), scales=tuple(range(m_max + 1)))


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


def decaying_series_1d(r, terms: int = 256, p=(2,)) -> TrigPoly:
    """Dense-spectrum probe ``c sum k^(-r-1/2) cos(kx)``, scaled into the
    unit class for the given norm."""
    rr = smoothness_vector((r,))[0]
    amps = np.zeros(terms + 1)
    for k in range(1, terms + 1):
        amps[k] = float(k) ** (-(float(rr) + 0.5))
    t = TrigPoly((terms,), _cos_series_coeff(amps))
    margin = smoothness_margin(t, (rr,), p)
    return t * (0.95 / margin)


def lacunary_1d(r, levels: int = 10, p=(2,)) -> TrigPoly:
    """Lacunary probe ``c sum_j 2^(-r j) cos(2^j x)`` in the unit class."""
    rr = smoothness_vector((r,))[0]
    K = 2**levels
    amps = np.zeros(K + 1)
    for j in range(levels + 1):
        amps[2**j] = 2.0 ** (-float(rr) * j)
    t = TrigPoly((K,), _cos_series_coeff(amps))
    margin = smoothness_margin(t, (rr,), p)
    return t * (0.95 / margin)


def tensor_series_2d(r, terms=(96, 48), p=(2, 2)) -> TrigPoly:
    """Two-axis tensor-product probe in the unit class for ``r = (r_1, r_2)``."""
    rr = smoothness_vector(r)
    if len(rr) != 2 or len(terms) != 2:
        raise ValidationError("tensor probe is two-dimensional")
    axes = []
    for rj, K in zip(rr, terms):
        amps = np.zeros(K + 1)
        for k in range(1, K + 1):
            amps[k] = float(k) ** (-(float(rj) + 0.5))
        coeff = _cos_series_coeff(amps)
        coeff[K] = 1.0
        axes.append(coeff)
    coeff = np.multiply.outer(axes[0], axes[1])
    t = TrigPoly(terms, coeff)
    margin = smoothness_margin(t, rr, p)
    return t * (0.95 / margin)
