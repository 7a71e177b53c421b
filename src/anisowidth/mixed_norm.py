"""Iterated (mixed) norms on finite multi-index arrays.

The mixed norm with exponent vector ``p = (p_1, ..., p_d)`` reduces axis 1
first with exponent ``p_1``, then axis 2 with ``p_2``, and so on::

    ||x||_p = || ... || ||x||_{p_1, axis 1} ||_{p_2, axis 2} ... ||_{p_d, axis d}

All norms in this module use counting measure (plain sums, no averaging).
Normalized grid norms for periodic functions live in
:mod:`anisowidth.trig_approx`.

Conventions
-----------
* Exponents are stored through their reciprocals, ``recip = 1/p`` with
  ``recip = 0`` meaning ``p = inf``.  Integer and ``Fraction`` inputs keep
  exact rational reciprocals; float inputs degrade that entry to float.
* A :class:`Tensor` stores a flat ``float64`` buffer in which axis 1 is the
  fastest-varying index.  For a nested list input this means the innermost
  list runs along axis 1.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from collections.abc import Mapping, Set
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

__all__ = [
    "EPS_TOL",
    "ValidationError",
    "PropertyViolation",
    "DeskScaleError",
    "ExponentVector",
    "Tensor",
    "as_exponents",
    "mixed_norm",
    "norming_functional",
    "norm_duality_lower",
    "InterpolationReport",
    "holder_interpolation_check",
]

# Relative slack for all norm-inequality assertions.
EPS_TOL = 1e-10

Number = Union[int, float, Fraction]


class ValidationError(ValueError):
    """Malformed input: bad shapes, exponents out of range, NaN data."""


def _require_int(name: str, value, least: int = 0) -> int:
    """``value`` as an ``int``; a boolean, a non-integer or an integer below
    ``least`` is refused.  Numpy integers are accepted."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _require_type(name: str, value, kind: type):
    """``value`` itself when it is a ``kind``; anything else is refused.  A
    real scalar is checked with ``kind = numbers.Real`` (ints, floats,
    ``Fraction``s and numpy reals), so it is not converted and a huge int
    or a ``Fraction`` stays exact; a string or ``None`` is refused."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _entries(what: str, v) -> tuple:
    """The entries of the vector argument ``v``, in order: a tuple, a list,
    or any other iterable, an iterator too.  A string, bytes, a mapping, a
    set (whose order is not that of the axes) or a non-iterable is refused."""
    if isinstance(v, (tuple, list)):
        return tuple(v)
    try:
        entries = None if isinstance(v, (str, bytes, Mapping, Set)) else iter(v)
    except TypeError:
        entries = None
    if entries is None:
        raise ValidationError(f"{what} must be a sequence, got {type(v).__name__}")
    return tuple(entries)


def _array(what: str, data, dtype=np.float64) -> np.ndarray:
    """The data argument ``data`` as an array of ``dtype``, as
    ``np.asarray`` converts it (``Fraction`` entries included).  A string or
    bytes, an array of them or holding one among other entries, and
    whatever numpy cannot take as ``dtype`` are refused, so a numeric
    string is never read as a number."""
    try:
        raw = None if isinstance(data, (str, bytes)) else np.asarray(data)
        if raw is not None and raw.dtype.kind not in "SU" and not (
            raw.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in raw.flat)
        ):
            return np.asarray(data, dtype=dtype)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{what} must be numbers, got {reprlib.repr(data)}")


def _require_ints(what: str, v, least: int = 0) -> tuple:
    """The entries of the vector argument ``v`` (:func:`_entries`) as ints,
    each checked by :func:`_require_int`."""
    return tuple([_require_int(what, x, least) for x in _entries(what, v)])


def _require_dim(n, K: int) -> int:
    """The subspace dimension ``n`` as an ``int`` in ``[0, K]``."""
    n = _require_int("n", n)
    if n > K:
        raise ValidationError(f"need 0 <= n <= {K}, got n={n}")
    return n


class PropertyViolation(AssertionError):
    """A mathematical invariant failed at runtime."""


class DeskScaleError(ValueError):
    """Requested problem size exceeds the desk-scale guard."""


def _recip_of(value) -> Union[Fraction, float]:
    """Reciprocal of an exponent value, exact for int/Fraction inputs."""
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if value == math.inf:
        return Fraction(0)
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return Fraction(0)
        raise ValidationError(f"bad exponent string {value!r}")
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        if value <= 0:
            raise ValidationError(f"exponent must be positive, got {value}")
        return Fraction(1, 1) / Fraction(value)
    if isinstance(value, float):
        if not value > 0:
            raise ValidationError(f"exponent must be positive, got {value}")
        if value.is_integer():
            return Fraction(1, int(value))
        return 1.0 / value
    raise ValidationError(f"unsupported exponent type {type(value).__name__}")


def _axis_step(recip) -> tuple:
    """How the kernels reduce an axis with reciprocal exponent ``recip``.

    Returns ``(kind, pf)``: kind is "max" (p = inf), "sum" (p = 1), "two"
    (p = 2) or "pow", and ``pf`` is the exponent as a float (inf for "max").
    """
    if recip == 0:
        return ("max", math.inf)
    pf = float(Fraction(1, 1) / recip) if isinstance(recip, Fraction) else 1.0 / recip
    if recip == 1:
        return ("sum", pf)
    if 2 * recip == 1:
        return ("two", pf)
    return ("pow", pf)


@dataclass(frozen=True)
class ExponentVector:
    """Vector of norm exponents in ``[1, inf]``, stored as reciprocals.

    ``recip[j] == 0`` encodes ``p_j = inf``.  Entries are ``Fraction`` when
    the exponent was given exactly, ``float`` otherwise.  ``plan`` holds the
    per-axis reduction step ``(kind, pf)`` of :func:`_axis_step`, decided on
    first use and cached, so the norm kernels do no ``Fraction`` arithmetic
    per call.
    """

    recip: tuple

    def __post_init__(self):
        if not self.recip:
            raise ValidationError("exponent vector must have at least one axis")
        for r in self.recip:
            if not (0 <= r <= 1):
                raise ValidationError(
                    f"reciprocal exponent {r} outside [0, 1] (i.e. p outside [1, inf])"
                )

    @cached_property
    def plan(self) -> tuple:
        return tuple(_axis_step(r) for r in self.recip)

    @property
    def d(self) -> int:
        return len(self.recip)

    @property
    def p(self) -> tuple:
        out = []
        for r in self.recip:
            if r == 0:
                out.append(math.inf)
            elif isinstance(r, Fraction):
                out.append(Fraction(1, 1) / r)
            else:
                out.append(1.0 / r)
        return tuple(out)

    def dual(self) -> "ExponentVector":
        """The conjugate exponents, ``recip' = 1 - recip``, built and planned
        once per vector and kept; the dual's dual is this vector itself."""
        dual = self.__dict__.get("_dual")
        if dual is None:
            dual = ExponentVector(tuple(1 - r for r in self.recip))
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return dual


def as_exponents(p) -> ExponentVector:
    """Coerce an ExponentVector or a vector argument (:func:`_entries`) of
    exponent values.

    The vector, and its plan once used, is kept by the package's memo rule
    (:func:`_kept`).
    """
    if isinstance(p, ExponentVector):
        return p
    return _kept(_exponent_vector, *_entries("exponents", p))


def _kept(memo, *args):
    """``memo(*args)``, or the memo's function called directly when an
    argument cannot be hashed.

    The package's memo rule: every memo is ``lru_cache(maxsize=256,
    typed=True)``, so it keeps at most 256 entries, keyed by the arguments
    and their types (``1.5`` and ``Fraction(3, 2)`` are two keys), and no
    refusal is kept.  The hash is probed first, so a ``TypeError`` raised
    inside the function is not taken for an unhashable argument.
    """
    try:
        hash(args)
    except TypeError:
        return memo.__wrapped__(*args)
    return memo(*args)


@lru_cache(maxsize=256, typed=True)
def _exponent_vector(*values) -> ExponentVector:
    """The vector of :func:`as_exponents` for the exponent ``values``."""
    return ExponentVector(tuple(_recip_of(v) for v in values))


def _is_flat_two(p: ExponentVector) -> bool:
    """Whether every exponent is 2: the norm is then Euclidean."""
    return all(kind == "two" for kind, _ in p.plan)


class Tensor:
    """Immutable d-way array with a flat axis-1-fastest float64 layout."""

    __slots__ = ("shape", "_flat")

    def __init__(self, shape: Sequence[int], data):
        shape = _require_ints("tensor side", shape, 1)
        if not shape:
            raise ValidationError("bad tensor shape ()")
        flat = _array("tensor data", data).reshape(-1)
        size = math.prod(shape)
        if flat.size != size:
            raise ValidationError(
                f"data has {flat.size} entries, shape {shape} needs {size}"
            )
        flat = flat.copy()
        flat.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_flat", flat)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def from_array(cls, arr) -> "Tensor":
        arr = _array("tensor data", arr)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        return cls(arr.shape, np.ravel(arr, order="F"))

    @property
    def data(self) -> np.ndarray:
        """Flat read-only buffer, axis 1 fastest."""
        return self._flat

    @property
    def array(self) -> np.ndarray:
        """Read-only d-way view, index order (axis 1, ..., axis d)."""
        return self._flat.reshape(self.shape, order="F")

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self._flat.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, data={self._flat.tolist()!r})"

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._flat, other._flat)

    def __hash__(self):
        return hash((self.shape, self._flat.tobytes()))


def _reduce_axis0(a: np.ndarray, step: tuple) -> np.ndarray:
    """Collapse axis 0 of a nonnegative array by one ``ExponentVector.plan`` step."""
    kind, pf = step
    if kind == "max":
        return a.max(axis=0)
    if kind == "sum":
        return a.sum(axis=0)
    if kind == "two":
        return np.sqrt((a * a).sum(axis=0))
    m, total = _power_sum(a, pf)
    return m * total ** (1.0 / pf)


def _power_sum(a: np.ndarray, pf: float) -> tuple:
    """``(m, s)``: the maxima ``m`` of the axis-0 fibres of a nonnegative
    array and the sums ``s`` of ``(a / m) ** pf`` over them, so that the
    fibres' ``pf``-norms are ``m * s ** (1 / pf)``."""
    m = a.max(axis=0)
    # m == 0 only on an all-zero fibre, which divides to 0 by the least
    # subnormal as well; every other m is at least that subnormal.
    scaled = a / np.maximum(m, 5e-324)
    return m, np.power(scaled, pf, out=scaled).sum(axis=0)


# Range policy.  The entry points move data whose largest magnitude lies
# outside [_SAFE_DATA_MIN, _SAFE_DATA_MAX] into [1/2, 1) by a power of two
# (no rounding) and scale the result back, so no reduction overflows.  Inside
# the kernel, a norm below _SAFE_NORM_MIN may have lost digits to squares that
# underflowed, and its column is recomputed the same way.
_SAFE_DATA_MIN, _SAFE_DATA_MAX = 2.0**-300, 2.0**300
_SAFE_NORM_MIN = 2.0**-400


def _prescaled(arr: np.ndarray) -> tuple:
    """``(arr * 2**-e, e)``: ``e = 0`` when the largest magnitude lies in
    ``[2**-300, 2**300]`` or is 0, else the exponent that moves it into
    ``[1/2, 1)``.  NaN or infinite entries are refused."""
    m = float(max(arr.max(), -arr.min()))
    if _SAFE_DATA_MIN <= m <= _SAFE_DATA_MAX or m == 0.0:
        return arr, 0
    if not m < math.inf:
        raise ValidationError("non-finite entry (NaN or inf) in tensor data")
    e = math.frexp(m)[1]
    return np.ldexp(arr, -e), e


def _ldexp(x: float, e: int) -> float:
    """``x * 2**e``, or inf where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _in_range(r: np.ndarray) -> bool:
    """Whether no column of ``r`` needs :func:`_rescue`; false on a NaN."""
    return (r if r.ndim == 0 else r.min()) >= _SAFE_NORM_MIN


def _rescue(arr: np.ndarray, p: ExponentVector, r: np.ndarray, y=None):
    """Recompute the columns whose norm ``r`` is below ``_SAFE_NORM_MIN``.

    A column with nonzero data is rescaled by a power of two so that its
    maximum lies in [1/2, 1), where its norm is at least 1/2, and its norm is
    scaled back; its norming functional, which does not change with scale,
    replaces the column of ``y`` when ``y`` is given.  NaN data are refused.
    """
    if np.isnan(arr).any():
        raise ValidationError("NaN in tensor data")
    r = np.array(r)
    for idx in map(tuple, np.argwhere(r < _SAFE_NORM_MIN)):
        col = arr[(...,) + idx]
        m = float(np.abs(col).max())
        if m > 0.0:
            e = math.frexp(m)[1]
            norm, col_y = _norming_array(np.ldexp(col, -e), p)
            r[idx] = math.ldexp(float(norm), e)
            if y is not None:
                y[(...,) + idx] = col_y
    return r if y is None else (r, y)


def _mixed_norm_array(a: np.ndarray, p: ExponentVector) -> np.ndarray:
    """Mixed norm over the first ``p.d`` axes of ``a``, laid out like
    ``Tensor.array``; trailing axes are a batch.  0-d for a single tensor."""
    return _magnitude_norm(np.abs(a), p)


def _magnitude_norm(mag: np.ndarray, p: ExponentVector) -> np.ndarray:
    """:func:`_mixed_norm_array` of an array with no negative entries, such
    as magnitudes already taken, without taking them again."""
    r = mag
    for step in p.plan:
        r = _reduce_axis0(r, step)
    return r if _in_range(r) else _rescue(mag, p, r)


def _each_norm(stack: np.ndarray, p: ExponentVector) -> list:
    """:func:`mixed_norm` of each tensor of ``stack``, bit for bit, from one
    set of batched reductions.

    The tensors lie along the last axis of ``stack``, each laid out as
    ``Tensor.array`` (axis 1 fastest), so that the kernels reduce each in
    the order they reduce it alone; ``np.asfortranarray`` gives that layout.
    Each tensor is rescaled under the range policy of :func:`mixed_norm` on
    its own.  Only the last root is taken per tensor: a lone tensor's last
    power sum is a numpy scalar, whose root numpy takes with libm ``pow``,
    and the vector ``pow`` of an array gives other last bits.
    """
    mags = np.abs(stack)
    m = mags.reshape(-1, stack.shape[-1], order="F").max(axis=0)
    if not (m < math.inf).all():
        raise ValidationError("non-finite entry (NaN or inf) in tensor data")
    e = np.where((m < _SAFE_DATA_MIN) | (m > _SAFE_DATA_MAX), np.frexp(m)[1], 0)
    if e.any():
        mags = np.ldexp(mags, -e)
    r = mags
    for step in p.plan[:-1]:
        r = _reduce_axis0(r, step)
    kind, pf = p.plan[-1]
    if kind == "pow":
        r = np.array([top * total ** (1.0 / pf) for top, total in zip(*_power_sum(r, pf))])
    else:
        r = _reduce_axis0(r, (kind, pf))
    if not _in_range(r):
        r = _rescue(mags, p, r)
    return [_ldexp(float(v), int(ei)) for v, ei in zip(r, e)]


def _norming_array(arr: np.ndarray, p: ExponentVector) -> tuple:
    """``(norm, y)``: :func:`_mixed_norm_array` and the norming functional
    of ``arr``, from one set of partial reductions.

    Each partial is read for the last time where the weights of its axis
    are taken, so they are written over it and no weight array is
    allocated.  Every ``np.power`` operand is a contiguous array of its
    own: numpy picks its SIMD ``power`` loop by layout, and a strided
    operand may take another loop with other bits."""
    partials = [np.abs(arr)]
    for step in p.plan:
        partials.append(_reduce_axis0(partials[-1], step))
    y = np.sign(arr)
    for k, (kind, pf) in enumerate(p.plan):
        w, cur = partials[k], partials[k + 1]
        if kind == "max":
            idx = np.expand_dims(np.argmax(w, axis=0), axis=0)
            w.fill(0.0)
            np.put_along_axis(w, idx, 1.0, axis=0)
        else:
            # A "sum" or "pow" norm is at least the fibre's maximum, so there
            # cur == 0 only on an all-zero fibre, which divides to 0; a "two"
            # norm can be 0 over nonzero entries whose squares underflowed.
            np.divide(w, np.maximum(cur, 5e-324), out=w)
            if kind == "two":
                np.copyto(w, 0.0, where=cur == 0)
            np.power(w, pf - 1.0, out=w)
        y *= w
    r = partials[-1]
    return (r, y) if _in_range(r) else _rescue(arr, p, r, y)


def mixed_norm(x: Tensor, p) -> float:
    """Iterated norm of ``x``, reducing axis 1 first, counting measure.

    Parameters
    ----------
    x : Tensor
    p : ExponentVector or sequence of exponents in [1, inf]

    Returns
    -------
    float
        ``||x||_p >= 0``; exact sums/maxima are used for p in {1, 2, inf},
        a max-factored power sum otherwise.  Data whose largest magnitude
        lies outside ``[2**-300, 2**300]`` are rescaled by a power of two
        (no rounding) and the norm is scaled back, inf where it overflows;
        so no square or sum overflows, and the result is exact under
        power-of-two scaling of such data.  Data with a NaN or infinite
        entry is refused with :class:`ValidationError`.
    """
    _require_type("x", x, Tensor)
    p = as_exponents(p)
    if p.d != x.d:
        raise ValidationError(f"exponent vector has {p.d} axes, tensor has {x.d}")
    arr, e = _prescaled(x.array)
    return _ldexp(float(_mixed_norm_array(arr, p)), e)


def norming_functional(x: Tensor, p) -> Tensor:
    """A tensor ``y`` with ``<x, y> = ||x||_p`` and ``||y||_{p'} = 1``.

    For ``x = 0`` returns the zero tensor; non-finite data is refused.
    Infinite exponents pick the first maximizing index along their axis, so
    the result is deterministic.  ``y`` does not change when ``x`` is scaled,
    so it is computed on ``x`` rescaled by a power of two under the range
    policy of :func:`mixed_norm`.
    """
    _require_type("x", x, Tensor)
    p = as_exponents(p)
    if p.d != x.d:
        raise ValidationError(f"exponent vector has {p.d} axes, tensor has {x.d}")
    return Tensor.from_array(_norming_array(_prescaled(x.array)[0], p)[1])


def norm_duality_lower(x: Tensor, p) -> float:
    """Lower bound ``|<x, y>| / ||y||_{p'}`` on ``||x||_p`` by duality.

    ``y`` is the norming functional of ``x``, for which Holder's inequality
    for mixed norms is an equality (Benedek & Panzone 1961): in exact
    arithmetic the bound is the norm, and it differs from the norm only by
    the rounding of the pairing and of the dual norm.  It is 0.0 when
    ``||y||_{p'}`` is 0.
    """
    _require_type("x", x, Tensor)
    p = as_exponents(p)
    y = norming_functional(x, p)
    ny = mixed_norm(y, p.dual())
    return abs(float((x.array * y.array).sum())) / ny if ny else 0.0


@dataclass(frozen=True)
class InterpolationReport:
    """Outcome of one interpolation inequality check."""

    lhs: float
    rhs: float
    holds: bool
    p_tilde: ExponentVector


def holder_interpolation_check(x: Tensor, q, weight) -> InterpolationReport:
    """Check ``||x||_{p~'} <= ||x||_{q'}^(1-w) * ||x||_2^w`` for one tensor.

    Here ``1/p~_j = (1-w)/q_j + w/2`` entrywise, primes are conjugate
    exponents, and ``w`` ranges over [0, 1].  Requires ``q_j >= 2``.
    Returns both sides and whether the inequality holds up to relative
    slack ``EPS_TOL``.
    """
    _require_type("x", x, Tensor)
    q = as_exponents(q)
    if not (0 <= _require_type("interpolation weight", weight, numbers.Real) <= 1):
        raise ValidationError(f"interpolation weight {weight} outside [0, 1]")
    for r in q.recip:
        if r > Fraction(1, 2):
            raise ValidationError("interpolation requires q_j >= 2 on every axis")
    half = Fraction(1, 2)
    p_tilde = ExponentVector(tuple((1 - weight) * r + weight * half for r in q.recip))
    two = ExponentVector((half,) * q.d)
    lhs = mixed_norm(x, p_tilde.dual())
    rhs = mixed_norm(x, q.dual()) ** (1.0 - float(weight)) * mixed_norm(x, two) ** float(
        weight
    )
    holds = lhs <= rhs * (1.0 + EPS_TOL) + 1e-300
    return InterpolationReport(lhs=lhs, rhs=rhs, holds=holds, p_tilde=p_tilde)
