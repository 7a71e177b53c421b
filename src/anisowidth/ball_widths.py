"""Order formulas and lower-bound plans for anisotropic ball widths.

Width orders of ``B_p`` in ``l_q`` over a ``k_1 x ... x k_d`` index box are
pure products ``prod base^exponent`` with rational exponents, so this module
carries them in :class:`PowerProduct`, an exact positive-product type.  A
comparison decides on the float logarithm of the ratio when it lies beyond
its rounding error bound, and clears denominators to compare integers only
for near-ties, refusing integers longer than ``_EXACT_BITS`` bits.  Float
exponents degrade a product to float comparisons but keep the same interface.

The V-set machinery (convex hulls of permuted, sign-flipped corner blocks)
provides matching lower bounds: :func:`lower_bound_plan` picks the block
shape ``s`` for a given ``n``, and :func:`vset_l2_lower` is the exact
Euclidean width bound for that block.  The orbit points themselves are
built, enumerated or sampled, by :func:`anisowidth.width_oracle.sandwich_report`,
so this module is exact arithmetic alone and imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .mixed_norm import (
    ExponentVector,
    PropertyViolation,
    ValidationError,
    as_exponents,
    _require_dim,
    _require_int,
    _require_ints,
    _require_type,
)
from .exponents import _HALF, _require_two_blocks, _sorted_axes

__all__ = [
    "PowerProduct",
    "BallProblem",
    "PhiResult",
    "phi",
    "ball_order_low_q",
    "PlanResult",
    "lower_bound_plan",
    "VSet",
    "vset_l2_lower",
]

# A near-tie between exact products is settled on integers of at most this
# many bits; a larger one is refused rather than left to run for minutes.
_EXACT_BITS = 1 << 22


class PowerProduct:
    """Positive quantity ``coeff * prod base_i ** exp_i`` with exact order.

    Bases are integers ``>= 2`` after normalization, ``coeff`` is a positive
    ``Fraction``.  Exponents are ``int`` or ``Fraction`` (exact path), or
    float (the comparison then falls back to logarithms).
    """

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff=Fraction(1), factors=()):
        coeff = Fraction(coeff) if not isinstance(coeff, float) else coeff
        if not coeff > 0:
            raise ValidationError(f"PowerProduct coefficient {coeff} must be positive")
        merged = {}
        for base, exp in factors:
            base = _require_int("PowerProduct base", base, 1)
            if base == 1 or exp == 0:
                continue
            merged[base] = merged.get(base, 0) + exp
        self.coeff = coeff
        self.factors = tuple(
            (b, e) for b, e in sorted(merged.items()) if e != 0
        )

    @classmethod
    def one(cls) -> "PowerProduct":
        return cls()

    @property
    def is_exact(self) -> bool:
        return isinstance(self.coeff, Fraction) and all(
            isinstance(e, (int, Fraction)) for _, e in self.factors
        )

    def _log(self) -> tuple:
        """``(log of the value, sum of the magnitudes of its terms)``."""
        terms = [float(e) * math.log(b) for b, e in self.factors]
        c = self.coeff
        try:
            head = math.log(float(c))
            mass = abs(head)
        except (OverflowError, ValueError):  # a coefficient beyond float range
            head = math.log(c.numerator) - math.log(c.denominator)
            mass = math.log(c.numerator) + math.log(c.denominator)
        return head + sum(terms), mass + sum(map(abs, terms))

    def value(self) -> float:
        log = self._log()[0]
        try:
            return math.exp(log)
        except OverflowError:
            raise ValidationError(
                f"power product e^{log:.6g} exceeds the float range"
            ) from None

    def __mul__(self, other) -> "PowerProduct":
        other = _as_power(other)
        return PowerProduct(self.coeff * other.coeff, self.factors + other.factors)

    def __truediv__(self, other) -> "PowerProduct":
        return self * _as_power(other)._inv()

    def _inv(self) -> "PowerProduct":
        return PowerProduct(1 / self.coeff, tuple((b, -e) for b, e in self.factors))

    def __pow__(self, exp) -> "PowerProduct":
        if exp == 0:
            return PowerProduct.one()
        if self.coeff != 1:
            if isinstance(exp, int) or (isinstance(exp, Fraction) and exp.denominator == 1):
                return PowerProduct(
                    self.coeff ** int(exp), tuple((b, e * exp) for b, e in self.factors)
                )
            raise ValidationError(
                "fractional power of a PowerProduct with a non-unit coefficient"
            )
        return PowerProduct(Fraction(1), tuple((b, e * exp) for b, e in self.factors))

    def _cmp(self, other) -> int:
        ratio = self / _as_power(other)
        logv, mass = ratio._log()
        # |logv - log(ratio)| <= slack for an exact ratio of m factors: with
        # u = 2**-53 and math.log within one ulp, each term is within 5u of
        # its size plus u, and summing m + 1 terms adds (m + 1)u of the mass.
        slack = (len(ratio.factors) + 8) * 2.0**-52 * (1 + mass)
        if ratio.is_exact and abs(logv) <= slack:
            return ratio._exact_sign()
        return (logv > 0) - (logv < 0)

    def _exact_sign(self) -> int:
        """Sign of ``log(self)`` on integers: every exponent times the lcm of
        their denominators."""
        lcm = math.lcm(*(e.denominator for _, e in self.factors))
        c = self.coeff
        bits = lcm * (
            c.numerator.bit_length()
            + c.denominator.bit_length()
            + sum(abs(e) * b.bit_length() for b, e in self.factors)
        )
        if bits > _EXACT_BITS:
            raise ValidationError(
                f"exact comparison of power products needs about {int(bits)} "
                f"bits, over the limit of {_EXACT_BITS}"
            )
        num, den = c.numerator**lcm, c.denominator**lcm
        for b, e in self.factors:
            scaled = int(e * lcm)
            if scaled > 0:
                num *= b**scaled
            else:
                den *= b ** (-scaled)
        return (num > den) - (num < den)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (PowerProduct, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def ceil_int(self) -> int:
        """Smallest integer >= the product value (exact for exact products).

        Gallops from the float estimate, doubling its step, until the answer
        lies in ``(lo, hi]``, then bisects; an estimate that is the answer
        costs two comparisons.  A value beyond the float range starts the
        gallop at ``e**709``.
        """

        def fits(m):
            return self <= PowerProduct(Fraction(m))

        m = max(1, math.ceil(math.exp(min(self._log()[0], 709.0)) - 1e-9))
        step = 1
        if fits(m):
            hi = m
            while hi - step >= 1 and fits(hi - step):
                hi -= step
                step *= 2
            lo = max(hi - step, 0)
        else:
            lo = m
            while not fits(lo + step):
                lo += step
                step *= 2
            hi = lo + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def __repr__(self):
        body = " * ".join(f"{b}^({e})" for b, e in self.factors)
        return f"PowerProduct({self.coeff}{' * ' + body if body else ''})"


def _as_power(v) -> PowerProduct:
    if isinstance(v, PowerProduct):
        return v
    if isinstance(v, (int, Fraction)):
        return PowerProduct(Fraction(v))
    raise ValidationError(f"cannot interpret {v!r} as a positive product")


@dataclass(frozen=True)
class BallProblem:
    """Width problem for ``B_p`` in ``l_q`` over a ``k``-box, ``2n <= prod k``."""

    k: tuple
    n: int
    p: ExponentVector
    q: ExponentVector

    def __post_init__(self):
        object.__setattr__(self, "k", _require_ints("box side", self.k, 1))
        object.__setattr__(self, "n", _require_int("n", self.n))
        object.__setattr__(self, "p", as_exponents(self.p))
        object.__setattr__(self, "q", as_exponents(self.q))
        if not (self.p.d == self.q.d == self.d):
            raise ValidationError("dimension mismatch among k, p, q")
        if 2 * self.n > self.K:
            raise ValidationError(
                f"n={self.n} exceeds half the total dimension K={self.K}"
            )

    @property
    def K(self) -> int:
        return math.prod(self.k)

    @property
    def d(self) -> int:
        return len(self.k)

    @cached_property
    def _axes(self) -> tuple:
        """:func:`_sorted_axes` of ``(p, q)`` with the box sides as column,
        built on first use and shared by :func:`phi` and
        :func:`lower_bound_plan`."""
        return _sorted_axes(self.p, self.q, self.k)


def _corner(ks, rqs, rps, lo, hi) -> list:
    """Factors of the corner order ``prod_(lo <= j < hi) k_j^(1/q_j - 1/p_j)``."""
    return [(ks[j], rqs[j] - rps[j]) for j in range(lo, hi)]


def _bracket(n, ks, rqs, t) -> list:
    """Factors of Gluskin's bracket ``n^(-1/2) prod_(j<t) k_j^(1/2)
    prod_(j>=t) k_j^(1/q_j)`` (Gluskin 1983), in this order.

    With float exponents the merged exponent of a repeated base depends on
    the order of the factors, so every caller multiplies them in this order.
    """
    return [(n, -_HALF)] + [(k, _HALF) for k in ks[:t]] + list(zip(ks[t:], rqs[t:]))


@dataclass(frozen=True)
class PhiResult:
    value: float
    exact: PowerProduct
    branch: str
    argmin_t: Optional[int]


def phi(prob: BallProblem) -> PhiResult:
    """Order of the width of ``B_p`` in ``l_q``: prefix times a branch minimum.

    The prefix collects the zero-weight axes; the minimum runs over the
    constant branch 1 and one branch per remaining sorted position ``t``,
    each a pure power product evaluated exactly.  Ties between a ``t``
    branch and the constant branch report the constant branch; ties among
    ``t`` branches report the smallest ``t``.
    """
    _require_type("prob", prob, BallProblem)
    prof, rqs, rps, oms, ks = prob._axes
    d, mu = prof.d, prof.mu
    prefix = PowerProduct(1, _corner(ks, rqs, rps, 0, mu))

    best = best_t = None
    for t in range(mu + 1, d + 1):
        pre = PowerProduct(
            1, [(ks[j], rqs[j] - min(rps[j], _HALF)) for j in range(mu, t - 1)]
        )
        w = oms[t - 1]
        if w == 0:
            term = pre
        elif prob.n == 0:
            continue
        else:
            term = pre * PowerProduct(1, _bracket(prob.n, ks, rqs, t - 1)) ** w
        if best is None or term < best:
            best, best_t = term, t

    if best is None or PowerProduct.one() <= best:
        return PhiResult(
            value=prefix.value(), exact=prefix, branch="constant", argmin_t=None
        )
    exact = prefix * best
    return PhiResult(value=exact.value(), exact=exact, branch="term", argmin_t=best_t)


def ball_order_low_q(prob: BallProblem, nu_split: int) -> float:
    """Width order for the two-block low target-exponent pattern.

    Axes in given order: first ``nu_split`` axes need ``p_j <= q_j <= 2``,
    the rest ``q_j <= p_j``.  The order is ``prod_(j>nu) k_j^(1/q_j-1/p_j)``,
    constant in ``n`` over the admissible range ``2n <= prod k``.
    """
    _require_type("prob", prob, BallProblem)
    _require_two_blocks(prob.p, prob.q, nu_split)
    corner = _corner(prob.k, prob.q.recip, prob.p.recip, nu_split, prob.d)
    return PowerProduct(1, corner).value()


@dataclass(frozen=True)
class PlanResult:
    """Block shape and predicted order for the V-set lower bound."""

    s: tuple
    predicted: float
    exact: PowerProduct
    regime: str
    t: Optional[int]


def lower_bound_plan(prob: BallProblem) -> PlanResult:
    """Choose the corner-block shape ``s`` matching the width order at ``n``.

    Splits the admissible range by the thresholds
    ``T_t = prod_(j<=t) k_sigma(j) * prod_(j>t) k_sigma(j)^(2/q_sigma(j))``
    (nondecreasing in ``t``): at or below ``T_mu`` the full zero-weight
    corner, inside a window the fractional side on the window axis (exact
    ceiling of a pure power), past ``T_nu`` the tail block.  The returned
    ``s`` is in original axis order; ``predicted`` is the matching order
    value, a pure power product.
    """
    _require_type("prob", prob, BallProblem)
    prof, rqs, rps, oms, ks = prob._axes
    d, mu, nu = prof.d, prof.mu, prof.nu

    def threshold(t):
        squares = [(k, 2 * rq) for k, rq in zip(ks[t:], rqs[t:])]
        return PowerProduct(1, [(k, 1) for k in ks[:t]] + squares)

    npp = PowerProduct(Fraction(prob.n)) if prob.n > 0 else None

    if npp is None or npp <= threshold(mu):
        s_sorted = [ks[j] if j < mu else 1 for j in range(d)]
        exact = PowerProduct(1, _corner(ks, rqs, rps, 0, mu))
        regime, t_out = "corner", None
    else:
        t = next((t for t in range(mu + 1, nu + 1) if npp <= threshold(t)), None)
        if t is not None:
            rq_t = rqs[t - 1]
            if not rq_t < _HALF:
                raise PropertyViolation(
                    "window regime requires q > 2 on the window axis"
                )
            bracket = PowerProduct(1, _bracket(prob.n, ks, rqs, t - 1))
            side = (PowerProduct.one() / bracket) ** (1 / (_HALF - rq_t))
            s_t = side.ceil_int()
            if not (1 <= s_t <= ks[t - 1]):
                raise PropertyViolation(
                    f"window side {s_t} escapes [1, {ks[t - 1]}]"
                )
            s_sorted = [ks[j] for j in range(t - 1)] + [s_t] + [1] * (d - t)
            prefix = PowerProduct(1, _corner(ks, rqs, rps, 0, t - 1))
            exact = prefix * bracket ** oms[t - 1]
            regime, t_out = "window", t
        else:
            if nu >= d:
                raise PropertyViolation(
                    "tail regime reached with nu = d; thresholds are inconsistent"
                )
            s_sorted = [ks[j] if j < nu else 1 for j in range(d)]
            # one product of corner and bracket factors: the float bits need it
            exact = PowerProduct(
                1, _corner(ks, rqs, rps, 0, nu) + _bracket(prob.n, ks, rqs, nu)
            )
            regime, t_out = "tail", None

    s = [0] * d
    for j in range(d):
        s[prof.sigma[j] - 1] = s_sorted[j]
    return PlanResult(
        s=tuple(s), predicted=exact.value(), exact=exact, regime=regime, t=t_out
    )


@dataclass(frozen=True)
class VSet:
    """Orbit hull of a corner block: sides ``s`` inside a ``k``-box."""

    k: tuple
    s: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", _require_ints("box side", self.k, 1))
        object.__setattr__(self, "s", _require_ints("block side", self.s, 1))
        if len(self.k) != len(self.s):
            raise ValidationError("k and s must have the same length")
        for kj, sj in zip(self.k, self.s):
            if sj > kj:
                raise ValidationError(f"block side {sj} outside [1, {kj}]")

    @property
    def K(self) -> int:
        return math.prod(self.k)

    @property
    def d(self) -> int:
        return len(self.k)


def vset_l2_lower(v: VSet, n: int) -> float:
    """Exact Euclidean width lower bound ``sqrt(prod s) * sqrt(1 - n/K)``."""
    _require_type("v", v, VSet)
    n = _require_dim(n, v.K)
    return math.sqrt(math.prod(v.s)) * math.sqrt(1.0 - n / v.K)
