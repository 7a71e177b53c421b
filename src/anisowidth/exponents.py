"""Width order exponents for anisotropic smoothness classes.

Everything here is exact arithmetic on reciprocals: an exponent ``p`` enters
only through ``1/p`` and a smoothness weight ``r`` only through ``1/r``, so
rational inputs give rational outputs and every displayed formula reduces to
finite reciprocal sums.

The main entry points are

* :func:`width_exponent` for classes sorted by the interpolation weight
  ``omega`` (target exponents ``q_j >= 2``),
* :func:`width_exponent_low_q` for the two-block pattern with small target
  exponents,
* :func:`h_family_minimize`, a second route to the same exponent via the
  pointwise maximum of a finite affine family.

Both routes start from one validated sorted profile (:func:`_tables`) and
are independent after it; a caller that wants both builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

from .mixed_norm import (
    ExponentVector,
    ValidationError,
    as_exponents,
    _entries,
    _recip_of,
    _require_int,
)

__all__ = [
    "NotCompactError",
    "smoothness_vector",
    "omega",
    "SortedProfile",
    "sorted_profile",
    "Conditions",
    "WidthOrder",
    "width_exponent",
    "width_exponent_low_q",
    "dyadic_beta",
    "HFamily",
    "h_family_minimize",
]

_HALF = Fraction(1, 2)

# Relative rounding slack on the domain end s_mu when it is computed in float
# arithmetic: a float s_mu in [1 - _S_MU_RTOL, 1) is taken to be 1.  Exact
# (Fraction) input gets no slack.
_S_MU_RTOL = 1e-12


class NotCompactError(ValidationError):
    """The class is not compactly embedded in the target space."""


def smoothness_vector(r) -> tuple:
    """Validate a smoothness vector, a vector argument (:func:`_entries`) of
    positive finite entries whose reciprocals ``1/r_j`` are finite too.
    With a float entry the exponent formulas sum the reciprocals in floats,
    so their sum must then stay finite in every summation order; exact
    (``Fraction``) sums are not bounded.

    Integer-valued floats are upgraded to ``Fraction`` so that common inputs
    like ``2.0`` keep the exact-arithmetic path.
    """
    out = []
    for v in _entries("smoothness vector", r):
        if isinstance(v, bool) or isinstance(v, str):
            raise ValidationError(f"bad smoothness entry {v!r}")
        if isinstance(v, (int, Fraction)):
            if v <= 0:
                raise ValidationError(f"smoothness entries must be positive, got {v}")
            out.append(Fraction(v))
        elif isinstance(v, float):
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"smoothness entries must be positive, got {v}")
            if math.isinf(1 / v):
                raise ValidationError(f"smoothness entry {v!r} has no finite reciprocal 1/r")
            out.append(Fraction(int(v)) if v.is_integer() else v)
        else:
            raise ValidationError(f"bad smoothness entry type {type(v).__name__}")
    if not out:
        raise ValidationError("smoothness vector must have at least one axis")
    if any(isinstance(v, float) for v in out):
        # Room for the rounding of a float sum in any order: the formulas sum
        # the reciprocals, with weights at most 1, in their own orders.
        recips = (1 / v if isinstance(v, float) else v.denominator / v.numerator for v in out)
        try:
            total = math.fsum(recips) * (1 + len(out) * 2.0**-52)
        except OverflowError:  # an exact reciprocal or the sum beyond the float range
            total = math.inf
        if total == math.inf:
            raise ValidationError(
                "the reciprocals 1/r_j of the smoothness vector sum beyond the float range"
            )
    return tuple(out)


def omega(p, q) -> Union[Fraction, float]:
    """Interpolation weight of a source/target exponent pair.

    For ``2 <= q < inf`` and ``1 <= p <= inf``::

        omega = 0                        if p > q
        omega = (1/p - 1/q)/(1/2 - 1/q)  if 2 < p <= q
        omega = 1                        if p <= 2   (so omega(2, 2) = 1)

    Exact ``Fraction`` output for rational inputs.
    """
    rp = _recip_of(p)
    rq = _recip_of(q)
    _require_target(rq, q)
    return _omega(rp, rq)


def _require_target(rq, q=None):
    """``q`` in ``[2, inf)``, tested on its reciprocal ``rq``.  The refusal
    names ``q``, or without it :func:`_exponent_of` ``rq``, which is then
    computed only for a refused exponent."""
    if rq == 0 or rq > _HALF:
        if q is None:
            q = _exponent_of(rq)
        raise ValidationError(f"target exponent q={q} must lie in [2, inf)")


def _exponent_of(rq):
    """The exponent whose stored reciprocal is ``rq``, as it was given.

    Exact for a ``Fraction``, inf for 0.  A float exponent ``x`` is stored
    as ``1.0 / x``, and ``1 / (1.0 / x)`` need not be ``x`` (1.452 comes
    back as 1.4519999999999997), so a float ``rq`` names the shortest
    decimal whose reciprocal is ``rq``.
    """
    if not rq:
        return math.inf
    q = 1 / rq
    if isinstance(rq, Fraction):
        return q
    for digits in range(1, 18):
        shortest = float(f"{q:.{digits}g}")
        if 1.0 / shortest == rq:
            return shortest
    return q


def _omega(rp, rq) -> Union[Fraction, float]:
    """:func:`omega` on the reciprocals ``rp = 1/p`` and ``rq = 1/q``, with
    ``q`` already checked to lie in ``[2, inf)``."""
    if rp < rq:
        return Fraction(0)
    if rp >= _HALF:
        return Fraction(1)
    return (rp - rq) / (_HALF - rq)


@dataclass(frozen=True)
class SortedProfile:
    """Axes sorted by interpolation weight, with the derived split points.

    ``sigma`` lists 1-based axis numbers so that ``omega_{sigma(1)} <= ...
    <= omega_{sigma(d)}`` (stable: tied axes keep their original order).
    ``mu`` counts zero weights, ``nu`` counts weights below one, and ``J``
    is the candidate set of boundary indices ``t`` for the width exponent.
    """

    d: int
    omega: tuple
    sigma: tuple
    mu: int
    nu: int
    J: tuple


def sorted_profile(p, q) -> SortedProfile:
    """Compute weights, the stable sort, and the split points mu, nu, J."""
    p = as_exponents(p)
    q = as_exponents(q)
    if p.d != q.d:
        raise ValidationError(f"dimension mismatch: p has {p.d} axes, q has {q.d}")
    _require_q_range(q)
    return _profile(p, q)


def _profile(p: ExponentVector, q: ExponentVector) -> SortedProfile:
    """:func:`sorted_profile` of checked ``(p, q)``, from their reciprocals."""
    om = tuple(map(_omega, p.recip, q.recip))
    d = p.d
    order = sorted(range(d), key=lambda j: om[j])
    sigma = tuple(j + 1 for j in order)
    mu = sum(1 for w in om if w == 0)
    nu = sum(1 for w in om if w < 1)
    J = list(range(mu, nu + 1))
    if nu < d and any(q.recip[sigma[j] - 1] < _HALF for j in range(nu, d)):
        J.append(d)
    return SortedProfile(d=d, omega=om, sigma=sigma, mu=mu, nu=nu, J=tuple(J))


def _require_q_range(q: ExponentVector):
    """Every ``q_j`` in ``[2, inf)``; the first one outside is named."""
    for rq in q.recip:
        _require_target(rq)


def _sorted_axes(p: ExponentVector, q: ExponentVector, column):
    """Checked ``q_j in [2, inf)``, the sorted profile of ``(p, q)`` and the
    sigma-ordered tables ``1/q``, ``1/p``, ``omega`` and ``column`` (one
    entry per axis, in axis order)."""
    _require_q_range(q)
    prof = _profile(p, q)
    pos = [a - 1 for a in prof.sigma]
    tables = (q.recip, p.recip, prof.omega, column)
    return (prof,) + tuple([col[a] for a in pos] for col in tables)


def _tables(p, q, r):
    """Validated ``(p, q, r)`` as :func:`_sorted_axes` tables, ``1/r`` last.

    One problem's tables serve both routes to its exponent,
    :func:`_width_exponent` and :func:`_h_family`.
    """
    p = as_exponents(p)
    q = as_exponents(q)
    rr = smoothness_vector(r)
    if not (p.d == q.d == len(rr)):
        raise ValidationError(
            f"dimension mismatch: p has {p.d}, q has {q.d}, r has {len(rr)} axes"
        )
    return _sorted_axes(p, q, [1 / v for v in rr])


def _dot(a, b, lo=0, hi=None):
    """``sum_(lo <= j < hi) a_j b_j``, summed in index order."""
    return sum(x * y for x, y in zip(a[lo:hi], b[lo:hi]))


def _margin(ir, rq, rp, lo=0, hi=None):
    """``1 + sum_j 1/(r_j q_j) - sum_j 1/(r_j p_j)`` over ``lo <= j < hi``."""
    return 1 + _dot(ir, rq, lo, hi) - _dot(ir, rp, lo, hi)


def _denominator(ir_s, rq_s, t):
    """``sum_(j<t) 1/r_j + 2 sum_(j>=t) 1/(r_j q_j)``, shared by the
    candidate value of ``t`` (:func:`_theta_value`) and the breakpoint
    ``s_t``."""
    return sum(ir_s[:t]) + 2 * _dot(ir_s, rq_s, t)


def _theta_value(prof, ir_s, rq_s, rp_s, t):
    """Candidate width exponent of the boundary index ``t`` in ``J``."""
    nu = prof.nu
    if t == prof.d and nu < prof.d:
        return (1 + sum(ir_s[nu:]) * _HALF - _dot(ir_s, rp_s, nu)) / sum(ir_s)
    return _margin(ir_s, rq_s, rp_s, t) / _denominator(ir_s, rq_s, t)


def _require_two_blocks(p: ExponentVector, q: ExponentVector, nu_split: int):
    """The two-block pattern: ``1 <= p_j <= q_j <= 2`` on the first
    ``nu_split`` axes, ``q_j <= p_j`` on the rest."""
    d = p.d
    if _require_int("nu_split", nu_split) > d:
        raise ValidationError(f"nu_split={nu_split} outside 0..{d}")
    for j in range(nu_split):
        if not (p.recip[j] >= q.recip[j] >= _HALF):
            raise ValidationError(
                f"axis {j + 1}: need 1 <= p <= q <= 2 in the first block"
            )
    for j in range(nu_split, d):
        if not (q.recip[j] >= p.recip[j]):
            raise ValidationError(f"axis {j + 1}: need q <= p in the second block")


@dataclass(frozen=True)
class Conditions:
    emb_cond_ok: bool
    strict_min_ok: bool


@dataclass(frozen=True)
class WidthOrder:
    """Order exponent of the width sequence, with the per-candidate table."""

    exponent: Union[Fraction, float]
    argmin_index: Optional[int]
    all_theta: dict
    conditions: Conditions
    regime_note: str


def width_exponent(p, q, r) -> WidthOrder:
    """Width order exponent for target exponents ``q_j in [2, inf)``.

    Minimizes the candidate value of each boundary index ``t`` in the set
    ``J`` of the sorted profile; ``all_theta`` maps each ``t`` to its
    value.  Raises :class:`NotCompactError` when the compact-embedding
    margin is not positive.  A non-strict minimum is
    reported via ``conditions.strict_min_ok = False`` (the exponent is still
    the minimum value).
    """
    return _width_exponent(_tables(p, q, r))


def _width_exponent(tables) -> WidthOrder:
    """:func:`width_exponent` on the tables of :func:`_tables`."""
    prof, rq_s, rp_s, _, ir_s = tables
    margin = _margin(ir_s, rq_s, rp_s, prof.mu)
    if not margin > 0:
        raise NotCompactError(
            "not compactly embedded: 1 + sum_(j>mu) 1/(r q) - sum_(j>mu) 1/(r p) = "
            f"{margin} <= 0"
        )
    thetas = {t: _theta_value(prof, ir_s, rq_s, rp_s, t) for t in prof.J}
    best = min(thetas.values())
    argmins = [t for t in prof.J if thetas[t] == best]
    strict = len(argmins) == 1
    note = f"minimum over J={prof.J} attained at t={argmins[0]}"
    if not strict:
        note += f" (tied with t in {argmins})"
    return WidthOrder(
        exponent=best,
        argmin_index=argmins[0],
        all_theta=thetas,
        conditions=Conditions(emb_cond_ok=True, strict_min_ok=strict),
        regime_note=note,
    )


def width_exponent_low_q(p, q, r, nu_split: int) -> WidthOrder:
    """Width order exponent for the two-block low target-exponent pattern.

    Axes are taken in their given order: the first ``nu_split`` axes must
    satisfy ``1 <= p_j <= q_j <= 2``, the remaining axes ``1 <= q_j <= p_j``.
    The exponent is a single closed form; it must be positive.
    """
    p = as_exponents(p)
    q = as_exponents(q)
    rr = smoothness_vector(r)
    d = p.d
    if not (q.d == d == len(rr)):
        raise ValidationError("dimension mismatch among p, q, r")
    _require_two_blocks(p, q, nu_split)
    ir = [1 / v for v in rr]
    theta = _margin(ir, q.recip, p.recip, 0, nu_split) / sum(ir)
    if not theta > 0:
        raise NotCompactError(
            f"width order exponent {theta} is not positive; no compact embedding"
        )
    return WidthOrder(
        exponent=theta,
        argmin_index=None,
        all_theta={},
        conditions=Conditions(emb_cond_ok=True, strict_min_ok=True),
        regime_note=f"low target-exponent pattern, block split at nu={nu_split}",
    )


def dyadic_beta(r) -> tuple:
    """Growth weights beta_j = (1/r_j) / sum_i (1/r_i); sums to 1.

    Fractions for an exact ``r`` (from :func:`_beta_ratios`), floats as soon
    as one entry is a float.
    """
    rr = smoothness_vector(r)
    ratios = _beta_ratios(rr)
    if ratios is not None:
        return tuple(Fraction(a, b) for a, b in ratios)
    ir = [1 / v for v in rr]
    total = sum(ir)
    return tuple(v / total for v in ir)


def _beta_ratios(rr: tuple, m: int = 1) -> Optional[list]:
    """``beta_j m`` as reduced pairs ``(a, b)`` of ints, for a validated
    smoothness vector whose entries are all exact; None when one is a float.

    With ``r_j = n_j / d_j`` and ``L`` the least common multiple of the
    numerators, ``1/r_j = w_j / L`` with ``w_j = d_j L / n_j``, so
    ``beta_j m = m w_j / sum_i w_i`` in integers alone.
    """
    if any(isinstance(v, float) for v in rr):
        return None
    lcm = math.lcm(*(v.numerator for v in rr))
    w = [v.denominator * (lcm // v.numerator) for v in rr]
    total = sum(w)
    out = []
    for wj in w:
        g = math.gcd(m * wj, total)
        out.append((m * wj // g, total // g))
    return out


@dataclass(frozen=True)
class HFamily:
    """Minimum of the affine-family upper envelope over its domain."""

    s_star: Union[Fraction, float]
    value: Union[Fraction, float]
    domain: tuple
    breakpoints: dict
    lines: dict


def _envelope(lines, s):
    """The upper envelope ``max_t (a_t s + b_t)`` of the family's lines."""
    return max(a * s + b for a, b in lines.values())


def h_family_minimize(p, q, r) -> HFamily:
    """Minimize the upper envelope of the affine exponent family.

    The family consists of one line per boundary transition (labels
    ``mu-1``, ``mu .. nu-1``, and ``d-1`` when the tail carries a target
    exponent above 2), on the domain ``[1, s_mu]`` cut by the breakpoints
    ``s_t``.  Its envelope minimum equals the width order exponent.  Both
    routes start from the same validated sorted profile (:func:`_tables`)
    and are independent after it; tests cross-check them.  A float ``s_mu``
    within relative ``_S_MU_RTOL`` below 1 is rounding and is clamped to 1;
    an exact ``s_mu < 1`` is refused.
    """
    return _h_family(_tables(p, q, r))


def _h_family(tables) -> HFamily:
    """:func:`h_family_minimize` on the tables of :func:`_tables`."""
    prof, rq_s, rp_s, om_s, ir_s = tables
    d, mu, nu = prof.d, prof.mu, prof.nu
    margin = _margin(ir_s, rq_s, rp_s, mu)
    if not margin > 0:
        raise NotCompactError(
            f"not compactly embedded: envelope margin {margin} <= 0"
        )
    inv_sum = sum(ir_s)
    coef = 1 / inv_sum
    breakpoints = {t: inv_sum / _denominator(ir_s, rq_s, t) for t in range(mu, nu + 1)}

    lines = {mu - 1: (coef * margin, Fraction(0))}
    for t in range(mu, nu):
        a = coef * _margin(ir_s, rq_s, rp_s, t)
        b = coef * (sum(ir_s[:t]) * _HALF + _dot(ir_s, rq_s, t))
        w = om_s[t]
        lines[t] = (a - w * b, w * _HALF)
    if d in prof.J and nu < d:
        a = coef * (1 - sum(ir_s[:nu]) * _HALF - _dot(ir_s, rp_s, nu))
        lines[d - 1] = (a, _HALF)

    s_hi = breakpoints[mu]
    if isinstance(s_hi, float) and 1 - _S_MU_RTOL <= s_hi < 1:
        s_hi = breakpoints[mu] = 1.0
    lo, hi = 1, s_hi
    if s_hi < 1:
        raise ValidationError(f"degenerate domain: s_mu = {s_hi} < 1")

    candidates = {lo, hi}
    for s in breakpoints.values():
        if lo <= s <= hi:
            candidates.add(s)
    for (a1, b1), (a2, b2) in combinations([lines[t] for t in sorted(lines)], 2):
        # a Fraction and a float slope can differ while their float
        # difference is 0: such lines are parallel for this arithmetic
        gap = a1 - a2
        if gap:
            s = (b2 - b1) / gap
            if lo <= s <= hi:
                candidates.add(s)

    s_star = min(sorted(candidates), key=lambda s: _envelope(lines, s))
    return HFamily(
        s_star=s_star,
        value=_envelope(lines, s_star),
        domain=(lo, hi),
        breakpoints=breakpoints,
        lines=lines,
    )
