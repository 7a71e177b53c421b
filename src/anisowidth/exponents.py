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
* :func:`h_family_minimize`, an independent route to the same exponent via
  the pointwise maximum of a finite affine family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .mixed_norm import (
    ExponentVector,
    ValidationError,
    as_exponents,
    _recip_of,
)

__all__ = [
    "NotCompactError",
    "omega",
    "harmonic_mean",
    "SortedProfile",
    "sorted_profile",
    "theta_t",
    "Conditions",
    "WidthOrder",
    "width_exponent",
    "width_exponent_low_q",
    "DyadicSchedule",
    "dyadic_beta",
    "dyadic_schedule",
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
    """Validate a smoothness vector: positive finite entries.

    Integer-valued floats are upgraded to ``Fraction`` so that common inputs
    like ``2.0`` keep the exact-arithmetic path.
    """
    out = []
    for v in r:
        if isinstance(v, bool) or isinstance(v, str):
            raise ValidationError(f"bad smoothness entry {v!r}")
        if isinstance(v, (int, Fraction)):
            if v <= 0:
                raise ValidationError(f"smoothness entries must be positive, got {v}")
            out.append(Fraction(v))
        elif isinstance(v, float):
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"smoothness entries must be positive, got {v}")
            out.append(Fraction(int(v)) if v.is_integer() else v)
        else:
            raise ValidationError(f"bad smoothness entry type {type(v).__name__}")
    if not out:
        raise ValidationError("smoothness vector must have at least one axis")
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
    if rq == 0 or rq > _HALF:
        raise ValidationError(f"target exponent q={q} must lie in [2, inf)")
    if rp < rq:
        return Fraction(0)
    if rp >= _HALF:
        return Fraction(1)
    return (rp - rq) / (_HALF - rq)


def harmonic_mean(values, indices=None) -> Union[Fraction, float]:
    """Harmonic mean ``<v>_I = |I| / sum_{j in I} 1/v_j`` over 1-based ``I``.

    ``values`` may be an :class:`ExponentVector` or any sequence of positive
    entries (``inf`` allowed); the empty index set returns 1 by convention.
    """
    if isinstance(values, ExponentVector):
        recips = values.recip
    else:
        recips = tuple(_recip_of(v) for v in values)
    d = len(recips)
    if indices is None:
        idx = list(range(1, d + 1))
    else:
        idx = sorted(set(int(i) for i in indices))
        if idx and not (1 <= idx[0] and idx[-1] <= d):
            raise ValidationError(f"index set {idx} outside 1..{d}")
    if not idx:
        return Fraction(1)
    total = sum(recips[i - 1] for i in idx)
    if total == 0:
        return math.inf
    return len(idx) / total


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

    def window(self, t: int, s: int) -> tuple:
        """Axis set I(t, s) = {sigma(t), ..., sigma(s)}, 1-based."""
        if not (1 <= t and t <= s + 1 and s <= self.d):
            raise ValidationError(f"bad window [{t}, {s}] for d={self.d}")
        return self.sigma[t - 1 : s]


def sorted_profile(p, q) -> SortedProfile:
    """Compute weights, the stable sort, and the split points mu, nu, J."""
    p = as_exponents(p)
    q = as_exponents(q)
    if p.d != q.d:
        raise ValidationError(f"dimension mismatch: p has {p.d} axes, q has {q.d}")
    om = tuple(omega(pv, qv) for pv, qv in zip(p.p, q.p))
    d = p.d
    order = sorted(range(d), key=lambda j: om[j])
    sigma = tuple(j + 1 for j in order)
    mu = sum(1 for w in om if w == 0)
    nu = sum(1 for w in om if w < 1)
    J = list(range(mu, nu + 1))
    if nu < d and any(q.recip[sigma[j] - 1] < _HALF for j in range(nu, d)):
        J.append(d)
    return SortedProfile(d=d, omega=om, sigma=sigma, mu=mu, nu=nu, J=tuple(J))


def _tables(p, q, r):
    """Shared validation and sigma-ordered reciprocal tables."""
    p = as_exponents(p)
    q = as_exponents(q)
    rr = smoothness_vector(r)
    if not (p.d == q.d == len(rr)):
        raise ValidationError(
            f"dimension mismatch: p has {p.d}, q has {q.d}, r has {len(rr)} axes"
        )
    for rqj in q.recip:
        if rqj == 0 or rqj > _HALF:
            raise ValidationError("every target exponent q_j must lie in [2, inf)")
    prof = sorted_profile(p, q)
    ir = [1 / v for v in rr]
    pos = [a - 1 for a in prof.sigma]
    ir_s = [ir[a] for a in pos]
    rq_s = [q.recip[a] for a in pos]
    rp_s = [p.recip[a] for a in pos]
    om_s = [prof.omega[a] for a in pos]
    return prof, ir_s, rq_s, rp_s, om_s


def _embedding_margin(prof, ir_s, rq_s, rp_s):
    mu = prof.mu
    d = prof.d
    return (
        1
        + sum(ir_s[j] * rq_s[j] for j in range(mu, d))
        - sum(ir_s[j] * rp_s[j] for j in range(mu, d))
    )


def _theta_value(prof, ir_s, rq_s, rp_s, t):
    d = prof.d
    if t == d and prof.nu < d:
        inv_sum = sum(ir_s)
        a = sum(ir_s[j] for j in range(prof.nu, d)) * _HALF
        b = sum(ir_s[j] * rp_s[j] for j in range(prof.nu, d))
        return (1 + a - b) / inv_sum
    s1 = sum(ir_s[j] for j in range(t))
    s2 = sum(ir_s[j] * rq_s[j] for j in range(t, d))
    s3 = sum(ir_s[j] * rp_s[j] for j in range(t, d))
    return (1 + s2 - s3) / (s1 + 2 * s2)


def theta_t(p, q, r, t: int, profile: Optional[SortedProfile] = None):
    """Candidate width exponent for boundary index ``t`` (``t`` must be in J)."""
    prof, ir_s, rq_s, rp_s, _ = _tables(p, q, r)
    if profile is not None and profile != prof:
        raise ValidationError("supplied profile disagrees with (p, q)")
    if t not in prof.J:
        raise ValidationError(f"t={t} not in candidate set J={prof.J}")
    return _theta_value(prof, ir_s, rq_s, rp_s, t)


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

    Minimizes the candidate values ``theta_t`` over the boundary set ``J``
    of the sorted profile.  Raises :class:`NotCompactError` when the
    compact-embedding margin is not positive.  A non-strict minimum is
    reported via ``conditions.strict_min_ok = False`` (the exponent is still
    the minimum value).
    """
    prof, ir_s, rq_s, rp_s, _ = _tables(p, q, r)
    margin = _embedding_margin(prof, ir_s, rq_s, rp_s)
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
    if not (0 <= nu_split <= d):
        raise ValidationError(f"nu_split={nu_split} outside 0..{d}")
    for j in range(nu_split):
        if not (p.recip[j] >= q.recip[j] >= _HALF):
            raise ValidationError(
                f"axis {j + 1}: need 1 <= p <= q <= 2 in the first block"
            )
    for j in range(nu_split, d):
        if not (q.recip[j] >= p.recip[j]):
            raise ValidationError(
                f"axis {j + 1}: need q <= p in the second block"
            )
    ir = [1 / v for v in rr]
    inv_sum = sum(ir)
    theta = (
        1
        + sum(ir[j] * q.recip[j] for j in range(nu_split))
        - sum(ir[j] * p.recip[j] for j in range(nu_split))
    ) / inv_sum
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


@dataclass(frozen=True)
class DyadicSchedule:
    """Per-axis dyadic growth weights and the two norm-gap exponents."""

    beta: tuple
    r_mean: Union[Fraction, float]
    gamma0: Union[Fraction, float]
    gamma: Union[Fraction, float]


def dyadic_beta(r) -> tuple:
    """Growth weights beta_j = (1/r_j) / sum_i (1/r_i); sums to 1."""
    rr = smoothness_vector(r)
    ir = [1 / v for v in rr]
    total = sum(ir)
    return tuple(v / total for v in ir)


def dyadic_schedule(p, q, r) -> DyadicSchedule:
    """Dyadic block schedule and the gap exponents gamma0 <= gamma.

    ``gamma0`` clips the per-axis exponent gap at zero, ``gamma`` does not,
    so ``gamma0 == gamma`` exactly when ``p_j <= q_j`` on every axis.
    """
    p = as_exponents(p)
    q = as_exponents(q)
    rr = smoothness_vector(r)
    if not (p.d == q.d == len(rr)):
        raise ValidationError("dimension mismatch among p, q, r")
    ir = [1 / v for v in rr]
    total = sum(ir)
    beta = tuple(v / total for v in ir)
    r_mean = len(rr) / total
    gap = [p.recip[j] - q.recip[j] for j in range(len(rr))]
    gamma0 = 1 - sum(ir[j] * max(gap[j], 0) for j in range(len(rr)))
    gamma = 1 - sum(ir[j] * gap[j] for j in range(len(rr)))
    return DyadicSchedule(beta=beta, r_mean=r_mean, gamma0=gamma0, gamma=gamma)


@dataclass(frozen=True)
class HFamily:
    """Minimum of the affine-family upper envelope over its domain."""

    s_star: Union[Fraction, float]
    value: Union[Fraction, float]
    domain: tuple
    breakpoints: dict
    lines: dict

    def envelope(self, s):
        return max(a * s + b for a, b in self.lines.values())


def h_family_minimize(p, q, r) -> HFamily:
    """Minimize the upper envelope of the affine exponent family.

    The family consists of one line per boundary transition (labels
    ``mu-1``, ``mu .. nu-1``, and ``d-1`` when the tail carries a target
    exponent above 2), on the domain ``[1, s_mu]`` cut by the breakpoints
    ``s_t``.  Its envelope minimum equals the width order exponent; the two
    routes are computed independently and cross-checked in tests.  A float
    ``s_mu`` within relative ``_S_MU_RTOL`` below 1 is rounding and is
    clamped to 1; an exact ``s_mu < 1`` is refused.
    """
    prof, ir_s, rq_s, rp_s, om_s = _tables(p, q, r)
    margin = _embedding_margin(prof, ir_s, rq_s, rp_s)
    if not margin > 0:
        raise NotCompactError(
            f"not compactly embedded: envelope margin {margin} <= 0"
        )
    d = prof.d
    mu, nu = prof.mu, prof.nu
    inv_sum = sum(ir_s)
    coef = 1 / inv_sum

    breakpoints = {}
    for t in range(mu, nu + 1):
        denom = sum(ir_s[:t]) + 2 * sum(ir_s[j] * rq_s[j] for j in range(t, d))
        breakpoints[t] = inv_sum / denom

    def suff_q(t):
        return sum(ir_s[j] * rq_s[j] for j in range(t, d))

    def suff_p(t):
        return sum(ir_s[j] * rp_s[j] for j in range(t, d))

    lines = {}
    lines[mu - 1] = (coef * (1 + suff_q(mu) - suff_p(mu)), Fraction(0))
    for t in range(mu, nu):
        a = coef * (1 + suff_q(t) - suff_p(t))
        b = coef * (sum(ir_s[:t]) * _HALF + suff_q(t))
        w = om_s[t]
        lines[t] = (a - w * b, w * _HALF)
    if d in prof.J and nu < d:
        a = coef * (1 - sum(ir_s[:nu]) * _HALF - suff_p(nu))
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
    labels = sorted(lines)
    for i in range(len(labels)):
        a1, b1 = lines[labels[i]]
        for k in range(i + 1, len(labels)):
            a2, b2 = lines[labels[k]]
            if a1 == a2:
                continue
            s = (b2 - b1) / (a1 - a2)
            if lo <= s <= hi:
                candidates.add(s)

    def envelope(s):
        return max(a * s + b for a, b in lines.values())

    s_star, value = None, None
    for s in sorted(candidates):
        v = envelope(s)
        if value is None or v < value:
            s_star, value = s, v
    return HFamily(
        s_star=s_star,
        value=value,
        domain=(lo, hi),
        breakpoints=breakpoints,
        lines=lines,
    )
