"""Numerical two-sided width estimates at desk scale.

Upper estimates come from an explicit subspace found by smoothed descent on
the Stiefel manifold: given a finite point set inside a ball, alternate
(a) approximate per-point best approximations from the current subspace and
(b) a retraction step along a softmax-weighted subgradient through the
near-active points.  Any feasible coefficient vector certifies a per-point
distance from above, so the reported value is always a true upper bound for
the hull of the supplied points.

Lower estimates are exact closed forms from corner-block hulls
(:func:`width_lower_vset`, :func:`anisowidth.ball_widths.vset_l2_lower`) and
an independent Euclidean dual route (:func:`point_set_lower_q2`, mirror
ascent on point weights, any iterate certifies).

Everything is deterministic for a fixed :class:`OracleConfig`.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np

from .mixed_norm import (
    DeskScaleError,
    ExponentVector,
    PropertyViolation,
    Tensor,
    ValidationError,
    as_exponents,
    mixed_norm,
    _ldexp,
    _mixed_norm_array,
    _norming_array,
    _prescaled,
)
from .ball_widths import (
    BallProblem,
    PowerProduct,
    VSet,
    lower_bound_plan,
    phi,
    sample_group_element,
    vset_extreme_point,
    vset_l2_lower,
)

__all__ = [
    "OracleConfig",
    "SubspaceCandidate",
    "harmonic_frame",
    "distance_to_subspace",
    "WidthEstimate",
    "width_upper",
    "point_set_lower_q2",
    "width_lower_vset",
    "SandwichReport",
    "sandwich_report",
]

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class OracleConfig:
    """Budget and seeding for the numerical width search."""

    restarts: int = 4
    outer_iterations: int = 60
    inner_tolerance: float = 1e-8
    point_budget: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise ValidationError("restarts must be nonnegative")
        if self.outer_iterations < 1:
            raise ValidationError("outer_iterations must be positive")
        if not (0 < self.inner_tolerance < 1e-3):
            raise ValidationError("inner_tolerance must lie in (0, 1e-3)")
        if self.point_budget < 2:
            raise ValidationError("point_budget must be at least 2")


@dataclass
class SubspaceCandidate:
    """An n-dimensional candidate subspace with its achieved max-distance."""

    basis: np.ndarray
    quality: float = math.nan

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2:
            raise ValidationError("basis must be a 2-d array (dim x n)")
        if not np.isfinite(basis).all():
            raise ValidationError("basis has non-finite entries")
        if basis.shape[1] > 0:
            sv = np.linalg.svd(basis, compute_uv=False)
            if sv[-1] <= 1e-8 * max(1.0, sv[0]):
                raise ValidationError("basis is rank-deficient (tolerance 1e-8)")
        self.basis = basis

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    def orthonormal(self) -> np.ndarray:
        if self.basis.shape[1] == 0:
            return self.basis
        qmat, _ = np.linalg.qr(self.basis)
        return qmat


def harmonic_frame(K: int, n: int) -> np.ndarray:
    """Orthonormal K x n basis whose projector has a constant diagonal.

    Built from constant / cosine / sine columns on the cyclic group of order
    K; every row of the basis has squared norm n/K, which makes the frame
    optimal for symmetric cross-polytope points.  Falls back to a seeded
    orthonormal completion if K is too small for distinct frequencies.
    """
    if K < 1 or not (0 <= n <= K):
        raise ValidationError(f"need K >= 1 and 0 <= n <= K, got n={n}, K={K}")
    if n == 0:
        return np.zeros((K, 0))
    i = np.arange(K)
    cols = []
    if n % 2 == 1:
        cols.append(np.full(K, 1.0 / math.sqrt(K)))
    f = 1
    while len(cols) < n and f <= K // 2:
        c = np.cos(2 * math.pi * f * i / K)
        cols.append(c / np.linalg.norm(c))
        if len(cols) < n and 2 * f < K:
            s = np.sin(2 * math.pi * f * i / K)
            cols.append(s / np.linalg.norm(s))
        f += 1
    B = np.column_stack(cols) if cols else np.zeros((K, 0))
    if B.shape[1] < n:
        rng = np.random.default_rng(0)
        extra = rng.standard_normal((K, n - B.shape[1]))
        B, _ = np.linalg.qr(np.column_stack([B, extra]))
    return B[:, :n]


def _batch_residual(X: np.ndarray, B: np.ndarray, C: np.ndarray, shape) -> np.ndarray:
    R = X.T - B @ C
    return R.reshape(shape + (X.shape[0],), order="F")


def _inner_solve(X, B, q, shape, C0, iters):
    """Approximate per-point best-approximation coefficients, batched.

    Subgradient descent with best-value tracking; the Euclidean projection
    is the starting point, so for flat q = 2 this is already exact.
    """
    C = B.T @ X.T if C0 is None else C0.copy()
    if _is_flat_two(q):
        return C, _mixed_norm_array(_batch_residual(X, B, C, shape), q)
    best_C = C.copy()
    best_f = np.full(X.shape[0], math.inf)
    step = 1.0
    for _ in range(iters):
        f, Y = _norming_array(_batch_residual(X, B, C, shape), q)
        improved = f < best_f
        best_f = np.where(improved, f, best_f)
        best_C[:, improved] = C[:, improved]
        G = -(B.T @ Y.reshape(X.shape[1], X.shape[0], order="F"))
        gn2 = (G * G).sum(axis=0) + 1e-30
        eta = step * 0.5 * f / gn2
        C = C - eta[None, :] * G
        step *= 0.97
    f = _mixed_norm_array(_batch_residual(X, B, C, shape), q)
    improved = f < best_f
    best_f = np.where(improved, f, best_f)
    best_C[:, improved] = C[:, improved]
    return best_C, best_f


def _is_flat_two(q: ExponentVector) -> bool:
    return all(r == _HALF for r in q.recip)


def _polish_point(x_flat, B, q, shape, c0, tol):
    # Imported here: scipy.optimize is most of the package's import time and
    # only this polish needs it.
    from scipy.optimize import minimize

    def fun(c):
        return float(_mixed_norm_array((x_flat - B @ c).reshape(shape, order="F"), q))

    best_c = np.asarray(c0, dtype=float)
    best = fun(best_c)
    for start in (best_c, np.zeros(B.shape[1])):
        res = minimize(
            fun,
            start,
            method="Powell",
            options={"xtol": tol, "ftol": tol, "maxiter": 500},
        )
        if res.fun < best:
            best = float(res.fun)
            best_c = res.x
    return best, best_c


def distance_to_subspace(x: Tensor, L, q, tol: float = 1e-8) -> float:
    """Best-approximation distance of ``x`` from the span of ``L`` in ``q``.

    Exact least squares for flat q = 2; otherwise a derivative-free polish
    from the Euclidean projection (and from zero), so the result is an upper
    value that meets the true distance to within the solver tolerance on
    desk-scale problems.  ``L`` may be a SubspaceCandidate or a (dim x n)
    array; ``n = 0`` returns the norm itself.  Data are rescaled under the
    range policy of :func:`mixed_norm`, so on data whose largest magnitude
    lies outside ``[2**-300, 2**300]`` the result is exact under
    power-of-two scaling.
    """
    q = as_exponents(q)
    B = L.basis if isinstance(L, SubspaceCandidate) else np.asarray(L, dtype=float)
    if B.ndim != 2 or B.shape[0] != x.size:
        raise ValidationError(
            f"basis shape {B.shape} incompatible with tensor size {x.size}"
        )
    if q.d != x.d:
        raise ValidationError("exponent vector and tensor dimension mismatch")
    if B.shape[1] == 0:
        return mixed_norm(x, q)
    xs, e = _prescaled(x.data)
    c0, *_ = np.linalg.lstsq(B, xs, rcond=None)
    if _is_flat_two(q):
        return _ldexp(float(np.linalg.norm(xs - B @ c0)), e)
    val, _ = _polish_point(xs, B, q, x.shape, c0, tol)
    return _ldexp(val, e)


@dataclass
class WidthEstimate:
    value: float
    witness: SubspaceCandidate
    iterations: int


def _stack_points(points: Sequence[Tensor]):
    if not points:
        raise ValidationError("need at least one point")
    shape = points[0].shape
    for pt in points:
        if pt.shape != shape:
            raise ValidationError("all points must share one shape")
    X = np.stack([pt.data for pt in points])
    return X, shape


def _descend(X, B0, q, shape, cfg):
    B = B0
    P, K = X.shape
    n = B.shape[1]
    best_val = math.inf
    best_B = B
    C = None
    for it in range(cfg.outer_iterations):
        C, f = _inner_solve(X, B, q, shape, C, iters=4 if it else 30)
        fmax = float(f.max())
        if fmax < best_val:
            best_val, best_B = fmax, B
        spread = max(fmax - float(f.min()), 1e-12)
        tau = max(0.02 * fmax, 0.35 * spread * (0.9 ** it)) + 1e-30
        wts = np.exp((f - fmax) / tau)
        wts /= wts.sum()
        _, Y = _norming_array(_batch_residual(X, B, C, shape), q)
        Yflat = Y.reshape(K, P, order="F")
        G = Yflat @ (wts[:, None] * C.T)
        gn = np.linalg.norm(G) + 1e-30
        eta = (0.5 / (1.0 + it / 8.0)) * math.sqrt(n) / gn
        B, _ = np.linalg.qr(B + eta * G)
        C = B.T @ X.T
    C, f = _inner_solve(X, B, q, shape, None, iters=60)
    fmax = float(f.max())
    if fmax < best_val:
        best_val, best_B = fmax, B
    return best_val, best_B


# Points polished by :func:`_evaluate_exact`: the ones farthest from the
# subspace after the batched solve.
_POLISH_TOP = 6


def _evaluate_exact(X, B, q, shape, tol, cutoff=math.inf) -> float:
    """Certified max distance of the points from the span of ``B``.

    After the batched solve the ``_POLISH_TOP`` farthest points are polished
    by Powell, farthest first, and each keeps the smaller of its two values.

    Cutoff contract: the caller uses the result only in the test
    ``result < cutoff``.  A polish can only lower a point's value, so the
    maximum of the values already polished and of the largest value outside
    the polished top is a lower bound on the full result.  As soon as that
    bound reaches ``cutoff`` the remaining polishes are skipped and the
    bound is returned; it is ``>= cutoff``, so the test reads false exactly
    as it would on the full result.  Below the cutoff, and with the default
    ``cutoff = inf``, every polish runs and the result is the full maximum.
    """
    if B.shape[1] == 0:
        return float(
            _mixed_norm_array(X.T.reshape(shape + (X.shape[0],), order="F"), q).max()
        )
    C = np.linalg.lstsq(B, X.T, rcond=None)[0]
    if _is_flat_two(q):
        R = X.T - B @ C
        return float(np.sqrt((R * R).sum(axis=0)).max())
    C, f = _inner_solve(X, B, q, shape, C, iters=120)
    order = np.argsort(f)[::-1]
    bound = float(f[order[_POLISH_TOP]]) if f.size > _POLISH_TOP else -math.inf
    for i in order[:_POLISH_TOP]:
        if bound >= cutoff:
            break
        val, _ = _polish_point(X[i], B, q, shape, C[:, i], tol)
        bound = max(bound, float(min(f[i], val)))
    return bound


def width_upper(
    points: Sequence[Tensor],
    n: int,
    q,
    cfg: Optional[OracleConfig] = None,
) -> WidthEstimate:
    """Upper estimate of the n-width of the hull of ``points`` in ``q``.

    Runs the smoothed Stiefel descent from a harmonic frame, a Euclidean
    dual eigenbasis, and ``cfg.restarts`` seeded random orthonormal bases;
    reports the best subspace found and its certified max distance.
    Deterministic for fixed (cfg.seed, restarts).  The points are rescaled
    under the range policy of :func:`mixed_norm` and the value is scaled
    back, so no stage overflows, and on points whose largest magnitude lies
    outside ``[2**-300, 2**300]`` the value is exact under power-of-two
    scaling.
    """
    cfg = cfg or OracleConfig()
    q = as_exponents(q)
    X, shape = _stack_points(points)
    P, K = X.shape
    if q.d != len(shape):
        raise ValidationError("exponent vector and point dimension mismatch")
    if not (0 <= n <= K):
        raise ValidationError(f"need 0 <= n <= {K}, got n={n}")
    X, e = _prescaled(X)
    if n == 0:
        val = _evaluate_exact(X, np.zeros((K, 0)), q, shape, cfg.inner_tolerance)
        val = _ldexp(val, e)
        return WidthEstimate(
            value=val,
            witness=SubspaceCandidate(np.zeros((K, 0)), quality=val),
            iterations=0,
        )
    if n == K:
        B = np.eye(K)
        return WidthEstimate(
            value=0.0, witness=SubspaceCandidate(B, quality=0.0), iterations=0
        )

    inits = [harmonic_frame(K, n)]
    M = X.T @ X
    _, vecs = np.linalg.eigh(M)
    inits.append(vecs[:, ::-1][:, :n])
    for ridx in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, ridx)))
        G = rng.standard_normal((K, n))
        inits.append(np.linalg.qr(G)[0])

    best_val, best_B = math.inf, None
    iterations = 0
    # After the first evaluation a value only matters if it beats best_val,
    # so best_val is each later evaluation's cutoff (see _evaluate_exact).
    for B0 in inits:
        val0 = _evaluate_exact(X, B0, q, shape, cfg.inner_tolerance, best_val)
        if val0 < best_val:
            best_val, best_B = val0, B0
        _, B = _descend(X, B0, q, shape, cfg)
        iterations += cfg.outer_iterations
        valx = _evaluate_exact(X, B, q, shape, cfg.inner_tolerance, best_val)
        if valx < best_val:
            best_val, best_B = valx, B
    best_val = _ldexp(best_val, e)
    return WidthEstimate(
        value=best_val,
        witness=SubspaceCandidate(best_B, quality=best_val),
        iterations=iterations,
    )


def point_set_lower_q2(
    points: Sequence[Tensor], n: int, iterations: int = 150, seed: int = 0
) -> float:
    """Certified Euclidean lower bound for the hull width of ``points``.

    Mirror ascent on a weight vector over the points; for any weights the
    sum of the smallest ``dim - n`` eigenvalues of the weighted second
    moment lower-bounds the squared width, so the best iterate certifies.
    """
    X, _ = _stack_points(points)
    P, K = X.shape
    if not (0 <= n <= K):
        raise ValidationError(f"need 0 <= n <= {K}, got n={n}")
    if n >= K:
        return 0.0
    w = np.full(P, 1.0 / P)
    best = 0.0
    rng = np.random.default_rng(seed)
    for t in range(iterations):
        M = (X.T * w) @ X
        vals, vecs = np.linalg.eigh(M)
        tail = float(vals[: K - n].sum())
        best = max(best, tail)
        V = vecs[:, K - n :]
        g = (X * X).sum(axis=1) - ((X @ V) ** 2).sum(axis=1)
        gmax = max(float(np.abs(g).max()), 1e-30)
        w = w * np.exp((1.0 / math.sqrt(1.0 + t)) * g / gmax)
        w /= w.sum()
    return math.sqrt(max(best, 0.0))


def width_lower_vset(v: VSet, n: int, q) -> float:
    """Order-level width reference for a corner-block hull in ``l_q``.

    Exact for flat q = 2 (Euclidean route).  Otherwise a constant-dropped
    closed form: ``prod s^(1/q)`` while ``n <= prod k^(2/q) s^(1-2/q)``,
    then ``n^(-1/2) prod k^(1/q) prod s^(1/2)``; the two branches agree at
    the threshold.  Order-level only: dropped constants may exceed a true
    width, certified comparisons go through the Euclidean route.
    """
    q = as_exponents(q)
    if q.d != v.d:
        raise ValidationError("exponent vector and block dimension mismatch")
    if not (0 <= n <= v.K):
        raise ValidationError(f"n={n} outside [0, {v.K}]")
    for rqj in q.recip:
        if rqj == 0 or rqj > _HALF:
            raise ValidationError("every target exponent q_j must lie in [2, inf)")
    if _is_flat_two(q):
        return vset_l2_lower(v, n)
    threshold = PowerProduct.one()
    for kj, sj, rqj in zip(v.k, v.s, q.recip):
        threshold = threshold * PowerProduct.power(kj, 2 * rqj)
        threshold = threshold * PowerProduct.power(sj, 1 - 2 * rqj)
    if n == 0 or PowerProduct(Fraction(n)) <= threshold:
        out = PowerProduct.one()
        for sj, rqj in zip(v.s, q.recip):
            out = out * PowerProduct.power(sj, rqj)
        return out.value()
    out = PowerProduct(Fraction(1)) * PowerProduct.power(n, -_HALF)
    for kj, sj, rqj in zip(v.k, v.s, q.recip):
        out = out * PowerProduct.power(kj, rqj) * PowerProduct.power(sj, _HALF)
    return out.value()


def _orbit_points(k, s, cap: int):
    """Every corner-block point with ``s_j`` signed ones on axis j, one of
    each +- pair, in a fixed order; None when the orbit exceeds ``4 * cap``
    before the +- pairs are merged."""
    total = 1
    for kj, sj in zip(k, s):
        total *= math.comb(kj, sj) * 2**sj
        if total > 4 * cap:
            return None
    per_axis = []
    for kj, sj in zip(k, s):
        opts = []
        for subset in itertools.combinations(range(kj), sj):
            for signs in itertools.product((-1.0, 1.0), repeat=sj):
                u = np.zeros(kj)
                u[list(subset)] = signs
                opts.append(u)
        per_axis.append(opts)
    points = []
    seen = set()
    for combo in itertools.product(*per_axis):
        arr = reduce(np.multiply.outer, combo)
        key = arr.tobytes()
        if key in seen or (-arr).tobytes() in seen:
            continue
        seen.add(key)
        points.append(arr)
    return points


def _ball_extras(prob: BallProblem, cap: int, rng) -> list:
    """Extra hull points from the unit ball: exact extremes when p is all
    {1, inf} and small enough, boundary samples otherwise."""
    if cap <= 0:
        return []
    shape = prob.k
    if all(r in (0, 1) for r in prob.p.recip):
        # The vertices of B_p: one signed one on a p_j = 1 axis, a sign on
        # every entry of a p_j = inf axis.
        s = tuple(1 if r == 1 else kj for kj, r in zip(prob.k, prob.p.recip))
        vertices = _orbit_points(prob.k, s, cap)
        if vertices is not None:
            return vertices[:cap]
    out = []
    for _ in range(cap):
        arr = rng.standard_normal(shape) if len(shape) > 1 else rng.standard_normal(shape[0])
        arr = np.asarray(arr).reshape(shape)
        t = Tensor.from_array(arr)
        nrm = mixed_norm(t, prob.p)
        if nrm > 0:
            out.append(arr / nrm)
    return out


@dataclass
class SandwichReport:
    """Two-sided desk-scale bracket around a ball width problem.

    ``certified_lower <= upper`` is guaranteed whenever ``certified`` is
    True (the point set then contains every extreme point of the scaled
    corner-block hull); ``lower_reference`` and ``phi_value`` are
    order-level companions with constants dropped.
    """

    problem_hash: str
    k: tuple
    n: int
    regime: str
    s: tuple
    phi_value: float
    lower_reference: float
    certified_lower: float
    upper: float
    certified: bool
    n_points: int
    iterations: int
    seed: int


def _problem_hash(prob: BallProblem) -> str:
    payload = json.dumps(
        {
            "k": list(prob.k),
            "n": prob.n,
            "p": [str(v) for v in prob.p.p],
            "q": [str(v) for v in prob.q.p],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def sandwich_report(
    prob: BallProblem,
    cfg: Optional[OracleConfig] = None,
    ledger_path: Optional[str] = None,
) -> SandwichReport:
    """Bracket the width of a finite point set of ``B_p`` in ``l_q``.

    Desk-scale guard: total dimension at most 64 and n at most 8.  The
    lower route scales the planned corner block into the ball and uses the
    exact Euclidean bound plus the norm comparison ``||x||_q >= prod
    k^(1/q-1/2) ||x||_2``; it is a certified lower bound on ``d_n(B_p,
    l_q)``.  The upper route runs :func:`width_upper` on the block orbit
    plus ball points, so ``upper`` is the width witnessed by one subspace
    for the hull of those sampled points, not a certified upper bound on
    the ball's width: the hull is the whole ball only when every ``p_j`` is
    1 or inf and all of the ball's vertices fit in the point budget;
    otherwise the ball points are random boundary samples.  When the orbit
    is fully enumerated the bracket must hold and is asserted; a violated
    bracket raises :class:`PropertyViolation`.  Appends one CSV row per
    call when ``ledger_path`` is given.
    """
    cfg = cfg or OracleConfig()
    if prob.K > 64 or prob.n > 8:
        raise DeskScaleError(
            f"desk-scale guard: K={prob.K} (max 64), n={prob.n} (max 8)"
        )
    plan = lower_bound_plan(prob)
    v = VSet(prob.k, plan.s)
    scale_pp = PowerProduct.one()
    for sj, rpj in zip(plan.s, prob.p.recip):
        scale_pp = scale_pp * PowerProduct.power(sj, -rpj)
    scale = scale_pp.value()

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 31337)))
    orbit = _orbit_points(v.k, v.s, cfg.point_budget)
    certified = orbit is not None and len(orbit) <= cfg.point_budget
    if not certified:
        orbit = []
        seen = set()
        for _ in range(cfg.point_budget // 2):
            g = sample_group_element(v.k, rng)
            arr = vset_extreme_point(v, g=g).array
            if arr.tobytes() in seen:
                continue
            seen.add(arr.tobytes())
            orbit.append(arr)
    extras = _ball_extras(prob, cfg.point_budget - len(orbit), rng)
    points = [Tensor.from_array(scale * arr) for arr in orbit]
    points += [Tensor.from_array(arr) for arr in extras]

    est = width_upper(points, prob.n, prob.q, cfg)
    lower_ref = width_lower_vset(v, prob.n, prob.q) * scale

    norm_gap = PowerProduct.one()
    for kj, rqj in zip(prob.k, prob.q.recip):
        norm_gap = norm_gap * PowerProduct.power(kj, rqj - _HALF)
    cert = scale * norm_gap.value() * vset_l2_lower(v, prob.n)

    if certified and est.value < cert * (1 - 1e-9):
        raise PropertyViolation(
            f"sandwich inverted: certified lower {cert} exceeds upper {est.value}"
        )

    report = SandwichReport(
        problem_hash=_problem_hash(prob),
        k=prob.k,
        n=prob.n,
        regime=plan.regime,
        s=plan.s,
        phi_value=phi(prob).value,
        lower_reference=lower_ref,
        certified_lower=cert,
        upper=est.value,
        certified=certified,
        n_points=len(points),
        iterations=est.iterations,
        seed=cfg.seed,
    )
    if ledger_path:
        _append_ledger(ledger_path, report)
    return report


_LEDGER_FIELDS = [
    "problem_hash",
    "k",
    "n",
    "regime",
    "s",
    "phi_value",
    "lower_reference",
    "certified_lower",
    "upper",
    "certified",
    "n_points",
    "iterations",
    "seed",
]


def _append_ledger(path: str, report: SandwichReport):
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_LEDGER_FIELDS)
        if fresh:
            writer.writeheader()
        row = {name: getattr(report, name) for name in _LEDGER_FIELDS}
        row["k"] = " ".join(str(v) for v in report.k)
        row["s"] = " ".join(str(v) for v in report.s)
        for key in ("phi_value", "lower_reference", "certified_lower", "upper"):
            row[key] = repr(float(row[key]))
        writer.writerow(row)
