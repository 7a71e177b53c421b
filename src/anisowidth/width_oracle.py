"""Numerical two-sided width estimates at desk scale.

Upper estimates come from an explicit subspace found by smoothed descent on
the Stiefel manifold: given a finite point set inside a ball, alternate
(a) approximate per-point best approximations from the current subspace and
(b) a retraction step along a softmax-weighted subgradient through the
near-active points.  Any feasible coefficient vector certifies a per-point
distance from above, so the reported value is always a true upper bound for
the hull of the supplied points.  The starts descend in lockstep: each step
stacks their residuals into one batch, so one kernel call serves all of them,
and each start reaches exactly the basis it reaches alone.

The dual route bounds each of those distances from below: the norming
functional of a point's residual, projected onto the orthogonal complement of
the subspace, pairs with the point to at most the distance times its dual
norm (Holder's inequality for mixed norms, Benedek & Panzone 1961; duality
for best approximation, Singer 1970).  The exact evaluation uses these
certified per-point bounds to skip solves, points and polishes whose result
cannot change the reported value (:func:`_evaluate_exact`).  :func:`width_upper`
evaluates its candidate bases best-first, by that bound at each basis's
least-squares start, so the running cutoff falls early; its tie rule keeps
the result of the fixed order bit for bit.

Each stage stops once its outcome is settled, and every output bit stays
the same.  Tracked values never rise, so a descent's closing solve drops a
basis as soon as it beats its best iterate (:func:`_descend`), and the exact
evaluation, for every subspace dimension, solves only the points that can
reach the maximum.  Those points keep their bits because BLAS gives a
column of a product bits that depend on the column's own entries and its
position, not on the other columns: the products with ``B^T`` are taken at
full width over zero columns for the points left out, which matters where a
one-column basis makes them matrix-vector (BLAS gemv), and a one-column
``B C`` is an exact outer product (:func:`_inner_solve`).  A polish is
skipped, or stops after its first Powell start, once the point's value is
at most a value that another point reaches.  No kernel pass is taken twice:
a descent step takes its norming functionals from its solve's last pass,
and an evaluation takes its start values from the pass that gave its start
bound.

Lower estimates are exact closed forms from corner-block hulls
(:func:`width_lower_vset`, :func:`anisowidth.ball_widths.vset_l2_lower`).

Everything is deterministic for a fixed :class:`OracleConfig`.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .mixed_norm import (
    DeskScaleError,
    ExponentVector,
    PropertyViolation,
    Tensor,
    ValidationError,
    as_exponents,
    _ldexp,
    _mixed_norm_array,
    _norming_array,
    _prescaled,
    _require_dim,
    _require_int,
)
from .exponents import _HALF, _require_q_range
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
    "WidthEstimate",
    "width_upper",
    "width_lower_vset",
    "SandwichReport",
    "sandwich_report",
]

@dataclass(frozen=True)
class OracleConfig:
    """Budget and seeding for the numerical width search."""

    restarts: int = 4
    outer_iterations: int = 60
    point_budget: int = 256
    seed: int = 0

    def __post_init__(self):
        _require_int("restarts", self.restarts)
        _require_int("outer_iterations", self.outer_iterations, 1)
        _require_int("point_budget", self.point_budget, 2)
        _require_int("seed", self.seed)


@dataclass
class SubspaceCandidate:
    """An n-dimensional candidate subspace."""

    basis: np.ndarray

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
    K = _require_int("K", K, 1)
    n = _require_dim(n, K)
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


# Bases and coefficients may carry leading batch axes: ``B`` is ``batch +
# (K, n)`` and ``C`` is ``batch + (n, P)``, one basis and its coefficients per
# batch entry.  The kernels see the residuals as ``shape + batch + (P,)``,
# every trailing axis a batch, so one kernel call serves every basis.  ``B``
# may also be a list of (K, n) bases, each multiplied in its own layout: a
# matrix-vector product (n = 1, or a single point) goes to BLAS gemv with the
# vector's stride, and gemv's last bits depend on that stride, so a strided
# start (the eigenbasis of width_upper) keeps its own bits only as laid out.


def _times(B, M, transpose: bool = False) -> np.ndarray:
    """``B M``, or ``B^T M``, for each basis of ``B``."""
    if isinstance(B, list):
        Ms = np.broadcast_to(M, (len(B),) + M.shape[-2:])
        return np.stack([(b.T if transpose else b) @ m for b, m in zip(B, Ms)])
    return (B.swapaxes(-1, -2) if transpose else B) @ M


def _batch_residual(X: np.ndarray, B, C: np.ndarray, shape) -> np.ndarray:
    """The residuals ``x_i - B c_i`` in the kernels' layout."""
    R = X.T - _times(B, C)
    nb = R.ndim - 2
    R = R.transpose((nb, *range(nb), nb + 1))
    return R.reshape(shape + R.shape[1:], order="F")


def _flat_functional(Y: np.ndarray, K: int, nb: int) -> np.ndarray:
    """Norming functionals from the kernels' layout back to ``batch + (K, P)``."""
    Y = Y.reshape((K,) + Y.shape[Y.ndim - nb - 1 :], order="F")
    return Y.transpose((*range(1, nb + 1), 0, nb + 1))


def _inner_solve(X, B, q, shape, C0, iters, below=None, live=None, functional=False):
    """Approximate per-point best-approximation coefficients, batched.

    Subgradient descent with best-value tracking; the Euclidean projection
    is the starting point, so for flat q = 2 this is already exact.  Returns
    the tracked coefficients and values and, with ``functional`` (not with
    ``below``), the norming functionals of the tracked residuals in the
    kernels' layout: each is kept from the kernel pass that took its value,
    so a caller that needs them takes no pass of its own.  The evaluation
    after the last step is folded into the loop as one more such pass, with
    no step after it.  Each basis of a batch gives exactly what it gives
    alone.

    ``live``, the sorted positions of some of the points of ``X`` (with
    ``C0`` given), solves only those points.  Each keeps the bits it gets
    in the full set as long as the products do.  BLAS gives a column of a
    product bits that depend on its own entries and its position among the
    columns, not on the other columns; a one-column ``B`` makes the products
    matrix-vector (BLAS gemv), whose bits do depend on that position.  So
    the products with ``B^T`` are taken at full width, over the functional
    of the live points scattered into zero columns.  The residual's ``B C``
    is taken on the live points alone: for one column of ``B`` it is an
    exact outer product, and for more a product over at least two points
    (gemm), whose columns keep the full product's bits except, under
    OpenBLAS's SkylakeX kernel, on some sets of about 190 points or more.
    :func:`_evaluate_exact` picks the live points to match.

    ``below``, one value per basis of an ``(S, K, n)`` stack, is for a
    caller that asks only whether each basis's largest value ends below
    its entry.  A basis leaves the batch at the first step where its
    largest tracked value is below its entry, and its tracked coefficients
    and values at that step are returned.  Tracked values never rise, so
    the full solve would end below the entry too.  The bases that stay run
    every iteration with their own bits.
    """
    P, K = X.shape
    C = _times(B, X.T, True) if C0 is None else C0
    if live is not None:
        X, C = X[live], C[..., live]
    if _is_flat_two(q):
        f, Y = _norming_array(_batch_residual(X, B, C, shape), q)
        return (C, f, Y) if functional else (C, f)
    best_C, best_Y = C, None
    best_f = np.full(C.shape[:-2] + (X.shape[0],), math.inf)
    if live is not None:
        full = np.zeros(C.shape[:-2] + (K, P))
    if below is not None:
        kept = np.arange(len(below))
        out_C, out_f = np.empty(C.shape), np.empty(best_f.shape)
    step = 1.0
    for it in range(iters + 1):
        if below is not None:
            keep = best_f.max(axis=1) >= below[kept]
            if not keep.all():
                out_C[kept], out_f[kept] = best_C, best_f
                kept, B, C = kept[keep], B[keep], C[keep]
                best_C, best_f = best_C[keep], best_f[keep]
                if not kept.size:
                    return out_C, out_f
        f, Y = _norming_array(_batch_residual(X, B, C, shape), q)
        improved = f < best_f
        best_f = np.where(improved, f, best_f)
        best_C = np.where(improved[..., None, :], C, best_C)
        if functional:
            best_Y = Y if best_Y is None else np.where(improved, Y, best_Y)
        if it == iters:
            break
        Y = _flat_functional(Y, K, C.ndim - 2)
        if live is None:
            H = _times(B, Y, True)
        else:
            full[..., live] = Y
            H = _times(B, full, True)[..., live]
        gn2 = (H * H).sum(axis=-2) + 1e-30
        eta = step * 0.5 * f / gn2
        C = C + eta[..., None, :] * H
        step *= 0.97
    if below is not None:
        out_C[kept], out_f[kept] = best_C, best_f
        return out_C, out_f
    return (best_C, best_f, best_Y) if functional else (best_C, best_f)


def _is_flat_two(q: ExponentVector) -> bool:
    return all(r == _HALF for r in q.recip)


def _polish_point(x_flat, B, q, shape, c0, floor=-math.inf):
    """Powell's method from ``c0`` and then from 0: ``(value, c)``, the
    least value found, which is never above ``c0``'s, and its coefficients.

    The second start is skipped once the value is at most ``floor``, a
    value that the caller knows some other point's value reaches (see
    :func:`_evaluate_exact`).  From then on this point cannot set the
    maximum, so a lower value would not change it.
    """
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
            options={"xtol": _POLISH_TOL, "ftol": _POLISH_TOL, "maxiter": 500},
        )
        if res.fun < best:
            best = float(res.fun)
            best_c = res.x
        if best <= floor:
            break
    return best, best_c


@dataclass
class WidthEstimate:
    value: float
    witness: SubspaceCandidate
    iterations: int


def _stack_points(points: Sequence[Tensor], n) -> tuple:
    """``(X, shape, n, e)``: the points as the rows of ``X``, rescaled by
    ``2**-e`` under the range policy of :func:`mixed_norm`, their common
    shape, and the checked subspace dimension ``n``."""
    if not points:
        raise ValidationError("need at least one point")
    shape = points[0].shape
    for pt in points:
        if pt.shape != shape:
            raise ValidationError("all points must share one shape")
    X = np.stack([pt.data for pt in points])
    n = _require_dim(n, X.shape[1])
    X, e = _prescaled(X)
    return X, shape, n, e


def _descend(X, B0, q, shape, cfg):
    """Smoothed Stiefel descent from each of the starts ``B0``.

    ``B0`` is a stack of S starts, an ``(S, K, n)`` array or a list of
    ``(K, n)`` bases, and the list of the S descended bases is returned.  The
    starts descend in lockstep, so each kernel call serves all of them, and
    each gives exactly the basis it gives alone.  Until the first retraction
    each start is used as laid out (see :func:`_times`), and a start that no
    iterate beats is returned itself, as a lone descent returns it.

    Each outer step takes the norming functionals for its retraction from
    its solve, at the tracked coefficients (see :func:`_inner_solve`), and
    takes no kernel pass of its own: a step of the 4-iteration solve takes
    5 passes, one per iteration and one at its end.

    The closing 60-iteration solve only decides whether the last basis beats
    the best iterate, so it takes the best values as ``below`` (see
    :func:`_inner_solve`): a basis stops once its largest tracked value is
    under its best value.  Only the bases that never get there run all 60
    iterations, and every decision, so every returned basis, is the one the
    full solve gives.
    """
    starts = list(B0)
    B = np.stack(starts)
    K, n = B.shape[1:]
    best_val = np.full(len(starts), math.inf)
    best_B = starts
    C = None
    for it in range(cfg.outer_iterations):
        Bi = B if it else starts
        iters = 4 if it else 30
        C, f, Y = _inner_solve(X, Bi, q, shape, C, iters=iters, functional=True)
        fmax = f.max(axis=1)
        improved = fmax < best_val
        best_val = np.where(improved, fmax, best_val)
        best_B = [b if up else old for b, up, old in zip(Bi, improved, best_B)]
        spread = np.maximum(fmax - f.min(axis=1), 1e-12)
        tau = np.maximum(0.02 * fmax, 0.35 * spread * (0.9**it)) + 1e-30
        wts = np.exp((f - fmax[:, None]) / tau[:, None])
        wts /= wts.sum(axis=1, keepdims=True)
        G = _flat_functional(Y, K, 1) @ (wts[:, :, None] * C.swapaxes(1, 2))
        # One BLAS norm per start, as a lone start computes it.
        gn = np.array([np.linalg.norm(g) for g in G]) + 1e-30
        eta = (0.5 / (1.0 + it / 8.0)) * math.sqrt(n) / gn
        B, _ = np.linalg.qr(B + eta[:, None, None] * G)
        C = _times(B, X.T, True)
    _, f = _inner_solve(X, B, q, shape, None, iters=60, below=best_val)
    improved = f.max(axis=1) < best_val
    return [b if up else old for b, up, old in zip(B, improved, best_B)]


# Relative margin by which :func:`_dual_lower` shrinks its bounds, far above
# the relative rounding of the norms and upper values it is compared with.
_DUAL_RTOL = 1e-9


def _dual_lower(X, B, q, shape, C) -> tuple:
    """``(f, L)``: each point's residual norm at ``C`` and a certified lower
    bound on its distance from the span of ``B``, from one kernel pass.

    ``B`` must be orthonormal.  With ``y_i`` the norming functional of the
    residual ``x_i - B c_i`` and ``z_i = y_i - B B^T y_i``, which is
    orthogonal to span ``B``, every ``c`` gives ``<x_i, z_i> = <x_i - B c,
    z_i> <= ||x_i - B c||_q ||z_i||_{q'}`` (Holder's inequality for mixed
    norms, Benedek & Panzone 1961), so ``<x_i, z_i> / ||z_i||_{q'}`` is at
    most the distance (Singer 1970); any ``c_i`` gives a bound, a better one
    a tighter bound.

    Rounding, with 1-norms, which need no squares that could underflow: the
    computed ``z_i`` is orthogonal only up to ``w_i = B^T z_i``.  The exactly
    orthogonal ``z_i - B w_i`` pairs with ``x_i`` to within ``||x_i||_1
    ||w_i||_1`` of ``<x_i, z_i>`` and has dual norm at most ``||z_i||_{q'} +
    sqrt(K) ||w_i||_1``, and the pairing's own rounding is at most ``K
    2**-52 ||x_i||_1 ||z_i||_1`` plus what its K products lose to underflow,
    at most ``2**-1075`` each; that term is carried as ``K 2**-1074``, since
    ``2**-1075`` itself rounds to 0.  The bound allows for all three and is
    then shrunk by ``_DUAL_RTOL``.  It is 0 where the pairing is not
    positive, e.g. for a point inside span ``B``.
    """
    P, K = X.shape
    f, Y = _norming_array(_batch_residual(X, B, C, shape), q)
    Y = Y.reshape(K, P, order="F")
    Z = Y - B @ (B.T @ Y)
    w = np.abs(B.T @ Z).sum(axis=0)
    dual_norm = _mixed_norm_array(Z.reshape(shape + (P,), order="F"), q.dual())
    pairing = (X * Z.T).sum(axis=1)
    pairing -= np.abs(X).sum(axis=1) * (w + K * 2.0**-52 * np.abs(Z).sum(axis=0))
    pairing -= K * 2.0**-1074
    bound = np.zeros(P)
    np.divide(pairing, dual_norm + math.sqrt(K) * w, out=bound, where=pairing > 0)
    return f, (1.0 - _DUAL_RTOL) * bound


# Points polished by :func:`_evaluate_exact`: the ones farthest from the
# subspace after the batched solve; and the Powell tolerance of each polish.
_POLISH_TOP = 6
_POLISH_TOL = 1e-8


def _evaluate_exact(X, B, q, shape, C, f0, start, cutoff) -> float:
    """Certified max distance of the points from the span of ``B``.

    ``B`` must be orthonormal, as every starting and descended basis is, and
    have at least one column.  ``C`` holds the points' least-squares
    coefficients, and ``(f0, L)`` of :func:`_dual_lower` at them gives their
    values ``f0`` and, as the largest ``L``, ``start``: :func:`width_upper`
    computes all three once per candidate.  After the batched solve from
    ``C`` the ``_POLISH_TOP`` farthest points are polished by Powell,
    farthest first, and each keeps the smaller of its two values.

    Every value this function computes for a point (its solved value, or the
    smaller of that and its polish) is at least the point's true distance,
    and :func:`_dual_lower` gives certified bounds ``L_j`` at most the true
    distances; its margins (``_DUAL_RTOL`` and the rounding terms) are far
    above the rounding of the values it is compared with.  So the point
    that set ``start`` keeps every value at or above ``start``, and so does
    the result.  These exits follow, and none moves a returned value:

    - Points solved: only the points whose value ``f0`` reaches ``start``
      enter the solve, and for ``n >= 2`` at least two.  A point left out
      is below ``start`` at ``C`` and tracked values never rise, so it
      would end below ``start``, polished or not, and cannot set the
      maximum.  Each solved point gets the bits it gets in the full batch
      (see :func:`_inner_solve`): the products with ``B^T`` are taken at
      full width, and the residual's ``B C`` is an exact outer product for
      ``n = 1`` and a product with at least two columns (gemm) for ``n >=
      2``.  So the polished top and the seventh value, where they can set
      the maximum, are the same.  The ``L_j`` below are those of the solved
      points.  For ``n = 1`` their last bits may differ from those of the
      full set, since the products of :func:`_dual_lower` are gemv on the
      solved points alone; the exits below hold for any certified bounds,
      so the returned value does not depend on those bits.
    - A top point ``i`` whose solved value is at most ``max(bound, max_(j !=
      i) L_j)`` is not polished, where ``bound`` is the running maximum of
      the values already settled and of the largest value outside the
      polished top: its value, polished or not, is at most another point's,
      so it cannot set the maximum and the full result is bit-identical.
    - A polish skips its second Powell start once its first brings the
      value to at most that same floor (see :func:`_polish_point`), for the
      same reason.
    - Cutoff contract: the caller uses the result only in the test
      ``result < cutoff``.  The full result is at least every ``L_j``, and a
      polish can only lower a point's value, so the maximum of the ``L_j``,
      of the values already settled and of the largest value outside the
      polished top is a lower bound on it.  When ``start`` reaches
      ``cutoff`` it is returned without the batched solve; after the solve
      the bounds are retaken and, as soon as the running lower bound reaches
      ``cutoff``, the remaining polishes are skipped and it is returned.
      Either way the result is ``>= cutoff``, so the test reads false
      exactly as it would on the full result.  Below the cutoff, and with
      ``cutoff = inf``, the result is the full maximum.
    """
    if _is_flat_two(q):
        R = X.T - B @ C
        return float(np.sqrt((R * R).sum(axis=0)).max())
    if start >= cutoff:
        return start
    reach = start
    # For n >= 2 at least two points, so that B C over them stays a gemm.
    if B.shape[1] > 1 and f0.size > 1:
        reach = min(start, np.partition(f0, -2)[-2])
    live = np.flatnonzero(f0 >= reach)
    C, f = _inner_solve(X, B, q, shape, C, iters=120, live=live)
    X = X[live]
    _, L = _dual_lower(X, B, q, shape, C)
    # max_(j != i) L_j is the largest bound, or the second largest at its owner.
    lead = int(np.argmax(L))
    lower = float(L[lead])
    second = float(np.delete(L, lead).max()) if L.size > 1 else -math.inf
    order = np.argsort(f)[::-1]
    bound = float(f[order[_POLISH_TOP]]) if f.size > _POLISH_TOP else -math.inf
    for i in order[:_POLISH_TOP]:
        if max(bound, lower) >= cutoff:
            return max(bound, lower)
        val = float(f[i])
        floor = max(bound, second if i == lead else lower)
        if val > floor:
            val = min(val, _polish_point(X[i], B, q, shape, C[:, i], floor)[0])
        bound = max(bound, val)
    return bound


def width_upper(
    points: Sequence[Tensor],
    n: int,
    q,
    cfg: Optional[OracleConfig] = None,
) -> WidthEstimate:
    """Upper estimate of the n-width of the hull of ``points`` in ``q``.

    Runs the smoothed Stiefel descent from a harmonic frame, a Euclidean
    dual eigenbasis, and ``cfg.restarts`` seeded random orthonormal bases,
    all in lockstep (see :func:`_descend`); reports the best subspace found
    and its certified max distance.  The candidates, each start and then its
    descended basis, are evaluated best-first: in the order of the certified
    bound :func:`_dual_lower` gives at their least-squares starts, so a good
    basis sets a low cutoff early and the losing ones are pruned.  Each
    candidate's least-squares start, the points' values there and its start
    bound are computed once, here, and passed to :func:`_evaluate_exact`.
    The result is still the least value and, among equal values, the first
    candidate in the fixed order, bit for bit: every pruned evaluation
    returns a value at or above its cutoff, and the cutoff lies just above
    the running best for a candidate that would win a tie.  For ``n = 0``
    the value is the largest norm of a point, and for ``n = dim`` it is 0.
    Deterministic for fixed (cfg.seed, restarts).  The points are rescaled
    under the range policy of :func:`mixed_norm` and the value is scaled
    back, so no stage overflows, and on points whose largest magnitude lies
    outside ``[2**-300, 2**300]`` the value is exact under power-of-two
    scaling.
    """
    return _width_upper(*_stack_points(points, n), q, cfg)


def _width_upper(X, shape, n, e, q, cfg) -> WidthEstimate:
    """:func:`width_upper` of the points ``2**e X``, given as the rows of
    ``X`` laid out as ``Tensor.data``, with ``X``, ``n`` and ``e`` as
    :func:`_stack_points` returns them."""
    cfg = cfg or OracleConfig()
    q = as_exponents(q)
    K = X.shape[1]
    if q.d != len(shape):
        raise ValidationError("exponent vector and point dimension mismatch")
    if n == 0:
        val = _mixed_norm_array(X.T.reshape(shape + (X.shape[0],), order="F"), q).max()
        return WidthEstimate(
            value=_ldexp(float(val), e),
            witness=SubspaceCandidate(np.zeros((K, 0))),
            iterations=0,
        )
    if n == K:
        return WidthEstimate(value=0.0, witness=SubspaceCandidate(np.eye(K)), iterations=0)

    inits = [harmonic_frame(K, n)]
    M = X.T @ X
    _, vecs = np.linalg.eigh(M)
    inits.append(vecs[:, ::-1][:, :n])
    for ridx in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, ridx)))
        G = rng.standard_normal((K, n))
        inits.append(np.linalg.qr(G)[0])

    # Canonical order: each start, then its descended basis.  The descents
    # never read best_val, so all of them run first, in lockstep.  An
    # evaluation that reaches its cutoff returns a value >= cutoff (see
    # _evaluate_exact), so an earlier index, which wins a tie, is evaluated
    # with its cutoff just above best_val and a later one with best_val.
    cands = [B for pair in zip(inits, _descend(X, inits, q, shape, cfg)) for B in pair]
    lsq = [np.linalg.lstsq(B, X.T, rcond=None)[0] for B in cands]
    norms, keys = [], []
    for B, C in zip(cands, lsq):
        f0, L = _dual_lower(X, B, q, shape, C)
        norms.append(f0)
        keys.append(float(L.max()))
    best_val, best_i = math.inf, len(cands)
    for i in sorted(range(len(cands)), key=lambda i: (keys[i], i)):
        cutoff = math.nextafter(best_val, math.inf) if i < best_i else best_val
        val = _evaluate_exact(X, cands[i], q, shape, lsq[i], norms[i], keys[i], cutoff)
        if val < best_val or (val == best_val and i < best_i):
            best_val, best_i = val, i
    return WidthEstimate(
        value=_ldexp(best_val, e),
        witness=SubspaceCandidate(cands[best_i]),
        iterations=cfg.outer_iterations * len(inits),
    )


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
    n = _require_dim(n, v.K)
    _require_q_range(q)
    if _is_flat_two(q):
        return vset_l2_lower(v, n)
    axes = list(zip(v.k, v.s, q.recip))
    threshold = PowerProduct(
        1, [f for k, s, rq in axes for f in ((k, 2 * rq), (s, 1 - 2 * rq))]
    )
    if n == 0 or PowerProduct(Fraction(n)) <= threshold:
        return PowerProduct(1, [(s, rq) for _, s, rq in axes]).value()
    tail = [(n, -_HALF)] + [f for k, s, rq in axes for f in ((k, rq), (s, _HALF))]
    return PowerProduct(1, tail).value()


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
    if all(r in (0, 1) for r in prob.p.recip):
        # The vertices of B_p: one signed one on a p_j = 1 axis, a sign on
        # every entry of a p_j = inf axis.
        s = tuple(1 if r == 1 else kj for kj, r in zip(prob.k, prob.p.recip))
        vertices = _orbit_points(prob.k, s, cap)
        if vertices is not None:
            return vertices[:cap]
    out = []
    for _ in range(cap):
        arr = rng.standard_normal(prob.k)
        # mixed_norm's steps, on the axis-1-fastest layout of Tensor.array.
        scaled, e = _prescaled(np.asfortranarray(arr))
        nrm = _ldexp(float(_mixed_norm_array(scaled, prob.p)), e)
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
    scale = PowerProduct(1, [(s, -rp) for s, rp in zip(plan.s, prob.p.recip)]).value()

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
    points = [scale * arr for arr in orbit] + extras
    X, e = _prescaled(np.stack([np.ravel(x, order="F") for x in points]))

    est = _width_upper(X, prob.k, prob.n, e, prob.q, cfg)
    lower_ref = width_lower_vset(v, prob.n, prob.q) * scale

    norm_gap = PowerProduct(1, [(k, rq - _HALF) for k, rq in zip(prob.k, prob.q.recip)])
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


_LEDGER_FIELDS = [f.name for f in fields(SandwichReport)]


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
