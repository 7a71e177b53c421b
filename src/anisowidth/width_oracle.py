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
cannot change the reported value (:func:`_evaluate_exact`).  The candidate
bases race (:func:`_race`): one batched solve serves every candidate that
can still win, and a candidate leaves it as soon as its start bound, a
certified lower bound on its result, is above another's largest tracked
value, an upper bound on that one's result.  :func:`width_upper` then
evaluates the candidates left in their fixed order, each with the running
best as its cutoff, and keeps the first least value, bit for bit.

Each stage stops once its outcome is settled, and every output bit stays
the same.  Tracked values never rise and never fall below the certified
bounds, so a descent's closing solve drops a basis as soon as it beats its
best iterate, or as soon as the bounds from its first pass show that it
cannot (:func:`_descend`), and the exact evaluation solves only the points
that can reach the maximum, at least two.
One rule, for every subspace dimension, keeps their bits: every product is
taken at full width over zero columns for the points left out, and every
gather of the solved points is C-ordered (:func:`_inner_solve`); so a
point's bits do not depend on which other points or bases share its solve,
and the race solves the union of its candidates' points.  A polish is
skipped, or stops after its first Powell start, once the point's value is
at most a value that another point reaches.  No kernel pass is taken twice:
a descent step takes its norming functionals from its solve's last pass,
a closing solve its bounds from its first, and an evaluation its start
values from the pass that gave its start bound.  A pass costs its kernel
and little else: a solve stacks its bases once and tracks its best values,
coefficients and functionals in place (:func:`_inner_solve`).

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

from ._powell import powell as _powell
from .mixed_norm import (
    DeskScaleError,
    PropertyViolation,
    Tensor,
    ValidationError,
    as_exponents,
    _each_norm,
    _entries,
    _is_flat_two,
    _ldexp,
    _mixed_norm_array,
    _norming_array,
    _prescaled,
    _require_dim,
    _require_int,
    _require_type,
)
from .exponents import _HALF, _require_q_range
from .ball_widths import (
    BallProblem,
    PowerProduct,
    VSet,
    lower_bound_plan,
    phi,
    vset_l2_lower,
)

__all__ = [
    "OracleConfig",
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


def harmonic_frame(K: int, n: int) -> np.ndarray:
    """Orthonormal K x n basis whose projector has a constant diagonal.

    Built from constant / cosine / sine columns on the cyclic group of order
    K; every row of the basis has squared norm n/K, which makes the frame
    optimal for symmetric cross-polytope points.  The columns are the cosine
    and sine of frequencies ``1, ..., n // 2`` (no sine at ``K/2``, where it
    vanishes), led by the constant column when ``n`` is odd; for ``n = K``
    even the constant takes the last slot, so every ``n <= K`` gets a subset
    of the real Fourier basis.
    """
    K = _require_int("K", K, 1)
    n = _require_dim(n, K)
    if n == 0:
        return np.zeros((K, 0))
    i = np.arange(K)
    cols = []
    for f in range(1, n // 2 + 1):
        c = np.cos(2 * math.pi * f * i / K)
        cols.append(c / np.linalg.norm(c))
        if 2 * f < K:
            s = np.sin(2 * math.pi * f * i / K)
            cols.append(s / np.linalg.norm(s))
    if len(cols) < n:
        cols.insert(0 if n % 2 else n - 1, np.full(K, 1.0 / math.sqrt(K)))
    return np.column_stack(cols)


# Bases and coefficients may carry leading batch axes: ``B`` is ``batch +
# (K, n)`` and ``C`` is ``batch + (n, P)``, one basis and its coefficients per
# batch entry.  The kernels see the residuals as ``shape + batch + (P,)``,
# every trailing axis a batch, so one kernel call serves every basis.  A list
# of (K, n) bases is stacked once per solve (:func:`_stacked`), and each basis
# is multiplied in its own layout: a matrix-vector product (n = 1, or a single
# point) goes to BLAS gemv with the vector's stride, and gemv's last bits
# depend on that stride, so a strided start (the eigenbasis of width_upper)
# keeps its own bits only as laid out.  A C-ordered basis has its own layout
# in a stack, so the list's C-ordered bases share one batched product and
# only the others are multiplied alone.


def _stacked(B):
    """A list of bases as ``(stack, alone)``: their stack, and per basis the
    basis itself where it is not C-ordered, to be multiplied alone (None
    elsewhere).  An array of bases is returned as it is."""
    if not isinstance(B, list):
        return B
    return np.stack(B), [None if b.flags.c_contiguous else b for b in B]


def _times(B, M, transpose: bool = False, live=None, wide=None) -> np.ndarray:
    """``B M``, or ``B^T M``, for each basis of ``B``, an array or a pair
    that :func:`_stacked` gives.

    With ``live``, sorted column positions, ``M`` holds only those columns:
    they are written into ``wide``, a zero array of the full width, and the
    live columns of the full-width product are gathered, C-ordered.
    """
    if live is not None:
        wide[..., live] = M
        return np.take(_times(B, wide, transpose), live, axis=-1)
    if isinstance(B, tuple):
        B, alone = B
        out = _times(B, M, transpose)
        for i, b in enumerate(alone):
            if b is not None:
                out[i] = (b.T if transpose else b) @ (M if M.ndim == 2 else M[i])
        return out
    return (B.swapaxes(-1, -2) if transpose else B) @ M


def _batch_residual(X: np.ndarray, B, C: np.ndarray, shape, live=None, wide=None):
    """The residuals ``x_i - B c_i`` in the kernels' layout, ``B C`` taken as
    :func:`_times` takes it.  The difference is written over the product,
    which is C-ordered, as numpy would lay out a new difference."""
    R = _times(B, C, False, live, wide)
    np.subtract(X.T, R, out=R)
    nb = R.ndim - 2
    R = R.transpose((nb, *range(nb), nb + 1))
    return R.reshape(shape + R.shape[1:], order="F")


def _flat_functional(Y: np.ndarray, K: int, nb: int) -> np.ndarray:
    """Norming functionals from the kernels' layout back to ``batch + (K, P)``."""
    Y = Y.reshape((K,) + Y.shape[Y.ndim - nb - 1 :], order="F")
    return Y.transpose((*range(1, nb + 1), 0, nb + 1))


def _inner_solve(X, B, q, shape, C0, iters, live=None, leave=None):
    """Approximate per-point best-approximation coefficients, batched.

    Subgradient descent with best-value tracking; the Euclidean projection
    is the starting point, so for flat q = 2 this is already exact and no
    step is taken.  Returns ``(C, f, Y)``: the tracked coefficients and
    values, and the norming functionals of the tracked residuals in the
    kernels' layout: each is kept from the kernel pass that took its value,
    so a caller that needs them takes no pass of its own.  The evaluation
    after the last step is folded into the loop as one more such pass, with
    no step after it.  Each basis of a batch gives exactly what it gives
    alone.

    ``live``, the sorted positions of at least two of the points of ``X``
    (with ``C0`` given), solves only those points, each with the bits it
    gets in the full set.  One rule keeps them for every ``n``, and each of
    its parts is needed:

    - BLAS gives a column of a product bits that depend on its entries and
      its position among the columns, not on the other columns' entries.
      So both products, ``B C`` and ``B^T Y``, are taken at full width over
      zero columns for the points left out (see :func:`_times`).
    - numpy sums a contiguous axis of 8 or more entries pairwise, in another
      order than a strided one.  So every gather of the live points is
      C-ordered, as the full products are; fancy indexing would give an
      F-ordered ``(n, L)`` array.
    - A lone point's residual is contiguous along the axis the kernels
      reduce, so one point alone would be summed pairwise too.

    So a point gets the same bits whichever other points are live, and a
    stack of bases can be solved over the union of their live sets, as
    :func:`_race` solves its candidates: each basis gets, on its own live
    points, the bits of its lone solve on them.

    ``leave`` is for a caller that needs the result only for some bases of
    a stack: ``leave(kept, fmax, Y)`` marks which of the bases ``kept``
    (indices into the stack) leave the batch, given their largest tracked
    values ``fmax`` and the norming functionals ``Y`` of the last pass, in
    the kernels' layout (None before the first).  It is asked before each
    kernel pass and once after the last, and ``(kept, C, f)`` of the bases
    that stay to the end is returned instead.  A basis that leaves takes no
    further pass; the bases that stay run every iteration with their own
    bits.

    A list of bases is stacked once per solve (:func:`_stacked`), and the
    tracked values, coefficients and functionals are updated in place: the
    first pass's arrays become the tracked ones.
    """
    P, K = X.shape
    B = _stacked(B)
    C = _times(B, X.T, True) if C0 is None else C0
    wide_C = wide_Y = None
    if live is not None:
        X, C = np.take(X, live, axis=0), np.take(C, live, axis=-1)
        wide_C, wide_Y = (np.zeros(C.shape[:-2] + (m, P)) for m in (C.shape[-2], K))
    if _is_flat_two(q):
        iters = 0
    best_C, best_Y = C, None
    best_f = np.full(C.shape[:-2] + (X.shape[0],), math.inf)
    kept = None if leave is None else np.arange(len(best_f))
    step, Y = 1.0, None
    for it in range(iters + 2):
        if leave is not None:
            stay = np.flatnonzero(~leave(kept, best_f.max(axis=-1), Y))
            if stay.size < kept.size:
                kept, C, best_C, best_f = kept[stay], C[stay], best_C[stay], best_f[stay]
                B = (B[0][stay], [B[1][i] for i in stay]) if isinstance(B, tuple) else B[stay]
                if live is not None:
                    wide_C, wide_Y = wide_C[stay], wide_Y[stay]
            if not kept.size:
                break
        if it > iters:
            break
        f, Y = _norming_array(_batch_residual(X, B, C, shape, live, wide_C), q)
        if it == 0:
            best_f, best_C, best_Y = f, (C.copy() if C is C0 else C), Y
        else:
            improved = f < best_f
            np.copyto(best_f, f, where=improved)
            np.copyto(best_C, C, where=improved[..., None, :])
            if leave is None:
                np.copyto(best_Y, Y, where=improved)
        if it == iters:
            continue
        H = _times(B, _flat_functional(Y, K, C.ndim - 2), True, live, wide_Y)
        gn2 = (H * H).sum(axis=-2) + 1e-30
        eta = step * 0.5 * f / gn2
        H *= eta[..., None, :]
        C = np.add(C, H, out=H)
        step *= 0.97
    if leave is not None:
        return kept, best_C, best_f
    return best_C, best_f, best_Y


def _polish_point(x_flat, B, q, shape, c0, floor=-math.inf):
    """Powell's method (:mod:`._powell`) from ``c0`` and then from 0:
    ``(value, c)``, the least value found, which is never above ``c0``'s,
    and its coefficients.

    The second start is skipped once the value is at most ``floor``, a
    value that the caller knows some other point's value reaches (see
    :func:`_evaluate_exact`).  From then on this point cannot set the
    maximum, so a lower value would not change it.
    """

    def fun(c):
        return float(_mixed_norm_array((x_flat - B @ c).reshape(shape, order="F"), q))

    best_c = np.asarray(c0, dtype=float)
    best = fun(best_c)
    for start in (best_c, np.zeros(B.shape[1])):
        val, c = _powell(fun, start, _POLISH_TOL, _POLISH_TOL, 500)
        if val < best:
            best = float(val)
            best_c = c
        if best <= floor:
            break
    return best, best_c


@dataclass
class WidthEstimate:
    """``value`` is attained by the span of ``witness``, a ``K x n`` basis."""

    value: float
    witness: np.ndarray
    iterations: int


def _stack_points(points: Sequence[Tensor], n) -> tuple:
    """``(X, shape, n, e)``: the points as the rows of ``X``, rescaled by
    ``2**-e`` under the range policy of :func:`mixed_norm`, their common
    shape, and the checked subspace dimension ``n``.  ``points`` is a
    vector argument (:func:`_entries`) whose entries must be tensors."""
    points = [_require_type("point", pt, Tensor) for pt in _entries("points", points)]
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
    the best iterate, and a basis leaves it (see :func:`_inner_solve`) as
    soon as that is settled:

    - beaten: its largest tracked value is under its best value.  Tracked
      values never rise, so the full solve would end there too.
    - not beaten: after the first pass, the largest certified bound
      :func:`_dual_bound` gives from that pass's functionals reaches its
      best value.  Every tracked value is at least its point's distance,
      and every distance at least its bound (the argument of the cutoff
      contract of :func:`_evaluate_exact`, with the same margins), so the
      full solve would end with no value under the best one either.

    Only the bases that neither settles run all 60 iterations, and every
    decision, so every returned basis, is the one the full solve gives.
    """
    starts = list(B0)
    B = np.stack(starts)
    S, K, n = B.shape
    best_val = np.full(S, math.inf)
    best_B = starts
    for it in range(cfg.outer_iterations):
        Bi = B if it else starts
        iters = 4 if it else 30
        C, f, Y = _inner_solve(X, Bi, q, shape, None, iters=iters)
        fmax = f.max(axis=1)
        improved = fmax < best_val
        best_val = np.where(improved, fmax, best_val)
        best_B = [b if up else old for b, up, old in zip(Bi, improved, best_B)]
        spread = np.maximum(fmax - f.min(axis=1), 1e-12)
        tau = np.maximum(0.02 * fmax, 0.35 * spread * (0.9**it)) + 1e-30
        wts = np.exp((f - fmax[:, None]) / tau[:, None])
        wts /= wts.sum(axis=1, keepdims=True)
        G = _flat_functional(Y, K, 1) @ (wts[:, :, None] * C.swapaxes(1, 2))
        # Each start's Frobenius norm is one BLAS dot, as np.linalg.norm
        # takes a lone start's, and one batched product takes them all.
        Gf = G.reshape(S, K * n)
        gn = np.sqrt((Gf[:, None, :] @ Gf[:, :, None]).reshape(S)) + 1e-30
        eta = (0.5 / (1.0 + it / 8.0)) * math.sqrt(n) / gn
        B, _ = np.linalg.qr(B + eta[:, None, None] * G)
    settled = None  # the bases the bound settles, once the first pass is in

    def leave(kept, fmax, Y):
        nonlocal settled
        beaten = fmax < best_val[kept]
        if settled is None:
            if Y is None:
                return beaten
            # After the first pass, which no basis leaves before.
            Yf = _flat_functional(Y, K, 1)
            L = np.array([_dual_bound(X, b, q, shape, y).max() for b, y in zip(B, Yf)])
            settled = ~beaten & (L >= best_val)
        return beaten | settled[kept]

    kept, _, _ = _inner_solve(X, B, q, shape, None, iters=60, leave=leave)
    improved = ~settled
    improved[kept] = False
    return [b if up else old for b, up, old in zip(B, improved, best_B)]


# Relative margin by which :func:`_dual_bound` shrinks its bounds, far above
# the relative rounding of the norms and upper values it is compared with.
_DUAL_RTOL = 1e-9


def _dual_lower(X, B, q, shape, C) -> tuple:
    """``(f, L)``: each point's residual norm at ``C`` and the certified
    lower bound :func:`_dual_bound` gives on its distance from the span of
    ``B``, from one kernel pass."""
    P, K = X.shape
    f, Y = _norming_array(_batch_residual(X, B, C, shape), q)
    return f, _dual_bound(X, B, q, shape, Y.reshape(K, P, order="F"))


def _dual_bound(X, B, q, shape, Y) -> np.ndarray:
    """A certified lower bound on each point's distance from the span of
    ``B``, from the norming functionals ``Y``, ``(K, P)``, of its residuals
    at any coefficients.

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
    Z = Y - B @ (B.T @ Y)
    w = np.abs(B.T @ Z).sum(axis=0)
    dual_norm = _mixed_norm_array(Z.reshape(shape + (P,), order="F"), q.dual())
    pairing = (X * Z.T).sum(axis=1)
    pairing -= np.abs(X).sum(axis=1) * (w + K * 2.0**-52 * np.abs(Z).sum(axis=0))
    pairing -= K * 2.0**-1074
    bound = np.zeros(P)
    np.divide(pairing, dual_norm + math.sqrt(K) * w, out=bound, where=pairing > 0)
    return (1.0 - _DUAL_RTOL) * bound


# Points polished by :func:`_evaluate_exact`: the ones farthest from the
# subspace after the batched solve; and the Powell tolerance of each polish.
_POLISH_TOP = 6
_POLISH_TOL = 1e-8


def _evaluate_exact(X, B, q, shape, live, C, f, start, cutoff) -> float:
    """Certified max distance of the points from the span of ``B``.

    ``B`` must be orthonormal, as every starting and descended basis is, and
    have at least one column, and ``q`` must not be flat 2.  ``start`` is
    the largest certified bound :func:`_dual_lower` gives at the points'
    least-squares coefficients, and ``(C, f)`` are the tracked coefficients
    and values of the points ``live`` after the 120-iteration solve from
    there: :func:`_race` solves every candidate's live points at once.  The
    ``_POLISH_TOP`` farthest of them are polished by Powell, farthest first,
    and each keeps the smaller of its two values.

    Every value this function computes for a point (its solved value, or the
    smaller of that and its polish) is at least the point's true distance,
    and :func:`_dual_lower` gives certified bounds ``L_j`` at most the true
    distances; its margins (``_DUAL_RTOL`` and the rounding terms) are far
    above the rounding of the values it is compared with.  So the point
    that set ``start`` keeps every value at or above ``start``, and so does
    the result.  These exits follow, and none moves a returned value:

    - Points solved: only the points whose least-squares value reaches
      ``start`` are live, and at least two whenever there are two (see
      :func:`_live`).  A point left out is below ``start`` there and
      tracked values never rise, so it would end below ``start``, polished
      or not, and cannot set the maximum.  Each solved point has the bits
      it gets in the full batch (see :func:`_inner_solve`), so the polished
      top and the seventh value, where they can set the maximum, are the
      same.  The ``L_j`` below are those of the solved points, taken on
      them alone, so their last bits may differ from those of the full
      set; the exits below hold for any certified bounds, so the returned
      value does not depend on those bits.
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
      ``cutoff`` it is returned at once; otherwise the bounds are retaken
      at the solved points and, as soon as the running lower bound reaches
      ``cutoff``, the remaining polishes are skipped and it is returned.
      Either way the result is ``>= cutoff``, so the test reads false
      exactly as it would on the full result.  Below the cutoff, and with
      ``cutoff = inf``, the result is the full maximum.
    """
    if start >= cutoff:
        return start
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


def _live(f0, start) -> np.ndarray:
    """The points an exact evaluation solves: those whose least-squares
    value ``f0`` reaches the start bound, and at least the two largest."""
    reach = min(start, np.partition(f0, -2)[-2]) if f0.size > 1 else start
    return np.flatnonzero(f0 >= reach)


def _race(X, cands, q, shape, lsq, norms, keys) -> dict:
    """``{i: (live, C, f)}``: the solved live points of every candidate
    ``i`` that can still win, from one batched 120-iteration solve.

    ``lsq``, ``norms`` and ``keys`` are each candidate's least-squares
    coefficients, the points' values there and its start bound.  A
    candidate's result (:func:`_evaluate_exact`) is at least its start
    bound, and at most its largest tracked value at any iteration of the
    solve: tracked values never rise, and a polish only lowers a value.
    So a candidate whose start bound is strictly above another's largest
    tracked value has a strictly larger result and cannot win.  (A
    candidate's points outside its own live set stay below its start bound,
    so its largest tracked value over the union is that over its own live
    points.)  Candidates leave the race by that rule:

    - Before the solve, a candidate whose start bound is strictly above the
      least of the candidates' largest least-squares values never enters.
    - During the solve, a candidate leaves at the first iteration where its
      start bound is strictly above another racing candidate's largest
      tracked value (see :func:`_inner_solve`).

    Below its cutoff an evaluation gives the full maximum, so the winner,
    its value's bits and the witness do not depend on which losers are
    evaluated.  The solve runs over the union of the entrants' live sets
    (:func:`_live`), each basis used as laid out (see :func:`_times`), so
    each candidate gets, on its own live points, the bits of its lone solve
    on them (see :func:`_inner_solve`).
    """
    top = min(float(f0.max()) for f0 in norms)
    enter = [i for i, key in enumerate(keys) if key <= top]
    lives = [_live(norms[i], keys[i]) for i in enter]
    union = reduce(np.union1d, lives)
    starts = np.array([keys[i] for i in enter])

    def beaten(kept, fmax, _):
        # A start bound is at most its own largest tracked value, so only
        # another candidate's can be below it: the least of all will do.
        return starts[kept] > fmax.min()

    kept, C, f = _inner_solve(
        X,
        [cands[i] for i in enter],
        q,
        shape,
        np.stack([lsq[i] for i in enter]),
        iters=120,
        live=union,
        leave=beaten,
    )
    out = {}
    for j, C_j, f_j in zip(kept, C, f):
        at = np.searchsorted(union, lives[j])
        out[enter[j]] = (lives[j], np.take(C_j, at, axis=-1), np.take(f_j, at))
    return out


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
    and its certified max distance.  Each candidate's least-squares start,
    the points' values there and its start bound (the certified bound
    :func:`_dual_lower` gives there) are computed once, here.  Only the
    candidates that can still win are evaluated, each from its share of one
    batched solve (see :func:`_race`), in the fixed order: each start and
    then its descended basis, each with the running best as its cutoff.
    The result is the least value and, among equal values, the first
    candidate, bit for bit: every candidate left out has a larger value
    than another, an evaluation returns its full value when that is below
    the cutoff and a value at or above the cutoff otherwise, and a later
    candidate that ties the running best is not kept.  For
    flat q = 2 the least-squares start is the best approximation, and each
    candidate's value is its largest Euclidean residual there.  For ``n =
    0`` the value is the largest norm of a point, and for ``n = dim`` it is
    0.
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
            witness=np.zeros((K, 0)),
            iterations=0,
        )
    if n == K:
        return WidthEstimate(value=0.0, witness=np.eye(K), iterations=0)

    inits = [harmonic_frame(K, n)]
    M = X.T @ X
    _, vecs = np.linalg.eigh(M)
    inits.append(vecs[:, ::-1][:, :n])
    for ridx in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, ridx)))
        G = rng.standard_normal((K, n))
        inits.append(np.linalg.qr(G)[0])

    # Canonical order: each start, then its descended basis.  The descents
    # never read best_val, so all of them run first, in lockstep.
    cands = [B for pair in zip(inits, _descend(X, inits, q, shape, cfg)) for B in pair]
    lsq = [np.linalg.lstsq(B, X.T, rcond=None)[0] for B in cands]
    if _is_flat_two(q):
        # The least-squares start is the best approximation itself.
        vals = []
        for B, C in zip(cands, lsq):
            R = X.T - B @ C
            vals.append(float(np.sqrt((R * R).sum(axis=0)).max()))
        best_val = min(vals)
        best_i = vals.index(best_val)
    else:
        norms, keys = [], []
        for B, C in zip(cands, lsq):
            f0, L = _dual_lower(X, B, q, shape, C)
            norms.append(f0)
            keys.append(float(L.max()))
        solved = _race(X, cands, q, shape, lsq, norms, keys)
        best_val, best_i = math.inf, None
        for i in sorted(solved):
            val = _evaluate_exact(X, cands[i], q, shape, *solved[i], keys[i], best_val)
            if val < best_val:
                best_val, best_i = val, i
    return WidthEstimate(
        value=_ldexp(best_val, e),
        witness=cands[best_i],
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
    _require_type("v", v, VSet)
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
    return _distinct(reduce(np.multiply.outer, combo) for combo in itertools.product(*per_axis))


def _orbit_sample(k, s, count: int, rng) -> list:
    """The distinct ones of ``count`` random corner-block points: per draw,
    a permutation of each axis and then a sign vector of each axis, and the
    signs at the positions the permutation sends below ``s_j``."""
    points = []
    for _ in range(count):
        perms = [rng.permutation(kj) for kj in k]
        signs = [rng.choice((-1.0, 1.0), size=kj) for kj in k]
        axes = [np.where(perm < sj, sgn, 0.0) for perm, sgn, sj in zip(perms, signs, s)]
        # The outer product gives -0.0 wherever a -1 meets a zero, so two
        # draws of one point could differ in their bytes; + 0.0 makes every
        # zero +0.0, and _distinct's byte keys then see equal points.
        points.append(reduce(np.multiply.outer, axes) + 0.0)
    return _distinct(points)


def _distinct(arrays) -> list:
    """``arrays`` in order, without any array that, or whose negative,
    equals a kept one byte for byte."""
    kept = []
    seen = set()
    for arr in arrays:
        key = arr.tobytes()
        if key in seen or (-arr).tobytes() in seen:
            continue
        seen.add(key)
        kept.append(arr)
    return kept


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
    # One draw is the stream of cap draws of one sample each.  The samples
    # are normed side by side, each laid out as Tensor.array lays it out.
    samples = rng.standard_normal((cap,) + prob.k)
    norms = _each_norm(np.asfortranarray(np.moveaxis(samples, 0, -1)), prob.p)
    return [arr / nrm for arr, nrm in zip(samples, norms) if nrm > 0]


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
    otherwise the ball points are random boundary samples.  The orbit is
    enumerated by :func:`_orbit_points` when it fits the point budget, and
    the report is then ``certified``: the bracket must hold and is
    asserted, and a violated bracket raises :class:`PropertyViolation`.
    A larger orbit is sampled by :func:`_orbit_sample` for half the budget,
    without repeated points, and the report is uncertified.  Appends one
    CSV row per call when ``ledger_path`` is given.
    """
    _require_type("prob", prob, BallProblem)
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
        orbit = _orbit_sample(v.k, v.s, cfg.point_budget // 2, rng)
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
