"""Bit identity of the norm kernels.

The Powell polish turns a last-bit change in any norm into a different upper
value, so the kernels are compared with ``==`` here, never approximately:
against a copy of the per-call reference kernel that derives each exponent
from its ``Fraction`` on every call, and against frozen sandwich values.
The oracle's polish cutoff and its dual-bound prunes are held to the same
standard: ``width_upper`` must give exactly what the loop that polishes every
top point gives, with no more solves or polishes than the cutoff alone ran,
and its best-first order exactly what the fixed order gives, with fewer.
Its certified early exits are too: ``_evaluate_exact`` must give exactly
what its version without them gives, below the cutoff, with fewer points
solved and fewer Powell starts, for one-column bases as well.  The solve of
a subset of the points rests on two facts about BLAS products, checked as a
property under three OpenBLAS core types.  The lean kernels must give the
bits of the kernels that divided by 1 on an all-zero fibre.
"""

import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anisowidth import width_oracle
from anisowidth import (
    BallProblem,
    ExponentVector,
    OracleConfig,
    Tensor,
    ValidationError,
    as_exponents,
    lower_bound_plan,
    mixed_norm,
    norming_functional,
    sandwich_report,
    width_upper,
)
from anisowidth.mixed_norm import (
    _in_range,
    _ldexp,
    _mixed_norm_array,
    _norming_array,
    _reduce_axis0,
)
from anisowidth.width_oracle import (
    _POLISH_TOP,
    SubspaceCandidate,
    WidthEstimate,
    _descend,
    _dual_lower,
    _evaluate_exact,
    _inner_solve,
    _is_flat_two,
    _orbit_points,
    _polish_point,
    _stack_points,
    harmonic_frame,
)

EXPONENTS = [1, 2, 4, math.inf, Fraction(3, 2), 2.5]
# 9/5 is an exponent whose float reads 1.8 through Fraction arithmetic but
# 1.7999999999999998 as 1.0 / float(5/9): the plan must take the first route.
REFERENCE_EXPONENTS = EXPONENTS + [Fraction(9, 5)]
SHAPES = [(5,), (3, 4), (2, 3, 2)]


def _reference_reduce(a, recip):
    """The kernel as it reads without a plan: exponent rederived per call."""
    if recip == 0:
        return a.max(axis=0)
    if recip == 1:
        return a.sum(axis=0)
    if 2 * recip == 1:
        return np.sqrt((a * a).sum(axis=0))
    pf = float(Fraction(1, 1) / recip) if isinstance(recip, Fraction) else 1.0 / recip
    m = a.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(m > 0, a / np.where(m > 0, m, 1.0), 0.0)
    return m * (scaled**pf).sum(axis=0) ** (1.0 / pf)


def _reference_norm(arr, q):
    a = np.abs(arr)
    for recip in q.recip:
        a = _reference_reduce(a, recip)
    return a


def _reference_norming(arr, q):
    a = np.abs(arr)
    partials = [a]
    for recip in q.recip:
        partials.append(_reference_reduce(partials[-1], recip))
    y = np.sign(arr)
    for k, recip in enumerate(q.recip):
        prev, cur = partials[k], partials[k + 1]
        if recip == 0:
            w = np.zeros_like(prev)
            idx = np.expand_dims(np.argmax(prev, axis=0), axis=0)
            np.put_along_axis(w, idx, 1.0, axis=0)
        else:
            pf = float(Fraction(1, 1) / recip) if isinstance(recip, Fraction) else 1.0 / recip
            cur_safe = np.where(cur > 0, cur, 1.0)
            w = np.where(cur > 0, prev / cur_safe, 0.0) ** (pf - 1.0)
        y = y * w
    return y


# Entries away from the underflow range, where the kernels take no fallback.
_entries = st.one_of(st.just(0.0), st.floats(1e-3, 100), st.floats(-100, -1e-3))


@st.composite
def tensors_and_exponents(draw, batch=False):
    shape = draw(st.sampled_from(SHAPES))
    if batch:
        shape = shape + (draw(st.integers(1, 4)),)
    arr = draw(hnp.arrays(np.float64, shape, elements=_entries))
    d = len(shape) - (1 if batch else 0)
    q = as_exponents([draw(st.sampled_from(REFERENCE_EXPONENTS)) for _ in range(d)])
    return arr, q


def test_plan_follows_the_exponent_tests():
    q = as_exponents([math.inf, 1, 2, 4, Fraction(3, 2), 2.5, 1.0, 2.0])
    kinds = [kind for kind, _ in q.plan]
    assert kinds == ["max", "sum", "two", "pow", "pow", "pow", "sum", "two"]
    assert [pf for _, pf in q.plan[1:]] == [1.0, 2.0, 4.0, 1.5, 2.5, 1.0, 2.0]
    assert ExponentVector((0.5,)).plan == (("two", 2.0),)
    assert q.dual().plan[0] == ("sum", 1.0)


@settings(max_examples=120, deadline=None)
@given(tensors_and_exponents())
def test_scalar_kernels_match_reference(case):
    arr, q = case
    x = Tensor.from_array(arr)
    assert mixed_norm(x, q) == float(_reference_norm(x.array, q))
    assert np.array_equal(norming_functional(x, q).array, _reference_norming(x.array, q))


@settings(max_examples=120, deadline=None)
@given(tensors_and_exponents(batch=True))
def test_batched_kernels_match_reference(case):
    arr, q = case
    assert np.array_equal(_mixed_norm_array(arr, q), _reference_norm(arr, q))
    norm, y = _norming_array(arr, q)
    assert np.array_equal(norm, _reference_norm(arr, q))
    assert np.array_equal(y, _reference_norming(arr, q))


@pytest.mark.parametrize(
    "shape, q",
    [
        ((5,), (2,)),
        ((3, 4), (2, 4)),
        ((3, 4), (Fraction(3, 2), 2)),
        ((2, 3, 2), (2, math.inf, 1)),
    ],
)
def test_batched_kernel_rescues_each_column_like_a_single_tensor(shape, q):
    # The squares of the 1e-200 column underflow: that column is recomputed
    # on its own, and every column must equal the single-tensor call.
    q = as_exponents(q)
    batch = np.random.default_rng(7).standard_normal(shape + (3,))
    batch[..., 1] *= 1e-200
    norm, y = _norming_array(batch, q)
    assert np.array_equal(_mixed_norm_array(batch, q), norm)
    assert norm[1] > 0
    for j in range(3):
        x = Tensor.from_array(batch[..., j])
        assert norm[j] == mixed_norm(x, q)
        assert np.array_equal(y[..., j], norming_functional(x, q).array)
    batch[(0,) * len(shape) + (2,)] = math.nan
    with pytest.raises(ValidationError, match="NaN"):
        _mixed_norm_array(batch, q)


@pytest.mark.parametrize(
    "shape, q", [((3, 4), (2, 1)), ((2, 3, 2), (2, 1, 1)), ((2, 3, 2), (2, 1, math.inf))]
)
def test_norming_is_zero_on_a_fibre_whose_squares_underflow(shape, q):
    # The squares of the first axis-1 fibres underflow to a zero norm while
    # every column's norm stays in range, so no rescue runs: their weights
    # must be 0, as the reference kernel gives them.  The later axes have
    # p = 1 or inf, whose weights do not zero those entries themselves.
    q = as_exponents(q)
    batch = np.random.default_rng(3).standard_normal(shape + (3,))
    batch[:, 0] *= 1e-170
    _, y = _norming_array(batch, q)
    assert (y[:, 0] == 0).all()
    assert np.array_equal(y, _reference_norming(batch, q))


def _divided_reduce_axis0(a, step):
    """``_reduce_axis0`` as it read with ``np.where(m > 0, m, 1.0)`` as its
    divisor: a verbatim copy, kept as the reference for the lean kernel."""
    kind, pf = step
    if kind == "max":
        return a.max(axis=0)
    if kind == "sum":
        return a.sum(axis=0)
    if kind == "two":
        return np.sqrt((a * a).sum(axis=0))
    m = a.max(axis=0)
    # m == 0 only on an all-zero fibre, which divides to 0 by 1 as well.
    scaled = a / np.where(m > 0, m, 1.0)
    return m * np.power(scaled, pf, out=scaled).sum(axis=0) ** (1.0 / pf)


def _divided_rescue(arr, p, r, y):
    """``_rescue`` of :func:`_divided_norming`: a verbatim copy."""
    if np.isnan(arr).any():
        raise ValidationError("NaN in tensor data")
    r = np.array(r)
    for idx in map(tuple, np.argwhere(r < 2.0**-400)):
        col = arr[(...,) + idx]
        m = float(np.abs(col).max())
        if m > 0.0:
            e = math.frexp(m)[1]
            norm, col_y = _divided_norming(np.ldexp(col, -e), p)
            r[idx] = math.ldexp(float(norm), e)
            y[(...,) + idx] = col_y
    return r, y


def _divided_norming(arr, p):
    """``_norming_array`` as it read with ``np.where(cur > 0, cur, 1.0)`` as
    its divisor: a verbatim copy, kept as the reference for the lean kernel."""
    partials = [np.abs(arr)]
    for step in p.plan:
        partials.append(_divided_reduce_axis0(partials[-1], step))
    y = np.sign(arr)
    for k, (kind, pf) in enumerate(p.plan):
        prev, cur = partials[k], partials[k + 1]
        if kind == "max":
            w = np.zeros_like(prev)
            idx = np.expand_dims(np.argmax(prev, axis=0), axis=0)
            np.put_along_axis(w, idx, 1.0, axis=0)
        else:
            # A "sum" or "pow" norm is at least the fibre's maximum, so there
            # cur == 0 only on an all-zero fibre; a "two" norm can be 0 over
            # nonzero entries whose squares underflowed.
            w = np.divide(prev, np.where(cur > 0, cur, 1.0))
            if kind == "two":
                np.copyto(w, 0.0, where=cur == 0)
            np.power(w, pf - 1.0, out=w)
        y *= w
    r = partials[-1]
    return (r, y) if _in_range(r) else _divided_rescue(arr, p, r, y)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Signed zeros, subnormals, entries whose squares underflow (alone or in a
# fibre of them) and entries of the range the entry points leave in place.
_EDGE_ENTRIES = [
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1e-170, -1e-170, 1e-160, 0.75, 1e80
]


@settings(max_examples=300, deadline=None)
@given(st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lean_kernels_keep_the_divided_kernels_bits(data):
    # The lean kernels divide by np.maximum(m, 5e-324), which equals every
    # m > 0 and sends an all-zero fibre to 0 as the divisor 1 did.
    shape = data.draw(st.sampled_from([(3,), (2, 3), (3, 2, 2)])) + (
        data.draw(st.integers(1, 3)),
    )
    # Whole fibres of one entry: all-zero, all-subnormal, all-underflowing.
    entries = st.sampled_from(_EDGE_ENTRIES)
    fill = st.just(data.draw(entries))
    arr = data.draw(hnp.arrays(np.float64, shape, elements=entries, fill=fill))
    kinds = st.sampled_from([math.inf, 1, 2, 4, Fraction(3, 2)])
    q = as_exponents([data.draw(kinds) for _ in shape[:-1]])
    partial = np.abs(arr)
    for step in q.plan:
        lean = _reduce_axis0(partial, step)
        partial = _divided_reduce_axis0(partial, step)
        assert _same_bits(lean, partial)
    norm, y = _norming_array(arr, q)
    ref_norm, ref_y = _divided_norming(arr, q)
    assert _same_bits(norm, ref_norm) and _same_bits(y, ref_y)
    assert _same_bits(_mixed_norm_array(arr, q), ref_norm)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_objective_helper_matches_tensor_route(data):
    shape = data.draw(st.sampled_from([(4,), (3, 2), (2, 2, 2)]))
    K = math.prod(shape)
    n = data.draw(st.integers(1, K - 1))
    q = as_exponents([data.draw(st.sampled_from(EXPONENTS)) for _ in shape])
    floats = st.floats(-10, 10, allow_nan=False)
    x_flat = data.draw(hnp.arrays(np.float64, K, elements=floats))
    B = data.draw(hnp.arrays(np.float64, (K, n), elements=floats))
    c = data.draw(hnp.arrays(np.float64, n, elements=floats))
    fast = _mixed_norm_array((x_flat - B @ c).reshape(shape, order="F"), q)
    assert fast == mixed_norm(Tensor(shape, x_flat - B @ c), q)


def test_sandwich_golden_values():
    # Frozen to the last bit; one case mixes a q = 4 axis with a q = 2 axis
    # and float ball exponents, both run the Powell polish.
    cfg = OracleConfig(restarts=1, outer_iterations=8)
    cases = [
        (BallProblem(k=(3, 2), n=2, p=(1.5, 1.25), q=(4, 2)),
         "0.7039889446880264", "0.6204032394013997"),
        (BallProblem(k=(4,), n=2, p=(1.5,), q=(4,)),
         "0.6441111326258182", "0.5000000000000001"),
    ]
    for prob, upper, lower in cases:
        rep = sandwich_report(prob, cfg)
        assert (repr(rep.upper), repr(rep.certified_lower), repr(rep.iterations)) == (
            upper,
            lower,
            "24",
        )


def test_sandwich_golden_values_at_the_default_config():
    # One instance per n > 0 slot of the benchmark's sandwich cycle, at the
    # default OracleConfig: its six starts descend in lockstep.  Frozen to
    # the last bit before the starts were stacked.
    cases = [
        (BallProblem(k=(4,), n=2, p=(1.5,), q=(4,)),
         "0.6372168364950498", "0.5000000000000001"),
        (BallProblem(k=(4, 4), n=1, p=(1.25, 1.75), q=(4, 4)),
         "0.774746590033626", "0.4841229182759271"),
        (BallProblem(k=(2, 4), n=2, p=(1.5, 1.25), q=(2, 2)),
         "0.8660254037844386", "0.8660254037844386"),
        (BallProblem(k=(3,), n=1, p=(1.75,), q=(4,)),
         "0.8000021829197057", "0.6204032394013997"),
        (BallProblem(k=(3, 2), n=2, p=(1.25, 1.5), q=(4, 2)),
         "0.6579656289456522", "0.6204032394013997"),
        (BallProblem(k=(4, 2), n=3, p=(1.5, 1.75), q=(2, 4)),
         "0.6932349550185216", "0.6647869871181236"),
    ]
    for prob, upper, lower in cases:
        rep = sandwich_report(prob)
        assert (repr(rep.upper), repr(rep.certified_lower), rep.iterations) == (
            upper,
            lower,
            360,
        )


def _lone_residual(X, B, C, shape):
    return (X.T - B @ C).reshape(shape + (X.shape[0],), order="F")


def _lone_inner_solve(X, B, q, shape, C0, iters):
    """``_inner_solve`` for one basis as it read before the starts were
    stacked: a verbatim copy, kept as the reference for the lockstep's bits."""
    C = B.T @ X.T if C0 is None else C0.copy()
    if _is_flat_two(q):
        return C, _mixed_norm_array(_lone_residual(X, B, C, shape), q)
    best_C = C.copy()
    best_f = np.full(X.shape[0], math.inf)
    step = 1.0
    for _ in range(iters):
        f, Y = _norming_array(_lone_residual(X, B, C, shape), q)
        improved = f < best_f
        best_f = np.where(improved, f, best_f)
        best_C[:, improved] = C[:, improved]
        G = -(B.T @ Y.reshape(X.shape[1], X.shape[0], order="F"))
        gn2 = (G * G).sum(axis=0) + 1e-30
        eta = step * 0.5 * f / gn2
        C = C - eta[None, :] * G
        step *= 0.97
    f = _mixed_norm_array(_lone_residual(X, B, C, shape), q)
    improved = f < best_f
    best_f = np.where(improved, f, best_f)
    best_C[:, improved] = C[:, improved]
    return best_C, best_f


def _lone_descend(X, B0, q, shape, cfg):
    """``_descend`` for one start as it read before the starts were stacked."""
    B = B0
    P, K = X.shape
    n = B.shape[1]
    best_val = math.inf
    best_B = B
    C = None
    for it in range(cfg.outer_iterations):
        C, f = _lone_inner_solve(X, B, q, shape, C, iters=4 if it else 30)
        fmax = float(f.max())
        if fmax < best_val:
            best_val, best_B = fmax, B
        spread = max(fmax - float(f.min()), 1e-12)
        tau = max(0.02 * fmax, 0.35 * spread * (0.9 ** it)) + 1e-30
        wts = np.exp((f - fmax) / tau)
        wts /= wts.sum()
        _, Y = _norming_array(_lone_residual(X, B, C, shape), q)
        Yflat = Y.reshape(K, P, order="F")
        G = Yflat @ (wts[:, None] * C.T)
        gn = np.linalg.norm(G) + 1e-30
        eta = (0.5 / (1.0 + it / 8.0)) * math.sqrt(n) / gn
        B, _ = np.linalg.qr(B + eta * G)
        C = B.T @ X.T
    _, f = _lone_inner_solve(X, B, q, shape, None, iters=60)
    if float(f.max()) < best_val:
        best_B = B
    return best_B


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lockstep_starts_keep_their_lone_bits(data):
    shape = data.draw(st.sampled_from([(4,), (3, 2), (2, 2, 2)]))
    K = math.prod(shape)
    # n = 1 half the time: there every product with B^T is matrix-vector.
    n = data.draw(st.one_of(st.just(1), st.integers(1, K - 1)))
    P = data.draw(st.sampled_from([1, 2, 17, 64]))
    exponents = [1, Fraction(3, 2), 2, 4, math.inf]
    q = as_exponents([data.draw(st.sampled_from(exponents)) for _ in shape])
    cfg = OracleConfig(outer_iterations=data.draw(st.sampled_from([1, 3])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((P, K))
    # Strided starts, laid out as width_upper's eigenbasis: the last n
    # columns of a K x K matrix, reversed.  Their matrix-vector products
    # (n = 1 or P = 1) may take other last bits than a contiguous copy's.
    squares = [np.linalg.qr(rng.standard_normal((K, K)))[0] for _ in range(2)]
    squares.append(np.linalg.eigh(X.T @ X)[1])
    strided = [M[:, ::-1][:, :n] for M in squares]
    contiguous = [np.ascontiguousarray(B) for B in strided]
    starts = contiguous + strided
    lone = [_lone_descend(X, B0, q, shape, cfg) for B0 in starts]
    assert np.array_equal(_descend(X, [strided[-1]], q, shape, cfg)[0], lone[-1])
    descended = _descend(X, starts, q, shape, cfg)
    assert len(descended) == len(starts)
    for B0, B, B_lone in zip(starts, descended, lone):
        # A start that no iterate beats comes back itself, layout and all.
        assert np.array_equal(B, B_lone) and (B is B0) == (B_lone is B0)
    descended = _descend(X, np.stack(contiguous), q, shape, cfg)
    assert len(descended) == len(contiguous)
    for B, B_lone in zip(descended, lone):
        assert np.array_equal(B, B_lone)
    for stack in (starts, np.stack(contiguous)):
        C, f = _inner_solve(X, stack, q, shape, None, iters=5)
        for B0, C_s, f_s in zip(stack, C, f):
            C_lone, f_lone = _lone_inner_solve(X, B0, q, shape, None, iters=5)
            assert np.array_equal(C_s, C_lone) and np.array_equal(f_s, f_lone)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inner_solve_keeps_each_points_bits_on_a_column_subset(data):
    # _evaluate_exact solves only the points whose start value reaches its
    # start bound, passed as ``live``: any number at n = 1, at least two for
    # n >= 2.  Each must keep the bits it gets in the full set, also where
    # a product with B or B^T is matrix-vector (BLAS gemv: n = 1, or a
    # single point), whose bits for one point depend on its position among
    # the points.  The strided basis is laid out as width_upper's eigenbasis
    # start.  The functional handed back is the one at the tracked best.
    q = as_exponents(data.draw(st.sampled_from([(Fraction(3, 2),), (4,), (4, 2)])))
    shape = (5,) if q.d == 1 else (3, 2)
    K = math.prod(shape)
    n = data.draw(st.one_of(st.just(1), st.integers(2, K - 1)))
    P = data.draw(st.integers(8, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((P, K))
    B = np.linalg.eigh(X.T @ X)[1][:, ::-1][:, :n]
    if data.draw(st.booleans()):
        B = np.linalg.qr(rng.standard_normal((K, n)))[0]
    C = np.linalg.lstsq(B, X.T, rcond=None)[0]
    full_C, full_f, full_Y = _inner_solve(X, B, q, shape, C, iters=120, functional=True)
    _, Y = _norming_array(_lone_residual(X, B, full_C, shape), q)
    assert np.array_equal(full_Y, Y)
    for size in (1, 2, 7, P) if n == 1 else (2, 7, P):
        live = np.sort(rng.choice(P, size, replace=False))
        sub_C, sub_f = _inner_solve(X, B, q, shape, C, iters=120, live=live)
        assert np.array_equal(sub_C, full_C[:, live]), size
        assert np.array_equal(sub_f, full_f[live]), size


@st.composite
def blas_products(draw):
    """A basis of 1 to 3 columns, laid out as width_upper's eigenbasis start
    (the last columns of a square matrix, reversed) or as a contiguous copy,
    and P columns, 1 to 300, of which a sorted nonempty subset is live.
    Signed zeros and subnormals are among the entries."""
    K = draw(st.integers(1, 16))
    n = draw(st.integers(1, min(3, K)))
    P = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((K, K))[:, ::-1][:, :n]
    if draw(st.booleans()):
        B = np.ascontiguousarray(B)
    Y = rng.standard_normal((K, P))
    for entries in (B, Y):
        spots = rng.random(entries.shape)
        entries[spots < 0.1] = 0.0
        entries[spots > 0.95] = -0.0
        entries[(spots > 0.9) & (spots < 0.92)] = 5e-324
    live = np.sort(rng.choice(P, draw(st.integers(1, P)), replace=False))
    return B, Y, live, rng


@settings(max_examples=200, deadline=None)
@given(blas_products())
def test_blas_products_keep_each_columns_bits(case):
    # What the pruned solve of _inner_solve rests on.  A column of B^T Y
    # gets its bits from its own entries and its position: at full width,
    # the live columns read the same whatever the dead ones hold.  With one
    # column, B @ C is an exact outer product on any set of columns: every
    # entry a single product, the sign of a zero included.
    B, Y, live, rng = case
    dead = np.ones(Y.shape[1], dtype=bool)
    dead[live] = False
    others = Y.copy()
    others[:, dead] = rng.standard_normal((Y.shape[0], int(dead.sum())))
    zeros = Y.copy()
    zeros[:, dead] = 0.0
    products = [(B.T @ M)[:, live] for M in (Y, others, zeros)]
    assert all(_same_bits(M, products[0]) for M in products)
    if B.shape[1] == 1:
        for C in (Y[:1], Y[:1, live]):
            assert _same_bits(B @ C, B * C + 0.0)


def test_blas_products_keep_each_columns_bits_under_each_core_type():
    # OpenBLAS picks its kernels by core type; the property must hold under
    # each of these, with the variable set in the child processes only.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    target = f"{__file__}::test_blas_products_keep_each_columns_bits"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", target]
    children = {}
    try:
        for core in ("SkylakeX", "Haswell", "Prescott"):
            children[core] = subprocess.Popen(
                command,
                env=dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=path),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        for core, child in children.items():
            out, _ = child.communicate(timeout=300)
            assert child.returncode == 0, (core, out)
    finally:
        for child in children.values():
            child.kill()
            child.wait()


def _reference_evaluate_exact(X, B, q, shape, C, f0, start, cutoff) -> float:
    """``_evaluate_exact`` before its certified early exits: a verbatim copy
    of that version, kept as the reference for its value and for the number
    of points solved and Powell starts run.  It solves every point and runs
    both Powell starts of each polish, and it reads no start values ``f0``."""
    if _is_flat_two(q):
        R = X.T - B @ C
        return float(np.sqrt((R * R).sum(axis=0)).max())
    if start >= cutoff:
        return start
    C, f = _inner_solve(X, B, q, shape, C, iters=120)
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
        if val > (second if i == lead else lower):
            val = min(val, _polish_point(X[i], B, q, shape, C[:, i])[0])
        bound = max(bound, val)
    return bound


def _assert_evaluation_matches_reference(X, B, q, shape):
    """At cutoffs around the reference value: the same float wherever the
    reference value is below the cutoff, a value at or above it elsewhere."""
    C = np.linalg.lstsq(B, X.T, rcond=None)[0]
    f0, L = _dual_lower(X, B, q, shape, C)
    start = float(L.max())
    full = _reference_evaluate_exact(X, B, q, shape, C, f0, start, math.inf)
    cutoffs = [math.inf, math.nextafter(full, math.inf), full, (start + full) / 2, start]
    for cutoff in cutoffs:
        val = _evaluate_exact(X, B, q, shape, C, f0, start, cutoff)
        if full < cutoff:
            assert val == full, (cutoff, val, full)
        else:
            assert val >= cutoff, (cutoff, val, full)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(Fraction(3, 2),), (4,), (1,), (4, 2)]),
    st.integers(1, 5),
    # Sets of at most 7 points leave no unpolished seventh value.
    st.one_of(st.integers(1, 7), st.just(30)),
    st.integers(0, 2**32 - 1),
)
# One point reaches the start bound: solved alone, its value would move.
@example((4, 2), 4, 30, 0)
# n = 1: with B^T Y taken on the solved points alone, not at full width,
# the values of the points that reach it would move; so too on two axes.
@example((4,), 1, 30, 2)
@example((4, 2), 1, 7, 7)
def test_early_exits_keep_the_evaluation(q, n, P, seed):
    q = as_exponents(q)
    shape = (4,) if q.d == 1 else (3, 2)
    K = math.prod(shape)
    assume(n < K)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((P, K))
    B = np.linalg.qr(rng.standard_normal((K, n)))[0]
    _assert_evaluation_matches_reference(X, B, q, shape)


@pytest.mark.parametrize("n", [1, 2])
def test_early_exits_keep_the_evaluation_on_a_tied_orbit(n):
    # The 64 corner-block points of ((4, 4), n, (4, 4)), the sandwich slot
    # with the widest bracket at n = 1: from the harmonic frame and the
    # eigenbasis, whole orbits of points share one value.
    prob = BallProblem(k=(4, 4), n=n, p=(1.25, 1.75), q=(4, 4))
    points = _orbit_points(prob.k, lower_bound_plan(prob).s, 256)
    assert len(points) == 64
    X = np.stack([Tensor.from_array(x).data for x in points])
    K, n = X.shape[1], prob.n
    bases = [
        harmonic_frame(K, n),
        np.linalg.eigh(X.T @ X)[1][:, ::-1][:, :n],
        np.linalg.qr(np.random.default_rng(5).standard_normal((K, n)))[0],
    ]
    for B in bases:
        _assert_evaluation_matches_reference(X, B, prob.q, prob.k)


def _full_polish_value(X, B, q, shape):
    """The oracle's exact evaluation with no cutoff: all six top points polished."""
    C = np.linalg.lstsq(B, X.T, rcond=None)[0]
    C, f = _inner_solve(X, B, q, shape, C, iters=120)
    f = f.copy()
    for i in np.argsort(f)[::-1][:6]:
        val, _ = _polish_point(X[i], B, q, shape, C[:, i])
        f[i] = min(f[i], val)
    return float(f.max())


def _full_polish_width_upper(points, n, q, cfg):
    """``width_upper`` for 0 < n < dim and q not flat 2, every evaluation in full."""
    q = as_exponents(q)
    X, shape, n, _ = _stack_points(points, n)
    K = X.shape[1]
    inits = [harmonic_frame(K, n), np.linalg.eigh(X.T @ X)[1][:, ::-1][:, :n]]
    for ridx in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, ridx)))
        inits.append(np.linalg.qr(rng.standard_normal((K, n)))[0])
    best_val, best_B = math.inf, None
    for B0 in inits:
        val0 = _full_polish_value(X, B0, q, shape)
        if val0 < best_val:
            best_val, best_B = val0, B0
        B = _descend(X, [B0], q, shape, cfg)[0]
        valx = _full_polish_value(X, B, q, shape)
        if valx < best_val:
            best_val, best_B = valx, B
    return best_val, best_B, cfg.outer_iterations * len(inits), 12 * len(inits)


def _unit_vectors_and_l1_points(shape, extra, seed):
    """The unit vectors of the box and ``extra`` random points of the l1 sphere.

    The near-symmetric set makes several starts finish within a polish of
    each other, which is where a wrong cutoff would show.
    """
    K = math.prod(shape)
    points = [Tensor(shape, np.eye(K)[i]) for i in range(K)]
    rng = np.random.default_rng(seed)
    for _ in range(extra):
        x = rng.standard_normal(shape)
        points.append(Tensor.from_array(x / np.abs(x).sum()))
    return points


def _cutoff_only_evaluate_exact(X, B, q, shape, C, f0, start, cutoff) -> float:
    """``_evaluate_exact`` with the polish cutoff alone, before the dual-bound
    prunes: a verbatim copy of that version, kept as the reference for the
    number of solves and polishes, that takes the least-squares start ``C``
    from its caller and ignores the start values and bound."""
    if _is_flat_two(q):
        R = X.T - B @ C
        return float(np.sqrt((R * R).sum(axis=0)).max())
    C, f = _inner_solve(X, B, q, shape, C, iters=120)
    order = np.argsort(f)[::-1]
    bound = float(f[order[_POLISH_TOP]]) if f.size > _POLISH_TOP else -math.inf
    for i in order[:_POLISH_TOP]:
        if bound >= cutoff:
            break
        val, _ = _polish_point(X[i], B, q, shape, C[:, i])
        bound = max(bound, float(min(f[i], val)))
    return bound


def _fixed_order_width_upper(points, n, q, cfg):
    """``width_upper`` for 0 < n < dim with its candidates evaluated in the
    fixed order, each start and then its descended basis: a verbatim copy of
    that version's loop, kept as the reference for the number of solves and
    polishes, with each candidate's least-squares start and start bound
    computed before its evaluation."""
    q = as_exponents(q)
    X, shape, n, e = _stack_points(points, n)
    K = X.shape[1]
    inits = [harmonic_frame(K, n)]
    M = X.T @ X
    _, vecs = np.linalg.eigh(M)
    inits.append(vecs[:, ::-1][:, :n])
    for ridx in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, ridx)))
        G = rng.standard_normal((K, n))
        inits.append(np.linalg.qr(G)[0])

    best_val, best_B = math.inf, None
    descended = _descend(X, inits, q, shape, cfg)
    for B0, B1 in zip(inits, descended):
        for B in (B0, B1):
            C = np.linalg.lstsq(B, X.T, rcond=None)[0]
            f0, L = _dual_lower(X, B, q, shape, C)
            val = _evaluate_exact(X, B, q, shape, C, f0, float(L.max()), best_val)
            if val < best_val:
                best_val, best_B = val, B
    return WidthEstimate(
        value=_ldexp(best_val, e),
        witness=SubspaceCandidate(best_B),
        iterations=cfg.outer_iterations * len(inits),
    )


PRUNING_CASES = [
    ((4,), 1, (4,), 4),
    ((4,), 2, (4,), 8),
    ((5,), 3, (4,), 0),
    ((3, 2), 2, (4, 2), 4),
    ((2, 3), 1, (2, 4), 4),
]
ORACLE_CFG = OracleConfig(restarts=2, outer_iterations=10)


@functools.lru_cache(maxsize=None)
def _counted_width_upper(shape, n, q, extra, evaluate=None, fixed_order=False):
    """``width_upper`` on the case's points with its polishes, Powell starts,
    120-iteration solves, the points entering them (the ``live`` ones where
    a solve is given them) and its dual bounds counted, run with the
    reference evaluation ``evaluate`` or, for None, the current one,
    best-first or in the fixed order."""
    points = _unit_vectors_and_l1_points(shape, extra, seed=n)
    counts = {"polish": 0, "powell": 0, "solve": 0, "solved_points": 0, "dual": 0}
    real_polish, real_solve, real_dual = _polish_point, _inner_solve, _dual_lower
    real_minimize = scipy.optimize.minimize

    def polish(*args):
        counts["polish"] += 1
        return real_polish(*args)

    def minimize(*args, **kwargs):
        counts["powell"] += 1
        return real_minimize(*args, **kwargs)

    def solve(*args, **kwargs):
        if kwargs.get("iters") == 120:
            counts["solve"] += 1
            live = kwargs.get("live")
            counts["solved_points"] += len(args[0] if live is None else live)
        return real_solve(*args, **kwargs)

    def dual(*args):
        counts["dual"] += 1
        return real_dual(*args)

    with pytest.MonkeyPatch.context() as mp:
        # The copies above resolve their helpers in this module, the library
        # in its own; the polish imports minimize from scipy.optimize per call.
        for module in (width_oracle, sys.modules[__name__]):
            mp.setattr(module, "_polish_point", polish)
            mp.setattr(module, "_inner_solve", solve)
            mp.setattr(module, "_dual_lower", dual)
        mp.setattr(scipy.optimize, "minimize", minimize)
        if evaluate is not None:
            mp.setattr(width_oracle, "_evaluate_exact", evaluate)
        run = _fixed_order_width_upper if fixed_order else width_upper
        est = run(points, n, q, ORACLE_CFG)
    return est, counts


@pytest.mark.parametrize("shape, n, q, extra", PRUNING_CASES)
def test_polish_cutoff_keeps_width_upper_exact(shape, n, q, extra):
    points = _unit_vectors_and_l1_points(shape, extra, seed=n)
    value, basis, iterations, full_polishes = _full_polish_width_upper(
        points, n, q, ORACLE_CFG
    )
    evaluations = (_cutoff_only_evaluate_exact, _reference_evaluate_exact, None)
    runs = {e: _counted_width_upper(shape, n, q, extra, e) for e in evaluations}
    for est, counts in runs.values():
        assert est.value == value
        assert est.iterations == iterations
        assert np.array_equal(est.witness.basis, basis)
        assert counts["polish"] < full_polishes
    reference, counts = runs[_cutoff_only_evaluate_exact][1], runs[None][1]
    assert counts["polish"] <= reference["polish"]
    assert counts["solve"] <= reference["solve"]
    reference = runs[_reference_evaluate_exact][1]
    assert counts["solve"] == reference["solve"]
    assert counts["solved_points"] <= reference["solved_points"]
    assert counts["powell"] <= reference["powell"]


def test_dual_bounds_prune_solves_and_polishes():
    totals = {e: np.zeros(2, dtype=int) for e in (_cutoff_only_evaluate_exact, None)}
    for case in PRUNING_CASES:
        for evaluate in totals:
            counts = _counted_width_upper(*case, evaluate)[1]
            totals[evaluate] += (counts["polish"], counts["solve"])
    assert (totals[None] < totals[_cutoff_only_evaluate_exact]).all(), totals


def test_early_exits_cut_solved_points_and_powell_starts():
    totals = {e: np.zeros(2, dtype=int) for e in (_reference_evaluate_exact, None)}
    for case in PRUNING_CASES:
        for evaluate in totals:
            counts = _counted_width_upper(*case, evaluate)[1]
            totals[evaluate] += (counts["solved_points"], counts["powell"])
    assert (totals[None] < totals[_reference_evaluate_exact]).all(), totals


def test_one_column_evaluations_solve_fewer_points():
    # n = 1 evaluations solve only the points that reach the start bound,
    # as n >= 2 ones do; every point entered the solve before.
    for case in PRUNING_CASES:
        if case[1] == 1:
            points = {
                e: _counted_width_upper(*case, e)[1]["solved_points"]
                for e in (_reference_evaluate_exact, None)
            }
            assert points[None] < points[_reference_evaluate_exact], (case, points)


def test_best_first_order_keeps_the_result_with_fewer_solves_and_polishes():
    totals = {True: np.zeros(2, dtype=int), False: np.zeros(2, dtype=int)}
    for case in PRUNING_CASES:
        runs = {f: _counted_width_upper(*case, None, f) for f in (True, False)}
        reference, est = runs[True][0], runs[False][0]
        assert est.value == reference.value
        assert est.iterations == reference.iterations
        assert np.array_equal(est.witness.basis, reference.witness.basis)
        for fixed_order, (_, counts) in runs.items():
            totals[fixed_order] += (counts["polish"], counts["solve"])
    assert (totals[False] < totals[True]).all(), totals


def test_each_candidate_takes_its_start_bound_once():
    # width_upper bounds each candidate at its least-squares start once, for
    # its key; every other bound is taken after a 120-iteration solve.
    candidates = 2 * (2 + ORACLE_CFG.restarts)
    for case in PRUNING_CASES:
        counts = _counted_width_upper(*case, None)[1]
        assert counts["dual"] == candidates + counts["solve"], (case, counts)
