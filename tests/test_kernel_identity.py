"""Bit identity of the norm kernels.

The Powell polish turns a last-bit change in any norm into a different upper
value, so the kernels are compared with ``==`` here, never approximately:
against a copy of the per-call reference kernel that derives each exponent
from its ``Fraction`` on every call, and against frozen sandwich values.
The oracle's polish cutoff is held to the same standard: ``width_upper`` must
give exactly what the loop that polishes every top point gives.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    mixed_norm,
    norming_functional,
    sandwich_report,
    width_upper,
)
from anisowidth.mixed_norm import _mixed_norm_array, _norming_array
from anisowidth.width_oracle import (
    _descend,
    _inner_solve,
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


def _full_polish_value(X, B, q, shape, tol):
    """The oracle's exact evaluation with no cutoff: all six top points polished."""
    C = np.linalg.lstsq(B, X.T, rcond=None)[0]
    C, f = _inner_solve(X, B, q, shape, C, iters=120)
    f = f.copy()
    for i in np.argsort(f)[::-1][:6]:
        val, _ = _polish_point(X[i], B, q, shape, C[:, i], tol)
        f[i] = min(f[i], val)
    return float(f.max())


def _full_polish_width_upper(points, n, q, cfg):
    """``width_upper`` for 0 < n < dim and q not flat 2, every evaluation in full."""
    q = as_exponents(q)
    X, shape = _stack_points(points)
    K = X.shape[1]
    inits = [harmonic_frame(K, n), np.linalg.eigh(X.T @ X)[1][:, ::-1][:, :n]]
    for ridx in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, ridx)))
        inits.append(np.linalg.qr(rng.standard_normal((K, n)))[0])
    best_val, best_B = math.inf, None
    for B0 in inits:
        val0 = _full_polish_value(X, B0, q, shape, cfg.inner_tolerance)
        if val0 < best_val:
            best_val, best_B = val0, B0
        _, B = _descend(X, B0, q, shape, cfg)
        valx = _full_polish_value(X, B, q, shape, cfg.inner_tolerance)
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


@pytest.mark.parametrize(
    "shape, n, q, extra",
    [
        ((4,), 1, (4,), 4),
        ((4,), 2, (4,), 8),
        ((5,), 3, (4,), 0),
        ((3, 2), 2, (4, 2), 4),
        ((2, 3), 1, (2, 4), 4),
    ],
)
def test_polish_cutoff_keeps_width_upper_exact(monkeypatch, shape, n, q, extra):
    points = _unit_vectors_and_l1_points(shape, extra, seed=n)
    cfg = OracleConfig(restarts=2, outer_iterations=10)
    value, basis, iterations, full_polishes = _full_polish_width_upper(points, n, q, cfg)

    calls = []

    def counted(*args):
        calls.append(1)
        return _polish_point(*args)

    monkeypatch.setattr(width_oracle, "_polish_point", counted)
    est = width_upper(points, n, q, cfg)
    assert est.value == value
    assert est.iterations == iterations
    assert np.array_equal(est.witness.basis, basis)
    assert len(calls) < full_polishes
