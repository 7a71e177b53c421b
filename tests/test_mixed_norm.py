"""Counting-measure mixed norms: frozen values, invariants, duality."""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anisowidth import (
    EPS_TOL,
    BallProblem,
    ExponentVector,
    Tensor,
    TrigPoly,
    ValidationError,
    as_exponents,
    bernstein_ratio,
    holder_interpolation_check,
    mixed_norm,
    nikolskii_ratio,
    norm_duality_lower,
    norming_functional,
    trig_lp_norm,
    width_exponent,
)

# The package attribute ``mixed_norm`` is the function, not the module.
mn = importlib.import_module("anisowidth.mixed_norm")

# exponent pools used by the random suites
P_POOL = [1, Fraction(3, 2), 2, 3, math.inf]


def _pvec(draw_idx, d):
    return tuple(P_POOL[(draw_idx + i) % len(P_POOL)] for i in range(d))


# ---------------------------------------------------------------------------
# frozen values


def test_all_ones_l1():
    x = Tensor((3, 2), [[1, 1, 1], [1, 1, 1]])
    assert mixed_norm(x, (1, 1)) == 6.0


def test_single_entry_every_exponent():
    x = Tensor((1,), [-5.0])
    for p in (1, 2, 3, math.inf):
        assert mixed_norm(x, (p,)) == 5.0


def test_two_by_two_inner_l2_outer_l1():
    # inner fibers (1,2) and (3,4); l2 then l1
    x = Tensor((2, 2), [[1, 2], [3, 4]])
    assert mixed_norm(x, (2, 1)) == pytest.approx(math.sqrt(5) + 5, rel=1e-14)
    assert mixed_norm(x, (1, 2)) == pytest.approx(math.sqrt(58), rel=1e-14)
    assert mixed_norm(x, (math.inf, 1)) == 6.0
    assert mixed_norm(x, (2, math.inf)) == 5.0


def test_order_of_reduction_matters():
    x = Tensor((2, 2), [[1, 0], [1, 1]])
    # axis 1 first: l1 fibers (1,) sums (1, 2) -> sup 2
    assert mixed_norm(x, (1, math.inf)) == 2.0
    # transposed exponents: sups per fiber (1, 1) -> sum 2 vs (1,1),(0,1)
    assert mixed_norm(x, (math.inf, 1)) == 2.0
    y = Tensor((2, 2), [[1, 1], [0, 1]])
    assert mixed_norm(y, (1, math.inf)) == 2.0
    assert mixed_norm(y, (math.inf, 1)) == 2.0


def test_exponent_vector_roundtrip():
    v = as_exponents((1, 2, math.inf))
    assert v.d == 3
    assert v.p == (1.0, 2.0, math.inf)
    assert v.dual().dual().recip == v.recip
    assert as_exponents(("inf", 2)).recip == (Fraction(0), Fraction(1, 2))


def test_exponent_validation():
    with pytest.raises(ValidationError):
        as_exponents((0.5,))
    with pytest.raises(ValidationError):
        as_exponents((-1,))
    with pytest.raises(ValidationError):
        as_exponents((0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: mixed_norm(Tensor((2,), [1.0, 2.0]), 4),
        lambda: mixed_norm(Tensor((2,), [1.0, 2.0]), "inf"),
        lambda: trig_lp_norm(TrigPoly((1,), [0, 1, 0]), 4),
        lambda: BallProblem(k=(4,), n=1, p=2, q=(4,)),
        lambda: width_exponent(4, (4,), (1,)),
        lambda: as_exponents(b"\x04"),
        lambda: as_exponents(Fraction(3, 2)),
        lambda: as_exponents(np.float64(2.0)),
    ],
    ids=["mixed_norm", "string", "trig_lp_norm", "BallProblem", "width_exponent",
         "bytes", "Fraction", "numpy_float"],
)
def test_scalar_or_string_exponents_refused(call):
    # A scalar is not iterable, and a string is a sequence of characters,
    # not of exponents: both are refused by type, with no raw TypeError.
    with pytest.raises(ValidationError, match="exponents must be a sequence, got"):
        call()


def test_interned_float_and_fraction_keep_their_routes():
    # 1.5 == Fraction(3, 2) and the two hash alike, but one gives a float
    # reciprocal and the other an exact one, whichever is kept first.
    for order in [(1.5, Fraction(3, 2)), (Fraction(3, 2), 1.5)]:
        mn._exponent_vector.cache_clear()
        for _ in range(2):
            for value in order:
                recip = as_exponents((value,)).recip
                exact = type(value) is Fraction
                assert recip == ((Fraction(2, 3),) if exact else (1 / 1.5,))
                assert type(recip[0]) is (Fraction if exact else float)


def test_interned_vectors_keep_refusals_apart():
    assert as_exponents((1,)).recip == (Fraction(1),)
    size = mn._exponent_vector.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValidationError, match="unsupported exponent type bool"):
            as_exponents((True,))
        with pytest.raises(ValidationError, match="unsupported exponent type list"):
            as_exponents(([2],))
        with pytest.raises(ValidationError, match="exponent must be positive"):
            as_exponents((2, 0))
        assert mn._exponent_vector.cache_info().currsize == size
    assert as_exponents((np.int64(2),)).recip == (Fraction(1, 2),)
    assert as_exponents(iter([2, 4])).recip == (Fraction(1, 2), Fraction(1, 4))


def test_equal_typed_keys_share_one_vector():
    v = as_exponents((2, 4))
    assert as_exponents([2, 4]) is v
    assert as_exponents(iter((2, 4))) is v
    assert as_exponents((2.0, 4)) is not v
    assert as_exponents((2.0, 4)) == v
    assert v.dual() is v.dual()
    assert v.dual().dual() is v


def test_warm_calls_parse_and_plan_no_exponent(monkeypatch):
    t = TrigPoly((3, 2), np.arange(35.0).reshape(7, 5) - 17.0)
    x = Tensor((2, 3), [1.0, -2.0, 3.0, 0.5, 0.0, 4.0])

    def calls():
        nikolskii_ratio(t, (2, Fraction(3, 2)), (4, math.inf))
        bernstein_ratio(t, (1, 2), (0.5, 0), (3, 2.5))
        trig_lp_norm(t, (1, 4))
        mixed_norm(x, [3, math.inf])
        width_exponent((1,), (4,), (2,))

    calls()
    counts = {"_recip_of": 0, "_axis_step": 0}
    for name in counts:
        real = getattr(mn, name)

        def spy(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(mn, name, spy)
    for _ in range(3):
        calls()
    assert counts == {"_recip_of": 0, "_axis_step": 0}


def test_nan_rejected():
    x = Tensor((2,), [1.0, float("nan")])
    with pytest.raises(ValidationError):
        mixed_norm(x, (2,))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_data_rejected(bad):
    x = Tensor((2,), [1.0, bad])
    for p in ((3,), (2,), (1,), ("inf",)):
        with pytest.raises(ValidationError, match="non-finite"):
            mixed_norm(x, p)
        with pytest.raises(ValidationError, match="non-finite"):
            norming_functional(x, p)


def test_dimension_mismatch_rejected():
    x = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValidationError):
        mixed_norm(x, (2,))


def test_tensor_shape_guards():
    with pytest.raises(ValidationError):
        Tensor((0, 2), [])
    with pytest.raises(ValidationError):
        Tensor((2, 2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("shape", [(2.5,), (True,), (2.0, 1)])
def test_tensor_sides_must_be_integers(shape):
    # Tensor((2.5,), [1, 2]) used to run as shape (2,), (True,) as (1,).
    with pytest.raises(ValidationError, match="tensor side must be an integer"):
        Tensor(shape, [1.0, 2.0])


def test_tensor_sides_accept_numpy_integers():
    t = Tensor((np.int64(2), np.int32(1)), [1.0, 2.0])
    assert t.shape == (2, 1) and all(type(s) is int for s in t.shape)


def test_tensor_from_array_roundtrip():
    arr = np.arange(12.0).reshape(3, 4)
    t = Tensor.from_array(arr)
    assert t.shape == (3, 4)
    assert np.array_equal(t.array, arr)


# ---------------------------------------------------------------------------
# invariants

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.sampled_from([(5,), (3, 4), (2, 3, 2)]),
    elements=st.floats(-100, 100, allow_nan=False),
)


@settings(max_examples=80, deadline=None)
@given(finite_arrays, st.integers(0, 10_000), st.floats(0.01, 50))
def test_homogeneity(arr, pidx, c):
    x = Tensor.from_array(arr)
    p = _pvec(pidx, x.d)
    n1 = mixed_norm(x, p)
    n2 = mixed_norm(Tensor.from_array(c * arr), p)
    assert n2 == pytest.approx(c * n1, rel=1e-10, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(finite_arrays, finite_arrays, st.integers(0, 10_000))
def test_triangle_inequality(a, b, pidx):
    if a.shape != b.shape:
        return
    p = _pvec(pidx, a.ndim)
    lhs = mixed_norm(Tensor.from_array(a + b), p)
    rhs = mixed_norm(Tensor.from_array(a), p) + mixed_norm(Tensor.from_array(b), p)
    assert lhs <= rhs * (1 + 1e-10) + 1e-12


@settings(max_examples=80, deadline=None)
@given(finite_arrays, st.integers(0, 10_000))
def test_sup_below_mixed_below_sum(arr, pidx):
    x = Tensor.from_array(arr)
    p = _pvec(pidx, x.d)
    sup = mixed_norm(x, tuple(math.inf for _ in range(x.d)))
    tot = mixed_norm(x, tuple(1 for _ in range(x.d)))
    mid = mixed_norm(x, p)
    assert sup <= mid * (1 + 1e-10) + 1e-12
    assert mid <= tot * (1 + 1e-10) + 1e-12


@settings(max_examples=60, deadline=None)
@given(finite_arrays, st.integers(0, 10_000))
def test_norming_functional_pairs_to_norm(arr, pidx):
    x = Tensor.from_array(arr)
    p = _pvec(pidx, x.d)
    n = mixed_norm(x, p)
    y = norming_functional(x, p)
    pair = float(np.sum(y.array * x.array))
    assert pair == pytest.approx(n, rel=1e-8, abs=1e-10)
    if n > 1e-9:
        dual_n = mixed_norm(y, as_exponents(p).dual())
        assert dual_n == pytest.approx(1.0, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(finite_arrays, st.integers(0, 10_000))
def test_duality_lower_bounds_norm(arr, pidx):
    x = Tensor.from_array(arr)
    p = _pvec(pidx, x.d)
    n = mixed_norm(x, p)
    att = norm_duality_lower(x, p)
    assert att <= n * (1 + 1e-9) + 1e-12
    if n > 1e-9:
        assert att >= n * (1 - 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1, Fraction(3, 2), 2, 3, 1.01, 7.5, math.inf]),
)
def test_duality_lower_of_one_entry_is_the_norm(a, p):
    # With 64 Gaussian pairings besides the norming functional, their
    # rounding lifted the bound above |a| for most draws.
    x = Tensor((1,), [a])
    assert norm_duality_lower(x, (p,)) == mixed_norm(x, (p,)) == abs(a)


@settings(max_examples=80, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.sampled_from([(5,), (3, 4), (2, 3, 2)]),
        elements=st.one_of(st.just(0.0), st.floats(1e-3, 100), st.floats(-100, -1e-3)),
    ),
    st.integers(0, 10_000),
    st.integers(-1000, 1000),
)
def test_homogeneity_across_the_exponent_range(arr, pidx, e):
    # Scaling by 2**e is exact and keeps these entries normal, so the norm
    # must scale with it even where their squares underflow or overflow.
    x = Tensor.from_array(arr)
    p = _pvec(pidx, x.d)
    expected = math.ldexp(mixed_norm(x, p), e)
    assert mixed_norm(Tensor.from_array(np.ldexp(arr, e)), p) == pytest.approx(
        expected, rel=1e-12
    )


def test_two_norm_of_tiny_and_huge_entries():
    for v in (1e-200, 1e300):
        assert mixed_norm(Tensor.from_array([v, v]), (2,)) == pytest.approx(
            math.sqrt(2) * v, rel=1e-15
        )
        x = Tensor.from_array(np.full((2, 2), v))
        assert mixed_norm(x, (2, 2)) == pytest.approx(2 * v, rel=1e-15)
        assert mixed_norm(x, (2, 1)) == pytest.approx(2 * math.sqrt(2) * v, rel=1e-15)
    assert mixed_norm(Tensor.from_array([1e308, 1e308]), (1,)) == math.inf
    assert mixed_norm(Tensor.from_array([0.0, 0.0]), (2,)) == 0.0


def test_norming_functional_of_tiny_and_huge_entries():
    for v in (1e-200, 1e300, 5e-324):
        y = norming_functional(Tensor.from_array([v, v]), (2,))
        assert y.data.tolist() == pytest.approx([math.sqrt(0.5)] * 2, rel=1e-15)
        x = Tensor.from_array(np.array([[1.0, 3.0], [0.0, 2.0]]) * v)
        ref = norming_functional(Tensor.from_array(x.array / v), (2, 4))
        assert np.allclose(norming_functional(x, (2, 4)).data, ref.data, rtol=1e-15)


def test_interpolation_holds_for_underflowing_squares():
    arr = np.array([9.79970543e-296, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert holder_interpolation_check(Tensor.from_array(arr), (3.0,), 0.5).holds
    arr = np.full(6, 1.32341629e-224)
    assert holder_interpolation_check(Tensor.from_array(arr), (3.0,), 0.5).holds


# ---------------------------------------------------------------------------
# interpolation inequality


def test_interpolation_endpoints():
    x = Tensor.from_array(np.array([[1.0, -2.0], [0.5, 3.0]]))
    q = (3, 4)
    at0 = holder_interpolation_check(x, q, 0.0)
    assert at0.holds and at0.lhs == pytest.approx(at0.rhs, rel=1e-12)
    at1 = holder_interpolation_check(x, q, 1.0)
    assert at1.holds
    assert tuple(float(r) for r in at1.p_tilde.recip) == (0.5, 0.5)


def test_interpolation_requires_q_at_least_two():
    x = Tensor.from_array(np.ones((2, 2)))
    with pytest.raises(ValidationError):
        holder_interpolation_check(x, (1.5, 4), 0.5)
    with pytest.raises(ValidationError):
        holder_interpolation_check(x, (2, 4), 1.5)


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.sampled_from([(6,), (4, 3), (2, 3, 3)]),
        elements=st.floats(-50, 50, allow_nan=False),
    ),
    st.lists(st.floats(2.0, 9.0), min_size=3, max_size=3),
    st.floats(0.0, 1.0),
)
def test_interpolation_holds_randomly(arr, qs, w):
    x = Tensor.from_array(arr)
    q = tuple(qs[: x.d])
    rep = holder_interpolation_check(x, q, w)
    assert rep.holds


def test_eps_tol_small():
    assert 0 < EPS_TOL < 1e-6
