"""Dyadic taper degrees and the taper operator, against their definitions.

The degree of axis j at scale m is ``N_j = max(1, floor(2^(beta_j m)))``
with ``beta_j = (1/r_j) / sum_i 1/r_i``: exact in integers for an exact
``r``, by the float formula for a float one.  The taper multiplies the
band of the coefficients by the weights of ``vp_multiplier`` axis by axis,
kept read-only once per pair of degrees.  A sum or difference of
polynomials writes both operands into a zero array of the joined degree.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisowidth import (
    TrigPoly,
    ValidationError,
    dyadic_block,
    vp_at_scale,
    vp_multiplier,
    vp_operator,
)
from anisowidth.exponents import smoothness_vector
from anisowidth.trig_approx import _taper_weights, scale_degrees

# Exact entries with small numerators and denominators, ints, and floats
# that are integers (which the smoothness vector makes exact).
EXACT = st.one_of(
    st.integers(1, 6),
    st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    st.sampled_from([1.0, 2.0, 3.0]),
)


def exact_floor_pow2(x: Fraction) -> int:
    """``floor(2^x)`` by bisection on ``y^b <= 2^a`` for ``x = a/b``."""
    a, b = x.numerator, x.denominator
    lo, hi = 1, 2 ** (a // b + 1)  # 2^(a/b) < hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**b <= 2**a:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=150, deadline=None)
@given(r=st.lists(EXACT, min_size=1, max_size=3), m=st.integers(0, 60))
def test_scale_degrees_are_the_exact_floors_of_the_definition(r, m):
    recips = [1 / Fraction(v) for v in r]
    beta = [v / sum(recips) for v in recips]
    assert scale_degrees(r, m) == tuple(max(1, exact_floor_pow2(bj * m)) for bj in beta)


@settings(max_examples=150, deadline=None)
@given(
    r=st.lists(
        st.one_of(st.integers(1, 6), st.floats(0.3, 6.0).filter(lambda v: not v.is_integer())),
        min_size=1,
        max_size=3,
    ).filter(lambda r: any(isinstance(v, float) for v in r)),
    m=st.integers(0, 60),
)
def test_scale_degrees_keep_the_float_route_for_a_float_entry(r, m):
    recips = [1 / v for v in smoothness_vector(r)]
    total = sum(recips)
    want = tuple(max(1, int(math.floor(2.0 ** (v / total * m) + 1e-12))) for v in recips)
    assert scale_degrees(r, m) == want


# The degrees up to scale 400, each checked in integers, in a child process
# with a timeout: a root that steps by one from a float estimate ran for
# minutes at r = (1, 2), m = 110, and 2**a over the float range overflowed.
_EXACT_UP_TO_400 = """
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from anisowidth.trig_approx import scale_degrees

EXACT = st.one_of(
    st.integers(1, 6),
    st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
    st.sampled_from([1.0, 2.0, 3.0]),
)

def check(r, m):
    recips = [1 / Fraction(v) for v in r]
    for bj, N in zip((v / sum(recips) for v in recips), scale_degrees(r, m)):
        a, b = (bj * m).numerator, (bj * m).denominator
        assert N**b <= 2**a < (N + 1) ** b, (r, m, N)

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(r=st.lists(EXACT, min_size=1, max_size=3), m=st.integers(0, 400))
def exact_up_to_400(r, m):
    check(r, m)

exact_up_to_400()
for m in (101, 110, 151, 512, 4096):
    check((1, 2), m)
print("ok")
"""


def test_scale_degrees_are_exact_up_to_scale_400_and_never_hang():
    res = subprocess.run(
        [sys.executable, "-c", _EXACT_UP_TO_400], capture_output=True, timeout=60
    )
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == b"ok\n"


def test_huge_scales_neither_overflow_nor_run_away():
    t = TrigPoly.random_real((5,), np.random.default_rng(3))
    assert scale_degrees((1.5,), 1100) == (2**1100,)
    assert vp_at_scale(t, (1,), 1100).coeff.tobytes() == vp_operator(t, (5,)).coeff.tobytes()
    assert vp_multiplier(2**1100, 3) == 1.0
    assert vp_multiplier(2**1100, np.arange(-4, 5)).tolist() == [1.0] * 9
    with pytest.raises(ValidationError, match="bits"):
        scale_degrees((1,), 2**18 + 1)


@pytest.mark.parametrize("r", [(1.5,), (1.5, 2.5)])
def test_a_float_entry_at_a_scale_past_the_float_range_is_refused(r):
    # beta_j * m used to end in a raw OverflowError for such an m.
    t = TrigPoly.random_real((2,) * len(r), np.random.default_rng(5))
    for call in (
        lambda: scale_degrees(r, 2**1024),
        lambda: vp_at_scale(t, r, 2**1024),
        lambda: dyadic_block(t, r, 2**1024),
    ):
        with pytest.raises(ValidationError, match="bits"):
            call()


@pytest.mark.parametrize(
    "r, m, digits",
    [((1.5,), 2**1024, 309), ((1, 2), 2**4096, 1234), ((1, 2), 10**5000, 5001)],
    ids=["float-2^1024", "exact-2^4096", "exact-10^5000"],
)
def test_a_refused_scale_has_a_short_message(r, m, digits):
    # The exponent of the power used to be printed in full, twice, and past
    # 4300 digits str() refused it with a ValueError.
    with pytest.raises(ValidationError, match="over the limit of 262144") as err:
        scale_degrees(r, m)
    assert len(str(err.value)) < 200
    assert str(err.value).count(f"<a {digits}-digit integer>") == 2


def test_a_refused_scale_prints_short_numbers_in_full():
    with pytest.raises(ValidationError) as err:
        scale_degrees((1, 2), 10**6)
    assert str(err.value) == (
        "exact degree floor(2^(2000000/3)) needs a power of 2000000 bits, "
        "over the limit of 262144"
    )


def coefficients(draw, degree):
    """Real, complex or zero-mean coefficients of ``degree``, with signed
    zeros in some real and imaginary parts: the taper's products and the
    sums must give them the signs of the operations that define them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["real", "complex", "zero_mean"]))
    if kind == "real":
        coeff = TrigPoly.random_real(degree, rng).coeff
    else:
        shape = tuple(2 * N + 1 for N in degree)
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if kind == "zero_mean":
            coeff[degree] = 0.0
    parts = coeff.view(np.float64)
    zeros = rng.random(parts.shape) < 0.2
    parts[zeros] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[zeros]
    return coeff


# degrees up to 40 on at most 20,000 coefficients: bands wider than the
# taper degree (D_j > N_j) occur, and the arrays stay small
DEGREES = st.lists(st.integers(0, 40), min_size=1, max_size=3).filter(
    lambda degree: math.prod(2 * N + 1 for N in degree) <= 20_000
)


@st.composite
def polynomials(draw):
    degree = tuple(draw(DEGREES))
    coeff = coefficients(draw, degree)
    N = tuple(draw(st.lists(st.integers(1, 40), min_size=len(degree), max_size=len(degree))))
    return TrigPoly(degree, coeff), N


@settings(max_examples=200, deadline=None)
@given(case=polynomials())
def test_vp_operator_is_the_band_times_the_multipliers_byte_for_byte(case):
    t, N = case
    before = t.coeff.copy()
    out_deg = tuple(min(Nf, 2 * Nj - 1) for Nf, Nj in zip(t.degree, N))
    want = t.coeff[tuple(slice(Nf - Dj, Nf + Dj + 1) for Nf, Dj in zip(t.degree, out_deg))]
    for axis, (Nj, Dj) in enumerate(zip(N, out_deg)):
        shape = [1] * want.ndim
        shape[axis] = 2 * Dj + 1
        want = want * vp_multiplier(Nj, np.arange(-Dj, Dj + 1)).reshape(shape)
    # The first call may compute a pair's weights and the second finds
    # them kept; both must give the definition's bytes.
    for _ in range(2):
        got = vp_operator(t, N)
        assert got.degree == out_deg
        assert got.coeff.shape == want.shape
        assert got.coeff.tobytes() == want.tobytes()
        assert not np.shares_memory(got.coeff, t.coeff)
        got.coeff[...] = 7.0
        assert t.coeff.tobytes() == before.tobytes()


def test_kept_taper_weights_are_read_only_and_shared_with_no_result():
    # that no result shares them is checked in tests/test_trig_plans.py
    for Nj, Dj in [(1, 0), (1, 1), (3, 5), (4, 7), (2**1100, 4)]:
        weights = _taper_weights(Nj, Dj)
        assert weights is _taper_weights(Nj, Dj)
        assert weights.tobytes() == vp_multiplier(Nj, np.arange(-Dj, Dj + 1.0)).tobytes()
        with pytest.raises(ValueError):
            weights[0] = 2.0


@st.composite
def operand_pairs(draw):
    """Two polynomials of one dimension d <= 3 and different degrees."""
    d = draw(st.integers(1, 3))
    degrees = st.tuples(*[st.integers(0, 6)] * d)
    da = draw(degrees)
    db = draw(degrees.filter(lambda degree: degree != da))
    return TrigPoly(da, coefficients(draw, da)), TrigPoly(db, coefficients(draw, db))


@settings(max_examples=200, deadline=None)
@given(pair=operand_pairs())
def test_sums_and_differences_are_their_definition_byte_for_byte(pair):
    a, b = pair
    degree = tuple(max(x, y) for x, y in zip(a.degree, b.degree))

    def band(inner):
        return tuple(slice(D - N, D + N + 1) for N, D in zip(inner, degree))

    for sign, got in ((1, a + b), (-1, a - b)):
        want = np.zeros(tuple(2 * D + 1 for D in degree), dtype=complex)
        want[band(a.degree)] = a.coeff
        want[band(b.degree)] += sign * b.coeff
        assert got.degree == degree
        assert got.coeff.dtype == want.dtype and got.coeff.shape == want.shape
        assert got.coeff.tobytes() == want.tobytes()
        assert not np.shares_memory(got.coeff, a.coeff)
        assert not np.shares_memory(got.coeff, b.coeff)
