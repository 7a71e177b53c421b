"""Periodic kernels, taper operators, fractional calculus, rate slopes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisowidth import (
    TrigPoly,
    ValidationError,
    approximation_rate,
    bernoulli_kernel,
    bernstein_ratio,
    decaying_series_1d,
    dyadic_block,
    fejer,
    fejer_shift_sum_check,
    lacunary_1d,
    nikolskii_ratio,
    samples_to_trigpoly,
    tensor_series_2d,
    trig_lp_norm,
    vp_at_scale,
    vp_multiplier,
    vp_operator,
    vp_power_kernel,
    weyl_derivative,
    weyl_integral,
)
from anisowidth.mixed_norm import as_exponents
from anisowidth.trig_approx import (
    _difference,
    _grid_norms,
    _half_spectra,
    _slope,
    scale_degrees,
    smoothness_margin,
)


def grid_1d(G):
    return 2 * math.pi * np.arange(G) / G


# ---------------------------------------------------------------------------
# polynomial container


def test_coeff_dict_and_accessor():
    t = TrigPoly.from_coeff_dict((2,), {(1,): 0.5, (-1,): 0.5})
    assert t.c((1,)) == 0.5
    assert t.c((0,)) == 0.0
    with pytest.raises(ValidationError):
        t.c((3,))
    with pytest.raises(ValidationError):
        TrigPoly.from_coeff_dict((1,), {(2,): 1.0})


@pytest.mark.parametrize("key", [(1,), (0, 1, 0), 1, (1.0, 0), (True, 0)], ids=repr)
def test_frequency_keys_need_one_integer_per_axis(key):
    # a one-entry key on a two-axis box used to fill a whole row
    with pytest.raises(ValidationError):
        TrigPoly.from_coeff_dict((2, 2), {key: 5.0})
    with pytest.raises(ValidationError):
        TrigPoly((2, 2)).c(key)


def test_frequency_keys_accept_numpy_integers():
    t = TrigPoly.from_coeff_dict((2, 2), {(np.int64(1), -2): 5.0})
    assert t.c((1, np.int32(-2))) == 5.0
    assert np.count_nonzero(t.coeff) == 1


def test_values_match_direct_sum():
    rng = np.random.default_rng(0)
    t = TrigPoly.random_real((3,), rng)
    G = 16
    x = grid_1d(G)
    direct = np.zeros(G, dtype=complex)
    for k in range(-3, 4):
        direct += t.c((k,)) * np.exp(1j * k * x)
    vals = t.values((G,))
    assert np.abs(vals - direct).max() < 1e-12


def test_values_alias_guard():
    t = TrigPoly((4,))
    with pytest.raises(ValidationError):
        t.values((8,))  # need >= 9


def test_sampling_roundtrip_exact():
    rng = np.random.default_rng(1)
    for deg in ((3,), (2, 3), (1, 2, 2)):
        t = TrigPoly.random_real(deg, rng)
        G = tuple(2 * N + 1 for N in deg)
        back = samples_to_trigpoly(t.values(G), deg)
        assert np.abs(back.coeff - t.coeff).max() < 1e-12


def test_sampling_alias_guard():
    with pytest.raises(ValidationError):
        samples_to_trigpoly(np.zeros(8), (4,))


def test_pad_roundtrip():
    rng = np.random.default_rng(2)
    t = TrigPoly.random_real((2, 3), rng)
    big = t.pad((4, 5))
    assert big.degree == (4, 5)
    assert np.array_equal(big.coeff[2:7, 2:9], t.coeff)
    big.coeff[2:7, 2:9] = 0
    assert not big.coeff.any()
    with pytest.raises(ValidationError, match=r"degree \(2, 3\) does not fit in degree \(1, 5\)"):
        t.pad((1, 5))
    with pytest.raises(ValidationError, match="does not fit"):
        t.pad((4,))


def test_arithmetic_and_reality():
    rng = np.random.default_rng(3)
    a = TrigPoly.random_real((2,), rng)
    b = TrigPoly.random_real((4,), rng)
    s = a + b
    assert s.degree == (4,)
    assert s.c((1,)) == a.c((1,)) + b.c((1,))
    z = s - b - a.pad((4,))
    assert np.abs(z.coeff).max() < 1e-15
    assert not np.iscomplexobj(a.values((8,)))
    assert not np.iscomplexobj((2.0 * a).values((8,)))


def test_is_real_agrees_with_values():
    # A polynomial is real exactly when its coefficients are conjugate
    # symmetric, and then values returns a float array: a 1e-14 imaginary
    # part makes it complex.
    for coeff, real in (
        ([1, 2, 1 + 1e-14j], False),
        ([1j, 2, -1j], True),
        ([1, 2j, 1], False),
        ([0.5, 3, 0.5], True),
    ):
        assert np.iscomplexobj(TrigPoly((1,), coeff).values((5,))) != real, coeff


# ---------------------------------------------------------------------------
# kernels


def test_fejer_order_one_is_constant():
    x = np.linspace(0, 2 * math.pi, 17)
    assert np.abs(fejer(1, x) - 1.0).max() < 1e-12


def test_fejer_peak_and_positivity():
    x = grid_1d(64)
    for m in (2, 5, 9):
        vals = fejer(m, x)
        assert vals[0] == pytest.approx(m)
        assert vals.min() >= -1e-12
        assert abs(float(np.mean(vals)) - 1.0) < 1e-10


def test_fejer_coefficients_are_triangular():
    m = 5
    kern = samples_to_trigpoly(fejer(m, grid_1d(4 * m)), (m - 1,))
    for k in range(-(m - 1), m):
        assert kern.c((k,)) == pytest.approx(1 - abs(k) / m, abs=1e-12)


def test_vallee_poussin_coefficients():
    # The de la Vallee Poussin kernel 2 F_2m - F_m has the taper weights as
    # its coefficients.
    m = 3
    x = grid_1d(8 * m)
    kern = samples_to_trigpoly(2.0 * fejer(2 * m, x) - fejer(m, x), (2 * m - 1,))
    for k in range(-(2 * m - 1), 2 * m):
        expected = 1.0 if abs(k) <= m else (2 * m - abs(k)) / m
        assert kern.c((k,)) == pytest.approx(expected, abs=1e-12)
        assert vp_multiplier(m, k) == pytest.approx(expected, abs=1e-15)


def test_vp_multiplier_values():
    assert vp_multiplier(4, 3) == 1.0
    assert vp_multiplier(4, 4) == 1.0
    assert vp_multiplier(4, 6) == 0.5
    assert vp_multiplier(4, 8) == 0.0
    assert vp_multiplier(4, -6) == 0.5


def test_bernoulli_closed_form_weight_two():
    # 1 + 2 sum k^-2 cos(kx) has an elementary closed form on the period
    for xv in (0.5, 1.0, math.pi):
        approx = bernoulli_kernel(2.0, 0.0, xv, 20000)
        exact = 1.0 + 2.0 * (math.pi**2 / 6 - math.pi * xv / 2 + xv**2 / 4)
        assert approx == pytest.approx(exact, abs=1e-6)


def test_bernoulli_grid_mean_one():
    vals = bernoulli_kernel(2.0, 0.0, grid_1d(2048), 2000)
    assert abs(float(np.mean(vals)) - 1.0) < 1e-10


def test_bernoulli_validation():
    with pytest.raises(ValidationError):
        bernoulli_kernel(0.0, 0.0, 1.0, 100)
    with pytest.raises(ValidationError):
        bernoulli_kernel(2.0, 0.0, 1.0, 0)


def test_power_kernel_matches_derivative_multiplier():
    n, r, alpha = 4, 1.5, 1.0
    kern = samples_to_trigpoly(
        vp_power_kernel(n, r, alpha, grid_1d(8 * n + 1)), (2 * n - 1,)
    )
    for k in range(1, n + 1):
        want = k**r * np.exp(1j * alpha * math.pi / 2)
        assert abs(kern.c((k,)) - want) < 1e-9 * max(1.0, abs(want))
    for k in range(n + 1, 2 * n):
        want = k**r * (2 * n - k) / n * np.exp(1j * alpha * math.pi / 2)
        assert abs(kern.c((k,)) - want) < 1e-9 * max(1.0, abs(want))


def test_shift_sum_window():
    assert fejer_shift_sum_check(8, math.pi / 8) <= 4.0
    with pytest.raises(ValidationError):
        fejer_shift_sum_check(8, 2.0)  # m h too large
    with pytest.raises(ValidationError):
        fejer_shift_sum_check(1, 0.1)  # m h too small


# ---------------------------------------------------------------------------
# taper operator and dyadic blocks


def test_vp_operator_reproduces_band():
    rng = np.random.default_rng(5)
    for deg in ((4,), (3, 2)):
        t = TrigPoly.random_real(deg, rng)
        out = vp_operator(t, deg)
        assert out.degree == t.degree
        assert np.array_equal(out.coeff, t.coeff)


def test_vp_operator_tapers_upper_band():
    t = TrigPoly.from_coeff_dict((8,), {(5,): 1.0, (8,): 1.0, (2,): 1.0})
    out = vp_operator(t, (4,))
    assert out.degree == (7,)  # clamp to 2N - 1
    assert out.c((2,)) == 1.0
    assert out.c((5,)) == pytest.approx(3 / 4)
    assert out.c((7,)) == 0.0


def test_scale_degrees_exact_floors():
    assert scale_degrees((1, 3), 4) == (8, 2)
    assert scale_degrees((1,), 3) == (8,)
    assert scale_degrees((2, 1), 3) == (2, 4)
    assert scale_degrees((2, 1), 1) == (1, 1)
    assert scale_degrees((1, 1), 0) == (1, 1)


def test_dyadic_blocks_telescope():
    rng = np.random.default_rng(6)
    for d, r in ((1, (1,)), (2, (1, 2))):
        t = TrigPoly.random_real(tuple(3 for _ in range(d)), rng)
        M = 4
        total = dyadic_block(t, r, 0)
        for m in range(1, M + 1):
            total = total + dyadic_block(t, r, m)
        direct = vp_at_scale(t, r, M)
        diff = total - direct.pad(total.degree)
        assert np.abs(diff.coeff).max() < 1e-12


def test_dyadic_block_zero_is_coarsest():
    rng = np.random.default_rng(7)
    t = TrigPoly.random_real((4,), rng)
    b0 = dyadic_block(t, (1,), 0)
    v0 = vp_at_scale(t, (1,), 0)
    assert np.array_equal(b0.coeff, v0.coeff)


# ---------------------------------------------------------------------------
# fractional calculus


def test_first_derivative_of_cosine():
    # derivative with unit phase shift sends cos(2x) to -2 sin(2x)
    t = TrigPoly.from_coeff_dict((2,), {(2,): 0.5, (-2,): 0.5})
    dt = weyl_derivative(t, 1, 1, 1)
    x = grid_1d(16)
    expected = -2.0 * np.sin(2 * x)
    assert np.abs(dt.values((16,)).real - expected).max() < 1e-12


def test_weyl_zero_mode_rules():
    t = TrigPoly.from_coeff_dict((1,), {(0,): 2.0, (1,): 1.0})
    assert weyl_derivative(t, 1, 1, 0).c((0,)) == 0.0
    assert weyl_derivative(t, 1, 0, 0).c((0,)) == 2.0
    assert weyl_integral(t, 1, 1, 0).c((0,)) == 0.0
    assert weyl_integral(t, 1, 0, 0).c((0,)) == 2.0


def test_weyl_inversion_grid():
    rng = np.random.default_rng(8)
    for r in (0.5, 1.0, 2.0):
        for alpha in (0.0, 1.0, r):
            t = TrigPoly.random_real((6,), rng)
            t.coeff[6] = 0.0  # zero-mean band
            back = weyl_integral(weyl_derivative(t, 1, r, alpha), 1, r, alpha)
            assert np.abs(back.coeff - t.coeff).max() < 1e-10


def test_weyl_axis_validation():
    t = TrigPoly((2, 2))
    with pytest.raises(ValidationError):
        weyl_derivative(t, 3, 1, 0)
    with pytest.raises(ValidationError):
        weyl_derivative(t, 1, -1, 0)


@pytest.mark.parametrize("fn", [weyl_derivative, weyl_integral])
@pytest.mark.parametrize(
    "r, alpha", [(math.nan, 0), (math.inf, 0), (1, math.nan), (1, math.inf), (0, -math.inf)]
)
def test_weyl_refuses_non_finite_orders_and_phases(fn, r, alpha):
    t = TrigPoly.from_coeff_dict((2,), {(1,): 1.0, (-1,): 1.0, (2,): 0.5})
    with pytest.raises(ValidationError):
        fn(t, 1, r, alpha)


@pytest.mark.parametrize("m", [math.nan, math.inf, 0, 0.5])
def test_kernel_orders_must_be_finite_and_at_least_one(m):
    x = np.linspace(0.0, 1.0, 5)
    calls = [
        lambda: fejer(m, x),
        lambda: vp_multiplier(m, 3),
        lambda: vp_power_kernel(m, 1.0, 0.0, x),
        lambda: fejer_shift_sum_check(m, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("m", [1.5, 2.0, np.float64(3.0), True])
def test_fejer_orders_must_be_integers(m):
    # The closed form is the Fejer kernel only at integer orders: at m = 1.5
    # it read 1.486 at x = 0.3, where the series gives 1.637, and 28.4 at
    # x = 0.3 + 2 pi.
    calls = [
        lambda: fejer(m, 0.3),
        lambda: fejer_shift_sum_check(m, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="integer"):
            call()


def test_fejer_closed_form_is_the_series_and_taper_orders_stay_real():
    x = np.array([0.3, 0.3 + 2 * math.pi, 2.0])
    for m in (np.int64(2), 3):
        series = 1 + 2 * sum((1 - k / m) * np.cos(k * x) for k in range(1, m))
        assert np.allclose(fejer(m, x), series, rtol=0, atol=1e-12)
    assert vp_multiplier(1.5, 2) == pytest.approx(2 / 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kernel_phases_powers_and_steps_must_be_finite(bad):
    with pytest.raises(ValidationError):
        vp_power_kernel(3, bad, 0.0, 0.5)
    with pytest.raises(ValidationError):
        vp_power_kernel(3, 1.0, bad, 0.5)
    with pytest.raises(ValidationError):
        bernoulli_kernel(2.0, bad, 0.5, 100)


_P1 = TrigPoly.random_real((3,), np.random.default_rng(0))
_P2 = TrigPoly.random_real((2, 2), np.random.default_rng(1))

# Integer arguments given as booleans, non-integers or NaN.  Before the
# shared integer check each of these truncated silently, returned NaN
# coefficients, or raised a raw TypeError or ValueError.
INTEGER_MISUSES = {
    "vp_operator degree": lambda: vp_operator(_P1, (1.5,)),
    "scale_degrees scale": lambda: scale_degrees((1,), 1.5),
    "vp_at_scale nan scale": lambda: vp_at_scale(_P1, (1,), math.nan),
    "dyadic_block scale": lambda: dyadic_block(_P1, (1,), 1.5),
    "approximation_rate m_max": lambda: approximation_rate(
        _P1, (1,), (2,), m_max=3.5, check_membership=False
    ),
    "TrigPoly times nan": lambda: _P1 * math.nan,
    "nan times TrigPoly": lambda: complex(1.0, math.nan) * _P1,
    "TrigPoly degree": lambda: TrigPoly((2.5,)),
    "TrigPoly boolean degree": lambda: TrigPoly((True,)),
    "random_real degree": lambda: TrigPoly.random_real((2.5,), np.random.default_rng(0)),
    "values grid": lambda: _P1.values((9.5,)),
    "samples_to_trigpoly degree": lambda: samples_to_trigpoly(np.ones(9), (1.5,)),
    "weyl_derivative axis": lambda: weyl_derivative(_P2, 1.5, 1, 0),
    "vp_power_kernel order": lambda: vp_power_kernel(1.5, 1.0, 0.0, 0.5),
    "bernoulli_kernel truncation": lambda: bernoulli_kernel(2.0, 0.0, 0.5, 10.5),
    "decaying_series_1d terms": lambda: decaying_series_1d(1, terms=20.5),
    "lacunary_1d levels": lambda: lacunary_1d(1, levels=True),
    "tensor_series_2d terms": lambda: tensor_series_2d((1, 2), terms=(8.5, 4)),
}


@pytest.mark.parametrize("call", INTEGER_MISUSES.values(), ids=INTEGER_MISUSES.keys())
def test_integer_arguments_are_refused(call):
    with pytest.raises(ValidationError, match="must be (an integer|finite)"):
        call()


def test_integer_arguments_accept_numpy_integers():
    t = vp_operator(_P1, (np.int64(2),))
    assert t.degree == (3,) and type(t.degree[0]) is int
    a, b = dyadic_block(_P1, (1,), np.int32(2)), dyadic_block(_P1, (1,), 2)
    assert a.degree == b.degree and np.array_equal(a.coeff, b.coeff)


# ---------------------------------------------------------------------------
# norms and inequality ratios


def test_norm_parseval_flat_two():
    rng = np.random.default_rng(9)
    for deg in ((5,), (3, 2)):
        t = TrigPoly.random_real(deg, rng)
        parseval = math.sqrt(float(np.sum(np.abs(t.coeff) ** 2)))
        assert trig_lp_norm(t, tuple(2 for _ in deg)) == pytest.approx(
            parseval, rel=1e-12
        )


def test_norm_grid_refinement_stable_for_even_exponents():
    rng = np.random.default_rng(10)
    t = TrigPoly.random_real((6,), rng)
    for p in ((2,), (4,)):
        a = trig_lp_norm(t, p)
        b = _grid_norms(t.values((16 * 6 + 1,)), as_exponents(p))[0]
        assert abs(a - b) < 1e-8 * max(1.0, a)


def test_norm_sup_exponent():
    t = TrigPoly.from_coeff_dict((1,), {(1,): 0.5, (-1,): 0.5})  # cos x
    assert trig_lp_norm(t, (math.inf,)) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("p", [(2,), (4,)], ids=["parseval", "grid"])
def test_norm_beyond_the_float_range_is_inf(p):
    # The coefficient is finite but its magnitude is not: both routes pick
    # their power-of-two scale from the parts and report inf, as mixed_norm
    # does for a norm that overflows.
    assert trig_lp_norm(TrigPoly((1,), [0, 1.5e308 + 1.5e308j, 0]), p) == math.inf
    wave = TrigPoly((1,), [0, 0, 1.5e308 + 1.5e308j])
    assert smoothness_margin(wave, (0.5,), p) == math.inf
    half = TrigPoly((1,), [0, 0, 0.75e308 + 0.75e308j])
    assert trig_lp_norm(half, p) == pytest.approx(math.hypot(0.75e308, 0.75e308))


@pytest.mark.parametrize("r, j", [((300,), 0), ((1e6,), 0), ((1, 278.5), 1)])
def test_smoothness_margin_refuses_orders_whose_finest_step_power_underflows(r, j):
    # (pi/40)**r_j below the normal range: 0 at r = 300 made the margin's
    # quotient raise ZeroDivisionError, and r = 1e6 overflowed the
    # difference multiplier first.
    t = TrigPoly.random_real((4,) * len(r), np.random.default_rng(1))
    for p in ((2,) * len(r), (4,) * len(r)):
        with pytest.raises(ValidationError, match=f"r_{j} = "):
            smoothness_margin(t, r, p)
    assert smoothness_margin(t, (278,) * len(r), (2,) * len(r)) > 0


def test_nikolskii_constant_and_top_harmonic():
    const = TrigPoly.from_coeff_dict((1,), {(0,): 3.0})
    assert nikolskii_ratio(const, (1,), (2,)) == pytest.approx(1.0, rel=1e-12)
    N = 8
    top = TrigPoly.from_coeff_dict((N,), {(N,): 1.0})
    # |e^(iNx)| = 1, so the ratio is exactly the degree penalty inverse
    assert nikolskii_ratio(top, (1,), (2,)) == pytest.approx(
        N ** -(1 - 0.5), rel=1e-12
    )
    with pytest.raises(ValidationError):
        nikolskii_ratio(TrigPoly((2,)), (1,), (2,))


def test_nikolskii_bounded_on_random_draws():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        t = TrigPoly.random_real((int(rng.integers(2, 12)),), rng)
        worst = max(worst, nikolskii_ratio(t, (1,), (2,)))
    assert worst <= 1.5


def test_bernstein_top_harmonic_ratio_one():
    N = 6
    t = TrigPoly.from_coeff_dict((N,), {(N,): 0.5, (-N,): 0.5})
    assert bernstein_ratio(t, (1,), (1,), (2,)) == pytest.approx(1.0, rel=1e-12)


def test_bernstein_phase_hypothesis():
    t = TrigPoly.from_coeff_dict((2, 2), {(2, 2): 1.0})
    with pytest.raises(ValidationError):
        bernstein_ratio(t, (1, 0), (1, 1), (2, 2))
    val = bernstein_ratio(t, (1, 0), (1, 0), (2, 2))
    assert val == pytest.approx(1.0, rel=1e-10)


def _times_pow2(t, e):
    return TrigPoly(t.degree, np.ldexp(t.coeff.real, e) + 1j * np.ldexp(t.coeff.imag, e))


@st.composite
def unit_polys(draw):
    """A real or complex polynomial, d <= 2, whose largest coefficient
    magnitude lies in [1/2, 1)."""
    degree = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = TrigPoly.random_real(degree, rng)
    if draw(st.booleans()):
        t = TrigPoly(degree, t.coeff + 1j * rng.standard_normal(t.coeff.shape))
    return _times_pow2(t, -math.frexp(float(np.abs(t.coeff).max()))[1])


_NORM_EXPONENTS = (1, 1.5, 2, 3, 4, math.inf)


@settings(max_examples=150, deadline=None)
@given(
    unit_polys(),
    st.one_of(st.integers(-960, -301), st.integers(301, 1000)),
    st.data(),
)
@example(_times_pow2(TrigPoly((2,), [1e307, 2e306, 3e307, 2e306, 1e307]), -1022), 1022, None)
def test_norms_of_out_of_range_coefficients_scale_exactly(u, e, data):
    # Coefficients beyond 2**+-300 are moved into range by a power of two
    # before any transform.  The example's grid differences overflowed
    # (RuntimeWarnings from rfft, then a non-finite refusal), and its
    # order-3 Bernstein ratio read NaN.
    t = _times_pow2(u, e)
    d = u.d
    if data is None:
        p, q, r = (4,), (math.inf,), (1,)
    else:
        p, q, r = (
            tuple(data.draw(st.sampled_from(choices)) for _ in range(d))
            for choices in (_NORM_EXPONENTS, _NORM_EXPONENTS, (0.5, 1, 2, 3))
        )
    for p_ in (p, (2,) * d):
        assert trig_lp_norm(t, p_) == math.ldexp(trig_lp_norm(u, p_), e)
        assert smoothness_margin(t, r, p_) == math.ldexp(smoothness_margin(u, r, p_), e)
        assert bernstein_ratio(t, r, (0,) * d, p_) == bernstein_ratio(u, r, (0,) * d, p_)
    assert nikolskii_ratio(t, p, q) == nikolskii_ratio(u, p, q)


# ---------------------------------------------------------------------------
# finite differences and membership


def finite_difference(values, h, order):
    """The forward difference ``Delta_h^order`` of one-axis samples."""
    return _difference(_half_spectra(values, 0), h, 0, order, len(values))


def test_finite_difference_matches_shifted_samples():
    rng = np.random.default_rng(12)
    t = TrigPoly.random_real((4,), rng)
    G = 32
    h = 0.37
    x = grid_1d(G)
    direct = np.zeros(G)
    # second forward difference from shifted evaluations
    for j, w in ((0, 1.0), (1, -2.0), (2, 1.0)):
        direct += w * np.array(
            [sum((t.c((k,)) * np.exp(1j * k * (xv + (2 - j) * h))).real for k in range(-4, 5)) for xv in x]
    )
    fftway = finite_difference(t.values((G,)).real, h, 2)
    assert np.abs(fftway - direct).max() < 1e-10


def test_finite_difference_amplitude_identity():
    # on a single harmonic the iterated difference has modulus (2 sin(kh/2))^l
    t = TrigPoly.from_coeff_dict((3,), {(3,): 1.0})
    G, h = 32, 0.5
    out = finite_difference(t.values((G,)), h, 2)
    expected = (2 * math.sin(3 * h / 2)) ** 2
    assert np.abs(np.abs(out) - expected).max() < 1e-10


def test_packaged_probes_are_in_class():
    f = decaying_series_1d(1, terms=64)
    assert smoothness_margin(f, (1,), (2,)) <= 1.0
    lac = lacunary_1d(1, levels=6)
    assert smoothness_margin(lac, (1,), (2,)) <= 1.0
    f2 = tensor_series_2d((1, 2), terms=(16, 8))
    assert smoothness_margin(f2, (1, 2), (2, 2)) <= 1.0
    with pytest.raises(ValidationError):
        tensor_series_2d((1, 2, 3), terms=(4, 4, 4))


def test_rate_rejects_function_outside_class():
    f = decaying_series_1d(1, terms=64) * 10.0
    with pytest.raises(ValidationError):
        approximation_rate(f, (1,), (2,), m_max=4)


def test_rate_polynomial_reproduction_sentinel():
    t = TrigPoly.from_coeff_dict((2,), {(0,): 1.0, (1,): 0.05, (-1,): 0.05})
    res = approximation_rate(t, (1,), (2,), m_max=5, check_membership=False)
    assert res.slope == -math.inf
    assert all(e < 1e-13 for e in res.errors[1:])


def test_rate_lacunary_slope_near_order():
    lac = lacunary_1d(1, levels=8)
    res = approximation_rate(lac, (1,), (2,), m_max=7)
    assert abs(res.slope - (-1.0)) <= 0.3


def exact_slope(xs, ys):
    """The least-squares slope of the points, in exact rational arithmetic."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4095, 4095), min_size=2, max_size=12, unique=True), st.data())
@example([2, 3, 4], [1000.0, 1000.0000000000001, 1000.0])
@example([2, 3, 4, 5], [-3.0, -3.0, -3.0, -3.0])
def test_slope_is_the_exact_least_squares_slope(xs, ys):
    if not isinstance(ys, list):
        # |y| >= 2**-900 or 0 keeps a nonzero slope out of the subnormal
        # range, where no float is within 1e-14 relative of it
        y = st.floats(-1100, 1100).filter(lambda v: v == 0 or abs(v) >= 2.0**-900)
        ys = ys.draw(st.lists(y, min_size=len(xs), max_size=len(xs)))
    want = exact_slope(xs, ys)
    assert abs(Fraction(_slope(xs, ys)) - want) <= Fraction(1e-14) * abs(want)


@pytest.mark.parametrize(
    "f, r, p",
    [
        (decaying_series_1d(1, terms=64), (1,), (2,)),
        (lacunary_1d(1, levels=6), (1,), (2,)),
        (tensor_series_2d((1, 2), terms=(24, 12)), (1, 2), (2, 2)),
        (decaying_series_1d(1.5, terms=40, p=(3,)), (1.5,), (3,)),
    ],
)
def test_rate_slope_is_the_exact_fit_of_its_errors(f, r, p):
    res = approximation_rate(f, r, p, m_max=6)
    ms = [m for m in range(2, 7) if res.errors[m] > 1e-13]
    want = exact_slope(ms, [math.log2(res.errors[m]) for m in ms])
    assert abs(Fraction(res.slope) - want) <= Fraction(1e-14) * abs(want)
