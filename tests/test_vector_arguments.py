"""Vector, real-scalar, data and object arguments of the public entry points.

A vector argument (smoothness ``r``, exponents ``p`` and ``q``, box sides
``k``, degrees and grids) is taken in by one intake, which refuses a
scalar, a string and an unordered container by type; a real scalar of the
trig toolkit (an order, a phase, a factor, a step) is taken in by one
check; a data array (tensor data, coefficients, sample points) by one
conversion; and a library object (a tensor, a polynomial, a problem) by
one type check.  Either way the refusal is a ``ValidationError``, never a
raw ``TypeError``, ``ValueError`` or ``AttributeError``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from anisowidth import (
    BallProblem,
    Tensor,
    TrigPoly,
    ValidationError,
    VSet,
    approximation_rate,
    ball_order_low_q,
    bernoulli_kernel,
    bernstein_ratio,
    dyadic_beta,
    dyadic_block,
    fejer,
    fejer_shift_sum_check,
    h_family_minimize,
    holder_interpolation_check,
    lower_bound_plan,
    mixed_norm,
    nikolskii_ratio,
    norm_duality_lower,
    norming_functional,
    phi,
    samples_to_trigpoly,
    sandwich_report,
    smoothness_vector,
    tensor_series_2d,
    trig_lp_norm,
    vp_at_scale,
    vp_multiplier,
    vp_operator,
    vp_power_kernel,
    vset_l2_lower,
    weyl_derivative,
    weyl_integral,
    width_exponent,
    width_exponent_low_q,
    width_lower_vset,
    width_upper,
)
from anisowidth.trig_approx import smoothness_margin

T = TrigPoly.random_real((3,), np.random.default_rng(0))

VECTOR_ARGUMENTS = {
    "TrigPoly degree": lambda v: TrigPoly(v),
    "from_coeff_dict degree": lambda v: TrigPoly.from_coeff_dict(v, {}),
    "random_real degree": lambda v: TrigPoly.random_real(v, np.random.default_rng(0)),
    "values grid": lambda v: T.values(v),
    "pad degree": lambda v: T.pad(v),
    "samples_to_trigpoly degree": lambda v: samples_to_trigpoly(np.ones(9), v),
    "vp_operator N": lambda v: vp_operator(T, v),
    "vp_at_scale r": lambda v: vp_at_scale(T, v, 1),
    "dyadic_block r": lambda v: dyadic_block(T, v, 1),
    "bernstein_ratio r": lambda v: bernstein_ratio(T, v, (0,), (2,)),
    "bernstein_ratio alpha": lambda v: bernstein_ratio(T, (1,), v, (2,)),
    "approximation_rate r": lambda v: approximation_rate(T, v, (2,)),
    "tensor_series_2d r": lambda v: tensor_series_2d(v),
    "tensor_series_2d terms": lambda v: tensor_series_2d((1, 1), terms=v),
    "smoothness_vector r": lambda v: smoothness_vector(v),
    "dyadic_beta r": lambda v: dyadic_beta(v),
    "width_exponent r": lambda v: width_exponent((2,), (4,), v),
    "width_exponent_low_q r": lambda v: width_exponent_low_q((1,), (2,), v, 1),
    "h_family_minimize r": lambda v: h_family_minimize((2,), (4,), v),
    "BallProblem k": lambda v: BallProblem(k=v, n=1, p=(2,), q=(2,)),
    "VSet k": lambda v: VSet(k=v, s=(1,)),
    "VSet s": lambda v: VSet(k=(2,), s=v),
    "Tensor shape": lambda v: Tensor(v, [1.0]),
}

REAL_SCALARS = {
    "weyl_derivative order": lambda v: weyl_derivative(T, 1, v, 0),
    "weyl_integral order": lambda v: weyl_integral(T, 1, v, 0),
    "weyl_derivative phase": lambda v: weyl_derivative(T, 1, 1, v),
    "bernoulli_kernel r": lambda v: bernoulli_kernel(v, 0, 0.5, 10),
    "vp_power_kernel r": lambda v: vp_power_kernel(2, v, 0, 0.5),
    "bernstein_ratio r_j": lambda v: bernstein_ratio(T, (v,), (0,), (2,)),
    "bernstein_ratio alpha_j": lambda v: bernstein_ratio(T, (1,), (v,), (2,)),
    "TrigPoly times factor": lambda v: T * v,
    "factor times TrigPoly": lambda v: v * T,
    "fejer_shift_sum_check h": lambda v: fejer_shift_sum_check(8, v),
    "vp_multiplier order": lambda v: vp_multiplier(v, 1),
    "interpolation weight": lambda v: holder_interpolation_check(Tensor((2,), [1, 2]), (2,), v),
}

CASES = [
    pytest.param(call, value, id=f"{name} {label}")
    for name, call in VECTOR_ARGUMENTS.items()
    for label, value in (("scalar", 2), ("str", "12"), ("set", {1, 2}))
] + [
    pytest.param(call, value, id=f"{name} {value!r}")
    for name, call in REAL_SCALARS.items()
    for value in ("x", None)
] + [
    pytest.param(
        lambda v: mixed_norm(Tensor((2, 2), [1, 2, 3, 4]), v), {1, "inf"},
        id="mixed_norm exponent set",
    ),
]


@pytest.mark.parametrize("call, value", CASES)
def test_scalar_string_or_set_arguments_are_refused(call, value):
    # A scalar or a set in a vector argument used to end in a raw TypeError
    # or be taken in hash order; a string, None or a non-number in a real
    # scalar in a raw TypeError or ValueError, also where the scalar was
    # compared before any check (the taper order, the interpolation weight).
    with pytest.raises(ValidationError):
        call(value)


X = Tensor((2,), [1, 2])


def test_real_scalars_compared_as_given_stay_exact():
    # The taper order and the interpolation weight are type-checked, not
    # converted: an int order past the float range and a Fraction weight
    # keep their exact routes.
    assert vp_multiplier(10**400, 5) == 1.0
    report = holder_interpolation_check(X, (4,), Fraction(1, 3))
    assert report.p_tilde.recip == (Fraction(1, 3),)


DATA_ARGUMENTS = {
    "Tensor data": lambda v: Tensor((1,), v),
    "Tensor.from_array": lambda v: Tensor.from_array(v),
    "TrigPoly coefficients": lambda v: TrigPoly((0,), v),
    "fejer points": lambda v: fejer(2, v),
    "vp_multiplier frequencies": lambda v: vp_multiplier(2, v),
    "vp_power_kernel points": lambda v: vp_power_kernel(2, 1, 0, v),
    "bernoulli_kernel points": lambda v: bernoulli_kernel(2, 0, v, 10),
}


@pytest.mark.parametrize(
    "value",
    ["x", "1.5", b"2", ["2"], [[1], [1, 2]], {}, [Fraction(1), "2"], [Fraction(1), b"2"]],
    ids=["str", "numeric str", "bytes", "str entry", "ragged", "dict", "mixed str", "mixed bytes"],
)
@pytest.mark.parametrize("call", DATA_ARGUMENTS.values(), ids=DATA_ARGUMENTS.keys())
def test_data_arrays_are_refused(call, value):
    # A string, numeric or not, or what numpy cannot convert ended in a raw
    # ValueError, or was read as a number; so was a string among other
    # entries, which numpy converts one by one with float() or complex().
    with pytest.raises(ValidationError, match="must be numbers"):
        call(value)


SAMPLE_ARGUMENTS = {
    name: call for name, call in DATA_ARGUMENTS.items() if not name.startswith(("Tensor", "TrigPoly"))
}


@pytest.mark.parametrize(
    "value",
    [math.nan, [None], math.inf, [0.5, -math.inf]],
    ids=["nan", "None entry", "inf", "-inf entry"],
)
@pytest.mark.parametrize("call", SAMPLE_ARGUMENTS.values(), ids=SAMPLE_ARGUMENTS.keys())
def test_non_finite_samples_are_refused(call, value):
    # A NaN or infinite sample point or frequency gave NaN.  Tensor data may
    # hold an infinity until a norm refuses it, so they are not among these.
    with pytest.raises(ValidationError, match="must be finite"):
        call(value)


def test_fraction_data_is_accepted():
    assert Tensor((2,), [Fraction(1, 2), 1]) == Tensor((2,), [0.5, 1.0])
    assert fejer(2, Fraction(1, 2)) == fejer(2, 0.5)
    assert TrigPoly((0,), [Fraction(1, 4)]).c(0) == 0.25


P = BallProblem(k=(4,), n=1, p=(2,), q=(4,))
V = VSet(k=(4,), s=(2,))
OBJECT_ARGUMENTS = {
    "width_upper points": (lambda v: width_upper(v, 1, (2,)), [X]),
    "width_upper point": (lambda v: width_upper([X, v], 1, (2,)), X),
    "sandwich_report": (lambda v: sandwich_report(v), P),
    "phi": (lambda v: phi(v), P),
    "lower_bound_plan": (lambda v: lower_bound_plan(v), P),
    "ball_order_low_q": (lambda v: ball_order_low_q(v, 0), BallProblem((4,), 1, (4,), (2,))),
    "vset_l2_lower": (lambda v: vset_l2_lower(v, 0), V),
    "width_lower_vset": (lambda v: width_lower_vset(v, 0, (2,)), V),
    "mixed_norm": (lambda v: mixed_norm(v, (2,)), X),
    "norming_functional": (lambda v: norming_functional(v, (2,)), X),
    "norm_duality_lower": (lambda v: norm_duality_lower(v, (2,)), X),
    "holder_interpolation_check": (lambda v: holder_interpolation_check(v, (2,), 0.5), X),
    "trig_lp_norm": (lambda v: trig_lp_norm(v, (2,)), T),
    "nikolskii_ratio": (lambda v: nikolskii_ratio(v, (2,), (4,)), T),
    "bernstein_ratio": (lambda v: bernstein_ratio(v, (1,), (0,), (2,)), T),
    "smoothness_margin": (lambda v: smoothness_margin(v, (1,), (2,)), T),
    "approximation_rate": (lambda v: approximation_rate(v, (1,), (2,), check_membership=False), T),
    "vp_operator": (lambda v: vp_operator(v, (2,)), T),
    "vp_at_scale": (lambda v: vp_at_scale(v, (1,), 1), T),
    "dyadic_block": (lambda v: dyadic_block(v, (1,), 1), T),
    "weyl_derivative": (lambda v: weyl_derivative(v, 1, 1, 0), T),
    "weyl_integral": (lambda v: weyl_integral(v, 1, 1, 0), T),
}


@pytest.mark.parametrize("value", [None, "x", 5, [1, 2]], ids=["None", "str", "int", "list"])
@pytest.mark.parametrize("call, good", OBJECT_ARGUMENTS.values(), ids=OBJECT_ARGUMENTS.keys())
def test_object_arguments_are_refused(call, good, value):
    # A value that is not the library object ended in a raw TypeError or
    # AttributeError; the object itself is still taken.
    call(good)
    with pytest.raises(ValidationError):
        call(value)
