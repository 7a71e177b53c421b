"""Vector and real-scalar arguments of the public entry points.

A vector argument (smoothness ``r``, exponents ``p`` and ``q``, box sides
``k``, degrees and grids) is taken in by one intake, which refuses a
scalar, a string and an unordered container by type; a real scalar of the
trig toolkit (an order, a phase, a factor, a step) is taken in by one
check.  Either way the refusal is a ``ValidationError``, never a raw
``TypeError`` or ``ValueError``.
"""

import numpy as np
import pytest

from anisowidth import (
    BallProblem,
    Tensor,
    TrigPoly,
    ValidationError,
    VSet,
    approximation_rate,
    bernoulli_kernel,
    bernstein_ratio,
    dyadic_beta,
    dyadic_block,
    fejer_shift_sum_check,
    h_family_minimize,
    mixed_norm,
    samples_to_trigpoly,
    smoothness_vector,
    tensor_series_2d,
    vp_at_scale,
    vp_operator,
    vp_power_kernel,
    weyl_derivative,
    weyl_integral,
    width_exponent,
    width_exponent_low_q,
)

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
    # scalar in a raw TypeError or ValueError.
    with pytest.raises(ValidationError):
        call(value)
