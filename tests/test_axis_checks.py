"""Axis counts and integer ranges of the public entry points.

Every entry point that takes several d-axis arguments (a tensor or a
polynomial, exponent vectors, smoothness vectors, box sides, degrees and
grids) checks that their axis counts agree in one place, and refuses a
mismatch with one message that names each argument and its count.  An
integer that must lie below a bound fixed by the other arguments (a rank
at most the dimension, an axis or a split at most d, a block side at most
its box side, a frequency inside the degree box) is refused with one
message form too.  The bound itself is accepted.
"""

import numpy as np
import pytest

from anisowidth import (
    BallProblem,
    Tensor,
    TrigPoly,
    ValidationError,
    VSet,
    bernstein_ratio,
    harmonic_frame,
    mixed_norm,
    nikolskii_ratio,
    norming_functional,
    samples_to_trigpoly,
    sorted_profile,
    trig_lp_norm,
    vp_operator,
    vset_l2_lower,
    weyl_derivative,
    width_exponent,
    width_exponent_low_q,
    width_lower_vset,
    width_upper,
)
from anisowidth.trig_approx import smoothness_margin

X = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
T = TrigPoly.random_real((2, 1), np.random.default_rng(0))
V = VSet((4,), (2,))

# Each call, and the message it must raise, word for word.
MISMATCHES = {
    "mixed_norm": (lambda: mixed_norm(X, (2,)), "x, p: 2, 1"),
    "norming_functional": (lambda: norming_functional(X, (2, 2, 2)), "x, p: 2, 3"),
    "sorted_profile": (lambda: sorted_profile((2,), (4, 4)), "p, q: 1, 2"),
    "width_exponent": (lambda: width_exponent((2, 2), (4, 4), (1,)), "p, q, r: 2, 2, 1"),
    "width_exponent_low_q": (
        lambda: width_exponent_low_q((2,), (2, 2), (1, 1), 1),
        "p, q, r: 1, 2, 2",
    ),
    "BallProblem": (lambda: BallProblem(k=(4, 4), n=1, p=(2,), q=(4, 4)), "k, p, q: 2, 1, 2"),
    "VSet": (lambda: VSet((4, 4), (2,)), "k, s: 2, 1"),
    "TrigPoly.values": (lambda: T.values((9,)), "grid, degree: 1, 2"),
    "samples_to_trigpoly": (lambda: samples_to_trigpoly(np.ones(9), (1, 1)), "grid, degree: 1, 2"),
    "TrigPoly.c": (lambda: T.c((1, 0, 0)), "k, degree: 3, 2"),
    "vp_operator": (lambda: vp_operator(T, (2,)), "f, N: 2, 1"),
    "trig_lp_norm": (lambda: trig_lp_norm(T, (3,)), "t, p: 2, 1"),
    "nikolskii_ratio": (lambda: nikolskii_ratio(T, (2, 2), (4,)), "t, p, q: 2, 2, 1"),
    "bernstein_ratio": (
        lambda: bernstein_ratio(T, (1, 1), (0,), (2, 2)),
        "t, r, alpha, p: 2, 2, 1, 2",
    ),
    "smoothness_margin": (lambda: smoothness_margin(T, (1,), (2, 2)), "t, r, p: 2, 1, 2"),
    "width_upper": (lambda: width_upper([X], 1, (2,)), "points, q: 2, 1"),
    "width_lower_vset": (lambda: width_lower_vset(V, 1, (4, 4)), "v, q: 1, 2"),
}


@pytest.mark.parametrize("call, counts", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_axis_count_mismatch_names_every_count(call, counts):
    # Sixteen checks used to word this fifteen ways, some naming no count.
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == f"dimension mismatch among {counts} axes"


def _ball(n):
    return BallProblem(k=(4,), n=n, p=(2,), q=(4,))


# Each call at its bound, and one past it with the refusal it must raise.
BOUNDS = {
    "BallProblem n": (_ball, 2, "n must be at most 2, got 3"),
    "harmonic_frame n": (lambda n: harmonic_frame(4, n), 4, "n must be at most 4, got 5"),
    "VSet block side": (lambda s: VSet((3,), (s,)), 3, "block side must be at most 3, got 4"),
    "vset_l2_lower n": (lambda n: vset_l2_lower(VSet((2,), (1,)), n), 2,
                        "n must be at most 2, got 3"),
    "width_lower_vset n": (lambda n: width_lower_vset(VSet((2,), (1,)), n, (4,)), 2,
                           "n must be at most 2, got 3"),
    "width_upper n": (lambda n: width_upper([Tensor((2,), [1.0, 0.5])], n, (4,)), 2,
                      "n must be at most 2, got 3"),
    "weyl_derivative axis": (lambda a: weyl_derivative(T, a, 1, 0), T.d,
                             f"axis must be at most {T.d}, got {T.d + 1}"),
    "TrigPoly.c frequency": (lambda k: T.c((k, 0)), 2, "frequency must be at most 2, got 3"),
    "nu_split": (lambda nu: width_exponent_low_q((2, 2), (2, 2), (1, 1), nu), 2,
                 "nu_split must be at most 2, got 3"),
}


@pytest.mark.parametrize("call, bound, message", BOUNDS.values(), ids=BOUNDS.keys())
def test_integer_bound_is_accepted_and_one_past_it_refused(call, bound, message):
    call(bound)
    with pytest.raises(ValidationError) as info:
        call(bound + 1)
    assert str(info.value) == message


def test_frequency_below_the_box_is_refused():
    assert T.c((-2, -1)) == T.coeff[0, 0]
    with pytest.raises(ValidationError, match="frequency must be at least -1, got -2"):
        T.c((0, -2))
