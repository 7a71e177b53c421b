"""Width-order exponents: frozen values, dual-route agreement, invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisowidth import (
    NotCompactError,
    ValidationError,
    dyadic_beta,
    h_family_minimize,
    omega,
    smoothness_vector,
    sorted_profile,
    width_exponent,
    width_exponent_low_q,
)
from anisowidth.exponents import _envelope

# Fraction pools so random instances stay exactly rational
P_POOL = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4), math.inf]
Q_POOL = [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4), Fraction(6), Fraction(8)]
R_POOL = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]


def draw_instance(rng_state, d):
    """Deterministic rational instance from an integer state; may be non-compact."""
    vals = []
    s = rng_state
    for _ in range(3 * d):
        s = (1103515245 * s + 12345) % (2**31)
        vals.append(s)
    p = tuple(P_POOL[v % len(P_POOL)] for v in vals[:d])
    q = tuple(Q_POOL[v % len(Q_POOL)] for v in vals[d : 2 * d])
    r = tuple(R_POOL[v % len(R_POOL)] for v in vals[2 * d :])
    return p, q, r


def admissible_instances(count, seed=1):
    """First ``count`` compactly embedded rational instances with d <= 4."""
    out = []
    state = seed
    while len(out) < count:
        state += 1
        d = 1 + state % 4
        p, q, r = draw_instance(state, d)
        try:
            width_exponent(p, q, r)
        except NotCompactError:
            continue
        out.append((p, q, r))
    return out


# ---------------------------------------------------------------------------
# frozen values


def test_omega_values():
    assert omega(1, 2) == Fraction(1)
    assert omega(5, 4) == Fraction(0)
    assert omega(3, 6) == Fraction(1, 2)
    assert omega(2, 2) == Fraction(1)
    assert omega(math.inf, 3) == Fraction(0)
    with pytest.raises(ValidationError):
        omega(2, 1.5)


def test_sorted_profile_split():
    prof = sorted_profile((4, 1), (2, 4))
    assert prof.sigma == (1, 2)
    assert prof.omega == (Fraction(0), Fraction(1))
    assert prof.mu == 1 and prof.nu == 1
    assert prof.J == (1, 2)


def test_sorted_profile_omega_in_axis_order():
    # omega is stored per original axis; sigma carries the sort
    prof = sorted_profile((1, 4), (4, 2))
    assert prof.omega == (Fraction(1), Fraction(0))
    assert prof.sigma == (2, 1)


def test_sorted_profile_all_small_p():
    prof = sorted_profile((1, 2, 2), (3, 2, 4))
    assert prof.mu == 0 and prof.nu == 0
    assert prof.J == (0, 3)


def test_sorted_profile_all_large_p():
    prof = sorted_profile((3, 4), (2, 3))
    assert prof.mu == 2 and prof.nu == 2
    assert prof.J == (2,)


def test_sorted_profile_flat_two_target():
    # q = 2 everywhere: the tail transition is not added
    prof = sorted_profile((1, 1), (2, 2))
    assert prof.nu == 0
    assert prof.J == (0,)


def test_theta_single_axis_hilbert():
    wo = width_exponent((2,), (2,), (1,))
    assert wo.exponent == Fraction(1)
    assert set(wo.all_theta) == {0}


def test_theta_single_axis_two_transitions():
    wo = width_exponent((1,), (4,), (2,))
    assert wo.all_theta[0] == Fraction(5, 2)
    assert wo.all_theta[1] == Fraction(3, 2)
    assert wo.exponent == Fraction(3, 2)
    assert wo.argmin_index == 1
    assert wo.conditions.emb_cond_ok and wo.conditions.strict_min_ok


def test_theta_two_axis_mixed():
    # sigma = (1, 2), mu = nu = 1, J = (1, 2)
    wo = width_exponent((4, 1), (2, 4), (2, 1))
    assert wo.all_theta[1] == Fraction(1, 4)
    assert wo.all_theta[2] == Fraction(1, 3)
    assert wo.exponent == Fraction(1, 4)
    assert wo.argmin_index == 1


def test_not_compact_raises_with_margin():
    with pytest.raises(NotCompactError) as exc:
        width_exponent((1,), (4,), (0.3,))
    assert "not compactly embedded" in str(exc.value)


# Integer arguments given as non-integers.  Before the shared integer check
# this raised a raw TypeError.
INTEGER_MISUSES = {
    "width_exponent_low_q nu_split": lambda: width_exponent_low_q((2, 3), (1, 1.5), (1, 3), 0.0),
}


@pytest.mark.parametrize("call", INTEGER_MISUSES.values(), ids=INTEGER_MISUSES.keys())
def test_integer_arguments_are_refused(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


def test_smoothness_vector_coercion():
    assert smoothness_vector((1, 1.5)) == (Fraction(1), 1.5)
    assert smoothness_vector((2.0,)) == (Fraction(2),)
    with pytest.raises(ValidationError):
        smoothness_vector((0,))
    with pytest.raises(ValidationError):
        smoothness_vector((-1,))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e-300), st.integers(0, 10**6), st.integers(1, 4))
@example(1e-320, 1, 1)
@example(2.0**-1060, 2, 3)
def test_smoothness_entry_without_finite_reciprocal_is_refused_by_name(v, state, d):
    # Such an entry used to reach the compactness margin as inf - inf and be
    # refused as "not compactly embedded: ... = nan <= 0".
    p, q, r = draw_instance(state, d)
    r = r[:-1] + (v,)
    if 1 / v < math.inf:
        assert smoothness_vector(r)[-1] == v
        return
    for call in (
        lambda: smoothness_vector(r),
        lambda: width_exponent(p, q, r),
        lambda: h_family_minimize(p, q, r),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        assert not isinstance(exc.value, NotCompactError)
        assert str(exc.value) == f"smoothness entry {v!r} has no finite reciprocal 1/r"


# ---------------------------------------------------------------------------
# low target-exponent pattern


def test_low_q_trivial_block():
    # nu = 0: exponent is the harmonic mean over the dimension
    wo = width_exponent_low_q((2, 3), (1, 1.5), (1, 3), 0)
    assert wo.exponent == Fraction(3, 4)


def test_low_q_single_axis():
    wo = width_exponent_low_q((1,), (2,), (2,), 1)
    assert wo.exponent == Fraction(3, 2)


def test_low_q_two_axis():
    wo = width_exponent_low_q((1, 2), (2, 2), (1, 1), 1)
    assert wo.exponent == Fraction(1, 4)


def test_low_q_not_compact():
    with pytest.raises(NotCompactError):
        width_exponent_low_q((1,), (2,), (0.4,), 1)


def test_low_q_pattern_validation():
    # first block needs p <= q <= 2
    with pytest.raises(ValidationError):
        width_exponent_low_q((3,), (2,), (1,), 1)
    # second block needs q <= p
    with pytest.raises(ValidationError):
        width_exponent_low_q((1,), (2,), (1,), 0)
    with pytest.raises(ValidationError):
        width_exponent_low_q((1,), (2,), (1,), 2)


# ---------------------------------------------------------------------------
# dyadic schedule


def test_dyadic_beta_values():
    assert dyadic_beta((1, 1)) == (Fraction(1, 2), Fraction(1, 2))
    assert dyadic_beta((1, 3)) == (Fraction(3, 4), Fraction(1, 4))


# ---------------------------------------------------------------------------
# affine-family route agrees with the direct minimum


def test_h_family_single_axis():
    hf = h_family_minimize((1,), (4,), (2,))
    assert hf.value == Fraction(3, 2)
    assert hf.s_star == 1
    assert hf.domain == (1, Fraction(2))
    assert hf.lines[-1] == (Fraction(5, 4), Fraction(0))
    assert hf.lines[0] == (Fraction(1), Fraction(1, 2))


def test_h_family_two_axis_lines_and_identities():
    p, q, r = (4, 1), (2, 4), (2, 1)
    hf = h_family_minimize(p, q, r)
    wo = width_exponent(p, q, r)
    assert hf.value == Fraction(1, 4) == wo.exponent
    assert hf.lines[0] == (Fraction(1, 6), Fraction(0))
    assert hf.lines[1] == (Fraction(-1, 6), Fraction(1, 2))
    s1 = hf.breakpoints[1]
    assert s1 == Fraction(3, 2)
    # envelope hits each transition exponent at its breakpoint
    assert _envelope(hf.lines, s1) == wo.all_theta[1]
    assert _envelope(hf.lines, Fraction(1)) == wo.all_theta[2]


def test_h_family_domain_within_bounds():
    for p, q, r in admissible_instances(40, seed=11):
        hf = h_family_minimize(p, q, r)
        lo, hi = hf.domain
        assert lo == 1 and hi >= 1
        assert lo <= hf.s_star <= hi
        for s_t in hf.breakpoints.values():
            assert s_t <= hi + 1e-12


def test_breakpoints_nonincreasing():
    for p, q, r in admissible_instances(40, seed=23):
        hf = h_family_minimize(p, q, r)
        keys = sorted(hf.breakpoints)
        vals = [hf.breakpoints[t] for t in keys]
        for a, b in zip(vals, vals[1:]):
            assert b <= a


def test_h_family_matches_direct_minimum():
    for p, q, r in admissible_instances(120, seed=5):
        wo = width_exponent(p, q, r)
        hf = h_family_minimize(p, q, r)
        direct = min(wo.all_theta.values())
        assert hf.value == direct, (p, q, r)


# A Fraction slope and a float slope that differ by less than the float
# rounding: the envelope lines are parallel in float arithmetic.  Their
# crossing raised ZeroDivisionError (exit 5 from the CLI).
@pytest.mark.parametrize(
    "p, q, r",
    [
        ((2.0000000000000004, 2), (7.0, 4), (2, 3)),
        ((2.0000000000000004, Fraction(13, 9)), (6, 3), (Fraction(33, 8), 1.0)),
    ],
)
def test_h_family_with_slopes_equal_in_floats(p, q, r):
    hf = h_family_minimize(p, q, r)
    assert hf.value == pytest.approx(float(width_exponent(p, q, r).exponent), rel=1e-12)


def test_permutation_equivariance():
    import itertools

    for p, q, r in admissible_instances(15, seed=41):
        d = len(p)
        if d < 2:
            continue
        base = width_exponent(p, q, r).exponent
        for perm in itertools.permutations(range(d)):
            pp = tuple(p[i] for i in perm)
            qq = tuple(q[i] for i in perm)
            rr = tuple(r[i] for i in perm)
            assert width_exponent(pp, qq, rr).exponent == base


def test_tie_reported_not_strict():
    # single axis with p = 3/2, q = 4: transition exponents cross at r = 1/p
    wo = width_exponent((Fraction(3, 2),), (4,), (Fraction(2, 3),))
    assert wo.all_theta[0] == wo.all_theta[1]
    assert not wo.conditions.strict_min_ok
    assert wo.exponent == Fraction(1, 2)


def test_float_s_mu_rounding_below_one_is_accepted():
    # Every axis with p <= q has q = 2, so s_mu is exactly 1; the float route
    # gives 0.9999999999999999.
    p, q, r = (1.5, 2, 4, math.inf), (2, 2, 3, 6), (0.5, 3, 0.5, 1)
    hf = h_family_minimize(p, q, r)
    assert hf.domain == (1, 1.0)
    assert hf.breakpoints[min(hf.breakpoints)] == 1.0
    exact = (Fraction(3, 2), 2, 4, math.inf), q, (Fraction(1, 2), 3, Fraction(1, 2), 1)
    assert h_family_minimize(*exact).value == Fraction(1, 8)
    assert hf.value == pytest.approx(0.125, rel=1e-12)
    assert hf.value == pytest.approx(float(width_exponent(p, q, r).exponent), rel=1e-12)
