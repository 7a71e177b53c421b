"""Exact power products, ball width orders, and corner-block plans."""

import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisowidth import (
    BallProblem,
    PowerProduct,
    ValidationError,
    VSet,
    ball_order_low_q,
    lower_bound_plan,
    phi,
    sorted_profile,
    vset_l2_lower,
)


# ---------------------------------------------------------------------------
# exact power products


def test_power_product_roundtrip():
    half = PowerProduct(1, [(2, Fraction(1, 2))])
    assert half * half == 2
    assert half * half == PowerProduct(1, [(2, Fraction(1))])
    assert (half**2).value() == pytest.approx(2.0, rel=1e-15)


def test_power_product_cross_base_equality():
    lhs = PowerProduct(1, [(2, Fraction(1, 2))]) * PowerProduct(1, [(3, Fraction(1, 2))])
    rhs = PowerProduct(1, [(6, Fraction(1, 2))])
    assert lhs == rhs
    assert not lhs < rhs and not lhs > rhs


def test_power_product_comparisons():
    a = PowerProduct(1, [(2, Fraction(3, 2))])
    b = PowerProduct(1, [(3, Fraction(1))])
    assert a < b  # 2.828... < 3
    assert b > a
    assert a <= b and a != b
    assert PowerProduct.one() < a
    assert a < 3 and a > Fraction(5, 2)


def _counted_comparisons(monkeypatch, cap):
    """A list that grows by one per ``PowerProduct._cmp`` call; a call past
    ``cap`` fails the test at once instead of letting a linear walk run."""
    calls = []
    real = PowerProduct._cmp

    def counted(self, other):
        calls.append(1)
        assert len(calls) <= cap, f"more than {cap} comparisons"
        return real(self, other)

    monkeypatch.setattr(PowerProduct, "_cmp", counted)
    return calls


def test_power_product_ceil(monkeypatch):
    # An estimate that is the answer costs two comparisons, 1 costs one.
    calls = _counted_comparisons(monkeypatch, 2)
    for base, exp, ceiling in [
        (2, Fraction(3, 2), 3),
        (4, Fraction(1, 2), 2),
        (7, Fraction(0), 1),
        (10, Fraction(7, 2), 3163),  # ceil(10^3.5)
    ]:
        calls.clear()
        assert PowerProduct(1, [(base, exp)]).ceil_int() == ceiling
        assert len(calls) == min(ceiling, 2)


@pytest.mark.parametrize(
    "base, exp, ceiling",
    [
        # Float estimate 464158883361277266167332864, 6.2e11 below: a walk one
        # integer per comparison hung the window plan of k = 10^80, n = 10^40.
        (10**80, Fraction(1, 3), 464158883361277889241007636),
        (10**80 + 1, Fraction(1, 2), 10**40 + 1),
        # Float estimate 9.8e22 above.
        (108015708067021612213714474748348285604, Fraction(1), 108015708067021612213714474748348285604),
    ],
    ids=["cube-root-below", "square-root-below", "integer-above"],
)
def test_power_product_ceil_gallops_from_a_far_estimate(monkeypatch, base, exp, ceiling):
    big = PowerProduct(1, [(base, exp)])
    distance = abs(math.ceil(big.value()) - ceiling)
    calls = _counted_comparisons(monkeypatch, 2 * distance.bit_length() + 2)
    assert big.ceil_int() == ceiling
    assert len(calls) > 2


def test_power_product_beyond_float_range():
    # math.exp raised a raw OverflowError (exit 5 at the CLI).
    with pytest.raises(ValidationError, match="exceeds the float range"):
        PowerProduct(1, [(10**700, Fraction(1, 2))]).value()
    assert PowerProduct(1, [(10**700, Fraction(-1, 2))]).value() == 0.0
    # The ceiling is an integer, so it has no range to leave.
    assert PowerProduct(1, [(10**1000 + 1, Fraction(1, 2))]).ceil_int() == 10**500 + 1


def test_power_product_division():
    a = PowerProduct(1, [(2, Fraction(2))]) * PowerProduct(1, [(5, Fraction(1, 3))])
    assert a / a == PowerProduct.one()
    assert (a / PowerProduct(1, [(2, Fraction(2))])) == PowerProduct(1, [(5, Fraction(1, 3))])


def test_power_product_fractional_power_requires_unit_coeff():
    two = PowerProduct(1, [(2, Fraction(1))]) * Fraction(3)
    with pytest.raises(ValidationError):
        two ** Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.integers(2, 12),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
)
def test_power_product_compare_matches_float(b1, e1, b2, e2):
    lhs = PowerProduct(1, [(b1, e1)])
    rhs = PowerProduct(1, [(b2, e2)])
    fl = float(b1) ** float(e1)
    fr = float(b2) ** float(e2)
    if abs(fl - fr) > 1e-9 * max(abs(fl), abs(fr)):
        assert (lhs < rhs) == (fl < fr)


def test_power_product_compare_decides_far_ratios_on_logs():
    # Clearing denominators here needs 3^(1008 * 1009 * 1013 * 1019)-sized
    # integers; the log of the ratio settles it at once.
    code = (
        "from fractions import Fraction as F\n"
        "from anisowidth import PowerProduct as P\n"
        "a = P(1, [(3, F(1008, 1009))]) * P(1, [(5, F(1, 1013))])\n"
        "b = P(1, [(2, F(1018, 1019))])\n"
        "print(a > b, b < a, a == b)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout == b"True True False\n"


def test_power_product_near_tie_is_exact():
    big = PowerProduct(1, [(2, Fraction(60))])
    assert PowerProduct(2**60 + 1) > big  # equal logs in floating point
    assert PowerProduct(2**60 - 1) < big
    assert PowerProduct(1, [(8, Fraction(1, 3))]) == 2


def test_power_product_near_tie_with_huge_integers_is_refused():
    a = PowerProduct(1, [(7, Fraction(1, 10**9 + 7))])
    b = PowerProduct(1, [(7, Fraction(1, 10**9 + 9))])
    with pytest.raises(ValidationError, match="bits"):
        a < b


@st.composite
def equal_products(draw):
    """Two spellings of one value: prime bases, and composite bases with an
    integer power of 5 moved into the coefficient."""
    coeff = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    x = {
        p: Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2, 3, 6))))
        for p in (2, 3, 5)
    }
    t = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3))))
    u = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 4))))
    m = draw(st.integers(-3, 3))
    a = PowerProduct(coeff, list(x.items()))
    b = PowerProduct(
        coeff * Fraction(5) ** m,
        [(6, t), (4, u), (2, x[2] - t - 2 * u), (3, x[3] - t), (5, x[5] - m)],
    )
    return a, b


@settings(max_examples=200, deadline=None)
@given(equal_products())
@example((PowerProduct(2) * PowerProduct(1, [(2, 24)]), PowerProduct(1, [(2, 25)])))
def test_equal_power_products_compare_equal(pair):
    a, b = pair
    assert a == b


# ---------------------------------------------------------------------------
# problem guards


def test_ball_problem_guards():
    with pytest.raises(ValidationError):
        BallProblem(k=(4,), n=3, p=(2,), q=(2,))  # 2n > K
    with pytest.raises(ValidationError):
        BallProblem(k=(0, 2), n=0, p=(2, 2), q=(2, 2))
    with pytest.raises(ValidationError):
        BallProblem(k=(4,), n=-1, p=(2,), q=(2,))
    bp = BallProblem(k=(4, 3), n=2, p=(1, 2), q=(2, 4))
    assert bp.K == 12 and bp.d == 2


def test_ball_problem_rejects_booleans():
    with pytest.raises(ValidationError):
        BallProblem(k=(True, 3), n=1, p=(2, 2), q=(2, 2))
    with pytest.raises(ValidationError):
        BallProblem(k=(np.True_, 3), n=1, p=(2, 2), q=(2, 2))
    with pytest.raises(ValidationError):
        BallProblem(k=(4, 3), n=True, p=(2, 2), q=(2, 2))


@pytest.mark.parametrize("k, n", [((2.5, 3), 1), ((4.0, 3), 1), ((4, 3), 1.0)])
def test_ball_problem_refuses_non_integers(k, n):
    # k = (2.5, 3) used to run silently as (2, 3).
    with pytest.raises(ValidationError, match="must be an integer"):
        BallProblem(k=k, n=n, p=(2, 2), q=(2, 2))


def test_ball_problem_accepts_numpy_integers():
    # n = np.int64(1) used to be refused.
    bp = BallProblem(k=(np.int64(4), np.int32(3)), n=np.int64(1), p=(1, 2), q=(2, 4))
    assert (bp.k, bp.n) == ((4, 3), 1)
    assert all(type(v) is int for v in bp.k + (bp.n,))
    assert phi(bp) == phi(BallProblem(k=(4, 3), n=1, p=(1, 2), q=(2, 4)))


def test_phi_requires_target_exponent_range():
    with pytest.raises(ValidationError):
        phi(BallProblem(k=(4,), n=1, p=(2,), q=(1.5,)))
    with pytest.raises(ValidationError):
        phi(BallProblem(k=(4,), n=1, p=(2,), q=(math.inf,)))


def test_target_range_refusal_names_the_exponent():
    # The refusal names the first exponent outside [2, inf) by its value.
    bp = BallProblem(k=(4, 4), n=1, p=(2, 2), q=(4, Fraction(3, 2)))
    for call in (phi, lower_bound_plan):
        with pytest.raises(ValidationError, match=r"target exponent q=3/2 must lie in \[2, inf\)"):
            call(bp)


@settings(max_examples=200, deadline=None)
@given(st.integers(1001, 1999))
@example(1452)
def test_refused_float_target_is_named_as_given(thousandths):
    # A float exponent is stored through its reciprocal, and 1/(1/1.452) is
    # 1.4519999999999997: the refusal must name 1.452, as it was given.
    # (An integral float is stored as a Fraction and named as an integer.)
    q = thousandths / 1000
    bp = BallProblem(k=(4, 4), n=1, p=(2, 2), q=(4, q))
    for call in (phi, lower_bound_plan):
        with pytest.raises(ValidationError, match=rf"^target exponent q={q!r} must lie"):
            call(bp)


# ---------------------------------------------------------------------------
# closed-form order


def test_phi_reference_tie_is_constant_branch():
    res = phi(BallProblem(k=(16,), n=4, p=(2,), q=(4,)))
    assert res.value == 1.0
    assert res.branch == "constant"
    assert res.argmin_t is None


def test_phi_all_zero_weights_gives_prefix():
    res = phi(BallProblem(k=(4, 4), n=8, p=(4, 4), q=(2, 2)))
    assert res.exact == 2
    assert res.branch == "constant"


def test_phi_window_value():
    res = phi(BallProblem(k=(16,), n=8, p=(2,), q=(4,)))
    assert res.branch == "term" and res.argmin_t == 1
    assert res.exact == PowerProduct(1, [(2, Fraction(-1, 2))])


def test_phi_zero_n_is_prefix_only():
    res = phi(BallProblem(k=(8, 8), n=0, p=(3, 1), q=(2, 2)))
    # only the axis with p > q contributes to the prefix
    assert res.exact == PowerProduct(1, [(8, Fraction(1, 2) - Fraction(1, 3))])


def _phi_float(prob):
    """Independent float evaluation of the branch minimum."""
    prof = sorted_profile(prob.p, prob.q)
    pos = [a - 1 for a in prof.sigma]
    ks = [float(prob.k[a]) for a in pos]
    from anisowidth import as_exponents

    rp = [float(v) for v in as_exponents(prob.p).recip]
    rq = [float(v) for v in as_exponents(prob.q).recip]
    rp_s = [rp[a] for a in pos]
    rq_s = [rq[a] for a in pos]
    om_s = [float(prof.omega[a]) for a in pos]
    d, mu = prof.d, prof.mu
    prefix = 1.0
    for j in range(mu):
        prefix *= ks[j] ** (rq_s[j] - rp_s[j])
    best = 1.0
    for t in range(mu + 1, d + 1):
        w = om_s[t - 1]
        pre = 1.0
        for j in range(mu, t - 1):
            pre *= ks[j] ** (rq_s[j] - min(rp_s[j], 0.5))
        if w == 0:
            term = pre
        else:
            if prob.n == 0:
                continue
            bracket = float(prob.n) ** -0.5
            for j in range(t - 1):
                bracket *= ks[j] ** 0.5
            for j in range(t - 1, d):
                bracket *= ks[j] ** rq_s[j]
            term = pre * bracket**w
        best = min(best, term)
    return prefix * best


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_phi_matches_independent_float_route(state):
    rng = np.random.default_rng(state)
    d = int(rng.integers(1, 4))
    k = tuple(int(rng.integers(2, 9)) for _ in range(d))
    K = math.prod(k)
    n = int(rng.integers(0, K // 2 + 1))
    p = tuple(rng.choice([1, Fraction(3, 2), 2, 3, math.inf]) for _ in range(d))
    q = tuple(rng.choice([2, Fraction(5, 2), 3, 4]) for _ in range(d))
    prob = BallProblem(k=k, n=n, p=p, q=q)
    exact = phi(prob).value
    loose = _phi_float(prob)
    assert exact == pytest.approx(loose, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_phi_nonincreasing_in_n(state):
    rng = np.random.default_rng(state)
    d = int(rng.integers(1, 3))
    k = tuple(int(rng.integers(3, 9)) for _ in range(d))
    K = math.prod(k)
    p = tuple(rng.choice([1, 2, 4]) for _ in range(d))
    q = tuple(rng.choice([2, 3, 4]) for _ in range(d))
    vals = [
        phi(BallProblem(k=k, n=n, p=p, q=q)).value for n in range(0, K // 2 + 1)
    ]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-12)


def test_phi_permutation_invariant():
    k, p, q = (3, 5, 4), (1, 3, 2), (2, 4, 3)
    base = phi(BallProblem(k=k, n=5, p=p, q=q)).value
    for perm in itertools.permutations(range(3)):
        prob = BallProblem(
            k=tuple(k[i] for i in perm),
            n=5,
            p=tuple(p[i] for i in perm),
            q=tuple(q[i] for i in perm),
        )
        assert phi(prob).value == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# low target-exponent order


def test_low_q_ball_single_axis():
    val = ball_order_low_q(BallProblem(k=(8,), n=2, p=(2,), q=(1,)), 0)
    assert val == pytest.approx(math.sqrt(8), rel=1e-12)


def test_low_q_ball_two_axis():
    val = ball_order_low_q(
        BallProblem(k=(8, 9), n=0, p=(1, math.inf), q=(2, 2)), 1
    )
    assert val == pytest.approx(3.0, rel=1e-12)


def test_low_q_ball_pattern_validation():
    with pytest.raises(ValidationError):
        ball_order_low_q(BallProblem(k=(8,), n=2, p=(3,), q=(2,)), 1)
    with pytest.raises(ValidationError):
        ball_order_low_q(BallProblem(k=(8,), n=2, p=(1,), q=(2,)), 0)


@pytest.mark.parametrize("nu_split", [0.5, True])
def test_low_q_ball_split_must_be_an_integer(nu_split):
    # 0.5 used to raise a raw TypeError, True to run as 1.
    with pytest.raises(ValidationError, match="nu_split must be an integer"):
        ball_order_low_q(BallProblem(k=(8,), n=2, p=(2,), q=(1,)), nu_split)


# ---------------------------------------------------------------------------
# corner-block plans


def test_plan_corner_matches_order():
    prob = BallProblem(k=(16,), n=4, p=(2,), q=(4,))
    plan = lower_bound_plan(prob)
    assert plan.regime == "corner"
    assert plan.s == (1,)
    assert plan.exact == phi(prob).exact


def test_plan_past_corner_single_axis_is_tail():
    # p <= 2 empties the window range, so passing the corner threshold
    # goes straight to the tail regime
    prob = BallProblem(k=(16,), n=8, p=(2,), q=(4,))
    plan = lower_bound_plan(prob)
    assert plan.regime == "tail"
    assert plan.s == (1,)
    assert plan.exact == phi(prob).exact


def test_plan_window_two_axis_exact_side():
    prob = BallProblem(k=(8, 16), n=16, p=(3, 1), q=(4, 4))
    plan = lower_bound_plan(prob)
    assert plan.regime == "window" and plan.t == 1
    assert plan.s == (2, 1)  # side length hits an exact integer
    assert plan.exact == phi(prob).exact


def test_plan_tail_matches_order():
    prob = BallProblem(k=(16,), n=4, p=(2,), q=(8,))
    plan = lower_bound_plan(prob)
    assert plan.regime == "tail"
    assert plan.s == (1,)
    assert plan.exact == phi(prob).exact
    assert plan.predicted == pytest.approx(0.5 * 16 ** 0.125, rel=1e-12)


@pytest.mark.parametrize(
    "k, n, p, q, regime, t",
    [
        ((4, 8), 16, (Fraction(7, 3), 1.5), (2, 3), "corner", None),
        ((8, 16), 32, (3, 1), (4, 4), "window", 1),
    ],
)
def test_plan_tie_at_a_threshold_is_decided_exactly(k, n, p, q, regime, t):
    # n equals a threshold T_t whose factors carry the int exponent 1; the
    # float comparison used to settle the tie and report "tail".
    plan = lower_bound_plan(BallProblem(k=k, n=n, p=p, q=q))
    assert (plan.regime, plan.t) == (regime, t)


def test_int_exponents_are_exact():
    assert PowerProduct(1, [(3, 2)]).is_exact
    assert PowerProduct(Fraction(1, 9), [(3, 2)]) == 1
    assert not PowerProduct(1, [(3, 2.0)]).is_exact


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_plan_shape_always_admissible(state):
    rng = np.random.default_rng(state)
    d = int(rng.integers(1, 4))
    k = tuple(int(rng.integers(2, 9)) for _ in range(d))
    K = math.prod(k)
    n = int(rng.integers(0, K // 2 + 1))
    p = tuple(rng.choice([1, Fraction(3, 2), 2, 3, math.inf]) for _ in range(d))
    q = tuple(rng.choice([2, Fraction(5, 2), 3, 4]) for _ in range(d))
    prob = BallProblem(k=k, n=n, p=p, q=q)
    plan = lower_bound_plan(prob)
    assert all(1 <= sj <= kj for sj, kj in zip(plan.s, k))
    assert plan.regime in ("corner", "window", "tail")
    if plan.regime in ("corner", "tail"):
        assert plan.exact == phi(prob).exact


# ---------------------------------------------------------------------------
# corner-block extreme points


def test_vset_validation():
    with pytest.raises(ValidationError):
        VSet(k=(4,), s=(5,))
    with pytest.raises(ValidationError):
        VSet(k=(4,), s=(0,))
    v = VSet(k=(4, 3), s=(2, 1))
    assert v.K == 12 and v.d == 2


@pytest.mark.parametrize("base", [2.5, 2.0, True])
def test_power_product_bases_must_be_integers(base):
    # PowerProduct(1, [(2.5, 1)]) used to become 2^1.
    with pytest.raises(ValidationError, match="base must be an integer"):
        PowerProduct(1, [(base, Fraction(1, 2))])


@pytest.mark.parametrize("k, s", [((4.7,), (2.2,)), ((4,), (2.0,)), ((4,), (True,))])
def test_vset_refuses_non_integer_sides(k, s):
    # VSet(k=(4.7,), s=(2.2,)) used to become VSet(k=(4,), s=(2,)).
    with pytest.raises(ValidationError, match="must be an integer"):
        VSet(k=k, s=s)


@pytest.mark.parametrize("n", [True, 1.5])
def test_vset_l2_lower_refuses_non_integer_rank(n):
    # Both used to be accepted: True as n = 1, 1.5 in the formula.
    with pytest.raises(ValidationError, match="n must be an integer"):
        vset_l2_lower(VSet(k=(4, 3), s=(2, 1)), n)


def test_l2_lower_frozen_values():
    assert vset_l2_lower(VSet(k=(2, 2), s=(1, 1)), 2) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )
    assert vset_l2_lower(VSet(k=(3, 2), s=(2, 2)), 0) == pytest.approx(2.0, rel=1e-15)
    assert vset_l2_lower(VSet(k=(2, 2), s=(1, 1)), 4) == 0.0
    with pytest.raises(ValidationError):
        vset_l2_lower(VSet(k=(2, 2), s=(1, 1)), 5)
