"""End-to-end acceptance criteria.

Each test covers one acceptance item at its stated tolerance and prints a
single machine-greppable pass line.  Failures raise normally, so a red test
is an honest red.
"""

import csv
import math
import time
from fractions import Fraction

import numpy as np

from anisowidth import (
    BallProblem,
    NotCompactError,
    PowerProduct,
    Tensor,
    TrigPoly,
    approximation_rate,
    bernstein_ratio,
    decaying_series_1d,
    dyadic_block,
    h_family_minimize,
    holder_interpolation_check,
    mixed_norm,
    nikolskii_ratio,
    phi,
    sandwich_report,
    tensor_series_2d,
    vp_at_scale,
    vp_operator,
    VSet,
    weyl_derivative,
    weyl_integral,
    width_exponent,
    width_lower_vset,
    width_upper,
)

P_POOL = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4), math.inf]
Q_POOL = [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4), Fraction(6), Fraction(8)]
R_POOL = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]


def _draw_instance(state, d):
    vals = []
    s = state
    for _ in range(3 * d):
        s = (1103515245 * s + 12345) % (2**31)
        vals.append(s)
    p = tuple(P_POOL[v % len(P_POOL)] for v in vals[:d])
    q = tuple(Q_POOL[v % len(Q_POOL)] for v in vals[d : 2 * d])
    r = tuple(R_POOL[v % len(R_POOL)] for v in vals[2 * d :])
    return p, q, r


def _reference_order(N, n, q):
    """min(1, n^(-1/2) N^(1/q)) as an exact power product."""
    if n == 0:
        return PowerProduct.one()
    term = PowerProduct(1, [(N, Fraction(1, q))])
    if n > 1:
        term = term * PowerProduct(1, [(n, Fraction(-1, 2))])
    return term if term < PowerProduct.one() else PowerProduct.one()


def test_criterion_1_single_axis_hilbert_ball_reference():
    t0 = time.monotonic()
    checked = 0
    for N in (4, 8, 16, 32, 64):
        for q in (2, 3, 4, 8):
            for n in range(0, N // 2 + 1):
                res = phi(BallProblem(k=(N,), n=n, p=(2,), q=(q,)))
                assert res.exact == _reference_order(N, n, q), (N, n, q)
                checked += 1
    dt = time.monotonic() - t0
    assert dt < 1.0, f"reference sweep took {dt:.2f}s"
    print(
        f"[PASS] criterion 1: closed form reproduces the Euclidean-ball "
        f"reference exactly on {checked} instances in {dt:.3f}s"
    )


def test_criterion_2_envelope_route_matches_direct_minimum():
    t0 = time.monotonic()
    done = 0
    state = 2024
    while done < 500:
        state += 1
        d = 1 + state % 4
        p, q, r = _draw_instance(state, d)
        try:
            wo = width_exponent(p, q, r)
        except NotCompactError:
            continue
        hf = h_family_minimize(p, q, r)
        direct = min(wo.all_theta.values())
        gap = abs(float(hf.value) - float(direct))
        assert gap <= 1e-12 * max(1.0, abs(float(direct))), (p, q, r)
        done += 1
    dt = time.monotonic() - t0
    assert dt < 10.0, f"envelope sweep took {dt:.2f}s"
    print(
        f"[PASS] criterion 2: affine-envelope minimum equals the direct "
        f"transition minimum on {done} admissible draws in {dt:.2f}s"
    )


def test_criterion_3_single_axis_crossover():
    p, q = Fraction(3, 2), Fraction(4)
    # closed forms for the two transition exponents on one axis
    theta_tail = lambda r: r + Fraction(1, 2) - Fraction(2, 3)
    theta_head = lambda r: 2 * (r - Fraction(2, 3) + Fraction(1, 4))
    r = Fraction(1, 2)
    while r <= 3:
        try:
            wo = width_exponent((p,), (q,), (r,))
        except NotCompactError:
            r += Fraction(1, 8)
            continue
        assert wo.all_theta[1] == theta_tail(r), r
        assert wo.all_theta[0] == theta_head(r), r
        assert wo.exponent == min(theta_head(r), theta_tail(r)), r
        r += Fraction(1, 8)

    # crossover located by bisection on the exponent gap
    def gap(rv):
        wo = width_exponent((float(p),), (float(q),), (rv,))
        return float(wo.all_theta[0] - wo.all_theta[1])

    lo, hi = 0.45, 2.9
    assert gap(lo) < 0 < gap(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 2 / 3) <= 1e-10

    # exact tie at the crossover smoothness
    wo = width_exponent((p,), (q,), (Fraction(2, 3),))
    assert wo.all_theta[0] == wo.all_theta[1] == Fraction(1, 2)
    assert not wo.conditions.strict_min_ok
    assert wo.exponent == Fraction(1, 2)
    print(
        "[PASS] criterion 3: single-axis exponents match the classical "
        "closed forms and cross at r = 1/p (tie reported, not strict)"
    )


def test_criterion_4_cross_polytope_widths():
    t0 = time.monotonic()

    def octa(N):
        pts = []
        for i in range(N):
            e = np.zeros(N)
            e[i] = 1.0
            pts.append(Tensor.from_array(e))
            pts.append(Tensor.from_array(-e))
        return pts

    est = width_upper(octa(4), 1, (2,))
    assert abs(est.value - math.sqrt(3) / 2) <= 1e-2

    for N in (4, 6, 8):
        for n in range(0, min(4, N) + 1):
            truth = math.sqrt(1 - n / N)
            upper = width_upper(octa(N), n, (2,)).value
            assert upper >= truth - 1e-9, (N, n)
            assert upper <= truth + 2e-2, (N, n)
            exact = width_lower_vset(VSet(k=(N,), s=(1,)), n, (2,))
            assert exact == truth, (N, n)
    dt = time.monotonic() - t0
    assert dt < 60.0, f"cross-polytope sweep took {dt:.2f}s"
    print(
        f"[PASS] criterion 4: numerical upper estimates meet the "
        f"cross-polytope reference widths from above in {dt:.2f}s"
    )


def test_criterion_5_certified_sandwich_ledger(tmp_path):
    rng = np.random.default_rng(515)
    ledger = str(tmp_path / "sandwich.csv")
    done = 0
    worst_ratio = 1.0
    while done < 20:
        d = int(rng.integers(1, 3))
        k = tuple(int(rng.integers(2, 5)) for _ in range(d))
        K = math.prod(k)
        if K > 16:
            continue
        n = int(rng.integers(0, min(4, K // 2) + 1))
        q = tuple(int(rng.choice([2, 4])) for _ in range(d))
        p = tuple(float(np.round(rng.uniform(1.0, 2.0), 3)) for _ in range(d))
        rep = sandwich_report(
            BallProblem(k=k, n=n, p=p, q=q), ledger_path=ledger
        )
        assert rep.certified, (k, n, p, q)
        assert rep.certified_lower <= rep.upper * (1 + 1e-9), (k, n, p, q)
        if rep.certified_lower > 0 and rep.upper > 0:
            ratio = rep.upper / rep.certified_lower
            worst_ratio = max(worst_ratio, ratio)
            assert math.log(ratio) <= math.log(8.0), (k, n, p, q, ratio)
        done += 1
    with open(ledger) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == done
    print(
        f"[PASS] criterion 5: certified sandwich holds on {done} ball "
        f"instances (worst upper/lower ratio {worst_ratio:.2f} <= 8), ledger written"
    )


def test_criterion_6_taper_reproduction_and_telescoping():
    rng = np.random.default_rng(616)
    reproduced = 0
    for d in (1, 2, 3):
        for _ in range(100):
            deg = tuple(int(rng.integers(1, 5 - d + 1)) for _ in range(d))
            t = TrigPoly.random_real(deg, rng)
            out = vp_operator(t, deg)
            assert out.degree == t.degree
            assert np.array_equal(out.coeff, t.coeff)
            r = tuple(int(rng.integers(1, 4)) for _ in range(d))
            M = 3
            total = dyadic_block(t, r, 0)
            for m in range(1, M + 1):
                total = total + dyadic_block(t, r, m)
            direct = vp_at_scale(t, r, M)
            scale = max(1.0, float(np.abs(t.coeff).max()))
            diff = (total - direct.pad(total.degree)).coeff
            assert float(np.abs(diff).max()) <= 1e-12 * scale
            reproduced += 1
    print(
        f"[PASS] criterion 6: taper operator reproduces bands exactly and "
        f"dyadic blocks telescope on {reproduced} random polynomials"
    )


def test_criterion_7_fractional_inversion():
    rng = np.random.default_rng(717)
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for alpha in (0.0, 1.0, r):
            for _ in range(20):
                t = TrigPoly.random_real((8,), rng)
                t.coeff[8] = 0.0  # zero-mean band
                back = weyl_integral(
                    weyl_derivative(t, 1, r, alpha), 1, r, alpha
                )
                err = float(np.abs(back.coeff - t.coeff).max())
                worst = max(worst, err)
                assert err <= 1e-10, (r, alpha, err)
    print(
        f"[PASS] criterion 7: fractional derivative/integral inversion "
        f"error {worst:.2e} <= 1e-10 across orders and phases"
    )


def test_criterion_8_taper_rate_slopes():
    t0 = time.monotonic()
    f1 = decaying_series_1d(1, terms=220)
    res1 = approximation_rate(f1, (1,), (2,), m_max=7)
    assert res1.slope <= -1.0 + 0.1, res1.slope

    f2 = tensor_series_2d((1, 2), terms=(64, 32))
    res2 = approximation_rate(f2, (1, 2), (2, 2), m_max=9)
    assert res2.slope <= -2.0 / 3.0 + 0.1, res2.slope
    dt = time.monotonic() - t0
    assert dt < 30.0, f"rate fits took {dt:.2f}s"
    print(
        f"[PASS] criterion 8: empirical taper rates {res1.slope:.3f} and "
        f"{res2.slope:.3f} meet the aggregate-smoothness slopes in {dt:.2f}s"
    )


def _ratio_candidates(N, rng):
    cands = [
        TrigPoly.from_coeff_dict((N,), {(0,): 1.0}),
        TrigPoly.from_coeff_dict((N,), {(N,): 0.5, (-N,): 0.5}),
    ]
    full = np.ones(2 * N + 1, dtype=complex)
    full[::2] *= -1.0
    cands.append(TrigPoly((N,), full))
    tri = np.array([1.0 - abs(k) / (N + 1) for k in range(-N, N + 1)], dtype=complex)
    cands.append(TrigPoly((N,), tri))
    for _ in range(40):
        cands.append(TrigPoly.random_real((N,), rng))
    return cands


def test_criterion_9_inequality_ratio_stability():
    nik_max = []
    bern_max = []
    for N in (4, 8, 16, 32):
        rng = np.random.default_rng(909)  # same draw schedule at every size
        worst_n = 0.0
        worst_b = 0.0
        for t in _ratio_candidates(N, rng):
            worst_n = max(worst_n, nikolskii_ratio(t, (1,), (2,)))
            worst_b = max(worst_b, bernstein_ratio(t, (1,), (1,), (2,)))
        nik_max.append(worst_n)
        bern_max.append(worst_b)
    for seq in (nik_max, bern_max):
        for a, b in zip(seq, seq[1:]):
            assert b <= a * 1.05, seq

    rng = np.random.default_rng(910)
    shapes = [(8,), (5, 6), (3, 4, 4)]
    violations = 0
    for i in range(1000):
        shape = shapes[i % len(shapes)]
        q = tuple(float(rng.uniform(2.0, 8.0)) for _ in shape)
        w = float(rng.uniform(0.0, 1.0))
        x = Tensor.from_array(rng.standard_normal(shape))
        if not holder_interpolation_check(x, q, w).holds:
            violations += 1
    assert violations == 0
    print(
        f"[PASS] criterion 9: norm-gap and derivative-growth maxima stay "
        f"flat across degree doublings (nik {nik_max}, bern {bern_max}); "
        f"1000 interpolation checks, 0 violations"
    )
