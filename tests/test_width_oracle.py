"""Numerical subspace-width oracle: known widths, certificates, ledgers."""

import csv
import itertools
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anisowidth import width_oracle
from anisowidth.width_oracle import _polish_point
from anisowidth import (
    BallProblem,
    OracleConfig,
    SandwichReport,
    Tensor,
    ValidationError,
    DeskScaleError,
    as_exponents,
    VSet,
    harmonic_frame,
    mixed_norm,
    sandwich_report,
    vset_l2_lower,
    width_lower_vset,
    width_upper,
)


def octahedron_points(N):
    pts = []
    for i in range(N):
        e = np.zeros(N)
        e[i] = 1.0
        pts.append(Tensor.from_array(e))
        pts.append(Tensor.from_array(-e))
    return pts


def random_points(K, count, seed):
    rng = np.random.default_rng(seed)
    return [Tensor.from_array(rng.standard_normal(K)) for _ in range(count)]


# ---------------------------------------------------------------------------
# frames and candidates


def test_harmonic_frame_orthonormal_and_balanced():
    # Each column is the constant or the cosine or sine of one frequency.
    # For n = K even, a seeded Gaussian column and a QR used to complete it.
    for K in range(1, 13):
        i = np.arange(K)
        waves = {("const", 0): np.ones(K)}
        for f in range(1, K // 2 + 1):
            waves["cos", f] = np.cos(2 * np.pi * f * i / K)
            waves["sin", f] = np.sin(2 * np.pi * f * i / K)
        units = [w / np.linalg.norm(w) for w in waves.values() if np.linalg.norm(w) > 1e-9]
        for n in range(1, K + 1):
            B = harmonic_frame(K, n)
            assert B.shape == (K, n)
            assert np.abs(B.T @ B - np.eye(n)).max() < 1e-12
            assert np.abs((B**2).sum(axis=1) - n / K).max() < 1e-12
            matches = [
                [j for j, u in enumerate(units) if np.abs(col - u).max() < 1e-12]
                for col in B.T
            ]
            assert all(len(m) == 1 for m in matches), (K, n)
            assert len({m[0] for m in matches}) == n, (K, n)


def test_harmonic_frame_guards():
    with pytest.raises(ValidationError):
        harmonic_frame(4, 5)
    with pytest.raises(ValidationError):
        harmonic_frame(0, 0)


@pytest.mark.parametrize("K, n", [(4, 1.5), (4, True), (4.0, 1), (4, np.float64(2.0))])
def test_harmonic_frame_refuses_non_integers(K, n):
    # harmonic_frame(4, 1.5) used to raise a raw TypeError, (4, True) ran as n = 1.
    with pytest.raises(ValidationError, match="must be an integer"):
        harmonic_frame(K, n)


def test_oracle_config_validation():
    assert [f.name for f in fields(OracleConfig)] == [
        "restarts", "outer_iterations", "point_budget", "seed"
    ]
    with pytest.raises(ValidationError):
        OracleConfig(restarts=-1)
    with pytest.raises(ValidationError):
        OracleConfig(point_budget=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", 1.5),
        ("restarts", True),
        ("outer_iterations", 2.5),
        ("outer_iterations", np.True_),
        ("point_budget", 2.5),
        ("seed", -1),
        ("seed", False),
        ("seed", 1.0),
    ],
)
def test_oracle_config_refuses_bad_integers(field, value):
    # Before these checks a float budget was accepted and raised a raw
    # TypeError later, and a negative seed a ValueError inside SeedSequence.
    with pytest.raises(ValidationError, match=field):
        OracleConfig(**{field: value})


def test_oracle_config_accepts_numpy_integers():
    cfg = OracleConfig(restarts=np.int64(1), point_budget=np.int32(8), seed=np.uint8(3))
    assert (cfg.restarts, cfg.point_budget, cfg.seed) == (1, 8, 3)


# ---------------------------------------------------------------------------
# distances


def test_distance_zero_inside_span():
    # The Powell polish, from the least-squares start and from one far off.
    B = np.eye(4)[:, :2]
    x = np.array([1.0, -2.0, 0.0, 0.0])
    q = as_exponents((4,))
    c0 = np.linalg.lstsq(B, x, rcond=None)[0]
    assert _polish_point(x, B, q, (4,), c0)[0] < 1e-6
    assert _polish_point(x, B, q, (4,), np.array([5.0, 5.0]))[0] < 1e-6


def test_distance_empty_basis_is_norm():
    x = Tensor.from_array(np.array([3.0, 4.0]))
    assert width_upper([x], 0, (2,)).value == pytest.approx(5.0)
    assert width_upper([x], 0, (1,)).value == pytest.approx(7.0)


def test_distance_flat_two_matches_projector():
    # For flat q = 2 the value is the largest residual of the witness's
    # orthogonal projector.
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = rng.standard_normal((3, 6))
        est = width_upper([Tensor.from_array(x) for x in X], 2, (2,))
        B = est.witness
        resid = X - (X @ B) @ B.T
        assert est.value == pytest.approx(float(np.linalg.norm(resid, axis=1).max()), rel=1e-12)


def test_distance_never_exceeds_norm():
    # The polish's second Powell start is 0, where the value is the norm.
    rng = np.random.default_rng(4)
    for q in ((2,), (3,), (4,)):
        q = as_exponents(q)
        B = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        x = rng.standard_normal(5)
        d = _polish_point(x, B, q, (5,), np.array([3.0, -3.0]))[0]
        assert d <= mixed_norm(Tensor.from_array(x), q) * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# upper estimates


def test_octahedron_width_exact_value():
    pts = octahedron_points(4)
    est = width_upper(pts, 1, (2,))
    assert est.value == pytest.approx(math.sqrt(3) / 2, abs=1e-2)


def test_octahedron_family_meets_closed_form():
    # unit cross-polytope vertices: width at n is sqrt(1 - n/N)
    for N in (4, 6):
        pts = octahedron_points(N)
        for n in range(0, 4):
            est = width_upper(pts, n, (2,))
            truth = math.sqrt(1 - n / N)
            assert est.value >= truth - 1e-9
            assert est.value <= truth + 2e-2


def test_width_upper_edge_ranks():
    pts = random_points(5, 12, seed=0)
    norms = [mixed_norm(x, (2,)) for x in pts]
    est0 = width_upper(pts, 0, (2,))
    assert est0.value == pytest.approx(max(norms), rel=1e-12)
    estK = width_upper(pts, 5, (2,))
    assert estK.value < 1e-10
    rng = np.random.default_rng(1)
    mixed = [Tensor.from_array(rng.standard_normal((3, 2, 2))) for _ in range(9)]
    for q in [(4, 2, 1), (Fraction(3, 2), math.inf, 3)]:
        est0 = width_upper(mixed, 0, q)
        assert est0.value == max(mixed_norm(x, q) for x in mixed)
        assert est0.witness.shape == (12, 0)


def test_width_upper_scaling_homogeneous():
    pts = random_points(4, 8, seed=1)
    scaled = [Tensor.from_array(2.5 * x.array) for x in pts]
    a = width_upper(pts, 2, (2,)).value
    b = width_upper(scaled, 2, (2,)).value
    assert b == pytest.approx(2.5 * a, rel=1e-9)


def test_width_upper_nonincreasing_in_rank():
    pts = random_points(5, 10, seed=2)
    vals = [width_upper(pts, n, (2,)).value for n in range(6)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-9)


def test_width_upper_validates_rank():
    pts = random_points(3, 4, seed=5)
    with pytest.raises(ValidationError):
        width_upper(pts, -1, (2,))
    with pytest.raises(ValidationError):
        width_upper(pts, 4, (2,))


@pytest.mark.parametrize("n", [True, False, 1.0])
def test_rank_must_be_an_integer(n):
    # width_upper(points, True, ...) used to run as n = 1.
    pts = random_points(3, 4, seed=5)
    with pytest.raises(ValidationError, match="n must be an integer"):
        width_upper(pts, n, (4,))


def _stubbed_width_upper(values, keys, pruned_to_cutoff):
    """``width_upper`` on stubbed candidates, in canonical order (start 0, its
    descended basis, start 1, ...): candidate ``i`` has start bound ``keys[i]``
    and full value ``values[i]``, and every candidate survives the race.  Its
    evaluation honours the cutoff contract and no more: a full value that reaches the cutoff comes back as the cutoff
    itself, or as inf.  Returns the estimate, the candidates and the order in
    which they were evaluated."""
    cands, order = [], []

    def descend(X, inits, q, shape, cfg):
        descended = [-b for b in inits]  # distinct arrays, one per start
        cands.extend(B for pair in zip(inits, descended) for B in pair)
        return descended

    def index(B):
        return next(i for i, c in enumerate(cands) if c is B)

    def dual(X, B, *_):
        return None, np.array([keys[index(B)]])

    def race(X, cands, *_):
        return {i: (None, None, None) for i in range(len(cands))}

    def evaluate(X, B, q, shape, live, C, f, start, cutoff):
        i = index(B)
        order.append(i)
        if values[i] < cutoff:
            return values[i]
        return cutoff if pruned_to_cutoff else math.inf

    cfg = OracleConfig(restarts=len(values) // 2 - 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(width_oracle, "_descend", descend)
        mp.setattr(width_oracle, "_dual_lower", dual)
        mp.setattr(width_oracle, "_race", race)
        mp.setattr(width_oracle, "_evaluate_exact", evaluate)
        est = width_upper(random_points(4, 6, seed=3), 1, (4,), cfg)
    return est, cands, order


def _candidate_values_and_keys():
    size = st.integers(0, 2).map(lambda r: 2 * (2 + r))
    return size.flatmap(
        lambda m: st.tuples(
            st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=m, max_size=m),
            st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m),
        )
    )


@settings(max_examples=100, deadline=None)
@given(_candidate_values_and_keys(), st.booleans())
# Ties between canonical indices, keys in the reverse order: 1 wins, and 3
# and 4 tie it at their cutoff, so they come back at or above it and lose.
@example(([3.0, 2.0, 5.0, 2.0, 2.0, 4.0], [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]), False)
@example(([3.0, 2.0, 5.0, 2.0, 2.0, 4.0], [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]), True)
def test_fixed_order_keeps_the_first_minimal_candidate(case, pruned_to_cutoff):
    values, keys = case
    est, cands, order = _stubbed_width_upper(values, keys, pruned_to_cutoff)
    assert order == list(range(len(values)))
    winner = values.index(min(values))
    assert est.value == values[winner]
    assert np.array_equal(est.witness, cands[winner])


def _mirror_ascent_q2_lower(points, n, steps=150):
    """Certified Euclidean lower bound for the hull width of ``points``.

    Mirror ascent on a weight vector over the points: for any weights the
    sum of the smallest ``dim - n`` eigenvalues of the weighted second moment
    lower-bounds the squared width, so the best iterate certifies.  An
    independent reference for ``width_upper`` at q = 2.
    """
    X = np.stack([x.data for x in points])
    P, K = X.shape
    w = np.full(P, 1.0 / P)
    best = 0.0
    for t in range(steps):
        vals, vecs = np.linalg.eigh((X.T * w) @ X)
        best = max(best, float(vals[: K - n].sum()))
        V = vecs[:, K - n :]
        g = (X * X).sum(axis=1) - ((X @ V) ** 2).sum(axis=1)
        gmax = max(float(np.abs(g).max()), 1e-30)
        w = w * np.exp((1.0 / math.sqrt(1.0 + t)) * g / gmax)
        w /= w.sum()
    return math.sqrt(max(best, 0.0))


def test_certified_q2_lower_below_upper():
    pts = random_points(6, 20, seed=7)
    for n in (1, 2, 3):
        lo = _mirror_ascent_q2_lower(pts, n)
        hi = width_upper(pts, n, (2,)).value
        assert 0 < lo <= hi * (1 + 1e-8)


# ---------------------------------------------------------------------------
# certified per-point dual bounds

DUAL_EXPONENTS = [1, Fraction(3, 2), 2, 3, 4, math.inf]
DUAL_SHAPES = [(3,), (5,), (6,), (2, 2), (2, 3), (3, 2)]


@st.composite
def dual_cases(draw, flat_two=False):
    """A shape, an orthonormal ``K x n`` basis, points in ``[-10, 10]^K`` and q."""
    shape = draw(st.sampled_from(DUAL_SHAPES))
    K = math.prod(shape)
    n = draw(st.integers(1, K - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = np.linalg.qr(rng.standard_normal((K, n)))[0]
    entries = st.floats(-10, 10, allow_subnormal=False)
    X = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), K), elements=entries))
    if flat_two:
        q = (2,) * len(shape)
    else:
        q = tuple(draw(st.sampled_from(DUAL_EXPONENTS)) for _ in shape)
        if all(v == 2 for v in q):
            q = q[:-1] + (4,)
    return shape, B, X, as_exponents(q)


@settings(max_examples=80, deadline=None)
@given(dual_cases())
def test_dual_bound_below_every_upper_value(case):
    shape, B, X, q = case
    C0 = B.T @ X.T
    C, f, _ = width_oracle._inner_solve(X, B, q, shape, C0, iters=30)
    # Its norms at the solved coefficients are the solve's values.
    assert np.array_equal(width_oracle._dual_lower(X, B, q, shape, C)[0], f)
    for start in (C0, C):
        _, L = width_oracle._dual_lower(X, B, q, shape, start)
        assert np.isfinite(L).all() and (L >= 0).all()
        assert (L <= f).all()
        for i in range(X.shape[0]):
            polished, _ = width_oracle._polish_point(X[i], B, q, shape, C[:, i])
            assert L[i] <= polished


# Found by Hypothesis: K = 6, n = 5, distance 0.0071 and ||x||_1 = 10, where
# the bound lies 3.4e-12 (relative) below the distance, 1.04 times the
# pairing allowance.
FLAT_TWO_EXAMPLE = (
    (6,),
    np.linalg.qr(np.random.default_rng(2).standard_normal((6, 5)))[0],
    np.array([[1.0, 1.0, -5.0, 1.0, 1.0, 1.0]]),
    as_exponents((2,)),
)


@settings(max_examples=80, deadline=None)
@given(dual_cases(flat_two=True))
@example(FLAT_TWO_EXAMPLE)
def test_dual_bound_is_the_euclidean_distance_for_flat_two(case):
    # For q = 2 the norming functional of the projection residual is the
    # normalised residual z itself, so the bound is sharp up to its margins:
    # _DUAL_RTOL, the pairing allowance K 2**-52 ||x||_1 ||z||_1 of
    # _dual_lower, and its two allowances for the rounding of B^T z, which
    # are of the same order; twice the pairing allowance covers the three.
    shape, B, X, q = case
    R = X.T - B @ (B.T @ X.T)
    dist = np.hypot.reduce(R, axis=0)  # no squares to underflow
    _, L = width_oracle._dual_lower(X, B, q, shape, B.T @ X.T)
    expected = (1 - width_oracle._DUAL_RTOL) * dist
    z_1 = np.abs(R).sum(axis=0) / np.where(dist > 0, dist, 1.0)
    allowance = X.shape[1] * 2.0**-52 * np.abs(X).sum(axis=1) * z_1
    assert (L <= expected * (1 + 1e-12)).all()
    assert (L >= expected - 2 * allowance).all()


@st.composite
def span_cases(draw):
    """A shape, basis and q of :func:`dual_cases`, and the coefficients of
    points of span ``B`` in ``[-10, 10]``, subnormals included."""
    shape, B, X, q = draw(dual_cases())
    coeffs = hnp.arrays(np.float64, (B.shape[1], X.shape[0]), elements=st.floats(-10, 10))
    return shape, B, q, draw(coeffs)


# Found by Hypothesis: the point B * 5e-324 rounds to (-0, 5e-324, 5e-324),
# whose products with z lose up to 2**-1075 each to underflow; the bound was
# 5e-324 until the pairing allowed for that.
_SUBNORMAL_B = np.array([[-0.27298068], [0.75481445], [0.59643666]])
SUBNORMAL_SPAN_EXAMPLE = (
    (3,),
    _SUBNORMAL_B / np.linalg.norm(_SUBNORMAL_B),
    as_exponents((1,)),
    np.array([[5e-324]]),
)


@settings(max_examples=60, deadline=None)
@given(span_cases())
@example(SUBNORMAL_SPAN_EXAMPLE)
def test_dual_bound_is_zero_inside_the_span(case):
    shape, B, q, coeffs = case
    # Points of span B, including 0, whose residuals round to noise or to 0.
    inside = (B @ coeffs).T
    for C in (B.T @ inside.T, np.zeros_like(coeffs)):
        _, L = width_oracle._dual_lower(inside, B, q, shape, C)
        assert np.array_equal(L, np.zeros(coeffs.shape[1]))


# ---------------------------------------------------------------------------
# power-of-two scaling

# (shape, n, q): flat and mixed targets, with and without the q = 2 route.
SCALE_CASES = [
    ((4,), 1, (4,)),
    ((2, 2), 2, (4, 2)),
    ((4,), 2, (2,)),
    ((2, 2), 1, (2, 4)),
]


def unit_scale_points(shape, count, seed):
    """``count`` random points whose largest entry lies in [1/2, 1)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((count,) + shape)
    X = np.ldexp(X, -math.frexp(float(np.abs(X).max()))[1])
    return [Tensor.from_array(x) for x in X]


@pytest.mark.parametrize("shape, n, q", SCALE_CASES)
@pytest.mark.parametrize("s", [700, -700])
def test_width_upper_exact_under_power_of_two_scaling(shape, n, q, s):
    pts = unit_scale_points(shape, 8, seed=n)
    cfg = OracleConfig(restarts=1, outer_iterations=8)
    base = width_upper(pts, n, q, cfg).value
    scaled = [Tensor.from_array(np.ldexp(x.array, s)) for x in pts]
    assert width_upper(scaled, n, q, cfg).value == math.ldexp(base, s)


# ---------------------------------------------------------------------------
# corner-block lower bounds


def test_vset_lower_flat_two_is_exact_formula():
    v = VSet(k=(3, 4), s=(2, 2))
    for n in (0, 2, 5):
        assert width_lower_vset(v, n, (2, 2)) == pytest.approx(
            vset_l2_lower(v, n), rel=1e-15
        )


@pytest.mark.parametrize("n", [True, 1.5])
def test_vset_lower_refuses_non_integer_rank(n):
    # Both used to be accepted: True as n = 1, 1.5 in the formulas.
    v = VSet(k=(16,), s=(2,))
    for q in ((2,), (4,)):
        with pytest.raises(ValidationError, match="n must be an integer"):
            width_lower_vset(v, n, q)


def test_vset_lower_general_target_branches():
    v = VSet(k=(16,), s=(1,))
    # below the pivot the bound is the block size power
    assert width_lower_vset(v, 2, (4,)) == pytest.approx(1.0, rel=1e-12)
    # above it the rank term takes over
    assert width_lower_vset(v, 8, (4,)) == pytest.approx(
        8**-0.5 * 16**0.25, rel=1e-12
    )
    with pytest.raises(ValidationError):
        width_lower_vset(v, 2, (1.5,))


# ---------------------------------------------------------------------------
# sandwich reports


def test_sandwich_certified_and_ordered(tmp_path):
    ledger = tmp_path / "ledger.csv"
    problems = [
        BallProblem(k=(4,), n=1, p=(1,), q=(2,)),
        BallProblem(k=(2, 3), n=2, p=(1.5, 2), q=(2, 4)),
        BallProblem(k=(3, 3), n=0, p=(2, 1), q=(4, 2)),
    ]
    for bp in problems:
        rep = sandwich_report(bp, ledger_path=str(ledger))
        assert rep.certified
        assert rep.certified_lower <= rep.upper * (1 + 1e-9)
        assert rep.n_points >= 2
    with open(ledger) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == 3
    assert rows[0]["problem_hash"] == sandwich_report(problems[0]).problem_hash
    # One column per report field, in field order.
    assert reader.fieldnames == [f.name for f in fields(SandwichReport)]


def test_ball_extras_enumerate_the_vertices():
    # p = (1, inf) on a 3 x 2 box: a signed unit vector times a sign vector,
    # 24 vertices, one of each +- pair kept, in the enumeration order.
    prob = BallProblem(k=(3, 2), n=1, p=(1, "inf"), q=(2, 2))
    rng = np.random.default_rng(0)
    vertices = width_oracle._ball_extras(prob, 64, rng)
    assert len(vertices) == 12
    keys = {v.tobytes() for v in vertices} | {(-v).tobytes() for v in vertices}
    assert len(keys) == 24
    for v in vertices:
        assert mixed_norm(Tensor.from_array(v), prob.p) == 1.0
        assert sorted(np.abs(v).sum(axis=0)) == [1.0, 1.0]
    # With cap 6 the 24 vertices still fit the 4 * cap enumeration budget.
    first = width_oracle._ball_extras(prob, 6, rng)
    assert len(first) == 6
    assert all(np.array_equal(a, b) for a, b in zip(first, vertices))


@pytest.mark.parametrize(
    "k, p", [((9, 2), (1.5, 3)), ((3, 4), (1.25, 1.75)), ((16,), (1.5,))]
)
def test_ball_samples_are_scaled_by_the_norm_of_a_tensor(k, p):
    # _ball_extras takes mixed_norm's steps on the sample itself, laid out
    # as Tensor.array is: each sample keeps the bits of that route.
    prob = BallProblem(k=k, n=1, p=p, q=(2,) * len(k))
    samples = width_oracle._ball_extras(prob, 20, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    assert len(samples) == 20
    for x in samples:
        arr = rng.standard_normal(k)
        assert np.array_equal(x, arr / mixed_norm(Tensor.from_array(arr), prob.p))


def test_uncertified_sandwich_samples_distinct_corner_block_points(monkeypatch):
    # The 4 x 4 x 4 orbit of a 2 x 2 x 2 block has 21,952 points, over the
    # budget, so 128 of them are drawn.  Draws used to keep -0.0 where a -1
    # met a zero, and a byte-keyed check kept repeats: 85 distinct of 128.
    prob = BallProblem(k=(4, 4, 4), n=2, p=(1.5,) * 3, q=(4,) * 3)
    seen = {}

    def capture(name):
        inner = getattr(width_oracle, name)

        def wrapped(*args):
            seen[name] = (args, inner(*args))
            return seen[name][1]

        monkeypatch.setattr(width_oracle, name, wrapped)

    capture("_width_upper")
    capture("_orbit_sample")
    rep = sandwich_report(prob, OracleConfig(restarts=1, outer_iterations=2))
    assert not rep.certified
    (X, _, _, e, _, _), _ = seen["_width_upper"]
    (_, s, count, _), orbit = seen["_orbit_sample"]
    assert count == 128 and len(X) == rep.n_points == 256
    assert len({tuple(row) for row in X.tolist()}) == len(X)
    scale = math.prod(sj ** (-1 / 1.5) for sj in s)
    assert len(orbit) == 85  # the distinct ones of the 128 draws
    for x, row in zip(orbit, X):
        assert np.array_equal(np.ldexp(scale * np.ravel(x, order="F"), -e), row)
        assert np.count_nonzero(x) == math.prod(s)
        assert set(np.abs(x[x != 0]).tolist()) == {1.0}
        assert not np.signbit(x[x == 0]).any()
        assert mixed_norm(Tensor.from_array(scale * x), prob.p) == pytest.approx(1, rel=1e-12)


def test_orbit_sample_draws_permutations_then_signs():
    # Each draw takes a permutation of every axis, then a sign vector of
    # every axis, so the ball samples that follow see one stream.
    k, s = (3, 1, 4), (2, 1, 3)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    points = width_oracle._orbit_sample(k, s, 40, rng)
    want = []
    for _ in range(40):
        perms = [ref.permutation(kj) for kj in k]
        signs = [ref.choice((-1, 1), size=kj) for kj in k]
        x = np.zeros(k)
        for idx in itertools.product(*map(range, k)):
            if all(perm[i] < sj for perm, i, sj in zip(perms, idx, s)):
                x[idx] = math.prod(sgn[i] for sgn, i in zip(signs, idx))
        # Every point has a zero, so x and -x are both kept (ROADMAP 9(d)).
        if not any(np.array_equal(x, w) for w in want):
            want.append(x)
    assert len(points) == len(want) < 40
    assert all(np.array_equal(a, b) for a, b in zip(points, want))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sandwich_desk_scale_guard():
    with pytest.raises(DeskScaleError):
        sandwich_report(BallProblem(k=(65,), n=1, p=(2,), q=(2,)))
    with pytest.raises(DeskScaleError):
        sandwich_report(BallProblem(k=(8, 8), n=9, p=(2, 2), q=(2, 2)))


def test_sandwich_hash_stable():
    bp = BallProblem(k=(4,), n=1, p=(1,), q=(2,))
    a = sandwich_report(bp).problem_hash
    b = sandwich_report(bp).problem_hash
    assert a == b and len(a) == 12
