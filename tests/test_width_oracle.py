"""Numerical subspace-width oracle: known widths, certificates, ledgers."""

import csv
import math

import numpy as np
import pytest

from anisowidth import width_oracle
from anisowidth import (
    BallProblem,
    OracleConfig,
    SubspaceCandidate,
    Tensor,
    ValidationError,
    DeskScaleError,
    VSet,
    distance_to_subspace,
    harmonic_frame,
    mixed_norm,
    point_set_lower_q2,
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
    for K, n in ((4, 1), (8, 3), (9, 4), (6, 6)):
        B = harmonic_frame(K, n)
        assert B.shape == (K, n)
        gram = B.T @ B
        assert np.abs(gram - np.eye(n)).max() < 1e-10
        rows = np.linalg.norm(B, axis=1) ** 2
        assert np.abs(rows - n / K).max() < 1e-10


def test_harmonic_frame_guards():
    with pytest.raises(ValidationError):
        harmonic_frame(4, 5)
    with pytest.raises(ValidationError):
        harmonic_frame(0, 0)


def test_subspace_candidate_rejects_rank_deficient():
    B = np.ones((5, 2))
    with pytest.raises(ValidationError):
        SubspaceCandidate(basis=B)
    good = SubspaceCandidate(basis=np.eye(5)[:, :2])
    assert good.n == 2
    Q = good.orthonormal()
    assert np.abs(Q.T @ Q - np.eye(2)).max() < 1e-12


def test_oracle_config_validation():
    with pytest.raises(ValidationError):
        OracleConfig(restarts=-1)
    with pytest.raises(ValidationError):
        OracleConfig(inner_tolerance=1.0)
    with pytest.raises(ValidationError):
        OracleConfig(point_budget=1)


# ---------------------------------------------------------------------------
# distances


def test_distance_zero_inside_span():
    B = np.eye(4)[:, :2]
    x = Tensor.from_array(np.array([1.0, -2.0, 0.0, 0.0]))
    assert distance_to_subspace(x, B, (2,)) < 1e-12
    assert distance_to_subspace(x, B, (4,)) < 1e-6


def test_distance_empty_basis_is_norm():
    x = Tensor.from_array(np.array([3.0, 4.0]))
    B = np.zeros((2, 0))
    assert distance_to_subspace(x, B, (2,)) == pytest.approx(5.0)
    assert distance_to_subspace(x, B, (1,)) == pytest.approx(7.0)


def test_distance_flat_two_matches_projector():
    rng = np.random.default_rng(3)
    for _ in range(10):
        B = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        x = Tensor.from_array(rng.standard_normal(6))
        d = distance_to_subspace(x, B, (2,))
        resid = x.data - B @ (B.T @ x.data)
        assert d == pytest.approx(float(np.linalg.norm(resid)), rel=1e-12)


def test_distance_never_exceeds_norm():
    rng = np.random.default_rng(4)
    for q in ((2,), (3,), (4,)):
        B = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        x = Tensor.from_array(rng.standard_normal(5))
        d = distance_to_subspace(x, B, q)
        assert d <= mixed_norm(x, q) * (1 + 1e-9) + 1e-12


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


def test_certified_q2_lower_below_upper():
    pts = random_points(6, 20, seed=7)
    for n in (1, 2, 3):
        lo = point_set_lower_q2(pts, n)
        hi = width_upper(pts, n, (2,)).value
        assert lo <= hi * (1 + 1e-8)


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


@pytest.mark.parametrize("shape, n, q", SCALE_CASES)
@pytest.mark.parametrize("s", [700, -700])
def test_distance_exact_under_power_of_two_scaling(shape, n, q, s):
    x = unit_scale_points(shape, 1, seed=n)[0]
    B = np.linalg.qr(np.random.default_rng(n).standard_normal((x.size, n)))[0]
    base = distance_to_subspace(x, B, q)
    scaled = Tensor.from_array(np.ldexp(x.array, s))
    assert distance_to_subspace(scaled, B, q) == math.ldexp(base, s)


# ---------------------------------------------------------------------------
# corner-block lower bounds


def test_vset_lower_flat_two_is_exact_formula():
    v = VSet(k=(3, 4), s=(2, 2))
    for n in (0, 2, 5):
        assert width_lower_vset(v, n, (2, 2)) == pytest.approx(
            vset_l2_lower(v, n), rel=1e-15
        )


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
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["problem_hash"] == sandwich_report(problems[0]).problem_hash
    assert {"regime", "upper", "certified_lower"} <= set(rows[0])


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
