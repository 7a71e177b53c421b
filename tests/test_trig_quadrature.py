"""The quadrature of ``trig_lp_norm`` on its 5-smooth grid: exact where the
integrand is a polynomial the grid resolves, within the grid bound for the
maximum otherwise; and the two-norms taken from the coefficients instead,
which agree with the quadrature to a few ulps."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisowidth import Tensor, TrigPoly, mixed_norm, trig_lp_norm
from anisowidth.mixed_norm import as_exponents
from anisowidth.trig_approx import (
    _MARGIN_STEPS,
    _degree_power,
    _difference,
    _grid_norms,
    _half_spectra,
    _norm_grid,
    _smooth_length,
    smoothness_margin,
)

# Parseval's l2 sum and a quadrature of the grid values differ by the
# rounding of the transforms: at most 5 ulps over 3,000 random draws of
# the kind below.
ULPS = 8 * 2.0**-52


def old_grid_norm(t, p):
    """The norm on the former quadrature grid, ``8 * max(N, 1) + 1`` points
    per axis, through the complex inverse transform of the whole grid and
    the tensor norm."""
    grid = tuple(8 * max(N, 1) + 1 for N in t.degree)
    spec = np.zeros(grid, dtype=complex)
    spec[np.ix_(*((np.arange(-N, N + 1) % G) for N, G in zip(t.degree, grid)))] = t.coeff
    values = np.fft.ifftn(spec) * math.prod(grid)
    raw = mixed_norm(Tensor.from_array(np.abs(values)), p)
    return raw * _degree_power(grid, [-1.0 / pj for pj in p])


def grid_margin(t, r):
    """``smoothness_margin(t, r, (2, ..., 2))`` by quadrature: each
    difference of the values on the grid of ``trig_lp_norm``, normed there."""
    two = as_exponents((2,) * t.d)
    values = t.values(_norm_grid(t.degree))
    return max(
        _grid_norms(
            _difference(_half_spectra(values, j), h, j, math.floor(rj) + 1, values.shape[j]), two
        )[0] / h**rj
        for j, rj in enumerate(r)
        for h in _MARGIN_STEPS
    )


@st.composite
def polynomials(draw, max_dim=3, max_degree=6):
    degree = tuple(draw(st.lists(st.integers(0, max_degree), min_size=1, max_size=max_dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return TrigPoly.random_real(degree, rng)
    shape = tuple(2 * N + 1 for N in degree)
    return TrigPoly(degree, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@st.composite
def exact_exponents(draw, d):
    """Even exponents at most 8, each a multiple of the one before: then
    every inner norm raised to the next exponent is a polynomial, and the
    grid resolves each one."""
    p = [draw(st.sampled_from((2, 4, 6, 8)))]
    for _ in range(d - 1):
        p.append(draw(st.sampled_from([e for e in (2, 4, 6, 8) if p[-1] <= e
                                       and e % p[-1] == 0])))
    return tuple(p)


@st.composite
def exact_cases(draw):
    t = draw(polynomials())
    return t, draw(exact_exponents(t.d))


def five_smooth(m):
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


def test_the_grid_is_the_least_five_smooth_length():
    assert [_norm_grid((N,))[0] for N in (0, 1, 8, 12, 32, 64, 220, 256)] == [
        9, 9, 72, 100, 270, 540, 1800, 2160]
    assert _norm_grid((64, 12)) == (540, 100)
    # every n up to 8 * 512 + 1, the grid of a degree-512 axis; a power of
    # two lies below 2n
    lengths = [m for m in range(1, 16 * 512 + 4) if five_smooth(m)]
    for n in range(1, 8 * 512 + 2):
        assert _smooth_length(n) == min(m for m in lengths if m >= n), n


@settings(max_examples=200, deadline=None)
@given(exact_cases())
@example((TrigPoly((8,), np.eye(17)[8]), (8,)))
@example((TrigPoly.random_real((3, 2), np.random.default_rng(5)), (2, 4)))
def test_exact_quadrature_keeps_the_former_grids_norm(case):
    t, p = case
    got = trig_lp_norm(t, p)
    want = old_grid_norm(t, p)
    assert abs(got - want) <= 1e-13 * want


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_the_two_norm_is_parseval(t):
    want = math.sqrt(math.fsum(np.abs(t.coeff).ravel() ** 2))
    got = trig_lp_norm(t, (2,) * t.d)
    assert abs(got - want) <= 1e-13 * want


@settings(max_examples=200, deadline=None)
@given(polynomials(max_dim=1, max_degree=40))
def test_the_grid_maximum_is_within_the_grid_bound(t):
    # For real t of degree N, arccos(t / max|t|) changes at rate at most N
    # (Bernstein's inequality), and every point is within pi / G of the grid:
    # so the grid maximum is at least cos(pi N / G) of the true maximum, which
    # is at least the maximum on the 32-fold finer grid.  That grid holds
    # the quadrature grid, so it bounds the grid maximum from above, up to
    # the rounding of its own transform.
    t = TrigPoly(t.degree, 0.5 * (t.coeff + np.conj(t.coeff[::-1])))
    (N,), (G,) = t.degree, _norm_grid(t.degree)
    grid_max = trig_lp_norm(t, (math.inf,))
    dense_max = float(np.abs(t.values((32 * G,))).max())
    assert dense_max * math.cos(math.pi * N / G) <= grid_max * (1 + 1e-13)
    assert grid_max <= dense_max * (1 + 1e-13)


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.data())
@example(TrigPoly((0, 0), [[1.5 - 2j]]), None)
def test_two_norms_from_coefficients_agree_with_the_quadrature(t, data):
    two = (2,) * t.d
    want = old_grid_norm(t, two)
    assert abs(trig_lp_norm(t, two) - want) <= ULPS * want
    r = (1.5,) * t.d
    if data is not None:
        r = tuple(data.draw(st.sampled_from((0.5, 1, 1.5, 2, 2.5, 3.2))) for _ in two)
    want = grid_margin(t, r)
    assert abs(smoothness_margin(t, r, two) - want) <= ULPS * want
