"""Band-only grid transforms: bit identity with the full transforms (the
real inverse transform for real polynomials), and the work they skip."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisowidth import (
    Tensor,
    TrigPoly,
    ValidationError,
    approximation_rate,
    bernstein_ratio,
    mixed_norm,
    nikolskii_ratio,
    samples_to_trigpoly,
    trig_lp_norm,
)
from anisowidth.mixed_norm import as_exponents
from anisowidth.trig_approx import _degree_power, _grid_norms, _norm_grid, smoothness_margin

EXPONENTS = (1, 1.5, 2, 3, 4, math.inf)


# ---------------------------------------------------------------------------
# the full transforms


def _spectrum_index(degree, grid):
    """FFT positions of the band ``|k_j| <= N_j`` on a uniform grid that
    resolves it (``G_j >= 2 N_j + 1``)."""
    if len(grid) != len(degree):
        raise ValidationError(f"grid {grid} and degree {degree} differ in dimension")
    for G, N in zip(grid, degree):
        if G < 2 * N + 1:
            raise ValidationError(f"grid {G} aliases a degree-{N} band (need >= {2 * N + 1})")
    return np.ix_(*((np.arange(-N, N + 1) % G) for N, G in zip(degree, grid)))


def full_values(self, grid):
    index = _spectrum_index(self.degree, grid)
    spec = np.zeros(grid, dtype=complex)
    spec[index] = self.coeff
    return np.fft.ifftn(spec) * math.prod(grid)


def full_real_values(coeff, grid):
    """``irfftn`` of the half-spectrum (last-axis frequencies ``0..N``) of
    conjugate-symmetric ``coeff``, spread onto the whole grid."""
    degree = tuple((n - 1) // 2 for n in coeff.shape)
    half = np.zeros(grid[:-1] + (grid[-1] // 2 + 1,), dtype=complex)
    positions = [np.arange(-N, N + 1) % G for N, G in zip(degree[:-1], grid[:-1])]
    half[np.ix_(*positions, np.arange(degree[-1] + 1))] = coeff[..., degree[-1] :]
    return np.fft.irfftn(half, grid, axes=range(len(grid))) * math.prod(grid)


def hermitian_parts(coeff):
    """``(h, b)`` with ``coeff = h + i b``, both conjugate-symmetric, as
    ``TrigPoly.values`` splits them."""
    mirror = np.conj(np.flip(coeff))
    return 0.5 * coeff + 0.5 * mirror, -0.5j * (coeff - mirror)


def full_samples_to_trigpoly(values, degree):
    values = np.asarray(values)
    index = _spectrum_index(degree, values.shape)
    spec = np.fft.fftn(values) / math.prod(values.shape)
    return TrigPoly(degree, spec[index])


def full_grid_norm(values, p):
    raw = mixed_norm(Tensor.from_array(np.abs(values)), p)
    return raw * _degree_power(values.shape, [-float(recip) for recip in p.recip])


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# strategies


@st.composite
def polynomials(draw):
    """A polynomial of dimension <= 3, with degree-0 axes allowed: real,
    complex, or with a few nonzero coefficients (signed zeros among them)."""
    degree = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    shape = tuple(2 * N + 1 for N in degree)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("real", "complex", "sparse")))
    if kind == "real":
        return TrigPoly.random_real(degree, rng)
    if kind == "complex":
        return TrigPoly(degree, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeff = np.zeros(shape, dtype=complex)
    for _ in range(draw(st.integers(1, 3))):
        at = tuple(draw(st.integers(0, s - 1)) for s in shape)
        coeff[at] = complex(
            draw(st.sampled_from((-0.0, 0.0, 1.0, -2.5))), draw(st.floats(-4, 4))
        )
    return TrigPoly(degree, coeff)


@st.composite
def grids_for(draw, degree):
    """Grids from the least that resolves ``degree`` (``2N + 1``) up."""
    return tuple(2 * N + 1 + draw(st.integers(0, 10)) for N in degree)


@st.composite
def polys_on_grids(draw):
    t = draw(polynomials())
    return t, draw(grids_for(t.degree))


@st.composite
def real_polys_on_grids(draw):
    """Real polynomials: the draws of :func:`polynomials` made exactly
    conjugate-symmetric."""
    t = draw(polynomials())
    return TrigPoly(t.degree, hermitian_parts(t.coeff)[0]), draw(grids_for(t.degree))


# ---------------------------------------------------------------------------
# bit identity


@settings(max_examples=300, deadline=None)
@given(real_polys_on_grids())
@example((TrigPoly((0,), [2.0]), (1,)))
@example((TrigPoly.from_coeff_dict((0, 3), {(0, 3): 1.0, (0, -3): 1.0}), (5, 7)))
@example((TrigPoly((1, 1), [[0, 0, 0], [-0.0, 1, -0.0], [0, 0, 0]]), (3, 4)))
def test_values_are_the_full_inverse_transform_bit_for_bit(case):
    # a real polynomial: float values, those of irfftn on the whole grid
    t, grid = case
    assert same_bytes(t.values(grid), full_real_values(t.coeff, grid))


@settings(max_examples=300, deadline=None)
@given(polys_on_grids())
@example((TrigPoly.from_coeff_dict((0, 3), {(0, 3): 1.0}), (5, 7)))
@example((TrigPoly.from_coeff_dict((0, 1), {(0, -1): 2.2e-311j}), (2, 6)))
def test_other_values_are_those_of_their_two_real_parts(case):
    t, grid = case
    got = t.values(grid)
    if np.isrealobj(got):  # exactly conjugate-symmetric, up to signed zeros
        assert not (t.coeff - np.conj(np.flip(t.coeff))).any()
        return
    h, b = hermitian_parts(t.coeff)
    assert same_bytes(got.real, full_real_values(h, grid))
    assert same_bytes(got.imag, full_real_values(b, grid))
    full = full_values(t, grid)
    scale = float(np.abs(t.coeff).sum())
    # The relative bound underflows to 0 for subnormal coefficients, whose
    # values still differ by a few of the least subnormals per grid point.
    bound = max(1e-14 * scale, 4 * 2.0**-1074) * math.prod(grid)
    assert np.abs(got - full).max() <= bound


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 13), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.data(),
)
def test_sampling_is_the_full_forward_transform_bit_for_bit(grid, seed, real, data):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid)
    if not real:
        values = values + 1j * rng.standard_normal(grid)
    degree = tuple(data.draw(st.integers(0, (G - 1) // 2)) for G in grid)
    got = samples_to_trigpoly(values, degree)
    want = full_samples_to_trigpoly(values, degree)
    assert got.degree == want.degree and same_bytes(got.coeff, want.coeff)


def scaled(values, e):
    """``values * 2**e`` entry by entry, without a complex multiply."""
    if np.isrealobj(values):
        return np.ldexp(values, e)
    out = np.empty(values.shape, dtype=complex)
    out.real, out.imag = np.ldexp(values.real, e), np.ldexp(values.imag, e)
    return out


def complex_poly(degree, seed):
    shape = tuple(2 * N + 1 for N in degree)
    rng = np.random.default_rng(seed)
    return TrigPoly(degree, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# Grids of several blocks (_BLOCK = 2**15 entries): the block width is
# _BLOCK // 600 = 54 columns for (600, 120), 64 for (512, 128), 27 for
# (40, 30, 100) and 32 for (32, 32, 96), and one column of 40,000 entries
# for (200, 200, 3).  So the last axes of (512, 128) and (32, 32, 96) are
# multiples of the width, and the others are not.
@settings(max_examples=300, deadline=None)
@given(
    polys_on_grids(),
    st.booleans(),
    st.sampled_from(("C", "F")),
    st.integers(-1070, 1015),
    st.lists(st.sampled_from(EXPONENTS), min_size=3, max_size=3),
    st.lists(st.sampled_from(EXPONENTS), min_size=3, max_size=3),
    st.integers(0, 12),
)
@example((TrigPoly((1,), [1, 2, 3]), (5,)), True, "C", 400, [2, 2, 2], [1, 1, 1], 0)
@example((TrigPoly((2, 1), np.ones((5, 3))), (5, 4)), False, "F", -400, [1, 3, 2], [4, 4, 4], 0)
@example((TrigPoly.random_real((3, 2), np.random.default_rng(1)), (600, 120)),
         True, "C", 290, [3, 2, 1], [math.inf, 1.5, 1], 54)
@example((complex_poly((3, 2), 1), (600, 120)), False, "F", 290, [2, 1, 1], [1, 3, 1], 12)
@example((complex_poly((2, 3), 2), (600, 120)), False, "F", 700, [1, 4, 1], [2, 2, 1], 0)
@example((complex_poly((2, 3), 3), (512, 128)), False, "C", -700, [math.inf, 3, 1], [1.5, 1, 1], 0)
@example((TrigPoly.random_real((4, 4), np.random.default_rng(4)), (512, 128)),
         True, "F", 515, [2, 4, 1], [1, math.inf, 1], 0)
@example((TrigPoly.random_real((2, 2, 3), np.random.default_rng(5)), (40, 30, 100)),
         True, "F", -700, [4, 1, 1.5], [math.inf, 3, 2], 30)
@example((complex_poly((1, 1, 1), 6), (32, 32, 96)), False, "C", 290, [1.5, 2, 3], [1, 1, 4], 40)
@example((complex_poly((2, 1, 2), 7), (40, 30, 100)), True, "C", -1000, [3, math.inf, 1], [2, 2, 2], 0)
@example((TrigPoly.random_real((1, 1, 1), np.random.default_rng(8)), (200, 200, 3)),
         False, "F", 700, [1, 2, 4], [math.inf, 1.5, 3], 1)
@example((TrigPoly((1, 1)), (600, 120)), True, "C", 0, [3, 2, 1], [1, math.inf, 1], 0)
def test_grid_norm_is_the_tensor_norm_bit_for_bit(case, real, order, e, p, q, tiny):
    # on data beyond 2**+-300 both take the power-of-two rescaling route;
    # the first and the last `tiny` columns along the last axis are moved
    # 2**-660 below the rest, so that whole blocks can lie below 2**-300 in a
    # grid whose largest entry lies in range (e = 290), which a rescaling
    # by the tiny blocks' maximum would make overflow
    t, grid = case
    values = t.values(grid)
    if real:
        values = values.real
    values = np.asarray(scaled(values, e), order=order)
    for ends in (np.s_[..., :tiny], np.s_[..., grid[-1] - tiny :]):
        values[ends] = scaled(values[ends], -660)
    p, q = as_exponents(p[: len(grid)]), as_exponents(q[: len(grid)])
    got = _grid_norms(values, p, q)
    assert same_bytes(got, [full_grid_norm(values, p), full_grid_norm(values, q)])
    assert same_bytes(_grid_norms(values, q)[0], got[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("order", ["C", "F"])
def test_grid_norm_refuses_non_finite_samples_as_the_tensor_norm_does(bad, order):
    # one grid of one block, and real and complex grids of several blocks
    # with the bad entry in their last block
    real = TrigPoly.random_real((2, 3), np.random.default_rng(4))
    for t, grid, at in [
        (real, (7, 9), (3, 5)),
        (real, (600, 120), (590, 115)),
        (complex_poly((2, 3), 4), (600, 120), (7, 119)),
    ]:
        values = np.asarray(t.values(grid), order=order)
        values[at] = bad
        p = as_exponents((2, 3))
        with pytest.raises(ValidationError) as want:
            full_grid_norm(values, p)
        with pytest.raises(ValidationError) as got:
            _grid_norms(values, p)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# work done


def test_bernstein_ratio_holds_less_than_two_grids():
    # A 64 x 64 polynomial's quadrature grid is 540 x 540.  Each norm holds
    # its samples and one block of magnitudes, never a second grid; a
    # Fortran-ordered copy of the magnitudes beside the samples, and the
    # powers of either, would take the peak past two grids.
    t = TrigPoly.random_real((64, 64), np.random.default_rng(1))
    args = (t, (1, 1), (0, 0), (3, 3))
    bernstein_ratio(*args)  # keeps the grid's plans
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        bernstein_ratio(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * 540 * 540 * 8


def test_nikolskii_ratio_evaluates_the_polynomial_once(monkeypatch):
    t = TrigPoly.random_real((5, 3), np.random.default_rng(7))
    want = nikolskii_ratio(t, (1, 4), (2, math.inf))
    calls = []
    values = TrigPoly.values

    def counting(self, grid):
        calls.append(tuple(grid))
        return values(self, grid)

    monkeypatch.setattr(TrigPoly, "values", counting)
    assert nikolskii_ratio(t, (1, 4), (2, math.inf)) == want
    assert calls == [(45, 25)]


def _recording(monkeypatch, *names):
    """Patch each ``np.fft.<name>``; returns the list of ``(name, lines,
    length)`` of each pass they run, the length being that of the output."""
    passes = []
    for name in names:
        transform = getattr(np.fft, name)

        def recording(a, n=None, axis=-1, *args, name=name, transform=transform, **kwargs):
            a = np.asarray(a)
            length = n if n is not None else a.shape[axis]
            passes.append((name, a.size // a.shape[axis], length))
            return transform(a, n, axis, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return passes


@pytest.mark.parametrize("degree", [(6,), (5, 3), (2, 3, 1)])
def test_smoothness_margin_takes_one_forward_transform_per_axis(monkeypatch, degree):
    # p = 3: the grid route (a flat p = 2 takes no transform at all)
    t = TrigPoly.random_real(degree, np.random.default_rng(8))
    r = tuple(1.5 for _ in degree)
    p = tuple(3 for _ in degree)
    want = smoothness_margin(t, r, p)
    passes = _recording(monkeypatch, "fft", "rfft")
    assert smoothness_margin(t, r, p) == want
    # one real forward transform over the whole grid per axis, none complex
    grid = _norm_grid(degree)
    assert [(name, length) for name, _, length in passes] == [("rfft", G) for G in grid]


@pytest.mark.parametrize("degree", [(6,), (0, 4), (5, 3), (2, 3, 1)])
def test_two_norms_take_no_transform(monkeypatch, degree):
    # every norm with p = (2, ..., 2) comes from the coefficients
    t = TrigPoly.random_real(degree, np.random.default_rng(11))
    z = TrigPoly(degree, t.coeff + 1j * np.random.default_rng(12).standard_normal(t.coeff.shape))
    two = (2,) * len(degree)
    r = (1.5,) * len(degree)
    passes = _recording(monkeypatch, "fft", "rfft", "ifft", "irfft")
    for s in (t, z):
        assert trig_lp_norm(s, two) > 0
        assert smoothness_margin(s, r, two) > 0
        assert nikolskii_ratio(s, two, two) == 1.0
        approximation_rate(s, r, two, m_max=3, check_membership=False)
    approximation_rate(t * (0.5 / smoothness_margin(t, r, two)), r, two, m_max=3)
    assert passes == []


def test_values_transform_only_the_band_lines(monkeypatch):
    # degree (64, 32) on its quadrature grid (540, 270): axis 0 goes first,
    # over the 33 lines of the half band of axis 1 (not 129 or 270), then
    # the real inverse transform runs over all 540 rows.
    t = TrigPoly.random_real((64, 32), np.random.default_rng(9))
    assert _norm_grid(t.degree) == (540, 270)
    passes = _recording(monkeypatch, "ifft", "irfft")
    t.values((540, 270))
    assert passes == [("ifft", 33, 540), ("irfft", 540, 270)]


def test_sampling_transforms_only_the_lines_it_keeps(monkeypatch):
    values = np.random.default_rng(10).standard_normal((513, 257))
    passes = _recording(monkeypatch, "fft")
    samples_to_trigpoly(values, (64, 32))
    assert passes == [("fft", 513, 257), ("fft", 65, 513)]
