"""The plans the trig toolkit keeps once per key: scale degrees, quadrature
grids, FFT positions, taper weights and Weyl multipliers.

A key must not join inputs that are equal but take different routes, a
refusal must be raised on every call, every kept array is read-only, and
no result shares memory with a kept array or with its input.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from anisowidth import (
    TrigPoly,
    ValidationError,
    dyadic_block,
    nikolskii_ratio,
    vp_at_scale,
    vp_operator,
    weyl_derivative,
    weyl_integral,
)
from anisowidth.trig_approx import (
    _norm_grid,
    _scale_degrees,
    _spectrum_positions,
    _taper_weights,
    _weyl_multiplier,
    scale_degrees,
)

EXACT_68 = (44329531022053, 6658042)  # floor(2^(2/3 * 68)) in integers
FLOAT_68 = (44329531022052, 6658042)  # the same power in floats


@pytest.mark.parametrize("exact_first", [True, False])
def test_scale_degree_keys_keep_the_exact_and_float_routes_apart(exact_first):
    _scale_degrees.cache_clear()
    calls = [((Fraction(1, 2), 1), EXACT_68), ((0.5, 1), FLOAT_68)]
    for r, want in calls if exact_first else calls[::-1]:
        assert scale_degrees(r, 68) == want
    for r, want in calls:
        assert scale_degrees(r, 68) == want


def test_scale_degree_keys_keep_refusals_apart():
    assert scale_degrees((1, 1), 4) == (4, 4)
    for r, message in [
        ((True, 1), "bad smoothness entry True"),
        ((np.int64(1), 1), "bad smoothness entry type int64"),
        (([1], 1), "bad smoothness entry type list"),  # cannot be hashed
    ]:
        for _ in range(2):  # no refusal is kept
            with pytest.raises(ValidationError, match=f"^{message}$"):
                scale_degrees(r, 4)
    assert scale_degrees(np.array([1.0, 1.0]), 4) == (4, 4)


def weyl_multiplier_by_definition(N, r, alpha, sign):
    k = np.arange(-N, N + 1, dtype=float)
    phase = np.exp(sign * 1j * np.sign(k) * alpha * math.pi / 2.0)
    mag = np.full(len(k), 0.0 if r > 0 else 1.0)
    mag[k != 0] = np.abs(k[k != 0]) ** (sign * r)
    return mag * phase


def signed_zero_coefficients(degree, seed):
    """Complex coefficients with +0.0 and -0.0 in some real and imaginary
    parts, where a multiplier's signed zeros would show."""
    rng = np.random.default_rng(seed)
    shape = tuple(2 * N + 1 for N in degree)
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    parts = coeff.view(np.float64)
    zeros = rng.random(parts.shape) < 0.3
    parts[zeros] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[zeros]
    return coeff


@pytest.mark.parametrize("positive_zero_first", [True, False])
@pytest.mark.parametrize("fn, sign", [(weyl_derivative, 1), (weyl_integral, -1)])
@pytest.mark.parametrize("r", [0.0, 1.0, 1.5])
def test_weyl_keys_give_each_signed_zero_phase_its_defined_bytes(
    positive_zero_first, fn, sign, r
):
    # 0.0 == -0.0 share a key; each must still give its own definition's bytes
    _weyl_multiplier.cache_clear()
    t = TrigPoly((5, 2), signed_zero_coefficients((5, 2), 13))
    for alpha in (0.0, -0.0) if positive_zero_first else (-0.0, 0.0):
        want = t.coeff * weyl_multiplier_by_definition(5, r, alpha, sign).reshape(-1, 1)
        assert fn(t, 1, r, alpha).coeff.tobytes() == want.tobytes()


def test_kept_plans_are_read_only_and_no_result_shares_them():
    t = TrigPoly.random_real((7, 3), np.random.default_rng(11))
    before = t.coeff.copy()
    r = (1, 2)
    calls = [
        lambda: vp_operator(t, (4, 2)),
        lambda: vp_at_scale(t, r, 3),
        lambda: dyadic_block(t, r, 0),
        lambda: dyadic_block(t, r, 3),
        lambda: weyl_derivative(t, 1, 1.5, 0.5),
        lambda: weyl_derivative(t, 2, 1, 0),
    ]
    assert nikolskii_ratio(t, (4, 4), (math.inf, 1)) > 0  # keeps a grid's positions
    kept = [_weyl_multiplier(7, 1.5, 0.5, 1), _weyl_multiplier(3, 1.0, 0.0, 1)]
    kept += _spectrum_positions(t.degree, _norm_grid(t.degree))
    for N in [(4, 2)] + [scale_degrees(r, m) for m in range(4)]:
        out_deg = [min(Nf, 2 * Nj - 1) for Nf, Nj in zip(t.degree, N)]
        kept += [_taper_weights(Nj, Dj) for Nj, Dj in zip(N, out_deg)]
    for array in kept:
        with pytest.raises(ValueError):
            array[0] = 2
    for call in calls:
        first = call()
        want = first.coeff.copy()
        assert not any(np.shares_memory(first.coeff, a) for a in kept + [t.coeff])
        first.coeff[...] = -3.0
        assert call().coeff.tobytes() == want.tobytes()
        assert t.coeff.tobytes() == before.tobytes()
