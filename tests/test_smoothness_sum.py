"""Smoothness vectors whose float reciprocals sum beyond the float range."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisowidth import (
    NotCompactError,
    ValidationError,
    dyadic_beta,
    h_family_minimize,
    smoothness_vector,
    width_exponent,
)
from anisowidth.cli import main

# the least float whose reciprocal is finite
TINIEST = math.nextafter(1 / sys.float_info.max, 1.0)


REFUSAL = "the reciprocals 1/r_j of the smoothness vector sum beyond the float range"


def recip_sum(r):
    """The correctly rounded sum of the reciprocals, inf beyond the float range."""
    try:
        return math.fsum(1 / v for v in r)
    except OverflowError:
        return math.inf


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=TINIEST, max_value=1e-306), min_size=1, max_size=4),
    st.sampled_from([("inf", 2), (1, 2), (4, 4), (Fraction(3, 2), 3)]),
)
@example([1e-308] * 4, ("inf", 2))
@example([1e-308] * 4, (1, 2))
@example([1.2e-308] * 2, (1, 2))
# an exact sum below the float range that overflows when summed in order
@example([1.668805393880401e-308, 1.668805393880402e-308, 1.6688053938804005e-308], ("inf", 2))
def test_reciprocals_summing_beyond_range_are_refused_by_name(r, pq):
    # r = [1e-308]*4 with p = inf, q = 2 gave the exponent 0.0 (the true one
    # is about 2.5e-309), and with p = 1 a margin of inf - inf = nan.
    p, q = (tuple(pq[0] for _ in r), tuple(pq[1] for _ in r))
    total = recip_sum(r)
    try:
        smoothness_vector(r)
    except ValidationError as exc:
        assert str(exc) == REFUSAL
        # refused only within rounding of the float range
        assert total > sys.float_info.max * (1 - 2.0**-48)
        for call in (width_exponent, h_family_minimize):
            with pytest.raises(ValidationError) as exc:
                call(p, q, r)
            assert not isinstance(exc.value, NotCompactError)
            assert str(exc.value) == REFUSAL
        with pytest.raises(ValidationError, match=REFUSAL):
            dyadic_beta(r)
        return
    assert total < math.inf
    try:
        value = width_exponent(p, q, r).exponent
    except NotCompactError as exc:
        assert "nan" not in str(exc) and "inf <=" not in str(exc)
        return
    assert 0 < value < math.inf
    assert 0 < h_family_minimize(p, q, r).value < math.inf


def test_exact_reciprocals_are_not_bounded():
    tiny = Fraction(1, 10**400)
    assert smoothness_vector((tiny, tiny)) == (tiny, tiny)
    # an exact reciprocal beyond the float range cannot meet a float one
    with pytest.raises(ValidationError) as exc:
        smoothness_vector((tiny, 0.5))
    assert str(exc.value) == REFUSAL


def test_numpy_float_entries_are_checked_too():
    with pytest.raises(ValidationError, match=REFUSAL):
        smoothness_vector([np.float64(1e-308)] * 4)


@pytest.mark.parametrize("p", [["inf"] * 4, [1] * 4], ids=["p-inf", "p-one"])
def test_cli_refuses_reciprocals_summing_beyond_range_exit_two(tmp_path, capsys, p):
    path = tmp_path / "tiny_r.json"
    path.write_text(json.dumps({"kind": "sobolev", "p": p, "q": [2] * 4, "r": [1e-308] * 4}))
    assert main(["exponent", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {REFUSAL}\n"
