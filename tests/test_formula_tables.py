"""One validated sorted profile per formula command, and the same results.

The ``exponent`` report builds ``_tables`` once and hands it to both routes;
``phi`` and ``lower_bound_plan`` share the sorted axes cached on their
``BallProblem``.  These tests pin the count and check that sharing changes
no value, no type and no refusal.
"""

import json
import math
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anisowidth import (
    BallProblem,
    PropertyViolation,
    ValidationError,
    as_exponents,
    ball_widths,
    cli,
    exponents,
    h_family_minimize,
    lower_bound_plan,
    omega,
    phi,
    sorted_profile,
    width_exponent,
)
from anisowidth.exponents import _profile


def _near_integer(lo, hi):
    """Floats within four ulps of an integer in ``[lo, hi]``."""
    return st.builds(
        lambda n, k: float(n) * (1 + k * 2.0**-52), st.integers(lo, hi), st.integers(-4, 4)
    )


def _exponent(lo):
    return st.one_of(
        st.fractions(min_value=lo, max_value=12, max_denominator=12),
        st.floats(min_value=lo, max_value=12),
        _near_integer(lo, 12),
        st.integers(lo, 12),
        st.sampled_from(["inf", math.inf]),
    )


def _smoothness():
    return st.one_of(
        st.fractions(min_value=Fraction(1, 4), max_value=5, max_denominator=8),
        st.floats(min_value=0.25, max_value=5),
        _near_integer(1, 5),
    )


@st.composite
def class_problems(draw):
    d = draw(st.integers(1, 4))
    return {
        "kind": "sobolev",
        "p": draw(st.lists(_exponent(1), min_size=d, max_size=d)),
        # q = inf and q just below 2 are refused, as they must be
        "q": draw(st.lists(_exponent(2), min_size=d, max_size=d)),
        "r": draw(st.lists(_smoothness(), min_size=d, max_size=d)),
    }


def _separate_report(prob):
    """The ``exponent`` report from one public call per route."""
    p, q, r = prob["p"], prob["q"], prob["r"]
    wo = width_exponent(p, q, r)
    prof = sorted_profile(p, q)
    hf = h_family_minimize(p, q, r)
    a, b = hf.value, wo.exponent
    if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
        a, b = float(a), float(b)
    return {
        "mode": "sorted",
        "omega": list(prof.omega),
        "sigma": list(prof.sigma),
        "mu": prof.mu,
        "nu": prof.nu,
        "theta_table": {str(t): v for t, v in wo.all_theta.items()},
        "conditions": asdict(wo.conditions),
        "exponent": wo.exponent,
        "argmin_index": wo.argmin_index,
        "regime_note": wo.regime_note,
        "h_min_crosscheck": {
            "value": hf.value,
            "s_star": hf.s_star,
            "agrees": abs(a - b) <= Fraction(1e-10) * max(1, abs(b)),
        },
    }


def _outcome(call, *args):
    """``repr`` of the result, so that ``Fraction(1)`` and ``1.0`` differ, or
    the type and message of the refusal."""
    try:
        return repr(call(*args))
    except (ValidationError, PropertyViolation) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=150, deadline=None)
@given(class_problems())
@example(
    {
        "kind": "sobolev",
        "p": [2.0000000000000004, Fraction(13, 9)],
        "q": [6, 3],
        "r": [Fraction(33, 8), 1.0],
    }
)
def test_shared_tables_give_the_separate_report(prob):
    assert _outcome(cli._exponent_report, prob) == _outcome(_separate_report, prob)


@settings(max_examples=150, deadline=None)
@given(class_problems())
def test_omega_table_is_omega_of_each_axis(prob):
    try:
        p, q = as_exponents(prob["p"]), as_exponents(prob["q"])
    except ValidationError:
        assume(False)
    assume(all(0 < rq <= Fraction(1, 2) for rq in q.recip))
    table = _profile(p, q).omega
    assert sorted_profile(prob["p"], prob["q"]).omega == table
    for w, pj, qj in zip(table, prob["p"], prob["q"]):
        expected = omega(pj, qj)
        assert w == expected and type(w) is type(expected), (pj, qj)


def test_sorted_profile_refuses_the_first_bad_target_by_its_value():
    with pytest.raises(ValidationError, match=r"^target exponent q=3/2 must lie in \[2, inf\)$"):
        sorted_profile((1, 2, 3), (4, Fraction(3, 2), math.inf))
    with pytest.raises(ValidationError, match=r"^target exponent q=inf must lie"):
        sorted_profile((1, 2), (4, "inf"))


@st.composite
def ball_problems(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    n = draw(st.integers(0, math.prod(k) // 2))
    p = draw(st.lists(_exponent(1), min_size=d, max_size=d))
    q = draw(st.lists(_exponent(2), min_size=d, max_size=d))
    return k, n, p, q


@settings(max_examples=100, deadline=None)
@given(ball_problems())
def test_phi_and_plan_agree_on_fresh_and_reused_problems(args):
    try:
        BallProblem(*args)
    except ValidationError:
        assume(False)
    fresh = [_outcome(phi, BallProblem(*args)), _outcome(lower_bound_plan, BallProblem(*args))]
    reused = BallProblem(*args)
    assert [_outcome(phi, reused), _outcome(lower_bound_plan, reused)] == fresh
    assert [_outcome(phi, reused), _outcome(lower_bound_plan, reused)] == fresh
    backwards = BallProblem(*args)
    assert [_outcome(lower_bound_plan, backwards), _outcome(phi, backwards)] == fresh[::-1]


# ---------------------------------------------------------------------------
# one sorted profile per command

FORMULA_COMMANDS = [
    ("exponent", {"kind": "sobolev", "p": [1], "q": [4], "r": [2]}),
    ("exponent", {"kind": "nikolskii", "p": [1.5, 2, 4, "inf"], "q": [2, 2, 3, 6], "r": [0.5, 3, 0.5, 1]}),
    ("exponent", {"kind": "sobolev", "p": [3, 1, "inf"], "q": [4, 8, 2.5], "r": [1, 2, 1.5]}),
    ("phi", {"kind": "ball", "k": [16], "n": 4, "p": [2], "q": [4]}),
    ("phi", {"kind": "ball", "k": [8, 6, 5], "n": 9, "p": [1, 4, "inf"], "q": [6, 3, 2]}),
    ("phi", {"kind": "ball", "k": [9, 9], "n": 30, "p": [1.5, 2], "q": [8, 2.5]}),
]


@pytest.mark.parametrize("command, prob", FORMULA_COMMANDS)
def test_each_formula_command_builds_one_sorted_profile(command, prob, tmp_path, capsys, monkeypatch):
    counts = {"_tables": 0, "_sorted_axes": 0, "_profile": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    # cli and ball_widths bind their own names; exponents resolves its own.
    count(cli, "_tables")
    count(exponents, "_sorted_axes")
    count(ball_widths, "_sorted_axes")
    count(exponents, "_profile")
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    assert cli.main([command, "--input", str(path)]) == 0
    assert capsys.readouterr().out
    tables = 1 if command == "exponent" else 0
    assert counts == {"_tables": tables, "_sorted_axes": 1, "_profile": 1}
