"""Golden outputs of the exact-formula layer.

The order formulas multiply ``PowerProduct`` factors whose exponents may be
floats, and merged float exponent sums depend on the order of the factors.
So the ``repr`` of every output below is pinned in ``golden_formulas.json``,
and a change to the formula code must keep each one bit for bit.
The inputs mix float, integer and ``Fraction`` exponents, repeat box sides
(repeated bases merge in ``PowerProduct``) and reach every regime; refusals
are pinned by exception type and message.

Rewrite the golden file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_formula_golden.py --record
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from anisowidth import (
    BallProblem,
    ball_order_low_q,
    h_family_minimize,
    lower_bound_plan,
    phi,
    width_exponent,
)

GOLDEN = Path(__file__).with_name("golden_formulas.json")

_P = (1, 1.25, 1.5, 2, 2.5, 3, 4, "inf", Fraction(5, 2), Fraction(7, 3), 1.2)
_Q = (2, 2.5, 3, 3.5, 4, 6, Fraction(7, 2), Fraction(9, 4), 2.2)
_Q_LOW = (1, 1.25, 1.5, 1.75, 2, Fraction(4, 3))
_R = (0.5, 1, 1.5, 2, 2.5, 3, Fraction(5, 2), Fraction(2, 3))
_K = (2, 3, 4, 4, 8, 16)

_BALLS = [
    ((4, 4), (1.5, 1.5), (2.5, 2.5)),
    ((4, 4), (1, 3), (4, 4)),
    ((4, 4), (3, 3), (4, 4)),
    ((3, 5), (1.25, 2.5), (3.5, 2.5)),
    ((8,), (1.5,), (3.0,)),
    ((16,), (2,), (8,)),
    ((8, 16), (3, 1), (4, 4)),
    ((2, 4, 4), (1.5, 4, 1.5), (2.5, 2.5, 6)),
    ((4, 4, 2), ("inf", 1.5, 1.2), (4, 3.3, 2)),
    ((4, 8, 8), (2.5, 2.5, 1.5), (3.5, 3.5, 4.5)),
]

# (k, n, p, q) whose outputs change when the tail, window or phi factors are
# grouped differently (one product of all factors, or the bracket's
# exponents scaled before they merge): found by search, they pin the order.
_ORDER_SENSITIVE = [
    ((8, 16, 16), 403, (4.5, 4.5, 1.9), (5.5, 2.9, 5.5)),
    ((4, 4, 4), 16, (2.9, 1.2, 1.9), (6.5, 3.3, 5.5)),
    ((4, 4), 8, (1.7, "inf"), (5.5, 4.5)),
    ((4, 4, 8), 33, (2.2, 1.25, 1.9), (2.9, 4.5, 2.5)),
    ((4, 8, 4), 62, (2.2, 2.9, 1.25), (4.5, 6.5, 3.7)),
    ((2, 2), 2, (4.5, 1.9), (6.5, 4.5)),
]

_CLASSES = [
    ((1.5, 1.5), (2.5, 2.5), (1.5, 2.5)),
    ((1.5, 4, 3), (2.5, 3, 6), (0.5, 3, 1.5)),
    ((1.5, 2, 4, "inf"), (2, 2, 3, 6), (0.5, 3, 0.5, 1)),
    ((2, 1.5, "inf"), (2, 2, 4), (3, 0.5, 1)),
    ((3, 3), (4, 4), (1, 1)),
    ((2.5, 1.25), (3.5, 2.2), (Fraction(5, 2), 2)),
]


def _show(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


def _n_values(K):
    return sorted(n for n in {0, 1, 2, 3, K // 8, K // 4, K // 3, K // 2} if 2 * n <= K)


def _cases():
    rng = random.Random(20261018)
    balls = list(_BALLS)
    for _ in range(80):
        d = rng.choice((1, 2, 2, 3))
        balls.append(
            (
                tuple(rng.choice(_K) for _ in range(d)),
                tuple(rng.choice(_P) for _ in range(d)),
                tuple(rng.choice(_Q) for _ in range(d)),
            )
        )
    lows = []
    for _ in range(24):
        d = rng.choice((1, 2, 3))
        lows.append(
            (
                tuple(rng.choice(_K) for _ in range(d)),
                tuple(rng.choice(_P) for _ in range(d)),
                tuple(rng.choice(_Q_LOW) for _ in range(d)),
                rng.randint(0, d),
            )
        )
    for _ in range(24):  # admissible two-block patterns
        d = rng.choice((1, 2, 3))
        nu = rng.randint(0, d)
        q = tuple(rng.choice(_Q_LOW) for _ in range(d))
        p = tuple(
            rng.choice([v for v in _Q_LOW if v <= q[j]] if j < nu else (q[j], 2.5, "inf"))
            for j in range(d)
        )
        lows.append((tuple(rng.choice(_K) for _ in range(d)), p, q, nu))
    classes = list(_CLASSES)
    for _ in range(40):
        d = rng.choice((1, 2, 3, 4))
        classes.append(
            (
                tuple(rng.choice(_P) for _ in range(d)),
                tuple(rng.choice(_Q) for _ in range(d)),
                tuple(rng.choice(_R) for _ in range(d)),
            )
        )
    return balls, lows, classes


def render() -> dict:
    """Every pinned output, keyed by its call."""
    balls, lows, classes = _cases()
    out = {}
    cases = [(k, n, p, q) for k, p, q in balls for n in _n_values(math.prod(k))]
    for k, n, p, q in cases + _ORDER_SENSITIVE:
        prob = BallProblem(k=k, n=n, p=p, q=q)
        key = f"k={k} n={n} p={p} q={q}"
        out[f"phi {key}"] = _show(phi, prob)
        out[f"lower_bound_plan {key}"] = _show(lower_bound_plan, prob)
    for k, p, q, nu in lows:
        prob = BallProblem(k=k, n=1, p=p, q=q)
        out[f"ball_order_low_q k={k} p={p} q={q} nu={nu}"] = _show(
            ball_order_low_q, prob, nu
        )
    for p, q, r in classes:
        key = f"p={p} q={q} r={r}"
        out[f"width_exponent {key}"] = _show(width_exponent, p, q, r)
        out[f"h_family_minimize {key}"] = _show(h_family_minimize, p, q, r)
    return out


def test_formula_outputs_are_unchanged():
    golden = json.loads(GOLDEN.read_text())
    got = render()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[0]}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(render(), indent=1, sort_keys=True) + "\n")
