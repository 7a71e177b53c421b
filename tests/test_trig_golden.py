"""Golden outputs of the trigonometric toolkit.

The taper, Weyl and difference operators multiply coefficient arrays by
per-axis multipliers, and the inequality ratios multiply per-axis degree
powers; regrouping either, or the Weyl phase, moves the last bits (and the
sign of zero coefficients).  So the ``repr`` of every scalar output below
and the sha256 of every coefficient or sample array are pinned in
``golden_trig.json``, and a change to the toolkit must keep each one bit
for bit, unless it is meant to change values.  Three-axis inputs with
non-integer gaps and orders are there because a product of two factors
does not depend on its grouping.

Rewrite the golden file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_trig_golden.py --record

It prints, per output family (the first word of a key), how many outputs
changed and the largest relative change of a scalar output, the re-base
report of a value-changing change.
"""

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from anisowidth import (
    TrigPoly,
    approximation_rate,
    bernoulli_kernel,
    bernstein_ratio,
    decaying_series_1d,
    dyadic_block,
    fejer,
    fejer_shift_sum_check,
    lacunary_1d,
    nikolskii_ratio,
    samples_to_trigpoly,
    tensor_series_2d,
    trig_lp_norm,
    vp_multiplier,
    vp_operator,
    vp_power_kernel,
    weyl_derivative,
    weyl_integral,
)
from anisowidth.trig_approx import _difference, _half_spectra, smoothness_margin

GOLDEN = Path(__file__).with_name("golden_trig.json")

_EXPONENTS = (1, 1.5, 2, 3, 4, math.inf, Fraction(5, 2), 2.2)
_DEGREES = ((3,), (8,), (0, 4), (2, 3), (5, 4), (1, 2, 2), (3, 5, 7), (2, 6, 3), (4, 1, 5))
_ORDERS = (0, 0.5, 1, 2, 1.5, Fraction(2, 3), 0.3)
_PHASES = (0, 0.5, 1, -1, 3, 0.3, 0.7, 1.1, Fraction(1, 3))


def _show(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return f"{arr.dtype} {arr.shape} {hashlib.sha256(arr.tobytes()).hexdigest()[:20]}"


def _poly_digest(t) -> str:
    return f"degree={t.degree} {_digest(t.coeff)}"


def _polys(rng):
    """Real draws, complex draws and real draws with a zeroed mean."""
    out = []
    for deg in _DEGREES:
        out.append(("real", TrigPoly.random_real(deg, rng)))
        shape = tuple(2 * N + 1 for N in deg)
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out.append(("complex", TrigPoly(deg, coeff)))
        zero_mean = TrigPoly.random_real(deg, rng).coeff
        zero_mean[deg] = 0.0
        out.append(("zero_mean", TrigPoly(deg, zero_mean)))
    return out


def _kernels(out):
    x = 2 * math.pi * np.arange(17) / 17 - 0.4
    for m in (1, 2, 5):
        out[f"fejer m={m} grid"] = _digest(fejer(m, x))
        out[f"vp_multiplier m={m} k=-12..12"] = _digest(vp_multiplier(m, np.arange(-12, 13)))
        for v in (0.0, 0.7, 3.0):
            out[f"fejer m={m} x={v}"] = _show(fejer, m, v)
        for k in (0, 3, -7, 2.5):
            out[f"vp_multiplier m={m} k={k}"] = _show(vp_multiplier, m, k)
    for n, r, alpha in ((1, 0, 0), (3, 1, 1), (4, 0.5, 0.3), (2, 2, Fraction(1, 3))):
        key = f"n={n} r={r} alpha={alpha}"
        out[f"vp_power_kernel {key} grid"] = _digest(vp_power_kernel(n, r, alpha, x))
        out[f"vp_power_kernel {key} x=0.7"] = _show(vp_power_kernel, n, r, alpha, 0.7)
    for r, alpha, T in ((2.0, 0.0, 40), (1.5, 1.0, 100), (0.5, 0.3, 3000)):
        key = f"r={r} alpha={alpha} truncation={T}"
        out[f"bernoulli_kernel {key} grid"] = _digest(bernoulli_kernel(r, alpha, x, T))
        out[f"bernoulli_kernel {key} x=1.0"] = _show(bernoulli_kernel, r, alpha, 1.0, T)
    for m, h in ((8, math.pi / 8), (3, 0.5), (16, 0.1)):
        out[f"fejer_shift_sum_check m={m} h={h!r}"] = _show(fejer_shift_sum_check, m, h)


def _operators(out, rng):
    for i, (kind, t) in enumerate(_polys(rng)):
        tag = f"#{i} {kind} degree={t.degree}"
        d = t.d
        for _ in range(3):
            p = tuple(_EXPONENTS[int(rng.integers(len(_EXPONENTS)))] for _ in range(d))
            q = tuple(_EXPONENTS[int(rng.integers(len(_EXPONENTS)))] for _ in range(d))
            out[f"trig_lp_norm {tag} p={p}"] = _show(trig_lp_norm, t, p)
            out[f"nikolskii_ratio {tag} p={p} q={q}"] = _show(nikolskii_ratio, t, p, q)
            r = tuple(_ORDERS[int(rng.integers(len(_ORDERS)))] for _ in range(d))
            alpha = tuple(
                0 if rj == 0 else _PHASES[int(rng.integers(len(_PHASES)))] for rj in r
            )
            out[f"bernstein_ratio {tag} r={r} alpha={alpha} p={p}"] = _show(
                bernstein_ratio, t, r, alpha, p
            )
        for axis in range(1, d + 1):
            for r in _ORDERS:
                alpha = _PHASES[int(rng.integers(len(_PHASES)))]
                key = f"{tag} axis={axis} r={r} alpha={alpha}"
                out[f"weyl_derivative {key}"] = _poly_digest(weyl_derivative(t, axis, r, alpha))
                out[f"weyl_integral {key}"] = _poly_digest(weyl_integral(t, axis, r, alpha))
        N = tuple(max(1, Nj - int(rng.integers(0, 3))) for Nj in t.degree)
        out[f"vp_operator {tag} N={N}"] = _poly_digest(vp_operator(t, N))
        grid = tuple(
            max(4 * Nj + 1, 2 * Dj + 1) + int(rng.integers(0, 3)) for Nj, Dj in zip(N, t.degree)
        )
        samples = t.values(grid)
        down = tuple(max(0, Nj - 1) for Nj in t.degree)
        out[f"samples_to_trigpoly {tag} grid={grid} degree={down}"] = _poly_digest(
            samples_to_trigpoly(samples, down)
        )
        out[f"samples_to_trigpoly real {tag} grid={grid} degree={down}"] = _poly_digest(
            samples_to_trigpoly(samples.real, down)
        )
        for axis in range(1, d + 1):
            for h, order in ((0.3, 1), (math.pi / 7, 2), (1.0, 3)):
                key = f"{tag} grid={grid} h={h!r} axis={axis} order={order}"
                for name, part in (("", samples), (" real", samples.real)):
                    out[f"finite_difference{name} {key}"] = _digest(_difference(
                        _half_spectra(part, axis - 1), h, axis - 1, order, part.shape[axis - 1]
                    ))
        for rr in ((1,) * d, (2,) + (1,) * (d - 1), (1.5,) + (Fraction(5, 2),) * (d - 1)):
            for m in range(4):
                out[f"dyadic_block {tag} r={rr} m={m}"] = _poly_digest(dyadic_block(t, rr, m))
        if kind == "real":
            p = (2,) * d
            rr = (1.5,) * d
            out[f"smoothness_margin {tag} r={rr} p={p}"] = _show(smoothness_margin, t, rr, p)


def _probes(out):
    probes = [
        ("decaying_series_1d r=1 terms=64", decaying_series_1d(1, terms=64), (1,), (2,)),
        ("decaying_series_1d r=1.5 terms=40 p=(3,)", decaying_series_1d(1.5, terms=40, p=(3,)),
         (1.5,), (3,)),
        ("lacunary_1d r=1 levels=6", lacunary_1d(1, levels=6), (1,), (2,)),
        ("lacunary_1d r=5/2 levels=5 p=(inf,)",
         lacunary_1d(Fraction(5, 2), levels=5, p=(math.inf,)), (Fraction(5, 2),), (math.inf,)),
        ("tensor_series_2d r=(1, 2) terms=(24, 12)", tensor_series_2d((1, 2), terms=(24, 12)),
         (1, 2), (2, 2)),
        ("tensor_series_2d r=(0.5, 1.5) terms=(16, 20) p=(4, 1.5)",
         tensor_series_2d((0.5, 1.5), terms=(16, 20), p=(4, 1.5)), (0.5, 1.5), (4, 1.5)),
    ]
    for name, f, r, p in probes:
        out[f"probe {name}"] = _poly_digest(f)
        res = approximation_rate(f, r, p, m_max=6)
        out[f"approximation_rate {name} slope"] = repr(res.slope)
        out[f"approximation_rate {name} errors"] = repr(res.errors)
    poly = TrigPoly.from_coeff_dict((2,), {(0,): 1.0, (1,): 0.05, (-1,): 0.05})
    res = approximation_rate(poly, (1,), (2,), m_max=5, check_membership=False)
    out["approximation_rate polynomial slope"] = repr(res.slope)
    out["approximation_rate polynomial errors"] = repr(res.errors)


def render() -> dict:
    """Every pinned output, keyed by its call."""
    out = {}
    _kernels(out)
    _operators(out, np.random.default_rng(20261018))
    _probes(out)
    return out


def test_trig_outputs_are_unchanged():
    golden = json.loads(GOLDEN.read_text())
    got = render()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[0]}"


def _scalars(text):
    """The floats of a scalar or tuple output; None for an array digest or
    a refusal."""
    try:
        return [float(v) for v in text.strip("()").split(",") if v.strip()]
    except ValueError:
        return None


def _relative_change(old, new) -> float:
    """Largest relative change between two outputs' floats; 0 where the
    floats are equal (NaN and infinities too), inf where they cannot be
    compared."""
    a, b = _scalars(old), _scalars(new)
    if a is None or b is None or len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(y - x) / abs(x) if x != 0 and math.isfinite(x) else math.inf)
    return worst


def rebase_report(old: dict, new: dict) -> list:
    """Lines of ``family, outputs changed of outputs, largest relative
    scalar change``; entries only on one side count as changed."""
    families = {}
    for key in sorted(set(old) | set(new)):
        row = families.setdefault(key.split(" ", 1)[0], [0, 0, None])
        row[1] += 1
        if old.get(key) == new.get(key):
            continue
        row[0] += 1
        if key in old and key in new and _scalars(old[key]) is not None:
            row[2] = max(row[2] or 0.0, _relative_change(old[key], new[key]))
    lines = [f"{'family':24} {'changed':>8} {'of':>5}  largest relative scalar change"]
    for name, (changed, total, worst) in families.items():
        shown = "-" if worst is None else f"{worst:.2e}"
        lines.append(f"{name:24} {changed:8d} {total:5d}  {shown}")
    return lines


def test_rebase_report_counts_changes_per_family():
    old = {"norm a": "1.0", "norm b": "2.0", "norm c": "(1.0, -inf)", "ops d": "float64 (3,) ab"}
    new = {"norm a": "1.0", "norm b": "2.5", "norm c": "(1.5, -inf)", "ops d": "float64 (3,) cd"}
    assert rebase_report(old, new)[1:] == [
        f"{'norm':24} {2:8d} {3:5d}  5.00e-01",
        f"{'ops':24} {1:8d} {1:5d}  -",
    ]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = render()
    print("\n".join(rebase_report(old, new)))
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
