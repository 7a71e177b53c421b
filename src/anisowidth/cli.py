"""Command-line interface.

Subcommands
-----------
``exponent``   width-order exponent of a smoothness-class problem
``phi``        closed-form width order and lower-bound plan for a ball problem
``verify``     seeded self-check suites (norms, interp, sandwich, kernels, rates)
``report``     run every suite, write a summary JSON and CSV artifacts

Exit codes: 0 success, 2 validation error (including non-compact embeddings
and malformed input), 3 property violation, 4 desk-scale guard refusal,
5 any other error (an internal failure such as a singular linear solve).

Output is deterministic for a fixed (input, seed, budget) triple: reports
are JSON with sorted keys, floats rendered by ``repr``, and no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .mixed_norm import (
    DeskScaleError,
    PropertyViolation,
    Tensor,
    ValidationError,
    holder_interpolation_check,
    mixed_norm,
    norm_duality_lower,
    norming_functional,
)
from .exponents import _h_family, _tables, _width_exponent, width_exponent_low_q
from .ball_widths import (
    BallProblem,
    ball_order_low_q,
    lower_bound_plan,
    phi,
)
from .width_oracle import OracleConfig, sandwich_report
from . import trig_approx as ta

BUDGETS = ("small", "full")


# ---------------------------------------------------------------------------
# problem files


def load_problem(path: str) -> dict:
    """Read a problem file (JSON always; TOML on Python 3.11+).

    The file must hold an object of a known ``kind`` with every key of that
    kind.  The values are passed on as read, with ``nu_split`` when given:
    the library's own checks take them in, so a malformed entry is refused
    with the message the library gives for it.
    """
    if path.endswith(".toml"):
        if sys.version_info < (3, 11):
            raise ValidationError(
                "TOML input needs Python 3.11+ (tomllib); this interpreter is "
                f"{sys.version_info.major}.{sys.version_info.minor} - convert the file to JSON"
            )
        import tomllib

        with open(path, "rb") as fh:
            obj = tomllib.load(fh)
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("problem file must contain an object")
    kind = obj.get("kind")
    if kind not in ("sobolev", "nikolskii", "ball"):
        raise ValidationError(
            f"unknown problem kind {kind!r} (expected sobolev, nikolskii, or ball)"
        )
    keys = ("k", "n", "p", "q") if kind == "ball" else ("p", "q", "r")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"problem file is missing {key!r}")
    return {key: obj[key] for key in ("kind", "nu_split") + keys if key in obj}


# ---------------------------------------------------------------------------
# encoding


def _enc(v):
    """JSON-safe deterministic encoding (Fractions as 'a/b', inf as 'inf')."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _enc(x) for k, x in v.items()}
    return v


def _dump_json(obj) -> str:
    return json.dumps(_enc(obj), sort_keys=True) + "\n"


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(_dump_json(report))
        return
    flat = [
        (key, json.dumps(val, sort_keys=True) if isinstance(val, (dict, list)) else val)
        for key, val in sorted(_enc(report).items())
    ]
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(flat)
        return
    width = max((len(key) for key, _ in flat), default=1)
    for key, val in flat:
        stream.write(f"{key:<{width}}  {val}\n")


# ---------------------------------------------------------------------------
# exponent / phi commands


def _exponent_report(prob: dict) -> dict:
    if prob["kind"] == "ball":
        raise ValidationError("the exponent command needs a smoothness-class problem")
    p, q, r = prob["p"], prob["q"], prob["r"]
    if "nu_split" in prob:
        wo = width_exponent_low_q(p, q, r, prob["nu_split"])
        return {
            "mode": "low_q",
            "nu_split": prob["nu_split"],
            "exponent": wo.exponent,
            "conditions": asdict(wo.conditions),
            "regime_note": wo.regime_note,
        }
    # one validated sorted profile serves both routes
    tables = _tables(p, q, r)
    prof = tables[0]
    wo = _width_exponent(tables)
    hf = _h_family(tables)
    # exact values are compared exactly: their floats may overflow
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


def _phi_report(prob: dict) -> dict:
    if prob["kind"] != "ball":
        raise ValidationError("the phi command needs a ball problem")
    bp = BallProblem(k=prob["k"], n=prob["n"], p=prob["p"], q=prob["q"])
    if "nu_split" in prob:
        val = ball_order_low_q(bp, prob["nu_split"])
        return {
            "value": val,
            "branch": "low_q",
            "argmin_t": None,
            "s_vector": None,
            "predicted_lower": None,
            "regime": "low_q",
        }
    res = phi(bp)
    plan = lower_bound_plan(bp)
    return {
        "value": res.value,
        "value_exact": repr(res.exact) if res.exact.is_exact else None,
        "branch": res.branch,
        "argmin_t": res.argmin_t,
        "s_vector": list(plan.s),
        "predicted_lower": plan.predicted,
        "regime": plan.regime,
        "plan_t": plan.t,
    }


# ---------------------------------------------------------------------------
# verify suites

# each suite returns its rows: dicts with a "property" anchor, a "status" of
# ok/violation, and a deterministic detail string


def _row(prop, ok, detail=""):
    return {"property": prop, "status": "ok" if ok else "violation", "detail": detail}


def _suite_norms(seed: int, budget: str):
    rng = np.random.default_rng((seed, 101))
    draws = 24 if budget == "small" else 80
    rows = []
    shapes = [(6,), (4, 5), (3, 4, 3), (2, 3, 2, 2)]
    pool = [1, Fraction(3, 2), 2, 3, math.inf]
    for i in range(draws):
        shape = shapes[i % len(shapes)]
        p = tuple(pool[rng.integers(len(pool))] for _ in shape)
        x = Tensor.from_array(rng.standard_normal(shape))
        y = Tensor.from_array(rng.standard_normal(shape))
        nx, ny = mixed_norm(x, p), mixed_norm(y, p)
        c = float(rng.uniform(0.1, 3.0))
        scaled = Tensor.from_array(c * x.array)
        rows.append(
            _row(
                "norm_homogeneity",
                abs(mixed_norm(scaled, p) - c * nx) <= 1e-9 * max(1.0, nx),
                f"draw={i}",
            )
        )
        both = Tensor.from_array(x.array + y.array)
        rows.append(
            _row(
                "norm_triangle",
                mixed_norm(both, p) <= nx + ny + 1e-9 * max(1.0, nx + ny),
                f"draw={i}",
            )
        )
        lo = mixed_norm(x, tuple(math.inf for _ in shape))
        hi = mixed_norm(x, tuple(1 for _ in shape))
        rows.append(
            _row(
                "norm_ordering_sup_to_sum",
                lo <= nx * (1 + 1e-9) and nx <= hi * (1 + 1e-9),
                f"draw={i}",
            )
        )
        att = norm_duality_lower(x, p)
        rows.append(
            _row(
                "duality_attainment",
                att <= nx * (1 + 1e-9) and att >= nx * (1 - 1e-12),
                f"draw={i} att={att!r} norm={nx!r}",
            )
        )
        fun = norming_functional(x, p)
        pair = float(np.vdot(fun.array, x.array).real)
        rows.append(
            _row(
                "norming_functional_pairing",
                abs(pair - nx) <= 1e-8 * max(1.0, nx),
                f"draw={i}",
            )
        )
    return rows


def _suite_interp(seed: int, budget: str):
    rng = np.random.default_rng((seed, 202))
    draws = 200 if budget == "small" else 1000
    rows = []
    shapes = [(8,), (5, 6), (3, 4, 4)]
    bad = 0
    for i in range(draws):
        shape = shapes[i % len(shapes)]
        q = tuple(float(rng.uniform(2.0, 8.0)) for _ in shape)
        w = float(rng.uniform(0.0, 1.0))
        x = Tensor.from_array(rng.standard_normal(shape))
        rep = holder_interpolation_check(x, q, w)
        if not rep.holds:
            bad += 1
            rows.append(
                _row(
                    "holder_interpolation",
                    False,
                    f"draw={i} lhs={rep.lhs!r} rhs={rep.rhs!r}",
                )
            )
    rows.insert(
        0, _row("holder_interpolation", bad == 0, f"checks={draws} violations={bad}")
    )
    return rows


def _sandwich_instances(seed: int, count: int):
    rng = np.random.default_rng((seed, 303))
    out = []
    while len(out) < count:
        d = int(rng.integers(1, 3))
        k = tuple(int(rng.integers(2, 5)) for _ in range(d))
        K = math.prod(k)
        if K > 16:
            continue
        n = int(rng.integers(0, min(4, K // 2) + 1))
        q = tuple(int(rng.choice([2, 4])) for _ in range(d))
        p = tuple(float(np.round(rng.uniform(1.0, 2.0), 3)) for _ in range(d))
        out.append(BallProblem(k=k, n=n, p=p, q=q))
    return out


def _suite_sandwich(seed: int, budget: str, out_dir=None):
    count = 5 if budget == "small" else 20
    ledger = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ledger = os.path.join(out_dir, "sandwich_ledger.csv")
        if os.path.exists(ledger):
            os.unlink(ledger)
    cfg = OracleConfig(seed=seed)
    rows = []
    for i, bp in enumerate(_sandwich_instances(seed, count)):
        rep = sandwich_report(bp, cfg=cfg, ledger_path=ledger)
        ok_order = (not rep.certified) or rep.certified_lower <= rep.upper * (1 + 1e-9)
        rows.append(
            _row(
                "sandwich_lower_below_upper",
                ok_order,
                f"instance={i} hash={rep.problem_hash} lower={rep.certified_lower!r} upper={rep.upper!r}",
            )
        )
        if rep.certified and rep.certified_lower > 0 and rep.upper > 0:
            ratio = rep.upper / rep.certified_lower
            rows.append(
                _row(
                    "sandwich_gap_bounded",
                    math.log(ratio) <= math.log(64.0),
                    f"instance={i} ratio={ratio!r}",
                )
            )
    return rows


def _suite_kernels(seed: int, budget: str):
    rng = np.random.default_rng((seed, 404))
    rows = []

    # mean-one and positivity of the Fejer kernel
    for m in (1, 3, 8):
        G = 8 * m
        x = 2 * math.pi * np.arange(G) / G
        vals = ta.fejer(m, x)
        rows.append(
            _row("fejer_mean_one", abs(float(np.mean(vals)) - 1.0) <= 1e-10, f"m={m}")
        )
        rows.append(_row("fejer_nonnegative", float(np.min(vals)) >= -1e-12, f"m={m}"))
    rows.append(
        _row(
            "fejer_order_one_constant",
            abs(ta.fejer(1, 0.7) - 1.0) <= 1e-12 and abs(ta.fejer(1, 2.9) - 1.0) <= 1e-12,
            "",
        )
    )

    # taper reproduction and telescoping on random real polynomials
    reps = 10 if budget == "small" else 40
    for i in range(reps):
        d = 1 + i % 2
        deg = tuple(int(rng.integers(1, 5)) for _ in range(d))
        t = ta.TrigPoly.random_real(deg, rng)
        out = ta.vp_operator(t, deg)
        rows.append(
            _row(
                "vp_reproduces_band",
                out.degree == t.degree and np.array_equal(out.coeff, t.coeff),
                f"draw={i}",
            )
        )
        r = tuple(1 for _ in range(d))
        M = 4
        total = ta.dyadic_block(t, r, 0)
        for m in range(1, M + 1):
            total = total + ta.dyadic_block(t, r, m)
        direct = ta.vp_at_scale(t, r, M)
        diff = (total - direct.pad(total.degree)).coeff
        rows.append(
            _row("dyadic_blocks_telescope", float(np.abs(diff).max()) <= 1e-12, f"draw={i}")
        )

    # derivative/integral inversion on the zero-mean band
    for rr, aa in ((0.5, 0.0), (1.0, 1.0), (2.0, 2.0)):
        t = ta.TrigPoly.random_real((6,), rng)
        t.coeff[6] = 0.0
        back = ta.weyl_integral(ta.weyl_derivative(t, 1, rr, aa), 1, rr, aa)
        err = float(np.abs(back.coeff - t.coeff).max())
        rows.append(_row("weyl_inversion", err <= 1e-10, f"r={rr} alpha={aa} err={err!r}"))

    # tapered power kernel matches the derivative multiplier on the band
    n, rr, aa = 4, 1.0, 1.0
    G = 8 * n + 1
    x = 2 * math.pi * np.arange(G) / G
    kern = ta.samples_to_trigpoly(ta.vp_power_kernel(n, rr, aa, x), (2 * n - 1,))
    ok = True
    for k in range(1, n + 1):
        want = k**rr * np.exp(1j * aa * math.pi / 2)
        ok = ok and abs(kern.c((k,)) - want) <= 1e-9 * max(1.0, abs(want))
    rows.append(_row("power_kernel_multiplier", ok, f"n={n}"))

    # Bernoulli kernel: unit mean on an alias-safe grid
    T, G = 2000, 2048
    x = 2 * math.pi * np.arange(G) / G
    vals = ta.bernoulli_kernel(2.0, 0.0, x, T)
    rows.append(
        _row(
            "bernoulli_mean_one",
            abs(float(np.mean(vals)) - 1.0) <= 1e-10,
            f"truncation={T} grid={G}",
        )
    )

    # closed form of the weight-two series on a period
    for xv in (0.5, 1.0, math.pi):
        approx = ta.bernoulli_kernel(2.0, 0.0, xv, 20000)
        exact = 1.0 + 2.0 * (math.pi**2 / 6 - math.pi * xv / 2 + xv**2 / 4)
        rows.append(
            _row(
                "bernoulli_closed_form",
                abs(approx - exact) <= 1e-6,
                f"x={xv!r}",
            )
        )

    # shift sums of the Fejer kernel stay of order m
    val = ta.fejer_shift_sum_check(8, math.pi / 8)
    rows.append(_row("fejer_shift_sum_bounded", val <= 4.0, f"value={val!r}"))

    return rows


def _suite_rates(seed: int, budget: str):
    rows = []
    m_max = 7 if budget == "small" else 9
    f1 = ta.decaying_series_1d(1, terms=220)
    res1 = ta.approximation_rate(f1, (1,), (2,), m_max=min(m_max, 7))
    rows.append(
        _row("rate_slope_dense_1d", res1.slope <= -1.0 + 0.1, f"slope={res1.slope!r}")
    )
    lac = ta.lacunary_1d(1, levels=8)
    resl = ta.approximation_rate(lac, (1,), (2,), m_max=min(m_max, 7))
    rows.append(
        _row(
            "rate_slope_lacunary_1d",
            abs(resl.slope - (-1.0)) <= 0.3,
            f"slope={resl.slope!r}",
        )
    )
    if budget == "full":
        f2 = ta.tensor_series_2d((1, 2), terms=(64, 32))
        res2 = ta.approximation_rate(f2, (1, 2), (2, 2), m_max=m_max)
        rows.append(
            _row(
                "rate_slope_tensor_2d",
                res2.slope <= -2.0 / 3.0 + 0.1,
                f"slope={res2.slope!r}",
            )
        )
        poly = ta.TrigPoly.from_coeff_dict((2,), {(0,): 1.0, (1,): 0.05, (-1,): 0.05})
        resp = ta.approximation_rate(poly, (1,), (2,), m_max=5, check_membership=False)
        rows.append(
            _row(
                "rate_polynomial_reproduced",
                resp.slope == -math.inf,
                f"slope={resp.slope!r}",
            )
        )
    return rows


_SUITES = {
    "norms": _suite_norms,
    "interp": _suite_interp,
    "sandwich": _suite_sandwich,
    "kernels": _suite_kernels,
    "rates": _suite_rates,
}


def _run_suite(name: str, seed: int, budget: str, out_dir=None):
    # Every suite seeds a numpy generator, which refuses a negative seed.
    if seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {seed}")
    if out_dir is not None:
        _require_out_dir(out_dir)
    if name == "sandwich":
        rows = _suite_sandwich(seed, budget, out_dir=out_dir)
    else:
        rows = _SUITES[name](seed, budget)
    return rows, [r for r in rows if r["status"] == "violation"]


def _require_out_dir(path: str) -> None:
    """Refuse an ``--out`` that could not become a directory: the path is
    empty (``abspath`` would read it as the working directory), or the
    path, or the nearest of its parents that exists, is something else."""
    if not path:
        raise ValidationError("--out must name a directory, got an empty path")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValidationError(f"--out {path}: {probe} exists and is not a directory")


# ---------------------------------------------------------------------------
# entry points


def _cmd_problem(args) -> int:
    report = _exponent_report if args.command == "exponent" else _phi_report
    _emit(report(load_problem(args.input)), args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    rows, violations = _run_suite(args.suite, args.seed, args.budget, out_dir=args.out)
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "budget": args.budget,
        "checks": len(rows),
        "violations": len(violations),
        "rows": rows,
    }
    _emit(report, args.format, sys.stdout)
    return 3 if violations else 0


def _cmd_report(args) -> int:
    summary = {"seed": args.seed, "budget": args.budget, "suites": {}}
    if args.input:
        prob = load_problem(args.input)
        if prob["kind"] == "ball":
            summary["problem"] = _phi_report(prob)
        else:
            summary["problem"] = _exponent_report(prob)
    all_rows = []
    any_violation = False
    for name in sorted(_SUITES):
        rows, violations = _run_suite(name, args.seed, args.budget, out_dir=args.out)
        summary["suites"][name] = {
            "checks": len(rows),
            "violations": len(violations),
        }
        for r in rows:
            all_rows.append({"suite": name, **r})
        any_violation = any_violation or bool(violations)
    os.makedirs(args.out, exist_ok=True)
    rows_path = os.path.join(args.out, "verify_rows.csv")
    with open(rows_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["suite", "property", "status", "detail"], lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(all_rows)
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_dump_json(summary))
    _emit(summary, args.format, sys.stdout)
    return 3 if any_violation else 0


def _add_options(sp, seeded=False):
    sp.add_argument("--format", choices=("json", "table", "csv"), default="json")
    if seeded:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", choices=BUDGETS, default="small")


@functools.cache  # one parser per process, built by the first ``main`` call
def build_parser() -> argparse.ArgumentParser:
    """The command syntax only: ``main`` picks the handler from ``args.command``."""
    parser = argparse.ArgumentParser(
        prog="anisowidth",
        description="width-order exponents and desk-scale checks for anisotropic classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("exponent", "width-order exponent of a class problem"),
        ("phi", "closed-form order for a ball problem"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--input", required=True)
        _add_options(sp)

    sp = sub.add_parser("verify", help="run one self-check suite")
    sp.set_defaults(out=None)  # only the sandwich suite writes artifacts
    vsub = sp.add_subparsers(dest="suite", required=True)
    for name in sorted(_SUITES):
        _add_options(vsub.add_parser(name), seeded=True)
    vsub.choices["sandwich"].add_argument("--out", help="directory for artifacts")

    sp = sub.add_parser("report", help="run all suites and write artifacts")
    sp.add_argument("--input", default=None)
    _add_options(sp, seeded=True)
    sp.add_argument("--out", required=True, help="directory for artifacts")

    return parser


# The exit code of each refusal, first match wins; any other exception exits 5.
_EXIT_CODES = (
    ((ValidationError, FileNotFoundError), 2),
    (PropertyViolation, 3),
    (DeskScaleError, 4),
)


def main(argv=None) -> int:
    """Run one command and return its exit code (callable repeatedly)."""
    args = build_parser().parse_args(argv)
    cmd = {"verify": _cmd_verify, "report": _cmd_report}.get(args.command, _cmd_problem)
    try:
        return cmd(args)
    except Exception as exc:  # the CLI boundary: one line, no traceback
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        message = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}): {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
