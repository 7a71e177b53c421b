"""Seeded inputs, timed operations and output checks of the three workloads.

A workload is a sequence of cycles.  A cycle is a fixed list of slots, and
each slot asks for an input of one structural class (a stratum).  The seed
draws the inputs inside each stratum, so runs with different seeds see
different inputs with the same mix of structure, and hence the same cost
profile.  The timed loop runs whole cycles only.

Every call into the library goes through a module attribute at call time
(``aw.sandwich_report``, ``cli.main``), so the tracing wrappers installed by
``spans.py`` see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from fractions import Fraction

import numpy as np

import anisowidth as aw
from anisowidth import cli


class Workload:
    """Interface of a workload: cycles of operations, timed calls, checks.

    ``min_cycles`` is the number of leading cycles every run completes; their
    outputs form the canonical output digest and the bracket statistics, so
    both repeat exactly for a given seed.
    """

    min_cycles = 1

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op):
        """The timed call into the library; returns its raw output."""
        raise NotImplementedError

    def check(self, op, out) -> tuple:
        """Return ``(ok, canonical_bytes, ratio_or_None)`` for one output."""
        raise NotImplementedError


class _Strata:
    """Per-stratum queues filled, in stream order, from a seeded generator."""

    def __init__(self, stream, classify):
        self._stream = stream
        self._classify = classify
        self._queues: dict = {}

    def take(self, stratum, index: int):
        queue = self._queues.setdefault(stratum, [])
        while len(queue) <= index:
            item = next(self._stream)
            self._queues.setdefault(self._classify(item), []).append(item)
        return queue[index]


# ---------------------------------------------------------------------------
# sandwich: the numerical oracle on acceptance-criterion-5 ball problems


def criterion5_stream(seed: int):
    """The ball-problem generator of acceptance criterion 5, as a stream.

    With seed 515 its first 20 items are the criterion-5 instances.
    """
    rng = np.random.default_rng(seed)
    while True:
        d = int(rng.integers(1, 3))
        k = tuple(int(rng.integers(2, 5)) for _ in range(d))
        K = math.prod(k)
        if K > 16:
            continue
        n = int(rng.integers(0, min(4, K // 2) + 1))
        q = tuple(int(rng.choice([2, 4])) for _ in range(d))
        p = tuple(float(np.round(rng.uniform(1.0, 2.0), 3)) for _ in range(d))
        yield (k, n, p, q)


def sandwich_structure(item) -> tuple:
    """The stratum of a ball problem: its structure ``(k, n, q)``.

    With the structure fixed, cost and bracket ratio depend little on ``p``,
    the part the seed still draws.
    """
    k, n, _, q = item
    return k, n, q


# One slot per operation, as (k, n, q); the seed draws p.  Times are for the
# machine in README.md.  The median operation falls in the middle of the five
# ((4,), 2, (4,)) slots, a descent-and-polish instance of 1.2-1.3 s.  The
# ((4, 4), 1, (4, 4)) slot has the widest bracket, 1.6003 whatever p is, so
# it sets worst_ratio in every run.  A cycle takes about 12.5 s, so a 27 s
# run is always two cycles.
SANDWICH_CYCLE = (
    ((4,), 2, (4,)),
    ((4, 4), 0, (4, 4)),  # n = 0: exact maximum, 10-30 ms
    ((4, 4), 1, (4, 4)),
    ((4,), 2, (4,)),
    ((2, 4), 2, (2, 2)),  # flat q = 2: 70 ms
    ((3,), 1, (4,)),
    ((3, 2), 2, (4, 2)),
    ((4,), 2, (4,)),
    ((4, 2), 3, (2, 4)),
    ((4,), 2, (4,)),
    ((3,), 0, (2,)),
    ((4,), 2, (4,)),
)


class Sandwich(Workload):
    min_cycles = 2

    def __init__(self, seed: int):
        self._strata = _Strata(criterion5_stream(seed), sandwich_structure)
        self._cycles: dict = {}

    def cycle(self, index):
        if index not in self._cycles:
            ops, seen = [], {}
            for stratum in SANDWICH_CYCLE:
                j = seen.get(stratum, 0)
                seen[stratum] = j + 1
                per_cycle = SANDWICH_CYCLE.count(stratum)
                k, n, p, q = self._strata.take(stratum, index * per_cycle + j)
                ops.append(aw.BallProblem(k=k, n=n, p=p, q=q))
            self._cycles[index] = ops
        return self._cycles[index]

    def run(self, op):
        return aw.sandwich_report(op)

    def check(self, op, rep):
        ok = rep.certified and rep.certified_lower <= rep.upper * (1 + 1e-9)
        ratio = None
        if rep.certified_lower > 0 and rep.upper > 0:
            ratio = rep.upper / rep.certified_lower
            ok = ok and ratio <= 8.0
        if op.n == 0:
            # No subspace search: the upper value is the exact norm maximum and
            # the ratio the fixed factor prod k_j^(1/2 - 1/q_j) of the lower
            # route, so it says nothing about the oracle.
            ratio = None
        canon = (
            f"{rep.problem_hash} {rep.certified_lower!r} {rep.upper!r} "
            f"{rep.certified} {rep.n_points} {rep.iterations}\n"
        )
        return ok, canon.encode(), ratio


# ---------------------------------------------------------------------------
# cli_formulas: exponent / phi commands on seeded problem files

P_POOL = (1, 1.5, 2, 3, 4, "inf")
Q_POOL = (2, 2.5, 3, 4, 6, 8)
R_POOL = (0.5, 1, 1.5, 2, 3)
REFUSALS = ("noncompact", "ball_n_too_large", "q_out_of_range", "wrong_command", "bad_entry")
# (command, axis count) per slot: seven in-domain problems, then one that
# must be refused with exit code 2 (its axis count rotates with the cycle).
CLI_CYCLE = (
    ("exponent", 1),
    ("phi", 1),
    ("exponent", 2),
    ("exponent", 3),
    ("phi", 3),
    ("exponent", 4),
    ("exponent", 2),
    ("refuse", 0),
)
CLI_POOL_CYCLES = 20


def _recip(v) -> Fraction:
    return Fraction(0) if v == "inf" else 1 / Fraction(str(v))


def embedding_margin(p, q, r) -> Fraction:
    """``1 + sum (1/r_j)(1/q_j - 1/p_j)`` over the axes with ``p_j <= q_j``.

    The class embeds compactly exactly when this is positive; computed here
    from the definition, independently of the library.
    """
    total = Fraction(1)
    for pj, qj, rj in zip(p, q, r):
        rp, rq = _recip(pj), _recip(qj)
        if rp >= rq:
            total += (rq - rp) / Fraction(str(rj))
    return total


def _compact(margin) -> bool:
    return margin >= Fraction(1, 20)


def _not_compact(margin) -> bool:
    return margin <= Fraction(-1, 20)


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _class_problem(rng, d, margin_ok):
    while True:
        p = [_pick(rng, P_POOL) for _ in range(d)]
        q = [_pick(rng, Q_POOL) for _ in range(d)]
        r = [_pick(rng, R_POOL) for _ in range(d)]
        if margin_ok(embedding_margin(p, q, r)):
            kind = _pick(rng, ("sobolev", "nikolskii"))
            return {"kind": kind, "p": p, "q": q, "r": r}


def _ball_problem(rng, d):
    k = [int(rng.integers(2, 10)) for _ in range(d)]
    n = int(rng.integers(0, math.prod(k) // 2 + 1))
    p = [_pick(rng, P_POOL) for _ in range(d)]
    q = [_pick(rng, Q_POOL) for _ in range(d)]
    return {"kind": "ball", "k": k, "n": n, "p": p, "q": q}


def _refused_problem(rng, reason, d):
    """A problem outside the documented domain, and the command to run it."""
    if reason == "noncompact":
        return "exponent", _class_problem(rng, d, _not_compact)
    if reason == "ball_n_too_large":
        prob = _ball_problem(rng, d)
        prob["n"] = math.prod(prob["k"]) // 2 + 1 + int(rng.integers(0, 3))
        return "phi", prob
    if reason == "q_out_of_range":
        prob = _class_problem(rng, d, _compact)
        prob["q"][int(rng.integers(d))] = _pick(rng, (1.5, "inf"))
        return "exponent", prob
    if reason == "wrong_command":
        if rng.integers(2):
            return "exponent", _ball_problem(rng, d)
        return "phi", _class_problem(rng, d, _compact)
    prob = _class_problem(rng, d, _compact)
    if rng.integers(2):
        prob["p"][int(rng.integers(d))] = "two"
    else:
        del prob["r"]
    return "exponent", prob


def _parse_number(v) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        num, _, den = v.partition("/")
        return float(Fraction(int(num), int(den or 1)))
    return float(v)


class CliFormulas(Workload):
    min_cycles = CLI_POOL_CYCLES

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng((seed, 2))
        os.makedirs(workdir, exist_ok=True)
        self._pool = []
        for i in range(CLI_POOL_CYCLES * len(CLI_CYCLE)):
            slot, d = CLI_CYCLE[i % len(CLI_CYCLE)]
            if slot == "refuse":
                d = 1 + (i // len(CLI_CYCLE)) % 4
                reason = REFUSALS[(i // len(CLI_CYCLE)) % len(REFUSALS)]
                command, prob = _refused_problem(rng, reason, d)
            elif slot == "phi":
                command, prob = "phi", _ball_problem(rng, d)
            else:
                command, prob = "exponent", _class_problem(rng, d, _compact)
            path = os.path.join(workdir, f"problem_{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(prob, fh)
            self._pool.append((i, slot, command, path, d))
        self._first_output: dict = {}

    def cycle(self, index):
        n = len(CLI_CYCLE)
        start = (index % CLI_POOL_CYCLES) * n
        return self._pool[start : start + n]

    def run(self, op):
        _, _, command, path, _ = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", path])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out):
        i, slot, command, _, d = op
        code, stdout, stderr = out
        canon = f"{i} {code}\n{stdout}".encode()
        # byte-identical output for a repeated input
        ok = self._first_output.setdefault(i, canon) == canon
        if slot == "refuse":
            return ok and code == 2 and stdout == "" and stderr.startswith("error:"), canon, None
        if code != 0:
            return False, canon, None
        try:
            obj = json.loads(stdout)
            if command == "exponent":
                thetas = [_parse_number(v) for v in obj["theta_table"].values()]
                ok = (
                    ok
                    and obj["mode"] == "sorted"
                    and obj["h_min_crosscheck"]["agrees"] is True
                    and _parse_number(obj["exponent"]) == min(thetas)
                )
            else:
                value = _parse_number(obj["value"])
                ok = ok and math.isfinite(value) and value > 0 and len(obj["s_vector"]) == d
        except (ValueError, KeyError, TypeError):
            ok = False
        return ok, canon, None


# ---------------------------------------------------------------------------
# trig: inequality probes, tapers and rate fits on seeded polynomials

EXPONENTS = (1, 1.5, 2, 3, 4, math.inf)
# Degree range of each axis, per slot.  Small one-axis grids (65 points) and
# large two-axis ones (513^2 points) are both in every cycle; the bins are
# narrow so that a cycle costs about the same whatever the seed.  With the
# three rate fits, the median input falls in the middle of the two 12 x 12
# slots and the tail among the 64 x 64 ones.  Those degrees are fixed: with
# 8-16 and 56-64 there, the grid size, and with it the median and the tail,
# moved with the seed.
TRIG_CYCLE = (
    ((8, 16),),
    ((17, 32),),
    ((33, 64),),
    ((12, 12), (12, 12)),
    ((12, 12), (12, 12)),
    ((33, 48), (8, 16)),
    ((17, 32), (17, 32)),
    ((64, 64), (64, 64)),
)
TRIG_POOL_CYCLES = 32


def _packaged_rates():
    """The packaged rate probes with their slope tolerances (criterion 8 and
    the rates suite)."""
    return [
        ("rate_dense_1d", aw.decaying_series_1d(1, terms=220), (1,), (2,), 7,
         lambda s: s <= -1.0 + 0.1),
        ("rate_tensor_2d", aw.tensor_series_2d((1, 2), terms=(64, 32)), (1, 2), (2, 2), 9,
         lambda s: s <= -2.0 / 3.0 + 0.1),
        ("rate_lacunary_1d", aw.lacunary_1d(1, levels=8), (1,), (2,), 7,
         lambda s: abs(s - (-1.0)) <= 0.3),
    ]


class Trig(Workload):
    min_cycles = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng((seed, 3))
        rates = [("rate",) + rate for rate in _packaged_rates()]
        self._pool = []
        for _ in range(TRIG_POOL_CYCLES):
            ops = []
            for ranges in TRIG_CYCLE:
                deg = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in ranges)
                d = len(deg)
                ops.append((
                    "poly",
                    aw.TrigPoly.random_real(deg, rng),
                    tuple(_pick(rng, EXPONENTS) for _ in range(d)),  # p
                    tuple(_pick(rng, EXPONENTS) for _ in range(d)),  # q
                    tuple(_pick(rng, (0.5, 1, 2)) for _ in range(d)),  # r
                    tuple(_pick(rng, (0, 0.5, 1)) for _ in range(d)),  # alpha
                    tuple(int(rng.integers(1, 4)) for _ in range(d)),  # dyadic r
                    int(rng.integers(3, 7)),  # top dyadic scale
                ))
            self._pool.append(ops + rates)

    def cycle(self, index):
        return self._pool[index % TRIG_POOL_CYCLES]

    def run(self, op):
        if op[0] == "rate":
            _, _, f, r, p, m_max, _ = op
            return aw.approximation_rate(f, r, p, m_max=m_max)
        _, t, p, q, r, alpha, rr, M = op
        nik = aw.nikolskii_ratio(t, p, q)
        bern = aw.bernstein_ratio(t, r, alpha, p)
        band = aw.vp_operator(t, t.degree)
        total = aw.dyadic_block(t, rr, 0)
        for m in range(1, M + 1):
            total = total + aw.dyadic_block(t, rr, m)
        return nik, bern, band, total, aw.vp_at_scale(t, rr, M)

    def check(self, op, out):
        if op[0] == "rate":
            name, tolerance = op[1], op[6]
            return tolerance(out.slope), f"{name} {out.slope!r}\n".encode(), None
        t = op[1]
        nik, bern, band, total, direct = out
        scale = max(1.0, float(np.abs(t.coeff).max()))
        telescoped = float(np.abs((total - direct.pad(total.degree)).coeff).max())
        ok = (
            math.isfinite(nik) and nik > 0
            and math.isfinite(bern) and bern > 0
            and band.degree == t.degree and np.array_equal(band.coeff, t.coeff)
            and telescoped <= 1e-12 * scale
        )
        return ok, f"{t.degree} {nik!r} {bern!r} {telescoped!r}\n".encode(), None


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "sandwich":
        return Sandwich(seed)
    if name == "cli_formulas":
        return CliFormulas(seed, workdir)
    if name == "trig":
        return Trig(seed)
    raise ValueError(f"unknown workload {name!r}")
