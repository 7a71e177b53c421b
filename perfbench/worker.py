"""One benchmark process: set up a workload's inputs, then run its closed loop.

Started by ``run.py`` in a fresh interpreter.  Prints ``READY`` once the
inputs are built (the parent times set-up up to that line) and times the
reference kernel.  With ``--mode setup`` it then prints the factor that
scales its set-up time; otherwise it runs whole cycles of operations one
after another and prints one JSON result line.

    python3 perfbench/worker.py --workload trig --seed 1 --seconds 5 --mode timed
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def tail(latencies_ms: list) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than 21 samples no such
    percentile lies above the median, and the median is returned.
    """
    xs = sorted(latencies_ms)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def interquartile_mean(xs: list) -> float:
    """Mean of the middle half of ``xs`` (all of it below four samples).

    Unlike the median it moves smoothly when the machine alternates between
    a fast and a slow state during a run.
    """
    k = len(xs) // 4
    return statistics.fmean(sorted(xs)[k : len(xs) - k])


# The vCPUs this benchmark was tuned on change speed by up to a third, for
# seconds to minutes at a time, and process CPU time drifts with wall time.
# So the loop times a fixed reference kernel, independent of anisowidth,
# every REFERENCE_EVERY_S between operations, and scales each operation by
# the mean of the two reference samples around it: a latency is reported as
# it would read on a machine where the kernel takes REFERENCE_MS.  In a
# six-minute trace of three fixed operations this cut the spread of their
# 27 s medians from 0.12-0.19 to 0.03-0.05.
REFERENCE_EVERY_S = 0.25
REFERENCE_MS = 9.0
SETUP_REFERENCE_RUNS = 3


class Reference:
    """Fixed work in the program's mix: small NumPy calls, Fraction sums,
    and FFTs of a 256 x 256 grid."""

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 16)
        self._grid = np.random.default_rng(1).standard_normal((256, 256))
        self.samples_ns: list = []

    def measure(self) -> None:
        start = time.perf_counter_ns()
        total = 0.0
        for _ in range(400):
            total += float(np.sum(np.abs(self._x) ** 1.5)) ** (1 / 1.5)
        frac = Fraction(0)
        for i in range(1, 300):
            frac += Fraction(1, i)
        for _ in range(4):
            np.fft.irfft2(np.fft.rfft2(self._grid) * 0.5, self._grid.shape)
        self.samples_ns.append(time.perf_counter_ns() - start)


def run_loop(wl, seconds: float, cycles_wanted: int, tracer, ref: Reference) -> dict:
    """Closed loop with one caller: whole cycles until ``seconds`` is reached.

    A run stops at the cycle boundary nearest to ``seconds`` (never before
    ``wl.min_cycles``), or after exactly ``cycles_wanted`` cycles when given.
    Each latency is scaled by the reference kernel timed around it.  The
    latency of an input is the interquartile mean of its timed repeats in
    the run; the median and the tail are taken over inputs, so one stall of
    the machine does not become the tail of a workload whose inputs repeat.
    """
    lat_ns = []
    keys = []  # which input each operation ran
    before = []  # index of the reference sample taken before each operation
    last_ref = time.perf_counter()
    failed = 0
    digest = hashlib.sha256()
    ratios = []
    cycles = 0
    t0 = time.perf_counter()
    while True:
        for op in wl.cycle(cycles):
            close = tracer.op_span() if tracer else None
            start = time.perf_counter_ns()
            try:
                out, error = wl.run(op), None
            except Exception as exc:  # a raising operation is counted, not fatal
                out, error = None, exc
            end = time.perf_counter_ns()
            if close:
                close()
            lat_ns.append(end - start)
            keys.append(id(op))
            before.append(len(ref.samples_ns) - 1)
            if error is None:
                ok, canon, ratio = wl.check(op, out)
            else:
                print(f"operation {len(lat_ns) - 1} raised {error!r}", file=sys.stderr)
                ok, canon, ratio = False, f"raised {type(error).__name__}\n".encode(), None
            if not ok:
                failed += 1
            if cycles < wl.min_cycles:
                digest.update(canon)
                if ratio is not None:
                    ratios.append(ratio)
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                ref.measure()
                last_ref = time.perf_counter()
        cycles += 1
        wall = time.perf_counter() - t0
        if cycles_wanted:
            if cycles >= cycles_wanted:
                break
        elif cycles >= wl.min_cycles and wall + 0.5 * wall / cycles >= seconds:
            break
    ref.measure()  # closes the interval of the last operation
    refs = ref.samples_ns
    scaled_ms = [
        ns * REFERENCE_MS / (0.5 * (refs[k] + refs[k + 1])) for ns, k in zip(lat_ns, before)
    ]
    by_input: dict = {}
    for key, ms in zip(keys, scaled_ms):
        by_input.setdefault(key, []).append(ms)
    lat_ms = [interquartile_mean(v) for v in by_input.values()]
    tail_ms, tail_pct = tail(lat_ms)
    busy_s = sum(lat_ns) / 1e9
    return {
        "attempted": len(lat_ns),
        "failed": failed,
        "cycles": cycles,
        "wall_s": wall,
        "busy_s": busy_s,
        "ops_per_s": 1e3 * len(lat_ns) / sum(scaled_ms),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "inputs": len(lat_ms),
        "unscaled_ops_per_s": len(lat_ns) / busy_s,
        "reference_ms": [ns / 1e6 for ns in refs],
        "worst_ratio": max([1.0] + ratios),
        "geo_ratio": math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else 1.0,
        "bracketed": len(ratios),
        "digest": digest.hexdigest(),
        "input_latencies_ms": lat_ms,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--cycles", type=int, default=0, help="run exactly this many cycles")
    args = ap.parse_args(argv)

    import anisowidth
    import anisowidth.cli  # noqa: F401  (the cli layer is traced too)

    if Path(anisowidth.__file__).resolve().parent != SRC / "anisowidth":
        print(f"anisowidth imported from {anisowidth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.build(
        args.workload, args.seed, str(ROOT / ".perfbench_out" / f"work-{args.seed}")
    )
    for i in range(wl.min_cycles):
        wl.cycle(i)
    print("READY", flush=True)
    # Set-up is scaled like the operations, by reference samples taken just
    # after it; the last of them opens the loop's first interval.
    ref = Reference()
    for _ in range(SETUP_REFERENCE_RUNS):
        ref.measure()
    setup_scale = REFERENCE_MS / (statistics.median(ref.samples_ns) / 1e6)
    if args.mode == "setup":
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    result = run_loop(wl, args.seconds, args.cycles, tracer, ref)
    result["setup_scale"] = setup_scale
    if tracer:
        result["layers"] = tracer.summary()
    scipy = sys.modules.get("scipy")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "anisowidth_file": anisowidth.__file__,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": scipy.__version__ if scipy else "not imported",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
