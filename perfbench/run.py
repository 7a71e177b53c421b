"""Benchmark of the anisowidth checkout: one workload per invocation.

    python3 perfbench/run.py --workload sandwich --seed 515 --seconds 27 --trace 0

Runs the checkout's ``src/`` (put first on the import path; nothing needs to
be installed) in fresh interpreters with the BLAS thread count capped at the
number of usable cores.  With ``--trace 0`` it times set-up in several fresh
interpreters, then runs the workload's closed loop in one more, and prints
the end-to-end metrics.  Every time is scaled by a reference kernel timed
next to it (see ``worker.Reference``), which removes most of the drift in
the machine's speed.  With ``--trace 1`` it runs the loop untraced and
then traced over the same operations, and prints the per-layer metrics, the
import split and the tracing overhead.  The last line of stdout is one JSON
object; the full record goes to ``.perfbench_out/``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sandwich", "cli_formulas", "trig")
SETUP_RUNS = 5  # fresh interpreters timed to inputs-ready; the last one also runs the loop
IMPORT_RUNS = 3
BUDGET_S = 170.0  # a whole invocation stays under the 180 s limit
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_SPLIT = {
    "import.numpy_s": "numpy",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.anisowidth_s": "anisowidth",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        env[var] = cap
    return env


def spawn(cmd: list, deadline: float) -> tuple:
    """Run a child to completion; return (seconds to its READY line, stdout
    lines).  The child is killed at the deadline."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])}... exited with {proc.returncode}")
    return ready, lines


def worker(workload, seed, mode, deadline, seconds=0.0, cycles=0) -> tuple:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
        "--cycles", str(cycles),
    ]
    ready, lines = spawn(cmd, deadline)
    if ready is None:
        raise BenchError(f"{workload} {mode}: worker never reported READY")
    return ready, json.loads(lines[-1])


def import_split(deadline) -> dict:
    """Cumulative import seconds from ``python -X importtime``, median of runs."""
    samples = {name: [] for name in IMPORT_SPLIT}
    for _ in range(IMPORT_RUNS):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import anisowidth"],
            stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT, check=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        ).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$", line)
            if m:
                cumulative[m.group(2).strip()] = int(m.group(1)) / 1e6
        for name, module in IMPORT_SPLIT.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, deadline) -> tuple:
    setup, unscaled = [], []
    for i in range(SETUP_RUNS):
        mode = "timed" if i == SETUP_RUNS - 1 else "setup"
        ready, res = worker(args.workload, args.seed, mode, deadline, seconds=args.seconds)
        setup.append(ready * res["setup_scale"])
        unscaled.append(ready)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(res["ops_per_s"], "1/s"),
        "op_p50_ms": metric(res["op_p50_ms"], "ms"),
        "op_tail_ms": metric(res["op_tail_ms"], "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "worst_ratio": metric(res["worst_ratio"], "ratio"),
        "geo_ratio": metric(res["geo_ratio"], "ratio"),
    }
    # Without a bracket (cli_formulas, trig) both ratios hold their empty
    # value 1 and are marked as not applicable.
    not_applicable = [] if res["bracketed"] else ["worst_ratio", "geo_ratio"]
    record = {
        "setup_samples_s": setup,
        "setup_unscaled_s": unscaled,
        "run": res,
        "not_applicable": not_applicable,
    }
    print(
        f"{args.workload} seed {args.seed}: {res['attempted']} ops in {res['cycles']} cycles, "
        f"tail = p{res['tail_percentile']:.2f} of {res['inputs']} input latencies, "
        f"failed_frac {res['failed'] / res['attempted']:.4f}, digest {res['digest'][:16]}"
        + (f", not applicable: {', '.join(not_applicable)}" if not_applicable else "")
    )
    return metrics, record, res["attempted"], res["failed"], True


def traced_run(args, deadline) -> tuple:
    _, plain = worker(args.workload, args.seed, "timed", deadline, seconds=args.seconds / 2)
    _, traced = worker(args.workload, args.seed, "traced", deadline, cycles=plain["cycles"])
    metrics = {}
    for name, value in traced["layers"].items():
        metrics[name] = metric(value, "s" if name.endswith("_s") else "count")
    for name, value in import_split(deadline).items():
        metrics[name] = metric(value, "s")
    overhead = 100.0 * (plain["ops_per_s"] / traced["ops_per_s"] - 1.0)
    metrics["trace.untraced_ops_per_s"] = metric(plain["ops_per_s"], "1/s")
    metrics["trace.traced_ops_per_s"] = metric(traced["ops_per_s"], "1/s")
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    metrics["trace.wall_s"] = metric(traced["wall_s"], "s")
    same = plain["digest"] == traced["digest"]
    record = {"untraced": plain, "traced": traced}
    print(
        f"{args.workload} seed {args.seed}: tracing overhead {overhead:.1f}% "
        f"({plain['ops_per_s']:.4g} -> {traced['ops_per_s']:.4g} ops/s over "
        f"{traced['attempted']} ops); outputs {'identical' if same else 'DIFFER'} traced vs untraced"
    )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, record, attempted, failed, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="anisowidth benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "anisowidth" / "__init__.py").is_file():
        print(f"error: no anisowidth sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, record, attempted, failed, consistent = traced_run(args, deadline)
        else:
            metrics, record, attempted, failed, consistent = timed_run(args, deadline)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0 and consistent
    env = (record.get("run") or record.get("traced"))["env"]
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=env,
        correct=correct,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        metrics=metrics,
    )
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
