"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads sandwich,cli_formulas,trig \\
        --seeds 1,2,3,4,5,6,7,8,9,10 --out perfbench/BENCH_1.json

For every workload and metric it reports the values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median.  A spread at or
above a third of the metric's bound in ``BENCHMARK.json`` is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list, bound) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": bound is None or spread < bound / 3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict = {}
        env = None
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json").read_text()
            )
            env = dict(record["env"])
            env["anisowidth_file"] = str(Path(env["anisowidth_file"]).relative_to(ROOT))
            print(f"{proc.stdout.splitlines()[0]}  correct={result['correct']}", flush=True)
            values.setdefault("correct", []).append(result["correct"])
            values.setdefault("digest", []).append(record["run"]["digest"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        row = {
            "env": env,
            "seeds": args.seeds,
            "all_correct": all(values.pop("correct")),
            "digests": values.pop("digest"),
            "metrics": {name: summarise(v, bounds[name]) for name, v in values.items()},
        }
        summary["workloads"][workload] = row
        for name, s in row["metrics"].items():
            flag = "" if s["steady"] else "  <-- spread >= bound/3"
            print(f"{workload:13} {name:12} median {s['median']:<12.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
