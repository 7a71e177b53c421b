"""Reproduce the ROADMAP baselines: the 20 criterion-5 sandwich instances
(seed 515) end to end, and the import split of ``import anisowidth``.

    python3 perfbench/baseline.py

Runs the checkout's ``src/`` with the BLAS thread count capped, like ``run.py``.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time

import run

CRITERION5_SEED = 515
CRITERION5_COUNT = 20


def main() -> int:
    cap = str(len(os.sched_getaffinity(0)))
    os.environ.update({var: cap for var in run.BLAS_VARS})  # before numpy loads
    sys.path.insert(0, str(run.SRC))
    import anisowidth as aw
    from workloads import criterion5_stream

    t0 = time.perf_counter()
    ratios = []
    for k, n, p, q in itertools.islice(criterion5_stream(CRITERION5_SEED), CRITERION5_COUNT):
        rep = aw.sandwich_report(aw.BallProblem(k=k, n=n, p=p, q=q))
        if rep.certified_lower > 0 and rep.upper > 0:
            ratios.append(rep.upper / rep.certified_lower)
    seconds = time.perf_counter() - t0
    geo = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(
        f"criterion-5 sandwich, {CRITERION5_COUNT} instances at seed {CRITERION5_SEED}: "
        f"{seconds:.1f} s, worst ratio {max(ratios):.4f}, geometric mean ratio {geo:.4f}"
    )
    split = run.import_split(time.monotonic() + 120)
    share = split["import.scipy_optimize_s"] / split["import.anisowidth_s"]
    print(
        "import anisowidth: "
        + ", ".join(f"{name} {value:.3f} s" for name, value in split.items())
        + f" (scipy.optimize is {100 * share:.0f}% of the package import)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
