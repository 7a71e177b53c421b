"""Spans around calls into the library's public functions, taken from outside.

``Tracer.install`` replaces each target function by a wrapper wherever an
``anisowidth`` module binds its name, so calls between modules are caught as
well as the benchmark's own calls.  Each call records one span (name, start,
end, parent) in flat arrays kept in memory; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# The layers are the modules; the functions are their public entry points.
TARGETS = {
    "cli": ("main", "load_problem"),
    "exponents": ("width_exponent", "h_family_minimize", "sorted_profile"),
    "ball_widths": ("phi", "lower_bound_plan", "vset_l2_lower"),
    "mixed_norm": ("mixed_norm", "norming_functional"),
    "width_oracle": ("sandwich_report", "width_upper"),
    "trig_approx": (
        "trig_lp_norm",
        "approximation_rate",
        "vp_at_scale",
        "weyl_derivative",
        "smoothness_margin",
    ),
}


def _tensor_entries(args, kwargs):
    x = args[0] if args else kwargs["x"]
    return x.size


def _grid_points(args, kwargs):
    t = args[0] if args else kwargs["t"]
    oversample = args[2] if len(args) > 2 else kwargs.get("oversample", 8)
    return math.prod(oversample * max(N, 1) + 1 for N in t.degree)


def _point_count(args, kwargs):
    return len(args[0] if args else kwargs["points"])


# Work done per call, counted from the arguments: name of the count and how.
WORK = {
    "mixed_norm.mixed_norm": ("entries", _tensor_entries),
    "trig_approx.trig_lp_norm": ("grid_points", _grid_points),
    "width_oracle.width_upper": ("points", _point_count),
}

OP_SPAN = "bench.op"


def target_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + target_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list = []
        self.failed = [0] * len(self.names)
        self.work = {name: 0 for name in WORK}

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(time.perf_counter_ns())
        self._end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def op_span(self):
        """Open the root span of one operation; returns the closer."""
        idx = self._open(0)
        return lambda: self._close(idx)

    def wrap(self, name: str, fn):
        name_id = self._ids[name]
        count = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                try:
                    self.work[name] += count[1](args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # malformed arguments: the call itself will refuse them
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name_id] += 1
                raise
            finally:
                self._close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever an ``anisowidth`` module binds it."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "anisowidth" or name.startswith("anisowidth.")
        }
        for mod_name, fns in TARGETS.items():
            home = modules[f"anisowidth.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per target: calls, self seconds, failed calls (and work counts)."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = (np.frombuffer(self._end, dtype=np.int64)
               - np.frombuffer(self._start, dtype=np.int64)).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_ns, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_by_name[i]) / 1e9
            if name != OP_SPAN:  # operations report their failures themselves
                out[f"{name}.failed"] = int(self.failed[i])
        for name, (what, _) in WORK.items():
            out[f"{name}.{what}"] = int(self.work[name])
        return out
