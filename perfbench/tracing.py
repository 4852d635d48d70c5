"""Span tracing at hydrec's module boundaries, from outside the package.

The tracer replaces the public functions listed in ``TARGETS`` with wrappers
in every ``hydrec`` module that holds them (the defining module and each
module that imported the name), so calls between layers pass through a
wrapper.  Spans are kept in memory as (id, layer, name, start, end, parent,
pass id, note) and written out when the run ends; per-layer metrics are
derived from them afterwards.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from inputs import CLI_VERBS

# layer -> (defining module, public functions timed at its boundary)
TARGETS = {
    "numerics": ("hydrec.numerics", ("cumulative_integral", "differentiation_matrix", "smooth_local_poly")),
    "potentials": ("hydrec.potentials", ("potential_value", "potential_derivative")),
    "simulator": ("hydrec.simulator", (
        "propagate", "exact_density_matrix", "wigner_transform", "oracle_moment_set",
        "make_cat_state", "gaussian_packet", "probability_density",
        "cat_state_density_matrix", "cat_state_moment",
    )),
    "reconstruction": ("hydrec.reconstruction", ("build_pyramid", "next_moment")),
    "assembly": ("hydrec.assembly", ("assemble", "compare")),
    "cli": ("hydrec.cli", (
        "main", "fnv1a64", "write_dataset", "read_dataset", "write_moment_set", "read_moment_set",
    )),
}


def _steps(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments["steps"]


def _verb(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return str(argv[0]).replace("-", "_") if argv else ""


# What a span records beyond its times, per function; computed on success only.
NOTES = {
    "potential_derivative": lambda a, k, r: not np.any(r),
    "fnv1a64": lambda a, k, r: len(a[0] if a else k["data"]),
    "build_pyramid": lambda a, k, r: r.order_max,
    "assemble": lambda a, k, r: (r.order_max + 1, (r.order_max + 1) * r.values.values.size * 16),
    "compare": lambda a, k, r: bool(r.resampled),
    "main": _verb,
}


class Span(NamedTuple):
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    note: object


class Tracer:
    """Collects spans while installed; ``pass_id`` tags spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = -1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        note = _steps(fn) if name == "propagate" else NOTES.get(name)
        qualified = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Spans started in a worker thread (demo-cat's pool) belong to the
            # span the main thread has open while it waits for them.
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = note(args, kwargs, result) if note is not None else None
            self.spans.append(Span(sid, layer, qualified, start, end, parent, self.pass_id, value))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "hydrec" or n.startswith("hydrec.")]
        for layer, (module_name, names) in TARGETS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def dump(self) -> list[dict]:
        return [s._asdict() for s in self.spans]


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the time its other-layer descendants cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        foreign, todo = [], list(children[s.id])
        while todo:
            c = todo.pop()
            if c.layer != s.layer:
                foreign.append((max(c.start, s.start), min(c.end, s.end)))
            else:
                todo.extend(children[c.id])
        out[s.id] = (s.end - s.start) - _union_length(foreign)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts, MB)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    # Self time counts only the outermost span of a layer, not its nested calls.
    layer_of = {s.id: s.layer for s in spans}
    outermost = [s for s in spans if layer_of.get(s.parent) != s.layer]
    selfs = self_times(spans)

    def busy(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def calls(name):
        return len(by_name[name])

    m = {}
    for verb in CLI_VERBS:
        m[f"cli.{verb}.self_s"] = sum(selfs[s.id] for s in outermost if s.name == "cli.main" and s.note == verb)
    m["cli.fnv1a64_s"] = busy("cli.fnv1a64")
    m["cli.fnv1a64_mb"] = sum(s.note or 0 for s in by_name["cli.fnv1a64"]) / 1e6
    m["cli.payload_write_s"] = busy("cli.write_dataset", "cli.write_moment_set")
    m["cli.payload_read_s"] = busy("cli.read_dataset", "cli.read_moment_set")

    steps = sum(s.note or 0 for s in by_name["simulator.propagate"])
    m["simulator.propagate.steps"] = steps
    m["simulator.propagate.step_s"] = busy("simulator.propagate") / steps if steps else 0.0
    for name in ("exact_density_matrix", "wigner_transform", "oracle_moment_set"):
        m[f"simulator.{name}_s"] = busy(f"simulator.{name}")

    m["potentials.potential_value.calls"] = calls("potentials.potential_value")
    n_deriv = calls("potentials.potential_derivative")
    m["potentials.potential_derivative.calls"] = n_deriv
    zeros = sum(1 for s in by_name["potentials.potential_derivative"] if s.note)
    m["potentials.potential_derivative.zero_ratio"] = zeros / n_deriv if n_deriv else 0.0
    m["potentials.busy_s"] = busy("potentials.potential_value", "potentials.potential_derivative")

    m["numerics.cumulative_integral.calls"] = calls("numerics.cumulative_integral")
    m["numerics.cumulative_integral_s"] = busy("numerics.cumulative_integral")
    m["numerics.differentiation_matrix.calls"] = calls("numerics.differentiation_matrix")

    pyramid_s = busy("reconstruction.build_pyramid")
    levels = sum(s.note or 0 for s in by_name["reconstruction.build_pyramid"])
    m["reconstruction.build_pyramid_s"] = pyramid_s
    m["reconstruction.level_s"] = pyramid_s / levels if levels else 0.0
    m["reconstruction.self_s"] = sum(selfs[s.id] for s in outermost if s.layer == "reconstruction")

    assemble_s = busy("assembly.assemble")
    orders = sum(s.note[0] for s in by_name["assembly.assemble"] if s.note)
    m["assembly.assemble_s"] = assemble_s
    m["assembly.order_s"] = assemble_s / orders if orders else 0.0
    m["assembly.bytes_computed_mb"] = sum(s.note[1] for s in by_name["assembly.assemble"] if s.note) / 1e6
    m["assembly.compare_s"] = busy("assembly.compare")
    m["assembly.compare.resampled"] = sum(1 for s in by_name["assembly.compare"] if s.note)
    return m
