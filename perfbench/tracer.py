"""Per-layer tracing of sollink from outside the library.

`Tracer.install()` replaces every public function of the layer modules with a
wrapper, both where it is defined and wherever another module imported it by
name (`sollink.cycles.enumerate_norm_classes`, `sollink.qseries.link_boundary`,
...), and `uninstall()` puts the originals back.  No file under `src/` changes.

Each wrapped call is a frame.  A frame's own time is its duration minus the
wrapped calls made under it.  A same-layer helper that has no metric of its
own (`symplectic_pairing` under `link_table`, `beta_fn` under `beta_scaled`,
`fundamental_unit` under `make_field`) credits its own time to its caller, so
`<name>.self_ms` below is the time spent in that function's layer.  Frames are
aggregated by name and by (parent, child) edge as they close, so a trace of
one pass holds a few hundred numbers however many calls it made.  The
tracer's own bookkeeping is charged to nobody.
"""

from __future__ import annotations

import functools
import importlib
import math
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

TRACE_MARK = "PERFBENCH_TRACE "  # prefixes the snapshot a traced CLI call writes to stderr

LAYERS = ("qfield", "sol", "cycles", "special_fn", "qseries", "selftest", "cli")

# Functions with a self-time metric; they never credit their time to a caller.
OWN_METRIC = frozenset(
    {
        "qfield.make_field",
        "qfield.enumerate_norm_classes",
        "cycles.boundary_components",
        "cycles.link_table",
        "cycles.link_boundary",
        "cycles.link_boundary_closed",
        "qseries.eval_W",
        "qseries.min_series_coeff",
        "qseries.lk_qexpansion",
        "qseries.holomorphic_ratio_test",
        "special_fn.beta_scaled",
    }
)

CLI_SUBCOMMANDS = (
    "field-info",
    "sol-link",
    "sol-cap",
    "boundary",
    "lk-table",
    "qexp",
    "w-eval",
    "ratio-test",
    "combine",
    "self-test",
)
# (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "qfield.make_field.calls": ("count", "lower"),
    "qfield.make_field.self_ms": ("ms", "lower"),
    "qfield.enumerate.calls": ("count", "lower"),
    "qfield.enumerate.self_ms": ("ms", "lower"),
    "qfield.enumerate.classes": ("count", "lower"),
    "qfield.enumerate.scan_bound": ("count", "lower"),
    "cycles.boundary_components.calls": ("count", "lower"),
    "cycles.boundary_components.self_ms": ("ms", "lower"),
    "cycles.boundary_components.components": ("count", "lower"),
    "cycles.link_table.calls": ("count", "lower"),
    "cycles.link_table.self_ms": ("ms", "lower"),
    "cycles.link_table.cells": ("count", "lower"),
    "cycles.link_boundary.calls": ("count", "lower"),
    "cycles.link_boundary.self_ms": ("ms", "lower"),
    "cycles.link_boundary_closed.self_ms": ("ms", "lower"),
    "cycles.pairings": ("count", "lower"),
    "sol.calls": ("count", "lower"),
    "sol.self_ms": ("ms", "lower"),
    "qseries.eval_W.calls": ("count", "lower"),
    "qseries.eval_W.holo_ms": ("ms", "lower"),
    "qseries.eval_W.beta_ms": ("ms", "lower"),
    "qseries.eval_W.lattice_terms": ("count", "lower"),
    "qseries.eval_W.err_over_bound_max": ("ratio", "lower"),
    "qseries.min_series_coeff.calls": ("count", "lower"),
    "qseries.min_series_coeff.self_ms": ("ms", "lower"),
    "qseries.lk_qexpansion.self_ms": ("ms", "lower"),
    "qseries.ratio_test.self_ms": ("ms", "lower"),
    "special_fn.beta_scaled.calls": ("count", "lower"),
    "special_fn.beta_scaled.self_ms": ("ms", "lower"),
    "cli.startup_ms": ("ms", "lower"),
    **{f"cli.{sub}.p50_ms": ("ms", "lower") for sub in CLI_SUBCOMMANDS},
    "cli.exit_mismatch": ("count", "lower"),
    "cli.tracebacks": ("count", "lower"),
    "cli.nonfinite_out": ("count", "lower"),
    "cli.timeouts": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class _Frame:
    __slots__ = ("name", "layer", "child", "rolled", "comps")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.child = 0.0  # wall time of wrapped calls made under this frame
        self.rolled = 0.0  # own time credited by same-layer helpers
        self.comps: list[int] = []  # component counts of child boundary_components calls


def _scan_bound(field, n) -> int:
    """b_max + 1 of the b-scan in enumerate_norm_classes for (field, n)."""
    n = Fraction(n)
    if n <= 0 or n.denominator != 1:
        return 0
    t2m2 = int((field.eps * field.eps).trace()) - 2
    return math.isqrt(int(n) * t2m2 // field.disc) + 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hook_enumerate(tr, frame, parent, args, kwargs, result):
    tr.counters["classes"] += len(result)
    tr.counters["scan_bound"] += _scan_bound(_arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "n"))


def _hook_boundary_components(tr, frame, parent, args, kwargs, result):
    tr.counters["components"] += len(result)
    parent.comps.append(len(result))


def _hook_link_table(tr, frame, parent, args, kwargs, result):
    tr.counters["cells"] += len(result.entries)
    tr.counters["pairings"] += sum(frame.comps) ** 2


def _hook_link_boundary(tr, frame, parent, args, kwargs, result):
    n_comps, m_comps = frame.comps
    tr.counters["pairings"] += n_comps * m_comps


def _hook_eval_w(tr, frame, parent, args, kwargs, result):
    box = _arg(args, kwargs, 1, "params").box
    tr.counters["lattice_terms"] += (2 * box + 1) ** 2


_HOOKS = {
    "qfield.enumerate_norm_classes": _hook_enumerate,
    "cycles.boundary_components": _hook_boundary_components,
    "cycles.link_table": _hook_link_table,
    "cycles.link_boundary": _hook_link_boundary,
    "qseries.eval_W": _hook_eval_w,
}


class Tracer:
    """Wraps the layer functions while installed and aggregates their frames."""

    def __init__(self):
        self._stack = [_Frame("bench", "bench")]
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}
        self.reset()

    def reset(self) -> None:
        del self._stack[1:]
        self._stack[0] = _Frame("bench", "bench")
        # name -> [calls, entries from another layer, inclusive s, own s, layer self s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0.0, 0.0])
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        layer_modules = [f"sollink.{layer}" for layer in LAYERS]
        for module in map(importlib.import_module, ["sollink", *layer_modules]):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") and obj.__module__ in layer_modules:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, self._wrapper(obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrapper(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        hook = _HOOKS.get(name)
        rolls_up = name not in OWN_METRIC
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            parent = stack[-1]
            frame = _Frame(name, layer)
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame.child
                st = self.stats[name]
                st[0] += 1
                st[2] += dur
                st[3] += own
                if parent.layer != layer:
                    st[1] += 1
                if rolls_up and parent.layer == layer:
                    parent.rolled += own + frame.rolled
                else:
                    st[4] += own + frame.rolled
                self.edges[(parent.name, name)] += dur
                if ok and hook is not None:
                    hook(self, frame, parent, args, kwargs, result)
                parent.child += perf_counter() - t_enter

        self._wrappers[fn] = wrapper
        return wrapper

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates, for JSON or `merge`."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, t] for (p, c), t in self.edges.items()],
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process (a traced CLI call)."""
        for name, values in snap["stats"].items():
            st = self.stats[name]
            for i, v in enumerate(values):
                st[i] += v
        for parent, child, t in snap["edges"]:
            self.edges[(parent, child)] += t
        for key, v in snap["counters"].items():
            self.counters[key] += v


def layer_metrics(snap: dict) -> dict[str, float]:
    """The tracer-derived per-layer metrics of one snapshot (ms, counts)."""
    stats = snap["stats"]
    counters = snap["counters"]

    def st(name, i):
        return stats.get(name, [0, 0, 0.0, 0.0, 0.0])[i]

    def ms(seconds):
        return seconds * 1e3

    holo = sum(t for p, c, t in snap["edges"] if p == "qseries.eval_W" and c == "qseries.min_series_coeff")
    sol_names = [k for k in stats if k.startswith("sol.")]
    return {
        "qfield.make_field.calls": st("qfield.make_field", 0),
        "qfield.make_field.self_ms": ms(st("qfield.make_field", 4)),
        "qfield.enumerate.calls": st("qfield.enumerate_norm_classes", 0),
        "qfield.enumerate.self_ms": ms(st("qfield.enumerate_norm_classes", 4)),
        "qfield.enumerate.classes": counters.get("classes", 0),
        "qfield.enumerate.scan_bound": counters.get("scan_bound", 0),
        "cycles.boundary_components.calls": st("cycles.boundary_components", 0),
        "cycles.boundary_components.self_ms": ms(st("cycles.boundary_components", 4)),
        "cycles.boundary_components.components": counters.get("components", 0),
        "cycles.link_table.calls": st("cycles.link_table", 0),
        "cycles.link_table.self_ms": ms(st("cycles.link_table", 4)),
        "cycles.link_table.cells": counters.get("cells", 0),
        "cycles.link_boundary.calls": st("cycles.link_boundary", 0),
        "cycles.link_boundary.self_ms": ms(st("cycles.link_boundary", 4)),
        "cycles.link_boundary_closed.self_ms": ms(st("cycles.link_boundary_closed", 4)),
        "cycles.pairings": counters.get("pairings", 0),
        "sol.calls": sum(st(k, 1) for k in sol_names),
        "sol.self_ms": ms(sum(st(k, 3) for k in sol_names)),
        "qseries.eval_W.calls": st("qseries.eval_W", 0),
        "qseries.eval_W.holo_ms": ms(holo),
        "qseries.eval_W.beta_ms": ms(st("qseries.eval_W", 2) - holo),
        "qseries.eval_W.lattice_terms": counters.get("lattice_terms", 0),
        "qseries.min_series_coeff.calls": st("qseries.min_series_coeff", 0),
        "qseries.min_series_coeff.self_ms": ms(st("qseries.min_series_coeff", 4)),
        "qseries.lk_qexpansion.self_ms": ms(st("qseries.lk_qexpansion", 4)),
        "qseries.ratio_test.self_ms": ms(st("qseries.holomorphic_ratio_test", 4)),
        "special_fn.beta_scaled.calls": st("special_fn.beta_scaled", 0),
        "special_fn.beta_scaled.self_ms": ms(st("special_fn.beta_scaled", 4)),
    }
