"""Spans and counts around the layers of ``nltariff``, recorded from outside.

The tracer swaps the module attributes that ``nltariff.cli`` and the solver
modules look up at call time (``nltariff.cli.solve_x0_star``,
``nltariff.cli.check_u_convexity``, ...) for wrappers, and restores them on
``uninstall``. Spans are kept in memory and written when the run ends. A
span's self time is its duration minus the durations of its child spans.
"""
import functools
import importlib
import json
import time

import numpy as np

# span name -> the (module, attribute) pairs it wraps
SPANS = {
    "cli.load_config": (("nltariff.cli", "load_config"),),
    "cli.run": (("nltariff.cli", "run_scenario"), ("nltariff.cli", "run_sweep")),
    "solver_const_h.solve": (("nltariff.cli", "solve_x0_star"),),
    "solver_const_h.build": (("nltariff.cli", "build_tariff_const_h"),),
    "solver_typed_h.solve": (("nltariff.cli", "solve_a0_b0_star"),),
    "solver_typed_h.build": (("nltariff.cli", "build_tariff_typed_h"),),
    "solver_typed_h.residual": (("nltariff.cli", "mu_zero_residual"),),
    "uconvex.check": (("nltariff.cli", "check_u_convexity"),),
    "agent.participation": (("nltariff.cli", "participation_set"),),
    "oracle.const": (("nltariff.oracle", "oracle_relaxed_maximize_const_h"),),
    "oracle.typed_scan": (("nltariff.cli", "_typed_scan_audit"),),
}

# per-layer metric -> the spans whose self time it sums; the self time of
# run_scenario/run_sweep is what is left of a request after every wrapped
# layer: JSON and CSV output
SELF_TIME_METRICS = {
    "cli.load_config_s": ("cli.load_config",),
    "cli.write_s": ("cli.run",),
    "solver_const_h.solve_s": ("solver_const_h.solve",),
    "solver_const_h.build_s": ("solver_const_h.build",),
    "solver_typed_h.solve_s": ("solver_typed_h.solve",),
    "solver_typed_h.build_s": ("solver_typed_h.build",),
    "solver_typed_h.residual_s": ("solver_typed_h.residual",),
    "uconvex.check_s": ("uconvex.check",),
    "agent.participation_s": ("agent.participation",),
    "oracle.const_s": ("oracle.const",),
    "oracle.typed_scan_s": ("oracle.typed_scan",),
}
COUNT_METRICS = {
    "model.g_K_inverse_calls": "count",
    "solver_typed_h.pairs_checked": "count",
    "oracle.thresholds": "count",
    "uconvex.surface_mb": "MB",
    "uconvex.surface_peak_mb": "MB",
}
UNITS = {**{name: "s" for name in SELF_TIME_METRICS}, **COUNT_METRICS}

MB = float(1 << 20)


class Tracer:
    """Records spans (name, start, end, parent, request) and layer counts."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request index]
        self.child_time = []     # summed durations of each span's children
        self.counts = dict.fromkeys(COUNT_METRICS, 0.0)
        self.request = -1
        self._stack = []
        self._saved = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.request])
            self.child_time.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][2] = end
                if parent >= 0:
                    self.child_time[parent] += end - self.spans[idx][1]
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counted(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, result)
            return result
        return wrapper

    def _count_inverse(self, args, result):
        self.counts["model.g_K_inverse_calls"] += 1

    def _count_pairs(self, args, result):
        self.counts["solver_typed_h.pairs_checked"] += np.size(args[0])

    def _count_surface(self, args, result):
        mb = result.nbytes / MB
        self.counts["uconvex.surface_mb"] += mb
        self.counts["uconvex.surface_peak_mb"] = max(self.counts["uconvex.surface_peak_mb"], mb)

    def _count_thresholds(self, result):
        self.counts["oracle.thresholds"] += len(result.x0_values)

    # -- installation ---------------------------------------------------------
    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self):
        for name, targets in SPANS.items():
            on_result = self._count_thresholds if name == "oracle.const" else None
            for module, attr in targets:
                self._patch(module, attr, lambda fn, n=name, r=on_result: self._span(n, fn, r))
        # capacity_A is the only caller of g_K_inverse and looks it up here
        self._patch("nltariff.solver_const_h", "g_K_inverse",
                    lambda fn: self._counted(fn, self._count_inverse))
        # _evaluate_mesh and cli._typed_scan_audit look it up here at call time
        self._patch("nltariff.solver_typed_h", "constraint_check_A2prime",
                    lambda fn: self._counted(fn, self._count_pairs))
        # the u-transforms and the typed bridge each build dense surfaces
        for module in ("nltariff.uconvex", "nltariff.solver_typed_h"):
            self._patch(module, "_utility_surface", lambda fn: self._counted(fn, self._count_surface))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results --------------------------------------------------------------
    def self_times(self):
        totals = {}
        for (name, start, end, _, _), child in zip(self.spans, self.child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def layer_metrics(self, rounds):
        """Every per-layer metric per round of the request stream; the peak
        surface is a maximum, everything else a sum."""
        totals = self.self_times()
        out = {m: sum(totals.get(s, 0.0) for s in spans) / rounds for m, spans in SELF_TIME_METRICS.items()}
        for m, v in self.counts.items():
            out[m] = v if m == "uconvex.surface_peak_mb" else v / rounds
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for (name, start, end, parent, request), child in zip(self.spans, self.child_time):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "request": request, "self_s": (end - start) - child}) + "\n")
