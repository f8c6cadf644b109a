"""In-memory span tracer that wraps logitdemand's public functions from outside.

Nothing in the package is edited. While a phase is active, each traced
function is replaced, in every package module whose namespace holds it (that
is, wherever its callers look it up), by a wrapper that records one span:
name, phase, start, end and the index of the enclosing span. A layer's self
time is its spans' durations minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

# Span name -> (module, attribute) that defines the function. For a class,
# the attribute is its __init__, so construction and validation are one span.
TARGETS = {
    "cli.invert": ("cli", "cmd_invert"),
    "cli.estimate": ("cli", "cmd_estimate"),
    "cli.diagnose": ("cli", "cmd_diagnose"),
    "dataio.load_panel": ("dataio", "load_panel"),
    "dataio.write_panel_csv": ("dataio", "write_panel_csv"),
    "dataio.compute_dependent": ("dataio", "compute_dependent"),
    "dataio.panel_build": ("dataio", "PanelDataset.__init__"),
    "demand.invert_shares": ("demand", "invert_shares"),
    "demand.predict_shares": ("demand", "predict_shares"),
    "simulate.generate_market": ("simulate", "generate_market"),
    "estimators.ols": ("estimators", "estimate_ols"),
    "estimators.tsls": ("estimators", "estimate_tsls"),
    "estimators.two_way_fe": ("estimators", "estimate_two_way_fe"),
    "matrix.solve": ("matrix", "solve_least_squares"),
    "diagnostics.first_stage_f": ("diagnostics", "first_stage_f"),
    "diagnostics.sargan_j": ("diagnostics", "sargan_j"),
}

SOLVE = "matrix.solve"
PACKAGE = "logitdemand"


def _lookup_sites(module_name, attr):
    """Every (namespace, name) through which callers reach the target."""
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return [(getattr(module, cls_name), method)]
    original = getattr(module, attr)
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(mod).items():
            if value is original:
                sites.append((mod, key))
    return sites


class Tracer:
    """Records spans while `phase(...)` is active; derives per-layer metrics."""

    def __init__(self):
        self.spans = []  # [name, phase, start, end, parent, shape]
        self._stack = []
        self._patches = []
        self._phase = None
        self.missing = []
        for name, (module_name, attr) in TARGETS.items():
            try:
                sites = _lookup_sites(module_name, attr)
            except (ImportError, AttributeError):
                sites = []
            if not sites:
                self.missing.append(name)
                continue
            owner, key = sites[0]
            wrapper = self._wrap(name, getattr(owner, key))
            for owner, key in sites:
                self._patches.append((owner, key, getattr(owner, key), wrapper))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        solve = name == SOLVE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            shape = getattr(args[0], "shape", None) if solve and args else None
            idx = len(spans)
            spans.append([name, self._phase, clock(), 0.0, stack[-1], shape])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    @contextmanager
    def phase(self, phase):
        """Trace one set-up build or one round as a root span named `phase`."""
        self._phase = phase
        idx = len(self.spans)
        self.spans.append([phase, phase, time.perf_counter(), 0.0, -1, None])
        self._stack.append(idx)
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def layer_metrics(self, repeats):
        """Self time, calls, GFLOP and widest design per repeat, by metric name.

        `repeats` maps each phase to how many times it ran. Every figure is
        the phase total divided by that count, summed over phases, so a
        metric reads "per set-up build plus per round". A function that never
        ran reads 0.
        """
        covered = [0.0] * len(self.spans)
        for name, phase, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls = {}, {}
        flops = 0.0
        max_design_mb = 0.0
        for i, (name, phase, start, end, parent, shape) in enumerate(self.spans):
            if parent < 0:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i]) / repeats[phase]
            calls[name] = calls.get(name, 0) + Fraction(1, repeats[phase])
            if shape is not None and len(shape) == 2:
                n, p = shape
                flops += (2.0 * n * p * p - 2.0 * p ** 3 / 3.0) / repeats[phase]
                max_design_mb = max(max_design_mb, n * p * 8 / 2 ** 20)
        metrics = {"matrix.solve_gflop": flops / 1e9, "matrix.max_design_mb": max_design_mb}
        for name in TARGETS:
            metrics[f"{name}_s"] = self_s.get(name, 0.0)
            count = calls.get(name, 0)
            metrics[f"{name}_calls"] = int(count) if count.denominator == 1 else float(count)
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "phase", "start", "end", "parent", "shape"],
                    "spans": self.spans,
                    "missing_targets": self.missing,
                },
                fh,
            )
