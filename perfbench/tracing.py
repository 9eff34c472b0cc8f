"""Per-layer trace for the benchmark's traced run.

Public hypcert functions are wrapped from here, wherever the package
binds them, so the program itself is unchanged.  Each wrapped call adds
its wall time to its layer and, for coarse layers, records a span
(operation index, name, start, end, parent span).  A layer's self time is
its time minus the time of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

STRUCTURAL = "verifier.structural"


def _newton(tr, args, result, parent):
    tr.counts["verifier.newton_iterations"] += result.iterations


def _scan(tr, args, result, parent):
    if parent != STRUCTURAL:  # the nonneg, c and kappa scans
        tr.counts["verifier.scan_points"] += args[0].total


def _structural(tr, args, result, parent):
    tr.counts["verifier.structural_points"] += sum(
        ch.n_points for ch in result.checks)


# (layer, module, attribute, record spans, hook on return)
LAYERS = (
    ("symbolfile.parse", "symbolfile", "parse_symbol_data", True, None),
    ("cli.pipeline", "cli", "run_pipeline", True, None),
    ("cli.emit", "cli", "emit_report", True, None),
    ("spectral.classify", "spectral", "classify_effective_hyperbolicity",
     True, None),
    ("normal_forms.side_conditions", "normal_forms", "check_side_conditions",
     True, None),
    ("normal_forms.extended_q", "normal_forms", "build_extended_Q",
     False, None),
    ("time_functions.construct", "time_functions", "construct_time_function",
     True, None),
    ("verifier.nonneg", "verifier", "verify_nonnegativity", True, None),
    ("verifier.c", "verifier", "estimate_c", True, None),
    ("verifier.kappa", "verifier", "estimate_kappa", True, None),
    ("verifier.scan", "verifier", "TensorGrid.scan", True, _scan),
    (STRUCTURAL, "verifier", "check_structural", True, _structural),
    ("verifier.minimize", "verifier", "minimize_Q", False, _newton),
    ("symbols.eval", "symbols", "PolySymbol.eval", False, None),
)

# (metric, unit, kind, layer): kind is total, self, calls or count
METRICS = (
    ("symbolfile.parse_s", "s", "total", "symbolfile.parse"),
    ("symbolfile.parse_calls", "count", "calls", "symbolfile.parse"),
    ("cli.emit_s", "s", "total", "cli.emit"),
    ("cli.pipeline_self_s", "s", "self", "cli.pipeline"),
    ("spectral.classify_s", "s", "total", "spectral.classify"),
    ("spectral.classify_calls", "count", "calls", "spectral.classify"),
    ("symbols.eval_s", "s", "total", "symbols.eval"),
    ("symbols.eval_calls", "count", "calls", "symbols.eval"),
    ("normal_forms.side_conditions_s", "s", "total",
     "normal_forms.side_conditions"),
    ("normal_forms.side_conditions_calls", "count", "calls",
     "normal_forms.side_conditions"),
    ("normal_forms.extended_q_builds", "count", "calls",
     "normal_forms.extended_q"),
    ("time_functions.construct_s", "s", "total", "time_functions.construct"),
    ("verifier.nonneg_s", "s", "total", "verifier.nonneg"),
    ("verifier.c_s", "s", "total", "verifier.c"),
    ("verifier.kappa_s", "s", "total", "verifier.kappa"),
    ("verifier.scan_points", "count", "count", "verifier.scan_points"),
    ("verifier.structural_s", "s", "total", STRUCTURAL),
    ("verifier.structural_self_s", "s", "self", STRUCTURAL),
    ("verifier.minimize_s", "s", "total", "verifier.minimize"),
    ("verifier.newton_solves", "count", "calls", "verifier.minimize"),
    ("verifier.newton_iterations", "count", "count",
     "verifier.newton_iterations"),
    ("verifier.structural_points", "count", "count",
     "verifier.structural_points"),
)


class Tracer:
    """Accumulates layer times and counts while installed."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self.op = -1  # index of the operation under way; -1 for set-up
        self._stack = []  # [layer, seconds in wrapped children, span index]
        self._undo = []

    def _wrap(self, layer, fn, spans, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [layer, 0.0, len(self.spans) if spans else -1]
            if spans:
                self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.total[layer] += end - start
                self.self_time[layer] += end - start - frame[1]
                self.calls[layer] += 1
                if parent is not None:
                    parent[1] += end - start
                if spans:
                    self.spans[frame[2]] = (self.op, layer, start, end,
                                            parent[2] if parent else -1)
            if hook is not None:
                hook(self, args, result, parent[0] if parent else None)
            return result
        return wrapper

    def install(self, package: str = "hypcert"):
        """Wrap every layer function in every module of the package that
        binds it, and the class attribute for methods."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for layer, modname, attr, spans, hook in LAYERS:
            owner = sys.modules.get("%s.%s" % (package, modname))
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = getattr(owner, name, None)
            if target is None:
                sys.stderr.write("trace: %s.%s not found; %s reads 0\n"
                                 % (modname, attr, layer))
                continue
            wrapped = self._wrap(layer, target, spans, hook)
            for holder in ([owner] if path else []) + modules:
                for key, value in list(vars(holder).items()):
                    if value is target:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def metrics(self) -> dict:
        out = {}
        for metric, unit, kind, layer in METRICS:
            value = {"total": self.total, "self": self.self_time,
                     "calls": self.calls, "count": self.counts}[kind][layer]
            out[metric] = {"value": value, "unit": unit}
        scan_s = sum(self.total[k] for k in
                     ("verifier.nonneg", "verifier.c", "verifier.kappa"))
        points = self.counts["verifier.scan_points"]
        out["verifier.scan_points_per_s"] = {
            "value": points / scan_s if scan_s else 0.0, "unit": "1/s"}
        return out
