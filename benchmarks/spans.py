"""Span tracing of otflow's layers, installed from outside the package.

`Tracer.install()` replaces functions in otflow's module namespaces with
timing wrappers.  Each name is wrapped where its caller looks it up (for
example `otflow.editors.euler_step`, the name the editor loops call), so the
package itself is unchanged.  A wrapper records one span per call: name,
start, end, parent span, sweep-cell id and thread, plus the counts that
belong to that boundary.  Spans stay in memory until the run ends.

Layers are the otflow modules; a span's layer is the first part of its name.
A span's self time is its duration minus the part of it that its child spans
cover (the union of their intervals, so children on two threads are not
double counted).  Counts marked "computed" are derived from argument shapes
rather than observed work, e.g. point-kernel pairs = rows x points.
"""

import importlib
import itertools
import threading
import time
from collections import defaultdict

import numpy as np


def _rows(z):
    return z.shape[0] if getattr(z, "ndim", 1) == 2 else 1


def _count_evaluate(args, kwargs, result):
    return {"rows": _rows(args[1])}


def _count_point_kernel(args, kwargs, result):
    return {"rows": _rows(args[1]), "pairs": _rows(args[1]) * len(args[0])}


def _count_integrate(args, kwargs, result):
    return {"rows": _rows(np.asarray(args[1]))}


def _count_step(args, kwargs, result):
    return {"steps": 1}


def _count_weight(args, kwargs, result):
    return {"active": int(result != 0.0)}


def _count_clip(args, kwargs, result):
    v = np.asarray(args[0], dtype=float)
    norms = np.linalg.norm(v, axis=-1)
    return {"rows": int(norms.size), "clipped": int(np.count_nonzero(norms > args[1]))}


def _count_write(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8"))}


def _count_svg(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


_ENHANCED = object()  # marker: wrap the callable the function returns

# (module, attribute, span name, count function or marker).  Attributes with
# a dot are methods on a class in that module.
TARGETS = (
    ("otflow.cli", "main", "cli.main", None),
    ("otflow.cli", "load_config", "config.load_config", None),
    ("otflow.runner", "derive_config", "config.derive_config", None),
    ("otflow.cli", "run_sweep", "runner.run_sweep", None),
    ("otflow.cli", "run_experiment", "runner.run_experiment", None),
    # Private, but no public function spans exactly one sweep cell.
    ("otflow.runner", "_sweep_cell", "runner.cell", None),
    ("otflow.runner", "run_verify", "runner.run_verify", None),
    ("otflow.runner", "atomic_write_text", "runner.atomic_write_text", _count_write),
    ("otflow.cli", "atomic_write_text", "runner.atomic_write_text", _count_write),
    ("otflow.runner", "transport_guided_inversion_edit", "editors.invert_edit", None),
    ("otflow.runner", "transport_enhanced_flowedit", "editors.flowedit", None),
    ("otflow.fields", "evaluate", "fields.evaluate", _count_evaluate),
    ("otflow.fields", "empirical_marginal_velocity", "fields.point_kernel", _count_point_kernel),
    # Private, but it is the Gaussian component kernel that both CFG branches
    # and the mixture call, so sharing components shows in its call count.
    ("otflow.fields", "_gaussian_velocity_eig", "fields.gaussian_kernel", None),
    ("otflow.core", "euler_step", "core.euler_step", None),
    ("otflow.editors", "euler_step", "core.euler_step", None),
    ("otflow.core", "integrate", "core.integrate", _count_integrate),
    ("otflow.metrics", "integrate", "core.integrate", _count_integrate),
    ("otflow.runner", "integrate", "core.integrate", _count_integrate),
    ("otflow.core", "TrajectoryRecorder.__init__", "core.recorder", None),
    ("otflow.core", "TrajectoryRecorder.step", "core.recorder", _count_step),
    ("otflow.core", "TrajectoryRecorder.build", "core.recorder", None),
    ("otflow.editors", "forward_noising", "core.forward_noising", None),
    ("otflow.transport", "adaptive_weight", "transport.adaptive_weight", _count_weight),
    ("otflow.editors", "adaptive_weight", "transport.adaptive_weight", _count_weight),
    ("otflow.metrics", "adaptive_weight", "transport.adaptive_weight", _count_weight),
    ("otflow.transport", "clip_norm", "transport.clip_norm", _count_clip),
    ("otflow.editors", "clip_norm", "transport.clip_norm", _count_clip),
    ("otflow.metrics", "clip_norm", "transport.clip_norm", _count_clip),
    ("otflow.transport", "transport_direction", "transport.transport_direction", None),
    ("otflow.editors", "transport_direction", "transport.transport_direction", None),
    ("otflow.editors", "enhance_velocity", "transport.enhance_velocity", None),
    ("otflow.metrics", "make_enhanced", "transport.enhanced", _ENHANCED),
    ("otflow.metrics", "reference_integrate", "metrics.reference_integrate", None),
    ("otflow.runner", "verify_discretization_bound", "metrics.verify", None),
    ("otflow.runner", "verify_convergence_bound", "metrics.verify", None),
    ("otflow.runner", "verify_edit_control_bound", "metrics.verify", None),
    ("otflow.runner", "w2_dirac_to_gaussian", "metrics.w2", None),
    ("otflow.runner", "w2_dirac_to_points", "metrics.w2", None),
    ("otflow.runner", "w2_gaussian", "metrics.w2", None),
    ("otflow.runner", "w2_empirical_exact", "metrics.w2", None),
    ("otflow.editors", "l2_distance", "metrics.l2_distance", None),
    ("otflow.runner", "render_metric_chart", "svgplot.render", _count_svg),
    ("otflow.runner", "render_trajectories", "svgplot.render", _count_svg),
    ("otflow.runner", "render_point_cloud", "svgplot.render", _count_svg),
    ("otflow.cli", "render_metric_chart", "svgplot.render", _count_svg),
    ("otflow.cli", "render_trajectories", "svgplot.render", _count_svg),
    ("otflow.cli", "render_point_cloud", "svgplot.render", _count_svg),
)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.cell = 0
        self.thread = threading.get_ident()


class Tracer:
    """Holds the spans of one process; `install` wraps every TARGETS entry."""

    def __init__(self):
        # (span id, name, start, end, parent id, cell id, thread, counts)
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._cells = itertools.count(1)
        self._state = _ThreadState()
        # Spans that start on a pool thread with an empty stack were caused
        # by the sweep that is running; they take its span as parent.
        self._sweep_span = 0

    def wrap(self, fn, name, count=None):
        spans, ids, state, clock = self.spans, self._ids, self._state, time.perf_counter
        is_sweep = name == "runner.run_sweep"
        is_cell = name == "runner.cell"

        def wrapper(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else self._sweep_span
            sid = next(ids)
            prev_cell = state.cell
            if is_cell:
                state.cell = next(self._cells)
            if is_sweep:
                self._sweep_span = sid
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                counts = count(args, kwargs, result) if ok and count is not None else None
                spans.append((sid, name, t0, t1, parent, state.cell, state.thread, counts))
                state.cell = prev_cell
                if is_sweep:
                    self._sweep_span = 0

        return wrapper

    def install(self):
        for module_name, attr, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if count is _ENHANCED:
                fn, name, count = self._wrap_result(fn, name), "transport.make_enhanced", None
            setattr(owner, leaf, self.wrap(fn, name, count))

    def _wrap_result(self, factory, name):
        def build(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name)
        return build

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tcell\tthread\tcounts\n")
            for sid, name, t0, t1, parent, cell, thread, counts in self.spans:
                fh.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{cell}\t{thread}\t"
                         f"{counts or ''}\n")


def _union_length(intervals):
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, *_ in spans:
        kids = children.get(sid)
        covered = _union_length([(max(a, t0), min(b, t1)) for a, b in kids if b > t0 and a < t1]) \
            if kids else 0.0
        out[sid] = (t1 - t0) - covered
    return out


def summarize(spans, run_s, workers):
    """Per-layer figures of one traced execution.

    Returns (counts, times, edit_ms): counts repeat exactly between runs of
    the same inputs; times are seconds or ratios; edit_ms maps each editor
    span name to the inclusive duration of every call in milliseconds.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(int)
    layer_self = defaultdict(float)
    edit_ms = defaultdict(list)
    cells = {}
    sweep_wall = 0.0
    for sid, name, t0, t1, parent, cell, thread, counts in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        total_s[name] += t1 - t0
        layer_self[name.split(".", 1)[0]] += own[sid]
        for key, value in (counts or {}).items():
            sums[f"{name}.{key}"] += value
        if name.startswith("editors."):
            edit_ms[name].append(1e3 * (t1 - t0))
        elif name == "runner.cell":
            cells[cell] = t1 - t0
        elif name == "runner.run_sweep":
            sweep_wall += t1 - t0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = {
        "fields.evaluate.calls": calls["fields.evaluate"],
        "fields.evaluate.rows": sums["fields.evaluate.rows"],
        "fields.gaussian_kernel.calls": calls["fields.gaussian_kernel"],
        "fields.point_kernel.calls": calls["fields.point_kernel"],
        "fields.point_kernel.pairs": sums["fields.point_kernel.pairs"],
        "core.euler_step.calls": calls["core.euler_step"],
        "core.recorder.steps": sums["core.recorder.steps"],
        "core.integrate.calls": calls["core.integrate"],
        "core.integrate.rows": sums["core.integrate.rows"],
        "transport.adaptive_weight.calls": calls["transport.adaptive_weight"],
        "editors.invert_edit.calls": calls["editors.invert_edit"],
        "editors.flowedit.calls": calls["editors.flowedit"],
        "config.derive_config.calls": calls["config.derive_config"],
        "runner.atomic_write_text.calls": calls["runner.atomic_write_text"],
        "runner.atomic_write_text.bytes": sums["runner.atomic_write_text.bytes"],
        "metrics.reference_integrate.calls": calls["metrics.reference_integrate"],
        "svgplot.render.calls": calls["svgplot.render"],
        "svgplot.render.bytes": sums["svgplot.render.bytes"],
    }
    times = {
        "fields.evaluate.self_s": self_s["fields.evaluate"],
        "fields.evaluate.us_per_row": 1e6 * ratio(total_s["fields.evaluate"],
                                                  sums["fields.evaluate.rows"]),
        "fields.gaussian_kernel.self_s": self_s["fields.gaussian_kernel"],
        "fields.point_kernel.self_s": self_s["fields.point_kernel"],
        "core.euler_step.self_s": self_s["core.euler_step"],
        "core.recorder.self_s": self_s["core.recorder"],
        "core.integrate.self_s": self_s["core.integrate"],
        "transport.active_share": ratio(sums["transport.adaptive_weight.active"],
                                        calls["transport.adaptive_weight"]),
        "transport.clip_share": ratio(sums["transport.clip_norm.clipped"],
                                      sums["transport.clip_norm.rows"]),
        "transport.self_s": layer_self["transport"],
        "editors.invert_edit.self_s": self_s["editors.invert_edit"],
        "editors.flowedit.self_s": self_s["editors.flowedit"],
        "config.load_config.self_s": self_s["config.load_config"],
        "config.derive_config.self_s": self_s["config.derive_config"],
        "runner.run_sweep.self_s": self_s["runner.run_sweep"],
        "runner.sweep.busy_share": ratio(sum(cells.values()), workers * sweep_wall),
        "runner.atomic_write_text.self_s": self_s["runner.atomic_write_text"],
        "metrics.reference_integrate.self_s": self_s["metrics.reference_integrate"],
        "metrics.verify.self_s": self_s["metrics.verify"],
        "svgplot.render.self_s": self_s["svgplot.render"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.coverage": ratio(sum(layer_self.values()), run_s),
    }
    return counts, times, dict(edit_ms)
