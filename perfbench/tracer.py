"""Span tracer for the benchmark's traced run (`--trace 1`).

Only a traced run imports this module.  `install` wraps the entry points in
ENTRY_POINTS by rebinding their names in every loaded hydrostat module (and
the stepper methods on their classes), so the program itself is not edited;
`uninstall` puts the originals back.  Each call records a span: layer,
start, end, parent span, thread, and the id of the operation (sweep point or
verify check) it serves.  Spans stay in memory until `layer_metrics` folds
them and `write_spans` writes them out.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  Spans are stacked per thread; a span that opens on a
thread with an empty stack (a sweep point on the pool) takes the innermost
open span of the installing thread as its parent, so the sweep's self time is
its serial part, not the time it spends waiting for the pool.

An entry point that no longer exists is listed as missing, and every metric
that depends on it reads null instead of 0.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import weakref
from time import perf_counter_ns

# (module, attribute, layer).  "Class.method" wraps a method on its class,
# "NAME[key]" an entry of a module-level dict, "prefix*" every module-level
# function of that prefix; every other attribute is a module-level function.
# Module-level functions are rebound wherever a hydrostat module imported them.
ENTRY_POINTS = (
    ("hydrostat.spectral", "_raw_to_phys", "spectral.to_phys"),
    ("hydrostat.spectral", "_raw_to_spec", "spectral.to_spec"),
    ("hydrostat.spectral", "_raw_parity_project", "spectral.parity"),
    ("hydrostat.spectral", "make_grid", "spectral.make_grid"),
    ("hydrostat.fields", "_raw_advect", "fields.advect"),
    ("hydrostat.fields", "_raw_project_eps", "fields.project_eps"),
    ("hydrostat.fields", "_raw_project_hydro", "fields.project_hydro"),
    ("hydrostat.fields", "_raw_w_from_v", "fields.w_from_v"),
    ("hydrostat.solvers", "NavierStokesStepper.nonlinear", "solvers.ns.nonlinear"),
    ("hydrostat.solvers", "NavierStokesStepper.advance", "solvers.ns.advance"),
    ("hydrostat.solvers", "PrimitiveStepper.nonlinear", "solvers.pe.nonlinear"),
    ("hydrostat.solvers", "PrimitiveStepper.advance", "solvers.pe.advance"),
    ("hydrostat.solvers", "NavierStokes2DStepper.nonlinear", "solvers.ns2d.nonlinear"),
    ("hydrostat.solvers", "NavierStokes2DStepper.advance", "solvers.ns2d.advance"),
    ("hydrostat.solvers", "StokesScaledStepper.advance", "solvers.stokes.advance"),
    ("hydrostat.solvers", "_check_blowup", "solvers.check_blowup"),
    ("hydrostat.norms", "accumulate", "norms.accumulate"),
    ("hydrostat.harness.initial_data", "generate_initial_data", "harness.initial_data"),
    ("hydrostat.harness.pairs", "run_matched_pair", "harness.pairs"),
    ("hydrostat.harness.sweep", "run_sweep", "harness.sweep"),
    ("hydrostat.harness.verify", "run_suite", "harness.verify"),
    ("hydrostat.harness.verify", "SUITES[oracles]", "harness.verify.oracles"),
    ("hydrostat.harness.verify", "SUITES[invariants]", "harness.verify.invariants"),
    ("hydrostat.harness.verify", "SUITES[bootstrap]", "harness.verify.bootstrap"),
    # every check of the verify suites is an operation of its own
    ("hydrostat.harness.verify", "check_*", "harness.verify.check"),
    ("hydrostat.bootstrap", "certify_quadratic_bound", "bootstrap.certify"),
    ("hydrostat.bootstrap", "certify_exp_quadratic_bound", "bootstrap.certify"),
)

ACTION_LAYER = "bench.action"
OP_LAYERS = {"harness.pairs", "harness.verify.check"}

FFT_LAYERS = ("spectral.to_phys", "spectral.to_spec")
STEPPER_ADVANCE = tuple(
    layer for _, _, layer in ENTRY_POINTS if layer.startswith("solvers.") and
    layer.endswith(".advance")
)
PE_REFERENCE_MODES = ("eps_delta_to_zero", "gamma_scan")
BYTES_PER_POINT = 32  # complex128 in and out of each transform point

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "spectral.to_phys.calls": "count",
    "spectral.to_phys.self_s": "s",
    "spectral.to_phys.points": "count",
    "spectral.to_spec.calls": "count",
    "spectral.to_spec.self_s": "s",
    "spectral.to_spec.points": "count",
    "spectral.fft.bytes_computed": "bytes",
    "spectral.fft.self_frac": "ratio",
    "spectral.parity.calls": "count",
    "spectral.parity.self_s": "s",
    "spectral.make_grid.self_s": "s",
    "fields.advect.calls": "count",
    "fields.advect.self_s": "s",
    "fields.project_eps.self_s": "s",
    "fields.project_hydro.self_s": "s",
    "fields.w_from_v.calls": "count",
    "fields.w_from_v.self_s": "s",
    "solvers.ns.nonlinear.self_s": "s",
    "solvers.ns.advance.self_s": "s",
    "solvers.pe.nonlinear.self_s": "s",
    "solvers.pe.advance.self_s": "s",
    "solvers.ns2d.nonlinear.self_s": "s",
    "solvers.ns2d.advance.self_s": "s",
    "solvers.stokes.advance.self_s": "s",
    "solvers.check_blowup.self_s": "s",
    "solvers.step_ms.p50": "ms",
    "solvers.step_ms.p90": "ms",
    "solvers.ns2d.useful_frac": "ratio",
    "solvers.ns2d.incl_frac": "ratio",
    "norms.accumulate.calls": "count",
    "norms.accumulate.self_s": "s",
    "harness.pairs.self_s": "s",
    "harness.pairs.ref_steps": "count",
    "harness.pairs.ref_useful_frac": "ratio",
    "harness.sweep.self_s": "s",
    "harness.sweep.busy_s": "s",
    "harness.sweep.concurrency": "ratio",
    "harness.sweep.point_s.p50": "s",
    "harness.sweep.point_s.max": "s",
    "harness.initial_data.self_s": "s",
    "harness.verify.oracles_s": "s",
    "harness.verify.invariants_s": "s",
    "harness.verify.bootstrap_s": "s",
    "bootstrap.certify.calls": "count",
    "bootstrap.certify.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


# --- per-call details kept on a span ---------------------------------------

def _transform_points(args, kwargs):
    """(points, points on the kz=0 plane) of one transform call."""
    grid, arr = args[0], args[1]
    if arr.shape[-3:] == grid.shape:
        return arr.size, arr.size / grid.nz
    return arr.size, arr.size


def _pair_reference(args, kwargs):
    """(PE_H reference key, steps it needs) of one matched pair, or None.

    The PE_H reference depends on the grid, the initial data and the time
    grid, never on (eps, delta)."""
    base, mode = args[1], args[2]
    if mode not in PE_REFERENCE_MODES:
        return None
    key = (base.nx, base.ny, base.nz, base.dt, base.t_end, base.recipe, base.seed)
    return key, int(round(base.t_end / base.dt))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, layer, thread, t0_ns, t1_ns, info)
        self.missing = []  # "module:attribute" of entry points not found
        self._layers_missing = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._serial_lock = threading.Lock()
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count(1)
        self._patches = None

    # -- recording ----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stepper_serial(self, args, kwargs):
        # a stepper's identity that id() reuse after garbage collection
        # cannot confuse
        obj = args[0]
        with self._serial_lock:
            serial = self._serials.get(obj)
            if serial is None:
                serial = self._serials[obj] = next(self._next_serial)
        return serial

    def wrap(self, fn, layer, info=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(tracer._ids)
            if parent is not None and parent[1] is not None:
                op = parent[1]
            else:
                op = sid if layer in OP_LAYERS else None
            detail = None
            if info is not None:
                try:
                    detail = info(args, kwargs)
                except Exception:  # a detail must never break the traced run
                    detail = None
            stack.append((sid, op))
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.spans.append((
                    sid, None if parent is None else parent[0], op, layer,
                    threading.get_ident(), t0, t1, detail,
                ))

        return functools.update_wrapper(traced, fn)

    def span(self, layer, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self.wrap(fn, layer)(*args)

    # -- installation -------------------------------------------------------
    def _info_for(self, layer):
        if layer in FFT_LAYERS:
            return _transform_points
        if layer == "harness.pairs":
            return _pair_reference
        if layer in STEPPER_ADVANCE:
            return self._stepper_serial
        return None

    def install(self) -> None:
        """Swap the wrappers in; the first call builds them."""
        if self._patches is None:
            self._patches = self._collect()
        for target, name, _, wrapper in self._patches:
            _assign(target, name, wrapper)

    def uninstall(self) -> None:
        """Put the program's own functions back."""
        for target, name, original, _ in self._patches or ():
            _assign(target, name, original)

    def _collect(self) -> list:
        # load the modules that the CLI would import lazily, so that their
        # names get rebound too
        for name in ("hydrostat", "hydrostat.harness.cli", "hydrostat.harness.verify"):
            importlib.import_module(name)
        patches = []
        for module_name, attr, layer in ENTRY_POINTS:
            found = self._patches_for(module_name, attr, layer)
            if not found:
                self.missing.append(f"{module_name}:{attr}")
                self._layers_missing.add(layer)
            patches += found
        return patches

    def _patches_for(self, module_name, attr, layer) -> list:
        """(target, name, original, wrapper) for one entry point, [] if gone."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return []
        info = self._info_for(layer)
        if attr.endswith("*"):
            fns = [v for k, v in vars(module).items()
                   if k.startswith(attr[:-1]) and callable(v)]
            return [p for fn in fns for p in _rebindings(fn, self.wrap(fn, layer, info))]
        if "[" in attr:
            table_name, key = attr[:-1].split("[")
            table = getattr(module, table_name, None)
            if not isinstance(table, dict) or key not in table:
                return []
            return [(table, key, table[key], self.wrap(table[key], layer, info))]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            fn = getattr(cls, method, None)
            if not callable(fn):
                return []
            # an inherited method is deleted again on uninstall
            original = cls.__dict__.get(method, _INHERITED)
            return [(cls, method, original, self.wrap(fn, layer, info))]
        fn = getattr(module, attr, None)
        if not callable(fn):
            return []
        return _rebindings(fn, self.wrap(fn, layer, info))

    # -- folding ------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics per action (one repetition of the workload)."""
        by_id = {s[0]: s for s in self.spans}
        children: dict = {}
        for s in self.spans:
            if s[1] is not None:
                children.setdefault(s[1], []).append((s[5], s[6]))

        calls: dict = {}
        self_ns: dict = {}
        incl_ns: dict = {}
        for s in self.spans:
            sid, _, _, layer, _, t0, t1, _ = s
            covered = _covered(children.get(sid, ()), t0, t1)
            calls[layer] = calls.get(layer, 0) + 1
            self_ns[layer] = self_ns.get(layer, 0) + (t1 - t0 - covered)
            incl_ns[layer] = incl_ns.get(layer, 0) + (t1 - t0)

        def ancestor(span, layers):
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[3] in layers:
                    return parent
                parent = by_id.get(parent[1])
            return None

        actions = [s for s in self.spans if s[3] == ACTION_LAYER]
        reps = max(1, len(actions))
        # thread time inside spans: the base of the shares, which stays <= 1
        # when sweep points run on a pool
        busy_ns = sum(self_ns.values())

        points = {layer: 0 for layer in FFT_LAYERS}
        ns2d_points = ns2d_useful = 0.0
        ref_computed = 0
        needed: dict = {}
        periods_ms = []
        last_advance: dict = {}
        sweep_points_s = []
        for s in sorted(self.spans, key=lambda s: s[5]):
            layer, detail = s[3], s[7]
            if layer in FFT_LAYERS and detail is not None:
                points[layer] += detail[0]
                if ancestor(s, ("solvers.ns2d.nonlinear",)) is not None:
                    ns2d_points += detail[0]
                    ns2d_useful += detail[1]
            elif layer in STEPPER_ADVANCE:
                if detail is not None:
                    if detail in last_advance:
                        periods_ms.append((s[5] - last_advance[detail]) / 1e6)
                    last_advance[detail] = s[5]
                if layer == "solvers.pe.advance" and ancestor(
                    s, ("harness.pairs", "harness.sweep")
                ) is not None:
                    ref_computed += 1
            elif layer == "harness.pairs":
                action = ancestor(s, (ACTION_LAYER,))
                if detail is not None:
                    key = (None if action is None else action[0], detail[0])
                    needed[key] = max(needed.get(key, 0), detail[1])
                if ancestor(s, ("harness.sweep",)) is not None:
                    sweep_points_s.append((s[6] - s[5]) / 1e9)

        def per_rep(x):
            return x / reps

        out = {}

        def put(name, layers, value, need=any):
            # null when the entry points the metric is made from are gone
            missing = need(layer in self._layers_missing for layer in layers)
            out[name] = None if missing else value

        for layer in FFT_LAYERS:
            put(f"{layer}.calls", [layer], per_rep(calls.get(layer, 0)))
            put(f"{layer}.self_s", [layer], per_rep(self_ns.get(layer, 0)) / 1e9)
            put(f"{layer}.points", [layer], per_rep(points[layer]))
        put("spectral.fft.bytes_computed", FFT_LAYERS,
            per_rep(sum(points.values())) * BYTES_PER_POINT)
        fft_ns = sum(self_ns.get(layer, 0) for layer in FFT_LAYERS)
        put("spectral.fft.self_frac", FFT_LAYERS, _ratio(fft_ns, busy_ns))
        for layer in ("spectral.parity", "fields.advect", "fields.w_from_v",
                      "norms.accumulate", "bootstrap.certify"):
            put(f"{layer}.calls", [layer], per_rep(calls.get(layer, 0)))
        for layer in ("spectral.parity", "spectral.make_grid", "fields.advect",
                      "fields.project_eps", "fields.project_hydro",
                      "fields.w_from_v", "solvers.ns.nonlinear",
                      "solvers.ns.advance", "solvers.pe.nonlinear",
                      "solvers.pe.advance", "solvers.ns2d.nonlinear",
                      "solvers.ns2d.advance", "solvers.stokes.advance",
                      "solvers.check_blowup", "norms.accumulate", "harness.pairs",
                      "harness.sweep", "harness.initial_data", "bootstrap.certify"):
            put(f"{layer}.self_s", [layer], per_rep(self_ns.get(layer, 0)) / 1e9)
        put("solvers.step_ms.p50", STEPPER_ADVANCE, _quantile(periods_ms, 0.5), all)
        put("solvers.step_ms.p90", STEPPER_ADVANCE, _quantile(periods_ms, 0.9), all)
        put("solvers.ns2d.useful_frac", FFT_LAYERS + ("solvers.ns2d.nonlinear",),
            ns2d_useful / ns2d_points if ns2d_points else 1.0)
        ns2d_ns = sum(incl_ns.get(f"solvers.ns2d.{m}", 0) for m in ("nonlinear", "advance"))
        put("solvers.ns2d.incl_frac",
            ("solvers.ns2d.nonlinear", "solvers.ns2d.advance"), _ratio(ns2d_ns, busy_ns))
        ref_layers = ("harness.pairs", "solvers.pe.advance")
        put("harness.pairs.ref_steps", ref_layers, per_rep(ref_computed))
        put("harness.pairs.ref_useful_frac", ref_layers,
            min(1.0, sum(needed.values()) / ref_computed) if ref_computed else 1.0)
        busy = sum(sweep_points_s)
        sweep_s = incl_ns.get("harness.sweep", 0) / 1e9
        sweep_layers = ("harness.sweep", "harness.pairs")
        put("harness.sweep.busy_s", sweep_layers, per_rep(busy))
        put("harness.sweep.concurrency", sweep_layers, busy / sweep_s if sweep_s else 0.0)
        put("harness.sweep.point_s.p50", sweep_layers, _quantile(sweep_points_s, 0.5))
        put("harness.sweep.point_s.max", sweep_layers, max(sweep_points_s, default=0.0))
        for suite in ("oracles", "invariants", "bootstrap"):
            layer = f"harness.verify.{suite}"
            put(f"{layer}_s", [layer], per_rep(incl_ns.get(layer, 0)) / 1e9)
        out["trace.wall_s"] = _quantile([(s[6] - s[5]) / 1e9 for s in actions], 0.5)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per span: id, parent, op, layer, thread, t0_ns, t1_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:7]) + "\n")


_INHERITED = object()


def _rebindings(fn, wrapper) -> list:
    """Every name under which a loaded hydrostat module holds fn."""
    return [
        (module, attr, fn, wrapper)
        for name, module in list(sys.modules.items())
        if module is not None and name.startswith("hydrostat")
        for attr, value in list(vars(module).items())
        if value is fn
    ]


def _assign(target, name, value) -> None:
    if isinstance(target, dict):
        target[name] = value
    elif value is _INHERITED:
        delattr(target, name)
    else:
        setattr(target, name, value)


def _covered(intervals, t0, t1) -> int:
    """Length of the union of the intervals, clipped to [t0, t1]."""
    total = 0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quantile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 0.5:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=10)[int(q * 10) - 1])
