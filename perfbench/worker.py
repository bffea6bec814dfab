"""The measured process of the benchmark; run.py starts a fresh one per role.

    python3 perfbench/worker.py setup --workload NAME --seed N [--smoke]
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S
                                    --trace 0|1 [--smoke]

`setup` times the import of hydrostat plus make_grid and
generate_initial_data for the workload's grid, and prints {"setup_s": ...}.

`run` repeats the workload's action through the public API for about S
seconds, the first repetition being an untimed warm-up, and prints one
JSON line: wall and CPU seconds of every repetition, peak RSS, the environment, and the output check.  With
--trace 1 it alternates untraced and traced repetitions and adds the
per-layer metrics; the tracer is imported only then.  hydrostat comes from
./src of the current directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")
RECIPE = "bandlimited_random"
CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:]+):")


def _setup(spec, seed: int) -> float:
    t0 = time.perf_counter()
    from hydrostat.harness.initial_data import generate_initial_data
    from hydrostat.spectral import make_grid

    generate_initial_data(RECIPE, seed, make_grid(spec.grid, spec.grid, spec.grid))
    return time.perf_counter() - t0


# --- actions: the timed call, and the untimed reading of its output ----------

def _cli(argv) -> tuple[int, str]:
    from hydrostat.harness.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _sweep_action(spec, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    config = os.path.join(workdir, "sweep.cfg")
    out = os.path.join(workdir, "results")
    n = spec.grid
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("\n".join((
            "system = NS_eps_delta",
            f"nx = {n}", f"ny = {n}", f"nz = {n}",
            f"dt = {spec.dt!r}",
            f"t_end = {spec.steps * spec.dt!r}",
            f"recipe = {RECIPE}",
            f"seed = {seed}",
            f"mode = {spec.mode}",
            "eps_values = " + ", ".join(repr(e) for e in spec.eps_values),
            "gamma_values = " + ", ".join(repr(g) for g in spec.gamma_values),
        )) + "\n")
    argv = ["sweep", "--config", config, "--out", out, "--jobs", str(spec.jobs)]

    def action():
        return _cli(argv)

    def read(result):
        code, _ = result
        csv_path = os.path.join(out, "results.csv")
        if code != 0 or not os.path.exists(csv_path):
            return {"sweep": {"gated": {}, "recorded": {},
                              "problem": f"sweep exit code {code}, no results.csv"}}
        ops = {}
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                row = dict(zip(header, line.strip().split(",")))
                name = f"point gamma={float(row['gamma']):g} eps={float(row['eps']):g}"
                op = ops.setdefault(name, {"gated": {}, "recorded": {}, "problem": None})
                value = float(row["value"])
                if row["norm_name"] == "FAILED":
                    op["problem"] = "FAILED row"
                elif row["blowup"] != "0":
                    op["problem"] = "blowup"
                elif not math.isfinite(value):
                    op["problem"] = f"non-finite {row['norm_name']}"
                if row["norm_name"] == "total":
                    op["gated"]["total"] = value
                else:
                    op["recorded"][row["norm_name"]] = value
        for gamma in spec.gamma_values:
            ops[f"slope gamma={gamma:g}"] = _slope_op(ops, gamma, spec.eps_values)
        return ops

    return action, read


def _slope_op(ops, gamma, eps_values) -> dict:
    """The slope of total against eps, fitted by the program's fit_rate as
    the ACCEPTANCE lines fit it."""
    from hydrostat.errors import InsufficientData
    from hydrostat.harness.sweep import fit_rate

    pts = []
    for eps in eps_values:
        total = ops.get(f"point gamma={gamma:g} eps={eps:g}", {}).get("gated", {}).get("total")
        if total is None:
            return {"gated": {}, "recorded": {}, "problem": f"no point at eps={eps:g}"}
        pts.append((eps, total))
    try:
        slope = fit_rate(pts)[0]
    except InsufficientData as exc:
        return {"gated": {}, "recorded": {}, "problem": f"no fit: {exc}"}
    return {"gated": {"slope": slope}, "recorded": {}, "problem": None}


def _verify_action(spec):
    argv = ["verify", "--suite", spec.suite]

    def action():
        return _cli(argv)

    def read(result):
        code, text = result
        ops = {}
        for line in text.splitlines():
            m = CHECK_LINE.match(line)
            if m:
                name = m.group(2)
                while name in ops:
                    name += "'"
                passed = m.group(1) == "PASS"
                ops[name] = {"gated": {"passed": 1.0 if passed else 0.0}, "recorded": {},
                             "problem": None if passed else line}
        if len(ops) != spec.checks:
            ops["check count"] = {"gated": {}, "recorded": {},
                                  "problem": f"{len(ops)} checks, expected {spec.checks}"}
        if code != 0 and all(op["problem"] is None for op in ops.values()):
            ops["exit code"] = {"gated": {}, "recorded": {},
                                "problem": f"verify exit code {code}"}
        return ops

    return action, read


def make_action(spec, seed: int, workdir: str):
    if spec.kind == "sweep":
        return _sweep_action(spec, seed, workdir)
    return _verify_action(spec)


# --- measurement ---------------------------------------------------------

def _once(action, read, outputs, wrap=None) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    raw = action() if wrap is None else wrap(action)
    t1, c1 = time.perf_counter(), time.process_time()
    outputs.append(read(raw))
    return {"wall_s": t1 - t0, "cpu_s": c1 - c0}


def _until(seconds, step) -> None:
    """Call step() for about `seconds` (at least once).

    A call starts only if it is expected to end less than half a call past
    the deadline, so a run lasts `seconds` on average however long one call
    takes.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        t1 = time.perf_counter()
        if t1 - start + (t1 - t0) / 2 >= seconds:
            return


def _environment() -> dict:
    import numpy
    import scipy

    from hydrostat import spectral

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": getattr(spectral, "FFT_WORKERS", None),
        "tracing": "tracer" in sys.modules,
    }


def run(spec, args) -> dict:
    _setup(spec, args.seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        action, read = make_action(spec, args.seed, workdir)
        outputs, untraced, traced = [], [], []
        layers = missing = None
        start = time.perf_counter()
        # the first repetition pays the lazy imports and first-call costs of
        # the action (10-30% of a repetition); it is checked but not timed
        warmup = _once(action, read, outputs)
        seconds = args.seconds - (time.perf_counter() - start)
        if not args.trace:
            _until(seconds, lambda: untraced.append(_once(action, read, outputs)))
        else:
            import tracer

            tr = tracer.Tracer()

            def untraced_then_traced():
                # alternate, so that drift of the machine hits both sides
                untraced.append(_once(action, read, outputs))
                tr.install()
                try:
                    traced.append(_once(action, read, outputs,
                                        lambda fn: tr.span(tracer.ACTION_LAYER, fn)))
                finally:
                    tr.uninstall()

            _until(seconds, untraced_then_traced)
            layers = tr.layer_metrics()
            untraced_wall = statistics.median(r["wall_s"] for r in untraced)
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            layers["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
            missing = tr.missing
            tr.write_spans(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    key = workloads.reference_key(args.workload, args.smoke)
    reference = checks.load_reference(REFERENCES, key, args.seed)
    attempted = 0
    failures = []
    for i, ops in enumerate(outputs):
        n, bad = checks.judge(ops, reference, None if i == 0 else outputs[0])
        attempted += n
        failures += [f"repetition {i}: {b}" for b in bad]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "reference": reference is not None,
        "repetitions": len(untraced),
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failures": failures,
        "ops": outputs[0],
        "layers": layers,
        "missing_entry_points": missing,
        "env": _environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = workloads.get(args.workload, args.smoke)
    if args.role == "setup":
        result = {"setup_s": _setup(spec, args.seed)}
    else:
        result = run(spec, args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
