"""hydrostat benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; hydrostat is imported from ./src.

--trace 0 prints the end-to-end metrics: cpu_s is the median CPU time over
the repetitions of the workload's action in one fresh worker process, after
one untimed warm-up repetition (their wall times are in the full record),
peak_rss_mb is that process's peak RSS, setup_s the median over
SETUP_REPEATS fresh processes, half started before the run worker and half
after it, of importing hydrostat and building the workload's grid and
initial data, ok_frac the share of operations (points,
fitted slopes, verify checks) that passed the output check.

--trace 1 prints the per-layer metrics of a traced worker (see tracer.py).

Earlier lines of standard output give the environment and the failures; the
last line is one JSON object with correct, attempted, failed and metrics.
The full record goes to perfbench/out/.  When the worker cannot run, the exit
status is nonzero and no result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 12
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _worker(argv, root, deadline) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"worker failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(args, root) -> dict:
    """Run the workers and assemble the full record of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    repeats = 0 if args.trace else 2 if args.smoke else SETUP_REPEATS

    def setups(n):
        return [_worker(["setup", *common], root, deadline)["setup_s"] for _ in range(n)]

    # set-up is timed on both sides of the run, so a slow spell of the
    # machine weighs on it as it weighs on the run
    before = setups(repeats // 2)
    record = _worker(
        ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        root, deadline,
    )
    record["setup_s"] = before + setups(repeats - repeats // 2)
    record["env"]["git_commit"] = _git_commit(root)
    if args.trace:
        import tracer

        units = tracer.PER_LAYER_UNITS
        values = record["layers"]
    else:
        untraced = record["untraced"]
        units = END_TO_END_UNITS
        values = {
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "ok_frac": 1.0 - len(record["failures"]) / record["attempted"],
        }
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of the same workloads, for the self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hydrostat", "__init__.py")):
        print(f"error: no hydrostat sources under {root}/src", file=sys.stderr)
        return 2
    try:
        record = measure(args, root)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.smoke:
        name = "smoke-" + name
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": record["env"], "reference": record["reference"],
                      "repetitions": record["repetitions"],
                      "missing_entry_points": record["missing_entry_points"]}))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
