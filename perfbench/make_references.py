"""Regenerate references.json, the outputs the benchmark checks against.

    python3 perfbench/make_references.py

Run it from the root of a checkout whose outputs are trusted (the values
stored now come from the commit that added the benchmark).  Each workload's
action runs once per seed of SEEDS through the same code as a benchmark run;
the verify workload has no seeded input and is stored once under "any".
"""
from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = sorted({*range(50), workloads.DEFAULT_SEED})


def main() -> int:
    stored = {}
    table = {"tolerance_rel": checks.REL_TOL, "workloads": stored}
    workdir = os.path.join(worker.OUT_DIR, f"references-{os.getpid()}")
    try:
        for name in sorted(workloads.WORKLOADS):
            spec = workloads.get(name)
            seeds = [checks.ANY_SEED] if spec.kind == "verify" else SEEDS
            for seed in seeds:
                action, read = worker.make_action(
                    spec, workloads.DEFAULT_SEED if seed == checks.ANY_SEED else seed,
                    workdir)
                ops = read(action())
                problems = {k: op["problem"] for k, op in ops.items() if op["problem"]}
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                stored.setdefault(name, {})[str(seed)] = {
                    k: {"gated": op["gated"], "recorded": op["recorded"]}
                    for k, op in sorted(ops.items())
                }
                print(f"{name} seed {seed}: {len(ops)} operations", flush=True)
                with open(worker.REFERENCES, "w", encoding="utf-8") as fh:
                    json.dump(table, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
