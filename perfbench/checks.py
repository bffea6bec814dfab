"""Output check of the benchmark.

A run's outputs are a dict of operations (a parameter point, a fitted slope
or a verify check), each with `gated` values that must match the stored
reference to REL_TOL, `recorded` values kept for comparison by hand (such as
component norms with heavy cancellation) and an optional `problem` found
while reading the program's output (blowup, a FAILED row, a non-finite
value, a failing check).

Pure stdlib, so the self-tests and run.py can use it without numpy.
"""
from __future__ import annotations

import json
import math

REL_TOL = 1e-12  # the ROADMAP's rule for acceptance values


def close(a: float, b: float) -> bool:
    return (
        math.isfinite(a)
        and math.isfinite(b)
        and abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    )


def judge(ops: dict, reference: dict | None, first: dict | None = None) -> tuple[int, list[str]]:
    """Count attempted operations and list the failures of one repetition.

    With a reference, every reference operation is attempted, and a missing
    operation or gated value fails.  Without one, only the run's own
    operations are judged.  `first` is the first repetition of the same run:
    a later repetition must reproduce it to REL_TOL.
    """
    names = set(ops) | set(reference or ())
    failures = []
    for name in sorted(names):
        op = ops.get(name)
        if op is None:
            failures.append(f"{name}: missing from the output")
            continue
        if op.get("problem"):
            failures.append(f"{name}: {op['problem']}")
            continue
        gated = op["gated"]
        bad = [k for k, v in gated.items() if not math.isfinite(v)]
        if bad:
            failures.append(f"{name}: non-finite {', '.join(bad)}")
            continue
        for label, other in (("reference", reference), ("first repetition", first)):
            if other is None:
                continue
            expected = other.get(name, {}).get("gated", {})
            wrong = [
                f"{k}={gated.get(k)!r} vs {v!r}"
                for k, v in sorted(expected.items())
                if k not in gated or not close(gated[k], v)
            ]
            if wrong:
                failures.append(f"{name}: differs from {label}: {'; '.join(wrong)}")
                break
    return len(names), failures


ANY_SEED = "any"  # key of a workload whose inputs do not depend on the seed


def load_reference(path: str, key: str, seed: int) -> dict | None:
    """The stored operations for (workload key, seed), or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    by_seed = table.get("workloads", {}).get(key, {})
    return by_seed.get(str(seed), by_seed.get(ANY_SEED))
