"""Workload definitions of the benchmark, shared by run.py and worker.py.

Plain data only: importing this module must not import numpy or hydrostat,
because run.py stays light and the setup timing starts before the package
import.  Why each workload exists is written down in NOTES.md and in
BENCHMARK.json.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42  # the seed the acceptance criteria use


@dataclass(frozen=True)
class Workload:
    """One named load.

    kind "sweep" drives `hydrostat sweep` in-process with a generated config,
    "verify" drives `hydrostat verify`.  `grid` is the cube edge used for the
    sweep runs and for the timed set-up of every kind.
    """

    kind: str
    grid: int
    mode: str = ""
    steps: int = 0
    dt: float = 1e-3
    eps_values: tuple[float, ...] = ()
    gamma_values: tuple[float, ...] = ()
    jobs: int = 1
    suite: str = ""
    checks: int = 0


WORKLOADS = {
    "gamma-sweep-32": Workload(
        kind="sweep", grid=32, mode="gamma_scan", steps=20,
        eps_values=(0.2, 0.1, 0.05), gamma_values=(3.0, 4.0), jobs=2,
    ),
    "verify-all": Workload(kind="verify", grid=32, suite="all", checks=25),
}

# Tiny variants for the self-tests: same code paths, seconds instead of
# minutes.  The verify variant runs the bootstrap suite through the same CLI
# path, since `--suite all` has a fixed size.
SMOKE = {
    "gamma-sweep-32": Workload(
        kind="sweep", grid=8, mode="gamma_scan", steps=2,
        eps_values=(0.2, 0.1, 0.05), gamma_values=(3.0, 4.0), jobs=2,
    ),
    "verify-all": Workload(kind="verify", grid=8, suite="bootstrap", checks=10),
}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]


def reference_key(name: str, smoke: bool) -> str:
    return f"{name}/smoke" if smoke else name
