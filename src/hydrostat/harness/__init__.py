"""Orchestration layer: initial data, matched pairs, sweeps, persistence, CLI.

The namespace is lazy, as hydrostat's is: each exported name, and each
submodule, resolves on first read by importing the submodule it comes from,
and nothing is cached here.
"""

from .. import _lazy

# submodule -> the names the package exports from it
_EXPORTS = {
    "initial_data": ("RECIPES", "generate_initial_data"),
    "pairs": ("NormRow", "run_matched_family", "run_matched_pair"),
    "snapshots": ("load_snapshot", "save_snapshot"),
    "sweep": ("SweepConfig", "SweepResult", "fit_rate", "format_csv", "run_sweep"),
}
__getattr__, __dir__, __all__ = _lazy(
    __name__, _EXPORTS, ("cli", "config", "plots", "verify"))
