"""Orchestration layer: initial data, matched pairs, sweeps, persistence, CLI."""

from .initial_data import RECIPES, generate_initial_data
from .pairs import NormRow, run_matched_family, run_matched_pair
from .snapshots import load_snapshot, save_snapshot
from .sweep import SweepConfig, SweepResult, fit_rate, format_csv, run_sweep

__all__ = [
    "RECIPES",
    "generate_initial_data",
    "NormRow",
    "run_matched_family",
    "run_matched_pair",
    "load_snapshot",
    "save_snapshot",
    "SweepConfig",
    "SweepResult",
    "fit_rate",
    "format_csv",
    "run_sweep",
]
