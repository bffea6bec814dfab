"""Sweep orchestration over (eps, delta) or gamma, rate regression, CSV output.

The points of a sweep are grouped into families (see run_matched_family):
in the hydrostatic modes every point compares against the same PE_H
reference, so the whole sweep is one family run in lockstep; delta_to_infty
points share nothing and run on the --jobs pool, one family each.  Rows are
then sorted deterministically, so repeated sweeps from the same
configuration produce byte-identical CSV files.  Wall-clock timings are
reported as zero unless explicitly requested, to keep the output bytes
reproducible.  Next to results.csv, failures.json lists every point that an
exception stopped, with the exception's type and message.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError, InsufficientData
from ..solvers import SimConfig
from .pairs import HYDROSTATIC_MODES, NormRow, run_matched_family

MODES = ("eps_delta_to_zero", "delta_to_infty", "gamma_scan")

CSV_HEADER = "mode,eps,delta,gamma,norm_name,value,blowup,wall_ms"


@dataclass(frozen=True)
class SweepConfig:
    """Sweep setup: mode, parameter lists, shared simulation template."""

    mode: str
    base: SimConfig
    eps_values: tuple[float, ...] = ()
    delta_values: tuple[float, ...] = ()
    gamma_values: tuple[float, ...] = ()
    out_dir: str | None = None
    jobs: int = 1
    timing: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown sweep mode {self.mode!r}")
        if not self.eps_values:
            raise ConfigError("eps_values must be nonempty")
        if self.mode == "delta_to_infty" and not self.delta_values:
            raise ConfigError("delta_to_infty needs delta_values")
        if self.mode == "gamma_scan":
            if not self.gamma_values:
                raise ConfigError("gamma_scan needs gamma_values")
            if any(g <= 0 for g in self.gamma_values):
                raise ConfigError("gamma values must be > 0")
        if self.mode == "eps_delta_to_zero" and self.delta_values and len(
            self.delta_values
        ) != len(self.eps_values):
            raise ConfigError(
                "eps_delta_to_zero pairs eps with delta; lists must match"
            )

    def points(self) -> list[tuple[float, float, float | None]]:
        """(eps, delta, gamma) tuples for every sweep point."""
        pts = []
        if self.mode == "eps_delta_to_zero":
            deltas = self.delta_values or self.eps_values
            for e, d in zip(self.eps_values, deltas):
                pts.append((e, d, None))
        elif self.mode == "delta_to_infty":
            for e in self.eps_values:
                for d in self.delta_values:
                    pts.append((e, d, None))
        else:
            for g in self.gamma_values:
                for e in self.eps_values:
                    pts.append((e, e ** (g - 2.0), g))
        return pts


@dataclass
class SweepResult:
    rows: list[NormRow] = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    blowup_threshold: float = math.inf


def fit_rate(
    points: list[tuple[float, float]], drop_blowups: bool = True
) -> tuple[float, float, float]:
    """Ordinary least squares on (log h, log value): (slope, intercept, r2).

    Natural logarithms.  Non-finite or non-positive values count as blown-up
    points and are dropped when drop_blowups is set; at least three usable
    points are required.
    """
    usable = []
    for h, v in points:
        ok = math.isfinite(v) and v > 0 and math.isfinite(h) and h > 0
        if not ok:
            if drop_blowups:
                continue
            raise InsufficientData(f"non-positive or non-finite point ({h}, {v})")
        usable.append((h, v))
    if len(usable) < 3:
        raise InsufficientData(f"need >= 3 finite positive points, have {len(usable)}")
    x = np.log([h for h, _ in usable])
    y = np.log([v for _, v in usable])
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    syy = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if syy == 0 else 1.0 - float(np.sum(resid**2)) / syy
    return slope, float(intercept), float(r2)


def _abscissa(mode: str, row: NormRow) -> float:
    if mode == "eps_delta_to_zero":
        return row.eps + row.delta
    if mode == "gamma_scan":
        return row.eps
    return row.delta


def _row_order(r: NormRow):
    return (r.gamma if r.gamma is not None else -1.0, r.eps, r.delta, r.norm_name)


def format_csv(rows: list[NormRow]) -> str:
    """Deterministic CSV text: sorted rows, '.' decimals, LF endings."""
    lines = [CSV_HEADER]
    for r in sorted(rows, key=_row_order):
        gamma = "" if r.gamma is None else format(r.gamma, ".17g")
        lines.append(
            ",".join(
                (
                    r.mode,
                    format(r.eps, ".17g"),
                    format(r.delta, ".17g"),
                    gamma,
                    r.norm_name,
                    format(r.value, ".17g"),
                    "1" if r.blowup else "0",
                    str(r.wall_ms),
                )
            )
        )
    return "\n".join(lines) + "\n"


def format_failures(rows: list[NormRow]) -> str:
    """JSON list of the FAILED points, in CSV order; "[]" when none failed."""
    failures = [
        {"mode": r.mode, "eps": r.eps, "delta": r.delta, "gamma": r.gamma,
         "type": r.error[0], "message": r.error[1]}
        for r in sorted(rows, key=_row_order) if r.norm_name == "FAILED"
    ]
    return json.dumps(failures, indent=2) + "\n"


def run_sweep(cfg: SweepConfig, write_plots: bool = False) -> SweepResult:
    """Evaluate every sweep point, fit rates, and persist CSV (and SVG)."""
    pts = cfg.points()
    families = [pts] if cfg.mode in HYDROSTATIC_MODES else [[pt] for pt in pts]

    def one(family):
        return run_matched_family(family, cfg.base, cfg.mode)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as ex:
            outcomes = list(ex.map(one, families))
    else:
        outcomes = [one(family) for family in families]
    result = SweepResult(
        rows=[row for family in outcomes for rows in family for row in rows]
    )

    if not cfg.timing:
        result.rows = [replace(r, wall_ms=0) for r in result.rows]

    # observed blowup threshold: smallest eps+delta among blown-up points
    blowups = {(r.eps, r.delta) for r in result.rows if r.blowup}
    if blowups:
        result.blowup_threshold = min(e + d for e, d in blowups)

    # least-squares rates per norm (and per gamma for the scan)
    by_key: dict = {}
    for r in result.rows:
        if r.norm_name == "FAILED" or r.blowup:
            continue
        key = (r.gamma, r.norm_name) if cfg.mode == "gamma_scan" else r.norm_name
        by_key.setdefault(key, []).append((_abscissa(cfg.mode, r), r.value))
    for key, pts_v in by_key.items():
        if len(pts_v) >= 3:
            try:
                result.fits[key] = fit_rate(pts_v, drop_blowups=True)
            except InsufficientData:
                pass

    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        csv_path = os.path.join(cfg.out_dir, "results.csv")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_csv(result.rows))
        failures_path = os.path.join(cfg.out_dir, "failures.json")
        with open(failures_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_failures(result.rows))
        if write_plots:
            from .plots import write_loglog_svg

            series = {}
            for r in result.rows:
                if r.norm_name in ("FAILED",) or not math.isfinite(r.value):
                    continue
                label = (
                    f"{r.norm_name}[g={r.gamma:g}]"
                    if r.gamma is not None
                    else r.norm_name
                )
                series.setdefault(label, []).append(
                    (_abscissa(cfg.mode, r), r.value)
                )
            write_loglog_svg(
                os.path.join(cfg.out_dir, "rates.svg"), series, title=cfg.mode
            )
    return result
