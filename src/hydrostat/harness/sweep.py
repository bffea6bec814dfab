"""Sweep orchestration over (eps, delta) or gamma, rate regression, CSV output.

A sweep runs the families of pairs.families (see run_matched_family): all
points in the hydrostatic modes, the points at one delta in delta_to_infty.
A sweep of more than one family runs one per task of a pool of up to --jobs
threads; a single family, as every hydrostatic sweep is, runs in the
calling thread.  Rows are then sorted deterministically, so
repeated sweeps from the same configuration produce byte-identical CSV files.
Wall-clock timings are reported as zero unless explicitly requested, to keep
the output bytes reproducible.  Next to results.csv, failures.json lists
every point that an exception stopped and every norm that could not be
finalized, with the exception's type and message.
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
from .pairs import NormRow, check_gamma_scan, check_value, families, run_matched_family

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
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if not self.eps_values:
            raise ConfigError("eps_values must be nonempty")
        for name, values in (("eps", self.eps_values), ("delta", self.delta_values),
                             ("gamma", self.gamma_values)):
            for value in values:
                check_value(name, value, self.mode)
        if self.mode == "delta_to_infty" and not self.delta_values:
            raise ConfigError("delta_to_infty needs delta_values")
        if self.mode == "delta_to_infty" and self.base.record_every != 1:
            raise ConfigError(
                "delta_to_infty samples every step; record_every must be 1"
            )
        if self.mode == "gamma_scan":
            if not self.gamma_values:
                raise ConfigError("gamma_scan needs gamma_values")
            if any(g <= 0 for g in self.gamma_values):
                raise ConfigError("gamma values must be > 0")
            for g in self.gamma_values:
                check_gamma_scan(g)
        if self.mode == "eps_delta_to_zero" and self.delta_values and len(
            self.delta_values
        ) != len(self.eps_values):
            raise ConfigError(
                "eps_delta_to_zero pairs eps with delta; lists must match"
            )

    def points(self) -> list[tuple[float, float, float | None]]:
        """(eps, delta, gamma) tuples for every sweep point."""
        if self.mode == "eps_delta_to_zero":
            deltas = self.delta_values or self.eps_values
            return [(e, d, None) for e, d in zip(self.eps_values, deltas)]
        if self.mode == "delta_to_infty":
            return [(e, d, None) for e in self.eps_values for d in self.delta_values]
        return [(e, e ** (g - 2.0), g)
                for g in self.gamma_values for e in self.eps_values]


@dataclass
class SweepResult:
    rows: list[NormRow] = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    blowup_threshold: float = math.inf


def fit_rate(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Ordinary least squares on (log h, log value): (slope, intercept, r2).

    Natural logarithms.  Non-finite or non-positive values count as blown-up
    points and are dropped; at least three usable points are required.
    """
    usable = [(h, v) for h, v in points
              if math.isfinite(v) and v > 0 and math.isfinite(h) and h > 0]
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


def abscissa(mode: str, eps: float, delta: float) -> float:
    """The parameter a rate is fitted against in each sweep mode."""
    if mode == "gamma_scan":
        return eps
    if mode == "delta_to_infty":
        return delta
    return eps + delta


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
    """JSON list of the rows that carry an error (FAILED points and norms
    that could not be finalized), in CSV order; "[]" when there are none."""
    failures = [
        {"mode": r.mode, "eps": r.eps, "delta": r.delta, "gamma": r.gamma,
         "norm_name": r.norm_name, "type": r.error[0], "message": r.error[1]}
        for r in sorted(rows, key=_row_order) if r.error is not None
    ]
    return json.dumps(failures, indent=2) + "\n"


def run_sweep(cfg: SweepConfig, write_plots: bool = False) -> SweepResult:
    """Evaluate every sweep point, fit rates, and persist CSV (and SVG)."""
    pts = cfg.points()
    groups = families(pts, cfg.mode)

    def one(group):
        return run_matched_family([pts[i] for i in group], cfg.base, cfg.mode)

    jobs = min(cfg.jobs, len(groups))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            outcomes = list(ex.map(one, groups))
    else:
        outcomes = [one(group) for group in groups]
    rows_of = dict(zip((i for g in groups for i in g),
                       (rows for family in outcomes for rows in family)))
    result = SweepResult(rows=[row for i in sorted(rows_of) for row in rows_of[i]])

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
        h = abscissa(cfg.mode, r.eps, r.delta)
        by_key.setdefault(key, []).append((h, r.value))
    for key, pts_v in by_key.items():
        if len(pts_v) >= 3:
            try:
                result.fits[key] = fit_rate(pts_v)
            except InsufficientData:
                pass

    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, text in (("results.csv", format_csv(result.rows)),
                           ("failures.json", format_failures(result.rows))):
            path = os.path.join(cfg.out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        if write_plots:
            from .plots import write_loglog_svg

            series = {}
            for r in result.rows:
                if r.norm_name == "FAILED" or not math.isfinite(r.value):
                    continue
                label = r.norm_name + ("" if r.gamma is None else f"[g={r.gamma:g}]")
                series.setdefault(label, []).append(
                    (abscissa(cfg.mode, r.eps, r.delta), r.value))
            write_loglog_svg(os.path.join(cfg.out_dir, "rates.svg"), series,
                             title=cfg.mode)
    return result
