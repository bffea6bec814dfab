"""Sweep orchestration over (eps, delta) or gamma, rate regression, CSV output.

A sweep is one run_matched_family call over its points, at its jobs.
Rows are sorted deterministically, so repeated sweeps from the same
configuration produce byte-identical CSV files, at any jobs.
Wall-clock timings are reported as zero unless explicitly requested, to keep
the output bytes reproducible.  Next to results.csv, failures.json lists
every point that an exception stopped and every norm that could not be
finalized, with the exception's type and message.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError, FormatError, InsufficientData, InvalidParameter
from ..solvers import SimConfig
from .pairs import MODES, NormRow, _check_point, check_value, run_matched_family

CSV_HEADER = "mode,eps,delta,gamma,norm_name,value,blowup,wall_ms"


@dataclass(frozen=True)
class SweepConfig:
    """Sweep setup: mode, parameter lists, shared simulation template.

    The template is an NS_eps_delta setup; each point sets its own eps,
    delta and gamma.  The mode (pairs.MODES) names the lists it reads and
    needs and makes the points, each checked as run_matched_family checks
    it; a list that the mode does not read, or a point made twice, is an
    error."""

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
        if self.base.system != "NS_eps_delta":
            raise ConfigError(f"a sweep runs NS_eps_delta against its limits, "
                              f"not system = {self.base.system}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        spec = MODES[self.mode]
        for name in ("eps", "delta", "gamma"):
            values = getattr(self, f"{name}_values")
            if values and name not in spec.lists:
                raise ConfigError(f"{self.mode} reads no {name}_values, got {values}")
            if not values and name in spec.needs:
                raise ConfigError(f"{self.mode} needs {name}_values")
            for value in values:  # before any point is made from it
                check_value(name, value, self.mode)
        try:
            points = self.points()
            for i, point in enumerate(points):
                _check_point(point, self.base, self.mode)
                if point in points[:i]:
                    raise ConfigError(f"(eps, delta, gamma) = {point} is repeated")
        except InvalidParameter as exc:
            raise ConfigError(str(exc)) from None

    def points(self) -> list[tuple[float, float, float | None]]:
        """(eps, delta, gamma) tuples for every sweep point."""
        return MODES[self.mode].points(self.eps_values, self.delta_values,
                                       self.gamma_values)


@dataclass
class SweepResult:
    rows: list[NormRow] = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    blowup_threshold: float = math.inf


def fit_rate(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Ordinary least squares on (log h, log value): (slope, intercept, r2).

    Natural logarithms.  Non-finite or non-positive values count as blown-up
    points and are dropped; at least three usable points, at two or more
    abscissae, are required.
    """
    usable = [(h, v) for h, v in points
              if math.isfinite(v) and v > 0 and math.isfinite(h) and h > 0]
    if len(usable) < 3:
        raise InsufficientData(f"need >= 3 finite positive points, have {len(usable)}")
    x = np.log([h for h, _ in usable])
    if np.all(x == x[0]):  # not sxx == 0: the rounded mean can leave it tiny
        raise InsufficientData(f"all {len(usable)} points are at one abscissa")
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


def rate_groups(rows) -> dict:
    """The (abscissa, value) points of every rate that rows of one mode give:
    by norm name, or by (gamma, norm name) for rows with a gamma, against
    the mode's abscissa (pairs.MODES).  FAILED and blown-up rows are left out."""
    groups: dict = {}
    for r in rows:
        if r.norm_name == "FAILED" or r.blowup:
            continue
        key = r.norm_name if r.gamma is None else (r.gamma, r.norm_name)
        groups.setdefault(key, []).append((MODES[r.mode].abscissa(r.eps, r.delta),
                                           r.value))
    return groups


def _row_order(r: NormRow):
    return (r.gamma if r.gamma is not None else -1.0, r.eps, r.delta, r.norm_name)


def format_csv(rows: list[NormRow]) -> str:
    """Deterministic CSV text: sorted rows, '.' decimals, LF endings."""
    num = lambda x: "" if x is None else format(x, ".17g")
    return "\n".join([CSV_HEADER] + [
        ",".join((r.mode, num(r.eps), num(r.delta), num(r.gamma), r.norm_name,
                  num(r.value), "1" if r.blowup else "0", str(r.wall_ms)))
        for r in sorted(rows, key=_row_order)
    ]) + "\n"


def format_failures(rows: list[NormRow]) -> str:
    """JSON list of the rows that carry an error (FAILED points and norms
    that could not be finalized), in CSV order; "[]" when there are none."""
    failures = [
        {"mode": r.mode, "eps": r.eps, "delta": r.delta, "gamma": r.gamma,
         "norm_name": r.norm_name, "type": r.error[0], "message": r.error[1]}
        for r in sorted(rows, key=_row_order) if r.error is not None
    ]
    return json.dumps(failures, indent=2) + "\n"


def parse_csv(text: str) -> list[NormRow]:
    """The rows of results.csv text (format_csv), without their errors.

    FormatError for text without the sweep's header, a row that does not
    parse, or rows of an unknown mode or of more than one mode."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise FormatError(f"not a sweep CSV: its header is not {CSV_HEADER}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            mode, eps, delta, gamma, name, value, blowup, wall_ms = line.split(",")
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
            rows.append(NormRow(mode, float(eps), float(delta),
                                float(gamma) if gamma else None, name, float(value),
                                blowup == "1", int(wall_ms)))
        except ValueError as exc:
            raise FormatError(f"line {n}: {exc}") from None
    if len({r.mode for r in rows}) > 1:
        raise FormatError(f"rows of more than one mode: {sorted({r.mode for r in rows})}")
    return rows


def run_sweep(cfg: SweepConfig, write_plots: bool = False) -> SweepResult:
    """Evaluate every sweep point, fit rates, and persist CSV (and SVG)."""
    family = run_matched_family(cfg.points(), cfg.base, cfg.mode, cfg.jobs)
    result = SweepResult(rows=[row for rows in family for row in rows])

    if not cfg.timing:
        result.rows = [replace(r, wall_ms=0) for r in result.rows]

    # observed blowup threshold: smallest fit abscissa of the points that blew
    # up; a FAILED row is flagged too, but an exception stopped its point
    blowups = {(r.eps, r.delta) for r in result.rows
               if r.blowup and r.norm_name != "FAILED"}
    if blowups:
        result.blowup_threshold = min(MODES[cfg.mode].abscissa(*p) for p in blowups)

    groups = rate_groups(result.rows)
    for key, points in groups.items():
        try:
            result.fits[key] = fit_rate(points)
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

            series = {key if isinstance(key, str) else f"{key[1]}[g={key[0]:g}]":
                      points for key, points in groups.items()}
            write_loglog_svg(os.path.join(cfg.out_dir, "rates.svg"), series,
                             title=cfg.mode)
    return result
