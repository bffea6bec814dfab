"""Matched-pair trajectories and difference-norm assembly.

The convergence experiments never evolve the difference system; both primal
systems run in lockstep from matched initial data (the anisotropic run gets
the diagnostic vertical velocity of the shared horizontal data, so the
initial difference vanishes exactly) and the difference norms are accumulated
from states sampled at identical times.  Time derivatives entering the
maximal-regularity norms are the semi-discrete right-hand sides, not finite
differences.

In the hydrostatic modes the limit system (PE_H) has neither eps nor delta,
so every point of a sweep compares against the same PE_H trajectory.  A
family of points therefore advances one PE_H reference and, in lockstep with
it, one anisotropic run per point.
"""
from __future__ import annotations

import math
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from ..errors import BlowupDetected, InsufficientData
from ..fields import _raw_w_from_v
from ..norms import NormAccumulator, accumulate, finalize
from ..solvers import (
    NavierStokes2DStepper,
    NavierStokesStepper,
    PrimitiveStepper,
    StokesScaledStepper,
    SimConfig,
    _check_blowup,
)
from ..spectral import EVEN, ODD, Grid, SpectralField, _raw_embed_plane, make_grid
from .initial_data import generate_initial_data

HYDROSTATIC_MODES = ("eps_delta_to_zero", "gamma_scan")


@dataclass(frozen=True)
class NormRow:
    """One (parameter point, norm) cell of a sweep."""

    mode: str
    eps: float
    delta: float
    gamma: float | None
    norm_name: str
    value: float
    blowup: bool
    wall_ms: int
    # (exception type, message) of a FAILED row or of a NaN norm
    error: tuple[str, str] | None = None


def _fields(grid: Grid, stack: np.ndarray, parities) -> list[SpectralField]:
    # hot loop: finiteness is guarded by the per-step blowup check
    return [SpectralField._wrap(grid, stack[i], p) for i, p in enumerate(parities)]


def _finalize_rows(mode, eps, delta, gamma, accs, blowup, wall_ms):
    """One row per accumulated norm plus their "total".  A norm that cannot
    be finalized gets a NaN row carrying the reason, and makes the total NaN."""
    rows = []
    total = 0.0
    for name, acc in accs:
        error = None
        try:
            val = finalize(acc)
        except InsufficientData as exc:
            val = float("nan")
            error = (type(exc).__name__, str(exc))
        if name in ("EHdelta", "Ez", "E1_bar_diff", "L4H32_tilde"):
            total += val
        rows.append(
            NormRow(mode, eps, delta, gamma, name, val, blowup, wall_ms, error)
        )
    rows.append(NormRow(mode, eps, delta, gamma, "total", total, blowup, wall_ms))
    return rows


def run_matched_pair(
    point: tuple[float, float],
    base: SimConfig,
    mode: str,
    gamma: float | None = None,
) -> list[NormRow]:
    """Run the matched systems at one (eps, delta) point and return norm rows.

    mode "eps_delta_to_zero" (also used by the gamma scan): anisotropic
    system against the horizontal-viscosity limit; difference pair
    (v_aniso - v_lim, eps (w_aniso - w_lim)) accumulated in the
    delta-weighted maximal-regularity norm and the vertical-regularity norm.

    mode "delta_to_infty": anisotropic system split into barotropic and
    baroclinic parts against 2D Navier-Stokes and the exact scaled Stokes
    flow; accumulates the maximal-regularity norm of the barotropic
    difference and the L4-in-time H^{3/2} norm of the baroclinic part.

    This is a family of one point (see run_matched_family); an error that
    stops the point is raised.
    """
    (out,) = _run_points([(point[0], point[1], gamma)], base, mode)
    if isinstance(out, Exception):
        raise out
    return out


def run_matched_family(
    points: list[tuple[float, float, float | None]],
    base: SimConfig,
    mode: str,
) -> list[list[NormRow]]:
    """Norm rows of every (eps, delta, gamma) point, in the order given.

    In the hydrostatic modes the points share one grid, one set of initial
    data and one PE_H reference trajectory, computed once per step; each
    point advances its own anisotropic run in the calling thread.  The rows
    of a point equal those of run_matched_pair at that point.  A point that
    blows up stops alone; a blowup of the reference stops every point still
    running, all flagged as blown up.  In mode "delta_to_infty" the
    reference depends on delta, so the points share nothing and run one
    after another.

    A point stopped by an error gets a single FAILED row, which carries the
    exception's type and message, instead of raising, so one bad point does
    not lose the others.
    """
    return [
        [NormRow(mode, pt[0], pt[1], pt[2], "FAILED", float("nan"), True, 0,
                 (type(out).__name__, str(out)))]
        if isinstance(out, Exception) else out
        for pt, out in zip(points, _run_points(points, base, mode))
    ]


def _run_points(points, base: SimConfig, mode: str) -> list:
    """Rows of every point, or the exception that stopped it."""
    if mode in HYDROSTATIC_MODES:
        return _hydrostatic_family(points, base, mode)
    if mode == "delta_to_infty":
        out = []
        for pt in points:
            try:
                out.append(_large_delta_pair(pt, base, mode))
            except Exception as exc:  # reported as the point's outcome
                out.append(exc)
        return out
    raise ValueError(f"unknown mode {mode!r}")


class _HydrostaticMember:
    """One anisotropic run of a hydrostatic family and its difference norms."""

    def __init__(self, point: tuple[float, float, float | None]):
        self.eps, self.delta, self.gamma = point
        self.running = True
        self.blowup = False
        self.error: Exception | None = None

    @contextmanager
    def guard(self):
        """Stop this member alone when its own work blows up or raises."""
        try:
            yield
        except BlowupDetected:
            self.stop(blowup=True)
        except Exception as exc:  # reported as this member's outcome
            self.stop(error=exc)

    def stop(self, blowup: bool = False, error: Exception | None = None) -> None:
        self.running = False
        self.blowup = blowup
        self.error = error

    def start(self, base: SimConfig, grid: Grid, data) -> None:
        # the point must be a valid simulation setup on its own
        replace(base, eps=self.eps, delta=self.delta, gamma=None)
        eps = self.eps
        self.ns = NavierStokesStepper(grid, eps, self.delta, base.dt)
        self.U = np.stack((data.v1.coeffs, data.v2.coeffs, eps * data.w.coeffs))
        self.accs = {
            "EHdelta": NormAccumulator("EHdelta", delta=self.delta),
            "Ez": NormAccumulator("Ez"),
            "EH": NormAccumulator("EHdelta", delta=0.0),
        }
        self.t_prev = None

    def sample(self, grid: Grid, t: float, ref) -> np.ndarray:
        """Fold the difference at time t into the norms; return N(U)."""
        V, w, rhs_pe, dw = ref
        U, eps = self.U, self.eps
        N_ns = self.ns.nonlinear(U)
        rhs_ns = self.ns.rhs(U, N_ns)
        diff = np.stack((U[0] - V[0], U[1] - V[1], U[2] - eps * w))
        ddiff = np.stack(
            (rhs_ns[0] - rhs_pe[0], rhs_ns[1] - rhs_pe[1], rhs_ns[2] - eps * dw)
        )
        df = _fields(grid, diff, (EVEN, EVEN, ODD))
        ddf = _fields(grid, ddiff, (EVEN, EVEN, ODD))
        inc = None if self.t_prev is None else t - self.t_prev
        for key in self.accs:
            self.accs[key] = accumulate(self.accs[key], df, ddf, inc)
        self.t_prev = t
        return N_ns

    def advance(self, grid: Grid, N_ns: np.ndarray | None, t_next: float) -> None:
        if N_ns is None:
            self.U = self.ns.step(self.U)
        else:
            self.U = self.ns.advance(self.U, N_ns)
        _check_blowup(grid, self.U, t_next)

    def rows(self, mode: str, wall_ms: int) -> list[NormRow]:
        return _finalize_rows(
            mode, self.eps, self.delta, self.gamma, list(self.accs.items()),
            self.blowup, wall_ms,
        )


def _hydrostatic_family(points, base: SimConfig, mode: str) -> list:
    t0 = _time.perf_counter()
    members = [_HydrostaticMember(pt) for pt in points]
    try:
        grid = make_grid(base.nx, base.ny, base.nz)
        data = generate_initial_data(base.recipe, base.seed, grid)
        dt = base.dt
        n_steps = base.n_steps
        pe = PrimitiveStepper(grid, 0.0, dt)
        V = np.stack((data.v1.coeffs, data.v2.coeffs))
        for m in members:
            with m.guard():
                m.start(base, grid, data)
        for n in range(n_steps + 1):
            t = n * dt
            record = n % base.record_every == 0 or n == n_steps
            N_pe = pe.nonlinear(V)
            if record:
                rhs_pe = pe.rhs(V, N_pe)
                ref = (V, _raw_w_from_v(grid, V), rhs_pe, _raw_w_from_v(grid, rhs_pe))
            for m in members:
                if not m.running:
                    continue
                with m.guard():
                    N_ns = m.sample(grid, t, ref) if record else None
                    if n < n_steps:
                        m.advance(grid, N_ns, t + dt)
            if n == n_steps or not any(m.running for m in members):
                break
            V = pe.advance(V, N_pe)
            _check_blowup(grid, V, t + dt)
    except BlowupDetected:
        for m in members:
            if m.running:
                m.stop(blowup=True)
    except Exception as exc:  # fails every member still running
        for m in members:
            if m.running:
                m.stop(error=exc)
    wall = int(1000 * (_time.perf_counter() - t0))
    return [m.error if m.error is not None else m.rows(mode, wall) for m in members]


def _large_delta_pair(point, base: SimConfig, mode: str) -> list[NormRow]:
    eps, delta, gamma = point
    replace(base, eps=eps, delta=delta, gamma=None)  # a valid setup on its own
    t0 = _time.perf_counter()
    grid = make_grid(base.nx, base.ny, base.nz)
    data = generate_initial_data(base.recipe, base.seed, grid)
    dt = base.dt
    segments = _stiff_segments(base.t_end, dt, delta)

    U = np.stack((data.v1.coeffs, data.v2.coeffs, eps * data.w.coeffs))
    B = U[:2, :, :, 0].copy()  # barotropic plane, stepped by NS2D
    # baroclinic (vtilde, w), exact Stokes comparison flow
    S = np.stack((U[0], U[1], data.w.coeffs))
    S[:2, :, :, 0] = 0.0

    accs = {
        "E1_bar_diff": NormAccumulator("EHdelta", delta=1.0),
        "L4H32_tilde": NormAccumulator("L4H32"),
        "L4H32_tilde_stokes": NormAccumulator("L4H32"),
    }
    blowup = False
    t_prev = None
    t = 0.0

    def sample(inc, N_ns, N_2d):
        rhs_ns = ns.rhs(U, N_ns)
        rhs_2d = ns2d.rhs(B, N_2d)
        bar_diff = _raw_embed_plane(grid, U[:2, :, :, 0] - B)
        dbar_diff = _raw_embed_plane(grid, rhs_ns[:2, :, :, 0] - rhs_2d)
        tilde = U.copy()
        tilde[0, :, :, 0] = 0.0
        tilde[1, :, :, 0] = 0.0
        tilde[2] = _raw_w_from_v(grid, U[:2])  # physical w
        accs["E1_bar_diff"] = accumulate(
            accs["E1_bar_diff"],
            _fields(grid, bar_diff, (EVEN, EVEN)),
            _fields(grid, dbar_diff, (EVEN, EVEN)),
            inc,
        )
        accs["L4H32_tilde"] = accumulate(
            accs["L4H32_tilde"], _fields(grid, tilde, (EVEN, EVEN, ODD)),
            None, inc,
        )
        accs["L4H32_tilde_stokes"] = accumulate(
            accs["L4H32_tilde_stokes"], _fields(grid, S, (EVEN, EVEN, ODD)),
            None, inc,
        )

    try:
        for seg_dt, seg_steps in segments:
            ns = NavierStokesStepper(grid, eps, delta, seg_dt)
            ns2d = NavierStokes2DStepper(grid, seg_dt)
            stokes = StokesScaledStepper(grid, delta, seg_dt)
            for _ in range(seg_steps):
                N_ns = ns.nonlinear(U)
                N_2d = ns2d.nonlinear(B)
                sample(None if t_prev is None else t - t_prev, N_ns, N_2d)
                t_prev = t
                U = ns.advance(U, N_ns)
                B = ns2d.advance(B, N_2d)
                S = stokes.advance(S)
                t += seg_dt
                _check_blowup(grid, U, t)
        sample(t - t_prev, ns.nonlinear(U), ns2d.nonlinear(B))
    except BlowupDetected:
        blowup = True
    wall = int(1000 * (_time.perf_counter() - t0))
    return _finalize_rows(mode, eps, delta, gamma, list(accs.items()), blowup, wall)


def _stiff_segments(T: float, dt: float, delta: float) -> list[tuple[float, int]]:
    """Step schedule resolving the fastest baroclinic decay rate.

    The slowest vertically mean-free mode decays at rate delta pi^2, so the
    fourth-power time integrand varies at 4 delta pi^2; the trapezoid rule
    needs steps below ~0.5 of that scale to see the decay at all.  A short
    fine phase until the baroclinic energy is gone (14 e-foldings), then the
    requested dt.
    """
    rate = 4.0 * delta * math.pi**2
    dt_fine = 0.5 / rate if rate > 0 else dt
    n_total = int(round(T / dt))
    if dt_fine >= dt or n_total < 1:
        return [(dt, n_total)]
    m = min(n_total, max(1, math.ceil(14.0 / rate / dt)))
    t1 = m * dt
    n1 = math.ceil(t1 / dt_fine)
    return [(t1 / n1, n1), (dt, n_total - m)]
