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
it, one anisotropic run per point.  In mode delta_to_infty a point runs the
anisotropic system, its barotropic plane under NS2D and its baroclinic part
under the exact Stokes flow, with the step schedule of _stiff_segments.

Every run is a set of lanes driven by solvers.run_lanes, the time loop that
run_simulation uses too; what is left here are the observers that fold the
sampled differences into the norms.  An observer sees a lane's state on its
stepper's band (st.grid), and the norms are summed there: outside the band
every state is zero.  A comparison lane (PE_H, NS2D, Stokes)
is a reference lane: its failure stops every run it serves.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..errors import BlowupDetected, ConfigError, InsufficientData, InvalidParameter
from ..fields import _raw_w_from_v
from ..norms import Energies, NormAccumulator, accumulate, finalize
from ..solvers import Lane, SimConfig, run_lanes, system_lane, warn_cfl
from ..spectral import EVEN, ODD, Band, SpectralField, _raw_embed_plane, make_grid
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


def check_gamma_scan(gamma: float) -> None:
    """Reject a gamma_scan point whose limit is not PE_H.

    With nu_z = eps^gamma the anisotropic system tends to PE_H only for
    gamma > 2; gamma = 2 tends to the primitive equations with full
    viscosity and gamma < 2 to 2D Navier-Stokes, so a comparison with PE_H
    there measures a difference that does not vanish.
    """
    if gamma > 2.0:
        return
    regime = ("the primitive equations with full viscosity" if gamma == 2.0
              else "2D Navier-Stokes")
    raise ConfigError(
        f"gamma_scan compares with PE_H, the limit for gamma > 2; at "
        f"gamma = {gamma:g} the limit is {regime}"
    )


def _fields(grid: Band, stack: np.ndarray, parities) -> list[SpectralField]:
    # hot loop: finiteness is guarded by the per-step blowup check
    return [SpectralField._wrap(grid, stack[i], p) for i, p in enumerate(parities)]


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
    after another; a blowup of any of a point's three runs flags all its
    rows.  When the largest advective CFL number of any run exceeds
    solvers.CFL_LIMIT, one RuntimeWarning names it and its point.

    A point stopped by an error gets a single FAILED row, which carries the
    exception's type and message, instead of raising, so one bad point does
    not lose the others.  So does a gamma_scan point with gamma <= 2
    (check_gamma_scan).
    """
    return [
        [NormRow(mode, pt[0], pt[1], pt[2], "FAILED", float("nan"), True, 0,
                 (type(out).__name__, str(out)))]
        if isinstance(out, Exception) else out
        for pt, out in zip(points, _run_points(points, base, mode))
    ]


def _run_points(points, base: SimConfig, mode: str) -> list:
    """Rows of every point, or the exception that stopped it; warns once if
    the largest CFL number of any of their runs exceeds the limit."""
    lanes: list[Lane] = []
    if mode in HYDROSTATIC_MODES:
        out = _hydrostatic_family(points, base, mode, lanes)
    elif mode == "delta_to_infty":
        out = []
        for pt in points:
            try:
                out.append(_large_delta_pair(pt, base, mode, lanes))
            except Exception as exc:  # reported as the point's outcome
                out.append(exc)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    warn_cfl(lanes)
    return out


class _Norms(dict):
    """A point's norm accumulators by name, each with its last sample time."""

    def __init__(self, **accs):
        super().__init__((name, (acc, None)) for name, acc in accs.items())

    def fold(self, name: str, t: float, u, du=None) -> None:
        acc, t_prev = self[name]
        inc = None if t_prev is None else t - t_prev
        self[name] = (accumulate(acc, u, du, inc), t)


def _outcome(lane: Lane, norms: _Norms, point, mode: str, wall_ms: int):
    """The exception that stopped a point's run, or the point's rows: one
    per accumulated norm plus their "total", flagged as blown up when a
    blowup stopped the run.  A norm that cannot be finalized gets a NaN row
    carrying the reason, and makes the total NaN."""
    if lane.failure is not None and not isinstance(lane.failure, BlowupDetected):
        return lane.failure
    row = partial(NormRow, mode, *point, blowup=lane.failure is not None,
                  wall_ms=wall_ms)
    rows = []
    total = 0.0
    for name, (acc, _) in norms.items():
        error = None
        try:
            val = finalize(acc)
        except InsufficientData as exc:
            val = float("nan")
            error = (type(exc).__name__, str(exc))
        if name in ("EHdelta", "Ez", "E1_bar_diff", "L4H32_tilde"):
            total += val
        rows.append(row(name, val, error=error))
    rows.append(row("total", total))
    return rows


def _hydrostatic_family(points, base: SimConfig, mode: str, lanes: list) -> list:
    t0 = _time.perf_counter()
    ref = {}

    def sample_reference(st, t, V, N):
        rhs = st.rhs(V, N)
        ref["now"] = (V, _raw_w_from_v(st.grid, V), rhs, _raw_w_from_v(st.grid, rhs))

    def sample_member(eps, norms, st, t, U, N):
        """Fold the difference at time t into the point's norms, which all
        read it through one Energies."""
        V, w, rhs_pe, dw = ref["now"]
        rhs_ns = st.rhs(U, N)
        sample = Energies.of(
            st.grid,
            (U[0] - V[0], U[1] - V[1], U[2] - eps * w),
            (rhs_ns[0] - rhs_pe[0], rhs_ns[1] - rhs_pe[1], rhs_ns[2] - eps * dw),
        )
        for name in norms:
            norms.fold(name, t, sample)

    try:
        grid = make_grid(base.nx, base.ny, base.nz)
        data = generate_initial_data(base.recipe, base.seed, grid)
        family = [system_lane("PE_H", data, 1.0, 0.0, observe=sample_reference,
                              reference=True, label="PE_H reference")]
    except Exception as exc:  # fails every point
        return [exc] * len(points)
    members = []
    for eps, delta, gamma in points:
        norms = _Norms(EHdelta=NormAccumulator("EHdelta", delta=delta),
                       Ez=NormAccumulator("Ez"),
                       EH=NormAccumulator("EHdelta", delta=0.0))
        try:
            # the point must be a valid simulation setup on its own
            replace(base, eps=eps, delta=delta, gamma=None)
            if mode == "gamma_scan":
                check_gamma_scan(gamma)
            lane = system_lane("NS_eps_delta", data, eps, delta,
                               observe=partial(sample_member, eps, norms),
                               label=f"eps={eps:g}, delta={delta:g}")
        except Exception as exc:  # reported as this point's outcome
            members.append(exc)
            continue
        family.append(lane)
        members.append((lane, norms, (eps, delta, gamma)))
    lanes += family
    run_lanes(family, [(base.dt, base.n_steps)], grid.kmax, base.record_every)
    wall = int(1000 * (_time.perf_counter() - t0))
    return [m if isinstance(m, Exception) else _outcome(*m, mode, wall)
            for m in members]


def _large_delta_pair(point, base: SimConfig, mode: str, lanes: list):
    """The rows of a delta_to_infty point, or the exception that stopped it;
    an invalid point raises."""
    eps, delta, gamma = point
    if base.record_every != 1:
        raise InvalidParameter(
            f"delta_to_infty samples every step; record_every={base.record_every}"
            " would be ignored"
        )
    replace(base, eps=eps, delta=delta, gamma=None)  # a valid setup on its own
    t0 = _time.perf_counter()
    grid = make_grid(base.nx, base.ny, base.nz)
    data = generate_initial_data(base.recipe, base.seed, grid)
    band = grid.band
    norms = _Norms(E1_bar_diff=NormAccumulator("EHdelta", delta=1.0),
                   L4H32_tilde=NormAccumulator("L4H32"),
                   L4H32_tilde_stokes=NormAccumulator("L4H32"))
    bar = {}

    def sample_ns(st, t, U, N):
        # the barotropic planes of the state and its time derivative
        bar["now"] = (U[:2, :, :, 0].copy(), st.rhs(U, N)[:2, :, :, 0].copy())
        tilde = U.copy()
        tilde[:2, :, :, 0] = 0.0
        tilde[2] = _raw_w_from_v(st.grid, U[:2])  # physical w
        norms.fold("L4H32_tilde", t, _fields(st.grid, tilde, (EVEN, EVEN, ODD)))

    def sample_2d(st, t, B, N):
        # B is on the band of the plane, which is the kz=0 plane of the band
        U_bar, rhs_bar = bar["now"]
        norms.fold(
            "E1_bar_diff", t,
            _fields(band, _raw_embed_plane(band, U_bar - B), (EVEN, EVEN)),
            _fields(band, _raw_embed_plane(band, rhs_bar - st.rhs(B, N)),
                    (EVEN, EVEN)),
        )

    def sample_stokes(st, t, S, N):
        norms.fold("L4H32_tilde_stokes", t, _fields(st.grid, S, (EVEN, EVEN, ODD)))

    where = f"eps={eps:g}, delta={delta:g}"
    pair = [
        system_lane("NS_eps_delta", data, eps, delta, observe=sample_ns,
                    label=where),
        # the barotropic plane, stepped by NS2D
        system_lane("NS2D", data, eps, delta, observe=sample_2d,
                    reference=True, label=where),
        # the baroclinic (vtilde, w), exact Stokes comparison flow
        system_lane("StokesScaled", data, eps, delta, observe=sample_stokes,
                    reference=True, label=where),
    ]
    pair[2].U[:2, :, :, 0] = 0.0
    lanes += pair
    run_lanes(pair, _stiff_segments(base.t_end, base.dt, delta), grid.kmax)
    wall = int(1000 * (_time.perf_counter() - t0))
    return _outcome(pair[0], norms, point, mode, wall)


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
