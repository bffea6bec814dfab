"""Matched-pair trajectories and difference-norm assembly.

The convergence experiments never evolve the difference system; both primal
systems run in lockstep from matched initial data (the anisotropic run gets
the diagnostic vertical velocity of the shared horizontal data, so the
initial difference vanishes exactly) and the difference norms are accumulated
from states sampled at identical times.  Time derivatives entering the
maximal-regularity norms are the semi-discrete right-hand sides, not finite
differences.

Points that share their reference lanes form a family (families), which
builds one grid and one set of initial data and runs the references and one
anisotropic run per point in lockstep.  In the hydrostatic modes the limit
system (PE_H) has neither eps nor delta, so all points share one PE_H
reference.  In mode delta_to_infty the barotropic plane is compared with
NS2D and the baroclinic part with the exact Stokes flow on the schedule of
_stiff_segments, none of which depends on eps: the points at one delta share
both comparison runs.

The lanes run in solvers.run_lanes, the time loop of run_simulation too;
the observers here fold the sampled differences into the norms on the band
of the lane's stepper (st.grid), outside which every state is zero.  A
comparison lane is a reference lane: its failure stops every run it serves,
and only runs still running read or receive its samples, so a point's rows
equal those of its lone run.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace
from functools import partial

from ..errors import BlowupDetected, ConfigError, InsufficientData, InvalidParameter
from ..fields import _raw_with_w
from ..norms import Energies, NormAccumulator, accumulate, finalize
from ..solvers import Lane, SimConfig, run_lanes, system_lane, warn_cfl
from ..spectral import _raw_embed_plane, make_grid
from .initial_data import generate_initial_data


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


def check_gamma_scan(gamma: float | None) -> None:
    """Reject a gamma_scan point without gamma, or whose limit is not PE_H.

    With nu_z = eps^gamma the anisotropic system tends to PE_H only for
    gamma > 2; gamma = 2 tends to the primitive equations with full
    viscosity and gamma < 2 to 2D Navier-Stokes, so a comparison with PE_H
    there measures a difference that does not vanish.
    """
    if gamma is None:
        raise ConfigError("a gamma_scan point needs its gamma")
    if gamma > 2.0:
        return
    regime = ("the primitive equations with full viscosity" if gamma == 2.0
              else "2D Navier-Stokes")
    raise ConfigError(
        f"gamma_scan compares with PE_H, the limit for gamma > 2; at "
        f"gamma = {gamma:g} the limit is {regime}"
    )


def run_matched_pair(
    point: tuple[float, float],
    base: SimConfig,
    mode: str,
    gamma: float | None = None,
) -> list[NormRow]:
    """Run the matched systems at one (eps, delta) point and return norm rows.

    The hydrostatic modes compare the anisotropic system with the
    horizontal-viscosity limit: (v_aniso - v_lim, eps (w_aniso - w_lim)) in
    the delta-weighted maximal-regularity norm and the vertical-regularity
    norm.  mode "delta_to_infty" compares its barotropic part with 2D
    Navier-Stokes in the maximal-regularity norm, and its baroclinic part
    with the exact scaled Stokes flow in the L4-in-time H^{3/2} norm.

    This is a family of one point (see run_matched_family); an error that
    stops the point, or makes it invalid, is raised.
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

    The points that share their reference lanes run as one family
    (families), which steps each reference once per step, in the calling
    thread: all points in the hydrostatic modes share one PE_H reference,
    the points at one delta in mode "delta_to_infty" their NS2D and Stokes
    runs.  A point's rows equal those of run_matched_pair at that point,
    with the family's wall time as wall_ms.  A point that blows up stops
    alone; a blowup of a reference stops every point of its family still
    running, all flagged as blown up.  One RuntimeWarning names the largest
    advective CFL number of any run above solvers.CFL_LIMIT, and its point
    (or its reference's delta).

    A point stopped by an error gets a single FAILED row, which carries the
    exception's type and message, instead of raising, so one bad point does
    not lose the others.  So does an invalid point (_check_point), such as
    a gamma_scan point without gamma or with gamma <= 2 (check_gamma_scan).
    """
    return [
        [NormRow(mode, pt[0], pt[1], pt[2], "FAILED", float("nan"), True, 0,
                 (type(out).__name__, str(out)))]
        if isinstance(out, Exception) else out
        for pt, out in zip(points, _run_points(points, base, mode))
    ]


def families(points, mode: str) -> list[list[int]]:
    """Indices of the points grouped by the reference lanes they share, in order."""
    if mode not in _LIMITS:
        raise ValueError(f"unknown mode {mode!r}")
    key = _LIMITS[mode][1]
    groups: dict = {}
    for i, pt in enumerate(points):
        groups.setdefault(key(pt), []).append(i)
    return list(groups.values())


def _run_points(points, base: SimConfig, mode: str) -> list:
    """Each point's rows or the exception that stopped it; warns once (warn_cfl)."""
    lanes: list[Lane] = []
    out = {}
    for family in families(points, mode):
        got = _run_family([points[i] for i in family], base, mode, lanes)
        out.update(zip(family, got))
    warn_cfl(lanes)
    return [out[i] for i in range(len(points))]


def check_value(name: str, value: float, mode: str) -> None:
    """Raise ConfigError naming a value that no point of the mode can run
    with: one that is not finite, an eps <= 0, or a delta <= 0 in
    delta_to_infty, whose rate is fitted against log delta."""
    if not math.isfinite(value):
        raise ConfigError(f"{name}={value!r} is not finite")
    if (name == "eps" or (name, mode) == ("delta", "delta_to_infty")) and not value > 0:
        raise ConfigError(f"{name}={value!r} must be > 0 in {mode}")


def _check_point(point, base: SimConfig, mode: str) -> None:
    """Raise unless the point, with its gamma, is valid on its own."""
    eps, delta, gamma = point
    for name, value in zip(("eps", "delta", "gamma"), point):
        if value is not None:
            check_value(name, value, mode)
    if mode == "gamma_scan":
        check_gamma_scan(gamma)
    if mode == "delta_to_infty" and base.record_every != 1:
        raise InvalidParameter(f"delta_to_infty samples every step; record_every="
                               f"{base.record_every} would be ignored")
    replace(base, eps=eps, delta=delta, gamma=gamma)


class _Norms(dict):
    """A point's norm accumulators by name, each with its last sample time."""

    def fold(self, name: str, t: float, sample: Energies) -> None:
        acc, t_prev = self[name]
        inc = None if t_prev is None else t - t_prev
        self[name] = (accumulate(acc, sample, None, inc), t)


@dataclass(eq=False)
class _Member:
    """A valid point of a family: its anisotropic run and its norms."""

    point: tuple[float, float, float | None]
    lane: Lane | None = None
    norms: _Norms | None = None

    def start(self, data, observe, **accs) -> None:
        """Set up the norms, and the run that observe(norms, st, t, U, N)
        samples.  The observer holds the norms, not the member, so no
        reference cycle keeps the family's arrays alive after its run."""
        eps, delta, _ = self.point
        self.norms = _Norms((name, (acc, None)) for name, acc in accs.items())
        self.lane = system_lane("NS_eps_delta", data, eps, delta,
                                observe=partial(observe, self.norms),
                                label=f"eps={eps:g}, delta={delta:g}")

    def outcome(self, mode: str, wall_ms: int):
        """The exception that stopped the run, or the point's rows: one per
        norm plus their "total", flagged as blown up when a blowup stopped
        the run.  A norm that cannot be finalized gets a NaN row carrying
        the reason, and makes the total NaN."""
        failure = self.lane.failure
        if failure is not None and not isinstance(failure, BlowupDetected):
            return failure
        row = partial(NormRow, mode, *self.point, blowup=failure is not None,
                      wall_ms=wall_ms)
        rows, total = [], 0.0
        for name, (acc, _) in self.norms.items():
            try:
                val, error = finalize(acc), None
            except InsufficientData as exc:
                val, error = float("nan"), (type(exc).__name__, str(exc))
            if name in ("EHdelta", "Ez", "E1_bar_diff", "L4H32_tilde"):
                total += val
            rows.append(row(name, val, error=error))
        return rows + [row("total", total)]


def _run_family(points, base: SimConfig, mode: str, lanes: list) -> list:
    """The outcome of every point of one family; adds its lanes to lanes."""
    t0 = _time.perf_counter()
    build, key = _LIMITS[mode]
    outcomes = []
    for pt in points:
        try:
            _check_point(pt, base, mode)
            outcomes.append(_Member(pt))
        except Exception as exc:  # reported as this point's outcome
            outcomes.append(exc)
    if not any(isinstance(m, _Member) for m in outcomes):
        return outcomes  # no valid point: no reference lane to run
    try:
        grid = make_grid(base.nx, base.ny, base.nz)
        data = generate_initial_data(base.recipe, base.seed, grid)
        family, schedule = build(data, base, key(points[0]),
                                 [m for m in outcomes if isinstance(m, _Member)])
    except Exception as exc:  # fails every valid point
        return [exc if isinstance(m, _Member) else m for m in outcomes]
    del data  # the lanes hold band arrays and the grid
    lanes += family
    run_lanes(family, schedule, grid.kmax, base.record_every)
    wall = int(1000 * (_time.perf_counter() - t0))
    return [m.outcome(mode, wall) if isinstance(m, _Member) else m
            for m in outcomes]


def _pe_h_lanes(data, base: SimConfig, key, members: list[_Member]):
    """A hydrostatic family's lanes in stepping order, and its schedule: the
    PE_H reference first, whose sample every member's observer reads."""
    ref = {}

    def sample_reference(st, t, V, N):
        ref["now"] = (V, st.rhs(V, N))

    def sample_member(eps, norms, st, t, U, N):
        # every norm of the point reads the difference (d, eps w(d)) of the
        # pairs and of their time derivatives through one Energies
        V, rhs_pe = ref["now"]
        d, dr = U - V, st.rhs(U, N) - rhs_pe
        sample = Energies.of(st.grid, _raw_with_w(st.grid, d, eps),
                             _raw_with_w(st.grid, dr, eps))
        for name in norms:
            norms.fold(name, t, sample)

    for m in members:
        m.start(data, partial(sample_member, m.point[0]),
                EHdelta=NormAccumulator("EHdelta", delta=m.point[1]),
                Ez=NormAccumulator("Ez"), EH=NormAccumulator("EHdelta", delta=0.0))
    reference = system_lane("PE_H", data, 1.0, 0.0, observe=sample_reference,
                            reference=True, label="PE_H reference")
    return [reference, *(m.lane for m in members)], [(base.dt, base.n_steps)]


def _large_delta_lanes(data, base: SimConfig, delta: float, members: list[_Member]):
    """A delta_to_infty family's lanes in stepping order, and its schedule:
    the members, then the NS2D run of the barotropic plane and the Stokes
    flow of the baroclinic part, which fold into every running member's norms."""
    band = data.grid.band
    bar = {}

    def sample_ns(k, norms, st, t, U, N):
        # the barotropic planes of the state and its time derivative
        bar[k] = (U[..., 0].copy(), st.rhs(U, N)[..., 0].copy())
        tilde = U.copy()
        tilde[..., 0] = 0.0
        # (vtilde, w) with the physical w, which vtilde determines
        norms.fold("L4H32_tilde", t, Energies.of(st.grid, _raw_with_w(st.grid, tilde)))

    def sample_2d(st, t, B, N):
        # B is on grid.plane, the kz=0 plane of the band
        rhs = st.rhs(B, N)
        for k, m in enumerate(members):
            if m.lane.running:
                U_bar, rhs_bar = bar[k]
                m.norms.fold("E1_bar_diff", t, Energies.of(
                    band, _raw_embed_plane(band, U_bar - B),
                    _raw_embed_plane(band, rhs_bar - rhs)))

    def sample_stokes(st, t, S, N):
        sample = Energies.of(st.grid, _raw_with_w(st.grid, S))
        for m in filter(lambda m: m.lane.running, members):
            m.norms.fold("L4H32_tilde_stokes", t, sample)

    for k, m in enumerate(members):
        m.start(data, partial(sample_ns, k),
                E1_bar_diff=NormAccumulator("EHdelta", delta=1.0),
                L4H32_tilde=NormAccumulator("L4H32"),
                L4H32_tilde_stokes=NormAccumulator("L4H32"))
    # eps enters neither comparison run
    ns2d = system_lane("NS2D", data, 1.0, delta, observe=sample_2d,
                       reference=True, label=f"NS2D reference, delta={delta:g}")
    stokes = system_lane("StokesScaled", data, 1.0, delta, observe=sample_stokes,
                         reference=True, label=f"Stokes reference, delta={delta:g}")
    stokes.U[..., 0] = 0.0  # the baroclinic (vtilde, w(vtilde))
    return ([*(m.lane for m in members), ns2d, stokes],
            _stiff_segments(base.t_end, base.dt, delta))


# mode -> (the builder of a family's lanes, the key its points share)
_LIMITS = {
    "eps_delta_to_zero": (_pe_h_lanes, lambda pt: None),
    "gamma_scan": (_pe_h_lanes, lambda pt: None),
    "delta_to_infty": (_large_delta_lanes, lambda pt: pt[1]),
}


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
