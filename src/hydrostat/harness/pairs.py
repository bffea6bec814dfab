"""Matched-pair trajectories and difference-norm assembly.

The convergence experiments never evolve the difference system; both primal
systems run in lockstep from matched initial data (the anisotropic run gets
the diagnostic vertical velocity of the shared horizontal data, so the
initial difference vanishes exactly) and the difference norms are accumulated
from states sampled at identical times.  Time derivatives entering the
maximal-regularity norms are the semi-discrete right-hand sides, not finite
differences.

Points that share their reference lanes form a family, which builds one
grid and one set of initial data and runs the references and one
anisotropic run per point in lockstep.  In the hydrostatic modes the limit
system (PE_H) has neither eps nor delta, so all points share one PE_H
reference.  In mode delta_to_infty the barotropic plane is compared with
NS2D and the baroclinic part with the exact Stokes flow on the schedule of
_stiff_segments, none of which depends on eps: the points at one delta share
both comparison runs.  Every rule that depends on the mode, from the lists a
sweep reads to the norms its total sums, is the mode's entry of MODES.
_run_points alone groups points into families; it runs distinct families on
a pool of up to jobs threads (a single one in the calling thread), and warns
once per call.

The lanes run in solvers.run_lanes, the time loop of run_simulation too.  In
every mode a family's references step first and store their samples; each
member's observer then folds its own norms on the band of its stepper
(st.grid), outside which every state is zero.  A reference's failure stops
every run it serves before they read that step's sample, so a point's rows
equal those of its lone run.
"""
from __future__ import annotations

import math
import time as _time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

from ..errors import BlowupDetected, ConfigError, InsufficientData, InvalidParameter
from ..fields import _raw_with_w
from ..norms import Energies, NormAccumulator, accumulate, finalize
from ..solvers import Lane, SimConfig, run_lanes, system_lane, tied_delta, warn_cfl
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


def check_gamma_scan(gamma: float) -> None:
    """Reject a gamma_scan gamma whose limit is not PE_H.

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
    (out,) = _run_points([(point[0], point[1], gamma)], base, mode, 1)
    if isinstance(out, Exception):
        raise out
    return out


def run_matched_family(
    points: list[tuple[float, float, float | None]],
    base: SimConfig,
    mode: str,
    jobs: int = 1,
) -> list[list[NormRow]]:
    """Norm rows of every (eps, delta, gamma) point, in the order given.

    The points that share their reference lanes run as one family, which
    steps its references once per step, before its members: all points in
    the hydrostatic modes share one PE_H reference, the points at one delta
    in mode "delta_to_infty" their NS2D and Stokes runs.  Distinct families
    run one per task on a pool of up to jobs (>= 1, or ConfigError) threads,
    a single one in the calling thread.  A point's rows equal those of
    run_matched_pair at that point, with its family's wall time as wall_ms.
    A point that blows up stops alone; a blowup of a reference stops every
    point of its family still running, all flagged as blown up.  One
    RuntimeWarning per call names the largest advective CFL number of any
    run above solvers.CFL_LIMIT, and its point (or its reference's delta).

    A point stopped by an error gets a single FAILED row, which carries the
    exception's type and message, instead of raising, so one bad point does
    not lose the others.  So does an invalid point (_check_point), such as
    a gamma_scan point without gamma or with gamma <= 2 (check_gamma_scan).
    """
    return [
        [NormRow(mode, pt[0], pt[1], pt[2], "FAILED", float("nan"), True, 0,
                 (type(out).__name__, str(out)))]
        if isinstance(out, Exception) else out
        for pt, out in zip(points, _run_points(points, base, mode, jobs))
    ]


def _run_points(points, base: SimConfig, mode: str, jobs: int) -> list:
    """Each point's rows or the exception that stopped it.  The one place
    that groups points into families (MODES[mode].key) and runs them on a
    pool; warn_cfl sees the lanes of every family."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    families: dict = {}
    for i, pt in enumerate(points):
        families.setdefault(MODES[mode].key(pt), []).append(i)
    run = lambda family: _run_family([points[i] for i in family], base, mode)
    jobs = min(jobs, len(families))
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as ex:
            done = list(ex.map(run, families.values()))
    else:
        done = list(map(run, families.values()))
    warn_cfl([lane for _, lanes in done for lane in lanes])
    out = {i: got for family, (outcomes, _) in zip(families.values(), done)
           for i, got in zip(family, outcomes)}
    return [out[i] for i in range(len(points))]


def check_value(name: str, value: float | None, mode: str) -> None:
    """Raise ConfigError naming a value that no point of the mode can run
    with: a missing value the mode needs, one that is not finite, one of
    the mode's positive values that is not > 0, or a gamma outside the
    mode's regime (MODES)."""
    spec = MODES[mode]
    if value is None:
        raise ConfigError(f"a {mode} point needs its {name}")
    if not math.isfinite(value):
        raise ConfigError(f"{name}={value!r} is not finite")
    if name in spec.positive and not value > 0:
        raise ConfigError(f"{name}={value!r} must be > 0 in {mode}")
    if name == "gamma" and spec.gamma is not None:
        spec.gamma(value)


def _check_point(point, base: SimConfig, mode: str) -> None:
    """Raise unless the point, with its gamma, is valid on its own."""
    eps, delta, gamma = point
    spec = MODES[mode]
    for name, value in zip(("eps", "delta", "gamma"), point):
        if value is not None or name in spec.needs:
            check_value(name, value, mode)
    if spec.every_step and base.record_every != 1:
        raise InvalidParameter(f"{mode} samples every step; record_every="
                               f"{base.record_every} would be ignored")
    replace(base, eps=eps, delta=delta, gamma=gamma)


class _Norms(dict):
    """A point's norm accumulators by name."""

    def fold(self, name: str, t: float, sample: Energies) -> None:
        self[name] = accumulate(self[name], sample, t)


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
        self.norms = _Norms(accs)
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
        rows, values = [], {}
        for name, acc in self.norms.items():
            try:
                values[name], error = finalize(acc), None
            except InsufficientData as exc:
                values[name], error = float("nan"), (type(exc).__name__, str(exc))
            rows.append(row(name, values[name], error=error))
        return rows + [row("total", sum(values[name] for name in MODES[mode].total))]


def _run_family(points, base: SimConfig, mode: str) -> tuple[list, list[Lane]]:
    """The outcome of every point of one family, and the family's lanes."""
    t0 = _time.perf_counter()
    spec = MODES[mode]
    outcomes = []
    for pt in points:
        try:
            _check_point(pt, base, mode)
            outcomes.append(_Member(pt))
        except Exception as exc:  # reported as this point's outcome
            outcomes.append(exc)
    if not any(isinstance(m, _Member) for m in outcomes):
        return outcomes, []  # no valid point: no reference lane to run
    try:
        grid = make_grid(base.nx, base.ny, base.nz)
        data = generate_initial_data(base.recipe, base.seed, grid)
        family, schedule = spec.lanes(data, base, spec.key(points[0]),
                                 [m for m in outcomes if isinstance(m, _Member)])
    except Exception as exc:  # fails every valid point
        return [exc if isinstance(m, _Member) else m for m in outcomes], []
    del data  # the lanes hold band arrays and the grid
    run_lanes(family, schedule, grid.kmax, base.record_every)
    wall = int(1000 * (_time.perf_counter() - t0))
    return [m.outcome(mode, wall) if isinstance(m, _Member) else m
            for m in outcomes], family


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
    the NS2D run of the barotropic plane and the Stokes flow of the
    baroclinic part first, whose samples every member's observer reads."""
    ref = {}

    def sample_2d(st, t, B, N):
        # B is on grid.plane, the kz=0 plane of the band
        ref["2d"] = (B, st.rhs(B, N))

    def sample_stokes(st, t, S, N):
        ref["stokes"] = Energies.of(st.grid, _raw_with_w(st.grid, S))

    def sample_member(norms, st, t, U, N):
        # the barotropic planes of the state and its time derivative
        B, rhs_2d = ref["2d"]
        norms.fold("E1_bar_diff", t, Energies.of(
            st.grid, _raw_embed_plane(st.grid, U[..., 0] - B),
            _raw_embed_plane(st.grid, st.rhs(U, N)[..., 0] - rhs_2d)))
        tilde = U.copy()
        tilde[..., 0] = 0.0
        # (vtilde, w) with the physical w, which vtilde determines
        norms.fold("L4H32_tilde", t, Energies.of(st.grid, _raw_with_w(st.grid, tilde)))
        norms.fold("L4H32_tilde_stokes", t, ref["stokes"])

    for m in members:
        m.start(data, sample_member,
                E1_bar_diff=NormAccumulator("EHdelta", delta=1.0),
                L4H32_tilde=NormAccumulator("L4H32"),
                L4H32_tilde_stokes=NormAccumulator("L4H32"))
    # eps enters neither comparison run
    ns2d = system_lane("NS2D", data, 1.0, delta, observe=sample_2d,
                       reference=True, label=f"NS2D reference, delta={delta:g}")
    stokes = system_lane("StokesScaled", data, 1.0, delta, observe=sample_stokes,
                         reference=True, label=f"Stokes reference, delta={delta:g}")
    stokes.U[..., 0] = 0.0  # the baroclinic (vtilde, w(vtilde))
    return ([ns2d, stokes, *(m.lane for m in members)],
            _stiff_segments(base.t_end, base.dt, delta))


@dataclass(frozen=True)
class Mode:
    """Everything that depends on a sweep mode.

    lanes(data, base, key, members) builds a family's lanes and schedule;
    key(point) is what the points of one family share (_run_points).  A sweep
    reads the *_values lists named in lists, needs those in needs, and
    makes its points with points(eps_values, delta_values, gamma_values).
    Its rates are fitted against abscissa(eps, delta).  A point's values
    named in positive must be > 0, gamma(g) raises for a gamma outside the
    mode's regime, and every_step asks for record_every == 1 (_check_point).
    A point's "total" row sums the norms named in total, in that order.
    """

    lanes: Callable
    key: Callable
    lists: tuple[str, ...]
    needs: tuple[str, ...]
    points: Callable
    abscissa: Callable
    positive: tuple[str, ...]
    total: tuple[str, ...]
    gamma: Callable | None = None
    every_step: bool = False


def _paired(eps_values, delta_values, gamma_values):
    """eps_delta_to_zero's points: eps paired with delta, delta = eps by default."""
    if delta_values and len(delta_values) != len(eps_values):
        raise ConfigError("eps_delta_to_zero pairs eps with delta; lists must match")
    return [(e, d, None) for e, d in zip(eps_values, delta_values or eps_values)]


MODES = {
    # eps -> 0 with delta paired to it, against PE_H
    "eps_delta_to_zero": Mode(
        lanes=_pe_h_lanes, key=lambda pt: None,
        lists=("eps", "delta"), needs=("eps",), points=_paired,
        abscissa=lambda eps, delta: eps + delta, positive=("eps",),
        total=("EHdelta", "Ez")),
    # delta -> inf, against NS2D and the Stokes flow; its rates are fitted
    # against log delta, so delta > 0
    "delta_to_infty": Mode(
        lanes=_large_delta_lanes, key=lambda pt: pt[1],
        lists=("eps", "delta"), needs=("eps", "delta"),
        points=lambda E, D, G: [(e, d, None) for e in E for d in D],
        abscissa=lambda eps, delta: delta, positive=("eps", "delta"),
        total=("E1_bar_diff", "L4H32_tilde"), every_step=True),
    # eps -> 0 with delta = eps^(gamma-2), gamma > 2, against PE_H
    "gamma_scan": Mode(
        lanes=_pe_h_lanes, key=lambda pt: None,
        lists=("eps", "gamma"), needs=("eps", "gamma"),
        points=lambda E, D, G: [(e, tied_delta(e, g), g) for g in G for e in E],
        abscissa=lambda eps, delta: eps, positive=("eps",),
        total=("EHdelta", "Ez"), gamma=check_gamma_scan),
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
