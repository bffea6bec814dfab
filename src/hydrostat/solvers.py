"""Time integration of the five equation families on the periodic box.

Systems
-------
NS_eps_delta   rescaled anisotropic Navier-Stokes in the scaled variables
               (v, eps*w), whose scaled Leray projection of the nonlinear
               term stays uniformly conditioned as eps -> 0
PE_delta       primitive equations with anisotropic viscosity (vertical
               velocity diagnostic); PE_H is the delta = 0 case
NS2D           two-dimensional Navier-Stokes on the horizontal square,
               stepped on the kz=0 plane of the grid's band (Grid.plane)
StokesScaled   linear scaled Stokes flow on vertically mean-free data,
               integrated exactly per mode

Scheme: the diffusion is diagonal in Fourier space, so the linear part is
propagated by its exact exponential (integrating factor); the dealiased
advection is extrapolated with a 2-step Adams-Bashforth rule (plain Euler on
the first step).  The scheme is second order in dt, has no splitting error
for pure heat modes, and damps stiff vertical modes monotonically for large
delta, which a trapezoidal implicit step would not.

The advection is computed in divergence form, sum_j d_j (u_i u_j), by
the one advection kernel (fields._raw_advect).  That equals (u . grad) u_i
only because every stepper's advecting velocity is divergence-free: w is
recovered from div_H v at kz != 0, and the projections hold div_H of the
vertical average (and of the NS2D plane) at zero.

Every stepper holds its state on the band of its grid (Grid.band, a
layout like every other, spectral.Grid): only the modes that the 2/3
dealias mask keeps, so the mask is structural and no step multiplies by
it.  The nonlinear term comes back from the forward transform already
restricted to the band.  The lattice-size arrays of a
nonlinear evaluation live in the band's workspace (spectral.Workspace), on
the band of a cube and on the NS2D plane (Grid.plane) alike; every stepper
on a band shares it, so the steppers of one band run on one thread.  What
a step returns (the nonlinear term, the new state, the AB2 history) is a
new band-size array that holds only the state's components: never a view
of the workspace, nor of a larger array.

Every 3D stepper steps the horizontal pair (v1, v2): w, the odd
antiderivative of -div_H v (fields._raw_w_from_v), is diagnostic and is
recovered where it is read (fields._raw_with_w lifts a pair to (v, s*w)).
There is one hydrostatic projection, fields._raw_project_hydro, applied in
place to the kz=0 plane of a fresh array (_ExpAB2.constrain): it holds
div_H of the vertical average (and of the NS2D plane) at zero.  Every step
ends with it, a Fourier-diagonal projection that commutes with the
propagator, so it only removes rounding drift.  The base class's nonlinear
term, the advection negated and constrained, is that of PE and NS2D; NS
applies its scaled Leray projection (fields._raw_project_eps) to its
nonlinear term instead.

Parity needs no pass: a stepper that declares parities transforms its
velocity in parity pairs (_ExpAB2._phys) and gets its nonlinear term back
exactly in the parity class of its state, and every later operation of a
step (the propagator and the other real multipliers, even in (kx, ky), the
AB2 sums and the constraint projections) keeps that class bit for bit.
The kz=0 plane of the 2D stepper is even in z by construction.

SYSTEMS maps each system name to its stepper class, which also packs a
VelocityState into the stepper's state array and back (_ExpAB2.pack and
unpack): the one place where the band layout of the steppers meets the
kz >= 0 layout of the fields.
run_lanes is the one time loop, the only code that advances a stepper: it
advances a set of lanes (a state and its stepper) in lockstep through a step
schedule, samples them through observers and checks each for blowup.
run_simulation and the checks of harness.verify drive it with one lane; the
matched-pair runs of harness.pairs drive it with their anisotropic runs and,
as reference lanes, the limit-system runs those are compared with.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import BlowupDetected, CompatibilityError, InvalidParameter
from .fields import (
    VELOCITY_PARITIES,
    VelocityState,
    _raw_advect,
    _raw_project_eps,
    _raw_project_hydro,
    _raw_w_from_v,
    _raw_with_w,
)
from .harness.initial_data import RECIPES, generate_initial_data
from .spectral import (
    Grid,
    SpectralField,
    _lap_delta_mult,
    _raw_embed_plane,
    _raw_inner,
    _raw_to_phys,
    _raw_wsum,
    _to_band,
    check_grid_sizes,
    make_grid,
)

BLOWUP_NORM_LIMIT = 1e8
CFL_LIMIT = 0.5


def tied_delta(eps: float, gamma: float) -> float:
    """delta = eps**(gamma - 2) > 0, the vertical-viscosity ratio that gamma
    ties to eps > 0; InvalidParameter, naming both, when it overflows or
    underflows to 0."""
    try:
        delta = eps ** (gamma - 2.0)
    except OverflowError:
        delta = np.inf
    if not 0.0 < delta < np.inf:
        raise InvalidParameter(
            f"delta = eps**(gamma-2) leaves the float range at eps={eps:g}, "
            f"gamma={gamma:g}"
        )
    return delta


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup: system selector, grid, parameters, time stepping.

    When gamma is given the vertical-viscosity ratio is tied to eps through
    delta = eps**(gamma - 2); supplying an inconsistent explicit delta is an
    error.  So is a parameter that the system never reads: an eps other
    than 1 for any system but NS_eps_delta, and a nonzero delta, given or
    tied to eps, for PE_H and NS2D.  So are an unknown recipe, a negative
    seed and grid sizes that make_grid rejects.
    """

    system: str
    nx: int
    ny: int
    nz: int
    dt: float
    t_end: float
    eps: float = 1.0
    delta: float | None = None
    gamma: float | None = None
    recipe: str = "bandlimited_random"
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise InvalidParameter(f"unknown system {self.system!r}")
        check_grid_sizes(self.nx, self.ny, self.nz)
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise InvalidParameter("need 0 < dt <= t_end")
        steps = self.t_end / self.dt
        if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise InvalidParameter(
                f"t_end={self.t_end} is not a whole number of dt={self.dt} steps"
            )
        for name in ("eps", "delta", "gamma"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise InvalidParameter(f"{name} must be finite, got {value}")
        if self.eps <= 0:
            raise InvalidParameter(f"eps must be > 0, got {self.eps}")
        if self.eps != 1.0 and self.system != "NS_eps_delta":
            raise InvalidParameter(f"{self.system} reads no eps; eps={self.eps} "
                                   f"would be ignored")
        if self.record_every < 1:
            raise InvalidParameter("record_every must be >= 1")
        if self.recipe not in RECIPES:
            raise InvalidParameter(f"unknown initial-data recipe {self.recipe!r}")
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")
        delta = self.delta
        if self.gamma is not None:
            if self.gamma <= 0:
                raise InvalidParameter(f"gamma must be > 0, got {self.gamma}")
            derived = tied_delta(self.eps, self.gamma)
            if delta is None:
                delta = derived
            elif abs(delta - derived) > 1e-12 * max(1.0, derived):
                raise InvalidParameter(
                    f"delta={delta} inconsistent with eps**(gamma-2)={derived}"
                )
        if delta is None:
            delta = 0.0
        if delta < 0:
            raise InvalidParameter(f"delta must be >= 0, got {delta}")
        if self.system in ("PE_H", "NS2D") and delta != 0.0:
            raise InvalidParameter(f"{self.system} has no vertical viscosity; "
                                   f"delta={delta:g} would be ignored")
        object.__setattr__(self, "delta", float(delta))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class TrajectoryRecord:
    """Recorded norms along one simulation plus the final state."""

    times: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    final_state: VelocityState | None = None
    blowup_flag: bool = False
    blowup_time: float | None = None
    blowup_reason: str = ""


def _check_blowup(grid: Grid, U: np.ndarray, t: float) -> None:
    # the common path is one reduction: max(weight) |U|^2 >= |U|^2_L2, so a bound
    # under half the limit passes the exact check below (NaN and inf never do)
    if np.vdot(U, U).real * grid.parseval_weight.max() <= 0.5 * BLOWUP_NORM_LIMIT**2:
        return
    if not np.all(np.isfinite(U)):
        raise BlowupDetected(t, "non-finite coefficients")
    l2 = np.sqrt(_raw_inner(grid, U, U))
    if l2 > BLOWUP_NORM_LIMIT:
        raise BlowupDetected(t, f"L2 norm {l2:.3e} exceeds {BLOWUP_NORM_LIMIT:.0e}")


def _pack(s: VelocityState) -> np.ndarray:
    """The horizontal pair of a 3D state on its grid's band, an array of its
    own.  Its w would be replaced by w(v), so a w that differs from w(v) by
    more than rounding (1e-12 of the largest coefficient) is an error."""
    U = _to_band(s.grid, s.grid.band, (s.v1.coeffs, s.v2.coeffs, s.w.coeffs))
    gap = float(np.max(np.abs(U[2] - _raw_w_from_v(s.grid.band, U[:2])), initial=0.0))
    if gap > 1e-12 * float(np.max(np.abs(U), initial=0.0)):
        raise CompatibilityError(f"state's w is not the w(v) of its horizontal "
                                 f"pair: |w - w(v)| = {gap:.3e}", gap)
    return U[:2].copy()


def _with_w(g: Grid, V: np.ndarray) -> tuple:
    """(v1, v2, w) on g of a horizontal pair on its band, w recovered from
    incompressibility."""
    return tuple(g.band.scatter(_raw_with_w(g.band, V)))


def _pack_plane(s: VelocityState) -> np.ndarray:
    """The kz=0 planes of (v1, v2) on the grid's plane, an array of its own
    (a gather leaves its result a view of a larger array)."""
    planes = (s.v1.coeffs[:, :, 0], s.v2.coeffs[:, :, 0])
    return _to_band(s.grid, s.grid.plane, planes).copy()


def _unpack_plane(g: Grid, B: np.ndarray) -> tuple:
    """(v1, v2, w) on g of a pair on its plane: z-independent, w = 0."""
    return (*_raw_embed_plane(g, g.plane.scatter(B)),
            np.zeros(g.spec_shape, np.complex128))


def _require_mean_free(s: VelocityState, what: str) -> None:
    m = float(np.max(np.abs(np.stack((s.v1.coeffs, s.v2.coeffs))[..., 0])))
    if m > 1e-12:
        raise CompatibilityError(f"{what} is not vertically mean-free: {m:.3e}", m)


def _warn_off_plane(s: VelocityState, what: str) -> None:
    """NS2D steps the kz=0 plane of (v1, v2), their vertical average, and
    drops the rest of a state: one RuntimeWarning, naming the share of the
    energy dropped, when that is more than rounding (1e-12 of the largest
    coefficient)."""
    U = np.stack([f.coeffs for f in s.components()])
    off = U.copy()
    off[:2, ..., 0] = 0.0
    if np.max(np.abs(off)) > 1e-12 * np.max(np.abs(U)):
        share = _raw_inner(s.grid, off, off) / _raw_inner(s.grid, U, U)
        warnings.warn(
            f"{what} has {100 * share:.3g}% of its energy off the kz=0 plane of "
            f"(v1, v2); NS2D steps only that plane, the vertical average of the "
            f"data, and drops the rest", RuntimeWarning,
        )


class _ExpAB2:
    """Integrating-factor stepper with AB2 extrapolation of the nonlinearity.

    Each subclass is one system, an entry of SYSTEMS, built as
    cls(grid, eps, delta, dt); eps is read by NS alone.  What differs
    between the systems is in class attributes:

    layout(grid)              the layout of the state, self.grid: grid.band
                              (grid.plane for NS2D)
    eigenvalues(band, delta)  the diagonal linear part on it, self.lam
    pack(state)               the state array of a VelocityState: an array
                              of its own, C-contiguous, of the stepped
                              components only; CompatibilityError for a
                              state the stepper could not hold (content
                              outside the band, or in 3D a w that is not w(v))
    unpack(grid, U)           the (v1, v2, w) coefficients of a state array
                              in the kz >= 0 layout of grid
    check(state, what)        checks the data of a run (run_simulation): it
                              raises for a broken precondition and warns of
                              data that the system reads only in part
    parities                  of the state's components; NS2D declares none
    w_scale                   the weight of a 3D state's w(v) in its norms
                              (None: the pair alone)

    A 3D stepper's state is the horizontal pair (v1, v2) on grid.band.
    nonlinear(V) is the projected nonlinear term: the advection of the
    state's velocity, negated and constrained in place.  NS overrides it
    with its scaled projection, Stokes with zero.  advance ends with
    constrain, the projection of the kz=0 plane (for NS2D, of its plane).
    """

    layout = staticmethod(lambda grid: grid.band)
    eigenvalues = staticmethod(_lap_delta_mult)
    pack = staticmethod(_pack)
    unpack = staticmethod(_with_w)
    check = staticmethod(lambda state, what: None)
    parities: tuple[str, ...] = VELOCITY_PARITIES[:2]
    w_scale: float | None = None

    def __init__(self, grid: Grid, eps: float, delta: float, dt: float):
        self.grid = band = self.layout(grid)
        self.eps = eps
        self.dt = dt
        self.lam = self.eigenvalues(band, delta)
        self.propagator = np.exp(self.lam * dt)
        self._n_prev: np.ndarray | None = None
        self.last_umax = 0.0

    def rhs(self, U: np.ndarray, N: np.ndarray | None = None) -> np.ndarray:
        """Semi-discrete time derivative at the state U."""
        if N is None:
            N = self.nonlinear(U)
        return self.lam * U + N

    def advance(self, U: np.ndarray, N: np.ndarray) -> np.ndarray:
        if self._n_prev is None:
            B = U + self.dt * N
        else:
            B = U + self.dt * (1.5 * N - 0.5 * self.propagator * self._n_prev)
        self._n_prev = N
        return self.constrain(self.propagator * B)

    def nonlinear(self, V: np.ndarray) -> np.ndarray:
        N = _raw_advect(self.grid, self._phys(V), (1.0, 1.0),
                        VELOCITY_PARITIES if self.parities else None)
        np.negative(N, out=N)
        return self.constrain(N)

    def constrain(self, V: np.ndarray) -> np.ndarray:
        """Project the fresh array V (a state or a term) in place."""
        _raw_project_hydro(self.grid, V[..., 0])
        return V

    def _phys(self, V: np.ndarray) -> Sequence[np.ndarray]:
        """Lattice values of the velocity of the state V, in the band's
        workspace, valid until the next transform on the band; last_umax
        becomes their max |u|.

        With parities the velocity is (v1, v2, w(v)), v even and w odd in
        z.  One transform carries h = v1 + w into slot 1 and v2 into slot 2,
        and h splits exactly on the lattice into its even and odd parts,
        (h + Rh)/2 and (h - Rh)/2, in slots 3 and 4: R, the reflection
        z -> -z, maps plane j to plane (nz - j) mod nz.  Without parities
        the components fill the top slots.  _raw_advect forms its products
        around them.
        """
        ws = self.grid.workspace
        if self.parities:
            w = _raw_w_from_v(self.grid, V)
            h, u1 = _raw_to_phys(self.grid, np.stack((V[0] + w, V[1])), out=ws.real[1:3])
            u0, u2 = ws.real[3:5]
            u2[..., 0], u2[..., 1:] = h[..., 0], h[..., :0:-1]  # Rh
            np.add(h, u2, out=u0)
            np.subtract(h, u2, out=u2)
            u0 *= 0.5
            u2 *= 0.5
            u = (u0, u1, u2)
        else:
            u = _raw_to_phys(self.grid, V, out=ws.real[len(ws.real) - len(V):])
        # max |u| without a lattice-size temporary
        self.last_umax = max(max(float(a.max()), -float(a.min())) for a in u)
        return u


class NavierStokesStepper(_ExpAB2):
    """Rescaled anisotropic system in the scaled variables (v, eps*w),
    stepped on the horizontal pair.

    w = w(v) comes from incompressibility, so no 1/eps division appears.
    The nonlinear term is the horizontal part of the scaled Leray
    projection of -(div(v (x) u), eps div(w u)), u = (v, w(v)).
    """

    w_scale = property(lambda self: self.eps)

    def nonlinear(self, V: np.ndarray) -> np.ndarray:
        N = _raw_advect(self.grid, self._phys(V), (1.0, 1.0, self.eps),
                        VELOCITY_PARITIES)
        np.negative(N, out=N)
        return _raw_project_eps(self.grid, N, self.eps, out=np.empty_like(N[:2]))


class PrimitiveStepper(_ExpAB2):
    """Hydrostatic limit systems: prognostic horizontal pair, diagnostic w."""


class NavierStokes2DStepper(_ExpAB2):
    """2D Navier-Stokes on the kz=0 coefficient plane of a grid.

    The state is the horizontal pair on grid.plane, the kz=0 plane of the
    grid's band, shape (2, 2K+1, 2K+1); self.grid is that 2D layout.  It has
    no vertical viscosity, so it reads no delta.
    """

    layout = staticmethod(lambda grid: grid.plane)
    eigenvalues = staticmethod(lambda plane, delta: -plane.k2h)
    pack = staticmethod(_pack_plane)
    unpack = staticmethod(_unpack_plane)
    check = staticmethod(_warn_off_plane)
    parities = ()

    def constrain(self, V: np.ndarray) -> np.ndarray:
        return _raw_project_hydro(self.grid, V)


class StokesScaledStepper(_ExpAB2):
    """Exact per-mode exponential flow of the scaled Stokes semigroup.

    The propagator is one scalar per mode, so the w(v) of the flowed pair
    is the flowed w: the state (v1, v2) stands for (v, w(v))."""

    check = staticmethod(_require_mean_free)
    w_scale = 1.0

    def nonlinear(self, V: np.ndarray) -> np.ndarray:
        return np.zeros_like(V)

    def advance(self, V: np.ndarray, N: np.ndarray) -> np.ndarray:
        return self.constrain(self.propagator * V)


SYSTEMS: dict[str, type[_ExpAB2]] = {
    "NS_eps_delta": NavierStokesStepper,
    "PE_delta": PrimitiveStepper,
    "PE_H": PrimitiveStepper,
    "NS2D": NavierStokes2DStepper,
    "StokesScaled": StokesScaledStepper,
}


# ---------------------------------------------------------------------------
# the time loop
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Lane:
    """One trajectory of a lockstep run (see run_lanes).

    make(dt) builds the lane's stepper for a step size.  observe(stepper, t,
    U, N) sees the state at every recorded instant together with the
    nonlinear term its step computed; N is None at the final instant, where
    no step follows.  A reference lane serves the others: its failure stops
    every lane, and it stops once no other lane is running.  A lane that
    stops keeps the exception that stopped it in failure (None when it was
    stopped for having no one left to serve).
    """

    make: Callable[[float], _ExpAB2]
    U: np.ndarray
    observe: Callable[..., None] = lambda st, t, U, N: None
    reference: bool = False
    label: str = ""
    running: bool = True
    failure: Exception | None = None
    cfl: float = 0.0
    cfl_t: float = 0.0

    def stop(self, failure: Exception | None) -> None:
        if self.running:
            self.running, self.failure = False, failure


def system_lane(
    system: str, state: VelocityState, eps: float, delta: float, **kw
) -> Lane:
    """A lane of the named entry of SYSTEMS, starting from state."""
    cls = SYSTEMS[system]
    return Lane(partial(cls, state.grid, eps, delta), cls.pack(state), **kw)


def _fail(lanes: list[Lane], lane: Lane, exc: Exception) -> None:
    for other in lanes if lane.reference else (lane,):
        other.stop(exc)
    if not any(other.running for other in lanes if not other.reference):
        for other in lanes:
            other.stop(None)


def run_lanes(
    lanes: list[Lane],
    schedule: Sequence[tuple[float, int]],
    kmax: float,
    record_every: int = 1,
) -> None:
    """Advance every lane in lockstep through the step schedule [(dt, n), ...].

    Each segment of the schedule builds fresh steppers, so the nonlinearity
    restarts with an Euler step there.  The j-th step of a segment that
    starts at t0 starts at t = t0 + j dt.  On step n each running lane in
    turn computes its nonlinear term, is observed when n % record_every
    == 0, advances, and has its new state checked for blowup.  The run
    ends early once no lane other than a reference is running.  The final
    instant is always observed.  Each lane tracks its largest advective
    CFL number dt max|u| kmax, and where it occurred.
    """
    t0, n = 0.0, 0
    steppers: list[_ExpAB2] = []
    for dt, steps in schedule:
        steppers = [lane.make(dt) for lane in lanes]
        for j in range(steps):
            if not any(lane.running for lane in lanes if not lane.reference):
                return
            t = t0 + j * dt
            for lane, st in zip(lanes, steppers):
                if not lane.running:
                    continue
                try:
                    N = st.nonlinear(lane.U)
                    if n % record_every == 0:
                        lane.observe(st, t, lane.U, N)
                    lane.U = st.advance(lane.U, N)
                    # last_umax is max |u| of the state at t, which the step advected
                    cfl = dt * st.last_umax * kmax
                    if cfl > lane.cfl:
                        lane.cfl, lane.cfl_t = cfl, t
                    _check_blowup(st.grid, lane.U, t0 + (j + 1) * dt)
                except Exception as exc:  # the lane's outcome
                    _fail(lanes, lane, exc)
            n += 1
        t0 += steps * dt
    for lane, st in zip(lanes, steppers):
        if lane.running:
            try:
                lane.observe(st, t0, lane.U, None)
            except Exception as exc:  # the lane's outcome
                _fail(lanes, lane, exc)


def warn_cfl(lanes: Sequence[Lane]) -> None:
    """One warning naming the largest CFL number of the lanes, if it
    exceeds CFL_LIMIT."""
    top = max(lanes, key=lambda lane: lane.cfl, default=None)
    if top is not None and top.cfl > CFL_LIMIT:
        where = f"t={top.cfl_t:.6g}" + (f", {top.label}" if top.label else "")
        warnings.warn(
            f"largest advective CFL number {top.cfl:.2f} (at {where}) "
            f"exceeds {CFL_LIMIT}; results may be underresolved in time",
            RuntimeWarning,
        )


# ---------------------------------------------------------------------------
# full trajectories
# ---------------------------------------------------------------------------

def _l2_h1(grid: Grid, U: np.ndarray) -> tuple[float, float]:
    e = np.sum(np.abs(U) ** 2, axis=0)
    l2 = float(np.sqrt(_raw_wsum(grid, e)))
    h1 = float(np.sqrt(_raw_wsum(grid, (1.0 + grid.ksq) * e)))
    return l2, h1


def run_simulation(cfg: SimConfig) -> TrajectoryRecord:
    """Integrate cfg.system from its recipe data over (0, t_end).

    Norm samples are recorded every record_every steps (always including the
    initial and final instants).  On blowup the record carries the last
    finite samples and the blowup flag/time instead of raising.
    """
    rec = TrajectoryRecord(samples={"l2": [], "h1": []})

    def record(st: _ExpAB2, t: float, U: np.ndarray, N) -> None:
        if st.w_scale is not None:
            U = _raw_with_w(st.grid, U, st.w_scale)
        l2, h1 = _l2_h1(st.grid, U)  # the band of the grid, or its plane
        rec.times.append(t)
        rec.samples["l2"].append(l2)
        rec.samples["h1"].append(h1)

    system = SYSTEMS[cfg.system]
    grid = make_grid(cfg.nx, cfg.ny, cfg.nz)
    data = generate_initial_data(cfg.recipe, cfg.seed, grid)
    lane = system_lane(cfg.system, data, cfg.eps, cfg.delta, observe=record)
    system.check(data, f"recipe {cfg.recipe!r} data")
    del data  # the lane holds a band array and the grid
    run_lanes([lane], [(cfg.dt, cfg.n_steps)], grid.kmax, cfg.record_every)
    if isinstance(lane.failure, BlowupDetected):
        rec.blowup_flag = True
        rec.blowup_time = lane.failure.time
        rec.blowup_reason = lane.failure.reason
    elif lane.failure is not None:
        raise lane.failure
    else:
        comps = system.unpack(grid, lane.U)
        rec.final_state = VelocityState(
            *(SpectralField(grid, c, p) for c, p in zip(comps, VELOCITY_PARITIES)),
            time=cfg.n_steps * cfg.dt,
        )
    warn_cfl([lane])
    return rec
