"""Time integration of the five equation families on the periodic box.

Systems
-------
NS_eps_delta   rescaled anisotropic Navier-Stokes; integrated in the scaled
               variables (v, eps*w) so that the scaled Leray projection and
               the divergence constraint stay uniformly conditioned as
               eps -> 0
PE_delta       primitive equations with anisotropic viscosity (vertical
               velocity diagnostic); PE_H is the delta = 0 case
NS2D           two-dimensional Navier-Stokes on the horizontal square,
               stepped on the kz=0 coefficient plane (spectral.Plane)
StokesScaled   linear scaled Stokes flow on vertically mean-free data,
               integrated exactly per mode

Scheme: the diffusion is diagonal in Fourier space, so the linear part is
propagated by its exact exponential (integrating factor); the dealiased
advection is extrapolated with a 2-step Adams-Bashforth rule (plain Euler on
the first step).  The scheme is second order in dt, has no splitting error
for pure heat modes, and damps stiff vertical modes monotonically for large
delta, which a trapezoidal implicit step would not.

Every step re-enforces parity and the system's divergence constraint; both
are Fourier-diagonal projections that commute with the propagator, so this
only removes rounding drift.  The kz=0 plane is even in z by construction,
so the 2D stepper has no parity pass.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BlowupDetected, CompatibilityError, InvalidParameter
from .fields import (
    VelocityState,
    _raw_advect,
    _raw_divH_bar_defect,
    _raw_div_eps_defect,
    _raw_project_eps,
    _raw_project_hydro,
    _raw_project_hydro_plane,
    _raw_w_from_v,
)
from .spectral import (
    EVEN,
    ODD,
    Grid,
    Plane,
    SpectralField,
    _lap_delta_mult,
    _raw_embed_plane,
    _raw_inner,
    _raw_parity_project,
    _raw_to_phys,
    make_grid,
)

SYSTEMS = ("NS_eps_delta", "PE_delta", "PE_H", "NS2D", "StokesScaled")

BLOWUP_NORM_LIMIT = 1e8
CFL_LIMIT = 0.5


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup: system selector, grid, parameters, time stepping.

    When gamma is given the vertical-viscosity ratio is tied to eps through
    delta = eps**(gamma - 2); supplying an inconsistent explicit delta is an
    error.
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
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise InvalidParameter("need 0 < dt <= t_end")
        steps = self.t_end / self.dt
        if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise InvalidParameter(
                f"t_end={self.t_end} is not a whole number of dt={self.dt} steps"
            )
        if self.eps <= 0:
            raise InvalidParameter(f"eps must be > 0, got {self.eps}")
        if self.record_every < 1:
            raise InvalidParameter("record_every must be >= 1")
        delta = self.delta
        if self.gamma is not None:
            if self.gamma <= 0:
                raise InvalidParameter(f"gamma must be > 0, got {self.gamma}")
            derived = self.eps ** (self.gamma - 2.0)
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
        if self.system == "PE_H" and delta != 0.0:
            raise InvalidParameter("PE_H has no vertical viscosity; use PE_delta")
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


def _check_blowup(grid: Grid | Plane, U: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(U)):
        raise BlowupDetected(t, "non-finite coefficients")
    l2 = np.sqrt(_raw_inner(grid, U, U))
    if l2 > BLOWUP_NORM_LIMIT:
        raise BlowupDetected(t, f"L2 norm {l2:.3e} exceeds {BLOWUP_NORM_LIMIT:.0e}")


class _ExpAB2:
    """Integrating-factor stepper with AB2 extrapolation of the nonlinearity.

    Subclasses provide the projected, dealiased nonlinear term and the
    structural postprocessing (parity + constraint projection).  A stepper
    on a Plane declares no parities.
    """

    parities: tuple[str, ...] = ()

    def __init__(self, grid: Grid | Plane, lam: np.ndarray, dt: float):
        self.grid = grid
        self.dt = dt
        self.lam = lam
        self.propagator = np.exp(lam * dt)
        self._n_prev: np.ndarray | None = None
        self.last_umax = 0.0

    # -- system hooks -------------------------------------------------------
    def nonlinear(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def constrain(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- generic machinery --------------------------------------------------
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
        out = self.propagator * B
        if self.parities:
            out = np.stack(
                [
                    _raw_parity_project(self.grid, out[i], p)
                    for i, p in enumerate(self.parities)
                ]
            )
        return self.constrain(out) * self.grid.dealias_mask

    def step(self, U: np.ndarray) -> np.ndarray:
        return self.advance(U, self.nonlinear(U))

    def _phys(self, comps: Sequence[np.ndarray]) -> np.ndarray:
        out = _raw_to_phys(self.grid, np.stack(comps))
        self.last_umax = float(np.max(np.abs(out)))
        return out


class NavierStokesStepper(_ExpAB2):
    """Rescaled anisotropic system in the scaled variables U = (v1, v2, eps*w).

    The advecting vertical velocity is recovered from incompressibility, so
    no 1/eps division appears; on the constraint manifold this equals the
    third state component divided by eps.
    """

    parities = (EVEN, EVEN, ODD)

    def __init__(self, grid: Grid, eps: float, delta: float, dt: float):
        super().__init__(grid, _lap_delta_mult(grid, delta), dt)
        self.eps = eps

    def nonlinear(self, U: np.ndarray) -> np.ndarray:
        w = _raw_w_from_v(self.grid, U[:2])
        up = self._phys((U[0], U[1], w))
        N = -_raw_advect(self.grid, up, U)
        return _raw_project_eps(self.grid, N, self.eps)

    def constrain(self, U: np.ndarray) -> np.ndarray:
        return _raw_project_eps(self.grid, U, self.eps)


class PrimitiveStepper(_ExpAB2):
    """Hydrostatic limit systems: prognostic horizontal pair, diagnostic w."""

    parities = (EVEN, EVEN)

    def __init__(self, grid: Grid, delta: float, dt: float):
        super().__init__(grid, _lap_delta_mult(grid, delta), dt)

    def nonlinear(self, V: np.ndarray) -> np.ndarray:
        w = _raw_w_from_v(self.grid, V)
        up = self._phys((V[0], V[1], w))
        return _raw_project_hydro(self.grid, -_raw_advect(self.grid, up, V))

    def constrain(self, V: np.ndarray) -> np.ndarray:
        return _raw_project_hydro(self.grid, V)


class NavierStokes2DStepper(_ExpAB2):
    """2D Navier-Stokes on the kz=0 coefficient plane of a grid.

    The state is the horizontal pair's plane, shape (2, nx, ny) (see
    spectral.Plane); self.grid is that plane.
    """

    def __init__(self, grid: Grid, dt: float):
        plane = grid.plane
        super().__init__(plane, -plane.k2h, dt)

    def nonlinear(self, V: np.ndarray) -> np.ndarray:
        up = self._phys((V[0], V[1]))
        return _raw_project_hydro_plane(self.grid, -_raw_advect(self.grid, up, V))

    def constrain(self, V: np.ndarray) -> np.ndarray:
        return _raw_project_hydro_plane(self.grid, V)


class StokesScaledStepper(_ExpAB2):
    """Exact per-mode exponential flow of the scaled Stokes semigroup."""

    parities = (EVEN, EVEN, ODD)

    def __init__(self, grid: Grid, delta: float, dt: float):
        super().__init__(grid, _lap_delta_mult(grid, delta), dt)

    def nonlinear(self, U: np.ndarray) -> np.ndarray:
        return np.zeros_like(U)

    def constrain(self, U: np.ndarray) -> np.ndarray:
        return U

    def advance(self, U: np.ndarray, N: np.ndarray | None = None) -> np.ndarray:
        return self.propagator * U


def _require_mean_free(U: np.ndarray, what: str, tol: float = 1e-12) -> None:
    m = float(np.max(np.abs(U[..., 0])))
    if m > tol:
        raise CompatibilityError(f"{what} is not vertically mean-free: {m:.3e}", m)


def _require_z_independent(U: np.ndarray, what: str, tol: float = 1e-12) -> None:
    m = float(np.max(np.abs(U[..., 1:])))
    if m > tol:
        raise CompatibilityError(f"{what} is not z-independent: {m:.3e}", m)


def _state_fields(grid: Grid, U: np.ndarray, parities: Sequence[str]):
    return tuple(SpectralField(grid, U[i], p) for i, p in enumerate(parities))


def _pack_ns(state: VelocityState, eps: float) -> np.ndarray:
    return np.stack(
        (state.v1.coeffs, state.v2.coeffs, eps * state.w.coeffs)
    )


def _unpack_ns(grid: Grid, U: np.ndarray, tag: str, t: float) -> VelocityState:
    w = _raw_w_from_v(grid, U[:2])
    v1, v2 = _state_fields(grid, U, (EVEN, EVEN))[:2]
    return VelocityState(v1, v2, SpectralField(grid, w, ODD), tag, t)


# ---------------------------------------------------------------------------
# single-step operations (fresh stepper => Euler bootstrap on the nonlinearity)
# ---------------------------------------------------------------------------

def step_ns_eps_delta(state: VelocityState, cfg: SimConfig) -> VelocityState:
    """One step of the rescaled anisotropic system."""
    grid = state.grid
    stepper = NavierStokesStepper(grid, cfg.eps, cfg.delta, cfg.dt)
    U = _pack_ns(state, cfg.eps)
    U1 = stepper.step(U)
    t1 = state.time + cfg.dt
    _check_blowup(grid, U1, t1)
    return _unpack_ns(grid, U1, state.system_tag, t1)


def step_pe(state: VelocityState, cfg: SimConfig) -> VelocityState:
    """One step of the hydrostatic limit systems (delta >= 0 selects the
    anisotropic or the horizontal-viscosity variant); w is recomputed from
    the stepped horizontal pair."""
    grid = state.grid
    V = np.stack((state.v1.coeffs, state.v2.coeffs))
    defect = _raw_divH_bar_defect(grid, V)
    if defect > 1e-10:
        raise CompatibilityError(
            f"initial data violates the vertical-average constraint: {defect:.3e}",
            defect,
        )
    stepper = PrimitiveStepper(grid, cfg.delta, cfg.dt)
    V1 = stepper.step(V)
    t1 = state.time + cfg.dt
    _check_blowup(grid, V1, t1)
    w = _raw_w_from_v(grid, V1)
    v1, v2 = _state_fields(grid, V1, (EVEN, EVEN))
    return VelocityState(v1, v2, SpectralField(grid, w, ODD), state.system_tag, t1)


def step_ns2d(
    v: Sequence[SpectralField], cfg: SimConfig
) -> tuple[SpectralField, SpectralField]:
    """One 2D Navier-Stokes step on a z-independent horizontal pair.

    The step acts on the kz=0 coefficient plane; the returned pair is
    z-independent (its kz != 0 coefficients are exactly zero).  A pair with
    kz != 0 content is rejected rather than truncated.
    """
    grid = v[0].grid
    V = np.stack((v[0].coeffs, v[1].coeffs))
    _require_z_independent(V, "2D state")
    V = V[..., 0]
    stepper = NavierStokes2DStepper(grid, cfg.dt)
    V1 = stepper.step(V)
    _check_blowup(stepper.grid, V1, cfg.dt)
    f1, f2 = _state_fields(grid, _raw_embed_plane(grid, V1), (EVEN, EVEN))
    return (f1, f2)


def step_stokes_scaled(state: VelocityState, cfg: SimConfig) -> VelocityState:
    """Exact exponential update of the scaled Stokes system on mean-free data."""
    grid = state.grid
    U = np.stack((state.v1.coeffs, state.v2.coeffs, state.w.coeffs))
    _require_mean_free(U[:2], "Stokes state")
    Ueps = np.stack((U[0], U[1], cfg.eps * U[2]))
    d = _raw_div_eps_defect(grid, Ueps, cfg.eps)
    if d > 1e-10:
        raise CompatibilityError(f"Stokes state is not divergence-free: {d:.3e}", d)
    stepper = StokesScaledStepper(grid, cfg.delta, cfg.dt)
    U1 = stepper.advance(U)
    t1 = state.time + cfg.dt
    v1, v2 = _state_fields(grid, U1, (EVEN, EVEN))[:2]
    return VelocityState(
        v1, v2, SpectralField(grid, U1[2], ODD), state.system_tag, t1
    )


# ---------------------------------------------------------------------------
# full trajectories
# ---------------------------------------------------------------------------

def _l2_h1(grid: Grid | Plane, U: np.ndarray) -> tuple[float, float]:
    e = np.sum(np.abs(U) ** 2, axis=0)
    l2 = float(np.sqrt(np.sum(e) * 8.0))
    h1 = float(np.sqrt(np.sum((1.0 + grid.ksq) * e) * 8.0))
    return l2, h1


def run_simulation(cfg: SimConfig) -> TrajectoryRecord:
    """Integrate cfg.system from its recipe data over (0, t_end).

    Norm samples are recorded every record_every steps (always including the
    initial and final instants).  On blowup the record carries the last
    finite samples and the blowup flag/time instead of raising.
    """
    from .harness.initial_data import generate_initial_data

    grid = make_grid(cfg.nx, cfg.ny, cfg.nz)
    state0 = generate_initial_data(cfg.recipe, cfg.seed, grid)

    if cfg.system == "NS_eps_delta":
        stepper = NavierStokesStepper(grid, cfg.eps, cfg.delta, cfg.dt)
        U = _pack_ns(state0, cfg.eps)
        unpack = lambda U, t: _unpack_ns(grid, U, cfg.system, t)
    elif cfg.system in ("PE_delta", "PE_H"):
        stepper = PrimitiveStepper(grid, cfg.delta, cfg.dt)
        U = np.stack((state0.v1.coeffs, state0.v2.coeffs))

        def unpack(U, t):
            w = _raw_w_from_v(grid, U)
            v1, v2 = _state_fields(grid, U, (EVEN, EVEN))
            return VelocityState(v1, v2, SpectralField(grid, w, ODD), cfg.system, t)

    elif cfg.system == "NS2D":
        stepper = NavierStokes2DStepper(grid, cfg.dt)
        U = np.stack((state0.v1.coeffs[:, :, 0], state0.v2.coeffs[:, :, 0]))

        def unpack(U, t):
            v1, v2 = _state_fields(grid, _raw_embed_plane(grid, U), (EVEN, EVEN))
            w = np.zeros(grid.shape, dtype=np.complex128)
            return VelocityState(v1, v2, SpectralField(grid, w, ODD), cfg.system, t)

    elif cfg.system == "StokesScaled":
        U = np.stack((state0.v1.coeffs, state0.v2.coeffs, state0.w.coeffs))
        _require_mean_free(U[:2], f"recipe {cfg.recipe!r} data")
        stepper = StokesScaledStepper(grid, cfg.delta, cfg.dt)

        def unpack(U, t):
            v1, v2 = _state_fields(grid, U, (EVEN, EVEN))[:2]
            return VelocityState(
                v1, v2, SpectralField(grid, U[2], ODD), cfg.system, t
            )

    else:  # pragma: no cover - SimConfig already validated
        raise InvalidParameter(cfg.system)

    rec = TrajectoryRecord(samples={"l2": [], "h1": []})
    space = stepper.grid  # the grid, or its kz=0 plane for NS2D
    # the largest wavenumber the 2/3 mask keeps
    kmax = np.pi * (max(cfg.nx, cfg.ny, cfg.nz) // 3)
    cfl_max, cfl_t = 0.0, 0.0

    def record(t: float, U: np.ndarray) -> None:
        l2, h1 = _l2_h1(space, U)
        rec.times.append(t)
        rec.samples["l2"].append(l2)
        rec.samples["h1"].append(h1)

    n_steps = cfg.n_steps
    t = 0.0
    try:
        for n in range(n_steps):
            if n % cfg.record_every == 0:
                record(t, U)
            U = stepper.step(U)
            # last_umax is max |u| of the state at t, which the step advected
            cfl = cfg.dt * stepper.last_umax * kmax
            if cfl > cfl_max:
                cfl_max, cfl_t = cfl, t
            t = (n + 1) * cfg.dt
            _check_blowup(space, U, t)
        record(t, U)
        rec.final_state = unpack(U, t)
    except BlowupDetected as exc:
        rec.blowup_flag = True
        rec.blowup_time = exc.time
        rec.blowup_reason = exc.reason
        rec.final_state = None
    if cfl_max > CFL_LIMIT:
        warnings.warn(
            f"largest advective CFL number {cfl_max:.2f} (at t={cfl_t:.6g}) "
            f"exceeds {CFL_LIMIT}; results may be underresolved in time",
            RuntimeWarning,
        )
    return rec
