"""Velocity-field assembly on the periodic box.

Provides the three divergence-eliminating projections (scaled, hydrostatic,
2D), recovery of the diagnostic vertical velocity from the horizontal pair,
the barotropic/baroclinic splitting, and the difference-system right-hand
sides used to validate that two primal trajectories actually satisfy the
equation their difference is supposed to solve.

Conventions: a full velocity state stores the horizontal pair (even in z) and
the physical vertical velocity (odd in z).  Terms carrying a 1/eps weight are
always rewritten through the vertical integral of the horizontal divergence,
so no explicit division by eps occurs anywhere; this keeps the algebra well
conditioned for eps << 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import CompatibilityError, InvalidParameter, ShapeError
from .spectral import (
    EVEN,
    NONE,
    ODD,
    Grid,
    Plane,
    SpectralField,
    _lap_delta_mult,
    _raw_deriv,
    _raw_parity_project,
    _raw_to_phys,
    _raw_to_spec,
)

DIV_COMPAT_TOL = 1e-10


@dataclass(frozen=True)
class VelocityState:
    """Velocity triple (v1, v2, w): v even in z, w odd in z.

    For the difference states of the convergence experiments the third slot
    holds the scaled difference of vertical velocities; the components are
    always interpreted verbatim by the operators below.
    """

    v1: SpectralField
    v2: SpectralField
    w: SpectralField
    system_tag: str = "generic"
    time: float = 0.0

    def __post_init__(self):
        g = self.v1.grid
        for f in (self.v2, self.w):
            if f.grid.shape != g.shape:
                raise ShapeError("state components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.v1.grid

    def components(self) -> tuple[SpectralField, SpectralField, SpectralField]:
        return (self.v1, self.v2, self.w)

    def horizontal(self) -> tuple[SpectralField, SpectralField]:
        return (self.v1, self.v2)

    def with_time(self, t: float) -> "VelocityState":
        return replace(self, time=t)


@dataclass(frozen=True)
class SplitState:
    """Barotropic/baroclinic decomposition of a horizontal pair.

    vbar is the vertical average (the kz=0 coefficient plane), vtilde the
    zero-vertical-mean remainder; vbar + vtilde reconstructs v exactly.  When
    built from a full state, w rides along as part of the baroclinic mode.
    """

    vbar1: SpectralField
    vbar2: SpectralField
    vtilde1: SpectralField
    vtilde2: SpectralField
    w: SpectralField | None = None


# ---------------------------------------------------------------------------
# raw kernels on stacked coefficient arrays
# ---------------------------------------------------------------------------

def _peps_tables(grid: Grid, eps: float):
    def build():
        kz = grid.kz3 / eps
        norm2 = grid.k2h + kz**2
        inv = 1.0 / np.where(norm2 == 0.0, 1.0, norm2)
        return np.stack(
            (
                np.broadcast_to(grid.kx3, grid.shape),
                np.broadcast_to(grid.ky3, grid.shape),
                np.broadcast_to(kz, grid.shape),
                inv,
            )
        )

    return grid.cached(("peps", float(eps)), build)


def _raw_project_eps(grid: Grid, U: np.ndarray, eps: float) -> np.ndarray:
    """Leray projection with the scaled wavevector (kx, ky, kz/eps)."""
    t = _peps_tables(grid, eps)
    s = (t[0] * U[0] + t[1] * U[1] + t[2] * U[2]) * t[3]
    return np.stack((U[0] - t[0] * s, U[1] - t[1] * s, U[2] - t[2] * s))


def _raw_project_hydro_plane(grid: Grid | Plane, P: np.ndarray) -> np.ndarray:
    """2D Leray projection of a pair of kz=0 coefficient planes, shape
    (2, nx, ny): removes the horizontal gradient driven by their divergence."""
    kx = grid.kx[:, None]
    ky = grid.ky[None, :]
    k2 = kx**2 + ky**2
    k2 = np.where(k2 == 0.0, 1.0, k2)
    s = (kx * P[0] + ky * P[1]) / k2
    return np.stack((P[0] - kx * s, P[1] - ky * s))


def _raw_project_hydro(grid: Grid, V: np.ndarray) -> np.ndarray:
    """Remove the z-independent horizontal gradient driven by div of the
    vertical average; acts only on the kz=0 coefficient plane."""
    out = V.copy()
    out[..., 0] = _raw_project_hydro_plane(grid, V[..., 0])
    return out


def _raw_w_from_v(grid: Grid, V: np.ndarray) -> np.ndarray:
    """Vertical velocity from incompressibility: the odd antiderivative of
    -div_H v.  kz=0 plane is zero (oddness); kz != 0 modes divide by kz."""
    num = grid.kx3 * V[0] + grid.ky3 * V[1]
    kz = np.where(grid.kz3 == 0.0, 1.0, grid.kz3)
    w = -num / kz
    w[:, :, 0] = 0.0
    return w


def _raw_divH_bar_defect(grid: Grid, V: np.ndarray) -> float:
    d = grid.kx[:, None] * V[0][:, :, 0] + grid.ky[None, :] * V[1][:, :, 0]
    return float(np.max(np.abs(d)))


def _raw_div_eps_defect(grid: Grid, U: np.ndarray, eps: float) -> float:
    d = grid.kx3 * U[0] + grid.ky3 * U[1] + (grid.kz3 / eps) * U[2]
    return float(np.max(np.abs(d)))


def _raw_advect(
    grid: Grid | Plane, u_phys: Sequence[np.ndarray], T: np.ndarray
) -> np.ndarray:
    """Convective derivative sum_j u_j d_j T_i for a stack of targets T.

    u_phys has 2 (horizontal transport only) or 3 physical components; the
    result is returned in spectral space, dealiased.  Transforms are batched
    over all component/axis pairs.  On a Plane, T holds kz=0 planes and the
    transport is horizontal.
    """
    m = T.shape[0]
    naxes = len(u_phys)
    ks = np.ix_(*grid.wavenumbers)[:naxes]
    dT = np.empty((m, naxes, *grid.shape), dtype=np.complex128)
    for i in range(m):
        for j, k in enumerate(ks):
            dT[i, j] = (1j * k) * T[i]
    dTp = _raw_to_phys(grid, dT)
    acc = np.empty((m, *grid.shape), dtype=np.float64)
    for i in range(m):
        a = u_phys[0] * dTp[i, 0]
        for j in range(1, naxes):
            a += u_phys[j] * dTp[i, j]
        acc[i] = a
    return _raw_to_spec(grid, acc) * grid.dealias_mask


def _raw_zaverage_plane(c: np.ndarray) -> np.ndarray:
    """Project onto the z-independent (kz=0) coefficient plane."""
    out = np.zeros_like(c)
    out[..., 0] = c[..., 0]
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def project_div_free_scaled(u, eps: float):
    """Project a velocity triple onto the scaled divergence-free subspace.

    Per mode k with k_eps = (kx, ky, kz/eps) the coefficients map to
    u - k_eps (k_eps . u)/|k_eps|^2; the zero mode is untouched.  Accepts a
    VelocityState or a 3-tuple of SpectralFields and returns the same kind.
    The components are interpreted verbatim as the projected triple.
    """
    if eps <= 0:
        raise InvalidParameter(f"eps must be > 0, got {eps}")
    state = isinstance(u, VelocityState)
    comps = u.components() if state else tuple(u)
    if len(comps) != 3:
        raise ShapeError("expected three velocity components")
    grid = comps[0].grid
    U = np.stack([c.coeffs for c in comps])
    P = _raw_project_eps(grid, U, eps)
    out = tuple(
        SpectralField(grid, P[i], comps[i].parity) for i in range(3)
    )
    if state:
        return replace(u, v1=out[0], v2=out[1], w=out[2])
    return out


def project_hydrostatic(
    f: Sequence[SpectralField],
) -> tuple[SpectralField, SpectralField]:
    """Remove the z-independent horizontal pressure gradient from a pair.

    Solves the horizontal Poisson problem on the vertical average and
    subtracts its gradient, so the output's vertical average is
    2D-divergence-free.  The zero horizontal mode is untouched.
    """
    f1, f2 = f
    grid = f1.grid
    V = np.stack((f1.coeffs, f2.coeffs))
    P = _raw_project_hydro(grid, V)
    return (
        SpectralField(grid, P[0], f1.parity),
        SpectralField(grid, P[1], f2.parity),
    )


def vertical_velocity_from_v(
    v: Sequence[SpectralField], tol: float = DIV_COMPAT_TOL
) -> SpectralField:
    """Recover the odd vertical velocity with w(-1) = 0 from incompressibility.

    Requires the vertical average of the horizontal divergence to vanish;
    otherwise no periodic odd antiderivative exists and a CompatibilityError
    carrying the defect is raised.
    """
    v1, v2 = v
    grid = v1.grid
    V = np.stack((v1.coeffs, v2.coeffs))
    defect = _raw_divH_bar_defect(grid, V)
    if defect > tol:
        raise CompatibilityError(
            f"div_H of the vertical average is {defect:.3e} > {tol:.0e}", defect
        )
    return SpectralField(grid, _raw_w_from_v(grid, V), ODD)


def barotropic_split(
    v: Sequence[SpectralField], w: SpectralField | None = None
) -> SplitState:
    """Split a horizontal pair into vertical average + zero-mean remainder."""
    v1, v2 = v
    grid = v1.grid
    bars = []
    tildes = []
    for comp in (v1, v2):
        bar = _raw_zaverage_plane(comp.coeffs)
        bars.append(SpectralField(grid, bar, comp.parity))
        tildes.append(SpectralField(grid, comp.coeffs - bar, comp.parity))
    return SplitState(bars[0], bars[1], tildes[0], tildes[1], w)


def divergence_defect(state: VelocityState) -> float:
    """Max coefficient magnitude of div(v1, v2, w) (unscaled divergence)."""
    U = np.stack([c.coeffs for c in state.components()])
    return _raw_div_eps_defect(state.grid, U, 1.0)


def _pe_h_time_derivative(grid: Grid, V: np.ndarray) -> np.ndarray:
    """Semi-discrete time derivative of the horizontal-viscosity limit system:
    horizontal diffusion plus projected, dealiased advection by (v, w(v))."""
    w = _raw_w_from_v(grid, V)
    u_phys = [_raw_to_phys(grid, c) for c in (V[0], V[1], w)]
    adv = _raw_advect(grid, u_phys, V)
    rhs = -grid.k2h * V - _raw_project_hydro(grid, adv)
    return rhs


def diff_rhs_F(
    v: Sequence[SpectralField],
    w: SpectralField,
    V: Sequence[SpectralField],
    W: SpectralField,
    eps: float,
    delta: float,
    form: str = "advective",
):
    """Right-hand sides of the difference system between the rescaled
    anisotropic system and its horizontal-viscosity limit.

    (v, w) is the limit solution, (V, W) the difference pair with the third
    component carrying the eps-scaled vertical difference.  All quadratic
    terms are dealiased.  The 1/eps advection weight is evaluated through the
    vertical integral of -div_H V, so it stays finite as eps -> 0.

    form="advective" evaluates the convective-form expression;
    form="divergence" the equivalent conservative form (they agree when both
    advecting fields are divergence-free, which the tests assert).

    Returns ((F_H1, F_H2), F_z).
    """
    if eps <= 0:
        raise InvalidParameter(f"eps must be > 0, got {eps}")
    if form not in ("advective", "divergence"):
        raise InvalidParameter(f"unknown form {form!r}")
    grid = v[0].grid
    for fld in (*v, w, *V, W):
        if fld.grid.shape != grid.shape:
            raise ShapeError("all fields must share one grid")

    Vc = np.stack((V[0].coeffs, V[1].coeffs))
    vc = np.stack((v[0].coeffs, v[1].coeffs))
    Wc = W.coeffs
    wc = w.coeffs

    # advecting fields: limit velocity u = (v, w) and difference (V, W/eps)
    W_over_eps = _raw_w_from_v(grid, Vc)
    u_phys = [_raw_to_phys(grid, c) for c in (vc[0], vc[1], wc)]
    b_phys = [_raw_to_phys(grid, c) for c in (Vc[0], Vc[1], W_over_eps)]

    targets_vw = np.stack((vc[0], vc[1], eps * wc))  # (v, eps*w)
    targets_VW = np.stack((Vc[0], Vc[1], Wc))  # (V, W)

    if form == "advective":
        total = -(
            _raw_advect(grid, b_phys, targets_vw)
            + _raw_advect(grid, u_phys, targets_VW)
            + _raw_advect(grid, b_phys, targets_VW)
        )
    else:
        total = -(
            _raw_div_outer(grid, targets_vw, b_phys)
            + _raw_div_outer(grid, targets_VW, u_phys)
            + _raw_div_outer(grid, targets_VW, b_phys)
        )

    # forcing terms that vanish with delta and eps
    mask = grid.dealias_mask
    Fh = total[:2].copy()
    Fh += delta * _raw_deriv(grid, _raw_deriv(grid, vc, "z"), "z") * mask

    dt_v = _pe_h_time_derivative(grid, vc)
    dt_w = _raw_w_from_v(grid, dt_v)
    adv_w = _raw_advect(grid, u_phys, wc[None])[0]
    lap_w = _lap_delta_mult(grid, delta) * wc
    Fz = total[2] - eps * (dt_w + adv_w - lap_w) * mask

    Fh = _raw_parity_project(grid, Fh, EVEN)
    Fz = _raw_parity_project(grid, Fz, ODD)
    return (
        (SpectralField(grid, Fh[0], EVEN), SpectralField(grid, Fh[1], EVEN)),
        SpectralField(grid, Fz, ODD),
    )


def _raw_div_outer(grid: Grid, X: np.ndarray, y_phys: Sequence[np.ndarray]) -> np.ndarray:
    """Conservative form: component i of div(X (x) y) = sum_j d_j (X_i y_j)."""
    axes = ("x", "y", "z")
    out = np.zeros_like(X)
    for i in range(X.shape[0]):
        Xi = _raw_to_phys(grid, X[i])
        for j, yj in enumerate(y_phys):
            prod = _raw_to_spec(grid, Xi * yj) * grid.dealias_mask
            out[i] += _raw_deriv(grid, prod, axes[j])
    return out * grid.dealias_mask


def baroclinic_rhs(
    vbar: Sequence[SpectralField],
    utilde: Sequence[SpectralField],
    tol: float = 1e-10,
):
    """Forcings of the barotropic/baroclinic reformulation.

    vbar is the z-independent horizontal average pair, utilde the mean-free
    triple (vtilde1, vtilde2, w).  Returns (Fbar, Ftilde1, Ftilde2) where
    Fbar is z-independent, Ftilde1 has zero vertical mean by construction,
    and Ftilde2 is the forcing of the vertical-velocity block.
    """
    vb1, vb2 = vbar
    vt1, vt2, wt = utilde
    grid = vb1.grid
    for fld in (vb2, vt1, vt2, wt):
        if fld.grid.shape != grid.shape:
            raise ShapeError("all fields must share one grid")
    for fld, name in ((vt1, "vtilde1"), (vt2, "vtilde2")):
        m = float(np.max(np.abs(fld.coeffs[:, :, 0])))
        if m > tol:
            raise CompatibilityError(f"{name} is not mean-free: {m:.3e}", m)
    for fld, name in ((vb1, "vbar1"), (vb2, "vbar2")):
        m = float(np.max(np.abs(fld.coeffs[:, :, 1:])))
        if m > tol:
            raise CompatibilityError(f"{name} is not z-independent: {m:.3e}", m)

    vb_phys = [_raw_to_phys(grid, c) for c in (vb1.coeffs, vb2.coeffs)]
    ut_phys = [_raw_to_phys(grid, c) for c in (vt1.coeffs, vt2.coeffs, wt.coeffs)]
    vt_stack = np.stack((vt1.coeffs, vt2.coeffs))
    vb_stack = np.stack((vb1.coeffs, vb2.coeffs))
    w_stack = wt.coeffs[None]

    adv_tt = _raw_advect(grid, ut_phys, vt_stack)  # utilde . grad vtilde
    avg_tt = np.stack([_raw_zaverage_plane(a) for a in adv_tt])

    fbar = -avg_tt
    ft1 = (
        -_raw_advect(grid, ut_phys[:2], vb_stack)  # vtilde . grad_H vbar
        - _raw_advect(grid, vb_phys, vt_stack)  # vbar . grad_H vtilde
        - adv_tt
        + avg_tt
    )
    ft2 = -(
        _raw_advect(grid, vb_phys, w_stack) + _raw_advect(grid, ut_phys, w_stack)
    )[0]

    fbar_f = tuple(SpectralField(grid, fbar[i], EVEN) for i in range(2))
    ft1_f = tuple(SpectralField(grid, ft1[i], EVEN) for i in range(2))
    return fbar_f, ft1_f, SpectralField(grid, ft2, ODD)
