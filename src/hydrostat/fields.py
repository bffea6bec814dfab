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
    ODD,
    Band,
    Grid,
    SpectralField,
    _deriv_mult,
    _lap_delta_mult,
    _raw_deriv,
    _raw_parity_project,
    _raw_to_phys,
    _raw_to_spec,
    _workspace,
)

# the z-parities of a velocity triple (v1, v2, w)
VELOCITY_PARITIES = (EVEN, EVEN, ODD)


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

def _peps_tables(grid: Grid | Band, eps: float):
    def build():
        kz = grid.kz3 / eps
        norm2 = grid.k2h + kz**2
        inv = 1.0 / np.where(norm2 == 0.0, 1.0, norm2)
        return np.stack(
            (
                np.broadcast_to(grid.kx3, grid.spec_shape),
                np.broadcast_to(grid.ky3, grid.spec_shape),
                np.broadcast_to(kz, grid.spec_shape),
                inv,
            )
        )

    return grid.cached(("peps", float(eps)), build)


def _raw_project_eps(grid: Grid | Band, U: np.ndarray, eps: float) -> np.ndarray:
    """Leray projection with the scaled wavevector (kx, ky, kz/eps); the
    NS stepper applies it to its nonlinear term, never to a state."""
    t = _peps_tables(grid, eps)
    s = (t[0] * U[0] + t[1] * U[1] + t[2] * U[2]) * t[3]
    return np.stack((U[0] - t[0] * s, U[1] - t[1] * s, U[2] - t[2] * s))


def _raw_project_hydro_plane(grid: Grid | Band, P: np.ndarray) -> np.ndarray:
    """2D Leray projection of a pair of kz=0 coefficient planes, shape
    (2, *grid.spec_shape[:2]): removes the horizontal gradient driven by
    their divergence."""
    kx = grid.kx[:, None]
    ky = grid.ky[None, :]

    def build():
        k2 = kx**2 + ky**2
        return np.where(k2 == 0.0, 1.0, k2)

    s = (kx * P[0] + ky * P[1]) / grid.cached(("hproj_k2",), build)
    return np.stack((P[0] - kx * s, P[1] - ky * s))


def _raw_project_hydro(grid: Grid | Band, V: np.ndarray) -> np.ndarray:
    """Remove the z-independent horizontal gradient driven by div of the
    vertical average; acts only on the kz=0 coefficient plane."""
    out = V.copy()
    out[..., 0] = _raw_project_hydro_plane(grid, V[..., 0])
    return out


def _raw_w_from_v(grid: Grid | Band, V: np.ndarray) -> np.ndarray:
    """Vertical velocity from incompressibility: the odd antiderivative of
    -div_H v.  kz=0 plane is zero (oddness); kz != 0 modes divide by kz.

    On the Nyquist plane kz is +pi nz/2, the sign of the stored half.  The
    sign does not matter: the dealiased velocities passed in have no content
    on that plane."""
    num = grid.kx3 * V[0] + grid.ky3 * V[1]
    kz = grid.cached(("kz_nonzero",), lambda: np.where(grid.kz3 == 0.0, 1.0, grid.kz3))
    w = -num / kz
    w[:, :, 0] = 0.0
    return w


def _raw_with_w(grid: Grid | Band, V: np.ndarray, s: float = 1.0) -> np.ndarray:
    """(V[0], V[1], s * w(V)): the velocity that a horizontal pair (or its
    time derivative) stands for, w weighted by s (eps in (v, eps*w))."""
    return np.concatenate((V, (s * _raw_w_from_v(grid, V))[None]))


def _raw_div_eps_defect(grid: Grid | Band, U: np.ndarray, eps: float) -> float:
    d = grid.kx3 * U[0] + grid.ky3 * U[1] + (grid.kz3 / eps) * U[2]
    return float(np.max(np.abs(d)))


def _raw_advect(grid: Grid, u_phys: Sequence[np.ndarray], T: np.ndarray) -> np.ndarray:
    """Convective derivative sum_j u_j d_j T_i for a stack of targets T.

    u_phys has 2 (horizontal transport only) or 3 physical components; the
    result is returned in spectral space, dealiased.  Transforms are batched
    over all component/axis pairs.

    Only for transports that are not divergence-free (the horizontal
    transports of baroclinic_rhs, the cross terms of diff_rhs_F); the
    steppers' self-advection uses the cheaper _raw_advect_div.
    """
    m = T.shape[0]
    naxes = len(u_phys)
    iks = [_deriv_mult(grid, j, 1) for j in range(naxes)]
    dT = np.empty((m, naxes, *grid.spec_shape), dtype=np.complex128)
    for i in range(m):
        for j, ik in enumerate(iks):
            dT[i, j] = ik * T[i]
    dTp = _raw_to_phys(grid, dT)
    acc = np.empty((m, *grid.shape), dtype=np.float64)
    for i in range(m):
        a = u_phys[0] * dTp[i, 0]
        for j in range(1, naxes):
            a += u_phys[j] * dTp[i, j]
        acc[i] = a
    return _raw_to_spec(grid, acc) * grid.dealias_mask


def _raw_advect_div(
    grid: Grid | Band, u_phys: Sequence[np.ndarray], scale: Sequence[float],
    parities: Sequence[str] | None = None,
) -> np.ndarray:
    """Self-advection in divergence form: component i < len(scale) is
    scale[i] * sum_j d_j (u_i u_j), in spectral space, dealiased.

    u_phys is the stack of physical transport components (3 on a Grid and
    its band, 2 on Grid.plane).  For a divergence-free u this equals the
    convective (u . grad) (scale * u), at one forward transform per distinct
    product u_i u_j and no inverse transform.  On a Band the result holds
    only the kept modes, so it needs no mask.

    Given the z-parities of the components (at most one of them odd), each
    product u_i u_j of opposite parities rides in one field with the square
    of u_i, u_i (u_i + u_j): the two are that field's odd and even parts.
    The divergence is taken of the fields as they are, and component i is
    then projected onto the parity of u_i.  The projections commute with
    the derivatives (d_x and d_y keep a parity, d_z swaps it), so each term
    keeps only the part of its field that is the product it stands for,
    and the result is exactly in the class.  For (v1, v2, w) two fewer
    fields are transformed.

    On a Band the fields are formed in the band's workspace, field k in
    slot k, the paired ones first.  u_phys may lie in the workspace's
    upper slots, where _ExpAB2._phys puts it: a paired field needs a slot
    that holds no component, and any other overwrites only a component
    that no later field reads.
    """
    m, n = len(scale), len(u_phys)
    products = [(i, j) for i in range(m) for j in range(i, n)]
    fields = [(q,) for q in products]
    if parities:
        paired = [((i, i), (i, j)) for i, j in products if parities[i] != parities[j]]
        fields = paired + [(q,) for q in products if all(q not in f for f in paired)]
    ws = _workspace(grid)
    prod = ws.real[: len(fields)] if ws else np.empty((len(fields), *grid.shape))
    for f, q in zip(prod, fields):
        i, j = q[-1]
        if len(q) == 2:  # u_i (u_i + u_j)
            np.add(u_phys[i], u_phys[j], out=f)
            f *= u_phys[i]
        else:
            np.multiply(u_phys[i], u_phys[j], out=f)
    P = {q: c for c, qs in zip(_raw_to_spec(grid, prod), fields) for q in qs}
    iks = [_deriv_mult(grid, j, 1) for j in range(n)]
    out = np.empty((m, *grid.spec_shape), dtype=np.complex128)
    tmp = np.empty(grid.spec_shape, dtype=np.complex128)
    for i in range(m):
        np.multiply(iks[0], P[0, i], out=out[i])
        for j in range(1, n):
            np.multiply(iks[j], P[min(i, j), max(i, j)], out=tmp)
            out[i] += tmp
        if parities:
            out[i] = _raw_parity_project(grid, out[i], parities[i])
        if scale[i] != 1:
            out[i] *= scale[i]
    if not isinstance(grid, Band):
        out *= grid.dealias_mask
    return out


def _raw_zaverage_plane(c: np.ndarray) -> np.ndarray:
    """Project onto the z-independent (kz=0) coefficient plane."""
    out = np.zeros_like(c)
    out[..., 0] = c[..., 0]
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

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


def _pe_h_time_derivative(grid: Grid, V: np.ndarray) -> np.ndarray:
    """Semi-discrete time derivative of the horizontal-viscosity limit system:
    horizontal diffusion plus projected, dealiased advection by (v, w(v)),
    in the divergence form the PE_H stepper uses."""
    u_phys = _raw_to_phys(grid, np.stack((V[0], V[1], _raw_w_from_v(grid, V))))
    adv = _raw_advect_div(grid, u_phys, (1.0, 1.0))
    return -grid.k2h * V - _raw_project_hydro(grid, adv)


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
