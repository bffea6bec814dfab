"""Velocity-field assembly on the periodic box.

Provides the two divergence-eliminating projections (scaled, and
hydrostatic: the 2D projection of a pair of kz=0 planes, in place),
recovery of the diagnostic vertical velocity from the horizontal pair, the
barotropic/baroclinic splitting, and the difference-system right-hand
sides used to validate that two primal trajectories actually satisfy the
equation their difference is supposed to solve.

There is one advection kernel, _raw_advect: the divergence form
sum_j d_j (X_i u_j) on a Band, of a velocity u itself (the steppers'
self-advection) or of other fields X (the cross form).  It is the
convective (u . grad) X only for a divergence-free u, which every caller
has; the difference-system forcings check it of their inputs.  They run on
grid.band, as the steppers do, and return their results in the grid's
layout.

Conventions: a full velocity state stores the horizontal pair (even in z) and
the physical vertical velocity (odd in z).  Terms carrying a 1/eps weight are
always rewritten through the vertical integral of the horizontal divergence,
so no explicit division by eps occurs anywhere; this keeps the algebra well
conditioned for eps << 1.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    _raw_embed_plane,
    _raw_parity_project,
    _raw_to_phys,
    _raw_to_spec,
    _to_band,
)

# the z-parities of a velocity triple (v1, v2, w)
VELOCITY_PARITIES = (EVEN, EVEN, ODD)


@dataclass(frozen=True)
class VelocityState:
    """Velocity triple (v1, v2, w) at a time: v even in z, w odd in z.

    For the difference states of the convergence experiments the third slot
    holds the scaled difference of vertical velocities; the components are
    always interpreted verbatim by the operators below.  time is the
    instant the state stands at: 0 for initial data, t_end for the final
    state of a run, and what a snapshot recorded.
    """

    v1: SpectralField
    v2: SpectralField
    w: SpectralField
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
    """kz/eps and the reciprocal 1/(|k_H|^2 + (kz/eps)^2) (1 where that is
    0); kx and ky are the grid's own broadcast views."""
    kz = grid.cached(("kz/eps", float(eps)), lambda: grid.kz3 / eps)

    def build():
        norm2 = grid.k2h + kz**2
        return 1.0 / np.where(norm2 == 0.0, 1.0, norm2)

    return kz, grid.cached(("peps", float(eps)), build)


def _raw_project_eps(grid: Grid | Band, U: np.ndarray, eps: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Leray projection with the scaled wavevector (kx, ky, kz/eps); the
    NS stepper applies it to its nonlinear term, never to a state.  Writes
    the first len(out) components into out (all three in a new array when
    None)."""
    kz, inv = _peps_tables(grid, eps)
    k = (grid.kx3, grid.ky3, kz)
    s = (k[0] * U[0] + k[1] * U[1] + k[2] * U[2]) * inv
    if out is None:
        out = np.empty(U.shape, s.dtype)
    for i in range(len(out)):
        np.subtract(U[i], k[i] * s, out=out[i])
    return out


def _hproj_tables(grid: Grid | Band) -> np.ndarray:
    """kx, ky and |k_H|^2 (1 at k_H = 0) on the kz=0 plane, complex: a
    product or quotient with a real table converts it to complex on every
    call, and the converted values give the same results bit for bit."""
    def build():
        kx, ky = np.meshgrid(grid.kx, grid.ky, indexing="ij")
        k2 = kx**2 + ky**2
        return np.stack((kx, ky, np.where(k2 == 0.0, 1.0, k2))).astype(np.complex128)

    return grid.cached(("hproj",), build)


def _raw_project_hydro(grid: Grid | Band, P: np.ndarray) -> np.ndarray:
    """The hydrostatic projection, in place: the 2D Leray projection of a
    pair of kz=0 coefficient planes P, shape (2, *grid.spec_shape[:2]),
    which removes the horizontal gradient driven by their divergence.  P is
    the [..., 0] view of a stack (the vertical average of a 3D pair) or the
    NS2D plane's state.  Returns P."""
    kx, ky, k2 = _hproj_tables(grid)
    s = kx * P[0]
    s += ky * P[1]
    s /= k2
    P[0] -= kx * s
    P[1] -= ky * s
    return P


def _raw_w_from_v(grid: Grid | Band, V: np.ndarray) -> np.ndarray:
    """Vertical velocity from incompressibility: the odd antiderivative of
    -div_H v.  kz=0 plane is zero (oddness); kz != 0 modes are multiplied
    by -1/kz, which is bit for bit a division by kz (numpy divides a complex
    array by a real one as a product with its reciprocal).

    On the Nyquist plane kz is +pi nz/2, the sign of the stored half.  The
    sign does not matter: the dealiased velocities passed in have no content
    on that plane."""
    def build():
        kz = grid.kz3
        return np.where(kz == 0.0, 0.0, -1.0 / np.where(kz == 0.0, 1.0, kz))

    w = (grid.kx3 * V[0] + grid.ky3 * V[1]) * grid.cached(("w_mult",), build)
    w[:, :, 0] = 0.0  # a product with 0 can leave -0.0
    return w


def _raw_with_w(grid: Grid | Band, V: np.ndarray, s: float = 1.0) -> np.ndarray:
    """(V[0], V[1], s * w(V)): the velocity that a horizontal pair (or its
    time derivative) stands for, w weighted by s (eps in (v, eps*w))."""
    return np.concatenate((V, (s * _raw_w_from_v(grid, V))[None]))


def _raw_div_eps_defect(grid: Grid | Band, U: np.ndarray, eps: float) -> float:
    d = grid.kx3 * U[0] + grid.ky3 * U[1] + (grid.kz3 / eps) * U[2]
    return float(np.max(np.abs(d)))


def _raw_require_divergence_free(grid: Grid | Band, U: np.ndarray, what: str) -> None:
    """CompatibilityError unless the velocity U, 2 or 3 components, is
    divergence-free to rounding (1e-12 of its largest term k_j U_j).  The
    divergence form of an advection by U is its convective form only then."""
    terms = [k * c for k, c in zip((grid.kx3, grid.ky3, grid.kz3), U)]
    gap = float(np.max(np.abs(sum(terms))))
    if gap > 1e-12 * max(float(np.max(np.abs(t))) for t in terms):
        raise CompatibilityError(f"{what} is not divergence-free: |div| = {gap:.3e}", gap)


def _raw_advect(
    band: Band, u_phys: Sequence[np.ndarray], scale: Sequence[float],
    parities: Sequence[str] | None = None,
    targets: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Advection in divergence form, the one advection kernel: component
    i < len(scale) is scale[i] * sum_j d_j (X_i u_j) on band, in spectral
    space, dealiased.  X is targets (the cross form), or u itself
    (self-advection).

    u_phys is the stack of physical transport components (3 on the band of
    a cube, 2 on Grid.plane), targets that of the transported fields.  For
    a divergence-free u this equals the convective (u . grad)(scale * X),
    at one forward transform per distinct product X_i u_j (in
    self-advection u_i u_j is u_j u_i) and no inverse transform.  The
    result holds only the band's modes, so it needs no mask.

    In self-advection, given the z-parities of the components (at most one
    of them odd), each product u_i u_j of opposite parities rides in one
    field with the square of u_i, u_i (u_i + u_j): the two are that field's
    odd and even parts.  The divergence is taken of the fields as they are,
    and component i is then projected onto the parity of u_i.  The
    projections commute with the derivatives (d_x and d_y keep a parity,
    d_z swaps it), so each term keeps only the part of its field that is
    the product it stands for, and the result is exactly in the class.
    For (v1, v2, w) two fewer fields are transformed.

    The fields are formed in the band's workspace, field k in slot k, the
    paired ones first, when they fit (the products of a larger cross form
    get an array of their own).  u_phys may lie in the workspace where
    _ExpAB2._phys puts it, (v1, v2, w) in slots 3, 2 and 4 on a cube's band
    (slot 1 holds v1 + w, which no product reads), or in the top two slots
    on the NS2D plane.  So the paired fields go into slots 0-1, v1 v2 over
    v2 (slot 2) and w w over v1 (slot 3): each field overwrites only a
    component that no later field reads.  The targets of a cross form lie
    outside the workspace.
    """
    m, n = len(scale), len(u_phys)
    if targets is None:
        X, products = u_phys, [(i, j) for i in range(m) for j in range(i, n)]
    else:
        X, products = targets, [(i, j) for i in range(m) for j in range(n)]
    fields = [(q,) for q in products]
    if parities:
        paired = [((i, i), (i, j)) for i, j in products if parities[i] != parities[j]]
        fields = paired + [(q,) for q in products if all(q not in f for f in paired)]
    ws = band.workspace
    prod = (ws.real[: len(fields)] if len(fields) <= len(ws.real)
            else np.empty((len(fields), *band.shape)))
    for f, q in zip(prod, fields):
        i, j = q[-1]
        if len(q) == 2:  # u_i (u_i + u_j)
            np.add(u_phys[i], u_phys[j], out=f)
            f *= u_phys[i]
        else:
            np.multiply(X[i], u_phys[j], out=f)
    P = {q: c for c, qs in zip(_raw_to_spec(band, prod), fields) for q in qs}
    if targets is None:
        P.update({(j, i): c for (i, j), c in list(P.items())})
    iks = [_deriv_mult(band, j, 1) for j in range(n)]
    out = np.empty((m, *band.spec_shape), dtype=np.complex128)
    tmp = np.empty(band.spec_shape, dtype=np.complex128)
    for i in range(m):
        np.multiply(iks[0], P[i, 0], out=out[i])
        for j in range(1, n):
            np.multiply(iks[j], P[i, j], out=tmp)
            out[i] += tmp
        if parities:
            out[i] = _raw_parity_project(band, out[i], parities[i])
        if scale[i] != 1:
            out[i] *= scale[i]
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
        bar = _raw_embed_plane(grid, comp.coeffs[..., 0])
        bars.append(SpectralField(grid, bar, comp.parity))
        tildes.append(SpectralField(grid, comp.coeffs - bar, comp.parity))
    return SplitState(bars[0], bars[1], tildes[0], tildes[1], w)


def diff_rhs_F(
    v: Sequence[SpectralField],
    w: SpectralField,
    V: Sequence[SpectralField],
    W: SpectralField,
    eps: float,
    delta: float,
):
    """Right-hand sides of the difference system between the rescaled
    anisotropic system and its horizontal-viscosity limit.

    (v, w) is the limit solution, (V, W) the difference pair with the third
    component carrying the eps-scaled vertical difference.  The 1/eps
    advection weight is evaluated through w(V), the vertical integral of
    -div_H V, so it stays finite as eps -> 0.

    The forcings are computed on grid.band, every transport in divergence
    form (_raw_advect).  That is the convective form because both advecting
    velocities are divergence-free: the limit (v, w), and the difference
    (V, w(V)).  Inputs for which this fails (a w that is not w(v), or a
    vertical average with div_H != 0) raise CompatibilityError, as do
    inputs with content outside the band.

    Returns ((F_H1, F_H2), F_z) in the grid's layout, zero outside the band.
    """
    from .solvers import PrimitiveStepper  # solvers imports this module

    if eps <= 0:
        raise InvalidParameter(f"eps must be > 0, got {eps}")
    grid = v[0].grid
    for fld in (*v, w, *V, W):
        if fld.grid.shape != grid.shape:
            raise ShapeError("all fields must share one grid")
    band = grid.band
    u = _to_band(grid, band, [f.coeffs for f in (*v, w)])
    D = _to_band(grid, band, [f.coeffs for f in (*V, W)])
    b = _raw_with_w(band, D[:2])  # (V, W/eps) with W/eps = w(V)
    _raw_require_divergence_free(band, u, "the limit velocity (v, w)")
    _raw_require_divergence_free(band, b, "the difference velocity (V, w(V))")

    # -(div(v (x) b) + div(V (x) (u + b))) horizontally, and vertically
    # -div((eps w + W) (u + b)): the transports of (v, eps w) by b, of
    # (V, W) by u and b, and the eps-residual's transport of eps w by u
    u_phys, b_phys = _raw_to_phys(band, u), _raw_to_phys(band, b)
    targets = (*b_phys[:2], _raw_to_phys(band, eps * u[2] + D[2]))
    F = -_raw_advect(band, u_phys + b_phys, (1.0, 1.0, 1.0), targets=targets)
    F[:2] -= _raw_advect(band, b_phys, (1.0, 1.0), targets=u_phys[:2])

    # forcing terms that vanish with delta and eps; PE_H gives d_t v
    F[:2] += delta * _deriv_mult(band, 2, 2) * u[:2]
    dt_w = _raw_w_from_v(band, PrimitiveStepper(grid, 0.0, 1.0).rhs(u[:2]))
    F[2] -= eps * (dt_w - _lap_delta_mult(band, delta) * u[2])

    Fh = band.scatter(_raw_parity_project(band, F[:2], EVEN))
    Fz = band.scatter(_raw_parity_project(band, F[2], ODD))
    return (
        (SpectralField(grid, Fh[0], EVEN), SpectralField(grid, Fh[1], EVEN)),
        SpectralField(grid, Fz, ODD),
    )


def baroclinic_rhs(
    vbar: Sequence[SpectralField],
    utilde: Sequence[SpectralField],
):
    """Forcings of the barotropic/baroclinic reformulation.

    vbar is the z-independent horizontal average pair, utilde the mean-free
    triple (vtilde1, vtilde2, w).  Returns (Fbar, Ftilde1, Ftilde2) where
    Fbar is z-independent, Ftilde1 has zero vertical mean by construction,
    and Ftilde2 is the forcing of the vertical-velocity block; all in the
    grid's layout, zero outside the band.

    The forcings are computed on grid.band, every transport in divergence
    form (_raw_advect).  That is the convective form because both advecting
    velocities are divergence-free: vbar (div_H vbar = 0) and utilde
    (w = w(vtilde)); and utilde . grad vbar = div(vbar (x) utilde) since
    d_z vbar = 0.  Inputs for which this fails raise CompatibilityError,
    as do inputs with content outside the band, and a vtilde whose vertical
    mean, or a vbar whose kz != 0 coefficients, exceed 1e-10.
    """
    vb1, vb2 = vbar
    vt1, vt2, wt = utilde
    grid = vb1.grid
    for fld in (vb2, vt1, vt2, wt):
        if fld.grid.shape != grid.shape:
            raise ShapeError("all fields must share one grid")
    for fld, name in ((vt1, "vtilde1"), (vt2, "vtilde2")):
        m = float(np.max(np.abs(fld.coeffs[:, :, 0])))
        if m > 1e-10:
            raise CompatibilityError(f"{name} is not mean-free: {m:.3e}", m)
    for fld, name in ((vb1, "vbar1"), (vb2, "vbar2")):
        m = float(np.max(np.abs(fld.coeffs[:, :, 1:])))
        if m > 1e-10:
            raise CompatibilityError(f"{name} is not z-independent: {m:.3e}", m)
    band = grid.band
    vb = _to_band(grid, band, (vb1.coeffs, vb2.coeffs))
    ut = _to_band(grid, band, (vt1.coeffs, vt2.coeffs, wt.coeffs))
    _raw_require_divergence_free(band, vb, "vbar")
    _raw_require_divergence_free(band, ut, "utilde")

    vb_phys, ut_phys = _raw_to_phys(band, vb), _raw_to_phys(band, ut)
    # utilde . grad (vtilde, w)
    adv = _raw_advect(band, ut_phys, (1.0, 1.0, 1.0), VELOCITY_PARITIES)
    avg = _raw_embed_plane(band, adv[:2, ..., 0])
    # vbar . grad_H (vtilde, w)
    by_bar = _raw_advect(band, vb_phys, (1.0, 1.0, 1.0), targets=ut_phys)
    # utilde . grad vbar = vtilde . grad_H vbar
    of_bar = _raw_advect(band, ut_phys, (1.0, 1.0), targets=vb_phys)

    fbar = band.scatter(-avg)
    ft1 = band.scatter(-(of_bar + by_bar[:2] + adv[:2] - avg))
    ft2 = band.scatter(-(by_bar[2] + adv[2]))
    fbar_f = tuple(SpectralField(grid, fbar[i], EVEN) for i in range(2))
    ft1_f = tuple(SpectralField(grid, ft1[i], EVEN) for i in range(2))
    return fbar_f, ft1_f, SpectralField(grid, ft2, ODD)
