"""Velocity-field assembly on the periodic box.

Provides the two divergence-eliminating projections (scaled, and
hydrostatic: the 2D projection of a pair of kz=0 planes, in place),
recovery of the diagnostic vertical velocity from the horizontal pair, and
the barotropic/baroclinic splitting.

There is one advection kernel, _raw_advect: the steppers' self-advection
in divergence form, sum_j d_j (u_i u_j) on a band.  It is the convective
(u . grad) u only for a divergence-free u, which every stepper's state is.

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

from .errors import ShapeError
from .spectral import (
    EVEN,
    ODD,
    Grid,
    SpectralField,
    _deriv_mult,
    _raw_embed_plane,
    _raw_parity_project,
    _raw_to_phys,  # unused here; perfbench's self-test reads fields._raw_to_phys
    _raw_to_spec,
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

def _peps_tables(grid: Grid, eps: float):
    """kz/eps and the reciprocal 1/(|k_H|^2 + (kz/eps)^2) (1 where that is
    0); kx and ky are the grid's own broadcast views."""
    kz = grid.cached(("kz/eps", float(eps)), lambda: grid.kz3 / eps)

    def build():
        norm2 = grid.k2h + kz**2
        return 1.0 / np.where(norm2 == 0.0, 1.0, norm2)

    return kz, grid.cached(("peps", float(eps)), build)


def _raw_project_eps(grid: Grid, U: np.ndarray, eps: float,
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


def _hproj_tables(grid: Grid) -> np.ndarray:
    """kx, ky and |k_H|^2 (1 at k_H = 0) on the kz=0 plane, complex: a
    product or quotient with a real table converts it to complex on every
    call, and the converted values give the same results bit for bit."""
    def build():
        kx, ky = np.meshgrid(grid.kx, grid.ky, indexing="ij")
        k2 = kx**2 + ky**2
        return np.stack((kx, ky, np.where(k2 == 0.0, 1.0, k2))).astype(np.complex128)

    return grid.cached(("hproj",), build)


def _raw_project_hydro(grid: Grid, P: np.ndarray) -> np.ndarray:
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


def _raw_w_from_v(grid: Grid, V: np.ndarray) -> np.ndarray:
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


def _raw_with_w(grid: Grid, V: np.ndarray, s: float = 1.0) -> np.ndarray:
    """(V[0], V[1], s * w(V)): the velocity that a horizontal pair (or its
    time derivative) stands for, w weighted by s (eps in (v, eps*w))."""
    return np.concatenate((V, (s * _raw_w_from_v(grid, V))[None]))


def _raw_div_eps_defect(grid: Grid, U: np.ndarray, eps: float) -> float:
    d = grid.kx3 * U[0] + grid.ky3 * U[1] + (grid.kz3 / eps) * U[2]
    return float(np.max(np.abs(d)))


def _raw_advect(
    band: Grid, u_phys: Sequence[np.ndarray], scale: Sequence[float],
    parities: Sequence[str] | None = None,
) -> np.ndarray:
    """Self-advection in divergence form, the one advection kernel:
    component i < len(scale) is scale[i] * sum_j d_j (u_i u_j) on band, in
    spectral space, dealiased.

    u_phys is the stack of physical velocity components (3 on the band of
    a cube, 2 on Grid.plane).  For a divergence-free u this equals the
    convective (u . grad)(scale * u), at one forward transform per distinct
    product u_i u_j (u_i u_j is u_j u_i) and no inverse transform.  The
    result holds only the band's modes, so it needs no mask.

    Given the z-parities of the components (at most one of them odd), each
    product u_i u_j of opposite parities rides in one field with the square
    of u_i, u_i (u_i + u_j): the two are that field's odd and even parts.
    The divergence is taken of the fields as they are, and component i is
    then projected onto the parity of u_i.  The projections commute with
    the derivatives (d_x and d_y keep a parity, d_z swaps it), so each term
    keeps only the part of its field that is the product it stands for,
    and the result is exactly in the class.  For (v1, v2, w) two fewer
    fields are transformed.

    The fields are formed in the band's workspace, field k in slot k, the
    paired ones first, when they fit (the six products of three components
    without parities get an array of their own).  u_phys may lie in the
    workspace where _ExpAB2._phys puts it, (v1, v2, w) in slots 3, 2 and 4 on a cube's band
    (slot 1 holds v1 + w, which no product reads), or in the top two slots
    on the NS2D plane.  So the paired fields go into slots 0-1, v1 v2 over
    v2 (slot 2) and w w over v1 (slot 3): each field overwrites only a
    component that no later field reads.
    """
    m, n = len(scale), len(u_phys)
    products = [(i, j) for i in range(m) for j in range(i, n)]
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
            np.multiply(u_phys[i], u_phys[j], out=f)
    P = {q: c for c, qs in zip(_raw_to_spec(band, prod), fields) for q in qs}
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
