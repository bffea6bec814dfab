"""Fourier representation of periodic fields on the box (-1,1)^3.

All fields live on the period-2 torus in each direction, so the fundamental
wavenumber is pi and mode m carries wavenumber pi*m.  Coefficients are stored
in numpy FFT ordering and normalized so that coeff[0,0,0] is the mean of the
field; with that convention the Parseval weight for integrals over the box is
the domain volume 8.

Vertical parity (even/odd in z) is a structural property of every velocity
component here and is tracked on each field.  Parity is enforced by orthogonal
projection rather than assumed, so rounding drift cannot leave the symmetry
class.
"""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np
import scipy.fft as _fft

from .errors import InvalidGrid, InvalidParameter, ShapeError

# transform thread count; results are bitwise independent of this setting
FFT_WORKERS = min(2, os.cpu_count() or 1)

EVEN = "even"
ODD = "odd"
NONE = "none"

PI = np.pi
DOMAIN_VOLUME = 8.0

_PARITY_CODES = {EVEN: 0, ODD: 1, NONE: 2}
_PARITY_FROM_CODE = {v: k for k, v in _PARITY_CODES.items()}


def _mode_numbers(n: int) -> np.ndarray:
    # FFT-ordered integers [0, 1, ..., n/2-1, -n/2, ..., -1]
    return np.fft.fftfreq(n, d=1.0 / n)


@dataclass(frozen=True)
class Grid:
    """Immutable spectral grid: sizes, wavenumber tables, dealias mask."""

    nx: int
    ny: int
    nz: int
    kx: np.ndarray
    ky: np.ndarray
    kz: np.ndarray
    dealias_mask: np.ndarray
    # z-axis index permutation sending mode m to -m (for parity projections)
    zflip: np.ndarray = field(repr=False, compare=False, default=None)
    # precomputed |k_H|^2 (nx, ny, 1) and |k|^2 (nx, ny, nz)
    k2h: np.ndarray = field(repr=False, compare=False, default=None)
    ksq: np.ndarray = field(repr=False, compare=False, default=None)
    # scratch cache for derived multiplier arrays keyed by (tag, params)
    _cache: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    # broadcastable wavenumber arrays
    @property
    def kx3(self) -> np.ndarray:
        return self.kx[:, None, None]

    @property
    def ky3(self) -> np.ndarray:
        return self.ky[None, :, None]

    @property
    def kz3(self) -> np.ndarray:
        return self.kz[None, None, :]

    @property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        return (self.kx, self.ky, self.kz)

    @cached_property
    def plane(self) -> "Plane":
        """The kz=0 coefficient plane of this grid."""
        mask = np.ascontiguousarray(self.dealias_mask[:, :, 0])
        k2h = np.ascontiguousarray(self.k2h[:, :, 0])
        for a in (mask, k2h):
            a.setflags(write=False)
        return Plane(self.nx, self.ny, self.kx, self.ky, mask, k2h)

    def cached(self, key, build):
        out = self._cache.get(key)
        if out is None:
            out = build()
            out.setflags(write=False)
            self._cache[key] = out
        return out


@dataclass(frozen=True)
class Plane:
    """The kz=0 coefficient plane of a grid.

    A z-independent field is stored as the (nx, ny) array of its kz=0
    coefficients, with the grid's phase and normalization: plane[i, j] is
    cube[i, j, 0], and the 2D transforms over (nx, ny) give the field's values
    on the horizontal lattice.  The transforms, _raw_inner and
    fields._raw_advect accept a Plane in place of a Grid; the Parseval
    weight stays the box volume 8.
    """

    nx: int
    ny: int
    kx: np.ndarray
    ky: np.ndarray
    dealias_mask: np.ndarray
    # |k_H|^2 (nx, ny), which is |k|^2 at kz = 0
    k2h: np.ndarray = field(repr=False, compare=False)
    _cache: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def size(self) -> int:
        return self.nx * self.ny

    @property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        return (self.kx, self.ky)

    @property
    def ksq(self) -> np.ndarray:
        return self.k2h

    cached = Grid.cached


def make_grid(nx: int, ny: int, nz: int) -> Grid:
    """Build a grid with pi-based wavenumbers and the symmetric 2/3-rule mask.

    The mask keeps mode m on an axis of size n exactly when |m| <= n//3, so
    quadratic products of masked fields are alias-free on the kept modes.
    """
    for n in (nx, ny, nz):
        if not isinstance(n, (int, np.integer)):
            raise InvalidGrid(f"grid sizes must be integers, got {n!r}")
        if n < 4 or n % 2 != 0:
            raise InvalidGrid(f"grid sizes must be even and >= 4, got {n}")

    axes = []
    keeps = []
    for n in (nx, ny, nz):
        m = _mode_numbers(n)
        axes.append(PI * m)
        keeps.append(np.abs(m) <= n // 3)
    mask = keeps[0][:, None, None] & keeps[1][None, :, None] & keeps[2][None, None, :]

    zflip = (-np.arange(nz)) % nz
    k2h = axes[0][:, None, None] ** 2 + axes[1][None, :, None] ** 2
    ksq = k2h + axes[2][None, None, :] ** 2
    arrays = [*axes, mask, zflip, k2h, ksq]
    for a in arrays:
        a.setflags(write=False)
    return Grid(nx, ny, nz, axes[0], axes[1], axes[2], mask, zflip, k2h, ksq)


@dataclass(frozen=True)
class PhysicalField:
    """Real samples on the collocation lattice x_i = -1 + 2 i / n per axis."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ShapeError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidParameter("physical field contains NaN/Inf")
        v = np.asarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a real scalar field with z-parity tag."""

    grid: Grid
    coeffs: np.ndarray
    parity: str = NONE

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise ShapeError(
                f"coeffs shape {self.coeffs.shape} != grid shape {self.grid.shape}"
            )
        if self.parity not in _PARITY_CODES:
            raise InvalidParameter(f"unknown parity {self.parity!r}")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if not np.all(np.isfinite(c)):
            raise InvalidParameter("spectral field contains NaN/Inf")
        c = c.copy() if not c.flags.owndata else c
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _wrap(cls, grid: Grid, coeffs: np.ndarray, parity: str) -> "SpectralField":
        """Internal no-copy constructor for solver loops; the caller is
        responsible for finiteness and ownership."""
        self = object.__new__(cls)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "parity", parity)
        return self

    # light arithmetic used by tests and the harness
    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        parity = self.parity if self.parity == other.parity else NONE
        return SpectralField(self.grid, self.coeffs + other.coeffs, parity)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        parity = self.parity if self.parity == other.parity else NONE
        return SpectralField(self.grid, self.coeffs - other.coeffs, parity)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * a, self.parity)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField") -> None:
        if other.grid.shape != self.grid.shape:
            raise ShapeError("fields live on different grids")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def zero_field(grid: Grid, parity: str = NONE) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128), parity)


# ---------------------------------------------------------------------------
# raw-array kernels (shared by fields/solvers; coefficient convention as above)
# ---------------------------------------------------------------------------

def _lattice_phase(grid: Grid | Plane) -> np.ndarray:
    """(-1)^(mx+my+mz): relates FFT output on the lattice starting at -1 to
    true Fourier coefficients with respect to exp(i k . x).  On a plane mz = 0,
    so its phase is the grid's kz=0 slice."""

    def build():
        signs = []
        for k in grid.wavenumbers:
            m = np.rint(k / PI).astype(np.int64)
            signs.append(np.where(m % 2 == 0, 1.0, -1.0))
        return reduce(operator.mul, np.ix_(*signs))

    return grid.cached(("phase",), build)


def _axes(grid: Grid | Plane) -> tuple[int, ...]:
    return tuple(range(-len(grid.shape), 0))


def _raw_to_phys(grid: Grid | Plane, c: np.ndarray) -> np.ndarray:
    ph = _lattice_phase(grid)
    return _fft.ifftn(c * ph, axes=_axes(grid), workers=FFT_WORKERS).real * grid.size


def _raw_to_spec(grid: Grid | Plane, p: np.ndarray) -> np.ndarray:
    ph = _lattice_phase(grid)
    return _fft.fftn(p, axes=_axes(grid), workers=FFT_WORKERS) * (ph / grid.size)


def _raw_embed_plane(grid: Grid, P: np.ndarray) -> np.ndarray:
    """Coefficient cubes of the z-independent fields whose kz=0 planes are P."""
    out = np.zeros((*P.shape[:-2], *grid.shape), dtype=np.complex128)
    out[..., 0] = P
    return out


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def _raw_deriv(grid: Grid, c: np.ndarray, axis: str, order: int = 1) -> np.ndarray:
    k = (grid.kx3, grid.ky3, grid.kz3)[_AXIS_INDEX[axis]]
    return c * (1j * k) ** order


def _raw_parity_project(grid: Grid, c: np.ndarray, parity: str) -> np.ndarray:
    reflected = c[..., grid.zflip]
    if parity == EVEN:
        return 0.5 * (c + reflected)
    return 0.5 * (c - reflected)


def _raw_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """L2(Omega) pairing of (stacks of) real fields from their coefficients."""
    return float(np.real(np.sum(np.conj(a) * b)) * DOMAIN_VOLUME)


def _lap_delta_mult(grid: Grid, delta: float) -> np.ndarray:
    return grid.cached(
        ("lap_delta", float(delta)),
        lambda: -(grid.k2h + delta * grid.kz3**2),
    )


# --- public operations ------------------------------------------------------

def forward_transform(f: PhysicalField) -> SpectralField:
    """Collocation values -> coefficients; the constant field 1 maps to
    coeff[0,0,0] = 1."""
    return SpectralField(f.grid, _raw_to_spec(f.grid, f.values), NONE)


def inverse_transform(F: SpectralField) -> PhysicalField:
    return PhysicalField(F.grid, _raw_to_phys(F.grid, F.coeffs))


def field_from_function(
    grid: Grid, fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    parity: str = NONE,
) -> SpectralField:
    """Sample fn(x, y, z) on the lattice and transform.  Test/recipe helper."""
    x = -1.0 + 2.0 * np.arange(grid.nx) / grid.nx
    y = -1.0 + 2.0 * np.arange(grid.ny) / grid.ny
    z = -1.0 + 2.0 * np.arange(grid.nz) / grid.nz
    X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
    vals = np.asarray(fn(X, Y, Z), dtype=np.float64)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    return SpectralField(grid, _raw_to_spec(grid, vals), parity)


def spectral_derivative(F: SpectralField, axis: str, order: int = 1) -> SpectralField:
    """Exact derivative: multiply by (i k_axis)^order.

    Odd-order z-derivatives flip even <-> odd parity.
    """
    if axis not in _AXIS_INDEX:
        raise InvalidParameter(f"axis must be one of x/y/z, got {axis!r}")
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise InvalidParameter(f"derivative order must be an integer >= 1, got {order}")
    parity = F.parity
    if axis == "z" and order % 2 == 1 and parity in (EVEN, ODD):
        parity = ODD if parity == EVEN else EVEN
    return SpectralField(F.grid, _raw_deriv(F.grid, F.coeffs, axis, order), parity)


def dealias(F: SpectralField) -> SpectralField:
    """Zero every mode outside the 2/3-rule mask."""
    return SpectralField(F.grid, F.coeffs * F.grid.dealias_mask, F.parity)


def enforce_parity(F: SpectralField, parity: str) -> SpectralField:
    """Orthogonal projection onto the declared z-parity subspace.

    Odd parity zeroes the kz=0 plane automatically (c - c)/2 there.
    """
    if parity not in (EVEN, ODD):
        raise InvalidParameter(f"parity must be even or odd, got {parity!r}")
    return SpectralField(F.grid, _raw_parity_project(F.grid, F.coeffs, parity), parity)


def laplacian_delta(F: SpectralField, delta: float) -> SpectralField:
    """Anisotropic Laplacian: per-mode multiplication by -(kx^2+ky^2) - delta kz^2."""
    if delta < 0:
        raise InvalidParameter(f"delta must be >= 0, got {delta}")
    return SpectralField(F.grid, F.coeffs * _lap_delta_mult(F.grid, delta), F.parity)


def inner_l2(a: SpectralField, b: SpectralField) -> float:
    """Discrete L2(Omega) inner product (volume-weighted Parseval)."""
    a._check_same_grid(b)
    return _raw_inner(a.grid, a.coeffs, b.coeffs)


def parity_defect(F: SpectralField) -> float:
    """Max-norm distance of the coefficients from the declared parity class."""
    if F.parity == NONE:
        return 0.0
    proj = _raw_parity_project(F.grid, F.coeffs, F.parity)
    return float(np.max(np.abs(F.coeffs - proj)))
