"""Fourier representation of periodic fields on the box (-1,1)^3.

All fields live on the period-2 torus in each direction, so the fundamental
wavenumber is pi and mode m carries wavenumber pi*m.  Coefficients are
normalized so that coeff[0,0,0] is the mean of the field; with that
convention the Parseval weight for integrals over the box is the domain
volume 8.

Every field is real, so its coefficients are conjugate-symmetric:
c[-k] = conj(c[k]).  A field on a Grid therefore stores only the kz >= 0
half, shape grid.spec_shape = (nx, ny, nz//2 + 1), Nyquist plane included,
with kx and ky in numpy FFT order: the layout of an rfftn.  The
kz < 0 half is the conjugate mirror c[kx, ky, -kz] = conj(c[-kx, -ky, kz]).
A sum over all modes is a sum over the stored planes in which each plane
with 0 < kz < nz/2 counts twice (Grid.parseval_weight).  Odd-order
derivatives zero the Nyquist modes of their axis, where (i k) c is not the
coefficient of any real field.

The time steppers hold a second layout, a Band: only the modes that the 2/3
dealias mask keeps, |m| < n/3 on every axis.  That set is a tensor product,
so a band is a grid-like layout of its own, shape (2K+1, 2K+1, K+1) on a
cube with K = (n-1)//3, kx and ky in FFT order and no Nyquist mode.  The
transforms, the multipliers and the sums below accept a Band, or the Band of
a Plane, in place of a Grid; Band.gather and Band.scatter convert between a
band and its parent's layout.

The band of a cube owns one Workspace, built on first use: the lattice-size
arrays of a nonlinear evaluation, reused by every step of every stepper on
that band, so that stepping allocates nothing at lattice size.  A band is
therefore stepped by one thread at a time; every run, matched family and
sweep point builds its own grid, and with it its own band.

Every transform is a sequence of one-dimensional numpy.fft passes, run in
place where it can be, in the order of pocketfft's multi-axis transforms:
the forward a real pass of the last axis, one scaling by 1/N, then complex
passes of the leading axes, leading axis first; the inverse complex passes
of the leading axes, leading axis first, then a real pass of the last axis.
The passes are pocketfft's own (numpy.fft is pocketfft), so the results are
bit for bit those of scipy.fft's rfftn, fftn and irfftn, which the tests
use as their reference.  On the band of a cube the passes run in its
workspace and only where the band has modes: the forward's x pass on the
kept kz planes and its y pass on the kept kx rows of those, the inverse's
x pass on the kept (ky, kz) columns and its y pass on the kept kz planes.
The lines left out hold zeros, or outputs the band drops, so the band's
modes stay bit for bit those of the full transforms.

Vertical parity (even/odd in z) is a structural property of every velocity
component here and is tracked on each field.  Parity is enforced by orthogonal
projection rather than assumed, so rounding drift cannot leave the symmetry
class.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .errors import InvalidGrid, InvalidParameter, ShapeError

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


def _kept(m: np.ndarray, n: int) -> np.ndarray:
    """The 2/3 rule: which modes m of an axis of n points the mask keeps."""
    return 3 * np.abs(m) < n


@dataclass(frozen=True)
class Grid:
    """Immutable spectral grid: sizes, wavenumber tables, dealias mask.

    shape is the physical lattice; coefficient arrays have spec_shape, the
    kz >= 0 half.  kz holds only those nz//2 + 1 wavenumbers, so every table
    built from kz3 has the coefficient shape.
    """

    nx: int
    ny: int
    nz: int
    kx: np.ndarray
    ky: np.ndarray
    kz: np.ndarray
    dealias_mask: np.ndarray
    # precomputed |k_H|^2 (nx, ny, 1) and |k|^2 (nx, ny, nz//2 + 1)
    k2h: np.ndarray = field(repr=False, compare=False, default=None)
    ksq: np.ndarray = field(repr=False, compare=False, default=None)
    # scratch cache for derived multiplier arrays keyed by (tag, params)
    _cache: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def spec_shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz // 2 + 1)

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """Per-kz-plane weight of a sum over the stored coefficients: the box
        volume, doubled on the planes 0 < kz < nz/2 that also stand for
        their kz < 0 mirror."""
        w = np.full(self.nz // 2 + 1, 2.0 * DOMAIN_VOLUME)
        w[0] = w[-1] = DOMAIN_VOLUME
        w.setflags(write=False)
        return w

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
    def kmax(self) -> float:
        """The largest wavenumber magnitude the dealias mask keeps."""
        return max(float(np.max(np.abs(k) * self.dealias_mask))
                   for k in (self.kx3, self.ky3, self.kz3))

    @cached_property
    def plane(self) -> "Plane":
        """The kz=0 coefficient plane of this grid."""
        mask = np.ascontiguousarray(self.dealias_mask[:, :, 0])
        k2h = np.ascontiguousarray(self.k2h[:, :, 0])
        for a in (mask, k2h):
            a.setflags(write=False)
        return Plane(self.nx, self.ny, self.kx, self.ky, mask, k2h)

    @cached_property
    def band(self) -> "Band":
        """The modes of this grid that the dealias mask keeps."""
        return Band.of(self)

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

    A z-independent field is stored as the full (nx, ny) array of its kz=0
    coefficients, with the grid's phase and normalization: plane[i, j] is
    cube[i, j, 0], and the 2D transforms over (nx, ny) give the field's values
    on the horizontal lattice.  The transforms, _raw_inner and the
    advection kernels of fields accept a Plane in place of a Grid; the
    Parseval weight stays the box volume 8.  The NS2D stepper holds its
    state on the plane's Band, which is the kz=0 plane of the grid's.
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

    spec_shape = shape

    @property
    def size(self) -> int:
        return self.nx * self.ny

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """Per-ky weight of a sum over the plane: the box volume."""
        w = np.full(self.ny, DOMAIN_VOLUME)
        w.setflags(write=False)
        return w

    @property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        return (self.kx, self.ky)

    @property
    def ksq(self) -> np.ndarray:
        return self.k2h

    @cached_property
    def band(self) -> "Band":
        """The modes of this plane that the dealias mask keeps: the kz=0
        plane of the grid's band."""
        return Band.of(self)

    cached = Grid.cached


@dataclass(frozen=True, eq=False)
class Workspace:
    """Lattice-size scratch arrays of the nonlinear evaluations on one 3D Band.

    real holds WORKSPACE_FIELDS lattice fields: a stepper's inverse transform
    writes its velocities into the top slots and fields._raw_advect_div forms
    the products u_i u_j from the first slot up.  cplx holds
    WORKSPACE_BATCH kz >= 0 halves, where the band's transforms run their
    passes, that many fields at a time.  stage holds WORKSPACE_BATCH arrays
    of the kept (ky, kz) columns of every kx, shape (nx, 2K+1, K+1), where
    the inverse runs its x pass.  Every call leaves in them nothing that a
    later call reads.
    """

    real: np.ndarray
    cplx: np.ndarray
    stage: np.ndarray


# the distinct products u_i u_j of three velocity components
WORKSPACE_FIELDS = 6
WORKSPACE_BATCH = 3


@dataclass(frozen=True, eq=False)
class Band:
    """The modes of a Grid, or of a Plane, that the 2/3 dealias mask keeps.

    Mode m on an axis of n points is kept when 3|m| < n, so the kept set is
    the tensor product of one index set per axis and needs no mask: a band
    array holds exactly the kept coefficients, shape spec_shape.  index[a]
    lists their positions in the parent's coefficient layout along axis a:
    on kx and ky (and on a plane's ky) the modes [0..K, -K..-1], which is
    itself the FFT order of 2K+1 modes; on kz the prefix [0..K].  No kept
    mode is a Nyquist mode, and the set is closed under k -> -k.

    A band stands in for its parent wherever a grid-like object is read:
    shape, nx, ny (nz on a cube) are the parent's physical sizes, so the
    transforms map band coefficients to the full lattice and back, while the
    wavenumbers, k2h, ksq, parseval_weight and the cached multipliers are
    those of the kept modes.  It keeps the parent's sizes, not the parent,
    so the band that a parent caches makes no reference cycle with it.

    The band of a cube owns the Workspace of its transforms (see the module
    docstring).
    """

    shape: tuple[int, ...]
    parent_spec_shape: tuple[int, ...]
    index: tuple[np.ndarray, ...]
    wavenumbers: tuple[np.ndarray, ...]
    k2h: np.ndarray = field(repr=False)
    ksq: np.ndarray = field(repr=False)
    # the parent's weight on the kept planes of the last axis
    parseval_weight: np.ndarray = field(repr=False)
    _cache: dict = field(repr=False, default_factory=dict)

    @classmethod
    def of(cls, parent: Grid | Plane) -> "Band":
        index = tuple(
            np.flatnonzero(_kept(np.rint(k / PI), n))
            for k, n in zip(parent.wavenumbers, parent.shape)
        )
        ks = tuple(k[i] for k, i in zip(parent.wavenumbers, index))
        k2h = np.add.outer(ks[0] ** 2, ks[1] ** 2)
        if len(ks) == 3:
            k2h = k2h[:, :, None]
            ksq = k2h + ks[2][None, None, :] ** 2
        else:
            ksq = k2h
        weight = parent.parseval_weight[index[-1]]
        for a in (*index, *ks, k2h, ksq, weight):
            a.setflags(write=False)
        return cls(parent.shape, parent.spec_shape, index, ks, k2h, ksq, weight)

    nx = property(lambda self: self.shape[0])
    ny = property(lambda self: self.shape[1])
    nz = property(lambda self: self.shape[2])

    @property
    def spec_shape(self) -> tuple[int, ...]:
        return tuple(len(i) for i in self.index)

    kx = property(lambda self: self.wavenumbers[0])
    ky = property(lambda self: self.wavenumbers[1])
    kz = property(lambda self: self.wavenumbers[2])
    kx3 = Grid.kx3
    ky3 = Grid.ky3
    kz3 = Grid.kz3

    @cached_property
    def workspace(self) -> Workspace | None:
        """The transform workspace of a cube's band: 6 real lattice fields,
        3 complex halves and 3 staged x passes, about 2.8 MB at 32^3; None on
        the band of a plane, whose lattice is small."""
        if len(self.shape) != 3:
            return None
        nx, ny, nz = self.shape
        return Workspace(
            np.empty((WORKSPACE_FIELDS, nx, ny, nz)),
            np.empty((WORKSPACE_BATCH, nx, ny, nz // 2 + 1), np.complex128),
            np.empty((WORKSPACE_BATCH, nx, *self.spec_shape[1:]), np.complex128),
        )

    @cached_property
    def _where(self) -> tuple:
        """Index of the band in the parent's coefficient layout: the leading
        axes by their positions, the last by a slice where it is a prefix
        (half the cost of a third index array)."""
        last = self.index[-1]
        if np.array_equal(last, np.arange(len(last))):
            return (Ellipsis, *np.ix_(*self.index[:-1]), slice(0, len(last)))
        return (Ellipsis, *np.ix_(*self.index))

    @cached_property
    def _half(self) -> tuple[tuple, int]:
        """(index in the parent's half spectrum, the inverse transform's
        input, of the band modes with m >= 0 on the last axis; their number,
        a prefix of the band's last axis)."""
        n = int(np.count_nonzero(self.index[-1] <= self.shape[-1] // 2))
        return (Ellipsis, *np.ix_(*self.index[:-1]), slice(0, n)), n

    def gather(self, c: np.ndarray) -> np.ndarray:
        """The band's coefficients of (stacks of) parent-layout arrays c."""
        return c[self._where]

    def scatter(self, b: np.ndarray) -> np.ndarray:
        """The parent-layout coefficients of (stacks of) band arrays b: zero
        outside the band."""
        nd = len(self.index)
        out = np.zeros((*b.shape[:-nd], *self.parent_spec_shape), dtype=np.complex128)
        out[self._where] = b
        return out

    cached = Grid.cached


def _workspace(grid: Grid | Plane | Band) -> Workspace | None:
    """The transform workspace of the band of a cube; None on every other
    layout, whose transforms allocate their arrays."""
    return grid.workspace if isinstance(grid, Band) else None


def make_grid(nx: int, ny: int, nz: int) -> Grid:
    """Build a grid with pi-based wavenumbers and the symmetric 2/3-rule mask.

    kx and ky are in numpy FFT order; kz = pi * [0, 1, ..., nz/2], the
    non-negative half that indexes the stored coefficients.

    The mask keeps mode m on an axis of size n exactly when 3|m| < n, so
    quadratic products of masked fields are alias-free on the kept modes
    for every n: the sum of two kept modes is below 2n/3 in size, and its
    alias, n away, is above n/3.
    """
    for n in (nx, ny, nz):
        if not isinstance(n, (int, np.integer)):
            raise InvalidGrid(f"grid sizes must be integers, got {n!r}")
        if n < 4 or n % 2 != 0:
            raise InvalidGrid(f"grid sizes must be even and >= 4, got {n}")

    modes = (_mode_numbers(nx), _mode_numbers(ny), np.arange(nz // 2 + 1.0))
    axes = [PI * m for m in modes]
    keeps = [_kept(m, n) for m, n in zip(modes, (nx, ny, nz))]
    mask = keeps[0][:, None, None] & keeps[1][None, :, None] & keeps[2][None, None, :]

    k2h = axes[0][:, None, None] ** 2 + axes[1][None, :, None] ** 2
    ksq = k2h + axes[2][None, None, :] ** 2
    arrays = [*axes, mask, k2h, ksq]
    for a in arrays:
        a.setflags(write=False)
    return Grid(nx, ny, nz, axes[0], axes[1], axes[2], mask, k2h, ksq)


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
    """Complex Fourier coefficients of a real scalar field with z-parity tag.

    coeffs holds the kz >= 0 half, shape grid.spec_shape; a full (nx, ny, nz)
    cube is rejected rather than read as a half.
    """

    grid: Grid
    coeffs: np.ndarray
    parity: str = NONE

    def __post_init__(self):
        if self.coeffs.shape != self.grid.spec_shape:
            raise ShapeError(
                f"coeffs shape {self.coeffs.shape} != {self.grid.spec_shape}: "
                f"a field on the {self.grid.shape} grid stores the kz >= 0 half "
                "of its coefficients"
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


def zero_field(grid: Grid, parity: str = NONE) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.spec_shape, dtype=np.complex128), parity)


# ---------------------------------------------------------------------------
# raw-array kernels (shared by fields/solvers; coefficient convention as above)
# ---------------------------------------------------------------------------

def _lattice_phase(grid: Grid | Plane | Band) -> np.ndarray:
    """(-1)^(mx+my+mz): relates FFT output on the lattice starting at -1 to
    true Fourier coefficients with respect to exp(i k . x), in the shape of
    the stored coefficients.  On a plane mz = 0, so its phase is the grid's
    kz=0 slice."""

    def build():
        signs = []
        for k in grid.wavenumbers:
            m = np.rint(k / PI).astype(np.int64)
            signs.append(np.where(m % 2 == 0, 1.0, -1.0))
        return reduce(operator.mul, np.ix_(*signs))

    return grid.cached(("phase",), build)


def _leading_axes(grid: Grid | Plane | Band) -> tuple[int, ...]:
    """The axes of the complex passes, leading axis first: all but the last."""
    return tuple(range(-len(grid.shape), -1))


def _forward_scale(grid: Grid | Plane | Band) -> float:
    """The forward transform's factor 1/N, computed as pocketfft computes it:
    the reciprocal in long double, rounded once."""
    return float(1 / np.longdouble(math.prod(grid.shape)))


def _raw_to_phys(
    grid: Grid | Plane | Band, c: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Lattice values of (stacks of) real fields from their coefficients,
    written to out (C-contiguous; a new array when None).

    An irfftn of the last axis's non-negative half: all of c on a Grid, the
    ky >= 0 half on a Plane, whose other half must be its conjugate mirror.
    A Band is first padded with zeros into its parent's half.  The passes
    are those of the module docstring, the complex ones in place on that
    half; on the band of a cube they run in its workspace (_band_to_phys).
    """
    ws = _workspace(grid)
    if ws is not None:
        return _band_to_phys(grid, ws, c, out)
    h = grid.shape[-1] // 2 + 1
    phase = _lattice_phase(grid)
    if isinstance(grid, Band):
        where, n = grid._half
        half = np.zeros(
            (*c.shape[: c.ndim - len(grid.shape)], *grid.shape[:-1], h),
            dtype=np.complex128,
        )
        half[where] = c[..., :n] * phase[..., :n]
    else:
        half = c[..., :h] * phase[..., :h]
    for axis in _leading_axes(grid):
        np.fft.ifft(half, axis=axis, norm="forward", out=half)
    return np.fft.irfft(half, n=grid.shape[-1], axis=-1, norm="forward", out=out)


def _band_to_phys(
    band: Band, ws: Workspace, c: np.ndarray, out: np.ndarray | None
) -> np.ndarray:
    """_raw_to_phys on the band of a cube, WORKSPACE_BATCH fields at a time.

    Only the band's modes are nonzero, so each pass runs only where its
    input can be: the x pass on the kept (ky, kz) columns, staged in
    ws.stage; the y pass on the kept kz planes of the half, which is zero
    elsewhere; the z pass on the whole half.  The other lines are zero, and
    so is their transform, so the result is the irfftn bit for bit.
    """
    n = band.spec_shape[-1]  # the kept kz planes, a prefix of the half
    rows, cols = band.index[:2]
    phase = _lattice_phase(band)
    if out is None:
        out = np.empty((*c.shape[:-3], *band.shape))
    cs, lattice = c.reshape(-1, *band.spec_shape), out.reshape(-1, *band.shape)
    for s in range(0, len(cs), WORKSPACE_BATCH):
        part = cs[s : s + WORKSPACE_BATCH]
        stage, half = ws.stage[: len(part)], ws.cplx[: len(part)]
        stage.fill(0.0)
        stage[:, rows] = part * phase
        np.fft.ifft(stage, axis=1, norm="forward", out=stage)
        half.fill(0.0)
        half[:, :, cols, :n] = stage
        kept = half[..., :n]
        np.fft.ifft(kept, axis=2, norm="forward", out=kept)
        np.fft.irfft(half, n=band.nz, axis=-1, norm="forward",
                     out=lattice[s : s + len(part)])
    return out


def _raw_to_spec(grid: Grid | Plane | Band, p: np.ndarray) -> np.ndarray:
    """Coefficients of (stacks of) real fields from their lattice values:
    the kz >= 0 half on a Grid (an rfftn), the full plane on a Plane (an
    fftn), and on a Band the kept modes of its parent's.  The passes are
    those of the module docstring; a plane's coefficients are then read off
    the ky <= ny/2 half they give (_plane_sources), and on the band of a
    cube the passes run in its workspace (_band_to_spec).
    """
    ws = _workspace(grid)
    if ws is not None:
        return _band_to_spec(grid, ws, p)
    out = np.fft.rfft(p, axis=-1)
    out *= _forward_scale(grid)
    for axis in _leading_axes(grid):
        np.fft.fft(out, axis=axis, out=out)
    if len(grid.shape) == 2:
        source, conj = _plane_sources(grid)
        lead = out.shape[:-2]
        out = np.take(out.reshape(*lead, -1), source, axis=-1)
        np.conjugate(out, out=out, where=conj)
        out = out.reshape(*lead, *grid.spec_shape)
    out *= _lattice_phase(grid)
    return out


def _plane_sources(grid: Plane | Band) -> tuple[np.ndarray, np.ndarray]:
    """Where each coefficient of a plane (or of its band) sits in the
    ky <= ny/2 half of its fftn, flat, and whether it is the conjugate of
    that entry, as pocketfft fills the fftn of real input: the columns
    ky > ny/2 are conj(c[-kx, ny - ky]), and the columns ky = 0 and ny/2
    are conj(c[-kx, ky]) at kx = 0 and kx >= nx/2 (at kx = 0 and nx/2 the
    conjugate of the mode itself)."""
    nx, ny = grid.shape
    h = ny // 2 + 1

    def build(conj: bool) -> np.ndarray:
        at = grid.index if isinstance(grid, Band) else (np.arange(nx), np.arange(ny))
        kx, ky = np.ix_(*at)
        mirror = (ky > ny // 2) | ((ky % (ny // 2) == 0) & ((kx == 0) | (kx >= nx // 2)))
        if conj:
            return mirror.ravel()
        return np.where(mirror, -kx % nx * h + -ky % ny, kx * h + ky).ravel()

    return (grid.cached(("plane_source",), lambda: build(False)),
            grid.cached(("plane_conj",), lambda: build(True)))


def _band_to_spec(band: Band, ws: Workspace, p: np.ndarray) -> np.ndarray:
    """_raw_to_spec on the band of a cube, WORKSPACE_BATCH fields at a time.

    Each pass runs only where the band keeps its output: the x pass on the
    kept kz planes of the half, the y pass on the kept kx rows of those
    planes (two runs, [0, K] and [-K, -1], in place).  Every line is the
    same arithmetic as in the rfftn, so the band's modes are bit for bit.
    """
    n = band.spec_shape[-1]  # the kept kz planes, a prefix of the half
    K = band.spec_shape[0] // 2
    runs = (slice(0, K + 1), slice(band.nx - K, band.nx))
    norm = _forward_scale(band)
    ps = p.reshape(-1, *band.shape)
    out = np.empty((len(ps), *band.spec_shape), dtype=np.complex128)
    for s in range(0, len(ps), WORKSPACE_BATCH):
        part = ps[s : s + WORKSPACE_BATCH]
        half = ws.cplx[: len(part)]
        np.fft.rfft(part, axis=-1, out=half)
        kept = half[..., :n]
        kept *= norm
        np.fft.fft(kept, axis=1, out=kept)
        for rows in runs:
            kept_rows = kept[:, rows]
            np.fft.fft(kept_rows, axis=2, out=kept_rows)
        out[s : s + len(part)] = band.gather(half)
    out *= _lattice_phase(band)
    return out.reshape(*p.shape[:-3], *band.spec_shape)


def _raw_embed_plane(grid: Grid | Band, P: np.ndarray) -> np.ndarray:
    """Coefficients of the z-independent fields whose kz=0 planes are P."""
    out = np.zeros((*P.shape[:-2], *grid.spec_shape), dtype=np.complex128)
    out[..., 0] = P
    return out


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def _is_nyquist(grid: Grid | Plane | Band, axis: int) -> np.ndarray:
    """Which stored modes of an axis are its Nyquist mode |m| = n/2: index
    n//2 of kx and ky, the last plane of the half-length kz; none on a Band."""
    m = np.rint(grid.wavenumbers[axis] / PI)
    return 2 * np.abs(m) == grid.shape[axis]


def _deriv_mult(grid: Grid | Plane | Band, axis: int, order: int) -> np.ndarray:
    """(i k)^order along one axis, broadcastable over the grid.

    For odd orders the Nyquist mode is zeroed: there -k is k itself, so
    (i k) c is not conjugate-symmetric, and no real field has it as its
    coefficient.
    """

    def build():
        k = grid.wavenumbers[axis].copy()
        if order % 2 == 1:
            k[_is_nyquist(grid, axis)] = 0.0
        shape = [1] * len(grid.shape)
        shape[axis] = len(k)
        return (1j * k.reshape(shape)) ** order

    return grid.cached(("deriv", axis, order), build)


def _raw_deriv(grid: Grid, c: np.ndarray, axis: str, order: int = 1) -> np.ndarray:
    return c * _deriv_mult(grid, _AXIS_INDEX[axis], order)


def _raw_hflip(grid: Grid | Band, c: np.ndarray) -> np.ndarray:
    """c[..., -kx, -ky, :], a new array.  kx and ky are in FFT order, on a
    Band too, so -m sits at index (-i) mod (axis length)."""
    bx, by = grid.spec_shape[:2]

    def build():
        ix = (-np.arange(bx)) % bx
        iy = (-np.arange(by)) % by
        return (ix[:, None] * by + iy[None, :]).ravel()

    flat = c.reshape(*c.shape[:-3], bx * by, c.shape[-1])
    out = np.take(flat, grid.cached(("hflip",), build), axis=-2)
    return out.reshape(c.shape)


def _raw_parity_project(grid: Grid | Band, c: np.ndarray, parity: str) -> np.ndarray:
    """Orthogonal projection onto the even or odd functions of z.

    Reflecting z sends the coefficient at kz to the one at -kz, which this
    layout stores as conj(c[-kx, -ky, kz]).  The kz=0 plane and, on a Grid,
    the Nyquist plane are their own reflection, so an odd field vanishes
    there; they are written as exact zeros rather than as the rounding
    residue of that difference.
    """
    out = np.conjugate(_raw_hflip(grid, c))
    if parity == EVEN:
        out += c
    else:
        np.subtract(c, out, out=out)
        out[..., 0] = 0.0
        if _is_nyquist(grid, 2)[-1]:
            out[..., -1] = 0.0
    out *= 0.5
    return out


def _raw_wsum(grid: Grid | Plane | Band, x: np.ndarray) -> float:
    """Integral over the box that a sum of x over all modes represents: the
    sum over the stored coefficients with grid.parseval_weight."""
    return float(np.sum(x @ grid.parseval_weight))


def _raw_inner(grid: Grid | Plane | Band, a: np.ndarray, b: np.ndarray) -> float:
    """L2(Omega) pairing of (stacks of) real fields from their coefficients."""
    return _raw_wsum(grid, (np.conj(a) * b).real)


def _lap_delta_mult(grid: Grid | Band, delta: float) -> np.ndarray:
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
    """Coefficients -> collocation values."""
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

    Odd parity zeroes the kz=0 and Nyquist planes exactly.
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
