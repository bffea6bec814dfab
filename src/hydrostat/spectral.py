"""Fourier representation of periodic fields on the box (-1,1)^3.

All fields live on the period-2 torus in each direction, so the fundamental
wavenumber is pi and mode m carries wavenumber pi*m.  Coefficients are
normalized so that coeff[0,0,0] is the mean of the field; with that
convention the Parseval weight for integrals over the box is the domain
volume 8.

Every field is real, so its coefficients are conjugate-symmetric:
c[-k] = conj(c[k]).  A field on a grid therefore stores only the kz >= 0
half, shape grid.spec_shape = (nx, ny, nz//2 + 1), Nyquist plane included,
with kx and ky in numpy FFT order: the layout of an rfftn.  The
kz < 0 half is the conjugate mirror c[kx, ky, -kz] = conj(c[-kx, -ky, kz]).
A sum over all modes is a sum over the stored planes in which each plane
with 0 < kz < nz/2 counts twice (Grid.parseval_weight).  Odd-order
derivatives zero the Nyquist modes of their axis, where (i k) c is not the
coefficient of any real field.

Every layout of coefficients is a Grid: a lattice, its parent's
coefficient shape, and one index set per axis with those modes'
wavenumbers.  make_grid builds the kz >= 0 half of a cube, its own
parent.  The time steppers hold a restriction of it, built by the same
constructor: grid.band, only the modes that the 2/3 dealias mask keeps,
|m| < n/3 on every axis, shape (2K+1, 2K+1, K+1) on a cube with
K = (n-1)//3, kx and ky in FFT order and no Nyquist mode; or grid.plane,
its kz=0 plane, whose parent layout is the kz=0 slice c[:, :, 0] of the
grid's coefficients (the NS2D layout).  The transforms, the multipliers
and the sums below take any layout; gather and scatter convert between a
band and its parent's layout.

A layout that keeps its parent's whole array is a grid (Grid.whole), and
its transforms allocate their own arrays.  Every other layout, a band,
owns one Workspace, built on first use: the lattice-size arrays of a
nonlinear evaluation, reused by every step of every stepper on that band,
so that stepping allocates nothing at lattice size.  A band is therefore
stepped by one thread at a time; every run, matched family and sweep point
builds its own grid, and with it its own band and plane.

Every transform is a sequence of one-dimensional numpy.fft passes, run in
place on the half spectrum (the non-negative half of the last axis), in the
order of pocketfft's multi-axis transforms: the forward a real pass of the
last axis, one scaling by 1/N, then complex passes of the leading axes,
leading axis first; the inverse complex passes of the leading axes, leading
axis first, then a real pass of the last axis.  The passes are pocketfft's
own (numpy.fft is pocketfft), so the results are bit for bit those of
scipy.fft's rfftn, fftn and irfftn, which the tests use as their reference.
One inverse and one forward routine serve every layout, from a plan that
the layout builds once (_Plan).  Each complex pass runs only on the lines
the layout keeps: in the inverse those whose later axes are kept, in the
forward those whose earlier axes are kept.  The lines left out hold zeros,
or outputs the layout drops, so its modes stay bit for bit those of the
full transforms.  On a band the passes run in its workspace.

The fields of the public API are SpectralFields on a grid: one scalar
field's kz >= 0 half and its parity tag, sampled by field_from_function or
zero.  Every operation on them runs as a raw-array kernel on stacks of
coefficient arrays (_raw_to_phys, _raw_to_spec, _raw_parity_project,
_raw_inner) or as a product with a cached multiplier (_deriv_mult,
_lap_delta_mult, Grid.dealias_mask); the package has no operator layer of
its own on fields.

Vertical parity (even/odd in z) is a structural property of every velocity
component here and is tracked on each field.  Data enter the class by
orthogonal projection (_raw_parity_project), and the steppers keep their
states in it exactly: the nonlinear term comes back projected
(fields._raw_advect), and every other operation of a step keeps the
class bit for bit.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import CompatibilityError, InvalidGrid, InvalidParameter, ShapeError

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """A coefficient layout, the one layout type (see the module docstring).

    shape is the physical lattice, parent_spec_shape the shape of the
    parent's coefficient arrays.  index[a] lists the positions along axis
    a, in the parent's layout, of the modes kept, and wavenumbers[a] their
    wavenumbers, so an array on the layout has shape spec_shape.
    parseval_weight is the weight of each position of the last axis in a
    sum over all modes.  A layout keeps its parent's sizes, not the parent,
    so the band and plane that a grid caches make no reference cycle with
    it.  Layouts compare and hash by identity.
    """

    shape: tuple[int, ...]
    parent_spec_shape: tuple[int, ...]
    index: tuple[np.ndarray, ...] = field(repr=False)
    wavenumbers: tuple[np.ndarray, ...] = field(repr=False)
    parseval_weight: np.ndarray = field(repr=False)
    # scratch cache for derived multiplier arrays keyed by (tag, params)
    _cache: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for a in (*self.index, *self.wavenumbers, self.parseval_weight):
            a.setflags(write=False)

    nx = property(lambda self: self.shape[0])
    ny = property(lambda self: self.shape[1])
    nz = property(lambda self: self.shape[2])
    size = property(lambda self: math.prod(self.shape))
    spec_shape = property(lambda self: tuple(map(len, self.index)))
    # whether the layout keeps its parent's whole coefficient array: a grid
    whole = property(lambda self: self.spec_shape == self.parent_spec_shape)
    kx = property(lambda self: self.wavenumbers[0])
    ky = property(lambda self: self.wavenumbers[1])
    kz = property(lambda self: self.wavenumbers[2])
    # broadcastable wavenumber arrays
    kx3 = property(lambda self: self.kx[:, None, None])
    ky3 = property(lambda self: self.ky[None, :, None])
    kz3 = property(lambda self: self.kz[None, None, :])

    @cached_property
    def k2h(self) -> np.ndarray:
        """|k_H|^2, broadcastable over the layout: (nx, ny, 1) on a cube."""
        k2h = np.add.outer(self.kx**2, self.ky**2)
        return _readonly(k2h.reshape(k2h.shape + (1,) * (len(self.shape) - 2)))

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 of every mode of the layout."""
        return _readonly(reduce(np.add.outer, [k**2 for k in self.wavenumbers]))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """The 2/3 rule as a table of the layout's modes: which of them the
        band keeps, its independent reference."""
        keeps = [_kept(np.rint(k / PI), n) for k, n in zip(self.wavenumbers, self.shape)]
        return _readonly(reduce(np.logical_and.outer, keeps))

    @cached_property
    def kmax(self) -> float:
        """The largest wavenumber magnitude the dealias mask keeps."""
        return max(float(np.max(np.abs(k))) for k in self.band.wavenumbers)

    @cached_property
    def band(self) -> Grid:
        """The modes of this grid that the dealias mask keeps: mode m on an
        axis of n points when 3|m| < n.  Quadratic products of such fields
        are alias-free on the kept modes for every n: the sum of two kept
        modes is below 2n/3 in size, and its alias, n away, is above n/3.

        On kx and ky the kept positions are [0..K, -K..-1], which is itself
        the FFT order of 2K+1 modes, and on kz the prefix [0..K]: shape
        (2K+1, 2K+1, K+1) on a cube with K = (n-1)//3.  No kept mode is a
        Nyquist mode, and the set is closed under k -> -k."""
        index = tuple(np.flatnonzero(_kept(np.rint(k / PI), n))
                      for k, n in zip(self.wavenumbers, self.shape))
        return self._restrict(index, self.parseval_weight[index[-1]])

    @cached_property
    def plane(self) -> Grid:
        """The kz=0 plane of the band, a 2D layout: the NS2D layout.  Its
        parent is the kz=0 slice c[:, :, 0] of this grid's coefficients, and
        every mode weighs the box volume."""
        index = self.band.index[:2]
        return self._restrict(index, np.full(len(index[1]), DOMAIN_VOLUME))

    def _restrict(self, index: tuple[np.ndarray, ...], weight: np.ndarray) -> Grid:
        """The layout of the modes at index on the leading axes of this one,
        each position of its last axis weighing weight in a sum."""
        nd = len(index)
        return Grid(self.shape[:nd], self.spec_shape[:nd], index,
                    tuple(k[i] for k, i in zip(self.wavenumbers, index)), weight)

    @cached_property
    def plan(self) -> _Plan:
        """How the transforms run on this layout (_Plan)."""
        return _Plan.of(self)

    @cached_property
    def workspace(self) -> Workspace | None:
        """The transform workspace of a band: WORKSPACE_FIELDS real lattice
        fields and the stages of WORKSPACE_BATCH fields, about 2.7 MB at
        32^3 and 0.33 MB on the plane of a 64x64 grid.  The forward's stage
        shares its memory with the inverse's stages before the half, which
        no forward uses.  None on a grid (whole), whose transforms allocate
        their own arrays."""
        if self.whole:
            return None
        plan = self.plan
        *early, half = [(WORKSPACE_BATCH, *shape) for shape, _ in plan.inverse]
        kept = (WORKSPACE_BATCH, *plan.half[:-1], plan.n)
        shared = np.empty(max(map(math.prod, (kept, *early))), np.complex128)
        view = lambda shape: shared[: math.prod(shape)].reshape(shape)
        return Workspace(np.empty((WORKSPACE_FIELDS, *self.shape)), (
            *map(view, early), np.empty(half, np.complex128)), view(kept))

    @cached_property
    def _where(self) -> tuple:
        """Index of the layout in its parent's: the leading axes by their
        positions, the last by a slice where it is a prefix (half the cost
        of a third index array)."""
        last = self.index[-1]
        if np.array_equal(last, np.arange(len(last))):
            return (Ellipsis, *np.ix_(*self.index[:-1]), slice(0, len(last)))
        return (Ellipsis, *np.ix_(*self.index))

    def gather(self, c: np.ndarray) -> np.ndarray:
        """The layout's coefficients of (stacks of) parent-layout arrays c."""
        return c[self._where]

    def scatter(self, b: np.ndarray) -> np.ndarray:
        """The parent-layout coefficients of (stacks of) arrays b on the
        layout: zero outside it."""
        nd = len(self.index)
        out = np.zeros((*b.shape[:-nd], *self.parent_spec_shape), dtype=np.complex128)
        out[self._where] = b
        return out

    def cached(self, key, build):
        out = self._cache.get(key)
        if out is None:
            out = _readonly(build())
            self._cache[key] = out
        return out


@dataclass(frozen=True, eq=False)
class Workspace:
    """Lattice-size scratch arrays of the nonlinear evaluations on one band.

    real holds WORKSPACE_FIELDS lattice fields: a stepper's inverse transform
    writes its velocities into them (on a 3D band the pair (v1 + w, v2)
    into slots 1-2 and its split into v1 and w into slots 3-4, on the NS2D
    plane the pair into the top two slots) and fields._raw_advect forms its
    products from the first slot up.
    stages holds the arrays that the band's inverse runs its passes in,
    WORKSPACE_BATCH fields at a time: one per leading axis (_Plan.inverse),
    the last of which, cplx, is the half spectrum of the lattice, where the
    forward's real pass runs too.  forward is the stage of the forward's
    complex passes: the kept planes of the half, in the memory of the
    inverse's earlier stages.  Every call leaves in them nothing that a
    later call reads.
    """

    real: np.ndarray
    stages: tuple[np.ndarray, ...]
    forward: np.ndarray

    cplx = property(lambda self: self.stages[-1])


# the four lattice fields of a paired inverse (_ExpAB2._phys: v1 + w and v2
# in slots 1-2, the split v1 and w in slots 3-4) above slot 0, where the
# first paired product goes; each later product overwrites a field that no
# later product reads (fields._raw_advect)
WORKSPACE_FIELDS = 5
WORKSPACE_BATCH = 3


def _to_band(grid: Grid, band: Grid, comps: Sequence[np.ndarray]) -> np.ndarray:
    """The coefficients on band, grid.band or grid.plane, of a stack of
    components in the band's parent layout.

    Content outside the band would be dropped without a word by whatever
    runs on the band (a stepper, the forcings of fields), so more than
    rounding there (1e-12 of the largest coefficient) is an error."""
    full = np.stack(comps)
    mag = np.abs(full)
    largest = float(np.max(mag, initial=0.0))
    mag[band._where] = 0.0  # |c| outside the band, in one pass
    at = np.unravel_index(np.argmax(mag), mag.shape)
    if mag[at] > 1e-12 * largest:
        modes = tuple(int(np.rint(k[i] / PI))
                      for k, i in zip(grid.wavenumbers, at[1:]))
        raise CompatibilityError(
            f"state has content outside the 2/3 dealias band: |c| = "
            f"{mag[at]:.3e} in component {at[0]} at mode {modes}", float(mag[at])
        )
    return band.gather(full)


def make_grid(nx: int, ny: int, nz: int) -> Grid:
    """The grid of an nx x ny x nz lattice: the kz >= 0 half of its modes,
    with pi-based wavenumbers.

    kx and ky are in numpy FFT order; kz = pi * [0, 1, ..., nz/2], the
    non-negative half that indexes the stored coefficients.
    """
    for n in (nx, ny, nz):
        if not isinstance(n, (int, np.integer)):
            raise InvalidGrid(f"grid sizes must be integers, got {n!r}")
        if n < 4 or n % 2 != 0:
            raise InvalidGrid(f"grid sizes must be even and >= 4, got {n}")

    spec_shape = (nx, ny, nz // 2 + 1)
    modes = (_mode_numbers(nx), _mode_numbers(ny), np.arange(nz // 2 + 1.0))
    # a plane 0 < kz < nz/2 also stands for its kz < 0 mirror
    weight = np.full(nz // 2 + 1, 2.0 * DOMAIN_VOLUME)
    weight[0] = weight[-1] = DOMAIN_VOLUME
    return Grid((nx, ny, nz), spec_shape, tuple(map(np.arange, spec_shape)),
                tuple(PI * m for m in modes), weight)


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

    # scaling, the one arithmetic: the recipes normalize their data with it
    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * a, self.parity)

    __rmul__ = __mul__


def zero_field(grid: Grid, parity: str = NONE) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.spec_shape, dtype=np.complex128), parity)


# ---------------------------------------------------------------------------
# raw-array kernels (shared by fields/solvers; coefficient convention as above)
# ---------------------------------------------------------------------------

def _lattice_phase(grid: Grid) -> np.ndarray:
    """(-1)^(mx+my+mz): relates FFT output on the lattice starting at -1 to
    true Fourier coefficients with respect to exp(i k . x), in the shape of
    the stored coefficients.  On Grid.plane mz = 0, so its phase is the
    kz=0 slice of the band's."""

    def build():
        signs = []
        for k in grid.wavenumbers:
            m = np.rint(k / PI).astype(np.int64)
            signs.append(np.where(m % 2 == 0, 1.0, -1.0))
        return reduce(operator.mul, np.ix_(*signs))

    return grid.cached(("phase",), build)


@dataclass(frozen=True, eq=False)
class _Plan:
    """How the transforms of a layout run on the half spectrum of its
    lattice (the non-negative half of the last axis, shape half), on the
    lines the layout keeps: its positions on each leading axis, in runs of
    consecutive rows, and the prefix n of the last.

    Each index has the stack of fields as axis 0.  inverse[a] is the shape
    of the stage that the inverse's pass of leading axis a runs in, whole,
    with every axis after a at its kept positions (the half for the last),
    and the moves that copy each run of axis a into the zeroed stage; None
    where the stage is the previous array.  The forward's complex passes
    run in place on the kept prefix of the half, shape (*half[:-1], n): on
    a band a contiguous stage of its own (Workspace.forward), on a grid,
    which keeps every plane, the half itself.  forward[a] indexes the views
    of it that the pass of leading axis a runs on: the lines whose earlier
    leading axes are kept.  source is the flat position in that prefix of
    each coefficient of a band, and conj whether it is that entry's
    conjugate: Grid.plane, whose parent is a full plane, reads its ky < 0
    modes as pocketfft fills the fftn of a real plane.  Both are None on a
    grid (Grid.whole), whose half is its layout.
    """

    half: tuple[int, ...]
    n: int
    norm: float
    inverse: tuple[tuple[tuple[int, ...], tuple | None], ...]
    forward: tuple[tuple[tuple, ...], ...]
    source: np.ndarray | None
    conj: np.ndarray | None

    @classmethod
    def of(cls, grid: Grid) -> _Plan:
        *lead, last = grid.shape
        h, nd, at = last // 2 + 1, len(lead), grid.index
        n = int(np.count_nonzero(at[-1] <= last // 2))
        every, kept = slice(None), slice(0, n)
        runs = []  # (layout, half) slices of each run of consecutive positions
        for i in at[:-1]:
            cuts = [0, *(np.flatnonzero(np.diff(i) != 1) + 1), len(i)]
            runs.append([(slice(a, b), slice(int(i[a]), int(i[b - 1]) + 1))
                         for a, b in zip(cuts, cuts[1:])])
        inverse, shape = [], [*map(len, at[:-1]), n]
        for a, rs in enumerate(runs):
            before, shape[a], pre = tuple(shape), lead[a], (every,) * (a + 1)
            shape[-1] = h if a == nd - 1 else n
            moves = tuple((pre + (r, Ellipsis, kept), pre + (lay,)) for lay, r in rs)
            inverse.append((tuple(shape), None if tuple(shape) == before else moves))
        halves = [[r for _, r in rs] for rs in runs]
        forward = tuple(tuple((every, *i) for i in itertools.product(
            *halves[:a], *[[every]] * (nd - a))) for a in range(nd))
        source = conj = None
        if nd == 1:
            # pocketfft's fill: the columns ky > ny/2 are conj(c[-kx, ny - ky]),
            # and the columns ky = 0 and ny/2 are conj(c[-kx, ky]) at kx = 0
            # and kx >= nx/2 (at kx = 0 and nx/2 the conjugate of the mode itself)
            (nx, ny), (kx, ky) = grid.shape, np.ix_(*at)
            edge = (ky % (ny // 2) == 0) & ((kx == 0) | (kx >= nx // 2))
            conj = (ky > ny // 2) | edge
            source = np.where(conj, -kx % nx * n + -ky % ny, kx * n + ky).ravel()
            conj = conj.ravel()
        elif not grid.whole:
            source = np.ravel_multi_index(np.ix_(*at), (*lead, n)).ravel()
        # the forward's 1/N as pocketfft computes it: in long double, rounded once
        norm = float(1 / np.longdouble(math.prod(grid.shape)))
        return cls((*lead, h), n, norm, tuple(inverse), forward, source, conj)


def _raw_to_phys(
    grid: Grid, c: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Lattice values of (stacks of) real fields from their coefficients,
    written to out (C-contiguous; a new array when None).

    An irfftn of the half spectrum: all of c on a grid, and on a band its
    modes in its parent's half, zero elsewhere (on Grid.plane its ky >= 0
    modes, whose conjugate mirror the others must be).  The passes are those of
    the module docstring, each on the lines the layout keeps, in a stage of
    its own (_Plan.inverse); on a band the stages are its workspace's.
    """
    plan, ws = grid.plan, grid.workspace
    phase = _lattice_phase(grid)[..., : plan.n]
    cs = c.reshape(-1, *grid.spec_shape)
    if out is None:
        out = np.empty((*c.shape[: c.ndim - len(grid.shape)], *grid.shape))
    lattice = out.reshape(-1, *grid.shape)
    step = WORKSPACE_BATCH if ws else max(len(cs), 1)
    for s in range(0, len(cs), step):
        part = cs[s : s + step]
        x = part[..., : plan.n] * phase
        for a, (_, moves) in enumerate(plan.inverse):
            if moves:  # only a band moves its runs into a stage
                stage = ws.stages[a][: len(part)]
                stage.fill(0.0)
                for to, at in moves:
                    stage[to] = x[at]
                x = stage
            view = x[..., : plan.n]
            np.fft.ifft(view, axis=a + 1, norm="forward", out=view)
        np.fft.irfft(x, n=grid.shape[-1], axis=-1, norm="forward",
                     out=lattice[s : s + len(part)])
    return out


def _raw_to_spec(grid: Grid, p: np.ndarray) -> np.ndarray:
    """Coefficients of (stacks of) real fields from their lattice values:
    the kz >= 0 half on a grid (an rfftn), and on a band the kept modes of
    its parent's (on Grid.plane, of the plane's fftn).  The passes are
    those of the module docstring: the real pass into the half spectrum,
    the scaling as the kept planes are copied into the stage of the
    complex passes, and those in place on the lines the layout keeps
    (_Plan.forward).  On a band they run in its workspace, and the
    coefficients are then read off the stage (_Plan.source).
    """
    plan, ws = grid.plan, grid.workspace
    ps = p.reshape(-1, *grid.shape)
    out = np.empty((len(ps), *grid.spec_shape), dtype=np.complex128)
    step = WORKSPACE_BATCH if ws else max(len(ps), 1)
    for s in range(0, len(ps), step):
        part = ps[s : s + step]
        half = ws.cplx[: len(part)] if ws else out
        np.fft.rfft(part, axis=-1, out=half)
        kept = ws.forward[: len(part)] if ws else half
        np.multiply(half[..., : plan.n], plan.norm, out=kept)
        for axis, views in enumerate(plan.forward, start=1):
            for index in views:
                view = kept[index]
                np.fft.fft(view, axis=axis, out=view)
        if plan.source is not None:
            coeffs = out[s : s + len(part)].reshape(len(part), -1)
            np.take(kept.reshape(len(part), -1), plan.source, axis=-1,
                    out=coeffs, mode="clip")
            if plan.conj is not None:
                np.conjugate(coeffs, out=coeffs, where=plan.conj)
    out *= _lattice_phase(grid)
    return out.reshape(*p.shape[: p.ndim - len(grid.shape)], *grid.spec_shape)


def _raw_embed_plane(grid: Grid, P: np.ndarray) -> np.ndarray:
    """Coefficients of the z-independent fields whose kz=0 planes are P."""
    out = np.zeros((*P.shape[:-2], *grid.spec_shape), dtype=np.complex128)
    out[..., 0] = P
    return out


def _is_nyquist(grid: Grid, axis: int) -> np.ndarray:
    """Which stored modes of an axis are its Nyquist mode |m| = n/2: index
    n//2 of kx and ky, the last plane of the half-length kz; none on a band."""
    m = np.rint(grid.wavenumbers[axis] / PI)
    return 2 * np.abs(m) == grid.shape[axis]


def _deriv_mult(grid: Grid, axis: int, order: int) -> np.ndarray:
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


def _raw_hflip(grid: Grid, c: np.ndarray) -> np.ndarray:
    """c[..., -kx, -ky, :], a new array.  kx and ky are in FFT order, on a
    band too, so -m sits at index (-i) mod (axis length)."""
    bx, by = grid.spec_shape[:2]

    def build():
        ix = (-np.arange(bx)) % bx
        iy = (-np.arange(by)) % by
        return (ix[:, None] * by + iy[None, :]).ravel()

    flat = c.reshape(*c.shape[:-3], bx * by, c.shape[-1])
    out = np.take(flat, grid.cached(("hflip",), build), axis=-2)
    return out.reshape(c.shape)


def _raw_parity_project(grid: Grid, c: np.ndarray, parity: str) -> np.ndarray:
    """Orthogonal projection onto the even or odd functions of z.

    Reflecting z sends the coefficient at kz to the one at -kz, which this
    layout stores as conj(c[-kx, -ky, kz]).  The kz=0 plane and, on a grid,
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


def _raw_wsum(grid: Grid, x: np.ndarray) -> float:
    """Integral over the box that a sum of x over all modes represents: the
    sum over the stored coefficients with grid.parseval_weight."""
    return float(np.sum(x @ grid.parseval_weight))


def _raw_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """L2(Omega) pairing of (stacks of) real fields from their coefficients."""
    return _raw_wsum(grid, (np.conj(a) * b).real)


def _lap_delta_mult(grid: Grid, delta: float) -> np.ndarray:
    return grid.cached(
        ("lap_delta", float(delta)),
        lambda: -(grid.k2h + delta * grid.kz3**2),
    )


# --- public operations ------------------------------------------------------

def field_from_function(
    grid: Grid, fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    parity: str = NONE,
) -> SpectralField:
    """Sample fn(x, y, z) on the lattice and transform: the sampler of the
    recipes (harness.initial_data) and of the verify suites."""
    x = -1.0 + 2.0 * np.arange(grid.nx) / grid.nx
    y = -1.0 + 2.0 * np.arange(grid.ny) / grid.ny
    z = -1.0 + 2.0 * np.arange(grid.nz) / grid.nz
    X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
    vals = np.asarray(fn(X, Y, Z), dtype=np.float64)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    return SpectralField(grid, _raw_to_spec(grid, vals), parity)
