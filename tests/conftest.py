import functools

import numpy as np
import pytest

from hydrostat.spectral import EVEN, SpectralField, make_grid


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16, 16, 16)


@pytest.fixture(scope="session")
def grid8():
    return make_grid(8, 8, 8)


def dealias_mask(grid):
    """The 2/3 rule as a table of the grid's modes: True where 3|m| < n on
    every axis.  Test helper, the band's independent reference: it is
    built from the rule, not from grid.band."""
    keeps = [3 * np.abs(np.rint(k / np.pi)) < n for k, n in zip(grid.wavenumbers, grid.shape)]
    return functools.reduce(np.logical_and.outer, keeps)


def random_band_field(grid, seed, parity=None, band=None):
    """Hermitian random field restricted to low modes; test helper."""
    from hydrostat.spectral import _raw_parity_project, _raw_to_spec

    rng = np.random.default_rng(seed)
    c = _raw_to_spec(grid, rng.standard_normal(grid.shape))
    if band is None:
        band = dealias_mask(grid)
    c = c * band
    if parity is not None:
        c = _raw_parity_project(grid, c, parity)
        return SpectralField(grid, c, parity)
    return SpectralField(grid, c, "none")


@pytest.fixture
def rand_even(grid16):
    return random_band_field(grid16, 1, EVEN)


def full_cube(grid, c):
    """The (nx, ny, nz) coefficients, in numpy FFT order on every axis, of
    real fields from their stored kz >= 0 half, by c[-k] = conj(c[k]).
    Test helper, written independently of the library's own mirror."""
    flipped = np.take(c, (-np.arange(grid.nx)) % grid.nx, axis=-3)
    flipped = np.take(flipped, (-np.arange(grid.ny)) % grid.ny, axis=-2)
    out = np.empty((*c.shape[:-3], *grid.shape), dtype=np.complex128)
    h = grid.nz // 2 + 1
    out[..., :h] = c
    for j in range(h, grid.nz):
        out[..., j] = np.conj(flipped[..., grid.nz - j])
    return out


def full_wavenumbers(grid):
    """pi * m for every mode of the full cube, m in numpy FFT order, as
    broadcastable (kx, ky, kz)."""
    return tuple(
        np.pi * np.fft.fftfreq(n, 1.0 / n).reshape([-1 if i == ax else 1 for i in range(3)])
        for ax, n in enumerate(grid.shape)
    )


def full_phase(grid):
    """(-1)^(mx+my+mz) on the full cube."""
    m = sum(np.rint(k / np.pi).astype(int) for k in full_wavenumbers(grid))
    return np.where(m % 2 == 0, 1.0, -1.0)


def convective_advect(grid, u_phys, T):
    """Convective derivative sum_j u_j d_j T_i of a stack of targets T on a
    grid, dealiased, in spectral space; u_phys has 2 (horizontal transport)
    or 3 physical components.  Test reference: the library advects in
    divergence form only (fields._raw_advect), which equals this for a
    divergence-free u."""
    from hydrostat.spectral import _deriv_mult, _raw_to_phys, _raw_to_spec

    iks = [_deriv_mult(grid, j, 1) for j in range(len(u_phys))]
    dT = np.stack([[ik * Ti for ik in iks] for Ti in T])
    dTp = _raw_to_phys(grid, dT)
    acc = np.stack([sum(u * d for u, d in zip(u_phys, dTi)) for dTi in dTp])
    return _raw_to_spec(grid, acc) * dealias_mask(grid)


def hydro_projected(grid, V):
    """A copy of the stack V whose kz=0 plane fields._raw_project_hydro has
    projected (in place, on the copy); test helper."""
    from hydrostat.fields import _raw_project_hydro

    out = V.copy()
    _raw_project_hydro(grid, out[..., 0])
    return out


def step(stepper, U):
    """One step of stepper from the state U, as solvers.run_lanes takes it:
    the nonlinear term at U, then advance."""
    return stepper.advance(U, stepper.nonlinear(U))
