"""Initial-data recipes for the simulation and sweep drivers.

Every recipe returns a VelocityState with exact parity, the vertical-average
divergence constraint satisfied to rounding, the vertical velocity recovered
from incompressibility, and the full state normalized to unit H^1 norm so
runs at different parameters start from comparable data.
"""
from __future__ import annotations

import numpy as np

from ..errors import InvalidParameter
from ..fields import (
    VelocityState,
    _raw_project_hydro,
    _raw_w_from_v,
)
from ..norms import norm_sobolev
from ..spectral import (
    EVEN,
    ODD,
    PI,
    Grid,
    SpectralField,
    _raw_parity_project,
    _raw_to_spec,
    field_from_function,
)

RECIPES = ("bandlimited_random", "taylor_green_3d", "heat_mode")


def _normalized_state(grid: Grid, v1c, v2c) -> VelocityState:
    v1c = _raw_parity_project(grid, v1c, EVEN)
    v2c = _raw_parity_project(grid, v2c, EVEN)
    wc = _raw_w_from_v(grid, np.stack((v1c, v2c)))
    comps = [
        SpectralField(grid, v1c, EVEN),
        SpectralField(grid, v2c, EVEN),
        SpectralField(grid, wc, ODD),
    ]
    h1 = np.sqrt(sum(norm_sobolev(f, 1.0) ** 2 for f in comps))
    if h1 == 0.0:
        raise InvalidParameter("recipe produced the zero field")
    comps = [f * (1.0 / h1) for f in comps]
    return VelocityState(*comps)


def generate_initial_data(recipe: str, seed: int, grid: Grid) -> VelocityState:
    """Deterministic initial state for the given recipe and seed.

    bandlimited_random: random coefficients restricted to |m| <= n/4 per axis
    with spectral decay (1 + |k|^2)^{-2}, even in z, projected onto the
    vertical-average divergence constraint.
    taylor_green_3d: z-independent Taylor-Green vortex.
    heat_mode: single vertical cosine mode in the first component.
    """
    if recipe == "bandlimited_random":
        rng = np.random.default_rng(seed)
        bands = []
        for n, k in ((grid.nx, grid.kx), (grid.ny, grid.ky), (grid.nz, grid.kz)):
            m = np.rint(k / np.pi)
            bands.append(np.abs(m) <= n // 4)
        band = (
            bands[0][:, None, None] & bands[1][None, :, None] & bands[2][None, None, :]
        )
        decay = (1.0 + grid.ksq) ** -2
        comps = []
        for _ in range(2):
            raw = _raw_to_spec(grid, rng.standard_normal(grid.shape))
            c = raw * band * decay
            comps.append(_raw_parity_project(grid, c, EVEN))
        V = np.stack(comps)
        _raw_project_hydro(grid, V[..., 0])
        V *= grid.dealias_mask
        return _normalized_state(grid, V[0], V[1])

    if recipe == "taylor_green_3d":
        v1 = field_from_function(grid, lambda x, y, z: np.sin(PI * x) * np.cos(PI * y))
        v2 = field_from_function(grid, lambda x, y, z: -np.cos(PI * x) * np.sin(PI * y))
        return _normalized_state(grid, v1.coeffs, v2.coeffs)

    if recipe == "heat_mode":
        v1 = field_from_function(grid, lambda x, y, z: np.cos(PI * z))
        v2 = np.zeros(grid.spec_shape, dtype=np.complex128)
        return _normalized_state(grid, v1.coeffs, v2)

    raise InvalidParameter(f"unknown initial-data recipe {recipe!r}")
