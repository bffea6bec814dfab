"""Discrete anisotropic Sobolev norms and space-time norm accumulation.

Spatial norms are Fourier-multiplier sums over the stored kz >= 0 half of
the coefficients with the grid's Parseval weight (the volume 8 of the box,
doubled on the planes that stand for their kz < 0 mirror), so analytic
values of simple trigonometric fields are reproduced exactly; every cached
multiplier here carries that weight.  Space-time norms are accumulated along
a trajectory with trapezoidal quadrature on the solver's own samples; the
supremum parts track running maxima over the sampled instants.  A sample
enters every kind through two per-mode arrays only (Energies): the sum over
its components of |u_i|^2 and of |du_i/dt|^2, so one sample folded into
several accumulators is reduced once.  The sums may be on a grid or on the
Band a stepper holds its state on.

Accumulator kinds
-----------------
E0       sqrt of the time integral of the squared L2 norm
EHdelta  maximal-regularity norm: L2-in-time of u, of du/dt, and of the
         anisotropic Laplacian of u (three terms, summed after square roots);
         the vertical diffusion weight delta is part of the kind
Ez       L2-in-time of the H1_z H1_xy norm plus the running max of the
         H1_z L2_xy norm
L4H32    fourth root of the time integral of the fourth power of the H^{3/2}
         norm
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InsufficientData, InvalidParameter, OrderingError
from .spectral import SpectralField, _lap_delta_mult

KINDS = ("E0", "EHdelta", "Ez", "L4H32")


def _sobolev_mult(g, s: float) -> np.ndarray:
    return g.cached(
        ("sobolev", float(s)), lambda: g.parseval_weight * (1.0 + g.ksq) ** s
    )


def _aniso_mult(g, r: int, s: int) -> np.ndarray:
    return g.cached(
        ("aniso", r, s),
        lambda: g.parseval_weight * (1.0 + g.kz3**2) ** r * (1.0 + g.k2h) ** s,
    )


def norm_sobolev(F: SpectralField, s: float) -> float:
    """Isotropic H^s norm via the multiplier (1 + |k|^2)^{s/2}."""
    if s < 0:
        raise InvalidParameter(f"s must be >= 0, got {s}")
    return float(np.sqrt(_sq((F,), _sobolev_mult(F.grid, s))))


def norm_l2_barotropic(F: SpectralField) -> float:
    """L2 norm over the horizontal square of the vertical-average plane."""
    plane = F.coeffs[:, :, 0]
    return float(np.sqrt(np.sum(np.abs(plane) ** 2) * 4.0))


def _sq(fields: Sequence[SpectralField], mult: np.ndarray) -> float:
    """Sum of the squared mult-norms; mult carries the Parseval weight."""
    return float(sum(np.sum(mult * np.abs(f.coeffs) ** 2) for f in fields))


def _components(u) -> tuple[SpectralField, ...]:
    if u is None:
        return ()
    if hasattr(u, "components"):
        return tuple(u.components())
    if isinstance(u, SpectralField):
        return (u,)
    return tuple(u)


def _mode_sum(comps) -> np.ndarray:
    """sum_i |c_i|^2 per mode of a sequence (or stack) of coefficient arrays."""
    e = np.square(comps[0].real)
    e += np.square(comps[0].imag)
    for c in comps[1:]:
        e += np.square(c.real)
        e += np.square(c.imag)
    return e


@dataclass(frozen=True)
class Energies:
    """A sample reduced to what every accumulator kind reads of it: the
    per-mode sums e = sum_i |u_i|^2 and, when the sample has a time
    derivative, de = sum_i |du_i/dt|^2, on the grid (or band) of the
    components.  Each part of a norm is one weighted sum of e or de."""

    grid: object
    e: np.ndarray
    de: np.ndarray | None = None

    @classmethod
    def of(cls, grid, u, dudt=None) -> "Energies":
        """From the coefficient arrays (or a stack) of u and of du/dt; a
        dudt that does not match u is no time derivative of it."""
        matched = dudt is not None and len(dudt) == len(u)
        return cls(grid, _mode_sum(u), _mode_sum(dudt) if matched else None)


def _wsum(mult: np.ndarray, e: np.ndarray) -> float:
    # an elementwise product and a pairwise sum: no BLAS call, which would
    # start a second thread for vectors of this size
    return float(np.sum(mult * e))


@dataclass(frozen=True)
class NormAccumulator:
    """Running state of one space-time norm along a trajectory."""

    kind: str
    delta: float = 0.0
    integrals: tuple[float, ...] = ()
    running_max: float = 0.0
    sample_count: int = 0
    _last: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameter(f"unknown accumulator kind {self.kind!r}")
        if self.kind == "EHdelta" and self.delta < 0:
            raise InvalidParameter("EHdelta accumulator needs delta >= 0")


def _integrands(acc: NormAccumulator, s: Energies) -> tuple[float, ...]:
    g = s.grid
    if acc.kind == "E0":
        return (_wsum(g.parseval_weight, s.e),)
    if acc.kind == "EHdelta":
        if s.de is None:
            raise InvalidParameter("EHdelta accumulation needs du/dt samples")
        lap = g.cached(
            ("lap_sq", acc.delta),
            lambda: g.parseval_weight * _lap_delta_mult(g, acc.delta) ** 2,
        )
        w = g.parseval_weight
        return (_wsum(w, s.e), _wsum(w, s.de), _wsum(lap, s.e))
    if acc.kind == "Ez":
        return (_wsum(_aniso_mult(g, 1, 1), s.e),)
    # L4H32: fourth power of the H^{3/2} norm
    return (_wsum(_sobolev_mult(g, 1.5), s.e) ** 2,)


def accumulate(
    acc: NormAccumulator,
    u,
    dudt=None,
    dt_since_last: float | None = None,
) -> NormAccumulator:
    """Fold one trajectory sample into the accumulator (trapezoidal in time).

    The first call records the initial instant (dt ignored); later calls
    require the positive time increment since the previous sample.  u is
    the sample's fields, or its Energies, which then carry du/dt too; dudt
    is the semi-discrete right-hand side at the same instant and is only
    needed by the EHdelta kind.
    """
    if isinstance(u, Energies):
        s = u
    else:
        uc, dc = _components(u), _components(dudt)
        s = Energies.of(uc[0].grid, [f.coeffs for f in uc], [f.coeffs for f in dc])
    vals = _integrands(acc, s)
    new_max = acc.running_max
    if acc.kind == "Ez":
        new_max = max(new_max, float(np.sqrt(_wsum(_aniso_mult(s.grid, 1, 0), s.e))))

    if acc.sample_count == 0:
        return replace(
            acc,
            integrals=tuple(0.0 for _ in vals),
            running_max=new_max,
            sample_count=1,
            _last=vals,
        )

    if dt_since_last is None or dt_since_last <= 0:
        raise OrderingError(
            f"time increment must be positive after the first sample, got {dt_since_last}"
        )
    new_int = tuple(
        I + 0.5 * dt_since_last * (a + b)
        for I, a, b in zip(acc.integrals, acc._last, vals)
    )
    return replace(
        acc,
        integrals=new_int,
        running_max=new_max,
        sample_count=acc.sample_count + 1,
        _last=vals,
    )


def finalize(acc: NormAccumulator) -> float:
    """Combine the accumulated parts into the norm value."""
    if acc.sample_count < 2:
        raise InsufficientData(
            f"need at least 2 samples to finalize, have {acc.sample_count}"
        )
    if acc.kind == "E0":
        return float(np.sqrt(acc.integrals[0]))
    if acc.kind == "EHdelta":
        return float(sum(np.sqrt(I) for I in acc.integrals))
    if acc.kind == "Ez":
        return float(np.sqrt(acc.integrals[0]) + acc.running_max)
    return float(acc.integrals[0] ** 0.25)
