"""Discrete anisotropic Sobolev norms and space-time norm accumulation.

Spatial norms are Fourier-multiplier sums over the stored kz >= 0 half of
the coefficients with the grid's Parseval weight (the volume 8 of the box,
doubled on the planes that stand for their kz < 0 mirror), so analytic
values of simple trigonometric fields are reproduced exactly; every cached
multiplier here carries that weight.

Space-time norms are accumulated along a trajectory, one sample at a time
(accumulate), with trapezoidal quadrature on the solver's own samples; the
supremum parts track running maxima over the sampled instants.  A sample is
an Energies, the one type every kind reads: the sums over its components of
|u_i|^2 and of |du_i/dt|^2 per mode, so one sample folded into several
accumulators is reduced once.  The sums may be on any layout (a
spectral.Grid): the grid, or the band or plane a stepper holds its state
on.  Each sample comes with the time it was taken at; the accumulator
keeps the time of its last sample, so the clock of a norm is the
accumulator itself.

Accumulator kinds
-----------------
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

from .errors import InsufficientData, InvalidParameter, OrderingError, ShapeError
from .spectral import SpectralField, _lap_delta_mult

KINDS = ("EHdelta", "Ez", "L4H32")


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
        """From the coefficient arrays (or a stack) of u and of du/dt;
        raises ShapeError for a dudt that does not match u."""
        if dudt is None:
            return cls(grid, _mode_sum(u))
        if len(dudt) != len(u) or dudt[0].shape != u[0].shape:
            raise ShapeError(f"du/dt ({len(dudt)} x {dudt[0].shape}) does not "
                             f"match u ({len(u)} x {u[0].shape})")
        return cls(grid, _mode_sum(u), _mode_sum(dudt))


def _wsum(mult: np.ndarray, e: np.ndarray) -> float:
    # an elementwise product and a pairwise sum: no BLAS call, which would
    # start a second thread for vectors of this size
    return float(np.sum(mult * e))


@dataclass(frozen=True)
class NormAccumulator:
    """Running state of one space-time norm along a trajectory; only the
    EHdelta kind reads delta, so another kind rejects a nonzero one."""

    kind: str
    delta: float = 0.0
    integrals: tuple[float, ...] = ()
    running_max: float = 0.0
    sample_count: int = 0
    t_last: float = 0.0  # the time of the last sample
    _last: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameter(f"unknown accumulator kind {self.kind!r}")
        if self.kind == "EHdelta" and self.delta < 0:
            raise InvalidParameter("EHdelta accumulator needs delta >= 0")
        if self.kind != "EHdelta" and self.delta != 0:
            raise InvalidParameter(f"a {self.kind} accumulator reads no delta, "
                                   f"got delta={self.delta!r}")


def _integrands(acc: NormAccumulator, s: Energies) -> tuple[float, ...]:
    g = s.grid
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


def accumulate(acc: NormAccumulator, sample: Energies, t: float) -> NormAccumulator:
    """Fold the sample taken at time t into the accumulator.

    The first sample records its instant; each later one must come after the
    last, and adds the trapezoid between the two to the time integrals.  Only
    the EHdelta kind reads the sample's du/dt.
    """
    vals = _integrands(acc, sample)
    new_max = acc.running_max
    if acc.kind == "Ez":
        h1z = _wsum(_aniso_mult(sample.grid, 1, 0), sample.e)
        new_max = max(new_max, float(np.sqrt(h1z)))

    if acc.sample_count == 0:
        integrals = tuple(0.0 for _ in vals)
    else:
        dt = t - acc.t_last
        if not dt > 0:
            raise OrderingError(
                f"a sample at t={t} does not follow the last one, at t={acc.t_last}"
            )
        integrals = tuple(
            I + 0.5 * dt * (a + b) for I, a, b in zip(acc.integrals, acc._last, vals)
        )
    return replace(
        acc,
        integrals=integrals,
        running_max=new_max,
        sample_count=acc.sample_count + 1,
        t_last=t,
        _last=vals,
    )


def finalize(acc: NormAccumulator) -> float:
    """Combine the accumulated parts into the norm value."""
    if acc.sample_count < 2:
        raise InsufficientData(
            f"need at least 2 samples to finalize, have {acc.sample_count}"
        )
    if acc.kind == "EHdelta":
        return float(sum(np.sqrt(I) for I in acc.integrals))
    if acc.kind == "Ez":
        return float(np.sqrt(acc.integrals[0]) + acc.running_max)
    return float(acc.integrals[0] ** 0.25)
