"""Spatial norms and space-time accumulators."""
import numpy as np
import pytest

from hydrostat.errors import InsufficientData, InvalidParameter, OrderingError, ShapeError
from hydrostat.norms import (
    Energies,
    NormAccumulator,
    _aniso_mult,
    accumulate,
    finalize,
    norm_sobolev,
)
from hydrostat.spectral import (
    EVEN,
    SpectralField,
    _lap_delta_mult,
    field_from_function,
    make_grid,
)

from conftest import random_band_field

PI = np.pi


def _aniso(f, r, s):
    """The H^r in z, H^s in the horizontal norm of f, by the weighted
    multiplier of the Ez norm."""
    return float(np.sqrt(np.sum(_aniso_mult(f.grid, r, s) * np.abs(f.coeffs) ** 2)))


class TestParsevalWeight:
    @pytest.mark.parametrize("shape", [(8, 8, 8), (6, 4, 10), (16, 16, 4)])
    def test_sums_over_the_half_match_the_lattice(self, shape):
        """Every sum over the stored kz >= 0 half counts the planes
        0 < kz < nz/2 twice: the squared L2 norm of a real field, Nyquist
        planes included, is 8 mean(p^2) of its lattice values p."""
        from hydrostat.solvers import _l2_h1
        from hydrostat.spectral import _raw_inner, _raw_to_spec

        g = make_grid(*shape)
        p = np.random.default_rng(sum(shape)).standard_normal(g.shape)
        c = _raw_to_spec(g, p)
        exact = 8.0 * np.mean(p**2)
        assert _raw_inner(g, c, c) == pytest.approx(exact, rel=1e-13)
        assert norm_sobolev(SpectralField(g, c), 0.0) ** 2 == pytest.approx(
            exact, rel=1e-13
        )
        assert _l2_h1(g, c[None])[0] ** 2 == pytest.approx(exact, rel=1e-13)


class TestSpatialNorms:
    def test_constant(self, grid16):
        one = field_from_function(grid16, lambda x, y, z: np.ones_like(x))
        for s in (0.0, 1.0, 1.5):
            assert norm_sobolev(one, s) == pytest.approx(np.sqrt(8.0))

    def test_sine_values(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        assert norm_sobolev(f, 0.0) == pytest.approx(2.0)
        assert norm_sobolev(f, 1.0) == pytest.approx(2 * np.sqrt(1 + PI**2))

    def test_negative_s_rejected(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        with pytest.raises(InvalidParameter):
            norm_sobolev(f, -0.5)

    def test_aniso_values(self, grid16):
        cz = field_from_function(grid16, lambda x, y, z: np.cos(PI * z))
        sx = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        mixed = field_from_function(
            grid16, lambda x, y, z: np.cos(PI * z) * np.sin(PI * x)
        )
        assert _aniso(cz, 1, 0) == pytest.approx(2 * np.sqrt(1 + PI**2))
        assert _aniso(sx, 1, 0) == pytest.approx(2.0)
        assert _aniso(mixed, 1, 1) == pytest.approx(np.sqrt(2) * (1 + PI**2))

    def test_homogeneity(self, grid16):
        f = random_band_field(grid16, 7)
        assert norm_sobolev(2.5 * f, 1.0) == pytest.approx(2.5 * norm_sobolev(f, 1.0))
        assert _aniso(2.5 * f, 1, 1) == pytest.approx(2.5 * _aniso(f, 1, 1))


def _sample(fields, dfields=None) -> Energies:
    """The Energies of a sample's fields and of their time derivatives."""
    du = None if dfields is None else [f.coeffs for f in dfields]
    return Energies.of(fields[0].grid, [f.coeffs for f in fields], du)


def _march(acc, samples, dt, dsamples=None):
    for i, u in enumerate(samples):
        du = None if dsamples is None else dsamples[i]
        acc = accumulate(acc, _sample(u, du), i * dt)
    return acc


class TestAccumulators:
    def test_ez_z_independent_collapses(self, grid16):
        g = field_from_function(grid16, lambda x, y, z: np.sin(PI * x), EVEN)
        acc = _march(NormAccumulator("Ez"), [(g,), (g,)], 2.0)
        # with no z-dependence H1_z factors reduce to L2_z: the H1_xy norm
        # of sin(pi x) is 2 sqrt(1 + pi^2), its L2 norm 2
        expected = np.sqrt(2.0) * 2 * np.sqrt(1 + PI**2) + 2.0
        assert finalize(acc) == pytest.approx(expected, rel=1e-12)

    def test_ehdelta_multiplier_reproduction(self, grid16):
        delta = 0.7
        g = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * x) * np.cos(PI * z), EVEN
        )
        zero = 0.0 * g
        acc = _march(
            NormAccumulator("EHdelta", delta=delta),
            [(g,), (g,)], 1.0, dsamples=[(zero,), (zero,)],
        )
        mult = PI**2 + delta * PI**2  # single mode |k_H|^2 + delta kz^2
        expected = norm_sobolev(g, 0.0) * (1.0 + mult)
        assert finalize(acc) == pytest.approx(expected, rel=1e-12)
        # consistency with the laplacian operator itself
        lap = SpectralField(grid16, g.coeffs * _lap_delta_mult(grid16, delta))
        assert norm_sobolev(lap, 0.0) == pytest.approx(mult * norm_sobolev(g, 0.0))

    def test_l4h32_exponential(self, grid16):
        g = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        dt = 1e-3
        acc = NormAccumulator("L4H32")
        n = int(round(20.0 / dt))
        for i in range(n + 1):
            acc = accumulate(acc, _sample((g * float(np.exp(-i * dt)),)), i * dt)
        expected = norm_sobolev(g, 1.5) * 0.25**0.25
        assert finalize(acc) == pytest.approx(expected, rel=1e-4)

    def test_ordering_and_insufficient_errors(self, grid16):
        g = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        acc = accumulate(NormAccumulator("L4H32"), _sample((g,)), 1.0)
        with pytest.raises(InsufficientData):
            finalize(acc)
        with pytest.raises(OrderingError):
            accumulate(acc, _sample((g,)), 1.0 - 1e-3)
        with pytest.raises(OrderingError):
            accumulate(acc, _sample((g,)), 1.0)

    def test_ehdelta_requires_dudt(self, grid16):
        g = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        with pytest.raises(InvalidParameter):
            accumulate(NormAccumulator("EHdelta", delta=1.0), _sample((g,)), 0.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            NormAccumulator("E7")

    @pytest.mark.parametrize("kind, delta", [("Ez", 5.0), ("L4H32", -3.0)])
    def test_a_kind_that_reads_no_delta_rejects_one(self, kind, delta):
        """Before, the delta was accepted and ignored."""
        with pytest.raises(InvalidParameter, match=f"a {kind} accumulator reads no delta"):
            NormAccumulator(kind, delta=delta)
        assert NormAccumulator(kind, delta=0.0).delta == 0.0

    def test_monotone_in_horizon_and_homogeneous(self, grid16):
        g = random_band_field(grid16, 17)
        acc = NormAccumulator("L4H32")
        vals = []
        for i in range(4):
            acc = accumulate(acc, _sample((g,)), i * 0.5)
            if i >= 1:
                vals.append(finalize(acc))
        assert vals == sorted(vals)
        acc2 = _march(NormAccumulator("L4H32"), [(3.0 * g,), (3.0 * g,)], 0.5)
        acc1 = _march(NormAccumulator("L4H32"), [(g,), (g,)], 0.5)
        assert finalize(acc2) == pytest.approx(3 * finalize(acc1))

    def test_embedding_ordering_same_samples(self, grid16):
        """Dropping the vertical-diffusion weight can only shrink the norm."""
        u = [(random_band_field(grid16, 60, EVEN),),
             (random_band_field(grid16, 61, EVEN),)]
        du = [(random_band_field(grid16, 62, EVEN),),
              (random_band_field(grid16, 63, EVEN),)]
        for delta in (0.3, 2.0, 50.0):
            with_d = _march(NormAccumulator("EHdelta", delta=delta), u, 0.1, du)
            without = _march(NormAccumulator("EHdelta", delta=0.0), u, 0.1, du)
            assert finalize(without) <= finalize(with_d) + 1e-12

    @pytest.mark.parametrize("on_band", [False, True])
    def test_fused_sums_equal_per_field_sums(self, grid16, on_band):
        """One Energies per sample gives every kind the values of the
        per-field weighted sums, to rounding: EHdelta at delta and 0, Ez
        with its running max, and L4H32."""
        from hydrostat.norms import _integrands, _sobolev_mult, _sq
        from hydrostat.spectral import _lap_delta_mult

        g = grid16.band if on_band else grid16

        def fields(seed):
            return [SpectralField(g, g.gather(f.coeffs) if on_band else f.coeffs, EVEN)
                    for f in (random_band_field(grid16, seed + i, EVEN) for i in range(3))]

        u, du = fields(70), fields(80)
        sample = Energies.of(g, [f.coeffs for f in u], [f.coeffs for f in du])
        w = g.parseval_weight
        expected = {
            "Ez": (_sq(u, _aniso_mult(g, 1, 1)),),
            "L4H32": (_sq(u, _sobolev_mult(g, 1.5)) ** 2,),
        }
        for delta in (0.0, 0.37):
            lap = w * _lap_delta_mult(g, delta) ** 2
            acc = NormAccumulator("EHdelta", delta=delta)
            got = _integrands(acc, sample)
            for a, b in zip(got, (_sq(u, w), _sq(du, w), _sq(u, lap))):
                assert a == pytest.approx(b, rel=1e-14)
        for kind, want in expected.items():
            got = _integrands(NormAccumulator(kind), sample)
            assert got[0] == pytest.approx(want[0], rel=1e-14)
        # the running max of Ez, through accumulate
        acc = accumulate(NormAccumulator("Ez"), sample, 0.0)
        assert acc.running_max == pytest.approx(
            np.sqrt(_sq(u, _aniso_mult(g, 1, 0))), rel=1e-14
        )

    def test_the_samples_times_set_the_trapezoids(self, grid16):
        """Unevenly spaced samples: each trapezoid spans the time since the
        last sample, so a constant sample over [0, 1] integrates to its
        value whatever the spacing."""
        g = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        acc = NormAccumulator("L4H32")
        for t in (0.0, 0.125, 0.5, 1.0):
            acc = accumulate(acc, _sample((g,)), t)
        assert acc.t_last == 1.0
        assert finalize(acc) == pytest.approx(norm_sobolev(g, 1.5), rel=1e-13)

    def test_a_dudt_that_does_not_match_u_is_an_error(self, grid16):
        """A 2-component du/dt of a 3-component u, or one on another
        layout, is no time derivative of it: a ShapeError, not a sample
        without du/dt."""
        u = [random_band_field(grid16, s).coeffs for s in (1, 2, 3)]
        with pytest.raises(ShapeError):
            Energies.of(grid16, u, u[:2])
        with pytest.raises(ShapeError):
            Energies.of(grid16, u, [grid16.band.gather(c) for c in u])
