"""Spectral core: grids, transforms, derivatives, dealiasing, parity."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostat.errors import InvalidGrid, InvalidParameter, ShapeError
from hydrostat.spectral import (
    EVEN,
    ODD,
    PhysicalField,
    SpectralField,
    dealias,
    enforce_parity,
    field_from_function,
    forward_transform,
    inner_l2,
    inverse_transform,
    laplacian_delta,
    make_grid,
    spectral_derivative,
    zero_field,
)

from conftest import random_band_field

PI = np.pi


class TestMakeGrid:
    def test_wavenumbers_are_pi_multiples(self):
        g = make_grid(8, 8, 8)
        assert set(np.rint(g.kx / PI).astype(int)) == set(range(-4, 4))
        g4 = make_grid(4, 4, 4)
        assert set(np.rint(g4.kx / PI).astype(int)) == {-2, -1, 0, 1}

    def test_dealias_mask_two_thirds(self):
        g = make_grid(8, 8, 8)
        m = np.rint(g.kx / PI).astype(int)
        kept = {int(mm) for mm, keep in zip(m, g.dealias_mask[:, 0, 0]) if keep}
        assert kept == {-2, -1, 0, 1, 2}

    @pytest.mark.parametrize("sizes", [(7, 8, 8), (8, 8, 2), (8, 5, 8), (0, 8, 8)])
    def test_invalid_sizes(self, sizes):
        with pytest.raises(InvalidGrid):
            make_grid(*sizes)

    def test_immutable_tables(self, grid8):
        with pytest.raises(ValueError):
            grid8.kx[0] = 1.0
        with pytest.raises(ValueError):
            grid8.dealias_mask[0, 0, 0] = False


class TestTransforms:
    def test_constant_normalization(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.ones_like(x))
        assert f.coeffs[0, 0, 0] == pytest.approx(1.0)
        rest = f.coeffs.copy()
        rest[0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-15

    def test_sine_coefficients(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.sin(PI * x))
        ix_plus = 1  # mode m=+1 in FFT order
        ix_minus = grid8.nx - 1
        assert f.coeffs[ix_plus, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert f.coeffs[ix_minus, 0, 0] == pytest.approx(0.5j, abs=1e-14)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_band_limited(self, seed):
        g = make_grid(16, 16, 16)
        f = random_band_field(g, seed)
        back = forward_transform(inverse_transform(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    def test_shape_mismatch(self, grid8, grid16):
        with pytest.raises(ShapeError):
            PhysicalField(grid8, np.zeros(grid16.shape))

    def test_conjugate_symmetry_of_real_fields(self, grid16):
        """A real field's coefficient at -k is the conjugate of the one at k."""
        c = random_band_field(grid16, 3).coeffs
        flipped = c
        for ax, n in enumerate(grid16.shape):
            flipped = np.take(flipped, (-np.arange(n)) % n, axis=ax)
        assert np.max(np.abs(np.conj(flipped) - c)) <= 1e-12


class TestDerivative:
    def test_analytic_x_derivative(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        d = spectral_derivative(f, "x")
        exact = field_from_function(grid16, lambda x, y, z: PI * np.cos(PI * x))
        assert np.max(np.abs(inverse_transform(d).values - inverse_transform(exact).values)) < 1e-12

    def test_z_derivative_of_constant(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.ones_like(x), EVEN)
        d = spectral_derivative(f, "z")
        assert np.max(np.abs(d.coeffs)) == 0.0
        assert d.parity == ODD

    def test_parity_flip_rule(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.cos(PI * z), EVEN)
        d = spectral_derivative(f, "z")
        assert d.parity == ODD
        exact = field_from_function(grid16, lambda x, y, z: -PI * np.sin(PI * z))
        assert np.max(np.abs(d.coeffs - exact.coeffs)) < 1e-12
        # even z-order keeps parity
        assert spectral_derivative(f, "z", 2).parity == EVEN
        assert spectral_derivative(f, "x").parity == EVEN

    def test_commutes_with_parity_projection(self, grid16):
        f = random_band_field(grid16, 9)
        a = spectral_derivative(enforce_parity(f, EVEN), "z")
        b = enforce_parity(spectral_derivative(f, "z"), ODD)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14

    @pytest.mark.parametrize("axis,order", [("q", 1), ("x", 0), ("x", -2)])
    def test_invalid_arguments(self, grid8, axis, order):
        f = zero_field(grid8)
        with pytest.raises(InvalidParameter):
            spectral_derivative(f, axis, order)


class TestDealias:
    def test_mask_examples(self):
        g = make_grid(8, 8, 8)
        c = np.zeros(g.shape, dtype=complex)
        c[3, 0, 0] = 1.0  # mode m=(3,0,0): outside the kept band
        c[1, 1, 1] = 2.0
        out = dealias(SpectralField(g, c))
        assert out.coeffs[3, 0, 0] == 0.0
        assert out.coeffs[1, 1, 1] == 2.0

    def test_idempotent_and_self_adjoint(self, grid16):
        a = random_band_field(grid16, 4, band=np.ones(grid16.shape, dtype=bool))
        b = random_band_field(grid16, 5, band=np.ones(grid16.shape, dtype=bool))
        da = dealias(a)
        assert np.array_equal(dealias(da).coeffs, da.coeffs)
        assert inner_l2(dealias(a), b) == pytest.approx(inner_l2(a, dealias(b)), rel=1e-12)

    def test_skew_symmetry_restored(self, grid16):
        # discrete <u.grad u + (div u) u / 2, u> vanishes for dealiased u
        from hydrostat.fields import _raw_advect
        from hydrostat.spectral import _raw_deriv, _raw_inner, _raw_to_phys, _raw_to_spec

        g = grid16
        comps = [random_band_field(g, s).coeffs for s in (6, 7, 8)]
        U = np.stack(comps)
        up = [_raw_to_phys(g, c) for c in comps]
        adv = _raw_advect(g, up, U)
        div_u = sum(
            _raw_deriv(g, comps[j], ax) for j, ax in enumerate("xyz")
        )
        div_phys = _raw_to_phys(g, div_u)
        corr = np.stack(
            [_raw_to_spec(g, 0.5 * div_phys * up[i]) * g.dealias_mask for i in range(3)]
        )
        pairing = _raw_inner(g, adv + corr, U)
        assert abs(pairing) < 1e-12


class TestParity:
    def test_even_projection_fixed_point(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.cos(PI * z))
        assert np.max(np.abs(enforce_parity(f, EVEN).coeffs - f.coeffs)) < 1e-15

    def test_odd_projection_annihilates_even(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.cos(PI * z))
        assert np.max(np.abs(enforce_parity(f, ODD).coeffs)) < 1e-15

    def test_mixed_field_splits(self, grid16):
        f = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * z) + np.cos(PI * z)
        )
        odd = enforce_parity(f, ODD)
        exact = field_from_function(grid16, lambda x, y, z: np.sin(PI * z))
        assert np.max(np.abs(odd.coeffs - exact.coeffs)) < 1e-14

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_projections_idempotent_and_annihilating(self, seed):
        g = make_grid(8, 8, 8)
        f = random_band_field(g, seed)
        even = enforce_parity(f, EVEN)
        odd = enforce_parity(f, ODD)
        assert np.max(np.abs(enforce_parity(even, EVEN).coeffs - even.coeffs)) < 1e-15
        assert np.max(np.abs(enforce_parity(even, ODD).coeffs)) < 1e-15
        assert np.max(np.abs(enforce_parity(odd, EVEN).coeffs)) < 1e-15
        # decomposition is exact
        assert np.max(np.abs(even.coeffs + odd.coeffs - f.coeffs)) < 1e-15

    def test_odd_kz0_plane_zero(self, grid16):
        f = random_band_field(grid16, 12)
        odd = enforce_parity(f, ODD)
        assert np.max(np.abs(odd.coeffs[:, :, 0])) == 0.0


class TestLaplacianDelta:
    def test_single_mode_multipliers(self, grid16):
        c = np.zeros(grid16.shape, dtype=complex)
        c[1, 0, 2] = 1.0  # mode (pi, 0, 2 pi)
        f = SpectralField(grid16, c)
        out = laplacian_delta(f, 1.0)
        assert out.coeffs[1, 0, 2] == pytest.approx(-5 * PI**2)
        out0 = laplacian_delta(f, 0.0)
        assert out0.coeffs[1, 0, 2] == pytest.approx(-(PI**2))

    def test_zero_field_and_errors(self, grid8):
        z = zero_field(grid8)
        assert np.max(np.abs(laplacian_delta(z, 2.0).coeffs)) == 0.0
        with pytest.raises(InvalidParameter):
            laplacian_delta(z, -0.1)

    def test_negative_semidefinite_with_trivial_kernel(self, grid16):
        f = random_band_field(grid16, 20)
        for delta in (0.5, 2.0):
            q = inner_l2(laplacian_delta(f, delta), f)
            assert q <= 1e-12
        # kernel for delta > 0 is exactly the constant mode
        mult = np.abs(laplacian_delta(
            SpectralField(grid16, np.ones(grid16.shape, dtype=complex)), 1.0
        ).coeffs)
        assert mult[0, 0, 0] == 0.0
        mult[0, 0, 0] = 1.0
        assert np.min(mult) > 0.0


def test_parseval_against_physical_quadrature(grid16):
    from hydrostat.norms import norm_sobolev

    f = random_band_field(grid16, 33)
    phys = inverse_transform(f).values
    quad = np.sum(phys**2) * 8.0 / grid16.size
    assert norm_sobolev(f, 0.0) ** 2 == pytest.approx(quad, rel=1e-10)


def test_field_arithmetic_and_immutability(grid8):
    a = random_band_field(grid8, 1, EVEN)
    b = random_band_field(grid8, 2, EVEN)
    s = a + b
    assert s.parity == EVEN
    assert np.allclose(s.coeffs, a.coeffs + b.coeffs)
    with pytest.raises(ValueError):
        a.coeffs[0, 0, 0] = 1.0
    with pytest.raises(InvalidParameter):
        SpectralField(grid8, np.full(grid8.shape, np.nan, dtype=complex))
