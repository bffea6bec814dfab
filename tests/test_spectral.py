"""Spectral core: grids and their bands, the transform kernels against
scipy.fft, the derivative, Laplacian and dealias multipliers, the parity
projection, and the package namespaces: their lazy exports, and no code
without a caller."""
import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrostat.errors import InvalidGrid, InvalidParameter, ShapeError
from hydrostat.spectral import (
    EVEN,
    ODD,
    Grid,
    SpectralField,
    _deriv_mult,
    _lap_delta_mult,
    _lattice_phase,
    _raw_inner,
    _raw_parity_project,
    _raw_to_phys,
    _raw_to_spec,
    field_from_function,
    make_grid,
    zero_field,
)

from conftest import (
    convective_advect,
    dealias_mask,
    full_cube,
    full_phase,
    full_wavenumbers,
    random_band_field,
    step,
)

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
        kept = {int(mm) for mm, keep in zip(m, dealias_mask(g)[:, 0, 0]) if keep}
        assert kept == {-2, -1, 0, 1, 2}
        assert set(np.rint(g.band.kx / PI).astype(int)) == kept

    @pytest.mark.parametrize("n", [6, 12, 24, 8, 16, 32])
    def test_dealiased_square_is_exact(self, n):
        """The dealiased square of a masked field equals the masked exact
        square, on every axis.  The field carries every mode up to n // 3,
        which |m| <= n // 3 would keep; for n a multiple of 3 the square of
        mode n/3 aliases onto -n/3, so that rule is off by 0.25 there.
        Both are compared as full cubes, so the z line has its kz < 0 modes."""
        q = n // 3
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, q + 1))
        for axis in range(3):
            shape = [4, 4, 4]
            shape[axis] = n
            g = make_grid(*shape)
            line = tuple(slice(None) if i == axis else 0 for i in range(3))
            x = np.reshape(-1.0 + 2.0 * np.arange(n) / n,
                           [-1 if i == axis else 1 for i in range(3)])
            f = sum(a[m] * np.cos(PI * m * x) + b[m] * np.sin(PI * m * x)
                    for m in range(q + 1))
            c = _raw_to_spec(g, np.broadcast_to(f, g.shape)) * dealias_mask(g)
            sq = _raw_to_spec(g, _raw_to_phys(g, c) ** 2) * dealias_mask(g)
            c, sq = full_cube(g, c), full_cube(g, sq)
            # exact square: convolution of the centred mode vectors of c
            modes = np.arange(-q, q + 1)
            conv = np.convolve(c[line][modes], c[line][modes])  # modes -2q..2q
            exact = np.zeros(sq.shape, dtype=complex)
            for s, v in zip(range(-2 * q, 2 * q + 1), conv):
                if 3 * abs(s) < n:
                    exact[line][s] = v
            assert np.max(np.abs(sq - exact)) <= 1e-14

    @pytest.mark.parametrize("sizes", [(7, 8, 8), (8, 8, 2), (8, 5, 8), (0, 8, 8)])
    def test_invalid_sizes(self, sizes):
        with pytest.raises(InvalidGrid):
            make_grid(*sizes)

    def test_immutable_tables(self, grid8):
        with pytest.raises(ValueError):
            grid8.kx[0] = 1.0
        with pytest.raises(ValueError):
            grid8.ksq[0, 0, 0] = 1.0


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

    @given(
        seed=st.integers(0, 10_000),
        shape=st.tuples(*[st.sampled_from(range(4, 17, 2))] * 3),
    )
    @example(seed=0, shape=(16, 16, 4))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_band_limited(self, seed, shape):
        g = make_grid(*shape)
        c = random_band_field(g, seed).coeffs
        assert np.max(np.abs(_raw_to_spec(g, _raw_to_phys(g, c)) - c)) < 1e-12

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 8), (64, 64, 4), (6, 4, 10)])
    @pytest.mark.parametrize("on_plane", [False, True])
    def test_half_spectrum_inverse_matches_full_complex(self, shape, on_plane):
        """The inverse is an irfftn of the kz >= 0 half (on the plane band,
        of its ky >= 0 modes); on the coefficients of real fields, Nyquist
        planes included, it equals the real part of the full complex inverse
        of their full cube (of the band scattered into the full plane)."""
        grid = make_grid(*shape)
        g = grid.plane if on_plane else grid
        rng = np.random.default_rng(11)
        c = _raw_to_spec(g, rng.standard_normal((3, *g.shape)))
        axes = tuple(range(-len(g.shape), 0))
        if on_plane:
            cube = g.scatter(c) * _lattice_phase(grid)[..., 0]
        else:
            cube = full_cube(grid, c * _lattice_phase(grid))
        full = scipy.fft.ifftn(cube, axes=axes).real * np.prod(g.shape)
        got = _raw_to_phys(g, c)
        assert got.shape == (3, *g.shape) and got.dtype == np.float64
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize(
        "shape", [(32, 32, 32), (64, 64, 4), (6, 4, 10), (24, 24, 24), (48, 30, 6)]
    )
    @pytest.mark.parametrize("layout", ["grid", "plane.band", "band"])
    def test_passes_equal_scipy_bit_for_bit(self, layout, shape):
        """The numpy.fft passes are scipy.fft's rfftn (fftn on the plane
        band, with its conjugate fill of the ky > ny/2 half and of the ky = 0
        and ny/2 columns) and irfftn bit for bit, on every layout and for
        stacks within and across the workspace's batches.  The sizes that
        are not powers of two catch a wrong 1/N, the 24x24 plane a wrong
        fill, and 48x30x6, whose axes keep different numbers of modes, a
        prefix or a run taken from the wrong axis."""
        grid = make_grid(*shape)
        # plane.band: grid.plane, the band of the kz=0 plane
        g = {"grid": grid, "plane.band": grid.plane, "band": grid.band}[layout]
        on_plane = len(g.shape) == 2
        phase = _lattice_phase(grid)[..., 0] if on_plane else _lattice_phase(grid)
        axes = tuple(range(-len(g.shape), 0))
        h = g.shape[-1] // 2 + 1
        fft = scipy.fft.fftn if on_plane else scipy.fft.rfftn
        rng = np.random.default_rng(17)
        for k in (1, 2, 3, 6):
            p = rng.standard_normal((k, *g.shape))
            spec = full = fft(p, axes=axes, norm="forward") * phase
            if g is not grid:
                spec = g.gather(full)
                full = g.scatter(spec)
            phys = scipy.fft.irfftn((full * phase)[..., :h], s=g.shape,
                                    axes=axes, norm="forward")
            assert np.array_equal(_raw_to_spec(g, p), spec)
            assert np.array_equal(_raw_to_phys(g, spec), phys)

    def test_shape_mismatch(self, grid8, grid16):
        with pytest.raises(ShapeError):
            SpectralField(grid8, np.zeros(grid16.spec_shape, dtype=complex))

    def test_conjugate_symmetry_of_real_fields(self, grid16):
        """A real field's coefficient at -k is the conjugate of the one at k:
        its stored kz >= 0 half, completed by that rule, is the full complex
        transform of its values."""
        f = random_band_field(grid16, 3)
        p = _raw_to_phys(grid16, f.coeffs)
        fft = scipy.fft.fftn(p, norm="forward") * full_phase(grid16)
        assert np.max(np.abs(full_cube(grid16, f.coeffs) - fft)) <= 1e-12

    def test_full_cube_rejected(self, grid8):
        """Coefficients in the full (nx, ny, nz) layout are not read as a
        kz >= 0 half."""
        with pytest.raises(ShapeError, match=r"\(8, 8, 8\).*\(8, 8, 5\).*kz >= 0 half"):
            SpectralField(grid8, np.zeros(grid8.shape, dtype=complex))


class TestBand:
    """The stepper layout, grid.band: the modes the 2/3 mask keeps, a layout
    of its own."""

    @pytest.mark.parametrize(
        "shape, band", [((32, 32, 32), (21, 21, 11)), ((16, 16, 16), (11, 11, 6)),
                        ((64, 64, 4), (43, 43, 2)), ((6, 4, 10), (3, 3, 4))]
    )
    def test_is_the_mask(self, shape, band):
        grid = make_grid(*shape)
        assert grid.band.spec_shape == band
        assert grid.plane.spec_shape == band[:2]
        assert grid.band.shape == grid.shape and grid.band.nz == grid.nz
        assert int(dealias_mask(grid).sum()) == np.prod(band)
        assert np.all(grid.band.gather(dealias_mask(grid)))
        c = random_band_field(grid, 1, band=np.ones(grid.spec_shape, bool)).coeffs
        assert np.array_equal(grid.band.scatter(grid.band.gather(c)), c * dealias_mask(grid))
        # kx, ky in FFT order with no Nyquist mode; kz the prefix
        K = (shape[0] - 1) // 3
        m = np.rint(grid.band.kx / PI)
        assert list(m) == [*range(K + 1), *range(-K, 0)]
        assert np.array_equal(grid.band.kz, grid.kz[: band[2]])

    @pytest.mark.parametrize("shape", [(32, 32, 32), (16, 16, 8), (64, 64, 4), (6, 4, 10)])
    def test_transforms_match_the_parent_bit_for_bit(self, shape):
        """The inverse pads the band into its parent's half spectrum and the
        forward gathers the band from its parent's transform, so neither
        changes a bit of what the parent layout gives on masked data."""
        grid = make_grid(*shape)
        band = grid.band
        rng = np.random.default_rng(5)
        p = rng.standard_normal((3, *grid.shape))
        c = _raw_to_spec(grid, p) * dealias_mask(grid)
        assert np.array_equal(_raw_to_phys(band, band.gather(c)), _raw_to_phys(grid, c))
        assert np.array_equal(_raw_to_spec(band, p), band.gather(_raw_to_spec(grid, p)))

    @pytest.mark.parametrize("shape", [(32, 32, 32), (16, 16, 16), (64, 64, 4), (6, 4, 10)])
    def test_plane_is_the_kz0_plane_of_the_band(self, shape):
        """grid.plane, the NS2D layout, is the kz=0 plane of grid.band: the
        same kx and ky modes, |k_H|^2 of the band's kz=0 plane, the box
        volume as weight, and its gather and scatter on the kz=0 slice of
        the grid's coefficients are those of the band on the whole."""
        grid = make_grid(*shape)
        plane, band = grid.plane, grid.band
        assert plane.shape == grid.shape[:2]
        for a in range(2):
            assert np.array_equal(plane.index[a], band.index[a])
            assert np.array_equal(plane.wavenumbers[a], band.wavenumbers[a])
        assert np.array_equal(plane.k2h, band.k2h[..., 0])
        assert np.array_equal(plane.ksq, band.k2h[..., 0])
        assert np.all(plane.parseval_weight == 8.0)
        assert len(plane.parseval_weight) == plane.spec_shape[1]
        c = random_band_field(grid, 4, band=np.ones(grid.spec_shape, bool)).coeffs
        assert np.array_equal(plane.scatter(plane.gather(c[:, :, 0])),
                              band.scatter(band.gather(c))[:, :, 0])

    @pytest.mark.parametrize("shape", [(32, 32, 32), (16, 16, 16), (6, 4, 10)])
    def test_odd_rules_keep_every_band_mode(self, shape):
        """A band has no Nyquist mode: the odd parity projection keeps its
        last kz plane (a Nyquist plane only on the grid), and an odd-order
        derivative keeps every kept kx and ky (index n//2 of the grid's
        axis is a kept mode of the band's)."""
        grid = make_grid(*shape)
        band = grid.band
        c = random_band_field(grid, 8).coeffs
        b = band.gather(c)
        odd = _raw_parity_project(band, b, ODD)
        assert np.array_equal(odd, band.gather(_raw_parity_project(grid, c, ODD)))
        assert np.max(np.abs(odd[..., -1])) > 0.0
        for axis in range(3):
            for order in (1, 3):
                mult = _deriv_mult(band, axis, order)
                assert np.count_nonzero(mult == 0) == 1  # the zero mode only
                assert np.array_equal(
                    b * mult, band.gather(c * _deriv_mult(grid, axis, order))
                )


class TestOneLayoutType:
    """The grid, its band and its plane are one class, Grid, built by one
    constructor: the band's tables are the grid's on the kept modes."""

    @pytest.mark.parametrize("shape", [(32, 32, 32), (16, 16, 8), (64, 64, 4), (6, 4, 10)])
    def test_band_and_plane_are_grids(self, shape):
        grid = make_grid(*shape)
        band, plane = grid.band, grid.plane
        assert type(grid) is Grid and type(band) is Grid and type(plane) is Grid
        assert grid.whole and not band.whole and not plane.whole
        assert grid.workspace is None
        # bit for bit the grid's tables gathered onto the band
        assert np.array_equal(band.k2h, band.gather(grid.k2h))
        assert np.array_equal(band.ksq, band.gather(grid.ksq))
        weight = np.broadcast_to(grid.parseval_weight, grid.spec_shape)
        assert np.array_equal(band.parseval_weight, band.gather(weight)[0, 0])
        assert grid.kmax == max(float(np.max(np.abs(k) * dealias_mask(grid)))
                                for k in (grid.kx3, grid.ky3, grid.kz3))

    def test_layouts_compare_and_hash_by_identity(self):
        a, b = make_grid(8, 8, 8), make_grid(8, 8, 8)
        assert a == a and not (a == b) and a != b
        assert len({a, b, a.band, a.plane}) == 4


class TestBandWorkspace:
    """The band of a cube stages its transforms in one workspace that it
    owns: z, then (x, y) on the kept kz planes only."""

    SHAPES = [(32, 32, 32), (16, 16, 16), (64, 64, 4), (6, 4, 10), (12, 12, 12),
              (48, 30, 6)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_transforms_equal_irfftn_and_rfftn(self, shape):
        """Bit for bit the band's modes of rfftn and the irfftn of the band
        padded into the half spectrum, at every size: the staged passes
        are the same arithmetic on the planes that are kept."""
        grid = make_grid(*shape)
        band = grid.band
        phase = _lattice_phase(grid)
        rng = np.random.default_rng(11)
        for k in (1, 3, 4, 6):  # within and across the workspace's batches
            p = rng.standard_normal((k, *grid.shape))
            spec = scipy.fft.rfftn(p, axes=(-3, -2, -1), norm="forward") * phase
            b = _raw_to_spec(band, p)
            assert np.array_equal(b, band.gather(spec))
            phys = scipy.fft.irfftn(band.scatter(b) * phase, s=grid.shape,
                                    axes=(-3, -2, -1), norm="forward")
            assert np.array_equal(_raw_to_phys(band, b), phys)
        # a single field, without a stack axis
        assert np.array_equal(_raw_to_phys(band, b[0]), phys[0])
        assert np.array_equal(_raw_to_spec(band, p[0]), b[0])
        # the grid keeps its irfftn
        assert np.array_equal(_raw_to_phys(grid, spec), scipy.fft.irfftn(
            spec * phase, s=grid.shape, axes=(-3, -2, -1), norm="forward"))

    def test_results_do_not_share_the_workspace(self):
        from hydrostat.solvers import (
            NavierStokes2DStepper, NavierStokesStepper, PrimitiveStepper,
        )
        grid = make_grid(16, 16, 16)
        band, plane = grid.band, grid.plane
        ws, ws2 = band.workspace, plane.workspace
        assert ws is band.workspace and ws2 is plane.workspace
        assert ws2.real.shape[1:] == plane.shape
        for a in (ws2.real, ws2.cplx):
            assert not np.shares_memory(a, ws.real) and not np.shares_memory(a, ws.cplx)
        b = band.gather(random_band_field(grid, 3).coeffs)
        U = np.stack((b, b, np.zeros_like(b)))
        results = [_raw_to_phys(band, U), _raw_to_spec(band, ws.real[:4])]
        for stepper in (NavierStokesStepper(grid, 0.5, 0.2, 1e-3),
                        PrimitiveStepper(grid, 1.0, 0.2, 1e-3)):
            N = stepper.nonlinear(U[: len(stepper.parities)])
            results += [N, stepper.advance(U[: len(stepper.parities)], N),
                        stepper._n_prev]
        for r in results:
            for buf in (ws.real, ws.cplx):
                assert not np.shares_memory(r, buf)
        stepper = NavierStokes2DStepper(grid, 1.0, 0.0, 1e-3)
        V = np.stack((b[..., 0], b[..., 0]))
        N = stepper.nonlinear(V)
        for r in (N, stepper.advance(V, N), stepper._n_prev):
            for buf in (ws2.real, ws2.cplx):
                assert not np.shares_memory(r, buf)
        # the one opt-in: an inverse into a given array
        top = ws.real[2:]
        assert _raw_to_phys(band, U, out=top) is top

    def test_a_dropped_grid_is_freed_without_the_collector(self):
        """The bands a grid caches (its band and its plane) keep its sizes,
        not the grid: no reference cycle keeps a finished run's grid, its
        multiplier caches and its workspace alive until a full collection."""
        import gc
        import weakref

        from hydrostat.solvers import NavierStokes2DStepper, NavierStokesStepper

        gc.collect()
        gc.disable()
        try:
            grid = make_grid(8, 8, 8)
            data = random_band_field(grid, 2).coeffs
            U = grid.band.gather(np.stack((data, data)))
            step(NavierStokesStepper(grid, 0.5, 0.2, 1e-3), U)
            step(NavierStokes2DStepper(grid, 1.0, 0.0, 1e-3), grid.plane.gather(
                np.stack((data[..., 0], data[..., 0]))))
            refs = [weakref.ref(o) for o in (grid, grid.band, grid.plane)]
            del grid
            assert [r() for r in refs] == [None] * 3
        finally:
            gc.enable()


class TestDerivative:
    """The derivative multipliers (i k)^order of _deriv_mult, axis 0, 1, 2
    for x, y, z."""

    def test_analytic_x_derivative(self, grid16):
        f = field_from_function(grid16, lambda x, y, z: np.sin(PI * x))
        d = f.coeffs * _deriv_mult(grid16, 0, 1)
        exact = field_from_function(grid16, lambda x, y, z: PI * np.cos(PI * x))
        gap = _raw_to_phys(grid16, d) - _raw_to_phys(grid16, exact.coeffs)
        assert np.max(np.abs(gap)) < 1e-12

    def test_z_derivative_of_constant(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.ones_like(x), EVEN)
        assert np.max(np.abs(f.coeffs * _deriv_mult(grid8, 2, 1))) == 0.0

    def test_parity_flip_rule(self, grid16):
        """An odd-order z derivative of an even field is odd; an even order,
        or a horizontal derivative, keeps it even."""
        f = field_from_function(grid16, lambda x, y, z: np.cos(PI * z), EVEN)
        d = f.coeffs * _deriv_mult(grid16, 2, 1)
        exact = field_from_function(grid16, lambda x, y, z: -PI * np.sin(PI * z))
        assert np.max(np.abs(d - exact.coeffs)) < 1e-12
        assert np.max(np.abs(_raw_parity_project(grid16, d, ODD) - d)) < 1e-14
        for axis, order in ((2, 2), (0, 1)):
            e = f.coeffs * _deriv_mult(grid16, axis, order)
            assert np.max(np.abs(_raw_parity_project(grid16, e, EVEN) - e)) < 1e-13

    def test_commutes_with_parity_projection(self, grid16):
        c = random_band_field(grid16, 9).coeffs
        dz = _deriv_mult(grid16, 2, 1)
        a = _raw_parity_project(grid16, c, EVEN) * dz
        b = _raw_parity_project(grid16, c * dz, ODD)
        assert np.max(np.abs(a - b)) < 1e-14

    @pytest.mark.parametrize("shape", [(6, 4, 10), (16, 16, 8)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_derivative_of_unmasked_field_stays_real(self, shape, axis, order):
        """Odd orders drop the Nyquist mode of their axis, where (i k) c is
        the coefficient of no real field: the lattice values equal the real
        part of the full complex inverse of (i k)^order c."""
        g = make_grid(*shape)
        f = random_band_field(g, 12, band=np.ones(g.spec_shape, dtype=bool))
        k = full_wavenumbers(g)["xyz".index(axis)]
        full = scipy.fft.ifftn(
            (1j * k) ** order * full_cube(g, f.coeffs * _lattice_phase(g))
        ).real * g.size
        got = _raw_to_phys(g, f.coeffs * _deriv_mult(g, "xyz".index(axis), order))
        assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))


class TestDealias:
    """The 2/3 rule as the product with dealias_mask(grid)."""

    def test_mask_examples(self):
        g = make_grid(8, 8, 8)
        c = np.zeros(g.spec_shape, dtype=complex)
        c[3, 0, 0] = 1.0  # mode m=(3,0,0): outside the kept band
        c[1, 1, 1] = 2.0
        out = c * dealias_mask(g)
        assert out[3, 0, 0] == 0.0
        assert out[1, 1, 1] == 2.0

    def test_idempotent_and_self_adjoint(self, grid16):
        every = np.ones(grid16.spec_shape, dtype=bool)
        a = random_band_field(grid16, 4, band=every).coeffs
        b = random_band_field(grid16, 5, band=every).coeffs
        mask = dealias_mask(grid16)
        assert np.array_equal(a * mask * mask, a * mask)
        assert _raw_inner(grid16, a * mask, b) == pytest.approx(
            _raw_inner(grid16, a, b * mask), rel=1e-12)

    def test_skew_symmetry_restored(self, grid16):
        # discrete <u.grad u + (div u) u / 2, u> vanishes for dealiased u
        g = grid16
        comps = [random_band_field(g, s).coeffs for s in (6, 7, 8)]
        U = np.stack(comps)
        up = [_raw_to_phys(g, c) for c in comps]
        adv = convective_advect(g, up, U)
        div_u = sum(comps[j] * _deriv_mult(g, j, 1) for j in range(3))
        div_phys = _raw_to_phys(g, div_u)
        corr = np.stack(
            [_raw_to_spec(g, 0.5 * div_phys * up[i]) * dealias_mask(g) for i in range(3)]
        )
        pairing = _raw_inner(g, adv + corr, U)
        assert abs(pairing) < 1e-12


class TestParity:
    """The orthogonal projections onto the even and the odd functions of z
    (_raw_parity_project)."""

    def test_even_projection_fixed_point(self, grid16):
        c = field_from_function(grid16, lambda x, y, z: np.cos(PI * z)).coeffs
        assert np.max(np.abs(_raw_parity_project(grid16, c, EVEN) - c)) < 1e-15

    def test_odd_projection_annihilates_even(self, grid16):
        c = field_from_function(grid16, lambda x, y, z: np.cos(PI * z)).coeffs
        assert np.max(np.abs(_raw_parity_project(grid16, c, ODD))) < 1e-15

    def test_mixed_field_splits(self, grid16):
        f = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * z) + np.cos(PI * z)
        )
        odd = _raw_parity_project(grid16, f.coeffs, ODD)
        exact = field_from_function(grid16, lambda x, y, z: np.sin(PI * z))
        assert np.max(np.abs(odd - exact.coeffs)) < 1e-14

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_projections_idempotent_and_annihilating(self, seed):
        g = make_grid(8, 8, 8)
        c = random_band_field(g, seed).coeffs
        even = _raw_parity_project(g, c, EVEN)
        odd = _raw_parity_project(g, c, ODD)
        assert np.max(np.abs(_raw_parity_project(g, even, EVEN) - even)) < 1e-15
        assert np.max(np.abs(_raw_parity_project(g, even, ODD))) < 1e-15
        assert np.max(np.abs(_raw_parity_project(g, odd, EVEN))) < 1e-15
        # decomposition is exact
        assert np.max(np.abs(even + odd - c)) < 1e-15

    def test_odd_kz0_plane_zero(self, grid16):
        c = random_band_field(grid16, 12).coeffs
        odd = _raw_parity_project(grid16, c, ODD)
        assert np.max(np.abs(odd[:, :, 0])) == 0.0


class TestLaplacianDelta:
    """The anisotropic Laplacian, the multiplier -(|k_H|^2 + delta kz^2) of
    _lap_delta_mult."""

    def test_single_mode_multipliers(self, grid16):
        c = np.zeros(grid16.spec_shape, dtype=complex)
        c[1, 0, 2] = 1.0  # mode (pi, 0, 2 pi)
        out = c * _lap_delta_mult(grid16, 1.0)
        assert out[1, 0, 2] == pytest.approx(-5 * PI**2)
        out0 = c * _lap_delta_mult(grid16, 0.0)
        assert out0[1, 0, 2] == pytest.approx(-(PI**2))

    def test_zero_field_and_errors(self, grid8):
        """The zero field maps to zero; a negative delta is rejected where the
        package takes one for this operator, the EHdelta norm."""
        from hydrostat.norms import NormAccumulator

        z = zero_field(grid8)
        assert np.max(np.abs(z.coeffs * _lap_delta_mult(grid8, 2.0))) == 0.0
        with pytest.raises(InvalidParameter):
            NormAccumulator("EHdelta", delta=-0.1)

    def test_negative_semidefinite_with_trivial_kernel(self, grid16):
        c = random_band_field(grid16, 20).coeffs
        for delta in (0.5, 2.0):
            q = _raw_inner(grid16, c * _lap_delta_mult(grid16, delta), c)
            assert q <= 1e-12
        # kernel for delta > 0 is exactly the constant mode
        mult = np.abs(_lap_delta_mult(grid16, 1.0))
        assert mult.shape == grid16.spec_shape
        assert mult[0, 0, 0] == 0.0
        mult[0, 0, 0] = 1.0
        assert np.min(mult) > 0.0


def test_parseval_against_physical_quadrature(grid16):
    from hydrostat.norms import norm_sobolev

    f = random_band_field(grid16, 33)
    phys = _raw_to_phys(grid16, f.coeffs)
    quad = np.sum(phys**2) * 8.0 / grid16.size
    assert norm_sobolev(f, 0.0) ** 2 == pytest.approx(quad, rel=1e-10)


def test_field_arithmetic_and_immutability(grid8):
    a = random_band_field(grid8, 1, EVEN)
    s = 2.5 * a
    assert s.parity == EVEN and s.grid is grid8
    assert np.array_equal(s.coeffs, a.coeffs * 2.5)
    with pytest.raises(ValueError):
        a.coeffs[0, 0, 0] = 1.0
    with pytest.raises(InvalidParameter):
        SpectralField(grid8, np.full(grid8.spec_shape, np.nan, dtype=complex))


def test_the_runtime_imports_no_scipy(tmp_path):
    """scipy is a test dependency only: building a grid and drawing initial
    data (the set-up of every run), a one-step `hydrostat run` and importing
    the CLI import none of it.  The set-up and the run load only the
    hydrostat modules they use."""
    import ast
    import os
    import subprocess
    import sys

    import hydrostat

    config = tmp_path / "run.cfg"
    config.write_text("system = NS_eps_delta\nnx = 8\nny = 8\nnz = 8\ndt = 0.001\n"
                      "t_end = 0.001\nrecipe = bandlimited_random\nseed = 1\n")
    code = (
        "import sys\n"
        "loaded = lambda p: sorted(m for m in sys.modules if m.partition('.')[0] == p)\n"
        "from hydrostat.harness.initial_data import generate_initial_data\n"
        "from hydrostat.spectral import make_grid\n"
        "generate_initial_data('bandlimited_random', 42, make_grid(32, 32, 32))\n"
        "print(loaded('hydrostat'))\n"
        "from hydrostat.harness.cli import main\n"
        f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
        "print(loaded('hydrostat'))\n"
        "print(loaded('scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(hydrostat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    setup, run, scipy_modules = (set(ast.literal_eval(line))
                                 for line in (lines[0], lines[-2], lines[-1]))
    harness = lambda *names: {f"hydrostat.harness.{n}" for n in names}
    assert not setup & {"hydrostat.bootstrap", "hydrostat.solvers",
                        *harness("pairs", "sweep", "snapshots", "verify", "cli",
                                 "config", "plots")}
    assert not run & {"hydrostat.bootstrap", *harness("pairs", "sweep", "verify")}
    assert scipy_modules == set()


def _src_trees():
    """(path, parsed module) of every .py file under src/hydrostat."""
    import ast
    import pathlib

    import hydrostat

    return [(path, ast.parse(path.read_text()))
            for path in sorted(pathlib.Path(hydrostat.__file__).parent.rglob("*.py"))]


def test_every_definition_has_a_caller_in_src():
    """Every function, method and class under src/hydrostat, dunders aside,
    is read somewhere in src/ as a loaded name or attribute of the parsed
    code: code with no caller is deleted, with its tests.  Docstrings,
    comments and imports read nothing, and neither does a package's export
    table (_EXPORTS in its __init__.py), whose names are strings."""
    import ast

    defined, read = set(), set()
    for _, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined - read == set()


def test_every_class_member_is_read_in_src():
    """Every method, property, class-level attribute and annotated
    (dataclass) field in a class body under src/hydrostat, dunders aside,
    is read as .name, a loaded attribute of the parsed code, somewhere in
    src/.  The check above misses a member whose name is also a local name
    elsewhere, as SampledFunction.t0 and ContinuationSchedule.T were."""
    import ast

    members, read = [], set()
    for _, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                elif isinstance(item, ast.AnnAssign):
                    names = [item.target.id]
                else:
                    names = []
                members += [(node.name, name) for name in names
                            if not name.startswith("__")]
    unread = {f"{cls}.{name}" for cls, name in members if name not in read}
    assert unread == set()


def test_only_run_lanes_advances_a_stepper():
    """solvers.run_lanes is the one time loop: no code under src/hydrostat
    but its body calls .advance(, so every run, sweep and verify check
    steps through it."""
    import ast
    import pathlib

    import hydrostat

    root = pathlib.Path(hydrostat.__file__).parent
    inside, outside = 0, []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        loop = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "run_lanes"
                and path.name == "solvers.py"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "advance"):
                if any(node.lineno in lines for lines in loop):
                    inside += 1
                else:
                    outside.append(f"{path.relative_to(root)}:{node.lineno}")
    assert inside == 1 and outside == []


def test_only_the_mode_table_names_a_mode():
    """No comparison under src/hydrostat names a sweep mode: every rule that
    depends on the mode is an entry of pairs.MODES, so a new mode is one
    entry there."""
    import ast
    import pathlib

    import hydrostat
    from hydrostat.harness.pairs import MODES

    found = []
    for path in sorted(pathlib.Path(hydrostat.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Compare, ast.MatchValue)) and any(
                    isinstance(c, ast.Constant) and c.value in MODES
                    for c in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_norm_kind_is_built_by_a_lane_builder():
    """Every kind of norms.KINDS is an accumulator that a mode's lane
    builder in harness/pairs.py constructs: a kind that no sweep folds has
    no caller."""
    import ast
    import inspect

    from hydrostat.harness import pairs
    from hydrostat.norms import KINDS

    built = set()
    for builder in {spec.lanes for spec in pairs.MODES.values()}:
        for node in ast.walk(ast.parse(inspect.getsource(builder))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "NormAccumulator"):
                built.add(node.args[0].value)
    assert sorted(built) == sorted(KINDS)


# The names each package namespace exports, by the submodule each comes
# from (README's quick start imports from both).
_EXPORTED = {
    "hydrostat": {
        "bootstrap": "BootstrapCertificate BudgetFunctions SampledFunction "
                     "certify_exp_quadratic_bound certify_quadratic_bound "
                     "continuation_schedule",
        "errors": "BlowupDetected CompatibilityError ConfigError FormatError "
                  "HydrostatError InsufficientData InvalidGrid InvalidParameter "
                  "OrderingError ScheduleInfeasible ShapeError",
        "fields": "SplitState VelocityState barotropic_split",
        "norms": "Energies NormAccumulator accumulate finalize norm_sobolev",
        "solvers": "SimConfig TrajectoryRecord run_simulation",
        "spectral": "EVEN NONE ODD Grid SpectralField field_from_function make_grid",
        "harness": "",
    },
    "hydrostat.harness": {
        "initial_data": "RECIPES generate_initial_data",
        "pairs": "NormRow run_matched_family run_matched_pair",
        "snapshots": "load_snapshot save_snapshot",
        "sweep": "SweepConfig SweepResult fit_rate format_csv run_sweep",
    },
}


@pytest.mark.parametrize("package", sorted(_EXPORTED))
def test_the_lazy_namespaces_export_the_submodules_objects(package):
    """Every exported name reads as its submodule's own object, uncached, and
    is listed by dir() and __all__; each submodule named here reads through
    __getattr__; an unknown name is an AttributeError."""
    import importlib

    pkg = importlib.import_module(package)
    exported = []
    for sub, names in _EXPORTED[package].items():
        module = importlib.import_module(f"{package}.{sub}")
        assert pkg.__getattr__(sub) is module and sub in dir(pkg)
        for name in names.split():
            assert getattr(pkg, name) is getattr(module, name)
            assert name not in vars(pkg)
            assert name in dir(pkg)
            exported.append(name)
    assert sorted(pkg.__all__) == sorted(exported)
    star = {}
    exec(f"from {package} import *", star)
    assert set(exported) <= set(star)
    with pytest.raises(AttributeError):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")

