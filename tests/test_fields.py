"""Field assembly: projections, vertical velocity, difference RHS."""
import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostat.errors import CompatibilityError, ShapeError
from hydrostat.fields import (
    VELOCITY_PARITIES,
    _raw_advect,
    _raw_div_eps_defect,
    _raw_project_eps,
    _raw_project_hydro,
    _raw_w_from_v,
    _raw_with_w,
)
from hydrostat.solvers import PrimitiveStepper
from hydrostat.spectral import (
    EVEN,
    ODD,
    SpectralField,
    _deriv_mult,
    _lap_delta_mult,
    _raw_embed_plane,
    _raw_inner,
    _raw_parity_project,
    _raw_to_phys,
    _raw_to_spec,
    _to_band,
    field_from_function,
    make_grid,
    zero_field,
)

from conftest import (
    convective_advect,
    dealias_mask,
    full_phase,
    full_wavenumbers,
    hydro_projected,
    random_band_field,
    step,
)

PI = np.pi


def _stack(fields):
    return np.stack([f.coeffs for f in fields])


def _pair(grid, seeds):
    return tuple(random_band_field(grid, s, EVEN) for s in seeds)


def _constrained_pair(grid, seeds):
    """Random even pair satisfying the vertical-average constraint."""
    V = hydro_projected(grid, _stack(_pair(grid, seeds)))
    return tuple(SpectralField(grid, c, EVEN) for c in V)


def _w(v):
    """The vertical velocity field of a horizontal pair of fields."""
    return SpectralField(v[0].grid, _raw_w_from_v(v[0].grid, _stack(v)), ODD)


class TestScaledProjection:
    def test_annihilates_scaled_gradients(self, grid16):
        phi = random_band_field(grid16, 40, EVEN).coeffs
        eps = 0.3
        grad = np.stack(
            (1j * grid16.kx3 * phi, 1j * grid16.ky3 * phi, 1j * grid16.kz3 / eps * phi)
        )
        out = _raw_project_eps(grid16, grad, eps)
        assert np.max(np.abs(out)) < 1e-13

    def test_idempotent_and_divergence_free(self, grid16):
        eps = 0.25
        u = _stack(
            random_band_field(grid16, s, p)
            for s, p in ((1, EVEN), (2, EVEN), (3, ODD))
        )
        once = _raw_project_eps(grid16, u, eps)
        twice = _raw_project_eps(grid16, once, eps)
        assert np.max(np.abs(once - twice)) < 1e-13
        assert _raw_div_eps_defect(grid16, once, eps) < 1e-12
        # into a given array: the first len(out) components, bit for bit
        pair = np.empty((2, *grid16.spec_shape), complex)
        assert _raw_project_eps(grid16, u, eps, out=pair) is pair
        assert np.array_equal(pair, once[:2])

    def test_single_mode_example(self, grid16):
        u = np.zeros((3, *grid16.spec_shape), dtype=complex)
        u[0, 1, 0, 1] = 1.0  # k = (pi, 0, pi)
        out = _raw_project_eps(grid16, u, 1.0)
        assert out[0, 1, 0, 1] == pytest.approx(0.5)
        assert out[1, 1, 0, 1] == pytest.approx(0.0)
        assert out[2, 1, 0, 1] == pytest.approx(-0.5)

    def test_self_adjoint_and_commutes_with_laplacian(self, grid16):
        eps, delta = 0.4, 0.7
        u = _stack(random_band_field(grid16, s) for s in (11, 12, 13))
        v = _stack(random_band_field(grid16, s) for s in (14, 15, 16))
        pu = _raw_project_eps(grid16, u, eps)
        pv = _raw_project_eps(grid16, v, eps)
        lhs = _raw_inner(grid16, pu, v)
        rhs = _raw_inner(grid16, u, pv)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        lap = _lap_delta_mult(grid16, delta)
        a = _raw_project_eps(grid16, lap * u, eps)
        b = lap * _raw_project_eps(grid16, u, eps)
        assert np.max(np.abs(a - b)) < 1e-12


class TestHydrostaticProjection:
    def test_z_independent_gradient_annihilated(self, grid16):
        phi = random_band_field(grid16, 21, EVEN)
        bar = np.zeros(grid16.spec_shape, dtype=complex)
        bar[:, :, 0] = phi.coeffs[:, :, 0]
        grad = np.stack((1j * grid16.kx3 * bar, 1j * grid16.ky3 * bar))
        out = hydro_projected(grid16, grad)
        assert np.max(np.abs(out)) < 1e-13

    def test_idempotent_on_range(self, grid16):
        f = _stack(_constrained_pair(grid16, (22, 23)))
        again = hydro_projected(grid16, f)
        assert np.max(np.abs(f - again)) < 1e-14

    def test_single_mode_example(self, grid16):
        f1 = field_from_function(grid16, lambda x, y, z: np.sin(PI * x), EVEN)
        out = hydro_projected(grid16, _stack((f1, zero_field(grid16, EVEN))))
        assert np.max(np.abs(out)) < 1e-13

    def test_in_place_on_a_strided_plane(self, grid16):
        """On the strided [..., 0] view of a stack the projection writes, bit
        for bit, what it gives for a contiguous copy of that plane, and it
        leaves the kz != 0 planes untouched."""
        V = _stack(_pair(grid16, (26, 27)))
        before = V.copy()
        plane = np.ascontiguousarray(V[..., 0])
        out = _raw_project_hydro(grid16, V[..., 0])
        assert np.shares_memory(out, V)
        assert V[..., 0].tobytes() == _raw_project_hydro(grid16, plane).tobytes()
        assert not np.array_equal(V[..., 0], before[..., 0])
        assert V[..., 1:].tobytes() == before[..., 1:].tobytes()

    def test_average_divergence_free(self, grid16):
        out = hydro_projected(grid16, _stack(_pair(grid16, (24, 25))))
        d = (
            grid16.kx[:, None] * out[0, :, :, 0]
            + grid16.ky[None, :] * out[1, :, :, 0]
        )
        assert np.max(np.abs(d)) < 1e-13


class TestVerticalVelocity:
    def test_analytic_example(self, grid16):
        v1 = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * x) * np.cos(PI * z), EVEN
        )
        w = _raw_w_from_v(grid16, _stack((v1, zero_field(grid16, EVEN))))
        exact = field_from_function(
            grid16, lambda x, y, z: -np.cos(PI * x) * np.sin(PI * z), ODD
        )
        assert np.max(np.abs(w - exact.coeffs)) < 1e-13
        assert np.all(w[:, :, 0] == 0.0)  # odd in z

    def test_divergence_free_input_gives_zero(self, grid16):
        v1 = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * y) * np.cos(PI * z), EVEN
        )
        w = _raw_w_from_v(grid16, _stack((v1, zero_field(grid16, EVEN))))
        assert np.max(np.abs(w)) < 1e-14

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_defining_relations(self, seed):
        grid = make_grid(16, 16, 16)
        v = hydro_projected(grid, _stack(_pair(grid, (seed, seed + 1))))
        w = _raw_w_from_v(grid, v)
        dzw = 1j * grid.kz3 * w
        divh = 1j * (grid.kx3 * v[0] + grid.ky3 * v[1])
        assert np.max(np.abs(dzw + divh)) < 1e-12
        # boundary values vanish on the collocation plane z = -1
        wphys = _raw_to_phys(grid, w)
        assert np.max(np.abs(wphys[:, :, 0])) < 1e-12


# ---------------------------------------------------------------------------
# the forcings of the difference systems, test oracles
#
# No production run computes these yet.  They prove criterion 3's forcing
# orders and the residual identity of two primal trajectories below, and a
# production forcing is to be checked against them.  They run on grid.band,
# as the steppers do, every transport in divergence form: the steppers'
# kernel (fields._raw_advect) for self-advection, and _cross_advect, in the
# same arithmetic, for the transport of other fields.  That is the
# convective form because every advecting velocity is divergence-free,
# which _require_divergence_free checks of the inputs.
# ---------------------------------------------------------------------------

def _require_divergence_free(grid, U, what):
    """CompatibilityError unless the velocity U, 2 or 3 components, is
    divergence-free to rounding (1e-12 of its largest term k_j U_j)."""
    terms = [k * c for k, c in zip((grid.kx3, grid.ky3, grid.kz3), U)]
    gap = float(np.max(np.abs(sum(terms))))
    if gap > 1e-12 * max(float(np.max(np.abs(t))) for t in terms):
        raise CompatibilityError(f"{what} is not divergence-free: |div| = {gap:.3e}", gap)


def _cross_advect(band, u_phys, targets):
    """sum_j d_j (X_i u_j) on band for the physical fields X = targets,
    transported by the physical velocity u_phys: one forward transform per
    product X_i u_j, no inverse transform."""
    m, n = len(targets), len(u_phys)
    prod = np.empty((m * n, *band.shape))
    for f, (i, j) in zip(prod, [(i, j) for i in range(m) for j in range(n)]):
        np.multiply(targets[i], u_phys[j], out=f)
    P = _raw_to_spec(band, prod).reshape(m, n, *band.spec_shape)
    iks = [_deriv_mult(band, j, 1) for j in range(n)]
    out = np.empty((m, *band.spec_shape), dtype=np.complex128)
    tmp = np.empty(band.spec_shape, dtype=np.complex128)
    for i in range(m):
        np.multiply(iks[0], P[i, 0], out=out[i])
        for j in range(1, n):
            np.multiply(iks[j], P[i, j], out=tmp)
            out[i] += tmp
    return out


def _same_grid(*fields):
    if any(f.grid.shape != fields[0].grid.shape for f in fields):
        raise ShapeError("all fields must share one grid")


def diff_rhs_F(v, w, V, W, eps, delta):
    """Right-hand sides of the difference system between the rescaled
    anisotropic system and its horizontal-viscosity limit.

    (v, w) is the limit solution, (V, W) the difference pair with the third
    component carrying the eps-scaled vertical difference.  The 1/eps
    advection weight is evaluated through w(V), the vertical integral of
    -div_H V, so it stays finite as eps -> 0.  Both advecting velocities,
    (v, w) and (V, w(V)), must be divergence-free, and every input must
    lie in the band.  Returns ((F_H1, F_H2), F_z) in the grid's layout,
    zero outside the band."""
    _same_grid(*v, w, *V, W)
    grid = v[0].grid
    band = grid.band
    u = _to_band(grid, band, [f.coeffs for f in (*v, w)])
    D = _to_band(grid, band, [f.coeffs for f in (*V, W)])
    b = _raw_with_w(band, D[:2])  # (V, W/eps) with W/eps = w(V)
    _require_divergence_free(band, u, "the limit velocity (v, w)")
    _require_divergence_free(band, b, "the difference velocity (V, w(V))")

    # -(div(v (x) b) + div(V (x) (u + b))) horizontally, and vertically
    # -div((eps w + W) (u + b)): the transports of (v, eps w) by b, of
    # (V, W) by u and b, and the eps-residual's transport of eps w by u
    u_phys, b_phys = _raw_to_phys(band, u), _raw_to_phys(band, b)
    targets = (*b_phys[:2], _raw_to_phys(band, eps * u[2] + D[2]))
    F = -_cross_advect(band, u_phys + b_phys, targets)
    F[:2] -= _cross_advect(band, b_phys, u_phys[:2])

    # forcing terms that vanish with delta and eps; PE_H gives d_t v
    F[:2] += delta * _deriv_mult(band, 2, 2) * u[:2]
    dt_w = _raw_w_from_v(band, PrimitiveStepper(grid, 1.0, 0.0, 1.0).rhs(u[:2]))
    F[2] -= eps * (dt_w - _lap_delta_mult(band, delta) * u[2])

    Fh = band.scatter(_raw_parity_project(band, F[:2], EVEN))
    Fz = band.scatter(_raw_parity_project(band, F[2], ODD))
    return (
        (SpectralField(grid, Fh[0], EVEN), SpectralField(grid, Fh[1], EVEN)),
        SpectralField(grid, Fz, ODD),
    )


def baroclinic_rhs(vbar, utilde):
    """Forcings of the barotropic/baroclinic reformulation.

    vbar is the z-independent horizontal average pair, utilde the mean-free
    triple (vtilde1, vtilde2, w).  Returns (Fbar, Ftilde1, Ftilde2): Fbar
    is z-independent, Ftilde1 has zero vertical mean by construction, and
    Ftilde2 is the forcing of the vertical-velocity block; all in the
    grid's layout, zero outside the band.  Both advecting velocities, vbar
    and utilde, must be divergence-free, and utilde . grad vbar is
    div(vbar (x) utilde) since d_z vbar = 0."""
    vb1, vb2 = vbar
    vt1, vt2, wt = utilde
    _same_grid(vb1, vb2, vt1, vt2, wt)
    grid = vb1.grid
    for fld, name in ((vt1, "vtilde1"), (vt2, "vtilde2")):
        m = float(np.max(np.abs(fld.coeffs[:, :, 0])))
        if m > 1e-10:
            raise CompatibilityError(f"{name} is not mean-free: {m:.3e}", m)
    for fld, name in ((vb1, "vbar1"), (vb2, "vbar2")):
        m = float(np.max(np.abs(fld.coeffs[:, :, 1:])))
        if m > 1e-10:
            raise CompatibilityError(f"{name} is not z-independent: {m:.3e}", m)
    band = grid.band
    vb = _to_band(grid, band, (vb1.coeffs, vb2.coeffs))
    ut = _to_band(grid, band, (vt1.coeffs, vt2.coeffs, wt.coeffs))
    _require_divergence_free(band, vb, "vbar")
    _require_divergence_free(band, ut, "utilde")

    vb_phys, ut_phys = _raw_to_phys(band, vb), _raw_to_phys(band, ut)
    # utilde . grad (vtilde, w)
    adv = _raw_advect(band, ut_phys, (1.0, 1.0, 1.0), VELOCITY_PARITIES)
    avg = _raw_embed_plane(band, adv[:2, ..., 0])
    # vbar . grad_H (vtilde, w)
    by_bar = _cross_advect(band, vb_phys, ut_phys)
    # utilde . grad vbar = vtilde . grad_H vbar
    of_bar = _cross_advect(band, ut_phys, vb_phys)

    fbar = band.scatter(-avg)
    ft1 = band.scatter(-(of_bar + by_bar[:2] + adv[:2] - avg))
    ft2 = band.scatter(-(by_bar[2] + adv[2]))
    fbar_f = tuple(SpectralField(grid, fbar[i], EVEN) for i in range(2))
    ft1_f = tuple(SpectralField(grid, ft1[i], EVEN) for i in range(2))
    return fbar_f, ft1_f, SpectralField(grid, ft2, ODD)


class TestDiffRhs:
    def _limit_and_difference(self, grid, eps):
        v = _constrained_pair(grid, (41, 42))
        w = _w(v)
        V = _constrained_pair(grid, (43, 44))
        W = SpectralField(grid, eps * _w(V).coeffs, ODD)
        return v, w, V, W

    def test_vanishing_difference_leaves_residual_forcings(self, grid16):
        eps = 0.5
        v = _constrained_pair(grid16, (41, 42))
        w = _w(v)
        zero_pair = (zero_field(grid16, EVEN), zero_field(grid16, EVEN))
        Wz = zero_field(grid16, ODD)
        (fh1, fh2), fz = diff_rhs_F(v, w, zero_pair, Wz, eps, 0.0)
        # with delta = 0 the horizontal forcing drops entirely
        assert np.max(np.abs(fh1.coeffs)) < 1e-14
        assert np.max(np.abs(fh2.coeffs)) < 1e-14
        assert np.max(np.abs(fz.coeffs)) > 1e-8  # the eps-residual survives
        # with delta > 0 the vertical-diffusion forcing appears
        (gh1, _), _ = diff_rhs_F(v, w, zero_pair, Wz, eps, 0.4)
        dzz = 0.4 * (1j * grid16.kz3) ** 2 * v[0].coeffs
        assert np.max(np.abs(gh1.coeffs - dzz)) < 1e-13

    def test_eps_residual_reaches_v_at_second_order(self, grid16):
        """With a vanishing difference and delta = 0 the only forcing is the
        O(eps) residual of the vertical equation.  The scaled projection
        hands it to the horizontal components at O(eps^2) and to the vertical
        one at O(eps^3), so the difference system is forced at
        O(delta + eps^2), the gamma-scan rate min(gamma-2, 2)."""
        from hydrostat.harness.initial_data import generate_initial_data

        data = generate_initial_data("bandlimited_random", 42, grid16)
        v, w = (data.v1, data.v2), data.w
        zero_pair = (zero_field(grid16, EVEN), zero_field(grid16, EVEN))
        Wz = zero_field(grid16, ODD)

        def forcing(eps, delta):
            (fh1, fh2), fz = diff_rhs_F(v, w, zero_pair, Wz, eps, delta)
            F = np.stack((fh1.coeffs, fh2.coeffs, fz.coeffs))
            return F, _raw_project_eps(grid16, F, eps)

        norm = np.linalg.norm
        F1, P1 = forcing(0.05, 0.0)
        F2, P2 = forcing(0.025, 0.0)
        assert np.max(np.abs(F1[:2])) < 1e-14
        assert norm(F1[2]) / norm(F2[2]) == pytest.approx(2.0, rel=0.05)
        assert norm(P1[:2]) / norm(P2[:2]) >= 3.5
        assert norm(P1[2]) / norm(P2[2]) >= 6.5
        # at delta = eps^2 the projected horizontal forcing is delta d_zz v
        # plus the delta-independent O(eps^2) remainder measured above
        vc = np.stack((v[0].coeffs, v[1].coeffs))
        for eps, P0 in ((0.05, P1), (0.025, P2)):
            delta = eps**2
            _, P = forcing(eps, delta)
            dzz = delta * (1j * grid16.kz3) ** 2 * vc
            assert norm(P[:2] - dzz - P0[:2]) <= 1e-12 * norm(dzz)

    def test_zero_limit_gives_pure_self_advection(self, grid16):
        eps = 1.0
        _, _, V, W = self._limit_and_difference(grid16, eps)
        zero_pair = (zero_field(grid16, EVEN), zero_field(grid16, EVEN))
        (fh1, fh2), _ = diff_rhs_F(
            zero_pair, zero_field(grid16, ODD), V, W, eps, 0.0
        )
        b = [
            _raw_to_phys(grid16, c)
            for c in (V[0].coeffs, V[1].coeffs, _raw_w_from_v(
                grid16, np.stack((V[0].coeffs, V[1].coeffs))))
        ]
        adv = convective_advect(grid16, b, np.stack((V[0].coeffs, V[1].coeffs)))
        assert np.max(np.abs(fh1.coeffs + adv[0])) < 1e-13
        assert np.max(np.abs(fh2.coeffs + adv[1])) < 1e-13

    def test_advective_and_divergence_forms_agree(self, grid16):
        """diff_rhs_F, in divergence form on the band, against its forcings
        in convective form on the grid: the transports of (v, eps w) by
        (V, w(V)) and of (V, W) by (v, w) and (V, w(V)), delta d_zz v, and
        the eps-residual with the PE_H time derivative of v."""
        g, eps, delta = grid16, 0.3, 0.2
        v, w, V, W = self._limit_and_difference(g, eps)
        vc, Vc, wc = _stack(v), _stack(V), w.coeffs
        u = _raw_to_phys(g, np.concatenate((vc, [wc])))
        b = _raw_to_phys(g, np.concatenate((Vc, [_raw_w_from_v(g, Vc)])))
        vw, VW = np.concatenate((vc, [eps * wc])), np.concatenate((Vc, [W.coeffs]))
        total = -(convective_advect(g, b, vw) + convective_advect(g, u, VW)
                  + convective_advect(g, b, VW))
        dt_v = _lap_delta_mult(g, 0.0) * vc - hydro_projected(
            g, convective_advect(g, u, vc))
        dt_w = _raw_w_from_v(g, dt_v) + convective_advect(g, u, wc[None])[0]
        mask = dealias_mask(g)
        Fh = total[:2] + delta * (1j * g.kz3) ** 2 * vc * mask
        Fz = total[2] - eps * (dt_w - _lap_delta_mult(g, delta) * wc) * mask
        a = ((Fh[0], Fh[1]), Fz)
        d = diff_rhs_F(v, w, V, W, eps, delta)
        gap = max(
            np.max(np.abs(a[0][0] - d[0][0].coeffs)),
            np.max(np.abs(a[0][1] - d[0][1].coeffs)),
            np.max(np.abs(a[1] - d[1].coeffs)),
        )
        assert gap < 1e-10

    def test_semidiscrete_residual_identity(self):
        """The primal-trajectory difference satisfies the difference system
        with these forcings exactly (the residual-validation role)."""
        from hydrostat.solvers import NavierStokesStepper, PrimitiveStepper
        from hydrostat.spectral import _lap_delta_mult

        grid = make_grid(16, 16, 16)
        eps, delta = 0.3, 0.2
        from hydrostat.harness.initial_data import generate_initial_data

        data = generate_initial_data("bandlimited_random", 5, grid)
        ns = NavierStokesStepper(grid, eps, delta, 1e-3)
        pe = PrimitiveStepper(grid, 1.0, 0.0, 1e-3)
        # the steppers hold the band; the forcings are checked on the grid
        band = grid.band
        U = V = band.gather(np.stack((data.v1.coeffs, data.v2.coeffs)))
        for _ in range(40):
            U = step(ns, U)
            V = step(pe, V)
        rhs_ns, rhs_pe = band.scatter(ns.rhs(U)), band.scatter(pe.rhs(V))
        U, V = band.scatter(U), band.scatter(V)
        # NS steps (v1, v2); its third component in (v, eps*w) is eps w(v)
        U = np.concatenate((U, [eps * _raw_w_from_v(grid, U)]))
        rhs_ns = np.concatenate((rhs_ns, [eps * _raw_w_from_v(grid, rhs_ns)]))
        w_pe = _raw_w_from_v(grid, V)
        Vd = np.stack((U[0] - V[0], U[1] - V[1]))
        Wd = U[2] - eps * w_pe
        dVd = np.stack(
            (rhs_ns[0] - rhs_pe[0], rhs_ns[1] - rhs_pe[1],
             rhs_ns[2] - eps * _raw_w_from_v(grid, rhs_pe))
        )
        lhs = dVd - _lap_delta_mult(grid, delta) * np.stack((Vd[0], Vd[1], Wd))
        vf = tuple(SpectralField(grid, V[i], EVEN) for i in (0, 1))
        (fh1, fh2), fz = diff_rhs_F(
            vf, SpectralField(grid, w_pe, ODD),
            tuple(SpectralField(grid, Vd[i], EVEN) for i in (0, 1)),
            SpectralField(grid, Wd, ODD), eps, delta,
        )
        F = _raw_project_eps(
            grid, np.stack((fh1.coeffs, fh2.coeffs, fz.coeffs)), eps
        )
        assert np.max(np.abs(lhs - F)) < 1e-12

    @pytest.mark.parametrize("bad, match", [
        ("w is 1.01 w(v)", "limit velocity"),
        ("V has div_H of its vertical average", "difference velocity"),
        ("v has content outside the band", "outside the 2/3 dealias band"),
    ])
    def test_divergence_free_and_band_preconditions(self, grid16, bad, match):
        """The divergence form is the convective one only for
        divergence-free advecting velocities, and the band holds no more."""
        eps = 0.5
        v, w, V, W = self._limit_and_difference(grid16, eps)
        if bad.startswith("w "):
            w = w * 1.01
        elif bad.startswith("V "):
            V = _pair(grid16, (45, 46))  # not hydrostatically projected
            W = SpectralField(grid16, eps * _w(V).coeffs, ODD)
        else:  # mode (0, 6, 0): 3 * 6 >= 16
            far = field_from_function(grid16, lambda x, y, z: 1e-3 * np.cos(6 * PI * y),
                                      EVEN)
            v = (SpectralField(grid16, v[0].coeffs + far.coeffs, EVEN), v[1])
        with pytest.raises(CompatibilityError, match=match):
            diff_rhs_F(v, w, V, W, eps, 0.1)

    def test_grid_mismatch(self, grid8, grid16):
        v = (zero_field(grid8, EVEN), zero_field(grid8, EVEN))
        with pytest.raises(ShapeError):
            diff_rhs_F(
                v, zero_field(grid8, ODD),
                (zero_field(grid16, EVEN), zero_field(grid16, EVEN)),
                zero_field(grid16, ODD), 1.0, 0.0,
            )


class TestBaroclinicRhs:
    def _split_state(self, grid, seeds):
        """(vbar, utilde) of a constrained pair v: vbar its vertical average
        (the kz=0 planes), utilde its mean-free remainder (kz=0 planes
        zeroed) with w(v)."""
        v = _constrained_pair(grid, seeds)
        V = _stack(v)
        bar = _raw_embed_plane(grid, V[..., 0])
        tilde = V.copy()
        tilde[..., 0] = 0.0
        field = lambda c: SpectralField(grid, c, EVEN)
        return tuple(map(field, bar)), (*map(field, tilde), _w(v))

    def test_zero_baroclinic_part(self, grid16):
        v = field_from_function(grid16, lambda x, y, z: np.sin(PI * y), EVEN)
        vbar = (v, zero_field(grid16, EVEN))
        ut = (zero_field(grid16, EVEN), zero_field(grid16, EVEN), zero_field(grid16, ODD))
        fbar, ft1, ft2 = baroclinic_rhs(vbar, ut)
        for f in (*fbar, *ft1, ft2):
            assert np.max(np.abs(f.coeffs)) < 1e-14

    def test_zero_barotropic_part(self, grid16):
        _, ut = self._split_state(grid16, (51, 52))
        zero_bar = (zero_field(grid16, EVEN), zero_field(grid16, EVEN))
        fbar, ft1, _ = baroclinic_rhs(zero_bar, ut)
        # Fbar = -avg(ut . grad vt) and Ftilde1 = -(ut . grad vt) + avg(...)
        up = [_raw_to_phys(grid16, c.coeffs) for c in ut]
        adv = convective_advect(grid16, up, _stack(ut[:2]))
        avg = _raw_embed_plane(grid16, adv[..., 0])
        assert np.max(np.abs(fbar[0].coeffs + avg[0])) < 1e-13
        assert np.max(np.abs(ft1[0].coeffs + adv[0] - avg[0])) < 1e-13

    def test_mean_free_output(self, grid16):
        fbar, ft1, ft2 = baroclinic_rhs(*self._split_state(grid16, (53, 54)))
        for f in ft1:
            assert np.max(np.abs(f.coeffs[:, :, 0])) < 1e-12
        for f in fbar:
            assert np.max(np.abs(f.coeffs[:, :, 1:])) < 1e-13

    def test_mean_free_precondition(self, grid16):
        bad = random_band_field(grid16, 55, EVEN)  # has a barotropic part
        with pytest.raises(CompatibilityError):
            baroclinic_rhs(
                (zero_field(grid16, EVEN), zero_field(grid16, EVEN)),
                (bad, zero_field(grid16, EVEN), zero_field(grid16, ODD)),
            )

    @pytest.mark.parametrize("bad, match", [
        ("vbar has div_H != 0", "vbar is not divergence-free"),
        ("w is 1.01 w(vtilde)", "utilde is not divergence-free"),
        ("vbar has content outside the band", "outside the 2/3 dealias band"),
    ])
    def test_divergence_free_and_band_preconditions(self, grid16, bad, match):
        vbar, ut = self._split_state(grid16, (56, 57))
        if bad.startswith("vbar has div"):
            sin = field_from_function(grid16, lambda x, y, z: np.sin(PI * x), EVEN)
            vbar = (sin, vbar[1])
        elif bad.startswith("w "):
            ut = (*ut[:2], ut[2] * 1.01)
        else:  # z-independent and div_H-free, at mode (0, 6, 0): 3 * 6 >= 16
            far = field_from_function(grid16, lambda x, y, z: 1e-3 * np.cos(6 * PI * y),
                                      EVEN)
            vbar = (SpectralField(grid16, vbar[0].coeffs + far.coeffs, EVEN), vbar[1])
        with pytest.raises(CompatibilityError, match=match):
            baroclinic_rhs(vbar, ut)


class TestAdvectionForms:
    """The divergence-form self-advection against the convective form.

    For any masked u, sum_j d_j (u_i u_j) = (u . grad) u_i + u_i div u, and
    on masked inputs both forms are alias-free, so the identity holds to
    rounding after dealiasing.  On unmasked inputs neither form is
    alias-free: there the identity is off by 160-190% of the divergence
    form's maximum at the grid shapes below, so nothing is asserted.
    """

    @staticmethod
    def _check(g, U, scale):
        from hydrostat.spectral import _deriv_mult

        up = _raw_to_phys(g, U)
        div = g.band.scatter(_raw_advect(g.band, up, scale))
        conv = convective_advect(g, up, U[: len(scale)])
        div_u = _raw_to_phys(g, sum(_deriv_mult(g, j, 1) * c for j, c in enumerate(U)))
        t_div_u = _raw_to_spec(g, up[: len(scale)] * div_u) * dealias_mask(g)
        s = np.reshape(scale, (-1,) + (1,) * len(g.shape))
        gap = np.max(np.abs(div - s * (conv + t_div_u)))
        assert gap <= 1e-12 * np.max(np.abs(div))
        # the T div u term is not a rounding-level correction here
        assert np.max(np.abs(div - s * conv)) >= 0.1 * np.max(np.abs(div))

    @pytest.mark.parametrize("shape", [(16, 16, 16), (32, 32, 8), (6, 4, 10)])
    @pytest.mark.parametrize("scale", [(1.0, 1.0, 0.3), (1.0, 1.0)])
    def test_divergence_form_is_convective_plus_t_div_u(self, shape, scale):
        g = make_grid(*shape)
        U = np.stack([random_band_field(g, s).coeffs for s in (61, 62, 63)])
        self._check(g, U, scale)


class TestHalfLayoutEquivalence:
    """Each kernel on the stored kz >= 0 half equals that half of the
    full-cube formula it replaced, on masked random real fields."""

    @pytest.fixture(params=[(16, 16, 16), (6, 4, 10)], ids=["16^3", "6x4x10"])
    def case(self, request):
        g = make_grid(*request.param)
        k = full_wavenumbers(g)
        keep = 1.0
        for ki, n in zip(k, g.shape):
            keep = keep * (3 * np.abs(np.rint(ki / PI)) < n)
        phase = full_phase(g)
        p = np.random.default_rng(31).standard_normal((3, *g.shape))
        C = scipy.fft.fftn(p, axes=(-3, -2, -1), norm="forward") * phase * keep
        u = np.real(scipy.fft.ifftn(C * phase, axes=(-3, -2, -1), norm="forward"))
        c = _raw_to_spec(g, u)
        return g, k, keep, phase, C, c, u

    @staticmethod
    def _assert_half_of(g, got, full):
        want = full[..., : g.nz // 2 + 1]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_parity(self, case):
        g, _, _, _, C, c, _ = case
        zflip = (-np.arange(g.nz)) % g.nz
        for i, (parity, sign) in enumerate(((EVEN, 1.0), (ODD, -1.0))):
            full = 0.5 * (C[i] + sign * C[i][..., zflip])
            self._assert_half_of(g, _raw_parity_project(g, c[i], parity), full)

    def test_project_eps(self, case):
        g, (kx, ky, kz), _, _, C, c, _ = case
        eps = 0.3
        kze = kz / eps
        norm2 = kx**2 + ky**2 + kze**2
        s = (kx * C[0] + ky * C[1] + kze * C[2]) / np.where(norm2 == 0, 1.0, norm2)
        full = np.stack((C[0] - kx * s, C[1] - ky * s, C[2] - kze * s))
        self._assert_half_of(g, _raw_project_eps(g, c, eps), full)

    def test_w_from_v(self, case):
        g, (kx, ky, kz), _, _, C, c, _ = case
        full = -(kx * C[0] + ky * C[1]) / np.where(kz == 0, 1.0, kz)
        full[:, :, 0] = 0.0
        self._assert_half_of(g, _raw_w_from_v(g, c[:2]), full)

    def test_advect_div(self, case):
        g, k, keep, phase, _, _, u = case
        scale = (1.0, 1.0, 0.4)
        ik = []
        for ki, n in zip(k, g.shape):
            ki = ki.copy()
            ki[np.rint(np.abs(ki) / PI) == n // 2] = 0.0  # odd order: no Nyquist
            ik.append(1j * ki)
        full = np.stack([
            scale[i] * keep * sum(
                ik[j] * scipy.fft.fftn(u[i] * u[j], norm="forward") * phase
                for j in range(3)
            )
            for i in range(3)
        ])
        self._assert_half_of(g, g.band.scatter(_raw_advect(g.band, u, scale)), full)
