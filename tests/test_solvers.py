"""Time integrators: exact-solution oracles, structure preservation, order."""
import math
import warnings

import numpy as np
import pytest

from hydrostat.errors import CompatibilityError, InvalidParameter
from hydrostat.fields import VelocityState, _raw_w_from_v, divergence_defect
from hydrostat.harness.initial_data import generate_initial_data
from hydrostat.solvers import (
    NavierStokes2DStepper,
    NavierStokesStepper,
    PrimitiveStepper,
    SimConfig,
    run_simulation,
    step_ns2d,
    step_ns_eps_delta,
    step_pe,
    step_stokes_scaled,
)
from hydrostat.spectral import (
    EVEN,
    ODD,
    SpectralField,
    _raw_embed_plane,
    _raw_to_phys,
    field_from_function,
    make_grid,
    zero_field,
)

PI = np.pi


def _heat_state(grid, tag="NS_eps_delta", amp=1.0):
    v1 = field_from_function(grid, lambda x, y, z: amp * np.cos(PI * z), EVEN)
    return VelocityState(
        v1, zero_field(grid, EVEN), zero_field(grid, ODD), tag, 0.0
    )


def _tg_state(grid, tag="NS_eps_delta"):
    v1 = field_from_function(grid, lambda x, y, z: np.sin(PI * x) * np.cos(PI * y), EVEN)
    v2 = field_from_function(grid, lambda x, y, z: -np.cos(PI * x) * np.sin(PI * y), EVEN)
    return VelocityState(v1, v2, zero_field(grid, ODD), tag, 0.0)


class TestSimConfig:
    def test_gamma_derives_delta(self):
        cfg = SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.1, eps=0.1, gamma=3.0)
        assert cfg.delta == pytest.approx(0.1)
        cfg4 = SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.1, eps=0.1, gamma=4.0)
        assert cfg4.delta == pytest.approx(0.01)

    def test_gamma_delta_consistency_enforced(self):
        with pytest.raises(InvalidParameter):
            SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.1, eps=0.1, gamma=3.0, delta=0.5)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(system="bogus"),
            dict(dt=0.0),
            dict(dt=0.2, t_end=0.1),
            dict(eps=-1.0),
            dict(delta=-0.5),
            dict(record_every=0),
            dict(system="PE_H", delta=1.0),
            dict(dt=3e-3, t_end=0.1),  # 33.3 steps
        ],
    )
    def test_validation(self, kw):
        base = dict(system="NS_eps_delta", nx=8, ny=8, nz=8, dt=1e-3, t_end=0.1)
        base.update(kw)
        with pytest.raises(InvalidParameter):
            SimConfig(**base)


class TestAnisotropicStepper:
    def test_heat_mode_single_step(self, grid16):
        dt, delta = 1e-3, 1.0
        cfg = SimConfig("NS_eps_delta", 16, 16, 16, dt, 0.1, eps=0.7, delta=delta)
        out = step_ns_eps_delta(_heat_state(grid16), cfg)
        exact = math.exp(-delta * PI**2 * dt)
        got = out.v1.coeffs[0, 0, 1] / _heat_state(grid16).v1.coeffs[0, 0, 1]
        assert got == pytest.approx(exact, abs=1e-12)
        assert np.max(np.abs(out.w.coeffs)) < 1e-15

    def test_z_independent_matches_2d(self, grid16):
        cfg = SimConfig("NS_eps_delta", 16, 16, 16, 1e-3, 0.1, eps=0.4, delta=0.3)
        st3 = step_ns_eps_delta(_tg_state(grid16), cfg)
        v2d = step_ns2d(_tg_state(grid16).horizontal(), cfg)
        assert np.max(np.abs(st3.v1.coeffs - v2d[0].coeffs)) < 1e-12
        assert np.max(np.abs(st3.v2.coeffs - v2d[1].coeffs)) < 1e-12

    def test_zero_fixed_point(self, grid16):
        cfg = SimConfig("NS_eps_delta", 16, 16, 16, 1e-3, 0.1, eps=1.0, delta=1.0)
        z = VelocityState(
            zero_field(grid16, EVEN), zero_field(grid16, EVEN),
            zero_field(grid16, ODD), "NS_eps_delta", 0.0,
        )
        out = step_ns_eps_delta(z, cfg)
        assert np.max(np.abs(out.v1.coeffs)) == 0.0
        assert divergence_defect(out) == 0.0


class TestPrimitiveStepper:
    def test_stationary_solution_horizontal_viscosity(self, grid16):
        cfg = SimConfig("PE_H", 16, 16, 16, 1e-3, 0.1, delta=0.0)
        state = _heat_state(grid16, "PE_H")
        for _ in range(50):
            state = step_pe(state, cfg)
        drift = np.max(np.abs(state.v1.coeffs - _heat_state(grid16).v1.coeffs))
        assert drift < 1e-12

    def test_heat_decay_with_vertical_viscosity(self, grid16):
        dt = 1e-3
        cfg = SimConfig("PE_delta", 16, 16, 16, dt, 0.1, delta=1.0)
        state = _heat_state(grid16, "PE_delta")
        out = step_pe(state, cfg)
        exact = math.exp(-(PI**2) * dt)
        got = out.v1.coeffs[0, 0, 1] / state.v1.coeffs[0, 0, 1]
        assert got == pytest.approx(exact, abs=1e-12)

    def test_z_independent_matches_2d(self, grid16):
        cfg = SimConfig("PE_delta", 16, 16, 16, 1e-3, 0.1, delta=0.6)
        st3 = step_pe(_tg_state(grid16, "PE_delta"), cfg)
        v2d = step_ns2d(_tg_state(grid16).horizontal(), cfg)
        assert np.max(np.abs(st3.v1.coeffs - v2d[0].coeffs)) < 1e-12
        assert np.max(np.abs(st3.w.coeffs)) < 1e-14

    def test_compatibility_precondition(self, grid16):
        bad = VelocityState(
            field_from_function(grid16, lambda x, y, z: np.sin(PI * x), EVEN),
            zero_field(grid16, EVEN), zero_field(grid16, ODD), "PE_H", 0.0,
        )
        cfg = SimConfig("PE_H", 16, 16, 16, 1e-3, 0.1)
        with pytest.raises(CompatibilityError):
            step_pe(bad, cfg)


class TestNs2dStepper:
    def test_taylor_green_decay(self):
        grid = make_grid(32, 32, 4)
        dt = 1e-3
        cfg = SimConfig("NS2D", 32, 32, 4, dt, 0.1)
        v = _tg_state(grid).horizontal()
        n = 100
        for _ in range(n):
            v = step_ns2d(v, cfg)
        amp = math.exp(-2 * PI**2 * n * dt)
        exact = _tg_state(grid)
        err = max(
            np.max(np.abs(v[0].coeffs - amp * exact.v1.coeffs)),
            np.max(np.abs(v[1].coeffs - amp * exact.v2.coeffs)),
        )
        assert err < 1e-14

    def test_shear_mode_pure_decay(self):
        grid = make_grid(16, 16, 4)
        dt = 1e-3
        cfg = SimConfig("NS2D", 16, 16, 4, dt, 0.1)
        v1 = field_from_function(grid, lambda x, y, z: np.sin(PI * y), EVEN)
        v = (v1, zero_field(grid, EVEN))
        for _ in range(60):
            v = step_ns2d(v, cfg)
        amp = math.exp(-(PI**2) * 60 * dt)
        assert np.max(np.abs(v[0].coeffs - amp * v1.coeffs)) < 1e-14

    def test_zero(self):
        grid = make_grid(8, 8, 4)
        cfg = SimConfig("NS2D", 8, 8, 4, 1e-3, 0.1)
        v = (zero_field(grid, EVEN), zero_field(grid, EVEN))
        out = step_ns2d(v, cfg)
        assert np.max(np.abs(out[0].coeffs)) == 0.0

    def test_rejects_z_dependent_pair(self, grid16):
        cfg = SimConfig("NS2D", 16, 16, 16, 1e-3, 0.1)
        with pytest.raises(CompatibilityError, match="z-independent"):
            step_ns2d(_heat_state(grid16).horizontal(), cfg)

    def test_plane_matches_3d_steppers(self):
        """On z-independent random data, whose nonlinearity (unlike
        Taylor-Green's) is not a pure gradient, the plane stepper follows the
        anisotropic and the hydrostatic 3D steppers."""
        grid = make_grid(16, 16, 8)
        dt, steps = 1e-3, 20
        data = generate_initial_data("bandlimited_random", 4, grid)
        B0 = np.stack((data.v1.coeffs[:, :, 0], data.v2.coeffs[:, :, 0]))
        V = _raw_embed_plane(grid, B0)
        U = np.concatenate((V, np.zeros_like(V[:1])))
        ns = NavierStokesStepper(grid, 0.7, 0.3, dt)
        pe = PrimitiveStepper(grid, 0.3, dt)
        n2 = NavierStokes2DStepper(grid, dt)
        B = B0
        for _ in range(steps):
            U, V, B = ns.step(U), pe.step(V), n2.step(B)
        B3 = _raw_embed_plane(grid, B)
        assert np.max(np.abs(U[:2] - B3)) < 1e-12
        assert np.max(np.abs(U[2])) < 1e-12
        assert np.max(np.abs(V - B3)) < 1e-12
        # the advection moved the state away from pure viscous decay
        heat = np.exp(-grid.plane.k2h * steps * dt) * B0
        assert np.max(np.abs(B - heat)) > 1e-4 * np.max(np.abs(B0))


class TestStokesStepper:
    def test_exact_mode_decay(self, grid16):
        dt, delta = 0.01, 3.0
        cfg = SimConfig("StokesScaled", 16, 16, 16, dt, 0.1, eps=0.5, delta=delta)
        state = _heat_state(grid16, "StokesScaled")
        out = step_stokes_scaled(state, cfg)
        factor = out.v1.coeffs[0, 0, 1] / state.v1.coeffs[0, 0, 1]
        assert factor == pytest.approx(math.exp(-delta * PI**2 * dt), abs=1e-15)

    def test_isotropic_reduction_at_delta_one(self, grid16):
        dt = 0.01
        cfg = SimConfig("StokesScaled", 16, 16, 16, dt, 0.1, eps=1.0, delta=1.0)
        v1 = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * x) * np.cos(PI * z), EVEN
        )
        v2 = zero_field(grid16, EVEN)
        w = SpectralField(
            grid16, _raw_w_from_v(grid16, np.stack((v1.coeffs, v2.coeffs))), ODD
        )
        out = step_stokes_scaled(VelocityState(v1, v2, w, "StokesScaled"), cfg)
        factor = out.v1.coeffs[1, 0, 1] / v1.coeffs[1, 0, 1]
        assert factor == pytest.approx(math.exp(-2 * PI**2 * dt), abs=1e-15)

    def test_mean_free_precondition(self, grid16):
        cfg = SimConfig("StokesScaled", 16, 16, 16, 1e-3, 0.1, delta=1.0)
        bad = _tg_state(grid16, "StokesScaled")  # barotropic, not mean-free
        with pytest.raises(CompatibilityError):
            step_stokes_scaled(bad, cfg)

    def test_quarter_power_bound_in_delta(self, grid16):
        """Exact trajectories: the L4-in-time H^{3/2} norm decays at least
        like delta^{-1/4} for fixed mean-free data."""
        from hydrostat.norms import NormAccumulator, accumulate, finalize
        from hydrostat.solvers import StokesScaledStepper

        v1 = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * x) * np.cos(PI * z), EVEN
        )
        v2 = zero_field(grid16, EVEN)
        w = _raw_w_from_v(grid16, np.stack((v1.coeffs, v2.coeffs)))
        U0 = np.stack((v1.coeffs, v2.coeffs, w))
        scaled = {}
        for delta in (4.0, 16.0, 64.0, 256.0):
            dt = min(1e-3, 0.1 / (4 * delta * PI**2))
            stepper = StokesScaledStepper(grid16, delta, dt)
            acc = NormAccumulator("L4H32")
            U = U0.copy()
            t, t_end = 0.0, 0.2
            fields = lambda X: tuple(
                SpectralField(grid16, X[i], p)
                for i, p in enumerate((EVEN, EVEN, ODD))
            )
            acc = accumulate(acc, fields(U))
            while t < t_end - dt / 2:
                U = stepper.advance(U)
                t += dt
                acc = accumulate(acc, fields(U), None, dt)
            scaled[delta] = finalize(acc) * delta**0.25
        vals = [scaled[d] for d in sorted(scaled)]
        assert max(vals) <= 2.0 * vals[0]
        # raw norms are nonincreasing in delta
        raw = [scaled[d] / d**0.25 for d in sorted(scaled)]
        assert all(a >= b - 1e-12 for a, b in zip(raw, raw[1:]))


class TestRunSimulation:
    def test_stokes_records_match_exponential(self):
        cfg = SimConfig(
            "StokesScaled", 16, 16, 16, 1e-2, 1.0, eps=0.5, delta=2.0,
            recipe="heat_mode", record_every=10,
        )
        rec = run_simulation(cfg)
        l2 = np.array(rec.samples["l2"])
        ts = np.array(rec.times)
        expected = l2[0] * np.exp(-2.0 * PI**2 * ts)
        assert np.max(np.abs(l2 - expected) / expected) < 1e-12
        assert not rec.blowup_flag

    def test_pe_h_stationary_samples_constant(self):
        cfg = SimConfig("PE_H", 16, 16, 16, 1e-3, 0.05, recipe="heat_mode")
        rec = run_simulation(cfg)
        l2 = np.array(rec.samples["l2"])
        assert np.max(np.abs(l2 - l2[0])) < 1e-12 * l2[0]

    def test_huge_dt_never_records_nan(self):
        cfg = SimConfig(
            "NS_eps_delta", 16, 16, 16, 10.0, 40.0, eps=0.5, delta=0.1,
            recipe="bandlimited_random", seed=1,
        )
        with pytest.warns(RuntimeWarning):
            rec = run_simulation(cfg)
        for vals in rec.samples.values():
            assert np.all(np.isfinite(vals))
        # either completed or flagged, never silently wrong
        assert rec.blowup_flag or rec.final_state is not None

    def test_cfl_warning_uses_largest_kept_wavenumber(self):
        """The CFL number is dt * max|u| * pi * (n // 3), the largest
        wavenumber the 2/3 mask keeps.  The PE_H heat mode is stationary, so
        max|u| is its initial value throughout."""
        from hydrostat.harness.initial_data import generate_initial_data
        from hydrostat.spectral import _raw_to_phys

        grid = make_grid(8, 8, 8)
        st = generate_initial_data("heat_mode", 0, grid)
        phys = _raw_to_phys(grid, np.stack((st.v1.coeffs, st.v2.coeffs, st.w.coeffs)))
        umax = float(np.max(np.abs(phys)))

        def run(cfl):
            dt = cfl / (umax * PI * (8 // 3))
            return run_simulation(SimConfig("PE_H", 8, 8, 8, dt, 4 * dt, recipe="heat_mode"))

        # 0.45 would read 0.45 * 8 / (2 pi) = 0.57 with kmax = (pi * 8) // 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(0.45)
        with pytest.warns(RuntimeWarning, match="CFL"):
            run(0.55)

    def test_ns2d_final_state_is_z_independent(self):
        cfg = SimConfig("NS2D", 16, 16, 8, 1e-3, 0.01, seed=2)
        st = run_simulation(cfg).final_state
        for f in st.components():
            assert np.all(f.coeffs[:, :, 1:] == 0.0)
        assert np.max(np.abs(st.v1.coeffs[:, :, 0])) > 0.0

    def test_cfl_warning_reports_maximum_through_ns2d(self):
        """The plane stepper sets last_umax, so an NS2D run past the limit
        warns.  The Taylor-Green vortex only decays, so the largest CFL
        number is at t = 0."""
        grid = make_grid(16, 16, 4)
        st = generate_initial_data("taylor_green_3d", 0, grid)
        plane = np.stack((st.v1.coeffs[:, :, 0], st.v2.coeffs[:, :, 0]))
        umax = float(np.max(np.abs(_raw_to_phys(grid.plane, plane))))
        dt = 0.6 / (umax * PI * (16 // 3))
        cfg = SimConfig("NS2D", 16, 16, 4, dt, 5 * dt, recipe="taylor_green_3d")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = run_simulation(cfg)
        cfl = [str(w.message) for w in caught if "CFL" in str(w.message)]
        assert len(cfl) == 1
        assert "CFL number 0.60 (at t=0)" in cfl[0]
        assert not rec.blowup_flag

    def test_cfl_warning_reports_the_largest_crossing(self, monkeypatch):
        """Not the first crossing: with max |u| growing 1, 2, 3, 4 over the
        steps, the one warning names the fourth step's CFL number."""
        import hydrostat.solvers as solvers_mod

        class Growing(solvers_mod.NavierStokes2DStepper):
            def nonlinear(self, V):
                N = super().nonlinear(V)
                self.calls = getattr(self, "calls", 0) + 1
                self.last_umax = float(self.calls)
                return N

        monkeypatch.setattr(solvers_mod, "NavierStokes2DStepper", Growing)
        dt = 0.3 / (PI * (16 // 3))  # CFL number 0.3 * max|u|
        cfg = SimConfig("NS2D", 16, 16, 4, dt, 4 * dt, recipe="taylor_green_3d")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_simulation(cfg)
        cfl = [str(w.message) for w in caught if "CFL" in str(w.message)]
        assert len(cfl) == 1
        assert f"CFL number 1.20 (at t={3 * dt:.6g})" in cfl[0]

    def test_deterministic(self):
        cfg = SimConfig(
            "NS_eps_delta", 16, 16, 16, 1e-3, 0.02, eps=0.3, delta=0.2, seed=9
        )
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert a.samples["l2"] == b.samples["l2"]
        assert np.array_equal(a.final_state.v1.coeffs, b.final_state.v1.coeffs)


class TestSchemeOrder:
    def test_second_order_self_convergence(self):
        """Nonlinearly active 2D flow: halving dt shrinks the error ~4x."""
        grid = make_grid(16, 16, 4)
        rng = np.random.default_rng(3)
        from hydrostat.fields import project_hydrostatic
        from hydrostat.spectral import _raw_to_spec

        c1 = _raw_to_spec(grid, rng.standard_normal(grid.shape))
        c2 = _raw_to_spec(grid, rng.standard_normal(grid.shape))
        keep = np.zeros(grid.shape, dtype=bool)
        keep[:4, :4, :1] = True
        keep[-3:, :4, :1] = True
        keep[:4, -3:, :1] = True
        keep[-3:, -3:, :1] = True
        v = project_hydrostatic(
            (SpectralField(grid, c1 * keep, EVEN), SpectralField(grid, c2 * keep, EVEN))
        )
        V0 = np.stack((v[0].coeffs, v[1].coeffs))[..., 0]
        V0 = 2.0 * V0 / np.sqrt(np.sum(np.abs(V0) ** 2) * 8.0)

        def advance(dt, T=0.1):
            st = NavierStokes2DStepper(grid, dt)
            V = V0.copy()
            for _ in range(int(round(T / dt))):
                V = st.step(V)
            return V

        ref = advance(1e-4 / 8)
        errs = [
            float(np.sqrt(np.sum(np.abs(advance(dt) - ref) ** 2)))
            for dt in (4e-3, 2e-3, 1e-3)
        ]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.0 < r1 < 5.0
        assert 3.0 < r2 < 5.0


class TestStructure:
    def test_divergence_and_parity_preserved(self):
        from hydrostat.harness.verify import check_ns_structural

        results = check_ns_structural(nx=16, steps=30)
        for r in results:
            assert r.passed, r.line()

    def test_embedding_all_three_solvers(self):
        from hydrostat.harness.verify import check_2d_embedding

        r = check_2d_embedding(steps=50)
        assert r.passed, r.line()

    def test_stokes_energy_identity(self):
        from hydrostat.harness.verify import check_stokes_energy_balance

        r = check_stokes_energy_balance()
        assert r.passed, r.line()
