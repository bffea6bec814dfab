"""Time integrators: exact-solution oracles, structure preservation, order."""
import math
import sys
import warnings

import numpy as np
import pytest

from hydrostat.errors import CompatibilityError, InvalidParameter
from hydrostat.fields import (
    VELOCITY_PARITIES,
    VelocityState,
    _raw_advect,
    _raw_div_eps_defect,
    _raw_project_eps,
    _raw_w_from_v,
    _raw_with_w,
)
from hydrostat.harness.initial_data import generate_initial_data
from hydrostat.solvers import (
    SYSTEMS,
    _ExpAB2,
    NavierStokes2DStepper,
    NavierStokesStepper,
    PrimitiveStepper,
    SimConfig,
    run_simulation,
)
from hydrostat.spectral import (
    EVEN,
    ODD,
    SpectralField,
    _lap_delta_mult,
    _raw_embed_plane,
    _raw_to_phys,
    field_from_function,
    make_grid,
    zero_field,
)

from conftest import convective_advect, hydro_projected

PI = np.pi


def _heat_state(grid):
    v1 = field_from_function(grid, lambda x, y, z: np.cos(PI * z), EVEN)
    return VelocityState(v1, zero_field(grid, EVEN), zero_field(grid, ODD))


def _tg_state(grid):
    v1 = field_from_function(grid, lambda x, y, z: np.sin(PI * x) * np.cos(PI * y), EVEN)
    v2 = field_from_function(grid, lambda x, y, z: -np.cos(PI * x) * np.sin(PI * y), EVEN)
    return VelocityState(v1, v2, zero_field(grid, ODD))


def _step(system, state, eps=1.0, delta=0.0, dt=1e-3):
    """One step of a fresh stepper (an Euler step on the nonlinearity) from
    a VelocityState, through the system table; the (v1, v2, w) coefficients."""
    entry = SYSTEMS[system]
    stepper = entry.stepper(state.grid, eps, delta, dt)
    return entry.unpack(state.grid, stepper.step(entry.pack(state)))


def _steps(system, state, n, delta=0.0, dt=1e-3):
    """n steps of one stepper; the (v1, v2, w) coefficients."""
    entry = SYSTEMS[system]
    stepper = entry.stepper(state.grid, 1.0, delta, dt)
    U = entry.pack(state)
    for _ in range(n):
        U = stepper.step(U)
    return entry.unpack(state.grid, U)


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

    @pytest.mark.parametrize("name", ["eps", "delta", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        """A non-finite eps, delta or gamma is refused, not run until its
        coefficients turn non-finite."""
        with pytest.raises(InvalidParameter, match=f"{name} must be finite"):
            SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.1, **{name: value})


class TestAnisotropicStepper:
    def test_heat_mode_single_step(self, grid16):
        dt, delta = 1e-3, 1.0
        out = _step("NS_eps_delta", _heat_state(grid16), 0.7, delta, dt)
        exact = math.exp(-delta * PI**2 * dt)
        got = out[0][0, 0, 1] / _heat_state(grid16).v1.coeffs[0, 0, 1]
        assert got == pytest.approx(exact, abs=1e-12)
        assert np.max(np.abs(out[2])) < 1e-15

    def test_z_independent_matches_2d(self, grid16):
        st3 = _step("NS_eps_delta", _tg_state(grid16), 0.4, 0.3)
        v2d = _step("NS2D", _tg_state(grid16))
        assert np.max(np.abs(st3[0] - v2d[0])) < 1e-12
        assert np.max(np.abs(st3[1] - v2d[1])) < 1e-12

    def test_zero_fixed_point(self, grid16):
        z = VelocityState(
            zero_field(grid16, EVEN), zero_field(grid16, EVEN),
            zero_field(grid16, ODD),
        )
        out = _step("NS_eps_delta", z, 1.0, 1.0)
        assert np.max(np.abs(out[0])) == 0.0
        assert _raw_div_eps_defect(grid16, np.stack(out), 1.0) == 0.0


    def test_nonlinear_term_owns_exactly_its_pair(self, grid16):
        """N and the AB2 history are new (2, band) arrays: no view of a
        three-component projection keeps its third component alive."""
        stepper = NavierStokesStepper(grid16, 0.3, 0.09, 1e-3)
        U = SYSTEMS["NS_eps_delta"].pack(
            generate_initial_data("bandlimited_random", 3, grid16))
        N = stepper.nonlinear(U)
        stepper.advance(U, N)
        for a in (N, stepper._n_prev):
            assert a.shape == (2, *grid16.band.spec_shape)
            assert a.base is None


class TestPrimitiveStepper:
    def test_stationary_solution_horizontal_viscosity(self, grid16):
        out = _steps("PE_H", _heat_state(grid16), 50)
        drift = np.max(np.abs(out[0] - _heat_state(grid16).v1.coeffs))
        assert drift < 1e-12

    def test_heat_decay_with_vertical_viscosity(self, grid16):
        dt = 1e-3
        state = _heat_state(grid16)
        out = _step("PE_delta", state, delta=1.0, dt=dt)
        exact = math.exp(-(PI**2) * dt)
        got = out[0][0, 0, 1] / state.v1.coeffs[0, 0, 1]
        assert got == pytest.approx(exact, abs=1e-12)

    def test_z_independent_matches_2d(self, grid16):
        st3 = _step("PE_delta", _tg_state(grid16), delta=0.6)
        v2d = _step("NS2D", _tg_state(grid16))
        assert np.max(np.abs(st3[0] - v2d[0])) < 1e-12
        assert np.max(np.abs(st3[2])) < 1e-14


class TestNs2dStepper:
    def test_taylor_green_decay(self):
        grid = make_grid(32, 32, 4)
        dt, n = 1e-3, 100
        v = _steps("NS2D", _tg_state(grid), n, dt=dt)
        amp = math.exp(-2 * PI**2 * n * dt)
        exact = _tg_state(grid)
        err = max(
            np.max(np.abs(v[0] - amp * exact.v1.coeffs)),
            np.max(np.abs(v[1] - amp * exact.v2.coeffs)),
        )
        assert err < 1e-14

    def test_shear_mode_pure_decay(self):
        grid = make_grid(16, 16, 4)
        dt = 1e-3
        v1 = field_from_function(grid, lambda x, y, z: np.sin(PI * y), EVEN)
        state = VelocityState(v1, zero_field(grid, EVEN), zero_field(grid, ODD))
        v = _steps("NS2D", state, 60, dt=dt)
        amp = math.exp(-(PI**2) * 60 * dt)
        assert np.max(np.abs(v[0] - amp * v1.coeffs)) < 1e-14

    def test_zero(self):
        grid = make_grid(8, 8, 4)
        z = VelocityState(
            zero_field(grid, EVEN), zero_field(grid, EVEN), zero_field(grid, ODD)
        )
        out = _step("NS2D", z)
        assert np.max(np.abs(out[0])) == 0.0

    def test_plane_matches_3d_steppers(self):
        """On z-independent random data, whose nonlinearity (unlike
        Taylor-Green's) is not a pure gradient, the plane stepper follows the
        anisotropic and the hydrostatic 3D steppers."""
        grid = make_grid(16, 16, 8)
        dt, steps = 1e-3, 20
        data = generate_initial_data("bandlimited_random", 4, grid)
        # the steppers' layouts: the band, and its kz=0 plane
        band, plane = grid.band, grid.plane
        B0 = plane.gather(np.stack((data.v1.coeffs[:, :, 0], data.v2.coeffs[:, :, 0])))
        U = V = _raw_embed_plane(band, B0)
        ns = NavierStokesStepper(grid, 0.7, 0.3, dt)
        pe = PrimitiveStepper(grid, 0.3, dt)
        n2 = NavierStokes2DStepper(grid, dt)
        B = B0
        for _ in range(steps):
            U, V, B = ns.step(U), pe.step(V), n2.step(B)
        B3 = _raw_embed_plane(band, B)
        assert np.max(np.abs(U - B3)) < 1e-12
        assert np.max(np.abs(0.7 * _raw_w_from_v(band, U))) < 1e-12
        assert np.max(np.abs(V - B3)) < 1e-12
        # the advection moved the state away from pure viscous decay
        heat = np.exp(-plane.k2h * steps * dt) * B0
        assert np.max(np.abs(B - heat)) > 1e-4 * np.max(np.abs(B0))


def _nonlinear_cases(grid, eps=0.3):
    """(stepper, divergence-free state, the convective-form nonlinear term)
    for each advecting stepper, on bandlimited random data.  The term is
    computed in the grid's layout (for NS2D on z-independent fields, then
    sliced at kz=0); state and term are given on the stepper's band.  The
    NS term is the horizontal part of the scaled projection of the
    convective term of (v, eps w)."""
    data = generate_initial_data("bandlimited_random", 7, grid)
    V = np.stack((data.v1.coeffs, data.v2.coeffs))
    U = np.concatenate((V, eps * data.w.coeffs[None]))
    up = _raw_to_phys(grid, np.concatenate((V, _raw_w_from_v(grid, V)[None])))
    B = _raw_embed_plane(grid, V[..., 0])
    band, plane = grid.band, grid.plane
    conv = convective_advect
    return {
        "NS": (NavierStokesStepper(grid, eps, 0.1, 1e-3), band.gather(V),
               band.gather(_raw_project_eps(grid, -conv(grid, up, U), eps)[:2])),
        "PE": (PrimitiveStepper(grid, 0.0, 1e-3), band.gather(V),
               band.gather(hydro_projected(grid, -conv(grid, up, V)))),
        "NS2D": (NavierStokes2DStepper(grid, 1e-3), plane.gather(B[..., 0]),
                 plane.gather(hydro_projected(
                     grid, -conv(grid, _raw_to_phys(grid, B), B))[..., 0])),
    }


class TestNonlinearTerms:
    @pytest.mark.parametrize("system", ["NS", "PE", "NS2D"])
    def test_matches_convective_form(self, grid16, system):
        """On its own divergence-free state each stepper's divergence-form
        nonlinear term equals the convective (u . grad) u."""
        stepper, U, conv = _nonlinear_cases(grid16)[system]
        N = stepper.nonlinear(U)
        assert np.max(np.abs(N - conv)) <= 1e-12 * np.max(np.abs(conv))

    @pytest.mark.parametrize(
        "system, inverse, forward", [("NS", 2, 4), ("PE", 2, 3), ("NS2D", 2, 3)]
    )
    def test_transform_budget(self, grid16, monkeypatch, system, inverse, forward):
        """Fields transformed by one nonlinear evaluation.  NS2D transforms
        its velocity once to the lattice and each distinct product u_i u_j
        once back.  The 3D steppers pair an even and an odd field in one
        transform: (v1 + w, v2) to the lattice, and back u_i (u_i + w) for
        i = 1, 2, then v1 v2 and, for NS, w w."""
        from hydrostat import fields, solvers, spectral

        stepper, U, _ = _nonlinear_cases(grid16)[system]
        counts = {"_raw_to_phys": 0, "_raw_to_spec": 0}

        def counted(name, fn):
            # the inverse takes coefficients, the forward lattice values
            shape = "spec_shape" if name == "_raw_to_phys" else "shape"

            def wrapper(grid, arr, **kw):
                counts[name] += arr.size // math.prod(getattr(grid, shape))
                return fn(grid, arr, **kw)
            return wrapper

        for name in counts:
            wrapper = counted(name, getattr(spectral, name))
            for module in (spectral, fields, solvers):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        stepper.nonlinear(U)
        assert counts == {"_raw_to_phys": inverse, "_raw_to_spec": forward}


class TestParityPairing:
    """The 3D steppers carry an even and an odd field in one transform, and
    keep their states exactly in the parity class without a parity pass."""

    @pytest.mark.parametrize("system", ["NS", "PE"])
    def test_nonlinear_term_is_exactly_in_the_parity_class(self, grid16, system):
        from hydrostat.spectral import _raw_parity_project

        stepper, U, _ = _nonlinear_cases(grid16)[system]
        N = stepper.nonlinear(U)
        assert len(N) == len(stepper.parities)
        for c, p in zip(N, stepper.parities):
            assert np.array_equal(_raw_parity_project(stepper.grid, c, p), c)

    @pytest.mark.parametrize("system, delta", [("NS_eps_delta", 0.04), ("PE_H", 0.0)])
    def test_steps_keep_the_parity_defect_at_zero(self, grid16, system, delta):
        from hydrostat.spectral import _raw_parity_project

        data = generate_initial_data("bandlimited_random", 4, grid16)
        entry = SYSTEMS[system]
        stepper = entry.stepper(grid16, 0.2, delta, 1e-3)
        U = entry.pack(data)
        for _ in range(20):
            U = stepper.step(U)
        for c, p in zip(U, stepper.parities):
            assert np.array_equal(_raw_parity_project(stepper.grid, c, p), c)
        for c, p in zip(entry.unpack(grid16, U), (EVEN, EVEN, ODD)):
            assert np.array_equal(_raw_parity_project(grid16, c, p), c)

    @pytest.mark.parametrize("system", ["NS", "PE"])
    def test_last_umax_is_over_the_split_components(self, grid16, system):
        """The CFL input is max |u| over v1, v2 and w, which one transform
        of v1 + w carries together: never the max of v1 + w itself, which
        is larger here (v2 is scaled down so that it is v1 that peaks)."""
        stepper, U, _ = _nonlinear_cases(grid16)[system]
        U = U * np.array([1.0, 0.8, 1.0][: len(U)])[:, None, None, None]
        band = stepper.grid
        comps = (U[0], U[1], _raw_w_from_v(band, U[:2]))
        stepper.nonlinear(U)
        want = max(float(np.max(np.abs(_raw_to_phys(band, c)))) for c in comps)
        assert stepper.last_umax == pytest.approx(want, rel=1e-12)
        h = _raw_to_phys(band, comps[0] + comps[2])
        assert float(np.max(np.abs(h))) > (1 + 1e-4) * want


class _NSThreeComponents(_ExpAB2):
    """Reference: the NS stepper on the state (v1, v2, eps w), as it was
    stepped before w became diagnostic.  Its nonlinear term is the whole
    scaled projection of the term that advects (v, w(v)), and every step
    ends with the scaled projection of the state."""

    def __init__(self, grid, eps, delta, dt):
        super().__init__(grid.band, _lap_delta_mult(grid.band, delta), dt)
        self.eps = eps

    def nonlinear(self, U):
        N = -_raw_advect(self.grid, self._phys(U[:2]), (1.0, 1.0, self.eps),
                         VELOCITY_PARITIES)
        return _raw_project_eps(self.grid, N, self.eps)

    def constrain(self, U):
        return _raw_project_eps(self.grid, U, self.eps)


class TestHorizontalPairState:
    @pytest.mark.parametrize("eps, delta", [(0.1, 0.1), (0.025, 0.025), (0.5, 64.0)])
    def test_matches_the_three_component_stepper(self, grid16, eps, delta):
        """Stepping the pair alone gives the horizontal coefficients of the
        three-component stepper, whose third component stays eps w(v), to
        1e-12 of the state's largest coefficient.  (At delta = 64 the
        mean-free part, w with it, has decayed to 1e-32 of it.)"""
        data = generate_initial_data("bandlimited_random", 42, grid16)
        ref = _NSThreeComponents(grid16, eps, delta, 1e-3)
        new = NavierStokesStepper(grid16, eps, delta, 1e-3)
        U = grid16.band.gather(
            np.stack((data.v1.coeffs, data.v2.coeffs, eps * data.w.coeffs)))
        V = SYSTEMS["NS_eps_delta"].pack(data)
        for _ in range(100):
            U, V = ref.step(U), new.step(V)
        scale = np.max(np.abs(U))
        assert np.max(np.abs(U[:2] - V)) <= 1e-12 * scale
        assert np.max(np.abs(U[2] - eps * _raw_w_from_v(new.grid, V))) <= 1e-12 * scale


class TestStokesStepper:
    def test_exact_mode_decay(self, grid16):
        dt, delta = 0.01, 3.0
        state = _heat_state(grid16)
        out = _step("StokesScaled", state, 0.5, delta, dt)
        factor = out[0][0, 0, 1] / state.v1.coeffs[0, 0, 1]
        assert factor == pytest.approx(math.exp(-delta * PI**2 * dt), abs=1e-15)

    def test_isotropic_reduction_at_delta_one(self, grid16):
        dt = 0.01
        v1 = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * x) * np.cos(PI * z), EVEN
        )
        v2 = zero_field(grid16, EVEN)
        w = SpectralField(
            grid16, _raw_w_from_v(grid16, np.stack((v1.coeffs, v2.coeffs))), ODD
        )
        state = VelocityState(v1, v2, w)
        out = _step("StokesScaled", state, 1.0, 1.0, dt)
        factor = out[0][1, 0, 1] / v1.coeffs[1, 0, 1]
        assert factor == pytest.approx(math.exp(-2 * PI**2 * dt), abs=1e-15)

    def test_mean_free_precondition(self):
        cfg = SimConfig(  # z-independent data: barotropic, not mean-free
            "StokesScaled", 16, 16, 16, 1e-3, 0.1, delta=1.0,
            recipe="taylor_green_3d",
        )
        with pytest.raises(CompatibilityError, match="mean-free"):
            run_simulation(cfg)

    def test_quarter_power_bound_in_delta(self, grid16):
        """Exact trajectories: the L4-in-time H^{3/2} norm decays at least
        like delta^{-1/4} for fixed mean-free data."""
        from hydrostat.norms import NormAccumulator, accumulate, finalize
        from hydrostat.solvers import StokesScaledStepper

        v1 = field_from_function(
            grid16, lambda x, y, z: np.sin(PI * x) * np.cos(PI * z), EVEN
        )
        v2 = zero_field(grid16, EVEN)
        U0 = np.stack((v1.coeffs, v2.coeffs))
        scaled = {}
        for delta in (4.0, 16.0, 64.0, 256.0):
            dt = min(1e-3, 0.1 / (4 * delta * PI**2))
            stepper = StokesScaledStepper(grid16, delta, dt)
            acc = NormAccumulator("L4H32")
            U = grid16.band.gather(U0)
            t, t_end = 0.0, 0.2
            # the state (v1, v2) stands for (v1, v2, w(v))
            fields = lambda V: tuple(
                SpectralField(grid16, c, p) for c, p in zip(
                    grid16.band.scatter(_raw_with_w(grid16.band, V)), (EVEN, EVEN, ODD))
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


class TestBandLayout:
    """Every stepper holds its state on the band of the 2/3 mask; the
    system table converts to and from the kz >= 0 layout of the fields."""

    @pytest.mark.parametrize("system, bad", [
        *(pytest.param(s, "band", id=s) for s in sorted(SYSTEMS)),
        *(pytest.param(s, bad, id=f"{s}-{bad}") for s in sorted(SYSTEMS)
          if s != "NS2D" for bad in ("w_zero", "w_scaled")),
    ])
    def test_state_outside_the_band_is_rejected(self, grid16, system, bad):
        """Content at m = 6 on a 16-point axis (3 * 6 >= 16) cannot be held
        by a stepper; it was once dropped without a word after the first
        step.  Nor can a 3D stepper, which holds the horizontal pair, hold a
        w other than w(v): NS once re-projected such a state, and PE
        dropped its w."""
        if bad == "band":
            v1 = field_from_function(grid16, lambda x, y, z: np.cos(6 * PI * x), EVEN)
            state = VelocityState(v1, zero_field(grid16, EVEN), zero_field(grid16, ODD))
            match, defect = r"outside.*band.*\(6, 0(, 0)?\)", 0.5
        else:
            data = generate_initial_data("bandlimited_random", 3, grid16)
            w = zero_field(grid16, ODD) if bad == "w_zero" else data.w * (1 + 1e-8)
            state = VelocityState(data.v1, data.v2, w)
            match = r"w is not the w\(v\)"
            defect = float(np.max(np.abs(w.coeffs - data.w.coeffs)))
        with pytest.raises(CompatibilityError, match=match) as err:
            SYSTEMS[system].pack(state)
        assert err.value.defect == pytest.approx(defect)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_pack_unpack_round_trip(self, grid16, system):
        """unpack(pack(state)) gives back the recipe data, whose content
        outside the band is rounding, in the (v1, v2, w) layout of the
        grid."""
        recipe = "taylor_green_3d" if system == "NS2D" else "bandlimited_random"
        state = generate_initial_data(recipe, 3, grid16)
        entry = SYSTEMS[system]
        U = entry.pack(state)
        out = entry.unpack(grid16, U)
        for got, f in zip(out, state.components()):
            assert got.shape == grid16.spec_shape
            assert np.max(np.abs(got - f.coeffs)) < 1e-15

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_pack_returns_an_array_of_its_own(self, system):
        """pack gives a C-contiguous array of exactly the stepped pair that
        owns its memory: a lane holds no larger array from its first step,
        and writing to its state touches nothing else."""
        grid = make_grid(32, 32, 32)
        recipe = "taylor_green_3d" if system == "NS2D" else "bandlimited_random"
        U = SYSTEMS[system].pack(generate_initial_data(recipe, 3, grid))
        assert U.flags.c_contiguous and U.base is None and len(U) == 2


class TestSharedWorkspace:
    """Every stepper on a band transforms in the band's one workspace."""

    def test_family_steps_equal_each_stepped_alone(self):
        """A family (PE_H reference and two NS members on one band, advanced
        in turn) gives bit for bit what each gives on a grid of its own."""
        def make(grid):
            return [PrimitiveStepper(grid, 0.0, 1e-3),
                    NavierStokesStepper(grid, 0.2, 0.04, 1e-3),
                    NavierStokesStepper(grid, 0.1, 0.01, 1e-3)]

        def start(grid):
            data = generate_initial_data("bandlimited_random", 9, grid)
            return [SYSTEMS["PE_H"].pack(data),
                    SYSTEMS["NS_eps_delta"].pack(data),
                    SYSTEMS["NS_eps_delta"].pack(data)]

        grid = make_grid(16, 16, 16)
        family, states = make(grid), start(grid)
        for _ in range(4):
            states = [st.step(U) for st, U in zip(family, states)]
        for k in range(3):
            own = make_grid(16, 16, 16)
            st, U = make(own)[k], start(own)[k]
            for _ in range(4):
                U = st.step(U)
            assert np.array_equal(U, states[k])

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor faults with getrusage")
    def test_steps_do_not_fault_pages_in(self):
        """After warm-up an NS step at 32^3 allocates nothing at lattice
        size, so the heap is not trimmed and faulted back in on every step
        (about 850 minor faults a step when the transforms allocated)."""
        import resource

        grid = make_grid(32, 32, 32)
        data = generate_initial_data("bandlimited_random", 1, grid)
        stepper = NavierStokesStepper(grid, 0.1, 0.01, 1e-3)
        U = SYSTEMS["NS_eps_delta"].pack(data)
        for _ in range(3):
            U = stepper.step(U)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            U = stepper.step(U)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 10 * 100


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

    @pytest.mark.parametrize("recipe", ["bandlimited_random", "taylor_green_3d"])
    def test_ns2d_reports_the_energy_it_drops(self, recipe):
        """NS2D steps the vertical average of 3D data: one warning names
        the share of the energy it drops, and z-independent data get none."""
        cfg = SimConfig("NS2D", 16, 16, 8, 1e-3, 0.005, recipe=recipe, seed=2)
        data = generate_initial_data(recipe, 2, make_grid(16, 16, 8))
        U = np.stack([f.coeffs for f in data.components()])
        off = U.copy()
        off[:2, :, :, 0] = 0.0
        share = np.sum(np.abs(off) ** 2 * data.grid.parseval_weight) / np.sum(
            np.abs(U) ** 2 * data.grid.parseval_weight)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_simulation(cfg)
        dropped = [str(w.message) for w in caught if "kz=0 plane" in str(w.message)]
        if recipe == "taylor_green_3d":
            assert dropped == [] and share < 1e-24
        else:
            assert len(dropped) == 1
            assert f"has {100 * share:.3g}% of its energy" in dropped[0]

    def test_cfl_warning_reports_maximum_through_ns2d(self):
        """The plane stepper sets last_umax, so an NS2D run past the limit
        warns.  The Taylor-Green vortex only decays, so the largest CFL
        number is at t = 0."""
        grid = make_grid(16, 16, 4)
        st = generate_initial_data("taylor_green_3d", 0, grid)
        plane = np.stack((st.v1.coeffs[:, :, 0], st.v2.coeffs[:, :, 0]))
        umax = float(np.max(np.abs(_raw_to_phys(grid, _raw_embed_plane(grid, plane)))))
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
        nonlinear = NavierStokes2DStepper.nonlinear

        def growing(self, V):
            N = nonlinear(self, V)
            self.calls = getattr(self, "calls", 0) + 1
            self.last_umax = float(self.calls)
            return N

        monkeypatch.setattr(NavierStokes2DStepper, "nonlinear", growing)
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
        from hydrostat.spectral import _raw_to_spec

        c1 = _raw_to_spec(grid, rng.standard_normal(grid.shape))
        c2 = _raw_to_spec(grid, rng.standard_normal(grid.shape))
        keep = np.zeros(grid.spec_shape, dtype=bool)
        keep[:4, :4, :1] = True
        keep[-3:, :4, :1] = True
        keep[:4, -3:, :1] = True
        keep[-3:, -3:, :1] = True
        V0 = hydro_projected(grid, np.stack((c1 * keep, c2 * keep)))[..., 0]
        V0 = grid.plane.gather(2.0 * V0 / np.sqrt(np.sum(np.abs(V0) ** 2) * 8.0))

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
