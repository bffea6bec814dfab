"""Harness: initial data, rate fitting, persistence, config, sweep, CLI."""
import gc
import importlib.util
import json
import math
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hydrostat.errors import (
    ConfigError,
    FormatError,
    InsufficientData,
    InvalidParameter,
)
from hydrostat.fields import VelocityState, _raw_div_eps_defect
from hydrostat.harness.config import (
    load_config,
    parse_config_text,
    sim_config_from_dict,
    sweep_config_from_dict,
)
from hydrostat.harness.initial_data import generate_initial_data
from hydrostat.harness.pairs import (
    _stiff_segments,
    run_matched_family,
    run_matched_pair,
)
from hydrostat.harness.snapshots import load_snapshot, save_snapshot
from hydrostat.harness.sweep import SweepConfig, fit_rate, run_sweep
from hydrostat.norms import norm_sobolev
from hydrostat.solvers import (
    NavierStokes2DStepper,
    NavierStokesStepper,
    PrimitiveStepper,
    SimConfig,
    StokesScaledStepper,
    run_simulation,
)
from hydrostat.spectral import EVEN, SpectralField, _raw_parity_project, make_grid

PI = np.pi


class TestInitialData:
    def test_heat_mode_shape(self, grid16):
        st = generate_initial_data("heat_mode", 0, grid16)
        # single vertical cosine in the first component, w = 0; its mode
        # at kz = -pi is the conjugate mirror of the stored kz = pi
        c = st.v1.coeffs
        assert abs(c[0, 0, 1]) > 0
        other = c.copy()
        other[0, 0, 1] = 0
        assert np.max(np.abs(other)) < 1e-14
        assert np.max(np.abs(st.w.coeffs)) == 0.0

    def test_determinism(self, grid16):
        a = generate_initial_data("bandlimited_random", 42, grid16)
        b = generate_initial_data("bandlimited_random", 42, grid16)
        assert np.array_equal(a.v1.coeffs, b.v1.coeffs)
        assert np.array_equal(a.w.coeffs, b.w.coeffs)
        c = generate_initial_data("bandlimited_random", 43, grid16)
        assert not np.array_equal(a.v1.coeffs, c.v1.coeffs)

    @pytest.mark.parametrize("recipe", ["bandlimited_random", "taylor_green_3d", "heat_mode"])
    def test_invariants(self, grid16, recipe):
        st = generate_initial_data(recipe, 7, grid16)
        h1 = math.sqrt(sum(norm_sobolev(f, 1.0) ** 2 for f in st.components()))
        assert h1 == pytest.approx(1.0, abs=1e-10)
        U = np.stack([f.coeffs for f in st.components()])
        assert _raw_div_eps_defect(grid16, U, 1.0) < 1e-11
        for f in st.components():
            c = f.coeffs
            assert np.array_equal(_raw_parity_project(grid16, c, f.parity), c)
        # compatibility of the vertical average
        d = (
            grid16.kx[:, None] * st.v1.coeffs[:, :, 0]
            + grid16.ky[None, :] * st.v2.coeffs[:, :, 0]
        )
        assert np.max(np.abs(d)) < 1e-13

    def test_band_limit(self, grid16):
        st = generate_initial_data("bandlimited_random", 11, grid16)
        m = np.rint(grid16.kx / PI).astype(int)
        outside = np.abs(m) > grid16.nx // 4
        assert np.max(np.abs(st.v1.coeffs[outside])) == 0.0

    def test_unknown_recipe(self, grid16):
        with pytest.raises(InvalidParameter):
            generate_initial_data("vortex_soup", 0, grid16)


class TestFitRate:
    def test_exact_power_law(self):
        pts = [(h, 3 * h) for h in (0.1, 0.05, 0.025)]
        slope, intercept, r2 = fit_rate(pts)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_square_root_law(self):
        pts = [(h, h**0.5) for h in (0.2, 0.1, 0.05, 0.025)]
        assert fit_rate(pts)[0] == pytest.approx(0.5, abs=1e-12)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(0)
        hs = np.geomspace(0.4, 0.003, 8)
        pts = [(h, 2.0 * h**1.3 * float(1 + 0.05 * rng.standard_normal())) for h in hs]
        slope, _, _ = fit_rate(pts)
        assert abs(slope - 1.3) < 0.1

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_rate([(0.1, 1.0), (0.05, 0.5)])
        # blowups dropped, then too few points remain
        with pytest.raises(InsufficientData):
            fit_rate([(0.1, 1.0), (0.05, float("nan")), (0.025, 0.2)])

    @pytest.mark.parametrize("h", [0.1, 0.002])
    def test_points_at_one_abscissa_are_insufficient(self, h):
        """No line passes through points at one abscissa: before, this
        divided by zero at h = 0.1 and gave a slope of rounding noise
        (0.083, r2 = 0) at h = 0.002."""
        with pytest.raises(InsufficientData, match="3 points are at one abscissa"):
            fit_rate([(h, 1.0), (h, 2.0), (h, 3.0)])

    def test_drop_blowups_keeps_enough(self):
        pts = [(0.2, 0.6), (0.1, 0.3), (0.05, 0.15), (0.025, float("inf"))]
        slope, _, _ = fit_rate(pts)
        assert slope == pytest.approx(1.0, abs=1e-12)


class TestSnapshots:
    def _state(self, grid):
        return replace(generate_initial_data("bandlimited_random", 3, grid), time=0.625)

    def test_round_trip_bit_exact(self, grid16, tmp_path):
        st = self._state(grid16)
        path = tmp_path / "state.hsn"
        save_snapshot(st, str(path))
        back = load_snapshot(str(path))
        assert np.array_equal(back.v1.coeffs, st.v1.coeffs)
        assert np.array_equal(back.v2.coeffs, st.v2.coeffs)
        assert np.array_equal(back.w.coeffs, st.w.coeffs)
        assert back.time == st.time
        assert back.v1.parity == "even" and back.w.parity == "odd"
        # byte-determinism of the writer itself
        path2 = tmp_path / "state2.hsn"
        save_snapshot(st, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file(self, grid16, tmp_path):
        st = self._state(grid16)
        path = tmp_path / "state.hsn"
        save_snapshot(st, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_snapshot(str(path))

    def test_version_bump_rejected(self, grid16, tmp_path):
        import struct
        import zlib

        st = self._state(grid16)
        path = tmp_path / "state.hsn"
        save_snapshot(st, str(path))
        raw = bytearray(path.read_bytes())
        payload = bytearray(raw[4:-4])
        payload[0:4] = struct.pack("<I", 99)  # version field
        out = raw[:4] + payload + struct.pack("<I", zlib.crc32(bytes(payload)))
        path.write_bytes(bytes(out))
        with pytest.raises(FormatError) as exc:
            load_snapshot(str(path))
        assert "version" in str(exc.value)

    def test_crc_guard(self, grid16, tmp_path):
        st = self._state(grid16)
        path = tmp_path / "state.hsn"
        save_snapshot(st, str(path))
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load_snapshot(str(path))
        assert "CRC" in str(exc.value)

    @staticmethod
    def _hand_built(path, names=(b"v1", b"v2", b"w", b"time")):
        """Write HSN1 bytes from the documented layout: the full complex
        cubes of three real fields (6 x 4 x 10) and a time of 0.25, under
        the given names.  Returns the cubes and the byte offset of each
        name."""
        import struct
        import zlib

        nx, ny, nz = 6, 4, 10
        rng = np.random.default_rng(5)
        cubes = [np.fft.fftn(rng.standard_normal((nx, ny, nz))) / (nx * ny * nz)
                 for _ in range(3)]
        t = np.zeros((nx, ny, nz), dtype=np.complex128)
        t[0, 0, 0] = 0.25
        payload = struct.pack("<IIIII", 1, nx, ny, nz, len(names))
        offsets = []
        for name, cube in zip(names, [*cubes, t]):
            payload += struct.pack("<I", len(name))
            offsets.append(4 + len(payload))
            payload += name + struct.pack("<B", 2) + cube.astype("<c16").tobytes()
        path.write_bytes(b"HSN1" + payload + struct.pack("<I", zlib.crc32(payload)))
        return cubes, offsets

    def test_hand_built_full_cube_loads_its_kz_half(self, tmp_path):
        """HSN1 bytes written from the documented layout, with the full
        complex cube of a real field, load as that cube's kz >= 0 half."""
        path = tmp_path / "hand.hsn"
        cubes, _ = self._hand_built(path)
        back = load_snapshot(str(path))
        for f, cube in zip(back.components(), cubes):
            assert np.array_equal(f.coeffs, cube[..., : cube.shape[-1] // 2 + 1])
        assert back.time == 0.25

    @pytest.mark.parametrize("names, k, match", [
        ((b"v1", b"v1", b"w", b"time"), 1, "duplicate field 'v1'"),
        ((b"v1", b"v2", b"u", b"time"), 2, "unknown field 'u'"),
        ((b"v1", b"v2", b"w", b"\xfftime"), 3, "is not UTF-8"),
    ], ids=["duplicate", "unknown", "not-utf8"])
    def test_a_bad_field_name_is_a_format_error(self, tmp_path, names, k, match):
        """A repeated, unknown or undecodable name is rejected at its offset:
        before, a second v1 replaced the first, an unknown field was
        ignored, and bytes that are not UTF-8 raised UnicodeDecodeError."""
        path = tmp_path / "bad.hsn"
        _, offsets = self._hand_built(path, names)
        with pytest.raises(FormatError, match=match) as err:
            load_snapshot(str(path))
        assert err.value.offset == offsets[k]

    def test_save_writes_the_documented_layout(self, tmp_path):
        """The writer-side twin of the test above: save_snapshot's bytes are
        the documented layout built by hand, little-endian on any host,
        with the kz < 0 planes the conjugates of their mirrors."""
        import struct
        import zlib

        from hydrostat.spectral import NONE

        nx, ny, nz = 6, 4, 10
        g = make_grid(nx, ny, nz)
        rng = np.random.default_rng(6)
        halves = [np.fft.rfftn(rng.standard_normal((nx, ny, nz))) / (nx * ny * nz)
                  for _ in range(3)]
        path = tmp_path / "saved.hsn"
        save_snapshot(VelocityState(*(SpectralField(g, c, NONE) for c in halves),
                                    time=0.25), str(path))
        ix, iy = (-np.arange(nx)) % nx, (-np.arange(ny)) % ny

        def full(half):
            cube = np.zeros((nx, ny, nz), dtype=np.complex128)
            cube[..., : nz // 2 + 1] = half
            for kz in range(1, nz // 2):  # mode -kz is conj(c[-kx, -ky, kz])
                cube[..., nz - kz] = np.conj(half[ix][:, iy, kz])
            return cube

        t = np.zeros((nx, ny, nz), dtype=np.complex128)
        t[0, 0, 0] = 0.25
        payload = struct.pack("<IIIII", 1, nx, ny, nz, 4)
        for name, cube in zip(("v1", "v2", "w", "time"), [*map(full, halves), t]):
            payload += struct.pack("<I", len(name)) + name.encode()
            payload += struct.pack("<B", 2) + cube.astype("<c16").tobytes()
        assert path.read_bytes() == (
            b"HSN1" + payload + struct.pack("<I", zlib.crc32(payload)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.hsn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_snapshot(str(path))


GOOD_SIM = """
# simulation setup
system = PE_H
nx = 8
ny = 8
nz = 8
dt = 1e-3
t_end = 0.01
recipe = heat_mode
seed = 4
"""

# a sweep's template: the system it runs, without a point's eps, delta or gamma
SWEEP_SIM = GOOD_SIM.replace("system = PE_H", "system = NS_eps_delta")


class TestConfig:
    def test_parse_and_build(self):
        cfg = sim_config_from_dict(parse_config_text(GOOD_SIM))
        assert cfg.system == "PE_H"
        assert cfg.nx == 8 and cfg.dt == 1e-3
        assert cfg.recipe == "heat_mode"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("systm = PE_H\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("nx = 8\nnx = 16\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("nx = eight\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            sim_config_from_dict(parse_config_text("system = PE_H\n"))

    @pytest.mark.parametrize("value", ["0.1,,0.2", "0.1, 0.2,", ", 0.1"])
    def test_empty_list_item_rejected(self, value):
        """Before, 0.1,,0.2 read as (0.1, 0.2) without a word."""
        with pytest.raises(ConfigError,
                           match="line 2: bad value for eps_values: empty item"):
            parse_config_text(f"mode = gamma_scan\neps_values = {value}\n")

    def test_out_dir_is_no_config_key(self):
        """A sweep writes to its --out flag; before, a config's out_dir was
        accepted and then replaced by the flag."""
        with pytest.raises(ConfigError, match="line 1: unknown key 'out_dir'"):
            parse_config_text("out_dir = results\n")

    def test_sweep_config(self):
        text = SWEEP_SIM + "mode = eps_delta_to_zero\neps_values = 0.2, 0.1, 0.05\n"
        d = parse_config_text(text)
        cfg = sweep_config_from_dict(d)
        assert cfg.mode == "eps_delta_to_zero"
        assert cfg.eps_values == (0.2, 0.1, 0.05)
        assert cfg.points() == [(0.2, 0.2, None), (0.1, 0.1, None), (0.05, 0.05, None)]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        text = SWEEP_SIM + f"mode = eps_delta_to_zero\neps_values = 0.2\njobs = {jobs}\n"
        with pytest.raises(ConfigError, match="jobs"):
            sweep_config_from_dict(parse_config_text(text))

    def test_empty_eps_list_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(
                mode="eps_delta_to_zero",
                base=SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.01),
                eps_values=(),
            )

    def test_gamma_scan_points(self):
        cfg = SweepConfig(
            mode="gamma_scan",
            base=SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.01),
            eps_values=(0.2, 0.1),
            gamma_values=(3.0,),
        )
        assert cfg.points() == [(0.2, pytest.approx(0.2), 3.0),
                                (0.1, pytest.approx(0.1), 3.0)]

    @pytest.mark.parametrize("mode, lists, bad", [
        ("delta_to_infty", dict(delta_values=(16.0, math.inf)), "delta=inf"),
        ("delta_to_infty", dict(delta_values=(16.0, 0.0)), "delta=0.0"),
        ("delta_to_infty", dict(delta_values=(-1.0,)), "delta=-1.0"),
        ("delta_to_infty", dict(eps_values=(0.5, math.nan), delta_values=(4.0,)), "eps=nan"),
        ("eps_delta_to_zero", dict(eps_values=(0.5, 0.0)), "eps=0.0"),
        ("eps_delta_to_zero", dict(delta_values=(0.5, math.nan)), "delta=nan"),
        ("gamma_scan", dict(gamma_values=(3.0, math.nan)), "gamma=nan"),
        ("gamma_scan", dict(gamma_values=(math.inf,)), "gamma=inf"),
    ])
    def test_non_finite_and_non_positive_values_rejected(self, mode, lists, bad):
        """A value that no point can run with is refused, and named, when the
        sweep is configured: before, delta_to_infty at delta = inf ran into
        a ZeroDivisionError and delta = 0 ran with its fit abscissa dropped."""
        kw = {"eps_values": (0.5, 0.25), **lists}
        with pytest.raises(ConfigError, match=re.escape(bad)):
            SweepConfig(mode=mode, base=SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.01),
                        **kw)

    @pytest.mark.parametrize("gamma, regime", [
        (2.0, "primitive equations with full viscosity"),
        (1.5, "2D Navier-Stokes"),
        (0.5, "2D Navier-Stokes"),
        (0.0, "2D Navier-Stokes"),
        (-1.0, "2D Navier-Stokes"),
    ])
    def test_gamma_scan_rejects_gamma_at_most_two(self, gamma, regime):
        """gamma_scan compares with PE_H, the limit for gamma > 2 only."""
        text = SWEEP_SIM + f"mode = gamma_scan\neps_values = 0.2\ngamma_values = 3, {gamma}\n"
        with pytest.raises(ConfigError, match=f"gamma = {gamma:g} .*{regime}"):
            sweep_config_from_dict(parse_config_text(text))

    @pytest.mark.parametrize("line, match", [
        ("system = PE_H", "not system = PE_H"),
        ("system = NS2D", "not system = NS2D"),
        ("eps = 0.1", "give eps_values"),
        ("delta = 0.1", "give delta_values"),
        ("gamma = 3", "give gamma_values"),
    ])
    def test_sweep_rejects_what_it_would_reinterpret(self, line, match):
        """A sweep runs NS_eps_delta and sets eps, delta and gamma per point:
        before, system = PE_H failed every point, system = NS2D was ignored,
        gamma was dropped and eps and delta were overwritten."""
        sim = (SWEEP_SIM.replace("system = NS_eps_delta", line)
               if line.startswith("system") else SWEEP_SIM + line + "\n")
        text = sim + "mode = gamma_scan\neps_values = 0.2, 0.1\ngamma_values = 3\n"
        with pytest.raises(ConfigError, match=match):
            sweep_config_from_dict(parse_config_text(text))

    @pytest.mark.parametrize("mode, lists, unread", [
        ("gamma_scan", dict(gamma_values=(3.0,), delta_values=(5.0, 7.0)), "delta_values"),
        ("eps_delta_to_zero", dict(gamma_values=(3.0,)), "gamma_values"),
        ("delta_to_infty", dict(delta_values=(4.0,), gamma_values=(3.0,)), "gamma_values"),
    ])
    def test_sweep_rejects_a_list_its_mode_does_not_read(self, mode, lists, unread):
        """Before, points() ignored such a list: a gamma_scan with
        delta_values = 5, 7 ran delta = eps**(gamma-2), and the other modes
        ran no gamma."""
        with pytest.raises(ConfigError, match=f"{mode} reads no {unread}"):
            SweepConfig(mode=mode, base=SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.01),
                        eps_values=(0.2, 0.1), **lists)

    @pytest.mark.parametrize("mode, lists, points", [
        ("gamma_scan", "eps_values = 0.2, 0.1, 0.05\ngamma_values = 3.0, 4.0\n", 6),
        ("eps_delta_to_zero", "eps_values = 0.2, 0.1\ngamma_values = \n", 2),
    ])
    def test_sweep_accepts_the_lists_it_reads_and_empty_ones(self, mode, lists, points):
        """The benchmark's gamma-sweep-32 config gives eps and gamma lists
        only; an empty list counts as not given."""
        cfg = sweep_config_from_dict(parse_config_text(
            SWEEP_SIM + f"mode = {mode}\n" + lists))
        assert len(cfg.points()) == points

    @pytest.mark.parametrize("old, new, match", [
        ("t_end = 0.01", "t_end = 0.0105", "whole number"),
        ("dt = 1e-3", "dt = -1e-3", "dt"),
        ("seed = 4", "seed = 4\nrecord_every = 0", "record_every"),
    ])
    def test_sweep_bad_simulation_value_is_a_config_error(self, old, new, match):
        """As in sim_config_from_dict; before, the template's InvalidParameter
        escaped."""
        text = SWEEP_SIM.replace(old, new) + "mode = eps_delta_to_zero\neps_values = 0.2\n"
        with pytest.raises(ConfigError, match=match):
            sweep_config_from_dict(parse_config_text(text))

    def test_sweep_rejects_a_point_that_cannot_run(self):
        """Every point is checked as run_matched_family checks it: before, a
        negative delta passed the config and failed its point at run time."""
        with pytest.raises(ConfigError, match="delta must be >= 0"):
            SweepConfig(mode="eps_delta_to_zero",
                        base=SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.01),
                        eps_values=(0.2, 0.1), delta_values=(0.2, -1.0))

    @pytest.mark.parametrize("mode, lists, point", [
        ("gamma_scan", dict(eps_values=(0.2, 0.1, 0.2), gamma_values=(3.0,)),
         (0.2, 0.2, 3.0)),
        ("eps_delta_to_zero", dict(eps_values=(0.2, 0.2)), (0.2, 0.2, None)),
        ("delta_to_infty", dict(eps_values=(0.5,), delta_values=(4.0, 4.0)),
         (0.5, 4.0, None)),
    ], ids=["gamma_scan", "eps_delta_to_zero", "delta_to_infty"])
    def test_sweep_rejects_a_repeated_point(self, mode, lists, point):
        """Before, each repeat ran as a point of its own and wrote its rows
        again; eps_delta_to_zero may still repeat an eps with another delta."""
        base = SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.01)
        match = re.escape(f"(eps, delta, gamma) = {point} is repeated")
        with pytest.raises(ConfigError, match=match):
            SweepConfig(mode=mode, base=base, **lists)
        SweepConfig(mode="eps_delta_to_zero", base=base,
                    eps_values=(0.2, 0.2), delta_values=(0.2, 0.1))

    @pytest.mark.parametrize("eps", [1e200, 1e-200])
    def test_a_delta_out_of_the_float_range_names_eps_and_gamma(self, eps):
        """delta = eps**(gamma-2) beyond the float range: before, an
        OverflowError escaped SimConfig and the gamma_scan points, and an
        underflow ran the point at delta = 0."""
        base = SimConfig("NS_eps_delta", 8, 8, 8, 1e-3, 0.01)
        match = re.escape(f"float range at eps={eps:g}, gamma=4")
        with pytest.raises(InvalidParameter, match=match):
            replace(base, eps=eps, gamma=4.0)
        with pytest.raises(ConfigError, match=match):
            SweepConfig(mode="gamma_scan", base=base, eps_values=(eps,),
                        gamma_values=(4.0,))

def _tiny_sweep_cfg(out_dir=None, jobs=1, mode="eps_delta_to_zero"):
    values = (dict(eps_values=(0.5, 0.25), delta_values=(16.0, 64.0))
              if mode == "delta_to_infty" else dict(eps_values=(0.2, 0.1, 0.05)))
    return SweepConfig(
        mode=mode,
        base=SimConfig(
            "NS_eps_delta", 8, 8, 8, 2e-3, 0.02,
            recipe="bandlimited_random", seed=5,
        ),
        out_dir=out_dir,
        jobs=jobs,
        **values,
    )


def _fault(monkeypatch, cls, method, fault):
    """Pass the result of cls.method of every stepper through fault(stepper,
    result), which may raise or poison it."""
    original = getattr(cls, method)

    def faulty(self, *args):
        return fault(self, original(self, *args))

    monkeypatch.setattr(cls, method, faulty)


def _fault_nonlinear(monkeypatch, fault):
    """Pass the nonlinear term of every anisotropic run of a family through
    fault(eps, N), which may raise or poison it."""
    _fault(monkeypatch, NavierStokesStepper, "nonlinear",
           lambda st, N: fault(st.eps, N))


def _poison_point(monkeypatch, eps, delta, after=3):
    """Make the anisotropic run at (eps, delta) blow up: every step of its
    stepper after the first `after` returns NaN."""
    init = NavierStokesStepper.__init__

    def tagged(st, grid, e, d, dt):
        init(st, grid, e, d, dt)
        st.poisoned, st.steps = (e, d) == (eps, delta), 0

    def poison(st, U):
        st.steps += 1
        return U * np.nan if st.poisoned and st.steps > after else U

    monkeypatch.setattr(NavierStokesStepper, "__init__", tagged)
    _fault(monkeypatch, NavierStokesStepper, "advance", poison)


def _values_except(res, eps):
    """(eps, norm) -> (value, blowup) of every sweep point but one."""
    return {
        (r.eps, r.norm_name): (r.value, r.blowup) for r in res.rows if r.eps != eps
    }


class TestSweep:
    def test_rows_and_fits(self, tmp_path):
        res = run_sweep(_tiny_sweep_cfg(str(tmp_path)))
        names = {r.norm_name for r in res.rows}
        assert {"EHdelta", "Ez", "EH", "total"} <= names
        assert "total" in res.fits
        assert (tmp_path / "results.csv").exists()
        assert json.loads((tmp_path / "failures.json").read_text()) == []

    @pytest.mark.parametrize("mode", ["eps_delta_to_zero", "delta_to_infty"])
    def test_csv_deterministic_across_jobs(self, tmp_path, mode, monkeypatch):
        """delta_to_infty covers a pool that runs one family per delta; a
        sweep of one family, as every hydrostatic sweep is, runs in the
        calling thread at any --jobs."""
        import threading

        from hydrostat.harness import pairs

        threads = []
        run_family = pairs._run_family

        def spy(*args):
            threads.append(threading.current_thread())
            return run_family(*args)

        monkeypatch.setattr(pairs, "_run_family", spy)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_sweep(_tiny_sweep_cfg(str(d1), jobs=1, mode=mode))
        assert threads == [threading.current_thread()] * len(threads)
        threads.clear()
        run_sweep(_tiny_sweep_cfg(str(d2), jobs=2, mode=mode))
        pooled = [t is not threading.current_thread() for t in threads]
        assert pooled == {"eps_delta_to_zero": [False],
                          "delta_to_infty": [True, True]}[mode]
        for name in ("results.csv", "failures.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_failed_marker_row(self, tmp_path, monkeypatch):
        clean = _values_except(run_sweep(_tiny_sweep_cfg()), eps=0.1)

        def boom(eps, N):
            if eps == 0.1:
                raise RuntimeError("synthetic failure")
            return N

        _fault_nonlinear(monkeypatch, boom)
        res = run_sweep(_tiny_sweep_cfg(str(tmp_path)))
        failed = [r for r in res.rows if r.norm_name == "FAILED"]
        assert len(failed) == 1 and failed[0].eps == 0.1
        text = (tmp_path / "results.csv").read_text()
        assert "FAILED" in text
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert len(failures) == 1 and failures[0]["eps"] == 0.1
        assert failures[0]["norm_name"] == "FAILED"
        assert failures[0]["type"] == "RuntimeError"
        assert failures[0]["message"] == "synthetic failure"
        # the other members of the family are unaffected
        assert _values_except(res, eps=0.1) == clean

    def test_a_failed_point_is_no_blowup(self, tmp_path, monkeypatch, capsys):
        """A FAILED row is flagged blowup=1 in the CSV, but an exception, not
        a blowup, stopped its point: it sets no blowup threshold, and the
        CLI prints no threshold line.  Before, the threshold read 0.2."""
        from hydrostat.harness.cli import main

        def boom(eps, N):
            raise RuntimeError("synthetic failure")

        _fault_nonlinear(monkeypatch, boom)
        res = run_sweep(_tiny_sweep_cfg(str(tmp_path / "api")))
        assert {r.norm_name for r in res.rows} == {"FAILED"}
        assert all(r.blowup for r in res.rows)
        assert res.blowup_threshold == math.inf
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_SIM + "mode = eps_delta_to_zero\neps_values = 0.2, 0.1\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 0
        assert "threshold" not in capsys.readouterr().out

    def test_plots_written(self, tmp_path):
        run_sweep(_tiny_sweep_cfg(str(tmp_path)), write_plots=True)
        svg = (tmp_path / "rates.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_plots_draw_the_fitted_points(self, tmp_path, monkeypatch):
        """rates.svg draws the points of rate_groups, those the fits read:
        before, it also drew the finite norms of a blown-up point."""
        from hydrostat.harness.sweep import rate_groups

        _poison_point(monkeypatch, 0.1, 0.1)
        res = run_sweep(_tiny_sweep_cfg(str(tmp_path)), write_plots=True)
        assert any(r.blowup and math.isfinite(r.value) for r in res.rows)
        svg = (tmp_path / "rates.svg").read_text()
        groups = rate_groups(res.rows)
        assert svg.count("<circle") == sum(len(pts) for pts in groups.values())
        assert all(f">{name}</text>" in svg for name in groups)

    def test_blowup_threshold_reported(self, tmp_path, monkeypatch):
        clean = _values_except(run_sweep(_tiny_sweep_cfg()), eps=0.2)
        _fault_nonlinear(monkeypatch, lambda eps, N: N * np.nan if eps >= 0.2 else N)
        res = run_sweep(_tiny_sweep_cfg(str(tmp_path)))
        assert res.blowup_threshold == pytest.approx(0.4)  # eps + delta
        assert _values_except(res, eps=0.2) == clean
        # the blown-up member has one sample: its norms keep the reason
        blown = {r.norm_name: r for r in res.rows if r.eps == 0.2}
        assert set(blown) == {"EHdelta", "Ez", "EH", "total"}
        for name in ("EHdelta", "Ez", "EH"):
            assert np.isnan(blown[name].value) and blown[name].blowup
            assert blown[name].error[0] == "InsufficientData"
        assert np.isnan(blown["total"].value)
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert sorted(f["norm_name"] for f in failures) == ["EH", "EHdelta", "Ez"]
        assert all(f["eps"] == 0.2 and f["type"] == "InsufficientData"
                   for f in failures)

    def test_large_delta_blowup_keeps_every_norm_row(self, monkeypatch):
        """A pair that blows up after one sample still reports the Stokes
        comparison norm, as NaN with its reason, like the other norms."""
        _fault_nonlinear(monkeypatch, lambda eps, N: N * np.nan)
        base = SimConfig(
            "NS_eps_delta", 8, 8, 8, 2e-3, 0.02,
            recipe="bandlimited_random", seed=5,
        )
        rows = {r.norm_name: r for r in
                run_matched_pair((0.5, 4.0), base, "delta_to_infty")}
        assert set(rows) == {
            "E1_bar_diff", "L4H32_tilde", "L4H32_tilde_stokes", "total",
        }
        for name in ("E1_bar_diff", "L4H32_tilde", "L4H32_tilde_stokes"):
            assert np.isnan(rows[name].value) and rows[name].blowup
            # the references step first, so every norm holds the one sample:
            # before, the two comparison norms had none
            assert rows[name].error == (
                "InsufficientData", "need at least 2 samples to finalize, have 1")

    def test_self_difference_degenerate_split(self):
        """z-independent data: both slots of the large-delta comparison run
        the same 2D flow, so all difference norms are at rounding level."""
        base = SimConfig(
            "NS_eps_delta", 16, 16, 8, 1e-3, 0.02,
            recipe="taylor_green_3d", seed=0,
        )
        rows = run_matched_pair((0.5, 4.0), base, "delta_to_infty")
        vals = {r.norm_name: r.value for r in rows}
        assert vals["L4H32_tilde"] < 1e-11
        assert vals["E1_bar_diff"] < 1e-10

    def test_heat_mode_difference_matches_analytic_profile(self):
        """Single-mode data: the anisotropic run decays while the
        horizontal-viscosity limit is stationary; every accumulated norm has
        a closed form."""
        eps = delta = 0.1
        dt, T = 1e-3, 0.1
        base = SimConfig(
            "NS_eps_delta", 16, 16, 16, dt, T, recipe="heat_mode", seed=0,
        )
        rows = run_matched_pair((eps, delta), base, "eps_delta_to_zero")
        vals = {r.norm_name: r.value for r in rows}

        grid = make_grid(16, 16, 16)
        amp = norm_sobolev(generate_initial_data("heat_mode", 0, grid).v1, 0.0)
        a = delta * PI**2
        ts = np.arange(0, T + dt / 2, dt)
        decay = np.exp(-a * ts) - 1.0
        # EHdelta parts: |V|, |dV/dt| = a e^{-at}, |Delta_delta V| = a |V|
        int_v = np.trapezoid(decay**2, ts)
        int_dv = np.trapezoid((a * np.exp(-a * ts)) ** 2, ts)
        expected_ehd = amp * (
            math.sqrt(int_v) + math.sqrt(int_dv) + a * math.sqrt(int_v)
        )
        assert vals["EHdelta"] == pytest.approx(expected_ehd, rel=1e-10)
        # Ez: multiplier (1+pi^2) on the single vertical mode, sup part
        ez_int = math.sqrt((1 + PI**2) * int_v)
        ez_sup = math.sqrt(1 + PI**2) * abs(decay[-1])
        assert vals["Ez"] == pytest.approx(amp * (ez_int + ez_sup), rel=1e-10)


def _family_points(mode):
    if mode == "gamma_scan":
        return [(e, e ** (g - 2.0), g) for g in (3.0, 4.0) for e in (0.2, 0.1, 0.05)]
    if mode == "delta_to_infty":
        # two points share the delta = 16 references, one has delta = 64 alone
        return [(0.5, 16.0, None), (0.25, 16.0, None), (0.5, 64.0, None)]
    return [(e, e, None) for e in (0.2, 0.1, 0.05)]


def _cells(rows):
    return [(r.mode, r.eps, r.delta, r.gamma, r.norm_name, r.value, r.blowup)
            for r in rows]


class TestMatchedFamily:
    @pytest.mark.parametrize(
        "mode, record_every",
        [("gamma_scan", 1), ("eps_delta_to_zero", 3), ("delta_to_infty", 1)],
    )
    def test_rows_equal_matched_pairs(self, mode, record_every):
        """Sharing the reference lanes (one PE_H run, or the NS2D and Stokes
        runs at one delta) changes no bit of any point's rows; record_every
        = 3 also covers the steps that record nothing, and delta = 64 a
        stiff schedule of two segments."""
        base = SimConfig(
            "NS_eps_delta", 16, 16, 16, 1e-3, 0.02,
            recipe="bandlimited_random", seed=42, record_every=record_every,
        )
        assert [n > 0 for _, n in _stiff_segments(base.t_end, base.dt, 64.0)] == [True] * 2
        points = _family_points(mode)
        family = run_matched_family(points, base, mode)
        assert len(family) == len(points)
        for (eps, delta, gamma), rows in zip(points, family):
            pair = run_matched_pair((eps, delta), base, mode, gamma)
            assert _cells(rows) == _cells(pair)

    @pytest.mark.parametrize("mode", ["eps_delta_to_zero", "gamma_scan", "delta_to_infty"])
    def test_member_blowup_leaves_the_others(self, monkeypatch, mode):
        """A member that blows up mid-run has the rows of its lone run under
        the same fault; the family's other points have their clean rows."""
        base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)
        points = _family_points(mode)
        clean = run_matched_family(points, base, mode)
        eps, delta, gamma = points[1]
        _poison_point(monkeypatch, eps, delta)
        family = run_matched_family(points, base, mode)
        lone = run_matched_pair((eps, delta), base, mode, gamma)
        assert all(r.blowup for r in lone)
        for k, rows in enumerate(family):
            assert _cells(rows) == _cells(lone if k == 1 else clean[k])

    @pytest.mark.parametrize("mode", ["gamma_scan", "delta_to_infty"])
    def test_family_leaves_no_reference_cycle(self, mode):
        """A family's arrays are freed when it returns, not at the next
        cyclic garbage collection, which would raise the peak RSS of a
        process that runs many families."""
        base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)
        gc.collect()
        gc.disable()
        try:
            run_matched_family(_family_points(mode), base, mode)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_family_releases_its_initial_data(self, monkeypatch):
        """The lanes hold band arrays and the grid: by its first observer
        call a family holds its Grid-layout initial data no more."""
        import weakref

        from hydrostat.harness import pairs
        from hydrostat.norms import Energies

        refs, released = [], []

        def generate(*args):
            state = generate_initial_data(*args)
            refs.append(weakref.ref(state))
            return state

        of = Energies.of

        def probe(cls, *args):
            released.append(refs[-1]() is None)
            return of(*args)

        monkeypatch.setattr(pairs, "generate_initial_data", generate)
        monkeypatch.setattr(Energies, "of", classmethod(probe))
        base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)
        mode = "gamma_scan"
        run_matched_family(_family_points(mode), base, mode)
        assert len(refs) == 1 and released and all(released)

    @pytest.mark.parametrize("mode", ["eps_delta_to_zero", "gamma_scan", "delta_to_infty"])
    def test_reference_blowup_stops_every_member(self, monkeypatch, mode):
        """A reference whose nonlinear term turns NaN mid-run, from the sixth
        step of its stepper on, stops every member before it reads that
        step's sample: every norm keeps the five or more samples before it,
        finite and flagged as blown up.  Before, the delta_to_infty members
        read the NaN step and their E1_bar_diff was NaN."""

        def poison(st, N):
            st.calls = getattr(st, "calls", 0) + 1
            return N * np.nan if st.calls > 5 else N

        cls = NavierStokes2DStepper if mode == "delta_to_infty" else PrimitiveStepper
        _fault(monkeypatch, cls, "nonlinear", poison)
        base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)
        points = _family_points(mode)
        family = run_matched_family(points, base, mode)
        rows = [r for point_rows in family for r in point_rows]
        assert len(family) == len(points)
        assert all(r.blowup and r.norm_name != "FAILED" for r in rows)
        assert all(math.isfinite(r.value) for r in rows)

    def test_rows_are_the_same_at_any_jobs(self):
        """Two delta_to_infty families on a pool of two threads give the
        cells of the same call in the calling thread, bit for bit."""
        base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)
        points = _family_points("delta_to_infty")
        pooled = run_matched_family(points, base, "delta_to_infty", jobs=2)
        alone = run_matched_family(points, base, "delta_to_infty", jobs=1)
        assert [_cells(rows) for rows in pooled] == [_cells(rows) for rows in alone]

    def test_jobs_below_one_is_a_config_error(self):
        base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)
        with pytest.raises(ConfigError, match="jobs must be >= 1, got 0"):
            run_matched_family(_family_points("gamma_scan"), base, "gamma_scan", jobs=0)


def _count_nonlinear(monkeypatch) -> dict:
    """Nonlinear evaluations per stepper class, counted from now on."""
    counts: dict = {}

    def count(st, N):
        counts[type(st).__name__] = counts.get(type(st).__name__, 0) + 1
        return N

    for cls in (NavierStokesStepper, PrimitiveStepper, NavierStokes2DStepper):
        _fault(monkeypatch, cls, "nonlinear", count)
    return counts


class TestLockstepRuns:
    """run_simulation and both matched-pair modes share one time loop."""

    BASE = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)  # 10 steps

    def test_nonlinear_evaluations_per_run(self, monkeypatch):
        """One per step; the final sample of a matched run needs one more for
        its time derivative, the final sample of run_simulation none."""
        counts = _count_nonlinear(monkeypatch)
        run_simulation(self.BASE)
        assert counts == {"NavierStokesStepper": 10}

        counts.clear()
        mode = "eps_delta_to_zero"
        run_matched_family(_family_points(mode), self.BASE, mode)
        assert counts == {"PrimitiveStepper": 11, "NavierStokesStepper": 3 * 11}

        counts.clear()
        segments = _stiff_segments(self.BASE.t_end, self.BASE.dt, 64.0)
        assert len(segments) == 2  # the AB2 restart is covered
        n = sum(steps for _, steps in segments)
        # the two points at delta = 64 share one NS2D run
        points = [(0.5, 64.0, None), (0.25, 64.0, None)]
        run_matched_family(points, self.BASE, "delta_to_infty")
        assert counts == {"NavierStokesStepper": 2 * (n + 1),
                          "NavierStokes2DStepper": n + 1}

    @pytest.mark.parametrize(
        "cls, method, poison",
        [
            (NavierStokes2DStepper, "nonlinear", lambda N: N * np.nan),
            (StokesScaledStepper, "advance", lambda S: S + np.inf),
        ],
        ids=["ns2d-nan", "stokes-inf"],
    )
    def test_large_delta_comparison_blowup_flags_the_point(
        self, monkeypatch, cls, method, poison
    ):
        """A blowup of the NS2D or the Stokes run of a delta_to_infty point is
        a blowup of the point, not a silent NaN in its norms."""
        _fault(monkeypatch, cls, method, lambda st, X: poison(X))
        rows = run_matched_pair((0.5, 16.0), self.BASE, "delta_to_infty")
        assert {r.norm_name for r in rows} == {
            "E1_bar_diff", "L4H32_tilde", "L4H32_tilde_stokes", "total",
        }
        assert all(r.blowup for r in rows)

    def test_delta_to_infty_sweep_rejects_record_every(self):
        with pytest.raises(ConfigError, match="record_every"):
            SweepConfig(
                mode="delta_to_infty", base=replace(self.BASE, record_every=2),
                eps_values=(0.5,), delta_values=(4.0,),
            )

    def test_gamma_scan_point_at_most_two_fails_alone(self):
        """A gamma_scan point whose limit is not PE_H gets a FAILED row that
        names its regime; the family's other points run as before."""
        points = [(0.2, 0.2, 3.0), (0.2, 1.0, 2.0), (0.2, 0.2 ** -0.5, 1.5)]
        family = run_matched_family(points, self.BASE, "gamma_scan")
        assert _cells(family[0]) == _cells(
            run_matched_pair((0.2, 0.2), self.BASE, "gamma_scan", 3.0))
        for rows, regime in zip(family[1:], ("full viscosity", "2D Navier-Stokes")):
            assert [r.norm_name for r in rows] == ["FAILED"]
            assert rows[0].error[0] == "ConfigError"
            assert regime in rows[0].error[1]

    def test_gamma_scan_point_without_gamma_is_rejected(self):
        """A gamma_scan point without gamma gets a ConfigError that names
        the missing gamma, as a FAILED row or raised by a lone pair."""
        (rows,) = run_matched_family([(0.2, 0.2, None)], self.BASE, "gamma_scan")
        assert [r.norm_name for r in rows] == ["FAILED"]
        assert rows[0].error == ("ConfigError", "a gamma_scan point needs its gamma")
        with pytest.raises(ConfigError, match="needs its gamma"):
            run_matched_pair((0.2, 0.2), self.BASE, "gamma_scan")

    def test_gamma_scan_point_with_inconsistent_delta_is_rejected(self):
        """A point whose delta is not eps^(gamma-2) is not run at its delta
        under the label of its gamma."""
        (rows,) = run_matched_family([(0.2, 5.0, 3.0)], self.BASE, "gamma_scan")
        assert [r.norm_name for r in rows] == ["FAILED"]
        assert rows[0].error[0] == "InvalidParameter"
        assert "inconsistent with eps**(gamma-2)" in rows[0].error[1]

    def test_gamma_scan_point_whose_delta_overflows_is_rejected(self):
        """A point whose eps**(gamma-2) leaves the float range gets a FAILED
        row that names eps and gamma, not an OverflowError."""
        (rows,) = run_matched_family([(1e200, 1.0, 4.0)], self.BASE, "gamma_scan")
        assert [r.norm_name for r in rows] == ["FAILED"]
        assert rows[0].error[0] == "InvalidParameter"
        assert "eps=1e+200, gamma=4" in rows[0].error[1]

    def test_invalid_delta_to_infty_points_fail_alone(self):
        """A point at delta = inf, 0 or NaN gets a FAILED row whose
        ConfigError names the value; a valid point of the same call runs
        as a lone pair."""
        points = [(0.5, math.inf, None), (0.5, 0.0, None), (0.5, math.nan, None),
                  (0.5, 4.0, None)]
        rows = run_matched_family(points, self.BASE, "delta_to_infty")
        for got, bad in zip(rows, ("delta=inf", "delta=0.0", "delta=nan")):
            assert [r.norm_name for r in got] == ["FAILED"]
            assert got[0].error[0] == "ConfigError" and bad in got[0].error[1]
        assert _cells(rows[3]) == _cells(
            run_matched_pair((0.5, 4.0), self.BASE, "delta_to_infty"))
        with pytest.raises(ConfigError, match="eps=nan"):
            run_matched_pair((math.nan, 4.0), self.BASE, "delta_to_infty")

    def test_delta_to_infty_point_reports_ignored_record_every(self):
        base = replace(self.BASE, record_every=2)
        (rows,) = run_matched_family([(0.5, 4.0, None)], base, "delta_to_infty")
        assert [r.norm_name for r in rows] == ["FAILED"]
        assert rows[0].error[0] == "InvalidParameter"
        assert "record_every" in rows[0].error[1]

    def test_family_warns_once_with_largest_cfl_and_its_point(self, monkeypatch):
        """max |u| is faked to 1000 eps in every anisotropic run, so the
        largest CFL number is the eps = 0.2 point's, at every step."""

        def fake_umax(st, N):
            st.last_umax = 1000.0 * st.eps
            return N

        _fault(monkeypatch, NavierStokesStepper, "nonlinear", fake_umax)
        mode = "eps_delta_to_zero"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_matched_family(_family_points(mode), self.BASE, mode)
        cfl = [str(w.message) for w in caught if "CFL" in str(w.message)]
        expected = self.BASE.dt * 1000.0 * 0.2 * make_grid(8, 8, 8).kmax
        assert len(cfl) == 1
        assert f"CFL number {expected:.2f} (at t=0, eps=0.2, delta=0.2)" in cfl[0]

    def test_sweep_of_two_families_warns_once(self, monkeypatch):
        """max |u| is faked to 1000 eps in every anisotropic run of a sweep
        of two delta_to_infty families: one warning names the largest CFL
        number, at delta = 64, whose schedule ends on the full dt.  Before,
        each family warned."""

        def fake_umax(st, N):
            st.last_umax = 1000.0 * st.eps
            return N

        _fault(monkeypatch, NavierStokesStepper, "nonlinear", fake_umax)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(_tiny_sweep_cfg(mode="delta_to_infty"))
        cfl = [str(w.message) for w in caught if "CFL" in str(w.message)]
        expected = self.BASE.dt * 1000.0 * 0.5 * make_grid(8, 8, 8).kmax
        assert len(cfl) == 1
        assert f"CFL number {expected:.2f} (at t=" in cfl[0]
        assert "eps=0.5, delta=64)" in cfl[0]

    def test_large_dt_family_warns_once(self):
        base = SimConfig("NS_eps_delta", 8, 8, 8, 0.5, 1.0, seed=5)
        mode = "gamma_scan"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_matched_family(_family_points(mode), base, mode)
        cfl = [str(w.message) for w in caught if "CFL" in str(w.message)]
        assert len(cfl) == 1 and "exceeds 0.5" in cfl[0]


def _load_tracer():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


class TestBenchmarkTracer:
    def test_every_entry_point_exists(self):
        """The benchmark's tracer wraps program functions and stepper methods
        by name; one that is renamed away would null its per-layer metrics
        without an error."""
        t = _load_tracer().Tracer()
        t.install()
        try:
            assert t.missing == []
        finally:
            t.uninstall()

    @pytest.mark.parametrize("run", ["family", "ns2d"])
    def test_traced_runs_count_their_transforms(self, run):
        """The tracer reads the grid sizes of every transform call to count
        its points; on the steppers' band layouts (a 3D band, the NS2D
        plane) it still counts them."""
        from hydrostat.harness import pairs
        from hydrostat import solvers

        t = _load_tracer().Tracer()
        t.install()
        try:
            if run == "family":
                base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.01, seed=5)
                pairs.run_matched_family(_family_points("gamma_scan"), base, "gamma_scan")
            else:
                solvers.run_simulation(SimConfig("NS2D", 16, 16, 8, 1e-3, 0.005, seed=2))
        finally:
            t.uninstall()
        metrics = t.layer_metrics()
        for name in ("spectral.to_phys.calls", "spectral.to_phys.points",
                     "spectral.to_spec.calls", "spectral.to_spec.points"):
            assert metrics[name] is not None and math.isfinite(metrics[name])
            assert metrics[name] > 0, name
        # a transform call whose points the tracer could not read is not
        # counted, so every call must have counted some
        calls = [s for s in t.spans if s[3] in ("spectral.to_phys", "spectral.to_spec")]
        assert calls and all(s[7] is not None and s[7][0] > 0 for s in calls)
        # the steppers' advection is the kernel the tracer wraps
        assert metrics["fields.advect.calls"] > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("system, recipe, per_step, by_recipe", [
        ("PE_H", "bandlimited_random", 2, 1),
        ("NS_eps_delta", "bandlimited_random", 1, 1),
        ("NS2D", "bandlimited_random", 2, 1),
        ("StokesScaled", "heat_mode", 1, 0),
    ])
    def test_every_hydrostatic_projection_is_traced(self, system, recipe, per_step,
                                                   by_recipe):
        """fields._raw_project_hydro is the one hydrostatic projection, so a
        traced run opens a fields.project_hydro span for each: one per step
        in constrain, one more per step in the nonlinear term of PE and
        NS2D, and one in the bandlimited_random recipe."""
        from hydrostat import solvers

        n = 5
        t = _load_tracer().Tracer()
        t.install()
        try:
            solvers.run_simulation(SimConfig(system, 8, 8, 8, 1e-3, n * 1e-3,
                                             recipe=recipe, seed=3))
        finally:
            t.uninstall()
        spans = [s for s in t.spans if s[3] == "fields.project_hydro"]
        assert len(spans) == per_step * n + by_recipe


class TestCli:
    def test_verify_bootstrap_suite(self, capsys):
        from hydrostat.harness.cli import main

        assert main(["verify", "--suite", "bootstrap"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_names_the_exception_that_stopped_a_suite(self, monkeypatch, capsys):
        """A NaN NS2D nonlinear term stops the oracle and the invariant
        suites at their first NS2D check: each prints one FAIL line naming
        the blowup, the bootstrap suite still runs, and verify exits 1.
        Before, the check printed "L2 error nan", which gave no reason."""
        from hydrostat.harness.cli import main

        _fault(monkeypatch, NavierStokes2DStepper, "nonlinear",
               lambda st, N: N * np.nan)
        assert main(["verify", "--suite", "all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("[FAIL]")] == [
            "[FAIL] oracles: BlowupDetected: blowup at t=0.0001: "
            "non-finite coefficients",
            "[FAIL] invariants: BlowupDetected: blowup at t=0.001: "
            "non-finite coefficients",
        ]
        assert lines[-1] == "10/12 checks passed"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "seed must be >= 0, got -1"),
        ("recipe = nope", "unknown initial-data recipe 'nope'"),
        ("nz = 3", "grid sizes must be even and >= 4, got 3"),
    ])
    def test_data_that_cannot_be_drawn_are_an_error_line(self, tmp_path, capsys,
                                                         command, line, message):
        """Before, seed = -1 ended run in numpy's ValueError traceback, and a
        sweep of any of the three wrote only FAILED rows, printed a blowup
        threshold and exited 0.  make_grid and SimConfig share one size
        check, so a sweep rejects the grid sizes that run rejects."""
        from hydrostat.harness.cli import main

        kept = [k for k in SWEEP_SIM.splitlines() if not k.startswith(line.split()[0])]
        sweep = ["mode = eps_delta_to_zero", "eps_values = 0.2"] * (command == "sweep")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(kept + [line] + sweep) + "\n")
        argv = ["--out", str(tmp_path / "out")] if command == "sweep" else []
        assert main([command, "--config", str(cfg)] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_run_and_snapshot(self, tmp_path, capsys):
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sim.cfg"
        cfg.write_text(GOOD_SIM)
        snap = tmp_path / "final.hsn"
        assert main(["run", "--config", str(cfg), "--snapshot-out", str(snap)]) == 0
        st = load_snapshot(str(snap))
        assert st.time == pytest.approx(0.01)

    def test_run_reads_its_snapshot_back(self, tmp_path, monkeypatch, capsys):
        """run --snapshot-out reads the file back: a field that differs from
        the final state by one bit is an error line and exit status 2.
        Before, the run reported the snapshot as written and exited 0."""
        from hydrostat.harness import snapshots
        from hydrostat.harness.cli import main

        save = snapshots.save_snapshot

        def save_off_by_a_bit(state, path):
            v1 = SpectralField(state.grid, state.v1.coeffs * (1 + 2**-52), EVEN)
            save(VelocityState(v1, state.v2, state.w, state.time), path)

        monkeypatch.setattr(snapshots, "save_snapshot", save_off_by_a_bit)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(GOOD_SIM)
        snap = tmp_path / "final.hsn"
        assert main(["run", "--config", str(cfg), "--snapshot-out", str(snap)]) == 2
        out, err = capsys.readouterr()
        assert "snapshot written" not in out
        assert err == f"error: {snap} does not read back bit for bit in v1\n"

    @pytest.mark.parametrize("line", ["mode = gamma_scan", "eps_values = 0.2, 0.1",
                                      "delta_values = 1", "gamma_values = 3",
                                      "jobs = 4", "timing = true"])
    def test_run_rejects_a_key_only_a_sweep_reads(self, tmp_path, capsys, line):
        """Before, run dropped such keys without a word and exited 0."""
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sim.cfg"
        cfg.write_text(GOOD_SIM + line + "\n")
        assert main(["run", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        key = line.split()[0]
        assert out == "" and err == f"error: only a sweep reads ['{key}']\n"

    @pytest.mark.parametrize("system, extra, l2, h1", [
        ("NS_eps_delta", "eps = 0.3\ndelta = 0.2\nrecipe = bandlimited_random\n",
         9.853311192e-01, 9.957410733e-01),
        ("PE_H", "recipe = bandlimited_random\n", 9.853381959e-01, 9.958087113e-01),
        ("StokesScaled", "recipe = heat_mode\ndelta = 2.0\n",
         2.489813608e-01, 8.208687174e-01),
    ])
    def test_run_prints_the_norms_of_the_state(self, tmp_path, capsys, system, extra,
                                               l2, h1):
        """The record's l2 and h1 are those of (v, eps w) for NS_eps_delta,
        of (v, w) for StokesScaled and of v for PE_H, as printed when NS and
        Stokes stepped three components.  A record of v alone reads
        l2=9.853265435e-01 for NS_eps_delta."""
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"system = {system}\nnx = 8\nny = 8\nnz = 8\ndt = 1e-3\n"
                       f"t_end = 0.01\nseed = 5\n{extra}")
        assert main(["run", "--config", str(cfg)]) == 0
        got = re.search(r"l2=(\S+) h1=(\S+)", capsys.readouterr().out)
        assert float(got[1]) == pytest.approx(l2, rel=1e-12)
        assert float(got[2]) == pytest.approx(h1, rel=1e-12)

    def test_sweep_and_fit(self, tmp_path, capsys):
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "system = NS_eps_delta\nnx = 8\nny = 8\nnz = 8\n"
            "dt = 2e-3\nt_end = 0.02\nseed = 5\n"
            "mode = eps_delta_to_zero\neps_values = 0.2, 0.1, 0.05\n"
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir), "--plots"]) == 0
        csv_path = out_dir / "results.csv"
        assert csv_path.exists() and (out_dir / "rates.svg").exists()
        assert main(["fit", "--csv", str(csv_path), "--norm", "total"]) == 0
        out = capsys.readouterr().out
        assert "slope=" in out

    @pytest.mark.parametrize(
        "argv, expect",
        [([], {"jobs": 2, "timing": False}),
         (["--jobs", "3"], {"jobs": 3, "timing": False}),
         (["--timing"], {"jobs": 2, "timing": True})],
    )
    def test_sweep_flags_override_the_file_only_when_given(
        self, tmp_path, monkeypatch, argv, expect
    ):
        """The config file's jobs and timing stand unless a flag is given."""
        from hydrostat.harness import sweep
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_SIM + "mode = eps_delta_to_zero\neps_values = 0.2\n"
                       "jobs = 2\ntiming = false\n")
        seen = []
        monkeypatch.setattr(sweep, "run_sweep",
                            lambda c, write_plots: seen.append(c) or sweep.SweepResult())
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)] + argv) == 0
        assert {k: getattr(seen[0], k) for k in expect} == expect
        assert seen[0].out_dir == str(tmp_path)

    def test_sweep_rejects_jobs_below_one(self, tmp_path, capsys):
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_SIM + "mode = eps_delta_to_zero\neps_values = 0.2\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                     "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_sweep_whose_delta_overflows_is_an_error_line(self, tmp_path, capsys):
        """Before, the OverflowError of eps**(gamma-2) ended in a traceback."""
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_SIM + "mode = gamma_scan\neps_values = 1e200\n"
                       "gamma_values = 4\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: delta = eps**(gamma-2) leaves the float range at eps=1e+200, "
            "gamma=4\n")

    @pytest.mark.parametrize("mode, lists, blown, threshold", [
        ("gamma_scan", "eps_values = 0.2, 0.1, 0.05\ngamma_values = 3\n", 0.2, 0.2),
        ("delta_to_infty", "eps_values = 0.5, 0.25\ndelta_values = 16, 64\n", 0.5, 16),
    ], ids=["gamma_scan", "delta_to_infty"])
    def test_blowup_threshold_is_on_the_fit_abscissa(
        self, tmp_path, monkeypatch, capsys, mode, lists, blown, threshold
    ):
        """The threshold is the least fit abscissa (pairs.MODES) of the
        blown-up points: eps for gamma_scan, delta for delta_to_infty.
        Before, it was eps + delta in every mode."""
        from hydrostat.harness.cli import main

        _fault_nonlinear(monkeypatch, lambda eps, N: N * np.nan if eps == blown else N)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_SIM + f"mode = {mode}\n{lists}")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"observed blowup threshold: fit abscissa >= {threshold:g}")

    @pytest.mark.parametrize("mode, lists", [
        # eps + delta is exactly 0.4 at all three points
        ("eps_delta_to_zero", "eps_values = 0.1, 0.2, 0.3\ndelta_values = 0.3, 0.2, 0.1\n"),
        ("delta_to_infty", "eps_values = 0.5, 0.25, 0.125\ndelta_values = 16\n"),
    ], ids=["eps_delta_to_zero", "delta_to_infty"])
    def test_a_rate_at_one_abscissa_is_skipped(self, tmp_path, capsys, mode, lists):
        """A sweep whose points share their fit abscissa fits nothing and
        writes its files, and fit of its CSV is an error line: before, both
        ended in a ZeroDivisionError traceback."""
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_SIM + f"mode = {mode}\n{lists}")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == f"wrote {out_dir}/results.csv (12 rows)\n"
        assert (out_dir / "failures.json").read_text() == "[]\n"
        assert main(["fit", "--csv", str(out_dir / "results.csv"), "--norm", "total"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: all 3 points are at one abscissa")

    def test_sweep_of_a_repeated_point_is_an_error(self, tmp_path, capsys):
        """Before, it ran three identical points and wrote 12 rows."""
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_SIM + "mode = gamma_scan\neps_values = 0.2, 0.2, 0.2\n"
                       "gamma_values = 3\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not out_dir.exists()
        assert err == "error: (eps, delta, gamma) = (0.2, 0.2, 3.0) is repeated\n"

    def test_bad_config_exit_code(self, tmp_path):
        from hydrostat.harness.cli import main

        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("system, extra, message", [
        ("NS2D", "delta = 5.0", "NS2D has no vertical viscosity"),
        ("PE_delta", "eps = 0.01\ndelta = 0.5", "PE_delta reads no eps"),
    ])
    def test_run_rejects_a_parameter_the_system_never_reads(self, tmp_path, capsys,
                                                            system, extra, message):
        """Before, each ran and printed the norms of a run at delta 0 (at
        eps 1 for PE_delta)."""
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"system = {system}\nnx = 8\nny = 8\nnz = 8\ndt = 1e-3\n"
                       f"t_end = 0.01\n{extra}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

    def test_fit_per_gamma_equals_the_sweeps_fits(self, tmp_path, capsys):
        """fit of a gamma_scan CSV fits each gamma on its own, as the sweep
        does: before, it fitted both gammas as one line."""
        from hydrostat.harness.cli import main

        res = run_sweep(SweepConfig(
            mode="gamma_scan", base=SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5),
            eps_values=(0.2, 0.1, 0.05), gamma_values=(3.0, 4.0), out_dir=str(tmp_path)))
        assert main(["fit", "--csv", str(tmp_path / "results.csv"), "--norm", "total"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"gamma={key[0]:g} slope={s:.6f} intercept={i:.6f} r2={r2:.6f} n=3"
            for key, (s, i, r2) in sorted(res.fits.items(), key=str)
            if key[1] == "total"
        ]

    def test_fit_rejects_a_row_of_an_unknown_mode(self, tmp_path, capsys):
        """Before, such rows were fitted against eps + delta."""
        from hydrostat.harness.cli import main
        from hydrostat.harness.sweep import CSV_HEADER, parse_csv

        text = CSV_HEADER + "\n" + "".join(
            f"bogus,{e},{e},,total,{e},0,0\n" for e in (0.2, 0.1, 0.05))
        with pytest.raises(FormatError, match="line 2: unknown mode 'bogus'"):
            parse_csv(text)
        (tmp_path / "results.csv").write_text(text)
        assert main(["fit", "--csv", str(tmp_path / "results.csv"), "--norm", "total"]) == 2
        assert "unknown mode 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--config", "missing.cfg"], "No such file"),
        (["sweep", "--config", "missing.cfg", "--out", "out"], "No such file"),
        (["fit", "--csv", "missing.csv", "--norm", "total"], "No such file"),
        (["fit", "--csv", "other.csv", "--norm", "total"],
         "not a sweep CSV: its header is not mode,eps,delta"),
    ])
    def test_missing_or_foreign_input_is_an_error_line(self, tmp_path, monkeypatch,
                                                       capsys, argv, message):
        """A missing file or a CSV without the sweep's columns exits with
        status 2 and an error line, as an invalid config does; before, each
        ended in a traceback."""
        from hydrostat.harness.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "other.csv").write_text("a,b\n1,2\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_wall_ms_zero_by_default(self, tmp_path):
        run_sweep(_tiny_sweep_cfg(str(tmp_path)))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0].endswith("wall_ms")
        assert all(line.endswith(",0") for line in lines[1:])
