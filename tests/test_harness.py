"""Harness: initial data, rate fitting, persistence, config, sweep, CLI."""
import json
import math
import os

import numpy as np
import pytest

from hydrostat.errors import (
    ConfigError,
    FormatError,
    InsufficientData,
    InvalidParameter,
)
from hydrostat.fields import divergence_defect
from hydrostat.harness.config import (
    load_config,
    parse_config_text,
    sim_config_from_dict,
    sweep_config_from_dict,
)
from hydrostat.harness.initial_data import generate_initial_data
from hydrostat.harness.pairs import run_matched_family, run_matched_pair
from hydrostat.harness.snapshots import load_snapshot, save_snapshot
from hydrostat.harness.sweep import SweepConfig, fit_rate, run_sweep
from hydrostat.norms import norm_sobolev
from hydrostat.solvers import SimConfig
from hydrostat.spectral import make_grid, parity_defect

PI = np.pi


class TestInitialData:
    def test_heat_mode_shape(self, grid16):
        st = generate_initial_data("heat_mode", 0, grid16)
        # single vertical cosine in the first component, w = 0
        c = st.v1.coeffs
        assert abs(c[0, 0, 1]) > 0
        other = c.copy()
        other[0, 0, 1] = other[0, 0, grid16.nz - 1] = 0
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
        assert divergence_defect(st) < 1e-11
        for f in st.components():
            assert parity_defect(f) == 0.0
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
        with pytest.raises(InsufficientData):
            fit_rate([(0.1, 1.0), (0.05, float("nan")), (0.025, 0.2)])
        # blowups dropped, then too few points remain
        with pytest.raises(InsufficientData):
            fit_rate(
                [(0.1, 1.0), (0.05, float("nan")), (0.025, 0.2)], drop_blowups=True
            )

    def test_drop_blowups_keeps_enough(self):
        pts = [(0.2, 0.6), (0.1, 0.3), (0.05, 0.15), (0.025, float("inf"))]
        slope, _, _ = fit_rate(pts, drop_blowups=True)
        assert slope == pytest.approx(1.0, abs=1e-12)


class TestSnapshots:
    def _state(self, grid):
        return generate_initial_data("bandlimited_random", 3, grid).with_time(0.625)

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

    def test_sweep_config(self):
        text = GOOD_SIM + "mode = eps_delta_to_zero\neps_values = 0.2, 0.1, 0.05\n"
        d = parse_config_text(text)
        cfg = sweep_config_from_dict(d)
        assert cfg.mode == "eps_delta_to_zero"
        assert cfg.eps_values == (0.2, 0.1, 0.05)
        assert cfg.points() == [(0.2, 0.2, None), (0.1, 0.1, None), (0.05, 0.05, None)]

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


def _tiny_sweep_cfg(out_dir=None, jobs=1):
    return SweepConfig(
        mode="eps_delta_to_zero",
        base=SimConfig(
            "NS_eps_delta", 8, 8, 8, 2e-3, 0.02,
            recipe="bandlimited_random", seed=5,
        ),
        eps_values=(0.2, 0.1, 0.05),
        out_dir=out_dir,
        jobs=jobs,
    )


def _fault_nonlinear(monkeypatch, fault):
    """Pass the nonlinear term of every anisotropic run of a family through
    fault(eps, N), which may raise or poison it."""
    import hydrostat.harness.pairs as pairs_mod

    class Faulty(pairs_mod.NavierStokesStepper):
        def nonlinear(self, U):
            return fault(self.eps, super().nonlinear(U))

    monkeypatch.setattr(pairs_mod, "NavierStokesStepper", Faulty)


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

    def test_csv_deterministic_across_jobs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_sweep(_tiny_sweep_cfg(str(d1), jobs=1))
        run_sweep(_tiny_sweep_cfg(str(d2), jobs=2))
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

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
        assert failures[0]["type"] == "RuntimeError"
        assert failures[0]["message"] == "synthetic failure"
        # the other members of the family are unaffected
        assert _values_except(res, eps=0.1) == clean

    def test_plots_written(self, tmp_path):
        run_sweep(_tiny_sweep_cfg(str(tmp_path)), write_plots=True)
        svg = (tmp_path / "rates.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_blowup_threshold_reported(self, monkeypatch):
        clean = _values_except(run_sweep(_tiny_sweep_cfg()), eps=0.2)
        _fault_nonlinear(monkeypatch, lambda eps, N: N * np.nan if eps >= 0.2 else N)
        res = run_sweep(_tiny_sweep_cfg())
        assert res.blowup_threshold == pytest.approx(0.4)  # eps + delta
        assert _values_except(res, eps=0.2) == clean

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
    return [(e, e, None) for e in (0.2, 0.1, 0.05)]


def _cells(rows):
    return [(r.mode, r.eps, r.delta, r.gamma, r.norm_name, r.value, r.blowup)
            for r in rows]


class TestMatchedFamily:
    @pytest.mark.parametrize(
        "mode, record_every", [("gamma_scan", 1), ("eps_delta_to_zero", 3)]
    )
    def test_rows_equal_matched_pairs(self, mode, record_every):
        """Sharing one PE_H reference changes no bit of any point's rows;
        record_every = 3 also covers the steps that record nothing."""
        base = SimConfig(
            "NS_eps_delta", 16, 16, 16, 1e-3, 0.02,
            recipe="bandlimited_random", seed=42, record_every=record_every,
        )
        points = _family_points(mode)
        family = run_matched_family(points, base, mode)
        assert len(family) == len(points)
        for (eps, delta, gamma), rows in zip(points, family):
            pair = run_matched_pair((eps, delta), base, mode, gamma)
            assert _cells(rows) == _cells(pair)

    def test_reference_blowup_stops_every_member(self, monkeypatch):
        import hydrostat.harness.pairs as pairs_mod

        class Blowing(pairs_mod.PrimitiveStepper):
            def nonlinear(self, V):
                return super().nonlinear(V) * np.nan

        monkeypatch.setattr(pairs_mod, "PrimitiveStepper", Blowing)
        base = SimConfig("NS_eps_delta", 8, 8, 8, 2e-3, 0.02, seed=5)
        mode = "eps_delta_to_zero"
        family = run_matched_family(_family_points(mode), base, mode)
        rows = [r for point_rows in family for r in point_rows]
        assert len(family) == 3
        assert all(r.blowup and r.norm_name != "FAILED" for r in rows)


class TestCli:
    def test_verify_bootstrap_suite(self, capsys):
        from hydrostat.harness.cli import main

        assert main(["verify", "--suite", "bootstrap"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_run_and_snapshot(self, tmp_path, capsys):
        from hydrostat.harness.cli import main

        cfg = tmp_path / "sim.cfg"
        cfg.write_text(GOOD_SIM)
        snap = tmp_path / "final.hsn"
        assert main(["run", "--config", str(cfg), "--snapshot-out", str(snap)]) == 0
        st = load_snapshot(str(snap))
        assert st.time == pytest.approx(0.01)

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

    def test_bad_config_exit_code(self, tmp_path):
        from hydrostat.harness.cli import main

        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_wall_ms_zero_by_default(self, tmp_path):
        run_sweep(_tiny_sweep_cfg(str(tmp_path)))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0].endswith("wall_ms")
        assert all(line.endswith(",0") for line in lines[1:])
