"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py`; captured stdout for passing
tests is shown in the -rA summary.  Criterion 3 is split per gamma value so
a failure localizes.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from hydrostat.harness.pairs import run_matched_family
from hydrostat.harness.sweep import SweepConfig, fit_rate, run_sweep
from hydrostat.solvers import SimConfig

GRID = 32
DT = 1e-3
T_END = 0.25
SEED = 42


def _base(dt=DT):
    return SimConfig(
        system="NS_eps_delta", nx=GRID, ny=GRID, nz=GRID, dt=dt, t_end=T_END,
        recipe="bandlimited_random", seed=SEED,
    )


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")


@pytest.fixture(scope="module")
def hydrostatic_rate_rows():
    eps_values = (0.2, 0.1, 0.05, 0.025)
    family = run_matched_family(
        [(e, e, None) for e in eps_values], _base(), "eps_delta_to_zero"
    )
    return {e: {r.norm_name: r for r in got} for e, got in zip(eps_values, family)}


def test_criterion_1_rate_hydrostatic_limit(hydrostatic_rate_rows):
    """Difference norms against the horizontal-viscosity limit shrink with
    slope >= 0.8 in (eps + delta) for eps = delta -> 0."""
    pts = []
    for e, rows in hydrostatic_rate_rows.items():
        assert not rows["total"].blowup
        pts.append((e + e, rows["total"].value))
    slope, intercept, r2 = fit_rate(pts)
    detail = f"slope={slope:.4f} (need >= 0.8), r2={r2:.5f}, values=" + ", ".join(
        f"{h:g}:{v:.3e}" for h, v in pts
    )
    _report("1 hydrostatic-limit rate", slope >= 0.8, detail)
    assert slope >= 0.8, detail


def test_criterion_2_large_delta_bound():
    """Barotropic/baroclinic comparison: value nonincreasing in delta,
    value * delta^{1/4} bounded by 2x its delta=16 level, uniformly in eps."""
    deltas = (16.0, 64.0, 256.0, 1024.0)
    # one call: the two eps values at each delta share its NS2D and Stokes runs
    points = [(eps, d, None) for eps in (0.5, 0.25) for d in deltas]
    totals = {0.5: {}, 0.25: {}}
    family = run_matched_family(points, _base(), "delta_to_infty")
    for (eps, d, _), got in zip(points, family):
        rows = {r.norm_name: r for r in got}
        assert "total" in rows, got  # not a FAILED point
        assert not rows["total"].blowup
        totals[eps][d] = rows["total"].value
    seq = [totals[0.5][d] for d in deltas]
    nonincreasing = all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
    scaled = {d: totals[0.5][d] * d**0.25 for d in deltas}
    bound = 2.0 * scaled[16.0]
    bounded = max(scaled.values()) <= bound
    uniform = all(
        abs(totals[0.25][d] - totals[0.5][d]) <= 0.10 * totals[0.5][d]
        for d in deltas
    )
    detail = (
        f"values={[f'{v:.3e}' for v in seq]}, scaled="
        f"{[f'{scaled[d]:.3e}' for d in deltas]}, bound={bound:.3e}, "
        f"eps-uniformity max dev="
        f"{max(abs(totals[0.25][d] - totals[0.5][d]) / totals[0.5][d] for d in deltas):.2e}"
    )
    ok = nonincreasing and bounded and uniform
    _report("2 large-delta bound", ok, detail)
    assert nonincreasing, f"values increased in delta: {detail}"
    assert bounded, f"scaled values exceed 2x the delta=16 level: {detail}"
    assert uniform, f"eps=0.25 deviates more than 10%: {detail}"


SLOPE_TOL = 0.25


def _gamma_rates(gamma: float) -> tuple[float, float]:
    """(expected, floor) convergence rates in eps of the gamma scan.

    With delta = eps^(gamma-2), the paper's estimate bounds the difference
    by O(eps + delta): an upper bound on the error, so min(gamma-2, 1) is a
    floor on the rate, not its value.  In this parity class the vertical
    velocity is slaved to the horizontal pair through incompressibility.
    The eps-residual of the vertical equation is O(eps) in the raw F_z of
    diff_rhs_F and reaches the horizontal dynamics only through the scaled
    projection, whose vertical wavevector kz/eps turns it into O(eps^2); the
    horizontal forcing is exactly delta * d_zz v.  The difference system is
    therefore forced at O(delta + eps^2), and for smooth data the rate is
    min(gamma-2, 2).  TestDiffRhs in test_fields.py checks these orders
    directly, without a rate fit.
    """
    return min(gamma - 2.0, 2.0), min(gamma - 2.0, 1.0)


GAMMA_EPS = (0.2, 0.1, 0.05)


def _gamma_totals(gamma: float) -> dict[float, float]:
    family = run_matched_family(
        [(e, e ** (gamma - 2.0), gamma) for e in GAMMA_EPS], _base(), "gamma_scan"
    )
    return {
        e: {r.norm_name: r.value for r in got}["total"]
        for e, got in zip(GAMMA_EPS, family)
    }


def _gamma_slope(gamma: float, totals: dict[float, float]) -> tuple[float, str]:
    pts = [(e, totals[e]) for e in GAMMA_EPS]
    slope, _, r2 = fit_rate(pts)
    return slope, f"gamma={gamma:g}: slope={slope:.4f}, r2={r2:.5f}, points=" + ", ".join(
        f"{h:g}:{v:.3e}" for h, v in pts
    )


def _check_gamma_regime(
    criterion: str, gamma: float, totals: dict[float, float]
) -> None:
    """Fitted slope within SLOPE_TOL of the expected rate and no more than
    SLOPE_TOL below the paper's floor."""
    expected, floor = _gamma_rates(gamma)
    slope, detail = _gamma_slope(gamma, totals)
    detail += (
        f"; expected rate {expected:g} (need |slope - {expected:g}| <= {SLOPE_TOL}),"
        f" floor {floor:g} (need slope >= {floor - SLOPE_TOL:g})"
    )
    centred = abs(slope - expected) <= SLOPE_TOL
    above_floor = slope >= floor - SLOPE_TOL
    _report(criterion, centred and above_floor, detail)
    assert above_floor, f"slope below the paper's floor: {detail}"
    assert centred, f"slope off the expected rate: {detail}"


def test_criterion_3_gamma_regime_slope_gamma3(hydrostatic_rate_rows):
    """gamma = 3 (delta = eps): slope in [0.75, 1.25] around the rate
    min(gamma-2, 2) = 1, which here equals the paper's floor.

    Its points (e, e ** 1.0 = e) are criterion 1's first three, and the rows
    of a family member do not depend on its family or its mode's name
    (TestMatchedFamily), so it reads them from criterion 1's runs."""
    totals = {e: hydrostatic_rate_rows[e]["total"].value for e in GAMMA_EPS}
    _check_gamma_regime("3a gamma=3 regime", 3.0, totals)


def test_criterion_3_gamma_regime_slope_gamma4():
    """gamma = 4 (delta = eps^2): slope in [1.75, 2.25] around the rate
    min(gamma-2, 2) = 2, and at least 0.75, the paper's floor
    min(gamma-2, 1) = 1 less the tolerance (see _gamma_rates)."""
    _check_gamma_regime("3b gamma=4 regime", 4.0, _gamma_totals(4.0))


def test_criterion_4_exact_solution_oracles():
    """Taylor-Green, heat-mode, and scaled-Stokes oracles at their stated
    tolerances."""
    from hydrostat.harness.verify import oracle_suite

    results = oracle_suite()
    for r in results:
        print("  " + r.line())
    ok = all(r.passed for r in results)
    _report("4 exact-solution oracles", ok, f"{sum(r.passed for r in results)}/{len(results)} checks")
    assert ok, [r.line() for r in results if not r.passed]


def test_criterion_5_invariant_suite():
    """Divergence, parity, advection neutrality, energy balance, norm
    embedding ordering, barotropic Parseval identity."""
    from hydrostat.harness.verify import invariant_suite

    results = invariant_suite()
    for r in results:
        print("  " + r.line())
    ok = all(r.passed for r in results)
    _report("5 invariant suite", ok, f"{sum(r.passed for r in results)}/{len(results)} checks")
    assert ok, [r.line() for r in results if not r.passed]


def test_criterion_6_bootstrap_suite():
    """Certifier arithmetic, 1000 conforming + 1000 adversarial functions,
    continuation-schedule example; must finish within 30 s."""
    from hydrostat.harness.verify import bootstrap_suite

    t0 = time.perf_counter()
    results = bootstrap_suite()
    elapsed = time.perf_counter() - t0
    for r in results:
        print("  " + r.line())
    # the wall time varies from run to run, so it stays off the ACCEPTANCE line
    print(f"  bootstrap suite wall time {elapsed:.1f}s")
    ok = all(r.passed for r in results) and elapsed < 30.0
    _report("6 bootstrap suite", ok,
            f"{sum(r.passed for r in results)}/{len(results)} checks, time limit 30s")
    assert ok


def test_criterion_7_determinism_and_persistence(tmp_path):
    """Repeated sweeps are byte-identical; snapshots round-trip bit-exactly."""
    import numpy as np

    from hydrostat.harness.initial_data import generate_initial_data
    from hydrostat.harness.snapshots import load_snapshot, save_snapshot
    from hydrostat.spectral import make_grid

    cfg_a = SweepConfig(
        mode="eps_delta_to_zero",
        base=SimConfig("NS_eps_delta", 16, 16, 16, 1e-3, 0.02, seed=SEED),
        eps_values=(0.2, 0.1, 0.05),
        out_dir=str(tmp_path / "a"),
        jobs=1,
    )
    cfg_b = SweepConfig(
        mode="eps_delta_to_zero",
        base=SimConfig("NS_eps_delta", 16, 16, 16, 1e-3, 0.02, seed=SEED),
        eps_values=(0.2, 0.1, 0.05),
        out_dir=str(tmp_path / "b"),
        jobs=2,
    )
    run_sweep(cfg_a)
    run_sweep(cfg_b)
    csv_a = (tmp_path / "a" / "results.csv").read_bytes()
    csv_b = (tmp_path / "b" / "results.csv").read_bytes()
    identical = csv_a == csv_b

    grid = make_grid(16, 16, 16)
    st = replace(generate_initial_data("bandlimited_random", SEED, grid), time=1.5)
    p1 = tmp_path / "s1.hsn"
    save_snapshot(st, str(p1))
    back = load_snapshot(str(p1))
    roundtrip = (
        np.array_equal(back.v1.coeffs, st.v1.coeffs)
        and np.array_equal(back.v2.coeffs, st.v2.coeffs)
        and np.array_equal(back.w.coeffs, st.w.coeffs)
        and back.time == st.time
    )
    ok = identical and roundtrip
    _report("7 determinism & persistence", ok,
            f"csv byte-identical={identical}, snapshot bit-exact={roundtrip}")
    assert ok
