"""Curated verification suites: exact-solution oracles, structural
invariants, and the quadratic-inequality certification checks.

Each check returns a CheckResult; the CLI prints one line per check and the
acceptance tests assert that whole suites pass.  Tolerances here are the
acceptance tolerances, pinned once.  Every check that steps a system runs it
through solvers.run_lanes (_run), the time loop of every run and sweep, and
audits its steps in the lane's observer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bootstrap import (
    BudgetFunctions,
    SampledFunction,
    certify_exp_quadratic_bound,
    certify_quadratic_bound,
    continuation_schedule,
)
from ..fields import (
    VelocityState,
    _raw_div_eps_defect,
    _raw_with_w,
    barotropic_split,
)
from ..norms import norm_l2_barotropic, norm_sobolev
from ..solvers import SYSTEMS, run_lanes, system_lane
from ..spectral import (
    EVEN,
    ODD,
    _raw_inner,
    _raw_parity_project,
    _raw_wsum,
    field_from_function,
    make_grid,
    zero_field,
)
from .initial_data import generate_initial_data


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _run(system, state, dt, n, eps=1.0, delta=0.0, **kw):
    """The (v1, v2, w) coefficients on state's grid after n steps of system
    from state, one lane (kw: its observe) of solvers.run_lanes; raises the
    exception that stopped it."""
    grid, lane = state.grid, system_lane(system, state, eps, delta, **kw)
    del state  # the lane holds its band state and the grid
    run_lanes([lane], [(dt, n)], grid.kmax)
    if lane.failure is not None:
        raise lane.failure
    return SYSTEMS[system].unpack(grid, lane.U)


def _taylor_green_pair(grid):
    v1 = field_from_function(
        grid, lambda x, y, z: np.sin(np.pi * x) * np.cos(np.pi * y), EVEN
    )
    v2 = field_from_function(
        grid, lambda x, y, z: -np.cos(np.pi * x) * np.sin(np.pi * y), EVEN
    )
    return v1, v2


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def check_taylor_green_2d(nxy: int = 64, dt: float = 1e-4, T: float = 0.1) -> CheckResult:
    """2D Taylor-Green vortex decays exactly like exp(-2 pi^2 t)."""
    grid = make_grid(nxy, nxy, 4)
    v1, v2 = _taylor_green_pair(grid)
    n = int(round(T / dt))
    U = _run("NS2D", VelocityState(v1, v2, zero_field(grid)), dt, n)
    amp = math.exp(-2 * math.pi**2 * n * dt)
    diff = np.stack((U[0] - amp * v1.coeffs, U[1] - amp * v2.coeffs))
    err = math.sqrt(_raw_inner(grid, diff, diff))
    return CheckResult("taylor_green_2d", err < 1e-8, f"L2 error {err:.3e} (tol 1e-8)")


def check_heat_mode_decay(system: str, delta: float, eps: float = 0.5,
                          dt: float = 1e-3, T: float = 0.1) -> CheckResult:
    """Single vertical cosine mode decays like exp(-delta pi^2 t)."""
    grid = make_grid(16, 16, 16)
    v1 = field_from_function(grid, lambda x, y, z: np.cos(np.pi * z), EVEN)
    zero = zero_field(grid)
    n = int(round(T / dt))
    U = _run(system, VelocityState(v1, zero, zero), dt, n, eps, delta)
    amp = math.exp(-delta * math.pi**2 * n * dt)
    diff = U[0] - amp * v1.coeffs
    err = math.sqrt(_raw_inner(grid, diff[None], diff[None]))
    rel = err / (amp * norm_sobolev(v1, 0.0))
    return CheckResult(f"heat_mode_{system}_delta{delta:g}", rel < 1e-6,
                       f"relative L2 error {rel:.3e} (tol 1e-6)")


def check_pe_h_stationary(dt: float = 1e-3, steps: int = 100) -> CheckResult:
    """cos(pi z) shear is a stationary solution of the horizontal-viscosity
    limit system."""
    grid = make_grid(16, 16, 16)
    v1 = field_from_function(grid, lambda x, y, z: np.cos(np.pi * z), EVEN)
    zero = zero_field(grid)
    U = _run("PE_H", VelocityState(v1, zero, zero), dt, steps)
    diff = np.stack((U[0] - v1.coeffs, U[1]))
    err = math.sqrt(_raw_inner(grid, diff, diff))
    return CheckResult("pe_h_stationary", err < 1e-12, f"L2 drift {err:.3e} (tol 1e-12)")


def check_shear_2d(dt: float = 1e-3, T: float = 0.1) -> CheckResult:
    grid = make_grid(32, 32, 4)
    v1 = field_from_function(grid, lambda x, y, z: np.sin(np.pi * y), EVEN)
    zero = zero_field(grid)
    n = int(round(T / dt))
    U = _run("NS2D", VelocityState(v1, zero, zero), dt, n)
    amp = math.exp(-math.pi**2 * n * dt)
    diff = np.stack((U[0] - amp * v1.coeffs, U[1]))
    err = math.sqrt(_raw_inner(grid, diff, diff))
    return CheckResult("shear_2d", err < 1e-10, f"L2 error {err:.3e} (tol 1e-10)")


def check_stokes_exact(delta: float = 4.0) -> CheckResult:
    """Scaled Stokes integrator reproduces the analytic per-mode exponentials
    to 1e-12 along a whole trajectory."""
    grid = make_grid(16, 16, 16)
    v1 = field_from_function(
        grid, lambda x, y, z: np.cos(np.pi * z) * np.sin(np.pi * x), EVEN
    )
    v2 = field_from_function(grid, lambda x, y, z: np.cos(2 * np.pi * z), EVEN)
    w = field_from_function(  # w(v), the odd antiderivative of -div_H v
        grid, lambda x, y, z: -np.cos(np.pi * x) * np.sin(np.pi * z), ODD)
    band = grid.band
    U0 = band.gather(np.stack((v1.coeffs, v2.coeffs)))
    dt = 0.02
    lam = -(band.k2h + delta * band.kz3**2)
    states = []  # (step, state)
    _run("StokesScaled", VelocityState(v1, v2, w), dt, 25, 1.0, delta,
         observe=lambda st, t, U, N: states.append((round(t / dt), U)))
    # the error of (v, w), the scaled Stokes state
    worst = max(float(np.max(np.abs(_raw_with_w(band, U - U0 * np.exp(lam * n * dt)))))
                for n, U in states)
    return CheckResult("stokes_exact", worst < 1e-12,
                       f"max coeff error {worst:.3e} (tol 1e-12)")


def oracle_suite() -> list[CheckResult]:
    return [
        check_taylor_green_2d(),
        check_heat_mode_decay("NS_eps_delta", 1.0),
        check_heat_mode_decay("NS_eps_delta", 0.3),
        check_heat_mode_decay("PE_delta", 1.0),
        check_pe_h_stationary(),
        check_shear_2d(),
        check_stokes_exact(),
    ]


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

def check_ns_structural(nx: int = 32, steps: int = 50) -> list[CheckResult]:
    """Audit every step of the anisotropic stepper, in its observer, on the
    band it holds its state on, lifted to (v, eps w(v)), the scaled
    variables whose energy the advection conserves: the energy neutrality
    of each nonlinear term, and the energy balance, divergence defect and
    parity defect of each new state.  The balance reconstructs the AB2
    step on its own, the independent oracle that advance is checked
    against."""
    eps, delta, dt = 0.5, 0.5, 1e-3
    div_defects, parity_defects, neutrality, energy_resid = [], [], [], []
    U = W = N_prev = None  # the last sample's lifted state, AB2 term, nonlinear term

    def audit(st, t, V, N):
        nonlocal U, W, N_prev
        band = st.grid
        lift = lambda X: _raw_with_w(band, X, eps)
        U1 = lift(V)
        if U is not None:
            B = U + dt * W
            dE = _raw_wsum(band, np.abs(U1) ** 2 - np.abs(U) ** 2)
            D_lin = _raw_wsum(band, (1.0 - np.exp(2.0 * st.lam * dt)) * np.abs(B) ** 2)
            work = 2 * dt * _raw_inner(band, W, U) + dt**2 * _raw_inner(band, W, W)
            scale = max(abs(dE), D_lin, 1e-300)
            energy_resid.append(abs(dE + D_lin - work) / scale)
            div_defects.append(_raw_div_eps_defect(band, U1, eps))
            parity_defects.append(max(
                float(np.max(np.abs(c - _raw_parity_project(band, c, p))))
                for c, p in zip(U1, (EVEN, EVEN, ODD))))
        if N is not None:
            # skew-symmetry of the dealiased advection against the state
            neutrality.append(abs(_raw_inner(band, lift(N), U1)))
            W = lift(N if N_prev is None else 1.5 * N - 0.5 * st.propagator * N_prev)
            U, N_prev = U1, N

    grid = make_grid(nx, nx, nx)
    # the data go straight into the run, which keeps only their band state
    _run("NS_eps_delta", generate_initial_data("bandlimited_random", 7, grid), dt, steps,
         eps, delta, observe=audit)
    div, parity = max(div_defects), max(parity_defects)
    neutral, energy = max(neutrality), max(energy_resid)
    return [
        CheckResult("divergence_defect", div < 1e-11, f"max {div:.3e} (tol 1e-11)"),
        CheckResult("parity_exact", parity == 0.0,
                    f"max parity defect {parity:.3e} (must be 0)"),
        CheckResult("advection_energy_neutrality", neutral < 1e-11,
                    f"max |<N,u>| {neutral:.3e} (tol 1e-11)"),
        CheckResult("energy_balance_per_step", energy < 1e-9,
                    f"max relative residual {energy:.3e} (tol 1e-9)"),
    ]


def check_stokes_energy_balance(delta: float = 2.0) -> CheckResult:
    """Exact integrator satisfies the energy equality with the analytically
    integrated dissipation to 1e-12 per step."""
    dt = 1e-2
    data = generate_initial_data("heat_mode", 0, make_grid(16, 16, 16))
    samples = []  # (stepper, state): the energy is that of (v, w(v)), the Stokes state
    _run("StokesScaled", data, dt, 20, 1.0, delta,
         observe=lambda st, t, V, N: samples.append((st, _raw_with_w(st.grid, V))))
    worst = 0.0
    for (st, U), (_, U1) in zip(samples, samples[1:]):
        dE = _raw_inner(st.grid, U1, U1) - _raw_inner(st.grid, U, U)
        D = _raw_wsum(st.grid, (1.0 - np.exp(2.0 * st.lam * dt)) * np.abs(U) ** 2)
        worst = max(worst, abs(dE + D) / max(_raw_inner(st.grid, U, U), 1e-300))
    return CheckResult("stokes_energy_balance", worst < 1e-12,
                       f"max residual {worst:.3e} (tol 1e-12)")


def check_embedding_ordering() -> CheckResult:
    """The delta-weighted maximal-regularity norm dominates its
    delta-free variant on a recorded difference trajectory."""
    from .pairs import run_matched_pair
    from ..solvers import SimConfig

    base = SimConfig(system="NS_eps_delta", nx=16, ny=16, nz=16, dt=2e-3, t_end=0.05,
                     eps=0.3, delta=0.4, recipe="bandlimited_random", seed=3)
    rows = run_matched_pair((0.3, 0.4), base, "eps_delta_to_zero")
    vals = {r.norm_name: r.value for r in rows}
    return CheckResult("norm_embedding_ordering", vals["EH"] <= vals["EHdelta"] + 1e-12,
                       f"EH {vals['EH']:.6e} <= EHdelta {vals['EHdelta']:.6e}")


def check_barotropic_parseval(seed: int = 11) -> CheckResult:
    """Orthogonal splitting: |v|^2 = 2 |vbar|^2_G + |vtilde|^2."""
    grid = make_grid(16, 16, 16)
    data = generate_initial_data("bandlimited_random", seed, grid)
    split = barotropic_split(data.horizontal())
    worst = 0.0
    for full, bar, tilde in ((data.v1, split.vbar1, split.vtilde1),
                             (data.v2, split.vbar2, split.vtilde2)):
        lhs = norm_sobolev(full, 0.0) ** 2
        rhs = 2.0 * norm_l2_barotropic(bar) ** 2 + norm_sobolev(tilde, 0.0) ** 2
        worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
    return CheckResult("barotropic_parseval", worst < 1e-10,
                       f"max relative gap {worst:.3e}")


def check_2d_embedding(steps: int = 100) -> CheckResult:
    """z-independent data evolve identically under the 3D anisotropic,
    hydrostatic-limit, and 2D steppers."""
    grid = make_grid(16, 16, 8)
    state = VelocityState(*_taylor_green_pair(grid), zero_field(grid))
    U, V, B = (np.stack(_run(system, state, 1e-3, steps, 0.7, 0.3)[:2])
               for system in ("NS_eps_delta", "PE_delta", "NS2D"))
    # NS against PE, NS against 2D, PE against 2D
    worst = max(math.sqrt(_raw_inner(grid, d, d)) for d in (U - V, U - B, V - B))
    return CheckResult("embedding_2d", worst < 1e-10,
                       f"max pairwise L2 distance {worst:.3e}")


def invariant_suite() -> list[CheckResult]:
    return [*check_ns_structural(), check_stokes_energy_balance(),
            check_embedding_ordering(), check_barotropic_parseval(), check_2d_embedding()]


# ---------------------------------------------------------------------------
# bootstrap suite
# ---------------------------------------------------------------------------

def _const(x: float, n: int = 5, T: float = 1.0) -> SampledFunction:
    ts = np.linspace(0.0, T, n)
    return SampledFunction(ts, np.full(n, x))


def check_bootstrap_examples() -> list[CheckResult]:
    out = []
    cases = [
        ("quad_certified", certify_quadratic_bound(_const(0.02), 1.0, 0.01),
         "CERTIFIED", 0.04),
        ("quad_eps_cap", certify_quadratic_bound(_const(0.02), 1.0, 0.1),
         "THRESHOLD_VIOLATED", None),
        ("quad_zero", certify_quadratic_bound(_const(0.0), 1.0, 0.01),
         "CERTIFIED", 0.04),
        ("exp_reject_001", certify_exp_quadratic_bound(_const(0.01), 1.0, 1.0, 0.005),
         "HYPOTHESIS_FAILED", None),
        ("exp_reject_0007", certify_exp_quadratic_bound(_const(0.007), 1.0, 1.0, 0.005),
         "HYPOTHESIS_FAILED", None),
        ("exp_certify_00067",
         certify_exp_quadratic_bound(_const(0.0067), 1.0, 1.0, 0.005),
         "CERTIFIED", 0.04),
        ("exp_zero", certify_exp_quadratic_bound(_const(0.0), 1.0, 1.0, 0.005),
         "CERTIFIED", 0.04),
    ]
    for name, cert, verdict, bound in cases:
        ok = cert.verdict == verdict and (
            bound is None or abs(cert.concluded_bound - bound) < 1e-15
        )
        out.append(CheckResult(
            f"bootstrap_{name}", ok,
            f"verdict {cert.verdict}, bound {cert.concluded_bound:.4g}"))
    return out


def check_bootstrap_randomized(trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    """Randomized conforming functions always certify with max below the
    concluded bound; single hidden violations are always rejected, at the
    sample that holds them."""
    rng = np.random.default_rng(seed)
    conform_ok = 0
    for _ in range(trials):
        C = float(rng.uniform(0.5, 4.0))
        eps = float(rng.uniform(0.1, 0.9)) / (16 * C)
        lower_root = (1 - math.sqrt(1 - 16 * C * eps)) / (4 * C)
        n = int(rng.integers(5, 30))
        xs = rng.uniform(0.0, lower_root, size=n)
        X = SampledFunction(np.arange(n, dtype=float), xs)
        cert = certify_quadratic_bound(X, C, eps)
        if cert.certified and xs.max() <= cert.concluded_bound:
            conform_ok += 1
    adversarial_ok = 0
    for _ in range(trials):
        if rng.random() < 0.5:
            C = float(rng.uniform(0.5, 4.0))
            eps = float(rng.uniform(0.1, 0.9)) / (16 * C)
            lower_root = (1 - math.sqrt(1 - 16 * C * eps)) / (4 * C)
            n = int(rng.integers(5, 30))
            xs = rng.uniform(0.0, lower_root, size=n)
            at = int(rng.integers(0, n))
            xs[at] = 1.0 / (4 * C)  # quadratic gap point
            cert = certify_quadratic_bound(
                SampledFunction(np.arange(n, dtype=float), xs), C, eps)
        else:
            C = float(rng.uniform(0.5, 4.0))
            K = float(rng.uniform(0.5, 4.0))
            cap = min(1.0 / (64 * C), math.log(1.5) / (8 * K))
            start_cap = min(1.0 / (8 * C), math.log(1.5) / K)
            eps = float(rng.uniform(0.02, 0.4)) * min(cap, start_cap / 16)
            n = int(rng.integers(5, 30))
            xs = rng.uniform(0.0, eps, size=n)
            at = int(rng.integers(0, n))
            xs[at] = 16 * eps  # violates the weighted bound
            cert = certify_exp_quadratic_bound(
                SampledFunction(np.arange(n, dtype=float), xs), C, K, eps)
        if not cert.certified and cert.failed_at == at:
            adversarial_ok += 1
    return [
        CheckResult("bootstrap_randomized_conforming", conform_ok == trials,
                    f"{conform_ok}/{trials} certified with sound bound"),
        CheckResult("bootstrap_randomized_adversarial", adversarial_ok == trials,
                    f"{adversarial_ok}/{trials} rejected"),
    ]


def check_schedule_example() -> CheckResult:
    ts = np.linspace(0.0, 2.0, 201)
    budgets = BudgetFunctions(
        G1=SampledFunction(ts, math.log(2.0) * ts),
        G2=SampledFunction(ts, ts / 8.0),
        G3=SampledFunction(ts, ts / 2.0),
    )
    sched = continuation_schedule(budgets, 2.0)
    expected = (0.5, 1.0, 1.5, 2.0)
    ok = (abs(sched.t_star - 1.0) < 1e-9 and sched.n_windows == 4
          and len(sched.t_points) == 4
          and all(abs(a - b) < 1e-9 for a, b in zip(sched.t_points, expected)))
    return CheckResult("bootstrap_schedule_linear", ok,
                       f"T*={sched.t_star:.9f} N={sched.n_windows} T_n={sched.t_points}")


def bootstrap_suite() -> list[CheckResult]:
    return [*check_bootstrap_examples(), *check_bootstrap_randomized(),
            check_schedule_example()]


SUITES = {
    "oracles": oracle_suite,
    "invariants": invariant_suite,
    "bootstrap": bootstrap_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    """The named suite's results, or every suite's for "all"; a suite that an
    exception stops gives one failed result naming its type and message."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {list(SUITES)} or 'all'")
    results = []
    for key in SUITES if name == "all" else (name,):
        try:
            results += SUITES[key]()
        except Exception as exc:  # a lane's failure, or a broken check
            results.append(CheckResult(key, False, f"{type(exc).__name__}: {exc}"))
    return results
