"""Curated verification suites: exact-solution oracles, structural
invariants, and the quadratic-inequality certification checks.

Each check returns a CheckResult; the CLI prints one line per check and the
acceptance tests assert that whole suites pass.  Tolerances here are the
acceptance tolerances, pinned once.
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
    _raw_w_from_v,
    barotropic_split,
)
from ..norms import (
    NormAccumulator,
    accumulate,
    finalize,
    norm_l2_barotropic,
    norm_sobolev,
)
from ..solvers import (
    NavierStokes2DStepper,
    NavierStokesStepper,
    PrimitiveStepper,
    StokesScaledStepper,
)
from ..spectral import (
    EVEN,
    ODD,
    SpectralField,
    _raw_embed_plane,
    _raw_inner,
    _raw_parity_project,
    field_from_function,
    make_grid,
)
from .initial_data import generate_initial_data


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


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
    V0 = np.stack((v1.coeffs[:, :, 0], v2.coeffs[:, :, 0]))
    stepper = NavierStokes2DStepper(grid, dt)
    V = V0
    n = int(round(T / dt))
    for _ in range(n):
        V = stepper.step(V)
    amp = math.exp(-2 * math.pi**2 * n * dt)
    diff = V - amp * V0
    err = math.sqrt(_raw_inner(stepper.grid, diff, diff))
    return CheckResult(
        "taylor_green_2d", err < 1e-8, f"L2 error {err:.3e} (tol 1e-8)"
    )


def check_heat_mode_decay(system: str, delta: float, eps: float = 0.5,
                          dt: float = 1e-3, T: float = 0.1) -> CheckResult:
    """Single vertical cosine mode decays like exp(-delta pi^2 t)."""
    grid = make_grid(16, 16, 16)
    v1 = field_from_function(grid, lambda x, y, z: np.cos(np.pi * z), EVEN)
    zero = np.zeros(grid.shape, dtype=np.complex128)
    n = int(round(T / dt))
    if system == "NS_eps_delta":
        stepper = NavierStokesStepper(grid, eps, delta, dt)
        U = np.stack((v1.coeffs, zero, zero))
    else:
        stepper = PrimitiveStepper(grid, delta, dt)
        U = np.stack((v1.coeffs, zero))
    for _ in range(n):
        U = stepper.step(U)
    amp = math.exp(-delta * math.pi**2 * n * dt)
    diff = U[0] - amp * v1.coeffs
    err = math.sqrt(_raw_inner(grid, diff[None], diff[None]))
    rel = err / (amp * norm_sobolev(v1, 0.0))
    return CheckResult(
        f"heat_mode_{system}_delta{delta:g}",
        rel < 1e-6,
        f"relative L2 error {rel:.3e} (tol 1e-6)",
    )


def check_pe_h_stationary(dt: float = 1e-3, steps: int = 100) -> CheckResult:
    """cos(pi z) shear is a stationary solution of the horizontal-viscosity
    limit system."""
    grid = make_grid(16, 16, 16)
    v1 = field_from_function(grid, lambda x, y, z: np.cos(np.pi * z), EVEN)
    zero = np.zeros(grid.shape, dtype=np.complex128)
    stepper = PrimitiveStepper(grid, 0.0, dt)
    U = np.stack((v1.coeffs, zero))
    for _ in range(steps):
        U = stepper.step(U)
    diff = np.stack((U[0] - v1.coeffs, U[1]))
    err = math.sqrt(_raw_inner(grid, diff, diff))
    return CheckResult(
        "pe_h_stationary", err < 1e-12, f"L2 drift {err:.3e} (tol 1e-12)"
    )


def check_shear_2d(dt: float = 1e-3, T: float = 0.1) -> CheckResult:
    grid = make_grid(32, 32, 4)
    v1 = field_from_function(grid, lambda x, y, z: np.sin(np.pi * y), EVEN)
    stepper = NavierStokes2DStepper(grid, dt)
    V = np.stack((v1.coeffs[:, :, 0], np.zeros_like(v1.coeffs[:, :, 0])))
    n = int(round(T / dt))
    for _ in range(n):
        V = stepper.step(V)
    amp = math.exp(-math.pi**2 * n * dt)
    diff = np.stack((V[0] - amp * v1.coeffs[:, :, 0], V[1]))
    err = math.sqrt(_raw_inner(stepper.grid, diff, diff))
    return CheckResult("shear_2d", err < 1e-10, f"L2 error {err:.3e} (tol 1e-10)")


def check_stokes_exact(delta: float = 4.0, eps: float = 0.5) -> CheckResult:
    """Scaled Stokes integrator reproduces the analytic per-mode exponentials
    to 1e-12 along a whole trajectory."""
    grid = make_grid(16, 16, 16)
    v1 = field_from_function(
        grid, lambda x, y, z: np.cos(np.pi * z) * np.sin(np.pi * x), EVEN
    )
    v2 = field_from_function(grid, lambda x, y, z: np.cos(2 * np.pi * z), EVEN)
    w = _raw_w_from_v(grid, np.stack((v1.coeffs, v2.coeffs)))
    U0 = np.stack((v1.coeffs, v2.coeffs, w))
    dt = 0.02
    stepper = StokesScaledStepper(grid, delta, dt)
    U = U0.copy()
    worst = 0.0
    lam = -(grid.k2h + delta * grid.kz3**2)
    for n in range(1, 26):
        U = stepper.advance(U)
        exact = U0 * np.exp(lam * n * dt)
        worst = max(worst, float(np.max(np.abs(U - exact))))
    return CheckResult(
        "stokes_exact", worst < 1e-12, f"max coeff error {worst:.3e} (tol 1e-12)"
    )


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

def _run_ns_with_audit(nx=32, steps=50, eps=0.5, delta=0.5, dt=1e-3, seed=7):
    """Drive the anisotropic stepper and collect per-step diagnostics."""
    grid = make_grid(nx, nx, nx)
    data = generate_initial_data("bandlimited_random", seed, grid)
    st = NavierStokesStepper(grid, eps, delta, dt)
    U = np.stack((data.v1.coeffs, data.v2.coeffs, eps * data.w.coeffs))
    div_defects, parity_defects, neutrality, energy_resid = [], [], [], []
    two_lam = 1.0 - np.exp(2.0 * st.lam * dt)
    for _ in range(steps):
        N = st.nonlinear(U)
        # skew-symmetry of the dealiased advection against the state
        neutrality.append(abs(_raw_inner(grid, N, U)))
        W = N if st._n_prev is None else 1.5 * N - 0.5 * st.propagator * st._n_prev
        B = U + dt * W
        U1 = st.advance(U, N)
        dE = float(np.sum(np.abs(U1) ** 2 - np.abs(U) ** 2) * 8.0)
        D_lin = float(np.sum(two_lam * np.abs(B) ** 2) * 8.0)
        work = 2 * dt * _raw_inner(grid, W, U) + dt**2 * _raw_inner(grid, W, W)
        scale = max(abs(dE), D_lin, 1e-300)
        energy_resid.append(abs(dE + D_lin - work) / scale)
        U = U1
        div_defects.append(_raw_div_eps_defect(grid, U, eps))
        parity_defects.append(
            max(
                float(np.max(np.abs(U[i] - _raw_parity_project(grid, U[i], p))))
                for i, p in enumerate((EVEN, EVEN, ODD))
            )
        )
    return {
        "div": max(div_defects),
        "parity": max(parity_defects),
        "neutrality": max(neutrality),
        "energy": max(energy_resid),
    }


def check_ns_structural(nx: int = 32, steps: int = 50) -> list[CheckResult]:
    d = _run_ns_with_audit(nx=nx, steps=steps)
    return [
        CheckResult("divergence_defect", d["div"] < 1e-11,
                    f"max {d['div']:.3e} (tol 1e-11)"),
        CheckResult("parity_exact", d["parity"] == 0.0,
                    f"max parity defect {d['parity']:.3e} (must be 0)"),
        CheckResult("advection_energy_neutrality", d["neutrality"] < 1e-11,
                    f"max |<N,u>| {d['neutrality']:.3e} (tol 1e-11)"),
        CheckResult("energy_balance_per_step", d["energy"] < 1e-9,
                    f"max relative residual {d['energy']:.3e} (tol 1e-9)"),
    ]


def check_stokes_energy_balance(delta: float = 2.0) -> CheckResult:
    """Exact integrator satisfies the energy equality with the analytically
    integrated dissipation to 1e-12 per step."""
    grid = make_grid(16, 16, 16)
    data = generate_initial_data("heat_mode", 0, grid)
    dt = 1e-2
    st = StokesScaledStepper(grid, delta, dt)
    U = np.stack((data.v1.coeffs, data.v2.coeffs, data.w.coeffs))
    worst = 0.0
    for _ in range(20):
        U1 = st.advance(U)
        dE = _raw_inner(grid, U1, U1) - _raw_inner(grid, U, U)
        D = float(np.sum((1.0 - np.exp(2.0 * st.lam * dt)) * np.abs(U) ** 2) * 8.0)
        worst = max(worst, abs(dE + D) / max(_raw_inner(grid, U, U), 1e-300))
        U = U1
    return CheckResult(
        "stokes_energy_balance", worst < 1e-12, f"max residual {worst:.3e} (tol 1e-12)"
    )


def check_embedding_ordering() -> CheckResult:
    """The delta-weighted maximal-regularity norm dominates its
    delta-free variant on a recorded difference trajectory."""
    from .pairs import run_matched_pair
    from ..solvers import SimConfig

    base = SimConfig(
        system="NS_eps_delta", nx=16, ny=16, nz=16, dt=2e-3, t_end=0.05,
        eps=0.3, delta=0.4, recipe="bandlimited_random", seed=3,
    )
    rows = run_matched_pair((0.3, 0.4), base, "eps_delta_to_zero")
    vals = {r.norm_name: r.value for r in rows}
    ok = vals["EH"] <= vals["EHdelta"] + 1e-12
    return CheckResult(
        "norm_embedding_ordering", ok,
        f"EH {vals['EH']:.6e} <= EHdelta {vals['EHdelta']:.6e}",
    )


def check_barotropic_parseval(seed: int = 11) -> CheckResult:
    """Orthogonal splitting: |v|^2 = 2 |vbar|^2_G + |vtilde|^2."""
    grid = make_grid(16, 16, 16)
    data = generate_initial_data("bandlimited_random", seed, grid)
    split = barotropic_split(data.horizontal())
    worst = 0.0
    for full, bar, tilde in (
        (data.v1, split.vbar1, split.vtilde1),
        (data.v2, split.vbar2, split.vtilde2),
    ):
        lhs = norm_sobolev(full, 0.0) ** 2
        rhs = 2.0 * norm_l2_barotropic(bar) ** 2 + norm_sobolev(tilde, 0.0) ** 2
        worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
    return CheckResult(
        "barotropic_parseval", worst < 1e-10, f"max relative gap {worst:.3e}"
    )


def check_2d_embedding(steps: int = 100) -> CheckResult:
    """z-independent data evolve identically under the 3D anisotropic,
    hydrostatic-limit, and 2D steppers."""
    grid = make_grid(16, 16, 8)
    v1, v2 = _taylor_green_pair(grid)
    zero = np.zeros(grid.shape, dtype=np.complex128)
    dt = 1e-3
    ns = NavierStokesStepper(grid, 0.7, 0.3, dt)
    pe = PrimitiveStepper(grid, 0.3, dt)
    n2 = NavierStokes2DStepper(grid, dt)
    U = np.stack((v1.coeffs, v2.coeffs, zero))
    V = np.stack((v1.coeffs, v2.coeffs))
    B = V[..., 0]
    for _ in range(steps):
        U = ns.step(U)
        V = pe.step(V)
        B = n2.step(B)
    B = _raw_embed_plane(grid, B)
    pairs = {
        "ns_vs_pe": np.stack((U[0] - V[0], U[1] - V[1])),
        "ns_vs_2d": np.stack((U[0] - B[0], U[1] - B[1])),
        "pe_vs_2d": V - B,
    }
    worst = max(
        math.sqrt(_raw_inner(grid, d, d)) for d in pairs.values()
    )
    return CheckResult(
        "embedding_2d", worst < 1e-10, f"max pairwise L2 distance {worst:.3e}"
    )


def invariant_suite() -> list[CheckResult]:
    out = check_ns_structural()
    out.append(check_stokes_energy_balance())
    out.append(check_embedding_ordering())
    out.append(check_barotropic_parseval())
    out.append(check_2d_embedding())
    return out


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
    concluded bound; single hidden violations are always rejected."""
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
            xs[rng.integers(0, n)] = 1.0 / (4 * C)  # quadratic gap point
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
            xs[rng.integers(0, n)] = 16 * eps  # violates the weighted bound
            cert = certify_exp_quadratic_bound(
                SampledFunction(np.arange(n, dtype=float), xs), C, K, eps)
        if not cert.certified:
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
        f=SampledFunction(ts[1:], 1.0 / ts[1:]),
        k=1.0,
        K=1.0,
    )
    sched = continuation_schedule(budgets, 2.0)
    expected = (0.5, 1.0, 1.5, 2.0)
    ok = (
        abs(sched.t_star - 1.0) < 1e-9
        and sched.n_windows == 4
        and len(sched.t_points) == 4
        and all(abs(a - b) < 1e-9 for a, b in zip(sched.t_points, expected))
    )
    return CheckResult(
        "bootstrap_schedule_linear", ok,
        f"T*={sched.t_star:.9f} N={sched.n_windows} T_n={sched.t_points}",
    )


def bootstrap_suite() -> list[CheckResult]:
    out = check_bootstrap_examples()
    out.extend(check_bootstrap_randomized())
    out.append(check_schedule_example())
    return out


SUITES = {
    "oracles": oracle_suite,
    "invariants": invariant_suite,
    "bootstrap": bootstrap_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {list(SUITES)} or 'all'")
    return SUITES[name]()
