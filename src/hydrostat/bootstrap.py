"""Certification of uniform bounds from sampled quadratic inequalities.

The continuation argument used to control the difference norms works as
follows: a nonnegative function X of time satisfies, on every window, a
self-referential bound of the form

    X <= (C X^2 + theta X + eps) * exp(K X)

whose admissible solutions split into a small branch (of size O(eps)) and a
large branch.  Continuity plus a small starting value pin the small branch,
giving sup X <= O(eps).  For sampled data the connectedness argument is
replaced by checking the hypothesis AND the conclusion pointwise at every
sample; soundness of a certificate therefore never relies on anything that
was not checked.

Two single-window certifiers are provided (plain quadratic with linear
coefficient 1/2, and the exponentially weighted variant with coefficient
1/4), plus a scheduler that derives the window length from sampled budget
functions, and a family verifier that chains the windowed checks over a
partition of [0, T] with the carried constant C_{n+1} = 8 (1 + C_n f(T*/2)).

All threshold comparisons are exactly as strict as the underlying analysis:
admissibility of eps is strict, starting-value and hypothesis checks are
non-strict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameter, ScheduleInfeasible

LN2 = math.log(2.0)
LN32 = math.log(1.5)

CERTIFIED = "CERTIFIED"
HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
THRESHOLD_VIOLATED = "THRESHOLD_VIOLATED"


@dataclass(frozen=True)
class SampledFunction:
    """Nonnegative function known at strictly increasing sample times.

    continuity_tolerance is the slack granted between samples; it widens the
    concluded bound of any certificate computed from this data.
    """

    ts: np.ndarray
    xs: np.ndarray
    continuity_tolerance: float = 0.0

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=np.float64)
        xs = np.asarray(self.xs, dtype=np.float64)
        if ts.ndim != 1 or xs.shape != ts.shape or ts.size < 2:
            raise InvalidParameter("need matching 1-D sample arrays of length >= 2")
        if not np.all(np.diff(ts) > 0):
            raise InvalidParameter("sample times must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(xs >= 0)):
            raise InvalidParameter("sample values must be finite and nonnegative")
        if self.continuity_tolerance < 0:
            raise InvalidParameter("continuity_tolerance must be >= 0")
        ts.setflags(write=False)
        xs.setflags(write=False)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "xs", xs)

    def __call__(self, t) -> np.ndarray:
        return np.interp(t, self.ts, self.xs)

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def restricted(self, a: float, b: float) -> "SampledFunction":
        """Samples in [a, b] with interpolated endpoints added if missing."""
        sel = (self.ts >= a) & (self.ts <= b)
        ts = self.ts[sel]
        xs = self.xs[sel]
        if ts.size == 0 or ts[0] > a:
            ts = np.concatenate(([a], ts))
            xs = np.concatenate(([self(a)], xs))
        if ts[-1] < b:
            ts = np.concatenate((ts, [b]))
            xs = np.concatenate((xs, [self(b)]))
        return SampledFunction(ts, xs, self.continuity_tolerance)

    def shifted_down(self, value: float) -> "SampledFunction":
        """Subtract a baseline, clipping tiny negative leftovers to zero."""
        return SampledFunction(
            self.ts, np.maximum(self.xs - value, 0.0), self.continuity_tolerance
        )


@dataclass(frozen=True)
class BootstrapCertificate:
    """Outcome of one certification run.

    The soundness invariant is enforced on construction paths, never assumed:
    a CERTIFIED verdict always comes with
    max(xs) <= concluded_bound + continuity_tolerance.
    """

    verdict: str
    concluded_bound: float
    thresholds_used: dict
    detail: str = ""
    failed_at: float | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


@dataclass(frozen=True)
class BudgetFunctions:
    """Increasing budgets G1, G2, G3 on [0, T], decreasing window cost f,
    and the quadratic/exponential constants k, K of the family inequality."""

    G1: SampledFunction
    G2: SampledFunction
    G3: SampledFunction
    f: SampledFunction
    k: float
    K: float

    def __post_init__(self):
        for name, g in (("G1", self.G1), ("G2", self.G2), ("G3", self.G3)):
            if np.any(np.diff(g.xs) < 0):
                raise InvalidParameter(f"budget {name} must be nondecreasing")
        if np.any(np.diff(self.f.xs) > 0):
            raise InvalidParameter("f must be nonincreasing")
        if self.k <= 0 or self.K <= 0:
            raise InvalidParameter("constants k, K must be positive")


def _certify(
    X: SampledFunction,
    hyp_rhs,
    eps_cap: float,
    start_cap: float,
    bound: float,
    thresholds: dict,
    eps: float,
) -> BootstrapCertificate:
    """Shared certification skeleton: threshold checks, pointwise hypothesis,
    pointwise conclusion."""
    tol = X.continuity_tolerance
    if not (0.0 < eps < eps_cap):
        return BootstrapCertificate(
            THRESHOLD_VIOLATED,
            bound,
            thresholds,
            detail=f"eps={eps:.6g} outside (0, {eps_cap:.6g})",
        )
    if X.xs[0] > start_cap:
        return BootstrapCertificate(
            THRESHOLD_VIOLATED,
            bound,
            thresholds,
            detail=f"X(a)={X.xs[0]:.6g} > {start_cap:.6g}",
            failed_at=float(X.ts[0]),
        )
    rhs = hyp_rhs(X.xs)
    bad = np.nonzero(X.xs > rhs)[0]
    if bad.size:
        i = int(bad[0])
        return BootstrapCertificate(
            HYPOTHESIS_FAILED,
            bound,
            thresholds,
            detail=f"X({X.ts[i]:.6g})={X.xs[i]:.6g} > rhs={rhs[i]:.6g}",
            failed_at=float(X.ts[i]),
        )
    over = np.nonzero(X.xs > bound + tol)[0]
    if over.size:
        i = int(over[0])
        return BootstrapCertificate(
            THRESHOLD_VIOLATED,
            bound,
            thresholds,
            detail=(
                "conclusion exceeded between samples (branch jump): "
                f"X({X.ts[i]:.6g})={X.xs[i]:.6g} > {bound:.6g}+{tol:.3g}"
            ),
            failed_at=float(X.ts[i]),
        )
    assert float(np.max(X.xs)) <= bound + tol
    return BootstrapCertificate(CERTIFIED, bound, thresholds)


def certify_quadratic_bound(
    X: SampledFunction, C: float, eps: float
) -> BootstrapCertificate:
    """Certify sup X <= 4 eps from X <= C X^2 + X/2 + eps.

    Requires eps < 1/(16 C) and X(a) <= 1/(4 C); the hypothesis and the
    conclusion are checked at every sample.
    """
    if C <= 0:
        raise InvalidParameter(f"C must be > 0, got {C}")
    thresholds = {"C": C, "eps": eps, "eps_cap": 1.0 / (16 * C),
                  "start_cap": 1.0 / (4 * C)}
    return _certify(
        X,
        lambda x: C * x**2 + 0.5 * x + eps,
        eps_cap=1.0 / (16 * C),
        start_cap=1.0 / (4 * C),
        bound=4.0 * eps,
        thresholds=thresholds,
        eps=eps,
    )


def certify_exp_quadratic_bound(
    X: SampledFunction, C: float, K: float, eps: float
) -> BootstrapCertificate:
    """Certify sup X <= 8 eps from X <= (C X^2 + X/4 + eps) e^{K X}.

    Requires eps < min(1/(64 C), ln(3/2)/(8 K)) and
    X(a) <= min(1/(8 C), ln(3/2)/K).  A certified run also stays strictly
    below the barrier ln(2)/K, which is asserted.
    """
    if C <= 0 or K <= 0:
        raise InvalidParameter("C and K must be > 0")
    eps_cap = min(1.0 / (64 * C), LN32 / (8 * K))
    start_cap = min(1.0 / (8 * C), LN32 / K)
    thresholds = {"C": C, "K": K, "eps": eps, "eps_cap": eps_cap,
                  "start_cap": start_cap, "barrier": LN2 / K}
    cert = _certify(
        X,
        lambda x: (C * x**2 + 0.25 * x + eps) * np.exp(K * x),
        eps_cap=eps_cap,
        start_cap=start_cap,
        bound=8.0 * eps,
        thresholds=thresholds,
        eps=eps,
    )
    if cert.certified:
        assert float(np.max(X.xs)) < LN2 / K
    return cert


@dataclass(frozen=True)
class ContinuationSchedule:
    """Window partition of [0, T]: checkpoints T_n = n T*/2 and T_N = T."""

    t_star: float
    n_windows: int
    t_points: tuple[float, ...]


def continuation_schedule(budgets: BudgetFunctions, T: float) -> ContinuationSchedule:
    """Largest window length T* whose budget increments stay under the
    admissibility caps ln 2, 1/8, 1/2 uniformly over [0, T - T*].

    T* is located by bisection against the piecewise-linear interpolants of
    the sampled budgets; the checkpoint count is N = ceil(T / (T*/2)).
    """
    if T <= 0:
        raise InvalidParameter(f"T must be > 0, got {T}")
    caps = (LN2, 0.125, 0.5)
    gs = (budgets.G1, budgets.G2, budgets.G3)

    def feasible(h: float) -> bool:
        if h >= T:
            h = T
        for g, cap in zip(gs, caps):
            # increments of a piecewise-linear function are extremal at
            # breakpoints of either endpoint
            cands = np.concatenate((g.ts, g.ts - h, [0.0, T - h]))
            cands = np.unique(np.clip(cands, 0.0, T - h))
            if np.any(g(cands + h) - g(cands) > cap + 1e-15):
                return False
        return True

    spacings = [float(np.min(np.diff(g.ts))) for g in gs]
    h_min = min(spacings)
    if not feasible(h_min):
        raise ScheduleInfeasible(
            f"budget increments violate the caps even at spacing {h_min:.3e}"
        )
    if feasible(T):
        t_star = T
    else:
        lo, hi = h_min, T
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        t_star = lo
    n = int(math.ceil(T / (t_star / 2.0) - 1e-9))
    pts = tuple(i * t_star / 2.0 for i in range(1, n)) + (T,)
    return ContinuationSchedule(t_star, n, pts)


@dataclass(frozen=True)
class FamilyCertification:
    """Result of chaining windowed certificates over a parameter family."""

    schedule: ContinuationSchedule
    C_star: float
    eta_star: float
    constants: tuple[float, ...]
    per_eta: tuple[tuple[float, BootstrapCertificate], ...]
    window_reports: tuple[str, ...]

    @property
    def all_certified(self) -> bool:
        return all(c.certified for _, c in self.per_eta)


def _chain_constants(budgets: BudgetFunctions, t_star: float, n: int):
    """Carried constants C_n and admissibility thresholds eta_n."""
    k, K = budgets.k, budgets.K
    f_half = float(budgets.f(t_star / 2.0))
    eps_cap = min(1.0 / (128 * k), LN32 / (8 * K))
    C = [8.0]
    eta = [eps_cap]
    for _ in range(1, n):
        Cn = C[-1]
        C.append(8.0 * (1.0 + Cn * f_half))
        eta1 = min(eta[-1], 1.0 / (16 * k * Cn), LN32 / (K * Cn))
        eta2 = eps_cap / (1.0 + Cn * f_half)
        eta.append(min(eta1, eta2))
    return C, eta, f_half


def certify_bootstrap_family(
    X_family: Sequence[tuple[float, SampledFunction]],
    budgets: BudgetFunctions,
    T: float,
) -> FamilyCertification:
    """Windowed certification of sup X_eta <= C* eta over [0, T].

    Each member must start at zero and be nondecreasing.  Window n checks the
    increment X(t) - X(T_{n-1}) on [T_n, T_{n+1}] through the exponential
    quadratic certifier with effective constants (2k, K) and effective
    epsilon eta (1 + C_n f(T*/2)); members whose samples stop before T are
    reported as failing in the window containing their last sample (a sampled
    trajectory cannot distinguish blowup from under-resolution, so the
    verdict records the gap rather than deciding).
    """
    sched = continuation_schedule(budgets, T)
    Cs, etas, f_half = _chain_constants(budgets, sched.t_star, sched.n_windows)
    C_star = Cs[-1]
    eta_star = etas[-1]
    k, K = budgets.k, budgets.K

    per_eta = []
    reports = []
    for eta, X in X_family:
        if eta <= 0:
            raise InvalidParameter(f"eta must be > 0, got {eta}")
        bound = C_star * eta
        tol = X.continuity_tolerance
        if abs(X.xs[0]) > tol or X.ts[0] != 0.0:
            per_eta.append((eta, BootstrapCertificate(
                THRESHOLD_VIOLATED, bound, {"eta": eta},
                detail="family member must start at X(0) = 0")))
            continue
        if np.any(np.diff(X.xs) < -tol - 1e-15):
            per_eta.append((eta, BootstrapCertificate(
                THRESHOLD_VIOLATED, bound, {"eta": eta},
                detail="family member must be nondecreasing")))
            continue
        if eta >= eta_star:
            per_eta.append((eta, BootstrapCertificate(
                THRESHOLD_VIOLATED, bound, {"eta": eta, "eta_star": eta_star},
                detail=f"eta={eta:.6g} >= eta_star={eta_star:.6g}")))
            continue

        verdict: BootstrapCertificate | None = None
        pts = (0.0, *sched.t_points)
        for n in range(1, sched.n_windows + 1):
            if n == 1:
                t1, a, b = 0.0, 0.0, pts[1]
                eps_eff = eta
            else:
                t1, a, b = pts[n - 2], pts[n - 1], pts[n]
                eps_eff = eta * (1.0 + Cs[n - 2] * f_half)
            if X.t1 < b - 1e-12:
                verdict = BootstrapCertificate(
                    THRESHOLD_VIOLATED, bound, {"eta": eta},
                    detail=(
                        f"samples end at t={X.t1:.6g} inside window [{a:.6g}, {b:.6g}]"
                        "; early stop is indistinguishable from blowup at this"
                        " sampling"
                    ),
                    failed_at=X.t1,
                )
                reports.append(
                    f"eta={eta:.6g} window {n} [{a:.6g}, {b:.6g}): INCOMPLETE"
                )
                break
            Xw = X.restricted(a, b).shifted_down(float(X(t1)))
            cert = certify_exp_quadratic_bound(Xw, 2.0 * k, K, eps_eff)
            reports.append(
                f"eta={eta:.6g} window {n} [{a:.6g}, {b:.6g}): {cert.verdict}"
                f" bound={cert.concluded_bound:.6g}"
            )
            if not cert.certified:
                verdict = BootstrapCertificate(
                    cert.verdict,
                    bound,
                    cert.thresholds_used,
                    detail=f"window {n} [{a:.6g}, {b:.6g}): {cert.detail}",
                    failed_at=cert.failed_at,
                )
                break
        if verdict is None:
            # enforce the family-level soundness invariant explicitly
            if float(np.max(X.xs)) > bound + tol:
                verdict = BootstrapCertificate(
                    THRESHOLD_VIOLATED, bound, {"eta": eta, "C_star": C_star},
                    detail="measured maximum exceeds the chained bound",
                )
            else:
                verdict = BootstrapCertificate(
                    CERTIFIED, bound, {"eta": eta, "C_star": C_star})
        per_eta.append((eta, verdict))

    return FamilyCertification(
        sched, C_star, eta_star, tuple(Cs), tuple(per_eta), tuple(reports)
    )


def render_certificate_report(result: FamilyCertification) -> str:
    """Plain-text certificate: one line per window plus a summary per member."""
    lines = [
        f"schedule: T*={result.schedule.t_star:.6g} N={result.schedule.n_windows} "
        f"checkpoints={[round(t, 9) for t in result.schedule.t_points]}",
        f"constants: C*={result.C_star:.6g} eta*={result.eta_star:.6g}",
    ]
    lines.extend(result.window_reports)
    for eta, cert in result.per_eta:
        lines.append(
            f"eta={eta:.6g}: {cert.verdict} bound={cert.concluded_bound:.6g}"
            + (f" ({cert.detail})" if cert.detail else "")
        )
    return "\n".join(lines) + "\n"


def parse_certificate_report(text: str) -> dict:
    """Read back the summary lines of a rendered certificate report."""
    out: dict = {"members": []}
    for line in text.strip().splitlines():
        if line.startswith("constants:"):
            parts = line.split()
            out["C_star"] = float(parts[1].split("=")[1])
            out["eta_star"] = float(parts[2].split("=")[1])
        elif line.startswith("eta=") and " window " not in line:
            head, rest = line.split(":", 1)
            eta = float(head.split("=")[1])
            toks = rest.split()
            out["members"].append(
                {"eta": eta, "verdict": toks[0],
                 "bound": float(toks[1].split("=")[1])}
            )
    return out
