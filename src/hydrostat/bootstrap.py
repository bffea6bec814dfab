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
functions.

All threshold comparisons are exactly as strict as the underlying analysis:
admissibility of eps is strict, starting-value and hypothesis checks are
non-strict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BootstrapCertificate:
    """Outcome of one certification run.

    The soundness invariant is enforced on construction paths, never assumed:
    a CERTIFIED verdict always comes with
    max(xs) <= concluded_bound + continuity_tolerance.
    """

    verdict: str
    concluded_bound: float
    detail: str = ""
    failed_at: float | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


@dataclass(frozen=True)
class BudgetFunctions:
    """Nondecreasing budgets G1, G2, G3 on [0, T], whose increments over a
    window the continuation schedule caps."""

    G1: SampledFunction
    G2: SampledFunction
    G3: SampledFunction

    def __post_init__(self):
        for name, g in (("G1", self.G1), ("G2", self.G2), ("G3", self.G3)):
            if np.any(np.diff(g.xs) < 0):
                raise InvalidParameter(f"budget {name} must be nondecreasing")


def _certify(
    X: SampledFunction,
    hyp_rhs,
    eps_cap: float,
    start_cap: float,
    bound: float,
    eps: float,
) -> BootstrapCertificate:
    """Shared certification skeleton: threshold checks, pointwise hypothesis,
    pointwise conclusion."""
    tol = X.continuity_tolerance
    if not (0.0 < eps < eps_cap):
        return BootstrapCertificate(
            THRESHOLD_VIOLATED,
            bound,
            detail=f"eps={eps:.6g} outside (0, {eps_cap:.6g})",
        )
    if X.xs[0] > start_cap:
        return BootstrapCertificate(
            THRESHOLD_VIOLATED,
            bound,
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
            detail=f"X({X.ts[i]:.6g})={X.xs[i]:.6g} > rhs={rhs[i]:.6g}",
            failed_at=float(X.ts[i]),
        )
    over = np.nonzero(X.xs > bound + tol)[0]
    if over.size:
        i = int(over[0])
        return BootstrapCertificate(
            THRESHOLD_VIOLATED,
            bound,
            detail=(
                "conclusion exceeded between samples (branch jump): "
                f"X({X.ts[i]:.6g})={X.xs[i]:.6g} > {bound:.6g}+{tol:.3g}"
            ),
            failed_at=float(X.ts[i]),
        )
    assert float(np.max(X.xs)) <= bound + tol
    return BootstrapCertificate(CERTIFIED, bound)


def certify_quadratic_bound(
    X: SampledFunction, C: float, eps: float
) -> BootstrapCertificate:
    """Certify sup X <= 4 eps from X <= C X^2 + X/2 + eps.

    Requires eps < 1/(16 C) and X(a) <= 1/(4 C); the hypothesis and the
    conclusion are checked at every sample.
    """
    if C <= 0:
        raise InvalidParameter(f"C must be > 0, got {C}")
    return _certify(
        X,
        lambda x: C * x**2 + 0.5 * x + eps,
        eps_cap=1.0 / (16 * C),
        start_cap=1.0 / (4 * C),
        bound=4.0 * eps,
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
    cert = _certify(
        X,
        lambda x: (C * x**2 + 0.25 * x + eps) * np.exp(K * x),
        eps_cap=eps_cap,
        start_cap=start_cap,
        bound=8.0 * eps,
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
