"""Quadratic-inequality certification: single windows and schedules."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostat.bootstrap import (
    CERTIFIED,
    HYPOTHESIS_FAILED,
    THRESHOLD_VIOLATED,
    BudgetFunctions,
    SampledFunction,
    certify_exp_quadratic_bound,
    certify_quadratic_bound,
    continuation_schedule,
)
from hydrostat.errors import InvalidParameter, ScheduleInfeasible

LN32 = math.log(1.5)


def const_fn(x, n=6, T=1.0, tol=0.0):
    return SampledFunction(np.linspace(0.0, T, n), np.full(n, x), tol)


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            SampledFunction(np.array([0.0]), np.array([1.0]))
        with pytest.raises(InvalidParameter):
            SampledFunction(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidParameter):
            SampledFunction(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(InvalidParameter):
            SampledFunction(np.array([0.0, 1.0]), np.array([1.0, np.nan]))

    def test_restriction_and_interp(self):
        """Between samples the function is their linear interpolant, the
        values the continuation schedule compares at shifted times."""
        f = SampledFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]))
        assert f(0.5) == pytest.approx(1.0)
        assert np.allclose(f(np.array([0.5, 1.5])), [1.0, 3.0])
        assert f(2.0) == 4.0


class TestQuadraticCertifier:
    def test_certified_example(self):
        cert = certify_quadratic_bound(const_fn(0.02), 1.0, 0.01)
        assert cert.verdict == CERTIFIED
        assert cert.concluded_bound == pytest.approx(0.04)

    def test_eps_threshold(self):
        cert = certify_quadratic_bound(const_fn(0.02), 1.0, 0.1)
        assert cert.verdict == THRESHOLD_VIOLATED
        assert "eps" in cert.detail

    def test_zero_function(self):
        cert = certify_quadratic_bound(const_fn(0.0), 1.0, 0.01)
        assert cert.verdict == CERTIFIED

    def test_threshold_strictness(self):
        # eps admissibility is strict, the starting bound is not
        C = 2.0
        at_cap = certify_quadratic_bound(const_fn(0.0), C, 1.0 / (16 * C))
        assert at_cap.verdict == THRESHOLD_VIOLATED
        eps = 0.9 / (16 * C)
        xs = np.zeros(5)
        xs[0] = 1.0 / (4 * C)  # exactly at the starting cap: admissible
        # ... but 1/(4C) sits in the forbidden gap of the quadratic, so the
        # hypothesis check must reject it
        cert = certify_quadratic_bound(
            SampledFunction(np.arange(5.0), xs), C, eps
        )
        assert cert.verdict == HYPOTHESIS_FAILED
        assert cert.failed_at == 0.0

    def test_branch_jump_rejected(self):
        # a sample on the large branch satisfies the hypothesis but not the
        # conclusion; the pointwise conclusion check catches it
        C, eps = 1.0, 0.01
        xs = np.array([0.01, 0.01, 0.5, 0.01])
        cert = certify_quadratic_bound(
            SampledFunction(np.arange(4.0), xs), C, eps
        )
        assert cert.verdict == THRESHOLD_VIOLATED
        assert "branch" in cert.detail

    def test_hypothesis_failure_located(self):
        C, eps = 1.0, 0.01
        xs = np.array([0.01, 0.01, 0.25, 0.01])  # 0.25 = 1/(4C): gap point
        cert = certify_quadratic_bound(SampledFunction(np.arange(4.0), xs), C, eps)
        assert cert.verdict == HYPOTHESIS_FAILED
        assert cert.failed_at == 2.0

    @given(c1=st.floats(0.5, 4.0), factor=st.floats(1.01, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_thresholds(self, c1, factor):
        """Raising C strictly shrinks the admissible (eps, X(a)) region."""
        c2 = c1 * factor
        assert 1.0 / (16 * c2) < 1.0 / (16 * c1)
        assert 1.0 / (4 * c2) < 1.0 / (4 * c1)
        cert1 = certify_quadratic_bound(const_fn(0.0), c1, 1.0 / (16 * c2))
        cert2 = certify_quadratic_bound(const_fn(0.0), c2, 1.0 / (16 * c2))
        assert cert1.verdict == CERTIFIED
        assert cert2.verdict == THRESHOLD_VIOLATED


class TestExpQuadraticCertifier:
    def test_spec_boundary_cases(self):
        r1 = certify_exp_quadratic_bound(const_fn(0.01), 1.0, 1.0, 0.005)
        assert r1.verdict == HYPOTHESIS_FAILED
        r2 = certify_exp_quadratic_bound(const_fn(0.007), 1.0, 1.0, 0.005)
        assert r2.verdict == HYPOTHESIS_FAILED
        r3 = certify_exp_quadratic_bound(const_fn(0.0067), 1.0, 1.0, 0.005)
        assert r3.verdict == CERTIFIED
        assert r3.concluded_bound == pytest.approx(0.04)

    def test_zero(self):
        assert certify_exp_quadratic_bound(const_fn(0.0), 1.0, 1.0, 0.005).certified

    def test_barrier_property(self):
        # any certified run stays under ln(2)/K
        K = 3.0
        cert = certify_exp_quadratic_bound(const_fn(0.001), 1.0, K, 0.002)
        assert cert.certified
        assert 8 * 0.002 < math.log(2.0) / K

    def test_eps_cap_includes_exponential_constant(self):
        K = 100.0  # ln(3/2)/(8K) < 1/(64C): the K-cap binds
        cap = LN32 / (8 * K)
        cert = certify_exp_quadratic_bound(const_fn(0.0), 1.0, K, cap * 1.0001)
        assert cert.verdict == THRESHOLD_VIOLATED


def linear_budgets(T=2.0):
    ts = np.linspace(0.0, T, 401)
    return BudgetFunctions(
        G1=SampledFunction(ts, math.log(2.0) * ts),
        G2=SampledFunction(ts, ts / 8.0),
        G3=SampledFunction(ts, ts / 2.0),
    )


class TestContinuationSchedule:
    def test_linear_budget_example(self):
        sched = continuation_schedule(linear_budgets(), 2.0)
        assert sched.t_star == pytest.approx(1.0, abs=1e-9)
        assert sched.n_windows == 4
        assert np.allclose(sched.t_points, [0.5, 1.0, 1.5, 2.0], atol=1e-9)

    def test_zero_budgets(self):
        ts = np.linspace(0.0, 1.0, 11)
        budgets = BudgetFunctions(
            G1=SampledFunction(ts, 0.0 * ts),
            G2=SampledFunction(ts, 0.0 * ts),
            G3=SampledFunction(ts, 0.0 * ts),
        )
        sched = continuation_schedule(budgets, 1.0)
        assert sched.t_star == pytest.approx(1.0)
        assert sched.n_windows == 2
        assert np.allclose(sched.t_points, [0.5, 1.0])

    def test_jump_infeasible(self):
        ts = np.array([0.0, 0.5, 0.5001, 1.0])
        g1 = np.array([0.0, 0.0, 1.0, 1.0])  # jump > ln 2 between samples
        budgets = BudgetFunctions(
            G1=SampledFunction(ts, g1),
            G2=SampledFunction(ts, 0.0 * ts),
            G3=SampledFunction(ts, 0.0 * ts),
        )
        with pytest.raises(ScheduleInfeasible):
            continuation_schedule(budgets, 1.0)

    def test_budget_monotonicity_validated(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InvalidParameter):
            BudgetFunctions(
                G1=SampledFunction(ts, np.array([0.0, 1.0, 0.5, 2.0, 3.0])),
                G2=SampledFunction(ts, ts),
                G3=SampledFunction(ts, ts),
            )

    def test_schedule_consistency(self):
        sched = continuation_schedule(linear_budgets(T=1.7), 1.7)
        pts = np.array(sched.t_points)
        assert np.all(np.diff(pts) > 0)
        assert pts[-1] == pytest.approx(1.7)
        widths = np.diff(np.concatenate(([0.0], pts)))
        assert np.all(widths <= sched.t_star + 1e-9)


def test_randomized_suites_small():
    from hydrostat.harness.verify import check_bootstrap_randomized

    results = check_bootstrap_randomized(trials=200, seed=5)
    for r in results:
        assert r.passed, r.line()
