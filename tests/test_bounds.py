"""Envelope formulas, schedule identities, and their algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartopt import (
    DerivedConditioning,
    bound_accelerated,
    bound_adaptive,
    bound_generic,
    bound_gradient_descent,
    bound_holder,
    bound_rounded,
    bound_smooth,
    bound_universal,
    optimal_constant_smooth,
    restart_count,
    schedule_threshold,
    schedule_total,
    ufgm_constant,
)

E = math.e


def smooth_cond(kappa, tau):
    return DerivedConditioning(kappa=kappa, tau=tau, q=2.0)


def unrounded_envelope(nu, gamma, C, alpha, N):
    """Envelope of an exactly geometric decrease over a real schedule (test-local oracle)."""
    if alpha == 0.0:
        return nu * math.exp(-gamma * N / C)
    return nu / (alpha * math.exp(-alpha) / C * N + 1.0) ** (gamma / alpha)


class TestScheduleAlgebra:
    def test_constant_total(self):
        assert schedule_total(2.0, 0.0, 5) == 10.0

    def test_geometric_total_powers_of_two(self):
        # C=1, alpha=ln 2: t_k = 2^k, so R=3 gives 2+4+8
        assert schedule_total(1.0, math.log(2.0), 3) == pytest.approx(14.0, rel=1e-14)

    def test_zero_cycles(self):
        assert schedule_total(3.0, 0.7, 0) == 0.0

    def test_constant_count(self):
        assert restart_count(2.0, 0.0, 10.0) == 5.0

    def test_geometric_count(self):
        assert restart_count(1.0, math.log(2.0), 14.0) == pytest.approx(3.0, rel=1e-14)

    @given(
        C=st.floats(0.1, 1e3),
        alpha=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
        R=st.integers(1, 50),
    )
    @settings(max_examples=300)
    def test_round_trip_inversion(self, C, alpha, R):
        N = schedule_total(C, alpha, R)
        assert restart_count(C, alpha, N) == pytest.approx(R, rel=1e-12)


class TestBoundSmooth:
    def test_tau0_substitution(self):
        # c*kappa = 4, N = 2e makes the exponent exactly -2
        cond = smooth_cond(kappa=4.0, tau=0.0)
        assert bound_smooth(cond, 1.0, 1.0, 2 * E) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_zero_iterations_returns_gap0(self):
        assert bound_smooth(smooth_cond(3.0, 0.0), 7.0, 4.0, 0.0) == 7.0
        assert bound_smooth(smooth_cond(3.0, 0.5), 7.0, 4.0, 0.0) == 7.0

    def test_tau_to_zero_continuity(self):
        # continuity is checked at moderate exponents (rate * N <= ~5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            kappa = rng.uniform(1.0, 100.0)
            gap0 = rng.uniform(0.1, 10.0)
            c = 4.0
            a = (c * kappa) ** -0.5 / E
            N = rng.uniform(0.0, 5.0 / a)
            lim = bound_smooth(smooth_cond(kappa, 1e-6), gap0, c, N)
            at0 = bound_smooth(smooth_cond(kappa, 0.0), gap0, c, N)
            assert lim == pytest.approx(at0, rel=1e-4)

    def test_requires_smooth_conditioning(self):
        with pytest.raises(ValueError):
            bound_smooth(DerivedConditioning(kappa=1, tau=0, q=0.5), 1.0, 4.0, 10.0)


class TestBoundGeneric:
    def test_collapses_to_smooth_at_optimal_constant(self):
        cond = smooth_cond(kappa=9.0, tau=0.0)
        C = optimal_constant_smooth(cond, 1.0, 4.0)
        for N in (0.0, 10.0, 100.0, 750.0):
            got = bound_generic(cond, 1.0, 4.0, C, 0.0, N)
            assert got.guaranteed
            assert got.value == pytest.approx(bound_smooth(cond, 1.0, 4.0, N), rel=1e-12)

    def test_tau0_substitution(self):
        got = bound_generic(smooth_cond(4.0, 0.0), 1.0, 1.0, 4.0, 0.0, 8.0)
        assert got.value == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert not got.guaranteed  # C = 4 < e * sqrt(c kappa) = 2e

    def test_matches_smooth_branch_at_optimal_geometric(self):
        cond = smooth_cond(kappa=5.0, tau=0.5)
        gap0, c = 2.0, 4.0
        C = optimal_constant_smooth(cond, gap0, c)
        for N in (1.0, 30.0, 400.0):
            got = bound_generic(cond, gap0, c, C, cond.tau, N)
            assert got.guaranteed
            assert got.value == pytest.approx(bound_smooth(cond, gap0, c, N), rel=1e-10)


class TestBoundHolder:
    def test_s2_equals_smooth(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cond = smooth_cond(rng.uniform(1, 500), rng.choice([0.0, rng.uniform(0.01, 0.9)]))
            gap0 = rng.uniform(0.01, 50)
            c = rng.uniform(1, 10)
            N = rng.uniform(0, 1000)
            assert bound_holder(cond, gap0, c, N) == pytest.approx(
                bound_smooth(cond, gap0, c, N), rel=1e-12
            )

    def test_nonsmooth_substitution(self):
        # s=1: q=1/2, (c kappa)^(s/2q) = c kappa; pick N so the exponent is -1
        cond = DerivedConditioning(kappa=4.0, tau=0.0, q=0.5)
        N = E / (0.5 / 4.0)  # q e^-1 (c kappa)^-1 N = 1 with c = 1
        assert bound_holder(cond, 1.0, 1.0, N) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_zero_iterations(self):
        cond = DerivedConditioning(kappa=2.0, tau=0.25, q=0.5)
        assert bound_holder(cond, 5.0, 4.0, 0.0) == 5.0

    def test_tau_to_zero_continuity(self):
        rng = np.random.default_rng(2)
        for q in (0.5, 1.25, 2.0):
            for _ in range(20):
                kappa = rng.uniform(1.0, 50.0)
                eps0 = rng.uniform(0.1, 10.0)
                c = 4.0
                s = (2 * q + 2) / 3
                rate = (c * kappa) ** (-s / (2 * q))
                N = rng.uniform(0.0, 5.0 / (rate * q))
                lim = bound_holder(DerivedConditioning(kappa, 1e-6, q), eps0, c, N)
                at0 = bound_holder(DerivedConditioning(kappa, 0.0, q), eps0, c, N)
                assert lim == pytest.approx(at0, rel=1e-4)


class TestBoundGradientDescent:
    def test_tau0_substitution(self):
        assert bound_gradient_descent(smooth_cond(1.0, 0.0), 1.0, E) == pytest.approx(
            math.exp(-1), rel=1e-12
        )

    def test_zero_iterations(self):
        assert bound_gradient_descent(smooth_cond(10.0, 0.5), 3.0, 0.0) == 3.0

    def test_acceleration_dominates_at_matched_constants(self):
        # the restarted envelope rate 2/(e sqrt(c kappa)) beats the GD rate
        # 1/(e kappa) exactly when kappa >= c/4; sweep from kappa = c up
        c = 4.0
        for kappa in (4.0, 10.0, 100.0, 1e4):
            cond = smooth_cond(kappa, 0.0)
            for N in np.linspace(1, 2000, 40):
                assert bound_smooth(cond, 1.0, c, N) <= bound_gradient_descent(cond, 1.0, N) + 1e-15

    def test_tau_to_zero_continuity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            kappa = rng.uniform(1.0, 100.0)
            gap0 = rng.uniform(0.1, 10.0)
            b = 1.0 / (E * kappa)
            N = rng.uniform(0.0, 5.0 / b)
            lim = bound_gradient_descent(smooth_cond(kappa, 1e-6), gap0, N)
            at0 = bound_gradient_descent(smooth_cond(kappa, 0.0), gap0, N)
            assert lim == pytest.approx(at0, rel=1e-4)


class TestBoundRounded:
    def test_integer_constant_matches_unrounded_shape(self):
        # alpha=0 with integer C: ceil changes nothing, and the rounded
        # denominator C+1 is the stated worst case
        assert bound_rounded(1.0, 1.0, 1.0, 0.0, 4.0) == pytest.approx(math.exp(-2), rel=1e-12)

    @given(
        gamma=st.floats(0.1, 4.0),
        C=st.floats(0.5, 60.0),
        alpha=st.one_of(st.just(0.0), st.floats(1e-6, 1.5)),
        R=st.integers(1, 40),
    )
    @settings(max_examples=300)
    def test_rounded_dominates_unrounded(self, gamma, C, alpha, R):
        N = sum(math.ceil(C * math.exp(alpha * k)) for k in range(1, R + 1))
        rounded = bound_rounded(1.0, gamma, C, alpha, float(N))
        unrounded = unrounded_envelope(1.0, gamma, C, alpha, float(N))
        assert rounded >= unrounded * (1 - 1e-12)


class TestSolverEnvelopes:
    def test_ufgm_constant_values(self):
        assert ufgm_constant(2.0) == 8.0
        assert ufgm_constant(1.0) == 4.0

    def test_accelerated_bound(self):
        assert bound_accelerated(1.0, 1.0, 20.0) == pytest.approx(0.01)

    def test_universal_at_zero_epsilon_recovers_accelerated(self):
        # s = 2, c = 8: c L d^2 / (2 t^2) = 4 L d^2 / t^2
        assert bound_universal(2.0, 3.0, 1.5, 0.0, 10.0) == pytest.approx(
            bound_accelerated(3.0, 1.5, 10.0), rel=1e-12
        )

    def test_universal_nonsmooth_no_guarantee_at_zero_epsilon(self):
        assert bound_universal(1.0, 1.0, 1.0, 0.0, 100.0) == math.inf

    def test_universal_nonsmooth_shape(self):
        # s = 1: eps/2 + (c L^2 d^2 / (eps^2 t)) eps/2
        got = bound_universal(1.0, 1.0, 1.0, 0.1, 400.0)
        assert got == pytest.approx(0.05 + (4.0 / (0.01 * 400.0)) * 0.05, rel=1e-12)


class TestScheduleThreshold:
    def test_gamma2_tau0_equals_optimal_constant(self):
        cond = smooth_cond(kappa=25.0, tau=0.0)
        C_star = optimal_constant_smooth(cond, 1.0, 4.0)
        for k in range(1, 10):
            assert schedule_threshold(cond, 1.0, 4.0, 2.0, k) == pytest.approx(C_star, rel=1e-12)

    def test_growth_rate(self):
        cond = smooth_cond(kappa=25.0, tau=0.5)
        t1 = schedule_threshold(cond, 1.0, 4.0, 2.0, 1)
        t2 = schedule_threshold(cond, 1.0, 4.0, 2.0, 2)
        assert t2 / t1 == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_matches_optimal_schedule_at_gamma2(self):
        from restartopt import optimal_schedule_smooth

        cond = smooth_cond(kappa=7.0, tau=0.3)
        sched = optimal_schedule_smooth(cond, 2.5, 4.0)
        for k in range(1, 51):
            assert sched.term(k) == pytest.approx(
                schedule_threshold(cond, 2.5, 4.0, 2.0, k), rel=1e-12
            )

    def test_matches_optimal_holder_schedule_at_gamma_q(self):
        from restartopt import DerivedConditioning, optimal_schedule_holder

        for q, tau in ((0.5, 0.0), (0.5, 0.25), (2.0, 0.4)):
            cond = DerivedConditioning(kappa=3.0, tau=tau, q=q)
            sched, gamma = optimal_schedule_holder(cond, 1.5, 4.0)
            assert gamma == q
            for k in range(1, 30):
                assert sched.term(k) == pytest.approx(
                    schedule_threshold(cond, 1.5, 4.0, q, k), rel=1e-12
                )


class TestEnvelopeObjects:
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_monotone_nonincreasing_in_n(self, tau):
        cond = smooth_cond(kappa=12.0, tau=tau)
        envelopes = {
            "smooth": lambda N: bound_smooth(cond, 2.0, 4.0, N),
            "holder": lambda N: bound_holder(cond, 2.0, 8.0, N),
            "gradient_descent": lambda N: bound_gradient_descent(cond, 2.0, N),
            "adaptive": lambda N: bound_adaptive(cond, 2.0, 4.0, N),
            "rounded": lambda N: bound_rounded(2.0, 2.0, 10.0, tau, N),
        }
        grid = np.linspace(1.0, 3000.0, 60)
        for name, envelope in envelopes.items():
            values = [envelope(N) for N in grid]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:])), name
            assert envelope(0.0) >= 2.0 * (1 - 1e-12)

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_monotone_nondecreasing_in_kappa(self, tau):
        for N in (10.0, 200.0):
            values = [
                bound_smooth(smooth_cond(kappa, tau), 1.0, 4.0, N)
                for kappa in (1.0, 5.0, 50.0, 500.0)
            ]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
