"""Envelope formulas, schedule identities, and their algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartopt import (
    DerivedConditioning,
    GenericBound,
    bound_accelerated,
    bound_adaptive,
    bound_generic,
    bound_gradient_descent,
    bound_holder,
    bound_rounded,
    bound_smooth,
    bound_universal,
    optimal_constant_holder,
    optimal_constant_smooth,
    restart_count,
    schedule_threshold,
    schedule_total,
    ufgm_constant,
)

E = math.e
E_INV = 1.0 / math.e


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


class TestFloatRange:
    """Closed forms of a schedule's C, alpha or cycle index never raise on finite input."""

    def test_exp_range_ends_where_the_module_says(self):
        from restartopt.bounds import _LOG_MAX

        assert math.isfinite(math.exp(_LOG_MAX))
        with pytest.raises(OverflowError):
            math.exp(math.nextafter(_LOG_MAX, math.inf))

    def test_generic_envelope_of_a_short_constant_schedule_is_inf(self):
        # C = 3 < e sqrt(400): each cycle multiplies the gap by 400/9, e^1264 in all
        got = bound_generic(DerivedConditioning(100.0, 0.0, 2.0), 1.0, 4.0, 3.0, 0.0, 1000.0)
        assert got == (math.inf, False)

    def test_total_past_the_float_range_is_inf(self):
        assert schedule_total(2.0, 1.0, 1000) == math.inf

    def test_threshold_past_the_float_range_is_inf(self):
        cond = DerivedConditioning(100.0, 0.5, 2.0)
        assert schedule_threshold(cond, 1.0, 4.0, 2.0, 2000) == math.inf

    def test_count_at_a_steep_schedule_is_finite(self):
        # (e^800 - 1) / e^800 rounds to 1: R = log(1 + N/C) / alpha
        got = restart_count(2.0, 800.0, 1e300)
        assert got == pytest.approx(0.8626029758970672, rel=1e-15)
        assert got == math.log1p(1e300 / 2.0) / 800.0

    def test_rounded_envelope_at_a_steep_schedule_is_finite(self):
        # N' = 10 - log(6)/800, and e^-800 rounds to 0, so the envelope stays at nu
        assert bound_rounded(1.0, 1.0, 2.0, 800.0, 10.0) == 1.0

    def test_only_an_intermediate_past_the_range_gives_the_finite_value(self):
        # C e^alpha / (e^alpha - 1) e^(alpha R) at C = 1e-300: e^710 alone overflows
        expected = math.exp(710.0 + math.log(1e-300 / -math.expm1(-1.0)))
        assert schedule_total(1e-300, 1.0, 710) == pytest.approx(expected, rel=1e-12)
        # eps0^(-tau/q) = 1e-50 brings e^(gamma tau k / q) = e^750 back into range
        cond = DerivedConditioning(100.0, 0.5, 2.0)
        got = schedule_threshold(cond, 1e200, 4.0, 2.0, 1500)
        expected = math.exp(0.5 + 750.0 + math.log(20.0) - 50.0 * math.log(10.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_guarantee_threshold_past_the_float_range_is_not_met(self):
        # C(alpha) = e^(800 (1 - 0.5)/0.5) sqrt(400): no finite C meets it
        got = bound_generic(DerivedConditioning(100.0, 0.5, 2.0), 1.0, 4.0, 1e300, 800.0, 10.0)
        assert not got.guaranteed and 0.0 < got.value <= 1.0

    def test_huge_constant_gives_the_finite_value(self):
        # C^2 passes the float range; (400 / C^2)^(N/C) is 1 to rounding at N/C = 1e-199
        got = bound_generic(DerivedConditioning(100.0, 0.0, 2.0), 1.0, 4.0, 1e200, 0.0, 10.0)
        assert got.guaranteed and got.value == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# The envelopes as each was written before it became an instance of one closed
# form: the references the folded functions are held to.


def ref_bound_smooth(cond, gap0, c, N):
    ck = c * cond.kappa
    if cond.tau == 0.0:
        return gap0 * math.exp(-2.0 * E_INV * ck ** -0.5 * N)
    a = E_INV * gap0 ** (cond.tau / 2.0) * ck ** -0.5
    return gap0 * math.exp(-(2.0 / cond.tau) * math.log1p(cond.tau * a * N))


def ref_bound_generic(cond, gap0, c, C, alpha, N):
    ck = c * cond.kappa
    if cond.tau == 0.0:
        guaranteed = C >= math.e * math.sqrt(ck)
        value = gap0 * math.exp((N / C) * math.log(ck / C**2))
        return GenericBound(value, guaranteed)
    c_alpha = (
        math.exp(alpha * (1.0 - cond.tau) / cond.tau)
        * math.sqrt(ck)
        * gap0 ** (-cond.tau / 2.0)
    )
    guaranteed = C >= c_alpha
    if alpha == 0.0:
        return GenericBound(gap0, guaranteed)
    value = gap0 * math.exp(
        -(2.0 / cond.tau) * math.log1p(alpha * math.exp(-alpha) * N / C)
    )
    return GenericBound(value, guaranteed)


def ref_bound_holder(cond, eps0, c, N):
    rate = (c * cond.kappa) ** (-cond.s / (2.0 * cond.q))
    if cond.tau == 0.0:
        return eps0 * math.exp(-cond.q * E_INV * rate * N)
    a = E_INV * rate * eps0 ** (cond.tau / cond.q)
    return eps0 * math.exp(-(cond.q / cond.tau) * math.log1p(cond.tau * a * N))


def ref_bound_adaptive(cond, gap0, c, N):
    ck = c * cond.kappa
    if cond.tau == 0.0:
        return gap0 * math.exp(-E_INV * ck ** -0.5 * N)
    a = E_INV * ck ** -0.5 * gap0 ** (cond.tau / 2.0)
    return gap0 * math.exp(
        -(2.0 / cond.tau) * math.log1p(cond.tau * a * (N - 1.0) / 4.0)
    )


def ref_bound_rounded(nu, gamma, C, alpha, N):
    if alpha == 0.0:
        return nu * math.exp(-gamma * N / (C + 1.0))
    n_prime = N - math.log1p(math.expm1(alpha) * math.exp(-alpha) * N / C) / alpha
    return nu * math.exp(
        -(gamma / alpha) * math.log1p(alpha * math.exp(-alpha) * n_prime / C)
    )


def ref_bound_universal(s, L, dist0, epsilon, t, c=None):
    if c is None:
        c = ufgm_constant(s)
    q = (3.0 * s - 2.0) / 2.0
    if epsilon == 0.0:
        if s == 2.0:
            return c * L * dist0**2 / (2.0 * t ** (2.0 * q / s))
        return math.inf
    ratio = c * L ** (2.0 / s) * dist0**2 / (epsilon ** (2.0 / s) * t ** (2.0 * q / s))
    return epsilon / 2.0 + ratio * epsilon / 2.0


def ref_optimal_constant_smooth(cond, gap0, c):
    return (
        math.exp(1.0 - cond.tau)
        * math.sqrt(c * cond.kappa)
        * gap0 ** (-cond.tau / 2.0)
    )


def log_uniform(rng, low, high):
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def draws(count=10**4, seed=20170309):
    """Seeded parameters: kappa log-uniform in [1, 1e8], r in [2, 8] (r = 2, so
    tau = 0, in a quarter of draws), gap0 in [1e-6, 1e6], N in [1, 1e5], C in
    [0.1, 1e4], alpha in (0, 2] (0 in a quarter of draws), and s in [1, 2] for
    the Hölder envelope (2 in half of them)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = 2.0 if rng.random() < 0.25 else float(rng.uniform(2.0, 8.0))
        s = 2.0 if rng.random() < 0.5 else float(rng.uniform(1.0, 2.0))
        yield dict(
            kappa=log_uniform(rng, 1.0, 1e8), tau=1.0 - 2.0 / r, r=r, s=s,
            gap0=log_uniform(rng, 1e-6, 1e6), N=log_uniform(rng, 1.0, 1e5),
            C=log_uniform(rng, 0.1, 1e4), c=float(rng.choice([4.0, 8.0, rng.uniform(1.0, 10.0)])),
            alpha=0.0 if rng.random() < 0.25 else float(2.0 - rng.uniform(0.0, 2.0)),
            gamma=float(rng.uniform(0.1, 4.0)),
        )


def same_bits(new, ref):
    """new == ref where ref is in the float range; where ref overflows, new is a number.

    Where ref leaves its domain (a rounded envelope at an N' below -C e^alpha / alpha),
    new raises the same ValueError.
    """
    try:
        expected = ref()
    except OverflowError:
        got = new()
        return not math.isnan(got[0] if isinstance(got, tuple) else got)
    except ValueError:
        with pytest.raises(ValueError):
            new()
        return True
    return new() == expected


class TestFoldedEnvelopesMatchTheirReferences:
    def test_bitwise(self):
        for d in draws():
            cond = smooth_cond(d["kappa"], d["tau"])
            gap0, c, N, C, alpha, gamma = (d[k] for k in ("gap0", "c", "N", "C", "alpha", "gamma"))
            s = d["s"]
            holder = DerivedConditioning(d["kappa"], max(0.0, 1.0 - s / d["r"]), (3 * s - 2) / 2)
            pairs = [
                (lambda: bound_holder(holder, gap0, c, N),
                 lambda: ref_bound_holder(holder, gap0, c, N)),
                (lambda: bound_adaptive(cond, gap0, c, N),
                 lambda: ref_bound_adaptive(cond, gap0, c, N)),
                (lambda: bound_generic(cond, gap0, c, C, alpha, N),
                 lambda: ref_bound_generic(cond, gap0, c, C, alpha, N)),
                (lambda: bound_rounded(gap0, gamma, C, alpha, N),
                 lambda: ref_bound_rounded(gap0, gamma, C, alpha, N)),
            ]
            if d["tau"] == 0.0:
                pairs.append((lambda: bound_smooth(cond, gap0, c, N),
                              lambda: ref_bound_smooth(cond, gap0, c, N)))
            for new, ref in pairs:
                assert same_bits(new, ref), d

    def test_universal_bitwise(self):
        rng = np.random.default_rng(1702)
        for _ in range(10**4):
            s = 2.0 if rng.random() < 0.5 else float(rng.uniform(1.0, 2.0))
            args = (s, log_uniform(rng, 1e-3, 1e6), log_uniform(rng, 1e-3, 1e3),
                    0.0 if rng.random() < 0.5 else log_uniform(rng, 1e-8, 1.0),
                    log_uniform(rng, 1.0, 1e5))
            c = None if rng.random() < 0.5 else float(rng.uniform(1.0, 10.0))
            assert bound_universal(*args, c) == ref_bound_universal(*args, c), (args, c)

    def test_smooth_at_positive_tau_within_1e_12(self):
        for d in draws():
            if d["tau"] > 0.0:
                cond = smooth_cond(d["kappa"], d["tau"])
                got = bound_smooth(cond, d["gap0"], d["c"], d["N"])
                ref = ref_bound_smooth(cond, d["gap0"], d["c"], d["N"])
                assert abs(got - ref) <= 1e-12 * ref, d

    def test_optimal_constant_smooth_within_4_ulps(self):
        for d in draws():
            cond = smooth_cond(d["kappa"], d["tau"])
            got = optimal_constant_smooth(cond, d["gap0"], d["c"])
            ref = ref_optimal_constant_smooth(cond, d["gap0"], d["c"])
            assert got == optimal_constant_holder(cond, d["gap0"], d["c"])
            assert abs(got - ref) <= 4 * math.ulp(ref), d
