"""Counting statistics: tilted covariance, large-deviation function and
flow moments.

Internal consistency anchors: theta(0) = 0, the finite-difference slope of
theta against the closed-form trace first moment, conservation of the three
per-channel flows, and the equal-rate closed forms.
"""

import dataclasses

import numpy as np
import pytest

from noisecascade.cascaded import CascadedParams, build_system, steady_state
from noisecascade.counting import (
    OutsideAdmissibleRegionError,
    ZeroRateChannelError,
    _channel,
    bias_matrices,
    biased_covariance,
    flow_cumulant,
    flow_first_moment,
    large_deviation,
    simplified_flows,
)
from noisecascade.linalg import solve_lyapunov, stability_margin

RNG = np.random.default_rng(20240819)


def random_stable_system(nbar_max=5.0, equal_rates=False, zero_f=False):
    while True:
        if equal_rates:
            kappa = RNG.uniform(0.3, 3.0)
            rates = dict(kappa1=kappa, kappa2=kappa, gamma1=kappa, gamma2=kappa)
        else:
            rates = dict(
                kappa1=RNG.uniform(0.3, 3.0),
                kappa2=RNG.uniform(0.3, 3.0),
                gamma1=RNG.uniform(0.3, 3.0),
                gamma2=RNG.uniform(0.3, 3.0),
            )
        p = CascadedParams(
            omega1=RNG.uniform(-3, 3),
            omega2=RNG.uniform(-3, 3),
            phi=RNG.uniform(0, 2 * np.pi),
            F=0.0 if zero_f else RNG.uniform(-1, 1) + 1j * RNG.uniform(-1, 1),
            nbar1=RNG.uniform(0, nbar_max),
            nbar2=RNG.uniform(0, nbar_max),
            nbar3=RNG.uniform(0, nbar_max),
            **rates,
        )
        if stability_margin(build_system(p).M) < -0.05:
            return p


THERMAL = CascadedParams(
    omega1=0.0, omega2=1.5, kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
    phi=0.4, F=0.0, nbar1=3.0, nbar2=1.0, nbar3=0.5,
)


class TestBiasMatrices:
    def test_vanish_at_zero(self):
        sys = build_system(THERMAL)
        for ch in (1, 2, 3):
            b = bias_matrices(ch, 0.0, sys)
            assert np.abs(b.Fminus).max() == 0.0
            assert np.abs(b.Fplus).max() == 0.0

    def test_local_channel_block_structure(self):
        sys = build_system(THERMAL)
        s = 0.02
        b = bias_matrices(1, s, sys)
        nbar, rate = 3.0, 1.0
        fminus = rate * ((nbar + 1) * np.expm1(-s) - nbar * np.expm1(s))
        np.testing.assert_allclose(b.Fminus, fminus * np.diag([1.0, 0.0]), atol=1e-14)
        assert b.Fminus[1, 1] == 0.0

    def test_zero_rate_channel_rejected(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=0.0, gamma2=0.0,
                           nbar1=1.0)
        sys = build_system(p)
        with pytest.raises(ZeroRateChannelError):
            bias_matrices(3, 0.1, sys)


class TestBiasedCovariance:
    def test_continuation_reproduces_unbiased_limit(self):
        sys = build_system(THERMAL)
        sigma0 = 2.0 * steady_state(THERMAL)
        sigma = biased_covariance(1, 1e-9, sys)
        assert np.abs(sigma - sigma0).max() < 1e-7 * np.abs(sigma0).max()

    def test_admissible_region_boundary_reported(self):
        sys = build_system(THERMAL)
        with pytest.raises(OutsideAdmissibleRegionError):
            biased_covariance(1, 50.0, sys)


class TestLargeDeviation:
    def test_exactly_zero_at_origin(self):
        sys = build_system(THERMAL)
        V = steady_state(THERMAL)
        for ch in (1, 2, 3):
            assert large_deviation(ch, 0.0, sys, V) == 0.0

    def test_slope_matches_trace_formula(self):
        h = 1e-4
        for _ in range(10):
            p = random_stable_system()
            sys = build_system(p)
            V = steady_state(p)
            for ch in (1, 2, 3):
                slope = (
                    large_deviation(ch, h, sys, V) - large_deviation(ch, -h, sys, V)
                ) / (2 * h)
                eta = flow_first_moment(ch, sys, V)
                assert -slope == pytest.approx(eta, rel=1e-6, abs=1e-9)

    def test_curvature_sign_is_stable_under_refinement(self):
        # theta is convex: its second derivative at 0 is the flow variance
        sys = build_system(THERMAL)
        V = steady_state(THERMAL)
        for h in (2e-3, 1e-3):
            second = (
                large_deviation(1, h, sys, V)
                - 2.0 * large_deviation(1, 0.0, sys, V)
                + large_deviation(1, -h, sys, V)
            ) / h**2
            assert second > 0.0


class TestFlowFirstMoment:
    def test_equilibrium_flows_vanish(self):
        p = CascadedParams(
            omega1=0.3, omega2=1.1, kappa1=1.0, kappa2=0.7, gamma1=0.5,
            gamma2=1.3, phi=0.9, F=0.4 + 0.2j, nbar1=2.0, nbar2=2.0, nbar3=2.0,
        )
        sys = build_system(p)
        V = steady_state(p)
        for ch in (1, 2, 3):
            assert flow_first_moment(ch, sys, V) == pytest.approx(0.0, abs=1e-10)

    def test_conservation(self):
        for _ in range(50):
            p = random_stable_system()
            sys = build_system(p)
            V = steady_state(p)
            etas = [flow_first_moment(ch, sys, V) for ch in (1, 2, 3)]
            scale = max(max(abs(e) for e in etas), 1e-12)
            assert abs(sum(etas)) <= 1e-9 * scale

    def test_hot_mode_feeds_its_bath(self):
        # first bath cold, common bath hot: excitations flow into bath 1
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                           nbar1=0.0, nbar2=0.0, nbar3=10.0)
        sys = build_system(p)
        V = steady_state(p)
        assert flow_first_moment(1, sys, V) > 0.0
        assert flow_first_moment(3, sys, V) < 0.0


class TestFlowCumulant:
    def test_first_order_matches_trace_formula(self):
        for _ in range(10):
            p = random_stable_system()
            sys = build_system(p)
            V = steady_state(p)
            ch = int(RNG.integers(1, 4))
            eta_fd = flow_cumulant(ch, 1, sys, V, h=1e-4)
            eta = flow_first_moment(ch, sys, V)
            assert eta_fd == pytest.approx(eta, rel=1e-6, abs=1e-9)

    def test_h_refinement_converged(self):
        sys = build_system(THERMAL)
        V = steady_state(THERMAL)
        a = flow_cumulant(1, 1, sys, V, h=1e-3)
        b = flow_cumulant(1, 1, sys, V, h=5e-4)
        assert b == pytest.approx(a, rel=1e-8)

    def test_order_bounds(self):
        sys = build_system(THERMAL)
        V = steady_state(THERMAL)
        with pytest.raises(ValueError):
            flow_cumulant(1, 0, sys, V)
        with pytest.raises(ValueError):
            flow_cumulant(1, 5, sys, V)

    def test_higher_orders_evaluate(self):
        sys = build_system(THERMAL)
        V = steady_state(THERMAL)
        for n in (2, 3, 4):
            assert np.isfinite(flow_cumulant(1, n, sys, V, h=5e-3))


class TestSimplifiedFlows:
    def test_sum_is_zero_identically(self):
        for _ in range(20):
            p = random_stable_system(equal_rates=True, zero_f=True)
            e1, e2, e3 = simplified_flows(p)
            assert e1 + e2 + e3 == pytest.approx(0.0, abs=1e-12 * max(abs(e1), 1.0))

    def test_equal_occupations_give_zero(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                           nbar1=2.0, nbar2=2.0, nbar3=2.0)
        assert simplified_flows(p) == (0.0, 0.0, 0.0)

    def test_matches_trace_formula(self):
        for _ in range(100):
            p = random_stable_system(equal_rates=True, zero_f=True)
            sys = build_system(p)
            V = steady_state(p)
            closed = simplified_flows(p)
            numeric = [flow_first_moment(ch, sys, V) for ch in (1, 2, 3)]
            np.testing.assert_allclose(numeric, closed, rtol=1e-9, atol=1e-10)

    def test_requires_equal_rates_and_zero_f(self):
        from noisecascade.cascaded import UnsupportedParamsError

        with pytest.raises(UnsupportedParamsError):
            simplified_flows(CascadedParams(kappa1=1.0, kappa2=2.0,
                                            gamma1=1.0, gamma2=1.0))
        with pytest.raises(UnsupportedParamsError):
            simplified_flows(CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0,
                                            gamma2=1.0, F=0.1))


class TestStackedTraces:
    """The trace formulas keep the matrix product and trace its diagonal: on the
    collective channel 3, a fused product-and-trace rounds differently."""

    @staticmethod
    def reference_trace(X):
        return np.trace(X, axis1=-2, axis2=-1)

    @staticmethod
    def stacked_system(count=64):
        points = [random_stable_system() for _ in range(count)]
        p = CascadedParams(**{
            f.name: np.array([getattr(q, f.name) for q in points])
            for f in dataclasses.fields(CascadedParams)
        })
        sys = build_system(p)
        Y, singular = solve_lyapunov(sys.M, sys.N)
        assert not singular.any()
        return sys, Y

    def test_flow_first_moment_bit_identical(self):
        sys, Y = self.stacked_system()
        ch = next(c for c in sys.channels if c.index == 3)
        _, P, _ = _channel(sys, 3)
        sigma = 2.0 * Y
        fp_prime, fm_prime = -ch.rate, -ch.rate * (2.0 * ch.nbar + 1.0)
        ref = -(fp_prime * self.reference_trace(P @ sigma).real
                - fm_prime * self.reference_trace(P).real)
        eta, zero_rate = flow_first_moment(3, sys, Y)
        assert not zero_rate.any()
        np.testing.assert_array_equal(eta.view(np.int64), ref.view(np.int64))

    def test_large_deviation_bit_identical(self):
        sys, Y = self.stacked_system()
        for s in (-0.2, 0.05, 0.3):
            bias = bias_matrices(3, s, sys)
            sigma, failed = biased_covariance(3, s, sys)
            ref = (self.reference_trace(bias.Fplus @ sigma).real
                   - self.reference_trace(bias.Fminus).real)
            theta, theta_failed = large_deviation(3, s, sys, Y)
            np.testing.assert_array_equal(theta_failed, failed)
            assert not failed.all()
            np.testing.assert_array_equal(
                theta[~failed].view(np.int64), ref[~failed].view(np.int64)
            )
