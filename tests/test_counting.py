"""Counting statistics: large-deviation function, tilted covariance of the
Riccati oracle, the 4x4 spectrum of the spectral oracle, and flow moments.

Internal consistency anchors: theta(0) = 0, the finite-difference slope of
theta against the closed-form trace first moment, conservation of the three
per-channel flows, and the equal-rate closed forms.
"""

import dataclasses
import re

import numpy as np
import pytest

from noisecascade import counting
from noisecascade.cascaded import (
    ETA1_NOT_FINITE,
    ETA2_NOT_FINITE,
    GRAMIAN_FAILED,
    INADMISSIBLE,
    REASONS,
    RESPONSE_FAILED,
    UNSTABLE,
    ZERO_RATE,
    CascadedParams,
    LinearSystem,
    NumericalError,
    build_system,
    linear_response,
    raise_first,
)
from noisecascade.counting import flow_cumulants, large_deviation
from noisecascade.linalg import _maxabs, solve_lyapunov, stability_margin
from noisecascade.optomech import OmParams, map_to_cascaded
from equal_rate_flows import ClosedFlowsError, simplified_flows
from exact_cumulant_oracle import exact_cumulants
from riccati_oracle import UnstableEffectiveDriftError, solve_riccati_biased
import spectral_oracle

RNG = np.random.default_rng(20240819)


def random_stable_system(nbar_max=5.0, equal_rates=False, zero_f=False, rng=RNG):
    while True:
        if equal_rates:
            kappa = rng.uniform(0.3, 3.0)
            rates = dict(kappa1=kappa, kappa2=kappa, gamma1=kappa, gamma2=kappa)
        else:
            rates = dict(
                kappa1=rng.uniform(0.3, 3.0),
                kappa2=rng.uniform(0.3, 3.0),
                gamma1=rng.uniform(0.3, 3.0),
                gamma2=rng.uniform(0.3, 3.0),
            )
        p = CascadedParams(
            omega1=rng.uniform(-3, 3),
            omega2=rng.uniform(-3, 3),
            phi=rng.uniform(0, 2 * np.pi),
            F=0.0 if zero_f else rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
            nbar1=rng.uniform(0, nbar_max),
            nbar2=rng.uniform(0, nbar_max),
            nbar3=rng.uniform(0, nbar_max),
            **rates,
        )
        if stability_margin(build_system(p).M) < -0.05:
            return p


def point_theta(channel, s, sys):
    """theta of one system at one s; where it fails, ``raise_first`` raises."""
    theta, reason = large_deviation(channel, s, sys)
    raise_first(reason, s=s, channel=channel)
    return float(theta)


def point_cumulants(channel, sys):
    """The flow moments [eta^(1), eta^(2)] of one system; where they fail,
    ``raise_first`` raises."""
    etas, reason = flow_cumulants(channel, sys)
    raise_first(reason, margin=sys.margin, channel=channel)
    return etas


def oracle_tilting(channel, s, sys):
    """Tilting matrices (F-, F+) of the spectral oracle for one channel."""
    c = channel - 1
    return spectral_oracle.tilting(sys.U[..., c], sys.rate[..., c], sys.nbar[..., c], s)


def oracle_covariance(channel, s, sys):
    """Doubled biased covariance sigma_s, the stabilizing root of the tilted
    equation, from the oracle's Riccati solve; a stack gives (sigma_s, failed)."""
    Fminus, Fplus = oracle_tilting(channel, s, sys)
    with np.errstate(over="ignore", invalid="ignore"):
        fminus, fplus = 0.5 * Fminus, 0.5 * Fplus
        return solve_riccati_biased(sys.M, 2.0 * sys.N + fplus, fminus, fplus)


def spectral_theta(channel, s, sys):
    """(theta, failed) of the spectral oracle: the stable eigenvalues of the 4x4 H_s."""
    Fminus, Fplus = oracle_tilting(channel, s, sys)
    return spectral_oracle.large_deviation(sys.M, sys.N, Fminus, Fplus, s)


THERMAL = CascadedParams(
    omega1=0.0, omega2=1.5, kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
    phi=0.4, F=0.0, nbar1=3.0, nbar2=1.0, nbar3=0.5,
)
# the far-detuning reproducer of ROADMAP item 10; tests set omega2
FAR_DETUNED = CascadedParams(
    kappa1=1.0, kappa2=0.5, gamma1=0.8, gamma2=1.2, F=0.3, phi=0.3, nbar1=2.0, nbar2=1.0, nbar3=0.5,
)


class TestBiasMatrices:
    """The spectral oracle's tilting matrices, which every oracle comparison
    uses, and the package's zero-rate check."""

    def test_vanish_at_zero(self):
        sys = build_system(THERMAL)
        for ch in (1, 2, 3):
            Fminus, Fplus = oracle_tilting(ch, 0.0, sys)
            assert np.abs(Fminus).max() == 0.0
            assert np.abs(Fplus).max() == 0.0

    def test_local_channel_block_structure(self):
        sys = build_system(THERMAL)
        s = 0.02
        Fminus, _ = oracle_tilting(1, s, sys)
        nbar, rate = 3.0, 1.0
        fminus = rate * ((nbar + 1) * np.expm1(-s) - nbar * np.expm1(s))
        np.testing.assert_allclose(Fminus, fminus * np.diag([1.0, 0.0]), atol=1e-14)
        assert Fminus[1, 1] == 0.0

    def test_zero_rate_channel_rejected(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=0.0, gamma2=0.0,
                           nbar1=1.0)
        sys = build_system(p)
        for value, reason in (large_deviation(3, 0.0, sys), flow_cumulants(3, sys)):
            assert reason == ZERO_RATE and np.isnan(value).all()
            with pytest.raises(NumericalError, match="^channel 3 has zero rate$"):
                raise_first(reason, channel=3)


class TestChannelChecks:
    @pytest.mark.parametrize("channel", [0, -1, 4])
    def test_no_such_channel(self, channel):
        # channels are 1, 2, 3: 0 and -1 must not read a column from the end of U
        sys = build_system(THERMAL)
        with pytest.raises(ValueError, match="no channel"):
            large_deviation(channel, 0.1, sys)
        with pytest.raises(ValueError, match="no channel"):
            flow_cumulants(channel, sys)


class TestBiasedCovariance:
    def test_continuation_reproduces_unbiased_limit(self):
        sys = build_system(THERMAL)
        sigma0 = 2.0 * solve_lyapunov(sys.M, sys.N)[0]
        sigma = oracle_covariance(1, 1e-9, sys)
        assert np.abs(sigma - sigma0).max() < 1e-7 * np.abs(sigma0).max()

    def test_admissible_region_boundary_reported(self):
        sys = build_system(THERMAL)
        with pytest.raises(UnstableEffectiveDriftError):
            oracle_covariance(1, 50.0, sys)


class TestLargeDeviation:
    def test_exactly_zero_at_origin(self):
        sys = build_system(THERMAL)
        for ch in (1, 2, 3):
            assert point_theta(ch, 0.0, sys) == 0.0
        # also where no steady state exists: mode 1 is undamped
        undamped = dataclasses.replace(THERMAL, kappa1=0.0, gamma1=0.0)
        assert point_theta(2, 0.0, build_system(undamped)) == 0.0

    def test_slope_matches_trace_formula(self):
        h = 1e-4
        for _ in range(10):
            p = random_stable_system()
            sys = build_system(p)
            for ch in (1, 2, 3):
                slope = (
                    point_theta(ch, h, sys) - point_theta(ch, -h, sys)
                ) / (2 * h)
                eta = point_cumulants(ch, sys)[0]
                assert -slope == pytest.approx(eta, rel=1e-6, abs=1e-9)

    def test_matches_riccati_oracle(self):
        # theta from the spectrum of H_s against Re Tr(F+ sigma_s) - Re Tr F-
        # with the stabilizing root sigma_s of the oracle's Riccati solve
        rng = np.random.default_rng(8)
        s = np.linspace(-8.0, 8.0, 321)
        accepted = 0
        for _ in range(40):
            sys = build_system(random_stable_system(rng=rng))
            for ch in (1, 2, 3):
                theta, reason = large_deviation(ch, s, sys)
                failed = reason != 0
                sigma, oracle_failed = oracle_covariance(ch, s, sys)
                np.testing.assert_array_equal(failed, oracle_failed)
                Fminus, Fplus = oracle_tilting(ch, s[~failed], sys)
                ref = (np.trace(Fplus @ sigma[~failed], axis1=-2, axis2=-1).real
                       - np.trace(Fminus, axis1=-2, axis2=-1).real)
                ok = theta[~failed]
                assert (np.abs(ok - ref) <= 1e-12 * np.maximum(1.0, np.abs(ok))).all()
                accepted += ok.size
        assert accepted > 2000

    def test_oracle_root_is_newton_refined(self):
        # the Newton step takes the oracle's Riccati residual down to rounding;
        # the subspace solve alone leaves up to ~1e-13 of the largest term
        rng = np.random.default_rng(8)
        s = np.linspace(-8.0, 8.0, 321)
        for _ in range(10):
            sys = build_system(random_stable_system(rng=rng))
            for ch in (1, 2, 3):
                sigma, failed = oracle_covariance(ch, s, sys)
                Fminus, Fplus = oracle_tilting(ch, s[~failed], sys)
                fminus, fplus = 0.5 * Fminus, 0.5 * Fplus
                AX, XFX = (sys.M - fminus) @ sigma[~failed], sigma[~failed] @ fplus @ sigma[~failed]
                terms = (AX, AX.conj().swapaxes(-2, -1), XFX, 2.0 * sys.N + fplus)
                scale = np.maximum(np.max([np.abs(T).max(axis=(-2, -1)) for T in terms], 0), 1.0)
                residual = np.abs(sum(terms)).max(axis=(-2, -1))
                assert (residual <= 1e-14 * scale).all()

    def test_far_outside_admissible_region_flagged(self):
        # every admissible set seen is one interval with its edges at |s| <= 5,
        # so all of these s lie outside it
        rng = np.random.default_rng(0)
        s = np.geomspace(8.0, 710.0, 60)
        s = np.concatenate([-s[::-1], s])
        draws = 0
        while draws < 5:
            p = CascadedParams(
                omega1=rng.uniform(-3, 3), omega2=rng.uniform(-3, 3),
                kappa1=rng.uniform(0.3, 3), kappa2=rng.uniform(0.3, 3),
                gamma1=rng.uniform(0.3, 3), gamma2=rng.uniform(0.3, 3),
                phi=rng.uniform(0, 2 * np.pi),
                F=rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5),
                nbar1=rng.uniform(0, 5), nbar2=rng.uniform(0, 5), nbar3=rng.uniform(0, 5),
            )
            sys = build_system(p)
            if stability_margin(sys.M) >= 0.0:
                continue
            draws += 1
            for ch in (1, 2, 3):
                theta, reason = large_deviation(ch, s, sys)
                assert (reason == INADMISSIBLE).all(), (draws, ch, s[reason == 0], theta[reason == 0])
        with pytest.raises(NumericalError, match="at s = 50$"):
            point_theta(1, 50.0, build_system(THERMAL))

    def test_checks_and_scales_each_system_once(self, monkeypatch):
        # the admissibility scale comes from per-system maxima, so no 2x2
        # stack carries the s axis
        normed = []

        def spy_maxabs(X):
            normed.append(np.shape(X))
            return _maxabs(X)

        monkeypatch.setattr(counting, "_maxabs", spy_maxabs)
        p = CascadedParams(**{f.name: np.full(5, getattr(THERMAL, f.name))
                              for f in dataclasses.fields(CascadedParams)})
        p = dataclasses.replace(p, nbar1=np.linspace(0.0, 4.0, 5))
        theta, reason = large_deviation(1, np.linspace(-0.2, 0.2, 7)[:, None], build_system(p))
        assert theta.shape == (7, 5) and not reason.any()
        assert normed and all(shape == (5, 2, 2) for shape in normed), normed

    def test_zero_temperature_has_no_counting_statistics(self):
        # theta = 0 where no transport is possible: with every bath in its vacuum
        # no excitation is ever absorbed, at every s and on every channel
        rng = np.random.default_rng(15)
        s = np.linspace(-8.0, 8.0, 161)
        for _ in range(20):
            sys = build_system(random_stable_system(nbar_max=0.0, rng=rng))
            for ch in (1, 2, 3):
                theta, reason = large_deviation(ch, s, sys)
                assert not reason.any()
                assert np.abs(theta).max() <= 1e-10, (ch, np.abs(theta).max())

    def test_curvature_sign_is_stable_under_refinement(self):
        # theta is convex: its second derivative at 0 is the flow variance
        sys = build_system(THERMAL)
        for h in (2e-3, 1e-3):
            second = (
                point_theta(1, h, sys)
                - 2.0 * point_theta(1, 0.0, sys)
                + point_theta(1, -h, sys)
            ) / h**2
            assert second > 0.0


class TestSpectralOracle:
    """The closed form against the stable eigenvalues of the 4x4 H_s: the same
    theta to 1e-12 max(1, |theta|) and the same failed flags."""

    @staticmethod
    def assert_matches(sys, s, values=None):
        """The number of items compared; ``values`` masks the s at which the
        values are compared (all by default)."""
        values = np.ones(np.shape(s), bool) if values is None else values
        compared = 0
        for ch in (1, 2, 3):
            theta, reason = large_deviation(ch, s, sys)
            failed = reason != 0
            ref, ref_failed = spectral_theta(ch, s, sys)
            np.testing.assert_array_equal(failed, ref_failed)
            ok = ~failed & values
            error = np.abs(theta[ok] - ref[ok])
            assert (error <= 1e-12 * np.maximum(1.0, np.abs(ref[ok]))).all(), (ch, error.max())
            compared += ok.sum()
        return compared

    def test_random_systems(self):
        rng = np.random.default_rng(8)
        s = np.linspace(-8.0, 8.0, 321)
        compared = sum(self.assert_matches(build_system(random_stable_system(rng=rng)), s)
                       for _ in range(40))
        assert compared > 2000

    def test_equal_rate_jordan_systems(self):
        # F = 0 and Delta = 0 make the drift a Jordan block; H_s then often has
        # a double eigenvalue on the imaginary axis, which must stay flagged
        rng = np.random.default_rng(11)
        s = np.linspace(-8.0, 8.0, 321)
        compared = 0
        for _ in range(30):
            p = random_stable_system(equal_rates=True, zero_f=True, rng=rng)
            compared += self.assert_matches(build_system(dataclasses.replace(p, omega2=p.omega1)), s)
        assert compared > 1000

    def test_degenerate_zero_temperature(self):
        # equal rates, F = 0, Delta = 0 and all nbar = 0: the resolvent cubic has a
        # double root at 0 at every s.  The 4x4 eigenvalues lose digits on this
        # near-Jordan H_s as |s| grows (5e-9 at |s| = 8; the invariant test below
        # bounds the closed form there), so values are compared for |s| <= 3
        rng = np.random.default_rng(12)
        s = np.linspace(-8.0, 8.0, 321)
        compared = 0
        for _ in range(20):
            p = random_stable_system(nbar_max=0.0, equal_rates=True, zero_f=True, rng=rng)
            sys = build_system(dataclasses.replace(p, omega2=p.omega1))
            compared += self.assert_matches(sys, s, values=np.abs(s) <= 3.0)
        assert compared > 1000

    def test_hot_baths(self):
        rng = np.random.default_rng(13)
        s = np.linspace(-1.0, 1.0, 201)
        compared = sum(
            self.assert_matches(build_system(random_stable_system(nbar_max=50.0, rng=rng)), s)
            for _ in range(30)
        )
        assert compared > 1000

    def test_far_region_flagged_alike(self):
        rng = np.random.default_rng(14)
        s = np.geomspace(8.0, 710.0, 60)
        s = np.concatenate([-s[::-1], s])
        for _ in range(10):
            assert self.assert_matches(build_system(random_stable_system(rng=rng)), s) == 0

    @staticmethod
    def graded_systems(rng, count):
        """A stack of graded systems: rates 10^U(-6, 3), |F| 10^U(-6, 1), nbar
        10^U(-3, 3) with 20 % set to zero, keeping only drifts whose slowest
        decay is at least 1e-2 of max|M| (see test_weakly_damped_system)."""
        def graded(lo, hi):
            return 10.0 ** rng.uniform(lo, hi, count)

        def nbar():
            return np.where(rng.uniform(size=count) < 0.2, 0.0, graded(-3, 3))

        p = CascadedParams(
            omega1=rng.uniform(-3, 3, count), omega2=rng.uniform(-3, 3, count),
            kappa1=graded(-6, 3), kappa2=graded(-6, 3), gamma1=graded(-6, 3), gamma2=graded(-6, 3),
            phi=rng.uniform(0, 2 * np.pi, count),
            F=graded(-6, 1) * np.exp(2j * np.pi * rng.uniform(size=count)),
            nbar1=nbar(), nbar2=nbar(), nbar3=nbar(),
        )
        sys = build_system(p)
        slowest = np.abs(np.linalg.eigvals(sys.M).real).min(-1)
        damped = slowest >= 1e-2 * np.abs(sys.M).max(axis=(-2, -1))
        return LinearSystem(*(X[damped] for X in dataclasses.astuple(sys)))

    @staticmethod
    def edge_misses(sys, within):
        """(edges, misses): the edges of the oracle's admissible interval, and
        the probes at relative distance >= ``within`` from one where the two
        disagree on failed.  Each edge is bisected with the oracle to adjacent
        floats from a grid of s, then probed at 10^-1 ... 10^-15 of its s on
        both sides and at the two floats."""
        tail = np.geomspace(1e-8, 10.0, 50)
        coarse = np.sort(np.concatenate([np.linspace(-1.0, 1.0, 101), tail, -tail]))
        offsets = 10.0 ** -np.arange(1.0, 16.0)
        edges = misses = 0
        for ch in (1, 2, 3):
            _, failed = spectral_theta(ch, coarse[:, None], sys)
            for side in (coarse > 0.0, coarse < 0.0):
                ordered = np.nonzero(side)[0] if side[-1] else np.nonzero(side)[0][::-1]
                first = np.argmax(failed[ordered], axis=0)
                found = failed[ordered].any(axis=0) & (first > 0)
                inside, outside = coarse[ordered][first - 1], coarse[ordered][first]
                for _ in range(64):
                    mid = 0.5 * (inside + outside)
                    _, out = spectral_theta(ch, mid, sys)
                    inside, outside = np.where(out, inside, mid), np.where(out, mid, outside)
                step = offsets[:, None] * np.abs(outside) * np.sign(outside - inside)
                s = np.concatenate([inside - step, inside[None], outside[None], outside + step])
                s = np.where(found, s, 0.0)  # s = 0 passes on both sides
                _, reason = large_deviation(ch, s, sys)
                _, ref_failed = spectral_theta(ch, s, sys)
                far = np.concatenate([offsets >= within, [False, False], offsets >= within])
                misses += (((reason != 0) != ref_failed) & far[:, None]).sum()
                edges += found.sum()
        return edges, misses

    def test_admissible_edges_located_alike(self):
        # the package's per-point scale is never below max|H_ij| and at most a
        # few times it, so it can move an edge only where an eigenvalue of H_s
        # lies within a few 1e-9 max|H_ij| of the axis.  There two eigenvalues
        # nearly collide, and the closed form and eigvals both resolve them to
        # about sqrt(eps) max|H_ij| only, so the two are compared away from each
        # edge: at relative distance 1e-12 in s on systems with O(1) rates and
        # 1e-3 on graded ones.  A scale 10 times too large fails this.
        rng = np.random.default_rng(16)
        points = [random_stable_system(rng=rng) for _ in range(64)]
        p = CascadedParams(**{
            f.name: np.array([getattr(q, f.name) for q in points])
            for f in dataclasses.fields(CascadedParams)
        })
        edges, misses = self.edge_misses(build_system(p), within=1e-12)
        assert misses == 0 and edges > 200, (edges, misses)
        edges, misses = self.edge_misses(self.graded_systems(rng, 256), within=1e-3)
        assert misses == 0 and edges > 300, (edges, misses)

    @pytest.mark.xfail(strict=True, reason="the resolvent cubic loses theta where the damping "
                       "is far below the frequencies (ROADMAP item 10)")
    def test_weakly_damped_system(self):
        # rates from 1e-6 to 5e-2 against frequencies near 3: the stable sum of
        # H_s in 50-digit arithmetic on the same float inputs, with which the 4x4
        # oracle agrees to 1e-6; the closed form misses it by 3e-5 at s = -0.14
        # and rejects s = -0.1, where the nearest eigenvalue is 1168 times
        # 1e-9 max|H_ij| off the axis
        p = CascadedParams(omega1=2.84, omega2=-2.91, kappa1=0.000769, kappa2=5.7e-06,
                           gamma1=0.0547, gamma2=1.1e-06, phi=5.06, F=-8.53e-06 + 9.04e-06j,
                           nbar1=33.3, nbar2=0.0072, nbar3=24.2)
        theta, reason = large_deviation(1, np.array([-0.14, -0.1, 0.1]), build_system(p))
        assert not reason.any()
        exact = [0.03233977929446843, 0.01275229036481259, 0.016507755877874147]
        np.testing.assert_allclose(theta, exact, rtol=1e-9)

    @pytest.mark.parametrize("detuning", [
        1e1, 1e3,
        *(pytest.param(d, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="the resolvent cubic loses theta once the "
            "detuning passes about 1e4 linewidths (ROADMAP item 10)")) for d in (1e4, 1e5)),
    ])
    def test_far_detuned_system(self, detuning):
        # channel 1 with mode 2 detuned from mode 1: the same failed flags and
        # theta to 1e-8.  At 1e5 the closed form gives theta(-0.3) = -4.531
        # against -0.2121679, rejects s = 0.3 (0.7391350) and admits s = 1.0,
        # which lies beyond the oracle's edge, with theta = -3.536
        s = np.array([-0.3, 0.3, 1.0])
        sys = build_system(dataclasses.replace(FAR_DETUNED, omega2=detuning))
        theta, reason = large_deviation(1, s, sys)
        ref, ref_failed = spectral_theta(1, s, sys)
        np.testing.assert_array_equal(reason != 0, ref_failed)
        np.testing.assert_allclose(theta[~ref_failed], ref[~ref_failed], rtol=1e-8)

    def test_far_detuned_one_mode_limit(self):
        # as the detuning grows, channel 1 sees mode 1 alone between the baths
        # (kappa1, nbar1) and (gamma1, nbar3); the two-mode theta(-0.3) of the
        # oracle approaches it as O(1/detuning)
        p = FAR_DETUNED
        one_mode = LinearSystem(
            M=np.array([[-0.5 * (p.kappa1 + p.gamma1) + 0j]]),
            U=np.sqrt(np.array([[p.kappa1, p.gamma1]]) + 0j),
            rate=np.array([p.kappa1, p.gamma1]), nbar=np.array([p.nbar1, p.nbar3]),
        )
        limit, failed = spectral_theta(1, -0.3, one_mode)
        assert not failed and limit == pytest.approx(-0.2121687, abs=5e-8)
        for detuning in (1e3, 1e5):
            sys = build_system(dataclasses.replace(p, omega2=detuning))
            theta, failed = spectral_theta(1, -0.3, sys)
            assert not failed and abs(theta - limit) <= 0.1 / detuning, detuning

    def test_sweep_theta_om_points(self):
        # the 21 x 21 optomechanical grid of the sweep-theta-om benchmark, as a stack
        J, G2 = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.5, 21), indexing="ij")
        om = OmParams(omega_m=5.0, gamma_m=0.4, Delta1=5.0, Delta2=5.0, kappa1=1.0, kappa2=1.0,
                      G1=0.3, phi=np.pi / 2, Nbar1=2.0, Nbar2=4.0, Nbar_m=1.0,
                      J=J.ravel(), G2=G2.ravel())
        sys = build_system(map_to_cascaded(om))
        compared = sum(self.assert_matches(sys, s) for s in (-1.0, -0.3, -0.1, 0.1, 0.3, 0.5, 1.0))
        assert compared > 5000

    def test_no_eigenvalue_solve(self, monkeypatch):
        # the closed form builds no 4x4 matrix and calls no LAPACK routine
        def forbidden(*args, **kwargs):
            raise AssertionError("large_deviation called a 4x4 eigenvalue path")

        for name in ("eigvals", "eig", "solve", "inv", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        monkeypatch.setattr(np, "block", forbidden)
        theta, reason = large_deviation(3, np.linspace(-0.2, 0.2, 11), build_system(THERMAL))
        assert np.isfinite(theta).all() and not reason.any()


class TestFlowFirstMoment:
    def test_equilibrium_flows_vanish(self):
        p = CascadedParams(
            omega1=0.3, omega2=1.1, kappa1=1.0, kappa2=0.7, gamma1=0.5,
            gamma2=1.3, phi=0.9, F=0.4 + 0.2j, nbar1=2.0, nbar2=2.0, nbar3=2.0,
        )
        sys = build_system(p)
        for ch in (1, 2, 3):
            assert point_cumulants(ch, sys)[0] == pytest.approx(0.0, abs=1e-10)

    def test_conservation(self):
        for _ in range(50):
            p = random_stable_system()
            sys = build_system(p)
            etas = [point_cumulants(ch, sys)[0] for ch in (1, 2, 3)]
            scale = max(max(abs(e) for e in etas), 1e-12)
            assert abs(sum(etas)) <= 1e-9 * scale

    def test_hot_mode_feeds_its_bath(self):
        # first bath cold, common bath hot: excitations flow into bath 1
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                           nbar1=0.0, nbar2=0.0, nbar3=10.0)
        sys = build_system(p)
        assert point_cumulants(1, sys)[0] > 0.0
        assert point_cumulants(3, sys)[0] < 0.0


class TestFlowCumulant:
    def test_one_solve_gives_both_orders(self, monkeypatch):
        # sigma_0 and the Gramian share one stacked solve, and eta^(2) reads
        # sigma_1 through the Gramian: no other solve is made
        solve, calls = counting.solve_lyapunov, []

        def counted(A, N):
            calls.append(N.shape)
            return solve(A, N)

        monkeypatch.setattr(counting, "solve_lyapunov", counted)
        assert np.isfinite(point_cumulants(1, build_system(THERMAL))).all()
        assert calls == [(2, 2, 2)]

    def test_moment_beyond_the_float_range_fails(self):
        # eta^(2) grows like nbar^2: 5e299 at nbar1 = 1e150, beyond the float
        # range at 1e160, where the sum was NaN
        rates = dict(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0)
        point = build_system(CascadedParams(**rates, nbar1=1e150))
        assert point_cumulants(1, point) == [-1e150, 5e299]
        with pytest.raises(NumericalError, match="^flow cumulant of order 2 is not finite$"):
            point_cumulants(1, build_system(CascadedParams(**rates, nbar1=1e160)))
        sys = build_system(CascadedParams(**rates, nbar1=np.array([1e150, 1e160])))
        (eta1, eta2), reason = flow_cumulants(1, sys)
        # an item fails in both orders, its finite mean flow too
        assert reason.tolist() == [0, ETA2_NOT_FINITE] and eta2[0] == 5e299 and np.isnan(eta2[1])
        assert eta1[0] == -1e150 and np.isnan(eta1[1])

    def test_matches_spectral_theta_derivatives(self):
        # (-1)^n d^n theta/ds^n at 0 of the eigenvalue path, read off a Chebyshev
        # interpolant on 25 nodes, against the Gramian formulas; each bound is
        # about 10x the worst error seen over 4 seeds x 60 draws x 3 channels
        rng = np.random.default_rng(9)
        s = 0.1 * np.polynomial.chebyshev.chebpts1(25)
        bounds = {1: 2e-11, 2: 1e-9}
        for _ in range(60):
            p = random_stable_system(rng=rng)
            sys = build_system(p)
            for ch in (1, 2, 3):
                theta, reason = large_deviation(ch, s, sys)
                assert not reason.any()
                fit = np.polynomial.Chebyshev.fit(s, theta, 24, domain=[-0.1, 0.1])
                for n, eta in enumerate(point_cumulants(ch, sys), start=1):
                    ref = (-1) ** n * fit.deriv(n)(0.0)
                    assert abs(eta - ref) <= bounds[n] * max(1.0, abs(eta)), (ch, n, eta, ref)

    def test_matches_exact_oracle_on_graded_drifts(self):
        # rates 10^U(-6, 3) against the rational recursion on the same doubles
        # (tests/exact_cumulant_oracle.py), which solves for sigma_1 where the
        # package uses the Gramian.  Each bound is 10x the worst relative error
        # of the double recursion that solves for sigma_1 on these systems:
        # 5.5e-9 (order 1) and 2.1e-10 (order 2)
        rng = np.random.default_rng(0)
        bounds = {1: 5e-8, 2: 2e-9}
        for _ in range(30):
            r = 10.0 ** rng.uniform(-6.0, 3.0, 4)
            p = CascadedParams(
                omega2=rng.uniform(-5.0, 5.0), kappa1=r[0], kappa2=r[1], gamma1=r[2], gamma2=r[3],
                phi=rng.uniform(0.0, 2.0 * np.pi),
                F=rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
                nbar1=rng.uniform(0.0, 5.0), nbar2=rng.uniform(0.0, 5.0), nbar3=rng.uniform(0.0, 5.0),
            )
            sys = build_system(p)
            for ch in (1, 2, 3):
                c = ch - 1
                exact = exact_cumulants(sys.M, sys.N, sys.U[:, c], sys.rate[c], sys.nbar[c])
                for n, eta in enumerate(point_cumulants(ch, sys), start=1):
                    ref, bound = float(exact[n - 1]), bounds[n]
                    assert abs(eta - ref) <= bound * abs(ref), (ch, n, eta, ref)


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
            closed = simplified_flows(p)
            numeric = [point_cumulants(ch, sys)[0] for ch in (1, 2, 3)]
            np.testing.assert_allclose(numeric, closed, rtol=1e-9, atol=1e-10)

    def test_requires_equal_rates_and_zero_f(self):
        with pytest.raises(ClosedFlowsError, match="kappa1 = kappa2 = gamma1 = gamma2"):
            simplified_flows(CascadedParams(kappa1=1.0, kappa2=2.0,
                                            gamma1=1.0, gamma2=1.0))
        with pytest.raises(ClosedFlowsError, match="F = 0"):
            simplified_flows(CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0,
                                            gamma2=1.0, F=0.1))

    def test_arrays_raise_a_clear_error(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0, nbar1=[1.0, 2.0])
        with pytest.raises(ValueError, match="^simplified_flows takes one parameter point"):
            simplified_flows(p)


class TestStackedTraces:
    """A stack item equals its single-point call bit for bit.  The trace
    formulas take Tr(P sigma) = sum_ij P_ij sigma_ji without forming the
    product P sigma: the terms of one elementwise multiply, added in row-major
    order.  On the collective channel 3 this rounds differently from the
    trace of the matrix product."""

    @staticmethod
    def reference_trace(X):
        return np.trace(X, axis1=-2, axis2=-1)

    @staticmethod
    def reference_trace_product(X, Y):
        terms = X * Y.swapaxes(-2, -1)
        return terms[..., 0, 0] + terms[..., 0, 1] + terms[..., 1, 0] + terms[..., 1, 1]

    @staticmethod
    def stacked_system(count=64, points=None):
        points = points or [random_stable_system() for _ in range(count)]
        p = CascadedParams(**{
            f.name: np.array([getattr(q, f.name) for q in points])
            for f in dataclasses.fields(CascadedParams)
        })
        sys = build_system(p)
        Y, singular = solve_lyapunov(sys.M, sys.N)
        assert not singular.any()
        return sys, Y

    @staticmethod
    def items(sys):
        """The single systems of a stack."""
        return [LinearSystem(*(X[i] for X in dataclasses.astuple(sys))) for i in range(len(sys.M))]

    def test_first_moment_bit_identical(self):
        sys, Y = self.stacked_system()
        rate, nbar, u = sys.rate[..., 2], sys.nbar[..., 2], sys.U[..., 2]
        uhat = u / np.sqrt(rate)[..., None]
        P = uhat[..., :, None] * uhat.conj()[..., None, :]
        sigma = 2.0 * Y
        fp_prime, fm_prime = -rate, -rate * (2.0 * nbar + 1.0)
        trace = self.reference_trace_product(P, sigma).real
        ref = -(fp_prime * trace - fm_prime * self.reference_trace(P).real)
        (eta, _), reason = flow_cumulants(3, sys)
        assert not reason.any()
        np.testing.assert_array_equal(eta.view(np.int64), ref.view(np.int64))
        # the trace of the matrix product, as before, agrees to rounding (|P_ij| <= 1)
        matmul_trace = self.reference_trace(P @ sigma).real
        bound = 4 * np.finfo(float).eps * np.abs(sigma).max(axis=(-2, -1))
        assert (np.abs(trace - matmul_trace) <= bound).all()

    def test_large_deviation_bit_identical(self):
        # a sweep block evaluates theta on a stack of its points
        sys, _ = self.stacked_system()
        items = self.items(sys)
        for ch in (1, 2, 3):
            for s in (-0.2, 0.05, 0.3, 1.0):
                theta, reason = large_deviation(ch, s, sys)
                assert not reason.all()
                for i, item in enumerate(items):
                    single, single_reason = large_deviation(ch, s, item)
                    assert single_reason == reason[i], (ch, s, i)
                    assert single.view(np.int64) == theta[i].view(np.int64), (ch, s, i)

    def test_large_deviation_stack_flags_what_a_point_raises(self):
        # one failure rule for a point and a stack, s = 0 included: a stack
        # item has the reason of its single call, and equals it bit for bit.
        # Items: THERMAL, no collective channel, a zero-rate channel 1 with an
        # unstable drift.
        points = [THERMAL, dataclasses.replace(THERMAL, gamma1=0.0, gamma2=0.0),
                  dataclasses.replace(THERMAL, kappa1=0.0, gamma1=0.0)]
        p = CascadedParams(**{
            f.name: np.array([getattr(q, f.name) for q in points])
            for f in dataclasses.fields(CascadedParams)
        })
        sys = build_system(p)
        seen = set()
        for ch in (1, 2, 3):
            for s in (-0.2, 0.0, 0.1, 50.0, 800.0):
                theta, reason = large_deviation(ch, s, sys)
                for i, item in enumerate(self.items(sys)):
                    single, single_reason = large_deviation(ch, s, item)
                    assert single_reason == reason[i], (ch, s, i)
                    assert single.view(np.int64) == theta[i].view(np.int64), (ch, s, i)
                assert np.isnan(theta[reason != 0]).all()
                seen.update(reason.tolist())
        assert seen == {0, ZERO_RATE, INADMISSIBLE}

    def test_flow_cumulant_bit_identical(self):
        sys, _ = self.stacked_system(count=100)
        items = self.items(sys)
        for ch in (1, 2, 3):
            etas, reason = flow_cumulants(ch, sys)
            assert not reason.any()
            single = np.array([point_cumulants(ch, it) for it in items]).T
            np.testing.assert_array_equal(np.array(etas).view(np.int64), single.view(np.int64))

    def test_flow_cumulant_flags_failed_items(self):
        # item 1 has no collective channel; item 2's drift is marginal, so it
        # fails the stability check, before both orders
        no_common = dataclasses.replace(THERMAL, gamma1=0.0, gamma2=0.0)
        sys, _ = self.stacked_system(points=[THERMAL, no_common, THERMAL])
        sys = dataclasses.replace(sys, M=sys.M.copy())
        sys.M[2] = np.diag([0.0, -1.0])
        single = build_system(THERMAL)
        etas, reason = flow_cumulants(3, sys)
        assert reason.tolist() == [0, ZERO_RATE, UNSTABLE]
        assert np.isnan(np.array(etas)[:, 1:]).all()
        assert [eta[0] for eta in etas] == point_cumulants(3, single)


class TestReasons:
    """Every code of ``REASONS`` is reached by a stack item of real inputs.
    The item's one-point call reports the same code, and ``raise_first``
    raises NumericalError with the code's message, formatted at that item."""

    RATES = dict(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0)

    def assert_reaches(self, code, message, kernel, point, **fields):
        """``kernel`` (a system -> reason) on the stack [THERMAL, point] gives
        item 1 ``code`` and item 0 none, as on ``point`` alone; both raise
        ``message`` through ``raise_first``, with the margin of the system."""
        stack = build_system(CascadedParams(**{
            f.name: np.array([getattr(q, f.name) for q in (THERMAL, point)])
            for f in dataclasses.fields(CascadedParams)
        }))
        single = build_system(point)
        reason, single_reason = kernel(stack), kernel(single)
        assert reason.tolist() == [0, code] and single_reason == code, (code, reason)
        for sys, r in ((stack, reason), (single, single_reason)):
            with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                raise_first(r, margin=sys.margin, **fields)
        return code

    def test_every_code_is_reached(self):
        from test_sweeps_cli import LYAPUNOV_FAILURE

        failure = CascadedParams(**{k: complex(v) if k == "F" else v
                                    for k, v in LYAPUNOV_FAILURE.items()})

        def response(sys):
            return linear_response(sys)[2]

        def cumulants(channel):
            return lambda sys: flow_cumulants(channel, sys)[1]

        reached = {
            self.assert_reaches(UNSTABLE, "drift is not stable (margin 0.000e+00)", response,
                                CascadedParams(kappa1=0.0, kappa2=1.0)),
            self.assert_reaches(ZERO_RATE, "channel 3 has zero rate", cumulants(3),
                                CascadedParams(kappa1=1.0, kappa2=1.0, nbar1=1.0), channel=3),
            # a hot bath 1 narrows the admissible region of channel 1
            self.assert_reaches(INADMISSIBLE, "no stabilizing biased covariance at s = 0.1",
                                lambda sys: large_deviation(1, 0.1, sys)[1],
                                dataclasses.replace(THERMAL, nbar1=100.0), s=0.1),
            self.assert_reaches(RESPONSE_FAILED,
                                "Lyapunov solve of the response to the bath occupations failed",
                                response, failure),
            self.assert_reaches(GRAMIAN_FAILED,
                                "Lyapunov solve of the steady state or the channel's Gramian failed",
                                cumulants(1), failure),
        }
        # eta^(m) grows like nbar^m
        for m, code, nbar in ((1, ETA1_NOT_FINITE, 1e308), (2, ETA2_NOT_FINITE, 1e160)):
            reached.add(self.assert_reaches(code, f"flow cumulant of order {m} is not finite",
                                            cumulants(1), CascadedParams(**self.RATES, nbar1=nbar)))
        assert reached == set(REASONS)
