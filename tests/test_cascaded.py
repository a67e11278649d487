"""Cascaded two-oscillator model: system construction, steady states,
closed-form occupations, baselines, and temperature conversions.

The key oracle is the equal-rate closed-form occupation pair, checked to
tight tolerance against the independent Lyapunov numeric path.
"""

import math

import numpy as np
import pytest

from noisecascade.cascaded import (
    CascadedParams,
    InvalidParamsError,
    UnstableSystemError,
    UnsupportedParamsError,
    build_system,
    closed_form_occupations,
    delta_n,
    disconnected_baseline,
    occupation_from_temperature,
    occupations,
    steady_state,
    temperature_from_occupation,
)
from noisecascade.linalg import stability_margin

RNG = np.random.default_rng(20240818)


def random_equal_rate_params(nbar_max=200.0):
    """Random stable equal-rate parameter set (redraws until stable)."""
    while True:
        kappa = RNG.uniform(0.1, 5.0)
        p = CascadedParams(
            omega1=RNG.uniform(-10, 10),
            omega2=RNG.uniform(-10, 10),
            kappa1=kappa,
            kappa2=kappa,
            gamma1=kappa,
            gamma2=kappa,
            phi=RNG.uniform(0, 2 * np.pi),
            F=RNG.uniform(-3, 3) + 1j * RNG.uniform(-3, 3),
            nbar1=RNG.uniform(0, nbar_max),
            nbar2=RNG.uniform(0, nbar_max),
            nbar3=RNG.uniform(0, nbar_max),
        )
        if stability_margin(build_system(p).M) < -1e-6:
            return p


class TestParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParamsError):
            CascadedParams(kappa1=-0.1)

    def test_negative_occupation_rejected(self):
        with pytest.raises(InvalidParamsError):
            CascadedParams(nbar2=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParamsError):
            CascadedParams(omega1=float("nan"))

    def test_detuning_and_collective_rate(self):
        p = CascadedParams(omega1=1.0, omega2=3.5, gamma1=0.4, gamma2=0.6)
        assert p.detuning == pytest.approx(2.5)
        assert p.collective_rate == pytest.approx(1.0)

    def test_equal_rate_guard(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0 + 1e-6)
        with pytest.raises(UnsupportedParamsError):
            p.equal_rate()


class TestBuildSystem:
    def test_drift_entries(self):
        p = CascadedParams(
            omega1=2.0, omega2=3.0, kappa1=1.0, kappa2=2.0,
            gamma1=0.25, gamma2=1.0, phi=np.pi / 2, F=0.5 + 0.25j,
        )
        sys = build_system(p)
        assert sys.M[0, 0] == pytest.approx(-2.0j - (0.25 + 1.0) / 2)
        assert sys.M[0, 1] == pytest.approx(-1j * (0.5 + 0.25j))
        # sqrt(gamma1 gamma2) e^{i phi} = 0.5j on top of -i conj(F)
        assert sys.M[1, 0] == pytest.approx(-1j * (0.5 - 0.25j) - 0.5j)
        assert sys.M[1, 1] == pytest.approx(-3.0j - (1.0 + 2.0) / 2)

    def test_channel_couplings(self):
        p = CascadedParams(kappa1=4.0, kappa2=9.0, gamma1=1.0, gamma2=4.0, phi=0.3)
        sys = build_system(p)
        np.testing.assert_allclose(sys.channels[0].u, [2.0, 0.0])
        np.testing.assert_allclose(sys.channels[1].u, [0.0, 3.0])
        np.testing.assert_allclose(
            sys.channels[2].u, [1.0, 2.0 * np.exp(0.3j)], atol=1e-15
        )

    def test_fluctuation_dissipation_structure(self):
        # the Hermitian part of M must equal minus half the channel projectors
        for _ in range(20):
            p = random_equal_rate_params(nbar_max=10.0)
            sys = build_system(p)
            total = sum(np.outer(ch.u, ch.u.conj()) for ch in sys.channels)
            np.testing.assert_allclose(sys.M + sys.M.conj().T, -total, atol=1e-12)

    def test_vacuum_noise_floor(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0)
        sys = build_system(p)
        # all baths at zero occupation: N = -herm(M) = half the projector sum
        np.testing.assert_allclose(sys.N, -0.5 * (sys.M + sys.M.conj().T), atol=1e-14)


class TestSteadyState:
    def test_vacuum_inputs_give_vacuum(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=0.5, gamma2=0.25, phi=0.7)
        V = steady_state(p)
        np.testing.assert_allclose(V, 0.5 * np.eye(2), atol=1e-10)

    def test_unstable_system_raises(self):
        with pytest.raises(UnstableSystemError):
            steady_state(CascadedParams(omega1=1.0, omega2=1.0))

    def test_single_mode_thermal(self):
        p = CascadedParams(kappa1=2.0, kappa2=2.0, nbar1=3.0, nbar2=7.0,
                           gamma1=0.0, gamma2=0.0)
        n1, n2 = occupations(steady_state(p))
        assert n1 == pytest.approx(3.0, abs=1e-12)
        assert n2 == pytest.approx(7.0, abs=1e-12)

    def test_closed_forms_match_numerics(self):
        for _ in range(100):
            p = random_equal_rate_params()
            n1c, n2c = closed_form_occupations(p)
            n1n, n2n = occupations(steady_state(p))
            assert abs(n1n - n1c) <= 1e-10 * max(abs(n1c), 1.0)
            assert abs(n2n - n2c) <= 1e-10 * max(abs(n2c), 1.0)

    def test_phase_gauge_invariance(self):
        # occupations depend on (F, phi) only through F e^{i phi} invariants
        for _ in range(20):
            p = random_equal_rate_params(nbar_max=20.0)
            alpha = RNG.uniform(0, 2 * np.pi)
            shifted = CascadedParams(
                omega1=p.omega1, omega2=p.omega2, kappa1=p.kappa1, kappa2=p.kappa2,
                gamma1=p.gamma1, gamma2=p.gamma2, phi=p.phi - alpha,
                F=p.F * np.exp(1j * alpha),
                nbar1=p.nbar1, nbar2=p.nbar2, nbar3=p.nbar3,
            )
            n_a = closed_form_occupations(p)
            n_b = closed_form_occupations(shifted)
            np.testing.assert_allclose(n_a, n_b, rtol=1e-12)


class TestDeltaN:
    def test_baseline_is_f_independent(self):
        base = dict(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                    nbar1=4.0, nbar2=6.0, nbar3=2.0)
        m_a = disconnected_baseline(CascadedParams(F=0.0, **base))
        m_b = disconnected_baseline(CascadedParams(F=2.0 + 1.0j, **base))
        assert m_a == m_b == (3.0, 4.0)

    def test_baseline_is_large_detuning_limit(self):
        base = dict(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                    nbar1=40.0, nbar2=10.0, nbar3=6.0)
        p_far = CascadedParams(omega1=0.0, omega2=1e7, **base)
        n_far = occupations(steady_state(p_far))
        m = disconnected_baseline(p_far)
        np.testing.assert_allclose(n_far, m, atol=1e-6)

    def test_nonreciprocal_dn1_zero(self):
        # F = 0: the first oscillator never sees the second
        p = CascadedParams(
            omega1=0.0, omega2=3.0, kappa1=1.0, kappa2=1.0, gamma1=1.0,
            gamma2=1.0, F=0.0, nbar1=100.0, nbar2=150.0, nbar3=0.0,
        )
        report = delta_n(p, numeric=True)
        assert abs(report.dn1) < 1e-10
        # dn2 carries the Lorentzian-weighted imbalance
        lorentz = 2.0 * 1.0 / (4.0 + 9.0)
        assert report.dn2 == pytest.approx(lorentz * (50.0 - 0.0), abs=1e-9)

    def test_report_differences_are_exact(self):
        p = random_equal_rate_params(nbar_max=50.0)
        r = delta_n(p)
        assert r.dn1 == r.n1 - r.m1
        assert r.dn2 == r.n2 - r.m2


class TestEquilibrium:
    def test_common_temperature_gives_thermal_state(self):
        for _ in range(30):
            p = random_equal_rate_params(nbar_max=0.0)
            nbar = RNG.uniform(0.0, 50.0)
            p = CascadedParams(
                omega1=p.omega1, omega2=p.omega2, kappa1=p.kappa1, kappa2=p.kappa2,
                gamma1=p.gamma1, gamma2=p.gamma2, phi=p.phi, F=p.F,
                nbar1=nbar, nbar2=nbar, nbar3=nbar,
            )
            for n in closed_form_occupations(p) + occupations(steady_state(p)):
                assert n == pytest.approx(nbar, abs=1e-10 * max(nbar, 1.0))


class TestTemperatureConversion:
    def test_round_trip(self):
        for T in (0.1, 1.0, 17.5):
            n = occupation_from_temperature(T, omega=2.0)
            assert temperature_from_occupation(n, omega=2.0) == pytest.approx(T)

    def test_zero_temperature(self):
        assert occupation_from_temperature(0.0, omega=1.0) == 0.0

    def test_high_temperature_is_classical(self):
        # equipartition: nbar -> kT / (hbar omega)
        n = occupation_from_temperature(1e6, omega=1.0)
        assert n == pytest.approx(1e6, rel=1e-5)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParamsError):
            occupation_from_temperature(-1.0, omega=1.0)
        with pytest.raises(InvalidParamsError):
            temperature_from_occupation(0.0, omega=1.0)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: bit for bit, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_array_fields(rng, n=96):
    """Random cascaded fields, one item per point, with invalid and unequal-rate items."""
    kappa = rng.uniform(0.1, 5.0, n)
    fields = {
        "omega1": rng.uniform(-10, 10, n),
        "omega2": rng.uniform(-10, 10, n),
        "phi": rng.uniform(0, 2 * np.pi, n),
        "F": rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n),
        **{f"nbar{i}": rng.uniform(0, 50, n) for i in (1, 2, 3)},
    }
    unequal = rng.random(n) < 0.3
    for name in ("kappa1", "kappa2", "gamma1", "gamma2"):
        fields[name] = np.where(unequal, rng.uniform(0.1, 5.0, n), kappa)
    fields["gamma2"][:3] = kappa[:3] * (1.0 + 1e-6)  # unequal just above the tolerance
    fields["F"][3:6] = [0.0, 2.0, -1.5j]  # real, imaginary and zero hopping
    fields["kappa1"][10] = -0.1
    fields["gamma2"][11] = -1e-9
    fields["nbar2"][12] = -1.0
    fields["omega1"][13] = np.nan
    fields["F"][14] = complex(np.inf, 0.0)
    fields["phi"][15] = np.nan
    fields["nbar3"][16] = np.inf
    return fields


class TestArrayParams:
    """Array params against one scalar call per point, invalid items included."""

    def test_matches_per_point_calls(self):
        rng = np.random.default_rng(20261018)
        fields = random_array_fields(rng)
        p = CascadedParams(**fields)
        invalid = p.invalid()
        kappa, unequal = p.equal_rate()
        sys = build_system(p)
        closed, closed_unequal = closed_form_occupations(p)
        base, base_unequal = disconnected_baseline(p)
        assert same_bits(kappa, p.kappa1)
        assert same_bits(closed_unequal, unequal) and same_bits(base_unequal, unequal)
        checked = set()
        for i in range(len(invalid)):
            point = {name: v[i].item() for name, v in fields.items()}
            try:
                q = CascadedParams(**point)
            except InvalidParamsError:
                assert invalid[i], i
                continue
            assert not invalid[i], i
            one = build_system(q)
            assert same_bits(sys.M[i], one.M) and same_bits(sys.N[i], one.N), i
            for ch, ch_one in zip(sys.channels, one.channels):
                assert ch.index == ch_one.index
                for name in ("u", "rate", "nbar"):
                    assert same_bits(getattr(ch, name)[i], getattr(ch_one, name)), (i, name)
            try:
                q.equal_rate()
            except UnsupportedParamsError:
                assert unequal[i], i
                checked.add("unequal")
                continue
            assert not unequal[i], i
            assert same_bits([c[i] for c in closed], closed_form_occupations(q)), i
            assert same_bits([m[i] for m in base], disconnected_baseline(q)), i
            checked.add("equal")
        assert invalid.sum() == 7 and checked == {"equal", "unequal"}

    def test_single_point_returns_and_messages(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0, F=0.5j, nbar1=2.0)
        assert p.equal_rate() == 1.0 and isinstance(p.equal_rate(), float)
        n1, n2 = closed_form_occupations(p)
        assert np.ndim(n1) == np.ndim(n2) == 0
        assert disconnected_baseline(p) == (1.0, 0.0)
        assert build_system(p).M.shape == (2, 2)
        with pytest.raises(InvalidParamsError, match="^gamma1 must be non-negative$"):
            CascadedParams(gamma1=-1.0, nbar1=-1.0)
        with pytest.raises(InvalidParamsError, match="^all parameters must be finite$"):
            CascadedParams(F=complex(0.0, np.nan))
        with pytest.raises(UnsupportedParamsError, match="kappa1 = kappa2 = gamma1 = gamma2"):
            closed_form_occupations(CascadedParams(kappa1=1.0))

    def test_scalars_broadcast_against_arrays(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=[1.0, 2.0], gamma2=1.0, F=0.1)
        assert all(np.shape(getattr(p, name)) == (2,) for name in vars(p))
        assert p.F.dtype == complex and p.kappa1.dtype == float
        assert build_system(p).M.shape == (2, 2, 2)
        (n1, _), unequal = closed_form_occupations(p)
        assert n1.shape == (2,) and unequal.tolist() == [False, True]
