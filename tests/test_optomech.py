"""Optomechanical realization: susceptibility, linearization, the effective
drift, the mapping onto the cascaded model, and the non-reciprocity design.
"""

import math

import numpy as np
import pytest

from noisecascade.cascaded import InvalidParamsError, build_system
from noisecascade.linalg import stability_margin
from noisecascade.optomech import (
    TWO_PI,
    DegenerateCavityError,
    DriveSpec,
    NoCouplingError,
    OmParams,
    build_om_drift,
    combined_cavity_occupation,
    design_nonreciprocal,
    linearize,
    map_to_cascaded,
    mech_susceptibility,
    preset_microwave,
)

RNG = np.random.default_rng(20240820)


def random_om_params():
    omega_m = RNG.uniform(2.0, 10.0)
    return OmParams(
        omega_m=omega_m,
        gamma_m=RNG.uniform(0.05, 2.0),
        Delta1=RNG.uniform(-10, 10),
        Delta2=RNG.uniform(-10, 10),
        kappa1=RNG.uniform(0.2, 4.0),
        kappa2=RNG.uniform(0.2, 4.0),
        J=RNG.uniform(0, 2.0),
        phi=RNG.uniform(0, 2 * np.pi),
        G1=RNG.uniform(0.05, 1.5),
        G2=RNG.uniform(0.05, 1.5),
        Omega=omega_m + RNG.uniform(-0.5, 0.5),
        Nbar1=RNG.uniform(0, 5),
        Nbar2=RNG.uniform(0, 5),
        Nbar_m=RNG.uniform(0, 5),
    )


class TestParams:
    def test_omega_defaults_to_mechanical_resonance(self):
        p = OmParams(omega_m=5.0, gamma_m=0.1, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0)
        assert p.Omega == 5.0

    def test_kappa_split_defaults_to_fully_external(self):
        p = OmParams(omega_m=5.0, gamma_m=0.1, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=2.0, kappa_int1=0.25)
        assert p.kappa_ext1 == pytest.approx(0.75)
        assert p.kappa_ext2 == pytest.approx(2.0)

    def test_inconsistent_split_rejected(self):
        with pytest.raises(InvalidParamsError):
            OmParams(omega_m=5.0, gamma_m=0.1, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0, kappa_int1=0.5, kappa_ext1=0.9)

    def test_nonpositive_mechanical_damping_rejected(self):
        with pytest.raises(InvalidParamsError):
            OmParams(omega_m=5.0, gamma_m=0.0, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0)


class TestSusceptibility:
    def test_on_resonance_value(self):
        p = OmParams(omega_m=5.0, gamma_m=0.2, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0)
        sus = mech_susceptibility(5.0, p)
        assert sus.chi == pytest.approx(10.0)  # 2/gamma_m, purely real
        assert sus.nu == pytest.approx(0.0)

    def test_lorentzian_identity(self):
        # 2 Re chi = gamma_m |chi|^2 at every frequency
        p = random_om_params()
        for omega in np.linspace(p.omega_m - 5, p.omega_m + 5, 11):
            chi = mech_susceptibility(float(omega), p).chi
            assert 2.0 * chi.real == pytest.approx(p.gamma_m * abs(chi) ** 2)

    def test_gauge_form_has_reference_magnitude(self):
        p = random_om_params()
        sus = mech_susceptibility(p.Omega, p)
        # at omega = Omega the gauged susceptibility is |chi(Omega)|, real
        assert sus.chi_tilde == pytest.approx(abs(sus.chi))


class TestLinearize:
    def test_amplitude_formula(self):
        p = OmParams(omega_m=5.0, gamma_m=0.1, Delta1=3.0, Delta2=0.0,
                     kappa1=8.0, kappa2=2.0)
        res = linearize(DriveSpec(g1=0.5, g2=0.2, E1=50.0, E2=10.0), p)
        assert res.alpha1 == pytest.approx(100.0 / math.sqrt(36.0 + 64.0))
        assert res.alpha2 == pytest.approx(10.0)
        assert res.G1 == pytest.approx(0.5 * res.alpha1)
        assert res.G2 == pytest.approx(2.0)
        assert res.strong_drive

    def test_weak_drive_flagged(self):
        p = OmParams(omega_m=5.0, gamma_m=0.1, Delta1=0.0, Delta2=0.0,
                     kappa1=2.0, kappa2=2.0)
        res = linearize(DriveSpec(g1=0.1, g2=0.1, E1=1.0, E2=1.0), p)
        assert not res.strong_drive

    def test_degenerate_cavity_rejected(self):
        p = OmParams(omega_m=5.0, gamma_m=0.1, Delta1=0.0, Delta2=0.0,
                     kappa1=0.0, kappa2=1.0)
        with pytest.raises(DegenerateCavityError):
            linearize(DriveSpec(g1=0.1, g2=0.1, E1=1.0, E2=1.0), p)


class TestMapping:
    def test_drift_equivalence_at_reference_frequency(self):
        for _ in range(200):
            p = random_om_params()
            M_om, _ = build_om_drift(p, p.Omega)
            M_mapped = build_system(map_to_cascaded(p)).M
            scale = np.abs(M_om).max()
            assert np.abs(M_om - M_mapped).max() <= 1e-12 * max(scale, 1.0)

    def test_collective_coupling_equivalence(self):
        for _ in range(200):
            p = random_om_params()
            _, noise = build_om_drift(p, p.Omega)
            chi_mag = abs(mech_susceptibility(p.Omega, p).chi)
            u3 = build_system(map_to_cascaded(p)).channels[2].u
            expected = np.array(
                [p.G1 * math.sqrt(p.gamma_m) * chi_mag,
                 p.G2 * math.sqrt(p.gamma_m) * chi_mag * np.exp(1j * p.phi)]
            )
            assert np.abs(u3 - expected).max() <= 1e-12 * max(np.abs(u3).max(), 1.0)
            assert np.abs(noise - expected).max() <= 1e-12

    def test_bath_occupations_carry_over(self):
        p = random_om_params()
        cp = map_to_cascaded(p)
        assert (cp.nbar1, cp.nbar2, cp.nbar3) == (p.Nbar1, p.Nbar2, p.Nbar_m)

    def test_mechanical_damping_ratio(self):
        # gamma_i = 2 G_i^2 Re chi(Omega), so gamma1/gamma2 = (G1/G2)^2
        p = random_om_params()
        cp = map_to_cascaded(p)
        assert cp.gamma1 / cp.gamma2 == pytest.approx((p.G1 / p.G2) ** 2)


class TestDesign:
    def test_residual_vanishes(self):
        for _ in range(200):
            p = random_om_params()
            d = design_nonreciprocal(p)
            assert d.residual <= 1e-12 * d.j_star
            tuned = OmParams(**{**p.__dict__, "J": d.j_star, "phi": d.phi_star})
            assert abs(complex(map_to_cascaded(tuned).F)) <= 1e-9 * d.j_star

    def test_on_resonance_design_point(self):
        p = OmParams(omega_m=5.0, gamma_m=0.4, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0, G1=0.3, G2=0.2)
        d = design_nonreciprocal(p)
        # chi real on resonance: J* = 2 G1 G2 / gamma_m and the phase
        # quadrature-shifts the hopping
        assert d.j_star == pytest.approx(2.0 * 0.3 * 0.2 / 0.4)
        assert d.phi_star == pytest.approx(math.pi / 2.0)

    def test_requires_both_couplings(self):
        p = OmParams(omega_m=5.0, gamma_m=0.4, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0, G1=0.0, G2=0.2)
        with pytest.raises(NoCouplingError):
            design_nonreciprocal(p)


class TestPreset:
    def test_mapped_rates(self):
        p = preset_microwave()
        cp = map_to_cascaded(p)
        # large-bandwidth limit: gamma_i = 4 G^2 / gamma_m = 2 pi x 1.96 MHz
        expected = 4.0 * p.G1**2 / p.gamma_m
        assert cp.gamma1 == pytest.approx(expected, rel=1e-12)
        assert cp.gamma2 == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(TWO_PI * 1.96e6, rel=1e-9)

    def test_design_point_two_percent_off_quoted_hopping(self):
        p = preset_microwave()
        d = design_nonreciprocal(p)
        assert d.j_star == pytest.approx(TWO_PI * 0.98e6, rel=1e-9)
        assert abs(p.J - d.j_star) / p.J <= 0.02 + 1e-12

    def test_mapped_system_is_stable(self):
        cp = map_to_cascaded(preset_microwave())
        assert stability_margin(build_system(cp).M) < 0.0


class TestCombinedOccupation:
    def test_weighted_average(self):
        assert combined_cavity_occupation(3.0, 2.0, 1.0, 10.0) == pytest.approx(4.0)

    def test_pure_external(self):
        assert combined_cavity_occupation(1.0, 0.7, 0.0, 99.0) == pytest.approx(0.7)

    def test_zero_total_rejected(self):
        with pytest.raises(InvalidParamsError):
            combined_cavity_occupation(0.0, 1.0, 0.0, 1.0)


class TestArrayParams:
    """Array params against one scalar call per point, invalid items included."""

    def test_matches_per_point_calls(self):
        rng = np.random.default_rng(20261019)
        n = 96
        omega_m = rng.uniform(2.0, 10.0, n)
        fields = {
            "omega_m": omega_m,
            "gamma_m": rng.uniform(0.05, 2.0, n),
            "Delta1": rng.uniform(-10, 10, n),
            "Delta2": rng.uniform(-10, 10, n),
            "kappa1": rng.uniform(0.2, 4.0, n),
            "kappa2": rng.uniform(0.2, 4.0, n),
            "J": rng.uniform(0, 2.0, n),
            "phi": rng.uniform(0, 2 * np.pi, n),
            "G1": rng.uniform(0.05, 1.5, n),
            "G2": rng.uniform(0.05, 1.5, n),
            "Omega": omega_m + np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-0.5, 0.5, n)),
            "kappa_int2": rng.uniform(0.0, 0.1, n),
            "Nbar1": rng.uniform(0, 5, n),
            "Nbar2": rng.uniform(0, 5, n),
            "Nbar_m": rng.uniform(0, 5, n),
        }
        fields["kappa_int1"] = rng.uniform(0.0, 0.1, n)
        fields["kappa_ext1"] = fields["kappa1"] - fields["kappa_int1"]
        fields["gamma_m"][10:12] = [0.0, -0.3]
        fields["Omega"][10] = omega_m[10]  # chi(Omega) = 1/0, silent (pytest fails on warnings)
        fields["G2"][12] = -0.1
        fields["Nbar_m"][13] = -1.0
        fields["kappa_ext1"][14] += 1e-3  # the split does not add up to kappa1
        fields["kappa_int2"][15] = fields["kappa2"][15] + 0.5  # negative external part
        fields["Delta1"][16] = np.nan  # valid OmParams, non-finite mapping
        p = OmParams(**fields)
        invalid = p.invalid()
        mapped = map_to_cascaded(p)
        mapped_invalid = mapped.invalid()
        for i in range(n):
            point = {name: v[i].item() for name, v in fields.items()}
            try:
                q = OmParams(**point)
            except InvalidParamsError:
                assert invalid[i], i
                continue
            assert not invalid[i], i
            try:
                one = map_to_cascaded(q)
            except InvalidParamsError:
                assert mapped_invalid[i], i
                continue
            assert not mapped_invalid[i], i
            for name, value in vars(one).items():
                got = np.asarray(getattr(mapped, name)[i])
                assert got.tobytes() == np.asarray(value, got.dtype).tobytes(), (i, name)
        assert invalid.sum() == 6 and mapped_invalid[~invalid].sum() == 1

    def test_single_point_messages(self):
        base = dict(omega_m=5.0, gamma_m=0.1, Delta1=5.0, Delta2=5.0, kappa1=1.0, kappa2=1.0)
        cases = [
            ({"gamma_m": 0.0, "G1": -1.0}, "^gamma_m must be positive$"),
            ({"G2": -1.0, "Nbar1": -1.0}, "^effective couplings G1, G2 must be non-negative$"),
            ({"Nbar_m": -1.0}, "^Nbar_m must be non-negative$"),
            ({"kappa_int2": 2.0}, "^kappa splits of cavity 2 must be non-negative$"),
            ({"kappa_int1": 0.5, "kappa_ext1": 0.9}, r"^kappa_int1 \+ kappa_ext1 must equal"),
        ]
        for change, message in cases:
            with pytest.raises(InvalidParamsError, match=message):
                OmParams(**{**base, **change})
        cp = map_to_cascaded(OmParams(**base, G1=0.3, G2=0.2))
        assert all(np.ndim(v) == 0 for v in vars(cp).values())
        assert isinstance(cp.F, complex)
