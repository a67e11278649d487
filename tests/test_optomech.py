"""Optomechanical realization: susceptibility, the effective drift, the
mapping onto the cascaded model, and the non-reciprocity design.

Array parameters are checked against one scalar call per point, bit for bit;
the parameter rule that OmParams shares with CascadedParams (broadcast
storage, invalid() against the single-point errors and their messages) is
tested in test_cascaded.TestParamRule.
"""

import dataclasses
import math

import numpy as np
import pytest

from noisecascade.cascaded import NumericalError, SchemaError, build_system
from noisecascade.linalg import stability_margin
from noisecascade.optomech import (
    TWO_PI,
    OmParams,
    build_om_drift,
    design_nonreciprocal,
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


def random_om_fields(rng, n):
    """Random OmParams fields, one item per point; Omega is omega_m on about half."""
    omega_m = rng.uniform(2.0, 10.0, n)
    return {
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
        "Nbar1": rng.uniform(0, 5, n),
        "Nbar2": rng.uniform(0, 5, n),
        "Nbar_m": rng.uniform(0, 5, n),
    }


class TestParams:
    def test_frozen(self):
        # one point is checked only at construction, so its fields cannot change
        p = random_om_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.gamma_m = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.Omega = None

    def test_omega_defaults_to_mechanical_resonance(self):
        p = OmParams(omega_m=5.0, gamma_m=0.1, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0)
        assert p.Omega == 5.0

    def test_nonpositive_mechanical_damping_rejected(self):
        with pytest.raises(SchemaError):
            OmParams(omega_m=5.0, gamma_m=0.0, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0)

    def test_every_field_reaches_the_mapping(self):
        # a field that no computation reads would be an option without effect
        base = dict(omega_m=5.0, gamma_m=0.4, Delta1=4.0, Delta2=6.0, kappa1=1.0, kappa2=1.5,
                    J=0.3, phi=0.7, G1=0.3, G2=0.5, Omega=5.2, Nbar1=1.0, Nbar2=2.0, Nbar_m=0.5)
        assert set(base) == {f.name for f in dataclasses.fields(OmParams)} and len(base) == 14
        reference = vars(map_to_cascaded(OmParams(**base)))
        for name, value in base.items():
            assert vars(map_to_cascaded(OmParams(**{**base, name: 1.1 * value}))) != reference, name


class TestSusceptibility:
    def test_on_resonance_value(self):
        p = OmParams(omega_m=5.0, gamma_m=0.2, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0)
        assert mech_susceptibility(5.0, p) == pytest.approx(10.0)  # 2/gamma_m, purely real
        assert np.angle(mech_susceptibility(p.Omega, p)) == pytest.approx(0.0)

    def test_lorentzian_identity(self):
        # 2 Re chi = gamma_m |chi|^2 at every frequency
        p = random_om_params()
        for omega in np.linspace(p.omega_m - 5, p.omega_m + 5, 11):
            chi = mech_susceptibility(float(omega), p)
            assert 2.0 * chi.real == pytest.approx(p.gamma_m * abs(chi) ** 2)

    def test_array_fields_give_an_array(self):
        # chi(omega) itself, one item per point, equal to the single-point values
        fields = random_om_fields(np.random.default_rng(4), 8)
        p = OmParams(**fields)
        chi = mech_susceptibility(p.Omega, p)
        assert chi.shape == (8,) and chi.dtype == complex
        for i in range(8):
            q = OmParams(**{name: v[i].item() for name, v in fields.items()})
            assert chi[i] == mech_susceptibility(q.Omega, q)

    def test_gauge_form_has_reference_magnitude(self):
        p = random_om_params()
        # at omega = Omega the gauged susceptibility chi~ of the noise column
        # is |chi(Omega)|, real
        _, noise = build_om_drift(p, p.Omega)
        scale = p.G1 * math.sqrt(p.gamma_m)
        assert noise[0] == pytest.approx(scale * abs(mech_susceptibility(p.Omega, p)))


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
            chi_mag = abs(mech_susceptibility(p.Omega, p))
            u3 = build_system(map_to_cascaded(p)).U[..., 2]
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
        with pytest.raises(NumericalError):
            design_nonreciprocal(p)

    @pytest.mark.parametrize("G1", [np.array([0.3, 0.4]), np.array([0.3])], ids=["two", "one"])
    def test_rejects_array_params(self, G1):
        # numpy's own errors surfaced before: an ambiguous truth value for two
        # items, "only 0-dimensional arrays can be converted" for one
        p = OmParams(omega_m=5.0, gamma_m=0.4, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0, G1=G1, G2=0.2)
        with pytest.raises(ValueError, match="^design_nonreciprocal takes one parameter point"):
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


class TestArrayParams:
    """Array params against one scalar call per point, invalid items included."""

    def test_matches_per_point_calls(self):
        rng = np.random.default_rng(20261019)
        n = 96
        fields = random_om_fields(rng, n)
        omega_m = fields["omega_m"]
        fields["gamma_m"][10:12] = [0.0, -0.3]
        fields["Omega"][10] = omega_m[10]  # chi(Omega) = 1/0, silent (pytest fails on warnings)
        fields["G2"][12] = -0.1
        fields["Nbar_m"][13] = -1.0
        fields["kappa2"][14] = -0.5
        fields["Delta1"][16] = np.nan
        p = OmParams(**fields)
        invalid = p.invalid()
        mapped = map_to_cascaded(p)
        mapped_invalid = mapped.invalid()
        for i in range(n):
            point = {name: v[i].item() for name, v in fields.items()}
            try:
                q = OmParams(**point)
            except SchemaError:
                assert invalid[i], i
                continue
            assert not invalid[i], i
            try:
                one = map_to_cascaded(q)
            except SchemaError:
                assert mapped_invalid[i], i
                continue
            assert not mapped_invalid[i], i
            for name, value in vars(one).items():
                got = np.asarray(getattr(mapped, name)[i])
                assert got.tobytes() == np.asarray(value, got.dtype).tobytes(), (i, name)
        # OmParams checks all that the mapping passes through, so each invalid
        # mapped point is an invalid OmParams point
        assert invalid.sum() == 6 and not mapped_invalid[~invalid].any()

    def test_arrays_with_invalid_items_construct(self):
        base = dict(omega_m=5.0, Delta1=5.0, Delta2=5.0, kappa1=1.0, kappa2=1.0)
        p = OmParams(**base, gamma_m=np.array([0.4, -0.1]), G1=0.3)
        assert p.invalid().tolist() == [False, True]

    def test_scalars_broadcast_against_arrays(self):
        p = OmParams(omega_m=np.array([5.0, 6.0]), gamma_m=0.4, Delta1=5.0, Delta2=5.0,
                     kappa1=1.0, kappa2=1.0)
        assert all(np.shape(v) == (2,) and v.dtype == float for v in vars(p).values())
        assert p.Omega.tolist() == [5.0, 6.0]  # Omega defaults to omega_m per point
        q = OmParams(omega_m=5.0, gamma_m=0.4, Delta1=5.0, Delta2=5.0, kappa1=1.0,
                     kappa2=1.0, G1=[[0.1], [0.2], [0.3]], Nbar_m=[0.0, 1.0])
        assert all(np.shape(v) == (3, 2) for v in vars(q).values())
        assert (q.Omega == 5.0).all() and q.G1[:, 1].tolist() == [0.1, 0.2, 0.3]

    def test_drift_stack_equals_single_calls(self):
        # the drift and the mapping of a stack item equal its single call bit for
        # bit; G**2 or a complex product of two numpy scalars would round
        # differently on a few items in 10^4, so the check takes many items
        rng = np.random.default_rng(20261020)
        n = 5000
        fields = random_om_fields(rng, n)
        p = OmParams(**fields)
        omega = rng.uniform(2.0, 10.0, n)
        M, noise = build_om_drift(p, omega)
        mapped = map_to_cascaded(p)
        assert M.shape == (n, 2, 2) and noise.shape == (n, 2)
        for i in range(n):
            q = OmParams(**{name: v[i].item() for name, v in fields.items()})
            M_one, noise_one = build_om_drift(q, omega[i].item())
            assert M_one.shape == (2, 2) and noise_one.shape == (2,)
            assert M[i].tobytes() == M_one.tobytes(), i
            assert noise[i].tobytes() == noise_one.tobytes(), i
            one = map_to_cascaded(q)
            assert all(np.ndim(v) == 0 for v in vars(one).values()) and isinstance(one.F, complex)
            for name, value in vars(one).items():
                got = np.asarray(getattr(mapped, name)[i])
                assert got.tobytes() == np.asarray(value, got.dtype).tobytes(), (i, name)
