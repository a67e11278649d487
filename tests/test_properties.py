"""Property-based checks of structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisecascade.cascaded import CascadedParams, build_system
from noisecascade.linalg import stability_margin
from quadrature_oracle import embed_drift, real_embedding_matrix
from test_counting import point_cumulants, point_theta

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
rate = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@given(re1=finite, im1=finite, re2=finite, im2=finite, alpha=angle)
def test_embedding_projector_phase_invariant(re1, im1, re2, im2, alpha):
    u = np.array([re1 + 1j * im1, re2 + 1j * im2])
    R1 = real_embedding_matrix(u)
    R2 = real_embedding_matrix(np.exp(1j * alpha) * u)
    scale = max(np.abs(R1 @ R1.T).max(), 1.0)
    assert np.abs(R1 @ R1.T - R2 @ R2.T).max() <= 1e-12 * scale


@given(entries=st.lists(finite, min_size=8, max_size=8))
def test_embed_drift_is_real_linear_representation(entries):
    vals = np.array(entries)
    M1 = (vals[:4].reshape(2, 2)).astype(complex)
    M2 = 1j * vals[4:].reshape(2, 2)
    assert np.abs(
        embed_drift(M1 + M2) - embed_drift(M1) - embed_drift(M2)
    ).max() <= 1e-12


@given(k1=rate, k2=rate, g1=rate, g2=rate, phi=angle, n3=rate)
@settings(max_examples=50)
def test_noise_matrix_dominates_dissipation(k1, k2, g1, g2, phi, n3):
    # N - (-Hermitian part of M) is positive semi-definite: thermal noise
    # never falls below the vacuum floor set by the damping
    p = CascadedParams(kappa1=k1, kappa2=k2, gamma1=g1, gamma2=g2,
                       phi=phi, nbar3=n3)
    sys = build_system(p)
    excess = sys.N + 0.5 * (sys.M + sys.M.conj().T)
    eigs = np.linalg.eigvalsh(0.5 * (excess + excess.conj().T))
    assert eigs.min() >= -1e-10


# counting statistics: exact invariants of theta(s) and the cumulants

pos_rate = st.floats(min_value=0.3, max_value=3.0)
freq = st.floats(min_value=-3.0, max_value=3.0)
occupation = st.floats(min_value=0.0, max_value=5.0)
channel = st.sampled_from((1, 2, 3))


@st.composite
def stable_systems(draw, nbar=occupation):
    p = CascadedParams(
        omega1=draw(freq), omega2=draw(freq),
        kappa1=draw(pos_rate), kappa2=draw(pos_rate),
        gamma1=draw(pos_rate), gamma2=draw(pos_rate), phi=draw(angle),
        F=complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))),
        nbar1=draw(nbar), nbar2=draw(nbar), nbar3=draw(nbar),
    )
    assume(stability_margin(build_system(p).M) < -0.05)
    return p


@given(p=stable_systems(nbar=st.just(0.0)), ch=channel,
       s=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=50)
def test_vacuum_has_no_counting_statistics(p, ch, s):
    sys = build_system(p)
    assert point_theta(ch, s, sys) == pytest.approx(0.0, abs=1e-10)
    assert point_cumulants(ch, sys) == pytest.approx([0.0, 0.0], abs=1e-10)


@given(kappa1=pos_rate, kappa2=pos_rate, omega1=freq, nbar1=occupation,
       nbar2=occupation, s=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=50)
def test_single_mode_with_its_own_bath_has_no_net_transport(
    kappa1, kappa2, omega1, nbar1, nbar2, s
):
    # mode 1 exchanges excitations only with bath 1: the net flow is bounded
    p = CascadedParams(omega1=omega1, kappa1=kappa1, kappa2=kappa2,
                       nbar1=nbar1, nbar2=nbar2)
    sys = build_system(p)
    scale = kappa1 * (1.0 + nbar1)
    assert abs(point_theta(1, s, sys)) <= 1e-10 * scale
    for eta in point_cumulants(1, sys):
        assert abs(eta) <= 1e-10 * scale


@given(p=stable_systems(), ch=channel)
@settings(max_examples=50)
def test_theta_is_convex(p, ch):
    sys = build_system(p)
    # theta is a difference of O(1) trace terms, so rounding is absolute
    assert point_cumulants(ch, sys)[1] >= -1e-12
    h = 0.01
    theta = [point_theta(ch, k * h, sys) for k in range(-3, 4)]
    assert np.diff(theta, 2).min() >= -1e-12


def test_gallavotti_cohen_symmetry():
    # one mode between baths 1 and 3: theta(s) = theta(beta - s) for the
    # flow into bath 1, with beta the difference of the inverse temperatures
    p = CascadedParams(kappa1=1.0, gamma1=0.7, gamma2=0.0, kappa2=1.0,
                       nbar1=0.5, nbar3=2.0, omega1=0.2)
    sys = build_system(p)
    beta = math.log(1.5 / 0.5) - math.log(3.0 / 2.0)
    for s in (-0.3, 0.1, 0.2, 0.5, 0.9):
        assert point_theta(1, s, sys) == pytest.approx(
            point_theta(1, beta - s, sys), abs=1e-13
        )
