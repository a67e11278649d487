"""Property-based checks of structural invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisecascade.cascaded import (
    CascadedParams,
    build_system,
    occupation_from_temperature,
    temperature_from_occupation,
)
from quadrature_oracle import embed_drift, real_embedding_matrix

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


@given(T=st.floats(min_value=1e-3, max_value=1e4), omega=st.floats(min_value=1e-3, max_value=1e3))
def test_temperature_occupation_round_trip(T, omega):
    n = occupation_from_temperature(T, omega)
    if n > 0.0:
        assert abs(temperature_from_occupation(n, omega) - T) <= 1e-9 * T
