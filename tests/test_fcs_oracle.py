"""Counting statistics against a truncated-Fock tilted Lindbladian.

The oracle shares no code with the package.  It writes the model as a
Lindblad master equation on two truncated Fock spaces,

    H = omega1 c1†c1 + omega2 c2†c2 + h c1†c2 + h* c2†c1,
    h = F + (i/2) sqrt(gamma1 gamma2) e^{-i phi},

with jump operators L_ch = u_ch† c at rate nbar_ch + 1 and L_ch† at rate
nbar_ch, where u1 = (sqrt(kappa1), 0), u2 = (0, sqrt(kappa2)) and
u3 = (sqrt(gamma1), sqrt(gamma2) e^{i phi}).  Counting the excitations put
into bath ch weights its jump L by e^{-s} and L† by e^{s}; theta_oracle(s)
is the largest real eigenvalue of that tilted generator.  The generator
conserves the difference of the excitation numbers of ket and bra, so it is
built only on operators |a><b| with equal total excitation number.  The
package's theta is twice the Lindblad rate, like its flows.
"""

import numpy as np
import pytest

from noisecascade.cascaded import CascadedParams, build_system
from test_counting import point_theta

CUTOFF = 10  # total excitation number; 66 states, 506 operators |a><b|


def _ladder_operators(cutoff):
    states = [(n1, n - n1) for n in range(cutoff + 1) for n1 in range(n + 1)]
    index = {state: i for i, state in enumerate(states)}
    c1 = np.zeros((len(states), len(states)))
    c2 = np.zeros_like(c1)
    for i, (n1, n2) in enumerate(states):
        if n1:
            c1[index[(n1 - 1, n2)], i] = np.sqrt(n1)
        if n2:
            c2[index[(n1, n2 - 1)], i] = np.sqrt(n2)
    total = np.array([n1 + n2 for n1, n2 in states])
    return c1, c2, total


def theta_oracle(p, channel, s, cutoff=CUTOFF):
    c1, c2, total = _ladder_operators(cutoff)
    ket, bra = np.nonzero(total[:, None] == total[None, :])
    eye = np.eye(len(total))

    def sandwich(X, Y):
        """Matrix of rho -> X rho Y on the entries rho[ket, bra]."""
        return X[ket[:, None], ket[None, :]] * Y[bra[None, :], bra[:, None]]

    h = p.F + 0.5j * np.sqrt(p.gamma1 * p.gamma2) * np.exp(-1j * p.phi)
    H = (p.omega1 * c1.T @ c1 + p.omega2 * c2.T @ c2
         + h * c1.T @ c2 + np.conj(h) * c2.T @ c1)
    gen = -1j * (sandwich(H, eye) - sandwich(eye, H))
    baths = (
        ((np.sqrt(p.kappa1), 0.0), p.nbar1),
        ((0.0, np.sqrt(p.kappa2)), p.nbar2),
        ((np.sqrt(p.gamma1), np.sqrt(p.gamma2) * np.exp(1j * p.phi)), p.nbar3),
    )
    for ch, (u, nbar) in enumerate(baths, start=1):
        L = np.conj(u[0]) * c1 + np.conj(u[1]) * c2
        Ld = L.conj().T
        tilt = s if ch == channel else 0.0
        for rate, J, sign in ((nbar + 1.0, L, -1.0), (nbar, Ld, 1.0)):
            JdJ = J.conj().T @ J
            gen += rate * (
                np.exp(sign * tilt) * sandwich(J, J.conj().T)
                - 0.5 * (sandwich(JdJ, eye) + sandwich(eye, JdJ))
            )
    return np.linalg.eigvals(gen).real.max()


def test_oracle_conserves_probability():
    p = CascadedParams(kappa1=1.0, kappa2=0.8, gamma1=0.6, gamma2=0.9,
                       phi=0.7, F=0.2, nbar1=0.05, nbar2=0.1, nbar3=0.02)
    assert theta_oracle(p, 1, 0.0, cutoff=4) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("channel", [1, 2, 3])
def test_theta_matches_tilted_lindbladian(channel):
    p = CascadedParams(
        omega1=0.3, omega2=-0.4, kappa1=1.2, kappa2=0.7, gamma1=0.9,
        gamma2=1.4, phi=2.1, F=0.25 - 0.1j, nbar1=0.08, nbar2=0.02, nbar3=0.1,
    )
    sys = build_system(p)
    for s in (-0.3, 0.4):
        theta = point_theta(channel, s, sys)
        assert theta == pytest.approx(2.0 * theta_oracle(p, channel, s), abs=1e-9)
        assert abs(theta) > 1e-3  # a real comparison, not 0 against 0
