"""Mode-space core against the independent 4x4 quadrature oracle.

``quadrature_oracle`` rebuilds the model in quadrature space, with its own
embedding and its own 16x16 real Kronecker Lyapunov solve; the package never
sees that format.  The embedded mode-space covariance must equal the
oracle's quadrature covariance, and the mode-space flow trace formula the
oracle's 4x4 one.
"""

import numpy as np

import quadrature_oracle as quad
from noisecascade.cascaded import CascadedParams, build_system, steady_state
from noisecascade.counting import flow_cumulants
from noisecascade.linalg import stability_margin

RNG = np.random.default_rng(20240820)


def random_stable_params():
    """Random stable parameters with unequal rates, complex F and hot baths."""
    while True:
        p = CascadedParams(
            omega1=RNG.uniform(-5, 5),
            omega2=RNG.uniform(-5, 5),
            kappa1=RNG.uniform(0.05, 3.0),
            kappa2=RNG.uniform(0.05, 3.0),
            gamma1=RNG.uniform(0.05, 3.0),
            gamma2=RNG.uniform(0.05, 3.0),
            phi=RNG.uniform(0, 2 * np.pi),
            F=RNG.uniform(-2, 2) + 1j * RNG.uniform(-2, 2),
            nbar1=RNG.uniform(0, 50),
            nbar2=RNG.uniform(0, 50),
            nbar3=RNG.uniform(0, 50),
        )
        if stability_margin(build_system(p).M) < -1e-2:
            return p


def test_steady_state_and_flows_match_quadrature_oracle():
    for _ in range(250):
        p = random_stable_params()
        Y = steady_state(p)
        V = quad.steady_state(p)
        assert Y.shape == (2, 2)
        np.testing.assert_array_equal(Y, Y.conj().T)
        assert np.abs(quad.embed_drift(Y) - V).max() <= 1e-12 * np.abs(V).max()

        sys = build_system(p)
        expected = [quad.flow_first_moment(ch, p, V) for ch in (1, 2, 3)]
        # the flows sum to zero, so one can cancel to near 0: compare on the
        # scale of the largest one
        scale = max(abs(e) for e in expected)
        for ch, e in zip((1, 2, 3), expected):
            assert abs(flow_cumulants(ch, 1, sys)[0] - e) <= 1e-12 * scale
