"""
Quadrature-space reference for the cascaded model, used only by the tests.

It imports nothing from ``noisecascade``: it builds the model's 4x4 real
quadrature drift and noise matrices from the parameter values, solves the
16x16 real Kronecker form of A V + V A^T + N = 0, and evaluates the flow
trace formula on 4x4 matrices.  Quadrature ordering is (x1, p1, x2, p2)
with x = (c + c†)/sqrt(2) and p = -i(c - c†)/sqrt(2), so the vacuum
covariance is I/2 and a phase-insensitive mode-space covariance Y embeds as
V = embed_drift(Y).
"""

import math

import numpy as np


def real_embedding_matrix(u):
    """Return the 4x2 real matrix mapping input quadratures to mode quadratures.

    For a complex coupling vector u, mode k gets the rows
    [Re u_k, -Im u_k] (x-row) and [Im u_k, Re u_k] (p-row), so that
    R(u) R(u)^T is invariant under a global phase on u.
    """
    u = np.asarray(u, dtype=complex)
    R = np.zeros((4, 2))
    for k in range(2):
        R[2 * k, 0] = u[k].real
        R[2 * k, 1] = -u[k].imag
        R[2 * k + 1, 0] = u[k].imag
        R[2 * k + 1, 1] = u[k].real
    return R


def embed_drift(M):
    """Lift a 2x2 complex matrix to its 4x4 real quadrature form.

    If the complex amplitudes obey dc/dt = M c then the quadrature vector
    obeys dq/dt = A q with A the returned matrix.  The spectrum of A is the
    spectrum of M together with its complex conjugate.  The same map takes a
    mode-space covariance to the quadrature covariance.
    """
    M = np.asarray(M, dtype=complex)
    A = np.zeros((4, 4))
    for j in range(2):
        for k in range(2):
            re, im = M[j, k].real, M[j, k].imag
            A[2 * j, 2 * k] = re
            A[2 * j, 2 * k + 1] = -im
            A[2 * j + 1, 2 * k] = im
            A[2 * j + 1, 2 * k + 1] = re
    return A


def solve_lyapunov(A, N):
    """Solve A V + V A^T + N = 0 through the dense 16x16 real Kronecker system."""
    n = A.shape[0]
    K = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A)
    V = np.linalg.solve(K, -N.reshape(-1)).reshape(n, n)
    return 0.5 * (V + V.T)


def channels(p):
    """(u, rate, nbar) of the local channels 1, 2 and the collective channel 3."""
    eip = np.exp(1j * p.phi)
    return [
        (np.array([math.sqrt(p.kappa1), 0.0]), p.kappa1, p.nbar1),
        (np.array([0.0, math.sqrt(p.kappa2)]), p.kappa2, p.nbar2),
        (np.array([math.sqrt(p.gamma1), math.sqrt(p.gamma2) * eip]),
         p.gamma1 + p.gamma2, p.nbar3),
    ]


def quadrature_system(p):
    """4x4 quadrature drift A and noise N of the cascaded model."""
    F = complex(p.F)
    M = np.array([
        [-1j * p.omega1 - (p.gamma1 + p.kappa1) / 2.0, -1j * F],
        [-1j * F.conjugate() - math.sqrt(p.gamma1 * p.gamma2) * np.exp(1j * p.phi),
         -1j * p.omega2 - (p.gamma2 + p.kappa2) / 2.0],
    ])
    N = np.zeros((4, 4))
    for u, _, nbar in channels(p):
        R = real_embedding_matrix(u)
        N += (nbar + 0.5) * (R @ R.T)
    return embed_drift(M), N


def steady_state(p):
    """4x4 quadrature steady-state covariance (vacuum = I/2)."""
    return solve_lyapunov(*quadrature_system(p))


def flow_first_moment(channel, p, V):
    """Mean flow into bath ``channel`` from the 4x4 trace formula, sigma = 2V."""
    u, rate, nbar = channels(p)[channel - 1]
    R = real_embedding_matrix(u / math.sqrt(rate))
    P = R @ R.T
    fp_prime = -rate
    fm_prime = -rate * (2.0 * nbar + 1.0)
    return -0.5 * (fp_prime * np.trace(P @ (2.0 * V)) - fm_prime * np.trace(P))
