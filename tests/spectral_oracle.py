"""
theta(s) from the spectrum of the 4x4 tilted Hamiltonian, used only by the tests.

It imports nothing from ``noisecascade``.  The package reads theta(s) for
its two modes from the resolvent cubic of det(lam - H_s), built from 2x2
quantities; this module instead assembles

    H_s = [[A_s†, F+/2], [-(2N + F+/2), -A_s]],    A_s = M - F-/2,

and sums its stable eigenvalues from one eigvals call,
theta(s) = 2 [sum_{Re lam < 0} Re lam(H_s) - Re Tr M].  This form holds for
any number n of modes, so it is also the route to counting statistics of a
larger model.  The admissibility rule: the tilting functions are finite,
2N + F+/2 is Hermitian, no eigenvalue has |Re lam| <= 1e-9 max|H_ij| and
exactly n have Re lam > 0; at s = 0 only the last two checks are skipped
and theta is exactly zero.  It takes max|H_ij| from H_s itself and checks
2N + F+/2 at each s.  The package checks N once per point and takes a
per-point bound that is never below max|H_ij| (below 3 max|H_ij| on random
and graded systems), so the two rules differ only next to an edge of the
admissible region.

Every function takes one system or a stack and returns (theta, failed)
arrays, with NaN in the failed items.

Where it is wrong: on a warm channel at large |s| the tilt grows as e^|s|
while the stable eigenvalues of H_s stay O(1), so ``eigvals`` loses theta,
and nothing here flags it.  On channel 1 of the ideal cascade with
kappa1 = kappa2 = gamma1 = gamma2 = 1 and nbar1 = 5 it gives
theta(-15) = -2.8849558 and theta(-19) = -1.3093098, where the true values
are -2.8989789 and -2.8989795.  From s = -17.62 on it rejects some s and
admits others with theta off by up to 7 times its value (-19.62), and it
rejects every s <= -19.63 (scanned in steps of 0.01 to -40).  There the
oracle is the one-mode closed form of ``test_counting``'s
``test_warm_channel_at_large_negative_s``,
theta(s) = (k1 + g1) - sqrt((k1 + g1)^2 + 4 k1 g1 [n3 (n1 + 1)(1 - e^-s)
+ n1 (n3 + 1)(1 - e^s)]).
"""

import numpy as np


def tilting(u, rate, nbar, s):
    """Tilting matrices F-(s), F+(s) for counting the excitations exchanged with
    the bath of a channel with coupling vector u, rate |u|^2 and occupation nbar."""
    rate, nbar, s = np.asarray(rate), np.asarray(nbar), np.asarray(s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        uhat = np.asarray(u) / np.sqrt(rate)[..., None]
        P = uhat[..., :, None] * uhat.conj()[..., None, :]
        emit, absorb = (nbar + 1.0) * np.expm1(-s), nbar * np.expm1(s)
        fminus, fplus = rate * (emit - absorb), rate * (emit + absorb)
        return fminus[..., None, None] * P, fplus[..., None, None] * P


def large_deviation(M, N, Fminus, Fplus, s):
    """(theta, failed) from the eigenvalues of H_s; s broadcasts against the stack."""
    s = np.asarray(s, dtype=float)
    M, N, Fminus, Fplus = np.broadcast_arrays(*(np.asarray(X) for X in (M, N, Fminus, Fplus)))
    n = M.shape[-1]
    finite = np.isfinite(Fminus).all(axis=(-2, -1)) & np.isfinite(Fplus).all(axis=(-2, -1))
    finite &= np.isfinite(M).all(axis=(-2, -1)) & np.isfinite(N).all(axis=(-2, -1))
    Fminus, Fplus, M, N = (np.where(finite[..., None, None], X, 0.0) for X in (Fminus, Fplus, M, N))
    A, Q = M - 0.5 * Fminus, 2.0 * N + 0.5 * Fplus
    asym = np.abs(Q - Q.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    hermitian = asym <= 1e-12 * np.maximum(np.abs(Q).max(axis=(-2, -1)), 1.0)
    H = np.block([[A.conj().swapaxes(-2, -1), 0.5 * Fplus], [-Q, -A]])
    lam = np.linalg.eigvals(H).real
    on_axis = np.abs(lam) <= 1e-9 * np.abs(H).max(axis=(-2, -1))[..., None]
    admissible = ~on_axis.any(-1) & ((lam > 0.0).sum(-1) == n)
    failed = ~(finite & hermitian) | (~admissible & (s != 0.0))
    theta = 2.0 * (np.where(lam < 0.0, lam, 0.0).sum(-1) - np.trace(M, axis1=-2, axis2=-1).real)
    return np.where(failed, np.nan, np.where(s == 0.0, 0.0, theta)), failed
