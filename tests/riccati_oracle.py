"""
Stabilizing-root solver of the biased Riccati equation, used only by the tests.

It imports nothing from ``noisecascade``.  The package computes theta(s)
from the eigenvalues of the tilted Hamiltonian H_s alone; this module
instead solves for the stabilizing root sigma_s itself (an invariant
subspace of H_s, a graph test, a linear solve, a check that the closed-loop
drift is stable, one Newton step on the Riccati residual and a residual
check), so that the tests can compare the package's theta with
Re Tr(F+ sigma_s) - Re Tr F-.

Like the package's kernels, the solver takes one matrix (n, n) or a stack
(..., n, n).  One matrix raises on its first failed check; a stack returns
(X, failed), with NaN in the failed items.
"""

import numpy as np


class NonSymmetricInputError(Exception):
    """A matrix that must be Hermitian (symmetric, if real) is not, beyond tolerance."""


class UnstableEffectiveDriftError(Exception):
    """The biased Riccati equation has no stabilizing solution."""


def check_items(failed, bad, error, message, *args):
    """``failed`` with the items in ``bad`` added; one item (0-d mask) raises instead."""
    if failed.ndim == 0 and bad:
        raise error(message.format(*args))
    return failed | bad


def _placeholder(failed, X, X0):
    return np.where(failed[..., None, None], X0, X)


def _maxabs(X):
    return np.abs(X).max(axis=(-2, -1))


def _dagger(X):
    return X.conj().swapaxes(-2, -1)


def _hermitian_part(X):
    return 0.5 * (X + _dagger(X))


def _check_hermitian(failed, X, name, rtol=1e-12):
    bad = _maxabs(X - _dagger(X)) > rtol * np.maximum(_maxabs(X), 1.0)
    message = f"{name} is not Hermitian to relative {rtol}"
    return check_items(failed, bad, NonSymmetricInputError, message)


def _newton_step(drift, X, Atil, N, Fplus):
    """Newton correction D of X: drift D + D drift† = -R(X), with the closed-loop
    drift At + X F+ and the Riccati residual R; solved as a dense Kronecker system."""
    n = X.shape[-1]
    R = Atil @ X + X @ _dagger(Atil) + X @ Fplus @ X + N
    eye = np.eye(n)
    K = np.einsum("...ik,jl->...ijkl", drift, eye) + np.einsum("ik,...jl->...ijkl", eye, drift.conj())
    K = K.reshape(drift.shape[:-2] + (n * n, n * n))
    return np.linalg.solve(K, -R.reshape(K.shape[:-1] + (1,))).reshape(X.shape)


def solve_riccati_biased(A, N, Fminus, Fplus, residual_rtol=1e-9):
    """Stabilizing Hermitian X of [A-F-] X + X [A-F-]† + X F+ X + N = 0.

    Direct solve (Laub, IEEE TAC 24, 913, 1979): with At = A - F-, [I; X]
    spans the stable invariant subspace of H = [[At†, F+], [-N, -At]], and
    At + X F+ is stable.  The subspace is the range of prod (H - lam) over
    the n unstable eigenvalues lam; unlike eigenvectors, this also holds
    when H has Jordan blocks (equal rates, no detuning, F = 0).  Eigenvalues
    with |Re| <= 1e-9 max|lam| count as on the imaginary axis, where no
    stabilizing X exists: the counting field is outside the admissible
    region.  One Newton step, with its own Kronecker solve, then refines X.
    Every failure of a single matrix raises UnstableEffectiveDriftError.
    """
    A, N, Fminus, Fplus = np.broadcast_arrays(*(np.asarray(X) for X in (A, N, Fminus, Fplus)))
    n, error = A.shape[-1], UnstableEffectiveDriftError
    finite = np.isfinite(Fminus).all(axis=(-2, -1)) & np.isfinite(Fplus).all(axis=(-2, -1))
    failed = np.zeros(A.shape[:-2], bool)
    failed = check_items(failed, ~finite, error, "bias matrices are not finite")
    N, Fminus, Fplus = (_placeholder(failed, X, 0.0) for X in (N, Fminus, Fplus))
    for X, name in ((N, "noise matrix N"), (Fminus, "Fminus"), (Fplus, "Fplus")):
        failed = _check_hermitian(failed, X, name)
    Atil = A - Fminus
    H0 = np.diag(np.repeat([-1.0, 1.0], n))  # the Hamiltonian of At = -I, N = F+ = 0; X = 0
    H = _placeholder(failed, np.block([[_dagger(Atil), Fplus], [-N, -Atil]]), H0)
    try:
        lam = np.linalg.eigvals(H)
        on_axis = np.abs(lam.real) <= 1e-9 * np.abs(lam).max(axis=-1, keepdims=True)
        message = "Hamiltonian eigenvalues on the imaginary axis"
        failed = check_items(failed, on_axis.any(-1), error, message)
        unstable = lam.real > 0.0
        message = "Hamiltonian has not {} unstable eigenvalues"
        failed = check_items(failed, unstable.sum(-1) != n, error, message, n)
        # the unstable eigenvalues in their original order; those of H0 for failed items
        mu = np.take_along_axis(lam, np.argsort(~unstable, axis=-1, kind="stable"), -1)[..., :n]
        H, mu = _placeholder(failed, H, H0), np.where(failed[..., None], 1.0, mu)
        P = np.eye(2 * n)
        for k in range(n):
            P = (H - mu[..., k, None, None] * np.eye(2 * n)) @ P
            P = P / _maxabs(P)[..., None, None]
        overflow = ~np.isfinite(P).all(axis=(-2, -1))
        failed = check_items(failed, overflow, error, "stable subspace overflows")
        Z = np.linalg.svd(_placeholder(failed, P, np.eye(2 * n)))[0][..., :n]
        singular = ~(np.linalg.cond(Z[..., :n, :]) <= 1e12)
        message = "stable subspace is not a graph (singular Z1)"
        failed = check_items(failed, singular, error, message)
        Z1t = _placeholder(failed, Z[..., :n, :], np.eye(n)).swapaxes(-2, -1)
        X = _hermitian_part(np.linalg.solve(Z1t, Z[..., n:, :].swapaxes(-2, -1)).swapaxes(-2, -1))
        drift = Atil + X @ Fplus
        finite = np.isfinite(drift).all(axis=(-2, -1))
        margin = np.linalg.eigvals(_placeholder(~finite, drift, 0.0)).real.max(-1)
    except np.linalg.LinAlgError as exc:
        raise UnstableEffectiveDriftError(str(exc)) from exc
    failed = check_items(failed, ~(finite & (margin < 0.0)), error, "effective drift unstable")
    X = _hermitian_part(X + _newton_step(_placeholder(failed, drift, -np.eye(n)), X, Atil, N, Fplus))
    AX, XFX = Atil @ X, X @ Fplus @ X
    residual = _maxabs(AX + _dagger(AX) + XFX + N)
    # relative to the largest term: X grows without bound near a pole of sigma_s
    scale = np.maximum(np.maximum(_maxabs(AX), _maxabs(XFX)), np.maximum(_maxabs(N), 1.0))
    message = "Riccati residual {:.3e} above tolerance"
    failed = check_items(failed, ~(residual <= residual_rtol * scale), error, message, residual)
    return X if failed.ndim == 0 else (_placeholder(failed, X, np.nan), failed)
