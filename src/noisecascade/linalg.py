"""
Dense linear-algebra kernels for two-mode Gaussian systems.

The model is phase-insensitive (beam-splitter couplings, thermal baths), so
its drift is a 2x2 complex mode-space matrix M and every covariance a 2x2
complex Hermitian matrix.  The solvers take the drift A and return the
Hermitian solution X of equations in A X + X A†; for real inputs they are
the familiar real-symmetric forms with A^T.

Every kernel takes one matrix (n, n) or a stack (..., n, n) and checks each
item.  One matrix raises on its first failed check; a stack returns
(X, failed), with NaN in the failed items.  A failed item is replaced by a
harmless placeholder before the next LAPACK call, so that it cannot raise
LinAlgError for the whole stack.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray


class SingularSystemError(Exception):
    """Vectorized Lyapunov system is numerically singular (drift not stable)."""


class NonSymmetricInputError(Exception):
    """A matrix that must be Hermitian (symmetric, if real) is not, beyond tolerance."""


class UnstableEffectiveDriftError(Exception):
    """The biased Riccati equation has no stabilizing solution."""


def eigenvalues_2x2(M: NDArray[np.complex128]) -> tuple[complex, complex]:
    """Closed-form eigenvalues of a 2x2 complex matrix or a stack (quadratic formula)."""
    # an extra axis keeps one matrix in array arithmetic, which rounds complex
    # products like a stack does (numpy scalars may differ in the last bit)
    M = np.asarray(M, dtype=complex)[..., None, :, :]
    tr = M[..., 0, 0] + M[..., 1, 1]
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return ((tr + disc)[..., 0] / 2.0, (tr - disc)[..., 0] / 2.0)


def stability_margin(M: NDArray[np.complex128]) -> float:
    """Largest real part among the eigenvalues of the 2x2 complex drift.

    A negative return value certifies stability of the mode-space dynamics.
    """
    lam1, lam2 = eigenvalues_2x2(M)
    return np.maximum(lam1.real, lam2.real)


def check_items(failed: NDArray, bad: NDArray, error: type, message: str, *args) -> NDArray:
    """``failed`` with the items in ``bad`` added; one item (0-d mask) raises instead.

    The message is formatted only when raising, so ``args`` may be stacks.
    """
    if failed.ndim == 0 and bad:
        raise error(message.format(*args))
    return failed | bad


def _placeholder(failed: NDArray, X: NDArray, X0) -> NDArray:
    return np.where(failed[..., None, None], X0, X)


def _maxabs(X: NDArray) -> NDArray:
    return np.abs(X).max(axis=(-2, -1))


def _dagger(X: NDArray) -> NDArray:
    return X.conj().swapaxes(-2, -1)


def _hermitian_part(X: NDArray) -> NDArray:
    return 0.5 * (X + _dagger(X))


def _check_hermitian(failed: NDArray, X: NDArray, name: str, rtol: float = 1e-12) -> NDArray:
    bad = _maxabs(X - _dagger(X)) > rtol * np.maximum(_maxabs(X), 1.0)
    message = f"{name} is not Hermitian to relative {rtol}"
    return check_items(failed, bad, NonSymmetricInputError, message)


def solve_lyapunov(
    A: NDArray,
    N: NDArray,
    residual_rtol: float = 1e-10,
) -> NDArray:
    """Solve A X + X A† + N = 0 for Hermitian X.

    Uses the dense row-major vectorization kron(A, I) + kron(I, conj(A)),
    with n^2 unknowns for an n x n drift, solved by LU with partial
    pivoting.  The residual is checked against residual_rtol * max-norm
    of N.
    """
    A, N = np.broadcast_arrays(np.asarray(A), np.asarray(N))
    failed = _check_hermitian(np.zeros(A.shape[:-2], bool), N, "noise matrix N")
    norm_n = _maxabs(N)
    # lift a source near underflow by an exact power of two
    lift = np.where((0.0 < norm_n) & (norm_n < 1e-250), 2.0**600, 1.0)
    N, norm_n = N * lift[..., None, None], norm_n * lift
    n = A.shape[-1]
    eye = np.eye(n)
    K = np.einsum("...ik,jl->...ijkl", A, eye) + np.einsum("ik,...jl->...ijkl", eye, A.conj())
    K = K.reshape(A.shape[:-2] + (n * n, n * n))
    # a zero determinant sign flags exactly the items whose LU has a zero pivot
    singular = np.linalg.slogdet(K)[0] == 0.0
    message = "vectorized Lyapunov system is singular"
    failed = check_items(failed, singular, SingularSystemError, message)
    x = np.linalg.solve(_placeholder(failed, K, np.eye(n * n)), -N.reshape(K.shape[:-1] + (1,)))
    V = _hermitian_part(x.reshape(A.shape))
    residual = _maxabs(A @ V + V @ _dagger(A) + N)
    message = (
        "Lyapunov residual {:.3e} exceeds {:.1e} * |N| (drift unstable or marginally stable?)"
    )
    bad = ~(residual <= residual_rtol * norm_n)
    failed = check_items(failed, bad, SingularSystemError, message, residual, residual_rtol)
    V = V / lift[..., None, None]
    return V if failed.ndim == 0 else (_placeholder(failed, V, np.nan), failed)


def solve_riccati_biased(
    A: NDArray,
    N: NDArray,
    Fminus: NDArray,
    Fplus: NDArray,
    residual_rtol: float = 1e-9,
) -> NDArray:
    """Stabilizing Hermitian X of [A-F-] X + X [A-F-]† + X F+ X + N = 0.

    Direct solve (Laub, IEEE TAC 24, 913, 1979): with At = A - F-, [I; X]
    spans the stable invariant subspace of H = [[At†, F+], [-N, -At]], and
    At + X F+ is stable.  The subspace is the range of prod (H - lam) over
    the n unstable eigenvalues lam; unlike eigenvectors, this also holds
    when H has Jordan blocks (equal rates, no detuning, F = 0).  Eigenvalues
    with |Re| <= 1e-9 max|lam| count as on the imaginary axis, where no
    stabilizing X exists: the counting field is outside the admissible
    region.  Every failure of a single matrix raises UnstableEffectiveDriftError.
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
    AX, XFX = Atil @ X, X @ Fplus @ X
    residual = _maxabs(AX + _dagger(AX) + XFX + N)
    # relative to the largest term: X grows without bound near a pole of sigma_s
    scale = np.maximum(np.maximum(_maxabs(AX), _maxabs(XFX)), np.maximum(_maxabs(N), 1.0))
    message = "Riccati residual {:.3e} above tolerance"
    failed = check_items(failed, ~(residual <= residual_rtol * scale), error, message, residual)
    return X if failed.ndim == 0 else (_placeholder(failed, X, np.nan), failed)
