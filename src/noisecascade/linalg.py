"""
Dense linear-algebra kernels for two-mode Gaussian systems.

The model is phase-insensitive (beam-splitter couplings, thermal baths), so
its drift is a 2x2 complex mode-space matrix M and every covariance a 2x2
complex Hermitian matrix.  The solvers take the drift A and return the
Hermitian solution X of equations in A X + X A†; for real inputs they are
the familiar real-symmetric forms with A^T.
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
    """Closed-form eigenvalues of a 2x2 complex matrix (quadratic formula)."""
    M = np.asarray(M, dtype=complex)
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    return ((tr + disc) / 2.0, (tr - disc) / 2.0)


def stability_margin(M: NDArray[np.complex128]) -> float:
    """Largest real part among the eigenvalues of the 2x2 complex drift.

    A negative return value certifies stability of the mode-space dynamics.
    """
    lam1, lam2 = eigenvalues_2x2(M)
    return max(lam1.real, lam2.real)


def _hermitian_part(X: NDArray) -> NDArray:
    return 0.5 * (X + X.conj().T)


def _check_hermitian(X: NDArray, name: str, rtol: float = 1e-12) -> None:
    scale = max(np.abs(X).max(), 1.0)
    if np.abs(X - X.conj().T).max() > rtol * scale:
        raise NonSymmetricInputError(f"{name} is not Hermitian to relative {rtol}")


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
    A = np.asarray(A)
    N = np.asarray(N)
    _check_hermitian(N, "noise matrix N")
    norm_n = np.abs(N).max()
    if 0.0 < norm_n < 1e-250:  # lift a source near underflow by an exact power of two
        return solve_lyapunov(A, N * 2.0**600, residual_rtol) * 2.0**-600
    n = A.shape[0]
    K = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A.conj())
    try:
        x = np.linalg.solve(K, -N.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("vectorized Lyapunov system is singular") from exc
    V = _hermitian_part(x.reshape(n, n))
    residual = np.abs(A @ V + V @ A.conj().T + N).max()
    if residual > residual_rtol * norm_n:
        raise SingularSystemError(
            f"Lyapunov residual {residual:.3e} exceeds {residual_rtol:.1e} * |N| "
            "(drift unstable or marginally stable?)"
        )
    return V


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
    the unstable eigenvalues lam; unlike eigenvectors, this also holds when
    H has Jordan blocks (equal rates, no detuning, F = 0).  Eigenvalues with
    |Re| <= 1e-9 max|lam| count as on the imaginary axis, where no
    stabilizing X exists: the counting field is outside the admissible
    region.  Every failure raises UnstableEffectiveDriftError.
    """
    A = np.asarray(A)
    N = np.asarray(N)
    if not (np.isfinite(Fminus).all() and np.isfinite(Fplus).all()):
        raise UnstableEffectiveDriftError("bias matrices are not finite")
    _check_hermitian(N, "noise matrix N")
    _check_hermitian(Fminus, "Fminus")
    _check_hermitian(Fplus, "Fplus")
    n = A.shape[0]
    Atil = A - Fminus
    H = np.block([[Atil.conj().T, Fplus], [-N, -Atil]])
    try:
        lam = np.linalg.eigvals(H)
        if np.any(np.abs(lam.real) <= 1e-9 * np.abs(lam).max()):
            raise UnstableEffectiveDriftError("Hamiltonian eigenvalues on the imaginary axis")
        P = np.eye(2 * n)
        for mu in lam[lam.real > 0.0]:
            P = (H - mu * np.eye(2 * n)) @ P
            P /= np.abs(P).max()
        Z = np.linalg.svd(P)[0][:, :n]
        if np.linalg.cond(Z[:n]) > 1e12:
            raise UnstableEffectiveDriftError("stable subspace is not a graph (singular Z1)")
        X = _hermitian_part(np.linalg.solve(Z[:n].T, Z[n:].T).T)
        margin = np.linalg.eigvals(Atil + X @ Fplus).real.max()
    except np.linalg.LinAlgError as exc:
        raise UnstableEffectiveDriftError(str(exc)) from exc
    if not margin < 0.0:
        raise UnstableEffectiveDriftError("effective drift unstable")
    AX, XFX = Atil @ X, X @ Fplus @ X
    residual = np.abs(AX + AX.conj().T + XFX + N).max()
    # relative to the largest term: X grows without bound near a pole of sigma_s
    scale = max(np.abs(AX).max(), np.abs(XFX).max(), np.abs(N).max(), 1.0)
    if not residual <= residual_rtol * scale:
        raise UnstableEffectiveDriftError(f"Riccati residual {residual:.3e} above tolerance")
    return X
