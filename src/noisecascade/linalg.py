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


class NoConvergenceError(Exception):
    """Newton iteration did not converge within the iteration cap."""


class UnstableEffectiveDriftError(Exception):
    """Effective drift lost stability during the Riccati iteration."""


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
    n = A.shape[0]
    K = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A.conj())
    try:
        x = np.linalg.solve(K, -N.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("vectorized Lyapunov system is singular") from exc
    V = _hermitian_part(x.reshape(n, n))
    residual = np.abs(A @ V + V @ A.conj().T + N).max()
    norm_n = np.abs(N).max()
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
    V0: NDArray,
    step_tol: float = 1e-11,
    residual_rtol: float = 1e-9,
    max_iter: int = 100,
) -> NDArray:
    """Solve 0 = [A-F-] V + V [A-F-]† + V F+ V + N for Hermitian V by Newton-Kleinman.

    Each Newton step solves the Lyapunov equation with effective drift
    (A - F- + V_k F+) and constant term N - V_k F+ V_k; V0 is the warm start
    (typically the unbiased covariance).  Raises UnstableEffectiveDriftError
    if the effective drift loses stability, which signals a counting field
    outside the admissible large-deviation region.
    """
    A = np.asarray(A)
    N = np.asarray(N)
    _check_hermitian(N, "noise matrix N")
    _check_hermitian(Fminus, "Fminus")
    _check_hermitian(Fplus, "Fplus")
    _check_hermitian(V0, "warm start V0")
    Atil = A - Fminus
    V = _hermitian_part(V0)
    for _ in range(max_iter):
        Aeff = Atil + V @ Fplus
        if np.linalg.eigvals(Aeff).real.max() >= 0.0:
            raise UnstableEffectiveDriftError(
                "effective drift unstable; counting field outside admissible region"
            )
        C = _hermitian_part(N - V @ Fplus @ V)
        try:
            V_next = solve_lyapunov(Aeff, C)
        except SingularSystemError as exc:
            raise UnstableEffectiveDriftError(str(exc)) from exc
        delta = np.abs(V_next - V).max()
        V = V_next
        if delta <= step_tol:
            residual = np.abs(Atil @ V + V @ Atil.conj().T + V @ Fplus @ V + N).max()
            if residual > residual_rtol * max(np.abs(N).max(), 1.0):
                raise NoConvergenceError(
                    f"Riccati residual {residual:.3e} above tolerance after convergence"
                )
            return V
    raise NoConvergenceError(f"Newton-Kleinman did not converge in {max_iter} iterations")
