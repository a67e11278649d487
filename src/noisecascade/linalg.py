"""
Dense linear-algebra kernels for two-mode Gaussian systems.

The model is phase-insensitive (beam-splitter couplings, thermal baths), so
its drift is a 2x2 complex mode-space matrix M and every covariance a 2x2
complex Hermitian matrix.  The Lyapunov solver takes the drift A and
returns the Hermitian solution X of A X + X A† + N = 0; for real inputs it
is the familiar real-symmetric form with A^T.  Its Kronecker operator
depends on A alone, so it is inverted once per drift as passed and applied
to every source N that broadcasts against that drift: a caller with several
sources per drift (``cascaded.linear_response``, one per bath) passes the
drift once, and a caller that repeats drifts (a sweep whose points differ
only in their bath occupations) passes each distinct drift once.

Every kernel takes one matrix (n, n) or a stack (..., n, n) and checks each
item.  Kernels return a reason per item; ``cascaded.raise_first`` raises.
Here the reason is a mask: the Lyapunov solve returns (X, failed) for one
matrix (a 0-d mask) and for a stack alike, with NaN in the failed items.  A
failed item is replaced by a harmless placeholder before the next LAPACK
call, so that it cannot raise LinAlgError for the whole stack.

Stacked products and traces of products (``stacked_product``,
``trace_product``) are whole-stack elementwise arithmetic with no per-item
BLAS call: numpy's matmul dispatches one BLAS call per item of a stack,
which costs far more than the few multiplies of a small matrix.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.typing import NDArray

_HERMITIAN_RTOL = 1e-12  # relative asymmetry allowed in a noise matrix
_RESIDUAL_RTOL = 1e-10  # Lyapunov residual allowed, relative to max|N|


def _mean_half_disc(M: NDArray[np.complex128]) -> tuple[NDArray, NDArray, NDArray]:
    """mean, half and disc of a matrix or stack with an extra axis
    (..., 1, 2, 2), whose eigenvalues are mean +- disc: mean and half are the
    half-sum and half-difference of the diagonal, and disc = sqrt(half^2 +
    M01 M10).  Unlike tr^2 - 4 det, this keeps a large common diagonal from
    rounding away the damping or overflowing.  Each diagonal entry is halved
    before the sum and the difference, which then cannot overflow (frequencies
    of opposite signs near the float maximum); halving is exact above the
    subnormal range, so the bits stay wherever M00 +- M11 is finite.  Where
    half^2 or M01 M10 overflows, the discriminant is taken of the entries
    scaled by a power of two; every other item keeps the unscaled formula bit
    for bit."""
    m00, m11 = M[..., 0, 0] / 2.0, M[..., 1, 1] / 2.0
    mean, half = m00 + m11, m00 - m11
    m01, m10 = M[..., 0, 1], M[..., 1, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        disc = np.sqrt(half * half + m01 * m10)
    entries = (half, m01, m10)
    overflow = ~np.isfinite(disc) & np.logical_and.reduce([np.isfinite(z) for z in entries])
    if overflow.any():
        h, a, b = (z[overflow] for z in entries)
        size = np.maximum.reduce([np.abs(part) for z in (h, a, b) for part in (z.real, z.imag)])
        scale = np.ldexp(1.0, np.frexp(size)[1] - 1)  # size / scale lies in [1, 2)
        h, a, b = h / scale, a / scale, b / scale
        disc[overflow] = scale * np.sqrt(h * h + a * b)
    return mean, half, disc


def stability_margin(M: NDArray[np.complex128]) -> float | NDArray[np.float64]:
    """Largest real part among the eigenvalues of the 2x2 complex drift.

    A negative return value certifies stability of the mode-space dynamics.
    One drift gives a float; a stack (..., 2, 2) gives an array of shape (...).

    The eigenvalues of M - i Im(mean) I have the real parts of M's and are
    rho +- disc, with rho = Re(mean).  In one of them rho and +-Re(disc) have
    the same sign, so that root has no cancellation.  In the other they cancel
    where the damping rates differ by many orders (next to a rate of 1e17 a
    margin of -1 read 0).  Where that real part is below 1/8 of its rounding
    bound |rho| + |disc|, the root is also taken as det / root in two frames,
    M shifted by i Im(M00) and by i Im(M11), each of which makes one diagonal
    entry real (one of them suits a large common frequency, or a large
    frequency of either mode), and the candidate with the smallest rounding
    bound is kept.  rho -+ disc keeps precedence unless a bound is 16 times
    smaller, so where it is accurate its bits stay; where the products
    overflow it stays too.
    """
    # an extra axis keeps one matrix in array arithmetic, which rounds complex
    # products like a stack does (numpy scalars may differ in the last bit)
    M = np.asarray(M, dtype=complex)[..., None, :, :]
    mean, half, disc = _mean_half_disc(M)
    rho, step = mean.real, np.abs(disc.real)
    big, other = rho + np.copysign(step, rho), rho - np.copysign(step, rho)
    bound = np.abs(rho) + np.abs(disc)
    cancelled = 8.0 * np.abs(other) < bound
    if cancelled.any():
        m01, m10 = M[..., 0, 1], M[..., 1, 0]
        root = rho + np.where((rho < 0.0) == (disc.real < 0.0), disc, -disc)  # Re(root) = big
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            coupling = np.abs(m01) * np.abs(m10)
            for d in (1.0, -1.0):  # shift by i Im(M00), then by i Im(M11)
                x = M[..., 0, 0].real + 1j * (1.0 - d) * half.imag
                y = M[..., 1, 1].real - 1j * (1.0 + d) * half.imag
                shifted = root - 1j * d * half.imag
                # compared with bound / 16: 16 times the candidate may overflow
                candidate = (np.abs(x) * np.abs(y) + coupling) / np.abs(shifted)
                better = cancelled & (candidate < bound / 16.0)
                other = np.where(better, ((x * y - m01 * m10) / shifted).real, other)
                bound = np.where(better, 16.0 * candidate, bound)
    return np.maximum(big[..., 0], other[..., 0])


def _placeholder(failed: NDArray, X: NDArray, X0) -> NDArray:
    return np.where(failed[..., None, None], X0, X)


def _maxabs(X: NDArray) -> NDArray:
    return np.abs(X).max(axis=(-2, -1))


def _ldexp(X: NDArray, e: NDArray) -> NDArray:
    """X 2^e, one e per item of a real or complex stack: exact where normal."""
    X = np.ascontiguousarray(X, complex if X.dtype.kind == "c" else float)
    return np.ldexp(X.view(float), e[..., None, None]).view(X.dtype)


def _dagger(X: NDArray) -> NDArray:
    return X.conj().swapaxes(-2, -1)


def stacked_product(X: NDArray, Y: NDArray) -> NDArray:
    """X Y for one matrix or a stack: (X Y)_il = sum_j X_ij Y_jl, one broadcast
    multiply per j over the whole stack.

    Each multiply runs its inner loop along one row of one item: the broadcast
    axis keeps rows of different items from merging into one loop.  So every
    item, a single matrix included, takes the same loop with the same length and
    strides, and its bits do not depend on its position or the stack length.
    """
    XY = X[..., :, 0, None] * Y[..., None, 0, :]
    for j in range(1, X.shape[-1]):
        XY = XY + X[..., :, j, None] * Y[..., None, j, :]
    return XY


def trace_product(X: NDArray, Y: NDArray) -> NDArray:
    """Tr(X Y) = sum_ij X_ij Y_ji for one matrix or a stack, without forming X Y.

    The n^2 terms X_ij Y_ji come from one elementwise multiply and are added in
    row-major order, the same order for every item and for a single matrix.
    """
    terms = X * Y.swapaxes(-2, -1)
    n = X.shape[-1]
    return functools.reduce(np.add, (terms[..., i, j] for i in range(n) for j in range(n)))


def hermitian_part(X: NDArray) -> NDArray:
    return 0.5 * (X + _dagger(X))


def solve_lyapunov(A: NDArray, N: NDArray) -> tuple[NDArray, NDArray[np.bool_]]:
    """Solve A X + X A† + N = 0 for Hermitian X: (X, failed) of the broadcast
    shape, NaN in the failed items.

    Uses the dense row-major vectorization K = kron(A, I) + kron(I, conj(A)),
    with n^2 unknowns for an n x n drift.  K depends on the drift alone, so
    it is built, checked and inverted once per drift as passed, and the
    inverse is applied to every vec(N) that broadcasts against it: a drift
    (..., 1, n, n) serves k sources (..., k, n, n) with one inversion.  A and
    N are scaled by powers of two to max-norms in [1/2, 1), which keeps the
    bits of X and keeps every intermediate inside the float range.  An item
    fails where N is not Hermitian to relative _HERMITIAN_RTOL, where K is
    singular, or where the residual exceeds _RESIDUAL_RTOL * max-norm of N.
    """
    A, N = np.asarray(A), np.asarray(N)
    norm = _maxabs(N)
    failed = _maxabs(N - _dagger(N)) > _HERMITIAN_RTOL * np.maximum(norm, 1.0)
    (norm_n, b), a = np.frexp(norm), np.frexp(_maxabs(A))[1]  # max|N| = norm_n 2^b
    A, N = _ldexp(A, -a), _ldexp(N, -b)  # max-norms in [1/2, 1); X scales by 2^(b - a)
    n = A.shape[-1]
    eye = np.eye(n)
    K = np.einsum("...ik,jl->...ijkl", A, eye) + np.einsum("ik,...jl->...ijkl", eye, A.conj())
    K = K.reshape(A.shape[:-2] + (n * n, n * n))
    # a zero determinant sign flags exactly the drifts whose LU has a zero pivot
    singular = np.linalg.slogdet(K)[0] == 0.0
    Kinv = np.linalg.inv(_placeholder(singular, K, np.eye(n * n)))
    failed = failed | singular
    # one contiguous operator per item, as each source sees it
    Kinv = np.broadcast_to(Kinv, failed.shape + (n * n, n * n)).reshape(-1, n * n, n * n)
    vec_n = np.broadcast_to(N, failed.shape + (n, n)).reshape(-1, n * n)
    V = hermitian_part(np.einsum("pij,pj->pi", Kinv, -vec_n).reshape(failed.shape + (n, n)))
    # V is exactly Hermitian, so V A† is exactly (A V)†
    AV = stacked_product(A, V)
    failed = failed | ~(_maxabs(AV + _dagger(AV) + N) <= _RESIDUAL_RTOL * norm_n)
    return _placeholder(failed, _ldexp(V, b - a), np.nan), failed
