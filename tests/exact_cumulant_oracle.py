"""Exact flow cumulants of orders 1 and 2, in rational arithmetic.

Oracle for ``counting.flow_cumulant``: it imports nothing from the package.
The inputs are the double drift M, noise matrix N, coupling column u, rate
and bath occupation of one channel, each read as the exact rational it
stores.  The projector is P = u u† / rate, exact, and the Taylor
coefficients of the tilted covariance follow the recursion of the
``counting`` module docstring with no duality shortcut:

    M sigma_0 + sigma_0 M† + 2N = 0,
    M sigma_1 + sigma_1 M† + S_1 = 0,
    S_1 = (f+'/2) (P + sigma_0 P sigma_0) - (f-'/2) (P sigma_0 + sigma_0 P),

with f+' = -rate, f-' = -rate (2 nbar + 1), f+'' = rate (2 nbar + 1) and
f-'' = rate.  Then eta^(1) = -(f+' Tr P sigma_0 - f-' Tr P) and
eta^(2) = 2 f+' Tr P sigma_1 + f+'' Tr P sigma_0 - f-'' Tr P.  Every
Lyapunov equation is solved by exact Gaussian elimination on its 4x4
vectorization.  Complex rationals are pairs (re, im) of Fractions.
"""

from __future__ import annotations

from fractions import Fraction


def _c(z) -> tuple[Fraction, Fraction]:
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def _conj(a):
    return a[0], -a[1]


def _scale(x: Fraction, A):
    return [[(x * a[0], x * a[1]) for a in row] for row in A]


def _madd(A, B):
    return [[_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _matmul(A, B):
    n = len(A)
    zero = (Fraction(0), Fraction(0))
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = _add(acc, _mul(A[i][k], B[k][j]))
            out[i][j] = acc
    return out


def _trace_re(A) -> Fraction:
    return sum((A[i][i][0] for i in range(len(A))), Fraction(0))


def _solve_linear(K, b):
    """x with K x = b, by Gaussian elimination with a nonzero pivot per column."""
    n = len(b)
    rows = [list(K[i]) + [b[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != (0, 0))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != (0, 0):
                f = _div(rows[r][col], rows[col][col])
                rows[r] = [_sub(x, _mul(f, y)) for x, y in zip(rows[r], rows[col])]
    return [_div(rows[i][n], rows[i][i]) for i in range(n)]


def _lyapunov(M, S):
    """X with M X + X M† + S = 0, from the row-major vectorization."""
    n = len(M)
    zero = (Fraction(0), Fraction(0))
    K = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                K[i * n + j][k * n + j] = _add(K[i * n + j][k * n + j], M[i][k])
                K[i * n + j][i * n + k] = _add(K[i * n + j][i * n + k], _conj(M[j][k]))
    x = _solve_linear(K, [(-S[i][j][0], -S[i][j][1]) for i in range(n) for j in range(n)])
    return [[x[i * n + j] for j in range(n)] for i in range(n)]


def exact_cumulants(M, N, u, rate: float, nbar: float) -> tuple[Fraction, Fraction]:
    """(eta^(1), eta^(2)) of the channel with coupling column u, exactly."""
    n = len(M)
    M = [[_c(M[i][j]) for j in range(n)] for i in range(n)]
    N = [[_c(N[i][j]) for j in range(n)] for i in range(n)]
    u = [_c(x) for x in u]
    rate, nbar = Fraction(rate), Fraction(nbar)
    P = [[_div(_mul(u[i], _conj(u[j])), (rate, Fraction(0))) for j in range(n)] for i in range(n)]
    fp1, fm1 = -rate, -rate * (2 * nbar + 1)
    fp2, fm2 = rate * (2 * nbar + 1), rate
    sigma0 = _lyapunov(M, _scale(Fraction(2), N))
    sandwich = _matmul(_matmul(sigma0, P), sigma0)
    anti = _madd(_matmul(P, sigma0), _matmul(sigma0, P))
    S1 = _madd(_scale(fp1 / 2, _madd(P, sandwich)), _scale(-fm1 / 2, anti))
    sigma1 = _lyapunov(M, S1)
    tr_p, tr0, tr1 = _trace_re(P), _trace_re(_matmul(P, sigma0)), _trace_re(_matmul(P, sigma1))
    eta1 = -(fp1 * tr0 - fm1 * tr_p)
    eta2 = 2 * fp1 * tr1 + fp2 * tr0 - fm2 * tr_p
    return eta1, eta2
