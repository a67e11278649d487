"""Exact mode occupations, in rational arithmetic.

Oracle for the occupations n_i = sum_j W_ij nbar_j of
``cascaded.linear_response``: it imports nothing from the package.  The
inputs are the double drift M, coupling matrix U and bath occupations nbar
of one system, each read as the exact rational it stores.  The occupations
are the diagonal of the Hermitian Y with

    M Y + Y M† + U diag(nbar) U† = 0,

solved by exact Gaussian elimination on its 4x4 vectorization, the solver
of ``exact_cumulant_oracle``.  The source holds no vacuum 1/2, so no
occupation is a difference.
"""

from __future__ import annotations

from fractions import Fraction

from exact_cumulant_oracle import _add, _c, _conj, _lyapunov, _mul


def exact_occupations(M, U, nbar) -> list[Fraction]:
    """n_i = Y_ii of the system (M, U) at bath occupations nbar, exactly."""
    n, k = len(M), len(nbar)
    M = [[_c(M[i][j]) for j in range(n)] for i in range(n)]
    U = [[_c(U[i][c]) for c in range(k)] for i in range(n)]
    zero = (Fraction(0), Fraction(0))
    S = [[zero] * n for _ in range(n)]
    for c in range(k):
        weight = (Fraction(nbar[c]), Fraction(0))
        for i in range(n):
            for j in range(n):
                S[i][j] = _add(S[i][j], _mul(weight, _mul(U[i][c], _conj(U[j][c]))))
    Y = _lyapunov(M, S)
    return [Y[i][i][0] for i in range(n)]
