"""
Independent oracle for the benchmark's output checks.

The program works on the 4x4 real quadrature embedding and solves its
Lyapunov equation through a 16x16 Kronecker system.  This oracle stays in
the 2x2 complex mode space instead and imports nothing from the program:
the model is written as a Lindblad master equation with

    H = [[omega1, F + (i/2) sqrt(gamma1 gamma2) e^{-i phi}],
         [  h.c.,                  omega2              ]]

and three jump operators L_ch = u_ch^dagger c with coupling vectors

    u1 = (sqrt(kappa1), 0), u2 = (0, sqrt(kappa2)),
    u3 = (sqrt(gamma1), sqrt(gamma2) e^{i phi}).

The normally ordered correlation matrix X[i, j] = <c_j^dagger c_i> obeys
M X + X M^dagger + sum_ch nbar_ch u_ch u_ch^dagger = 0 with
M = -i H - (1/2) sum_ch u_ch u_ch^dagger, solved here as a 4x4 complex
linear system, batched over grid points.  The mean flow into bath ch uses
the convention eta_ch = 2 rate_ch (<n_ch> - nbar_ch), where <n_ch> is the
occupation of the mode the bath couples to.
"""

from __future__ import annotations

import numpy as np


def params_arrays(points: list[dict]) -> dict[str, np.ndarray]:
    """Stack per-point cascaded parameter dicts into arrays (missing -> 0)."""
    keys = ("omega1", "omega2", "kappa1", "kappa2", "gamma1", "gamma2",
            "phi", "nbar1", "nbar2", "nbar3")
    out = {k: np.array([float(p.get(k, 0.0)) for p in points]) for k in keys}
    out["F"] = np.array([complex(p.get("F", 0.0)) for p in points])
    return out


def _couplings(p: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupling vectors u (P, 3, 2), channel rates (P, 3) and occupations (P, 3)."""
    n = p["phi"].shape[0]
    eip = np.exp(1j * p["phi"])
    u = np.zeros((n, 3, 2), dtype=complex)
    u[:, 0, 0] = np.sqrt(p["kappa1"])
    u[:, 1, 1] = np.sqrt(p["kappa2"])
    u[:, 2, 0] = np.sqrt(p["gamma1"])
    u[:, 2, 1] = np.sqrt(p["gamma2"]) * eip
    rates = np.stack([p["kappa1"], p["kappa2"], p["gamma1"] + p["gamma2"]], axis=1)
    nbars = np.stack([p["nbar1"], p["nbar2"], p["nbar3"]], axis=1)
    return u, rates, nbars


def drift(p: dict[str, np.ndarray]) -> np.ndarray:
    """Mode-space drift M = -i H - (1/2) sum u u^dagger, shape (P, 2, 2)."""
    u, _, _ = _couplings(p)
    n = u.shape[0]
    H = np.zeros((n, 2, 2), dtype=complex)
    H[:, 0, 0] = p["omega1"]
    H[:, 1, 1] = p["omega2"]
    H[:, 0, 1] = p["F"] + 0.5j * np.sqrt(p["gamma1"] * p["gamma2"]) * np.exp(-1j * p["phi"])
    H[:, 1, 0] = np.conj(H[:, 0, 1])
    loss = np.einsum("pci,pcj->pij", u, u.conj())
    return -1j * H - 0.5 * loss


def solve(p: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Occupations, flows and stability margin for every point.

    Returns arrays n1, n2, eta1, eta2, eta3, margin; points whose drift is
    not strictly stable carry NaN occupations and flows.
    """
    u, rates, nbars = _couplings(p)
    M = drift(p)
    n = M.shape[0]
    margin = np.linalg.eigvals(M).real.max(axis=1)
    D = np.einsum("pc,pci,pcj->pij", nbars, u, u.conj())
    eye = np.eye(2)
    # column-major vec: vec(M X) = (I kron M) x, vec(X M^dagger) = (conj(M) kron I) x
    K = np.einsum("ab,pij->paibj", eye, M).reshape(n, 4, 4)
    K += np.einsum("pab,ij->paibj", M.conj(), eye).reshape(n, 4, 4)
    rhs = -D.transpose(0, 2, 1).reshape(n, 4)
    X = np.linalg.solve(K, rhs[..., None])[..., 0].reshape(n, 2, 2).transpose(0, 2, 1)
    # occupation of the mode each bath couples to: <L^dagger L> / rate
    with np.errstate(invalid="ignore", divide="ignore"):
        n_ch = np.einsum("pci,pij,pcj->pc", u.conj(), X, u).real / rates
    eta = 2.0 * rates * (n_ch - nbars)
    stable = margin < 0.0
    out = {
        "n1": X[:, 0, 0].real,
        "n2": X[:, 1, 1].real,
        "eta1": eta[:, 0],
        "eta2": eta[:, 1],
        "eta3": eta[:, 2],
    }
    for key in out:
        out[key] = np.where(stable, out[key], np.nan)
    out["margin"] = margin
    return out


def close(actual, expected, scale, rtol: float = 1e-7) -> bool:
    """|actual - expected| <= rtol * max(scale, 1), with None never close."""
    if actual is None or expected is None:
        return False
    return abs(float(actual) - float(expected)) <= rtol * max(float(scale), 1.0)
