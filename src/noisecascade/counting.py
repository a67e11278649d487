"""
Full counting statistics of excitation exchange with each bath.

The biased dynamics tilts the noise channel of interest by a counting field
s, and the large-deviation function theta(s) encodes all cumulants of the
excitation flow.  Everything is in the 2x2 mode space of ``cascaded``: the
channel enters through the projector P = u_hat u_hat† onto its (possibly
collective) mode, the tilting matrices are F-(s) = f-(s) P and
F+(s) = f+(s) P, and the machinery uses the doubled covariance sigma = 2 Y
(vacuum = identity).  The trace formulas for theta and the first moment
are consistent (equilibrium flows vanish and the per-channel moments sum to
zero) only in that normalization.  The flows come out as
eta_ch = 2 rate_ch (<n_ch> - nbar_ch), with <n_ch> the occupation of the
channel's mode.

Tilted equation (Pigeon et al., PRA 92, 013844, 2015): counting adds
A1 L.L† + A2 L†.L to the Lindblad generator, where L = u_hat† c puts an
excitation into the bath, A1 = rate (nbar + 1)(e^-s - 1) and
A2 = rate nbar (e^s - 1), so f+- = A1 +- A2.  For one mode with Wigner
function W = Z exp(-2 |a|^2 / sigma), L.L† multiplies W by
(1 - 1/sigma)^2 |a|^2 + (1 - 1/sigma)/2 and L†.L by
(1 + 1/sigma)^2 |a|^2 - (1 + 1/sigma)/2.  The |a|^2 terms fix the
stationary shape, in mode space the stabilizing root sigma_s of

    A_s sigma + sigma A_s† + (1/2) sigma F+ sigma + 2N + F+/2 = 0,    A_s = M - F-/2,

and the constant terms give the growth rate of Tr rho_s,
(1/2)[Re Tr(F+ sigma_s) - Re Tr F-]; theta(s) is twice it, like eta.

theta needs only the spectrum of the equation's Hamiltonian matrix
(Laub, IEEE TAC 24, 913, 1979)

    H_s = [[A_s†, F+/2], [-(2N + F+/2), -A_s]].

With K = A_s† + (F+/2) sigma, the first block row of H_s [I; sigma] is K,
and its second block row equals sigma K exactly when sigma solves the
equation above.  So [I; sigma_s] spans an invariant subspace of H_s, on
which H_s acts as the closed-loop drift K.  For the stabilizing root K is
stable, so its eigenvalues are the n stable eigenvalues of H_s, and its
trace Tr A_s† + Tr(F+ sigma_s)/2 gives

    Tr(F+ sigma_s)/2 = sum_{Re lam < 0} lam(H_s) - Tr A_s†.

With Re Tr A_s† = Re Tr M - Re Tr F-/2 this is

    theta(s) = Re Tr(F+ sigma_s) - Re Tr F- = 2 [sum_{Re lam < 0} Re lam(H_s) - Re Tr M].

H_s is Hamiltonian: its eigenvalues come in pairs lam, -conj(lam).  The
admissible region is the set of s where the bias matrices are finite, no
eigenvalue of H_s lies on the imaginary axis (|Re lam| <= 1e-9 max|H_ij|)
and exactly n eigenvalues have Re lam > 0; its edges are where a pair
meets the axis.  The tests check theta against the stabilizing root
itself (tests/riccati_oracle.py).  Expanding sigma_s = sum_k sigma_k s^k / k!
gives one Lyapunov equation in M per order, with a source built from lower
orders and the derivatives of the tilting functions at s = 0: for odd k
f+^(k) = -rate and f-^(k) = -rate (2 nbar + 1), for even k
f+^(k) = rate (2 nbar + 1) and f-^(k) = rate.  This gives exact cumulants;
order 1, the mean flow, needs no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cascaded import CascadedParams, LinearSystem, UnsupportedParamsError
from .linalg import (
    check_hermitian,
    check_items,
    hermitian_part,
    solve_lyapunov,
    stacked_product,
    trace_product,
)


class ZeroRateChannelError(Exception):
    """Counting on a channel with zero coupling rate is undefined."""


class OutsideAdmissibleRegionError(Exception):
    """Counting field left the region where the tilted equation has a stabilizing root."""


@dataclass(frozen=True)
class BiasMatrices:
    """Tilting matrices F-(s), F+(s) of the biased dynamics; both vanish at s=0."""

    Fminus: NDArray[np.complex128]
    Fplus: NDArray[np.complex128]


def _channel(sys: LinearSystem, channel: int):
    """The channel's spec, its projector u_hat u_hat† onto the channel's (possibly
    collective) mode, and the mask of points where its rate is zero.

    One system raises ZeroRateChannelError instead; in a stack the projector
    of a zero-rate point is NaN.
    """
    for ch in sys.channels:
        if ch.index == channel:
            zero = np.zeros(np.shape(ch.rate), bool)
            message = f"channel {channel} has zero rate"
            zero = check_items(zero, np.asarray(ch.rate) <= 0.0, ZeroRateChannelError, message)
            with np.errstate(divide="ignore", invalid="ignore"):
                uhat = ch.u / np.sqrt(ch.rate)[..., None]
            return ch, uhat[..., :, None] * uhat.conj()[..., None, :], zero
    raise ValueError(f"no channel with index {channel}")


def bias_matrices(channel: int, s, sys: LinearSystem) -> BiasMatrices:
    """Tilting matrices for counting excitations exchanged with one bath.

    For a local channel this is f_{j+-}(s) on the channel's diagonal entry;
    the collective channel projects onto the collective mode instead.
    """
    ch, P, _ = _channel(sys, channel)
    # e^|s| may overflow far outside the admissible region; large_deviation rejects inf
    with np.errstate(over="ignore", invalid="ignore"):
        f_common = (ch.nbar + 1.0) * np.expm1(-np.asarray(s))
        f_alt = ch.nbar * np.expm1(s)
        fminus = ch.rate * (f_common - f_alt)
        fplus = ch.rate * (f_common + f_alt)
        return BiasMatrices(Fminus=fminus[..., None, None] * P, Fplus=fplus[..., None, None] * P)


def large_deviation(
    channel: int, s, sys: LinearSystem
) -> float | tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Large-deviation function theta(s) = 2 [sum_{Re lam < 0} Re lam(H_s) - Re Tr M].

    One eigvals call on the tilted Hamiltonian H_s (module docstring).  Invalid
    input (a zero-rate channel, non-finite bias matrices, a non-Hermitian N)
    fails at every s, s = 0 included; at s = 0 only the admissibility check is
    skipped, and theta is exactly zero, also for an unstable drift.  One point
    raises; a stack of systems or a vector of s values gives (theta, failed),
    NaN where it would.
    """
    s = np.asarray(s, dtype=float)
    bias = bias_matrices(channel, s, sys)
    M, N, Fminus, Fplus = np.broadcast_arrays(sys.M, sys.N, bias.Fminus, bias.Fplus)
    n, error = M.shape[-1], OutsideAdmissibleRegionError
    message = "no stabilizing biased covariance at s = {:.6g}"
    finite = np.isfinite(Fminus).all(axis=(-2, -1)) & np.isfinite(Fplus).all(axis=(-2, -1))
    failed = check_items(np.zeros(M.shape[:-2], bool), ~finite, error, message, s)
    Fminus, Fplus = (np.where(failed[..., None, None], 0.0, F) for F in (Fminus, Fplus))
    A, Q = M - 0.5 * Fminus, 2.0 * N + 0.5 * Fplus
    failed = check_hermitian(failed, Q)
    H = np.block([[A.conj().swapaxes(-2, -1), 0.5 * Fplus], [-Q, -A]])
    try:
        lam = np.linalg.eigvals(H).real
    except np.linalg.LinAlgError as exc:
        raise error(str(exc)) from exc
    on_axis = np.abs(lam) <= 1e-9 * np.abs(H).max(axis=(-2, -1))[..., None]
    bad = on_axis.any(-1) | ((lam > 0.0).sum(-1) != n)
    failed = check_items(failed, bad & (s != 0.0), error, message, s)  # s = 0 conserves Tr rho
    theta = 2.0 * (np.where(lam < 0.0, lam, 0.0).sum(-1) - _trace(M).real)
    theta = np.where(failed, np.nan, np.where(s == 0.0, 0.0, theta))
    return (theta, failed) if failed.ndim else float(theta)


def _trace(X: NDArray) -> NDArray:
    return np.einsum("...ii->...", X)


def flow_cumulant(
    channel: int, n: int, sys: LinearSystem, V: NDArray[np.complex128]
) -> float | tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """n-th flow moment eta^(n) = (-1)^n d^n theta/ds^n at s = 0, exactly.

    ``V`` is the steady-state covariance; order 1 is the mean flow into the
    bath (> 0: net absorption).  Each Taylor coefficient sigma_k, 0 < k < n, is
    one Lyapunov solve, and eta^(n) = (-1)^n [sum_j C(n, j) f+^(j)
    Re Tr(P sigma_{n-j}) - f-^(n) Re Tr P].  One system returns a float and
    raises; a stack returns (eta, failed), NaN where the rate is zero or a
    Lyapunov solve failed.
    """
    if n < 1 or n > 4:
        raise ValueError("cumulant order must be between 1 and 4")
    ch, P, failed = _channel(sys, channel)
    rate, nbar = np.asarray(ch.rate), np.asarray(ch.nbar)
    odd = -rate, -rate * (2.0 * nbar + 1.0)
    even = rate * (2.0 * nbar + 1.0), rate
    fp, fm = zip(*[odd if k % 2 else even for k in range(n + 1)])  # f+-^(k)(0); k = 0 unused
    sigma = [2.0 * np.asarray(V)]
    for k in range(1, n):
        source = 0.5 * fp[k][..., None, None] * P
        for j in range(1, k + 1):
            c, rest = math.comb(k, j), sigma[k - j]
            anti = stacked_product(P, rest) + stacked_product(rest, P)
            source = source - (0.5 * c * fm[j])[..., None, None] * anti
            for i in range(k - j + 1):
                w = 0.5 * c * math.comb(k - j, i) * fp[j]
                sandwich = stacked_product(stacked_product(sigma[i], P), sigma[k - j - i])
                source = source + w[..., None, None] * sandwich
        solved = solve_lyapunov(sys.M, hermitian_part(source))
        if failed.ndim:
            solved, singular = solved
            failed = failed | singular
        sigma.append(solved)
    theta_n = sum(
        math.comb(n, j) * fp[j] * trace_product(P, sigma[n - j]).real for j in range(1, n + 1)
    )
    eta = (-1.0) ** n * (theta_n - fm[n] * _trace(P).real)
    return (np.where(failed, np.nan, eta), failed) if failed.ndim else eta


def simplified_flows(p: CascadedParams) -> tuple[float, float, float]:
    """Closed-form first moments for equal rates and F = 0.

    The occupancy symbols here are the *bath* occupations: numerically
    matching these expressions against the general trace formula singles out
    that reading.  The three flows sum to zero identically.
    """
    kappa = p.equal_rate()
    if p.F != 0:
        raise UnsupportedParamsError("simplified flows require F = 0")
    lorentz = 2.0 * kappa**2 / (4.0 * kappa**2 + p.detuning**2)
    n1b, n2b, n3b = p.nbar1, p.nbar2, p.nbar3
    eta1 = kappa * (n3b - n1b)
    eta2 = kappa * (lorentz * (n1b - n3b) + (n3b - n2b))
    eta3 = kappa * (lorentz * (n3b - n1b) + (n1b - n3b) + (n2b - n3b))
    return eta1, eta2, eta3
