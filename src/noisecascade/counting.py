"""
Full counting statistics of excitation exchange with each bath.

The biased dynamics tilts the noise channel of interest by a counting field
s, and the large-deviation function theta(s) encodes all cumulants of the
excitation flow.  Everything is in the 2x2 mode space of ``cascaded``: the
channel ch enters through the projector P = u_hat u_hat† onto its (possibly
collective) unit mode vector u_hat = u_ch / sqrt(rate_ch), with u_ch column
ch - 1 of the coupling matrix U, the tilting matrices are F-(s) = f-(s) P
and F+(s) = f+(s) P, and the machinery uses the doubled covariance
sigma = 2 Y (vacuum = identity).  The trace formulas for theta and the first
moment are consistent (equilibrium flows vanish and the per-channel moments
sum to zero) only in that normalization.  The flows come out as
eta_ch = 2 rate_ch (<n_ch> - nbar_ch), with <n_ch> the occupation of the
channel's mode.

Tilted equation (Pigeon et al., PRA 92, 013844, 2015): counting adds
A1 L.L† + A2 L†.L to the Lindblad generator, where L = u_hat† c puts an
excitation into the bath, A1 = rate (nbar + 1)(e^-s - 1) = rate f_c and
A2 = rate nbar (e^s - 1) = rate f_a, so f+- = rate (f_c +- f_a).  For one
mode with Wigner function W = Z exp(-2 |a|^2 / sigma), L.L† multiplies W by
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
stable, so its eigenvalues are the n stable eigenvalues of H_s, and
Tr(F+ sigma_s)/2 = sum_{Re lam < 0} lam(H_s) - Tr A_s†, which gives

    theta(s) = 2 [sum_{Re lam < 0} Re lam(H_s) - Re Tr M].

H_s is Hamiltonian (J H_s is Hermitian), so its eigenvalues come in pairs
lam, -conj(lam).  For the two modes (n = 2) the stable sum is exact
arithmetic on 2x2 quantities, with no eigenvalue solve:

* Characteristic polynomial.  The tilt adds U C U† to
  L0 = [[lam - M†, 0], [2N, lam + M]], with U = diag(u_hat, u_hat) and
  C = [[f-/2, -f+/2], [f+/2, -f-/2]], so the determinant lemma gives
  det(lam - H_s) = D+ D- + (f-/2)(a- D+ - a+ D-) + f+ b + rate^2 f_c f_a a+ a-,
  with D+ = det(lam + M), D- = det(lam - M†), a+ = lam + alpha,
  a- = lam - conj(alpha), alpha = u_hat† adj(M) u_hat and
  b = u_hat† adj(lam + M) N adj(lam - M†) u_hat.  The last term is
  (f+^2 - f-^2)/4 a+ a-, with the cancellation of f+^2 - f-^2 done exactly.
* Depressed quartic.  Shifting M by -(i/2) Im Tr M (a rotating frame)
  shifts every eigenvalue by an imaginary constant and removes the lam^3
  term; the pairing then makes lam^4 + c2 lam^2 + c1 lam + c0 have real c2,
  c0 and imaginary c1.  Each coefficient is e0 + f- e1 + f+ e2 +
  rate^2 f_c f_a e3, with real e_k that depend on the system only.
* Resolvent cubic.  z^3 + 2 c2 z^2 + (c2^2 - 4 c0) z + |c1|^2 has the roots
  (lam_i + lam_j)^2 over the pairings of the four eigenvalues.  With the
  stable ones mu_1, mu_2 (a_i = -Re mu_i > 0, Im mu_1 = -Im mu_2 in the
  rotating frame) these are (a1 + a2)^2 >= (a1 - a2)^2 >= 0 >= -4 (Im mu_1)^2,
  so theta = 2 (-sqrt(z_max) - Re Tr M).  The three roots come from the
  trigonometric formula, and one Newton step on the cubic polishes z_max;
  it takes a root near zero (all eigenvalues on the axis) to relative
  accuracy, where the formula alone leaves sqrt(eps) of the largest root.

The admissible region is the set of s where the tilting functions are
finite, no eigenvalue of H_s lies on the imaginary axis
(a_min = (sqrt(z_max) - sqrt(z_mid))/2 <= 1e-9 h counts as on it) and the
cubic has three real roots (to a relative tolerance on its discriminant);
an eigenvalue on the axis makes a pair of roots complex.  Its edges are
where a pair of eigenvalues meets the axis.  There two eigenvalues of H_s
nearly collide, and both this closed form and an eigenvalue solve resolve
|Re lam| only to about sqrt(eps) max|H_ij|, coarser than 1e-9 h: the tests
find every edge where the 4x4 spectrum does to 1e-12 relative in s on
systems with O(1) rates, and to 1e-3 on graded ones.  The scale
h = max(max|M| + |f-/2| max|P|, 2 max|N| + |f+/2| max|P|) comes from
per-point maxima: it is never below max|H_ij| over the blocks A_s, F+/2 and
2N + F+/2, above it by at most twice the smaller term of the larger sum
(where M or 2N cancels the tilt), and infinite only where that sum
overflows.  The tests check
theta against the 4x4 spectrum (tests/spectral_oracle.py) and against the
stabilizing root itself (tests/riccati_oracle.py).  Expanding
sigma_s = sum_k sigma_k s^k / k! gives one Lyapunov equation
M sigma_k + sigma_k M† + S_k = 0 per order, with a Hermitian source S_k
built from lower orders and the derivatives of the tilting functions at
s = 0: for odd k f+^(k) = -rate and f-^(k) = -rate (2 nbar + 1), for even k
f+^(k) = rate (2 nbar + 1) and f-^(k) = rate.  The cumulant of order n
reads sigma_k only through Re Tr(P sigma_k), k < n, and the top one needs
no solve by duality: with the channel's adjoint Gramian Z,
M† Z + Z M + P = 0, Tr(P sigma_k) = Tr(Z S_k).  Z does not depend on
sigma_0 = 2V, so the two share one stacked Lyapunov solve (drifts M and M†,
sources N and P): orders 1 and 2 cost that one solve, and orders 3 and 4
one more solve each.  This gives exact cumulants.

Kernels return a reason per item; ``raise_first`` raises.
``flow_cumulants`` and ``large_deviation`` return (value, reason) for one
system and a stack alike, NaN in the failed items (``cascaded.REASONS``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .cascaded import (  # and the two counting errors, which callers import from here
    GRAMIAN_FAILED, INADMISSIBLE, NOT_FINITE, SOLVE_FAILED, ZERO_RATE, LinearSystem,
    OutsideAdmissibleRegionError, ZeroRateChannelError, _stable_drift, add_reason,
)
from .linalg import (
    _dagger,
    _maxabs,
    hermitian_part,
    solve_lyapunov,
    stacked_product,
    trace_product,
)


# rounding may push |x| = |Delta1| / (2 Delta0^(3/2)) of a double root of the
# resolvent cubic past 1 (by 4e-16 at zero temperature); a complex pair of roots
# seen at the edge of the admissible region gave |x| - 1 >= 1e-6
_DISCRIMINANT_RTOL = 1e-10


def _unit_vector(sys: LinearSystem, channel: int):
    """The channel's rate, bath occupation, unit vector u_hat (column
    channel - 1 of U over sqrt(rate)) and projector P = u_hat u_hat†, and
    the mask of the points where its rate is zero, where u_hat is NaN.
    """
    if channel not in range(1, sys.U.shape[-1] + 1):
        raise ValueError(f"no channel with index {channel}")
    c = channel - 1
    rate, nbar = sys.rate[..., c], sys.nbar[..., c]
    with np.errstate(divide="ignore", invalid="ignore"):
        uhat = sys.U[..., :, c] / np.sqrt(rate)[..., None]
    return rate, nbar, uhat, uhat[..., :, None] * uhat.conj()[..., None, :], rate <= 0.0


def _tilting(nbar, s) -> tuple[NDArray, NDArray]:
    """f_c = (nbar + 1)(e^-s - 1) and f_a = nbar (e^s - 1); f+- = rate (f_c +- f_a).

    e^|s| may overflow far outside the admissible region, which callers
    allow: large_deviation rejects the inf.
    """
    return (nbar + 1.0) * np.expm1(-s), nbar * np.expm1(s)


def _system_terms(M: NDArray, N: NDArray, uhat: NDArray) -> tuple[NDArray, NDArray]:
    """Re Tr M and the table e (..., 4, 3) with (c2, Im c1, c0) = e_0 + f- e_1
    + f+ e_2 + rate^2 f_c f_a e_3 (module docstring), for the drift shifted
    by -(i/2) Im Tr M.  Every term is written out entry by entry, so that each
    item of a stack rounds like one point."""
    m11, m12, m21, m22 = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    n11, n12, n21, n22 = N[..., 0, 0], N[..., 0, 1], N[..., 1, 0], N[..., 1, 1]
    u1, u2 = uhat[..., 0], uhat[..., 1]
    u1c, u2c = u1.conj(), u2.conj()
    shift = 0.5j * (m11.imag + m22.imag)
    m11, m22 = m11 - shift, m22 - shift
    t = m11.real + m22.real
    d = m11 * m22 - m12 * m21
    # v = u_hat† adj(M), alpha = v u_hat and y = N u_hat; then
    # b = lam^2 u_hat† y + 2i lam Im(v y) - v N v†
    v1, v2 = u1c * m22 - u2c * m21, u2c * m11 - u1c * m12
    v1c, v2c = v1.conj(), v2.conj()
    alpha = v1 * u1 + v2 * u2
    y1, y2 = n11 * u1 + n12 * u2, n21 * u1 + n22 * u2
    n_uu = (u1c * y1 + u2c * y2).real
    n_vv = (v1 * (n11 * v1c + n12 * v2c) + v2 * (n21 * v1c + n22 * v2c)).real
    a_re, a_im, d_re, d_im = alpha.real, alpha.imag, d.real, d.imag
    e = [
        [2.0 * d_re - t * t, -2.0 * t * d_im, d_re * d_re + d_im * d_im],
        [t - a_re, d_im + t * a_im, -(a_re * d_re + a_im * d_im)],
        [n_uu, 2.0 * (v1 * y1 + v2 * y2).imag, -n_vv],
        [np.ones_like(t), 2.0 * a_im, -(a_re * a_re + a_im * a_im)],
    ]
    return t, np.moveaxis(np.array(e), (0, 1), (-2, -1))


def large_deviation(channel: int, s, sys: LinearSystem) -> tuple[NDArray[np.float64], NDArray]:
    """Large-deviation function theta(s) = 2 [sum_{Re lam < 0} Re lam(H_s) - Re Tr M].

    The stable sum is sqrt of the largest root of the resolvent cubic of
    det(lam - H_s), built from 2x2 quantities with no eigenvalue solve
    (module docstring).  N, derived from U and nbar, is Hermitian to
    rounding, so 2N + F+/2 is too.  Invalid input (a zero-rate channel,
    non-finite matrices or tilting functions) fails at every s, s = 0
    included; at s = 0 only the admissibility check is skipped, and theta is
    exactly zero, also for an unstable drift.  Returns (theta, reason), shaped
    as s and the systems broadcast, theta NaN where the reason is not 0.
    """
    s = np.asarray(s, dtype=float)
    rate, nbar, uhat, P, zero = _unit_vector(sys, channel)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_c, f_a = _tilting(nbar, s)
        fminus, fplus = rate * (f_c - f_a), rate * (f_c + f_a)
        # h of the module docstring: per-point maxima, no (s, point) stack of 2x2 matrices
        tilt_m, tilt_p = (np.abs(0.5 * f) * _maxabs(P) for f in (fminus, fplus))
        scale = np.maximum(_maxabs(sys.M) + tilt_m, 2.0 * _maxabs(sys.N) + tilt_p)
        reason = add_reason(np.where(zero, ZERO_RATE, 0), ~np.isfinite(scale), INADMISSIBLE)
        # an extra axis keeps one point in array arithmetic, which rounds like a stack
        M, N = (np.asarray(X)[..., None, :, :] for X in (sys.M, sys.N))
        t, e = _system_terms(M, N, np.asarray(uhat)[..., None, :])
        K = rate * rate * f_c * f_a
        fm, fp, K = (np.asarray(f)[..., None, None] for f in (fminus, fplus, K))
        c = e[..., 0, :] + fm * e[..., 1, :] + fp * e[..., 2, :] + K * e[..., 3, :]
        c2, c1_im, c0 = c[..., 0], c[..., 1], c[..., 2]
        # the resolvent cubic z^3 + 2 c2 z^2 + (c2^2 - 4 c0) z + D, D = |c1|^2
        D = c1_im * c1_im
        delta0 = c2 * c2 + 12.0 * c0
        delta1 = 2.0 * c2 * c2 * c2 - 72.0 * c2 * c0 - 27.0 * D
        r = np.sqrt(delta0)
        x = delta1 / (2.0 * delta0 * r)
        real_roots = np.abs(x) <= 1.0 + _DISCRIMINANT_RTOL
        phi = np.arccos(np.clip(x, -1.0, 1.0))
        turns = np.array([0.0, -2.0, 2.0]).reshape((3,) + (1,) * phi.ndim)
        cosines = np.cos((phi + turns * np.pi) / 3.0)
        z_max, z_mid, z_min = (2.0 * r * cosines - 2.0 * c2) / 3.0
        cubic = ((z_max + 2.0 * c2) * z_max + (c2 * c2 - 4.0 * c0)) * z_max + D
        z_max = z_max - cubic / ((z_max - z_mid) * (z_max - z_min))  # one Newton step
        root = np.sqrt(z_max)
        theta = -2.0 * (root + t)
        a_min = 0.5 * (root - np.sqrt(np.maximum(z_mid, 0.0)))
        # a Newton step that divides by a double root gives no finite theta
        admissible = real_roots & (a_min > 1e-9 * scale[..., None]) & np.isfinite(theta)
        theta, admissible = theta[..., 0], admissible[..., 0]
    reason = add_reason(reason, ~admissible & (s != 0.0), INADMISSIBLE)  # s = 0 conserves Tr rho
    return np.where(reason != 0, np.nan, np.where(s == 0.0, 0.0, theta)), reason


@np.errstate(over="ignore", invalid="ignore")  # eta^(m) ~ nbar^m may overflow: such items fail
def flow_cumulants(channel: int, n: int, sys: LinearSystem) -> tuple[list[NDArray], NDArray]:
    """Flow moments [eta^(1), ..., eta^(n)], eta^(m) = (-1)^m d^m theta/ds^m at s = 0, exactly.

    Order 1 is the mean flow into the bath (> 0: net absorption).  Returns
    (list, reason) for one system and a stack alike, NaN in every order where
    an item fails: an unstable drift, a zero-rate channel, a failed solve or
    a moment beyond the float range.

    eta^(m) = (-1)^m [sum_j C(m, j) f+^(j) Re Tr(P sigma_{m-j}) - f-^(m) Re Tr P].
    sigma_0 = 2V and the Gramian Z of M† Z + Z M + P = 0 share one solve, and
    each sigma_k, 0 < k < n - 1, is one more.  The top term of every order m
    is Tr(P sigma_{m-1}) = Tr(Z S_{m-1}) of the source S_{m-1} of sigma_{m-1}
    (module docstring), so eta^(m) is the same number for every n >= m.
    """
    if n < 1 or n > 4:
        raise ValueError("cumulant order must be between 1 and 4")
    reason, M = _stable_drift(sys)
    rate, nbar, _, P, zero = _unit_vector(sys, channel)
    reason = add_reason(reason, zero, ZERO_RATE)
    # an extra axis makes one system solve as a stack; placeholders keep failed items out
    sources = np.where((reason != 0)[..., None, None, None], 0.0, np.stack([sys.N, P], axis=-3))
    X, singular = solve_lyapunov(np.stack([M, _dagger(M)], axis=-3), sources)
    reason = add_reason(reason, singular.any(axis=-1), GRAMIAN_FAILED)
    V, Z = X[..., 0, :, :], X[..., 1, :, :]
    odd = -rate, -rate * (2.0 * nbar + 1.0)
    even = rate * (2.0 * nbar + 1.0), rate
    fp, fm = zip(*[odd if k % 2 else even for k in range(n + 1)])  # f+-^(k)(0); k = 0 unused
    sigma = [2.0 * V]
    traces = [trace_product(P, sigma[0]).real]  # Re Tr(P sigma_k)
    tops = traces[:]  # the same from the Gramian, Re Tr(Z S_k), k > 0
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
        source = hermitian_part(source)
        tops.append(trace_product(Z, source).real)
        if k == n - 1:
            break
        # a source beyond the float range would fail the solve's residual
        # check; sigma_k gives eta^(k+1) and higher, so name that order
        unbounded = ~np.isfinite(source).all(axis=(-2, -1))
        reason = add_reason(reason, unbounded, NOT_FINITE + k + 1)
        source = np.where((reason != 0)[..., None, None], 0.0, source)[..., None, :, :]
        solved, singular = solve_lyapunov(M[..., None, :, :], source)
        reason = add_reason(reason, singular[..., 0], SOLVE_FAILED + k + 1)
        sigma.append(solved[..., 0, :, :])
        traces.append(trace_product(P, sigma[k]).real)
    trace_p, etas = np.einsum("...ii->...", P).real, []
    for m in range(1, n + 1):
        # Re Tr(P sigma_k), k < m, the top one from the Gramian: eta^(m) does not depend on n
        own = traces[: m - 1] + tops[m - 1 : m]
        theta_m = sum(math.comb(m, j) * fp[j] * own[m - j] for j in range(1, m + 1))
        etas.append((-1.0) ** m * (theta_m - fm[m] * trace_p))
        reason = add_reason(reason, ~np.isfinite(etas[-1]), NOT_FINITE + m)
    # [()]: one system's eta stays a numpy scalar
    return [np.where(reason != 0, np.nan, eta)[()] for eta in etas], reason
