"""
Two oscillators sharing a common engineered bath plus two local baths.

Builds the linear Langevin system for the cascaded two-oscillator model,
solves for its linear response to the bath occupations, and evaluates the
equal-rate closed-form occupations that serve as independent oracles for the
numeric path.

The model is phase-insensitive, so everything lives in the 2x2 complex mode
space: the amplitudes obey dc/dt = M c + noise, channel c couples through
column c - 1 of the coupling matrix U (input-output form, M + M† = -U U†),
and the covariance Y_jk = (1/2)<c_j c_k† + c_k† c_j> solves
M Y + Y M† + N = 0 with N = U diag(nbar + 1/2) U†.  The vacuum is Y = I/2,
and the occupations n_i = Y_ii - 1/2 equal sum_j W_ij nbar_j, which
``occupations`` adds from the weights W of ``linear_response`` with no
vacuum 1/2 to cancel.

Each CascadedParams field is a scalar (one point) or an array (one item per
point), and everything here is array arithmetic.  Kernels return a reason
per item; ``raise_first`` raises NumericalError.  A reason is a code of
``REASONS`` (0 is ok), the first failed check of its item, so a point and a
stack item report alike.  One point with invalid parameters raises
SchemaError on construction; arrays report them through ``invalid()``.
SchemaError (bad input) and NumericalError (no answer) are the package's
two exceptions, one per exit code of the CLI.  The closed forms and the
baseline never fail: they are NaN where undefined, for one point and arrays
alike.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .linalg import solve_lyapunov, stability_margin


class SchemaError(Exception):
    """Input that breaks a parameter or config rule (exit code 2); the message
    names the field."""


class NumericalError(Exception):
    """Valid input without an answer (exit code 3); the message is the
    ``REASONS`` template of the first failed item."""


# reason code -> message template, 0 for ok
(UNSTABLE, ZERO_RATE, INADMISSIBLE, RESPONSE_FAILED, GRAMIAN_FAILED, ETA1_NOT_FINITE,
 ETA2_NOT_FINITE) = range(1, 8)
REASONS = {
    UNSTABLE: "drift is not stable (margin {margin:.3e})",
    ZERO_RATE: "channel {channel} has zero rate",
    INADMISSIBLE: "no stabilizing biased covariance at s = {s:.6g}",
    RESPONSE_FAILED: "Lyapunov solve of the response to the bath occupations failed",
    GRAMIAN_FAILED: "Lyapunov solve of the steady state or the channel's Gramian failed",
    ETA1_NOT_FINITE: "flow cumulant of order 1 is not finite",
    ETA2_NOT_FINITE: "flow cumulant of order 2 is not finite",
}


_log = logging.getLogger("noisecascade")
_log.addHandler(logging.NullHandler())  # no output unless the application configures logging

_EQUAL_RATE_RTOL = 1e-12


class _ParamSet:
    """The construction and validity rule of both parameter dataclasses.

    A subclass lists its complex fields, its positive and its non-negative
    fields; every field must be finite.  Nothing derived from valid fields
    (a damping, a noise matrix entry) makes a point invalid: the kernels answer
    or report a reason.  If any field is an array, every field
    is stored as an array of the common (broadcast) shape, complex for the
    complex fields and float otherwise.  One point raises SchemaError on
    construction; arrays construct and report their bad items through
    ``invalid()``.
    """

    _complex: tuple[str, ...] = ()
    _positive: tuple[str, ...] = ()
    _nonnegative: tuple[str, ...] = ()

    # the dataclass __init__ sets exactly the fields, in field order, so
    # vars(self) lists them
    def __post_init__(self) -> None:
        # a Python number (numpy's float64 and complex128 too) is one point
        shapes = [np.shape(v) for v in vars(self).values() if not isinstance(v, (int, float, complex))]
        shape = np.broadcast_shapes(*shapes) if shapes else ()
        if shape:
            for name, v in list(vars(self).items()):
                v = np.asarray(v, complex if name in self._complex else float)
                object.__setattr__(self, name, np.broadcast_to(v, shape))
        else:  # one point raises here; arrays report their invalid() mask to the caller
            self.invalid()

    @classmethod
    def _sign_rule(cls, values: dict) -> list[tuple[str, NDArray[np.bool_] | bool]]:
        """(message, bad) rows of the positive, then the non-negative fields
        among ``values`` (field name -> value)."""
        rows = [(f"{n}: must be positive", values[n] <= 0) for n in cls._positive if n in values]
        return rows + [
            (f"{n}: must be non-negative", values[n] < 0) for n in cls._nonnegative if n in values
        ]

    def invalid(self) -> NDArray[np.bool_]:
        """Mask of the invalid points, the OR of the rule's (message, bad) rows
        in the order a single point tests them: the sign rule, then finiteness
        in field order.  One point raises SchemaError with the message of
        its first failing row instead."""
        # one isfinite call over all fields: on a Python number, the call costs more than its work
        bad = ~np.isfinite(list(vars(self).values()))
        finite = [(f"{name}: must be finite", b) for name, b in zip(vars(self), bad)]
        rows = self._sign_rule(vars(self)) + finite
        if np.ndim(rows[0][1]):
            return np.logical_or.reduce([bad for _, bad in rows])
        for message, bad in rows:
            if bad:
                raise SchemaError(message)
        return np.False_


@dataclass(frozen=True)
class CascadedParams(_ParamSet):
    """Full parameter set of the two-oscillator/three-bath model.

    All rates and frequencies share one consistent angular-frequency unit.
    ``phi`` is the hopping phase and ``F`` the residual coherent hopping;
    perfect non-reciprocity corresponds to F = 0.  Fields follow the rule of
    ``_ParamSet`` alone: rates and occupations must be non-negative.
    """

    omega1: float = 0.0
    omega2: float = 0.0
    kappa1: float = 0.0
    kappa2: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    phi: float = 0.0
    F: complex = 0.0 + 0.0j
    nbar1: float = 0.0
    nbar2: float = 0.0
    nbar3: float = 0.0

    _complex = ("F",)
    _nonnegative = ("kappa1", "kappa2", "gamma1", "gamma2", "nbar1", "nbar2", "nbar3")

    @property
    def detuning(self) -> float | NDArray[np.float64]:
        """Delta = omega2 - omega1."""
        return self.omega2 - self.omega1

    @property
    def collective_rate(self) -> float | NDArray[np.float64]:
        """kappa3 = gamma1 + gamma2, the collective damping rate."""
        return self.gamma1 + self.gamma2


def add_reason(reason: NDArray, bad: NDArray, code: int) -> NDArray:
    """``reason`` with ``code`` at the items in ``bad`` that have no reason yet."""
    return np.where((reason == 0) & bad, code, reason)


def raise_first(reason: NDArray, **fields) -> None:
    """Raise NumericalError with the ``REASONS`` message of the first failed
    item of ``reason`` (one point or a stack), formatted with each field (broadcast
    against ``reason``) at that item; return if no item failed."""
    failed = np.flatnonzero(reason)
    if failed.size:
        at = {k: np.broadcast_to(v, reason.shape).flat[failed[0]] for k, v in fields.items()}
        raise NumericalError(REASONS[int(reason.flat[failed[0]])].format(**at))


@dataclass(frozen=True)
class LinearSystem:
    """Mode-space drift M (..., n, n), coupling matrix U (..., n, k) whose
    column c - 1 couples channel c, and the channel rates and bath
    occupations (..., k).  N and the stability margin of M are derived on
    first use and kept: do not change the arrays in place after that."""

    M: NDArray[np.complex128]
    U: NDArray[np.complex128]
    rate: NDArray[np.float64]
    nbar: NDArray[np.float64]

    @functools.cached_property
    def margin(self) -> float | NDArray[np.float64]:
        return stability_margin(self.M)

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")  # inf * 0 at invalid() items
    def N(self) -> NDArray[np.complex128]:
        """N = sum_c (nbar_c + 1/2) u_c u_c† (..., n, n), Hermitian to rounding;
        built on first use, one n x n outer product per column: faster on a
        stack than one (..., n, n, k) broadcast."""
        w, U, Uc = self.nbar + 0.5, self.U, self.U.conj()
        outer = (U[..., :, None, c] * Uc[..., None, :, c] for c in range(U.shape[-1]))
        return sum(w[..., c, None, None] * uu for c, uu in enumerate(outer))


# sqrt of a negative rate or inf * 0 at invalid() items; an entry past the float maximum is inf
@np.errstate(over="ignore", invalid="ignore")
def build_system(p: CascadedParams) -> LinearSystem:
    """Drift, couplings, rates and bath occupations of the cascaded system;
    array params give a stack.  The rates are stored as given: |u_c|^2 rounds
    away from them."""
    eip, shape = np.exp(1j * p.phi), np.shape(p.phi)
    root1, root2 = np.sqrt(p.gamma1), np.sqrt(p.gamma2)  # gamma1 gamma2 itself may overflow
    M = np.empty(shape + (2, 2), complex)
    M[..., 0, 0] = -1j * p.omega1 - (p.gamma1 / 2.0 + p.kappa1 / 2.0)
    M[..., 0, 1] = -1j * p.F
    M[..., 1, 0] = -1j * np.conj(p.F) - root1 * root2 * eip
    M[..., 1, 1] = -1j * p.omega2 - (p.gamma2 / 2.0 + p.kappa2 / 2.0)
    U = np.zeros(shape + (2, 3), complex)
    U[..., 0, 0], U[..., 1, 1] = np.sqrt(p.kappa1), np.sqrt(p.kappa2)
    U[..., 0, 2], U[..., 1, 2] = root1, root2 * eip
    rate, nbar = np.empty(shape + (3,)), np.empty(shape + (3,))
    rate[..., 0], rate[..., 1], rate[..., 2] = p.kappa1, p.kappa2, p.collective_rate
    nbar[..., 0], nbar[..., 1], nbar[..., 2] = p.nbar1, p.nbar2, p.nbar3
    return LinearSystem(M=M, U=U, rate=rate, nbar=nbar)


def unstable(sys: LinearSystem) -> NDArray:
    """The package's one stability rule: UNSTABLE at the items whose margin is
    not negative (NaN too), 0 elsewhere."""
    # logical_not, not ~: ~ of the Python bool of a float margin is -2, which is truthy
    return np.where(np.logical_not(sys.margin < 0.0), UNSTABLE, 0)


@np.errstate(over="ignore")  # a sum past the float maximum is inf, which callers blank
def occupations(W: NDArray, nbar: NDArray) -> tuple[float, float] | tuple[NDArray, NDArray]:
    """(n1, n2) with n_i = sum_j W_ij nbar_j from the occupation weights W
    (..., 2, k) of ``linear_response`` and the bath occupations nbar (..., k),
    the terms added in order after a zero (no -0.0; a point rounds as a stack
    does).  A value that rounds slightly below zero near vacuum is clamped to
    zero and noted with a warning on the "noisecascade" logger, silent unless
    logging is configured."""
    terms = W * nbar[..., None, :]
    n = sum(terms[..., c] for c in range(terms.shape[-1]))
    for i in range(2):
        if (n[..., i] < 0.0).any():
            _log.warning("occupation n%d = %.3e clamped to 0", i + 1, np.nanmin(n[..., i]))
    return tuple(np.moveaxis(np.where(n < 0.0, 0.0, n), -1, 0))


@np.errstate(over="ignore", invalid="ignore")  # a conductance past the float maximum is inf
def linear_response(sys: LinearSystem) -> tuple[NDArray, ...]:
    """Occupation weights W (..., 2, 3) and flow conductances G (..., 3, 3) of
    the bath occupations: n_i = sum_j W_ij nbar_j and eta_k = sum_j G_kj nbar_j.

    Both depend on the drift and couplings alone: ``sys.nbar`` is not read,
    so the noise matrix ``sys.N`` is never built.  X_j solves
    M X_j + X_j M† + u_j u_j† = 0 for column u_j of U, all three on one
    Lyapunov operator, and Y = sum_j (nbar_j + 1/2) X_j.
    Each X_j is positive semidefinite, so W_ij = Re (X_j)_ii >= 0 up to the
    solve's error: n_i adds non-negative terms, with no vacuum 1/2 to subtract
    (M + M† = -U U† makes X_1 + X_2 + X_3 = I).  G_kj = 2 u_k† X_j u_k -
    2 rate_k delta_kj (j = 1, 2) from the mean flow 2 u_k† Y u_k -
    rate_k (2 nbar_k + 1), order 1 of ``counting.flow_cumulants``; column 3 is
    -(G_k1 + G_k2), so every row sums to exactly zero, as flows at equal nbar
    vanish, and the columns sum to 2 (|u_j|^2 - rate_j), zero up to rounding.

    Returns (W, G, reason) for one system and a stack alike, NaN where the
    reason is UNSTABLE or RESPONSE_FAILED.  Every item reaches the Lyapunov
    solve with its own drift, an unstable one too, whose reason stays UNSTABLE.
    """
    u = np.moveaxis(sys.U, -1, -2)  # (..., k, n): row j - 1 is u_j
    source = u[..., :, :, None] * u[..., :, None, :].conj()
    X, singular = solve_lyapunov(sys.M[..., None, :, :], source)  # one operator for all sources
    reason = add_reason(unstable(sys), singular.any(axis=-1), RESPONSE_FAILED)
    W = np.diagonal(X, axis1=-2, axis2=-1).real.swapaxes(-2, -1)  # W[..., i, j] = Re (X_j)_ii
    # q[..., j, k] = u_k† X_j u_k (j = 1, 2); column 3 of G from its zero row sums
    x00, x01, x11 = (X[..., :2, i, j, None] for i, j in ((0, 0), (0, 1), (1, 1)))
    u0, u1 = sys.U[..., None, 0, :], sys.U[..., None, 1, :]
    q = x00.real * np.abs(u0) ** 2 + x11.real * np.abs(u1) ** 2 + 2.0 * (u0.conj() * x01 * u1).real
    g = 2.0 * (q - np.where(np.eye(2, 3, dtype=bool), sys.rate[..., None, :], 0.0))  # no inf * 0
    G = np.stack([g[..., 0, :], g[..., 1, :], -(g[..., 0, :] + g[..., 1, :])], axis=-1)
    nan = (reason != 0)[..., None, None]
    return np.where(nan, np.nan, W), np.where(nan, np.nan, G), reason


# invalid() items; 0/0 at all-zero rates; sums of occupations past the float maximum
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def closed_form_occupations(p: CascadedParams) -> tuple[float, float] | tuple[NDArray, NDArray]:
    """(n1, n2), for one point or arrays alike: the equal-rate closed-form
    steady-state occupations (general F and detuning), NaN where
    kappa1 = kappa2 = gamma1 = gamma2 = kappa does not hold to a relative
    1e-12 of the largest rate.  The formula is homogeneous of degree 0 in
    (kappa, Delta, F): scaled by a power of two per point, to a largest part
    in [1/2, 1), no product overflows, and normal values keep their bits.
    """
    rates = np.array([p.kappa1, p.kappa2, p.gamma1, p.gamma2])
    scale = np.maximum(rates.max(axis=0), 1e-300)
    unequal = (np.abs(rates - p.kappa1) > _EQUAL_RATE_RTOL * scale).any(axis=0)
    kappa = np.where(unequal, np.nan, p.kappa1)  # NaN carries through to n1 and n2
    delta, fr, fi = p.detuning, np.real(p.F), np.imag(p.F)
    e = -np.frexp(np.maximum.reduce([kappa, np.abs(delta), np.abs(fr), np.abs(fi)]))[1]
    kappa, delta, fr, fi = (np.ldexp(x, e) for x in (kappa, delta, fr, fi))
    f, eip = np.hypot(fr, fi), np.exp(1j * p.phi)  # |F| and F e^{i phi} = re + i im
    f2, re, im = f * f, fr * eip.real - fi * eip.imag, fr * eip.imag + fi * eip.real
    n1b, n2b, n3b = p.nbar1, p.nbar2, p.nbar3
    denom = 3.0 * f2 + 4.0 * kappa * (kappa + im) + im * im + delta * delta
    lorentz = 4.0 * (kappa * kappa) + delta * delta
    n1 = (
        2.0 * f2 * (n1b + n2b + n3b)
        + re * delta * (n1b - n3b)
        + 2.0 * (im * im) * n3b
        + 2.0 * im * kappa * (n1b + 3.0 * n3b)
        + lorentz * (n1b + n3b)
    ) / (2.0 * denom)
    n2 = (
        2.0 * f2 * (n1b + n2b + n3b)
        - re * delta * (n2b - n3b)
        + 2.0 * (im * im) * n3b
        + 2.0 * im * kappa * (n2b + 3.0 * n3b)
        + lorentz * (n2b + n3b)
    ) / (2.0 * denom) + kappa * (2.0 * im + kappa) * (n1b - n3b) / denom
    return n1, n2


# 0/0 at a mode without a rate; occupations near the float maximum may overflow the sum
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def disconnected_baseline(p: CascadedParams) -> tuple[float, float] | tuple[NDArray, NDArray]:
    """(m1, m2), for one point or arrays alike: the occupations with the link
    and common-bath correlation removed, the |Delta| -> infinity limit at
    fixed rates and bath occupations, independent of F.  Each mode sits at the
    rate-weighted average of its baths, m_i = kappa_i / (kappa_i + gamma_i)
    nbar_i + gamma_i / (kappa_i + gamma_i) nbar3, whose weights are exactly
    1/2 at kappa_i = gamma_i; m_i is NaN where kappa_i + gamma_i = 0, and inf
    where the sum overflows.  Rates above 1 are halved for the weights, so
    their sum cannot overflow; halving is exact where a rate is normal, and
    subnormal rates beside rates of at most 1 stay whole.
    """
    m = []
    for k, g, n in (p.kappa1, p.gamma1, p.nbar1), (p.kappa2, p.gamma2, p.nbar2):
        half = np.where(np.maximum(k, g) > 1.0, 0.5, 1.0)
        k, g = half * k, half * g
        m.append(np.divide(k, k + g) * n + np.divide(g, k + g) * p.nbar3)
    return tuple(m)
