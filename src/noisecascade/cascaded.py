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
point), and everything here is array arithmetic.  ``linalg`` kernels report
failed items; ``linear_response``, ``flow_cumulants`` and ``large_deviation``
raise for one point.  So one point raises on bad input, while arrays report
bad items as masks (``invalid``, and the failed items of the response).  The
closed forms and the disconnected baseline never raise: their values are NaN
where they are undefined, for one point and arrays alike.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .linalg import solve_lyapunov, stability_margin


class InvalidParamsError(Exception):
    """Parameter set violates basic validity (negative rates, NaN, ...)."""


class UnstableSystemError(Exception):
    """Drift matrix is not strictly stable; no steady state exists."""


class SingularSystemError(Exception):
    """A Lyapunov solve failed: singular, or its residual beyond tolerance."""


_log = logging.getLogger("noisecascade")
_log.addHandler(logging.NullHandler())  # no output unless the application configures logging

_EQUAL_RATE_RTOL = 1e-12


class _ParamSet:
    """The construction and validity rule that both parameter dataclasses share.

    A subclass lists its complex fields, its positive and its non-negative
    fields; every field must be finite.  If any field is an array, every field
    is stored as an array of the common (broadcast) shape, complex for the
    complex fields and float otherwise.  One point raises InvalidParamsError on
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

    def _checks(self) -> list[tuple[str, NDArray[np.bool_] | bool]]:
        """(message, bad) rows of the rule, in the order a single point tests
        them: the sign rule, then finiteness in field order."""
        # one isfinite call over all fields: on a Python number, the call costs more than its work
        bad = ~np.isfinite(list(vars(self).values()))
        finite = [(f"{name}: must be finite", b) for name, b in zip(vars(self), bad)]
        return self._sign_rule(vars(self)) + finite

    def invalid(self) -> NDArray[np.bool_]:
        """Mask of the invalid points, the OR of the ``_checks`` rows; one point
        raises InvalidParamsError with the message of its first failing row instead."""
        rows = self._checks()
        if np.ndim(rows[0][1]):
            return np.logical_or.reduce([bad for _, bad in rows])
        for message, bad in rows:
            if bad:
                raise InvalidParamsError(message)
        return np.False_


@dataclass(frozen=True)
class CascadedParams(_ParamSet):
    """Full parameter set of the two-oscillator/three-bath model.

    All rates and frequencies share one consistent angular-frequency unit.
    ``phi`` is the hopping phase and ``F`` the residual coherent hopping;
    perfect non-reciprocity corresponds to F = 0.  Fields follow the rule of
    ``_ParamSet``: rates and occupations must be non-negative.
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

    @np.errstate(over="ignore", invalid="ignore")
    def _checks(self) -> list[tuple[str, NDArray[np.bool_] | bool]]:
        """The rows of ``_ParamSet._checks``, then the points where the damping
        (gamma_i + kappa_i)/2 of a mode, the noise term (nbar_c + 1/2) rate_c
        of a channel (the rate of channel 3 is gamma1 + gamma2) or the entry
        N_ii of the noise matrix, the sum of those terms for mode i, is not finite."""
        k1, k2, g1, g2 = self.kappa1, self.kappa2, self.gamma1, self.gamma2
        w1, w2, w3 = self.nbar1 + 0.5, self.nbar2 + 0.5, self.nbar3 + 0.5
        terms = {
            "kappa1: damping (gamma1 + kappa1) / 2": (g1 + k1) / 2.0,
            "kappa2: damping (gamma2 + kappa2) / 2": (g2 + k2) / 2.0,
            "nbar1: noise term (nbar1 + 1/2) * rate": w1 * k1,
            "nbar2: noise term (nbar2 + 1/2) * rate": w2 * k2,
            "nbar3: noise term (nbar3 + 1/2) * rate": w3 * self.collective_rate,
            # N_ii = (nbar_i + 1/2) kappa_i + (nbar3 + 1/2) gamma_i
            "nbar1: noise matrix entry N11": w1 * k1 + w3 * g1,
            "nbar2: noise matrix entry N22": w2 * k2 + w3 * g2,
        }
        bad = ~np.isfinite(list(terms.values()))
        return super()._checks() + [(f"{name} is not finite", b) for name, b in zip(terms, bad)]

    @property
    def detuning(self) -> float | NDArray[np.float64]:
        """Delta = omega2 - omega1."""
        return self.omega2 - self.omega1

    @property
    def collective_rate(self) -> float | NDArray[np.float64]:
        """kappa3 = gamma1 + gamma2, the collective damping rate."""
        return self.gamma1 + self.gamma2


def check_items(failed: NDArray, bad: NDArray, error: type, message: str, *args) -> NDArray:
    """``failed`` with the items in ``bad`` added; one item (0-d mask) raises instead.

    The message is formatted only when raising, so ``args`` may be stacks.
    """
    if failed.ndim == 0 and bad:
        raise error(message.format(*args))
    return failed | bad


@dataclass(frozen=True)
class LinearSystem:
    """Mode-space drift M (..., n, n), coupling matrix U (..., n, k) whose
    column c - 1 couples channel c, and the channel rates and bath
    occupations (..., k).  The noise matrix N is derived from U and nbar."""

    M: NDArray[np.complex128]
    U: NDArray[np.complex128]
    rate: NDArray[np.float64]
    nbar: NDArray[np.float64]

    @functools.cached_property
    @np.errstate(invalid="ignore")  # inf * 0 at invalid() items
    def N(self) -> NDArray[np.complex128]:
        """N = sum_c (nbar_c + 1/2) u_c u_c† (..., n, n), Hermitian to rounding;
        built on first use, one n x n outer product per column: faster on a
        stack than one (..., n, n, k) broadcast."""
        w, U, Uc = self.nbar + 0.5, self.U, self.U.conj()
        outer = (U[..., :, None, c] * Uc[..., None, :, c] for c in range(U.shape[-1]))
        return sum(w[..., c, None, None] * uu for c, uu in enumerate(outer))


@np.errstate(invalid="ignore")  # sqrt of a negative rate or inf * 0 at invalid() items
def build_system(p: CascadedParams) -> LinearSystem:
    """Drift, couplings, rates and bath occupations of the cascaded system;
    array params give a stack.  The rates are stored as given: |u_c|^2 rounds
    away from them."""
    eip, shape = np.exp(1j * p.phi), np.shape(p.phi)
    M = np.empty(shape + (2, 2), complex)
    M[..., 0, 0] = -1j * p.omega1 - (p.gamma1 + p.kappa1) / 2.0
    M[..., 0, 1] = -1j * p.F
    M[..., 1, 0] = -1j * np.conj(p.F) - np.sqrt(p.gamma1 * p.gamma2) * eip
    M[..., 1, 1] = -1j * p.omega2 - (p.gamma2 + p.kappa2) / 2.0
    U = np.zeros(shape + (2, 3), complex)
    U[..., 0, 0], U[..., 1, 1] = np.sqrt(p.kappa1), np.sqrt(p.kappa2)
    U[..., 0, 2], U[..., 1, 2] = np.sqrt(p.gamma1), np.sqrt(p.gamma2) * eip
    rate, nbar = np.empty(shape + (3,)), np.empty(shape + (3,))
    rate[..., 0], rate[..., 1], rate[..., 2] = p.kappa1, p.kappa2, p.collective_rate
    nbar[..., 0], nbar[..., 1], nbar[..., 2] = p.nbar1, p.nbar2, p.nbar3
    return LinearSystem(M=M, U=U, rate=rate, nbar=nbar)


def _stable_drift(M: NDArray):
    """(failed, M): the items whose ``stability_margin`` is not negative (NaN
    too), and the stable placeholder drift -I at every failed item of M; one
    system raises UnstableSystemError instead."""
    margin = stability_margin(M)
    message = "drift is not stable (margin {:.3e})"
    # logical_not, not ~: ~ of the Python bool of a float margin is -2, which is truthy
    unstable = np.logical_not(margin < 0.0)
    failed = np.zeros(np.shape(margin), bool)
    failed = check_items(failed, unstable, UnstableSystemError, message, margin)
    return failed, np.where(failed[..., None, None], -np.eye(2), M)


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

    One system raises on an unstable drift or a failed solve and returns
    (W, G); a stack returns (W, G, failed), NaN where the single call raises.
    Unstable items reach the Lyapunov solve only as the placeholder drift -I.
    """
    failed, M = _stable_drift(sys.M)
    u = np.moveaxis(sys.U, -1, -2)  # (..., k, n): row j - 1 is u_j
    source = u[..., :, :, None] * u[..., :, None, :].conj()
    X, singular = solve_lyapunov(M[..., None, :, :], source)  # one operator for all sources
    message = "Lyapunov solve of the response to the bath occupations failed"
    failed = check_items(failed, singular.any(axis=-1), SingularSystemError, message)
    W = np.diagonal(X, axis1=-2, axis2=-1).real.swapaxes(-2, -1)  # W[..., i, j] = Re (X_j)_ii
    # q[..., j, k] = u_k† X_j u_k (j = 1, 2); column 3 of G from its zero row sums
    x00, x01, x11 = (X[..., :2, i, j, None] for i, j in ((0, 0), (0, 1), (1, 1)))
    u0, u1 = sys.U[..., None, 0, :], sys.U[..., None, 1, :]
    q = x00.real * np.abs(u0) ** 2 + x11.real * np.abs(u1) ** 2 + 2.0 * (u0.conj() * x01 * u1).real
    g = 2.0 * (q - sys.rate[..., None, :] * np.eye(2, 3))  # 2 rate_3 may overflow
    G = np.stack([g[..., 0, :], g[..., 1, :], -(g[..., 0, :] + g[..., 1, :])], axis=-1)
    if not failed.ndim:
        return W, G
    nan = failed[..., None, None]
    return np.where(nan, np.nan, W), np.where(nan, np.nan, G), failed


def _phase_invariants(p: CascadedParams) -> tuple[float, float, float]:
    """(|F|^2, Re{F e^{i phi}}, Im{F e^{i phi}}) entering the closed forms."""
    fr, fi, eip = np.real(p.F), np.imag(p.F), np.exp(1j * p.phi)
    f = np.hypot(fr, fi)
    return f * f, fr * eip.real - fi * eip.imag, fr * eip.imag + fi * eip.real


@np.errstate(divide="ignore", invalid="ignore")  # invalid() items; 0/0 at all-zero rates
def closed_form_occupations(p: CascadedParams) -> tuple[float, float] | tuple[NDArray, NDArray]:
    """(n1, n2), for one point or arrays alike: the equal-rate closed-form
    steady-state occupations (general F and detuning), NaN where
    kappa1 = kappa2 = gamma1 = gamma2 = kappa does not hold to a relative
    1e-12 of the largest rate.
    """
    rates = np.array([p.kappa1, p.kappa2, p.gamma1, p.gamma2])
    scale = np.maximum(rates.max(axis=0), 1e-300)
    unequal = (np.abs(rates - p.kappa1) > _EQUAL_RATE_RTOL * scale).any(axis=0)
    kappa = np.where(unequal, np.nan, p.kappa1)  # NaN carries through to n1 and n2
    f2, re, im = _phase_invariants(p)
    delta = p.detuning
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
    where the sum overflows.
    """
    pairs = (p.kappa1, p.gamma1, p.nbar1), (p.kappa2, p.gamma2, p.nbar2)
    return tuple(np.divide(k, k + g) * n + np.divide(g, k + g) * p.nbar3 for k, g, n in pairs)
