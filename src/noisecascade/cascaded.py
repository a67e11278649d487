"""
Two oscillators sharing a common engineered bath plus two local baths.

Builds the linear Langevin system for the cascaded two-oscillator model,
solves for its steady-state covariance, and evaluates the equal-rate
closed-form occupations that serve as independent oracles for the numeric
path.

The model is phase-insensitive, so everything lives in the 2x2 complex mode
space: the amplitudes obey dc/dt = M c + noise, channel ch couples through
the vector u_ch, and the covariance Y_jk = (1/2)<c_j c_k† + c_k† c_j> solves
M Y + Y M† + N = 0 with N = sum_ch (nbar_ch + 1/2) u_ch u_ch†.  The vacuum
is Y = I/2 and the occupations are n_i = Y_ii - 1/2.

Each CascadedParams field is a scalar (one point) or an array (one item per
point), and everything here is array arithmetic.  As in ``linalg``, one point
raises on bad input, while arrays report bad items as masks (``invalid``, and
(value, unequal-rate mask) from ``equal_rate``, the closed forms and baseline).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.typing import NDArray

from .linalg import check_items, solve_lyapunov, stability_margin


class InvalidParamsError(Exception):
    """Parameter set violates basic validity (negative rates, NaN, ...)."""


class UnstableSystemError(Exception):
    """Drift matrix is not strictly stable; no steady state exists."""


class UnsupportedParamsError(Exception):
    """Closed-form expressions require equal rates; these parameters do not qualify."""


_EQUAL_RATE_RTOL = 1e-12


@dataclass(frozen=True)
class CascadedParams:
    """Full parameter set of the two-oscillator/three-bath model.

    All rates and frequencies share one consistent angular-frequency unit.
    ``phi`` is the hopping phase and ``F`` the residual coherent hopping;
    perfect non-reciprocity corresponds to F = 0.  If any field is an array,
    every field is stored as an array of the common (broadcast) shape.
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

    def __post_init__(self) -> None:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
        if shape:
            for name, v in values.items():
                v = np.asarray(v, complex if name == "F" else float)
                object.__setattr__(self, name, np.broadcast_to(v, shape))
        self.invalid()

    def invalid(self) -> NDArray[np.bool_]:
        """Mask of the invalid points; one point raises InvalidParamsError instead."""
        failed = np.zeros(np.shape(self.omega1), bool)
        for name in ("kappa1", "kappa2", "gamma1", "gamma2", "nbar1", "nbar2", "nbar3"):
            message = f"{name} must be non-negative"
            failed = check_items(failed, getattr(self, name) < 0, InvalidParamsError, message)
        finite = np.isfinite([getattr(self, f.name) for f in fields(self)]).all(axis=0)
        return check_items(failed, ~finite, InvalidParamsError, "all parameters must be finite")

    @property
    def detuning(self) -> float:
        """Delta = omega2 - omega1."""
        return self.omega2 - self.omega1

    @property
    def collective_rate(self) -> float:
        """kappa3 = gamma1 + gamma2, the collective damping rate."""
        return self.gamma1 + self.gamma2

    def equal_rate(self) -> float:
        """Return the common rate kappa if all four rates are equal, else raise.

        Arrays give (kappa, mask of the points with unequal rates).
        """
        rates = np.array([self.kappa1, self.kappa2, self.gamma1, self.gamma2])
        scale = np.maximum(rates.max(axis=0), 1e-300)
        bad = (np.abs(rates - self.kappa1) > _EQUAL_RATE_RTOL * scale).any(axis=0)
        message = "closed forms require kappa1 = kappa2 = gamma1 = gamma2"
        unequal = check_items(np.zeros_like(bad), bad, UnsupportedParamsError, message)
        return (self.kappa1, unequal) if unequal.ndim else self.kappa1


@dataclass(frozen=True)
class ChannelSpec:
    """One noise channel: coupling amplitudes, total rate, bath occupation."""

    index: int
    u: NDArray[np.complex128]
    rate: float
    nbar: float


@dataclass(frozen=True)
class LinearSystem:
    """Mode-space drift M, noise channels and Hermitian noise matrix N."""

    M: NDArray[np.complex128]
    channels: tuple[ChannelSpec, ...]
    N: NDArray[np.complex128]


@dataclass(frozen=True)
class OccupationReport:
    """Steady-state occupations, disconnected baselines, and their differences."""

    n1: float
    n2: float
    m1: float
    m2: float
    dn1: float = field(init=False)
    dn2: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dn1", self.n1 - self.m1)
        object.__setattr__(self, "dn2", self.n2 - self.m2)


@np.errstate(invalid="ignore")  # sqrt of a negative rate or inf * 0 at invalid() items
def build_system(p: CascadedParams) -> LinearSystem:
    """Drift and noise matrices of the cascaded system; array params give a stack."""
    eip = np.exp(1j * p.phi)
    M = _vector(
        -1j * p.omega1 - (p.gamma1 + p.kappa1) / 2.0,
        -1j * p.F,
        -1j * np.conj(p.F) - np.sqrt(p.gamma1 * p.gamma2) * eip,
        -1j * p.omega2 - (p.gamma2 + p.kappa2) / 2.0,
    ).reshape(np.shape(p.phi) + (2, 2))
    channels = (
        ChannelSpec(1, _vector(np.sqrt(p.kappa1), 0.0), p.kappa1, p.nbar1),
        ChannelSpec(2, _vector(0.0, np.sqrt(p.kappa2)), p.kappa2, p.nbar2),
        ChannelSpec(
            3, _vector(np.sqrt(p.gamma1), np.sqrt(p.gamma2) * eip), p.collective_rate, p.nbar3
        ),
    )
    N = sum(
        np.asarray(ch.nbar + 0.5)[..., None, None]
        * (ch.u[..., :, None] * ch.u[..., None, :].conj())
        for ch in channels
    )
    return LinearSystem(M=M, channels=channels, N=N)


def _vector(*entries) -> NDArray[np.complex128]:
    """Complex vectors (..., len(entries)) from scalar or array entries."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1).astype(complex)


def steady_state(p: CascadedParams) -> NDArray[np.complex128]:
    """Steady-state 2x2 Hermitian covariance Y from M Y + Y M† + N = 0."""
    return _steady_state(build_system(p))


def _steady_state(sys: LinearSystem) -> NDArray[np.complex128]:
    margin = stability_margin(sys.M)
    if margin >= 0.0:
        raise UnstableSystemError(f"drift is not stable (margin {margin:.3e})")
    return solve_lyapunov(sys.M, sys.N)


def occupations(Y: NDArray[np.complex128]) -> tuple[float, float]:
    """Mode occupations n_i = Y_ii - 1/2 from the mode-space covariance(s).

    Values that come out slightly negative from numerical noise near vacuum
    are clamped to zero with a warning.
    """
    n = np.diagonal(Y, axis1=-2, axis2=-1).real - 0.5
    for i in range(2):
        if (n[..., i] < 0.0).any():
            warnings.warn(
                f"occupation n{i + 1} = {np.nanmin(n[..., i]):.3e} clamped to 0",
                RuntimeWarning,
                stacklevel=2,
            )
    n1, n2 = np.moveaxis(np.where(n < 0.0, 0.0, n), -1, 0)
    return n1, n2


def _phase_invariants(p: CascadedParams) -> tuple[float, float, float]:
    """(|F|^2, Re{F e^{i phi}}, Im{F e^{i phi}}) entering the closed forms."""
    fr, fi, eip = np.real(p.F), np.imag(p.F), np.exp(1j * p.phi)
    f = np.hypot(fr, fi)
    return f * f, fr * eip.real - fi * eip.imag, fr * eip.imag + fi * eip.real


@np.errstate(divide="ignore", invalid="ignore")  # invalid() items; 0/0 at all-zero rates
def closed_form_occupations(p: CascadedParams) -> tuple[float, float]:
    """Equal-rate closed-form steady-state occupations (general F and detuning).

    Arrays give ((n1, n2), mask of the points with unequal rates).
    """
    out = p.equal_rate()
    kappa, unequal = out if isinstance(out, tuple) else (out, np.bool_(False))
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
    return ((n1, n2), unequal) if unequal.ndim else (n1, n2)


def disconnected_baseline(p: CascadedParams) -> tuple[float, float]:
    """Occupations with the link and common-bath correlation removed.

    This is the |Delta| -> infinity limit at fixed rates and bath occupations,
    and is independent of F.  Arrays give ((m1, m2), mask of the points with
    unequal rates).
    """
    out = p.equal_rate()
    m = 0.5 * (p.nbar1 + p.nbar3), 0.5 * (p.nbar2 + p.nbar3)
    return (m, out[1]) if isinstance(out, tuple) else m


def delta_n(p: CascadedParams, numeric: bool = False) -> OccupationReport:
    """Occupation changes relative to the disconnected baseline.

    By default the occupations come from the equal-rate closed forms; with
    ``numeric=True`` they are recomputed from the Lyapunov steady state.
    """
    m1, m2 = disconnected_baseline(p)
    if numeric:
        n1, n2 = occupations(steady_state(p))
    else:
        n1, n2 = closed_form_occupations(p)
    return OccupationReport(n1=n1, n2=n2, m1=m1, m2=m2)


def occupation_from_temperature(T: float, omega: float, hbar_over_kB: float = 1.0) -> float:
    """Bose-Einstein occupation of a mode at frequency omega and temperature T."""
    if T < 0.0 or omega <= 0.0:
        raise InvalidParamsError("T must be >= 0 and omega > 0")
    if T == 0.0:
        return 0.0
    x = hbar_over_kB * omega / T
    if x > 700.0:  # exp would overflow; occupation underflows to zero
        return 0.0
    return 1.0 / math.expm1(x)


def temperature_from_occupation(nbar: float, omega: float, hbar_over_kB: float = 1.0) -> float:
    """Inverse of occupation_from_temperature; requires nbar > 0."""
    if nbar <= 0.0 or omega <= 0.0:
        raise InvalidParamsError("nbar and omega must be positive")
    return hbar_over_kB * omega / math.log1p(1.0 / nbar)
