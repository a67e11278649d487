"""
Optomechanical realization: two driven cavities coupled by photon hopping and
by a shared mechanical mode that acts as an engineered reservoir.

After linearization and adiabatic elimination of the mechanics, the cavity
fluctuations obey an effective two-mode drift whose off-diagonal entries are
not complex conjugates; mapping the coefficients onto the cascaded model
lets the whole occupation/flow machinery apply directly.

The couplings G_i are the drive-enhanced (already linearized) ones.  OmParams
follows the parameter rule of ``cascaded.CascadedParams``: fields are scalars
or arrays (one item per point), and if any field is an array, every field is
stored as a float array of the broadcast shape.  The susceptibility, the drift
and the mapping are array arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cascaded import CascadedParams, InvalidParamsError, _ParamSet

TWO_PI = 2.0 * math.pi


class NoCouplingError(Exception):
    """The non-reciprocity design condition needs both optomechanical couplings."""


@dataclass(frozen=True)
class OmParams(_ParamSet):
    """Hardware parameters of the two-cavity/one-mechanical-mode platform.

    ``Omega`` is the evaluation frequency in the rotating frame (defaults to
    the mechanical resonance).  Each cavity enters through its total linewidth
    ``kappa_i`` and one bath occupation ``Nbar_i``; a cavity with intrinsic
    loss to a second bath takes the rate-weighted average
    ``Nbar_i = (kappa_ext nbar_ext + kappa_int nbar_int) / kappa_i`` with
    ``kappa_i = kappa_ext + kappa_int``.
    ``gamma_m`` must be positive, and the rates, couplings and occupations
    non-negative.
    """

    omega_m: float
    gamma_m: float
    Delta1: float
    Delta2: float
    kappa1: float
    kappa2: float
    J: float = 0.0
    phi: float = 0.0
    G1: float = 0.0
    G2: float = 0.0
    Omega: float | None = None
    Nbar1: float = 0.0
    Nbar2: float = 0.0
    Nbar_m: float = 0.0

    _positive = ("gamma_m",)
    _nonnegative = ("kappa1", "kappa2", "G1", "G2", "Nbar1", "Nbar2", "Nbar_m")

    def __post_init__(self) -> None:
        if self.Omega is None:
            object.__setattr__(self, "Omega", self.omega_m)
        super().__post_init__()


@dataclass(frozen=True)
class NonReciprocalDesign:
    """Hopping rate and phase closing the 2 -> 1 transmission direction."""

    j_star: float
    phi_star: float
    residual: float


def mech_susceptibility(omega: float, p: OmParams) -> complex | NDArray[np.complex128]:
    """Mechanical susceptibility chi(omega) = 1/[gamma_m/2 - i (omega - omega_m)];
    2 Re chi = gamma_m |chi|^2 holds identically."""
    return np.divide(1.0, p.gamma_m / 2.0 - 1j * (omega - p.omega_m))


def build_om_drift(
    p: OmParams, omega: float
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Effective two-cavity drift at frequency omega plus the mechanical coupling.

    The mechanical noise column is returned after the gauge transformation
    that makes it real at Omega up to the hopping phase, i.e.
    (G1 sqrt(gamma_m) chi~, G2 sqrt(gamma_m) chi~ e^{i phi}) with
    chi~ = chi(omega) |chi(Omega)| / chi(Omega).  Array fields
    (or omega) give a drift (..., 2, 2) and a noise column (..., 2).
    """
    chi, chi_ref = mech_susceptibility(omega, p), mech_susceptibility(p.Omega, p)
    eip = np.exp(1j * p.phi)
    # G G and np.multiply round alike for one point and for arrays (G**2 and a
    # complex product of two numpy scalars may differ in the last bit)
    m11, m12, m21, m22 = np.broadcast_arrays(
        -1j * p.Delta1 - p.kappa1 / 2.0 - p.G1 * p.G1 * chi,
        -1j * p.J - chi * p.G1 * p.G2 / eip,
        -1j * p.J - np.multiply(chi * p.G1 * p.G2, eip),
        -1j * p.Delta2 - p.kappa2 / 2.0 - p.G2 * p.G2 * chi,
    )
    M = np.stack([np.stack([m11, m12], -1), np.stack([m21, m22], -1)], -2)
    sqrt_gm, chi_t = np.sqrt(p.gamma_m), chi * np.abs(chi_ref) / chi_ref
    column = p.G1 * sqrt_gm * chi_t, np.multiply(p.G2 * sqrt_gm * chi_t, eip)
    return M, np.stack(np.broadcast_arrays(*column), -1)


# gamma_m = 0 at invalid() items; G1^2 or G1 G2 beyond the float range gives
# non-finite fields, which CascadedParams.invalid() flags
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def map_to_cascaded(p: OmParams) -> CascadedParams:
    """Translate optomechanical parameters into cascaded-model parameters.

    Valid when the mechanical susceptibility is effectively constant over
    the signal bandwidth; all coefficients are frozen at Omega.
    """
    chi = mech_susceptibility(p.Omega, p)
    return CascadedParams(
        omega1=p.Delta1 + p.G1 * p.G1 * chi.imag,
        omega2=p.Delta2 + p.G2 * p.G2 * chi.imag,
        kappa1=p.kappa1,
        kappa2=p.kappa2,
        gamma1=2.0 * p.G1 * p.G1 * chi.real,
        gamma2=2.0 * p.G2 * p.G2 * chi.real,
        phi=p.phi,
        # np.multiply rounds a complex product alike for one point and for arrays
        F=p.J - np.multiply(1j * chi * p.G1 * p.G2, np.exp(-1j * p.phi)),
        nbar1=p.Nbar1,
        nbar2=p.Nbar2,
        nbar3=p.Nbar_m,
    )


# chi(Omega) overflows where |gamma_m/2 - i (Omega - omega_m)| is below about
# 1 / float max, and J* where G1 G2 |chi| passes the float maximum: both raise
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def design_nonreciprocal(p: OmParams) -> NonReciprocalDesign:
    """Hopping rate and phase that cancel the residual coherent hopping F.

    J* = G1 G2 |chi(Omega)| and phi* = arg(i chi(Omega)), so that
    J* - i chi(Omega) G1 G2 e^{-i phi*} = 0 with J* real.  One point only:
    array parameters raise ValueError.  A chi(Omega) or a design point
    outside the float range raises InvalidParamsError.
    """
    if np.ndim(p.omega_m):
        raise ValueError("design_nonreciprocal takes one parameter point; arrays are not supported")
    if p.G1 * p.G2 <= 0.0:
        raise NoCouplingError("design condition needs G1 * G2 > 0")
    chi = mech_susceptibility(p.Omega, p)
    if not np.isfinite(chi):
        message = "gamma_m: susceptibility 1 / (gamma_m/2 - i (Omega - omega_m)) is not finite"
        raise InvalidParamsError(message)
    j_star = p.G1 * p.G2 * abs(chi)
    phi_star = float(np.angle(1j * chi))
    residual = abs(j_star - 1j * chi * p.G1 * p.G2 * np.exp(-1j * phi_star))
    if not np.isfinite([j_star, residual]).all():
        raise InvalidParamsError("G1, G2: design point J* = G1 G2 |chi(Omega)| is not finite")
    return NonReciprocalDesign(j_star=j_star, phi_star=phi_star, residual=residual)


def preset_microwave() -> OmParams:
    """Experimentally feasible microwave electromechanical parameter set.

    Cavities at 2 pi x 5 GHz, which enter only through the detunings from
    their drives.  All rates are angular frequencies (2 pi x Hz).  The hopping
    phase is set to the on-resonance non-reciprocal value; the quoted
    J = 2 pi x 1 MHz sits about 2% above the exact design point 2 G^2 / gamma_m.
    """
    return OmParams(
        omega_m=TWO_PI * 6e6,
        gamma_m=TWO_PI * 100.0,
        Delta1=TWO_PI * 6e6,
        Delta2=TWO_PI * 6e6,
        kappa1=TWO_PI * 2e6,
        kappa2=TWO_PI * 2e6,
        J=TWO_PI * 1e6,
        phi=math.pi / 2.0,
        G1=TWO_PI * 7e3,
        G2=TWO_PI * 7e3,
        Omega=TWO_PI * 6e6,
        Nbar1=0.0,
        Nbar2=0.0,
        Nbar_m=0.5,
    )
