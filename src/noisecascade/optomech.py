"""
Optomechanical realization: two driven cavities coupled by photon hopping and
by a shared mechanical mode that acts as an engineered reservoir.

After linearization and adiabatic elimination of the mechanics, the cavity
fluctuations obey an effective two-mode drift whose off-diagonal entries are
not complex conjugates; mapping the coefficients onto the cascaded model
lets the whole occupation/flow machinery apply directly.

As in ``cascaded``, OmParams fields are scalars or arrays (one item per
point), and the susceptibility and the mapping are array arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .cascaded import CascadedParams, InvalidParamsError
from .linalg import check_items

TWO_PI = 2.0 * math.pi

STRONG_DRIVE_THRESHOLD = 10.0


class DegenerateCavityError(Exception):
    """Cavity with zero linewidth and zero detuning has no steady drive response."""


class NoCouplingError(Exception):
    """The non-reciprocity design condition needs both optomechanical couplings."""


@dataclass
class OmParams:
    """Hardware parameters of the two-cavity/one-mechanical-mode platform.

    ``Omega`` is the evaluation frequency in the rotating frame (defaults to
    the mechanical resonance).  ``kappa_int``/``kappa_ext`` split each total
    linewidth; unspecified splits default to fully extrinsic.
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
    kappa_int1: float = 0.0
    kappa_ext1: float | None = None
    kappa_int2: float = 0.0
    kappa_ext2: float | None = None
    Nbar1: float = 0.0
    Nbar2: float = 0.0
    Nbar_m: float = 0.0
    cavity_resonance: float | None = None

    def __post_init__(self) -> None:
        if self.Omega is None:
            self.Omega = self.omega_m
        if self.kappa_ext1 is None:
            self.kappa_ext1 = self.kappa1 - self.kappa_int1
        if self.kappa_ext2 is None:
            self.kappa_ext2 = self.kappa2 - self.kappa_int2
        self.invalid()

    def invalid(self) -> NDArray[np.bool_]:
        """Mask of the invalid points; one point raises InvalidParamsError instead."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in vars(self).values()))
        failed, error = np.zeros(shape, bool), InvalidParamsError
        failed = check_items(failed, self.gamma_m <= 0.0, error, "gamma_m must be positive")
        message = "effective couplings G1, G2 must be non-negative"
        failed = check_items(failed, (self.G1 < 0.0) | (self.G2 < 0.0), error, message)
        for name in ("Nbar1", "Nbar2", "Nbar_m"):
            message = f"{name} must be non-negative"
            failed = check_items(failed, getattr(self, name) < 0.0, error, message)
        for i in (1, 2):
            total, internal, external = (vars(self)[f"kappa{k}{i}"] for k in ("", "_int", "_ext"))
            message = f"kappa splits of cavity {i} must be non-negative"
            failed = check_items(failed, (internal < 0.0) | (external < 0.0), error, message)
            mismatch = np.abs(internal + external - total) > 1e-12 * np.maximum(abs(total), 1.0)
            message = f"kappa_int{i} + kappa_ext{i} must equal kappa{i}"
            failed = check_items(failed, mismatch, error, message)
        return failed


@dataclass(frozen=True)
class DriveSpec:
    """Single-photon couplings and drive amplitudes before linearization."""

    g1: float
    g2: float
    E1: float
    E2: float


@dataclass(frozen=True)
class LinearizationResult:
    """Steady-state drive amplitudes and effective couplings.

    ``strong_drive`` flags whether both |alpha_i| clear the linearization
    validity threshold.
    """

    alpha1: float
    alpha2: float
    G1: float
    G2: float
    strong_drive: bool


@dataclass(frozen=True)
class Susceptibility:
    """Mechanical response chi at one frequency, with its Omega-referenced form.

    ``chi_tilde`` = chi(omega) |chi(Omega)| / chi(Omega) and ``nu`` is the
    phase of chi(Omega); 2 Re chi = gamma_m |chi|^2 holds identically.
    """

    chi: complex
    chi_tilde: complex
    nu: float


@dataclass(frozen=True)
class NonReciprocalDesign:
    """Hopping rate and phase closing the 2 -> 1 transmission direction."""

    j_star: float
    phi_star: float
    residual: float


def mech_susceptibility(omega: float, p: OmParams) -> Susceptibility:
    """Mechanical susceptibility 1/[gamma_m/2 - i (omega - omega_m)]."""
    chi = np.divide(1.0, p.gamma_m / 2.0 - 1j * (omega - p.omega_m))
    chi_ref = np.divide(1.0, p.gamma_m / 2.0 - 1j * (p.Omega - p.omega_m))
    chi_tilde = chi * np.abs(chi_ref) / chi_ref
    return Susceptibility(chi=chi, chi_tilde=chi_tilde, nu=np.angle(chi_ref))


def linearize(d: DriveSpec, p: OmParams) -> LinearizationResult:
    """Classical drive amplitudes |alpha_i| and effective couplings G_i = g_i |alpha_i|.

    Drive phases are absorbed into the overall phase convention (G_1 real,
    G_2's phase folded into phi), so only magnitudes are returned.
    """
    alphas = []
    for delta, kappa, E in ((p.Delta1, p.kappa1, d.E1), (p.Delta2, p.kappa2, d.E2)):
        denom = 4.0 * delta**2 + kappa**2
        if denom == 0.0:
            raise DegenerateCavityError("4 Delta^2 + kappa^2 vanishes")
        alphas.append(2.0 * abs(E) / math.sqrt(denom))
    strong = all(a >= STRONG_DRIVE_THRESHOLD for a in alphas)
    return LinearizationResult(
        alpha1=alphas[0],
        alpha2=alphas[1],
        G1=abs(d.g1) * alphas[0],
        G2=abs(d.g2) * alphas[1],
        strong_drive=strong,
    )


def build_om_drift(
    p: OmParams, omega: float
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Effective two-cavity drift at frequency omega plus the mechanical coupling.

    The mechanical noise column is returned after the gauge transformation
    that makes it real at Omega up to the hopping phase, i.e.
    (G1 sqrt(gamma_m) chi~, G2 sqrt(gamma_m) chi~ e^{i phi}).
    """
    sus = mech_susceptibility(omega, p)
    chi = sus.chi
    eip = np.exp(1j * p.phi)
    M = np.array(
        [
            [
                -1j * p.Delta1 - p.kappa1 / 2.0 - p.G1**2 * chi,
                -1j * p.J - chi * p.G1 * p.G2 / eip,
            ],
            [
                -1j * p.J - chi * p.G1 * p.G2 * eip,
                -1j * p.Delta2 - p.kappa2 / 2.0 - p.G2**2 * chi,
            ],
        ],
        dtype=complex,
    )
    sqrt_gm = math.sqrt(p.gamma_m)
    noise = np.array(
        [p.G1 * sqrt_gm * sus.chi_tilde, p.G2 * sqrt_gm * sus.chi_tilde * eip],
        dtype=complex,
    )
    return M, noise


@np.errstate(divide="ignore", invalid="ignore")  # gamma_m = 0 at invalid() items
def map_to_cascaded(p: OmParams) -> CascadedParams:
    """Translate optomechanical parameters into cascaded-model parameters.

    Valid when the mechanical susceptibility is effectively constant over
    the signal bandwidth; all coefficients are frozen at Omega.
    """
    chi = mech_susceptibility(p.Omega, p).chi
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


def design_nonreciprocal(p: OmParams) -> NonReciprocalDesign:
    """Hopping rate and phase that cancel the residual coherent hopping F.

    J* = G1 G2 |chi(Omega)| and phi* = arg(i chi(Omega)), so that
    J* - i chi(Omega) G1 G2 e^{-i phi*} = 0 with J* real.
    """
    if p.G1 * p.G2 <= 0.0:
        raise NoCouplingError("design condition needs G1 * G2 > 0")
    chi = mech_susceptibility(p.Omega, p).chi
    j_star = p.G1 * p.G2 * abs(chi)
    phi_star = float(np.angle(1j * chi))
    residual = abs(j_star - 1j * chi * p.G1 * p.G2 * np.exp(-1j * phi_star))
    return NonReciprocalDesign(j_star=j_star, phi_star=phi_star, residual=residual)


def combined_cavity_occupation(
    kappa_ext: float, nbar_ext: float, kappa_int: float, nbar_int: float
) -> float:
    """Occupation seen by a cavity's combined input: rate-weighted bath average."""
    total = kappa_ext + kappa_int
    if total <= 0.0:
        raise InvalidParamsError("total linewidth must be positive")
    return (kappa_ext * nbar_ext + kappa_int * nbar_int) / total


def preset_microwave() -> OmParams:
    """Experimentally feasible microwave electromechanical parameter set.

    All rates are angular frequencies (2 pi x Hz).  The hopping phase is set
    to the on-resonance non-reciprocal value; the quoted J = 2 pi x 1 MHz
    sits about 2% above the exact design point 2 G^2 / gamma_m.
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
        cavity_resonance=TWO_PI * 5e9,
    )
