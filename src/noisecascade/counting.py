"""
Full counting statistics of excitation exchange with each bath.

The biased dynamics tilts the noise channel of interest by a counting field
s; the biased covariance solves an algebraic Riccati equation and the
large-deviation function theta(s) encodes all cumulants of the excitation
flow.  Everything is in the 2x2 mode space of ``cascaded``: the channel
enters through the projector P = u_hat u_hat† onto its (possibly
collective) mode, the tilting matrices are F-(s) = f-(s) P and
F+(s) = f+(s) P, and the machinery uses the doubled covariance sigma = 2 Y
(vacuum = identity).  The trace formulas for theta and the first moment
are consistent (equilibrium flows vanish and the per-channel moments sum to
zero) only in that normalization.  The flows come out as
eta_ch = 2 rate_ch (<n_ch> - nbar_ch), with <n_ch> the occupation of the
channel's mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cascaded import CascadedParams, LinearSystem, UnsupportedParamsError
from .linalg import UnstableEffectiveDriftError, solve_riccati_biased

MAX_CONTINUATION_STEP = 0.05


class ZeroRateChannelError(Exception):
    """Counting on a channel with zero coupling rate is undefined."""


class OutsideAdmissibleRegionError(Exception):
    """Counting field left the region where the biased Riccati equation is solvable."""

    def __init__(self, message: str, last_admissible_s: float):
        super().__init__(message)
        self.last_admissible_s = last_admissible_s


@dataclass(frozen=True)
class BiasMatrices:
    """Tilting matrices F-(s), F+(s) of the biased dynamics; both vanish at s=0."""

    Fminus: NDArray[np.complex128]
    Fplus: NDArray[np.complex128]


def _channel(sys: LinearSystem, channel: int):
    for ch in sys.channels:
        if ch.index == channel:
            if ch.rate <= 0.0:
                raise ZeroRateChannelError(f"channel {channel} has zero rate")
            return ch
    raise ValueError(f"no channel with index {channel}")


def _projector(sys: LinearSystem, channel: int) -> NDArray[np.complex128]:
    """Projector u_hat u_hat† onto the channel's (possibly collective) mode."""
    ch = _channel(sys, channel)
    uhat = ch.u / math.sqrt(ch.rate)
    return np.outer(uhat, uhat.conj())


def bias_matrices(channel: int, s: float, sys: LinearSystem) -> BiasMatrices:
    """Tilting matrices for counting excitations exchanged with one bath.

    For a local channel this is f_{j+-}(s) on the channel's diagonal entry;
    the collective channel projects onto the collective mode instead.
    """
    ch = _channel(sys, channel)
    P = _projector(sys, channel)
    em, ep = math.expm1(-s), math.expm1(s)
    f_common = (ch.nbar + 1.0) * em
    f_alt = ch.nbar * ep
    fminus = ch.rate * (f_common - f_alt)
    fplus = ch.rate * (f_common + f_alt)
    return BiasMatrices(Fminus=fminus * P, Fplus=fplus * P)


def biased_covariance(
    channel: int,
    s: float,
    sys: LinearSystem,
    sigma0: NDArray[np.complex128],
) -> NDArray[np.complex128]:
    """Doubled biased covariance sigma_s, reached by continuation from s = 0.

    ``sigma0`` is the unbiased doubled covariance 2Y, which seeds the warm
    starts.  Continuation proceeds in steps of at most MAX_CONTINUATION_STEP.
    """
    n_steps = max(1, math.ceil(abs(s) / MAX_CONTINUATION_STEP))
    sigma = np.asarray(sigma0)
    s_prev = 0.0
    for k in range(1, n_steps + 1):
        sk = s * k / n_steps
        bias = bias_matrices(channel, sk, sys)
        try:
            sigma = solve_riccati_biased(sys.M, 2.0 * sys.N, bias.Fminus, bias.Fplus, sigma)
        except UnstableEffectiveDriftError as exc:
            raise OutsideAdmissibleRegionError(
                f"biased dynamics unstable at s = {sk:.6g}", last_admissible_s=s_prev
            ) from exc
        s_prev = sk
    return sigma


def large_deviation(
    channel: int,
    s: float,
    sys: LinearSystem,
    V: NDArray[np.complex128],
) -> float:
    """Large-deviation function theta(s) = Re Tr{F+(s) sigma_s - F-(s)}.

    ``V`` is the unbiased steady-state covariance Y (vacuum = I/2).
    theta(0) is exactly zero.
    """
    if s == 0.0:
        return 0.0
    sigma_s = biased_covariance(channel, s, sys, 2.0 * np.asarray(V))
    bias = bias_matrices(channel, s, sys)
    return np.trace(bias.Fplus @ sigma_s).real - np.trace(bias.Fminus).real


def flow_first_moment(channel: int, sys: LinearSystem, V: NDArray[np.complex128]) -> float:
    """Mean rate of excitation flow into bath ``channel`` (trace formula).

    Positive values mean net excitations absorbed by the bath.  Does not
    require the biased covariance: uses the s-derivatives of the tilting
    functions, f'+ = -rate and f'- = -rate (2 nbar + 1), at s = 0.
    """
    ch = _channel(sys, channel)
    P = _projector(sys, channel)
    sigma = 2.0 * np.asarray(V)
    fp_prime = -ch.rate
    fm_prime = -ch.rate * (2.0 * ch.nbar + 1.0)
    return -(fp_prime * np.trace(P @ sigma).real - fm_prime * np.trace(P).real)


_STENCILS = {
    1: ({1: 0.5, -1: -0.5}, 1),
    2: ({1: 1.0, 0: -2.0, -1: 1.0}, 2),
    3: ({2: 0.5, 1: -1.0, -1: 1.0, -2: -0.5}, 3),
    4: ({2: 1.0, 1: -4.0, 0: 6.0, -1: -4.0, -2: 1.0}, 4),
}


def flow_cumulant(
    channel: int,
    n: int,
    sys: LinearSystem,
    V: NDArray[np.complex128],
    h: float = 1e-3,
) -> float:
    """n-th flow moment eta^(n) = (-1)^n d^n theta/ds^n at s = 0.

    Central finite differences with one Richardson extrapolation step
    (the stencils are second-order accurate, so D = (4 D(h/2) - D(h))/3).
    """
    if n < 1 or n > 4:
        raise ValueError("cumulant order must be between 1 and 4")
    weights, power = _STENCILS[n]

    def diff(step: float) -> float:
        acc = 0.0
        for mult, w in weights.items():
            acc += w * large_deviation(channel, mult * step, sys, V)
        return acc / step**power

    d_h = diff(h)
    d_h2 = diff(h / 2.0)
    return (-1.0) ** n * (4.0 * d_h2 - d_h) / 3.0


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
