"""The paper's equal-rate closed-form flows, the reference that the trace
formula of ``counting.flow_cumulants`` is compared against."""

import numpy as np

from noisecascade.cascaded import CascadedParams


class ClosedFlowsError(Exception):
    """The closed-form flows hold only at equal rates and F = 0."""


def simplified_flows(p: CascadedParams) -> tuple[float, float, float]:
    """Closed-form first moments for equal rates and F = 0.

    The occupancy symbols here are the *bath* occupations: numerically
    matching these expressions against the general trace formula singles out
    that reading.  The three flows sum to zero identically.  One point only;
    the rates count as equal within 1e-12 of the largest.
    """
    if np.ndim(p.omega1):
        raise ValueError("simplified_flows takes one parameter point; arrays are not supported")
    rates = (p.kappa1, p.kappa2, p.gamma1, p.gamma2)
    if max(abs(r - p.kappa1) for r in rates) > 1e-12 * max(*rates, 1e-300):
        raise ClosedFlowsError("simplified flows require kappa1 = kappa2 = gamma1 = gamma2")
    if p.F != 0:
        raise ClosedFlowsError("simplified flows require F = 0")
    kappa = p.kappa1
    lorentz = 2.0 * kappa**2 / (4.0 * kappa**2 + p.detuning**2)
    n1b, n2b, n3b = p.nbar1, p.nbar2, p.nbar3
    eta1 = kappa * (n3b - n1b)
    eta2 = kappa * (lorentz * (n1b - n3b) + (n3b - n2b))
    eta3 = kappa * (lorentz * (n3b - n1b) + (n1b - n3b) + (n2b - n3b))
    return eta1, eta2, eta3
