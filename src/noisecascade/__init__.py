"""Non-reciprocal thermal-noise transport in cascaded two-oscillator systems."""

from .cascaded import (
    CascadedParams,
    LinearSystem,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    linear_response,
    occupations,
)
from .counting import flow_cumulants, large_deviation
from .linalg import solve_lyapunov, stability_margin
from .optomech import (
    OmParams,
    design_nonreciprocal,
    map_to_cascaded,
    mech_susceptibility,
    preset_microwave,
)
from .sweeps import (
    SweepConfig,
    SweepResult,
    emit,
    emit_parts,
    iter_blocks,
    parse_config,
    run_sweep,
)

__all__ = [
    "CascadedParams",
    "LinearSystem",
    "build_system",
    "closed_form_occupations",
    "disconnected_baseline",
    "linear_response",
    "occupations",
    "solve_lyapunov",
    "stability_margin",
    "flow_cumulants",
    "large_deviation",
    "OmParams",
    "design_nonreciprocal",
    "map_to_cascaded",
    "mech_susceptibility",
    "preset_microwave",
    "SweepConfig",
    "SweepResult",
    "emit",
    "emit_parts",
    "iter_blocks",
    "parse_config",
    "run_sweep",
]
