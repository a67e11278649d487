"""Non-reciprocal thermal-noise transport in cascaded two-oscillator systems."""

from .cascaded import (
    CascadedParams,
    LinearSystem,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    linear_response,
    occupation_from_temperature,
    occupations,
    steady_state,
    temperature_from_occupation,
)
from .counting import flow_cumulant, large_deviation, simplified_flows
from .linalg import solve_lyapunov, stability_margin
from .optomech import (
    OmParams,
    design_nonreciprocal,
    map_to_cascaded,
    mech_susceptibility,
    preset_microwave,
)
from .sweeps import SweepConfig, SweepResult, emit, parse_config, run_sweep

__all__ = [
    "CascadedParams",
    "LinearSystem",
    "build_system",
    "closed_form_occupations",
    "disconnected_baseline",
    "linear_response",
    "occupation_from_temperature",
    "occupations",
    "steady_state",
    "temperature_from_occupation",
    "solve_lyapunov",
    "stability_margin",
    "flow_cumulant",
    "large_deviation",
    "simplified_flows",
    "OmParams",
    "design_nonreciprocal",
    "map_to_cascaded",
    "mech_susceptibility",
    "preset_microwave",
    "SweepConfig",
    "SweepResult",
    "emit",
    "parse_config",
    "run_sweep",
]
