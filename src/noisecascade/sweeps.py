"""
Parameter sweeps over the cascaded and optomechanical models with
deterministic CSV/JSON emission.

Configs are JSON documents with top-level keys ``model``, ``params``,
``axes``, ``outputs``, ``format`` and optional ``parallel`` / ``s_grid``.
Baseline occupations may be given either as bath occupations (nbar1..3) or
as disconnected-baseline occupations (mbar1..3), which are converted via
Nbar_i = 2 mbar_i - mbar_3 for i = 1, 2 and Nbar_3 = mbar_3.

The grid is evaluated in blocks of BLOCK_POINTS points.  A block is one
array-valued parameter set built from the axis columns, with all-zero
placeholders at its invalid points, and one stacked system; every layer,
from the parameters to each output column, makes one call per block (one
per s value for theta).  The result is columnar: a SweepResult holds value,
validity and status arrays, which ``emit`` formats in one pass.
``parallel`` is accepted and ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dc_fields
from sys import float_info

import numpy as np
from numpy.typing import NDArray

from .cascaded import (
    CascadedParams,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    occupations,
)
from .counting import flow_first_moment, large_deviation
from .linalg import check_items, solve_lyapunov, stability_margin
from .optomech import OmParams, map_to_cascaded


class SchemaError(Exception):
    """Config document violates the sweep schema; message carries the field path."""


class NegativeOccupationError(Exception):
    """mbar-to-Nbar conversion produced a negative bath occupation."""


_TOP_KEYS = {"model", "params", "axes", "outputs", "format", "parallel", "s_grid"}
_AXIS_KEYS = {"variable", "min", "max", "points", "spacing"}
_MODELS = ("cascaded", "optomech")
_FORMATS = ("csv", "json")
_OUTPUTS = (
    "n1",
    "n2",
    "m1",
    "m2",
    "dn1",
    "dn2",
    "n1_closed",
    "n2_closed",
    "eta1",
    "eta2",
    "eta3",
    "theta",
    "stability_margin",
    "F_residual",
)

_CASCADED_FIELDS = {f.name for f in dc_fields(CascadedParams)}
_OM_FIELDS = {f.name for f in dc_fields(OmParams)}
_MBAR_KEYS = ("mbar1", "mbar2", "mbar3")

# grid points per stacked block; bounds the memory that one block holds
BLOCK_POINTS = 512


@dataclass(frozen=True)
class SweepAxis:
    """One swept variable with its grid."""

    variable: str
    min: float
    max: float
    points: int
    spacing: str = "linear"

    def values(self) -> NDArray[np.float64]:
        space = np.geomspace if self.spacing == "log" else np.linspace
        return space(self.min, self.max, self.points)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; ``params`` is kept in raw (possibly mbar) form."""

    model: str
    params: dict
    axes: tuple[SweepAxis, ...]
    outputs: tuple[str, ...]
    format: str = "csv"
    parallel: bool = False
    s_grid: tuple[float, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    """One row per grid point and one column per ``column_names`` entry: the
    axes and outputs in ``values``, False at blank cells in ``valid``, and
    the last column in ``status``."""

    values: NDArray[np.float64]
    valid: NDArray[np.bool_]
    status: NDArray[np.str_]


def convert_mbar(params: dict) -> dict:
    """Replace mbar1..3 by nbar1..3 in a parameter dict, validating positivity.

    Arrays keep their negative occupations, which CascadedParams flags.
    """
    if not any(k in params for k in _MBAR_KEYS):
        return dict(params)
    if any(k.startswith("nbar") for k in params):
        raise SchemaError("params: give either mbar or nbar occupations, not both")
    out = dict(params)
    m3 = out.pop("mbar3", 0.0)
    m1 = out.pop("mbar1", m3)
    m2 = out.pop("mbar2", m3)
    n1, n2 = 2.0 * m1 - m3, 2.0 * m2 - m3
    negative = (n1 < 0.0) | (n2 < 0.0) | (m3 < 0.0)
    message = "mbar conversion gives Nbar1 = {:g}, Nbar2 = {:g}, Nbar3 = {:g}"
    check_items(np.zeros_like(negative), negative, NegativeOccupationError, message, n1, n2, m3)
    out.update(nbar1=n1, nbar2=n2, nbar3=m3)
    return out


def cascaded_from_raw(raw: dict) -> CascadedParams:
    """Build CascadedParams from user-facing names: mbar1..3, Delta and F as a string.

    ``Delta`` sets omega2 = omega1 + Delta.  Unknown names raise SchemaError.
    """
    raw = convert_mbar(raw)
    if "Delta" in raw:
        raw["omega2"] = raw.get("omega1", 0.0) + raw.pop("Delta")
    if isinstance(raw.get("F"), str):
        raw["F"] = complex(raw["F"])
    try:
        return CascadedParams(**raw)
    except TypeError as exc:
        raise SchemaError(str(exc)) from exc


def _is_number(value) -> bool:
    """A finite JSON number; booleans are ints in Python but not numbers here.

    The bound rejects NaN, Infinity and integers beyond the float range.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= float_info.max


def _is_complex(value) -> bool:
    """A finite JSON number or a string that complex() accepts, such as "0.1-0.2j"."""
    if isinstance(value, str):
        try:
            return bool(np.isfinite(complex(value)))
        except ValueError:
            return False
    return _is_number(value)


def _allowed_variables(model: str) -> set[str]:
    if model == "cascaded":
        return _CASCADED_FIELDS | {"Delta"} | set(_MBAR_KEYS)
    return {f for f in _OM_FIELDS if f != "cavity_resonance"}


def parse_config(text: str) -> SweepConfig:
    """Parse and validate a JSON sweep config."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("model", "params", "axes", "outputs"):
        if key not in doc:
            raise SchemaError(f"missing required key: {key}")
    model = doc["model"]
    if model not in _MODELS:
        raise SchemaError(f"model: must be one of {_MODELS}")
    fmt = doc.get("format", "csv")
    if fmt not in _FORMATS:
        raise SchemaError(f"format: must be one of {_FORMATS}")
    parallel = doc.get("parallel", False)
    if not isinstance(parallel, bool):
        raise SchemaError("parallel: must be a boolean")

    params = doc["params"]
    if not isinstance(params, dict):
        raise SchemaError("params: must be an object")
    allowed = _allowed_variables(model)
    for name, value in params.items():
        if name not in allowed:
            raise SchemaError(f"params.{name}: unknown parameter for model {model}")
        if name == "F":
            if not _is_complex(value):
                raise SchemaError("params.F: must be a finite number or complex string")
        elif not _is_number(value):
            raise SchemaError(f"params.{name}: must be a finite number")
    if model == "cascaded":
        # validate the mbar conversion on the baseline values up front
        convert_mbar(params)

    axes_doc = doc["axes"]
    if not isinstance(axes_doc, list) or not axes_doc:
        raise SchemaError("axes: must be a non-empty list")
    if len(axes_doc) > 3:
        raise SchemaError("axes: at most 3 sweep axes supported")
    axes = []
    for i, ax in enumerate(axes_doc):
        path = f"axes[{i}]"
        if not isinstance(ax, dict):
            raise SchemaError(f"{path}: must be an object")
        unknown = set(ax) - _AXIS_KEYS
        if unknown:
            raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
        for key in ("variable", "min", "max", "points"):
            if key not in ax:
                raise SchemaError(f"{path}.{key}: missing")
        if ax["variable"] not in allowed:
            raise SchemaError(f"{path}.variable: unknown variable {ax['variable']!r}")
        for key in ("min", "max"):
            if not _is_number(ax[key]):
                raise SchemaError(f"{path}.{key}: must be a finite number")
        points = ax["points"]
        if isinstance(points, bool) or not isinstance(points, int) or points < 1:
            raise SchemaError(f"{path}.points: must be an integer >= 1")
        spacing = ax.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise SchemaError(f"{path}.spacing: must be 'linear' or 'log'")
        if spacing == "log" and (ax["min"] <= 0 or ax["max"] <= 0):
            raise SchemaError(f"{path}: log spacing requires positive bounds")
        axes.append(
            SweepAxis(
                variable=ax["variable"],
                min=float(ax["min"]),
                max=float(ax["max"]),
                points=points,
                spacing=spacing,
            )
        )

    outputs_doc = doc["outputs"]
    if not isinstance(outputs_doc, list) or not outputs_doc:
        raise SchemaError("outputs: must be a non-empty list")
    for name in outputs_doc:
        if name not in _OUTPUTS:
            raise SchemaError(f"outputs: unknown quantity {name!r}")
    s_grid = doc.get("s_grid", [])
    if not isinstance(s_grid, list):
        raise SchemaError("s_grid: must be a list of numbers")
    for i, s in enumerate(s_grid):
        if not _is_number(s):
            raise SchemaError(f"s_grid[{i}]: must be a finite number")
    if "theta" in outputs_doc and not s_grid:
        raise SchemaError("outputs: 'theta' requires a non-empty s_grid")

    return SweepConfig(
        model=model,
        params=dict(params),
        axes=tuple(axes),
        outputs=tuple(outputs_doc),
        format=fmt,
        parallel=parallel,
        s_grid=tuple(float(s) for s in s_grid),
    )


def column_names(cfg: SweepConfig) -> list[str]:
    """Column order: axes, then outputs (theta expanded over s_grid), then status."""
    cols = [ax.variable for ax in cfg.axes]
    for name in cfg.outputs:
        if name == "theta":
            cols.extend(f"theta@{s:g}" for s in cfg.s_grid)
        else:
            cols.append(name)
    cols.append("status")
    return cols


def _block(cfg: SweepConfig, axis_columns: list[NDArray[np.float64]]) -> tuple[NDArray, ...]:
    """(values, valid, status) of a block of grid points: one call per layer and s value.

    The block's parameters are one array-valued CascadedParams built from its
    axis columns, with all-zero placeholders (as in CascadedParams()) at its
    invalid points.  A cell is blank where its quantity is undefined: an
    unstable drift, a failed Lyapunov solve (n*, dn*, eta*), unequal rates
    (m*, dn*, n*_closed), a zero-rate channel (eta*, theta) or an s outside
    the admissible region (theta).  A stable row with a blank cell is
    ``unsupported``, as is a point whose parameters are invalid.
    """
    raw = dict(cfg.params)
    raw.update(zip((ax.variable for ax in cfg.axes), axis_columns))
    if cfg.model == "cascaded":
        p = cascaded_from_raw(raw)
        built = ~p.invalid()
    else:
        om = OmParams(**raw)
        p = map_to_cascaded(om)
        built = ~(om.invalid() | p.invalid())
    p = CascadedParams(**{f.name: np.where(built, getattr(p, f.name), 0.0) for f in dc_fields(p)})
    sys = build_system(p)
    margin = stability_margin(sys.M)
    stable = built & (margin < 0.0)
    Y, singular = solve_lyapunov(sys.M, sys.N)
    Y[~stable] = np.nan  # no steady state
    has_y = stable & ~singular
    n = occupations(Y)
    base, unequal = disconnected_baseline(p)
    closed, _ = closed_form_occupations(p)
    has_base = stable & ~unequal
    cells = {
        "stability_margin": [(margin, built)],
        # hypot rounds like abs() of one Python complex; np.abs may differ in the last bit
        "F_residual": [(np.hypot(p.F.real, p.F.imag), built)],
    }
    for i in (0, 1):
        cells[f"n{i + 1}"] = [(n[i], has_y)]
        cells[f"m{i + 1}"] = [(base[i], has_base)]
        cells[f"dn{i + 1}"] = [(n[i] - base[i], has_y & has_base)]
        cells[f"n{i + 1}_closed"] = [(closed[i], has_base)]
    for k in (1, 2, 3):
        eta, zero_rate = flow_first_moment(k, sys, Y)
        cells[f"eta{k}"] = [(eta, has_y & ~zero_rate)]
    if "theta" in cfg.outputs:
        thetas = (large_deviation(1, s, sys, Y) for s in cfg.s_grid)
        cells["theta"] = [(theta, stable & ~failed) for theta, failed in thetas]
    columns = [cell for name in cfg.outputs for cell in cells[name]]
    values = np.column_stack(axis_columns + [v for v, _ in columns])
    valid = np.column_stack([np.ones_like(built)] * len(axis_columns) + [ok for _, ok in columns])
    unstable = np.where(built & ~stable, "unstable", "unsupported")
    return values, valid, np.where(stable & valid.all(axis=1), "ok", unstable)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the grid in row-major axis order, BLOCK_POINTS points per stacked block."""
    grid = np.meshgrid(*(ax.values() for ax in cfg.axes), indexing="ij")
    axis_columns = [g.ravel() for g in grid]
    blocks = [
        _block(cfg, [c[start : start + BLOCK_POINTS] for c in axis_columns])
        for start in range(0, axis_columns[0].size, BLOCK_POINTS)
    ]
    return SweepResult(*map(np.concatenate, zip(*blocks)))


def emit(result: SweepResult, cfg: SweepConfig) -> bytes:
    """Serialize the result per the config format; byte-identical for identical inputs."""
    if not result.status.size:
        raise ValueError("no rows to emit")
    cols = column_names(cfg)
    rows = zip(np.where(result.valid, result.values, None).tolist(), result.status.tolist())
    if cfg.format == "json":
        records = [dict(zip(cols, cells + [status])) for cells, status in rows]
        return (json.dumps(records, indent=2) + "\n").encode()
    lines = [",".join(cols)]
    lines += [
        ",".join(["" if x is None else "%.17g" % x for x in cells] + [status])
        for cells, status in rows
    ]
    return ("\n".join(lines) + "\n").encode()
