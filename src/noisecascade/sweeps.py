"""
Parameter sweeps over the cascaded and optomechanical models with
deterministic CSV/JSON emission.

Configs are JSON documents with top-level keys ``model``, ``params``,
``axes``, ``outputs``, ``format`` and optional ``parallel`` / ``s_grid``.
Baseline occupations may be given either as bath occupations (nbar1..3) or
as disconnected-baseline occupations (mbar1..3), which are converted via
Nbar_i = 2 mbar_i - mbar_3 for i = 1, 2 and Nbar_3 = mbar_3.

The grid is evaluated in blocks of BLOCK_POINTS points: each point's
parameters and system are built one by one, and every output column of a
block comes from one stacked kernel call (one per s value for theta).
``parallel`` is accepted and ignored.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields as dc_fields
from io import StringIO
import csv

import numpy as np

from .cascaded import (
    CascadedParams,
    InvalidParamsError,
    UnsupportedParamsError,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    occupations,
    stack_systems,
)
from .counting import flow_first_moment, large_deviation
from .linalg import solve_lyapunov, stability_margin
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

    def values(self) -> list[float]:
        if self.points == 1:
            return [float(self.min)]
        if self.spacing == "log":
            return [float(v) for v in np.geomspace(self.min, self.max, self.points)]
        return [float(v) for v in np.linspace(self.min, self.max, self.points)]


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
class ResultRow:
    """Axis values, one value per output column (None when not computed), status."""

    axis_values: tuple[float, ...]
    outputs: tuple[float | None, ...]
    status: str


def convert_mbar(params: dict) -> dict:
    """Replace mbar1..3 by nbar1..3 in a parameter dict, validating positivity."""
    if not any(k in params for k in _MBAR_KEYS):
        return dict(params)
    if any(k.startswith("nbar") for k in params):
        raise SchemaError("params: give either mbar or nbar occupations, not both")
    out = dict(params)
    m3 = float(out.pop("mbar3", 0.0))
    m1 = float(out.pop("mbar1", m3))
    m2 = float(out.pop("mbar2", m3))
    n1, n2 = 2.0 * m1 - m3, 2.0 * m2 - m3
    if n1 < 0.0 or n2 < 0.0 or m3 < 0.0:
        raise NegativeOccupationError(
            f"mbar conversion gives Nbar1 = {n1:g}, Nbar2 = {n2:g}, Nbar3 = {m3:g}"
        )
    out.update(nbar1=n1, nbar2=n2, nbar3=m3)
    return out


def cascaded_from_raw(raw: dict) -> CascadedParams:
    """Build CascadedParams from user-facing names: mbar1..3, Delta and F as a string.

    ``Delta`` sets omega2 = omega1 + Delta.  Unknown names raise SchemaError.
    """
    raw = convert_mbar(raw)
    if "Delta" in raw:
        delta = raw.pop("Delta")
        raw["omega2"] = raw.get("omega1", 0.0) + delta
    if "F" in raw:
        raw["F"] = complex(raw["F"])
    try:
        return CascadedParams(**raw)
    except TypeError as exc:
        raise SchemaError(str(exc)) from exc


def _is_number(value) -> bool:
    """A JSON number; booleans are ints in Python but not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_complex(value) -> bool:
    """A JSON number or a string that complex() accepts, such as "0.1-0.2j"."""
    if isinstance(value, str):
        try:
            complex(value)
        except ValueError:
            return False
        return True
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
                raise SchemaError("params.F: must be a number or a complex string")
        elif not _is_number(value):
            raise SchemaError(f"params.{name}: must be a number")
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
                raise SchemaError(f"{path}.{key}: must be a number")
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
    if not isinstance(s_grid, list) or not all(_is_number(s) for s in s_grid):
        raise SchemaError("s_grid: must be a list of numbers")
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


def _build_point(cfg: SweepConfig, axis_values: tuple[float, ...]) -> CascadedParams:
    raw = dict(cfg.params)
    for ax, value in zip(cfg.axes, axis_values):
        raw[ax.variable] = value
    if cfg.model == "cascaded":
        return cascaded_from_raw(raw)
    return map_to_cascaded(OmParams(**raw))


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


def _per_point(fn, params: list[CascadedParams], mask: np.ndarray):
    """fn(p) -> (x1, x2) at the masked points as a (P, 2) array, and where it is defined."""
    out, defined = np.full((len(params), 2), np.nan), mask.copy()
    for i in np.flatnonzero(mask):
        try:
            out[i] = fn(params[i])
        except UnsupportedParamsError:
            defined[i] = False
    return out, defined


def _block(cfg: SweepConfig, points: list[tuple[float, ...]]) -> list[ResultRow]:
    """Rows of a block of grid points: one stacked call per kernel and s value.

    A cell is blank where its quantity is undefined: an unstable drift, a
    failed Lyapunov solve (n*, dn*, eta*), unequal rates (m*, dn*, n*_closed),
    a zero-rate channel (eta*, theta) or an s outside the admissible region
    (theta).  A stable row with a blank cell is ``unsupported``, as is a
    point whose parameters are invalid.
    """
    params, built = [], np.ones(len(points), bool)
    for i, pt in enumerate(points):
        try:
            params.append(_build_point(cfg, pt))
        except (NegativeOccupationError, InvalidParamsError, UnsupportedParamsError):
            params.append(CascadedParams())  # all rates zero: unstable, and blanked
            built[i] = False
    sys = stack_systems([build_system(p) for p in params])
    margin = stability_margin(sys.M)
    stable = built & (margin < 0.0)
    Y, singular = solve_lyapunov(sys.M, sys.N)
    Y[~stable] = np.nan  # no steady state
    has_y = stable & ~singular
    n = np.stack(occupations(Y), axis=-1)
    wanted = set(cfg.outputs)  # the per-point closed forms run only for requested columns
    base, has_base = _per_point(
        disconnected_baseline, params, stable & bool(wanted & {"m1", "m2", "dn1", "dn2"})
    )
    closed, has_closed = _per_point(
        closed_form_occupations, params, stable & bool(wanted & {"n1_closed", "n2_closed"})
    )
    cells = {
        "stability_margin": [(margin, built)],
        "F_residual": [(np.array([abs(complex(p.F)) for p in params]), built)],
    }
    for i in (0, 1):
        cells[f"n{i + 1}"] = [(n[:, i], has_y)]
        cells[f"m{i + 1}"] = [(base[:, i], has_base)]
        cells[f"dn{i + 1}"] = [(n[:, i] - base[:, i], has_y & has_base)]
        cells[f"n{i + 1}_closed"] = [(closed[:, i], has_closed)]
    for k in (1, 2, 3):
        if f"eta{k}" in wanted:
            eta, zero_rate = flow_first_moment(k, sys, Y)
            cells[f"eta{k}"] = [(eta, has_y & ~zero_rate)]
    if "theta" in wanted:
        thetas = (large_deviation(1, s, sys, Y) for s in cfg.s_grid)
        cells["theta"] = [(theta, stable & ~failed) for theta, failed in thetas]
    columns = [cell for name in cfg.outputs for cell in cells[name]]
    values = np.column_stack([v for v, _ in columns]).tolist()
    valid = np.column_stack([ok for _, ok in columns]).tolist()
    rows = []
    for pt, vs, oks, b, st in zip(points, values, valid, built, stable):
        status = "ok" if st and all(oks) else "unstable" if b and not st else "unsupported"
        rows.append(ResultRow(pt, tuple(v if ok else None for v, ok in zip(vs, oks)), status))
    return rows


def _grid(cfg: SweepConfig) -> list[tuple[float, ...]]:
    return list(itertools.product(*(ax.values() for ax in cfg.axes)))


def run_sweep(cfg: SweepConfig) -> list[ResultRow]:
    """Evaluate the grid in row-major axis order, BLOCK_POINTS points per stacked block."""
    points = _grid(cfg)
    return [
        row
        for start in range(0, len(points), BLOCK_POINTS)
        for row in _block(cfg, points[start : start + BLOCK_POINTS])
    ]


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def emit(rows: list[ResultRow], cfg: SweepConfig) -> bytes:
    """Serialize rows per the config format; byte-identical for identical inputs."""
    if not rows:
        raise ValueError("no rows to emit")
    cols = column_names(cfg)
    if cfg.format == "json":
        records = []
        for row in rows:
            rec: dict[str, float | str | None] = {}
            cells = list(row.axis_values) + list(row.outputs) + [row.status]
            for name, cell in zip(cols, cells):
                rec[name] = float(cell) if isinstance(cell, (int, float)) else cell
            records.append(rec)
        return (json.dumps(records, indent=2) + "\n").encode()
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        cells = list(row.axis_values) + list(row.outputs) + [row.status]
        writer.writerow(
            [
                _fmt_float(c) if isinstance(c, (int, float)) else ("" if c is None else c)
                for c in cells
            ]
        )
    return buf.getvalue().encode()
