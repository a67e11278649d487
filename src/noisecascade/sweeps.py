"""
Parameter sweeps over the cascaded and optomechanical models with
deterministic CSV/JSON emission.

Configs are JSON documents with top-level keys ``model``, ``params``,
``axes``, ``outputs``, ``format`` and optional ``parallel`` / ``s_grid``.
Baseline occupations may be given either as bath occupations (nbar1..3) or
as disconnected-baseline occupations (mbar1..3), which are converted via
Nbar_i = 2 mbar_i - mbar_3 for i = 1, 2 and Nbar_3 = mbar_3.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
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
)
from .counting import OutsideAdmissibleRegionError, ZeroRateChannelError
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


def _evaluate(cfg: SweepConfig, axis_values: tuple[float, ...]) -> ResultRow:
    n_out = sum(len(cfg.s_grid) if o == "theta" else 1 for o in cfg.outputs)
    blank = (None,) * n_out
    try:
        p = _build_point(cfg, axis_values)
    except (NegativeOccupationError, InvalidParamsError, UnsupportedParamsError):
        return ResultRow(axis_values, blank, "unsupported")

    sys = build_system(p)
    margin = stability_margin(sys.M)
    stable = margin < 0.0
    V = solve_lyapunov(sys.M, sys.N) if stable else None
    n1 = n2 = None
    if V is not None:
        n1, n2 = occupations(V)

    values: list[float | None] = []
    status = "ok" if stable else "unstable"
    for name in cfg.outputs:
        if name == "stability_margin":
            values.append(margin)
            continue
        if name == "F_residual":
            values.append(abs(complex(p.F)))
            continue
        if not stable:
            values.extend([None] * (len(cfg.s_grid) if name == "theta" else 1))
            continue
        if name == "n1":
            values.append(n1)
        elif name == "n2":
            values.append(n2)
        elif name in ("m1", "m2", "dn1", "dn2", "n1_closed", "n2_closed"):
            try:
                if name in ("n1_closed", "n2_closed"):
                    c1, c2 = closed_form_occupations(p)
                    values.append(c1 if name == "n1_closed" else c2)
                else:
                    m1, m2 = disconnected_baseline(p)
                    values.append(
                        {"m1": m1, "m2": m2, "dn1": n1 - m1, "dn2": n2 - m2}[name]
                    )
            except UnsupportedParamsError:
                values.append(None)
                status = "unsupported"
        elif name in ("eta1", "eta2", "eta3"):
            try:
                values.append(flow_first_moment(int(name[-1]), sys, V))
            except ZeroRateChannelError:
                values.append(None)
                status = "unsupported"
        elif name == "theta":
            for s in cfg.s_grid:
                try:
                    values.append(large_deviation(1, s, sys, V))
                except (OutsideAdmissibleRegionError, ZeroRateChannelError):
                    values.append(None)
                    status = "unsupported"
    return ResultRow(axis_values, tuple(values), status)


def _grid(cfg: SweepConfig) -> list[tuple[float, ...]]:
    points: list[tuple[float, ...]] = [()]
    for ax in cfg.axes:
        points = [pt + (v,) for pt in points for v in ax.values()]
    return points


def _worker(payload: tuple[SweepConfig, tuple[float, ...]]) -> ResultRow:
    return _evaluate(*payload)


def run_sweep(cfg: SweepConfig) -> list[ResultRow]:
    """Evaluate the grid in row-major axis order; deterministic ordering."""
    points = _grid(cfg)
    if cfg.parallel and len(points) > 1:
        with ProcessPoolExecutor() as pool:
            chunk = max(1, len(points) // 32)
            rows = list(
                pool.map(_worker, [(cfg, pt) for pt in points], chunksize=chunk)
            )
    else:
        rows = [_evaluate(cfg, pt) for pt in points]
    return rows


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
