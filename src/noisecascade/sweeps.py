"""
Parameter sweeps over the cascaded and optomechanical models with
deterministic CSV/JSON emission.

Configs are JSON documents with top-level keys ``model``, ``params``,
``axes``, ``outputs``, ``format`` and optional ``parallel`` / ``s_grid``.
Baseline occupations may be given either as bath occupations (nbar1..3) or
as disconnected-baseline occupations (mbar1..3), which are converted via
Nbar_i = 2 mbar_i - mbar_3 for i = 1, 2 and Nbar_3 = mbar_3.  ``check_params``
holds the rules for a model's parameters (known names, finite numbers, one
spelling per quantity, required fields); ``parse_config`` applies it to
``params`` and the axis variables, and the CLI to its ``--set`` values.

The grid is evaluated in blocks of BLOCK_POINTS (2048) points.  A block is
one array-valued parameter set built from the axis columns, with all-zero
placeholders at its invalid points; every layer, from the parameters to
each requested output column, makes one call per block (theta takes the
whole s_grid in that call, split into more calls only beyond BLOCK_POINTS
(point, s) pairs).  Occupations and flows are linear in the bath
occupations, so the points of a block that differ only in nbar1..3 (keyed
on the float64 bits of every other field) share one system: the stability
margin and the linear response (W, G) of ``cascaded.linear_response`` are
computed once per distinct system, and each point's occupations and flows
are n_i = nbar3 + sum_j W_ij (nbar_j - nbar3) and
eta_k = sum_j G_kj (nbar_j - nbar3), with the logged clamp of
``cascaded.occupations``.  The baseline runs for every config; the response
only for n*, dn* and eta*, the closed forms and theta only when requested;
theta is evaluated per point.  The result is columnar: a SweepResult holds
value, validity and status arrays, which ``emit`` formats column by column,
each distinct value of a column once, for CSV and JSON alike.
``parallel`` must be a boolean and has no effect: every sweep runs in one process.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields as dc_fields
from sys import float_info

import numpy as np
from numpy.typing import NDArray

from .cascaded import (
    CascadedParams,
    LinearSystem,
    _clamped_occupations,
    _linear_response,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
)
from .counting import large_deviation
from .linalg import check_items, stability_margin
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

_MBAR_KEYS = ("mbar1", "mbar2", "mbar3")
# each model's parameter dataclass, and the names it takes besides the fields
_PARAMS = {"cascaded": (CascadedParams, {"Delta", *_MBAR_KEYS}), "optomech": (OmParams, set())}
# name -> (quantity, spelling) where one quantity has two spellings; any
# other name is its own quantity and spelling
_SPELLINGS = {"Delta": ("omega2", "Delta")} | {
    f"{kind}{i}": ("the bath occupations", kind) for kind in ("nbar", "mbar") for i in (1, 2, 3)
}

# grid points per stacked block; bounds the memory that one block holds
BLOCK_POINTS = 2048


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
    """Build CascadedParams from user-facing names that passed check_params:
    mbar1..3, Delta and F as a string.  ``Delta`` sets omega2 = omega1 + Delta.
    """
    raw = convert_mbar(raw)
    if "Delta" in raw:
        raw["omega2"] = raw.get("omega1", 0.0) + raw.pop("Delta")
    if isinstance(raw.get("F"), str):
        raw["F"] = complex(raw["F"])
    return CascadedParams(**raw)


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


def check_params(model: str, params: dict, swept: tuple = (), prefix: str = "params.") -> None:
    """Check a model's parameters and the variables ``swept`` by the axes.

    Every name must be a field of the model's parameter dataclass or one of
    its other names (Delta, mbar1..3), every value a finite number (F may
    also be a complex string such as "0.1-0.2j"), no quantity may be set by
    two spellings (Delta and omega2, nbar* and mbar*), and every field
    without a default must be given or swept.  A SchemaError names the
    field: ``prefix`` and the name, or ``axes[i].variable``.
    """
    cls, extra_names = _PARAMS[model]
    fields = dc_fields(cls)
    known = {f.name for f in fields} | extra_names
    named = [(f"{prefix}{k}", k) for k in params]
    named += [(f"axes[{i}].variable", k) for i, k in enumerate(swept)]
    spelled = {}
    for path, name in named:
        if not isinstance(name, str) or name not in known:
            raise SchemaError(f"{path}: unknown parameter {name!r} for model {model}")
        quantity, spelling = _SPELLINGS.get(name, (name, name))
        first_path, first = spelled.setdefault(quantity, (path, spelling))
        if spelling != first:
            raise SchemaError(f"{path}: {name!r} conflicts with {first_path}; both set {quantity}")
    for name, value in params.items():
        if name == "F":
            if not _is_complex(value):
                raise SchemaError(f"{prefix}F: must be a finite number or complex string")
        elif not _is_number(value):
            raise SchemaError(f"{prefix}{name}: must be a finite number")
    for f in fields:
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in params and f.name not in swept:
            raise SchemaError(f"{prefix}{f.name}: missing")


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
    if not isinstance(doc.get("parallel", False), bool):
        raise SchemaError("parallel: must be a boolean")

    params = doc["params"]
    if not isinstance(params, dict):
        raise SchemaError("params: must be an object")
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
        if ax["variable"] in (a.variable for a in axes):
            raise SchemaError(f"{path}.variable: {ax['variable']!r} is already swept")
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
    check_params(model, params, tuple(ax.variable for ax in axes))
    if model == "cascaded":
        # validate the mbar conversion on the baseline values up front
        convert_mbar(params)

    outputs_doc = doc["outputs"]
    if not isinstance(outputs_doc, list) or not outputs_doc:
        raise SchemaError("outputs: must be a non-empty list")
    for name in outputs_doc:
        if name not in _OUTPUTS:
            raise SchemaError(f"outputs: unknown quantity {name!r}")
    s_grid = doc.get("s_grid", [])
    if not isinstance(s_grid, list):
        raise SchemaError("s_grid: must be a list of numbers")
    columns = {}
    for i, s in enumerate(s_grid):
        if not _is_number(s):
            raise SchemaError(f"s_grid[{i}]: must be a finite number")
        first = columns.setdefault(f"theta@{float(s):g}", i)
        if first != i:
            raise SchemaError(f"s_grid[{i}]: same column name theta@{float(s):g} as s_grid[{first}]")
    if "theta" in outputs_doc and not s_grid:
        raise SchemaError("outputs: 'theta' requires a non-empty s_grid")

    return SweepConfig(
        model=model,
        params=dict(params),
        axes=tuple(axes),
        outputs=tuple(outputs_doc),
        format=fmt,
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
    """(values, valid, status) of a block of grid points: one call per layer.

    The block's parameters are one array-valued CascadedParams built from its
    axis columns, with all-zero placeholders (as in CascadedParams()) at its
    invalid points.  Points that differ only in nbar1..3 share one system:
    the margin and the linear response (W, G) are computed once per distinct
    system, and each point's occupations and flows follow from its nbar.  A
    cell is blank where its quantity is undefined: an unstable drift, a
    failed Lyapunov solve (n*, dn*, eta*), unequal rates (m*, dn*,
    n*_closed), a zero-rate channel (eta*, and theta at every s, s = 0
    included) or an s outside the admissible region (theta; s = 0 is inside,
    with theta = 0).  A stable row with a blank cell is ``unsupported``, as
    is a point whose parameters are invalid.
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
    # key each point on the float64 bits of every field but nbar1..3
    rest = [getattr(p, f.name) for f in dc_fields(p) if not f.name.startswith("nbar")]
    keys = np.hstack([x.view(np.float64).reshape(x.size, -1) for x in rest])
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    first, inverse = np.unique(keys, return_index=True, return_inverse=True)[1:]
    if "theta" in cfg.outputs:  # theta needs each point's noise matrix
        sys = build_system(p)
        distinct = LinearSystem(**{f.name: getattr(sys, f.name)[first] for f in dc_fields(sys)})
    else:
        distinct = build_system(
            CascadedParams(**{f.name: getattr(p, f.name)[first] for f in dc_fields(p)})
        )
    margin_distinct = stability_margin(distinct.M)
    margin = margin_distinct[inverse]
    stable = built & (margin < 0.0)
    base, unequal = disconnected_baseline(p)
    has_base = stable & ~unequal
    cells = {
        "stability_margin": [(margin, built)],
        # hypot rounds like abs() of one Python complex; np.abs may differ in the last bit
        "F_residual": [(np.hypot(p.F.real, p.F.imag), built)],
    }
    for i in (0, 1):
        cells[f"m{i + 1}"] = [(base[i], has_base)]
    if {"n1", "n2", "dn1", "dn2", "eta1", "eta2", "eta3"} & set(cfg.outputs):
        W, G, no_response = _linear_response(distinct, margin_distinct)
        W, G, has_response = W[inverse], G[inverse], built & ~no_response[inverse]
        # n_i = nbar3 + sum_j W_ij (nbar_j - nbar3) and eta_k = sum_j G_kj (nbar_j - nbar3):
        # rows of W sum to one and rows of G to zero
        d1, d2 = p.nbar1 - p.nbar3, p.nbar2 - p.nbar3
        n = p.nbar3[:, None] + W[..., 0] * d1[:, None] + W[..., 1] * d2[:, None]
        n = _clamped_occupations(n)
        eta = G[..., 0] * d1[:, None] + G[..., 1] * d2[:, None]
        zero_rate = distinct.rate[inverse] <= 0.0
        for i in (0, 1):
            cells[f"n{i + 1}"] = [(n[i], has_response)]
            cells[f"dn{i + 1}"] = [(n[i] - base[i], has_response & has_base)]
        for k in (0, 1, 2):
            cells[f"eta{k + 1}"] = [(eta[:, k], has_response & ~zero_rate[:, k])]
    if {"n1_closed", "n2_closed"} & set(cfg.outputs):
        closed, _ = closed_form_occupations(p)
        for i in (0, 1):
            cells[f"n{i + 1}_closed"] = [(closed[i], has_base)]
    if "theta" in cfg.outputs:
        # one call per chunk of s values, at most BLOCK_POINTS (point, s) pairs each
        s, chunk = np.array(cfg.s_grid)[:, None], max(1, BLOCK_POINTS // built.size)
        thetas = [large_deviation(1, s[i : i + chunk], sys) for i in range(0, len(s), chunk)]
        theta, failed = map(np.concatenate, zip(*thetas))
        cells["theta"] = list(zip(theta, stable & ~failed))
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


def _csv_numbers(xs: list[float]) -> list[str]:
    return ["%.17g" % x for x in xs]


def _json_numbers(xs: list[float]) -> list[str]:
    # the encoder's own text for each float, NaN and Infinity included
    return json.dumps(xs)[1:-1].split(", ")


def _column_text(values: NDArray, valid: NDArray[np.bool_], numbers, blank: str) -> list[str]:
    """Cell text of one column: each distinct float64 bit pattern formatted once
    (so -0.0 and 0.0, and NaN payloads, stay apart), blank cells as ``blank``."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(numbers(distinct.view(np.float64).tolist()) + [blank], object)
    return text[np.where(valid, inverse, distinct.size)].tolist()


def emit(result: SweepResult, cfg: SweepConfig) -> bytes:
    """Serialize the result per the config format; byte-identical for identical inputs.

    CSV cells are ``"%.17g"`` of the value and JSON is ``json.dumps(records,
    indent=2)`` of one record per row; blank cells are empty or null.  Each
    distinct value of a column is formatted once.
    """
    if not result.status.size:
        raise ValueError("no rows to emit")
    cols = column_names(cfg)
    as_json = cfg.format == "json"
    numbers, blank = (_json_numbers, "null") if as_json else (_csv_numbers, "")
    columns = [
        _column_text(result.values[:, j], result.valid[:, j], numbers, blank)
        for j in range(result.values.shape[1])
    ]
    statuses, inverse = np.unique(result.status, return_inverse=True)
    statuses = [json.dumps(s) if as_json else s for s in statuses.tolist()]
    columns.append(np.array(statuses, object)[inverse].tolist())
    if as_json:
        keys = (json.dumps(c).replace("%", "%%") for c in cols)
        record = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
        return ("[\n" + ",\n".join([record % row for row in zip(*columns)]) + "\n]\n").encode()
    return ("\n".join([",".join(cols), *map(",".join, zip(*columns))]) + "\n").encode()
