"""
Parameter sweeps over the cascaded and optomechanical models with
deterministic CSV/JSON emission.

Configs are JSON documents with top-level keys ``model``, ``params``,
``axes``, ``outputs``, ``format`` and optional ``parallel`` / ``s_grid``.
Baseline occupations may be given either as bath occupations (nbar1..3) or
as disconnected-baseline occupations (mbar1..3), converted at every rate by
the equal-rate inverse Nbar_i = 2 mbar_i - mbar_3 (i = 1, 2), Nbar_3 = mbar_3:
mbar_i is the m_i column only where kappa_i = gamma_i.  ``check_params``
holds the rules for a model's parameters (known names, finite numbers, one
spelling per quantity, required fields, then the model's sign rule and the
mbar conversion on the values that no axis replaces); ``parse_config``
applies it to ``params`` and the axis variables, and the CLI to its
``--set`` values, so both report the same first error.

The grid is evaluated in blocks of BLOCK_POINTS (16384) points, so a grid
of up to 128 x 128 points, the README's 101 x 101 included, is one block;
with theta, a block holds at most BLOCK_POINTS (point, s) pairs, one point
at least.  A block is one array-valued parameter set built from the axis
columns, invalid points as they are; each field given as one value stays
broadcast, a view with zero strides.  Every layer, from the parameters to
each requested output column (theta over the whole s_grid), makes one call
per block.  Occupations and flows are linear in the bath occupations, so the
points of a block that differ only in nbar1..3 (keyed on the float64 bits
of every other field that is not broadcast, of which only the words that
vary within the block are compared) share one system, built once for
every output: its margin and linear response (W, G) of
``cascaded.linear_response`` are computed once, and each point takes
n_i = sum_j W_ij nbar_j, as ``steady-state`` does, and
eta_k = sum_j G_kj (nbar_j - nbar3).  The baseline runs only for m* and
dn*, the response only for n*, dn* and eta*, the closed forms and theta only
when requested; theta runs per point, on its system with the noise matrix of
its own nbar.  The result is columnar: a SweepResult
holds a value array and a status vector, and a cell is blank exactly where
its value is not finite.  ``iter_blocks`` yields the result of each block
in turn and ``emit_parts`` writes them part by part, so a sweep streamed
from one to the other holds one block at a time; ``run_sweep`` and ``emit``
are their concatenation and join, and hold the whole grid.  The emitter
writes a blank cell as empty (CSV) or null (JSON), and formats each distinct
value of a column once per block (once per result given to ``emit``), the
distinct values of all columns together, in one exact vectorized pass (in
chunks of 4096 values) that shares its digit and layout code between the
formats: CSV as "%.17g" (``_g17``) for 1e-6 <= |x| < 1e17 and zeros, JSON
as ``float.__repr__``, the shortest round-trip digits that ``json.dumps``
writes (``_repr17``), for 1e-6 <= |x| < 1e16 and zeros.  Each other finite
value falls back to "%.17g" or ``json.dumps`` of that value.  The texts sit
NUL-padded in a byte table beside their separators, and each part of 1024
rows is gathered from it with the NUL bytes removed.
``parallel`` must be a boolean and has no effect: every sweep runs in one process.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, fields as dc_fields
from sys import float_info

import numpy as np
from numpy.typing import NDArray

from .cascaded import (
    CascadedParams,
    LinearSystem,
    SchemaError,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    linear_response,
    occupations,
    unstable,
)
from .counting import large_deviation
from .optomech import OmParams, map_to_cascaded

_log = logging.getLogger("noisecascade")


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
# each model's parameter dataclass, every name it takes (the fields, and
# Delta and mbar1..3 for cascaded), and its fields without a default in field
# order, built once for check_params
_PARAMS = {
    model: (
        cls,
        {f.name for f in dc_fields(cls)} | extra_names,
        tuple(
            f.name for f in dc_fields(cls) if f.default is MISSING and f.default_factory is MISSING
        ),
    )
    for model, cls, extra_names in (
        ("cascaded", CascadedParams, {"Delta", *_MBAR_KEYS}),
        ("optomech", OmParams, set()),
    )
}
# name -> (quantity, spelling) where one quantity has two spellings; any
# other name is its own quantity and spelling
_SPELLINGS = {"Delta": ("omega2", "Delta")} | {
    f"{kind}{i}": ("the bath occupations", kind) for kind in ("nbar", "mbar") for i in (1, 2, 3)
}

# grid points per stacked block, or with theta (point, s) pairs per block,
# one point at least; bounds the memory that one block holds, and so a
# streamed sweep's.  tracemalloc peaks of evaluating a full block against
# emitting it part by part (emit_parts): 8.2 MB against 9.3 MB for the CSV
# of a 128 x 128 Delta x nbar3 cascaded grid at unit rates (128 systems,
# every output but theta and F_residual; 3.9 MB of text), but 44.3 MB
# against 1.5 MB where every point is its own system (Delta x kappa1,
# output n1); 11.3 MB against 4.7 MB for the JSON of a 64 x 64 optomech
# J x G2 grid with theta at 4 s values.  Emitting the whole text at once
# took 17.2, 4.9 and 8.5 MB.
BLOCK_POINTS = 16384
# the largest array size numpy takes: the most grid points, or fcs s values
MAX_COUNT = np.iinfo(np.intp).max


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
    axes and outputs in ``values``, where a cell that is not finite is blank,
    and the last column in ``status``."""

    values: NDArray[np.float64]
    status: NDArray[np.str_]


def convert_mbar(params: dict, prefix: str = "") -> dict:
    """Replace mbar1..3 by nbar1..3 in a parameter dict by the equal-rate
    inverse at every rate, so mbar_i is mode i's baseline only where
    kappa_i = gamma_i.  One point raises SchemaError on a negative bath
    occupation, naming ``prefix`` and mbar3 if it is negative, else the first
    mbar_i whose Nbar_i is; arrays keep theirs, which CascadedParams flags.
    """
    if not any(k in params for k in _MBAR_KEYS):
        return dict(params)
    out = dict(params)
    m3 = out.pop("mbar3", 0.0)
    n1, n2 = 2.0 * out.pop("mbar1", m3) - m3, 2.0 * out.pop("mbar2", m3) - m3
    message = "{}{}: mbar conversion gives Nbar1 = {:g}, Nbar2 = {:g}, Nbar3 = {:g}"
    if np.ndim(n1) == np.ndim(n2) == 0:  # one point raises
        for name, nbar in (("mbar3", m3), ("mbar1", n1), ("mbar2", n2)):
            if nbar < 0.0:
                raise SchemaError(message.format(prefix, name, n1, n2, m3))
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
    without a default must be given or swept.  The values that no axis
    replaces then follow the model's sign rule and, for cascaded, give
    non-negative occupations by the mbar conversion.  A SchemaError names
    the field: ``prefix`` and the name, or ``axes[i].variable``.
    """
    cls, known, required = _PARAMS[model]
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
    for name in required:
        if name not in params and name not in swept:
            raise SchemaError(f"{prefix}{name}: missing")
    fixed = {k: v for k, v in params.items() if k not in swept}
    for message, bad in cls._sign_rule(fixed):
        if bad:
            raise SchemaError(f"{prefix}{message}")
    if model == "cascaded":
        convert_mbar(fixed, prefix=prefix)


def parse_config(text: str | bytes) -> SweepConfig:
    """Parse and validate a JSON sweep config; bytes must be UTF-8."""
    try:
        doc = json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("not valid JSON: nested too deeply for the decoder") from exc
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
        if isinstance(points, bool) or not isinstance(points, int) or not 1 <= points <= MAX_COUNT:
            raise SchemaError(f"{path}.points: must be an integer from 1 to {MAX_COUNT}")
        spacing = ax.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise SchemaError(f"{path}.spacing: must be 'linear' or 'log'")
        if spacing == "log" and (ax["min"] <= 0 or ax["max"] <= 0):
            raise SchemaError(f"{path}: log spacing requires positive bounds")
        lo, hi = float(ax["min"]), float(ax["max"])
        if spacing == "linear" and abs(hi - lo) > float_info.max:  # linspace would overflow
            raise SchemaError(f"{path}: max - min overflows the float range")
        axes.append(SweepAxis(ax["variable"], lo, hi, points, spacing))
    if math.prod(ax.points for ax in axes) > MAX_COUNT:
        raise SchemaError(f"axes: the grid must have at most {MAX_COUNT} points")
    swept = tuple(ax.variable for ax in axes)
    check_params(model, params, swept)

    outputs_doc = doc["outputs"]
    if not isinstance(outputs_doc, list) or not outputs_doc:
        raise SchemaError("outputs: must be a non-empty list")
    for i, name in enumerate(outputs_doc):
        if name not in _OUTPUTS:
            raise SchemaError(f"outputs: unknown quantity {name!r}")
        if name in outputs_doc[:i]:
            raise SchemaError(f"outputs[{i}]: {name!r} is already requested")
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


def _systems(p: CascadedParams) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """(first, inverse) of the distinct systems of array params ``p``: the
    first point of each, and each point's system.  Points are keyed on the
    float64 bits of every field but nbar1..3 that is not one value broadcast
    to every point (all strides zero, so equal at every point): a block
    without such a field is one system.  Of the fields that remain, only the
    words that vary among the points tell them apart (one word if none
    does), and a single word sorts as an int64, faster than as bytes."""
    rest = [getattr(p, f.name) for f in dc_fields(p) if not f.name.startswith("nbar")]
    rest = [x for x in rest if any(x.strides)]
    if not rest:
        return np.zeros(1, np.intp), np.zeros(p.nbar1.size, np.intp)
    keys = np.hstack([x.view(np.int64).reshape(x.size, -1) for x in rest])
    varies = (keys != keys[0]).any(axis=0)
    keys = np.ascontiguousarray(keys[:, varies] if varies.any() else keys[:, :1])
    if keys.shape[1] > 1:
        keys = keys.view(np.dtype((np.void, 8 * keys.shape[1])))
    return np.unique(keys[:, 0], return_index=True, return_inverse=True)[1:]


def _block(cfg: SweepConfig, axis_columns: list[NDArray[np.float64]]) -> tuple[NDArray, ...]:
    """(values, status) of a block of grid points: one call per layer.

    The block's parameters are one array-valued CascadedParams built from
    its axis columns, whose invalid points reach every kernel as they are;
    each field given as one value stays broadcast, a view with zero
    strides.  Points that differ only in nbar1..3 share one system, built
    once: the margin and the linear response (W, G) are computed once per
    distinct system, and each point's occupations, flows and theta follow
    from its nbar.  One DEBUG line on the ``noisecascade`` logger gives the
    block's points, systems and invalid points.  A cell is blank exactly
    where its value is not finite.  Each kernel writes NaN where its value is
    undefined: a failed Lyapunov solve (n*, dn*, eta*), a mode without a
    rate (m*, dn*), unequal rates (n*_closed) and a zero-rate channel 1 or
    an s outside the admissible region (theta; s = 0 is inside, with
    theta = 0); an n_i past the float maximum is inf.  Two rules add NaN in
    place: a row rule, by which stability_margin and F_residual need valid
    parameters and every other output a stable drift (by
    ``cascaded.unstable``, the kernels' rule), and eta_k is NaN where
    channel k has no rate, as ``fcs`` refuses that channel.  A stable row
    with a blank cell is ``unsupported``, as is a point whose parameters are
    invalid.
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
    first, inverse = _systems(p)
    _log.debug("sweep block: %d points, %d systems, %d invalid",
               built.size, first.size, np.count_nonzero(~built))
    # each distinct system is built once, for every output
    distinct = build_system(CascadedParams(**{k: v[first] for k, v in vars(p).items()}))
    nbar = np.stack([p.nbar1, p.nbar2, p.nbar3], axis=-1)
    margin = distinct.margin[inverse]
    stable = built & (unstable(distinct)[inverse] == 0)
    # hypot rounds like abs() of one Python complex; np.abs may differ in the last bit
    with np.errstate(over="ignore"):  # |F| past the float maximum is blank
        cells = {"stability_margin": [margin], "F_residual": [np.hypot(p.F.real, p.F.imag)]}
    if {"m1", "m2", "dn1", "dn2"} & set(cfg.outputs):
        base = disconnected_baseline(p)
        cells["m1"], cells["m2"] = ([m] for m in base)
    if {"n1", "n2", "dn1", "dn2", "eta1", "eta2", "eta3"} & set(cfg.outputs):
        W, G, _ = linear_response(distinct)  # NaN at failed systems
        W, G = W[inverse], G[inverse]
        # n_i = sum_j W_ij nbar_j, and eta_k = sum_j G_kj (nbar_j - nbar3) by G's zero row sums;
        # a point not built (blank by the row rule) takes nbar = 0, so that it logs no clamp
        n = occupations(W, np.where(built[:, None], nbar, 0.0))
        # blank: a flow past the float maximum, and dn of an inf occupation and an inf baseline
        with np.errstate(over="ignore", invalid="ignore"):
            eta = G[..., 0] * (p.nbar1 - p.nbar3)[:, None] + G[..., 1] * (p.nbar2 - p.nbar3)[:, None]
            for i in (0, 1):
                cells[f"n{i + 1}"] = [n[i]]
                if {"dn1", "dn2"} & set(cfg.outputs):
                    cells[f"dn{i + 1}"] = [n[i] - base[i]]
        eta[distinct.rate[inverse] <= 0.0] = np.nan
        for k in (0, 1, 2):
            cells[f"eta{k + 1}"] = [eta[:, k]]
    if {"n1_closed", "n2_closed"} & set(cfg.outputs):
        cells["n1_closed"], cells["n2_closed"] = ([n] for n in closed_form_occupations(p))
    if "theta" in cfg.outputs:  # each point's system, with the noise matrix of its own nbar
        sys = LinearSystem(distinct.M[inverse], distinct.U[inverse], distinct.rate[inverse], nbar)
        theta, _ = large_deviation(1, np.array(cfg.s_grid)[:, None], sys)  # NaN where it fails
        cells["theta"] = list(theta)
    values = np.column_stack(axis_columns + [v for name in cfg.outputs for v in cells[name]])
    start = len(axis_columns)
    for name in cfg.outputs:  # the row rule, in place
        stop = start + len(cells[name])
        values[~built if name in ("stability_margin", "F_residual") else ~stable, start:stop] = np.nan
        start = stop
    failed = np.where(built & ~stable, "unstable", "unsupported")
    return values, np.where(stable & np.isfinite(values).all(axis=1), "ok", failed)


def iter_blocks(cfg: SweepConfig) -> Iterator[SweepResult]:
    """Evaluate the grid in row-major axis order, one SweepResult per stacked
    block of ``BLOCK_POINTS``; a block takes its axis columns from its own
    slice of the flat grid index."""
    values = [ax.values() for ax in cfg.axes]
    shape = tuple(v.size for v in values)
    total = math.prod(shape)
    size = max(1, BLOCK_POINTS // len(cfg.s_grid)) if "theta" in cfg.outputs else BLOCK_POINTS
    for start in range(0, total, size):
        index = np.unravel_index(np.arange(start, min(start + size, total)), shape)
        yield SweepResult(*_block(cfg, [v[i] for v, i in zip(values, index)]))


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """The whole grid in row-major axis order: the blocks of ``iter_blocks``, concatenated."""
    blocks = [(b.values, b.status) for b in iter_blocks(cfg)]
    return SweepResult(*map(np.concatenate, zip(*blocks)))


# number text: one vectorized pass per chunk of values (see _number_text)
_FORMAT_CHUNK = 4096  # values per pass; bounds the temporaries, not the result
_EMIT_ROWS = 1024  # rows per emitted part
# table bytes per gather of a part's cells (a row at least): the temporaries stay
# in cache, and the heap does not grow and shrink (page faults) by a part per block
_GATHER_BYTES = 1 << 16
_POW10 = np.array([float(10**p) for p in range(23)])  # 10^0..10^22, all exact
_WORD = np.array([[0], [8], [16]])  # first byte of each 8-byte word of a text
_BELOW = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)  # [c]: bytes 0..c-1
_DOT = np.array([0] + [ord(".") << 8 * c for c in range(8)] + [0], np.uint64)  # [c + 1]: byte c
_ZEROS = np.array([int.from_bytes(b"0.000"[:z], "little") for z in range(6)], np.uint64)
_STATUSES = ("ok", "unstable", "unsupported")


def _two_product(a: NDArray, b: NDArray) -> tuple[NDArray, NDArray]:
    """(prod, err) with prod + err = a b exactly: Dekker's product with
    Veltkamp's split, exact because numpy rounds each multiply and add."""

    def split(v):
        c = 134217729.0 * v  # 2^27 + 1
        high = c - (c - v)
        return high, v - high

    prod = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return prod, ((ah * bh - prod) + ah * bl + al * bh) + al * bl


def _two_sum(a: NDArray, b: NDArray) -> tuple[NDArray, NDArray]:
    """(s, t) with s + t = a + b exactly: Knuth's TwoSum."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _digits8(x: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """The eight decimal digits of each x < 10^8 as byte values, the first
    in the lowest byte: each lane is split in two by a multiply and a shift,
    in 32-, then 16-, then 8-bit lanes."""
    high = x // 10000
    x = high | ((x - high * 10000) << 32)
    high = ((x * 5243) >> 19) & 0x0000007F0000007F  # lane // 100 for lanes < 10^4
    x = high | ((x - high * 100) << 16)
    high = ((x * 103) >> 10) & 0x000F000F000F000F  # lane // 10 for lanes < 100
    return high | ((x - high * 10) << 8)


def _scaled(x: NDArray[np.float64], top: float) -> tuple[NDArray, ...]:
    """(a, k, prod, err, fallback) for each v of x, in the window
    1e-6 <= |v| < top (top <= 1e17): a = |v|, k = floor(log10 a) and
    prod + err = a 10^(16-k) exactly, in [1e16, 1e17).  10^(16-k) is an exact
    double and the product is exact as prod + err; k comes from log10 and is
    checked exactly against the product.  Zeros take k = 0 and prod = err = 0;
    ``fallback`` marks the rest (NaN, infinities, values outside the window).
    """
    ax = np.abs(x)
    near = (ax >= 1e-6) & (ax < top)
    a = np.where(near, ax, 0.0)
    k = np.clip(np.floor(np.log10(np.where(near, ax, 1.0))), -6, 16).astype(np.int64)
    prod, err = _two_product(a, _POW10[16 - k])
    # where log10 misplaced k, a 10^(16-k) lies outside [1e16, 1e17): move k by one
    up = (prod > 1e17) | ((prod == 1e17) & (err >= 0.0))
    down = (prod < 1e16) | ((prod == 1e16) & (err < 0.0))
    moved = np.flatnonzero(near & (up | down))
    k[moved] += up[moved].astype(np.int64) - down[moved]
    prod[moved], err[moved] = _two_product(a[moved], _POW10[16 - np.clip(k[moved], -6, 16)])
    return a, k, prod, err, ~(near & (k >= -6)) & (x != 0.0)


def _layout(D, k, x, fallback, fraction: int, fallback_text) -> NDArray[np.bytes_]:
    """The text of each v of x, NUL-padded to 24 bytes (S24), from its digits
    D (10^16 <= D < 10^17, 0 for zeros) and decimal exponent k, in three
    little-endian words per value: fixed notation for -4 <= k <= 16,
    d.ddde-0X for k = -5, -6, trailing zeros dropped but ``fraction`` (0 or
    1) digits kept after the point of an integer, and a sign, also on -0.0.
    ``fallback_text(v)``, at most 24 bytes ("-1.2345678901234567e-300"), is
    the text of each v that ``fallback`` marks.
    """
    # the digits, one byte each, in three words per value: D's first digit
    # and the two halves of the other 16; each array is released once read,
    # so a chunk holds about three (3, n) word arrays at a time
    first = D // 10**16
    halves = np.empty((2, x.size), np.uint64)
    halves[1] = D - first * 10**16
    halves[0] = halves[1] // 10**8
    halves[1] -= halves[0] * 10**8
    halves = _digits8(halves)
    text = np.zeros((3, x.size), np.uint64)
    text[:2] = halves << 8
    text[1:] |= halves >> 56
    text[0] |= first
    del first, halves
    # significant digits: through the highest nonzero byte, read from the
    # float exponent of each word (a zero word reads about -128 bytes)
    top = (text.astype(np.float64).view(np.int64) >> 52) - 1023
    significant = ((top >> 3) + _WORD + 1).max(axis=0)
    del top
    # an integer keeps its trailing zeros, and "fraction" zeros after the point
    length = np.maximum(significant, k + 1 + fraction)
    del significant
    text |= 0x3030303030303030
    text &= _BELOW[np.clip(length - _WORD, 0, 8)]
    # "." after the integer part, or after the first digit of d.ddde-0X, where
    # digits follow it: the bytes from there on move up by one
    dot = np.where(k < -4, 1, np.where(k < 0, 24, k + 1))
    dot = np.where(dot < length, dot, 24) - _WORD
    del length
    below = _BELOW[np.clip(dot, 0, 8)]
    high = text & ~below
    text &= below
    del below
    text |= high << 8
    text |= _DOT[np.clip(dot, -1, 8) + 1]
    text[1:] |= high[:-1] >> 56
    del dot, high
    # the sign and the "0.000" of 1e-4 <= |v| < 1 in front, by a shift of at
    # most six bytes (each shift count stays below 64)
    negative = np.signbit(x).astype(np.uint64)
    zeros = np.where((k < 0) & (k >= -4), 1 - k, 0).astype(np.uint64)
    shift = 8 * (zeros + negative)
    shifted = text << shift
    shifted[1:] |= (text[:-1] >> 1) >> (63 - shift)
    del text
    shifted[0] |= (_ZEROS[zeros] << 8 * negative) | ord("-") * negative
    del negative, zeros, shift
    # at most 23 bytes ("-0.00012345678901234567"), NUL-padded
    texts = np.ascontiguousarray(shifted.T, dtype="<u8").view("S24")[:, 0]
    del shifted
    for e in (-5, -6):
        at = np.flatnonzero((k == e) & ~fallback)
        texts[at] = np.char.add(texts[at], b"e-0%d" % -e)
    for i in np.flatnonzero(fallback).tolist():
        texts[i] = fallback_text(float(x[i]))
    return texts


def _g17(x: NDArray[np.float64]) -> NDArray[np.bytes_]:
    """``b"%.17g" % v`` for each v of x, byte for byte.

    For 1e-6 <= |v| < 1e17 (``_scaled``) the 17 digits are
    D = round(|v| 10^(16-k)): prod >= 2^53 is an even integer, so
    prod + rint(err) rounds half to even as "%.17g" does.  Zeros format here
    too; NaN, infinities and values outside the window fall back to "%.17g".
    """
    _, k, prod, err, fallback = _scaled(x, 1e17)
    # D < 10^17: the nearest double below each power of ten in the window is
    # at least 4.5e-17 of it away, so none rounds up to the next decade
    D = (prod.astype(np.int64) + np.rint(err).astype(np.int64)).astype(np.uint64)
    return _layout(D, k, x, fallback, 0, lambda v: b"%.17g" % v)


def _shortest_digits(a, k, prod, err) -> NDArray[np.uint64]:
    """The shortest digits that read back as each a of ``_scaled`` (Steele &
    White), as D, 10^16 <= D < 10^17, with the trailing zeros to drop.

    In units of S = a 10^(16-k) = prod + err, a = m 2^e reads back from every
    decimal in [S - h_low, S + h], the edges included only for an even m:
    h = 2^(e-1) 10^(16-k) is an exact double, 0.55 < h < 11.2, and
    h_low = h/2 where m is a power of two.  The integers in that range are
    LO..HI, from err -/+ h by TwoSum.  D is S rounded to the nearest multiple
    of T = 100, 10 or 1, the coarsest with a multiple in LO..HI, ties to an
    even last digit; dropping its trailing zeros leaves the shortest, because
    HI - LO < 23 makes a multiple of 100 there the only one, within 12 of S.
    The nearest multiple of T lies in LO..HI where the range is symmetric
    about S, and for every power of two in the window, which the tests check
    one by one.  S is rounded from floor(S) = prod + floor(err) and
    S - floor(S) = err - floor(err), both exact (S < 2^57 has at most 105
    significant bits, so err is a multiple of 2^-48).  D < 10^17: 10^(k+1)
    would have to read back as a, and each power of ten in the window is a
    double or lies below its nearest double.
    """
    h = np.ldexp(_POW10[16 - np.maximum(k, -6)], np.frexp(a)[1] - 54)  # k = -7 falls back
    bits = a.view(np.uint64)
    h_low = np.where(bits & (2**52 - 1) == 0, 0.5 * h, h)
    odd = (bits & 1) == 1  # an odd m excludes the edges
    p = prod.astype(np.int64)
    s, t = _two_sum(err, h)
    hi = np.floor(s)
    HI = p + (hi - ((s == hi) & ((t < 0.0) | ((t == 0.0) & odd)))).astype(np.int64)
    s, t = _two_sum(err, -h_low)
    lo = np.ceil(s)
    LO = p + (lo + ((s == lo) & ((t > 0.0) | ((t == 0.0) & odd)))).astype(np.int64)
    T = np.where(HI // 100 * 100 >= LO, 100, np.where(HI // 10 * 10 >= LO, 10, 1))
    below = np.floor(err)
    F = p + below.astype(np.int64)
    q = F // T
    # 2 (S - q T) - T as an integer plus 2 (S - F) in [0, 2): its sign is exact
    g = (2 * (F - q * T) - T) + 2.0 * (err - below)
    return ((q + ((g > 0.0) | ((g == 0.0) & (q & 1 == 1)))) * T).astype(np.uint64)


def _repr17(x: NDArray[np.float64]) -> NDArray[np.bytes_]:
    """``float.__repr__(v)`` for each v of x as bytes, byte for byte: the
    JSON number text.

    For 1e-6 <= |v| < 1e16 (``_scaled``) the digits are the shortest that
    read back as v (``_shortest_digits``).  Zeros format here too, as "0.0";
    NaN, infinities and values outside the window fall back to
    ``json.dumps`` ("NaN", "Infinity", "1e-06", ...).
    """
    a, k, prod, err, fallback = _scaled(x, 1e16)
    D = _shortest_digits(a, k, prod, err)
    return _layout(D, k, x, fallback, 1, lambda v: json.dumps(v).encode())


def _number_text(format_chunk, x: NDArray[np.float64]) -> NDArray[np.bytes_]:
    """``format_chunk`` (_g17 or _repr17) of x as S24, _FORMAT_CHUNK values per pass."""
    out = np.empty(x.size, "S24")
    for start in range(0, x.size, _FORMAT_CHUNK):
        out[start : start + _FORMAT_CHUNK] = format_chunk(x[start : start + _FORMAT_CHUNK])
    return out


def _status_codes(status: NDArray[np.str_]) -> NDArray[np.intp]:
    """Each row's index in _STATUSES, by comparison rather than a sort of the strings."""
    codes = np.full(status.shape, -1)
    for i, name in enumerate(_STATUSES):
        codes[status == name] = i
    if (codes < 0).any():
        raise ValueError(f"unknown row status {str(status[codes < 0][0])!r}")
    return codes


def _cell_text(result: SweepResult, cols: list[str], as_json: bool) -> tuple[NDArray, NDArray]:
    """(table, index) of a result.  ``table`` (uint8) has a row per distinct
    value of each column (by float64 bits, so -0.0 and 0.0 stay apart), then
    per status: [prefix][text, NUL-padded to 24 bytes][suffix] of its column,
    the text blank where the value is not finite.  ``index[i, j]`` is the row
    of row i's cell in column j, the status last.  No text, key or separator
    holds a NUL byte: ``json.dumps`` escapes control characters."""
    if not result.status.size:
        raise ValueError("no rows to emit")
    distinct, inverse = zip(*(np.unique(c.view(np.int64), return_inverse=True)
                              for c in result.values.T))
    values = np.concatenate(distinct).view(np.float64)
    if as_json:  # a record starts at its first column and ends after the status
        keys = [json.dumps(c) for c in cols]
        number, statuses, sep, end = _repr17, [json.dumps(s) for s in _STATUSES], ",\n", "\n  }"
        prefix = [",\n  {\n    %s: " % keys[0]] + ["    %s: " % k for k in keys[1:]]
    else:  # a CSV status cell ends its line
        number, statuses, sep, end, prefix = _g17, _STATUSES, ",", "\n", [""] * len(cols)
    suffix = [sep] * (len(cols) - 1) + [end]
    counts = [d.size for d in distinct] + [len(_STATUSES)]
    width = max(map(len, prefix))  # each prefix NUL-padded in front, so that the texts align
    frames = np.array([p.rjust(width, "\0") + "\0" * 24 + s for p, s in zip(prefix, suffix)], "S")
    table = np.repeat(frames, counts).view(np.uint8).reshape(sum(counts), -1)
    texts = table[:, width : width + 24].view("S24")[:, 0]  # a view: written into the table
    texts[: values.size] = _number_text(number, values)
    texts[values.size :] = statuses
    texts[np.flatnonzero(~np.isfinite(values))] = b"null" if as_json else b""
    index = np.stack([*inverse, _status_codes(result.status)], axis=1)
    index += np.cumsum([0] + counts[:-1])
    return table, index


def emit_parts(results: Iterable[SweepResult], cfg: SweepConfig) -> Iterator[bytes]:
    """The output of the rows of ``results`` in turn, part by part: the
    header, each result's rows ``_EMIT_ROWS`` at a time, and the footer.

    The parts joined are ``emit`` of the results concatenated.  Each
    result's distinct values are formatted once, as in ``emit``, into a byte
    table (``_cell_text``); a part packs its rows' cells from it, so beside
    the result it holds one table and one part.
    """
    cols = column_names(cfg)
    as_json = cfg.format == "json"
    yield b"[\n" if as_json else ",".join(cols).encode() + b"\n"
    trim = 2 if as_json else 0  # the first record has no ",\n" before it
    for result in results:
        table, index = _cell_text(result, cols, as_json)
        step = max(1, _GATHER_BYTES // index[0].size // table[0].size)  # rows per gather
        for start in range(0, len(index), _EMIT_ROWS):
            rows = index[start : start + _EMIT_ROWS]
            cells = (table[rows[i : i + step]].ravel() for i in range(0, len(rows), step))
            yield b"".join([c[c != 0] for c in cells])[trim:]
            trim = 0
    if as_json:
        yield b"\n]\n"


def emit(result: SweepResult, cfg: SweepConfig) -> bytes:
    """Serialize the result per the config format; byte-identical for identical inputs.

    CSV cells are ``"%.17g"`` of the value and JSON is ``json.dumps(records,
    indent=2)`` of one record per row; a cell whose value is not finite is
    blank, empty or null, so the output holds no nan, inf, NaN or Infinity
    and the JSON is strict.  The distinct values of every column are
    formatted together, once each, in one exact vectorized pass: for CSV
    "%.17g" (``_g17``: 1e-6 <= |x| < 1e17 and zeros), for JSON
    ``float.__repr__``, the encoder's number text (``_repr17``:
    1e-6 <= |x| < 1e16 and zeros); fixed and d.ddde-0X text, with "%.17g" or
    ``json.dumps`` of each other finite value.  Both are the parts of
    ``emit_parts`` joined, gathered from a byte table of texts and separators.
    """
    return b"".join(emit_parts([result], cfg))
