"""Sweep configuration, execution, emission, and the CLI front end."""

import csv
import dataclasses
import io
import itertools
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import noisecascade
from exact_occupation_oracle import exact_occupations
from noisecascade import cli, sweeps
from noisecascade.cascaded import (
    CascadedParams,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    linear_response,
    occupations,
)
from noisecascade.cli import build_parser, main
from noisecascade.counting import flow_cumulants, large_deviation
from noisecascade.linalg import solve_lyapunov, stability_margin
from noisecascade.optomech import OmParams, design_nonreciprocal, map_to_cascaded, preset_microwave
from noisecascade.sweeps import (
    SchemaError,
    SweepAxis,
    SweepConfig,
    SweepResult,
    cascaded_from_raw,
    check_params,
    column_names,
    convert_mbar,
    emit,
    parse_config,
    run_sweep,
)

# stable (margin -0.096), but its Lyapunov solve fails the residual check
LYAPUNOV_FAILURE = {
    "omega1": -0.06551653913936849, "omega2": -0.04080148190474457,
    "kappa1": 5.965938124508871e-05, "kappa2": 4.939515479304317e-06,
    "gamma1": 0.4400109288295688, "gamma2": 0.006079275508285472,
    "phi": 0.4644741768341315, "F": "-426706.84265445295-214938.8136702364j",
    "nbar1": 1.679835083819845, "nbar2": 4.201539073060322, "nbar3": 2.435238425813368,
}
LYAPUNOV_FAILURE_ARGS = [a for k, v in LYAPUNOV_FAILURE.items() for a in ("--set", f"{k}={v}")]
# finite values whose products overflow, each a valid point: F makes
# |M01| |M10| overflow in the stability margin (stable, but the Lyapunov
# solve fails); nbar3 puts the noise term (nbar3 + 1/2)(gamma1 + gamma2), and
# so N, past the float maximum, and fcs fails in the steady state's solve
HUGE_F_ARGV = ["steady-state", "--set", "omega2=3.19", "--set", "kappa1=6.5", "--set", "gamma1=6.4",
               "--set", "gamma2=1.3", "--set", "phi=0.87", "--set", "F=1e200+1.709j",
               "--set", "nbar1=0.45"]
HUGE_NBAR_ARGV = ["fcs", "1", "--set", "kappa1=1", "--set", "kappa2=4.6", "--set", "gamma1=0.67",
                  "--set", "gamma2=8.5", "--set", "nbar3=1e308", "--s-points", "0"]
# kappa1 + gamma1 overflows, the damping kappa1/2 + gamma1/2 of mode 1 does
# not; the solve fails (ROADMAP item 16: scaled by max|M|, the damping 1/2 of
# mode 2 is subnormal), though every occupation is 0
HUGE_DAMPING_ARGV = ["steady-state", "--set", "kappa1=1e308", "--set", "gamma1=1e308",
                     "--set", "kappa2=1"]
# every noise term is finite, N11 = (nbar1 + 1/2) kappa1 + (nbar3 + 1/2) gamma1
# is not: steady-state never forms N and prints n1 = 10, and fcs fails on N
HUGE_DIAGONAL_ARGV = ["steady-state", "--set", "kappa1=1e307", "--set", "gamma1=1e307",
                      "--set", "nbar1=10", "--set", "nbar3=10", "--set", "kappa2=1"]
HUGE_DIAGONAL_FCS_ARGV = ["fcs", "1", *HUGE_DIAGONAL_ARGV[1:], "--s-points", "0"]
# eta^(2) grows like nbar1^2 and leaves the float range
HUGE_CUMULANT_ARGV = ["fcs", "1", "--set", "kappa1=1", "--set", "kappa2=1", "--set", "gamma1=1",
                      "--set", "gamma2=1", "--set", "nbar1=1e160", "--s-points", "0"]
# each end of the s grid is finite, its span s_max - s_min is not
HUGE_S_SPAN_ARGV = ["fcs", "1", "--set", "kappa1=1", "--set", "kappa2=1", "--set", "gamma1=1",
                    "--set", "gamma2=1", "--set", "nbar1=2", "--s-min=-1e308", "--s-max=1e308",
                    "--s-points=3"]
# frequencies of opposite signs near the float maximum: M00 - M11 overflowed
# in the stability margin, which is -0.5; the Lyapunov solve fails
OPPOSITE_FREQUENCIES_ARGV = ["steady-state", "--set", "kappa1=1", "--set", "kappa2=1",
                             "--set", "omega1=1e308", "--set", "omega2=-1e308"]
# the susceptibility chi(Omega) = 1 / (gamma_m / 2) overflows in design, and
# with a finite chi the design point J* = G1 G2 |chi|
DESIGN_ARGS = ["design", "--set", "omega_m=1", "--set", "Delta1=1", "--set", "Delta2=1",
               "--set", "kappa1=1", "--set", "kappa2=1"]
TINY_GAMMA_M_ARGV = [*DESIGN_ARGS, "--set", "gamma_m=1e-320", "--set", "G1=1", "--set", "G2=1"]
HUGE_DESIGN_ARGV = [*DESIGN_ARGS, "--set", "gamma_m=1", "--set", "G1=1e200", "--set", "G2=1e200"]
# the same for a linear sweep axis
HUGE_AXIS_SPAN = {"model": "cascaded",
                  "params": {"kappa1": 1, "kappa2": 1, "gamma1": 1, "gamma2": 1, "nbar1": 1},
                  "axes": [{"variable": "omega1", "min": -1e308, "max": 1e308, "points": 3}],
                  "outputs": ["n1", "n2"]}
# a fixed parameter that breaks the model's sign rule: kappa1 < 0 on the
# cascaded model, gamma_m = 0 on the optomechanical one
NEGATIVE_RATE_SWEEP = {"model": "cascaded",
                       "params": {"kappa1": -1, "kappa2": 1, "gamma1": 1, "gamma2": 1},
                       "axes": [{"variable": "omega2", "min": 0, "max": 1, "points": 2}],
                       "outputs": ["n1"]}
ZERO_GAMMA_M_SWEEP = {"model": "optomech",
                      "params": {"omega_m": 5.0, "gamma_m": 0, "Delta1": 5.0, "Delta2": 5.0,
                                 "kappa1": 1.0, "kappa2": 1.0, "G1": 0.3, "G2": 0.3,
                                 "phi": 1.5707963267948966, "Nbar1": 2.0},
                      "axes": [{"variable": "J", "min": 0, "max": 1, "points": 2}],
                      "outputs": ["n1"]}
REPEATED_OUTPUT_SWEEP = {**NEGATIVE_RATE_SWEEP, "outputs": ["n1", "n1"],
                         "params": {**NEGATIVE_RATE_SWEEP["params"], "kappa1": 1}}
# stable, with eigenvalues -5e307 and -0.5
HUGE_GAMMA_ARGV = ["steady-state", "--set", "gamma1=1e308", "--set", "kappa1=1",
                   "--set", "kappa2=1"]
# each collective rate is valid, their product 1e400 is not finite
PRODUCT_OVERFLOW_ARGV = ["steady-state", "--set", "kappa1=1", "--set", "kappa2=1",
                         "--set", "gamma1=1e200", "--set", "gamma2=1e200", "--set", "nbar3=1"]
# every noise term and N11 = 0.3 * max finite; unscaled, the solve's
# Hermitian part 0.5 * (X + X†) would overflow
MAX_NBAR_ARGV = ["steady-state", "--set", "kappa1=0.1", "--set", "gamma1=0.2", "--set", "kappa2=1",
                 "--set", "nbar1=1.7976931348623157e308", "--set", "nbar3=1.7976931348623157e308"]
# every bath at the float maximum: the weights of mode 2 sum to 1 + a few ulp,
# so its occupation sum passes the maximum, as a CLI call and a one-point sweep
FLOAT_MAX = "1.7976931348623157e308"
OVERFLOWING_SUM_ARGV = ["steady-state"] + [
    arg for value in ("kappa1=0.1", "gamma1=0.1", "kappa2=0.1", "gamma2=0.1", f"nbar1={FLOAT_MAX}",
                      f"nbar2={FLOAT_MAX}", f"nbar3={FLOAT_MAX}", "F=0.05", "omega2=0.3", "phi=1")
    for arg in ("--set", value)
]
OVERFLOWING_SUM_SWEEP = {
    "model": "cascaded",
    "params": {"kappa1": 0.1, "gamma1": 0.1, "kappa2": 0.1, "gamma2": 0.1,
               "nbar1": float(FLOAT_MAX), "nbar2": float(FLOAT_MAX), "F": "0.05", "omega2": 0.3,
               "phi": 1.0},
    "axes": [{"variable": "nbar3", "min": float(FLOAT_MAX), "max": float(FLOAT_MAX), "points": 1}],
    "outputs": ["n1", "n2", "dn1", "m1"],
}
# steady-state at unequal rates, with mode 1 undamped but stable through F,
# at occupations near 1e-12, far below the vacuum 1/2, and at zero temperature
# with collective rates whose product overflows
STEADY_STATE_UNEQUAL_RATES = ["steady-state", "--set", "kappa1=2", "--set", "kappa2=1",
                              "--set", "gamma1=1", "--set", "gamma2=1", "--set", "nbar1=1"]
STEADY_STATE_UNDAMPED_MODE = ["steady-state", "--set", "kappa2=1", "--set", "gamma2=1",
                              "--set", "F=0.5", "--set", "nbar2=2", "--set", "nbar3=1"]
STEADY_STATE_TINY_OCCUPATIONS = ["steady-state", "--set", "kappa1=1", "--set", "kappa2=1",
                                 "--set", "gamma1=1e-9", "--set", "gamma2=1e-9",
                                 "--set", "nbar3=1e-3"]
STEADY_STATE_PRODUCT_OVERFLOW = ["steady-state", "--set", "kappa1=1", "--set", "kappa2=1",
                                 "--set", "gamma1=1e200", "--set", "gamma2=1e200"]
# mbar1 = 50 with mbar2 = mbar3 = 120 converts to Nbar1 = -20
NEGATIVE_MBAR_ARGV = ["steady-state", "--set", "kappa1=1", "--set", "kappa2=1", "--set", "gamma1=1",
                      "--set", "gamma2=1", "--set", "mbar1=50", "--set", "mbar3=120"]
# sweep config files that JSON cannot decode: a UTF-16 byte-order mark, not
# UTF-8, and a nesting too deep for the decoder's recursion
NOT_UTF8_CONFIG = b"\xff\xfe{}"
TOO_DEEP_CONFIG = b"[" * 100_000 + b"]" * 100_000


def fig2_config(points=5, fmt="csv", **extra):
    doc = {
        "model": "cascaded",
        "params": {
            "phi": 0.0, "mbar1": 50, "mbar2": 100, "F": 0.0,
            "kappa1": 1.0, "kappa2": 1.0, "gamma1": 1.0, "gamma2": 1.0,
        },
        "axes": [
            {"variable": "Delta", "min": -10.0, "max": 10.0, "points": points},
            {"variable": "mbar3", "min": 0.0, "max": 100.0, "points": points},
        ],
        "outputs": ["dn1", "dn2"],
        "format": fmt,
    }
    doc.update(extra)
    return json.dumps(doc)


GOLDEN_CONFIG = {
    "model": "cascaded",
    "params": {"kappa2": 1.0, "gamma2": 1.0, "F": 0.0, "mbar1": 2.25, "mbar2": 1.5, "mbar3": 0.5},
    # kappa1 = gamma1 = 0 is unstable; at kappa1 != gamma1, m1 is the rate-weighted
    # baseline (Nbar3 = 0.5 or Nbar1 = 4.0), and mbar1 = 2.25 is m1 only at kappa1 = gamma1
    "axes": [{"variable": "kappa1", "min": 0.0, "max": 1.0, "points": 2},
             {"variable": "gamma1", "min": 0.0, "max": 1.0, "points": 2}],
    "outputs": ["m1", "stability_margin", "F_residual", "m2"],
}

GOLDEN_CSV = """\
kappa1,gamma1,m1,stability_margin,F_residual,m2,status
0,0,,0,0,,unstable
0,1,0.5,-0.5,0,1.5,ok
1,0,4,-0.5,0,1.5,ok
1,1,2.25,-1,0,1.5,ok
"""

GOLDEN_JSON = """\
[
  {
    "kappa1": 0.0,
    "gamma1": 0.0,
    "m1": null,
    "stability_margin": 0.0,
    "F_residual": 0.0,
    "m2": null,
    "status": "unstable"
  },
  {
    "kappa1": 0.0,
    "gamma1": 1.0,
    "m1": 0.5,
    "stability_margin": -0.5,
    "F_residual": 0.0,
    "m2": 1.5,
    "status": "ok"
  },
  {
    "kappa1": 1.0,
    "gamma1": 0.0,
    "m1": 4.0,
    "stability_margin": -0.5,
    "F_residual": 0.0,
    "m2": 1.5,
    "status": "ok"
  },
  {
    "kappa1": 1.0,
    "gamma1": 1.0,
    "m1": 2.25,
    "stability_margin": -1.0,
    "F_residual": 0.0,
    "m2": 1.5,
    "status": "ok"
  }
]
"""


class TestConvertMbar:
    def test_conversion_formula(self):
        out = convert_mbar({"mbar1": 50.0, "mbar2": 100.0, "mbar3": 20.0})
        assert out == {"nbar1": 80.0, "nbar2": 180.0, "nbar3": 20.0}

    def test_negative_result_rejected(self):
        # named for mbar3 if it is negative, else for the first mbar_i whose Nbar_i is
        for params, message in (
            ({"mbar1": 50.0, "mbar2": 100.0, "mbar3": 120.0},
             "mbar1: mbar conversion gives Nbar1 = -20, Nbar2 = 80, Nbar3 = 120"),
            ({"mbar1": 70.0, "mbar2": 50.0, "mbar3": 120.0},
             "mbar2: mbar conversion gives Nbar1 = 20, Nbar2 = -20, Nbar3 = 120"),
            ({"mbar1": 1.0, "mbar2": 1.0, "mbar3": -1.0},
             "mbar3: mbar conversion gives Nbar1 = 3, Nbar2 = 3, Nbar3 = -1"),
        ):
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                convert_mbar(params)
            with pytest.raises(SchemaError, match=f"^params.{re.escape(message)}$"):
                convert_mbar(params, prefix="params.")

    def test_mbar_is_the_baseline_only_at_equal_rates(self):
        # Nbar_i = 2 mbar_i - mbar3 at every rate: MIXED_GRID's rows at
        # mbar1 = 1, mbar3 = 0 give Nbar1 = 2, and m1 = mbar1 only at kappa1 = gamma1
        result = run_sweep(parse_config(json.dumps(dict(MIXED_GRID, outputs=["m1", "n1", "dn1"]))))
        rows = {tuple(v[:3]): (v[3:], s) for v, s in zip(result.values.tolist(), result.status)}
        # kappa1 = gamma1 = 1: m1 = mbar1 = 1; kappa1 = 1, gamma1 = 0: m1 = Nbar1 = 2
        for (kappa1, gamma1), m1 in (((1.0, 1.0), 1.0), ((1.0, 0.0), 2.0)):
            (m, n, dn), status = rows[kappa1, gamma1, 0.0]
            assert (m, status) == (m1, "ok") and abs(n - m1) <= 1e-12 and abs(dn) <= 1e-12

    def test_mixing_with_nbar_rejected(self):
        # the shared parameter check rejects it; convert_mbar only converts
        message = "^params.nbar2: 'nbar2' conflicts with params.mbar1; both set the bath occupations$"
        with pytest.raises(SchemaError, match=message):
            check_params("cascaded", {"mbar1": 1.0, "nbar2": 1.0})

    def test_passthrough_without_mbar(self):
        params = {"nbar1": 1.0, "kappa1": 2.0}
        assert convert_mbar(params) == params


class TestParseConfig:
    def test_valid_config(self):
        cfg = parse_config(fig2_config())
        assert cfg.model == "cascaded"
        assert len(cfg.axes) == 2
        assert cfg.outputs == ("dn1", "dn2")

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown top-level"):
            parse_config(fig2_config(plot=True))

    def test_unknown_parameter(self):
        doc = json.loads(fig2_config())
        doc["params"]["frequency"] = 1.0
        with pytest.raises(SchemaError, match="params.frequency"):
            parse_config(json.dumps(doc))

    def test_removed_optomech_fields_rejected(self):
        for name in ("kappa_int1", "kappa_ext2", "cavity_resonance"):
            doc = dict(THETA_SWEEP, params={**THETA_SWEEP["params"], name: 0.3})
            with pytest.raises(SchemaError, match=f"^params.{name}: unknown parameter"):
                parse_config(json.dumps(doc))

    def test_empty_axes(self):
        doc = json.loads(fig2_config())
        doc["axes"] = []
        with pytest.raises(SchemaError, match="axes"):
            parse_config(json.dumps(doc))

    def test_unknown_output(self):
        doc = json.loads(fig2_config())
        doc["outputs"] = ["n1", "temperature"]
        with pytest.raises(SchemaError, match="outputs"):
            parse_config(json.dumps(doc))

    def test_log_axis_needs_positive_bounds(self):
        doc = json.loads(fig2_config())
        doc["axes"][0]["spacing"] = "log"
        with pytest.raises(SchemaError, match="log spacing"):
            parse_config(json.dumps(doc))

    def test_counts_past_the_index_range(self, tmp_path, capsys):
        # numpy indexes at most intp max items: a longer axis or a larger
        # grid is bad input, named as the config is read; no case here
        # allocates, since parse_config builds no axis
        largest = np.iinfo(np.intp).max
        doc = {"model": "cascaded", "params": {"kappa1": 1.0, "kappa2": 1.0}, "outputs": ["n1"]}

        def grid(*points):
            names = ("omega1", "omega2", "nbar1")
            return json.dumps(dict(doc, axes=[{"variable": name, "min": 0.0, "max": 1.0,
                                               "points": n} for name, n in zip(names, points)]))

        too_long = f"axes[0].points: must be an integer from 1 to {largest}"
        too_many = f"axes: the grid must have at most {largest} points"
        for points, message in (((10**20,), too_long), ((3_000_000,) * 3, too_many),
                                ((2**21,) * 3, too_many)):
            config = tmp_path / "config.json"
            config.write_text(grid(*points))
            assert main(["sweep", str(config)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        for points in ((largest,), (3577, 42799, 60247241209)):  # the product is intp max
            parse_config(grid(*points))

    def test_negative_baseline_occupation(self):
        doc = json.loads(fig2_config())
        doc["params"]["mbar3"] = 120.0
        del doc["axes"][1]
        with pytest.raises(SchemaError, match="^params.mbar1: mbar conversion gives Nbar1 = -20,"):
            parse_config(json.dumps(doc))

    def test_swept_mbar_is_not_converted_from_params(self, tmp_path, capsys):
        # params.mbar3 = 10 gives Nbar1 = -6 and Nbar2 = -4, but the axis
        # replaces it, and every grid point converts to valid occupations
        rates = {"kappa1": 1, "kappa2": 1, "gamma1": 1, "gamma2": 1}
        doc = {"model": "cascaded", "params": {**rates, "mbar1": 2, "mbar2": 3, "mbar3": 10},
               "axes": [{"variable": "mbar3", "min": 0, "max": 4, "points": 3}],
               "outputs": ["n1", "n2", "dn1", "dn2"]}
        outputs = []
        for params in (doc["params"], {**rates, "mbar1": 2, "mbar2": 3}):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({**doc, "params": params}))
            assert main(["sweep", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == "" and outputs[0].out.count(",ok\n") == 3
        # a params value that no axis replaces is still checked at parse time
        doc["axes"][0]["variable"] = "Delta"
        message = "params.mbar1: mbar conversion gives Nbar1 = -6, Nbar2 = -4, Nbar3 = 10"
        with pytest.raises(SchemaError, match=f"^{message}$"):
            parse_config(json.dumps(doc))
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    AXIS = GOLDEN_CONFIG["axes"][0]
    SET_WITHOUT_VALUE = ["steady-state", "--set", "kappa1"]

    @pytest.mark.parametrize("doc, message", [
        ([GOLDEN_CONFIG], "top level must be an object"),
        ({k: v for k, v in GOLDEN_CONFIG.items() if k != "outputs"},
         "missing required key: outputs"),
        ({**GOLDEN_CONFIG, "model": "fluid"}, "model: must be one of ('cascaded', 'optomech')"),
        ({**GOLDEN_CONFIG, "format": "xml"}, "format: must be one of ('csv', 'json')"),
        ({**GOLDEN_CONFIG, "params": []}, "params: must be an object"),
        ({**GOLDEN_CONFIG, "axes": [AXIS] * 4}, "axes: at most 3 sweep axes supported"),
        ({**GOLDEN_CONFIG, "axes": ["kappa1"]}, "axes[0]: must be an object"),
        ({**GOLDEN_CONFIG, "axes": [{**AXIS, "step": 0.5}]}, "axes[0]: unknown keys ['step']"),
        ({**GOLDEN_CONFIG, "axes": [{k: v for k, v in AXIS.items() if k != "points"}]},
         "axes[0].points: missing"),
        ({**GOLDEN_CONFIG, "axes": [{**AXIS, "spacing": "cubic"}]},
         "axes[0].spacing: must be 'linear' or 'log'"),
        ({**GOLDEN_CONFIG, "outputs": []}, "outputs: must be a non-empty list"),
        ({**GOLDEN_CONFIG, "outputs": "m1"}, "outputs: must be a non-empty list"),
        ({**GOLDEN_CONFIG, "s_grid": 0.5}, "s_grid: must be a list of numbers"),
        (SET_WITHOUT_VALUE, "expected name=value, got 'kappa1'"),
    ])
    def test_input_error_messages(self, doc, message, tmp_path, capsys):
        """Each config (or the --set argv) exits 2 with its message on stderr."""
        argv = doc
        if doc is not self.SET_WITHOUT_VALUE:
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                parse_config(json.dumps(doc))
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc))
            argv = ["sweep", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_malformed_complex_f(self):
        doc = json.loads(fig2_config())
        doc["params"]["F"] = "abc"
        with pytest.raises(SchemaError, match="params.F"):
            parse_config(json.dumps(doc))

    def test_complex_string_f_accepted(self):
        doc = json.loads(fig2_config())
        doc["params"]["F"] = "0.1-0.2j"
        assert parse_config(json.dumps(doc)).params["F"] == "0.1-0.2j"

    def test_booleans_are_not_numbers(self):
        for field, edit in (
            ("params.phi", lambda d: d["params"].update(phi=True)),
            ("params.F", lambda d: d["params"].update(F=False)),
            ("s_grid", lambda d: d.update(s_grid=[True])),
            (r"axes\[0\].min", lambda d: d["axes"][0].update(min=False)),
            (r"axes\[0\].points", lambda d: d["axes"][0].update(points=True)),
        ):
            doc = json.loads(fig2_config())
            edit(doc)
            with pytest.raises(SchemaError, match=field):
                parse_config(json.dumps(doc))

    def test_non_finite_numbers_rejected(self):
        nan, inf = float("nan"), float("inf")
        for field, edit in (
            ("params.phi", lambda d: d["params"].update(phi=nan)),
            ("params.kappa1", lambda d: d["params"].update(kappa1=-inf)),
            ("params.mbar1", lambda d: d["params"].update(mbar1=10**400)),
            ("params.F", lambda d: d["params"].update(F=inf)),
            ("params.F", lambda d: d["params"].update(F="1+nanj")),
            (r"axes\[0\].min", lambda d: d["axes"][0].update(min=nan)),
            (r"axes\[1\].max", lambda d: d["axes"][1].update(max=inf)),
            (r"s_grid\[1\]", lambda d: d.update(outputs=["theta"], s_grid=[0.1, inf])),
        ):
            doc = json.loads(fig2_config())
            edit(doc)
            with pytest.raises(SchemaError, match=field):
                parse_config(json.dumps(doc))  # NaN and Infinity as JSON literals

    def test_ambiguous_names_rejected(self):
        nbar_params = {"nbar1": 1.0, "nbar2": 2.0, "kappa1": 1.0, "kappa2": 1.0}
        for field, edit in (
            # a second axis on one variable would override the first and mislabel rows
            (r"axes\[1\]\.variable", lambda d: d["axes"][0].update(variable="mbar3")),
            # Delta sets omega2 = omega1 + Delta
            (r"axes\[0\]\.variable", lambda d: d["params"].update(omega2=3.0)),
            (r"axes\[0\]\.variable", lambda d: (d["axes"][0].update(variable="omega2"),
                                                d["params"].update(Delta=1.0))),
            ("params.omega2", lambda d: (d["axes"][0].update(variable="phi"),
                                         d["params"].update(Delta=1.0, omega2=3.0))),
            # nbar occupations with an mbar axis
            (r"axes\[1\]\.variable", lambda d: d.update(params=nbar_params)),
            # theta@{s:g} names a column; a repeated name repeats a JSON key
            (r"s_grid\[1\]", lambda d: d.update(outputs=["theta"], s_grid=[0.1, 0.1000001])),
            (r"s_grid\[2\]", lambda d: d.update(outputs=["theta"], s_grid=[0.0, 0.2, 0])),
        ):
            doc = json.loads(fig2_config())
            edit(doc)
            with pytest.raises(SchemaError, match=field):
                parse_config(json.dumps(doc))

    def test_parallel_key_must_be_boolean(self):
        # accepted and validated, without effect: every sweep runs in one process
        for value in (True, False):
            assert parse_config(fig2_config(parallel=value)) == parse_config(fig2_config())
        for value in (1, "true", None):
            with pytest.raises(SchemaError, match="^parallel: must be a boolean$"):
                parse_config(fig2_config(parallel=value))

    def test_theta_requires_s_grid(self):
        doc = json.loads(fig2_config())
        doc["outputs"] = ["theta"]
        with pytest.raises(SchemaError, match="s_grid"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        (NEGATIVE_RATE_SWEEP, "params.kappa1: must be non-negative"),
        (ZERO_GAMMA_M_SWEEP, "params.gamma_m: must be positive"),
        (REPEATED_OUTPUT_SWEEP, "outputs[1]: 'n1' is already requested"),
    ])
    def test_rejected_before_any_point(self, doc, message, tmp_path, capsys):
        # unchecked, each would exit 0: with every row unsupported, or with two
        # n1 columns (two n1 keys per JSON record)
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        rc, out, err = fresh_process(["sweep", str(path)], flags=("-W", "error::RuntimeWarning"))
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("data, message", [
        (NOT_UTF8_CONFIG,
         "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (TOO_DEEP_CONFIG, "not valid JSON: nested too deeply for the decoder"),
    ], ids=["not_utf8", "too_deep"])
    def test_undecodable_file_is_a_schema_error(self, data, message, tmp_path, capsys):
        # each died with a traceback and exit 1: a UnicodeDecodeError, a RecursionError
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert main(["sweep", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        rc, out, err = fresh_process(["sweep", str(path)], flags=("-W", "error::RuntimeWarning"))
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_swept_values_keep_the_sign_rule_per_row(self):
        # an axis replaces the fixed value: its negative point is an unsupported row
        axis = {"variable": "kappa1", "min": -1, "max": 1, "points": 2}
        result = run_sweep(parse_config(json.dumps({**NEGATIVE_RATE_SWEEP, "axes": [axis]})))
        assert result.status.tolist() == ["unsupported", "ok"]
        axis = {"variable": "gamma_m", "min": 0, "max": 0.4, "points": 2}
        params = {**ZERO_GAMMA_M_SWEEP["params"], "J": 0.4}
        result = run_sweep(parse_config(json.dumps({**ZERO_GAMMA_M_SWEEP, "axes": [axis],
                                                    "params": params})))
        assert result.status.tolist() == ["unsupported", "ok"]


class TestRunSweep:
    def test_row_count_and_order(self):
        cfg = parse_config(fig2_config(points=3))
        result = run_sweep(cfg)
        assert len(result.status) == 9
        # row-major: first axis varies slowest
        deltas = result.values[:, 0].tolist()
        assert deltas == sorted(deltas)

    def test_single_point_sweep(self):
        doc = json.loads(fig2_config())
        doc["axes"] = [{"variable": "mbar3", "min": 0.0, "max": 0.0, "points": 1}]
        result = run_sweep(parse_config(json.dumps(doc)))
        assert len(result.status) == 1
        assert result.status[0] == "ok"
        assert result.values[0, 2] == pytest.approx(25.0, abs=1e-9)

    def test_fig2_sign_structure(self):
        cfg = parse_config(fig2_config(points=11))
        result = run_sweep(cfg)
        _, m3, dn1, dn2 = result.values.T
        assert (result.status == "ok").all() and np.isfinite(result.values).all()
        assert np.abs(dn1).max() <= 1e-10
        at_half = m3 == 50.0
        assert at_half.any() and np.abs(dn2[at_half]).max() <= 1e-9
        assert (np.sign(dn2[~at_half]) == np.sign(50.0 - m3[~at_half])).all()

    def test_unstable_rows_carry_status_not_numbers(self):
        doc = {
            "model": "cascaded",
            "params": {"kappa2": 1.0, "gamma2": 0.0, "gamma1": 0.0},
            "axes": [{"variable": "kappa1", "min": 0.0, "max": 1.0, "points": 2}],
            "outputs": ["n1", "n2"],
        }
        result = run_sweep(parse_config(json.dumps(doc)))
        assert result.status[0] == "unstable"  # kappa1 = 0: undamped first mode
        assert np.isfinite(result.values[0]).tolist() == [True, False, False]
        assert result.status[1] == "ok"

    def test_baseline_at_unequal_rates(self):
        # m2 = (kappa2 nbar2 + gamma2 nbar3) / (kappa2 + gamma2) at kappa2 != gamma2
        doc = {
            "model": "cascaded",
            "params": {"kappa1": 1.0, "kappa2": 2.0, "gamma1": 1.0, "gamma2": 1.0,
                       "nbar2": 3.0, "nbar3": 0.5},
            "axes": [{"variable": "nbar1", "min": 0.0, "max": 1.0, "points": 2}],
            "outputs": ["n1", "n2", "m2", "dn2"],
        }
        result = run_sweep(parse_config(json.dumps(doc)))
        assert (result.status == "ok").all() and np.isfinite(result.values).all()
        _, _, n2, m2, dn2 = result.values.T
        assert (m2 == 2.0 / 3.0 * 3.0 + 1.0 / 3.0 * 0.5).all() and (dn2 == n2 - m2).all()
        # mode 1 has no rate but is stable through F: m1 and dn1 are blank, and
        # JSON writes them as null, never NaN
        doc = {"model": "cascaded",
               "params": {"kappa2": 1.0, "gamma2": 1.0, "F": 0.5, "nbar2": 2.0, "nbar3": 1.0},
               "axes": [{"variable": "omega1", "min": 0.0, "max": 0.5, "points": 2}],
               "outputs": ["n1", "m1", "dn1", "m2", "dn2"], "format": "json"}
        cfg = parse_config(json.dumps(doc))
        result = run_sweep(cfg)
        assert (result.status == "unsupported").all()
        assert np.isfinite(result.values).tolist() == [[True, True, False, False, True, True]] * 2
        text = emit(result, cfg)
        assert b"NaN" not in text and json.loads(text)[0]["m1"] is None

    def test_optomech_model(self):
        doc = {
            "model": "optomech",
            "params": {
                "omega_m": 5.0, "gamma_m": 0.4, "Delta1": 5.0, "Delta2": 5.0,
                "kappa1": 1.0, "kappa2": 1.0, "G1": 0.3, "G2": 0.3,
                "J": 0.45, "phi": 1.5707963267948966, "Nbar_m": 0.5,
            },
            "axes": [{"variable": "Nbar1", "min": 0.0, "max": 4.0, "points": 3}],
            "outputs": ["n1", "n2", "F_residual", "stability_margin"],
        }
        result = run_sweep(parse_config(json.dumps(doc)))
        assert (result.status == "ok").all()
        assert (result.values[:, 4] < 0).all()

    def test_preset_rows_fill_the_baseline(self):
        # every row was unsupported while the baseline required equal rates;
        # dn1 = n1 - m1 changes sign where J crosses J*
        result = run_sweep(parse_config(json.dumps(PRESET_DN_SWEEP)))
        assert (result.status == "ok").all() and np.isfinite(result.values).all()
        J, n1, _, m1, _, dn1, _ = result.values.T
        assert (dn1 == n1 - m1).all() and np.sign(dn1).tolist() == [-1, -1, -1, 1, 1]
        assert J[2] < design_nonreciprocal(preset_microwave()).j_star < J[3]

    def test_zero_rate_channel_blanks_its_cells(self):
        doc = {
            "model": "cascaded",
            "params": {"kappa2": 1.0, "gamma1": 1.0, "gamma2": 1.0,
                       "nbar1": 1.0, "nbar2": 0.5, "nbar3": 2.0},
            "axes": [{"variable": "kappa1", "min": 0.0, "max": 1.0, "points": 3}],
            "outputs": ["n1", "eta1", "eta3", "theta"],
            "s_grid": [0.0, 0.1],
        }
        result = run_sweep(parse_config(json.dumps(doc)))
        assert result.status[0] == "unsupported"
        assert np.isfinite(result.values[0]).tolist() == [True, True, False, True, False, False]
        assert (result.status[1:] == "ok").all() and np.isfinite(result.values[1:]).all()

    def test_overflowing_mapping_gives_unsupported_rows(self):
        # a RuntimeWarning is an error in the tests, as under -W error::RuntimeWarning
        result = run_sweep(parse_config(json.dumps(G1_OVERFLOW_SWEEP)))
        assert result.status.tolist() == ["ok", "unsupported", "unsupported"]
        assert np.isfinite(result.values[0]).all() and np.isnan(result.values[1:, 1:]).all()

    def test_lyapunov_failure_blanks_its_cells(self):
        params = {k: v for k, v in LYAPUNOV_FAILURE.items() if k != "nbar1"}
        doc = {
            "model": "cascaded",
            "params": params,
            "axes": [{"variable": "nbar1", "min": 1.6, "max": 1.8, "points": 3}],
            "outputs": ["n1", "eta1", "stability_margin", "theta"],
            "s_grid": [0.0],
        }
        result = run_sweep(parse_config(json.dumps(doc)))
        assert len(result.status) == 3
        _, n1, eta1, margin, theta0 = np.isfinite(result.values).T
        assert not n1.all()
        assert margin.all() and theta0.all()
        assert result.values[:, 3] == pytest.approx(-0.0961, abs=1e-4)
        assert (result.values[:, 4] == 0.0).all()
        assert (n1 == eta1).all() and (~n1 == (result.status == "unsupported")).all()
        assert set(result.status.tolist()) <= {"ok", "unsupported"}


def reference_row(cfg, axis_values):
    """One row from single-point library calls, by the per-point status rules,
    and the largest bath occupation of the point (0 where it is invalid)."""
    n_out = len(column_names(cfg)) - len(cfg.axes) - 1
    raw = dict(cfg.params)
    raw.update(zip((ax.variable for ax in cfg.axes), axis_values))
    try:
        p = cascaded_from_raw(raw) if cfg.model == "cascaded" else map_to_cascaded(OmParams(**raw))
    except SchemaError:  # bad fields, a negative mbar conversion
        return (None,) * n_out, "unsupported", 0.0
    sys = build_system(p)
    margin = stability_margin(sys.M)
    stable = margin < 0.0
    V, failed = solve_lyapunov(sys.M, sys.N)
    V = None if failed or not stable else V

    def cell(name):
        if name == "stability_margin":
            return [margin]
        if name == "F_residual":
            return [abs(complex(p.F))]
        if not stable:
            return [None] * (len(cfg.s_grid) if name == "theta" else 1)
        if name == "theta":  # no value where theta fails
            return [None if reason else float(theta)
                    for theta, reason in (large_deviation(1, s, sys) for s in cfg.s_grid)]
        if name.startswith("eta"):  # no value where the flow fails: a zero-rate channel
            (eta, _), reason = flow_cumulants(int(name[-1]), sys)
            return [None if V is None or reason else float(eta)]
        if name.endswith("_closed"):  # NaN at unequal rates
            n = closed_form_occupations(p)[int(name[1]) - 1]
            return [n if math.isfinite(n) else None]
        i = int(name[-1]) - 1
        n = None if V is None else V[i, i].real - 0.5
        if name[0] == "n":
            return [n]
        m = disconnected_baseline(p)[i]
        if not math.isfinite(m):  # a mode without a rate has no baseline
            return [None]
        return [m if name[0] == "m" else None if n is None else n - m]

    cells = tuple(v for name in cfg.outputs for v in cell(name))
    status = "unstable" if not stable else "unsupported" if None in cells else "ok"
    return cells, status, max(p.nbar1, p.nbar2, p.nbar3)


# 20 points with ok, unstable and unsupported rows and every output, theta included
MIXED_GRID = {
    "model": "cascaded",
    "params": {"kappa2": 1.0, "gamma2": 1.0, "omega1": 0.3, "phi": 0.4,
               "mbar1": 1.0, "mbar2": 0.8},
    "axes": [
        # kappa1 = gamma1 = 0 leaves mode 1 undamped: unstable
        {"variable": "kappa1", "min": 0.0, "max": 1.0, "points": 2},
        {"variable": "gamma1", "min": 0.0, "max": 1.0, "points": 2},
        # mbar3 > 1.6 converts to a negative Nbar2
        {"variable": "mbar3", "min": 0.0, "max": 2.0, "points": 5},
    ],
    "outputs": list(sweeps._OUTPUTS),
    "s_grid": [-0.2, 0.0, 0.6],
}

# a block whose invalid points reach every kernel with their own values: a
# negative swept rate (kappa1 = -1) and a negative converted occupation
# (mbar3 = 2 gives Nbar2 = -0.4) on the cascaded model, and on the
# optomechanical one a negative swept rate, gamma_m < 0 and gamma_m = 0, whose
# susceptibility at Omega = omega_m is 1/0 and whose mapping is not finite
INVALID_CASCADED_SWEEP = {
    "model": "cascaded",
    "params": {"kappa2": 1.0, "gamma1": 1.0, "gamma2": 1.0, "omega1": 0.3, "phi": 0.4,
               "F": "0.1-0.2j", "mbar1": 1.0, "mbar2": 0.8},
    "axes": [{"variable": "kappa1", "min": -1.0, "max": 1.0, "points": 3},
             {"variable": "mbar3", "min": 0.0, "max": 2.0, "points": 3}],
    "outputs": ["n1", "dn2", "eta1", "eta3", "n1_closed", "theta", "stability_margin",
                "F_residual"],
    "s_grid": [-0.2, 0.3],
}
INVALID_OM_SWEEP = {
    "model": "optomech",
    "params": {"omega_m": 5.0, "Delta1": 5.0, "Delta2": 5.0, "kappa2": 1.0, "G1": 0.3,
               "G2": 0.3, "J": 0.45, "phi": 1.5707963267948966, "Nbar1": 2.0, "Nbar_m": 1.0},
    "axes": [{"variable": "gamma_m", "min": -0.4, "max": 0.4, "points": 3},
             {"variable": "kappa1", "min": -1.0, "max": 1.0, "points": 3}],
    "outputs": ["n1", "n2", "eta2", "theta", "stability_margin", "F_residual"],
    "s_grid": [-0.2, 0.3],
}

# every Nbar = 0: the mapped system sits at the vacuum, where the occupations
# and flows, linear in the bath occupations, are exactly 0
ZERO_TEMPERATURE_SWEEP = {
    "model": "optomech",
    "params": {"omega_m": 5.0, "gamma_m": 0.4, "Delta1": 5.0, "Delta2": 5.0,
               "kappa1": 1.0, "kappa2": 1.0, "G1": 0.3, "G2": 0.3, "J": 0.45,
               "phi": 1.5707963267948966},
    "axes": [{"variable": "Omega", "min": 4.0, "max": 6.0, "points": 21}],
    "outputs": ["n1", "n2", "eta1", "eta2", "eta3"],
}


# G1^2 overflows at the two upper points, which map to non-finite cascaded fields
G1_OVERFLOW_SWEEP = {
    "model": "optomech",
    "params": {"omega_m": 5.0, "gamma_m": 0.4, "Delta1": 5.0, "Delta2": 5.0,
               "kappa1": 1.0, "kappa2": 1.0, "G2": 0.3, "J": 0.45,
               "phi": 1.5707963267948966, "Nbar1": 1.0, "Nbar_m": 0.5},
    "axes": [{"variable": "G1", "min": 0.1, "max": 1e200, "points": 3}],
    "outputs": ["n1", "n2", "eta1", "eta2", "eta3", "stability_margin", "F_residual"],
}

# equal rates whose products overflow: kappa^2 in the closed form overflowed,
# so n1_closed was blank (status unsupported) beside n1 = 0.5
LARGE_EQUAL_RATES_SWEEP = {
    "model": "cascaded",
    "params": {"kappa1": 1e200, "kappa2": 1e200, "gamma1": 1e200, "gamma2": 1e200, "nbar1": 1.0},
    "axes": [{"variable": "omega2", "min": 0.0, "max": 1.0, "points": 2}],
    "outputs": ["n1", "n1_closed", "m1"],
}

# F near the float maximum: the margin's discriminant passes it, which warned
# in a sweep (a RuntimeWarning is an error in CI's hash-seed step)
HUGE_F_SWEEP = {
    "model": "cascaded",
    "params": {"kappa1": 1, "kappa2": 1, "gamma1": 1, "gamma2": 1, "F": "1.7e308+1.7e308j"},
    "axes": [{"variable": "nbar1", "min": 0, "max": 1, "points": 2}],
    "outputs": ["stability_margin", "n1"],
}

# the microwave preset with J swept across the design point J* = 2 G1 G2 / gamma_m
# = 6.16e6: its mapped rates are unequal (gamma = 4 G^2 / gamma_m = 0.98 kappa)
PRESET_DN_SWEEP = {
    "model": "optomech",
    "params": {k: v for k, v in dataclasses.asdict(preset_microwave()).items() if k != "J"},
    "axes": [{"variable": "J", "min": 5e6, "max": 7e6, "points": 5}],
    "outputs": ["n1", "n2", "m1", "m2", "dn1", "dn2"],
}

# many points per system: 5 systems, each with 501 values of nbar1, in two blocks
NBAR1_SWEEP = {
    "model": "cascaded",
    "params": {"kappa1": 1.0, "kappa2": 0.5, "gamma1": 0.8, "gamma2": 1.2, "phi": 0.4,
               "F": "0.1-0.2j", "nbar2": 1.5, "nbar3": 0.5},
    "axes": [{"variable": "Delta", "min": -2.0, "max": 2.0, "points": 5},
             {"variable": "nbar1", "min": 0.0, "max": 10.0, "points": 501}],
    "outputs": ["n1", "n2", "eta1", "eta2", "eta3", "stability_margin"],
}


def assert_systems_key_as_all_fields_do(p, count):
    """``_systems`` of block params ``p`` gives ``count`` systems, the same as
    keyed on the bits of every field but nbar1..3, each materialized."""
    rest = [np.ascontiguousarray(getattr(p, name)) for name in (
        "omega1", "omega2", "kappa1", "kappa2", "gamma1", "gamma2", "phi", "F")]
    keys = np.hstack([x.view(np.float64).reshape(x.size, -1) for x in rest])
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    _, first_all, inverse_all = np.unique(keys, return_index=True, return_inverse=True)
    first, inverse = sweeps._systems(p)
    assert len(first) == len(first_all) == count
    np.testing.assert_array_equal(first[inverse], first_all[inverse_all])


class TestStackedSweep:
    def test_rows_match_single_point_results(self, monkeypatch):
        monkeypatch.setattr(sweeps, "BLOCK_POINTS", 8)
        cfg = parse_config(json.dumps(MIXED_GRID))
        result = run_sweep(cfg)
        assert len(result.status) == 20 > 2 * sweeps.BLOCK_POINTS
        n_axes = len(cfg.axes)
        cols = column_names(cfg)[n_axes:-1]
        margin = cols.index("stability_margin")
        points = list(itertools.product(*(ax.values().tolist() for ax in cfg.axes)))
        assert len(points) == len(result.status)
        blanks = set()
        filled = np.isfinite(result.values)
        rows = zip(points, result.values.tolist(), filled.tolist(), result.status.tolist())
        for pt, values, valid, status in rows:
            ref_cells, ref_status, nbar = reference_row(cfg, pt)
            assert tuple(values[:n_axes]) == pt and all(valid[:n_axes])
            assert status == ref_status
            outputs = [v if ok else None for v, ok in zip(values[n_axes:], valid[n_axes:])]
            for name, got, ref in zip(cols, outputs, ref_cells):
                assert (got is None) == (ref is None), (pt, name)
                if ref is not None:
                    # the absolute part, as in benchmarks/oracle.close: at equal
                    # nbar the sweep's dn2 is exactly 0, the reference's 2.2e-16
                    tolerance = pytest.approx(ref, rel=1e-12, abs=1e-12 * max(nbar, 1.0))
                    assert got == tolerance, (pt, name)
                elif status == "unsupported" and outputs[margin] is not None:
                    blanks.add(name)
        assert set(result.status.tolist()) == {"ok", "unstable", "unsupported"}
        assert (~filled[:, n_axes:]).all(axis=1).any()  # negative Nbar2
        # unequal rates (closed forms), a zero-rate channel and an inadmissible s all occur
        assert {"n1_closed", "eta1", "theta@0.6"} <= blanks

    def test_only_requested_columns_call_their_kernels(self, monkeypatch):
        calls = []
        for name in ("linear_response", "closed_form_occupations"):
            kernel = getattr(sweeps, name)
            monkeypatch.setattr(sweeps, name, lambda *a, f=kernel, n=name: calls.append(n) or f(*a))
        # 20 points in 3 blocks, and with theta's 3 s values in 10 blocks of 8 // 3 = 2
        monkeypatch.setattr(sweeps, "BLOCK_POINTS", 8)
        for outputs, per_block in (
            (["m1", "m2", "stability_margin", "F_residual"], []),
            (["theta"], []),
            (["n1", "n2", "dn1", "dn2"], ["linear_response"]),
            (["eta2", "n2_closed"], ["linear_response", "closed_form_occupations"]),
            (list(sweeps._OUTPUTS), ["linear_response", "closed_form_occupations"]),
        ):
            calls.clear()
            run_sweep(parse_config(json.dumps(dict(MIXED_GRID, outputs=outputs))))
            assert calls == per_block * (10 if "theta" in outputs else 3), outputs

    @pytest.mark.parametrize("block_points", [sweeps.BLOCK_POINTS, 7])
    @pytest.mark.parametrize("name", ["invalid_cascaded", "invalid_optomech"])
    def test_invalid_points_output_pinned(self, name, block_points, monkeypatch):
        # the bytes of tests/pinned/<name>.csv and .json, written when invalid
        # points still reached the kernels as all-zero placeholders
        monkeypatch.setattr(sweeps, "BLOCK_POINTS", block_points)
        cfg = parse_config(json.dumps(ci_sweep_configs()[name]))
        result = run_sweep(cfg)
        assert "unsupported" in result.status and "ok" in result.status
        for fmt in ("csv", "json"):
            pinned = Path(__file__).with_name("pinned") / f"{name}.{fmt}"
            assert emit(result, dataclasses.replace(cfg, format=fmt)) == pinned.read_bytes(), fmt

    def test_emission_independent_of_block_size(self, monkeypatch):
        # with theta's 3 s values, 7 // 3 = 2 points per block: some of
        # MIXED_GRID's blocks hold an invalid mbar3 = 2 point and others none
        for doc, block_points in ((MIXED_GRID, 7), (NBAR1_SWEEP, 300)):
            for fmt in ("csv", "json"):
                cfg = parse_config(json.dumps(dict(doc, format=fmt)))
                default = emit(run_sweep(cfg), cfg)
                with monkeypatch.context() as m:
                    m.setattr(sweeps, "BLOCK_POINTS", block_points)
                    blocked = emit(run_sweep(cfg), cfg)
                assert blocked == default, fmt

    def test_every_field_but_nbar_keys_a_system(self):
        # points that differ in any one such field get their own system
        base = {"omega1": 0.2, "omega2": -0.3, "kappa1": 1.0, "kappa2": 0.5, "gamma1": 0.8,
                "gamma2": 1.2, "phi": 0.4, "F": 0.1, "nbar2": 1.5, "nbar3": 0.5}
        for name in ("omega1", "omega2", "kappa1", "kappa2", "gamma1", "gamma2", "phi", "F"):
            doc = {"model": "cascaded", "params": {k: v for k, v in base.items() if k != name},
                   "axes": [{"variable": name, "min": base[name], "max": base[name] + 0.5,
                             "points": 2},
                            {"variable": "nbar1", "min": 0.0, "max": 2.0, "points": 2}],
                   "outputs": ["n1", "n2", "eta1", "eta2", "eta3"]}
            cfg = parse_config(json.dumps(doc))
            result = run_sweep(cfg)
            points = itertools.product(*(ax.values().tolist() for ax in cfg.axes))
            for values, point in zip(result.values.tolist(), points):
                cells, status, nbar = reference_row(cfg, point)
                assert status == "ok"
                tolerance = pytest.approx(cells, rel=1e-12, abs=1e-12 * max(nbar, 1.0))
                assert values[2:] == tolerance, (name, point)

    def test_points_sharing_a_system_match_single_points(self, monkeypatch):
        systems, response = [], sweeps.linear_response
        monkeypatch.setattr(
            sweeps, "linear_response", lambda sys: systems.append(len(sys.M)) or response(sys)
        )
        # at 2048 points per block the third system spans both blocks: 2048 = 4 * 501 + 44
        monkeypatch.setattr(sweeps, "BLOCK_POINTS", 2048)
        cfg = parse_config(json.dumps(NBAR1_SWEEP))
        result = run_sweep(cfg)
        assert systems == [5, 1] and (result.status == "ok").all()
        points = list(itertools.product(*(ax.values().tolist() for ax in cfg.axes)))
        for i in range(0, len(points), 23):
            cells, status, nbar = reference_row(cfg, points[i])
            assert status == "ok"
            tolerance = pytest.approx(cells, rel=1e-12, abs=1e-12 * max(nbar, 1.0))
            assert result.values[i, 2:].tolist() == tolerance, points[i]

    def test_readme_grid_is_one_block(self, monkeypatch):
        # 101 x 101 points fit in one block: one call per layer, and the
        # margin and the response take the 101 systems of the Delta values
        # (the response reads the margin the block computed)
        from noisecascade import cascaded

        calls = []
        # each kernel's first argument, and the number of systems in it
        for module, name, size in ((sweeps, "build_system", lambda p: p.phi.size),
                                   (cascaded, "stability_margin", len),
                                   (sweeps, "linear_response", lambda sys: len(sys.M))):
            kernel = getattr(module, name)
            counted = lambda x, *a, f=kernel, n=name, size=size: calls.append((n, size(x))) or f(x, *a)
            monkeypatch.setattr(module, name, counted)
        result = run_sweep(parse_config(fig2_config(101, outputs=["n1", "n2", "dn1", "dn2"])))
        assert calls == [("build_system", 101), ("stability_margin", 101),
                         ("linear_response", 101)]
        assert (result.status == "ok").all()

    def test_block_without_a_varying_field_is_one_system(self, monkeypatch):
        systems, response = [], sweeps.linear_response
        monkeypatch.setattr(
            sweeps, "linear_response", lambda sys: systems.append(len(sys.M)) or response(sys)
        )
        doc = dict(NBAR1_SWEEP, axes=NBAR1_SWEEP["axes"][1:])
        for points in (1, 7):  # a one-point block, and one whose points differ only in nbar1
            systems.clear()
            doc["axes"] = [dict(doc["axes"][0], points=points)]
            result = run_sweep(parse_config(json.dumps(doc)))
            assert systems == [1] and (result.status == "ok").all()

    def test_varying_fields_key_as_all_fields_do(self, monkeypatch):
        # MIXED_GRID's block, whose invalid mbar3 = 2 points keep their own
        # values and each field given as one value stays broadcast: keyed on
        # the fields that vary it falls into the same systems as keyed on all
        # fields but nbar1..3, and the invalid points share the valid ones'
        blocks, systems = [], sweeps._systems
        monkeypatch.setattr(sweeps, "_systems", lambda p: blocks.append(p) or systems(p))
        run_sweep(parse_config(json.dumps(MIXED_GRID)))
        (p,) = blocks
        assert p.invalid().sum() == (p.nbar2 < 0.0).sum() == 4
        assert not any(p.kappa2.strides) and not any(p.phi.strides)
        assert_systems_key_as_all_fields_do(p, 4)

    def test_valid_block_keeps_fixed_fields_broadcast(self, monkeypatch):
        # each field given as one value stays broadcast (all strides zero),
        # and _systems, which leaves such fields out, finds the systems that
        # all fields but nbar1..3, materialized, give
        blocks, systems = [], sweeps._systems
        monkeypatch.setattr(sweeps, "_systems", lambda p: blocks.append(p) or systems(p))
        readme = json.loads(fig2_config(101))
        for doc, varying, count in ((readme, ("omega2", "nbar1", "nbar2", "nbar3"), 101),
                                    (NBAR1_SWEEP, ("omega2", "nbar1"), 5)):
            blocks.clear()
            run_sweep(parse_config(json.dumps(doc)))
            (p,) = blocks
            for f in dataclasses.fields(p):
                x = getattr(p, f.name)
                assert any(x.strides) == (f.name in varying), f.name
            assert_systems_key_as_all_fields_do(p, count)

    def test_each_block_logs_points_systems_and_invalid_points(self, caplog):
        # one DEBUG line per block; the CLI configures no logging, so it
        # prints nothing (test_cli_sweep_leaves_stderr_empty)
        with caplog.at_level(logging.DEBUG, logger="noisecascade"):
            run_sweep(parse_config(fig2_config(101)))
            run_sweep(parse_config(json.dumps(MIXED_GRID)))
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert lines == ["sweep block: 10201 points, 101 systems, 0 invalid",
                         "sweep block: 20 points, 4 systems, 4 invalid"]

    def test_one_stability_margin_call_per_block(self, monkeypatch):
        # the sweep's margin column and the response take the block's distinct
        # systems, one per set of fields other than nbar1..3, and share one
        # margin call; every system, an unstable one too, reaches the
        # Lyapunov solve with its own drift
        from noisecascade import cascaded

        margins, responses, drifts = [], [], []
        margin, response = cascaded.stability_margin, cascaded.linear_response
        solve = cascaded.solve_lyapunov
        monkeypatch.setattr(cascaded, "stability_margin", lambda M: margins.append(M) or margin(M))
        monkeypatch.setattr(
            sweeps, "linear_response", lambda sys: responses.append(sys.M) or response(sys)
        )
        monkeypatch.setattr(cascaded, "solve_lyapunov", lambda A, N: drifts.append(A) or solve(A, N))
        # with theta's 3 s values, 24 // 3 = 8 points per block: 20 points in 3 blocks
        monkeypatch.setattr(sweeps, "BLOCK_POINTS", 24)
        result = run_sweep(parse_config(json.dumps(MIXED_GRID)))
        # the (kappa1, gamma1) pairs of rows 0-7, 8-15 and 16-19; the invalid
        # mbar3 = 2 point of each pair shares its system
        assert [len(M) for M in margins] == [2, 3, 1]
        assert len(responses) == len(drifts) == 3
        for M, response_M, drift in zip(margins, responses, drifts):
            assert response_M is M and drift.shape == (len(M), 1, 2, 2)
            assert len(np.unique(M.reshape(len(M), -1), axis=0)) == len(M)
            np.testing.assert_array_equal(drift[:, 0], M)
        assert not (margin(np.concatenate(margins)) < 0.0).all()  # kappa1 = gamma1 = 0
        assert (result.status == "unstable").any()


# the theta sweep of the CI workflow: 6 x 6 J x G2 on the optomechanical model
THETA_SWEEP = {
    "model": "optomech",
    "params": {"omega_m": 5.0, "gamma_m": 0.4, "Delta1": 5.0, "Delta2": 5.0,
               "kappa1": 1.0, "kappa2": 1.0, "G1": 0.3, "phi": 1.5707963267948966,
               "Nbar1": 2.0, "Nbar2": 4.0, "Nbar_m": 1.0},
    "axes": [{"variable": "J", "min": 0, "max": 1, "points": 6},
             {"variable": "G2", "min": 0, "max": 1.5, "points": 6}],
    "outputs": ["n1", "n2", "eta1", "eta2", "eta3", "theta"],
    "s_grid": [-0.3, 0, 0.5],
    "format": "json",
}
# sweeps whose points share systems, with theta: NBAR1_SWEEP on an s_grid,
# 2505 points on 5 systems and 10020 (point, s) pairs in one block, of which
# s = 0.2 and 0.5 blank some cells, and a 7 x 4 optomechanical Nbar1 x J grid,
# whose Nbar1 axis varies only the bath occupations: 28 points on 4 systems
NBAR1_THETA_SWEEP = dict(NBAR1_SWEEP, outputs=[*NBAR1_SWEEP["outputs"], "theta"],
                         s_grid=[-0.3, 0.0, 0.2, 0.5])
# NBAR1_SWEEP without its Delta axis, with theta on two s values: its 501
# points share one system, whose F stays one complex value broadcast to every point
NBAR1_ONLY_SWEEP = dict(NBAR1_SWEEP, axes=NBAR1_SWEEP["axes"][1:],
                        outputs=[*NBAR1_SWEEP["outputs"], "theta"], s_grid=[-0.3, 0.2])
OM_SHARED_THETA_SWEEP = dict(THETA_SWEEP, axes=[
    {"variable": "Nbar1", "min": 0, "max": 3, "points": 7},
    {"variable": "J", "min": 0, "max": 1, "points": 4},
])
# rows whose s = 0.5 lies outside the admissible region, as the 4x4 eigenvalue
# path flagged them before the closed form replaced it
THETA_SWEEP_BLANK_ROWS = [0, 1, 6, 7, 12, 13, 14, 18, 19, 20, 24, 25, 26, 27, 30, 31, 32, 33, 34]


class TestThetaBatching:
    def test_one_large_deviation_call_per_block(self, monkeypatch):
        # each block's one call takes the whole s_grid, and a block holds at
        # most BLOCK_POINTS (point, s) pairs, one point at least; smaller
        # blocks change no byte
        cfg = parse_config(json.dumps(THETA_SWEEP))
        calls, kernel = [], sweeps.large_deviation

        def counted(channel, s, sys):  # records the s values and points of each call
            calls.append((np.size(s), len(sys.M)))
            return kernel(channel, s, sys)

        monkeypatch.setattr(sweeps, "large_deviation", counted)
        default = emit(run_sweep(cfg), cfg)
        assert calls == [(3, 36)]
        for block_points, points in ((40, [13, 13, 10]), (8, [2] * 18), (2, [1] * 36)):
            calls.clear()
            monkeypatch.setattr(sweeps, "BLOCK_POINTS", block_points)
            assert emit(run_sweep(cfg), cfg) == default, block_points
            assert calls == [(3, n) for n in points], block_points

    @pytest.mark.parametrize("doc, systems", [(NBAR1_THETA_SWEEP, 5), (OM_SHARED_THETA_SWEEP, 4)],
                             ids=["nbar1", "optomech"])
    def test_theta_on_shared_systems(self, doc, systems, monkeypatch):
        # points that share a system take theta from its drift and couplings
        # with their own nbar: each cell equals large_deviation on the point's
        # own system bit for bit, and the block builds its systems once
        blocks, built = [], []
        keyed, build = sweeps._systems, sweeps.build_system
        monkeypatch.setattr(sweeps, "_systems", lambda p: blocks.append(p) or keyed(p))
        monkeypatch.setattr(sweeps, "build_system", lambda p: built.append(p.phi.size) or build(p))
        cfg = parse_config(json.dumps(doc))
        result = run_sweep(cfg)
        (p,) = blocks
        assert built == [systems] and p.phi.size == len(result.status) > systems
        theta = result.values[:, len(cfg.axes) + len(cfg.outputs) - 1:]
        assert theta.shape[1] == len(cfg.s_grid) and np.isnan(theta).any()
        for i in range(len(result.status)):
            sys = build(CascadedParams(**{k: v[i] for k, v in vars(p).items()}))
            stable = stability_margin(sys.M) < 0.0  # the row rule blanks the rest
            for j, s in enumerate(cfg.s_grid):
                single = large_deviation(1, s, sys)[0] if stable else np.float64(np.nan)
                got = theta[i, j]
                assert got.view(np.int64) == single.view(np.int64) or np.isnan([got, single]).all()


class TestThetaAdmissibility:
    def test_ci_theta_sweep_rows_pinned(self):
        cfg = parse_config(json.dumps(THETA_SWEEP))
        result = run_sweep(cfg)
        cols = column_names(cfg)
        statuses = result.status.tolist()
        assert statuses.count("ok") == 17 and statuses.count("unsupported") == 19
        valid = {name: np.isfinite(result.values[:, cols.index(name)]) for name in cols[:-1]}
        assert np.flatnonzero(~valid["theta@0.5"]).tolist() == THETA_SWEEP_BLANK_ROWS
        assert valid["theta@-0.3"].all() and valid["theta@0"].all()
        ok = np.array(statuses) == "ok"
        assert (ok == valid["theta@0.5"]).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_theta_om_configs_all_ok(self, seed):
        # the sweep-theta-om workload's config (benchmarks/workloads.py): seeds
        # other than 0 move G1 by up to 2 % and the occupations by up to 3 %
        rng = np.random.default_rng(seed) if seed else None

        def jitter(x, r):
            return x if rng is None else x * float(rng.uniform(1 - r, 1 + r))

        params = {"omega_m": 5.0, "gamma_m": 0.4, "Delta1": 5.0, "Delta2": 5.0,
                  "kappa1": 1.0, "kappa2": 1.0, "G1": jitter(0.3, 0.02), "phi": math.pi / 2,
                  "Nbar1": jitter(2.0, 0.03), "Nbar2": jitter(4.0, 0.03),
                  "Nbar_m": jitter(1.0, 0.03)}
        config = {
            "model": "optomech", "params": params,
            "axes": [{"variable": "J", "min": 0, "max": 1, "points": 21},
                     {"variable": "G2", "min": 0, "max": 1.5, "points": 21}],
            "outputs": ["n1", "n2", "eta1", "eta2", "eta3", "stability_margin", "F_residual",
                        "theta"],
            "s_grid": [-0.3, -0.1, 0.1, 0.3],
        }
        result = run_sweep(parse_config(json.dumps(config)))
        assert (result.status == "ok").all() and np.isfinite(result.values).all()


def reference_emit(result, cfg):
    """The per-cell formatter: "%.17g" per CSV cell and json.dumps of dict
    records, with a value that is not finite blank: "" or None."""
    cols = column_names(cfg)
    cells = np.where(np.isfinite(result.values), result.values, None).tolist()
    rows = zip(cells, result.status.tolist())
    if cfg.format == "json":
        records = [dict(zip(cols, cells + [status])) for cells, status in rows]
        return (json.dumps(records, indent=2) + "\n").encode()
    lines = [",".join(cols)]
    lines += [
        ",".join(["" if x is None else "%.17g" % x for x in cells] + [status])
        for cells, status in rows
    ]
    return ("\n".join(lines) + "\n").encode()


STATUSES = ("ok", "unstable", "unsupported")
NAN_PAYLOAD = float(np.array(0x7FF8000000000001).view(np.float64))
SPECIAL_VALUES = (0.0, -0.0, math.nan, NAN_PAYLOAD, math.inf, -math.inf, 1.5, 5e-324, 1e300)


def emit_case(fmt, values, status, s_grid=()):
    """A result with columns Delta, n1, eta3 and theta@s for each s."""
    outputs = ("n1", "eta3", "theta") if s_grid else ("n1", "eta3")
    axes = (SweepAxis("Delta", 0.0, 1.0, len(status)),)
    cfg = SweepConfig("cascaded", {}, axes, outputs, format=fmt, s_grid=tuple(s_grid))
    result = SweepResult(np.array(values, float), np.array(status))
    assert result.values.shape == (len(status), len(column_names(cfg)) - 1)
    return cfg, result


@st.composite
def emit_cases(draw):
    rows = draw(st.integers(1, 12))
    s_grid = draw(st.lists(st.sampled_from([-0.25, 0.001, 0.6, 1e-7]), unique=True, max_size=2))
    n_cols = 3 + len(s_grid)
    # a small pool of values gives heavy repeats within a column; its NaNs
    # and infinities are blank cells
    pool = draw(st.lists(st.sampled_from(SPECIAL_VALUES) | st.floats(), min_size=1, max_size=4))
    cell = st.sampled_from(pool) | st.floats()
    values = np.array([draw(st.lists(cell, min_size=n_cols, max_size=n_cols))
                       for _ in range(rows)])
    blank = draw(st.integers(-1, n_cols - 1))
    if blank >= 0:
        values[:, blank] = draw(st.sampled_from([math.nan, NAN_PAYLOAD, math.inf, -math.inf]))
    status = draw(st.lists(st.sampled_from(STATUSES), min_size=rows, max_size=rows))
    return emit_case(draw(st.sampled_from(["csv", "json"])), values, status, s_grid)


# Delta repeats, n1 mixes 0.0 and -0.0, eta3 and theta hold NaNs (one with a
# payload) and infinities, which are blank
SIGNED_ZEROS_AND_NON_FINITE = [
    [0.0, 0.0, math.nan, math.nan],
    [0.0, -0.0, NAN_PAYLOAD, -math.inf],
    [1.0, 0.0, math.inf, NAN_PAYLOAD],
    [1.0, -0.0, -math.inf, math.inf],
    [0.0, 0.0, math.inf, math.nan],
]

# the longest texts of either format, 24 bytes ("%.17g" and float.__repr__
# agree on these) and the 23 of the longest fixed notation, with -0.0 and a
# blank cell in the first column of one row and in the last value column of
# another
WIDEST_TEXTS = [
    [-1.2345678901234567e-300, -1.7976931348623157e308, -2.2250738585072014e-308],
    [-0.00012345678901234567, -0.0, math.nan],
    [math.inf, -2.2250738585072014e-308, -1.2345678901234567e-300],
]


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


class TestEmit:
    @given(case=emit_cases())
    @example(case=emit_case("csv", SIGNED_ZEROS_AND_NON_FINITE, [*STATUSES, "ok", "ok"], [-0.25]))
    @example(case=emit_case("json", SIGNED_ZEROS_AND_NON_FINITE, [*STATUSES, "ok", "ok"], [-0.25]))
    @example(case=emit_case("csv", [[-0.0, math.nan, -1e-7, math.nan]], ["unsupported"], [0.001]))
    @example(case=emit_case("json", [[-0.0, math.nan, -1e-7, math.nan]], ["unsupported"], [0.001]))
    @example(case=emit_case("csv", WIDEST_TEXTS, list(STATUSES)))
    @example(case=emit_case("json", WIDEST_TEXTS, list(STATUSES)))
    @example(case=emit_case("csv", [[math.nan, -1.7976931348623157e308, -math.inf]], ["ok"]))
    @example(case=emit_case("json", [[math.nan, -1.7976931348623157e308, -math.inf]], ["ok"]))
    def test_matches_reference_formatter(self, case):
        cfg, result = case
        assert emit(result, cfg) == reference_emit(result, cfg)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows, parts_per_result", [(1, (1, 2)), (2, (1, 1))])
    def test_small_parts_and_gathers(self, fmt, rows, parts_per_result, monkeypatch):
        # parts of one or two rows over two results, each row its own gather:
        # each JSON part but the first starts with the ",\n" between records,
        # which the first drops
        monkeypatch.setattr(sweeps, "_EMIT_ROWS", rows)
        monkeypatch.setattr(sweeps, "_GATHER_BYTES", 1)
        cfg, result = emit_case(fmt, WIDEST_TEXTS, list(STATUSES))
        results = [SweepResult(result.values[a:b], result.status[a:b]) for a, b in ((0, 1), (1, 3))]
        parts = list(sweeps.emit_parts(results, cfg))
        assert len(parts) == 1 + sum(parts_per_result) + (fmt == "json")
        assert b"".join(parts) == reference_emit(result, cfg)
        if fmt == "json":
            assert parts[1].startswith(b"  {\n") and parts[2].startswith(b",\n  {\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_values_emit_blank_cells(self, fmt):
        # NaN, a NaN with a payload and both infinities are blank in either format
        values = [[0.0, math.nan, NAN_PAYLOAD], [1.0, math.inf, -math.inf], [2.0, 1.5, -0.0]]
        cfg, result = emit_case(fmt, values, ["unsupported", "unsupported", "ok"])
        text = emit(result, cfg)
        if fmt == "json":
            rows = [[r["n1"], r["eta3"]] for r in strict_json(text)]
            assert rows == [[None, None], [None, None], [1.5, -0.0]]
        else:
            assert text.decode().split("\n")[1:] == [
                "0,,,unsupported", "1,,,unsupported", "2,1.5,-0,ok", ""]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unknown_status_rejected(self, fmt):
        # statuses are looked up in a fixed table, not sorted from the rows
        cfg, result = emit_case(fmt, [[0.0, 1.0, 2.0]] * 2, ["ok", "failed"])
        with pytest.raises(ValueError, match="unknown row status 'failed'"):
            emit(result, cfg)

    def test_csv_layout(self):
        cfg = parse_config(fig2_config(points=2))
        data = emit(run_sweep(cfg), cfg)
        lines = data.decode().split("\n")
        assert lines[0] == "Delta,mbar3,dn1,dn2,status"
        assert lines[-1] == ""  # trailing LF
        assert len(lines) == 2 + 4  # header + 4 rows + empty tail
        assert "\r" not in data.decode()

    def test_column_names_order(self):
        doc = json.loads(fig2_config())
        doc["outputs"] = ["theta", "n1"]
        doc["s_grid"] = [0.001, -0.001]
        cfg = parse_config(json.dumps(doc))
        assert column_names(cfg) == [
            "Delta", "mbar3", "theta@0.001", "theta@-0.001", "n1", "status",
        ]

    def test_json_round_trip_is_bit_exact(self):
        cfg = parse_config(fig2_config(points=3, fmt="json"))
        result = run_sweep(cfg)
        records = json.loads(emit(result, cfg))
        assert len(records) == 9 and np.isfinite(result.values).all()
        for values, status, rec in zip(result.values.tolist(), result.status.tolist(), records):
            assert rec["dn2"] == values[3]
            assert rec["status"] == status

    def test_deterministic_across_parallel_modes(self):
        cfg = parse_config(fig2_config(points=4))
        serial = emit(run_sweep(cfg), cfg)
        cfg_parallel = parse_config(fig2_config(points=4, parallel=True))
        assert emit(run_sweep(cfg_parallel), cfg_parallel) == serial

    def test_golden_emission(self):
        for fmt, expected in (("csv", GOLDEN_CSV), ("json", GOLDEN_JSON)):
            cfg = parse_config(json.dumps(dict(GOLDEN_CONFIG, format=fmt)))
            assert emit(run_sweep(cfg), cfg).decode() == expected, fmt

    def test_empty_rows_rejected(self):
        cfg = parse_config(fig2_config())
        empty = SweepResult(np.empty((0, 5)), np.empty(0, str))
        with pytest.raises(ValueError):
            emit(empty, cfg)


# the long s grid of the CI workflow: a 64 x 64 cascaded Delta x nbar3 grid at
# 100 s values, 409 600 (point, s) pairs in 26 blocks
THETA_LONG_SWEEP = {
    "model": "cascaded",
    "params": {"kappa1": 1.0, "kappa2": 0.5, "gamma1": 0.8, "gamma2": 1.2,
               "nbar1": 2.0, "nbar2": 1.0, "phi": 0.3},
    "axes": [{"variable": "Delta", "min": -5, "max": 5, "points": 64},
             {"variable": "nbar3", "min": 0, "max": 5, "points": 64}],
    "outputs": ["n1", "n2", "eta1", "theta"],
    "s_grid": [round(-0.2 + 0.004 * i, 4) for i in range(100)],
}


def ci_sweep_configs():
    """Every sweep config that the CI workflow runs, by name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    nbar1_4001 = json.loads(json.dumps(NBAR1_SWEEP))
    nbar1_4001["axes"][1]["points"] = 4001
    return {
        "readme": json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1)),
        "mixed": MIXED_GRID, "zero_temperature": ZERO_TEMPERATURE_SWEEP,
        "g1_overflow": G1_OVERFLOW_SWEEP, "nbar1": NBAR1_SWEEP, "nbar1_4001": nbar1_4001,
        "preset_dn": PRESET_DN_SWEEP, "overflowing_sum": OVERFLOWING_SUM_SWEEP,
        "theta_sweep": THETA_SWEEP,
        "theta_sweep460": dict(THETA_SWEEP, s_grid=[round(-0.3 + 0.001 * i, 4) for i in range(460)]),
        "theta_long100": THETA_LONG_SWEEP, "nbar1_theta": NBAR1_THETA_SWEEP,
        "nbar1_only": NBAR1_ONLY_SWEEP, "large_equal_rates": LARGE_EQUAL_RATES_SWEEP,
        "huge_f": HUGE_F_SWEEP, "invalid_cascaded": INVALID_CASCADED_SWEEP,
        "invalid_optomech": INVALID_OM_SWEEP,
    }


class TestStrictOutput:
    """No sweep writes nan, inf, NaN or Infinity: a blank cell is empty or null,
    and every output equals the per-cell formatter ``reference_emit``."""

    @pytest.mark.parametrize("name", list(ci_sweep_configs()))
    def test_ci_configs_emit_strict_output(self, name):
        cfg = parse_config(json.dumps(ci_sweep_configs()[name]))
        result = run_sweep(cfg)
        for fmt in ("csv", "json"):
            fmt_cfg = dataclasses.replace(cfg, format=fmt)
            data = emit(result, fmt_cfg)
            assert data == reference_emit(result, fmt_cfg), fmt
            text = data.decode()
            if fmt == "json":
                records = strict_json(text)
                cells = [v for r in records for k, v in r.items() if k != "status"]
                assert all(v is None or math.isfinite(v) for v in cells), name
            else:
                rows = list(csv.reader(io.StringIO(text)))[1:]
                assert all(v == "" or math.isfinite(float(v)) for r in rows for v in r[:-1]), name
            assert len(text.splitlines()) > len(result.status)


# the benchmark's sweep-grid config on a 601 x 601 grid: 361 201 points in 23
# blocks, 56 MB of CSV and 119 MB of JSON
GRID_601 = {
    "model": "cascaded",
    "params": {"phi": 0.0, "mbar1": 50, "mbar2": 100, "F": 0.0,
               "kappa1": 1.0, "kappa2": 1.0, "gamma1": 1.0, "gamma2": 1.0},
    "axes": [{"variable": "Delta", "min": -10, "max": 10, "points": 601},
             {"variable": "mbar3", "min": 0, "max": 100, "points": 601}],
    "outputs": ["n1", "n2", "dn1", "dn2", "n1_closed", "n2_closed", "eta1", "eta2", "eta3"],
}
# reports the largest peak RSS, in kB on Linux, of the command in its argv
PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


class TestStreamedSweep:
    """``sweep`` writes the parts of ``emit_parts(iter_blocks(cfg), cfg)`` as
    each is made: its bytes are ``emit(run_sweep(cfg), cfg)`` at every block
    and part size, on stdout and in an ``--out`` file, and it holds one block
    at a time."""

    @pytest.mark.parametrize("sizes", ["default", "small"])
    @pytest.mark.parametrize("name", list(ci_sweep_configs()))
    def test_cli_bytes_equal_emit(self, name, sizes, tmp_path, monkeypatch, capsysbinary):
        doc = ci_sweep_configs()[name]
        cfg = parse_config(json.dumps(doc))
        result = run_sweep(cfg)
        expected = {fmt: emit(result, dataclasses.replace(cfg, format=fmt)) for fmt in ("csv", "json")}
        if sizes == "small":
            # several blocks of a few points and parts of 3 rows, each packed
            # from gathers of one row, so that JSON separators fall between
            # gathers, parts and blocks; a large grid takes five or six
            # blocks, not thousands
            pairs = len(result.status) * (len(cfg.s_grid) if "theta" in cfg.outputs else 1)
            monkeypatch.setattr(sweeps, "BLOCK_POINTS", max(7, pairs // 5))
            monkeypatch.setattr(sweeps, "_EMIT_ROWS", 3)
            monkeypatch.setattr(sweeps, "_GATHER_BYTES", 1)
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(doc))
        for fmt, data in expected.items():
            argv = ["sweep", str(config), "--format", fmt]
            assert main(argv) == 0
            assert capsysbinary.readouterr() == (data, b""), fmt
            assert main([*argv, "--out", str(out)]) == 0
            assert capsysbinary.readouterr() == (b"", b"")
            assert out.read_bytes() == data, fmt

    @pytest.mark.parametrize("points, read", [(201, 100), (3, 0)])
    def test_reader_closing_stdout_early_is_not_an_error(self, points, read, tmp_path):
        # 201 x 201: 40 401 rows in 40 parts, and the reader leaves after 100
        # bytes, so that a later part meets the closed pipe; 3 x 3: the reader
        # leaves first, and the output, held in the stream's buffer, meets it
        # at the last flush
        config, err = tmp_path / "sweep.json", tmp_path / "stderr"
        config.write_text(fig2_config(points=points))
        command, env = cli_process(["sweep", str(config)], ["-W", "error::RuntimeWarning"])
        with open(err, "wb") as stderr:
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, env=env)
            head = proc.stdout.read(read)
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        header = b"Delta,mbar3,dn1,dn2,status\n"
        assert head[: len(header)] == header[:read]
        assert (rc, err.read_bytes()) == (0, b"")

    @pytest.mark.parametrize("exists", [True, False])
    def test_failed_sweep_leaves_the_out_file_as_it_was(self, exists, tmp_path, monkeypatch, capsys):
        config, out = tmp_path / "sweep.json", tmp_path / "out.csv"
        config.write_text(fig2_config(points=5))
        if exists:
            out.write_bytes(b"earlier results\n")
        before = sorted(os.listdir(tmp_path))
        # 25 points in blocks of 7: the first block's rows are written, then the second fails
        monkeypatch.setattr(sweeps, "BLOCK_POINTS", 7)
        blocks, block = [], sweeps._block

        def failing(cfg, axis_columns):
            blocks.append(len(axis_columns[0]))
            if len(blocks) == 2:
                raise OSError("no space left for the block")
            return block(cfg, axis_columns)

        monkeypatch.setattr(sweeps, "_block", failing)
        assert main(["sweep", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: no space left for the block\n")
        assert blocks == [7, 7]
        assert sorted(os.listdir(tmp_path)) == before
        if exists:
            assert out.read_bytes() == b"earlier results\n"

    def test_out_file_takes_the_mode_open_gives(self, tmp_path, capsys):
        # a new file is created under the umask, and a file that exists keeps its mode
        config, out = tmp_path / "sweep.json", tmp_path / "out.csv"
        config.write_text(fig2_config(points=2))
        mask = os.umask(0o027)
        try:
            assert main(["sweep", str(config), "--out", str(out)]) == 0
        finally:
            os.umask(mask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        out.chmod(0o604)
        assert main(["sweep", str(config), "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o604

    def test_out_writes_through_a_link_and_into_a_pipe(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(fig2_config(points=3))
        cfg = parse_config(config.read_text())
        expected = emit(run_sweep(cfg), cfg)
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_bytes(b"earlier results\n")
        link.symlink_to(real)
        assert main(["sweep", str(config), "--out", str(link)]) == 0
        assert link.is_symlink() and real.read_bytes() == expected
        # a pipe is written in place, not replaced by a file
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["sweep", str(config), "--out", str(fifo)]) == 0
            assert os.read(reader, 1 << 16) == expected
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("fmt, destination", [("csv", "--out"), ("json", "stdout")])
    def test_memory_is_bounded_by_one_block(self, fmt, destination, tmp_path):
        # one block and its parts peak near 60 MB; the whole grid's text alone
        # is 56 MB (CSV) and 119 MB (JSON), and holding the grid's result and
        # output at once took 379 and 500 MB
        bound_mb = 150
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(GRID_601, format=fmt)))
        argv = ["sweep", str(config)]
        if destination == "--out":
            argv += ["--out", str(tmp_path / "out")]
        command, env = cli_process(argv)
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *command], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        peak_mb = int(proc.stdout) * 1024 / 1e6
        assert peak_mb < bound_mb, f"{peak_mb:.0f} MB"


class TestCli:
    def test_steady_state(self, capsys):
        rc = main([
            "steady-state",
            "--set", "kappa1=1", "--set", "kappa2=1",
            "--set", "gamma1=1", "--set", "gamma2=1",
            "--set", "mbar1=50", "--set", "mbar2=100", "--set", "mbar3=0",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dn1"] == pytest.approx(0.0, abs=1e-10)
        assert out["dn2"] == pytest.approx(25.0, abs=1e-9)

    @pytest.mark.parametrize("argv, baseline", [
        # unequal rates at F = 0: mode 1 sits at m1 = (2 nbar1 + nbar3) / 3
        (STEADY_STATE_UNEQUAL_RATES, (2.0 / 3.0, 0.0)),
        # mode 1 has no rate, yet F keeps the point stable: no m1
        (STEADY_STATE_UNDAMPED_MODE, (None, 1.5)),
        # m_i = gamma_i nbar3 / (kappa_i + gamma_i)
        (STEADY_STATE_TINY_OCCUPATIONS, (9.99999999e-13, 9.99999999e-13)),
        (STEADY_STATE_PRODUCT_OVERFLOW, (0.0, 0.0)),
    ], ids=["unequal_rates", "undamped_mode", "tiny_occupations", "product_overflow"])
    def test_steady_state_prints_the_baseline_at_every_rate(self, argv, baseline):
        rc, out, err = fresh_process(argv, flags=("-W", "error::RuntimeWarning"))
        assert (rc, err) == (0, "")
        doc = strict_json(out)
        assert list(doc) == ["n1", "n2", "m1", "m2", "dn1", "dn2"]
        assert (doc["m1"], doc["m2"]) == baseline
        if baseline[0] is None:
            assert doc["dn1"] is None and doc["n1"] == pytest.approx(1.5, abs=1e-12)
        else:
            assert abs(doc["dn1"]) <= 1e-12 * doc["m1"]  # mode 1 never sees mode 2
        assert doc["dn2"] == doc["n2"] - doc["m2"]

    def test_config_error_exit_code(self, capsys):
        rc = main(["steady-state", "--set", "kappa1=-1"])
        assert rc == 2

    def test_numerical_error_exit_code(self, capsys):
        for argv in (
            ["--set", "kappa1=0", "--set", "kappa2=0", "--set", "gamma1=0",
             "--set", "gamma2=0"],
            # mode 2 undamped: an unstable drift
            ["--set", "omega1=1", "--set", "omega2=1", "--set", "kappa1=1"],
            # stable, but the Lyapunov solve fails its residual check
            LYAPUNOV_FAILURE_ARGS,
        ):
            assert main(["steady-state", *argv]) == 3
            assert capsys.readouterr().err.startswith("error: ")
        # fcs fails in its one stacked solve of the steady state and the
        # channel's Gramian, before theta
        assert main(["fcs", "1", *LYAPUNOV_FAILURE_ARGS]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(fig2_config(points=2))
        out_path = tmp_path / "out.csv"
        rc = main(["sweep", str(cfg_path), "--out", str(out_path)])
        assert rc == 0
        content = out_path.read_bytes()
        assert content.startswith(b"Delta,mbar3,dn1,dn2,status")
        # the parallel key is accepted and has no effect; the --parallel flag is gone
        cfg_path.write_text(fig2_config(points=2, parallel=True))
        assert main(["sweep", str(cfg_path), "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == content
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(cfg_path), "--parallel"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_sweep_format_option_overrides_the_config(self, tmp_path, capsys):
        cfg_path, out_path = tmp_path / "sweep.json", tmp_path / "out"
        for config_format, option in (("csv", "json"), ("json", "csv")):
            text = fig2_config(points=3, fmt=config_format)
            cfg_path.write_text(text)
            rc, out, err, written = call_main(
                ["sweep", str(cfg_path), "--format", option, "--out", str(out_path)], capsys, out_path
            )
            cfg = parse_config(text)
            expected = emit(run_sweep(cfg), dataclasses.replace(cfg, format=option))
            assert (rc, out, err, written) == (0, "", "", expected)
            assert expected != emit(run_sweep(cfg), cfg)

    def test_sweep_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["sweep", str(cfg_path)]) == 2

    def test_one_quantity_set_two_ways_exit_code(self, tmp_path, capsys):
        doc = json.loads(fig2_config(points=2))
        doc["axes"][0]["variable"] = "omega2"
        doc["params"]["Delta"] = 1.0
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: axes[0].variable: 'omega2' conflicts with params.Delta; both set omega2\n")
        for first, second, message in (
            ("omega2=3", "Delta=0", "error: Delta: 'Delta' conflicts with omega2; both set omega2\n"),
            ("Delta=0", "omega2=3", "error: omega2: 'omega2' conflicts with Delta; both set omega2\n"),
        ):
            args = ["--set", "kappa1=1", "--set", "kappa2=1", "--set", first, "--set", second]
            assert main(["steady-state", *args]) == 2, first
            assert capsys.readouterr().err == message, first

    def test_fcs_command(self, capsys):
        rc = main([
            "fcs", "1",
            "--set", "kappa1=1", "--set", "kappa2=1",
            "--set", "gamma1=1", "--set", "gamma2=1",
            "--set", "nbar1=2", "--set", "nbar2=1", "--set", "nbar3=0.5",
            "--s-points", "5",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["theta"]) == 5
        assert out["cumulants"]["1"] == pytest.approx(out["eta1_trace"], rel=1e-6)

    def test_fcs_argument_errors(self, capsys):
        args = ["fcs", "1", "--set", "kappa1=1", "--set", "kappa2=1",
                "--set", "gamma1=1", "--set", "gamma2=1", "--set", "nbar1=2"]
        for bad in (["--s-points", "-1"], ["--s-min=nan"], ["--s-max=inf"]):
            assert main([*args, *bad]) == 2, bad
            assert capsys.readouterr().err.startswith("error: --s-"), bad
        for points in (0, 1):
            assert main([*args, "--s-points", str(points)]) == 0
            assert len(json.loads(capsys.readouterr().out)["theta"]) == points
        # a count past numpy's index range is bad input too
        assert main([*args, "--s-points", str(10**20)]) == 2
        largest = np.iinfo(np.intp).max
        message = f"error: --s-points must be from 0 to {largest}, --s-min and --s-max finite\n"
        assert capsys.readouterr() == ("", message)

    def test_design_command(self, capsys):
        rc = main([
            "design",
            "--set", "omega_m=5", "--set", "gamma_m=0.4",
            "--set", "Delta1=5", "--set", "Delta2=5",
            "--set", "kappa1=1", "--set", "kappa2=1",
            "--set", "G1=0.3", "--set", "G2=0.2",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["j_star"] == pytest.approx(0.3)
        assert out["residual"] <= 1e-12 * out["j_star"]

    def test_preset_command(self, capsys):
        rc = main(["preset", "microwave"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["Nbar_m"] == 0.5
        rc = main(["preset", "unknown"])
        assert rc == 2

    def test_map_om_command(self, capsys):
        rc = main([
            "map-om",
            "--set", "omega_m=5", "--set", "gamma_m=0.4",
            "--set", "Delta1=5", "--set", "Delta2=5",
            "--set", "kappa1=1", "--set", "kappa2=1",
            "--set", "G1=0.3", "--set", "G2=0.2", "--set", "J=0.3",
            "--set", "phi=1.5707963267948966",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma1"] == pytest.approx(2.0 * 0.09 * 5.0)
        assert out["F_residual"] == pytest.approx(0.0, abs=1e-12)

    def test_map_om_rejects_removed_fields(self, capsys):
        for name in ("kappa_int1", "cavity_resonance"):
            assert main(["map-om", *OM_SETS, "--set", f"{name}=7"]) == 2, name
            assert name in capsys.readouterr().err, name

    def test_fcs_far_outside_admissible_region_exit_code(self, capsys):
        # e^|s| overflows at the ends of this range
        rc = main([
            "fcs", "1",
            "--set", "kappa1=1", "--set", "kappa2=1",
            "--set", "gamma1=1", "--set", "gamma2=1",
            "--set", "nbar1=2", "--set", "nbar2=1", "--set", "nbar3=0.5",
            "--s-min=-800", "--s-max=800",
        ])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")


FCS_SETS = ["--set", "kappa1=1", "--set", "kappa2=1", "--set", "gamma1=1", "--set", "gamma2=1",
            "--set", "nbar1=2", "--set", "nbar2=1", "--set", "nbar3=0.5"]
OM_SETS = ["--set", "omega_m=5", "--set", "gamma_m=0.4", "--set", "Delta1=5", "--set", "Delta2=5",
           "--set", "kappa1=1", "--set", "kappa2=1", "--set", "G1=0.3", "--set", "G2=0.2"]


def with_set(sets, name, value):
    """``sets`` with ``--set name=value`` in place of the value they give name, if any:
    a name may be set only once."""
    pairs = [(flag, pair) for flag, pair in zip(sets[::2], sets[1::2])
             if pair.partition("=")[0] != name]
    return [arg for pair in pairs for arg in pair] + ["--set", f"{name}={value}"]


# every numeric error line of the single-point commands, compared whole
@pytest.mark.parametrize("argv, code, err", [
    (["steady-state", "--set", "kappa1=0", "--set", "kappa2=1"], 3,
     "error: drift is not stable (margin 0.000e+00)\n"),
    # channel 1 has no rate and mode 1 no damping: the drift is reported first
    (["fcs", "1", "--set", "kappa1=0", "--set", "kappa2=1", "--set", "gamma1=0",
      "--set", "gamma2=1", "--set", "nbar1=1"], 3,
     "error: drift is not stable (margin 0.000e+00)\n"),
    (["fcs", "3", "--set", "kappa1=1", "--set", "kappa2=1", "--set", "nbar1=1"], 3,
     "error: channel 3 has zero rate\n"),
    (["fcs", "1", *FCS_SETS, "--s-min=-800", "--s-max=800"], 3,
     "error: no stabilizing biased covariance at s = -800\n"),
    (["fcs", "1", *LYAPUNOV_FAILURE_ARGS], 3,
     "error: Lyapunov solve of the steady state or the channel's Gramian failed\n"),
    (["steady-state", *LYAPUNOV_FAILURE_ARGS], 3,
     "error: Lyapunov solve of the response to the bath occupations failed\n"),
    (["fcs", "1", *with_set(FCS_SETS, "nbar1", "1e160"), "--s-points", "0"], 3,
     "error: flow cumulant of order 2 is not finite\n"),
], ids=["unstable", "unstable_before_zero_rate", "zero_rate_channel", "outside_admissible",
        "gramian_solve", "response_solve", "order_2_not_finite"])
def test_numeric_error_lines(argv, code, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)


# every subcommand, an error of each exit code, and an argparse rejection;
# "{dir}" is the test's temporary directory, which holds a sweep config
REPEATED_CALLS = {
    "steady-state": (0, ["steady-state", "--set", "kappa1=1", "--set", "kappa2=1",
                         "--set", "gamma1=1", "--set", "gamma2=1",
                         "--set", "mbar1=50", "--set", "mbar2=100", "--set", "mbar3=0"]),
    "sweep --out": (0, ["sweep", "{dir}/sweep.json", "--out", "{dir}/out.csv"]),
    "fcs": (0, ["fcs", "3", *FCS_SETS, "--s-points", "5"]),
    "map-om": (0, ["map-om", *OM_SETS, "--set", "J=0.3", "--set", "phi=1.5707963267948966"]),
    "design": (0, ["design", *OM_SETS]),
    "preset": (0, ["preset", "microwave"]),
    "preset --mapped": (0, ["preset", "microwave", "--mapped"]),
    "config error": (2, ["steady-state", "--set", "kappa1=-1"]),
    # the stacked solve of the steady state and the channel's Gramian fails
    "numerical error": (3, ["fcs", "1", *LYAPUNOV_FAILURE_ARGS]),
    "argparse rejection": (2, ["fcs", "4", *FCS_SETS]),
}


# grids of the fcs text checks: the default one, no s, one s, a grid that
# crosses s = 0 (theta = 0.0 there), and numbers json writes in exponent form
FCS_GRIDS = {
    "default": ([], (-0.01, 0.01, 11)),
    "no s": (["--s-points", "0"], (-0.01, 0.01, 0)),
    "one s": (["--s-points", "1"], (-0.01, 0.01, 1)),
    "across 0": (["--s-min=-0.2", "--s-max=0.2", "--s-points=5"], (-0.2, 0.2, 5)),
    "exponents": (["--s-min=-1e-7", "--s-max=1e-7", "--s-points=3"], (-1e-7, 1e-7, 3)),
}
# systems of the fcs text checks: non-unit, unequal rates, mode 2 detuned or not
FCS_TEXT_RESONANT = dict(kappa1=0.3, kappa2=1.0, gamma1=0.7, gamma2=0.1, phi=0.4, F=0.2 - 0.1j,
                         nbar1=2.0, nbar2=1.0, nbar3=0.5)
FCS_TEXT_PARAMS = {"detuned": dict(FCS_TEXT_RESONANT, omega2=0.5), "resonant": FCS_TEXT_RESONANT}


def reference_fcs_text(channel, params, grid):
    """The fcs stdout as json.dumps(result, indent=2) renders it, with the
    result built from the library calls that ``fcs`` makes."""
    sys = build_system(CascadedParams(**params))
    etas, reason = flow_cumulants(channel, sys)
    s = np.linspace(*grid)
    theta, theta_reason = large_deviation(channel, s, sys)
    assert reason == 0 and not theta_reason.any()
    result = {
        "channel": channel,
        "theta": [{"s": x, "theta": t} for x, t in zip(s.tolist(), theta.tolist())],
        "eta1_trace": etas[0],
        "cumulants": {"1": etas[0], "2": etas[1]},
    }
    return json.dumps(result, indent=2) + "\n"


class TestFcsText:
    """``fcs`` writes its JSON from a template: the text must be json's own."""

    @pytest.mark.parametrize("grid", list(FCS_GRIDS))
    @pytest.mark.parametrize("channel, system", [
        pytest.param(channel, system, id=str(channel) if system == "detuned" else f"{channel} {system}")
        for system in FCS_TEXT_PARAMS for channel in (1, 2, 3)
    ])
    def test_stdout_is_json_indent_2(self, channel, system, grid, capsys):
        args, linspace = FCS_GRIDS[grid]
        params = FCS_TEXT_PARAMS[system]
        sets = [a for k, v in params.items() for a in ("--set", f"{k}={v}")]
        assert main(["fcs", str(channel), *sets, *args]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert out == reference_fcs_text(channel, params, linspace)
        doc = json.loads(out)
        if grid == "no s":
            assert '"theta": [],' in out
        if grid == "across 0":
            assert doc["theta"][2] == {"s": 0.0, "theta": 0.0}
        if grid == "exponents":
            assert '"s": -1e-07,' in out


def call_main(argv, capsys, out_path=None):
    """(exit code, stdout, stderr, bytes written to ``out_path``) of one
    ``main`` call in this process; an argparse rejection gives its exit code."""
    if out_path is not None and out_path.exists():
        out_path.unlink()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    written = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    return rc, captured.out, captured.err, written


def cli_process(argv, flags=()):
    """(command, environment) that run the CLI in a new interpreter with the
    interpreter options ``flags``, importing this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(noisecascade.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return [sys.executable, *flags, "-m", "noisecascade.cli", *argv], env


def fresh_process(argv, flags=()):
    """(exit code, stdout, stderr) of the CLI run in a new interpreter with
    the interpreter options ``flags``."""
    command, env = cli_process(argv, flags)
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see another's arguments."""

    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        built = []

        def counting_build_parser():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            assert main(["preset", "microwave"]) == 0
            assert len(built) == 1
            assert main(["steady-state", *FCS_SETS]) == 0
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_no_state_leaks_between_calls(self, capsys):
        first = ["fcs", "1", *with_set(FCS_SETS, "kappa1", "2"), "--s-points", "3"]
        rc, out, _, _ = call_main(first, capsys)
        assert rc == 0 and len(json.loads(out)["theta"]) == 3
        steady = ["steady-state", "--set", "kappa1=0.5", "--set", "kappa2=1.5",
                  "--set", "gamma1=1", "--set", "gamma2=1", "--set", "nbar2=4"]
        assert call_main(steady, capsys)[:3] == fresh_process(steady)
        # the default --s-points again, and none of the first call's --set values
        fcs = ["fcs", "2", "--set", "kappa1=1", "--set", "kappa2=1", "--set", "nbar1=1"]
        rc, out, err, _ = call_main(fcs, capsys)
        assert len(json.loads(out)["theta"]) == 11
        assert (rc, out, err) == fresh_process(fcs)
        rc, out, err, _ = call_main(["fcs", "4", *FCS_SETS], capsys)
        assert rc == 2 and out == "" and "invalid choice: 4" in err
        valid = ["fcs", "3", *FCS_SETS]
        assert call_main(valid, capsys)[:3] == fresh_process(valid)
        # channel 1, and channel 3 (the only column of U with a phase and a
        # summed rate) at non-unit, unequal rates
        channel3 = ["fcs", "3", "--set", "kappa1=0.3", "--set", "kappa2=1", "--set", "gamma1=0.7",
                    "--set", "gamma2=0.1", "--set", "phi=0.4", "--set", "nbar1=2", "--set", "nbar2=1",
                    "--set", "nbar3=0.5"]
        for argv in (["fcs", "1", *FCS_SETS], channel3):
            assert call_main(argv, capsys)[:3] == fresh_process(argv)

    @pytest.mark.parametrize("name", list(REPEATED_CALLS))
    def test_repeated_call_is_byte_identical(self, name, tmp_path, capsys):
        (tmp_path / "sweep.json").write_text(fig2_config(points=3))
        expected_rc, template = REPEATED_CALLS[name]
        argv = [arg.format(dir=tmp_path) for arg in template]
        out_path = tmp_path / "out.csv"
        first = call_main(argv, capsys, out_path)
        assert first[0] == expected_rc
        assert (first[3] is not None) == (name == "sweep --out")
        assert call_main(argv, capsys, out_path) == first


# argv that the parsers reject (exit code 2) or answer with help (0), and
# two valid calls: name -> (exit code, argv)
PARSER_CASES = {
    "fcs 4": (2, ["fcs", "4"]),
    "fcs 1 --bogus": (2, ["fcs", "1", "--bogus"]),
    "sweep --parallel": (2, ["sweep", "c.json", "--parallel"]),
    "unknown command": (2, ["nope"]),
    "no argv": (2, []),
    "--help": (0, ["--help"]),
    "fcs --help": (0, ["fcs", "--help"]),
    "fcs --s-points x": (2, ["fcs", "1", "--s-points", "x"]),
    "steady-state --set": (2, ["steady-state", "--set"]),
    "sweep": (2, ["sweep"]),
    "preset": (2, ["preset"]),
    "fcs 1 extra": (2, ["fcs", "1", "extra"]),
    "-h fcs": (0, ["-h", "fcs"]),
    "valid fcs": (0, ["fcs", "3", *FCS_SETS, "--s-points", "3"]),
    "valid steady-state": (0, ["steady-state", *FCS_SETS]),
}


class TestParserParity:
    """``main`` reads a command's arguments with that command's parser alone;
    it answers as the top-level parser does, byte for byte."""

    @staticmethod
    def top_level(argv, capsys):
        """(exit code, stdout, stderr) of ``build_parser().parse_args(argv)``
        and, where it parses, of the command it names."""
        try:
            args = build_parser().parse_args(argv)
            rc = args.func(args)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("name", list(PARSER_CASES))
    def test_main_answers_as_the_top_level_parser(self, name, capsys):
        expected_rc, argv = PARSER_CASES[name]
        expected = self.top_level(argv, capsys)
        assert expected[0] == expected_rc
        assert call_main(argv, capsys)[:3] == expected

    @pytest.mark.parametrize("name", ["fcs 1 --bogus", "valid fcs", "fcs 4", "unknown command",
                                      "no argv"])
    def test_no_argv_reads_sys_argv(self, name, monkeypatch, capsys):
        # in this process, and as the first call of a new interpreter, which
        # builds the parsers
        _, argv = PARSER_CASES[name]
        expected = self.top_level(argv, capsys)
        monkeypatch.setattr(sys, "argv", ["noisecascade", *argv])
        assert call_main(None, capsys)[:3] == expected
        assert fresh_process(argv, flags=("-W", "error::RuntimeWarning")) == expected


class TestParamCheck:
    """A config's params and the CLI's --set values go through one check, check_params."""

    @staticmethod
    def config_error(doc, tmp_path, capsys):
        """The SchemaError text of parse_config, which ``sweep`` prints with exit code 2."""
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        return str(exc.value)

    @staticmethod
    def set_error(argv, capsys):
        """The stderr of a CLI call that must exit 2 and print nothing to stdout."""
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        return err

    def test_required_field_missing(self, tmp_path, capsys):
        params = {k: v for k, v in THETA_SWEEP["params"].items() if k != "omega_m"}
        doc = dict(THETA_SWEEP, params=params)
        assert self.config_error(doc, tmp_path, capsys) == "params.omega_m: missing"
        # a swept field counts as given
        axes = [*THETA_SWEEP["axes"], {"variable": "omega_m", "min": 4.5, "max": 5.5, "points": 2}]
        cfg = parse_config(json.dumps(dict(doc, axes=axes)))
        assert len(run_sweep(cfg).status) == 6 * 6 * 2
        assert OM_SETS[:2] == ["--set", "omega_m=5"]
        for command in ("map-om", "design"):
            assert self.set_error([command, *OM_SETS[2:]], capsys) == "error: omega_m: missing\n"

    @pytest.mark.parametrize("command", ["steady-state", "fcs", "map-om", "design"])
    def test_unknown_set_name(self, command, capsys):
        model = "optomech" if command in ("map-om", "design") else "cascaded"
        sets = OM_SETS if model == "optomech" else FCS_SETS
        argv = [command, *(["1"] if command == "fcs" else []), *sets, "--set", "foo=1"]
        expected = f"error: foo: unknown parameter 'foo' for model {model}\n"
        assert self.set_error(argv, capsys) == expected

    @pytest.mark.parametrize("command", ["steady-state", "fcs", "map-om", "design"])
    def test_repeated_set_name(self, command, capsys):
        # a name set twice is refused, also with the same value, as a config
        # refuses a variable swept twice
        sets = OM_SETS if command in ("map-om", "design") else FCS_SETS
        assert "kappa1=1" in sets
        for value in ("5", "1"):
            argv = [command, *(["1"] if command == "fcs" else []), *sets, "--set", f"kappa1={value}"]
            assert self.set_error(argv, capsys) == "error: kappa1: set twice\n", argv

    def test_unknown_names_in_a_config(self, tmp_path, capsys):
        for variable in ("temperature", ["kappa1"]):
            doc = json.loads(fig2_config())
            doc["axes"][1]["variable"] = variable
            expected = f"axes[1].variable: unknown parameter {variable!r} for model cascaded"
            assert self.config_error(doc, tmp_path, capsys) == expected

    def test_bad_set_values(self, capsys):
        for argv, message in (
            (["design", *with_set(OM_SETS, "G1", "nan")], "G1: must be a finite number"),
            (["map-om", *with_set(OM_SETS, "gamma_m", "inf")], "gamma_m: must be a finite number"),
            (["map-om", *with_set(OM_SETS, "Nbar_m", "1e400")], "Nbar_m: must be a finite number"),
            (["fcs", "2", *with_set(FCS_SETS, "nbar1", "-inf")], "nbar1: must be a finite number"),
            (["steady-state", *with_set(FCS_SETS, "F", "1+nanj")],
             "F: must be a finite number or complex string"),
            (["fcs", "1", *with_set(FCS_SETS, "F", "abc")],
             "F: must be a finite number or complex string"),
            (["steady-state", *with_set(FCS_SETS, "phi", "x")], "phi: not a number: 'x'"),
            # signs are checked by check_params, and by OmParams.invalid() for library callers
            (["design", *with_set(OM_SETS, "kappa1", "-1")], "kappa1: must be non-negative"),
            (["map-om", *with_set(OM_SETS, "gamma_m", "0")], "gamma_m: must be positive"),
            # finite inputs whose mapping is not: G1^2 overflows, and times Im chi = 0 is NaN
            (["map-om", *with_set(OM_SETS, "G1", "1e200")], "omega1: must be finite"),
        ):
            assert self.set_error(argv, capsys) == f"error: {message}\n", argv

    def test_conflicts_read_alike_from_both_front_ends(self, tmp_path, capsys):
        for params, expected in (
            ({"omega1": 0.5, "Delta": 1.0, "omega2": 3.0},
             "{p}omega2: 'omega2' conflicts with {p}Delta; both set omega2"),
            ({"mbar1": 1.0, "nbar2": 1.0},
             "{p}nbar2: 'nbar2' conflicts with {p}mbar1; both set the bath occupations"),
        ):
            doc = {"model": "cascaded", "params": {"kappa1": 1.0, **params},
                   "axes": [{"variable": "kappa2", "min": 1.0, "max": 2.0, "points": 2}],
                   "outputs": ["n1"]}
            assert self.config_error(doc, tmp_path, capsys) == expected.format(p="params.")
            sets = [a for k, v in doc["params"].items() for a in ("--set", f"{k}={v}")]
            for command in (["steady-state"], ["fcs", "3"]):
                err = self.set_error([*command, *sets, "--set", "kappa2=1"], capsys)
                assert err == f"error: {expected.format(p='')}\n", command

    def test_mbar_conversion_names_its_field(self, tmp_path, capsys):
        message = "mbar1: mbar conversion gives Nbar1 = -20, Nbar2 = 120, Nbar3 = 120"
        assert self.set_error(NEGATIVE_MBAR_ARGV, capsys) == f"error: {message}\n"
        rc, out, err = fresh_process(NEGATIVE_MBAR_ARGV, flags=("-W", "error::RuntimeWarning"))
        assert (rc, out, err) == (2, "", f"error: {message}\n")
        doc = {"model": "cascaded",
               "params": {"kappa1": 1, "kappa2": 1, "gamma1": 1, "gamma2": 1, "mbar1": 50,
                          "mbar3": 120},
               "axes": [{"variable": "Delta", "min": 0, "max": 1, "points": 2}],
               "outputs": ["n1"]}
        assert self.config_error(doc, tmp_path, capsys) == f"params.{message}"

    def test_input_invalid_in_two_ways_reads_alike_from_both_front_ends(self, tmp_path, capsys):
        # the sign rule runs before the mbar conversion for --set values as
        # for a config's params, so both name kappa1 here
        om_params = {pair.partition("=")[0]: float(pair.partition("=")[2]) for pair in OM_SETS[1::2]}
        for command, model, params, message in (
            ("steady-state", "cascaded", {"kappa1": -1, "mbar1": 0, "mbar3": 1},
             "kappa1: must be non-negative"),
            ("map-om", "optomech", {**om_params, "gamma_m": 0}, "gamma_m: must be positive"),
        ):
            doc = {"model": model, "params": params, "outputs": ["n1"],
                   "axes": [{"variable": "phi", "min": 0, "max": 1, "points": 2}]}
            assert self.config_error(doc, tmp_path, capsys) == f"params.{message}"
            sets = [a for k, v in params.items() for a in ("--set", f"{k}={v}")]
            assert self.set_error([command, *sets], capsys) == f"error: {message}\n"

    def test_set_values_build_what_a_config_builds(self):
        sets = ["omega1=0.5", "Delta=1", "F=0.1-0.2j", "mbar1=2", "mbar3=1", "kappa1=1"]
        raw = cli._parse_sets("cascaded", sets)
        assert raw["F"] == "0.1-0.2j"  # a string until cascaded_from_raw, as in a config
        doc = {"model": "cascaded", "axes": [{"variable": "kappa2", "min": 1, "max": 1, "points": 1}],
               "outputs": ["n1"], "params": {"omega1": 0.5, "Delta": 1, "F": "0.1-0.2j",
                                             "mbar1": 2, "mbar3": 1, "kappa1": 1}}
        assert cascaded_from_raw(raw) == cascaded_from_raw(parse_config(json.dumps(doc)).params)


class TestZeroTemperature:
    def test_clamp_is_logged_not_warned(self, caplog):
        # the pytest filter makes a RuntimeWarning an error, as -W error::RuntimeWarning does
        cfg = parse_config(json.dumps(ZERO_TEMPERATURE_SWEEP))
        with caplog.at_level(logging.WARNING, logger="noisecascade"):
            result = run_sweep(cfg)
            assert (result.status == "ok").all() and np.isfinite(result.values).all()
            # every nbar is 0, so n and eta, linear in nbar, are exactly 0: nothing to clamp
            assert (result.values[:, 1:] == 0.0).all()
            assert not caplog.records
            # a weight that rounds below zero gives a sum below zero, which is
            # clamped, with a notice
            n1, n2 = occupations(np.array([[-(2.0**-53), 0.0, 0.0], [0.0, 0.0, 0.0]]), np.ones(3))
        assert n1 == 0.0 and n2 == 0.0
        notices = [r.getMessage() for r in caplog.records if r.name == "noisecascade"]
        assert notices == ["occupation n1 = -1.110e-16 clamped to 0"]

    def test_sweep_clamps_by_the_same_rule(self, caplog):
        # at F = 0 mode 1 does not see bath 2, so n1 = W_12 nbar2 is 0 at
        # nbar1 = nbar3 = 0; at these graded rates the solve's forward error
        # makes the computed W_12 about -2.0e-9
        point = {"kappa1": 3.401668370530468e-06, "kappa2": 497.5997933843718,
                 "gamma1": 1.5720362614624595e-05, "gamma2": 387.64141714077704,
                 "omega1": 0.6520024343978597, "omega2": -1.7275923356078065,
                 "phi": 6.080327158986618}
        doc = {"model": "cascaded", "params": point,
               "axes": [{"variable": "nbar2", "min": 1e-6, "max": 1e-5, "points": 4}],
               "outputs": ["n1", "n2"]}
        with caplog.at_level(logging.WARNING, logger="noisecascade"):
            result = run_sweep(parse_config(json.dumps(doc)))
        assert (result.status == "ok").all()
        notices = [r.getMessage() for r in caplog.records if r.name == "noisecascade"]
        assert notices, "no clamp at this grid: pick one whose n1 rounds below 0"
        for notice in notices:
            assert re.fullmatch(r"occupation n1 = -\d\.\d{3}e-1[4-7] clamped to 0", notice)
        n1 = result.values[:, 1]
        assert (n1 >= 0.0).all() and (n1 < 1e-15).all()

    def test_invalid_points_log_no_clamp(self, caplog):
        # nbar2 < 0 is invalid: those rows are blank and unsupported, and the
        # sum W nbar, which would be negative there, is not formed for them
        doc = {"model": "cascaded",
               "params": {"kappa1": 1, "kappa2": 1, "gamma1": 1, "gamma2": 1, "nbar1": 0},
               "axes": [{"variable": "nbar2", "min": -1, "max": 1, "points": 5}],
               "outputs": ["n1", "n2"]}
        cfg = parse_config(json.dumps(doc))
        with caplog.at_level(logging.WARNING, logger="noisecascade"):
            result = run_sweep(cfg)
        assert not caplog.records
        assert emit(result, cfg) == (b"nbar2,n1,n2,status\n-1,,,unsupported\n-0.5,,,unsupported\n"
                                     b"0,0,0,ok\n0.5,0,0.25,ok\n1,0,0.5,ok\n")
        json_cfg = dataclasses.replace(cfg, format="json")
        assert emit(result, json_cfg) == reference_emit(result, json_cfg)

    def test_cli_sweep_leaves_stderr_empty(self, tmp_path, monkeypatch):
        # logging is not configured in the CLI, so the notice reaches no handler
        path = tmp_path / "zero_temperature.json"
        path.write_text(json.dumps(ZERO_TEMPERATURE_SWEEP))
        monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        rc, out, err = fresh_process(["sweep", str(path)])
        assert (rc, err) == (0, "")
        assert out.count("\n") == 1 + 21 and out.count(",ok\n") == 21


class TestOverflowingInputs:
    """Finite inputs whose products overflow fail with one error line and no warning."""

    @pytest.mark.parametrize("argv, code, message", [
        (HUGE_F_ARGV, 3,
         "error: Lyapunov solve of the response to the bath occupations failed\n"),
        (HUGE_NBAR_ARGV, 3,
         "error: Lyapunov solve of the steady state or the channel's Gramian failed\n"),
        (HUGE_DAMPING_ARGV, 3,
         "error: Lyapunov solve of the response to the bath occupations failed\n"),
        (HUGE_DIAGONAL_FCS_ARGV, 3,
         "error: Lyapunov solve of the steady state or the channel's Gramian failed\n"),
        (HUGE_CUMULANT_ARGV, 3, "error: flow cumulant of order 2 is not finite\n"),
        (HUGE_S_SPAN_ARGV, 2, "error: --s-max - --s-min overflows the float range\n"),
        (OPPOSITE_FREQUENCIES_ARGV, 3,
         "error: Lyapunov solve of the response to the bath occupations failed\n"),
        (TINY_GAMMA_M_ARGV, 2, "error: gamma_m: susceptibility 1 / (gamma_m/2 - i (Omega - omega_m)) "
         "is not finite\n"),
        (HUGE_DESIGN_ARGV, 2, "error: G1, G2: design point J* = G1 G2 |chi(Omega)| is not finite\n"),
    ])
    def test_one_error_line_under_warnings_as_errors(self, argv, code, message):
        rc, out, err = fresh_process(argv, flags=("-W", "error::RuntimeWarning"))
        assert (rc, out) == (code, "")
        assert err.startswith(message) and err.endswith("\n") and err.count("\n") == 1, err

    def test_overflowing_axis_span_fails_at_parse_time(self, tmp_path):
        # linspace gave the axis values nan, inf, 1e308 and two unsupported rows
        with pytest.raises(SchemaError, match=r"^axes\[0\]: max - min overflows the float range$"):
            parse_config(json.dumps(HUGE_AXIS_SPAN))
        cfg_path = tmp_path / "span.json"
        cfg_path.write_text(json.dumps(HUGE_AXIS_SPAN))
        rc, out, err = fresh_process(["sweep", str(cfg_path)], flags=("-W", "error::RuntimeWarning"))
        assert (rc, out, err) == (2, "", "error: axes[0]: max - min overflows the float range\n")
        # log spacing and a finite linear span still parse
        doc = json.loads(json.dumps(HUGE_AXIS_SPAN))
        doc["axes"][0].update(min=1e-308, max=1e308, spacing="log")
        assert parse_config(json.dumps(doc)).axes[0].spacing == "log"
        doc["axes"][0].update(min=-8e307, max=8e307, spacing="linear")
        assert parse_config(json.dumps(doc)).axes[0].values().tolist() == [-8e307, 0.0, 8e307]

    def test_closed_form_at_large_equal_rates(self):
        # the closed form scales kappa, Delta and F by a power of two per point
        result = run_sweep(parse_config(json.dumps(LARGE_EQUAL_RATES_SWEEP)))
        assert result.status.tolist() == ["ok", "ok"]
        _, n1, n1_closed, _ = result.values.T
        np.testing.assert_allclose(n1_closed, n1, rtol=1e-12, atol=0.0)

    def test_overflowing_noise_term_is_valid(self):
        # only a field's own rule makes a point invalid: a noise term
        # (nbar_c + 1/2) rate_c past the float maximum puts inf into N, with no warning
        rates = dict(kappa1=1.0, kappa2=4.6, gamma1=0.67, gamma2=8.5)
        for p in (CascadedParams(**rates, nbar3=1e308), CascadedParams(kappa1=1.5e308, nbar1=1.0),
                  CascadedParams(kappa2=1e307, gamma2=1e307, nbar2=10.0, nbar3=10.0)):
            assert not p.invalid()
            N = build_system(p).N
            assert np.isinf(N).any() and not np.isnan(N).any()
        p = CascadedParams(**rates, nbar3=np.array([0.5, 1e308, 0.0]), nbar2=np.array([0, 0, 1e308]))
        assert p.invalid().tolist() == [False, False, False]
        # the rate gamma1 + gamma2 of channel 3 is stored as inf
        p = CascadedParams(gamma1=1e308, gamma2=1e308)
        assert not p.invalid() and build_system(p).rate[2] == np.inf

    def test_overflowing_noise_matrix_entry_gives_the_exact_occupations(self):
        # steady-state reads n from the response to unit sources and never forms N
        rc, out, err = fresh_process(HUGE_DIAGONAL_ARGV, flags=("-W", "error::RuntimeWarning"))
        assert (rc, err) == (0, "")
        sets = {k: float(v) for k, v in (a.split("=") for a in HUGE_DIAGONAL_ARGV[2::2])}
        system = build_system(CascadedParams(**sets))
        n1, n2 = exact_occupations(system.M, system.U, system.nbar)
        # mode 1 sits between two baths at nbar = 10; |u_c|^2 rounds away from
        # the rates, so the exact n1 of the double system is 10 to rounding
        assert abs(n1 - 10) <= Fraction(1e-15) and n2 == 0
        assert strict_json(out) == {"n1": 10.0, "n2": 0.0, "m1": 10.0, "m2": 0.0, "dn1": 0.0, "dn2": 0.0}

    def test_huge_rate_of_a_stable_drift(self):
        # the margin read 0 (unstable) and G held NaN, with two RuntimeWarnings
        rc, out, err = fresh_process(HUGE_GAMMA_ARGV, flags=("-W", "error::RuntimeWarning"))
        keys = ("n1", "n2", "m1", "m2", "dn1", "dn2")
        assert (rc, json.loads(out), err) == (0, dict.fromkeys(keys, 0.0), "")
        doc = {"model": "cascaded",
               "params": {"kappa1": 1.0, "kappa2": 1.0, "gamma2": 0.0, "nbar1": 1.0, "nbar2": 2.0},
               "axes": [{"variable": "gamma1", "min": 1e308, "max": 1e308, "points": 1}],
               "outputs": ["n1", "n2", "eta1", "eta2", "eta3", "stability_margin"]}
        result = run_sweep(parse_config(json.dumps(doc)))
        assert result.status.tolist() == ["ok"] and np.isfinite(result.values).all()
        assert result.values[0, -1] == -0.49999999999999994

    def test_collective_rates_whose_product_overflows(self):
        # sqrt(gamma1 gamma2) in M21 overflowed, so the drift held NaN: the
        # point exited 3 with "margin nan", and a sweep warned and wrote an
        # unstable row; the exact occupations are 1 (tests of linear_response)
        rc, out, err = fresh_process(PRODUCT_OVERFLOW_ARGV, flags=("-W", "error::RuntimeWarning"))
        assert (rc, err) == (0, "")
        doc = strict_json(out)
        assert list(doc.items()) == [("n1", 1.0), ("n2", 1.0), ("m1", 1.0), ("m2", 1.0),
                                     ("dn1", 0.0), ("dn2", 0.0)]
        params = {k: float(v) for k, v in (a.split("=") for a in PRODUCT_OVERFLOW_ARGV[2::2])}
        doc = {"model": "cascaded", "params": {k: v for k, v in params.items() if k != "gamma1"},
               "axes": [{"variable": "gamma1", "min": 1e200, "max": 1e200, "points": 1}],
               "outputs": ["n1", "n2", "stability_margin"]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_sweep(parse_config(json.dumps(doc)))
        assert result.status.tolist() == ["ok"] and result.values[0, 1:].tolist() == [1.0, 1.0, -5e199]

    def test_occupations_near_the_float_maximum(self):
        # the Lyapunov solve scales N to a max-norm in [1/2, 1), so X + X† stays
        # finite: a library call and the CLI, warnings as errors
        sets = dict(arg.split("=") for arg in MAX_NBAR_ARGV[2::2])
        p = CascadedParams(**{k: float(v) for k, v in sets.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sys = build_system(p)
            (Y, failed), (W, _, reason) = solve_lyapunov(sys.M, sys.N), linear_response(sys)
        assert not failed and reason == 0 and np.isfinite(Y).all() and np.isfinite(W).all()
        rc, out, err = fresh_process(MAX_NBAR_ARGV, flags=("-W", "error::RuntimeWarning"))
        assert (rc, err) == (0, "")
        doc = strict_json(out)
        assert list(doc) == ["n1", "n2", "m1", "m2", "dn1", "dn2"]
        assert doc["n1"] == 1.7976931348623153e308 and doc["m1"] == 1.7976931348623155e308

    def test_occupation_sum_past_the_float_maximum(self):
        # n2 is inf: null in steady-state and a blank cell in a sweep, as a
        # baseline without a rate, with no warning
        rc, out, err = fresh_process(OVERFLOWING_SUM_ARGV, flags=("-W", "error::RuntimeWarning"))
        assert (rc, err) == (0, "")
        doc = strict_json(out)
        assert list(doc) == ["n1", "n2", "m1", "m2", "dn1", "dn2"]
        assert doc["n1"] == float(FLOAT_MAX) and doc["n2"] is None and doc["dn2"] is None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = parse_config(json.dumps(OVERFLOWING_SUM_SWEEP))
            result = run_sweep(cfg)
        assert result.status.tolist() == ["unsupported"]
        assert result.values[0, 2] == np.inf  # n2
        assert np.isfinite(result.values[0]).tolist() == [True, True, False, True, True]
        assert result.values[0, 1] == doc["n1"]
        (row,) = csv.DictReader(io.StringIO(emit(result, cfg).decode()))
        assert (row["n2"], row["status"]) == ("", "unsupported")

    @pytest.mark.parametrize("sets, expected", [
        # mode 2 has no rate, so the drift is unstable; its response, solved
        # with the sources of kappa1, once overflowed G
        (["kappa1=1e200"], "error: drift is not stable (margin 0.000e+00)\n"),
        # two modes apart, each at its own bath: 8 |rho - disc| overflowed in the margin
        (["kappa1=1e308", "kappa2=1e308", "nbar1=1"], [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        # the rate gamma1 + gamma2 of channel 3 overflows: rate_3 * 0 put NaN into G;
        # each exact occupation is 1 - 1e-308 to rounding
        (["kappa1=1", "kappa2=1", "gamma1=1e308", "gamma2=1e308", "nbar3=1"], [1.0] * 4 + [0.0] * 2),
        # mode 2 between two baths at the float maximum: n2 and m2 round past
        # it (the exact values are the maximum), and dn2 was inf - inf
        (["kappa1=1", "kappa2=0.1", "gamma2=0.01", f"nbar2={FLOAT_MAX}", f"nbar3={FLOAT_MAX}"],
         [0.0, None, 0.0, None, 0.0, None]),
    ], ids=["unstable_large_rate", "large_rates", "collective_rate_overflow", "infinite_dn"])
    def test_no_warning_at_the_float_range_edges(self, capsys, sets, expected):
        rc = main(["steady-state"] + [arg for value in sets for arg in ("--set", value)])
        out, err = capsys.readouterr()
        if isinstance(expected, str):
            assert (rc, out, err) == (3, "", expected)
        else:
            keys = ("n1", "n2", "m1", "m2", "dn1", "dn2")
            assert (rc, err) == (0, "") and strict_json(out) == dict(zip(keys, expected))

    def test_modulus_of_f_past_the_float_maximum_is_blank(self):
        # |F| overflowed in np.hypot with a warning; the margin is exact:
        # both eigenvalues have the real part of the mean diagonal, -(1e308 + 1) / 4
        doc = {"model": "cascaded",
               "params": {"kappa1": 1.0, "kappa2": 1.0, "gamma2": 1e308,
                          "F": "1.7976931348623157e308+1e307j"},
               "axes": [{"variable": "nbar1", "min": 0.0, "max": 1.0, "points": 2}],
               "outputs": ["F_residual", "stability_margin"]}
        result = run_sweep(parse_config(json.dumps(doc)))
        assert np.isinf(result.values[:, 1]).all() and (result.values[:, 2] == -2.5e307).all()
        assert result.status.tolist() == ["unsupported"] * 2

    def test_overflowing_damping_is_valid(self):
        # kappa_i + gamma_i overflows; the damping kappa_i/2 + gamma_i/2 and the
        # baseline's weights, taken from the halved rates, do not
        for i in (1, 2):
            p = CascadedParams(**{f"kappa{i}": 1e308, f"gamma{i}": 1e308, f"nbar{i}": 2.0}, nbar3=4.0)
            assert not p.invalid()
            assert build_system(p).M[i - 1, i - 1] == -1e308
            # m_i = (kappa_i nbar_i + gamma_i nbar3) / (kappa_i + gamma_i), exactly
            assert disconnected_baseline(p)[i - 1] == 3.0
        mode1, mode2 = np.array([1.0, 1e308, 1.0]), np.array([1.0, 1.0, 1e308])
        p = CascadedParams(kappa1=mode1, gamma1=mode1, kappa2=mode2, gamma2=mode2)
        assert not p.invalid().any()

    def test_overflowing_damping_gives_unsupported_rows(self):
        # the point of HUGE_DAMPING_ARGV as a one-point sweep: valid and stable,
        # but its response solve fails (n1, eta1); the baseline and the margin
        # are exact: m1 = 0 (every nbar is 0), and the margin is -1/2 to rounding
        doc = {"model": "cascaded",
               "params": {"gamma1": 1e308, "kappa2": 1.0},
               "axes": [{"variable": "kappa1", "min": 1e308, "max": 1e308, "points": 1}],
               "outputs": ["n1", "eta1", "m1", "stability_margin", "F_residual"]}
        result = run_sweep(parse_config(json.dumps(doc)))
        assert result.status.tolist() == ["unsupported"]
        _, n1, eta1, m1, margin, f_residual = result.values[0]
        assert np.isnan([n1, eta1]).all() and (m1, f_residual) == (0.0, 0.0)
        assert margin == pytest.approx(-0.5, rel=1e-15, abs=0.0)

    def test_overflowing_noise_term_gives_unsupported_rows(self):
        # valid at nbar3 = 1e308: n1 is exact to rounding; the flow of channel 3,
        # -2 (kappa1 n1 + kappa2 n2) by the flows' zero sum, is past the float
        # maximum, so eta3 is blank
        rates = {"kappa1": 1.0, "kappa2": 4.6, "gamma1": 0.67, "gamma2": 8.5}
        doc = {"model": "cascaded", "params": rates,
               "axes": [{"variable": "nbar3", "min": 0.5, "max": 1e308, "points": 2}],
               "outputs": ["n1", "eta3"]}
        result = run_sweep(parse_config(json.dumps(doc)))
        assert result.status.tolist() == ["ok", "unsupported"]
        assert np.isfinite(result.values[0]).all() and np.isinf(result.values[1, 2])
        system = build_system(CascadedParams(**rates, nbar3=1e308))
        n1, n2 = exact_occupations(system.M, system.U, system.nbar)
        assert abs(Fraction(result.values[1, 1]) - n1) <= Fraction(1e-15) * n1
        assert 2 * (Fraction(rates["kappa1"]) * n1 + Fraction(rates["kappa2"]) * n2) > sys.float_info.max


class TestOneOccupationFormula:
    """``steady-state`` and a sweep form its six keys alike, blank cells included."""

    KEYS = ("n1", "n2", "m1", "m2", "dn1", "dn2")

    def test_steady_state_equals_a_one_point_sweep(self, capsys):
        # two formulas for the same occupations, such as Y_ii - 1/2 and
        # nbar3 + W (nbar - nbar3), differ in the last bits at most points;
        # every fourth point has a mode without a rate (kappa_i = gamma_i = 0)
        rng = np.random.default_rng(5)
        compared, undamped = 0, 0
        for k in range(240):
            rates = 10.0 ** rng.uniform(-12.0, 2.0, 4)
            if k % 4 == 3:
                mode = rng.integers(2)
                rates[[mode, mode + 2]] = 0.0
            nbar = 10.0 ** rng.uniform(-3.0, 6.0, 3) * (rng.uniform(size=3) >= 0.3)
            F = rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            params = dict(zip(("kappa1", "kappa2", "gamma1", "gamma2"), rates.tolist()),
                          omega2=rng.uniform(-5.0, 5.0), phi=rng.uniform(0.0, 2.0 * np.pi),
                          F=str(complex(F)), nbar1=nbar[0], nbar2=nbar[1], nbar3=nbar[2])
            params = {k: v if k == "F" else float(v) for k, v in params.items()}
            argv = ["steady-state"] + [a for k, v in params.items() for a in ("--set", f"{k}={v}")]
            rc = main(argv)
            out, _ = capsys.readouterr()
            omega2 = params.pop("omega2")
            doc = {"model": "cascaded", "params": params, "outputs": list(self.KEYS),
                   "axes": [{"variable": "omega2", "min": omega2, "max": omega2, "points": 1}],
                   "format": "json"}
            cfg = parse_config(json.dumps(doc))
            (row,) = strict_json(emit(run_sweep(cfg), cfg))
            # a point fails (exit 3) exactly where its sweep row has no occupations
            assert (rc == 0) == (row["n1"] is not None), argv
            if rc == 0:
                point = json.loads(out)
                assert list(point) == list(self.KEYS), argv
                for key in self.KEYS:
                    assert (point[key] is None) == (row[key] is None), (argv, key)
                    if row[key] is not None:
                        assert point[key].hex() == row[key].hex(), (argv, key)
                compared += 1
                undamped += row["m1"] is None or row["m2"] is None
        assert compared >= 200 and undamped >= 30
