"""Sweep configuration, execution, emission, and the CLI front end."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from noisecascade import sweeps
from noisecascade.cascaded import (
    InvalidParamsError,
    UnsupportedParamsError,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    occupations,
)
from noisecascade.cli import main
from noisecascade.counting import (
    OutsideAdmissibleRegionError,
    ZeroRateChannelError,
    flow_first_moment,
    large_deviation,
)
from noisecascade.linalg import SingularSystemError, solve_lyapunov, stability_margin
from noisecascade.optomech import OmParams, map_to_cascaded
from noisecascade.sweeps import (
    NegativeOccupationError,
    SchemaError,
    SweepResult,
    cascaded_from_raw,
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
    # kappa1 = gamma1 = 0 is unstable; unequal rates blank m1, m2; all four equal is ok
    "axes": [{"variable": "kappa1", "min": 0.0, "max": 1.0, "points": 2},
             {"variable": "gamma1", "min": 0.0, "max": 1.0, "points": 2}],
    "outputs": ["m1", "stability_margin", "F_residual", "m2"],
}

GOLDEN_CSV = """\
kappa1,gamma1,m1,stability_margin,F_residual,m2,status
0,0,,0,0,,unstable
0,1,,-0.5,0,,unsupported
1,0,,-0.5,0,,unsupported
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
    "m1": null,
    "stability_margin": -0.5,
    "F_residual": 0.0,
    "m2": null,
    "status": "unsupported"
  },
  {
    "kappa1": 1.0,
    "gamma1": 0.0,
    "m1": null,
    "stability_margin": -0.5,
    "F_residual": 0.0,
    "m2": null,
    "status": "unsupported"
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
        with pytest.raises(NegativeOccupationError):
            convert_mbar({"mbar1": 50.0, "mbar2": 100.0, "mbar3": 120.0})

    def test_mixing_with_nbar_rejected(self):
        with pytest.raises(SchemaError):
            convert_mbar({"mbar1": 1.0, "nbar2": 1.0})

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

    def test_negative_baseline_occupation(self):
        doc = json.loads(fig2_config())
        doc["params"]["mbar3"] = 120.0
        del doc["axes"][1]
        with pytest.raises(NegativeOccupationError):
            parse_config(json.dumps(doc))

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

    def test_theta_requires_s_grid(self):
        doc = json.loads(fig2_config())
        doc["outputs"] = ["theta"]
        with pytest.raises(SchemaError, match="s_grid"):
            parse_config(json.dumps(doc))


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
        assert result.valid[0, 2] and result.values[0, 2] == pytest.approx(25.0, abs=1e-9)

    def test_fig2_sign_structure(self):
        cfg = parse_config(fig2_config(points=11))
        result = run_sweep(cfg)
        _, m3, dn1, dn2 = result.values.T
        assert (result.status == "ok").all() and result.valid.all()
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
        assert result.valid[0].tolist() == [True, False, False]
        assert result.status[1] == "ok"

    def test_unsupported_baseline_flagged(self):
        doc = {
            "model": "cascaded",
            "params": {"kappa1": 1.0, "kappa2": 2.0, "gamma1": 1.0, "gamma2": 1.0},
            "axes": [{"variable": "nbar1", "min": 0.0, "max": 1.0, "points": 2}],
            "outputs": ["n1", "dn2"],
        }
        result = run_sweep(parse_config(json.dumps(doc)))
        assert (result.status == "unsupported").all()
        assert result.valid[:, 1].all()  # plain occupation still fine
        assert not result.valid[:, 2].any()

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
        assert result.valid[:, 4].all() and (result.values[:, 4] < 0).all()

    def test_zero_rate_channel_blanks_its_cells(self):
        doc = {
            "model": "cascaded",
            "params": {"kappa2": 1.0, "gamma1": 1.0, "gamma2": 1.0,
                       "nbar1": 1.0, "nbar2": 0.5, "nbar3": 2.0},
            "axes": [{"variable": "kappa1", "min": 0.0, "max": 1.0, "points": 3}],
            "outputs": ["n1", "eta1", "eta3", "theta"],
            "s_grid": [0.1],
        }
        result = run_sweep(parse_config(json.dumps(doc)))
        assert result.status[0] == "unsupported"
        assert result.valid[0].tolist() == [True, True, False, True, False]
        assert (result.status[1:] == "ok").all() and result.valid[1:].all()

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
        _, n1, eta1, margin, theta0 = result.valid.T
        assert not n1.all()
        assert margin.all() and theta0.all()
        assert result.values[:, 3] == pytest.approx(-0.0961, abs=1e-4)
        assert (result.values[:, 4] == 0.0).all()
        assert (n1 == eta1).all() and (~n1 == (result.status == "unsupported")).all()
        assert set(result.status.tolist()) <= {"ok", "unsupported"}


def reference_row(cfg, axis_values):
    """One row from single-point library calls, by the per-point status rules."""
    n_out = len(column_names(cfg)) - len(cfg.axes) - 1
    raw = dict(cfg.params)
    raw.update(zip((ax.variable for ax in cfg.axes), axis_values))
    try:
        p = cascaded_from_raw(raw) if cfg.model == "cascaded" else map_to_cascaded(OmParams(**raw))
    except (NegativeOccupationError, InvalidParamsError, UnsupportedParamsError):
        return (None,) * n_out, "unsupported"
    sys = build_system(p)
    margin = stability_margin(sys.M)
    stable = margin < 0.0
    try:
        V = solve_lyapunov(sys.M, sys.N) if stable else None
    except SingularSystemError:
        V = None

    def cell(name):
        if name == "stability_margin":
            return [margin]
        if name == "F_residual":
            return [abs(complex(p.F))]
        if not stable:
            return [None] * (len(cfg.s_grid) if name == "theta" else 1)
        if name == "theta":
            out = []
            for s in cfg.s_grid:
                try:
                    out.append(large_deviation(1, s, sys, V))
                except (OutsideAdmissibleRegionError, ZeroRateChannelError):
                    out.append(None)
            return out
        try:
            if name.startswith("eta"):
                return [None if V is None else flow_first_moment(int(name[-1]), sys, V)]
            if name.endswith("_closed"):
                return [closed_form_occupations(p)[int(name[1]) - 1]]
            i = int(name[-1]) - 1
            n = None if V is None else occupations(V)[i]
            if name[0] == "n":
                return [n]
            m = disconnected_baseline(p)[i]
            return [m if name[0] == "m" else None if n is None else n - m]
        except (UnsupportedParamsError, ZeroRateChannelError):
            return [None]

    cells = tuple(v for name in cfg.outputs for v in cell(name))
    status = "unstable" if not stable else "unsupported" if None in cells else "ok"
    return cells, status


class TestStackedSweep:
    def test_rows_match_single_point_results(self, monkeypatch):
        monkeypatch.setattr(sweeps, "BLOCK_POINTS", 8)
        doc = {
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
        cfg = parse_config(json.dumps(doc))
        result = run_sweep(cfg)
        assert len(result.status) == 20 > 2 * sweeps.BLOCK_POINTS
        n_axes = len(cfg.axes)
        cols = column_names(cfg)[n_axes:-1]
        margin = cols.index("stability_margin")
        points = list(itertools.product(*(ax.values().tolist() for ax in cfg.axes)))
        assert len(points) == len(result.status)
        blanks = set()
        rows = zip(points, result.values.tolist(), result.valid.tolist(), result.status.tolist())
        for pt, values, valid, status in rows:
            ref_cells, ref_status = reference_row(cfg, pt)
            assert tuple(values[:n_axes]) == pt and all(valid[:n_axes])
            assert status == ref_status
            outputs = [v if ok else None for v, ok in zip(values[n_axes:], valid[n_axes:])]
            for name, got, ref in zip(cols, outputs, ref_cells):
                assert (got is None) == (ref is None), (pt, name)
                if ref is not None:
                    assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (pt, name)
                elif status == "unsupported" and outputs[margin] is not None:
                    blanks.add(name)
        assert set(result.status.tolist()) == {"ok", "unstable", "unsupported"}
        assert (~result.valid[:, n_axes:]).all(axis=1).any()  # negative Nbar2
        # unequal rates, a zero-rate channel and an inadmissible s all occur
        assert {"dn1", "eta1", "theta@0.6"} <= blanks


class TestEmit:
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
        assert len(records) == 9 and result.valid.all()
        for values, status, rec in zip(result.values.tolist(), result.status.tolist(), records):
            assert rec["dn2"] == values[3]
            assert rec["status"] == status

    def test_deterministic_across_parallel_modes(self):
        cfg = parse_config(fig2_config(points=4))
        serial = emit(run_sweep(cfg), cfg)
        parallel = emit(
            run_sweep(dataclasses.replace(cfg, parallel=True)), cfg
        )
        assert serial == parallel

    def test_golden_emission(self):
        for fmt, expected in (("csv", GOLDEN_CSV), ("json", GOLDEN_JSON)):
            cfg = parse_config(json.dumps(dict(GOLDEN_CONFIG, format=fmt)))
            assert emit(run_sweep(cfg), cfg).decode() == expected, fmt

    def test_empty_rows_rejected(self):
        cfg = parse_config(fig2_config())
        empty = SweepResult(np.empty((0, 5)), np.empty((0, 5), bool), np.empty(0, str))
        with pytest.raises(ValueError):
            emit(empty, cfg)


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

    def test_config_error_exit_code(self, capsys):
        rc = main(["steady-state", "--set", "kappa1=-1"])
        assert rc == 2

    def test_numerical_error_exit_code(self, capsys):
        for argv in (
            ["--set", "kappa1=0", "--set", "kappa2=0", "--set", "gamma1=0",
             "--set", "gamma2=0"],
            # unequal rates (no baseline) and an unstable drift
            ["--set", "omega1=1", "--set", "omega2=1", "--set", "kappa1=1"],
            # stable, but the Lyapunov solve fails its residual check
            LYAPUNOV_FAILURE_ARGS,
        ):
            assert main(["steady-state", *argv]) == 3
            assert capsys.readouterr().err.startswith("error: ")
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
        rc = main(["sweep", str(cfg_path), "--out", str(out_path), "--parallel"])
        assert rc == 0
        assert out_path.read_bytes() == content

    def test_sweep_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["sweep", str(cfg_path)]) == 2

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
