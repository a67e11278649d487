"""
The benchmark's three workloads: seeded inputs, warm-up, one timed pass of
``noisecascade.cli.main`` calls, and the output checks.

Every workload is one process and a closed loop with one caller: the next
call starts when the previous one has returned.  A pass is a fixed list of
calls; the timed phase repeats passes.  Checks run on the outputs of the
first pass (the reference) outside the timed phase; every later pass must
reproduce the reference byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from collections import Counter

import numpy as np

import oracle

WHY = {
    "sweep-grid": "README 101x101 cascaded sweep, serial, CSV: build_system, 16x16 Lyapunov, "
                  "trace-formula flows and emission per point; no Riccati solves",
    "sweep-theta-om": "21x21 optomech sweep with theta on an s_grid, process pool, JSON: Riccati "
                      "continuation, optomech mapping, pool dispatch, mixed row statuses",
    "fcs-points": "repeated single-point fcs calls on random stable cascaded systems, channels "
                  "1-2-3: small-s Riccati, finite-difference cumulants, argparse; no sweep work",
}

FCS_SYSTEMS = 36  # fcs calls in one pass, 12 per channel


@dataclasses.dataclass
class Check:
    """Outcome of the output checks on one pass."""

    failed: set[int]          # indices of items (grid points or fcs calls) that failed
    counters: dict[str, float]


def theta_pair_counts(thetas: dict[float, float | None]) -> tuple[int, int]:
    """(pairs with theta(s) + theta(-s) < 0, pairs evaluated) on a symmetric s grid.

    The grid is paired by position (first with last, ...), because linspace
    values of +s and -s can differ in the last bit.
    """
    grid = sorted(thetas)
    negative = pairs = 0
    for k in range(len(grid) // 2):
        lo, hi = grid[k], grid[-1 - k]
        if not math.isclose(lo, -hi, rel_tol=1e-9):
            continue
        if thetas[lo] is None or thetas[hi] is None:
            continue
        pairs += 1
        negative += thetas[lo] + thetas[hi] < 0.0
    return negative, pairs


class SweepWorkload:
    """One ``noisecascade sweep`` call per pass; an item is one grid point."""

    name = ""
    output_bytes = 0

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.config = self.make_config(np.random.default_rng(seed) if seed else None)
        self.out_path = os.path.join(workdir, f"{self.name}.out")
        self.config_path = self._write_config("config.json", self.config)
        small = dict(self.config, axes=[dict(ax, points=3) for ax in self.config["axes"]])
        self.warm_up_path = self._write_config("warm_up.json", small)
        self.items_per_pass = math.prod(ax["points"] for ax in self.config["axes"])

    def make_config(self, rng) -> dict:
        raise NotImplementedError

    def _write_config(self, filename: str, config: dict) -> str:
        path = os.path.join(self.workdir, f"{self.name}.{filename}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def calls(self) -> list[list[str]]:
        return [["sweep", self.config_path, "--out", self.out_path]]

    def warm_up_calls(self) -> list[list[str]]:
        return [["sweep", self.warm_up_path, "--out", self.out_path]]

    def items(self, results: list[tuple[int | None, str]]) -> list:
        """Per-grid-point records of one pass (None where the call failed)."""
        rc, _ = results[0]
        if rc != 0 or not os.path.exists(self.out_path):
            return [None] * self.items_per_pass
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        os.remove(self.out_path)
        self.output_bytes = len(data)
        try:
            rows = self.parse(data)
        except (ValueError, IndexError):  # malformed output fails every item
            rows = []
        rows += [None] * (self.items_per_pass - len(rows))
        return rows[: self.items_per_pass]

    def parse(self, data: bytes) -> list:
        raise NotImplementedError

    def grid(self) -> list[tuple[float, ...]]:
        axes = [np.linspace(ax["min"], ax["max"], ax["points"]) for ax in self.config["axes"]]
        points: list[tuple[float, ...]] = [()]
        for values in axes:
            points = [pt + (float(v),) for pt in points for v in values]
        return points


class SweepGrid(SweepWorkload):
    """README cascaded sweep: Delta x mbar3 at 101 x 101, serial, CSV."""

    name = "sweep-grid"
    OUTPUTS = ["n1", "n2", "dn1", "dn2", "n1_closed", "n2_closed", "eta1", "eta2", "eta3"]

    def make_config(self, rng) -> dict:
        # seed 0 is the README config; other seeds raise the baselines by whole
        # numbers, which keeps every Nbar >= 0 (all 10201 points valid) and the
        # CSV about as long as at seed 0
        mbar1 = 50 if rng is None else int(rng.integers(50, 61))
        mbar2 = 100 if rng is None else int(rng.integers(100, 121))
        return {
            "model": "cascaded",
            "params": {"phi": 0.0, "mbar1": mbar1, "mbar2": mbar2, "F": 0.0,
                       "kappa1": 1.0, "kappa2": 1.0, "gamma1": 1.0, "gamma2": 1.0},
            "axes": [{"variable": "Delta", "min": -10, "max": 10, "points": 101},
                     {"variable": "mbar3", "min": 0, "max": 100, "points": 101}],
            "outputs": self.OUTPUTS,
            "format": "csv",
        }

    def parse(self, data: bytes) -> list:
        lines = data.decode().splitlines()
        return lines[1:]

    def check(self, items: list) -> Check:
        prm = self.config["params"]
        cols = ["Delta", "mbar3"] + self.OUTPUTS + ["status"]
        rows = [dict(zip(cols, next(csv.reader([line])))) if line is not None else None
                for line in items]
        points = []
        for delta, mbar3 in self.grid():
            points.append({
                "omega2": delta, "kappa1": prm["kappa1"], "kappa2": prm["kappa2"],
                "gamma1": prm["gamma1"], "gamma2": prm["gamma2"], "phi": prm["phi"],
                "nbar1": 2.0 * prm["mbar1"] - mbar3, "nbar2": 2.0 * prm["mbar2"] - mbar3,
                "nbar3": mbar3, "mbar3": mbar3,
            })
        ref = oracle.solve(oracle.params_arrays(points))
        failed = set()
        for i, (row, pt) in enumerate(zip(rows, points)):
            scale = max(pt["nbar1"], pt["nbar2"], pt["nbar3"])
            try:
                got = {k: float(row[k]) for k in self.OUTPUTS}
                ok = (
                    row["status"] == "ok"
                    and float(row["Delta"]) == pt["omega2"]
                    and float(row["mbar3"]) == pt["mbar3"]
                    and all(oracle.close(got[k], ref[k][i], scale)
                            for k in ("n1", "n2", "eta1", "eta2", "eta3"))
                    and oracle.close(got["n1_closed"], ref["n1"][i], scale)
                    and oracle.close(got["n2_closed"], ref["n2"][i], scale)
                    and oracle.close(got["dn1"], ref["n1"][i] - prm["mbar1"], scale)
                    and oracle.close(got["dn2"], ref["n2"][i] - prm["mbar2"], scale)
                    and oracle.close(got["eta1"] + got["eta2"] + got["eta3"], 0.0, scale)
                )
            except (TypeError, KeyError, ValueError):
                ok = False
            if not ok:
                failed.add(i)
        statuses = Counter(row["status"] if row else "missing" for row in rows)
        return Check(failed, _row_counters(statuses) | {
            "sweeps.emit.bytes": self.output_bytes,
            "counting.theta_even_negative": 0, "counting.theta_even_pairs": 0})


class SweepThetaOm(SweepWorkload):
    """Optomech sweep J x G2 at 21 x 21 with theta on an s_grid, pooled, JSON."""

    name = "sweep-theta-om"
    S_GRID = [-0.3, -0.1, 0.1, 0.3]
    OUTPUTS = ["n1", "n2", "eta1", "eta2", "eta3", "stability_margin", "F_residual", "theta"]

    def __init__(self, seed: int, workdir: str, parallel: bool = True):
        self.parallel = parallel
        super().__init__(seed, workdir)

    def make_config(self, rng) -> dict:
        def jitter(x: float, r: float) -> float:
            # other seeds move the bath occupations and G1 by a few percent, which
            # changes the Lyapunov solve count by under 1%
            return x if rng is None else x * float(rng.uniform(1 - r, 1 + r))

        return {
            "model": "optomech",
            "params": {"omega_m": 5.0, "gamma_m": 0.4, "Delta1": 5.0, "Delta2": 5.0,
                       "kappa1": 1.0, "kappa2": 1.0, "G1": jitter(0.3, 0.02),
                       "phi": math.pi / 2, "Nbar1": jitter(2.0, 0.03),
                       "Nbar2": jitter(4.0, 0.03), "Nbar_m": jitter(1.0, 0.03)},
            "axes": [{"variable": "J", "min": 0, "max": 1, "points": 21},
                     {"variable": "G2", "min": 0, "max": 1.5, "points": 21}],
            "outputs": self.OUTPUTS,
            "s_grid": self.S_GRID,
            "format": "json",
            "parallel": self.parallel,
        }

    def parse(self, data: bytes) -> list:
        """The raw text of each record of the JSON array, so reruns compare byte for byte."""
        text, decoder, records = data.decode(), json.JSONDecoder(), []
        pos = text.index("[") + 1
        while True:
            while text[pos] in " \n,":
                pos += 1
            if text[pos] == "]":
                return records
            _, end = decoder.raw_decode(text, pos)
            records.append(text[pos:end])
            pos = end

    def check(self, items: list) -> Check:
        from noisecascade.optomech import OmParams, map_to_cascaded

        items = [json.loads(item) if item is not None else None for item in items]

        points = []
        for j, g2 in self.grid():
            mapped = map_to_cascaded(OmParams(**dict(self.config["params"], J=j, G2=g2)))
            points.append(dataclasses.asdict(mapped))
        ref = oracle.solve(oracle.params_arrays(points))
        failed, negative, pairs = set(), 0, 0
        theta_cols = [f"theta@{s:g}" for s in self.S_GRID]
        for i, (row, pt) in enumerate(zip(items, points)):
            scale = max(pt["nbar1"], pt["nbar2"], pt["nbar3"])
            try:
                thetas = {s: row[c] for s, c in zip(self.S_GRID, theta_cols)}
                stable = ref["margin"][i] < 0.0
                expected_status = ("unstable" if not stable
                                   else "unsupported" if None in thetas.values() else "ok")
                ok = (
                    row["status"] == expected_status
                    and oracle.close(row["stability_margin"], ref["margin"][i], 1.0)
                    and oracle.close(row["F_residual"], abs(pt["F"]), 1.0)
                    and (not stable or all(oracle.close(row[k], ref[k][i], scale)
                                           for k in ("n1", "n2", "eta1", "eta2", "eta3")))
                    and all(v is None or math.isfinite(v) for v in thetas.values())
                )
            except (TypeError, KeyError):
                ok = False
            if not ok:
                failed.add(i)
                continue
            neg, n = theta_pair_counts(thetas)
            negative, pairs = negative + neg, pairs + n
        statuses = Counter(row["status"] if row else "missing" for row in items)
        return Check(failed, _row_counters(statuses) | {
            "sweeps.emit.bytes": self.output_bytes,
            "counting.theta_even_negative": negative, "counting.theta_even_pairs": pairs})


class FcsPoints:
    """Single-point ``noisecascade fcs`` calls; an item is one call."""

    name = "fcs-points"
    S_ARGS = ["--s-min=-0.1", "--s-max=0.1", "--s-points=11"]

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.systems: list[dict] = []
        while len(self.systems) < FCS_SYSTEMS:
            p = {k: float(rng.uniform(0.5, 2.0)) for k in ("kappa1", "kappa2", "gamma1", "gamma2")}
            p.update({k: float(rng.uniform(0.0, 3.0)) for k in ("nbar1", "nbar2", "nbar3")})
            p["omega2"] = float(rng.uniform(-3.0, 3.0))
            p["phi"] = float(rng.uniform(0.0, 2.0 * math.pi))
            p["F"] = complex(float(rng.uniform(0.0, 0.5)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            if oracle.solve(oracle.params_arrays([p]))["margin"][0] < 0.0:
                self.systems.append(p)
        self.items_per_pass = FCS_SYSTEMS
        self._calls = [self._argv(i % 3 + 1, p) for i, p in enumerate(self.systems)]

    def _argv(self, channel: int, p: dict) -> list[str]:
        sets = [f"{k}={p[k]!r}" for k in ("kappa1", "kappa2", "gamma1", "gamma2",
                                          "nbar1", "nbar2", "nbar3", "phi")]
        sets.append(f"Delta={p['omega2']!r}")
        sets.append(f"F={p['F']!r}".replace("(", "").replace(")", ""))
        return ["fcs", str(channel)] + [a for s in sets for a in ("--set", s)] + self.S_ARGS

    def calls(self) -> list[list[str]]:
        return self._calls

    def warm_up_calls(self) -> list[list[str]]:
        return self._calls[:3]

    def items(self, results: list[tuple[int | None, str]]) -> list:
        return [out if rc == 0 else None for rc, out in results]

    def check(self, items: list) -> Check:
        ref = oracle.solve(oracle.params_arrays(self.systems))
        failed, negative, pairs = set(), 0, 0
        for i, out in enumerate(items):
            channel = i % 3 + 1
            scale = max(self.systems[i][k] for k in ("nbar1", "nbar2", "nbar3"))
            try:
                doc = json.loads(out)
                thetas = {x["s"]: x["theta"] for x in doc["theta"]}
                eta = doc["eta1_trace"]
                ok = (
                    doc["channel"] == channel
                    and len(thetas) == 11
                    and thetas.get(0.0) == 0.0
                    and all(math.isfinite(v) for v in thetas.values())
                    and oracle.close(eta, ref[f"eta{channel}"][i], scale)
                    and oracle.close(doc["cumulants"]["1"], eta, scale, rtol=1e-6)
                )
            except (TypeError, KeyError, ValueError):
                ok = False
            if not ok:
                failed.add(i)
                continue
            neg, n = theta_pair_counts(thetas)
            negative, pairs = negative + neg, pairs + n
        return Check(failed, _row_counters(Counter()) | {
            "sweeps.emit.bytes": 0, "counting.theta_even_negative": negative, "counting.theta_even_pairs": pairs})


def _row_counters(statuses: Counter) -> dict[str, float]:
    return {f"sweeps.rows.{s}": statuses.get(s, 0) for s in ("ok", "unstable", "unsupported")}


WORKLOADS = {w.name: w for w in (SweepGrid, SweepThetaOm, FcsPoints)}
