"""Acceptance gate: the ten headline checks, one test (and one reported
pass/fail line) each.

Run under pytest for the gate, or directly (``python3 tests/test_acceptance.py``)
for a standalone summary.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from noisecascade.cascaded import (
    CascadedParams,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    linear_response,
    occupations,
)
from noisecascade.counting import large_deviation
from noisecascade.linalg import stability_margin
from noisecascade.optomech import (
    TWO_PI,
    OmParams,
    build_om_drift,
    design_nonreciprocal,
    map_to_cascaded,
    mech_susceptibility,
    preset_microwave,
)
from noisecascade.sweeps import emit_parts, iter_blocks, parse_config
from equal_rate_flows import simplified_flows
from test_counting import point_cumulants, point_theta

RESULTS = []


def report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def numeric_occupations(p):
    """(n1, n2) of one point: occupations(W, nbar) from its linear response,
    which must not fail."""
    sys = build_system(p)
    W, _, reason = linear_response(sys)
    assert reason == 0
    return occupations(W, sys.nbar)


def random_equal_rate(rng, nbar_max=200.0):
    while True:
        kappa = rng.uniform(0.1, 5.0)
        p = CascadedParams(
            omega1=rng.uniform(-10, 10),
            omega2=rng.uniform(-10, 10),
            kappa1=kappa, kappa2=kappa, gamma1=kappa, gamma2=kappa,
            phi=rng.uniform(0, 2 * np.pi),
            F=rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3),
            nbar1=rng.uniform(0, nbar_max),
            nbar2=rng.uniform(0, nbar_max),
            nbar3=rng.uniform(0, nbar_max),
        )
        if stability_margin(build_system(p).M) < -1e-6:
            return p


def fig2_grid(points=101):
    kappa = 1.0
    deltas = np.linspace(-10 * kappa, 10 * kappa, points)
    m3s = np.linspace(0.0, 100.0, points)
    return kappa, deltas, m3s


def fig2_params(kappa, delta, m3):
    return CascadedParams(
        omega1=0.0, omega2=delta, kappa1=kappa, kappa2=kappa,
        gamma1=kappa, gamma2=kappa, phi=0.0, F=0.0,
        nbar1=2 * 50.0 - m3, nbar2=2 * 100.0 - m3, nbar3=m3,
    )


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = random_equal_rate(rng)
        nc = closed_form_occupations(p)
        nn = numeric_occupations(p)
        for a, b in zip(nn, nc):
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, ok, f"1000 draws, max rel dev {worst:.2e} (<=1e-8), {elapsed:.2f}s (<5s)")


def test_criterion_02_lorentzian_reproduction():
    kappa, deltas, m3s = fig2_grid()
    worst_dn1 = worst_dn2 = 0.0
    for delta in deltas:
        lorentz = 2.0 * kappa**2 / (4.0 * kappa**2 + delta**2)
        for m3 in m3s:
            p = fig2_params(kappa, delta, m3)
            n1, n2 = numeric_occupations(p)
            m1, m2 = disconnected_baseline(p)
            worst_dn1 = max(worst_dn1, abs(n1 - m1))
            worst_dn2 = max(worst_dn2, abs((n2 - m2) / lorentz - (50.0 - m3)))
    ok = worst_dn1 <= 1e-10 and worst_dn2 <= 1e-9
    report(2, ok, f"grid 101x101: max |dn1| {worst_dn1:.2e} (<=1e-10), "
                  f"max Lorentzian dev {worst_dn2:.2e} (<=1e-9)")


def test_criterion_03_sign_structure():
    kappa, deltas, m3s = fig2_grid()
    ok = True
    for delta in deltas:
        for m3 in m3s:
            p = fig2_params(kappa, delta, m3)
            n2 = numeric_occupations(p)[1]
            dn2 = n2 - disconnected_baseline(p)[1]
            if m3 == 50.0:
                ok = ok and abs(dn2) <= 1e-9
            elif m3 < 50.0:
                ok = ok and dn2 > 0.0
            else:
                ok = ok and dn2 < 0.0
    p0 = fig2_params(kappa, 0.0, 0.0)
    spot = numeric_occupations(p0)[1] - disconnected_baseline(p0)[1]
    ok = ok and abs(spot - 25.0) <= 1e-9
    report(3, ok, f"zero line at mbar3=50, sign flips across it, "
                  f"spot dn2(0,0) = {spot:.12f} (25 +- 1e-9)")


def test_criterion_04_equilibrium():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        nbar = rng.uniform(0.0, 100.0)
        base = random_equal_rate(rng, nbar_max=0.0)
        p = dataclasses.replace(base, nbar1=nbar, nbar2=nbar, nbar3=nbar)
        for n in closed_form_occupations(p) + numeric_occupations(p):
            worst = max(worst, abs(n - nbar) / max(nbar, 1.0))
    ok = worst <= 1e-10
    report(4, ok, f"200 equilibrium draws, max rel dev {worst:.2e} (<=1e-10)")


def random_om(rng):
    omega_m = rng.uniform(2.0, 10.0)
    return OmParams(
        omega_m=omega_m, gamma_m=rng.uniform(0.05, 2.0),
        Delta1=rng.uniform(-10, 10), Delta2=rng.uniform(-10, 10),
        kappa1=rng.uniform(0.2, 4.0), kappa2=rng.uniform(0.2, 4.0),
        J=rng.uniform(0.0, 2.0), phi=rng.uniform(0, 2 * np.pi),
        G1=rng.uniform(0.05, 1.5), G2=rng.uniform(0.05, 1.5),
        Omega=omega_m + rng.uniform(-0.5, 0.5),
        Nbar1=rng.uniform(0, 5), Nbar2=rng.uniform(0, 5),
        Nbar_m=rng.uniform(0, 5),
    )


def test_criterion_05_mapping_equivalence():
    rng = np.random.default_rng(105)
    worst_m = worst_u = 0.0
    for _ in range(1000):
        p = random_om(rng)
        M_om, _ = build_om_drift(p, p.Omega)
        sys = build_system(map_to_cascaded(p))
        scale = max(np.abs(M_om).max(), 1.0)
        worst_m = max(worst_m, np.abs(M_om - sys.M).max() / scale)
        chi_mag = abs(mech_susceptibility(p.Omega, p))
        expected = np.array([
            p.G1 * math.sqrt(p.gamma_m) * chi_mag,
            p.G2 * math.sqrt(p.gamma_m) * chi_mag * np.exp(1j * p.phi),
        ])
        u3 = sys.U[..., 2]
        worst_u = max(worst_u, np.abs(u3 - expected).max() / max(np.abs(expected).max(), 1.0))
    ok = worst_m <= 1e-12 and worst_u <= 1e-12
    report(5, ok, f"1000 draws: drift dev {worst_m:.2e}, coupling dev {worst_u:.2e} (<=1e-12)")


def test_criterion_06_design_condition():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        p = random_om(rng)
        d = design_nonreciprocal(p)
        worst = max(worst, d.residual / d.j_star)
    pre = preset_microwave()
    d = design_nonreciprocal(pre)
    j_star_expected = 2.0 * pre.G1 * pre.G2 / pre.gamma_m
    quoted = TWO_PI * 1e6
    ok = (
        worst <= 1e-12
        and abs(d.j_star - j_star_expected) <= 1e-9 * j_star_expected
        and abs(d.j_star - TWO_PI * 0.98e6) <= 1e-6 * d.j_star
        and abs(d.j_star - quoted) / quoted <= 0.02 + 1e-12
    )
    report(6, ok, f"residual/J* max {worst:.2e} (<=1e-12); preset J* = "
                  f"2pi x {d.j_star / TWO_PI / 1e6:.4f} MHz, within 2% of 2pi x 1 MHz")


def test_criterion_07_fcs_consistency():
    # the slope of the spectral theta at 0 against the mean flow of the Lyapunov
    # path: a 5-point stencil, whose O(h^4) error stays far below the bound
    h = 1e-4
    s_stencil, weights = np.array([-2, -1, 1, 2]) * h, np.array([1, -8, 8, -1]) / (12 * h)
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    worst_theta0 = worst_slope = worst_sum = 0.0
    for _ in range(100):
        while True:
            kappa = rng.uniform(0.3, 3.0)
            p = CascadedParams(
                omega1=rng.uniform(-3, 3), omega2=rng.uniform(-3, 3),
                kappa1=rng.uniform(0.3, 3.0), kappa2=rng.uniform(0.3, 3.0),
                gamma1=rng.uniform(0.3, 3.0), gamma2=rng.uniform(0.3, 3.0),
                phi=rng.uniform(0, 2 * np.pi),
                F=rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
                nbar1=rng.uniform(0, 5), nbar2=rng.uniform(0, 5),
                nbar3=rng.uniform(0, 5),
            )
            if stability_margin(build_system(p).M) < -0.05:
                break
        sys = build_system(p)
        etas = []
        for ch in (1, 2, 3):
            worst_theta0 = max(worst_theta0, abs(point_theta(ch, 0.0, sys)))
            eta = point_cumulants(ch, sys)[0]
            theta, reason = large_deviation(ch, s_stencil, sys)
            dev = np.inf if reason.any() else abs(-theta @ weights - eta) / max(abs(eta), 1e-6)
            worst_slope = max(worst_slope, dev)
            etas.append(eta)
        scale = max(max(abs(e) for e in etas), 1e-12)
        worst_sum = max(worst_sum, abs(sum(etas)) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_theta0 == 0.0 and worst_slope <= 1e-6 and worst_sum <= 1e-9 and elapsed < 30.0
    report(7, ok, f"100 systems x 3 channels: theta(0) exact, slope dev "
                  f"{worst_slope:.2e} (<=1e-6), conservation {worst_sum:.2e} "
                  f"(<=1e-9), {elapsed:.1f}s (<30s)")


def test_criterion_08_flow_isolation():
    kappa = 1.0

    def flows(n1b, n2b, n3b):
        p = CascadedParams(
            omega1=0.0, omega2=1.3, kappa1=kappa, kappa2=kappa,
            gamma1=kappa, gamma2=kappa, phi=0.0, F=0.0,
            nbar1=n1b, nbar2=n2b, nbar3=n3b,
        )
        sys = build_system(p)
        return p, [point_cumulants(ch, sys)[0] for ch in (1, 2, 3)]

    eta1_values = [flows(3.0, n2b, 0.5)[1][0] for n2b in np.linspace(0.0, 50.0, 50)]
    spread1 = max(eta1_values) - min(eta1_values)
    # eta2's N1-dependence enters only through the Lorentzian closed form
    worst_closed = 0.0
    for n1b in np.linspace(0.0, 50.0, 50):
        p, numeric = flows(n1b, 2.0, 0.5)
        closed = simplified_flows(p)
        worst_closed = max(
            worst_closed,
            max(abs(a - b) for a, b in zip(numeric, closed))
            / max(max(abs(c) for c in closed), 1.0),
        )
    ok = spread1 <= 1e-9 and worst_closed <= 1e-9
    report(8, ok, f"eta1 spread over N2 sweep {spread1:.2e} (<=1e-9); "
                  f"closed-form flows match trace formula to {worst_closed:.2e}")


def test_criterion_09_preset_behavior():
    pre = preset_microwave()
    d = design_nonreciprocal(pre)
    tuned = OmParams(**{**pre.__dict__, "J": d.j_star, "phi": d.phi_star})

    def occ(N1, N2):
        p = OmParams(**{**tuned.__dict__, "Nbar1": N1, "Nbar2": N2})
        return numeric_occupations(map_to_cascaded(p))

    n2_grid = np.linspace(0.0, 50.0, 25)
    n1_values = [occ(1.0, N2)[0] for N2 in n2_grid]
    spread = max(n1_values) - min(n1_values)
    n1_grid = np.linspace(0.0, 50.0, 25)
    n2_values = np.array([occ(N1, 2.0)[1] for N1 in n1_grid])
    coef = np.polyfit(n1_grid, n2_values, 1)
    residual = np.abs(np.polyval(coef, n1_grid) - n2_values).max()
    ok = spread <= 1e-9 and residual <= 1e-9
    report(9, ok, f"n1 spread over N2 {spread:.2e} (<=1e-9); n2 affine in N1, "
                  f"fit residual {residual:.2e} (<=1e-9), slope {coef[0]:.4f}")


def test_criterion_10_determinism():
    doc = {
        "model": "cascaded",
        "params": {"phi": 0.0, "mbar1": 50, "mbar2": 100, "F": 0.0,
                   "kappa1": 1.0, "kappa2": 1.0, "gamma1": 1.0, "gamma2": 1.0},
        "axes": [
            {"variable": "Delta", "min": -10.0, "max": 10.0, "points": 7},
            {"variable": "mbar3", "min": 0.0, "max": 100.0, "points": 7},
        ],
        "outputs": ["n1", "n2", "dn1", "dn2", "eta1", "eta2", "eta3"],
        "format": "csv",
    }
    cfg = parse_config(json.dumps(doc))
    first = b"".join(emit_parts(iter_blocks(cfg), cfg))
    second = b"".join(emit_parts(iter_blocks(cfg), cfg))
    cfg_parallel = parse_config(json.dumps(dict(doc, parallel=True)))
    parallel = b"".join(emit_parts(iter_blocks(cfg_parallel), cfg_parallel))
    ok = first == second == parallel
    report(10, ok, f"sweep output byte-identical across reruns and "
                   f"parallel/serial ({len(first)} bytes)")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    raise SystemExit(1 if failures else 0)
