"""Cascaded two-oscillator model: system construction, steady states,
occupations, closed-form occupations and baselines.

The key oracle is the equal-rate closed-form occupation pair, checked to
tight tolerance against the independent Lyapunov numeric path.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisecascade.cascaded import (
    RESPONSE_FAILED,
    UNSTABLE,
    CascadedParams,
    LinearSystem,
    NumericalError,
    SchemaError,
    build_system,
    closed_form_occupations,
    disconnected_baseline,
    linear_response,
    occupations,
    raise_first,
)
from noisecascade.counting import flow_cumulants
from noisecascade.linalg import solve_lyapunov, stability_margin
from noisecascade.optomech import OmParams, map_to_cascaded
from exact_occupation_oracle import exact_occupations
from test_sweeps_cli import LYAPUNOV_FAILURE

RNG = np.random.default_rng(20240818)


def assert_input_output_form(sys):
    """M + M† = -U U† on every item, to 1e-13 max(1, largest rate); the worst
    seen on rates up to 5 is 3.6e-15."""
    M, U = sys.M, sys.U
    defect = M + M.conj().swapaxes(-2, -1) + U @ U.conj().swapaxes(-2, -1)
    scale = np.maximum(sys.rate.max(axis=-1), 1.0)
    assert (np.abs(defect).max(axis=(-2, -1)) <= 1e-13 * scale).all()


def numeric_occupations(p):
    """(n1, n2) of one point: occupations(W, nbar) from its linear response,
    which must not fail."""
    sys = build_system(p)
    W, _, reason = linear_response(sys)
    assert reason == 0
    return occupations(W, sys.nbar)


def random_equal_rate_params(nbar_max=200.0):
    """Random stable equal-rate parameter set (redraws until stable)."""
    while True:
        kappa = RNG.uniform(0.1, 5.0)
        p = CascadedParams(
            omega1=RNG.uniform(-10, 10),
            omega2=RNG.uniform(-10, 10),
            kappa1=kappa,
            kappa2=kappa,
            gamma1=kappa,
            gamma2=kappa,
            phi=RNG.uniform(0, 2 * np.pi),
            F=RNG.uniform(-3, 3) + 1j * RNG.uniform(-3, 3),
            nbar1=RNG.uniform(0, nbar_max),
            nbar2=RNG.uniform(0, nbar_max),
            nbar3=RNG.uniform(0, nbar_max),
        )
        if stability_margin(build_system(p).M) < -1e-6:
            return p


class TestParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(SchemaError):
            CascadedParams(kappa1=-0.1)

    def test_negative_occupation_rejected(self):
        with pytest.raises(SchemaError):
            CascadedParams(nbar2=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(SchemaError):
            CascadedParams(omega1=float("nan"))

    def test_detuning_and_collective_rate(self):
        p = CascadedParams(omega1=1.0, omega2=3.5, gamma1=0.4, gamma2=0.6)
        assert p.detuning == pytest.approx(2.5)
        assert p.collective_rate == pytest.approx(1.0)


def test_one_exception_class_per_exit_code():
    # SchemaError (exit code 2) and NumericalError (3) are the only exception
    # classes that the package defines; sweeps imports SchemaError, so it
    # resolves there too
    import noisecascade

    defined = set()
    for module in [noisecascade] + [importlib.import_module(f"noisecascade.{m.name}")
                                    for m in pkgutil.iter_modules(noisecascade.__path__)]:
        defined |= {obj for obj in vars(module).values() if inspect.isclass(obj)
                    and issubclass(obj, BaseException) and obj.__module__.startswith("noisecascade")}
    assert defined == {SchemaError, NumericalError}
    assert noisecascade.sweeps.SchemaError is SchemaError


class TestBuildSystem:
    def test_drift_entries(self):
        p = CascadedParams(
            omega1=2.0, omega2=3.0, kappa1=1.0, kappa2=2.0,
            gamma1=0.25, gamma2=1.0, phi=np.pi / 2, F=0.5 + 0.25j,
        )
        sys = build_system(p)
        assert sys.M[0, 0] == pytest.approx(-2.0j - (0.25 + 1.0) / 2)
        assert sys.M[0, 1] == pytest.approx(-1j * (0.5 + 0.25j))
        # sqrt(gamma1 gamma2) e^{i phi} = 0.5j on top of -i conj(F)
        assert sys.M[1, 0] == pytest.approx(-1j * (0.5 - 0.25j) - 0.5j)
        assert sys.M[1, 1] == pytest.approx(-3.0j - (1.0 + 2.0) / 2)

    def test_channel_couplings(self):
        # channel c is column c - 1 of U
        p = CascadedParams(kappa1=4.0, kappa2=9.0, gamma1=1.0, gamma2=4.0, phi=0.3)
        U = build_system(p).U
        assert U.shape == (2, 3)
        np.testing.assert_allclose(U[..., 0], [2.0, 0.0])
        np.testing.assert_allclose(U[..., 1], [0.0, 3.0])
        np.testing.assert_allclose(U[..., 2], [1.0, 2.0 * np.exp(0.3j)], atol=1e-15)

    def test_fluctuation_dissipation_structure(self):
        # input-output form: M + M† = -U U†, on a stack of random unequal-rate points
        n = 200
        fields = {name: RNG.uniform(0.0, 5.0, n)
                  for name in ("kappa1", "kappa2", "gamma1", "gamma2", "nbar1", "nbar2", "nbar3")}
        p = CascadedParams(
            omega1=RNG.uniform(-10, 10, n), omega2=RNG.uniform(-10, 10, n),
            phi=RNG.uniform(0, 2 * np.pi, n), F=RNG.uniform(-3, 3, n) + 1j * RNG.uniform(-3, 3, n),
            **fields,
        )
        sys = build_system(p)
        assert sys.M.shape == (n, 2, 2) and sys.U.shape == (n, 2, 3)
        assert_input_output_form(sys)

    def test_mapped_fluctuation_dissipation_structure(self):
        # the same structure for the optomechanical mapping of a (J, G2) grid
        J, G2 = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.5, 21), indexing="ij")
        om = OmParams(omega_m=5.0, gamma_m=0.4, Delta1=5.0, Delta2=4.0, kappa1=1.3, kappa2=0.7,
                      G1=0.3, phi=1.1, Nbar1=2.0, Nbar2=4.0, Nbar_m=1.0,
                      Omega=5.2, J=J.ravel(), G2=G2.ravel())
        sys = build_system(map_to_cascaded(om))
        assert sys.U.shape == (441, 2, 3)
        assert_input_output_form(sys)

    def test_stored_rates(self):
        # rate is (kappa1, kappa2, gamma1 + gamma2) as given; the squared column
        # norms of U round away from it for these values
        kappa1, kappa2, gamma1, gamma2 = 0.3, 0.7, 0.2, 0.5
        expected = np.array([kappa1, kappa2, gamma1 + gamma2])
        for phi in (0.3, np.array([0.0, 1.0, 2.0, 3.0])):
            p = CascadedParams(kappa1=kappa1, kappa2=kappa2, gamma1=gamma1, gamma2=gamma2, phi=phi)
            sys = build_system(p)
            for norms in ((np.abs(sys.U) ** 2).sum(axis=-2), (sys.U.conj() * sys.U).real.sum(axis=-2)):
                assert (norms != expected).all()
            assert same_bits(sys.rate, np.broadcast_to(expected, np.shape(phi) + (3,)))

    def test_derived_noise_matrix(self):
        # N is derived from U and nbar, not stored: it equals U diag(nbar + 1/2) U†
        # and is Hermitian to rounding, on a seeded draw of rates and
        # occupations over 10^+-300; every point is valid, and N holds inf,
        # with no warning, exactly where that product leaves the float range
        rng = np.random.default_rng(36)
        size = 20000
        graded = {name: 10.0 ** rng.uniform(-300.0, 300.0, size)
                  for name in ("kappa1", "kappa2", "gamma1", "gamma2", "nbar1", "nbar2", "nbar3")}
        p = CascadedParams(
            omega1=rng.normal(size=size), omega2=rng.normal(size=size),
            phi=rng.uniform(0.0, 2.0 * np.pi, size),
            F=rng.normal(size=size) + 1j * rng.normal(size=size), **graded,
        )
        assert not p.invalid().any()
        sys = build_system(p)
        N, U = sys.N, sys.U
        with np.errstate(over="ignore", invalid="ignore"):
            expected = (U * (sys.nbar + 0.5)[..., None, :]) @ U.conj().swapaxes(-2, -1)
        finite = np.isfinite(N).all(axis=(-2, -1))
        assert (finite == np.isfinite(expected).all(axis=(-2, -1))).all()
        assert size // 4 < finite.sum() < size and not np.isnan(N).any()
        kept, expected = N[finite], expected[finite]
        norm = np.abs(kept).max(axis=(-2, -1))
        assert (norm > 0.0).all()
        assert (np.abs(kept - expected).max(axis=(-2, -1)) <= 1e-15 * norm).all()
        defect = np.abs(kept - kept.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
        assert (defect <= 4.0 * np.finfo(float).eps * norm).all()
        assert sys.N is N  # built once per system
        with pytest.raises(TypeError):
            LinearSystem(sys.M, sys.U, sys.rate, sys.nbar, N)

    def test_vacuum_noise_floor(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0)
        sys = build_system(p)
        # all baths at zero occupation: N = -herm(M) = half the projector sum
        np.testing.assert_allclose(sys.N, -0.5 * (sys.M + sys.M.conj().T), atol=1e-14)


class TestSteadyState:
    def test_vacuum_inputs_give_vacuum(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=0.5, gamma2=0.25, phi=0.7)
        sys = build_system(p)
        V, failed = solve_lyapunov(sys.M, sys.N)
        assert not failed
        np.testing.assert_allclose(V, 0.5 * np.eye(2), atol=1e-10)

    def test_unstable_system_raises(self):
        sys = build_system(CascadedParams(omega1=1.0, omega2=1.0))
        W, G, reason = linear_response(sys)
        assert reason == UNSTABLE and np.isnan(W).all() and np.isnan(G).all()
        with pytest.raises(NumericalError):
            raise_first(reason, margin=sys.margin)

    def test_nan_drift_is_unstable(self, monkeypatch):
        # a NaN margin is not stable: the item reaches the solve with its own
        # NaN drift, and one point reports it as a stack item does
        from noisecascade import cascaded

        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=0.5, gamma2=0.25, nbar1=2.0)
        stack = build_system(CascadedParams(**{**vars(p), "kappa1": np.array([1.0, 1.0])}))
        M = stack.M.copy()
        M[1, 0, 0] = np.nan
        drifts, solve = [], cascaded.solve_lyapunov
        monkeypatch.setattr(cascaded, "solve_lyapunov",
                            lambda A, N: drifts.append(A) or solve(A, N))
        W, G, reason = linear_response(dataclasses.replace(stack, M=M))
        assert reason.tolist() == [0, UNSTABLE] and np.isnan(W[1]).all() and np.isnan(G[1]).all()
        assert same_bits(drifts[0][:, 0], M)
        W0, G0, _ = linear_response(build_system(p))
        assert same_bits(W[0], W0) and same_bits(G[0], G0)
        point = dataclasses.replace(build_system(p), M=M[1])
        with pytest.raises(NumericalError, match="margin nan"):
            raise_first(linear_response(point)[2], margin=point.margin)

    def test_unstable_items_solve_their_own_drift(self, monkeypatch):
        # linear_response and flow_cumulants hand the Lyapunov solve every
        # item as it is, an unstable one too, and still report it UNSTABLE,
        # NaN, while the stable items equal their single calls bit for bit
        from noisecascade import cascaded, counting

        p = CascadedParams(kappa1=np.array([1.0, 0.0, 1.0]), kappa2=1.0,
                           gamma1=np.array([0.5, 0.0, 0.5]), gamma2=0.25,
                           omega1=np.array([0.0, 1.0, 0.0]), nbar1=2.0, nbar3=1.0)
        sys = build_system(p)
        # item 2 with gain in place of damping: its solve succeeds, with an X
        # that is no covariance
        M = sys.M.copy()
        M[2] = -M[2]
        sys = dataclasses.replace(sys, M=M)
        assert (np.sign(stability_margin(M)) == [-1.0, 0.0, 1.0]).all()
        assert not solve_lyapunov(M[2], sys.N[2])[1]
        first = build_system(CascadedParams(**{k: v[0] for k, v in vars(p).items()}))

        def response(sys):
            W, G, reason = linear_response(sys)
            return [W, G], reason

        kernels = {cascaded: response, counting: lambda sys: flow_cumulants(1, sys)}
        for module, kernel in kernels.items():
            drifts, solve = [], module.solve_lyapunov
            monkeypatch.setattr(module, "solve_lyapunov",
                                lambda A, N, d=drifts, f=solve: d.append(A) or f(A, N))
            values, reason = kernel(sys)
            assert same_bits(drifts[0][:, 0], M)  # flow_cumulants solves M† at [:, 1]
            assert reason.tolist() == [0, UNSTABLE, UNSTABLE], module.__name__
            for value, one in zip(values, kernel(first)[0]):
                assert np.isnan(value[1:]).all() and same_bits(value[0], one)

    def test_float_margin(self):
        # the margin of one drift is a numpy scalar: ~ of a Python bool would
        # be -2, truthy, and flag a stable drift
        from noisecascade import cascaded

        def system(M):
            return LinearSystem(M, np.zeros((2, 3)), np.zeros(3), np.zeros(3))

        assert cascaded.unstable(system(-np.eye(2))) == 0
        sys = system(np.zeros((2, 2)))
        reason = cascaded.unstable(sys)
        assert reason == UNSTABLE
        with pytest.raises(NumericalError, match=r"margin 0\.000e\+00"):
            raise_first(reason, margin=sys.margin)

    def test_stack_without_a_mask(self):
        # a stack of valid points (no item failed up front) reports what a
        # point reports, and its stable item equals the point
        p = CascadedParams(kappa1=np.array([1.0, 0.0]), kappa2=1.0,
                           gamma1=np.array([0.5, 0.0]), gamma2=0.25, nbar1=2.0)
        assert not p.invalid().any()
        W, G, reason = linear_response(build_system(p))
        assert reason.tolist() == [0, UNSTABLE] and np.isnan(W[1]).all()  # mode 1 undamped
        points = [CascadedParams(**{k: v[i] for k, v in vars(p).items()}) for i in (0, 1)]
        W0, G0, reason0 = linear_response(build_system(points[0]))
        assert reason0 == 0 and same_bits(W[0], W0) and same_bits(G[0], G0)
        assert linear_response(build_system(points[1]))[2] == UNSTABLE

    def test_single_mode_thermal(self):
        p = CascadedParams(kappa1=2.0, kappa2=2.0, nbar1=3.0, nbar2=7.0,
                           gamma1=0.0, gamma2=0.0)
        n1, n2 = numeric_occupations(p)
        assert n1 == pytest.approx(3.0, abs=1e-12)
        assert n2 == pytest.approx(7.0, abs=1e-12)

    def test_closed_forms_match_numerics(self):
        for _ in range(100):
            p = random_equal_rate_params()
            n1c, n2c = closed_form_occupations(p)
            n1n, n2n = numeric_occupations(p)
            assert abs(n1n - n1c) <= 1e-10 * max(abs(n1c), 1.0)
            assert abs(n2n - n2c) <= 1e-10 * max(abs(n2c), 1.0)

    def test_phase_gauge_invariance(self):
        # occupations depend on (F, phi) only through F e^{i phi} invariants
        for _ in range(20):
            p = random_equal_rate_params(nbar_max=20.0)
            alpha = RNG.uniform(0, 2 * np.pi)
            shifted = CascadedParams(
                omega1=p.omega1, omega2=p.omega2, kappa1=p.kappa1, kappa2=p.kappa2,
                gamma1=p.gamma1, gamma2=p.gamma2, phi=p.phi - alpha,
                F=p.F * np.exp(1j * alpha),
                nbar1=p.nbar1, nbar2=p.nbar2, nbar3=p.nbar3,
            )
            n_a = closed_form_occupations(p)
            n_b = closed_form_occupations(shifted)
            np.testing.assert_allclose(n_a, n_b, rtol=1e-12)


class TestDeltaN:
    def test_baseline_is_f_independent(self):
        base = dict(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                    nbar1=4.0, nbar2=6.0, nbar3=2.0)
        m_a = disconnected_baseline(CascadedParams(F=0.0, **base))
        m_b = disconnected_baseline(CascadedParams(F=2.0 + 1.0j, **base))
        assert m_a == m_b == (3.0, 4.0)

    def test_baseline_is_large_detuning_limit(self):
        base = dict(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                    nbar1=40.0, nbar2=10.0, nbar3=6.0)
        p_far = CascadedParams(omega1=0.0, omega2=1e7, **base)
        n_far = numeric_occupations(p_far)
        m = disconnected_baseline(p_far)
        np.testing.assert_allclose(n_far, m, atol=1e-6)

    def test_nonreciprocal_dn1_zero(self):
        # F = 0: the first oscillator never sees the second
        p = CascadedParams(
            omega1=0.0, omega2=3.0, kappa1=1.0, kappa2=1.0, gamma1=1.0,
            gamma2=1.0, F=0.0, nbar1=100.0, nbar2=150.0, nbar3=0.0,
        )
        (n1, n2), (m1, m2) = numeric_occupations(p), disconnected_baseline(p)
        assert abs(n1 - m1) < 1e-10
        # dn2 carries the Lorentzian-weighted imbalance
        lorentz = 2.0 * 1.0 / (4.0 + 9.0)
        assert n2 - m2 == pytest.approx(lorentz * (50.0 - 0.0), abs=1e-9)

    def test_baseline_at_equal_rates_is_the_plain_average(self):
        # each weight kappa / (2 kappa) is exactly 1/2, also at non-dyadic rates,
        # and 0.5 a + 0.5 b rounds like 0.5 (a + b)
        rng = np.random.default_rng(30)
        size = 2000
        kappa = np.concatenate([[0.3, 0.1, 0.7, 1e-3], rng.uniform(0.01, 100.0, size - 4)])
        nbar1, nbar2, nbar3 = (rng.uniform(0.0, 100.0, size) for _ in range(3))
        p = CascadedParams(kappa1=kappa, gamma1=kappa, kappa2=kappa[::-1], gamma2=kappa[::-1],
                           nbar1=nbar1, nbar2=nbar2, nbar3=nbar3)
        m1, m2 = disconnected_baseline(p)
        assert same_bits(m1, 0.5 * (nbar1 + nbar3)) and same_bits(m2, 0.5 * (nbar2 + nbar3))
        for i in range(0, size, 97):  # one point returns the same bits
            q = CascadedParams(kappa1=0.3, gamma1=0.3, kappa2=kappa[i], gamma2=kappa[i],
                               nbar1=nbar1[i], nbar2=nbar2[i], nbar3=nbar3[i])
            assert same_bits(disconnected_baseline(q), [m1[i], m2[i]]), i

    def test_baseline_is_nan_exactly_where_a_mode_has_no_rate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, and nothing raises
            # mode 1 is undamped, yet the point is stable: F damps it through mode 2
            p = CascadedParams(kappa2=1.0, gamma2=1.0, F=0.5, nbar2=2.0, nbar3=1.0)
            m1, m2 = disconnected_baseline(p)
            assert math.isnan(m1) and m2 == 1.5
            assert numeric_occupations(p) == pytest.approx((1.5, 1.5), abs=1e-12)
            rate1, rate2 = np.array([0.0, 1.0, 0.0, 2.0]), np.array([0.0, 0.0, 3.0, 0.0])
            q = CascadedParams(kappa1=rate1, gamma1=rate2, kappa2=rate2, gamma2=rate2[::-1],
                               nbar1=1.0, nbar2=2.0, nbar3=0.5)
            m1, m2 = disconnected_baseline(q)
            # occupations near the float maximum overflow the weighted sum: inf, no warning
            top = np.finfo(float).max
            big = CascadedParams(kappa1=0.31, gamma1=0.37, kappa2=1.0, nbar1=top, nbar3=top)
            assert disconnected_baseline(big) == (np.inf, 0.0)
        assert np.isnan(m1).tolist() == (rate1 + rate2 == 0.0).tolist() == [True, False, False, False]
        assert np.isnan(m2).tolist() == (rate2 + rate2[::-1] == 0.0).tolist()
        assert m1[1:].tolist() == [1.0, 0.5, 1.0] and m2[1:3].tolist() == [0.5, 2.0]

    def test_baseline_is_mode_1_at_every_rate_without_hopping(self):
        # F = 0: mode 1 never sees mode 2, so n1 = m1 at unequal rates too; the
        # steady state shares no code with the baseline
        rng = np.random.default_rng(31)
        size = 2000

        def rates():
            return 10.0 ** rng.uniform(-2.0, 2.0, size)

        p = CascadedParams(omega1=rng.uniform(-10, 10, size), omega2=rng.uniform(-10, 10, size),
                           kappa1=rates(), kappa2=rates(), gamma1=rates(), gamma2=rates(),
                           phi=rng.uniform(0, 2 * np.pi, size),
                           **{f"nbar{i}": rng.uniform(0.0, 50.0, size) for i in (1, 2, 3)})
        sys = build_system(p)
        W, _, reason = linear_response(sys)
        assert not reason.any() and (p.kappa1 != p.gamma1).all()
        (n1, _), (m1, _) = occupations(W, sys.nbar), disconnected_baseline(p)
        assert (np.abs(n1 - m1) <= 1e-12 * m1).all()

    def test_baseline_is_the_large_detuning_limit_at_unequal_rates(self):
        # with F != 0 both modes approach the baseline as 1/Delta
        base = dict(kappa1=0.7, kappa2=1.9, gamma1=0.3, gamma2=1.2, phi=0.4, F=0.6 - 0.8j,
                    nbar1=3.0, nbar2=8.0, nbar3=1.0)
        error = {}
        for delta in (1e4, 1e6):
            p = CascadedParams(omega2=delta, **base)
            n, m = numeric_occupations(p), disconnected_baseline(p)
            error[delta] = np.abs(np.subtract(n, m)) / m
        assert (error[1e6] < 1e-5).all() and (50.0 * error[1e6] <= error[1e4]).all()


class TestEquilibrium:
    def test_common_temperature_gives_thermal_state(self):
        for _ in range(30):
            p = random_equal_rate_params(nbar_max=0.0)
            nbar = RNG.uniform(0.0, 50.0)
            p = CascadedParams(
                omega1=p.omega1, omega2=p.omega2, kappa1=p.kappa1, kappa2=p.kappa2,
                gamma1=p.gamma1, gamma2=p.gamma2, phi=p.phi, F=p.F,
                nbar1=nbar, nbar2=nbar, nbar3=nbar,
            )
            for n in closed_form_occupations(p) + numeric_occupations(p):
                assert n == pytest.approx(nbar, abs=1e-10 * max(nbar, 1.0))


class TestClosedFormsWithoutAGate:
    """closed_form_occupations follows the baseline's convention: NaN where the
    rates are unequal, for one point and arrays alike, and it never raises."""

    # equal-rate points and their (n1, n2) bits, which the NaN rule for
    # unequal rates leaves unchanged
    PINNED = [
        (dict(omega2=1.3, nbar1=1.0, nbar2=2.0, nbar3=3.0),
         ("0x1.0000000000000p+1", "0x1.13023fe334a3cp+1")),
        (dict(F=0.5j, nbar1=2.0), ("0x1.9249249249249p-1", "0x1.4924924924924p-1")),
        (dict(omega2=3.0, nbar1=100.0, nbar2=150.0),
         ("0x1.9000000000000p+5", "0x1.4ac4ec4ec4ec5p+6")),
        (dict(omega1=-0.7, omega2=2.9, phi=2.1, F=0.3 - 0.45j, nbar1=4.5, nbar2=0.25, nbar3=7.0,
              kappa1=0.37, kappa2=0.37, gamma1=0.37, gamma2=0.37),
         ("0x1.67f2a99240ae6p+2", "0x1.f096286bd442ap+1")),
    ]

    def test_equal_rate_values_are_pinned(self):
        for fields, bits in self.PINNED:
            rates = dict.fromkeys(("kappa1", "kappa2", "gamma1", "gamma2"), 1.0)
            n1, n2 = closed_form_occupations(CascadedParams(**{**rates, **fields}))
            assert (float(n1).hex(), float(n2).hex()) == bits, fields

    def test_point_equals_its_item_in_a_stack(self):
        rng = np.random.default_rng(34)
        size = 600
        kappa = rng.uniform(0.1, 5.0, size)
        rates = {name: kappa.copy() for name in ("kappa1", "kappa2", "gamma1", "gamma2")}
        unequal = rng.random(size) < 0.3
        unequal[:4] = False
        rates["gamma2"][unequal] *= 1.0 + rng.choice([1e-11, 1e-6, 0.5], unequal.sum())
        for v in rates.values():
            v[:4] = 0.0  # equal at zero
        fields = dict(rates, omega1=rng.uniform(-10, 10, size), omega2=rng.uniform(-10, 10, size),
                      phi=rng.uniform(0, 2 * np.pi, size),
                      F=rng.uniform(-3, 3, size) + 1j * rng.uniform(-3, 3, size),
                      **{f"nbar{i}": rng.uniform(0, 50, size) for i in (1, 2, 3)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, and nothing raises
            n1, n2 = closed_form_occupations(CascadedParams(**fields))
            for i in range(size):
                point = CascadedParams(**{name: v[i].item() for name, v in fields.items()})
                assert same_bits([n1[i], n2[i]], closed_form_occupations(point)), i
        assert np.isnan(n1).tolist() == np.isnan(n2).tolist() == unequal.tolist()

    def test_unequal_rates_give_nan_without_an_exception(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rates in ((1.0, 1.0, 1.0, 1.0 + 1e-6), (2.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0),
                          (0.0, 0.0, 0.0, 1e-300)):
                p = CascadedParams(**dict(zip(("kappa1", "kappa2", "gamma1", "gamma2"), rates)),
                                   F=0.2, nbar1=1.0, nbar3=2.0)
                assert all(math.isnan(n) for n in closed_form_occupations(p)), rates
                stack = CascadedParams(**{k: np.array([v, 1.0]) for k, v in vars(p).items()})
                n1, n2 = closed_form_occupations(stack)
                assert np.isnan([n1[0], n2[0]]).all() and np.isfinite([n1[1], n2[1]]).all()
            # within 1e-12 of the largest rate, the rates count as equal
            p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0 + 5e-13, nbar1=1.0)
            assert np.isfinite(closed_form_occupations(p)).all()


# each class's validity rule, restated apart from the package: its positive
# fields, then its non-negative ones, then the first field (in field order)
# that is not finite is named; no quantity derived from the fields is checked
RULES = {
    CascadedParams: ((), ("kappa1", "kappa2", "gamma1", "gamma2", "nbar1", "nbar2", "nbar3")),
    OmParams: (("gamma_m",), ("kappa1", "kappa2", "G1", "G2", "Nbar1", "Nbar2", "Nbar_m")),
}
OM_BASE = dict(omega_m=5.0, gamma_m=0.1, Delta1=5.0, Delta2=5.0, kappa1=1.0, kappa2=1.0)
# each class's base point and (change, error message) cases at one point
SINGLE_POINT_MESSAGES = {
    CascadedParams: ({}, [
        ({"gamma1": -1.0, "nbar1": -1.0}, "gamma1: must be non-negative"),
        ({"F": complex(0.0, np.nan), "nbar3": np.inf}, "F: must be finite"),
        ({"omega2": np.inf, "phi": np.nan}, "omega2: must be finite"),
        # the earlier row wins: non-negative before finite
        ({"kappa1": -1.0, "omega2": np.nan}, "kappa1: must be non-negative"),
        ({"omega1": np.inf, "kappa1": 1e308, "gamma1": 1e308}, "omega1: must be finite"),
    ]),
    OmParams: (OM_BASE, [
        ({"gamma_m": 0.0, "G1": -1.0}, "gamma_m: must be positive"),
        ({"gamma_m": 0.0, "J": np.nan}, "gamma_m: must be positive"),
        ({"G2": -1.0, "Nbar1": -1.0}, "G2: must be non-negative"),
        ({"Nbar_m": -1.0}, "Nbar_m: must be non-negative"),
        ({"kappa1": -1.0}, "kappa1: must be non-negative"),
        ({"G1": np.nan, "Nbar2": np.inf}, "G1: must be finite"),
        ({"gamma_m": np.inf}, "gamma_m: must be finite"),
        ({"Omega": -np.inf}, "Omega: must be finite"),
    ]),
}


def expected_error(cls, point):
    """The message a single point raises under RULES, or None for a valid point."""
    positive, nonnegative = RULES[cls]
    for name in positive:
        if point[name] <= 0.0:
            return f"{name}: must be positive"
    for name in nonnegative:
        if point[name] < 0.0:
            return f"{name}: must be non-negative"
    for f in dataclasses.fields(cls):
        if not np.isfinite(point[f.name]):
            return f"{f.name}: must be finite"
    return None


# a point takes each field from VALID_VALUES and then up to two faults; the
# magnitudes make sums and products of valid fields (a damping, a noise
# matrix entry) leave the float range, which keeps the point valid
VALID_VALUES = st.sampled_from([0.0, 0.5, 2.0, 1e154, 1e307, 1e308])
FAULTS = st.sampled_from([-1.0, -0.0, 0.0, np.nan, np.inf, -np.inf])


@st.composite
def rule_points(draw, cls):
    """Fields of 1 to 8 points of ``cls``, as lists of Python numbers."""
    names = [f.name for f in dataclasses.fields(cls)]
    points = []
    for _ in range(draw(st.integers(1, 8))):
        point = {name: draw(VALID_VALUES) for name in names}
        for name in draw(st.lists(st.sampled_from(names), max_size=2)):
            point[name] = draw(FAULTS)
        if "F" in point:
            point["F"] = complex(point["F"], draw(st.one_of(VALID_VALUES, FAULTS)))
        points.append(point)
    return {name: [point[name] for point in points] for name in names}


class TestParamRule:
    """The construction and validity rule that CascadedParams and OmParams share."""

    @pytest.mark.parametrize("cls", list(RULES), ids=lambda cls: cls.__name__)
    def test_single_point_messages(self, cls):
        base, cases = SINGLE_POINT_MESSAGES[cls]
        for change, message in cases:
            with pytest.raises(SchemaError, match=f"^{message}$"):
                cls(**{**base, **change})

    @pytest.mark.parametrize("cls", list(RULES), ids=lambda cls: cls.__name__)
    def test_invalid_is_where_a_point_raises(self, cls):
        # negative, zero, NaN and +-inf items, several per point on some points
        rng = np.random.default_rng(20261021)
        n, special = 400, np.array([-1.0, 0.0, np.nan, np.inf, -np.inf])
        fields = {}
        for f in dataclasses.fields(cls):
            v = rng.uniform(0.1, 5.0, n)
            v = np.where(rng.random(n) < 0.05, rng.choice(special, n), v)
            if f.name == "F":  # a non-finite imaginary part alone, too
                v = v.astype(complex)
                v.imag = np.where(rng.random(n) < 0.05, rng.choice(special, n), 0.5)
            fields[f.name] = v
        p = cls(**fields)
        assert all(getattr(p, name).shape == (n,) for name in fields)
        invalid = p.invalid()
        for i in range(n):
            point = {name: v[i].item() for name, v in fields.items()}
            message = expected_error(cls, point)
            if message is None:
                cls(**point)
            else:
                with pytest.raises(SchemaError, match=f"^{message}$"):
                    cls(**point)
            assert invalid[i] == (message is not None), i
        assert 0.2 * n < invalid.sum() < 0.8 * n

    @pytest.mark.parametrize("cls", list(RULES), ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_invalid_matches_the_rule_row_by_row(self, cls, data):
        # the mask of an array against the oracle, and each point's message;
        # no numpy warning, as the suite makes warnings errors
        fields = data.draw(rule_points(cls))
        invalid = cls(**{name: np.array(v) for name, v in fields.items()}).invalid()
        for i in range(len(invalid)):
            point = {name: v[i] for name, v in fields.items()}
            message = expected_error(cls, point)
            assert invalid[i] == (message is not None), point
            if message is None:
                cls(**point)
            else:
                with pytest.raises(SchemaError) as info:
                    cls(**point)
                assert str(info.value) == message, point


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: bit for bit, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_array_fields(rng, n=96):
    """Random cascaded fields, one item per point, with invalid and unequal-rate items."""
    kappa = rng.uniform(0.1, 5.0, n)
    fields = {
        "omega1": rng.uniform(-10, 10, n),
        "omega2": rng.uniform(-10, 10, n),
        "phi": rng.uniform(0, 2 * np.pi, n),
        "F": rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n),
        **{f"nbar{i}": rng.uniform(0, 50, n) for i in (1, 2, 3)},
    }
    unequal = rng.random(n) < 0.3
    for name in ("kappa1", "kappa2", "gamma1", "gamma2"):
        fields[name] = np.where(unequal, rng.uniform(0.1, 5.0, n), kappa)
    fields["gamma2"][:3] = kappa[:3] * (1.0 + 1e-6)  # unequal just above the tolerance
    fields["F"][3:6] = [0.0, 2.0, -1.5j]  # real, imaginary and zero hopping
    fields["kappa1"][10] = -0.1
    fields["gamma2"][11] = -1e-9
    fields["nbar2"][12] = -1.0
    fields["omega1"][13] = np.nan
    fields["F"][14] = complex(np.inf, 0.0)
    fields["phi"][15] = np.nan
    fields["nbar3"][16] = np.inf
    return fields


class TestArrayParams:
    """Array params against one scalar call per point, invalid items included."""

    def test_matches_per_point_calls(self):
        rng = np.random.default_rng(20261018)
        fields = random_array_fields(rng)
        p = CascadedParams(**fields)
        invalid = p.invalid()
        sys = build_system(p)
        closed = closed_form_occupations(p)  # NaN at unequal rates: no mask
        base = disconnected_baseline(p)  # defined at every rate: no mask
        assert np.isnan(closed[0][:3]).all()  # unequal just above the tolerance
        checked = set()
        for i in range(len(invalid)):
            point = {name: v[i].item() for name, v in fields.items()}
            try:
                q = CascadedParams(**point)
            except SchemaError:
                assert invalid[i], i
                continue
            assert not invalid[i], i
            one = build_system(q)
            for name in ("M", "U", "rate", "nbar", "N"):
                assert same_bits(getattr(sys, name)[i], getattr(one, name)), (i, name)
            assert same_bits([m[i] for m in base], disconnected_baseline(q)), i
            assert same_bits([c[i] for c in closed], closed_form_occupations(q)), i
            checked.add("unequal" if np.isnan(closed[0][i]) else "equal")
        assert invalid.sum() == 7 and checked == {"equal", "unequal"}

    def test_linear_response_stack_flags_what_a_point_raises(self):
        # a stack item has the reason of its single call, and equals it bit for
        # bit where that is 0; the all-zero point in place of the invalid one
        # is unstable
        points = [
            dict(kappa1=1.0, kappa2=0.5, gamma1=0.3, gamma2=0.7, F=0.2j, nbar1=2.0, nbar3=1.0),
            dict(omega1=1.0, omega2=1.0, kappa2=1.0, nbar2=3.0),  # mode 1 undamped: marginal
            # eigenvalues -1/2 +- 1/2: marginal through the cascaded coupling
            dict(gamma1=1.0, gamma2=1.0, F=0.5, phi=-np.pi / 2, nbar3=1.0),
            # margin -2.5e-13: stable, but the solve misses its residual bound
            dict(gamma1=1.0, gamma2=1.0, F=0.5 + 1e-12, phi=-np.pi / 2, nbar3=1.0, kappa1=1e-12),
            dict(kappa1=-1.0, kappa2=1.0),  # invalid
            dict(kappa1=2.0, kappa2=2.0, nbar1=3.0, nbar2=7.0, omega2=0.4),
        ]
        valid = [point if i != 4 else {} for i, point in enumerate(points)]
        stack = CascadedParams(**{
            f.name: np.array([point.get(f.name, 0.0) for point in valid])
            for f in dataclasses.fields(CascadedParams)
        })
        W, G, reason = linear_response(build_system(stack))
        assert reason.tolist() == [0, UNSTABLE, UNSTABLE, RESPONSE_FAILED, UNSTABLE, 0]
        with pytest.raises(SchemaError):
            CascadedParams(**points[4])
        singles = [linear_response(build_system(CascadedParams(**point))) for point in valid]
        assert [int(reason) for _, _, reason in singles] == reason.tolist()
        for i, (W0, G0, _) in enumerate(singles):
            assert same_bits(W[i], W0) and same_bits(G[i], G0), i
        assert np.isnan(W[reason != 0]).all() and np.isnan(G[reason != 0]).all()

    def test_single_point_returns_and_messages(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0, F=0.5j, nbar1=2.0)
        n1, n2 = closed_form_occupations(p)
        assert np.ndim(n1) == np.ndim(n2) == 0
        assert disconnected_baseline(p) == (1.0, 0.0)
        assert build_system(p).M.shape == (2, 2)

    def test_arrays_with_invalid_items_construct(self):
        # only one point raises; an array reports its bad items through invalid()
        p = CascadedParams(kappa1=[1.0, -1.0, 2.0], nbar3=[0.0, 1.0, np.nan])
        assert p.invalid().tolist() == [False, True, True]
        with pytest.raises(SchemaError, match="^kappa1: must be non-negative$"):
            CascadedParams(kappa1=np.array(-1.0))  # a 0-d array is one point

    def test_scalars_broadcast_against_arrays(self):
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=[1.0, 2.0], gamma2=1.0, F=0.1)
        assert all(np.shape(getattr(p, name)) == (2,) for name in vars(p))
        assert p.F.dtype == complex and p.kappa1.dtype == float
        assert build_system(p).M.shape == (2, 2, 2)
        n1, n2 = closed_form_occupations(p)
        assert n1.shape == (2,) and np.isnan(n1).tolist() == np.isnan(n2).tolist() == [False, True]


def random_stable_systems(rng, size):
    """Random 2-mode, 3-channel systems M = -iH - UU†/2 with a full-rank U,
    so M + M† = -UU† < 0 makes every one stable; rates are |u_c|^2."""
    U = rng.normal(size=(size, 2, 3)) + 1j * rng.normal(size=(size, 2, 3))
    H = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    UU = U @ U.conj().swapaxes(-2, -1)
    M = -0.5j * (H + H.conj().swapaxes(-2, -1)) - 0.5 * UU
    rate = (np.abs(U) ** 2).sum(axis=-2)
    nbar = rng.uniform(0.0, 5.0, (size, 3))
    return LinearSystem(M=M, U=U, rate=rate, nbar=nbar)


class TestLinearResponse:
    """Occupation weights W and flow conductances G: n = W nbar, eta = G nbar."""

    CRITERION_8 = CascadedParams(omega1=0.0, omega2=1.3, kappa1=1.0, kappa2=1.0,
                                 gamma1=1.0, gamma2=1.0, phi=0.0, F=0.0)

    def test_rows_and_columns_sum_to_zero(self):
        systems = random_stable_systems(np.random.default_rng(1), 100)
        W, G, reason = linear_response(systems)
        assert not reason.any() and W.shape == (100, 2, 3) and G.shape == (100, 3, 3)
        assert (G.sum(axis=-1) == 0.0).all()  # column 3 is -(G_k1 + G_k2)
        bound = 1e-14 * systems.rate.max(axis=-1)[:, None]
        assert (np.abs(G.sum(axis=-2)) <= bound).all()
        assert np.abs(W.sum(axis=-1) - 1.0).max() <= 1e-14

    def test_matches_flows_and_occupations_at_unit_occupations(self):
        for p in (self.CRITERION_8, random_equal_rate_params(), random_equal_rate_params()):
            W, G, _ = linear_response(build_system(p))
            scale = max(p.kappa1, p.kappa2, p.collective_rate)
            for j in range(3):
                unit = dict(zip(("nbar1", "nbar2", "nbar3"), np.eye(3)[j]))
                q = dataclasses.replace(p, **unit)
                sys = build_system(q)
                Y, _ = solve_lyapunov(sys.M, sys.N)
                for k in range(3):
                    assert abs(G[k, j] - flow_cumulants(k + 1, sys)[0][0]) <= 1e-13 * scale
                assert np.abs(W[:, j] - np.diagonal(Y).real + 0.5).max() <= 1e-13

    def test_onsager_casimir(self):
        # the time-reversed partner (M^T, conj(U)) transmits the other way: G -> G^T
        systems = random_stable_systems(np.random.default_rng(2), 100)
        partner = LinearSystem(M=systems.M.swapaxes(-2, -1), U=systems.U.conj(),
                               rate=systems.rate, nbar=systems.nbar)
        G, G_partner = linear_response(systems)[1], linear_response(partner)[1]
        bound = 1e-13 * systems.rate.max(axis=-1)[:, None, None]
        assert (np.abs(G - G_partner.swapaxes(-2, -1)) <= bound).all()

    def test_criterion_8_isolates(self):
        W, G, _ = linear_response(build_system(self.CRITERION_8))
        expected = [[-1.0, 0.0, 1.0], [0.351, -1.0, 0.649], [0.649, 1.0, -1.649]]
        np.testing.assert_allclose(G, expected, rtol=0.0, atol=1e-3)
        assert G[0, 1] == 0.0  # no flow into bath 1 from bath 2
        contrast = (G[1, 0] - G[0, 1]) / (G[1, 0] + G[0, 1])
        assert contrast == 1.0

    def test_stack_items_equal_single_calls(self):
        fields = random_array_fields(np.random.default_rng(3), n=40)
        fields["kappa1"][20] = fields["gamma1"][20] = fields["F"][20] = 0.0  # mode 1 undamped
        for name, value in LYAPUNOV_FAILURE.items():  # stable, but its solve fails
            fields[name][21] = complex(value) if name == "F" else value
        p = CascadedParams(**fields)
        built = ~p.invalid()
        p = CascadedParams(**{k: np.where(built, v, 0.0) for k, v in fields.items()})
        systems = build_system(p)
        W, G, reason = linear_response(systems)
        assert reason[20] == UNSTABLE and reason[21] == RESPONSE_FAILED
        assert (reason[~built] == UNSTABLE).all() and (reason == 0).sum() > 20
        for i in range(len(reason)):
            item = LinearSystem(*(getattr(systems, f.name)[i] for f in dataclasses.fields(systems)))
            W0, G0, reason0 = linear_response(item)
            assert reason0 == reason[i], i
            assert same_bits(W[i], W0) and same_bits(G[i], G0), i
        assert np.isnan(W[reason != 0]).all() and np.isnan(G[reason != 0]).all()

    # the bound on every occupation against tests/exact_occupation_oracle.py,
    # relative, stated before the first run
    ORACLE_RTOL = 1e-9

    @staticmethod
    def occupations_and_exact(p):
        """n = sum_j W_ij nbar_j of each item of array params p that the
        response does not flag, and the exact occupations of the same doubles."""
        sys = build_system(p)
        W, _, reason = linear_response(sys)
        n = np.stack(occupations(W, sys.nbar), axis=-1)
        kept = np.flatnonzero(reason == 0)
        exact = [exact_occupations(sys.M[i], sys.U[i], sys.nbar[i]) for i in kept]
        return n[kept], np.array(exact, float).reshape(-1, 2)

    def test_occupations_match_exact_oracle_on_graded_systems(self):
        # rates 10^U(-12, 2), nbar 10^U(-3, 6) with 30 % set to 0, and the
        # detuning, F and phi of the graded cumulant check: the worst error is
        # 3.9e-11, where Y_ii - 1/2 of the steady state is off by up to 4.5e-4
        rng = np.random.default_rng(0)
        rates = 10.0 ** rng.uniform(-12.0, 2.0, (4, 300))
        nbar = 10.0 ** rng.uniform(-3.0, 6.0, (3, 300)) * (rng.uniform(size=(3, 300)) >= 0.3)
        p = CascadedParams(
            omega2=rng.uniform(-5.0, 5.0, 300), kappa1=rates[0], kappa2=rates[1],
            gamma1=rates[2], gamma2=rates[3], phi=rng.uniform(0.0, 2.0 * np.pi, 300),
            F=rng.uniform(0.0, 2.0, 300) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 300)),
            nbar1=nbar[0], nbar2=nbar[1], nbar3=nbar[2],
        )
        n, exact = self.occupations_and_exact(p)
        assert len(n) >= 280 and (exact == 0.0).any()  # zero where every nbar is
        assert (np.abs(n - exact) <= self.ORACLE_RTOL * exact).all()

    def test_occupations_without_cancellation(self):
        # nbar3 >> n, where nbar3 + sum_j W_ij (nbar_j - nbar3) would cancel to
        # 1.000124e-06, and n << 1/2, where Y_ii - 1/2 cancels to 9.999778782798785e-13
        found = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1e-12, gamma2=1e-12, nbar3=1e6)
        small = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1e-9, gamma2=1e-9, nbar3=1e-3)
        p = CascadedParams(**{f.name: np.array([getattr(found, f.name), getattr(small, f.name)])
                              for f in dataclasses.fields(found)})
        n, exact = self.occupations_and_exact(p)
        assert len(n) == 2 and (np.abs(n - exact) <= self.ORACLE_RTOL * exact).all()
        assert n[0, 0] == 9.99999999999e-07 and n[1, 0] == 9.99999999e-13
        small_sys = build_system(small)
        vacuum_read = solve_lyapunov(small_sys.M, small_sys.N)[0][0, 0].real - 0.5
        assert abs(vacuum_read - exact[1, 0]) > 1e4 * self.ORACLE_RTOL * exact[1, 0]

    def test_collective_rates_whose_product_overflows(self):
        # each rate is valid, gamma1 gamma2 is not finite: M21 read NaN from the
        # square root of that product, so the points were unstable (margin nan)
        p = CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=np.array([1e200, 1e155]),
                           gamma2=np.array([1e200, 1e155]), phi=0.7, F=0.3,
                           nbar1=2.0, nbar2=0.5, nbar3=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys = build_system(p)
            n, exact = self.occupations_and_exact(p)
        assert (sys.margin < 0.0).all() and len(n) == 2
        assert (np.abs(n - exact) <= self.ORACLE_RTOL * exact).all()

    def test_rate_near_the_float_maximum(self):
        # 2 rate_3 overflowed to inf, and inf * 0 put NaN into G
        W, G, _ = linear_response(build_system(CascadedParams(gamma1=1e308, kappa1=1.0, kappa2=1.0)))
        assert np.isfinite(W).all() and np.isfinite(G).all()
        expected = [[-2.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, -2.0]]
        np.testing.assert_allclose(G, expected, rtol=1e-15, atol=0.0)

    def test_one_unstable_system_raises(self):
        sys = build_system(dataclasses.replace(self.CRITERION_8, kappa1=0.0, gamma1=0.0))
        with pytest.raises(NumericalError, match="^drift is not stable"):
            raise_first(linear_response(sys)[2], margin=sys.margin)
