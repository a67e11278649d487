"""Kernels: the Lyapunov solver and the biased Riccati solver of the test
oracle ``riccati_oracle``, plus the quadrature embeddings of the test oracle
that the real-input solver tests build on.

The solver tests use manufactured solutions: pick the answer first, build
the matching right-hand side, then check the solver recovers it.
"""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import noisecascade
from noisecascade.linalg import (
    solve_lyapunov,
    stability_margin,
    stacked_product,
    trace_product,
)
import riccati_oracle
from quadrature_oracle import embed_drift, real_embedding_matrix
from riccati_oracle import UnstableEffectiveDriftError, solve_riccati_biased

RNG = np.random.default_rng(20240817)


def random_stable_drift():
    """Random 2x2 complex matrix shifted to have strictly negative real parts."""
    M = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    shift = stability_margin(M)
    return M - (shift + 0.5 + RNG.uniform(0, 2)) * np.eye(2)


def random_spd(scale=1.0):
    X = RNG.normal(size=(4, 4))
    return scale * (X @ X.T + 0.1 * np.eye(4))


class TestRealEmbedding:
    def test_unit_vector_gives_identity_block(self):
        R = real_embedding_matrix(np.array([1.0, 0.0]))
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_array_equal(R, expected)

    def test_imaginary_unit_gives_rotation_block(self):
        R = real_embedding_matrix(np.array([0.0, 1.0j]))
        np.testing.assert_array_equal(R[2:, :], np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(R[:2, :], np.zeros((2, 2)))

    def test_projector_is_phase_invariant(self):
        for _ in range(50):
            u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            alpha = RNG.uniform(0, 2 * np.pi)
            R1 = real_embedding_matrix(u)
            R2 = real_embedding_matrix(np.exp(1j * alpha) * u)
            assert np.abs(R1 @ R1.T - R2 @ R2.T).max() < 1e-12


class TestEmbedDrift:
    def test_pure_damping(self):
        A = embed_drift(-0.5 * 3.0 * np.eye(2, dtype=complex))
        np.testing.assert_allclose(A, -1.5 * np.eye(4))

    def test_spectrum_is_doubled_with_conjugates(self):
        for _ in range(20):
            M = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            eigs_a = np.sort_complex(np.linalg.eigvals(embed_drift(M)))
            eigs_m = np.linalg.eigvals(M)
            expected = np.sort_complex(np.concatenate([eigs_m, np.conj(eigs_m)]))
            np.testing.assert_allclose(eigs_a, expected, atol=1e-10)

    def test_dynamics_equivalence(self):
        # evolving complex amplitudes and quadratures must agree
        M = random_stable_drift()
        A = embed_drift(M)
        c = np.array([0.3 + 0.4j, -0.7 + 0.1j])
        q = np.array([c[0].real, c[0].imag, c[1].real, c[1].imag])
        dc = M @ c
        dq_expected = np.array([dc[0].real, dc[0].imag, dc[1].real, dc[1].imag])
        np.testing.assert_allclose(A @ q, dq_expected, atol=1e-14)


class TestStabilityMargin:
    def test_matches_numpy_eigenvalues(self):
        for _ in range(20):
            M = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            assert stability_margin(M) == pytest.approx(
                np.linalg.eigvals(M).real.max(), abs=1e-12
            )

    @pytest.mark.parametrize("omega", [1e8, 1e160])
    def test_large_common_frequency_keeps_the_damping(self, omega):
        # tr^2 - 4 det gave -0.69651 at omega = 1e8 and overflowed to NaN
        # beyond |M| ~ 1e154; shifting by i omega I removes the common rotation
        from noisecascade.cascaded import CascadedParams, build_system

        p = CascadedParams(omega1=omega, omega2=omega + 0.3, kappa1=1.0, kappa2=1.0,
                           gamma1=1.0, gamma2=1.0, F=0.2, phi=0.4)
        M = build_system(p).M
        margin = stability_margin(M)  # a RuntimeWarning is an error here
        reference = np.linalg.eigvals(M + 1j * omega * np.eye(2)).real.max()
        assert np.isfinite(margin) and abs(margin - reference) <= 1e-13


    def test_overflowing_discriminant_is_scaled(self):
        from noisecascade.cascaded import CascadedParams, build_system

        # half^2 overflowed to NaN here; a RuntimeWarning is an error in the tests
        M = build_system(CascadedParams(omega2=1e160, kappa1=1.0, kappa2=1.0)).M
        assert stability_margin(M) == -0.5
        # M00 - M11 overflowed to NaN at opposite frequencies near the float maximum
        M = build_system(CascadedParams(omega1=1e308, omega2=-1e308, kappa1=1.0, kappa2=1.0)).M
        assert stability_margin(M) == -0.5
        # M01 M10 overflows too; the margin agrees with eigvals of M / 2^700 times 2^700
        big = np.array([[3e200j - 1.0, 2e200], [-1.5e200 + 1e199j, -1e200j - 2.0]])
        reference = np.linalg.eigvals(big / 2.0**700).real.max() * 2.0**700
        assert abs(stability_margin(big) - reference) <= 1e-14 * np.abs(big).max()
        # items whose unscaled discriminant is finite keep their bits next to
        # overflowing ones, and every item equals its single call
        M = RNG.normal(size=(64, 2, 2)) + 1j * RNG.normal(size=(64, 2, 2))
        M[::8] *= 1e180
        M[1::8, 0, 1] *= 1e300  # large, but M01 M10 stays finite
        stack = stability_margin(M)
        half = (M[:, 0, 0] - M[:, 1, 1]) / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.sqrt(half * half + M[:, 0, 1] * M[:, 1, 0]))
        assert finite.sum() == 56 and np.isfinite(stack).all()
        assert_same_bits(stack[finite], stability_margin(M[finite]))
        for i in range(64):
            reference = np.linalg.eigvals(M[i] / 2.0**700).real.max() * 2.0**700
            assert abs(stack[i] - reference) <= 1e-14 * np.abs(M[i]).max(), i
            assert_same_bits(stability_margin(M[i]), stack[i])

    def test_disparate_damping_rates_keep_the_small_root(self):
        from noisecascade.cascaded import CascadedParams, build_system

        # mean + disc cancelled to 0.0 here, so a stable point read unstable
        p = CascadedParams(kappa1=1e17, kappa2=1.0, gamma1=1.0, gamma2=1.0, omega2=0.3)
        M = build_system(p).M
        assert stability_margin(M) == np.linalg.eigvals(M).real.max() == -1.0

    def test_overflowing_coupling_product_does_not_warn(self):
        from noisecascade.cascaded import CascadedParams, build_system

        # |M01| |M10| overflows in the candidate roots of the cancelled margin,
        # which keeps its bits; a RuntimeWarning is an error in the tests
        p = CascadedParams(omega2=3.19, kappa1=6.5, gamma1=6.4, gamma2=1.3, phi=0.87,
                           F=1e200 + 1.709j, nbar1=0.45)
        assert_same_bits(stability_margin(build_system(p).M), np.float64(-2.620017928058309))

    def test_disc_past_the_float_maximum_does_not_warn(self):
        from noisecascade.cascaded import CascadedParams, build_system

        # F = 1.7e308 (1 + i): the scaled discriminant times its scale passes
        # the float maximum, so it is inf, with no RuntimeWarning (an error in
        # the tests) when the margin is read outside an errstate.  The margin
        # is still wrong: the drift's true one is -1.0 (see the test below;
        # -1 + sqrt(2) / 4 = -0.646 is that of the exact parameters)
        sys = build_system(CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1.0, gamma2=1.0,
                                          F=1.7e308 + 1.7e308j))
        assert sys.margin == 2.9990490977378498e+291

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the margin's scaled discriminant passes the float maximum, so the margin "
        "reads 2.999e291 and the point unstable (ROADMAP items 16 and 22)"))
    def test_disc_past_the_float_maximum_keeps_the_margin(self):
        from noisecascade import cascaded
        from noisecascade.cascaded import CascadedParams, build_system

        # the coupling -sqrt(gamma1 gamma2) = -1 is lost in rounding, so the
        # drift holds M10 = -a - ia beside M01 = a - ia (a = 1.7e308):
        # M01 M10 = -2 a^2 exactly, and the eigenvalues are -1 +- i sqrt(2) a
        sys = build_system(CascadedParams(kappa1=1, kappa2=1, gamma1=1, gamma2=1,
                                          F=1.7e308 + 1.7e308j))
        assert sys.M[1, 0] == -1.7e308 - 1.7e308j
        assert stability_margin(sys.M) == pytest.approx(-1.0, rel=1e-12)
        assert cascaded.unstable(sys) == 0

    def test_candidate_bound_near_the_float_maximum(self):
        from noisecascade.cascaded import CascadedParams, build_system

        # eigenvalues -5e307 and -0.5: 16 times the rounding bound of the
        # candidate root overflowed, so the cancelled margin 0 stood
        M = build_system(CascadedParams(gamma1=1e308, kappa1=1.0, kappa2=1.0)).M
        assert stability_margin(M) == pytest.approx(-0.5, rel=1e-15)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the cancelled root's candidate det / root forms x y, about 2.5e309, which "
        "overflows, so the cancelled rho - disc (0.0) stays: steady-state exits 3 with "
        "'drift is not stable (margin 0.000e+00)'"))
    def test_triangular_drift_whose_diagonal_product_overflows(self):
        from noisecascade.cascaded import CascadedParams, build_system

        # M = [[-5e299, 0], [-1e155 e^{i phi}, -5e9]] to rounding: triangular, so
        # its eigenvalues are its diagonal entries, and the margin is M11 = -(1e10 + 1) / 2
        M = build_system(CascadedParams(kappa1=1.0, kappa2=1.0, gamma1=1e300, gamma2=1e10)).M
        assert M[0, 1] == 0.0
        assert stability_margin(M) == pytest.approx(M[1, 1].real, rel=1e-15)

    @pytest.mark.parametrize("frequencies", ["own", "common", "swapped"])
    def test_matches_eigvals_on_graded_drifts(self, frequencies):
        # triangular drifts, whose eigenvalues eigvals returns to a few ulp,
        # with damping rates 1e-150..1e150 and frequencies scaled by each
        # mode's own rate, shared by both modes, or scaled by the other's
        rng = np.random.default_rng(7)
        n = 4000
        rates = 10.0 ** rng.uniform(-150.0, 150.0, (2, n))
        if frequencies == "own":
            omega = rng.normal(size=(2, n)) * rates
        elif frequencies == "common":
            omega = 10.0 ** rng.uniform(-150.0, 150.0, n) * (1.0 + 0.1 * rng.normal(size=(2, n)))
        else:
            omega = rng.normal(size=(2, n)) * rates[::-1]
        M = np.zeros((n, 2, 2), complex)
        M[:, 0, 0], M[:, 1, 1] = -rates[0] - 1j * omega[0], -rates[1] - 1j * omega[1]
        coupling = rng.normal(size=n) * np.sqrt(rates[0] * rates[1])
        M[: n // 2, 1, 0], M[n // 2 :, 0, 1] = coupling[: n // 2], coupling[n // 2 :]
        margin = stability_margin(M)
        reference = np.linalg.eigvals(M).real.max(axis=-1)
        np.testing.assert_allclose(margin, reference, rtol=1e-14, atol=0.0)
        for i in range(0, n, 97):
            assert_same_bits(stability_margin(M[i]), margin[i])


class TestSolveLyapunov:
    def test_manufactured_solution(self):
        for _ in range(25):
            A = embed_drift(random_stable_drift())
            V_true = random_spd()
            N = -(A @ V_true + V_true @ A.T)
            V, failed = solve_lyapunov(A, N)
            assert np.shape(failed) == () and not failed
            assert np.abs(V - V_true).max() < 1e-9 * np.abs(V_true).max()

    def test_output_is_symmetric(self):
        A = embed_drift(random_stable_drift())
        V, _ = solve_lyapunov(A, random_spd())
        np.testing.assert_array_equal(V, V.T)

    def test_rejects_nonsymmetric_noise(self):
        # one matrix reports its failure as a stack item does: NaN, flagged
        A = -np.eye(4)
        N = np.eye(4)
        N[0, 1] = 0.5
        V, failed = solve_lyapunov(A, N)
        assert failed and np.isnan(V).all()

    def test_unstable_drift_fails(self):
        A = np.diag([1.0, -1.0, -1.0, -1.0])
        V, failed = solve_lyapunov(A, np.eye(4))
        assert failed and np.isnan(V).all()


class TestSolveRiccatiBiased:
    def test_zero_bias_reduces_to_lyapunov(self):
        A = embed_drift(random_stable_drift())
        N = random_spd()
        V_lyap, _ = solve_lyapunov(A, N)
        Z = np.zeros((4, 4))
        V = solve_riccati_biased(A, N, Z, Z)
        assert np.abs(V - V_lyap).max() < 1e-10

    def test_manufactured_solution(self):
        for _ in range(10):
            A = embed_drift(random_stable_drift()) - 1.0 * np.eye(4)
            V_true = random_spd(scale=0.5)
            Fminus = 0.1 * random_spd(scale=0.1)
            Fplus = 0.05 * random_spd(scale=0.1)
            Atil = A - Fminus
            N = -(Atil @ V_true + V_true @ Atil.T + V_true @ Fplus @ V_true)
            if np.linalg.eigvals(Atil + V_true @ Fplus).real.max() >= -1e-6:
                continue
            V = solve_riccati_biased(A, N, Fminus, Fplus)
            assert np.abs(V - V_true).max() < 1e-8 * max(np.abs(V_true).max(), 1.0)

    def test_unstable_effective_drift_raises(self):
        A = -0.1 * np.eye(4)
        N = np.eye(4)
        Fminus = -np.eye(4)  # anti-damping bias stronger than the drift
        with pytest.raises(UnstableEffectiveDriftError):
            solve_riccati_biased(A, N, Fminus, np.zeros((4, 4)))


class TestSolveLyapunovComplex:
    """The production case: 2x2 complex mode-space drift, Hermitian X."""

    def test_manufactured_hermitian_solution(self):
        for _ in range(25):
            M = random_stable_drift()
            Z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            X_true = Z @ Z.conj().T + 0.1 * np.eye(2)
            N = -(M @ X_true + X_true @ M.conj().T)
            X, failed = solve_lyapunov(M, N)
            assert not failed
            np.testing.assert_array_equal(X, X.conj().T)
            assert np.abs(X - X_true).max() < 1e-12 * np.abs(X_true).max()

    def test_rejects_complex_symmetric_noise(self):
        N = np.array([[1.0, 0.5j], [0.5j, 1.0]])  # symmetric, not Hermitian
        X, failed = solve_lyapunov(-np.eye(2), N)
        assert failed and np.isnan(X).all()


class TestSolveRiccatiJordanDrift:
    """Equal rates, no detuning and F = 0 make the drift a Jordan block."""

    def test_manufactured_solution(self):
        A = embed_drift(np.array([[-1.0, 0.0], [-np.exp(0.3j), -1.0]]))
        for bias in (0.0, 0.05):
            V_true = random_spd(scale=0.5)
            Fminus = bias * random_spd(scale=0.1)
            Fplus = bias * random_spd(scale=0.1)
            Atil = A - Fminus
            assert np.linalg.eigvals(Atil + V_true @ Fplus).real.max() < -0.1
            N = -(Atil @ V_true + V_true @ Atil.T + V_true @ Fplus @ V_true)
            V = solve_riccati_biased(A, N, Fminus, Fplus)
            assert np.abs(V - V_true).max() < 1e-8 * max(np.abs(V_true).max(), 1.0)


class TestStackedKernels:
    """A stack (..., n, n) flags exactly the items whose single-matrix call
    fails, and every item equals the single-matrix result, NaN where failed."""

    @staticmethod
    def assert_matches_single_calls(solve, items, errors=None):
        """A single call of ``solve_lyapunov`` returns (X, failed) with a 0-d
        mask (``errors`` None); one of the Riccati oracle returns X or raises
        one of ``errors``."""
        X, failed = solve(*(np.stack(arg) for arg in zip(*items)))
        assert failed.shape == (len(items),)
        for i, args in enumerate(items):
            if errors is None:
                single, single_failed = solve(*args)
                assert np.shape(single_failed) == () and single_failed == failed[i], i
            else:
                try:
                    single = solve(*args)
                except errors:
                    single = np.full_like(X[i], np.nan)
                    assert failed[i], i
                else:
                    assert not failed[i], i
            assert not failed[i] or np.isnan(X[i]).all(), i
            np.testing.assert_array_equal(X[i], single)
        return failed

    def test_stability_margin(self):
        M = RNG.normal(size=(5, 3, 2, 2)) + 1j * RNG.normal(size=(5, 3, 2, 2))
        margin = stability_margin(M)
        assert margin.shape == (5, 3)
        for idx in np.ndindex(5, 3):
            assert margin[idx] == stability_margin(M[idx])

    def test_lyapunov(self):
        from noisecascade.cascaded import CascadedParams, build_system

        items = []
        for _ in range(20):
            Z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            items.append((random_stable_drift(), Z @ Z.conj().T))
        items[3] = (items[3][0], items[3][1] + np.array([[0.0, 0.5], [0.0, 0.0]]))  # not Hermitian
        items[7] = (np.diag([1j, -1.0]), items[7][1])  # lam + conj(lam) = 0: singular
        items[11] = (-items[11][0], items[11][1])  # unstable drift, still solvable
        # stable, but the solve misses the residual bound
        sys = build_system(CascadedParams(
            omega1=-0.06551653913936849, omega2=-0.04080148190474457,
            kappa1=5.965938124508871e-05, kappa2=4.939515479304317e-06,
            gamma1=0.4400109288295688, gamma2=0.006079275508285472,
            phi=0.4644741768341315, F=-426706.84265445295 - 214938.8136702364j,
            nbar1=1.679835083819845, nbar2=4.201539073060322, nbar3=2.435238425813368,
        ))
        items[15] = (sys.M, sys.N)
        failed = self.assert_matches_single_calls(solve_lyapunov, items)
        assert np.flatnonzero(failed).tolist() == [3, 7, 15]

    def test_riccati(self):
        from noisecascade.cascaded import CascadedParams, build_system
        import spectral_oracle

        items = []
        for s in np.linspace(-3.0, 3.0, 25):
            p = CascadedParams(
                omega1=RNG.uniform(-1, 1), omega2=RNG.uniform(-1, 1),
                kappa1=RNG.uniform(0.5, 2), kappa2=RNG.uniform(0.5, 2),
                gamma1=RNG.uniform(0.5, 2), gamma2=RNG.uniform(0.5, 2),
                phi=RNG.uniform(0, 2 * np.pi), F=RNG.uniform(-0.5, 0.5),
                nbar1=RNG.uniform(0, 3), nbar2=RNG.uniform(0, 3), nbar3=RNG.uniform(0, 3),
            )
            sys = build_system(p)
            c = len(items) % 3  # channel c + 1
            Fminus, Fplus = spectral_oracle.tilting(sys.U[..., c], sys.rate[..., c], sys.nbar[..., c], s)
            fm, fp = 0.5 * Fminus, 0.5 * Fplus
            items.append((sys.M, 2.0 * sys.N + fp, fm, fp))
        M, N, fm, fp = items[0]
        items.append((M, N, fm, np.full((2, 2), np.inf)))  # not finite
        items.append((M, N, fm + np.array([[0.0, 0.1], [0.0, 0.0]]), fp))  # not Hermitian
        items.append((M, N, -np.eye(2) + M, fp))  # anti-damping bias: unstable drift
        zero = np.zeros((2, 2))
        items.append((np.diag([1.0, 2.0]), np.eye(2), zero, zero))  # stable subspace [0; I]
        failed = self.assert_matches_single_calls(
            solve_riccati_biased, items,
            (UnstableEffectiveDriftError, riccati_oracle.NonSymmetricInputError),
        )
        assert failed[-4:].all() and 0 < failed[:-4].sum() < len(items) - 4


    def test_lyapunov_residual_per_item(self):
        # the residual A V + V A† + N is a whole-stack product; its checks stay per item
        stable = random_stable_drift()
        marginal = np.diag([0.0, -1.0])  # 0 + conj(0) = 0: singular
        A = np.stack([stable, marginal, stable, stable, marginal, stable])
        N = TestSharedFactorization.hermitian(len(A))
        N[2] = 1e-300 * N[2]  # scaled up to a max-norm in [1/2, 1) before the solve
        N[3, 0, 1] += 0.5  # not Hermitian
        items = list(zip(A, N))
        failed = self.assert_matches_single_calls(solve_lyapunov, items)
        assert failed.tolist() == [False, True, False, True, True, False]
        X, _ = solve_lyapunov(A, N)
        for i in np.flatnonzero(~failed):
            assert_same_bits(X[i], solve_lyapunov(*items[i])[0])


def assert_same_bits(actual, desired):
    actual, desired = (np.asarray(z, dtype=complex).reshape(-1) for z in (actual, desired))
    np.testing.assert_array_equal(actual.view(np.int64), desired.view(np.int64))


class TestStackedProducts:
    """The whole-stack product and trace of a product against matmul, for one
    matrix, stacks of several shapes and an empty stack; every stack item
    equals its one-matrix call bit for bit."""

    @staticmethod
    def random(shape, n):
        return RNG.normal(size=(*shape, n, n)) + 1j * RNG.normal(size=(*shape, n, n))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4), (0,)])
    def test_match_matmul(self, shape, n):
        X, Y = self.random(shape, n), self.random(shape, n)
        maxabs = (np.abs(Z).max(initial=0.0) for Z in (X, Y))
        bound = 4 * n * np.finfo(float).eps * np.prod(list(maxabs))
        XY, trace = stacked_product(X, Y), trace_product(X, Y)
        assert XY.shape == (*shape, n, n) and np.shape(trace) == shape
        assert np.abs(XY - X @ Y).max(initial=0.0) <= bound
        assert np.abs(trace - np.trace(X @ Y, axis1=-2, axis2=-1)).max(initial=0.0) <= bound

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_items_equal_single_calls(self, shape, n):
        X, Y = self.random(shape, n), self.random(shape, n)
        # transposed views too: their items are not contiguous rows
        for X, Y in ((X, Y), (X.swapaxes(-2, -1), Y.swapaxes(-2, -1))):
            XY, trace = stacked_product(X, Y), trace_product(X, Y)
            for idx in np.ndindex(shape):
                assert_same_bits(XY[idx], stacked_product(X[idx], Y[idx]))
                assert_same_bits(trace[idx], trace_product(X[idx], Y[idx]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_last_item_equals_single_call(self, n):
        # a SIMD loop may end a stack with a scalar tail; the last item of
        # stacks of every length mod 16 sits in one
        X, Y = self.random((2049,), n), self.random((2049,), n)
        for k in (*range(1, 18), 2049):
            i = k - 1
            assert_same_bits(stacked_product(X[:k], Y[:k])[i], stacked_product(X[i], Y[i]))
            assert_same_bits(trace_product(X[:k], Y[:k])[i], trace_product(X[i], Y[i]))


class TestSharedFactorization:
    """Sources broadcast against one drift share its factorized Kronecker
    operator; each item still equals its single call and is checked alone."""

    @staticmethod
    def hermitian(size):
        Z = RNG.normal(size=(size, 2, 2)) + 1j * RNG.normal(size=(size, 2, 2))
        return Z @ Z.conj().swapaxes(-2, -1)

    def test_items_sharing_a_drift_match_single_calls(self):
        drifts = np.stack([random_stable_drift() for _ in range(3)])
        A = drifts[RNG.integers(0, 3, size=30)]
        N = self.hermitian(30)
        N[4] = np.zeros((2, 2))
        N[9] = 1e-300 * N[9]  # scaled up to a max-norm in [1/2, 1) before the solve
        items = list(zip(A, N))
        failed = TestStackedKernels.assert_matches_single_calls(solve_lyapunov, items)
        assert not failed.any()

    def test_per_item_checks_within_one_drift(self):
        M = random_stable_drift()
        N = self.hermitian(4)
        N[0, 0, 1] += 0.5  # not Hermitian
        N[1] = 1e-300 * N[1]
        N[2] = 0.0
        items = [(M, X) for X in N]
        failed = TestStackedKernels.assert_matches_single_calls(solve_lyapunov, items)
        assert failed.tolist() == [True, False, False, False]
        X, _ = solve_lyapunov(M, N)
        np.testing.assert_array_equal(X[2], np.zeros((2, 2)))
        assert np.abs(X[1]).max() < 1e-280

    def test_repeated_singular_drift_flags_its_group(self):
        marginal = np.diag([1j, -1.0])  # lam + conj(lam) = 0
        unstable = np.diag([1.0, -1.0])  # 1 + (-1) = 0
        stable = random_stable_drift()
        A = np.stack([marginal, stable, unstable, marginal, stable, unstable, unstable])
        N = self.hermitian(len(A))
        failed = TestStackedKernels.assert_matches_single_calls(solve_lyapunov, list(zip(A, N)))
        assert failed.tolist() == [True, False, True, True, False, True, True]

    def test_factors_each_distinct_drift_once(self, monkeypatch):
        # one operator per drift as passed, shared by the sources broadcast against it
        operators = {"inv": 0, "slogdet": 0}
        for name in operators:
            kernel = getattr(np.linalg, name)

            def counted(K, kernel=kernel, name=name):
                operators[name] += np.prod(K.shape[:-2], dtype=int)
                return kernel(K)

            monkeypatch.setattr(np.linalg, name, counted)
        drifts = np.stack([random_stable_drift() for _ in range(21)])
        N = self.hermitian(21 * 5).reshape(21, 5, 2, 2)
        X, failed = solve_lyapunov(drifts[:, None], N)
        assert X.shape == (21, 5, 2, 2) and not failed.any()
        assert operators == {"inv": 21, "slogdet": 21}
        # the same bits as one drift per source, and as each single call
        assert_same_bits(X, solve_lyapunov(np.repeat(drifts[:, None], 5, axis=1), N)[0])
        assert operators == {"inv": 21 + 105, "slogdet": 21 + 105}
        operators.update(inv=0, slogdet=0)
        X, failed = solve_lyapunov(drifts[3], N[3])
        assert not failed.any() and operators == {"inv": 1, "slogdet": 1}
        for k in range(5):
            assert_same_bits(X[k], solve_lyapunov(drifts[3], N[3, k])[0])


def test_package_makes_no_matmul():
    # numpy's matmul makes one BLAS call per item of a stack, which costs far
    # more than a 2x2 product; the kernels use stacked_product and trace_product
    import noisecascade

    for path in pathlib.Path(noisecascade.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), path.name)
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), path.name


def test_kernels_raise_nothing():
    # kernels return a reason per item; raise_first raises.  linalg raises
    # nothing, and linear_response, flow_cumulants and large_deviation, with
    # every package function they call, raise only ValueError (a bad argument)
    package = pathlib.Path(noisecascade.__file__).parent
    functions = {}
    for name in ("linalg.py", "cascaded.py", "counting.py"):
        tree = ast.parse((package / name).read_text(), name)
        assert name != "linalg.py" or not any(isinstance(node, ast.Raise) for node in ast.walk(tree))
        functions.update({node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)})
    todo, seen = ["linear_response", "flow_cumulants", "large_deviation"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                todo.extend({node.func.id} - seen)
            if isinstance(node, ast.Raise):
                assert isinstance(node.exc, ast.Call) and node.exc.func.id == "ValueError", (
                    name, ast.unparse(node))
    assert {"unstable", "_unit_vector", "add_reason", "solve_lyapunov"} <= seen
    assert "raise_first" not in seen


def test_oracles_import_nothing_from_the_package():
    # an oracle that shares code with the package cannot catch its faults
    for name in ("quadrature_oracle.py", "riccati_oracle.py", "spectral_oracle.py",
                 "exact_cumulant_oracle.py", "exact_occupation_oracle.py"):
        tree = ast.parse(pathlib.Path(__file__).with_name(name).read_text(), name)
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        assert modules and not any(m.split(".")[0] == "noisecascade" for m in modules), name


def test_commands_import_no_private_names():
    # the commands run on the package's public functions: what a command needs
    # of another module is public there, and its tests and tracer see it
    package = pathlib.Path(noisecascade.__file__).parent
    for name in ("cli.py", "sweeps.py"):
        tree = ast.parse((package / name).read_text(), name)
        private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").split(".")[0] == "noisecascade")
                   for alias in node.names if alias.name.startswith("_")]
        assert not private, (name, private)


def test_package_deprecations_fail_the_suite():
    # pyproject's filterwarnings makes a DeprecationWarning raised in a
    # noisecascade module an error, so a numpy API fails the suite when numpy
    # deprecates it; one raised in another module stays a warning
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("deprecated", DeprecationWarning, "linalg.py", 1,
                               module="noisecascade.linalg")
    with pytest.warns(DeprecationWarning):
        warnings.warn_explicit("deprecated", DeprecationWarning, "other.py", 1, module="other")
