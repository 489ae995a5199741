"""Stationary covariance solver against decoupled limits and scipy."""

import math

import numpy as np
import pytest
import scipy.linalg

from omsqueeze import (
    SystemParams,
    UnstableSystem,
    build_drift,
    solve_steady_state,
    steady_covariance,
)
from omsqueeze import lyapunov
from omsqueeze.stability import DriftModel

from conftest import draw_stable_params


class TestDecoupledLimits:
    def test_zero_coupling_zero_gain_is_thermal(self):
        p = SystemParams(gamma_m=1e-4, cooperativity=0.0, temperature=0.01)
        ss = solve_steady_state(p)
        cov = steady_covariance(build_drift(ss, p))
        expected = np.diag([ss.n_th_m + 0.5, ss.n_th_m + 0.5,
                            ss.n_th_c + 0.5, ss.n_th_c + 0.5])
        np.testing.assert_allclose(cov.V, expected, rtol=1e-12, atol=1e-15)

    def test_pa_only_squeezes_one_cavity_quadrature(self):
        # g = 0, theta = 0: cavity block decouples and diagonalizes
        p = SystemParams(gamma_m=1e-4, cooperativity=0.0, G=0.3)
        ss = solve_steady_state(p)
        cov = steady_covariance(build_drift(ss, p))
        assert cov.V[2, 2] == pytest.approx(0.5 / (1.0 - 2 * 0.3), rel=1e-12)
        assert cov.V[3, 3] == pytest.approx(0.5 / (1.0 + 2 * 0.3), rel=1e-12)
        assert cov.var_p == pytest.approx(0.5, rel=1e-12)  # mirror untouched


class TestWorkingPoints:
    def test_deep_squeezing_point(self, opt_params, opt_state):
        cov = steady_covariance(build_drift(opt_state, opt_params))
        assert cov.var_p == pytest.approx(0.2531920758182641, rel=1e-12)
        assert cov.var_q == pytest.approx(24.993208987166245, rel=1e-12)

    def test_rescaled_damping_point(self):
        p = SystemParams(gamma_m=1e-2, cooperativity=400.0, G=0.49,
                         theta=math.pi / 16)
        cov = steady_covariance(build_drift(solve_steady_state(p), p))
        assert cov.var_p == pytest.approx(0.2538023528094241, rel=1e-12)
        assert cov.var_q == pytest.approx(20.099465722842922, rel=1e-12)


class TestSolverProperties:
    def test_agrees_with_scipy_on_random_stable_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = draw_stable_params(rng)
            dm = build_drift(solve_steady_state(p), p)
            cov = steady_covariance(dm)
            ref = scipy.linalg.solve_continuous_lyapunov(dm.M, -dm.D)
            scale = np.abs(ref).max()
            np.testing.assert_allclose(cov.V, ref, rtol=0, atol=1e-10 * scale)

    def test_residual_and_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = draw_stable_params(rng)
            dm = build_drift(solve_steady_state(p), p)
            cov = steady_covariance(dm)
            np.testing.assert_array_equal(cov.V, cov.V.T)
            res = dm.M @ cov.V + cov.V @ dm.M.T + dm.D
            assert np.abs(res).max() < 1e-10 * np.abs(dm.D).max()
            assert cov.residual < 1e-10

    def test_one_linear_solve(self, opt_params, opt_state, monkeypatch):
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: calls.append(a.shape) or solve(a, b))
        steady_covariance(build_drift(opt_state, opt_params))
        assert calls == [(10, 10)]

    def test_assembly_equals_the_pair_loop(self):
        # reference: the reduced system filled entry by entry, pair by pair
        pairs = lyapunov._PAIRS
        col = {pair: n for n, pair in enumerate(pairs)}

        def loop_system(M, D):
            A = np.zeros((10, 10))
            b = np.zeros(10)
            for row, (i, j) in enumerate(pairs):
                for k in range(4):
                    A[row, col[(k, j) if k <= j else (j, k)]] += M[i, k]
                    A[row, col[(i, k) if i <= k else (k, i)]] += M[j, k]
                b[row] = -D[i, j]
            return A, b

        rng = np.random.default_rng(14)
        for _ in range(300):
            p = draw_stable_params(rng)
            dm = build_drift(solve_steady_state(p), p)
            # a dense perturbation fills every entry the drift leaves zero
            M = dm.M + rng.uniform() * rng.normal(size=(4, 4))
            for got, want in zip(lyapunov._reduced_system(M, dm.D),
                                 loop_system(M, dm.D)):
                np.testing.assert_array_equal(got, want)
                assert (np.signbit(got) == np.signbit(want)).all()

    def test_positive_definite(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = draw_stable_params(rng)
            cov = steady_covariance(build_drift(solve_steady_state(p), p))
            assert np.linalg.eigvalsh(cov.V).min() > 0.0


class TestGuards:
    def test_unstable_drift_rejected(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.6)
        dm = build_drift(solve_steady_state(p), p)
        with pytest.raises(UnstableSystem):
            steady_covariance(dm)

    def test_marginal_drift_rejected(self):
        dm = DriftModel(M=np.diag([-1e-13, -1.0, -1.0, -1.0]), D=np.eye(4))
        with pytest.raises(UnstableSystem):
            steady_covariance(dm)
