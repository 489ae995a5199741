"""Trajectory estimator: exact step maps, determinism, statistics, schedule guards."""

import math

import numpy as np
import pytest
import scipy.linalg

from omsqueeze import (
    ConfigError,
    DivergingTrajectory,
    DriftModel,
    SimConfig,
    SystemParams,
    UnstableSystem,
    build_drift,
    simulate,
    solve_steady_state,
    steady_covariance,
    suggest_config,
)
from omsqueeze.sde_oracle import _expm, _step_maps

from conftest import draw_stable_params


def drift_for(gamma_m: float, cooperativity: float, G: float,
              theta: float) -> DriftModel:
    p = SystemParams(gamma_m=gamma_m, cooperativity=cooperativity, G=G,
                     theta=theta)
    return build_drift(solve_steady_state(p), p)


@pytest.fixture(scope="module")
def quick_model() -> DriftModel:
    # fast mirror decay keeps relaxation times short enough for cheap runs
    return drift_for(0.2, 10.0, 0.2, 0.3)


@pytest.fixture(scope="module")
def quick_config(quick_model) -> SimConfig:
    return suggest_config(quick_model, seed=11, n_traj=8, batch_time=2.0)


class TestSimConfig:
    def test_rejects_bad_schedules(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.0, duration=10.0, burn_in=1.0)
        with pytest.raises(ConfigError):
            SimConfig(dt=1e-3, duration=-1.0, burn_in=1.0)
        with pytest.raises(ConfigError):
            SimConfig(dt=1e-3, duration=10.0, burn_in=-0.1)
        with pytest.raises(ConfigError):
            SimConfig(dt=1e-3, duration=10.0, burn_in=1.0, n_traj=0)
        with pytest.raises(ConfigError):
            # fewer steps than batch means
            SimConfig(dt=1.0, duration=16.0, burn_in=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                SimConfig(dt=bad, duration=10.0, burn_in=1.0)
            with pytest.raises(ConfigError, match="finite"):
                SimConfig(dt=1e-3, duration=bad, burn_in=1.0)
            with pytest.raises(ConfigError, match="finite"):
                SimConfig(dt=1e-3, duration=10.0, burn_in=bad)

    def test_burn_in_floor(self, quick_model):
        slowest = float((-np.linalg.eigvals(quick_model.M).real).min())
        cfg = SimConfig(dt=1e-3, duration=100.0, burn_in=0.1 / slowest)
        with pytest.raises(ConfigError, match="burn_in"):
            simulate(quick_model, cfg)


class TestSuggestConfig:
    def test_schedule_respects_rates(self, quick_model):
        cfg = suggest_config(quick_model, seed=3, n_traj=5)
        M = quick_model.M
        lam = np.linalg.eigvals(M)
        fastest = max(float(np.abs(lam).max()), -0.5 * (M[2, 2] + M[3, 3]))
        slowest = float((-lam.real).min())
        assert cfg.dt * fastest == pytest.approx(0.25, rel=1e-12)
        assert cfg.burn_in * slowest >= 10.0
        assert cfg.duration >= 32 * cfg.dt
        assert cfg.n_traj == 5 and cfg.seed == 3

    def test_rejects_unstable_model(self, quick_model):
        dm = DriftModel(M=-quick_model.M, D=quick_model.D)
        with pytest.raises(UnstableSystem):
            suggest_config(dm)


class TestDeterminism:
    def test_bit_identical_reruns(self, quick_model, quick_config):
        first = simulate(quick_model, quick_config)
        second = simulate(quick_model, quick_config)
        assert first == second

    def test_seed_changes_estimate(self, quick_model, quick_config):
        other = SimConfig(dt=quick_config.dt, duration=quick_config.duration,
                          burn_in=quick_config.burn_in,
                          n_traj=quick_config.n_traj, seed=99)
        assert simulate(quick_model, other) != simulate(quick_model,
                                                        quick_config)


class TestStatistics:
    def test_thermal_point_matches_lyapunov(self):
        # diagonal drift: every quadrature is an independent OU process
        # with the vacuum variance 1/2
        dm = drift_for(0.2, 0.0, 0.0, 0.0)
        cfg = suggest_config(dm, seed=2, n_traj=16, batch_time=4.0)
        est = simulate(dm, cfg)
        assert steady_covariance(dm).var_q == pytest.approx(0.5, rel=1e-12)
        assert abs(est.var_q - 0.5) / est.stderr_q < 3.0
        assert abs(est.var_p - 0.5) / est.stderr_p < 3.0

    def test_squeezing_point_matches_lyapunov(self):
        dm = drift_for(1e-2, 400.0, 0.49, math.pi / 16)
        cfg = suggest_config(dm, seed=7, n_traj=16, batch_time=2.0)
        est = simulate(dm, cfg)
        cov = steady_covariance(dm)
        assert cov.var_p == pytest.approx(0.2538023528094241, rel=1e-12)
        assert abs(est.var_q - cov.var_q) / est.stderr_q < 3.0
        assert abs(est.var_p - cov.var_p) / est.stderr_p < 3.0


def _van_loan_blocks(n_draws: int):
    """(drift model, dt, block) over random stable draws and three steps
    per draw, from a quarter of the fastest time scale to four of it."""
    rng = np.random.default_rng(0)
    for _ in range(n_draws):
        p = draw_stable_params(rng)
        dm = build_drift(solve_steady_state(p), p)
        M = dm.M
        fastest = max(float(np.abs(np.linalg.eigvals(M)).max()),
                      -0.5 * (M[2, 2] + M[3, 3]))
        for k in (0.25, 1.0, 4.0):
            dt = k / fastest
            block = np.zeros((8, 8))
            block[:4, :4], block[:4, 4:], block[4:, 4:] = -M, dm.D, M.T
            yield dm, dt, block * dt


class TestStepMaps:
    def test_exponential_matches_scipy(self):
        # scipy's own error on these blocks reaches about 5e-13 against a
        # 40-digit reference; the Taylor exponential stays near 1e-14
        for _, _, block in _van_loan_blocks(50):
            ref = scipy.linalg.expm(block)
            err = np.abs(_expm(block) - ref).max() / np.abs(ref).max()
            assert err <= 1e-12
        for X in (np.zeros((3, 3)), np.diag([-30.0, 0.1, 2.0])):
            assert np.allclose(_expm(X), scipy.linalg.expm(X), rtol=1e-12, atol=0)

    def test_stationary_covariance_is_a_fixed_point(self):
        # the exact chain leaves the continuous stationary covariance
        # unchanged; V enters only here, never the sampler
        worst = 0.0
        for dm, dt, _ in _van_loan_blocks(50):
            V = steady_covariance(dm).V
            A, B = _step_maps(dm.M, dm.D, dt)
            worst = max(worst, np.abs(A @ V @ A.T + B @ B.T - V).max()
                        / np.abs(V).max())
        assert worst <= 1e-12

    def test_singular_noise_covariance(self):
        # zeros on the diagonal of D leave Q rank-deficient
        M = np.diag([-1.0, -2.0, -0.5, -0.5])
        M[0, 1] = 0.7
        D = np.diag([0.0, 2.0, 0.0, 0.0])
        A, B = _step_maps(M, D, 0.3)
        assert np.all(np.isfinite(B))
        V = scipy.linalg.solve_continuous_lyapunov(M, -D)
        assert np.allclose(A @ V @ A.T + B @ B.T, V, rtol=0, atol=1e-14)


class TestGuards:
    def test_unstable_model_rejected(self, quick_model):
        dm = DriftModel(M=-quick_model.M, D=quick_model.D)
        with pytest.raises(UnstableSystem):
            simulate(dm, SimConfig(dt=1e-3, duration=1.0, burn_in=1.0))

    def test_off_diagonal_diffusion_rejected(self, quick_model):
        D = quick_model.D.copy()
        D[0, 1] = 0.3
        with pytest.raises(ValueError, match="diagonal"):
            simulate(DriftModel(M=quick_model.M, D=D),
                     SimConfig(dt=1e-3, duration=1.0, burn_in=60.0))

    def test_divergence_detected(self):
        # stable eigenvalues but a huge non-normal transient: the schedule
        # checks pass while the trajectories blow through the limit
        M = np.diag([-0.01, -0.01, -0.01, -0.01])
        M[0, 1] = 1e9
        D = np.diag([0.0, 2.0, 0.0, 0.0])
        dm = DriftModel(M=M, D=D)
        cfg = SimConfig(dt=0.5, duration=16.0, burn_in=1000.0, n_traj=2,
                        seed=0)
        with pytest.raises(DivergingTrajectory):
            simulate(dm, cfg)
