"""Trajectory estimator: exact step maps, determinism, statistics, schedule guards."""

import math

import numpy as np
import pytest
import scipy.linalg

from omsqueeze import (
    ConfigError,
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
from omsqueeze.sde_oracle import _step_maps

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
    return suggest_config(quick_model, seed=11, n_traj=8)


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

    def test_step_cap(self):
        # burn-in and measured steps count together against the 1e9 cap
        SimConfig(dt=1e-3, duration=5e5, burn_in=4e5)
        with pytest.raises(ConfigError, match="1.2e\\+09 steps"):
            SimConfig(dt=1e-3, duration=6e5, burn_in=6e5)
        with pytest.raises(ConfigError, match="steps"):
            SimConfig(dt=1e-300, duration=1.0, burn_in=1000.0)

    def test_trajectory_cap(self):
        # one noise segment holds n_traj x min(steps, 4096) trajectory-steps,
        # at most 2^24; constructing a schedule allocates nothing
        SimConfig(dt=1.0, duration=4096.0, burn_in=0.0, n_traj=4096)
        SimConfig(dt=1.0, duration=32.0, burn_in=0.0, n_traj=2 ** 19)
        with pytest.raises(ConfigError, match="4097 trajectories"):
            SimConfig(dt=1.0, duration=4096.0, burn_in=0.0, n_traj=4097)
        with pytest.raises(ConfigError, match="trajectories"):
            SimConfig(dt=1.0, duration=131072.0, burn_in=1000.0, n_traj=100000)

    def test_burn_in_floor(self, quick_model):
        slowest = float((-np.linalg.eigvals(quick_model.M).real).min())
        cfg = SimConfig(dt=1e-3, duration=100.0, burn_in=0.1 / slowest)
        with pytest.raises(ConfigError, match="burn_in"):
            simulate(quick_model, cfg)


class TestSuggestConfig:
    def test_schedule_respects_rates(self, quick_model):
        # half the slowest relaxation time per step, a burn-in of 12 and
        # batches of 6 relaxation times
        cfg = suggest_config(quick_model, seed=3, n_traj=5)
        slowest = float((-np.linalg.eigvals(quick_model.M).real).min())
        assert cfg.dt * slowest == pytest.approx(0.5, rel=1e-12)
        assert cfg.burn_in * slowest == pytest.approx(12.0, rel=1e-12)
        assert cfg.duration * slowest == pytest.approx(32 * 6.0, rel=1e-12)
        assert cfg.n_traj == 5 and cfg.seed == 3

    def test_one_step_count_at_every_working_point(self):
        # 24 burn-in and 384 measured steps, whatever the stiffness; at
        # C = 1e12 a step of a quarter of the fastest time scale planned
        # more than 1e8 steps
        rng = np.random.default_rng(4)
        models = [build_drift(solve_steady_state(p), p)
                  for p in (draw_stable_params(rng) for _ in range(50))]
        models.append(drift_for(1e-2, 1e12, 0.3, 0.0))
        for dm in models:
            assert suggest_config(dm).steps() == (24, 384)

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
        cfg = suggest_config(dm, seed=2, n_traj=16)
        est = simulate(dm, cfg)
        assert steady_covariance(dm).var_q == pytest.approx(0.5, rel=1e-12)
        assert abs(est.var_q - 0.5) / est.stderr_q < 3.0
        assert abs(est.var_p - 0.5) / est.stderr_p < 3.0

    def test_squeezing_point_matches_lyapunov(self):
        dm = drift_for(1e-2, 400.0, 0.49, math.pi / 16)
        cfg = suggest_config(dm, seed=7, n_traj=16)
        est = simulate(dm, cfg)
        cov = steady_covariance(dm)
        assert cov.var_p == pytest.approx(0.2538023528094241, rel=1e-12)
        assert abs(est.var_q - cov.var_q) / est.stderr_q < 3.0
        assert abs(est.var_p - cov.var_p) / est.stderr_p < 3.0


def _fastest(M: np.ndarray) -> float:
    """The fastest rate scale of a paper drift: the largest |eigenvalue|,
    or the cavity decay on the trace where that is larger."""
    return max(float(np.abs(np.linalg.eigvals(M)).max()),
               -0.5 * (M[2, 2] + M[3, 3]))


def _stepped_draws(n_draws: int):
    """(drift model, dt) over random stable draws and three steps per
    draw, from a quarter of the fastest time scale to four of it."""
    rng = np.random.default_rng(0)
    for _ in range(n_draws):
        p = draw_stable_params(rng)
        dm = build_drift(solve_steady_state(p), p)
        fastest = _fastest(dm.M)
        for k in (0.25, 1.0, 4.0):
            yield dm, k / fastest


class TestStepMaps:
    def test_exponential_matches_scipy(self):
        # the drift's step map against scipy's scaling and squaring
        for dm, dt in _stepped_draws(50):
            ref = scipy.linalg.expm(dm.M * dt)
            A, _ = _step_maps(dm.M, dm.D, dt)
            assert np.abs(A - ref).max() / np.abs(ref).max() <= 1e-12

    def test_stationary_covariance_is_a_fixed_point(self):
        # the exact chain leaves the continuous stationary covariance
        # unchanged; V enters only here, never the sampler
        worst = 0.0
        for dm, dt in _stepped_draws(50):
            V = steady_covariance(dm).V
            A, B = _step_maps(dm.M, dm.D, dt)
            worst = max(worst, np.abs(A @ V @ A.T + B @ B.T - V).max()
                        / np.abs(V).max())
        assert worst <= 1e-12

    def test_noise_covariance_at_any_step(self):
        # Q = V - A V A^T; a single block exponential lost Q to cancellation
        # against exp(-M dt) from dt x fastest of about 20 on, and overflowed
        # from 160 on
        rng = np.random.default_rng(5)
        models = [build_drift(solve_steady_state(p), p)
                  for p in (draw_stable_params(rng) for _ in range(50))]
        worst = 0.0
        for scaled in (0.25, 1.0, 20.0, 40.0, 80.0, 160.0, 1e3, 1e4):
            for dm in models:
                A, B = _step_maps(dm.M, dm.D, scaled / _fastest(dm.M))
                V = steady_covariance(dm).V
                Q = V - A @ V @ A.T
                worst = max(worst, np.abs(B @ B.T - Q).max() / np.abs(Q).max())
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
        # one off-diagonal entry without its mirror image: not symmetric
        D = quick_model.D.copy()
        D[0, 1] = 0.3
        with pytest.raises(ValueError, match="symmetric"):
            simulate(DriftModel(M=quick_model.M, D=D),
                     SimConfig(dt=1e-3, duration=1.0, burn_in=60.0))

    def test_off_diagonal_psd_diffusion_matches_lyapunov(self, quick_model):
        # a correlated noise source on Q and the cavity x quadrature
        v = np.array([1.0, 0.0, 0.6, 0.0])
        dm = DriftModel(M=quick_model.M, D=quick_model.D + 0.3 * np.outer(v, v))
        cov = steady_covariance(dm)
        assert abs(cov.var_q - steady_covariance(quick_model).var_q) > 0.05
        est = simulate(dm, suggest_config(dm, seed=5, n_traj=8))
        assert abs(est.var_q - cov.var_q) / est.stderr_q < 3.0
        assert abs(est.var_p - cov.var_p) / est.stderr_p < 3.0

    def test_indefinite_diffusion_rejected(self):
        dm = drift_for(1e-2, 20.0, 0.3, 0.4)
        D = dm.D.copy()
        D[1, 1] = -D[1, 1]
        with pytest.raises(ValueError, match="positive semidefinite"):
            simulate(DriftModel(M=dm.M, D=D), suggest_config(dm, n_traj=2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_drift_rejected(self, quick_model, quick_config, bad):
        M = quick_model.M.copy()
        M[0, 0] = bad
        dm = DriftModel(M=M, D=quick_model.D)
        with pytest.raises(ValueError, match="drift matrix must be finite"):
            suggest_config(dm)
        with pytest.raises(ValueError, match="drift matrix must be finite"):
            simulate(dm, quick_config)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_diffusion_rejected(self, quick_model, quick_config, bad):
        # refused by name when the model is built, before either route runs
        D = quick_model.D.copy()
        D[1, 1] = bad
        with pytest.raises(ValueError, match="diffusion matrix must be finite"):
            steady_covariance(DriftModel(M=quick_model.M, D=D))
        with pytest.raises(ValueError, match="diffusion matrix must be finite"):
            simulate(DriftModel(M=quick_model.M, D=D), quick_config)

    def test_one_eigendecomposition_per_call(self, quick_model, quick_config,
                                             monkeypatch):
        # stability and the rate scales come from the same eigenvalues
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda M: calls.append(M) or eigvals(M))
        suggest_config(quick_model)
        assert len(calls) == 1
        simulate(quick_model, quick_config)
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_huge_non_normal_transient_is_sampled(self, seed):
        # stable eigenvalues and a 1e9 shear: the stationary V00 is 5e23,
        # and an exact step from zero never outgrows it, so samples of
        # about 7e11 are the answer, not a divergence
        M = np.diag([-0.01, -0.01, -0.01, -0.01])
        M[0, 1] = 1e9
        dm = DriftModel(M=M, D=np.diag([0.0, 2.0, 0.0, 0.0]))
        cov = steady_covariance(dm)
        assert cov.var_q == pytest.approx(5e23, rel=1e-12)
        est = simulate(dm, suggest_config(dm, seed=seed, n_traj=16))
        assert abs(est.var_q - cov.var_q) / est.stderr_q < 3.0
        assert abs(est.var_p - cov.var_p) / est.stderr_p < 3.0


class TestOtherSizes:
    @pytest.mark.parametrize("n", [2, 6])
    def test_matches_lyapunov(self, n):
        # the sampler takes its state and noise size from the drift
        M = np.diag(-np.linspace(0.5, 2.0, n))
        M[0, 1] = 0.7
        dm = DriftModel(M=M, D=np.diag(np.linspace(1.0, 2.0, n)))
        est = simulate(dm, suggest_config(dm, seed=0, n_traj=16))
        V = scipy.linalg.solve_continuous_lyapunov(M, -dm.D)
        assert abs(est.var_q - V[0, 0]) / est.stderr_q < 3.0
        assert abs(est.var_p - V[1, 1]) / est.stderr_p < 3.0
