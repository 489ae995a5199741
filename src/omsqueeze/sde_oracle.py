"""Stochastic-trajectory estimate of the stationary quadrature variances.

Sampling the linear Langevin system df = M f dt + dW, <dW dW^T> = D dt,
gives a third variance estimate that shares no code path with the
spectral integral or the Lyapunov solve. The dynamics are linear, so the
step map is exact: over one step dt,

    f <- A f + B xi,   A = exp(M dt),   B B^T = Q = int_0^dt e^{Ms} D e^{M^T s} ds,

with xi standard normal. ``A`` and ``Q`` come from one 8x8 block
exponential (Van Loan, IEEE TAC 23:395, 1978), so the chain has no
discretization bias at any step size. Trajectories start from zero and
discard a burn-in, so the stationary state is reached by the dynamics,
never taken from the Lyapunov solution.

Estimates pool squared samples over an ensemble of independent
trajectories and over post-burn-in time; standard errors come from batch
means over 32 contiguous time batches, each pooled across the whole
ensemble (batches spanning several relaxation times are effectively
independent).

Determinism: every trajectory draws from its own generator spawned off the
root seed, segment boundaries depend only on the configuration, and all
reductions are fixed-order numpy sums, so a given (model, config) pair
yields bit-identical estimates on every run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DivergingTrajectory, UnstableSystem
from .stability import DriftModel, eigen_stable

__all__ = ["SimConfig", "SimEstimate", "simulate", "suggest_config"]

_N_BATCHES = 32
_MAX_SEGMENT = 4096          # steps per noise block, bounds memory
_DIVERGENCE_LIMIT = 1e6
_DT_FRACTION = 0.25          # suggested step: this over the fastest rate
_BURN_FACTOR = 10.0          # burn-in floor: this over the slowest rate
_TAYLOR_TERMS = 18           # exact to rounding once the norm is <= 1/2


@dataclass(frozen=True)
class SimConfig:
    """Sampling schedule, in units of 1/kappa.

    ``duration`` is the measured stretch after ``burn_in`` is discarded.
    """
    dt: float
    duration: float
    burn_in: float
    n_traj: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.dt, self.duration, self.burn_in))):
            raise ConfigError("dt, duration and burn_in must be finite")
        if self.dt <= 0.0 or self.duration <= 0.0 or self.burn_in < 0.0:
            raise ConfigError("dt and duration must be positive, burn_in non-negative")
        if self.n_traj < 1:
            raise ConfigError("need at least one trajectory")
        if self.duration < self.dt * _N_BATCHES:
            raise ConfigError(
                f"duration too short for {_N_BATCHES} batch means at dt={self.dt}"
            )


class SimEstimate(NamedTuple):
    var_q: float
    var_p: float
    stderr_q: float
    stderr_p: float


def _rates(M: np.ndarray) -> tuple[float, float]:
    """(fastest, slowest) rate scales of the drift, for the schedule."""
    lam = np.linalg.eigvals(M)
    # cavity decay sits on the trace even when eigenvalues mix
    kappa_eff = -0.5 * (M[2, 2] + M[3, 3])
    fastest = max(float(np.abs(lam).max()), kappa_eff)
    slowest = float((-lam.real).min())
    return fastest, slowest


def _check_schedule(cfg: SimConfig, M: np.ndarray) -> None:
    _, slowest = _rates(M)
    burn_floor = _BURN_FACTOR / slowest
    if cfg.burn_in < burn_floor * (1.0 - 1e-12):
        raise ConfigError(f"burn_in={cfg.burn_in} below relaxation floor {burn_floor:.3e}")


def suggest_config(dm: DriftModel, seed: int = 0, n_traj: int = 32,
                   batch_time: float = 5.0) -> SimConfig:
    """Schedule derived from the drift eigenvalues.

    ``batch_time`` sets each batch's length in units of the slowest
    relaxation time, keeping batch means near-independent. The step is a
    quarter of the fastest time scale: the step map is exact at any dt,
    but samples that close together resolve every mode, which keeps the
    batch-mean standard error small for the simulated time.
    """
    if not eigen_stable(dm.M):
        raise UnstableSystem("cannot schedule an unstable model")
    fastest, slowest = _rates(dm.M)
    return SimConfig(
        dt=float(_DT_FRACTION / fastest),
        duration=float(_N_BATCHES * batch_time / slowest),
        burn_in=float(1.2 * _BURN_FACTOR / slowest),
        n_traj=n_traj,
        seed=seed,
    )


def _expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential: scaling and squaring of a Taylor polynomial."""
    norm = float(np.abs(X).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.0 else 0
    X = X / 2.0 ** squarings
    term = out = np.eye(X.shape[0])
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ X / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _step_maps(M: np.ndarray, D: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the exact step f <- A f + B xi, with B B^T = Q.

    Van Loan: exp([[-M, D], [0, M^T]] dt) = [[., F12], [0, F22]] gives
    A = F22^T and Q = A F12. Q may be singular (zeros on the diagonal of
    D), so B comes from its eigendecomposition with rounding-level
    negative eigenvalues clipped to zero.
    """
    n = M.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -M
    block[:n, n:] = D
    block[n:, n:] = M.T
    F = _expm(block * dt)
    A = F[n:, n:].T
    Q = A @ F[:n, n:]
    w, U = np.linalg.eigh(0.5 * (Q + Q.T))
    return A, U * np.sqrt(np.clip(w, 0.0, None))


def simulate(dm: DriftModel, cfg: SimConfig) -> SimEstimate:
    """Estimate stationary Q and P variances by trajectory sampling.

    Raises DivergingTrajectory when any component passes 1e6, the symptom
    of a drift whose transient growth swamps the stationary state.
    """
    M, D = dm.M, dm.D
    if not eigen_stable(M):
        raise UnstableSystem("no stationary state to sample")
    _check_schedule(cfg, M)
    off_diag = D - np.diag(np.diag(D))
    if np.abs(off_diag).max() > 1e-14 * max(np.abs(D).max(), 1.0):
        raise ValueError("diffusion matrix must be diagonal")

    A, B = _step_maps(M, D, cfg.dt)
    at, bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)

    n_burn = math.ceil(cfg.burn_in / cfg.dt)
    n_meas = math.ceil(cfg.duration / cfg.dt)
    n_meas += (-n_meas) % _N_BATCHES
    batch_len = n_meas // _N_BATCHES

    rng_children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
    gens = [np.random.Generator(np.random.PCG64(c)) for c in rng_children]
    state = np.zeros((cfg.n_traj, 4))

    def advance(n_steps: int) -> np.ndarray:
        """Squared Q and P summed over the next n_steps of every trajectory."""
        nonlocal state
        sq_sum = np.zeros(2)
        done = 0
        while done < n_steps:
            chunk = min(_MAX_SEGMENT, n_steps - done)
            xi = np.empty((cfg.n_traj, chunk, 4))
            for i, gen in enumerate(gens):
                xi[i] = gen.standard_normal((chunk, 4))
            path = xi @ bt               # noise kicks, overwritten by the states
            for t in range(chunk):
                state = state @ at + path[:, t]
                path[:, t] = state
            peak = float(np.abs(path).max())
            if peak > _DIVERGENCE_LIMIT:
                raise DivergingTrajectory(
                    f"|f| reached {peak:.3e}; check the drift for transient growth"
                )
            sq_sum += (path[:, :, :2] ** 2).sum(axis=(0, 1))
            done += chunk
        return sq_sum

    advance(n_burn)

    samples_per_batch = float(cfg.n_traj * batch_len)
    batch_means = np.array([advance(batch_len) / samples_per_batch
                            for _ in range(_N_BATCHES)])

    mean = batch_means.mean(axis=0)
    stderr = batch_means.std(axis=0, ddof=1) / math.sqrt(_N_BATCHES)
    return SimEstimate(
        var_q=float(mean[0]), var_p=float(mean[1]),
        stderr_q=float(stderr[0]), stderr_p=float(stderr[1]),
    )
