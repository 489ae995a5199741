"""Stochastic-trajectory estimate of the stationary quadrature variances.

Sampling the linear Langevin system df = M f dt + dW, <dW dW^T> = D dt,
gives a third variance estimate that shares no code path with the
spectral integral or the Lyapunov solve. The dynamics are linear, so the
step map is exact: over one step dt,

    f <- A f + B xi,   A = exp(M dt),   B B^T = Q = int_0^dt e^{Ms} D e^{M^T s} ds,

with xi standard normal. ``A`` and ``Q`` come from one block exponential
(Van Loan, IEEE TAC 23:395, 1978) over a sub-step dt / 2^k, the longest
whose product with the block's one-norm is at most 1/2, doubled k times
up to dt, so the chain has no discretization bias at any step size.
Trajectories start from zero and discard a burn-in, so the stationary
state is reached by the dynamics, never taken from the Lyapunov solution.
There is no divergence guard: from zero, k exact steps reach covariance
V - A^k V (A^k)^T <= V, the stationary V less a semidefinite term, so no
trajectory outgrows its stationary state, however non-normal M is. A huge
sample means a huge stationary variance, which is the answer.

Because the map is exact, the suggested step follows the slowest rate,
dt = 1/(2 slowest): resolving the fast modes would only add correlated
samples. The burn-in is 12 and each of the 32 batches 6 slowest
relaxation times, so every suggested run is 24 + 384 = 408 steps at any
stiffness. An explicit finer dt costs its step count: the chain takes one
product of drift-sized matrices per step.

Estimates pool squared samples over an ensemble of independent
trajectories and over post-burn-in time; standard errors come from batch
means over 32 contiguous time batches, each pooled across the whole
ensemble (batches spanning several relaxation times are effectively
independent; Flyvbjerg and Petersen, J. Chem. Phys. 91:461, 1989).

Determinism: every trajectory draws from its own generator spawned off the
root seed, segment boundaries depend only on the configuration, and all
reductions are fixed-order numpy sums, so a given (model, config) pair
yields bit-identical estimates on every run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, UnstableSystem
from .stability import DriftModel, _decay_rate

__all__ = ["SimConfig", "SimEstimate", "simulate", "suggest_config"]

_N_BATCHES = 32
_MAX_SEGMENT = 4096          # steps per noise draw, bounds memory
_BURN_FACTOR = 10.0          # burn-in floor: this over the slowest rate
_BATCH_TIME = 6.0            # suggested batch length, slowest relaxation times
_TAYLOR_TERMS = 18           # exact to rounding once the norm is <= 1/2
# trajectory steps (burn-in plus measured) a schedule may ask for; far above
# every schedule suggest_config picks, far below a run that never ends
_MAX_STEPS = 1e9
# trajectory-steps one noise segment holds: its noise and its path take 8
# bytes each per trajectory, step and mode, so 256 MiB per mode of the drift
_MAX_SEGMENT_SAMPLES = 2 ** 24


@dataclass(frozen=True)
class SimConfig:
    """Sampling schedule, in units of 1/kappa.

    ``duration`` is the measured stretch after ``burn_in`` is discarded.
    A schedule of more than 1e9 steps, or of more than 2^24
    trajectory-steps in one noise segment, is refused.
    """
    dt: float
    duration: float
    burn_in: float
    n_traj: int = 32
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
        steps = self.burn_in / self.dt + self.duration / self.dt
        if steps > _MAX_STEPS:
            raise ConfigError(
                f"schedule needs {steps:.3g} steps, more than the cap of {_MAX_STEPS:.0e}"
            )
        segment = self.n_traj * min(sum(self.steps()), _MAX_SEGMENT)
        if segment > _MAX_SEGMENT_SAMPLES:
            raise ConfigError(f"{self.n_traj} trajectories need {segment} trajectory-steps "
                              f"per noise segment, more than the cap of {_MAX_SEGMENT_SAMPLES}")

    def steps(self) -> tuple[int, int]:
        """(burn-in, measured) step counts; the measured count is rounded
        up to a multiple of the batch count."""
        n_meas = _whole_steps(self.duration, self.dt)
        return _whole_steps(self.burn_in, self.dt), n_meas + (-n_meas) % _N_BATCHES


def _whole_steps(span: float, dt: float) -> int:
    """Steps of dt that cover span. A ratio within rounding of an integer
    counts as that integer, so that the schedule read back from a table
    of 12 significant digits plans the same run."""
    ratio = span / dt
    nearest = round(ratio)
    return nearest if abs(ratio - nearest) <= 1e-9 * ratio else math.ceil(ratio)


class SimEstimate(NamedTuple):
    var_q: float
    var_p: float
    stderr_q: float
    stderr_p: float


def _slowest(M: np.ndarray, refusal: str) -> float:
    """Slowest decay rate of M; UnstableSystem(refusal) unless stable as in eigen_stable."""
    slowest, decaying = _decay_rate(M)
    if not decaying:
        raise UnstableSystem(refusal)
    return slowest


def suggest_config(dm: DriftModel, seed: int = 0, n_traj: int = SimConfig.n_traj) -> SimConfig:
    """Schedule at the slowest time scale: 408 steps at any working point.

    The step is half the slowest relaxation time: the step map is exact
    at any dt, and finer steps would only add correlated samples. Each
    batch spans six relaxation times, keeping batch means near-independent.
    """
    slowest = _slowest(dm.M, "cannot schedule an unstable model")
    return SimConfig(
        dt=float(0.5 / slowest),
        duration=float(_N_BATCHES * _BATCH_TIME / slowest),
        burn_in=float(1.2 * _BURN_FACTOR / slowest),
        n_traj=n_traj,
        seed=seed,
    )


def _expm(X: np.ndarray) -> np.ndarray:
    """Taylor polynomial of exp(X), exact to rounding for norm(X) <= 1/2."""
    import numpy as np
    term = out = np.eye(X.shape[0])
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ X / k
        out = out + term
    return out


def _step_maps(M: np.ndarray, D: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the exact step f <- A f + B xi, with B B^T = Q.

    Van Loan: exp([[-M, D], [0, M^T]] h) = [[., F12], [0, F22]] gives
    A = F22^T and Q = A F12. That block holds exp(-M h) and Q comes out of
    a cancellation against it, so h = dt / 2^k with h ||block||_1 <= 1/2,
    and k doublings Q <- Q + A Q A^T, A <- A^2 (each term PSD) reach dt.
    Q may be singular (zeros on the diagonal of D): B comes from its
    eigendecomposition with rounding-level negative eigenvalues clipped.
    """
    import numpy as np
    n = M.shape[0]
    block = np.block([[-M, D], [np.zeros_like(M), M.T]])
    scaled = dt * float(np.linalg.norm(block, 1))
    doublings = math.ceil(math.log2(2.0 * scaled)) if scaled > 0.5 else 0
    F = _expm(block * (dt / 2.0 ** doublings))
    A = F[n:, n:].T
    Q = A @ F[:n, n:]
    for _ in range(doublings):
        Q = Q + A @ Q @ A.T
        A = A @ A
    w, U = np.linalg.eigh(0.5 * (Q + Q.T))
    return A, U * np.sqrt(np.clip(w, 0.0, None))


def simulate(dm: DriftModel, cfg: SimConfig) -> SimEstimate:
    """Estimate the stationary variances of rows 0 and 1 (Q and P) by
    trajectory sampling.

    Refuses only what it cannot sample: UnstableSystem for a drift with no
    stationary state, ConfigError for a burn-in below 10 slowest relaxation
    times. ``DriftModel`` has already checked D.
    """
    import numpy as np
    M, D = dm.M, dm.D
    slowest = _slowest(M, "no stationary state to sample")
    burn_floor = _BURN_FACTOR / slowest
    if cfg.burn_in < burn_floor * (1.0 - 1e-12):
        raise ConfigError(f"burn_in={cfg.burn_in} below relaxation floor {burn_floor:.3e}")

    A, B = _step_maps(M, D, cfg.dt)

    n_burn, n_meas = cfg.steps()
    batch_len = n_meas // _N_BATCHES

    rng_children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
    gens = [np.random.Generator(np.random.PCG64(c)) for c in rng_children]
    state = np.zeros((cfg.n_traj, len(M)))

    def advance(n_steps: int) -> np.ndarray:
        """Squared Q and P summed over the next n_steps of every trajectory."""
        nonlocal state
        sq_sum = np.zeros(2)
        for start in range(0, n_steps, _MAX_SEGMENT):
            chunk = min(_MAX_SEGMENT, n_steps - start)
            xi = np.empty((cfg.n_traj, chunk, len(M)))
            for i, gen in enumerate(gens):
                gen.standard_normal(out=xi[i])
            # (steps, trajectories, modes): B xi of each step, overwritten in
            # place by that step's state f <- A f + B xi
            path = xi.transpose(1, 0, 2) @ B.T
            for row in path:
                row += state @ A.T
                state = row
            qp = path[:, :, :2]
            sq_sum += np.einsum("stk,stk->k", qp, qp)   # 4x faster than (qp ** 2).sum here
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
