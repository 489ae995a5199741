"""Shared fixtures: the optimal working point and random draws, stable
and next to the margin, and a pointwise reading of coefficient rows."""

import math

import numpy as np
import pytest

from omsqueeze import SystemParams, solve_steady_state
from omsqueeze.cli import _draw_mech_params as draw_stable_params  # noqa: F401

# deep-squeezing working point used across the suite: high cooperativity,
# gain just under threshold, phase aligned with the coupling
OPT = dict(gamma_m=1e-5, cooperativity=400.0, G=0.49, theta=math.pi / 16)


@pytest.fixture(scope="session")
def opt_params():
    return SystemParams(**OPT)


@pytest.fixture(scope="session")
def opt_state(opt_params):
    return solve_steady_state(opt_params)


def draw_low_damping_params(rng):
    """A working point from the low-damping box, stable or not: the mirror
    damping reaches down to 1e-9 kappa and the cooperativity spans six
    decades."""
    return SystemParams(
        gamma_m=float(10.0 ** rng.uniform(-9.0, -4.0)),
        cooperativity=float(10.0 ** rng.uniform(-2.0, 4.0)),
        G=float(rng.uniform(0.0, 0.5)),
        theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        temperature=float(rng.choice([0.0, 0.02])),
    )


def draw_near_marginal_params(rng):
    """A working point whose slowest decay rate may lie just above the
    margin: a mirror damped at 10^U(-12.5, -9) kappa at any coupling, gain,
    phase and temperature, or a bare cavity 10^U(-12, -8) kappa below the
    parametric threshold."""
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    temperature = float(rng.choice([0.0, 0.02]))
    if rng.uniform() < 0.5:
        return SystemParams(gamma_m=float(10.0 ** rng.uniform(-12.5, -9.0)),
                            cooperativity=float(10.0 ** rng.uniform(-2.0, 4.0)),
                            G=float(rng.uniform(0.0, 0.5)), theta=theta,
                            temperature=temperature)
    return SystemParams(gamma_m=float(10.0 ** rng.uniform(-5.0, -2.0)),
                        cooperativity=0.0,
                        G=float(0.5 - 10.0 ** rng.uniform(-12.0, -8.0)),
                        theta=theta, temperature=temperature)


def evaluate_rows(b, pairs, omega: float):
    """The couplings of the real coefficient rows ``b`` (..., powers of z)
    over den = prod(z^2 + p z + q) on ``pairs``, and den, at
    z = -i omega in complex arithmetic."""
    z = -1j * float(omega)
    den = np.prod([z * z + pp * z + q for pp, q in pairs])
    return b @ z ** np.arange(b.shape[-1]) / den, den
