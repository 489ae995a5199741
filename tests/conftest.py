"""Shared fixtures: the optimal working point and random stable draws."""

import math

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
