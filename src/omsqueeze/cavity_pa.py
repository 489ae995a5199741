"""Baseline: parametric amplifier in a cavity, no mirror coupling.

With the optomechanical coupling switched off the cavity quadratures close
on themselves and their spectra follow from a 2x2 response, evaluated by
the package's one rule (mech_spectra ``_two_bath``) with the mirror bath
left out: den times each input coupling is a real combination of
u = kappa - i omega and 1, and a spectrum is (|A|^2 + |B|^2)(n_c + 1/2)
with den = (u - 2G)(u + 2G), real and even by construction. The variance
mesh is graded at the slow pole, of decay rate kappa - 2G. This is the
reference against which the coupled system's mechanical squeezing is
compared: at theta = 0 the intracavity phase quadrature squeezes by the
same amount the mirror momentum does at the optimal phase.

Below threshold means G < kappa/2; at and above it the intracavity field
has no stationary state.
"""
from __future__ import annotations

from math import cos, sin, sqrt

import numpy as np

from .errors import AboveThreshold
from .mech_spectra import _two_bath
from .params import SystemParams, thermal_occupation
from .quadrature import integrate_line

__all__ = ["cavity_spectra", "cavity_variances"]


def _threshold_guard(p: SystemParams) -> None:
    if p.G >= 0.5 * p.kappa:
        raise AboveThreshold(
            f"G = {p.G} is at or above the parametric threshold kappa/2 = {0.5 * p.kappa}"
        )


def _coeff_arrays(omega: np.ndarray, p: SystemParams, optical: float = 1.0):
    """den times the input couplings of the empty driven cavity, scaled by
    ``optical``, and den.

    The couplings have shape (2, 2, n): (A3, B3) feed the amplitude
    quadrature, (A4, B4) the phase quadrature, and B3 = A4 identically (the
    same PA cross term couples both ways). The denominator u^2 - 4G^2 is
    formed as (u - 2G)(u + 2G), which keeps its relative accuracy near
    threshold, where u^2 and 4G^2 nearly cancel.
    """
    u = p.kappa - 1j * omega
    den = (u - 2.0 * p.G) * (u + 2.0 * p.G)
    s2k = optical * sqrt(2.0 * p.kappa)
    gc = s2k * 2.0 * p.G * cos(p.theta)
    gs = s2k * 2.0 * p.G * sin(p.theta)
    rows = np.array([[[s2k, gc], [0.0, gs]],
                     [[0.0, gs], [s2k, -gc]]])   # coefficients of (u, 1)
    return rows[..., :1] * u + rows[..., 1:], den


def cavity_spectra(omega, p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized amplitude and phase quadrature spectra (S_x, S_y)."""
    _threshold_guard(p)
    om = np.asarray(omega, dtype=float)
    weight = sqrt(thermal_occupation(p.omega_c_phys, p.temperature) + 0.5)
    S_x, S_y = _two_bath(*_coeff_arrays(om.ravel(), p, weight)).reshape((2,) + om.shape)
    return S_x, S_y


def cavity_variances(p: SystemParams) -> tuple[float, float]:
    """Stationary quadrature variances (var_x, var_y) of the empty cavity.

    The narrowest feature is the slow amplitude-phase mode, whose decay
    rate kappa - 2G grades the quadrature mesh.
    """
    _threshold_guard(p)
    var_x, var_y = integrate_line(lambda w: np.stack(cavity_spectra(w, p)),
                                  features=[(0.0, p.kappa - 2.0 * p.G)])
    return float(var_x) / (2.0 * np.pi), float(var_y) / (2.0 * np.pi)
