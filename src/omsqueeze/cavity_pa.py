"""Baseline: parametric amplifier in a cavity, no mirror coupling.

With the optomechanical coupling switched off the cavity quadratures close
on themselves and their spectra follow from a 2x2 response, evaluated by
the package's one two-bath rule (mech_spectra ``_symmetrized``, with its
one imaginary-residual tolerance) with the mirror bath left out. This is the
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
from .mech_spectra import _symmetrized
from .params import SystemParams, thermal_occupation
from .quadrature import integrate_line

__all__ = ["cavity_spectra", "cavity_variances"]


def _threshold_guard(p: SystemParams) -> None:
    if p.G >= 0.5 * p.kappa:
        raise AboveThreshold(
            f"G = {p.G} is at or above the parametric threshold kappa/2 = {0.5 * p.kappa}"
        )


def _coeff_arrays(omega: np.ndarray, p: SystemParams):
    """Input couplings (A3, B3, A4, B4) of the empty driven cavity.

    A3, B3 feed the amplitude quadrature; A4, B4 the phase quadrature.
    B3 = A4 identically (the same PA cross term couples both ways).
    """
    k, G = p.kappa, p.G
    u = k - 1j * omega
    den = u * u - 4.0 * G * G
    s2k = sqrt(2.0 * k)
    gc = 2.0 * G * cos(p.theta)
    gs = 2.0 * G * sin(p.theta)
    A3 = s2k * (u + gc) / den
    cross = s2k * gs / den
    B4 = s2k * (u - gc) / den
    return A3, cross, cross, B4


def cavity_spectra(omega, p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized amplitude and phase quadrature spectra (S_x, S_y)."""
    _threshold_guard(p)
    om = np.asarray(omega, dtype=float)
    A3p, B3p, A4p, B4p = _coeff_arrays(om, p)
    A3m, B3m, A4m, B4m = _coeff_arrays(-om, p)
    (S_x, S_y), _ = _symmetrized(
        [((A3p, B3p, 0.0, 0.0), (A3m, B3m, 0.0, 0.0)),
         ((A4p, B4p, 0.0, 0.0), (A4m, B4m, 0.0, 0.0))],
        thermal_occupation(p.omega_c_phys, p.temperature), 0.0)
    return S_x, S_y


def cavity_variances(p: SystemParams) -> tuple[float, float]:
    """Stationary quadrature variances (var_x, var_y) of the empty cavity.

    The narrowest feature is the slow amplitude-phase mode, whose decay
    rate kappa - 2G grades the quadrature mesh.
    """
    _threshold_guard(p)
    var_x, var_y = integrate_line(lambda w: np.stack(cavity_spectra(w, p)),
                                  width=p.kappa - 2.0 * p.G)
    return float(var_x) / (2.0 * np.pi), float(var_y) / (2.0 * np.pi)


def _var_y_theta0(p: SystemParams) -> float:
    # contour integral of the theta = 0 phase-quadrature Lorentzian;
    # internal oracle for the quadrature engine
    nc = thermal_occupation(p.omega_c_phys, p.temperature) + 0.5
    return p.kappa * nc / (p.kappa + 2.0 * p.G)
