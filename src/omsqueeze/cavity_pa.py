"""Baseline: parametric amplifier in a cavity, no mirror coupling.

With the optomechanical coupling switched off the cavity quadratures close
on themselves and their spectra follow from a 2x2 response, evaluated by
the package's one rule (mech_spectra ``_spectra``) with the mirror bath
left out: den times each input coupling is a real combination of
u = kappa + z and 1 in z = -i omega, and a spectrum is
(|A|^2 + |B|^2)(n_c + 1/2) over den's one factor pair,
z^2 + 2 kappa z + (kappa - 2G)(kappa + 2G). This is the reference
against which the coupled system's mechanical squeezing is compared: at
theta = 0 the intracavity phase quadrature squeezes by the same amount
the mirror momentum does at the optimal phase.

The cavity's 2x2 drift has eigenvalues -(kappa -+ 2G) at any theta and
-tr(M)/2 = kappa, so it decides by the marginal rule the three routes
share (``stability._decaying``): the cavity has a stationary state when
kappa - 2G exceeds 1e-12 kappa, and otherwise raises ``UnstableSystem``.

The variances are the spectra's integrals in closed form, the quadratic
case of the identity in the mech_spectra notes: in z = -i omega,
den = z^2 + 2 kappa z + a0 with a0 = (kappa - 2G)(kappa + 2G), and a
coupling b0 + b1 z over den contributes (b0^2/a0 + b1^2)/(4 kappa) to
its quadrature's variance. a0 is formed as that product, free of the
cancellation of kappa^2 - 4G^2, so the form keeps its relative accuracy
up to the marginal rule; it is evaluated in units of kappa, so no
intermediate over- or underflows at any unit of the rates.
"""
from __future__ import annotations

from math import cos, isfinite, sin, sqrt

from .errors import NonFiniteVariance, UnstableSystem
from .mech_spectra import _OUT_OF_RANGE, _spectra
from .params import SystemParams, thermal_occupation
from .stability import _decaying

__all__ = ["cavity_spectra", "cavity_variances"]


def _stationary(p: SystemParams) -> None:
    rate = p.kappa - 2.0 * p.G   # of the slow mode
    if not _decaying(rate, p.kappa):
        raise UnstableSystem(f"no stationary state: cavity decay rate kappa - 2G = "
                             f"{rate:.3e} is marginal or negative")


def _rows(p: SystemParams, optical: float = 1.0) -> tuple:
    """Coefficients of (u, 1) in den times the input couplings of the empty
    driven cavity, u = kappa + z, scaled by ``optical``.

    Nested (2, 2, 2): (A3, B3) feed the amplitude quadrature, (A4, B4) the
    phase quadrature, and B3 = A4 identically (the same PA cross term
    couples both ways).
    """
    s2k, gc, gs = _couplings(p, optical)
    return (((s2k, gc), (0.0, gs)),
            ((0.0, gs), (s2k, -gc)))


def _couplings(p: SystemParams, optical: float = 1.0) -> tuple[float, float, float]:
    s2k = optical * sqrt(2.0 * p.kappa)
    return s2k, s2k * 2.0 * p.G * cos(p.theta), s2k * 2.0 * p.G * sin(p.theta)


def _weight(p: SystemParams) -> float:
    # sqrt(n_c + 1/2), the optical bath weight of every coupling
    return sqrt(thermal_occupation(p.omega_c_phys, p.temperature) + 0.5)


def cavity_spectra(omega, p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized amplitude and phase quadrature spectra (S_x, S_y)."""
    import numpy as np
    _stationary(p)
    om = np.asarray(omega, dtype=float)
    # (u, 1) to z^0, z^1
    b = np.array(_rows(p, _weight(p))) @ np.array([[p.kappa, 1.0], [1.0, 0.0]])
    pair = (2.0 * p.kappa, (p.kappa - 2.0 * p.G) * (p.kappa + 2.0 * p.G))
    S_x, S_y = _spectra(b, [pair], om.ravel()).reshape((2,) + om.shape)
    return S_x, S_y


def cavity_variances(p: SystemParams) -> tuple[float, float]:
    """Stationary quadrature variances (var_x, var_y) of the empty cavity,
    in closed form (see the module notes).

    Raises UnstableSystem past the marginal rule and NonFiniteVariance when
    a variance overflows to inf or nan.
    """
    _stationary(p)
    # in units of kappa, where den's coefficients are 1, 2 and a0 / kappa^2
    x = 2.0 * p.G / p.kappa
    a0 = (1.0 - x) * (1.0 + x)
    # _rows to z^0 (z^1: s2k in A3 and B4) in floats; the check refuses inf or nan
    s2k, gc, gs = _couplings(p, _weight(p) / sqrt(p.kappa))
    bx, by, cross = s2k + gc / p.kappa, s2k - gc / p.kappa, gs / p.kappa
    var_x = (bx * bx / a0 + s2k * s2k + cross * cross / a0) / 4.0
    var_y = (cross * cross / a0 + (by * by / a0 + s2k * s2k)) / 4.0
    if not (isfinite(var_x) and isfinite(var_y)):
        raise NonFiniteVariance(_OUT_OF_RANGE)
    return var_x, var_y
