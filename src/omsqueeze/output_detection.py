"""Homodyne spectrum of the cavity output field.

The input-output relation c_out = sqrt(2 kappa) c - c_in turns the
intracavity solution into the travelling field a detector sees. Mixing
c_out with a local oscillator of phase phi selects one output quadrature;
its symmetrized spectrum is again the two-bath sum of mech_spectra
(``_symmetrized``, one imaginary-residual tolerance for the package),
with couplings built from combinations of the intracavity transfer
coefficients, and frequencies where it drops below the vacuum level 1/2
witness the mechanical squeezing in the detected beam.

Note the mechanical-noise routes into the output quadrature reuse the
optical-input coefficients of the mirror quadratures with a -sqrt(gamma_m)
prefactor. That structure is kept exactly as derived; it reproduces the
reference band half-width below, so it is cross-checked, not assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .params import SteadyState, SystemParams
from .mech_spectra import _coeffs, _symmetrized

__all__ = ["SqueezingBand", "detection_map", "find_band", "spectrum_zout"]

_EDGE_TOL = 1e-5      # bisection tolerance on band edges, units of kappa
_SEARCH_CAP = 10.0    # outward march limit, units of kappa
_VACUUM_MARGIN = 1e-12  # below vacuum by less than this is not a band


@dataclass(frozen=True)
class SqueezingBand:
    """Connected frequency interval around zero with sub-vacuum output noise."""
    phi: float
    omega_lo: float
    omega_hi: float
    min_S: float
    min_at: float

    @property
    def half_width(self) -> float:
        return 0.5 * (self.omega_hi - self.omega_lo)


def _output_arrays(omega: np.ndarray, phi: float, ss: SteadyState,
                   p: SystemParams):
    """Vectorized output couplings (A_z, B_z, E_z, F_z).

    (A_z, B_z) reads (I, R) at phi = 0 and (R, J) at phi = pi/2: the optical
    input reflected in phase, through the PA cross term and conjugated.
    E_z and F_z carry the mirror noise to the detector.
    """
    A1, B1, _, _, A2, B2, _, _, den = _coeffs(omega, ss, p)
    g2 = abs(ss.g) ** 2
    G, k, gam = p.G, p.kappa, p.gamma_m
    u = k - 1j * omega
    v = 0.5 * gam - 1j * omega
    two_gc = 2.0 * G * cos(p.theta)

    I = (2.0 * k / den) * v * (g2 + (u + two_gc) * v) - 1.0
    R = (4.0 * k / den) * G * sin(p.theta) * v * v
    J = (2.0 * k / den) * v * (g2 + (u - two_gc) * v) - 1.0

    cphi, sphi = cos(phi), sin(phi)
    sg = sqrt(gam)
    A_z = I * cphi + R * sphi
    B_z = R * cphi + J * sphi
    E_z = -sg * (A1 * cphi + B1 * sphi)
    F_z = -sg * (A2 * cphi + B2 * sphi)
    return A_z, B_z, E_z, F_z


def spectrum_zout(omega, phi: float, ss: SteadyState, p: SystemParams):
    """Symmetrized output quadrature spectrum on a frequency grid.

    Returns an array matching the shape of ``omega`` (scalar in, 0-d out).
    """
    om = np.asarray(omega, dtype=float)
    (S,), _ = _symmetrized(
        [(_output_arrays(om, phi, ss, p), _output_arrays(-om, phi, ss, p))],
        ss.n_th_c, ss.n_th_m)
    return S


def find_band(phi: float, ss: SteadyState, p: SystemParams) -> SqueezingBand | None:
    """Squeezing band of the output spectrum around zero frequency.

    Returns None when the spectrum at omega = 0 is at or above the vacuum
    level, where "at" includes a rounding-dust margin: a passive working
    point evaluates to 0.5 minus a few ulps and must not report a band.
    Only the connected sub-vacuum interval containing zero is reported; the
    spectrum is even, so the band is symmetric and the search runs on
    positive frequencies only.
    """
    def s(w):
        return float(spectrum_zout(np.float64(w), phi, ss, p))

    if s(0.0) >= 0.5 - _VACUUM_MARGIN:
        return None

    # march outward until the spectrum recrosses the vacuum level
    cap = _SEARCH_CAP * p.kappa
    lo, hi = 0.0, 1e-3 * p.kappa
    while s(hi) < 0.5:
        lo = hi
        if hi >= cap:
            break
        hi = min(2.0 * hi, cap)
    if lo >= cap:
        edge = cap   # sub-vacuum all the way out; report the cap as the edge
    else:
        while hi - lo > _EDGE_TOL:
            mid = 0.5 * (lo + hi)
            if s(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        edge = 0.5 * (lo + hi)

    grid = np.linspace(-edge, edge, 4097)
    vals = spectrum_zout(grid, phi, ss, p)
    k = int(np.argmin(vals))
    return SqueezingBand(
        phi=float(phi),
        omega_lo=-edge,
        omega_hi=edge,
        min_S=float(vals[k]),
        min_at=float(grid[k]),
    )


def detection_map(omega_grid, phi_grid, ss: SteadyState,
                  p: SystemParams) -> np.ndarray:
    """S_zout on the product grid, shaped (len(omega_grid), len(phi_grid))."""
    om = np.asarray(omega_grid, dtype=float)
    phis = np.asarray(phi_grid, dtype=float)
    out = np.empty((om.size, phis.size))
    for j, phi in enumerate(phis.ravel()):
        out[:, j] = spectrum_zout(om.ravel(), float(phi), ss, p)
    return out
