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

The band search is a scalar bisection evaluated in batches. The outward
march from 1e-3 kappa, doubling up to 10 kappa, is one spectrum call;
each further call evaluates the 63 midpoints that the next six bisection
steps could visit, every one as 0.5 * (lo + hi) of its own interval, and
the search then walks the path the sub-vacuum tests choose. The walk
compares the same values at the same floats as one call per step would,
so the edges equal the scalar bisection's bit for bit; a search takes
about five spectrum calls where one call per step took up to thirty.
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
_LEVELS = 6           # bisection steps per spectrum evaluation


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


def _output_couplings(omega: np.ndarray, ss: SteadyState, p: SystemParams):
    """The phase-independent couplings (I, R, J, A1, B1, A2, B2) at omega.

    I, R and J reflect the optical input in phase, through the PA cross
    term and conjugated; A1, B1, A2, B2 are the mirror quadratures'
    optical-input coefficients that carry the mirror noise out.
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
    return I, R, J, A1, B1, A2, B2


def _at_phase(couplings, phi: float, p: SystemParams):
    """Output couplings (A_z, B_z, E_z, F_z) at local-oscillator phase phi.

    (A_z, B_z) reads (I, R) at phi = 0 and (R, J) at phi = pi/2; E_z and
    F_z carry the mirror noise to the detector.
    """
    I, R, J, A1, B1, A2, B2 = couplings
    cphi, sphi = cos(phi), sin(phi)
    sg = sqrt(p.gamma_m)
    A_z = I * cphi + R * sphi
    B_z = R * cphi + J * sphi
    E_z = -sg * (A1 * cphi + B1 * sphi)
    F_z = -sg * (A2 * cphi + B2 * sphi)
    return A_z, B_z, E_z, F_z


def _output_arrays(omega: np.ndarray, phi: float, ss: SteadyState,
                   p: SystemParams):
    """Vectorized output couplings (A_z, B_z, E_z, F_z) at phase phi."""
    return _at_phase(_output_couplings(omega, ss, p), phi, p)


def _zout(plus, minus, phi: float, ss: SteadyState, p: SystemParams):
    # the two-bath rule on couplings precomputed at +omega and -omega
    (S,), _ = _symmetrized([(_at_phase(plus, phi, p), _at_phase(minus, phi, p))],
                           ss.n_th_c, ss.n_th_m)
    return S


def spectrum_zout(omega, phi: float, ss: SteadyState, p: SystemParams):
    """Symmetrized output quadrature spectrum on a frequency grid.

    Returns an array matching the shape of ``omega`` (scalar in, 0-d out).
    """
    om = np.asarray(omega, dtype=float)
    return _zout(_output_couplings(om, ss, p), _output_couplings(-om, ss, p),
                 phi, ss, p)


def _bisect(s, lo: float, hi: float) -> float:
    """Vacuum crossing in (lo, hi) by bisection to ``_EDGE_TOL``.

    Each call of ``s`` evaluates, in heap order, every midpoint the next
    ``_LEVELS`` steps could visit, each as 0.5 * (lo + hi) of its own
    interval; walking the path then takes the same steps, on the same
    floats, as one evaluation per step would.
    """
    while hi - lo > _EDGE_TOL:
        mids, los, his = [], [lo], [hi]
        for _ in range(_LEVELS):
            next_los, next_his = [], []
            for a, b in zip(los, his):
                m = 0.5 * (a + b)
                mids.append(m)
                next_los += [a, m]
                next_his += [m, b]
            los, his = next_los, next_his
        below = s(np.array(mids)) < 0.5
        k = 0
        for _ in range(_LEVELS):
            if hi - lo <= _EDGE_TOL:
                break
            if below[k]:
                lo, k = mids[k], 2 * k + 2
            else:
                hi, k = mids[k], 2 * k + 1
    return 0.5 * (lo + hi)


def find_band(phi: float, ss: SteadyState, p: SystemParams) -> SqueezingBand | None:
    """Squeezing band of the output spectrum around zero frequency.

    Returns None when the spectrum at omega = 0 is at or above the vacuum
    level, where "at" includes a rounding-dust margin: a passive working
    point evaluates to 0.5 minus a few ulps and must not report a band.
    Only the connected sub-vacuum interval containing zero is reported; the
    spectrum is even, so the band is symmetric and the search runs on
    positive frequencies only. The whole outward march is one evaluation,
    and the bisection takes ``_LEVELS`` steps per evaluation.
    """
    def s(w):
        return spectrum_zout(w, phi, ss, p)

    if float(s(np.float64(0.0))) >= 0.5 - _VACUUM_MARGIN:
        return None

    # march outward from 1e-3 kappa, doubling up to the cap; the first
    # march point back at the vacuum level bounds the band
    cap = _SEARCH_CAP * p.kappa
    march = [1e-3 * p.kappa]
    while march[-1] < cap:
        march.append(min(2.0 * march[-1], cap))
    above = np.flatnonzero(s(np.array(march)) >= 0.5)
    if above.size == 0:
        edge = cap   # sub-vacuum all the way out; report the cap as the edge
    else:
        i = int(above[0])
        edge = _bisect(s, march[i - 1] if i else 0.0, march[i])

    grid = np.linspace(-edge, edge, 4097)
    vals = s(grid)
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
    """S_zout on the product grid, shaped (len(omega_grid), len(phi_grid)).

    The phase-independent couplings are evaluated once for the whole grid.
    """
    om = np.asarray(omega_grid, dtype=float).ravel()
    phis = np.asarray(phi_grid, dtype=float)
    plus = _output_couplings(om, ss, p)
    minus = _output_couplings(-om, ss, p)
    out = np.empty((om.size, phis.size))
    for j, phi in enumerate(phis.ravel()):
        out[:, j] = _zout(plus, minus, float(phi), ss, p)
    return out
