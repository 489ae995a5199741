"""Homodyne spectrum of the cavity output field.

The input-output relation c_out = sqrt(2 kappa) c - c_in turns the
intracavity solution into the travelling field a detector sees. Mixing
c_out with a local oscillator of phase phi selects one output quadrature;
its symmetrized spectrum follows the one rule of mech_spectra
(``_two_bath``), and frequencies where it drops below the vacuum level
1/2 witness the mechanical squeezing in the detected beam. den times each
output coupling is a real combination of the shared factors: the
reflections I, R and J of (v s, v P, den) with P = G v, the mirror-noise
routes of (s, v). The spectrum is real and even by construction, and the
factors are evaluated once for every phase of a grid.

Note the mechanical-noise routes into the output quadrature reuse the
optical-input coefficients of the mirror quadratures with a -sqrt(gamma_m)
prefactor. That structure is kept exactly as derived; it reproduces the
reference band half-width below, so it is cross-checked, not assumed.

The band search is a scalar bisection to 1e-5 kappa, evaluated in
batches. Zero and the outward march from 1e-3 kappa, doubling up to 10
kappa, are one spectrum call; each further call evaluates the 63 interior
points of the bracket's nested midpoint grid, each 0.5 * (a + b) of its
neighbours one level up: the floats the next six steps could visit.
Bisecting on grid indices then compares the same values at the same
floats as one call per step would, so the edges equal the scalar
bisection's bit for bit, in about five spectrum calls where one per step
took up to thirty. The minimum is then read on [0, edge], so it is
reported at omega >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .params import SteadyState, SystemParams
from .mech_spectra import _combine, _factors, _mirror_rows, _two_bath

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


def _output_couplings(omega: np.ndarray, phis: np.ndarray, ss: SteadyState,
                      p: SystemParams, optical: float = 1.0, thermal: float = 1.0):
    """den times the output couplings (A_z, B_z, E_z, F_z) at each phase of
    ``phis`` on the 1-d grid ``omega``, shape (phases, 4, n), and den.

    At phase phi the rows on (2 kappa v s - den, v^2, s, v) are cos(phi)
    times den (I, R, -sqrt(gamma_m) A1, -sqrt(gamma_m) A2) plus sin(phi)
    times den (R, J, -sqrt(gamma_m) B1, -sqrt(gamma_m) B2): I, R and J
    reflect the optical input in phase, through the PA cross term and
    conjugated, and the mirror's optical-input couplings carry its noise
    out. ``optical`` and ``thermal`` scale the couplings of each bath.
    """
    v, s, _, den = _factors(omega, ss, p)
    (A1, B1, _, _), (A2, B2, _, _) = _mirror_rows(
        ss, p, optical=-thermal * sqrt(p.gamma_m))[..., :2].tolist()
    q = 4.0 * p.kappa * p.G * optical
    qc, qs = q * cos(p.theta), q * sin(p.theta)
    rows = np.array([
        optical, qc, 0.0, 0.0,  0.0, qs, 0.0, 0.0,  0.0, 0.0, *A1,  0.0, 0.0, *A2,
        0.0, qs, 0.0, 0.0,  optical, -qc, 0.0, 0.0,  0.0, 0.0, *B1,  0.0, 0.0, *B2,
    ]).reshape(2, 16)
    rotation = np.array([np.cos(phis), np.sin(phis)]).T
    rows = (rotation @ rows).reshape(-1, 4, 4)
    X = np.array([(2.0 * p.kappa) * v * s - den, v * v, s, v])
    return _combine(rows, X), den


def _zout(omega: np.ndarray, phis: np.ndarray, ss: SteadyState,
          p: SystemParams) -> np.ndarray:
    # S_zout at each phase of phis on the 1-d grid omega, (phases, n)
    return _two_bath(*_output_couplings(omega, phis, ss, p, sqrt(ss.n_th_c + 0.5),
                                        sqrt(ss.n_th_m + 0.5)))


def spectrum_zout(omega, phi: float, ss: SteadyState, p: SystemParams):
    """Symmetrized output quadrature spectrum on a frequency grid.

    Returns an array matching the shape of ``omega`` (scalar in, 0-d out).
    """
    om = np.asarray(omega, dtype=float)
    return _zout(om.ravel(), np.array([phi], dtype=float), ss, p).reshape(om.shape)


def _bisect(s, lo: float, hi: float, tol: float) -> float:
    """Vacuum crossing in (lo, hi) by bisection to ``tol``, ``_LEVELS``
    steps per call of ``s`` on the bracket's nested midpoint grid (see the
    module notes)."""
    n = 2 ** _LEVELS
    grid = np.empty(n + 1)
    while hi - lo > tol:
        grid[0], grid[n] = lo, hi
        for step in (2 ** k for k in range(_LEVELS, 0, -1)):   # 64, 32, ..., 2
            grid[step // 2::step] = 0.5 * (grid[:-1:step] + grid[step::step])
        below = s(grid[1:-1]) < 0.5     # below[k - 1] is at grid[k]
        i, j = 0, n
        while j - i > 1 and grid[j] - grid[i] > tol:
            k = (i + j) // 2
            if below[k - 1]:
                i = k
            else:
                j = k
        lo, hi = float(grid[i]), float(grid[j])
    return 0.5 * (lo + hi)


def find_band(phi: float, ss: SteadyState, p: SystemParams) -> SqueezingBand | None:
    """Squeezing band of the output spectrum around zero frequency.

    Returns None when the spectrum at omega = 0 is at or above the vacuum
    level, where "at" includes a rounding-dust margin: a passive working
    point evaluates to 0.5 minus a few ulps and must not report a band.
    Only the connected sub-vacuum interval containing zero is reported; the
    spectrum is even, so the band is symmetric and the search runs on
    positive frequencies only. Zero and the whole outward march are one
    evaluation, and the bisection takes ``_LEVELS`` steps per evaluation.
    """
    def s(w):
        return spectrum_zout(w, phi, ss, p)

    # zero, then outward from 1e-3 kappa doubling up to the cap, in one
    # evaluation; the first point back at the vacuum level bounds the band
    cap = _SEARCH_CAP * p.kappa
    march = [0.0, 1e-3 * p.kappa]
    while march[-1] < cap:
        march.append(min(2.0 * march[-1], cap))
    values = s(np.array(march))
    if values[0] >= 0.5 - _VACUUM_MARGIN:
        return None
    above = np.flatnonzero(values >= 0.5)
    if above.size == 0:
        edge = cap   # sub-vacuum all the way out; report the cap as the edge
    else:
        i = int(above[0])   # at least 1, as the value at zero is below vacuum
        edge = _bisect(s, march[i - 1], march[i], _EDGE_TOL * p.kappa)

    grid = np.linspace(0.0, edge, 2049)   # the spectrum is even
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

    The factors are evaluated once for the whole grid, and every phase in
    one product.
    """
    om = np.asarray(omega_grid, dtype=float).ravel()
    phis = np.asarray(phi_grid, dtype=float).ravel()
    return _zout(om, phis, ss, p).T
