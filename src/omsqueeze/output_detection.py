"""Homodyne spectrum of the cavity output field.

The input-output relation c_out = sqrt(2 kappa) c - c_in turns the
intracavity solution into the travelling field a detector sees. Mixing
c_out with a local oscillator of phase phi selects one output quadrature;
its symmetrized spectrum follows the one rule of mech_spectra
(``_spectra``), and frequencies where it drops below the vacuum level
1/2 witness the mechanical squeezing in the detected beam. den times each
output coupling is a real quartic in z = -i omega, built once for every
phase of a grid from the mirror's factor polynomials and pairs: the
reflections I, R and J on (2 kappa v s - den, v^2), the mirror-noise
routes on (s, v). 2 kappa v s - den nearly cancels at omega = 0 next to
threshold: a spectrum far below vacuum there is off by about
(1e-16 kappa / (kappa - 2G))^2.

Note the mechanical-noise routes into the output quadrature reuse the
optical-input coefficients of the mirror quadratures with a -sqrt(gamma_m)
prefactor. That structure is kept exactly as derived; it reproduces the
reference band half-width below, so it is cross-checked, not assumed.

The band search builds the rows and pairs once. It decides first, from
S_zout at omega = 0: the z^0 coefficients squared over den(0)^2 =
(q- q+)^2, summed in ``_spectra``'s order, the spectrum there bit for bit;
at or above vacuum it evaluates no grid. Else one spectrum call reads zero
and 256 geometric points from 1e-3 kappa to 10 kappa, and the edge lies in
the cell before the first point at or above vacuum. Each further call
evaluates that cell's 63 inner points, its ends keeping their side, and
takes the cell before the first point at or above vacuum among them, until
it is at most 1e-5 kappa wide: three refinements at most. The band is thus
the connected sub-vacuum interval around zero, resolved to the first
grid's spacing of 3.7% in omega; with no crossing on the first grid the
10 kappa cap is the edge. The minimum is read on [0, edge], at omega >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

from .params import SteadyState, SystemParams
from .mech_spectra import _optical_couplings, _spectra
from .stability import _factor_pairs

__all__ = ["SqueezingBand", "detection_map", "find_band", "spectrum_zout"]

_EDGE_TOL = 1e-5      # width of the last bracket on band edges, units of kappa
_SEARCH_CAP = 10.0    # the reported edge when no crossing is found, units of kappa
_VACUUM_MARGIN = 1e-12  # below vacuum by less than this is not a band
# the first grid of the band search, units of kappa: zero, then 256
# geometric points from 1e-3 to the cap, a tuple of Python floats: the
# module imports without numpy
_FIRST_GRID = (0.0, *(1e-3 * (1e3 * _SEARCH_CAP) ** (k / 255) for k in range(256)))
_CELL_POINTS = 65     # points across each bracket, its two ends included


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


def _output_couplings(phis: np.ndarray, ss: SteadyState, p: SystemParams,
                      optical: float = 1.0, thermal: float = 1.0) -> np.ndarray:
    """Coefficients of z^0 .. z^4 in den times the output couplings
    (A_z, B_z, E_z, F_z) at each phase of ``phis``, shape (phases, 4, 5).

    At phase phi the rows on (2 kappa v s - den, v^2, s, v) are cos(phi)
    times den (I, R, -sqrt(gamma_m) A1, -sqrt(gamma_m) A2) plus sin(phi)
    times den (R, J, -sqrt(gamma_m) B1, -sqrt(gamma_m) B2): I, R and J
    reflect the optical input in phase, through the PA cross term and
    conjugated, and the mirror's optical-input couplings carry its noise
    out. ``optical`` and ``thermal`` scale the couplings of each bath.
    """
    import numpy as np
    gi, gr, a, b = _optical_couplings(ss, p, -thermal * sqrt(p.gamma_m))
    q = 4.0 * p.kappa * p.G * optical
    qc, qs = q * cos(p.theta), q * sin(p.theta)
    rows = np.array([   # A1 = (gi, -a), A2 = (gr, b), B1 = (-gr, b), B2 = (gi, a)
        optical, qc, 0.0, 0.0,  0.0, qs, 0.0, 0.0,  0.0, 0.0, gi, -a,  0.0, 0.0, gr, b,
        0.0, qs, 0.0, 0.0,  optical, -qc, 0.0, 0.0,  0.0, 0.0, -gr, b,  0.0, 0.0, gi, a,
    ]).reshape(2, 16)
    rotation = np.array([np.cos(phis), np.sin(phis)]).T
    rows = (rotation @ rows).reshape(-1, 4)
    h = 0.5 * p.gamma_m   # s = s0 + s1 z + z^2 and v = h + z, of _factor_polynomials
    s0, s1 = p.kappa * h + abs(ss.g) ** 2, p.kappa + h
    (p_lo, q_lo), (p_hi, q_hi) = _factor_pairs(ss, p)
    k2 = 2.0 * p.kappa
    X = np.array([   # 2 kappa v s - den, v^2, s, v; den expanded from the pairs
        k2 * h * s0 - q_lo * q_hi, k2 * (h * s1 + s0) - (p_lo * q_hi + p_hi * q_lo),
        k2 * (h + s1) - (q_lo + q_hi + p_lo * p_hi), k2 - (p_lo + p_hi), -1.0,
        h * h, 2.0 * h, 1.0, 0.0, 0.0,  s0, s1, 1.0, 0.0, 0.0,  h, 1.0, 0.0, 0.0, 0.0,
    ]).reshape(4, 5)
    return (rows @ X).reshape(-1, 4, 5)


def _output_rows(phis: np.ndarray, ss: SteadyState, p: SystemParams) -> np.ndarray:
    # _output_couplings with each bath's weight sqrt(n + 1/2) folded in
    return _output_couplings(phis, ss, p, sqrt(ss.n_th_c + 0.5), sqrt(ss.n_th_m + 0.5))


def _at_zero(b: np.ndarray, pairs) -> float:
    # S_zout at omega = 0 for the rows b of one phase, bit for bit that of
    # _spectra: the z^0 coefficients squared, summed in its order, over den(0)
    (_, q_lo), (_, q_hi) = pairs
    total = 0.0
    for c in b[0, :, 0].tolist():
        total += c * c
    return total / ((q_lo * q_lo) * (q_hi * q_hi))


def spectrum_zout(omega, phi: float, ss: SteadyState, p: SystemParams):
    """Symmetrized output quadrature spectrum on a frequency grid.

    Returns an array matching the shape of ``omega`` (scalar in, 0-d out).
    """
    import numpy as np
    om = np.asarray(omega, dtype=float)
    b = _output_rows(np.array([phi], dtype=float), ss, p)
    return _spectra(b, _factor_pairs(ss, p), om.ravel()).reshape(om.shape)


def find_band(phi: float, ss: SteadyState, p: SystemParams) -> SqueezingBand | None:
    """Squeezing band of the output spectrum around zero frequency.

    Returns None, before any grid is evaluated, when the spectrum at
    omega = 0 is at or above the vacuum level, where "at" includes a
    rounding-dust margin: a passive working point evaluates to 0.5 minus a
    few ulps and must not report a band. Only the connected sub-vacuum
    interval containing zero is reported, as resolved by the first grid;
    its edge is the first vacuum crossing, refined to ``_EDGE_TOL`` kappa,
    or the ``_SEARCH_CAP`` kappa cap when the first grid finds none. The
    coefficient rows are built once, for every grid (see the module notes).
    The spectrum is even, so the band is symmetric and the search runs on
    positive frequencies only.
    """
    import numpy as np
    b, pairs = _output_rows(np.array([phi], dtype=float), ss, p), _factor_pairs(ss, p)
    if _at_zero(b, pairs) >= 0.5 - _VACUUM_MARGIN:
        return None

    def s(w):
        return _spectra(b, pairs, w)[0]

    grid = p.kappa * np.array(_FIRST_GRID)
    values = s(grid)
    edge = _SEARCH_CAP * p.kappa
    above = values >= 0.5
    while above.any():
        i = int(above.argmax())   # the first crossing, at least 1: zero is below
        lo, hi = grid[i - 1], grid[i]
        if hi - lo <= _EDGE_TOL * p.kappa:
            edge = float(0.5 * (lo + hi))
            break
        grid = np.linspace(lo, hi, _CELL_POINTS)
        # lo is below and hi above already; only the interior is evaluated
        above = np.concatenate(([False], s(grid[1:-1]) >= 0.5, [True]))

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

    The coefficient rows are built once for every phase, and the whole
    grid is evaluated in one product.
    """
    import numpy as np
    om = np.asarray(omega_grid, dtype=float).ravel()
    phis = np.asarray(phi_grid, dtype=float).ravel()
    return _spectra(_output_rows(phis, ss, p), _factor_pairs(ss, p), om).T
