"""Mirror quadrature spectra in the frequency domain.

Solving the linearized Langevin equations by Fourier transform expresses
each mirror quadrature as a linear combination of the optical and thermal
input noises. The combination coefficients are rational functions of
frequency sharing a single quartic denominator; the symmetrized spectrum
of a quadrature is then a two-term sum over the input baths, and its
integral over the whole line gives the stationary variance.

That sum, Re[(A+A- + B+B-)(n_c + 1/2) + (E+E- + F+F-)(n_m + 1/2)] with
couplings at +-omega, is the one rule behind every spectrum in the
package: ``_symmetrized`` evaluates it here, for the homodyne output
(output_detection) and, without the mirror bath, for the empty cavity
(cavity_pa). An imaginary leftover above the one tolerance ``_IMAG_TOL``,
relative to the spectrum once it exceeds 1, raises ModelError.

All frequencies are in cavity linewidth units, matching SystemParams.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ModelError, NonPositiveVariance, UnstableSystem
from .params import SteadyState, SystemParams
from .quadrature import integrate_line
from .stability import routh_hurwitz

__all__ = [
    "SpectrumSample",
    "VariancePair",
    "quadrature_variances",
    "spectrum",
    "squeezing_db",
]

# slowest decay rate below this (units of kappa) puts a pole too near the
# axis for the variance integral to converge reliably
_MARGINAL_GUARD = 1e-9

# symmetrized spectra are real; larger leftovers, relative to max(1, |S|),
# flag a coefficient bug
_IMAG_TOL = 1e-6


@dataclass(frozen=True)
class SpectrumSample:
    """Symmetrized spectra on a frequency grid."""
    omega: np.ndarray
    S_Q: np.ndarray
    S_P: np.ndarray
    im_residual: float


@dataclass(frozen=True)
class VariancePair:
    var_q: float
    var_p: float


def _coeffs(omega, ss: SteadyState, p: SystemParams):
    """Vectorized transfer coefficients; returns (A1..F2, den) arrays.

    A couples a quadrature to c_in, B to c_in^dag; E and F play the same
    roles for the thermal inputs. Subscript 1 is the mirror Q quadrature,
    2 is P; E2 is F1 (both quadratures see one thermal cross term).
    """
    g = ss.g
    G, k, gam = p.G, p.kappa, p.gamma_m
    gr, gi = g.real, g.imag
    g2 = gr * gr + gi * gi

    u = k - 1j * omega
    v = 0.5 * gam - 1j * omega
    den = (u * v + g2) ** 2 - 4.0 * G * G * v * v

    eith = complex(np.cos(p.theta), np.sin(p.theta))
    alpha = eith * np.conj(g) - np.conj(eith) * g
    beta = eith * np.conj(g) + np.conj(eith) * g
    gg = g * g * np.conj(eith)
    big_gamma = gg + np.conj(gg)
    delta_gamma = gg - np.conj(gg)

    s2k = sqrt(2.0 * k)
    sg = sqrt(gam)

    A1 = (1j * s2k / den) * (v * (G * alpha - 1j * u * gi) - 1j * g2 * gi)
    B1 = (s2k / den) * (v * (G * beta - u * gr) - g2 * gr)
    E1 = (sg / den) * ((u * u - 4.0 * G * G) * v + g2 * u + G * big_gamma)
    F1 = (sg / den) * (1j * G * delta_gamma)
    A2 = (s2k / den) * (v * (G * beta + u * gr) + g2 * gr)
    B2 = (-1j * s2k / den) * (v * (G * alpha + 1j * u * gi) + 1j * g2 * gi)
    F2 = (sg / den) * ((u * u - 4.0 * G * G) * v + g2 * u - G * big_gamma)
    return A1, B1, E1, F1, A2, B2, F1, F2, den


def _symmetrized(pairs, n_c: float, n_m: float) -> tuple[list, float]:
    """Symmetrized two-bath spectra and the largest imaginary leftover.

    Each entry of ``pairs`` is ((A, B, E, F) at +omega, (A, B, E, F) at
    -omega) for one quadrature; the result holds one real spectrum per
    entry. Raises ModelError when the leftover passes ``_IMAG_TOL`` times
    max(1, largest |S|) of its spectrum.
    """
    nc = n_c + 0.5
    nm = n_m + 0.5
    raw = [(Ap * Am + Bp * Bm) * nc + (Ep * Em + Fp * Fm) * nm
           for (Ap, Bp, Ep, Fp), (Am, Bm, Em, Fm) in pairs]
    im_res = 0.0
    for S in raw:
        im = float(np.abs(S.imag).max())
        # im > _IMAG_TOL * max(1, |S|), with |S| found only when it matters
        if im > _IMAG_TOL and im > _IMAG_TOL * float(np.abs(S.real).max()):
            raise ModelError(f"spectrum imaginary residual {im:.3e}")
        im_res = max(im_res, im)
    return [S.real for S in raw], im_res


def spectrum(omega, ss: SteadyState, p: SystemParams) -> SpectrumSample:
    """Symmetrized spectra S_Q and S_P on a frequency grid."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    plus = _coeffs(om, ss, p)
    minus = _coeffs(-om, ss, p)
    (S_Q, S_P), im_res = _symmetrized(
        [(plus[:4], minus[:4]), (plus[4:8], minus[4:8])], ss.n_th_c, ss.n_th_m)
    return SpectrumSample(omega=om, S_Q=S_Q, S_P=S_P, im_residual=im_res)


def quadrature_variances(ss: SteadyState, p: SystemParams) -> VariancePair:
    """Stationary quadrature variances by integrating the spectra.

    S_Q and S_P are integrated together in one adaptive pass. Raises
    UnstableSystem when the operating point is unstable or close enough to
    marginal that the integral cannot converge.
    """
    report = routh_hurwitz(p, ss)
    if not report.stable:
        raise UnstableSystem("no stationary state: stability conditions violated")
    if report.decay_rate < _MARGINAL_GUARD * p.kappa:
        raise UnstableSystem("operating point too close to marginal stability")

    def f(om: np.ndarray) -> np.ndarray:
        s = spectrum(om, ss, p)
        return np.stack([s.S_Q, s.S_P])

    var_q, var_p = integrate_line(f) / (2.0 * np.pi)
    return VariancePair(var_q=float(var_q), var_p=float(var_p))


def squeezing_db(variance: float) -> float:
    """Noise reduction below the vacuum level 1/2, in decibels."""
    if variance <= 0.0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    return -10.0 * np.log10(variance / 0.5)
