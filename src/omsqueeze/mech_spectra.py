"""Mirror quadrature spectra in the frequency domain.

Solving the linearized Langevin equations by Fourier transform expresses
each mirror quadrature as a linear combination of the optical and thermal
input noises. The combination coefficients are rational functions of
frequency sharing a single quartic denominator; the symmetrized spectrum
of a quadrature is then a two-term sum over the input baths, and its
integral over the whole line gives the stationary variance.

The symmetrized sum pairs each coupling at +omega with its partner at
-omega. Every parameter of the linear system is real, so every coupling
obeys X(-omega) = X(omega)*, and the pair products are squared moduli:

    S = (|A|^2 + |B|^2)(n_c + 1/2) + (|E|^2 + |F|^2)(n_m + 1/2),

with each coupling evaluated once, at +omega. The result is real and even
in omega by construction. That is the one rule behind every spectrum in
the package: ``_symmetrized`` evaluates it here, for the homodyne output
(output_detection) and, without the mirror bath, for the empty cavity
(cavity_pa).

All frequencies are in cavity linewidth units, matching SystemParams.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .errors import NonPositiveVariance, UnstableSystem
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


@dataclass(frozen=True)
class SpectrumSample:
    """Symmetrized spectra on a frequency grid."""
    omega: np.ndarray
    S_Q: np.ndarray
    S_P: np.ndarray


@dataclass(frozen=True)
class VariancePair:
    var_q: float
    var_p: float


def _coeffs(omega, ss: SteadyState, p: SystemParams):
    """Vectorized transfer coefficients; returns (A1..F2, den) arrays.

    A couples a quadrature to c_in, B to c_in^dag; E and F play the same
    roles for the thermal inputs. Subscript 1 is the mirror Q quadrature,
    2 is P; E2 is F1 (both quadratures see one thermal cross term). The
    frequency-independent prework runs on Python scalars, and the shared
    quartic denominator is inverted once.
    """
    g = complex(ss.g)
    G, k, gam = p.G, p.kappa, p.gamma_m
    gr, gi = g.real, g.imag
    g2 = gr * gr + gi * gi

    u = k - 1j * omega
    v = 0.5 * gam - 1j * omega
    den = (u * v + g2) ** 2 - 4.0 * G * G * v * v

    eith = complex(cos(p.theta), sin(p.theta))
    alpha = eith * g.conjugate() - eith.conjugate() * g
    beta = eith * g.conjugate() + eith.conjugate() * g
    gg = g * g * eith.conjugate()
    big_gamma = gg + gg.conjugate()
    delta_gamma = gg - gg.conjugate()

    rden = 1.0 / den
    rk = sqrt(2.0 * k) * rden
    rg = sqrt(gam) * rden
    thermal = (u * u - 4.0 * G * G) * v + g2 * u

    A1 = 1j * rk * (v * (G * alpha - 1j * u * gi) - 1j * g2 * gi)
    B1 = rk * (v * (G * beta - u * gr) - g2 * gr)
    E1 = rg * (thermal + G * big_gamma)
    F1 = rg * (1j * G * delta_gamma)
    A2 = rk * (v * (G * beta + u * gr) + g2 * gr)
    B2 = -1j * rk * (v * (G * alpha + 1j * u * gi) + 1j * g2 * gi)
    F2 = rg * (thermal - G * big_gamma)
    return A1, B1, E1, F1, A2, B2, F1, F2, den


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


def _symmetrized(couplings, n_c: float, n_m: float) -> list:
    """Symmetrized two-bath spectra, one real array per quadrature.

    Each entry of ``couplings`` is (A, B, E, F) at +omega for one
    quadrature: A and B couple the optical bath, E and F the mirror bath
    (0.0 where a bath is absent).
    """
    nc = n_c + 0.5
    nm = n_m + 0.5
    return [(_abs2(A) + _abs2(B)) * nc + (_abs2(E) + _abs2(F)) * nm
            for A, B, E, F in couplings]


def spectrum(omega, ss: SteadyState, p: SystemParams) -> SpectrumSample:
    """Symmetrized spectra S_Q and S_P on a frequency grid."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    c = _coeffs(om, ss, p)
    S_Q, S_P = _symmetrized([c[:4], c[4:8]], ss.n_th_c, ss.n_th_m)
    return SpectrumSample(omega=om, S_Q=S_Q, S_P=S_P)


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

    var_q, var_p = integrate_line(f, width=report.decay_rate) / (2.0 * np.pi)
    return VariancePair(var_q=float(var_q), var_p=float(var_p))


def squeezing_db(variance: float) -> float:
    """Noise reduction below the vacuum level 1/2, in decibels."""
    if variance <= 0.0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    return -10.0 * np.log10(variance / 0.5)
