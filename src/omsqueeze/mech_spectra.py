"""Mirror quadrature spectra in the frequency domain.

Solving the linearized Langevin equations by Fourier transform expresses
each mirror quadrature as a linear combination of the optical and thermal
input noises. The combination coefficients are rational functions of
frequency sharing a single quartic denominator; the symmetrized spectrum
of a quadrature is then a two-term sum over the input baths, and its
integral over the whole line gives the stationary variance.

All frequencies are in cavity linewidth units, matching SystemParams.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (
    ModelError,
    NonPositiveVariance,
    SingularDenominator,
    UnstableSystem,
)
from .params import SteadyState, SystemParams
from .quadrature import integrate_line
from .stability import routh_hurwitz

__all__ = [
    "SpectrumSample",
    "TransferSet",
    "VariancePair",
    "quadrature_variances",
    "spectrum",
    "squeezing_db",
    "transfer_at",
]

# slowest decay rate below this (units of kappa) puts a pole too near the
# axis for the variance integral to converge reliably
_MARGINAL_GUARD = 1e-9

# symmetrized spectra are real; larger leftovers flag a coefficient bug
_IMAG_TOL = 1e-6


@dataclass(frozen=True)
class TransferSet:
    """Noise-to-quadrature transfer coefficients at one frequency.

    A couples the optical quadrature to c_in, B to c_in^dag; E and F play
    the same roles for the thermal inputs. Subscript 1 is the mirror Q
    quadrature, subscript 2 is P. ``den`` is the shared denominator.
    """
    omega: float
    A1: complex
    B1: complex
    E1: complex
    F1: complex
    A2: complex
    B2: complex
    E2: complex
    F2: complex
    den: complex


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
    """Vectorized transfer coefficients; returns (A1..F2, den) arrays."""
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


def transfer_at(omega: float, ss: SteadyState, p: SystemParams) -> TransferSet:
    """Transfer coefficients at a single frequency."""
    A1, B1, E1, F1, A2, B2, E2, F2, den = _coeffs(float(omega), ss, p)
    if abs(den) < 1e-300:
        raise SingularDenominator(f"transfer denominator vanishes at omega={omega}")
    return TransferSet(
        omega=float(omega),
        A1=complex(A1), B1=complex(B1), E1=complex(E1), F1=complex(F1),
        A2=complex(A2), B2=complex(B2), E2=complex(E2), F2=complex(F2),
        den=complex(den),
    )


def spectrum(omega, ss: SteadyState, p: SystemParams) -> SpectrumSample:
    """Symmetrized spectra S_Q and S_P on a frequency grid."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    A1p, B1p, E1p, F1p, A2p, B2p, E2p, F2p, _ = _coeffs(om, ss, p)
    A1m, B1m, E1m, F1m, A2m, B2m, E2m, F2m, _ = _coeffs(-om, ss, p)

    nc = ss.n_th_c + 0.5
    nm = ss.n_th_m + 0.5
    SQ = (A1p * A1m + B1p * B1m) * nc + (E1p * E1m + F1p * F1m) * nm
    SP = (A2p * A2m + B2p * B2m) * nc + (E2p * E2m + F2p * F2m) * nm

    im_res = float(max(np.abs(SQ.imag).max(), np.abs(SP.imag).max()))
    return SpectrumSample(omega=om, S_Q=SQ.real, S_P=SP.real, im_residual=im_res)


def _slowest_decay(p: SystemParams, g: complex) -> float:
    # smallest -Re(root) of the two characteristic quadratics
    # lam^2 + (gam/2 + kappa -+ 2G) lam + (gam/2)(kappa -+ 2G) + |g|^2
    k, gam, G = p.kappa, p.gamma_m, p.G
    g2 = abs(g) ** 2
    rates = []
    for sign in (-1.0, 1.0):
        b = gam / 2 + k + sign * 2 * G
        c = (gam / 2) * (k + sign * 2 * G) + g2
        disc = complex(b * b - 4 * c) ** 0.5
        rates += [((b - disc) / 2).real, ((b + disc) / 2).real]
    return min(rates)


def quadrature_variances(ss: SteadyState, p: SystemParams) -> VariancePair:
    """Stationary quadrature variances by integrating the spectra.

    S_Q and S_P are integrated together in one adaptive pass. Raises
    UnstableSystem when the operating point is unstable or close enough to
    marginal that the integral cannot converge.
    """
    report = routh_hurwitz(p, ss)
    if not report.stable:
        raise UnstableSystem("no stationary state: stability conditions violated")
    if _slowest_decay(p, ss.g) < _MARGINAL_GUARD * p.kappa:
        raise UnstableSystem("operating point too close to marginal stability")

    worst_imag = 0.0

    def f(om: np.ndarray) -> np.ndarray:
        nonlocal worst_imag
        s = spectrum(om, ss, p)
        worst_imag = max(worst_imag, s.im_residual)
        return np.stack([s.S_Q, s.S_P])

    var_q, var_p = integrate_line(f) / (2.0 * np.pi)
    if worst_imag > _IMAG_TOL:
        raise ModelError(f"spectrum imaginary residual {worst_imag:.3e}")
    return VariancePair(var_q=float(var_q), var_p=float(var_p))


def squeezing_db(variance: float) -> float:
    """Noise reduction below the vacuum level 1/2, in decibels."""
    if variance <= 0.0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    return -10.0 * np.log10(variance / 0.5)
