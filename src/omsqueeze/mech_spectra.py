"""Mirror quadrature spectra in the frequency domain.

Solving the linearized Langevin equations by Fourier transform expresses
each mirror quadrature as a linear combination of the optical and thermal
input noises. Every parameter is real, so every coupling obeys
X(-omega) = X(omega)*, and the symmetrized spectrum of a quadrature is
S = (|A|^2 + |B|^2)(n_c + 1/2) + (|E|^2 + |F|^2)(n_m + 1/2), real and even
by construction; its integral over the whole line is the variance.

The couplings share one quartic denominator, and with u = kappa - i omega
they are built from the complex factors

    v = gamma_m/2 - i omega,   s = u v + |g|^2,   T = u s - 4 G^2 v,
    den = (s - 2Gv)(s + 2Gv),

den free of the cancellation near threshold that the expanded
(uv + |g|^2)^2 - 4G^2 v^2 suffers. den times each coupling is a real
combination of these factors (``_mirror_rows``), so a spectrum is
sum(|numerator|^2) / |den|^2 with the bath weights folded into the rows:
one real product of rows and factors and one division per frequency.
That is the one rule (``_two_bath``) behind every spectrum in the
package: here, for the homodyne output (output_detection) and, without
the mirror bath, for the empty cavity (cavity_pa). The roots of den are
the drift poles, and the variance mesh is graded at every one of them.

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


def _factors(omega, ss: SteadyState, p: SystemParams):
    """The shared factors (v, s, T, den) at omega; see the module notes."""
    iw = 1j * omega
    v = 0.5 * p.gamma_m - iw
    u = p.kappa - iw
    s = u * v + abs(ss.g) ** 2
    T = u * s - (4.0 * p.G * p.G) * v
    twoP = (2.0 * p.G) * v
    return v, s, T, (s - twoP) * (s + twoP)


def _mirror_rows(ss: SteadyState, p: SystemParams, optical: float = 1.0,
                 thermal: float = 1.0) -> np.ndarray:
    """Coefficients of (s, v, T, 1) in den times each mirror coupling.

    Shape (2, 4, 4): the Q and P quadratures, then their couplings to
    c_in, c_in^dag and the thermal inputs (A, B, E, F; F of Q is E of P),
    then the factors. alpha = 2i Im(e^{i theta} g*), Gamma =
    2 Re(g^2 e^{-i theta}) and DeltaGamma = 2i Im(g^2 e^{-i theta}) are
    each real or imaginary, so every coefficient is real, e.g.
    A1 den = sqrt(2 kappa)(Im(g) s - G Im(alpha) v). ``optical`` and
    ``thermal`` scale the rows of each bath.
    """
    g, G = complex(ss.g), p.G
    w = complex(cos(p.theta), sin(p.theta)) * g.conjugate()
    gg = g * g * complex(cos(p.theta), -sin(p.theta))
    c = optical * sqrt(2.0 * p.kappa)
    gi, gr = c * g.imag, c * g.real
    a, b = 2.0 * G * c * w.imag, 2.0 * G * c * w.real
    m = thermal * sqrt(p.gamma_m)
    gamma, cross = 2.0 * m * G * gg.real, -2.0 * m * G * gg.imag
    return np.array([
        gi, -a, 0.0, 0.0,  -gr, b, 0.0, 0.0,        # A1, B1
        0.0, 0.0, m, gamma,  0.0, 0.0, 0.0, cross,  # E1, F1
        gr, b, 0.0, 0.0,  gi, a, 0.0, 0.0,          # A2, B2
        0.0, 0.0, 0.0, cross,  0.0, 0.0, m, -gamma,  # E2 = F1, F2
    ]).reshape(2, 4, 4)


def _combine(rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Real ``rows`` (..., k) times complex ``factors`` (k, n), as one real
    product on the interleaved real and imaginary parts."""
    out = rows.reshape(-1, rows.shape[-1]) @ factors.view(float)
    return out.reshape(rows.shape[:-1] + (-1,)).view(complex)


def _two_bath(numerators: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The one spectral rule: numerators (spectra, couplings, n), den times
    each coupling scaled by sqrt(n + 1/2) of its bath, to spectra (spectra, n)."""
    sq = (numerators.view(float) ** 2).sum(axis=1)
    d = den.view(float) ** 2
    return (sq[:, ::2] + sq[:, 1::2]) / (d[::2] + d[1::2])


def spectrum(omega, ss: SteadyState, p: SystemParams) -> SpectrumSample:
    """Symmetrized spectra S_Q and S_P on a frequency grid."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    v, s, T, den = _factors(om, ss, p)
    rows = _mirror_rows(ss, p, sqrt(ss.n_th_c + 0.5), sqrt(ss.n_th_m + 0.5))
    S_Q, S_P = _two_bath(_combine(rows, np.array([s, v, T, np.ones(om.size)])), den)
    return SpectrumSample(omega=om, S_Q=S_Q, S_P=S_P)


def quadrature_variances(ss: SteadyState, p: SystemParams) -> VariancePair:
    """Stationary quadrature variances by integrating the spectra.

    S_Q and S_P are integrated together in one adaptive pass, on a mesh
    graded at every drift pole. Raises UnstableSystem exactly when
    ``routh_hurwitz`` calls the point unstable, and QuadratureFailure when
    the integral misses its error budget within the panel cap.
    """
    report = routh_hurwitz(p, ss)
    if not report.stable:
        raise UnstableSystem("no stationary state: stability conditions violated")

    def f(om: np.ndarray) -> np.ndarray:
        s = spectrum(om, ss, p)
        return np.stack([s.S_Q, s.S_P])

    poles = [(lam.imag, -lam.real) for lam in report.poles]
    var_q, var_p = integrate_line(f, features=poles) / (2.0 * np.pi)
    return VariancePair(var_q=float(var_q), var_p=float(var_p))


def squeezing_db(variance: float) -> float:
    """Noise reduction below the vacuum level 1/2, in decibels."""
    if variance <= 0.0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    return -10.0 * np.log10(variance / 0.5)
