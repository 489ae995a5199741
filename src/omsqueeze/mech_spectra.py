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
the mirror bath, for the empty cavity (cavity_pa).

The variances are these integrals in closed form. In z = -i omega every
factor is a real polynomial, each numerator B(z) a real cubic with
coefficients b0 .. b3, and den the quartic
z^4 + a3 z^3 + a2 z^2 + a1 z + a0 whose roots are the drift poles, so it
is Hurwitz at a stable point. Then (1/2pi) int |B|^2/|den|^2 d omega is
the leading coefficient of the cubic X that solves the 4 x 4 linear
system B(z)B(-z) = X(z)den(-z) + X(-z)den(z) (James, Nichols and
Phillips, Theory of Servomechanisms, 1947; Astrom, Introduction to
Stochastic Control Theory, 1970, ch. 5). Solved by hand, with the Hurwitz
determinant Delta = a1 a2 a3 - a0 a3^2 - a1^2, it is the sum of squares

    a1 (b2 - b0 a3/a1)^2/(2 Delta) + b0^2/(2 a0 a1)
        + a3 (b1 - b3 a1/a3)^2/(2 Delta) + b3^2/(2 a3).

den's two quadratic factors s -+ 2Gv = z^2 + p z + q, with
p = gamma_m/2 + kappa -+ 2G and q = (gamma_m/2)(kappa -+ 2G) + |g|^2
(``stability._factor_pairs``, from which ``routh_hurwitz`` also forms
its conditions), are Hurwitz, so every p and q is positive there, and so
is each of a0 = q- q+, a1 = p- q+ + p+ q-, a3 = p- + p+ and
Delta = p- p+ ((2 G gamma_m)^2 + a3 a1): formed from the factors, none of
them cancels, also where Delta -> 0 next to the margin or where the
factors coincide at G = 0. The weights ``_variance_weights`` map the
polynomial coefficients of the factors to the four square roots, so a
variance pair is two small matrix products and a sum of squares. They
are formed in units of den's root scale a0^(1/4), so no intermediate
over- or underflows at any unit of the rates. The
route shares only the factor definitions with the spectra and the
stability decision, and no code with the drift matrix of the Lyapunov
and stochastic routes.

All frequencies are in cavity linewidth units, matching SystemParams.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin, sqrt

import numpy as np

from .errors import NonFiniteVariance, UnstableSystem
from .params import SteadyState, SystemParams
from .stability import _factor_pairs, routh_hurwitz

__all__ = [
    "SpectrumSample",
    "VariancePair",
    "quadrature_variances",
    "spectrum",
    "squeezing_db",
]

# the message of every NonFiniteVariance (no comma: it lands in a CSV cell)
_OUT_OF_RANGE = "the spectral coefficients leave the double-precision range"


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


def _factor_polynomials(ss: SteadyState, p: SystemParams) -> np.ndarray:
    """Coefficients of z^0 .. z^3 (columns) of the factors s, v, T and 1
    (rows) of ``_factors`` in z = -i omega, with t = (kappa - 2G)(kappa + 2G)."""
    k, h, g2 = p.kappa, 0.5 * p.gamma_m, abs(ss.g) ** 2
    t = (k - 2.0 * p.G) * (k + 2.0 * p.G)
    return np.array([
        [k * h + g2, k + h, 1.0, 0.0],
        [h, 1.0, 0.0, 0.0],
        [h * t + k * g2, t + 2.0 * k * h + g2, 2.0 * k + h, 1.0],
        [1.0, 0.0, 0.0, 0.0],
    ])


def _variance_weights(ss: SteadyState, p: SystemParams) -> np.ndarray:
    """W (4, 4) with (1/2pi) int |B|^2/|den|^2 d omega = |b @ W|^2 for every
    real cubic B of coefficients b; see the module notes. The forms are
    evaluated in units of r = a0^(1/4), the geometric mean of den's root
    magnitudes, where a0 = 1, and row i of W takes r^(i - 7/2) back."""
    (p_lo, q_lo), (p_hi, q_hi) = _factor_pairs(ss, p)
    r = sqrt(sqrt(q_lo) * sqrt(q_hi))
    rr = r * r
    p_lo, p_hi, q_lo, q_hi = p_lo / r, p_hi / r, q_lo / rr, q_hi / rr
    a1, a3 = p_lo * q_hi + p_hi * q_lo, p_lo + p_hi
    gap = 2.0 * p.G * p.gamma_m / rr   # q_hi - q_lo, formed without cancellation
    delta = p_lo * p_hi * (gap * gap + a3 * a1)
    even, odd = sqrt(0.5 * a1 / delta), sqrt(0.5 * a3 / delta)
    r3 = 1.0 / sqrt(r)           # r^(i - 7/2) for i = 3, 2, 1, 0
    r2 = r3 / r
    r1 = r2 / r
    r0 = r1 / r
    return np.array([
        [sqrt(0.5 / a1) * r0, -a3 / a1 * even * r0, 0.0, 0.0],
        [0.0, 0.0, odd * r1, 0.0],
        [0.0, even * r2, 0.0, 0.0],
        [0.0, 0.0, -a1 / a3 * odd * r3, sqrt(0.5 / a3) * r3],
    ])


def quadrature_variances(ss: SteadyState, p: SystemParams) -> VariancePair:
    """Stationary quadrature variances, the integrals of S_Q and S_P over
    the line, in closed form (see the module notes).

    Raises UnstableSystem exactly when ``routh_hurwitz`` calls the point
    unstable, and NonFiniteVariance when the forms leave the range of
    double precision.
    """
    if not routh_hurwitz(p, ss).stable:
        raise UnstableSystem("no stationary state: stability conditions violated")
    rows = _mirror_rows(ss, p, sqrt(ss.n_th_c + 0.5), sqrt(ss.n_th_m + 0.5))
    # overflow to inf or nan stays silent: the check below refuses it by name
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            weights = _variance_weights(ss, p)
        except ZeroDivisionError:   # a form underflows, at absurd parameters
            raise NonFiniteVariance(_OUT_OF_RANGE) from None
        roots = rows.reshape(8, 4) @ _factor_polynomials(ss, p) @ weights
        var_q, var_p = (roots * roots).reshape(2, 16).sum(axis=1).tolist()
    if not (isfinite(var_q) and isfinite(var_p)):
        raise NonFiniteVariance(_OUT_OF_RANGE)
    return VariancePair(var_q=var_q, var_p=var_p)


def squeezing_db(variance: float) -> float:
    """Noise reduction below the vacuum level 1/2, in decibels."""
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return -10.0 * np.log10(variance / 0.5)
