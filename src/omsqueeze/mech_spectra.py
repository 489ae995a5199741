"""Mirror quadrature spectra in the frequency domain.

Solving the linearized Langevin equations by Fourier transform expresses
each mirror quadrature as a linear combination of the optical and thermal
input noises. The symmetrized spectrum of a quadrature is
S = (|A|^2 + |B|^2)(n_c + 1/2) + (|E|^2 + |F|^2)(n_m + 1/2); its integral
over the whole line is the variance.

In z = -i omega, with the factors

    v = gamma_m/2 + z,   u = kappa + z,   s = u v + |g|^2,   T = u s - 4 G^2 v,

every coupling has the denominator den = (s - 2Gv)(s + 2Gv), whose
factors z^2 + p z + q, p = gamma_m/2 + kappa -+ 2G and
q = (gamma_m/2)(kappa -+ 2G) + |g|^2, are the pairs of
``stability._factor_pairs``; its roots are the drift poles. den times each coupling is a real
combination of s, v, T and 1 (``_mirror_rows``), so on the factors'
coefficients (``_factor_polynomials``, t = (kappa - 2G)(kappa + 2G)
formed as that product) a real cubic. One table of these coefficients,
bath weights sqrt(n + 1/2) folded in (``_mirror_polynomials``), is what
the spectra evaluate and the variances integrate.

That is the one spectral rule (``_spectra``) behind every spectrum in
the package, here, for the homodyne output (output_detection) and, on
its one pair, for the empty cavity (cavity_pa). The even powers of a
real polynomial give its real part at z = -i omega, a polynomial in
omega^2, and the odd ones omega times another, its imaginary part up to
sign, so every spectrum is even bit for bit; each factor of den
contributes (q - omega^2)^2 + p^2 omega^2, two squares that cannot cancel.

The variances are these integrals in closed form. For a cubic B(z) of
coefficients b0 .. b3 and den = z^4 + a3 z^3 + a2 z^2 + a1 z + a0,
Hurwitz at a stable point, (1/2pi) int |B|^2/|den|^2 d omega is the
leading coefficient of the cubic X that solves the 4 x 4 linear system
B(z)B(-z) = X(z)den(-z) + X(-z)den(z) (James, Nichols and Phillips,
Theory of Servomechanisms, 1947; Astrom, Introduction to Stochastic
Control Theory, 1970, ch. 5). Solved by hand, with the Hurwitz
determinant Delta = a1 a2 a3 - a0 a3^2 - a1^2, it is the sum of squares

    a1 (b2 - b0 a3/a1)^2/(2 Delta) + b0^2/(2 a0 a1)
        + a3 (b1 - b3 a1/a3)^2/(2 Delta) + b3^2/(2 a3).

The pairs are Hurwitz there, so every p and q is positive, and so is
each of a0 = q- q+, a1 = p- q+ + p+ q-, a3 = p- + p+ and
Delta = p- p+ ((2 G gamma_m)^2 + a3 a1): formed from the pairs, none of
them cancels, also where Delta -> 0 next to the margin or where the
factors coincide at G = 0. The six nonzero weights ``_variance_weights``
map the polynomial coefficients to the four square roots, so a variance
pair is float arithmetic on the nonzero coefficients and weights and a
sum of squares, with no array and no numpy. They are formed in
units of den's root scale a0^(1/4), so no intermediate over- or
underflows at any unit of the rates. The route shares its coefficient
rows with the spectra and the factor pairs with the stability decision,
and no code with the drift matrix of the Lyapunov and stochastic routes.

All frequencies are in cavity linewidth units, matching SystemParams.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, log10, sin, sqrt

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


def _optical_couplings(ss: SteadyState, p: SystemParams, optical: float = 1.0) -> tuple:
    # (gi, gr, a, b), the floats of the optical rows A and B of _mirror_rows
    g = complex(ss.g)
    w = complex(cos(p.theta), sin(p.theta)) * g.conjugate()
    c = optical * sqrt(2.0 * p.kappa)
    return c * g.imag, c * g.real, 2.0 * p.G * c * w.imag, 2.0 * p.G * c * w.real


def _mirror_rows(ss: SteadyState, p: SystemParams, optical: float = 1.0,
                 thermal: float = 1.0) -> tuple:
    """Coefficients of (s, v, T, 1) in den times each mirror coupling.

    Eight rows of four: the Q quadrature's couplings to c_in, c_in^dag
    and the thermal inputs (A1, B1, E1, F1; F of Q is E of P), then the
    P quadrature's (A2, B2, E2, F2), each on the factors. alpha =
    2i Im(e^{i theta} g*), Gamma = 2 Re(g^2 e^{-i theta}) and DeltaGamma =
    2i Im(g^2 e^{-i theta}) are each real or imaginary, so every
    coefficient is real, e.g. A1 den = sqrt(2 kappa)(Im(g) s - G Im(alpha) v).
    ``optical`` and ``thermal`` scale the rows of each bath.
    """
    g, G = complex(ss.g), p.G
    gg = g * g * complex(cos(p.theta), -sin(p.theta))
    gi, gr, a, b = _optical_couplings(ss, p, optical)
    m = thermal * sqrt(p.gamma_m)
    gamma, cross = 2.0 * m * G * gg.real, -2.0 * m * G * gg.imag
    return ((gi, -a, 0.0, 0.0), (-gr, b, 0.0, 0.0),          # A1, B1
            (0.0, 0.0, m, gamma), (0.0, 0.0, 0.0, cross),    # E1, F1
            (gr, b, 0.0, 0.0), (gi, a, 0.0, 0.0),            # A2, B2
            (0.0, 0.0, 0.0, cross), (0.0, 0.0, m, -gamma))   # E2 = F1, F2


def _factor_polynomials(ss: SteadyState, p: SystemParams) -> tuple:
    """Coefficients of z^0 .. z^3 (columns) of the factors s, v, T and 1
    (rows) of the module notes, with t = (kappa - 2G)(kappa + 2G)."""
    k, h, g2 = p.kappa, 0.5 * p.gamma_m, abs(ss.g) ** 2
    t = (k - 2.0 * p.G) * (k + 2.0 * p.G)
    return ((k * h + g2, k + h, 1.0, 0.0),
            (h, 1.0, 0.0, 0.0),
            (h * t + k * g2, t + 2.0 * k * h + g2, 2.0 * k + h, 1.0),
            (1.0, 0.0, 0.0, 0.0))


def _mirror_polynomials(ss: SteadyState, p: SystemParams) -> list:
    """Coefficients of z^0 .. z^3 in den times each mirror coupling scaled
    by sqrt(n + 1/2) of its bath, eight rows in the order of
    ``_mirror_rows``: its rows on the factor polynomials, which the spectra
    evaluate and the variances integrate. Each row is read only where it
    can be nonzero: the A and B rows weight s and v, the E and F rows T and 1."""
    rows = _mirror_rows(ss, p, sqrt(ss.n_th_c + 0.5), sqrt(ss.n_th_m + 0.5))
    (s0, s1, s2, s3), (v0, v1, v2, v3), (T0, T1, T2, T3), (o0, o1, o2, o3) = \
        _factor_polynomials(ss, p)
    out = []
    for k, (a, b, c, d) in enumerate(rows):
        if k % 4 < 2:   # A and B: on s and v
            out.append((a * s0 + b * v0, a * s1 + b * v1, a * s2 + b * v2, a * s3 + b * v3))
        else:           # E and F: on T and 1
            out.append((c * T0 + d * o0, c * T1 + d * o1, c * T2 + d * o2, c * T3 + d * o3))
    return out


def _spectra(b: np.ndarray, pairs, omega: np.ndarray) -> np.ndarray:
    """The one spectral rule: sum_k |B_k(z)|^2 / |den(z)|^2 at z = -i omega,
    for real coefficient rows b (spectra, couplings, powers of z) and
    den the product of the factors z^2 + p z + q of ``pairs``, on the 1-d
    grid ``omega``; shape (spectra, n). See the module notes. At huge
    omega the powers overflow to inf or nan silently: the CLI's finite
    check refuses such a result by name."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = omega * omega
        k = b.shape[-1]
        powers = np.empty(((k + 1) // 2, w2.size))   # (-omega^2)^j
        powers[0] = 1.0
        for j in range(1, len(powers)):
            np.multiply(powers[j - 1], -w2, out=powers[j])
        flat = b.reshape(-1, k)
        re = flat[:, ::2] @ powers
        im = flat[:, 1::2] @ powers[:k // 2]
        im *= omega   # the imaginary part, up to its sign
        den = None
        for p, q in pairs:
            f = q - w2
            f *= f
            f += (p * p) * w2
            den = f if den is None else np.multiply(den, f, out=den)
        re *= re
        re += np.square(im, out=im)
        total = re.reshape(b.shape[:-1] + (-1,)).sum(axis=-2)
        total /= den
    return total


def spectrum(omega, ss: SteadyState, p: SystemParams) -> SpectrumSample:
    """Symmetrized spectra S_Q and S_P on a frequency grid."""
    import numpy as np
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    b = np.array(_mirror_polynomials(ss, p), dtype=float).reshape(2, 4, 4)
    S_Q, S_P = _spectra(b, _factor_pairs(ss, p), om.ravel()).reshape((2,) + om.shape)
    return SpectrumSample(omega=om, S_Q=S_Q, S_P=S_P)


def _variance_weights(ss: SteadyState, p: SystemParams) -> tuple:
    """The six nonzero entries (W00, W01, W12, W21, W32, W33) of the 4 x 4
    W with (1/2pi) int |B|^2/|den|^2 d omega = |b @ W|^2 for every real
    cubic B of coefficients b; see the module notes. The forms are
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
    return (sqrt(0.5 / a1) * r0, -a3 / a1 * even * r0, odd * r1, even * r2,
            -a1 / a3 * odd * r3, sqrt(0.5 / a3) * r3)


def quadrature_variances(ss: SteadyState, p: SystemParams) -> VariancePair:
    """Stationary quadrature variances, the integrals of S_Q and S_P over
    the line, in closed form (see the module notes).

    Raises UnstableSystem exactly when ``routh_hurwitz`` calls the point
    unstable, and NonFiniteVariance when the forms leave the range of
    double precision.
    """
    if not routh_hurwitz(p, ss).stable:
        raise UnstableSystem("no stationary state: stability conditions violated")
    try:
        w00, w01, w12, w21, w32, w33 = _variance_weights(ss, p)
    except ZeroDivisionError:   # a form underflows, at absurd parameters
        raise NonFiniteVariance(_OUT_OF_RANGE) from None
    # |b @ W|^2 of each row, summed per quadrature; overflow to inf or nan
    # stays silent: the check below refuses it by name
    sums = [0.0, 0.0]
    for k, (b0, b1, b2, b3) in enumerate(_mirror_polynomials(ss, p)):
        r0, r1, r2, r3 = b0 * w00, b0 * w01 + b2 * w21, b1 * w12 + b3 * w32, b3 * w33
        sums[k // 4] += r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3
    var_q, var_p = sums
    if not (isfinite(var_q) and isfinite(var_p)):
        raise NonFiniteVariance(_OUT_OF_RANGE)
    return VariancePair(var_q=var_q, var_p=var_p)


def squeezing_db(variance: float) -> float:
    """Noise reduction below the vacuum level 1/2, in decibels."""
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return -10.0 * log10(variance / 0.5)
