"""Drift/diffusion matrices of the linearized fluctuation dynamics and the
stability decision.

The fluctuation vector is f = (dQ, dP, dx, dy): mirror quadratures first,
cavity quadratures second. The drift matrix is built entrywise from the
linearized equations of motion; the diffusion matrix collects the
symmetrized white-noise strengths (the antisymmetric cross-correlations of
the quadrature noises cancel in symmetrized covariances and carry no
weight here — see the lyapunov module notes).

Stability is decided two independent ways. The characteristic quartic
z^4 + a3 z^3 + a2 z^2 + a1 z + a0 of the drift factors into two
quadratics z^2 + p z + q (``_factor_pairs``, which the spectra and the
closed-form variances share). ``routh_hurwitz`` forms its three conditions from the
pairs, free of cancellation: a3 a2 - a1, the Hurwitz determinant
a1 a2 a3 - a0 a3^2 - a1^2 and a0, all positive exactly where the
first column of the Routh table is; and it decides on the slowest decay
rate of the quadratics' roots. ``eigen_stable``
checks the eigenvalues of a drift of any size by ``_decay_rate``, which
the sampler shares. Both decide by ``_decaying``, and neither involves
the parametric phase theta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SteadyState, SystemParams

__all__ = ["DriftModel", "StabilityReport", "build_drift", "routh_hurwitz",
           "eigen_stable"]

# A slowest decay rate at or below this times the drift's -tr(M)/2, which
# is kappa + gamma_m/2, counts as marginal; marginal points are reported
# unstable because the downstream variance integrals blow up there.
MARGINAL_EPS = 1e-12


@dataclass(frozen=True)
class DriftModel:
    """Drift M (square) and diffusion D (same size) of df = M f dt + noise, the
    one input of ``steady_covariance`` and ``simulate``. D must be finite,
    symmetric and positive semidefinite up to a rounding margin of 1e-14 max|D|."""

    M: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        n, D = len(self.M), self.D
        # both routes report rows 0 and 1, the mirror Q and P
        if n < 2 or self.M.shape != (n, n) or D.shape != (n, n):
            raise ValueError("drift and diffusion must be square, of one size, 2x2 or more")
        scale = float(np.abs(D).max())   # nan or inf unless D is finite
        if not math.isfinite(scale):
            raise ValueError("diffusion matrix must be finite")
        if np.abs(D - D.T).max() > 1e-14 * scale:
            raise ValueError("diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(D)[0] < -1e-14 * scale:
            raise ValueError("diffusion matrix must be positive semidefinite")


@dataclass(frozen=True)
class StabilityReport:
    """Routh-Hurwitz conditions and the decision taken on ``decay_rate``,
    the slowest decay rate of the fluctuations."""

    stable: bool
    conditions: tuple[float, float, float]
    marginal: bool
    decay_rate: float


def build_drift(ss: SteadyState, p: SystemParams) -> DriftModel:
    """Assemble (M, D) for the working point (ss, p).

    The mirror block damps at gamma_m/2 per quadrature; the cavity block
    mixes its quadratures through the parametric drive (gain G, phase
    theta); the off-diagonal blocks carry the beamsplitter coupling with
    the real and imaginary parts of g entering separately.
    """
    import numpy as np
    k, gam, G, th = p.kappa, p.gamma_m, p.G, p.theta
    gr, gi = ss.g.real, ss.g.imag
    c, s = np.cos(th), np.sin(th)
    M = np.array([
        [-gam / 2, 0.0, gi, -gr],
        [0.0, -gam / 2, gr, gi],
        [-gi, -gr, -(k - 2 * G * c), 2 * G * s],
        [gr, -gi, 2 * G * s, -(k + 2 * G * c)],
    ])
    nm, nc = ss.n_th_m, ss.n_th_c
    D = np.diag([gam * (nm + 0.5), gam * (nm + 0.5),
                 2 * k * (nc + 0.5), 2 * k * (nc + 0.5)])
    return DriftModel(M=M, D=D)


def _factor_pairs(ss: SteadyState, p: SystemParams) -> tuple[tuple[float, float], ...]:
    """(p-, q-) and (p+, q+) of the characteristic quartic's two factors
    lam^2 + p lam + q, with p = gamma_m/2 + kappa -+ 2G and
    q = (gamma_m/2)(kappa -+ 2G) + |g|^2."""
    h, g2 = 0.5 * p.gamma_m, abs(ss.g) ** 2
    lo, hi = p.kappa - 2.0 * p.G, p.kappa + 2.0 * p.G
    return (h + lo, h * lo + g2), (h + hi, h * hi + g2)


def _poles(pairs: tuple[tuple[float, float], ...]) -> tuple[complex, ...]:
    """The four roots of the characteristic quartic, two from each factor
    of ``pairs``."""
    roots = []
    for b, c in pairs:
        disc = b * b - 4 * c
        if disc < 0:                  # complex pair
            h = math.sqrt(-disc) / 2
            roots += [complex(-b / 2, h), complex(-b / 2, -h)]
        else:                         # real pair, free of cancellation
            q = b + math.copysign(math.sqrt(disc), b)
            roots += [complex(-q / 2), complex(-2 * c / q if q else 0.0)]
    return tuple(roots)


def _decaying(rate: float, damping: float) -> bool:
    """The marginal rule: a slowest decay rate decays when it exceeds
    MARGINAL_EPS times ``damping``, -tr(M)/2 of an n x n drift; that is at
    least n/2 times the rate, so no rate at or below zero passes."""
    return rate > MARGINAL_EPS * damping


def routh_hurwitz(p: SystemParams, ss: SteadyState) -> StabilityReport:
    """Evaluate the three explicit stability conditions and decide.

    Returns the three left-hand sides; ``stable`` means the slowest decay
    rate passes ``_decaying`` at the scale kappa + gamma_m/2, -tr(M)/2 of
    ``build_drift``'s M, and a rate whose magnitude fails it is flagged
    marginal (and unstable). The conditions differ in dimension, so none
    of them is compared with a fixed margin. OverflowError when the
    factor pairs or the decay rates leave the double-precision range.
    """
    pairs = _factor_pairs(ss, p)
    rates = [-lam.real for lam in _poles(pairs)]
    if not all(map(math.isfinite, [*pairs[0], *pairs[1], *rates])):
        raise OverflowError("the characteristic quartic leaves the double-precision range")
    (p_lo, q_lo), (p_hi, q_hi) = pairs
    a3, a1 = p_lo + p_hi, p_lo * q_hi + p_hi * q_lo
    gap = 2.0 * p.G * p.gamma_m   # q+ - q-, formed without cancellation
    c1 = p_lo * q_lo + p_hi * q_hi + p_lo * p_hi * a3   # a3 a2 - a1
    c2 = p_lo * p_hi * (gap * gap + a3 * a1)            # the Hurwitz determinant
    c3 = q_lo * q_hi                                    # a0

    rate = min(rates)
    damping = p.kappa + p.gamma_m / 2
    return StabilityReport(stable=_decaying(rate, damping), conditions=(c1, c2, c3),
                           marginal=not _decaying(abs(rate), damping), decay_rate=rate)


def _decay_rate(M: np.ndarray) -> tuple[float, bool]:
    """Slowest decay rate -max Re(lambda) of M, from one ``eigvals``, and
    whether it is decaying by ``_decaying`` at the scale -tr(M)/2.
    ValueError for a non-finite M."""
    import numpy as np
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("drift matrix must be finite")
    rate = float(-np.linalg.eigvals(M).real.max())
    return rate, _decaying(rate, -0.5 * float(M.trace()))


def eigen_stable(M: np.ndarray) -> bool:
    """True iff every eigenvalue of M decays by the marginal rule: its
    real part is below -MARGINAL_EPS times -tr(M)/2.

    Marginal spectra count as unstable, matching routh_hurwitz, which
    takes the same scale from its inputs.
    """
    return _decay_rate(M)[1]
