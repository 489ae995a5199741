"""Closed-form momentum variance after eliminating the cavity.

In the strongly damped cavity regime (kappa much larger than |g| and
gamma_m) the cavity follows the mirror adiabatically and can be solved
for algebraically. Substituting it back leaves a single Langevin equation
for the mirror momentum whose stationary variance has a closed form, plus
a multiplicative reduction factor when cold feedback damping is added.

The closed forms assume the parametric phase sits at the optimum
(g*^2 e^{i theta} real and negative); away from it they lose accuracy.
Let G0 = 2G/kappa throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

from .errors import DomainError, FeedbackUnstable
from .params import SteadyState, SystemParams

__all__ = [
    "AdiabaticInputs",
    "adiabatic_cavity_fluctuation",
    "adiabatic_variance_p",
    "adiabatic_variance_p_approx",
    "drift_decay_rate",
    "feedback_variance_p",
    "momentum_decay_rate",
    "optical_noise_coefficient",
    "thermal_noise_coefficient",
]


@dataclass(frozen=True)
class AdiabaticInputs:
    """Everything the closed forms need, in cavity linewidth units."""
    G0: float
    cooperativity: float
    n_th_m: float
    n_th_c: float
    gamma_m: float
    kappa: float
    g: complex
    eta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.G0 < 1.0:
            raise DomainError(f"G0 must lie in [0, 1), got {self.G0}")
        if self.cooperativity <= 0.0:
            raise DomainError("cooperativity must be positive")
        if not 0.0 <= self.eta <= 4.0 * self.cooperativity:
            raise FeedbackUnstable(
                f"feedback gain {self.eta} outside [0, 4C] = [0, {4 * self.cooperativity}]"
            )

    @classmethod
    def from_system(cls, ss: SteadyState, p: SystemParams,
                    eta: float = 0.0) -> "AdiabaticInputs":
        g2 = abs(ss.g) ** 2
        return cls(
            G0=2.0 * p.G / p.kappa,
            cooperativity=g2 / (p.kappa * p.gamma_m),
            n_th_m=ss.n_th_m,
            n_th_c=ss.n_th_c,
            gamma_m=p.gamma_m,
            kappa=p.kappa,
            g=ss.g,
            eta=eta,
        )


def adiabatic_variance_p(inp: AdiabaticInputs) -> float:
    """Stationary momentum variance of the eliminated-cavity model."""
    g2 = abs(inp.g) ** 2
    if g2 == 0.0:
        raise DomainError("closed form needs a nonzero optomechanical coupling")
    optical = (1.0 + 2.0 * inp.n_th_c) / (2.0 * (1.0 + inp.G0))
    thermal = (inp.gamma_m * inp.kappa * (1.0 + inp.G0)
               * (1.0 + 2.0 * inp.n_th_m)) / (4.0 * g2)
    return optical + thermal


def adiabatic_variance_p_approx(n_th_c: float, n_th_m: float) -> float:
    """Threshold-gain variance at cooperativity 400.

    The G0 -> 1, C = 400 evaluation of the closed form; kept literal as a
    quick estimate for the microwave parameter set.
    """
    return 0.25 * (1.0 + 2.0 * n_th_c) + (1.0 + 2.0 * n_th_m) / 800.0


def feedback_variance_p(inp: AdiabaticInputs) -> float:
    """Momentum variance with cold damping feedback of gain eta applied."""
    factor = 1.0 + (1.0 + inp.G0) * (1.0 + 0.5 * inp.eta) / (2.0 * inp.cooperativity)
    return adiabatic_variance_p(inp) / factor


def momentum_decay_rate(inp: AdiabaticInputs) -> float:
    """Effective decay of the momentum quadrature.

    The intrinsic gamma_m contribution is dropped: it is negligible against
    the optically induced rate whenever the closed forms apply at all.
    """
    return abs(inp.g) ** 2 / (inp.kappa * (1.0 + inp.G0))


def drift_decay_rate(inp: AdiabaticInputs) -> float:
    """Decay rate appearing in the eliminated-cavity drift term.

    Differs from momentum_decay_rate by the factor 1/(1 - G0); the two
    agree in the G0 -> 0 limit, which is the internal consistency check
    between the drift and the momentum equation.
    """
    return abs(inp.g) ** 2 / ((1.0 - inp.G0 ** 2) * inp.kappa)


def optical_noise_coefficient(inp: AdiabaticInputs) -> float:
    """Weight of the optical noise term in the momentum correlations."""
    return abs(inp.g) ** 2 * (1.0 + 2.0 * inp.n_th_c) / (
        inp.kappa * (1.0 + inp.G0) ** 2)


def thermal_noise_coefficient(inp: AdiabaticInputs) -> float:
    """Weight of the mirror thermal noise term in the momentum correlations."""
    return inp.gamma_m * (1.0 + 2.0 * inp.n_th_m) / 2.0


def adiabatic_cavity_fluctuation(delta_b: complex, delta_b_dag: complex,
                                 c_in: complex, c_in_dag: complex,
                                 ss: SteadyState, p: SystemParams) -> complex:
    """Eliminated-cavity fluctuation for given mirror and input amplitudes.

    Diagnostic helper: evaluates the algebraic cavity solution so it can be
    compared against the full linear response at zero frequency. The mirror
    and its conjugate amplitude are passed separately because they are
    independent inputs here, not numerical conjugates of each other.
    """
    k, G = p.kappa, p.G
    denom = k * k - 4.0 * G * G
    if denom == 0.0:
        raise DomainError("cavity response diverges at G = kappa/2")
    eith = complex(cos(p.theta), sin(p.theta))
    g = ss.g
    num = (1j * k * g * delta_b
           - 2j * G * eith * g.conjugate() * delta_b_dag
           + 2.0 * G * eith * sqrt(2.0 * k) * c_in_dag
           + k * sqrt(2.0 * k) * c_in)
    return num / denom
