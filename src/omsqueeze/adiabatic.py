"""Closed-form momentum variance after eliminating the cavity.

In the strongly damped cavity regime (kappa much larger than |g| and
gamma_m) the cavity follows the mirror adiabatically and can be solved
for algebraically. Substituting it back leaves a single Langevin equation
for the mirror momentum whose stationary variance has one closed form,

    <dP^2> = (1 + 2 n_c) / (2 (1 + G0)) + (1 + G0)(1 + 2 n_m) / (4 C),

with G0 = 2G/kappa and C = |g|^2/(kappa gamma_m). It is evaluated at the
working G0 (``adiabatic_variance_p``) or at the threshold gain G0 = 1
(``adiabatic_variance_p_approx``), where it tends to
(1 + 2 n_c)/4 + (1 + 2 n_m)/(2C). Cold feedback damping divides it by a
reduction factor (``feedback_variance_p``).

The closed form assumes the parametric phase sits at the optimum
(g*^2 e^{i theta} real and negative); away from it it loses accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, FeedbackUnstable
from .params import SteadyState, SystemParams

__all__ = [
    "AdiabaticInputs",
    "adiabatic_variance_p",
    "adiabatic_variance_p_approx",
    "feedback_variance_p",
]


@dataclass(frozen=True)
class AdiabaticInputs:
    """Everything the closed forms need: the coupling, damping and
    linewidth enter only through C = |g|^2/(kappa gamma_m). A zero
    coupling is refused as C = 0."""
    G0: float
    cooperativity: float
    n_th_m: float
    n_th_c: float
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
        return cls(
            G0=2.0 * p.G / p.kappa,
            cooperativity=abs(ss.g) ** 2 / (p.kappa * p.gamma_m),
            n_th_m=ss.n_th_m,
            n_th_c=ss.n_th_c,
            eta=eta,
        )


def _closed_form(inp: AdiabaticInputs, G0: float) -> float:
    optical = (1.0 + 2.0 * inp.n_th_c) / (2.0 * (1.0 + G0))
    thermal = (1.0 + G0) * (1.0 + 2.0 * inp.n_th_m) / (4.0 * inp.cooperativity)
    return optical + thermal


def adiabatic_variance_p(inp: AdiabaticInputs) -> float:
    """Stationary momentum variance of the eliminated-cavity model."""
    return _closed_form(inp, inp.G0)


def adiabatic_variance_p_approx(inp: AdiabaticInputs) -> float:
    """Threshold-gain limit of the closed form: G0 -> 1 at the working
    cooperativity, (1 + 2 n_c)/4 + (1 + 2 n_m)/(2C)."""
    return _closed_form(inp, 1.0)


def feedback_variance_p(inp: AdiabaticInputs) -> float:
    """Momentum variance with cold damping feedback of gain eta applied."""
    factor = 1.0 + (1.0 + inp.G0) * (1.0 + 0.5 * inp.eta) / (2.0 * inp.cooperativity)
    return adiabatic_variance_p(inp) / factor
