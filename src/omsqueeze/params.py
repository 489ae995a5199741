"""Physical inputs, unit normalization, thermal occupations, and the
steady-state solve that fixes the effective optomechanical coupling.

Conventions
-----------
All rates are expressed in units of the cavity linewidth ``kappa`` (which
defaults to 1 and is the internal normalization); temperature alone is in
kelvin and is converted at this boundary using the physical mode
frequencies ``omega_m_phys`` / ``omega_c_phys`` (angular, rad/s).

The drive is specified either by the dimensionless cooperativity
``C = |g|^2/(kappa*gamma_m)`` (the default mode, which bypasses the
nonlinear solve and pins the effective detuning to ``omega_m`` when
``detuning`` is not given, to ``detuning`` when it is) or by a physical
laser drive (``epsilon_l`` directly, or laser power in watts plus
``kappa_phys``), in which case the coupled steady-state equations reduce
to a cubic in the intracavity photon number. The solve takes its lowest
positive root, the branch a drive ramped up from zero settles on, and
flags a bistable drive (three positive roots) as ``ambiguous``.

The effective coupling ``g = g0 * c_s`` keeps the full complex phase of
the cavity amplitude; the optimal parametric phase depends on it through
``arg(g)``, so stripping the phase would silently change every
phase-sensitive result downstream.
"""
from __future__ import annotations

import ast
import math
import cmath
import operator
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigError, NonConvergence

__all__ = [
    "SystemParams",
    "SteadyState",
    "thermal_occupation",
    "solve_steady_state",
    "optimal_theta",
    "rwa_flags",
    "parse_angle",
    "load_config",
    "params_from_mapping",
]

# Notional single-photon coupling used to reconstruct a consistent steady
# state in cooperativity mode when the caller does not supply g0.  Only
# the product g = g0*c_s matters downstream.
_DEFAULT_G0 = 1e-4

# exact in the 2019 SI: hbar = h / (2 pi) from the defined h, and k_B
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23

_RESIDUAL_TOL = 1e-12


def thermal_occupation(omega: float, temperature: float) -> float:
    """Mean thermal occupation of a mode at angular frequency ``omega``.

    Parameters
    ----------
    omega : float
        Mode angular frequency in rad/s. Must be positive.
    temperature : float
        Bath temperature in kelvin. ``T = 0`` returns exactly 0.

    Returns
    -------
    float
        ``1/(exp(hbar*omega/(k_B*T)) - 1)``, computed without overflow for
        any positive argument.
    """
    if omega <= 0:
        raise ValueError("mode frequency must be positive")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    if temperature == 0.0:
        return 0.0
    # divide before scaling so a subnormal temperature cannot underflow
    # the denominator; omega/temperature overflowing to inf is fine here
    x = (hbar / k_B) * (omega / temperature)
    if x > 700.0:
        # expm1 would overflow; the Boltzmann tail underflows gracefully
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class SystemParams:
    """Immutable bundle of model parameters (rates in units of ``kappa``).

    Exactly one drive must be given: ``cooperativity``, or a physical
    drive via either ``epsilon_l`` (already normalized to ``kappa``) or
    ``laser_power`` in watts (requires ``kappa_phys`` in rad/s for the
    conversion). The physical-drive mode also needs ``g0``.
    """

    gamma_m: float
    omega_m: float = 10.0
    kappa: float = 1.0
    G: float = 0.0
    theta: float = 0.0
    cooperativity: float | None = None
    epsilon_l: float | None = None
    laser_power: float | None = None
    g0: float | None = None
    kappa_phys: float | None = None
    temperature: float = 0.0
    omega_m_phys: float = 2 * math.pi * 3.6e6
    omega_c_phys: float = 2 * math.pi * 6.23e9
    detuning: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.omega_m <= 0:
            raise ValueError("omega_m must be positive")
        if self.gamma_m <= 0:
            raise ValueError("gamma_m must be positive")
        if self.G < 0:
            raise ValueError("parametric gain G must be nonnegative")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        has_coop = self.cooperativity is not None
        has_drive = self.epsilon_l is not None or self.laser_power is not None
        if has_coop == has_drive:
            raise ValueError(
                "specify exactly one drive mode: cooperativity, or "
                "epsilon_l / laser_power"
            )
        if self.epsilon_l is not None and self.laser_power is not None:
            raise ValueError("give the drive once: epsilon_l or laser_power, not both")
        if has_coop and self.cooperativity < 0:
            raise ValueError("cooperativity must be nonnegative")
        if has_drive:
            if self.g0 is None:
                raise ValueError("physical drive mode requires g0")
            if self.laser_power is not None and self.kappa_phys is None:
                raise ValueError("laser_power conversion requires kappa_phys")

    @property
    def delta(self) -> float:
        """Detuning in units of kappa (defaults to the mechanical frequency)."""
        return self.omega_m if self.detuning is None else self.detuning

    @property
    def drive_mode(self) -> str:
        return "cooperativity" if self.cooperativity is not None else "power"


@dataclass(frozen=True)
class SteadyState:
    """Classical working point plus derived quantities used downstream.

    ``residual`` is the mismatch of the cavity equation
    ``c_s = eps/(kappa + i delta_eff)`` at the solved point, normalized by
    ``max(1, |c_s|)``; ``ambiguous`` is set when the cubic in the
    intracavity photon number has three real positive roots (bistable
    drive).
    """

    c_s: complex
    delta_eff: float
    g: complex
    n_th_m: float
    n_th_c: float
    residual: float = 0.0
    ambiguous: bool = False


def rwa_flags(p: SystemParams, ss: SteadyState) -> tuple[str, ...]:
    """Names of the separation-of-scales conditions of the rotating-wave /
    resolved-sideband treatment that the working point (p, ss) fails.

    These are warnings, never errors: the linear model itself is well
    defined for any stable parameters. The resolved-sideband flag uses the
    fixed factor 10; the remaining "much larger" comparisons use the same
    factor for uniformity. The drift has no detuning term, so a drive off
    the red sideband (effective detuning away from omega_m by more than
    kappa/10) is modelled as if it sat on it: ``sideband_resonance``.
    """
    holds = (
        ("resolved_sideband", p.omega_m >= 10.0 * p.kappa),
        ("slow_damping", p.omega_m >= 10.0 * p.gamma_m),
        ("weak_coupling", p.omega_m >= 10.0 * abs(ss.g)),
        ("weak_gain", p.omega_m >= 10.0 * (2.0 * p.G)),
        ("sideband_resonance", 10.0 * abs(ss.delta_eff - p.omega_m) <= p.kappa),
    )
    return tuple(name for name, ok in holds if not ok)


def _epsilon_from_power(p: SystemParams) -> float:
    # epsilon_l = sqrt(2 kappa P / (hbar omega_l)), then normalized by kappa_phys.
    omega_l = p.omega_c_phys - p.delta * p.kappa_phys
    if omega_l <= 0:
        raise ValueError("laser frequency implied by detuning is nonpositive")
    eps_phys = math.sqrt(2.0 * p.kappa_phys * p.laser_power / (hbar * omega_l))
    return eps_phys / p.kappa_phys


def solve_steady_state(p: SystemParams) -> SteadyState:
    """Solve (or construct) the classical steady state for ``p``.

    Cooperativity mode pins the effective detuning to ``p.delta`` (``omega_m``
    unless ``detuning`` is given) and sets ``|g| = sqrt(C*kappa*gamma_m)``
    with ``arg(g) = -arctan(delta/kappa)`` inherited from the cavity
    response; ``c_s = g/g0`` holds by construction, so the residual is 0.

    Power mode solves the photon-number cubic and takes its lowest
    positive root n: the branch a drive ramped up from zero settles on.
    The mirror shifts the detuning to ``delta - xi*n``, which fixes c_s.
    ``ambiguous`` is set when the cubic has three positive roots
    (bistable drive).

    Raises
    ------
    NonConvergence
        If the root fails the residual gate: c_s must reproduce itself
        through the cavity equation to 1e-12, relative to max(1, |c_s|).
    """
    n_th_m = thermal_occupation(p.omega_m_phys, p.temperature)
    n_th_c = thermal_occupation(p.omega_c_phys, p.temperature)

    if p.drive_mode == "cooperativity":
        delta = p.delta
        g_abs = math.sqrt(p.cooperativity * p.kappa * p.gamma_m)
        g = g_abs * cmath.exp(-1j * math.atan2(delta, p.kappa))
        g0 = p.g0 if p.g0 is not None else _DEFAULT_G0
        return SteadyState(c_s=g / g0, delta_eff=delta, g=g,
                           n_th_m=n_th_m, n_th_c=n_th_c)

    eps = p.epsilon_l if p.epsilon_l is not None else _epsilon_from_power(p)
    g0 = p.g0
    # radiation pressure shifts the detuning by xi |c_s|^2
    xi = 2.0 * g0**2 * p.omega_m / (p.gamma_m**2 / 4 + p.omega_m**2)
    # n = |c_s|^2 solves n (kappa^2 + (delta - xi n)^2) = eps^2
    cubic = np.roots([xi**2, -2.0 * p.delta * xi, p.kappa**2 + p.delta**2, -eps**2])
    scale = max(abs(r) for r in cubic) or 1.0
    roots = [r.real for r in cubic if abs(r.imag) < 1e-9 * scale and r.real > 0]

    # no positive root only at zero drive, where the cavity is empty
    c = eps / (p.kappa + 1j * (p.delta - xi * min(roots, default=0.0)))
    delta_eff = p.delta - xi * abs(c) ** 2
    residual = abs(c - eps / (p.kappa + 1j * delta_eff)) / max(1.0, abs(c))
    if not residual < _RESIDUAL_TOL:
        raise NonConvergence(
            f"steady-state residual {residual:.3e} on the lowest of "
            f"{len(roots)} positive photon-number roots"
        )
    return SteadyState(c_s=c, delta_eff=delta_eff, g=g0 * c,
                       n_th_m=n_th_m, n_th_c=n_th_c, residual=residual,
                       ambiguous=len(roots) >= 3)


def optimal_theta(g: complex) -> float:
    """Parametric phase that aligns the squeezed cavity quadrature with
    the beamsplitter-coupled mirror quadrature.

    Solves ``exp(i*theta) * conj(g)^2 = -|g|^2`` for ``theta`` in
    ``[0, 2*pi)``; at the default red detuning ``delta = 10*kappa`` this is
    0.1993 rad, close to pi/16.
    """
    if g == 0:
        raise ValueError("optimal phase undefined at g = 0")
    return (math.pi + 2.0 * cmath.phase(g)) % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# config-file ingestion (flat key = value, '#' comments)

_FLOAT_KEYS = frozenset(f.name for f in fields(SystemParams))
_REQUIRED_KEYS = frozenset(f.name for f in fields(SystemParams) if f.default is MISSING)
_ANGLE_KEYS = {"theta", "detuning"}


_ANGLE_NAMES = {"pi": math.pi, "e": math.e}
_ANGLE_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_ANGLE_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                 ast.Mult: operator.mul, ast.Div: operator.truediv}


def _angle_value(node: ast.AST) -> float:
    # each node is checked before its operands are evaluated, so a
    # rejected operator (power, call, ...) never runs
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _ANGLE_NAMES:
        return _ANGLE_NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ANGLE_UNARY:
        return _ANGLE_UNARY[type(node.op)](_angle_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_BINOPS:
        return _ANGLE_BINOPS[type(node.op)](_angle_value(node.left),
                                            _angle_value(node.right))
    raise ValueError(f"unsupported element {type(node).__name__}")


def parse_angle(text: str) -> float:
    """Parse an angle given in radians or as arithmetic on ``pi``.

    Accepts plain floats ("0.196"), pi fractions ("pi/16", "3*pi/4",
    "-pi/2"), and parenthesized combinations thereof: numbers, ``pi``,
    ``e``, binary ``+ - * /`` and unary signs. Nothing is evaluated
    beyond that arithmetic.
    """
    allowed = set("0123456789.+-*/() epi")
    if not text or set(text) - allowed:
        raise ConfigError(f"malformed angle expression: {text!r}")
    try:
        value = _angle_value(ast.parse(text, mode="eval").body)
    except (SyntaxError, ValueError, ZeroDivisionError, RecursionError,
            MemoryError) as exc:
        raise ConfigError(f"malformed angle expression: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"angle expression is not finite: {text!r}")
    return value


def load_config(path: str) -> dict[str, float]:
    """Read a flat ``key = value`` config file into a mapping.

    Keys must be SystemParams field names, each given at most once; values
    are floats, except the angle-valued keys which also accept pi-fraction
    expressions. Lines starting with '#' (and inline '#' comments) are
    ignored.
    """
    out: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FLOAT_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
            if key in _ANGLE_KEYS:
                out[key] = parse_angle(value)
            else:
                try:
                    out[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key!r}: {value!r}"
                    ) from exc
    return out


def params_from_mapping(mapping: dict[str, float], **overrides) -> SystemParams:
    """Build SystemParams from a config mapping plus keyword overrides."""
    merged = dict(mapping)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FLOAT_KEYS:
            raise ConfigError(f"unknown parameter {key!r}")
        merged[key] = value
    missing = sorted(_REQUIRED_KEYS - merged.keys())
    if missing:
        raise ConfigError("missing required parameter " + ", ".join(map(repr, missing)))
    try:
        return SystemParams(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
