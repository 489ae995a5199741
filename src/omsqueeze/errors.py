"""Exception types shared across the package.

An argument the model refuses raises a plain ``ValueError`` (the CLI's
exit 1, ``ConfigError`` among them); a numerical failure raises a
``ModelError`` (exit 2).
"""

__all__ = ["ConfigError", "ModelError", "NonConvergence", "NonFiniteVariance",
           "SingularSolve", "UnstableSystem"]


class ModelError(Exception):
    """Base class for numerical/model failures (CLI maps these to exit code 2)."""


class NonConvergence(ModelError):
    """Steady-state fixed point did not reach the residual target (drive likely bistable)."""


class UnstableSystem(ModelError):
    """The working point has no stationary state: its slowest decay rate
    fails the marginal rule of ``stability._decaying``."""


class NonFiniteVariance(ModelError):
    """A stationary variance of a stable point came out inf or nan: the
    working point's spectral coefficients over- or underflow double
    precision."""


class SingularSolve(ModelError):
    """Linear solve for the steady covariance is rank-deficient (marginal stability)."""


class ConfigError(ValueError):
    """Malformed or unknown entry in a parameter config file or on the
    command line (CLI exit code 1)."""
