"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for numerical/model failures (CLI maps these to exit code 2)."""


class NonConvergence(ModelError):
    """Steady-state fixed point did not reach the residual target (drive likely bistable)."""


class ZeroCoupling(ValueError):
    """Operation undefined at zero effective optomechanical coupling."""


class UnstableSystem(ModelError):
    """Requested a steady-state quantity for an unstable parameter point."""


class SingularDenominator(ModelError):
    """Transfer-function denominator vanished at the requested frequency."""


class QuadratureFailure(ModelError):
    """Adaptive integration could not meet tolerance within the panel cap."""


class NonPositiveVariance(ValueError):
    """dB conversion needs a strictly positive variance."""


class DomainError(ValueError):
    """Closed-form expression evaluated outside its validity domain."""


class FeedbackUnstable(ValueError):
    """Feedback gain beyond the stated stability bound (eta > 4C)."""


class AboveThreshold(ValueError):
    """Parametric gain at or beyond the cavity threshold G = kappa/2."""


class DivergingTrajectory(ModelError):
    """A simulated trajectory exceeded the divergence guard (transient growth of the drift)."""


class SingularSolve(ModelError):
    """Linear solve for the steady covariance is rank-deficient (marginal stability)."""


class ConfigError(ValueError):
    """Malformed or unknown entry in a parameter config file (CLI exit code 1)."""
