"""Steady-state covariance from the drift/diffusion pair.

For a stable linear Langevin system df = M f dt + noise with diffusion D,
the stationary covariance V solves M V + V M^T + D = 0: for an n x n drift,
the n^2 x n^2 Kronecker system (M x I + I x M) vec(V) = -vec(D), solved
whole, refined once against its own residual (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 12) and symmetrized; the residual
of the full equation gates the result.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SingularSolve, UnstableSystem
from .stability import DriftModel, eigen_stable

__all__ = ["Covariance", "steady_covariance"]


def _kronecker_sum(M: np.ndarray) -> np.ndarray:
    """M (+) M = M x I + I x M, the matrix of V -> M V + V M^T acting on
    the row-major vec(V), built by broadcasting (np.kron is slower)."""
    import numpy as np
    n = M.shape[0]
    eye = np.eye(n)
    K = (M[:, None, :, None] * eye[None, :, None, :]
         + eye[:, None, :, None] * M[None, :, None, :])
    return K.reshape(n * n, n * n)


@dataclass(frozen=True)
class Covariance:
    """Stationary second moments; V[1, 1] is the squeezed quadrature."""
    V: np.ndarray
    residual: float

    @property
    def var_q(self) -> float:
        return float(self.V[0, 0])

    @property
    def var_p(self) -> float:
        return float(self.V[1, 1])


def steady_covariance(dm: DriftModel) -> Covariance:
    """Solve M V + V M^T + D = 0 for the symmetric covariance V.

    Raises UnstableSystem when M has a non-decaying eigenvalue and
    SingularSolve when the Kronecker system is ill conditioned (drift
    effectively marginal).
    """
    import numpy as np
    M, D = dm.M, dm.D
    if not eigen_stable(M):
        raise UnstableSystem("drift matrix has a non-decaying mode")

    K, b = _kronecker_sum(M), -D.ravel()
    try:
        x = np.linalg.solve(K, b)
        # one step of iterative refinement: at low damping the system is ill
        # conditioned (1e7 and more) and the plain solve loses up to 1e-8
        x += np.linalg.solve(K, b - K @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve("Lyapunov system is singular") from exc

    V = x.reshape(M.shape)
    V = 0.5 * (V + V.T)

    scale = np.linalg.norm(D)
    residual = float(np.linalg.norm(M @ V + V @ M.T + D))
    if not np.isfinite(residual) or residual > 1e-10 * max(scale, 1.0):
        raise SingularSolve(f"Lyapunov residual {residual:.3e} too large")
    return Covariance(V=V, residual=residual)
