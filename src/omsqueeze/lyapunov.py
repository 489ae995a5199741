"""Steady-state covariance from the drift/diffusion pair.

For a stable linear Langevin system df = M f dt + noise with diffusion D,
the stationary covariance V solves M V + V M^T + D = 0. Exploiting the
symmetry of V reduces the solve to one 10x10 linear system in the
independent entries; the residual of the full equation gates the result.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSolve, UnstableSystem
from .stability import DriftModel, eigen_stable

__all__ = ["Covariance", "steady_covariance"]

# flattened upper triangle of a symmetric 4x4
_PAIRS = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1),
          (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
_COL = {p: k for k, p in enumerate(_PAIRS)}


def _col(i: int, j: int) -> int:
    return _COL[(i, j) if i <= j else (j, i)]


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
    SingularSolve when the reduced linear system is ill conditioned
    (drift effectively marginal).
    """
    M, D = dm.M, dm.D
    if not eigen_stable(M):
        raise UnstableSystem("drift matrix has a non-decaying mode")

    A = np.zeros((10, 10))
    b = np.zeros(10)
    for row, (i, j) in enumerate(_PAIRS):
        for k in range(4):
            A[row, _col(k, j)] += M[i, k]
            A[row, _col(i, k)] += M[j, k]
        b[row] = -D[i, j]
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve("Lyapunov system is singular") from exc

    V = np.empty((4, 4))
    for (i, j), v in zip(_PAIRS, x):
        V[i, j] = V[j, i] = v

    scale = np.linalg.norm(D)
    residual = float(np.linalg.norm(M @ V + V @ M.T + D))
    if not np.isfinite(residual) or residual > 1e-10 * max(scale, 1.0):
        raise SingularSolve(f"Lyapunov residual {residual:.3e} too large")
    return Covariance(V=V, residual=residual)
