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
_I, _J = (np.array(ix) for ix in zip(*_PAIRS))


def _assembly():
    # entry order of the reduced system: row (i, j) takes M[i, k] at column
    # (k, j) and M[j, k] at column (i, k), for k = 0..3 in turn
    col = {pair: n for n, pair in enumerate(_PAIRS)}
    rows, cols, src = [], [], []
    for row, (i, j) in enumerate(_PAIRS):
        for k in range(4):
            for a, b, m in ((k, j, 4 * i + k), (i, k, 4 * j + k)):
                rows.append(row)
                cols.append(col[(a, b) if a <= b else (b, a)])
                src.append(m)
    return np.array(rows), np.array(cols), np.array(src)


_ROWS, _COLS, _SRC = _assembly()


def _reduced_system(M: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 10x10 system A x = b in the upper-triangle entries x of V."""
    A = np.zeros((10, 10))
    # unbuffered and in _assembly's order: repeated (row, column) entries
    # sum as a loop over the pairs would
    np.add.at(A, (_ROWS, _COLS), M.ravel()[_SRC])
    return A, -D[_I, _J]


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

    A, b = _reduced_system(M, D)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve("Lyapunov system is singular") from exc

    V = np.empty((4, 4))
    V[_I, _J] = x
    V[_J, _I] = x

    scale = np.linalg.norm(D)
    residual = float(np.linalg.norm(M @ V + V @ M.T + D))
    if not np.isfinite(residual) or residual > 1e-10 * max(scale, 1.0):
        raise SingularSolve(f"Lyapunov residual {residual:.3e} too large")
    return Covariance(V=V, residual=residual)
