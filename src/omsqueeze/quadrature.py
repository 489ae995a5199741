"""Whole-line adaptive quadrature for fluctuation spectra.

The variance integrals run over the entire frequency axis with rational,
even integrands decaying like omega^-2, so the engine maps the line to
(-pi/2, pi/2) via omega = tan(s) (the transformed integrand stays bounded
at the endpoints) and refines a Gauss-Kronrod 7/15 panel subdivision until
the summed error estimate meets an absolute tolerance.

The integrand callable takes an ndarray of n frequencies and returns
either n values or an (m, n) stack of m integrands that share the
frequency axis, such as the two quadrature spectra of one working point.
A stack is integrated in one pass: every component must meet the
tolerance, and a panel is refined when its worst component needs it.
Panels are evaluated in batches so per-call overhead stays off the sweep
hot path.

Initial mesh. Without a hint it is 8 equal panels in s. A caller that
knows the width of the narrowest feature, centred at zero frequency (the
slowest decay rate of a mechanical peak, say), passes it as ``width``:
the mesh is then 16 equal panels, and when the feature is narrower than
the first of them, edges at +-atan(width * 2^j) for j = -2, -1, ... inside
that panel grade it down to the feature. A mechanical peak 1e-9 wide
then needs a few refinement rounds at most, where it needed up to thirty.

Split rule. Each round splits, in one batch, every panel whose worst
component holds more than its share abs_tol / n_panels of the error
budget; the panel with the largest error always qualifies.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

__all__ = ["integrate_line"]

# 15-point Kronrod nodes (positive half) with the embedded 7-point Gauss
# rule on nodes 1, 3, 5, 7.
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # 15 ascending
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])       # Gauss subset

_INITIAL_PANELS = 8          # equal panels in s without a width hint
_GRADED_PANELS = 16          # equal panels in s with one
_GRADE_FROM = -2             # finest graded edge: atan(width * 2**_GRADE_FROM)


def _initial_edges(width: float | None) -> np.ndarray:
    # uniform in s; a feature narrower than the first uniform panel adds
    # the graded edges +-atan(width * 2^j), j = _GRADE_FROM, ..., that fall
    # inside that panel
    if width is None:
        return np.linspace(-np.pi / 2, np.pi / 2, _INITIAL_PANELS + 1)
    if not width > 0.0:
        raise ValueError(f"feature width must be positive, got {width}")
    uniform = np.linspace(-np.pi / 2, np.pi / 2, _GRADED_PANELS + 1)
    first = np.pi / _GRADED_PANELS
    if math.atan(width) >= first:
        return uniform
    graded = []
    while (e := math.atan(width * 2.0 ** (_GRADE_FROM + len(graded)))) < first:
        graded.append(e)
    graded = np.array(graded)
    return np.sort(np.concatenate([uniform, graded, -graded]))


def _eval_panels(F, los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # batched K15/G7 on many panels at once; F maps an ndarray of nodes to
    # values of shape (n,) or (m, n), and the results have shape (P,) or (m, P)
    c = 0.5 * (los + his)
    h = 0.5 * (his - los)
    nodes = c[:, None] + h[:, None] * _XGK[None, :]
    y = np.asarray(F(nodes.ravel()), dtype=float)
    y = y.reshape(y.shape[:-1] + nodes.shape)
    k15 = h * (y @ _WGK)
    g7 = h * (y @ _WG)
    return k15, np.abs(k15 - g7)


def integrate_line(f, abs_tol: float = 1e-8, max_panels: int = 2000,
                   width: float | None = None):
    """Integrate ``f`` over the whole real line to absolute tolerance.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with an ndarray of n frequencies, it
        returns n values or an (m, n) stack of m integrands.
    abs_tol : float
        Target on the summed panel error estimates, met by every component.
    max_panels : int
        Subdivision cap; exceeding it raises QuadratureFailure.
    width : float, optional
        Width of the narrowest feature of ``f``, centred at zero frequency;
        it grades the initial mesh. None starts from uniform panels.

    Returns
    -------
    float or ndarray
        The integral; an (m,) array when ``f`` returns a stack.

    Raises
    ------
    QuadratureFailure
        If the tolerance is not met within the panel cap or the integrand
        produced non-finite values.
    """
    def F(s: np.ndarray) -> np.ndarray:
        t = np.tan(s)
        return f(t) * (1.0 + t * t)

    edges = _initial_edges(width)
    los, his = edges[:-1], edges[1:]
    vals, errs = _eval_panels(F, los, his)

    while True:
        if not (np.isfinite(vals).all() and np.isfinite(errs).all()):
            raise QuadratureFailure("integrand returned non-finite values")
        total_err = errs.sum(axis=-1)
        if (total_err <= abs_tol).all():
            total = vals.sum(axis=-1)
            return float(total) if total.ndim == 0 else total
        if los.size >= max_panels:
            raise QuadratureFailure(
                f"error {total_err.max():.3e} > tol {abs_tol:.1e} at {los.size} panels"
            )
        # split every panel whose worst component holds more than its share
        # of the budget; with finite errors the worst panel always qualifies
        worst = errs.reshape(-1, los.size).max(axis=0)
        split = worst > abs_tol / los.size
        mid = 0.5 * (los[split] + his[split])
        new_lo = np.column_stack([los[split], mid]).ravel()
        new_hi = np.column_stack([mid, his[split]]).ravel()
        sub_vals, sub_errs = _eval_panels(F, new_lo, new_hi)
        keep = ~split
        los = np.concatenate([los[keep], new_lo])
        his = np.concatenate([his[keep], new_hi])
        vals = np.concatenate([vals[..., keep], sub_vals], axis=-1)
        errs = np.concatenate([errs[..., keep], sub_errs], axis=-1)
