"""Whole-line adaptive quadrature: the suite's numerical reference for
the closed-form variances.

The package evaluates every variance integral in closed form; this
integrator evaluates the same integrals from the spectra alone, so a
test can check the closed form against an independent route that shares
none of its algebra.

The variance integrals run over the entire frequency axis with rational,
even integrands decaying like omega^-2, so the engine maps the line to
(-pi/2, pi/2) via omega = tan(s) (the transformed integrand stays bounded
at the endpoints) and refines a Gauss-Kronrod 7/15 panel subdivision until
the summed error estimate of each integral I meets its budget
max(``_ABS_TOL``, ``_REL_TOL`` |I|), QUADPACK's rule (Piessens et al.,
Springer 1983): absolute where I is small, relative where it is large.

The integrand callable takes an ndarray of n frequencies and returns
either n values or an (m, n) stack of m integrands that share the
frequency axis, such as the two quadrature spectra of one working point.
A stack is integrated in one pass: every component must meet its own
budget, and a panel is refined when its worst component needs it.
Panels are evaluated in batches so per-call overhead stays low.

Initial mesh. Every integral starts from 16 equal panels in s. A caller
that knows its integrand's poles -width*i +- centre, peaks of half-width
``width`` at +-centre, passes them as ``features``; the narrowest feature
at each centre adds the edges atan(centre +- width * 2^j), j = -2, -1,
..., while width * 2^j is below tan(pi/16)(1 + centre^2), one panel's
reach there. A mechanical peak 1e-9 wide at zero then needs a few
refinement rounds at most, and split normal-mode peaks at +-centre none.

Split rule. Each round splits, in one batch, every panel whose worst
component holds more than its share budget / n_panels of the smallest
component budget; the panel with the largest error always qualifies.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureFailure", "integrate_line"]


class QuadratureFailure(RuntimeError):
    """An integral missed its error budget within the panel cap, or its
    integrand returned non-finite values."""


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

_ABS_TOL = 1e-8              # absolute part of every error budget
_REL_TOL = 1e-10             # relative part of every error budget
_MAX_PANELS = 2000           # subdivision cap; reaching it fails the integral
_PANELS = 16                 # equal panels in s, the base of every mesh
_GRADE_FROM = -2             # finest graded offset: width * 2**_GRADE_FROM
_REACH = math.tan(math.pi / _PANELS)   # one panel's reach at zero
_BASE_EDGES = np.linspace(-np.pi / 2, np.pi / 2, _PANELS + 1).tolist()


def _initial_edges(features) -> np.ndarray:
    # see the module notes; edges that coincide (at +-pi/2, say) count once
    narrowest: dict[float, float] = {}
    for centre, width in features:
        if not (width > 0.0 and math.isfinite(centre)):
            raise ValueError(f"feature needs a finite centre and a positive "
                             f"width, got ({centre}, {width})")
        narrowest[centre] = min(width, narrowest.get(centre, math.inf))
    edges = set(_BASE_EDGES)
    for centre, width in narrowest.items():
        # inf past |centre| ~ 1e154, where the doubling ends by overflow;
        # a feature no narrower than the reach adds no edge
        reach = _REACH * (1.0 + centre * centre)
        offset = width * 2.0 ** _GRADE_FROM
        while width < reach and offset < reach:
            edges.update((math.atan(centre - offset), math.atan(centre + offset)))
            offset *= 2.0
    return np.array(sorted(edges))


def _eval_panels(F, los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # batched K15/G7 on many panels at once; F maps an ndarray of nodes to
    # values of shape (n,) or (m, n), and the results have shape (P,) or (m, P)
    c = 0.5 * (los + his)
    h = 0.5 * (his - los)
    nodes = c[:, None] + h[:, None] * _XGK[None, :]
    # overflow to inf or nan stays silent: integrate_line refuses it by name
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.asarray(F(nodes.ravel()), dtype=float)
        y = y.reshape(y.shape[:-1] + nodes.shape)
        k15 = h * (y @ _WGK)
        g7 = h * (y @ _WG)
        return k15, np.abs(k15 - g7)


def integrate_line(f, features=()):
    """Integrate ``f`` over the whole real line to its error budget.

    Each component's budget is max(1e-8, 1e-10 |I|) on its summed panel
    error estimates, for its integral I, within a cap of 2000 panels.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with an ndarray of n frequencies, it
        returns n values or an (m, n) stack of m integrands.
    features : iterable of (centre, width), optional
        Peaks of ``f``, each of half-width ``width`` at frequency
        ``centre``; they grade the initial mesh. Empty starts from the 16
        equal panels alone.

    Returns
    -------
    float or ndarray
        The integral; an (m,) array when ``f`` returns a stack.

    Raises
    ------
    QuadratureFailure
        If a budget is not met within the panel cap or the integrand
        produced non-finite values.
    """
    def F(s: np.ndarray) -> np.ndarray:
        t = np.tan(s)
        return f(t) * (1.0 + t * t)

    edges = _initial_edges(features)
    los, his = edges[:-1], edges[1:]
    vals, errs = _eval_panels(F, los, his)

    while True:
        if not (np.isfinite(vals).all() and np.isfinite(errs).all()):
            raise QuadratureFailure("integrand returned non-finite values")
        total, total_err = vals.sum(axis=-1), errs.sum(axis=-1)
        budget = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
        if (total_err <= budget).all():
            return float(total) if total.ndim == 0 else total
        if los.size >= _MAX_PANELS:   # report the component furthest over
            k = int(np.argmax(total_err / budget))
            raise QuadratureFailure(f"error {total_err.flat[k]:.3e} > tol "
                                    f"{budget.flat[k]:.1e} at {los.size} panels")
        # split every panel whose worst component holds more than its share
        # of the smallest budget; with finite errors the worst panel qualifies
        worst = errs.reshape(-1, los.size).max(axis=0)
        split = worst > budget.min() / los.size
        mid = 0.5 * (los[split] + his[split])
        new_lo = np.column_stack([los[split], mid]).ravel()
        new_hi = np.column_stack([mid, his[split]]).ravel()
        sub_vals, sub_errs = _eval_panels(F, new_lo, new_hi)
        keep = ~split
        los = np.concatenate([los[keep], new_lo])
        his = np.concatenate([his[keep], new_hi])
        vals = np.concatenate([vals[..., keep], sub_vals], axis=-1)
        errs = np.concatenate([errs[..., keep], sub_errs], axis=-1)
