"""Tensor-product Gauss-Legendre quadrature on annuli and disks.

The integrands in this package are smooth except across known circles
(cutoff knots), so grids take explicit radial break points and refine by
cell halving.  All returned node/weight arrays are flat; integration is a
dot product, which keeps reductions order-fixed and runs reproducible.

The Gauss-Legendre rule on the unit interval is computed once per order
``gl`` and shared, read-only, by every grid.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["QuadratureError", "polar_nodes", "refine_until"]


class QuadratureError(RuntimeError):
    """Raised when cell-halving refinement fails to stabilize."""

    stage = "quadrature"

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


@functools.lru_cache(maxsize=None)
def _unit_rule(gl):
    """``gl``-point GL nodes and weights on [0, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(gl)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_cells(edges, per_cell, gl):
    """GL nodes/weights on [edges[0], edges[-1]] split at edges, per_cell
    subcells between consecutive edges."""
    x, w = _unit_rule(gl)
    bounds = []
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, per_cell + 1)
        bounds.extend(zip(sub[:-1], sub[1:]))
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    nodes = lo[:, None] + (hi - lo)[:, None] * x[None, :]
    weights = (hi - lo)[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def polar_nodes(r_edges, n_radial, n_angular, gl=4, center=(0.0, 0.0)):
    """Flat (k0, k1, w) arrays for a polar grid around ``center``.

    ``r_edges`` are mandatory radial break points (cutoff knots); each
    interval is split into ``n_radial`` subcells, the angle into
    ``n_angular`` cells, with ``gl``-point Gauss-Legendre per cell and
    direction.  Weights include the polar Jacobian r.
    """
    r_edges = [float(r) for r in r_edges]
    if any(b <= a for a, b in zip(r_edges[:-1], r_edges[1:])):
        raise ValueError("radial edges must be strictly increasing")
    r, wr = _gl_cells(r_edges, n_radial, gl)
    th, wth = _gl_cells([0.0, 2.0 * np.pi], n_angular, gl)
    k0 = center[0] + r[:, None] * np.cos(th[None, :])
    k1 = center[1] + r[:, None] * np.sin(th[None, :])
    w = (r * wr)[:, None] * wth[None, :]
    return k0.ravel(), k1.ravel(), w.ravel()


def refine_until(estimate, tol):
    """Run ``estimate(level)`` from level 2, doubling the level at most 5
    times, until two successive results differ by less than ``tol``.

    Returns ``(value, err)`` where err is the last successive difference.
    Raises :class:`QuadratureError` when the budget is exhausted.
    """
    level = 2
    prev = estimate(level)
    for _ in range(5):
        level *= 2
        cur = estimate(level)
        err = abs(cur - prev)
        if err < tol:
            return cur, err
        prev = cur
    raise QuadratureError(
        f"quadrature did not stabilize below {tol:g}", estimate=prev, error=err
    )
