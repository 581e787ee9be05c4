"""One-loop diagrams on the Wick oracle's finite antiperiodic grid.

The sunset goes through ``rgflow.sunset``, the function the flow runs;
only the grid measure and the grid pair bubble are defined here.  The
four-point contraction and the two mixed-chirality routings have no
counterpart in the flow, whose quartic couplings do not run at one loop,
so they live here alone.  Propagator tables are the oracle's own
``GridModel.g``.
"""

from __future__ import annotations

import numpy as np

from edgeflow import rgflow


def pair_bubble_table(g):
    """Pi[p] = mean_q g(q) g(q + p) at every transfer index p of the grid."""
    cells = g.shape[0]
    out = np.empty((cells, cells), dtype=complex)
    for i in range(cells):
        for j in range(cells):
            out[i, j] = np.mean(g * np.roll(g, (-i, -j), axis=(0, 1)))
    return out


def sunset_grid(model, k_idx, channel):
    """Sigma_w(k) on the grid, through :func:`rgflow.sunset`.

    The outer line is g_w(q) / cells^2 at every node q, the pair bubble
    sits at p = q - k (a roll of its table by k), and the field strengths
    are folded into the couplings, so the coefficient of each term is
    lam_ww'^2 Z_w^2 Z_w'^2.  The connected two-point correction is
    g_w(k)^2 Sigma_w(k).
    """
    outer = model.g[channel].ravel() / model.cells**2
    lam_row = model.lam[channel] * model.z[channel] * model.z

    def pair_bubble(other):
        return np.roll(pair_bubble_table(model.g[other]), k_idx, axis=(0, 1)).ravel()

    return rgflow.sunset(outer, lam_row, pair_bubble)


def mixed_bubbles(g_a, g_b):
    """The two mixed-chirality routings at zero transfer,
    (ph, pp) = (mean_q g_a(q) g_b(q), mean_q g_a(q) g_b(-q)).

    On the antiperiodic grid -k_m is k_(cells-1-m) modulo the reciprocal
    lattice, so g_b(-q) is the index reflection of the table; the sum is
    zero when g_b is odd.
    """
    ph = np.mean(g_a * g_b)
    pp = np.mean(g_a * g_b[::-1, ::-1])
    return ph, pp


def fourpoint_grid(model, k_idx, q_idx, kp_idx, ch_a, ch_b):
    """One-loop connected four-point function on the grid.

    External legs (psi+_{k,a}, psi-_{q,a}, psi+_{k',b}, psi-_{q',b}) with
    q' = k - q + k'.  Three loop structures with coefficients pinned by
    the Wick oracle: the channel chain carries -1, the two mixed-chirality
    routings +1 each (their local parts cancel pointwise).
    """
    g, zs, lam, cells = model.g, model.z, model.lam, model.cells
    qp_idx = (
        (k_idx[0] - q_idx[0] + kp_idx[0]) % cells,
        (k_idx[1] - q_idx[1] + kp_idx[1]) % cells,
    )
    legs = g[ch_a][k_idx] * g[ch_a][q_idx] * g[ch_b][kp_idx] * g[ch_b][qp_idx]
    p0g, p1g = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")

    def at(table, base, sign):
        return table[(base[0] + sign * p0g) % cells, (base[1] + sign * p1g) % cells]

    chain = 0.0 + 0.0j
    transfer = ((k_idx[0] - q_idx[0]) % cells, (k_idx[1] - q_idx[1]) % cells)
    for c in range(len(g)):
        cc = lam[ch_a, c] * lam[c, ch_b]
        if cc == 0.0:
            continue
        chain += -cc * zs[ch_a] * zs[ch_b] * zs[c] ** 2 * pair_bubble_table(g[c])[transfer]
    loop_a = np.mean(at(g[ch_a], q_idx, +1) * at(g[ch_b], qp_idx, -1))
    loop_b = np.mean(at(g[ch_a], q_idx, +1) * at(g[ch_b], kp_idx, +1))
    mixed = lam[ch_a, ch_b] ** 2 * (zs[ch_a] * zs[ch_b]) ** 2 * (loop_a + loop_b)
    return legs * (chain + mixed)
