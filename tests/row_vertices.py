"""Row-resolved vertices: the oracle for the fiber-operator responses.

The responses in ``edgeflow.response`` contract the band states with one
fiber operator per current and never build a vertex per row.  This module
keeps the row-resolved build they replaced: the density and both bond
currents on each row, batched over rows by row-offset group, and the
correlation tables and sum-rule columns contracted from them.  The tests
check the operator path against it, and it against a plain loop over the
bond terms.  It reads a direct sum through one ``eigh`` of its whole
fiber (:func:`edgeflow.response.diagonalize_fiber`) in the correlation
tables, where the responses go one summand at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from edgeflow import response
from edgeflow.response import _check_rows, _pair_weight, _row_groups


@dataclass
class VertexSet:
    """Row-resolved density and current vertices between two fiber bases.

    Arrays have shape (L2, n, n): entry [x2, a, b] couples band a of the
    basis at k1 to band b of the basis at k1 + p1.
    """

    density: np.ndarray
    current1: np.ndarray
    current2: np.ndarray


def _row_table(ham):
    """All blocks as one array, ``table[z1 + 1, x2 - y2 + 1, x2] = H(z1; x2, y2)``,
    of shape ``(3, 3, L2, M, M)`` with zeros where no block is stored: every
    block has ``z1`` and ``x2 - y2`` in ``{-1, 0, 1}``.  Runs the model's
    cached Hermiticity check first, as the response path does."""
    ham._slab_stack()
    g = ham.geometry
    table = np.zeros((3, 3, g.L2, g.M, g.M), dtype=complex)
    for (z1, x2, y2), blk in ham.items():
        table[z1 + 1, x2 - y2 + 1, x2] = blk
    return table


def _current_groups(ham, terms, n_rows, ah, b, k1, kp1):
    """One current component's bond terms on rows ``x2 < n_rows``, one item
    per row-offset group ``(du, dv)``.

    Each item is ``(lo, hi, left, right)`` with ``left[i] = a[x2 + du]^+ Heff[x2]``
    and ``right[i] = b[x2 + dv]`` for ``x2 = lo + i < hi``, where ``Heff`` sums
    the group's phased hoppings ``H(z1; x2 + du, x2 + dv)`` from the model's
    row table: the vertex on row ``x2`` is the sum over groups of
    ``left @ right`` at that row.
    """
    L2 = ham.geometry.L2
    table = _row_table(ham)
    for (du, dv), group in _row_groups(terms).items():
        lo, hi = max(0, -du, -dv), min(n_rows, L2 - max(du, dv))
        if lo >= hi:
            continue
        heff = sum(
            1j * wgt * np.exp(-1j * (k1 * u1 - kp1 * v1))
            * table[z1 + 1, du - dv + 1, lo + du : hi + du]
            for (u1, v1, z1, wgt) in group
        )
        yield lo, hi, ah[lo + du : hi + du] @ heff, b[lo + dv : hi + dv]


def build_vertices(ham, basis_k, basis_kp, rows=None):
    """Density and bond-current vertices for the pair ``(k1, k1 + p1)``
    implied by the two bases.

    ``rows`` gives how many leading rows ``x2 = 0, 1, ...`` to build of
    the density, ``current1`` and ``current2`` (all ``L2`` rows each by
    default); a component given 0 rows is an empty array.  Each item of
    :func:`_current_groups` adds ``a[x2 + du]^+ Heff b[x2 + dv]`` to its rows
    in one batched matmul.  ``build_vertices(ham, basis_kp, basis_k)`` is
    the per-row conjugate transpose of this one.
    """
    g = ham.geometry
    rows = (g.L2,) * 3 if rows is None else _check_rows(g, rows, 3)
    if basis_k.dim != basis_kp.dim:
        raise ValueError("fiber dimensions differ")
    ah = basis_k.states.reshape(g.L2, g.M, -1).conj().transpose(0, 2, 1)  # a[x2]^+
    b = basis_kp.states.reshape(g.L2, g.M, -1)
    density = ah[: rows[0]] @ b[: rows[0]]

    currents = []
    # the bond terms are read on each call, so a test may patch them
    for terms, n_rows in zip((response._J1_TERMS, response._J2_TERMS), rows[1:]):
        out = np.zeros((n_rows, basis_k.dim, basis_k.dim), dtype=complex)
        for lo, hi, left, right in _current_groups(ham, terms, n_rows, ah, b, basis_k.k1, basis_kp.k1):
            out[lo:hi] += left @ right
        currents.append(out)
    return VertexSet(density=density, current1=currents[0], current2=currents[1])


def _vertex_component(vs, index):
    return (vs.density, vs.current1, vs.current2)[index]


def current_current(ham, mu, p0, p1_index, n_k, temperature=0.0, strips=None, components=((0, 0), (0, 1))):
    """Connected current-current correlation on strips near the lower edge.

    ``p1_index`` selects the ring momentum 2 pi p1_index / n_k.  Returns
    a dict from each component pair (mu, nu) to its table, indexed by rows
    x2 <= strips[0] and y2 <= strips[1].
    """
    g = ham.geometry
    if strips is None:
        strips = (g.L2 // 2 - 2, g.L2 // 4)
    sa, sb = strips
    grids = response.fiber_cache(ham, n_k)
    # a direct sum's whole-fiber eigh may mix degenerate states of two
    # summands, which no row-table sum over the bands depends on
    fibers = grids[0] if len(grids) == 1 else [response.diagonalize_fiber(ham, b.k1) for b in grids[0]]
    tables = {c: np.zeros((sa + 1, sb + 1), dtype=complex) for c in components}
    rows = [0, 0, 0]
    for (mu_i, nu_i) in components:
        rows[mu_i] = max(rows[mu_i], sa + 1)
        rows[nu_i] = max(rows[nu_i], sb + 1)
    for m in range(n_k):
        f_k = fibers[m]
        f_kp = fibers[(m + p1_index) % n_k]
        vs = build_vertices(ham, f_k, f_kp, rows=rows)
        w = _pair_weight(f_k.energies, f_kp.energies, mu, temperature, p0)
        for (mu_i, nu_i) in components:
            va = _vertex_component(vs, mu_i)[: sa + 1]
            vf = _vertex_component(vs, nu_i)[: sb + 1]
            # the backward leg is vf conjugate-transposed per row
            tables[(mu_i, nu_i)] += (
                va.reshape(sa + 1, -1) @ (vf.conj() * w).reshape(sb + 1, -1).T
            )
    for c in components:
        tables[c] /= n_k
    return tables


def ward_columns(ham, fibers, mu, p0, y2, temperature):
    """The columns of ``response._ward_columns`` from the whole-fiber
    vertices: the density on every row contracted with row ``y2`` of each
    current."""
    L2 = ham.geometry.L2
    cols = np.zeros((2, L2), dtype=complex)
    for f in fibers:
        vs = build_vertices(ham, f, f, rows=(L2, y2 + 1, y2 + 1))
        w = _pair_weight(f.energies, f.energies, mu, temperature, p0)
        legs = np.stack([vs.current1[y2], vs.current2[y2]]).conj() * w
        cols += legs.reshape(2, -1) @ vs.density.reshape(L2, -1).T
    return cols / len(fibers)
