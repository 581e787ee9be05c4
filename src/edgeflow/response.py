"""Euclidean linear response of the noninteracting lattice Gibbs state.

Everything is evaluated in spectral form from the Bloch-fiber eigenpairs:
current/density vertices between the eigenbases at ``k1`` and ``k1 + p1``,
the current-current correlation on strips near an edge, the charge and
vertex conservation identities, the free edge conductance, and the
analytic real-time/imaginary-time comparison behind the response
coefficient.

The full fiber basis (including the decoupled Dirichlet-row modes) is kept
in all spectral sums; completeness of the basis is what makes the
conservation identities exact at finite size.

Every current a response reads is one fiber operator, built by
:func:`_current_operator` once per summand and kept on it in
``sub._currents`` for the model's life: a current component summed over
rows with a weight per row, ``J(k, k') = sum_(u1, v1) e^{-i (k u1 - k'
v1)} J_(u1 v1)`` (:func:`_ring_sum`) with fixed matrices ``J_(u1 v1)`` on
only the fiber rows the weight touches.  The indicator of
``y2 < n`` gives the ring current on a strip (the edge conductance, the
wrong-order diagnostic, the real-time check), ones on every row give the
current of the row-summed vertex identity, and a unit weight on row ``y2``
gives the current of the charge sum rule.  Per fiber pair the vertex
``Jbar = U_k^+ J(k, k') U_k'`` is a contraction of the band states on the
operator's rows.

The density is contracted the same way, before any band sum: summed over
a strip it is ``Dbar = U_k[strip]^+ U_k'[strip]``, since ``sum_xy sum_ab
D[x,a,b] conj(J[y,a,b]) w[a,b] = sum_ab Dbar[a,b] conj(Jbar[a,b]) w[a,b]``;
row by row (the sum rule) it is read off ``conj(U) * (U @ leg)``.  No
table of row-resolved vertices is built.  The backward leg of a loop is
the conjugate transpose of the forward one: the density and the bond
currents are Hermitian operators.

The strip sums (:func:`_strip_response`) take several ring momenta in one
call and loop over the fibers ``k`` outside: each fiber's legs,
``U_k[strip]^+`` and ``U_k[rows]^+ J_(u1 v1)``, are built once
(:func:`_fiber_legs`) and contracted with every partner ``k + p``, the
current legs summed with the pair's phases.  Only the band blocks where
the weight can be nonzero are contracted: at zero temperature the
occupied bands at ``k`` against the empty ones at ``k + p`` and the empty
against the occupied, two slices of the ascending bands
(:func:`_gibbs_weight`).

Each summand of a model (:meth:`~edgeflow.lattice.LatticeHamiltonian.summands`;
a connected model is its own only summand) stores each grid it reads
whole: ``sub._grids[n_k]`` holds one basis per grid momentum ``k1 = 2 pi
m / n_k``, in ascending ``k1``, with read-only arrays.  :func:`fiber_cache`
is the store's only reader and only writer: it returns one such grid per
summand, and a repeat read returns the stored grids with no ``eigh``.
Every response reads its grids through it, and so do the scan of
:func:`edgeflow.spectrum.scan_spectrum` and the chirality count of
:func:`edgeflow.spectrum.lower_edge_chirality`, so the identities and the
count asked of one model solve its grids once, and no response can read
the fibers of another model.  A model is fixed from its first read, so
none goes stale.  An off-grid solve is not stored: neither
:func:`diagonalize_fiber`'s, at the midpoints that the chirality count
halves an interval at, nor the bisection solves of
:func:`edgeflow.spectrum.fermi_point`.  So no other solve, and no other
grid, changes a bit of a grid read.

A grid read solves only half the ring of a summand with an inversion
mirror (:func:`edgeflow.lattice._inversion`, as the Haldane model and its
stacks have): its fiber at ``k1 = 2 pi m / n_k`` with ``n_k - m < m`` is
the permuted fiber at ``n_k - m`` of the same grid, so :func:`fiber_cache`
takes that basis's ``energies`` array and its states with their rows
permuted (:meth:`FiberBasis.mirror`).  These equal what an ``eigh`` at
``k1`` gives up to rounding and the phase of each state, which no response
reads.

The responses contract each summand's bands on its own sub-model and its
own grid, one summand at a time inside each momentum: the bands of two
summands have disjoint support, so every vertex between them is 0.  A
connected model is one summand and takes the whole-fiber arithmetic
unchanged.

Transform conventions: ring sums pair operators with ``exp(-i p1 x1)``
(matching the wavefunction convention of the fiber) and imaginary time
with ``exp(+i p0 x0)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .lattice import assemble_fiber

__all__ = [
    "FiberBasis",
    "ConductanceEstimate",
    "DegenerateCrossingError",
    "ConjugationSymmetryError",
    "SingularPropagatorError",
    "diagonalize_fiber",
    "fiber_cache",
    "ward_sum_rule",
    "free_two_point",
    "vertex_ward_residual",
    "edge_conductance_free",
    "wrong_order_diagnostic",
    "periodic_frequency",
    "wick_rotation_check",
]


class DegenerateCrossingError(RuntimeError):
    """A zero-frequency spectral weight hit an exact degeneracy across mu."""


class ConjugationSymmetryError(RuntimeError):
    """The strip response at -p1 is not the complex conjugate of that at p1."""


class SingularPropagatorError(RuntimeError):
    """A free propagator was asked for at its pole, -i k0 + e - mu = 0."""


class FiberBasis:
    """Eigenpairs of a Bloch fiber at ``k1``: ``energies`` ascending, and
    ``states`` with the matching eigenvectors as columns."""

    def __init__(self, k1, energies, states):
        self.k1 = float(k1)
        self.energies = energies
        self.states = states

    def mirror(self, k1, perm):
        """The basis at ``k1`` of the fiber ``H(k1) = H(self.k1)[perm][:, perm]``
        of a connected model: the same ``energies`` array, and the states
        with their rows permuted, ``U(k1) = U(self.k1)[perm]``."""
        return FiberBasis(k1, self.energies, self.states[perm])

    @property
    def dim(self):
        return len(self.energies)


def diagonalize_fiber(ham, k1):
    """The fiber at ``k1``, solved by one ``eigh`` of the whole fiber and not
    stored."""
    return FiberBasis(k1, *np.linalg.eigh(assemble_fiber(ham, k1)))


def fiber_cache(ham, n_k, threads=1):
    """The grids of the ring momenta ``k1 = 2 pi m / n_k``, one per summand
    in :meth:`~edgeflow.lattice.LatticeHamiltonian.summands` order: each the
    tuple of the summand's bases in ascending ``k1``, the order that fixes
    every later reduction.  A connected model gives a 1-tuple.

    Each summand stores its grid whole in ``sub._grids[n_k]``, with
    read-only arrays, and a later read returns it with no ``eigh``.  A miss
    solves the momenta ``m <= n_k - m`` of a summand with an inversion
    mirror ``perm`` (:func:`edgeflow.lattice._inversion`) and takes each
    other one from the basis at ``n_k - m``, since ``H(-k1) =
    H(k1)[perm][:, perm]`` (:meth:`FiberBasis.mirror`); a summand without
    one solves every momentum.  The solves are :func:`diagonalize_fiber`'s,
    on a pool of ``threads`` when there are more than one, after the
    model's first read.
    """
    grids = []
    for _, sub in ham.summands():
        grid = sub._grids.get(n_k)
        if grid is None:
            k1s = [2.0 * np.pi * m / n_k for m in range(n_k)]
            solve = k1s if sub._mirror is None else k1s[: n_k // 2 + 1]
            if threads > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=threads) as pool:
                    solved = list(pool.map(lambda k1: diagonalize_fiber(sub, k1), solve))
            else:
                solved = [diagonalize_fiber(sub, k1) for k1 in solve]
            grid = tuple(solved + [solved[n_k - m].mirror(k1s[m], sub._mirror) for m in range(len(solved), n_k)])
            for basis in grid:
                basis.energies.flags.writeable = basis.states.flags.writeable = False
            sub._grids[n_k] = grid
        grids.append(grid)
    return tuple(grids)


# ---------------------------------------------------------------------------
# Vertices
# ---------------------------------------------------------------------------

# Bond-current terms for the two current components, written as
# (u1, u2, v1, v2, z1, dx2_u, dx2_v, weight): the quadratic operator at
# cell x is  weight * i * a^+(x + (u1, u2)) H(z1; x2+dx2_u, x2+dx2_v) a^-(x + (v1, v2)),
# with z1 = u1 - v1 implied by translation invariance.
_J1_TERMS = [
    # j(x, x+e1)
    (0, 0, 1, 0, -1, 0, 0, 1.0),
    (1, 0, 0, 0, +1, 0, 0, -1.0),
    # 1/2 j(x, x+e1-e2)
    (0, 0, 1, -1, -1, 0, -1, 0.5),
    (1, -1, 0, 0, +1, -1, 0, -0.5),
    # 1/2 j(x, x+e1+e2)
    (0, 0, 1, 1, -1, 0, 1, 0.5),
    (1, 1, 0, 0, +1, 1, 0, -0.5),
    # 1/2 j(x-e2, x+e1)
    (0, -1, 1, 0, -1, -1, 0, 0.5),
    (1, 0, 0, -1, +1, 0, -1, -0.5),
    # 1/2 j(x+e2, x+e1)
    (0, 1, 1, 0, -1, 1, 0, 0.5),
    (1, 0, 0, 1, +1, 0, 1, -0.5),
]

_J2_TERMS = [
    # j(x, x+e2)
    (0, 0, 0, 1, 0, 0, 1, 1.0),
    (0, 1, 0, 0, 0, 1, 0, -1.0),
    # 1/2 j(x, x-e1+e2)
    (0, 0, -1, 1, +1, 0, 1, 0.5),
    (-1, 1, 0, 0, -1, 1, 0, -0.5),
    # 1/2 j(x, x+e1+e2)
    (0, 0, 1, 1, -1, 0, 1, 0.5),
    (1, 1, 0, 0, +1, 1, 0, -0.5),
    # 1/2 j(x-e1, x+e2)
    (-1, 0, 0, 1, -1, 0, 1, 0.5),
    (0, 1, -1, 0, +1, 1, 0, -0.5),
    # 1/2 j(x+e1, x+e2)
    (1, 0, 0, 1, +1, 0, 1, 0.5),
    (0, 1, 1, 0, -1, 1, 0, -0.5),
]


def _row_groups(terms):
    """Bond terms keyed by their row offsets ``(du, dv)``."""
    groups = {}
    for (u1, _, v1, _, z1, du, dv, wgt) in terms:
        groups.setdefault((du, dv), []).append((u1, v1, z1, wgt))
    return groups


def _index(name, value):
    """``value`` as an ``int``; a non-integral strip width or row, which
    truncated would read another strip, raises ``ValueError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_rows(geometry, rows, count):
    rows = tuple(_index("rows", r) for r in rows)
    if len(rows) != count or not all(0 <= r <= geometry.L2 for r in rows):
        raise ValueError(f"rows must be {count} counts in [0, {geometry.L2}], got {rows}")
    return rows


def _current_operator(ham, terms, weight):
    """The current component ``terms`` (:data:`_J1_TERMS` or :data:`_J2_TERMS`)
    summed over rows with ``weight[y2]``, as a fiber operator ``(rows, mats)``.

    ``rows`` is the slice of fiber components on the span of rows the
    weight touches (its nonzero rows +- 1, within the cylinder; empty for a
    zero weight), and ``mats`` the fixed matrices ``(u1, v1, J_(u1 v1))`` on
    that span, of which the operator between the fibers at ``k1`` and
    ``kp1`` is the phase-weighted sum ``J(k1, kp1) = _ring_sum(mats, k1,
    kp1)``.  A bond term with that ``(u1, v1)`` adds ``i w weight[y2]
    H(z1; y2 + du, y2 + dv)`` at rows ``(y2 + du, y2 + dv)``, and all of them
    share ``z1 = u1 - v1``, so ``J_(u1 v1) = i C * H(z1)`` on the span, built
    from the model's slab stack: ``C`` is the row-pair matrix of the summed
    ``w weight[y2]``.  A ``z1`` that no block has gives 0.

    The model stores each operator it was asked for in ``ham._currents``,
    keyed by the bond terms and the bytes of the weight, with read-only
    matrices, and a repeat returns the stored one: the build reads the
    model, which is fixed from its first read.
    """
    weight = np.asarray(weight, dtype=float)
    key = tuple(terms), weight.tobytes()
    current = ham._currents.get(key)
    if current is not None:
        return current
    g = ham.geometry
    z1s, slabs = ham._slab_stack()
    on = np.flatnonzero(weight)
    lo, hi = (max(on[0] - 1, 0), min(on[-1] + 2, g.L2)) if on.size else (0, 0)
    span = hi - lo
    hops = {int(z1): slab.reshape(g.L2, g.M, g.L2, g.M)[lo:hi, :, lo:hi] for z1, slab in zip(z1s, slabs)}
    keys, at, values = {}, [], []
    for (du, dv), group in _row_groups(terms).items():
        y2 = on[(on + min(du, dv) >= 0) & (on + max(du, dv) < g.L2)]
        for (u1, v1, z1, wgt) in group:
            at.append((np.full(y2.size, keys.setdefault((u1, v1, z1), len(keys))), y2 + du - lo, y2 + dv - lo))
            values.append(wgt * weight[y2])
    coef = np.zeros((len(keys), span, span))
    np.add.at(coef, tuple(np.concatenate(i) for i in zip(*at)), np.concatenate(values))
    n, zero = span * g.M, np.zeros((span, g.M, span, g.M))
    mats = []
    for (u1, v1, z1), c in zip(keys, coef):
        mat = (1j * c[:, None, :, None] * hops.get(z1, zero)).reshape(n, n)
        mat.flags.writeable = False
        mats.append((u1, v1, mat))
    current = ham._currents[key] = slice(lo * g.M, hi * g.M), tuple(mats)
    return current


def _ring_sum(mats, k1, kp1):
    """``sum_(u1, v1) e^{-i (k1 u1 - kp1 v1)} X_(u1 v1)`` over ``mats =
    [(u1, v1, X_(u1 v1)), ...]``: the current ``J(k1, kp1)`` from the fixed
    matrices of :func:`_current_operator`, or the forward leg of its vertex
    from the legs of :func:`_fiber_legs`.  Momenta of shape ``(n, 1, 1)``
    give the ``n`` sums stacked, each bitwise the sum at its momentum."""
    (u1, v1, x), *rest = mats
    out = np.exp(-1j * (k1 * u1 - kp1 * v1)) * x
    for u1, v1, x in rest:
        out += np.exp(-1j * (k1 * u1 - kp1 * v1)) * x
    return out


def _fiber_legs(basis, strip, current):
    """The legs at ``k`` of every strip vertex ``(k, k')``, built once per
    fiber: ``(k1, U_k[:strip]^+, rows, [(u1, v1, U_k[rows]^+ J_(u1 v1)), ...])``
    for the strip current ``current = _current_operator(ham, _J1_TERMS, y2 <
    n_rows)``.  The ring sum of the current legs (:func:`_ring_sum` at
    ``(k, k')``) is the forward leg of the pair's current vertex."""
    rows, mats = current
    ah = basis.states[rows].conj().T
    return basis.k1, basis.states[:strip].conj().T, rows, [(u1, v1, ah @ mat) for u1, v1, mat in mats]


def _strip_vertices(legs, basis_kp, blocks):
    """``[(Dbar, Jbar), ...]`` of the fiber pair ``(k, k')``, one per band
    block ``(a, b, _)`` of ``blocks``: the legs of :func:`_fiber_legs` at
    ``k`` on the bands ``a``, contracted with the band states ``b`` of the
    basis at ``k'``.  ``Dbar`` is the density summed over the strip ``x2 <
    strip / M``, ``Jbar`` the vertex of the ring current over ``y2 < n_rows``."""
    k1, dh, rows, jlegs = legs
    leg = _ring_sum(jlegs, k1, basis_kp.k1)
    u = basis_kp.states
    return [(dh[a] @ u[: dh.shape[1], b], leg[a] @ u[rows, b]) for a, b, _ in blocks]


def _fermi(e, mu, temperature):
    if temperature <= 0.0:
        return (e < mu).astype(float)
    x = np.clip((e - mu) / temperature, -700, 700)
    return 1.0 / (1.0 + np.exp(x))


def _pair_weight(e_a, e_b, n_a, n_b, temperature, p0):
    """Spectral weight (n_b - n_a) / (i p0 + e_a - e_b), with ``n_a`` and
    ``n_b`` the occupations :func:`_fermi` of ``e_a`` and ``e_b`` at
    ``temperature``, and the zero-frequency limits of pairs closer than
    1e-12 in energy resolved.

    A pair of equal occupations has weight exactly 0 at every ``p0``, also
    at a ``p0`` so small that ``0 / (i p0)`` would come out NaN."""
    de = e_a[:, None] - e_b[None, :]
    dn = n_b[None, :] - n_a[:, None]
    if p0 != 0.0:
        out = np.zeros(de.shape, dtype=complex)
        np.divide(dn, 1j * p0 + de, out=out, where=dn != 0.0)
        return out
    deg = np.abs(de) < 1e-12
    if temperature <= 0.0:
        if np.any(deg & (np.abs(dn) > 0.5)):
            raise DegenerateCrossingError(
                "states straddling mu are degenerate at p0 = 0; shift the "
                "momentum grid or chemical potential"
            )
        out = np.zeros_like(de)
        np.divide(dn, de, out=out, where=~deg)
        return out
    out = np.empty_like(de)
    np.divide(dn, de, out=out, where=~deg)
    beta = 1.0 / temperature
    nn = -beta * n_a * (1.0 - n_a)
    out[deg] = (nn[:, None] * np.ones_like(de))[deg]
    return out


def _ward_columns(ham, grids, mu, p0, y2, temperature):
    """``cols[i - 1, x2] = S_{0,i}((p0, 0); x2, y2)``, ``(2, L2)``: the density
    on row ``x2`` against row ``y2`` of current component ``i``.

    Per summand and fiber, with band states ``U`` on the summand's rows and
    weight ``w``, ``Jbar_i`` is the vertex of the unit-weight operator of
    row ``y2`` (:func:`_current_operator`, three rows of the fiber) and
    ``cols[i - 1, x2] = sum_(rho, a) conj(U) * (U @ (conj(Jbar_i) * w).T)`` on
    the components ``(x2, rho)``: no row-resolved density is built, and
    the cost does not depend on ``y2``.

    What is per grid is formed once per summand, before the fiber loop:
    both components' currents ``J_i(k, k)`` of every fiber, stacked, and
    the occupations of every fiber.  The band-pair arrays are not stacked
    over the grid, which was slower and took more memory: the loop
    contracts one fiber at a time, in the order of a per-fiber sum, so the
    columns are bitwise the same.
    """
    L2 = ham.geometry.L2
    row = np.arange(L2) == y2
    parts = []
    for (_, sub), grid in zip(ham.summands(), grids, strict=True):
        k1 = np.array([b.k1 for b in grid])[:, None, None]
        (rows, j1), (_, j2) = (_current_operator(sub, terms, row) for terms in (_J1_TERMS, _J2_TERMS))
        currents = np.stack([_ring_sum(j1, k1, k1), _ring_sum(j2, k1, k1)], axis=1)  # (n_k, 2, r, r)
        occupations = _fermi(np.array([b.energies for b in grid]), mu, temperature)
        parts.append((grid, rows, currents, occupations))
    cols = np.zeros((2, L2), dtype=complex)
    for m in range(len(grids[0])):
        for grid, rows, currents, occupations in parts:
            u, e, f = grid[m].states, grid[m].energies, occupations[m]
            w = _pair_weight(e, e, f, f, temperature, p0)
            # the backward leg is the row-y2 current, conjugate-transposed
            ah, ur = u[rows].conj().T, u[rows]
            legs = np.stack([(ah @ j) @ ur for j in currents[m]]).conj() * w
            cols += (u.conj() * (u @ legs.transpose(0, 2, 1))).reshape(2, L2, -1).sum(axis=2)
    return cols / len(grids[0])


def ward_sum_rule(ham, mu, p0, y2, n_k, temperature=0.0):
    """Charge-conservation residual: |sum_x2 S_{0,i}((p0, 0); x2, y2)| for
    the two current components, normalized by the largest summand: the
    density on every row contracted with row ``y2`` of each current
    (:func:`_ward_columns`).

    ``y2`` must be an integer interior row, in ``[1, L2 - 2]``: on a Dirichlet row
    every summand vanishes and the residual would be 0 whatever the model.
    """
    L2 = ham.geometry.L2
    if not 1 <= _index("y2", y2) <= L2 - 2:
        raise ValueError(f"y2 must be an interior row in [1, L2 - 2] = [1, {L2 - 2}], got {y2}")
    cols = _ward_columns(ham, fiber_cache(ham, n_k), mu, p0, y2, temperature)
    out = {}
    for i, col in zip((1, 2), cols):
        scale = max(np.max(np.abs(col)), 1e-300)
        out[i] = float(np.abs(np.sum(col)) / scale)
    return out


# ---------------------------------------------------------------------------
# Vertex (three-point) conservation identity
# ---------------------------------------------------------------------------


def _propagator(energies, k0, mu):
    """Eigenvalues 1 / (-i k0 + e - mu) of the free propagator; raises
    :class:`SingularPropagatorError` at a pole."""
    den = -1j * k0 + energies - mu
    poles = np.flatnonzero(den == 0.0)
    if poles.size:
        raise SingularPropagatorError(
            f"propagator pole at k0 = {k0!r}, mu = {mu!r}: fiber energy {energies[poles[0]]!r} equals mu"
        )
    return 1.0 / den


def free_two_point(basis, k0, mu):
    """Free fiber-resolved two-point function (-i k0 + H(k1) - mu)^-1."""
    states = basis.states
    return (states * _propagator(basis.energies, k0, mu)) @ states.conj().T


def vertex_ward_residual(ham, mu, k0, k1_index, p0, p1_index, n_k):
    """Residual of the free vertex conservation identity.

    ``p0 * S3_density + (1 - e^{-i p1}) * S3_current = i S2(k) - i S2(k+p)``
    with everything summed over the insertion row; returns the max-norm
    residual divided by the largest participating term.  The row-summed
    three-point functions are the matrices ``S2(k) S2(k+p)`` and ``S2(k)
    J(k, k') S2(k+p)`` over (x2 rho, y2 rho'), with :func:`free_two_point`
    and the ring current on all rows (:func:`_current_operator`); the two
    two-point functions are formed once, for both sides.  The fibers are
    those of the grid ``2 pi m / n_k`` at ``m = k1_index`` and ``k1_index +
    p1_index``, both mod ``n_k``, of each summand's grid of
    :func:`fiber_cache`.  A direct sum is checked on each summand's own
    fibers, and its residual is the largest over the summands, divided by
    the largest term of any.
    """
    p1 = 2.0 * np.pi * p1_index / n_k
    rows = np.ones(ham.geometry.L2)
    errors, scales = [], [1e-300]
    for (_, sub), grid in zip(ham.summands(), fiber_cache(ham, n_k), strict=True):
        b_k, b_kp = grid[k1_index % n_k], grid[(k1_index + p1_index) % n_k]
        s2_k = free_two_point(b_k, k0, mu)
        s2_kp = free_two_point(b_kp, k0 + p0, mu)
        _, mats = _current_operator(sub, _J1_TERMS, rows)
        s3_n = s2_k @ s2_kp
        s3_j = s2_k @ _ring_sum(mats, b_k.k1, b_kp.k1) @ s2_kp
        lhs = p0 * s3_n + (1.0 - np.exp(-1j * p1)) * s3_j
        rhs = 1j * (s2_k - s2_kp)
        errors.append(np.max(np.abs(lhs - rhs)))
        scales += [np.max(np.abs(lhs)), np.max(np.abs(rhs))]
    return float(np.max(errors) / np.max(scales))


# ---------------------------------------------------------------------------
# Edge conductance
# ---------------------------------------------------------------------------


def _contract(dbar, jbar, w):
    """``sum_ab Dbar[a, b] conj(Jbar[a, b]) w[a, b]``, one ``vdot``; for a
    stack ``w`` of weights, one per weight."""
    if w.ndim == 2:
        return np.vdot(jbar, dbar * w)
    return np.array([_contract(dbar, jbar, x) for x in w])


def _strip_response(ham, grids, p1_indices, rows, weight):
    """Density-current response summed over the strips ``x2 < rows[0]``
    (density) and ``y2 < rows[1]`` (ring current) at each ring momentum
    ``2 pi p1 / n_k`` of ``p1_indices``, on the grids of :func:`fiber_cache`,
    one per summand of ``n_k`` bases each: one value per momentum.

    ``weight(e_k, e_kp)`` is the spectral weight of a fiber pair on the band
    blocks where it can be nonzero, from the ascending energies of the two
    bases: a list of ``(a, b, w)`` with slices ``a`` of the bands at ``k``
    and ``b`` of those at ``k + p``, and ``w`` of shape ``(len a, len b)``,
    or a stack ``(s, len a, len b)``, which gives ``s`` responses from one
    loop (:func:`_gibbs_weight`).

    The strip sums are taken on the vertices, before the band contraction.
    The strip current is built once per summand as a fiber operator
    (:func:`_current_operator` with the indicator of ``y2 < rows[1]``); the
    loop runs over the fibers ``k`` outside, builds each fiber's legs once
    (:func:`_fiber_legs`), and contracts them with every partner ``k + p``
    on the pair's blocks only (:func:`_strip_vertices`).  With the weight
    :func:`_pair_weight` this is the row-resolved density-current table
    summed over those rows.

    The sum runs over the summands of the model inside each ``k``, on each
    summand's own grid and with its own weight: the bands of two summands
    have disjoint support, so every vertex between them is 0.
    """
    rows = _check_rows(ham.geometry, rows, 2)
    n_k = len(grids[0])
    on_strip = np.arange(ham.geometry.L2) < rows[1]
    strips = [(rows[0] * sub.geometry.M, _current_operator(sub, _J1_TERMS, on_strip)) for _, sub in ham.summands()]
    totals = [0.0 + 0.0j] * len(p1_indices)
    for m in range(n_k):
        for (strip, current), grid in zip(strips, grids, strict=True):
            legs = _fiber_legs(grid[m], strip, current)
            for j, p1_index in enumerate(p1_indices):
                b_kp = grid[(m + p1_index) % n_k]
                blocks = weight(grid[m].energies, b_kp.energies)
                for (_, _, w), (dbar, jbar) in zip(blocks, _strip_vertices(legs, b_kp, blocks)):
                    totals[j] = totals[j] + _contract(dbar, jbar, w)
    return np.array(totals) / n_k


def _gibbs_weight(mu, p0):
    """:func:`_pair_weight` at ``(mu, T = 0, p0)`` as the ``weight`` of
    :func:`_strip_response`.

    The weight is 0 unless one state is occupied and the other empty, so it
    is the two blocks ``[:o] x [o':]`` and ``[o:] x [:o']`` with ``o = #(e_k
    < mu)`` and ``o' = #(e_kp < mu)`` (slices, the energies being ascending),
    where ``n_F(e_b) - n_F(e_a)`` is -1 and +1; an empty block is left out.
    At ``p0 = 0`` each block's smallest energy gap, one scalar, is checked
    against the 1e-12 of :func:`_pair_weight`.  The finite-temperature
    weights of :func:`wick_rotation_check` are built there.
    """

    def blocks(e_k, e_kp):
        o, o_p = e_k.searchsorted(mu), e_kp.searchsorted(mu)
        out = []
        for a, b, dn in ((slice(0, o), slice(o_p, None), -1.0), (slice(o, None), slice(0, o_p), 1.0)):
            de = e_k[a, None] - e_kp[b]
            if not de.size:
                continue
            if p0 != 0.0:
                w = dn / (1j * p0 + de)
            # the energies ascend, so the block's smallest gap is at a corner
            elif min(abs(de[-1, 0]), abs(de[0, -1])) < 1e-12:
                raise DegenerateCrossingError(
                    "states straddling mu are degenerate at p0 = 0; shift the "
                    "momentum grid or chemical potential"
                )
            else:
                w = dn / de
            out.append((a, b, w))
        return out

    return blocks


@dataclass
class ConductanceEstimate:
    p1_values: np.ndarray
    g_values: np.ndarray
    g: float
    stderr: float


def edge_conductance_free(ham, mu, n_k, a, a_prime):
    """Static edge response summed over strips, extrapolated to zero ring
    momentum.

    For each of the three smallest nonzero grid momenta the frequency is
    set to zero inside the spectral form (the slow-time limit taken
    first); the returned ``g`` is the linear-in-p1 intercept over them.
    The density is summed over rows ``x2 <= a`` and the ring current over
    rows ``y2 <= a_prime``, integers with ``0 <= a_prime < a <= L2 - 1``.
    """
    L2 = ham.geometry.L2
    if not 0 <= _index("a_prime", a_prime) < _index("a", a) <= L2 - 1:
        raise ValueError(f"need 0 <= a_prime < a <= L2 - 1 = {L2 - 1}, got a = {a}, a_prime = {a_prime}")
    g_plus, g_minus, g_2, g_3 = _strip_response(
        ham, fiber_cache(ham, n_k), (1, n_k - 1, 2, 3), (a + 1, a_prime + 1), _gibbs_weight(mu, 0.0)
    )
    # the response at opposite ring momenta are complex conjugates, so the
    # even-in-p1 part (the part that survives p1 -> 0) is the real part.  The
    # check is relative to one conductance quantum 1/(2 pi) at least: a
    # counter-propagating stack cancels G down to rounding.
    sym_err = abs(g_minus - np.conj(g_plus))
    if sym_err > 1e-9 * max(abs(g_plus), 1.0 / (2.0 * np.pi)):
        raise ConjugationSymmetryError(f"conjugation symmetry violated: {sym_err:.2e}")
    p1s = 2.0 * np.pi * np.arange(1, 4) / n_k
    gs = np.array([g_plus, g_2, g_3])
    coef, cov = np.polyfit(p1s, gs.real, 1, cov=True)
    return ConductanceEstimate(
        p1_values=p1s,
        g_values=gs.real,
        g=float(coef[1]),
        stderr=float(np.sqrt(max(cov[1, 1], 0.0))),
    )


def wrong_order_diagnostic(ham, mu, p0, n_k, a_prime):
    """Zero-momentum static response with the limits interchanged.

    The full transverse sum of the density leg at p1 = 0 is the conserved
    charge, so this vanishes for every p0 != 0: taking the momentum limit
    before the frequency limit gives 0 instead of the conductance.  The
    density is summed over all rows and the ring current over rows
    ``y2 <= a_prime``, on the vertices (:func:`_strip_response`), with
    an integer ``0 <= a_prime <= L2 - 1``: an empty strip would give exactly 0.
    """
    L2 = ham.geometry.L2
    if not 0 <= _index("a_prime", a_prime) <= L2 - 1:
        raise ValueError(f"need 0 <= a_prime <= L2 - 1 = {L2 - 1}, got a_prime = {a_prime}")
    return complex(_strip_response(ham, fiber_cache(ham, n_k), (0,), (L2, a_prime + 1), _gibbs_weight(mu, p0))[0])


# ---------------------------------------------------------------------------
# Real-time vs imaginary-time comparison
# ---------------------------------------------------------------------------


def periodic_frequency(eta, beta):
    """The frequency ``2 pi n / beta`` nearest to ``eta``, at which
    :func:`wick_rotation_check` evaluates the imaginary-time side."""
    return 2.0 * np.pi / beta * round(eta * beta / (2.0 * np.pi))


def wick_rotation_check(ham, mu, beta, t_horizon, eta, p1_index, n_k, a, a_prime):
    """Compare the damped real-time commutator integral with the
    imaginary-time correlation at the nearest periodic frequency.

    Returns ``(lhs, rhs, residual)``.  Both sides are evaluated in closed
    form per eigenpair, as two weights of one :func:`_strip_response` loop:
    the real-time side integrates ``exp((eta + i(e_a - e_b)) t)`` over
    ``(-T, 0]``, the imaginary-time side is the spectral form at frequency
    ``eta_beta`` (:func:`periodic_frequency`), which must be nonzero.  The
    density is summed over rows ``x2 <= a`` and the ring current over rows
    ``y2 <= a_prime``, both integers in ``[0, L2 - 1]``: an empty strip would make
    both sides exactly 0.
    """
    L2 = ham.geometry.L2
    if not (0 <= _index("a", a) <= L2 - 1 and 0 <= _index("a_prime", a_prime) <= L2 - 1):
        raise ValueError(f"need 0 <= a, a_prime <= L2 - 1 = {L2 - 1}, got a = {a}, a_prime = {a_prime}")
    eta_beta = periodic_frequency(eta, beta)
    if eta_beta == 0.0:
        raise ValueError("beta too small: nearest periodic frequency to eta is 0")
    temperature = 1.0 / beta

    def weights(e_k, e_kp):
        # real time: (n_F(e_a) - n_F(e_b)) int_{-T}^0 e^{(eta + i (e_a - e_b)) t} dt
        f_k, f_kp = _fermi(e_k, mu, temperature), _fermi(e_kp, mu, temperature)
        dn = f_k[:, None] - f_kp[None, :]
        zz = eta + 1j * (e_k[:, None] - e_kp[None, :])
        imaginary_time = _pair_weight(e_k, e_kp, f_k, f_kp, temperature, -eta_beta)
        return [(slice(None), slice(None), np.stack([dn * (1.0 - np.exp(-zz * t_horizon)) / zz, imaginary_time]))]

    (lhs, rhs), = _strip_response(ham, fiber_cache(ham, n_k), (p1_index,), (a + 1, a_prime + 1), weights)
    rhs = 1j * rhs
    return lhs, rhs, abs(lhs - rhs)
