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

Every current a response reads is one fiber operator, built once per
summand and call by :func:`_current_operator`: a current component
summed over rows with a weight per row, ``J(k, k') = sum_(u1, v1)
e^{-i (k u1 - k' v1)} J_(u1 v1)`` with fixed matrices ``J_(u1 v1)`` on only
the fiber rows the weight touches.  The indicator of ``y2 < n`` gives the
ring current on a strip (the edge conductance, the wrong-order diagnostic,
the real-time check), ones on every row give the row-summed three-point
function, and a unit weight on row ``y2`` gives the current of the charge
sum rule.  Per fiber pair the vertex ``Jbar = U_k^+ J(k, k') U_k'`` is one
contraction of the band states on the operator's rows.

The density is contracted the same way, before any band sum: summed over
a strip it is ``Dbar = U_k[strip]^+ U_k'[strip]``, since ``sum_xy sum_ab
D[x,a,b] conj(J[y,a,b]) w[a,b] = sum_ab Dbar[a,b] conj(Jbar[a,b]) w[a,b]``;
row by row (the sum rule) it is read off ``conj(U) * (U @ leg)``.  No
table of row-resolved vertices is built.  The backward leg of a loop is
the conjugate transpose of the forward one: the density and the bond
currents are Hermitian operators.

A model that is a direct sum (:meth:`~edgeflow.lattice.LatticeHamiltonian.summands`)
is diagonalized one summand at a time, one ``eigh`` of each summand's own
fiber, and the responses contract each summand's bands on its own
sub-model: the bands of two summands have disjoint support, so every
vertex between them is 0.  A connected model is one summand and takes
the whole-fiber arithmetic unchanged.

Transform conventions: ring sums pair operators with ``exp(-i p1 x1)``
(matching the wavefunction convention of the fiber) and imaginary time
with ``exp(+i p0 x0)``.
"""

from __future__ import annotations

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
    "fiber_grid",
    "ward_sum_rule",
    "free_two_point",
    "vertex_three_point",
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
    """Eigenpairs of the Bloch fiber at ``k1``: ``energies`` ascending, and
    ``states`` with the matching eigenvectors as columns.

    The basis is kept per summand of the model
    (:meth:`~edgeflow.lattice.LatticeHamiltonian.summands`): ``parts`` holds
    one basis per summand, of that summand's own fiber.  A basis of one
    summand is its own only part and holds the ``eigh`` output as it came.
    A basis of several (:meth:`direct_sum`) merges the parts' energies by a
    stable sort, and builds ``states`` on each access by placing each
    part's eigenvectors on its summand's rows; the whole-fiber states are
    not stored.
    """

    def __init__(self, k1, energies, states):
        self.k1 = float(k1)
        self.energies = energies
        self._states = states
        self._parts = None  # ((basis, fiber rows, columns), ...) of a direct sum

    @classmethod
    def direct_sum(cls, geometry, indices, parts):
        """The basis of a model whose summand ``s`` holds the internal
        indices ``indices[s]`` and has the fiber basis ``parts[s]``."""
        energies = np.concatenate([p.energies for p in parts])
        order = np.argsort(energies, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        out = cls(parts[0].k1, energies[order], None)
        ends = np.cumsum([p.dim for p in parts])
        rows = [(np.arange(geometry.L2)[:, None] * geometry.M + idx).ravel() for idx in indices]
        out._parts = tuple(zip(parts, rows, np.split(column, ends[:-1])))
        return out

    @property
    def parts(self):
        return (self,) if self._parts is None else tuple(p for p, _, _ in self._parts)

    @property
    def states(self):
        if self._parts is None:
            return self._states
        return self.columns(np.arange(self.dim))

    def columns(self, idx):
        """``states[:, idx]`` for an array ``idx`` of column indices; a direct
        sum places only those columns of its parts."""
        if self._parts is None:
            return self._states[:, idx]
        out = np.zeros((self.dim, len(idx)), dtype=complex)
        for part, rows, cols in self._parts:
            local = np.full(self.dim, -1)
            local[cols] = np.arange(cols.size)
            j = local[idx]
            mine = j >= 0
            out[np.ix_(rows, np.flatnonzero(mine))] = part.states[:, j[mine]]
        return out

    @property
    def dim(self):
        return len(self.energies)


def diagonalize_fiber(ham, k1):
    """The :class:`FiberBasis` at ``k1``: one ``eigh`` per summand of the
    model, of the summand's own fiber; for a connected model that is
    ``np.linalg.eigh(assemble_fiber(ham, k1))`` as it comes."""
    summands = ham.summands()
    parts = [FiberBasis(k1, *np.linalg.eigh(assemble_fiber(sub, k1))) for _, sub in summands]
    if len(parts) == 1:
        return parts[0]
    return FiberBasis.direct_sum(ham.geometry, [idx for idx, _ in summands], parts)


def fiber_cache(ham, n_k, threads=1):
    """All fibers on the ring-momentum grid k1 = 2 pi m / n_k.

    Diagonalizations are independent and may run on a thread pool; the
    returned list order (ascending k1) fixes every later reduction.
    """
    ks = [2.0 * np.pi * m / n_k for m in range(n_k)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda k: diagonalize_fiber(ham, k), ks))
    return [diagonalize_fiber(ham, k) for k in ks]


def fiber_grid(ham, n_k, fibers, threads=1):
    """The ``n_k``-point grid: the caller's ``fibers``, which must be ``n_k``
    of them (``ValueError`` naming both counts), or for ``None`` a new
    :func:`fiber_cache` on ``threads`` threads."""
    if fibers is None:
        return fiber_cache(ham, n_k, threads=threads)
    if len(fibers) != n_k:
        raise ValueError(f"need {n_k} fibers, got {len(fibers)}")
    return fibers


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


def _check_rows(geometry, rows, count):
    rows = tuple(int(r) for r in rows)
    if len(rows) != count or not all(0 <= r <= geometry.L2 for r in rows):
        raise ValueError(f"rows must be {count} counts in [0, {geometry.L2}], got {rows}")
    return rows


def _current_operator(ham, terms, weight):
    """The current component ``terms`` (:data:`_J1_TERMS` or :data:`_J2_TERMS`)
    summed over rows with ``weight[y2]``, as a fiber operator ``(rows, J)``.

    ``rows`` is the slice of fiber components on the span of rows the
    weight touches (its nonzero rows +- 1, within the cylinder; empty for a
    zero weight), and ``J(k1, kp1) = sum_(u1, v1) e^{-i (k1 u1 - kp1 v1)}
    J_(u1 v1)`` the operator on that span between the fibers at ``k1`` and
    ``kp1``.  Each fixed matrix ``J_(u1 v1)``, built once here from the
    model's row table, places ``i w weight[y2] H(z1; y2 + du, y2 + dv)`` at
    rows ``(y2 + du, y2 + dv)`` for each bond term with that ``(u1, v1)``.
    """
    g = ham.geometry
    table = ham._row_table()  # ValueError beyond hop range sqrt(2), where bond currents are undefined
    weight = np.asarray(weight, dtype=float)
    on = np.flatnonzero(weight)
    lo, hi = (max(on[0] - 1, 0), min(on[-1] + 2, g.L2)) if on.size else (0, 0)
    ops = {}
    for (du, dv), group in _row_groups(terms).items():
        y2 = on[(on + min(du, dv) >= 0) & (on + max(du, dv) < g.L2)]
        coef = weight[y2, None, None]
        for (u1, v1, z1, wgt) in group:
            op = ops.setdefault((u1, v1), np.zeros((hi - lo, g.M, hi - lo, g.M), dtype=complex))
            op[y2 + du - lo, :, y2 + dv - lo] += 1j * wgt * coef * table[z1 + 1, du - dv + 1, y2 + du]
    n = (hi - lo) * g.M
    mats = [(u1, v1, op.reshape(n, n)) for (u1, v1), op in ops.items()]

    def current(k1, kp1):
        first, *rest = [np.exp(-1j * (k1 * u1 - kp1 * v1)) * mat for u1, v1, mat in mats]
        return sum(rest, first)

    return slice(lo * g.M, hi * g.M), current


def _current_vertex(basis_k, basis_kp, current):
    """``U_k^+ J(k1, kp1) U_kp`` for ``current = _current_operator(...)``:
    the pair's ``(n, n)`` current vertex, its band states contracted on the
    operator's rows only."""
    rows, op = current
    return (basis_k.states[rows].conj().T @ op(basis_k.k1, basis_kp.k1)) @ basis_kp.states[rows]


def _strip_vertices(basis_k, basis_kp, strip, current):
    """``(Dbar, Jbar)`` of one fiber pair, each ``(n, n)``: the leading
    ``strip`` fiber components of the band states contracted with each
    other, and the pair's vertex of the strip current ``current =
    _current_operator(ham, _J1_TERMS, y2 < n_rows)``.  They are the density
    summed over ``x2 < strip / M`` and the ring current over ``y2 < n_rows``."""
    dbar = basis_k.states[:strip].conj().T @ basis_kp.states[:strip]
    return dbar, _current_vertex(basis_k, basis_kp, current)


def _summand_models(ham, fibers):
    """The models whose bases are the ``parts`` of each fiber: the whole
    model for fibers of one part, else the model's summands; ``ValueError``
    when the fibers hold another number of summands than the model."""
    parts = len(fibers[0].parts)
    subs = [ham] if parts == 1 else [sub for _, sub in ham.summands()]
    if len(subs) != parts:
        raise ValueError(f"the fibers hold {parts} summands, the model {len(subs)}")
    return subs


def _fermi(e, mu, temperature):
    if temperature <= 0.0:
        return (e < mu).astype(float)
    x = np.clip((e - mu) / temperature, -700, 700)
    return 1.0 / (1.0 + np.exp(x))


def _pair_weight(e_a, e_b, mu, temperature, p0):
    """Spectral weight (n_F(e_b) - n_F(e_a)) / (i p0 + e_a - e_b) with the
    zero-frequency limits of pairs closer than 1e-12 in energy resolved.

    A pair of equal occupations has weight exactly 0 at every ``p0``, also
    at a ``p0`` so small that ``0 / (i p0)`` would come out NaN."""
    na = _fermi(e_a, mu, temperature)
    nb = _fermi(e_b, mu, temperature)
    de = e_a[:, None] - e_b[None, :]
    dn = nb[None, :] - na[:, None]
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
    nn = -beta * na * (1.0 - na)
    out[deg] = (nn[:, None] * np.ones_like(de))[deg]
    return out


def _ward_columns(ham, fibers, mu, p0, y2, temperature):
    """``cols[i - 1, x2] = S_{0,i}((p0, 0); x2, y2)``, ``(2, L2)``: the density
    on row ``x2`` against row ``y2`` of current component ``i``.

    Per summand and fiber, with band states ``U`` on the summand's rows and
    weight ``w``, ``Jbar_i`` is the vertex of the unit-weight operator of
    row ``y2`` (:func:`_current_operator`, three rows of the fiber) and
    ``cols[i - 1, x2] = sum_(rho, a) conj(U) * (U @ (conj(Jbar_i) * w).T)`` on
    the components ``(x2, rho)``: no row-resolved density is built, and
    the cost does not depend on ``y2``.
    """
    L2 = ham.geometry.L2
    row = np.arange(L2) == y2
    currents = [
        [_current_operator(sub, terms, row) for terms in (_J1_TERMS, _J2_TERMS)] for sub in _summand_models(ham, fibers)
    ]
    cols = np.zeros((2, L2), dtype=complex)
    for f in fibers:
        for ops, b in zip(currents, f.parts, strict=True):
            u = b.states
            w = _pair_weight(b.energies, b.energies, mu, temperature, p0)
            # the backward leg is the row-y2 current, conjugate-transposed
            legs = np.stack([_current_vertex(b, b, op) for op in ops]).conj() * w
            cols += (u.conj() * (u @ legs.transpose(0, 2, 1))).reshape(2, L2, -1).sum(axis=2)
    return cols / len(fibers)


def ward_sum_rule(ham, mu, p0, y2, n_k, temperature=0.0, fibers=None):
    """Charge-conservation residual: |sum_x2 S_{0,i}((p0, 0); x2, y2)| for
    the two current components, normalized by the largest summand: the
    density on every row contracted with row ``y2`` of each current
    (:func:`_ward_columns`).

    ``y2`` must be an interior row, in ``[1, L2 - 2]``: on a Dirichlet row
    every summand vanishes and the residual would be 0 whatever the model.
    """
    L2 = ham.geometry.L2
    if not 1 <= y2 <= L2 - 2:
        raise ValueError(f"y2 must be an interior row in [1, L2 - 2] = [1, {L2 - 2}], got {y2}")
    cols = _ward_columns(ham, fiber_grid(ham, n_k, fibers), mu, p0, y2, temperature)
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


def _three_point(ham, basis_k, basis_kp, s2_k, s2_kp):
    """``[S2(k) S2(k+p), S2(k) J(k, k') S2(k+p)]`` from the two free
    two-point functions, with the ring current on all rows."""
    _, current = _current_operator(ham, _J1_TERMS, np.ones(ham.geometry.L2))
    return [s2_k @ s2_kp, s2_k @ current(basis_k.k1, basis_kp.k1) @ s2_kp]


def vertex_three_point(ham, basis_k, basis_kp, k0, p0, mu):
    """Row-summed free three-point functions for the density and the ring
    current: matrices over (x2 rho, y2 rho'), ``S2(k) S2(k+p)`` and
    ``S2(k) J(k, k') S2(k+p)`` with :func:`free_two_point` and the ring
    current on all rows (:func:`_current_operator`)."""
    s2_k, s2_kp = free_two_point(basis_k, k0, mu), free_two_point(basis_kp, k0 + p0, mu)
    return _three_point(ham, basis_k, basis_kp, s2_k, s2_kp)


def vertex_ward_residual(ham, mu, k0, k1_index, p0, p1_index, n_k, fibers=None):
    """Residual of the free vertex conservation identity.

    ``p0 * S3_density + (1 - e^{-i p1}) * S3_current = i S2(k) - i S2(k+p)``
    with everything summed over the insertion row; returns the max-norm
    residual divided by the largest participating term.  The two free
    two-point functions are formed once, for both sides.
    """
    if fibers is None:
        f_k = diagonalize_fiber(ham, 2.0 * np.pi * k1_index / n_k)
        f_kp = diagonalize_fiber(ham, 2.0 * np.pi * (k1_index + p1_index) / n_k)
    else:
        fibers = fiber_grid(ham, n_k, fibers)
        f_k = fibers[k1_index % n_k]
        f_kp = fibers[(k1_index + p1_index) % n_k]
    p1 = 2.0 * np.pi * p1_index / n_k
    s2_k = free_two_point(f_k, k0, mu)
    s2_kp = free_two_point(f_kp, k0 + p0, mu)
    s3_n, s3_j = _three_point(ham, f_k, f_kp, s2_k, s2_kp)
    lhs = p0 * s3_n + (1.0 - np.exp(-1j * p1)) * s3_j
    rhs = 1j * (s2_k - s2_kp)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# Edge conductance
# ---------------------------------------------------------------------------


def _strip_response(ham, fibers, p1_index, rows, weight):
    """Density-current response summed over the strips ``x2 < rows[0]``
    (density) and ``y2 < rows[1]`` (ring current) at ring momentum
    ``2 pi p1_index / n_k``, ``n_k = len(fibers)``.

    ``weight(f_k, f_kp)`` is the spectral weight of each fiber pair: an
    ``(n, n)`` array, or a stack ``(s, n, n)`` of them, which gives ``s``
    responses from one loop.  The strip sums are taken on the vertices,
    before the band contraction: the strip current is built once per
    summand as a fiber operator (:func:`_current_operator` with the
    indicator of ``y2 < rows[1]``), and each pair only contracts its band
    states with it (:func:`_strip_vertices`).  With the weight
    :func:`_pair_weight` this is the row-resolved density-current table
    summed over those rows.

    The sum runs over the summands of the model, on each summand's own
    bases (``FiberBasis.parts``) and with its own weight: the bands of two
    summands have disjoint support, so every vertex between them is 0.
    Fibers of one part are contracted on the whole model; fibers of
    several parts that do not match the model's summands raise
    ``ValueError``.
    """
    rows = _check_rows(ham.geometry, rows, 2)
    n_k = len(fibers)
    on_strip = np.arange(ham.geometry.L2) < rows[1]
    strips = [
        (rows[0] * sub.geometry.M, _current_operator(sub, _J1_TERMS, on_strip)) for sub in _summand_models(ham, fibers)
    ]
    total = 0.0 + 0.0j
    for m in range(n_k):
        f_k, f_kp = fibers[m], fibers[(m + p1_index) % n_k]
        for (strip, current), b_k, b_kp in zip(strips, f_k.parts, f_kp.parts, strict=True):
            dbar, jbar = _strip_vertices(b_k, b_kp, strip, current)
            total = total + np.sum(dbar * jbar.conj() * weight(b_k, b_kp), axis=(-2, -1))
    return total / n_k


def _gibbs_weight(mu, temperature, p0):
    """:func:`_pair_weight` at ``(mu, temperature, p0)`` as the ``weight`` of
    :func:`_strip_response`."""
    return lambda f_k, f_kp: _pair_weight(f_k.energies, f_kp.energies, mu, temperature, p0)


@dataclass
class ConductanceEstimate:
    p1_values: np.ndarray
    g_values: np.ndarray
    g: float
    stderr: float


def edge_conductance_free(ham, mu, n_k, a, a_prime, fibers=None):
    """Static edge response summed over strips, extrapolated to zero ring
    momentum.

    For each of the three smallest nonzero grid momenta the frequency is
    set to zero inside the spectral form (the slow-time limit taken
    first); the returned ``g`` is the linear-in-p1 intercept over them.
    The density is summed over rows ``x2 <= a`` and the ring current over
    rows ``y2 <= a_prime``, with ``0 <= a_prime < a <= L2 - 1``.
    """
    L2 = ham.geometry.L2
    if not 0 <= a_prime < a <= L2 - 1:
        raise ValueError(f"need 0 <= a_prime < a <= L2 - 1 = {L2 - 1}, got a = {a}, a_prime = {a_prime}")
    fibers = fiber_grid(ham, n_k, fibers)

    def strip_sum(p1_index):
        return _strip_response(ham, fibers, p1_index, (a + 1, a_prime + 1), _gibbs_weight(mu, 0.0, 0.0))

    # the response at opposite ring momenta are complex conjugates, so the
    # even-in-p1 part (the part that survives p1 -> 0) is the real part.  The
    # check is relative to one conductance quantum 1/(2 pi) at least: a
    # counter-propagating stack cancels G down to rounding.
    g_plus, g_minus = strip_sum(1), strip_sum(n_k - 1)
    sym_err = abs(g_minus - np.conj(g_plus))
    if sym_err > 1e-9 * max(abs(g_plus), 1.0 / (2.0 * np.pi)):
        raise ConjugationSymmetryError(f"conjugation symmetry violated: {sym_err:.2e}")
    p1s = 2.0 * np.pi * np.arange(1, 4) / n_k
    gs = np.array([g_plus, strip_sum(2), strip_sum(3)])
    coef, cov = np.polyfit(p1s, gs.real, 1, cov=True)
    return ConductanceEstimate(
        p1_values=p1s,
        g_values=gs.real,
        g=float(coef[1]),
        stderr=float(np.sqrt(max(cov[1, 1], 0.0))),
    )


def wrong_order_diagnostic(ham, mu, p0, n_k, a_prime, fibers=None):
    """Zero-momentum static response with the limits interchanged.

    The full transverse sum of the density leg at p1 = 0 is the conserved
    charge, so this vanishes for every p0 != 0: taking the momentum limit
    before the frequency limit gives 0 instead of the conductance.  The
    density is summed over all rows and the ring current over rows
    ``y2 <= a_prime``, on the vertices (:func:`_strip_response`).
    """
    fibers = fiber_grid(ham, n_k, fibers)
    return complex(_strip_response(ham, fibers, 0, (ham.geometry.L2, a_prime + 1), _gibbs_weight(mu, 0.0, p0)))


# ---------------------------------------------------------------------------
# Real-time vs imaginary-time comparison
# ---------------------------------------------------------------------------


def periodic_frequency(eta, beta):
    """The frequency ``2 pi n / beta`` nearest to ``eta``, at which
    :func:`wick_rotation_check` evaluates the imaginary-time side."""
    return 2.0 * np.pi / beta * round(eta * beta / (2.0 * np.pi))


def wick_rotation_check(ham, mu, beta, t_horizon, eta, p1_index, n_k, a, a_prime, fibers=None):
    """Compare the damped real-time commutator integral with the
    imaginary-time correlation at the nearest periodic frequency.

    Returns ``(lhs, rhs, residual)``.  Both sides are evaluated in closed
    form per eigenpair, as two weights of one :func:`_strip_response` loop:
    the real-time side integrates ``exp((eta + i(e_a - e_b)) t)`` over
    ``(-T, 0]``, the imaginary-time side is the spectral form at frequency
    ``eta_beta`` (:func:`periodic_frequency`), which must be nonzero.
    """
    eta_beta = periodic_frequency(eta, beta)
    if eta_beta == 0.0:
        raise ValueError("beta too small: nearest periodic frequency to eta is 0")
    fibers = fiber_grid(ham, n_k, fibers)
    temperature = 1.0 / beta
    imaginary_time = _gibbs_weight(mu, temperature, -eta_beta)

    def weights(f_k, f_kp):
        # real time: (n_F(e_a) - n_F(e_b)) int_{-T}^0 e^{(eta + i (e_a - e_b)) t} dt
        dn = _fermi(f_k.energies, mu, temperature)[:, None] - _fermi(f_kp.energies, mu, temperature)[None, :]
        zz = eta + 1j * (f_k.energies[:, None] - f_kp.energies[None, :])
        return np.stack([dn * (1.0 - np.exp(-zz * t_horizon)) / zz, imaginary_time(f_k, f_kp)])

    lhs, rhs = _strip_response(ham, fibers, p1_index, (a + 1, a_prime + 1), weights)
    rhs = 1j * rhs
    return lhs, rhs, abs(lhs - rhs)
