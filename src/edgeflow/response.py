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

Each fiber pair's vertices are built once.  The backward leg of a loop,
from ``k1 + p1`` back to ``k1``, is the conjugate transpose of the forward
one, ``bwd[y2, b, a] = conj(fwd[y2, a, b])``: the density and the bond
currents are Hermitian operators.

The vertex build is batched over rows.  The bond terms of a current
component are grouped by their row offsets ``(du, dv)`` (five groups for
the ring current, two for the transverse one).  Per fiber pair, each
group's terms are summed into one effective block per row, read from the
model's cached row table ``H(z1; x2, y2)``, and the group adds
``a[x2 + du]^+ Heff[x2] b[x2 + dv]`` for all its rows in one batched
matmul.  Only the leading rows a caller reads are built.

Callers that read only sums over a strip of rows (the edge conductance,
the real-time check, the row-summed three-point function) take the sums
before the band contraction, since ``sum_xy sum_ab D[x,a,b] conj(J[y,a,b])
w[a,b] = sum_ab Dbar[a,b] conj(Jbar[a,b]) w[a,b]``: the strip density
``Dbar`` is one product of the strip's band states, and the strip current
``Jbar`` is one ``(n, K) @ (K, n)`` product of the same group terms laid
side by side.

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
    "VertexSet",
    "ConductanceEstimate",
    "DegenerateCrossingError",
    "ConjugationSymmetryError",
    "SingularPropagatorError",
    "diagonalize_fiber",
    "fiber_cache",
    "fiber_grid",
    "build_vertices",
    "current_current",
    "ward_sum_rule",
    "free_two_point",
    "vertex_three_point",
    "vertex_ward_residual",
    "edge_conductance_free",
    "wrong_order_diagnostic",
    "wick_rotation_check",
]


class DegenerateCrossingError(RuntimeError):
    """A zero-frequency spectral weight hit an exact degeneracy across mu."""


class ConjugationSymmetryError(RuntimeError):
    """The strip response at -p1 is not the complex conjugate of that at p1."""


class SingularPropagatorError(RuntimeError):
    """A free propagator was asked for at its pole, -i k0 + e - mu = 0."""


@dataclass
class FiberBasis:
    k1: float
    energies: np.ndarray  # (n,)
    states: np.ndarray  # (n, n) columns are eigenvectors

    @property
    def dim(self):
        return len(self.energies)


def diagonalize_fiber(ham, k1):
    e, v = np.linalg.eigh(assemble_fiber(ham, k1))
    return FiberBasis(k1=float(k1), energies=e, states=v)


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


@dataclass
class VertexSet:
    """Row-resolved density and current vertices between two fiber bases.

    Arrays have shape (L2, n, n): entry [x2, a, b] couples band a of the
    basis at k1 to band b of the basis at k1 + p1.
    """

    density: np.ndarray
    current1: np.ndarray
    current2: np.ndarray


def _band_states(geometry, basis):
    return basis.states.reshape(geometry.L2, geometry.M, basis.dim)


def _row_groups(terms):
    """Bond terms keyed by their row offsets ``(du, dv)``."""
    groups = {}
    for (u1, _, v1, _, z1, du, dv, wgt) in terms:
        groups.setdefault((du, dv), []).append((u1, v1, z1, wgt))
    return groups


def _band_legs(ham, basis_k, basis_kp):
    """Row-resolved band states: ``ah[x2] = a[x2]^+`` of shape ``(L2, n, M)``
    at ``k1`` and ``b[x2]`` of shape ``(L2, M, n)`` at ``k1 + p1``."""
    g = ham.geometry
    if basis_k.dim != basis_kp.dim:
        raise ValueError("fiber dimensions differ")
    ah = _band_states(g, basis_k).conj().transpose(0, 2, 1)
    return ah, _band_states(g, basis_kp)


def _check_rows(geometry, rows, count):
    rows = tuple(int(r) for r in rows)
    if len(rows) != count or not all(0 <= r <= geometry.L2 for r in rows):
        raise ValueError(f"rows must be {count} counts in [0, {geometry.L2}], got {rows}")
    return rows


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
    table = ham._row_table()  # ValueError beyond hop range sqrt(2), where bond currents are undefined
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
    """Assemble density and bond-current vertices for the pair
    ``(k1, k1 + p1)`` implied by the two bases.

    ``rows`` gives how many leading rows ``x2 = 0, 1, ...`` to build of
    the density, ``current1`` and ``current2`` (all ``L2`` rows each by
    default); a component given 0 rows is an empty array.  The bond terms
    of each current come from :func:`_current_groups`, one item per row
    offset ``(du, dv)``, and each item adds ``a[x2 + du]^+ Heff b[x2 + dv]``
    to its rows in one batched matmul.  Callers that only read row sums
    use :func:`_strip_vertices`, which takes the same items.

    The vertices of the reversed pair need no build of their own:
    ``build_vertices(ham, basis_kp, basis_k)`` is the per-row conjugate
    transpose of this one.

    Raises :class:`~edgeflow.lattice.HermiticityError` for a model whose
    blocks are not Hermitian partners, also when the bases were computed
    elsewhere (``fibers=``); the check is the model's cached one.
    """
    g = ham.geometry
    rows = (g.L2,) * 3 if rows is None else _check_rows(g, rows, 3)
    ah, b = _band_legs(ham, basis_k, basis_kp)
    density = ah[: rows[0]] @ b[: rows[0]]

    currents = []
    for terms, n_rows in zip((_J1_TERMS, _J2_TERMS), rows[1:]):
        out = np.zeros((n_rows, basis_k.dim, basis_k.dim), dtype=complex)
        for lo, hi, left, right in _current_groups(ham, terms, n_rows, ah, b, basis_k.k1, basis_kp.k1):
            out[lo:hi] += left @ right
        currents.append(out)
    return VertexSet(density=density, current1=currents[0], current2=currents[1])


def _strip_vertices(ham, basis_k, basis_kp, rows):
    """Density and ring-current vertices summed over strips at the lower
    edge: ``(Dbar, Jbar)``, each ``(n, n)``, with ``Dbar`` summed over rows
    ``x2 < rows[0]`` and ``Jbar`` over rows ``x2 < rows[1]``.

    Equal to the row sums of :func:`build_vertices` to rounding, but each
    is one GEMM: ``Dbar`` contracts the strip's band states, and ``Jbar``
    lays the ``left`` blocks of every :func:`_current_groups` item side by
    side into an ``(n, K)`` matrix and stacks the ``right`` blocks into a
    ``(K, n)`` one.
    """
    g = ham.geometry
    rows = _check_rows(g, rows, 2)
    ah, b = _band_legs(ham, basis_k, basis_kp)
    n, strip = basis_k.dim, rows[0] * g.M
    dbar = basis_k.states[:strip].conj().T @ basis_kp.states[:strip]
    lefts, rights = [np.empty((n, 0))], [np.empty((0, n))]
    for _, _, left, right in _current_groups(ham, _J1_TERMS, rows[1], ah, b, basis_k.k1, basis_kp.k1):
        lefts.append(left.transpose(1, 0, 2).reshape(n, -1))
        rights.append(right.reshape(-1, n))
    return dbar, np.concatenate(lefts, axis=1) @ np.concatenate(rights)


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


def _vertex_component(vs, index):
    return (vs.density, vs.current1, vs.current2)[index]


def current_current(ham, mu, p0, p1_index, n_k, temperature=0.0, strips=None, components=((0, 0), (0, 1)), fibers=None):
    """Connected current-current correlation on strips near the lower edge.

    ``p1_index`` selects the ring momentum 2 pi p1_index / n_k.  Returns
    a dict from each component pair (mu, nu) to its table, indexed by rows
    x2 <= strips[0] and y2 <= strips[1].
    """
    g = ham.geometry
    if strips is None:
        strips = (g.L2 // 2 - 2, g.L2 // 4)
    sa, sb = strips
    fibers = fiber_grid(ham, n_k, fibers)
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


def ward_sum_rule(ham, mu, p0, y2, n_k, temperature=0.0, fibers=None):
    """Charge-conservation residual: |sum_x2 S_{0,i}((p0, 0); x2, y2)| for
    the two current components, normalized by the largest summand: the
    density on every row contracted with row ``y2`` of each current.

    ``y2`` must be an interior row, in ``[1, L2 - 2]``: on a Dirichlet row
    every summand vanishes and the residual would be 0 whatever the model.
    """
    L2 = ham.geometry.L2
    if not 1 <= y2 <= L2 - 2:
        raise ValueError(f"y2 must be an interior row in [1, L2 - 2] = [1, {L2 - 2}], got {y2}")
    cols = np.zeros((2, L2), dtype=complex)
    for f in fiber_grid(ham, n_k, fibers):
        vs = build_vertices(ham, f, f, rows=(L2, y2 + 1, y2 + 1))
        w = _pair_weight(f.energies, f.energies, mu, temperature, p0)
        # the backward leg is row y2 of each current, conjugate-transposed
        legs = np.stack([vs.current1[y2], vs.current2[y2]]).conj() * w
        cols += legs.reshape(2, -1) @ vs.density.reshape(L2, -1).T
    cols /= n_k
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
    gvals = _propagator(basis.energies, k0, mu)
    return (basis.states * gvals[None, :]) @ basis.states.conj().T


def vertex_three_point(ham, basis_k, basis_kp, k0, p0, mu):
    """Row-summed free three-point functions for the density and the ring
    current: matrices over (x2 rho, y2 rho')."""
    L2 = ham.geometry.L2
    g_k = _propagator(basis_k.energies, k0, mu)
    g_kp = _propagator(basis_kp.energies, k0 + p0, mu)
    out = []
    for vbar in _strip_vertices(ham, basis_k, basis_kp, (L2, L2)):
        mid = (g_k[:, None] * vbar) * g_kp[None, :]
        out.append(basis_k.states @ mid @ basis_kp.states.conj().T)
    return out


def vertex_ward_residual(ham, mu, k0, k1_index, p0, p1_index, n_k, fibers=None):
    """Residual of the free vertex conservation identity.

    ``p0 * S3_density + (1 - e^{-i p1}) * S3_current = i S2(k) - i S2(k+p)``
    with everything summed over the insertion row; returns the max-norm
    residual divided by the largest participating term.
    """
    if fibers is None:
        f_k = diagonalize_fiber(ham, 2.0 * np.pi * k1_index / n_k)
        f_kp = diagonalize_fiber(ham, 2.0 * np.pi * (k1_index + p1_index) / n_k)
    else:
        fibers = fiber_grid(ham, n_k, fibers)
        f_k = fibers[k1_index % n_k]
        f_kp = fibers[(k1_index + p1_index) % n_k]
    p1 = 2.0 * np.pi * p1_index / n_k
    s3_n, s3_j = vertex_three_point(ham, f_k, f_kp, k0, p0, mu)
    s2_k = free_two_point(f_k, k0, mu)
    s2_kp = free_two_point(f_kp, k0 + p0, mu)
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
    before the band contraction (:func:`_strip_vertices`); with the weight
    :func:`_pair_weight` this is the sum of the :func:`current_current`
    table ``(0, 1)`` over those rows.
    """
    n_k = len(fibers)
    total = 0.0 + 0.0j
    for m in range(n_k):
        f_k, f_kp = fibers[m], fibers[(m + p1_index) % n_k]
        dbar, jbar = _strip_vertices(ham, f_k, f_kp, rows)
        total = total + np.sum(dbar * jbar.conj() * weight(f_k, f_kp), axis=(-2, -1))
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


def wick_rotation_check(ham, mu, beta, t_horizon, eta, p1_index, n_k, a, a_prime, fibers=None):
    """Compare the damped real-time commutator integral with the
    imaginary-time correlation at the nearest periodic frequency.

    Returns ``(lhs, rhs, residual)``.  Both sides are evaluated in closed
    form per eigenpair, as two weights of one :func:`_strip_response` loop:
    the real-time side integrates ``exp((eta + i(e_a - e_b)) t)`` over
    ``(-T, 0]``, the imaginary-time side is the spectral form at frequency
    ``eta_beta``.
    """
    eta_beta = 2.0 * np.pi / beta * round(eta * beta / (2.0 * np.pi))
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
