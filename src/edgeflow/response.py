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
    "ResponseResult",
    "ConductanceEstimate",
    "DegenerateCrossingError",
    "ConjugationSymmetryError",
    "diagonalize_fiber",
    "fiber_cache",
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

    k1: float
    p1: float
    density: np.ndarray
    current1: np.ndarray
    current2: np.ndarray


def _band_states(geometry, basis):
    return basis.states.reshape(geometry.L2, geometry.M, basis.dim)


def build_vertices(ham, basis_k, basis_kp, drop_diagonal_bonds=False):
    """Assemble density and bond-current vertices for the pair
    ``(k1, k1 + p1)`` implied by the two bases.

    ``drop_diagonal_bonds`` removes the half-weighted diagonal bond
    currents; it exists purely as a sensitivity control for the
    conservation-identity tests.
    """
    g = ham.geometry
    if basis_k.dim != basis_kp.dim:
        raise ValueError("fiber dimensions differ")
    if ham.hop_range > np.sqrt(2.0) + 1e-12:
        raise ValueError("bond currents are defined for hop range <= sqrt(2)")
    k1, kp1 = basis_k.k1, basis_kp.k1
    a = _band_states(g, basis_k)
    b = _band_states(g, basis_kp)
    density = np.einsum("xra,xrb->xab", a.conj(), b)

    currents = []
    for terms in (_J1_TERMS, _J2_TERMS):
        out = np.zeros((g.L2, basis_k.dim, basis_k.dim), dtype=complex)
        for (u1, u2, v1, v2, z1, du, dv, wgt) in terms:
            if drop_diagonal_bonds and (u2 != 0 or v2 != 0) and terms is _J1_TERMS:
                continue
            phase = 1j * wgt * np.exp(-1j * (k1 * u1 - kp1 * v1))
            for x2 in range(g.L2):
                xu, xv = x2 + du, x2 + dv
                if not (0 <= xu < g.L2 and 0 <= xv < g.L2):
                    continue
                blk = ham.block(z1, xu, xv)
                if not np.any(blk):
                    continue
                out[x2] += phase * (a[xu].conj().T @ blk @ b[xv])
        currents.append(out)
    return VertexSet(k1=k1, p1=kp1 - k1, density=density, current1=currents[0], current2=currents[1])


def _fermi(e, mu, temperature):
    if temperature <= 0.0:
        return (e < mu).astype(float)
    x = np.clip((e - mu) / temperature, -700, 700)
    return 1.0 / (1.0 + np.exp(x))


def _pair_weight(e_a, e_b, mu, temperature, p0, degeneracy_tol=1e-12):
    """Spectral weight (n_F(e_b) - n_F(e_a)) / (i p0 + e_a - e_b) with the
    zero-frequency degenerate limits resolved."""
    na = _fermi(e_a, mu, temperature)
    nb = _fermi(e_b, mu, temperature)
    de = e_a[:, None] - e_b[None, :]
    dn = nb[None, :] - na[:, None]
    if p0 != 0.0:
        return dn / (1j * p0 + de)
    deg = np.abs(de) < degeneracy_tol
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


@dataclass
class ResponseResult:
    p0: float
    p1: float
    strip_a: int
    strip_b: int
    tables: dict  # (mu_index, nu_index) -> (strip_a+1, strip_b+1) array


def _vertex_component(vs, index):
    return (vs.density, vs.current1, vs.current2)[index]


def current_current(ham, mu, p0, p1_index, n_k, temperature=0.0, strips=None, components=((0, 0), (0, 1)), fibers=None):
    """Connected current-current correlation on strips near the lower edge.

    ``p1_index`` selects the ring momentum 2 pi p1_index / n_k.  The
    result tables are indexed by rows x2 <= strip_a and y2 <= strip_b.
    """
    g = ham.geometry
    if strips is None:
        strips = (g.L2 // 2 - 2, g.L2 // 4)
    sa, sb = strips
    if fibers is None:
        fibers = fiber_cache(ham, n_k)
    tables = {c: np.zeros((sa + 1, sb + 1), dtype=complex) for c in components}
    for m in range(n_k):
        f_k = fibers[m]
        f_kp = fibers[(m + p1_index) % n_k]
        vs_fwd = build_vertices(ham, f_k, f_kp)
        vs_bwd = build_vertices(ham, f_kp, f_k)
        w = _pair_weight(f_k.energies, f_kp.energies, mu, temperature, p0)
        for (mu_i, nu_i) in components:
            va = _vertex_component(vs_fwd, mu_i)[: sa + 1]
            vb = _vertex_component(vs_bwd, nu_i)[: sb + 1]
            tables[(mu_i, nu_i)] += np.einsum("xab,yba,ab->xy", va, vb, w)
    for c in components:
        tables[c] /= n_k
    return ResponseResult(p0=p0, p1=2.0 * np.pi * p1_index / n_k, strip_a=sa, strip_b=sb, tables=tables)


def ward_sum_rule(ham, mu, p0, y2, n_k, temperature=0.0, fibers=None):
    """Charge-conservation residual: |sum_x2 S_{0,i}((p0, 0); x2, y2)| for
    the two current components, normalized by the largest summand."""
    g = ham.geometry
    res = current_current(
        ham,
        mu,
        p0,
        0,
        n_k,
        temperature=temperature,
        strips=(g.L2 - 1, g.L2 - 1),
        components=((0, 1), (0, 2)),
        fibers=fibers,
    )
    out = {}
    for i, comp in ((1, (0, 1)), (2, (0, 2))):
        col = res.tables[comp][:, y2]
        scale = max(np.max(np.abs(col)), 1e-300)
        out[i] = float(np.abs(np.sum(col)) / scale)
    return out


# ---------------------------------------------------------------------------
# Vertex (three-point) conservation identity
# ---------------------------------------------------------------------------


def free_two_point(basis, k0, mu):
    """Free fiber-resolved two-point function (-i k0 + H(k1) - mu)^-1."""
    gvals = 1.0 / (-1j * k0 + basis.energies - mu)
    return (basis.states * gvals[None, :]) @ basis.states.conj().T


def vertex_three_point(ham, basis_k, basis_kp, k0, p0, mu, summed=True, drop_diagonal_bonds=False):
    """Row-summed free three-point functions for the density and the ring
    current: matrices over (x2 rho, y2 rho')."""
    vs = build_vertices(ham, basis_k, basis_kp, drop_diagonal_bonds=drop_diagonal_bonds)
    g_k = 1.0 / (-1j * k0 + basis_k.energies - mu)
    g_kp = 1.0 / (-1j * (k0 + p0) + basis_kp.energies - mu)
    out = []
    for comp in (vs.density, vs.current1):
        vbar = comp.sum(axis=0) if summed else comp
        mid = (g_k[:, None] * vbar) * g_kp[None, :]
        out.append(basis_k.states @ mid @ basis_kp.states.conj().T)
    return out


def vertex_ward_residual(ham, mu, k0, k1_index, p0, p1_index, n_k, fibers=None, drop_diagonal_bonds=False):
    """Residual of the free vertex conservation identity.

    ``p0 * S3_density + (1 - e^{-i p1}) * S3_current = i S2(k) - i S2(k+p)``
    with everything summed over the insertion row; returns the max-norm
    residual divided by the largest participating term.
    """
    if fibers is None:
        f_k = diagonalize_fiber(ham, 2.0 * np.pi * k1_index / n_k)
        f_kp = diagonalize_fiber(ham, 2.0 * np.pi * (k1_index + p1_index) / n_k)
    else:
        f_k = fibers[k1_index % n_k]
        f_kp = fibers[(k1_index + p1_index) % n_k]
    p1 = 2.0 * np.pi * p1_index / n_k
    s3_n, s3_j = vertex_three_point(
        ham, f_k, f_kp, k0, p0, mu, drop_diagonal_bonds=drop_diagonal_bonds
    )
    s2_k = free_two_point(f_k, k0, mu)
    s2_kp = free_two_point(f_kp, k0 + p0, mu)
    lhs = p0 * s3_n + (1.0 - np.exp(-1j * p1)) * s3_j
    rhs = 1j * (s2_k - s2_kp)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# Edge conductance
# ---------------------------------------------------------------------------


@dataclass
class ConductanceEstimate:
    p1_values: np.ndarray
    g_values: np.ndarray
    g: float
    stderr: float
    chirality_sum: float = np.nan

    @property
    def target(self):
        return self.chirality_sum / (2.0 * np.pi)


def edge_conductance_free(ham, mu, n_k, a, a_prime, p1_count=3, temperature=0.0, chirality_sum=np.nan, fibers=None):
    """Static edge response summed over strips, extrapolated to zero ring
    momentum.

    For each of the ``p1_count`` smallest nonzero grid momenta the
    frequency is set to zero inside the spectral form (the slow-time limit
    taken first); the returned ``g`` is the linear-in-p1 intercept over the
    three smallest momenta.
    """
    if a_prime >= a:
        raise ValueError("need a_prime < a")
    if p1_count < 3:
        raise ValueError("need at least 3 ring momenta for the extrapolation")
    if fibers is None:
        fibers = fiber_cache(ham, n_k)

    def strip_sum(p1_index):
        res = current_current(
            ham, mu, 0.0, p1_index, n_k, temperature=temperature,
            strips=(a, a_prime), components=((0, 1),), fibers=fibers,
        )
        return res.tables[(0, 1)].sum()

    # the response at opposite ring momenta are complex conjugates, so the
    # even-in-p1 part (the part that survives p1 -> 0) is the real part.  The
    # check is relative to one conductance quantum 1/(2 pi) at least: a
    # counter-propagating stack cancels G down to rounding.
    g_plus, g_minus = strip_sum(1), strip_sum(n_k - 1)
    sym_err = abs(g_minus - np.conj(g_plus))
    if sym_err > 1e-9 * max(abs(g_plus), 1.0 / (2.0 * np.pi)):
        raise ConjugationSymmetryError(f"conjugation symmetry violated: {sym_err:.2e}")
    p1s, gs = [], []
    for m in range(1, p1_count + 1):
        p1s.append(2.0 * np.pi * m / n_k)
        gs.append(strip_sum(m) if m > 1 else g_plus)
    p1s = np.array(p1s)
    gs = np.array(gs)
    fit_n = min(3, len(p1s))
    coef, cov = np.polyfit(p1s[:fit_n], gs[:fit_n].real, 1, cov=True)
    return ConductanceEstimate(
        p1_values=p1s,
        g_values=gs.real,
        g=float(coef[1]),
        stderr=float(np.sqrt(max(cov[1, 1], 0.0))),
        chirality_sum=chirality_sum,
    )


def wrong_order_diagnostic(ham, mu, p0, n_k, a_prime, fibers=None):
    """Zero-momentum static response with the limits interchanged.

    The full transverse sum of the density leg at p1 = 0 is the conserved
    charge, so this vanishes for every p0 != 0: taking the momentum limit
    before the frequency limit gives 0 instead of the conductance.
    """
    g = ham.geometry
    res = current_current(
        ham, mu, p0, 0, n_k, strips=(g.L2 - 1, a_prime), components=((0, 1),),
        fibers=fibers,
    )
    return complex(res.tables[(0, 1)].sum())


# ---------------------------------------------------------------------------
# Real-time vs imaginary-time comparison
# ---------------------------------------------------------------------------


def _strip_vertices(ham, f_k, f_kp, a, a_prime):
    vs_fwd = build_vertices(ham, f_k, f_kp)
    vs_bwd = build_vertices(ham, f_kp, f_k)
    n_strip = vs_fwd.density[: a + 1].sum(axis=0)
    j_strip = vs_bwd.current1[: a_prime + 1].sum(axis=0)
    return n_strip, j_strip


def wick_rotation_check(ham, mu, beta, t_horizon, eta, p1_index, n_k, a, a_prime, fibers=None):
    """Compare the damped real-time commutator integral with the
    imaginary-time correlation at the nearest periodic frequency.

    Returns ``(lhs, rhs, residual)``.  Both sides are evaluated in closed
    form per eigenpair: the real-time side integrates
    ``exp((eta + i(e_a - e_b)) t)`` over ``(-T, 0]``, the imaginary-time
    side is the spectral form at frequency ``eta_beta``.
    """
    eta_beta = 2.0 * np.pi / beta * round(eta * beta / (2.0 * np.pi))
    if eta_beta == 0.0:
        raise ValueError("beta too small: nearest periodic frequency to eta is 0")
    if fibers is None:
        fibers = fiber_cache(ham, n_k)
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    for m in range(n_k):
        f_k = fibers[m]
        f_kp = fibers[(m + p1_index) % n_k]
        n_strip, j_strip = _strip_vertices(ham, f_k, f_kp, a, a_prime)
        na = _fermi(f_k.energies, mu, 1.0 / beta)
        nb = _fermi(f_kp.energies, mu, 1.0 / beta)
        de = f_k.energies[:, None] - f_kp.energies[None, :]
        dn = na[:, None] - nb[None, :]
        weight_nj = n_strip * j_strip.T  # A_ab B_ba
        # real time: int_{-T}^0 e^{(eta + i de) t} dt
        zz = eta + 1j * de
        time_int = (1.0 - np.exp(-zz * t_horizon)) / zz
        lhs += np.sum(weight_nj * dn * time_int)
        # imaginary time at the nearest periodic frequency
        rhs += 1j * np.sum(weight_nj * (nb[None, :] - na[:, None]) / (-1j * eta_beta + de))
    lhs /= n_k
    rhs /= n_k
    return lhs, rhs, abs(lhs - rhs)
