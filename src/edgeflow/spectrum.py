"""Edge-mode spectroscopy: band scans, branch continuation, Fermi data.

A scan diagonalizes the Bloch fiber on a uniform ring-momentum grid and
keeps the eigenpairs inside an energy window (excluding the decoupled
Dirichlet-row modes).  Branches are formed by eigenvector-overlap
continuation, assigned to an edge by their half-cylinder weight, and
carry one Fermi point with velocity and localization-rate fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import response
from .lattice import assemble_fiber, row_weights

__all__ = [
    "BandScan",
    "EdgeBranch",
    "AssumptionReport",
    "BulkStateError",
    "FermiPointError",
    "NoEdgeBranchError",
    "scan_spectrum",
    "extract_edge_branches",
    "fermi_point",
    "check_assumptions",
]

OVERLAP_THRESHOLD = 0.7  # least |<v(k), v(k+dk)>| that continues a branch
SIDE_THRESHOLD = 0.9  # least half-cylinder weight of an edge state
V_MIN = 1e-3  # least |velocity| of a Fermi point
DEGENERACY_TOL = 1e-5  # energy gap below which scan states are side-purified
FERMI_TOL = 1e-10  # |E(k_F) - mu| at which the bisection stops
MAX_BISECTIONS = 200
GAMMA_MIN = 0.05  # least Fermi-momentum separation, pairwise and in differences


class BulkStateError(RuntimeError):
    """An in-window state is localized at neither edge."""


class FermiPointError(RuntimeError):
    """The Fermi-point bisection did not converge, or the branch is tangent
    to the chemical potential."""


class NoEdgeBranchError(RuntimeError):
    """The energy window holds no edge branch to check."""


@dataclass
class BandScan:
    ham: object
    k_grid: np.ndarray
    window: tuple
    energies: list  # per k: sorted array of in-window energies
    vectors: list  # per k: matching eigenvector columns

    @property
    def geometry(self):
        return self.ham.geometry

    def state_count(self):
        return int(sum(len(e) for e in self.energies))


@dataclass
class EdgeBranch:
    label: int
    k_samples: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray  # (n_samples, fiber_dim)
    side: str = "unassigned"
    k_fermi: float = np.nan
    velocity: float = np.nan
    loc_rate: float = np.nan
    loc_r2: float = np.nan


@dataclass
class AssumptionReport:
    gamma: float
    flags: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(self.flags.values())


def _diag(ham, k1):
    fiber = assemble_fiber(ham, k1)
    try:
        e, v = np.linalg.eigh(fiber)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"eigensolver failed at k1 = {k1}") from exc
    return e, v


def _side_projector_weights(geometry):
    m, l2 = geometry.M, geometry.L2
    w = np.zeros(l2 * m)
    w[: (l2 // 2) * m] = 1.0
    return w


def _purify_degenerate(geometry, e, vecs):
    """Rotate quasi-degenerate clusters into side-pure combinations.

    Edge states on opposite edges split only by exponentially small
    tunneling; the eigensolver returns arbitrary mixtures inside such a
    cluster.  Diagonalizing the lower-half projector within the cluster
    restores one-sided states without changing energies beyond
    :data:`DEGENERACY_TOL`.
    """
    if len(e) < 2:
        return vecs
    proj = _side_projector_weights(geometry)
    i = 0
    out = vecs.copy()
    while i < len(e):
        j = i + 1
        while j < len(e) and e[j] - e[j - 1] < DEGENERACY_TOL:
            j += 1
        if j - i > 1:
            block = out[i:j]
            w = (block.conj() * proj[None, :]) @ block.T
            _, rot = np.linalg.eigh(0.5 * (w + w.conj().T))
            out[i:j] = rot.T @ block
        i = j
    return out


def scan_spectrum(ham, n_k=64, window=(-0.5, 0.5), threads=1, fibers=None):
    """Keep the in-window eigenpairs of the fibers on the ``n_k`` grid
    momenta ``k1 = 2 pi m / n_k`` (Dirichlet-row modes dropped, degenerate
    clusters side-purified).

    The fibers come from :func:`~edgeflow.response.fiber_grid`: the
    caller's ``fibers`` of that grid, or a new grid diagonalized on
    ``threads`` threads.
    """
    if n_k < 64:
        raise ValueError("need at least 64 grid momenta")
    fibers = response.fiber_grid(ham, n_k, fibers, threads)
    g = ham.geometry
    ks = 2.0 * np.pi * np.arange(n_k) / n_k
    energies, vectors = [], []
    lo, hi = window
    for f in fibers:
        e, v = f.energies, f.states
        w = row_weights(g, v)
        idx = np.flatnonzero((e > lo) & (e < hi) & (w[0] + w[-1] < 0.5))
        vecs = _purify_degenerate(g, e[idx], v[:, idx].T.copy())
        energies.append(e[idx])
        vectors.append(vecs)
    return BandScan(ham=ham, k_grid=ks, window=window, energies=energies, vectors=vectors)


def _fit_loc_rate(geometry, vec, side):
    """Log-linear fit of the transverse weight envelope; returns (rate, r2).

    Rows are coarse-grained in pairs before fitting: honeycomb embeddings
    oscillate between sublattice-dominated rows, while the pair envelope
    decays cleanly with the same exponential rate.
    """
    l2 = geometry.L2
    w = row_weights(geometry, vec)
    if side == "upper":
        w = w[::-1]
    half = w[1 : l2 // 2]  # skip the Dirichlet row, stay on one half
    n_pairs = len(half) // 2
    y = half[: 2 * n_pairs].reshape(n_pairs, 2).sum(axis=1)
    x = 1.5 + 2.0 * np.arange(n_pairs)
    good = y > 1e-24
    x, y = x[good], np.log(y[good])
    if x.size < 3:
        return np.nan, 0.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    # weight ~ exp(-2 rate x2) for amplitude decay rate
    return float(-slope / 2.0), float(r2)


def extract_edge_branches(scan, mu):
    """Continue in-window states across the k grid and classify by edge.

    Continuation accepts the best |<v(k), v(k+dk)>| >= :data:`OVERLAP_THRESHOLD` match;
    the grid wraps at 2 pi.  Each maximal chain becomes one branch per
    Fermi crossing (chains crossing ``mu`` several times are split so a
    branch carries a single Fermi point).  States with less than
    :data:`SIDE_THRESHOLD` weight on either half of the cylinder raise
    :class:`BulkStateError`.
    """
    g = scan.geometry
    n_k = len(scan.k_grid)
    used = [np.zeros(len(e), dtype=bool) for e in scan.energies]
    chains = []
    for i0 in range(n_k):
        for j0 in range(len(scan.energies[i0])):
            if used[i0][j0]:
                continue
            chain = [(i0, j0)]
            used[i0][j0] = True
            # extend forward around the ring
            i, j = i0, j0
            for step in range(1, n_k):
                i_next = (i0 + step) % n_k
                cand = [
                    (abs(np.vdot(scan.vectors[i][j], vn)), jn)
                    for jn, vn in enumerate(scan.vectors[i_next])
                    if not used[i_next][jn]
                ]
                cand = [c for c in cand if c[0] >= OVERLAP_THRESHOLD]
                if not cand:
                    break
                _, j_next = max(cand)
                used[i_next][j_next] = True
                chain.append((i_next, j_next))
                i, j = i_next, j_next
            chains.append(chain)

    branches = []
    for chain in chains:
        ks = np.array([scan.k_grid[i] for i, _ in chain])
        es = np.array([scan.energies[i][j] for i, j in chain])
        vs = np.array([scan.vectors[i][j] for i, j in chain])
        sides = []
        for v in vs:
            lw = float(np.sum(row_weights(g, v)[: g.L2 // 2]))
            if lw >= SIDE_THRESHOLD:
                sides.append("lower")
            elif 1.0 - lw >= SIDE_THRESHOLD:
                sides.append("upper")
            else:
                raise BulkStateError(
                    f"state at k1 = {ks[len(sides)]:.4f} has half-cylinder weight "
                    f"{lw:.3f}; neither edge test passed (window bulk state)"
                )
        side = sides[0] if len(set(sides)) == 1 else "mixed"
        # split the chain at Fermi crossings so each branch holds one
        cross_at = _crossings(es, mu)
        segments = [slice(None)]
        if len(cross_at) > 1:
            cuts = [(cross_at[t] + 1 + cross_at[t + 1]) // 2 + 1 for t in range(len(cross_at) - 1)]
            segments = [slice(a, b) for a, b in zip([0] + cuts, cuts + [len(es)])]
        for seg in segments:
            branches.append(
                EdgeBranch(
                    label=len(branches),
                    k_samples=ks[seg],
                    energies=es[seg],
                    vectors=vs[seg],
                    side=side,
                )
            )

    branches = [b for b in branches if len(b.k_samples) >= 3]
    for b in branches:
        if _crossings(b.energies, mu):
            kf, vel, vec = fermi_point(b, scan.ham, mu)
            b.k_fermi, b.velocity = kf, vel
            b.loc_rate, b.loc_r2 = _fit_loc_rate(g, vec, b.side)
    return branches


def _crossings(energies, mu):
    """Indices i at which the sampled energies cross mu between i and i + 1."""
    sign = np.sign(energies - mu)
    return [i for i in range(len(sign) - 1) if sign[i] * sign[i + 1] < 0]


def _track_eig(ham, k1, ref_vec):
    e, v = _diag(ham, k1)
    ov = np.abs(ref_vec.conj() @ v)
    j = int(np.argmax(ov))
    return e[j], v[:, j]


def fermi_point(branch, ham, mu):
    """Locate the branch's Fermi momentum by bisection with
    re-diagonalization, and the velocity by Richardson-extrapolated
    central differences.

    Returns ``(k_fermi, velocity, eigenvector_at_k_fermi)`` for the first
    crossing.  Raises ``ValueError`` when the branch does not cross ``mu``,
    and :class:`FermiPointError` when the bisection does not converge or the
    branch is tangent (|velocity| < :data:`V_MIN`).
    """
    crossings = _crossings(branch.energies, mu)
    if not crossings:
        raise ValueError("branch does not cross the chemical potential")
    i = crossings[0]
    es = branch.energies - mu
    ka, kb = branch.k_samples[i], branch.k_samples[i + 1]
    if kb < ka:
        kb += 2.0 * np.pi
    ea, eb = es[i], es[i + 1]
    vec = branch.vectors[i]
    for _ in range(MAX_BISECTIONS):
        km = 0.5 * (ka + kb)
        em, vm = _track_eig(ham, km, vec)
        em -= mu
        vec = vm
        if abs(em) <= FERMI_TOL:
            break
        if em * ea > 0:
            ka, ea = km, em
        else:
            kb, eb = km, em
    else:
        raise FermiPointError(f"Fermi-point bisection did not converge near k1 = {km:.5f}")

    step = 1e-4

    def deriv(hh):
        ep, _ = _track_eig(ham, km + hh, vec)
        em_, _ = _track_eig(ham, km - hh, vec)
        return (ep - em_) / (2.0 * hh)

    d1, d2 = deriv(step), deriv(step / 2.0)
    velocity = (4.0 * d2 - d1) / 3.0
    if abs(velocity) < V_MIN:
        raise FermiPointError(
            f"branch tangent to mu at k1 = {km:.5f}: |velocity| = "
            f"{abs(velocity):.2e} < {V_MIN}"
        )
    return km % (2.0 * np.pi), float(velocity), vec


def _circle_dist(a, b):
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def check_assumptions(branches):
    """Separation and regularity checks on the extracted edge modes.

    Flags: ``a`` in-window spectrum is all edge branches (extraction did
    not abort); ``b`` exponential
    localization fits; ``c`` nonzero velocities; ``d`` Fermi-momentum
    separations per edge, pairwise and in differences, modulo 2 pi, of at
    least ``GAMMA_MIN``.  An empty branch list raises
    :class:`NoEdgeBranchError`.
    """
    if not branches:
        raise NoEdgeBranchError("need at least one branch in the energy window")
    flags = {"a": True, "b": True, "c": True, "d": True}
    diag = {}

    curv = []
    for b in branches:
        if len(b.k_samples) >= 5:
            dk = np.diff(b.k_samples)
            if np.allclose(dk, dk[0]):
                curv.append(np.max(np.abs(np.diff(b.energies, 2))) / dk[0] ** 2)
    diag["max_curvature"] = max(curv) if curv else 0.0

    with_kf = [b for b in branches if np.isfinite(b.k_fermi)]
    bad_loc = [b.label for b in with_kf if not (b.loc_r2 >= 0.95 and b.loc_rate > 0)]
    if bad_loc:
        flags["b"] = False
        diag["localization_failures"] = bad_loc
    bad_v = [b.label for b in with_kf if not abs(b.velocity) > V_MIN]
    if bad_v:
        flags["c"] = False
        diag["velocity_failures"] = bad_v

    gamma = np.inf
    for side in ("lower", "upper"):
        mods = [b for b in with_kf if b.side == side]
        kfs = [b.k_fermi for b in mods]
        n = len(kfs)
        for i in range(n):
            for j in range(i + 1, n):
                gamma = min(gamma, _circle_dist(kfs[i], kfs[j]))
        for i1 in range(n):
            for i2 in range(n):
                for i3 in range(n):
                    for i4 in range(n):
                        if i1 == i3 and i2 == i4:
                            continue
                        if i1 == i2 or i3 == i4:
                            continue  # reduces to the pair condition
                        d = _circle_dist(kfs[i1] - kfs[i2], kfs[i3] - kfs[i4])
                        gamma = min(gamma, d)
    if gamma < GAMMA_MIN:
        flags["d"] = False
    diag["n_lower"] = sum(1 for b in with_kf if b.side == "lower")
    diag["n_upper"] = sum(1 for b in with_kf if b.side == "upper")
    return AssumptionReport(
        gamma=float(gamma if np.isfinite(gamma) else np.inf),
        flags=flags,
        diagnostics=diag,
    )
