"""Edge-mode spectroscopy: band scans, branch continuation, Fermi data and
the lower edge's chirality.

A scan keeps the eigenpairs inside an energy window (excluding the
decoupled Dirichlet-row modes) of the Bloch fibers on a uniform
ring-momentum grid, read from the model's store
(:func:`~edgeflow.response.fiber_cache`); a direct sum's in-window states
are its summands', merged by energy.  Branches come from the scan in two
steps:

1. :func:`edge_branches` forms them by eigenvector-overlap continuation,
   assigns each to an edge by its half-cylinder weight and splits them so
   that each crosses ``mu`` at most once between grid samples.  It finds
   each grid crossing once, records it on its branch
   (:attr:`EdgeBranch.crossing`) and diagonalizes nothing; a branch's
   chirality is the direction in which it crosses ``mu`` there
   (:attr:`EdgeBranch.direction`).
2. :func:`extract_edge_branches` adds the Fermi data: each crossing
   branch gets its Fermi point in its recorded interval, refined by
   bisection with re-diagonalization (:func:`fermi_point`) of the whole
   fiber, which is not stored, its velocity and its localization-rate fit.

:func:`lower_edge_chirality` counts that chirality with no scan and no
branch, from the steps of the lower half's occupied charge around the ring
(Laughlin's charge pump, read per ring momentum).  The scan, the bisection
and the charge count read a hybridized edge pair alike (:func:`_side_pure`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

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
    "ChargeStepError",
    "scan_spectrum",
    "edge_branches",
    "extract_edge_branches",
    "fermi_point",
    "lower_edge_chirality",
    "check_assumptions",
]

OVERLAP_THRESHOLD = 0.7  # least |<v(k), v(k+dk)>| that continues a branch
SIDE_THRESHOLD = 0.9  # least half-cylinder weight of an edge state
V_MIN = 1e-3  # least |velocity| of a Fermi point
DEGENERACY_TOL = 1e-5  # energy gap below which scan states are side-purified
FERMI_TOL = 1e-10  # |E(k_F) - mu| at which the bisection stops
MAX_BISECTIONS = 200
GAMMA_MIN = 0.05  # least Fermi-momentum separation, pairwise and in differences
MIN_SCAN_MOMENTA = 64  # least grid size of a scan, and the finest spacing of a charge step
CHARGE_STEP_TOL = 0.25  # largest distance of a lower-half charge step from an integer


class BulkStateError(RuntimeError):
    """An in-window state is localized at neither edge."""


class FermiPointError(RuntimeError):
    """The Fermi-point bisection did not converge, or the branch is tangent
    to the chemical potential."""


class NoEdgeBranchError(RuntimeError):
    """The energy window holds no edge branch to check."""


class ChargeStepError(RuntimeError):
    """A step of the lower half's occupied charge stays farther than
    :data:`CHARGE_STEP_TOL` from an integer at the finest momentum spacing,
    ``2 pi / MIN_SCAN_MOMENTA``."""


@dataclass
class BandScan:
    ham: object
    k_grid: np.ndarray
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
    crossing: int | None = None  # the sample after which the energies cross mu
    k_fermi: float = np.nan
    velocity: float = np.nan
    loc_rate: float = np.nan
    loc_r2: float = np.nan

    @property
    def direction(self):
        """+1 or -1, the direction in which the branch crosses ``mu`` at its
        :attr:`crossing`, or 0 for a branch that does not cross: for a single
        root between the two samples, the sign of the Fermi velocity."""
        if self.crossing is None:
            return 0
        return int(np.sign(self.energies[self.crossing + 1] - self.energies[self.crossing]))


@dataclass
class AssumptionReport:
    gamma: float
    flags: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(self.flags.values())


def _cluster(e, i):
    """``(lo, hi)``: the near-degenerate cluster ``e[lo:hi]`` around index
    ``i`` of the ascending energies ``e``, its neighbours gapped by less than
    :data:`DEGENERACY_TOL` each."""
    lo, hi = i, i + 1
    while lo > 0 and e[lo] - e[lo - 1] < DEGENERACY_TOL:
        lo -= 1
    while hi < len(e) and e[hi] - e[hi - 1] < DEGENERACY_TOL:
        hi += 1
    return lo, hi


def _side_pure(geometry, e, vecs):
    """``(pure, energies)``: the rows ``vecs`` of a near-degenerate cluster of
    energies ``e`` (edge states split only by tunneling, which ``eigh`` mixes
    at random) rotated to side-pure rows by the lower-half projector within
    the cluster, and their ``<psi|H|psi>``."""
    proj = np.arange(geometry.fiber_dim) < (geometry.L2 // 2) * geometry.M  # the lower half
    w = (vecs.conj() * proj[None, :]) @ vecs.T
    _, rot = np.linalg.eigh(0.5 * (w + w.conj().T))
    pure = rot.T @ vecs
    return pure, np.abs(pure.conj() @ vecs.T) ** 2 @ e


def _purify_degenerate(geometry, e, vecs):
    """The rows ``vecs`` with each near-degenerate cluster (:func:`_cluster`)
    of the energies ``e`` rotated to its side-pure states (:func:`_side_pure`)."""
    i = 0
    out = vecs.copy()
    while i < len(e):
        j = _cluster(e, i)[1]
        if j - i > 1:
            out[i:j] = _side_pure(geometry, e[i:j], out[i:j])[0]
        i = j
    return out


def scan_spectrum(ham, n_k=MIN_SCAN_MOMENTA, window=(-0.5, 0.5), threads=1):
    """Keep the in-window eigenpairs of the fibers on the ``n_k`` grid
    momenta ``k1 = 2 pi m / n_k`` (Dirichlet-row modes dropped, degenerate
    clusters side-purified).  A direct sum's are its summands' in-window
    states at each momentum, each placed on its summand's rows of the whole
    fiber and merged by a stable sort of their energies.

    The grids, one per summand, are :func:`~edgeflow.response.fiber_cache`'s
    on ``threads``, read from the summands' stores, where a response on that
    grid finds them too.  ``n_k`` below :data:`MIN_SCAN_MOMENTA` raises
    ``ValueError`` before any ``eigh``.
    """
    if n_k < MIN_SCAN_MOMENTA:
        raise ValueError(f"need at least {MIN_SCAN_MOMENTA} grid momenta, got n_k = {n_k}")
    g = ham.geometry
    lo, hi = window
    rows = [(np.arange(g.L2)[:, None] * g.M + idx).ravel() for idx, _ in ham.summands()]
    ks, energies, vectors = [], [], []
    for fiber in zip(*response.fiber_cache(ham, n_k, threads=threads)):
        es, vs = [], []
        for part, on in zip(fiber, rows, strict=True):
            idx = np.flatnonzero((part.energies > lo) & (part.energies < hi))
            v = np.zeros((g.fiber_dim, idx.size), dtype=complex)
            v[on] = part.states[:, idx]
            es.append(part.energies[idx])
            vs.append(v)
        e = np.concatenate(es)
        order = np.argsort(e, kind="stable")
        e, v = e[order], np.concatenate(vs, axis=1)[:, order]
        w = row_weights(g, v)
        keep = w[0] + w[-1] < 0.5
        ks.append(fiber[0].k1)
        energies.append(e[keep])
        vectors.append(_purify_degenerate(g, e[keep], v[:, keep].T))
    return BandScan(ham=ham, k_grid=np.array(ks), energies=energies, vectors=vectors)


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


def edge_branches(scan, mu):
    """Continue in-window states across the k grid and classify by edge.

    Continuation accepts the best unused |<v(k), v(k+dk)>| >= :data:`OVERLAP_THRESHOLD`
    match; the grid wraps at 2 pi.  A chain starts at a state that no state
    at the momentum before matches, so a branch runs across the seam
    ``k1 = 0`` and keeps the crossing there; the states of a closed ring of
    matches start one chain in grid order.  Each maximal chain becomes one
    branch per grid crossing of ``mu``, which the branch records as
    :attr:`EdgeBranch.crossing`: chains crossing ``mu`` several times are
    split between crossings, and two crossings in adjacent intervals share
    the sample between them.  A chain of fewer than 3 samples is dropped,
    crossing ``mu`` or not; each part of a split is kept, since it holds its
    crossing in 2 samples at least, all that :func:`fermi_point` reads, so
    three crossings in consecutive intervals keep three branches, the
    middle one of 2 samples.  A state with less than :data:`SIDE_THRESHOLD`
    weight on either half of the cylinder raises :class:`BulkStateError`;
    otherwise a chain keeps one side, since two states on opposite halves
    overlap by less than :data:`OVERLAP_THRESHOLD`.  The branches carry no
    Fermi data: no fiber is diagonalized.
    """
    g = scan.geometry
    n_k = len(scan.k_grid)
    # overlaps[i][j, jn] = |<v_j(k_i), v_jn(k_(i+1))>|, around the ring
    overlaps = [np.abs(scan.vectors[i].conj() @ scan.vectors[(i + 1) % n_k].T) for i in range(n_k)]
    heads = [(i, j) for i in range(n_k) for j in np.flatnonzero(~np.any(overlaps[i - 1] >= OVERLAP_THRESHOLD, axis=0))]
    used = [np.zeros(len(e), dtype=bool) for e in scan.energies]
    chains = []
    for i0, j0 in heads + [(i, j) for i in range(n_k) for j in range(len(used[i]))]:
        if used[i0][j0]:
            continue
        chain = [(i0, j0)]
        used[i0][j0] = True
        i, j = i0, j0
        for _ in range(n_k - 1):
            cand = np.where(used[(i + 1) % n_k], -1.0, overlaps[i][j])
            if not cand.size or cand.max() < OVERLAP_THRESHOLD:
                break
            i, j = (i + 1) % n_k, int(np.argmax(cand))
            used[i][j] = True
            chain.append((i, j))
        chains.append(chain)

    branches, label = [], 0
    for chain in chains:
        ks = np.array([scan.k_grid[i] for i, _ in chain])
        es = np.array([scan.energies[i][j] for i, j in chain])
        vs = np.array([scan.vectors[i][j] for i, j in chain])
        lws = [float(np.sum(row_weights(g, v)[: g.L2 // 2])) for v in vs]
        for k, lw in zip(ks, lws):
            if not (lw >= SIDE_THRESHOLD or 1.0 - lw >= SIDE_THRESHOLD):
                raise BulkStateError(
                    f"state at k1 = {k:.4f} has half-cylinder weight "
                    f"{lw:.3f}; neither edge test passed (window bulk state)"
                )
        side = "lower" if lws[0] >= SIDE_THRESHOLD else "upper"
        # one branch per crossing, cut after the midpoint to the next one; a
        # crossing right after the previous one starts its branch at the
        # sample the two share
        cross_at = _crossings(es, mu)
        cuts = [(a + 1 + b) // 2 + 1 for a, b in zip(cross_at, cross_at[1:])]
        starts = [0] + [min(cut, b) for cut, b in zip(cuts, cross_at[1:])]
        for t, (a, b) in enumerate(zip(starts, cuts + [len(es)])):
            if b - a >= 3 or len(cross_at) > 1:
                branches.append(
                    EdgeBranch(
                        label=label,
                        k_samples=ks[a:b],
                        energies=es[a:b],
                        vectors=vs[a:b],
                        side=side,
                        crossing=cross_at[t] - a if cross_at else None,
                    )
                )
            label += 1
    return branches


def extract_edge_branches(scan, mu):
    """The :func:`edge_branches` of the scan, each crossing branch with its
    Fermi momentum, velocity and localization fit from :func:`fermi_point`
    in its recorded crossing interval."""
    branches = edge_branches(scan, mu)
    for b in branches:
        if b.crossing is not None:
            kf, vel, vec = fermi_point(b, scan.ham, mu)
            b.k_fermi, b.velocity = kf, vel
            b.loc_rate, b.loc_r2 = _fit_loc_rate(scan.geometry, vec, b.side)
    return branches


def _crossings(energies, mu):
    """Indices i at which the sampled energies cross mu between i and i + 1."""
    sign = np.sign(energies - mu)
    return [i for i in range(len(sign) - 1) if sign[i] * sign[i + 1] < 0]


def _track_eig(ham, k1, ref_vec):
    """The energy and state at ``k1`` that continue ``ref_vec``: the
    eigenpair of best overlap of the whole fiber, solved and not stored,
    or, when that state sits in a near-degenerate cluster
    (:func:`_cluster`), the cluster's side-pure state of best overlap with
    its ``<psi|H|psi>`` (:func:`_side_pure`), since ``eigh`` mixes a
    hybridized edge pair at random."""
    e, v = np.linalg.eigh(assemble_fiber(ham, k1))
    j = int(np.argmax(np.abs(ref_vec.conj() @ v)))
    lo, hi = _cluster(e, j)
    if hi - lo == 1:
        return e[j], v[:, j]
    pure, energies = _side_pure(ham.geometry, e[lo:hi], v[:, lo:hi].T)
    best = int(np.argmax(np.abs(pure.conj() @ ref_vec)))
    return energies[best], pure[best]


def fermi_point(branch, ham, mu):
    """Locate the branch's Fermi momentum by bisection with
    re-diagonalization, and the velocity by Richardson-extrapolated
    central differences.

    Returns ``(k_fermi, velocity, eigenvector_at_k_fermi)`` in the
    interval after the sample :attr:`EdgeBranch.crossing`.  Raises
    ``ValueError`` when the branch records no crossing, and
    :class:`FermiPointError` when the bisection does not converge or the
    branch is tangent (|velocity| < :data:`V_MIN`, or not a number).
    """
    i = branch.crossing
    if i is None:
        raise ValueError("branch does not cross the chemical potential")
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
    if not abs(velocity) >= V_MIN:
        raise FermiPointError(
            f"branch tangent to mu at k1 = {km:.5f}: |velocity| = "
            f"{abs(velocity):.2e}, not at least {V_MIN}"
        )
    return km % (2.0 * np.pi), float(velocity), vec


def _lower_charge(geometry, basis, mu):
    """``Q(k) = sum_(E_n < mu) sum_(x2 < L2 / 2) |U_n(x2)|^2`` of one fiber
    basis.  A near-degenerate cluster (gaps below :data:`DEGENERACY_TOL`)
    that straddles ``mu``, a hybridized edge pair that ``eigh`` mixes at
    random, is rotated to side-pure states first, and those whose
    ``<psi|H|psi>`` is below ``mu`` count as occupied (:func:`_side_pure`)."""
    e, states = basis.energies, basis.states
    half = (geometry.L2 // 2) * geometry.M
    lo = hi = int(e.searchsorted(mu))
    if 0 < lo < len(e):
        around = _cluster(e, lo)
        if around[0] < lo:  # the cluster straddles mu
            lo, hi = around
    charge = np.sum(np.abs(states[:half, :lo]) ** 2)
    if hi > lo:
        pure, energies = _side_pure(geometry, e[lo:hi], states[:, lo:hi].T)
        charge += np.sum(np.abs(pure[energies < mu, :half]) ** 2)
    return charge


def _charge_step(sub, mu, n, m, q0, q1):
    """The integer step ``q1 - q0`` of the charge from ``k1 = 2 pi m / n`` to
    ``2 pi (m + 1) / n``: a step farther than :data:`CHARGE_STEP_TOL` from an
    integer is the sum over the interval's halves, down to the spacing ``2 pi
    / MIN_SCAN_MOMENTA``, where it raises :class:`ChargeStepError`."""
    step = q1 - q0
    if abs(step - round(step)) <= CHARGE_STEP_TOL:
        return int(round(step))
    if n >= MIN_SCAN_MOMENTA:
        raise ChargeStepError(
            f"lower-half charge step {step:.3f} from k1 = {2.0 * np.pi * m / n:.5f} to "
            f"{2.0 * np.pi * (m + 1) / n:.5f} is not within {CHARGE_STEP_TOL} of an integer"
        )
    qm = _lower_charge(sub.geometry, response.diagonalize_fiber(sub, np.pi * (2 * m + 1) / n), mu)
    return _charge_step(sub, mu, 2 * n, 2 * m, q0, qm) + _charge_step(sub, mu, 2 * n, 2 * m + 1, qm, q1)


def lower_edge_chirality(ham, mu, n_k):
    """The signed number of lower-edge modes at ``mu``, ``-sum_i
    round(Q(k_(i+1)) - Q(k_i))`` around the closed ring and over the
    summands, ``Q`` the occupied charge of the lower half (:func:`_lower_charge`)
    on each summand's stored grid of ``n_k`` (:func:`~edgeflow.response.fiber_cache`).

    ``Q`` drifts by about ``C / n_k`` an interval, and a lower-edge state
    that crosses ``mu`` upward (downward) takes one unit out of (puts one
    into) the lower half; so the rounded steps count the crossings by the
    sign of their velocity, with no branch and no window.  A step not near
    an integer is halved (:func:`_charge_step`).
    """
    chi = 0
    for (_, sub), grid in zip(ham.summands(), response.fiber_cache(ham, n_k), strict=True):
        charges = [_lower_charge(sub.geometry, b, mu) for b in grid]
        chi -= sum(_charge_step(sub, mu, n_k, m, charges[m], charges[(m + 1) % n_k]) for m in range(n_k))
    return chi


def _circle_dist(a, b):
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def check_assumptions(branches):
    """Separation and regularity checks on the extracted edge modes.

    Flags: ``b`` exponential localization fits; ``d`` Fermi-momentum
    separations per edge, pairwise and in differences, modulo 2 pi, of at
    least ``GAMMA_MIN``.  An empty branch list raises
    :class:`NoEdgeBranchError`; a bulk state in the window has already
    raised :class:`BulkStateError` in the extraction, and a velocity below
    :data:`V_MIN` (or not a number) :class:`FermiPointError` in
    :func:`fermi_point`.
    """
    if not branches:
        raise NoEdgeBranchError("need at least one branch in the energy window")
    flags = {"b": True, "d": True}
    diag = {}
    with_kf = [b for b in branches if np.isfinite(b.k_fermi)]
    bad_loc = [b.label for b in with_kf if not (b.loc_r2 >= 0.95 and b.loc_rate > 0)]
    if bad_loc:
        flags["b"] = False
        diag["localization_failures"] = bad_loc

    gamma = np.inf
    for side in ("lower", "upper"):
        kfs = [b.k_fermi for b in with_kf if b.side == side]
        diffs = [a - b for a, b in permutations(kfs, 2)]
        for a, b in (*combinations(kfs, 2), *combinations(diffs, 2)):
            gamma = min(gamma, _circle_dist(a, b))
    if gamma < GAMMA_MIN:
        flags["d"] = False
    diag["n_lower"] = sum(1 for b in with_kf if b.side == "lower")
    diag["n_upper"] = sum(1 for b in with_kf if b.side == "upper")
    return AssumptionReport(gamma=float(gamma), flags=flags, diagnostics=diag)
