"""Multi-channel chiral reference model.

Closed-form correlation matrices of a family of linearly dispersing
chiral fermion channels with density-density couplings between distinct
channels, together with the regularized momentum-space objects (cutoff
propagator, regularized bubble) that converge to those closed forms when
the infrared/ultraviolet cutoffs are removed.

The headline identity: the edge conductance assembled from the vertex
renormalizations and the discontinuity matrix equals
``sum_w sgn(velocity_w) / (2 pi)`` for every admissible parameter set.

The momentum-independent closed forms (validation, admissibility radius,
``(1 +- kappa Lambda_Z)^-1``, discontinuity matrix, vertex
renormalizations, conductance) are written once over leading stack axes:
a :class:`LuttingerParams` may hold a stack of parameter sets with the same
channel count, and each set of the stack comes out bitwise as it would
alone.  Random ensembles are drawn in blocks (:func:`random_block`) and
evaluated one stack per channel count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import band_cutoff, channel_norm, chi, shell
from .quadrature import polar_nodes, refine_until

__all__ = [
    "LuttingerParams",
    "RegulatorConfig",
    "SingularTMatrixError",
    "LatticeSingularPointError",
    "DiscontinuityCrossCheckError",
    "VertexFormsError",
    "chiral_denominator",
    "chiral_denominator_reflected",
    "bubble_closed",
    "bubble_over_d",
    "bubble_regularized",
    "same_chirality_bubble",
    "lattice_propagator",
    "antiperiodic_grid",
    "P_C",
    "form_factor",
    "t_matrix",
    "t_limit_static",
    "t_limit_dynamic",
    "t_matrix_directional_numeric",
    "density_density",
    "density_density_directional_numeric",
    "discontinuity_matrix",
    "vertex_renormalizations",
    "edge_conductance",
    "anomaly_residual",
    "random_block",
    "random_params",
]


class SingularTMatrixError(RuntimeError):
    """Channel-mixing inversion is ill conditioned at the given momentum."""


class LatticeSingularPointError(RuntimeError):
    """A lattice propagator was evaluated at a zero of its denominator."""


class DiscontinuityCrossCheckError(RuntimeError):
    """The closed-form discontinuity matrix disagrees with the directional limits."""


class VertexFormsError(RuntimeError):
    """The expanded and the solved forms of the vertex renormalizations disagree."""


@dataclass(frozen=True)
class LuttingerParams:
    """Bare data of the reference model.

    Parameters
    ----------
    v : array, shape (..., n)
        Channel velocities, all nonzero; sgn(v) is the chirality.
    z : array, shape (..., n)
        Positive field strengths.
    lam : array, shape (..., n, n)
        Real symmetric coupling matrix with zero diagonal.

    Every set has the same two-body potential, :func:`form_factor`.

    Leading axes make a stack of parameter sets: validation, the
    admissibility radius, :func:`t_limit_static`, :func:`t_limit_dynamic`,
    :func:`discontinuity_matrix`, :func:`vertex_renormalizations` and
    :func:`edge_conductance` act on every set at once.  The
    momentum-dependent objects and the flow take one set.
    """

    v: np.ndarray
    z: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "lam", lam)
        n = v.shape[-1]
        if z.shape != v.shape or lam.shape != v.shape + (n,):
            raise ValueError("inconsistent channel counts")
        if np.any(v == 0.0):
            raise ValueError("zero channel velocity")
        if np.any(z <= 0.0):
            raise ValueError("field strengths must be positive")
        # np.allclose(lam, lam.T, atol=1e-14) spelled out; NaN fails it
        lam_t = np.swapaxes(lam, -1, -2)
        if not np.all(np.abs(lam - lam_t) <= 1e-14 + 1e-5 * np.abs(lam_t)):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.abs(np.diagonal(lam, axis1=-2, axis2=-1)) > 1e-14):
            raise ValueError("coupling matrix must have zero diagonal")
        rho = np.ravel(self.coupling_radius())
        if np.any(rho >= 1.0):
            raise ValueError(
                f"inadmissible couplings: spectral radius {rho[rho >= 1.0][0]:.3f} of "
                "(4 pi |v|)^-1 Lambda_Z must be < 1"
            )

    @property
    def n_channels(self):
        return self.v.shape[-1]

    def coupling_weighted(self):
        """(Lambda_Z)_{ab} = lam_{ab} z_b / z_a."""
        return _coupling_weighted(self.z, self.lam)

    def kappa(self):
        """Diagonal matrix 1 / (4 pi |v|)."""
        return np.eye(self.n_channels) * (1.0 / (4.0 * np.pi * np.abs(self.v)))[..., None, :]

    def coupling_radius(self):
        """Spectral radius of kappa @ Lambda_Z (real spectrum)."""
        return _coupling_radius(self.v, self.z, self.lam)


def _coupling_weighted(z, lam):
    return lam * z[..., None, :] / z[..., :, None]


def _kappa_coupling(v, z, lam):
    """kappa @ Lambda_Z from the raw arrays.  kappa is diagonal, so the
    product is a row scaling, bitwise the matmul."""
    kappa = 1.0 / (4.0 * np.pi * np.abs(v))
    return kappa[..., :, None] * _coupling_weighted(z, lam)


def _coupling_radius(v, z, lam):
    """Spectral radius of kappa @ Lambda_Z from the raw arrays, one per
    stacked set."""
    if v.shape[-1] == 1:
        return np.zeros(v.shape[:-1])[()]
    return np.max(np.abs(np.linalg.eigvals(_kappa_coupling(v, z, lam))), axis=-1)


def _matvec(m, x):
    # matrix times vector over leading stack axes
    return (m @ x[..., None])[..., 0]


def chiral_denominator(p0, p1, v):
    """Linear chiral propagator denominator -i p0 + v p1."""
    return -1j * np.asarray(p0) + np.asarray(v) * np.asarray(p1)


def chiral_denominator_reflected(p0, p1, v):
    """Same with the spatial momentum reflected: -i p0 - v p1."""
    return chiral_denominator(p0, -np.asarray(p1), v)


def bubble_closed(p0, p1, v):
    """Cutoff-removed anomalous bubble (i p0 + v p1) / (4 pi |v|)."""
    return -chiral_denominator_reflected(p0, p1, v) / (4.0 * np.pi * np.abs(v))


def bubble_over_d(p0, p1, v):
    """Closed-form pair bubble per unit field strength, B(p)/D(p): unit
    modulus times 1 / (4 pi |v|)."""
    return bubble_closed(p0, p1, v) / chiral_denominator(p0, p1, v)


P_C = 4.0  # plateau scale of the two-body form factor


def form_factor(p0, p1):
    """Smooth even two-body form factor, exactly 1 for |p| <= P_C."""
    return chi(np.hypot(p0, p1) / P_C)


# ---------------------------------------------------------------------------
# Regularized objects
# ---------------------------------------------------------------------------


def _rescaled(p0, p1, v):
    # coordinates in which the channel norm is Euclidean
    return float(p0), float(v) * float(p1)


def bubble_regularized(p0, p1, v, h, n, tol=1e-6, max_doublings=5):
    """Anomalous bubble at finite infrared scale 2^h and ultraviolet 2^n.

    Evaluates  int d^2k/(2pi)^2 (1/D(k)) W(k) (W(k-p) - W(k+p))  with
    W the [h, n] band cutoff in the channel norm; this is -D(p) times the
    regularized pair bubble and converges to :func:`bubble_closed` as the
    cutoffs are removed.  The integrand vanishes
    identically except on the ultraviolet transition annulus and on two
    disks of radius 2^(h+1) around the rescaled +-p, which are integrated
    on knot-aligned polar grids and refined until the total stabilizes.

    Requires 2^(h+3) <= |p|_v <= 2^(n-3).
    """
    s = np.sign(v)
    q0, q1 = _rescaled(p0, p1, v)
    qn = np.hypot(q0, q1)
    if qn < 2.0 ** (h + 3) or qn > 2.0 ** (n - 3):
        raise ValueError("momentum must sit well between the cutoff scales")

    def integrand(k0, k1):
        r = np.hypot(k0, k1)
        rp = np.hypot(k0 + q0, k1 + q1)
        rm = np.hypot(k0 - q0, k1 - q1)
        w = band_cutoff(r, h, n)
        bracket = band_cutoff(rm, h, n) - band_cutoff(rp, h, n)
        return w * bracket / (-1j * k0 + s * k1)

    uv_edges = [2.0**n - 2.0 * qn, 2.0**n, 2.0 ** (n + 1)]
    disk_edges = [0.0, 2.0**h, 2.0 ** (h + 1)]

    def estimate(level):
        total = 0.0 + 0.0j
        k0_, k1_, w_ = polar_nodes(uv_edges, level, 8 * level)
        total += np.dot(w_, integrand(k0_, k1_))
        for sign in (+1.0, -1.0):
            k0_, k1_, w_ = polar_nodes(
                disk_edges, level, 4 * level, center=(sign * q0, sign * q1)
            )
            total += np.dot(w_, integrand(k0_, k1_))
        return total / (4.0 * np.pi**2 * abs(v))

    value, _ = refine_until(estimate, tol, start=2, max_doublings=max_doublings)
    return value


def same_chirality_bubble(h1, h2, v, mutated=False):
    """Two-shell coincident bubble  int f_h1 f_h2 / D^2  (vanishes).

    The angular symmetry of the rescaled integrand kills the integral
    exactly; the returned value measures quadrature noise.  With
    ``mutated=True`` the denominator is replaced by |D|^2, which breaks
    the cancellation and serves as a sensitivity control.
    """
    s = np.sign(v)
    h_min = min(h1, h2) - 12

    def integrand(k0, k1):
        r = np.hypot(k0, k1)
        f = shell(r, h1, h_min) * shell(r, h2, h_min)
        d = -1j * k0 + s * k1
        den = (d * np.conj(d)).real if mutated else d * d
        return f / den

    lo = 2.0 ** (min(h1, h2) - 1)
    hi = 2.0 ** (max(h1, h2) + 1)
    knots = sorted(
        {lo, hi}
        | {2.0 ** (j + e) for j in (h1, h2) for e in (-1, 0, 1)}
    )

    def estimate(level):
        k0_, k1_, w_ = polar_nodes(knots, level, 4 * level)
        return np.dot(w_, integrand(k0_, k1_)) / (4.0 * np.pi**2 * abs(v))

    value, _ = refine_until(estimate, 1e-9, start=2, max_doublings=5)
    return value


@dataclass(frozen=True)
class RegulatorConfig:
    """Finite-lattice regularization of the reference model: the band cutoff
    ``[2^h, 2^n]`` and an antiperiodic box of an even number of cells."""

    h: int
    n: int
    spacing: float = 0.1
    box: float = 51.2

    def __post_init__(self):
        if self.h >= 0 or self.n <= 0:
            raise ValueError("need infrared h < 0 < n ultraviolet")
        if self.spacing <= 0.0 or self.box <= 0.0:
            raise ValueError("spacing and box must be positive")
        cells = self.box / self.spacing
        if abs(cells - round(cells)) > 1e-9 or round(cells) % 2:
            raise ValueError("box/spacing must be an even integer")

    @property
    def cells(self):
        return int(round(self.box / self.spacing))


def antiperiodic_grid(cells, box):
    """1D antiperiodic momenta (2 pi / box)(m + 1/2), m = 0..cells-1."""
    return 2.0 * np.pi / box * (np.arange(cells) + 0.5)


def _fold(k, spacing):
    g = 2.0 * np.pi / spacing
    return (np.asarray(k, float) + g / 2.0) % g - g / 2.0


def lattice_propagator(k0, k1, v, z, reg: RegulatorConfig):
    """Cutoff lattice propagator  chi_[h,n](k) / (z * D_lat(k)).

    ``D_lat`` replaces each momentum component by sin(a k)/a, periodic
    under reciprocal shifts; the cutoff uses the folded channel norm, so
    the whole expression is reciprocal-lattice periodic.  The antiperiodic
    grid never hits the zeros of D_lat; a guard asserts this.
    """
    a = reg.spacing
    d = (-1j * np.sin(a * np.asarray(k0)) + v * np.sin(a * np.asarray(k1))) / a
    if np.any(np.abs(d) < 1e-12 / a):
        raise LatticeSingularPointError("momentum hit a lattice singular point")
    r = channel_norm(_fold(k0, a), _fold(k1, a), v)
    return band_cutoff(r, reg.h, reg.n) / (z * d)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def t_matrix(p0, p1, params: LuttingerParams, cond_limit=1e12):
    """Channel mixing matrix (1 + diag(B/D) Lambda_Z vhat(p))^-1."""
    n = params.n_channels
    m = np.eye(n, dtype=complex) + (
        bubble_over_d(p0, p1, params.v)[:, None]
        * params.coupling_weighted()
        * form_factor(p0, p1)
    )
    if np.linalg.cond(m) > cond_limit:
        raise SingularTMatrixError(f"T(p) singular at p = ({p0}, {p1})")
    return np.linalg.inv(m)


def t_limit_dynamic(params: LuttingerParams):
    """lim_{p0->0} lim_{p1->0} T(p) = (1 - kappa Lambda_Z)^-1."""
    n = params.n_channels
    return np.linalg.inv(np.eye(n) - _kappa_coupling(params.v, params.z, params.lam))


def t_limit_static(params: LuttingerParams):
    """lim_{p1->0} lim_{p0->0} T(p) = (1 + kappa Lambda_Z)^-1."""
    n = params.n_channels
    return np.linalg.inv(np.eye(n) + _kappa_coupling(params.v, params.z, params.lam))


def _richardson(ts, values):
    # Neville extrapolation to t = 0 of a vector/matrix-valued polynomial
    ts = [float(t) for t in ts]
    tab = [np.asarray(v, dtype=complex) for v in values]
    k = len(tab)
    for m in range(1, k):
        nxt = []
        for i in range(k - m):
            t_i, t_im = ts[i], ts[i + m]
            nxt.append((t_i * tab[i + 1] - t_im * tab[i]) / (t_i - t_im))
        tab = nxt
    return tab[0]


def _directional_limit(fn, params, order):
    ts = (1e-2, 1e-3, 1e-4)
    if order == "p1_first":
        paths = [(t, t * t) for t in ts]
    elif order == "p0_first":
        paths = [(t * t, t) for t in ts]
    else:
        raise ValueError("order must be 'p1_first' or 'p0_first'")
    return _richardson(ts, [fn(p0, p1, params) for p0, p1 in paths])


def t_matrix_directional_numeric(params, order):
    """Directional limit of T along a parabolic path, Richardson extrapolated
    from t = 1e-2, 1e-3, 1e-4.

    ``order='p1_first'`` uses p(t) = (t, t^2) so the spatial momentum
    vanishes faster (matches :func:`t_limit_dynamic`); ``order='p0_first'``
    uses p(t) = (t^2, t) (matches :func:`t_limit_static`).
    """
    return _directional_limit(t_matrix, params, order)


def density_density(p0, p1, params: LuttingerParams):
    """Channel density-density correlation T(p) Z^-2 B(p)/D(p)."""
    right = bubble_over_d(p0, p1, params.v) / params.z**2
    return t_matrix(p0, p1, params) * right[None, :]


def density_density_directional_numeric(params, order):
    """Directional limit of the density-density correlation, as for
    :func:`t_matrix_directional_numeric`."""
    return _directional_limit(density_density, params, order)


def discontinuity_matrix(params: LuttingerParams, cross_validate=False, tol=1e-8):
    """Order-of-limits discontinuity of the density-density correlation.

    Closed form (1 + k Lz)^-1 (1 - k Lz)^-1 (2 pi |v|)^-1 Z^-2 with
    k = (4 pi |v|)^-1.  With ``cross_validate=True`` the closed form is
    checked against Richardson-extrapolated directional limits (one
    parameter set only).
    """
    right = 1.0 / (2.0 * np.pi * np.abs(params.v) * params.z**2)
    # the diagonal right factor is a column scaling, bitwise the matmul
    a = (t_limit_static(params) @ t_limit_dynamic(params)) * right[..., None, :]
    if cross_validate:
        s_static = density_density_directional_numeric(params, "p0_first")
        s_dynamic = density_density_directional_numeric(params, "p1_first")
        numeric = s_static - s_dynamic
        gap = np.max(np.abs(numeric - a))
        if gap > tol:
            raise DiscontinuityCrossCheckError(f"discontinuity cross-check failed: {gap:.2e}")
    return a


def vertex_renormalizations(params: LuttingerParams, check=True):
    """Density and current vertex couplings (Z0, Z1) of the lattice-facing
    description, in the two equivalent forms.

    Expanded form: Z0 = (1 - Lambda_Z^T kappa) Z and
    Z1 = (1 + Lambda_Z^T kappa) (v * Z).  Equivalently Z0 solves
    T_dynamic^T Z0 = Z and Z1 solves T_static^T Z1 = v * Z; with
    ``check=True`` both routes are computed and compared, set by set.
    """
    lzk = np.swapaxes(_kappa_coupling(params.v, params.z, params.lam), -1, -2)
    n = params.n_channels
    z0 = _matvec(np.eye(n) - lzk, params.z)
    z1 = _matvec(np.eye(n) + lzk, params.v * params.z)
    if check:
        for name, z, t_limit, rhs in (
            ("Z0", z0, t_limit_dynamic, params.z),
            ("Z1", z1, t_limit_static, params.v * params.z),
        ):
            alt = np.linalg.solve(np.swapaxes(t_limit(params), -1, -2), rhs[..., None])[..., 0]
            scale = np.maximum(1.0, np.max(np.abs(z), axis=-1))
            if np.any(np.max(np.abs(z - alt), axis=-1) > 1e-12 * scale):
                raise VertexFormsError(f"{name} forms disagree")
    return z0, z1


def edge_conductance(params: LuttingerParams):
    """Conductance Z0 . (A Z1); equals sum_w sgn(v_w) / (2 pi) identically.

    One value per stacked parameter set (a float for one set)."""
    z0, z1 = vertex_renormalizations(params, check=False)
    az1 = _matvec(discontinuity_matrix(params), z1)
    return (z0[..., None, :] @ az1[..., None])[..., 0, 0]


def anomaly_residual(p0, p1, v, z, h, n, tol=1e-6):
    """Residual of the free-channel anomaly identity at finite cutoffs.

    ``z D(p) S0(p) - (1/z) B_reg(p)`` where S0 is the exact free
    density-density correlation and B_reg the regularized bubble; the
    residual is (1/z)(B_closed - B_reg) and tends to 0 as h -> -inf,
    n -> inf.
    """
    params = LuttingerParams(v=[v], z=[z], lam=[[0.0]])
    s0 = density_density(p0, p1, params)[0, 0]
    lhs = z * chiral_denominator(p0, p1, v) * s0
    rhs = bubble_regularized(p0, p1, v, h, n, tol=tol) / z
    return lhs - rhs


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


RADIUS_CAP = 0.8  # admissibility radius of the random couplings
ENSEMBLE_BLOCK = 256  # draws per block of an ensemble (ref-check)
_SIGNS = np.array([-1.0, 1.0])


def _draw_groups(rng, size, n_channels, lambda_scale):
    """The draw code of :func:`random_block`: ``(index, v, z, lam, rescaled)``
    per channel count, the arrays admissible but not yet validated."""
    raw = []
    for _ in range(size):
        n = n_channels if n_channels is not None else int(rng.integers(1, 5))
        v = rng.uniform(0.5, 2.0, n) * _SIGNS[rng.integers(0, 2, n)]
        z = rng.uniform(0.5, 2.0, n)
        raw.append((v, z, rng.normal(0.0, lambda_scale, (n, n))))
    groups = []
    for n in sorted({v.size for v, _, _ in raw}):
        index = np.array([i for i, (v, _, _) in enumerate(raw) if v.size == n])
        v, z, lam = (np.stack([raw[i][k] for i in index]) for k in range(3))
        lam = 0.5 * (lam + np.swapaxes(lam, -1, -2))
        diag = np.arange(n)
        lam[:, diag, diag] = 0.0
        rho = _coupling_radius(v, z, lam)
        rescaled = rho >= RADIUS_CAP
        lam[rescaled] = lam[rescaled] * (RADIUS_CAP / rho[rescaled])[:, None, None] * 0.99
        groups.append((index, v, z, lam, rescaled))
    return groups


def random_block(rng, size, n_channels=None, lambda_scale=0.1):
    """Draw ``size`` admissible random parameter sets, grouped by channel
    count.

    Velocities have random signs and magnitudes in [0.5, 2], field
    strengths in [0.5, 2]; couplings are Gaussian of width lambda_scale,
    rescaled when needed so the admissibility radius stays below
    :data:`RADIUS_CAP`.  The generator is read draw by draw, in the order
    of ``size`` calls of :func:`random_params`; the symmetrization, the
    radius, the rescaling and the validation then run once per channel
    count on the stack of its draws, bitwise as they would per draw.

    Returns ``(index, params, rescaled)`` per channel count, ascending:
    the draws' positions in the block, their stacked
    :class:`LuttingerParams`, and which of them were rescaled onto the cap.
    """
    return [
        (index, LuttingerParams(v=v, z=z, lam=lam), rescaled)
        for index, v, z, lam, rescaled in _draw_groups(rng, size, n_channels, lambda_scale)
    ]


def random_params(rng, n_channels=None, lambda_scale=0.1):
    """Draw one admissible random parameter set: a block of one of the
    draw code of :func:`random_block`, validated as one set."""
    [(_, v, z, lam, _)] = _draw_groups(rng, 1, n_channels, lambda_scale)
    return LuttingerParams(v=v[0], z=z[0], lam=lam[0])
