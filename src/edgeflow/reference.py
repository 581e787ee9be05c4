"""Multi-channel chiral reference model.

Closed-form correlation matrices of a family of linearly dispersing
chiral fermion channels with density-density couplings between distinct
channels, together with the regularized bubble that converges to its
closed form when the infrared/ultraviolet cutoffs are removed.

The headline identity: the edge conductance assembled from the vertex
renormalizations and the discontinuity matrix equals
``sum_w sgn(velocity_w) / (2 pi)`` for every admissible parameter set.

The momentum-independent closed forms (validation, admissibility radius,
``(1 +- kappa Lambda_Z)^-1``, discontinuity matrix, vertex
renormalizations, conductance) are written once over leading stack axes:
a :class:`LuttingerParams` may hold a stack of parameter sets with the same
channel count, and each set of the stack comes out bitwise as it would
alone.  Random ensembles are drawn in blocks (:func:`random_block`), one
generator call per variate and channel count, and evaluated one stack per
channel count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import band_cutoff, chi, shell
from .quadrature import polar_nodes, refine_until

__all__ = [
    "LuttingerParams",
    "SingularTMatrixError",
    "chiral_denominator",
    "bubble_closed",
    "bubble_over_d",
    "bubble_regularized",
    "same_chirality_bubble",
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
    "random_block",
    "random_params",
]


class SingularTMatrixError(RuntimeError):
    """Channel-mixing inversion is ill conditioned at the given momentum."""


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


def bubble_closed(p0, p1, v):
    """Cutoff-removed anomalous bubble (i p0 + v p1) / (4 pi |v|)."""
    return -chiral_denominator(p0, -np.asarray(p1), v) / (4.0 * np.pi * np.abs(v))


def bubble_over_d(p0, p1, v):
    """Closed-form pair bubble per unit field strength, B(p)/D(p), at real
    momenta: unit modulus times 1 / (4 pi |v|).

    It is ``bubble_closed / chiral_denominator`` in real arithmetic: with
    a = v p1,  B/D = ((a^2 - p0^2) + 2i a p0) / ((a^2 + p0^2) 4 pi |v|).
    The real and imaginary parts are written straight into the complex
    output, with no complex division.
    """
    p0 = np.asarray(p0, dtype=float)
    a = np.multiply(v, p1)
    a2 = a * a
    q2 = p0 * p0
    den = (a2 + q2) * (4.0 * np.pi * np.abs(v))
    out = np.empty(den.shape, dtype=complex)
    np.divide(a2 - q2, den, out=out.real)
    np.divide(2.0 * a * p0, den, out=out.imag)
    return out[()]  # [()] keeps a scalar input a scalar


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


def bubble_regularized(p0, p1, v, h, n, tol=1e-6):
    """Anomalous bubble at finite infrared scale 2^h and ultraviolet 2^n.

    Evaluates  int d^2k/(2pi)^2 (1/D(k)) W(k) (W(k-p) - W(k+p))  with
    W the [h, n] band cutoff in the channel norm; this is -D(p) times the
    regularized pair bubble and converges to :func:`bubble_closed` as the
    cutoffs are removed.  The integrand vanishes
    identically except on the ultraviolet transition annulus and on two
    disks of radius 2^(h+1) around the rescaled +-p, which are integrated
    on knot-aligned polar grids and refined until the total stabilizes.

    ``n`` is one ultraviolet scale, which gives one estimate, or a
    strictly ascending sequence of them, which gives a list with one
    estimate per scale, each bitwise the estimate of that scale alone.
    On the disks every radius the cutoffs read is at most
    2 |p|_v + 2^(h+1) <= 2^(n-2) + 2^(n-5) < 2^n, where the ultraviolet
    factor chi(r 2^-n) is exactly 1, so the disks do not depend on n: each
    refinement level integrates them once for all the scales, and only the
    annulus is integrated per scale.  Each estimate adds the annulus and
    then the two disks, as for one scale.

    Requires 2^(h+3) <= |p|_v <= 2^(n-3) for every n.
    """
    ns = [n] if np.ndim(n) == 0 else list(n)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"ultraviolet scales must be one or strictly ascending, got {n!r}")
    q0, q1 = _rescaled(p0, p1, v)
    qn = np.hypot(q0, q1)
    if qn < 2.0 ** (h + 3) or qn > 2.0 ** (ns[0] - 3):
        raise ValueError("momentum must sit well between the cutoff scales")

    def integrand(k0, k1, n):
        r = np.hypot(k0, k1)
        rp = np.hypot(k0 + q0, k1 + q1)
        rm = np.hypot(k0 - q0, k1 - q1)
        w = band_cutoff(r, h, n)
        bracket = band_cutoff(rm, h, n) - band_cutoff(rp, h, n)
        # D(k) = -i k0 + v k1 is -i k0 + k1 in the rescaled k1 = v k1,
        # which carries the chirality already
        return w * bracket / (-1j * k0 + k1)

    disk_edges = [0.0, 2.0**h, 2.0 ** (h + 1)]
    disks = {}  # refinement level -> the two disk sums, shared by every n

    def disk_sums(level):
        if level not in disks:
            disks[level] = []
            for sign in (+1.0, -1.0):
                k0_, k1_, w_ = polar_nodes(
                    disk_edges, level, 4 * level, center=(sign * q0, sign * q1)
                )
                disks[level].append(np.dot(w_, integrand(k0_, k1_, ns[0])))
        return disks[level]

    def estimate(level, n):
        total = 0.0 + 0.0j
        uv_edges = [2.0**n - 2.0 * qn, 2.0**n, 2.0 ** (n + 1)]
        k0_, k1_, w_ = polar_nodes(uv_edges, level, 8 * level)
        total += np.dot(w_, integrand(k0_, k1_, n))
        for disk in disk_sums(level):
            total += disk
        return total / (4.0 * np.pi**2 * abs(v))

    values = [refine_until(lambda level, m=m: estimate(level, m), tol)[0] for m in ns]
    return values[0] if np.ndim(n) == 0 else values


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

    value, _ = refine_until(estimate, 1e-9)
    return value


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


COND_LIMIT = 1e12  # condition number above which T(p) counts as singular


def t_matrix(p0, p1, params: LuttingerParams):
    """Channel mixing matrix (1 + diag(B/D) Lambda_Z vhat(p))^-1; raises
    :class:`SingularTMatrixError` above condition number :data:`COND_LIMIT`."""
    n = params.n_channels
    m = np.eye(n, dtype=complex) + (
        bubble_over_d(p0, p1, params.v)[:, None]
        * _coupling_weighted(params.z, params.lam)
        * form_factor(p0, p1)
    )
    if np.linalg.cond(m) > COND_LIMIT:
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


def discontinuity_matrix(params: LuttingerParams):
    """Order-of-limits discontinuity of the density-density correlation.

    Closed form (1 + k Lz)^-1 (1 - k Lz)^-1 (2 pi |v|)^-1 Z^-2 with
    k = (4 pi |v|)^-1.  The independent route is the difference of the
    directional limits of :func:`density_density_directional_numeric`,
    ``p0_first`` minus ``p1_first``; the tests compare the two.
    """
    right = 1.0 / (2.0 * np.pi * np.abs(params.v) * params.z**2)
    # the diagonal right factor is a column scaling, bitwise the matmul
    return (t_limit_static(params) @ t_limit_dynamic(params)) * right[..., None, :]


def vertex_renormalizations(params: LuttingerParams):
    """Density and current vertex couplings (Z0, Z1) of the lattice-facing
    description, in expanded form: Z0 = (1 - Lambda_Z^T kappa) Z and
    Z1 = (1 + Lambda_Z^T kappa) (v * Z).

    The independent route is the solved form, T_dynamic^T Z0 = Z and
    T_static^T Z1 = v * Z with :func:`t_limit_dynamic` and
    :func:`t_limit_static`; the tests compare the two.
    """
    lzk = np.swapaxes(_kappa_coupling(params.v, params.z, params.lam), -1, -2)
    n = params.n_channels
    z0 = _matvec(np.eye(n) - lzk, params.z)
    z1 = _matvec(np.eye(n) + lzk, params.v * params.z)
    return z0, z1


def edge_conductance(params: LuttingerParams):
    """Conductance Z0 . (A Z1); equals sum_w sgn(v_w) / (2 pi) identically.

    One value per stacked parameter set (a float for one set)."""
    z0, z1 = vertex_renormalizations(params)
    az1 = _matvec(discontinuity_matrix(params), z1)
    return (z0[..., None, :] @ az1[..., None])[..., 0, 0]


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


RADIUS_CAP = 0.8  # admissibility radius of the random couplings
ENSEMBLE_BLOCK = 256  # draws per block of an ensemble (ref-check)
_SIGNS = np.array([-1.0, 1.0])


def _draw_groups(rng, size, n_channels, lambda_scale):
    """The draw code of :func:`random_block`: ``(index, v, z, lam, rescaled)``
    per channel count, the arrays admissible but not yet validated."""
    if n_channels is None:
        counts = rng.integers(1, 5, size)
    else:
        counts = np.full(size, n_channels)
    groups = []
    for n in sorted(set(counts.tolist())):  # not np.unique, which imports numpy.ma (1 MB of RSS)
        index = np.flatnonzero(counts == n)
        shape = (index.size, n)
        v = rng.uniform(0.5, 2.0, shape) * _SIGNS[rng.integers(0, 2, shape)]
        z = rng.uniform(0.5, 2.0, shape)
        lam = rng.normal(0.0, lambda_scale, shape + (n,))
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
    :data:`RADIUS_CAP`.  The generator is read by variate: one call for
    the ``size`` channel counts (none when ``n_channels`` is given), then,
    for each channel count in ascending order, one call each for the
    velocity magnitudes, their signs, the field strengths and the couplings
    of its draws.  A block of one reads it as :func:`random_params` does.
    The symmetrization, the radius, the rescaling and the validation run
    once per channel count on the stack of its draws, bitwise as they
    would per draw.

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
