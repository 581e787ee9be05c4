"""Truncated renormalization-group flow of the multi-channel chiral model.

The flow iterates the wave-function strengths and velocities over dyadic
momentum scales with a second-order (one-loop) beta function:

* the self-energy correction is the mixed-channel sunset (:func:`sunset`)
  with a closed-form inner pair bubble and the outer line restricted to
  the running shell; its derivatives at zero momentum give the per-scale
  increments z0 (anomalous field strength) and z1 (velocity shift).
  The sunset kernel W(k) is odd in k: the outer line is odd, the inner
  pair bubble and the form factor are even, and the polar grid of the
  outer momentum q = k + p maps onto itself under q -> -q (its number of
  angular cells is even).  So each derivative is one kernel call,
  W(delta) / delta, not a difference of two;
* each scale is evaluated in units of 2^h: the grid at scale h is 2^h
  times the grid at scale 0 and its weights 4^h times, which is exact in
  floating point, so the shell on it is bitwise the scale-0 shell.  The
  grid, each channel's shell and, per coupled channel and difference
  point, the table of inner momenta p = q - k and their largest radius
  are built once per flow; only the running denominators and the inner
  pair bubbles (``reference.bubble_over_d``, in real arithmetic) are
  evaluated per scale.  The form factor is not scale invariant: it is
  taken at the true momenta 2^h p, and left out at the scales where the
  table's largest radius puts every node on its plateau, where it is
  exactly 1.  On the plateau the beta function does not see h, and it
  reads neither Z nor the couplings, which do not run: it is a function
  of the running velocities alone, so the flow evaluates it once per
  distinct velocity vector there and reuses that evaluation while the
  velocities stay bitwise equal;
* the quartic couplings do not run at this order: every one-loop
  contribution to the local quartic coupling carries either a coincident
  same-chirality pair bubble, zero by the angular symmetry of 1/D^2
  (``reference.same_chirality_bubble`` checks it by quadrature; its test
  control integrates one quadrant, where the cancellation fails), or a
  pair of mixed-chirality routings that cancel pointwise because D is odd.
  So the couplings are ``params.lam`` at every scale.

:func:`sunset` takes its measure from the caller, so the Wick-oracle
tests evaluate the same function on a finite antiperiodic grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import shell
from .quadrature import polar_nodes
from .reference import P_C, LuttingerParams, bubble_over_d, form_factor

__all__ = [
    "FlowTrajectory",
    "FlowDivergenceError",
    "single_scale_propagator",
    "sunset",
    "beta_second_order",
    "flow_run",
    "vanishing_beta_report",
]


class FlowDivergenceError(RuntimeError):
    """A running coupling left its admissibility region."""

    stage = "flow_containment"

    def __init__(self, message, scale):
        super().__init__(message)
        self.scale = scale


def single_scale_propagator(k0, k1, h, v_bare, v_run, z_run):
    """Shell-restricted propagator f_h(|k|_v) / (z (-i k0 + v_run k1)).

    The shell (window from scale h - 60) is cut in the bare-velocity norm; the
    denominator carries the running velocity, matching the dressed
    covariance of the flow.  Exactly zero outside the shell (the origin
    included, where D vanishes).
    """
    return _shell_over_d(_bare_shell(k0, k1, h, v_bare), k0, k1, v_run, z_run)


def _bare_shell(k0, k1, h, v_bare):
    """The shell f_h of :func:`single_scale_propagator` at (k0, k1)."""
    return shell(np.hypot(k0, v_bare * k1), h, h - 60)


def _shell_over_d(f, k0, k1, v_run, z_run):
    """f / (z (-i k0 + v_run k1)), exactly zero where the shell f is, in
    real arithmetic: ``f (a + i k0) / (z (a^2 + k0^2))`` with ``a = v_run k1``,
    for momenta within about 1e+-150, where the squares stay in range."""
    a = v_run * np.asarray(k1)
    scale = np.zeros(np.broadcast(f, a, k0, z_run).shape)
    np.divide(f, z_run * (a * a + k0 * k0), out=scale, where=f != 0.0)
    out = np.empty(scale.shape, dtype=complex)
    np.multiply(scale, a, out=out.real)
    np.multiply(scale, k0, out=out.imag)
    if out.shape == ():
        return complex(out)
    return out


@dataclass
class FlowTrajectory:
    """The running field strengths ``z`` and velocities ``v``, one row per
    scale ``h`` from 0 down to ``h_min``, and the ``(z0, z1)`` increments
    of :func:`beta_second_order` that took each scale to the next.

    The couplings are not carried: they do not run at this order.  No
    local quadratic coupling is carried either: with exactly linear
    dispersion the tadpole vanishes by parity at every order computed here.
    """

    h: np.ndarray
    z: np.ndarray
    v: np.ndarray
    betas: list


def sunset(outer, lam_row, pair_bubble):
    """Second-order self-energy Sigma_w(k) = -sum_w' lam_ww'^2 <outer, Pi_w'>.

    ``outer`` is the outer line g_w(q) times the measure's weights, and
    ``pair_bubble(w')`` the pair bubble Pi_w'(p) of channel w' at the
    inner momentum p = q - k on the same nodes; ``<., .>`` is their plain
    sum of products.  Zero couplings are skipped without evaluating their
    bubble.  The connected two-point correction is g_w Sigma_w g_w.
    """
    total = np.zeros((), dtype=complex)
    for other, lam in enumerate(lam_row):
        if lam == 0.0:
            continue
        total = total + lam**2 * np.dot(outer, pair_bubble(other))
    return -total


STEP = 0.125  # difference step 2^(h-3) of the beta function, in units of 2^h


def _unit_grid(params, level=4):
    """The scale-0 polar grid ``(du0, du1, w)`` of the outer momentum q,
    each channel's shell f_0 on it, and each coupled channel's inner
    tables, as ``(grid, shells, tables)``.

    The grid is taken in the bare-norm rescaled coordinates around the
    origin, aligned with the shell knots 1/2, 1, 2, with ``8 level``
    angular cells (an even number, so it maps onto itself under q -> -q).
    The grid at scale h is 2^h times this one and its weights are 4^h
    times these; scaling by a power of two is exact, so f_h on the scaled
    grid is bitwise f_0 on this one.  ``tables[c]`` holds the
    :func:`_inner_table` of channel c at the two difference points
    (STEP, 0) and (0, STEP), and is None for a channel that ``params``
    does not couple.
    """
    grid = du0, du1, _ = polar_nodes([0.5, 1.0, 2.0], level, 8 * level, gl=4)
    shells = [_bare_shell(du0, du1 / vb, 0, vb) for vb in params.v]
    tables = [
        (_inner_table(grid, vb, STEP, 0.0), _inner_table(grid, vb, 0.0, STEP))
        if np.any(params.lam[c] != 0.0)
        else None
        for c, vb in enumerate(params.v)
    ]
    return grid, shells, tables


def _inner_table(grid, vb, k0, k1):
    """The inner momenta ``(p0, p1)`` at p = q - k on the scale-0 ``grid``
    of a channel of bare velocity ``vb``, and their largest radius r_max.

    The nodes ``p = q - k`` round exactly as the nodes of a polar grid
    built around ``-k``.  They do not depend on the scale, so the flow
    builds them once, at its two difference points.
    """
    du0, du1, _ = grid
    p0 = du0 - k0
    p1 = (du1 - vb * k1) / vb
    return p0, p1, float(np.max(np.hypot(p0, p1)))


def _sunset_kernel(table, h, v, params, channel, outer):
    """2^-h W(2^h k) at scale h and running velocities ``v``: the kernel
    W(k) = Sigma(k) per unit Z in units of 2^h, with ``k`` in those units,
    and the couplings of ``params``.

    W is the :func:`sunset` on the scale's polar grid with the measure
    d^2q / (2 pi)^2 (the rescaled coordinates add the factor 1 / |v|).
    The outer line is the :func:`single_scale_propagator` at unit field
    strength, taken in the outer line's frame q = k + p: the integral runs
    over the shell of q, with the inner lines at p = q - k.  The inner pair
    bubble is the regularized one, -v^2(p) [B/D](p) (``bubble_regularized``
    is -D(p) times it).

    ``table`` is the :func:`_inner_table` of the channel at k, and
    ``outer`` is ``w * g_0(q)`` on the scale-0 grid with the running
    velocity, the same for every k.  Every factor but the form factor is
    homogeneous in the scale, so the kernel is exactly 2^h times its value
    on this grid.  The form factor is not, and belongs to the true momenta
    2^h p: where 2^h r_max <= P_C every node is on its plateau, where it
    is exactly 1, so it is left out; elsewhere it is taken at 2^h p.  W
    is odd in k on this grid, up to the rounding of its inversion
    symmetry.
    """
    p0, p1, r_max = table
    scale = 2.0**h
    if scale * r_max <= P_C:
        vhat2 = 1.0  # the plateau: bitwise the ones form_factor returns there
    else:
        vhat2 = form_factor(scale * p0, scale * p1) ** 2

    def pair_bubble(other):
        return -vhat2 * bubble_over_d(p0, p1, v[other])

    vb = params.v[channel]
    return sunset(outer, params.lam[channel], pair_bubble) / (4.0 * np.pi**2 * abs(vb))


def beta_second_order(h, v, params: LuttingerParams, unit):
    """One-loop increments ``(z0, z1)`` at scale h and running velocities
    ``v``, with the bare velocities and the couplings of ``params``, on the
    scale-0 grid, shells and inner tables ``unit`` of :func:`_unit_grid`.

    z0, z1 come from symmetric differences (step 2^(h-3)) of the sunset
    kernel; the dressed covariance gives Z_eff = Z - i dSigma/dk0, so
    z0 = -i dW/dk0 and z1 = -dW/dk1 with W the kernel per unit Z.  W is
    odd in k, so each symmetric difference is W(delta) / delta: one kernel
    call per derivative, two per channel.  The kernel is integrated over
    the outer line's momentum q = k + p, whose shell does not move with
    k: the outer line is evaluated once per scale and channel from the
    channel's scale-0 shell and the running velocity, and only the inner
    lines are evaluated again, at the tabulated p = q - k of each k.
    A channel with no table in ``unit`` is uncoupled.  Everything is
    evaluated in units of 2^h, which the ratio W / delta does not see.
    The quartic beta function is zero at this order (the same-chirality
    bubbles vanish by angular symmetry, the mixed-chirality routings
    cancel pointwise), so nothing is evaluated for it.
    """
    n = params.n_channels
    grid, shells, tables = unit
    du0, du1, w = grid
    z0 = np.zeros(n)
    z1 = np.zeros(n)
    for c, pair in enumerate(tables):
        if pair is None:
            continue
        vb = params.v[c]
        outer = w * _shell_over_d(shells[c], du0, du1 / vb, v[c], 1.0)
        at_k0, at_k1 = pair
        w0 = _sunset_kernel(at_k0, h, v, params, c, outer)
        w1 = _sunset_kernel(at_k1, h, v, params, c, outer)
        z0[c] = float(np.real(-1j * w0 / STEP))
        z1[c] = float(np.real(-w1 / STEP))
    return z0, z1


BIG_C = 2.0  # containment constant of the running velocities
C_Z = 1.0  # containment constant of the field-strength ratio per step


def _on_plateau(unit, h):
    """Whether at scale h every inner table of ``unit`` lies on the form
    factor's plateau, where :func:`_sunset_kernel` leaves it out."""
    return all(2.0**h * r_max <= P_C for pair in unit[2] if pair is not None for _, _, r_max in pair)


def flow_run(params: LuttingerParams, h_min):
    """Iterate the truncated flow from scale 0 down to ``h_min``.

    Containment bounds per step: |Z_h/Z_{h-1}| <= exp(C_Z |lam|) and
    |v_h - v_0| <= BIG_C |lam|; a breach raises
    :class:`FlowDivergenceError` naming the scale.  Only ``z`` and ``v``
    run: the couplings are ``params.lam`` at every scale (their beta
    function vanishes at this order).  The scale-0 grid, shells and inner
    tables of :func:`_unit_grid` are built once and serve every scale.

    A scale reuses the previous scale's ``(z0, z1)`` when its running
    velocities are bitwise those of the previous scale and every inner
    table is on the plateau at the previous scale, so at this lower one
    too: there the evaluation depends on the velocities alone, so it would
    come out bitwise the same.  A symmetric counter-propagating pair, whose
    velocities do not move, makes one evaluation per flow; ``betas`` then
    holds that one object once per scale.
    """
    lam_scale = max(float(np.max(np.abs(params.lam))), 1e-300)
    unit = _unit_grid(params)
    zs, vs, betas = [params.z], [params.v], []
    for h in range(0, h_min, -1):
        z, v = zs[-1], vs[-1]
        if not (betas and np.array_equal(v, vs[-2]) and _on_plateau(unit, h + 1)):
            beta = beta_second_order(h, v, params, unit)
        z0, z1 = beta
        z_new = z * (1.0 + z0)
        v_new = (v + z1) / (1.0 + z0)
        ratio = np.abs(z / z_new)
        ratio = np.max(np.maximum(ratio, 1.0 / ratio))
        if ratio > np.exp(C_Z * lam_scale):
            raise FlowDivergenceError(f"field-strength ratio breached at h={h-1}", h - 1)
        if np.max(np.abs(v_new - params.v)) > BIG_C * lam_scale:
            raise FlowDivergenceError(f"velocity drift breached at h={h-1}", h - 1)
        zs.append(z_new)
        vs.append(v_new)
        betas.append(beta)
    return FlowTrajectory(h=-np.arange(len(zs)), z=np.array(zs), v=np.array(vs), betas=betas)


def vanishing_beta_report(traj: FlowTrajectory):
    """Fit the anomalous exponents.

    Returns a dict with the fitted anomalous exponent per channel
    (eta = log2 of the per-step field-strength ratio).
    """
    if len(traj.betas) < 10:
        raise ValueError("need at least 10 scales")
    log_z = np.log2(traj.z)
    eta = np.array(
        [np.polyfit(traj.h, log_z[:, c], 1)[0] for c in range(traj.z.shape[1])]
    )
    eta = -eta  # Z grows toward the infrared: Z_h ~ 2^(-eta h), eta > 0
    return {"eta": eta}
