"""Truncated renormalization-group flow of the multi-channel chiral model.

The flow iterates the wave-function strengths and velocities over dyadic
momentum scales with a second-order (one-loop) beta function:

* the self-energy correction is the mixed-channel sunset (:func:`sunset`)
  with a closed-form inner pair bubble and the outer line restricted to
  the running shell; its derivatives at zero momentum give the per-scale
  increments z0 (anomalous field strength) and z1 (velocity shift).
  The sunset is integrated over the outer line's momentum q = k + p, so
  the shell propagator is evaluated once per scale and channel, and only
  the inner lines move with the external momentum k;
* the quartic couplings do not run at this order: every one-loop
  contribution to the local quartic coupling carries either a coincident
  same-chirality pair bubble, zero by the angular symmetry of 1/D^2
  (``reference.same_chirality_bubble`` checks it by quadrature, with a
  control that breaks it), or a pair of mixed-chirality routings that
  cancel pointwise because D is odd.  The flow carries lambda unchanged.

:func:`sunset` takes its measure from the caller, so the Wick-oracle
tests evaluate the same function on a finite antiperiodic grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import shell
from .quadrature import polar_nodes
from .reference import LuttingerParams, bubble_over_d, chiral_denominator, form_factor

__all__ = [
    "FlowState",
    "BetaEvaluation",
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
    r = np.hypot(k0, v_bare * k1)
    f = shell(r, h, h - 60)
    d = z_run * chiral_denominator(k0, k1, v_run)
    out = np.zeros(np.broadcast(f, d).shape, dtype=complex)
    np.divide(f, d, out=out, where=f != 0.0)
    if out.shape == ():
        return complex(out)
    return out


@dataclass
class FlowState:
    """Running parameters at one scale.

    No local quadratic coupling is carried: with exactly linear dispersion
    the tadpole vanishes by parity at every order computed here.
    """

    h: int
    z: np.ndarray
    v: np.ndarray
    lam: np.ndarray

    @classmethod
    def initial(cls, params: LuttingerParams):
        return cls(h=0, z=params.z.copy(), v=params.v.copy(), lam=params.lam.copy())


@dataclass
class BetaEvaluation:
    h: int
    z0: np.ndarray
    z1: np.ndarray
    beta_v: np.ndarray


@dataclass
class FlowTrajectory:
    params: LuttingerParams
    states: list
    betas: list

    def arrays(self):
        hs = np.array([s.h for s in self.states])
        zs = np.array([s.z for s in self.states])
        vs = np.array([s.v for s in self.states])
        lams = np.array([s.lam for s in self.states])
        return hs, zs, vs, lams


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


def _sunset_kernel(k0, k1, state, params, channel, grid, outer):
    """W(k) = Sigma(k) per unit Z: the :func:`sunset` on the scale's polar
    grid with the measure d^2q / (2 pi)^2 (the rescaled coordinates add the
    factor 1 / |v|).  The outer line is the :func:`single_scale_propagator`
    at unit field strength, taken in the outer line's frame q = k + p: the
    integral runs over the shell of q, with the inner lines at p = q - k.
    The inner pair bubble is the regularized one, -v^2(p) [B/D](p)
    (``bubble_regularized`` is -D(p) times it).

    ``grid`` is the scale's polar grid ``(du0, du1, w)`` of q around the
    origin in the bare-norm rescaled coordinates, aligned with the shell
    knots, and ``outer`` is ``w * g_h(q)`` on it, which is the same for
    every k.  The inner nodes ``p = q - k`` round exactly as the nodes of
    a polar grid built around ``-k``.
    """
    du0, du1, _ = grid
    vb = params.v[channel]
    p0 = du0 - k0
    p1 = (du1 - vb * k1) / vb
    vhat2 = form_factor(p0, p1) ** 2

    def pair_bubble(other):
        return -vhat2 * bubble_over_d(p0, p1, state.v[other])

    return sunset(outer, state.lam[channel], pair_bubble) / (4.0 * np.pi**2 * abs(vb))


def beta_second_order(state: FlowState, params: LuttingerParams, level=4):
    """One-loop increments at the current scale.

    z0, z1 come from symmetric differences (step 2^(h-3)) of the sunset
    kernel; the dressed covariance gives Z_eff = Z - i dSigma/dk0, so
    z0 = -i dW/dk0 and z1 = -dW/dk1 with W the kernel per unit Z.  The
    kernel is integrated over the outer line's momentum q = k + p, whose
    shell does not move with the stencil point k: the polar grid of q is
    built once per scale, the shell propagator on it once per scale and
    channel, and only the inner lines are evaluated again at p = q - k
    for each stencil point.
    The quartic beta function is zero at this order (the same-chirality
    bubbles vanish by angular symmetry, the mixed-chirality routings
    cancel pointwise), so nothing is evaluated for it.
    """
    n = params.n_channels
    h = state.h
    delta = 2.0 ** (h - 3)
    knots = [2.0 ** (h - 1), 2.0**h, 2.0 ** (h + 1)]
    grid = du0, du1, w = polar_nodes(knots, level, 8 * level, gl=4)
    z0 = np.zeros(n)
    z1 = np.zeros(n)
    for c in range(n):
        if np.all(state.lam[c] == 0.0):
            continue
        vb = params.v[c]
        outer = w * single_scale_propagator(du0, du1 / vb, h, vb, state.v[c], 1.0)
        w_p0 = _sunset_kernel(+delta, 0.0, state, params, c, grid, outer)
        w_m0 = _sunset_kernel(-delta, 0.0, state, params, c, grid, outer)
        w_p1 = _sunset_kernel(0.0, +delta, state, params, c, grid, outer)
        w_m1 = _sunset_kernel(0.0, -delta, state, params, c, grid, outer)
        z0[c] = float(np.real(-1j * (w_p0 - w_m0) / (2.0 * delta)))
        z1[c] = float(np.real(-(w_p1 - w_m1) / (2.0 * delta)))
    beta_v = (state.v + z1) / (1.0 + z0) - state.v
    return BetaEvaluation(h=h, z0=z0, z1=z1, beta_v=beta_v)


BIG_C = 2.0  # containment constant of the running velocities
C_Z = 1.0  # containment constant of the field-strength ratio per step


def flow_run(params: LuttingerParams, h_min):
    """Iterate the truncated flow from scale 0 down to ``h_min``.

    Containment bounds per step: |Z_h/Z_{h-1}| <= exp(C_Z |lam|) and
    |v_h - v_0| <= BIG_C |lam|; a breach raises
    :class:`FlowDivergenceError` naming the scale.  The quartic couplings
    are carried unchanged (their beta function vanishes at this order).
    """
    lam_scale = max(float(np.max(np.abs(params.lam))), 1e-300)
    state = FlowState.initial(params)
    states = [state]
    betas = []
    for h in range(0, h_min, -1):
        state = states[-1]
        ev = beta_second_order(state, params)
        z_new = state.z * (1.0 + ev.z0)
        v_new = (state.v + ev.z1) / (1.0 + ev.z0)
        nxt = FlowState(h=h - 1, z=z_new, v=v_new, lam=state.lam)
        ratio = np.abs(state.z / nxt.z)
        ratio = np.max(np.maximum(ratio, 1.0 / ratio))
        if ratio > np.exp(C_Z * lam_scale):
            raise FlowDivergenceError(f"field-strength ratio breached at h={h-1}", h - 1)
        if np.max(np.abs(nxt.v - params.v)) > BIG_C * lam_scale:
            raise FlowDivergenceError(f"velocity drift breached at h={h-1}", h - 1)
        states.append(nxt)
        betas.append(ev)
    return FlowTrajectory(params=params, states=states, betas=betas)


def vanishing_beta_report(traj: FlowTrajectory):
    """Fit the anomalous exponents and collect the velocity beta function.

    Returns a dict with the fitted anomalous exponent per channel
    (eta = log2 of the per-step field-strength ratio) and max |beta_v|
    per scale.
    """
    if len(traj.betas) < 10:
        raise ValueError("need at least 10 scales")
    hs, zs, vs, lams = traj.arrays()
    log_z = np.log2(zs)
    eta = np.array(
        [np.polyfit(hs, log_z[:, c], 1)[0] for c in range(zs.shape[1])]
    )
    eta = -eta  # Z grows toward the infrared: Z_h ~ 2^(-eta h), eta > 0
    return {
        "eta": eta,
        "beta_v_max_per_scale": np.array([np.max(np.abs(b.beta_v)) for b in traj.betas]),
    }
