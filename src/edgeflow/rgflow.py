"""Truncated renormalization-group flow of the multi-channel chiral model.

The flow iterates the wave-function strengths, velocities and quartic
couplings over dyadic momentum scales with a second-order (one-loop)
beta function:

* the self-energy correction is the mixed-channel sunset with a
  closed-form inner pair bubble and the outer line restricted to the
  running shell; its derivatives at zero momentum give the per-scale
  increments z0 (anomalous field strength) and z1 (velocity shift).
  The sunset is integrated over the outer line's momentum q = k + p, so
  the shell propagator is evaluated once per scale and channel, and only
  the inner lines move with the external momentum k;
* every second-order contribution to the local quartic coupling carries
  either a coincident same-chirality pair bubble (zero by the angular
  symmetry of 1/D^2) or a pair of mixed-chirality routings that cancel
  pointwise, so the quartic beta function vanishes at this order; the
  evaluator computes the bubbles by quadrature and reports the noise.

Grid backends evaluate the same diagrams as plain momentum sums on a
finite antiperiodic grid, for direct comparison against the exhaustive
Wick-contraction oracle used in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import shell
from .quadrature import polar_nodes
from .reference import LuttingerParams, antiperiodic_grid, bubble_over_d, chiral_denominator, form_factor

__all__ = [
    "FlowState",
    "BetaEvaluation",
    "FlowTrajectory",
    "FlowDivergenceError",
    "single_scale_propagator",
    "beta_second_order",
    "flow_run",
    "vanishing_beta_report",
    "grid_propagator_table",
    "sunset_grid",
    "chain_bubble_grid",
    "mixed_bubbles_grid",
    "fourpoint_grid",
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
    beta_lambda: np.ndarray
    beta_v: np.ndarray
    shell_bubbles: dict = field(default_factory=dict)

    @property
    def beta_lambda_max(self):
        return float(np.max(np.abs(self.beta_lambda))) if self.beta_lambda.size else 0.0


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


def _sunset_kernel(k0, k1, state, params, channel, grid, outer):
    """W(k) = sum_{w'} lam^2 int v^2(p) [B/D]_{w'}(p) g_h(k+p) dp, with g_h the
    :func:`single_scale_propagator` at unit field strength, taken in the
    outer line's frame q = k + p: the integral runs over the shell of q,
    with the inner lines at p = q - k.

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
    total = np.zeros((), dtype=complex)
    for other in range(params.n_channels):
        lam = state.lam[channel, other]
        if lam == 0.0:
            continue
        inner = bubble_over_d(p0, p1, state.v[other]) * vhat2
        total = total + lam**2 * np.dot(outer, inner)
    return total / (4.0 * np.pi**2 * abs(vb))


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
    The quartic beta function is assembled from the three one-loop bubble
    structures; the same-chirality ones vanish by angular symmetry and
    the two mixed-chirality routings cancel pointwise, which the
    evaluator verifies by explicit quadrature.
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

    same, mixed = _quartic_bubbles(state, params, level=level)
    beta_lam = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            chain = sum(
                state.lam[a, c] * state.lam[c, b] * same[c] for c in range(n)
            )
            cross = state.lam[a, b] ** 2 * mixed[a, b]
            beta_lam[a, b] = float(np.real(chain + cross))
    beta_v = (state.v + z1) / (1.0 + z0) - state.v
    return BetaEvaluation(
        h=h,
        z0=z0,
        z1=z1,
        beta_lambda=beta_lam,
        beta_v=beta_v,
        shell_bubbles={"same_chirality": same, "mixed_cancellation": mixed},
    )


def _quartic_bubbles(state, params, level=4):
    """Shell values of the one-loop quartic structures.

    ``same[c]``: coincident pair bubble int f_h w / D_c^2 (zero by angular
    symmetry).  ``mixed[a, b]``: sum of the particle-hole and
    particle-particle routings int f_h w [1/(D_a D_b) + 1/(D_a(q) D_b(-q))]
    which cancel pointwise since D is odd.
    """
    n = params.n_channels
    h = state.h
    knots = [2.0 ** (h - 1), 2.0**h, 2.0 ** (h + 1)]
    # one grid per scale; channel c integrates over q = (u0, u1 / v_c)
    u0, u1, w = polar_nodes(knots, level, 4 * level, gl=4)
    f_h = shell(np.hypot(u0, u1), h, h - 60)
    q1 = [u1 / vb for vb in params.v]
    d = [chiral_denominator(u0, q1[c], state.v[c]) for c in range(n)]
    vhat2 = [form_factor(u0, q1[c]) ** 2 for c in range(n)]
    norm = [4.0 * np.pi**2 * abs(vb) for vb in params.v]
    same = np.array([np.dot(w, f_h / d[c] ** 2) / norm[c] for c in range(n)], dtype=complex)
    mixed = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            db = chiral_denominator(u0, q1[a], state.v[b])
            db_neg = chiral_denominator(-u0, -q1[a], state.v[b])
            ph = vhat2[a] * f_h / (d[a] * db)
            pp = vhat2[a] * f_h / (d[a] * db_neg)
            mixed[a, b] = np.dot(w, ph + pp) / norm[a]
    return same, mixed


BIG_C = 2.0  # containment constant of the running velocities and couplings


def flow_run(params: LuttingerParams, h_min, c_bound=1.0):
    """Iterate the truncated flow from scale 0 down to ``h_min``.

    Containment bounds per step: |Z_h/Z_{h-1}| <= exp(c_bound |lam|),
    |v_h - v_0| <= BIG_C |lam|, |lam_h| <= BIG_C |lam|; a breach raises
    :class:`FlowDivergenceError` naming the scale.
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
        lam_new = state.lam + ev.beta_lambda
        nxt = FlowState(h=h - 1, z=z_new, v=v_new, lam=lam_new)
        ratio = np.abs(state.z / nxt.z)
        ratio = np.max(np.maximum(ratio, 1.0 / ratio))
        if ratio > np.exp(c_bound * lam_scale):
            raise FlowDivergenceError(f"field-strength ratio breached at h={h-1}", h - 1)
        if np.max(np.abs(nxt.v - params.v)) > BIG_C * lam_scale:
            raise FlowDivergenceError(f"velocity drift breached at h={h-1}", h - 1)
        if np.max(np.abs(nxt.lam)) > BIG_C * max(lam_scale, 1e-300):
            raise FlowDivergenceError(f"coupling growth breached at h={h-1}", h - 1)
        states.append(nxt)
        betas.append(ev)
    return FlowTrajectory(params=params, states=states, betas=betas)


def vanishing_beta_report(traj: FlowTrajectory):
    """Fit the scale decay of the quartic and velocity beta functions.

    Returns a dict with the fitted anomalous exponent per channel
    (eta = log2 of the per-step field-strength ratio), the fitted decay
    exponent theta of |beta_lambda| over the scales where it exceeds the
    quadrature noise floor 1e-9 (or the flag that it sits at or below the
    floor at every scale), and max |beta_v| per scale.
    """
    if len(traj.betas) < 10:
        raise ValueError("need at least 10 scales")
    hs, zs, vs, lams = traj.arrays()
    log_z = np.log2(zs)
    eta = np.array(
        [np.polyfit(hs, log_z[:, c], 1)[0] for c in range(zs.shape[1])]
    )
    eta = -eta  # Z grows toward the infrared: Z_h ~ 2^(-eta h), eta > 0
    bl = np.array([b.beta_lambda_max for b in traj.betas])
    report = {
        "eta": eta,
        "beta_lambda_max_per_scale": bl,
        "beta_v_max_per_scale": np.array([np.max(np.abs(b.beta_v)) for b in traj.betas]),
    }
    if np.all(bl <= 1e-9):
        report["theta"] = None
        report["vanishing"] = "below quadrature tolerance at all scales"
    else:
        mask = bl > 1e-9
        h_mid = np.array([b.h for b in traj.betas])
        slope = np.polyfit(h_mid[mask], np.log2(bl[mask]), 1)[0]
        report["theta"] = float(slope)
        report["vanishing"] = "fitted"
    return report


# ---------------------------------------------------------------------------
# Grid backends (shared-grid comparison against the Wick oracle)
# ---------------------------------------------------------------------------


def grid_propagator_table(cells, box, v, z):
    """Odd lattice propagator table g[i, j] = 1 / (z D_lat(k_i, k_j))."""
    a = box / cells
    ks = antiperiodic_grid(cells, box)
    s0 = np.sin(a * ks)[:, None] / a
    s1 = np.sin(a * ks)[None, :] / a
    return 1.0 / (z * (-1j * s0 + v * s1))


def _roll_table(table, i_shift, j_shift):
    # momentum shifts act as index rolls: k + p is periodic on the grid
    return np.roll(np.roll(table, -i_shift, axis=0), -j_shift, axis=1)


def chain_bubble_grid(g_table, p_idx):
    """(1/L^2-normalized) pair bubble  mean_q g(q) g(q+p)  on the grid."""
    return np.mean(g_table * _roll_table(g_table, *p_idx))


def sunset_grid(k_idx, channel, lam, tables):
    """Second-order self-energy at grid momentum index ``k_idx``.

    Sigma_w(k) = -sum_w' lam^2 Z_w^2 Z_w'^2 mean_p g_w(k+p) Pi_w'(p)
    with Pi the pair bubble; the couplings include the field strengths.
    Returns Sigma such that the connected two-point correction is
    g Sigma g (this normalization is what the Wick oracle tests).
    """
    n = len(tables["g"])
    cells = tables["g"][0].shape[0]
    zs = tables["z"]
    total = np.zeros((), dtype=complex)
    for other in range(n):
        cc = lam[channel, other]
        if cc == 0.0:
            continue
        acc = 0.0 + 0.0j
        g_out = tables["g"][channel]
        g_in = tables["g"][other]
        for pi in range(cells):
            for pj in range(cells):
                bubble = np.mean(g_in * _roll_table(g_in, pi, pj))
                acc += g_out[(k_idx[0] + pi) % cells, (k_idx[1] + pj) % cells] * bubble
        total = total + cc**2 * zs[channel] ** 2 * zs[other] ** 2 * acc / cells**2
    return -total


def mixed_bubbles_grid(g_table_a, g_table_b):
    """Pointwise-cancelling pair of mixed-chirality bubbles at zero transfer:
    (ph, pp) = (mean_q g_a g_b, mean_q g_a(q) g_b(-q)); their sum is zero
    because the propagators are odd (g(-q) = -g(q) on the grid)."""
    ph = np.mean(g_table_a * g_table_b)
    pp = np.mean(g_table_a * (-g_table_b))
    return ph, pp


def fourpoint_grid(k_idx, q_idx, kp_idx, ch_a, ch_b, lam, tables):
    """One-loop connected four-point function on the grid.

    External legs (psi+_{k,a}, psi-_{q,a}, psi+_{k',b}, psi-_{q',b}) with
    q' = k - q + k'.  Three loop structures with coefficients pinned by
    the Wick oracle: the channel chain carries -1, the two mixed-chirality
    routings +1 each (their local parts cancel pointwise).
    """
    g = tables["g"]
    zs = tables["z"]
    cells = g[0].shape[0]
    qp_idx = (
        (k_idx[0] - q_idx[0] + kp_idx[0]) % cells,
        (k_idx[1] - q_idx[1] + kp_idx[1]) % cells,
    )
    legs = g[ch_a][k_idx] * g[ch_a][q_idx] * g[ch_b][kp_idx] * g[ch_b][qp_idx]
    p0g, p1g = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")

    def at(table, base, sign):
        return table[(base[0] + sign * p0g) % cells, (base[1] + sign * p1g) % cells]

    chain = 0.0 + 0.0j
    transfer = ((k_idx[0] - q_idx[0]) % cells, (k_idx[1] - q_idx[1]) % cells)
    for c in range(len(g)):
        cc = lam[ch_a, c] * lam[c, ch_b]
        if cc == 0.0:
            continue
        chain += -cc * zs[ch_a] * zs[ch_b] * zs[c] ** 2 * chain_bubble_grid(g[c], transfer)
    loop_a = np.mean(at(g[ch_a], q_idx, +1) * at(g[ch_b], qp_idx, -1))
    loop_b = np.mean(at(g[ch_a], q_idx, +1) * at(g[ch_b], kp_idx, +1))
    mixed = lam[ch_a, ch_b] ** 2 * (zs[ch_a] * zs[ch_b]) ** 2 * (loop_a + loop_b)
    return legs * (chain + mixed)
