import numpy as np
import pytest

from edgeflow import rgflow
from edgeflow.cutoffs import band_cutoff, shell
from edgeflow.reference import LuttingerParams
from grid_diagrams import fourpoint_grid, mixed_bubbles, sunset_grid
from wick_oracle import GridModel, four_point_order, two_point_order


def helical_params(lam=0.05):
    return LuttingerParams(v=[1.0, -1.0], z=[1.0, 1.0], lam=[[0.0, lam], [lam, 0.0]])


# ---------------------------------------------------------------------------
# shells and propagators
# ---------------------------------------------------------------------------


def test_shell_partition_at_random_momenta(rng):
    h_min = -14
    k0 = rng.uniform(-2.0, 2.0, 1000)
    k1 = rng.uniform(-2.0, 2.0, 1000)
    r = np.hypot(k0, 1.3 * k1)
    total = sum(shell(r, j, h_min) for j in range(h_min, 1))
    assert np.max(np.abs(total - band_cutoff(r, h_min, 0))) < 1e-12


def test_single_scale_propagator_support_and_plateau():
    h = -3
    out = rgflow.single_scale_propagator(2.0, 2.0, h, 1.0, 1.0, 1.0)
    assert out == 0.0
    # on the middle of the shell with unit parameters: 1 / (-i k0 + k1)
    k0, k1 = 2.0**h * np.cos(0.4), 2.0**h * np.sin(0.4)
    got = rgflow.single_scale_propagator(k0, k1, h, 1.0, 1.0, 1.0)
    want = 1.0 / (-1j * k0 + k1)
    assert abs(got - want) < 1e-12 * abs(want)


def test_single_scale_propagator_parity(rng):
    h = -2
    k0 = rng.uniform(-1.0, 1.0, 100)
    k1 = rng.uniform(-1.0, 1.0, 100)
    a = rgflow.single_scale_propagator(k0, k1, h, 1.0, 1.0, 1.0)
    b = rgflow.single_scale_propagator(-k0, -k1, h, 1.0, 1.0, 1.0)
    assert np.max(np.abs(a + b)) == 0.0


def test_single_scale_sup_norm_bound():
    # max |g^(h)| <= C 2^-h / Z with one constant across scales
    z = 1.3
    for h in (0, -2, -4):
        r = np.linspace(2.0 ** (h - 1), 2.0 ** (h + 1), 400)
        th = np.linspace(0, 2 * np.pi, 181)
        k0 = r[:, None] * np.cos(th[None, :])
        k1 = r[:, None] * np.sin(th[None, :])
        g = rgflow.single_scale_propagator(k0, k1, h, 1.0, 1.0, z)
        assert np.max(np.abs(g)) <= 2.05 * 2.0 ** (-h) / z


def test_position_space_decay_bound():
    # FFT on a box: |g^(h)(x)| (1 + (2^h |x|)^3) <= C 2^h / Z with a single
    # constant fitted at h = 0 holding across scales
    consts = {}
    for h in (0, -2, -4):
        n_fft = 512
        box = 2.0 ** (-h) * 64.0
        dk = 2.0 * np.pi / box
        ks = dk * (np.arange(n_fft) - n_fft // 2)
        k0, k1 = np.meshgrid(ks, ks, indexing="ij")
        g = rgflow.single_scale_propagator(k0, k1, h, 1.0, 1.0, 1.0)
        gx = np.fft.fft2(np.fft.ifftshift(g)) * dk**2 / (2.0 * np.pi) ** 2
        x = box / n_fft * np.arange(n_fft)
        x = np.minimum(x, box - x)
        x0, x1 = np.meshgrid(x, x, indexing="ij")
        weight = 1.0 + (2.0**h * np.hypot(x0, x1)) ** 3
        consts[h] = np.max(np.abs(gx) * weight) / 2.0**h
    base = consts[0]
    for h in (-2, -4):
        assert consts[h] < 1.5 * base  # stable constant across scales


# ---------------------------------------------------------------------------
# oracle agreement on the shared grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cells", [16])
def test_sunset_matches_wick_oracle(cells):
    box = float(cells)
    lam = np.array([[0.0, 0.1], [0.1, 0.0]])
    vs, zs = [1.0, -1.0], [1.0, 1.0]
    model = GridModel(cells, box, vs, zs, lam)
    for k_idx in [(3, 11), (8, 2)]:
        oracle = two_point_order(model, k_idx, 0, 2)
        pred = model.g[0][k_idx] ** 2 * sunset_grid(model, k_idx, 0)
        assert abs(oracle - pred) <= 1e-6 * max(abs(oracle), 1e-30)


@pytest.mark.parametrize("cells", [16])
def test_fourpoint_matches_wick_oracle(cells):
    box = float(cells)
    lam = np.array([[0.0, 0.15, 0.4], [0.15, 0.0, 0.25], [0.4, 0.25, 0.0]])
    vs, zs = [1.0, -0.7, 1.4], [1.0, 1.3, 0.8]
    model = GridModel(cells, box, vs, zs, lam)
    for (k, q, kp) in [((2, 5), (1, 3), (6, 2)), ((0, 1), (3, 2), (5, 5))]:
        oracle = four_point_order(model, k, q, kp, 0, 1, 2)
        pred = fourpoint_grid(model, k, q, kp, 0, 1)
        assert abs(oracle - pred) <= 1e-6 * max(abs(oracle), 1e-30)


def test_mixed_bubbles_cancel_pointwise():
    ga, gb = GridModel(16, 16.0, [1.0, -0.7], [1.0, 1.3], np.zeros((2, 2))).g
    ph, pp = mixed_bubbles(ga, gb)
    assert abs(ph) > 1e-3  # each routing alone is an honest nonzero bubble
    assert abs(ph + pp) < 1e-15
    # control: an even part in the propagators breaks the cancellation
    ph, pp = mixed_bubbles(ga + 0.05, gb + 0.05)
    assert abs(ph + pp) > 1e-3


# ---------------------------------------------------------------------------
# beta function and flow
# ---------------------------------------------------------------------------


def test_beta_vanishes_without_coupling():
    params = helical_params(lam=0.0)
    state = rgflow.FlowState.initial(params)
    ev = rgflow.beta_second_order(state, params)
    assert np.all(ev.z0 == 0.0) and np.all(ev.z1 == 0.0)


def test_anomalous_increment_matches_analytic_value():
    # helical pair: per-scale z0 equals lam^2 ln 2 / (8 pi^2) once the
    # shell sits inside the form-factor plateau
    lam = 0.05
    params = helical_params(lam)
    state = rgflow.FlowState.initial(params)
    state.h = -4
    ev = rgflow.beta_second_order(state, params, level=6)
    want = lam**2 * np.log(2.0) / (8.0 * np.pi**2)
    assert ev.z0[0] == pytest.approx(want, rel=1e-3)
    assert ev.z0[0] > 0.0


def test_flow_constant_without_coupling():
    params = helical_params(0.0)
    traj = rgflow.flow_run(params, -12)
    hs, zs, vs, lams = traj.arrays()
    assert np.max(np.abs(zs - zs[0])) == 0.0
    assert np.max(np.abs(vs - vs[0])) == 0.0


def test_flow_containment_30_scales():
    lam = 0.05
    params = helical_params(lam)
    traj = rgflow.flow_run(params, -30)
    hs, zs, vs, lams = traj.arrays()
    assert np.max(np.abs(lams - lams[0])) <= lam**1.5
    assert np.max(np.abs(vs - params.v[None, :])) <= lam**0.5
    rep = rgflow.vanishing_beta_report(traj)
    assert np.all(rep["eta"] > 0.0)
    assert np.all(rep["eta"] <= 10.0 * lam**2)
    assert np.all(rep["beta_v_max_per_scale"] <= 1e-8)


def test_flow_divergence_error():
    # slow channels at strong coupling: the field strength outruns its bound
    params = LuttingerParams(v=[0.05, -0.05], z=[1.0, 1.0], lam=[[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(rgflow.FlowDivergenceError, match="field-strength") as exc:
        rgflow.flow_run(params, -10)
    assert exc.value.scale == -4


def test_vanishing_beta_report_needs_scales():
    params = helical_params(0.05)
    traj = rgflow.flow_run(params, -4)
    with pytest.raises(ValueError):
        rgflow.vanishing_beta_report(traj)


def test_vanishing_beta_report_free_trajectory():
    traj = rgflow.flow_run(helical_params(0.0), -12)
    rep = rgflow.vanishing_beta_report(traj)
    assert np.all(rep["eta"] == 0.0)


def test_flow_three_channels_mixed_velocities():
    lam = 0.04
    n = 3
    mat = np.full((n, n), lam)
    np.fill_diagonal(mat, 0.0)
    params = LuttingerParams(v=[0.8, -1.2, 1.7], z=[1.0, 1.1, 0.9], lam=mat)
    traj = rgflow.flow_run(params, -15)
    rep = rgflow.vanishing_beta_report(traj)
    assert np.all(rep["eta"] > 0.0)
    hs, zs, vs, lams = traj.arrays()
    assert np.all(lams == lams[0])
