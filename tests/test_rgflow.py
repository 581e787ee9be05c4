import numpy as np
import pytest

from edgeflow import reference, rgflow
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
    ev = rgflow.beta_second_order(state, params, rgflow._unit_grid(params))
    assert np.all(ev.z0 == 0.0) and np.all(ev.z1 == 0.0)


def test_anomalous_increment_matches_analytic_value():
    # helical pair: per-scale z0 equals lam^2 ln 2 / (8 pi^2) once the
    # shell sits inside the form-factor plateau
    lam = 0.05
    params = helical_params(lam)
    state = rgflow.FlowState.initial(params)
    state.h = -4
    ev = rgflow.beta_second_order(state, params, rgflow._unit_grid(params, level=6))
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
    assert np.array_equal(lams, np.broadcast_to(params.lam, lams.shape))
    assert np.max(np.abs(vs - params.v[None, :])) <= lam**0.5
    rep = rgflow.vanishing_beta_report(traj)
    assert np.all(rep["eta"] > 0.0)
    assert np.all(rep["eta"] <= 10.0 * lam**2)
    assert np.all(rep["beta_v_max_per_scale"] <= 1e-8)


@pytest.mark.parametrize(
    "v",
    [
        (1.0, -1.0),
        (1.0, -0.5),
        (2.0, -1.0),
        (1.0, -0.7, 0.4),
        (0.8, -1.2, 1.7),
        (1.3, -0.45, 0.8, -2.0),
    ],
)
def test_fitted_exponents_follow_the_one_loop_law(v):
    # eta_c = sum over opposite-chirality partners o of
    # lam_co^2 / (2 pi^2 (|v_c| + |v_o|)^2); a same-chirality partner adds nothing
    lam = 0.05
    v = np.array(v)
    n = len(v)
    mat = np.full((n, n), lam)
    np.fill_diagonal(mat, 0.0)
    params = LuttingerParams(v=v, z=np.ones(n), lam=mat)
    eta = rgflow.vanishing_beta_report(rgflow.flow_run(params, -30))["eta"]
    opposite = np.sign(v)[:, None] != np.sign(v)[None, :]
    speeds = np.abs(v)[:, None] + np.abs(v)[None, :]
    want = np.sum(opposite * mat**2 / (2.0 * np.pi**2 * speeds**2), axis=1)
    assert np.all(np.abs(eta - want) <= 2e-4 * want)


def test_one_grid_per_flow_and_two_kernel_calls_per_coupled_channel(monkeypatch):
    # the polar grid and each channel's shell are built once per flow, and
    # each coupled channel's inner table once per difference point; each
    # scale makes one beta_second_order call and, the kernel being odd, one
    # kernel call per derivative of each coupled channel.  The form factor
    # is evaluated only off its plateau
    names = ("polar_nodes", "shell", "_inner_table", "_sunset_kernel", "form_factor", "beta_second_order")
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(rgflow, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(rgflow, name, counted)
    # channel 0 is uncoupled: no table and no kernel call, but a shell like
    # every channel
    lam = np.zeros((3, 3))
    lam[1, 2] = lam[2, 1] = 0.05
    params = LuttingerParams(v=[1.0, -0.7, 0.4], z=np.ones(3), lam=lam)
    scales = 12
    rgflow.flow_run(params, -scales)
    assert calls == {
        "polar_nodes": 1,
        "shell": 3,
        "_inner_table": 2 * 2,
        "_sunset_kernel": 2 * 2 * scales,
        # channel v = 0.4 reaches |p1| = 2 / 0.4 + STEP > P_C at h = 0, at
        # both difference points, and 2^-1 (5 + STEP) < P_C from h = -1 on
        "form_factor": 2,
        "beta_second_order": scales,
    }


def coupled(v, lam=0.05):
    n = len(v)
    mat = np.full((n, n), lam)
    np.fill_diagonal(mat, 0.0)
    return LuttingerParams(v=v, z=np.ones(n), lam=mat)


def scale_by_scale(params, h_min):
    """The flow with a fresh beta_second_order at every scale, as
    ``(z, v, beta)`` per step: the oracle of the reusing flow_run."""
    unit = rgflow._unit_grid(params)
    state = rgflow.FlowState.initial(params)
    steps = []
    for h in range(0, h_min, -1):
        ev = rgflow.beta_second_order(state, params, unit)
        state = rgflow.FlowState(
            h=h - 1, z=state.z * (1.0 + ev.z0), v=(state.v + ev.z1) / (1.0 + ev.z0), lam=state.lam
        )
        steps.append((state.z, state.v, ev))
    return steps


@pytest.mark.parametrize(
    "v, evaluations",
    [
        # the symmetric pair: the velocities never move, every scale is on
        # the plateau
        ((1.0, -1.0), 1),
        # the velocities run, so every scale is evaluated
        ((1.0, -0.7, 0.4), 30),
        # off the plateau down to h = -2
        ((0.1, -0.4), 30),
        # off the plateau at h = 0, where the velocities move once
        ((0.5, -0.5), 2),
        # the velocities move by about one ulp per scale
        ((0.7, -0.7), 30),
    ],
    ids=["2ch", "3ch", "slow", "moves-once", "rounding"],
)
def test_the_flow_is_bitwise_the_scale_by_scale_flow(monkeypatch, v, evaluations):
    # flow_run reuses a beta evaluation only where a fresh one would be
    # bitwise the same
    params = coupled(v)
    want = scale_by_scale(params, -30)
    calls = []
    beta = rgflow.beta_second_order
    monkeypatch.setattr(rgflow, "beta_second_order", lambda state, *a: calls.append(state.h) or beta(state, *a))
    traj = rgflow.flow_run(params, -30)
    assert len(calls) == evaluations
    assert len(traj.betas) == len(want) == 30
    for state, ev, (z, v_run, ev_want) in zip(traj.states[1:], traj.betas, want):
        assert state.z.tobytes() == z.tobytes()
        assert state.v.tobytes() == v_run.tobytes()
        for name in ("z0", "z1", "beta_v"):
            assert getattr(ev, name).tobytes() == getattr(ev_want, name).tobytes()


@pytest.mark.parametrize(
    "v, evaluated",
    [
        ((1.0, -1.0), [0]),
        # channel 0.4 is off the plateau at h = 0 only; h = -1 is on it, but
        # its previous scale is not
        ((1.0, -0.7, 0.4), [0, -1]),
        # off the plateau down to h = -2, so h = -3 is evaluated too
        ((0.1, -0.1), [0, -1, -2, -3]),
    ],
    ids=["2ch", "3ch", "slow"],
)
def test_a_scale_is_evaluated_unless_it_and_the_previous_are_on_the_plateau(monkeypatch, v, evaluated):
    # with a beta function that moves nothing the velocities stay bitwise
    # equal, so only the plateau decides which scales are evaluated
    params = coupled(v)
    calls = []

    def still(state, params, unit):
        calls.append(state.h)
        zero = np.zeros(params.n_channels)
        return rgflow.BetaEvaluation(z0=zero, z1=zero, beta_v=zero)

    monkeypatch.setattr(rgflow, "beta_second_order", still)
    rgflow.flow_run(params, -12)
    assert calls == evaluated


@pytest.mark.parametrize(
    "v, off",
    [
        ((1.0, -1.0), []),
        # |p1| reaches 2 / 0.4 + STEP > P_C at h = 0, at both points
        ((1.0, -0.7, 0.4), [(0, 0.4)] * 2),
        # a slow channel, |p| up to 2 / 0.1 + STEP: off the plateau down to
        # h = -2, where a form factor taken at p, not 2^h p, would differ
        ((0.1, -0.4), [(-2, 0.1)] * 2 + [(-1, 0.1)] * 2 + [(0, 0.1)] * 2 + [(0, -0.4)] * 2),
    ],
    ids=["2ch", "3ch", "slow"],
)
def test_the_kernel_takes_the_form_factor_at_the_true_momenta(monkeypatch, v, off):
    # at every scale of a flow, the kernel's pair bubbles are bitwise
    # -form_factor(2^h p)^2 [B/D](p): on the plateau, where the kernel
    # leaves the form factor out, as well as off it (the control: the
    # scales and channels ``off`` where it is not 1 everywhere)
    n = len(v)
    lam = np.full((n, n), 0.05)
    np.fill_diagonal(lam, 0.0)
    params = LuttingerParams(v=v, z=np.ones(n), lam=lam)
    grid, _, tables = rgflow._unit_grid(params)
    seen = []
    sunset = rgflow.sunset

    def capture(outer, lam_row, pair_bubble):
        seen.extend(pair_bubble(o) for o in range(n) if lam_row[o] != 0.0)
        return sunset(outer, lam_row, pair_bubble)

    monkeypatch.setattr(rgflow, "sunset", capture)
    off_plateau = []
    for h in range(-40, 1):
        state = rgflow.FlowState.initial(params)
        state.h = h
        for c, pair in enumerate(tables):
            for table in pair:
                p0, p1, _ = table
                seen.clear()
                rgflow._sunset_kernel(table, state, params, c, grid[2])
                vhat2 = reference.form_factor(2.0**h * p0, 2.0**h * p1) ** 2
                want = [-vhat2 * reference.bubble_over_d(p0, p1, state.v[o]) for o in range(n) if o != c]
                assert len(seen) == len(want) == n - 1
                assert all(got.tobytes() == w.tobytes() for got, w in zip(seen, want))
                if np.any(vhat2 != 1.0):
                    off_plateau.append((h, params.v[c]))
    assert off_plateau == off


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
