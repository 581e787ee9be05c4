"""Acceptance suite: one test per headline criterion, each printing a
pass line with the measured numbers at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from edgeflow import cli, lattice, reference, response, rgflow, spectrum
from grid_diagrams import fourpoint_grid, sunset_grid
from wick_oracle import GridModel, four_point_order, two_point_order


def _report(name, ok, detail, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {name}: {status} — {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, detail
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeded {limit}s"


def test_01_universality_identity():
    t0 = time.time()
    rng = np.random.default_rng(42)
    errs = []
    for _ in range(500):
        params = reference.random_params(rng, n_channels=int(rng.integers(1, 5)))
        g = reference.edge_conductance(params)
        target = np.sum(np.sign(params.v)) / (2.0 * np.pi)
        errs.append(abs(2.0 * np.pi * g - np.sum(np.sign(params.v))))
    worst = max(errs)
    _report(
        "1 universality",
        worst <= 1e-9,
        f"max |2piG - sum sgn(v)| = {worst:.2e} over 500 admissible parameter sets",
        t0,
        5.0,
    )


def test_02_anomalous_bubble():
    t0 = time.time()
    exact = 1.0 / (4.0 * np.pi)
    est = reference.bubble_regularized(0.0, 1.0, 1.0, h=-12, n=12, tol=1e-7)
    err_main = abs(est - exact)
    err_n = [
        abs(reference.bubble_regularized(0.0, 1.0, 1.0, h=-14, n=n, tol=1e-9, max_doublings=6) - exact)
        for n in (6, 8, 10)
    ]
    err_h = [
        abs(reference.bubble_regularized(0.0, 1.0, 1.0, h=h, n=14, tol=1e-9, max_doublings=6) - exact)
        for h in (-5, -7, -9)
    ]
    ok = (
        err_main <= 1e-3
        and err_n[0] > err_n[1] > err_n[2]
        and err_h[0] > err_h[1] > err_h[2]
    )
    _report(
        "2 anomalous bubble",
        ok,
        f"|B(-12,12) - 1/4pi| = {err_main:.2e}; ultraviolet errors {err_n[0]:.1e} > "
        f"{err_n[1]:.1e} > {err_n[2]:.1e}; infrared errors {err_h[0]:.1e} > "
        f"{err_h[1]:.1e} > {err_h[2]:.1e}",
        t0,
        60.0,
    )


def test_03_bubble_vanishing_lemma():
    t0 = time.time()
    worst = 0.0
    for h1 in (0, -1, -3):
        for h2 in (0, -1, -3):
            worst = max(worst, abs(reference.same_chirality_bubble(h1, h2, 1.0)))
    mutated = abs(reference.same_chirality_bubble(0, 0, 1.0, mutated=True))
    ok = worst <= 1e-8 and mutated > 1e-3
    _report(
        "3 bubble vanishing",
        ok,
        f"max |coincident bubble| = {worst:.2e} over shell pairs; |D|^2 mutation = {mutated:.2e}",
        t0,
        10.0,
    )


def test_04_t_limit_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        params = reference.random_params(rng, n_channels=int(rng.integers(2, 5)), lambda_scale=0.2)
        td = reference.t_matrix_directional_numeric(params, "p1_first")
        ts = reference.t_matrix_directional_numeric(params, "p0_first")
        worst = max(worst, np.max(np.abs(td - reference.t_limit_dynamic(params))))
        worst = max(worst, np.max(np.abs(ts - reference.t_limit_static(params))))
    _report(
        "4 T-matrix directional limits",
        worst <= 1e-8,
        f"max entrywise gap closed form vs extrapolated limits = {worst:.2e} (50 sets)",
        t0,
        10.0,
    )


def test_05_lattice_ward_identities():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst_sum, worst_vertex = 0.0, 0.0
    g16 = lattice.CylinderGeometry(16, 16, 2)
    g16h = lattice.CylinderGeometry(16, 16, 1)
    models = [
        (lattice.haldane_cylinder(g16), 0.15),
        (lattice.hofstadter_cylinder(g16h, q=4), -1.0),
    ]
    for ham, mu in models:
        fibers = response.fiber_cache(ham, 16)
        for _ in range(5):
            p0 = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
            y2 = int(rng.integers(1, 15))
            res = response.ward_sum_rule(ham, mu, p0, y2, 16, fibers=fibers)
            worst_sum = max(worst_sum, res[1], res[2])
            k0 = rng.uniform(-2.0, 2.0)
            ki = int(rng.integers(0, 16))
            pi_ = int(rng.integers(1, 8))
            r = response.vertex_ward_residual(ham, mu, k0, ki, p0, pi_, 16, fibers=fibers)
            worst_vertex = max(worst_vertex, r)
    ok = worst_sum <= 1e-10 and worst_vertex <= 1e-10
    _report(
        "5 lattice Ward identities",
        ok,
        f"charge sum rule residual <= {worst_sum:.2e}, vertex identity residual <= "
        f"{worst_vertex:.2e} (Haldane + Hofstadter, 5 random momenta each)",
        t0,
        30.0,
    )


def test_06_free_edge_conductance():
    t0 = time.time()
    mu = 0.15
    gaps = []
    for L1 in (24, 36, 48):
        g = lattice.CylinderGeometry(L1, 24, 2)
        ham = lattice.haldane_cylinder(g)
        est = response.edge_conductance_free(ham, mu, L1, a=12, a_prime=6)
        gaps.append(abs(2.0 * np.pi * est.g - 1.0))
    g48 = lattice.CylinderGeometry(48, 24, 2)
    counter = lattice.stacked_shifted(
        [lattice.haldane_cylinder(g48), lattice.haldane_cylinder(g48, phi=-np.pi / 2)],
        [0.0, 0.1],
    )
    est_c = response.edge_conductance_free(counter, mu, 48, a=12, a_prime=6)
    ok = (
        gaps[-1] <= 0.05
        and gaps[0] > gaps[1] > gaps[2]
        and abs(2.0 * np.pi * est_c.g) <= 0.05
    )
    _report(
        "6 free edge conductance",
        ok,
        f"|2piG - 1| = {gaps[0]:.3f} > {gaps[1]:.3f} > {gaps[2]:.3f} over L1 = 24, 36, 48; "
        f"counterpropagating |2piG| = {abs(2 * np.pi * est_c.g):.2e}",
        t0,
        300.0,
    )


def test_07_wick_rotation():
    t0 = time.time()
    g = lattice.CylinderGeometry(12, 12, 2)
    ham = lattice.haldane_cylinder(g)
    fibers = response.fiber_cache(ham, 12)
    eta = 2.0 * np.pi / 20.0 * (1.0 + 1.0 / 3.0)
    res = {}
    for beta in (20.0, 40.0, 80.0):
        _, _, r = response.wick_rotation_check(
            ham, 0.15, beta, 200.0, eta, 1, 12, a=4, a_prime=2, fibers=fibers
        )
        res[beta] = r
    ratio1, ratio2 = res[20.0] / res[40.0], res[40.0] / res[80.0]

    def residual(T):
        _, _, r = response.wick_rotation_check(
            ham, 0.15, 20.0, T, eta, 1, 12, a=4, a_prime=2, fibers=fibers
        )
        return r

    plateau = residual(400.0)
    gaps = [abs(residual(T) - plateau) for T in (4.0, 8.0, 16.0)]
    ok = (
        ratio1 >= 1.8
        and ratio2 >= 1.8
        and gaps[0] > gaps[1] > gaps[2]
        and plateau > 0.0
        and gaps[2] < 0.05 * plateau
    )
    _report(
        "7 Wick rotation",
        ok,
        f"beta-doubling ratios {ratio1:.2f}, {ratio2:.2f} (>= 1.8); horizon excess decays "
        f"{gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e} onto plateau {plateau:.2e}",
        t0,
        120.0,
    )


def test_08_rg_flow_truncation():
    t0 = time.time()
    lam = 0.05
    params = reference.LuttingerParams(
        v=[1.0, -1.0], z=[1.0, 1.0], lam=[[0.0, lam], [lam, 0.0]]
    )
    traj = rgflow.flow_run(params, -30)
    hs, zs, vs, lams = traj.arrays()
    lam_drift = np.max(np.abs(lams - lams[0]))
    v_drift = np.max(np.abs(vs - vs[0]))
    rep = rgflow.vanishing_beta_report(traj)

    # the oracle checks rgflow.sunset, the function the flow runs
    cells, box = 16, 16.0
    lam_m = np.array([[0.0, lam], [lam, 0.0]])
    model = GridModel(cells, box, [1.0, -1.0], [1.0, 1.0], lam_m)
    oracle_gap = 0.0
    k_idx = (3, 11)
    o2 = two_point_order(model, k_idx, 0, 2)
    p2 = model.g[0][k_idx] ** 2 * sunset_grid(model, k_idx, 0)
    oracle_gap = max(oracle_gap, abs(o2 - p2) / max(abs(o2), 1e-30))
    o4 = four_point_order(model, (2, 5), (1, 3), (6, 2), 0, 1, 2)
    p4 = fourpoint_grid(model, (2, 5), (1, 3), (6, 2), 0, 1)
    oracle_gap = max(oracle_gap, abs(o4 - p4) / max(abs(o4), 1e-30))

    ok = (
        lam_drift <= lam**1.5
        and v_drift <= lam**0.5
        and np.all(rep["eta"] > 0.0)
        and np.all(rep["eta"] <= 10.0 * lam**2)
        and oracle_gap <= 1e-6
    )
    _report(
        "8 truncated RG flow",
        ok,
        f"max|lam_h - lam_0| = {lam_drift:.1e} <= {lam**1.5:.1e}; max|v_h - v_0| = "
        f"{v_drift:.1e}; eta = {rep['eta'][0]:.2e} in (0, {10 * lam**2:.2e}]; "
        f"oracle gap = {oracle_gap:.1e}",
        t0,
        180.0,
    )


def test_09_reproducibility(tmp_path):
    t0 = time.time()
    docs = []
    for sub in ("runA", "runB"):
        d = tmp_path / sub
        d.mkdir()
        code = cli.main(
            ["ref-check", "--ensemble-size", "100", "--seed", "2718", "--out", str(d)]
        )
        assert code == 0
        rep = json.loads((d / "report_ref_check.json").read_text())
        rep.pop("wall_time_s")
        docs.append(json.dumps(rep, sort_keys=True).encode())
    ok = docs[0] == docs[1]
    _report(
        "9 reproducibility",
        ok,
        "identical seeds give byte-identical reports (wall time stripped)",
        t0,
        30.0,
    )
