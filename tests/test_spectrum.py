import numpy as np
import pytest

from edgeflow import lattice, spectrum


def bulk_gap_torus(t1=1.0, t2=0.2, phi=np.pi / 2, m_stag=0.0, grid=48):
    """Independent bulk-band oracle: honeycomb Chern bands on the torus."""
    up, dn = np.exp(-1j * phi), np.exp(1j * phi)
    below, above = -np.inf, np.inf
    for k1 in 2.0 * np.pi * np.arange(grid) / grid:
        for k2 in 2.0 * np.pi * np.arange(grid) / grid:
            e1, e2, e3 = np.exp(-1j * k1), np.exp(-1j * k2), np.exp(-1j * (k1 - k2))
            haa = m_stag + t2 * (up * e1 + dn * np.conj(e1) + dn * e2 + up * np.conj(e2)
                                 + dn * e3 + up * np.conj(e3))
            hbb = -m_stag + t2 * (dn * e1 + up * np.conj(e1) + up * e2 + dn * np.conj(e2)
                                  + up * e3 + dn * np.conj(e3))
            hba = -t1 * (1.0 + e1 + e2)
            m = np.array([[haa, np.conj(hba)], [hba, hbb]])
            ev = np.linalg.eigvalsh(m)
            below = max(below, ev[0].real)
            above = min(above, ev[1].real)
    return below, above


@pytest.fixture(scope="module")
def haldane_scan():
    g = lattice.CylinderGeometry(24, 16, 2)
    ham = lattice.haldane_cylinder(g)
    mu = 0.15
    scan = spectrum.scan_spectrum(ham, n_k=96, window=(mu - 0.3, mu + 0.3))
    return ham, mu, scan


def test_zero_hamiltonian_empty_scan():
    g = lattice.CylinderGeometry(8, 8, 1)
    scan = spectrum.scan_spectrum(lattice.LatticeHamiltonian(g), n_k=64, window=(0.5, 1.5))
    assert scan.state_count() == 0


def test_scan_requires_enough_momenta(haldane_scan):
    ham, _, _ = haldane_scan
    with pytest.raises(ValueError):
        spectrum.scan_spectrum(ham, n_k=32)


def test_topological_scan_states_live_at_edges(haldane_scan):
    ham, mu, scan = haldane_scan
    assert scan.state_count() > 0
    g = ham.geometry
    for vecs in scan.vectors:
        for v in vecs:
            w = np.sum(np.abs(v.reshape(g.L2, g.M)) ** 2, axis=1)
            near_edges = w[:4].sum() + w[-4:].sum()
            assert near_edges > 0.9


def test_trivial_phase_empty_midgap_scan():
    # oracle: the bulk torus bands leave the window around mu empty
    below, above = bulk_gap_torus(m_stag=1.5)
    mu = 0.5 * (below + above)
    half = 0.4 * (above - below)
    g = lattice.CylinderGeometry(24, 16, 2)
    ham = lattice.haldane_cylinder(g, m_stag=1.5)
    scan = spectrum.scan_spectrum(ham, n_k=96, window=(mu - half, mu + half))
    assert scan.state_count() == 0


def test_single_copy_branches(haldane_scan):
    ham, mu, scan = haldane_scan
    branches = spectrum.extract_edge_branches(scan, mu)
    crossing = [b for b in branches if np.isfinite(b.k_fermi)]
    sides = sorted(b.side for b in crossing)
    assert sides == ["lower", "upper"]
    for b in crossing:
        assert b.loc_r2 >= 0.95
        assert b.loc_rate > 0


def test_three_copy_stack_has_three_lower_branches(haldane_scan):
    ham, mu, _ = haldane_scan
    stack = lattice.stacked_shifted(ham, [0.0, 0.1, 0.26])
    scan = spectrum.scan_spectrum(stack, n_k=96, window=(mu - 0.3, mu + 0.3))
    branches = spectrum.extract_edge_branches(scan, mu)
    lower = [b for b in branches if b.side == "lower" and np.isfinite(b.k_fermi)]
    assert len(lower) == 3
    report = spectrum.check_assumptions(branches)
    assert report.all_pass
    assert report.gamma > 0.05


def test_empty_scan_gives_no_branches():
    g = lattice.CylinderGeometry(8, 8, 1)
    scan = spectrum.scan_spectrum(lattice.LatticeHamiltonian(g), n_k=64, window=(0.5, 1.5))
    assert spectrum.extract_edge_branches(scan, 1.0) == []


def test_bulk_state_error():
    g = lattice.CylinderGeometry(16, 16, 2)
    ham = lattice.haldane_cylinder(g)
    # window deep into the bulk bands
    scan = spectrum.scan_spectrum(ham, n_k=64, window=(1.2, 2.2))
    with pytest.raises(spectrum.BulkStateError):
        spectrum.extract_edge_branches(scan, 1.7)


# ---------------------------------------------------------------------------
# Fermi points
# ---------------------------------------------------------------------------


def shifted_chain(L1=16, L2=8, t=0.8, k0=1.1):
    """Ring model with dispersion -2t cos(k - k0): analytic Fermi data."""
    g = lattice.CylinderGeometry(L1, L2, 1)
    ham = lattice.LatticeHamiltonian(g)
    for x2 in range(1, L2 - 1):
        ham.add_block(1, x2, x2, [[-t * np.exp(1j * k0)]])
        ham.add_block(-1, x2, x2, [[-t * np.exp(-1j * k0)]])
    return ham


def test_fermi_point_analytic_dispersion():
    # fiber(k) = -2t cos(k - k0); mu-crossing and slope known in closed form
    t, k0, mu = 0.8, 1.1, 0.3
    ham = shifted_chain(t=t, k0=k0)
    ks = 2.0 * np.pi * np.arange(64) / 64
    branch = spectrum.EdgeBranch(
        label=0,
        k_samples=ks,
        energies=-2.0 * t * np.cos(ks - k0),
        vectors=np.array([np.linalg.eigh(lattice.assemble_fiber(ham, k))[1][:, 3] for k in ks]),
        side="lower",
    )
    kf, vel, _ = spectrum.fermi_point(branch, ham, mu)
    kf_exact = (k0 + np.arccos(-mu / (2 * t))) % (2 * np.pi)
    v_exact = 2.0 * t * np.sin(kf_exact - k0)
    assert abs(np.cos(kf - k0) - np.cos(kf_exact - k0)) < 1e-10
    assert abs(abs(vel) - abs(v_exact)) < 1e-8


def test_fermi_point_requires_crossing():
    ham = shifted_chain()
    ks = 2.0 * np.pi * np.arange(8) / 64
    branch = spectrum.EdgeBranch(
        label=0,
        k_samples=ks,
        energies=np.full(8, 0.2),
        vectors=np.zeros((8, 8), dtype=complex),
        side="lower",
    )
    with pytest.raises(ValueError):
        spectrum.fermi_point(branch, ham, 5.0)


def test_fermi_point_tangent_guard():
    # chemical potential a hair above the band bottom: |velocity| < v_min
    t, k0 = 0.8, 1.1
    ham = shifted_chain(t=t, k0=k0)
    mu = -2.0 * t + 1e-10
    ks = np.linspace(k0 + np.pi - 0.2, k0 + np.pi + 0.2, 21)
    branch = spectrum.EdgeBranch(
        label=0,
        k_samples=ks,
        energies=-2.0 * t * np.cos(ks - k0),
        vectors=np.array([np.linalg.eigh(lattice.assemble_fiber(ham, k))[1][:, 3] for k in ks]),
        side="lower",
    )
    with pytest.raises((ValueError, RuntimeError)):
        spectrum.fermi_point(branch, ham, mu)


def test_velocity_matches_dense_fit(haldane_scan):
    ham, mu, scan = haldane_scan
    branches = spectrum.extract_edge_branches(scan, mu)
    b = next(x for x in branches if x.side == "lower" and np.isfinite(x.k_fermi))
    # dense-grid polynomial fit oracle around the Fermi point
    ks = b.k_fermi + np.linspace(-0.05, 0.05, 21)
    es = []
    ref_vec = None
    for k in ks:
        e, v = np.linalg.eigh(lattice.assemble_fiber(ham, k))
        if ref_vec is None:
            j = int(np.argmin(np.abs(e - mu)))
        else:
            j = int(np.argmax(np.abs(ref_vec.conj() @ v)))
        ref_vec = v[:, j]
        es.append(e[j])
    coef = np.polyfit(ks - b.k_fermi, es, 3)
    assert abs(coef[2] - b.velocity) < 1e-4


# ---------------------------------------------------------------------------
# assumption report
# ---------------------------------------------------------------------------


def _stub_branch(label, side, kf, vel):
    return spectrum.EdgeBranch(
        label=label,
        k_samples=np.linspace(0, 1, 5),
        energies=np.linspace(-0.1, 0.1, 5),
        vectors=np.zeros((5, 4), dtype=complex),
        side=side,
        k_fermi=kf,
        velocity=vel,
        loc_rate=1.0,
        loc_r2=0.99,
    )


def test_single_branch_vacuous_pass():
    rep = spectrum.check_assumptions([_stub_branch(0, "lower", 1.0, 0.5)])
    assert rep.all_pass
    assert rep.gamma == np.inf


def test_degenerate_fermi_momenta_fail_flag_d():
    branches = [_stub_branch(0, "lower", 1.0, 0.5), _stub_branch(1, "lower", 1.0, 0.5)]
    rep = spectrum.check_assumptions(branches)
    assert not rep.flags["d"]
    assert rep.gamma < 1e-12


def test_quadruple_separation_detected():
    # equally spaced Fermi momenta: pairwise fine, differences collide
    branches = [
        _stub_branch(0, "lower", 1.0, 0.5),
        _stub_branch(1, "lower", 1.2, 0.5),
        _stub_branch(2, "lower", 1.4, 0.5),
    ]
    rep = spectrum.check_assumptions(branches)
    assert not rep.flags["d"]


def test_check_assumptions_needs_branches():
    with pytest.raises(spectrum.NoEdgeBranchError):
        spectrum.check_assumptions([])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_chirality_count_builtin_models(haldane_scan):
    ham, mu, scan = haldane_scan
    configs = [(ham, mu, scan)]
    g = lattice.CylinderGeometry(24, 16, 1)
    hof = lattice.hofstadter_cylinder(g)
    configs.append((hof, -1.0, spectrum.scan_spectrum(hof, n_k=96, window=(-1.2, -0.8))))
    for model, mu_, scan_ in configs:
        branches = spectrum.extract_edge_branches(scan_, mu_)
        lower = sum(
            np.sign(b.velocity) for b in branches if b.side == "lower" and np.isfinite(b.k_fermi)
        )
        upper = sum(
            np.sign(b.velocity) for b in branches if b.side == "upper" and np.isfinite(b.k_fermi)
        )
        assert lower == -upper
        assert abs(lower) == 1


def test_branch_energies_periodic(haldane_scan):
    ham, mu, scan = haldane_scan
    branches = spectrum.extract_edge_branches(scan, mu)
    b = branches[0]
    for k, e in list(zip(b.k_samples, b.energies))[:5]:
        ev = np.linalg.eigvalsh(lattice.assemble_fiber(ham, k + 2.0 * np.pi))
        assert np.min(np.abs(ev - e)) < 1e-12


def test_localization_rate_grows_into_gap():
    # monotone in the mid-gap window; near the band edges two evanescent
    # channels mix at reachable widths and the single-rate fit saturates
    g = lattice.CylinderGeometry(24, 20, 2)
    ham = lattice.haldane_cylinder(g)
    rates = []
    for mu in (0.55, 0.40, 0.25):
        scan = spectrum.scan_spectrum(ham, n_k=96, window=(mu - 0.12, mu + 0.12))
        b = next(
            x
            for x in spectrum.extract_edge_branches(scan, mu)
            if x.side == "lower" and np.isfinite(x.k_fermi)
        )
        rates.append(b.loc_rate)
    assert rates[0] < rates[1] < rates[2]


def test_dispersion_curvature_stable_under_refinement(haldane_scan):
    ham, mu, _ = haldane_scan

    def max_curvature(n_k):
        scan = spectrum.scan_spectrum(ham, n_k=n_k, window=(mu - 0.3, mu + 0.3))
        branches = spectrum.extract_edge_branches(scan, mu)
        rep = spectrum.check_assumptions(branches)
        return rep.diagnostics["max_curvature"]

    c1, c2 = max_curvature(128), max_curvature(256)
    assert abs(c1 - c2) / c2 < 0.1
