import dataclasses

import numpy as np
import pytest

from edgeflow import cli, lattice, response, spectrum
from conftest import two_sample_crossing_scan, with_flux


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


def chain_branch(ham, t, k0, ks, mu):
    """The band -2t cos(k - k0) of :func:`shifted_chain` sampled at ``ks``,
    with its first grid crossing of ``mu`` as the branch's crossing."""
    energies = -2.0 * t * np.cos(ks - k0)
    above = energies > mu
    return spectrum.EdgeBranch(
        label=0,
        k_samples=ks,
        energies=energies,
        vectors=np.array([np.linalg.eigh(lattice.assemble_fiber(ham, k))[1][:, 3] for k in ks]),
        side="lower",
        crossing=int(np.flatnonzero(above[:-1] != above[1:])[0]),
    )


def test_fermi_point_analytic_dispersion():
    # fiber(k) = -2t cos(k - k0); mu-crossing and slope known in closed form
    t, k0, mu = 0.8, 1.1, 0.3
    ham = shifted_chain(t=t, k0=k0)
    branch = chain_branch(ham, t, k0, 2.0 * np.pi * np.arange(64) / 64, mu)
    kf, vel, _ = spectrum.fermi_point(branch, ham, mu)
    kf_exact = (k0 + np.arccos(-mu / (2 * t))) % (2 * np.pi)
    v_exact = 2.0 * t * np.sin(kf_exact - k0)
    assert abs(np.cos(kf - k0) - np.cos(kf_exact - k0)) < 1e-10
    assert abs(abs(vel) - abs(v_exact)) < 1e-8


def test_fermi_point_requires_crossing():
    # a branch that records no crossing has no Fermi point
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
    # chemical potential a hair above the band bottom at k0: the bisection
    # converges, to a |velocity| of 1.6e-5 < v_min
    t, k0 = 0.8, 1.1
    ham = shifted_chain(t=t, k0=k0)
    mu = -2.0 * t + 1e-10
    branch = chain_branch(ham, t, k0, np.linspace(k0 - 0.2, k0 + 0.2, 21), mu)
    with pytest.raises(spectrum.FermiPointError, match="tangent"):
        spectrum.fermi_point(branch, ham, mu)


def test_fermi_point_rejects_a_nan_velocity(monkeypatch):
    # the bisection converges; every eigenvalue after it is NaN, so the
    # central differences give a NaN velocity, which the guard must catch
    t, k0, mu = 0.8, 1.1, 0.3
    ham = shifted_chain(t=t, k0=k0)
    branch = chain_branch(ham, t, k0, 2.0 * np.pi * np.arange(64) / 64, mu)
    track = spectrum._track_eig
    converged = []

    def nan_after_convergence(ham, k1, ref_vec):
        e, v = track(ham, k1, ref_vec)
        if converged:
            return np.nan, v
        if abs(e - mu) <= spectrum.FERMI_TOL:
            converged.append(k1)
        return e, v

    monkeypatch.setattr(spectrum, "_track_eig", nan_after_convergence)
    with pytest.raises(spectrum.FermiPointError, match="velocity"):
        spectrum.fermi_point(branch, ham, mu)
    assert len(converged) == 1
    assert cli.FAILED_STAGE[spectrum.FermiPointError] == "fermi_point"


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
        k_samples=np.linspace(0, 1, 4),
        energies=np.linspace(-0.1, 0.1, 4),
        vectors=np.zeros((4, 4), dtype=complex),
        side=side,
        crossing=1,  # of mu = 0
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


@pytest.mark.parametrize(
    "flag, field, value, failures",
    # a slow velocity has no flag: fermi_point raises on it (see
    # test_fermi_point_rejects_a_nan_velocity)
    [("b", "loc_r2", 0.5, "localization_failures")],
)
def test_a_bad_branch_fails_its_flag(flag, field, value, failures):
    bad = dataclasses.replace(_stub_branch(1, "upper", 2.0, -0.5), **{field: value})
    rep = spectrum.check_assumptions([_stub_branch(0, "lower", 1.0, 0.5), bad])
    assert rep.flags == {"b": True, "d": True} | {flag: False}
    assert rep.diagnostics[failures] == [1]
    assert not rep.all_pass


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


# ---------------------------------------------------------------------------
# chirality from the grid crossings
# ---------------------------------------------------------------------------

BACKSCATTERING_BONDS = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))  # (z1, x2 - y2)


def haldane_with_backscattering(seed, rows_outer=False):
    """Haldane 48 x 24 with random Hermitian hoppings of scale 0.6 between
    rows 1 to 3 of the lower edge and their neighbours, which couple and
    fold its edge modes.  The blocks are drawn bond by bond, or row by row
    with ``rows_outer``."""
    rng = np.random.default_rng(seed)
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(48, 24, 2))
    keys = [(z1, x2, x2 - d) for z1, d in BACKSCATTERING_BONDS for x2 in (1, 2, 3)]
    if rows_outer:
        keys.sort(key=lambda key: key[1])
    for z1, x2, y2 in keys:
        if y2 < 1:
            continue
        blk = 0.6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ham.add_block(z1, x2, y2, blk)
        ham.add_block(-z1, y2, x2, blk.conj().T)
    ham.check_hermitian()
    return ham


def chirality_by_grid(scan, mu, side="lower"):
    return sum(b.direction for b in spectrum.edge_branches(scan, mu) if b.side == side)


def lower_fermi_velocities(scan, mu):
    branches = spectrum.extract_edge_branches(scan, mu)
    return [b.velocity for b in branches if b.side == "lower" and np.isfinite(b.k_fermi)]


def _counter_stack():
    g = lattice.CylinderGeometry(24, 16, 2)
    return lattice.stacked_shifted(
        [lattice.haldane_cylinder(g), lattice.haldane_cylinder(g, phi=-np.pi / 2)], [0.0, 0.1]
    )


def test_a_stack_scan_keeps_the_whole_fiber_eigenpairs():
    # each copy's in-window states are placed on its own rows and merged by
    # energy: the scan holds the whole fiber's in-window eigenvalues, less
    # the Dirichlet-row modes, each with an eigenvector of the whole fiber
    # up to the side-pure rotation inside a cluster (gaps below 1e-5)
    stack = lattice.stacked_shifted(
        lattice.haldane_cylinder(lattice.CylinderGeometry(16, 12, 2)), [0.0, 0.1, 0.26]
    )
    lo, hi = -0.2, 0.5
    scan = spectrum.scan_spectrum(stack, n_k=64, window=(lo, hi))
    for k1, e, vs in zip(scan.k_grid, scan.energies, scan.vectors, strict=True):
        fiber = lattice.assemble_fiber(stack, k1)
        want, v = np.linalg.eigh(fiber)
        w = lattice.row_weights(stack.geometry, v)
        want = want[(want > lo) & (want < hi) & (w[0] + w[-1] < 0.5)]
        assert e.shape == want.shape and np.max(np.abs(e - want), initial=0.0) <= 1e-12
        assert np.max(np.abs(fiber @ vs.T - vs.T * e), initial=0.0) <= 1e-4


@pytest.mark.parametrize(
    "build, mu, n_k, window, chirality",
    [
        (lambda: lattice.haldane_cylinder(lattice.CylinderGeometry(24, 16, 2)), 0.15, 96, 0.3, 1),
        (lambda: lattice.hofstadter_cylinder(lattice.CylinderGeometry(24, 16, 1)), -1.0, 96, 0.2, -1),
        (lambda: lattice.hofstadter_cylinder(lattice.CylinderGeometry(60, 32, 1), p=2, q=5), -1.0, 240, 0.2, -1),
        (
            lambda: lattice.stacked_shifted(
                lattice.haldane_cylinder(lattice.CylinderGeometry(24, 16, 2)), [0.0, 0.1, 0.26]
            ),
            0.15, 96, 0.3, 3,
        ),
        (_counter_stack, 0.15, 96, 0.3, 0),
    ],
    ids=["haldane", "hofstadter-1/3", "hofstadter-2/5", "three-copy-stack", "counter-stack"],
)
def test_grid_crossings_give_the_velocity_sign_sum(build, mu, n_k, window, chirality):
    ham = build()
    scan = spectrum.scan_spectrum(ham, n_k=n_k, window=(mu - window, mu + window))
    by_grid = chirality_by_grid(scan, mu)
    assert by_grid == sum(np.sign(lower_fermi_velocities(scan, mu)))
    assert by_grid == chirality == spectrum.lower_edge_chirality(ham, mu, n_k)


def test_grid_crossings_give_the_velocity_sign_sum_under_backscattering():
    # edge detail folds the lower edge into several modes at mu; both
    # routes must still count one net chiral channel
    mu = 0.1
    crossings = []
    for seed in range(8):
        ham = haldane_with_backscattering(seed)
        scan = spectrum.scan_spectrum(ham, n_k=96, window=(mu - 0.3, mu + 0.3))
        velocities = lower_fermi_velocities(scan, mu)
        assert chirality_by_grid(scan, mu) == sum(np.sign(velocities)) == 1, seed
        assert spectrum.lower_edge_chirality(ham, mu, 96) == 1, seed
        crossings.append(len(velocities))
    assert max(crossings) >= 3


def test_grid_crossings_cancel_across_an_avoided_crossing():
    # seed 7, drawn row by row: two lower branches anticross within one
    # grid interval at k1 ~ 3.25, where the gap straddles mu.  Continuation
    # follows the eigenvectors across it, so each branch shows a grid
    # crossing that no eigenvalue makes; the two have opposite signs and
    # cancel, leaving one net chiral channel
    mu = 0.1
    scan = spectrum.scan_spectrum(
        haldane_with_backscattering(7, rows_outer=True), n_k=96, window=(mu - 0.3, mu + 0.3)
    )
    crossings = {}  # grid interval of the crossing -> signs crossing there
    for b in spectrum.edge_branches(scan, mu):
        if b.side == "lower" and b.crossing is not None:
            crossings.setdefault(round(float(b.k_samples[b.crossing]), 6), []).append(b.direction)
    assert sorted(map(sorted, crossings.values())) == [[-1, 1], [1]]
    assert sum(map(sum, crossings.values())) == 1


@pytest.mark.parametrize("seed, mu", [(12, 0.15), (14, 0.1), (20, 0.15), (1, 0.05)])
def test_a_crossing_right_after_another_is_counted(seed, mu):
    # drawn row by row, these fold the lower edge so that one chain crosses
    # mu in two adjacent grid intervals; the second crossing's branch starts
    # at the sample the two share, so both are counted, and the branches,
    # the charge count and the Fermi velocities each read one chiral channel
    ham = haldane_with_backscattering(seed, rows_outer=True)
    scan = spectrum.scan_spectrum(ham, n_k=96, window=(mu - 0.3, mu + 0.3))
    lower = [b for b in spectrum.edge_branches(scan, mu) if b.side == "lower"]
    assert any(a.k_samples[-1] == b.k_samples[0] and a.crossing == len(a.k_samples) - 2 and b.crossing == 0
               for a, b in zip(lower, lower[1:]))
    assert chirality_by_grid(scan, mu) == -chirality_by_grid(scan, mu, "upper") == 1
    assert spectrum.lower_edge_chirality(ham, mu, 96) == 1
    assert sum(np.sign(lower_fermi_velocities(scan, mu))) == 1


def test_edge_branches_are_the_extracted_branches_without_fermi_data(haldane_scan):
    ham, mu, scan = haldane_scan
    plain, refined = spectrum.edge_branches(scan, mu), spectrum.extract_edge_branches(scan, mu)
    assert [b.label for b in plain] == [b.label for b in refined]
    for a, b in zip(plain, refined):
        assert a.side == b.side
        for name in ("k_samples", "energies", "vectors"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.crossing == b.crossing
        assert np.isnan([a.k_fermi, a.velocity, a.loc_rate, a.loc_r2]).all()
        assert a.direction == (np.sign(b.velocity) if np.isfinite(b.k_fermi) else 0)


def one_state_scan(ham, energies, n_k=16):
    """A hand-built scan of ``ham`` with one lower-edge state at each of the
    first ``len(energies)`` grid momenta, at those energies, and no state
    after them: one chain, which starts at ``k1 = 0``."""
    state = np.zeros(ham.geometry.fiber_dim, dtype=complex)
    state[ham.geometry.M] = 1.0  # row 1, the lower edge
    rest = n_k - len(energies)
    return spectrum.BandScan(
        ham, 2.0 * np.pi * np.arange(n_k) / n_k, [np.array([e]) for e in energies] + [np.empty(0)] * rest,
        [state[None, :]] * len(energies) + [np.empty((0, ham.geometry.fiber_dim), dtype=complex)] * rest,
    )


@pytest.mark.parametrize(
    "energies, crossings",
    [
        ([-0.2, -0.1, 0.1, 0.2], [(1, 1)]),
        ([0.2, 0.1, -0.1, -0.2], [(1, -1)]),
        ([0.2, 0.1, 0.05, 0.1], [(None, 0)]),
        ([-0.2, 0.0, 0.1], [(None, 0)]),  # a sample on mu is no crossing
        # crossings after samples 3, 4 and 8: the one after 4 starts its
        # branch at the sample it shares with the one after 3
        ([0.1] * 4 + [-0.1] + [0.1] * 4 + [-0.1] * 3, [(3, -1), (4, 1), (8, -1)]),
    ],
)
def test_each_branch_records_its_grid_crossing(energies, crossings):
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(8, 8, 2))
    branches = spectrum.edge_branches(one_state_scan(ham, energies), 0.0)
    grid = list(2.0 * np.pi * np.arange(16) / 16)
    recorded = [(None if b.crossing is None else grid.index(b.k_samples[b.crossing]), b.direction) for b in branches]
    assert recorded == crossings
    for b in branches:
        assert len(b.k_samples) >= 3 and b.side == "lower"


def test_a_crossing_branch_of_two_samples_is_loud():
    # edge_branches drops a branch of 2 samples, on mu or off it; the crossing
    # it held is missing from the branches' count, which the charge count on
    # the same grid keeps, so edges fails its chirality_agrees check
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(8, 8, 2))
    scan = two_sample_crossing_scan(ham, 0.15)
    assert spectrum.edge_branches(scan, 0.15) == []
    assert spectrum.edge_branches(scan, 0.5) == []
    assert spectrum.lower_edge_chirality(ham, 0.15, len(scan.k_grid)) == 1


def test_a_branch_runs_across_the_grid_seam():
    # a flux of 3.0107 through Haldane 48 x 24 puts the lower edge's crossing
    # between the last grid momentum and 2 pi: its branch is in the window on
    # both sides of the seam and must be one chain, or the crossing belongs
    # to neither half
    mu = 0.1
    ham = with_flux(lattice.haldane_cylinder(lattice.CylinderGeometry(48, 24, 2)), 3.0107)
    scan = spectrum.scan_spectrum(ham, n_k=96, window=(mu - 0.3, mu + 0.3))
    lower = [b for b in spectrum.edge_branches(scan, mu) if b.side == "lower" and b.crossing is not None]
    assert [b.direction for b in lower] == [1]
    assert lower[0].k_samples[0] > lower[0].k_samples[-1]  # it wraps at 2 pi
    assert spectrum.lower_edge_chirality(ham, mu, 96) == 1


# ---------------------------------------------------------------------------
# chirality from the occupied charge of the lower half
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, mu, chirality",
    [
        *[(lambda n=n: lattice.haldane_cylinder(lattice.CylinderGeometry(n, 16, 2)), 0.15, 1) for n in range(4, 10)],
        (lambda: lattice.hofstadter_cylinder(lattice.CylinderGeometry(9, 16, 1)), -1.0, -1),
    ],
    ids=[f"haldane-{n}" for n in range(4, 10)] + ["hofstadter-9"],
)
def test_a_coarse_ring_halves_the_charge_steps_far_from_an_integer(monkeypatch, build, mu, chirality):
    # on a ring this coarse some step of the charge reads 0.28 to 0.47 (the
    # Hofstadter count would read 0); halving those intervals down to the
    # spacing 2 pi / 64 makes every step near an integer, and the midpoints
    # are not stored
    ham = build()
    n_k = ham.geometry.L1
    assert spectrum.lower_edge_chirality(ham, mu, n_k) == chirality
    assert set(ham._grids) == {n_k}
    # none of them would have held within the tolerance without the halving
    monkeypatch.setattr(spectrum, "MIN_SCAN_MOMENTA", 1)
    with pytest.raises(spectrum.ChargeStepError, match="is not within 0.25 of an integer"):
        spectrum.lower_edge_chirality(build(), mu, n_k)


def test_the_charge_count_reads_only_the_stored_grid(monkeypatch):
    # from 64 momenta on nothing is halved: the count solves no fiber beyond
    # the grid, and on a grid already stored it solves none at all
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(64, 16, 2))
    response.fiber_cache(ham, 64)

    def no_eigh(*args, **kwargs):
        raise AssertionError("the count diagonalized a fiber")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert spectrum.lower_edge_chirality(ham, 0.15, 64) == 1
