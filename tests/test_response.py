import time

import numpy as np
import pytest

import row_vertices
from edgeflow import lattice, response, spectrum
from conftest import random_hermitian_model


@pytest.fixture(scope="module")
def haldane_setup():
    g = lattice.CylinderGeometry(16, 16, 2)
    ham = lattice.haldane_cylinder(g)
    return ham, 0.15, response.fiber_cache(ham, 16)


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


def test_density_completeness(haldane_setup):
    ham, _, fibers = haldane_setup
    vs = row_vertices.build_vertices(ham, fibers[3], fibers[3])
    total = vs.density.sum(axis=0)
    assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-13


def test_chain_current_is_group_velocity():
    # J1 diagonal at p1 = 0 equals the numerical dispersion derivative
    g = lattice.CylinderGeometry(16, 8, 1)
    ham = lattice.chain_cylinder(g, t=0.9)
    current = response._current_operator(ham, response._J1_TERMS, np.ones(g.L2))
    for k in (0.3, 1.7):
        f = response.diagonalize_fiber(ham, k)
        j_diag = np.real(response._current_vertex(f, f, current).diagonal())
        step = 1e-6
        e_p = np.linalg.eigvalsh(lattice.assemble_fiber(ham, k + step))
        e_m = np.linalg.eigvalsh(lattice.assemble_fiber(ham, k - step))
        dnum = (e_p - e_m) / (2 * step)
        # interior rows disperse, Dirichlet rows do not; compare as sets
        assert np.allclose(np.sort(j_diag), np.sort(dnum), atol=1e-6)


def test_fiber_cache_threaded_matches_serial(haldane_setup):
    ham, _, serial = haldane_setup
    threaded = response.fiber_cache(ham, 16, threads=4)
    for a, b in zip(serial, threaded):
        assert a.k1 == b.k1
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.states, b.states)


def test_threaded_fiber_cache_checks_a_fresh_model_once(hermitian_checks, monkeypatch):
    # a slow check holds the first build of the slab stack open while the
    # pool's other threads start and ask for it
    check = lattice.LatticeHamiltonian.check_hermitian

    def slow(ham, *args, **kwargs):
        time.sleep(0.05)
        return check(ham, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeHamiltonian, "check_hermitian", slow)
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2))
    threaded = response.fiber_cache(ham, 16, threads=4)
    assert hermitian_checks == [ham]
    for a, b in zip(response.fiber_cache(ham, 16), threaded, strict=True):
        assert a.k1 == b.k1
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize("threads", [2, 4])
def test_threaded_fiber_cache_splits_a_fresh_stack_once(hermitian_checks, monkeypatch, threads):
    # the summands are built with the slab stack, under its lock: a slow
    # check holds that first build open while the other threads ask for them
    check = lattice.LatticeHamiltonian.check_hermitian

    def slow(ham, *args, **kwargs):
        time.sleep(0.05)
        return check(ham, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeHamiltonian, "check_hermitian", slow)
    g = lattice.CylinderGeometry(16, 12, 2)
    copies = [lattice.haldane_cylinder(g), lattice.haldane_cylinder(g, phi=-np.pi / 2)]
    stack = lattice.stacked_shifted(copies, [0.0, 0.1])
    threaded = response.fiber_cache(stack, 16, threads=threads)
    subs = [sub for _, sub in stack.summands()]
    assert len(subs) == 2
    # one check of the stack, so its slabs and summands were built once; the
    # sub-models hold restrictions of checked blocks and are not checked again
    assert hermitian_checks == [stack]
    for a, b in zip(response.fiber_cache(stack, 16), threaded, strict=True):
        assert a.k1 == b.k1
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.states, b.states)
        for pa, pb in zip(a.parts, b.parts, strict=True):
            assert np.array_equal(pa.energies, pb.energies)
            assert np.array_equal(pa.states, pb.states)


def test_vertices_require_short_range(rng):
    g = lattice.CylinderGeometry(8, 8, 1)
    ham = lattice.LatticeHamiltonian(g, hop_range=2.0)
    ham.add_block(2, 3, 3, [[1.0]])
    ham.add_block(-2, 3, 3, [[1.0]])
    f = response.diagonalize_fiber(ham, 0.1)
    with pytest.raises(ValueError, match="hop range"):
        response._current_operator(ham, response._J1_TERMS, np.ones(g.L2))
    with pytest.raises(ValueError, match="hop range"):
        response.ward_sum_rule(ham, 0.0, 0.3, 3, 8, fibers=[f] * 8)


def test_one_vertex_build_per_fiber_pair(haldane_setup, counter_stack, monkeypatch):
    # the backward leg of each loop is the conjugate of the forward vertices,
    # so each (k, k + p) pair is built once: row-resolved by the oracle's
    # build_vertices, or summed over the strips by _strip_vertices.  Every
    # current is a fixed fiber operator, built by _current_operator once per
    # summand, component and call, not once per pair
    owners = {"build_vertices": row_vertices, "_strip_vertices": response, "_current_operator": response}
    names = tuple(owners)
    calls = dict.fromkeys(names, 0)
    for name, owner in owners.items():
        build = getattr(owner, name)

        def counted(*args, build=build, name=name, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def builds(run):
        calls.update(dict.fromkeys(names, 0))
        run()
        return tuple(calls[name] for name in names)

    ham, mu, fibers = haldane_setup
    n_k = 16
    eta = 2.0 * np.pi / 20.0 * (4.0 / 3.0)
    assert builds(lambda: row_vertices.current_current(ham, mu, 0.3, 2, n_k, fibers=fibers)) == (n_k, 0, 0)
    # the sum rule: one operator per current component, none per fiber
    assert builds(lambda: response.ward_sum_rule(ham, mu, 0.3, 3, n_k, fibers=fibers)) == (0, 0, 2)
    assert builds(lambda: response.vertex_ward_residual(ham, mu, 0.2, 1, 0.3, 1, n_k, fibers=fibers)) == (0, 0, 1)
    assert builds(lambda: response.wick_rotation_check(
        ham, mu, 20.0, 50.0, eta, 1, n_k, a=4, a_prime=2, fibers=fibers)) == (0, n_k, 1)
    assert builds(lambda: response.edge_conductance_free(
        ham, mu, n_k, a=6, a_prime=4, fibers=fibers)) == (0, 4 * n_k, 4)
    # two summands: each strip sum builds one operator per summand, and each
    # pair contracts each summand's bands with its own
    stack, stack_fibers = counter_stack
    assert builds(lambda: response.edge_conductance_free(
        stack, 0.15, 24, a=6, a_prime=4, fibers=stack_fibers)) == (0, 2 * 4 * 24, 2 * 4)
    assert builds(lambda: response.ward_sum_rule(stack, 0.15, 0.3, 3, 24, fibers=stack_fibers)) == (0, 0, 2 * 2)


# ---------------------------------------------------------------------------
# charge conservation
# ---------------------------------------------------------------------------


def test_ward_sum_rule_haldane(haldane_setup):
    ham, mu, fibers = haldane_setup
    res = response.ward_sum_rule(ham, mu, 0.3, y2=3, n_k=16, fibers=fibers)
    assert res[1] <= 1e-10 and res[2] <= 1e-10


def test_ward_sum_rule_random_model(rng):
    ham = random_hermitian_model(rng)
    res = response.ward_sum_rule(ham, 0.1, 0.45, y2=5, n_k=12)
    assert res[1] <= 1e-10 and res[2] <= 1e-10


def test_ward_sum_rule_every_builtin(rng):
    g2 = lattice.CylinderGeometry(12, 12, 2)
    g1 = lattice.CylinderGeometry(12, 12, 1)
    base = lattice.haldane_cylinder(g2)
    models = [
        (base, 0.15),
        (lattice.hofstadter_cylinder(g1, q=4), -1.0),
        (lattice.stacked_shifted(base, [0.0, 0.1]), 0.15),
        (lattice.chain_cylinder(g1), 0.2),
    ]
    for ham, mu in models:
        fibers = response.fiber_cache(ham, 12)
        for _ in range(5):
            p0 = rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0])
            y2 = int(rng.integers(1, 11))
            res = response.ward_sum_rule(ham, mu, p0, y2, 12, fibers=fibers)
            assert res[1] <= 1e-10 and res[2] <= 1e-10


@pytest.mark.parametrize("p0", [0.3, 1e-300, 2.2250738585e-313, -5e-324])
def test_equal_occupations_have_zero_weight_at_every_frequency(p0):
    # two Dirichlet-row zero modes at mu = 0: 0 / (i p0) is NaN for a
    # subnormal p0, the weight is 0
    e_a = np.array([-2.18, 0.0, 0.0, 0.45])
    e_b = np.array([-2.19, -0.54, 0.0, 0.0])
    w = response._pair_weight(e_a, e_b, 0.0, 0.0, p0)
    assert np.all(np.isfinite(w))
    same = (e_a < 0.0)[:, None] == (e_b < 0.0)[None, :]
    assert np.all(w[same] == 0.0) and np.all(w[~same] != 0.0)


def _drop_diagonal_bonds(monkeypatch):
    # keep only the straight bonds of the ring current
    straight = [t for t in response._J1_TERMS if t[1] == 0 and t[3] == 0]
    monkeypatch.setattr(response, "_J1_TERMS", straight)


def test_ward_sum_rule_insensitive_to_current_but_density_breaks(haldane_setup, monkeypatch):
    # the sum rule is charge conservation on the density leg: corrupting
    # the current operator cannot break it, corrupting the density does
    ham, mu, fibers = haldane_setup
    g = ham.geometry
    n_k = 16
    total = np.zeros((g.L2, g.L2), dtype=complex)
    corrupted = np.zeros_like(total)
    for m in range(n_k):
        f_k = fibers[m]
        vs_fwd = row_vertices.build_vertices(ham, f_k, f_k)
        with monkeypatch.context() as mp:
            _drop_diagonal_bonds(mp)
            vs_bwd = row_vertices.build_vertices(ham, f_k, f_k)
        w = response._pair_weight(f_k.energies, f_k.energies, mu, 0.0, 0.3)
        total += np.einsum("xab,yba,ab->xy", vs_fwd.density, vs_bwd.current1, w)
        bad_density = vs_fwd.density.copy()
        bad_density[2] = 0.0  # drop one row from the density vertex
        corrupted += np.einsum("xab,yba,ab->xy", bad_density, vs_fwd.current1, w)
    scale = np.max(np.abs(total))
    assert abs(total.sum(axis=0)[3]) <= 1e-12 * scale  # corrupted current: still exact
    assert abs(corrupted.sum(axis=0)[3]) > 1e-6 * scale  # corrupted density: loud


def test_ward_sum_rule_trips_on_mixed_band_states(haldane_setup):
    # mixing 0.1 of the lowest empty state into the highest occupied one at
    # every k breaks the orthonormal basis the sum rule rests on
    ham, mu, fibers = haldane_setup
    mixed = []
    for f in fibers:
        i = int(np.searchsorted(f.energies, mu)) - 1
        states = f.states.copy()
        states[:, i] += 0.1 * states[:, i + 1]
        mixed.append(response.FiberBasis(k1=f.k1, energies=f.energies, states=states))
    assert response.ward_sum_rule(ham, mu, 0.3, y2=3, n_k=16, fibers=fibers)[1] <= 1e-10
    assert response.ward_sum_rule(ham, mu, 0.3, y2=3, n_k=16, fibers=mixed)[1] > 1e-6


@pytest.mark.parametrize("row", ["-1", "0", "L2-1", "L2"])
def test_ward_sum_rule_refuses_a_row_that_is_not_interior(haldane_setup, monkeypatch, row):
    # on a Dirichlet row every summand is 0, so the residual would pass
    # whatever the model; outside the cylinder there is no row at all
    ham, mu, _ = haldane_setup
    L2 = ham.geometry.L2
    y2 = {"-1": -1, "0": 0, "L2-1": L2 - 1, "L2": L2}[row]

    def no_fiber(*args, **kwargs):
        raise AssertionError("a fiber was diagonalized before y2 was checked")

    monkeypatch.setattr(response, "diagonalize_fiber", no_fiber)
    with pytest.raises(ValueError, match=rf"y2 .*\[1, L2 - 2\] = \[1, 14\], got {y2}$"):
        response.ward_sum_rule(ham, mu, 0.3, y2, 16)


@pytest.mark.parametrize("p1_index, temperature", [(1, 0.0), (2, 0.05), (0, 0.05)])
def test_a_stack_of_weights_is_bitwise_the_single_weight_sums(haldane_setup, p1_index, temperature):
    # the two Wick sides share one strip loop: each weight of a stack gives
    # exactly the sum the loop gives for that weight alone
    ham, mu, fibers = haldane_setup
    first = response._gibbs_weight(mu, temperature, 0.4)
    second = response._gibbs_weight(mu, 0.05, -1.3)
    rows = (7, 4)
    stacked = response._strip_response(
        ham, fibers, p1_index, rows, lambda f_k, f_kp: np.stack([first(f_k, f_kp), second(f_k, f_kp)])
    )
    assert stacked.shape == (2,)
    assert stacked[0] == response._strip_response(ham, fibers, p1_index, rows, first)
    assert stacked[1] == response._strip_response(ham, fibers, p1_index, rows, second)


@pytest.mark.parametrize(
    "name, n_k, run",
    [
        ("current_current", 8, lambda ham, mu, fibers: row_vertices.current_current(
            ham, mu, 0.3, 1, 8, fibers=fibers)),
        ("ward_sum_rule", 8, lambda ham, mu, fibers: response.ward_sum_rule(ham, mu, 0.3, 3, 8, fibers=fibers)),
        ("edge_conductance_free", 32, lambda ham, mu, fibers: response.edge_conductance_free(
            ham, mu, 32, a=6, a_prime=4, fibers=fibers)),
        ("wrong_order_diagnostic", 32, lambda ham, mu, fibers: response.wrong_order_diagnostic(
            ham, mu, 0.7, 32, a_prime=4, fibers=fibers)),
        ("wick_rotation_check", 8, lambda ham, mu, fibers: response.wick_rotation_check(
            ham, mu, 20.0, 50.0, 0.4, 1, 8, 4, 2, fibers=fibers)),
        ("vertex_ward_residual", 32, lambda ham, mu, fibers: response.vertex_ward_residual(
            ham, mu, 0.2, 1, 0.3, 1, 32, fibers=fibers)),
        ("scan_spectrum", 64, lambda ham, mu, fibers: spectrum.scan_spectrum(ham, n_k=64, fibers=fibers)),
    ],
)
def test_a_fiber_grid_of_the_wrong_length_is_refused(haldane_setup, monkeypatch, name, n_k, run):
    # a 16-fiber grid read as another grid would pair the wrong momenta
    ham, mu, fibers = haldane_setup

    def no_vertices(*args, **kwargs):
        raise AssertionError("a vertex was built before the grid was checked")

    monkeypatch.setattr(row_vertices, "build_vertices", no_vertices)
    for name in ("_strip_vertices", "_current_vertex", "_ward_columns"):
        monkeypatch.setattr(response, name, no_vertices)
    with pytest.raises(ValueError, match=f"need {n_k} fibers, got 16"):
        run(ham, mu, fibers)


# ---------------------------------------------------------------------------
# vertex conservation identity
# ---------------------------------------------------------------------------


def test_vertex_ward_pure_frequency_shift(haldane_setup):
    ham, mu, fibers = haldane_setup
    r = response.vertex_ward_residual(ham, mu, 0.8, 2, 0.5, 0, 16, fibers=fibers)
    assert r <= 1e-12


def test_vertex_ward_generic_momenta(haldane_setup, rng):
    ham, mu, fibers = haldane_setup
    for _ in range(5):
        k0 = rng.uniform(-2, 2)
        p0 = rng.uniform(-2, 2)
        ki = int(rng.integers(0, 16))
        pi_ = int(rng.integers(1, 8))
        r = response.vertex_ward_residual(ham, mu, k0, ki, p0, pi_, 16, fibers=fibers)
        assert r <= 1e-10


def test_vertex_ward_at_fermi_point(haldane_setup):
    # small transfer around a momentum near the Fermi crossing: still exact
    ham, mu, fibers = haldane_setup
    r = response.vertex_ward_residual(ham, mu, 1e-3, 8, 1e-3, 1, 16, fibers=fibers)
    assert r <= 1e-10


def test_vertex_ward_mutation_sensitivity(haldane_setup, monkeypatch):
    # dropping the half-weighted diagonal bond currents breaks the identity
    ham, mu, fibers = haldane_setup
    _drop_diagonal_bonds(monkeypatch)
    r = response.vertex_ward_residual(ham, mu, 0.9, 3, -0.4, 2, 16, fibers=fibers)
    assert r > 1e-3


def test_vertex_ward_at_a_propagator_pole_is_named():
    # the decoupled Dirichlet rows sit at energy 0 = mu, and k0 = 0
    ham = random_hermitian_model(np.random.default_rng(0), 4, 4, 1)
    with pytest.raises(response.SingularPropagatorError, match="k0 = 0.0, mu = 0.0"):
        response.vertex_ward_residual(ham, 0.0, 0.0, 0, 1.0, 1, 4)


def test_vertex_ward_hofstadter(hofstadter16):
    fibers = response.fiber_cache(hofstadter16, 24)
    r = response.vertex_ward_residual(hofstadter16, -1.0, 0.7, 5, 0.3, 3, 24, fibers=fibers)
    assert r <= 1e-10


# ---------------------------------------------------------------------------
# current-current correlation
# ---------------------------------------------------------------------------


def test_lindhard_matsubara_oracle():
    # single-band ring at finite temperature against an explicit frequency
    # sum with a subtracted-tail correction
    g = lattice.CylinderGeometry(16, 8, 1)
    ham = lattice.chain_cylinder(g, t=1.0)
    mu, temp, p0_index, p1_index = 0.2, 0.25, 3, 2
    n_k = 16
    beta = 1.0 / temp
    p0 = 2.0 * np.pi / beta * p0_index
    fibers = response.fiber_cache(ham, n_k)
    res = row_vertices.current_current(
        ham, mu, p0, p1_index, n_k, temperature=temp, strips=(3, 3),
        components=((0, 0),), fibers=fibers,
    )
    got = res[(0, 0)][2, 2]

    # oracle: the fermion loop -(1/beta) sum_n g_a(i w_n) g_b(i w_n + i p0)
    # with the equal-energy summand subtracted (its own sum vanishes at
    # nonzero p0), which makes the tail fall off like 1/w^3
    n_freq = 4096
    ns = np.arange(-n_freq, n_freq)
    w_n = 2.0 * np.pi / beta * (ns + 0.5)
    want = 0.0 + 0.0j
    for m in range(n_k):
        f_k = fibers[m]
        f_kp = fibers[(m + p1_index) % n_k]
        vs_fwd = row_vertices.build_vertices(ham, f_k, f_kp)
        vs_bwd = row_vertices.build_vertices(ham, f_kp, f_k)
        na = vs_fwd.density[2]
        nb = vs_bwd.density[2]
        for a in range(f_k.dim):
            for b in range(f_kp.dim):
                weight = na[a, b] * nb[b, a]
                if weight == 0.0:
                    continue
                ea = f_k.energies[a] - mu
                eb = f_kp.energies[b] - mu
                c = 0.5 * (ea + eb)
                raw = 1.0 / ((1j * w_n - ea) * (1j * (w_n + p0) - eb))
                sub = 1.0 / ((1j * w_n - c) * (1j * (w_n + p0) - c))
                want += -weight * np.sum(raw - sub) / beta
    want /= n_k
    assert abs(got - want) < 1e-8 * max(abs(got), 1.0)


def test_response_vanishes_below_band():
    g = lattice.CylinderGeometry(12, 8, 1)
    ham = lattice.chain_cylinder(g)
    res = row_vertices.current_current(ham, -5.0, 0.0, 0, 12, strips=(5, 5))
    assert np.max(np.abs(res[(0, 1)])) == 0.0


def test_response_transpose_symmetry(haldane_setup):
    # S_{mu nu}(p; x2, y2) = S_{nu mu}(-p; y2, x2)
    ham, mu, fibers = haldane_setup
    g = ham.geometry
    kw = dict(n_k=16, strips=(g.L2 - 1, g.L2 - 1), fibers=fibers)
    a = row_vertices.current_current(ham, mu, 0.37, 3, components=((0, 1),), **kw)
    b = row_vertices.current_current(ham, mu, -0.37, 16 - 3, components=((1, 0),), **kw)
    t1 = a[(0, 1)]
    t2 = b[(1, 0)]
    assert np.max(np.abs(t1 - t2.T)) < 1e-10 * np.max(np.abs(t1))


def test_response_reality_symmetry(haldane_setup):
    # conj S_00((0, p1)) = S_00((0, -p1))
    ham, mu, fibers = haldane_setup
    kw = dict(n_k=16, strips=(5, 5), components=((0, 0),), fibers=fibers)
    a = row_vertices.current_current(ham, mu, 0.0, 2, **kw)
    b = row_vertices.current_current(ham, mu, 0.0, 14, **kw)
    assert np.max(np.abs(np.conj(a[(0, 0)]) - b[(0, 0)])) < 1e-12


def test_degenerate_crossing_error():
    g = lattice.CylinderGeometry(16, 8, 1)
    base = lattice.chain_cylinder(g, t=1.0)
    split = 1e-13
    stack = lattice.stacked_shifted([base, base], [0.0, split])
    # energies at k and k + p coincide across the two copies by the
    # cosine symmetry; squeeze mu between the split pair
    k_star = 2.0 * np.pi * 7 / 16
    e_star = -2.0 * np.cos(k_star)
    with pytest.raises(response.DegenerateCrossingError):
        row_vertices.current_current(stack, e_star + 0.5 * split, 0.0, 2, 16, strips=(3, 3))


# ---------------------------------------------------------------------------
# conductance
# ---------------------------------------------------------------------------


def test_conductance_config_error(haldane_setup):
    ham, mu, fibers = haldane_setup
    with pytest.raises(ValueError):
        response.edge_conductance_free(ham, mu, 16, a=4, a_prime=6, fibers=fibers)


def test_hopping_lookups_do_not_grow_with_the_ring(monkeypatch):
    # the vertex build reads the model's row table, built once per model
    calls = []
    block = lattice.LatticeHamiltonian.block

    def counted(self, *key):
        calls.append(key)
        return block(self, *key)

    monkeypatch.setattr(lattice.LatticeHamiltonian, "block", counted)
    counts = []
    for n_k in (16, 32):
        ham = lattice.haldane_cylinder(L1=n_k, L2=16)
        calls.clear()
        response.edge_conductance_free(ham, 0.15, n_k, a=6, a_prime=4)
        counts.append(len(calls))
    assert counts[1] <= counts[0]


def test_conductance_converges_in_the_ring_length():
    # |2 pi G - 1| falls like 1 / L1^2 (L1^2 |2 pi G - 1| is about 40 here)
    gaps = []
    for L1 in (48, 96, 192):
        ham = lattice.haldane_cylinder(L1=L1, L2=24)
        est = response.edge_conductance_free(ham, 0.15, L1, a=12, a_prime=6)
        gaps.append(abs(2.0 * np.pi * est.g - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-3


def test_strip_decay(haldane_setup):
    # widening both strips changes G by an exponentially small amount
    g = lattice.CylinderGeometry(24, 24, 2)
    ham = lattice.haldane_cylinder(g)
    fibers = response.fiber_cache(ham, 24)
    mu = 0.15
    gs = []
    for a, ap in ((8, 4), (10, 6), (12, 8)):
        est = response.edge_conductance_free(ham, mu, 24, a=a, a_prime=ap, fibers=fibers)
        gs.append(est.g)
    d1, d2 = abs(gs[1] - gs[0]), abs(gs[2] - gs[1])
    assert d2 < d1
    decay = 0.5 * np.log(d1 / d2)  # per-row decay constant
    assert decay > 0.2


def test_wrong_order_diagnostic_vanishes(haldane_setup):
    ham, mu, fibers = haldane_setup
    val = response.wrong_order_diagnostic(ham, mu, 0.4, 16, a_prime=4, fibers=fibers)
    assert abs(val) < 1e-14


@pytest.fixture(scope="module")
def counter_stack():
    g = lattice.CylinderGeometry(24, 16, 2)
    copies = [lattice.haldane_cylinder(g), lattice.haldane_cylinder(g, phi=-np.pi / 2)]
    stack = lattice.stacked_shifted(copies, [0.0, 0.1])
    return stack, response.fiber_cache(stack, 24)


def test_conjugation_check_passes_a_cancelling_stack(counter_stack):
    # the counter-propagating stack cancels G down to rounding; the check is
    # relative to one conductance quantum, so rounding does not trip it
    stack, fibers = counter_stack
    est = response.edge_conductance_free(stack, 0.15, 24, a=6, a_prime=4, fibers=fibers)
    assert abs(2.0 * np.pi * est.g) < 1e-9


def test_conjugation_check_trips_on_a_broken_vertex(counter_stack, monkeypatch):
    # the symmetry holds term by term for any fiber list, so a defect shows
    # in the vertices: the strip-summed density of every p1 = -1 pair is shifted
    stack, fibers = counter_stack
    build = response._strip_vertices
    back = 2.0 * np.pi * 23 / 24  # p1 = -1 on the ring of 24

    def broken(basis_k, basis_kp, strip, current):
        dbar, jbar = build(basis_k, basis_kp, strip, current)
        if np.isclose((basis_kp.k1 - basis_k.k1) % (2.0 * np.pi), back):
            dbar = dbar + 0.1
        return dbar, jbar

    monkeypatch.setattr(response, "_strip_vertices", broken)
    with pytest.raises(response.ConjugationSymmetryError):
        response.edge_conductance_free(stack, 0.15, 24, a=6, a_prime=4, fibers=fibers)


def test_precomputed_fibers_do_not_skip_the_hermiticity_check(counter_stack, hermitian_checks):
    # a block without its Hermitian partner is named before any strip sum runs
    stack, fibers = counter_stack
    broken = stack.shifted(0.0)  # a copy
    broken.add_block(1, 3, 3, 0.1 * np.eye(4))
    with pytest.raises(lattice.HermiticityError, match=r"\(1, 3, 3\)"):
        response.edge_conductance_free(broken, 0.15, 24, a=6, a_prime=4, fibers=fibers)
    assert hermitian_checks == [broken]


def test_fibers_split_unlike_the_model_are_refused(counter_stack):
    # fibers diagonalized before a block coupled the two copies hold two
    # summands; the edited model has one, so no strip sum can pair them
    stack, fibers = counter_stack
    coupled = stack.shifted(0.0)  # a copy
    hop = np.zeros((4, 4))
    hop[1, 2] = hop[2, 1] = 0.05
    coupled.add_block(0, 3, 3, hop)
    with pytest.raises(ValueError, match="the fibers hold 2 summands, the model 1"):
        response.edge_conductance_free(coupled, 0.15, 24, a=6, a_prime=4, fibers=fibers)


def test_conductance_trivial_gap_vanishes():
    g = lattice.CylinderGeometry(32, 20, 2)
    ham = lattice.haldane_cylinder(g, m_stag=1.5)
    est = response.edge_conductance_free(ham, 0.15, 32, a=10, a_prime=5)
    assert abs(2.0 * np.pi * est.g) <= 0.05


# ---------------------------------------------------------------------------
# real- vs imaginary-time comparison
# ---------------------------------------------------------------------------


def test_wick_rotation_beta_scaling():
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
    assert res[20.0] / res[40.0] >= 1.8
    assert res[40.0] / res[80.0] >= 1.8


def test_wick_rotation_horizon_envelope():
    g = lattice.CylinderGeometry(12, 12, 2)
    ham = lattice.haldane_cylinder(g)
    fibers = response.fiber_cache(ham, 12)
    eta = 2.0 * np.pi / 20.0 * (1.0 + 1.0 / 3.0)
    beta = 20.0

    def residual(T):
        _, _, r = response.wick_rotation_check(
            ham, 0.15, beta, T, eta, 1, 12, a=4, a_prime=2, fibers=fibers
        )
        return r

    plateau = residual(400.0)
    assert plateau > 0.0
    gaps = [abs(residual(T) - plateau) for T in (4.0, 8.0, 16.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    # the finite-horizon excess decays like exp(-eta T)
    rate = np.log(gaps[0] / gaps[2]) / 12.0
    assert rate == pytest.approx(eta, rel=0.3)
    assert abs(residual(64.0) - plateau) < 0.05 * plateau


def test_wick_rotation_two_term_bound_shape():
    # residual(beta, T) fits A / beta + K exp(-eta T) over a 3 x 3 sweep
    g = lattice.CylinderGeometry(12, 12, 2)
    ham = lattice.haldane_cylinder(g)
    fibers = response.fiber_cache(ham, 12)
    eta = 2.0 * np.pi / 20.0 * (1.0 + 1.0 / 3.0)
    betas = (20.0, 40.0, 80.0)
    horizons = (4.0, 8.0, 200.0)
    rows, rhs = [], []
    for beta in betas:
        for T in horizons:
            _, _, r = response.wick_rotation_check(
                ham, 0.15, beta, T, eta, 1, 12, a=4, a_prime=2, fibers=fibers
            )
            rows.append([1.0 / beta, np.exp(-eta * T)])
            rhs.append(r)
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    fit = np.array(rows) @ coef
    rel = np.abs(fit - rhs) / np.max(rhs)
    assert coef[0] > 0.0 and coef[1] > 0.0
    assert np.max(rel) < 0.3


def test_wick_rotation_empty_band():
    g = lattice.CylinderGeometry(12, 8, 1)
    ham = lattice.chain_cylinder(g)
    lhs, rhs, res = response.wick_rotation_check(
        ham, -10.0, 20.0, 50.0, 0.4, 1, 12, a=3, a_prime=2
    )
    # all occupations are exponentially empty at beta (mu - band) ~ 160
    assert abs(lhs) < 1e-60 and abs(rhs) < 1e-60 and res < 1e-60


def test_wick_rotation_frequency_guard():
    g = lattice.CylinderGeometry(12, 8, 1)
    ham = lattice.chain_cylinder(g)
    with pytest.raises(ValueError):
        response.wick_rotation_check(ham, 0.0, 4.0, 50.0, 0.3, 1, 12, a=3, a_prime=2)
