import functools
import gc
import sys
import time
import weakref

import numpy as np
import pytest

import row_vertices
from edgeflow import lattice, response, spectrum
from conftest import mirrored_momenta, off_mirror_twin, random_hermitian_model, shifted


@pytest.fixture(scope="module")
def haldane_setup():
    g = lattice.CylinderGeometry(16, 16, 2)
    ham = lattice.haldane_cylinder(g)
    (grid,) = response.fiber_cache(ham, 16)
    return ham, 0.15, grid


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
        j_diag = np.real(row_vertices.current_vertex(f, f, current).diagonal())
        step = 1e-6
        e_p = np.linalg.eigvalsh(lattice.assemble_fiber(ham, k + step))
        e_m = np.linalg.eigvalsh(lattice.assemble_fiber(ham, k - step))
        dnum = (e_p - e_m) / (2 * step)
        # interior rows disperse, Dirichlet rows do not; compare as sets
        assert np.allclose(np.sort(j_diag), np.sort(dnum), atol=1e-6)


def assert_same_grids(serial, threaded):
    # per summand: the two grids come from two models, so both were really
    # diagonalized, and both took the same momenta from the mirror
    for grid_a, grid_b in zip(serial, threaded, strict=True):
        assert mirrored_momenta(grid_a) == mirrored_momenta(grid_b)
        for a, b in zip(grid_a, grid_b, strict=True):
            assert a is not b and a.k1 == b.k1
            assert np.array_equal(a.energies, b.energies)
            assert np.array_equal(a.states, b.states)


def counter_stack_model():
    g = lattice.CylinderGeometry(16, 12, 2)
    return lattice.stacked_shifted([lattice.haldane_cylinder(g), lattice.haldane_cylinder(g, phi=-np.pi / 2)], [0.0, 0.1])


ONE_AND_TWO_SUMMANDS = pytest.mark.parametrize(
    "make", [lambda: lattice.haldane_cylinder(L1=16, L2=12), counter_stack_model], ids=["connected", "direct-sum"]
)


def term_loop_operator(ham, terms, weight):
    """The oracle of ``response._current_operator``: one zero matrix per
    ``(u1, v1)``, in the order of the row-offset groups, and each bond term
    added on all its rows in turn."""
    g = ham.geometry
    z1s, slabs = ham._slab_stack()
    hops = {int(z1): slab.reshape(g.L2, g.M, g.L2, g.M) for z1, slab in zip(z1s, slabs)}
    on = np.flatnonzero(weight)
    lo, hi = (max(on[0] - 1, 0), min(on[-1] + 2, g.L2)) if on.size else (0, 0)
    ops = {}
    for (du, dv), group in response._row_groups(terms).items():
        y2 = on[(on + min(du, dv) >= 0) & (on + max(du, dv) < g.L2)]
        coef = weight[y2, None, None]
        for (u1, v1, z1, wgt) in group:
            op = ops.setdefault((u1, v1), np.zeros((hi - lo, g.M, hi - lo, g.M), dtype=complex))
            if z1 in hops:
                op[y2 + du - lo, :, y2 + dv - lo] += 1j * wgt * coef * hops[z1][y2 + du, :, y2 + dv]
    n = (hi - lo) * g.M
    return slice(lo * g.M, hi * g.M), [(u1, v1, op.reshape(n, n)) for (u1, v1), op in ops.items()]


@pytest.mark.parametrize(
    "make",
    [
        lambda: lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2)),
        lambda: lattice.hofstadter_cylinder(lattice.CylinderGeometry(24, 16, 1)),
        lambda: random_hermitian_model(np.random.default_rng(3), 12, 12, 2),
        counter_stack_model,
    ],
    ids=["haldane", "hofstadter", "random", "counter-stack"],
)
def test_the_current_operator_is_the_bond_term_loop(make):
    # every weight a response passes: all rows (the vertex identity), one
    # row (the sum rule) and a strip (the strip sums); the row-pair
    # coefficients are sums of halves and ones, so the entries are equal
    ham = make()
    L2 = ham.geometry.L2
    rows = np.arange(L2)
    weights = [np.ones(L2)] + [1.0 * (rows == y2) for y2 in (1, 5, L2 - 2)]
    weights += [1.0 * (rows < n) for n in (0, 1, 4, L2 - 1, L2)]
    for weight in weights:
        for terms in (response._J1_TERMS, response._J2_TERMS):
            span, mats = response._current_operator(ham, terms, weight)
            want_span, want = term_loop_operator(ham, terms, weight)
            assert span == want_span
            assert [(u1, v1) for u1, v1, _ in mats] == [(u1, v1) for u1, v1, _ in want]
            for (_, _, got), (_, _, ref) in zip(mats, want):
                assert np.array_equal(got, ref)


def test_fiber_cache_threaded_matches_serial(haldane_setup):
    _, _, serial = haldane_setup
    twin = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2))
    assert_same_grids((serial,), response.fiber_cache(twin, 16, threads=4))


def test_threaded_fiber_cache_checks_a_fresh_model_once(hermitian_checks, monkeypatch):
    # fiber_cache reads the model (check, slab stack, summands) before its
    # pool starts, so a slow check is over before any thread asks for the
    # stack: the model is checked once, and the pooled grid is the serial one
    check = lattice.LatticeHamiltonian.check_hermitian

    def slow(ham, *args, **kwargs):
        time.sleep(0.05)
        return check(ham, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeHamiltonian, "check_hermitian", slow)
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2))
    threaded = response.fiber_cache(ham, 16, threads=4)
    assert hermitian_checks == [ham]
    twin = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2))
    assert_same_grids(response.fiber_cache(twin, 16), threaded)


@pytest.mark.parametrize("threads", [2, 4])
def test_threaded_fiber_cache_splits_a_fresh_stack_once(hermitian_checks, monkeypatch, threads):
    # fiber_cache reads the stack (check, slab stack, summands) before its
    # pool starts, so a slow check is over before any thread asks for the
    # summands: the stack is checked and split once, and the pooled grid is
    # the serial one
    check = lattice.LatticeHamiltonian.check_hermitian

    def slow(ham, *args, **kwargs):
        time.sleep(0.05)
        return check(ham, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeHamiltonian, "check_hermitian", slow)
    stack = counter_stack_model()
    threaded = response.fiber_cache(stack, 16, threads=threads)
    subs = [sub for _, sub in stack.summands()]
    assert len(subs) == 2
    # one check of the stack, so its slabs and summands were built once; the
    # sub-models hold restrictions of checked blocks and are not checked again
    assert hermitian_checks == [stack]
    assert_same_grids(response.fiber_cache(counter_stack_model(), 16), threaded)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of each ``np.linalg.eigh`` call, in order."""
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


@ONE_AND_TWO_SUMMANDS
def test_a_repeated_momentum_returns_the_stored_basis(eigh_calls, make):
    ham = make()
    summands = ham.summands()
    first = [grid[3] for grid in response.fiber_cache(ham, 16)]
    assert len(eigh_calls) == 9 * len(summands)
    assert all(a is b for a, b in zip((grid[3] for grid in response.fiber_cache(ham, 16)), first, strict=True))
    assert len(eigh_calls) == 9 * len(summands)
    # the key is the grid's size: 2 pi 6 / 32 is the same float, but the
    # 32-grid is its own grid, solved whole
    for finer, b in zip((grid[6] for grid in response.fiber_cache(ham, 32)), first, strict=True):
        assert finer.k1 == b.k1 and finer is not b
    assert len(eigh_calls) == (9 + 17) * len(summands)
    # an off-grid solve at that momentum is one eigh of the whole fiber, and
    # stores nothing
    solved = response.diagonalize_fiber(ham, first[0].k1)
    assert solved.dim == ham.geometry.fiber_dim and not any(solved is b for b in first)
    assert len(eigh_calls) == (9 + 17) * len(summands) + 1
    assert [list(sub._grids) for _, sub in summands] == [[16, 32]] * len(summands)


def test_one_model_solves_its_grid_once_for_every_identity(eigh_calls):
    # the sum rule at two temperatures, the wrong-order limit and the vertex
    # identity on grid momenta all read the model's one grid of n_k fibers,
    # of which Haldane's inversion mirror gives the momenta m > n_k - m
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 12, 2))
    n_k, mu = 16, 0.15
    for temperature in (0.0, 0.05):
        response.ward_sum_rule(ham, mu, 0.7, 3, n_k, temperature=temperature)
    response.wrong_order_diagnostic(ham, mu, 0.7, n_k, a_prime=3)
    assert len(eigh_calls) == n_k // 2 + 1
    for k1_index, p1_index in ((3, 5), (14, 7), (-1, 1)):
        response.vertex_ward_residual(ham, mu, 0.4, k1_index, 0.3, p1_index, n_k)
    assert len(eigh_calls) == n_k // 2 + 1


@pytest.mark.parametrize("threads", [1, 4])
def test_a_grid_fills_the_map(eigh_calls, threads):
    # four threads on a short switch interval: no stored basis is lost; each
    # copy of the stack solves the 9 momenta m <= 16 - m and mirrors the rest
    stack = counter_stack_model()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        grids = response.fiber_cache(stack, 16, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(eigh_calls) == 2 * 9
    # the stack stores nothing of its own, each copy its grid
    assert not stack._grids
    for (_, sub), grid in zip(stack.summands(), grids, strict=True):
        assert list(sub._grids) == [16] and sub._grids[16] is grid and len(grid) == 16
    again = response.fiber_cache(stack, 16)
    assert all(a is b for a, b in zip(grids, again, strict=True))
    assert len(eigh_calls) == 2 * 9


NO_MIRROR = {
    "haldane-m_stag": lambda: lattice.haldane_cylinder(L1=16, L2=12, m_stag=0.2),
    "hofstadter": lambda: lattice.hofstadter_cylinder(L1=24, L2=16),
    "haldane-one-ulp-off": lambda: off_mirror_twin(lattice.haldane_cylinder(L1=16, L2=12)),
}


@pytest.mark.parametrize(
    "make, threads",
    [
        pytest.param(make, threads, id=name if threads == 1 else f"{name}-{threads}-threads")
        for name, make in NO_MIRROR.items()
        for threads in (1, 2)
    ],
)
def test_a_model_without_a_mirror_solves_the_whole_ring(eigh_calls, make, threads):
    # a staggered mass breaks the sublattice swap, the Landau-gauge phases
    # are no mirror's bitwise, and one ulp in one block pair is enough; the
    # pool solves the same 16 momenta as one thread, bitwise
    ham = make()
    grids = response.fiber_cache(ham, 16, threads=threads)
    assert ham._mirror is None
    assert len(eigh_calls) == 16
    assert mirrored_momenta(grids[0]) == []
    assert_same_grids(response.fiber_cache(make(), 16), grids)


def test_a_stack_mirrors_only_its_mirrored_summand(eigh_calls):
    g = lattice.CylinderGeometry(16, 12, 2)
    stack = lattice.stacked_shifted([lattice.haldane_cylinder(g), lattice.haldane_cylinder(g, m_stag=0.2)], [0.0, 0.1])
    plain_grid, massive_grid = response.fiber_cache(stack, 16)
    (_, plain), (_, massive) = stack.summands()
    assert plain._mirror is not None and massive._mirror is None
    assert len(eigh_calls) == 9 + 16
    assert mirrored_momenta(plain_grid) == [m for m in range(16) if 16 - m < m]
    assert mirrored_momenta(massive_grid) == []


@pytest.mark.parametrize(
    "make",
    [
        functools.partial(lattice.haldane_cylinder, L1=44, L2=12),
        functools.partial(lattice.build_model, "stacked-haldane", 44, 12, shifts="0.0,0.1", flips="0,1"),
    ],
    ids=["haldane", "counter-stack"],
)
def test_a_coarse_grid_read_first_does_not_change_a_fine_one(make):
    # 2 pi 33 / 44 is the float 2 pi 3 / 4, and 2 pi 11 / 44 is not 2 pi 1 / 4:
    # a store keyed by the momentum mirrored the 44-grid's m = 33 from the
    # 4-grid's m = 1, off a fresh model's by 2.2e-15; a grid keyed by its
    # size takes m = 33 from its own m = 11
    ham = make()
    response.fiber_cache(ham, 4)
    grid = response.fiber_cache(ham, 44)
    assert_same_grids(response.fiber_cache(make(), 44), grid)
    assert all(set(sub._grids) == {4, 44} for _, sub in ham.summands())


def test_an_off_grid_solve_does_not_change_a_grid_read():
    # 2 pi 12/16 asked off the grid first is not stored, so the grid read
    # still takes m = 12 from the mirror of m = 4
    make = functools.partial(lattice.haldane_cylinder, L1=16, L2=12)
    ham = make()
    response.diagonalize_fiber(ham, 2.0 * np.pi * 12 / 16)
    stored = set(ham._grids)
    grids = response.fiber_cache(ham, 16)
    assert_same_grids(response.fiber_cache(make(), 16), grids)
    assert 12 in mirrored_momenta(grids[0])
    assert not stored and set(ham._grids) == {16}


def test_the_charge_count_stores_only_its_grid():
    # the count halves two intervals of the 6-grid; their midpoints 2 pi 5/12
    # and 2 pi 7/12 are not stored, so a later 12-grid read mirrors m = 7
    make = functools.partial(lattice.haldane_cylinder, L1=6, L2=12)
    ham = make()
    assert spectrum.lower_edge_chirality(ham, 0.1, 6) == 1
    stored = set(ham._grids)
    grids = response.fiber_cache(ham, 12)
    assert_same_grids(response.fiber_cache(make(), 12), grids)
    assert 7 in mirrored_momenta(grids[0])
    assert stored == {6} and set(ham._grids) == {6, 12}


def test_a_read_stack_stores_nothing_of_its_own():
    # the responses, the count and an off-grid solve of the whole fiber read
    # the stack; each copy stores its grid and the stack keeps no merged basis
    stack = counter_stack_model()
    response.edge_conductance_free(stack, 0.15, 16, a=6, a_prime=4)
    response.ward_sum_rule(stack, 0.15, 0.7, 3, 16)
    response.vertex_ward_residual(stack, 0.15, 0.4, 3, 0.3, 5, 16)
    spectrum.lower_edge_chirality(stack, 0.15, 16)
    response.diagonalize_fiber(stack, 0.3)
    assert not stack._grids
    assert [set(sub._grids) for _, sub in stack.summands()] == [{16}] * 2


@ONE_AND_TWO_SUMMANDS
def test_a_model_with_stored_fibers_is_freed_by_refcount(make):
    # the stored bases and currents hold no reference back to the model, so a
    # model that one command builds goes with its last reference, with no
    # cycle to collect
    ham = make()
    response.fiber_cache(ham, 16)
    response.vertex_ward_residual(ham, 0.15, 0.4, 3, 0.3, 5, 16)
    model = weakref.ref(ham)
    gc.disable()
    try:
        del ham
        assert model() is None
    finally:
        gc.enable()


def test_an_edit_after_a_read_is_refused_and_the_stored_fibers_kept():
    # the read model keeps its grid; built with the edit, a model reads the
    # edited fibers, and an edit that breaks Hermiticity is refused, not read
    g = lattice.CylinderGeometry(16, 12, 2)
    onsite = np.diag([0.2, -0.2])
    ham = lattice.haldane_cylinder(g)
    (grid,) = response.fiber_cache(ham, 16)
    with pytest.raises(ValueError, match=r"block at \(0, 4, 4\): the model was already read"):
        ham.add_block(0, 4, 4, onsite)
    assert ham._grids == {16: grid}
    assert response.fiber_cache(ham, 16)[0] is grid
    edited = lattice.haldane_cylinder(g)
    edited.add_block(0, 4, 4, onsite)
    assert not np.array_equal(response.diagonalize_fiber(edited, grid[1].k1).energies, grid[1].energies)
    broken = lattice.haldane_cylinder(g)
    broken.add_block(1, 5, 6, np.eye(2))  # no partner at (-1, 6, 5)
    for k1 in (0.0, 2.0 * np.pi / 16):
        with pytest.raises(lattice.HermiticityError, match=r"\(1, 5, 6\)"):
            response.diagonalize_fiber(broken, k1)
    assert not broken._grids


def test_a_summand_of_a_read_stack_refuses_an_edit():
    # an edit of a summand would reach the whole model's unstored fibers only
    stack = counter_stack_model()
    with pytest.raises(ValueError, match=r"block at \(0, 4, 4\): the model was already read"):
        stack.summands()[1][1].add_block(0, 4, 4, 0.5 * np.eye(2))
    assert_same_grids(response.fiber_cache(counter_stack_model(), 16), response.fiber_cache(stack, 16))


@ONE_AND_TWO_SUMMANDS
def test_a_stored_basis_is_read_only(make):
    # a solved basis and a mirrored one
    ham = make()
    for m in (3, 13):
        bases = [grid[m] for grid in response.fiber_cache(ham, 16)]
        for a in (a for basis in bases for a in (basis.energies, basis.states)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            bases[0].energies += 1.0
        assert all(a is b for a, b in zip((grid[m] for grid in response.fiber_cache(ham, 16)), bases, strict=True))
    assert [set(sub._grids) for _, sub in ham.summands()] == [{16}] * len(ham.summands())


def test_one_vertex_build_per_fiber_pair(haldane_setup, counter_stack, monkeypatch):
    # the backward leg of each loop is the conjugate of the forward vertices,
    # so each (k, k + p) pair is built once, row-resolved by the oracle's
    # build_vertices.  The strip sums build each fiber's legs once per
    # summand and call, for every momentum of the call (_fiber_legs), and
    # every current is a fixed fiber operator, read from _current_operator
    # once per summand, component and call, not once per pair or momentum
    # (what it builds, not reads, is counted in the test below)
    owners = {"build_vertices": row_vertices, "_fiber_legs": response, "_current_operator": response}
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

    ham, mu, _ = haldane_setup
    n_k = 16
    eta = 2.0 * np.pi / 20.0 * (4.0 / 3.0)
    assert builds(lambda: row_vertices.current_current(ham, mu, 0.3, 2, n_k)) == (n_k, 0, 0)
    # the sum rule: one operator per current component, none per fiber
    assert builds(lambda: response.ward_sum_rule(ham, mu, 0.3, 3, n_k)) == (0, 0, 2)
    assert builds(lambda: response.vertex_ward_residual(ham, mu, 0.2, 1, 0.3, 1, n_k)) == (0, 0, 1)
    assert builds(lambda: response.wick_rotation_check(
        ham, mu, 20.0, 50.0, eta, 1, n_k, a=4, a_prime=2)) == (0, n_k, 1)
    assert builds(lambda: response.wrong_order_diagnostic(ham, mu, 0.4, n_k, a_prime=4)) == (0, n_k, 1)
    # the four momenta of the conductance share one strip current and one
    # set of legs per fiber
    assert builds(lambda: response.edge_conductance_free(
        ham, mu, n_k, a=6, a_prime=4)) == (0, n_k, 1)
    # two summands: one operator and one set of legs per fiber for each
    stack, _ = counter_stack
    assert builds(lambda: response.edge_conductance_free(
        stack, 0.15, 24, a=6, a_prime=4)) == (0, 2 * 24, 2)
    assert builds(lambda: response.ward_sum_rule(stack, 0.15, 0.3, 3, 24)) == (0, 0, 2 * 2)


@pytest.fixture
def current_builds(monkeypatch):
    """Count the current operators ``_current_operator`` builds: each build
    groups the bond terms once (``_row_groups``), a stored read does not."""
    calls = []
    groups = response._row_groups

    def counted(terms):
        calls.append(terms)
        return groups(terms)

    monkeypatch.setattr(response, "_row_groups", counted)
    return calls


def test_a_model_builds_each_current_once(current_builds):
    # a summand keeps every current it was asked for, so the identities
    # asked again of one model, at another temperature or other momenta,
    # build no operator; the stored one is returned, read-only
    ham, mu, n_k = lattice.haldane_cylinder(L1=16, L2=12), 0.15, 16
    momenta = [(0.4, 3, 0.3, 5), (-1.2, 0, 0.8, 1), (0.9, 7, -0.4, 2), (1.7, 15, 1.1, 8), (-0.3, 9, -1.5, 4)]

    def builds(run):
        current_builds.clear()
        run()
        return len(current_builds)

    assert builds(lambda: response.ward_sum_rule(ham, mu, 0.7, 3, n_k)) == 2
    assert builds(lambda: response.ward_sum_rule(ham, mu, 0.7, 3, n_k, temperature=0.05)) == 0
    assert builds(lambda: response.ward_sum_rule(ham, mu, -0.7, 4, n_k)) == 2
    assert builds(lambda: response.vertex_ward_residual(ham, mu, 0.2, 1, 0.3, 1, n_k)) == 1
    assert builds(lambda: [response.vertex_ward_residual(ham, mu, *at, n_k) for at in momenta]) == 0
    assert builds(lambda: response.wrong_order_diagnostic(ham, mu, 0.7, n_k, a_prime=3)) == 1
    assert builds(lambda: response.wrong_order_diagnostic(ham, mu, -0.7, n_k, a_prime=3)) == 0
    assert len(ham._currents) == 6
    # the key is the weight's values, not its dtype: a boolean row is the float row
    rows = np.arange(12)
    current = response._current_operator(ham, response._J1_TERMS, rows == 3)
    assert response._current_operator(ham, response._J1_TERMS, 1.0 * (rows == 3)) is current
    assert response._current_operator(ham, list(response._J1_TERMS), rows == 3) is current
    for _, _, mat in current[1]:
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 0.0
    assert not current_builds


def test_a_stack_stores_each_current_on_its_summands(current_builds):
    # one entry per summand, on the summand itself, and none on the stack
    stack = counter_stack_model()
    response.vertex_ward_residual(stack, 0.15, 0.4, 3, 0.3, 5, 16)
    assert len(current_builds) == 2
    assert not stack._currents
    assert [len(sub._currents) for _, sub in stack.summands()] == [1, 1]
    response.vertex_ward_residual(stack, 0.15, -0.8, 6, 0.5, 2, 16)
    assert len(current_builds) == 2


def test_patched_bond_terms_miss_the_stored_current(current_builds, monkeypatch):
    # the key is the terms' contents: a stored all-rows current does not
    # stand in for the current of other bond terms, so the vertex identity
    # still breaks when the diagonal bonds are dropped
    ham = lattice.haldane_cylinder(L1=16, L2=12)
    assert response.vertex_ward_residual(ham, 0.15, 0.9, 3, -0.4, 2, 16) <= 1e-10
    _drop_diagonal_bonds(monkeypatch)
    assert response.vertex_ward_residual(ham, 0.15, 0.9, 3, -0.4, 2, 16) > 1e-3
    assert len(current_builds) == len(ham._currents) == 2


# ---------------------------------------------------------------------------
# charge conservation
# ---------------------------------------------------------------------------


def test_ward_sum_rule_haldane(haldane_setup):
    ham, mu, _ = haldane_setup
    res = response.ward_sum_rule(ham, mu, 0.3, y2=3, n_k=16)
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
        for _ in range(5):
            p0 = rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0])
            y2 = int(rng.integers(1, 11))
            res = response.ward_sum_rule(ham, mu, p0, y2, 12)
            assert res[1] <= 1e-10 and res[2] <= 1e-10


@pytest.mark.parametrize("p0", [0.3, 1e-300, 2.2250738585e-313, -5e-324])
def test_equal_occupations_have_zero_weight_at_every_frequency(p0):
    # two Dirichlet-row zero modes at mu = 0: 0 / (i p0) is NaN for a
    # subnormal p0, the weight is 0
    e_a = np.array([-2.18, 0.0, 0.0, 0.45])
    e_b = np.array([-2.19, -0.54, 0.0, 0.0])
    w = row_vertices.pair_weight(e_a, e_b, 0.0, 0.0, p0)
    assert np.all(np.isfinite(w))
    same = (e_a < 0.0)[:, None] == (e_b < 0.0)[None, :]
    assert np.all(w[same] == 0.0) and np.all(w[~same] != 0.0)


def test_the_block_guard_names_a_degenerate_pair_across_mu_only():
    # at p0 = 0 an occupied and an empty state closer than 1e-12 are a pole
    # of the zero-temperature weight, in either block; a degenerate pair on
    # one side of mu is in no block, and a pair across mu 2e-12 apart is
    # resolved
    mu = 0.1
    weight = response._gibbs_weight(mu, 0.0)

    def fiber(*e):
        return np.sort([-2.0, *e, 2.0])

    below, above = mu - 4e-13, mu + 4e-13
    for e_k, e_kp in ((fiber(below), fiber(above)), (fiber(above), fiber(below))):
        with pytest.raises(response.DegenerateCrossingError):
            weight(e_k, e_kp)
        with pytest.raises(response.DegenerateCrossingError):
            row_vertices.pair_weight(e_k, e_kp, mu, 0.0, 0.0)
        # at p0 != 0 the pair is no pole
        assert all(np.all(np.isfinite(w)) for _, _, w in response._gibbs_weight(mu, 0.3)(e_k, e_kp))
    for e in (mu - 1e-3, mu + 1e-3):
        for e_k, e_kp in ((fiber(e), fiber(e)), (fiber(e), fiber(e + 1e-14))):
            assert all(np.max(np.abs(w)) < 1e3 for _, _, w in weight(e_k, e_kp))
    assert len(weight(fiber(mu - 1e-12), fiber(mu + 1e-12))) == 2


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
        w = row_vertices.pair_weight(f_k.energies, f_k.energies, mu, 0.0, 0.3)
        total += np.einsum("xab,yba,ab->xy", vs_fwd.density, vs_bwd.current1, w)
        bad_density = vs_fwd.density.copy()
        bad_density[2] = 0.0  # drop one row from the density vertex
        corrupted += np.einsum("xab,yba,ab->xy", bad_density, vs_fwd.current1, w)
    scale = np.max(np.abs(total))
    assert abs(total.sum(axis=0)[3]) <= 1e-12 * scale  # corrupted current: still exact
    assert abs(corrupted.sum(axis=0)[3]) > 1e-6 * scale  # corrupted density: loud


def test_ward_sum_rule_trips_on_mixed_band_states(haldane_setup, monkeypatch):
    # mixing 0.1 of the lowest empty state into the highest occupied one at
    # every k breaks the orthonormal basis the sum rule rests on; a fresh
    # model reads the mixed bases from its store
    ham, mu, _ = haldane_setup
    diagonalize = response.diagonalize_fiber

    def mixed(model, k1):
        f = diagonalize(model, k1)
        i = int(np.searchsorted(f.energies, mu)) - 1
        states = f.states.copy()
        states[:, i] += 0.1 * states[:, i + 1]
        return response.FiberBasis(k1=f.k1, energies=f.energies, states=states)

    assert response.ward_sum_rule(ham, mu, 0.3, y2=3, n_k=16)[1] <= 1e-10
    monkeypatch.setattr(response, "diagonalize_fiber", mixed)
    fresh = lattice.haldane_cylinder(ham.geometry)
    assert response.ward_sum_rule(fresh, mu, 0.3, y2=3, n_k=16)[1] > 1e-6


@pytest.mark.parametrize("row", ["-1", "0", "L2-1", "L2", "3.5"])
def test_ward_sum_rule_refuses_a_row_that_is_not_interior(haldane_setup, monkeypatch, row):
    # on a Dirichlet row every summand is 0, so the residual would pass
    # whatever the model; outside the cylinder, or between two rows, there
    # is no row at all, and between two rows every summand is 0 too
    ham, mu, _ = haldane_setup
    L2 = ham.geometry.L2
    y2 = {"-1": -1, "0": 0, "L2-1": L2 - 1, "L2": L2, "3.5": 3.5}[row]

    def no_fiber(*args, **kwargs):
        raise AssertionError("a fiber was diagonalized before y2 was checked")

    monkeypatch.setattr(response, "diagonalize_fiber", no_fiber)
    with pytest.raises(ValueError, match=rf"^y2 must be an (interior row in \[1, L2 - 2\] = \[1, 14\]|integer), got {y2}$"):
        response.ward_sum_rule(ham, mu, 0.3, y2, 16)


@pytest.mark.parametrize("temperature", [0.0, 0.05])
@pytest.mark.parametrize("p0", [0.0, -0.0])
def test_ward_sum_rule_refuses_zero_frequency(haldane_setup, monkeypatch, p0, temperature):
    # at p1 = 0 the summed density is the conserved charge, whose correlation
    # vanishes at p0 != 0 only: at p0 = 0 the sum is the static charge
    # susceptibility at T > 0 and rounding over rounding at T = 0; a fresh
    # model has no stored grid, so any read would solve a fiber
    ham, mu, _ = haldane_setup
    ham = lattice.haldane_cylinder(ham.geometry)

    def no_fiber(*args, **kwargs):
        raise AssertionError("a fiber was diagonalized before p0 was checked")

    monkeypatch.setattr(response, "diagonalize_fiber", no_fiber)
    with pytest.raises(ValueError, match=r"^p0 must be nonzero: .*, got -?0\.0$"):
        response.ward_sum_rule(ham, mu, p0, 3, 16, temperature=temperature)


EMPTY_STRIP = r"^need 0 <= a.* L2 - 1 = 15, got .*= -1"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ham, mu: response.edge_conductance_free(ham, mu, 16, a=4, a_prime=-1), EMPTY_STRIP),
        (lambda ham, mu: response.wrong_order_diagnostic(ham, mu, 0.4, 16, a_prime=-1), EMPTY_STRIP),
        (lambda ham, mu: response.wick_rotation_check(ham, mu, 20.0, 50.0, 0.4, 1, 16, a=-1, a_prime=2), EMPTY_STRIP),
        (lambda ham, mu: response.wick_rotation_check(ham, mu, 20.0, 50.0, 0.4, 1, 16, a=4, a_prime=-1), EMPTY_STRIP),
        (lambda ham, mu: response.edge_conductance_free(ham, mu, 16, 4.9, 2.2), r"^a_prime must be an integer, got 2\.2$"),
        (lambda ham, mu: response.edge_conductance_free(ham, mu, 16, 4.9, 2), r"^a must be an integer, got 4\.9$"),
        (
            lambda ham, mu: response.wrong_order_diagnostic(ham, mu, 0.4, 16, a_prime=2.7),
            r"^a_prime must be an integer, got 2\.7$",
        ),
        (
            lambda ham, mu: response.wick_rotation_check(ham, mu, 20.0, 50.0, 0.4, 1, 16, a=4.0, a_prime=2),
            r"^a must be an integer, got 4\.0$",
        ),
        (
            lambda ham, mu: response.wick_rotation_check(ham, mu, 20.0, 50.0, 0.4, 1, 16, a=4, a_prime=2.5),
            r"^a_prime must be an integer, got 2\.5$",
        ),
    ],
    ids=[
        "conductance", "wrong-order", "wick-a", "wick-a_prime",
        "conductance-2.2", "conductance-a-4.9", "wrong-order-2.7", "wick-a-4.0", "wick-a_prime-2.5",
    ],
)
def test_an_empty_strip_is_refused_before_any_fiber(haldane_setup, monkeypatch, call, message):
    # a strip of no rows makes every strip sum exactly 0, so a check on it
    # would pass whatever the model; a width that is not an integer is
    # refused too, where truncated it would read another strip
    ham, mu, _ = haldane_setup

    def no_fiber(*args, **kwargs):
        raise AssertionError("a fiber was diagonalized before the strip widths were checked")

    monkeypatch.setattr(response, "diagonalize_fiber", no_fiber)
    with pytest.raises(ValueError, match=message):
        call(ham, mu)


@pytest.mark.parametrize("p1_index, temperature", [(1, 0.0), (2, 0.05), (0, 0.05)])
def test_a_stack_of_weights_is_bitwise_the_single_weight_sums(haldane_setup, p1_index, temperature):
    # the two Wick sides share one strip loop: each weight of a stack, on one
    # block of all bands, gives exactly the sum the loop gives for that
    # weight alone, at every momentum of the call
    ham, mu, fibers = haldane_setup
    every = slice(None)

    def first(e_k, e_kp):
        return row_vertices.pair_weight(e_k, e_kp, mu, temperature, 0.4)

    def second(e_k, e_kp):
        return row_vertices.pair_weight(e_k, e_kp, mu, 0.05, -1.3)

    def on_all_bands(*weights):
        return lambda e_k, e_kp: [(every, every, np.stack([w(e_k, e_kp) for w in weights]))]

    momenta, rows = (p1_index, 3), (7, 4)
    stacked = response._strip_response(ham, (fibers,), momenta, rows, on_all_bands(first, second))
    assert stacked.shape == (2, 2)
    for i, weight in enumerate((first, second)):
        alone = response._strip_response(ham, (fibers,), momenta, rows, lambda e_k, e_kp: [(every, every, weight(e_k, e_kp))])
        assert alone.shape == (2,)
        assert np.array_equal(stacked[:, i], alone)


# ---------------------------------------------------------------------------
# vertex conservation identity
# ---------------------------------------------------------------------------


def test_vertex_ward_pure_frequency_shift(haldane_setup):
    ham, mu, _ = haldane_setup
    r = response.vertex_ward_residual(ham, mu, 0.8, 2, 0.5, 0, 16)
    assert r <= 1e-12


def test_vertex_ward_generic_momenta(haldane_setup, rng):
    ham, mu, _ = haldane_setup
    for _ in range(5):
        k0 = rng.uniform(-2, 2)
        p0 = rng.uniform(-2, 2)
        ki = int(rng.integers(0, 16))
        pi_ = int(rng.integers(1, 8))
        r = response.vertex_ward_residual(ham, mu, k0, ki, p0, pi_, 16)
        assert r <= 1e-10


def test_vertex_ward_at_fermi_point(haldane_setup):
    # small transfer around a momentum near the Fermi crossing: still exact
    ham, mu, _ = haldane_setup
    r = response.vertex_ward_residual(ham, mu, 1e-3, 8, 1e-3, 1, 16)
    assert r <= 1e-10


def test_vertex_ward_mutation_sensitivity(haldane_setup, monkeypatch):
    # dropping the half-weighted diagonal bond currents breaks the identity
    ham, mu, _ = haldane_setup
    _drop_diagonal_bonds(monkeypatch)
    r = response.vertex_ward_residual(ham, mu, 0.9, 3, -0.4, 2, 16)
    assert r > 1e-3


def test_vertex_ward_at_a_propagator_pole_is_named():
    # the decoupled Dirichlet rows sit at energy 0 = mu, and k0 = 0
    ham = random_hermitian_model(np.random.default_rng(0), 4, 4, 1)
    with pytest.raises(response.SingularPropagatorError, match="k0 = 0.0, mu = 0.0"):
        response.vertex_ward_residual(ham, 0.0, 0.0, 0, 1.0, 1, 4)


def test_vertex_ward_hofstadter(hofstadter16):
    r = response.vertex_ward_residual(hofstadter16, -1.0, 0.7, 5, 0.3, 3, 24)
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
    (fibers,) = response.fiber_cache(ham, n_k)
    res = row_vertices.current_current(
        ham, mu, p0, p1_index, n_k, temperature=temp, strips=(3, 3),
        components=((0, 0),),
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
    ham, mu, _ = haldane_setup
    g = ham.geometry
    kw = dict(n_k=16, strips=(g.L2 - 1, g.L2 - 1))
    a = row_vertices.current_current(ham, mu, 0.37, 3, components=((0, 1),), **kw)
    b = row_vertices.current_current(ham, mu, -0.37, 16 - 3, components=((1, 0),), **kw)
    t1 = a[(0, 1)]
    t2 = b[(1, 0)]
    assert np.max(np.abs(t1 - t2.T)) < 1e-10 * np.max(np.abs(t1))


def test_response_reality_symmetry(haldane_setup):
    # conj S_00((0, p1)) = S_00((0, -p1))
    ham, mu, _ = haldane_setup
    kw = dict(n_k=16, strips=(5, 5), components=((0, 0),))
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


def test_a_degenerate_pair_across_two_summands_carries_no_weight():
    # with t2 = 0 the neighbours k = 2 pi 6/13 and 2 pi 7/13 share their
    # energies; two copies split by 1e-13 put a degenerate pair across mu,
    # but its states lie on different summands, so their vertex is 0
    ham = lattice.build_model("haldane", 13, 12, t2=0.0)
    e = np.linalg.eigvalsh(lattice.assemble_fiber(ham, 2.0 * np.pi * 6 / 13))[0]
    stack = lattice.build_model("stacked-haldane", 13, 12, t2=0.0, shifts="0,1e-13")
    mu = e + 5e-14
    energies = np.sort(np.concatenate([grid[7].energies for grid in response.fiber_cache(stack, 13)]))
    assert np.count_nonzero(abs(energies - mu) < 1e-13) == 2 and energies[0] < mu < energies[1]
    est = response.edge_conductance_free(stack, mu, 13, a=4, a_prime=3)
    assert abs(2.0 * np.pi * est.g) < 1e-12


def test_conductance_config_error(haldane_setup):
    ham, mu, _ = haldane_setup
    with pytest.raises(ValueError):
        response.edge_conductance_free(ham, mu, 16, a=4, a_prime=6)


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
    mu = 0.15
    gs = []
    for a, ap in ((8, 4), (10, 6), (12, 8)):
        est = response.edge_conductance_free(ham, mu, 24, a=a, a_prime=ap)
        gs.append(est.g)
    d1, d2 = abs(gs[1] - gs[0]), abs(gs[2] - gs[1])
    assert d2 < d1
    decay = 0.5 * np.log(d1 / d2)  # per-row decay constant
    assert decay > 0.2


def test_wrong_order_diagnostic_vanishes(haldane_setup):
    ham, mu, _ = haldane_setup
    val = response.wrong_order_diagnostic(ham, mu, 0.4, 16, a_prime=4)
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
    stack, _ = counter_stack
    est = response.edge_conductance_free(stack, 0.15, 24, a=6, a_prime=4)
    assert abs(2.0 * np.pi * est.g) < 1e-9


def test_conjugation_check_trips_on_a_broken_vertex(counter_stack, monkeypatch):
    # the symmetry holds term by term for any fiber list, so a defect shows
    # in the vertices: the strip-summed density of every p1 = -1 pair is
    # shifted on each of its band blocks
    stack, _ = counter_stack
    build = response._strip_vertices
    back = 2.0 * np.pi * 23 / 24  # p1 = -1 on the ring of 24
    broken_pairs = []

    def broken(legs, basis_kp, blocks):
        vertices = build(legs, basis_kp, blocks)
        if np.isclose((basis_kp.k1 - legs[0]) % (2.0 * np.pi), back):
            broken_pairs.append(basis_kp.k1)
            vertices = [(dbar + 0.1, jbar) for dbar, jbar in vertices]
        return vertices

    monkeypatch.setattr(response, "_strip_vertices", broken)
    with pytest.raises(response.ConjugationSymmetryError):
        response.edge_conductance_free(stack, 0.15, 24, a=6, a_prime=4)
    # every fiber is the partner of one p1 = -1 pair, once per summand
    assert len(broken_pairs) == 2 * 24


def test_a_broken_copy_of_a_read_stack_is_checked_once(counter_stack, hermitian_checks):
    # the copy reads its own fibers, not the stack's: a block without its
    # Hermitian partner is named before any strip sum runs
    stack, _ = counter_stack
    broken = shifted(stack, 0.0)  # a copy
    broken.add_block(1, 3, 3, 0.1 * np.eye(4))
    with pytest.raises(lattice.HermiticityError, match=r"\(1, 3, 3\)"):
        response.edge_conductance_free(broken, 0.15, 24, a=6, a_prime=4)
    assert hermitian_checks == [broken]


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
    eta = 2.0 * np.pi / 20.0 * (1.0 + 1.0 / 3.0)
    res = {}
    for beta in (20.0, 40.0, 80.0):
        _, _, r = response.wick_rotation_check(
            ham, 0.15, beta, 200.0, eta, 1, 12, a=4, a_prime=2
        )
        res[beta] = r
    assert res[20.0] / res[40.0] >= 1.8
    assert res[40.0] / res[80.0] >= 1.8


def test_wick_rotation_horizon_envelope():
    g = lattice.CylinderGeometry(12, 12, 2)
    ham = lattice.haldane_cylinder(g)
    eta = 2.0 * np.pi / 20.0 * (1.0 + 1.0 / 3.0)
    beta = 20.0

    def residual(T):
        _, _, r = response.wick_rotation_check(
            ham, 0.15, beta, T, eta, 1, 12, a=4, a_prime=2
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
    eta = 2.0 * np.pi / 20.0 * (1.0 + 1.0 / 3.0)
    betas = (20.0, 40.0, 80.0)
    horizons = (4.0, 8.0, 200.0)
    rows, rhs = [], []
    for beta in betas:
        for T in horizons:
            _, _, r = response.wick_rotation_check(
                ham, 0.15, beta, T, eta, 1, 12, a=4, a_prime=2
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
