"""Identities that hold for every admissible model, checked with hypothesis
over random Hermitian hopping models (range <= sqrt 2).

Examples are derandomized, so every run draws the same models."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeflow import lattice, response
from conftest import random_hermitian_model

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.tuples(st.integers(4, 8), st.integers(4, 8), st.integers(1, 2))  # L1, L2, M
ROWS = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))  # clipped to L2


def loop_vertices(ham, basis_k, basis_kp):
    """Reference vertex build: every bond term, row by row, from ``ham.block``."""
    g = ham.geometry
    k1, kp1 = basis_k.k1, basis_kp.k1
    a = basis_k.states.reshape(g.L2, g.M, basis_k.dim)
    b = basis_kp.states.reshape(g.L2, g.M, basis_kp.dim)
    density = np.einsum("xra,xrb->xab", a.conj(), b)
    currents = []
    for terms in (response._J1_TERMS, response._J2_TERMS):
        out = np.zeros((g.L2, basis_k.dim, basis_k.dim), dtype=complex)
        for (u1, u2, v1, v2, z1, du, dv, wgt) in terms:
            phase = 1j * wgt * np.exp(-1j * (k1 * u1 - kp1 * v1))
            for x2 in range(g.L2):
                xu, xv = x2 + du, x2 + dv
                if 0 <= xu < g.L2 and 0 <= xv < g.L2:
                    out[x2] += phase * (a[xu].conj().T @ ham.block(z1, xu, xv) @ b[xv])
        currents.append(out)
    return density, *currents


def loop_fiber(ham, k1):
    """Reference fiber: every stored block, phased and placed one by one."""
    g = ham.geometry
    n = g.fiber_dim
    out = np.zeros((n, n), dtype=complex)
    for (z1, x2, y2), blk in ham.items():
        phase = np.exp(-1j * k1 * z1)
        out[x2 * g.M : (x2 + 1) * g.M, y2 * g.M : (y2 + 1) * g.M] += phase * blk
    return out


def assert_matches_loop(ham, f_k, f_kp, rows):
    rows = tuple(min(r, ham.geometry.L2) for r in rows)
    vs = response.build_vertices(ham, f_k, f_kp, rows=rows)
    for want, got, n in zip(loop_vertices(ham, f_k, f_kp), (vs.density, vs.current1, vs.current2), rows):
        assert got.shape == (n, f_k.dim, f_k.dim)
        assert np.max(np.abs(got - want[:n]), initial=0.0) <= 1e-13


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(0.0, 2.0 * np.pi), p1=st.floats(-np.pi, np.pi))
def test_backward_vertices_are_conjugate_transposes(seed, size, k1, p1):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    f_k = response.diagonalize_fiber(ham, k1)
    f_kp = response.diagonalize_fiber(ham, k1 + p1)
    fwd = response.build_vertices(ham, f_k, f_kp)
    bwd = response.build_vertices(ham, f_kp, f_k)
    for name in ("density", "current1", "current2"):
        a, b = getattr(fwd, name), getattr(bwd, name)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(b - a.conj().transpose(0, 2, 1))) <= 1e-12 * scale, name


@PROPERTY
@given(
    seed=SEEDS,
    size=SIZES,
    mu=st.floats(-2.0, 2.0),
    p0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    temperature=st.sampled_from([0.0, 0.05]),
    row=st.integers(0, 5),
)
def test_charge_sum_rule(seed, size, mu, p0, temperature, row):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    L1, L2, _ = size
    y2 = 1 + row % (L2 - 2)
    res = response.ward_sum_rule(ham, mu, p0, y2, L1, temperature=temperature)
    assert max(res.values()) < 1e-10


@PROPERTY
@given(
    seed=SEEDS,
    size=SIZES,
    mu=st.floats(-2.0, 2.0),
    k0=st.floats(0.05, 2.0) | st.floats(-2.0, -0.05),
    p0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    k1_index=st.integers(0, 7),
    p1_index=st.integers(0, 7),
)
def test_vertex_ward_identity(seed, size, mu, k0, p0, k1_index, p1_index):
    # both propagators need a nonzero frequency: the decoupled Dirichlet rows
    # sit at energy 0, which mu may hit exactly
    assume(abs(k0 + p0) >= 0.05)
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    L1 = size[0]
    assert response.vertex_ward_residual(ham, mu, k0, k1_index, p0, p1_index, L1) < 1e-10


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(0.0, 2.0 * np.pi), p1=st.floats(-np.pi, np.pi), rows=ROWS)
def test_batched_vertices_match_the_row_loop(seed, size, k1, p1, rows):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    f_k, f_kp = response.diagonalize_fiber(ham, k1), response.diagonalize_fiber(ham, k1 + p1)
    assert_matches_loop(ham, f_k, f_kp, rows)


@PROPERTY
@given(k1=st.floats(0.0, 2.0 * np.pi), p1=st.floats(-np.pi, np.pi), rows=ROWS)
def test_batched_vertices_match_the_row_loop_on_a_counter_stack(k1, p1, rows):
    geo = lattice.CylinderGeometry(8, 8, 2)
    stack = lattice.stacked_shifted(
        [lattice.haldane_cylinder(geo), lattice.haldane_cylinder(geo, phi=-np.pi / 2)], [0.0, 0.1]
    )
    f_k, f_kp = response.diagonalize_fiber(stack, k1), response.diagonalize_fiber(stack, k1 + p1)
    assert_matches_loop(stack, f_k, f_kp, rows)


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(0.0, 2.0 * np.pi), p1=st.floats(-np.pi, np.pi))
def test_an_edited_model_is_never_read_stale(seed, size, k1, p1):
    rng = np.random.default_rng(seed)
    ham = random_hermitian_model(rng, *size)
    L2, M = size[1], size[2]
    f_k, f_kp = response.diagonalize_fiber(ham, k1), response.diagonalize_fiber(ham, k1 + p1)
    before = response.build_vertices(ham, f_k, f_kp)
    x2 = int(rng.integers(1, L2 - 1))
    ham.add_block(1, x2, x2, rng.normal(size=(M, M)) + 1.0)
    after = response.build_vertices(ham, f_k, f_kp)
    assert np.max(np.abs(after.current1 - before.current1)) > 1e-6
    assert_matches_loop(ham, f_k, f_kp, (L2, L2, L2))


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(-4.0 * np.pi, 4.0 * np.pi))
def test_fiber_matches_the_block_loop(seed, size, k1):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    assert np.max(np.abs(lattice.assemble_fiber(ham, k1) - loop_fiber(ham, k1))) <= 1e-14


def random_model_in_z1_order(z1_order):
    """A random model whose blocks are added one ring displacement at a time."""
    model = random_hermitian_model(np.random.default_rng(7), 8, 8, 2)
    ham = lattice.LatticeHamiltonian(model.geometry)
    for z1 in z1_order:
        for (z, x2, y2), blk in model.items():
            if z == z1:
                ham.add_block(z, x2, y2, blk)
    return ham


@pytest.mark.parametrize(
    "make",
    [
        lambda: lattice.build_model("haldane", 16, 12),
        lambda: lattice.build_model("hofstadter", 20, 12, p=2, q=5),
        lambda: lattice.build_model("stacked-haldane", 16, 12, flips="0,1", shifts="0,0.1"),
        lambda: random_model_in_z1_order((0, 1, -1)),
    ],
    ids=["haldane", "hofstadter", "counter-stack", "random-added-as-0,1,-1"],
)
def test_fibers_are_bitwise_the_block_loop(make, tmp_path):
    # Fermi velocities are finite differences of fiber energies, so a last-bit
    # change in the fiber shows in their digits
    ham = make()
    lattice.dump_blocks(ham, tmp_path / "model.txt")
    for model in (ham, lattice.load_blocks(tmp_path / "model.txt")):
        for k1 in np.linspace(-7.0, 7.0, 15):
            assert np.array_equal(lattice.assemble_fiber(model, k1), loop_fiber(model, k1))


@PROPERTY
@given(seed=SEEDS, k1=st.floats(-4.0 * np.pi, 4.0 * np.pi))
def test_fiber_matches_the_block_loop_at_hop_range_2(seed, k1):
    rng = np.random.default_rng(seed)
    ham = lattice.LatticeHamiltonian(lattice.CylinderGeometry(8, 8, 2), hop_range=2.0)
    for x2 in range(1, 7):
        blk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ham.add_block(2, x2, x2, blk)
        ham.add_block(-2, x2, x2, blk.conj().T)
        ham.add_block(0, x2, x2, blk + blk.conj().T)
    assert np.max(np.abs(lattice.assemble_fiber(ham, k1) - loop_fiber(ham, k1))) <= 1e-14


@PROPERTY
@given(size=SIZES, k1=st.floats(-4.0 * np.pi, 4.0 * np.pi))
def test_empty_model_has_an_exactly_zero_fiber(size, k1):
    ham = lattice.LatticeHamiltonian(lattice.CylinderGeometry(*size))
    fiber = lattice.assemble_fiber(ham, k1)
    assert fiber.shape == (size[1] * size[2],) * 2
    assert np.all(fiber == 0.0)
