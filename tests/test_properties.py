"""Identities that hold for every admissible model, checked with hypothesis
over random Hermitian hopping models (range <= sqrt 2), and the fast
paths checked bitwise against the plain implementations they replaced.

Examples are derandomized, so every run draws the same models."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeflow import lattice, reference, response, rgflow, spectrum
from edgeflow.cutoffs import chi, shell
from edgeflow.quadrature import polar_nodes
from conftest import (
    inversion_symmetric_model, mirrored_momenta, off_mirror_twin, random_hermitian_model, shifted, three_builds,
    with_flux,
)
from row_vertices import build_vertices, current_current, ward_columns

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


def table_sum_conductance(ham, mu, n_k, a, a_prime):
    """Reference strip responses at p1 = 1, 2, 3: the full (a+1, a'+1) row
    table of the oracle's ``current_current``, summed."""
    tables = (
        current_current(
            ham, mu, 0.0, p1_index, n_k, strips=(a, a_prime), components=((0, 1),)
        )[(0, 1)]
        for p1_index in (1, 2, 3)
    )
    return np.array([t.sum().real for t in tables])


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
    vs = build_vertices(ham, f_k, f_kp, rows=rows)
    for want, got, n in zip(loop_vertices(ham, f_k, f_kp), (vs.density, vs.current1, vs.current2), rows):
        assert got.shape == (n, f_k.dim, f_k.dim)
        assert np.max(np.abs(got - want[:n]), initial=0.0) <= 1e-13


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(0.0, 2.0 * np.pi), p1=st.floats(-np.pi, np.pi))
def test_backward_vertices_are_conjugate_transposes(seed, size, k1, p1):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    f_k = response.diagonalize_fiber(ham, k1)
    f_kp = response.diagonalize_fiber(ham, k1 + p1)
    fwd = build_vertices(ham, f_k, f_kp)
    bwd = build_vertices(ham, f_kp, f_k)
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


def strip_vertices(ham, f_k, f_kp, rows, a=slice(None), b=slice(None)):
    """``(Dbar, Jbar)`` of the pair on the band block ``a x b``, through the
    legs of ``f_k`` (:func:`response._fiber_legs`)."""
    g = ham.geometry
    current = response._current_operator(ham, response._J1_TERMS, np.arange(g.L2) < rows[1])
    legs = response._fiber_legs(f_k, rows[0] * g.M, current)
    [vertices] = response._strip_vertices(legs, f_kp, [(a, b, None)])
    return vertices


@PROPERTY
@given(
    seed=SEEDS,
    size=SIZES,
    k1=st.floats(0.0, 2.0 * np.pi),
    p1=st.floats(-np.pi, np.pi),
    rows=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    cuts=st.tuples(st.integers(0, 32), st.integers(0, 32), st.integers(0, 32), st.integers(0, 32)),
)
def test_strip_vertices_are_the_row_sums(seed, size, k1, p1, rows, cuts):
    # on any band block, empty ones included, from the legs of f_k
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    rows = tuple(min(r, ham.geometry.L2) for r in rows)
    f_k, f_kp = response.diagonalize_fiber(ham, k1), response.diagonalize_fiber(ham, k1 + p1)
    a, b = (slice(*sorted(c % (f_k.dim + 1) for c in pair)) for pair in (cuts[:2], cuts[2:]))
    vs = build_vertices(ham, f_k, f_kp, rows=(*rows, 0))
    dbar, jbar = strip_vertices(ham, f_k, f_kp, rows, a, b)
    for got, want in ((dbar, vs.density.sum(axis=0)), (jbar, vs.current1.sum(axis=0))):
        assert got.shape == want[a, b].shape
        assert np.max(np.abs(got - want[a, b]), initial=0.0) <= 1e-13


@PROPERTY
@given(
    seed=SEEDS,
    size=SIZES,
    k1=st.floats(0.0, 2.0 * np.pi),
    p1=st.floats(-np.pi, np.pi),
    weight=st.lists(st.sampled_from([0.0, 0.0, 1.0, -0.5, 2.5]), min_size=8, max_size=8),
)
def test_a_weighted_current_operator_is_the_weighted_row_sum(seed, size, k1, p1, weight):
    # any weight per row, on the span of rows the weight touches, for both
    # current components
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    g = ham.geometry
    weight = np.array(weight[: g.L2])
    on = np.flatnonzero(weight)
    span = slice(max(on[0] - 1, 0) * g.M, min(on[-1] + 2, g.L2) * g.M) if on.size else slice(0, 0)
    f_k, f_kp = response.diagonalize_fiber(ham, k1), response.diagonalize_fiber(ham, k1 + p1)
    vs = build_vertices(ham, f_k, f_kp)
    for terms, rows in ((response._J1_TERMS, vs.current1), (response._J2_TERMS, vs.current2)):
        current = response._current_operator(ham, terms, weight)
        assert current[0] == span
        got = response._current_vertex(f_k, f_kp, current)
        assert np.max(np.abs(got - np.tensordot(weight, rows, axes=1))) <= 1e-13


@pytest.mark.parametrize(
    "make",
    [
        lambda: lattice.haldane_cylinder(lattice.CylinderGeometry(8, 8, 2)),
        lambda: lattice.stacked_shifted([
            lattice.haldane_cylinder(lattice.CylinderGeometry(8, 8, 2)),
            lattice.haldane_cylinder(lattice.CylinderGeometry(8, 8, 2), phi=-np.pi / 2),
        ], [0.0, 0.1]),
        lambda: random_hermitian_model(np.random.default_rng(5), 8, 8, 1),
    ],
    ids=["haldane", "counter-stack", "random-M1"],
)
def test_strip_vertices_at_the_edge_cases_are_the_row_sums(make):
    # the strip current of y2 < n spans the leading P = min(n + 1, L2) rows
    # and is empty on a strip of no rows; the density strip ends at 0 and at
    # L2 rows
    # on the whole fiber of the stack too
    ham = make()
    g = ham.geometry
    f_k, f_kp = response.diagonalize_fiber(ham, 0.7), response.diagonalize_fiber(ham, 0.7 + 2.0 * np.pi / 8)
    vs = build_vertices(ham, f_k, f_kp)
    for rows in ((0, 0), (g.L2, 0), (0, g.L2), (g.L2, g.L2), (1, g.L2 - 1)):
        current = response._current_operator(ham, response._J1_TERMS, np.arange(g.L2) < rows[1])
        span = min(rows[1] + 1, g.L2) * g.M if rows[1] else 0
        assert current[0] == slice(0, span)
        assert response._ring_sum(current[1], f_k.k1, f_kp.k1).shape == (span, span)
        dbar, jbar = strip_vertices(ham, f_k, f_kp, rows)
        want = vs.density[: rows[0]].sum(axis=0), vs.current1[: rows[1]].sum(axis=0)
        for got, ref in zip((dbar, jbar), want):
            assert got.shape == (f_k.dim, f_k.dim)
            assert np.max(np.abs(got - ref)) <= 1e-13, rows


@pytest.mark.parametrize(
    "make, mu",
    [
        (lambda: lattice.build_model("haldane", 24, 16), 0.15),
        (lambda: lattice.build_model("stacked-haldane", 24, 16, flips="0,1", shifts="0,0.1"), 0.15),
        (lambda: random_hermitian_model(np.random.default_rng(11), 12, 12, 2), 0.1),
    ],
    ids=["haldane", "counter-stack", "random"],
)
def test_strip_sums_match_the_summed_row_table(make, mu):
    # absolute: the counter-propagating stack cancels G down to rounding
    ham = make()
    n_k = ham.geometry.L1
    for a, a_prime in ((6, 4), (9, 1), (ham.geometry.L2 - 1, 2)):
        est = response.edge_conductance_free(ham, mu, n_k, a, a_prime)
        want = table_sum_conductance(ham, mu, n_k, a, a_prime)
        assert np.max(np.abs(est.g_values - want)) <= 1e-13, (a, a_prime)


@PROPERTY
@given(
    seed=SEEDS,
    size=SIZES,
    mu=st.floats(-2.0, 2.0),
    p0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    row=st.integers(0, 8),
)
def test_wrong_order_diagnostic_is_the_summed_row_table(seed, size, mu, p0, row):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    L1, L2, _ = size
    a_prime = row % L2
    got = response.wrong_order_diagnostic(ham, mu, p0, L1, a_prime)
    # reference: the full (L2, a' + 1) row table of current_current, summed
    table = current_current(
        ham, mu, p0, 0, L1, strips=(L2 - 1, a_prime), components=((0, 1),)
    )[(0, 1)]
    assert abs(got - complex(table.sum())) <= 1e-14


def assert_ward_columns_match(ham, mu, p0, temperature):
    """``response._ward_columns`` at every interior row against the oracle's
    row-resolved columns, summed over the summands, to 1e-14 of the largest."""
    g = ham.geometry
    grids = response.fiber_cache(ham, g.L1)
    for y2 in range(1, g.L2 - 1):
        got = response._ward_columns(ham, grids, mu, p0, y2, temperature)
        want = sum(
            ward_columns(sub, grid, mu, p0, y2, temperature)
            for (_, sub), grid in zip(ham.summands(), grids, strict=True)
        )
        assert got.shape == want.shape == (2, g.L2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), y2


@PROPERTY
@given(
    seed=SEEDS,
    size=SIZES,
    mu=st.floats(-2.0, 2.0),
    p0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    temperature=st.sampled_from([0.0, 0.05]),
)
def test_ward_columns_are_the_row_resolved_columns(seed, size, mu, p0, temperature):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    assert_ward_columns_match(ham, mu, p0, temperature)


# a direct sum of 2 or 3 random models with differing M: seed, L1, L2, the
# M of each summand and their energy shifts
DIRECT_SUMS = st.tuples(
    SEEDS,
    st.integers(4, 8),
    st.integers(4, 8),
    st.permutations([1, 2, 3]).flatmap(lambda ms: st.sampled_from([ms[:2], ms])),
    st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
)


def random_direct_sum(seed, L1, L2, ms, shifts):
    """``(parts, stack)``: the energy-shifted random models and their direct sum."""
    rng = np.random.default_rng(seed)
    models = [random_hermitian_model(rng, L1, L2, m) for m in ms]
    shifts = shifts[: len(ms)]
    return [shifted(h, e) for h, e in zip(models, shifts)], lattice.stacked_shifted(models, shifts)


def fiber_edge_mu(grids, where):
    """A chemical potential at which some fiber has every band empty
    (``"below"``: ``o = 0``) or every band occupied (``"above"``: ``o = n``),
    from the grids of the summands."""
    if where == "below":
        return max(min(b.energies[0] for b in f) for f in zip(*grids))
    return np.nextafter(min(max(b.energies[-1] for b in f) for f in zip(*grids)), np.inf)


@PROPERTY
@given(
    model=st.one_of(st.tuples(SEEDS, SIZES), DIRECT_SUMS),
    mu=st.floats(-2.0, 2.0) | st.sampled_from(["below", "above"]),
    p0=st.just(0.0) | st.floats(-3.0, 3.0),
    temperature=st.sampled_from([0.0, 0.05]),
    p1_indices=st.lists(st.integers(0, 7), min_size=1, max_size=4),
    rows=st.tuples(st.integers(1, 8), st.integers(1, 8)),
)
def test_strip_response_is_the_summed_row_table(model, mu, p0, temperature, p1_indices, rows):
    # the loop the conductance, the wrong-order diagnostic and the Wick
    # check share, on random models and direct sums, where nothing cancels:
    # several momenta per call, p1 = 0 among them, partial strips, p0 = 0
    # and not, a mu at which some fiber is all empty or all occupied, and at
    # finite temperature a stack of two weights on one block of all bands
    if len(model) == 2:
        ham = random_hermitian_model(np.random.default_rng(model[0]), *model[1])
    else:
        ham = random_direct_sum(*model)[1]
    L1, L2 = ham.geometry.L1, ham.geometry.L2
    a, a_prime = (min(r, L2) - 1 for r in rows)
    grids = response.fiber_cache(ham, L1)
    if isinstance(mu, str):
        mu = fiber_edge_mu(grids, mu)
    p1_indices = [p % L1 for p in p1_indices]
    states = [(temperature, p0)]  # (temperature, p0) of each weight
    if temperature > 0.0:
        every = slice(None)
        states.append((0.02, p0 + 0.7))

        def weight(e_k, e_kp):
            return [(every, every, np.stack([response._pair_weight(e_k, e_kp, mu, t, q) for t, q in states]))]
    else:
        weight = response._gibbs_weight(mu, p0)
    try:
        got = response._strip_response(ham, grids, p1_indices, (a + 1, a_prime + 1), weight)
    except response.DegenerateCrossingError:
        assume(False)
    got = got.reshape(len(p1_indices), -1)
    assert got.shape[1] == len(states)
    for i, (t, q) in enumerate(states):
        for j, p1_index in enumerate(p1_indices):
            table = current_current(
                ham, mu, q, p1_index, L1, temperature=t, strips=(a, a_prime), components=((0, 1),)
            )[(0, 1)]
            assert abs(got[j, i] - table.sum()) <= 1e-13


@PROPERTY
@given(
    energies=st.tuples(
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
    ),
    mu=st.floats(-4.0, 4.0),
    p0=st.sampled_from([0.0, 1e-300, -5e-324]) | st.floats(-3.0, 3.0),
)
def test_zero_temperature_blocks_are_exactly_the_dense_weight(energies, mu, p0):
    # the blocks hold every nonzero entry of the dense weight, exactly, and
    # raise where it raises (outside them the dense weight is +-0)
    e_k, e_kp = (np.sort(e) for e in energies)
    try:
        dense = response._pair_weight(e_k, e_kp, mu, 0.0, p0)
    except response.DegenerateCrossingError:
        with pytest.raises(response.DegenerateCrossingError):
            response._gibbs_weight(mu, p0)(e_k, e_kp)
        return
    placed = np.zeros_like(dense)
    for a, b, w in response._gibbs_weight(mu, p0)(e_k, e_kp):
        assert w.size and not np.any(placed[a, b])
        placed[a, b] = w
    assert np.array_equal(placed, dense)


@PROPERTY
@given(
    draw=DIRECT_SUMS,
    flipped=st.booleans(),
    mu=st.floats(-2.0, 2.0),
    p0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    temperature=st.sampled_from([0.0, 0.05]),
)
def test_ward_columns_of_a_direct_sum_are_the_row_resolved_columns(draw, flipped, mu, p0, temperature):
    # the sum rule runs one summand at a time, the oracle on the whole
    # fiber; flipped is a Haldane copy stacked with its time reverse
    if flipped:
        g = lattice.CylinderGeometry(draw[1], draw[2], 2)
        copies = [lattice.haldane_cylinder(g), lattice.haldane_cylinder(g, phi=-np.pi / 2)]
        stack = lattice.stacked_shifted(copies, draw[4][:2])
    else:
        _, stack = random_direct_sum(*draw)
    assert len(stack.summands()) > 1
    assert_ward_columns_match(stack, mu, p0, temperature)


@PROPERTY
@given(draw=DIRECT_SUMS, k1=st.floats(0.0, 2.0 * np.pi))
def test_a_direct_sum_is_diagonalized_per_summand(draw, k1):
    # each summand's basis is an eigenbasis of its own fiber, together they
    # hold the spectrum of the whole fiber's one eigh, and an off-grid solve
    # stores nothing; a grid read stores one grid on each summand
    parts, stack = random_direct_sum(*draw)
    summands = stack.summands()
    assert len(summands) == len(parts)
    whole = response.diagonalize_fiber(stack, k1)
    bases = [response.diagonalize_fiber(sub, k1) for _, sub in summands]
    assert [b.dim for b in bases] == [h.geometry.fiber_dim for h in parts]
    energies = np.sort(np.concatenate([b.energies for b in bases]))
    assert whole.dim == len(energies) and np.max(np.abs(energies - whole.energies)) <= 1e-12
    for (_, sub), b in zip(summands, bases, strict=True):
        fiber, v = lattice.assemble_fiber(sub, k1), b.states
        assert np.max(np.abs(fiber @ v - v * b.energies)) <= 1e-12 * max(1.0, np.max(np.abs(fiber)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(b.dim))) <= 1e-12
    assert not stack._grids and not any(sub._grids for _, sub in summands)
    L1 = stack.geometry.L1
    for (_, sub), grid in zip(summands, response.fiber_cache(stack, L1), strict=True):
        assert sub._grids == {L1: grid} and {b.dim for b in grid} == {sub.geometry.fiber_dim}
    assert not stack._grids


@PROPERTY
@given(
    draw=DIRECT_SUMS,
    mu=st.floats(-2.0, 2.0),
    p0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    rows=st.tuples(st.integers(1, 7), st.integers(0, 6)),
)
def test_responses_of_a_direct_sum_are_the_sums_over_its_summands(draw, mu, p0, rows):
    parts, stack = random_direct_sum(*draw)
    n_k, L2 = draw[1], draw[2]
    a = min(rows[0], L2 - 1)
    a_prime = rows[1] % a

    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    try:
        est = response.edge_conductance_free(stack, mu, n_k, a, a_prime)
        ests = [response.edge_conductance_free(h, mu, n_k, a, a_prime) for h in parts]
    except response.DegenerateCrossingError:
        assume(False)
    assert all(close(g, w) for g, w in zip(est.g_values, np.sum([e.g_values for e in ests], axis=0)))
    assert close(est.g, sum(e.g for e in ests))
    got = response.wrong_order_diagnostic(stack, mu, p0, n_k, a_prime)
    assert close(got, sum(response.wrong_order_diagnostic(h, mu, p0, n_k, a_prime) for h in parts))
    beta, t_horizon, eta = 20.0, 30.0, 0.4
    lhs, rhs, _ = response.wick_rotation_check(stack, mu, beta, t_horizon, eta, 1, n_k, a, a_prime)
    sides = [response.wick_rotation_check(h, mu, beta, t_horizon, eta, 1, n_k, a, a_prime)[:2] for h in parts]
    assert close(lhs, sum(s[0] for s in sides)) and close(rhs, sum(s[1] for s in sides))


@PROPERTY
@given(
    seed=SEEDS,
    size=SIZES,
    internal_reversed=st.booleans(),
    mu=st.floats(-2.0, 2.0),
    p0=st.floats(0.1, 3.0),
    rows=st.tuples(st.integers(1, 8), st.integers(0, 7)),
)
def test_a_mirrored_grid_gives_the_responses_of_a_solved_one(seed, size, internal_reversed, mu, p0, rows):
    # half the grid of an inversion-symmetric model is taken from the other
    # half; each such basis is an eigenbasis of its own fiber, and every
    # response matches that of a twin one ulp off the mirror, which solves
    # its whole grid
    ham = inversion_symmetric_model(np.random.default_rng(seed), *size, internal_reversed)
    twin = off_mirror_twin(ham)
    L1, L2 = ham.geometry.L1, ham.geometry.L2
    (grid,), (solved,) = response.fiber_cache(ham, L1), response.fiber_cache(twin, L1)
    assert mirrored_momenta(grid) == [m for m in range(L1) if L1 - m < m]
    assert mirrored_momenta(solved) == []
    for m, f in enumerate(grid):
        if L1 - m < m:
            assert np.array_equal(f.states, grid[L1 - m].states[ham._mirror])
        fiber = lattice.assemble_fiber(ham, f.k1)
        scale = max(1.0, np.max(np.abs(fiber)))
        assert np.max(np.abs(fiber @ f.states - f.states * f.energies)) <= 1e-13 * scale
    a = min(rows[0], L2 - 1)
    a_prime = min(rows[1], a - 1)

    def close(x, y):
        return np.all(np.abs(np.asarray(x) - np.asarray(y)) <= 1e-12 * np.maximum(1.0, np.abs(y)))

    try:
        got, want = (response.edge_conductance_free(h, mu, L1, a, a_prime) for h in (ham, twin))
    except response.DegenerateCrossingError:
        assume(False)
    assert close(got.g_values, want.g_values) and close(got.g, want.g)
    for y2 in range(1, L2 - 1):
        got, want = (response.ward_sum_rule(h, mu, p0, y2, L1, temperature=0.05) for h in (ham, twin))
        assert close([got[1], got[2]], [want[1], want[2]])
    got, want = (response.wrong_order_diagnostic(h, mu, p0, L1, a_prime) for h in (ham, twin))
    assert close(got, want)
    got, want = (response.wick_rotation_check(h, mu, 20.0, 30.0, 0.4, 1, L1, a, a_prime) for h in (ham, twin))
    assert close(got, want)


FLUX_MODELS = {
    "haldane": (lambda: lattice.build_model("haldane", 24, 16), 0.15),
    "hofstadter-1/3": (lambda: lattice.build_model("hofstadter", 24, 16), -1.0),
    # the flipped copy's hybridized edge pair sits at mu, on a grid node
    "counter-stack": (lambda: lattice.build_model("stacked-haldane", 24, 16, shifts="0.0,0.1", flips="0,1"), 0.1),
}


@PROPERTY
@given(kind=st.sampled_from(sorted(FLUX_MODELS)), m=st.integers(1, 23))
def test_a_flux_of_whole_grid_steps_keeps_the_chirality_and_the_conductance(kind, m):
    # a flux 2 pi m / L1 maps the grid onto itself, moving every Fermi point
    # by m steps, so the charge count and 2 pi G stay; it also breaks the
    # inversion mirror, so a mirrored grid meets a fully solved one
    build, mu = FLUX_MODELS[kind]
    ham, threaded = build(), with_flux(build(), 2.0 * np.pi * m / 24)
    assert all(mirrored_momenta(grid) == [] for grid in response.fiber_cache(threaded, 24))
    (chi, g), (chi_t, g_t) = (
        (spectrum.lower_edge_chirality(h, mu, 24), response.edge_conductance_free(h, mu, 24, a=6, a_prime=4).g)
        for h in (ham, threaded)
    )
    assert chi_t == chi == {"haldane": 1, "hofstadter-1/3": -1, "counter-stack": 0}[kind]
    assert abs(2.0 * np.pi * (g_t - g)) <= 1e-12


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(-4.0 * np.pi, 4.0 * np.pi))
def test_a_connected_model_is_diagonalized_bitwise_as_one_fiber(seed, size, k1):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    f = response.diagonalize_fiber(ham, k1)
    e, v = np.linalg.eigh(lattice.assemble_fiber(ham, k1))
    assert np.array_equal(f.energies, e) and np.array_equal(f.states, v)
    # and its grid read is a 1-tuple: the model's own stored grid
    (grid,) = response.fiber_cache(ham, size[0])
    assert ham._grids == {size[0]: grid}


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(0.0, 2.0 * np.pi), p1=st.floats(-np.pi, np.pi))
def test_an_edited_model_is_never_read_stale(seed, size, k1, p1):
    rng = np.random.default_rng(seed)
    ham = random_hermitian_model(rng, *size)
    L2, M = size[1], size[2]
    f_k, f_kp = response.diagonalize_fiber(ham, k1), response.diagonalize_fiber(ham, k1 + p1)
    (stored,) = response.fiber_cache(ham, size[0])
    before = build_vertices(ham, f_k, f_kp)
    x2 = int(rng.integers(1, L2 - 1))
    # a complex block and its partner: the vertex build checks Hermiticity,
    # and a real pair would cancel in current1 at k1 + p1 = -k1
    blk = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M)) + 1.0
    with pytest.raises(ValueError, match="the model was already read"):
        ham.add_block(1, x2, x2, blk)
    assert response.fiber_cache(ham, size[0])[0] is stored
    assert ham._grids == {size[0]: stored}
    assert np.array_equal(build_vertices(ham, f_k, f_kp).current1, before.current1)
    # the same edit made before the first read is read
    edited = random_hermitian_model(np.random.default_rng(seed), *size)
    edited.add_block(1, x2, x2, blk)
    edited.add_block(-1, x2, x2, blk.conj().T)
    after = build_vertices(edited, f_k, f_kp)
    assert np.max(np.abs(after.current1 - before.current1)) > 1e-6
    assert_matches_loop(edited, f_k, f_kp, (L2, L2, L2))


@PROPERTY
@given(seed=SEEDS, size=SIZES, k1=st.floats(-4.0 * np.pi, 4.0 * np.pi))
def test_fiber_matches_the_block_loop(seed, size, k1):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    assert np.max(np.abs(lattice.assemble_fiber(ham, k1) - loop_fiber(ham, k1))) <= 1e-14


@PROPERTY
@given(seed=SEEDS, size=SIZES, pick=st.integers(0, 2**16), entry=st.integers(0, 3))
def test_the_hermiticity_check_passes_every_model_and_trips_on_one_moved_entry(seed, size, pick, entry):
    ham = random_hermitian_model(np.random.default_rng(seed), *size)
    ham.check_hermitian()
    keys = [key for key, _ in ham.items()]
    z1, x2, y2 = keys[pick % len(keys)]
    peak = max(np.max(np.abs(blk)) for _, blk in ham.items())
    blk = ham.block(z1, x2, y2).copy()
    # an imaginary move breaks a real diagonal entry of a block that is its own partner too
    blk[entry // 2 % ham.geometry.M, entry % 2 % ham.geometry.M] += 2e-12j * peak
    ham.add_block(z1, x2, y2, blk, accumulate=False)
    with pytest.raises(lattice.HermiticityError) as refused:
        ham.check_hermitian()
    pairs = ((z1, x2, y2), (-z1, y2, x2)), ((-z1, y2, x2), (z1, x2, y2))
    assert str(refused.value) in {f"blocks at (z1,x2,y2)={a} and {b} are not Hermitian partners" for a, b in pairs}


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
def test_fibers_are_bitwise_the_block_loop(make):
    # Fermi velocities are finite differences of fiber energies, so a last-bit
    # change in the fiber shows in their digits
    ham = make()
    for k1 in np.linspace(-7.0, 7.0, 15):
        assert np.array_equal(lattice.assemble_fiber(ham, k1), loop_fiber(ham, k1))


@PROPERTY
@given(size=SIZES, k1=st.floats(-4.0 * np.pi, 4.0 * np.pi))
def test_empty_model_has_an_exactly_zero_fiber(size, k1):
    ham = lattice.LatticeHamiltonian(lattice.CylinderGeometry(*size))
    fiber = lattice.assemble_fiber(ham, k1)
    assert fiber.shape == (size[1] * size[2],) * 2
    assert np.all(fiber == 0.0)


# ---------------------------------------------------------------------------
# reference side: the sunset kernel and the random ensemble
# ---------------------------------------------------------------------------


def sunset_kernel_per_call_grid(k0, k1, state, params, channel, level=4, gl=4):
    """Reference sunset kernel: a polar grid of its own, built around ``-k``."""
    h = state.h
    vb = params.v[channel]
    vr = state.v[channel]
    knots = [2.0 ** (h - 1), 2.0**h, 2.0 ** (h + 1)]
    u0, u1, w = polar_nodes(knots, level, 8 * level, gl=gl, center=(-k0, -vb * k1))
    p0 = u0
    p1 = u1 / vb
    f_h = shell(np.hypot(p0 + k0, vb * (p1 + k1)), h, h - 60)
    d_run = reference.chiral_denominator(p0 + k0, p1 + k1, vr)
    outer = f_h / d_run * reference.form_factor(p0, p1) ** 2
    total = np.zeros((), dtype=complex)
    for other in range(params.n_channels):
        lam = state.lam[channel, other]
        if lam == 0.0:
            continue
        inner = reference.bubble_over_d(p0, p1, state.v[other])
        total = total + lam**2 * np.dot(w, inner * outer)
    return total / (4.0 * np.pi**2 * abs(vb))


def sunset_increments(state, params, level):
    """Reference (z0, z1): four kernel calls per channel, four grids."""
    delta = 2.0 ** (state.h - 3)
    z0, z1 = np.zeros(params.n_channels), np.zeros(params.n_channels)
    for c in range(params.n_channels):
        if np.all(state.lam[c] == 0.0):
            continue
        w = [
            sunset_kernel_per_call_grid(k0, k1, state, params, c, level=level)
            for k0, k1 in ((+delta, 0.0), (-delta, 0.0), (0.0, +delta), (0.0, -delta))
        ]
        z0[c] = float(np.real(-1j * (w[0] - w[1]) / (2.0 * delta)))
        z1[c] = float(np.real(-(w[2] - w[3]) / (2.0 * delta)))
    return z0, z1


@pytest.mark.parametrize("level", [4, 6])
@pytest.mark.parametrize("h", [0, -3, -8, -17])
@pytest.mark.parametrize("v", [(1.0, -0.7), (1.3, -0.45, 0.8)], ids=["2ch", "3ch"])
def test_one_sunset_grid_per_scale_is_bitwise_the_per_call_grids(v, h, level):
    n = len(v)
    lam = 0.04 * (np.ones((n, n)) - np.eye(n)) + 0.01 * np.triu(np.ones((n, n)), 1)
    params = reference.LuttingerParams(v=v, z=np.ones(n), lam=lam + lam.T)
    # running values off the bare ones, so shell (bare) and D_run differ
    state = rgflow.FlowState(
        h=h, z=np.linspace(1.0, 1.2, n), v=params.v * 1.03, lam=0.9 * params.lam
    )
    ev = rgflow.beta_second_order(state, params, rgflow._unit_grid(params, level))
    z0, z1 = sunset_increments(state, params, level)
    assert np.any(z0 != 0.0)
    # the flow takes the outer line at the grid node q, the reference at
    # p + k = (q - k) + k, which rounds differently in the last bits
    assert np.all(np.abs(ev.z0 - z0) <= 1e-14 * np.abs(z0))
    assert np.all(np.abs(ev.z1 - z1) <= 1e-14 * np.abs(z1))


RUNNING_STATES = dict(
    speeds=st.lists(st.floats(0.3, 2.0), min_size=2, max_size=4),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
    h=st.integers(-20, 0),
    seed=SEEDS,
)


def random_running_state(speeds, signs, h, seed):
    """Coupled channels of mixed chiralities, with running values off the
    bare ones, so shell (bare) and D_run differ."""
    n = len(speeds)
    signs[1] = -signs[0]  # mixed chiralities
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.01, 0.08, (n, n))
    lam = lam + lam.T
    np.fill_diagonal(lam, 0.0)
    params = reference.LuttingerParams(v=np.multiply(speeds, signs[:n]), z=np.ones(n), lam=lam)
    state = rgflow.FlowState(
        h=h,
        z=rng.uniform(0.8, 1.2, n),
        v=params.v * rng.uniform(0.9, 1.1, n),
        lam=params.lam * rng.uniform(0.8, 1.2),
    )
    return params, state


@PROPERTY
@given(**RUNNING_STATES)
def test_the_sunset_in_the_outer_frame_matches_the_shifted_grids(speeds, signs, h, seed):
    params, state = random_running_state(speeds, signs, h, seed)
    ev = rgflow.beta_second_order(state, params, rgflow._unit_grid(params))
    z0, z1 = sunset_increments(state, params, 4)
    scale = max(np.max(np.abs(z0)), np.max(np.abs(z1)))
    assert scale > 0.0
    assert np.max(np.abs(ev.z0 - z0)) <= 1e-14 * scale
    assert np.max(np.abs(ev.z1 - z1)) <= 1e-14 * scale


def kernel_oddness(state, params, grid, k0, k1):
    """Per channel, |W(k) + W(-k)| of the kernel on ``grid`` and the
    kernel's magnitude: every term at full modulus, |B/D| = 1 / (4 pi |v|)."""
    du0, du1, w = grid
    out = []
    for c, vb in enumerate(params.v):
        outer = w * rgflow.single_scale_propagator(du0, du1 / vb, 0, vb, state.v[c], 1.0)

        def kernel(sign):
            table = rgflow._inner_table(grid, vb, sign * k0, sign * k1)
            return rgflow._sunset_kernel(table, state, params, c, outer)

        inner = np.sum(state.lam[c] ** 2 / (4.0 * np.pi * np.abs(state.v)))
        size = np.sum(np.abs(outer)) * inner / (4.0 * np.pi**2 * abs(vb))
        out.append((abs(kernel(1.0) + kernel(-1.0)), size))
    return out


@pytest.mark.parametrize("level", [4, 6])
@PROPERTY
@given(**RUNNING_STATES, angle=st.floats(0.0, 2.0 * np.pi))
def test_the_sunset_kernel_is_odd_on_the_flow_grid(level, speeds, signs, h, seed, angle):
    # W(-k) = -W(k): the outer line is odd, the inner lines and the form
    # factor are even, and the grid has an even number of angular cells.
    # The bound is relative to the kernel's magnitude, which sets its
    # rounding: W vanishes at k = 0, so at the flow's step |W(k)| is up to
    # about 600 times smaller than the sum of its terms' moduli
    params, state = random_running_state(speeds, signs, h, seed)
    k0, k1 = rgflow.STEP * np.cos(angle), rgflow.STEP * np.sin(angle)
    grid = rgflow._unit_grid(params, level)[0]
    for odd, size in kernel_oddness(state, params, grid, k0, k1):
        assert size > 0.0
        assert odd <= 1e-14 * size
    # control: on a coarse grid the symmetry, not convergence, makes W odd;
    # four angular cells keep it, three break it by far more than the bound
    knots = [0.5, 1.0, 2.0]
    for odd, size in kernel_oddness(state, params, polar_nodes(knots, 1, 4), k0, k1):
        assert odd <= 1e-14 * size
    for odd, size in kernel_oddness(state, params, polar_nodes(knots, 1, 3), k0, k1):
        assert odd > 1e-10 * size


SIGNED_MAGNITUDES = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-100.0, 100.0)).map(
    lambda t: t[0] * 10.0 ** t[1]
)


@pytest.mark.parametrize("v_sign", [1.0, -1.0])
@pytest.mark.parametrize("axis", ["p0", "p1", "off-axis"])
@PROPERTY
@given(x=SIGNED_MAGNITUDES, y=SIGNED_MAGNITUDES, speed=st.floats(0.05, 20.0))
def test_bubble_over_d_is_the_complex_quotient(v_sign, axis, x, y, speed):
    # the real-arithmetic B/D against the complex quotient it replaced,
    # for |p0|, |p1| anywhere in [1e-100, 1e100], and its modulus
    p0, p1 = {"p0": (x, 0.0), "p1": (0.0, y), "off-axis": (x, y)}[axis]
    v = v_sign * speed
    got = reference.bubble_over_d(p0, p1, v)
    want = reference.bubble_closed(p0, p1, v) / reference.chiral_denominator(p0, p1, v)
    modulus = 1.0 / (4.0 * np.pi * abs(v))
    assert abs(got - want) <= 2e-15 * abs(want)
    assert abs(abs(got) - modulus) <= 2e-15 * modulus


@pytest.mark.parametrize("v_sign", [1.0, -1.0])
@pytest.mark.parametrize("axis", ["k0", "k1", "off-axis"])
@PROPERTY
@given(
    x=SIGNED_MAGNITUDES,
    y=SIGNED_MAGNITUDES,
    speed=st.floats(0.05, 20.0),
    z=st.floats(0.5, 2.0),
    f=st.just(0.0) | st.floats(1e-300, 1.0),
)
def test_the_outer_line_is_the_complex_quotient(v_sign, axis, x, y, speed, z, f):
    # the flow's outer line f / (z D) in real arithmetic against the complex
    # quotient, for |k0|, |k1| anywhere in [1e-100, 1e100] (beyond about
    # 1e+-150 the squares leave the double range); exactly 0 where the shell
    # is, also at k = 0
    k0, k1 = {"k0": (x, 0.0), "k1": (0.0, y), "off-axis": (x, y)}[axis]
    v = v_sign * speed
    got = rgflow._shell_over_d(f, k0, k1, v, z)
    if f == 0.0:
        assert got == 0.0 and rgflow._shell_over_d(f, 0.0, 0.0, v, z) == 0.0
        return
    want = f / (z * reference.chiral_denominator(k0, k1, v))
    assert abs(got - want) <= 2e-15 * abs(want)


@pytest.mark.parametrize(
    "p0, p1",
    [
        (np.linspace(-2.0, 2.0, 9), np.linspace(0.0, 3.0, 9)),  # all on the plateau
        (np.linspace(-9.0, 9.0, 13), np.linspace(-1.0, 7.0, 13)),  # plateau, ramp and zero
        (1.5, -2.5),
        (np.array([]), np.array([])),
    ],
    ids=["plateau", "mixed", "scalar", "empty"],
)
def test_form_factor_is_bitwise_the_cutoff_formula(p0, p1):
    got = reference.form_factor(p0, p1)
    want = chi(np.hypot(p0, p1) / reference.P_C)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def random_params_three_builds(rng, n_channels=None, lambda_scale=0.1):
    """Reference draw: read one draw's variates, then :func:`three_builds`."""
    if n_channels is None:
        n_channels = int(rng.integers(1, 5))
    v = rng.uniform(0.5, 2.0, n_channels) * rng.choice([-1.0, 1.0], n_channels)
    z = rng.uniform(0.5, 2.0, n_channels)
    return three_builds(v, z, rng.normal(0.0, lambda_scale, (n_channels, n_channels)))


# the cap is hit only for couplings of order 4 pi |v| RADIUS_CAP / (n - 1),
# so the widest scale is the one that makes the rescaling run
@pytest.mark.parametrize("lambda_scale", [0.0, 0.1, 0.3, 10.0])
@pytest.mark.parametrize("n_channels", [None, 1, 2, 3, 4])
def test_one_build_per_draw_is_bitwise_the_three_build_draw(n_channels, lambda_scale):
    rescaled = 0
    for seed in range(40):
        got = reference.random_params(np.random.default_rng(seed), n_channels, lambda_scale)
        want, fired = random_params_three_builds(
            np.random.default_rng(seed), n_channels, lambda_scale
        )
        rescaled += fired
        for name in ("v", "z", "lam"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (seed, name)
    if lambda_scale == 10.0 and n_channels != 1:
        assert rescaled > 0


@pytest.mark.parametrize("lambda_scale", [0.0, 0.1, 20.0])
@pytest.mark.parametrize("n_channels", [None, 1, 2, 3, 4])
def test_consecutive_draws_read_the_generator_as_the_per_draw_oracle(n_channels, lambda_scale):
    # random_params is a block of one: five calls on one generator give the
    # oracle's five draws and leave the generator where the oracle leaves it,
    # which keeps every seeded model of the tests as it is
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    for draw in range(5):
        got = reference.random_params(got_rng, n_channels, lambda_scale)
        want, _ = random_params_three_builds(want_rng, n_channels, lambda_scale)
        for name in ("v", "z", "lam"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (draw, name)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@PROPERTY
@given(
    seed=SEEDS,
    n_channels=st.none() | st.integers(1, 4),
    lambda_scale=st.floats(0.0, 20.0),
)
def test_every_draw_is_inside_the_radius_cap(seed, n_channels, lambda_scale):
    params = reference.random_params(np.random.default_rng(seed), n_channels, lambda_scale)
    assert params.coupling_radius() < reference.RADIUS_CAP


@PROPERTY
@given(
    seed=SEEDS,
    n_channels=st.none() | st.integers(1, 4),
    lambda_scale=st.floats(0.0, 20.0),
)
def test_universality_holds_up_to_the_radius_cap(seed, n_channels, lambda_scale):
    params = reference.random_params(np.random.default_rng(seed), n_channels, lambda_scale)
    target = float(np.sum(np.sign(params.v))) / (2.0 * np.pi)
    assert abs(reference.edge_conductance(params) - target) <= 1e-9


def test_universality_is_checked_at_the_radius_cap():
    # wide couplings are rescaled onto the cap, 0.99 RADIUS_CAP
    radii, errors = [], []
    for seed in range(20):
        params = reference.random_params(np.random.default_rng(seed), 2 + seed % 3, 20.0)
        target = float(np.sum(np.sign(params.v))) / (2.0 * np.pi)
        radii.append(params.coupling_radius())
        errors.append(abs(reference.edge_conductance(params) - target))
    assert max(radii) >= 0.99 * reference.RADIUS_CAP * (1.0 - 1e-9)
    assert max(errors) <= 1e-9
