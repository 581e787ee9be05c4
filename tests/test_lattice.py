import re

import numpy as np
import pytest

from edgeflow import lattice, response, spectrum
from conftest import (
    haldane_by_terms,
    hofstadter_by_terms,
    random_hermitian_model,
    shifted,
    slabs_by_blocks,
    stacked_by_blocks,
)


# ---------------------------------------------------------------------------
# brute-force real-space oracles
# ---------------------------------------------------------------------------


def haldane_real_space(L1, L2, t1=1.0, t2=0.2, phi=np.pi / 2, m_stag=0.0):
    """Independent real-space build of the honeycomb Chern model on the
    cylinder, from an explicit bond list (cell displacements, sublattice
    pair, amplitude); rows at the Dirichlet boundary are zeroed."""
    n = L1 * L2 * 2

    def idx(x1, x2, s):
        return ((x1 % L1) * L2 + x2) * 2 + s

    H = np.zeros((n, n), dtype=complex)
    # matches the orientation convention of the packaged model
    up, dn = np.exp(-1j * phi), np.exp(1j * phi)
    bonds = [
        # (d1, d2, s_to, s_from, amplitude): <to| H |from>
        (0, 0, 1, 0, -t1),
        (-1, 0, 1, 0, -t1),
        (0, -1, 1, 0, -t1),
        (1, 0, 0, 0, t2 * up),
        (0, 1, 0, 0, t2 * dn),
        (1, -1, 0, 0, t2 * dn),
        (1, 0, 1, 1, t2 * dn),
        (0, 1, 1, 1, t2 * up),
        (1, -1, 1, 1, t2 * up),
    ]
    interior = range(1, L2 - 1)
    for x1 in range(L1):
        for x2 in interior:
            H[idx(x1, x2, 0), idx(x1, x2, 0)] += m_stag
            H[idx(x1, x2, 1), idx(x1, x2, 1)] -= m_stag
            for (d1, d2, s_to, s_from, amp) in bonds:
                if x2 + d2 not in interior:
                    continue
                # bond from (x1, x2, s_from) to (x1 + d1, x2 + d2, s_to)
                i = idx(x1 + d1, x2 + d2, s_to)
                j = idx(x1, x2, s_from)
                H[i, j] += amp
                H[j, i] += np.conj(amp)
    return H, idx


def hofstadter_real_space(L1, L2, p=1, q=3, t=1.0):
    n = L1 * L2

    def idx(x1, x2):
        return (x1 % L1) * L2 + x2

    H = np.zeros((n, n), dtype=complex)
    interior = range(1, L2 - 1)
    for x1 in range(L1):
        for x2 in interior:
            phase = np.exp(2j * np.pi * p / q * x2)
            i, j = idx(x1 + 1, x2), idx(x1, x2)
            H[i, j] += -t * phase
            H[j, i] += -t * np.conj(phase)
            if x2 + 1 in interior:
                i, j = idx(x1, x2 + 1), idx(x1, x2)
                H[i, j] += -t
                H[j, i] += -t
    return H, idx


def fiber_from_real_space(H, idx, L1, L2, M, k1):
    """Column Fourier transform of a full real-space matrix at momentum k1
    (wavefunction convention exp(+i k1 x1))."""
    out = np.zeros((L2 * M, L2 * M), dtype=complex)
    for z1 in range(L1):
        block = np.zeros_like(out)
        for x2 in range(L2):
            for y2 in range(L2):
                for r in range(M):
                    for c in range(M):
                        if M == 1:
                            block[x2, y2] = H[idx(z1, x2), idx(0, y2)]
                        else:
                            block[x2 * M + r, y2 * M + c] = H[idx(z1, x2, r), idx(0, y2, c)]
        # hop from column 0 to column z1: displacement z1 wraps the ring
        out += np.exp(-1j * k1 * z1) * block
    return out


# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(ValueError):
        lattice.CylinderGeometry(3, 8, 1)
    with pytest.raises(ValueError):
        lattice.CylinderGeometry(8, 8, 0)


def test_block_constraints():
    g = lattice.CylinderGeometry(8, 8, 1)
    ham = lattice.LatticeHamiltonian(g)
    with pytest.raises(ValueError):
        ham.add_block(2, 3, 3, [[1.0]])  # beyond range sqrt(2)
    with pytest.raises(ValueError):
        ham.add_block(0, 0, 1, [[1.0]])  # Dirichlet row
    ham.add_block(0, 0, 1, [[0.0]])  # zero blocks on the boundary are fine


def test_add_block_refuses_blocks_beyond_the_hopping_range():
    # the bond currents read only z1 and x2 - y2 in {-1, 0, 1}
    ham = lattice.LatticeHamiltonian(lattice.CylinderGeometry(8, 8, 1))
    for key in ((2, 3, 3), (1, 3, 5), (0, 3, 5)):
        with pytest.raises(ValueError, match="exceeds hopping range"):
            ham.add_block(*key, [[1.0]])
    ham.add_block(1, 3, 4, [[1.0]])
    assert list(dict(ham.items())) == [(1, 3, 4)]


def test_add_block_refuses_non_integral_indices():
    # int() would truncate 0.5 and 2.7 onto the key (0, 2, 2)
    ham = lattice.LatticeHamiltonian(lattice.CylinderGeometry(8, 6, 1))
    for key in ((0.5, 2, 2), (0, 2.7, 2), (0, 2, 2.0), (np.float64(0.0), 2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"block at {key}: indices must be integers")):
            ham.add_block(*key, [[1.0]])
    assert not ham.items()
    ham.add_block(np.int64(0), np.int32(2), 2, [[1.0]])  # numpy integers are integers
    ham.add_block(0, 2, 2, [[1.0]])
    [(key, blk)] = ham.items()
    assert key == (0, 2, 2) and all(type(i) is int for i in key)
    assert blk[0, 0] == 2.0


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)])
def test_a_non_finite_block_is_refused_before_any_fiber(value):
    # every comparison with NaN is false, so the Hermiticity check alone
    # would pass a NaN block and eigh would return zeros with no error
    ham = lattice.chain_cylinder(lattice.CylinderGeometry(8, 8, 1))
    ham.add_block(0, 3, 3, [[value]])
    with pytest.raises(ValueError, match=r"\(0, 3, 3\) has a non-finite entry"):
        response.diagonalize_fiber(ham, 0.1)


def test_a_nan_shift_is_refused_before_any_fiber(haldane16, add_block_calls):
    # stacked_shifted writes its blocks with no add_block call
    stack = lattice.stacked_shifted(haldane16, [0.0, np.nan])
    assert add_block_calls == []
    with pytest.raises(ValueError, match=r"\(0, 1, 1\) has a non-finite entry"):
        lattice.assemble_fiber(stack, 0.3)
    # and a built-in model makes one add_block call per stored key, so the
    # benchmark's counter stack makes all of its calls in its two Haldane builds
    haldane = lattice.haldane_cylinder(L1=48, L2=24)
    assert add_block_calls == [haldane] * 150 and len(haldane.items()) == 150
    del add_block_calls[:]
    counter = lattice.build_model("stacked-haldane", 48, 24, shifts="0.0,0.1", flips="0,1")
    assert len(add_block_calls) == 300 and counter not in add_block_calls
    assert len(set(map(id, add_block_calls))) == 2


def test_hermiticity_error_names_blocks():
    g = lattice.CylinderGeometry(8, 8, 1)
    ham = lattice.LatticeHamiltonian(g)
    ham.add_block(1, 3, 3, [[1.0 + 0.5j]])
    with pytest.raises(lattice.HermiticityError, match=r"\(1, 3, 3\)"):
        lattice.assemble_fiber(ham, 0.2)


def test_the_check_names_the_first_broken_pair_in_block_order():
    ham = lattice.chain_cylinder(lattice.CylinderGeometry(8, 8, 1))
    ham.add_block(0, 4, 5, [[0.3]])  # no partner at (0, 5, 4)
    ham.add_block(1, 3, 3, [[0.5]])  # stored before (0, 4, 5), off its partner by less
    with pytest.raises(lattice.HermiticityError, match=r"^blocks at \(z1,x2,y2\)=\(1, 3, 3\) and \(-1, 3, 3\) "):
        ham.check_hermitian()


def test_a_non_finite_block_is_refused_before_a_broken_pair():
    ham = lattice.chain_cylinder(lattice.CylinderGeometry(8, 8, 1))
    ham.add_block(0, 4, 5, [[0.3]])  # no partner at (0, 5, 4), stored first
    ham.add_block(0, 6, 6, [[np.nan]])
    for read in (ham.check_hermitian, lambda: lattice.assemble_fiber(ham, 0.2)):
        with pytest.raises(ValueError, match=r"\(0, 6, 6\) has a non-finite entry") as refused:
            read()
        assert not isinstance(refused.value, lattice.HermiticityError)
    # a model whose check failed was not read: no slab stack, and it still takes blocks
    assert ham._slabs is None and ham._summands is None
    ham.add_block(0, 6, 6, [[0.1]], accumulate=False)
    with pytest.raises(lattice.HermiticityError, match=r"\(0, 4, 5\) and \(0, 5, 4\)"):
        lattice.assemble_fiber(ham, 0.2)
    assert ham._slabs is None and ham._summands is None
    ham.add_block(0, 5, 4, [[0.3]])
    assert lattice.assemble_fiber(ham, 0.2)[4, 5] == 0.3


def test_a_model_is_checked_once_and_never_read_stale(hermitian_checks):
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2))
    response.fiber_cache(ham, 16)
    scan = spectrum.scan_spectrum(ham, 64, window=(-0.15, 0.45))
    branch = next(b for b in spectrum.extract_edge_branches(scan, 0.15) if np.isfinite(b.k_fermi))
    spectrum.fermi_point(branch, ham, 0.15)
    assert hermitian_checks == [ham]

    # an edit after the first read is refused and changes nothing read
    before, stored = lattice.assemble_fiber(ham, 0.4), dict(ham._grids)
    with pytest.raises(ValueError, match=r"block at \(1, 5, 6\): the model was already read"):
        ham.add_block(1, 5, 6, np.eye(2))
    assert np.array_equal(lattice.assemble_fiber(ham, 0.4), before)
    assert ham._grids.keys() == stored.keys() == {16, 64}
    assert all(ham._grids[n_k] is grid for n_k, grid in stored.items())

    # made before the first read, the edit is checked and read; a model whose
    # check failed was not read, so it still takes blocks
    edited = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2))
    edited.add_block(1, 5, 6, np.eye(2))  # no partner at (-1, 6, 5)
    with pytest.raises(lattice.HermiticityError, match=r"\(1, 5, 6\)"):
        lattice.assemble_fiber(edited, 0.4)
    edited.add_block(-1, 6, 5, np.eye(2))
    want = before.copy()
    want[10:12, 12:14] += np.exp(-0.4j) * np.eye(2)
    want[12:14, 10:12] += np.exp(0.4j) * np.eye(2)
    assert np.max(np.abs(lattice.assemble_fiber(edited, 0.4) - want)) <= 1e-15
    assert hermitian_checks == [ham, edited, edited]


def test_a_model_owns_its_blocks():
    # neither the caller's array nor the one block() returns can change the model
    ham = lattice.chain_cylinder(lattice.CylinderGeometry(8, 8, 1))
    onsite = np.array([[0.3]], dtype=complex)
    ham.add_block(0, 3, 3, onsite)
    basis = response.fiber_cache(ham, 8)[0][1]
    onsite[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        ham.block(0, 3, 3)[0, 0] = 7.0
    assert ham.block(0, 3, 3)[0, 0] == 0.3
    assert response.fiber_cache(ham, 8)[0][1] is basis
    assert np.array_equal(basis.energies, np.linalg.eigvalsh(lattice.assemble_fiber(ham, basis.k1)))
    stack = lattice.stacked_shifted(ham, [0.0, 0.1])
    models = [ham, stack] + [sub for _, sub in stack.summands()]
    assert all(not blk.flags.writeable for model in models for _, blk in model.items())


def test_zero_hamiltonian_zero_fiber():
    g = lattice.CylinderGeometry(8, 8, 2)
    ham = lattice.LatticeHamiltonian(g)
    assert np.all(lattice.assemble_fiber(ham, 1.234) == 0.0)


def test_chain_fiber_diagonal():
    g = lattice.CylinderGeometry(8, 8, 1)
    ham = lattice.chain_cylinder(g, t=0.7)
    k = 0.9
    fiber = lattice.assemble_fiber(ham, k)
    diag = np.diag(fiber)
    assert np.allclose(diag[1:-1], -2 * 0.7 * np.cos(k))
    assert diag[0] == diag[-1] == 0.0
    assert np.max(np.abs(fiber - np.diag(diag))) == 0.0


def test_haldane_fiber_matches_real_space_oracle(haldane16):
    # the ring Fourier transform of the real-space build is exact only on
    # the momentum grid of the finite ring
    g = haldane16.geometry
    H, idx = haldane_real_space(g.L1, g.L2)
    for m in (0, 3, 7):
        k1 = 2.0 * np.pi * m / g.L1
        want = fiber_from_real_space(H, idx, g.L1, g.L2, 2, k1)
        got = lattice.assemble_fiber(haldane16, k1)
        assert np.max(np.abs(want - got)) < 1e-12


def test_hofstadter_fiber_matches_real_space_oracle(hofstadter16):
    g = hofstadter16.geometry
    H, idx = hofstadter_real_space(g.L1, g.L2)
    for m in (0, 5):
        k1 = 2.0 * np.pi * m / g.L1
        want = fiber_from_real_space(H, idx, g.L1, g.L2, 1, k1)
        got = lattice.assemble_fiber(hofstadter16, k1)
        assert np.max(np.abs(want - got)) < 1e-12


def test_hofstadter_fiber_phases(hofstadter16):
    # ring hoppings carry exp(2 pi i x2 / 3) relative to k1-only phases
    fiber0 = lattice.assemble_fiber(hofstadter16, 0.0)
    diag = np.diag(fiber0)[1:-1]
    x2 = np.arange(1, hofstadter16.geometry.L2 - 1)
    want = -2.0 * np.cos(2.0 * np.pi * x2 / 3.0)
    assert np.allclose(diag, want)


def test_hofstadter_parameter_guards():
    with pytest.raises(ValueError):
        lattice.hofstadter_cylinder(p=2, q=4, L1=16, L2=8)
    with pytest.raises(ValueError):
        lattice.hofstadter_cylinder(p=1, q=1, L1=16, L2=8)


def test_haldane_without_flux_is_bipartite(haldane16):
    g = lattice.CylinderGeometry(16, 16, 2)
    ham = lattice.haldane_cylinder(g, t2=0.0, m_stag=0.0)
    for (z1, x2, y2), blk in ham.items():
        assert blk[0, 0] == 0.0 and blk[1, 1] == 0.0
    fiber = lattice.assemble_fiber(ham, 0.7)
    assert np.max(np.abs(fiber - fiber.conj().T)) == 0.0


def test_stacked_shifted_structure(haldane16):
    stack = lattice.stacked_shifted(haldane16, [0.0, 0.1, 0.2])
    assert stack.geometry.M == 6
    f = lattice.assemble_fiber(stack, 0.3)
    base = lattice.assemble_fiber(haldane16, 0.3)
    # first copy block equals the base plus nothing; second shifted by 0.1
    g = haldane16.geometry
    eig_stack = np.sort(np.linalg.eigvalsh(f))
    shifted = [np.linalg.eigvalsh(base)]
    interior = np.zeros(g.fiber_dim)
    interior.reshape(g.L2, g.M)[1:-1, :] = 1.0
    for s in (0.1, 0.2):
        shifted.append(np.linalg.eigvalsh(base + s * np.diag(interior)))
    want = np.sort(np.concatenate(shifted))
    assert np.max(np.abs(eig_stack - want)) < 1e-12


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stack_by_terms(L1, L2, shifts, flips):
    g = lattice.CylinderGeometry(L1, L2, 2)
    return stacked_by_blocks([haldane_by_terms(g, phi=-np.pi / 2 if f else np.pi / 2) for f in flips], shifts)


G = lattice.CylinderGeometry
BUILDS = {
    "haldane": (lambda: lattice.haldane_cylinder(G(16, 12, 2)), lambda: haldane_by_terms(G(16, 12, 2))),
    "haldane-m_stag": (
        lambda: lattice.haldane_cylinder(G(16, 12, 2), m_stag=0.3),
        lambda: haldane_by_terms(G(16, 12, 2), m_stag=0.3),
    ),
    "haldane-phi-flipped": (
        lambda: lattice.haldane_cylinder(G(16, 12, 2), phi=-np.pi / 2),
        lambda: haldane_by_terms(G(16, 12, 2), phi=-np.pi / 2),
    ),
    # a zero t2 term leaves its key to the bond term added after it
    "haldane-t2-0": (lambda: lattice.haldane_cylinder(G(16, 12, 2), t2=0.0), lambda: haldane_by_terms(G(16, 12, 2), t2=0.0)),
    **{
        f"haldane-L2-{L2}": (lambda L2=L2: lattice.haldane_cylinder(G(16, L2, 2)), lambda L2=L2: haldane_by_terms(G(16, L2, 2)))
        for L2 in (4, 5, 24)
    },
    "hofstadter-1/3": (lambda: lattice.hofstadter_cylinder(G(24, 16, 1)), lambda: hofstadter_by_terms(G(24, 16, 1))),
    "hofstadter-2/5": (
        lambda: lattice.hofstadter_cylinder(G(20, 13, 1), p=2, q=5),
        lambda: hofstadter_by_terms(G(20, 13, 1), p=2, q=5),
    ),
    "chain": (lambda: lattice.chain_cylinder(G(8, 8, 2), t=0.7), lambda: lattice.chain_cylinder(G(8, 8, 2), t=0.7)),
    "stack-2-flipped": (
        lambda: lattice.build_model("stacked-haldane", 16, 12, shifts="0.0,0.1", flips="0,1"),
        lambda: stack_by_terms(16, 12, [0.0, 0.1], [0, 1]),
    ),
    "stack-3-flipped": (
        lambda: lattice.build_model("stacked-haldane", 16, 12, shifts="0.0,-0.1,0.26", flips="1,0,1"),
        lambda: stack_by_terms(16, 12, [0.0, -0.1, 0.26], [1, 0, 1]),
    ),
}


@pytest.mark.parametrize("name", BUILDS)
def test_a_builtin_model_is_bitwise_its_per_term_build(name):
    # fibers round by key order, and Fermi velocities show the last bit: the
    # one-block-per-key builders and the array fill of the slab stack give the
    # per-term build's keys in its order, its bits, slabs, mirrors and fibers
    model, oracle = (make() for make in BUILDS[name])
    assert [key for key, _ in model.items()] == [key for key, _ in oracle.items()]
    assert all(same_bits(blk, oracle.block(*key)) for key, blk in model.items())
    z1s, slabs = slabs_by_blocks(oracle)
    assert all(map(same_bits, model._slab_stack(), (z1s, slabs)))
    mirrors = [[sub._mirror for _, sub in ham.summands()] for ham in (model, oracle)]
    assert all(a is b is None or np.array_equal(a, b) for a, b in zip(*mirrors, strict=True))
    for k1 in (0.0, 0.4, -2.1, np.pi):
        fiber = np.zeros(slabs.shape[1:], dtype=complex)
        for phase, slab in zip(np.exp(-1j * k1 * z1s), slabs):
            fiber += phase * slab
        assert same_bits(lattice.assemble_fiber(model, k1), fiber)


def test_stacked_shifted_validation(haldane16):
    with pytest.raises(ValueError):
        lattice.stacked_shifted(haldane16, [])
    with pytest.raises(ValueError):
        lattice.stacked_shifted([haldane16], [0.0, 0.1])


def test_a_connected_model_is_its_own_only_summand(rng, haldane16, hofstadter16):
    for ham in (haldane16, hofstadter16, random_hermitian_model(rng), random_hermitian_model(rng, M=3)):
        [(idx, sub)] = ham.summands()
        assert sub is ham
        assert np.array_equal(idx, np.arange(ham.geometry.M))


@pytest.mark.parametrize("copies", [2, 3])
def test_a_stack_splits_into_its_copies(haldane16, copies):
    shifts = [0.0, 0.1, 0.26][:copies]
    stack = lattice.stacked_shifted(haldane16, shifts)
    parts = stack.summands()
    assert [idx.tolist() for idx, _ in parts] == [[2 * c, 2 * c + 1] for c in range(copies)]
    # fibers round by block order: the stack keeps the keys' first appearance
    # over the copies, and each summand the order of its shifted copy
    want = list(dict.fromkeys(key for shift in shifts for key, _ in shifted(haldane16, shift).items()))
    assert [key for key, _ in stack.items()] == want
    for (_, sub), shift in zip(parts, shifts):
        copy = shifted(haldane16, shift)
        assert sub.geometry == copy.geometry
        assert [key for key, _ in sub.items()] == [key for key, _ in copy.items()]
        assert all(np.array_equal(blk, copy.block(*key)) for key, blk in sub.items())
        # the summand's stack, cut from the whole one, is the copy's own build
        for got, want in zip(sub._slab_stack(), copy._slab_stack(), strict=True):
            assert np.array_equal(got, want)
    assert stack.summands() is parts  # kept with the slab stack


def test_a_stack_appends_the_new_diagonal_keys_of_a_copy(hofstadter16):
    # Hofstadter stores no on-site block: a zero shift adds none, and a
    # nonzero one adds the interior diagonal after the copy's own keys
    own = [key for key, _ in hofstadter16.items()]
    assert [key for key, _ in lattice.stacked_shifted(hofstadter16, [0.0]).items()] == own
    stack = lattice.stacked_shifted(hofstadter16, [0.0, 0.1])
    diag = [(0, x2, x2) for x2 in range(1, hofstadter16.geometry.L2 - 1)]
    assert [key for key, _ in stack.items()] == own + diag
    assert all(np.array_equal(stack.block(*key), np.diag([0.0, 0.1])) for key in diag)


def test_a_block_that_couples_two_copies_merges_their_summands(haldane16):
    hop = np.zeros((6, 6))
    hop[1, 4] = hop[4, 1] = 0.05  # copy 0 to copy 2, on one row
    stack = lattice.stacked_shifted(haldane16, [0.0, 0.1, 0.26])
    stack.add_block(0, 5, 5, hop)  # before the first read
    parts = stack.summands()
    assert [idx.tolist() for idx, _ in parts] == [[0, 1, 4, 5], [2, 3]]
    merged = parts[0][1]
    assert merged.geometry.M == 4
    assert merged.block(0, 5, 5)[1, 2] == 0.05
    # after the first read the coupling is refused and the split stays
    apart = lattice.stacked_shifted(haldane16, [0.0, 0.1, 0.26])
    split, grids = apart.summands(), response.fiber_cache(apart, 16)
    for model in (stack, apart):
        with pytest.raises(ValueError, match=r"block at \(0, 5, 5\): the model was already read"):
            model.add_block(0, 5, 5, hop)
    assert stack.summands() is parts
    assert apart.summands() is split and len(split) == 3
    assert all(a is b for a, b in zip(response.fiber_cache(apart, 16), grids, strict=True))


def test_a_summand_is_born_fixed_and_not_checked_again(haldane16, hermitian_checks):
    stack = lattice.stacked_shifted(haldane16, [0.0, 0.1])
    sub = stack.summands()[1][1]
    before = lattice.assemble_fiber(sub, 0.3)
    assert hermitian_checks == [stack]  # restrictions of checked blocks
    with pytest.raises(ValueError, match=r"block at \(1, 5, 6\): the model was already read"):
        sub.add_block(1, 5, 6, np.eye(2))
    assert np.array_equal(lattice.assemble_fiber(sub, 0.3), before)
    # the summand built on its own with the edit is checked, and refused
    copy = shifted(haldane16, 0.1)
    copy.add_block(1, 5, 6, np.eye(2))  # no partner at (-1, 6, 5)
    with pytest.raises(lattice.HermiticityError, match=r"\(1, 5, 6\)"):
        lattice.assemble_fiber(copy, 0.3)
    assert hermitian_checks == [stack, copy]


def test_fiber_hermiticity_and_periodicity_all_builtins(rng, haldane16, hofstadter16):
    models = [haldane16, hofstadter16, lattice.stacked_shifted(haldane16, [0.0, 0.13])]
    for ham in models:
        for k1 in rng.uniform(0.0, 2.0 * np.pi, 64):
            fiber = lattice.assemble_fiber(ham, k1)
            scale = np.max(np.abs(fiber))
            assert np.max(np.abs(fiber - fiber.conj().T)) <= 1e-13 * scale
        k1 = rng.uniform(0.0, 2.0 * np.pi)
        a = lattice.assemble_fiber(ham, k1)
        b = lattice.assemble_fiber(ham, k1 + 2.0 * np.pi)
        assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))


def test_spectrum_real_sorted(haldane16):
    e = np.linalg.eigvalsh(lattice.assemble_fiber(haldane16, 0.31))
    assert np.all(np.diff(e) >= 0.0)
    assert e.dtype == np.float64


@pytest.mark.parametrize("M", [1, 2, 3])
def test_row_weights_of_a_matrix_are_the_per_column_weights(rng, M):
    g = lattice.CylinderGeometry(8, 10, M)
    vecs = rng.normal(size=(g.L2 * M, 7)) + 1j * rng.normal(size=(g.L2 * M, 7))
    w = lattice.row_weights(g, vecs)
    assert w.shape == (g.L2, 7)
    for j in range(7):
        col = lattice.row_weights(g, vecs[:, j])
        assert col.shape == (g.L2,)
        assert np.array_equal(w[:, j], col)
        assert np.allclose(col, [np.vdot(r, r).real for r in vecs[:, j].reshape(g.L2, M)], rtol=1e-14, atol=0)


def test_random_hermitian_model_fiber(rng):
    ham = random_hermitian_model(rng)
    f = lattice.assemble_fiber(ham, 0.77)
    assert np.max(np.abs(f - f.conj().T)) < 1e-13 * np.max(np.abs(f))


def test_model_from_config(tmp_path):
    cfg = tmp_path / "model.ini"
    cfg.write_text(
        "[geometry]\nl1 = 16\nl2 = 12\n\n[model]\ntype = haldane\n\n"
        "[params]\nt1 = 1.0\nt2 = 0.25\nphi = 1.5707963\nm_stag = 0.0\n"
    )
    import configparser

    parsed = configparser.ConfigParser()
    parsed.read(cfg)
    ham = lattice.model_from_config(parsed)
    assert ham.geometry.L1 == 16 and ham.geometry.M == 2


def test_model_from_config_rejects_unknown_sections_and_keys():
    base = {"geometry": {"l1": "16", "l2": "12"}, "model": {"type": "haldane"}, "params": {}}
    lattice.model_from_config(base)
    bad = [
        ({"rg": {"scales": "30"}}, "config sections: rg"),
        ({"geometry": {"l1": "16", "l2": "12", "m": "2"}}, r"\[geometry\] keys: m"),
        ({"model": {"type": "haldane", "colour": "red"}}, r"\[model\] keys: colour"),
        ({"params": {"p": "1"}}, r"\[params\] keys: p"),
        ({"model": {"type": "haldane", "shifts": "0,0.1"}}, "haldane parameters: shifts"),
        ({"model": {"type": "kagome"}}, "unknown model type 'kagome'"),
    ]
    for change, message in bad:
        with pytest.raises(ValueError, match=message):
            lattice.model_from_config({**base, **change})


def test_build_model_flip_rule_and_stack_defaults():
    stack = lattice.build_model("stacked-haldane", 8, 8, shifts="0,0.1", flips="0,1", t2=0.3)
    copies = [lattice.haldane_cylinder(L1=8, L2=8, t2=0.3, phi=f * np.pi / 2) for f in (1, -1)]
    want = lattice.stacked_shifted(copies, [0.0, 0.1])
    assert [key for key, _ in stack.items()] == [key for key, _ in want.items()]
    assert all(np.array_equal(blk, want.block(*key)) for key, blk in stack.items())
    assert lattice.build_model("stacked-haldane", 8, 8).geometry.M == 2 * 3  # shifts 0.0,0.1,0.26
    with pytest.raises(ValueError, match="flips must be 0 or 1"):
        lattice.build_model("stacked-haldane", 8, 8, shifts="0,0.1", flips="0,2")
    with pytest.raises(ValueError, match="hofstadter parameters: t2"):
        lattice.build_model("hofstadter", 9, 8, t2=0.1)


@pytest.mark.parametrize("flips, count", [("", 0), (" , ", 0), ("0,1", 2), ("0,1,0,1", 4)])
def test_a_flips_count_other_than_the_shifts_is_refused(flips, count):
    # an empty list would stack the three default shifts unflipped, as if
    # no flips were given
    with pytest.raises(ValueError, match=rf"^flips: need one 0 or 1 per shift, got {count} for 3 shifts$"):
        lattice.build_model("stacked-haldane", 16, 12, flips=flips)
