import os

import numpy as np
import pytest

from edgeflow import lattice, response, spectrum
from conftest import random_hermitian_model


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


def test_hermiticity_error_names_blocks():
    g = lattice.CylinderGeometry(8, 8, 1)
    ham = lattice.LatticeHamiltonian(g)
    ham.add_block(1, 3, 3, [[1.0 + 0.5j]])
    with pytest.raises(lattice.HermiticityError, match=r"\(1, 3, 3\)"):
        lattice.assemble_fiber(ham, 0.2)


def test_a_model_is_checked_once_and_never_read_stale(hermitian_checks):
    ham = lattice.haldane_cylinder(lattice.CylinderGeometry(16, 16, 2))
    response.fiber_cache(ham, 16)
    scan = spectrum.scan_spectrum(ham, 64, window=(-0.15, 0.45))
    branch = next(b for b in spectrum.extract_edge_branches(scan, 0.15) if np.isfinite(b.k_fermi))
    spectrum.fermi_point(branch, ham, 0.15)
    assert hermitian_checks == [ham]

    before = lattice.assemble_fiber(ham, 0.4)
    ham.add_block(1, 5, 6, np.eye(2))  # no partner at (-1, 6, 5)
    with pytest.raises(lattice.HermiticityError, match=r"\(1, 5, 6\)"):
        lattice.assemble_fiber(ham, 0.4)
    ham.add_block(-1, 6, 5, np.eye(2))
    want = before.copy()
    want[10:12, 12:14] += np.exp(-0.4j) * np.eye(2)
    want[12:14, 10:12] += np.exp(0.4j) * np.eye(2)
    assert np.max(np.abs(lattice.assemble_fiber(ham, 0.4) - want)) <= 1e-15
    assert len(hermitian_checks) == 3


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


def test_stacked_shifted_validation(haldane16):
    with pytest.raises(ValueError):
        lattice.stacked_shifted(haldane16, [])
    with pytest.raises(ValueError):
        lattice.stacked_shifted([haldane16], [0.0, 0.1])


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


def test_dump_load_roundtrip(tmp_path, haldane16):
    path = os.path.join(tmp_path, "model.dat")
    lattice.dump_blocks(haldane16, path)
    back = lattice.load_blocks(path)
    for k1 in (0.0, 0.9):
        a = lattice.assemble_fiber(haldane16, k1)
        b = lattice.assemble_fiber(back, k1)
        assert np.max(np.abs(a - b)) < 1e-14


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
    assert dict(stack.items()).keys() == dict(want.items()).keys()
    assert all(np.array_equal(blk, want.block(*key)) for key, blk in stack.items())
    assert lattice.build_model("stacked-haldane", 8, 8).geometry.M == 2 * 3  # shifts 0.0,0.1,0.26
    with pytest.raises(ValueError, match="flips must be 0 or 1"):
        lattice.build_model("stacked-haldane", 8, 8, shifts="0,0.1", flips="0,2")
    with pytest.raises(ValueError, match="hofstadter parameters: t2"):
        lattice.build_model("hofstadter", 9, 8, t2=0.1)


@pytest.mark.parametrize(
    "header",
    [
        "# cylinder L1=8 L2=8 M=2",
        "# cylinders L1=8 L2=8 M=2 range=1.4",
        "# cylinder L1=8 L2=8 range=1.4 M=2",
        "# cylinder L1=8 L2=eight M=2 range=1.4",
        "cylinder L1=8 L2=8 M=2 range=1.4",
        "",
    ],
)
def test_load_blocks_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "model.dat"
    path.write_text(header + "\n0 1 1 0 0 1.0 0.0\n")
    with pytest.raises(ValueError, match="model.dat: malformed header"):
        lattice.load_blocks(str(path))
