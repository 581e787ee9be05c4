import numpy as np
import pytest

from edgeflow import lattice


@pytest.fixture(scope="session")
def haldane16():
    g = lattice.CylinderGeometry(16, 16, 2)
    return lattice.haldane_cylinder(g)


@pytest.fixture(scope="session")
def hofstadter16():
    g = lattice.CylinderGeometry(24, 16, 1)
    return lattice.hofstadter_cylinder(g)


@pytest.fixture
def hermitian_checks(monkeypatch):
    """Record every ``LatticeHamiltonian.check_hermitian`` call, by model."""
    calls = []
    check = lattice.LatticeHamiltonian.check_hermitian

    def counted(ham, *args, **kwargs):
        calls.append(ham)
        return check(ham, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeHamiltonian, "check_hermitian", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


def random_hermitian_model(rng, L1=12, L2=12, M=2, scale=1.0):
    """Random finite-range (<= sqrt 2) Hermitian hopping model."""
    g = lattice.CylinderGeometry(L1, L2, M)
    raw = {}
    interior = range(1, L2 - 1)
    for z1 in (-1, 0, 1):
        for x2 in interior:
            for y2 in interior:
                if np.hypot(z1, x2 - y2) > np.sqrt(2) + 1e-12:
                    continue
                raw[(z1, x2, y2)] = scale * (
                    rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
                )
    ham = lattice.LatticeHamiltonian(g)
    for (z1, x2, y2), blk in raw.items():
        partner = raw.get((-z1, y2, x2), np.zeros((M, M)))
        ham.add_block(z1, x2, y2, 0.5 * (blk + partner.conj().T), accumulate=False)
    ham.check_hermitian()
    return ham
