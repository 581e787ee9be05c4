import numpy as np
import pytest

from edgeflow import lattice, reference, spectrum


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
def add_block_calls(monkeypatch):
    """Record every ``LatticeHamiltonian.add_block`` call, by model."""
    calls = []
    add = lattice.LatticeHamiltonian.add_block

    def counted(ham, *args, **kwargs):
        calls.append(ham)
        return add(ham, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeHamiltonian, "add_block", counted)
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


def inversion_symmetric_model(rng, L1=12, L2=12, M=2, internal_reversed=True):
    """Random Hermitian model with an inversion mirror: the blocks of
    :func:`random_hermitian_model` averaged with their images under ``(z1,
    x2, y2) -> (-z1, L2 - 1 - x2, L2 - 1 - y2)``, the internal index reversed
    too or kept, so that each block pair is bitwise the mirror of the other
    (IEEE addition commutes)."""
    base = dict(random_hermitian_model(rng, L1, L2, M).items())
    flip = (lambda b: b[::-1, ::-1]) if internal_reversed else (lambda b: b)
    zero = np.zeros((M, M), dtype=complex)
    ham = lattice.LatticeHamiltonian(lattice.CylinderGeometry(L1, L2, M))
    for z1, x2, y2 in sorted(set(base) | {(-z1, L2 - 1 - x2, L2 - 1 - y2) for z1, x2, y2 in base}):
        image = flip(base.get((-z1, L2 - 1 - x2, L2 - 1 - y2), zero))
        ham.add_block(z1, x2, y2, 0.5 * (base.get((z1, x2, y2), zero) + image), accumulate=False)
    return ham


def off_mirror_twin(ham):
    """A copy of ``ham`` with its Hermitian block pair at ``(1, 1, 1)`` and
    ``(-1, 1, 1)`` moved by one ulp in one entry: a block pair that is no
    longer its mirror's image, so the copy has no inversion mirror."""
    out = lattice.LatticeHamiltonian(ham.geometry)
    for key, blk in ham.items():
        out.add_block(*key, blk)
    blk = ham.block(1, 1, 1).copy()
    blk[0, 0] = complex(np.nextafter(blk[0, 0].real, np.inf), blk[0, 0].imag)
    out.add_block(1, 1, 1, blk, accumulate=False)
    out.add_block(-1, 1, 1, blk.conj().T, accumulate=False)
    return out


def mirrored_momenta(grid):
    """The momenta ``m`` of one summand's stored grid whose basis shares its
    ``energies`` array with the basis at ``n_k - m < m``, as a basis taken
    from its mirror does.  Asserts that no two bases share any other array:
    every other basis was solved."""
    n_k = len(grid)
    mirrored = [m for m in range(n_k) if n_k - m < m and grid[m].energies is grid[n_k - m].energies]
    arrays = [b.states for b in grid] + [b.energies for m, b in enumerate(grid) if m not in mirrored]
    assert len({id(a) for a in arrays}) == len(arrays)
    return mirrored


def two_sample_crossing_scan(ham, mu, n_k=64):
    """A hand-built scan of ``ham`` whose only states are one lower-edge
    state at the first two grid momenta, just below and just above ``mu``:
    a branch of 2 samples that crosses ``mu``."""
    g = ham.geometry
    state = np.zeros((1, g.fiber_dim), dtype=complex)
    state[0, g.M] = 1.0  # row 1, the lower edge
    energies = [np.array([mu - 0.01]), np.array([mu + 0.01])] + [np.empty(0)] * (n_k - 2)
    vectors = [state, state] + [np.empty((0, g.fiber_dim), dtype=complex)] * (n_k - 2)
    return spectrum.BandScan(ham, 2.0 * np.pi * np.arange(n_k) / n_k, energies, vectors)


def shifted(ham, energy):
    """Copy of ``ham`` with ``energy`` added on the diagonal of all interior
    sites, block by block through ``add_block``: the oracle of one copy of
    :func:`edgeflow.lattice.stacked_shifted`."""
    g = ham.geometry
    out = lattice.LatticeHamiltonian(g)
    for key, blk in ham.items():
        out.add_block(*key, blk)
    eye = energy * np.eye(g.M)
    for x2 in range(1, g.L2 - 1):
        out.add_block(0, x2, x2, eye)
    return out


def with_flux(ham, theta):
    """Copy of ``ham`` with each block ``(z1, x2, y2)`` times ``exp(i theta
    z1)``, block by block through ``add_block``: a flux ``theta`` through the
    cylinder, whose fiber at ``k1`` is the old one at ``k1 - theta``."""
    out = lattice.LatticeHamiltonian(ham.geometry)
    for (z1, x2, y2), blk in ham.items():
        out.add_block(z1, x2, y2, np.exp(1j * theta * z1) * blk)
    return out


def haldane_by_terms(geometry, t1=1.0, t2=0.2, phi=np.pi / 2, m_stag=0.0):
    """The Haldane model built one bond term at a time, summed into its key by
    ``add_block``: the oracle of :func:`edgeflow.lattice.haldane_cylinder`,
    which adds one complete block per key."""
    ham = lattice.LatticeHamiltonian(geometry)
    up, dn = np.exp(-1j * phi), np.exp(1j * phi)
    interior = range(1, geometry.L2 - 1)
    for y2 in interior:
        nn0 = np.zeros((2, 2), dtype=complex)
        nn0[1, 0] = nn0[0, 1] = -t1
        diag = np.diag([t2 * up, t2 * dn])
        ham.add_block(0, y2, y2, nn0 + np.diag([m_stag, -m_stag]))
        ham.add_block(1, y2, y2, diag)
        ham.add_block(-1, y2, y2, diag.conj())
        if y2 + 1 in interior:
            blk_up = np.zeros((2, 2), dtype=complex)
            blk_up[0, 0] = t2 * dn
            blk_up[1, 1] = t2 * up
            ham.add_block(0, y2 + 1, y2, blk_up)
            ham.add_block(0, y2, y2 + 1, blk_up.conj().T)
            nn_up = np.zeros((2, 2), dtype=complex)
            nn_up[1, 0] = -t1
            ham.add_block(0, y2, y2 + 1, nn_up)
            ham.add_block(0, y2 + 1, y2, nn_up.conj().T)
            skew = np.diag([t2 * dn, t2 * up])
            ham.add_block(1, y2, y2 + 1, skew)
            ham.add_block(-1, y2 + 1, y2, skew.conj())
        nn1 = np.zeros((2, 2), dtype=complex)
        nn1[1, 0] = -t1
        ham.add_block(-1, y2, y2, nn1)
        ham.add_block(1, y2, y2, nn1.conj().T)
    return ham


def hofstadter_by_terms(geometry, p=1, q=3, t=1.0):
    """The Hofstadter model built from one nested-list hop per ``add_block``
    call, each phase taken row by row: the oracle of
    :func:`edgeflow.lattice.hofstadter_cylinder`."""
    ham = lattice.LatticeHamiltonian(geometry)
    interior = range(1, geometry.L2 - 1)
    for x2 in interior:
        phase = np.exp(2j * np.pi * p / q * x2)
        ham.add_block(1, x2, x2, [[-t * phase]])
        ham.add_block(-1, x2, x2, [[-t * np.conj(phase)]])
        if x2 + 1 in interior:
            ham.add_block(0, x2 + 1, x2, [[-t]])
            ham.add_block(0, x2, x2 + 1, [[-t]])
    return ham


def stacked_by_blocks(parts, shifts):
    """Direct sum of shifted copies placed block by block: the oracle of
    :func:`edgeflow.lattice.stacked_shifted`, keys in their first
    appearance over the copies, blocks a shift makes exactly 0 dropped."""
    g0 = parts[0].geometry
    m_tot = sum(p.geometry.M for p in parts)
    ham = lattice.LatticeHamiltonian(lattice.CylinderGeometry(g0.L1, g0.L2, m_tot))
    stack, offset = ham._blocks, 0
    for part, energy in zip(parts, shifts):
        m, own = part.geometry.M, dict(part.items())
        eye = energy * np.eye(m)
        for x2 in range(1, g0.L2 - 1):
            own[0, x2, x2] = own.get((0, x2, x2), 0.0) + eye
        for key, blk in own.items():
            if np.any(blk):
                if key not in stack:
                    stack[key] = np.zeros((m_tot, m_tot), dtype=complex)
                stack[key][offset : offset + m, offset : offset + m] = blk
        offset += m
    for blk in stack.values():
        blk.flags.writeable = False
    return ham


def slabs_by_blocks(ham):
    """``(z1s, slabs)`` of ``ham`` placed block by block, the ``z1s`` in their
    first appearance: the oracle of ``LatticeHamiltonian._slab_stack``."""
    g = ham.geometry
    z1s = list(dict.fromkeys(z1 for (z1, _, _), _ in ham.items()))
    slabs = np.zeros((len(z1s), g.L2, g.M, g.L2, g.M), dtype=complex)
    for (z1, x2, y2), blk in ham.items():
        slabs[z1s.index(z1), x2, :, y2, :] = blk
    return np.array(z1s, dtype=float), slabs.reshape(-1, g.fiber_dim, g.fiber_dim)


def three_builds(v, z, lam):
    """One draw's raw variates made admissible set by set: validate zero
    couplings, symmetrize, size the trial couplings, rescale them onto the
    radius cap if needed and validate again.  Returns ``(params, rescaled)``."""
    lam = 0.5 * (lam + lam.T)
    np.fill_diagonal(lam, 0.0)
    params = reference.LuttingerParams(v=v, z=z, lam=np.zeros_like(lam))
    rescaled = False
    if v.size > 1 and np.any(lam != 0.0):
        # the radius of the unvalidated trial couplings, kappa @ Lambda_Z
        kappa = np.diag(1.0 / (4.0 * np.pi * np.abs(v)))
        lambda_z = lam * z[None, :] / z[:, None]
        rho = float(np.max(np.abs(np.linalg.eigvals(kappa @ lambda_z))))
        if rho >= reference.RADIUS_CAP:
            lam = lam * (reference.RADIUS_CAP / rho) * 0.99
            rescaled = True
        params = reference.LuttingerParams(v=v, z=z, lam=lam)
    return params, rescaled
