import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeflow import reference as ref
from edgeflow.cutoffs import band_cutoff
from edgeflow.quadrature import polar_nodes
from conftest import keep_first_quadrant


def params_2ch(lam=0.05, v=(1.0, -0.7), z=(1.3, 0.8)):
    return ref.LuttingerParams(v=list(v), z=list(z), lam=[[0.0, lam], [lam, 0.0]])


# ---------------------------------------------------------------------------
# chiral denominator
# ---------------------------------------------------------------------------


def test_chiral_denominator_values():
    assert ref.chiral_denominator(1.0, 0.0, 2.0) == -1j
    assert ref.chiral_denominator(0.0, 1.0, 2.0) == 2.0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(0.1, 5.0),
)
def test_reflection_is_minus_conjugate(p0, p1, v):
    d = ref.chiral_denominator(p0, p1, v)
    dr = ref.chiral_denominator(p0, -p1, v)  # as bubble_closed reflects it
    assert abs(dr + np.conj(d)) < 1e-12 * max(1.0, abs(d))


# ---------------------------------------------------------------------------
# closed bubble
# ---------------------------------------------------------------------------


def test_bubble_closed_values():
    quarter = 1.0 / (4.0 * np.pi)  # 0.0795775 for unit velocity at p = (0, 1)
    assert abs(ref.bubble_closed(0.0, 1.0, 1.0) - quarter) < 1e-15
    assert abs(ref.bubble_closed(0.0, 1.0, -1.0) + quarter) < 1e-15
    for v in (0.3, 1.7, -2.2):
        assert abs(ref.bubble_closed(1.0, 0.0, v) - 1j / (4.0 * np.pi * abs(v))) < 1e-15


# ---------------------------------------------------------------------------
# regularized bubble
# ---------------------------------------------------------------------------


def test_bubble_regularized_converges_to_closed():
    exact = ref.bubble_closed(0.0, 1.0, 1.0)
    est = ref.bubble_regularized(0.0, 1.0, 1.0, h=-12, n=12, tol=1e-7)
    assert abs(est - exact) < 1e-3


def test_bubble_regularized_matches_direct_pair_bubble():
    # independent oracle: B^{h,n}(p) = -D(p) * int g(k) g(k-p); the pair
    # bubble is integrated with a smooth two-patch partition so that the
    # infrared structure around k = p is resolved on its own polar grid
    h, n = -8, 8
    p0, p1, v = 0.3, 0.9, 1.0
    bump_r = 0.4

    def integrand(k0, k1):
        g1 = band_cutoff(np.hypot(k0, k1), h, n) / ref.chiral_denominator(k0, k1, v)
        g2 = band_cutoff(np.hypot(k0 - p0, k1 - p1), h, n) / ref.chiral_denominator(
            k0 - p0, k1 - p1, v
        )
        return g1 * g2

    def bump(k0, k1):
        from edgeflow.cutoffs import chi

        return chi(4.0 * np.hypot(k0 - p0, k1 - p1) / bump_r)

    # patch around p: knots of the shifted infrared cutoff and of the bump
    edges_p = [2.0 ** (h - 1), 2.0**h, 2.0 ** (h + 1), bump_r / 4.0, bump_r / 2.0]
    k0a, k1a, wa = polar_nodes(edges_p, 8, 64, gl=6, center=(p0, p1))
    patch_a = np.dot(wa, integrand(k0a, k1a) * bump(k0a, k1a))
    # complement around the origin: the bump removes the unresolved peak
    pn = np.hypot(p0, p1)
    edges_0 = [
        2.0 ** (h - 1), 2.0**h, 2.0 ** (h + 1),
        pn - bump_r / 2.0, pn, pn + bump_r / 2.0,
        2.0, 2.0**n, 2.0 ** (n + 1),
    ]
    k0b, k1b, wb = polar_nodes(edges_0, 8, 160, gl=6)
    patch_b = np.dot(wb, integrand(k0b, k1b) * (1.0 - bump(k0b, k1b)))
    oracle = -ref.chiral_denominator(p0, p1, v) * (patch_a + patch_b) / (4.0 * np.pi**2)
    est = ref.bubble_regularized(p0, p1, v, h=h, n=n, tol=1e-8)
    assert abs(est - oracle) < 1e-5


def test_bubble_uv_error_second_order():
    # fixed infrared scale, ultraviolet error ~ 2^(-2n)
    exact = ref.bubble_closed(0.0, 1.0, 1.0)
    errs = {}
    for n in (6, 8, 10):
        est = ref.bubble_regularized(0.0, 1.0, 1.0, h=-14, n=n, tol=1e-9)
        errs[n] = abs(est - exact)
    slope = (np.log2(errs[10]) - np.log2(errs[6])) / 4.0
    assert errs[6] > errs[8] > errs[10]
    assert slope < -1.6  # two powers per scale, allow quadrature margin


def test_bubble_ir_error_decays():
    # fixed ultraviolet scale; the infrared error must decay at least as
    # fast as 2^h (the paper-side volume bound; measured decay is ~ 2^(2h))
    exact = ref.bubble_closed(0.0, 1.0, 1.0)
    errs = {}
    for h in (-5, -7, -9):
        est = ref.bubble_regularized(0.0, 1.0, 1.0, h=h, n=14, tol=1e-10)
        errs[h] = abs(est - exact)
    assert errs[-5] > errs[-7] > errs[-9]
    slope = (np.log2(errs[-5]) - np.log2(errs[-9])) / 4.0
    assert slope > 0.9


def test_bubble_momentum_guard():
    with pytest.raises(ValueError):
        ref.bubble_regularized(0.0, 1e-6, 1.0, h=-8, n=8)


def test_a_bubble_over_several_cutoffs_integrates_each_disk_once_per_level(monkeypatch):
    # one call for the cutoffs 8 to 16 gives bitwise the estimate of each
    # cutoff alone, and builds each disk grid once per refinement level
    p0, p1, v, h, tol = 0.3, 0.8, 0.7, -14, 1e-8
    ns = range(8, 17, 2)
    alone = [ref.bubble_regularized(p0, p1, v, h, n, tol=tol) for n in ns]
    grids = []
    nodes = ref.polar_nodes

    def counted(r_edges, n_radial, n_angular, gl=4, center=(0.0, 0.0)):
        grids.append((tuple(r_edges), n_radial, center))
        return nodes(r_edges, n_radial, n_angular, gl=gl, center=center)

    monkeypatch.setattr(ref, "polar_nodes", counted)
    together = ref.bubble_regularized(p0, p1, v, h, ns, tol=tol)
    assert np.array(together).tobytes() == np.array(alone).tobytes()
    disks = [g for g in grids if g[2] != (0.0, 0.0)]
    annuli = [g for g in grids if g[2] == (0.0, 0.0)]
    assert len(disks) == len(set(disks))
    levels = {level for _, level, _ in annuli}
    assert {level for _, level, _ in disks} == levels
    assert len(disks) == 2 * len(levels)
    assert len(annuli) == len(set(annuli)) >= len(ns)


def test_the_ultraviolet_cutoffs_must_ascend():
    for ns in ([], [10, 8], [8, 8]):
        with pytest.raises(ValueError, match="ascending"):
            ref.bubble_regularized(0.0, 1.0, 1.0, h=-8, n=ns)


@pytest.mark.parametrize("p0, p1, v", [(0.0, 1.0, -1.0), (0.3, 0.8, -0.7), (0.5, 0.0, -2.0)])
def test_a_negative_velocity_gives_the_closed_form_bubble(p0, p1, v):
    # the channel of velocity v at p1 is the mirror image of the channel of
    # velocity -v at -p1: the same rescaled momenta and the same bubble
    est = ref.bubble_regularized(p0, p1, v, h=-12, n=12, tol=1e-7)
    mirror = ref.bubble_regularized(p0, -p1, -v, h=-12, n=12, tol=1e-7)
    assert est == mirror
    assert abs(est - ref.bubble_closed(p0, p1, v)) < 1e-6


# ---------------------------------------------------------------------------
# same-chirality bubble
# ---------------------------------------------------------------------------


def test_same_chirality_bubble_vanishes():
    for h1 in (0, -1, -3):
        for h2 in (0, -1, -3):
            val = ref.same_chirality_bubble(h1, h2, 1.0)
            assert abs(val) < 1e-8


def test_same_chirality_bubble_mutation_control(monkeypatch):
    keep_first_quadrant(monkeypatch)
    # on one quadrant the angular cancellation is gone: the bubble reads
    # |value| = 0.0139 there, against 5e-18 on the full circle
    for v in (1.0, -1.0):
        assert abs(ref.same_chirality_bubble(0, 0, v)) > 1e-3


# ---------------------------------------------------------------------------
# T matrix and closed forms
# ---------------------------------------------------------------------------


def test_t_matrix_trivial_cases():
    p1 = ref.LuttingerParams(v=[1.2], z=[0.7], lam=[[0.0]])
    assert np.allclose(ref.t_matrix(0.3, 0.4, p1), np.eye(1))
    p2 = params_2ch(lam=0.0)
    assert np.allclose(ref.t_matrix(0.1, -0.7, p2), np.eye(2))


def test_t_directional_limits_match_closed_forms(rng):
    for _ in range(10):
        params = ref.random_params(rng, n_channels=int(rng.integers(2, 5)), lambda_scale=0.25)
        td = ref.t_matrix_directional_numeric(params, "p1_first")
        ts = ref.t_matrix_directional_numeric(params, "p0_first")
        assert np.max(np.abs(td - ref.t_limit_dynamic(params))) < 1e-8
        assert np.max(np.abs(ts - ref.t_limit_static(params))) < 1e-8


def test_t_matrix_singular_guard():
    # an admissible pair of counter-propagating channels near the edge of
    # admissibility: at p = (0, 1) the matrix to invert is [[1, rho], [rho, 1]]
    # with rho = lam / (4 pi), condition number (1 + rho) / (1 - rho)
    def params(eps):
        lam = 4.0 * np.pi * (1.0 - eps)
        return ref.LuttingerParams(v=[1.0, -1.0], z=[1.0, 1.0], lam=[[0.0, lam], [lam, 0.0]])

    with pytest.raises(ref.SingularTMatrixError):
        ref.t_matrix(0.0, 1.0, params(1e-12))  # condition number 2e12
    assert np.all(np.isfinite(ref.t_matrix(0.0, 1.0, params(1e-9))))  # 2e9


# ---------------------------------------------------------------------------
# density-density
# ---------------------------------------------------------------------------


def test_density_density_free_anomalous_form():
    z, v = 1.4, -0.8
    params = ref.LuttingerParams(v=[v], z=[z], lam=[[0.0]])
    for p0, p1 in [(0.2, 0.5), (1.0, 0.0), (-0.3, 1.1)]:
        got = ref.density_density(p0, p1, params)[0, 0]
        want = (1.0 / z**2) * (1j * p0 + v * p1) / (4.0 * np.pi * abs(v) * (-1j * p0 + v * p1))
        assert abs(got - want) < 1e-14
    # p = (1, 0): -1 / (4 pi |v| z^2)
    got = ref.density_density(1.0, 0.0, params)[0, 0]
    assert abs(got + 1.0 / (4.0 * np.pi * abs(v) * z**2)) < 1e-15


def test_density_density_symmetries(rng):
    # parity: S(-p) = S(p); frequency reflection: conj S(p0, p1) = S(-p0, p1)
    params = ref.random_params(rng, n_channels=2, lambda_scale=0.3)
    s = ref.density_density(0.37, -0.81, params)
    s_neg = ref.density_density(-0.37, 0.81, params)
    s_refl = ref.density_density(-0.37, -0.81, params)
    assert np.max(np.abs(s_neg - s)) < 1e-14
    assert np.max(np.abs(s_refl - np.conj(s))) < 1e-14


# ---------------------------------------------------------------------------
# discontinuity matrix
# ---------------------------------------------------------------------------


def test_discontinuity_free_cases():
    v, z = -1.7, 1.2
    p = ref.LuttingerParams(v=[v], z=[z], lam=[[0.0]])
    a = ref.discontinuity_matrix(p)
    assert abs(a[0, 0] - 1.0 / (2.0 * np.pi * abs(v) * z**2)) < 1e-15
    p1 = ref.LuttingerParams(v=[1.0], z=[1.0], lam=[[0.0]])
    assert abs(ref.discontinuity_matrix(p1)[0, 0] - 1.0 / (2.0 * np.pi)) < 1e-16


def test_discontinuity_matches_directional_limits(rng):
    # the closed form against the independent route: the static minus the
    # dynamic directional limit of the density-density correlation
    params = ref.random_params(rng, n_channels=3, lambda_scale=0.3)
    numeric = ref.density_density_directional_numeric(
        params, "p0_first"
    ) - ref.density_density_directional_numeric(params, "p1_first")
    assert np.max(np.abs(numeric - ref.discontinuity_matrix(params))) <= 1e-8


def test_discontinuity_weighted_symmetry(rng):
    # with unit field strengths, |v|^(1/2) A |v|^(1/2) is symmetric
    n = 3
    v = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    lam = rng.normal(0.0, 0.2, (n, n))
    lam = 0.5 * (lam + lam.T)
    np.fill_diagonal(lam, 0.0)
    params = ref.LuttingerParams(v=v, z=np.ones(n), lam=lam)
    a = ref.discontinuity_matrix(params)
    w = np.diag(np.sqrt(np.abs(v)))
    m = w @ a @ w
    assert np.max(np.abs(m - m.T)) < 1e-12 * np.max(np.abs(m))


# ---------------------------------------------------------------------------
# vertex renormalizations and conductance
# ---------------------------------------------------------------------------


def test_vertex_renormalizations_free():
    params = params_2ch(lam=0.0)
    z0, z1 = ref.vertex_renormalizations(params)
    assert np.allclose(z0, params.z)
    assert np.allclose(z1, params.v * params.z)


def test_vertex_renormalizations_dual_forms(rng):
    # the expanded forms against the solved ones:
    # T_dynamic^T Z0 = Z and T_static^T Z1 = v Z
    for _ in range(10):
        params = ref.random_params(rng, n_channels=3, lambda_scale=0.3)
        z0, z1 = ref.vertex_renormalizations(params)
        for z, t_limit, rhs in (
            (z0, ref.t_limit_dynamic, params.z),
            (z1, ref.t_limit_static, params.v * params.z),
        ):
            solved = np.linalg.solve(t_limit(params).T, rhs)
            assert np.max(np.abs(z - solved)) <= 1e-12 * max(1.0, np.max(np.abs(z)))


def test_vertex_renormalizations_single_channel():
    params = ref.LuttingerParams(v=[2.0], z=[1.5], lam=[[0.0]])
    z0, z1 = ref.vertex_renormalizations(params)
    assert z0[0] == pytest.approx(1.5)
    assert z1[0] == pytest.approx(3.0)


def test_edge_conductance_examples():
    p1 = ref.LuttingerParams(v=[1.0], z=[1.0], lam=[[0.0]])
    assert ref.edge_conductance(p1) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-14)
    p2 = params_2ch(lam=0.05, v=(1.0, -0.7), z=(1.3, 0.8))
    assert abs(ref.edge_conductance(p2)) < 1e-14
    rng = np.random.default_rng(11)
    lam = rng.normal(0.0, 0.1, (3, 3))
    lam = 0.5 * (lam + lam.T)
    np.fill_diagonal(lam, 0.0)
    p3 = ref.LuttingerParams(v=[0.5, 1.2, -0.9], z=rng.uniform(0.5, 2.0, 3), lam=lam)
    assert ref.edge_conductance(p3) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-12)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_universality_property(n_channels, seed):
    rng = np.random.default_rng(seed)
    params = ref.random_params(rng, n_channels=n_channels, lambda_scale=0.15)
    g = ref.edge_conductance(params)
    target = np.sum(np.sign(params.v)) / (2.0 * np.pi)
    assert abs(g - target) <= 1e-9


# ---------------------------------------------------------------------------
# anomaly residual
# ---------------------------------------------------------------------------


def test_anomaly_residual_closed_form_is_exact():
    # substituting the closed-form bubble makes the identity exact
    z, v, p0, p1 = 1.2, 1.0, 0.0, 1.0
    params = ref.LuttingerParams(v=[v], z=[z], lam=[[0.0]])
    s0 = ref.density_density(p0, p1, params)[0, 0]
    lhs = z * ref.chiral_denominator(p0, p1, v) * s0
    rhs = ref.bubble_closed(p0, p1, v) / z
    assert abs(lhs - rhs) < 1e-15


def test_regularized_bubble_error_small_and_monotone_in_n():
    # with the closed form's identity exact (above), the anomaly residual at
    # finite cutoffs is (B_closed - B_reg) / z
    def residual(z, h, n, tol):
        bubble_reg = ref.bubble_regularized(0.0, 1.0, 1.0, h, n, tol=tol)
        return abs(ref.bubble_closed(0.0, 1.0, 1.0) - bubble_reg) / z

    assert residual(1.2, -12, 12, 1e-8) < 2e-3
    vals = [residual(1.0, -14, n, 1e-9) for n in (8, 10, 12)]
    assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ref.LuttingerParams(v=[0.0], z=[1.0], lam=[[0.0]])
    with pytest.raises(ValueError):
        ref.LuttingerParams(v=[1.0, 1.0], z=[1.0, 1.0], lam=[[0.0, 0.1], [0.2, 0.0]])
    with pytest.raises(ValueError):
        ref.LuttingerParams(v=[1.0, 1.0], z=[1.0, 1.0], lam=[[0.3, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        # coupling too large: spectral radius of kappa Lambda_Z exceeds 1
        ref.LuttingerParams(v=[0.1, -0.1], z=[1.0, 1.0], lam=[[0.0, 5.0], [5.0, 0.0]])
    ok = dict(v=[1.0, -1.0], z=[1.0, 1.0], lam=[[0.0, 0.1], [0.1, 0.0]])
    for change, match in [
        (dict(z=[1.0, 0.0]), "field strengths"),
        (dict(z=[1.0, -0.5]), "field strengths"),
        (dict(z=[1.0]), "channel counts"),
        (dict(lam=[[0.0]]), "channel counts"),
        (dict(lam=[[0.0, np.nan], [np.nan, 0.0]]), "symmetric"),
        (dict(lam=[[0.0, np.nan], [0.1, 0.0]]), "symmetric"),
    ]:
        with pytest.raises(ValueError, match=match):
            ref.LuttingerParams(**{**ok, **change})
