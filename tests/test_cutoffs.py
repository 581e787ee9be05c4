import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeflow import cutoffs


def test_chi_plateau_and_support():
    s = np.linspace(-3, 3, 601)
    c = cutoffs.chi(s)
    assert np.all(c[np.abs(s) <= 1.0] == 1.0)
    assert np.all(c[np.abs(s) >= 2.0] == 0.0)
    assert np.all((c >= 0.0) & (c <= 1.0))
    # even and monotone on the transition band
    assert np.allclose(c, cutoffs.chi(-s))
    band = np.linspace(1.0, 2.0, 200)
    assert np.all(np.diff(cutoffs.chi(band)) <= 1e-15)


def test_chi_is_c1_at_the_knots():
    # quintic smoothstep: derivative vanishes at both transition edges
    eps = 1e-6
    for knot in (1.0, 2.0):
        d_in = (cutoffs.chi(knot + eps) - cutoffs.chi(knot - eps)) / (2 * eps)
        assert abs(d_in) < 1e-5


def test_band_cutoff_window():
    r = np.array([2.0**-7, 2.0**-4, 1.0, 2.0**3, 2.0**5])
    w = cutoffs.band_cutoff(r, -5, 4)
    assert w[0] == 0.0  # below 2^(h-1)
    assert w[2] == 1.0  # plateau
    assert w[4] == 0.0  # above 2^(n+1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(min_value=1e-6, max_value=3.0))
def test_shell_partition_of_unity(r):
    h_min = -12
    total = sum(cutoffs.shell(r, j, h_min) for j in range(h_min, 1))
    assert abs(total - cutoffs.band_cutoff(r, h_min, 0)) < 1e-12


def test_shell_partition_bulk_random():
    rng = np.random.default_rng(3)
    r = rng.uniform(2.0**-12, 2.0, 1000)
    h_min = -12
    total = sum(cutoffs.shell(r, j, h_min) for j in range(h_min, 1))
    assert np.max(np.abs(total - cutoffs.band_cutoff(r, h_min, 0))) < 1e-12


def test_shell_support():
    r = np.linspace(1e-4, 4.0, 2000)
    f = cutoffs.shell(r, -3, -12)
    lo, hi = 2.0**-4, 2.0**-2  # 2^(j - 1) and 2^(j + 1) at j = -3
    assert np.all(f[(r < lo) | (r > hi)] == 0.0)
    assert np.max(f) > 0.5
