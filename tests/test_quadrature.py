import numpy as np
import pytest

from edgeflow.quadrature import QuadratureError, _unit_rule, polar_nodes, refine_until


def test_area_of_annulus():
    k0, k1, w = polar_nodes([1.0, 2.0], 4, 8)
    val = np.dot(w, np.ones_like(k0))
    assert abs(val - np.pi * 3.0) < 1e-10


def test_angular_harmonic_vanishes():
    def f(k0, k1):
        z = k0 + 1j * k1
        return (z / np.abs(z)) ** 2 / np.abs(z) ** 2

    k0, k1, w = polar_nodes([0.5, 1.0, 2.0], 3, 12)
    val = np.dot(w, f(k0, k1))
    assert abs(val) < 1e-13


def test_offcenter_gaussian():
    # int exp(-|k - c|^2) over a disk of radius 6 around c equals pi
    c = (0.7, -1.3)

    def f(k0, k1):
        return np.exp(-((k0 - c[0]) ** 2 + (k1 - c[1]) ** 2))

    k0, k1, w = polar_nodes([1e-9, 2.0, 6.0], 8, 16, gl=6, center=c)
    val = np.dot(w, f(k0, k1))
    assert abs(val - np.pi) < 1e-8


def test_refine_until_converges_and_raises():
    # refinement starts at level 2 and may double it 5 times
    levels = []

    def converging(lvl):
        levels.append(lvl)
        return 1.0 + 2.0 ** (-lvl)

    val, err = refine_until(converging, 1e-3)
    assert levels == [2, 4, 8, 16, 32]
    assert (val, err) == (1.0 + 2.0**-32, 2.0**-16 - 2.0**-32)
    levels.clear()

    def diverging(lvl):
        levels.append(lvl)
        return float(lvl)

    with pytest.raises(QuadratureError) as info:
        refine_until(diverging, 1e-6)
    assert levels == [2, 4, 8, 16, 32, 64]
    assert (info.value.estimate, info.value.error) == (64.0, 32.0)


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        polar_nodes([2.0, 1.0], 2, 4)


def test_the_cached_rule_is_read_only_and_grids_are_independent():
    x, w = _unit_rule(4)
    assert _unit_rule(4)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    first = polar_nodes([1.0, 2.0], 2, 8, center=(0.3, -0.2))
    again = polar_nodes([1.0, 2.0], 2, 8, center=(0.3, -0.2))
    for a, b in zip(first, again):
        assert np.array_equal(a, b) and not np.shares_memory(a, b)
        a[:] = 7.0
    third = polar_nodes([1.0, 2.0], 2, 8, center=(0.3, -0.2))
    assert all(np.array_equal(a, b) for a, b in zip(again, third))
