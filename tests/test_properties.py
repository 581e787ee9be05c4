"""Identities that hold for every admissible model, checked with hypothesis
over random Hermitian hopping models (range <= sqrt 2).

Examples are derandomized, so every run draws the same models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeflow import response
from conftest import random_hermitian_model

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.tuples(st.integers(4, 8), st.integers(4, 8), st.integers(1, 2))  # L1, L2, M


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
