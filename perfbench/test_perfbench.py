"""Tests of the benchmark itself: span arithmetic, failure counting, seeded
inputs and agreement with BENCHMARK.json."""

import json
import sys
import time

import numpy as np
import pytest

import harness
import tracer as tr
import workloads

sys.path.insert(0, str(harness.SRC))


def test_self_time_is_duration_minus_union_of_children():
    # root [0, 10] with children [1, 4] and [3, 6] overlapping on [3, 4],
    # and a grandchild [2, 3] under the first child
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 2.0]
    end = [10.0, 4.0, 6.0, 3.0]
    np.testing.assert_allclose(tr.self_times(parent, start, end), [5.0, 2.0, 3.0, 1.0])


def test_layer_self_times_and_remainder_add_up_to_case_wall_time():
    t = tr.Tracer()
    setup = t.record(tr.SETUP, -3.0, -1.0)
    t.record("lattice.haldane_cylinder", -2.5, -1.5, setup)
    root = t.record(tr.CASE, 0.0, 10.0)
    cc = t.record("response.current_current", 1.0, 7.0, root)
    bv = t.record("response.build_vertices", 2.0, 5.0, cc)
    t.record("lattice.block", 3.0, 4.0, bv)
    t.record("linalg.eigh", 8.0, 9.5, root)
    m, residual = tr.analyse(t)
    assert residual == pytest.approx(0.0, abs=1e-12)
    assert m["trace.wall_s"] == 10.0
    assert m["trace.uncovered_s"] == pytest.approx(10.0 - 6.0 - 1.5)
    assert m["response.current_current.s"] == 6.0
    assert m["response.current_current.self_s"] == 3.0
    assert m["response.build_vertices.s"] == 3.0
    assert m["lattice.block.calls"] == 1
    assert m["lattice.model_build.s"] == 1.0
    assert m["response.self_s"] == pytest.approx(3.0 + 2.0)
    layers = sum(m[f"{layer}.self_s"] for layer in tr.LAYERS + ("linalg",))
    assert layers + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"])


def test_failing_cases_are_counted_and_the_pass_goes_on():
    ran = []

    def boom():
        raise ZeroDivisionError("deliberate")

    cases = [
        workloads.Case("raises", boom, lambda r: ({}, {})),
        workloads.Case("misses", lambda: 2.0, lambda r: ({}, {"error": r})),
        workloads.Case("passes", lambda: ran.append(1) or 0.5, lambda r: ({}, {"error": r})),
    ]
    res = harness.run_pass(cases, seed=1, golden={})
    assert (res.attempted, res.failed) == (3, 2)
    assert res.errors[0][0] == "raises" and res.errors[0][1].startswith("ZeroDivisionError")
    assert res.errors[1][0] == "misses"
    assert ran == [1]
    assert res.tol_use_max == 2.0


def test_sampler_time_is_taken_out_of_the_case_time():
    import calibrate

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    cases = [workloads.Case("busy", busy, lambda r: ({}, {}))]
    t0 = time.perf_counter()
    with calibrate.Sampler(period=0.05) as sampler:
        res = harness.run_pass(cases, seed=1, golden={}, sampler=sampler)
    elapsed = time.perf_counter() - t0
    assert len(sampler.samples) >= 2 and sampler.paused_s >= sum(sampler.samples)
    assert res.case_seconds["busy"] == pytest.approx(elapsed - sampler.paused_s, abs=0.02)
    # entered again for cases shorter than the period, it still samples
    n = len(sampler.samples)
    short = [workloads.Case("short", lambda: time.sleep(0.02), lambda r: ({}, {}))]
    for _ in range(10):
        with sampler:
            harness.run_pass(short, seed=1, golden={}, sampler=sampler)
    assert len(sampler.samples) > n
    assert calibrate.scaled(2.0, 2 * calibrate.REF_S) == pytest.approx(1.0)


def test_short_passes_are_scaled_by_their_group_of_samples():
    import calibrate

    ref = calibrate.REF_S
    passes = [harness.PassResult(case_seconds={"c": 1.0}, cal=cal)
              for cal in ([ref] * 4, [2 * ref], [2 * ref] * 3, [4 * ref])]
    # groups: the first pass alone (4 samples), then the other three
    # (5 samples, median 2 ref)
    assert harness.scaled_pass_times(passes, fallback_cal=ref) == pytest.approx([1.0, 0.5, 0.5, 0.5])
    no_samples = [harness.PassResult(case_seconds={"c": 1.0})]
    assert harness.scaled_pass_times(no_samples, fallback_cal=2 * ref) == pytest.approx([0.5])


def test_golden_values_are_checked_only_where_the_seed_cannot_move_them():
    case = workloads.Case("c", lambda: None, lambda r: ({}, {}), seeded=True)
    assert harness.golden_uses(case, {"x": 1.0}, seed=5, golden={}) == {}
    with pytest.raises(workloads.CheckFailed):
        harness.golden_uses(case, {"x": 1.0}, seed=workloads.DEFAULT_SEED, golden={})
    uses = harness.golden_uses(case, {"x": 2.0 + 1e-12}, seed=workloads.DEFAULT_SEED, golden={"c.x": 2.0})
    assert uses["x vs seed commit"] == pytest.approx(0.5, rel=1e-3)


def test_two_seeds_give_different_identities_inputs(tmp_path):
    a = workloads.build("identities", 1, str(tmp_path))
    b = workloads.build("identities", 2, str(tmp_path))
    assert a.inputs != b.inputs
    ha, hb = a.models["random"][0], b.models["random"][0]
    key = next(iter(dict(ha.items())))
    assert not np.allclose(ha.block(*key), hb.block(*key))
    again = workloads.build("identities", 1, str(tmp_path))
    assert again.inputs == a.inputs


def test_tracer_wraps_from_import_copies_and_restores_them():
    from edgeflow import lattice, response, spectrum

    originals = (response.assemble_fiber, spectrum.assemble_fiber, np.linalg.eigh)
    t = tr.Tracer()
    t.install()
    try:
        assert response.assemble_fiber is spectrum.assemble_fiber is lattice.assemble_fiber
        assert response.assemble_fiber is not originals[0]
        basis = t.run_case(lambda: response.diagonalize_fiber(lattice.haldane_cylinder(L1=8, L2=8), 0.3))
    finally:
        t.uninstall()
    assert (response.assemble_fiber, spectrum.assemble_fiber, np.linalg.eigh) == originals
    m, _ = tr.analyse(t)
    assert basis.dim == 16
    assert m["lattice.assemble_fiber.calls"] == 1
    assert m["lattice.check_hermitian.calls"] == 1
    assert m["linalg.eigh.calls"] == 1
    assert m["lattice.model_build.s"] > 0.0


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tr.PER_LAYER
