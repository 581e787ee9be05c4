import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from edgeflow import cli, lattice, reference, response, rgflow, spectrum

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "config-schema.ini"


def run_cli(tmp_path, *args):
    out = str(tmp_path)
    code = cli.main([*args, "--out", out])
    return code, out


def load_report(out, name):
    with open(os.path.join(out, name)) as f:
        return json.load(f)


def test_ref_check_pass_and_report(tmp_path):
    code, out = run_cli(
        tmp_path, "ref-check", "--channels", "3", "--ensemble-size", "50", "--seed", "7"
    )
    assert code == 0
    rep = load_report(out, "report_ref_check.json")
    assert rep["max_abs_error"] <= 1e-9
    assert rep["checks"]["universality"] is True
    assert "worst_params" in rep and "wall_time_s" in rep


def test_ref_check_numerical_failure_exit_code(tmp_path):
    code, _ = run_cli(
        tmp_path, "ref-check", "--ensemble-size", "10", "--tolerance", "1e-30"
    )
    assert code == cli.EXIT_NUMERICAL


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ref-check", "--ensemble-size", "0"], "--ensemble-size"),
        (["ref-check", "--ensemble-size", "-3"], "--ensemble-size"),
        (["ref-check", "--channels", "0"], "--channels"),
        (["rg", "--scales", "9"], "--scales"),
        (["rg", "--velocities", "1.0"], "--velocities"),
        (["rg", "--lambda", "0"], "--lambda"),
        (["ref-check", "--lambda-scale", "-0.5"], "--lambda-scale"),
        (["ref-check", "--lambda-scale", "nan"], "--lambda-scale"),
        (["ref-check", "--lambda-scale", "inf"], "--lambda-scale"),
        (["wick", "--model", "haldane", "--betas", "0"], "--betas"),
        (["wick", "--model", "haldane", "--betas", "20", "-40"], "--betas"),
        (["wick", "--model", "haldane", "--T", "0"], "--T"),
        (["wick", "--model", "haldane", "--T", "-200"], "--T"),
        (["wick", "--model", "haldane", "--eta", "0"], "--eta"),
        (["wick", "--model", "haldane", "--eta", "-0.4"], "--eta"),
        (["bubble", "--v", "0"], "--v"),
        (["bubble", "--v", "-0.0"], "--v"),
        # at the default eta, beta = 1 has nearest periodic frequency 0; the
        # valid beta = 20 before it must not be computed first
        (["wick", "--model", "haldane", "--betas", "20", "1"], "--betas 1.0"),
        (["rg", "--velocities", "1.0,inf"], "--velocities"),
        (["rg", "--velocities", "1.0,nan"], "--velocities"),
        (["rg", "--velocities", "1.0,0.0"], "--velocities"),
        # one chirality only: eta = 0 up to quadrature noise of either sign
        (["rg", "--velocities", "1.0,1.0"], "--velocities"),
        (["rg", "--velocities", "-1.0,-0.5,-2.0"], "--velocities"),
    ],
)
def test_empty_ensembles_and_unfittable_flows_are_usage_errors(tmp_path, capsys, monkeypatch, argv, flag):
    def no_flow(*args, **kwargs):
        raise AssertionError("the flow ran before its inputs were validated")

    def no_draw(*args, **kwargs):
        raise AssertionError("the ensemble was drawn before its inputs were validated")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were validated")

    monkeypatch.setattr(rgflow, "flow_run", no_flow)
    monkeypatch.setattr(reference, "random_block", no_draw)
    for module, name in ((lattice, "build_model"), (response, "fiber_cache"), (reference, "bubble_closed")):
        monkeypatch.setattr(module, name, no_work)
    code, out = run_cli(tmp_path, *argv)
    assert code == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "strips, message",
    [
        (["--a", "6", "--aprime", "-1"], "got a = 6, a_prime = -1"),
        (["--a", "6", "--aprime", "-3"], "got a = 6, a_prime = -3"),
        (["--a", "16"], "got a = 16, a_prime = 4"),
    ],
)
def test_bad_strip_widths_are_usage_errors(tmp_path, capsys, strips, message):
    code, out = run_cli(tmp_path, "conductance", "--model", "haldane", "--L1", "16", "--L2", "16", *strips)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "0 <= a_prime < a <= L2 - 1 = 15" in err and message in err
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "argv, name",
    [
        (["edges", "--model", "haldane", "--mu", "nan"], "--mu"),
        (["edges", "--model", "haldane", "--t2", "inf"], "--t2"),
        (["conductance", "--model", "stacked-haldane", "--shifts", "0,nan"], "shifts"),
        (["wick", "--model", "haldane", "--betas", "20", "nan"], "--betas"),
        (["conductance", "--config", "t2 = nan"], "t2"),
    ],
)
def test_non_finite_floats_are_usage_errors(tmp_path, capsys, monkeypatch, argv, name):
    def no_grid(*args, **kwargs):
        raise AssertionError("fibers were diagonalized before the inputs were validated")

    monkeypatch.setattr(response, "fiber_cache", no_grid)
    if argv[1] == "--config":
        cfg = tmp_path / "model.ini"
        cfg.write_text(f"[geometry]\nl1 = 16\nl2 = 12\n\n[model]\ntype = haldane\n\n[params]\n{argv[2]}\n")
        argv = [argv[0], "--config", str(cfg)]
    out = tmp_path / "out"
    code, _ = run_cli(out, *argv)
    assert code == cli.EXIT_USAGE
    assert name in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []


def test_every_float_flag_refuses_non_finite_values():
    ap = cli.build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for p in (ap, *sub.choices.values()) for a in p._actions]
    assert [a.dest for a in actions if a.type is float] == []
    assert {a.dest for a in actions if a.type is lattice.finite_float} >= {"mu", "lambda_scale", "betas"}


def ref_check_draws(monkeypatch, tmp_path, *argv):
    """Run ref-check, and return its report and its draws in draw order as
    ``(v, z, lam, G, rescaled)``, from the blocks it drew."""
    blocks = []
    draw_block = reference.random_block

    def recorded(*args, **kwargs):
        blocks.append(draw_block(*args, **kwargs))
        return blocks[-1]

    with monkeypatch.context() as m:
        m.setattr(reference, "random_block", recorded)
        code, out = run_cli(tmp_path, "ref-check", *argv)
    assert code == cli.EXIT_OK
    draws = []
    for groups in blocks:
        block = [None] * sum(index.size for index, _, _ in groups)
        for index, params, rescaled in groups:
            g = reference.edge_conductance(params)
            for j, i in enumerate(index):
                block[i] = (params.v[j], params.z[j], params.lam[j], g[j], bool(rescaled[j]))
        draws.extend(block)
    return load_report(out, "report_ref_check.json"), draws


@pytest.mark.parametrize(
    "size",
    [1, reference.ENSEMBLE_BLOCK - 1, reference.ENSEMBLE_BLOCK, reference.ENSEMBLE_BLOCK + 1, 1000],
)
@pytest.mark.parametrize("channels", [None, 1, 2, 3, 4])
def test_ref_check_draws_are_bitwise_the_per_draw_loop(tmp_path, monkeypatch, size, channels):
    for lambda_scale in (0.1, 10.0, 20.0):
        argv = ["--ensemble-size", str(size), "--lambda-scale", str(lambda_scale), "--seed", "31"]
        if channels is not None:
            argv += ["--channels", str(channels)]
        out = tmp_path / str(lambda_scale)
        out.mkdir()
        rep, draws = ref_check_draws(monkeypatch, out, *argv)
        assert len(draws) == size
        rng = np.random.default_rng(31)
        errs = []
        for v, z, lam, g, _ in draws:
            want = reference.random_params(rng, channels, lambda_scale)
            assert (v.tobytes(), z.tobytes(), lam.tobytes()) == (
                want.v.tobytes(), want.z.tobytes(), want.lam.tobytes()
            )
            # the stacked conductance is bitwise the one-set conductance
            assert g == reference.edge_conductance(reference.LuttingerParams(v=v, z=z, lam=lam))
            errs.append(abs(g - float(np.sum(np.sign(v))) / (2.0 * np.pi)))
        # worst_params is the first draw with the largest error
        worst = draws[int(np.argmax(errs))]
        assert rep["worst_params"] == {"v": worst[0].tolist(), "z": worst[1].tolist(), "lam": worst[2].tolist()}
        assert rep["max_abs_error"] == max(errs)
        assert rep["mean_abs_error"] == float(np.mean(errs))
        assert rep["rescaled_draws"] == sum(d[4] for d in draws)


def test_ref_check_counts_the_rescaled_draws(tmp_path):
    # the cap fires only for couplings of order 4 pi |v| RADIUS_CAP / (n - 1)
    counts = {}
    for argv in (["--lambda-scale", "0.1"], ["--lambda-scale", "20", "--channels", "3"]):
        out = tmp_path / argv[1]
        out.mkdir()
        code, _ = run_cli(out, "ref-check", "--ensemble-size", "300", *argv)
        assert code == cli.EXIT_OK
        counts[argv[1]] = load_report(str(out), "report_ref_check.json")["rescaled_draws"]
    assert counts["0.1"] == 0 and counts["20"] > 0


def test_ref_check_rejects_draws_rescaled_onto_an_inadmissible_cap(tmp_path, capsys, monkeypatch):
    # 0.99 x 1.2 > 1: every rescaled draw fails the admissibility check
    monkeypatch.setattr(reference, "RADIUS_CAP", 1.2)
    code, out = run_cli(tmp_path, "ref-check", "--lambda-scale", "20", "--channels", "3", "--ensemble-size", "50")
    assert code == cli.EXIT_USAGE
    assert "inadmissible couplings" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_missing_model_is_usage_error(tmp_path):
    code, _ = run_cli(tmp_path, "conductance")
    assert code == cli.EXIT_USAGE


def test_reports_byte_identical_modulo_wall_time(tmp_path):
    paths = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        code, out = run_cli(d, "ref-check", "--ensemble-size", "25", "--seed", "123")
        assert code == 0
        paths.append(os.path.join(out, "report_ref_check.json"))
    docs = []
    for p in paths:
        rep = json.loads(Path(p).read_text())
        rep.pop("wall_time_s")
        docs.append(json.dumps(rep, sort_keys=True))
    assert docs[0] == docs[1]


def test_bubble_csv_headers(tmp_path):
    code, out = run_cli(tmp_path, "bubble", "--h", "-8", "--N", "10", "--N-min", "8")
    assert code == 0
    lines = Path(out, "bubble.csv").read_text().splitlines()
    assert lines[0].startswith("#") and "N" in lines[0] and "error" in lines[0]
    assert len(lines) >= 2


def test_conductance_with_config_file(tmp_path):
    cfg = tmp_path / "model.ini"
    cfg.write_text(
        "[geometry]\nl1 = 24\nl2 = 16\n\n[model]\ntype = haldane\n\n"
        "[params]\nt1 = 1.0\nt2 = 0.2\nphi = 1.5707963267948966\nm_stag = 0.0\n"
    )
    code, out = run_cli(
        tmp_path, "conductance", "--config", str(cfg), "--mu", "0.15",
        "--tolerance", "0.2",
    )
    assert code == 0
    rep = load_report(out, "report_conductance.json")
    assert abs(rep["two_pi_G"] - rep["chirality_sum_lower"]) < 0.2


def test_rg_command_report(tmp_path):
    code, out = run_cli(tmp_path, "rg", "--scales", "12", "--lambda", "0.05")
    assert code == 0
    rep = load_report(out, "report_rg.json")
    assert rep["checks"]["containment"] and rep["checks"]["eta_in_range"]
    csv = Path(out, "rg_trajectory.csv").read_text().splitlines()
    assert csv[0].startswith("# h,")


def test_spectrum_command(tmp_path):
    code, out = run_cli(
        tmp_path, "spectrum", "--model", "hofstadter", "--L1", "24", "--L2", "12",
        "--mu", "-1.0",
    )
    assert code == 0
    rep = load_report(out, "report_spectrum.json")
    assert rep["n_states"] > 0
    lines = Path(out, "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("# k1, energy")


def test_edges_command(tmp_path):
    code, out = run_cli(
        tmp_path, "edges", "--model", "haldane", "--L1", "24", "--L2", "16"
    )
    assert code == 0
    rep = load_report(out, "report_edges.json")
    assert rep["checks"]["assumptions"] is True
    sides = {b["side"] for b in rep["branches"]}
    assert sides == {"lower", "upper"}


@pytest.mark.parametrize(
    "stage, error, argv",
    [
        ("edge_branches", "BulkStateError", ["edges", "--model", "haldane", "--window", "2.0"]),
        # massive graphene (t2 = 0): the zigzag edge band is flat at m_stag
        (
            "fermi_point",
            "FermiPointError",
            ["edges", "--model", "haldane", "--t2", "0", "--m-stag", "0.3", "--mu", "0.300000001",
             "--window", "0.001"],
        ),
        ("quadrature", "QuadratureError", ["bubble", "--tol", "1e-30"]),
        (
            "flow_containment",
            "FlowDivergenceError",
            ["rg", "--velocities", "0.05,-0.05", "--lambda", "0.5", "--scales", "12"],
        ),
        # mu above every band: the window holds no edge branch
        ("assumptions", "NoEdgeBranchError", ["edges", "--model", "haldane", "--mu", "5.0", "--window", "0.1"]),
    ],
)
def test_numerical_failure_writes_report_and_exits_2(tmp_path, stage, error, argv):
    code, out = run_cli(tmp_path, *argv)
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, f"report_{argv[0].replace('-', '_')}.json")
    assert rep["checks"][stage] is False
    assert rep["error"].startswith(error + ": ")


def test_reference_failures_are_numerical_stages():
    # main reads a ValueError as a usage error; these are numerical outcomes
    for cls in (
        reference.SingularTMatrixError,
        reference.LatticeSingularPointError,
        reference.DiscontinuityCrossCheckError,
        reference.VertexFormsError,
    ):
        assert issubclass(cls, RuntimeError) and not issubclass(cls, ValueError)
        assert cls in cli.FAILED_STAGE


def test_wick_passes_threads_to_the_fiber_cache(tmp_path, monkeypatch):
    seen = []
    cache = response.fiber_cache

    def recorded(ham, n_k, threads=1):
        seen.append(threads)
        return cache(ham, n_k, threads=threads)

    monkeypatch.setattr(response, "fiber_cache", recorded)
    code, _ = run_cli(
        tmp_path, "wick", "--model", "haldane", "--L1", "12", "--L2", "12", "--threads", "2"
    )
    assert code == 0
    assert seen == [2]


def test_conductance_passes_threads_to_both_fiber_grids(tmp_path, monkeypatch):
    # the response and the chirality scan share one grid of 2 L1 fibers,
    # diagonalized once on the requested threads; the scan diagonalizes none,
    # and the chirality is read off the grid crossings, with no Fermi point
    seen, scanned, assembled = [], [], []
    cache, scan = response.fiber_cache, spectrum.scan_spectrum

    def recorded_cache(ham, n_k, threads=1):
        seen.append((n_k, threads))
        return cache(ham, n_k, threads=threads)

    def recorded_scan(*args, **kwargs):
        before = len(assembled)
        out = scan(*args, **kwargs)
        scanned.append(len(assembled) - before)
        return out

    for mod in (response, spectrum):
        assemble = mod.assemble_fiber
        monkeypatch.setattr(
            mod, "assemble_fiber", lambda ham, k1, f=assemble: assembled.append(k1) or f(ham, k1)
        )

    def no_fermi_point(*args, **kwargs):
        raise AssertionError("conductance refined a Fermi point")

    monkeypatch.setattr(response, "fiber_cache", recorded_cache)
    monkeypatch.setattr(spectrum, "scan_spectrum", recorded_scan)
    monkeypatch.setattr(spectrum, "fermi_point", no_fermi_point)
    code, _ = run_cli(
        tmp_path, "conductance", "--model", "haldane", "--L1", "32", "--L2", "16", "--threads", "2"
    )
    assert code == 0
    assert seen == [(64, 2)]
    assert scanned == [0]
    assert len(assembled) == 64


def test_degenerate_crossing_writes_report_and_exits_2(tmp_path):
    # m_stag breaks the inversion that makes every fiber at k and 2 pi - k
    # share its energies, and a t2 of 1e-13 breaks time reversal, so on a
    # ring of 13 the lowest states at k = 2 pi 6/13 and 2 pi 7/13 split by
    # about 1.6e-13: a degenerate pair inside the one summand, with mu between
    ham = lattice.build_model("haldane", 13, 12, t2=1e-13, m_stag=0.3)
    e6, e7 = (np.linalg.eigvalsh(lattice.assemble_fiber(ham, 2.0 * np.pi * m / 13))[0] for m in (6, 7))
    assert 0.0 < e7 - e6 < 1e-12
    code, out = run_cli(
        tmp_path, "conductance", "--model", "haldane", "--t2", "1e-13", "--m-stag", "0.3",
        "--L1", "13", "--L2", "12", "--mu", repr(float(0.5 * (e6 + e7))), "--window", "1e-14",
    )
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, "report_conductance.json")
    assert rep["checks"] == {"pair_weights": False}
    assert rep["error"].startswith("DegenerateCrossingError: ")


def test_a_degenerate_pair_across_two_summands_carries_no_weight(tmp_path):
    # with t2 = 0 the neighbours k = 2 pi 6/13 and 2 pi 7/13 share their
    # energies; two copies split by 1e-13 put a degenerate pair across mu,
    # but its states lie on different summands, so their vertex is 0
    ham = lattice.build_model("haldane", 13, 12, t2=0.0)
    e = np.linalg.eigvalsh(lattice.assemble_fiber(ham, 2.0 * np.pi * 6 / 13))[0]
    code, out = run_cli(
        tmp_path, "conductance", "--model", "stacked-haldane", "--t2", "0", "--shifts", "0,1e-13",
        "--L1", "13", "--L2", "12", "--mu", repr(float(e + 5e-14)), "--window", "1e-14",
    )
    assert code == 0
    rep = load_report(out, "report_conductance.json")
    assert rep["checks"] == {"conductance_matches_chirality": True}
    assert rep["chirality_sum_lower"] == 0.0 and abs(rep["two_pi_G"]) < 1e-12


def test_the_counter_stack_is_diagonalized_one_copy_at_a_time(tmp_path, monkeypatch):
    # the stack is a direct sum of two M = 2 copies: its 96 fibers of 96 x 96
    # are diagonalized as 192 fibers of 48 x 48 (small eigh calls purify
    # degenerate clusters in the scan)
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    code, out = run_cli(
        tmp_path, "conductance", "--model", "stacked-haldane", "--shifts", "0.0,0.1", "--flips", "0,1",
        "--L1", "48", "--L2", "24", "--a", "12", "--aprime", "6",
    )
    assert code == 0
    assert load_report(out, "report_conductance.json")["chirality_sum_lower"] == 0.0
    assert shapes.count((48, 48)) == 192
    assert (96, 96) not in shapes
    assert all(s[0] < 48 for s in shapes if s != (48, 48))


@pytest.mark.parametrize(
    "flags, ini",
    [
        (["--model", "haldane", "--t2", "0.3", "--m-stag", "0.1"],
         "[model]\ntype = haldane\n[params]\nt2 = 0.3\nm_stag = 0.1\n"),
        (["--model", "hofstadter", "--p", "2", "--q", "5"],
         "[model]\ntype = hofstadter\n[params]\np = 2\nq = 5\n"),
        (["--model", "stacked-haldane", "--shifts", "0,0.1", "--flips", "0,1"],
         "[model]\ntype = stacked-haldane\nshifts = 0,0.1\nflips = 0,1\n"),
        (["--model", "stacked-haldane", "--t2", "0.25", "--m-stag", "0.2"],
         "[model]\ntype = stacked-haldane\n[params]\nt2 = 0.25\nm_stag = 0.2\n"),
    ],
)
def test_flags_and_config_build_the_same_blocks(tmp_path, flags, ini):
    cfg = tmp_path / "model.ini"
    cfg.write_text("[geometry]\nl1 = 20\nl2 = 12\n" + ini)
    parse = cli.build_parser().parse_args
    from_flags = cli._model(parse(["spectrum", *flags, "--L1", "20", "--L2", "12"]))
    from_config = cli._model(parse(["spectrum", "--config", str(cfg)]))
    assert from_flags.geometry == from_config.geometry
    a, b = dict(from_flags.items()), dict(from_config.items())
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[key], b[key]) for key in a)


def test_flag_the_model_does_not_take_is_usage_error(tmp_path):
    code, _ = run_cli(tmp_path, "spectrum", "--model", "haldane", "--p", "2")
    assert code == cli.EXIT_USAGE


def test_config_schema_builds_and_rejects_unknown_entries(tmp_path):
    text = SCHEMA.read_text()
    for kind, keys in lattice.MODEL_PARAMS.items():
        assert kind in text and all(key in text for key in keys)
    code, _ = run_cli(tmp_path, "spectrum", "--config", str(SCHEMA))
    assert code == cli.EXIT_OK
    unknown_section = text + "\n[rg]\nscales = 30\n"
    unknown_key = text.replace("[geometry]\n", "[geometry]\nm = 2\n")
    for bad in (unknown_section, unknown_key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(bad)
        code, _ = run_cli(tmp_path, "spectrum", "--config", str(cfg))
        assert code == cli.EXIT_USAGE
