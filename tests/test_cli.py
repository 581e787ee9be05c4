import argparse
import fnmatch
import importlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from edgeflow import cli, lattice, reference, response, rgflow, spectrum
from conftest import three_builds, with_flux

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "config-schema.ini"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

# every numerical-failure class the layers define: each names, as its
# stage, the check that main writes false when it raises
STAGED = [
    obj
    for path in sorted((SRC / "edgeflow").glob("[a-z]*.py"))
    for obj in vars(importlib.import_module(f"edgeflow.{path.stem}")).values()
    if isinstance(obj, type) and issubclass(obj, Exception) and hasattr(obj, "stage")
]
STAGES = {cls.stage for cls in STAGED}


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
    assert "seed" not in rep and rep["inputs"]["seed"] == 7


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
        # no error meets a tolerance at or below 0: the check cannot pass,
        # and bubble's quadrature would first run to its budget
        (["bubble", "--tol", "0"], "--tol"),
        (["bubble", "--tol", "-1e-6"], "--tol"),
        (["ref-check", "--tolerance", "0"], "--tolerance"),
        (["ref-check", "--tolerance", "-1"], "--tolerance"),
        (["conductance", "--model", "haldane", "--tolerance", "0"], "--tolerance"),
        (["conductance", "--model", "haldane", "--tolerance", "-0.05"], "--tolerance"),
        # an empty or inverted energy window keeps no state; conductance
        # counts its chirality from the occupied charge and reads no window
        (["spectrum", "--model", "haldane", "--window", "0"], "--window"),
        (["edges", "--model", "haldane", "--window", "-0.3"], "--window"),
        (["conductance", "--model", "haldane", "--L1", "32", "--window", "0.3"], "--window"),
        (["ref-check", "--threads", "0"], "--threads"),
        (["conductance", "--model", "haldane", "--threads", "-1"], "--threads"),
        # a repeated value would merge into one residual and drop a ratio
        (["wick", "--model", "haldane", "--betas", "40", "20", "20"], "--betas"),
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
    "argv",
    [
        # the common flags go after the subcommand; before it they would be
        # read and then overwritten by the subcommand's defaults
        ["--seed", "5", "--out", "runs", "ref-check"],
        ["--out", "runs", "ref-check", "--seed", "5"],
        ["--threads", "2", "ref-check"],
        # only ref-check draws random numbers, and wick reads no window
        ["conductance", "--model", "haldane", "--seed", "1", "--out", "runs"],
        ["spectrum", "--model", "haldane", "--seed", "1", "--out", "runs"],
        ["wick", "--model", "haldane", "--window", "0.1", "--out", "runs"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "usage: edgeflow" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def block_read_order(rng, size, channels, lambda_scale):
    """One ref-check block's raw variates, ``(v, z, lam)`` per draw in draw
    order, read as a block reads the generator: the channel counts, then for
    each count in ascending order the velocity magnitudes, their signs, the
    field strengths and the couplings of all its draws."""
    counts = rng.integers(1, 5, size) if channels is None else np.full(size, channels)
    draws = [None] * size
    for n in sorted(set(counts.tolist())):
        index = np.flatnonzero(counts == n)
        shape = (index.size, n)
        v = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        z = rng.uniform(0.5, 2.0, shape)
        lam = rng.normal(0.0, lambda_scale, shape + (n,))
        for j, i in enumerate(index):
            draws[i] = (v[j], z[j], lam[j])
    return draws


@pytest.mark.parametrize(
    "size",
    [1, reference.ENSEMBLE_BLOCK - 1, reference.ENSEMBLE_BLOCK, reference.ENSEMBLE_BLOCK + 1, 1000],
)
@pytest.mark.parametrize("channels", [None, 1, 2, 3, 4])
def test_ref_check_draws_are_bitwise_the_per_draw_loop(tmp_path, monkeypatch, size, channels):
    # the generator is read block by block; each draw is then made
    # admissible and its conductance taken as for one set
    for lambda_scale in (0.1, 10.0, 20.0):
        argv = ["--ensemble-size", str(size), "--lambda-scale", str(lambda_scale), "--seed", "31"]
        if channels is not None:
            argv += ["--channels", str(channels)]
        out = tmp_path / str(lambda_scale)
        out.mkdir()
        rep, draws = ref_check_draws(monkeypatch, out, *argv)
        assert len(draws) == size
        rng = np.random.default_rng(31)
        raw = []
        for start in range(0, size, reference.ENSEMBLE_BLOCK):
            raw += block_read_order(rng, min(size - start, reference.ENSEMBLE_BLOCK), channels, lambda_scale)
        errs = []
        for (v, z, lam, g, rescaled), own in zip(draws, raw, strict=True):
            want, fired = three_builds(*own)
            assert (v.tobytes(), z.tobytes(), lam.tobytes(), rescaled) == (
                want.v.tobytes(), want.z.tobytes(), want.lam.tobytes(), fired
            )
            # the stacked conductance is bitwise the one-set conductance
            assert g == reference.edge_conductance(want)
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


def outputs_without_wall_time(out):
    """Every file ``out`` holds, by name, with the wall-time line of the
    report left out."""
    files = {name: Path(out, name).read_bytes() for name in sorted(os.listdir(out))}
    return {name: re.sub(rb'\n *"wall_time_s": [^\n]*', b"", data) for name, data in files.items()}


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # a parse that gives --betas leaves the default for the next one
    wick = ["wick", "--model", "haldane", "--L1", "12", "--L2", "12"]
    code, out = run_cli(tmp_path / "wick-given", *wick, "--betas", "20", "40")
    assert code == cli.EXIT_OK
    assert len(load_report(out, "report_wick.json")["residuals"]) == 2
    code, out = run_cli(tmp_path / "wick-default", *wick)
    assert code == cli.EXIT_OK
    assert list(load_report(out, "report_wick.json")["residuals"]) == ["20.0", "40.0", "80.0"]
    # the same command twice writes the same bytes, apart from the wall time
    for command in ("bubble", "rg"):
        runs = [outputs_without_wall_time(run_cli(tmp_path / f"{command}{i}", command)[1]) for i in range(2)]
        assert len(runs[0]) == 2  # the report and the CSV
        assert runs[0] == runs[1]


def test_main_builds_its_parser_once_and_looks_its_command_up_by_name(tmp_path, monkeypatch):
    # the parser is built at the first main call, not at import
    imported = subprocess.run(
        [sys.executable, "-c", "import edgeflow.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert imported.stdout.strip() == "0"
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    # a cmd_* rebound after the parser was built is the one that runs
    ran = []
    assert run_cli(tmp_path, "ref-check", "--ensemble-size", "1")[0] == cli.EXIT_OK
    monkeypatch.setattr(cli, "cmd_ref_check", lambda args, report: ran.append(args.ensemble_size))
    for size in ("2", "3"):
        assert run_cli(tmp_path, "ref-check", "--ensemble-size", size)[0] == cli.EXIT_OK
    assert built == [1]
    assert ran == [2, 3]


def test_bubble_csv_headers(tmp_path):
    code, out = run_cli(tmp_path, "bubble", "--h", "-8", "--N", "10", "--N-min", "8")
    assert code == 0
    lines = Path(out, "bubble.csv").read_text().splitlines()
    assert lines[0].startswith("#") and "N" in lines[0] and "error" in lines[0]
    assert len(lines) >= 2


def test_bubble_reports_the_requested_N_when_the_span_is_odd(tmp_path):
    code, out = run_cli(tmp_path, "bubble", "--h", "-8", "--N", "11", "--N-min", "8")
    assert code == 0
    rows = [line.split() for line in Path(out, "bubble.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [9, 11]
    rep = load_report(out, "report_bubble.json")
    assert rep["inputs"]["N"] == 11
    assert rep["error"] == pytest.approx(float(rows[-1][4]), rel=1e-11)  # the CSV keeps 12 digits


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
    # velocity drift is bounded by flow_run itself (stage flow_containment)
    assert rep["checks"] == {"eta_in_range": True}
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
    assert rep["checks"]["chirality_agrees"] is True
    assert rep["chirality_sum_lower"] == {"branches": 1.0, "charge": 1.0}
    assert rep["chirality_sum_upper"] == -1.0


# the chirality sums of Haldane 24 x 16 at mu = 0.15 with the first crossing
# branch of one side lost: its side counts no mode, the charge count still 1
LOST_ON = {
    "lower": ({"branches": 0.0, "charge": 1.0}, -1.0),
    "upper": ({"branches": 1.0, "charge": 1.0}, 0.0),
}


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_edges_fails_when_its_branches_lose_a_crossing(tmp_path, monkeypatch, side):
    # a continuation that drops a crossing branch counts one mode too few on
    # its edge; the charge count on the same grid does not lose it, and on a
    # closed ring the upper edge's count is minus the lower's
    edge_branches = spectrum.edge_branches

    def lossy(scan, mu):
        branches = edge_branches(scan, mu)
        lost = next(b for b in branches if b.side == side and b.crossing is not None)
        return [b for b in branches if b is not lost]

    monkeypatch.setattr(spectrum, "edge_branches", lossy)
    code, out = run_cli(tmp_path, "edges", "--model", "haldane", "--L1", "24", "--L2", "16")
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, "report_edges.json")
    assert rep["checks"] == {"assumptions": True, "chirality_agrees": False}
    assert (rep["chirality_sum_lower"], rep["chirality_sum_upper"]) == LOST_ON[side]


def test_assumptions_fails_through_a_flag_on_plain_input(tmp_path):
    # two Haldane copies shifted by 0.01: on each edge their Fermi momenta
    # are 0.0108 apart, below GAMMA_MIN, so flag d of check_assumptions is
    # false and edges exits 2 with its report; the chirality counts agree
    code, out = run_cli(
        tmp_path, "edges", "--model", "stacked-haldane", "--shifts", "0.0,0.01", "--L1", "24", "--L2", "16"
    )
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, "report_edges.json")
    assert rep["checks"] == {"assumptions": False, "chirality_agrees": True}
    assert rep["assumption_report"]["flags"] == {"b": True, "d": False}
    assert rep["assumption_report"]["gamma"] < spectrum.GAMMA_MIN
    assert rep["chirality_sum_lower"] == {"branches": 2.0, "charge": 2.0}


def test_edges_on_the_counter_stack(tmp_path):
    # the conductance benchmark's counter-propagating stack: the flipped
    # copy's Fermi point is the grid node k1 = pi, where its two edge states
    # hybridize, and the bisection follows the side-pure one
    code, out = run_cli(
        tmp_path, "edges", "--model", "stacked-haldane", "--shifts", "0.0,0.1", "--flips", "0,1",
        "--mu", "0.1", "--L1", "24", "--L2", "16",
    )
    rep = load_report(out, "report_edges.json")
    assert code == 0, rep.get("error")
    assert rep["checks"] and all(rep["checks"].values())


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


@pytest.mark.parametrize(
    "check, argv, values",
    [
        # strips too narrow for 12 x 16: 2 pi G = 1.1440 against chi = 1
        (
            "conductance_matches_chirality",
            ["conductance", "--model", "haldane", "--L1", "12", "--L2", "16", "--a", "4", "--aprime", "2"],
            {"two_pi_G": 1.1440, "chirality_sum_lower": 1.0},
        ),
        # mu above every band: the window keeps no state
        (
            "scan_nonempty",
            ["spectrum", "--model", "haldane", "--L1", "16", "--L2", "12", "--mu", "50", "--window", "0.1"],
            {"n_states": 0},
        ),
        # cutoffs 2^-3 and 2^3 around |p| = 1, the tightest admissible pair:
        # the error is 5.4e-3 against the bound 1e-3
        ("bubble_converged", ["bubble", "--h", "-3", "--N", "3", "--N-min", "3"], {"error": 5.39e-3}),
        # slow channels: eta = lambda^2 / (2 pi^2 (2 |v|)^2), 14 lambda^2
        # here, is above the bound 10 lambda^2 = 1e-3
        ("eta_in_range", ["rg", "--velocities", "0.03,-0.03", "--lambda", "0.01"], {"eta": [1.36e-3] * 2}),
        # a tolerance below the rounding of the closed form
        ("universality", ["ref-check", "--ensemble-size", "10", "--tolerance", "1e-30"], {}),
    ],
)
def test_a_value_check_fails_on_plain_input_and_writes_its_report(tmp_path, check, argv, values):
    code, out = run_cli(tmp_path, *argv)
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, f"report_{argv[0].replace('-', '_')}.json")
    assert list(rep["checks"].items()) == [(check, False)]
    for key, value in values.items():
        assert rep[key] == pytest.approx(value, rel=1e-3)


@pytest.mark.parametrize(
    "check, argv, module, name, corrupt",
    [
        # the closed form moved by 0.01: no regularized estimate reaches it
        ("bubble_converged", ["bubble"], reference, "bubble_closed", lambda f: lambda *a: f(*a) + 0.01),
        # the fitted exponents' sign flipped
        (
            "eta_in_range",
            ["rg"],
            rgflow,
            "vanishing_beta_report",
            lambda f: lambda traj: {**f(traj), "eta": -f(traj)["eta"]},
        ),
        # the residual times beta: it no longer halves as beta doubles
        (
            "beta_scaling",
            ["wick", "--model", "haldane", "--L1", "12", "--L2", "12"],
            response,
            "wick_rotation_check",
            lambda f: lambda ham, mu, beta, *a: (lambda lhs, rhs, res: (lhs, rhs, res * beta))(*f(ham, mu, beta, *a)),
        ),
    ],
)
def test_a_corrupted_value_check_writes_its_report_and_exits_2(tmp_path, monkeypatch, check, argv, module, name,
                                                              corrupt):
    code, out = run_cli(tmp_path, *argv)
    assert code == cli.EXIT_OK
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    code, out = run_cli(tmp_path, *argv)
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, f"report_{argv[0]}.json")
    assert list(rep["checks"].items()) == [(check, False)]


def test_reference_failures_are_numerical_stages(tmp_path, monkeypatch):
    # main reads a ValueError as a usage error; the T(p) guard is a numerical
    # outcome.  No subcommand reaches it (ref-check runs random_block and
    # edge_conductance only), so it names no stage, nor does the free
    # propagator's pole guard, and main lets such a failure end in its traceback
    assert len(STAGED) == len(STAGES) == 8
    assert all(issubclass(cls, RuntimeError) and not issubclass(cls, ValueError) for cls in STAGED)
    for cls in (reference.SingularTMatrixError, response.SingularPropagatorError):
        assert issubclass(cls, RuntimeError) and not issubclass(cls, ValueError)
        assert not hasattr(cls, "stage")

    def singular(params):
        raise reference.SingularTMatrixError("T(p) is singular")

    monkeypatch.setattr(reference, "edge_conductance", singular)
    with pytest.raises(reference.SingularTMatrixError):
        run_cli(tmp_path, "ref-check", "--ensemble-size", "2")


def record_diagonalizations(monkeypatch):
    """The thread of each fiber diagonalization that is stored on a model,
    one per summand and momentum, in order."""
    solvers = []
    assemble = response.assemble_fiber

    def recorded(ham, k1):
        solvers.append(threading.current_thread())
        return assemble(ham, k1)

    monkeypatch.setattr(response, "assemble_fiber", recorded)
    return solvers


@pytest.mark.parametrize("command", ["spectrum", "edges"])
@pytest.mark.parametrize("n_k", ["32", "63"])
def test_a_scan_of_too_few_momenta_is_refused_before_any_fiber(tmp_path, capsys, monkeypatch, command, n_k):
    def no_eigh(*args, **kwargs):
        raise AssertionError("a fiber was diagonalized before --n-k was checked")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    code, out = run_cli(tmp_path, command, "--model", "haldane", "--n-k", n_k)
    assert code == cli.EXIT_USAGE
    assert f"need at least 64 grid momenta, got n_k = {n_k}" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "argv, n_k",
    [
        (["wick", "--L1", "12", "--L2", "12"], 12),
        (["spectrum", "--n-k", "64"], 64),
        (["edges", "--n-k", "64"], 64),
    ],
    ids=["wick", "spectrum", "edges"],
)
def test_grid_commands_pass_threads_to_the_fiber_cache(tmp_path, monkeypatch, argv, n_k):
    # the fiber cache is the only place a thread count reaches: the grid is
    # diagonalized once, on the pool of --threads 2, and the scan and the
    # responses read it from the model's store; Haldane has an inversion
    # mirror, so the momenta m <= n_k - m are solved and the rest mirrored
    solvers = record_diagonalizations(monkeypatch)
    code, _ = run_cli(tmp_path, *argv, "--model", "haldane", "--threads", "2")
    assert code == 0
    assert len(solvers) == n_k // 2 + 1
    assert threading.main_thread() not in solvers and len(set(solvers)) <= 2


def test_conductance_passes_threads_to_both_fiber_grids(tmp_path, monkeypatch):
    # the response and the chirality count share the L1 = 32 grid, which
    # conductance diagonalizes once on the requested threads, the 17 momenta
    # m <= 32 - m (Haldane's inversion mirror gives the other 15); the count
    # reads the stored grid and solves no fiber after it, with no scan and
    # no Fermi point
    solvers = record_diagonalizations(monkeypatch)

    def no_scan(*args, **kwargs):
        raise AssertionError("conductance scanned a band")

    def no_fermi_point(*args, **kwargs):
        raise AssertionError("conductance refined a Fermi point")

    monkeypatch.setattr(spectrum, "scan_spectrum", no_scan)
    monkeypatch.setattr(spectrum, "fermi_point", no_fermi_point)
    code, out = run_cli(
        tmp_path, "conductance", "--model", "haldane", "--L1", "32", "--L2", "16", "--threads", "2"
    )
    assert code == 0
    assert len(solvers) == 17
    assert threading.main_thread() not in solvers and len(set(solvers)) <= 2
    assert load_report(out, "report_conductance.json")["chirality_sum_lower"] == 1.0


@pytest.mark.parametrize(
    "model",
    [["--model", "haldane"], ["--model", "stacked-haldane", "--shifts", "0.0,0.1", "--flips", "0,1"]],
    ids=["haldane", "counter-stack"],
)
def test_conductance_from_64_momenta_on_scans_the_ring_itself(tmp_path, monkeypatch, model):
    # one grid of L1 fibers, one diagonalization per summand and momentum m
    # <= 64 - m (every summand has an inversion mirror, which gives the
    # rest); the charge count on it is the branches' count on a scan of 2 L1
    # momenta, and the response on it is the one on the L1 grid alone
    solvers = record_diagonalizations(monkeypatch)
    code, out = run_cli(tmp_path, "conductance", *model, "--L1", "64", "--L2", "16")
    assert code == 0
    rep = load_report(out, "report_conductance.json")
    args = cli.build_parser().parse_args(["conductance", *model, "--L1", "64", "--L2", "16"])
    ham = cli._model(args)
    assert len(solvers) == 33 * len(ham.summands())
    scan = spectrum.scan_spectrum(ham, n_k=128, window=(args.mu - 0.3, args.mu + 0.3))
    branches = spectrum.edge_branches(scan, args.mu)
    chi = float(sum(b.direction for b in branches if b.side == "lower"))
    est = response.edge_conductance_free(ham, args.mu, 64, a=6, a_prime=4)
    assert rep["chirality_sum_lower"] == chi == (1.0 if model[1] == "haldane" else 0.0)
    assert rep["two_pi_G"] == 2.0 * np.pi * est.g


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
        "--L1", "13", "--L2", "12", "--mu", repr(float(0.5 * (e6 + e7))),
    )
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, "report_conductance.json")
    assert rep["checks"] == {"pair_weights": False}
    assert rep["error"].startswith("DegenerateCrossingError: ")


def test_a_broken_conjugation_symmetry_writes_report_and_exits_2(tmp_path, monkeypatch):
    # the strip-summed density of every p1 = -1 pair is shifted, so the
    # response at -p1 is no longer the conjugate of the one at p1
    build = response._strip_vertices

    def broken(legs, basis_kp, blocks):
        vertices = build(legs, basis_kp, blocks)
        if np.isclose((basis_kp.k1 - legs[0]) % (2.0 * np.pi), 2.0 * np.pi * 23 / 24):
            vertices = [(dbar + 0.1, jbar) for dbar, jbar in vertices]
        return vertices

    monkeypatch.setattr(response, "_strip_vertices", broken)
    code, out = run_cli(tmp_path, "conductance", "--model", "haldane", "--L1", "24", "--L2", "16", "--a", "6",
                        "--aprime", "4")
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, "report_conductance.json")
    assert rep["checks"] == {"conjugation_symmetry": False}
    assert rep["error"].startswith("ConjugationSymmetryError: ")


def test_every_failure_stage_is_reached_by_a_cli_test():
    # the stages of the parametrized failure test, and those that a test in
    # this file reads as a report's only check, are every stage a layer declares
    (_, cases), = [m.args for m in test_numerical_failure_writes_report_and_exits_2.pytestmark]
    named = {stage for stage, _, _ in cases}
    named |= set(re.findall(r'rep\["checks"\] == \{"(\w+)": False\}', Path(__file__).read_text()))
    assert named == STAGES


def test_every_report_check_is_made_false_by_a_cli_test():
    # each check cli writes into a report is the failed check of a value-check
    # test, a stage test, or a test that reads a report's checks with it false
    written = set(re.findall(r'report\["checks"\]\["(\w+)"\] =', Path(cli.__file__).read_text()))
    failed = set(re.findall(r'rep\["checks"\] == \{[^}]*"(\w+)": False', Path(__file__).read_text()))
    for test in (test_a_value_check_fails_on_plain_input_and_writes_its_report,
                 test_a_corrupted_value_check_writes_its_report_and_exits_2,
                 test_numerical_failure_writes_report_and_exits_2):
        (_, cases), = [m.args for m in test.pytestmark]
        failed |= {case[0] for case in cases}
    assert len(written) == 8
    assert sorted(written - failed) == []


def test_the_readme_lists_every_failure_stage():
    # the stage list of the README's command-line section, one bullet a
    # stage, is the stages the layers declare: a stage removed or added shows there
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    stages = re.findall(r"^- `(\w+)`: ", section, re.M)
    assert len(stages) == len(set(stages))
    assert set(stages) == STAGES


def test_every_layer_name_in_the_readme_resolves():
    # each backticked `layer.name` of the README's prose is a name the layer
    # defines, and a `layer.prefix*` pattern matches one: a retired or renamed
    # name cannot stay in the text
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    layers = "|".join(path.stem for path in Path(cli.__file__).parent.glob("[a-z]*.py"))
    refs = {ref for span in re.findall(r"`([^`]+)`", text)
            for ref in re.findall(rf"(?<![\w./])(?:{layers})(?:\.[\w*]+)+", span)}
    assert len(refs) >= 25
    unresolved = []
    for ref in sorted(refs):
        layer, *names = ref.split(".")
        owner = importlib.import_module(f"edgeflow.{layer}")
        for name in names[:-1]:
            owner = getattr(owner, name, None)
        if not fnmatch.filter(dir(owner), names[-1]):
            unresolved.append(ref)
    assert unresolved == []


def test_the_counter_stack_is_diagonalized_one_copy_at_a_time(tmp_path, monkeypatch):
    # the stack is a direct sum of two M = 2 copies: each fiber of 96 x 96 is
    # diagonalized as two of 48 x 48, on one thread or two alike; both
    # copies have an inversion mirror, so the 25 momenta m <= 48 - m of the
    # L1 grid are solved and the other 23 mirrored, and the chirality count
    # solves none after them
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    reports = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        code, out = run_cli(
            tmp_path / threads, "conductance", "--model", "stacked-haldane", "--shifts", "0.0,0.1",
            "--flips", "0,1", "--L1", "48", "--L2", "24", "--a", "12", "--aprime", "6", "--threads", threads,
        )
        assert code == 0
        reports.append(load_report(out, "report_conductance.json"))
        reports[-1].pop("wall_time_s")
        reports[-1]["inputs"].pop("threads")
    assert reports[0] == reports[1]
    assert reports[0]["chirality_sum_lower"] == 0.0
    assert shapes == [(48, 48)] * (2 * 2 * 25)


def test_conductance_reports_its_scan_work(tmp_path, monkeypatch):
    # Haldane 48 x 24: the only fibers solved are the 25 momenta m <= 48 - m
    # of the L1 grid, each once; the mirror gives the other 23, and the
    # chirality count halves no interval, so no fiber off the grid is read
    momenta = []
    assemble = response.assemble_fiber

    def recorded(ham, k1):
        momenta.append(k1)
        return assemble(ham, k1)

    monkeypatch.setattr(response, "assemble_fiber", recorded)
    code, out = run_cli(
        tmp_path, "conductance", "--model", "haldane", "--L1", "48", "--L2", "24", "--a", "12", "--aprime", "6"
    )
    assert code == 0
    assert momenta == [2.0 * np.pi * m / 48 for m in range(25)]
    assert "scan_fibers" not in load_report(out, "report_conductance.json")


def test_a_crossing_next_to_the_grid_seam_is_counted(tmp_path, monkeypatch):
    # a flux of 3.0107 through Haldane 48 x 24 puts the lower edge's Fermi
    # point between the last grid momentum and 2 pi, where a branch split at
    # the seam lost its crossing; the charge count keeps it
    model = cli._model
    monkeypatch.setattr(cli, "_model", lambda args: with_flux(model(args), 3.0107))
    code, out = run_cli(tmp_path, "conductance", "--model", "haldane", "--L1", "48", "--L2", "24", "--mu", "0.1")
    rep = load_report(out, "report_conductance.json")
    assert code == 0, rep
    assert rep["chirality_sum_lower"] == 1.0 and abs(rep["two_pi_G"] - 1.0) < 0.05


@pytest.mark.parametrize("purify", [True, False], ids=["side-pure", "mixed"])
def test_the_charge_count_rotates_a_hybridized_pair_at_mu(tmp_path, monkeypatch, purify):
    # the counter stack at mu = 0.1: the flipped copy's two edge states at
    # k1 = pi sit at mu -+ 1.1e-10, mixed across the 24 rows.  Rotated to
    # side-pure states, each is on one side of mu whole and every charge
    # step is near an integer; mixed, the step at pi reads about 0.445, also
    # on the halved grid, and the count stops at its stage
    if not purify:
        monkeypatch.setattr(spectrum, "_side_pure", lambda geometry, e, vecs: (vecs, e))
    code, out = run_cli(
        tmp_path, "conductance", "--model", "stacked-haldane", "--shifts", "0.0,0.1", "--flips", "0,1",
        "--mu", "0.1", "--L1", "48", "--L2", "24", "--a", "12", "--aprime", "6",
    )
    rep = load_report(out, "report_conductance.json")
    if purify:
        assert code == 0
        assert rep["chirality_sum_lower"] == 0.0 and abs(rep["two_pi_G"]) < 1e-6
    else:
        assert code == cli.EXIT_NUMERICAL
        assert rep["checks"] == {"chirality_charge": False}
        assert rep["error"].startswith("ChargeStepError: ")


def thinned_to_its_crossing(scan, mu, side):
    """``scan`` without the states of its first ``side`` branch that crosses
    ``mu``, apart from the two samples on either side of the crossing."""
    branch = next(b for b in spectrum.edge_branches(scan, mu) if b.side == side and b.crossing is not None)
    i = branch.crossing
    lost = {(k, e) for t, (k, e) in enumerate(zip(branch.k_samples, branch.energies)) if t not in (i, i + 1)}
    keep = [np.array([(k, e) not in lost for e in es], dtype=bool) for k, es in zip(scan.k_grid, scan.energies)]
    return spectrum.BandScan(
        scan.ham, scan.k_grid, [e[on] for e, on in zip(scan.energies, keep)],
        [v[on] for v, on in zip(scan.vectors, keep)],
    )


def test_an_undersampled_crossing_writes_report_and_exits_2(tmp_path, monkeypatch):
    # a crossing branch of 2 grid samples is dropped with its crossing, on
    # either edge; the three chirality counts then disagree
    scan_spectrum = spectrum.scan_spectrum
    for side in LOST_ON:
        monkeypatch.setattr(
            spectrum, "scan_spectrum",
            lambda ham, n_k, window, threads, side=side: thinned_to_its_crossing(
                scan_spectrum(ham, n_k, window, threads), 0.15, side),
        )
        (tmp_path / side).mkdir()
        code, out = run_cli(tmp_path / side, "edges", "--model", "haldane", "--L1", "24", "--L2", "16")
        assert code == cli.EXIT_NUMERICAL
        rep = load_report(out, "report_edges.json")
        assert rep["checks"] == {"assumptions": True, "chirality_agrees": False}
        assert (rep["chirality_sum_lower"], rep["chirality_sum_upper"]) == LOST_ON[side]


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


@pytest.mark.parametrize(
    "section, key, message",
    [
        ("geometry", None, "config sections: geometry"),
        ("model", None, "config sections: model"),
        ("geometry", "l1", "[geometry] keys: l1"),
        ("geometry", "l2", "[geometry] keys: l2"),
        ("model", "type", "[model] keys: type"),
    ],
)
def test_a_model_file_without_a_required_entry_is_a_usage_error(tmp_path, capsys, section, key, message):
    sections = {"geometry": {"l1": "16", "l2": "12"}, "model": {"type": "haldane"}}
    if key is None:
        del sections[section]
    else:
        del sections[section][key]
    cfg = tmp_path / "model.ini"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items()))
    out = tmp_path / "out"
    code, _ = run_cli(out, "spectrum", "--config", str(cfg))
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: missing {message}\n"
    assert os.listdir(out) == []


HALDANE_FILE = "[geometry]\nl1 = 16\nl2 = 12\n\n[model]\ntype = haldane\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (HALDANE_FILE.replace("l1 = 16", "l1 = 16.5"), "error: l1: invalid literal for int() with base 10: '16.5'\n"),
        ("[DEFAULT]\nt2 = 0.3\nphi = 1.0\n\n" + HALDANE_FILE,
         "error: [DEFAULT] is not a model file section, got keys: t2, phi\n"),
    ],
    ids=["fractional-l1", "default-section"],
)
def test_a_model_file_names_its_bad_entry(tmp_path, capsys, text, message):
    cfg = tmp_path / "model.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    code, _ = run_cli(out, "spectrum", "--config", str(cfg))
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == message
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t2", "0.5"], "error: --config takes the place of the model flags, got --t2\n"),
        (["--m-stag", "9", "--p", "2", "--flips", "0"],
         "error: --config takes the place of the model flags, got --m-stag, --p, --flips\n"),
        (["--model", "haldane"], "argument --model: not allowed with argument --config"),
    ],
    ids=["t2", "three-flags", "model"],
)
def test_a_model_file_and_model_flags_are_a_usage_error(tmp_path, capsys, flags, message):
    cfg = tmp_path / "model.ini"
    cfg.write_text(HALDANE_FILE)
    out = tmp_path / "out"
    code, _ = run_cli(out, "conductance", "--config", str(cfg), *flags)
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []


def test_a_model_file_run_reports_the_file_geometry(tmp_path):
    cfg = tmp_path / "model.ini"
    cfg.write_text(HALDANE_FILE.replace("l1 = 16\nl2 = 12", "l1 = 20\nl2 = 12"))
    code, out = run_cli(tmp_path, "spectrum", "--config", str(cfg), "--n-k", "64")
    assert code == cli.EXIT_OK
    inputs = load_report(out, "report_spectrum.json")["inputs"]
    assert (inputs["L1"], inputs["L2"], inputs["model"]) == (20, 12, None)


def test_a_model_is_required(tmp_path, capsys):
    code, _ = run_cli(tmp_path / "out", "spectrum")
    assert code == cli.EXIT_USAGE
    assert "one of the arguments --model --config is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_key_error_in_a_command_is_a_fault(tmp_path, monkeypatch):
    # a KeyError is no usage error: one from a numerical layer ends in its
    # traceback, with no report
    def lookup(*args, **kwargs):
        return {}["G"]

    monkeypatch.setattr(response, "edge_conductance_free", lookup)
    with pytest.raises(KeyError):
        run_cli(tmp_path, "conductance", "--model", "haldane", "--L1", "16", "--L2", "12")
    assert os.listdir(tmp_path) == []


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
