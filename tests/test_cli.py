import json
import os
from pathlib import Path

import numpy as np
import pytest

from edgeflow import cli, lattice

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
        rep = json.load(open(p))
        rep.pop("wall_time_s")
        docs.append(json.dumps(rep, sort_keys=True))
    assert docs[0] == docs[1]


def test_bubble_csv_headers(tmp_path):
    code, out = run_cli(tmp_path, "bubble", "--h", "-8", "--N", "10", "--N-min", "8")
    assert code == 0
    lines = open(os.path.join(out, "bubble.csv")).read().splitlines()
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
    csv = open(os.path.join(out, "rg_trajectory.csv")).read().splitlines()
    assert csv[0].startswith("# h,")


def test_spectrum_command(tmp_path):
    code, out = run_cli(
        tmp_path, "spectrum", "--model", "hofstadter", "--L1", "24", "--L2", "12",
        "--mu", "-1.0",
    )
    assert code == 0
    rep = load_report(out, "report_spectrum.json")
    assert rep["n_states"] > 0
    lines = open(os.path.join(out, "spectrum.csv")).read().splitlines()
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
    ],
)
def test_numerical_failure_writes_report_and_exits_2(tmp_path, stage, error, argv):
    code, out = run_cli(tmp_path, *argv)
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, f"report_{argv[0].replace('-', '_')}.json")
    assert rep["checks"][stage] is False
    assert rep["error"].startswith(error + ": ")


def test_degenerate_crossing_writes_report_and_exits_2(tmp_path):
    # with t2 = 0 the fibers at k and 2 pi - k are complex conjugates, so on
    # a ring of 13 the neighbours k = 2 pi 6/13 and 2 pi 7/13 share their
    # energies; two copies split by 1e-13 put a degenerate pair across mu
    ham = lattice.build_model("haldane", 13, 12, t2=0.0)
    e = np.linalg.eigvalsh(lattice.assemble_fiber(ham, 2.0 * np.pi * 6 / 13))[0]
    code, out = run_cli(
        tmp_path, "conductance", "--model", "stacked-haldane", "--t2", "0", "--shifts", "0,1e-13",
        "--L1", "13", "--L2", "12", "--mu", repr(float(e + 5e-14)), "--window", "1e-14",
    )
    assert code == cli.EXIT_NUMERICAL
    rep = load_report(out, "report_conductance.json")
    assert rep["checks"] == {"pair_weights": False}
    assert rep["error"].startswith("DegenerateCrossingError: ")


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
