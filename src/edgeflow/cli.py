"""Command-line front end.

Subcommands dispatch to the computational modules and write CSV data
files plus one machine-readable JSON report per run.  Exit codes:
0 all checks passed, 1 usage/configuration error, 2 a numerical
acceptance check failed or a numerical stage raised; the report is
written in both exit-2 cases.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
import time

import numpy as np

from . import lattice, quadrature, reference, response, rgflow, spectrum

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL = 0, 1, 2

# numerical failures a subcommand can raise, by the check its report fails
FAILED_STAGE = {
    spectrum.BulkStateError: "edge_branches",
    spectrum.NoEdgeBranchError: "assumptions",
    spectrum.FermiPointError: "fermi_point",
    spectrum.ChargeStepError: "chirality_charge",
    response.DegenerateCrossingError: "pair_weights",
    response.ConjugationSymmetryError: "conjugation_symmetry",
    quadrature.QuadratureError: "quadrature",
    rgflow.FlowDivergenceError: "flow_containment",
}

# model flags, named as the build_model keys they set
MODEL_FLAGS = ("t2", "m_stag", "p", "q", "shifts", "flips")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not serializable: {type(obj)}")


def write_report(outdir, name, report):
    path = os.path.join(outdir, name)
    with open(path, "w") as f:
        json.dump(report, f, sort_keys=True, indent=2, default=_json_default)
        f.write("\n")
    return path


def write_csv(outdir, name, header, rows):
    path = os.path.join(outdir, name)
    with open(path, "w") as f:
        f.write("# " + ", ".join(header) + "\n")
        for row in rows:
            f.write(" ".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row) + "\n")
    return path


def _base_report(args):
    return {
        "command": args.command,
        "inputs": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("config", "out")
        },
        "checks": {},
    }


def _load_config(path):
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise FileNotFoundError(path)
    return cfg


def _model(args):
    if args.config:
        return lattice.model_from_config(_load_config(args.config))
    if args.model is None:
        raise ValueError("missing --model (or --config with a model definition file)")
    flags = {k: getattr(args, k) for k in MODEL_FLAGS if getattr(args, k) is not None}
    return lattice.build_model(args.model, args.L1, args.L2, **flags)


def _require_positive(flag, value):
    if value <= 0.0:
        raise ValueError(f"{flag} must be positive, got {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _scan(args, ham, n_k):
    """The band scan of ``n_k`` momenta around ``--mu``; its grid is
    diagonalized on ``--threads`` and stays on the model."""
    window = (args.mu - args.window, args.mu + args.window)
    return spectrum.scan_spectrum(ham, n_k=n_k, window=window, threads=args.threads)


def cmd_spectrum(args, report):
    _require_positive("--window", args.window)
    ham = _model(args)
    scan = _scan(args, ham, args.n_k)
    rows = []
    for k1, es in zip(scan.k_grid, scan.energies):
        for e in es:
            rows.append((float(k1), float(e)))
    write_csv(args.out, "spectrum.csv", ["k1", "energy"], rows)
    report["n_states"] = scan.state_count()
    report["checks"]["scan_nonempty"] = scan.state_count() > 0


def cmd_edges(args, report):
    _require_positive("--window", args.window)
    ham = _model(args)
    branches = spectrum.extract_edge_branches(_scan(args, ham, args.n_k), args.mu)
    rows = []
    for b in branches:
        for k1, e in zip(b.k_samples, b.energies):
            rows.append((b.label, float(k1), float(e), b.side))
    write_csv(args.out, "branches.csv", ["branch", "k1", "energy", "side"], rows)
    rep = spectrum.check_assumptions(branches)
    report["branches"] = [
        {
            "label": b.label,
            "side": b.side,
            "k_fermi": b.k_fermi,
            "velocity": b.velocity,
            "loc_rate": b.loc_rate,
            "loc_r2": b.loc_r2,
        }
        for b in branches
    ]
    report["assumption_report"] = {
        "gamma": rep.gamma,
        "flags": rep.flags,
        "diagnostics": {k: v for k, v in rep.diagnostics.items()},
    }
    report["checks"]["assumptions"] = rep.all_pass
    # the branches' signed count on each edge against the charge count on the
    # same grid: the edges' crossings cancel, so one lost on either edge shows
    lower, upper = (sum(b.direction for b in branches if b.side == s) for s in ("lower", "upper"))
    chi = spectrum.lower_edge_chirality(ham, args.mu, args.n_k)
    report["chirality_sum_lower"] = {"branches": float(lower), "charge": float(chi)}
    report["chirality_sum_upper"] = float(upper)
    report["checks"]["chirality_agrees"] = lower == chi == -upper


def cmd_conductance(args, report):
    _require_positive("--tolerance", args.tolerance)
    ham = _model(args)
    n_k = ham.geometry.L1
    a = args.a if args.a is not None else ham.geometry.L2 // 2 - 2
    a_prime = args.aprime if args.aprime is not None else ham.geometry.L2 // 4
    response.fiber_cache(ham, n_k, threads=args.threads)  # stored on the model for the response and the count
    est = response.edge_conductance_free(ham, args.mu, n_k, a=a, a_prime=a_prime)
    write_csv(args.out, "conductance.csv", ["p1", "G"], list(zip(est.p1_values, est.g_values)))
    # the chirality target: the lower edge's count from its occupied charge
    chi = float(spectrum.lower_edge_chirality(ham, args.mu, n_k))
    target = chi / (2.0 * np.pi)
    rel = abs(est.g - target) / abs(target) if target != 0 else abs(est.g) * 2 * np.pi
    report["G_extrapolated"] = est.g
    report["G_stderr"] = est.stderr
    report["two_pi_G"] = 2.0 * np.pi * est.g
    report["target"] = target
    report["relative_error"] = rel
    report["chirality_sum_lower"] = chi
    report["checks"]["conductance_matches_chirality"] = bool(rel <= args.tolerance)


def cmd_wick(args, report):
    for flag, value in [("--betas", b) for b in args.betas] + [("--T", args.T), ("--eta", args.eta)]:
        _require_positive(flag, value)
    if len(set(args.betas)) < len(args.betas):
        raise ValueError(f"--betas values must be distinct, got {' '.join(map(str, args.betas))}")
    for beta in args.betas:
        if response.periodic_frequency(args.eta, beta) == 0.0:
            raise ValueError(
                f"--betas {beta} is too small: the periodic frequency nearest to --eta {args.eta} is 0"
            )
    ham = _model(args)
    n_k = ham.geometry.L1
    response.fiber_cache(ham, n_k, threads=args.threads)  # stored on the model for every beta
    a = ham.geometry.L2 // 2 - 2
    a_prime = ham.geometry.L2 // 4
    rows = []
    residuals = {}
    for beta in args.betas:
        lhs, rhs, res = response.wick_rotation_check(ham, args.mu, beta, args.T, args.eta, 1, n_k, a, a_prime)
        rows.append((beta, args.T, res))
        residuals[beta] = res
    write_csv(args.out, "wick.csv", ["beta", "T", "residual"], rows)
    betas = sorted(residuals)
    ratios = [residuals[b1] / residuals[b2] for b1, b2 in zip(betas, betas[1:])]
    report["residuals"] = {str(b): residuals[b] for b in betas}
    report["beta_doubling_ratios"] = ratios
    report["checks"]["beta_scaling"] = bool(all(r >= 1.8 for r in ratios))


def cmd_ref_check(args, report):
    if args.ensemble_size < 1:
        raise ValueError(f"--ensemble-size must be at least 1, got {args.ensemble_size}")
    if args.channels is not None and args.channels < 1:
        raise ValueError(f"--channels must be at least 1, got {args.channels}")
    if args.lambda_scale < 0.0:
        raise ValueError(f"--lambda-scale must be nonnegative, got {args.lambda_scale}")
    _require_positive("--tolerance", args.tolerance)
    rng = np.random.default_rng(args.seed)
    errs = np.empty(args.ensemble_size)
    worst = None
    rescaled_draws = 0
    # blocks of draws, each evaluated as one stack per channel count; the
    # largest error of a block is its first, and an earlier block keeps a tie
    for start in range(0, args.ensemble_size, reference.ENSEMBLE_BLOCK):
        block = errs[start : start + reference.ENSEMBLE_BLOCK]
        groups = reference.random_block(rng, block.size, args.channels, args.lambda_scale)
        for index, params, rescaled in groups:
            target = np.sum(np.sign(params.v), axis=-1) / (2.0 * np.pi)
            block[index] = np.abs(reference.edge_conductance(params) - target)
            rescaled_draws += int(np.count_nonzero(rescaled))
        i = int(np.argmax(block))
        if worst is None or block[i] > worst[0]:
            index, params, _ = next(g for g in groups if i in g[0])
            j = int(np.flatnonzero(index == i)[0])
            worst = (block[i], {"v": params.v[j], "z": params.z[j], "lam": params.lam[j]})
    report["max_abs_error"] = float(errs.max())
    report["mean_abs_error"] = float(errs.mean())
    report["rescaled_draws"] = rescaled_draws
    report["worst_params"] = worst[1]
    report["checks"]["universality"] = bool(errs.max() <= args.tolerance)


def cmd_bubble(args, report):
    if args.N_min > args.N:
        raise ValueError("--N-min must not exceed --N")
    if args.v == 0.0:
        raise ValueError("--v must be nonzero: a channel needs a velocity")
    _require_positive("--tol", args.tol)
    exact = reference.bubble_closed(args.p0, args.p1, args.v)
    # step 2 down from --N, so that the last row is --N itself
    ns = range(args.N_min + (args.N - args.N_min) % 2, args.N + 1, 2)
    ests = reference.bubble_regularized(args.p0, args.p1, args.v, args.h, ns, tol=args.tol)
    rows = [(n, args.h, est.real, est.imag, abs(est - exact)) for n, est in zip(ns, ests)]
    write_csv(args.out, "bubble.csv", ["N", "h", "re", "im", "error"], rows)
    final_err = rows[-1][-1]
    report["estimate"] = {"re": rows[-1][2], "im": rows[-1][3]}
    report["closed_form"] = {"re": exact.real, "im": exact.imag}
    report["error"] = final_err
    report["checks"]["bubble_converged"] = bool(final_err <= 1e-3)


def cmd_rg(args, report):
    try:
        vs = [lattice.finite_float(x) for x in args.velocities.split(",")]
    except ValueError as exc:
        raise ValueError(f"--velocities: {exc}") from None
    if 0.0 in vs:
        raise ValueError(f"--velocities entries must be nonzero, got {args.velocities!r}")
    n = len(vs)
    # eta is fitted over the scales and checked against 0 < eta <= 10 lam^2,
    # which an uncoupled flow (eta = 0 exactly) can never meet
    if args.scales < 10:
        raise ValueError(f"--scales must be at least 10 for the exponent fit, got {args.scales}")
    if n < 2:
        raise ValueError(f"--velocities needs at least two channels to couple, got {args.velocities!r}")
    if args.lam == 0.0:
        raise ValueError("--lambda must be nonzero: an uncoupled flow has eta = 0")
    # the sunset's anomalous part needs opposite chiralities: with one sign
    # only, Z stays 1 and eta = 0 up to quadrature noise of either sign
    if min(vs) > 0.0 or max(vs) < 0.0:
        raise ValueError(f"--velocities needs both signs to give eta > 0, got {args.velocities!r}")
    lam = np.full((n, n), args.lam)
    np.fill_diagonal(lam, 0.0)
    params = reference.LuttingerParams(v=vs, z=np.ones(n), lam=lam)
    traj = rgflow.flow_run(params, -args.scales)
    hs, zs, vels, lams = traj.arrays()
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows = []
    for i, h in enumerate(hs):
        row = [int(h)]
        row.extend(float(z) for z in zs[i])
        row.extend(float(v) for v in vels[i])
        row.extend(float(lams[i][a, b]) for a, b in pairs)
        rows.append(tuple(row))
    header = (
        ["h"]
        + [f"Z_{c}" for c in range(n)]
        + [f"v_{c}" for c in range(n)]
        + [f"lambda_{a}{b}" for a, b in pairs]
    )
    write_csv(args.out, "rg_trajectory.csv", header, rows)
    rep = rgflow.vanishing_beta_report(traj)
    lam_scale = abs(args.lam)
    report["eta"] = rep["eta"]
    # the quartic beta function vanishes at this order, so lambda does not
    # run; the key stays because rg_check in perfbench/workloads.py reads
    # it until the next benchmark revision
    report["beta_lambda_max"] = 0.0
    report["checks"]["eta_in_range"] = bool(
        np.all(rep["eta"] > 0) and np.all(rep["eta"] <= 10 * lam_scale**2)
    )


# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1)
    ap = argparse.ArgumentParser(prog="edgeflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_model_args(p, window=True):
        p.add_argument("--model", choices=list(lattice.MODEL_PARAMS))
        p.add_argument("--config", help="model definition file (INI sections)")
        p.add_argument("--L1", type=int, default=24)
        p.add_argument("--L2", type=int, default=16)
        p.add_argument("--mu", type=lattice.finite_float, default=0.15)
        # model parameters: unset ones take the model's defaults in lattice
        p.add_argument("--t2", type=lattice.finite_float)
        p.add_argument("--m-stag", dest="m_stag", type=lattice.finite_float)
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--shifts")
        p.add_argument("--flips")
        if window:  # the half-width of the scan's energy window around --mu
            p.add_argument("--window", type=lattice.finite_float, default=0.3)

    p = sub.add_parser("spectrum", parents=[common], help="band scan near the chemical potential")
    add_model_args(p)
    p.add_argument("--n-k", dest="n_k", type=int, default=96)

    p = sub.add_parser("edges", parents=[common], help="edge branches, Fermi data, assumption report")
    add_model_args(p)
    p.add_argument("--n-k", dest="n_k", type=int, default=96)

    p = sub.add_parser("conductance", parents=[common], help="free edge conductance with extrapolation")
    add_model_args(p, window=False)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--aprime", type=int, default=None)
    p.add_argument("--tolerance", type=lattice.finite_float, default=0.05)

    p = sub.add_parser("wick", parents=[common], help="real- vs imaginary-time response comparison")
    add_model_args(p, window=False)
    p.add_argument("--betas", type=lattice.finite_float, nargs="+", default=(20.0, 40.0, 80.0))
    p.add_argument("--T", type=lattice.finite_float, default=200.0)
    p.add_argument("--eta", type=lattice.finite_float, default=2.0 * np.pi / 20.0 * (4.0 / 3.0))

    p = sub.add_parser("ref-check", parents=[common], help="universality identity over a random ensemble")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--ensemble-size", dest="ensemble_size", type=int, default=500)
    p.add_argument("--lambda-scale", dest="lambda_scale", type=lattice.finite_float, default=0.1)
    p.add_argument("--tolerance", type=lattice.finite_float, default=1e-9)

    p = sub.add_parser("bubble", parents=[common], help="regularized anomalous bubble convergence")
    p.add_argument("--v", type=lattice.finite_float, default=1.0)
    p.add_argument("--p0", type=lattice.finite_float, default=0.0)
    p.add_argument("--p1", type=lattice.finite_float, default=1.0)
    p.add_argument("--h", type=int, default=-12)
    p.add_argument("--N", type=int, default=12)
    p.add_argument("--N-min", dest="N_min", type=int, default=8)
    p.add_argument("--tol", type=lattice.finite_float, default=1e-6)

    p = sub.add_parser("rg", parents=[common], help="truncated flow over dyadic scales")
    p.add_argument("--velocities", default="1.0,-1.0")
    p.add_argument("--lambda", dest="lam", type=lattice.finite_float, default=0.05)
    p.add_argument("--scales", type=int, default=30)
    return ap


@functools.cache
def _parser():
    """The parser of every :func:`main` call in this process, built at the
    first.  Its defaults are immutable, so no parse leaks into the next."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    report = _base_report(args)
    try:
        _require_positive("--threads", args.threads)
        # looked up by name at call time, so a rebound cmd_* is the one that runs
        globals()[f"cmd_{args.command.replace('-', '_')}"](args, report)
    except (ValueError, FileNotFoundError, KeyError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except tuple(FAILED_STAGE) as exc:
        report["checks"][FAILED_STAGE[type(exc)]] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["wall_time_s"] = time.time() - t0
    path = write_report(args.out, f"report_{report['command'].replace('-', '_')}.json", report)
    ok = all(report["checks"].values()) if report["checks"] else True
    print(f"{report['command']}: {'PASS' if ok else 'FAIL'} ({path})")
    return EXIT_OK if ok else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
