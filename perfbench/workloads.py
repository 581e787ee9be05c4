"""The benchmark's workloads: their cases, the inputs made from the seed,
and the check on every physics output.

``build`` is what ``setup_s`` times: it imports edgeflow and builds the
workload's model objects.  Nothing here imports numpy or edgeflow at module
level, so that a fresh interpreter pays the whole import inside ``build``.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("conductance", "spectroscopy", "identities", "reference-flow")
DEFAULT_SEED = 0

# pinned tolerances of the checks (the CLI's and the acceptance suite's)
CONDUCTANCE_TOL = 0.05  # relative error of 2 pi G against the chirality sum
FERMI_TOL = 1e-10  # |E(k_F) - mu|, the bisection tolerance of spectrum.fermi_point
LOC_R2_MIN = 0.95  # localization fit quality, check_assumptions flag b
V_MIN = 1e-3  # |velocity|, check_assumptions flag c
GAMMA_MIN = 0.05  # Fermi-momentum separation, check_assumptions flag d
WARD_TOL = 1e-10  # charge sum rule and vertex identity residuals
WRONG_ORDER_TOL = 1e-14  # |wrong-order diagnostic|, tests/test_response.py
WICK_RATIO_MIN = 1.8  # beta-doubling ratios of the Wick residual
UNIVERSALITY_TOL = 1e-9  # max |G - sum sgn(v) / 2 pi| over the ensemble
BUBBLE_TOL = 1e-3  # |B - closed form|
BETA_LAMBDA_TOL = 1e-9  # quartic beta function at every scale
RG_LAMBDA = 0.05  # the rg command's default coupling; eta must be in (0, 10 lam^2]


class CheckFailed(Exception):
    """A physics output missed its pinned value, or a report check failed."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Case:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check(result)`` returns ``(outputs, uses)``: the physics outputs by
    name, compared with the seed commit's values, and each pinned check's
    measured error over its tolerance (a use above 1 is a failed check).
    ``seeded`` cases take inputs made from the seed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    seeded: bool = False


@dataclass
class Plan:
    cases: list
    warmup: list  # argv lists run once before timing; results unused
    models: dict  # the model objects set-up built
    inputs: dict = field(default_factory=dict)  # seeded inputs, for the record


def build(workload, seed, outdir):
    """Import edgeflow and build the workload's models and cases."""
    by_name = {
        "conductance": _conductance,
        "spectroscopy": _spectroscopy,
        "identities": _identities,
        "reference-flow": _reference_flow,
    }
    if workload not in by_name:
        raise ValueError(f"unknown workload {workload!r}")
    return by_name[workload](seed, outdir)


def run_cli(argv, outdir):
    """Run one edgeflow command in this process, its stdout discarded."""
    from edgeflow import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv) + ["--threads", "1", "--out", outdir])


def _cli_case(name, argv, outdir, check, seeded=False):
    report_path = os.path.join(outdir, f"report_{argv[0].replace('-', '_')}.json")

    def checked(code):
        require(code == 0, f"exit code {code}")
        with open(report_path) as f:
            report = json.load(f)
        failed = sorted(k for k, ok in report["checks"].items() if not ok)
        require(not failed, f"report checks failed: {failed}")
        return check(report)

    return Case(name, lambda: run_cli(argv, outdir), checked, seeded)


# ---------------------------------------------------------------------------
# conductance: the response layer on the static, zero-temperature strip path
# ---------------------------------------------------------------------------


def _conductance(seed, outdir):
    import numpy as np
    from edgeflow import lattice

    geo = lattice.CylinderGeometry(48, 24, 2)
    models = {
        "haldane": lattice.haldane_cylinder(geo),
        "counter-stack": lattice.stacked_shifted(
            [lattice.haldane_cylinder(geo), lattice.haldane_cylinder(geo, phi=-np.pi / 2)],
            [0.0, 0.1],
        ),
    }
    size = ["--L1", "48", "--L2", "24", "--a", "12", "--aprime", "6"]

    def check(chirality):
        def f(report):
            require(
                report["chirality_sum_lower"] == chirality,
                f"chirality sum {report['chirality_sum_lower']} != {chirality}",
            )
            outputs = {k: report[k] for k in ("two_pi_G", "G_stderr", "chirality_sum_lower")}
            return outputs, {"relative_error": report["relative_error"] / CONDUCTANCE_TOL}

        return f

    cases = [
        _cli_case("haldane", ["conductance", "--model", "haldane", *size], outdir, check(1.0)),
        _cli_case(
            "counter-stack",
            ["conductance", "--model", "stacked-haldane", "--shifts", "0.0,0.1", "--flips", "0,1", *size],
            outdir,
            check(0.0),
        ),
    ]
    warmup = [["conductance", "--model", "haldane", "--L1", "12", "--L2", "16", "--a", "4", "--aprime", "2"]]
    return Plan(cases, warmup, models)


# ---------------------------------------------------------------------------
# spectroscopy: fibers, eigh, continuation and bisection; no vertices
# ---------------------------------------------------------------------------


def _spectroscopy(seed, outdir):
    import numpy as np
    from edgeflow import lattice

    G = lattice.CylinderGeometry
    models = {
        "haldane": lattice.haldane_cylinder(G(48, 24, 2)),
        "hofstadter-2/5": lattice.hofstadter_cylinder(G(60, 32, 1), p=2, q=5),
        "hofstadter-1/3": lattice.hofstadter_cylinder(G(24, 16, 1)),
        "stack-3": lattice.stacked_shifted(
            [lattice.haldane_cylinder(G(24, 16, 2)) for _ in range(3)], [0.0, 0.1, 0.26]
        ),
        "haldane-spectrum": lattice.haldane_cylinder(G(48, 32, 2)),
    }

    # expected lower-edge chirality sums: +1 per Haldane copy; minus the Hall
    # integer t of the Hofstadter gap (r = q s + p t): t = 1 in gap 1 at 1/3
    # and in gap 2 at 2/5, where mu = -1 sits
    def edges_check(name, mu, chirality):
        ham = models[name]

        def f(report):
            outputs, uses = {}, {}
            chi = 0.0
            for b in report["branches"]:
                kf, v = b["k_fermi"], b["velocity"]
                if not math.isfinite(kf):
                    continue
                tag = f"{b['side']}{b['label']}"
                if b["side"] == "lower":
                    chi += math.copysign(1.0, v)
                e = np.linalg.eigvalsh(lattice.assemble_fiber(ham, kf))
                uses[f"{tag}.fermi_energy"] = float(np.min(np.abs(e - mu))) / FERMI_TOL
                uses[f"{tag}.loc_fit"] = (1.0 - b["loc_r2"]) / (1.0 - LOC_R2_MIN)
                uses[f"{tag}.velocity"] = V_MIN / abs(v)
                outputs.update({f"{tag}.k_fermi": kf, f"{tag}.velocity": v, f"{tag}.loc_rate": b["loc_rate"]})
            gamma = report["assumption_report"]["gamma"]
            if math.isfinite(gamma):
                uses["separation"] = GAMMA_MIN / gamma
            require(chi == chirality, f"lower-edge chirality sum {chi} != {chirality}")
            outputs["chirality_sum_lower"] = chi
            outputs["branches"] = len(report["branches"])
            return outputs, uses

        return f

    def spectrum_check(report):
        return {"n_states": report["n_states"]}, {}

    cases = [
        _cli_case(
            "edges/haldane",
            ["edges", "--model", "haldane", "--L1", "48", "--L2", "24", "--n-k", "192"],
            outdir, edges_check("haldane", 0.15, 1.0),
        ),
        _cli_case(
            "edges/hofstadter-2/5",
            ["edges", "--model", "hofstadter", "--p", "2", "--q", "5", "--L1", "60", "--L2", "32",
             "--n-k", "240", "--mu", "-1.0"],
            outdir, edges_check("hofstadter-2/5", -1.0, -1.0),
        ),
        _cli_case(
            "edges/hofstadter-1/3",
            ["edges", "--model", "hofstadter", "--L1", "24", "--L2", "16", "--mu", "-1.0"],
            outdir, edges_check("hofstadter-1/3", -1.0, -1.0),
        ),
        _cli_case(
            "edges/stack-3",
            ["edges", "--model", "stacked-haldane", "--L1", "24", "--L2", "16", "--n-k", "128"],
            outdir, edges_check("stack-3", 0.15, 3.0),
        ),
        _cli_case(
            "spectrum/haldane",
            ["spectrum", "--model", "haldane", "--L1", "48", "--L2", "32", "--n-k", "256"],
            outdir, spectrum_check,
        ),
    ]
    small = ["--model", "haldane", "--L1", "16", "--L2", "24", "--n-k", "64"]
    return Plan(cases, [["edges", *small], ["spectrum", *small]], models)


# ---------------------------------------------------------------------------
# identities: the response layer on every transverse row, p1 = 0, p0 != 0,
# finite temperature and the real-time path
# ---------------------------------------------------------------------------

WARD_P0 = 0.7
# The random model's size is fixed so that every seed does the same work;
# the seed draws its entries, the momenta and the Ward row.
RANDOM_L1 = 16
WARD_TEMPERATURES = (0.0, 0.05)


def random_hermitian_model(rng, L1, L2=12, M=2):
    """Random Hermitian hopping model of range <= sqrt 2 on an L1 x L2 cylinder."""
    import numpy as np
    from edgeflow import lattice

    g = lattice.CylinderGeometry(L1, L2, M)
    interior = range(1, L2 - 1)
    raw = {
        (z1, x2, y2): rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        for z1 in (-1, 0, 1)
        for x2 in interior
        for y2 in interior
        if math.hypot(z1, x2 - y2) <= math.sqrt(2) + 1e-12
    }
    ham = lattice.LatticeHamiltonian(g)
    for (z1, x2, y2), blk in raw.items():
        partner = raw.get((-z1, y2, x2), np.zeros((M, M)))
        ham.add_block(z1, x2, y2, 0.5 * (blk + partner.conj().T), accumulate=False)
    return ham


def _identities(seed, outdir):
    import numpy as np
    from edgeflow import lattice, response

    rng = np.random.default_rng(seed)
    G = lattice.CylinderGeometry
    models = {
        "haldane": (lattice.haldane_cylinder(G(32, 16, 2)), 0.15),
        "hofstadter": (lattice.hofstadter_cylinder(G(33, 16, 1)), -1.0),
        "random": (random_hermitian_model(rng, RANDOM_L1), 0.1),
        "wick-haldane": (lattice.haldane_cylinder(G(12, 12, 2)), 0.15),
    }
    inputs = {}
    cases = []
    for name in ("haldane", "hofstadter", "random"):
        ham, mu = models[name]
        n_k, l2 = ham.geometry.L1, ham.geometry.L2
        y2 = int(rng.integers(1, l2 - 1))
        momenta = [
            (float(rng.uniform(-2.0, 2.0)), int(rng.integers(0, n_k)),
             float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])), int(rng.integers(1, n_k // 2 + 1)))
            for _ in range(5)
        ]
        inputs[name] = {"y2": y2, "momenta": momenta}
        for temp in WARD_TEMPERATURES:
            cases.append(Case(
                f"ward/{name}/T={temp}",
                lambda ham=ham, mu=mu, y2=y2, n_k=n_k, temp=temp: response.ward_sum_rule(
                    ham, mu, WARD_P0, y2, n_k, temperature=temp),
                lambda res: ({"j1": res[1], "j2": res[2]}, {"residual": max(res.values()) / WARD_TOL}),
                seeded=True,
            ))
        for j, (k0, ki, p0, pi_) in enumerate(momenta):
            cases.append(Case(
                f"vertex/{name}/{j}",
                lambda ham=ham, mu=mu, k0=k0, ki=ki, p0=p0, pi_=pi_, n_k=n_k: response.vertex_ward_residual(
                    ham, mu, k0, ki, p0, pi_, n_k),
                lambda r: ({"residual": r}, {"residual": r / WARD_TOL}),
                seeded=True,
            ))
        cases.append(Case(
            f"wrong-order/{name}",
            lambda ham=ham, mu=mu, n_k=n_k, l2=l2: response.wrong_order_diagnostic(
                ham, mu, WARD_P0, n_k, a_prime=l2 // 4),
            lambda z: ({"re": z.real, "im": z.imag}, {"abs": abs(z) / WRONG_ORDER_TOL}),
            seeded=True,
        ))

    def wick_check(report):
        ratios = report["beta_doubling_ratios"]
        outputs = {f"ratio{i}": r for i, r in enumerate(ratios)}
        outputs.update({f"residual@{b}": r for b, r in report["residuals"].items()})
        return outputs, {f"ratio{i}": WICK_RATIO_MIN / r for i, r in enumerate(ratios)}

    cases.append(_cli_case("wick", ["wick", "--model", "haldane", "--L1", "12", "--L2", "12"], outdir, wick_check))
    warmup = [["wick", "--model", "haldane", "--L1", "12", "--L2", "12", "--betas", "20"]]
    return Plan(cases, warmup, models, inputs)


# ---------------------------------------------------------------------------
# reference-flow: quadrature, cutoffs, reference and rgflow; no lattice code
# ---------------------------------------------------------------------------

RG_VELOCITIES = ("1.0,-1.0", "1.0,-0.7,0.4")


def _reference_flow(seed, outdir):
    import numpy as np
    from edgeflow import reference

    ref_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
    models = {}
    for vel in RG_VELOCITIES:
        v = [float(x) for x in vel.split(",")]
        lam = np.full((len(v), len(v)), RG_LAMBDA)
        np.fill_diagonal(lam, 0.0)
        models[vel] = reference.LuttingerParams(v=v, z=np.ones(len(v)), lam=lam)

    def ref_check(report):
        err = report["max_abs_error"]
        return {"max_abs_error": err, "mean_abs_error": report["mean_abs_error"]}, {
            "universality": err / UNIVERSALITY_TOL}

    def bubble_check(report):
        outputs = {"error": report["error"], "re": report["estimate"]["re"], "im": report["estimate"]["im"]}
        return outputs, {"error": report["error"] / BUBBLE_TOL}

    def rg_check(params):
        def f(report):
            eta = report["eta"]
            require(len(eta) == params.n_channels, f"{len(eta)} exponents for {params.n_channels} channels")
            require(all(e > 0 for e in eta), f"eta {eta} not positive")
            uses = {f"eta{c}": e / (10 * RG_LAMBDA**2) for c, e in enumerate(eta)}
            uses["beta_lambda"] = report["beta_lambda_max"] / BETA_LAMBDA_TOL
            outputs = {f"eta{c}": e for c, e in enumerate(eta)}
            outputs["beta_lambda_max"] = report["beta_lambda_max"]
            return outputs, uses

        return f

    cases = [
        _cli_case("ref-check", ["ref-check", "--ensemble-size", "2000", "--seed", str(ref_seed)],
                  outdir, ref_check, seeded=True),
        _cli_case("bubble", ["bubble", "--N", "16", "--N-min", "8", "--h", "-14", "--tol", "1e-8"],
                  outdir, bubble_check),
    ] + [
        _cli_case(f"rg/{vel}", ["rg", "--velocities", vel, "--scales", "30"], outdir, rg_check(models[vel]))
        for vel in RG_VELOCITIES
    ]
    warmup = [["ref-check", "--ensemble-size", "20"], ["bubble"], ["rg", "--scales", "10"]]
    return Plan(cases, warmup, models, {"ref_check_seed": ref_seed})
