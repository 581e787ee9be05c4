import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgeflow

MODULES = ("cutoffs", "lattice", "quadrature", "reference", "response", "rgflow", "spectrum")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exactly_the_public_definitions(name):
    # every public function and class a module defines is declared, and
    # anything else declared is one of the module's own constants, so a
    # retired name cannot linger in __all__
    mod = importlib.import_module(f"edgeflow.{name}")
    defined = {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    declared = set(mod.__all__)
    assert len(declared) == len(mod.__all__), "a name is declared twice"
    assert sorted(defined - declared) == []
    for attr in declared - defined:
        assert hasattr(mod, attr), f"{attr} is declared but not defined"
        obj = getattr(mod, attr)
        assert not (inspect.isfunction(obj) or inspect.isclass(obj) or inspect.ismodule(obj)), attr


# the edgeflow modules a fresh interpreter holds after importing each one: the
# package loads no layer, and a layer loads only the layers it imports
IMPORT_GRAPH = {
    "edgeflow": set(),
    "edgeflow.lattice": {"lattice"},
    "edgeflow.response": {"lattice", "response"},
    "edgeflow.spectrum": {"lattice", "response", "spectrum"},
    "edgeflow.reference": {"cutoffs", "quadrature", "reference"},
    "edgeflow.rgflow": {"cutoffs", "quadrature", "reference", "rgflow"},
    "edgeflow.cli": {"cli", "lattice"},
}


def test_importing_a_layer_loads_only_the_layers_it_imports():
    script = (
        "import importlib, sys; importlib.import_module(sys.argv[1]); import edgeflow; "
        "print(edgeflow.__version__, *sorted(m for m in sys.modules if m.startswith('edgeflow.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(edgeflow.__file__).parents[1])}
    loaded = {}
    for name in IMPORT_GRAPH:
        out = subprocess.run([sys.executable, "-c", script, name], capture_output=True, text=True, check=True,
                             env=env)
        version, *modules = out.stdout.split()
        assert version == edgeflow.__version__
        loaded[name] = {m.removeprefix("edgeflow.") for m in modules}
    assert loaded == IMPORT_GRAPH


REFERENCE_SIDE = {"cli", "lattice", "reference", "cutoffs", "quadrature"}
LATTICE_SIDE = {"cli", "lattice", "response", "spectrum"}

# the edgeflow modules a fresh interpreter holds after one cli.main call: each
# subcommand loads only the layers it runs
COMMAND_LAYERS = {
    ("ref-check", "--ensemble-size", "20"): REFERENCE_SIDE,
    ("bubble",): REFERENCE_SIDE,
    ("rg", "--scales", "10"): REFERENCE_SIDE | {"rgflow"},
    ("wick", "--model", "haldane", "--L1", "12", "--L2", "12"): {"cli", "lattice", "response"},
    ("conductance", "--model", "haldane", "--L1", "48", "--L2", "24", "--a", "12", "--aprime", "6"): LATTICE_SIDE,
    ("edges", "--model", "haldane", "--n-k", "64"): LATTICE_SIDE,
    ("spectrum", "--model", "haldane", "--n-k", "64"): LATTICE_SIDE,
}


def test_a_command_loads_only_the_layers_it_runs(tmp_path):
    script = (
        "import sys; from edgeflow import cli; code = cli.main(sys.argv[1:]); "
        "print(code, *sorted(m for m in sys.modules if m.startswith('edgeflow.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(edgeflow.__file__).parents[1])}
    loaded = {}
    for argv in COMMAND_LAYERS:
        out = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / argv[0])],
                             capture_output=True, text=True, check=True, env=env)
        code, *modules = out.stdout.splitlines()[-1].split()
        assert code == "0", out.stdout
        loaded[argv] = {m.removeprefix("edgeflow.") for m in modules}
    assert loaded == COMMAND_LAYERS


def test_spectrum_api_is_pinned():
    # the branch extraction is two public steps: edge_branches diagonalizes
    # nothing and records each branch's grid crossing, extract_edge_branches
    # adds the Fermi data
    from edgeflow import spectrum

    assert sorted(spectrum.__all__) == sorted([
        "BandScan",
        "EdgeBranch",
        "AssumptionReport",
        "BulkStateError",
        "FermiPointError",
        "NoEdgeBranchError",
        "ChargeStepError",
        "scan_spectrum",
        "edge_branches",
        "extract_edge_branches",
        "fermi_point",
        "lower_edge_chirality",
        "check_assumptions",
    ])


def test_rgflow_api_is_pinned():
    # one definition per diagram: the sunset the flow runs is the one the
    # Wick-oracle tests call, and no grid-only copy of a diagram remains
    from edgeflow import rgflow

    assert sorted(rgflow.__all__) == sorted([
        "FlowTrajectory",
        "FlowDivergenceError",
        "single_scale_propagator",
        "sunset",
        "beta_second_order",
        "flow_run",
        "vanishing_beta_report",
    ])


def test_lattice_api_is_pinned():
    # models come from flags or the INI model file through build_model; no
    # second input format
    from edgeflow import lattice

    assert sorted(lattice.__all__) == sorted([
        "CylinderGeometry",
        "LatticeHamiltonian",
        "HermiticityError",
        "haldane_cylinder",
        "hofstadter_cylinder",
        "stacked_shifted",
        "chain_cylinder",
        "MODEL_PARAMS",
        "build_model",
        "finite_float",
        "assemble_fiber",
        "row_weights",
        "model_from_config",
    ])
    # nor a copy builder that only tests call: their one-copy oracle of
    # stacked_shifted is conftest.shifted
    assert not hasattr(lattice.LatticeHamiltonian, "shifted")


def test_response_api_is_pinned():
    # one strip loop behind the conductance, wrong-order and Wick checks;
    # the row-resolved tables and vertices are test oracles, not API
    from edgeflow import response

    assert sorted(response.__all__) == sorted([
        "FiberBasis",
        "ConductanceEstimate",
        "DegenerateCrossingError",
        "ConjugationSymmetryError",
        "SingularPropagatorError",
        "diagonalize_fiber",
        "fiber_cache",
        "ward_sum_rule",
        "free_two_point",
        "vertex_ward_residual",
        "edge_conductance_free",
        "wrong_order_diagnostic",
        "periodic_frequency",
        "wick_rotation_check",
    ])
    # one store, of the summands' grid fibers: a stack's grid read is its
    # summands' grids, with no merged basis or column picker
    assert [a for a in ("direct_sum", "columns") if hasattr(response.FiberBasis, a)] == []
    assert not hasattr(response, "_stored")


def test_only_the_grid_read_touches_the_fiber_store():
    # fiber_cache reads and writes the whole grids a model stores; no
    # per-momentum read remains, and no other code reaches the store but
    # the model's constructor, which starts it empty
    from edgeflow import lattice, response

    assert not hasattr(response, "grid_fiber")
    touches = {
        path.stem: [line.strip() for line in path.read_text().splitlines() if "_grids" in line]
        for path in sorted(Path(edgeflow.__file__).parent.glob("*.py"))
    }
    assert [name for name, lines in touches.items() if lines and name not in ("lattice", "response")] == []
    (init,) = touches["lattice"]
    assert init.startswith("self._grids = {}") and init in inspect.getsource(lattice.LatticeHamiltonian.__init__)
    in_code = inspect.getsource(response).count("_grids") - response.__doc__.count("_grids")
    assert in_code == inspect.getsource(response.fiber_cache).count("_grids") > 0
    # one grid per summand, the summand's stored tuple itself: no fiber type
    # of a direct sum, no one-part view of a basis and no mirror flag
    assert not hasattr(response, "_SummandFibers")
    chain = lattice.chain_cylinder(lattice.CylinderGeometry(8, 8, 1))
    (grid,) = response.fiber_cache(chain, 8)
    for basis in (response.FiberBasis, response.diagonalize_fiber(chain, 0.3), grid[1], grid[7]):
        assert [a for a in ("parts", "from_mirror") if hasattr(basis, a)] == []
    assert [path.stem for path in sorted(Path(edgeflow.__file__).parent.glob("*.py"))
            if re.search(r"\.parts\b", path.read_text())] == []
    stack = lattice.stacked_shifted(chain, [0.0, 0.1])
    for n_k in (8, 12):
        grids = response.fiber_cache(stack, n_k)
        assert len(grids) == len(stack.summands()) == 2
        assert all(grid is sub._grids[n_k] for grid, (_, sub) in zip(grids, stack.summands(), strict=True))
    assert not stack._grids


def test_only_the_current_builder_touches_the_current_store():
    # _current_operator reads and writes the currents a model stores, and no
    # other code reaches the store but the model's constructor
    from edgeflow import lattice, response

    touches = {
        path.stem: [line.strip() for line in path.read_text().splitlines() if "._currents" in line]
        for path in sorted(Path(edgeflow.__file__).parent.glob("*.py"))
    }
    assert [name for name, lines in touches.items() if lines and name not in ("lattice", "response")] == []
    (init,) = touches["lattice"]
    assert init.startswith("self._currents = {}") and init in inspect.getsource(lattice.LatticeHamiltonian.__init__)
    in_code = inspect.getsource(response).count("._currents") - response.__doc__.count("._currents")
    assert in_code == inspect.getsource(response._current_operator).count("._currents") > 0


def test_cutoffs_and_quadrature_apis_are_pinned():
    # what reference and rgflow call: no helper that only tests would use
    from edgeflow import cutoffs, quadrature

    assert sorted(cutoffs.__all__) == sorted(["smoothstep", "chi", "band_cutoff", "shell"])
    assert sorted(quadrature.__all__) == sorted(["QuadratureError", "polar_nodes", "refine_until"])


def test_reference_api_is_pinned():
    # one closed form per reference quantity: no self-check switch, no
    # error class for a cross-check, whose second route lives in the tests,
    # and no finite-lattice regulator, which no subcommand runs
    from edgeflow import reference

    assert sorted(reference.__all__) == sorted([
        "LuttingerParams",
        "SingularTMatrixError",
        "chiral_denominator",
        "bubble_closed",
        "bubble_over_d",
        "bubble_regularized",
        "same_chirality_bubble",
        "P_C",
        "form_factor",
        "t_matrix",
        "t_limit_static",
        "t_limit_dynamic",
        "t_matrix_directional_numeric",
        "density_density",
        "density_density_directional_numeric",
        "discontinuity_matrix",
        "vertex_renormalizations",
        "edge_conductance",
        "random_block",
        "random_params",
    ])
    # nor a settable tolerance or switch, nor a wrapper of a private helper
    assert list(inspect.signature(reference.same_chirality_bubble).parameters) == ["h1", "h2", "v"]
    for fn in (reference.t_matrix, reference.discontinuity_matrix, reference.vertex_renormalizations):
        assert list(inspect.signature(fn).parameters)[-1] == "params", fn.__name__
    assert [m for m in ("kappa", "coupling_weighted") if hasattr(reference.LuttingerParams, m)] == []
