import importlib
import inspect

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


def test_package_exports_resolve():
    assert [name for name in edgeflow.__all__ if not hasattr(edgeflow, name)] == []


def test_spectrum_api_is_pinned():
    # the branch extraction is two public steps: edge_branches diagonalizes
    # nothing, extract_edge_branches adds the Fermi data
    from edgeflow import spectrum

    assert sorted(spectrum.__all__) == sorted([
        "BandScan",
        "EdgeBranch",
        "AssumptionReport",
        "BulkStateError",
        "FermiPointError",
        "NoEdgeBranchError",
        "scan_spectrum",
        "edge_branches",
        "crossing_sign",
        "extract_edge_branches",
        "fermi_point",
        "check_assumptions",
    ])
