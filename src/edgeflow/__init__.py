"""Edge-mode spectroscopy, free-fermion linear response and chiral
reference-model checks for lattice quantum Hall cylinders."""

from .lattice import (
    CylinderGeometry,
    LatticeHamiltonian,
    assemble_fiber,
    chain_cylinder,
    haldane_cylinder,
    hofstadter_cylinder,
    stacked_shifted,
)
from .reference import LuttingerParams, bubble_closed, edge_conductance
from .response import edge_conductance_free, ward_sum_rule, wick_rotation_check
from .rgflow import FlowState, flow_run, vanishing_beta_report
from .spectrum import check_assumptions, extract_edge_branches, scan_spectrum

__version__ = "0.1.0"

__all__ = [
    "CylinderGeometry",
    "LatticeHamiltonian",
    "assemble_fiber",
    "chain_cylinder",
    "haldane_cylinder",
    "hofstadter_cylinder",
    "stacked_shifted",
    "LuttingerParams",
    "bubble_closed",
    "edge_conductance",
    "edge_conductance_free",
    "ward_sum_rule",
    "wick_rotation_check",
    "FlowState",
    "flow_run",
    "vanishing_beta_report",
    "check_assumptions",
    "extract_edge_branches",
    "scan_spectrum",
    "__version__",
]
