"""Edge-mode spectroscopy, free-fermion linear response and chiral
reference-model checks for lattice quantum Hall cylinders.

The package exports only ``__version__``; import the layer you use
(``from edgeflow import lattice``).  Importing a layer loads only the
layers it calls:

- ``lattice``: lattice alone;
- ``response``: lattice and response; ``spectrum`` adds spectrum;
- ``reference``: cutoffs, quadrature and reference; ``rgflow`` adds rgflow.

``edgeflow.cli`` imports all six layers."""

__version__ = "0.1.0"
