"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of each
edgeflow module, the ``LatticeHamiltonian.block`` and ``check_hermitian``
methods and ``numpy.linalg.eigh``.  Every binding the code under test looks
up is replaced: the module attribute itself and each ``from .x import y``
copy of it in the importing modules.  Spans live in flat in-memory arrays
(name, parent, start, end) and are analysed after the pass.

Tracing assumes one thread: the span stack is shared, which is why the
benchmark pins ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "lattice", "spectrum", "response", "reference", "rgflow", "quadrature", "cutoffs")
METHODS = ("block", "check_hermitian")  # of lattice.LatticeHamiltonian
MODEL_CONSTRUCTORS = (
    "lattice.haldane_cylinder",
    "lattice.hofstadter_cylinder",
    "lattice.stacked_shifted",
    "lattice.chain_cylinder",
    "lattice.model_from_config",
)
CASE = "case"  # root span of one timed case; its self time is the uncovered remainder
SETUP = "setup"  # root span of the traced model build


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.enabled = False
        self.counters = defaultdict(float)
        self._pairs = set()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_case(self, fn, name=CASE):
        """Run ``fn`` traced, under a root span."""
        self._pairs.clear()
        self.enabled = True
        i = self._open(self._id(name))
        try:
            return fn()
        finally:
            self._close(i)
            self.enabled = False
            self.counters["response.vertex_pairs"] += len(self._pairs)

    def record(self, name, start, end, parent=-1):
        """Append a finished span (used by tests to build synthetic trees)."""
        i = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return i

    def wrap(self, name, fn, before=None, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _hooks(self, name, fn):
        """Work counters recorded at the layer boundary, keyed by span name."""
        c = self.counters

        def pair(t, args, kwargs, out):
            # one unordered fiber pair of one model per distinct vertex build
            a = inspect.signature(fn).bind(*args, **kwargs).arguments
            k, kp = a["basis_k"].k1, a["basis_kp"].k1
            t._pairs.add((id(a["ham"]), min(k, kp), max(k, kp)))

        def count_levels(t, args, kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            estimate = bound.arguments["estimate"]

            def counted(level):
                c["quadrature.refine_levels"] += 1
                return estimate(level)

            bound.arguments["estimate"] = counted
            return bound.args, bound.kwargs

        counted_outputs = {
            "spectrum.scan_spectrum": ("spectrum.states_kept", lambda out: out.state_count()),
            "spectrum.extract_edge_branches": ("spectrum.branches", len),
            "quadrature.polar_nodes": ("quadrature.nodes", lambda out: len(out[0])),
            "rgflow.flow_run": ("rgflow.scales", lambda out: len(out.betas)),
            "cli.write_report": ("cli.bytes_written", os.path.getsize),
            "cli.write_csv": ("cli.bytes_written", os.path.getsize),
        }
        after = pair if name == "response.build_vertices" else None
        if name in counted_outputs:
            key, amount = counted_outputs[name]

            def after(t, args, kwargs, out):
                c[key] += amount(out)

        before = count_levels if name == "quadrature.refine_until" else None
        return before, after

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {name: importlib.import_module(f"edgeflow.{name}") for name in LAYERS}
        wrapped = {}  # original function -> wrapper
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.wrap(name, fn, *self._hooks(name, fn))
        # rebind the module attributes and every `from .x import y` copy
        for mod in [importlib.import_module("edgeflow"), *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._patch(mod, attr, wrapped[val])
        cls = mods["lattice"].LatticeHamiltonian
        for meth in METHODS:
            self._patch(cls, meth, self.wrap(f"lattice.{meth}", getattr(cls, meth)))
        self._patch(np.linalg, "eigh", self.wrap("linalg.eigh", np.linalg.eigh))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def spans(self):
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start),
            np.array(self.end),
        )

    def save(self, path):
        name_id, parent, start, end = self.spans()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end
        )


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(parent, start, end):
    """Span duration minus the part of its interval covered by its children
    (the union of child intervals, so overlapping children count once)."""
    parent, start, end = (np.asarray(a).tolist() for a in (parent, start, end))
    covered = [0.0] * len(parent)
    reach = [float("-inf")] * len(parent)
    for i in sorted(range(len(parent)), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        s, e = start[i], end[i]
        if s >= reach[p]:
            covered[p] += e - s
            reach[p] = e
        elif e > reach[p]:
            covered[p] += e - reach[p]
            reach[p] = e
    return np.subtract(end, start) - np.array(covered)


def analyse(tracer):
    """Per-layer metrics of the spans recorded so far.

    Returns ``(metrics, residual)``: ``residual`` is the largest gap, over
    the case root spans, between a case's duration and the sum of the self
    times in its tree (zero up to rounding when every span nested).
    """
    names = tracer.names
    name_id, parent, start, end = tracer.spans()
    dur = end - start
    own = self_times(parent, start, end)
    ids = {n: i for i, n in enumerate(names)}
    fp, eigh = ids.get("spectrum.fermi_point", -2), ids.get("linalg.eigh", -2)
    constructors = {ids[b] for b in MODEL_CONSTRUCTORS if b in ids}

    # root, "under a fermi_point span" and "under a model constructor" per span;
    # parents always precede their children in recording order
    n = len(name_id)
    root, in_fp, in_build = list(range(n)), [False] * n, [False] * n
    nid = name_id.tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            root[i] = root[p]
            in_fp[i] = in_fp[p] or nid[p] == fp
            in_build[i] = in_build[p] or nid[p] in constructors
    root, in_fp, in_build = np.array(root, dtype=np.int64), np.array(in_fp), np.array(in_build)

    # function and layer figures cover the cases; the traced set-up build
    # counts only in lattice.model_build.s
    is_case = name_id == ids.get(CASE, -2)
    in_case = is_case[root]
    ncase = name_id[in_case]
    calls = np.bincount(ncase, minlength=len(names))
    total = np.bincount(ncase, weights=dur[in_case], minlength=len(names))
    selft = np.bincount(ncase, weights=own[in_case], minlength=len(names))

    def stat(name, kind):
        i = ids.get(name)
        if i is None:
            return 0.0
        return float({"calls": calls, "s": total, "self_s": selft}[kind][i])

    c = tracer.counters
    m = {f"{fn}.{k}": stat(fn, k) for fn, ks in _TIMED for k in ks}
    for layer in LAYERS + ("linalg",):
        m[f"{layer}.self_s"] = float(
            sum(selft[i] for i, nm in enumerate(names) if nm.startswith(layer + "."))
        )
    m["trace.wall_s"] = float(dur[is_case].sum())
    m["trace.uncovered_s"] = float(own[is_case].sum())
    builds = np.isin(name_id, list(constructors)) & ~in_build
    m["lattice.model_build.s"] = float(dur[builds].sum())
    m["spectrum.bisection_eigh"] = float(np.sum((name_id == eigh) & in_fp))
    m["response.vertex_pair_reuse"] = c["response.vertex_pairs"] / max(
        stat("response.build_vertices", "calls"), 1.0
    )
    m["rgflow.scale_s"] = stat("rgflow.flow_run", "s") / max(c["rgflow.scales"], 1.0)
    for key in ("spectrum.states_kept", "spectrum.branches", "quadrature.nodes",
                "quadrature.refine_levels", "cli.bytes_written"):
        m[key] = float(c[key])

    per_root = np.bincount(root, weights=own, minlength=n)
    residual = float(np.max(np.abs(per_root[is_case] - dur[is_case]), initial=0.0))
    return m, residual


_TIMED = [
    ("response.build_vertices", ("calls", "s")),
    ("response.current_current", ("calls", "s", "self_s")),
    ("response.fiber_cache", ("calls",)),
    ("response.diagonalize_fiber", ("calls",)),
    ("response.edge_conductance_free", ("s",)),
    ("response.ward_sum_rule", ("s",)),
    ("response.vertex_ward_residual", ("s",)),
    ("response.wrong_order_diagnostic", ("s",)),
    ("response.wick_rotation_check", ("s",)),
    ("lattice.block", ("calls",)),
    ("lattice.assemble_fiber", ("calls", "s", "self_s")),
    ("lattice.check_hermitian", ("calls", "s")),
    ("linalg.eigh", ("calls", "s")),
    ("spectrum.scan_spectrum", ("calls", "s", "self_s")),
    ("spectrum.extract_edge_branches", ("s", "self_s")),
    ("spectrum.fermi_point", ("calls", "s")),
    ("quadrature.polar_nodes", ("calls", "s")),
    ("quadrature.refine_until", ("calls",)),
    ("cutoffs.band_cutoff", ("calls", "s")),
    ("cutoffs.shell", ("calls", "s")),
    ("reference.edge_conductance", ("calls", "s")),
    ("reference.bubble_regularized", ("calls", "s")),
    ("rgflow.flow_run", ("s",)),
    ("rgflow.beta_second_order", ("calls", "s")),
    ("cli.write_report", ("s",)),
    ("cli.write_csv", ("s",)),
]

# (name, unit) of every metric the traced run reports, in BENCHMARK.json order
PER_LAYER = (
    [(f"{fn}.{k}", "count" if k == "calls" else "s") for fn, ks in _TIMED for k in ks]
    + [
        ("response.vertex_pair_reuse", "ratio"),
        ("spectrum.states_kept", "count"),
        ("spectrum.branches", "count"),
        ("spectrum.bisection_eigh", "count"),
        ("quadrature.nodes", "count"),
        ("quadrature.refine_levels", "count"),
        ("rgflow.scale_s", "s"),
        ("lattice.model_build.s", "s"),
        ("cli.bytes_written", "bytes"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS + ("linalg",)]
    + [
        ("trace.wall_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.overhead_s", "s"),
        ("proc.cpu_s", "s"),
        ("proc.cal_s", "s"),
    ]
)
