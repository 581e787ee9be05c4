"""Cylinder geometry and translation-invariant hopping Hamiltonians.

The lattice is periodic in the first direction and open in the second,
with Dirichlet rows at ``x2 = 0`` and ``x2 = L2 - 1`` kept in place as
exact zero rows of every operator.  A Hamiltonian is stored as a sparse
collection of ``M x M`` hopping blocks ``H(z1; x2, y2)`` (amplitude for a
hop from column ``y2`` to column ``x2`` with ring displacement ``z1``),
and its Bloch fibers ``H(k1) = sum_z1 exp(-i k1 z1) H(z1)`` are assembled
densely for any real ``k1``.

A fiber is one contraction of the phases with the model's stack of dense
``H(z1)`` slabs, one per stored ring displacement.  The stack is built at
the model's first read, once the blocks, the model's own read-only
copies, pass the check for finite entries and Hermiticity; from then on
:meth:`add_block` refuses every block, so nothing is dropped or rebuilt.
The bond currents read their blocks off the same stack, so every vertex
passes the same check.

Each built-in model adds one complete block per key, its terms already
summed, with the keys in their first-appearance order: one
:meth:`~LatticeHamiltonian.add_block` call per key, and none for a
:func:`stacked_shifted` stack, which places its copies' blocks with array
assignments.  The check, the slab stack and the split into summands at
the first read are array operations on the stacked ``(n, M, M)`` blocks.

A model whose internal indices fall into classes that no block couples
is a direct sum: :meth:`LatticeHamiltonian.summands` finds the classes
from the blocks' sparsity pattern, with the stack, and gives each its own
sub-model, fixed from birth on a stack cut from the whole one, so that
callers can diagonalize and contract one summand at a time.  A connected
model is its own only summand.

Each summand holds the fiber grids that
:func:`edgeflow.response.fiber_cache` has read of it, each whole and keyed
by its size ``n_k``, and kept for the summand's life: ``fiber_cache``
returns one such grid per summand, and they are the only fibers that the
responses and scans of the model read.  They hold no reference back to
the model.  A direct sum holds no grid of its own.

Each summand also gets its inversion mirror at the first read, if it has
one: a permutation ``P`` of its fiber index with ``H(-z1) = P H(z1) P^T``
for every stored ``z1``, bitwise (:func:`_inversion`), so that ``H(-k1)
= P H(k1) P^T`` at every ``k1``.  Its fiber at ``-k1`` then follows from
the one at ``k1`` with no ``eigh`` (:func:`edgeflow.response.fiber_cache`).

Indexing convention for fiber matrices: row index ``x2 * M + rho``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

__all__ = [
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
]


# largest Euclidean bond length hypot(z1, x2 - y2) of a block; the bond
# currents of edgeflow.response need z1 and x2 - y2 in {-1, 0, 1}
_HOP_RANGE = math.sqrt(2.0)


class HermiticityError(ValueError):
    """A pair of hopping blocks violates H(z1; x2, y2) = H(-z1; y2, x2)^dag."""


@dataclass(frozen=True)
class CylinderGeometry:
    """Finite cylinder: ``L1`` sites around (periodic), ``L2`` across
    (Dirichlet), ``M`` internal degrees of freedom per site."""

    L1: int
    L2: int
    M: int = 1

    def __post_init__(self):
        if self.L1 < 4 or self.L2 < 4 or self.M < 1:
            raise ValueError("need L1 >= 4, L2 >= 4, M >= 1")

    @property
    def fiber_dim(self):
        return self.L2 * self.M


class LatticeHamiltonian:
    """Finite-range hopping Hamiltonian on a cylinder: :meth:`add_block`
    rejects blocks with ``hypot(z1, x2 - y2) > sqrt(2)``, and every block
    once the model has been read."""

    def __init__(self, geometry):
        self.geometry = geometry
        self._blocks = {}
        self._slabs = None  # (z1s, slabs), built at the first read
        self._summands = None
        self._mirror = None  # fiber index permutation of _inversion, found at the first read
        self._grids = {}  # n_k -> tuple of FiberBasis of a summand, filled by response.fiber_cache

    def add_block(self, z1, x2, y2, block, accumulate=True):
        if self._slabs is not None:
            raise ValueError(f"block at {(z1, x2, y2)}: the model was already read and is fixed")
        try:
            key = z1, x2, y2 = operator.index(z1), operator.index(x2), operator.index(y2)
        except TypeError:
            raise ValueError(f"block at {(z1, x2, y2)}: indices must be integers") from None
        g = self.geometry
        block = np.array(block, dtype=complex)  # a copy, so the caller's array stays theirs
        if block.shape != (g.M, g.M):
            raise ValueError(f"block at {key} must be {g.M}x{g.M}")
        if not (0 <= x2 < g.L2 and 0 <= y2 < g.L2):
            raise ValueError(f"column indices out of range at {key}")
        if math.hypot(z1, x2 - y2) > _HOP_RANGE + 1e-12:
            raise ValueError(f"block at {key} exceeds hopping range {_HOP_RANGE}")
        if x2 in (0, g.L2 - 1) or y2 in (0, g.L2 - 1):
            if np.count_nonzero(block):
                raise ValueError("Dirichlet rows must carry zero blocks")
            return
        if accumulate and key in self._blocks:
            block = self._blocks[key] + block
        if np.count_nonzero(block):  # a Python int; far cheaper than .any() on a small block
            block.flags.writeable = False
            self._blocks[key] = block
        else:
            self._blocks.pop(key, None)

    def block(self, z1, x2, y2):
        g = self.geometry
        out = self._blocks.get((z1, x2, y2))
        if out is None:
            return np.zeros((g.M, g.M), dtype=complex)
        return out

    def items(self):
        return self._blocks.items()

    def _block_array(self):
        """The stored blocks in block order, shape ``(n, M, M)``."""
        return np.reshape(list(self._blocks.values()), (-1, self.geometry.M, self.geometry.M))

    def _slab_stack(self):
        """Ring displacements ``z1s`` and dense slabs ``slabs[i] = H(z1s[i])``
        of shape ``(len(z1s), L2 M, L2 M)``, one per stored ``z1``.

        The ``z1s`` are in the order they first appear among the blocks.
        Each built-in model adds one complete block per key, with the keys in
        their first-appearance order, so each fiber entry's blocks come in
        the order of the ``z1s``: summing the phased slabs in turn, as
        :func:`assemble_fiber` does, rounds exactly as summing the phased
        blocks in turn.  Fermi velocities, finite differences of fiber
        energies, show any change in the last bit.  The slabs are filled
        from the stacked blocks with one indexed assignment.

        Built at the model's first read, after :meth:`check_hermitian`
        passes, with :meth:`summands` and each summand's mirror
        (:func:`_inversion`); all are kept for the model's life.
        """
        if self._slabs is None:
            self.check_hermitian()
            g = self.geometry
            blocks = self._block_array()
            z1s = list(dict.fromkeys(z1 for z1, _, _ in self._blocks))
            at = dict(zip(z1s, range(len(z1s))))
            slab, x2, y2 = np.array([(at[z1], x2, y2) for z1, x2, y2 in self._blocks], dtype=int).reshape(-1, 3).T
            slabs = np.zeros((len(z1s), g.L2, g.M, g.L2, g.M), dtype=complex)
            slabs[slab, x2, :, y2, :] = blocks
            stack = (np.array(z1s, dtype=float), slabs.reshape(-1, g.fiber_dim, g.fiber_dim))
            self._summands = self._split(blocks, *stack)
            if not self._summands:
                self._mirror = _inversion(g, *stack)
            self._slabs = stack
        return self._slabs

    def summands(self):
        """The model as a direct sum: ``[(indices, sub), ...]``, one pair per
        class of internal indices that the stored blocks couple, in the order
        of their smallest index.

        ``indices`` is the class, ascending, and ``sub`` the model on
        ``M = len(indices)`` internal indices whose blocks are the class's
        rows and columns of this model's blocks.  Two classes share no
        nonzero block entry, so the fiber is block diagonal in them, and
        every eigenvector of a sub-model's fiber, placed on its class, is one
        of the whole fiber.  A connected model gives ``[(arange(M), self)]``.

        Built with :meth:`_slab_stack` at the first read.  Each ``sub`` is
        born fixed, on its class's cut of this model's slab stack, and is
        not checked again: its blocks are restrictions of checked blocks.
        """
        self._slab_stack()
        # a connected model caches no parts, which keeps it free of a cycle to itself
        return self._summands or [(np.arange(self.geometry.M), self)]

    def _split(self, blocks, z1s, slabs):
        g = self.geometry
        linked = np.eye(g.M, dtype=bool) | np.any(blocks != 0.0, axis=0)
        linked |= linked.T
        for _ in range(g.M.bit_length()):  # each squaring doubles the path length
            linked = linked @ linked
        classes = sorted({tuple(np.flatnonzero(row)) for row in linked})
        if len(classes) == 1:
            return []
        out = []
        for cls in classes:
            idx = np.array(cls)
            sub = LatticeHamiltonian(CylinderGeometry(g.L1, g.L2, idx.size))
            # one index cuts the class out of the (n, M, M) array of stored blocks
            parts = blocks[:, idx[:, None], idx]
            parts.flags.writeable = False
            sub._blocks = dict(compress(zip(self._blocks, parts), parts.any(axis=(1, 2))))
            # and one out of the slabs, on the fiber rows x2 M + idx, less all-zero slabs
            rows = (g.M * np.arange(g.L2)[:, None] + idx).ravel()
            cut = slabs[:, rows[:, None], rows]
            own = np.any(cut, axis=(1, 2))
            sub._slabs, sub._summands = (z1s[own], cut[own]), []
            sub._mirror = _inversion(sub.geometry, *sub._slabs)
            out.append((idx, sub))
        return out

    def check_hermitian(self):
        """Refuse blocks with a non-finite entry, then blocks that are not
        Hermitian partners, in that order.

        NaN passes every comparison, so a block with a NaN or infinite entry
        is refused first: ``ValueError`` names the first such block in block
        order.  Then each block ``H(z1; x2, y2)`` is compared with
        ``H(-z1; y2, x2)^dag``, a zero block when the partner is not stored:
        the first block in block order whose largest entry gap exceeds
        ``1e-12`` times the largest entry of any block raises
        :class:`HermiticityError`, naming its key and its partner's.
        """
        keys, blocks = list(self._blocks), self._block_array()
        peaks = np.abs(blocks).max(axis=(1, 2))
        bad = np.flatnonzero(~np.isfinite(peaks))
        if bad.size:
            raise ValueError(f"block at (z1,x2,y2)={keys[bad[0]]} has a non-finite entry")
        at = dict(zip(keys, range(len(keys))))
        partner = [at.get((-z1, y2, x2), len(keys)) for z1, x2, y2 in keys]  # past the end: zero
        mates = np.concatenate([blocks, np.zeros((1,) + blocks.shape[1:])])[partner]
        gaps = np.abs(blocks - mates.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        bad = np.flatnonzero(gaps > 1e-12 * peaks.max(initial=0.0))
        if bad.size:
            z1, x2, y2 = keys[bad[0]]
            raise HermiticityError(
                f"blocks at (z1,x2,y2)={(z1, x2, y2)} and {(-z1, y2, x2)} "
                "are not Hermitian partners"
            )


def _inversion(geometry, z1s, slabs):
    """The inversion mirror of a slab stack: a permutation ``perm`` of the
    fiber index with ``slabs[-z1] == slabs[z1][perm][:, perm]``, bitwise, for
    every stored ``z1``, or None.

    Two candidates are tried, the whole fiber index reversed (rows and
    internal indices, as the Haldane model's row reversal times sublattice
    swap) and the rows reversed with the internal indices kept; a ``z1``
    whose ``-z1`` is not stored has none.  With such a ``perm``, ``H(-k1)
    = H(k1)[perm][:, perm]``, so the eigenvectors at ``-k1`` are those at
    ``k1`` with their rows permuted, and the energies are the same.
    """
    index = np.arange(geometry.fiber_dim).reshape(geometry.L2, geometry.M)[::-1]
    at = {z1: i for i, z1 in enumerate(z1s)}
    for perm in (index[:, ::-1].ravel(), index.ravel()):
        if all(-z1 in at and np.array_equal(slabs[at[-z1]], slab[perm][:, perm]) for z1, slab in zip(z1s, slabs)):
            return perm
    return None


def assemble_fiber(ham: LatticeHamiltonian, k1: float) -> np.ndarray:
    """Dense Bloch fiber ``sum_z1 exp(-i k1 z1) H(z1)`` at any real k1.

    The phase convention is the wavefunction one: ``exp(+i k1 x1) xi(x2)``
    is an eigenfunction of the full Hamiltonian iff ``xi`` is an
    eigenvector of the fiber, so the dispersion slope is the physical
    propagation velocity.

    The fiber is one contraction of the phases with the model's stack of
    ``H(z1)`` slabs.  Raises :class:`HermiticityError`, naming the violating
    pair, when the blocks are not Hermitian partners; the check runs when
    the stack is built, so once per model.
    """
    z1s, slabs = ham._slab_stack()
    out = np.zeros(slabs.shape[1:], dtype=complex)
    for phase, slab in zip(np.exp(-1j * k1 * z1s), slabs):
        out += phase * slab
    return out


def row_weights(geometry, vecs):
    """|psi|^2 per row ``x2`` of a fiber vector, shape ``(L2,)``, or of each
    column of an ``(L2 M, s)`` matrix of them, shape ``(L2, s)``."""
    v = np.asarray(vecs)
    return np.sum(np.abs(v.reshape(geometry.L2, geometry.M, *v.shape[1:])) ** 2, axis=1)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def chain_cylinder(geometry, t=1.0):
    """Decoupled rings: hopping -t along the periodic direction only."""
    ham = LatticeHamiltonian(geometry)
    eye = -t * np.eye(geometry.M)
    for x2 in range(1, geometry.L2 - 1):
        ham.add_block(1, x2, x2, eye)
        ham.add_block(-1, x2, x2, eye)
    return ham


def haldane_cylinder(geometry=None, t1=1.0, t2=0.2, phi=np.pi / 2, m_stag=0.0, L1=16, L2=16):
    """Honeycomb Chern-insulator model on the cylinder, zigzag edges.

    The honeycomb lattice is embedded as a square Bravais lattice with an
    ``M = 2`` sublattice index; nearest-neighbour bonds carry ``-t1``, the
    six next-nearest bonds carry ``t2 e^{+-i phi}`` with alternating signs
    around the hexagon, and ``m_stag`` is the staggered sublattice mass.
    The bulk gap closes at ``|m_stag| = 3 sqrt(3) |t2 sin phi|``.
    """
    if geometry is None:
        geometry = CylinderGeometry(L1=L1, L2=L2, M=2)
    if geometry.M != 2:
        raise ValueError("Haldane model needs M = 2")
    ham = LatticeHamiltonian(geometry)
    # orientation fixed so that at phi = +pi/2 the lower-edge mode crossing
    # a mid-gap chemical potential propagates with positive velocity
    up, dn = np.exp(-1j * phi), np.exp(1j * phi)
    nn0 = np.zeros((2, 2), dtype=complex)
    nn0[1, 0] = nn0[0, 1] = -t1
    diag = np.diag([t2 * up, t2 * dn])
    blk_up = np.zeros((2, 2), dtype=complex)
    blk_up[0, 0] = t2 * dn  # A hop along +a2
    blk_up[1, 1] = t2 * up
    nn_up = np.zeros((2, 2), dtype=complex)
    nn_up[1, 0] = -t1  # A(c) - B(c - a2)
    skew = np.diag([t2 * dn, t2 * up])  # A hop along +(a1 - a2)
    nn1 = np.zeros((2, 2), dtype=complex)
    nn1[1, 0] = -t1  # A(c) - B(c - a1)
    # The blocks of row y2 by (z1, x2 - y2, y2' - y2), the same for every row.
    # The terms are summed in this order, which sets the rounding, and a key
    # takes the place of its first nonzero term; the two terms of one key
    # fill disjoint entries, so no sum of nonzero terms is 0.
    row = {}
    for key, term in (
        ((0, 0, 0), nn0 + np.diag([m_stag, -m_stag])),
        ((1, 0, 0), diag),
        ((-1, 0, 0), diag.conj()),
        ((0, 1, 0), blk_up),
        ((0, 0, 1), blk_up.conj().T),
        ((0, 0, 1), nn_up),
        ((0, 1, 0), nn_up.conj().T),
        ((1, 0, 1), skew),
        ((-1, 1, 0), skew.conj()),
        ((-1, 0, 0), nn1),
        ((1, 0, 0), nn1.conj().T),
    ):
        if key in row:
            term = row[key] + term
        if term.any():
            row[key] = term
    last = geometry.L2 - 2  # the last interior row has no bond to the row above
    for y2 in range(1, last + 1):
        for (z1, dx2, dy2), blk in row.items():
            if y2 + dx2 + dy2 <= last:
                ham.add_block(z1, y2 + dx2, y2 + dy2, blk)
    return ham


def hofstadter_cylinder(geometry=None, p=1, q=3, t=1.0, L1=16, L2=16):
    """Square-lattice model with rational flux p/q per plaquette.

    Landau gauge with the vector potential along the ring direction:
    ring hoppings carry phases ``exp(+-2 pi i (p/q) x2)``, so translation
    invariance along the ring is exact and the flux enters the fiber as
    column-dependent phases.
    """
    from math import gcd

    if q < 2:
        raise ValueError("need q >= 2")
    if gcd(p, q) != 1:
        raise ValueError(f"flux fraction {p}/{q} must be in lowest terms")
    if geometry is None:
        geometry = CylinderGeometry(L1=L1, L2=L2, M=1)
    if geometry.M != 1:
        raise ValueError("Hofstadter model needs M = 1")
    if geometry.L1 % q:
        raise ValueError("L1 must be a multiple of q for a single magnetic cell")
    ham = LatticeHamiltonian(geometry)
    phase = np.exp(2j * np.pi * p / q * np.arange(geometry.L2)).reshape(-1, 1, 1)
    ring, back, hop = -t * phase, -t * np.conj(phase), np.full((1, 1), -t, dtype=complex)
    interior = range(1, geometry.L2 - 1)
    for x2 in interior:
        ham.add_block(1, x2, x2, ring[x2])
        ham.add_block(-1, x2, x2, back[x2])
        if x2 + 1 in interior:
            ham.add_block(0, x2 + 1, x2, hop)
            ham.add_block(0, x2, x2 + 1, hop)
    return ham


def stacked_shifted(base, shifts):
    """Direct sum of energy-shifted copies of one or several models.

    ``base`` is a single :class:`LatticeHamiltonian` (duplicated) or a
    sequence matched with ``shifts``.  Internal indices of the copies are
    interleaved into an ``M = sum M_i`` model on the same cylinder.

    Written in one pass: each copy's blocks, its shift added on the interior
    diagonal, go onto its own indices.  Keys keep their first appearance over
    the copies, and a block that the shift makes exactly 0 is dropped.
    """
    shifts = list(shifts)
    if not shifts:
        raise ValueError("need at least one shift")
    if isinstance(base, LatticeHamiltonian):
        parts = [base] * len(shifts)
    else:
        parts = list(base)
        if len(parts) != len(shifts):
            raise ValueError("one shift per stacked model required")
    g0 = parts[0].geometry
    if any(p.geometry.L1 != g0.L1 or p.geometry.L2 != g0.L2 for p in parts):
        raise ValueError("stacked models must share the cylinder")
    m_tot = sum(p.geometry.M for p in parts)
    ham = LatticeHamiltonian(CylinderGeometry(g0.L1, g0.L2, m_tot))
    diag = [(0, x2, x2) for x2 in range(1, g0.L2 - 1)]
    rows, placed, offset = {}, [], 0  # rows: stack key -> its block's index
    for part, energy in zip(parts, shifts):
        m, own = part.geometry.M, list(dict.fromkeys([*part._blocks, *diag]))
        blocks = np.zeros((len(own), m, m), dtype=complex)
        blocks[: len(part._blocks)] = part._block_array()
        at = dict(zip(own, range(len(own))))
        blocks[[at[key] for key in diag]] += energy * np.eye(m)
        kept = blocks.any(axis=(1, 2))
        where = [rows.setdefault(key, len(rows)) for key in compress(own, kept)]
        placed.append((where, slice(offset, offset + m), blocks[kept]))
        offset += m
    stack = np.zeros((len(rows), m_tot, m_tot), dtype=complex)
    for where, cols, blocks in placed:
        stack[where, cols, cols] = blocks
    stack.flags.writeable = False
    ham._blocks = dict(zip(rows, stack))
    return ham


# The model kinds that build_model knows, with their constructors' keyword
# parameters; a stack of Haldane copies also takes STACK_KEYS.
MODEL_PARAMS = {
    "haldane": ("t1", "t2", "phi", "m_stag"),
    "hofstadter": ("p", "q", "t"),
    "stacked-haldane": ("t1", "t2", "phi", "m_stag"),
}
STACK_KEYS = ("shifts", "flips")


def _flags(text):
    words = [w.strip() for w in text.split(",") if w.strip()]
    if set(words) - {"0", "1"}:
        raise ValueError(f"flips must be 0 or 1 per copy, got {text!r}")
    return [w == "1" for w in words]


def finite_float(text):
    """``float(text)``, refusing NaN and infinities; the parser of every
    float flag and model-file number."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _floats(text):
    return [finite_float(s) for s in text.split(",")]


_CONVERT = {"p": int, "q": int, "shifts": _floats, "flips": _flags}


def _reject_unknown(what, keys, known):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ValueError(f"unknown {what}: {', '.join(unknown)} (known: {', '.join(known)})")


def build_model(kind, L1, L2, **params):
    """Build the model kind ``kind`` on an ``L1 x L2`` cylinder.

    ``params`` are the kind's keys in :data:`MODEL_PARAMS`, as numbers or as
    config-file strings; a key left out takes the constructor's default.
    ``stacked-haldane`` stacks Haldane copies at the energy ``shifts``
    ("0.0,0.1,0.26" by default); ``flips`` ("0,1", ...), one per shift,
    reverses a copy's chirality by ``phi -> -phi``.  Unknown kinds and keys,
    values that do not convert (NaN and infinities too) and a ``flips`` count
    other than the shifts' raise ``ValueError``.
    """
    if kind not in MODEL_PARAMS:
        raise ValueError(f"unknown model type {kind!r}")
    known = MODEL_PARAMS[kind] + (STACK_KEYS if kind == "stacked-haldane" else ())
    _reject_unknown(f"{kind} parameters", params, known)
    kw = {}
    for k, v in params.items():
        try:
            kw[k] = _CONVERT.get(k, finite_float)(v)
        except ValueError as exc:
            raise ValueError(f"{k}: {exc}") from None
    if kind == "haldane":
        return haldane_cylinder(L1=L1, L2=L2, **kw)
    if kind == "hofstadter":
        return hofstadter_cylinder(L1=L1, L2=L2, **kw)
    shifts = kw.pop("shifts", [0.0, 0.1, 0.26])
    flips = kw.pop("flips", [False] * len(shifts))
    if len(flips) != len(shifts):
        raise ValueError(f"flips: need one 0 or 1 per shift, got {len(flips)} for {len(shifts)} shifts")
    phi = kw.pop("phi", np.pi / 2)
    bases = [haldane_cylinder(L1=L1, L2=L2, phi=-phi if flip else phi, **kw) for flip in flips]
    return stacked_shifted(bases, shifts)


def model_from_config(cfg):
    """Build a model from a parsed config mapping with [geometry]/[model]/[params].

    ``cfg`` is any mapping of section name to key-value mapping, e.g. a
    ``configparser.ConfigParser``.  [geometry] holds ``l1`` and ``l2``,
    [model] the ``type`` and, for a stack, :data:`STACK_KEYS`, and [params]
    the type's keys in :data:`MODEL_PARAMS`; everything goes to
    :func:`build_model`.  Unknown sections and keys raise ``ValueError``.
    """
    sections = {name: dict(cfg[name]) for name in cfg if name != "DEFAULT"}
    _reject_unknown("config sections", sections, ("geometry", "model", "params"))
    geo, model, params = sections["geometry"], sections["model"], sections.get("params", {})
    _reject_unknown("[geometry] keys", geo, ("l1", "l2"))
    _reject_unknown("[model] keys", model, ("type",) + STACK_KEYS)
    kind = model.pop("type").strip().lower()
    # an unknown type is reported by build_model
    _reject_unknown("[params] keys", params, MODEL_PARAMS.get(kind, tuple(params)))
    return build_model(kind, int(geo["l1"]), int(geo["l2"]), **model, **params)
