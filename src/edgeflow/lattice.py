"""Cylinder geometry and translation-invariant hopping Hamiltonians.

The lattice is periodic in the first direction and open in the second,
with Dirichlet rows at ``x2 = 0`` and ``x2 = L2 - 1`` kept in place as
exact zero rows of every operator.  A Hamiltonian is stored as a sparse
collection of ``M x M`` hopping blocks ``H(z1; x2, y2)`` (amplitude for a
hop from column ``y2`` to column ``x2`` with ring displacement ``z1``),
and its Bloch fibers ``H(k1) = sum_z1 exp(-i k1 z1) H(z1)`` are assembled
densely for any real ``k1``.

A fiber is one contraction of the phases with the model's cached stack of
dense ``H(z1)`` slabs, one per stored ring displacement.  The stack is
built on first use and dropped by every edit, and the blocks are checked
for Hermiticity when it is built: once per model and once after each
edit, not once per momentum.  The row table of the bond currents is
built after the stack, so vertices built from fibers computed elsewhere
are checked by the same cached check.

Indexing convention for fiber matrices: row index ``x2 * M + rho``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

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
    "dump_blocks",
    "load_blocks",
    "model_from_config",
]


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
    """Finite-range hopping Hamiltonian on a cylinder.

    Parameters
    ----------
    geometry : CylinderGeometry
    blocks : dict
        Mapping ``(z1, x2, y2) -> (M, M) complex array``.  Entries on the
        Dirichlet rows or beyond the range are rejected.
    hop_range : float
        Maximal Euclidean bond length D; blocks with
        ``hypot(z1, x2 - y2) > D`` are rejected at construction.
    """

    def __init__(self, geometry, blocks=None, hop_range=np.sqrt(2.0)):
        self.geometry = geometry
        self.hop_range = float(hop_range)
        self._blocks = {}
        self._table = None
        self._slabs = None
        self._slabs_lock = threading.Lock()
        if blocks:
            for key, blk in blocks.items():
                self.add_block(*key, blk)

    def add_block(self, z1, x2, y2, block, accumulate=True):
        g = self.geometry
        block = np.asarray(block, dtype=complex)
        if block.shape != (g.M, g.M):
            raise ValueError(f"block at {(z1, x2, y2)} must be {g.M}x{g.M}")
        if not (0 <= x2 < g.L2 and 0 <= y2 < g.L2):
            raise ValueError(f"column indices out of range at {(z1, x2, y2)}")
        if np.hypot(z1, x2 - y2) > self.hop_range + 1e-12:
            raise ValueError(
                f"block at {(z1, x2, y2)} exceeds hopping range {self.hop_range}"
            )
        if x2 in (0, g.L2 - 1) or y2 in (0, g.L2 - 1):
            if np.any(block != 0.0):
                raise ValueError("Dirichlet rows must carry zero blocks")
            return
        key = (int(z1), int(x2), int(y2))
        self._table = None
        self._slabs = None
        if accumulate and key in self._blocks:
            self._blocks[key] = self._blocks[key] + block
        else:
            self._blocks[key] = block
        if np.all(self._blocks[key] == 0.0):
            del self._blocks[key]

    def block(self, z1, x2, y2):
        g = self.geometry
        out = self._blocks.get((z1, x2, y2))
        if out is None:
            return np.zeros((g.M, g.M), dtype=complex)
        return out

    def items(self):
        return self._blocks.items()

    def _row_table(self):
        """All blocks as one array, ``table[z1 + 1, x2 - y2 + 1, x2] = H(z1; x2, y2)``,
        of shape ``(3, 3, L2, M, M)`` with zeros where no block is stored.

        Built on first use, after :meth:`_slab_stack` (and with it
        :meth:`check_hermitian`), and cached; :meth:`add_block` drops the
        cache.  Needs ``hop_range <= sqrt(2)``, which keeps ``z1`` and
        ``x2 - y2`` in ``{-1, 0, 1}``.
        """
        if self._table is None:
            if self.hop_range > np.sqrt(2.0) + 1e-12:
                raise ValueError("the row table (and the bond currents) need hop range <= sqrt(2)")
            self._slab_stack()
            g = self.geometry
            table = np.zeros((3, 3, g.L2, g.M, g.M), dtype=complex)
            for (z1, x2, y2), blk in self._blocks.items():
                table[z1 + 1, x2 - y2 + 1, x2] = blk
            self._table = table
        return self._table

    def _slab_stack(self):
        """Ring displacements ``z1s`` and dense slabs ``slabs[i] = H(z1s[i])``
        of shape ``(len(z1s), L2 M, L2 M)``, one per stored ``z1``.

        The ``z1s`` are in the order they first appear among the blocks.  The
        built-in models and loaded files add each fiber entry's blocks in
        that order, so summing the phased slabs in turn, as
        :func:`assemble_fiber` does, rounds exactly as summing the phased
        blocks in turn; Fermi velocities, finite differences of fiber
        energies, show any change in the last bit.

        Built on first use, after :meth:`check_hermitian` passes, and cached;
        :meth:`add_block` drops the cache.  A lock makes the first build
        happen once when fibers are assembled on a thread pool.
        """
        stack = self._slabs
        if stack is not None:
            return stack
        with self._slabs_lock:
            if self._slabs is None:
                self.check_hermitian()
                g = self.geometry
                z1s = list(dict.fromkeys(z1 for z1, _, _ in self._blocks))
                slabs = np.zeros((len(z1s), g.L2, g.M, g.L2, g.M), dtype=complex)
                for (z1, x2, y2), blk in self._blocks.items():
                    slabs[z1s.index(z1), x2, :, y2, :] = blk
                n = g.fiber_dim
                self._slabs = (np.array(z1s, dtype=float), slabs.reshape(-1, n, n))
            return self._slabs

    def check_hermitian(self):
        scale = max((np.max(np.abs(b)) for b in self._blocks.values()), default=1.0)
        for (z1, x2, y2), blk in self._blocks.items():
            partner = self._blocks.get((-z1, y2, x2))
            partner = (
                np.zeros_like(blk) if partner is None else partner
            )
            if np.max(np.abs(blk - partner.conj().T)) > 1e-12 * scale:
                raise HermiticityError(
                    f"blocks at (z1,x2,y2)={(z1, x2, y2)} and {(-z1, y2, x2)} "
                    "are not Hermitian partners"
                )

    def shifted(self, energy):
        """Copy with ``energy`` added on the diagonal of all interior sites."""
        g = self.geometry
        out = LatticeHamiltonian(g, hop_range=self.hop_range)
        for key, blk in self._blocks.items():
            out.add_block(*key, blk)
        eye = energy * np.eye(g.M)
        for x2 in range(1, g.L2 - 1):
            out.add_block(0, x2, x2, eye)
        return out


def assemble_fiber(ham: LatticeHamiltonian, k1: float) -> np.ndarray:
    """Dense Bloch fiber ``sum_z1 exp(-i k1 z1) H(z1)`` at any real k1.

    The phase convention is the wavefunction one: ``exp(+i k1 x1) xi(x2)``
    is an eigenfunction of the full Hamiltonian iff ``xi`` is an
    eigenvector of the fiber, so the dispersion slope is the physical
    propagation velocity.

    The fiber is one contraction of the phases with the model's cached
    stack of ``H(z1)`` slabs.  Raises :class:`HermiticityError`, naming the
    violating pair, when the blocks are not Hermitian partners; the check
    runs when the stack is built, so once per model and after each edit.
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
    interior = range(1, geometry.L2 - 1)
    for y2 in interior:
        nn0 = np.zeros((2, 2), dtype=complex)
        nn0[1, 0] = nn0[0, 1] = -t1
        diag = np.diag([t2 * up, t2 * dn])
        ham.add_block(0, y2, y2, nn0 + np.diag([m_stag, -m_stag]))
        ham.add_block(1, y2, y2, diag)
        ham.add_block(-1, y2, y2, diag.conj())
        if y2 + 1 in interior:
            blk_up = np.zeros((2, 2), dtype=complex)
            blk_up[0, 0] = t2 * dn  # A hop along +a2
            blk_up[1, 1] = t2 * up
            ham.add_block(0, y2 + 1, y2, blk_up)
            ham.add_block(0, y2, y2 + 1, blk_up.conj().T)
            nn_up = np.zeros((2, 2), dtype=complex)
            nn_up[1, 0] = -t1  # A(c) - B(c - a2)
            ham.add_block(0, y2, y2 + 1, nn_up)
            ham.add_block(0, y2 + 1, y2, nn_up.conj().T)
            skew = np.diag([t2 * dn, t2 * up])  # A hop along +(a1 - a2)
            ham.add_block(1, y2, y2 + 1, skew)
            ham.add_block(-1, y2 + 1, y2, skew.conj())
        nn1 = np.zeros((2, 2), dtype=complex)
        nn1[1, 0] = -t1  # A(c) - B(c - a1)
        ham.add_block(-1, y2, y2, nn1)
        ham.add_block(1, y2, y2, nn1.conj().T)
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
    interior = range(1, geometry.L2 - 1)
    for x2 in interior:
        phase = np.exp(2j * np.pi * p / q * x2)
        ham.add_block(1, x2, x2, [[-t * phase]])
        ham.add_block(-1, x2, x2, [[-t * np.conj(phase)]])
        if x2 + 1 in interior:
            ham.add_block(0, x2 + 1, x2, [[-t]])
            ham.add_block(0, x2, x2 + 1, [[-t]])
    return ham


def stacked_shifted(base, shifts):
    """Direct sum of energy-shifted copies of one or several models.

    ``base`` is a single :class:`LatticeHamiltonian` (duplicated) or a
    sequence matched with ``shifts``.  Internal indices of the copies are
    interleaved into an ``M = sum M_i`` model on the same cylinder.
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
    parts = [p.shifted(e) for p, e in zip(parts, shifts)]
    m_tot = sum(p.geometry.M for p in parts)
    geometry = CylinderGeometry(L1=g0.L1, L2=g0.L2, M=m_tot)
    ham = LatticeHamiltonian(geometry, hop_range=max(p.hop_range for p in parts))
    offset = 0
    for part in parts:
        m = part.geometry.M
        for (z1, x2, y2), blk in part.items():
            big = np.zeros((m_tot, m_tot), dtype=complex)
            big[offset : offset + m, offset : offset + m] = blk
            ham.add_block(z1, x2, y2, big)
        offset += m
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
    ("0.0,0.1,0.26" by default); ``flips`` ("0,1", ...) reverses a copy's
    chirality by ``phi -> -phi``.  Unknown kinds and keys, and values that
    do not convert (NaN and infinities too), raise ``ValueError``.
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
    flips = kw.pop("flips", None) or [False] * len(shifts)
    phi = kw.pop("phi", np.pi / 2)
    bases = [haldane_cylinder(L1=L1, L2=L2, phi=-phi if flip else phi, **kw) for flip in flips]
    return stacked_shifted(bases, shifts)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def dump_blocks(ham, path):
    """Write nonzero block entries: z1 x2 y2 rho rho' re im (one per line)."""
    g = ham.geometry
    with open(path, "w") as f:
        f.write(f"# cylinder L1={g.L1} L2={g.L2} M={g.M} range={ham.hop_range}\n")
        for (z1, x2, y2) in sorted(ham._blocks):
            blk = ham._blocks[(z1, x2, y2)]
            for r in range(g.M):
                for c in range(g.M):
                    if blk[r, c] != 0.0:
                        f.write(
                            f"{z1} {x2} {y2} {r} {c} "
                            f"{blk[r, c].real:.17g} {blk[r, c].imag:.17g}\n"
                        )


def load_blocks(path):
    """Inverse of :func:`dump_blocks`.

    Raises ``ValueError`` naming the file when the header is not exactly
    ``# cylinder L1=.. L2=.. M=.. range=..``.
    """
    with open(path) as f:
        header = f.readline().rstrip("\n")
        fields = [w.partition("=") for w in header.removeprefix("# cylinder ").split()]
        try:
            if not header.startswith("# cylinder ") or [k + eq for k, eq, _ in fields] != [
                "L1=", "L2=", "M=", "range="
            ]:
                raise ValueError("wrong fields")
            l1, l2, m = (int(v) for _, _, v in fields[:3])
            hop_range = float(fields[3][2])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed header {header!r} ({exc})") from None
        geometry = CylinderGeometry(l1, l2, m)
        ham = LatticeHamiltonian(geometry, hop_range=hop_range)
        for line in f:
            z1, x2, y2, r, c, re, im = line.split()
            blk = np.zeros((geometry.M, geometry.M), dtype=complex)
            blk[int(r), int(c)] = float(re) + 1j * float(im)
            ham.add_block(int(z1), int(x2), int(y2), blk)
    return ham


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
