"""Exhaustive Wick-contraction oracle on a finite momentum grid.

Computes connected correlation functions of the quartic-coupled chiral
model order by order in the coupling, by brute-force enumeration of all
Grassmann pairings with exact sign bookkeeping and exact grid momentum
conservation.  This is the authority the one-loop diagrams must match:
``edgeflow.rgflow.sunset`` and the grid contractions of
``grid_diagrams.py``.

Momenta are tracked in half-units of 2 pi / box so that fermionic
(antiperiodic, odd half-index) and transfer (periodic, even) grids mix
exactly; all index arithmetic is modulo 2 * cells.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

FERMI, BOSE = 1, 0


class Expr:
    """Integer linear combination of grid symbols, in half-units."""

    def __init__(self, coeffs=None):
        self.coeffs = dict(coeffs or {})

    def __add__(self, other):
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
            if out[s] == 0:
                del out[s]
        return Expr(out)

    def __sub__(self, other):
        return self + other * (-1)

    def __mul__(self, scalar):
        return Expr({s: c * scalar for s, c in self.coeffs.items()})

    def subs(self, sym, replacement):
        if sym not in self.coeffs:
            return self
        c = self.coeffs[sym]
        rest = Expr({s: v for s, v in self.coeffs.items() if s != sym})
        return rest + replacement * c


def sym(name):
    return Expr({name: 1})


class Field:
    __slots__ = ("eps", "channel", "mom", "vertex")

    def __init__(self, eps, channel, mom, vertex):
        self.eps = eps  # +1 creation, -1 annihilation
        self.channel = channel  # symbolic channel tag
        self.mom = mom
        self.vertex = vertex  # 'x', 'V1' or 'V2'


def _pairings(fields):
    minus = [i for i, f in enumerate(fields) if f.eps < 0]
    plus = [i for i, f in enumerate(fields) if f.eps > 0]
    for perm in permutations(plus):
        pairs = list(zip(minus, perm))
        flat = [p for pair in sorted(pairs) for p in pair]
        inv = sum(
            1 for i in range(len(flat)) for j in range(i + 1, len(flat)) if flat[i] > flat[j]
        )
        yield pairs, -1 if inv % 2 else 1


def _connected(pairs, fields, vertices):
    adj = {v: set() for v in vertices}
    for i, j in pairs:
        a, b = fields[i].vertex, fields[j].vertex
        adj[a].add(b)
        adj[b].add(a)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(vertices)


class GridModel:
    """Channels with odd lattice propagators on a cells x cells grid."""

    def __init__(self, cells, box, v, z, lam):
        self.cells = cells
        self.box = box
        self.v = np.asarray(v, dtype=float)
        self.z = np.asarray(z, dtype=float)
        self.lam = np.asarray(lam, dtype=float)
        a = box / cells
        ks = 2.0 * np.pi / box * (np.arange(cells) + 0.5)
        s = np.sin(a * ks) / a
        self.g = [
            1.0 / (zc * (-1j * s[:, None] + vc * s[None, :]))
            for vc, zc in zip(self.v, self.z)
        ]

    def n_channels(self):
        return len(self.v)


def _half_index_arrays(expr, fixed_half, free_syms, mesh, parities):
    """Per-component half-index arrays of a momentum expression."""
    out0 = np.zeros(mesh[free_syms[0]][0].shape if free_syms else (), dtype=int)
    out1 = np.zeros_like(out0)
    for s, c in expr.coeffs.items():
        if s in fixed_half:
            out0 = out0 + c * fixed_half[s][0]
            out1 = out1 + c * fixed_half[s][1]
        else:
            m0, m1 = mesh[s]
            out0 = out0 + c * (2 * m0 + parities[s])
            out1 = out1 + c * (2 * m1 + parities[s])
    return out0, out1


def _lookup_g(model, channel_idx, h0, h1):
    if np.any(h0 % 2 == 0) or np.any(h1 % 2 == 0):
        raise AssertionError("propagator looked up at a non-fermionic momentum")
    cells = model.cells
    i = ((h0 - 1) // 2) % cells
    j = ((h1 - 1) // 2) % cells
    return model.g[channel_idx][i, j]


def _interaction_fields(tag, psym, q_a, q_b, ch_a, ch_b):
    # n_{p, a} n_{-p, b} = [psi+_{qa - p} psi-_{qa}] [psi+_{qb + p} psi-_{qb}]
    return [
        Field(+1, ch_a, sym(q_a) - sym(psym), tag),
        Field(-1, ch_a, sym(q_a), tag),
        Field(+1, ch_b, sym(q_b) + sym(psym), tag),
        Field(-1, ch_b, sym(q_b), tag),
    ]


def _solve_constraints(pairs, fields, fixed_half, cells):
    """Substitution map solving the pairwise momentum deltas.

    Constraints that reduce to fixed external symbols are evaluated
    numerically modulo the reciprocal grid (2 * cells half-units); a
    nonzero value means the pairing violates momentum conservation and
    contributes nothing.
    """
    subs = {}
    remaining = []
    for i, j in pairs:
        remaining.append(fields[i].mom - fields[j].mom)
    free_pref = ["q1", "q2", "q3", "q4", "p", "pp"]
    period = 2 * cells
    for _ in range(len(remaining)):
        progressed = False
        for idx, con in enumerate(remaining):
            con2 = con
            for s, rep in subs.items():
                con2 = con2.subs(s, rep)
            coeffs = {s: c for s, c in con2.coeffs.items() if s in free_pref and s not in subs}
            pivot = next((s for s in free_pref if coeffs.get(s, 0) in (1, -1)), None)
            if pivot is None:
                if not coeffs:
                    # only fixed externals left: redundant or violating
                    val0 = sum(c * fixed_half[s][0] for s, c in con2.coeffs.items())
                    val1 = sum(c * fixed_half[s][1] for s, c in con2.coeffs.items())
                    if val0 % period or val1 % period:
                        return None, False
                    remaining.pop(idx)
                    progressed = True
                    break
                continue
            c = coeffs[pivot]
            rest = Expr({s: v for s, v in con2.coeffs.items() if s != pivot})
            subs[pivot] = rest if c == -1 else rest * -1
            remaining.pop(idx)
            progressed = True
            break
        if not progressed and remaining:
            raise AssertionError("no unit pivot found in momentum constraints")
    # close substitutions transitively
    for _ in range(len(subs)):
        subs = {s: _subs_all(e, subs) for s, e in subs.items()}
    return subs, True


def _subs_all(expr, subs):
    out = expr
    for s, rep in subs.items():
        if s in out.coeffs:
            out = out.subs(s, rep)
    return out


def connected_correlator(model, external_fields, order, k_half, vhat=None):
    """Connected expectation of the external monomial with ``order``
    interaction insertions (0, 1 or 2), divided by cells^2 per external
    pair.

    ``k_half`` maps fixed symbol names to half-index pairs.  Channel tags
    of external fields are integers; vertex channel tags are summed over.
    """
    cells = model.cells
    n_ch = model.n_channels()
    parities = {"q1": FERMI, "q2": FERMI, "q3": FERMI, "q4": FERMI, "p": BOSE, "pp": BOSE}

    vertex_sets = []
    if order >= 1:
        vertex_sets.append(("V1", "p", "q1", "q2", "w1", "w2"))
    if order >= 2:
        vertex_sets.append(("V2", "pp", "q3", "q4", "w3", "w4"))

    total = 0.0 + 0.0j
    channel_tags = [t for (_, _, _, _, a, b) in vertex_sets for t in (a, b)]

    def channel_iter():
        if not channel_tags:
            yield {}
            return
        for combo in np.ndindex(*(n_ch,) * len(channel_tags)):
            yield dict(zip(channel_tags, combo))

    for channels in channel_iter():
        coupling = 1.0
        skip = False
        for (_, _, _, _, a, b) in vertex_sets:
            ca, cb = channels[a], channels[b]
            lam = model.lam[ca, cb]
            if lam == 0.0:
                skip = True
                break
            coupling *= lam * model.z[ca] * model.z[cb]
        if skip:
            continue

        fields = list(external_fields)
        for (tag, psym, qa, qb, a, b) in vertex_sets:
            fields.extend(_interaction_fields(tag, psym, qa, qb, channels[a], channels[b]))
        vertices = ["x"] + [vs[0] for vs in vertex_sets]

        for pairs, parity in _pairings(fields):
            ok = all(
                _chan(fields[i], channels) == _chan(fields[j], channels)
                for i, j in pairs
            )
            if not ok:
                continue
            if order > 0 and not _connected(pairs, fields, vertices):
                continue
            subs, consistent = _solve_constraints(pairs, fields, k_half, cells)
            if not consistent:
                continue
            free = [
                s
                for s in ("q1", "q2", "q3", "q4", "p", "pp")
                if s in _used_syms(fields) and s not in subs
            ]
            mesh = {}
            full_shape = (cells,) * (2 * len(free))
            if free:
                axes = []
                for _ in free:
                    axes.extend([np.arange(cells), np.arange(cells)])
                grids = np.meshgrid(*axes, indexing="ij", sparse=True)
                for t, s in enumerate(free):
                    mesh[s] = (grids[2 * t], grids[2 * t + 1])
            # pairs are listed (annihilation, creation), so every contraction
            # is +N^2 g and the sign sits entirely in the pairing parity
            value = np.ones(full_shape, dtype=complex)
            for i, j in pairs:
                minus_field = fields[i]
                mom = _subs_all(minus_field.mom, subs)
                h0, h1 = _half_index_arrays(mom, k_half, free, mesh, parities)
                value = value * _lookup_g(model, _chan(minus_field, channels), h0, h1)
            if vhat is not None:
                for (tag, psym, *_rest) in vertex_sets:
                    mom = _subs_all(sym(psym), subs)
                    h0, h1 = _half_index_arrays(mom, k_half, free, mesh, parities)
                    value = value * vhat(h0, h1)
            term = parity * np.sum(value) * coupling
            # prefactors: (N^2)^5-contraction factors, vertex 1/(2 N^6) each,
            # cumulant 1/order!, minus sign per e^{-V} insertion, and the
            # 1/N^2 normalization of the reported correlator; the sums
            # performed here run only over the free symbols, the rest were
            # consumed against the contraction deltas.
            n2 = float(cells * cells)
            n_contr = len(pairs)
            pref = n2**n_contr
            for _ in range(order):
                pref *= -1.0 / (2.0 * n2**3)
            if order == 2:
                pref *= 0.5
            pref /= n2  # report per external pair
            total += term * pref
    return total


def _chan(field, channels):
    return field.channel if isinstance(field.channel, (int, np.integer)) else channels[field.channel]


def _used_syms(fields):
    used = set()
    for f in fields:
        used.update(f.mom.coeffs.keys())
    return used


def two_point_order(model, k_idx, channel, order):
    """Connected <psi-_k psi+_k> / N^2 at the given interaction order."""
    k_half = {"k": (2 * k_idx[0] + 1, 2 * k_idx[1] + 1)}
    ext = [
        Field(-1, channel, sym("k"), "x"),
        Field(+1, channel, sym("k"), "x"),
    ]
    return connected_correlator(model, ext, order, k_half)


def four_point_order(model, k_idx, q_idx, kp_idx, ch_a, ch_b, order):
    """Connected <psi+_{k} psi-_{q} psi+_{k'} psi-_{q'}> / N^2 with
    q' = k - q + k' fixed by momentum conservation (all fermionic
    indices), at the given interaction order."""
    qp = (
        k_idx[0] - q_idx[0] + kp_idx[0],
        k_idx[1] - q_idx[1] + kp_idx[1],
    )
    k_half = {
        "k": (2 * k_idx[0] + 1, 2 * k_idx[1] + 1),
        "q": (2 * q_idx[0] + 1, 2 * q_idx[1] + 1),
        "kp": (2 * kp_idx[0] + 1, 2 * kp_idx[1] + 1),
        "qp": (2 * qp[0] + 1, 2 * qp[1] + 1),
    }
    ext = [
        Field(+1, ch_a, sym("k"), "x"),
        Field(-1, ch_a, sym("q"), "x"),
        Field(+1, ch_b, sym("kp"), "x"),
        Field(-1, ch_b, sym("qp"), "x"),
    ]
    return connected_correlator(model, ext, order, k_half)
