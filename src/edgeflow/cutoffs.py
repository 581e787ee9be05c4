"""Smooth momentum cutoffs, dyadic shells and anisotropic norms.

Everything here is vectorized over numpy arrays; momenta are pairs
``(k0, k1)`` of equal-shape arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "smoothstep",
    "chi",
    "band_cutoff",
    "shell",
]


def smoothstep(t):
    """Quintic 6t^5 - 15t^4 + 10t^3 clamped to [0, 1]; C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def chi(s):
    """Even plateau cutoff: 1 for |s| <= 1, 0 for |s| >= 2, monotone between."""
    return 1.0 - smoothstep(np.abs(s) - 1.0)


def band_cutoff(r, h, n):
    """Infrared/ultraviolet window in the radial variable.

    ``(1 - chi(2^-h r)) * chi(2^-n r)``: supported on 2^(h-1) <= r <= 2^(n+1),
    identically 1 on 2^(h+1) <= r <= 2^n.
    """
    r = np.asarray(r, dtype=float)
    return (1.0 - chi(r * 2.0 ** (-h))) * chi(r * 2.0 ** (-n))


def shell(r, j, h_min):
    """Single dyadic shell f_j = window[h_min, j] - window[h_min, j-1].

    The shells partition the full window: sum_{j=h_min..0} f_j = window[h_min, 0].
    """
    return band_cutoff(r, h_min, j) - band_cutoff(r, h_min, j - 1)
