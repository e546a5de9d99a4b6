"""The metric on the tropical projective torus and canonical representatives.

Points of the torus R^e / R*1 are plain 1-D float64 arrays with finite
coordinates; two arrays describe the same point when they differ by a
constant vector.
"""

from __future__ import annotations

import numpy as np


def _as_point(x, name: str = "point") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} must be a 1-D vector with at least 2 coordinates")
    return x


def trop_dist(v, w):
    """Tropical metric: max_i(v_i - w_i) - min_i(v_i - w_i).

    Symmetric, nonnegative, invariant under adding a constant to either
    argument, and zero exactly when v and w agree on the torus.  v and w
    are two vectors (the result is a float) or two (n, e) batches of the
    same shape (an array of n row-wise distances).
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.ndim != 2:
        v, w = _as_point(v, "v"), _as_point(w, "w")
    if v.shape != w.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {w.shape}")
    d = v - w
    out = d.max(axis=-1) - d.min(axis=-1)
    return out if v.ndim == 2 else float(out)


def canonicalize(x) -> np.ndarray:
    """Canonical torus representative: subtract the first coordinate."""
    x = _as_point(x)
    return x - x[0]
