"""Tropical linear combinations, sectors and the metric on the tropical projective torus.

Points of the torus R^e / R*1 are plain 1-D float64 arrays with finite
coordinates; two arrays describe the same point when they differ by a
constant vector.  Tropical linear combinations additionally accept -inf
scalars (the additive identity of the max-plus semiring).
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def _as_point(x, name: str = "point") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} must be a 1-D vector with at least 2 coordinates")
    return x


def trop_combine(scalars, points) -> np.ndarray:
    """Tropical linear combination of points: coordinatewise max_k(scalars[k] + points[k]).

    All points must share one dimension; scalars may be -inf.
    """
    pts = [_as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    e = pts[0].size
    if any(p.size != e for p in pts):
        raise ValueError("dimension mismatch: points do not share one dimension")
    a = np.asarray(scalars, dtype=float)
    if a.shape != (len(pts),):
        raise ValueError("need exactly one scalar per point")
    return np.max(a[:, None] + np.stack(pts), axis=0)


def trop_dist(v, w) -> float:
    """Tropical metric: max_i(v_i - w_i) - min_i(v_i - w_i).

    Symmetric, nonnegative, invariant under adding a constant to either
    argument, and zero exactly when v and w agree on the torus.
    """
    v = _as_point(v, "v")
    w = _as_point(w, "w")
    if v.size != w.size:
        raise ValueError(f"dimension mismatch: {v.size} vs {w.size}")
    d = v - w
    return float(d.max() - d.min())


def canonicalize(x) -> np.ndarray:
    """Canonical torus representative: subtract the first coordinate."""
    x = _as_point(x)
    return x - x[0]


def torus_equal(v, w, tol: float = 0.0) -> bool:
    """Whether v and w name the same torus point, up to tol on canonical coordinates."""
    v = _as_point(v, "v")
    w = _as_point(w, "w")
    if v.size != w.size:
        return False
    return bool(np.max(np.abs(canonicalize(v) - canonicalize(w))) <= tol)


def sector_of(x, omega, tie_tolerance: float = 0.0) -> tuple[frozenset[int], frozenset[int]]:
    """Sector membership of x relative to the tropical hyperplanes at apex omega.

    Returns (max_sector, min_sector): the index sets attaining the maximum
    (resp. minimum) of omega + x within tie_tolerance.  Both sets are
    singletons exactly when x lies in open sectors of the max- and
    min-hyperplane; a larger set means x sits on the hyperplane itself.
    """
    x = _as_point(x, "x")
    omega = _as_point(omega, "omega")
    if x.size != omega.size:
        raise ValueError(f"dimension mismatch: {x.size} vs {omega.size}")
    if tie_tolerance < 0:
        raise ValueError("tie_tolerance must be nonnegative")
    s = omega + x
    max_sector = frozenset(int(i) for i in np.flatnonzero(s >= s.max() - tie_tolerance))
    min_sector = frozenset(int(i) for i in np.flatnonzero(s <= s.min() + tie_tolerance))
    return max_sector, min_sector
