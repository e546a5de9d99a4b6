"""Best-fit tropical polytopes for samples of ultrametric vectors.

The objective is the sum of tropical distances between the observations and
their projections onto the polytope spanned by s vertices.  Vertices are
fitted by projected subgradient descent: each step moves a vertex along the
negative subgradient of the objective and projects it back onto tree space,
keeping every iterate a valid ultrametric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .treespace import (
    _chunks,
    is_ultrametric,
    leaf_count_from_dim,
    project_to_treespace,
)
from .tropical import trop_dist

__all__ = [
    "TropicalPolytope",
    "FitConfig",
    "FitTrace",
    "project_to_polytope",
    "objective",
    "evaluate",
    "subgradient",
    "fit",
    "baseline_random_search",
]

# Relative tolerance under which subgradient treats two selections as tied.
TIE_RTOL = 1e-9


class TropicalPolytope:
    """Tropical convex hull of an ordered list of vertices (one per row)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must form a 2-D array (one vertex per row)")
        s, e = v.shape
        if s < 1 or e < 2:
            raise ValueError(f"invalid vertex array of shape {v.shape}")
        if s > e:
            raise ValueError(f"more vertices than coordinates: s={s} > e={e}")
        v.setflags(write=False)
        self.vertices = v

    @property
    def s(self) -> int:
        return self.vertices.shape[0]

    @property
    def e(self) -> int:
        return self.vertices.shape[1]

    @property
    def m(self) -> int:
        return leaf_count_from_dim(self.e)

    def __eq__(self, other) -> bool:
        return isinstance(other, TropicalPolytope) and np.array_equal(self.vertices, other.vertices)

    def __repr__(self) -> str:
        return f"TropicalPolytope(s={self.s}, e={self.e})"


def _sample_matrix(sample, e: int | None = None) -> np.ndarray:
    u = np.asarray(sample, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    if u.ndim != 2 or u.shape[0] < 1:
        raise ValueError("sample must be a nonempty list of vectors")
    if e is not None and u.shape[1] != e:
        raise ValueError(f"dimension mismatch: sample has {u.shape[1]} coordinates, expected {e}")
    return u


def _projection(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diff, lam, w) of (n, e) rows u over vertices v: diff = u - D, lam = min(diff), w = max_k(lam[k] + D_k)."""
    diff = u[:, None, :] - v
    lam = diff.min(axis=2)
    w = lam[:, 0, None] + v[0]
    for k in range(1, len(v)):
        np.maximum(w, lam[:, k, None] + v[k], out=w)
    return diff, lam, w


def project_to_polytope(sample, polytope: TropicalPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Projection of each observation onto the polytope and its coordinates over the vertices.

    Returns (w, lam) with lam[k] = min(u - D_k) and w = max_k(lam[k] + D_k).
    w lies in the polytope, satisfies w <= u coordinatewise with equality at
    each vertex's minimizing coordinate, and is a closest polytope point to
    u in the tropical metric.  sample is one vector (w has shape (e,) and
    lam (s,)) or an (n, e) batch (w is (n, e) and lam (n, s), row by row);
    rows go in chunks of about _CHUNK_ELEMENTS entries of u - D.
    """
    v = polytope.vertices
    u = np.asarray(sample, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != polytope.e:
        raise ValueError(f"dimension mismatch: sample has shape {u.shape}, expected ({polytope.e},) per row")
    rows = np.atleast_2d(u)
    lam = np.empty((len(rows), polytope.s))
    w = np.empty_like(rows)
    for part in _chunks(len(rows), v.size):
        _, lam[part], w[part] = _projection(rows[part], v)
    return (w, lam) if u.ndim == 2 else (w[0], lam[0])


def objective(sample, polytope: TropicalPolytope) -> float:
    """Sum of tropical distances from each observation to its projection."""
    u = _sample_matrix(sample, polytope.e)
    w, _ = project_to_polytope(u, polytope)
    return float(np.sum(trop_dist(u, w)))


def evaluate(sample, polytope: TropicalPolytope) -> tuple[float, np.ndarray]:
    """Objective and subgradient at one polytope, from one attribution pass.

    Returns (se, g): se equals objective(sample, polytope) exactly, and g
    holds the subgradient with respect to every vertex, one row per vertex.

    The subgradient chains the distance gradient through the projection map
    by direct accumulation (the sparse Jacobian is never materialized).
    Observation i contributes +1 at the largest and -1 at the smallest
    coordinate t of w_i - u_i; each goes to the vertex k* that wins the max
    in w_i[t], as +1 at t and -1 at k*'s minimizing coordinate j* of
    u_i - D_k*.

    Tie rule: each of these selections (largest t, smallest t, k* and j*)
    is averaged over its tied set instead of taken at the lowest index.
    Values tie when they differ by at most TIE_RTOL times the largest
    magnitude in the sample and the vertices.  Tree-space data is tied by
    construction (in every leaf triple the two largest coordinates are
    equal), and a lowest-index rule would keep taking one biased element of
    the generalized gradient there.  At tie-free points the result is the
    gradient, up to rounding.  Deterministic.
    """
    u = _sample_matrix(sample, polytope.e)
    v = polytope.vertices
    n = u.shape[0]
    s, e = v.shape
    tol = TIE_RTOL * max(np.abs(u).max(), np.abs(v).max())
    diff, lam, w = _projection(u, v)
    jtied = diff <= (lam + tol)[:, :, None]
    d = w - u
    dmax = d.max(axis=1)
    dmin = d.min(axis=1)
    # d is the exact negation of objective's u - w, so this sum is its value
    se = float(np.sum(dmax - dmin))
    top = d >= (dmax - tol)[:, None]
    bottom = d <= (dmin + tol)[:, None]
    # c: averaged distance gradient at the cells where it is nonzero; it
    # vanishes off the tied sets and for observations on the polytope
    rows, cols = np.nonzero(top | bottom)
    c = top[rows, cols] / top.sum(axis=1)[rows] - bottom[rows, cols] / bottom.sum(axis=1)[rows]
    keep = c != 0
    rows, cols, c = rows[keep], cols[keep], c[keep]
    ktied = lam[rows, :] + v[:, cols].T >= (w[rows, cols] - tol)[:, None]
    a = ktied * (c / ktied.sum(axis=1))[:, None]  # a[p, k]: share routed to vertex k
    g = np.empty_like(v)
    routed = np.empty((n, s))  # total share each observation routes to each vertex
    for k in range(s):
        g[k] = np.bincount(cols, a[:, k], minlength=e)
        routed[:, k] = np.bincount(rows, a[:, k], minlength=n)
    # the -1 at j* is spread over the tied minimizers; when t itself is j*
    # the two entries cancel, so that cell needs no special case
    return se, g - np.einsum("nse,ns->se", jtied, routed / jtied.sum(axis=2))


def subgradient(sample, polytope: TropicalPolytope) -> np.ndarray:
    """Subgradient of the objective with respect to every vertex, one row per vertex (see evaluate)."""
    return evaluate(sample, polytope)[1]


@dataclass(frozen=True)
class FitConfig:
    """Settings for the projected subgradient fit."""

    s: int
    max_iters: int = 100
    lr0: float = 0.01
    decay: float = 0.999
    seed: int = 42
    init_vertices: object = None  # None: start from cfg.s sample points drawn by seed
    update_mode: str = "simultaneous"  # or "cyclic"

    def __post_init__(self):
        if self.s < 2:
            raise ValueError(f"s must be at least 2, got {self.s}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not (np.isfinite(self.lr0) and self.lr0 > 0):
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must lie in (0, 1]")
        if self.update_mode not in ("simultaneous", "cyclic"):
            raise ValueError(f"unknown update mode {self.update_mode!r}")


@dataclass
class FitTrace:
    """Per-iteration record of a fit, plus the best-so-far summary."""

    initial_se: float
    se: list[float] = field(default_factory=list)
    alpha: list[float] = field(default_factory=list)
    improved: list[bool] = field(default_factory=list)
    best_se: float = float("inf")
    best_iteration: int = -1  # -1 refers to the initial vertex set
    wall_time_s: float = 0.0

    @property
    def final_se(self) -> float:
        return self.se[-1] if self.se else self.initial_se

    def __len__(self) -> int:
        return len(self.se)


def _validate_ultrametric_rows(u: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~is_ultrametric(u))
    if bad.size:
        shown = ", ".join(map(str, bad[:10]))
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise ValueError(f"{what} at indices {shown}{more} fail the three-point condition")


def fit(sample, cfg: FitConfig) -> tuple[TropicalPolytope, FitTrace]:
    """Fit the best-fit tropical polytope with cfg.s vertices to the sample.

    Starts from cfg.init_vertices, or when that is None from cfg.s
    distinct sample points drawn by cfg.seed, then iterates
    t = 0..max_iters-1 with step alpha_t = lr0 * decay**t: every vertex
    (simultaneous mode) or one round-robin vertex (cyclic mode) moves to
    project_to_treespace(D_k - alpha_t * g_k).  Each iterate is evaluated
    once: evaluate gives its objective for the trace and its subgradient g
    for the next step.  The returned polytope is the best iterate by
    objective value, which for a subgradient method is not necessarily the
    last.  Runs are deterministic given (sample, cfg).  An iteration whose
    step or evaluation overflows raises ValueError naming it and lr0.
    """
    u = _sample_matrix(sample)
    n, e = u.shape
    leaf_count_from_dim(e)
    if cfg.s > n:
        raise ValueError(f"need at least s observations (s={cfg.s}, n={n})")
    _validate_ultrametric_rows(u, "sample vectors")

    start = time.perf_counter()
    if cfg.init_vertices is None:
        rng = np.random.default_rng(cfg.seed)
        chosen = rng.choice(n, size=cfg.s, replace=False)
        vertices = u[chosen].copy()
    else:
        vertices = np.array(cfg.init_vertices, dtype=float)
        if vertices.shape != (cfg.s, e):
            raise ValueError(f"init_vertices must have shape ({cfg.s}, {e})")
        _validate_ultrametric_rows(vertices, "initial vertices")

    polytope = TropicalPolytope(vertices)
    best_se, g = evaluate(u, polytope)
    best_vertices = polytope.vertices.copy()
    trace = FitTrace(initial_se=best_se, best_se=best_se, best_iteration=-1)

    alpha = cfg.lr0
    for t in range(cfg.max_iters):
        rows = slice(None) if cfg.update_mode == "simultaneous" else slice(t % cfg.s, t % cfg.s + 1)
        try:
            with np.errstate(over="raise", invalid="raise"):
                updated = polytope.vertices.copy()
                updated[rows] = project_to_treespace(updated[rows] - alpha * g[rows])
                polytope = TropicalPolytope(updated)
                se, g = evaluate(u, polytope)
        except FloatingPointError:
            raise ValueError(f"iteration {t} overflows: lr0={cfg.lr0:g} is too large") from None
        improved = se < best_se
        if improved:
            best_se = se
            best_vertices = polytope.vertices.copy()
            trace.best_iteration = t
        trace.se.append(se)
        trace.alpha.append(alpha)
        trace.improved.append(improved)
        alpha *= cfg.decay  # iterative product keeps consecutive step ratios exact

    trace.best_se = best_se
    trace.wall_time_s = time.perf_counter() - start
    return TropicalPolytope(best_vertices), trace


def baseline_random_search(sample, s: int, budget_evals: int, seed: int) -> tuple[TropicalPolytope, float]:
    """Best polytope among budget_evals random s-subsets of the sample.

    Candidates are drawn from one seeded stream, so the result for a larger
    budget with the same seed is never worse.
    """
    u = _sample_matrix(sample)
    n = u.shape[0]
    if budget_evals < 1:
        raise ValueError("budget_evals must be positive")
    if s < 1 or s > n:
        raise ValueError(f"need at least s observations (s={s}, n={n})")
    rng = np.random.default_rng(seed)
    best_se = np.inf
    best_vertices = None
    for _ in range(budget_evals):
        chosen = rng.choice(n, size=s, replace=False)
        candidate = TropicalPolytope(u[chosen])
        se = objective(u, candidate)
        if se < best_se:
            best_se = se
            best_vertices = candidate.vertices
    return TropicalPolytope(best_vertices), float(best_se)
