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
    _seed,
    _three_point,
    _ufunc_buffer,
    default_tolerance,
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

# Relative tolerance under which evaluate's tie rule treats two selections as tied.
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
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
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
    if not np.isfinite(u).all():
        raise ValueError("sample coordinates must be finite")
    return u


def _kernel_order(e: int, n: int) -> str:
    """Memory order of the kernel's (e, n) arrays: "C" (pair-major) when n >= e, else "F" (observation-major).

    numpy runs reductions and broadcast ufuncs as inner loops along the
    contiguous axis, so the longer axis is made the contiguous one; the
    sweep behind the crossover is in CHANGES.md.
    """
    return "C" if n >= e else "F"


def _stored(u: np.ndarray) -> np.ndarray:
    """The (n, e) sample u, copied if need be so that u.T is in _kernel_order."""
    return np.asarray(u.T, order=_kernel_order(*u.T.shape)).T


def _workspace(s: int, e: int, n: int):
    """evaluate's buffers: lam and d's max, min and spread; float, bool and index rows; (e, n) views of some rows.

    The views, in _kernel_order, are w (then d) and a candidate, then the
    j* masks of each vertex, top, bottom and either.  The other rows are the
    sparse phase's, filled in a prefix as long as the tied cells (at most
    e * n): four of scratch, s of ktied, and t, i, jt and ji.  The float and
    bool rows are one block, most of the workspace: glibc trims a freed heap
    top past twice the largest mapped block freed, so a fit's workspace then
    stays in the heap for the process's next call (see CHANGES.md).
    """
    order = _kernel_order(e, n)
    block = np.empty((48 + 2 * s + 3) * e * n, dtype=np.uint8)  # six float rows, then 2s + 3 bool rows
    floats, flags = block[: 48 * e * n].view(float).reshape(6, -1), block[48 * e * n :].reshape(2 * s + 3, -1).view(bool)
    planes = ([row.reshape(e, n, order=order) for row in rows] for rows in (floats[:2], flags[: s + 3]))
    return np.empty((s + 3, n)), floats, flags, np.empty((4, e * n), dtype=np.intp), *planes


def _evaluation_work(sample: np.ndarray, s: int):
    """evaluate's work for an (n, e) sample whose transpose is in _kernel_order: a _workspace and the largest magnitude."""
    buffers = _workspace(s, sample.shape[1], len(sample))
    return buffers, np.abs(sample.T, out=buffers[4][1]).max()


def _projection(ut: np.ndarray, v: np.ndarray, lam, w, cand, masks=(), tol: float | None = None) -> None:
    """Writes lam and w of the (e, n) columns ut over vertices v: lam[k] = min(ut - D_k), w = max_k(lam[k] + D_k).

    cand is (e, n) scratch.  Given tol, vertex k's mask marks where
    ut - D_k is within tol of lam[k], its tied minimizers j*.  Callers run
    it inside treespace._ufunc_buffer, at whose 1024 elements these broadcasts
    ran 2-4x faster than at numpy's default 8192 (CHANGES.md).  Every
    result is elementwise or a min or max, which returns one of its operands
    in any order, so the bits do not depend on the buffer (a zero's sign aside).
    """
    for k, vk in enumerate(v[:, :, None]):
        np.min(np.subtract(ut, vk, out=cand), axis=0, out=lam[k])
        if tol is not None:
            np.less_equal(cand, lam[k] + tol, out=masks[k])
    np.add(v[0, :, None], lam[0], out=w)
    for k in range(1, len(v)):
        np.maximum(w, np.add(v[k, :, None], lam[k], out=cand), out=w)


def project_to_polytope(sample, polytope: TropicalPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Projection of each observation onto the polytope and its coordinates over the vertices.

    Returns (w, lam) with lam[k] = min(u - D_k) and w = max_k(lam[k] + D_k).
    w lies in the polytope, satisfies w <= u coordinatewise with equality at
    each vertex's minimizing coordinate, and is a closest polytope point to
    u in the tropical metric.  sample is one vector (w has shape (e,) and
    lam (s,)) or an (n, e) batch (w is (n, e) and lam (n, s), row by row);
    rows go in chunks of about treespace._CHUNK_ELEMENTS (2^18) entries of
    u - D, s e per row, but of at least 64 rows.  The kernel runs on each
    chunk's (e, rows) transpose in _kernel_order for the chunk's shape:
    observation-major, the transpose of C-ordered rows is used as it is and
    w is written straight into the result; pair-major, the chunk is copied
    into its transpose and w is transposed back, all inside _ufunc_buffer.
    """
    with _ufunc_buffer():
        v = polytope.vertices
        rows = _sample_matrix(sample, polytope.e)
        lam, w = np.empty((len(rows), polytope.s)), np.empty(rows.shape)
        for part in _chunks(len(rows), v.size, 64):
            ut = _stored(rows[part]).T
            pair_major = _kernel_order(*ut.shape) == "C"
            lam_t, cand = np.empty((len(v), ut.shape[1])), np.empty_like(ut)
            w_t = np.empty_like(ut) if pair_major else w[part].T
            _projection(ut, v, lam_t, w_t, cand)
            lam[part] = lam_t.T
            if pair_major:
                w[part] = w_t.T
        return (w, lam) if np.ndim(sample) == 2 else (w[0], lam[0])


def _decode(cells: np.ndarray, e: int, n: int, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, i) of flat indices into (e, n) arrays in _kernel_order, in a prefix of out's two rows."""
    pair_major = _kernel_order(e, n) == "C"
    q, r = np.divmod(cells, n if pair_major else e, out=tuple(out[:, : len(cells)]))
    return (q, r) if pair_major else (r, q)


def objective(sample, polytope: TropicalPolytope) -> float:
    """Sum of tropical distances from each observation to its projection."""
    w, _ = project_to_polytope(sample, polytope)
    return float(np.sum(trop_dist(sample, w)))


def evaluate(sample, polytope: TropicalPolytope, work=None) -> tuple[float, np.ndarray]:
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

    The pass reads the sample as its (e, n) transpose in _kernel_order and
    puts its array temporaries in work, a _workspace and the sample's
    largest magnitude (_evaluation_work), which fit makes once and passes
    with its checked sample _stored to match; a call without work checks,
    copies, allocates and measures those itself.  Tied cells are taken by
    flat index in memory order, (t, i) pair-major and (i, t)
    observation-major, and decoded by one divmod.  In both orders each
    bincount bin, keyed by t or by i, receives its terms in increasing
    order of the other index, as a sequential sum does: g is exact to the
    bit, and the same in both orders.  It runs inside _ufunc_buffer.
    """
    with _ufunc_buffer():
        v = polytope.vertices
        s, e = v.shape
        if work is None:
            sample = _stored(_sample_matrix(sample, e))
            work = _evaluation_work(sample, s)
        n, ut = len(sample), sample.T
        (per_obs, floats, flags, ints, (w, cand), masks), largest = work
        lam, (dmax, dmin, spread) = per_obs[:s], per_obs[s:]
        top, bottom, either = masks[s:]
        tol = TIE_RTOL * max(largest, np.abs(v).max())
        _projection(ut, v, lam, w, cand, masks, tol)
        d = np.subtract(w, ut, out=w)  # w's own buffer; the k* loop re-forms w where it is needed
        np.max(d, axis=0, out=dmax)
        np.min(d, axis=0, out=dmin)
        # d is the exact negation of objective's u - w, so this sum is its value
        se = float(np.sum(np.subtract(dmax, dmin, out=spread)))
        np.greater_equal(d, np.subtract(dmax, tol, out=dmax), out=top)
        np.less_equal(d, np.add(dmin, tol, out=dmin), out=bottom)
        np.logical_or(top, bottom, out=either)
        # the sparse phase writes each per-cell array into a prefix of a workspace row;
        # take's mode="clip" writes straight into out, where "raise" would stage a copy
        cells = np.flatnonzero(flags[s + 2])
        t, i = _decode(cells, e, n, ints[:2])
        c, x, y, wt = floats[2:, : len(cells)]
        ktied = flags[s + 3 :, : len(cells)]
        # c: averaged distance gradient at each tied cell (t, i); where it is 0, it adds exact zeros
        for flag, share in ((flags[s], c), (flags[s + 1], y)):
            np.copyto(x, flag.take(cells, out=ktied[0], mode="clip"))  # the cell's flag as 0.0 or 1.0
            np.divide(x, np.bincount(i, x, minlength=n).take(i, out=share, mode="clip"), out=share)
        np.subtract(c, y, out=c)
        wt.fill(-np.inf)  # then w at the cells: the max of _projection's sums lam[k] + D_k, in its order
        for k in range(s):
            np.add(lam[k].take(i, out=x, mode="clip"), v[k].take(t, out=y, mode="clip"), out=x)
            np.maximum(wt, x, out=wt)
        np.subtract(wt, tol, out=wt)
        for k in range(s):
            np.add(lam[k].take(i, out=x, mode="clip"), v[k].take(t, out=y, mode="clip"), out=x)
            np.greater_equal(x, wt, out=ktied[k])
        np.divide(c, np.add.reduce(ktied, axis=0, out=x), out=c)  # each tied winning vertex's share
        g = np.empty_like(v)
        for k in range(s):
            a = np.multiply(ktied[k], c, out=x)
            g[k] = np.bincount(t, a, minlength=e)
            # the -1 at j* is spread over the tied minimizers; when t itself is j*
            # the two entries cancel, so that cell needs no special case
            jcells = np.flatnonzero(flags[k])
            jt, ji = _decode(jcells, e, n, ints[2:])
            routed = np.bincount(i, a, minlength=n) / np.bincount(ji, minlength=n)
            at_j = routed.take(ji, out=floats[4, : len(jcells)], mode="clip")  # y's row, free once ktied is set
            g[k] -= np.bincount(jt, at_j, minlength=e)
        return se, g


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
        _seed(self.seed)


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
    tol = default_tolerance(u)
    violation, _ = _three_point(u, leaf_count_from_dim(u.shape[1]), tol)
    bad = np.flatnonzero(~((violation <= tol) & (tol < np.inf)))  # as ~is_ultrametric(u)
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
    step or evaluation overflows raises ValueError naming it and lr0.  The
    sample is _stored once, so that its transpose is in _kernel_order, and
    every evaluation writes its per-pair and per-cell arrays into one
    _workspace allocated here, not per iteration, and reads the sample's
    largest magnitude measured here.
    """
    u = _stored(_sample_matrix(sample))
    n, e = u.shape
    leaf_count_from_dim(e)
    if cfg.s > n:
        raise ValueError(f"need at least s observations (s={cfg.s}, n={n})")
    _validate_ultrametric_rows(u, "sample vectors")

    start = time.perf_counter()
    if cfg.init_vertices is None:
        rng = np.random.default_rng(cfg.seed)
        polytope = TropicalPolytope(u[rng.choice(n, size=cfg.s, replace=False)])
    else:
        vertices = np.array(cfg.init_vertices, dtype=float)
        if vertices.shape != (cfg.s, e):
            raise ValueError(f"init_vertices must have shape ({cfg.s}, {e})")
        polytope = TropicalPolytope(vertices)  # finite before the three-point check
        _validate_ultrametric_rows(polytope.vertices, "initial vertices")

    work = _evaluation_work(u, cfg.s)
    best_se, g = evaluate(u, polytope, work)
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
                se, g = evaluate(u, polytope, work)
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
    rng = np.random.default_rng(_seed(seed))
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
