"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's algorithms: the projection oracles
enumerate generating rays or merge clusters by single linkage instead of
growing a minimum spanning tree, the three-point oracle sorts each triple
instead of selecting its top two, the distance oracle walks tree paths
instead of using depth arithmetic, and the subgradient oracle enumerates
tied selections one by one instead of averaging over tied sets in closed
form.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from troppca.treespace import leaf_count_from_dim, pair_order


def single_linkage_projection(x: np.ndarray) -> np.ndarray:
    """Subdominant ultrametric of one vector by single-linkage merging (Kruskal order).

    When an edge first connects two clusters, found by union-find, every
    pair across them receives that edge's weight.
    """
    x = np.asarray(x, dtype=float)
    m = leaf_count_from_dim(x.size)
    pairs = pair_order(m)
    index = {pair: idx for idx, pair in enumerate(pairs)}
    out = np.empty_like(x)
    parent = list(range(m))
    members = [[i] for i in range(m)]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx in np.argsort(x, kind="stable"):
        ri, rj = find(pairs[idx][0]), find(pairs[idx][1])
        if ri == rj:
            continue
        for a in members[ri]:
            for b in members[rj]:
                out[index[min(a, b), max(a, b)]] = x[idx]
        parent[rj] = ri
        members[ri].extend(members[rj])
        members[rj] = []
    return out


@functools.lru_cache(maxsize=None)
def _triple_columns(m: int) -> np.ndarray:
    """(3, triples) positions of the pairs ij, ik, jk of every leaf triple i < j < k."""
    index = {pair: idx for idx, pair in enumerate(pair_order(m))}
    triples = itertools.combinations(range(m), 3)
    cols = [[index[i, j], index[i, k], index[j, k]] for i, j, k in triples]
    return np.array(cols, dtype=np.intp).T


def sorted_triple_violation(u: np.ndarray) -> float:
    """Worst three-point defect of one vector, by sorting the values of every leaf triple."""
    u = np.asarray(u, dtype=float)
    vals = np.sort(u[_triple_columns(leaf_count_from_dim(u.size))], axis=0)
    return float(np.max(vals[2] - vals[1]))


def split_rays(m: int) -> list[np.ndarray]:
    """All generating rays of tree space: one per split sigma | sigma^c.

    The ray for a split is 0 on pairs crossing it and -inf on pairs with
    both leaves on one side; there are 2^(m-1) - 1 splits.
    """
    pairs = pair_order(m)
    rays = []
    for r in range(0, m - 1):
        for rest in itertools.combinations(range(1, m), r):
            sigma = {0, *rest}
            ray = np.array(
                [0.0 if (i in sigma) != (j in sigma) else -np.inf for i, j in pairs]
            )
            rays.append(ray)
    assert len(rays) == 2 ** (m - 1) - 1
    return rays


def project_by_ray_enumeration(x: np.ndarray, m: int) -> np.ndarray:
    """Tree-space projection as max over rays of (min of x on the ray's support).

    For each pair this is the bottleneck duality: the minimax path weight
    equals the best separating split's smallest crossing weight.
    """
    out = np.full(x.size, -np.inf)
    for ray in split_rays(m):
        support = np.isfinite(ray)
        lam = x[support].min()
        out[support] = np.maximum(out[support], lam)
    return out


def enumerate_extreme_clades(m: int) -> list[tuple[int, ...]]:
    """All clade leaf sets sigma with 2 <= |sigma| <= m-1, by size then lexicographic.

    The ray for sigma has -inf on pairs inside sigma and 0 elsewhere.
    There are 2^m - m - 2.
    """
    if not 3 <= m <= 16:
        raise ValueError(f"m must be between 3 and 16, got {m}")
    out = []
    for size in range(2, m):
        out.extend(itertools.combinations(range(m), size))
    assert len(out) == 2**m - m - 2
    return out


def extreme_clade_vector(sigma, m: int) -> np.ndarray:
    """Coordinates of the extreme clade ray: -inf on pairs inside sigma, 0 elsewhere."""
    members = set(sigma)
    if not 2 <= len(members) <= m - 1 or not members <= set(range(m)):
        raise ValueError(f"invalid clade {sorted(members)} for m={m}")
    inside = [i in members and j in members for i, j in pair_order(m)]
    return np.where(inside, -np.inf, 0.0)


def clade_ray_combination(x: np.ndarray, m: int) -> np.ndarray:
    """Same formula over the clade-interior rays (-inf inside a leaf subset).

    Kept as a negative control: these rays span only part of tree space, so
    the result can fall strictly below the true projection for m >= 4.
    """
    out = np.full(x.size, -np.inf)
    for sigma in enumerate_extreme_clades(m):
        ray = extreme_clade_vector(sigma, m)
        support = np.isfinite(ray)
        lam = x[support].min()
        out[support] = np.maximum(out[support], lam)
    return out


def path_weight(tree, name_a: str, name_b: str) -> float:
    """Leaf-to-leaf path weight by explicit path walking (no depth formula)."""
    parents = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child in node.children:
            parents[id(child)] = node
            stack.append(child)

    def path_to_root(name):
        node = next(n for n in tree._walk() if n.is_leaf and n.name == name)
        path = [node]
        while id(node) in parents:
            node = parents[id(node)]
            path.append(node)
        return path

    pa = path_to_root(name_a)
    pb = path_to_root(name_b)
    ancestors_a = {id(n): i for i, n in enumerate(pa)}
    lca_b = next(i for i, n in enumerate(pb) if id(n) in ancestors_a)
    lca_a = ancestors_a[id(pb[lca_b])]
    total = 0.0
    for node in pa[:lca_a]:
        total += node.length
    for node in pb[:lca_b]:
        total += node.length
    return total


def top_two_gap(values: np.ndarray) -> float:
    """Gap between the largest and second-largest entries."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[-1] - v[-2])


def bottom_two_gap(values: np.ndarray) -> float:
    """Gap between the smallest and second-smallest entries."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[1] - v[0])


def instance_is_generic(sample: np.ndarray, vertices: np.ndarray, gap: float) -> bool:
    """Whether the selections the subgradient reads are gap-separated.

    Per observation this requires: a unique minimizing coordinate of u - D_k
    for every vertex, non-touching coordinates separated from the touch level
    (a projection touches its input exactly at each vertex's minimizing
    coordinate, and several vertices sharing one is a benign exact tie), a
    unique most-underfit coordinate, and a unique winning vertex there.  The
    observation must lie strictly off the polytope.
    """
    for u in sample:
        diff = u[None, :] - vertices
        lam = diff.min(axis=1)
        for row in diff:
            if bottom_two_gap(row) < gap:
                return False
        scores = lam[:, None] - diff  # w - u contributions, exact 0 at touch points
        d = scores.max(axis=0)
        negative = d[d < 0]
        if negative.size == 0 or negative.max() > -gap:
            return False
        if bottom_two_gap(d) < gap:
            return False
        t_min = int(d.argmin())
        if vertices.shape[0] >= 2 and top_two_gap(scores[:, t_min]) < gap:
            return False
    return True


def tie_averaged_subgradient(sample, vertices, rtol: float) -> np.ndarray:
    """Objective subgradient averaged over every tied selection, by enumeration.

    Per observation u with projection w, a selection is: a largest and a
    smallest coordinate of w - u, the winning vertex k at each of them, and
    a minimizing coordinate j of u - D_k for each selected vertex (one per
    vertex).  Values tie within rtol times the largest magnitude in the
    sample and the vertices.  A selection contributes, for its largest
    coordinate t with sign +1 and its smallest with sign -1, sign at (k, t)
    and -sign at (k, j), nothing when t == j.  Selections are weighted
    uniformly, as if every choice were drawn independently from its tied set.
    """
    sample = np.asarray(sample, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    s, e = vertices.shape
    tol = rtol * max(np.abs(sample).max(), np.abs(vertices).max())
    g = np.zeros_like(vertices)
    for u in sample:
        lam = [min(u[l] - vertices[k, l] for l in range(e)) for k in range(s)]
        w = [max(lam[k] + vertices[k, l] for k in range(s)) for l in range(e)]
        d = [w[l] - u[l] for l in range(e)]
        tops = [l for l in range(e) if d[l] >= max(d) - tol]
        bottoms = [l for l in range(e) if d[l] <= min(d) + tol]
        winners = [[k for k in range(s) if lam[k] + vertices[k, l] >= w[l] - tol] for l in range(e)]
        minimizers = [[l for l in range(e) if u[l] - vertices[k, l] <= lam[k] + tol] for k in range(s)]
        for t_top, t_bottom in itertools.product(tops, bottoms):
            coords = sorted({t_top, t_bottom})
            for ks in itertools.product(*(winners[t] for t in coords)):
                winner = dict(zip(coords, ks))
                chosen = sorted(set(ks))
                for js in itertools.product(*(minimizers[k] for k in chosen)):
                    minimizer = dict(zip(chosen, js))
                    weight = 1.0 / (
                        len(tops)
                        * len(bottoms)
                        * math.prod(len(winners[t]) for t in coords)
                        * math.prod(len(minimizers[k]) for k in chosen)
                    )
                    for t, sign in ((t_top, 1.0), (t_bottom, -1.0)):
                        k = winner[t]
                        j = minimizer[k]
                        if t != j:
                            g[k, t] += sign * weight
                            g[k, j] -= sign * weight
    return g
