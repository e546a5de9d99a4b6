"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's algorithms: the projection oracles
enumerate generating rays or merge clusters by single linkage instead of
growing a minimum spanning tree, or grow it with Prim but write each
joining leaf's row of the result at every step instead of reading the
result off one running maximum over Prim order, the three-point oracle
sorts each triple instead of selecting its top two, the distance oracle
walks tree paths instead of using depth arithmetic, the Newick oracle is a
recursive-descent parser building nested nodes and its cophenetic oracle a
recursive walk over them instead of one array pass over the whole file
and a range-minimum kernel, the reconstruction oracle merges one tree at
a time over a sorted edge list with union-find instead of a batched
spanning tree, and the subgradient oracle enumerates tied selections one
by one instead of averaging over tied sets in closed form.  The row-layout
evaluation, one (n, s, e) pass with a 2-D nonzero and an einsum over the
observations, is the bit-exact reference for the pair-major kernel's
objective and subgradient, and its projection for the (w, lam) that
project_to_polytope returns.  The lowest-index distance
gradient and projection Jacobian are the finite-difference references for
the pieces that subgradient chains together.  The tropical linear
combination, computed as one stacked max instead of a running maximum
over the vertices, is the reference for the projection's w.  The nested
``Node`` view, its flattening into a ``PhyloTree``, the equidistance
helpers (leaf depths summed down the record node by node), the pair
order, torus equality and hyperplane sectors serve the tests alone.
The Newick writer, clade lists and topology signatures walk one tree
node by node, with a stack of open nodes and per-node leaf counts, as the
references for the batch text of the records.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from troppca.pca import TIE_RTOL, TropicalPolytope, _sample_matrix
from troppca.tropical import _as_point, canonicalize
from troppca.treespace import (
    NewickError,
    _batch,
    _label_problem,
    _trees,
    PhyloTree,
    default_leaf_names,
    default_tolerance,
    leaf_count_from_dim,
    ultrametric_violation,
)

_LABEL_RE = re.compile(r"[A-Za-z0-9_.]+")
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")

NEG_INF = float("-inf")


@functools.lru_cache(maxsize=None)
def pair_order(m: int) -> tuple[tuple[int, int], ...]:
    """All leaf pairs (i, j), i < j, in the fixed lexicographic order of the vector."""
    return tuple((i, j) for i in range(m - 1) for j in range(i + 1, m))


@dataclass
class Node:
    """Nested tree node; length is the weight of the edge to the parent (0 at the root)."""

    name: str | None = None
    length: float = 0.0
    children: list["Node"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def tree_from_nodes(root: Node, leaf_names=None) -> PhyloTree:
    """The flat PhyloTree record of a Node tree, built by one preorder walk.

    Rejects unlabeled leaves, negative or NaN lengths (the cophenetic
    kernel relies on depths never decreasing away from the root),
    duplicate labels, fewer than 3 leaves, and leaf_names that are not the
    tree's labels.
    """
    parent, length, leaves, labels = [], [], [], []
    stack = [(root, -1)]
    while stack:
        node, up = stack.pop()
        here = len(parent)
        parent.append(up)
        length.append(node.length)
        if node.children:
            stack.extend((child, here) for child in reversed(node.children))
        else:
            leaves.append(here)
            labels.append(node.name)
    if any(name is None for name in labels):
        raise ValueError("every leaf must carry a label")
    if not all(value >= 0 for value in length):
        raise ValueError("branch lengths must be nonnegative")
    problem = _label_problem(labels)
    if problem:
        raise ValueError(problem)
    if leaf_names is not None and (set(leaf_names) != set(labels) or len(leaf_names) != len(labels)):
        raise ValueError("leaf_names must be exactly the tree's leaf labels")
    return record(parent, length, leaves, labels, leaf_names)


def record(parent, length, leaves, labels, leaf_names=None) -> PhyloTree:
    """The PhyloTree of one flat preorder record given as lists, built by the library's batch builder.

    leaf_names defaults to the sorted labels, as parsed trees have them.
    """
    names = sorted(labels) if leaf_names is None else list(leaf_names)
    place = {name: k for k, name in enumerate(labels)}
    batch = _batch(
        np.array(parent, dtype=np.intp), np.array(length, dtype=float), np.array(leaves, dtype=np.intp),
        np.array([place[name] for name in names], dtype=np.intp), np.array([len(parent)]),
        np.array([len(leaves)]), np.array(labels, dtype=object), np.array(names, dtype=object),
    )
    return _trees(batch)[0]


def node_view(tree: PhyloTree) -> Node:
    """The tree as nested Nodes, built from its flat record."""
    nodes = [Node(None, length) for length in tree._length.tolist()]
    for leaf, name in zip(tree._leaves.tolist(), tree._labels):
        nodes[leaf].name = name
    parent = tree._parent.tolist()
    for i in range(1, len(nodes)):
        nodes[parent[i]].children.append(nodes[i])
    return nodes[0]


def walk_leaf_depths(tree: PhyloTree) -> np.ndarray:
    """Root-to-leaf path weights by leaf index, summed down the preorder record one node at a time."""
    parent, length = tree._parent.tolist(), tree._length.tolist()
    depth = [0.0] * len(parent)
    for i in range(1, len(parent)):
        depth[i] = depth[parent[i]] + length[i]
    by_label = {label: depth[leaf] for label, leaf in zip(tree._labels, tree._leaves.tolist())}
    return np.array([by_label[name] for name in tree.leaf_names])


def equidistance_gap(tree: PhyloTree) -> float:
    """Spread of the root-to-leaf path weights (0 for an equidistant tree)."""
    d = walk_leaf_depths(tree)
    return float(d.max() - d.min())


def walk_newick(tree: PhyloTree) -> str:
    """Newick text of one tree by one walk over its preorder record, closing nodes from a stack."""
    length = tree._length.tolist()
    names = dict(zip(tree._leaves.tolist(), tree._labels))
    out: list[str] = []
    open_nodes: list[int] = []  # internal nodes whose ')' is still to come
    for i, up in enumerate(tree._parent.tolist()):
        while open_nodes and open_nodes[-1] != up:
            out.append(f"):{length[open_nodes.pop()]:.12g}")
        if i != up + 1:  # not the first child
            out.append(",")
        if i in names:
            out.append(f"{names[i]}:{length[i]:.12g}")
        else:
            out.append("(")
            open_nodes.append(i)
    while len(open_nodes) > 1:
        out.append(f"):{length[open_nodes.pop()]:.12g}")
    return "".join(out) + ");"


def walk_clades(tree: PhyloTree) -> list[frozenset[str]]:
    """Leaf-label set below each internal node of one tree, root included, in preorder, by counting up the record."""
    parent = tree._parent.tolist()
    below = [0] * len(parent)  # leaves below each node
    leaves = set(tree._leaves.tolist())
    for leaf in leaves:
        below[leaf] = 1
    for i in range(len(below) - 1, 0, -1):
        below[parent[i]] += below[i]
    out = []
    seen = 0  # leaves before the node; its own leaves follow them in leaf order
    for i, count in enumerate(below):
        if i in leaves:
            seen += 1
        else:
            out.append(frozenset(tree._labels[seen:seen + count]))
    return out


def walk_topology_signature(tree: PhyloTree) -> str:
    """walk_clades with sorted labels, ordered by size then lexicographically, as one string."""
    clades = sorted((len(c), tuple(sorted(c))) for c in walk_clades(tree))
    return "|".join("{" + ",".join(labels) + "}" for _, labels in clades)


def is_equidistant(tree: PhyloTree, tol: float | None = None) -> bool:
    if tol is None:
        tol = default_tolerance(walk_leaf_depths(tree))
    return equidistance_gap(tree) <= tol


def union_find_reconstruct_tree(u, names=None, tol=None) -> PhyloTree:
    """Equidistant tree of one ultrametric vector, by Kruskal merging over a stable sort with union-find.

    Merge heights are u/2; a merge whose height is within tol/2 of an
    operand merge's flattens that operand's children into its own list,
    the component of the pair's first leaf first.  On an exact ultrametric
    every pair crossing two sibling clusters ties, so the lowest such pair
    merges them and children come in the order of their lowest leaves.
    """
    u = np.asarray(u, dtype=float)
    m = leaf_count_from_dim(u.size)
    if tol is None:
        tol = default_tolerance(u)
    violation = ultrametric_violation(u)
    if violation > tol:
        raise ValueError(f"not ultrametric: worst three-point violation {violation:.3g} exceeds tolerance {tol:.3g}")
    if np.min(u) <= 0:
        raise ValueError("all entries must be positive to realize a tree")
    names = default_leaf_names(m) if names is None else [str(name) for name in names]

    pairs = pair_order(m)
    values = u.tolist()
    height_tol = tol / 2.0
    children: list[list[int]] = [[] for _ in range(m)]  # per cluster: leaves 0..m-1, then merges
    heights = [0.0] * m
    parent = list(range(m))  # union-find over leaves
    cluster = list(range(m))  # the cluster each union-find root stands for

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx in np.argsort(u, kind="stable").tolist():
        i, j = pairs[idx]
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        h = values[idx] / 2.0
        merged: list[int] = []
        for r in (ri, rj):
            top = cluster[r]
            if children[top] and h - heights[top] <= height_tol:
                merged.extend(children[top])  # same merge height: flatten
            else:
                merged.append(top)
        children.append(merged)
        heights.append(h)
        parent[rj] = ri
        cluster[ri] = len(children) - 1

    record_parent: list[int] = []
    record_length: list[float] = []
    leaves: list[int] = []
    labels: list[str] = []
    stack = [(cluster[find(0)], -1, 0.0)]
    while stack:
        top, up, edge = stack.pop()
        here = len(record_parent)
        record_parent.append(up)
        record_length.append(edge)
        if children[top]:
            stack.extend((c, here, heights[top] - heights[c]) for c in reversed(children[top]))
        else:
            leaves.append(here)
            labels.append(names[top])
    return record(record_parent, record_length, leaves, labels, names)


class _RecursiveNewickParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> NewickError:
        return NewickError(message, self.pos)

    def parse_label(self) -> str | None:
        match = _LABEL_RE.match(self.text, self.pos)
        if match is None:
            return None
        self.pos = match.end()
        return match.group()

    def parse_length(self) -> float:
        if self.peek() != ":":
            return 0.0
        self.pos += 1
        self.peek()
        match = _NUMBER_RE.match(self.text, self.pos)
        if match is None:
            raise self.error("malformed branch length")
        value = float(match.group())
        if not math.isfinite(value):
            raise self.error("non-finite branch length")
        if value < 0:
            raise self.error("negative branch length")
        self.pos = match.end()
        return value

    def parse_element(self) -> Node:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            children = [self.parse_element()]
            while True:
                ch = self.peek()
                if ch == ",":
                    self.pos += 1
                    children.append(self.parse_element())
                elif ch == ")":
                    self.pos += 1
                    break
                else:
                    raise self.error("expected ',' or ')'")
            self.parse_label()  # internal labels are ignored
            return Node(None, self.parse_length(), children)
        label = self.parse_label()
        if label is None:
            raise self.error("expected a leaf label or '('")
        return Node(label, self.parse_length(), [])


def recursive_parse_newick(text: str) -> tuple[Node, list[str]]:
    """(root, sorted leaf labels) of one Newick expression, by recursive descent.

    Raises NewickError with the same messages and offsets the library
    parser gives, except that it does not check depths for overflow.
    """
    parser = _RecursiveNewickParser(text)
    root = parser.parse_element()
    if parser.peek() != ";":
        raise parser.error("expected ';'")
    terminator = parser.pos
    parser.pos += 1
    if parser.peek() != "":
        raise parser.error("trailing characters after ';'")
    names = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            names.append(node.name)
        stack.extend(node.children)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise NewickError(f"duplicate leaf labels: {', '.join(dupes)}", terminator)
    if len(names) < 3:
        raise NewickError(f"need at least 3 leaves, got {len(names)}", terminator)
    return root, sorted(names)


def recursive_cophenetic_vector(root: Node, leaf_names: list[str], factor: float | None = None) -> np.ndarray:
    """Cophenetic vector by a recursive walk that merges leaf groups at each node.

    With factor, every branch length is multiplied by it first.  Depths are
    summed root-down and each pair across two child groups gets
    d_i + d_j - 2 d(node), as the library's kernel must reproduce bit for bit.
    """
    index = {name: i for i, name in enumerate(leaf_names)}
    m = len(leaf_names)
    position = {pair: k for k, pair in enumerate(pair_order(m))}
    depths = {id(root): 0.0}
    leaf_depth = np.zeros(m)
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            length = child.length if factor is None else child.length * factor
            depths[id(child)] = depths[id(node)] + length
            stack.append(child)
        if node.is_leaf:
            leaf_depth[index[node.name]] = depths[id(node)]
    out = np.zeros(m * (m - 1) // 2)

    def visit(node: Node) -> list[int]:
        if node.is_leaf:
            return [index[node.name]]
        groups = [visit(child) for child in node.children]
        d_node = depths[id(node)]
        for ga, gb in itertools.combinations(groups, 2):
            for i in ga:
                for j in gb:
                    out[position[min(i, j), max(i, j)]] = leaf_depth[i] + leaf_depth[j] - 2.0 * d_node
        merged = groups[0]
        for g in groups[1:]:
            merged.extend(g)
        return merged

    visit(root)
    return out


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


def scatter_prim_projection(x: np.ndarray) -> np.ndarray:
    """Subdominant ultrametric of each row of an (n, e) batch by Prim with a per-step scatter.

    A leaf v joining the tree through tree leaf p by an edge of weight w
    gets max(result[p, t], w) to every leaf t already in it, written into
    an (n, m, m) result matrix at every step.
    """
    x = np.asarray(x, dtype=float)
    r, e = x.shape
    m = leaf_count_from_dim(e)
    iu, ju = np.triu_indices(m, 1)
    at = np.arange(r)
    dist = np.empty((r, m, m))
    dist[:, iu, ju] = dist[:, ju, iu] = x
    ultra = np.full((r, m, m), -np.inf)  # -inf on the diagonal and off the tree
    outside = np.ones((r, m), dtype=bool)
    outside[:, 0] = False
    key = np.where(outside, dist[:, 0], np.inf)  # lightest edge into the tree
    via = np.zeros((r, m), dtype=np.intp)  # the tree end of that edge
    for _ in range(m - 1):
        v = np.argmin(key, axis=1)
        row = np.where(outside, -np.inf, np.maximum(ultra[at, via[at, v]], key[at, v][:, None]))
        ultra[at, v] = ultra[at, :, v] = row
        outside[at, v] = False
        key[at, v] = np.inf
        d = dist[at, v]
        closer = outside & (d < key)
        key = np.where(closer, d, key)
        via = np.where(closer, v[:, None], via)
    return ultra[:, iu, ju]


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


def nested_clades(root: Node) -> list[tuple[str, ...]]:
    """Sorted leaf labels below each internal node of a Node tree, each subtree collected on its own."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.children:
            below, todo = [], [node]
            while todo:
                item = todo.pop()
                todo.extend(item.children)
                if item.is_leaf:
                    below.append(item.name)
            out.append(tuple(sorted(below)))
    return sorted(out)


def path_weight(tree, name_a: str, name_b: str) -> float:
    """Leaf-to-leaf path weight by explicit path walking (no depth formula)."""
    parents = {}
    leaves = {}
    stack = [node_view(tree)]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves[node.name] = node
        for child in node.children:
            parents[id(child)] = node
            stack.append(child)

    def path_to_root(name):
        node = leaves[name]
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


def row_projection(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diff, lam, w) of (n, e) rows u over vertices v: diff = u - D, lam = min(diff), w = max_k(lam[k] + D_k)."""
    diff = u[:, None, :] - v
    lam = diff.min(axis=2)
    w = lam[:, 0, None] + v[0]
    for k in range(1, len(v)):
        np.maximum(w, lam[:, k, None] + v[k], out=w)
    return diff, lam, w


def row_evaluate(sample, polytope: TropicalPolytope) -> tuple[float, np.ndarray]:
    """Objective and subgradient in the row layout: one (n, s, e) pass, 2-D nonzero, einsum over n.

    The exact reference for the library's pair-major evaluate: every value
    it reads and every sum it forms arrive in the same order, so se and g
    agree bit for bit.
    """
    u = _sample_matrix(sample, polytope.e)
    v = polytope.vertices
    n = u.shape[0]
    s, e = v.shape
    tol = TIE_RTOL * max(np.abs(u).max(), np.abs(v).max())
    diff, lam, w = row_projection(u, v)
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


def grad_dist(p, x) -> np.ndarray:
    """Gradient at x of the tropical distance to p.

    Equals e_t - e_t' with t the first argmax and t' the first argmin of
    x - p; at a tie-free x this is the exact gradient, at ties it is one
    valid subgradient, and for x = p (up to a constant) it is zero.
    Ties keep the lowest index here; the library averages over them instead.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if p.shape != x.shape or p.ndim != 1:
        raise ValueError(f"dimension mismatch: {p.shape} vs {x.shape}")
    d = x - p
    t = int(np.argmax(d))
    t_min = int(np.argmin(d))
    g = np.zeros_like(d)
    if t != t_min:
        g[t] = 1.0
        g[t_min] = -1.0
    return g


def _attribution(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex lambda, per-vertex first argmin of u - D_k, per-coordinate winning vertex."""
    diff = u[None, :] - v
    lam = diff.min(axis=1)
    jstar = diff.argmin(axis=1)
    kstar = (lam[:, None] + v).argmax(axis=0)
    return lam, jstar, kstar


def jacobian_w(u, polytope) -> dict[tuple[int, int, int], float]:
    """Nonzero partial derivatives of the projection w with respect to the vertices.

    Key (k, l, l2) holds d w[l2] / d D_k[l].  Vertex k contributes to output
    coordinate l2 only when it wins the max there; within a winning row the
    entry is +1 on the diagonal l == l2 and -1 in the column of vertex k's
    minimizing coordinate, and the (l == l2 == argmin) cell stays 0.
    All argmax/argmin ties break to the lowest index, so the composition of
    this Jacobian with grad_dist equals the library's subgradient only at
    tie-free points.
    """
    v = polytope.vertices
    u = np.asarray(u, dtype=float)
    if u.shape != (polytope.e,):
        raise ValueError(f"dimension mismatch: point has shape {u.shape}, expected ({polytope.e},)")
    _, jstar, kstar = _attribution(u, v)
    entries: dict[tuple[int, int, int], float] = {}
    for l2 in range(polytope.e):
        k = int(kstar[l2])
        j = int(jstar[k])
        if l2 == j:
            continue
        entries[(k, j, l2)] = -1.0
        entries[(k, l2, l2)] = 1.0
    return entries


def broadcast_projection(sample, vertices) -> tuple[np.ndarray, np.ndarray]:
    """(w, lam) of an (n, e) sample in one (n, s, e) broadcast: lam = min(u - D), then w = max(lam + D)."""
    u = np.asarray(sample, dtype=float)
    v = np.asarray(vertices, dtype=float)
    lam = (u[:, None, :] - v[None, :, :]).min(axis=2)
    w = (lam[:, :, None] + v[None, :, :]).max(axis=1)
    return w, lam


def broadcast_objective(sample, vertices) -> float:
    """The objective in one broadcast: broadcast_projection, then the summed row ranges of u - w."""
    w, _ = broadcast_projection(sample, vertices)
    d = np.asarray(sample, dtype=float) - w
    return float(np.sum(d.max(axis=1) - d.min(axis=1)))


def trop_combine(scalars, points) -> np.ndarray:
    """Tropical linear combination of points: coordinatewise max_k(scalars[k] + points[k]).

    All points must share one dimension; scalars may be -inf (NEG_INF, the
    additive identity of the max-plus semiring).
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
