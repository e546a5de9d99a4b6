"""Equidistant trees, Newick I/O, ultrametric vectors, and tree-space projection.

A tree on m leaves is vectorized as its cophenetic vector: the m(m-1)/2
pairwise path weights in the fixed lexicographic pair order
(0,1),(0,2),...,(0,m-1),(1,2),...,(m-2,m-1).  Equidistant trees are exactly
the trees whose vectors satisfy the three-point condition (for every leaf
triple, the largest of the three pairwise values is attained at least
twice), and such a vector determines its tree uniquely.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Node",
    "PhyloTree",
    "NewickError",
    "parse_newick",
    "load_newick_file",
    "cophenetic_vector",
    "pair_order",
    "pair_index",
    "leaf_count_from_dim",
    "default_leaf_names",
    "is_ultrametric",
    "ultrametric_violation",
    "default_tolerance",
    "project_to_treespace",
    "reconstruct_tree",
    "random_ultrametric",
    "random_ultrametrics",
    "topology_signature",
]


# ---------------------------------------------------------------------------
# pair indexing


@lru_cache(maxsize=None)
def pair_order(m: int) -> tuple[tuple[int, int], ...]:
    """All leaf pairs (i, j), i < j, in the fixed lexicographic order."""
    return tuple((i, j) for i in range(m - 1) for j in range(i + 1, m))


@lru_cache(maxsize=None)
def _pair_index_matrix(m: int) -> np.ndarray:
    mat = np.zeros((m, m), dtype=np.intp)
    for idx, (i, j) in enumerate(pair_order(m)):
        mat[i, j] = idx
        mat[j, i] = idx
    mat.setflags(write=False)
    return mat


def pair_index(i: int, j: int, m: int) -> int:
    """Position of the unordered pair {i, j} in the vector for m leaves."""
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"invalid leaf pair ({i}, {j}) for m={m}")
    return int(_pair_index_matrix(m)[i, j])


def leaf_count_from_dim(e: int) -> int:
    """Leaf count m with e = m(m-1)/2, or an error when e is not of that form."""
    m = round((1 + math.isqrt(1 + 8 * e)) / 2)
    if m < 3 or m * (m - 1) // 2 != e:
        raise ValueError(f"dimension {e} is not m(m-1)/2 for any m >= 3")
    return m


def default_leaf_names(m: int) -> list[str]:
    """Leaf names "1".."m", used when a vector has no labels of its own."""
    return [str(i + 1) for i in range(m)]


# ---------------------------------------------------------------------------
# trees


@dataclass
class Node:
    """Tree node; length is the weight of the edge to the parent (0 at the root)."""

    name: str | None = None
    length: float = 0.0
    children: list["Node"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class PhyloTree:
    """Rooted phylogenetic tree with weighted edges and uniquely labeled leaves.

    ``leaf_names`` fixes the label-to-index assignment for vectorization.
    When omitted, labels are sorted lexicographically, which is the
    convention applied to parsed files; pass an explicit order to keep an
    existing index assignment.
    """

    def __init__(self, root: Node, leaf_names: Sequence[str] | None = None):
        self.root = root
        found = [node.name for node in self._walk() if node.is_leaf]
        if any(name is None for name in found):
            raise ValueError("every leaf must carry a label")
        if len(set(found)) != len(found):
            dupes = sorted({n for n in found if found.count(n) > 1})
            raise ValueError(f"duplicate leaf labels: {', '.join(dupes)}")
        if len(found) < 3:
            raise ValueError(f"need at least 3 leaves, got {len(found)}")
        if leaf_names is None:
            leaf_names = sorted(found)
        elif set(leaf_names) != set(found) or len(leaf_names) != len(found):
            raise ValueError("leaf_names must be exactly the tree's leaf labels")
        self.leaf_names: list[str] = list(leaf_names)
        self._index = {name: i for i, name in enumerate(self.leaf_names)}

    @property
    def m(self) -> int:
        return len(self.leaf_names)

    def _walk(self):
        """Iterative preorder traversal (children in given order)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def _depths(self) -> dict[int, float]:
        """Depth (total weight from the root) per node id."""
        depths = {id(self.root): 0.0}
        stack = [self.root]
        while stack:
            node = stack.pop()
            d = depths[id(node)]
            for child in node.children:
                depths[id(child)] = d + child.length
                stack.append(child)
        return depths

    def leaf_depths(self) -> np.ndarray:
        """Root-to-leaf path weights, ordered by leaf index."""
        depths = self._depths()
        out = np.zeros(self.m)
        for node in self._walk():
            if node.is_leaf:
                out[self._index[node.name]] = depths[id(node)]
        return out

    def height(self) -> float:
        return float(self.leaf_depths().max())

    def equidistance_gap(self) -> float:
        """Spread of the root-to-leaf path weights (0 for an equidistant tree)."""
        d = self.leaf_depths()
        return float(d.max() - d.min())

    def is_equidistant(self, tol: float | None = None) -> bool:
        if tol is None:
            tol = default_tolerance(self.leaf_depths())
        return self.equidistance_gap() <= tol

    def cophenetic_vector(self) -> np.ndarray:
        """Pairwise leaf-to-leaf path weights in the fixed pair order."""
        m = self.m
        mat = _pair_index_matrix(m)
        depths = self._depths()
        leaf_depth = self.leaf_depths()
        out = np.zeros(m * (m - 1) // 2)

        def visit(node: Node) -> list[int]:
            if node.is_leaf:
                return [self._index[node.name]]
            groups = [visit(child) for child in node.children]
            d_node = depths[id(node)]
            for ga, gb in itertools.combinations(groups, 2):
                for i in ga:
                    for j in gb:
                        out[mat[i, j]] = leaf_depth[i] + leaf_depth[j] - 2.0 * d_node
            merged = groups[0]
            for g in groups[1:]:
                merged.extend(g)
            return merged

        visit(self.root)
        return out

    def clades(self) -> list[frozenset[str]]:
        """Leaf-label set below each internal node, root included."""
        out = []

        def visit(node: Node) -> frozenset[str]:
            if node.is_leaf:
                return frozenset([node.name])
            below = frozenset().union(*(visit(c) for c in node.children))
            out.append(below)
            return below

        visit(self.root)
        return out

    def scaled(self, factor: float) -> "PhyloTree":
        """Copy of the tree with every branch length multiplied by factor."""

        def copy(node: Node) -> Node:
            return Node(node.name, node.length * factor, [copy(c) for c in node.children])

        return PhyloTree(copy(self.root), self.leaf_names)

    def to_newick(self) -> str:
        """Newick text with branch lengths at 12 significant digits."""

        def fmt(node: Node, is_root: bool) -> str:
            if node.is_leaf:
                body = node.name
            else:
                body = "(" + ",".join(fmt(c, False) for c in node.children) + ")"
            if is_root:
                return body
            return f"{body}:{node.length:.12g}"

        return fmt(self.root, True) + ";"

    def __repr__(self) -> str:
        return f"PhyloTree(m={self.m}, height={self.height():.6g})"


def cophenetic_vector(tree: PhyloTree) -> np.ndarray:
    """Pairwise leaf-to-leaf path weights of a tree (module-level alias)."""
    return tree.cophenetic_vector()


def topology_signature(tree: PhyloTree) -> str:
    """Canonical nested-set string of the tree topology.

    Clades are listed with sorted labels and ordered by size then
    lexicographically, so two trees share a signature exactly when they
    share a topology regardless of branch lengths or input label order.
    """
    clades = sorted((len(c), tuple(sorted(c))) for c in tree.clades())
    return "|".join("{" + ",".join(labels) + "}" for _, labels in clades)


# ---------------------------------------------------------------------------
# Newick parsing

_LABEL_RE = re.compile(r"[A-Za-z0-9_.]+")
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


class NewickError(ValueError):
    """Malformed Newick input; offset is the 0-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class _Parser:
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


def parse_newick(text: str) -> PhyloTree:
    """Parse one ';'-terminated Newick expression into a tree.

    Missing branch lengths default to 0; internal node labels are dropped.
    Leaf indices are assigned by sorting labels lexicographically.  Raises
    NewickError with a character offset on malformed input, duplicate leaf
    labels, or fewer than 3 leaves.
    """
    parser = _Parser(text)
    root = parser.parse_element()
    if parser.peek() != ";":
        raise parser.error("expected ';'")
    terminator = parser.pos
    parser.pos += 1
    if parser.peek() != "":
        raise parser.error("trailing characters after ';'")

    names = [n.name for n in _walk_nodes(root) if not n.children]
    if any(name is None for name in names):
        raise NewickError("leaf without a label", terminator)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise NewickError(f"duplicate leaf labels: {', '.join(dupes)}", terminator)
    if len(names) < 3:
        raise NewickError(f"need at least 3 leaves, got {len(names)}", terminator)
    return PhyloTree(root)


def _walk_nodes(root: Node):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def load_newick_file(path) -> tuple[list[tuple[int, PhyloTree]], list[tuple[int, NewickError]]]:
    """Read a Newick file: one tree per line, '#' comment and blank lines ignored.

    Returns (trees, errors), each a list of (line_number, value) pairs with
    1-based line numbers.
    """
    trees: list[tuple[int, PhyloTree]] = []
    errors: list[tuple[int, NewickError]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                trees.append((lineno, parse_newick(line)))
            except NewickError as err:
                errors.append((lineno, err))
    return trees, errors


# ---------------------------------------------------------------------------
# ultrametric vectors


# Rows per kernel chunk are chosen so that each temporary holds about this
# many elements; chunks of 2^17 elements and up run 2-3x slower at m=60.
_CHUNK_ELEMENTS = 1 << 15


def _as_rows(u) -> tuple[np.ndarray, int, bool]:
    """(2-D float rows, leaf count, whether u was a batch) for one vector or an (n, e) batch."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2):
        raise ValueError("expected a pairwise-distance vector or an (n, e) batch of them")
    rows = np.atleast_2d(u)
    return rows, leaf_count_from_dim(rows.shape[1]), u.ndim == 2


def _chunks(n: int, row_elements: int):
    """Row slices covering range(n), each about _CHUNK_ELEMENTS / row_elements rows."""
    step = max(1, _CHUNK_ELEMENTS // row_elements)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def default_tolerance(u):
    """Scale-aware tolerance: 1e-8 times the largest magnitude (per row for 2-D input)."""
    scale = np.max(np.abs(np.asarray(u, dtype=float)), axis=-1, initial=0.0)
    return 1e-8 * scale if np.ndim(u) == 2 else 1e-8 * float(scale)


@lru_cache(maxsize=None)
def _triple_pair_indices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair positions (ij, ik, jk) for every leaf triple i < j < k."""
    mat = _pair_index_matrix(m)
    i, j, k = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp).T
    return mat[i, j], mat[i, k], mat[j, k]


def ultrametric_violation(u):
    """Worst three-point defect: max over triples of (largest - second largest).

    Zero exactly when u is ultrametric.  u is one vector (the result is a
    float) or an (n, e) batch with one vector per row (the result is an
    array of n defects).  Each triple's largest and middle values are
    selected with maximum/minimum, not computed, so exact ties stay exact.
    Rows are processed in chunks of about _CHUNK_ELEMENTS triples.
    """
    rows, m, batched = _as_rows(u)
    ij, ik, jk = _triple_pair_indices(m)
    out = np.empty(len(rows))
    for part in _chunks(len(rows), ij.size):
        x = rows[part]
        a, b, c = x[:, ij], x[:, ik], x[:, jk]
        top = np.maximum(a, b)
        np.minimum(a, b, out=a)
        np.minimum(top, c, out=b)
        np.maximum(top, c, out=top)  # max(max(a, b), c)
        np.maximum(a, b, out=a)  # middle: max(min(a, b), min(max(a, b), c))
        out[part] = np.max(top - a, axis=1)
    return out if batched else float(out[0])


def is_ultrametric(u, tol=None):
    """Three-point condition check: the top two of every triple agree within tol.

    tol=None uses the scale-aware default; pass 0 for an exact check.  For
    an (n, e) batch the result is one boolean per row.
    """
    if tol is None:
        tol = default_tolerance(u)
    return ultrametric_violation(u) <= tol


# ---------------------------------------------------------------------------
# projection onto tree space


def project_to_treespace(x) -> np.ndarray:
    """Subdominant ultrametric of x: the closest point of tree space.

    Entry (i, j) is the minimax path weight between i and j in the complete
    graph with edge weights x: the largest edge on their path in a minimum
    spanning tree (Gower & Ross 1969).  Prim's algorithm grows that tree one
    leaf at a time; a leaf v joining through tree leaf p by an edge of
    weight w gets max(result[p, t], w) to every leaf t already in it.  The
    output is exactly ultrametric, <= x coordinatewise, fixes ultrametric
    inputs, minimizes the tropical distance to x over tree space, and holds
    only entries of x.  x is one vector or an (n, e) batch, one vector per
    row, and the result has its shape; rows go in chunks of about
    _CHUNK_ELEMENTS matrix entries.
    """
    rows, m, batched = _as_rows(x)
    if not np.all(np.isfinite(rows)):
        raise ValueError("coordinates must be finite")
    iu, ju = np.triu_indices(m, 1)  # the pair order, as row and column indices
    out = np.empty_like(rows)
    for part in _chunks(len(rows), m * m):
        r = len(rows[part])
        at = np.arange(r)
        dist = np.empty((r, m, m))
        dist[:, iu, ju] = dist[:, ju, iu] = rows[part]
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
        out[part] = ultra[:, iu, ju]
    return out if batched else out[0]


def random_ultrametric(m: int, seed: int) -> np.ndarray:
    """Random point of tree space: uniform(0,1) coordinates projected onto it."""
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    rng = np.random.default_rng(seed)
    return project_to_treespace(rng.random(m * (m - 1) // 2))


def random_ultrametrics(m: int, n: int, seed: int) -> np.ndarray:
    """n random tree-space points drawn from a single seeded stream, one per row."""
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    return project_to_treespace(rng.random((n, m * (m - 1) // 2)))


# ---------------------------------------------------------------------------
# tree reconstruction


def reconstruct_tree(u, names: Sequence[str] | None = None, tol: float | None = None) -> PhyloTree:
    """Unique equidistant tree whose cophenetic vector is u.

    Clusters are merged bottom-up at height u/2 (single-linkage dendrogram);
    merges whose heights agree within tol collapse into one multifurcating
    node.  ``names`` assigns leaf labels by index (default "1".."m") and the
    given order is kept, so the round trip through cophenetic_vector
    preserves coordinates.  Raises ValueError when u violates the
    three-point condition beyond tol or has a nonpositive entry.
    """
    rows, m, batched = _as_rows(u)
    if batched:
        raise ValueError("expected a 1-D pairwise-distance vector")
    u = rows[0]
    if tol is None:
        tol = default_tolerance(u)
    violation = ultrametric_violation(u)
    if violation > tol:
        raise ValueError(
            f"not ultrametric: worst three-point violation {violation:.3g} exceeds tolerance {tol:.3g}"
        )
    if np.min(u) <= 0:
        raise ValueError("all entries must be positive to realize a tree")
    if names is None:
        names = default_leaf_names(m)
    if len(names) != m or len(set(names)) != m:
        raise ValueError(f"need {m} distinct leaf names")

    pairs = pair_order(m)
    height_tol = tol / 2.0
    nodes: list[Node] = [Node(str(name)) for name in names]
    heights: dict[int, float] = {id(node): 0.0 for node in nodes}
    parent = list(range(m))
    roots: list[Node] = list(nodes)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx in np.argsort(u, kind="stable"):
        i, j = pairs[idx]
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        h = u[idx] / 2.0
        children: list[Node] = []
        for r in (ri, rj):
            top = roots[r]
            if not top.is_leaf and h - heights[id(top)] <= height_tol:
                children.extend(top.children)  # same merge height: flatten
            else:
                children.append(top)
        merged = Node(None, 0.0, children)
        heights[id(merged)] = h
        parent[rj] = ri
        roots[ri] = merged

    root = roots[find(0)]
    for node in _walk_nodes(root):
        for child in node.children:
            child.length = heights[id(node)] - heights[id(child)]
    return PhyloTree(root, list(names))
