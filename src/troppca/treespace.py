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
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "PhyloTree",
    "NewickError",
    "parse_newick",
    "load_newick_file",
    "cophenetic_vector",
    "leaf_depths",
    "pair_order",
    "pair_index",
    "leaf_count_from_dim",
    "default_leaf_names",
    "is_ultrametric",
    "ultrametric_violation",
    "default_tolerance",
    "project_to_treespace",
    "reconstruct_tree",
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
    i, j = np.triu_indices(m, 1)
    mat[i, j] = mat[j, i] = np.arange(len(i))
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


class PhyloTree:
    """Rooted phylogenetic tree with weighted edges and uniquely labeled leaves.

    The tree is a flat preorder record: per node, the index of its parent
    (-1 at the root) and the length of the edge to it; the node and the
    label of each leaf, in leaf (left-to-right) order; and, per pair of
    consecutive leaves, the node whose ',' separates them, which is their
    lowest common ancestor.  Depths are summed root-down once, when the
    record is made.  No method recurses, so trees may nest arbitrarily deep.
    The constructor takes the record as is; ``parse_newick`` and
    ``reconstruct_tree`` build valid ones.

    ``leaf_names`` fixes the label-to-index assignment for vectorization.
    When omitted, labels are sorted lexicographically, which is the
    convention applied to parsed files; pass an explicit order to keep an
    existing index assignment.
    """

    def __init__(self, parent, length, leaves, labels, leaf_names: Sequence[str] | None = None):
        self._parent = parent
        self._length = length
        self._leaves = leaves
        self._labels = labels
        # the node after leaf k in preorder is a child of the separating node
        self._seps = [parent[leaf + 1] for leaf in leaves[:-1]]
        depth = [0.0] * len(parent)
        for i in range(1, len(parent)):  # parents precede their children
            depth[i] = depth[parent[i]] + length[i]
        self._depth = depth
        self.leaf_names: list[str] = sorted(labels) if leaf_names is None else list(leaf_names)
        position = {name: k for k, name in enumerate(labels)}
        self._order = [position[name] for name in self.leaf_names]  # leaf position of each index

    @property
    def m(self) -> int:
        return len(self.leaf_names)

    def height(self) -> float:
        return float(leaf_depths(self).max())

    def cophenetic_vector(self) -> np.ndarray:
        """Pairwise leaf-to-leaf path weights in the fixed pair order."""
        return cophenetic_vector(self)

    def clades(self) -> list[frozenset[str]]:
        """Leaf-label set below each internal node, root included, in preorder."""
        below = [0] * len(self._parent)  # leaves below each node
        for leaf in self._leaves:
            below[leaf] = 1
        for i in range(len(below) - 1, 0, -1):
            below[self._parent[i]] += below[i]
        out = []
        seen = 0  # leaves before the node; its own leaves follow them in leaf order
        leaves = set(self._leaves)
        for i, count in enumerate(below):
            if i in leaves:
                seen += 1
            else:
                out.append(frozenset(self._labels[seen:seen + count]))
        return out

    def scaled(self, factor: float) -> "PhyloTree":
        """Copy of the tree with every branch length multiplied by factor."""
        if not factor >= 0:
            raise ValueError(f"scale factor must be nonnegative, got {factor}")
        length = [value * factor for value in self._length]
        return PhyloTree(self._parent, length, self._leaves, self._labels, self.leaf_names)

    def to_newick(self) -> str:
        """Newick text with branch lengths at 12 significant digits."""
        length = self._length
        names = dict(zip(self._leaves, self._labels))
        out: list[str] = []
        open_nodes: list[int] = []  # internal nodes whose ')' is still to come
        for i, up in enumerate(self._parent):
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

    def __repr__(self) -> str:
        return f"PhyloTree(m={self.m}, height={self.height():.6g})"


def _label_problem(labels: list[str]) -> str | None:
    """Why labels cannot name the leaves of a tree (duplicates, fewer than 3), or None."""
    if len(set(labels)) != len(labels):
        dupes = sorted({n for n in labels if labels.count(n) > 1})
        return f"duplicate leaf labels: {', '.join(dupes)}"
    if len(labels) < 3:
        return f"need at least 3 leaves, got {len(labels)}"
    return None


def _tree_batch(trees) -> tuple[list[PhyloTree], int, bool]:
    """(trees as a list, their shared leaf count, whether trees was a batch) for one tree or a sequence."""
    batched = not isinstance(trees, PhyloTree)
    batch = list(trees) if batched else [trees]
    if not batch:
        raise ValueError("expected at least one tree")
    m = batch[0].m
    if any(tree.m != m for tree in batch):
        raise ValueError("every tree of a batch must have the same number of leaves")
    return batch, m, batched


def leaf_depths(trees) -> np.ndarray:
    """Root-to-leaf path weights by leaf index: an (m,) vector for one tree, (n, m) for a sequence."""
    batch, _, batched = _tree_batch(trees)
    out = np.array([[tree._depth[tree._leaves[k]] for k in tree._order] for tree in batch])
    return out if batched else out[0]


def cophenetic_vector(trees) -> np.ndarray:
    """Pairwise leaf-to-leaf path weights in the fixed pair order.

    trees is one tree (the result is a vector) or a sequence of trees on
    the same number of leaves (an (n, e) batch, one row per tree).  The
    weight of leaves i and j is d_i + d_j - 2 l, with d the root-to-leaf
    depths and l the depth of their lowest common ancestor.  The ancestor
    of the leaves at positions a < b in leaf order is the shallowest of the
    nodes separating consecutive leaves a..b-1 (Bender & Farach-Colton
    2000), and no depth falls below an ancestor's, so l is a running
    minimum over separator depths that selects the ancestor's own depth.
    Every entry is thus the same sum of the same floats as a walk over the
    tree gives.  Rows go in chunks of about _CHUNK_ELEMENTS entries.
    """
    batch, m, batched = _tree_batch(trees)
    iu, ju = np.triu_indices(m, 1)  # the pair order, as leaf indices
    by_position = _pair_index_matrix(m)
    out = np.empty((len(batch), len(iu)))
    for part in _chunks(len(batch), len(iu)):
        chunk = batch[part]
        order = np.array([tree._order for tree in chunk])
        depth = np.array([[tree._depth[k] for k in tree._leaves] for tree in chunk])
        sep = np.array([[tree._depth[k] for k in tree._seps] for tree in chunk])
        # ancestor depths of the leaves at positions (a, b), a < b, in the pair order
        lca = np.concatenate([np.minimum.accumulate(sep[:, a:], axis=1) for a in range(m - 1)], axis=1)
        lca = np.take_along_axis(lca, by_position[order[:, iu], order[:, ju]], axis=1)
        depth = np.take_along_axis(depth, order, axis=1)
        out[part] = depth[:, iu] + depth[:, ju] - 2.0 * lca
    return out if batched else out[0]


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

_LABEL = r"[A-Za-z0-9_.]+"
_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# One token after blanks: (1) a leaf label, or a ')' with the internal label
# right after it, each with its optional (2) ':' and (3) branch length; or
# (4) any other character; or the end of the text, where no group is set.
_TOKEN_RE = re.compile(
    rf"[ \t]*(?:({_LABEL}|\)(?:{_LABEL})?)(?:[ \t]*(:)[ \t]*({_NUMBER})?)?|(.)|\Z)", re.DOTALL
)


class NewickError(ValueError):
    """Malformed Newick input; offset is the 0-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _token_error(text: str, k: int, message: str, at_length: bool = False) -> NewickError:
    """Error at the k-th token of text, past its blanks, or at its branch length (or where one should be)."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), k, None))
    if at_length:
        offset = match.start(3) if match.group(3) else match.end()
    else:
        offset = match.end() - len(match.group().lstrip(" \t"))
    return NewickError(message, offset)


def parse_newick(text: str) -> PhyloTree:
    """Parse one ';'-terminated Newick expression into a tree.

    Missing branch lengths default to 0; internal node labels are dropped.
    Leaf indices are assigned by sorting labels lexicographically.  Raises
    NewickError with a character offset on malformed input, a negative or
    non-finite branch length, duplicate leaf labels, fewer than 3 leaves,
    or a root-to-leaf depth that overflows to infinity.  One pass over the
    tokens, with an explicit stack, so nesting depth is unlimited.
    """
    parent: list[int] = []
    length: list[float] = []
    leaves: list[int] = []
    labels: list[str] = []
    open_nodes: list[int] = []  # internal nodes whose ')' is still to come
    expect_element = True  # after '(' or ','; otherwise after a complete element
    tokens = _TOKEN_RE.findall(text)
    # the loop ends at the ';' that closes the root: the end token is an error in every state
    for terminator, (head, colon, number, char) in enumerate(tokens):
        if expect_element:
            node = len(parent)
            if char == "(":
                parent.append(open_nodes[-1] if open_nodes else -1)
                length.append(0.0)
                open_nodes.append(node)
                continue
            if not head or head[0] == ")":
                raise _token_error(text, terminator, "expected a leaf label or '('")
            parent.append(open_nodes[-1] if open_nodes else -1)
            length.append(0.0)
            leaves.append(node)
            labels.append(head)
            expect_element = False
        elif char == "," and open_nodes:
            expect_element = True
            continue
        elif head[:1] == ")" and open_nodes:
            node = open_nodes.pop()
        elif char == ";" and not open_nodes:
            break
        else:
            raise _token_error(text, terminator, "expected ',' or ')'" if open_nodes else "expected ';'")
        if colon:
            if not number:
                raise _token_error(text, terminator, "malformed branch length", at_length=True)
            value = float(number)
            if not math.isfinite(value):
                raise _token_error(text, terminator, "non-finite branch length", at_length=True)
            if value < 0:
                raise _token_error(text, terminator, "negative branch length", at_length=True)
            length[node] = value
    head, _, _, char = tokens[terminator + 1]  # the end of the text, or what follows the ';'
    if head or char:
        raise _token_error(text, terminator + 1, "trailing characters after ';'")

    problem = _label_problem(labels)
    if problem:
        raise _token_error(text, terminator, problem)
    tree = PhyloTree(parent, length, leaves, labels)
    if max(tree._depth) == math.inf:
        raise _token_error(text, terminator, "non-finite root-to-leaf depth")
    return tree


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


@lru_cache(maxsize=8)
def _triple_bounds(m: int) -> tuple[int, ...]:
    """Pair positions that cut the triples i < j < k, pair by pair, into blocks of about _CHUNK_ELEMENTS."""
    ends = np.cumsum(m - 1 - np.triu_indices(m, 1)[1])  # pair (i, j) holds the triples (i, j, k > j)
    blocks = max(1, round(int(ends[-1]) / _CHUNK_ELEMENTS))
    cuts = np.searchsorted(ends, ends[-1] * np.arange(1, blocks) / blocks) + 1
    return (0, *cuts.tolist(), len(ends))


@lru_cache(maxsize=8)
def _triple_block(m: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair positions (ij, ik, jk) of the triples of pairs lo..hi-1, in O(m + block) memory."""
    row = np.arange(m)
    first = row * (2 * m - row - 1) // 2  # position of pair (x, x + 1); (x, y) sits at first[x] + y - x - 1
    ij = np.arange(lo, hi)
    i = np.searchsorted(first, ij, side="right") - 1
    j = ij - first[i] + i + 1
    count = m - 1 - j
    k = np.arange(count.sum()) + np.repeat(j + 1 - (np.cumsum(count) - count), count)
    ij, i, j = np.repeat(ij, count), np.repeat(i, count), np.repeat(j, count)
    return ij, first[i] + k - i - 1, first[j] + k - j - 1


def ultrametric_violation(u):
    """Worst three-point defect: max over triples of (largest - second largest).

    Zero exactly when u is ultrametric.  u is one vector (the result is a
    float) or an (n, e) batch with one vector per row (the result is an
    array of n defects).  Each triple's largest and middle values are
    selected with maximum/minimum, not computed, so exact ties stay exact.
    Triples go in blocks and rows in chunks of about _CHUNK_ELEMENTS triples.
    """
    rows, m, batched = _as_rows(u)
    out = np.zeros(len(rows))
    bounds = _triple_bounds(m)
    for lo, hi in zip(bounds, bounds[1:]):
        ij, ik, jk = _triple_block(m, lo, hi)
        for part in _chunks(len(rows), ij.size):
            x = rows[part]
            a, b, c = x[:, ij], x[:, ik], x[:, jk]
            top = np.maximum(a, b)
            np.minimum(a, b, out=a)
            np.minimum(top, c, out=b)
            np.maximum(top, c, out=top)  # max(max(a, b), c)
            np.maximum(a, b, out=a)  # middle: max(min(a, b), min(max(a, b), c))
            np.maximum(out[part], np.max(top - a, axis=1), out=out[part])
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


def _kruskal_order(x: np.ndarray) -> np.ndarray:
    """Per row of x, the pair positions Kruskal's algorithm merges, in merge order.

    Kruskal takes edges in the order of a stable sort of the row and keeps
    each that joins two components.  Ranked by that sort, the edges are
    totally ordered, so the kept edges form the unique minimum spanning
    tree of the ranks.  A batched Prim's algorithm finds it in m - 1 steps
    over (n, m) arrays, and sorting its ranks gives Kruskal's order.
    """
    r, e = x.shape
    m = leaf_count_from_dim(e)
    by_leaves = _pair_index_matrix(m)
    at = np.arange(r)[:, None]
    order = np.argsort(x, axis=1, kind="stable")
    rank = np.empty_like(order)
    rank[at, order] = np.arange(e)
    outside = np.ones((r, m), dtype=bool)
    outside[:, 0] = False
    key = rank[:, by_leaves[0]]  # rank of the lightest edge into the tree
    edges = np.empty((r, m - 1), dtype=np.intp)  # ranks of the spanning tree's edges
    for t in range(m - 1):
        v = np.argmin(np.where(outside, key, e), axis=1)[:, None]
        edges[:, t] = key[at, v][:, 0]
        outside[at, v] = False
        d = rank[at, by_leaves[v[:, 0]]]
        key = np.where(outside & (d < key), d, key)
    return order[at, np.sort(edges, axis=1)]


def _single_linkage(rows: np.ndarray, half_tol: np.ndarray) -> list[tuple[list, list, list, list]]:
    """Single-linkage dendrogram of every row: (parent, length, leaves, leaf indices) preorder records.

    Merge t of _kruskal_order is node m + t, at height u/2, over the
    components of the pair's first and then its second leaf; an operand
    merge within half_tol (per row) below it collapses into it.  The
    collapsed tree's preorder is the binary tree's preorder without the
    collapsed merges.  Rows go in chunks of about _CHUNK_ELEMENTS pairs.
    """
    n, e = rows.shape
    m = leaf_count_from_dim(e)
    size = 2 * m - 1  # leaves 0..m-1, then the merges
    iu, ju = np.triu_indices(m, 1)
    out = []
    for part in _chunks(n, e):
        x, r = rows[part], len(rows[part])
        at = np.arange(r)[:, None]
        edges = _kruskal_order(x)
        comp = np.tile(np.arange(m), (r, 1))  # component of each leaf, named by one of its leaves
        top = comp.copy()  # the node standing for each component
        height = np.zeros((r, size))
        height[:, m:] = x[at, edges] / 2.0
        count = np.ones((r, size), dtype=np.intp)  # leaves below each node
        operands = np.empty((r, m - 1, 2), dtype=np.intp)
        for t in range(m - 1):
            a, b = comp[at, iu[edges[:, t, None]]], comp[at, ju[edges[:, t, None]]]
            operands[:, t] = pair = np.concatenate([top[at, a], top[at, b]], axis=1)
            top[at, a] = m + t
            count[:, m + t] = count[at, pair].sum(axis=1)
            comp = np.where(comp == b, a, comp)
        # root down: binary preorder position, collapse, nearest kept ancestor
        position = np.zeros((r, size), dtype=np.intp)
        kept = np.ones((r, size), dtype=bool)
        above = np.zeros((r, size), dtype=np.intp)
        for node in range(size - 1, m - 1, -1):
            pair = operands[:, node - m]
            first = position[:, node, None] + 1
            position[at, pair] = np.concatenate([first, first + 2 * count[at, pair[:, :1]] - 1], axis=1)
            kept[at, pair] = (pair < m) | (height[:, node, None] - height[at, pair] > half_tol[part, None])
            above[at, pair] = np.where(kept[:, node], node, above[:, node])[:, None]
        node = np.empty_like(position)  # node at each binary preorder position
        node[at, position] = np.arange(size)
        keep = kept[at, node]
        index = np.cumsum(keep, axis=1) - 1  # record index of each kept position
        index_of = np.empty_like(index)
        index_of[at, node] = index
        up = above[at, node]
        parent = index_of[at, up]
        parent[:, 0] = -1
        length = height[at, up] - height[at, node]
        length[:, 0] = 0.0
        leaf = node < m
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        starts = [0] + ends[:-1]
        parent, length = parent[keep].tolist(), length[keep].tolist()
        leaves, ids = index[leaf].reshape(r, m).tolist(), node[leaf].reshape(r, m).tolist()
        out.extend(
            (parent[lo:hi], length[lo:hi], leaf_row, id_row)
            for lo, hi, leaf_row, id_row in zip(starts, ends, leaves, ids)
        )
    return out


def reconstruct_tree(u, names: Sequence[str] | None = None, tol: float | None = None):
    """Unique equidistant tree whose cophenetic vector is u.

    u is one vector (the result is a PhyloTree) or an (n, e) batch with
    one vector per row (a list of n trees).  Clusters are merged bottom-up
    at height u/2 (single-linkage dendrogram); a merge whose height is
    within tol/2 of an operand's merges with it into one multifurcating
    node.  ``names`` assigns leaf labels by index (default "1".."m") and
    the given order is kept, so the round trip through cophenetic_vector
    preserves coordinates.  tol defaults to default_tolerance per row.
    Raises ValueError, naming the first such row of a batch, when a vector
    violates the three-point condition beyond tol or has a nonpositive
    entry.
    """
    rows, m, batched = _as_rows(u)
    if not np.all(np.isfinite(rows)):
        raise ValueError("coordinates must be finite")
    tol = default_tolerance(rows) if tol is None else np.full(len(rows), float(tol))
    violation = ultrametric_violation(rows)
    bad = np.flatnonzero((violation > tol) | (rows.min(axis=1) <= 0))
    if bad.size:
        r = bad[0]
        where = f"row {r}: " if batched else ""
        if violation[r] > tol[r]:
            raise ValueError(
                f"{where}not ultrametric: worst three-point violation {violation[r]:.3g}"
                f" exceeds tolerance {tol[r]:.3g}"
            )
        raise ValueError(f"{where}all entries must be positive to realize a tree")
    names = default_leaf_names(m) if names is None else [str(name) for name in names]
    if len(names) != m or len(set(names)) != m:
        raise ValueError(f"need {m} distinct leaf names")
    trees = [
        PhyloTree(parent, length, leaves, [names[k] for k in ids], names)
        for parent, length, leaves, ids in _single_linkage(rows, tol / 2.0)
    ]
    return trees if batched else trees[0]
