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
from typing import Sequence

import numpy as np

__all__ = [
    "PhyloTree",
    "NewickError",
    "parse_newick",
    "load_newick_file",
    "cophenetic_vector",
    "leaf_depths",
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
    2000), and no depth falls below an ancestor's, so l is the _between
    minimum of separator depths over leaf order and selects the ancestor's
    own depth.  Every entry is thus the same sum of the same floats as a
    walk over the tree gives.  Rows go in chunks of about _CHUNK_ELEMENTS
    range-table entries.
    """
    batch, m, batched = _tree_batch(trees)
    iu, ju = np.triu_indices(m, 1)  # the pair order, as leaf indices
    out = np.empty((len(batch), len(iu)))
    for part in _chunks(len(batch), m * m):
        chunk = batch[part]
        order = np.array([tree._order for tree in chunk])
        sep = np.array([[tree._depth[k] for k in tree._seps] for tree in chunk])
        depth = leaf_depths(chunk)
        out[part] = depth[:, iu] + depth[:, ju] - 2.0 * _between(order, sep.T, np.minimum)
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
    or a root-to-leaf depth or leaf-to-leaf path length that overflows to
    infinity.  One pass over the tokens, with an explicit stack, so nesting
    depth is unlimited.
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
    deepest = max(tree._depth)
    if deepest == math.inf:
        raise _token_error(text, terminator, "non-finite root-to-leaf depth")
    # the longest leaf-to-leaf path joins the two deepest leaves, and it can
    # overflow only where twice the deepest depth does
    if 2.0 * deepest == math.inf and sum(sorted(tree._depth[leaf] for leaf in leaves)[-2:]) == math.inf:
        raise _token_error(text, terminator, "non-finite leaf-to-leaf path length")
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


def ultrametric_violation(u):
    """Worst three-point defect: max over triples of (largest - second largest).

    Zero exactly when u is ultrametric.  u is one vector (the result is a
    float) or an (n, e) batch with one vector per row (the result is an
    array of n defects).  Each triple's largest and middle values are
    selected with maximum/minimum, not computed, so exact ties stay exact.
    The triples i < j < k are taken by middle leaf j: with the rows laid
    out as the upper triangle of an (m, m, rows) array d, the pairs ij, ik
    and jk of all of them are the slices d[:j, j], d[:j, j+1:] and
    d[j, j+1:].  Rows go in chunks of about _CHUNK_ELEMENTS triples of the
    largest middle leaf, (m-1)^2/4 of them.
    """
    rows, m, batched = _as_rows(u)
    iu, ju = np.triu_indices(m, 1)  # the pair order, as row and column indices
    out = np.zeros(len(rows))
    for part in _chunks(len(rows), (m - 1) ** 2 // 4):
        d = np.empty((m, m, len(rows[part])))  # rows last, so numpy's inner loops run along them
        d[iu, ju] = rows[part].T
        worst = out[part]
        for j in range(1, m - 1):
            a, b, c = d[:j, j, None], d[:j, j + 1:], d[None, j, j + 1:]
            top = np.maximum(a, b)
            middle = np.minimum(top, c)
            np.maximum(top, c, out=top)  # max(max(a, b), c)
            np.maximum(np.minimum(a, b), middle, out=middle)  # max(min(a, b), min(max(a, b), c))
            np.subtract(top, middle, out=top)
            np.maximum(worst, np.max(top, axis=(0, 1)), out=worst)
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
# range extremes: cophenetic vectors and projection onto tree space


def _between(position: np.ndarray, gaps: np.ndarray, extreme) -> np.ndarray:
    """Per row and leaf pair, the extreme of the gaps between the two leaves' positions.

    position (r, m) holds each leaf's position in a per-row order, gaps
    (m-1, r) the gap after each position but the last, and extreme is
    np.minimum or np.maximum.  Entry (i, j) of the (r, e) result, in the
    pair order, is extreme(gaps[a..b-1]) with a < b the positions of
    leaves i and j.  It only selects input values, so it is exact.
    """
    r, m = position.shape
    table = np.empty((m, m, r))  # table[q, p] = extreme(gaps[p..q-1]) for p < q; rows last
    table[np.arange(m - 1), np.arange(m - 1)] = gaps  # then table[p + 1, p] = extreme(gaps[p], gaps[p])
    # one vectorized extreme per position: a running ufunc reduction walks element by element
    for q in range(1, m):
        extreme(table[q - 1, :q], gaps[q - 1], out=table[q, :q])
    iu, ju = np.triu_indices(m, 1)  # the pair order, as leaf indices
    a, b = position[:, iu], position[:, ju]
    return table.reshape(-1)[(np.maximum(a, b) * m + np.minimum(a, b)) * r + np.arange(r)[:, None]]


def _prim(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm from leaf 0 on each row of an (r, e) batch of pairwise weights.

    Returns (order, joined), both (m, r): order[p] is the leaf that joins
    the tree at step p (leaf 0 at step 0) and joined[p] the weight of the
    edge it joins by (joined[0] is unset).  Each step takes the outside
    leaf of lightest key, the lowest index on ties, then lowers every key
    to the new leaf's weights and keeps the keys of leaves already in the
    tree at inf.
    """
    r = len(x)
    iu, ju = np.triu_indices(m, 1)  # the pair order, as row and column indices
    weights = np.empty((r * m, m))
    dist = weights.reshape(r, m, m)
    dist[:, iu, ju] = dist[:, ju, iu] = x
    base = np.arange(r) * m  # flat index of each row's leaf 0
    key = dist[:, 0].copy()  # lightest edge into the tree, inf once in it
    key[:, 0] = np.inf
    done = np.zeros((r, m), dtype=bool)
    done[:, 0] = True
    order = np.empty((m, r), dtype=np.intp)
    order[0] = base
    joined = np.empty((m, r))
    for p in range(1, m):
        v = np.add(base, key.argmin(axis=1), out=order[p])  # flat indices into key and done
        key.take(v, out=joined[p])
        done.put(v, True)
        np.minimum(key, weights.take(v, axis=0), out=key)
        np.putmask(key, done, np.inf)
    return order - base, joined


def project_to_treespace(x) -> np.ndarray:
    """Subdominant ultrametric of x: the closest point of tree space.

    Entry (i, j) is the minimax path weight between i and j in the complete
    graph with edge weights x: the largest edge on their path in a minimum
    spanning tree (Gower & Ross 1969).  Prim's algorithm grows that tree
    from leaf 0; let leaf order[p] join at step p by an edge of weight
    joined[p].  For steps p < q the entry of order[p] and order[q] is
    max(joined[p+1..q]): by induction on q, since the edge by which step q
    joins weighs no less than any join since the step of its tree end.  So
    the whole matrix is the _between maximum of join weights over Prim
    order, as cophenetic_vector is the _between minimum of separator
    depths over leaf order.  The output is exactly ultrametric, <= x
    coordinatewise, fixes ultrametric inputs, minimizes the tropical
    distance to x over tree space, and holds only entries of x.  x is one
    vector or an (n, e) batch, one vector per row, and the result has its
    shape; rows go in chunks of about _CHUNK_ELEMENTS matrix entries.
    """
    rows, m, batched = _as_rows(x)
    if not np.all(np.isfinite(rows)):
        raise ValueError("coordinates must be finite")
    out = np.empty_like(rows)
    for part in _chunks(len(rows), m * m):
        order, joined = _prim(rows[part], m)
        r = order.shape[1]
        step = np.empty((r, m), dtype=np.intp)  # the step at which each leaf joins
        step[np.arange(r), order] = np.arange(m)[:, None]
        out[part] = _between(step, joined[1:], np.maximum)
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


def _single_linkage(rows: np.ndarray, half_tol: np.ndarray) -> list[tuple[list, list, list, list]]:
    """Single-linkage dendrogram of every row: (parent, length, leaves, leaf indices) preorder records.

    In _prim's order every cluster is a run of consecutive steps, and merge
    t, between steps t and t+1, is at height h[t] = joined[t+1]/2.  The
    binary dendrogram is the Cartesian tree of h: merge t's run reaches
    left to the nearest merge of height >= h[t] and right to the nearest
    of height > h[t], so of tied merges the leftmost is on top, and the
    lower of those two bounds is its parent.  A merge within half_tol (per
    row) below its parent collapses into it.  Each node's parent is the
    lowest kept merge whose run strictly contains its own, and the
    preorder lists nodes by first step, the longer run first.  On ties
    argmin takes the lowest leaf, so Prim enters every cluster at its
    lowest leaf and, for exact ultrametrics, children come in the order of
    their lowest leaves (the reference is
    tests/oracles.py::union_find_reconstruct_tree).  Rows go in chunks of
    about _CHUNK_ELEMENTS matrix entries.
    """
    n, e = rows.shape
    m = leaf_count_from_dim(e)
    t = np.arange(m - 1)
    steps = np.arange(m)
    out = []
    for part in _chunks(n, m * m):
        order, joined = _prim(rows[part], m)
        r = order.shape[1]
        at = np.arange(r)[:, None]
        h = joined[1:].T / 2.0  # h[:, t]: height of merge t
        own, other = h[:, :, None], h[:, None, :]
        left = np.where((t < t[:, None]) & (other >= own), t, -1).max(axis=2)
        right = np.where((t > t[:, None]) & (other > own), t, m - 1).min(axis=2)
        bound = np.append(h, np.full((r, 1), np.inf), axis=1)  # at -1 and m - 1: no bound
        parent_height = np.minimum(bound[at, left], bound[at, right])
        # nodes: the leaf at each step, then the merges; node k runs over steps first[k]..last[k]
        kept = np.concatenate([np.ones((r, m), dtype=bool), parent_height - h > half_tol[part, None]], axis=1)
        first = np.concatenate([np.broadcast_to(steps, (r, m)), left + 1], axis=1)
        last = np.concatenate([np.broadcast_to(steps, (r, m)), right], axis=1)
        height = np.concatenate([np.zeros((r, m)), h], axis=1)
        holds = (
            kept[:, None, m:]
            & (first[:, None, m:] <= first[:, :, None])
            & (last[:, None, m:] >= last[:, :, None])
            & (height[:, None, m:] > height[:, :, None])
        )
        up = m + np.where(holds, height[:, None, m:], np.inf).argmin(axis=2)
        node = np.argsort(np.where(kept, first * m + (m - 1) - (last - first), m * m), axis=1)  # in preorder
        index = np.empty_like(node)  # record index of each node
        index[at, node] = np.arange(2 * m - 1)
        up = up[at, node]
        parent = index[at, up]
        parent[:, 0] = -1
        length = height[at, up] - height[at, node]
        length[:, 0] = 0.0
        count = kept.sum(axis=1)
        listed = np.arange(2 * m - 1) < count[:, None]
        ends = np.cumsum(count).tolist()
        starts = [0] + ends[:-1]
        parent, length = parent[listed].tolist(), length[listed].tolist()
        out.extend(
            (parent[lo:hi], length[lo:hi], leaf_row, id_row)
            for lo, hi, leaf_row, id_row in zip(starts, ends, index[:, :m].tolist(), order.T.tolist())
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
    preserves coordinates.  Children are listed by lowest leaf when u is
    exactly ultrametric, as in the reference
    tests/oracles.py::union_find_reconstruct_tree; within tol of an
    ultrametric only the order of children may differ from it.  tol
    defaults to default_tolerance per row, and a given tol must be
    nonnegative and finite.  Raises ValueError, naming the first such row
    of a batch, when a vector violates the three-point condition beyond
    tol or has a nonpositive entry.
    """
    rows, m, batched = _as_rows(u)
    if not np.all(np.isfinite(rows)):
        raise ValueError("coordinates must be finite")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
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
