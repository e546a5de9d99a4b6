"""Equidistant trees, Newick I/O, ultrametric vectors, and tree-space projection.

A tree on m leaves is vectorized as its cophenetic vector: the m(m-1)/2
pairwise path weights in the fixed lexicographic pair order
(0,1),(0,2),...,(0,m-1),(1,2),...,(m-2,m-1).  Equidistant trees are exactly
the trees whose vectors satisfy the three-point condition (for every leaf
triple, the largest of the three pairwise values is attained at least
twice), and such a vector determines its tree uniquely.
"""

from __future__ import annotations

import collections
import contextlib
import functools
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


@functools.lru_cache(maxsize=16)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (iu, ju, index) on m leaves: the pair order as leaf indices; index[i, j] = index[j, i], 0 at i = j."""
    iu, ju = np.triu_indices(m, 1)
    index = np.zeros((m, m), dtype=np.intp)
    index[iu, ju] = index[ju, iu] = np.arange(len(iu))
    for a in (iu, ju, index):
        a.setflags(write=False)
    return iu, ju, index


def default_leaf_names(m: int) -> list[str]:
    """Leaf names "1".."m", used when a vector has no labels of its own."""
    return [str(i + 1) for i in range(m)]


# ---------------------------------------------------------------------------
# trees


class PhyloTree:
    """Rooted phylogenetic tree with weighted edges and uniquely labeled leaves.

    A tree is a view of one tree of a _Batch, the flat records of many
    trees that parse_newick, load_newick_file, reconstruct_tree and
    scaled build and _trees cuts up; making one copies nothing.  Its
    record, sliced from the batch when read, is flat and in preorder: per
    node, the index of its parent (-1 at the root) and the length of the
    edge to it; the node and the label of each leaf, in leaf
    (left-to-right) order; per leaf index, its position in leaf order and
    its root-to-leaf depth; and per pair of consecutive leaves the depth
    of the node whose ',' separates them, which is their lowest common
    ancestor.  No method recurses, so trees may nest arbitrarily deep.

    ``leaf_names`` fixes the label-to-index assignment for vectorization:
    parsed trees sort their labels lexicographically, reconstructed trees
    keep the names they are given.
    """

    def __init__(self, batch, span: tuple[int, int, int, int, int]):
        self._batch = batch
        self._span = span  # its first node, end of nodes, first leaf, end of leaves and tree index in batch

    def _part(self, field: str) -> np.ndarray:
        return getattr(self._batch, field)[_SLICE[_PER[field]](*self._span)]

    _parent, _length, _leaves, _labels, _position, _leaf_depth, _sep_depth = (
        property(lambda tree, field=field: tree._part(field))
        for field in ("parent", "length", "leaves", "labels", "position", "depth", "sep"))

    @property
    def leaf_names(self) -> list[str]:
        return self._part("names").tolist()

    @property
    def m(self) -> int:
        return self._span[3] - self._span[2]

    def height(self) -> float:
        return float(self._leaf_depth.max())

    def cophenetic_vector(self) -> np.ndarray:
        """Pairwise leaf-to-leaf path weights in the fixed pair order."""
        return cophenetic_vector(self)

    def scaled(self, factor: float) -> "PhyloTree":
        """Copy of the tree with every branch length multiplied by factor, which must be finite and nonnegative."""
        factor = float(factor)
        if not 0.0 <= factor < math.inf:
            raise ValueError(f"scale factor must be finite and nonnegative, got {factor}")
        return _trees(_scaled(_joined([self]), np.array([factor])))[0]

    def to_newick(self) -> str:
        """Newick text with branch lengths at 12 significant digits."""
        return _newick(self._parent, self._length, np.array([len(self._parent)]), self._labels)[:-1]

    def __repr__(self) -> str:
        return f"PhyloTree(m={self.m}, height={self.height():.6g})"


def _depths(parent: np.ndarray, length: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Root-down path weights of a forest: depth[i] = depth[parent[i]] + length[i], 0 at the roots.

    parent (-1 at the roots) indexes the same flat arrays; level is each node's edge count to its root.  One
    vectorized sum per level covers every tree, so each depth is the single addition a walk from the root makes.
    """
    # in one or two bytes, numpy's stable sort is a radix sort
    level = level.astype(np.min_scalar_type(level.max(initial=0)))
    order = np.argsort(level, kind="stable")  # nodes level by level
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    above = rank[parent[order]]  # place of each node's parent in that order; unused at the roots
    lengths = length[order]
    out = np.zeros(len(order))  # the roots stay at 0
    edges = np.cumsum(np.bincount(level)).tolist()  # where each level starts and ends in that order
    for lo, hi in zip(edges, edges[1:]):
        np.add(out[above[lo:hi]], lengths[lo:hi], out=out[lo:hi])
    depth = np.empty_like(out)
    depth[order] = out
    return depth


# Trees laid end to end in flat arrays.  Per node: parent (within its tree, -1 at
# the root) and length.  Per leaf in leaf order: leaves (its node within its tree)
# and labels.  Per leaf index: position (in leaf order), names and depth.  Per tree:
# nodes and count, its node and leaf counts.  sep: the separator depths, count - 1
# per tree.  labels and names hold str objects.
_Batch = collections.namedtuple("_Batch", "parent length leaves position nodes count labels names depth sep")
# what each field has one entry per: node, leaf, tree, or gap between two consecutive leaves of a tree
_PER = dict(parent="node", length="node", leaves="leaf", position="leaf", nodes="tree", count="tree",
            labels="leaf", names="leaf", depth="leaf", sep="gap")
# the entries of each kind that tree t holds, from its nodes a:b and leaves c:d
_SLICE = dict(node=lambda a, b, c, d, t: slice(a, b), leaf=lambda a, b, c, d, t: slice(c, d),
              tree=lambda a, b, c, d, t: slice(t, t + 1), gap=lambda a, b, c, d, t: slice(c - t, d - t - 1))


def _batch(parent, length, leaves, position, nodes, count, labels, names, level=None) -> _Batch:
    """The _Batch of flat records, depths summed by one _depths call; level, if not given, from _spans."""
    node_start = np.cumsum(nodes) - nodes
    leaf_start = np.cumsum(count) - count
    up = np.where(parent < 0, -1, parent + np.repeat(node_start, nodes))
    if level is None:  # a node's ancestors: the nodes before it whose subtree runs do not end before it
        last = _spans(parent, nodes)[1]
        level = np.arange(len(up)) - np.cumsum(np.bincount(last + 1, minlength=len(up) + 1))[:-1]
    depth = _depths(up, length, level)
    leaf_node = leaves + np.repeat(node_start, count)
    leaf_depth = depth[leaf_node][position + np.repeat(leaf_start, count)]
    # the node after leaf k in preorder is a child of the node separating leaves k and k+1
    sep_depth = depth[up[np.delete(leaf_node, leaf_start + count - 1) + 1]]
    return _Batch(parent, length, leaves, position, nodes, count, labels, names, leaf_depth, sep_depth)


def _trees(batch: _Batch) -> list[PhyloTree]:
    """The trees of a batch, as views that copy nothing."""
    node_end, leaf_end = np.cumsum(batch.nodes).tolist(), np.cumsum(batch.count).tolist()
    spans = zip([0, *node_end], node_end, [0, *leaf_end], leaf_end, itertools.count())
    return list(map(PhyloTree, itertools.repeat(batch), spans))


def _fields(trees, names) -> list[np.ndarray]:
    """The named _Batch fields of trees: their batch's own arrays if they are its trees in order, else a copy.

    load_newick_file and reconstruct_tree return whole batches.
    """
    batch = trees[0]._batch
    if len(trees) == len(batch.count) and all(tree._span[4] == t and tree._batch is batch for t, tree in enumerate(trees)):
        return [getattr(batch, name) for name in names]
    return [np.concatenate([tree._part(name) for tree in trees]) for name in names]


def _joined(trees) -> _Batch:
    """The batch of a nonempty sequence of trees: their own batch if they are all of it in order, else a copy."""
    return _Batch(*_fields(trees, _Batch._fields))


def _take(batch: _Batch, keep: np.ndarray) -> _Batch:
    """The trees of a batch where keep, one boolean per tree, holds."""
    if keep.all():
        return batch
    masks = {"node": np.repeat(keep, batch.nodes), "leaf": np.repeat(keep, batch.count), "tree": keep,
             "gap": np.repeat(keep, batch.count - 1)}
    return _Batch(*(field[masks[_PER[name]]] for name, field in zip(_Batch._fields, batch)))


def _scaled(batch: _Batch, factors: np.ndarray) -> _Batch:
    """The batch with each tree's branch lengths multiplied by its factor, depths summed anew."""
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats overflow, to inf or nan
        return _batch(batch.parent, batch.length * np.repeat(factors, batch.nodes), *batch[2:8])


def _label_problem(labels: list[str]) -> str | None:
    """Why labels cannot name the leaves of a tree (duplicates, fewer than 3), or None."""
    if len(set(labels)) != len(labels):
        dupes = sorted(n for n, k in collections.Counter(labels).items() if k > 1)
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
    (2^18) range-table entries, m^2 per row.
    """
    batch, m, batched = _tree_batch(trees)
    out = _cophenetic(*_fields(batch, ("position", "depth", "sep")), m)[0]
    return out if batched else out[0]


def _cophenetic(position, depth, sep, m: int) -> tuple[np.ndarray, np.ndarray]:
    """cophenetic_vector of trees on m leaves each from their flat _Batch fields: (n, e), and the (n, m) depths."""
    position, depth, sep = position.reshape(-1, m), depth.reshape(-1, m), sep.reshape(-1, m - 1)
    n = len(depth)
    iu, ju, _ = _pairs(m)
    out = np.empty((n, len(iu)))
    for part in _chunks(n, m * m):
        d = depth[part]
        out[part] = d[:, iu] + d[:, ju] - 2.0 * _between(position[part], sep[part].T, np.minimum)
    return out, depth


def _checked_vectors(batch: _Batch) -> tuple[np.ndarray, np.ndarray]:
    """Cophenetic vectors of a batch of trees on m leaves each and is_ultrametric of each: (n, e) and (n,).

    Every boolean equals is_ultrametric's, but the O(m^3) three-point
    check runs only on the trees a cheap exact screen cannot clear.  Let
    a tree's leaf depths d span delta = max d - min d.  In every leaf
    triple two of the three lowest common ancestors are one node, at
    depth l, and the third is at depth l' >= l, as no branch length is
    negative; so the exact defect is |d_i - d_j| or d_j - d_k - 2(l' - l)
    or less, at most delta.  cophenetic_vector rounds each entry twice,
    u = fl(fl(d_i + d_j) - 2l) with fl(d_i + d_j) >= 2l, and so moves it
    by at most 4eps*D + 2eps^2*D (eps = 2^-53, D = max d); the defect,
    a selected difference rounded once, is then at most
    (delta/(1-eps) + 8eps*D + 4eps^2*D)(1+eps) with delta as rounded.
    delta*(1 + 2^-50) + 2^-49*D exceeds that by more than the rounding
    of its own evaluation, and with subnormal depths u is exact.  Trees
    whose bound is within their default tolerance pass; the bound assumes
    no overflow, so only rows of finite tolerance are cleared.  The
    depths are those the vectors were summed from.
    """
    vectors, depth = _cophenetic(batch.position, batch.depth, batch.sep, batch.count[0])
    top = depth.max(axis=1)
    bound = (top - depth.min(axis=1)) * (1 + 2.0**-50) + top * 2.0**-49
    ok = _verdict(bound, vectors)
    rest = np.flatnonzero(~ok)
    if rest.size:
        ok[rest] = is_ultrametric(vectors[rest])
    return vectors, ok


# ---------------------------------------------------------------------------
# records to text: Newick lines and topology signatures, for trees laid end
# to end as flat preorder records: per node its parent, an index within its
# tree (-1 at the root), and per tree its node count


def _spans(parent: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(up, last): each node's parent as a flat index (-1 at the roots) and the last node of its subtree.

    A subtree is a run of nodes that ends where its last child's ends, or
    at itself for a leaf: pointer jumping takes O(log depth) passes.
    """
    up = np.where(parent < 0, -1, parent + np.repeat(np.cumsum(nodes) - nodes, nodes))
    last = np.arange(len(up))
    child = np.flatnonzero(up >= 0)
    np.maximum.at(last, up[child], child)  # each internal node's last child
    while not np.array_equal(deeper := last[last], last):
        last = deeper
    return up, last


def _clade_ranges(parent: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inner, lo, hi): the internal nodes in preorder and the span lo:hi of flat leaf order below each."""
    _, last = _spans(parent, nodes)
    seen = np.cumsum(last == np.arange(len(last)))  # leaves up to each node
    inner = np.flatnonzero(last != np.arange(len(last)))
    return inner, seen[inner], seen[last[inner]]


# Newick pieces by kind (a leaf, a later leaf, '(', a later '(', a non-root ')', the root's ')')
# and how many arguments each takes
_PIECES = np.array(["%s:%.12g", ",%s:%.12g", "(", ",(", "):%.12g", ");\n"], dtype=object)
_PIECE_ARGS = np.array([2, 2, 0, 0, 1, 0])


def _newick(parent: np.ndarray, length: np.ndarray, nodes: np.ndarray, labels) -> str:
    """Newick lines of flat preorder records, each ended by a newline; labels holds the leaf labels in leaf order.

    Each node writes ',' unless it is a first child, then its label and
    length or '('; each internal node writes ')' and its length (the root
    ');') after the last leaf of its subtree, deeper nodes first.  One '%'
    format fills the pieces in, so each length is formatted once, as
    f"{length:.12g}" writes it.
    """
    up, last = _spans(parent, nodes)
    index = np.arange(len(up))
    leaf = last == index
    inner = np.flatnonzero(~leaf)[::-1]
    inner = inner[np.argsort(last[inner], kind="stable")]  # in the order they close: by leaf, deeper first
    rooted = up[inner] >= 0
    own = index + np.searchsorted(last[inner], index)  # each node's piece follows the closes of earlier leaves
    close = last[inner] + 1 + np.arange(len(inner))
    kind = np.empty(len(own) + len(close), dtype=np.intp)
    kind[own] = 2 * ~leaf + ((up >= 0) & (up != index - 1))
    kind[close] = np.where(rooted, 4, 5)
    count = _PIECE_ARGS[kind]
    at = np.cumsum(count) - count  # the first argument of each piece
    args = np.empty(at[-1] + count[-1], dtype=object)
    args[at[own[leaf]]] = labels
    args[at[own[leaf]] + 1] = length[leaf]
    args[at[close[rooted]]] = length[inner[rooted]]
    return "".join(_PIECES[kind].tolist()) % tuple(args.tolist())


def _row_keys(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one scalar, equal where the rows are equal and ordered as their bytes are."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()


# what follows a label: in its clade, at its tree's end, before its tree's next clade
_SEPARATORS = np.array([",", "}", "}|{"], dtype=object)


def topology_signature(trees):
    """Canonical nested-set string of a tree topology; a list of them for a sequence of trees.

    Clades are listed with sorted labels and ordered by size then
    lexicographically, so two trees share a signature exactly when they
    share a topology regardless of branch lengths or input label order.
    A batch is keyed by its padded parent rows and label ranks, and one
    np.unique leaves one tree per key to sign (for exact ultrametrics
    reconstruct_tree lists children by lowest leaf, so each topology has
    one key).  Of two clades of one size, the one with the smaller sorted
    labels holds the first label where their rows in a membership table
    over the sorted labels differ; so sorting clades by tree, size and
    packed rows (a 0 bit per member) lists them in signature order.
    """
    batch, m, batched = _tree_batch(trees)
    parent, nodes, labels = _fields(batch, ("parent", "nodes", "labels"))
    labels = labels.tolist()
    vocabulary = sorted(set(labels))  # by str comparison, as np.unique sorts
    index = {label: k for k, label in enumerate(vocabulary)}
    rank = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))
    vocabulary = np.array(vocabulary, dtype=object)
    width = nodes.max()
    key = np.full((len(batch), width + m), -2)
    key[:, :width][np.arange(width) < nodes[:, None]] = parent
    key[:, width:] = rank.reshape(-1, m)
    _, first, inverse = np.unique(_row_keys(key), return_index=True, return_inverse=True)
    nodes = nodes[first]
    inner, lo, hi = _clade_ranges(np.concatenate([batch[k]._parent for k in first.tolist()]), nodes)
    tree, size = np.repeat(np.arange(len(nodes)), nodes)[inner], hi - lo
    member = np.zeros((len(inner), len(vocabulary)), dtype=bool)
    row = np.repeat(np.arange(len(inner)), size)
    below = np.arange(len(row)) + np.repeat(lo - (np.cumsum(size) - size), size)  # each clade's flat leaf positions
    member[row, key[first, width:].ravel()[below]] = True
    head = (tree * (len(vocabulary) + 1) + size).astype(">u8").view(np.uint8).reshape(-1, 8)
    order = np.argsort(_row_keys(np.hstack([head, np.packbits(~member, axis=1)])))
    clade, column = np.nonzero(member[order])
    tree = tree[order]
    ends = np.append(clade[1:] != clade[:-1], True)  # the last label of its clade
    followed = np.append(tree[1:] == tree[:-1], False)[clade]  # by a clade of the same tree
    tokens = np.empty(2 * len(clade), dtype=object)
    tokens[0::2] = vocabulary[column]
    tokens[1::2] = _SEPARATORS[ends * (1 + followed)]
    tokens = tokens.tolist()
    cuts = (2 * np.flatnonzero(ends & ~followed) + 2).tolist()
    signatures = ["{" + "".join(tokens[a:b]) for a, b in zip([0] + cuts, cuts)]
    out = [signatures[k] for k in inverse.tolist()]
    return out if batched else out[0]


# ---------------------------------------------------------------------------
# Newick parsing
#
# The grammar, one tree per text: an element is a leaf label, or '(' then
# elements separated by ',' then ')' and an optional internal label; either
# may carry ':' and a branch length; the root element ends in ';'.  Blanks
# (space, tab) may precede every token and surround the ':'.  Labels are
# runs of [A-Za-z0-9_.]; a branch length matches _LENGTH, with \d any
# Unicode decimal digit, as in a str regex.
#
# The texts are parsed together, each ended by a separator character, and
# the array work runs over their skeleton, not over every character.  One
# str.translate gives each character its class; a word is a run of label
# characters, Unicode digits and signs, and one flatnonzero finds the
# skeleton, all the other characters ('(', ')', ',', ':', ';', blanks,
# separators, bad ones).  A word ends at each skeleton character that does
# not follow the one before it.  Atoms are the words and the non-blank
# skeleton characters.  A word right after ':' is a branch length, one
# right after ')' is that node's internal label, any other is a leaf label;
# a ':' right after a label or ')' is a length's, any other is a bad token.
# What remains are the tokens; the parse state before each is set by the
# token before it, and a table of allowed transitions gives the error, if
# any, at each token.  Each text's first error is reported; the others
# become trees.
#
# Every word's text comes from one str.split of the texts with their other
# characters blanked, and each distinct label word is checked once.  A
# length word goes to float whole: over the length alphabet (decimal
# digits, '.', 'e', 'E', '+', '-') float accepts exactly the words that
# _LENGTH matches in full, and beyond it only words with a '_' between
# digits and forms of inf and nan.  Only those words and the ones float
# rejects are matched against _LENGTH.

# Characters per parser chunk, which bounds the temporaries.  Best of 40 interleaved loads of the benchmark's
# many / gene / wide files (2-core host): 10.7 / 6.8 / 3.2 ms at 2^17, 6-10% more at 2^16 and 28-45% at 2^15 (a
# chunk costs ~0.3 ms at any size), 2^18 -7% on gene and +11% on many; peak traced memory 4.5 / 4.0 / 3.0 MB.
_PARSE_CHUNK = 1 << 17
_LENGTH = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_LABEL = re.compile(r"[A-Za-z0-9_.]*")

# token kinds; a word is a _LEAF until it is found to be a length or an internal label
_OPEN, _COMMA, _LEAF, _CLOSE, _SEMI, _BAD, _END, _COLON = range(8)
# the other character classes: blanks, and the word characters, with '_' apart as float reads it in numbers
_BLANK, _WORD, _UNDERSCORE = range(8, 11)
_PUNCTUATION = {"(": _OPEN, ",": _COMMA, ")": _CLOSE, ";": _SEMI, ":": _COLON, " ": _BLANK, "\t": _BLANK,
                "_": _UNDERSCORE}


def _char_class(char: str) -> int:
    """The class of a character: the kind of its token, _BLANK, _WORD or _UNDERSCORE."""
    word = char.isdecimal() or char.isascii() and char.isalpha() or char in ".+-"
    return _PUNCTUATION.get(char, _WORD if word else _BAD)


class _Table(dict):
    """A str.translate table of entry(char) per code point, made up front for ASCII and on each use beyond it."""

    def __init__(self, entry):
        super().__init__((code, entry(chr(code))) for code in range(128))
        self.entry = entry

    def __missing__(self, code):
        return self.entry(chr(code))


_CLASSES = _Table(lambda char: chr(_char_class(char)))
_WORDS = _Table(lambda char: char if _char_class(char) >= _WORD else " ")  # words kept, the rest blanked

_MESSAGES = (None, "expected a leaf label or '('", "expected ',' or ')'", "expected ';'",
             "trailing characters after ';'", "malformed branch length", "non-finite branch length",
             "negative branch length")
# Parse state before a token, by the kind of the token before it: 0 expects an element (at the start, after '(' or
# ','; after a bad token or a stray ':' nothing matters), 1 follows a complete element, 2 the terminating ';'.
_STATE = np.array([0, 0, 1, 1, 2, 0, 0, 0], dtype=np.intp)
# _VERDICT[state, kind, inside a '('] is 0 for an allowed token, else the index of its error message
_VERDICT = np.array(
    [
        # '('     ','     leaf    ')'     ';'     bad     end     ':'
        [[0, 0], [1, 1], [0, 0], [1, 1], [1, 1], [1, 1], [1, 1], [1, 1]],  # expecting an element
        [[3, 2], [3, 0], [3, 2], [3, 0], [0, 2], [3, 2], [3, 2], [3, 2]],  # after an element
        [[4, 4], [4, 4], [4, 4], [4, 4], [4, 4], [4, 4], [0, 0], [4, 4]],  # after the final ';'
    ],
    dtype=np.uint8,
)
_TRANSITIONS = _VERDICT[_STATE].ravel()  # the verdict by the kind of the token before, flat


class NewickError(ValueError):
    """Malformed Newick input; offset is the 0-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _float_or_nan(word: str) -> float:
    """float(word), or nan where float rejects it."""
    try:
        return float(word)
    except ValueError:
        return math.nan


def _exact_length(word: str) -> tuple[float, int]:
    """The value and size of the _LENGTH match at the start of word; 0 and 0 where none matches."""
    match = _LENGTH.match(word)
    return (float(match.group()), match.end()) if match else (0.0, 0)


def _after(a: np.ndarray, first) -> np.ndarray:
    """a shifted one place on, first in its place."""
    return np.concatenate((np.full(1, first, dtype=a.dtype), a[:-1]))


def _scan(text: str, ends: np.ndarray):
    """Tokens of the texts that end at ends, with the errors they raise.

    The texts lie end to end in text, each followed by one separator
    character outside every word, which ends the last.  Returns per token:
    kind, position, text, the '(' open before it within its text, branch
    length (0 without one) and label (its index in the sorted label words,
    also returned); then the tokens that fail a check, with the index into
    _MESSAGES and the offset of the first error of each.  Only a text's
    first error is meaningful: past it, tokens are read as if nothing had
    failed.
    """
    classes = np.frombuffer(text.translate(_CLASSES).encode("ascii"), dtype=np.uint8)
    skeleton = np.flatnonzero(classes < _WORD)
    gap = np.diff(skeleton, prepend=-1)  # above 1 where a word ends at the skeleton character
    kinds = classes[skeleton]
    stops = np.searchsorted(skeleton, ends)
    kinds[stops] = _END
    line = np.repeat(np.arange(len(ends)), np.diff(stops, prepend=-1))  # the text of each skeleton character
    word_id = np.cumsum(gap > 1) - 1  # the index among the words of the word that ends at each
    # the atoms: per skeleton character, the word that ends there, then the character unless it is blank
    slot = np.flatnonzero(np.column_stack((gap > 1, kinds != _BLANK)))
    at = np.column_stack((skeleton - gap + 1, skeleton)).ravel().take(slot)
    kind = np.column_stack((np.full_like(kinds, _LEAF), kinds)).ravel().take(slot)
    owner = np.right_shift(slot, 1, out=slot)  # the skeleton character of each atom
    texts = text.translate(_WORDS).split()
    texts = np.fromiter(texts, dtype=object, count=len(texts))

    is_word = kind == _LEAF
    prev = _after(kind, _END)
    before = _after(prev, _END)
    value = is_word & (prev == _COLON)
    name = is_word & (_after(kinds, _END).take(owner) == _CLOSE)  # right after ')'
    attached = (kind == _COLON) & ((prev == _CLOSE) | ((prev == _LEAF) & (before != _COLON)))
    # each distinct label word is read once: its label stops at its first sign or Unicode digit, or with it
    labeled_word = np.flatnonzero(is_word & ~value)
    words = texts.take(word_id.take(owner.take(labeled_word))).tolist()
    vocabulary = sorted(set(words))
    ids = np.fromiter(map(dict(zip(vocabulary, itertools.count())).__getitem__, words), np.intp, len(words))
    label_stop = np.array([_LABEL.match(word).end() for word in vocabulary] + [0], dtype=np.intp)
    short = label_stop < [len(word) for word in vocabulary] + [0]  # per word, and False past the last
    label = np.zeros(len(at), dtype=np.intp)
    label[labeled_word] = ids
    kind[labeled_word[label_stop[ids] == 0]] = _BAD  # a word that does not start with a label character

    token = np.flatnonzero(~(attached | value | name))  # atom index of each token
    tk, pos, tline = kind.take(token), at.take(token), line.take(owner.take(token))
    last = len(at) - 1
    named = (tk == _CLOSE) & name.take(np.minimum(token + 1, last))
    labeled = token + named  # the atom of the token's label
    colon = np.minimum(labeled + 1, last)
    has_colon = ((tk == _LEAF) | (tk == _CLOSE)) & attached.take(colon)
    # branch lengths: of the tokens with a ':', those a length word follows
    hc = np.flatnonzero(has_colon)
    number = colon.take(hc) + 1  # the atom after the ':', never past the last
    read = np.flatnonzero(value.take(number))
    start = at.take(number)  # where the length pattern starts and stops
    end = start.copy()
    stop = skeleton.take(owner.take(number))  # where the word after the ':' ends
    end[read] = stop[read]
    words = texts.take(word_id.take(owner.take(number[read])))
    del texts, word_id, line  # the words not kept go here, which lowers a chunk's peak memory
    length = np.zeros(len(hc))
    try:
        length[read] = words.astype(float)
    except ValueError:
        length[read] = [_float_or_nan(word) for word in words]
    under = np.flatnonzero(classes == _UNDERSCORE)
    holder = np.searchsorted(start[read], under, "right") - 1  # the length word each '_' may be in, or -1
    odd = np.isnan(length[read])  # rejected by float, or a nan
    odd[holder[under < np.append(end[read], -1)[holder]]] = True
    odd[[k for k in np.flatnonzero(np.isinf(length[read])).tolist() if "n" in words[k].lower()]] = True
    for k in np.flatnonzero(odd).tolist():  # only the words float did not read as a length are matched
        length[read[k]], taken = _exact_length(words[k])
        end[read[k]] = start[read[k]] + taken
    del words
    matched = end > start
    failed = np.flatnonzero(~matched | ~np.isfinite(length) | (length < 0) | (end < stop))
    # per token, the first length check it fails (malformed, non-finite, negative, trailing characters) or -1
    length_check = np.full(len(token), -1, dtype=np.int8)
    length_check[hc[failed]] = np.argmax(
        (~matched[failed], ~np.isfinite(length[failed]), length[failed] < 0, end[failed] < stop[failed]), axis=0)
    length_offset = np.zeros(len(token), dtype=np.intp)
    length_offset[hc[failed]] = np.where(length_check[hc[failed]] == 3, end[failed], start[failed])
    lengths = np.zeros(len(token))
    lengths[hc] = length

    step = (tk == _OPEN).view(np.int8) - (tk == _CLOSE).view(np.int8)
    level = np.cumsum(step, dtype=np.intp) - step
    level -= level.take(np.append(0, np.flatnonzero(tk == _END)[:-1] + 1)).take(tline)
    verdict = _TRANSITIONS.take(_after(tk, _END) * len(_STATE) * 2 + tk * 2 + (level > 0))
    mislabeled = ((tk == _LEAF) | named) & short.take(label.take(labeled))
    bad = np.flatnonzero((verdict > 0) | mislabeled | (length_check >= 0))
    # the first check each of them fails, in the order the token is read
    first = np.argmax((verdict[bad] > 0, mislabeled[bad], np.ones(len(bad), dtype=bool)), axis=0)
    stray = np.where(level[bad] - (tk[bad] == _CLOSE) > 0, 2, 3)  # the error of a bad token right after this element
    message = np.choose(first, (verdict[bad], stray, np.choose(np.maximum(length_check[bad], 0), (5, 6, 7, stray))))
    offset = np.choose(first, (pos[bad], at[labeled[bad]] + label_stop[label[labeled[bad]]], length_offset[bad]))
    return tk, pos, tline, level, lengths, vocabulary, label.take(token), (bad, message, offset)


def _parse(text: str, starts: np.ndarray, ends: np.ndarray):
    """Parse the Newick texts text[starts[k]:ends[k]] together, laid out as _scan reads them.

    Returns (lines, batch, errors): the k of the texts that parse, in
    increasing order, the _Batch of their trees, and (k, NewickError)
    pairs in increasing k; error offsets count from starts[k].  A text's
    error is the first the grammar meets, so it is where a parser reading
    the text token by token stops.  A text that parses but has duplicate
    leaf labels, fewer than 3 leaves, or a root-to-leaf depth or
    leaf-to-leaf path length that overflows to infinity fails at its ';'.
    """
    tk, pos, tline, level, length, vocabulary, label, (bad, message, offset) = _scan(text, ends)
    failed_lines, first = np.unique(tline[bad], return_index=True)
    reasons = zip(map(_MESSAGES.__getitem__, message[first].tolist()), (offset[first] - starts[failed_lines]).tolist())
    errors = dict(zip(failed_lines.tolist(), reasons))
    ok = np.ones(len(starts), dtype=bool)
    ok[failed_lines] = False
    semi = np.flatnonzero(tk == _SEMI)  # a text that parses has one
    terminator = np.zeros(len(starts), dtype=np.intp)
    terminator[tline[semi]] = pos[semi] - starts[tline[semi]]

    # labels of the texts that parse
    leaf = np.flatnonzero(ok.take(tline) & (tk == _LEAF))
    ids = label.take(leaf)
    vocabulary = np.array(vocabulary, dtype=object)
    labels = vocabulary.take(ids)
    owner = tline.take(leaf)
    count = np.bincount(owner, minlength=len(starts))
    key = owner * len(vocabulary) + ids
    order = np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")  # by text, label
    twice = owner.take(order.take(np.flatnonzero(np.diff(key.take(order)) == 0)))
    for k in np.union1d(twice, np.flatnonzero(ok & (count < 3))).tolist():
        lo = int(np.searchsorted(owner, k))
        errors[k] = (_label_problem(labels[lo:lo + count[k]].tolist()), int(terminator[k]))
        ok[k] = False

    # records of the texts left, whose nodes are their '('s and leaves in preorder.  Sorted by
    # level, with each ',' and ')' one level up, every '(' comes right before its ','s and its ')',
    # and the nodes one level down are the children of these '('s in turn, one more than its ','s
    keep = np.flatnonzero(ok.take(owner))
    order = (np.cumsum(ok.take(owner)) - 1).take(order.take(np.flatnonzero(ok.take(owner.take(order)))))
    labels, ids = labels.take(keep), ids.take(keep)
    item = np.flatnonzero(ok.take(tline) & (tk <= _CLOSE))  # the '(', ',', leaf and ')' tokens
    kind = tk.take(item)
    node = np.flatnonzero((kind == _OPEN) | (kind == _LEAF))
    rank = level.take(item) - ((kind == _COMMA) | (kind == _CLOSE))
    by_level = np.argsort(rank.astype(np.min_scalar_type(rank.max(initial=0))), kind="stable")
    sorted_kind = kind.take(by_level)
    opens, closes = np.flatnonzero(sorted_kind == _OPEN), np.flatnonzero(sorted_kind == _CLOSE)
    index = np.zeros(len(item), dtype=np.intp)
    index[node] = np.arange(len(node))  # node number of each '(' and leaf
    index = index.take(by_level)
    parent = np.full(len(node), -1)
    below = ((sorted_kind == _OPEN) | (sorted_kind == _LEAF)) & (rank.take(by_level) > 0)
    parent[index.take(np.flatnonzero(below))] = np.repeat(index.take(opens), closes - opens)
    nodes, count = np.bincount(tline.take(item.take(node)), minlength=len(starts))[ok], count[ok]
    node_start = np.cumsum(nodes) - nodes
    parent -= np.repeat(node_start, nodes) * (parent >= 0)
    item_length = length.take(item)
    item_length[by_level.take(opens)] = item_length.take(by_level.take(closes))  # a node's length follows its ')'
    leaves = np.flatnonzero(kind.take(node) == _LEAF)
    leaf_start = np.cumsum(count) - count
    names = vocabulary.take(ids.take(order))
    with np.errstate(over="ignore"):
        batch = _batch(parent, item_length.take(node), leaves - np.repeat(node_start, count),
                       order - np.repeat(leaf_start, count), nodes, count, labels, names, rank.take(node))
        deepest = np.maximum.reduceat(batch.depth, leaf_start) if len(nodes) else batch.depth
        # the longest leaf-to-leaf path joins the two deepest leaves, and it can
        # overflow only where twice the deepest depth does
        doubled = 2.0 * deepest
    lines = np.flatnonzero(ok)
    for t in np.flatnonzero(doubled == math.inf).tolist():
        k = int(lines[t])
        if deepest[t] == math.inf:
            errors[k] = ("non-finite root-to-leaf depth", int(terminator[k]))
        elif sum(sorted(batch.depth[leaf_start[t]:leaf_start[t] + count[t]].tolist())[-2:]) == math.inf:
            errors[k] = ("non-finite leaf-to-leaf path length", int(terminator[k]))
    kept = ~np.isin(lines, list(errors))
    return lines[kept].tolist(), _take(batch, kept), [(k, NewickError(*errors[k])) for k in sorted(errors)]


def parse_newick(text: str) -> PhyloTree:
    """Parse one ';'-terminated Newick expression into a tree.

    Missing branch lengths default to 0; internal node labels are dropped.
    Leaf indices are assigned by sorting labels lexicographically.  Raises
    NewickError with a character offset on malformed input, a negative or
    non-finite branch length, duplicate leaf labels, fewer than 3 leaves,
    or a root-to-leaf depth or leaf-to-leaf path length that overflows to
    infinity.  The whole-file parser run on one text, so nesting depth is
    unlimited.
    """
    _, batch, errors = _parse(text + "\n", np.array([0]), np.array([len(text)]))
    if errors:
        raise errors[0][1]
    return _trees(batch)[0]


def _concat(batches: list[_Batch]) -> _Batch:
    """Batches laid end to end; no batches give a batch of no trees."""
    if not batches:
        return _batch(np.zeros(0, np.intp), np.zeros(0), *[np.zeros(0, np.intp)] * 4, *[np.zeros(0, object)] * 2)
    return _Batch(*map(np.concatenate, zip(*batches)))


def load_newick_file(path) -> tuple[list[tuple[int, PhyloTree]], list[tuple[int, NewickError]]]:
    """Read a Newick file: one tree per line, '#' comment and blank lines ignored.

    Returns (trees, errors), each a list of (line_number, value) pairs with
    1-based line numbers.  The file is UTF-8, and a leading byte-order mark
    is skipped.  Lines end at '\n', '\r\n' or '\r' and are stripped by
    str.strip(); the lines kept, each ended by '\n', are parsed by one
    _parse call per chunk of about _PARSE_CHUNK characters into one flat
    _Batch, which the trees are views of, in order, so _joined gives it
    back without a copy.
    """
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8").removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    stripped = [line.strip() for line in text.split("\n")]
    numbers = [k for k, line in enumerate(stripped, 1) if line and not line.startswith("#")]
    lines = [stripped[k - 1] for k in numbers]
    size = np.array([len(line) for line in lines], dtype=np.intp)
    ends = np.cumsum(size + 1) - 1  # each line ends at its '\n'
    starts = ends - size
    text = "\n".join([*lines, ""])
    tree_numbers, batches, errors = [], [], []
    # lines go in chunks of about _PARSE_CHUNK characters, which bounds the parser's temporaries
    cuts = np.unique(np.searchsorted(starts, np.arange(0, len(text), _PARSE_CHUNK)))
    bounds = np.append(cuts[cuts < len(starts)], len(starts)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        a, b = starts[lo], ends[hi - 1] + 1
        chunk_lines, batch, chunk_errors = _parse(text[a:b], starts[lo:hi] - a, ends[lo:hi] - a)
        tree_numbers += [numbers[lo + k] for k in chunk_lines]
        batches.append(batch)
        errors += [(numbers[lo + k], err) for k, err in chunk_errors]
    return list(zip(tree_numbers, _trees(_concat(batches)))), errors


# ---------------------------------------------------------------------------
# ultrametric vectors


# Rows per kernel chunk are chosen so that each temporary holds about this
# many elements (2 MB of floats).  Each chunk repeats an m-step loop (Prim's
# steps, the middle leaves), so small chunks pay it many times: swept from
# 2^15 to 2^20 at m = 8, 10, 60 and 100 with n = 50 and 400, the tree-space
# kernels ran fastest at 2^18 and 2^19, 1.1-3x faster than at 2^15 at m >= 60
# (within noise of it at m <= 10), and slowed again at 2^20 at m = 60; 2^18
# has the smaller temporaries.  The largest temporary of a chunk is
# ultrametric_violation's (m, m, rows) buffer, which holds about 4x this.
_CHUNK_ELEMENTS = 1 << 18
# The kernels keep rows last, so numpy's inner loops run along a chunk's rows;
# at large m a chunk of a few rows runs slower per row than one row, whose
# loops run along the leaves (at m = 300, the three-point check took 1.9x as
# long in chunks of 11 rows as in chunks of one, and reconstruct_tree 1.9x in
# chunks of 2).  So a chunk that would hold fewer rows than this holds one: at
# the default budget, those of the m^2-per-row kernels at m > 128 and those of
# the three-point check at m > 257.
_FEWEST_ROWS = 16
# numpy's ufunc buffer inside _ufunc_buffer (try/finally: np.errstate gives it back only on numpy >= 2), at which
# pca._projection ran 2-4x and ultrametric_violation 1.2-1.4x faster than at numpy's default 8192 (CHANGES.md)
_UFUNC_BUFFER = 1024


@contextlib.contextmanager
def _ufunc_buffer():
    """Runs the block at numpy's ufunc buffer _UFUNC_BUFFER and gives the caller's size back on any exit, errors included."""
    previous = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(previous)


def _as_rows(u) -> tuple[np.ndarray, int, bool]:
    """(2-D float rows, leaf count, whether u was a batch) for one vector or an (n, e) batch."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2):
        raise ValueError("expected a pairwise-distance vector or an (n, e) batch of them")
    rows = np.atleast_2d(u)
    return rows, leaf_count_from_dim(rows.shape[1]), u.ndim == 2


def _chunks(n: int, row_elements: int, least: int = 1):
    """Row slices covering range(n) of _CHUNK_ELEMENTS // row_elements rows, or 1 below _FEWEST_ROWS, or least if more."""
    fit = _CHUNK_ELEMENTS // row_elements
    step = max(least, fit if fit >= _FEWEST_ROWS else 1)
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
    d[j, j+1:].  Rows go in chunks of about _CHUNK_ELEMENTS (2^18) triples
    of the largest middle leaf, (m-1)^2/4 per row, so d holds about four
    times that many entries.  It runs inside _ufunc_buffer; every result is
    elementwise or a max, so its bits do not depend on the buffer.  Where
    a triple's top two are inf the defect is nan, which no tol passes.
    """
    rows, m, batched = _as_rows(u)
    iu, ju, _ = _pairs(m)
    out = np.zeros(len(rows))
    with _ufunc_buffer(), np.errstate(invalid="ignore"):  # inf - inf: a nan defect
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

    tol=None uses the scale-aware default, under which a row whose default
    is not finite (it holds an inf) is not ultrametric; pass 0 for an exact
    check.  For an (n, e) batch the result is one boolean per row.
    """
    return _verdict(ultrametric_violation(u), u, tol)


def _verdict(defect, u, tol=None):
    """Whether each defect of u is within tol, or within u's default_tolerance where finite: is_ultrametric's rule."""
    bound = default_tolerance(u) if tol is None else tol
    return (defect <= bound) & (tol is not None or bound < math.inf)


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
    iu, ju, _ = _pairs(m)
    a, b = position.take(iu, axis=1), position.take(ju, axis=1)
    return table.reshape(-1)[(np.maximum(a, b) * m + np.minimum(a, b)) * r + np.arange(r)[:, None]]


def _prim(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prim's algorithm from leaf 0 on each row of an (r, e) batch of pairwise weights.

    Returns (order, joined, step): order[p] (m, r) is the leaf that joins
    the tree at step p (leaf 0 at step 0), joined[p] (m, r) the weight of
    the edge it joins by (joined[0] is unset), and step (r, m) the step at
    which each leaf joins, the inverse of order.  Each step takes the
    outside leaf of lightest key, the lowest index on ties, then lowers
    every key to the new leaf's weights and keeps the keys of leaves
    already in the tree at inf.
    """
    r = len(x)
    dist = x.take(_pairs(m)[2], axis=1)  # (r, m, m); no key keeps a diagonal value, as done keys go back to inf
    weights = dist.reshape(r * m, m)
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
    step = np.empty((r, m), dtype=np.intp)
    step.reshape(-1)[order] = np.arange(m)[:, None]  # order holds flat indices until base is taken off
    return order - base, joined, step


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
    shape; rows go in chunks of about _CHUNK_ELEMENTS (2^18) matrix
    entries, m^2 per row.
    """
    rows, m, batched = _as_rows(x)
    if not np.all(np.isfinite(rows)):
        raise ValueError("coordinates must be finite")
    out = np.empty_like(rows)
    for part in _chunks(len(rows), m * m):
        _, joined, step = _prim(rows[part], m)
        out[part] = _between(step, joined[1:], np.maximum)
    return out if batched else out[0]


def _seed(seed):
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def random_ultrametrics(m: int, n: int, seed: int) -> np.ndarray:
    """n random tree-space points drawn from a single seeded stream, one per row."""
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(_seed(seed))
    return project_to_treespace(rng.random((n, m * (m - 1) // 2)))


# ---------------------------------------------------------------------------
# tree reconstruction


def _single_linkage(prims: list, m: int, half_tol: np.ndarray):
    """Single-linkage dendrograms of rows on m leaves, as flat preorder records laid end to end.

    prims holds (part, order, joined, step) per chunk of rows: a row slice
    and _prim of its rows.

    Yields, chunk by chunk, (parent, length, nodes, leaves, ids, position): per node, its
    parent (an index within its row's record, -1 at the root) and the
    length of the edge to it; per row, its node count; per row and step,
    the record index and the leaf index of the leaf joining then, which
    lists the leaves in leaf order; per row and leaf, its step (position).

    In _prim's order every cluster is a run of consecutive steps, and merge
    t, between steps t and t+1, is at height h[t] = joined[t+1]/2.  The
    binary dendrogram is the Cartesian tree of h (Vuillemin 1980): merge
    t's run reaches left to the nearest merge of height >= h[t] and right
    to the nearest of height > h[t], so of tied merges the leftmost is on
    top.  A node's binary parent is the lower of the merges at the two
    ends of its run, the right one on ties; the root, bounded by no merge,
    is its own parent.  A merge within half_tol (per row) below its binary
    parent collapses into it, and pointer jumping moves each node's parent
    up past collapsed merges to the lowest kept one.  The preorder lists
    nodes by first step, the longer run first.  On ties argmin takes the
    lowest leaf, so Prim enters every cluster at its lowest leaf and, for
    exact ultrametrics, children come in the order of their lowest leaves
    (the reference is tests/oracles.py::union_find_reconstruct_tree).
    """
    t = np.arange(m - 1)
    steps = np.arange(m)
    for part, order, joined, step in prims:
        r = order.shape[1]
        at = np.arange(r)[:, None]
        h = joined[1:].T / 2.0  # h[:, t]: height of merge t
        own, other = h[:, :, None], h[:, None, :]
        left = np.where((t < t[:, None]) & (other >= own), t, -1).max(axis=2)
        right = np.where((t > t[:, None]) & (other > own), t, m - 1).min(axis=2)
        bound = np.append(h, np.full((r, 1), np.inf), axis=1)  # at -1 and m - 1: no bound
        # nodes: the leaf at each step, then the merges; node k runs over steps first[k]..last[k]
        first = np.concatenate([np.broadcast_to(steps, (r, m)), left + 1], axis=1)
        last = np.concatenate([np.broadcast_to(steps, (r, m)), right], axis=1)
        height = np.concatenate([np.zeros((r, m)), h], axis=1)
        h_left, h_right = bound[at, first - 1], bound[at, last]  # heights of the merges at the run's ends
        up = m + np.where(h_left < h_right, first - 1, last)  # the lower merge, the right one on ties
        up = np.where(up < 2 * m - 1, up, np.arange(2 * m - 1))  # the root is its own parent
        kept = np.minimum(h_left, h_right) - height > half_tol[part, None]
        kept[:, :m] = True  # leaves
        while not np.all(kept[at, up]):
            up = np.where(kept[at, up], up, up[at, up])
        node = np.argsort(np.where(kept, first * m + (m - 1) - (last - first), m * m), axis=1)  # in preorder
        index = np.empty_like(node)  # record index of each node
        index[at, node] = np.arange(2 * m - 1)
        up = up[at, node]
        parent = index[at, up]
        parent[:, 0] = -1
        length = height[at, up] - height[at, node]
        count = kept.sum(axis=1)
        listed = np.arange(2 * m - 1) < count[:, None]
        yield parent[listed], length[listed], count, index[:, :m], order.T, step


def _three_point(rows: np.ndarray, m: int, tol=None) -> tuple[np.ndarray, np.ndarray, list]:
    """(ok, violation, prims): per row is_ultrametric(rows, tol) and a defect, and _prim of each row chunk.

    tol is None (default_tolerance per row), a finite scalar or one finite
    value per row.  A defect is within tol exactly where
    ultrametric_violation is.  _prim's _between maximum of join weights is
    sub, the subdominant ultrametric (see project_to_treespace): sub <= u
    and sub is exactly ultrametric.  So in a triple whose largest entry a
    sits at pair P and whose middle entry is b, sub_P is at most the larger
    sub of the two other pairs, at most b, and the defect fl(a - b) <=
    fl(a - sub_P) <= max(u - sub), bit for bit.  A row keeps that maximum
    where _verdict passes it; the others get ultrametric_violation itself,
    so every verdict and every value beyond tol is the exact check's.
    prims holds (part, order, joined, step) per chunk of about
    _CHUNK_ELEMENTS (2^18) matrix entries, m^2 per row.
    """
    violation = np.empty(len(rows))
    prims = []
    with np.errstate(invalid="ignore"):  # inf - inf in rows that are not finite, which the exact check decides
        for part in _chunks(len(rows), m * m):
            order, joined, step = _prim(rows[part], m)
            np.max(rows[part] - _between(step, joined[1:], np.maximum), axis=1, out=violation[part])
            prims.append((part, order, joined, step))
    rest = np.flatnonzero(~_verdict(violation, rows, tol))
    if rest.size:
        violation[rest] = ultrametric_violation(rows[rest])
    return _verdict(violation, rows, tol), violation, prims


def _check_labels(names: list[str]) -> None:
    """Raise ValueError naming the first name that the Newick parser would not read back as a leaf label."""
    bad = [name for name in names if not (name and _LABEL.fullmatch(name))]
    if bad:
        raise ValueError(f"leaf label {bad[0]!r} is not a run of [A-Za-z0-9_.], as Newick labels are")


def _linkage(u, names, tol):
    """reconstruct_tree's checks, then (names, batched, chunks): chunks yields its records, after every check."""
    rows, m, batched = _as_rows(u)
    if not np.all(np.isfinite(rows)):
        raise ValueError("coordinates must be finite")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    tol = default_tolerance(rows) if tol is None else np.full(len(rows), float(tol))
    ok, violation, prims = _three_point(rows, m, tol)
    bad = np.flatnonzero(~ok | (rows.min(axis=1) <= 0))
    if bad.size:
        r = bad[0]
        where = f"row {r}: " if batched else ""
        if not ok[r]:
            raise ValueError(
                f"{where}not ultrametric: worst three-point violation {violation[r]:.3g}"
                f" exceeds tolerance {tol[r]:.3g}"
            )
        raise ValueError(f"{where}all entries must be positive to realize a tree")
    names = default_leaf_names(m) if names is None else [str(name) for name in names]
    if len(names) != m or len(set(names)) != m:
        raise ValueError(f"need {m} distinct leaf names")
    _check_labels(names)
    return names, batched, _single_linkage(prims, m, tol / 2.0)


def reconstruct_tree(u, names: Sequence[str] | None = None, tol: float | None = None):
    """Unique equidistant tree whose cophenetic vector is u.

    u is one vector (the result is a PhyloTree) or an (n, e) batch with
    one vector per row (a list of n trees).  Clusters are merged bottom-up
    at height u/2 (single-linkage dendrogram); a merge whose height is
    within tol/2 of an operand's merges with it into one multifurcating
    node.  ``names`` assigns leaf labels by index (default "1".."m") and
    the given order is kept, so the round trip through cophenetic_vector
    preserves coordinates; each must be a Newick label, a run of
    [A-Za-z0-9_.].  Children are listed by lowest leaf when u is exactly
    ultrametric, as in the reference
    tests/oracles.py::union_find_reconstruct_tree; within tol of an
    ultrametric only the order of children may differ from it.  tol
    defaults to default_tolerance per row, and a given tol must be
    nonnegative and finite.  Raises ValueError, naming the first such row
    of a batch, when a vector violates the three-point condition beyond
    tol or has a nonpositive entry.  _prim runs once per row chunk, for the
    check (_three_point) and for the dendrograms (_single_linkage).
    """
    names, batched, chunks = _linkage(u, names, tol)
    records = [np.concatenate(arrays) for arrays in zip(*chunks)]
    if not records:  # an empty batch has no chunks
        return []
    parent, length, nodes, leaves, ids, position = records
    names = np.array(names, dtype=object)
    trees = _trees(_batch(parent, length, leaves.ravel(), position.ravel(), nodes, np.full_like(nodes, len(names)),
                          names[ids.ravel()], np.tile(names, len(nodes))))
    return trees if batched else trees[0]


def _dendrogram_newick(u):
    """The Newick lines of reconstruct_tree(u) straight from its records, one text per row chunk; checks raise first."""
    names, _, chunks = _linkage(u, None, None)
    labels = np.array(names, dtype=object)
    return (_newick(parent, length, nodes, labels[ids.ravel()]) for parent, length, nodes, _, ids, _ in chunks)
