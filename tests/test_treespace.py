import itertools
import os
import re
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    _NUMBER_RE,
    Node,
    clade_ray_combination,
    enumerate_extreme_clades,
    equidistance_gap,
    extreme_clade_vector,
    is_equidistant,
    nested_clades,
    node_view,
    pair_order,
    path_weight,
    project_by_ray_enumeration,
    recursive_cophenetic_vector,
    recursive_parse_newick,
    scatter_prim_projection,
    single_linkage_projection,
    sorted_triple_violation,
    tree_from_nodes,
    union_find_reconstruct_tree,
    walk_clades,
    walk_leaf_depths,
    walk_newick,
    walk_topology_signature,
)
import troppca.treespace
from troppca.cli import CliError, _load_sample, _positive_representatives, main
from troppca.pca import FitConfig, TropicalPolytope, _validate_ultrametric_rows, fit, project_to_polytope
from troppca.tropical import trop_dist
from troppca.treespace import (
    _PARSE_CHUNK,
    _checked_vectors,
    _dendrogram_newick,
    _joined,
    _newick,
    _scaled,
    _trees,
    NewickError,
    cophenetic_vector,
    default_leaf_names,
    default_tolerance,
    is_ultrametric,
    leaf_count_from_dim,
    load_newick_file,
    parse_newick,
    project_to_treespace,
    random_ultrametrics,
    reconstruct_tree,
    topology_signature,
    ultrametric_violation,
)


# A row budget small enough that the batches below span several row chunks;
# at the default budget each of them is one chunk.
SMALL_CHUNK = 1 << 15


def small_chunks():
    """Patches the row kernels' budget down to SMALL_CHUNK elements."""
    return mock.patch.object(troppca.treespace, "_CHUNK_ELEMENTS", SMALL_CHUNK)


def chunk_count(n: int, row_elements: int) -> int:
    """Row chunks of n rows of a kernel whose rows hold row_elements elements each, at the budget in force."""
    return len(list(troppca.treespace._chunks(n, row_elements)))


class TestPairIndexing:
    def test_lexicographic_order(self):
        assert pair_order(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        for m in (3, 4, 7):  # the kernels index pairs by np.triu_indices
            assert tuple(zip(*np.triu_indices(m, 1))) == pair_order(m)

    @pytest.mark.parametrize("m", [3, 4, 7, 10, 60])
    def test_cached_pair_table(self, m):
        iu, ju, index = troppca.treespace._pairs(m)
        expected_iu, expected_ju = np.triu_indices(m, 1)
        assert_array_equal(iu, expected_iu)
        assert_array_equal(ju, expected_ju)
        pairs = np.arange(len(iu))
        assert_array_equal(index[iu, ju], pairs)
        assert_array_equal(index[ju, iu], pairs)
        for a in (iu, ju, index):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1

    def test_leaf_count_from_dim(self):
        assert leaf_count_from_dim(3) == 3
        assert leaf_count_from_dim(45) == 10
        for bad in (2, 4, 5, 7, 44):
            with pytest.raises(ValueError):
                leaf_count_from_dim(bad)


class TestNewickParsing:
    def test_basic_tree(self):
        tree = parse_newick("((1:1,2:1):1,3:2);")
        assert tree.m == 3
        assert tree.leaf_names == ["1", "2", "3"]
        assert tree.height() == 2.0
        assert_array_equal(tree.cophenetic_vector(), [2.0, 4.0, 4.0])

    def test_unbalanced_parentheses_error_offset(self):
        with pytest.raises(NewickError) as info:
            parse_newick("(a:1,b:1;")
        assert info.value.offset == 8  # position of the ';'

    def test_duplicate_leaf_labels(self):
        with pytest.raises(NewickError, match="duplicate"):
            parse_newick("((a:1,a:1):1,b:2);")

    def test_duplicate_labels_are_found_in_linear_time(self):
        labels = [f"t{k}" for k in range(40_000)]
        labels[20_000], labels[-1] = "t7", "t12"
        text = "(" + ",".join(f"{label}:1" for label in labels) + ");"
        began = time.perf_counter()
        with pytest.raises(NewickError) as info:
            parse_newick(text)
        assert time.perf_counter() - began < 2.0  # counting each label's copies took 21 s
        assert str(info.value) == f"duplicate leaf labels: t12, t7 at offset {len(text) - 1}"

    def test_too_few_leaves(self):
        with pytest.raises(NewickError, match="3 leaves"):
            parse_newick("(a:1,b:1);")

    def test_malformed_number(self):
        with pytest.raises(NewickError, match="branch length"):
            parse_newick("((a:1,b:x):1,c:2);")

    def test_negative_branch_length(self):
        with pytest.raises(NewickError, match="negative"):
            parse_newick("((a:1,b:-1):1,c:2);")

    @pytest.mark.parametrize("number", ["1e400", "-1e400", "1e309"])
    def test_non_finite_branch_length(self, number):
        text = f"((a:{number},b:1):1,c:2);"
        with pytest.raises(NewickError, match="non-finite branch length") as info:
            parse_newick(text)
        assert info.value.offset == text.index(number)

    def test_missing_length_defaults_to_zero(self):
        tree = parse_newick("((a,b):1,c:1);")
        assert_array_equal(tree.cophenetic_vector(), [0.0, 2.0, 2.0])

    def test_trailing_garbage(self):
        with pytest.raises(NewickError, match="trailing"):
            parse_newick("(a:1,b:1,c:1); x")

    def test_internal_labels_ignored(self):
        tree = parse_newick("((1:1,2:1)anc:1,3:2)root;")
        assert tree.leaf_names == ["1", "2", "3"]

    def test_leaf_indices_sorted_lexicographically(self):
        tree = parse_newick("((b:1,c:1):1,a:2);")
        assert tree.leaf_names == ["a", "b", "c"]
        # pair (a,b) spans the root, pair (b,c) is the cherry
        assert_array_equal(tree.cophenetic_vector(), [4.0, 4.0, 2.0])

    def test_whitespace_tolerated(self):
        tree = parse_newick("( (1:1, 2:1) :1, 3:2 );")
        assert_array_equal(tree.cophenetic_vector(), [2.0, 4.0, 4.0])

    def test_overflowing_depth_is_an_error_at_the_terminator(self):
        text = "((a:1e308,b:1e308):1e308,c:1.5e308);"
        with pytest.raises(NewickError, match="non-finite root-to-leaf depth") as info:
            parse_newick(text)
        assert info.value.offset == text.index(";")

    def test_overflowing_path_length_is_an_error_at_the_terminator(self):
        # every depth is finite, but the path between two leaves sums two of them
        text = "(a:1.5e308,b:1.5e308,c:1.5e308);"
        with pytest.raises(NewickError, match="non-finite leaf-to-leaf path length") as info:
            parse_newick(text)
        assert info.value.offset == text.index(";")

    def test_large_lengths_off_any_single_path_are_accepted(self):
        # the lengths sum to inf, but no leaf-to-leaf path does; the root's own length is on no path
        tree = parse_newick("(a:8e307,b:8e307,c:8e307):1.7e308;")
        assert tree.height() == 8e307
        assert_array_equal(tree.cophenetic_vector(), [1.6e308] * 3)


class TestNewickSerialization:
    def test_round_trip_is_exact(self):
        text = "((1:1,2:1):1,3:2);"
        tree = parse_newick(text)
        assert tree.to_newick() == text

    def test_serialize_parse_fixes_cophenetic_vector(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            u = random_ultrametrics(6, 1, seed=700 + trial)[0]
            tree = reconstruct_tree(u)
            text = tree.to_newick()
            again = parse_newick(text)
            assert again.to_newick() == text
            assert_array_equal(again.cophenetic_vector(), parse_newick(text).cophenetic_vector())

    def test_twelve_significant_digits(self):
        tree = reconstruct_tree(np.array([0.123456789012345, 0.9, 0.9]))
        assert "0.0617283945062" in tree.to_newick()


class TestDeepTrees:
    """Trees nested far beyond the interpreter's recursion limit."""

    M = 1500

    def caterpillar(self) -> str:
        """(((t0000:1,t0001:1):1,t0002:2):1,...): leaf k joins at height k, so it is equidistant."""
        text = "(t0000:1,t0001:1)"
        for k in range(2, self.M):
            text = f"({text}:1,t{k:04d}:{k})"
        return text + ";"

    def test_caterpillar(self):
        text = self.caterpillar()
        tree = parse_newick(text)
        assert tree.m == self.M and tree.height() == self.M - 1
        # leaves i < j meet at height max(j, 1)
        expected = np.concatenate([2.0 * np.maximum(np.arange(i + 1, self.M), 1) for i in range(self.M - 1)])
        assert np.array_equal(tree.cophenetic_vector(), expected)
        assert tree.to_newick() == text
        assert np.array_equal(parse_newick(tree.to_newick()).cophenetic_vector(), expected)
        signature = topology_signature(tree)
        assert signature.count("{") == self.M - 1
        assert signature.startswith("{t0000,t0001}|{t0000,t0001,t0002}|")

    def test_unary_chain(self):
        text = "(" * 1500 + "((a:1,b:1):1,c:2)" + ")" * 1500 + ";"
        tree = parse_newick(text)
        assert_array_equal(tree.cophenetic_vector(), [2.0, 4.0, 4.0])
        assert topology_signature(tree) == walk_topology_signature(tree)  # 1502 clades, one per internal node
        assert tree.scaled(0.5).height() == 1.0
        assert parse_newick(tree.to_newick()).to_newick() == tree.to_newick()
        assert node_view(tree).children[0].children[0].length == 0.0


class TestPhyloTreeFromNodes:
    def test_flattens_and_views_back(self):
        root = Node(None, 0.0, [Node(None, 1.0, [Node("b", 1.0), Node("a", 1.0)]), Node("c", 2.0)])
        tree = tree_from_nodes(root)
        assert tree.leaf_names == ["a", "b", "c"]
        assert tree.to_newick() == "((b:1,a:1):1,c:2);"
        assert node_view(tree) == root
        assert_array_equal(tree.cophenetic_vector(), [2.0, 4.0, 4.0])

    @pytest.mark.parametrize("length", [-1.0, float("nan")])
    def test_rejects_negative_and_nan_lengths(self, length):
        with pytest.raises(ValueError, match="nonnegative"):
            tree_from_nodes(Node(None, 0.0, [Node("a", length), Node("b"), Node("c")]))
        with pytest.raises(ValueError, match="nonnegative"):
            parse_newick("(a,b,c);").scaled(length)


class TestLoadFile(object):
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text("# a comment\n\n(1:1,2:1,3:1);\n((1:1,2:1):1,3:2);\n")
        trees, errors = load_newick_file(path)
        assert [ln for ln, _ in trees] == [3, 4]
        assert errors == []

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text("(1:1,2:1,3:1);\n(1:1,2:1;\n")
        trees, errors = load_newick_file(path)
        assert len(trees) == 1
        assert [ln for ln, _ in errors] == [2]


class TestCopheneticVector:
    def test_star_tree(self):
        tree = parse_newick("(1:1,2:1,3:1);")
        assert_array_equal(tree.cophenetic_vector(), [2.0, 2.0, 2.0])

    def test_caterpillar_hand_summed(self):
        tree = parse_newick("(((1:1,2:1):1,3:2):1,4:3);")
        assert_array_equal(tree.cophenetic_vector(), [2.0, 4.0, 6.0, 4.0, 6.0, 6.0])

    def test_matches_path_walking_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            u = random_ultrametrics(6, 1, seed=800 + trial)[0]
            tree = reconstruct_tree(u)
            vec = tree.cophenetic_vector()
            for (i, j), value in zip(pair_order(6), vec):
                walked = path_weight(tree, tree.leaf_names[i], tree.leaf_names[j])
                assert abs(walked - value) <= 1e-12

    def test_equidistance_gap(self):
        assert equidistance_gap(parse_newick("((1:1,2:1):1,3:2);")) == 0.0
        skewed = parse_newick("((1:1,2:1):1,3:5);")
        assert equidistance_gap(skewed) == pytest.approx(3.0)
        assert not is_equidistant(skewed)


BLANKS = st.sampled_from(["", "", " ", "\t", " \t "])
LABELS = st.lists(st.from_regex(r"[A-Za-z0-9_.]{1,3}", fullmatch=True), min_size=3, max_size=9, unique=True)
LENGTHS = st.one_of(
    st.none(),
    st.just(0),
    st.just(0.0),
    st.integers(0, 1000),
    st.floats(0, 100, allow_nan=False, allow_infinity=False),
)
SHORT_LENGTHS = st.one_of(st.none(), st.just(0), st.integers(0, 10**6).map(lambda k: k / 1000))


@st.composite
def newick_texts(draw, labels, lengths=LENGTHS) -> str:
    """Newick text of a random multifurcating tree on labels.

    Blanks go wherever the format allows them, lengths may be missing or
    zero, internal nodes may carry labels or have one child, and the root
    may carry a length.
    """

    def length() -> str:
        value = draw(lengths)
        return "" if value is None else f"{draw(BLANKS)}:{draw(BLANKS)}{value!r}"

    def node(children: list[str]) -> str:
        text = ",".join(draw(BLANKS) + child + draw(BLANKS) for child in children)
        internal = draw(st.one_of(st.just(""), st.from_regex(r"[A-Za-z0-9_.]{1,3}", fullmatch=True)))
        return f"({text}){internal}{length()}"

    def maybe_unary(text: str) -> str:
        return node([text]) if draw(st.integers(0, 4)) == 0 else text

    items = [maybe_unary(label + length()) for label in labels]
    while len(items) > 1:
        k = draw(st.integers(2, min(4, len(items))))
        start = draw(st.integers(0, len(items) - k))
        items[start:start + k] = [maybe_unary(node(items[start:start + k]))]
    return draw(BLANKS) + items[0] + draw(BLANKS) + ";" + draw(BLANKS)


def oracle_vector(text: str, factor=None) -> tuple[list[str], np.ndarray]:
    root, names = recursive_parse_newick(text)
    return names, recursive_cophenetic_vector(root, names, factor)


def random_newick(rng: np.random.Generator, m: int) -> str:
    """Newick text of a random multifurcating tree on the leaves "1".."m".

    Leaf branches have random lengths, so leaf depths differ, and about a
    third of the internal branches have length 0, so separator depths tie.
    """
    items = [f"{k + 1}:{rng.integers(1, 50) / 10}" for k in rng.permutation(m)]
    while len(items) > 1:
        k = int(rng.integers(2, min(4, len(items)) + 1))
        start = int(rng.integers(0, len(items) - k + 1))
        length = 0 if rng.random() < 1 / 3 else rng.integers(1, 50) / 10
        items[start:start + k] = [f"({','.join(items[start:start + k])}):{length}"]
    return items[0] + ";"


def assert_parses_like_the_oracle(text: str) -> None:
    """Same leaf names and vector, or the same NewickError message and offset."""
    try:
        names, expected = oracle_vector(text)
    except NewickError as err:
        with pytest.raises(NewickError) as info:
            parse_newick(text)
        assert (str(info.value), info.value.offset) == (str(err), err.offset)
    else:
        tree = parse_newick(text)
        assert tree.leaf_names == names
        assert np.array_equal(tree.cophenetic_vector(), expected)


class TestNewickAgainstRecursiveOracle:
    """The flat scanner and the batched kernel against the recursive parser and walk."""

    @given(st.data())
    def test_trees_vectorize_like_the_recursive_walk(self, data):
        labels = data.draw(LABELS)
        texts = data.draw(st.lists(newick_texts(labels), min_size=1, max_size=4))
        factors = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(texts), max_size=len(texts)))
        trees = [parse_newick(text) for text in texts]
        for tree, text, factor in zip(trees, texts, factors):
            names, expected = oracle_vector(text)
            assert tree.leaf_names == names
            assert sorted(tuple(sorted(c)) for c in walk_clades(tree)) == nested_clades(recursive_parse_newick(text)[0])
            assert np.array_equal(tree.cophenetic_vector(), expected)
            assert np.array_equal(cophenetic_vector(tree.scaled(factor)), oracle_vector(text, factor)[1])
        batch = cophenetic_vector(trees)
        assert batch.shape == (len(trees), len(labels) * (len(labels) - 1) // 2)
        assert np.array_equal(batch, [oracle_vector(text)[1] for text in texts])
        rescaled = cophenetic_vector([tree.scaled(f) for tree, f in zip(trees, factors)])
        assert np.array_equal(rescaled, [oracle_vector(t, f)[1] for t, f in zip(texts, factors)])

    @given(st.data())
    def test_one_character_edits_fail_like_the_recursive_parser(self, data):
        text = data.draw(newick_texts(data.draw(LABELS)))
        at = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()) or at == len(text):
            text = text[:at] + data.draw(st.sampled_from("(),:;a1-_.e+\u0663")) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
        assert_parses_like_the_oracle(text)

    @given(st.data())
    def test_newick_round_trip_keeps_the_vector(self, data):
        labels = data.draw(LABELS)
        tree = parse_newick(data.draw(newick_texts(labels, SHORT_LENGTHS)))
        again = parse_newick(tree.to_newick())
        assert again.leaf_names == tree.leaf_names
        assert np.array_equal(again.cophenetic_vector(), tree.cophenetic_vector())
        assert again.to_newick() == tree.to_newick()
        assert topology_signature(again) == topology_signature(tree)

    @pytest.mark.parametrize(
        "text",
        [
            "", " \t", ";", "(", "()", "(a)", "(a,b);", "(a,b,c)", "(a,b,c);;", "(a,b,c); x",
            "(a,b,c) x;", "(a,b,c)x;", "(a,,b,c);", "(a b,c,d);", "(a:,b,c);", "(a: x,b,c);",
            "(a:-1,b,c);", "(a:-0,b,c);", "(a:+1e3,b:.5,c:1.);", "(a:1e400,b,c);", "(a:1.5.2,b,c);",
            "(a:1e,b,c);", "(a,b,a);", "((a,b)\t:\t2 ,c) :1 ;", "(a,b,c)\n;", "(a,b,(c,d)e:1);",
            # words float reads but the length pattern does not, and full-width digits, which both read
            "(a:1_0,b,c);", "(a:inf,b,c);", "(a:nan,b,c);", "(a:Infinity,b,c);", "(a:1e5_0,b,c);",
            "(a:\uff11.\uff15,b,c);",
            # a lone surrogate, as a leaf, inside a label and after the ';', is a bad character
            "(a,b,\ud800);", "(a\udfffb,c,d);", "(a,b,c);\ud800",
        ],
    )
    def test_fixed_cases_parse_like_the_recursive_parser(self, text):
        assert_parses_like_the_oracle(text)

    @pytest.mark.parametrize("m,n", [(12, 460), (60, 20)])
    @small_chunks()
    def test_batches_spanning_several_row_chunks(self, m, n):
        # two row chunks of the kernel at least
        assert chunk_count(n, m * m) >= 2
        rng = np.random.default_rng(1900 + m)
        texts = [random_newick(rng, m) for _ in range(n)]
        batch = cophenetic_vector([parse_newick(text) for text in texts])
        assert batch.shape == (n, m * (m - 1) // 2)
        for row, text in zip(batch, texts):
            assert np.array_equal(row, oracle_vector(text)[1])

    def test_batch_needs_one_leaf_count(self):
        with pytest.raises(ValueError, match="same number of leaves"):
            cophenetic_vector([parse_newick("(a,b,c);"), parse_newick("(a,b,c,d);")])
        with pytest.raises(ValueError, match="at least one tree"):
            cophenetic_vector([])


@st.composite
def newick_files(draw, shared: bool = False) -> str:
    r"""Text of a Newick file: trees, one or two one-character edits of them, comments and blanks.

    Line ends are '\n', '\r\n' or '\r', and lines may end in whitespace
    that str.strip() removes but the grammar does not allow.  With shared,
    every tree has the same leaf labels.
    """
    labels = draw(LABELS) if shared else None
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(st.sampled_from(["tree", "tree", "edit", "edit", "comment", "blank"]))
        if shape == "comment":
            line = "#" + draw(st.sampled_from(["", " (a,b,c);", "\tnot a tree"]))
        elif shape == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "\x0c", "\xa0"]))
        else:
            line = draw(newick_texts(labels or draw(LABELS)))
            for _ in range(draw(st.integers(1, 2)) if shape == "edit" else 0):
                at = draw(st.integers(0, len(line)))
                if draw(st.booleans()) or at == len(line):
                    line = line[:at] + draw(st.sampled_from("(),:;a1-.e\t\xe9\u00df\u0663\xa0")) + line[at:]
                else:
                    line = line[:at] + line[at + 1:]
        end = draw(st.sampled_from(["", "", "\x0c", "\xa0", " \t"]))
        lines.append(line + end + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines)


def oracle_file(path) -> tuple[list, list]:
    """(trees, errors) of a Newick file by the recursive parser, line by line.

    trees holds (line, leaf names, vector), errors (line, message, offset);
    lines are read with universal newlines and str.strip(), as the file
    format says.
    """
    trees, errors = [], []
    with open(path, encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                names, vector = oracle_vector(line)
            except NewickError as err:
                errors.append((number, str(err), err.offset))
            else:
                trees.append((number, names, vector))
    return trees, errors


def assert_file_parses_like_the_oracle(path) -> None:
    trees, errors = load_newick_file(path)
    expected_trees, expected_errors = oracle_file(path)
    assert [(number, str(err), err.offset) for number, err in errors] == expected_errors
    assert [(number, tree.leaf_names) for number, tree in trees] == [(n, names) for n, names, _ in expected_trees]
    for (_, tree), (_, _, vector) in zip(trees, expected_trees):
        assert np.array_equal(tree.cophenetic_vector(), vector)


def file_spanning_chunks(wide: bool) -> tuple[str, int]:
    r"""Text of a Newick file whose kept lines span four parser chunks, and their length joined by '\n'.

    Every chunk holds '#' and blank lines, '\r\n' and '\r' line ends,
    surrounding whitespace and malformed lines.  In the kept lines joined
    by '\n', a line ending in a digit starts just before each of the first
    three multiples of _PARSE_CHUNK, and the next line, which starts at
    the multiple, begins with digits.  wide adds non-ASCII lines, so the
    file is read as four-byte code points.
    """
    trees = ["((a:1,b:1):1,c:2);", "(a:2,(b:1,c:1):1);", " (a:1,b:1,c:1);", "((a:1,b:1):1,c:9);\t"]
    broken = ["(a:1,b:-1,c:1);", "(a,b);", "(a:1,a:1,c:1);", "(a:1e400,b,c);", "((a,b),c;", "(a,b,c);;"]
    if wide:
        trees.append("(a:\u0663,b:1,c:1);\xa0")
        broken.append("(\xe9,b,c);")
    lines, kept = [], 0

    def add(line):
        nonlocal kept
        lines.append(line)
        kept += len(line.strip()) + 1

    def fill(until):
        while kept < until:
            k = len(lines)
            add(broken[k // 9 % len(broken)] if k % 9 == 0 else trees[k % len(trees)])
            if k % 7 == 0:
                lines.append("# (a,b,c);")
            if k % 11 == 0:
                lines.append(" \t\x0c")

    for mark in range(_PARSE_CHUNK, 4 * _PARSE_CHUNK, _PARSE_CHUNK):
        fill(mark - 60)
        add("x" * (mark - 18 - kept))  # a malformed line
        add("((a:1,b:1):1,c:2")  # starts 17 before the mark
        add("12")
    fill(3 * _PARSE_CHUNK + 300)
    ends = ["\n", "\r\n", "\r", "\n"]
    return "".join(line + ends[k % len(ends)] for k, line in enumerate(lines)), kept


def write_file(folder, text: str) -> str:
    path = os.path.join(folder, "trees.nwk")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def loaded(path) -> tuple[list, list]:
    """load_newick_file's result as plain values: (line, labels, leaf names, record) and (line, message, offset)."""
    trees, errors = load_newick_file(path)
    return ([(number, tree._labels.tolist(), tree.leaf_names, tree._parent.tobytes(), tree._length.tobytes(),
              tree._leaf_depth.tobytes(), tree._sep_depth.tobytes()) for number, tree in trees],
            [(number, str(err), err.offset) for number, err in errors])


class TestNewickFileAgainstLineOracle:
    """The whole-file parser against the recursive parser applied line by line."""

    @given(newick_files())
    @example("(a:1,b:1,c:1);\n(a,b);\n((a:1,b:1):1,c:2);\n# x\n(a:2,b:2,c:2);\n")
    def test_files_parse_like_the_line_oracle(self, text):
        with tempfile.TemporaryDirectory() as folder:
            path = write_file(folder, text)
            assert_file_parses_like_the_oracle(path)
            expected = loaded(path)
            for chunk in (64, len(text) + 64):  # chunks of a line or two, and one chunk
                with mock.patch.object(troppca.treespace, "_PARSE_CHUNK", chunk):
                    assert loaded(path) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "(a:1,b:1,c:1)\xa0;\n",
            "(a:\u0663,b:1,c:1);\r\n(a,b,c)\u0663;\r(\xe9,b,c);\x0c\n",
            "# only a comment\n\n  \t\n",
            "(a:1,b:1,c:1);\r\r\n(a,b,a);\n(a,b);",
            "((a,b,c);\n(a,(b,c);)\n(a:1e5,b,c)\n",
        ],
    )
    def test_fixed_files_parse_like_the_line_oracle(self, tmp_path, text):
        path = tmp_path / "trees.nwk"
        path.write_bytes(text.encode("utf-8"))
        assert_file_parses_like_the_oracle(path)

    @pytest.mark.parametrize("wide", [False, True], ids=["ascii", "wide"])
    def test_file_spanning_several_chunks(self, tmp_path, wide):
        text, kept = file_spanning_chunks(wide)
        assert kept > 3 * _PARSE_CHUNK  # so the parser reads it in at least 4 chunks
        path = tmp_path / "trees.nwk"
        path.write_bytes(text.encode("utf-8"))
        assert_file_parses_like_the_oracle(path)
        trees, errors = load_newick_file(path)
        assert len(trees) > 1000 and len(errors) > 100
        expected = loaded(path)
        for chunk in (1000, 10**7):  # about 400 chunks, and one
            with mock.patch.object(troppca.treespace, "_PARSE_CHUNK", chunk):
                assert loaded(path) == expected

    def test_deep_trees_through_a_file(self, tmp_path):
        deep = TestDeepTrees()
        path = tmp_path / "deep.nwk"
        chain = "(" * deep.M + "((a:1,b:1):1,c:2)" + ")" * deep.M + ";"
        path.write_text(f"{deep.caterpillar()}\n# between\n{chain}\r\n{deep.caterpillar()}\n")
        trees, errors = load_newick_file(path)
        assert errors == [] and [number for number, _ in trees] == [1, 3, 4]
        expected = np.concatenate([2.0 * np.maximum(np.arange(i + 1, deep.M), 1) for i in range(deep.M - 1)])
        assert np.array_equal(trees[0][1].cophenetic_vector(), expected)
        assert np.array_equal(trees[1][1].cophenetic_vector(), [2.0, 4.0, 4.0])
        assert np.array_equal(cophenetic_vector([trees[0][1], trees[2][1]]), [expected, expected])


class TestLengthFastPath:
    """Length words go to float whole; only the words float rejects, or that hold other characters, are matched."""

    @given(st.text(alphabet="0123456789\u0663\uff11.eE+-", max_size=8))
    @example("1e\u0663")
    @example("\uff11.")
    def test_float_accepts_exactly_the_words_the_pattern_matches(self, word):
        try:
            float(word)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (_NUMBER_RE.fullmatch(word) is not None)

    @pytest.fixture
    def matched(self, monkeypatch):
        words = []
        exact = troppca.treespace._exact_length

        def spying(word):
            words.append(word)
            return exact(word)

        monkeypatch.setattr(troppca.treespace, "_exact_length", spying)
        return words

    def test_well_formed_files_never_reach_the_matcher(self, tmp_path, matched):
        generated = tmp_path / "gen.nwk"
        assert main(["gen", "--m", "10", "--n", "200", "--seed", "5", "--out", str(generated)]) == 0
        rng = np.random.default_rng(23)
        drawn = tmp_path / "drawn.nwk"
        drawn.write_text("".join(random_newick(rng, m) + "\n" for m in rng.integers(3, 40, 300)))
        for path, n in ((generated, 200), (drawn, 300)):
            trees, errors = load_newick_file(path)
            assert errors == [] and len(trees) == n
        assert matched == []

    def test_only_the_rejected_words_reach_the_matcher(self, tmp_path, matched):
        path = tmp_path / "trees.nwk"
        text = "((a:1,b:2.5):1,c:1e2);\n(a:1.5.2,b:3,c:4);\n(a:x,b:1_0,c:-7);\n(a:+.5,b:1e,c:\u0663);\n"
        path.write_text(text, encoding="utf-8")
        trees, errors = load_newick_file(path)
        assert matched == ["1.5.2", "x", "1_0", "1e"]  # past a text's first error, its tokens are still read
        assert [number for number, _ in trees] == [1] and [number for number, _ in errors] == [2, 3, 4]


def library_sample(path, project_inputs: bool, normalize_height: bool):
    """_load_sample by the public tree API, PhyloTree by PhyloTree, with the CLI's error texts.

    load_newick_file, then PhyloTree.scaled to height 1 if asked, then
    cophenetic_vector, then project_to_treespace of the rows that fail the
    exact three-point check at the default tolerance.  Scaling and vectors
    go one tree at a time, so no tree hands over its whole batch's arrays.
    """
    trees, errors = load_newick_file(path)
    if errors:
        raise CliError("; ".join(f"line {ln}: {err}" for ln, err in errors))
    if not trees:
        raise CliError(f"no trees found in {path}")
    (first_ln, first), batch = trees[0], [tree for _, tree in trees]
    for ln, tree in trees[1:]:
        if tree.leaf_names != first.leaf_names:
            missing = ", ".join(sorted(set(first.leaf_names) - set(tree.leaf_names))) or "none"
            extra = ", ".join(sorted(set(tree.leaf_names) - set(first.leaf_names))) or "none"
            raise CliError(f"line {ln}: leaf set differs from line {first_ln} (missing: {missing}; extra: {extra})")
    if normalize_height:
        heights = np.array([tree.height() for tree in batch])
        with np.errstate(divide="ignore", over="ignore"):
            factors = 1.0 / heights
        for (ln, _), height, factor in zip(trees, heights, factors):
            if not np.isfinite(factor):
                raise CliError(f"line {ln}: cannot normalize a tree of height {height:.3g}")
        batch = [tree.scaled(factor) for tree, factor in zip(batch, factors)]
    vectors = np.stack([cophenetic_vector(tree) for tree in batch])
    bad = ~is_ultrametric(vectors)
    if bad.any():
        if not project_inputs:
            offenders = ", ".join(str(ln) for (ln, _), b in zip(trees, bad) if b)
            raise CliError(f"non-ultrametric input trees at lines {offenders};"
                           " rerun with --project-inputs to project them onto tree space")
        vectors[bad] = project_to_treespace(vectors[bad])
    return first.leaf_names, [ln for ln, _ in trees], vectors


def sample_outcome(load, path, flags):
    """What load(path, *flags) returns, with the vectors as bytes, or the text of the CliError it raises."""
    try:
        labels, lines, vectors = load(path, *flags)
    except CliError as err:
        return str(err)
    return labels, lines, vectors.shape, vectors.tobytes()


class TestFlatIngest:
    """The CLI's ingest from flat records against the library path through PhyloTree objects."""

    @settings(max_examples=100)
    @given(st.one_of(newick_files(), newick_files(shared=True)),
           st.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
    @example("((a:1,b:1):1,c:2);\n((a:1,c:1):2,b:3);\n# x\n(a:1,b:2,c:5);\n", (True, True))
    @example("((a:1,b:1):1,c:2);\n((a:1,c:1):2,b:3);\n(a:1,b:2,c:5);\n", (False, True))
    @example("(a:1,b:1,c:1);\n(a,b,c);\n", (False, True))
    @example("(a,b,c);\n(a,b,c,d);\n(a,b,e);\n", (False, False))
    @example("(a,b,c,d);\n(a,b,c);\n", (False, False))
    @example("# only a comment\n", (False, False))
    def test_load_sample_matches_the_library_path(self, text, flags):
        with tempfile.TemporaryDirectory() as folder:
            path = write_file(folder, text)
            assert sample_outcome(_load_sample, path, flags) == sample_outcome(library_sample, path, flags)


class TestTreeViews:
    """Trees are views of one batch: all of its trees in order hand over its own arrays, other sequences a copy."""

    @pytest.fixture
    def trees(self, tmp_path):
        path = tmp_path / "trees.nwk"
        lines = [tree.to_newick() for tree in reconstruct_tree(random_ultrametrics(6, 12, 3))]
        path.write_text("\n".join([*lines, "((a:1,b:2):1,(c:1,d:1,e:1,f:1):2);"]) + "\n")
        return [tree for _, tree in load_newick_file(path)[0]]

    def test_all_trees_in_order_give_the_batch_itself(self, trees):
        batch = trees[0]._batch
        assert all(field is getattr(batch, name) for name, field in zip(batch._fields, _joined(trees)))
        assert _joined(trees[1:]).nodes is not batch.nodes

    def test_every_sequence_gives_the_values_of_its_trees(self, trees):
        other = parse_newick("(((x:1,y:1):1,z:2):1,(u:2,v:2,w:2):1);")
        for sequence in (trees, trees[::-1], trees[1:], [trees[3], trees[3]], [*trees[:5], other], [other]):
            assert np.array_equal(cophenetic_vector(sequence), np.stack([tree.cophenetic_vector() for tree in sequence]))
            depths = _joined(sequence).depth.reshape(len(sequence), -1)
            assert np.array_equal(depths, np.stack([walk_leaf_depths(tree) for tree in sequence]))
            assert topology_signature(sequence) == [topology_signature(tree) for tree in sequence]
            scaled = _trees(_scaled(_joined(sequence), np.arange(len(sequence)) + 0.5))
            assert [tree.to_newick() for tree in scaled] == [tree.scaled(k + 0.5).to_newick()
                                                             for k, tree in enumerate(sequence)]


class TestIsUltrametric:
    def test_examples(self):
        assert is_ultrametric([1, 1, 1], tol=0)
        assert is_ultrametric([1, 2, 2], tol=0)
        assert not is_ultrametric([1, 2, 3], tol=0)

    def test_tolerance(self):
        assert not is_ultrametric([1, 2, 2.0001], tol=0)
        assert is_ultrametric([1, 2, 2.0001], tol=1e-3)

    def test_non_triangular_dimension(self):
        with pytest.raises(ValueError):
            is_ultrametric([1, 2, 3, 4], tol=0)

    def test_violation_value(self):
        assert ultrametric_violation([1, 2, 3]) == 1.0
        assert ultrametric_violation([1, 2, 2]) == 0.0

    def test_shift_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rng.random(10)
            assert ultrametric_violation(u) == ultrametric_violation(u + 3.0) or (
                abs(ultrametric_violation(u) - ultrametric_violation(u + 3.0)) < 1e-12
            )


class TestExtremeClades:
    def test_m3(self):
        assert enumerate_extreme_clades(3) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("m,count", [(3, 3), (4, 10), (5, 25), (6, 56)])
    def test_counts(self, m, count):
        assert len(enumerate_extreme_clades(m)) == count == 2**m - m - 2

    def test_deterministic_order_by_size_then_lex(self):
        clades = enumerate_extreme_clades(4)
        assert clades[:6] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert clades[6:] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_out_of_range(self):
        for m in (2, 17):
            with pytest.raises(ValueError):
                enumerate_extreme_clades(m)

    def test_vector_layout(self):
        vec = extreme_clade_vector((0, 1), 3)
        assert_array_equal(vec, [-np.inf, 0.0, 0.0])
        assert np.count_nonzero(np.isfinite(vec)) > 0
        with pytest.raises(ValueError):
            extreme_clade_vector((0,), 3)
        with pytest.raises(ValueError):
            extreme_clade_vector((0, 1, 2), 3)


class TestProjection:
    def test_simple_example(self):
        assert_array_equal(project_to_treespace(np.array([1.0, 3.0, 2.0])), [1, 2, 2])

    def test_fixed_point_on_ultrametric_input(self):
        assert_array_equal(project_to_treespace(np.array([2.0, 4.0, 4.0])), [2, 4, 4])

    def test_m4_example(self):
        out = project_to_treespace(np.array([1.0, 2, 3, 4, 5, 6]))
        assert_array_equal(out, [1, 2, 3, 2, 3, 3])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(10)
        for m in range(3, 11):
            e = m * (m - 1) // 2
            for _ in range(20):
                p = project_to_treespace(rng.random(e))
                assert_array_equal(project_to_treespace(p), p)

    def test_output_below_input(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.random(15)
            assert np.all(project_to_treespace(x) <= x)

    def test_matches_ray_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        for m in (3, 4, 5):
            e = m * (m - 1) // 2
            for _ in range(100):
                x = rng.random(e)
                assert_allclose(project_to_treespace(x), project_by_ray_enumeration(x, m), atol=1e-12, rtol=0)

    def test_clade_interior_rays_do_not_span_treespace(self):
        # combinations of the clade-interior rays stay below the projection
        # and fall strictly below it on trees with two non-trivial clusters,
        # so they are not a generating set; the split rays above are.
        x = np.array([0.6, 0.2, 0.6, 0.6, 0.3, 0.6])  # two cherries {1,3}, {2,4}
        assert ultrametric_violation(x) == 0.0
        combo = clade_ray_combination(x, 4)
        assert np.all(combo <= x + 1e-12)
        assert not np.allclose(combo, x)
        assert_array_equal(project_to_treespace(x), x)

    def test_non_expansive(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = rng.random(28)
            v = rng.random(28)
            lhs = trop_dist(project_to_treespace(u), project_to_treespace(v))
            assert lhs <= trop_dist(u, v) + 1e-9

    def test_projection_is_closest_ultrametric(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            x = rng.random(10)
            px = project_to_treespace(x)
            base = trop_dist(x, px)
            for k in range(50):
                y = random_ultrametrics(5, 1, seed=1400 + 50 * trial + k)[0]
                assert base <= trop_dist(x, y) + 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            project_to_treespace(np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            project_to_treespace(np.array([1.0, np.inf, 2.0]))


class TestReconstruct:
    def test_cherry_tree(self):
        tree = reconstruct_tree(np.array([2.0, 4.0, 4.0]))
        assert tree.to_newick() == "((1:1,2:1):1,3:2);"

    def test_star_tree(self):
        tree = reconstruct_tree(np.array([2.0, 2.0, 2.0]))
        assert len(node_view(tree).children) == 3
        assert tree.height() == 1.0

    def test_round_trip_on_random_ultrametrics(self):
        for trial in range(100):
            u = random_ultrametrics(6, 1, seed=1500 + trial)[0]
            vec = reconstruct_tree(u).cophenetic_vector()
            assert np.max(np.abs(vec - u)) <= 1e-9

    def test_custom_names_keep_index_order(self):
        tree = reconstruct_tree(np.array([2.0, 4.0, 4.0]), names=["x", "y", "z"])
        assert tree.leaf_names == ["x", "y", "z"]
        assert_array_equal(tree.cophenetic_vector(), [2, 4, 4])

    def test_rejects_non_ultrametric(self):
        with pytest.raises(ValueError, match="three-point"):
            reconstruct_tree(np.array([1.0, 2.0, 3.0]))

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError, match="positive"):
            reconstruct_tree(np.array([0.0, 2.0, 2.0]))
        with pytest.raises(ValueError, match="positive"):
            reconstruct_tree(np.array([-1.0, 2.0, 2.0]))

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="names"):
            reconstruct_tree(np.array([2.0, 4.0, 4.0]), names=["a", "a", "b"])

    @pytest.mark.parametrize("name", ["a,b", "a b", "", "x(y"])
    def test_rejects_names_that_are_not_newick_labels(self, name):
        # "a,b" used to write a 5-leaf tree, "a b" and "" text that does not parse
        u = random_ultrametrics(4, 2, seed=1)
        message = f"^leaf label {re.escape(repr(name))} is not a run of \\[A-Za-z0-9_.\\], as Newick labels are$"
        for names in ([name, "c", "d", "e"], ["c", "d", "e", name]):
            with pytest.raises(ValueError, match=message):
                reconstruct_tree(u, names=names)
            with pytest.raises(ValueError, match=message):
                reconstruct_tree(u[0], names=names)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_a_bad_tolerance(self, tol):
        # at tol=nan no violation exceeds tol, and every vector would come back as a star tree
        for u in ([1.0, 2.0, 3.0], [2.0, 4.0, 4.0], [[2.0, 4.0, 4.0], [1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError, match="^tol must be nonnegative and finite"):
                reconstruct_tree(np.array(u), tol=tol)

    def test_empty_batch_is_an_empty_list(self):
        assert project_to_treespace(np.empty((0, 3))).shape == (0, 3)
        assert reconstruct_tree(np.empty((0, 3))) == []


class TestRandomUltrametric:
    def test_exactly_ultrametric(self):
        for seed in range(50):
            u = random_ultrametrics(5, 1, seed=seed)[0]
            assert ultrametric_violation(u) == 0.0

    def test_deterministic_per_seed(self):
        assert_array_equal(random_ultrametrics(6, 1, seed=9)[0], random_ultrametrics(6, 1, seed=9)[0])

    def test_entries_in_unit_interval(self):
        for seed in range(1000):
            u = random_ultrametrics(5, 1, seed=seed)[0]
            assert np.all(u > 0) and np.all(u <= 1)

    def test_batch_draws_from_one_stream(self):
        batch = random_ultrametrics(5, 10, seed=3)
        assert batch.shape == (10, 10)
        assert_array_equal(batch, random_ultrametrics(5, 10, seed=3))
        for row in batch:
            assert ultrametric_violation(row) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            random_ultrametrics(2, 1, seed=0)
        with pytest.raises(ValueError):
            random_ultrametrics(5, 0, seed=0)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
            random_ultrametrics(5, 2, seed=-3)


class TestTopologySignature:
    def test_star_vs_caterpillar(self):
        star = parse_newick("(1:1,2:1,3:1);")
        cat = parse_newick("((1:1,2:1):1,3:2);")
        assert topology_signature(star) == "{1,2,3}"
        assert topology_signature(cat) == "{1,2}|{1,2,3}"

    def test_branch_lengths_do_not_matter(self):
        a = parse_newick("((1:1,2:1):1,3:2);")
        b = parse_newick("((1:3,2:3):1,3:4);")
        assert topology_signature(a) == topology_signature(b)

    def test_clade_away_from_the_first_leaf(self):
        assert topology_signature(parse_newick("(1:2,(2:1,3:1):1);")) == "{2,3}|{1,2,3}"

    def test_label_order_does_not_matter(self):
        a = parse_newick("((b:1,a:1):1,c:2);")
        b = parse_newick("((a:1,b:1):1,c:2);")
        assert topology_signature(a) == topology_signature(b)

    def test_default_leaf_names(self):
        assert default_leaf_names(3) == ["1", "2", "3"]


class TestTreeScaling:
    def test_scaled_height(self):
        tree = parse_newick("((1:1,2:1):1,3:2);")
        unit = tree.scaled(0.5)
        assert unit.height() == 1.0
        assert_array_equal(unit.cophenetic_vector(), [1.0, 2.0, 2.0])

    def test_rejects_an_infinite_factor(self):
        # 0 * inf would be nan: ((a:inf,b:nan):inf,c:inf); of height nan
        with pytest.raises(ValueError, match=r"^scale factor must be finite and nonnegative, got inf$"):
            parse_newick("((a:1,b:0):1,c:2);").scaled(float("inf"))


@st.composite
def batches(draw, m=st.integers(3, 12), n=st.integers(1, 10)) -> np.ndarray:
    """An (n, e) batch of negative, shifted and rounded (tied) coordinates.

    Drawn by numpy from a seed hypothesis picks, so that wide rows stay cheap.
    """
    m, n = draw(m), draw(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m * (m - 1) // 2)) - 0.5
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        x = np.round(x, decimals)
    return x * draw(st.sampled_from([1.0, 1e3])) + draw(st.sampled_from([0.0, -7.25, 1e6]))


@st.composite
def small_batches(draw) -> np.ndarray:
    """An (n, e) batch for m <= 6 whose coordinates hypothesis draws one by one."""
    m, n = draw(st.integers(3, 6)), draw(st.integers(1, 4))
    values = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False))
    return draw(hnp.arrays(np.float64, (n, m * (m - 1) // 2), elements=values))


class TestBatchedKernels:
    """The batched kernels against the per-row single-linkage and sorting oracles."""

    def assert_matches_oracles(self, x):
        projected = project_to_treespace(x)
        assert projected.shape == x.shape
        assert np.array_equal(projected, np.stack([single_linkage_projection(row) for row in x]))
        assert np.array_equal(project_to_treespace(x[0]), projected[0])
        for batch in (x, projected):
            violation = ultrametric_violation(batch)
            assert violation.shape == (len(batch),)
            assert np.array_equal(violation, [sorted_triple_violation(row) for row in batch])
            assert ultrametric_violation(batch[-1]) == violation[-1]
        assert not np.any(ultrametric_violation(projected))

    @given(batches())
    def test_equal_to_oracles(self, x):
        self.assert_matches_oracles(x)

    @given(small_batches())
    def test_equal_to_oracles_on_drawn_coordinates(self, x):
        self.assert_matches_oracles(x)

    @settings(max_examples=10)
    @given(batches(m=st.just(60), n=st.integers(1, 4)))
    def test_equal_to_oracles_at_m60(self, x):
        self.assert_matches_oracles(x)

    @given(st.one_of(batches(), small_batches(), batches(m=st.just(60), n=st.integers(1, 3))))
    # batches spanning several row chunks
    @example(np.round(np.random.default_rng(1612).normal(size=(700, 66)), 1) - 0.5)
    @example(np.round(np.random.default_rng(1660).normal(size=(20, 1770)), 1) - 0.5)
    def test_projection_bit_identical_to_scatter_prim(self, x):
        """Byte-equal to the per-step-scatter Prim, except for the sign of a zero.

        A row holding both -0.0 and +0.0 may tie them, and the two kernels
        may then select either; there the values are compared instead.
        """
        projected = project_to_treespace(x)
        expected = scatter_prim_projection(x)
        zero = x == 0
        mixed = np.any(zero & np.signbit(x), axis=1) & np.any(zero & ~np.signbit(x), axis=1)
        assert projected[~mixed].tobytes() == expected[~mixed].tobytes()
        assert np.array_equal(projected, expected)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [3, 4, 5, 8, 10, 17, 33, 60])
    def test_few_row_projection_equals_scatter_prim(self, m, r):
        """The fit's few-row projections, with distinct and with many tied weights, bit for bit."""
        rng = np.random.default_rng(100 * m + r)
        e = m * (m - 1) // 2
        for x in (rng.random((r, e)), rng.integers(1, 5, (r, e)) / 4.0):
            assert project_to_treespace(x).tobytes() == scatter_prim_projection(x).tobytes()
            assert project_to_treespace(x[0]).tobytes() == scatter_prim_projection(x[:1]).tobytes()

    @pytest.mark.parametrize("m,n", [(12, 700), (60, 20)])
    @small_chunks()
    def test_batches_spanning_several_chunks(self, m, n):
        e = m * (m - 1) // 2
        # two row chunks of the projection at least
        assert chunk_count(n, m * m) >= 2
        rng = np.random.default_rng(1600 + m)
        x = np.round(rng.normal(size=(n, e)), 1) - 0.5
        self.assert_matches_oracles(x)

    @pytest.mark.parametrize("m,n", [(12, 1100), (60, 40), (70, 30), (100, 16)])
    @small_chunks()
    def test_check_spanning_several_row_chunks(self, m, n):
        e = m * (m - 1) // 2
        # two row chunks at least, of the projection and of the three-point check
        assert chunk_count(n, m * m) >= 2 and chunk_count(n, (m - 1) ** 2 // 4) >= 2
        rng = np.random.default_rng(1600 + m)
        noise = np.round(rng.normal(size=(n - n // 2, e)), 1) - 0.5
        x = np.vstack([noise, random_ultrametrics(m, n // 2, seed=1660 + m)])
        x[-1, -1] += 1.0  # one defect, at the last pair: only triples with middle leaf m-2 see it
        assert ultrametric_violation(x[-1]) > 0
        self.assert_matches_oracles(x)

    @pytest.mark.parametrize("m,levels", [(4, 3), (5, 2)])
    def test_check_on_every_vector_of_a_grid(self, m, levels):
        x = np.array(list(itertools.product(range(levels), repeat=m * (m - 1) // 2)), dtype=float)
        assert np.array_equal(ultrametric_violation(x), [sorted_triple_violation(row) for row in x])

    def test_check_memory_is_bounded(self):
        # the full triple table at m=300 holds 4.5 million triples (a 0.5 GB peak)
        u = random_ultrametrics(300, 1, seed=1670)[0]
        tracemalloc.start()
        try:
            violation = ultrametric_violation(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert violation == 0.0
        assert peak < 32e6

    def test_check_memory_is_bounded_over_several_rows(self):
        # 40 rows at m=200 go in two chunks of the default budget, of 26 rows of (m-1)^2/4 = 9,900 triples
        # and of 14: the (m, m, 26) array takes 8.3 MB and each of three (j, m-j-1, 26) temporaries up to
        # 2.1 MB, 15 MB in all; one chunk of all 40 rows would peak at 23 MB
        u = random_ultrametrics(200, 40, seed=1671)
        assert chunk_count(len(u), 199**2 // 4) == 2
        tracemalloc.start()
        try:
            violation = ultrametric_violation(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(violation == 0.0)
        assert peak < 18e6

    def test_single_row_batch(self):
        x = np.array([[1.0, 3.0, 2.0]])
        assert_array_equal(project_to_treespace(x), [[1.0, 2.0, 2.0]])
        assert_array_equal(ultrametric_violation(x), [1.0])
        assert isinstance(ultrametric_violation(x[0]), float)

    def test_row_wise_tolerance_and_check(self):
        x = np.array([[1.0, 2.0, 2.0], [100.0, 200.0, 300.0]])
        assert_array_equal(default_tolerance(x), [2e-8, 3e-6])
        assert_array_equal(is_ultrametric(x), [True, False])

    @given(st.one_of(batches(), small_batches()))
    def test_projection_idempotent_and_exactly_ultrametric(self, x):
        projected = project_to_treespace(x)
        assert np.array_equal(project_to_treespace(projected), projected)
        assert np.all(ultrametric_violation(projected) == 0.0)
        assert np.all(projected <= x)

    @given(st.one_of(batches(n=st.just(2)), small_batches().filter(lambda x: len(x) >= 2)))
    def test_projection_non_expansive(self, x):
        px, py = project_to_treespace(x[:2])
        assert trop_dist(px, py) <= trop_dist(x[0], x[1])


@st.composite
def dendrogram_batches(draw, m=st.integers(3, 12), n=st.integers(1, 6)) -> np.ndarray:
    """An (n, e) batch of positive ultrametrics: exact, on a rounded tie grid, or near-tie chains.

    A near-tie chain merges random clusters at heights 1, 1 + d, ... whose
    steps d fall just inside or just beyond half the default tolerance
    (1e-8 times the largest entry, which is about 2), mixed with larger
    steps, so that collapses chain and stop exactly at the boundary.
    """
    m, n = draw(m), draw(n)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["exact", "grid", "chain"]))
    if kind == "exact":
        return random_ultrametrics(m, n, seed)
    if kind == "grid":
        steps = draw(st.sampled_from([2, 4, 10]))
        return project_to_treespace(np.round(rng.random((n, m * (m - 1) // 2)) * steps) / steps + 0.5)
    index = {pair: k for k, pair in enumerate(pair_order(m))}
    out = np.empty((n, len(index)))
    for row in out:
        clusters = [[k] for k in range(m)]
        height = 1.0
        while len(clusters) > 1:
            a, b = sorted(rng.choice(len(clusters), 2, replace=False))
            for i in clusters[a]:
                for j in clusters[b]:
                    row[index[min(i, j), max(i, j)]] = 2.0 * height
            clusters[a] += clusters.pop(b)
            height += rng.choice([0.99e-8, 1.01e-8, 0.5e-8, 2e-8, 0.1, 0.0])
    return out


def star_rows(m: int) -> np.ndarray:
    """One row with every entry equal: all m-2 non-root merges collapse into the root."""
    return np.full((1, m * (m - 1) // 2), 2.0)


def caterpillar_rows(m: int, rise: float) -> np.ndarray:
    """One row where leaf j joins leaves 0..j-1 at height 1 + j * rise: a chain of m-2 merges."""
    _, j = np.triu_indices(m, 1)
    return 2.0 * (1.0 + j * rise)[None, :]


class TestBatchedReconstruct:
    """Batched reconstruction against the per-tree union-find oracle."""

    def assert_matches_oracle(self, x, tol=None):
        trees = reconstruct_tree(x, tol=tol)
        assert isinstance(trees, list) and len(trees) == len(x)
        expected = [union_find_reconstruct_tree(row, tol=tol) for row in x]
        assert [t.to_newick() for t in trees] == [t.to_newick() for t in expected]
        assert [walk_clades(t) for t in trees] == [walk_clades(t) for t in expected]
        assert np.array_equal(cophenetic_vector(trees), cophenetic_vector(expected))
        single = reconstruct_tree(x[-1], tol=tol)
        assert single.to_newick() == expected[-1].to_newick()

    @given(dendrogram_batches())
    @example(star_rows(60))
    @example(star_rows(300))
    def test_equal_to_union_find(self, x):
        self.assert_matches_oracle(x)

    @given(dendrogram_batches(), st.sampled_from([0.0, 1e-8, 0.05, 0.3]))
    @example(caterpillar_rows(60, rise=0.02), 0.05)  # each merge within tol/2 of the next
    def test_equal_to_union_find_at_a_given_tolerance(self, x, tol):
        if np.all(ultrametric_violation(x) <= tol):
            self.assert_matches_oracle(x, tol)

    @settings(max_examples=10)
    @given(dendrogram_batches(m=st.just(60), n=st.integers(1, 3)))
    def test_equal_to_union_find_at_m60(self, x):
        self.assert_matches_oracle(x)

    @given(dendrogram_batches(), st.integers(0, 2**32 - 1))
    def test_near_ultrametric_rows_equal_to_union_find(self, exact, seed):
        """Exact rows moved by less than half the default tolerance, as plot's projected points are.

        The trees match the oracle's in clades and cophenetic vectors.
        Newick is not compared: off exact ties, Prim's order and Kruskal's
        pair orientation may list the children of a node differently.
        """
        rng = np.random.default_rng(seed)
        x = exact + 0.4 * default_tolerance(exact)[:, None] * rng.uniform(-1.0, 1.0, exact.shape)
        assert np.all(ultrametric_violation(x) <= default_tolerance(x))
        trees = reconstruct_tree(x)
        expected = [union_find_reconstruct_tree(row) for row in x]
        assert [set(walk_clades(t)) for t in trees] == [set(walk_clades(t)) for t in expected]
        assert np.array_equal(cophenetic_vector(trees), cophenetic_vector(expected))

    @pytest.mark.parametrize("m,n", [(12, 1100), (60, 40)])
    @small_chunks()
    def test_batches_spanning_several_chunks(self, m, n):
        # two row chunks of the kernel at least
        assert chunk_count(n, m * m) >= 2
        exact = random_ultrametrics(m, n, seed=1700 + m)
        self.assert_matches_oracle(exact)
        rng = np.random.default_rng(1800 + m)
        self.assert_matches_oracle(project_to_treespace(np.round(rng.random(exact.shape), 1) + 0.5))

    def test_collapse_stops_at_half_the_tolerance(self):
        # merges at heights 1 and 1 + d; half the default tolerance is 1e-8 * (1 + d)
        inside = reconstruct_tree(np.array([[2.0, 2.0 + 1.8e-8, 2.0 + 1.8e-8]]))[0]
        beyond = reconstruct_tree(np.array([[2.0, 2.0 + 2.2e-8, 2.0 + 2.2e-8]]))[0]
        assert topology_signature(inside) == "{1,2,3}"
        assert topology_signature(beyond) == "{1,2}|{1,2,3}"

    def test_names_apply_to_every_row(self):
        trees = reconstruct_tree(random_ultrametrics(4, 3, seed=5), names="wxyz")
        assert all(tree.leaf_names == ["w", "x", "y", "z"] for tree in trees)

    def test_failing_row_is_named(self):
        x = random_ultrametrics(5, 4, seed=6)
        bad = x.copy()
        bad[[2, 3], 0] = 5.0  # above every other entry: the three-point condition fails
        with pytest.raises(ValueError, match=r"^row 2: not ultrametric"):
            reconstruct_tree(bad)
        bad = x.copy()
        bad[1:] -= bad[1:].min(axis=1, keepdims=True)  # torus-equivalent, but with a zero entry
        bad[2, 0] = 5.0
        with pytest.raises(ValueError, match=r"^row 1: all entries must be positive"):
            reconstruct_tree(bad)
        bad[1, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            reconstruct_tree(bad)


SUBNORMAL_LENGTHS = st.one_of(LENGTHS, st.sampled_from([5e-324, 1e-310, 2.2250738585072e-308]))


def assert_text_matches_walks(trees) -> None:
    """The batch Newick lines and signatures of trees equal the per-tree walks'."""
    parent = np.concatenate([tree._parent for tree in trees])
    length = np.concatenate([tree._length for tree in trees])
    nodes = np.array([len(tree._parent) for tree in trees])
    labels = [label for tree in trees for label in tree._labels]
    expected = [walk_newick(tree) for tree in trees]
    assert _newick(parent, length, nodes, labels) == "".join(text + "\n" for text in expected)
    assert [tree.to_newick() for tree in trees] == expected
    signatures = [walk_topology_signature(tree) for tree in trees]
    assert [topology_signature(tree) for tree in trees] == signatures
    assert topology_signature(trees) == signatures


class TestBatchText:
    """Text straight from flat records against the per-tree walks of tests/oracles.py."""

    @given(dendrogram_batches(), st.sampled_from([None, None, 0.05, 0.3]))
    @example(star_rows(300), None)
    @example(caterpillar_rows(300, rise=0.01), None)
    @example(caterpillar_rows(60, rise=0.02), 0.05)  # each merge within tol/2 of the next
    def test_reconstructed_rows(self, x, tol):
        if np.all(ultrametric_violation(x) <= (default_tolerance(x) if tol is None else tol)):
            trees = reconstruct_tree(x, tol=tol)
            assert_text_matches_walks(trees)
            if tol is None:  # what gen writes
                assert "".join(_dendrogram_newick(x)) == "".join(walk_newick(tree) + "\n" for tree in trees)

    @settings(max_examples=10)
    @given(dendrogram_batches(m=st.just(60), n=st.integers(1, 3)))
    def test_reconstructed_rows_at_m60(self, x):
        assert "".join(_dendrogram_newick(x)) == "".join(walk_newick(tree) + "\n" for tree in reconstruct_tree(x))
        assert_text_matches_walks(reconstruct_tree(x))

    @small_chunks()
    def test_rows_spanning_several_chunks(self):
        x = random_ultrametrics(10, 1000, seed=1)
        assert len(list(_dendrogram_newick(x))) > 1
        assert "".join(_dendrogram_newick(x)) == "".join(walk_newick(tree) + "\n" for tree in reconstruct_tree(x))

    @given(st.data())
    def test_parsed_trees(self, data):
        """Multifurcations, unary nodes, internal labels, missing, zero and subnormal lengths; two label sets."""
        labels = data.draw(LABELS)
        label_sets = st.sampled_from([labels, [label + "x" for label in labels]])
        texts = data.draw(st.lists(label_sets.flatmap(lambda names: newick_texts(names, SUBNORMAL_LENGTHS)),
                                   min_size=1, max_size=4))
        assert_text_matches_walks([parse_newick(text) for text in texts])

    def test_deep_trees(self):
        assert_text_matches_walks([parse_newick(TestDeepTrees().caterpillar())])
        assert_text_matches_walks([parse_newick("(" * 700 + "((a:1,b:1):1,c:2)" + "):0" * 700 + ";")] * 2)

    def test_plot_groups_equal_per_tree_signatures(self):
        """Projected points of a fitted polytope, as plot colours them: most share a topology with another."""
        sample = random_ultrametrics(8, 300, seed=4)
        polytope, _ = fit(sample, FitConfig(s=3, max_iters=20, seed=1))
        w, _ = project_to_polytope(sample, polytope)
        trees = reconstruct_tree(_positive_representatives(w), names=list("abcdefgh"))
        groups = topology_signature(trees)
        assert groups == [walk_topology_signature(tree) for tree in trees]
        assert len(set(groups)) < len(trees) / 2


class TestChunkIndependence:
    """Rows are independent in every row kernel: chunks of one row and the default chunks give the same bytes."""

    @staticmethod
    def results(x, exact):
        """Each row kernel's result on the rows x, or on the exact ultrametrics exact, as bytes or text."""
        trees = reconstruct_tree(exact)
        w, lam = project_to_polytope(x, TropicalPolytope(exact[:3]))
        return {
            "project_to_treespace": project_to_treespace(x).tobytes(),
            "ultrametric_violation": ultrametric_violation(x).tobytes(),
            "reconstruct_tree": [field.tolist() if field.dtype == object else field.tobytes()
                                 for field in _joined(trees)],
            "cophenetic_vector": cophenetic_vector(trees).tobytes(),
            "project_to_polytope": (w.tobytes(), lam.tobytes()),
            "_dendrogram_newick": "".join(_dendrogram_newick(exact)),
        }

    @pytest.mark.parametrize("m,n", [(3, 150), (12, 150), (60, 70)])
    def test_one_row_chunks_give_the_default_bytes(self, m, n):
        rng = np.random.default_rng(2100 + m)
        x = np.round(rng.normal(size=(n, m * (m - 1) // 2)), 1) + 4.0  # ties in every kernel
        exact = np.vstack([random_ultrametrics(m, n - n // 2, seed=2200 + m),
                           project_to_treespace(np.round(rng.random((n // 2, x.shape[1])), 1) + 0.5)])
        assert len(list(_dendrogram_newick(exact))) == 1  # one chunk at the default budget
        expected = self.results(x, exact)
        with mock.patch.object(troppca.treespace, "_CHUNK_ELEMENTS", 1):
            assert len(list(_dendrogram_newick(exact))) == n  # one row per chunk; project_to_polytope's hold 64
            assert self.results(x, exact) == expected


class CheckedRows:
    """Spy on ultrametric_violation: the rows of every call, and the exact check itself unchanged."""

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.exact = troppca.treespace.ultrametric_violation

    def __call__(self, u):
        self.rows.extend(np.atleast_2d(np.asarray(u, dtype=float)))
        return self.exact(u)

    def __enter__(self):
        self.patch = mock.patch.object(troppca.treespace, "ultrametric_violation", self)
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()

    def assert_checked(self, rows: np.ndarray) -> None:
        """Every row of rows that fails its default tolerance went through the exact check."""
        seen = {row.tobytes() for row in self.rows}
        failing = ~(self.exact(rows) <= default_tolerance(rows))
        assert all(row.tobytes() in seen for row in rows[failing])


def chain_row(delta: float) -> np.ndarray:
    """u_ij = 1 + delta (|i - j| - 1) on 4 leaves: violation delta, but max(u - sub) = 2 delta."""
    return np.array([1 + delta * (abs(i - j) - 1) for i, j in itertools.combinations(range(4), 2)])


def scale_leaf_branch(text: str, leaf: str, scale: float) -> str:
    """Newick text with the branch length of the leaf labelled leaf multiplied by scale."""
    return re.sub(rf"(?<=[(,]){leaf}:([^,)]+)", lambda k: f"{leaf}:{float(k[1]) * scale!r}", text)


@st.composite
def near_ultrametric_trees(draw) -> list:
    """Trees on one leaf set: exact, perturbed near the tolerance, with one leaf branch far off, or arbitrary.

    The trees may be rescaled, to height 1 as --normalize-height does or
    by a common factor.  Exact trees pass the default tolerance, perturbed
    ones pass or fail it narrowly, and some with a far-off leaf branch
    pass it with leaf depths far apart.
    """
    m, n = draw(st.integers(3, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    texts = []
    size = draw(st.sampled_from([1.0, 1e-3, 1e5]))
    for tree in reconstruct_tree(random_ultrametrics(m, n, int(rng.integers(2**31))) * size):
        text = tree.to_newick()
        family = draw(st.sampled_from(["exact", "perturbed", "long", "arbitrary"]))
        if family == "perturbed":  # one leaf longer or shorter by up to about twice the default tolerance
            text = scale_leaf_branch(text, "1", 1 + float(rng.choice([-1, 1])) * 10 ** rng.uniform(-11, -7))
        elif family == "long":  # leaf depths far apart; within tol where "1" hangs off the root
            text = scale_leaf_branch(text, "1", 10 ** rng.uniform(-3, 3))
        elif family == "arbitrary":
            text = random_newick(rng, m)
        texts.append(text)
    trees = [parse_newick(text) for text in texts]
    scale = draw(st.sampled_from([None, "height", 1e-7, 3.0]))
    if scale is None:
        return trees
    if scale == "height":  # as --normalize-height
        factors = np.array([1.0 / tree.height() for tree in trees])
    else:
        factors = np.full(len(trees), scale)
    return _trees(_scaled(_joined(trees), factors))


@st.composite
def line_noise_ultrametrics(draw) -> np.ndarray:
    """Ultrametrics plus delta |x_i - x_j| for leaves at random points x of [0, 1], delta near the tolerance.

    On a star such a row has violation at most delta/2 but max(u - sub)
    close to delta, so some rows fail the Prim screen and pass tol.
    """
    m, n = draw(st.integers(3, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_ultrametrics(m, n, int(rng.integers(2**31)))
    if draw(st.booleans()):
        base[:] = 1.0  # a star
    x = rng.random((n, m))
    i, j = np.triu_indices(m, 1)
    return base + 10 ** rng.uniform(-8.5, -7.3, (n, 1)) * np.abs(x[:, i] - x[:, j])


class TestScreenedChecks:
    """The depth screen of ingest and the Prim screen of reconstruct_tree decide like the exact check."""

    @settings(max_examples=150, deadline=None)
    @given(near_ultrametric_trees())
    @example([parse_newick("((a:1,b:1):1,c:5);")])  # leaf depths 3 apart, violation 0
    @example([parse_newick("((a:2,b:1):0.1,c:0.5);").scaled(1e308)])  # u = (inf, inf, 1.6e308)
    def test_depth_screen_decides_like_the_check(self, trees):
        with np.errstate(invalid="ignore"):  # inf - inf in the check of overflowed rows
            with CheckedRows() as spy:
                vectors, ok = _checked_vectors(_joined(trees))
            assert np.array_equal(ok, is_ultrametric(vectors))
            spy.assert_checked(vectors)
        assert np.array_equal(vectors, cophenetic_vector(trees), equal_nan=True)

    def test_depth_screen_passes_depths_far_apart_through_the_check(self):
        trees = [parse_newick("((a:1,b:1):1,c:5);"), parse_newick("((a:1,b:1):1,c:2);")]
        with CheckedRows() as spy:
            vectors, ok = _checked_vectors(_joined(trees))
        assert ok.tolist() == [True, True]
        assert np.array_equal(spy.rows, vectors[:1])  # only the first fails the screen

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(near_ultrametric_trees().map(cophenetic_vector), line_noise_ultrametrics()),
           st.sampled_from([None, None, 0.0, 1e-9]))
    @example(chain_row(0.6e-8)[None], None)
    def test_prim_screen_decides_like_the_check(self, rows, tol):
        expected = default_tolerance(rows) if tol is None else np.full(len(rows), tol)
        violation = ultrametric_violation(rows)
        with CheckedRows() as spy:
            if np.all(violation <= expected):
                reconstructed = reconstruct_tree(rows, tol=tol)
                assert len(reconstructed) == len(rows)
            else:
                r = int(np.argmax(violation > expected))
                message = (f"row {r}: not ultrametric: worst three-point violation {violation[r]:.3g}"
                           f" exceeds tolerance {expected[r]:.3g}")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    reconstruct_tree(rows, tol=tol)
        seen = {row.tobytes() for row in spy.rows}
        assert all(row.tobytes() in seen for row in rows[violation > expected])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(near_ultrametric_trees().map(cophenetic_vector), line_noise_ultrametrics()))
    @example(chain_row(0.6e-8)[None])
    # initial vertices reach the check unscreened for finiteness; in the last row the screen reads inf at
    # pairs 01 and 02, within tol = inf, but triple 012 has defect inf - inf = nan
    @example(np.array([[1.0, 1.0, np.inf], [1.0, np.nan, 1.0], [2.0, 4.0, 4.0]]))
    @example(np.array([[np.inf, np.inf, 1.0, 1.0, 1.0, 1.0]]))
    def test_prim_screen_decides_fit_checks_like_the_check(self, rows):
        with np.errstate(invalid="ignore"):  # inf - inf in the exact check of rows that are not finite
            bad = np.flatnonzero(~is_ultrametric(rows))
        with np.errstate(invalid="ignore"), CheckedRows() as spy:
            if bad.size:
                shown = ", ".join(map(str, bad[:10])) + ("" if len(bad) <= 10 else f" (+{len(bad) - 10} more)")
                with pytest.raises(ValueError, match=f"^rows at indices {re.escape(shown)} fail the three-point"):
                    _validate_ultrametric_rows(rows, "rows")
            else:
                _validate_ultrametric_rows(rows, "rows")
        seen = {row.tobytes() for row in spy.rows}
        assert all(row.tobytes() in seen for row in rows[bad])

    @pytest.mark.parametrize("delta", [0.6e-8, 0.9e-8])
    def test_prim_screen_passes_a_row_within_tol_through_the_check(self, delta):
        # tol is about 1e-8: the violation delta is within it, max(u - sub) = 2 delta is not
        row = chain_row(delta)
        assert ultrametric_violation(row) <= default_tolerance(row) < 2 * delta
        with CheckedRows() as spy:
            tree = reconstruct_tree(row)
        assert np.array_equal(spy.rows, [row])
        assert topology_signature(tree) == "{1,2,3,4}"

    def test_first_bad_row_of_a_screened_batch_is_named(self):
        rows = np.vstack([random_ultrametrics(4, 2, seed=3), chain_row(0.6e-8), chain_row(3e-8), chain_row(1.0)])
        with CheckedRows() as spy:
            with pytest.raises(ValueError, match=r"^row 3: not ultrametric: worst three-point violation 3e-08"
                                                 r" exceeds tolerance 1e-08$"):
                reconstruct_tree(rows)
        assert np.array_equal(spy.rows, rows[2:])
        rows[0, 0] = -rows[0, 0]  # a nonpositive entry, on a row the screen does not clear
        with pytest.raises(ValueError, match=r"^row 0: all entries must be positive to realize a tree$"):
            reconstruct_tree(rows)

    def test_exact_ultrametrics_skip_the_check(self):
        with CheckedRows() as spy:
            trees = reconstruct_tree(random_ultrametrics(60, 50, 1))
        assert len(trees) == 50 and spy.rows == []
