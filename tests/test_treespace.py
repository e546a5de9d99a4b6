import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    Node,
    clade_ray_combination,
    enumerate_extreme_clades,
    equidistance_gap,
    extreme_clade_vector,
    is_equidistant,
    nested_clades,
    node_view,
    path_weight,
    project_by_ray_enumeration,
    recursive_cophenetic_vector,
    recursive_parse_newick,
    scatter_prim_projection,
    single_linkage_projection,
    sorted_triple_violation,
    tree_from_nodes,
    union_find_reconstruct_tree,
)
from troppca.tropical import trop_dist
from troppca.treespace import (
    _CHUNK_ELEMENTS,
    NewickError,
    cophenetic_vector,
    default_leaf_names,
    default_tolerance,
    is_ultrametric,
    leaf_count_from_dim,
    load_newick_file,
    pair_index,
    pair_order,
    parse_newick,
    project_to_treespace,
    random_ultrametrics,
    reconstruct_tree,
    topology_signature,
    ultrametric_violation,
)


class TestPairIndexing:
    def test_lexicographic_order(self):
        assert pair_order(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_pair_index_symmetry(self):
        assert pair_index(1, 2, 3) == 2
        assert pair_index(2, 1, 3) == 2
        with pytest.raises(ValueError):
            pair_index(1, 1, 3)

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
        assert len(tree.clades()) == 1502
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
            assert sorted(tuple(sorted(c)) for c in tree.clades()) == nested_clades(recursive_parse_newick(text)[0])
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
            text = text[:at] + data.draw(st.sampled_from("(),:;a1-")) + text[at:]
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
        ],
    )
    def test_fixed_cases_parse_like_the_recursive_parser(self, text):
        assert_parses_like_the_oracle(text)

    def test_batch_needs_one_leaf_count(self):
        with pytest.raises(ValueError, match="same number of leaves"):
            cophenetic_vector([parse_newick("(a,b,c);"), parse_newick("(a,b,c,d);")])
        with pytest.raises(ValueError, match="at least one tree"):
            cophenetic_vector([])


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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_a_bad_tolerance(self, tol):
        # at tol=nan no violation exceeds tol, and every vector would come back as a star tree
        for u in ([1.0, 2.0, 3.0], [2.0, 4.0, 4.0], [[2.0, 4.0, 4.0], [1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError, match="^tol must be nonnegative and finite"):
                reconstruct_tree(np.array(u), tol=tol)


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

    @pytest.mark.parametrize("m,n", [(12, 700), (60, 20)])
    def test_batches_spanning_several_chunks(self, m, n):
        e = m * (m - 1) // 2
        # two row chunks of the projection at least
        assert n >= 2 * (_CHUNK_ELEMENTS // (m * m))
        rng = np.random.default_rng(1600 + m)
        x = np.round(rng.normal(size=(n, e)), 1) - 0.5
        self.assert_matches_oracles(x)

    @pytest.mark.parametrize("m,n", [(12, 1100), (60, 40), (70, 30), (100, 16)])
    def test_check_spanning_several_row_chunks(self, m, n):
        e = m * (m - 1) // 2
        # two row chunks at least, of the projection and of the three-point check
        assert n > _CHUNK_ELEMENTS // (m * m) and n > _CHUNK_ELEMENTS // ((m - 1) ** 2 // 4)
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


class TestBatchedReconstruct:
    """Batched reconstruction against the per-tree union-find oracle."""

    def assert_matches_oracle(self, x, tol=None):
        trees = reconstruct_tree(x, tol=tol)
        assert isinstance(trees, list) and len(trees) == len(x)
        expected = [union_find_reconstruct_tree(row, tol=tol) for row in x]
        assert [t.to_newick() for t in trees] == [t.to_newick() for t in expected]
        assert [t.clades() for t in trees] == [t.clades() for t in expected]
        assert np.array_equal(cophenetic_vector(trees), cophenetic_vector(expected))
        single = reconstruct_tree(x[-1], tol=tol)
        assert single.to_newick() == expected[-1].to_newick()

    @given(dendrogram_batches())
    def test_equal_to_union_find(self, x):
        self.assert_matches_oracle(x)

    @given(dendrogram_batches(), st.sampled_from([0.0, 1e-8, 0.05, 0.3]))
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
        assert [set(t.clades()) for t in trees] == [set(t.clades()) for t in expected]
        assert np.array_equal(cophenetic_vector(trees), cophenetic_vector(expected))

    @pytest.mark.parametrize("m,n", [(12, 1100), (60, 40)])
    def test_batches_spanning_several_chunks(self, m, n):
        # two row chunks of the kernel at least
        assert n >= 2 * (_CHUNK_ELEMENTS // (m * m))
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
