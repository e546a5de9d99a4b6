import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    clade_ray_combination,
    enumerate_extreme_clades,
    extreme_clade_vector,
    path_weight,
    project_by_ray_enumeration,
    single_linkage_projection,
    sorted_triple_violation,
)
from troppca.tropical import trop_dist
from troppca.treespace import (
    _CHUNK_ELEMENTS,
    NewickError,
    PhyloTree,
    default_leaf_names,
    default_tolerance,
    is_ultrametric,
    leaf_count_from_dim,
    load_newick_file,
    pair_index,
    pair_order,
    parse_newick,
    project_to_treespace,
    random_ultrametric,
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


class TestNewickSerialization:
    def test_round_trip_is_exact(self):
        text = "((1:1,2:1):1,3:2);"
        tree = parse_newick(text)
        assert tree.to_newick() == text

    def test_serialize_parse_fixes_cophenetic_vector(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            u = random_ultrametric(6, seed=700 + trial)
            tree = reconstruct_tree(u)
            text = tree.to_newick()
            again = parse_newick(text)
            assert again.to_newick() == text
            assert_array_equal(again.cophenetic_vector(), parse_newick(text).cophenetic_vector())

    def test_twelve_significant_digits(self):
        tree = reconstruct_tree(np.array([0.123456789012345, 0.9, 0.9]))
        assert "0.0617283945062" in tree.to_newick()


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
            u = random_ultrametric(6, seed=800 + trial)
            tree = reconstruct_tree(u)
            vec = tree.cophenetic_vector()
            for (i, j), value in zip(pair_order(6), vec):
                walked = path_weight(tree, tree.leaf_names[i], tree.leaf_names[j])
                assert abs(walked - value) <= 1e-12

    def test_equidistance_gap(self):
        assert parse_newick("((1:1,2:1):1,3:2);").equidistance_gap() == 0.0
        skewed = parse_newick("((1:1,2:1):1,3:5);")
        assert skewed.equidistance_gap() == pytest.approx(3.0)
        assert not skewed.is_equidistant()


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
                y = random_ultrametric(5, seed=1400 + 50 * trial + k)
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
        assert len(tree.root.children) == 3
        assert tree.height() == 1.0

    def test_round_trip_on_random_ultrametrics(self):
        for trial in range(100):
            u = random_ultrametric(6, seed=1500 + trial)
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


class TestRandomUltrametric:
    def test_exactly_ultrametric(self):
        for seed in range(50):
            u = random_ultrametric(5, seed=seed)
            assert ultrametric_violation(u) == 0.0

    def test_deterministic_per_seed(self):
        assert_array_equal(random_ultrametric(6, seed=9), random_ultrametric(6, seed=9))

    def test_entries_in_unit_interval(self):
        for seed in range(1000):
            u = random_ultrametric(5, seed=seed)
            assert np.all(u > 0) and np.all(u <= 1)

    def test_batch_draws_from_one_stream(self):
        batch = random_ultrametrics(5, 10, seed=3)
        assert batch.shape == (10, 10)
        assert_array_equal(batch, random_ultrametrics(5, 10, seed=3))
        for row in batch:
            assert ultrametric_violation(row) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            random_ultrametric(2, seed=0)
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

    @pytest.mark.parametrize("m,n", [(12, 700), (60, 20)])
    def test_batches_spanning_several_chunks(self, m, n):
        e = m * (m - 1) // 2
        # two chunks of the projection at least; the check's chunks hold fewer rows
        assert n >= 2 * (_CHUNK_ELEMENTS // (m * m))
        rng = np.random.default_rng(1600 + m)
        x = np.round(rng.normal(size=(n, e)), 1) - 0.5
        self.assert_matches_oracles(x)

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
