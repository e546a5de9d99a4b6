import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import troppca.pca
import troppca.treespace
from oracles import (
    broadcast_objective,
    broadcast_projection,
    grad_dist,
    instance_is_generic,
    jacobian_w,
    row_evaluate,
    row_projection,
    tie_averaged_subgradient,
    trop_combine,
)
from troppca.pca import (
    TIE_RTOL,
    FitConfig,
    TropicalPolytope,
    _evaluation_work,
    _stored,
    _workspace,
    baseline_random_search,
    evaluate,
    fit,
    objective,
    project_to_polytope,
    subgradient,
)
from troppca.tropical import trop_dist
from troppca.treespace import is_ultrametric, project_to_treespace, random_ultrametrics, ultrametric_violation

# A row budget small enough that the batches below span several row chunks of
# project_to_polytope; at the default budget each of them is one chunk.
SMALL_CHUNK = 1 << 15


def small_chunks():
    """Patches the row kernels' budget, which project_to_polytope reads from treespace, down to SMALL_CHUNK."""
    return mock.patch.object(troppca.treespace, "_CHUNK_ELEMENTS", SMALL_CHUNK)


def chunk_rows(vertices: np.ndarray) -> int:
    """Observations per row chunk of project_to_polytope over these vertices, at the budget in force."""
    return max(troppca.treespace._CHUNK_ELEMENTS // vertices.size, 64)


def finite_difference_gradient(sample, vertices, h=1e-6):
    fd = np.zeros_like(vertices)
    for k in range(vertices.shape[0]):
        for l in range(vertices.shape[1]):
            plus = vertices.copy()
            plus[k, l] += h
            minus = vertices.copy()
            minus[k, l] -= h
            fd[k, l] = (
                objective(sample, TropicalPolytope(plus))
                - objective(sample, TropicalPolytope(minus))
            ) / (2 * h)
    return fd


@st.composite
def instances(draw):
    """(sample, vertices) in tree space, some sample rows on the polytope.

    On a grid draw every value is a multiple of 1/16, so values tie exactly
    well beyond the ties tree space has by construction; jitter far below
    the tie tolerance then turns those ties into near-ties.
    """
    m, s, n = draw(st.integers(4, 5)), draw(st.integers(2, 3)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    vertices = random_ultrametrics(m, s, seed=seed)
    sample = random_ultrametrics(m, n, seed=seed + 1)
    if draw(st.booleans()):
        vertices, sample = np.round(16 * vertices) / 16, np.round(16 * sample) / 16
        if draw(st.booleans()):
            rng = np.random.default_rng(seed)
            vertices = vertices + rng.uniform(-1e-12, 1e-12, vertices.shape)
            sample = sample + rng.uniform(-1e-12, 1e-12, sample.shape)
    on_polytope = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i in np.flatnonzero(on_polytope):
        # dyadic coefficients keep the combination exact on a grid draw
        coeffs = np.array(draw(st.lists(st.integers(-8, 8), min_size=s, max_size=s))) / 16
        sample[i] = (coeffs[:, None] + vertices).max(axis=0)
    return sample, vertices


class TestPolytope:
    def test_validation(self):
        with pytest.raises(ValueError):
            TropicalPolytope(np.zeros(3))
        with pytest.raises(ValueError):
            TropicalPolytope(np.zeros((4, 3)))  # more vertices than coordinates
        p = TropicalPolytope([[0, 0, 0], [0, 1, 1]])
        assert p.s == 2 and p.e == 3 and p.m == 3

    def test_vertices_are_frozen(self):
        p = TropicalPolytope([[0, 0, 0], [0, 1, 1]])
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 5.0

    def test_combinations_of_ultrametric_vertices_stay_ultrametric(self):
        rng = np.random.default_rng(20)
        vertices = random_ultrametrics(5, 3, seed=20)
        for _ in range(200):
            coeffs = rng.normal(size=3)
            combo = (coeffs[:, None] + vertices).max(axis=0)
            assert ultrametric_violation(combo) <= 1e-12


class TestProjectToPolytope:
    def test_vertex_projects_to_itself(self):
        vertices = random_ultrametrics(4, 2, seed=21)
        p = TropicalPolytope(vertices)
        w, lam = project_to_polytope(vertices[0], p)
        assert_array_equal(w, vertices[0])
        assert lam[0] == 0.0

    def test_interior_point_is_fixed(self):
        p = TropicalPolytope([[0, 0, 0], [0, 1, 1]])
        w, lam = project_to_polytope(np.array([0.0, 0.5, 0.5]), p)
        assert_array_equal(w, [0.0, 0.5, 0.5])
        assert_array_equal(lam, [0.0, -0.5])

    def test_outside_point(self):
        p = TropicalPolytope([[0, 0, 0], [0, 1, 1]])
        u = np.array([0.0, 2.0, 2.0])
        w, lam = project_to_polytope(u, p)
        assert_array_equal(w, [0.0, 1.0, 1.0])
        assert_array_equal(lam, [0.0, 0.0])
        assert trop_dist(u, w) == 1.0

    def test_below_input_and_touching(self):
        rng = np.random.default_rng(22)
        vertices = random_ultrametrics(5, 3, seed=22)
        p = TropicalPolytope(vertices)
        for _ in range(50):
            u = rng.random(10)
            w, lam = project_to_polytope(u, p)
            assert np.all(w <= u + 1e-12)
            assert np.min(np.abs(w - u)) <= 1e-12  # touches somewhere

    def test_no_closer_point_among_random_combinations(self):
        rng = np.random.default_rng(23)
        vertices = random_ultrametrics(5, 3, seed=23)
        p = TropicalPolytope(vertices)
        for _ in range(20):
            u = rng.random(10)
            w, _ = project_to_polytope(u, p)
            base = trop_dist(u, w)
            for _ in range(50):
                z = (rng.normal(size=3)[:, None] + vertices).max(axis=0)
                assert base <= trop_dist(u, z) + 1e-9

    def test_shift_of_input_shifts_lambda_not_dist(self):
        vertices = random_ultrametrics(5, 3, seed=24)
        p = TropicalPolytope(vertices)
        u = np.random.default_rng(24).random(10)
        w0, lam0 = project_to_polytope(u, p)
        w1, lam1 = project_to_polytope(u + 2.5, p)
        assert_allclose(lam1, lam0 + 2.5, atol=1e-12)
        assert abs(trop_dist(u, w0) - trop_dist(u + 2.5, w1)) <= 1e-12

    def test_dimension_mismatch(self):
        p = TropicalPolytope([[0, 0, 0], [0, 1, 1]])
        with pytest.raises(ValueError):
            project_to_polytope(np.zeros(4), p)


class TestBatchedProjection:
    """Row-wise projection and distance against one-row calls, bit for bit."""

    def assert_rows_match(self, sample, vertices):
        p = TropicalPolytope(vertices)
        w, lam = project_to_polytope(sample, p)
        assert w.shape == sample.shape and lam.shape == (len(sample), p.s)
        rows = [project_to_polytope(u, p) for u in sample]
        assert np.array_equal(w, np.stack([row_w for row_w, _ in rows]))
        assert np.array_equal(lam, np.stack([row_lam for _, row_lam in rows]))
        dist = trop_dist(sample, w)
        assert np.array_equal(dist, [trop_dist(u, row_w) for u, row_w in zip(sample, w)])
        assert objective(sample, p) == broadcast_objective(sample, vertices)

    def assert_broadcast_match(self, sample, vertices):
        w, lam = project_to_polytope(sample, TropicalPolytope(vertices))
        expected_w, expected_lam = broadcast_projection(sample, vertices)
        assert np.array_equal(w, expected_w) and np.array_equal(lam, expected_lam)

    @given(instances())
    def test_equal_to_row_by_row_calls(self, instance):
        self.assert_rows_match(*instance)

    @given(instances())
    def test_equal_to_broadcast_formulas(self, instance):
        self.assert_broadcast_match(*instance)

    @small_chunks()
    def test_batch_spanning_several_chunks(self):
        vertices = random_ultrametrics(10, 3, seed=60)
        sample = random_ultrametrics(10, 700, seed=61)
        assert len(sample) >= 2 * chunk_rows(vertices)
        self.assert_rows_match(sample, vertices)
        self.assert_rows_match(np.round(sample, 1), np.round(vertices, 1))
        for tied in (1, 4):  # rounded to a grid, so the min and max selections tie
            self.assert_broadcast_match(np.round(sample, tied), np.round(vertices, tied))
        self.assert_broadcast_match(sample, vertices)

    @staticmethod
    def assert_w_combines_lam(sample, vertices):
        w, lam = project_to_polytope(sample, TropicalPolytope(vertices))
        for row_w, row_lam in zip(w, lam):
            assert np.array_equal(row_w, trop_combine(row_lam, vertices))

    @given(instances())
    def test_w_is_the_tropical_combination_of_lam(self, instance):
        self.assert_w_combines_lam(*instance)

    def test_w_is_the_tropical_combination_of_lam_across_chunks(self):
        vertices = random_ultrametrics(10, 3, seed=60)
        sample = random_ultrametrics(10, 700, seed=61)
        self.assert_w_combines_lam(sample, vertices)
        self.assert_w_combines_lam(np.round(sample, 1), np.round(vertices, 1))

    def test_one_vector_keeps_its_shape(self):
        p = TropicalPolytope([[0, 0, 0], [0, 1, 1]])
        w, lam = project_to_polytope(np.array([0.0, 2.0, 2.0]), p)
        assert w.shape == (3,) and lam.shape == (2,)
        assert isinstance(trop_dist([0.0, 2.0, 2.0], w), float)
        with pytest.raises(ValueError, match="dimension mismatch"):
            trop_dist(np.zeros((2, 3)), np.zeros((3, 3)))


class TestObjective:
    def test_zero_on_vertex_set(self):
        vertices = random_ultrametrics(5, 3, seed=25)
        assert objective(vertices, TropicalPolytope(vertices)) == 0.0

    def test_single_point_example(self):
        p = TropicalPolytope([[0, 0, 0], [0, 1, 1]])
        assert objective([[0.0, 2.0, 2.0]], p) == 1.0

    def test_doubling_the_sample_doubles_the_value(self):
        rng = np.random.default_rng(26)
        sample = rng.random((10, 10))
        p = TropicalPolytope(random_ultrametrics(5, 3, seed=26))
        once = objective(sample, p)
        twice = objective(np.vstack([sample, sample]), p)
        assert twice == pytest.approx(2 * once, rel=1e-12)

    @given(instances(), st.data())
    def test_invariant_under_torus_shifts_of_rows(self, instance, data):
        sample, vertices = instance
        shifts = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=len(sample), max_size=len(sample))))
        p = TropicalPolytope(vertices)
        assert objective(sample + shifts[:, None], p) == pytest.approx(objective(sample, p), rel=1e-9)

    @given(instances(), st.data())
    def test_invariant_under_a_common_shift_of_one_vertex(self, instance, data):
        sample, vertices = instance
        k = data.draw(st.integers(0, len(vertices) - 1))
        shifted = vertices.copy()
        shifted[k] += data.draw(st.floats(-100, 100))
        expected = objective(sample, TropicalPolytope(vertices))
        assert objective(sample, TropicalPolytope(shifted)) == pytest.approx(expected, rel=1e-9)

    @given(instances(), st.randoms(use_true_random=False))
    def test_invariant_under_row_permutations(self, instance, random):
        sample, vertices = instance
        order = list(range(len(sample)))
        random.shuffle(order)
        p = TropicalPolytope(vertices)
        assert objective(sample[order], p) == pytest.approx(objective(sample, p), rel=1e-9)

    def test_pairwise_difference_form_matches_range_form(self):
        # max over pairs |u_k - w_k - u_l + w_l| equals max(u-w) - min(u-w)
        rng = np.random.default_rng(27)
        for _ in range(1000):
            u = rng.normal(size=8)
            w = rng.normal(size=8)
            d = u - w
            pairwise = max(
                abs(d[k] - d[l]) for k in range(8) for l in range(k + 1, 8)
            )
            assert abs(pairwise - (d.max() - d.min())) <= 1e-12


class TestGradDist:
    def test_examples(self):
        assert_array_equal(grad_dist(np.zeros(3), np.array([0.0, 1.0, 3.0])), [-1, 0, 1])
        assert_array_equal(grad_dist(np.array([0.0, 1.0, 3.0]), np.zeros(3)), [1, 0, -1])

    def test_zero_at_torus_equal_points(self):
        p = np.array([1.0, 2.0, 3.0])
        assert_array_equal(grad_dist(p, p + 4.0), [0, 0, 0])

    def test_matches_finite_differences_at_generic_points(self):
        rng = np.random.default_rng(28)
        h = 1e-6
        for _ in range(50):
            p = rng.random(6)
            x = rng.random(6)
            g = grad_dist(p, x)
            for l in range(6):
                xp = x.copy()
                xp[l] += h
                xm = x.copy()
                xm[l] -= h
                fd = (trop_dist(p, xp) - trop_dist(p, xm)) / (2 * h)
                assert abs(fd - g[l]) <= 1e-9 * max(1.0, abs(fd)) + 1e-9


class TestJacobian:
    def test_single_vertex_example(self):
        p = TropicalPolytope([[0.0, 0.0, 0.0]])
        entries = jacobian_w(np.array([0.0, 1.0, 3.0]), p)
        assert entries == {
            (0, 0, 1): -1.0,
            (0, 1, 1): 1.0,
            (0, 0, 2): -1.0,
            (0, 2, 2): 1.0,
        }

    def test_only_winning_vertex_contributes(self):
        vertices = random_ultrametrics(4, 2, seed=29)
        p = TropicalPolytope(vertices)
        u = np.random.default_rng(29).random(6)
        lam = (u[None, :] - vertices).min(axis=1)
        kstar = (lam[:, None] + vertices).argmax(axis=0)
        for (k, l, l2) in jacobian_w(u, p):
            assert k == kstar[l2]

    def test_diagonal_at_anchor_coordinate_is_absent(self):
        vertices = random_ultrametrics(4, 2, seed=30)
        p = TropicalPolytope(vertices)
        u = np.random.default_rng(30).random(6)
        jstar = (u[None, :] - vertices).argmin(axis=1)
        entries = jacobian_w(u, p)
        for k in range(2):
            assert (k, jstar[k], jstar[k]) not in entries

    def test_matches_finite_differences_of_projection(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(10):
            vertices = rng.random((2, 6))
            u = rng.random(6)
            p = TropicalPolytope(vertices)
            entries = jacobian_w(u, p)
            for k in range(2):
                for l in range(6):
                    plus = vertices.copy()
                    plus[k, l] += h
                    minus = vertices.copy()
                    minus[k, l] -= h
                    wp, _ = project_to_polytope(u, TropicalPolytope(plus))
                    wm, _ = project_to_polytope(u, TropicalPolytope(minus))
                    fd = (wp - wm) / (2 * h)
                    for l2 in range(6):
                        expected = entries.get((k, l, l2), 0.0)
                        assert abs(fd[l2] - expected) <= 1e-8


class TestSubgradient:
    def test_zero_at_perfect_fit(self):
        vertices = random_ultrametrics(5, 3, seed=32)
        g = subgradient(vertices, TropicalPolytope(vertices))
        assert_array_equal(g, np.zeros_like(vertices))

    def test_single_vertex_example(self):
        g = subgradient([[0.0, 1.0, 3.0]], TropicalPolytope([[0.0, 0.0, 0.0]]))
        assert_array_equal(g, [[1.0, 0.0, -1.0]])
        # moving against the subgradient shrinks the distance by 2*alpha
        for alpha in (0.01, 0.1):
            moved = np.array([0.0, 0.0, 0.0]) - alpha * g[0]
            w, _ = project_to_polytope(np.array([0.0, 1.0, 3.0]), TropicalPolytope([moved]))
            assert trop_dist([0.0, 1.0, 3.0], w) == pytest.approx(3 - 2 * alpha)

    def test_equals_composition_of_jacobian_and_distance_gradient(self):
        # tree-space instances are tied by construction, so the composition
        # is averaged over every tied selection (see the oracle)
        for trial in range(50):
            sample = random_ultrametrics(5, 8, seed=3300 + trial)
            vertices = random_ultrametrics(5, 3, seed=8800 + trial)
            fast = subgradient(sample, TropicalPolytope(vertices))
            slow = tie_averaged_subgradient(sample, vertices, TIE_RTOL)
            assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_matches_finite_differences_at_generic_instances(self):
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 20:
            sample = rng.random((15, 10))
            vertices = rng.random((3, 10))
            if not instance_is_generic(sample, vertices, gap=1e-5):
                continue
            checked += 1
            g = subgradient(sample, TropicalPolytope(vertices))
            fd = finite_difference_gradient(sample, vertices)
            assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))) <= 1e-4


@st.composite
def kernel_instances(draw):
    """(sample, vertices) for the bit-exact kernel checks: s from 2 to min(6, e), many observations.

    A grid draw rounds every value to a multiple of 1/2 or 1/8, so the tie
    sets are large and each j* bin sums many terms.
    """
    m = draw(st.integers(3, 8))
    s = draw(st.integers(2, min(6, m * (m - 1) // 2)))
    seed = draw(st.integers(0, 2**16))
    vertices = random_ultrametrics(m, s, seed=seed)
    sample = random_ultrametrics(m, draw(st.sampled_from([1, 2, 5, 40, 120])), seed=seed + 1)
    grid = draw(st.sampled_from([None, 2, 8]))
    if grid:
        vertices, sample = np.round(grid * vertices) / grid, np.round(grid * sample) / grid
    return sample, vertices


def laid_out(sample, layout):
    """The same values as a C-ordered, F-ordered, row-strided or column-strided array."""
    if layout == "F":
        return np.asfortranarray(sample)
    if layout == "rows":
        return np.repeat(sample, 2, axis=0)[::2]
    if layout == "columns":
        return np.repeat(sample, 2, axis=1)[:, ::2]
    return np.ascontiguousarray(sample)


LAYOUTS = st.sampled_from(["C", "F", "rows", "columns"])


class TestPairMajorKernel:
    """evaluate and project_to_polytope against the row-layout kernel they replace, bit for bit."""

    @staticmethod
    def assert_same_bits(result, reference):
        (se, g), (ref_se, ref_g) = result, reference
        assert se == ref_se
        assert np.array_equal(g, ref_g) and np.array_equal(np.signbit(g), np.signbit(ref_g))

    @given(kernel_instances(), LAYOUTS)
    def test_evaluate(self, instance, layout):
        sample, vertices = instance
        p = TropicalPolytope(vertices)
        self.assert_same_bits(evaluate(laid_out(sample, layout), p), row_evaluate(sample, p))

    @given(kernel_instances(), st.integers(0, 2**16))
    def test_one_workspace_over_several_polytopes(self, instance, seed):
        # as in fit: an F-ordered sample and one workspace for every evaluation
        sample, vertices = instance
        work = _evaluation_work(np.asfortranarray(sample), len(vertices))
        rng = np.random.default_rng(seed)
        for _ in range(3):
            p = TropicalPolytope(vertices)
            self.assert_same_bits(evaluate(np.asfortranarray(sample), p, work), row_evaluate(sample, p))
            vertices = np.maximum(vertices + rng.normal(0, 0.1, vertices.shape), 0)

    @given(kernel_instances(), LAYOUTS)
    def test_projection(self, instance, layout):
        sample, vertices = instance
        w, lam = project_to_polytope(laid_out(sample, layout), TropicalPolytope(vertices))
        _, ref_lam, ref_w = row_projection(sample, vertices)
        assert np.array_equal(w, ref_w) and np.array_equal(lam, ref_lam)

    @settings(max_examples=12)
    @given(st.integers(3, 8), st.integers(2, 6), st.integers(0, 2**16), st.booleans(), LAYOUTS)
    def test_projection_across_row_chunks(self, m, s, seed, grid, layout):
        vertices = random_ultrametrics(m, min(s, m * (m - 1) // 2), seed=seed)
        with small_chunks():
            sample = random_ultrametrics(m, 2 * chunk_rows(vertices) + 7, seed=seed + 1)
            if grid:
                vertices, sample = np.round(8 * vertices) / 8, np.round(8 * sample) / 8
            w, lam = project_to_polytope(laid_out(sample, layout), TropicalPolytope(vertices))
        _, ref_lam, ref_w = row_projection(sample, vertices)
        assert np.array_equal(w, ref_w) and np.array_equal(lam, ref_lam)


# n = e - 1, e and e + 1 at e = 10, then wide rows with few observations, then
# an n and an e (45 and 1770) longer than the kernel's ufunc buffer
ORDER_SHAPES = [(5, 9), (5, 10), (5, 11), (60, 12), (60, 50), (10, 3000)]


class TestKernelOrders:
    """The kernel in both memory orders, pair-major when n >= e and observation-major below, bit for bit."""

    @pytest.mark.parametrize("e,n", [(10, 9), (10, 10), (10, 11), (1770, 12), (1770, 50), (45, 1000)])
    def test_the_longer_axis_is_contiguous(self, e, n):
        _, _, _, _, planes, masks = _workspace(3, e, n)
        assert len(planes) == 2  # w, whose buffer evaluate reuses for d, and a candidate
        axis = 1 if n >= e else 0
        for plane in (*planes, *masks):
            assert plane.shape == (e, n) and plane.strides[axis] == plane.itemsize
        assert _stored(np.zeros((n, e))).T.strides[axis] == 8

    @pytest.fixture(params=[troppca.treespace._UFUNC_BUFFER, 8192, 16], ids=lambda size: f"buffer{size}")
    def kernel_buffer(self, request, monkeypatch):
        """The kernel's ufunc buffer: its own, numpy's default, and 16, shorter than all but the smallest shapes."""
        monkeypatch.setattr(troppca.treespace, "_UFUNC_BUFFER", request.param)

    @staticmethod
    def instance(m, n, seed, grid):
        vertices, sample = random_ultrametrics(m, 3, seed=seed), random_ultrametrics(m, n, seed=seed + 1)
        if grid:  # many exact ties
            vertices, sample = np.round(8 * vertices) / 8, np.round(8 * sample) / 8
        return sample, vertices

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("m,n", ORDER_SHAPES)
    def test_evaluate_over_one_workspace(self, m, n, grid, kernel_buffer):
        sample, vertices = self.instance(m, n, 80, grid)
        stored = _stored(sample)
        work = _evaluation_work(stored, len(vertices))
        rng = np.random.default_rng(81)
        for _ in range(3):
            p = TropicalPolytope(vertices)
            TestPairMajorKernel.assert_same_bits(evaluate(stored, p, work), row_evaluate(sample, p))
            TestPairMajorKernel.assert_same_bits(evaluate(sample, p), row_evaluate(sample, p))
            vertices = project_to_treespace(np.maximum(vertices + rng.normal(0, 0.1, vertices.shape), 0))

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("m,n", ORDER_SHAPES)
    def test_projection(self, m, n, grid, kernel_buffer):
        sample, vertices = self.instance(m, n, 82, grid)
        for layout in ("C", "F"):
            w, lam = project_to_polytope(laid_out(sample, layout), TropicalPolytope(vertices))
            _, ref_lam, ref_w = row_projection(sample, vertices)
            assert np.array_equal(w, ref_w) and np.array_equal(lam, ref_lam)

    @pytest.mark.parametrize("m,n", ORDER_SHAPES)
    def test_short_fit(self, m, n, kernel_buffer):
        sample, _ = self.instance(m, n, 84, False)
        cfg = FitConfig(s=3, max_iters=4, lr0=0.05, seed=11)
        _, trace = fit(sample, cfg)
        vertices = sample[np.random.default_rng(cfg.seed).choice(n, size=3, replace=False)]
        se, g = row_evaluate(sample, TropicalPolytope(vertices))
        assert trace.initial_se == se
        alpha, expected = cfg.lr0, []
        for _ in range(cfg.max_iters):
            vertices = project_to_treespace(vertices - alpha * g)
            se, g = row_evaluate(sample, TropicalPolytope(vertices))
            expected.append(se)
            alpha *= cfg.decay
        assert trace.se == expected


class TestCallerBuffer:
    """The kernels that run inside _ufunc_buffer give the caller's ufunc buffer size back on every exit.

    They are evaluate, project_to_polytope and ultrametric_violation, and so
    objective, fit and is_ultrametric.

    bench/hostspeed.py times its reference kernel in the benchmark's process
    between stages, so a size left behind would rescale every nominal time.
    """

    def test_after_each_call(self, caller_buffer):
        sample = random_ultrametrics(5, 30, seed=90)
        p = TropicalPolytope(random_ultrametrics(5, 3, seed=91))
        for call in (evaluate, project_to_polytope, objective):
            call(sample, p)
            assert np.getbufsize() == caller_buffer
        for check in (ultrametric_violation, is_ultrametric):
            for u in (sample, sample[0]):
                check(u)
                assert np.getbufsize() == caller_buffer
        fit(sample, FitConfig(s=3, max_iters=5))
        assert np.getbufsize() == caller_buffer

    @pytest.mark.parametrize("function", [evaluate, project_to_polytope, objective], ids=lambda f: f.__name__)
    def test_after_an_overflow_in_the_kernel(self, caller_buffer, function):
        # u - D_k = 1e308 + 1e308 overflows in _projection; numpy >= 2 resets
        # the size when errstate exits, so it is read inside the block
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                function(np.full((2, 3), 1e308), TropicalPolytope(np.full((2, 3), -1e308)))
            assert np.getbufsize() == caller_buffer

    @pytest.mark.parametrize("function", [project_to_polytope, ultrametric_violation, is_ultrametric],
                             ids=lambda f: f.__name__)
    def test_after_an_error_inside_the_helper(self, caller_buffer, function, monkeypatch):
        sizes = []

        def failing_chunks(*args):
            sizes.append(np.getbufsize())
            raise MemoryError

        sample = random_ultrametrics(5, 30, seed=93)
        args = (sample, TropicalPolytope(sample[:3])) if function is project_to_polytope else (sample,)
        for module in (troppca.treespace, troppca.pca):  # pca imports _chunks by name
            monkeypatch.setattr(module, "_chunks", failing_chunks)
        with pytest.raises(MemoryError):
            function(*args)
        assert sizes == [troppca.treespace._UFUNC_BUFFER] and np.getbufsize() == caller_buffer

    def test_after_a_fit_that_overflows(self, caller_buffer):
        sample = random_ultrametrics(5, 40, seed=3)
        with pytest.raises(ValueError, match="^iteration 0 overflows: lr0=1e\\+308 is too large$"):
            fit(sample, FitConfig(s=3, lr0=1e308))
        assert np.getbufsize() == caller_buffer


@pytest.mark.parametrize("m,n", [(10, 1000), (8, 800), (5, 3000), (60, 50)])
def test_fit_faults_do_not_grow_with_iterations(m, n):
    """A fit reuses its buffers, so 90 more iterations fault few more pages in (fresh processes)."""
    pytest.importorskip("resource")
    code = (
        "import resource, sys\n"
        "from troppca.pca import FitConfig, fit\n"
        "from troppca.treespace import random_ultrametrics\n"
        f"sample = random_ultrametrics({m}, {n}, seed=1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "fit(sample, FitConfig(s=3, max_iters=int(sys.argv[1])))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(troppca.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))

    def faults(iters):
        run = subprocess.run([sys.executable, "-c", code, str(iters)], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        return int(run.stdout)

    assert faults(100) - faults(10) < 1000


def test_fit_builds_the_pair_table_once(monkeypatch):
    """The tree-space kernels read one cached pair table, so a fit's iterations call np.triu_indices no more."""
    calls = []
    triu_indices = np.triu_indices
    monkeypatch.setattr(np, "triu_indices", lambda *args: calls.append(args) or triu_indices(*args))
    sample = random_ultrametrics(8, 40, seed=90)
    counts = []
    for iters in (1, 100):
        troppca.treespace._pairs.cache_clear()
        calls.clear()
        fit(sample, FitConfig(s=3, max_iters=iters))
        counts.append(len(calls))
    assert counts == [1, 1]


@pytest.mark.parametrize("function", [evaluate, objective, subgradient, project_to_polytope],
                         ids=lambda function: function.__name__)
def test_non_finite_sample_is_one_error(function, caller_buffer):
    p = TropicalPolytope(random_ultrametrics(4, 2, seed=70))
    sample = random_ultrametrics(4, 5, seed=71)
    for bad in (np.nan, np.inf, -np.inf):
        u = sample.copy()
        u[2, 3] = bad
        for arg in (u, u[2]):  # a batch and one vector
            with pytest.raises(ValueError, match="^sample coordinates must be finite$"):
                function(arg, p)
            assert np.getbufsize() == caller_buffer


def test_non_finite_vertices_are_one_error():
    for bad in (np.nan, np.inf, -np.inf):
        vertices = random_ultrametrics(4, 2, seed=72)
        vertices[1, 3] = bad
        with pytest.raises(ValueError, match="^vertex coordinates must be finite$"):
            TropicalPolytope(vertices)


class TestEvaluate:
    @given(instances())
    def test_objective_exactly_and_the_tie_averaged_subgradient(self, instance):
        sample, vertices = instance
        p = TropicalPolytope(vertices)
        se, g = evaluate(sample, p)
        assert se == objective(sample, p)
        assert_allclose(g, tie_averaged_subgradient(sample, vertices, TIE_RTOL), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["simultaneous", "cyclic"])
    def test_fit_evaluates_each_iterate_once(self, monkeypatch, mode):
        calls = {"evaluate": 0, "objective": 0, "subgradient": 0}

        def counted(name):
            inner = getattr(troppca.pca, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(troppca.pca, name, counted(name))
        sample = random_ultrametrics(5, 20, seed=50)
        fit(sample, FitConfig(s=3, max_iters=7, seed=10, update_mode=mode))
        assert calls == {"evaluate": 8, "objective": 0, "subgradient": 0}


class TestFit:
    def test_perfect_sample_is_a_fixed_point(self):
        sample = random_ultrametrics(5, 3, seed=35)
        cfg = FitConfig(s=3, max_iters=10, seed=0)
        polytope, trace = fit(sample, cfg)
        assert trace.initial_se == 0.0
        assert trace.best_se == 0.0
        assert sorted(map(tuple, polytope.vertices)) == sorted(map(tuple, sample))

    def test_descent_run(self):
        sample = random_ultrametrics(5, 50, seed=36)
        cfg = FitConfig(s=3, max_iters=100, lr0=0.01, decay=0.999, seed=1)
        polytope, trace = fit(sample, cfg)
        assert trace.best_se <= trace.initial_se
        assert len(trace) == 100

    def test_schedule_ratio_is_exact(self):
        sample = random_ultrametrics(4, 10, seed=37)
        cfg = FitConfig(s=2, max_iters=20, lr0=0.01, decay=0.999, seed=2)
        _, trace = fit(sample, cfg)
        assert trace.alpha[0] == 0.01
        for a, b in zip(trace.alpha, trace.alpha[1:]):
            assert b == a * 0.999

    def test_every_iterate_vertex_is_exactly_ultrametric(self):
        sample = random_ultrametrics(5, 20, seed=38)
        cfg = FitConfig(s=3, max_iters=30, seed=3)
        polytope, _ = fit(sample, cfg)
        for vertex in polytope.vertices:
            assert ultrametric_violation(vertex) == 0.0

    def test_best_so_far_is_monotone(self):
        sample = random_ultrametrics(5, 30, seed=39)
        cfg = FitConfig(s=3, max_iters=50, seed=4)
        _, trace = fit(sample, cfg)
        running = trace.initial_se
        for se, improved in zip(trace.se, trace.improved):
            assert improved == (se < running)
            running = min(running, se)
        assert trace.best_se == running

    def test_deterministic_bit_for_bit(self):
        sample = random_ultrametrics(5, 25, seed=40)
        cfg = FitConfig(s=3, max_iters=40, seed=5)
        p1, t1 = fit(sample, cfg)
        p2, t2 = fit(sample, cfg)
        assert_array_equal(p1.vertices, p2.vertices)
        assert t1.se == t2.se and t1.alpha == t2.alpha and t1.improved == t2.improved

    def test_cyclic_mode_runs(self):
        sample = random_ultrametrics(5, 20, seed=41)
        cfg = FitConfig(s=3, max_iters=30, seed=6, update_mode="cyclic")
        _, trace = fit(sample, cfg)
        assert trace.best_se <= trace.initial_se

    @pytest.mark.parametrize("mode", ["simultaneous", "cyclic"])
    def test_steps_match_a_per_mode_reference_loop(self, mode):
        from troppca.treespace import project_to_treespace

        sample = random_ultrametrics(5, 30, seed=46)
        cfg = FitConfig(s=3, max_iters=7, lr0=0.05, seed=10, update_mode=mode)
        _, trace = fit(sample, cfg)
        vertices = sample[np.random.default_rng(cfg.seed).choice(len(sample), size=3, replace=False)]
        alpha, expected = cfg.lr0, []
        for t in range(cfg.max_iters):
            g = subgradient(sample, TropicalPolytope(vertices))
            if mode == "simultaneous":
                vertices = project_to_treespace(vertices - alpha * g)
            else:  # one round-robin vertex, projected as a single vector
                vertices = vertices.copy()
                vertices[t % 3] = project_to_treespace(vertices[t % 3] - alpha * g[t % 3])
            expected.append(objective(sample, TropicalPolytope(vertices)))
            alpha *= cfg.decay
        assert trace.se == expected

    def test_user_supplied_initialization(self):
        sample = random_ultrametrics(5, 20, seed=42)
        init = sample[:3]
        cfg = FitConfig(s=3, max_iters=5, seed=7, init_vertices=init)
        _, trace = fit(sample, cfg)
        assert trace.initial_se == objective(sample, TropicalPolytope(init))

    def test_single_vertex_probe_descends_for_small_steps(self):
        # halving line probe: some small step along -g must not increase the
        # objective once the moved vertex is projected back to tree space
        from troppca.treespace import project_to_treespace

        for trial in range(10):
            sample = random_ultrametrics(5, 20, seed=4300 + trial)
            vertices = random_ultrametrics(5, 3, seed=4400 + trial)
            p = TropicalPolytope(vertices)
            se0 = objective(sample, p)
            g = subgradient(sample, p)
            for k in range(3):
                alpha = 0.05
                ok = False
                while alpha > 1e-12:
                    moved = vertices.copy()
                    moved[k] = project_to_treespace(moved[k] - alpha * g[k])
                    if objective(sample, TropicalPolytope(moved)) <= se0 + 1e-9:
                        ok = True
                        break
                    alpha /= 2
                assert ok

    def test_needs_at_least_s_observations(self):
        sample = random_ultrametrics(5, 2, seed=44)
        with pytest.raises(ValueError, match="need at least s observations"):
            fit(sample, FitConfig(s=3, max_iters=5, seed=8))

    def test_rejects_non_ultrametric_sample(self):
        sample = random_ultrametrics(5, 5, seed=45).copy()
        sample[2, 0] += 0.5
        with pytest.raises(ValueError, match="three-point"):
            fit(sample, FitConfig(s=2, max_iters=5, seed=9))

    def test_rejects_non_finite_sample(self, caller_buffer):
        sample = random_ultrametrics(5, 5, seed=45).copy()
        sample[3, 1] = np.nan
        with pytest.raises(ValueError, match="^sample coordinates must be finite$"):
            fit(sample, FitConfig(s=2, max_iters=5, seed=9))
        assert np.getbufsize() == caller_buffer

    def test_rejects_non_finite_initial_vertices(self):
        sample = random_ultrametrics(4, 5, seed=45)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^vertex coordinates must be finite$"):
                fit(sample, FitConfig(s=2, init_vertices=np.full((2, 6), bad)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(s=1)
        with pytest.raises(ValueError):
            FitConfig(s=2, decay=0.0)
        for lr0 in (0.0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr0 must be positive and finite"):
                FitConfig(s=2, lr0=lr0)
        with pytest.raises(ValueError):
            FitConfig(s=2, update_mode="both")
        for seed in (-1, 1.5, None):
            with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
                FitConfig(s=3, seed=seed)
        assert FitConfig(s=3, seed=np.int64(7)).seed == 7


class TestBaseline:
    def test_budget_one_is_a_single_draw(self):
        sample = random_ultrametrics(5, 10, seed=46)
        p, se = baseline_random_search(sample, 3, budget_evals=1, seed=0)
        assert se == objective(sample, p)

    def test_large_budget_finds_the_exhaustive_best(self):
        import itertools

        sample = random_ultrametrics(5, 6, seed=47)
        best = min(
            objective(sample, TropicalPolytope(sample[list(idx)]))
            for idx in itertools.combinations(range(6), 2)
        )
        _, se = baseline_random_search(sample, 2, budget_evals=300, seed=1)
        assert se == pytest.approx(best, abs=1e-12)

    def test_non_increasing_in_budget_for_one_seed(self):
        sample = random_ultrametrics(5, 20, seed=48)
        values = [
            baseline_random_search(sample, 3, budget_evals=b, seed=2)[1]
            for b in (1, 5, 20, 80)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        sample = random_ultrametrics(5, 5, seed=49)
        with pytest.raises(ValueError):
            baseline_random_search(sample, 3, budget_evals=0, seed=0)
        with pytest.raises(ValueError):
            baseline_random_search(sample, 9, budget_evals=1, seed=0)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -2$"):
            baseline_random_search(sample, 3, budget_evals=1, seed=-2)
