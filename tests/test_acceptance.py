"""End-to-end acceptance checks, one test per exit criterion.

Each test prints a single PASS/FAIL line with its measured numbers (visible
with ``pytest -s``) and then asserts.  The last check depends on an external
gene-tree file and is skipped when that file is absent.
"""

import itertools
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import instance_is_generic, project_by_ray_enumeration
from troppca.cli import main
from troppca.model import load_model
from troppca.pca import (
    FitConfig,
    TropicalPolytope,
    baseline_random_search,
    fit,
    objective,
    subgradient,
)
from troppca.tropical import trop_dist
from troppca.treespace import (
    load_newick_file,
    parse_newick,
    project_to_treespace,
    random_ultrametrics,
    reconstruct_tree,
    ultrametric_violation,
)

APICOMPLEXA_PATH = Path(__file__).resolve().parent.parent / "data" / "apicomplexa.nwk"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_projection_is_exactly_ultrametric():
    """10,000 random projections across m=3..10 satisfy the three-point condition exactly."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for m in range(3, 11):
        e = m * (m - 1) // 2
        for _ in range(1250):
            worst = max(worst, ultrametric_violation(project_to_treespace(rng.random(e))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst == 0.0 and elapsed < 10.0,
        f"10000 projections, worst three-point violation {worst}, {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_projection_matches_ray_enumeration_oracle():
    """Single-linkage projection equals the brute-force generating-ray formula.

    The enumeration evaluates max over rays of (min of x on the ray support)
    per coordinate.  The ray set is one ray per split sigma | sigma^c (0 on
    crossing pairs, -inf elsewhere): the clade-interior rays spelled out in
    the source material do not span tree space for m >= 4 (see the
    treespace tests), so the oracle uses the split rays, for which the
    formula is the bottleneck duality for minimax path weights.
    """
    rng = np.random.default_rng(102)
    worst = 0.0
    for m in (3, 4, 5, 6):
        e = m * (m - 1) // 2
        for _ in range(1000):
            x = rng.random(e)
            worst = max(
                worst,
                float(np.max(np.abs(project_to_treespace(x) - project_by_ray_enumeration(x, m)))),
            )
    report(2, worst <= 1e-12, f"4000 inputs over m in 3..6, max abs difference {worst}")


def test_criterion_3_projection_is_non_expansive():
    rng = np.random.default_rng(103)
    worst = -np.inf
    for _ in range(1000):
        u = rng.random(28)
        v = rng.random(28)
        worst = max(
            worst,
            trop_dist(project_to_treespace(u), project_to_treespace(v)) - trop_dist(u, v),
        )
    report(3, worst <= 1e-9, f"1000 pairs at m=8, max expansion {worst:.3g} (limit 1e-9)")


def test_criterion_4_subgradient_matches_finite_differences():
    """Analytic subgradient vs central differences at 100 tie-free instances.

    Instances are generic torus points (m=5, n=20, s=3); candidates whose
    argmin/argmax selections have a top-two gap under 1e-5 are redrawn, since
    h=1e-6 differences would straddle a kink there.  Tree-space samples are
    unusable for this check: their coordinates repeat by construction, so the
    selections are tied on almost every draw.
    """
    rng = np.random.default_rng(104)
    h = 1e-6
    checked = 0
    drawn = 0
    worst = 0.0
    while checked < 100:
        drawn += 1
        assert drawn < 2000, "tie filter rejected too many instances"
        sample = rng.random((20, 10))
        vertices = rng.random((3, 10))
        if not instance_is_generic(sample, vertices, gap=1e-5):
            continue
        checked += 1
        g = subgradient(sample, TropicalPolytope(vertices))
        for k in range(3):
            for l in range(10):
                plus = vertices.copy()
                plus[k, l] += h
                minus = vertices.copy()
                minus[k, l] -= h
                fd = (
                    objective(sample, TropicalPolytope(plus))
                    - objective(sample, TropicalPolytope(minus))
                ) / (2 * h)
                worst = max(worst, abs(g[k, l] - fd) / max(1.0, abs(fd)))
    report(
        4,
        worst <= 1e-4,
        f"100 tie-free instances ({drawn} drawn), max relative error {worst:.3g} (limit 1e-4)",
    )


def test_criterion_5_descent_and_baseline_comparison():
    """Ten seeded fits at the published schedule: descent, and improvement on the baseline.

    Run r uses data seed 1000+r and algorithm seed r.  The descent clause
    fits from r's random start and needs a best SE strictly below the
    initial SE in every run.  The baseline clause compares against the
    method's reference search, which picks its vertex sets from the sample
    points: a random search over 101 s-subsets of the sample
    (budget_evals=101) gives the best polytope it finds, and a fit started
    from that polytope (init_vertices) wins a run when it lowers the
    polytope's SE strictly.  The 101 draws are not the fit's work: besides
    the objective, each fit iteration evaluates a subgradient, which costs
    three to four objective evaluations at this size.
    """
    descents = 0
    wins = 0
    details = []
    for r in range(10):
        sample = random_ultrametrics(5, 50, seed=1000 + r)
        cfg = FitConfig(s=3, max_iters=100, lr0=0.01, decay=0.999, seed=r)
        _, trace = fit(sample, cfg)
        descents += trace.best_se < trace.initial_se
        baseline, baseline_se = baseline_random_search(sample, 3, budget_evals=101, seed=r)
        refined_cfg = replace(cfg, init_vertices=baseline.vertices)
        _, refined = fit(sample, refined_cfg)
        wins += refined.best_se < baseline_se
        details.append(f"{refined.best_se:.4f}/{baseline_se:.4f}")
    report(
        5,
        descents == 10 and wins >= 9,
        f"descent {descents}/10 (need 10), beat baseline {wins}/10 (need >=9); "
        f"refined/baseline per run: {', '.join(details)}",
    )


def _median_iteration_time(m: int, n: int, s: int, iters: int = 50) -> float:
    sample = random_ultrametrics(m, n, seed=106)
    rng = np.random.default_rng(107)
    polytope = TropicalPolytope(sample[rng.choice(n, s, replace=False)])
    alpha = 0.01
    times = []
    for t in range(iters + 3):
        start = time.perf_counter()
        g = subgradient(sample, polytope)
        updated = polytope.vertices.copy()
        for k in range(s):
            updated[k] = project_to_treespace(updated[k] - alpha * g[k])
        polytope = TropicalPolytope(updated)
        objective(sample, polytope)
        if t >= 3:  # discard warmup
            times.append(time.perf_counter() - start)
        alpha *= 0.999
    return float(np.median(times))


def test_criterion_6_per_iteration_cost_scales_linearly_in_n_and_quadratically_in_m():
    base = _median_iteration_time(5, 200, 3)
    double_n = _median_iteration_time(5, 400, 3)
    big_m = _median_iteration_time(10, 200, 3)
    n_factor = double_n / base
    m_factor = big_m / base
    report(
        6,
        n_factor <= 3.0 and m_factor <= 8.0,
        f"median iteration {base * 1e3:.2f}ms; 2x n factor {n_factor:.2f} (limit 3), "
        f"m 5->10 factor {m_factor:.2f} (limit 8)",
    )


def test_criterion_7_round_trips(tmp_path):
    """Newick -> vector -> tree -> vector within 1e-9; model save/load/eval exact."""
    worst = 0.0
    for trial in range(100):
        u = random_ultrametrics(6, 1, seed=10700 + trial)[0]
        text = reconstruct_tree(u).to_newick()
        tree = parse_newick(text)
        vec = tree.cophenetic_vector()
        again = reconstruct_tree(vec, names=tree.leaf_names).cophenetic_vector()
        worst = max(worst, float(np.max(np.abs(vec - again))))

    sample_path = tmp_path / "sample.nwk"
    model_path = tmp_path / "model.json"
    assert main(["gen", "--m", "5", "--n", "30", "--seed", "5", "--out", str(sample_path)]) == 0
    assert main([
        "fit", "--input", str(sample_path), "--s", "3", "--iters", "40",
        "--seed", "5", "--out", str(model_path),
    ]) == 0
    model = load_model(model_path)
    trees, _ = load_newick_file(sample_path)
    vectors = np.array([t.cophenetic_vector() for _, t in trees])
    reloaded_se = objective(vectors, model.polytope)
    exact = reloaded_se == model.trace_summary["best_se"]
    report(
        7,
        worst <= 1e-9 and exact,
        f"100 tree round trips, max coordinate drift {worst:.3g} (limit 1e-9); "
        f"save/load/eval exact: {exact}",
    )


def test_criterion_8_reference_gene_trees():
    """Conditional: fit the 8-taxon gene-tree file if supplied at data/apicomplexa.nwk."""
    if not APICOMPLEXA_PATH.exists():
        pytest.skip(f"reference gene-tree file not present at {APICOMPLEXA_PATH}")
    trees, errors = load_newick_file(APICOMPLEXA_PATH)
    assert not errors, f"parse errors in {APICOMPLEXA_PATH}: {errors[:3]}"
    vectors = []
    for _, tree in trees:
        vec = tree.cophenetic_vector()
        vectors.append(project_to_treespace(vec))
    sample = np.array(vectors)
    start = time.perf_counter()
    _, trace = fit(sample, FitConfig(s=3, max_iters=100, lr0=0.01, decay=0.999, seed=42))
    elapsed = time.perf_counter() - start
    report(
        8,
        trace.best_se <= 397.6459 and elapsed < 60.0,
        f"{len(sample)} trees, best SE {trace.best_se:.4f} (limit 397.6459), {elapsed:.2f}s (limit 60s)",
    )
