import csv
import json
import os
import shlex
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import troppca
import troppca.cli
import troppca.pca
import troppca.treespace
from troppca.cli import _build_parser, _fmt, _load_sample, main
from troppca.model import Model, load_model, save_model
from troppca.pca import TropicalPolytope, objective, project_to_polytope
from troppca.treespace import (
    load_newick_file,
    parse_newick,
    random_ultrametrics,
    reconstruct_tree,
)
from troppca.tropical import trop_dist


# finite lengths whose root-to-leaf sums overflow; the ';' is at offset 35
OVERFLOWING_TREE = "((a:1e308,b:1e308):1e308,c:1.5e308);"
# finite depths whose leaf-to-leaf sums overflow; the ';' is at offset 31
OVERFLOWING_PATHS = "(a:1.5e308,b:1.5e308,c:1.5e308);"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.nwk"
    assert main(["gen", "--m", "5", "--n", "40", "--seed", "11", "--out", str(path)]) == 0
    return path


def fit_model(tmp_path, sample_file, **overrides):
    model_path = tmp_path / "model.json"
    trace_path = tmp_path / "trace.csv"
    args = {
        "--input": str(sample_file),
        "--s": "3",
        "--iters": "60",
        "--seed": "1",
        "--out": str(model_path),
        "--trace": str(trace_path),
    }
    args.update(overrides)
    argv = ["fit"] + [token for pair in args.items() for token in pair]
    assert main(argv) == 0
    return model_path, trace_path


class TestGen:
    def test_gen_then_check_passes(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        assert main(["gen", "--m", "4", "--n", "10", "--seed", "3", "--out", str(path)]) == 0
        assert main(["check", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "checked 10 trees: 10 equidistant, 10 ultrametric" in out

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        main(["gen", "--m", "5", "--n", "20", "--seed", "7", "--out", str(a)])
        main(["gen", "--m", "5", "--n", "20", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_thousand_trees_is_fast(self, tmp_path):
        start = time.perf_counter()
        assert main(["gen", "--m", "5", "--n", "1000", "--seed", "1", "--out", str(tmp_path / "big.nwk")]) == 0
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("m,n,message", [
        pytest.param("2", "5", "m must be at least 3, got 2", id="m"),
        pytest.param("4", "0", "n must be positive, got 0", id="n"),
    ])
    def test_rejects_bad_m(self, tmp_path, capsys, m, n, message):
        out = tmp_path / "x.nwk"
        assert main(["gen", "--m", m, "--n", n, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"  # one line, no traceback
        assert not out.exists()

    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "x.nwk"
        assert main(["gen", "--m", "4", "--n", "5", "--seed", "-3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"
        assert not out.exists()

    def test_allocation_that_cannot_succeed_is_one_line_error(self, tmp_path, capsys):
        # 10^13 rows of 45 coordinates need 3.20 PiB, beyond any 48-bit address space,
        # so the allocation fails at once without touching memory
        out = tmp_path / "x.nwk"
        assert main(["gen", "--m", "10", "--n", "10000000000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 3.20 PiB") and len(err.splitlines()) == 1
        assert not out.exists()


class TestCheck:
    def test_non_equidistant_tree_reported(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("((1:1,2:1):1,3:2);\n((1:1,2:1):1,3:9);\n")
        assert main(["check", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "line 2" in out and "equidistant=no" in out and "gap=7" in out

    def test_mixed_leaf_counts_each_checked(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("((1:1,2:1):1,3:2);\n((1:1,2:1):1,(3:1,4:1):1);\n(1:1,(2:1,3:3):1);\n")
        assert main(["check", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("line 1: m=3") and "ultrametric=yes (violation=0)" in lines[0]
        assert lines[1].startswith("line 2: m=4") and "ultrametric=yes (violation=0)" in lines[1]
        assert lines[2].startswith("line 3: m=3") and "ultrametric=no (violation=1)" in lines[2]
        assert lines[3] == "checked 3 trees: 2 equidistant, 2 ultrametric, 0 parse errors"

    def test_parse_errors_fail_with_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("(1:1,2:1,3:1);\n(1:1,2:1;\n")
        assert main(["check", "--input", str(path)]) == 1
        assert "line 2: parse error" in capsys.readouterr().out

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_bytes("\ufeff((1:1,2:1):1,3:2);\n".encode("utf-8"))
        assert main(["check", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "line 1: m=3 height=2 equidistant=yes (gap=0) ultrametric=yes (violation=0)",
            "checked 1 trees: 1 equidistant, 1 ultrametric, 0 parse errors",
        ]

    def test_non_finite_branch_length_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("((a:1e400,b:1):1,c:2);\n((a:1,b:1):1,c:2);\n")
        assert main(["check", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert "line 1: parse error: non-finite branch length at offset 4" in out
        assert "inf" not in out and "nan" not in out

    def test_overflowing_depth_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(f"{OVERFLOWING_TREE}\n((a:1,b:1):1,c:2);\n")
        assert main(["check", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert "line 1: parse error: non-finite root-to-leaf depth at offset 35" in out
        assert "inf" not in out and "nan" not in out

    def test_overflowing_path_length_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(f"{OVERFLOWING_PATHS}\n((a:1,b:1):1,c:2);\n")
        assert main(["check", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert "line 1: parse error: non-finite leaf-to-leaf path length at offset 31" in captured.out
        assert "inf" not in captured.out and "nan" not in captured.out
        assert captured.err == ""

    def test_deeply_nested_tree(self, tmp_path, capsys):
        path = tmp_path / "deep.nwk"
        path.write_text("(" * 1500 + "((a:1,b:1):1,c:2)" + ")" * 1500 + ";\n")
        assert main(["check", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "line 1: m=3 height=2 equidistant=yes (gap=0) ultrametric=yes (violation=0)",
            "checked 1 trees: 1 equidistant, 1 ultrametric, 0 parse errors",
        ]
        assert captured.err == ""

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.nwk"
        path.write_text("# only a comment\n")
        assert main(["check", "--input", str(path)]) == 1
        assert "no trees found" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_tol_fails_with_one_line_error(self, tmp_path, capsys, tol):
        path = tmp_path / "trees.nwk"
        path.write_text("((1:1,2:1):1,3:2);\n")
        assert main(["check", "--input", str(path), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --tol must be nonnegative and finite, got {float(tol)}"]


@pytest.fixture
def checked_rows(monkeypatch):
    """Row count of every call to the three-point check, wherever the program calls it from."""
    counts = []
    exact = troppca.treespace.ultrametric_violation

    def spy(u):
        counts.append(len(np.atleast_2d(u)))
        return exact(u)

    monkeypatch.setattr(troppca.treespace, "ultrametric_violation", spy)
    monkeypatch.setattr(troppca.cli, "ultrametric_violation", spy)
    return counts


class TestThreePointWork:
    """The O(m^3) check runs only on rows that leaf depths or Prim's record leave undecided.

    That holds for ingest, fit's checks of its sample and load_model's check
    of the vertices alike; only check runs it on every tree.
    """

    @pytest.fixture
    def wide_file(self, tmp_path):
        path = tmp_path / "wide.nwk"
        assert main(["gen", "--m", "60", "--n", "50", "--seed", "1", "--out", str(path)]) == 0
        return path

    def test_ingest_checks_no_generated_tree(self, wide_file, checked_rows):
        for flags in ((False, False), (True, False), (False, True), (True, True)):
            _, _, vectors = _load_sample(wide_file, *flags)
            assert vectors.shape == (50, 1770)
        assert checked_rows == []

    def test_commands_check_only_what_ingest_does_not(self, tmp_path, wide_file, checked_rows, capsys):
        model = tmp_path / "model.json"
        assert main(["fit", "--input", str(wide_file), "--s", "3", "--iters", "2", "--out", str(model)]) == 0
        assert checked_rows == []  # fit's own check of its sample clears every row by Prim's record
        inputs = ["--model", str(model), "--input", str(wide_file), "--normalize-height"]
        for argv in (["eval"], ["project", "--out", str(tmp_path / "p.csv")],
                     ["plot", "--out", str(tmp_path / "p.svg")],
                     ["plot", "--color-by", "topology", "--out", str(tmp_path / "t.svg")]):
            checked_rows.clear()
            assert main(argv + inputs) == 0
            assert checked_rows == []  # and so does load_model's check of the vertices

    def test_check_checks_every_tree(self, wide_file, checked_rows, capsys):
        assert main(["check", "--input", str(wide_file)]) == 0
        assert sum(checked_rows) == 50


class TestViewIngest:
    """Ingest and check make one PhyloTree view per tree read and take every array from the file's one batch.

    A view reads its own part of a batch field (PhyloTree._part) only when
    something works tree by tree or lays trees' records end to end again.
    """

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = {"views": 0, "parts": 0}
        init, part = troppca.treespace.PhyloTree.__init__, troppca.treespace.PhyloTree._part

        def counting_init(tree, *args):
            calls["views"] += 1
            init(tree, *args)

        def counting_part(tree, field):
            calls["parts"] += 1
            return part(tree, field)

        monkeypatch.setattr(troppca.treespace.PhyloTree, "__init__", counting_init)
        monkeypatch.setattr(troppca.treespace.PhyloTree, "_part", counting_part)
        return calls

    def test_load_sample_reads_the_batch(self, sample_file, spied):
        for flags in ((False, False), (True, False), (False, True), (True, True)):
            _, _, vectors = _load_sample(sample_file, *flags)
            assert vectors.shape == (40, 10)
        assert spied == {"views": 4 * 40, "parts": 0}
        assert load_newick_file(sample_file)[0][0][1].leaf_names
        assert spied == {"views": 5 * 40, "parts": 1}  # the spies see the library path

    def test_check_reads_the_batch(self, tmp_path, sample_file, spied, capsys):
        assert main(["check", "--input", str(sample_file)]) == 0
        assert spied == {"views": 40, "parts": 0}
        mixed = tmp_path / "mixed.nwk"
        mixed.write_text("(a:1,b:1,c:1);\n((a:1,b:1):1,(c:1,d:1):1);\n(a:1,b:1;\n((a:1,b:2):1,c:3);\n")
        assert main(["check", "--input", str(mixed)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-5:] == [
            "line 1: m=3 height=1 equidistant=yes (gap=0) ultrametric=yes (violation=0)",
            "line 2: m=4 height=2 equidistant=yes (gap=0) ultrametric=yes (violation=0)",
            "line 3: parse error: expected ',' or ')' at offset 8",
            "line 4: m=3 height=3 equidistant=no (gap=1) ultrametric=no (violation=1)",
            "checked 3 trees: 2 equidistant, 2 ultrametric, 1 parse errors",
        ]


class TestFit:
    def test_fit_writes_model_and_trace(self, tmp_path, sample_file, capsys):
        model_path, trace_path = fit_model(tmp_path, sample_file, **{"--iters": "100"})
        out = capsys.readouterr().out
        assert out.startswith("SE=") and " time_s=" in out

        with open(trace_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 100
        assert list(rows[0]) == ["iter", "alpha", "SE", "best_SE"]
        best = [float(r["best_SE"]) for r in rows]
        assert all(a >= b for a, b in zip(best, best[1:]))

        model = load_model(model_path)
        assert model.m == 5 and model.s == 3
        assert model.trace_summary["iterations"] == 100

    def test_same_seed_reproduces_se(self, tmp_path, sample_file, capsys):
        fit_model(tmp_path, sample_file)
        first = capsys.readouterr().out.split()[0]
        fit_model(tmp_path, sample_file)
        second = capsys.readouterr().out.split()[0]
        assert first == second

    def test_s_larger_than_n_fails(self, tmp_path, sample_file, capsys):
        code = main([
            "fit", "--input", str(sample_file), "--s", "41",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "need at least s observations" in capsys.readouterr().err

    def test_non_ultrametric_input_rejected_with_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        # line 2 has pairwise path weights (3, 6, 7): a unique maximum
        path.write_text("(1:1,2:1,3:1);\n((1:1,2:2):1,3:4);\n(1:2,2:2,3:2);\n")
        code = main(["fit", "--input", str(path), "--s", "2", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "lines 2" in err and "--project-inputs" in err

    def test_project_inputs_flag_allows_fit(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("(1:1,2:1,3:1);\n((1:1,2:2):1,3:4);\n(1:2,2:2,3:2);\n")
        code = main([
            "fit", "--input", str(path), "--s", "2", "--project-inputs",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 0

    def test_normalize_height(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("((1:1,2:1):1,3:2);\n((1:2,2:2):2,3:4);\n(1:3,2:3,3:3);\n")
        code = main([
            "fit", "--input", str(path), "--s", "2", "--normalize-height",
            "--seed", "4", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 0
        model = load_model(tmp_path / "m.json")
        # after normalization the first two trees coincide, so a 2-vertex fit is exact
        assert model.trace_summary["best_se"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("line,height", [
        pytest.param("(1:0,2:0,3:0);", "0", id="zero"),
        pytest.param("(1:1e-320,2:1e-320,3:1e-320);", "1e-320", id="subnormal"),  # 1/h overflows
    ])
    def test_normalize_height_rejects_a_tree_it_cannot_scale(self, tmp_path, capsys, line, height):
        path = tmp_path / "trees.nwk"
        path.write_text(f"(1:1,2:1,3:1);\n{line}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
            code = main(["fit", "--input", str(path), "--s", "2", "--normalize-height",
                         "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: line 2: cannot normalize a tree of height {height}"]
        assert not (tmp_path / "m.json").exists()

    def test_cyclic_update_mode(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file, **{"--update-mode": "cyclic"})
        assert load_model(model_path).config["update_mode"] == "cyclic"

    @pytest.mark.parametrize("mode", ["simultaneous", "cyclic"])
    def test_model_config_object(self, tmp_path, sample_file, mode):
        overrides = {"--update-mode": mode, "--lr0": "0.02", "--decay": "0.99"}
        model_path, _ = fit_model(tmp_path, sample_file, **overrides)
        config = json.loads(model_path.read_text(encoding="utf-8"))["config"]
        assert list(config.items()) == [
            ("s", 3), ("max_iters", 60), ("lr0", 0.02), ("decay", 0.99), ("seed", 1),
            ("init", "sample-points"), ("update_mode", mode),
            ("project_inputs", False), ("normalize_height", False),
        ]

    @pytest.mark.parametrize("lr0", ["nan", "inf"])
    def test_non_finite_lr0_fails_with_one_line_error(self, tmp_path, sample_file, capsys, lr0):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
            code = main(["fit", "--input", str(sample_file), "--s", "2", "--lr0", lr0,
                         "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: lr0 must be positive and finite, got {lr0}"]

    def test_negative_seed_fails_with_one_line_error(self, tmp_path, sample_file, capsys):
        capsys.readouterr()
        out = tmp_path / "m.json"
        code = main(["fit", "--input", str(sample_file), "--s", "2", "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be a non-negative integer, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["simultaneous", "cyclic"])
    def test_overflowing_step_fails_with_one_line_error(self, tmp_path, capsys, mode):
        sample = tmp_path / "sample.nwk"
        assert main(["gen", "--m", "5", "--n", "40", "--seed", "3", "--out", str(sample)]) == 0

        def run(lr0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
                return main(["fit", "--input", str(sample), "--s", "3", "--lr0", lr0,
                             "--update-mode", mode, "--out", str(tmp_path / "m.json")])

        capsys.readouterr()
        assert run("1e308") == 1
        assert capsys.readouterr().err.splitlines() == ["error: iteration 0 overflows: lr0=1e+308 is too large"]
        assert run("1e300") == 0
        assert capsys.readouterr().err == ""

    def test_mismatched_leaf_sets_rejected(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("(1:1,2:1,3:1);\n(1:1,2:1,4:1);\n")
        code = main(["fit", "--input", str(path), "--s", "2", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "leaf set differs" in err and "4" in err


    def test_non_finite_branch_length_fails_with_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text("((a:1,b:1):1,c:2);\n((a:1e400,b:1):1,c:2);\n(a:2,b:2,c:2);\n")
        code = main(["fit", "--input", str(path), "--s", "2", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 2: non-finite branch length at offset 4"]

    def test_overflowing_depth_fails_with_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(f"((a:1,b:1):1,c:2);\n{OVERFLOWING_TREE}\n")
        code = main(["fit", "--input", str(path), "--s", "2", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 2: non-finite root-to-leaf depth at offset 35"]

    def test_overflowing_path_length_fails_with_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(f"((a:1,b:1):1,c:2);\n{OVERFLOWING_PATHS}\n")
        code = main(["fit", "--input", str(path), "--s", "2", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 2: non-finite leaf-to-leaf path length at offset 31"]


class TestEval:
    def test_eval_matches_fit_output(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file)
        fit_line = capsys.readouterr().out.strip().split()[0]
        assert main(["eval", "--model", str(model_path), "--input", str(sample_file)]) == 0
        eval_line = capsys.readouterr().out.strip()
        assert eval_line == fit_line

    def test_eval_exactly_reproduces_stored_best(self, tmp_path, sample_file):
        model_path, _ = fit_model(tmp_path, sample_file)
        model = load_model(model_path)
        trees, _ = load_newick_file(sample_file)
        vectors = np.array([t.cophenetic_vector() for _, t in trees])
        assert objective(vectors, model.polytope) == model.trace_summary["best_se"]

    def test_eval_of_exported_vertices_is_zero(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file)
        model = load_model(model_path)
        vertex_file = tmp_path / "vertices.nwk"
        with open(vertex_file, "w") as handle:
            for vertex in model.polytope.vertices:
                shifted = vertex - vertex.min() + 0.5  # positive torus representative
                tree = reconstruct_tree(shifted, names=model.leaf_labels)
                handle.write(tree.to_newick() + "\n")
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--input", str(vertex_file)]) == 0
        assert capsys.readouterr().out.strip() == "SE=0.0000"

    def test_eval_order_free(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file)
        lines = [l for l in sample_file.read_text().splitlines() if l and not l.startswith("#")]
        permuted = tmp_path / "permuted.nwk"
        permuted.write_text("\n".join(reversed(lines)) + "\n")
        capsys.readouterr()
        main(["eval", "--model", str(model_path), "--input", str(sample_file)])
        first = capsys.readouterr().out
        main(["eval", "--model", str(model_path), "--input", str(permuted)])
        second = capsys.readouterr().out
        assert first == second

    def test_overflowing_depth_fails_with_one_line_error(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file)
        path = tmp_path / "trees.nwk"
        path.write_text(f"{OVERFLOWING_TREE}\n")
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 1: non-finite root-to-leaf depth at offset 35"]

    def test_overflowing_path_length_fails_with_one_line_error(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file)
        path = tmp_path / "trees.nwk"
        path.write_text(f"{OVERFLOWING_PATHS}\n")
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 1: non-finite leaf-to-leaf path length at offset 31"]

    def test_model_file_that_is_not_json_is_named(self, tmp_path, sample_file, capsys):
        capsys.readouterr()
        assert main(["eval", "--model", str(sample_file), "--input", str(sample_file)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: model file is not valid JSON: Expecting value: line 1 column 1 (char 0)"]

    def test_leaf_set_mismatch_names_difference(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file)
        other = tmp_path / "other.nwk"
        main(["gen", "--m", "4", "--n", "5", "--seed", "2", "--out", str(other)])
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--input", str(other)]) == 1
        err = capsys.readouterr().err
        assert "missing from input: 5" in err


class TestProjectCommand:
    def test_csv_layout_and_vertex_rows(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file)
        model = load_model(model_path)
        vertex_file = tmp_path / "vertices.nwk"
        with open(vertex_file, "w") as handle:
            for vertex in model.polytope.vertices:
                shifted = vertex - vertex.min() + 0.5
                handle.write(reconstruct_tree(shifted, names=model.leaf_labels).to_newick() + "\n")
        out_csv = tmp_path / "proj.csv"
        assert main(["project", "--model", str(model_path), "--input", str(vertex_file), "--out", str(out_csv)]) == 0
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == ["id", "lambda_1", "lambda_2", "lambda_3", "dist"]
        assert [r["id"] for r in rows] == ["1", "2", "3"]
        for row in rows:
            assert float(row["dist"]) <= 1e-9

    def test_table_equals_rows_formatted_one_by_one(self, tmp_path, sample_file):
        """The one-format table writes each row as _fmt and str would."""
        model_path, _ = fit_model(tmp_path, sample_file)
        out_csv = tmp_path / "proj.csv"
        assert main(["project", "--model", str(model_path), "--input", str(sample_file), "--out", str(out_csv)]) == 0
        model = load_model(model_path)
        _, _, vectors = _load_sample(sample_file, False, False)
        w, lam = project_to_polytope(vectors, model.polytope)
        rows = [",".join([str(i), *map(_fmt, coords), _fmt(d)]) + "\n"
                for i, (coords, d) in enumerate(zip(lam.tolist(), trop_dist(vectors, w).tolist()), start=1)]
        assert out_csv.read_text().splitlines(keepends=True)[1:] == rows

    def test_row_count_matches_input(self, tmp_path, sample_file):
        model_path, _ = fit_model(tmp_path, sample_file)
        out_csv = tmp_path / "proj.csv"
        main(["project", "--model", str(model_path), "--input", str(sample_file), "--out", str(out_csv)])
        with open(out_csv) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 40


class TestPlot:
    def test_svg_well_formed_with_one_circle_per_tree(self, tmp_path, sample_file):
        model_path, _ = fit_model(tmp_path, sample_file)
        out_svg = tmp_path / "plot.svg"
        assert main(["plot", "--model", str(model_path), "--input", str(sample_file), "--out", str(out_svg)]) == 0
        root = ET.parse(out_svg).getroot()
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 40

    def test_byte_identical_reruns(self, tmp_path, sample_file):
        model_path, _ = fit_model(tmp_path, sample_file)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            main(["plot", "--model", str(model_path), "--input", str(sample_file),
                  "--out", str(out), "--color-by", "topology"])
        assert a.read_bytes() == b.read_bytes()

    def test_topology_legend_frequencies(self, tmp_path, sample_file):
        model_path, _ = fit_model(tmp_path, sample_file)
        out_svg = tmp_path / "plot.svg"
        main(["plot", "--model", str(model_path), "--input", str(sample_file),
              "--out", str(out_svg), "--color-by", "topology"])
        text = out_svg.read_text()
        assert "topologies (frequency)" in text
        counts = [int(piece.split(")")[0]) for piece in text.split("(")[1:] if piece.split(")")[0].isdigit()]
        assert sum(counts) == 40

    def test_vertices_map_to_distinct_plot_points(self, tmp_path, sample_file):
        from troppca.pca import project_to_polytope

        model_path, _ = fit_model(tmp_path, sample_file)
        model = load_model(model_path)
        coords = []
        for vertex in model.polytope.vertices:
            _, lam = project_to_polytope(vertex, model.polytope)
            coords.append((lam[1] - lam[0], lam[2] - lam[0]))
        assert len(set(coords)) == 3

    def test_plot_requires_three_vertices(self, tmp_path, sample_file, capsys):
        model_path, _ = fit_model(tmp_path, sample_file, **{"--s": "2"})
        code = main(["plot", "--model", str(model_path), "--input", str(sample_file), "--out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "requires s = 3" in capsys.readouterr().err


def test_commands_give_the_caller_buffer_back(tmp_path, sample_file, caller_buffer, capsys):
    """gen, check, fit, eval, project and plot, run in process, leave numpy's ufunc buffer at the caller's size, also on an error."""
    model_path, _ = fit_model(tmp_path, sample_file)
    assert np.getbufsize() == caller_buffer
    files = ["--model", str(model_path), "--input", str(sample_file)]
    for argv in (["gen", "--m", "6", "--n", "20", "--seed", "3", "--out", str(tmp_path / "g.nwk")],
                 ["check", "--input", str(sample_file)], ["eval", *files],
                 ["project", *files, "--out", str(tmp_path / "p.csv")],
                 ["plot", *files, "--out", str(tmp_path / "p.svg")]):
        assert main(argv) == 0
        assert np.getbufsize() == caller_buffer
    capsys.readouterr()
    assert main(["fit", "--input", str(sample_file), "--s", "3", "--lr0", "1e308", "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith("error: iteration 0 overflows")
    assert np.getbufsize() == caller_buffer


class TestModelFile:
    def test_save_load_round_trip_is_exact(self, tmp_path):
        vertices = random_ultrametrics(5, 3, seed=50)
        model = Model(leaf_labels=[str(i + 1) for i in range(5)],
                      polytope=TropicalPolytope(vertices),
                      config={"s": 3},
                      trace_summary={"best_se": 1.25})
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        sample = random_ultrametrics(5, 30, seed=51)
        assert objective(sample, loaded.polytope) == objective(sample, model.polytope)

    def test_format_version_enforced(self, tmp_path):
        vertices = random_ultrametrics(4, 2, seed=52)
        model = Model(leaf_labels=["1", "2", "3", "4"], polytope=TropicalPolytope(vertices))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_model(path)

    def test_vertices_validated_on_load(self, tmp_path):
        vertices = random_ultrametrics(4, 2, seed=53)
        model = Model(leaf_labels=["1", "2", "3", "4"], polytope=TropicalPolytope(vertices))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["vertices"][0][0] += 0.7
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="three-point"):
            load_model(path)

    @pytest.mark.parametrize("name", ["a,b", "a b", "", "x(y"])
    def test_label_that_is_not_a_newick_label_ends_in_one_line_error(self, tmp_path, sample_file, capsys, name):
        model_path, _ = fit_model(tmp_path, sample_file)
        doc = json.loads(model_path.read_text())
        doc["leaf_labels"][0] = name
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["plot", "--model", str(model_path), "--input", str(sample_file), "--color-by", "topology",
                     "--out", str(tmp_path / "plot.svg")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: leaf label {name!r} is not a run of [A-Za-z0-9_.], as Newick labels are"]
        assert not (tmp_path / "plot.svg").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            *(f"drop {key}" for key in ("m", "s", "leaf_labels", "vertices")),
            "string coordinate",
            "null coordinate",
            "huge integer coordinate",
            "ragged vertices",
            "boolean vertex",
            "boolean coordinate",
            "string m",
            "null config",
            "list trace_summary",
            "object document",
            "deeply nested config",
        ],
    )
    def test_broken_model_file_ends_in_one_line_error(self, tmp_path, sample_file, capsys, edit):
        model_path, _ = fit_model(tmp_path, sample_file)
        doc = json.loads(model_path.read_text())
        if edit.startswith("drop "):
            del doc[edit[5:]]
        elif edit == "string coordinate":
            doc["vertices"][1][2] = "0.5"
        elif edit == "null coordinate":
            doc["vertices"][0][3] = None
        elif edit == "huge integer coordinate":
            doc["vertices"][0][1] = 10**400
        elif edit == "ragged vertices":
            doc["vertices"][1].pop()
        elif edit == "boolean vertex":
            doc["vertices"][2] = [True] * len(doc["vertices"][2])
        elif edit == "boolean coordinate":
            doc["vertices"][1][3] = True
        elif edit == "string m":
            doc["m"] = "5"
        elif edit == "null config":
            doc["config"] = None
        elif edit == "list trace_summary":
            doc["trace_summary"] = [1, 2]
        elif edit == "deeply nested config":
            doc["config"] = "@"  # written as text below: json.dumps would recurse as deep
        else:
            doc = [doc]
        model_path.write_text(json.dumps(doc).replace('"@"', "[" * 100_000 + "]" * 100_000))
        capsys.readouterr()
        code = main(["eval", "--model", str(model_path), "--input", str(sample_file)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        with pytest.raises(ValueError):
            load_model(model_path)

    def test_stored_vertices_are_canonical(self, tmp_path):
        vertices = random_ultrametrics(4, 2, seed=54)
        model = Model(leaf_labels=["1", "2", "3", "4"], polytope=TropicalPolytope(vertices))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert all(row[0] == 0.0 for row in doc["vertices"])


PUBLIC_NAMES = [
    "FitConfig", "FitTrace", "Model", "NewickError", "PhyloTree", "TropicalPolytope",
    "baseline_random_search", "canonicalize", "cophenetic_vector", "default_leaf_names",
    "evaluate", "fit", "is_ultrametric", "leaf_count_from_dim", "load_model",
    "load_newick_file", "objective", "parse_newick", "project_to_polytope",
    "project_to_treespace", "random_ultrametrics", "reconstruct_tree", "save_model",
    "subgradient", "topology_signature", "trop_dist", "ultrametric_violation",
]
TREESPACE_NAMES = [
    "NewickError", "PhyloTree", "cophenetic_vector", "default_leaf_names", "default_tolerance",
    "is_ultrametric", "leaf_count_from_dim", "load_newick_file", "parse_newick", "project_to_treespace",
    "random_ultrametrics", "reconstruct_tree", "topology_signature", "ultrametric_violation",
]
PCA_NAMES = [
    "FitConfig", "FitTrace", "TropicalPolytope", "baseline_random_search", "evaluate", "fit", "objective",
    "project_to_polytope", "subgradient",
]


def run_python(*args):
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(troppca.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


class TestModuleEntryPoint:
    def test_python_m_troppca_help(self):
        result = run_python("-m", "troppca", "--help")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: troppca")

    def test_public_surface(self):
        for module, names in [(troppca, PUBLIC_NAMES), (troppca.treespace, TREESPACE_NAMES),
                              (troppca.pca, PCA_NAMES)]:
            assert sorted(module.__all__) == names, module.__name__
            assert all(hasattr(module, name) for name in module.__all__), module.__name__

    def test_cli_loads_numpy_alone(self):
        # modules a site hook loaded before the import do not count
        script = (
            "import sys; before = set(sys.modules); import troppca.cli; "
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}; "
            "print(*sorted(loaded - sys.stdlib_module_names))"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["numpy", "troppca"]


def readme_command_lines() -> list[list[str]]:
    """Each `troppca ...` line of README's command-line block, split into words.

    Backslash continuations are joined and `#` comments stripped.
    """
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as handle:
        block = handle.read().split("## Command line", 1)[1].split("```")[1]
    lines = (line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines())
    return [words for words in map(shlex.split, lines) if words[:1] == ["troppca"]]


class TestReadme:
    def test_command_line_block_parses(self):
        lines = readme_command_lines()
        for words in lines:
            _build_parser().parse_args(words[1:])
        assert sorted({words[1] for words in lines}) == ["check", "eval", "fit", "gen", "plot", "project"]
