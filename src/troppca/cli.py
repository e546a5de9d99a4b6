"""Command-line front end: fit, eval, project, plot, check, gen."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .model import Model, load_model, save_model
from .pca import FitConfig, TropicalPolytope, fit, objective, project_to_polytope
from .svgplot import scatter_svg
from .treespace import (
    _checked_vectors,
    _dendrogram_newick,
    _fields,
    _joined,
    _scaled,
    _verdict,
    cophenetic_vector,
    load_newick_file,
    project_to_treespace,
    random_ultrametrics,
    reconstruct_tree,
    topology_signature,
    ultrametric_violation,
)
from .tropical import canonicalize, trop_dist


class CliError(Exception):
    """User-facing failure; printed as a one-line diagnostic with exit code 1."""


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _differences(expected, got, missing="missing", extra="extra") -> str:
    """The labels of expected that got lacks and those of got that expected lacks, as error text."""
    return (f"{missing}: {', '.join(sorted(set(expected) - set(got))) or 'none'};"
            f" {extra}: {', '.join(sorted(set(got) - set(expected))) or 'none'}")


def _check_leaf_sets(line_numbers, batch) -> None:
    """Raise CliError on the first tree whose leaf labels differ from the first tree's; compared as label rows."""
    count = batch.count
    n = int(np.argmax(count != count[0])) or len(count)  # the trees before the first of another leaf count
    table = batch.names[:n * count[0]].reshape(n, -1)
    t = int(np.argmax(np.append((table != table[0]).any(axis=1), True)))  # the first row that differs, or n
    if t == len(count):
        return
    start = int(count[:t].sum())
    raise CliError(f"line {line_numbers[t]}: leaf set differs from line {line_numbers[0]}"
                   f" ({_differences(batch.names[:count[0]], batch.names[start:start + count[t]])})")


def _load_sample(path, project_inputs: bool, normalize_height: bool):
    """Read a Newick file into (leaf_labels, line_numbers, vector matrix), from the flat records of its trees."""
    trees, errors = load_newick_file(path)
    if errors:
        raise CliError("; ".join(f"line {ln}: {err}" for ln, err in errors))
    if not trees:
        raise CliError(f"no trees found in {path}")
    line_numbers = [ln for ln, _ in trees]
    batch = _joined([tree for _, tree in trees])  # the batch the trees are views of, not a copy
    _check_leaf_sets(line_numbers, batch)

    if normalize_height:
        heights = batch.depth.reshape(len(line_numbers), -1).max(axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            factors = 1.0 / heights
        bad = np.flatnonzero(~np.isfinite(factors))  # height 0, or so small that 1/h overflows
        if bad.size:
            raise CliError(f"line {line_numbers[bad[0]]}: cannot normalize a tree of height {heights[bad[0]]:.3g}")
        batch = _scaled(batch, factors)

    vectors, ok = _checked_vectors(batch)  # the three-point check only where leaf depths leave it open
    bad = ~ok
    if bad.any():
        if not project_inputs:
            offenders = ", ".join(str(ln) for ln, b in zip(line_numbers, bad) if b)
            raise CliError(
                f"non-ultrametric input trees at lines {offenders};"
                " rerun with --project-inputs to project them onto tree space"
            )
        vectors[bad] = project_to_treespace(vectors[bad])
    return batch.names[:batch.count[0]].tolist(), line_numbers, vectors


def _load_model_and_sample(args):
    model = load_model(args.model)
    labels, lines, vectors = _load_sample(args.input, args.project_inputs, args.normalize_height)
    if labels != model.leaf_labels:
        raise CliError(f"leaf sets of model and input differ"
                       f" ({_differences(model.leaf_labels, labels, 'missing from input', 'extra in input')})")
    return model, lines, vectors


def _write_trace_csv(path, trace) -> None:
    best = trace.initial_se
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("iter,alpha,SE,best_SE\n")
        for t, (alpha, se) in enumerate(zip(trace.alpha, trace.se)):
            best = min(best, se)
            handle.write(f"{t},{_fmt(alpha)},{_fmt(se)},{_fmt(best)}\n")


def cmd_fit(args) -> int:
    labels, _, vectors = _load_sample(args.input, args.project_inputs, args.normalize_height)
    cfg = FitConfig(
        s=args.s,
        max_iters=args.iters,
        lr0=args.lr0,
        decay=args.decay,
        seed=args.seed,
        update_mode=args.update_mode,
    )
    polytope, trace = fit(vectors, cfg)
    # store canonical torus representatives and the objective value they
    # reproduce exactly; the raw best-so-far may differ in the last ulp
    canonical = TropicalPolytope(np.stack([canonicalize(v) for v in polytope.vertices]))
    best_se = objective(vectors, canonical)
    model = Model(
        leaf_labels=labels,
        polytope=canonical,
        config={
            "s": cfg.s,
            "max_iters": cfg.max_iters,
            "lr0": cfg.lr0,
            "decay": cfg.decay,
            "seed": cfg.seed,
            "init": "sample-points",
            "update_mode": cfg.update_mode,
            "project_inputs": bool(args.project_inputs),
            "normalize_height": bool(args.normalize_height),
        },
        trace_summary={
            "iterations": len(trace),
            "initial_se": trace.initial_se,
            "best_se": best_se,
            "best_iteration": trace.best_iteration,
            "final_se": trace.final_se,
        },
    )
    save_model(model, args.out)
    if args.trace:
        _write_trace_csv(args.trace, trace)
    print(f"SE={best_se:.4f} time_s={trace.wall_time_s:.2f}")
    return 0


def cmd_eval(args) -> int:
    model, _, vectors = _load_model_and_sample(args)
    se = objective(vectors, model.polytope)
    print(f"SE={se:.4f}")
    return 0


def cmd_project(args) -> int:
    model, _, vectors = _load_model_and_sample(args)
    w, lam = project_to_polytope(vectors, model.polytope)
    dist = trop_dist(vectors, w)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("id," + ",".join(f"lambda_{k + 1}" for k in range(model.s)) + ",dist\n")
        # one '%' format for the whole table; '%.12g' writes each value as _fmt does
        table = np.column_stack([np.arange(1, len(lam) + 1), lam, dist])
        handle.write(("%d," + "%.12g," * model.s + "%.12g\n") * len(table) % tuple(table.ravel().tolist()))
    return 0


def _positive_representatives(u: np.ndarray) -> np.ndarray:
    """Torus-equivalent rows with all entries positive (a topology-preserving shift per row)."""
    lowest = u.min(axis=1, keepdims=True)
    spread = u.max(axis=1, keepdims=True) - lowest
    shifted = u - lowest + 0.5 * np.where(spread > 0, spread, 1.0)
    return np.where(lowest > 0, u, shifted)


def cmd_plot(args) -> int:
    model, _, vectors = _load_model_and_sample(args)
    if model.s != 3:
        raise CliError("plotting requires s = 3")
    w, lam = project_to_polytope(vectors, model.polytope)
    groups = None
    if args.color_by == "topology":
        groups = topology_signature(reconstruct_tree(_positive_representatives(w), names=model.leaf_labels))
    svg = scatter_svg(
        (lam[:, 1] - lam[:, 0]).tolist(),
        (lam[:, 2] - lam[:, 0]).tolist(),
        groups=groups,
        xlabel="lambda_2 - lambda_1",
        ylabel="lambda_3 - lambda_1",
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
    return 0


def cmd_check(args) -> int:
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be nonnegative and finite, got {args.tol}")
    trees, errors = load_newick_file(args.input)
    if not trees and not errors:
        raise CliError(f"no trees found in {args.input}")
    report = [(ln, f"parse error: {err}") for ln, err in errors]
    n_equidistant = 0
    n_ultrametric = 0
    for m in sorted({tree.m for _, tree in trees}):  # one batch per leaf count
        lines, views = zip(*[(ln, tree) for ln, tree in trees if tree.m == m])
        depths = _fields(views, ("depth",))[0].reshape(-1, m)
        vectors = cophenetic_vector(views)
        heights = depths.max(axis=1)
        gaps = heights - depths.min(axis=1)
        violations = ultrametric_violation(vectors)
        equidistant = _verdict(gaps, depths, args.tol)
        ultrametric = _verdict(violations, vectors, args.tol)
        n_equidistant += int(equidistant.sum())
        n_ultrametric += int(ultrametric.sum())
        rows = zip(lines, heights.tolist(), gaps.tolist(), equidistant.tolist(),
                   violations.tolist(), ultrametric.tolist())
        report += [(ln, f"m={m} height={height:.6g} equidistant={'yes' if eq else 'no'} (gap={gap:.3g})"
                        f" ultrametric={'yes' if um else 'no'} (violation={violation:.3g})")
                   for ln, height, gap, eq, violation, um in rows]
    for ln, text in sorted(report, key=lambda item: item[0]):
        print(f"line {ln}: {text}")
    print(
        f"checked {len(trees)} trees: {n_equidistant} equidistant,"
        f" {n_ultrametric} ultrametric, {len(errors)} parse errors"
    )
    return 1 if errors else 0


def cmd_gen(args) -> int:
    texts = _dendrogram_newick(random_ultrametrics(args.m, args.n, args.seed))
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# random equidistant trees: m={args.m} n={args.n} seed={args.seed}\n")
        handle.writelines(texts)
    print(f"wrote {args.n} trees to {args.out}")
    return 0


def _add_ingestion_flags(sub) -> None:
    sub.add_argument("--project-inputs", action="store_true",
                     help="replace non-ultrametric inputs by their tree-space projection")
    sub.add_argument("--normalize-height", action="store_true",
                     help="rescale every input tree to height 1 before vectorizing")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troppca",
        description="Fit and inspect best-fit tropical polytopes for equidistant trees.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("fit", help="fit a polytope to a Newick sample")
    p.add_argument("--input", required=True, help="Newick file, one tree per line")
    p.add_argument("--s", type=int, required=True, help="number of polytope vertices")
    p.add_argument("--iters", type=int, default=100, help="iteration count (default 100)")
    p.add_argument("--lr0", type=float, default=0.01, help="initial learning rate (default 0.01)")
    p.add_argument("--decay", type=float, default=0.999,
                   help="per-iteration learning-rate factor (default 0.999)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    _add_ingestion_flags(p)
    p.add_argument("--update-mode", choices=["simultaneous", "cyclic"], default="simultaneous")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--trace", default=None, help="optional per-iteration CSV path")
    p.set_defaults(func=cmd_fit)

    p = subparsers.add_parser("eval", help="objective value of a sample under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    _add_ingestion_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subparsers.add_parser("project", help="per-tree polytope coordinates as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_ingestion_flags(p)
    p.set_defaults(func=cmd_project)

    p = subparsers.add_parser("plot", help="2-D scatter of a sample in polytope coordinates (s=3)")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--color-by", choices=["topology"], default=None)
    _add_ingestion_flags(p)
    p.set_defaults(func=cmd_plot)

    p = subparsers.add_parser("check", help="validate equidistance and ultrametricity")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="absolute tolerance (default: 1e-8 x scale, per tree)")
    p.set_defaults(func=cmd_check)

    p = subparsers.add_parser("gen", help="generate random equidistant trees")
    p.add_argument("--m", type=int, required=True, help="leaf count")
    p.add_argument("--n", type=int, required=True, help="tree count")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output Newick path")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
