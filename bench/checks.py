"""Output checks run after every pipeline pass, outside the timed and traced regions.

Each problem is reported as (stage, message) so it counts against the stage
whose output is wrong.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

from troppca.model import LOAD_TOLERANCE, load_model
from troppca.pca import objective
from troppca.treespace import (
    default_tolerance,
    load_newick_file,
    project_to_treespace,
    ultrametric_violation,
)

# output file -> the stage that writes it
PRODUCER = {
    "raw.nwk": "gen",
    "trees.nwk": "gen",
    "model.json": "fit",
    "trace.csv": "fit",
    "proj.csv": "project",
    "plot.svg": "plot",
}

_SE = re.compile(r"SE=(\S+)")


def load_sample(path, project_inputs: bool, normalize_height: bool) -> np.ndarray:
    """The sample matrix the CLI ingests, rebuilt from the public tree-space API.

    Same rule as the CLI: optional rescaling to height 1, then tree-space
    projection of exactly the vectors that fail the scale-aware three-point
    check.
    """
    trees, errors = load_newick_file(path)
    if errors or not trees:
        raise ValueError(f"{path}: {len(errors)} parse errors, {len(trees)} trees")
    rows = []
    for _, tree in trees:
        if normalize_height:
            tree = tree.scaled(1.0 / tree.height())
        vec = tree.cophenetic_vector()
        if project_inputs and ultrametric_violation(vec) > default_tolerance(vec):
            vec = project_to_treespace(vec)
        rows.append(vec)
    return np.array(rows)


def three_point_violation(u: np.ndarray) -> float:
    """Worst (largest - second largest) over leaf triples; written independently of troppca."""
    e = u.size
    m = int(round((1 + (1 + 8 * e) ** 0.5) / 2))
    index = {pair: k for k, pair in enumerate(itertools.combinations(range(m), 2))}
    triples = np.array(
        [(index[i, j], index[i, k], index[j, k]) for i, j, k in itertools.combinations(range(m), 3)]
    )
    top = np.sort(u[triples], axis=1)
    return float(np.max(top[:, 2] - top[:, 1]))


def check_se(stdout: dict) -> list[tuple[str, str]]:
    """eval must print the same SE as fit."""
    fit_se = _SE.search(stdout.get("fit", ""))
    eval_se = _SE.search(stdout.get("eval", ""))
    if fit_se is None or eval_se is None or fit_se.group(1) != eval_se.group(1):
        shown = [m and m.group(0) for m in (eval_se, fit_se)]
        return [("eval", f"eval printed {shown[0]!r}, fit printed {shown[1]!r}")]
    return []


def check_outputs(files: dict, outputs: dict, n: int, ingest: dict) -> list[tuple[str, str]]:
    """Problems with one pass's output files; later passes need only compare_outputs."""
    problems = []
    doc = json.loads(outputs["model.json"])
    stored = doc["trace_summary"]["best_se"]
    sample = load_sample(files["trees.nwk"], **ingest)
    recomputed = objective(sample, load_model(files["model.json"]).polytope)
    if recomputed != stored:
        problems.append(("fit", f"trace_summary.best_se={stored!r} but objective on reload={recomputed!r}"))
    for k, vertex in enumerate(doc["vertices"]):
        violation = three_point_violation(np.asarray(vertex, dtype=float))
        if violation > LOAD_TOLERANCE:
            problems.append(("fit", f"vertex {k + 1} three-point violation {violation:.3g} > {LOAD_TOLERANCE}"))

    rows = outputs["proj.csv"].count(b"\n") - 1
    if rows != n:
        problems.append(("project", f"projection CSV has {rows} rows, expected {n}"))
    if not outputs["plot.svg"].rstrip().endswith(b"</svg>"):
        problems.append(("plot", "SVG is not a complete document"))
    return problems


def compare_outputs(reference: dict, outputs: dict, what: str) -> list[tuple[str, str]]:
    """Every output file must be byte-identical to the reference pass's."""
    return [
        (PRODUCER[name], f"{name} differs from the first pass ({what})")
        for name, data in outputs.items()
        if reference.get(name) != data
    ]
