"""Versioned JSON persistence for fitted polytopes.

Vertex coordinates are stored as canonical torus representatives (first
coordinate 0) with full float precision, so a load followed by an
evaluation reproduces the fitted objective value bit for bit.  The file
carries no timestamps; refitting with the same inputs rewrites it
byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .pca import TropicalPolytope
from .tropical import canonicalize
from .treespace import _check_labels, _three_point, leaf_count_from_dim

FORMAT_VERSION = 1

# absolute, per the file contract: stored vertices are canonical and O(1)-scaled
LOAD_TOLERANCE = 1e-8


@dataclass
class Model:
    """A fitted polytope, its leaf-label table, and the fit's summary."""

    leaf_labels: list[str]
    polytope: TropicalPolytope
    config: dict = field(default_factory=dict)
    trace_summary: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.leaf_labels)

    @property
    def s(self) -> int:
        return self.polytope.s


def save_model(model: Model, path) -> None:
    """Write the model as a format_version 1 JSON document."""
    vertices = [canonicalize(v).tolist() for v in model.polytope.vertices]
    doc = {
        "format_version": FORMAT_VERSION,
        "m": model.m,
        "s": model.s,
        "leaf_labels": list(model.leaf_labels),
        "vertices": vertices,
        "config": model.config,
        "trace_summary": model.trace_summary,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def load_model(path) -> Model:
    """Read and validate a model document; raises ValueError on a bad file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise ValueError("model file nests too deeply") from None
        except json.JSONDecodeError as err:
            raise ValueError(f"model file is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    missing = [key for key in ("m", "s", "leaf_labels", "vertices") if key not in doc]
    if missing:
        raise ValueError(f"model file lacks the {missing[0]!r} field")
    m, s, labels = doc["m"], doc["s"], doc["leaf_labels"]
    if type(m) is not int or type(s) is not int:
        raise ValueError("model fields 'm' and 's' must be integers")
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)
            and len(labels) == len(set(labels)) == m):
        raise ValueError(f"leaf label table must hold {m} distinct labels")
    _check_labels(labels)
    rows = doc["vertices"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and set(map(type, row)) <= {int, float} for row in rows  # bool is neither
    ):
        raise ValueError("vertices must be lists of numbers")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("vertex rows differ in length")
    try:
        vertices = np.array(rows, dtype=float)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError("vertex coordinates must be finite") from None
    if vertices.ndim != 2 or vertices.shape[0] != s:
        raise ValueError("vertex array does not match the declared s")
    if leaf_count_from_dim(vertices.shape[1]) != m:
        raise ValueError("vertex dimension does not match the declared m")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")
    violation, _ = _three_point(vertices, m, LOAD_TOLERANCE)
    bad = np.flatnonzero(~(violation <= LOAD_TOLERANCE))
    if bad.size:
        raise ValueError(f"vertex {bad[0] + 1} fails the three-point condition")
    config, summary = doc.get("config", {}), doc.get("trace_summary", {})
    if not (isinstance(config, dict) and isinstance(summary, dict)):
        raise ValueError("model fields 'config' and 'trace_summary' must be JSON objects")
    return Model(leaf_labels=list(labels), polytope=TropicalPolytope(vertices), config=config, trace_summary=summary)
