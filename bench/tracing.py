"""Span tracing for the traced benchmark run, installed from outside the program.

Each wrapper replaces a name in the module that looks it up (``troppca.cli``
imports its helpers by name, ``troppca.pca`` and ``troppca.model`` import
theirs the same way), so a span marks one call across a module boundary, or
one call fit makes to a pca function.  The wrapped names are found when the
wrappers are installed, so a function the program adds gets its own span.
Other calls inside a module are not split: ``random_ultrametrics`` calling
``project_to_treespace`` counts as ``random_ultrametrics`` self time.

Spans live in memory as plain records and are written out once, at the end.
Span attributes are computed after the pass, so their cost is in no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "stage", "pass_id", "attrs")

    def __init__(self, name, parent, stage, pass_id):
        self.name = name
        self.parent = parent
        self.stage = stage
        self.pass_id = pass_id
        self.start = self.end = 0.0
        self.attrs = None

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._pending: list[tuple[Span, object, tuple, object]] = []
        self.stage = None
        self.pass_id = None

    def open(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else -1, self.stage, self.pass_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def annotate_later(self, span: Span, annotate, args: tuple, result) -> None:
        self._pending.append((span, annotate, args, result))

    def resolve(self) -> None:
        """Compute the deferred span attributes, outside every timed region, and drop the references."""
        for span, annotate, args, result in self._pending:
            span.attrs = annotate(args, result)
        self._pending.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def _wrap(tracer: Tracer, fn, name: str, annotate=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if annotate is not None:
            tracer.annotate_later(span, annotate, args, result)
        return result

    return traced


def _objective_elements(args, result):
    sample, polytope = args[0], args[1]
    rows = np.shape(sample)[0] if np.ndim(sample) == 2 else 1
    return {"elements": rows * polytope.s * polytope.e}


def _projection_noop(args, result):
    """Vectors projected, and how many of them came back unchanged (row-wise, so a batch counts per row)."""
    out = np.atleast_2d(result)
    unchanged = np.all(out == np.atleast_2d(np.asarray(args[0], dtype=float)), axis=1)
    return {"vectors": len(out), "noop": int(unchanged.sum())}


def _trees_parsed(args, result):
    return {"trees": len(result[0])}


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(args[1])}


# The modules whose module-level lookups are wrapped, and whether their own
# functions are wrapped too.  In every one, each public package function
# defined in another module is wrapped.  pca's own functions are wrapped as
# well, since fit calls its evaluation kernels through pca's namespace; cli's
# own functions are not, their work is cli.<stage> time.
CALLERS = (("troppca.cli", False), ("troppca.pca", True), ("troppca.model", False))
# cheap helpers the cli calls once per tree; their time counts as cli time
CALLER_TIME = frozenset({"topology_signature", "default_tolerance"})
# methods called on trees, so no module lookup sees them
METHODS = (("troppca.treespace", "PhyloTree", ("cophenetic_vector", "to_newick")),)
# is_ultrametric is the same three-point check, so it reports under that row
ALIASES = {"treespace.is_ultrametric": "treespace.ultrametric_violation"}
ANNOTATE = {
    "treespace.load_newick_file": _trees_parsed,
    "pca.objective": _objective_elements,
    "model.save_model": _bytes_written,
}


def _span_name(fn) -> str:
    """Span name of fn: its defining module without the package prefix, a dot, its name."""
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return ALIASES.get(name, name)


def _annotator(span_name: str):
    if span_name.startswith("treespace.project_to_treespace"):
        return _projection_noop
    return ANNOTATE.get(span_name)


def targets() -> list[tuple[object, str, object, str]]:
    """(owner, attribute, function, span name) of every name the traced run wraps."""
    out = []
    for module_name, own in CALLERS:
        module = sys.modules[module_name]
        for attr, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and attr not in CALLER_TIME
                and fn.__module__.startswith("troppca.")
                and (own or fn.__module__ != module_name)
            ):
                out.append((module, attr, fn, _span_name(fn)))
    for module_name, class_name, attrs in METHODS:
        owner = getattr(sys.modules[module_name], class_name)
        for attr in attrs:
            fn = owner.__dict__.get(attr)
            if inspect.isfunction(fn):
                out.append((owner, attr, fn, _span_name(fn)))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Swap every name of targets() for a span-recording wrapper; restore on exit."""
    restore = []
    try:
        for owner, attr, fn, span_name in targets():
            setattr(owner, attr, _wrap(tracer, fn, span_name, _annotator(span_name)))
            restore.append((owner, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)


STAGES = ("gen", "check", "fit", "eval", "project", "plot")

SELF_TIMED = (
    "pca.fit", "pca.subgradient", "pca.objective", "pca.project_to_polytope",
    "treespace.project_to_treespace", "treespace.ultrametric_violation",
    "treespace.load_newick_file", "treespace.cophenetic_vector", "treespace.reconstruct_tree",
    "treespace.random_ultrametrics", "treespace.to_newick", "tropical.trop_dist",
    "model.save_model", "model.load_model", "svgplot.scatter_svg",
    *(f"cli.{stage}" for stage in STAGES),
)
COUNTED = (
    "pca.subgradient", "pca.objective", "pca.project_to_polytope",
    "treespace.project_to_treespace", "treespace.ultrametric_violation",
    "tropical.trop_dist", "tropical.canonicalize",
)


def unbound() -> list[str]:
    """Functions a per-layer metric is named after that the traced run would not wrap.

    Such a metric would read 0 without measuring anything, so the traced run
    fails on them instead; a function that is wrapped but not called reads
    0 because it was not called.
    """
    wrapped = {span_name for *_, span_name in targets()}
    named = {name for name in (*SELF_TIMED, *COUNTED) if not name.startswith("cli.")}
    return sorted(named - wrapped)


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("per_iter", "1/iter"), ("bytes_written", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def pass_metrics(spans: list[Span], pass_id: int, iterations: int, factors: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so that is exactly the
    part of the interval the children cover.  It is scaled to nominal
    seconds by its stage's host-speed factor, as the stage times are.
    """
    mine = [i for i, span in enumerate(spans) if span.pass_id == pass_id]
    child_time = dict.fromkeys(mine, 0.0)
    for i in mine:
        parent = spans[i].parent
        if parent in child_time:
            child_time[parent] += spans[i].end - spans[i].start
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    attr_sums: dict[str, float] = {}
    for i in mine:
        span = spans[i]
        self_s = ((span.end - span.start) - child_time[i]) * factors[span.stage]
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + self_s
        calls_by_name[span.name] = calls_by_name.get(span.name, 0) + 1
        for key, value in (span.attrs or {}).items():
            attr_sums[f"{span.name}.{key}"] = attr_sums.get(f"{span.name}.{key}", 0) + value
    # evaluation kernels: whatever pca function fit calls (objective and subgradient at the seed)
    fit_spans = {i for i in mine if spans[i].name == "pca.fit"}
    evals_in_fit = sum(1 for i in mine if spans[i].parent in fit_spans and spans[i].name.startswith("pca."))

    out = {f"{name}.self_s": self_by_name.get(name, 0.0) for name in SELF_TIMED}
    out |= {f"{name}.calls": calls_by_name.get(name, 0) for name in COUNTED}
    out["pca.objective.elements"] = attr_sums.get("pca.objective.elements", 0)
    out["pca.evals_per_iter"] = evals_in_fit / iterations
    projected = noops = 0  # over every projection entry point, so a batched one counts too
    for key, value in attr_sums.items():
        if key.startswith("treespace.project_to_treespace"):
            projected += value if key.endswith(".vectors") else 0
            noops += value if key.endswith(".noop") else 0
    out["treespace.project_to_treespace.noop_ratio"] = noops / projected if projected else 0.0
    out["treespace.trees_parsed"] = attr_sums.get("treespace.load_newick_file.trees", 0)
    out["model.bytes_written"] = attr_sums.get("model.save_model.bytes", 0)
    return out
