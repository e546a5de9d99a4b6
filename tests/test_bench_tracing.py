"""The traced benchmark run binds every function its per-layer metrics are named after.

A renamed or removed program function then fails here, not only in the
traced benchmark run.  ``bench/tracing.py`` is read and executed, never
written to or imported through the bytecode cache.
"""

import types
from pathlib import Path

import troppca.cli  # noqa: F401  the modules whose names tracing.py wraps
import troppca.model  # noqa: F401
import troppca.pca  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_per_layer_metric_names_a_bound_function():
    tracing = types.ModuleType("bench_tracing")
    tracing.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    assert tracing.unbound() == []
    spans = {span for *_, span in tracing.targets()}
    assert {"treespace.load_newick_file", "treespace.cophenetic_vector"} <= spans
    # fit's evaluation kernel reports as its own span, not as pca.fit self time
    assert "pca.evaluate" in spans
