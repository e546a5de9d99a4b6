"""The benchmark's reference ingest reads the same sample as the CLI.

``bench/checks.py`` rebuilds each pass's sample through the public tree
API and recomputes the fitted objective on it.  A program name it relies
on that is renamed or removed then fails here, not only as incorrect
outputs of a benchmark run.  ``bench/checks.py`` is read and executed,
never written to or imported through the bytecode cache.
"""

import types
from pathlib import Path

import pytest

from troppca.cli import _load_sample

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"

# Trees on one leaf set, in differing label orders, of differing heights, and
# not equidistant but one: each vector passes the three-point check.
ULTRAMETRIC = (
    "((a:1,b:1):1,(c:2,d:2):0.5);\n"
    "((d:0.25,c:0.25):3,(b:1,a:1):0.5);\n"
    "((a:0.1,b:0.1):0.2,(c:0.2,d:0.2):0.1);\n"
)
# The same, and three trees whose vectors fail the check, so --project-inputs projects them.
MIXED = ULTRAMETRIC + (
    "(((a:1,b:1):1,c:5):0.5,d:8.5);\n"
    "((a:1,b:2):1,(c:1,d:1):1);\n"
    "(c:3,a:1,d:4,b:2);\n"
)


@pytest.fixture(scope="module")
def checks():
    module = types.ModuleType("bench_checks")
    module.__file__ = str(CHECKS)
    exec(compile(CHECKS.read_text(encoding="utf-8"), str(CHECKS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("normalize_height", [False, True])
@pytest.mark.parametrize("project_inputs", [False, True])
def test_load_sample_equals_the_cli_ingest(checks, tmp_path, project_inputs, normalize_height):
    path = tmp_path / "trees.nwk"
    path.write_text(MIXED if project_inputs else ULTRAMETRIC)
    _, _, expected = _load_sample(path, project_inputs, normalize_height)
    got = checks.load_sample(path, project_inputs=project_inputs, normalize_height=normalize_height)
    assert got.shape == expected.shape == (6 if project_inputs else 3, 6)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
