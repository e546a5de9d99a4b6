"""Property test of the command line: any argv and any file contents end in exit 0, 1 or 2.

Exit 2 is an argparse usage error, 1 a one-line ``error:`` diagnostic.
Whatever the input, nothing may escape as a traceback.  Inputs mix valid
and broken Newick lines and a valid model file with broken edits.
"""

import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from troppca.cli import main

VALID_LINES = st.sampled_from([
    "((a:1,b:1):1,c:2);",
    "(a:2,(b:1,c:1):1);",
    "(a:1,b:1,c:1);",
    "((a:1,b:1):1,c:9);",
    "((a:0,b:0):0,c:0);",
    "((a:1,b:1):1,c:2);  # comment",
    "",
])
BROKEN_LINES = st.sampled_from([
    "((a:1,b:1):1,d:2);",
    "((a:1,b:1):1,(c:1,d:1):1);",
    "((a:1e308,b:1e308):1e308,c:1.5e308);",
    "((a:1e400,b:1):1,c:2);",
    "(a:1,b:-1,c:1);",
    "(a,b);",
    "(a:1,a:1,c:1);",
    "(a:1e-320,b:1e-320,c:1e-320);",
])
NEWICK_LINES = st.one_of(VALID_LINES, BROKEN_LINES, st.text(alphabet="(),:;abc01.e- ", max_size=24))
NEWICK_FILES = st.one_of(
    st.lists(VALID_LINES, min_size=1, max_size=6),
    st.lists(NEWICK_LINES, max_size=6),
).map("\n".join)


@functools.lru_cache(maxsize=None)
def valid_model() -> str:
    """Text of a model fitted to three-leaf trees, the leaf set most fuzzed files share."""
    with tempfile.TemporaryDirectory() as tmp:
        sample, model = Path(tmp) / "s.nwk", Path(tmp) / "m.json"
        sample.write_text("((a:1,b:1):1,c:2);\n(a:2,(b:1,c:1):1);\n(a:1,b:1,c:1);\n")
        assert main(["fit", "--input", str(sample), "--s", "3", "--iters", "2", "--out", str(model)]) == 0
        return model.read_text()


@st.composite
def model_files(draw) -> str:
    text = valid_model()
    doc = json.loads(text)
    edit = draw(st.sampled_from(["none", "truncate", "drop", "retype", "vertex", "garbage"]))
    if edit == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if edit == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == "retype":
        key = draw(st.sampled_from(sorted(doc)))
        values = [None, "3", -1, 2.5, [], {}, [[1.0, "x", 2.0]], [[1e308, -1e308, 0.0]], [[10**400, 0, 0]]]
        doc[key] = draw(st.sampled_from(values))
    elif edit == "vertex":  # one coordinate of the otherwise valid vertices
        row = draw(st.sampled_from(doc["vertices"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([10**400, -10**400, "x", None, 1e308]))
    elif edit == "garbage":
        return draw(st.sampled_from(["", "{", "[]", "null", "\x00\xff", '{"format_version": 1}']))
    return json.dumps(doc)


COUNTS = ["3", "2", "2", "4", "1", "0", "-1", "x"]
REALS = ["0.01", "0.5", "1", "0", "-1", "1e308", "nan", "inf", "x"]
VALUES = {
    "--s": COUNTS, "--m": COUNTS, "--n": COUNTS, "--iters": ["1", "3", "0", "-2", "x"],
    "--seed": ["1", "7", "-3", "x"], "--lr0": REALS, "--decay": REALS, "--tol": REALS,
    "--update-mode": ["simultaneous", "cyclic", "other"], "--color-by": ["topology", "size"],
    "--bogus": ["1"],
}
# per subcommand: (required flags, optional flags); a flag ending in "!" takes no value
SUBCOMMANDS = {
    "fit": (["--input", "--s", "--out"], ["--iters", "--lr0", "--decay", "--seed", "--trace",
                                           "--update-mode", "--project-inputs!", "--normalize-height!"]),
    "eval": (["--model", "--input"], ["--project-inputs!", "--normalize-height!"]),
    "project": (["--model", "--input", "--out"], ["--project-inputs!", "--normalize-height!"]),
    "plot": (["--model", "--input", "--out"], ["--color-by", "--project-inputs!", "--normalize-height!"]),
    "check": (["--input"], ["--tol"]),
    "gen": (["--m", "--n", "--out"], ["--seed"]),
}


@st.composite
def argvs(draw, paths: dict[str, str]) -> list[str]:
    """A subcommand with each required flag present nine times in ten, optional flags, rarely an unknown one."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    required, optional = SUBCOMMANDS[command]
    # hypothesis leans to the first element of a sampled list
    flags = [flag for flag in required if draw(st.sampled_from([True] * 9 + [False]))]
    flags += draw(st.lists(st.sampled_from(optional), max_size=4))
    if draw(st.sampled_from([False] * 19 + [True])):
        flags.append("--bogus")
    argv = [command]
    for flag in flags:
        argv.append(flag.rstrip("!"))
        if flag.endswith("!"):
            continue
        if flag in ("--input", "--model", "--out", "--trace"):
            usual = {"--input": "trees", "--model": "model"}.get(flag, "out")
            argv.append(paths[draw(st.sampled_from([usual] * 6 + ["trees", "model", "dir", "missing"]))])
        else:
            argv.append(draw(st.sampled_from(VALUES[flag])))
    return argv


def assert_exits_cleanly(argv: list[str]) -> None:
    """Run the command line on argv: exit 0 with nothing on stderr, 1 with one ``error:`` line or none, or 2."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a stray stderr line
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse reports usage errors this way
            code = exit.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1 and err:  # check reports parse errors on stdout and exits 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


@settings(max_examples=200)
@given(st.data(), NEWICK_FILES, model_files())
def test_every_invocation_exits_cleanly(data, trees_text, model_text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {name: str(root / name) for name in ("trees", "model", "out", "missing")}
        paths["dir"] = tmp
        Path(paths["trees"]).write_text(trees_text)
        Path(paths["model"]).write_text(model_text)
        assert_exits_cleanly(data.draw(argvs(paths)))


@given(model_files(), st.sampled_from(["eval", "project", "plot"]))
def test_every_model_file_loads_or_fails_cleanly(model_text, command):
    """Each subcommand that reads a model, on valid trees and paths: only the model file varies."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "trees").write_text("((a:1,b:1):1,c:2);\n(a:2,(b:1,c:1):1);\n(a:1,b:1,c:1);\n")
        (root / "model").write_text(model_text)
        argv = [command, "--model", str(root / "model"), "--input", str(root / "trees")]
        if command != "eval":
            argv += ["--out", str(root / "out")]
        assert_exits_cleanly(argv)
