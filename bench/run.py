#!/usr/bin/env python3
"""Benchmark of the troppca CLI pipeline: gen -> check -> fit -> eval -> project -> plot.

One closed-loop client in one process starts each stage when the previous
one returns, calling ``troppca.cli.main(argv)`` in process and timing it
from outside.  Usage, from the repository root:

    python3 bench/run.py --workload many-trees --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that wraps each module's public functions (see tracing.py) and reports
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Workloads, metrics and their
rationale are in README.md next to this file.
"""

from __future__ import annotations

import os
import sys

# Pin thread pools before numpy is imported: the benchmark is one
# single-threaded client, so no run uses more threads than there are cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np

    import troppca
    import troppca.cli
except ImportError as err:
    print(f"error: cannot import the program from {SRC}: {err}", file=sys.stderr)
    sys.exit(2)

import checks
import genetrees
import hostspeed
import tracing

S = 3  # polytope vertices; 3 so that plot runs on every workload
ITERS = 100
SETUP_SAMPLES = 11
MIN_PASSES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    m: int  # leaves per tree
    n: int  # trees
    gene_trees: bool  # perturbed by genetrees.py and read with --project-inputs --normalize-height


# Why each workload exists is in README.md; n is sized so that a 30 s run
# holds at least eight pipeline passes on a 2-core host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("many-trees", 10, 1000, False),
        Workload("wide-trees", 60, 50, False),
        Workload("gene-trees", 8, 800, True),
    )
}


# ---------------------------------------------------------------------------
# one pipeline pass


class Pipeline:
    """The six CLI calls of one workload, on files in one work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.files = {name: str(workdir / name) for name in checks.PRODUCER}
        if not workload.gene_trees:
            del self.files["raw.nwk"]
        self.ingest = {"project_inputs": workload.gene_trees, "normalize_height": workload.gene_trees}

    def argv(self, stage: str) -> list[str]:
        f, w = self.files, self.workload
        flags = ["--project-inputs", "--normalize-height"] if w.gene_trees else []
        return {
            "gen": ["gen", "--m", str(w.m), "--n", str(w.n), "--seed", str(self.seed),
                    "--out", f["raw.nwk" if w.gene_trees else "trees.nwk"]],
            "check": ["check", "--input", f["trees.nwk"]],
            "fit": ["fit", "--input", f["trees.nwk"], "--s", str(S), "--iters", str(ITERS),
                    "--seed", str(self.seed), "--out", f["model.json"], "--trace", f["trace.csv"]] + flags,
            "eval": ["eval", "--model", f["model.json"], "--input", f["trees.nwk"]] + flags,
            "project": ["project", "--model", f["model.json"], "--input", f["trees.nwk"],
                        "--out", f["proj.csv"]] + flags,
            "plot": ["plot", "--model", f["model.json"], "--input", f["trees.nwk"],
                     "--out", f["plot.svg"], "--color-by", "topology"] + flags,
        }[stage]

    def run_pass(self, tracer: tracing.Tracer | None = None) -> dict:
        """Run every stage once; stops at the first stage that exits nonzero.

        times are in nominal seconds (hostspeed.py), wall the raw wall times.
        """
        times, wall, factors, stdout, failed = {}, {}, {}, {}, []
        before = hostspeed.kernel_seconds()
        for stage in tracing.STAGES:
            seconds, code, text = _run_stage(stage, self.argv(stage), tracer)
            after = hostspeed.kernel_seconds()
            factors[stage] = hostspeed.scale(before, after)
            wall[stage], times[stage], stdout[stage] = seconds, seconds * factors[stage], text
            before = after
            if code != 0:
                failed.append((stage, f"exit code {code}: {text.strip()[-500:]}"))
                break
            if stage == "gen" and self.workload.gene_trees:
                genetrees.perturb_newick(self.files["raw.nwk"], self.files["trees.nwk"], self.seed)
        outputs = {}
        if not failed:
            outputs = {name: Path(path).read_bytes() for name, path in self.files.items()}
            failed = checks.check_se(stdout)
        return {"times": times, "wall": wall, "factors": factors, "stdout": stdout,
                "outputs": outputs, "failed": failed, "attempted": len(times)}


def _clear_program_caches() -> None:
    """Empty the program's functools caches, so each stage starts as a fresh CLI process would."""
    for name, module in list(sys.modules.items()):
        if name == "troppca" or name.startswith("troppca."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _run_stage(stage: str, argv: list[str], tracer) -> tuple[float, int, str]:
    _clear_program_caches()
    gc.collect()
    buf = io.StringIO()
    span = None
    if tracer is not None:
        tracer.stage = stage
        span = tracer.open(f"cli.{stage}")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = troppca.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed stage, reported with the run
        buf.write(traceback.format_exc())
        code = 1
    finally:
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    return seconds, code, buf.getvalue()


# ---------------------------------------------------------------------------
# set-up time, host facts


def measure_setup() -> list[float]:
    """Nominal seconds from spawning a fresh interpreter to `import troppca.cli` done.

    The child reads the same monotonic clock as the parent when the import
    returns, so interpreter teardown is excluded.  One untimed call first
    writes the bytecode cache, as an installed package would have it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = "import troppca.cli, time; print(repr(time.monotonic()))"
    out = []
    before = hostspeed.kernel_seconds()
    for i in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        seconds = float(done.stdout.strip()) - start
        after = hostspeed.kernel_seconds()
        if i:
            out.append(seconds * hostspeed.scale(before, after))
        before = after
    return out


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def host_facts() -> dict:
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(f"{index}/type")
        label = f"L{_read(f'{index}/level')}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = _read(f"{index}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "troppca": getattr(troppca, "__version__", "unknown"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one benchmark run


def _improved_ratio(model_json: bytes, trace_csv: bytes) -> float:
    """Share of iterations that lowered best_SE, read from the trace CSV.

    The CSV prints 12 significant digits, so the initial SE from the model
    is rounded the same way before the first comparison.
    """
    best = float(f"{json.loads(model_json)['trace_summary']['initial_se']:.12g}")
    rows = trace_csv.decode().splitlines()[1:]
    improved = 0
    for row in rows:
        best_se = float(row.split(",")[3])
        improved += best_se < best
        best = best_se
    return improved / len(rows)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm-up pass, then passes until `seconds` have elapsed (at least MIN_PASSES).

    With trace, passes alternate untraced / traced so the two sides see the
    same drift; the difference of their stage medians is the tracing overhead.
    """
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    tracer = tracing.Tracer()
    pipeline = Pipeline(workload, seed, workdir)
    attempted, failures, setup = 0, [], []
    passes = []  # (traced, result) of the timed passes
    try:
        warm = pipeline.run_pass()
        attempted += warm["attempted"]
        failures += [("warm-up", *f) for f in warm["failed"]]
        reference = warm["outputs"]
        if not failures:  # later passes are checked by being byte-identical to this one
            problems = checks.check_outputs(pipeline.files, reference, workload.n, pipeline.ingest)
            failures += [("warm-up", *f) for f in problems]
        if not trace and not failures:
            setup = measure_setup()
        if trace and not failures:
            failures += [("trace", name, "a per-layer metric names this function, which the program"
                          " does not bind where tracing.py wraps it") for name in tracing.unbound()]
        start = time.perf_counter()
        while not failures and (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds):
            traced = trace and len(passes) % 2 == 1
            pass_id = len(passes)
            if traced:
                tracer.pass_id = pass_id
                with tracing.installed(tracer):
                    result = pipeline.run_pass(tracer)
                tracer.resolve()
            else:
                result = pipeline.run_pass()
            attempted += result["attempted"]
            problems = result["failed"] or checks.compare_outputs(
                reference, result["outputs"], "traced" if traced else "untraced")
            failures += [(f"pass {pass_id}", *f) for f in problems]
            passes.append((traced, result))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len({(where, stage) for where, stage, _ in failures})
    run = {"attempted": attempted, "failed": failed, "failures": failures,
           "passes": len(passes), "samples": {}, "wall_samples": {}}
    if failures:
        return run

    untraced = [r for t, r in passes if not t]
    stage_samples = {f"{s}_s": [r["times"][s] for r in untraced] for s in tracing.STAGES}
    stage_samples["pipeline_s"] = [sum(r["times"].values()) for r in untraced]
    run["samples"] = stage_samples | {"setup_s": setup}
    run["wall_samples"] = {f"{s}_s": [r["wall"][s] for r in untraced] for s in tracing.STAGES}
    run["wall_samples"]["pipeline_s"] = [sum(r["wall"].values()) for r in untraced]
    if not trace:
        run["metrics"] = {
            "setup_s": (statistics.median(setup), "s"),
            **{name: (statistics.median(v), "s") for name, v in stage_samples.items()},
            "fit_best_se": (json.loads(reference["model.json"])["trace_summary"]["best_se"], "SE"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return run

    iterations = reference["trace.csv"].count(b"\n") - 1
    traced_ids = [i for i, (t, _) in enumerate(passes) if t]
    per_pass = [tracing.pass_metrics(tracer.spans, i, iterations, passes[i][1]["factors"])
                for i in traced_ids]
    metrics = {name: (statistics.median(p[name] for p in per_pass), tracing.unit_of(name))
               for name in per_pass[0]}
    metrics["pca.improved_ratio"] = (_improved_ratio(reference["model.json"], reference["trace.csv"]), "ratio")
    traced_times = [r["times"] for t, r in passes if t]
    for stage in tracing.STAGES:
        overhead = (statistics.median(t[stage] for t in traced_times)
                    - statistics.median(r["times"][stage] for r in untraced))
        metrics[f"trace.{stage}.overhead_s"] = (overhead, "s")
    run["metrics"] = metrics
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    return run


def report(workload: Workload, seed: int, seconds: float, trace: bool, run: dict, host: dict) -> dict:
    """Print the human-readable table and write the full record; returns the result line."""
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"# workload={workload.name} m={workload.m} n={workload.n} s={S} iters={ITERS}"
          f" seed={seed} seconds={seconds} trace={int(trace)} timed_passes={run['passes']}")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    for where, stage, message in run["failures"]:
        print(f"FAILED {where} {stage}: {message}", file=sys.stderr)
    print(f"{'stage_fail_ratio':42s} {ratio:14.6g} ratio  ({run['failed']}/{run['attempted']} stages)")
    for name, (value, unit) in run.get("metrics", {}).items():
        samples = run["samples"].get(name)
        spread = ""
        if samples:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"  q1={q1:.6g} q3={q3:.6g} n={len(samples)}"
        if name in run["wall_samples"]:
            spread += f"  wall={statistics.median(run['wall_samples'][name]):.6g}"
        print(f"{name:42s} {value:14.6g} {unit:6s}{spread}")
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.get("metrics", {}).items()},
    }
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": workload.__dict__, "seed": seed, "seconds": seconds, "trace": int(trace),
              "host": host, "stage_fail_ratio": ratio, "samples": run["samples"],
              "wall_samples": run["wall_samples"],
              "failures": run["failures"], "result": result}
    path = out_dir / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def run_all(args) -> int:
    """Each workload in a fresh child process, so peak RSS and caches are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        sys.stderr.write(done.stderr)
        try:  # a failed workload still prints its result line; count its failures
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("\n".join(lines))
            print(f"error: workload {name} exited with code {done.returncode} without a result line",
                  file=sys.stderr)
            combined["correct"] = False
            continue
        print("\n".join(lines))
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed run length")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    host = host_facts()
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    result = report(workload, args.seed, args.seconds, bool(args.trace), run, host)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
