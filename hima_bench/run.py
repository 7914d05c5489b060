"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 hima_bench/run.py --workload engine_dnc --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` adds a traced window and prints the per-layer metrics; its
spans go to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.  The last
line of standard output is one JSON object: ``correct`` (the gate's
verdict), ``attempted``, ``failed`` and ``metrics``.  A run that prints
a result exits with 0, also when ``correct`` is false.  See
``README.md`` here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Declares the workloads and every metric's name and unit.
DECLARATION = ROOT / "BENCHMARK.json"

#: One BLAS/OpenMP thread per process (see README.md, "The BLAS pools").
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_declaration(path=DECLARATION):
    """Workload names, and ``{name: unit}`` of the end-to-end and the
    per-layer metrics, as ``BENCHMARK.json`` declares them."""
    declared = json.loads(path.read_text())
    return (
        [w["name"] for w in declared["workloads"]],
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha():
    """HEAD of the checkout, or ``None`` outside a git work tree (the
    search for ``.git`` stops at the checkout root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies the
    program even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def process_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def provenance(args, np, backend: str, dtype: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "process_threads_after_numpy_import": process_threads(),
        "backend": backend,
        "dtype": dtype,
    }


#: Spans whose self time is waiting, not work: a session's lifetime
#: between its calls, and a request's stay from queueing to completion
#: (these overlap across the requests of one batch).
WAIT_SPANS = ("loadgen.session", "shard.dispatch")


def layer_of(name: str) -> str:
    if name.startswith("engine.phase:"):
        return "phase"
    return name.removeprefix("bench.").split(".", 1)[0]


def report_trace(outcome, args, spans, validate_trace_jsonl) -> None:
    """Write the spans to JSONL, validate them, print self time by layer."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    count = outcome.tracer.export_jsonl(path)
    problems = validate_trace_jsonl(path)
    outcome.gate["trace_jsonl_problems"] = len(problems)
    outcome.gate["ok"] = bool(outcome.gate["ok"] and not problems)
    for problem in problems[:10]:
        print(f"trace problem: {problem}")
    print(f"trace: {count} spans -> {path.relative_to(ROOT)}")
    by_name = spans.self_times(outcome.tracer.records())
    waits = {n: by_name.pop(n) for n in WAIT_SPANS if n in by_name}
    by_layer: dict = {}
    for name, seconds in by_name.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + seconds
    print("self time by layer (s):")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds:10.4f}")
    print("self time by span (s):")
    for name, seconds in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<34} {seconds:10.4f}")
    for name, seconds in sorted(waits.items()):
        print(f"  {name:<34} {seconds:10.4f}  (waiting, summed over requests)")


def main(argv=None) -> int:
    workload_names, end_to_end, per_layer = load_declaration()
    args = parse_args(argv, workload_names)
    # Before numpy is first imported, so the BLAS pool starts with one
    # thread here and in every worker ProcCluster forks from this process.
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import repro
    from repro.obs import validate_trace_jsonl

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    info = provenance(args, np, workloads.BACKEND, workloads.DTYPE)
    print(f"provenance {json.dumps(info, sort_keys=True)}")
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if multiprocessing.active_children():
        raise RuntimeError("a worker process outlived its cluster")

    for note in outcome.notes:
        print(f"note: {note}")
    lat = outcome.latency
    print(
        f"step latency: p50={lat['p50_ms']:.3f} ms p99={lat['p99_ms']:.3f} ms "
        f"samples={lat['samples']}"
    )
    for name, value in outcome.end_to_end.items():
        print(f"end-to-end {name} = {value:.6g} {end_to_end[name]}")
    if args.trace:
        report_trace(outcome, args, spans, validate_trace_jsonl)
        missing = [n for n in per_layer if n not in outcome.per_layer]
        if missing:
            print(f"not applicable on {args.workload} (reported as 0): "
                  + ", ".join(missing))
        for name, unit in per_layer.items():
            print(f"per-layer {name} = {outcome.per_layer.get(name, 0):.6g} {unit}")
        table = {n: (outcome.per_layer.get(n, 0.0), u) for n, u in per_layer.items()}
    else:
        table = {n: (outcome.end_to_end[n], u) for n, u in end_to_end.items()}
    print(f"gate {json.dumps(outcome.gate, sort_keys=True)}")
    correct = bool(outcome.gate["ok"])
    metrics = {
        name: {"value": value if type(value) is int else float(value), "unit": unit}
        for name, (value, unit) in table.items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
