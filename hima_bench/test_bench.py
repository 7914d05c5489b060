"""Tests of the repository benchmark itself.

Run from the repository root: ``python3 -m pytest hima_bench -q``.
The smoke runs use sub-second windows; they check the output contract
and the gates, not performance.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core import HiMAConfig, TiledEngine  # noqa: E402
from repro.serve import SessionServer, generate_scripts  # noqa: E402
from run import load_declaration  # noqa: E402

WORKLOADS, END_TO_END, PER_LAYER = load_declaration()
TINY = HiMAConfig(
    memory_size=32, word_size=16, num_reads=2, num_tiles=4, hidden_size=32,
    backend="tuned",
)


def bench(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "hima_bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def result(done):
    assert done.returncode == 0, done.stderr[-3000:] + done.stdout[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_declared_metrics(workload):
    units = END_TO_END
    first, second = result(bench(workload, 1, 0)), result(bench(workload, 2, 0))
    for res in (first, second):
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        assert all(v["value"] > 0 for v in res["metrics"].values())
    traced = result(bench(workload, 3, 1))
    assert traced["correct"] is True and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == PER_LAYER
    path = ROOT / ".bench_out" / f"trace-{workload}-seed3.jsonl"
    from repro.obs import validate_trace_jsonl

    assert validate_trace_jsonl(path) == []


def test_seed_changes_inputs():
    a, b = workloads.engine_inputs(1, 64), workloads.engine_inputs(2, 64)
    assert a.shape == b.shape and not np.array_equal(a, b)
    np.testing.assert_array_equal(a, workloads.engine_inputs(1, 64))
    for spec in (workloads.SERVE_SPARSE, workloads.SERVE_PROC):
        s1, s2 = spec.scripts(spec.config.word_size, 1), spec.scripts(spec.config.word_size, 2)
        assert not np.array_equal(s1[0].inputs, s2[0].inputs)


def test_engine_gate_fails_on_corrupted_output():
    engine = TiledEngine(TINY, rng=0)
    pool = np.random.default_rng(0).standard_normal((2, 3, 2, TINY.word_size))
    outputs = [(i % 2, engine.run_batch(pool[i % 2])) for i in range(4)]
    assert workloads.check_engine(engine, pool, outputs, lanes=[0, 1])["ok"]

    wrong = [(i, y.copy()) for i, y in outputs]
    wrong[0][1][1, 0, 0] += 1e-6
    verdict = workloads.check_engine(engine, pool, wrong, lanes=[0])
    assert not verdict["ok"] and not verdict["repeats_bitwise_equal"]

    wrong_repeat = [(i, y.copy()) for i, y in outputs]
    wrong_repeat[2][1][0, 1, 0] = np.nan
    assert not workloads.check_engine(engine, pool, wrong_repeat, lanes=[0])["ok"]


def test_serving_gate_fails_on_corrupted_output():
    server = SessionServer(TiledEngine(TINY, rng=5), max_batch=4, session_capacity=4)
    scripts = generate_scripts(TINY.word_size, num_sessions=64, mean_interarrival_ticks=0.0, rng=5)
    loop = workloads.ClosedLoop(
        server, scripts, num_clients=4, sample=np.ones(64, dtype=bool)
    )
    window = loop.run(0.1)
    assert loop.finish() == 0 and window.failed == 0 and window.steps > 0
    solo = TiledEngine(TINY, rng=5)
    tol = workloads.SERVE_TOLERANCE
    assert workloads.check_sessions(solo, loop.sampled, tol)["ok"]

    inputs, outputs = loop.sampled[-1]
    outputs[-1] = outputs[-1] + 1e-9
    assert not workloads.check_sessions(solo, loop.sampled, tol)["ok"]
    assert workloads.check_sessions(solo, loop.sampled, 1e-3)["ok"]
    outputs[-1] = outputs[-1] + 1e-2
    assert not workloads.check_sessions(solo, loop.sampled, 1e-3)["ok"]


def test_sparse_sessions_served_alone_match_solo():
    config = HiMAConfig(
        memory_size=64, word_size=16, num_reads=2, num_tiles=4, hidden_size=32,
        access_policy="sparse", access_top_k=8, backend="tuned",
    )
    scripts = generate_scripts(16, num_sessions=2, mean_interarrival_ticks=0.0, rng=3)
    verdict = workloads.check_served_alone(
        config, 3, scripts, TiledEngine(config, rng=3)
    )
    assert verdict["ok"] and verdict["steps_checked"] == sum(s.length for s in scripts)
    assert not workloads.check_served_alone(
        config, 3, scripts, TiledEngine(config, rng=4)
    )["ok"]


def test_self_time_and_uncovered_time():
    def span(sid, parent, name, t0, t1):
        return {"span_id": sid, "parent_id": parent, "name": name,
                "t_start": t0, "t_end": t1, "pid": 1}

    records = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "child", 1.0, 4.0),
        span(3, 1, "child", 3.0, 5.0),
        span(4, 1, "late", 9.0, 12.0),  # only 1 s falls inside the root
    ]
    got = spans.self_times(records)
    assert got["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert got["child"] == pytest.approx(5.0)
    assert spans.uncovered_time([(0.0, 10.0), (20.0, 21.0)], [(2.0, 3.0), (2.5, 4.0)]) == pytest.approx(9.0)


def test_runner_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "hima_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("engine_dnc", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
