"""Guard: `pytest benchmarks/` must collect the bench files.

The bench files are named ``bench_*.py``; pytest only collects them
because pyproject.toml widens ``python_files``.  This test fails loudly
if that configuration regresses (the symptom would be a silent
"no tests ran" from the benchmark harness).
"""

import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_files_are_collected():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--collect-only",
         "-q", "--no-header", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "bench_fig11_speed_area_power.py" in result.stdout
    assert "bench_table1_kernel_analysis.py" in result.stdout
    assert "bench_serve_load.py" in result.stdout
    assert "bench_shard_scaling.py" in result.stdout
    # All bench files collect tests. `-q --collect-only` emits one node id
    # per test on pytest >= 8 and `path: count` summary lines before that;
    # accept either format.
    collected = 0
    for line in result.stdout.splitlines():
        if not line.startswith("benchmarks/bench_"):
            continue
        if "::" in line:
            collected += 1
        elif ":" in line:
            collected += int(line.rsplit(":", 1)[1])
    assert collected >= 20


def test_committed_trajectory_artifacts_match_schema():
    """Every checked-in BENCH_*.json must satisfy the contract registered
    for it in repro.eval.bench_schema, so no perf trajectory (batched
    throughput or serve load) can silently drift."""
    from repro.eval.bench_schema import ARTIFACT_VALIDATORS, validate_artifact

    for name in ARTIFACT_VALIDATORS:
        artifact = REPO_ROOT / name
        assert artifact.exists(), f"{name} missing from repo root"
        problems = validate_artifact(name, json.loads(artifact.read_text()))
        assert problems == [], f"{name}:\n" + "\n".join(problems)


def test_result_dataclasses_share_schema_keys():
    """The artifact writers are generated from the schema key tuples —
    the writer and validator cannot disagree on the shape."""
    import dataclasses

    from repro.eval.bench_schema import (
        ENTRY_KEYS,
        SERVE_ENTRY_KEYS,
        SHARD_ENTRY_KEYS,
        SPARSE_ENTRY_KEYS,
        SPARSE_LANE_KEYS,
    )
    from repro.eval.runners import BatchedThroughput, SparseAccessResult
    from repro.serve.loadgen import ServeLoadResult, ShardScalingResult

    assert set(ENTRY_KEYS) <= {
        f.name for f in dataclasses.fields(BatchedThroughput)
    }
    assert set(SERVE_ENTRY_KEYS) == {
        f.name for f in dataclasses.fields(ServeLoadResult)
    }
    assert set(SHARD_ENTRY_KEYS) == {
        f.name for f in dataclasses.fields(ShardScalingResult)
    }
    assert set(SPARSE_ENTRY_KEYS) | set(SPARSE_LANE_KEYS) == {
        f.name for f in dataclasses.fields(SparseAccessResult)
    }


def test_sparse_lane_variants_carry_their_shape():
    """A ``_r<R>w<W>_<backend>`` lane entry must record the shape and
    backend its name claims; lanes do not stand in for the required
    R=1 sweep points."""
    from repro.eval.bench_schema import validate_sparse_access

    data = json.loads((REPO_ROOT / "BENCH_sparse_access.json").read_text())
    lanes = [name for name in data["variants"] if "_r4w64_" in name]
    assert {"sparse_k128_n2048_r4w64_reference",
            "sparse_k128_n2048_r4w64_tuned"} <= set(lanes)
    assert validate_sparse_access(data) == []
    lane = data["variants"]["sparse_k128_n2048_r4w64_tuned"]
    data["variants"]["sparse_k128_n2048_r4w64_tuned"] = dict(
        lane, backend="reference"
    )
    assert any("backend='tuned'" in p for p in validate_sparse_access(data))
    del data["variants"]["sparse_k128_n2048"]
    data["variants"]["sparse_k128_n2048_r4w64_tuned"] = lane
    assert any("sparse_k*_n2048" in p for p in validate_sparse_access(data))


def test_validator_cli_accepts_multiple_artifacts():
    """benchmarks/validate_bench_schema.py validates every named artifact
    and fails on an unregistered filename."""
    cli = REPO_ROOT / "benchmarks" / "validate_bench_schema.py"
    ok = subprocess.run(
        [sys.executable, str(cli),
         str(REPO_ROOT / "BENCH_batched_throughput.json"),
         str(REPO_ROOT / "BENCH_serve_load.json"),
         str(REPO_ROOT / "BENCH_shard_scaling.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr
    bad = subprocess.run(
        [sys.executable, str(cli), str(REPO_ROOT / "ROADMAP.md")],
        capture_output=True, text=True, timeout=60,
    )
    assert bad.returncode == 1


def test_every_figure_has_a_bench_file():
    bench_dir = REPO_ROOT / "benchmarks"
    names = {p.name for p in bench_dir.glob("bench_*.py")}
    expected = {
        "bench_table1_kernel_analysis.py",
        "bench_fig4_runtime_breakdown.py",
        "bench_fig5_noc_scalability.py",
        "bench_fig6_partition_traffic.py",
        "bench_fig7_two_stage_sort.py",
        "bench_fig10_dncd_accuracy.py",
        "bench_fig11_speed_area_power.py",
        "bench_fig12_comparison.py",
    }
    assert expected <= names
