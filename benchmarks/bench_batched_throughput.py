"""Batched engine throughput — the repo's perf trajectory benchmark.

Measures ``TiledEngine.run_batch`` (B sequences advancing in lock-step
through stacked kernels) against B sequential B=1 ``run`` calls on the
identical workload, and writes a machine-readable record to
``BENCH_batched_throughput.json`` at the repo root so future PRs can
track throughput regressions.  Schema (see
``benchmarks/validate_bench_schema.py`` for the authoritative contract)::

    {
      "batch_size": B, "steps_per_sec": x, "speedup_vs_seq": y, ...,
      "dtype": "float64",
      "variants": {
        "two_stage_sort":        {...},   # sort-enabled hot path
        "skim":                  {...},   # skimmed-allocation hot path
        "float64_n256":          {...},   # dtype A/B at memory_size=256
        "float32_n256":          {...},
        "backend_reference":     {...},   # kernel-backend A/B at N=256
        "backend_tuned":         {...},   # (+ backend_torch when torch
      }                                   #  is importable)
    }

Every entry carries the full :class:`BatchedThroughput` record including
the config it ran under (``dtype``, ``memory_size``, ``two_stage_sort``,
``skim_fraction``).  The asserted floors are deliberately conservative
(the measured ratios are typically well above them): batching must pay
off by >= 4x at B=16 on the base config, >= 3x with the two-stage sorter
or skimming enabled, and float32 must beat float64 at ``N=256`` where
the N^2 linkage kernels are memory-bandwidth-bound.
"""

import json
import pathlib

import pytest

from repro.core.config import HiMAConfig
from repro.eval.bench_schema import merge_artifact, validate_trajectory
from repro.core.backend import available_backends
from repro.eval.runners import (
    batched_throughput_experiment,
    measure_backend_ab,
    measure_batched_throughput,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_batched_throughput.json"

#: The trajectory configuration: small enough that per-step engine
#: overhead (what batching amortizes) dominates, keeping the measured
#: ratio stable on loaded CI machines.
TRAJECTORY_CONFIG = dict(
    memory_size=32, word_size=16, num_tiles=4, hidden_size=32,
    two_stage_sort=False,
)

#: Dtype A/B configuration: large enough (memory_size >= 256) that the
#: N^2 linkage/forward-backward kernels are memory-bandwidth-bound, so
#: halving the word width is measurable above timer noise.
DTYPE_AB_CONFIG = dict(
    memory_size=256, word_size=32, num_reads=2, num_tiles=8, hidden_size=64,
    two_stage_sort=False,
)


def _merge_artifact(update: dict) -> None:
    """Read-modify-write the trajectory JSON, preserving other entries."""
    merge_artifact(ARTIFACT, update)


def test_batched_throughput_trajectory():
    result = measure_batched_throughput(
        HiMAConfig(**TRAJECTORY_CONFIG), batch_size=16, seq_len=16, repeats=5
    )
    # Always leave the artifact on disk, even if the floors fail below:
    # a regressing run should still record what it measured.
    _merge_artifact(result.to_json())
    assert result.batch1_max_abs_diff <= 1e-10
    assert result.speedup_vs_seq >= 4.0


def test_sort_enabled_throughput_trajectory():
    """The sort/allocation path must stay batch-vectorized.

    Before the batched two-stage sorter, enabling ``two_stage_sort`` or
    ``skim_fraction`` dropped run_batch to a per-element Python loop in
    the sorter; these floors pin the vectorized behaviour.
    """
    sorted_result = measure_batched_throughput(
        HiMAConfig(**{**TRAJECTORY_CONFIG, "two_stage_sort": True}),
        batch_size=16, seq_len=16, repeats=5,
    )
    skim_result = measure_batched_throughput(
        HiMAConfig(**{**TRAJECTORY_CONFIG, "skim_fraction": 0.25}),
        batch_size=16, seq_len=16, repeats=5,
    )
    _merge_artifact({
        "variants": {
            "two_stage_sort": sorted_result.to_json(),
            "skim": skim_result.to_json(),
        }
    })
    assert sorted_result.batch1_max_abs_diff <= 1e-10
    assert skim_result.batch1_max_abs_diff <= 1e-10
    assert sorted_result.speedup_vs_seq >= 3.0
    assert skim_result.speedup_vs_seq >= 3.0


def test_dtype_throughput_trajectory():
    """float32 must beat float64 on the bandwidth-bound N=256 config."""
    f64 = measure_batched_throughput(
        HiMAConfig(**DTYPE_AB_CONFIG), batch_size=16, seq_len=6, repeats=3
    )
    f32 = measure_batched_throughput(
        HiMAConfig(**{**DTYPE_AB_CONFIG, "dtype": "float32"}),
        batch_size=16, seq_len=6, repeats=3,
    )
    _merge_artifact({
        "variants": {"float64_n256": f64.to_json(), "float32_n256": f32.to_json()}
    })
    assert f64.batch1_max_abs_diff <= 1e-10
    # float32 batch-of-1 rounds differently through BLAS but stays within
    # the engine's documented float32 tolerance.
    assert f32.batch1_max_abs_diff <= 1e-3
    assert f32.steps_per_sec > f64.steps_per_sec


def test_backend_ab_trajectory():
    """A/B the kernel backends on the bandwidth-bound N=256 config.

    The ``tuned`` backend's cache-blocked linkage sweep and
    scratch-resident write phase must pay for the abstraction on the
    large-N hot path, and must not tax the small-N base config (where
    it delegates to the reference kernels below its blocking
    threshold).  The ``reference`` entry doubles as the seam's
    regression canary: its batch-of-1 trajectory must stay bitwise on
    the pre-seam numbers (diff exactly 0 against the unbatched run).

    The 1.25x floor is the PR's headline number: on a quiet run of this
    host class the interleaved ratio measures ~1.3-1.7x; a shared-CI
    neighbor can compress the gap, which is why this floor lives in the
    non-blocking bench tier rather than tier-1.
    """
    results = measure_backend_ab(
        HiMAConfig(**DTYPE_AB_CONFIG), batch_size=16, seq_len=8, repeats=9
    )
    variants = {
        "backend_reference": results["reference"].to_json(),
        "backend_tuned": results["tuned"].to_json(),
    }
    if "torch" in available_backends():
        torch_results = measure_backend_ab(
            HiMAConfig(**DTYPE_AB_CONFIG),
            backends=("reference", "torch"),
            batch_size=16, seq_len=8, repeats=5,
        )
        variants["backend_torch"] = torch_results["torch"].to_json()
    _merge_artifact({"variants": variants})
    # The reference backend holds the bitwise bar against the baseline
    # engine's unbatched run; tuned's single-rounding BLAS linkage
    # accumulation is bounded by the float64 verification tolerance.
    assert results["reference"].batch1_max_abs_diff == 0.0
    assert results["tuned"].batch1_max_abs_diff <= 1e-9
    assert results["tuned"].steps_per_sec >= 1.25 * results["reference"].steps_per_sec

    # Small-N guard: under the blocking threshold the tuned backend
    # delegates its write phase to the reference kernels and only the
    # factored content scores differ (ulp-scale), so the only
    # acceptable cost is measurement noise.
    small = measure_backend_ab(
        HiMAConfig(**TRAJECTORY_CONFIG), batch_size=16, seq_len=8, repeats=15
    )
    assert small["tuned"].batch1_max_abs_diff <= 1e-9
    assert small["tuned"].steps_per_sec >= 0.97 * small["reference"].steps_per_sec


def test_trajectory_schema_valid():
    """The artifact written above satisfies the published contract."""
    problems = validate_trajectory(json.loads(ARTIFACT.read_text()))
    assert problems == [], "\n".join(problems)


def test_batched_throughput_scaling_table(save_result):
    result = batched_throughput_experiment(
        HiMAConfig(**TRAJECTORY_CONFIG), batch_sizes=(4, 16), seq_len=8
    )
    save_result(result)
    assert len(result.rows) == 2


@pytest.mark.parametrize("distributed", [False, True])
def test_batched_equivalence_both_modes(distributed):
    config = HiMAConfig(
        memory_size=64, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, distributed=distributed,
    )
    from repro.core.engine import TiledEngine

    engine = TiledEngine(config, rng=0)
    error = engine.verify_against_reference(steps=4, batch_size=4)
    assert error < 1e-10
