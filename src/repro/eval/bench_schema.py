"""Schema contracts for the repo-root ``BENCH_*.json`` trajectory artifacts.

Perf PRs extend/update these artifacts rather than inventing new formats
(ROADMAP convention); this module is the single source of truth for what
each file must contain, consumed by:

* the result dataclasses (:class:`repro.eval.runners.BatchedThroughput`,
  :class:`repro.serve.loadgen.ServeLoadResult`) — their ``to_json``
  methods are generated from the key tuples here, so the writers cannot
  drift from the validators;
* the bench harnesses (``benchmarks/bench_batched_throughput.py``,
  ``benchmarks/bench_serve_load.py``) and the tier-1 artifact tests;
* the CI CLI ``benchmarks/validate_bench_schema.py``, which validates any
  number of artifacts by dispatching on filename through
  :data:`ARTIFACT_VALIDATORS`.

``BENCH_batched_throughput.json``: one base
:class:`~repro.eval.runners.BatchedThroughput` entry (flat keys, B=16
trajectory config) plus a ``variants`` mapping carrying the
sort-enabled, dtype, and kernel-backend A/B entries.
``BENCH_serve_load.json``: one flat
:class:`~repro.serve.loadgen.ServeLoadResult` entry (the state-arena
hot path) plus a ``variants`` mapping with the ``state_arena`` /
``gather_scatter`` A/B pair and the ``tracing_on`` / ``tracing_off``
observability-overhead A/B pair.
``BENCH_shard_scaling.json``: one flat
:class:`~repro.serve.loadgen.ShardScalingResult` entry (the headline
multi-shard point) plus ``shards_1`` / ``shards_2`` / ``shards_4``
variants tracing the sharded-serving scaling curve.
``BENCH_proc_serve.json``: one flat
:class:`~repro.serve.loadgen.ProcServeResult` entry (the headline
process-cluster point) plus ``threads`` / ``procs`` / ``procs_restart``
variants comparing topologies — and pricing crash recovery — on the
identical 64-session Zipf mix.
``BENCH_sparse_access.json``: one flat
:class:`~repro.eval.runners.SparseAccessResult` entry (the headline
N=2048 sparse point) plus ``dense_n{384,1024,2048}`` /
``sparse_k<K>_n<N>`` variants A/B'ing the access policies with explicit
accuracy deltas vs dense float64, and ``..._r<R>w<W>_<backend>`` lane
variants of the same A/B at other read-head/word shapes per backend.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Callable, Dict, List, Union

from repro.utils.validation import EXTENDED_DTYPE_CHOICES


def merge_artifact(path: Union[str, pathlib.Path], update: Dict) -> None:
    """Read-modify-write a ``BENCH_*.json`` artifact, preserving entries.

    Shared by the bench harnesses (each of their tests contributes part
    of one artifact): top-level keys from ``update`` overwrite, and its
    ``variants`` mapping merges entry-wise into the existing one.  An
    unreadable/corrupt artifact is replaced rather than crashing the
    bench — a regressing run must still record what it measured.
    """
    path = pathlib.Path(path)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    if not isinstance(data, dict):
        data = {}
    update = dict(update)
    variants = data.get("variants")
    if not isinstance(variants, dict):
        variants = {}
    variants.update(update.pop("variants", {}))
    data.update(update)
    if variants:
        data["variants"] = variants
    path.write_text(json.dumps(data, indent=2) + "\n")

# ---------------------------------------------------------------------------
# BENCH_batched_throughput.json
# ---------------------------------------------------------------------------

#: Keys every trajectory entry (top level and each variant) must carry.
#: Also the exact field list of ``BatchedThroughput`` — its ``to_json``
#: iterates this tuple.
ENTRY_KEYS = (
    "batch_size",
    "steps_per_sec",
    "speedup_vs_seq",
    "seq_len",
    "sequential_steps_per_sec",
    "batch1_max_abs_diff",
    "dtype",
    "memory_size",
    "two_stage_sort",
    "skim_fraction",
    "backend",
)

#: Variant entries the artifact must include: the sort-enabled hot paths,
#: the float64/float32 A/B pair at memory_size >= 256, and the
#: kernel-backend A/B pair (reference vs tuned on the identical
#: bandwidth-bound float64 N>=256 config; a ``backend_torch`` entry
#: additionally appears when torch is importable but is never required).
REQUIRED_VARIANTS = (
    "two_stage_sort",
    "skim",
    "float64_n256",
    "float32_n256",
    "backend_reference",
    "backend_tuned",
)


def _check_entry(
    entry: object,
    where: str,
    required_keys,
    positive_keys,
) -> List[str]:
    problems: List[str] = []
    if not isinstance(entry, dict):
        return [f"{where}: expected an object, got {type(entry).__name__}"]
    for key in required_keys:
        if key not in entry:
            problems.append(f"{where}: missing key {key!r}")
    dtype = entry.get("dtype")
    if "dtype" in entry and dtype not in EXTENDED_DTYPE_CHOICES:
        problems.append(
            f"{where}: dtype must be one of {EXTENDED_DTYPE_CHOICES}, "
            f"got {dtype!r}"
        )
    backend = entry.get("backend")
    if "backend" in entry and (
        not isinstance(backend, str) or not backend
    ):
        problems.append(
            f"{where}: backend must be a non-empty string, got {backend!r}"
        )
    for key in positive_keys:
        value = entry.get(key)
        if key in entry and (not isinstance(value, (int, float)) or value <= 0):
            problems.append(f"{where}: {key} must be a positive number, got {value!r}")
    return problems


_THROUGHPUT_POSITIVE = ("steps_per_sec", "speedup_vs_seq", "sequential_steps_per_sec")


def validate_trajectory(data: object) -> List[str]:
    """Problems with a ``BENCH_batched_throughput.json`` payload."""
    problems = _check_entry(data, "top-level", ENTRY_KEYS, _THROUGHPUT_POSITIVE)
    if not isinstance(data, dict):
        return problems
    variants = data.get("variants")
    if not isinstance(variants, dict):
        problems.append("missing or non-object 'variants' mapping")
        return problems
    for name in REQUIRED_VARIANTS:
        if name not in variants:
            problems.append(f"variants: missing required entry {name!r}")
        else:
            problems.extend(_check_entry(
                variants[name], f"variants[{name!r}]",
                ENTRY_KEYS, _THROUGHPUT_POSITIVE,
            ))
    sort_variant = variants.get("two_stage_sort")
    if isinstance(sort_variant, dict) and sort_variant.get("two_stage_sort") is not True:
        problems.append("variants['two_stage_sort']: entry must have two_stage_sort=true")
    f32 = variants.get("float32_n256")
    if isinstance(f32, dict):
        if f32.get("dtype") != "float32":
            problems.append("variants['float32_n256']: entry must have dtype='float32'")
        if isinstance(f32.get("memory_size"), int) and f32["memory_size"] < 256:
            problems.append("variants['float32_n256']: memory_size must be >= 256")
    for name, backend in (
        ("backend_reference", "reference"),
        ("backend_tuned", "tuned"),
        ("backend_torch", "torch"),  # optional; checked only when present
    ):
        entry = variants.get(name)
        if isinstance(entry, dict) and entry.get("backend") != backend:
            problems.append(
                f"variants[{name!r}]: entry must have backend={backend!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# BENCH_serve_load.json
# ---------------------------------------------------------------------------

#: Keys of every serve-load entry (top level and each variant); also the
#: exact field list of ``ServeLoadResult`` — its ``to_json`` iterates
#: this tuple.
SERVE_ENTRY_KEYS = (
    "concurrent_sessions",
    "steps_per_session",
    "max_batch",
    "max_wait_ticks",
    "requests_per_sec",
    "sequential_requests_per_sec",
    "speedup_vs_sequential",
    "microbatch_max_abs_diff",
    "p50_wait_ticks",
    "p95_wait_ticks",
    "p99_wait_ticks",
    "mean_batch_occupancy",
    "admission_rejects",
    "evictions",
    "dtype",
    "memory_size",
    "state_arena",
    "state_bytes_copied",
    "tracing",
    "backend",
)

#: Variant entries the serve artifact must include: the resident
#: state-arena hot path and the gather/scatter fallback it replaced,
#: measured on the identical workload so the copy tax is visible as a
#: throughput ratio (and in ``state_bytes_copied``) — plus the
#: observability A/B (full tracing + per-phase profiling vs none, same
#: workload), where the ``tracing_on`` entry is held to a <3% overhead
#: floor by the obs-smoke bench — plus the kernel-backend A/B pair
#: (reference vs tuned serving the identical arena workload at the
#: state-heavy N=384 config).
SERVE_REQUIRED_VARIANTS = (
    "state_arena",
    "gather_scatter",
    "tracing_on",
    "tracing_off",
    "backend_reference",
    "backend_tuned",
)

_SERVE_POSITIVE = (
    "concurrent_sessions",
    "steps_per_session",
    "max_batch",
    "requests_per_sec",
    "sequential_requests_per_sec",
    "speedup_vs_sequential",
    "mean_batch_occupancy",
)


def _check_serve_entry(entry: object, where: str) -> List[str]:
    problems = _check_entry(entry, where, SERVE_ENTRY_KEYS, _SERVE_POSITIVE)
    if not isinstance(entry, dict):
        return problems
    diff = entry.get("microbatch_max_abs_diff")
    if "microbatch_max_abs_diff" in entry and (
        not isinstance(diff, (int, float)) or diff < 0
    ):
        problems.append(
            f"{where}: microbatch_max_abs_diff must be a non-negative "
            f"number, got {diff!r}"
        )
    for key in ("admission_rejects", "evictions", "state_bytes_copied"):
        value = entry.get(key)
        if key in entry and (not isinstance(value, int) or value < 0):
            problems.append(
                f"{where}: {key} must be a non-negative integer, got {value!r}"
            )
    for key in ("state_arena", "tracing"):
        if key in entry and not isinstance(entry.get(key), bool):
            problems.append(
                f"{where}: {key} must be a boolean, got {entry.get(key)!r}"
            )
    return problems


def validate_serve_load(data: object) -> List[str]:
    """Problems with a ``BENCH_serve_load.json`` payload."""
    problems = _check_serve_entry(data, "top-level")
    if not isinstance(data, dict):
        return problems
    variants = data.get("variants")
    if not isinstance(variants, dict):
        problems.append("missing or non-object 'variants' mapping")
        return problems
    for name in SERVE_REQUIRED_VARIANTS:
        if name not in variants:
            problems.append(f"variants: missing required entry {name!r}")
        else:
            problems.extend(
                _check_serve_entry(variants[name], f"variants[{name!r}]")
            )
    arena = variants.get("state_arena")
    if isinstance(arena, dict) and arena.get("state_arena") is not True:
        problems.append("variants['state_arena']: entry must have state_arena=true")
    fallback = variants.get("gather_scatter")
    if isinstance(fallback, dict) and fallback.get("state_arena") is not False:
        problems.append(
            "variants['gather_scatter']: entry must have state_arena=false"
        )
    traced = variants.get("tracing_on")
    if isinstance(traced, dict) and traced.get("tracing") is not True:
        problems.append("variants['tracing_on']: entry must have tracing=true")
    untraced = variants.get("tracing_off")
    if isinstance(untraced, dict) and untraced.get("tracing") is not False:
        problems.append(
            "variants['tracing_off']: entry must have tracing=false"
        )
    for name, backend in (
        ("backend_reference", "reference"),
        ("backend_tuned", "tuned"),
        ("backend_torch", "torch"),  # optional; checked only when present
    ):
        entry = variants.get(name)
        if isinstance(entry, dict) and entry.get("backend") != backend:
            problems.append(
                f"variants[{name!r}]: entry must have backend={backend!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# BENCH_shard_scaling.json
# ---------------------------------------------------------------------------

#: Keys of every shard-scaling entry (top level and each variant); also
#: the exact field list of ``ShardScalingResult`` — its ``to_json``
#: iterates this tuple.
SHARD_ENTRY_KEYS = (
    "shards",
    "concurrent_sessions",
    "steps_per_session",
    "max_batch",
    "requests_per_sec",
    "speedup_vs_one_shard",
    "session_server_requests_per_sec",
    "sharded_max_abs_diff",
    "sessions_migrated",
    "parallel",
    "placement",
    "dtype",
    "memory_size",
)

#: The scaling curve the artifact must carry: 1/2/4-shard clusters over
#: the identical workload (the 1-shard point doubles as the
#: no-regression bound against the single ``SessionServer``).
SHARD_REQUIRED_VARIANTS = ("shards_1", "shards_2", "shards_4")

_SHARD_POSITIVE = (
    "shards",
    "concurrent_sessions",
    "steps_per_session",
    "max_batch",
    "requests_per_sec",
    "speedup_vs_one_shard",
    "session_server_requests_per_sec",
)


def _check_shard_entry(entry: object, where: str) -> List[str]:
    problems = _check_entry(entry, where, SHARD_ENTRY_KEYS, _SHARD_POSITIVE)
    if not isinstance(entry, dict):
        return problems
    diff = entry.get("sharded_max_abs_diff")
    if "sharded_max_abs_diff" in entry and (
        not isinstance(diff, (int, float)) or diff < 0
    ):
        problems.append(
            f"{where}: sharded_max_abs_diff must be a non-negative number, "
            f"got {diff!r}"
        )
    migrated = entry.get("sessions_migrated")
    if "sessions_migrated" in entry and (
        not isinstance(migrated, int) or migrated < 0
    ):
        problems.append(
            f"{where}: sessions_migrated must be a non-negative integer, "
            f"got {migrated!r}"
        )
    if "parallel" in entry and not isinstance(entry.get("parallel"), bool):
        problems.append(
            f"{where}: parallel must be a boolean, got {entry.get('parallel')!r}"
        )
    if "placement" in entry and not isinstance(entry.get("placement"), str):
        problems.append(
            f"{where}: placement must be a string, got {entry.get('placement')!r}"
        )
    return problems


def validate_shard_scaling(data: object) -> List[str]:
    """Problems with a ``BENCH_shard_scaling.json`` payload."""
    problems = _check_shard_entry(data, "top-level")
    if not isinstance(data, dict):
        return problems
    variants = data.get("variants")
    if not isinstance(variants, dict):
        problems.append("missing or non-object 'variants' mapping")
        return problems
    for name in SHARD_REQUIRED_VARIANTS:
        if name not in variants:
            problems.append(f"variants: missing required entry {name!r}")
            continue
        problems.extend(_check_shard_entry(variants[name], f"variants[{name!r}]"))
        expected = int(name.rsplit("_", 1)[1])
        entry = variants[name]
        if isinstance(entry, dict) and entry.get("shards") != expected:
            problems.append(
                f"variants[{name!r}]: entry must have shards={expected}"
            )
    one = variants.get("shards_1")
    if isinstance(one, dict) and isinstance(
        one.get("speedup_vs_one_shard"), (int, float)
    ) and abs(one["speedup_vs_one_shard"] - 1.0) > 1e-9:
        problems.append(
            "variants['shards_1']: speedup_vs_one_shard must be 1.0 "
            "(it is the reference point)"
        )
    return problems


# ---------------------------------------------------------------------------
# BENCH_proc_serve.json
# ---------------------------------------------------------------------------

#: Keys of every process-serving entry (top level and each variant); also
#: the exact field list of ``ProcServeResult`` — its ``to_json`` iterates
#: this tuple.
PROC_ENTRY_KEYS = (
    "mode",
    "workers",
    "concurrent_sessions",
    "total_requests",
    "max_batch",
    "requests_per_sec",
    "speedup_vs_threads",
    "max_abs_diff_vs_solo",
    "requests_failed",
    "worker_restarts",
    "sessions_recovered",
    "checkpoints_taken",
    "checkpoint_interval",
    "p95_wait_ticks",
    "p99_wait_ticks",
    "dtype",
    "memory_size",
)

#: The topology comparison the artifact must carry, all on the identical
#: 64-session Zipf mix: thread-sharded cluster, process cluster, and the
#: process cluster under rolling SIGKILL restarts (the crash-recovery
#: cost, measured rather than asserted).
PROC_REQUIRED_VARIANTS = ("threads", "procs", "procs_restart")

#: Legal ``mode`` value per required variant name.
PROC_VARIANT_MODES = {
    "threads": "threads",
    "procs": "procs",
    "procs_restart": "procs_restart",
}

_PROC_POSITIVE = (
    "workers",
    "concurrent_sessions",
    "total_requests",
    "max_batch",
    "requests_per_sec",
    "speedup_vs_threads",
)


def _check_proc_entry(entry: object, where: str) -> List[str]:
    problems = _check_entry(entry, where, PROC_ENTRY_KEYS, _PROC_POSITIVE)
    if not isinstance(entry, dict):
        return problems
    mode = entry.get("mode")
    if "mode" in entry and mode not in PROC_VARIANT_MODES:
        problems.append(
            f"{where}: mode must be one of "
            f"{tuple(PROC_VARIANT_MODES)}, got {mode!r}"
        )
    diff = entry.get("max_abs_diff_vs_solo")
    if "max_abs_diff_vs_solo" in entry and (
        not isinstance(diff, (int, float)) or diff < 0
    ):
        problems.append(
            f"{where}: max_abs_diff_vs_solo must be a non-negative number, "
            f"got {diff!r}"
        )
    for key in (
        "requests_failed",
        "worker_restarts",
        "sessions_recovered",
        "checkpoints_taken",
    ):
        value = entry.get(key)
        if key in entry and (not isinstance(value, int) or value < 0):
            problems.append(
                f"{where}: {key} must be a non-negative integer, got {value!r}"
            )
    return problems


def validate_proc_serve(data: object) -> List[str]:
    """Problems with a ``BENCH_proc_serve.json`` payload."""
    problems = _check_proc_entry(data, "top-level")
    if not isinstance(data, dict):
        return problems
    variants = data.get("variants")
    if not isinstance(variants, dict):
        problems.append("missing or non-object 'variants' mapping")
        return problems
    for name in PROC_REQUIRED_VARIANTS:
        if name not in variants:
            problems.append(f"variants: missing required entry {name!r}")
            continue
        problems.extend(_check_proc_entry(variants[name], f"variants[{name!r}]"))
        entry = variants[name]
        if isinstance(entry, dict) and entry.get("mode") != PROC_VARIANT_MODES[name]:
            problems.append(
                f"variants[{name!r}]: entry must have "
                f"mode={PROC_VARIANT_MODES[name]!r}"
            )
    restart = variants.get("procs_restart")
    if isinstance(restart, dict):
        restarts = restart.get("worker_restarts")
        if isinstance(restarts, int) and restarts < 1:
            problems.append(
                "variants['procs_restart']: worker_restarts must be >= 1 "
                "(the rolling-restart drill must actually kill workers)"
            )
    threads = variants.get("threads")
    if isinstance(threads, dict):
        restarts = threads.get("worker_restarts")
        if isinstance(restarts, int) and restarts != 0:
            problems.append(
                "variants['threads']: worker_restarts must be 0 "
                "(threads have no worker processes to restart)"
            )
    return problems


# ---------------------------------------------------------------------------
# BENCH_sparse_access.json
# ---------------------------------------------------------------------------

#: Keys of every sparse-access entry (top level and each variant); also
#: the exact field list of ``SparseAccessResult`` — its ``to_json``
#: iterates this tuple.  Each entry is one (memory_size, access policy)
#: point: masked full-occupancy stepping throughput A/B'd against the
#: dense policy at the same N, plus the explicit accuracy deltas of a
#: same-seed sparse-vs-dense float64 trajectory.
SPARSE_ENTRY_KEYS = (
    "memory_size",
    "access_policy",
    "access_top_k",
    "batch_size",
    "steps",
    "steps_per_sec",
    "dense_steps_per_sec",
    "speedup_vs_dense",
    "max_abs_delta_vs_dense",
    "mean_abs_delta_vs_dense",
    "dtype",
)

#: Extra keys of a lane variant (``<name>_r<R>w<W>_<backend>``): the
#: engine shape and kernel backend the lane ran, which the plain
#: entries leave at the runner's defaults (R=1, W=16, the config's
#: backend).
SPARSE_LANE_KEYS = ("num_reads", "word_size", "backend")

#: The memory sizes the dense/sparse A/B must cover.
SPARSE_MEMORY_SIZES = (384, 1024, 2048)

#: Dense reference variants the artifact must carry; additionally, every
#: covered N needs at least one ``sparse_k<K>_n<N>`` variant (wildcard K:
#: the chosen top-K may evolve without a schema change).
SPARSE_REQUIRED_VARIANTS = tuple(
    f"dense_n{n}" for n in SPARSE_MEMORY_SIZES
)

_SPARSE_POSITIVE = (
    "memory_size",
    "batch_size",
    "steps",
    "steps_per_sec",
    "dense_steps_per_sec",
    "speedup_vs_dense",
)

_SPARSE_VARIANT_RE = re.compile(
    r"^(dense|sparse_k(\d+))_n(\d+)(?:_r(\d+)w(\d+)_([a-z]+))?$"
)


def _check_sparse_entry(entry: object, where: str) -> List[str]:
    problems = _check_entry(entry, where, SPARSE_ENTRY_KEYS, _SPARSE_POSITIVE)
    if not isinstance(entry, dict):
        return problems
    policy = entry.get("access_policy")
    if "access_policy" in entry and policy not in ("dense", "sparse"):
        problems.append(
            f"{where}: access_policy must be 'dense' or 'sparse', "
            f"got {policy!r}"
        )
    top_k = entry.get("access_top_k")
    if "access_top_k" in entry and (
        not isinstance(top_k, int) or top_k < 0
    ):
        problems.append(
            f"{where}: access_top_k must be a non-negative integer, "
            f"got {top_k!r}"
        )
    if policy == "sparse" and isinstance(top_k, int) and top_k < 1:
        problems.append(
            f"{where}: sparse entries must have access_top_k >= 1"
        )
    if policy == "dense" and top_k not in (0, None):
        problems.append(
            f"{where}: dense entries must have access_top_k=0"
        )
    for key in ("max_abs_delta_vs_dense", "mean_abs_delta_vs_dense"):
        value = entry.get(key)
        if key in entry and (
            not isinstance(value, (int, float)) or value < 0
        ):
            problems.append(
                f"{where}: {key} must be a non-negative number, got {value!r}"
            )
    return problems


def validate_sparse_access(data: object) -> List[str]:
    """Problems with a ``BENCH_sparse_access.json`` payload."""
    problems = _check_sparse_entry(data, "top-level")
    if not isinstance(data, dict):
        return problems
    variants = data.get("variants")
    if not isinstance(variants, dict):
        problems.append("missing or non-object 'variants' mapping")
        return problems
    sparse_sizes = set()
    for name, entry in variants.items():
        match = _SPARSE_VARIANT_RE.match(name)
        if match is None:
            problems.append(
                f"variants[{name!r}]: name must look like 'dense_n<N>' "
                f"or 'sparse_k<K>_n<N>', optionally suffixed "
                f"'_r<R>w<W>_<backend>'"
            )
            continue
        problems.extend(_check_sparse_entry(entry, f"variants[{name!r}]"))
        if not isinstance(entry, dict):
            continue
        n = int(match.group(3))
        if entry.get("memory_size") != n:
            problems.append(
                f"variants[{name!r}]: entry must have memory_size={n}"
            )
        if match.group(4) is not None:  # lane suffix
            lane = dict(zip(SPARSE_LANE_KEYS, (
                int(match.group(4)), int(match.group(5)), match.group(6),
            )))
            for key, want in lane.items():
                if entry.get(key) != want:
                    problems.append(
                        f"variants[{name!r}]: entry must have {key}={want!r}"
                    )
        if match.group(2) is not None:  # sparse_k<K>_n<N>
            k = int(match.group(2))
            if match.group(4) is None:  # lanes do not cover the sweep
                sparse_sizes.add(n)
            if entry.get("access_policy") != "sparse":
                problems.append(
                    f"variants[{name!r}]: entry must have access_policy='sparse'"
                )
            if entry.get("access_top_k") != k:
                problems.append(
                    f"variants[{name!r}]: entry must have access_top_k={k}"
                )
        else:
            if entry.get("access_policy") != "dense":
                problems.append(
                    f"variants[{name!r}]: entry must have access_policy='dense'"
                )
            speedup = entry.get("speedup_vs_dense")
            if isinstance(speedup, (int, float)) and abs(speedup - 1.0) > 1e-9:
                problems.append(
                    f"variants[{name!r}]: speedup_vs_dense must be 1.0 "
                    f"(it is the reference point)"
                )
    for name in SPARSE_REQUIRED_VARIANTS:
        if name not in variants:
            problems.append(f"variants: missing required entry {name!r}")
    for n in SPARSE_MEMORY_SIZES:
        if n not in sparse_sizes:
            problems.append(
                f"variants: missing a 'sparse_k*_n{n}' entry "
                f"(every covered N needs a sparse point)"
            )
    return problems


# ---------------------------------------------------------------------------
# Artifact registry
# ---------------------------------------------------------------------------

#: Repo-root artifact filename -> validator.  The CLI and CI dispatch
#: through this mapping, so registering a new ``BENCH_*.json`` here is
#: the one step that makes it validatable everywhere.
ARTIFACT_VALIDATORS: Dict[str, Callable[[object], List[str]]] = {
    "BENCH_batched_throughput.json": validate_trajectory,
    "BENCH_serve_load.json": validate_serve_load,
    "BENCH_shard_scaling.json": validate_shard_scaling,
    "BENCH_proc_serve.json": validate_proc_serve,
    "BENCH_sparse_access.json": validate_sparse_access,
}


def validate_artifact(filename: str, data: object) -> List[str]:
    """Validate a payload against the schema registered for ``filename``."""
    validator = ARTIFACT_VALIDATORS.get(filename)
    if validator is None:
        return [
            f"{filename}: no schema registered "
            f"(known: {sorted(ARTIFACT_VALIDATORS)})"
        ]
    return validator(data)


__all__ = [
    "merge_artifact",
    "ENTRY_KEYS",
    "REQUIRED_VARIANTS",
    "SERVE_ENTRY_KEYS",
    "SERVE_REQUIRED_VARIANTS",
    "SHARD_ENTRY_KEYS",
    "SHARD_REQUIRED_VARIANTS",
    "PROC_ENTRY_KEYS",
    "PROC_REQUIRED_VARIANTS",
    "SPARSE_ENTRY_KEYS",
    "SPARSE_LANE_KEYS",
    "SPARSE_MEMORY_SIZES",
    "SPARSE_REQUIRED_VARIANTS",
    "ARTIFACT_VALIDATORS",
    "validate_trajectory",
    "validate_serve_load",
    "validate_shard_scaling",
    "validate_proc_serve",
    "validate_sparse_access",
    "validate_artifact",
]
