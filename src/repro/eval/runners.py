"""Experiment registry, result container, and throughput measurement."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.bench_schema import (
    ENTRY_KEYS,
    SPARSE_ENTRY_KEYS,
    SPARSE_LANE_KEYS,
)
from repro.utils.formatting import format_table


@dataclass
class ExperimentResult:
    """One reproduced table/figure.

    ``headers``/``rows`` hold the tabular data; ``notes`` records
    paper-vs-measured commentary that EXPERIMENTS.md consumes.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        text = format_table(
            self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}"
        )
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text


#: Registry of experiment runners keyed by experiment id.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator registering a runner under ``experiment_id``."""

    def wrap(fn):
        EXPERIMENTS[experiment_id] = fn
        return fn

    return wrap


# ---------------------------------------------------------------------------
# Batched-engine throughput
# ---------------------------------------------------------------------------


@dataclass
class BatchedThroughput:
    """Measured batched-vs-sequential engine throughput.

    ``steps_per_sec`` counts *sequence timesteps* processed per wall
    second: a batched run advancing ``B`` sequences for ``T`` steps
    performs ``B * T`` steps, the same work as ``B`` sequential
    :meth:`~repro.core.engine.TiledEngine.run` calls.  The trailing
    fields record the engine configuration the measurement ran under so
    trajectory entries are self-describing.
    """

    batch_size: int
    seq_len: int
    steps_per_sec: float  # batched path
    sequential_steps_per_sec: float
    speedup_vs_seq: float
    batch1_max_abs_diff: float  # run_batch(B=1) vs run, same inputs
    dtype: str = "float64"
    memory_size: int = 0
    two_stage_sort: bool = False
    skim_fraction: float = 0.0
    #: Kernel backend the measurement ran under (see
    #: :mod:`repro.core.backend`) — what the backend A/B variants toggle.
    backend: str = "reference"

    def to_json(self) -> Dict[str, object]:
        """One ``BENCH_batched_throughput.json`` trajectory entry.

        Generated from :data:`repro.eval.bench_schema.ENTRY_KEYS` so the
        writer and the validator share one key list by construction.
        """
        return {key: getattr(self, key) for key in ENTRY_KEYS}


def measure_batched_throughput(
    config=None,
    batch_size: int = 16,
    seq_len: int = 16,
    repeats: int = 3,
    rng: int = 0,
) -> BatchedThroughput:
    """Time ``TiledEngine.run_batch`` against sequential ``run`` calls.

    Both paths process the identical ``(T, B, input)`` workload; the best
    (minimum) wall time over ``repeats`` rounds is used for each.  Also
    measures the batch-of-1 equivalence gap as evidence the batched hot
    path computes the same function.

    The engine's :class:`~repro.core.engine.TrafficLog` is cleared at
    every phase boundary (after warm-up, between timing repeats, and
    after the equivalence check), so timing repeats never pay for an
    ever-growing event list and the engine is handed back with an empty
    log.
    """
    from repro.core.config import HiMAConfig
    from repro.core.engine import TiledEngine

    if config is None:
        # Small enough that per-step engine overhead (the thing batching
        # amortizes) dominates and the measured ratio stays stable on
        # loaded machines; larger configs shift toward memory bandwidth.
        config = HiMAConfig(
            memory_size=32, word_size=16, num_tiles=4, hidden_size=32,
            two_stage_sort=False,
        )
    engine = TiledEngine(config, rng=rng)
    gen = np.random.default_rng(rng)
    inputs = gen.standard_normal(
        (seq_len, batch_size, engine.reference.config.input_size)
    ).astype(config.np_dtype)

    # Warm up both paths (BLAS thread pools, allocator).
    engine.run_batch(inputs[:2])
    engine.run(inputs[:2, 0])
    engine.traffic.clear()

    batched_time = float("inf")
    sequential_time = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        engine.run_batch(inputs)
        batched_time = min(batched_time, time.perf_counter() - start)
        engine.traffic.clear()

        start = time.perf_counter()
        for i in range(batch_size):
            engine.run(inputs[:, i])
        sequential_time = min(sequential_time, time.perf_counter() - start)
        engine.traffic.clear()

    total_steps = seq_len * batch_size
    batch1 = engine.run_batch(inputs[:, :1])
    single = engine.run(inputs[:, 0])
    diff = float(np.max(np.abs(batch1[:, 0] - single)))
    engine.traffic.clear()

    return BatchedThroughput(
        batch_size=batch_size,
        seq_len=seq_len,
        steps_per_sec=total_steps / batched_time,
        sequential_steps_per_sec=total_steps / sequential_time,
        speedup_vs_seq=sequential_time / batched_time,
        batch1_max_abs_diff=diff,
        dtype=config.dtype,
        memory_size=config.memory_size,
        two_stage_sort=config.two_stage_sort,
        skim_fraction=config.skim_fraction,
        backend=config.backend,
    )


def measure_backend_ab(
    config=None,
    backends: Sequence[str] = ("reference", "tuned"),
    batch_size: int = 16,
    seq_len: int = 8,
    repeats: int = 9,
    rng: int = 0,
    variants: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, BatchedThroughput]:
    """Interleaved A/B of kernel-backend variants on one batched workload.

    Each contestant is a *variant*: a label mapped to the
    ``config.with_features(...)`` overrides that define it.  By default
    the variants are one plain entry per name in ``backends``
    (``{name: {"backend": name}}``), which keeps the classic
    backend-vs-backend A/B; pass ``variants`` explicitly to race other
    feature axes on the same workload — e.g. both backends with and
    without the two-stage sorter::

        measure_backend_ab(variants={
            "reference": {"backend": "reference"},
            "tuned": {"backend": "tuned"},
            "tuned_sorted": {"backend": "tuned", "two_stage_sort": True},
        })

    One engine per variant, all fed the identical ``(T, B, input)``
    inputs.  Timing rounds are interleaved and the visit order is
    re-shuffled every round from a seeded generator (the ``variants``
    convention, hardened): timing one variant to completion and then
    the next — or visiting them in any *fixed* alternation — lets
    allocator/cache warm-up and background-load drift masquerade as a
    variant difference, which at the >=1.25x floor this A/B gates
    would be a real hazard.  Each variant keeps its best (minimum)
    round, the standard noise-robust estimator on a shared machine.

    The sequential baseline shared by every entry runs the *first*
    variant (the control) on a **separate engine instance**, so
    ``speedup_vs_seq`` ratios are comparable across entries without the
    baseline's unbatched rounds re-warming the control contestant's
    buffers between timed rounds (which would systematically favour the
    control in the A/B itself).  Each variant's ``batch1_max_abs_diff``
    compares its batch-of-1 run against that baseline engine's unbatched
    run — expected exactly 0.0 for ``reference``, and bounded by the
    dtype's ``VERIFY_TOLERANCES`` entry for ``tuned`` (single-rounding
    BLAS rank-1 linkage accumulation) and ``torch``.
    """
    from repro.core.config import HiMAConfig
    from repro.core.engine import TiledEngine

    if config is None:
        config = HiMAConfig(
            memory_size=256, word_size=32, num_reads=2, num_tiles=8,
            hidden_size=64, two_stage_sort=False,
        )
    if variants is None:
        variants = {name: {"backend": name} for name in backends}
    if not variants:
        raise ValueError("measure_backend_ab needs at least one variant")
    configs = {
        name: config.with_features(**features)
        for name, features in variants.items()
    }
    engines = {
        name: TiledEngine(configs[name], rng=rng) for name in variants
    }
    control = next(iter(variants))
    # The sequential baseline gets its own engine (control variant) so
    # its unbatched rounds never touch — and never re-warm — the
    # control contestant's scratch between timed batched rounds.
    seq_engine = TiledEngine(configs[control], rng=rng)
    gen = np.random.default_rng(rng)
    inputs = gen.standard_normal(
        (seq_len, batch_size, seq_engine.reference.config.input_size)
    ).astype(config.np_dtype)

    # Full-workload warm-up: steady-state scratch, allocator arenas and
    # caches all settle before any timed round.
    for engine in engines.values():
        engine.run_batch(inputs)
        engine.traffic.clear()
    seq_engine.run(inputs[:2, 0])
    seq_engine.traffic.clear()

    best = {name: float("inf") for name in variants}
    sequential_time = float("inf")
    names = list(variants) + ["__sequential__"]
    order_rng = np.random.default_rng(rng + 0x5EED)
    for round_index in range(max(1, repeats)):
        order = list(names)
        order_rng.shuffle(order)
        for name in order:
            start = time.perf_counter()
            if name == "__sequential__":
                for i in range(batch_size):
                    seq_engine.run(inputs[:, i])
                sequential_time = min(
                    sequential_time, time.perf_counter() - start
                )
                seq_engine.traffic.clear()
            else:
                engines[name].run_batch(inputs)
                best[name] = min(best[name], time.perf_counter() - start)
                engines[name].traffic.clear()

    single = seq_engine.run(inputs[:, 0])
    seq_engine.traffic.clear()
    total_steps = seq_len * batch_size
    results: Dict[str, BatchedThroughput] = {}
    for name in variants:
        cfg = configs[name]
        batch1 = engines[name].run_batch(inputs[:, :1])
        engines[name].traffic.clear()
        results[name] = BatchedThroughput(
            batch_size=batch_size,
            seq_len=seq_len,
            steps_per_sec=total_steps / best[name],
            sequential_steps_per_sec=total_steps / sequential_time,
            speedup_vs_seq=sequential_time / best[name],
            batch1_max_abs_diff=float(np.max(np.abs(batch1[:, 0] - single))),
            dtype=cfg.dtype,
            memory_size=cfg.memory_size,
            two_stage_sort=cfg.two_stage_sort,
            skim_fraction=cfg.skim_fraction,
            backend=cfg.backend,
        )
    return results


# ---------------------------------------------------------------------------
# Sparse-access A/B (dense vs top-K content addressing)
# ---------------------------------------------------------------------------


@dataclass
class SparseAccessResult:
    """One dense-vs-sparse access-policy measurement at a fixed ``N``.

    ``steps_per_sec`` counts masked full-occupancy engine steps per wall
    second for *this* variant; ``dense_steps_per_sec`` is the dense
    baseline measured at the same ``memory_size`` so
    ``speedup_vs_dense`` is self-describing (1.0 for the dense reference
    entry itself).  The ``*_delta_vs_dense`` fields report the output
    divergence of an unbatched same-seed, same-input trajectory stepped
    under this policy against the dense float64 trajectory — the
    accuracy cost of truncating content addressing to K slots (0.0 for
    the dense entry).  A lane entry also records its engine shape and
    backend (``num_reads``/``word_size``/``backend``, ``None`` on plain
    entries).
    """

    memory_size: int
    access_policy: str
    access_top_k: int
    batch_size: int
    steps: int
    steps_per_sec: float
    dense_steps_per_sec: float
    speedup_vs_dense: float
    max_abs_delta_vs_dense: float
    mean_abs_delta_vs_dense: float
    dtype: str = "float64"
    num_reads: Optional[int] = None
    word_size: Optional[int] = None
    backend: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        """One ``BENCH_sparse_access.json`` variant entry.

        Generated from
        :data:`repro.eval.bench_schema.SPARSE_ENTRY_KEYS` (plus the
        ``SPARSE_LANE_KEYS`` a lane entry sets) so the writer and the
        validator share one key list by construction.
        """
        entry = {key: getattr(self, key) for key in SPARSE_ENTRY_KEYS}
        for key in SPARSE_LANE_KEYS:
            if getattr(self, key) is not None:
                entry[key] = getattr(self, key)
        return entry


def measure_sparse_access(
    memory_size: int,
    top_ks: Sequence[int] = (64,),
    batch_size: int = 4,
    steps: int = 4,
    repeats: int = 2,
    accuracy_steps: int = 12,
    rng: int = 0,
    num_tiles: int = 8,
    backend: Optional[str] = None,
    lane: Optional[Tuple[int, int]] = None,
) -> Dict[str, "SparseAccessResult"]:
    """A/B dense vs sparse top-K access at one memory size.

    Returns a variants map — ``dense_n{N}`` plus one ``sparse_k{K}_n{N}``
    per requested K — matching the ``BENCH_sparse_access.json`` naming
    scheme, so callers can merge the result straight into the artifact.
    ``backend`` selects the kernel backend both sides run under (the
    dense baseline and every sparse K), so a tuned-backend lane measures
    the same dense-vs-sparse ratio with the fused kernels engaged; the
    default (``None``) keeps the config's own default, which honours
    ``REPRO_BACKEND`` — how the CI sparse-tuned bench lane runs.
    ``lane=(num_reads, word_size)`` measures at that engine shape
    instead of R=1, W=16: names gain an ``_r{R}w{W}_{backend}`` suffix
    and entries record the shape and the backend that ran.

    Timing exercises the serving hot path: masked stepping at full
    occupancy (``TiledEngine.step(active=arange(B))``), warm-up first,
    best-of-``repeats`` wall time, with the cumulative
    :class:`~repro.core.engine.TrafficLog` cleared at every phase
    boundary.  Accuracy deltas come from a separate unbatched
    ``accuracy_steps``-long trajectory: both engines are seeded
    identically (same controller/interface weights) and fed the same
    inputs, so any divergence is attributable to the access policy
    alone.
    """
    from repro.core.config import HiMAConfig
    from repro.core.engine import TiledEngine

    backend_kwargs = {} if backend is None else {"backend": backend}
    num_reads, word_size = (1, 16) if lane is None else lane

    def make_config(policy: str, top_k: int) -> "HiMAConfig":
        return HiMAConfig(
            memory_size=memory_size, word_size=word_size,
            num_reads=num_reads, num_tiles=num_tiles, hidden_size=32,
            two_stage_sort=False, access_policy=policy,
            access_top_k=top_k, **backend_kwargs,
        )

    def time_masked(config) -> float:
        """Best-of-repeats full-occupancy masked steps per second."""
        engine = TiledEngine(config, rng=rng)
        gen = np.random.default_rng(rng)
        inputs = gen.standard_normal(
            (steps, batch_size, engine.reference.config.input_size)
        ).astype(config.np_dtype)
        idx = np.arange(batch_size)
        state = engine.initial_state(batch_size=batch_size)
        for t in range(min(2, steps)):  # warm-up: allocator + BLAS pools
            _, state = engine.step(inputs[t], state, active=idx)
        engine.traffic.clear()
        best = float("inf")
        for _ in range(max(1, repeats)):
            state = engine.initial_state(batch_size=batch_size)
            start = time.perf_counter()
            for t in range(steps):
                _, state = engine.step(inputs[t], state, active=idx)
            best = min(best, time.perf_counter() - start)
            engine.traffic.clear()
        return (steps * batch_size) / best

    def solo_trajectory(config) -> np.ndarray:
        engine = TiledEngine(config, rng=rng)
        gen = np.random.default_rng(rng + 1)
        inputs = gen.standard_normal(
            (accuracy_steps, engine.reference.config.input_size)
        ).astype(config.np_dtype)
        out = engine.run(inputs)
        engine.traffic.clear()
        return out

    dense_config = make_config("dense", 0)
    dense_sps = time_masked(dense_config)
    dense_out = solo_trajectory(dense_config)

    suffix, lane_fields = "", {}
    if lane is not None:
        suffix = f"_r{num_reads}w{word_size}_{dense_config.backend}"
        lane_fields = dict(
            num_reads=num_reads, word_size=word_size,
            backend=dense_config.backend,
        )
    results: Dict[str, SparseAccessResult] = {}
    results[f"dense_n{memory_size}{suffix}"] = SparseAccessResult(
        memory_size=memory_size,
        access_policy="dense",
        access_top_k=0,
        batch_size=batch_size,
        steps=steps,
        steps_per_sec=dense_sps,
        dense_steps_per_sec=dense_sps,
        speedup_vs_dense=1.0,
        max_abs_delta_vs_dense=0.0,
        mean_abs_delta_vs_dense=0.0,
        dtype=dense_config.dtype,
        **lane_fields,
    )
    for top_k in top_ks:
        sparse_config = make_config("sparse", int(top_k))
        sparse_sps = time_masked(sparse_config)
        sparse_out = solo_trajectory(sparse_config)
        delta = np.abs(sparse_out - dense_out)
        results[f"sparse_k{int(top_k)}_n{memory_size}{suffix}"] = SparseAccessResult(
            memory_size=memory_size,
            access_policy="sparse",
            access_top_k=int(top_k),
            batch_size=batch_size,
            steps=steps,
            steps_per_sec=sparse_sps,
            dense_steps_per_sec=dense_sps,
            speedup_vs_dense=sparse_sps / dense_sps,
            max_abs_delta_vs_dense=float(np.max(delta)),
            mean_abs_delta_vs_dense=float(np.mean(delta)),
            dtype=sparse_config.dtype,
            **lane_fields,
        )
    return results


@register("batched_throughput")
def batched_throughput_experiment(
    config=None, batch_sizes: Sequence[int] = (4, 16), seq_len: int = 16
) -> ExperimentResult:
    """Batched-engine scaling table (not a paper figure; repo capability)."""
    rows = []
    notes = []
    for batch in batch_sizes:
        m = measure_batched_throughput(
            config, batch_size=batch, seq_len=seq_len
        )
        rows.append([
            batch,
            f"{m.steps_per_sec:,.0f}",
            f"{m.sequential_steps_per_sec:,.0f}",
            f"{m.speedup_vs_seq:.2f}x",
        ])
        notes.append(
            f"B={batch}: batch-of-1 max abs diff {m.batch1_max_abs_diff:.2e}"
        )
    return ExperimentResult(
        experiment_id="batched_throughput",
        title="Batched engine throughput (run_batch vs sequential run)",
        headers=["batch", "batched steps/s", "sequential steps/s", "speedup"],
        rows=rows,
        notes=notes,
    )


__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "register",
    "BatchedThroughput",
    "measure_batched_throughput",
    "measure_backend_ab",
    "SparseAccessResult",
    "measure_sparse_access",
]
