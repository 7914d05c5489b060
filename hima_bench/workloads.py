"""The benchmark's three closed-loop workloads.

Each workload builds its system only through public calls
(``TiledEngine``, ``SessionServer``, ``ProcCluster``, the script
generators, ``PhaseTimer``, ``Tracer``, ``ServerMetrics``), and runs in
four stages:

1. set-up timing (untraced runs): the system is built and stepped
   once, several times;
2. an untraced timed window, which gives every end-to-end metric;
3. with ``trace=True``, a shorter traced window, which gives the
   per-layer metrics;
4. the correctness gate, outside both windows.

See ``README.md`` in this directory for why each workload exists and
which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import HiMAConfig, TiledEngine
from repro.obs import PhaseTimer, Tracer
from repro.serve import (
    ProcCluster,
    SessionServer,
    generate_scripts,
    generate_zipf_scripts,
)

import spans

#: Every workload runs the tuned kernel backend at float64.
BACKEND = "tuned"
DTYPE = "float64"
#: Engine phases reported per layer (the tuned backend's label set).
PHASES = (
    "controller",
    "content_addressing",
    "sort_allocation",
    "erase_write_linkage",
    "read_phase",
    "output",
    "gather_scatter",
)
#: Served-vs-solo bar where serving is exact: dense access, and any
#: session served alone (the engine's batch-of-1 bitwise invariant,
#: ``tests/test_backends.py``).
SERVE_TOLERANCE = 1e-10
#: Served-vs-solo bar for batched top-K sparse serving with K < N, as
#: ``tests/test_sparse_access.py`` states it: batched and unbatched steps
#: differ by ~1e-16, which can flip a near-tie top-K slot, after which
#: the two paths drift apart by ~1e-7.  A real indexing bug shows at
#: O(0.1).
SPARSE_DRIFT_TOLERANCE = 1e-3
#: Warm-up before each window (caches, allocator, first-touch pages).
WARMUP_S = 1.0
#: The traced window's share of ``--seconds``: per-layer metrics need no
#: long window, and the span analysis and export take time of their own.
TRACED_SHARE = 0.25
#: Span ring size for the traced window; large enough that no span of a
#: traced window is dropped (checked: ``tracer.dropped`` must stay 0).
TRACE_CAPACITY = 1 << 20


def now() -> float:
    return time.perf_counter()


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (VmHWM) of a process in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Window:
    """What one measured window saw."""

    seconds: float = 0.0
    steps: int = 0
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.seconds


@dataclass
class Outcome:
    """One run's measurements, gate verdict and per-layer metrics."""

    end_to_end: Dict[str, float]
    latency: Dict[str, float]
    per_layer: Dict[str, float]
    gate: Dict[str, object]
    attempted: int
    failed: int
    #: The traced window's span collector (``None`` when untraced).
    tracer: Optional[Tracer] = None
    notes: List[str] = field(default_factory=list)


def untraced_seconds(seconds: float, trace: bool) -> float:
    """A traced run measures half of ``seconds`` untraced, for
    ``obs.tracing_overhead``, then ``TRACED_SHARE`` of it traced."""
    return seconds / 2 if trace else seconds


def time_setup(build_and_step: Callable[[], float], reps: int) -> float:
    """Median of ``reps`` set-ups after one discarded warm-up.

    ``build_and_step`` returns the seconds from the start of building the
    system to its first completed step (tear-down is not counted).  Each
    system is collected before the next is built: servers hold reference
    cycles, and uncollected ones would pile up in ``peak_rss_mb``.
    """
    samples = []
    for _ in range(reps + 1):
        samples.append(build_and_step())
        gc.collect()
    return statistics.median(samples[1:])


def noc_words(engine: TiledEngine, inputs: np.ndarray) -> Tuple[int, int]:
    """Modelled NoC words and inter-PT words per batched step of
    ``run_batch(inputs)`` — exact counts from the engine's TrafficLog."""
    engine.traffic.clear()
    engine.run_batch(inputs)
    steps = inputs.shape[0]
    total, inter = engine.traffic.total_words(), engine.traffic.inter_pt_words()
    engine.traffic.clear()
    if total % steps or inter % steps:
        raise RuntimeError("traffic is not a whole number of words per step")
    return total // steps, inter // steps


def phase_metrics(stats: Dict[str, Dict[str, float]], busy_s: float) -> Dict[str, float]:
    """``phase.<p>.{s,share,gbps}`` plus ``phase.attributed_share``.

    Shares are of engine busy time, so they add up to the attributed
    share.  GB/s divides the profiler's byte model by measured time: it
    is computed, not measured.
    """
    out: Dict[str, float] = {}
    for phase in PHASES:
        entry = stats.get(phase, {})
        seconds = float(entry.get("seconds", 0.0))
        nbytes = float(entry.get("bytes", 0))
        out[f"phase.{phase}.s"] = seconds
        out[f"phase.{phase}.share"] = seconds / busy_s if busy_s > 0 else 0.0
        out[f"phase.{phase}.gbps"] = nbytes / seconds / 1e9 if seconds > 0 else 0.0
    attributed = sum(float(e.get("seconds", 0.0)) for e in stats.values())
    out["phase.attributed_share"] = attributed / busy_s if busy_s > 0 else 0.0
    return out


def _check_trace(gate, tracer, per_layer, min_attributed: float) -> None:
    """Trace checks: no span dropped, and the phases' attributed time
    lies within engine busy time (at least ``min_attributed`` of it)."""
    share = per_layer["phase.attributed_share"]
    gate["spans_dropped"] = tracer.dropped
    gate["attributed_share"] = share
    gate["ok"] = bool(
        gate["ok"] and tracer.dropped == 0
        and min_attributed <= share <= 1.0 + 1e-9
    )


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    lat = np.asarray(latencies_s, dtype=float) * 1e3
    return {
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
        "samples": int(lat.size),
    }


# ---------------------------------------------------------------------------
# engine_dnc: offline run_batch on the HiMA-DNC prototype
# ---------------------------------------------------------------------------

ENGINE_LANES = 4
ENGINE_STEPS = 8
#: Distinct input batches cycled through the window; each repeats, and
#: the gate requires every repeat to match its first run bitwise.
ENGINE_POOL = 4
#: Seeded lanes per pool batch checked against the NumpyDNC oracle.
ENGINE_ORACLE_LANES = 2
ENGINE_SETUP_REPS = 15


def engine_config() -> HiMAConfig:
    return HiMAConfig.hima_dnc(backend=BACKEND, dtype=DTYPE)


def engine_inputs(seed: int, input_size: int) -> np.ndarray:
    """``(POOL, T, B, input_size)`` batches from the seeded script generator.

    Each lane is a stream of whole scripts laid end to end, cut into
    ``POOL`` batches of ``T`` steps.
    """
    rows = ENGINE_POOL * ENGINE_STEPS
    scripts = iter(generate_scripts(
        input_size, num_sessions=16 * ENGINE_LANES, mean_interarrival_ticks=0.0,
        rng=seed,
    ))
    lanes = []
    for _ in range(ENGINE_LANES):
        parts, have = [], 0
        while have < rows:
            inputs = next(scripts).inputs
            parts.append(inputs)
            have += inputs.shape[0]
        lanes.append(np.concatenate(parts)[:rows])
    stream = np.stack(lanes, axis=1)  # (rows, B, input_size)
    return stream.reshape(ENGINE_POOL, ENGINE_STEPS, ENGINE_LANES, input_size)


def check_engine(
    engine: TiledEngine,
    pool: np.ndarray,
    outputs: Sequence[Tuple[int, np.ndarray]],
    lanes: Sequence[int],
) -> Dict[str, object]:
    """Gate: oracle agreement on seeded lanes, bitwise-equal repeats."""
    first: Dict[int, np.ndarray] = {}
    repeats_equal = True
    finite = True
    for idx, y in outputs:
        finite = finite and bool(np.all(np.isfinite(y)))
        if idx in first:
            repeats_equal = repeats_equal and np.array_equal(first[idx], y)
        else:
            first[idx] = y
    tol = TiledEngine.VERIFY_TOLERANCES[engine.config.dtype]
    oracle_err = 0.0
    for idx, y in sorted(first.items()):
        for lane in lanes:
            ref = engine.reference.run(pool[idx][:, lane])
            oracle_err = max(oracle_err, float(np.max(np.abs(y[:, lane] - ref))))
    return {
        "ok": bool(finite and repeats_equal and first and oracle_err <= tol),
        "oracle_max_abs_err": oracle_err,
        "oracle_tolerance": tol,
        "repeats_bitwise_equal": repeats_equal,
        "repeats_compared": len(outputs) - len(first),
        "batches_checked": len(first),
    }


def _engine_window(engine, pool, seconds, tracer=None, root=None):
    """Cycle ``run_batch`` over the pool for ``seconds``; returns the
    window and every ``(pool index, output)``."""
    window = Window()
    outputs: List[Tuple[int, np.ndarray]] = []
    lane_steps = ENGINE_STEPS * ENGINE_LANES
    t0 = now()
    deadline = t0 + seconds
    calls = 0
    while True:
        idx = calls % ENGINE_POOL
        window.attempted += 1
        ts = now()
        if tracer is not None:
            span = tracer.start("bench.engine.run_batch", parent=root)
            y = engine.run_batch(pool[idx])
            tracer.end(span)
        else:
            y = engine.run_batch(pool[idx])
        te = now()
        engine.traffic.clear()  # callers own the log's phase boundaries
        outputs.append((idx, y))
        window.latencies_s.append((te - ts) / ENGINE_STEPS)
        window.steps += lane_steps
        calls += 1
        if te >= deadline:
            break
    window.seconds = te - t0
    return window, outputs


def run_engine_dnc(seed: int, seconds: float, trace: bool) -> Outcome:
    config = engine_config()
    pool = engine_inputs(seed, config.word_size)
    notes = [
        "step latency: wall time of one run_batch call divided by its "
        f"{ENGINE_STEPS} timesteps (B={ENGINE_LANES} lanes each)",
    ]

    def build_and_step():
        t0 = now()
        TiledEngine(config, rng=seed).run_batch(pool[0][:1])
        return now() - t0

    end_to_end: Dict[str, float] = {}
    if not trace:
        end_to_end["setup_s"] = time_setup(build_and_step, ENGINE_SETUP_REPS)

    engine = TiledEngine(config, rng=seed)
    _engine_window(engine, pool, WARMUP_S)
    window, outputs = _engine_window(engine, pool, untraced_seconds(seconds, trace))
    end_to_end["steps_per_s"] = window.steps_per_s
    end_to_end["peak_rss_mb"] = vm_hwm_mb()
    latency = latency_summary(window.latencies_s)

    per_layer: Dict[str, float] = {}
    tracer = None
    if trace:
        tracer = Tracer(capacity=TRACE_CAPACITY)
        timer = PhaseTimer()
        engine.profiler = timer
        root = tracer.start("loadgen.window", attrs={"workload": "engine_dnc"})
        traced, _ = _engine_window(engine, pool, seconds * TRACED_SHARE, tracer, root)
        tracer.end(root)
        engine.profiler = None
        stats = spans.call_stats(tracer.records(), "bench.engine.run_batch")
        busy = stats["busy_s"]
        per_layer.update(phase_metrics(timer.stats(), busy))
        per_layer["engine.run_batch.busy_s"] = busy
        per_layer["engine.step_ms"] = busy / (stats["calls"] * ENGINE_STEPS) * 1e3
        per_layer["loadgen.busy_s"] = (root.t_end - root.t_start) - busy
        per_layer["obs.tracing_overhead"] = traced.steps_per_s / window.steps_per_s

    # Gate, outside both windows.
    lanes = sorted(
        np.random.default_rng([seed, 7]).choice(
            ENGINE_LANES, ENGINE_ORACLE_LANES, replace=False
        ).tolist()
    )
    gate = check_engine(engine, pool, outputs, lanes)
    words = [noc_words(engine, pool[0]) for _ in range(2)]
    gate["noc_words_repeat_exactly"] = words[0] == words[1]
    gate["ok"] = bool(gate["ok"] and gate["noc_words_repeat_exactly"])
    per_layer["engine.noc_words_per_step"] = words[0][0]
    per_layer["engine.inter_pt_words_per_step"] = words[0][1]
    per_layer["engine.state_bytes_per_session"] = engine.initial_state().nbytes
    if trace:
        _check_trace(gate, tracer, per_layer, min_attributed=0.9)
    return Outcome(
        end_to_end=end_to_end, latency=latency, per_layer=per_layer, gate=gate,
        attempted=window.attempted, failed=window.failed, tracer=tracer,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Serving: one single-threaded closed-loop client loop for both servers
# ---------------------------------------------------------------------------


@dataclass
class Client:
    """One closed-loop client: at most one step request outstanding."""

    script: object = None
    session_id: Optional[str] = None
    step: int = 0
    request: object = None
    t_submit: float = 0.0
    #: Served outputs, kept only for sessions the gate samples.
    outputs: Optional[List[np.ndarray]] = None
    root: object = None


class ClosedLoop:
    """Drives ``num_clients`` one-step-at-a-time clients against a server.

    A client submits its session's next step, waits for it, and when its
    script ends closes the session and opens the next script's.  All
    calls come from this one thread.  With a tracer, every call is
    wrapped in a ``bench.<layer>.<call>`` span, the layer being ``proc``
    for a ``ProcCluster`` and ``shard`` for an in-process server.
    """

    def __init__(
        self,
        server,
        scripts: Sequence,
        num_clients: int,
        sample: np.ndarray,
        tracer: Optional[Tracer] = None,
    ):
        self.server = server
        self.scripts = scripts
        self.sample = sample
        self.is_proc = isinstance(server, ProcCluster)
        self.layer = "proc" if self.is_proc else "shard"
        self.tracer = tracer
        self.opened = 0
        self.sampled: List[Tuple[np.ndarray, List[np.ndarray]]] = []
        self.per_worker: Dict[int, int] = {}
        self.window = Window()
        #: What ``run``'s ``read_memory`` returned.
        self.memory: Optional[float] = None
        self.root = tracer.start("loadgen.window") if tracer is not None else None
        self.clients = [Client() for _ in range(num_clients)]

    # -- one call into the program, wrapped in a span when tracing --------
    def _call(self, name, parent, fn):
        if self.tracer is None:
            return fn(None)
        span = self.tracer.start(f"bench.{self.layer}.{name}", parent=parent)
        result = fn(span.context)
        self.tracer.end(span)
        return result

    def _open(self, client: Client) -> None:
        index = self.opened
        self.opened += 1
        script = self.scripts[index % len(self.scripts)]
        session_id = f"{script.session_id}.{index}"
        tracer = self.tracer
        root = tracer.start("loadgen.session", attrs={"session": session_id}) if tracer else None
        self.window.attempted += 1
        got = self._call(
            "open_session", root, lambda ctx: self.server.open_session(session_id)
        )
        if got is None:
            self.window.failed += 1
            if root is not None:
                tracer.end(root, refused=True)
            return
        sampled = bool(self.sample[index % len(self.sample)])
        client.script, client.session_id, client.step = script, session_id, 0
        client.request, client.root = None, root
        client.outputs = [] if sampled else None
        if sampled:
            self.sampled.append((script.inputs, client.outputs))

    def _close(self, client: Client) -> None:
        session_id = client.session_id
        self._call(
            "close_session", client.root,
            lambda ctx: self.server.close_session(session_id),
        )
        if client.root is not None:
            self.tracer.end(client.root)
        client.session_id = None

    def _iterate(self, submit: bool, counting: bool) -> int:
        server = self.server
        if submit:
            for client in self.clients:
                if client.session_id is None:
                    self._open(client)
                    if client.session_id is None:
                        continue
                if client.request is not None:
                    continue
                x = client.script.inputs[client.step]
                session_id = client.session_id
                if counting:
                    self.window.attempted += 1
                t_submit = now()
                request = self._call(
                    "submit", client.root,
                    lambda ctx: server.submit(session_id, x, trace=ctx),
                )
                if request is None:
                    if counting:
                        self.window.failed += 1
                    continue
                client.request, client.t_submit = request, t_submit
        if self.is_proc:  # ProcCluster parents its ticks on traced submits
            self._call("run_tick", self.root, lambda ctx: server.run_tick())
        else:
            self._call("run_tick", self.root, lambda ctx: server.run_tick(trace=ctx))
        t_done = now()
        done = 0
        for client in self.clients:
            request = client.request
            if request is None or not request.done:
                continue
            client.request = None
            if request.error is not None:
                if counting:
                    self.window.failed += 1
                self._close(client)
                continue
            done += 1
            if counting:
                self.window.latencies_s.append(t_done - client.t_submit)
            if client.outputs is not None:
                client.outputs.append(request.y)
            if self.tracer is not None and self.is_proc:
                worker = server.shard_of(client.session_id)
                self.per_worker[worker] = self.per_worker.get(worker, 0) + 1
            client.step += 1
            if client.step == client.script.length:
                self._close(client)
        return done

    def run(
        self,
        seconds: float,
        memory_after_steps: int = 0,
        read_memory: Optional[Callable[[], float]] = None,
    ) -> Window:
        """Warm up, then measure a window of ``seconds``; returns it.

        ``read_memory`` is called once, when the window has completed
        ``memory_after_steps`` steps, and its value is kept in
        ``self.memory``.  A window that ends sooner keeps serving, untimed,
        until then, so the reading does not depend on throughput.
        """
        deadline = now() + WARMUP_S
        while now() < deadline:
            self._iterate(submit=True, counting=False)
        self.window = window = Window()
        self.per_worker = {}
        self.memory = None
        t0 = now()
        deadline = t0 + seconds
        while True:
            window.steps += self._iterate(submit=True, counting=True)
            t = now()
            if read_memory and self.memory is None and window.steps >= memory_after_steps:
                self.memory = read_memory()
            if t >= deadline:
                break
        window.seconds = t - t0
        served = window.steps
        while read_memory and self.memory is None:
            served += self._iterate(submit=True, counting=False)
            if served >= memory_after_steps:
                self.memory = read_memory()
        return window

    def finish(self, max_ticks: int = 10_000) -> int:
        """Complete outstanding requests, close every session; returns
        requests that never completed (counted as dropped)."""
        for _ in range(max_ticks):
            if all(c.request is None for c in self.clients):
                break
            self._iterate(submit=False, counting=False)
        dropped = sum(1 for c in self.clients if c.request is not None)
        for client in self.clients:
            if client.session_id is not None:
                self._close(client)
        if self.root is not None:
            self.tracer.end(self.root)
        return dropped


def check_sessions(
    engine: TiledEngine,
    sampled: Sequence[Tuple[np.ndarray, List[np.ndarray]]],
    tolerance: float,
) -> Dict[str, object]:
    """Gate: each sampled session's served steps vs solo stepping of the
    same inputs on ``engine``, built from the server's (config, seed)."""
    worst = 0.0
    steps = 0
    for inputs, outputs in sampled:
        if not outputs:
            continue
        solo = engine.run(inputs[: len(outputs)])
        engine.traffic.clear()
        worst = max(worst, float(np.max(np.abs(np.stack(outputs) - solo))))
        steps += len(outputs)
    return {
        "ok": bool(steps > 0 and worst <= tolerance),
        "served_vs_solo_max_abs": worst,
        "tolerance": tolerance,
        "sessions_checked": sum(1 for _, o in sampled if o),
        "steps_checked": steps,
    }


def check_served_alone(
    config: HiMAConfig, seed: int, scripts: Sequence, engine: TiledEngine
) -> Dict[str, object]:
    """Gate: ``scripts`` served one session at a time (``max_batch=1``)
    must be within ``SERVE_TOLERANCE`` of solo stepping on ``engine``."""
    server = SessionServer(
        TiledEngine(config, rng=seed), max_batch=1, session_capacity=1
    )
    sampled = []
    try:
        for script in scripts:
            session_id = server.open_session(script.session_id)
            outputs = []
            for x in script.inputs:
                request = server.submit(session_id, x)
                while not request.done:
                    server.run_tick()
                outputs.append(request.y)
            server.close_session(session_id)
            sampled.append((script.inputs, outputs))
    finally:
        server.close()
    return check_sessions(engine, sampled, SERVE_TOLERANCE)


@dataclass(frozen=True)
class ServeSpec:
    """What distinguishes the two serving workloads."""

    config: HiMAConfig
    clients: int
    #: Share of sessions whose every step the gate checks against solo.
    sample_share: float
    scripts: Callable[[int, int], Sequence]
    build: Callable[..., object]
    setup_reps: int
    #: Sessions one engine step serves at most (the shard's ``max_batch``).
    max_batch: int
    #: Served-vs-solo bar for the window's batched sessions.  Where it is
    #: looser than ``SERVE_TOLERANCE``, the gate also serves the first
    #: ``SERVED_ALONE`` scripts one at a time and holds them to that bar.
    tolerance: float
    #: ``peak_rss_mb`` is read when the window has served this many steps:
    #: workers' traffic logs grow with every tick.
    memory_after_steps: int


def _sample_mask(seed: int, share: float, size: int = 1 << 16) -> np.ndarray:
    mask = np.random.default_rng([seed, 11]).random(size) < share
    mask[0] = True
    return mask


def run_serving(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    config = spec.config
    scripts = spec.scripts(config.word_size, seed)
    sample = _sample_mask(seed, spec.sample_share)

    def build_and_step():
        t0 = now()
        server = spec.build(config, seed)
        try:
            session_id = server.open_session("setup")
            request = server.submit(session_id, scripts[0].inputs[0])
            while not request.done:
                server.run_tick()
            return now() - t0
        finally:
            server.close()

    end_to_end: Dict[str, float] = {}
    if not trace:
        end_to_end["setup_s"] = time_setup(build_and_step, spec.setup_reps)

    server = spec.build(config, seed)

    def peak_rss_mb() -> float:
        workers = getattr(server, "workers", ())
        return vm_hwm_mb() + sum(vm_hwm_mb(worker.pid) for worker in workers)

    try:
        loop = ClosedLoop(server, scripts, spec.clients, sample)
        window = loop.run(
            untraced_seconds(seconds, trace), spec.memory_after_steps, peak_rss_mb
        )
        dropped = loop.finish()
    finally:
        server.close()
    sampled = list(loop.sampled)
    end_to_end["steps_per_s"] = window.steps_per_s
    end_to_end["peak_rss_mb"] = loop.memory
    latency = latency_summary(window.latencies_s)
    attempted, failed = window.attempted, window.failed + dropped

    per_layer: Dict[str, float] = {}
    tracer = None
    if trace:
        tracer = Tracer(capacity=TRACE_CAPACITY)
        server = spec.build(config, seed, tracer=tracer)
        try:
            traced_loop = ClosedLoop(
                server, scripts, spec.clients, sample, tracer=tracer
            )
            traced = traced_loop.run(seconds * TRACED_SHARE)
            failed += traced_loop.finish()
            attempted += traced.attempted
            failed += traced.failed
            sampled += traced_loop.sampled
            per_layer.update(serving_layers(server, tracer, traced_loop))
        finally:
            server.close()
        per_layer["obs.tracing_overhead"] = traced.steps_per_s / window.steps_per_s

    probe = TiledEngine(config, rng=seed)
    gate = check_sessions(probe, sampled, spec.tolerance)
    if spec.tolerance != SERVE_TOLERANCE:
        alone = check_served_alone(config, seed, scripts[:SERVED_ALONE], probe)
        gate["served_alone"] = alone
        gate["ok"] = bool(gate["ok"] and alone["ok"])
    batch = min(spec.clients, spec.max_batch)
    x = np.stack([s.inputs[:2] for s in scripts[:batch]], axis=1)
    words = [noc_words(probe, x) for _ in range(2)]
    gate["noc_words_repeat_exactly"] = words[0] == words[1]
    gate["ok"] = bool(gate["ok"] and gate["noc_words_repeat_exactly"])
    if trace:
        _check_trace(gate, tracer, per_layer, min_attributed=0.0)
    per_layer["engine.noc_words_per_step"] = words[0][0]
    per_layer["engine.inter_pt_words_per_step"] = words[0][1]
    per_layer["engine.state_bytes_per_session"] = probe.initial_state().nbytes
    notes = [
        f"{spec.clients} closed-loop clients; noc words are per batched "
        f"step at batch width {batch}",
    ]
    return Outcome(
        end_to_end=end_to_end, latency=latency, per_layer=per_layer, gate=gate,
        attempted=attempted, failed=failed, tracer=tracer, notes=notes,
    )


def serving_layers(server, tracer: Tracer, loop: ClosedLoop) -> Dict[str, float]:
    """Per-layer metrics of a traced serving window."""
    records = tracer.records()
    out: Dict[str, float] = {}
    layer = loop.layer
    tick = spans.call_stats(records, f"bench.{layer}.run_tick")
    for key, value in tick.items():
        out[f"{layer}.run_tick.{key}"] = value
    for call in ("submit", "open_session", "close_session"):
        out[f"{layer}.{call}.busy_s"] = spans.call_stats(
            records, f"bench.{layer}.{call}"
        )["busy_s"]
    bench_busy = sum(
        r["t_end"] - r["t_start"] for r in records if r["name"].startswith("bench.")
    )
    window_span = loop.root
    out["loadgen.busy_s"] = (window_span.t_end - window_span.t_start) - bench_busy

    if loop.is_proc:
        metrics = server.cluster_metrics()
        profile = server.cluster_profile()
        out["proc.transport_s"] = spans.uncovered_time(
            spans.intervals(records, "bench.proc.run_tick"),
            spans.intervals(records, "shard.tick"),
        )
        out["proc.worker_restarts"] = server.worker_restarts
        out["supervisor.checkpoints_taken"] = server.supervisor.checkpoints_taken
        out["router.migrations"] = server.migrations
    else:
        metrics = server.metrics
        profile = server.phase_stats()
    # One in-process shard has no skew to measure: it reads 1.
    counts = list(loop.per_worker.values()) or [1]
    out["router.load_skew"] = max(counts) / (sum(counts) / len(counts))
    out["router.admission_spills"] = metrics.admission_spills
    out["batcher.wait_ticks_p50"] = metrics.wait_quantile(0.50) or 0.0
    out["batcher.wait_ticks_p99"] = metrics.wait_quantile(0.99) or 0.0
    out["batcher.mean_batch_occupancy"] = metrics.mean_occupancy() or 0.0
    out["batcher.admission_rejects"] = metrics.admission_rejects
    out["arena.state_bytes_copied_per_tick"] = metrics.state_bytes_per_tick() or 0.0
    out["arena.mean_slot_occupancy"] = metrics.mean_slot_occupancy() or 0.0
    out["store.evictions"] = metrics.evictions_ttl + metrics.evictions_lru

    engine_steps = spans.durations(records, "engine.step")
    busy = float(engine_steps.sum())
    out.update(phase_metrics(profile, busy))
    out["engine.step_ms"] = busy / engine_steps.size * 1e3 if engine_steps.size else 0.0
    return out


def _build_session_server(config, seed, tracer=None):
    return SessionServer(
        TiledEngine(config, rng=seed), max_batch=SERVE_SPARSE_CAPACITY,
        session_capacity=SERVE_SPARSE_CAPACITY,
        tracer=tracer, profiler=PhaseTimer() if tracer is not None else None,
    )


def _build_proc_cluster(config, seed, tracer=None):
    return ProcCluster(
        config, seed=seed, num_workers=2, max_batch=SERVE_PROC_MAX_BATCH,
        tracer=tracer,
        profile=tracer is not None,
    )


SERVE_SPARSE_CAPACITY = 8
#: Scripts the sparse gate serves one session at a time.
SERVED_ALONE = 2
#: ProcCluster's default per-worker batch bound.
SERVE_PROC_MAX_BATCH = 16

SERVE_SPARSE = ServeSpec(
    config=HiMAConfig(
        memory_size=2048, word_size=64, num_reads=4, num_tiles=16,
        hidden_size=256, access_policy="sparse", access_top_k=128,
        backend=BACKEND, dtype=DTYPE,
    ),
    clients=SERVE_SPARSE_CAPACITY,
    sample_share=0.06,
    scripts=lambda width, seed: generate_scripts(
        width, num_sessions=2048, mean_interarrival_ticks=0.0, rng=seed
    ),
    build=_build_session_server,
    setup_reps=19,
    max_batch=SERVE_SPARSE_CAPACITY,
    tolerance=SPARSE_DRIFT_TOLERANCE,
    memory_after_steps=300,
)

SERVE_PROC = ServeSpec(
    config=HiMAConfig(
        memory_size=128, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=64, backend=BACKEND, dtype=DTYPE,
    ),
    clients=32,
    sample_share=0.01,
    scripts=lambda width, seed: generate_zipf_scripts(
        width, num_sessions=16384, mean_interarrival_ticks=0.0, rng=seed
    ),
    build=_build_proc_cluster,
    setup_reps=25,
    max_batch=SERVE_PROC_MAX_BATCH,
    tolerance=SERVE_TOLERANCE,
    memory_after_steps=20_000,
)


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "engine_dnc": run_engine_dnc,
    "serve_sparse": lambda seed, seconds, trace: run_serving(SERVE_SPARSE, seed, seconds, trace),
    "serve_proc": lambda seed, seconds, trace: run_serving(SERVE_PROC, seed, seconds, trace),
}
