"""Shard-and-merge execution of snapshot-capable streaming algorithms.

One logical pass over the stream becomes ``n_shards`` independent passes
over disjoint slices of its adjacency lists (see
:mod:`repro.sketch.shard`), each run in its own process from the *same*
starting snapshot, then folded back into one state through the merge
layer (:mod:`repro.sketch.merge`):

    state = algorithm.snapshot()
    for each pass p:
        per-shard: restore(state); run pass p over the shard; snapshot()
        state = merge_states(shard states, base=state)
    algorithm.restore(state)

Because every shard starts each pass from the merged state of the
previous one, counters merge as deltas over a common base and the
bottom-k edge sample merges bit-exactly.  Parallel fan-out uses a
*persistent* :class:`ShardPool`: the pool's initializer ships every
shard's adjacency lists to each worker once, so per-pass tasks carry
only the (small) merged state — not the stream — and workers keep a
:class:`~repro.util.vectorized.ColumnMemo` of vertex-id columns warm
across passes for the counters' vectorized fast path.  ``workers=None``
runs shards serially in-process (with the same column memoisation),
which is bit-identical to the parallel schedule (merging is
order-deterministic).

Checkpoints are written at pass boundaries only — each shard pass is the
atomic unit of work — so resuming a sharded run replays at most one
logical pass.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import resolve_workers
from repro.obs.events import MergeCompleted, RunFinished, RunStarted, ShardPassFinished
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer
from repro.sketch.checkpoint import Checkpoint, CheckpointConfig
from repro.sketch.merge import merge_states
from repro.sketch.shard import StreamShard, partition_stream
from repro.sketch.state import SketchState, SketchStateError
from repro.streaming.algorithm import StreamingAlgorithm, supports_snapshot
from repro.streaming.runner import PassDriver
from repro.streaming.space import SpaceMeter
from repro.util.rng import derive_seed
from repro.util.vectorized import ColumnMemo

#: factory(state) -> restored algorithm instance.
AlgorithmFactory = Callable[[SketchState], StreamingAlgorithm]

_ALGORITHM_KINDS: Dict[str, AlgorithmFactory] = {}


def register_algorithm_kind(kind: str, factory: AlgorithmFactory) -> None:
    """Register a restorer for snapshot ``kind`` (used by shard workers)."""
    _ALGORITHM_KINDS[kind] = factory


def _ensure_default_kinds() -> None:
    # Imported lazily: the core counters import repro.sketch.state at module
    # load, so a top-level import here would be circular through the package
    # __init__.
    if "triangle-two-pass" not in _ALGORITHM_KINDS:
        from repro.core.triangle_two_pass import TwoPassTriangleCounter

        register_algorithm_kind("triangle-two-pass", TwoPassTriangleCounter.from_state)
    if "fourcycle-two-pass" not in _ALGORITHM_KINDS:
        from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter

        register_algorithm_kind("fourcycle-two-pass", TwoPassFourCycleCounter.from_state)


def restore_algorithm(state: SketchState) -> StreamingAlgorithm:
    """Instantiate the algorithm a snapshot came from, fully restored."""
    _ensure_default_kinds()
    factory = _ALGORITHM_KINDS.get(state.kind)
    if factory is None:
        raise SketchStateError(
            f"no algorithm registered for state kind {state.kind!r} "
            f"(known: {sorted(_ALGORITHM_KINDS)})"
        )
    return factory(state)


@dataclass(frozen=True)
class ShardTask:
    """One shard's work for one pass, in picklable form.

    Self-contained (carries the shard's ``lists``): the serial path and
    one-shot fan-outs use it directly.  The persistent :class:`ShardPool`
    ships lists once via its initializer and sends the slimmer
    :class:`PooledShardTask` per pass instead.  ``trace`` carries the
    driver tracer's position (the enclosing ``pass:<i>`` span) into the
    worker so shard spans attach to the right parent; ``None`` means
    tracing is off.
    """

    shard_index: int
    pass_index: int
    state: SketchState
    lists: Tuple
    space_poll_interval: int = 1
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class PooledShardTask:
    """Per-pass work order for a :class:`ShardPool` worker.

    Carries only what changes between passes — the merged state and the
    tracer position.  The shard's adjacency lists (the bulky, pass-
    invariant part) live in the worker process already, installed once
    by the pool initializer.
    """

    shard_index: int
    pass_index: int
    state: SketchState
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
# repro-lint: disable=SKT002 -- in-memory IPC record; carries a SketchState, which JSON persistence cannot round-trip
class ShardPassResult:
    """What one shard pass sends back to the driver.

    ``spans`` holds the worker's trace spans in wire form (see
    :func:`repro.obs.trace.encode_span`); the driver adopts them in
    shard order, keeping the span tree schedule-invariant.
    """

    shard_index: int
    state: SketchState
    peak_space_words: int
    pairs: int
    spans: Tuple = ()


def _execute_shard_pass(
    shard_index: int,
    pass_index: int,
    state: SketchState,
    lists: Tuple,
    space_poll_interval: int,
    trace: Optional[TraceContext],
    column_provider=None,
) -> ShardPassResult:
    """Restore, run one pass over the shard's lists, snapshot.

    ``column_provider`` (a :class:`~repro.util.vectorized.ColumnMemo`
    scoped to this shard) lets the counters' vectorized fast path reuse
    vertex-id columns across passes; it never changes results.
    """
    algorithm = restore_algorithm(state)
    tracer = Tracer.from_context(trace) if trace is not None else NULL_TRACER
    meter = SpaceMeter()
    driver = PassDriver(
        algorithm,
        meter,
        space_poll_interval=space_poll_interval,
        column_provider=column_provider,
    )
    with tracer.span(f"shard:{shard_index}", category="shard") as span:
        driver.begin_pass(pass_index)
        for vertex, neighbors in lists:
            driver.feed_list(vertex, neighbors)
        driver.end_pass()
        span.set(pairs=driver.pairs_done, peak_space_words=meter.peak_words)
    return ShardPassResult(
        shard_index=shard_index,
        state=algorithm.snapshot(),
        peak_space_words=meter.peak_words,
        pairs=driver.pairs_done,
        spans=tuple(tracer.encoded_spans()),
    )


def _run_shard_pass(task: ShardTask, column_provider=None) -> ShardPassResult:
    """Worker entry point for self-contained tasks (serial / one-shot)."""
    return _execute_shard_pass(
        task.shard_index,
        task.pass_index,
        task.state,
        task.lists,
        task.space_poll_interval,
        task.trace,
        column_provider=column_provider,
    )


# Per-worker state installed once by the ShardPool initializer: every
# shard's lists plus one ColumnMemo per shard, kept warm across passes.
_worker_shard_lists: Dict[int, Tuple] = {}
_worker_shard_memos: Dict[int, ColumnMemo] = {}
_worker_poll_interval: int = 1


def _init_shard_worker(lists_by_shard: Dict[int, Tuple], space_poll_interval: int) -> None:
    global _worker_shard_lists, _worker_shard_memos, _worker_poll_interval
    _worker_shard_lists = dict(lists_by_shard)
    _worker_shard_memos = {index: ColumnMemo() for index in _worker_shard_lists}
    _worker_poll_interval = space_poll_interval


def _run_shard_pass_pooled(task: PooledShardTask) -> ShardPassResult:
    """Worker entry point for pooled tasks: lists come from worker state."""
    return _execute_shard_pass(
        task.shard_index,
        task.pass_index,
        task.state,
        _worker_shard_lists[task.shard_index],
        _worker_poll_interval,
        task.trace,
        column_provider=_worker_shard_memos[task.shard_index],
    )


class ShardPool:
    """Persistent worker pool for a sharded run.

    Started once per :func:`run_sharded` call (when it resolves to more
    than one worker) and reused for every pass: the initializer ships the
    full ``{shard_index: lists}`` map to each worker a single time, so
    the per-pass IPC payload is one merged :class:`SketchState` per shard
    instead of the whole stream re-pickled every pass — the dominant
    fan-out cost for multi-pass algorithms on large streams.  Workers
    hold per-shard column memos across passes, matching the warm-cache
    behaviour of the serial path.
    """

    def __init__(
        self,
        shards: Sequence[StreamShard],
        workers: int,
        space_poll_interval: int = 1,
    ):
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_shard_worker,
            initargs=(
                {shard.index: shard.lists for shard in shards},
                space_poll_interval,
            ),
        )

    def run_pass(self, tasks: Sequence[PooledShardTask]) -> List[ShardPassResult]:
        """Execute one pass's shard tasks; results in task (= shard) order."""
        return list(self._pool.map(_run_shard_pass_pooled, tasks))

    def close(self) -> None:
        self._pool.shutdown()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ShardRunResult:
    """Outcome of a sharded run (persistence-registered; flat JSON fields).

    ``peak_space_words`` is the largest per-shard peak — the worst-case
    footprint of any single worker, the number the paper's space bounds
    constrain.  ``mean_space_words`` averages the per-shard-pass peaks.

    ``workers`` is the *requested* worker count (resolved: ``0`` becomes
    ``os.cpu_count()``); ``effective_parallelism`` is how many shard
    passes could actually run concurrently — ``min(workers, n_shards)``
    — the honest denominator for any speedup claim.  A single-core box
    reports ``effective_parallelism == 1`` no matter what was requested,
    which is what lets the bench gate skip speedup assertions there.
    """

    estimate: float
    passes: int
    n_shards: int
    workers: int
    strategy: str
    pairs_per_pass: int
    shard_pairs: List[int]
    peak_space_words: int
    mean_space_words: float
    wall_time_seconds: float
    effective_parallelism: int = 1


def run_sharded(
    algorithm: StreamingAlgorithm,
    stream,
    n_shards: int,
    *,
    workers: Optional[int] = None,
    strategy: str = "balanced",
    space_poll_interval: int = 1,
    merge_seed: Optional[int] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume_from: Optional[Checkpoint] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    tracer: Tracer = NULL_TRACER,
) -> ShardRunResult:
    """Run ``algorithm`` over ``stream`` shard-and-merge style.

    ``algorithm`` must implement the sketch state protocol and have a
    merger registered for its state kind.  The merged final state is
    restored into ``algorithm`` before returning, so the instance is
    inspectable exactly as after a conventional run.  ``merge_seed``
    drives the randomised parts of merging (per pass, statelessly derived,
    so a resumed run merges identically); the default is deterministic.

    With ``workers`` resolving above 1 (and more than one shard), the
    run starts one persistent :class:`ShardPool` and reuses it for every
    pass; otherwise shards run serially in-process with per-shard column
    memos.  Both schedules produce bit-identical results.

    ``telemetry`` records per-shard pass completions, merge boundaries and
    the fleet-wide space picture; shard *workers* run with the default
    null telemetry (their peaks come home in :class:`ShardPassResult`),
    so only the driver process emits events.  ``tracer`` records
    ``pass:<i>`` / ``merge:<i>`` / ``checkpoint`` spans and adopts the
    workers' ``shard:<j>`` spans in shard order, so the span tree is
    identical under serial and pool execution.
    """
    if not supports_snapshot(algorithm):
        raise SketchStateError(
            f"{type(algorithm).__name__} does not implement the sketch "
            "state protocol (snapshot/restore); cannot run sharded"
        )
    if getattr(algorithm, "sharded", True) is False:
        # Algorithms with an explicit sharded mode (e.g. the triangle
        # counter's hash-designated ρ) cannot be merged correctly in their
        # conventional mode — fail up front rather than deep in estimation.
        raise SketchStateError(
            f"{type(algorithm).__name__} was constructed in conventional "
            "mode; pass sharded=True to its constructor for run_sharded"
        )
    shards = partition_stream(stream, n_shards, strategy)
    meter = SpaceMeter()
    n_workers = min(resolve_workers(workers), max(len(shards), 1))
    effective = min(n_workers, os.cpu_count() or 1)

    state = algorithm.snapshot()
    start_pass = 0
    if resume_from is not None:
        if resume_from.lists_done != 0:
            raise SketchStateError(
                "sharded runs checkpoint at pass boundaries only; got a "
                f"mid-pass checkpoint (lists_done={resume_from.lists_done})"
            )
        with tracer.span("resume", category="checkpoint"):
            state = resume_from.algorithm_state
            start_pass = resume_from.pass_index
            if resume_from.meter_state:
                meter.load_state_dict(resume_from.meter_state)

    if telemetry.enabled:
        telemetry.emit(
            RunStarted(
                algorithm=type(algorithm).__name__,
                passes=algorithm.n_passes,
                pairs_per_pass=sum(len(shard) for shard in shards),
            )
        )

    base_seed = 0 if merge_seed is None else int(merge_seed)
    # Serial path: one column memo per shard, warm across passes (the
    # pooled path gets the same via the workers' initializer state).
    pool: Optional[ShardPool] = None
    serial_memos: Dict[int, ColumnMemo] = {}
    if n_workers > 1 and len(shards) > 1:
        pool = ShardPool(shards, workers=n_workers, space_poll_interval=space_poll_interval)
    else:
        serial_memos = {shard.index: ColumnMemo() for shard in shards}
    # repro-lint: disable=DET003 -- wall-time telemetry for ShardRunResult only; never touches sketch state
    start = time.perf_counter()
    try:
        for pass_index in range(start_pass, algorithm.n_passes):
            with tracer.span(f"pass:{pass_index}", category="pass") as pass_span:
                trace_ctx = tracer.context()
                if pool is not None:
                    tasks = [
                        PooledShardTask(
                            shard_index=shard.index,
                            pass_index=pass_index,
                            state=state,
                            trace=trace_ctx,
                        )
                        for shard in shards
                    ]
                    results = pool.run_pass(tasks)
                else:
                    results = [
                        _execute_shard_pass(
                            shard.index,
                            pass_index,
                            state,
                            shard.lists,
                            space_poll_interval,
                            trace_ctx,
                            column_provider=serial_memos[shard.index],
                        )
                        for shard in shards
                    ]
                pass_pairs = 0
                for result in results:
                    tracer.adopt(result.spans)
                    pass_pairs += result.pairs
                    if telemetry.enabled:
                        telemetry.emit(
                            ShardPassFinished(
                                shard_index=result.shard_index,
                                pass_index=pass_index,
                                pairs=result.pairs,
                                peak_space_words=result.peak_space_words,
                            )
                        )
                        telemetry.count(
                            "shard_pairs_total", result.pairs,
                            help="adjacency pairs consumed by shard workers",
                            shard=str(result.shard_index),
                        )
                        telemetry.set_gauge(
                            "shard_peak_space_words", result.peak_space_words,
                            help="per-shard peak live state in machine words",
                            shard=str(result.shard_index),
                        )
                    meter.observe(result.peak_space_words)
                with tracer.span(f"merge:{pass_index}", category="merge", n_shards=len(results)):
                    state = merge_states(
                        [result.state for result in results],
                        base=state,
                        seed=derive_seed(base_seed, pass_index),
                    )
                pass_span.set(pairs=pass_pairs, n_shards=len(results))
                if telemetry.enabled:
                    telemetry.emit(
                        MergeCompleted(pass_index=pass_index, n_shards=len(results))
                    )
                    telemetry.count("shard_merges_total", help="pass-boundary shard merges")
            if checkpoint is not None:
                with tracer.span(f"checkpoint:pass:{pass_index + 1}", category="checkpoint"):
                    checkpoint.write(state, pass_index + 1, 0, meter.state_dict())
    finally:
        if pool is not None:
            pool.close()
    elapsed = time.perf_counter() - start  # repro-lint: disable=DET003 -- telemetry field, mirrors streaming/runner.py

    algorithm.restore(state)
    shard_result = ShardRunResult(
        estimate=algorithm.result(),
        passes=algorithm.n_passes,
        n_shards=len(shards),
        workers=resolve_workers(workers),
        effective_parallelism=effective,
        strategy=strategy,
        pairs_per_pass=sum(len(shard) for shard in shards),
        shard_pairs=[len(shard) for shard in shards],
        peak_space_words=meter.peak_words,
        mean_space_words=meter.mean_words,
        wall_time_seconds=elapsed,
    )
    if telemetry.enabled:
        telemetry.set_gauge(
            "run_peak_space_words", shard_result.peak_space_words,
            help="largest per-shard peak, matching ShardRunResult",
        )
        telemetry.emit(
            RunFinished(
                estimate=shard_result.estimate,
                peak_space_words=shard_result.peak_space_words,
                mean_space_words=shard_result.mean_space_words,
                passes=shard_result.passes,
                pairs=shard_result.pairs_per_pass * shard_result.passes,
                seconds=elapsed,
                pairs_per_second=(
                    shard_result.pairs_per_pass * shard_result.passes / elapsed
                    if elapsed > 0 else 0.0
                ),
            )
        )
    return shard_result
