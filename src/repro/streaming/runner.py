"""Multi-pass execution of streaming algorithms over adjacency-list streams.

:class:`PassDriver` is the one place that calls an algorithm's per-list
hooks.  Every execution mode pushes adjacency lists into a driver: the
batch :func:`run_algorithm` loop below, one shard pass of the sharded
driver (:mod:`repro.sketch.driver`), the communication-protocol
simulation (:mod:`repro.lowerbounds.protocol`) and a serve session
(:mod:`repro.serve.session`), which only buffers and validates chunks in
front of it.

The driver has two dispatch strategies:

* the **per-pair path** — calling ``process`` for every
  ``(source, neighbour)`` pair, then ``end_list``;
* the **batched fast path** — one ``process_list`` call per adjacency list,
  used when the algorithm overrides :meth:`StreamingAlgorithm.process_list`
  (or overrides neither per-pair hook, so the inner loop is pure overhead).

Both paths are observably identical for conforming algorithms; the fast
path only removes per-pair Python dispatch.  ``space_poll_interval``
controls how often ``space_words()`` is polled (every list by default;
larger intervals trade peak-resolution for speed on huge graphs).

Long runs can be made durable: pass a
:class:`repro.sketch.checkpoint.CheckpointConfig` as ``checkpoint`` and
the runner snapshots the algorithm (via the sketch state protocol) to
disk every ``every_lists`` adjacency lists and at each pass boundary.  A
run killed mid-pass resumes from the last snapshot by passing the loaded
:class:`~repro.sketch.checkpoint.Checkpoint` as ``resume_from``; because
streams replay deterministically, the resumed run finishes with results
identical to an uninterrupted one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.obs.events import (
    EstimateSample,
    OccupancySample,
    PassFinished,
    PassStarted,
    RunFinished,
    RunStarted,
    SpaceHighWater,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streaming.algorithm import StreamingAlgorithm, supports_current_estimate
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream


@dataclass(frozen=True)
class RunResult:
    """Outcome of running a streaming algorithm: estimate plus space facts.

    ``wall_time_seconds`` and ``pairs_per_second`` describe this particular
    execution, so two otherwise-identical runs compare unequal; compare the
    estimate/space fields when checking reproducibility.  For a resumed run
    they cover only the resumed portion.
    """

    estimate: float
    peak_space_words: int
    mean_space_words: float
    passes: int
    pairs_per_pass: int
    wall_time_seconds: float = 0.0
    pairs_per_second: float = 0.0
    used_fast_path: bool = False


def supports_list_dispatch(algorithm: StreamingAlgorithm) -> bool:
    """Whether ``algorithm`` is eligible for the batched fast path.

    True when the algorithm overrides ``process_list`` (it opted into
    batched dispatch) or overrides neither ``process`` nor ``process_list``
    (the per-pair loop would only call base-class no-ops).
    """
    cls = type(algorithm)
    if cls.process_list is not StreamingAlgorithm.process_list:
        return True
    return cls.process is StreamingAlgorithm.process


class PassDriver:
    """The one owner of the adjacency-list hook discipline.

    Callers push complete lists; the driver calls the algorithm's hooks
    in the order the model defines::

        begin_pass -> (begin_list -> process | process_list -> end_list)* -> end_pass

    It picks per-pair ``process`` calls or one ``process_list`` call per
    list (``use_fast_path``, auto-detected via
    :func:`supports_list_dispatch` by default), polls ``space_words()``
    into ``meter`` every ``space_poll_interval`` lists and at each pass
    end, and emits pass and poll events to ``telemetry``.  Without a
    meter it polls nothing and records no pass-end telemetry.

    ``column_provider`` (e.g. a stream's ``columns_for``) is bound to the
    algorithm so its vectorized fast path can skip converting lists; a
    ``uint64`` column handed to :meth:`feed_list` overrides it for that
    one list.  Columns only accelerate and never change results; with no
    provider nothing is bound and columns are ignored.
    """

    def __init__(
        self,
        algorithm: StreamingAlgorithm,
        meter: Optional[SpaceMeter] = None,
        *,
        space_poll_interval: int = 1,
        use_fast_path: Optional[bool] = None,
        column_provider=None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        if space_poll_interval < 1:
            raise ValueError("space_poll_interval must be at least 1")
        self.algorithm = algorithm
        self.meter = meter
        self.space_poll_interval = space_poll_interval
        self.fast = (
            use_fast_path if use_fast_path is not None else supports_list_dispatch(algorithm)
        )
        cls = type(algorithm)
        self._skip_pairs = self.fast and (
            cls.process_list is StreamingAlgorithm.process_list
            and cls.process is StreamingAlgorithm.process
        )
        self.telemetry = telemetry
        self._emit_estimate = telemetry.enabled and supports_current_estimate(algorithm)
        self._columns = column_provider
        self._hint: Optional[Tuple[Any, Any]] = None
        if column_provider is not None:
            algorithm.bind_columns(self._provide_column)
        self.pass_index: Optional[int] = None  # None between passes
        self.lists_done = 0
        self.pairs_done = 0
        self._since_poll = 0
        self._pass_start = 0.0

    @property
    def in_pass(self) -> bool:
        """Whether ``begin_pass`` ran and ``end_pass`` has not yet."""
        return self.pass_index is not None

    def _provide_column(self, vertex: Any, neighbors: Any) -> Any:
        hint = self._hint
        if hint is not None and hint[0] is neighbors:
            return hint[1]
        return self._columns(vertex, neighbors)

    def begin_pass(self, pass_index: int, *, resumed_lists: Optional[int] = None) -> None:
        """Open pass ``pass_index``.

        ``resumed_lists`` continues a pass that a restored snapshot left
        open after that many lists.  ``begin_pass`` ran before the
        snapshot, so its effects are inside the restored state and the
        hook is not called again.
        """
        if self.telemetry.enabled:
            self.telemetry.emit(PassStarted(pass_index=pass_index))
        self._pass_start = time.perf_counter()
        if resumed_lists is None:
            self.algorithm.begin_pass(pass_index)
        self.pass_index = pass_index
        self.lists_done = resumed_lists or 0
        self.pairs_done = 0
        self._since_poll = 0

    def _dispatch(self, vertex: Any, neighbors: Sequence) -> None:
        algorithm = self.algorithm
        algorithm.begin_list(vertex)
        if self.fast:
            if not self._skip_pairs:
                algorithm.process_list(vertex, neighbors)
        else:
            process = algorithm.process
            for nbr in neighbors:
                process(vertex, nbr)
        algorithm.end_list(vertex, neighbors)

    def feed_list(self, vertex: Any, neighbors: Sequence, column: Any = None) -> None:
        """Run one complete adjacency list through the hooks.

        ``column`` holds the list's vertex ids as a numpy array; it
        reaches the algorithm only with dtype ``uint64`` and the list's
        length.
        """
        if column is not None and column.dtype == np.uint64 and len(column) == len(neighbors):
            self._hint = (neighbors, column)
            try:
                self._dispatch(vertex, neighbors)
            finally:
                self._hint = None
        else:
            self._dispatch(vertex, neighbors)
        self.pairs_done += len(neighbors)
        self.lists_done += 1
        if self.meter is not None:
            self._since_poll += 1
            if self._since_poll >= self.space_poll_interval:
                self._poll()
                self._since_poll = 0

    def _poll(self) -> int:
        words = self.algorithm.space_words()
        if self.telemetry.enabled:
            _record_poll(
                self.telemetry, self.algorithm, self.meter, self.pass_index,
                self.lists_done, words, self._emit_estimate,
            )
        self.meter.observe(words)
        return words

    def end_pass(self) -> None:
        """Close the open pass: the ``end_pass`` hook, a final poll, telemetry."""
        pass_index = self.pass_index
        self.algorithm.end_pass(pass_index)
        if self.meter is not None:
            words = self._poll()
            if self.telemetry.enabled:
                _record_pass_end(
                    self.telemetry, pass_index, self.lists_done, self.pairs_done,
                    time.perf_counter() - self._pass_start, words,
                )
        self.pass_index = None


def _record_poll(
    telemetry: Telemetry,
    algorithm: StreamingAlgorithm,
    meter: SpaceMeter,
    pass_index: int,
    lists_done: int,
    words: int,
    emit_estimate: bool = False,
) -> None:
    """Telemetry work at one space-poll site (enabled path only).

    Must run *before* ``meter.observe(words)`` so the high-water test
    compares against the peak excluding the current reading.
    """
    if words > meter.peak_words:
        telemetry.emit(
            SpaceHighWater(pass_index=pass_index, lists_done=lists_done, words=words)
        )
    telemetry.set_gauge(
        "stream_space_words",
        words,
        help="algorithm live state in machine words, polled per list batch",
    )
    gauges = algorithm.observables()
    if gauges:
        telemetry.emit(
            OccupancySample(
                pass_index=pass_index, lists_done=lists_done, gauges=dict(gauges)
            )
        )
    if emit_estimate:
        estimate = algorithm.current_estimate()
        if estimate is not None:
            telemetry.emit(
                EstimateSample(
                    pass_index=pass_index, lists_done=lists_done, estimate=estimate
                )
            )
            telemetry.set_gauge(
                "stream_current_estimate",
                estimate,
                help="anytime estimate polled at the space-poll cadence",
            )


def _record_pass_end(
    telemetry: Telemetry,
    pass_index: int,
    lists_done: int,
    pairs_run: int,
    seconds: float,
    words: int,
) -> None:
    """Pass-boundary telemetry: throughput event plus per-pass metrics."""
    label = str(pass_index)
    telemetry.emit(
        PassFinished(
            pass_index=pass_index,
            lists=lists_done,
            pairs=pairs_run,
            seconds=seconds,
            pairs_per_second=pairs_run / seconds if seconds > 0 else 0.0,
        )
    )
    telemetry.count(
        "stream_pairs_total", pairs_run,
        help="adjacency pairs consumed", pass_index=label,
    )
    telemetry.count(
        "stream_lists_total", lists_done,
        help="adjacency lists consumed", pass_index=label,
    )
    telemetry.set_gauge(
        "stream_pass_space_words", words,
        help="live state in machine words at the pass boundary", pass_index=label,
    )
    telemetry.observe_seconds(
        "stream_pass_seconds", seconds,
        help="wall time of one stream pass", pass_index=label,
    )


def run_algorithm(
    algorithm: StreamingAlgorithm,
    stream: AdjacencyListStream,
    meter: Optional[SpaceMeter] = None,
    *,
    space_poll_interval: int = 1,
    use_fast_path: Optional[bool] = None,
    checkpoint=None,
    resume_from=None,
    telemetry: Telemetry = NULL_TELEMETRY,
    tracer: Tracer = NULL_TRACER,
) -> RunResult:
    """Run ``algorithm`` for its declared number of passes over ``stream``.

    The same stream object is replayed for each pass, which satisfies the
    same-ordering requirement automatically (``AdjacencyListStream`` is
    deterministic).  Space is polled after every ``space_poll_interval``
    adjacency lists (and always at the end of each pass); ``use_fast_path``
    forces batched (True) or per-pair (False) dispatch, defaulting to
    auto-detection via :func:`supports_list_dispatch`.

    ``checkpoint`` (a :class:`~repro.sketch.checkpoint.CheckpointConfig`)
    enables periodic snapshots; ``resume_from`` (a loaded
    :class:`~repro.sketch.checkpoint.Checkpoint`) restores the algorithm
    and fast-forwards the stream to the recorded position before running.
    Both require the algorithm to implement the sketch state protocol.

    ``telemetry`` streams run/pass boundaries, per-pass throughput, space
    high-water marks, sampler occupancy and (for algorithms exposing
    ``current_estimate()``) anytime estimate samples as typed events, and
    folds the same facts into its metric registry.  The default
    :data:`NULL_TELEMETRY` adds one attribute lookup per poll site and
    pass boundary — nothing on the per-pair path.  ``tracer`` records
    ``pass:<i>`` / ``checkpoint:<...>`` / ``resume`` spans under the
    caller's current position (default :data:`NULL_TRACER`).
    """
    meter = meter if meter is not None else SpaceMeter()

    start_pass, skip_lists = 0, 0
    if resume_from is not None:
        with tracer.span("resume", category="checkpoint"):
            algorithm.restore(resume_from.algorithm_state)
            start_pass = resume_from.pass_index
            skip_lists = resume_from.lists_done
            if resume_from.meter_state:
                meter.load_state_dict(resume_from.meter_state)
    # Columnar stream handoff: the stream memoises each list's vertex-id
    # column, so both passes (and all per-list hooks) share one conversion.
    # (Bound after the resume restore, which resets any bound provider.
    # Duck-typed streams without the memo simply leave algorithms
    # converting their own lists.)
    driver = PassDriver(
        algorithm,
        meter,
        space_poll_interval=space_poll_interval,
        use_fast_path=use_fast_path,
        column_provider=getattr(stream, "columns_for", None),
        telemetry=telemetry,
    )

    if telemetry.enabled:
        telemetry.emit(
            RunStarted(
                algorithm=type(algorithm).__name__,
                passes=algorithm.n_passes,
                pairs_per_pass=len(stream),
            )
        )

    start = time.perf_counter()
    pairs_run = 0
    for pass_index in range(start_pass, algorithm.n_passes):
        skip = skip_lists if pass_index == start_pass else 0
        with tracer.span(f"pass:{pass_index}", category="pass") as span:
            driver.begin_pass(pass_index, resumed_lists=skip or None)
            for vertex, neighbors in islice(stream.iter_lists(), skip, None):
                driver.feed_list(vertex, neighbors)
                if checkpoint is not None and driver.lists_done % checkpoint.every_lists == 0:
                    lists_done = driver.lists_done
                    with tracer.span(f"checkpoint:{lists_done}", category="checkpoint"):
                        checkpoint.write(
                            algorithm.snapshot(), pass_index, lists_done,
                            meter.state_dict(),
                        )
            driver.end_pass()
            span.set(lists=driver.lists_done, pairs=driver.pairs_done)
        pairs_run += driver.pairs_done
        if checkpoint is not None:
            # Pass-boundary checkpoint: resume starts the next pass cleanly.
            with tracer.span(f"checkpoint:pass:{pass_index + 1}", category="checkpoint"):
                checkpoint.write(
                    algorithm.snapshot(), pass_index + 1, 0, meter.state_dict()
                )
    elapsed = time.perf_counter() - start
    result = RunResult(
        estimate=algorithm.result(),
        peak_space_words=meter.peak_words,
        mean_space_words=meter.mean_words,
        passes=algorithm.n_passes,
        pairs_per_pass=len(stream),
        wall_time_seconds=elapsed,
        pairs_per_second=pairs_run / elapsed if elapsed > 0 else 0.0,
        used_fast_path=driver.fast,
    )
    if telemetry.enabled:
        telemetry.set_gauge(
            "run_peak_space_words", result.peak_space_words,
            help="peak live state over the whole run, matching RunResult",
        )
        telemetry.emit(
            RunFinished(
                estimate=result.estimate,
                peak_space_words=result.peak_space_words,
                mean_space_words=result.mean_space_words,
                passes=result.passes,
                pairs=pairs_run,
                seconds=elapsed,
                pairs_per_second=result.pairs_per_second,
            )
        )
    return result
