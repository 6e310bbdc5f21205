"""The session table: budgets, backpressure, merge, checkpointing.

:class:`SessionManager` is the asyncio layer over the synchronous
:class:`~repro.serve.session.ServeSession` cores.  It owns

* the **session table** — id → session, with a per-session
  :class:`asyncio.Lock` so interleaved requests against one session
  serialize while different sessions proceed concurrently;
* **admission control** — a hard cap on open sessions
  (``SESSION_LIMIT``) plus a semaphore bounding in-flight feed chunks
  (``max_inflight_feeds``): a flood of feeds queues at the gate instead
  of growing unbounded buffered state;
* **cross-session merge** — sibling sessions (same spec, budget, origin
  and pass position) fold into one via the bit-exact shard-merge layer,
  exactly the pass-boundary merge ``run_sharded`` performs;
* **graceful-shutdown checkpointing** — :meth:`checkpoint_all` freezes
  every snapshot-capable live session to a directory (atomic writes, a
  manifest for ids), and :meth:`load_checkpoints` resurrects them.

All telemetry in the serve vocabulary (``serve_*`` metrics, the
``Session*`` events) is emitted here, never in the session cores, so the
cores stay trivially testable.  Trace spans for sessions are recorded
post-hoc with :meth:`~repro.obs.trace.Tracer.record_span` — concurrent
sessions interleave arbitrarily, which the stack-based span context
manager cannot represent.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.events import (
    ServeCheckpointed,
    SessionClosed,
    SessionOpened,
    SessionsMerged,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer, encode_span
from repro.serve.protocol import (
    BAD_STATE,
    MERGE_INCOMPATIBLE,
    NO_SUCH_SESSION,
    SERVER_SHUTDOWN,
    SESSION_EXISTS,
    SESSION_LIMIT,
    UNSUPPORTED,
    VALIDATE_STRICT,
    ServeError,
)
from repro.serve.session import ServeSession
from repro.sketch.merge import MergeError, merge_states
from repro.sketch.state import SketchState
from repro.streaming.algorithm import supports_snapshot

__all__ = ["SessionManager"]

#: Manifest filename written next to per-session snapshot files.
MANIFEST_NAME = "serve-checkpoint.json"

_FEED_GATE_HELP = "feeds queued behind the ingest semaphore (high water = worst backlog)"
_OP_LATENCY_HELP = "per-operation serve latency histogram (op=feed|poll|merge|snapshot, wire=json|binary)"


def _now() -> float:
    return time.perf_counter()  # repro-lint: disable=DET003 -- serve latency metrics and span timestamps are wall time by design; no estimator state depends on them


# Synchronous checkpoint-file helpers, always dispatched off the event
# loop via asyncio.to_thread by the coroutines above them (ASY001).


def _mkdir_sync(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)


def _write_manifest_sync(directory: Path, manifest: Dict[str, Any]) -> None:
    """Atomic manifest write: full content to a temp file, then rename."""
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(directory / MANIFEST_NAME)


def _read_manifest_sync(manifest_path: Path) -> Optional[str]:
    if not manifest_path.exists():
        return None
    return manifest_path.read_text()


class SessionManager:
    """Open/feed/poll/snapshot/merge/close sessions, concurrently and safely.

    Every public coroutine raises :class:`ServeError` with a stable code
    on failure; the transport layer maps those to error responses without
    interpreting them.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 10_000,
        max_inflight_feeds: int = 64,
        default_byte_budget: Optional[int] = None,
        default_space_budget_words: Optional[int] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        tracer: Tracer = NULL_TRACER,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if max_inflight_feeds < 1:
            raise ValueError("max_inflight_feeds must be at least 1")
        self.max_sessions = max_sessions
        self.default_byte_budget = default_byte_budget
        self.default_space_budget_words = default_space_budget_words
        self.telemetry = telemetry
        self.tracer = tracer
        self._sessions: Dict[str, ServeSession] = {}
        self._locks: Dict[str, asyncio.Lock] = {}
        self._opened_at: Dict[str, float] = {}
        #: Hello/open-negotiated trace contexts: the session span records
        #: under the *client's* (seed, path), so the same logical span
        #: gets the same id in every process and stitching can dedupe.
        self._trace_ctx: Dict[str, TraceContext] = {}
        self._feed_gate = asyncio.Semaphore(max_inflight_feeds)
        self._feed_pending = 0
        self._closing = False
        self.sessions_total = 0
        self.open_high_water = 0

    # -- bookkeeping ----------------------------------------------------------

    @property
    def open_count(self) -> int:
        return len(self._sessions)

    def session_ids(self) -> List[str]:
        return sorted(self._sessions)

    def _get(self, session_id: str) -> ServeSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise ServeError(
                NO_SUCH_SESSION, f"no open session {session_id!r}"
            )
        return session

    def _lock(self, session_id: str) -> asyncio.Lock:
        lock = self._locks.get(session_id)
        if lock is None:
            raise ServeError(NO_SUCH_SESSION, f"no open session {session_id!r}")
        return lock

    def _admit(self, session_id: str) -> None:
        if self._closing:
            raise ServeError(SERVER_SHUTDOWN, "server is shutting down")
        if session_id in self._sessions:
            raise ServeError(
                SESSION_EXISTS, f"session {session_id!r} is already open"
            )
        if len(self._sessions) >= self.max_sessions:
            raise ServeError(
                SESSION_LIMIT,
                f"session table full ({self.max_sessions} open); close or "
                "merge sessions first",
            )

    def _install(self, session: ServeSession, *, resumed: bool) -> None:
        self._sessions[session.session_id] = session
        self._locks[session.session_id] = asyncio.Lock()
        self._opened_at[session.session_id] = _now()
        self.sessions_total += 1
        self.open_high_water = max(self.open_high_water, len(self._sessions))
        if self.telemetry.enabled:
            self.telemetry.emit(
                SessionOpened(
                    session_id=session.session_id,
                    algorithm=session.spec.name,
                    budget=session.budget,
                    start_pass=session.pass_index,
                    resumed=resumed,
                )
            )
            self.telemetry.count(
                "serve_sessions_total", help="serve sessions ever opened"
            )
            self.telemetry.set_gauge(
                "serve_sessions_open",
                len(self._sessions),
                help="serve sessions currently open (high water = peak concurrency)",
            )

    def set_trace_context(self, session_id: str, ctx: TraceContext) -> None:
        """Adopt a client-negotiated trace context for one session."""
        if session_id in self._sessions:
            self._trace_ctx[session_id] = ctx

    def _record_session_span(self, session: ServeSession, opened: float) -> None:
        sid = session.session_id
        ctx = self._trace_ctx.pop(sid, None)
        if not self.tracer.enabled:
            return
        attrs = dict(
            pairs=session.pairs_total,
            chunks=session.chunks,
            polls=session.polls,
            passes_completed=session.passes_completed,
        )
        if ctx is not None:
            # Record under the negotiated (seed, path) so the client's
            # and every relay's view of this session share one span id.
            child = Tracer.from_context(ctx)
            record = child.record_span(
                f"session:{sid}",
                category="session",
                start_s=opened,
                end_s=_now(),
                **attrs,
            )
            self.tracer.adopt([encode_span(record)])
        else:
            self.tracer.record_span(
                f"session:{sid}",
                category="session",
                start_s=opened,
                end_s=_now(),
                **attrs,
            )

    def _uninstall(self, session: ServeSession, reason: str) -> None:
        sid = session.session_id
        opened = self._opened_at.pop(sid, 0.0)
        del self._sessions[sid]
        del self._locks[sid]
        if self.telemetry.enabled:
            self.telemetry.emit(
                SessionClosed(
                    session_id=sid,
                    pairs=session.pairs_total,
                    chunks=session.chunks,
                    polls=session.polls,
                    passes_completed=session.passes_completed,
                    estimate=session.estimate_now(),
                    reason=reason,
                )
            )
            self.telemetry.set_gauge(
                "serve_sessions_open",
                len(self._sessions),
                help="serve sessions currently open (high water = peak concurrency)",
            )
        self._record_session_span(session, opened)

    # -- lifecycle ops ---------------------------------------------------------

    async def open(
        self,
        session_id: str,
        algorithm: str,
        budget: int,
        seed: Any = None,
        *,
        validate_mode: str = VALIDATE_STRICT,
        byte_budget: Optional[int] = None,
        space_budget_words: Optional[int] = None,
    ) -> ServeSession:
        """Open a fresh session on a registry algorithm."""
        self._admit(session_id)
        session = ServeSession.open(
            session_id,
            algorithm,
            budget,
            seed,
            validate_mode=validate_mode,
            byte_budget=(
                byte_budget if byte_budget is not None else self.default_byte_budget
            ),
            space_budget_words=(
                space_budget_words
                if space_budget_words is not None
                else self.default_space_budget_words
            ),
        )
        self._install(session, resumed=False)
        return session

    async def restore(self, session_id: str, state: SketchState) -> ServeSession:
        """Open a session resumed from a ``serve-session`` snapshot."""
        self._admit(session_id)
        session = ServeSession.restore_snapshot(session_id, state)
        self._install(session, resumed=True)
        return session

    def _track_feed_gate(self, delta: int) -> None:
        self._feed_pending += delta
        if self.telemetry.enabled:
            self.telemetry.set_gauge(
                "serve_feed_gate_depth", self._feed_pending, help=_FEED_GATE_HELP
            )

    async def feed(
        self, session_id: str, pairs: Sequence, *, nbytes: int = 0
    ) -> Dict[str, Any]:
        """Ingest a JSON chunk under the feed gate (global backpressure)."""
        return await self._feed(
            session_id, len(pairs), lambda session: session.feed(pairs), nbytes, "json"
        )

    async def feed_arrays(
        self, session_id: str, srcs: Any, dsts: Any, *, nbytes: int = 0
    ) -> Dict[str, Any]:
        """Ingest a binary columnar chunk under the same feed gate."""
        return await self._feed(
            session_id,
            len(srcs),
            lambda session: session.feed_arrays(srcs, dsts),
            nbytes,
            "binary",
        )

    async def _feed(
        self,
        session_id: str,
        n_pairs: int,
        ingest: Callable[[ServeSession], Dict[str, Any]],
        nbytes: int,
        wire: str,
    ) -> Dict[str, Any]:
        self._track_feed_gate(+1)
        try:
            async with self._feed_gate:
                async with self._lock(session_id):
                    session = self._get(session_id)
                    start = _now()
                    session.account_bytes(nbytes)
                    out = ingest(session)
                    if self.telemetry.enabled:
                        elapsed = _now() - start
                        self.telemetry.observe_seconds(
                            "serve_feed_seconds",
                            elapsed,
                            help="server-side wall time ingesting one chunk",
                        )
                        self.telemetry.observe_histogram(
                            "serve_op_latency_seconds",
                            elapsed,
                            help=_OP_LATENCY_HELP,
                            op="feed",
                            wire=wire,
                        )
                        self.telemetry.count(
                            "serve_session_pairs_total",
                            n_pairs,
                            help="adjacency pairs ingested across all serve sessions",
                        )
                        self.telemetry.count(
                            "serve_session_chunks_total",
                            help="feed chunks ingested across all serve sessions",
                        )
                        if nbytes:
                            self.telemetry.count(
                                "serve_bytes_total",
                                nbytes,
                                help="approximate request payload bytes accepted",
                            )
                    return out
        finally:
            self._track_feed_gate(-1)

    async def finish_pass(self, session_id: str) -> Dict[str, Any]:
        async with self._lock(session_id):
            return self._get(session_id).finish_pass()

    async def poll(self, session_id: str, **kwargs: Any) -> Dict[str, Any]:
        async with self._lock(session_id):
            session = self._get(session_id)
            start = _now()
            out = session.poll(**kwargs)
            if self.telemetry.enabled:
                elapsed = _now() - start
                self.telemetry.observe_seconds(
                    "serve_poll_seconds",
                    elapsed,
                    help="server-side wall time answering one poll",
                )
                self.telemetry.observe_histogram(
                    "serve_op_latency_seconds",
                    elapsed,
                    help=_OP_LATENCY_HELP,
                    op="poll",
                    wire="json",
                )
                self.telemetry.count(
                    "serve_polls_total", help="anytime-estimate polls answered"
                )
            return out

    async def snapshot(self, session_id: str) -> SketchState:
        async with self._lock(session_id):
            start = _now()
            state = self._get(session_id).snapshot_state()
            if self.telemetry.enabled:
                self.telemetry.observe_histogram(
                    "serve_op_latency_seconds",
                    _now() - start,
                    help=_OP_LATENCY_HELP,
                    op="snapshot",
                    wire="json",
                )
                self.telemetry.count(
                    "serve_snapshots_total",
                    help="session snapshots taken (client-requested or shutdown)",
                )
            return state

    async def stats(self, session_id: str) -> Dict[str, Any]:
        async with self._lock(session_id):
            return self._get(session_id).stats()

    async def close(self, session_id: str, reason: str = "client") -> Dict[str, Any]:
        """Close one session, returning its closing stats."""
        async with self._lock(session_id):
            session = self._get(session_id)
            out = session.stats()
            self._uninstall(session, reason)
            return out

    # -- merge -----------------------------------------------------------------

    async def merge(
        self,
        target_id: str,
        source_ids: Sequence[str],
        *,
        merge_seed: int = 0,
        close_sources: bool = True,
    ) -> ServeSession:
        """Fold sibling sessions' sketches into one new session.

        Sources must sit at the same pass boundary (no pass in progress),
        share spec, budget and origin state — the same preconditions the
        sharded driver's pass-boundary merge enjoys by construction.  The
        merged session opens at that boundary under ``target_id``; its
        next pass may legally cover a different slice of the stream than
        any source saw (per-pass length checks restart), which is exactly
        how shard → full-stream pass sequences work.
        """
        merge_start = _now()
        if len(source_ids) < 1:
            raise ServeError(MERGE_INCOMPATIBLE, "merge needs at least one source")
        if len(set(source_ids)) != len(source_ids):
            raise ServeError(MERGE_INCOMPATIBLE, "duplicate merge source ids")
        self._admit(target_id)
        sources = [self._get(sid) for sid in source_ids]
        locks = [self._lock(sid) for sid in source_ids]
        for lock in locks:
            await lock.acquire()
        try:
            first = sources[0]
            for other in sources[1:]:
                if other.merge_fingerprint() != first.merge_fingerprint():
                    raise ServeError(
                        MERGE_INCOMPATIBLE,
                        f"sessions {first.session_id!r} and {other.session_id!r} "
                        f"disagree on (algorithm, budget, pass position): "
                        f"{first.merge_fingerprint()} vs {other.merge_fingerprint()}",
                    )
            if first.pass_started:
                raise ServeError(
                    MERGE_INCOMPATIBLE,
                    "merge requires all sources at a pass boundary "
                    "(finish_pass first)",
                )
            for session in sources:
                if not supports_snapshot(session.algorithm):
                    raise ServeError(
                        UNSUPPORTED,
                        f"algorithm {session.spec.name!r} has no sketch state; "
                        "its sessions cannot be merged",
                    )
            origin = first.origin_state
            for other in sources[1:]:
                if other.origin_state != origin:
                    raise ServeError(
                        MERGE_INCOMPATIBLE,
                        f"sessions {first.session_id!r} and {other.session_id!r} "
                        "started from different origin states (different seeds "
                        "or budgets); their counters share no merge base",
                    )
            snapshots = [session.algorithm.snapshot() for session in sources]
            try:
                merged_state = merge_states(snapshots, base=origin, seed=merge_seed)
            except MergeError as exc:
                raise ServeError(MERGE_INCOMPATIBLE, str(exc)) from exc
            from repro.sketch.driver import restore_algorithm

            algorithm = restore_algorithm(merged_state)
            merged = ServeSession(
                target_id,
                first.spec,
                algorithm,
                budget=first.budget,
                validate_mode=first.validate_mode,
                byte_budget=first.byte_budget,
                space_budget_words=first.space_budget_words,
                # The merged state is the new lineage fork point: sessions
                # forked from here (snapshot -> restore) merge with *it* as
                # their base, mirroring run_sharded's per-pass base threading.
                origin_state=merged_state,
            )
            merged.pass_index = first.pass_index
            merged.passes_completed = first.passes_completed
            merged.done = first.done
            merged.pairs_total = sum(s.pairs_total for s in sources)
            self._install(merged, resumed=False)
            if self.telemetry.enabled:
                self.telemetry.emit(
                    SessionsMerged(
                        target_id=target_id,
                        source_ids=",".join(source_ids),
                        n_sources=len(sources),
                    )
                )
                self.telemetry.count(
                    "serve_merges_total",
                    help="cross-session sketch merges performed",
                )
                self.telemetry.observe_histogram(
                    "serve_op_latency_seconds",
                    _now() - merge_start,
                    help=_OP_LATENCY_HELP,
                    op="merge",
                    wire="json",
                )
            if close_sources:
                for session in sources:
                    self._uninstall(session, "merged")
            return merged
        finally:
            for lock in locks:
                if lock.locked():
                    lock.release()

    # -- checkpointing / shutdown ----------------------------------------------

    async def checkpoint_all(self, directory: Any) -> Dict[str, Any]:
        """Freeze every snapshot-capable live session to ``directory``.

        Writes one atomic sketch-state file per session plus a manifest
        mapping session ids to filenames; sessions whose algorithms lack
        snapshot support are listed as skipped rather than failing the
        checkpoint.  Sessions stay open afterwards.  Snapshots are taken
        under the per-session lock, but all file I/O runs off the event
        loop (``asyncio.to_thread``) so other sessions keep feeding while
        the checkpoint streams to disk.
        """
        directory = Path(directory)
        await asyncio.to_thread(_mkdir_sync, directory)
        saved: Dict[str, str] = {}
        skipped: List[str] = []
        for index, sid in enumerate(self.session_ids()):
            async with self._lock(sid):
                session = self._get(sid)
                if not supports_snapshot(session.algorithm):
                    skipped.append(sid)
                    continue
                filename = f"session-{index:05d}.sketch"
                state = session.snapshot_state()
                await asyncio.to_thread(state.save, directory / filename)
                saved[sid] = filename
                if self.telemetry.enabled:
                    self.telemetry.count(
                        "serve_snapshots_total",
                        help="session snapshots taken (client-requested or shutdown)",
                    )
        manifest = {"version": 1, "sessions": saved, "skipped": sorted(skipped)}
        await asyncio.to_thread(_write_manifest_sync, directory, manifest)
        if self.telemetry.enabled:
            self.telemetry.emit(
                ServeCheckpointed(directory=str(directory), sessions=len(saved))
            )
        return {"directory": str(directory), "sessions": len(saved), "skipped": skipped}

    async def load_checkpoints(self, directory: Any) -> List[str]:
        """Resurrect every session a :meth:`checkpoint_all` run saved."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        raw = await asyncio.to_thread(_read_manifest_sync, manifest_path)
        if raw is None:
            raise ServeError(
                BAD_STATE, f"no checkpoint manifest at {manifest_path}"
            )
        manifest = json.loads(raw)
        restored: List[str] = []
        for sid, filename in sorted(manifest.get("sessions", {}).items()):
            state = await asyncio.to_thread(SketchState.load, directory / filename)
            await self.restore(sid, state)
            restored.append(sid)
        return restored

    async def shutdown(
        self, checkpoint_dir: Optional[Any] = None
    ) -> Dict[str, Any]:
        """Stop admitting sessions; optionally checkpoint, then close all.

        Safe under cancellation in the sense that it never leaves the
        manager half-admitting: the closing flag flips first.
        """
        self._closing = True
        out: Dict[str, Any] = {"checkpointed": 0}
        if checkpoint_dir is not None and self._sessions:
            summary = await self.checkpoint_all(checkpoint_dir)
            out["checkpointed"] = summary["sessions"]
            out["checkpoint_dir"] = summary["directory"]
        for sid in self.session_ids():
            async with self._lock(sid):
                self._uninstall(self._get(sid), "shutdown")
        out["closed"] = True
        return out
