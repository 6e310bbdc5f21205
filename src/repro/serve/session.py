"""One tenant's stream: a registry algorithm fed incrementally.

A :class:`ServeSession` is chunk buffering and validation in front of a
:class:`~repro.streaming.runner.PassDriver`, the same driver the batch
runner (:func:`repro.streaming.runner.run_algorithm`) pushes lists into:

* both wires take one ingest path.  A JSON chunk becomes two columns
  (``uint64`` when every label is an int that fits, otherwise
  ``dtype=object``) and goes through :meth:`ServeSession.feed_arrays`,
  where binary frames arrive directly;
* a chunk is split at source changes; every list it closes is pushed into
  the driver, and the last one stays buffered until a pair with a new
  source (or :meth:`~ServeSession.finish_pass`) closes it;
* ``begin_pass`` is lazy (first chunk of the pass), ``end_pass`` runs in
  :meth:`~ServeSession.finish_pass` after the final open list is pushed.

Because the driver is shared, a session's estimates are **bit-identical**
to an offline ``run_algorithm`` over the same pairs — that property is
what the serve benchmarks gate on.

The first pass is validated incrementally with the same
:class:`~repro.streaming.stream.PairSequenceValidator` the CLI's
``validate`` command uses; later passes are checked for length against
the first (streams must replay identically).  A chunk that fails
validation ingests exactly the pairs before the offending one, on either
wire.

Sessions are deliberately synchronous and transport-free — the asyncio
layer (:mod:`repro.serve.manager`) wraps them in per-session locks.
Everything here raises :class:`~repro.serve.protocol.ServeError` with a
stable code, never transport exceptions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.diagnostics import THEOREM_FOURCYCLE, THEOREM_TRIANGLE, diagnose
from repro.serve.protocol import (
    BAD_REQUEST,
    BAD_STATE,
    BUDGET_EXCEEDED,
    NO_SUCH_ALGORITHM,
    SESSION_DONE,
    SESSION_STATE_KIND,
    SESSION_STATE_VERSION,
    SPACE_BUDGET_EXCEEDED,
    STREAM_FORMAT,
    UNSUPPORTED,
    VALIDATE_MODES,
    VALIDATE_OFF,
    VALIDATE_STRICT,
    ServeError,
)
from repro.sketch.state import SketchState, SketchStateError
from repro.streaming.algorithm import (
    StreamingAlgorithm,
    supports_current_estimate,
    supports_snapshot,
)
from repro.streaming.registry import AlgorithmSpec, get as get_spec
from repro.streaming.runner import PassDriver
from repro.streaming.stream import PairSequenceValidator, StreamFormatError
from repro.util.vectorized import as_vertex_array

__all__ = ["ServeSession"]

_NO_LABELS = np.empty(0, dtype=np.uint64)


def _pair_columns(pairs: Sequence[Tuple[Any, Any]]) -> Tuple[np.ndarray, np.ndarray]:
    """A JSON chunk as source and neighbour columns.

    ``uint64`` columns (what a binary frame carries) when every label is
    an ``int`` that fits, otherwise ``dtype=object`` columns holding the
    labels themselves — strings, negative or huge ints.  Both ingest
    identically; only a ``uint64`` column is ever handed to an algorithm.
    """
    if not pairs:
        return _NO_LABELS, _NO_LABELS
    srcs, dsts = zip(*pairs)
    if set(map(type, srcs)).union(map(type, dsts)) == {int}:
        src_col, dst_col = as_vertex_array(srcs), as_vertex_array(dsts)
        if src_col is not None and dst_col is not None:
            return src_col, dst_col
    n = len(srcs)
    return np.fromiter(srcs, object, n), np.fromiter(dsts, object, n)


def _fresh_column(vertex: Any, neighbors: Any) -> Any:
    """The conversion the algorithms perform themselves, for lists that no
    single ``uint64`` chunk slice covers."""
    return as_vertex_array(neighbors)


def _nested_state(state: SketchState) -> Dict[str, Any]:
    """An inner sketch state as a plain dict inside a session payload.

    The *outer* session state's codec handles tuples/sets recursively, so
    the inner payload rides along untouched and round-trips structurally
    equal.
    """
    return {"kind": state.kind, "version": state.version, "payload": state.payload}


def _unnest_state(blob: Any) -> SketchState:
    if not isinstance(blob, dict):
        raise SketchStateError("nested sketch state must be a dict")
    return SketchState(
        kind=str(blob["kind"]), version=int(blob["version"]), payload=blob["payload"]
    )


class ServeSession:
    """A registry algorithm being fed one adjacency-list stream.

    Build fresh instances with :meth:`open`, resurrect snapshots with
    :meth:`restore_snapshot`.  ``origin_state`` — the algorithm's sketch
    state at the moment the lineage started (before any pairs) — is kept
    for the whole life of the session: it is the merge *base* that turns
    sibling sessions' counters into deltas (see
    :func:`repro.sketch.merge.merge_states`).
    """

    def __init__(
        self,
        session_id: str,
        spec: AlgorithmSpec,
        algorithm: StreamingAlgorithm,
        *,
        budget: int,
        validate_mode: str = VALIDATE_STRICT,
        byte_budget: Optional[int] = None,
        space_budget_words: Optional[int] = None,
        origin_state: Optional[SketchState] = None,
    ):
        if validate_mode not in VALIDATE_MODES:
            raise ServeError(
                BAD_REQUEST,
                f"validate mode {validate_mode!r} not in {VALIDATE_MODES}",
            )
        self.session_id = session_id
        self.spec = spec
        self.algorithm = algorithm
        self.budget = budget
        self.validate_mode = validate_mode
        self.byte_budget = byte_budget
        self.space_budget_words = space_budget_words
        self.origin_state = origin_state

        # A list that maps 1:1 onto one chunk slice hands that slice to the
        # driver as its column instead of being converted again.
        self.driver = PassDriver(algorithm, column_provider=_fresh_column)
        self.pass_index = 0
        self.passes_completed = 0
        self.done = False
        self.pairs_total = 0
        self.pairs_this_pass = 0
        self.pairs_per_pass: Optional[int] = None
        self.chunks = 0
        self.polls = 0
        self.bytes_used = 0
        self._open_list: Optional[Tuple[Any, List[Any]]] = None
        self._open_column: Optional[np.ndarray] = None
        self._validator: Optional[PairSequenceValidator] = None
        if validate_mode != VALIDATE_OFF:
            self._validator = PairSequenceValidator(
                check_reverse=(validate_mode == VALIDATE_STRICT)
            )

    @property
    def pass_started(self) -> bool:
        """Whether ``begin_pass`` has run for the current pass."""
        return self.driver.in_pass

    @property
    def lists_this_pass(self) -> int:
        """Lists of the current pass already pushed through the hooks."""
        return self.driver.lists_done if self.driver.in_pass else 0

    # -- construction --------------------------------------------------------

    @classmethod
    def open(
        cls,
        session_id: str,
        algorithm_name: str,
        budget: int,
        seed: Any = None,
        *,
        validate_mode: str = VALIDATE_STRICT,
        byte_budget: Optional[int] = None,
        space_budget_words: Optional[int] = None,
    ) -> "ServeSession":
        """A fresh session on a registry algorithm.

        ``origin_state`` is captured immediately (for algorithms with
        snapshot support) so later merges have their base even if the
        client never snapshots explicitly.
        """
        try:
            spec = get_spec(algorithm_name)
        except KeyError as exc:
            raise ServeError(NO_SUCH_ALGORITHM, str(exc)) from exc
        if budget < 1:
            raise ServeError(BAD_REQUEST, "budget must be a positive integer")
        algorithm = spec.make(budget, seed=seed)
        origin = algorithm.snapshot() if supports_snapshot(algorithm) else None
        return cls(
            session_id,
            spec,
            algorithm,
            budget=budget,
            validate_mode=validate_mode,
            byte_budget=byte_budget,
            space_budget_words=space_budget_words,
            origin_state=origin,
        )

    # -- feeding -------------------------------------------------------------

    def _require_live(self) -> None:
        if self.done:
            raise ServeError(
                SESSION_DONE,
                f"session {self.session_id!r} already completed all "
                f"{self.algorithm.n_passes} passes",
            )

    def account_bytes(self, nbytes: int) -> None:
        """Charge a request's payload against the session byte budget."""
        if self.byte_budget is not None and self.bytes_used + nbytes > self.byte_budget:
            raise ServeError(
                BUDGET_EXCEEDED,
                f"session {self.session_id!r} byte budget exhausted: "
                f"{self.bytes_used} + {nbytes} > {self.byte_budget}",
            )
        self.bytes_used += nbytes

    def _begin_pass_lazily(self) -> None:
        if not self.driver.in_pass:
            self.driver.begin_pass(self.pass_index)

    def _close_open_list(self) -> None:
        """Push the buffered adjacency list through the driver."""
        if self._open_list is not None:
            (vertex, neighbors), column = self._open_list, self._open_column
            self._open_list = self._open_column = None
            self.driver.feed_list(vertex, neighbors, column)

    def _buffer(self, srcs: np.ndarray, dsts: np.ndarray) -> None:
        """Split a chunk at source changes: push every list it closes, keep
        the last one open."""
        n = len(srcs)
        if not n:
            return
        starts = [0, *(np.flatnonzero(srcs[1:] != srcs[:-1]) + 1).tolist(), n]
        dst_list = dsts.tolist()
        for head, lo, hi in zip(srcs[starts[:-1]].tolist(), starts, starts[1:]):
            if self._open_list is not None and self._open_list[0] == head:
                self._open_list[1].extend(dst_list[lo:hi])
                self._open_column = None  # spans chunks: no single slice
            else:
                self._close_open_list()
                self._open_list = (head, dst_list[lo:hi])
                self._open_column = dsts[lo:hi]
        self.pairs_this_pass += n
        self.pairs_total += n

    def feed(self, pairs: Sequence[Tuple[Any, Any]]) -> Dict[str, Any]:
        """Ingest one JSON chunk of ``(source, neighbour)`` pairs.

        The chunk becomes two columns and takes the binary wire's path,
        :meth:`feed_arrays`.
        """
        return self.feed_arrays(*_pair_columns(pairs))

    def feed_arrays(self, srcs: Any, dsts: Any) -> Dict[str, Any]:
        """Ingest one chunk given as two equal-length columns.

        Chunk boundaries are invisible to the algorithm: a list split
        across chunks is buffered until its source changes.  Raises
        ``STREAM_FORMAT`` on a model violation (first pass) after
        ingesting exactly the pairs before the offending one, and
        ``SPACE_BUDGET_EXCEEDED`` when the algorithm's live state outgrows
        the session's cap.
        """
        self._require_live()
        self._begin_pass_lazily()
        validator = self._validator if self.pass_index == 0 else None
        if validator is not None:
            seen = validator.pairs_seen
            try:
                validator.feed_array(srcs, dsts)
            except StreamFormatError as exc:
                accepted = validator.pairs_seen - seen
                self._buffer(srcs[:accepted], dsts[:accepted])
                raise ServeError(STREAM_FORMAT, str(exc)) from exc
        self._buffer(srcs, dsts)
        self.chunks += 1
        if (
            self.pairs_per_pass is not None
            and self.pairs_this_pass > self.pairs_per_pass
        ):
            raise ServeError(
                STREAM_FORMAT,
                f"pass {self.pass_index} is longer than pass 0 "
                f"({self.pairs_this_pass} > {self.pairs_per_pass} pairs): "
                "multi-pass streams must replay identically",
            )
        if self.space_budget_words is not None:
            words = self.algorithm.space_words()
            if words > self.space_budget_words:
                raise ServeError(
                    SPACE_BUDGET_EXCEEDED,
                    f"session {self.session_id!r} live state {words} words "
                    f"exceeds cap {self.space_budget_words}",
                )
        return {
            "pairs": len(srcs),
            "pairs_total": self.pairs_total,
            "pass": self.pass_index,
        }

    def finish_pass(self) -> Dict[str, Any]:
        """Close the current pass: flush the open list, run end-of-pass checks.

        On the first pass this is where stream validation completes (the
        reverse-pair check needs the whole stream).  Finishing the last
        pass marks the session done and freezes the final estimate.
        """
        self._require_live()
        # An empty pass is legal (empty stream); mirror the runner, which
        # always brackets a pass even over zero lists.
        self._begin_pass_lazily()
        self._close_open_list()
        if self.pass_index == 0 and self._validator is not None:
            try:
                self._validator.finish()
            except StreamFormatError as exc:
                raise ServeError(STREAM_FORMAT, str(exc)) from exc
        if self.pairs_per_pass is not None and self.pairs_this_pass != self.pairs_per_pass:
            raise ServeError(
                STREAM_FORMAT,
                f"pass {self.pass_index} fed {self.pairs_this_pass} pairs but "
                f"pass 0 fed {self.pairs_per_pass}: multi-pass streams must "
                "replay identically",
            )
        self.driver.end_pass()
        if self.pairs_per_pass is None:
            self.pairs_per_pass = self.pairs_this_pass
        self.passes_completed += 1
        self.pass_index += 1
        pairs_this_pass = self.pairs_this_pass
        self.pairs_this_pass = 0
        if self.pass_index >= self.algorithm.n_passes:
            self.done = True
        out: Dict[str, Any] = {
            "pass": self.pass_index - 1,
            "pairs": pairs_this_pass,
            "passes_remaining": max(self.algorithm.n_passes - self.pass_index, 0),
            "done": self.done,
        }
        if self.done:
            out["estimate"] = self.algorithm.result()
        return out

    # -- polling -------------------------------------------------------------

    def estimate_now(self) -> Optional[float]:
        """The best estimate available right now (``None`` if none yet)."""
        if self.done:
            return self.algorithm.result()
        if supports_current_estimate(self.algorithm):
            return self.algorithm.current_estimate()
        return None

    def poll(
        self,
        *,
        truth: Optional[float] = None,
        m: Optional[int] = None,
        epsilon: float = 0.5,
        theorem: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The session's anytime estimate, position and space, right now.

        With ``truth`` and ``m`` supplied the estimate is additionally run
        through :func:`repro.obs.diagnostics.diagnose` and the resulting
        :class:`ConvergenceVerdict` attached flat under ``"verdict"`` —
        the same booleans the bench-report gates consume.  The theorem
        defaults from the algorithm's cycle length (3 → 3.7, 4 → 4.6).
        """
        self.polls += 1
        estimate = self.estimate_now()
        out: Dict[str, Any] = {
            "estimate": estimate,
            "pass": self.pass_index,
            "pairs_total": self.pairs_total,
            "pairs_this_pass": self.pairs_this_pass,
            "space_words": self.algorithm.space_words(),
            "done": self.done,
            "anytime": supports_current_estimate(self.algorithm),
        }
        if truth is not None and m is not None and estimate is not None:
            picked = theorem or (
                THEOREM_FOURCYCLE if self.spec.cycle_length == 4 else THEOREM_TRIANGLE
            )
            try:
                verdict = diagnose(
                    [estimate],
                    truth,
                    int(m),
                    self.budget,
                    theorem=picked,
                    epsilon=epsilon,
                )
            except ValueError as exc:
                raise ServeError(BAD_REQUEST, f"cannot diagnose: {exc}") from exc
            out["verdict"] = verdict.to_flat_dict()
        return out

    def result(self) -> float:
        """The final estimate; only available once all passes finished."""
        if not self.done:
            raise ServeError(
                BAD_REQUEST,
                f"session {self.session_id!r} has not finished its passes "
                f"({self.pass_index}/{self.algorithm.n_passes})",
            )
        return self.algorithm.result()

    # -- snapshot / restore ---------------------------------------------------

    def snapshot_state(self) -> SketchState:
        """Freeze the whole session — algorithm, validator, position — as
        one self-contained :class:`SketchState` of kind ``serve-session``.

        The algorithm is always at a list boundary when this runs (hooks
        only fire on complete lists), so its own snapshot is well-formed;
        the half-assembled open list rides along verbatim.
        """
        if not supports_snapshot(self.algorithm):
            raise ServeError(
                UNSUPPORTED,
                f"algorithm {self.spec.name!r} does not implement the sketch "
                "state protocol; sessions cannot be snapshotted",
            )
        payload: Dict[str, Any] = {
            "spec": self.spec.name,
            "budget": self.budget,
            "algorithm": _nested_state(self.algorithm.snapshot()),
            "origin": (
                _nested_state(self.origin_state)
                if self.origin_state is not None
                else None
            ),
            "pass_index": self.pass_index,
            "pass_started": self.pass_started,
            "passes_completed": self.passes_completed,
            "done": self.done,
            "pairs_total": self.pairs_total,
            "pairs_this_pass": self.pairs_this_pass,
            "pairs_per_pass": self.pairs_per_pass,
            "lists_this_pass": self.lists_this_pass,
            "chunks": self.chunks,
            "open_list": (
                (self._open_list[0], tuple(self._open_list[1]))
                if self._open_list is not None
                else None
            ),
            "validator": (
                self._validator.state_dict() if self._validator is not None else None
            ),
            "validate_mode": self.validate_mode,
            "byte_budget": self.byte_budget,
            "bytes_used": self.bytes_used,
            "space_budget_words": self.space_budget_words,
        }
        return SketchState(SESSION_STATE_KIND, SESSION_STATE_VERSION, payload)

    @classmethod
    def restore_snapshot(cls, session_id: str, state: SketchState) -> "ServeSession":
        """Resurrect a session from :meth:`snapshot_state` output.

        The restored session continues bit-exactly: same algorithm state,
        same validator bookkeeping, same half-open list, same position.
        """
        payload = state.payload
        try:
            # Version 1 differs only in the validator state, which
            # load_state_dict reads in either form.
            readable = 1 if state.version == 1 else SESSION_STATE_VERSION
            state.require(SESSION_STATE_KIND, readable)
            spec = get_spec(str(payload["spec"]))
            algorithm_state = _unnest_state(payload["algorithm"])
            from repro.sketch.driver import restore_algorithm

            algorithm = restore_algorithm(algorithm_state)
            origin_blob = payload.get("origin")
            origin = _unnest_state(origin_blob) if origin_blob is not None else None
            session = cls(
                session_id,
                spec,
                algorithm,
                budget=int(payload["budget"]),
                validate_mode=str(payload["validate_mode"]),
                byte_budget=payload.get("byte_budget"),
                space_budget_words=payload.get("space_budget_words"),
                origin_state=origin,
            )
            session.pass_index = int(payload["pass_index"])
            if payload["pass_started"]:
                session.driver.begin_pass(
                    session.pass_index,
                    resumed_lists=int(payload["lists_this_pass"]),
                )
            session.passes_completed = int(payload["passes_completed"])
            session.done = bool(payload["done"])
            session.pairs_total = int(payload["pairs_total"])
            session.pairs_this_pass = int(payload["pairs_this_pass"])
            per_pass = payload.get("pairs_per_pass")
            session.pairs_per_pass = int(per_pass) if per_pass is not None else None
            session.chunks = int(payload["chunks"])
            open_list = payload.get("open_list")
            if open_list is not None:
                src, neighbors = open_list
                session._open_list = (src, list(neighbors))
            session.bytes_used = int(payload["bytes_used"])
            validator_state = payload.get("validator")
            if validator_state is not None:
                session._validator = PairSequenceValidator()
                session._validator.load_state_dict(dict(validator_state))
            else:
                session._validator = None
        except (KeyError, TypeError, ValueError, SketchStateError) as exc:
            raise ServeError(
                BAD_STATE, f"malformed serve-session state: {exc}"
            ) from exc
        return session

    # -- merge support --------------------------------------------------------

    def merge_fingerprint(self) -> Tuple[Any, ...]:
        """What must agree for two sessions' sketches to be mergeable."""
        return (
            self.spec.name,
            self.budget,
            self.pass_index,
            self.pass_started,
            self.done,
        )

    def stats(self) -> Dict[str, Any]:
        """Position and accounting facts for the ``stats`` op."""
        return {
            "session": self.session_id,
            "algorithm": self.spec.name,
            "budget": self.budget,
            "pass": self.pass_index,
            "passes": self.algorithm.n_passes,
            "passes_completed": self.passes_completed,
            "pairs_total": self.pairs_total,
            "pairs_this_pass": self.pairs_this_pass,
            "chunks": self.chunks,
            "polls": self.polls,
            "space_words": self.algorithm.space_words(),
            "bytes_used": self.bytes_used,
            "byte_budget": self.byte_budget,
            "space_budget_words": self.space_budget_words,
            "validate_mode": self.validate_mode,
            "done": self.done,
        }
