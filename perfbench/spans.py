"""Span-recording shims around the public entry points of each layer.

The benchmark installs these in whichever process runs a layer (its own
process for the batch workload, the serving processes for the served
ones).  Nothing under ``src/`` knows about them: :func:`install_batch` and
:func:`install_serve` replace functions and methods with wrappers, by
identity wherever a module imported a function by name, so every caller
goes through the wrapper.

A span records its name, its duration and how much of that its child
spans covered; the parent link is a :class:`contextvars.ContextVar`, so
spans nest correctly inside asyncio tasks that interleave.  Spans are
folded into per-name totals in memory and read out once, at the end of
the run (:meth:`Recorder.ledger`).  While the recorder is disabled every
wrapper is one attribute test plus the original call.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class _Node:
    """An open span: its name and the time its children have covered."""

    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Recorder:
    """Per-span-name totals: calls, wall seconds, self seconds; plus counts."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.pass_of: Dict[int, int] = {}

    def reset(self) -> None:
        self.spans = {}
        self.counts = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, name: str, node: _Node, parent: Optional[_Node], elapsed: float) -> None:
        if parent is not None:
            parent.child += elapsed
        totals = self.spans.get(name)
        if totals is None:
            totals = self.spans[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += elapsed
        totals[2] += elapsed - node.child

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        parent = _CURRENT.get()
        node = _Node(name)
        token = _CURRENT.set(node)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _now() - start
            _CURRENT.reset(token)
            self._close(name, node, parent, elapsed)

    async def acall(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        parent = _CURRENT.get()
        node = _Node(name)
        token = _CURRENT.set(node)
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            elapsed = _now() - start
            _CURRENT.reset(token)
            self._close(name, node, parent, elapsed)

    def ledger(self) -> Dict[str, Any]:
        return {
            "spans": {
                name: {"calls": int(c), "wall_s": w, "self_s": s}
                for name, (c, w, s) in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def current_name() -> Optional[str]:
    node = _CURRENT.get()
    return node.name if node is not None else None


def _wrap(recorder: Recorder, original: Callable, name: Any) -> Callable:
    """``name`` is a span name, or ``f(args) -> name`` (``None`` = untraced)."""
    namer = name if callable(name) else None

    if asyncio.iscoroutinefunction(original):

        @functools.wraps(original)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return await original(*args, **kwargs)
            label = namer(args) if namer is not None else name
            if label is None:
                return await original(*args, **kwargs)
            return await recorder.acall(label, original, args, kwargs)

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return original(*args, **kwargs)
        label = namer(args) if namer is not None else name
        if label is None:
            return original(*args, **kwargs)
        return recorder.call(label, original, args, kwargs)

    return wrapper


def wrap_method(recorder: Recorder, cls: type, attr: str, name: Any) -> None:
    setattr(cls, attr, _wrap(recorder, getattr(cls, attr), name))


def wrap_function(recorder: Recorder, module: Any, attr: str, name: Any) -> None:
    """Replace ``module.attr`` and every ``from module import attr`` copy."""
    original = getattr(module, attr)
    wrapper = _wrap(recorder, original, name)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if (
            namespace is not None
            and getattr(loaded, "__name__", "").startswith(("repro", "perfbench"))
            and namespace.get(attr) is original
        ):
            setattr(loaded, attr, wrapper)


# -- layer tables ---------------------------------------------------------------

#: Counter classes by registry name, with the short key used in metric names.
COUNTERS = {"triangle-two-pass": "triangle", "fourcycle-two-pass": "fourcycle"}


def _install_core(recorder: Recorder) -> None:
    from repro.streaming.registry import get as get_spec

    for spec_name, key in COUNTERS.items():
        cls = type(get_spec(spec_name).make(8, seed=0))
        prefix = f"core.{key}."
        pass_of = recorder.pass_of

        def begin_pass(args: tuple, prefix: str = prefix) -> str:
            pass_of[id(args[0])] = args[1]
            return prefix + "pass_boundary"

        def process_list(args: tuple, prefix: str = prefix) -> str:
            first = pass_of.get(id(args[0]), 0) == 0
            return prefix + ("admit" if first else "pass1_process")

        def begin_list(args: tuple, prefix: str = prefix) -> str:
            parent = current_name()
            if parent == "runner.run":
                recorder.count("runner.lists")
            elif parent is not None and parent.startswith("session."):
                recorder.count("session.lists")
            return prefix + "begin_list"

        wrap_method(recorder, cls, "begin_pass", begin_pass)
        wrap_method(recorder, cls, "end_pass", prefix + "pass_boundary")
        wrap_method(recorder, cls, "begin_list", begin_list)
        wrap_method(recorder, cls, "process_list", process_list)
        wrap_method(recorder, cls, "end_list", prefix + "detect")
        wrap_method(recorder, cls, "space_words", prefix + "space_poll")
        wrap_method(recorder, cls, "current_estimate", prefix + "estimate")
        wrap_method(recorder, cls, "result", prefix + "estimate")
        wrap_method(recorder, cls, "snapshot", prefix + "snapshot")


def install_batch(recorder: Recorder) -> None:
    """Shims for the offline path: the pass driver, the counters, the codec."""
    import repro.sketch.state as state
    import repro.streaming.runner as runner

    wrap_function(recorder, runner, "run_algorithm", "runner.run")
    wrap_method(recorder, state.SketchState, "to_json_dict", "sketch.state_encode")
    _install_core(recorder)


def install_serve(recorder: Recorder) -> None:
    """Shims for every layer a serving process runs."""
    import repro.serve.manager as manager
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    import repro.serve.session as session
    import repro.streaming.stream as stream

    install_batch(recorder)

    validator = stream.PairSequenceValidator

    def validator_feed(args: tuple) -> str:
        if current_name() == "validator.feed_array":
            recorder.count("validator.fallbacks")
        return "validator.feed"

    wrap_method(recorder, validator, "feed_pair", "validator.feed_pair")
    wrap_method(recorder, validator, "feed", validator_feed)
    wrap_method(recorder, validator, "feed_array", "validator.feed_array")
    wrap_method(recorder, validator, "finish", "validator.finish")

    def decode_frame(args: tuple) -> str:
        recorder.count("protocol.bytes_in", len(args[0]))
        return "protocol.decode"

    def decode_binary_body(args: tuple) -> str:
        recorder.count("protocol.bytes_in", protocol.BINARY_HEADER_BYTES + len(args[0]))
        return "protocol.decode"

    wrap_function(recorder, protocol, "decode_frame", decode_frame)
    wrap_function(recorder, protocol, "decode_binary_header", "protocol.decode")
    wrap_function(recorder, protocol, "decode_binary_body", decode_binary_body)
    wrap_function(recorder, protocol, "decode_pairs", "protocol.decode")
    wrap_function(recorder, protocol, "decode_state", "protocol.decode")
    wrap_function(recorder, protocol, "encode_frame", "protocol.encode")
    wrap_function(recorder, protocol, "encode_state", "protocol.encode")

    sess = session.ServeSession
    wrap_method(recorder, sess, "feed", "session.feed")
    wrap_method(recorder, sess, "feed_arrays", "session.feed")
    wrap_method(recorder, sess, "finish_pass", "session.finish")
    traced_finish = sess.finish_pass

    def finish_pass(self: Any, *args: Any, **kwargs: Any) -> Any:
        out = traced_finish(self, *args, **kwargs)
        key = COUNTERS.get(self.spec.name)
        # Offers happen in pass 0 only: count them once, when it closes.
        if recorder.enabled and self.passes_completed == 1 and key is not None:
            gauges = self.algorithm.observables()
            recorder.count(f"core.{key}.offers", gauges.get("edge_offers_total", 0))
            recorder.count(f"core.{key}.accepted", gauges.get("edge_offers_accepted", 0))
        return out

    sess.finish_pass = finish_pass
    wrap_method(recorder, sess, "poll", "session.poll")
    wrap_method(recorder, sess, "snapshot_state", "session.snapshot")

    mgr = manager.SessionManager
    for attr, label in (
        ("feed", "manager.feed"),
        ("feed_arrays", "manager.feed"),
        ("poll", "manager.poll"),
        ("finish_pass", "manager.finish"),
        ("snapshot", "manager.snapshot"),
        ("open", "manager.open"),
        ("close", "manager.close"),
    ):
        wrap_method(recorder, mgr, attr, label)

    wrap_function(recorder, server, "handle_request", "server.handle")
