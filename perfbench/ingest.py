"""serve-ingest: one strict session per counter over TCP to a single
``ServeServer`` in its own process, on dense ``gnm_random_graph(4000, 400000)``.

Per counter, one round opens a session and streams both passes as
pipelined binary frames of 1024 pairs; the writer keeps up to
``WINDOW_BYTES`` unacknowledged on the socket.  Halfway through pass 0
the pipeline is drained and, on the triangle session only, one
``snapshot`` is taken; then ``POLL_BATCHES`` batches of ``POLLS``
sequential polls are timed.  The
ingest clock runs only while frames and ``finish_pass`` are in flight, so
it excludes the snapshot and the polls.

``feed`` latency here is the per-frame service interval: the gap between
consecutive feed responses of the pipelined stream, which does not depend
on how deep the client fills the pipe.  Latency percentiles are taken per
session (over 1000 samples each) and the median over sessions reported.  Every timed segment is bracketed
by host-speed probes (``common.host_speed``, run in the server process)
and scaled to nominal speed.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional

from perfbench.common import BenchError, ServerProcess, clock

N_VERTICES = 4_000
N_EDGES = 400_000
CHUNK_PAIRS = 1024
BUDGET = 512
POLLS = 1000
POLL_BATCHES = 3
WINDOW_BYTES = 1 << 20
COUNTERS = ("triangle-two-pass", "fourcycle-two-pass")


def build_inputs(seed: int) -> Dict[str, Any]:
    """Stream, pre-encoded binary frames per counter, offline references."""
    import numpy as np

    from repro.graph.generators import gnm_random_graph
    from repro.serve.protocol import encode_binary_feed
    from repro.streaming.registry import get as get_spec
    from repro.streaming.runner import run_algorithm
    from repro.streaming.stream import AdjacencyListStream

    graph = gnm_random_graph(N_VERTICES, N_EDGES, seed=seed)
    stream = AdjacencyListStream(graph, seed=seed + 1)
    columns = np.array(list(stream.iter_pairs()), dtype=np.uint64)
    srcs = np.ascontiguousarray(columns[:, 0])
    dsts = np.ascontiguousarray(columns[:, 1])
    frames = {}
    references = {}
    for name in COUNTERS:
        sid = f"ingest-{name}"
        frames[name] = [
            encode_binary_feed(index, sid, srcs[i : i + CHUNK_PAIRS], dsts[i : i + CHUNK_PAIRS])
            for index, i in enumerate(range(0, len(srcs), CHUNK_PAIRS))
        ]
        references[name] = run_algorithm(get_spec(name).make(BUDGET, seed=seed + 2), stream).estimate
    return {"frames": frames, "references": references, "algo_seed": seed + 2,
            "pairs": int(len(srcs))}


class _Link:
    """One client connection with in-order response reading."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def rpc(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.writer.write((json.dumps(message) + "\n").encode())
        await self.writer.drain()
        reply = json.loads(await self.reader.readline())
        if not reply.get("ok"):
            raise BenchError(f"{message.get('op')} failed: {reply.get('error')}")
        return reply

    async def pipeline(self, frames: List[bytes], gaps: List[float],
                       tail: Optional[bytes] = None) -> Dict[str, Any]:
        """Write ``frames`` (and ``tail``) pipelined; read every response."""
        count = len(frames) + (1 if tail is not None else 0)
        last: Dict[str, Any] = {}

        async def read_all() -> None:
            nonlocal last
            previous = None
            for index in range(count):
                line = await self.reader.readline()
                now = clock()
                reply = json.loads(line)
                if not reply.get("ok"):
                    raise BenchError(f"feed failed: {reply.get('error')}")
                if previous is not None and index < len(frames):
                    gaps.append(now - previous)
                previous = now
                last = reply

        reading = asyncio.ensure_future(read_all())
        try:
            for frame in frames:
                self.writer.write(frame)
                if self.writer.transport.get_write_buffer_size() > WINDOW_BYTES:
                    await self.writer.drain()
                if reading.done():
                    break
            if tail is not None:
                self.writer.write(tail)
            await self.writer.drain()
            await reading
        finally:
            if not reading.done():
                reading.cancel()
        return last


async def _session(port: int, name: str, inputs: Dict[str, Any], snapshot: bool,
                   out: Dict[str, Any]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
    link = _Link(reader, writer)
    sid = f"ingest-{name}"
    frames = inputs["frames"][name]
    half = len(frames) // 2
    finish = (json.dumps({"id": -1, "op": "finish_pass", "session": sid}) + "\n").encode()
    try:
        await link.rpc({"id": 0, "op": "hello", "binary": 1})
        await link.rpc({"id": 0, "op": "open", "session": sid, "algorithm": name,
                        "budget": BUDGET, "seed": inputs["algo_seed"]})
        # Each timed segment is bracketed by host-speed probes, run in the
        # server process, and scaled.
        async def host_speed() -> float:
            return float((await link.rpc({"id": 9, "op": "perfbench", "action": "speed"}))["speed"])

        speed = await host_speed()
        begin = clock()
        gaps: List[float] = []
        await link.pipeline(frames[:half], gaps)
        first = clock() - begin
        mid = await host_speed()
        ingest = first * (speed + mid) / 2
        session_gaps = [g * (speed + mid) / 2 for g in gaps]
        if snapshot:
            begin = clock()
            writer.write((json.dumps({"id": 1, "op": "snapshot", "session": sid}) + "\n").encode())
            await writer.drain()
            line = await reader.readline()
            elapsed = clock() - begin
            after = await host_speed()
            out["snapshot_s"] = elapsed * (mid + after) / 2
            out["snapshot_raw_s"] = elapsed
            mid = after
            reply = json.loads(line)
            if not reply.get("ok"):
                raise BenchError(f"snapshot failed: {reply.get('error')}")
            out["snapshot_bytes"] = len(line)
            out["validator_bytes"] = len(json.dumps(reply["state"]["payload"].get("validator")))
        poll = (json.dumps({"id": 2, "op": "poll", "session": sid}) + "\n").encode()
        for _ in range(POLL_BATCHES):
            polls = []
            for _ in range(POLLS):
                begin = clock()
                writer.write(poll)
                await writer.drain()
                reply = json.loads(await reader.readline())
                polls.append(clock() - begin)
                if not reply.get("ok"):
                    raise BenchError(f"poll failed: {reply.get('error')}")
            after = await host_speed()
            out["poll_batches"].append([p * (mid + after) / 2 for p in polls])
            out["poll_raw_s"] += sum(polls)
            mid = after
        begin = clock()
        gaps = []
        await link.pipeline(frames[half:], gaps, tail=finish)
        final = await link.pipeline(frames, gaps, tail=finish)
        rest = clock() - begin
        after = await host_speed()
        ingest += rest * (mid + after) / 2
        session_gaps.extend(g * (mid + after) / 2 for g in gaps)
        out["gap_batches"].append(session_gaps)
        out["raw_ingest_s"] += first + rest
        out["ingest_s"][name] = ingest
        out[name] = 2 * inputs["pairs"] / ingest
        if final.get("estimate") != inputs["references"][name]:
            out["mismatches"].append(
                f"{name}: served {final.get('estimate')!r} != offline {inputs['references'][name]!r}"
            )
        await link.rpc({"id": 3, "op": "close", "session": sid})
    finally:
        writer.close()
        await writer.wait_closed()


def run_round(server: ServerProcess, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Both counters once against ``server``."""
    out: Dict[str, Any] = {"gap_batches": [], "poll_batches": [], "mismatches": [], "ingest_s": {},
                           "raw_ingest_s": 0.0, "poll_raw_s": 0.0, "snapshot_raw_s": 0.0}

    async def both() -> None:
        for name in COUNTERS:
            await _session(server.port, name, inputs, name == COUNTERS[0], out)

    asyncio.run(both())
    out["combined"] = 4 * inputs["pairs"] / sum(out["ingest_s"].values())
    return out


async def _control(port: int, action: str) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
    try:
        return await _Link(reader, writer).rpc({"id": 0, "op": "perfbench", "action": action})
    finally:
        writer.close()
        await writer.wait_closed()


def control(server: ServerProcess, action: str) -> Dict[str, Any]:
    """Switch span recording in the server, or collect its ledger."""
    return asyncio.run(_control(server.port, action))
