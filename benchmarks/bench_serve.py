"""Benchmark: the serve service under a 1000-session concurrent fleet.

A plain artifact-writing script (CI runs it with ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--out PATH]
    PYTHONPATH=src python benchmarks/bench_serve.py --quick --workers 2 --binary

Starts one :class:`~repro.serve.server.ServeServer` in-process — or, with
``--workers N``, a :class:`~repro.serve.router.ServeRouter` fronting N
forked worker processes — then drives it over real TCP with the load
generator: every session streams a full two-pass planted-triangle
workload in chunks, polls anytime estimates mid-flood, and finishes to a
final estimate.  With ``--binary`` the fleet feeds via the binary
pair-batch frame instead of JSON lines.  After the fleet run, an ingest
microbench streams one dense G(n, m) graph through a single session
twice — once as JSON feed frames, once as binary frames, identical
chunking and pipelining — against the same live endpoint.

The artifact (default ``BENCH_serve.json``) records fleet size, peak
concurrency, pairs/sec, client-observed poll latency percentiles, the
bit-identity audit (every session's final estimate must equal the batch
runner's, exactly), and the JSON-vs-binary ingest comparison.

Self-declared gates (evaluated by ``repro-cycles bench-report``):

* ``serve.concurrent_peak >= 1000`` — one server process must actually
  hold the whole fleet open at once, even under ``--quick``;
* ``serve.all_bit_identical >= 1`` — serving is an execution mode, not
  an approximation: one mismatched estimate anywhere fails the bench;
* ``serve.poll_p99_seconds <= 2.0`` (direct) / ``<= 4.0`` (routed) — an
  anytime poll issued while all sessions flood feeds must still answer
  inside the latency SLO.  The ceilings are **derived from the default
  ** :class:`~repro.obs.slo.SLOPolicy` (direct = the policy's
  ``poll_p99_seconds``, routed = 2x it for the extra relay hop under a
  full-fleet flood), so CI gates and the router's live ``router_slo_*``
  gauges enforce one vocabulary;
* ``serve.hist_poll_p99_seconds`` — the p99 computed from the full
  poll-latency *histogram* the artifact now records
  (``serve.poll_histogram``, the same exponential-bounds blob the live
  ``/metrics`` endpoint exposes), guarding the sampled and the bucketed
  views against disagreeing.  Its ceiling is twice the sampled one:
  the bucketed quantile is an upper bound that can overshoot by one
  power-of-two bucket;
* ``serve.pairs_per_second >= 2000`` — a sanity floor on fleet ingest
  throughput (the quick workload does ~400k pairs; the gate only
  catches order-of-magnitude collapses, not machine noise);
* ``ingest.wire_binary_speedup >= 10`` — decoding a binary pair-batch
  frame (header unpack + ``np.frombuffer``) must beat JSON-parsing the
  equivalent feed line by an order of magnitude.  This is the layer the
  binary format replaces, so it is where the format must prove itself;
* ``ingest.binary_speedup >= 1.3`` — the *end-to-end* single-session
  gain is structurally smaller than the wire-layer gain because both
  formats share the per-pair validator and estimator-kernel cost that
  dominates once frames are cheap to decode (measured ~2x here); the
  gate guards the direction, the artifact records the real ratio;
* ``ingest.binary_pairs_per_second >= 100000`` — a floor on absolute
  binary-path ingest, an order of magnitude above the fleet-discipline
  JSON throughput this bench recorded before binary framing existed
  (~42k pairs/s), with headroom for slow CI machines (the committed
  artifact records ~613k).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.obs.metrics import histogram_quantile
from repro.obs.slo import SLOPolicy
from repro.serve.loadgen import run_ingest_async, run_load_async
from repro.serve.manager import SessionManager
from repro.serve.router import ServeRouter
from repro.serve.server import ServeServer

#: The ISSUE-level floor: quick mode may shrink graphs, never the fleet.
MIN_SESSIONS = 1000

def gates_for(workers: int, slo: SLOPolicy = None) -> list:
    """The artifact's self-declared gates, shaped by the serving mode.

    Latency ceilings are derived from the :class:`SLOPolicy` — the same
    vocabulary the router's live ``router_slo_*`` gauges enforce.  The
    poll SLO is mode-dependent: the router adds one relay hop, and
    under a full-fleet feed flood that roughly triples client-observed
    poll latency (0.8s direct vs ~2.3s routed, measured), so routed
    artifacts declare twice the policy ceiling where direct ones
    declare it as-is (defaults: 2.0s direct, 4.0s routed).
    """
    if slo is None:
        slo = SLOPolicy()
    poll_ceiling = slo.poll_p99_seconds * (1.0 if workers == 0 else 2.0)
    gates = [
        {"metric": "serve.concurrent_peak", "min": MIN_SESSIONS},
        {"metric": "serve.all_bit_identical", "min": 1},
        {"metric": "serve.poll_p99_seconds", "max": poll_ceiling},
        # The bucketed quantile reports the bucket's upper bound, which
        # can overshoot the sampled p99 by one power-of-two bucket.
        {"metric": "serve.hist_poll_p99_seconds", "max": 2.0 * poll_ceiling},
        {"metric": "serve.pairs_per_second", "min": 2000},
        {"metric": "ingest.wire_binary_speedup", "min": 10.0},
        {"metric": "ingest.binary_speedup", "min": 1.3},
        {"metric": "ingest.binary_pairs_per_second", "min": 100_000},
    ]
    if slo.feed_pairs_per_second > 0:
        gates.append(
            {"metric": "serve.pairs_per_second", "min": slo.feed_pairs_per_second}
        )
    return gates


#: Default (single-server) gate set, kept for importers and docs.
GATES = gates_for(0)


async def _drive(port, sessions, connections, chunk_pairs, use_binary):
    """Fleet run then ingest microbench, both against one live endpoint."""
    fleet = await run_load_async(
        sessions=sessions,
        host="127.0.0.1",
        port=port,
        connections=connections,
        chunk_pairs=chunk_pairs,
        use_binary=use_binary,
    )
    ingest = await run_ingest_async(host="127.0.0.1", port=port)
    return fleet, ingest


async def _run_single(sessions, connections, chunk_pairs, max_inflight_feeds,
                      use_binary):
    manager = SessionManager(
        max_sessions=max(sessions + 16, 1024),
        max_inflight_feeds=max_inflight_feeds,
    )
    server = ServeServer(manager, port=0)
    await server.start()
    server_task = asyncio.ensure_future(server.serve_until_stopped())
    try:
        return await _drive(
            server.bound_port, sessions, connections, chunk_pairs, use_binary
        )
    finally:
        server.stop()
        await server_task


async def _run_routed(router, sessions, connections, chunk_pairs, use_binary):
    await router.start()
    router_task = asyncio.ensure_future(router.serve_until_stopped())
    try:
        return await _drive(
            router.bound_port, sessions, connections, chunk_pairs, use_binary
        )
    finally:
        router.stop()
        await router_task


def run(
    quick: bool = False,
    sessions: int = None,
    connections: int = 32,
    chunk_pairs: int = 96,
    max_inflight_feeds: int = 256,
    workers: int = 0,
    binary: bool = False,
) -> dict:
    if sessions is None:
        sessions = MIN_SESSIONS if quick else 2 * MIN_SESSIONS
    if workers > 0:
        router = ServeRouter(
            workers,
            port=0,
            max_sessions=max(sessions + 16, 1024),
            max_inflight_feeds=max_inflight_feeds,
        )
        router.spawn_workers()
        try:
            fleet, ingest = asyncio.run(
                _run_routed(router, sessions, connections, chunk_pairs, binary)
            )
        finally:
            router.join_workers()
    else:
        fleet, ingest = asyncio.run(
            _run_single(sessions, connections, chunk_pairs, max_inflight_feeds,
                        binary)
        )
    slo = SLOPolicy()
    serve = fleet.to_dict()
    # The bucketed view of the same latencies the percentile fields
    # summarise; its p99 is gated alongside the sampled p99 so the two
    # views cannot silently diverge.
    serve["hist_poll_p99_seconds"] = histogram_quantile(serve["poll_histogram"], 0.99)
    return {
        "workload": {
            "quick": quick,
            "sessions": sessions,
            "connections": connections,
            "chunk_pairs": chunk_pairs,
            "max_inflight_feeds": max_inflight_feeds,
            "workers": workers,
            "binary": binary,
        },
        "cpu_count": os.cpu_count() or 1,
        "slo": slo.to_dict(),
        "serve": serve,
        "ingest": ingest,
        "gates": gates_for(workers, slo),
    }


def render(artifact: dict) -> None:
    workload = artifact["workload"]
    serve = artifact["serve"]
    ingest = artifact["ingest"]
    mode = (
        f"router({workload['workers']} workers)" if workload["workers"]
        else "single-server"
    )
    frames = "binary" if workload["binary"] else "json"
    print(
        f"[{mode} {frames}-fleet] "
        f"sessions={serve['sessions']} peak={serve['concurrent_peak']} "
        f"pairs/s={serve['pairs_per_second']:.0f} "
        f"poll p50/p95/p99={serve['poll_p50_seconds']*1e3:.1f}/"
        f"{serve['poll_p95_seconds']*1e3:.1f}/{serve['poll_p99_seconds']*1e3:.1f} ms "
        f"(hist p99<={serve['hist_poll_p99_seconds']*1e3:.1f} ms) "
        f"bit_identical={serve['bit_identical_sessions']}/{serve['sessions']}"
    )
    print(
        f"[ingest {ingest['pairs']} pairs x{ingest['chunk_pairs']}] "
        f"json={ingest['json_pairs_per_second']/1e3:.0f}k "
        f"binary={ingest['binary_pairs_per_second']/1e3:.0f}k pairs/s "
        f"(end-to-end {ingest['binary_speedup']:.2f}x, "
        f"wire decode {ingest['wire_binary_speedup']:.1f}x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced parameters for CI smoke runs")
    parser.add_argument("--sessions", type=int, default=None,
                        help=f"fleet size (floor {MIN_SESSIONS}; default 1000 quick / 2000 full)")
    parser.add_argument("--connections", type=int, default=32,
                        help="TCP connections the fleet multiplexes over")
    parser.add_argument("--chunk-pairs", type=int, default=96,
                        help="pairs per feed chunk")
    parser.add_argument("--workers", type=int, default=0,
                        help="front the fleet with a session router over N "
                             "worker processes (0 = single in-process server)")
    parser.add_argument("--binary", action="store_true",
                        help="fleet feeds use binary pair-batch frames")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="artifact path (default BENCH_serve.json)")
    args = parser.parse_args(argv)
    if args.sessions is not None and args.sessions < MIN_SESSIONS:
        parser.error(f"--sessions must be at least {MIN_SESSIONS}")
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    artifact = run(
        quick=args.quick, sessions=args.sessions, connections=args.connections,
        chunk_pairs=args.chunk_pairs, workers=args.workers, binary=args.binary,
    )
    render(artifact)
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
