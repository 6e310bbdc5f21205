"""Router tests: multi-worker bit identity, checkpoint-all, tenant quotas.

Each test forks a real worker fleet (multiprocessing, pre-event-loop)
and talks to the router over TCP.  The headline property mirrors
``TestMerge`` in ``test_manager.py``: shard sessions spread across
*different worker processes*, merged per pass through the router's
snapshot/forward machinery, must reproduce ``run_sharded`` bit-exactly —
horizontal scale-out is an execution detail, not an approximation.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.graph.planted import planted_triangles
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    QUOTA_EXCEEDED,
    RATE_LIMITED,
    UNAUTHENTICATED,
)
from repro.serve.router import ServeRouter, load_tenants, worker_for
from repro.sketch.driver import partition_stream, run_sharded
from repro.streaming.registry import get as get_spec
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import derive_seed

N_WORKERS = 2


def _sid_on_worker(prefix, worker):
    """A deterministic session id that hashes onto the given worker."""
    for j in range(1000):
        sid = f"{prefix}{j}"
        if worker_for(sid, N_WORKERS) == worker:
            return sid
    raise AssertionError(f"no id with prefix {prefix!r} lands on {worker}")


def _run_with_router(fn, n_workers=N_WORKERS, **router_kwargs):
    """Fork a worker fleet, run ``fn(host, port)`` against the router."""
    router = ServeRouter(n_workers, port=0, **router_kwargs)
    router.spawn_workers()

    async def main():
        await router.start()
        task = asyncio.ensure_future(router.serve_until_stopped())
        try:
            return await fn("127.0.0.1", router.bound_port)
        finally:
            router.stop()
            await task

    try:
        return asyncio.run(main())
    finally:
        router.join_workers()


def _sharded_world():
    """The run_sharded reference setup from the manager merge tests."""
    planted = planted_triangles(noise_edges=150, triangles=20, seed=3)
    stream = AdjacencyListStream(planted.graph, seed=4)
    n_shards, budget, seed, merge_seed = 3, 48, 7, 5
    algorithm = get_spec("triangle-two-pass-sharded").make(budget, seed=seed)
    expected = run_sharded(
        algorithm, stream, n_shards, merge_seed=merge_seed
    ).estimate
    shards = partition_stream(stream, n_shards, "balanced")
    shard_pairs = [
        [(v, u) for v, neighbors in shard.lists for u in neighbors]
        for shard in shards
    ]
    return expected, shard_pairs, budget, seed, merge_seed


def _spread_sids(prefix):
    """Three session ids guaranteed to span both workers."""
    sids = [
        _sid_on_worker(f"{prefix}a-", 0),
        _sid_on_worker(f"{prefix}b-", 1),
        _sid_on_worker(f"{prefix}c-", 0),
    ]
    assert {worker_for(s, N_WORKERS) for s in sids} == {0, 1}
    return sids


class TestCrossWorkerMerge:
    def test_multi_worker_merge_reproduces_run_sharded(self):
        expected, shard_pairs, budget, seed, merge_seed = _sharded_world()

        async def scenario(host, port):
            async with ServeClient(host, port) as client:
                sids0 = _spread_sids("p0")
                for sid in sids0:
                    await client.open(
                        sid, "triangle-two-pass-sharded", budget, seed,
                        validate="lists",
                    )
                for sid, chunk in zip(sids0, shard_pairs):
                    await client.feed(sid, chunk)
                    await client.finish_pass(sid)
                await client.merge(
                    "m0", sids0, merge_seed=derive_seed(merge_seed, 0)
                )
                state = await client.snapshot("m0")
                sids1 = _spread_sids("p1")
                for sid in sids1:
                    await client.open(sid, state=state)
                for sid, chunk in zip(sids1, shard_pairs):
                    await client.feed(sid, chunk)
                    await client.finish_pass(sid)
                merged = await client.merge(
                    "m1", sids1, merge_seed=derive_seed(merge_seed, 1)
                )
                assert merged["pass_index"] == 2
                poll = await client.poll("m1")
                stats = await client.stats()
                return poll, stats

        poll, stats = _run_with_router(scenario)
        assert poll["done"] is True
        assert poll["estimate"] == expected
        # m0's forked branches and temp merge ids are gone; only the
        # final merged session survives, somewhere in the fleet.
        assert len(stats["workers"]) == N_WORKERS
        assert stats["sessions_open"] == 2  # m0 (unclosed snapshot src) + m1


class TestCheckpointAll:
    def test_shutdown_checkpoints_merge_offline_bit_identical(self, tmp_path):
        expected, shard_pairs, budget, seed, merge_seed = _sharded_world()
        sids0 = _spread_sids("c0")

        async def scenario(host, port):
            async with ServeClient(host, port) as client:
                for sid in sids0:
                    await client.open(
                        sid, "triangle-two-pass-sharded", budget, seed,
                        validate="lists",
                    )
                for sid, chunk in zip(sids0, shard_pairs):
                    await client.feed(sid, chunk)
                    await client.finish_pass(sid)
                # Graceful fleet shutdown: every worker freezes its live
                # sessions into its own checkpoint directory.
                out = await client.request("shutdown")
                assert out["stopping"] is True

        _run_with_router(scenario, checkpoint_dir=str(tmp_path))

        async def offline():
            manager = SessionManager()
            for index in range(N_WORKERS):
                await manager.load_checkpoints(str(tmp_path / f"worker-{index}"))
            assert sorted(manager.session_ids()) == sorted(sids0)
            await manager.merge(
                "m0", sids0, merge_seed=derive_seed(merge_seed, 0)
            )
            state = await manager.snapshot("m0")
            sids1 = [f"c1-{i}" for i in range(len(shard_pairs))]
            for sid in sids1:
                await manager.restore(sid, state)
            for sid, chunk in zip(sids1, shard_pairs):
                await manager.feed(sid, chunk)
                await manager.finish_pass(sid)
            merged = await manager.merge(
                "m1", sids1, merge_seed=derive_seed(merge_seed, 1)
            )
            return merged.result()

        assert asyncio.run(offline()) == expected


class TestBinaryThroughRouter:
    def test_binary_feed_relays_to_both_workers(self):
        async def scenario(host, port):
            async with ServeClient(host, port) as client:
                hello = await client.hello()
                assert hello["server"] == "repro-router"
                assert hello["workers"] == N_WORKERS
                assert hello["auth_required"] is False
                assert await client.negotiate_binary()
                sids = [_sid_on_worker("bin-", 0), _sid_on_worker("bin-", 1)]
                for sid in sids:
                    await client.open(sid, "triangle-two-pass", 32, seed=1)
                    out = await client.feed_binary(
                        sid,
                        np.array([0, 0, 1, 1, 2, 2], dtype=np.uint64),
                        np.array([1, 2, 0, 2, 0, 1], dtype=np.uint64),
                    )
                    assert out["pairs_total"] == 6
                stats = await client.stats()
                assert stats["sessions_open"] == 2
                per_worker = [w["sessions_open"] for w in stats["workers"]]
                assert per_worker == [1, 1]

        _run_with_router(scenario)


class TestCloseOrdering:
    def test_close_never_overtakes_pipelined_feeds(self):
        """``close`` rides the session's relay link, behind its feeds."""
        pairs = [(2 * i, 2 * i + 1) for i in range(200)]

        async def scenario(host, port):
            async with ServeClient(host, port) as client:
                await client.open("s", "triangle-two-pass", 32, seed=1, validate="off")
                sent = [
                    asyncio.ensure_future(client.request("feed", session="s", pairs=[pair]))
                    for pair in pairs
                ]
                sent.append(asyncio.ensure_future(client.request("finish_pass", session="s")))
                sent.append(asyncio.ensure_future(client.request("close", session="s")))
                responses = await asyncio.gather(*sent, return_exceptions=True)
                failures = [r for r in responses if isinstance(r, Exception)]
                assert failures == []
                assert responses[-2]["pairs"] == len(pairs)
                assert responses[-1]["pairs_total"] == len(pairs)

        _run_with_router(scenario, n_workers=1)


class TestTenants:
    def _tenants(self, tmp_path):
        config = tmp_path / "tenants.json"
        config.write_text(json.dumps({
            "tenants": [
                {"name": "alice", "token": "tok-a",
                 "max_sessions": 1, "max_pairs_per_second": 64},
                {"name": "bob", "token": "tok-b", "max_bytes": 600},
            ]
        }))
        return load_tenants(config)

    def test_quota_and_rate_codes_over_the_wire(self, tmp_path):
        async def scenario(host, port):
            async with ServeClient(host, port) as client:
                hello = await client.hello()
                assert hello["auth_required"] is True
                with pytest.raises(ServeClientError) as err:
                    await client.open("s", "triangle-two-pass", 32, seed=1)
                assert err.value.code == UNAUTHENTICATED
                with pytest.raises(ServeClientError) as err:
                    await client.auth("wrong-token")
                assert err.value.code == UNAUTHENTICATED

                out = await client.auth("tok-a")
                assert out["tenant"] == "alice"
                await client.open("s", "triangle-two-pass", 32, seed=1)
                with pytest.raises(ServeClientError) as err:
                    await client.open("s2", "triangle-two-pass", 32, seed=1)
                assert err.value.code == QUOTA_EXCEEDED  # max_sessions=1
                with pytest.raises(ServeClientError) as err:
                    # 100 pairs in one chunk against a 64/s token bucket.
                    await client.feed(
                        "s", [(2 * i, 2 * i + 1) for i in range(100)]
                    )
                assert err.value.code == RATE_LIMITED

            async with ServeClient(host, port) as client:
                await client.auth("tok-b")
                await client.open("b", "triangle-two-pass", 32, seed=1)
                with pytest.raises(ServeClientError) as err:
                    for i in range(100):
                        await client.feed(
                            "b", [(2 * i, 2 * i + 1)]
                        )
                assert err.value.code == QUOTA_EXCEEDED  # max_bytes=600
                assert i < 99, "byte quota never tripped"

        _run_with_router(scenario, tenants=self._tenants(tmp_path))
