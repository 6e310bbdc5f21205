"""The benchmark's own tests.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
The short-run tests start the real benchmark as a subprocess (about four
minutes in all: every workload builds its full-size inputs).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import common, run  # noqa: E402

common.ensure_source_tree()
ROOT = common.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


#: Shortest runs that still check outputs: fleet sessions finish a life
#: only after several passes of the round-robin over all 1000 slots.
SHORT_SECONDS = {"batch-powerlaw": 2, "serve-ingest": 2, "serve-fleet": 20}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(SHORT_SECONDS[workload]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float) and math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_declared_metrics_match_the_runner() -> None:
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_corrupted_reference_fails_the_check(monkeypatch, capsys) -> None:
    from perfbench import batch

    monkeypatch.setattr(batch, "N_VERTICES", 600)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    honest = batch.build_inputs

    def corrupted(seed: int) -> dict:
        inputs = honest(seed)
        inputs["references"]["fourcycle-two-pass"] += 1.0
        return inputs

    monkeypatch.setattr(batch, "build_inputs", corrupted)
    assert run.main(["--workload", "batch-powerlaw", "--seed", "5", "--seconds", "0.1"]) == 0
    result = _result_line(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_without_sources_the_run_fails_without_a_result(tmp_path) -> None:
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _StallingServer:
    """A fake serve endpoint on its own thread: answers every request at
    once, except that it stops reading during ``[stall_from, stall_until)``."""

    def __init__(self) -> None:
        self.stall_from = math.inf
        self.stall_until = math.inf
        self.port = 0
        self._ready = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            while True:
                line = await reader.readline()
                if not line:
                    break
                now = common.clock()
                if self.stall_from <= now < self.stall_until:
                    await asyncio.sleep(self.stall_until - now)
                req_id = json.loads(line).get("id")
                writer.write((json.dumps({"id": req_id, "ok": True, "done": True,
                                          "estimate": 0.0, "open_high_water": 0}) + "\n").encode())
                await writer.drain()
            writer.close()

        async def start() -> None:
            server = await asyncio.start_server(handle, "127.0.0.1", 0, limit=1 << 24)
            self.port = server.sockets[0].getsockname()[1]
            self._server = server
            self._ready.set()

        self._loop.run_until_complete(start())
        self._loop.run_forever()

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._server.close)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        assert not self._thread.is_alive()


def _rung_against(server: _StallingServer, works: list, stall: float) -> "fleet.Rung":
    from perfbench import fleet

    async def drive() -> "fleet.Rung":
        driver = fleet.FleetDriver(works, server.port, [])
        await driver.connect()
        try:
            await driver.open_all()
            begin = common.clock()
            server.stall_from = begin + 0.6
            server.stall_until = begin + 0.6 + stall
            return await driver.run_rung(20_000, 1.2)
        finally:
            await driver.aclose()

    return asyncio.run(drive())


def test_stalled_server_shows_as_lateness_not_lower_offered_load() -> None:
    from perfbench import fleet

    works = fleet.build_inputs(2)
    server = _StallingServer()
    try:
        steady = _rung_against(server, works, 0.0)
        stalled = _rung_against(server, works, 0.5)
    finally:
        server.close()
    # The open loop offers exactly the same requests on the same schedule.
    assert stalled.attempted == steady.attempted
    assert sum(stalled.pairs_by_counter.values()) == sum(steady.pairs_by_counter.values())
    # The generator itself stays on time ...
    assert common.percentile([lag for _, lag in stalled.lags], 0.99) < 0.1
    # ... and the stall shows as latency from the due time and a growing backlog.
    assert max(stalled.feed_lat) >= 0.4
    assert max(steady.feed_lat) < 0.2
    assert stalled.verdict(2.0)["sustained"] is False
    assert steady.verdict(2.0)["sustained"] is True


def test_staircase_is_read_from_its_first_reversal() -> None:
    from perfbench import fleet

    ladder = [{"phase": "coarse", "rate": 20800, "sustained": True}] + [
        {"phase": "staircase", "rate": rate, "sustained": ok}
        for rate, ok in [(25300, True), (26500, True), (27900, False), (26500, True),
                         (27900, False), (26500, False), (25300, True)]
    ]
    assert [v["rate"] for v in fleet.tracking_rungs(ladder)] == [26500, 26500, 25300]
