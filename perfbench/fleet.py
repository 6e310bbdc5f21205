"""serve-fleet: 1000 concurrent sessions behind ``repro-cycles serve --workers 1``,
driven as an open loop over a fixed ladder of offered pair rates.

Every session slot runs "lives" back to back: open, feed both passes in
96-pair JSON chunks with two polls per pass, finish each pass, close, and
open the next life.  Half the slots run ``triangle-two-pass``, half
``fourcycle-two-pass``, over the ``serve.loadgen.default_configs`` planted
graphs with seeds taken from the workload seed.

The schedule is an open loop: the generator walks the slots round-robin,
one feed (plus the zero-pair requests that follow it) per step, and a
step falls due when the pairs offered before it reach ``rate * t``.  It
sends on time whatever the server does; every latency is taken from the
moment its request fell due, so a stall shows up as latency and as
generator lateness, never as less offered load.

A rung is *sustained* when none of its requests fail, its poll p99 stays
within ``SLOPolicy().poll_p99_seconds``, and neither generator lateness
nor the outstanding backlog grows from the first to the last quarter of
the rung.  Between rungs the backlog drains, so rungs do not contaminate
each other.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    BenchError, ServerProcess, clock, cpu_seconds, host_speed, median, peak_rss_mb, percentile,
    pin_processes,
)

SESSIONS = 1000
CONNECTIONS = 2
CHUNK_PAIRS = 96
POLLS_PER_PASS = 2
COUNTERS = ("triangle-two-pass", "fourcycle-two-pass")

#: The fixed rung grid (offered pairs/s): 5% steps from 10k upwards.
GRID = [int(round(10_000 * 1.05 ** k, -2)) for k in range(60)]
#: The coarse climb starts at the first grid rung at or above this rate and
#: strides 4 rungs (about 22%) at a time.
COARSE_FROM = 20_000
COARSE_STRIDE = 4
#: The named reference rung, well below saturation: latencies come from here.
REF_RATE = 16_000
#: Shares of ``--seconds``: each reference window, and each ladder rung.
REF_WINDOWS = 3
REF_SHARE = 0.35
RUNG_SHARE = 0.04
#: Rungs of the staircase that tracks the highest sustained rate.
STAIR_RUNGS = 16
#: Ladder rungs send what has fallen due in ticks of this length: a
#: request per wake-up would make the rung's verdict hinge on how fast the
#: host wakes idle vCPUs rather than on the server's throughput.
LADDER_TICK_S = 0.01
#: Lateness (s) / backlog (requests) growth that marks a rung unsustained.
LAG_GROWTH_S = 0.05
BACKLOG_GROWTH = 40
SNAPSHOT_PROBES = 64
SNAPSHOT_BURSTS = 9
HOP_PROBES = 1000


@dataclasses.dataclass
class Workload:
    """One (graph, counter) configuration with its reference estimate."""

    algorithm: str
    budget: int
    algo_seed: int
    chunks: List[bytes]
    chunk_sizes: List[int]
    reference: float
    pairs: List[Tuple[int, int]]


def build_inputs(seed: int) -> List[Workload]:
    """Planted graphs from ``default_configs`` re-seeded from ``seed``."""
    from repro.graph.planted import planted_triangles
    from repro.serve.loadgen import default_configs
    from repro.streaming.registry import get as get_spec
    from repro.streaming.runner import run_algorithm
    from repro.streaming.stream import AdjacencyListStream

    out = []
    for index, config in enumerate(default_configs(4)):
        planted = planted_triangles(
            noise_edges=config.noise_edges,
            triangles=config.triangles,
            seed=seed * 7919 + 100 + index,
        )
        stream = AdjacencyListStream(planted.graph, seed=seed * 7919 + 200 + index)
        pairs = [(int(a), int(b)) for a, b in stream.iter_pairs()]
        for algorithm in COUNTERS:
            algo_seed = seed * 7919 + 300 + index
            reference = run_algorithm(
                get_spec(algorithm).make(config.budget, seed=algo_seed), stream
            ).estimate
            chunks = [pairs[i : i + CHUNK_PAIRS] for i in range(0, len(pairs), CHUNK_PAIRS)]
            out.append(
                Workload(
                    algorithm=algorithm,
                    budget=config.budget,
                    algo_seed=algo_seed,
                    chunks=[json.dumps([list(p) for p in c]).encode() for c in chunks],
                    chunk_sizes=[len(c) for c in chunks],
                    reference=reference,
                    pairs=pairs,
                )
            )
    return out


def _life_steps(work: Workload) -> List[List[Tuple[str, int]]]:
    """One life as steps; each step is one feed plus the zero-pair
    requests (poll, finish_pass) that follow it."""
    n = len(work.chunks)
    poll_after = {max(0, (n * (k + 1)) // POLLS_PER_PASS - 1) for k in range(POLLS_PER_PASS)}
    steps = []
    for pass_index in range(2):
        for chunk in range(n):
            step = [("feed", chunk)]
            if chunk in poll_after:
                step.append(("poll", 0))
            if chunk == n - 1:
                step.append(("finish", pass_index))
            steps.append(step)
    return steps


@dataclasses.dataclass
class _Req:
    due: float
    kind: str
    rung: int
    slot: int
    pairs: int
    counter: str
    arg: int


@dataclasses.dataclass
class Rung:
    rate: int
    seconds: float
    start: float = 0.0
    feed_lat: List[float] = dataclasses.field(default_factory=list)
    poll_lat: List[float] = dataclasses.field(default_factory=list)
    lags: List[Tuple[float, float]] = dataclasses.field(default_factory=list)
    backlog: List[Tuple[float, int]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    answered: int = 0
    last_answer: float = 0.0
    pairs_by_counter: Dict[str, int] = dataclasses.field(default_factory=dict)
    cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    #: Host speed around the rung (``common.host_speed``); scales its times.
    speed: float = 1.0
    #: Share of the worker vCPU's ticks stolen over the rung (``/proc/stat``).
    steal_share: float = 0.0

    def quarter_growth(self, series: List[Tuple[float, float]]) -> float:
        if len(series) < 8:
            return 0.0
        span = self.seconds / 4
        first = [v for t, v in series if t < self.start + span]
        last = [v for t, v in series if t >= self.start + 3 * span]
        if not first or not last:
            return 0.0
        return sum(last) / len(last) - sum(first) / len(first)

    def verdict(self, slo_poll_p99: float) -> Dict[str, Any]:
        lag_growth = self.quarter_growth(self.lags)
        backlog_growth = self.quarter_growth([(t, float(v)) for t, v in self.backlog])
        poll_p99 = percentile(self.poll_lat, 0.99)
        sustained = (
            self.failed == 0
            and self.answered == self.attempted
            and poll_p99 <= slo_poll_p99
            and lag_growth <= LAG_GROWTH_S
            and backlog_growth <= BACKLOG_GROWTH
        )
        elapsed = max(self.last_answer - self.start, self.seconds)
        return {
            "rate": self.rate,
            "seconds": self.seconds,
            "sustained": sustained,
            "attempted": self.attempted,
            "failed": self.failed,
            "poll_p99_s": poll_p99,
            "lag_p99_s": percentile([v for _, v in self.lags], 0.99),
            "lag_growth_s": lag_growth,
            "backlog_peak": max((v for _, v in self.backlog), default=0),
            "backlog_growth": backlog_growth,
            "achieved_pairs_per_s": {
                k: v / elapsed for k, v in sorted(self.pairs_by_counter.items())
            },
            "server_cpu_s": self.cpu_s,
            "worker_cpu_s": self.worker_cpu_s,
            "speed": self.speed,
            "steal_share": self.steal_share,
        }


def _host_ticks(cpu: Optional[int]) -> List[int]:
    """CPU ``cpu``'s ticks so far (all CPUs' for ``None``): user, nice,
    system, idle, iowait, irq, softirq, steal, from ``/proc/stat``."""
    name = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == name:
                return [int(x) for x in fields[1:9]]
    return [0] * 8


class FleetDriver:
    """The open-loop generator and its bookkeeping, on one event loop."""

    def __init__(self, works: List[Workload], port: int, pids: List[int],
                 speed_port: Optional[int] = None):
        self.works = works
        self.port = port
        self.pids = pids
        # Where the host-speed probe runs: the worker (``None``: here).
        self.speed_port = speed_port
        self.steps = [_life_steps(w) for w in works]
        self.conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.readers: List[asyncio.Task] = []
        self.pending: Dict[int, _Req] = {}
        self.next_id = 1
        self.life = [0] * SESSIONS
        self.position = [0] * SESSIONS
        # A slot waits between its last finish_pass and the ack of its next
        # open: a close must not overtake the relayed requests before it.
        self.ready = [True] * SESSIONS
        self.cursor = 0
        self.rungs: List[Rung] = []
        self.lives_done = 0
        self.mismatches = 0
        self.failures: List[str] = []
        self.idle = asyncio.Event()
        self.idle.set()
        #: The worker's own vCPU, whose ticks a rung reads (``None``: all).
        self.worker_cpu: Optional[int] = None

    # -- wire ---------------------------------------------------------------

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port, limit=1 << 24)
            writer.write(b'{"id": 0, "op": "hello"}\n')
            await writer.drain()
            json.loads(await reader.readline())
            self.conns.append((reader, writer))
        self.readers = [asyncio.ensure_future(self._read(r)) for r, _ in self.conns]

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = clock()
            response = json.loads(line)
            req = self.pending.pop(response.get("id"), None)
            if req is None:
                continue
            self._answered(req, response, now)
            if not self.pending:
                self.idle.set()

    def _answered(self, req: _Req, response: Dict[str, Any], now: float) -> None:
        rung = self.rungs[req.rung] if req.rung >= 0 else None
        ok = bool(response.get("ok"))
        if not ok:
            self.failures.append(f"{req.kind}: {response.get('error')}")
        if req.kind == "finish" and req.arg == 1:
            if ok:
                self.lives_done += 1
                if response.get("estimate") != self.works[req.slot % len(self.works)].reference:
                    self.mismatches += 1
            self._send("close", req.slot, 0, now, req.rung)
            self.life[req.slot] += 1
            self._send("open", req.slot, 0, now, req.rung)
        elif req.kind == "open" and req.rung >= 0:
            self.ready[req.slot] = True
        if rung is None:
            return
        rung.answered += 1
        rung.last_answer = max(rung.last_answer, now)
        if not ok:
            rung.failed += 1
            return
        latency = now - req.due
        if req.kind == "feed":
            rung.feed_lat.append(latency)
            rung.pairs_by_counter[req.counter] = rung.pairs_by_counter.get(req.counter, 0) + req.pairs
        elif req.kind == "poll":
            rung.poll_lat.append(latency)

    def _sid(self, slot: int) -> str:
        return f"f{slot:04d}-{self.life[slot]}"

    def _frame(self, req_id: int, kind: str, slot: int, arg: int) -> bytes:
        sid = self._sid(slot)
        if kind == "feed":
            chunk = self.works[slot % len(self.works)].chunks[arg]
            return b'{"id": %d, "op": "feed", "session": "%s", "pairs": %s}\n' % (
                req_id, sid.encode(), chunk,
            )
        if kind == "open":
            work = self.works[slot % len(self.works)]
            return (
                json.dumps(
                    {
                        "id": req_id, "op": "open", "session": sid,
                        "algorithm": work.algorithm, "budget": work.budget,
                        "seed": work.algo_seed,
                    }
                )
                + "\n"
            ).encode()
        op = {"poll": "poll", "finish": "finish_pass", "close": "close"}[kind]
        return b'{"id": %d, "op": "%s", "session": "%s"}\n' % (req_id, op.encode(), sid.encode())

    def _send(self, kind: str, slot: int, arg: int, due: float, rung: int) -> None:
        req_id = self.next_id
        self.next_id += 1
        work = self.works[slot % len(self.works)]
        pairs = work.chunk_sizes[arg] if kind == "feed" else 0
        self.pending[req_id] = _Req(due, kind, rung, slot, pairs, work.algorithm, arg)
        if rung >= 0:
            self.rungs[rung].attempted += 1
        self.idle.clear()
        self.conns[slot % CONNECTIONS][1].write(self._frame(req_id, kind, slot, arg))

    async def _flush(self) -> None:
        for _, writer in self.conns:
            if writer.transport.get_write_buffer_size() > (256 << 10):
                await writer.drain()

    async def drain(self, timeout: float = 60.0) -> None:
        await self._flush()
        try:
            await asyncio.wait_for(self.idle.wait(), timeout)
        except asyncio.TimeoutError:
            raise BenchError(f"{len(self.pending)} requests unanswered after {timeout}s")

    # -- phases -------------------------------------------------------------

    async def open_all(self) -> None:
        now = clock()
        for slot in range(SESSIONS):
            self._send("open", slot, 0, now, -1)
            if slot % 64 == 63:
                await self._flush()
        await self.drain()

    async def stagger(self) -> None:
        """Spread the sessions' lives evenly over their steps, untimed.

        Round-robin keeps freshly opened slots in lockstep: every slot
        would be at the same step of its life at once, so a rung's cost
        would depend on which step (plain feed, poll, pass boundary, last
        finish) it happened to cover.  Slot ``s`` of a workload is moved
        ``s // len(works)`` steps (modulo its life's length) ahead first,
        so any window of the schedule mixes every step alike."""
        for slot in range(SESSIONS):
            steps = self.steps[slot % len(self.steps)]
            offset = (slot // len(self.steps)) % len(steps)
            for step in steps[:offset]:
                for kind, arg in step:
                    self._send(kind, slot, arg, clock(), -1)
            self.position[slot] = offset
            if slot % 16 == 15:
                await self._flush()
        await self.drain()

    def _next_step(self) -> Optional[Tuple[int, List[Tuple[str, int]]]]:
        """The next ready slot's next step, round-robin (``None``: all wait)."""
        for _ in range(SESSIONS):
            slot = self.cursor
            self.cursor = (self.cursor + 1) % SESSIONS
            if not self.ready[slot]:
                continue
            steps = self.steps[slot % len(self.steps)]
            step = steps[self.position[slot]]
            self.position[slot] += 1
            if self.position[slot] == len(steps):
                self.position[slot] = 0
                self.ready[slot] = False
            return slot, step
        return None

    async def run_rung(self, rate: int, seconds: float, tick: float = 0.0) -> Rung:
        """Offer ``rate`` pairs/s for ``seconds``, then drain.  With a
        ``tick``, the generator wakes at most every ``tick`` seconds and
        sends all that has fallen due since (late by up to a tick; latency
        still counts from the due time)."""
        rung = Rung(rate=rate, seconds=seconds)
        index = len(self.rungs)
        self.rungs.append(rung)
        # The generator's own cyclic GC would add pauses to the latencies
        # it times; it is off while a rung runs (responses are acyclic).
        gc.collect()
        gc.disable()
        try:
            before = await self.host_speed()
            ticks_before = _host_ticks(self.worker_cpu)
            cpu_before = cpu_seconds(self.pids)
            worker_before = cpu_seconds(self.pids[1:])
            rung.start = start = clock() + 0.005
            end = start + seconds
            offered = 0
            while True:
                due = start + offered / rate
                if due >= end:
                    break
                delay = due - clock()
                if delay > 0.001:
                    await asyncio.sleep(max(delay, tick))
                picked = self._next_step()
                if picked is None:
                    await asyncio.sleep(0.001)
                    continue
                slot, step = picked
                now = clock()
                for kind, arg in step:
                    self._send(kind, slot, arg, due, index)
                    if kind == "feed":
                        offered += self.works[slot % len(self.works)].chunk_sizes[arg]
                rung.lags.append((now, now - due))
                rung.backlog.append((now, len(self.pending)))
                await self._flush()
            await self.drain()
        finally:
            gc.enable()
        rung.cpu_s = cpu_seconds(self.pids) - cpu_before
        rung.worker_cpu_s = cpu_seconds(self.pids[1:]) - worker_before
        ticks = [b - a for a, b in zip(ticks_before, _host_ticks(self.worker_cpu))]
        rung.steal_share = ticks[7] / max(sum(ticks), 1)
        rung.speed = (before + await self.host_speed()) / 2
        return rung

    async def host_speed(self) -> float:
        if self.speed_port is None:
            return host_speed()
        reply = await self.rpc({"id": 1, "op": "perfbench", "action": "speed"}, self.speed_port)
        return float(reply["speed"])

    async def close_all(self) -> None:
        now = clock()
        for slot in range(SESSIONS):
            self._send("close", slot, 0, now, -1)
        await self.drain()

    async def rpc(self, message: Dict[str, Any], port: Optional[int] = None) -> Dict[str, Any]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port or self.port, limit=1 << 24)
        try:
            writer.write((json.dumps(message) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()

    async def aclose(self) -> None:
        for task in self.readers:
            task.cancel()
        for task in self.readers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for _, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


# -- ladder ---------------------------------------------------------------------


async def walk_ladder(driver: FleetDriver, slo: float, rung_s: float) -> List[Dict[str, Any]]:
    """Track the highest sustained rung of the fixed grid.

    1. climb in coarse strides until a rung is not sustained;
    2. from the last sustained coarse rung, run a one-up, one-down
       staircase (rungs twice as long): the next rung is one grid step up
       after a sustained rung and one down after any other, so the
       staircase settles on the boundary of what the server sustains and
       keeps sampling it (see ``tracking_rungs``).

    Returns every rung's verdict, tagged with its phase, in order."""
    verdicts: List[Dict[str, Any]] = []

    async def rung(index: int, phase: str, seconds: float) -> Dict[str, Any]:
        verdict = (await driver.run_rung(GRID[index], seconds, LADDER_TICK_S)).verdict(slo)
        verdict["phase"] = phase
        verdicts.append(verdict)
        return verdict

    index = min(i for i, r in enumerate(GRID) if r >= COARSE_FROM)
    while index < len(GRID) - 1 and (await rung(index, "coarse", rung_s))["sustained"]:
        index = min(index + COARSE_STRIDE, len(GRID) - 1)
    index = max(index - COARSE_STRIDE, 0)
    for _ in range(STAIR_RUNGS):
        step = 1 if (await rung(index, "staircase", 2 * rung_s))["sustained"] else -1
        index = min(max(index + step, 0), len(GRID) - 1)
    return verdicts


def tracking_rungs(ladder: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The sustained staircase rungs from the rung before the first
    reversal on (the climb or fall that leads to the boundary is left
    out).  A single rung's verdict near capacity is a coin toss on a noisy
    host; the mean over the rungs the staircase keeps returning to is not."""
    stair = [v for v in ladder if v["phase"] == "staircase"]
    first = next((i for i in range(1, len(stair))
                  if stair[i]["sustained"] != stair[0]["sustained"]), 1)
    return [v for v in stair[first - 1:] if v["sustained"]]


async def snapshot_probe(driver: FleetDriver) -> Dict[str, float]:
    """Open probe sessions and feed each half of pass 0, then snapshot them
    all, pipelined on one connection, ``SNAPSHOT_BURSTS`` times.  The server
    stays busy throughout a burst, so its elapsed time over the count is a
    snapshot's service time, free of the per-request wake-up latency a lone
    round trip would add; the median burst is reported."""
    sids = []
    for probe in range(SNAPSHOT_PROBES):
        work = driver.works[probe % len(driver.works)]
        sid = f"snap-{probe}"
        for message in (
            {"id": 1, "op": "open", "session": sid, "algorithm": work.algorithm,
             "budget": work.budget, "seed": work.algo_seed},
            {"id": 2, "op": "feed", "session": sid,
             "pairs": [list(p) for p in work.pairs[: len(work.pairs) // 2]]},
        ):
            reply = await driver.rpc(message)
            if not reply.get("ok"):
                raise BenchError(f"snapshot probe {message['op']} failed: {reply}")
        sids.append(sid)
    burst = b"".join(
        b'{"id": %d, "op": "snapshot", "session": "%s"}\n' % (i, sid.encode())
        for i, sid in enumerate(sids)
    )
    per_snapshot = []
    reader, writer = await asyncio.open_connection("127.0.0.1", driver.port, limit=1 << 24)
    try:
        # Each burst is bracketed by its own host-speed probes.
        for _ in range(SNAPSHOT_BURSTS):
            before = await driver.host_speed()
            begin = clock()
            writer.write(burst)
            await writer.drain()
            lines = [await reader.readline() for _ in sids]
            elapsed = clock() - begin
            speed = (before + await driver.host_speed()) / 2
            per_snapshot.append(elapsed / len(sids) * speed)
    finally:
        writer.close()
        await writer.wait_closed()
    validator_sizes = []
    for line in lines:
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BenchError(f"probe snapshot failed: {reply}")
        validator_sizes.append(len(json.dumps(reply["state"]["payload"].get("validator"))))
    for sid in sids:
        await driver.rpc({"id": 4, "op": "close", "session": sid})
    return {"snapshot_s": median(per_snapshot), "bytes": median(len(line) for line in lines),
            "validator_bytes": median(validator_sizes)}


async def hop_probe(driver: FleetDriver, worker_port: int) -> Dict[str, float]:
    """Polls through the router and straight to the worker, interleaved."""
    work = driver.works[0]
    sid = "hop-probe"
    await driver.rpc({"id": 1, "op": "open", "session": sid, "algorithm": work.algorithm,
                      "budget": work.budget, "seed": work.algo_seed})
    await driver.rpc({"id": 2, "op": "feed", "session": sid, "pairs": [list(p) for p in work.pairs[:96]]})
    links = []
    for port in (driver.port, worker_port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        links.append((reader, writer))
    via_router, direct = [], []
    frame = b'{"id": 5, "op": "poll", "session": "%s"}\n' % sid.encode()
    for _ in range(HOP_PROBES):
        for (reader, writer), sink in zip(links, (via_router, direct)):
            begin = clock()
            writer.write(frame)
            await writer.drain()
            await reader.readline()
            sink.append(clock() - begin)
    for _, writer in links:
        writer.close()
        await writer.wait_closed()
    await driver.rpc({"id": 3, "op": "close", "session": sid})
    return {
        "hop_p50_s": percentile(via_router, 0.5) - percentile(direct, 0.5),
        "hop_p99_s": percentile(via_router, 0.99) - percentile(direct, 0.99),
    }


async def traced_rung(driver: FleetDriver, worker_port: int, slo: float, ref_s: float) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """The reference rung untraced, then traced; returns both and the ledger."""
    untraced = (await driver.run_rung(REF_RATE, ref_s)).verdict(slo)
    await driver.rpc({"id": 1, "op": "perfbench", "action": "enable"}, worker_port)
    traced = (await driver.run_rung(REF_RATE, ref_s)).verdict(slo)
    await driver.rpc({"id": 2, "op": "perfbench", "action": "disable"}, worker_port)
    ledger = (await driver.rpc({"id": 3, "op": "perfbench", "action": "ledger"}, worker_port))["ledger"]
    return untraced, traced, ledger


def run(seed: int, seconds: float, trace: bool, setup: Any) -> Dict[str, Any]:
    """One fleet run; ``setup`` builds (inputs, server) and times it."""
    from repro.obs.slo import SLOPolicy

    slo = SLOPolicy().poll_p99_seconds
    setup_s, (works, server) = setup(lambda: (build_inputs(seed), _spawn(trace)))
    try:
        return asyncio.run(_drive(works, server, slo, seconds, trace, setup_s))
    finally:
        server.stop()


def _spawn(trace: bool) -> ServerProcess:
    server = ServerProcess("router", trace, "fleet")
    server.wait_ready()
    return server


async def _drive(works, server, slo, seconds, trace, setup_s) -> Dict[str, Any]:
    driver = FleetDriver(works, server.port, server.pids, int(server.info["worker_ports"][0]))
    # The router shares this process's vCPU; the worker gets one alone.
    driver.worker_cpu = pin_processes(server.pids[:1], server.pids[1:])
    await driver.connect()
    ref_s, rung_s = seconds * REF_SHARE, seconds * RUNG_SHARE
    try:
        await driver.open_all()
        await driver.stagger()
        await driver.run_rung(REF_RATE, rung_s)  # warm-up, discarded
        # The reference windows only feed the latency percentiles, which
        # the traced run reports.
        references = [await driver.run_rung(REF_RATE, ref_s) for _ in range(REF_WINDOWS if trace else 0)]
        ladder = await walk_ladder(driver, slo, rung_s)
        snap = await snapshot_probe(driver)
        extra: Dict[str, Any] = {}
        if trace:
            worker_port = int(server.info["worker_ports"][0])
            extra["hop"] = await hop_probe(driver, worker_port)
            extra["untraced"], extra["traced"], extra["ledger"] = await traced_rung(driver, worker_port, slo, ref_s)
        await driver.close_all()
        stats = await driver.rpc({"id": 9, "op": "stats"})
        rss = peak_rss_mb(server.pids)
    finally:
        await driver.aclose()
    ref_verdicts = [dict(r.verdict(slo), phase="reference") for r in references]
    sustained = [v for v in ladder + ref_verdicts if v["sustained"]]
    tracked = tracking_rungs(ladder)
    if not tracked and sustained:
        tracked = [max(sustained, key=lambda v: v["rate"])]

    def tracked_mean(rate: Any) -> float:
        # Each rung's rate at nominal speed on a host that steals no time.
        # The worker, alone on its vCPU, is the fleet's bottleneck: the
        # share of that vCPU's ticks the hypervisor stole during the rung
        # is capacity lost, and the rung's host-speed probes (run in the
        # worker) give how fast the vCPU ran while it had it.
        return sum(rate(v) / ((1.0 - v["steal_share"]) * v["speed"]) for v in tracked) / len(tracked) if tracked else 0.0

    # One host-speed factor for the run: the median over every rung's
    # probes (three processes share the host, so a single rung's probe is
    # a noisy reading of the speed the server saw).
    speed = median(r.speed for r in driver.rungs)
    # Latency percentiles: the median over the reference windows of each
    # window's percentile (every window holds over 1000 polls).
    def window_median(q: float, kind: str) -> float:
        return median(percentile(getattr(r, kind), q) for r in references) * speed

    return {
        "setup_s": setup_s,
        "references": ref_verdicts,
        "ref_samples": {
            "poll": [len(r.poll_lat) for r in references],
            "feed": [len(r.feed_lat) for r in references],
        },
        "ref_latency": {
            "poll_p50_s": window_median(0.5, "poll_lat"),
            "poll_p99_s": window_median(0.99, "poll_lat"),
            "feed_p50_s": window_median(0.5, "feed_lat"),
            "feed_p99_s": window_median(0.99, "feed_lat"),
        },
        "ladder": ladder,
        "speed": speed,
        "tracked_rates": [v["rate"] for v in tracked],
        "sustained_rate": tracked_mean(lambda v: v["rate"]),
        "counter_rates": {
            counter: tracked_mean(lambda v: v["achieved_pairs_per_s"].get(counter, 0.0))
            for counter in COUNTERS
        },
        "snapshot": snap,
        "rss_mb": rss,
        "open_high_water": int(stats.get("open_high_water", 0)),
        "lives_done": driver.lives_done,
        "mismatches": driver.mismatches,
        "failures": driver.failures[:10],
        "failed": len(driver.failures),
        "attempted": sum(r.attempted for r in driver.rungs) + 2 * SESSIONS,
        **extra,
    }
