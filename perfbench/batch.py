"""batch-powerlaw: offline ``run_algorithm`` for both two-pass counters at
budget 512 on a Holme-Kim ``powerlaw_cluster_graph(20000, 10, 0.3)``.

Each round runs the triangle counter, then the 4-cycle counter, over the
same stream through ``repro.streaming.runner.run_algorithm``.  The stream
handed to the runner is a thin proxy over the real one that

* times the gap between consecutive lists the runner pulls: the time the
  pass driver and the counter spent on one adjacency list (``feed``);
* in the triangle run only (the two counters' estimates cost different
  amounts, and mixing them would put the median between two modes):
  halfway through the last pass, where the two-pass estimate is live,
  takes the anytime estimate (``current_estimate()``, what a served poll
  computes) ``POLLS`` times and times each (``poll``); and halfway
  through pass 0 takes the counter's checkpoint snapshot and times its
  JSON encoding, ``SNAPSHOTS`` times back to back (``snapshot``, their
  median).  Both bursts are bracketed by their own host-speed probes.

Poll and snapshot time is taken off the wall clock of the run, so
``*_pairs_per_s`` is the pass driver's and counter's rate alone.  Host
speed (``common.host_speed``) is probed before, after and every
``PROBE_EVERY`` lists inside each counter run (probe time excluded too),
and the run's times are scaled by the median.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from perfbench.common import clock, host_speed, median

N_VERTICES = 20_000
ATTACH = 10
TRIANGLE_PROB = 0.3
BUDGET = 512
POLLS = 200
SNAPSHOTS = 5
#: Lists between host-speed probes inside a run (their time is excluded).
PROBE_EVERY = 10_000
COUNTERS = ("triangle-two-pass", "fourcycle-two-pass")


def build_inputs(seed: int) -> Dict[str, Any]:
    """Graph, stream with its column memo filled, and scalar-oracle references."""
    from repro.graph.generators import powerlaw_cluster_graph
    from repro.streaming.registry import get as get_spec
    from repro.streaming.runner import run_algorithm
    from repro.streaming.stream import AdjacencyListStream
    from repro.util.vectorized import scalar_oracle

    graph = powerlaw_cluster_graph(N_VERTICES, ATTACH, TRIANGLE_PROB, seed=seed)
    stream = AdjacencyListStream(graph, seed=seed + 1)
    for vertex, neighbors in stream.iter_lists():
        stream.columns_for(vertex, neighbors)
    references = {}
    with scalar_oracle():
        for name in COUNTERS:
            algorithm = get_spec(name).make(BUDGET, seed=seed + 2)
            references[name] = run_algorithm(algorithm, stream).estimate
    return {"stream": stream, "references": references, "algo_seed": seed + 2,
            "m": stream.m, "pairs": len(stream)}


def _probed(times: int, call: Any) -> List[float]:
    """Time ``call`` ``times`` times, scaled by host-speed probes around."""
    before = host_speed()
    elapsed = []
    for _ in range(times):
        begin = clock()
        call()
        elapsed.append(clock() - begin)
    speed = (before + host_speed()) / 2
    return [x * speed for x in elapsed]


class _ProbedStream:
    """The stream as the runner sees it, with list gaps, polls and one
    snapshot measured between the lists it yields."""

    def __init__(self, stream: Any, algorithm: Any, probe: bool):
        self.stream = stream
        self.algorithm = algorithm
        self.columns_for = stream.columns_for
        self.feed_lat: List[float] = []
        self.poll_lat: List[float] = []
        self.snapshot_s = 0.0
        self.snapshot_bytes = 0
        self.side_s = 0.0
        self.speeds: List[float] = []
        self._passes = 0
        self._probe = probe

    def __len__(self) -> int:
        return len(self.stream)

    def _encode_snapshot(self) -> str:
        return json.dumps(self.algorithm.snapshot().to_json_dict(), sort_keys=True)

    def iter_lists(self):
        first_pass = self._passes == 0
        self._passes += 1
        last_pass = self._passes == self.algorithm.n_passes
        half = self.stream.graph.n // 2
        last = None
        for index, item in enumerate(self.stream.iter_lists()):
            now = clock()
            if last is not None:
                self.feed_lat.append(now - last)
            if index % PROBE_EVERY == PROBE_EVERY // 2:
                self.speeds.append(host_speed())
            if self._probe and last_pass and index == half:
                self.poll_lat.extend(_probed(POLLS, self.algorithm.current_estimate))
            if self._probe and first_pass and index == half:
                self.snapshot_s = median(_probed(SNAPSHOTS, self._encode_snapshot))
                self.snapshot_bytes = len(self._encode_snapshot())
            last = clock()
            self.side_s += last - now
            yield item


def run_round(inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Both counters once; returns per-counter rates, samples and checks."""
    import repro.streaming.runner as runner
    from repro.streaming.registry import get as get_spec

    out: Dict[str, Any] = {"feed_lat": [], "poll_lat": [], "mismatches": [],
                           "wall": {}, "speed": {}, "observables": {}}
    for name in COUNTERS:
        algorithm = get_spec(name).make(BUDGET, seed=inputs["algo_seed"])
        probed = _ProbedStream(inputs["stream"], algorithm, name == COUNTERS[0])
        before = host_speed()
        begin = clock()
        result = runner.run_algorithm(algorithm, probed)
        full = clock() - begin
        speed = median([before, *probed.speeds, host_speed()])
        wall = (full - probed.side_s) * speed
        out["speed"][name] = speed
        out["wall"][name] = wall
        out["full_wall"] = out.get("full_wall", 0.0) + full
        out[name] = 2 * inputs["pairs"] / wall
        out["feed_lat"].extend(x * speed for x in probed.feed_lat)
        out["poll_lat"].extend(probed.poll_lat)
        out["observables"][name] = algorithm.observables()
        if probed.snapshot_bytes:
            out["snapshot_s"] = probed.snapshot_s
            out["snapshot_bytes"] = probed.snapshot_bytes
        if result.estimate != inputs["references"][name]:
            out["mismatches"].append(
                f"{name}: {result.estimate!r} != oracle {inputs['references'][name]!r}"
            )
    out["combined"] = 4 * inputs["pairs"] / sum(out["wall"].values())
    return out


def observed_counts(rounds: List[Dict[str, Any]]) -> Dict[str, Tuple[float, float]]:
    """(offers, accepted) per counter key, summed over ``rounds``."""
    from perfbench.spans import COUNTERS as KEYS

    totals: Dict[str, Tuple[float, float]] = {}
    for result in rounds:
        for name, gauges in result["observables"].items():
            offers, accepted = totals.get(KEYS[name], (0.0, 0.0))
            totals[KEYS[name]] = (
                offers + gauges.get("edge_offers_total", 0),
                accepted + gauges.get("edge_offers_accepted", 0),
            )
    return totals
