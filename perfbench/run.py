#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-powerlaw --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that produces the per-layer
ledger (see ``perfbench/layers.json`` for which layer metric should move
which end-to-end metric on which workload).  Every run checks its outputs
(any wrong estimate fails the run), prints a human-readable table, and
ends its standard output with one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The full record of a run (environment stamp, method, raw ledger, rung
verdicts) is written to ``.perfbench/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402
from perfbench.common import BenchError, clock, median, percentile  # noqa: E402

WORKLOADS = ("batch-powerlaw", "serve-ingest", "serve-fleet")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "triangle_pairs_per_s": "pairs/s",
    "fourcycle_pairs_per_s": "pairs/s",
    "snapshot_s": "s",
    "session_state_bytes": "bytes",
    "server_peak_rss_mb": "MB",
    "fleet_sustained_pairs_per_s": "pairs/s",
}

#: Latency percentiles.  Measured in untraced rounds like the metrics above,
#: but reported with the traced run's per-layer set: on the shared 2-vCPU VM
#: the bounds were set on, their run-to-run spread (30-40%) exceeds any
#: regression bound a benchmark may fix (at most 25%).
LATENCY = ("poll_p50_s", "poll_p99_s", "feed_p50_s", "feed_p99_s")


def _per_layer_units() -> Dict[str, str]:
    units = {"runner.self_s": "s", "runner.lists": "count", "core.self_s": "s"}
    for key in ("triangle", "fourcycle"):
        for metric in ("admit_s", "pass1_s", "detect_s", "pass_boundary_s", "space_poll_s", "estimate_s"):
            units[f"core.{key}.{metric}"] = "s"
        units[f"core.{key}.offers"] = "count"
        units[f"core.{key}.admitted_share"] = "ratio"
    units.update({name: "s" for name in LATENCY})
    units.update({
        "validator.feed_s": "s",
        "validator.finish_s": "s",
        "validator.fallback_share": "ratio",
        "validator.state_bytes": "bytes",
        "protocol.decode_s": "s",
        "protocol.encode_s": "s",
        "protocol.bytes_in": "bytes",
        "sketch.state_encode_s": "s",
        "session.feed_self_s": "s",
        "session.finish_self_s": "s",
        "session.poll_s": "s",
        "session.snapshot_self_s": "s",
        "session.lists": "count",
        "manager.feed_wait_s": "s",
        "manager.poll_wait_s": "s",
        "server.handle_self_s": "s",
        "server.requests": "count",
        "router.hop_p50_s": "s",
        "router.hop_p99_s": "s",
        "loadgen.lag_p99_s": "s",
        "loadgen.backlog_peak": "count",
        "unattributed_s": "s",
        "trace_overhead_share": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def timed_setup(build: Callable[[], Any], release: Callable[[Any], None] = lambda _: None) -> Tuple[float, Any]:
    """Build ``SETUP_REPS`` times; return the median speed-scaled time and
    the last build."""
    times: List[float] = []
    built = None
    for _ in range(SETUP_REPS):
        if built is not None:
            release(built)
            built = None
            gc.collect()
        before = common.host_speed()
        begin = clock()
        built = build()
        elapsed = clock() - begin
        times.append(elapsed * (before + common.host_speed()) / 2)
    return median(times), built


def layer_metrics(ledger: Dict[str, Any], rounds: int, basis_s: float,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics (per traced round) from a ledger of span totals."""
    spans = ledger.get("spans", {})
    counts = ledger.get("counts", {})
    scale = 1.0 / max(rounds, 1)

    def wall(name: str) -> float:
        return spans.get(name, {}).get("wall_s", 0.0) * scale

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0) * scale

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0) * scale

    out = {
        "runner.self_s": own("runner.run"),
        "runner.lists": counts.get("runner.lists", 0) * scale,
        "core.self_s": sum(own(n) for n in spans if n.startswith("core.")),
    }
    for key in ("triangle", "fourcycle"):
        prefix = f"core.{key}."
        offers = counts.get(prefix + "offers", 0)
        out.update({
            prefix + "admit_s": wall(prefix + "admit"),
            prefix + "pass1_s": wall(prefix + "pass1_process"),
            prefix + "detect_s": wall(prefix + "detect"),
            prefix + "pass_boundary_s": wall(prefix + "pass_boundary"),
            prefix + "space_poll_s": wall(prefix + "space_poll"),
            prefix + "estimate_s": own(prefix + "estimate"),
            prefix + "offers": offers * scale,
            prefix + "admitted_share": counts.get(prefix + "accepted", 0) / offers if offers else 0.0,
        })
    feed_arrays = spans.get("validator.feed_array", {}).get("calls", 0)
    out.update({
        "validator.feed_s": own("validator.feed_pair") + own("validator.feed") + own("validator.feed_array"),
        "validator.finish_s": wall("validator.finish"),
        "validator.fallback_share": counts.get("validator.fallbacks", 0) / feed_arrays if feed_arrays else 0.0,
        "protocol.decode_s": own("protocol.decode"),
        "protocol.encode_s": own("protocol.encode"),
        "protocol.bytes_in": counts.get("protocol.bytes_in", 0) * scale,
        "sketch.state_encode_s": wall("sketch.state_encode"),
        "session.feed_self_s": own("session.feed"),
        "session.finish_self_s": own("session.finish"),
        "session.poll_s": wall("session.poll"),
        "session.snapshot_self_s": own("session.snapshot"),
        "session.lists": counts.get("session.lists", 0) * scale,
        "manager.feed_wait_s": own("manager.feed"),
        "manager.poll_wait_s": own("manager.poll"),
        "server.handle_self_s": own("server.handle"),
        "server.requests": calls("server.handle"),
    })
    # Manager self time is waiting (locks, feed gate), not work: it stays
    # out of the busy sum the basis is compared against.
    busy = sum(own(n) for n in spans if not n.startswith("manager."))
    out["unattributed_s"] = basis_s * scale - busy
    for name in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(extra)
    return out


# -- workloads ------------------------------------------------------------------


def run_batch(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from perfbench import batch

    recorder = None
    if trace:
        from perfbench.spans import Recorder, install_batch

        recorder = Recorder()
        install_batch(recorder)
    setup_s, inputs = timed_setup(lambda: batch.build_inputs(seed))
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    begin = clock()
    while not plain or (trace and not traced) or clock() - begin < seconds:
        if recorder is not None and len(traced) < len(plain):
            recorder.enabled = True
            traced.append(batch.run_round(inputs))
            recorder.enabled = False
        else:
            plain.append(batch.run_round(inputs))
    mismatches = [m for r in plain + traced for m in r["mismatches"]]
    feed = [x for r in plain for x in r["feed_lat"]]
    poll = [x for r in plain for x in r["poll_lat"]]
    e2e = {
        "setup_s": setup_s,
        "triangle_pairs_per_s": median(r["triangle-two-pass"] for r in plain),
        "fourcycle_pairs_per_s": median(r["fourcycle-two-pass"] for r in plain),
        "snapshot_s": median(r["snapshot_s"] for r in plain),
        "session_state_bytes": median(r["snapshot_bytes"] for r in plain),
        "server_peak_rss_mb": common.peak_rss_mb([os.getpid()]),
        "fleet_sustained_pairs_per_s": median(r["combined"] for r in plain),
        "poll_p50_s": percentile(poll, 0.5),
        "poll_p99_s": percentile(poll, 0.99),
        "feed_p50_s": percentile(feed, 0.5),
        "feed_p99_s": percentile(feed, 0.99),
    }
    record: Dict[str, Any] = {
        "rounds": len(plain), "traced_rounds": len(traced),
        "samples": {"poll": len(poll), "feed": len(feed)},
        "m": inputs["m"], "pairs_per_pass": inputs["pairs"],
        "per_round": [{k: r[k] for k in (*batch.COUNTERS, "combined", "snapshot_s")} for r in plain],
    }
    layers = None
    if recorder is not None:
        ledger = recorder.ledger()
        for key, (offers, accepted) in batch.observed_counts(traced).items():
            ledger["counts"][f"core.{key}.offers"] = offers
            ledger["counts"][f"core.{key}.accepted"] = accepted
        # Basis: the whole run_algorithm calls, polls and snapshot included.
        basis = sum(r["full_wall"] for r in traced)
        traced_wall = median(sum(r["wall"].values()) for r in traced)
        plain_wall = median(sum(r["wall"].values()) for r in plain)
        layers = layer_metrics(ledger, len(traced), basis, {
            "trace_overhead_share": traced_wall / plain_wall - 1.0,
            **{name: e2e[name] for name in LATENCY},
        })
        record["ledger"] = ledger
    attempted = 2 * (len(plain) + len(traced))
    return {"e2e": e2e, "layers": layers, "record": record, "mismatches": mismatches,
            "attempted": attempted, "failed": len(mismatches)}


def run_ingest(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from perfbench import ingest

    def build() -> Tuple[Dict[str, Any], common.ServerProcess]:
        inputs = ingest.build_inputs(seed)
        server = common.ServerProcess("single", trace, "ingest")
        server.wait_ready()
        return inputs, server

    setup_s, (inputs, server) = timed_setup(build, lambda built: built[1].stop())
    common.pin_processes([], server.pids)  # the server gets a vCPU of its own
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        begin = clock()
        while not plain or (trace and not traced) or clock() - begin < seconds:
            if trace and len(traced) < len(plain):
                ingest.control(server, "enable")
                traced.append(ingest.run_round(server, inputs))
                ingest.control(server, "disable")
            else:
                plain.append(ingest.run_round(server, inputs))
        ledger = ingest.control(server, "ledger")["ledger"] if trace else None
        rss = common.peak_rss_mb(server.pids)
    finally:
        server.stop()
    mismatches = [m for r in plain + traced for m in r["mismatches"]]
    gaps = [b for r in plain for b in r["gap_batches"]]
    polls = [b for r in plain for b in r["poll_batches"]]

    def batch_median(batches: List[List[float]], q: float) -> float:
        return median(percentile(b, q) for b in batches)

    e2e = {
        "setup_s": setup_s,
        "triangle_pairs_per_s": median(r["triangle-two-pass"] for r in plain),
        "fourcycle_pairs_per_s": median(r["fourcycle-two-pass"] for r in plain),
        "snapshot_s": median(r["snapshot_s"] for r in plain),
        "session_state_bytes": median(r["snapshot_bytes"] for r in plain),
        "server_peak_rss_mb": rss,
        "fleet_sustained_pairs_per_s": median(r["combined"] for r in plain),
        "poll_p50_s": batch_median(polls, 0.5),
        "poll_p99_s": batch_median(polls, 0.99),
        "feed_p50_s": batch_median(gaps, 0.5),
        "feed_p99_s": batch_median(gaps, 0.99),
    }
    record: Dict[str, Any] = {
        "rounds": len(plain), "traced_rounds": len(traced),
        "samples": {"poll": [len(b) for b in polls], "feed": [len(b) for b in gaps]},
        "pairs_per_pass": inputs["pairs"],
        "per_round": [{k: r[k] for k in (*ingest.COUNTERS, "combined", "snapshot_s")} for r in plain],
    }
    layers = None
    if ledger is not None:
        # Basis: the client-side time of every timed request in the traced
        # rounds (ingest clocks plus the snapshot and the polls).
        basis = sum(r["raw_ingest_s"] + r["snapshot_raw_s"] + r["poll_raw_s"] for r in traced)
        traced_ingest = median(sum(r["ingest_s"].values()) for r in traced)
        plain_ingest = median(sum(r["ingest_s"].values()) for r in plain)
        layers = layer_metrics(ledger, len(traced), basis, {
            "validator.state_bytes": median(r["validator_bytes"] for r in traced),
            "trace_overhead_share": traced_ingest / plain_ingest - 1.0,
            **{name: e2e[name] for name in LATENCY},
        })
        record["ledger"] = ledger
    attempted = sum(2 * len(inputs["frames"][c]) + 2 + ingest.POLLS * ingest.POLL_BATCHES + 3
                    for c in ingest.COUNTERS) + 1
    attempted *= len(plain) + len(traced)
    return {"e2e": e2e, "layers": layers, "record": record, "mismatches": mismatches,
            "attempted": attempted, "failed": len(mismatches)}


def _cpu_per_pair(verdict: Dict[str, Any]) -> float:
    pairs = verdict["rate"] * verdict["seconds"]
    return verdict["worker_cpu_s"] * verdict["speed"] / pairs


def run_fleet(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from perfbench import fleet

    result = fleet.run(seed, seconds, trace, lambda build: timed_setup(build, lambda b: b[1].stop()))
    e2e = {
        "setup_s": result["setup_s"],
        "triangle_pairs_per_s": result["counter_rates"]["triangle-two-pass"],
        "fourcycle_pairs_per_s": result["counter_rates"]["fourcycle-two-pass"],
        "snapshot_s": result["snapshot"]["snapshot_s"],
        "session_state_bytes": result["snapshot"]["bytes"],
        "server_peak_rss_mb": result["rss_mb"],
        "fleet_sustained_pairs_per_s": float(result["sustained_rate"]),
        **result["ref_latency"],
    }
    mismatches = []
    if result["mismatches"]:
        mismatches.append(f"{result['mismatches']} of {result['lives_done']} session estimates differ from run_algorithm")
    if result["open_high_water"] < fleet.SESSIONS:
        mismatches.append(f"open_high_water {result['open_high_water']} < {fleet.SESSIONS}")
    if result["lives_done"] == 0:
        mismatches.append("no session completed both passes")
    mismatches.extend(result["failures"])
    layers = None
    if trace:
        sustained = [v for v in result["references"] + result["ladder"]
                     if v["sustained"]] or result["references"]
        untraced, traced = result["references"] + [result["untraced"]], result["traced"]
        layers = layer_metrics(result["ledger"], 1, traced["worker_cpu_s"], {
            "validator.state_bytes": result["snapshot"]["validator_bytes"],
            "router.hop_p50_s": result["hop"]["hop_p50_s"],
            "router.hop_p99_s": result["hop"]["hop_p99_s"],
            "loadgen.lag_p99_s": max(v["lag_p99_s"] for v in sustained),
            "loadgen.backlog_peak": max(v["backlog_peak"] for v in sustained),
            # Worker CPU per offered pair, traced window against the
            # untraced windows at the same rate (their mean evens out the
            # phase of the sessions' lives each window happens to cover).
            "trace_overhead_share": _cpu_per_pair(traced)
            / (sum(map(_cpu_per_pair, untraced)) / len(untraced)) - 1.0,
            **{name: e2e[name] for name in LATENCY},
        })
    record = {k: v for k, v in result.items() if k not in ("ledger",)}
    if trace:
        record["ledger"] = result["ledger"]
    return {"e2e": e2e, "layers": layers, "record": record, "mismatches": mismatches,
            "attempted": result["attempted"], "failed": result["failed"]}


RUNNERS = {"batch-powerlaw": run_batch, "serve-ingest": run_ingest, "serve-fleet": run_fleet}

METHOD = {
    "batch-powerlaw": {
        "warm_up": "the stream's column memo is filled in set-up",
        "statistic": "rates: median over rounds; latencies: percentiles of the pooled samples",
    },
    "serve-ingest": {
        "warm_up": "none",
        "statistic": "rates: median over rounds; latencies: median over sessions or poll batches of their percentiles",
    },
    "serve-fleet": {
        "warm_up": "every session opened and its first life staggered, then one discarded rung at the reference rate",
        "statistic": "latencies: median over reference windows of their percentiles; "
        "rates: mean over the sustained staircase rungs, each scaled by its host-speed probes and by the steal share of the worker's vCPU",
    },
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so serving processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.ensure_source_tree()
        outcome = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    values = outcome["layers"] if args.trace else outcome["e2e"]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    correct = not outcome["mismatches"] and outcome["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "problems": outcome["mismatches"],
        "environment": common.environment_stamp({
            "traced": bool(args.trace),
            "setup_reps": SETUP_REPS,
            "host_speed": "times scaled to nominal host speed (perfbench.common.host_speed)",
            **METHOD[args.workload],
        }),
        "metrics": metrics,
        "end_to_end": outcome["e2e"],
        "detail": outcome["record"],
    }
    path = common.write_artifact(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in outcome["mismatches"]:
        print(f"CHECK FAILED: {problem}")
    env = record["environment"]
    print(f"env: {env['cpu_model']} x{env['cpu_usable']}, python {env['python']}, "
          f"numpy {env['numpy']}, git {env['git_sha'][:12]}, src {env['source_digest']}; record {os.path.relpath(path, common.ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
